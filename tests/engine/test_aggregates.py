"""Unit tests for result aggregation."""

import numpy as np
import pytest

from repro.engine import aggregate, group_aggregate, revenue
from repro.plan import ResultSet
from repro.errors import InvalidQueryError


@pytest.fixture()
def result():
    return ResultSet(
        np.array([0, 1, 2, 3]),
        {
            "k": np.array([1, 2, 1, 2]),
            "x": np.array([10.0, 20.0, 30.0, 40.0]),
        },
    )


class TestAggregate:
    def test_scalar_aggregates(self, result):
        out = aggregate(result, {"x": "sum"})
        assert out["sum(x)"] == pytest.approx(100.0)
        assert aggregate(result, {"x": "max"})["max(x)"] == 40.0
        assert aggregate(result, {"x": "min"})["min(x)"] == 10.0
        assert aggregate(result, {"x": "mean"})["mean(x)"] == pytest.approx(25.0)
        assert aggregate(result, {"x": "count"})["count(x)"] == 4

    def test_unknown_function_rejected(self, result):
        with pytest.raises(InvalidQueryError):
            aggregate(result, {"x": "median"})

    def test_empty_result_semantics(self):
        empty = ResultSet(np.empty(0, np.int64), {"x": np.empty(0)})
        assert aggregate(empty, {"x": "sum"})["sum(x)"] == 0.0
        assert aggregate(empty, {"x": "count"})["count(x)"] == 0.0
        assert np.isnan(aggregate(empty, {"x": "max"})["max(x)"])


class TestGroupAggregate:
    def test_grouped_sums(self, result):
        groups = group_aggregate(result, by="k", spec={"x": "sum"})
        assert groups[1]["sum(x)"] == pytest.approx(40.0)
        assert groups[2]["sum(x)"] == pytest.approx(60.0)

    def test_groups_in_ascending_key_order(self, result):
        groups = group_aggregate(result, by="k", spec={"x": "count"})
        assert list(groups) == [1, 2]

    def test_single_group(self):
        result = ResultSet(np.array([0, 1]), {"k": np.array([7, 7]), "x": np.array([1.0, 2.0])})
        groups = group_aggregate(result, by="k", spec={"x": "mean"})
        assert list(groups) == [7]
        assert groups[7]["mean(x)"] == pytest.approx(1.5)

    def test_empty(self):
        empty = ResultSet(np.empty(0, np.int64), {"k": np.empty(0), "x": np.empty(0)})
        assert group_aggregate(empty, by="k", spec={"x": "sum"}) == {}


class TestRevenue:
    def test_tpch_revenue_formula(self):
        result = ResultSet(
            np.array([0, 1]),
            {
                "l_extendedprice": np.array([100.0, 200.0]),
                "l_discount": np.array([0.10, 0.05]),
            },
        )
        assert revenue(result) == pytest.approx(100 * 0.9 + 200 * 0.95)

    def test_empty_revenue(self):
        empty = ResultSet(
            np.empty(0, np.int64),
            {"l_extendedprice": np.empty(0), "l_discount": np.empty(0)},
        )
        assert revenue(empty) == 0.0
