"""Tests for the SQL front end."""

import numpy as np
import pytest

from repro.core import AttributeSpec, TableMeta, TableSchema
from repro.errors import InvalidQueryError
from repro.sql import parse_query, parse_statement


class TestParsing:
    def test_basic_select_where(self, paper_table):
        query = parse_query(
            paper_table, "SELECT a2, a3 FROM T WHERE a1 BETWEEN 11 AND 13"
        )
        assert query.select == ("a2", "a3")
        assert query.predicate_interval("a1").lo == 11
        assert query.predicate_interval("a1").hi == 13

    def test_select_star(self, paper_table):
        query = parse_query(paper_table, "SELECT * FROM T")
        assert query.select == paper_table.attribute_names
        assert not query.where

    def test_case_insensitive_keywords(self, paper_table):
        query = parse_query(paper_table, "select a2 from T where a1 between 11 and 12")
        assert query.select == ("a2",)

    def test_equality_predicate(self, paper_table):
        query = parse_query(paper_table, "SELECT a2 FROM T WHERE a1 = 12")
        interval = query.predicate_interval("a1")
        assert (interval.lo, interval.hi) == (12, 12)

    def test_inequalities_on_integers(self, paper_table):
        lt = parse_query(paper_table, "SELECT a2 FROM T WHERE a1 < 14")
        assert lt.predicate_interval("a1").hi == 13
        gt = parse_query(paper_table, "SELECT a2 FROM T WHERE a1 > 12")
        assert gt.predicate_interval("a1").lo == 13
        le = parse_query(paper_table, "SELECT a2 FROM T WHERE a1 <= 14")
        assert le.predicate_interval("a1").hi == 14
        ge = parse_query(paper_table, "SELECT a2 FROM T WHERE a1 >= 12")
        assert ge.predicate_interval("a1").lo == 12

    def test_multiple_conjuncts(self, paper_table):
        query = parse_query(
            paper_table,
            "SELECT a2 FROM T WHERE a1 BETWEEN 11 AND 14 AND a4 >= 43 AND a6 = 63",
        )
        assert query.sigma_attributes == {"a1", "a4", "a6"}

    def test_repeated_attribute_intersects(self, paper_table):
        query = parse_query(
            paper_table, "SELECT a2 FROM T WHERE a1 >= 12 AND a1 <= 14"
        )
        interval = query.predicate_interval("a1")
        assert (interval.lo, interval.hi) == (12, 14)

    def test_contradictory_predicates_rejected(self, paper_table):
        with pytest.raises(InvalidQueryError):
            parse_query(paper_table, "SELECT a2 FROM T WHERE a1 > 14 AND a1 < 12")

    def test_qualified_column_equals_bare_name(self, paper_table):
        qualified = parse_statement(
            paper_table, "SELECT T.a2 FROM T AS OF 4 WHERE T.a1 > 12"
        )
        bare = parse_statement(paper_table, "SELECT a2 FROM T AS OF 4 WHERE a1 > 12")
        assert qualified.as_of == bare.as_of == 4
        assert qualified.query.select == bare.query.select == ("a2",)
        assert qualified.query.label == bare.query.label
        assert {n: (i.lo, i.hi) for n, i in qualified.query.where.items()} == {
            n: (i.lo, i.hi) for n, i in bare.query.where.items()
        }


class TestErrors:
    @pytest.mark.parametrize(
        "sql",
        [
            "",
            "SELECT FROM T",
            "SELECT a2 FROM WRONG",
            "SELECT a2 FROM T WHERE",
            "SELECT a2 FROM T WHERE zz = 1",
            "SELECT a2 FROM T WHERE a1 OR a2",
            "SELECT a2 FROM T WHERE a1 = 12 OR a4 = 43",
            "SELECT a2 FROM T WHERE a1 BETWEEN 14 AND 11",
            "SELECT a2 FROM T WHERE a1 = 12 garbage",
            "SELECT a2 FROM T WHERE a1 ! 12",
            "SELECT a2 FROM T WHERE a1 < 1e400",
        ],
    )
    def test_rejected(self, paper_table, sql):
        with pytest.raises(InvalidQueryError):
            parse_query(paper_table, sql)

    def test_or_message_mentions_conjunctions(self, paper_table):
        with pytest.raises(InvalidQueryError, match="conjunction"):
            parse_query(paper_table, "SELECT a2 FROM T WHERE a1 = 12 OR a4 = 43")


class TestExplainStatements:
    def test_plain_select_statement(self, paper_table):
        statement = parse_statement(paper_table, "SELECT a2 FROM T WHERE a1 = 12")
        assert statement.explain is False
        assert statement.query.select == ("a2",)

    def test_explain_prefix_sets_the_flag(self, paper_table):
        statement = parse_statement(
            paper_table, "EXPLAIN SELECT a2 FROM T WHERE a1 = 12"
        )
        assert statement.explain is True
        assert statement.query.select == ("a2",)
        assert statement.query.predicate_interval("a1").lo == 12

    def test_explain_keyword_is_case_insensitive(self, paper_table):
        statement = parse_statement(paper_table, "explain select a2 from T")
        assert statement.explain is True

    def test_bare_explain_rejected(self, paper_table):
        with pytest.raises(InvalidQueryError, match="followed by a SELECT"):
            parse_statement(paper_table, "EXPLAIN")

    def test_explain_analyze_sets_both_flags(self, paper_table):
        statement = parse_statement(
            paper_table, "EXPLAIN ANALYZE SELECT a2 FROM T WHERE a1 = 12"
        )
        assert statement.explain is True
        assert statement.analyze is True
        assert statement.query.select == ("a2",)

    def test_plain_explain_does_not_analyze(self, paper_table):
        statement = parse_statement(
            paper_table, "EXPLAIN SELECT a2 FROM T"
        )
        assert statement.analyze is False

    def test_explain_analyze_case_insensitive(self, paper_table):
        statement = parse_statement(
            paper_table, "explain analyze select a2 from T"
        )
        assert statement.analyze is True

    def test_bare_explain_analyze_rejected(self, paper_table):
        with pytest.raises(InvalidQueryError, match="followed by a SELECT"):
            parse_statement(paper_table, "EXPLAIN ANALYZE")

    def test_analyze_without_explain_rejected(self, paper_table):
        with pytest.raises(InvalidQueryError, match="only valid after EXPLAIN"):
            parse_statement(paper_table, "ANALYZE SELECT a2 FROM T")

    def test_parse_query_refuses_explain(self, paper_table):
        with pytest.raises(InvalidQueryError, match="parse_statement"):
            parse_query(paper_table, "EXPLAIN SELECT a2 FROM T")

    def test_explain_statement_renders_a_report(self, small_table, small_workload, ctx):
        from repro.layouts import IrregularLayout

        layout = IrregularLayout().build(small_table, small_workload, ctx)
        statement = parse_statement(
            small_table.meta,
            "EXPLAIN SELECT a2 FROM T WHERE a1 BETWEEN 0 AND 1999",
        )
        text = layout.executor.explain(statement.query).render()
        assert text.startswith("EXPLAIN SELECT")
        assert "logical plan:" in text
        assert "physical plan:" in text


class TestAsOf:
    def test_default_is_none(self, paper_table):
        statement = parse_statement(paper_table, "SELECT a2 FROM T")
        assert statement.as_of is None

    def test_as_of_version_parses(self, paper_table):
        statement = parse_statement(
            paper_table, "SELECT a2 FROM T AS OF 3 WHERE a1 = 12"
        )
        assert statement.as_of == 3
        assert statement.query.select == ("a2",)
        assert statement.query.predicate_interval("a1").lo == 12

    def test_as_of_without_where(self, paper_table):
        statement = parse_statement(paper_table, "SELECT a2 FROM T AS OF 0")
        assert statement.as_of == 0
        assert not statement.query.where

    def test_as_of_is_case_insensitive(self, paper_table):
        statement = parse_statement(paper_table, "select a2 from T as of 7")
        assert statement.as_of == 7

    def test_explain_composes_with_as_of(self, paper_table):
        statement = parse_statement(
            paper_table, "EXPLAIN SELECT a2 FROM T AS OF 2 WHERE a1 = 12"
        )
        assert statement.explain is True
        assert statement.as_of == 2

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT a2 FROM T AS OF",
            "SELECT a2 FROM T AS OF x",
            "SELECT a2 FROM T AS 3",
            "SELECT a2 FROM T AS OF -1",
            "SELECT a2 FROM T AS OF 1.5",
        ],
    )
    def test_malformed_as_of_rejected(self, paper_table, sql):
        with pytest.raises(InvalidQueryError):
            parse_statement(paper_table, sql)

    def test_fractional_version_message(self, paper_table):
        with pytest.raises(InvalidQueryError, match="non-negative integer"):
            parse_statement(paper_table, "SELECT a2 FROM T AS OF 1.5")


class TestEndToEnd:
    def test_parsed_query_runs_on_a_layout(self, small_table, small_workload, ctx):
        from repro.layouts import RowLayout

        layout = RowLayout().build(small_table, small_workload, ctx)
        query = parse_query(
            small_table.meta, "SELECT a2, a5 FROM T WHERE a1 BETWEEN 0 AND 1999"
        )
        result, _stats = layout.execute(query)
        mask = small_table.column("a1") <= 1999
        assert result.n_tuples == int(mask.sum())
        expected = small_table.column("a5")[np.nonzero(mask)[0]]
        assert np.array_equal(result.column("a5"), expected)


class TestToSql:
    def test_roundtrip(self, paper_table):
        from repro.sql import to_sql

        original = parse_query(
            paper_table,
            "SELECT a2, a5 FROM T WHERE a1 BETWEEN 11 AND 14 AND a4 >= 43",
        )
        rebuilt = parse_query(paper_table, to_sql(original, "T"))
        assert rebuilt.select == original.select
        assert {n: (i.lo, i.hi) for n, i in rebuilt.where.items()} == {
            n: (i.lo, i.hi) for n, i in original.where.items()
        }

    def test_no_where(self, paper_table):
        from repro.sql import to_sql

        query = parse_query(paper_table, "SELECT a1 FROM T")
        assert to_sql(query, "T") == "SELECT a1 FROM T"

    @pytest.mark.parametrize(
        "predicate", ["x > 0", "x BETWEEN 0.00001 AND 0.5"]
    )
    def test_continuous_column_roundtrip(self, predicate):
        from repro.sql import to_sql

        schema = TableSchema(
            [AttributeSpec("k"), AttributeSpec("x", 8, "float64", integer=False)]
        )
        meta = TableMeta.from_bounds("t", schema, 10, {"k": (0, 9), "x": (0, 1)})
        original = parse_query(meta, f"SELECT k FROM t WHERE {predicate}")
        rebuilt = parse_query(meta, to_sql(original, "t"))
        assert {n: (i.lo, i.hi) for n, i in rebuilt.where.items()} == {
            n: (i.lo, i.hi) for n, i in original.where.items()
        }


class TestSqlProperty:
    def test_random_roundtrips(self, paper_table):
        """Property-style: random projections/predicates survive the
        SQL render -> parse roundtrip."""
        import numpy as np

        from repro.core import Query
        from repro.sql import to_sql

        rng = np.random.default_rng(7)
        names = paper_table.attribute_names
        for _ in range(50):
            k = int(rng.integers(1, len(names) + 1))
            select = list(rng.choice(names, size=k, replace=False))
            where = {}
            for name in rng.choice(names, size=int(rng.integers(0, 3)), replace=False):
                interval = paper_table.interval(name)
                lo = int(rng.integers(interval.lo, interval.hi + 1))
                hi = int(rng.integers(lo, interval.hi + 1))
                where[name] = (lo, hi)
            original = Query.build(paper_table, select, where)
            rebuilt = parse_query(paper_table, to_sql(original, paper_table.name))
            assert rebuilt.select == original.select
            assert {n: (i.lo, i.hi) for n, i in rebuilt.where.items()} == {
                n: (i.lo, i.hi) for n, i in original.where.items()
            }
