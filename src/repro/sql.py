"""A small SQL front end for the query model.

One grammar, parsed against a catalog of tables (``{name: TableMeta}``)::

    SELECT <item [, item ...] | *>
    FROM <table> [AS OF <version>] [JOIN <table> ON <col> = <col> ...]
    [WHERE <predicate> [AND <predicate> ...]]
    [GROUP BY <column [, column ...]>]

where an *item* is a (possibly ``table.column``-qualified) column, an
aggregate ``SUM|MIN|MAX|AVG|MEAN|COUNT(<column>)``, or ``COUNT(*)``; bare
column names resolve against the FROM tables when unambiguous.  Predicates
take the forms::

    a = 5          a < 5       a <= 5      a > 5       a >= 5
    a BETWEEN 1 AND 20

and numbers are decimal literals with an optional exponent (``1e-05``).

:func:`parse_relational_statement` returns the
:class:`~repro.plan.relational.RelationalQuery` the operator DAG runs; the
DAG reads the head catalog version, so ``AS OF`` is rejected there.
:func:`parse_statement` parses against the one-table catalog
``{table.name: table}`` and reduces the result (:func:`single_table_query`)
to a plain :class:`~repro.core.query.Query` — the paper's query shape, a
projection plus a conjunction of range predicates.  JOIN, GROUP BY and
aggregates are rejected there with errors naming the relational entry point.

A statement may be prefixed with ``EXPLAIN [ANALYZE]``; the query is then
planned (and for ANALYZE, executed with tracing) and the caller renders the
explain report instead of a bare result.

Strict-inequality bounds are converted to closed bounds using the
attribute's integer unit (``a < 5`` on an integer column is ``a <= 4``; on a
continuous column it is the nearest representable float below 5).  Anything
outside the grammar — OR, arithmetic, subqueries, outer joins — raises
:class:`~repro.errors.InvalidQueryError` with a pointed message naming the
nearest supported syntax.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Tuple, Union

from .core.query import Query
from .core.schema import TableMeta
from .errors import InvalidQueryError
from .plan.relational import (
    AggSpec,
    ColumnRef,
    JoinCondition,
    RelationalQuery,
)

__all__ = [
    "Statement",
    "parse_query",
    "parse_relational_query",
    "parse_relational_statement",
    "parse_statement",
    "relational_to_sql",
    "single_table_query",
    "to_sql",
]

_TOKEN = re.compile(
    r"""
    \s*(?:
        (?P<number>-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)
      | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op><=|>=|=|<|>)
      | (?P<comma>,)
      | (?P<star>\*)
      | (?P<dot>\.)
      | (?P<lparen>\()
      | (?P<rparen>\))
      | (?P<other>\S)
    )
    """,
    re.VERBOSE,
)

_KEYWORDS = {
    "SELECT", "FROM", "WHERE", "AND", "BETWEEN", "OR", "NOT",
    "EXPLAIN", "ANALYZE", "JOIN", "ON", "GROUP", "BY", "AS", "OF",
    # Recognized only to reject with a pointed message.
    "ORDER", "LIMIT", "HAVING", "LEFT", "RIGHT", "OUTER", "INNER",
    "FULL", "CROSS", "UNION", "DISTINCT",
}

#: Aggregate spellings accepted in select lists -> canonical function name.
_AGG_NAMES = {
    "SUM": "sum", "MIN": "min", "MAX": "max",
    "AVG": "mean", "MEAN": "mean", "COUNT": "count",
}

_JOIN_IN_SINGLE_TABLE = (
    "JOIN is not supported in single-table queries: parse "
    "multi-table statements with parse_relational_statement() "
    "(SELECT ... FROM a JOIN b ON a.x = b.y ...)"
)


def _tokenize(text: str) -> List[Tuple[str, str]]:
    tokens: List[Tuple[str, str]] = []
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        value = match.group(kind)
        if kind == "name" and value.upper() in _KEYWORDS:
            tokens.append(("keyword", value.upper()))
        elif kind == "other":
            raise InvalidQueryError(f"unexpected character {value!r} in query")
        else:
            tokens.append((kind, value))
    return tokens


class _Parser:
    """Recursive-descent parser for the grammar over a catalog of tables."""

    _REJECTED = {
        "LEFT": "LEFT JOIN", "RIGHT": "RIGHT JOIN", "OUTER": "OUTER JOIN",
        "FULL": "FULL JOIN", "CROSS": "CROSS JOIN",
    }

    def __init__(
        self, tokens: List[Tuple[str, str]], metas: Mapping[str, TableMeta]
    ):
        self.tokens = tokens
        self.position = 0
        self.metas = metas
        self.from_tables: List[str] = []
        #: catalog version from a ``FROM t AS OF <version>`` clause.
        self.as_of: Optional[int] = None

    # -------------------------------------------------------- token stream

    def _peek(self) -> Tuple[str, str] | None:
        if self.position < len(self.tokens):
            return self.tokens[self.position]
        return None

    def _next(self) -> Tuple[str, str]:
        token = self._peek()
        if token is None:
            raise InvalidQueryError("unexpected end of query")
        self.position += 1
        return token

    def _expect_keyword(self, keyword: str) -> None:
        kind, value = self._next()
        if kind != "keyword" or value != keyword:
            raise InvalidQueryError(f"expected {keyword}, found {value!r}")

    def _expect(self, kind: str) -> str:
        token_kind, value = self._next()
        if token_kind != kind:
            raise InvalidQueryError(f"expected {kind}, found {value!r}")
        return value

    def _expect_number(self) -> float:
        literal = self._expect("number")
        value = float(literal)
        if not math.isfinite(value):
            raise InvalidQueryError(f"number {literal} is out of range")
        return value

    # ------------------------------------------------------------- parsing

    def parse(self) -> RelationalQuery:
        self._expect_keyword("SELECT")
        select_tokens_start = self.position
        # FROM must be parsed before select items can resolve bare names;
        # skip ahead, parse FROM/JOIN, then return for the select list.
        self._skip_select_list()
        self._expect_keyword("FROM")
        joins = self._parse_from_joins()
        after_from = self.position
        self.position = select_tokens_start
        select = self._parse_select_list()
        self.position = after_from
        where: Dict[ColumnRef, Tuple[float, float]] = {}
        if self._peek() == ("keyword", "WHERE"):
            self._next()
            where = self._parse_predicates()
        group_by: Tuple[ColumnRef, ...] = ()
        if self._peek() == ("keyword", "GROUP"):
            self._next()
            self._expect_keyword("BY")
            group_by = self._parse_column_list()
        token = self._peek()
        if token is not None:
            if token[0] == "keyword" and token[1] in ("ORDER", "LIMIT", "HAVING"):
                raise InvalidQueryError(
                    f"{token[1]} is not supported: the relational grammar "
                    "ends at GROUP BY (results are canonically ordered; "
                    "filter aggregates client-side)"
                )
            raise InvalidQueryError(
                f"trailing input starting at {token[1]!r}"
            )
        return RelationalQuery(
            tables=tuple(self.from_tables),
            joins=joins,
            where=where,
            select=tuple(select),
            group_by=group_by,
            label="sql",
        )

    # -------------------------------------------------- FROM / AS OF / JOIN

    def _parse_from_joins(self) -> Tuple[JoinCondition, ...]:
        first = self._expect("name")
        if first not in self.metas:
            raise InvalidQueryError(
                f"unknown table {first!r}; catalog has {sorted(self.metas)}"
            )
        self.from_tables.append(first)
        if self._peek() == ("keyword", "AS"):
            self._next()
            self._expect_keyword("OF")
            literal = self._expect("number")
            version = float(literal)
            if not version.is_integer() or version < 0:
                raise InvalidQueryError(
                    f"AS OF takes a non-negative integer catalog version, "
                    f"got {literal!r}"
                )
            self.as_of = int(version)
        joins: List[JoinCondition] = []
        while True:
            token = self._peek()
            if token is None:
                break
            if token[0] == "keyword" and token[1] in self._REJECTED:
                raise InvalidQueryError(
                    f"{self._REJECTED[token[1]]} is not supported: only "
                    "inner equi-joins (JOIN t ON a.x = b.y) are evaluated"
                )
            if token[0] == "comma":
                raise InvalidQueryError(
                    "comma joins are not supported: use explicit "
                    "JOIN <table> ON <left.col> = <right.col>"
                )
            if token != ("keyword", "JOIN"):
                break
            self._next()
            table = self._expect("name")
            if table not in self.metas:
                raise InvalidQueryError(
                    f"unknown table {table!r}; catalog has {sorted(self.metas)}"
                )
            if table in self.from_tables:
                raise InvalidQueryError(
                    f"table {table!r} appears twice in FROM: self-joins are "
                    "not supported"
                )
            self.from_tables.append(table)
            if self._peek() != ("keyword", "ON"):
                raise InvalidQueryError(
                    f"JOIN {table} needs an ON condition "
                    f"(JOIN {table} ON <left.col> = <right.col>)"
                )
            self._next()
            left = self._parse_column_ref()
            kind, op = self._next()
            if kind != "op" or op != "=":
                raise InvalidQueryError(
                    f"JOIN ... ON supports equality only, found {op!r} "
                    "(equi-join: ON a.x = b.y)"
                )
            right = self._parse_column_ref()
            joins.append(JoinCondition(left=left, right=right))
        return tuple(joins)

    # -------------------------------------------------------- select list

    def _skip_select_list(self) -> None:
        depth = 0
        while True:
            token = self._peek()
            if token is None:
                raise InvalidQueryError("unexpected end of query (no FROM)")
            if token == ("keyword", "FROM") and depth == 0:
                return
            if token[0] == "lparen":
                depth += 1
            elif token[0] == "rparen":
                depth -= 1
            self._next()

    def _parse_select_list(self) -> List[Union[ColumnRef, AggSpec]]:
        token = self._peek()
        if token is not None and token[0] == "star":
            self._next()
            return [
                ColumnRef(table, column)
                for table in self.from_tables
                for column in self.metas[table].schema.attribute_names
            ]
        items = [self._parse_select_item()]
        while self._peek() is not None and self._peek()[0] == "comma":
            self._next()
            items.append(self._parse_select_item())
        return items

    def _parse_select_item(self) -> Union[ColumnRef, AggSpec]:
        kind, value = self._next()
        if kind == "keyword" and value == "DISTINCT":
            raise InvalidQueryError(
                "DISTINCT is not supported: use GROUP BY over the "
                "projected columns instead"
            )
        if kind != "name":
            raise InvalidQueryError(
                f"expected a column or aggregate in the select list, "
                f"found {value!r}"
            )
        if self._peek() is not None and self._peek()[0] == "lparen":
            func = _AGG_NAMES.get(value.upper())
            if func is None:
                raise InvalidQueryError(
                    f"unknown function {value!r}: supported aggregates are "
                    + ", ".join(sorted(_AGG_NAMES))
                )
            self._next()  # (
            token = self._peek()
            if token is not None and token[0] == "star":
                if func != "count":
                    raise InvalidQueryError(
                        f"{value.upper()}(*) is not defined; only COUNT(*) "
                        "may aggregate over *"
                    )
                self._next()
                self._expect("rparen")
                return AggSpec("count", None)
            column = self._parse_column_ref()
            self._expect("rparen")
            return AggSpec(func, column)
        # Plain (possibly qualified) column.
        self.position -= 1
        return self._parse_column_ref()

    # ------------------------------------------------------------ columns

    def _parse_column_ref(self) -> ColumnRef:
        first = self._expect("name")
        if self._peek() is not None and self._peek()[0] == "dot":
            self._next()
            column = self._expect("name")
            if first not in self.metas:
                raise InvalidQueryError(
                    f"unknown table {first!r} in {first}.{column}"
                )
            if first not in self.from_tables:
                raise InvalidQueryError(
                    f"table {first!r} is not in the FROM clause"
                )
            if column not in self.metas[first].schema:
                raise InvalidQueryError(
                    f"unknown column {first}.{column}"
                )
            return ColumnRef(first, column)
        owners = [
            table for table in self.from_tables
            if first in self.metas[table].schema
        ]
        if not owners:
            raise InvalidQueryError(
                f"unknown column {first!r} in the FROM tables "
                f"{self.from_tables}"
            )
        if len(owners) > 1:
            raise InvalidQueryError(
                f"column {first!r} is ambiguous (in {owners}): qualify it "
                f"as <table>.{first}"
            )
        return ColumnRef(owners[0], first)

    def _parse_column_list(self) -> Tuple[ColumnRef, ...]:
        refs = [self._parse_column_ref()]
        while self._peek() is not None and self._peek()[0] == "comma":
            self._next()
            refs.append(self._parse_column_ref())
        return tuple(refs)

    # --------------------------------------------------------- predicates

    def _parse_predicates(self) -> Dict[ColumnRef, Tuple[float, float]]:
        bounds: Dict[ColumnRef, Tuple[float, float]] = {}
        while True:
            ref, (lo, hi) = self._parse_predicate()
            if ref in bounds:
                # Conjunctions on the same column intersect.
                old_lo, old_hi = bounds[ref]
                lo, hi = max(lo, old_lo), min(hi, old_hi)
                if hi < lo:
                    raise InvalidQueryError(
                        f"predicates on {ref.qualified!r} are contradictory"
                    )
            bounds[ref] = (lo, hi)
            token = self._peek()
            if token is None or token == ("keyword", "GROUP"):
                return bounds
            if token == ("keyword", "AND"):
                self._next()
                continue
            if token[0] == "keyword" and token[1] in ("OR", "NOT"):
                raise InvalidQueryError(
                    f"{token[1]} is not supported: the engine evaluates "
                    "conjunctions of range predicates (the paper's query shape)"
                )
            _kind, value = self._next()
            raise InvalidQueryError(f"unexpected {value!r} in WHERE clause")

    def _parse_predicate(self) -> Tuple[ColumnRef, Tuple[float, float]]:
        ref = self._parse_column_ref()
        meta = self.metas[ref.table]
        unit = meta.schema[ref.column].unit
        token = self._next()
        if token == ("keyword", "BETWEEN"):
            lo = self._expect_number()
            self._expect_keyword("AND")
            hi = self._expect_number()
            if hi < lo:
                raise InvalidQueryError(
                    f"BETWEEN bounds on {ref.qualified!r} are inverted"
                )
            return ref, (lo, hi)
        kind, op = token
        if kind != "op":
            raise InvalidQueryError(
                f"expected a comparison after {ref.qualified!r}, found {op!r}"
            )
        value = self._expect_number()
        interval = meta.interval(ref.column)
        if op == "=":
            return ref, (value, value)
        if op == "<=":
            return ref, (interval.lo, value)
        if op == ">=":
            return ref, (value, interval.hi)
        if op == "<":
            upper = value - unit if unit else math.nextafter(value, -math.inf)
            return ref, (interval.lo, upper)
        # op == ">"
        lower = value + unit if unit else math.nextafter(value, math.inf)
        return ref, (lower, interval.hi)


def single_table_query(
    query: RelationalQuery, metas: Mapping[str, TableMeta]
) -> Query:
    """The plain single-table :class:`Query` a one-table relational query is.

    A one-table, non-aggregating :class:`RelationalQuery` is exactly the
    paper's query shape; the reduction hands it to the single-table planner
    and engines unchanged.  Joins, aggregates and GROUP BY raise
    :class:`~repro.errors.InvalidQueryError` naming
    :func:`parse_relational_statement`, which keeps them for the DAG.
    """
    if len(query.tables) > 1:
        raise InvalidQueryError(_JOIN_IN_SINGLE_TABLE)
    if query.aggregates:
        raise InvalidQueryError(
            f"aggregate {query.aggregates[0].func.upper()}(...) is not "
            "supported in single-table queries: parse it with "
            "parse_relational_statement() (SELECT SUM(column) FROM t ...)"
        )
    if query.group_by:
        raise InvalidQueryError(
            "GROUP BY is not supported in single-table queries: parse "
            "aggregations with parse_relational_statement() "
            "(SELECT key, SUM(value) FROM t ... GROUP BY key)"
        )
    return Query.build(
        metas[query.tables[0]],
        [ref.column for ref in query.plain_columns],
        {ref.column: bounds for ref, bounds in query.where.items()},
        label=query.label,
    )


# ---------------------------------------------------------------- rendering


def _number(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else repr(value)


def to_sql(query: Query, table_name: str) -> str:
    """Render a :class:`Query` back to the supported SQL subset.

    ``parse_query(table, to_sql(q, table.name))`` reproduces the query's
    projection and predicate bounds (asserted property-based in the tests).
    """
    text = f"SELECT {', '.join(query.select)} FROM {table_name}"
    if query.where:
        predicates = " AND ".join(
            f"{name} BETWEEN {_number(interval.lo)} AND {_number(interval.hi)}"
            for name, interval in query.where.items()
        )
        text += f" WHERE {predicates}"
    return text


def relational_to_sql(query: RelationalQuery) -> str:
    """Render a :class:`RelationalQuery` back to the relational subset.

    ``parse_relational_query(metas, relational_to_sql(q))`` reproduces the
    tables, join conditions, predicate bounds, select list, and GROUP BY
    keys (asserted property-based in the tests).
    """

    def item(entry: Union[ColumnRef, AggSpec]) -> str:
        if isinstance(entry, ColumnRef):
            return entry.qualified
        target = entry.column.qualified if entry.column is not None else "*"
        return f"{entry.func}({target})"

    text = "SELECT " + ", ".join(item(entry) for entry in query.select)
    text += f" FROM {query.tables[0]}"
    for condition in query.joins:
        # Render each join against the table it introduces, in FROM order.
        text += (
            f" JOIN {condition.right.table} "
            f"ON {condition.left.qualified} = {condition.right.qualified}"
        )
    if query.where:
        predicates = " AND ".join(
            f"{ref.qualified} BETWEEN {_number(lo)} AND {_number(hi)}"
            for ref, (lo, hi) in query.where.items()
        )
        text += f" WHERE {predicates}"
    if query.group_by:
        text += " GROUP BY " + ", ".join(
            ref.qualified for ref in query.group_by
        )
    return text


# --------------------------------------------------------------- statements


@dataclass(frozen=True)
class Statement:
    """One parsed statement: the query, plus its ``EXPLAIN [ANALYZE]`` mode.

    ``query`` is a :class:`Query` from :func:`parse_statement` and a
    :class:`RelationalQuery` from :func:`parse_relational_statement`.
    """

    query: Union[Query, RelationalQuery]
    explain: bool = False
    analyze: bool = False
    #: catalog version pinned by ``FROM t AS OF <version>`` (time travel);
    #: None reads the current version.
    as_of: Optional[int] = None


def _parse(
    metas: Mapping[str, TableMeta], tokens: List[Tuple[str, str]]
) -> Statement:
    if not tokens:
        raise InvalidQueryError("empty query")
    explain = tokens[0] == ("keyword", "EXPLAIN")
    analyze = False
    if explain:
        tokens = tokens[1:]
        if tokens and tokens[0] == ("keyword", "ANALYZE"):
            analyze = True
            tokens = tokens[1:]
        if not tokens:
            raise InvalidQueryError(
                "EXPLAIN [ANALYZE] must be followed by a SELECT"
            )
    elif tokens[0] == ("keyword", "ANALYZE"):
        raise InvalidQueryError(
            "ANALYZE is only valid after EXPLAIN (EXPLAIN ANALYZE SELECT ...)"
        )
    parser = _Parser(tokens, metas)
    query = parser.parse()
    return Statement(
        query=query, explain=explain, analyze=analyze, as_of=parser.as_of
    )


def _result_query(
    statement: Statement, entry: str, report: str
) -> Union[Query, RelationalQuery]:
    if statement.explain:
        raise InvalidQueryError(
            "EXPLAIN statements carry no result; parse them with "
            f"{entry}() and render the {report}"
        )
    return statement.query


def parse_statement(table: TableMeta, sql: str) -> Statement:
    """Parse one single-table statement (``[EXPLAIN [ANALYZE]] SELECT ...``).

    The statement is parsed against the one-table catalog
    ``{table.name: table}`` and reduced to a plain :class:`Query` by
    :func:`single_table_query`.  ``EXPLAIN`` marks the statement for
    planning only: the caller should build the executor's plan and render
    its :class:`~repro.plan.explain.ExplainReport` instead of executing.
    ``EXPLAIN ANALYZE`` additionally asks for a traced execution — the
    caller runs the query through :func:`repro.obs.explain_analyze` and
    the report gains the per-operator actuals tree.
    """
    tokens = _tokenize(sql)
    # Refuse before the joined table is resolved: it is not in the
    # one-table catalog, and the pointed message is the useful one.
    if ("keyword", "JOIN") in tokens:
        raise InvalidQueryError(_JOIN_IN_SINGLE_TABLE)
    metas = {table.name: table}
    statement = _parse(metas, tokens)
    return replace(statement, query=single_table_query(statement.query, metas))


def parse_query(table: TableMeta, sql: str) -> Query:
    """Parse one SELECT statement against ``table`` into a :class:`Query`.

    >>> query = parse_query(meta, "SELECT a, b FROM t WHERE a BETWEEN 1 AND 9")
    """
    return _result_query(
        parse_statement(table, sql),
        "parse_statement",
        "executor's explain report",
    )


def parse_relational_statement(
    metas: Mapping[str, TableMeta], sql: str
) -> Statement:
    """Parse one relational statement against a catalog of tables.

    ``metas`` maps table name -> :class:`TableMeta` (e.g.
    ``Catalog.metas()``).  ``EXPLAIN [ANALYZE]`` marks the statement for
    :func:`repro.plan.dag.explain_relational` rendering, mirroring the
    single-table convention.
    """
    statement = _parse(metas, _tokenize(sql))
    if statement.as_of is not None:
        raise InvalidQueryError(
            "AS OF is not supported in relational statements: the operator "
            "DAG reads the head catalog version; pin a version on one table "
            "with parse_statement() (SELECT ... FROM t AS OF <version>)"
        )
    return statement


def parse_relational_query(
    metas: Mapping[str, TableMeta], sql: str
) -> RelationalQuery:
    """Parse one relational SELECT into a :class:`RelationalQuery`."""
    return _result_query(
        parse_relational_statement(metas, sql),
        "parse_relational_statement",
        "DAG explain report",
    )
