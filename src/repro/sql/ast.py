"""Typed abstract syntax tree for the SQL dialect.

The dialect covers everything TPC-H needs (and everything Algorithm 1 must
rewrite): implicit and explicit joins (including LEFT OUTER), GROUP BY /
HAVING, ORDER BY / LIMIT, scalar / IN / EXISTS / FROM subqueries (correlated
or not), CASE, LIKE, BETWEEN, EXTRACT, SUBSTRING, INTERVAL arithmetic,
aggregates with DISTINCT, and hex blob literals (for encrypted constants in
server-side queries).

Nodes are frozen dataclasses: the MONOMI rewriter builds new trees rather
than mutating, so plans can share subtrees safely.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, replace
from typing import Iterator, Sequence, Union

# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr:
    """Base class for all expression nodes."""

    def children(self) -> tuple["Expr", ...]:
        return ()

    def walk(self) -> Iterator["Expr"]:
        """Pre-order traversal of this expression (not into subqueries)."""
        yield self
        for child in self.children():
            yield from child.walk()


@dataclass(frozen=True)
class Literal(Expr):
    """A constant: int, float, str, bool, date, bytes (hex blob), or None."""

    value: Union[int, float, str, bool, bytes, datetime.date, None]

    def __repr__(self) -> str:  # Compact reprs keep plan dumps readable.
        return f"Lit({self.value!r})"


@dataclass(frozen=True)
class Interval(Expr):
    """An INTERVAL literal, e.g. INTERVAL '3' MONTH."""

    amount: int
    unit: str  # "year" | "month" | "day"


@dataclass(frozen=True)
class Column(Expr):
    """A (possibly qualified) column reference."""

    name: str
    table: str | None = None

    @property
    def qualified(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name

    def __repr__(self) -> str:
        return f"Col({self.qualified})"


@dataclass(frozen=True)
class Param(Expr):
    """A named query parameter, e.g. ``:1`` (bound at execution time)."""

    name: str


@dataclass(frozen=True)
class BinOp(Expr):
    """Binary operator: arithmetic, comparison, or boolean connective."""

    op: str  # +, -, *, /, =, <>, <, <=, >, >=, and, or
    left: Expr
    right: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)


@dataclass(frozen=True)
class UnaryOp(Expr):
    op: str  # "not" | "-"
    operand: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)


@dataclass(frozen=True)
class FuncCall(Expr):
    """Function call: scalar functions, aggregates, and server UDFs."""

    name: str  # lower-cased
    args: tuple[Expr, ...] = ()
    distinct: bool = False
    star: bool = False  # COUNT(*)

    def children(self) -> tuple[Expr, ...]:
        return self.args


@dataclass(frozen=True)
class CaseWhen(Expr):
    whens: tuple[tuple[Expr, Expr], ...]
    else_: Expr | None = None

    def children(self) -> tuple[Expr, ...]:
        out: list[Expr] = []
        for cond, result in self.whens:
            out.append(cond)
            out.append(result)
        if self.else_ is not None:
            out.append(self.else_)
        return tuple(out)


@dataclass(frozen=True)
class InList(Expr):
    needle: Expr
    items: tuple[Expr, ...]
    negated: bool = False

    def children(self) -> tuple[Expr, ...]:
        return (self.needle, *self.items)


@dataclass(frozen=True)
class Like(Expr):
    needle: Expr
    pattern: Expr  # normally a Literal string
    negated: bool = False

    def children(self) -> tuple[Expr, ...]:
        return (self.needle, self.pattern)


@dataclass(frozen=True)
class Between(Expr):
    needle: Expr
    low: Expr
    high: Expr
    negated: bool = False

    def children(self) -> tuple[Expr, ...]:
        return (self.needle, self.low, self.high)


@dataclass(frozen=True)
class IsNull(Expr):
    operand: Expr
    negated: bool = False

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)


@dataclass(frozen=True)
class Extract(Expr):
    """EXTRACT(field FROM expr); field is "year" | "month" | "day"."""

    field_name: str
    operand: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)


@dataclass(frozen=True)
class Substring(Expr):
    """SUBSTRING(expr FROM start [FOR length]) — 1-based like SQL."""

    operand: Expr
    start: Expr
    length: Expr | None = None

    def children(self) -> tuple[Expr, ...]:
        if self.length is None:
            return (self.operand, self.start)
        return (self.operand, self.start, self.length)


@dataclass(frozen=True)
class ScalarSubquery(Expr):
    """A subquery used as a scalar value."""

    query: "Select"


@dataclass(frozen=True)
class InSubquery(Expr):
    needle: Expr
    query: "Select"
    negated: bool = False

    def children(self) -> tuple[Expr, ...]:
        return (self.needle,)


@dataclass(frozen=True)
class Exists(Expr):
    query: "Select"
    negated: bool = False


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelectItem:
    expr: Expr
    alias: str | None = None

    def output_name(self, index: int) -> str:
        if self.alias:
            return self.alias
        if isinstance(self.expr, Column):
            return self.expr.name
        return f"col{index}"


@dataclass(frozen=True)
class TableRef:
    """Base class for items in the FROM clause."""


@dataclass(frozen=True)
class TableName(TableRef):
    name: str
    alias: str | None = None

    @property
    def binding(self) -> str:
        return self.alias or self.name


@dataclass(frozen=True)
class SubqueryRef(TableRef):
    query: "Select"
    alias: str

    @property
    def binding(self) -> str:
        return self.alias


@dataclass(frozen=True)
class Join(TableRef):
    """Explicit join. ``kind`` is "inner" | "left"."""

    left: TableRef
    right: TableRef
    kind: str
    condition: Expr | None


@dataclass(frozen=True)
class OrderItem:
    expr: Expr
    ascending: bool = True


@dataclass(frozen=True)
class Select:
    items: tuple[SelectItem, ...]
    from_items: tuple[TableRef, ...] = ()
    where: Expr | None = None
    group_by: tuple[Expr, ...] = ()
    having: Expr | None = None
    order_by: tuple[OrderItem, ...] = ()
    limit: int | None = None
    distinct: bool = False

    def map_expressions(self, fn) -> "Select":
        """Rebuild this Select with ``fn`` applied to every top-level
        expression slot (not recursive into subqueries)."""
        return replace(
            self,
            items=tuple(SelectItem(fn(i.expr), i.alias) for i in self.items),
            where=fn(self.where) if self.where is not None else None,
            group_by=tuple(fn(g) for g in self.group_by),
            having=fn(self.having) if self.having is not None else None,
            order_by=tuple(OrderItem(fn(o.expr), o.ascending) for o in self.order_by),
        )


# ---------------------------------------------------------------------------
# DML statements (PR 10)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Assignment:
    """One ``SET column = expr`` item of an UPDATE."""

    column: str
    value: Expr


@dataclass(frozen=True)
class Insert:
    """``INSERT INTO table [(cols)] VALUES (...), (...)``.

    ``columns`` empty means schema order; every row is a tuple of
    expressions (literals and params after normalization).
    """

    table: str
    columns: tuple[str, ...]
    rows: tuple[tuple[Expr, ...], ...]

    def map_expressions(self, fn) -> "Insert":
        return replace(
            self,
            rows=tuple(tuple(fn(e) for e in row) for row in self.rows),
        )


@dataclass(frozen=True)
class Update:
    """``UPDATE table SET a = ..., b = ... [WHERE ...]``."""

    table: str
    assignments: tuple[Assignment, ...]
    where: Expr | None = None

    def map_expressions(self, fn) -> "Update":
        return replace(
            self,
            assignments=tuple(
                Assignment(a.column, fn(a.value)) for a in self.assignments
            ),
            where=fn(self.where) if self.where is not None else None,
        )


@dataclass(frozen=True)
class Delete:
    """``DELETE FROM table [WHERE ...]``."""

    table: str
    where: Expr | None = None

    def map_expressions(self, fn) -> "Delete":
        return replace(
            self,
            where=fn(self.where) if self.where is not None else None,
        )


#: Every statement kind the parser can produce (``parse_statement``).
Statement = Union["Select", Insert, Update, Delete]


def is_dml(node: object) -> bool:
    return isinstance(node, (Insert, Update, Delete))


# ---------------------------------------------------------------------------
# Traversal helpers used throughout the planner
# ---------------------------------------------------------------------------

AGGREGATE_FUNCTIONS = frozenset(
    {"sum", "count", "avg", "min", "max", "grp", "paillier_sum", "hom_agg"}
)


def is_aggregate_call(expr: Expr) -> bool:
    return isinstance(expr, FuncCall) and expr.name in AGGREGATE_FUNCTIONS


def is_star(expr: Expr) -> bool:
    """Whether ``expr`` is a ``*`` or ``t.*`` select item."""
    return isinstance(expr, Column) and expr.name == "*"


def contains_aggregate(expr: Expr) -> bool:
    return any(is_aggregate_call(e) for e in expr.walk())


def find_aggregates(expr: Expr) -> list[FuncCall]:
    """All aggregate calls in ``expr``, outermost first, no nesting assumed."""
    found: list[FuncCall] = []

    def visit(node: Expr) -> None:
        if is_aggregate_call(node):
            found.append(node)  # Aggregates cannot nest; stop descending.
            return
        for child in node.children():
            visit(child)

    visit(expr)
    return found


def find_columns(expr: Expr) -> list[Column]:
    return [e for e in expr.walk() if isinstance(e, Column)]


def find_subqueries(expr: Expr) -> list[Select]:
    """Immediate subqueries appearing anywhere inside ``expr``."""
    found: list[Select] = []

    def visit(node: Expr) -> None:
        if isinstance(node, ScalarSubquery):
            found.append(node.query)
        elif isinstance(node, InSubquery):
            found.append(node.query)
        elif isinstance(node, Exists):
            found.append(node.query)
        for child in node.children():
            visit(child)

    visit(expr)
    return found


def conjuncts(expr: Expr | None) -> list[Expr]:
    """Split a boolean expression into its top-level AND conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, BinOp) and expr.op == "and":
        return conjuncts(expr.left) + conjuncts(expr.right)
    return [expr]


def conjoin(parts: Sequence[Expr]) -> Expr | None:
    """Reassemble conjuncts into a single AND tree (None when empty)."""
    result: Expr | None = None
    for part in parts:
        result = part if result is None else BinOp("and", result, part)
    return result


def transform(expr: Expr, fn) -> Expr:
    """Bottom-up rewrite: ``fn`` is applied to each node after its children.

    ``fn`` returns either a replacement node or the node it was given.
    Subqueries are not entered; the planner handles them explicitly.
    """
    rebuilt = _rebuild_children(expr, lambda child: transform(child, fn))
    return fn(rebuilt)


def _rebuild_children(expr: Expr, fn) -> Expr:
    if isinstance(expr, BinOp):
        return BinOp(expr.op, fn(expr.left), fn(expr.right))
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, fn(expr.operand))
    if isinstance(expr, FuncCall):
        return FuncCall(expr.name, tuple(fn(a) for a in expr.args), expr.distinct, expr.star)
    if isinstance(expr, CaseWhen):
        whens = tuple((fn(c), fn(r)) for c, r in expr.whens)
        return CaseWhen(whens, fn(expr.else_) if expr.else_ is not None else None)
    if isinstance(expr, InList):
        return InList(fn(expr.needle), tuple(fn(i) for i in expr.items), expr.negated)
    if isinstance(expr, Like):
        return Like(fn(expr.needle), fn(expr.pattern), expr.negated)
    if isinstance(expr, Between):
        return Between(fn(expr.needle), fn(expr.low), fn(expr.high), expr.negated)
    if isinstance(expr, IsNull):
        return IsNull(fn(expr.operand), expr.negated)
    if isinstance(expr, Extract):
        return Extract(expr.field_name, fn(expr.operand))
    if isinstance(expr, Substring):
        length = fn(expr.length) if expr.length is not None else None
        return Substring(fn(expr.operand), fn(expr.start), length)
    if isinstance(expr, InSubquery):
        return InSubquery(fn(expr.needle), expr.query, expr.negated)
    return expr


def table_occurrences(query: Select):
    """Yield every base-table name a query tree references, once per
    occurrence (FROM items, joins, FROM-subqueries, and expression
    subqueries — including inside join ON conditions).

    This is the unit of *static* scan accounting: the engine and every
    server backend charge one table heap read per occurrence, so cost
    ledgers are backend-independent by construction.
    """

    def from_ref(ref: TableRef):
        if isinstance(ref, TableName):
            yield ref.name
        elif isinstance(ref, SubqueryRef):
            yield from table_occurrences(ref.query)
        elif isinstance(ref, Join):
            yield from from_ref(ref.left)
            yield from from_ref(ref.right)
            if ref.condition is not None:
                for sub in find_subqueries(ref.condition):
                    yield from table_occurrences(sub)

    for ref in query.from_items:
        yield from from_ref(ref)
    exprs: list[Expr] = [item.expr for item in query.items]
    exprs.extend(query.group_by)
    exprs.extend(o.expr for o in query.order_by)
    if query.where is not None:
        exprs.append(query.where)
    if query.having is not None:
        exprs.append(query.having)
    for expr in exprs:
        for sub in find_subqueries(expr):
            yield from table_occurrences(sub)
