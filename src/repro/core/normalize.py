"""Query normalization before planning.

Three rewrites run on every incoming query (recursing into subqueries):

* **parameter binding** — ``:1``-style parameters become literals (the
  planner must encrypt constants, so they have to be known);
* **AVG expansion** — ``avg(x)`` becomes ``sum(x) / count(x)``, so the
  planner only reasons about SUM and COUNT (the paper's designs likewise
  precompute sums and counts rather than averages);
* **constant folding** — literal arithmetic, in particular date ± interval
  (``DATE '1998-12-01' - INTERVAL '90' DAY``), folds to a literal so it can
  be encrypted as a DET/OPE constant.

:func:`expand_stars` is the one rewrite that needs the catalog: the planner
and the designer run it on a normalized query before they look at its
columns.
"""

from __future__ import annotations

import datetime
from dataclasses import replace

from repro.common.errors import PlanningError, UnsupportedQueryError
from repro.engine.schema import TableSchema
from repro.sql import ast, parse
from repro.sql.printer import LITERAL_TYPES


def normalize_for_execution(
    sql: "str | ast.Select", params: dict[str, object] | None = None
) -> ast.Select:
    """Parse (if text), normalize, and reject unsupported shapes.

    The one entry gate shared by every execution path — ``MonomiClient``
    and the service layer — so the normalization rules and the paper-§7
    multi-pattern-LIKE rejection live in exactly one place.
    """
    query = parse(sql) if isinstance(sql, str) else sql
    query = normalize_query(query, params)
    if has_multi_pattern_like(query):
        raise UnsupportedQueryError("multi-pattern LIKE is not supported (paper §7)")
    return query


def normalize_dml(
    statement: "ast.Insert | ast.Update | ast.Delete",
    params: dict[str, object] | None = None,
) -> "ast.Insert | ast.Update | ast.Delete":
    """Normalize a DML statement: bind parameters and fold constants.

    The AVG rewrite never applies (DML expressions are scalar); the
    multi-pattern-LIKE gate does — an UPDATE/DELETE predicate runs
    through the same client-side evaluator as a SELECT's residual.
    """
    bound = params or {}
    statement = statement.map_expressions(
        lambda e: ast.transform(e, lambda n: _rewrite_node(n, bound))
    )
    where = getattr(statement, "where", None)
    if where is not None:
        probe = ast.Select(items=(ast.SelectItem(ast.Literal(1)),), where=where)
        if has_multi_pattern_like(probe):
            raise UnsupportedQueryError(
                "multi-pattern LIKE is not supported (paper §7)"
            )
    return statement


def normalize_query(
    query: ast.Select, params: dict[str, object] | None = None
) -> ast.Select:
    params = params or {}

    def rewrite_expr(expr: ast.Expr) -> ast.Expr:
        expr = ast.transform(expr, lambda e: _rewrite_node(e, params))
        return expr

    def rewrite_select(q: ast.Select) -> ast.Select:
        q = q.map_expressions(rewrite_expr)
        q = _rewrite_subqueries(q, rewrite_select)
        return q

    return rewrite_select(query)


def _rewrite_node(expr: ast.Expr, params: dict[str, object]) -> ast.Expr:
    if isinstance(expr, ast.Param):
        if expr.name not in params:
            raise PlanningError(f"unbound parameter :{expr.name}")
        value = params[expr.name]
        # Bound values become literals, which the planner and the plan
        # cache print: refuse here what the printer cannot print.
        if not isinstance(value, LITERAL_TYPES):
            raise PlanningError(
                f"parameter :{expr.name} has unsupported type "
                f"{type(value).__name__}"
            )
        return ast.Literal(value)
    if isinstance(expr, ast.FuncCall) and expr.name == "avg" and len(expr.args) == 1:
        arg = expr.args[0]
        return ast.BinOp(
            "/",
            ast.FuncCall("sum", (arg,), distinct=expr.distinct),
            ast.FuncCall("count", (arg,), distinct=expr.distinct),
        )
    folded = _fold_constant(expr)
    return folded if folded is not None else expr


def _fold_constant(expr: ast.Expr) -> ast.Expr | None:
    if isinstance(expr, ast.BinOp) and expr.op in ("+", "-", "*", "/"):
        lv = _operand(expr.left)
        rv = _operand(expr.right)
        if lv is None or rv is None:
            return None
        if isinstance(lv, bool) or isinstance(rv, bool):
            return None
        try:
            from repro.engine.eval import _eval_arith

            value = _eval_arith(expr.op, lv, rv)
        except Exception:
            return None
        if isinstance(value, (int, float, datetime.date, str)):
            return ast.Literal(value)
    if isinstance(expr, ast.UnaryOp) and expr.op == "-":
        if isinstance(expr.operand, ast.Literal) and isinstance(
            expr.operand.value, (int, float)
        ):
            return ast.Literal(-expr.operand.value)
    return None


def _operand(expr: ast.Expr) -> object:
    """A literal's value or an interval node; ``None`` for anything else."""
    if isinstance(expr, ast.Literal):
        return expr.value
    return expr if isinstance(expr, ast.Interval) else None


def _subquery_rewriter(rewrite_select):
    """An ``ast.transform`` callback that normalizes subqueries in place."""

    def expr_walk(expr: ast.Expr) -> ast.Expr:
        if isinstance(expr, ast.ScalarSubquery):
            return ast.ScalarSubquery(rewrite_select(expr.query))
        if isinstance(expr, ast.InSubquery):
            return ast.InSubquery(expr.needle, rewrite_select(expr.query), expr.negated)
        if isinstance(expr, ast.Exists):
            return ast.Exists(rewrite_select(expr.query), expr.negated)
        return expr

    return expr_walk


def _rewrite_subqueries(query: ast.Select, rewrite_select) -> ast.Select:
    """Recurse normalization into subqueries in expressions and FROM."""
    expr_walk = _subquery_rewriter(rewrite_select)
    query = query.map_expressions(lambda e: ast.transform(e, expr_walk))
    new_from = tuple(_rewrite_ref(ref, rewrite_select) for ref in query.from_items)
    return replace(query, from_items=new_from)


def _rewrite_ref(ref: ast.TableRef, rewrite_select) -> ast.TableRef:
    if isinstance(ref, ast.SubqueryRef):
        return ast.SubqueryRef(rewrite_select(ref.query), ref.alias)
    if isinstance(ref, ast.Join):
        condition = ref.condition
        if condition is not None:
            condition = ast.transform(condition, _subquery_rewriter(rewrite_select))
        return ast.Join(
            _rewrite_ref(ref.left, rewrite_select),
            _rewrite_ref(ref.right, rewrite_select),
            ref.kind,
            condition,
        )
    return ref


def has_multi_pattern_like(query: ast.Select) -> bool:
    """Detect the multi-pattern LIKE shapes the prototype rejects (§7)."""

    found = False

    def check_expr(expr: ast.Expr) -> ast.Expr:
        nonlocal found
        if isinstance(expr, ast.Like) and isinstance(expr.pattern, ast.Literal):
            pattern = expr.pattern.value
            if isinstance(pattern, str) and pattern.strip("%").count("%") > 0:
                found = True
        for sub in ast.find_subqueries(expr):
            if has_multi_pattern_like(sub):
                found = True
        return expr

    for item in query.items:
        ast.transform(item.expr, check_expr)
    if query.where is not None:
        ast.transform(query.where, check_expr)
    if query.having is not None:
        ast.transform(query.having, check_expr)
    for ref in query.from_items:
        if isinstance(ref, ast.SubqueryRef) and has_multi_pattern_like(ref.query):
            found = True
        if isinstance(ref, ast.Join):
            for side in (ref.left, ref.right):
                if isinstance(side, ast.SubqueryRef) and has_multi_pattern_like(
                    side.query
                ):
                    found = True
    return found


def expand_stars(query: ast.Select, schemas: dict[str, TableSchema]) -> ast.Select:
    """Replace ``*`` and ``t.*`` in a select list by the columns they stand
    for, in schema column order, here and in every FROM subquery.

    The splitter resolves columns one name at a time, so a star has to be
    spelled out before planning: expanded, a star query plans exactly as
    its explicit column list does.  A star over more than one relation
    raises :class:`PlanningError` (the plaintext engine lays a join's
    columns out in join order, not FROM order).  Stars inside WHERE
    subqueries (``EXISTS (SELECT * ...)``) select no columns and stay.
    Returns ``query`` itself when nothing changes.
    """
    from_items = tuple(_expand_ref(ref, schemas) for ref in query.from_items)
    items = query.items
    if any(ast.is_star(item.expr) for item in items):
        if len(from_items) != 1 or isinstance(from_items[0], ast.Join):
            raise PlanningError(
                "* over more than one relation is not supported; "
                "list the columns"
            )
        (ref,) = from_items
        names = _relation_columns(ref, schemas)
        expanded: list[ast.SelectItem] = []
        for item in items:
            star = item.expr
            if not ast.is_star(star):
                expanded.append(item)
                continue
            if star.table is not None and star.table != ref.binding:
                raise PlanningError(f"{star.table}.* names no relation in FROM")
            expanded.extend(ast.SelectItem(ast.Column(name)) for name in names)
        items = tuple(expanded)
    if items is query.items and all(
        new is old for new, old in zip(from_items, query.from_items)
    ):
        return query
    return replace(query, items=items, from_items=from_items)


def _expand_ref(ref: ast.TableRef, schemas: dict[str, TableSchema]) -> ast.TableRef:
    if isinstance(ref, ast.SubqueryRef):
        query = expand_stars(ref.query, schemas)
        return ref if query is ref.query else replace(ref, query=query)
    if isinstance(ref, ast.Join):
        left = _expand_ref(ref.left, schemas)
        right = _expand_ref(ref.right, schemas)
        if left is ref.left and right is ref.right:
            return ref
        return replace(ref, left=left, right=right)
    return ref


def _relation_columns(ref: ast.TableRef, schemas: dict[str, TableSchema]) -> list[str]:
    if isinstance(ref, ast.SubqueryRef):
        return [item.output_name(i) for i, item in enumerate(ref.query.items)]
    schema = schemas.get(ref.name)
    if schema is None:
        raise PlanningError(f"cannot expand * over unknown table {ref.name!r}")
    return list(schema.column_names)
