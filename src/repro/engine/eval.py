"""Expression evaluation with SQL semantics (three-valued logic, NULLs).

The evaluator is shared by the untrusted server engine (which sees
ciphertext values: bytes equality for DET, integer order for OPE, tag sets
for SEARCH) and by the trusted client's local operators (which see decrypted
plaintext).  Nothing here is scheme-specific — ciphertext columns are just
ordinary typed values, which is exactly why an *unmodified* DBMS can execute
MONOMI's server queries.
"""

from __future__ import annotations

import datetime
import operator
import re
from dataclasses import dataclass, field
from typing import Callable

from repro.common.errors import ExecutionError
from repro.sql import ast


class Scope:
    """Column-name resolution for one relation's rows."""

    def __init__(self, columns: list[tuple[str | None, str]]) -> None:
        """``columns[i]`` is (binding, column_name) for tuple position i."""
        self.columns = columns
        self._qualified: dict[tuple[str, str], int] = {}
        self._unqualified: dict[str, int | None] = {}
        for i, (binding, name) in enumerate(columns):
            if binding is not None:
                self._qualified[(binding, name)] = i
            if name in self._unqualified:
                self._unqualified[name] = None  # Ambiguous.
            else:
                self._unqualified[name] = i

    def find(self, table: str | None, name: str) -> int | None:
        if table is not None:
            return self._qualified.get((table, name))
        index = self._unqualified.get(name, "missing")
        if index is None:
            raise ExecutionError(f"ambiguous column reference {name!r}")
        if index == "missing":
            return None
        return index

    def merged_with(self, other: "Scope") -> "Scope":
        return Scope(self.columns + other.columns)


class Env:
    """A row bound to a scope, with an optional outer (correlation) env."""

    __slots__ = ("scope", "row", "parent", "used_parent")

    def __init__(self, scope: Scope, row: tuple, parent: "Env | None" = None) -> None:
        self.scope = scope
        self.row = row
        self.parent = parent
        self.used_parent = False

    def lookup(self, table: str | None, name: str) -> object:
        index = self.scope.find(table, name)
        if index is not None:
            return self.row[index]
        if self.parent is not None:
            self.used_parent = True
            value = self.parent.lookup(table, name)
            self.used_parent = self.used_parent or self.parent.used_parent
            return value
        target = f"{table}.{name}" if table else name
        raise ExecutionError(f"unknown column {target!r}")


@dataclass
class EvalContext:
    """Everything evaluation needs beyond the row itself."""

    params: dict[str, object] = field(default_factory=dict)
    functions: dict[str, Callable] = field(default_factory=dict)
    # Called as subquery_executor(select, outer_env) -> ResultSet-like.
    subquery_executor: Callable | None = None
    # Aggregate results for the current group, keyed by the FuncCall node.
    aggregate_values: dict[ast.Expr, object] | None = None
    # Output aliases usable in HAVING / ORDER BY (MONOMI's paper example
    # uses ``HAVING total > 100`` where total is a select alias).
    alias_values: dict[str, object] | None = None
    # Optional fast path for correlated EXISTS (semi-join materialization);
    # called as exists_tester(query, env) -> bool | None (None: no fast path).
    exists_tester: Callable | None = None
    _subquery_cache: dict[int, object] = field(default_factory=dict)


def evaluate(expr: ast.Expr, env: Env | None, ctx: EvalContext) -> object:
    if isinstance(expr, ast.Literal):
        return expr.value
    if isinstance(expr, ast.Interval):
        return expr
    if isinstance(expr, ast.Column):
        if env is None:
            raise ExecutionError(f"column {expr.qualified!r} with no row context")
        try:
            return env.lookup(expr.table, expr.name)
        except ExecutionError:
            if ctx.alias_values is not None and expr.table is None:
                if expr.name in ctx.alias_values:
                    return ctx.alias_values[expr.name]
            raise
    if isinstance(expr, ast.Param):
        if expr.name not in ctx.params:
            raise ExecutionError(f"unbound parameter :{expr.name}")
        return ctx.params[expr.name]
    if isinstance(expr, ast.BinOp):
        return _eval_binop(expr, env, ctx)
    if isinstance(expr, ast.UnaryOp):
        if expr.op == "not":
            value = evaluate(expr.operand, env, ctx)
            return None if value is None else (not _truthy(value))
        value = evaluate(expr.operand, env, ctx)
        return None if value is None else -value
    if isinstance(expr, ast.FuncCall):
        return _eval_func(expr, env, ctx)
    if isinstance(expr, ast.CaseWhen):
        for cond, result in expr.whens:
            if _truthy(evaluate(cond, env, ctx)):
                return evaluate(result, env, ctx)
        return evaluate(expr.else_, env, ctx) if expr.else_ is not None else None
    if isinstance(expr, ast.InList):
        return _eval_in(
            evaluate(expr.needle, env, ctx),
            [evaluate(i, env, ctx) for i in expr.items],
            expr.negated,
        )
    if isinstance(expr, ast.Like):
        return _eval_like(expr, env, ctx)
    if isinstance(expr, ast.Between):
        needle = evaluate(expr.needle, env, ctx)
        low = evaluate(expr.low, env, ctx)
        high = evaluate(expr.high, env, ctx)
        if needle is None or low is None or high is None:
            return None
        result = low <= needle <= high
        return (not result) if expr.negated else result
    if isinstance(expr, ast.IsNull):
        value = evaluate(expr.operand, env, ctx)
        return (value is not None) if expr.negated else (value is None)
    if isinstance(expr, ast.Extract):
        value = evaluate(expr.operand, env, ctx)
        if value is None:
            return None
        if not isinstance(value, datetime.date):
            raise ExecutionError(f"EXTRACT from non-date {value!r}")
        return getattr(value, expr.field_name)
    if isinstance(expr, ast.Substring):
        value = evaluate(expr.operand, env, ctx)
        start = evaluate(expr.start, env, ctx)
        if value is None or start is None:
            return None
        begin = max(int(start) - 1, 0)
        if expr.length is None:
            return value[begin:]
        length = evaluate(expr.length, env, ctx)
        return value[begin : begin + int(length)]
    if isinstance(expr, ast.ScalarSubquery):
        result = _run_subquery(expr.query, env, ctx)
        if len(result.rows) > 1:
            raise ExecutionError("scalar subquery returned more than one row")
        if not result.rows:
            return None
        return result.rows[0][0]
    if isinstance(expr, ast.InSubquery):
        needle = evaluate(expr.needle, env, ctx)
        result = _run_subquery(expr.query, env, ctx)
        return _eval_in(needle, [row[0] for row in result.rows], expr.negated)
    if isinstance(expr, ast.Exists):
        if ctx.exists_tester is not None:
            fast = ctx.exists_tester(expr.query, env)
            if fast is not None:
                return (not fast) if expr.negated else fast
        result = _run_subquery(expr.query, env, ctx)
        found = bool(result.rows)
        return (not found) if expr.negated else found
    raise ExecutionError(f"cannot evaluate expression {expr!r}")


def _eval_binop(expr: ast.BinOp, env: Env | None, ctx: EvalContext) -> object:
    op = expr.op
    if op == "and":
        left = evaluate(expr.left, env, ctx)
        if left is False:
            return False
        right = evaluate(expr.right, env, ctx)
        if right is False:
            return False
        if left is None or right is None:
            return None
        return _truthy(left) and _truthy(right)
    if op == "or":
        left = evaluate(expr.left, env, ctx)
        if left is not None and _truthy(left):
            return True
        right = evaluate(expr.right, env, ctx)
        if right is not None and _truthy(right):
            return True
        if left is None or right is None:
            return None
        return False
    left = evaluate(expr.left, env, ctx)
    right = evaluate(expr.right, env, ctx)
    if left is None or right is None:
        return None
    if op == "=":
        return left == right
    if op == "<>":
        return left != right
    if op in ("<", "<=", ">", ">="):
        try:
            if op == "<":
                return left < right
            if op == "<=":
                return left <= right
            if op == ">":
                return left > right
            return left >= right
        except TypeError:
            raise ExecutionError(
                f"cannot compare {type(left).__name__} with {type(right).__name__}"
            ) from None
    if op == "||":
        return str(left) + str(right)
    return _eval_arith(op, left, right)


def _eval_arith(op: str, left: object, right: object) -> object:
    # Date +/- interval arithmetic.
    if isinstance(left, datetime.date) and isinstance(right, ast.Interval):
        return _shift_date(left, right, -1 if op == "-" else 1)
    if isinstance(right, datetime.date) and isinstance(left, ast.Interval) and op == "+":
        return _shift_date(right, left, 1)
    if isinstance(left, datetime.date) and isinstance(right, datetime.date) and op == "-":
        return (left - right).days
    if isinstance(left, ast.Interval) or isinstance(right, ast.Interval):
        raise ExecutionError(f"bad interval arithmetic: {left!r} {op} {right!r}")
    try:
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                raise ExecutionError("division by zero")
            return left / right
    except TypeError:
        raise ExecutionError(
            f"bad arithmetic: {type(left).__name__} {op} {type(right).__name__}"
        ) from None
    raise ExecutionError(f"unknown operator {op!r}")


def _shift_date(base: datetime.date, interval: ast.Interval, sign: int) -> datetime.date:
    amount = interval.amount * sign
    if interval.unit == "day":
        return base + datetime.timedelta(days=amount)
    if interval.unit == "month":
        total = base.year * 12 + (base.month - 1) + amount
        year, month = divmod(total, 12)
        day = min(base.day, _days_in_month(year, month + 1))
        return datetime.date(year, month + 1, day)
    if interval.unit == "year":
        day = min(base.day, _days_in_month(base.year + amount, base.month))
        return datetime.date(base.year + amount, base.month, day)
    raise ExecutionError(f"unknown interval unit {interval.unit!r}")


def _days_in_month(year: int, month: int) -> int:
    if month == 12:
        return 31
    first_next = datetime.date(year + (month == 12), month % 12 + 1, 1)
    return (first_next - datetime.date(year, month, 1)).days


def _eval_func(expr: ast.FuncCall, env: Env | None, ctx: EvalContext) -> object:
    if ctx.aggregate_values is not None and expr in ctx.aggregate_values:
        return ctx.aggregate_values[expr]
    if ast.is_aggregate_call(expr):
        raise ExecutionError(
            f"aggregate {expr.name}() used outside GROUP BY context"
        )
    fn = ctx.functions.get(expr.name)
    if fn is None:
        raise ExecutionError(f"unknown function {expr.name!r}")
    args = [evaluate(a, env, ctx) for a in expr.args]
    return fn(*args)


def _eval_in(needle: object, items: list, negated: bool) -> object:
    if needle is None:
        return None
    saw_null = False
    for item in items:
        if item is None:
            saw_null = True
        elif item == needle:
            return False if negated else True
    if saw_null:
        return None
    return True if negated else False


def _in_probe(items: list) -> frozenset | None:
    """The set an all-literal IN list can be probed as, or None.

    Hashing agrees with ``==`` only within one type and without NULLs
    (a NULL item makes a miss unknown, not false), so a NULL, a second
    type, a NaN or an unhashable item keeps the item-by-item loop.
    """
    if len({type(v) for v in items}) != 1 or None in items:
        return None
    try:
        probe = frozenset(items)
    except TypeError:
        return None
    return probe if all(v == v for v in probe) else None


_LIKE_CACHE: dict[str, re.Pattern] = {}


def like_matches(text: str, pattern: str) -> bool:
    compiled = _LIKE_CACHE.get(pattern)
    if compiled is None:
        regex = "".join(
            ".*" if ch == "%" else "." if ch == "_" else re.escape(ch) for ch in pattern
        )
        compiled = re.compile("^" + regex + "$", re.DOTALL)
        _LIKE_CACHE[pattern] = compiled
    return compiled.match(text) is not None


def _eval_like(expr: ast.Like, env: Env | None, ctx: EvalContext) -> object:
    needle = evaluate(expr.needle, env, ctx)
    pattern = evaluate(expr.pattern, env, ctx)
    if needle is None or pattern is None:
        return None
    # Server-side searchable encryption: tag-set column LIKE trapdoor bytes.
    if isinstance(needle, frozenset) and isinstance(pattern, bytes):
        found = pattern in needle
    else:
        found = like_matches(str(needle), str(pattern))
    return (not found) if expr.negated else found


# ---------------------------------------------------------------------------
# Compiled expressions
# ---------------------------------------------------------------------------
#
# ``compile_expr`` turns an AST into a closure ``fn(row) -> value`` with all
# dispatch — node type, operator, column index, function pointer — resolved
# once per query instead of once per row.  The executor's hot loops (WHERE
# filtering, hash-join key extraction, group keys, aggregate arguments,
# projection) run these closures directly over raw row tuples, skipping the
# per-row ``Env`` allocation and scope lookups of the tree walker.
#
# Compilation never fails: nodes whose semantics depend on per-row dynamic
# context (subqueries, aggregate references, alias resolution) compile to a
# closure that defers to :func:`evaluate`, so compiled and interpreted
# results are identical by construction.

RowFn = Callable[[tuple], object]

_CMP_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def compile_expr(
    expr: ast.Expr, scope: Scope, ctx: EvalContext, outer: Env | None = None
) -> RowFn:
    if isinstance(expr, ast.Literal):
        value = expr.value
        return lambda row: value
    if isinstance(expr, ast.Interval):
        return lambda row: expr
    if isinstance(expr, ast.Column):
        try:
            index = scope.find(expr.table, expr.name)
        except ExecutionError:
            return _compile_fallback(expr, scope, ctx, outer)
        if index is None:
            # Outer (correlated) or alias reference: needs the env chain.
            return _compile_fallback(expr, scope, ctx, outer)
        return operator.itemgetter(index)
    if isinstance(expr, ast.Param):
        params = ctx.params
        name = expr.name
        def run_param(row):
            if name not in params:
                raise ExecutionError(f"unbound parameter :{name}")
            return params[name]
        return run_param
    if isinstance(expr, ast.BinOp):
        return _compile_binop(expr, scope, ctx, outer)
    if isinstance(expr, ast.UnaryOp):
        operand = compile_expr(expr.operand, scope, ctx, outer)
        if expr.op == "not":
            def run_not(row):
                value = operand(row)
                return None if value is None else (not _truthy(value))
            return run_not
        def run_neg(row):
            value = operand(row)
            return None if value is None else -value
        return run_neg
    if isinstance(expr, ast.FuncCall):
        if ast.is_aggregate_call(expr) or expr.star:
            return _compile_fallback(expr, scope, ctx, outer)
        fn = ctx.functions.get(expr.name)
        if fn is None:
            return _compile_fallback(expr, scope, ctx, outer)
        arg_fns = [compile_expr(a, scope, ctx, outer) for a in expr.args]
        if len(arg_fns) == 1:
            arg0 = arg_fns[0]
            return lambda row: fn(arg0(row))
        return lambda row: fn(*[f(row) for f in arg_fns])
    if isinstance(expr, ast.CaseWhen):
        whens = [
            (compile_expr(c, scope, ctx, outer), compile_expr(r, scope, ctx, outer))
            for c, r in expr.whens
        ]
        else_fn = (
            compile_expr(expr.else_, scope, ctx, outer)
            if expr.else_ is not None
            else None
        )
        def run_case(row):
            for cond_fn, result_fn in whens:
                if _truthy(cond_fn(row)):
                    return result_fn(row)
            return else_fn(row) if else_fn is not None else None
        return run_case
    if isinstance(expr, ast.InList):
        needle_fn = compile_expr(expr.needle, scope, ctx, outer)
        negated = expr.negated
        if all(isinstance(i, ast.Literal) for i in expr.items):
            items = [i.value for i in expr.items]
            probe = _in_probe(items)
            if probe is None:
                return lambda row: _eval_in(needle_fn(row), items, negated)
            def run_in(row):
                needle = needle_fn(row)
                if needle is None:
                    return None
                try:
                    return (needle in probe) is not negated
                except TypeError:  # Unhashable needle: compare one by one.
                    return _eval_in(needle, items, negated)
            return run_in
        item_fns = [compile_expr(i, scope, ctx, outer) for i in expr.items]
        return lambda row: _eval_in(
            needle_fn(row), [f(row) for f in item_fns], negated
        )
    if isinstance(expr, ast.Like):
        needle_fn = compile_expr(expr.needle, scope, ctx, outer)
        pattern_fn = compile_expr(expr.pattern, scope, ctx, outer)
        negated = expr.negated
        def run_like(row):
            needle = needle_fn(row)
            pattern = pattern_fn(row)
            if needle is None or pattern is None:
                return None
            if isinstance(needle, frozenset) and isinstance(pattern, bytes):
                found = pattern in needle
            else:
                found = like_matches(str(needle), str(pattern))
            return (not found) if negated else found
        return run_like
    if isinstance(expr, ast.Between):
        needle_fn = compile_expr(expr.needle, scope, ctx, outer)
        low_fn = compile_expr(expr.low, scope, ctx, outer)
        high_fn = compile_expr(expr.high, scope, ctx, outer)
        negated = expr.negated
        def run_between(row):
            needle = needle_fn(row)
            low = low_fn(row)
            high = high_fn(row)
            if needle is None or low is None or high is None:
                return None
            result = low <= needle <= high
            return (not result) if negated else result
        return run_between
    if isinstance(expr, ast.IsNull):
        operand = compile_expr(expr.operand, scope, ctx, outer)
        if expr.negated:
            return lambda row: operand(row) is not None
        return lambda row: operand(row) is None
    if isinstance(expr, ast.Extract):
        operand = compile_expr(expr.operand, scope, ctx, outer)
        field_name = expr.field_name
        def run_extract(row):
            value = operand(row)
            if value is None:
                return None
            if not isinstance(value, datetime.date):
                raise ExecutionError(f"EXTRACT from non-date {value!r}")
            return getattr(value, field_name)
        return run_extract
    if isinstance(expr, ast.Substring):
        operand = compile_expr(expr.operand, scope, ctx, outer)
        start_fn = compile_expr(expr.start, scope, ctx, outer)
        length_fn = (
            compile_expr(expr.length, scope, ctx, outer)
            if expr.length is not None
            else None
        )
        def run_substring(row):
            value = operand(row)
            start = start_fn(row)
            if value is None or start is None:
                return None
            begin = max(int(start) - 1, 0)
            if length_fn is None:
                return value[begin:]
            return value[begin : begin + int(length_fn(row))]
        return run_substring
    # Subqueries (scalar / IN / EXISTS) and anything unrecognized need the
    # full dynamic context: defer to the tree walker.
    return _compile_fallback(expr, scope, ctx, outer)


def _compile_fallback(
    expr: ast.Expr, scope: Scope, ctx: EvalContext, outer: Env | None
) -> RowFn:
    return lambda row: evaluate(expr, Env(scope, row, outer), ctx)


def _compile_binop(
    expr: ast.BinOp, scope: Scope, ctx: EvalContext, outer: Env | None
) -> RowFn:
    op = expr.op
    left_fn = compile_expr(expr.left, scope, ctx, outer)
    right_fn = compile_expr(expr.right, scope, ctx, outer)
    if op == "and":
        def run_and(row):
            left = left_fn(row)
            if left is False:
                return False
            right = right_fn(row)
            if right is False:
                return False
            if left is None or right is None:
                return None
            return _truthy(left) and _truthy(right)
        return run_and
    if op == "or":
        def run_or(row):
            left = left_fn(row)
            if left is not None and _truthy(left):
                return True
            right = right_fn(row)
            if right is not None and _truthy(right):
                return True
            if left is None or right is None:
                return None
            return False
        return run_or
    if op == "=":
        def run_eq(row):
            left = left_fn(row)
            right = right_fn(row)
            if left is None or right is None:
                return None
            return left == right
        return run_eq
    if op == "<>":
        def run_ne(row):
            left = left_fn(row)
            right = right_fn(row)
            if left is None or right is None:
                return None
            return left != right
        return run_ne
    if op in ("<", "<=", ">", ">="):
        cmp = _CMP_OPS[op]
        def run_cmp(row):
            left = left_fn(row)
            right = right_fn(row)
            if left is None or right is None:
                return None
            try:
                return cmp(left, right)
            except TypeError:
                raise ExecutionError(
                    f"cannot compare {type(left).__name__} with "
                    f"{type(right).__name__}"
                ) from None
        return run_cmp
    if op == "||":
        def run_concat(row):
            left = left_fn(row)
            right = right_fn(row)
            if left is None or right is None:
                return None
            return str(left) + str(right)
        return run_concat
    def run_arith(row):
        left = left_fn(row)
        right = right_fn(row)
        if left is None or right is None:
            return None
        return _eval_arith(op, left, right)
    return run_arith


def _run_subquery(query: ast.Select, env: Env | None, ctx: EvalContext):
    if ctx.subquery_executor is None:
        raise ExecutionError("subqueries are not available in this context")
    cache_key = id(query)
    if cache_key in ctx._subquery_cache:
        return ctx._subquery_cache[cache_key]
    probe = Env(Scope([]), (), parent=env) if env is not None else None
    result = ctx.subquery_executor(query, probe)
    correlated = probe is not None and probe.used_parent
    if not correlated:
        ctx._subquery_cache[cache_key] = result
    return result


def _truthy(value: object) -> bool:
    return bool(value)
