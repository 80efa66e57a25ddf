"""Render AST nodes back to SQL text, in one of two dialects.

* ``standard`` (default) — plan display (`RemoteSQL` nodes show the exact
  query shipped to the untrusted server, ciphertext constants as hex blobs)
  and round-trip testing of the parser.
* ``sqlite``  — executable SQLite SQL for
  :class:`~repro.server.sqlite.SQLiteBackend`: identifiers are quoted,
  booleans become ``1``/``0``, ciphertext integers too wide for SQLite's
  64-bit INTEGER become order-preserving marker blobs, SEARCH predicates
  (``tagset LIKE trapdoor-bytes``) become ``searchswp(...)`` UDF calls,
  plaintext LIKE routes through the ``like_strict`` UDF (SQLite's native
  LIKE is case-insensitive; ours is not), and ORDER BY gains explicit
  ``NULLS LAST`` / ``NULLS FIRST`` to match the engine's NULL placement.
"""

from __future__ import annotations

import datetime

from repro.sql import ast
from repro.storage.sqlite_codec import encode_sqlite_value, quote_ident

_PRECEDENCE = {
    "or": 1,
    "and": 2,
    "=": 4, "<>": 4, "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5, "||": 5,
    "*": 6, "/": 6,
}

STANDARD = "standard"
SQLITE = "sqlite"

#: The Python types a :class:`~repro.sql.ast.Literal` may hold: exactly the
#: values :func:`to_sql` can print (``datetime.date`` covers datetimes).
LITERAL_TYPES = (type(None), bool, int, float, bytes, datetime.date, str, frozenset)


def to_sql(node: ast.Select | ast.Expr, dialect: str = STANDARD) -> str:
    if dialect not in (STANDARD, SQLITE):
        raise ValueError(f"unknown SQL dialect {dialect!r}")
    if isinstance(node, ast.Select):
        return _select_sql(node, dialect)
    if isinstance(node, ast.Insert):
        return _insert_sql(node, dialect)
    if isinstance(node, ast.Update):
        return _update_sql(node, dialect)
    if isinstance(node, ast.Delete):
        return _delete_sql(node, dialect)
    return _expr_sql(node, 0, dialect)


def _insert_sql(s: ast.Insert, d: str) -> str:
    parts = [f"INSERT INTO {_ident(s.table, d)}"]
    if s.columns:
        parts.append("(" + ", ".join(_ident(c, d) for c in s.columns) + ")")
    rows = ", ".join(
        "(" + ", ".join(_expr_sql(e, 0, d) for e in row) + ")"
        for row in s.rows
    )
    parts.append(f"VALUES {rows}")
    return " ".join(parts)


def _update_sql(s: ast.Update, d: str) -> str:
    sets = ", ".join(
        f"{_ident(a.column, d)} = {_expr_sql(a.value, 0, d)}"
        for a in s.assignments
    )
    text = f"UPDATE {_ident(s.table, d)} SET {sets}"
    if s.where is not None:
        text += " WHERE " + _expr_sql(s.where, 0, d)
    return text


def _delete_sql(s: ast.Delete, d: str) -> str:
    text = f"DELETE FROM {_ident(s.table, d)}"
    if s.where is not None:
        text += " WHERE " + _expr_sql(s.where, 0, d)
    return text


def _ident(name: str, dialect: str) -> str:
    if dialect == SQLITE:
        return quote_ident(name)
    return name


def _select_sql(q: ast.Select, d: str) -> str:
    parts = ["SELECT"]
    if q.distinct:
        parts.append("DISTINCT")
    parts.append(", ".join(_item_sql(i, d) for i in q.items))
    if q.from_items:
        parts.append("FROM " + ", ".join(_tableref_sql(t, d) for t in q.from_items))
    if q.where is not None:
        parts.append("WHERE " + _expr_sql(q.where, 0, d))
    if q.group_by:
        parts.append("GROUP BY " + ", ".join(_expr_sql(g, 0, d) for g in q.group_by))
    if q.having is not None:
        parts.append("HAVING " + _expr_sql(q.having, 0, d))
    if q.order_by:
        rendered = ", ".join(_order_item_sql(o, d) for o in q.order_by)
        parts.append("ORDER BY " + rendered)
    if q.limit is not None:
        parts.append(f"LIMIT {q.limit}")
    return " ".join(parts)


def _order_item_sql(o: ast.OrderItem, d: str) -> str:
    text = _expr_sql(o.expr, 0, d)
    if d == SQLITE:
        # The engine's sort places NULLs last ascending and (by reversal)
        # first descending; SQLite's defaults are the opposite.
        return text + (" NULLS LAST" if o.ascending else " DESC NULLS FIRST")
    return text + ("" if o.ascending else " DESC")


def _item_sql(item: ast.SelectItem, d: str) -> str:
    rendered = _expr_sql(item.expr, 0, d)
    if item.alias:
        return f"{rendered} AS {_ident(item.alias, d)}"
    return rendered


def _tableref_sql(ref: ast.TableRef, d: str) -> str:
    if isinstance(ref, ast.TableName):
        name = _ident(ref.name, d)
        return f"{name} AS {_ident(ref.alias, d)}" if ref.alias else name
    if isinstance(ref, ast.SubqueryRef):
        return f"({_select_sql(ref.query, d)}) AS {_ident(ref.alias, d)}"
    if isinstance(ref, ast.Join):
        keyword = "LEFT JOIN" if ref.kind == "left" else "JOIN"
        text = f"{_tableref_sql(ref.left, d)} {keyword} {_tableref_sql(ref.right, d)}"
        if ref.condition is not None:
            text += " ON " + _expr_sql(ref.condition, 0, d)
        return text
    raise TypeError(f"unknown table ref {ref!r}")


def _column_sql(e: ast.Column, d: str) -> str:
    if d == STANDARD:
        return e.qualified
    name = e.name if e.name == "*" else _ident(e.name, d)
    if e.table is not None:
        return f"{_ident(e.table, d)}.{name}"
    return name


def _expr_sql(e: ast.Expr, parent_prec: int, d: str) -> str:
    if isinstance(e, ast.Literal):
        return _literal_sql(e.value, d)
    if isinstance(e, ast.Interval):
        if d == SQLITE:
            raise TypeError("INTERVAL literals have no SQLite rendering")
        return f"INTERVAL '{e.amount}' {e.unit.upper()}"
    if isinstance(e, ast.Column):
        return _column_sql(e, d)
    if isinstance(e, ast.Param):
        return f":{e.name}"
    if isinstance(e, ast.BinOp):
        prec = _PRECEDENCE.get(e.op, 4)
        if e.op == "/" and d == SQLITE:
            # SQLite divides integers integrally; the engine uses true
            # division (Python /).  Casting the dividend to REAL matches
            # (NULL propagates through CAST).
            text = (
                f"CAST({_expr_sql(e.left, 0, d)} AS REAL) / "
                f"{_expr_sql(e.right, prec + 1, d)}"
            )
            return f"({text})" if prec < parent_prec else text
        op = e.op.upper() if e.op in ("and", "or") else e.op
        # Comparisons are non-associative: parenthesize comparison operands.
        left_prec = prec + 1 if prec == 4 else prec
        text = f"{_expr_sql(e.left, left_prec, d)} {op} {_expr_sql(e.right, prec + 1, d)}"
        return f"({text})" if prec < parent_prec else text
    if isinstance(e, ast.UnaryOp):
        if e.op == "not":
            inner = _expr_sql(e.operand, 3, d)
            return f"NOT {inner}"
        return f"-{_expr_sql(e.operand, 7, d)}"
    if isinstance(e, ast.FuncCall):
        if d == SQLITE and e.name == "in_set":
            # Bound server-side: SQLiteBackend inlines the DET set before
            # printing.  Reaching the printer means the set was never bound.
            raise TypeError("in_set() must be inlined before SQLite printing")
        if e.star:
            return f"{e.name}(*)"
        inner = ", ".join(_expr_sql(a, 0, d) for a in e.args)
        if e.distinct:
            inner = "DISTINCT " + inner
        return f"{e.name}({inner})"
    if isinstance(e, ast.CaseWhen):
        parts = ["CASE"]
        for cond, result in e.whens:
            parts.append(f"WHEN {_expr_sql(cond, 0, d)} THEN {_expr_sql(result, 0, d)}")
        if e.else_ is not None:
            parts.append(f"ELSE {_expr_sql(e.else_, 0, d)}")
        parts.append("END")
        return " ".join(parts)
    if isinstance(e, ast.InList):
        items = ", ".join(_expr_sql(i, 0, d) for i in e.items)
        maybe_not = "NOT " if e.negated else ""
        return f"{_expr_sql(e.needle, 5, d)} {maybe_not}IN ({items})"
    if isinstance(e, ast.InSubquery):
        maybe_not = "NOT " if e.negated else ""
        return f"{_expr_sql(e.needle, 5, d)} {maybe_not}IN ({_select_sql(e.query, d)})"
    if isinstance(e, ast.Like):
        return _like_sql(e, d)
    if isinstance(e, ast.Between):
        maybe_not = "NOT " if e.negated else ""
        return (
            f"{_expr_sql(e.needle, 5, d)} {maybe_not}BETWEEN "
            f"{_expr_sql(e.low, 5, d)} AND {_expr_sql(e.high, 5, d)}"
        )
    if isinstance(e, ast.IsNull):
        maybe_not = "NOT " if e.negated else ""
        return f"{_expr_sql(e.operand, 5, d)} IS {maybe_not}NULL"
    if isinstance(e, ast.Extract):
        if d == SQLITE:
            # Dates never reach the untrusted server (they are FFX/OPE
            # integers there), so EXTRACT has no SQLite rendering.
            raise TypeError("EXTRACT has no SQLite rendering")
        return f"EXTRACT({e.field_name.upper()} FROM {_expr_sql(e.operand, 0, d)})"
    if isinstance(e, ast.Substring):
        if d == SQLITE:
            args = [_expr_sql(e.operand, 0, d), _expr_sql(e.start, 0, d)]
            if e.length is not None:
                args.append(_expr_sql(e.length, 0, d))
            return f"substr({', '.join(args)})"
        text = f"SUBSTRING({_expr_sql(e.operand, 0, d)} FROM {_expr_sql(e.start, 0, d)}"
        if e.length is not None:
            text += f" FOR {_expr_sql(e.length, 0, d)}"
        return text + ")"
    if isinstance(e, ast.ScalarSubquery):
        return f"({_select_sql(e.query, d)})"
    if isinstance(e, ast.Exists):
        maybe_not = "NOT " if e.negated else ""
        return f"{maybe_not}EXISTS ({_select_sql(e.query, d)})"
    raise TypeError(f"unknown expression {e!r}")


def _like_sql(e: ast.Like, d: str) -> str:
    if d == SQLITE:
        needle = _expr_sql(e.needle, 0, d)
        pattern = _expr_sql(e.pattern, 0, d)
        pattern_is_bytes = isinstance(e.pattern, ast.Literal) and isinstance(
            e.pattern.value, bytes
        )
        # Searchable encryption: tag-set column LIKE trapdoor bytes becomes
        # the searchswp UDF; plaintext LIKE routes through like_strict so
        # matching stays case-sensitive (SQLite's LIKE is not).
        fn = "searchswp" if pattern_is_bytes else "like_strict"
        text = f"{fn}({needle}, {pattern})"
        return f"NOT {text}" if e.negated else text
    maybe_not = "NOT " if e.negated else ""
    return f"{_expr_sql(e.needle, 5, d)} {maybe_not}LIKE {_expr_sql(e.pattern, 5, d)}"


def _literal_sql(value: object, d: str) -> str:
    if not isinstance(value, LITERAL_TYPES):
        raise TypeError(f"unprintable literal {value!r}")
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        if d == SQLITE:
            return "1" if value else "0"
        return "TRUE" if value else "FALSE"
    if isinstance(value, int) and d == SQLITE and not -(1 << 63) <= value < (1 << 63):
        # Ciphertext-sized integer: same order-preserving marker blob the
        # backend stores, so comparisons against columns stay consistent.
        return "X'" + encode_sqlite_value(value).hex() + "'"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, bytes):
        return "X'" + value.hex() + "'"
    if isinstance(value, datetime.date):
        if d == SQLITE:
            # Dates never reach the untrusted server (they are FFX/OPE
            # integers there); a date literal in a server query is a
            # planner bug — fail loudly like EXTRACT/INTERVAL do.
            raise TypeError("date literals have no SQLite rendering")
        return f"DATE '{value.isoformat()}'"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    # A frozenset: a SEARCH tag set.
    if d == SQLITE:
        return "X'" + encode_sqlite_value(value).hex() + "'"
    # SEARCH tag sets never appear in printable queries; placeholder only.
    return "X'" + b"".join(sorted(value)).hex() + "'"
