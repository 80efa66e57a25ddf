"""Recursive-descent SQL parser producing :mod:`repro.sql.ast` trees."""

from __future__ import annotations

import datetime

from repro.common.errors import ParseError
from repro.sql import ast
from repro.sql.lexer import Token, tokenize

_COMPARISONS = ("=", "<>", "<", "<=", ">", ">=")
_INTERVAL_UNITS = ("year", "month", "day")


from functools import lru_cache


@lru_cache(maxsize=4096)
def parse(sql: str) -> ast.Select:
    """Parse one SELECT statement (trailing ';' allowed).

    Results are cached: AST nodes are immutable, so sharing is safe, and
    the planner normalizes expressions by text thousands of times.
    """
    parser = _Parser(tokenize(sql))
    select = parser.parse_select()
    parser.skip_symbol(";")
    parser.expect_eof()
    return select


@lru_cache(maxsize=4096)
def parse_statement(sql: str) -> "ast.Statement":
    """Parse one statement: SELECT, INSERT, UPDATE, or DELETE.

    SELECTs share :func:`parse`'s semantics (and its cache holds the
    same immutable trees); DML statements are new in PR 10 and only the
    client-side DML executor consumes them — the planner still receives
    SELECTs exclusively.
    """
    parser = _Parser(tokenize(sql))
    token = parser.current
    if token.is_keyword("insert"):
        statement: ast.Statement = parser.parse_insert()
    elif token.is_keyword("update"):
        statement = parser.parse_update()
    elif token.is_keyword("delete"):
        statement = parser.parse_delete()
    else:
        return parse(sql)
    parser.skip_symbol(";")
    parser.expect_eof()
    return statement


@lru_cache(maxsize=65536)
def parse_expression(sql: str) -> ast.Expr:
    """Parse a standalone expression (cached; see :func:`parse`)."""
    parser = _Parser(tokenize(sql))
    expr = parser.parse_expr()
    parser.expect_eof()
    return expr


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    # -- token plumbing --------------------------------------------------------

    @property
    def current(self) -> Token:
        return self._tokens[self._pos]

    def advance(self) -> Token:
        token = self.current
        self._pos += 1
        return token

    def accept_keyword(self, word: str) -> bool:
        if self.current.is_keyword(word):
            self._pos += 1
            return True
        return False

    def expect_keyword(self, word: str) -> None:
        if not self.accept_keyword(word):
            raise ParseError(f"expected {word.upper()}, found {self.current.text!r}")

    def accept_symbol(self, sym: str) -> bool:
        if self.current.is_symbol(sym):
            self._pos += 1
            return True
        return False

    def skip_symbol(self, sym: str) -> None:
        self.accept_symbol(sym)

    def expect_symbol(self, sym: str) -> None:
        if not self.accept_symbol(sym):
            raise ParseError(f"expected {sym!r}, found {self.current.text!r}")

    def expect_ident(self) -> str:
        if self.current.kind == "ident":
            return self.advance().text
        # Non-reserved keywords can be identifiers in alias positions.
        if self.current.kind == "keyword" and self.current.text in ("year", "month", "day", "date"):
            return self.advance().text
        raise ParseError(f"expected identifier, found {self.current.text!r}")

    def expect_eof(self) -> None:
        if self.current.kind != "eof":
            raise ParseError(f"unexpected trailing input at {self.current.text!r}")

    # -- statements ------------------------------------------------------------

    def parse_select(self) -> ast.Select:
        self.expect_keyword("select")
        distinct = self.accept_keyword("distinct")
        items = self._parse_select_items()
        from_items: tuple[ast.TableRef, ...] = ()
        if self.accept_keyword("from"):
            from_items = self._parse_from_list()
        where = self.parse_expr() if self.accept_keyword("where") else None
        group_by: tuple[ast.Expr, ...] = ()
        if self.accept_keyword("group"):
            self.expect_keyword("by")
            group_by = tuple(self._parse_expr_list())
        having = self.parse_expr() if self.accept_keyword("having") else None
        order_by: tuple[ast.OrderItem, ...] = ()
        if self.accept_keyword("order"):
            self.expect_keyword("by")
            order_by = tuple(self._parse_order_items())
        limit = None
        if self.accept_keyword("limit"):
            token = self.advance()
            if token.kind != "number" or not isinstance(token.value, int):
                raise ParseError("LIMIT expects an integer")
            limit = token.value
        return ast.Select(
            items=tuple(items),
            from_items=from_items,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            distinct=distinct,
        )

    def parse_insert(self) -> ast.Insert:
        self.expect_keyword("insert")
        self.expect_keyword("into")
        table = self.expect_ident()
        columns: tuple[str, ...] = ()
        if self.accept_symbol("("):
            names = [self.expect_ident()]
            while self.accept_symbol(","):
                names.append(self.expect_ident())
            self.expect_symbol(")")
            columns = tuple(names)
        self.expect_keyword("values")
        rows: list[tuple[ast.Expr, ...]] = []
        while True:
            self.expect_symbol("(")
            rows.append(tuple(self._parse_expr_list()))
            self.expect_symbol(")")
            if not self.accept_symbol(","):
                break
        if columns:
            for row in rows:
                if len(row) != len(columns):
                    raise ParseError(
                        f"INSERT row has {len(row)} values for "
                        f"{len(columns)} columns"
                    )
        return ast.Insert(table=table, columns=columns, rows=tuple(rows))

    def parse_update(self) -> ast.Update:
        self.expect_keyword("update")
        table = self.expect_ident()
        self.expect_keyword("set")
        assignments = [self._parse_assignment()]
        while self.accept_symbol(","):
            assignments.append(self._parse_assignment())
        where = self.parse_expr() if self.accept_keyword("where") else None
        return ast.Update(
            table=table, assignments=tuple(assignments), where=where
        )

    def _parse_assignment(self) -> ast.Assignment:
        column = self.expect_ident()
        self.expect_symbol("=")
        return ast.Assignment(column, self.parse_expr())

    def parse_delete(self) -> ast.Delete:
        self.expect_keyword("delete")
        self.expect_keyword("from")
        table = self.expect_ident()
        where = self.parse_expr() if self.accept_keyword("where") else None
        return ast.Delete(table=table, where=where)

    def _parse_select_items(self) -> list[ast.SelectItem]:
        items = []
        while True:
            if self.accept_symbol("*"):
                items.append(ast.SelectItem(ast.Column("*")))
            elif self._at_qualified_star():
                table = self.advance().text
                self._pos += 2  # "." and "*"
                items.append(ast.SelectItem(ast.Column("*", table=table)))
            else:
                expr = self.parse_expr()
                alias = None
                if self.accept_keyword("as"):
                    alias = self.expect_ident()
                elif self.current.kind == "ident":
                    alias = self.advance().text
                items.append(ast.SelectItem(expr, alias))
            if not self.accept_symbol(","):
                return items

    def _at_qualified_star(self) -> bool:
        """Is the next select item ``t.*``?"""
        tokens, pos = self._tokens, self._pos
        return (
            self.current.kind == "ident"
            and tokens[pos + 1].is_symbol(".")
            and tokens[pos + 2].is_symbol("*")
        )

    def _parse_from_list(self) -> tuple[ast.TableRef, ...]:
        refs = [self._parse_join_chain()]
        while self.accept_symbol(","):
            refs.append(self._parse_join_chain())
        return tuple(refs)

    def _parse_join_chain(self) -> ast.TableRef:
        left = self._parse_table_primary()
        while True:
            kind = None
            if self.accept_keyword("inner"):
                kind = "inner"
                self.expect_keyword("join")
            elif self.accept_keyword("left"):
                self.accept_keyword("outer")
                kind = "left"
                self.expect_keyword("join")
            elif self.accept_keyword("join"):
                kind = "inner"
            else:
                return left
            right = self._parse_table_primary()
            condition = None
            if self.accept_keyword("on"):
                condition = self.parse_expr()
            left = ast.Join(left, right, kind, condition)

    def _parse_table_primary(self) -> ast.TableRef:
        if self.accept_symbol("("):
            query = self.parse_select()
            self.expect_symbol(")")
            self.accept_keyword("as")
            alias = self.expect_ident()
            return ast.SubqueryRef(query, alias)
        name = self.expect_ident()
        alias = None
        if self.accept_keyword("as"):
            alias = self.expect_ident()
        elif self.current.kind == "ident":
            alias = self.advance().text
        return ast.TableName(name, alias)

    def _parse_order_items(self) -> list[ast.OrderItem]:
        items = []
        while True:
            expr = self.parse_expr()
            ascending = True
            if self.accept_keyword("desc"):
                ascending = False
            else:
                self.accept_keyword("asc")
            items.append(ast.OrderItem(expr, ascending))
            if not self.accept_symbol(","):
                return items

    def _parse_expr_list(self) -> list[ast.Expr]:
        exprs = [self.parse_expr()]
        while self.accept_symbol(","):
            exprs.append(self.parse_expr())
        return exprs

    # -- expressions (precedence climbing) --------------------------------------

    def parse_expr(self) -> ast.Expr:
        return self._parse_or()

    def _parse_or(self) -> ast.Expr:
        left = self._parse_and()
        while self.accept_keyword("or"):
            left = ast.BinOp("or", left, self._parse_and())
        return left

    def _parse_and(self) -> ast.Expr:
        left = self._parse_not()
        while self.accept_keyword("and"):
            left = ast.BinOp("and", left, self._parse_not())
        return left

    def _parse_not(self) -> ast.Expr:
        if self.accept_keyword("not"):
            return ast.UnaryOp("not", self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self) -> ast.Expr:
        left = self._parse_additive()
        negated = self.accept_keyword("not")
        if self.current.kind == "symbol" and self.current.text in _COMPARISONS:
            if negated:
                raise ParseError("NOT before a comparison operator")
            op = self.advance().text
            return ast.BinOp(op, left, self._parse_additive())
        if self.accept_keyword("in"):
            return self._parse_in_tail(left, negated)
        if self.accept_keyword("like"):
            return ast.Like(left, self._parse_additive(), negated)
        if self.accept_keyword("between"):
            low = self._parse_additive()
            self.expect_keyword("and")
            high = self._parse_additive()
            return ast.Between(left, low, high, negated)
        if self.accept_keyword("is"):
            is_negated = self.accept_keyword("not")
            self.expect_keyword("null")
            return ast.IsNull(left, is_negated)
        if negated:
            raise ParseError("dangling NOT in predicate")
        return left

    def _parse_in_tail(self, needle: ast.Expr, negated: bool) -> ast.Expr:
        self.expect_symbol("(")
        if self.current.is_keyword("select"):
            query = self.parse_select()
            self.expect_symbol(")")
            return ast.InSubquery(needle, query, negated)
        items = tuple(self._parse_expr_list())
        self.expect_symbol(")")
        return ast.InList(needle, items, negated)

    def _parse_additive(self) -> ast.Expr:
        left = self._parse_multiplicative()
        while True:
            if self.accept_symbol("+"):
                left = ast.BinOp("+", left, self._parse_multiplicative())
            elif self.accept_symbol("-"):
                left = ast.BinOp("-", left, self._parse_multiplicative())
            elif self.accept_symbol("||"):
                left = ast.BinOp("||", left, self._parse_multiplicative())
            else:
                return left

    def _parse_multiplicative(self) -> ast.Expr:
        left = self._parse_unary()
        while True:
            if self.accept_symbol("*"):
                left = ast.BinOp("*", left, self._parse_unary())
            elif self.accept_symbol("/"):
                left = ast.BinOp("/", left, self._parse_unary())
            else:
                return left

    def _parse_unary(self) -> ast.Expr:
        if self.accept_symbol("-"):
            operand = self._parse_unary()
            if isinstance(operand, ast.Literal) and isinstance(operand.value, (int, float)):
                return ast.Literal(-operand.value)
            return ast.UnaryOp("-", operand)
        if self.accept_symbol("+"):
            return self._parse_unary()
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expr:
        token = self.current
        if token.kind == "number":
            self.advance()
            return ast.Literal(token.value)
        if token.kind == "string":
            self.advance()
            return ast.Literal(token.value)
        if token.kind == "blob":
            self.advance()
            return ast.Literal(token.value)
        if token.kind == "param":
            self.advance()
            return ast.Param(token.text)
        if token.is_keyword("true"):
            self.advance()
            return ast.Literal(True)
        if token.is_keyword("false"):
            self.advance()
            return ast.Literal(False)
        if token.is_keyword("null"):
            self.advance()
            return ast.Literal(None)
        if token.is_keyword("date"):
            return self._parse_date_literal()
        if token.is_keyword("interval"):
            return self._parse_interval_literal()
        if token.is_keyword("case"):
            return self._parse_case()
        if token.is_keyword("exists"):
            self.advance()
            self.expect_symbol("(")
            query = self.parse_select()
            self.expect_symbol(")")
            return ast.Exists(query)
        if token.is_keyword("extract"):
            return self._parse_extract()
        if token.is_keyword("substring"):
            return self._parse_substring()
        if token.is_keyword("cast"):
            return self._parse_cast()
        if token.is_symbol("("):
            self.advance()
            if self.current.is_keyword("select"):
                query = self.parse_select()
                self.expect_symbol(")")
                return ast.ScalarSubquery(query)
            expr = self.parse_expr()
            self.expect_symbol(")")
            return expr
        if token.kind == "ident":
            return self._parse_ident_expr()
        raise ParseError(f"unexpected token {token.text!r} in expression")

    def _parse_date_literal(self) -> ast.Expr:
        self.expect_keyword("date")
        token = self.advance()
        if token.kind != "string":
            raise ParseError("DATE expects a quoted string")
        try:
            value = datetime.date.fromisoformat(token.value)
        except ValueError as exc:
            raise ParseError(f"bad date literal {token.value!r}: {exc}")
        return ast.Literal(value)

    def _parse_interval_literal(self) -> ast.Expr:
        self.expect_keyword("interval")
        token = self.advance()
        if token.kind != "string":
            raise ParseError("INTERVAL expects a quoted string")
        try:
            amount = int(token.value)
        except ValueError:
            raise ParseError(f"bad interval amount {token.value!r}")
        unit_token = self.advance()
        unit = unit_token.text.rstrip("s") if unit_token.kind in ("keyword", "ident") else ""
        if unit not in _INTERVAL_UNITS:
            raise ParseError(f"bad interval unit {unit_token.text!r}")
        return ast.Interval(amount, unit)

    def _parse_case(self) -> ast.Expr:
        self.expect_keyword("case")
        whens: list[tuple[ast.Expr, ast.Expr]] = []
        while self.accept_keyword("when"):
            cond = self.parse_expr()
            self.expect_keyword("then")
            whens.append((cond, self.parse_expr()))
        if not whens:
            raise ParseError("CASE requires at least one WHEN")
        else_ = self.parse_expr() if self.accept_keyword("else") else None
        self.expect_keyword("end")
        return ast.CaseWhen(tuple(whens), else_)

    def _parse_extract(self) -> ast.Expr:
        self.expect_keyword("extract")
        self.expect_symbol("(")
        field_token = self.advance()
        field = field_token.text
        if field not in _INTERVAL_UNITS:
            raise ParseError(f"EXTRACT field must be year/month/day, got {field!r}")
        self.expect_keyword("from")
        operand = self.parse_expr()
        self.expect_symbol(")")
        return ast.Extract(field, operand)

    def _parse_substring(self) -> ast.Expr:
        self.expect_keyword("substring")
        self.expect_symbol("(")
        operand = self.parse_expr()
        if self.accept_keyword("from"):
            start = self.parse_expr()
        elif self.accept_symbol(","):
            start = self.parse_expr()
        else:
            raise ParseError("SUBSTRING expects FROM or ','")
        length = None
        if self.accept_keyword("for") or self.accept_symbol(","):
            length = self.parse_expr()
        self.expect_symbol(")")
        return ast.Substring(operand, start, length)

    def _parse_cast(self) -> ast.Expr:
        # CAST(expr AS type) — type is currently advisory; we keep the expr.
        self.expect_keyword("cast")
        self.expect_symbol("(")
        expr = self.parse_expr()
        self.expect_keyword("as")
        while not self.current.is_symbol(")"):
            self.advance()
        self.expect_symbol(")")
        return expr

    def _parse_ident_expr(self) -> ast.Expr:
        name = self.advance().text
        if self.accept_symbol("("):
            distinct = self.accept_keyword("distinct")
            if self.accept_symbol("*"):
                self.expect_symbol(")")
                return ast.FuncCall(name, star=True)
            if self.accept_symbol(")"):
                return ast.FuncCall(name)
            args = tuple(self._parse_expr_list())
            self.expect_symbol(")")
            return ast.FuncCall(name, args, distinct=distinct)
        if self.accept_symbol("."):
            column = self.expect_ident()
            return ast.Column(column, table=name)
        return ast.Column(name)
