"""Query executor: the "unmodified DBMS" the untrusted server runs.

A materializing executor with a small planner, plus a pull-based
streaming layer over the same machinery:

* every WHERE, pushed down, left over after the joins or streamed, runs
  through one conjunct-prefix column filter (:class:`_ColumnFilter`): its
  leading ``column op constant``, ``column op column``, ``BETWEEN`` and
  ``IN (literals)`` conjuncts test a whole column at a time, in order, and
  the compiled row closure of the rest runs on the rows they keep;
* single-relation WHERE conjuncts are pushed down before joins, and so is
  what an OR of ANDs implies: the conjuncts every branch repeats (TPC-H
  Q19's join equality) and, per relation, the OR of each branch's
  conjuncts local to it (Q7's nation pairs).  Implied conjuncts only
  narrow inputs; the OR itself still runs on the joined rows;
* in a multi-relation FROM, the same pass projects each base table to the
  column *names* the query tree mentions anywhere (nested and correlated
  subqueries, FROM subqueries and JOIN conditions included; not at all
  under a ``*``), so a join never carries a column nobody reads;
* join order is greedy: start from the smallest relation that has a join
  edge, then the smallest relation an equality reaches, edge-less
  relations crossed in last;
* one hash-join kernel (:meth:`Executor._hash_join`) serves implicit and
  explicit joins, inner and LEFT OUTER: *every* unpushed, subquery-free
  equality that splits between the two sides joins one composite key (a
  key with a NULL in it matches nothing), the smaller side is the one
  hashed, output stays left-major, and what is left of an ON condition is
  checked per matched pair;
* join and GROUP BY keys that are all bare columns are one
  ``operator.itemgetter``, a tuple for a composite key, built in C;
* GROUP BY partitions the rows by key first (groups in first-seen order,
  the first row the representative), then folds each group one argument
  column at a time through :meth:`Aggregate.fold`; arbitrary key and
  aggregate expressions in SELECT / HAVING / ORDER BY, DISTINCT, ORDER BY
  with alias references, and LIMIT;
* a table with ``list`` columns (the client's staged grp() results, one
  row per server group) groups as the rows its lists stand for, one per
  list element, without building them: each argument column is the
  group's lists concatenated, per-group scalars repeat once per element
  (:func:`_nested_groups`);
* correlated subqueries re-execute per outer row (uncorrelated ones are
  cached by the evaluator).

:meth:`Executor.execute_stream` yields fixed-capacity
:class:`~repro.engine.rowblock.RowBlock` batches instead of one
materialized :class:`ResultSet`.  Scan → filter → project → limit plans
(:func:`is_streamable`) run through one column-at-a-time driver with
O(block) working memory, over a table or over an injected block stream
(the client residual): the same WHERE filter narrows each input chunk,
and each output column is a pick of an input column or one closure
mapped over the selected rows.  Everything else — sorts, grouping,
DISTINCT, joins — drains its input through the materializing
path and re-enters the stream as one blocking operator at the root, so
both paths return identical rows and identical scan statistics.
:meth:`Executor.execute` stays the materializing driver.

Execution returns a :class:`ResultSet` plus scan statistics (bytes touched)
so the caller can charge simulated disk time — analytical queries are
I/O bound (§5.2), and our cost ledger mirrors that.
"""

from __future__ import annotations

import operator
from collections import defaultdict
from dataclasses import dataclass
from functools import reduce
from itertools import chain, compress, repeat

from repro.common.errors import ExecutionError
from repro.engine.aggregates import make_aggregate
from repro.engine.catalog import Database
from repro.engine.eval import (
    _CMP_OPS,
    Env,
    EvalContext,
    Scope,
    _in_probe,
    compile_expr,
    evaluate,
)
from repro.engine.functions import default_functions
from repro.engine.rowblock import (
    DEFAULT_BLOCK_ROWS,
    BlockStream,
    RowBlock,
    blocks_from_rows,
)
from repro.sql import ast
from repro.storage.rowcodec import value_bytes


@dataclass
class ResultSet:
    columns: list[str]
    rows: list[tuple]

    def byte_size(self) -> int:
        header = sum(len(c) + 4 for c in self.columns)
        return header + sum(4 + sum(map(value_bytes, row)) for row in self.rows)


@dataclass
class ExecStats:
    bytes_scanned: int = 0
    rows_output: int = 0


@dataclass
class _Relation:
    """An intermediate table: scope + materialized rows."""

    scope: Scope
    rows: list[tuple]

    @property
    def bindings(self) -> set[str]:
        return {b for b, _ in self.scope.columns if b is not None}


def is_streamable(query: ast.Select) -> bool:
    """True when the pull-based pipeline can run ``query`` without any
    blocking operator: one base-table scan feeding filter → project →
    limit.  Grouping, aggregation, DISTINCT, ORDER BY, and joins all need
    their full input and therefore materialize."""
    if len(query.from_items) != 1 or not isinstance(query.from_items[0], ast.TableName):
        return False
    if query.group_by or query.distinct or query.order_by:
        return False
    if query.having is not None:
        return False
    return not Executor._has_aggregates(query)


class Executor:
    """Executes SELECT statements against a :class:`Database`."""

    def __init__(self, db: Database, block_rows: int = DEFAULT_BLOCK_ROWS) -> None:
        self.db = db
        self.functions = default_functions()
        self.last_stats = ExecStats()
        self.block_rows = block_rows

    # -- public API ---------------------------------------------------------

    def execute(
        self, query: ast.Select, params: dict[str, object] | None = None
    ) -> ResultSet:
        stats = self.last_stats = self._start_stats(query)
        ciphertext_read_start = self.db.ciphertext_store.bytes_read
        result = self._execute(query, self._context(params), None)
        stats.rows_output = len(result.rows)
        stats.bytes_scanned += (
            self.db.ciphertext_store.bytes_read - ciphertext_read_start
        )
        return result

    def execute_stream(
        self,
        query: ast.Select,
        params: dict[str, object] | None = None,
        *,
        block_rows: int | None = None,
        sources: dict[str, BlockStream] | None = None,
    ) -> BlockStream:
        """Pull-based execution: a :class:`BlockStream` of RowBlocks.

        ``sources`` maps a table name to an external block stream standing
        in for that table's scan — the plan executor streams decrypted
        server blocks through a residual query this way, without staging
        them in a catalog table; source-backed queries must satisfy
        :func:`is_streamable`.  A query that is not streamable is one
        blocking operator at the root: it runs to completion through
        :meth:`execute` here, and the stream re-blocks its rows.
        Statistics live on ``stream.stats`` (also ``self.last_stats``) and
        reach their final totals once the stream is exhausted or closed.
        """
        if block_rows is None:
            block_rows = self.block_rows
        sources = sources or {}
        if not is_streamable(query):
            if sources:
                raise ExecutionError(
                    "source-backed streaming requires a streamable query "
                    "(single scan, no grouping/ordering/joins)"
                )
            result = self.execute(query, params)
            blocks = blocks_from_rows(result.rows, len(result.columns), block_rows)
            return BlockStream(result.columns, blocks, self.last_stats)
        stats = self.last_stats = self._start_stats(query)
        ref = query.from_items[0]
        source = sources.get(ref.name)
        if source is not None:
            table, names = None, source.columns
        else:
            table = self.db.table(ref.name)
            names = table.schema.column_names
        scope = Scope([(ref.binding, c) for c in names])
        items = _select_items(query.items, scope)
        blocks = self._stream_blocks(
            query,
            items,
            scope,
            self._context(params),
            table,
            source,
            block_rows,
            stats,
            self.db.ciphertext_store.bytes_read,
        )
        return BlockStream(_output_names(items), blocks, stats)

    def _start_stats(self, query: ast.Select) -> ExecStats:
        """Fresh statistics charged the query's static scan footprint: one
        heap read per table occurrence in the query tree, up front.
        Re-executions of a correlated subquery hit the buffer pool, not the
        disk, and a subquery the engine happens to short-circuit still
        counts as part of the query's I/O footprint — which keeps the
        ledger identical across server backends (they charge the same
        static walk)."""
        stats = ExecStats()
        for name in ast.table_occurrences(query):
            if self.db.has_table(name):
                stats.bytes_scanned += self.db.table(name).total_bytes
        return stats

    def _context(self, params: dict[str, object] | None) -> EvalContext:
        semijoins = _SemiJoinCache(self)
        ctx = EvalContext(
            params=params or {},
            functions=self.functions,
            subquery_executor=lambda sub, outer: self._execute(sub, ctx, outer),
            exists_tester=lambda sub, env: semijoins.test(sub, env, ctx),
        )
        return ctx

    def _stream_blocks(
        self,
        query: ast.Select,
        items: list[tuple[ast.SelectItem, int | None]],
        scope: Scope,
        ctx: EvalContext,
        table,
        source: BlockStream | None,
        block_rows: int,
        stats: ExecStats,
        ciphertext_read_start: int,
    ):
        """Scan → filter → project → limit, a column at a time.

        The input arrives in chunks: ``block_rows``-row slices of
        ``table``'s heap, or the ``source`` stream's blocks as they come.
        The WHERE narrows each chunk through the conjunct-prefix column
        filter (:class:`_ColumnFilter`, the materializing driver's too): a
        row stays only where the WHERE returns True, so NULL drops it.
        Each output column is then built in one pass over the selected
        rows: a star's column or a bare column reference picks its column,
        a computed item maps its closure over the selected rows only.  A
        source block with no WHERE and only picks passes its column lists
        through untouched.  Under LIMIT a chunk holds at most the rows
        still owed, so nothing past the limit is evaluated and no source
        block past it is pulled.  The output is cut into blocks of exactly
        ``block_rows`` rows, the last shorter.
        """
        where = (
            _ColumnFilter(query.where, scope, ctx, None)
            if query.where is not None
            else None
        )
        # One entry per output column: an int picks that input column, a
        # closure computes the value from a row.
        outputs: list = []
        for item, position in items:
            if position is None and isinstance(item.expr, ast.Column):
                position = _scope_index(scope, item.expr)
            if position is None:
                outputs.append(_compile_item(item, scope, ctx, None))
            else:
                outputs.append(position)
        remaining = query.limit

        def owed(size: int) -> int:
            return size if remaining is None else min(size, remaining)

        def chunks():
            if source is not None:
                for block in source:
                    start = 0
                    while start < block.num_rows:
                        stop = start + owed(block.num_rows - start)
                        yield _Chunk.of_block(block, start, stop)
                        start = stop
                return
            rows, start = table.rows, 0
            while start < len(rows):
                chunk = rows[start : start + owed(block_rows)]
                yield _Chunk(len(chunk), rows=chunk)
                start += len(chunk)

        try:
            pending: list[list] = []  # Output columns not yet in a block.
            pending_rows = 0
            if remaining is None or remaining > 0:
                for chunk in chunks():
                    if where is not None:
                        chunk = where.apply(chunk)
                    columns = chunk.project(outputs)
                    if pending_rows:
                        # New lists: a picked column may be a source block's.
                        pending = [p + c for p, c in zip(pending, columns)]
                    else:
                        pending = columns
                    pending_rows += chunk.num_rows
                    while pending_rows >= block_rows:
                        if pending_rows == block_rows:
                            head, pending = pending, []
                        else:
                            head = [c[:block_rows] for c in pending]
                            pending = [c[block_rows:] for c in pending]
                        pending_rows -= block_rows
                        stats.rows_output += block_rows
                        yield RowBlock(head, block_rows)
                    if remaining is not None:
                        remaining -= chunk.num_rows
                        if remaining == 0:
                            break
            if pending_rows:
                stats.rows_output += pending_rows
                yield RowBlock(pending, pending_rows)
        finally:
            if source is not None:
                source.close()
            stats.bytes_scanned += (
                self.db.ciphertext_store.bytes_read - ciphertext_read_start
            )

    # -- internals ------------------------------------------------------------

    def _execute(
        self, query: ast.Select, ctx: EvalContext, outer: Env | None
    ) -> ResultSet:
        relation, remaining = self._build_from(query, ctx, outer)
        relation = self._apply_where(relation, remaining, ctx, outer)
        items = _select_items(query.items, relation.scope, query.from_items)
        if query.group_by or self._has_aggregates(query):
            rows_with_alias = self._group_and_project(query, relation, ctx, outer)
        else:
            rows_with_alias = self._project(query, items, relation, ctx, outer)
        rows = self._order_limit_distinct(query, rows_with_alias, ctx)
        return ResultSet(_output_names(items), rows)

    # FROM clause -------------------------------------------------------------

    def _build_from(
        self, query: ast.Select, ctx: EvalContext, outer: Env | None
    ) -> tuple[_Relation, list[ast.Expr]]:
        """Scan, pre-filter, prune and join the FROM items.  Returns the
        joined relation and the WHERE conjuncts still to apply to it."""
        where = ast.conjuncts(query.where)
        if not query.from_items:
            return _Relation(Scope([]), [()]), where
        multi = len(query.from_items) > 1 or isinstance(query.from_items[0], ast.Join)
        # A join carries every column of every row through every later
        # operator, so base tables keep only the names the query mentions.
        names = _mentioned_names(query) if multi else None
        relations = [
            self._resolve_ref(ref, ctx, outer, names) for ref in query.from_items
        ]
        # Predicates an OR implies (TPC-H Q19 repeats its join equality in
        # each branch, Q7 names one nation pair per branch) are pushable on
        # their own.  They only narrow inputs: the OR itself still applies,
        # so an implied conjunct nobody consumed is simply dropped.
        conjuncts = where + self._implied_conjuncts(where, relations)
        pushed: set[int] = set()
        relations = [
            self._pushdown(
                rel,
                conjuncts,
                pushed,
                ctx,
                outer,
                names if isinstance(ref, ast.TableName) else None,
            )
            for ref, rel in zip(query.from_items, relations)
        ]
        joined = self._join_all(relations, conjuncts, pushed, ctx, outer)
        return joined, [c for i, c in enumerate(where) if i not in pushed]

    def _implied_conjuncts(
        self, where: list[ast.Expr], relations: list[_Relation]
    ) -> list[ast.Expr]:
        """What each OR of ANDs among ``where`` implies: the conjuncts every
        branch repeats and, per relation, the OR of each branch's conjuncts
        local to it (when every branch has some), usable as a pre-filter."""
        implied: list[ast.Expr] = []
        for conjunct in where:
            branches = [ast.conjuncts(b) for b in _or_branches(conjunct)]
            if len(branches) < 2:
                continue
            common = set(branches[0]).intersection(*branches[1:])
            implied.extend(sorted(common, key=repr))
            for rel in relations:
                if self._binding_refs(conjunct, rel) == "local":
                    continue  # The OR itself is pushable to rel.
                local = [
                    [
                        c
                        for c in branch
                        if c not in common
                        and self._binding_refs(c, rel) == "local"
                        and not ast.find_subqueries(c)
                    ]
                    for branch in branches
                ]
                if all(local):
                    parts = [ast.conjoin(part) for part in local]
                    implied.append(reduce(lambda a, b: ast.BinOp("or", a, b), parts))
        return implied

    def _resolve_ref(
        self,
        ref: ast.TableRef,
        ctx: EvalContext,
        outer: Env | None,
        names: frozenset[str] | None,
    ) -> _Relation:
        if isinstance(ref, ast.TableName):
            table = self.db.table(ref.name)
            binding = ref.binding
            scope = Scope([(binding, c) for c in table.schema.column_names])
            return _Relation(scope, table.rows)
        if isinstance(ref, ast.SubqueryRef):
            result = self._execute(ref.query, ctx, None)
            scope = Scope([(ref.alias, c) for c in result.columns])
            return _Relation(scope, result.rows)
        if isinstance(ref, ast.Join):
            sides = []
            for side in (ref.left, ref.right):
                rel = self._resolve_ref(side, ctx, outer, names)
                if isinstance(side, ast.TableName):
                    rel = self._pushdown(rel, [], set(), ctx, outer, names)
                sides.append(rel)
            return self._join_pair(*sides, ref.condition, ref.kind, ctx, outer)
        raise ExecutionError(f"unknown FROM item {ref!r}")

    def _pushdown(
        self,
        rel: _Relation,
        conjuncts: list[ast.Expr],
        pushed: set[int],
        ctx: EvalContext,
        outer: Env | None,
        names: frozenset[str] | None = None,
    ) -> _Relation:
        """Apply single-relation, subquery-free conjuncts before joining
        and, in the same pass, keep only the columns named in ``names``
        (``None``: keep them all)."""
        local: list[ast.Expr] = []
        for i, conj in enumerate(conjuncts):
            if i in pushed or ast.find_subqueries(conj):
                continue
            if self._binding_refs(conj, rel) == "local":
                local.append(conj)
                pushed.add(i)
        rows = rel.rows
        if local:
            rows = _ColumnFilter.rows(ast.conjoin(local), rel, ctx, outer)
        columns = rel.scope.columns
        kept = [
            i for i, (_, name) in enumerate(columns) if names is None or name in names
        ]
        if len(kept) == len(columns):
            return _Relation(rel.scope, rows) if local else rel
        if len(kept) > 1:
            rows = list(map(operator.itemgetter(*kept), rows))
        elif kept:
            (only,) = kept
            rows = [(row[only],) for row in rows]
        else:
            rows = [()] * len(rows)
        return _Relation(Scope([columns[i] for i in kept]), rows)

    def _binding_refs(self, expr: ast.Expr, rel: _Relation) -> str:
        """Whether every column in expr resolves inside rel: "local" or "other"."""
        for col in ast.find_columns(expr):
            if col.name == "*":
                continue
            try:
                if rel.scope.find(col.table, col.name) is None:
                    return "other"
            except ExecutionError:
                return "other"
        return "local"

    def _join_all(
        self,
        relations: list[_Relation],
        conjuncts: list[ast.Expr],
        pushed: set[int],
        ctx: EvalContext,
        outer: Env | None,
    ) -> _Relation:
        if len(relations) == 1:
            return relations[0]
        remaining = list(relations)
        equi = self._equi_conjuncts(conjuncts, pushed)
        # Start with the smallest relation that has at least one join edge.
        current = remaining.pop(self._pick_start(remaining, equi))
        while remaining:
            index = self._pick_next(current, remaining, equi)
            if index is None:
                # No join predicate connects: cross product with smallest.
                index = min(range(len(remaining)), key=lambda i: len(remaining[i].rows))
                current = self._cross(current, remaining.pop(index))
                continue
            nxt = remaining.pop(index)
            used, left_keys, right_keys = self._join_keys(equi, current, nxt)
            pushed.update(used)
            equi = [(i, conj) for i, conj in equi if i not in used]
            current = self._hash_join(current, nxt, left_keys, right_keys, ctx, outer)
        return current

    @staticmethod
    def _equi_conjuncts(conjuncts: list[ast.Expr], pushed: set[int]):
        """The (index, conjunct) pairs usable as join keys: unpushed
        equalities.  Correlated subqueries need the full join env, so an
        equality holding one is never a key."""
        return [
            (i, conj)
            for i, conj in enumerate(conjuncts)
            if i not in pushed
            and isinstance(conj, ast.BinOp)
            and conj.op == "="
            and not ast.find_subqueries(conj)
        ]

    def _pick_start(self, relations: list[_Relation], equi) -> int:
        """The smallest relation with a join edge (a conjunct of ``equi``)
        to another one, so that edge-less relations are crossed in last;
        the smallest of all when no relation has an edge."""
        indexes = range(len(relations))
        connected = [
            i
            for i in indexes
            if any(
                self._split_equi(conj, relations[i], relations[j]) is not None
                for _, conj in equi
                for j in indexes
                if j != i
            )
        ]
        return min(connected or indexes, key=lambda i: len(relations[i].rows))

    def _pick_next(
        self, current: _Relation, remaining: list[_Relation], equi
    ) -> int | None:
        """Index of the smallest relation a conjunct of ``equi`` reaches
        from ``current`` (the first such in conjunct order on a tie)."""
        best = None
        for _, conj in equi:
            for rel_index, rel in enumerate(remaining):
                if best is not None and len(rel.rows) >= len(remaining[best].rows):
                    continue
                if self._split_equi(conj, current, rel) is not None:
                    best = rel_index
        return best

    def _split_equi(self, conj: ast.BinOp, left: _Relation, right: _Relation):
        """If ``conj`` equates a left-side expr with a right-side expr,
        return (left_expr, right_expr)."""
        if self._binding_refs(conj.left, left) == "local" and self._binding_refs(
            conj.right, right
        ) == "local":
            return conj.left, conj.right
        if self._binding_refs(conj.left, right) == "local" and self._binding_refs(
            conj.right, left
        ) == "local":
            return conj.right, conj.left
        return None

    def _join_keys(self, equi, left: _Relation, right: _Relation):
        """Fold every equality of ``equi`` that splits between the two sides
        into one composite key, so none of them is left to filter a wider
        intermediate: (indexes used, left key exprs, right key exprs)."""
        used: list[int] = []
        left_keys: list[ast.Expr] = []
        right_keys: list[ast.Expr] = []
        for index, conj in equi:
            sides = self._split_equi(conj, left, right)
            if sides is not None:
                used.append(index)
                left_keys.append(sides[0])
                right_keys.append(sides[1])
        return used, left_keys, right_keys

    def _hash_join(
        self,
        left: _Relation,
        right: _Relation,
        left_keys: list[ast.Expr],
        right_keys: list[ast.Expr],
        ctx: EvalContext,
        outer: Env | None,
        kind: str = "inner",
        residual: ast.Expr | None = None,
    ) -> _Relation:
        """The one join kernel: equality on ``left_keys[i] = right_keys[i]``
        for every i, then ``residual`` on each matched pair; ``kind`` "left"
        NULL-extends left rows nothing matched.  Output is left-major in
        both build directions.  A key with a NULL in it matches nothing:
        it never becomes a bucket, so probing with one finds none."""
        scope = left.scope.merged_with(right.scope)
        left_fn = _key_fn(left_keys, left.scope, ctx, outer)
        right_fn = _key_fn(right_keys, right.scope, ctx, outer)
        width = len(right_keys)
        buckets: dict[object, list[tuple]] = {}
        right_key_column = map(right_fn, right.rows)
        if len(left.rows) < len(right.rows):
            # Hash the smaller side: the left keys decide which right rows
            # are worth a bucket at all.
            left_key_column = list(map(left_fn, left.rows))
            wanted = set(left_key_column)
            wanted.difference_update(_null_keys(wanted, width))
            for key, row in zip(right_key_column, right.rows):
                if key in wanted:
                    buckets.setdefault(key, []).append(row)
        else:
            for key, row in zip(right_key_column, right.rows):
                buckets.setdefault(key, []).append(row)
            for key in _null_keys(buckets, width):
                del buckets[key]
            left_key_column = map(left_fn, left.rows)
        accept = (
            compile_expr(residual, scope, ctx, outer) if residual is not None else None
        )
        null_row = (None,) * len(right.scope.columns) if kind == "left" else None
        get_bucket = buckets.get
        if accept is None and null_row is None:
            joined = [
                row + other
                for row, key in zip(left.rows, left_key_column)
                for other in get_bucket(key, ())
            ]
            return _Relation(scope, joined)
        joined = []
        for row, key in zip(left.rows, left_key_column):
            matched = False
            for other in get_bucket(key, ()):
                pair = row + other
                if accept is None or accept(pair) is True:
                    joined.append(pair)
                    matched = True
            if not matched and null_row is not None:
                joined.append(row + null_row)
        return _Relation(scope, joined)

    def _cross(self, left: _Relation, right: _Relation) -> _Relation:
        rows = [l + r for l in left.rows for r in right.rows]
        return _Relation(left.scope.merged_with(right.scope), rows)

    def _join_pair(
        self,
        left: _Relation,
        right: _Relation,
        condition: ast.Expr | None,
        kind: str,
        ctx: EvalContext,
        outer: Env | None,
    ) -> _Relation:
        """Explicit JOIN ... ON: the ON equalities that split between the
        sides are the hash key, the rest of ON is checked per matched pair."""
        parts = ast.conjuncts(condition)
        used, left_keys, right_keys = self._join_keys(
            self._equi_conjuncts(parts, set()), left, right
        )
        rest = [conj for i, conj in enumerate(parts) if i not in used]
        return self._hash_join(
            left, right, left_keys, right_keys, ctx, outer, kind, ast.conjoin(rest)
        )

    # WHERE ---------------------------------------------------------------------

    def _apply_where(
        self,
        relation: _Relation,
        remaining: list[ast.Expr],
        ctx: EvalContext,
        outer: Env | None,
    ) -> _Relation:
        if not remaining:
            return relation
        rows = _ColumnFilter.rows(ast.conjoin(remaining), relation, ctx, outer)
        return _Relation(relation.scope, rows)

    # Projection / grouping -------------------------------------------------------

    @staticmethod
    def _has_aggregates(query: ast.Select) -> bool:
        exprs = [item.expr for item in query.items]
        if query.having is not None:
            exprs.append(query.having)
        exprs.extend(o.expr for o in query.order_by)
        return any(ast.contains_aggregate(e) for e in exprs)

    def _output_exprs(self, query: ast.Select) -> list[ast.Expr]:
        exprs = [item.expr for item in query.items]
        if query.having is not None:
            exprs.append(query.having)
        exprs.extend(o.expr for o in query.order_by)
        return exprs

    def _list_positions(self, query: ast.Select) -> tuple[int, ...]:
        """Where the relation ``query`` groups has ``list`` columns: only a
        FROM of one table, the client's staged grp() results, has any."""
        if len(query.from_items) != 1:
            return ()
        ref = query.from_items[0]
        if not isinstance(ref, ast.TableName):
            return ()
        return self.db.table(ref.name).schema.list_positions

    def _group_and_project(
        self,
        query: ast.Select,
        relation: _Relation,
        ctx: EvalContext,
        outer: Env | None,
    ) -> list[tuple[tuple, dict]]:
        agg_calls: list[ast.FuncCall] = []
        seen: set = set()
        for expr in self._output_exprs(query):
            for call in ast.find_aggregates(expr):
                if call not in seen:
                    seen.add(call)
                    agg_calls.append(call)
        lists = self._list_positions(query)
        if lists:
            groups = _nested_groups(query, agg_calls, relation, lists, ctx, outer)
        else:
            groups = _row_groups(query, agg_calls, relation, ctx, outer)
        # Fold each group one argument column at a time.
        store = self.db.ciphertext_store
        output: list[tuple[tuple, dict]] = []
        for inputs, rep_row in groups:
            agg_values = {}
            for call, columns in zip(agg_calls, inputs):
                agg = make_aggregate(call.name, call.distinct, store)
                agg.fold(columns)
                agg_values[call] = agg.finalize()
            group_ctx = EvalContext(
                params=ctx.params,
                functions=ctx.functions,
                subquery_executor=ctx.subquery_executor,
                aggregate_values=agg_values,
                _subquery_cache=ctx._subquery_cache,
            )
            env = Env(relation.scope, rep_row, outer) if rep_row is not None else None
            values = tuple(evaluate(item.expr, env, group_ctx) for item in query.items)
            aliases = {
                item.alias: value
                for item, value in zip(query.items, values)
                if item.alias
            }
            group_ctx.alias_values = aliases
            if query.having is not None:
                if evaluate(query.having, env, group_ctx) is not True:
                    continue
            order_keys = self._order_keys(query, env, group_ctx, values)
            output.append((values, order_keys))
        return output

    def _project(
        self,
        query: ast.Select,
        items: list[tuple[ast.SelectItem, int | None]],
        relation: _Relation,
        ctx: EvalContext,
        outer: Env | None,
    ) -> list[tuple[tuple, dict]]:
        # Compile the select list (stars spelled out) once.
        item_fns = [
            _compile_item(item, relation.scope, ctx, outer)
            if position is None
            else operator.itemgetter(position)
            for item, position in items
        ]
        if not query.order_by:
            # No per-row alias context needed: one map per item, zipped in
            # C.  zip pulls the maps row by row, so the closures run in the
            # same order as a loop over the rows would run them.
            if not item_fns:
                values = [()] * len(relation.rows)
            else:
                values = zip(*[map(fn, relation.rows) for fn in item_fns])
            return list(zip(values, repeat([])))
        output = []
        for row in relation.rows:
            values = tuple([fn(row) for fn in item_fns])
            aliases = {
                item.alias: value
                for (item, _), value in zip(items, values)
                if item.alias is not None
            }
            row_ctx = EvalContext(
                params=ctx.params,
                functions=ctx.functions,
                subquery_executor=ctx.subquery_executor,
                alias_values=aliases,
                _subquery_cache=ctx._subquery_cache,
            )
            env = Env(relation.scope, row, outer)
            order_keys = self._order_keys(query, env, row_ctx, values)
            output.append((values, order_keys))
        return output

    def _order_keys(
        self, query: ast.Select, env: Env | None, ctx: EvalContext, values: tuple
    ) -> list:
        keys = []
        for item in query.order_by:
            keys.append(evaluate(item.expr, env, ctx))
        return keys

    # ORDER BY / DISTINCT / LIMIT ---------------------------------------------------

    def _order_limit_distinct(
        self,
        query: ast.Select,
        rows_with_keys: list[tuple[tuple, list]],
        ctx: EvalContext,
    ) -> list[tuple]:
        rows = rows_with_keys
        if query.distinct:
            unique: dict = {}
            for values, keys in rows:
                marker = tuple(tuple(v) if isinstance(v, list) else v for v in values)
                if marker not in unique:
                    unique[marker] = (values, keys)
            rows = list(unique.values())
        if query.order_by:
            for index in range(len(query.order_by) - 1, -1, -1):
                ascending = query.order_by[index].ascending
                rows.sort(
                    key=lambda pair: _SortKey(pair[1][index]),
                    reverse=not ascending,
                )
        result = list(map(operator.itemgetter(0), rows))
        if query.limit is not None:
            result = result[: query.limit]
        return result


class _SemiJoinCache:
    """Materialized semi-join fast path for correlated EXISTS.

    A correlated EXISTS whose outer references appear only in top-level
    comparison conjuncts (``inner_expr OP outer_expr``) executes the
    subquery ONCE with those conjuncts removed, materializing the inner
    comparison values; each outer row then probes the materialization
    (hash on the first equality, linear within the bucket).  This is the
    classic magic-set/semi-join decorrelation — TPC-H Q4, Q21, and Q22 are
    unusable without it on a naive executor.
    """

    _EQ_OPS = ("=", "<>", "<", "<=", ">", ">=")
    _FLIP = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

    def __init__(self, executor: "Executor") -> None:
        self.executor = executor
        self._entries: dict[int, object] = {}

    def test(self, query: ast.Select, env: Env | None, ctx: EvalContext):
        key = id(query)
        entry = self._entries.get(key)
        if entry is None:
            entry = self._build(query, ctx)
            self._entries[key] = entry
        if entry is False:
            return None  # Not decomposable: caller falls back.
        probes, index, rows = entry
        outer_values = []
        for op, _inner_index, outer_expr in probes:
            outer_values.append(evaluate(outer_expr, env, ctx))
        # Probe: hash bucket on the first equality if one exists.
        candidates = rows
        start = 0
        if index is not None:
            eq_pos, buckets = index
            value = outer_values[eq_pos]
            if value is None:
                return False
            candidates = buckets.get(value, ())
        for row in candidates:
            ok = True
            for j, (op, inner_index, _outer) in enumerate(probes):
                if not _compare(op, row[inner_index], outer_values[j]):
                    ok = False
                    break
            if ok:
                return True
        return False

    def _build(self, query: ast.Select, ctx: EvalContext):
        if query.group_by or query.having is not None or query.limit is not None:
            return False
        tables: list[tuple[str, str]] = []
        for ref in query.from_items:
            if not isinstance(ref, ast.TableName):
                return False
            if not self.executor.db.has_table(ref.name):
                return False
            tables.append((ref.binding, ref.name))
        inner_scope = Scope(
            [
                (binding, column)
                for binding, name in tables
                for column in self.executor.db.table(name).schema.column_names
            ]
        )
        local: list[ast.Expr] = []
        probes: list[tuple[str, ast.Expr, ast.Expr]] = []  # (op, inner, outer)
        for conjunct in ast.conjuncts(query.where):
            if ast.find_subqueries(conjunct):
                return False
            side = self._classify(conjunct, inner_scope)
            if side == "inner":
                local.append(conjunct)
                continue
            if not (isinstance(conjunct, ast.BinOp) and conjunct.op in self._EQ_OPS):
                return False
            left_side = self._classify(conjunct.left, inner_scope)
            right_side = self._classify(conjunct.right, inner_scope)
            if left_side == "inner" and right_side == "outer":
                probes.append((conjunct.op, conjunct.left, conjunct.right))
            elif left_side == "outer" and right_side == "inner":
                probes.append((self._FLIP[conjunct.op], conjunct.right, conjunct.left))
            else:
                return False
        if not probes:
            return False
        inner_select = ast.Select(
            items=tuple(ast.SelectItem(inner) for _, inner, _ in probes),
            from_items=query.from_items,
            where=ast.conjoin(local),
        )
        result = self.executor._execute(inner_select, ctx, None)
        probe_specs = [(op, i, outer) for i, (op, _inner, outer) in enumerate(probes)]
        index = None
        for i, (op, _inner, _outer) in enumerate(probes):
            if op == "=":
                buckets: dict[object, list[tuple]] = {}
                for row in result.rows:
                    if row[i] is not None:
                        try:
                            buckets.setdefault(row[i], []).append(row)
                        except TypeError:
                            return False
                index = (i, buckets)
                break
        return (probe_specs, index, result.rows)

    def _classify(self, expr: ast.Expr, inner_scope: Scope) -> str:
        """Where the columns of expr resolve: "inner" if all of them do in
        the subquery scope, "outer" if none does, "mixed" otherwise."""
        saw_inner = saw_outer = False
        for column in ast.find_columns(expr):
            if column.name == "*":
                saw_inner = True
                continue
            try:
                found = inner_scope.find(column.table, column.name) is not None
            except ExecutionError:
                found = True  # Ambiguous within inner: treat as inner.
            if found:
                saw_inner = True
            else:
                saw_outer = True
        if saw_outer and saw_inner:
            return "mixed"
        return "outer" if saw_outer else "inner"


class _Chunk:
    """Some consecutive input rows of a streamed scan, held column-major,
    row-major or both: each form is built from the other at most once, on
    first use."""

    __slots__ = ("num_rows", "_columns", "_rows")

    def __init__(
        self,
        num_rows: int,
        columns: list[list] | None = None,
        rows: list[tuple] | None = None,
    ) -> None:
        self.num_rows = num_rows
        self._columns = columns
        self._rows = rows

    @classmethod
    def of_block(cls, block: RowBlock, start: int, stop: int) -> "_Chunk":
        """Rows ``start:stop`` of ``block`` (the block's own lists when whole)."""
        if start == 0 and stop == block.num_rows:
            return cls(stop, columns=block.columns)
        return cls(stop - start, columns=[c[start:stop] for c in block.columns])

    def rows(self) -> list[tuple]:
        if self._rows is None:
            self._rows = (
                list(zip(*self._columns)) if self._columns else [()] * self.num_rows
            )
        return self._rows

    def column(self, index: int) -> list:
        if self._columns is not None:
            return self._columns[index]
        return list(map(operator.itemgetter(index), self._rows))

    def project(self, outputs: list) -> list[list]:
        """One list per output: an int picks that column, a closure is
        mapped over the rows."""
        return [
            self.column(out) if type(out) is int else list(map(out, self.rows()))
            for out in outputs
        ]

    def compress(self, keep: list[bool]) -> "_Chunk":
        """The rows whose ``keep`` flag is True, in order."""
        if self._rows is not None:
            rows = list(compress(self._rows, keep))
            return _Chunk(len(rows), rows=rows)
        columns = [list(compress(column, keep)) for column in self._columns]
        return _Chunk(sum(keep), columns=columns)


class _ColumnFilter:
    """A WHERE as a conjunct-prefix column filter plus a row closure: the
    one filter kernel of both drivers.

    The WHERE's leading conjuncts that test a column against constants or
    another column (:func:`_column_kernel`) run a whole column at a time,
    in order: each takes its columns from the rows the ones before it
    kept, and the rows it holds True stay.  The prefix ends at the first
    other conjunct, or at one whose columns hold a NULL or values it does
    not compare (the kernel would raise ``TypeError``); the compiled
    closure of what is left of the WHERE then runs over the surviving rows,
    and a row stays only where it returns True.  A conjunct drops exactly
    the rows on which ``AND`` would have stopped short after it, so every
    later conjunct sees the rows it sees in the row-at-a-time closure, and
    any error is the closure's, raised as it always was.
    """

    __slots__ = ("_where", "_scope", "_ctx", "_outer", "_kernels", "_closures")

    def __init__(
        self, where: ast.Expr, scope: Scope, ctx: EvalContext, outer: Env | None
    ) -> None:
        self._where = where
        self._scope, self._ctx, self._outer = scope, ctx, outer
        self._kernels: list = []
        for conjunct in ast.conjuncts(where):
            kernel = _column_kernel(conjunct, scope, ctx.params)
            if kernel is None:
                break
            self._kernels.append(kernel)
        self._closures: dict = {}  # Prefix length -> closure of the rest.

    @classmethod
    def rows(
        cls, where: ast.Expr, rel: _Relation, ctx: EvalContext, outer: Env | None
    ) -> list[tuple]:
        """The rows of ``rel`` the WHERE holds True, in order."""
        chunk = _Chunk(len(rel.rows), rows=rel.rows)
        return cls(where, rel.scope, ctx, outer).apply(chunk).rows()

    def apply(self, chunk: "_Chunk") -> "_Chunk":
        """The rows of ``chunk`` the WHERE holds True, in order."""
        done = 0
        for positions, kernel in self._kernels:
            columns = [chunk.column(position) for position in positions]
            if any(None in values for values in columns):
                break
            try:
                keep = kernel(*columns)
            except TypeError:
                break
            chunk = chunk.compress(keep)
            done += 1
        closure = self._closure(done)
        if closure is None:
            return chunk
        return chunk.compress([closure(row) is True for row in chunk.rows()])

    def _closure(self, done: int):
        """The compiled rest of the WHERE once ``done`` conjuncts have held
        True (None: nothing is left), compiled on first use."""
        if done not in self._closures:
            rest = _after_prefix(self._where, done)
            self._closures[done] = (
                None
                if rest is None
                else compile_expr(rest, self._scope, self._ctx, self._outer)
            )
        return self._closures[done]


#: Comparisons a whole column runs at once.
_COLUMN_OPS = {"=": operator.eq, "<>": operator.ne, **_CMP_OPS}


def _constant(expr: ast.Expr, params: dict[str, object]) -> object:
    """A literal's value or a bound parameter's; None for anything else."""
    if isinstance(expr, ast.Literal):
        return expr.value
    if isinstance(expr, ast.Param):
        return params.get(expr.name)
    return None


def _column_kernel(conjunct: ast.Expr, scope: Scope, params: dict[str, object]):
    """``(positions, kernel)`` when ``conjunct`` tests columns of ``scope``
    against each other or against non-NULL constants, else None.
    ``kernel(*columns)`` maps the columns at ``positions`` (no NULL in
    them) to the conjunct's bools, with the row closure's operators in the
    row closure's operand order, or raises ``TypeError`` where the closure
    has to decide.  The shapes: ``column op constant`` either way round
    and ``column op column`` (``= <> < <= > >=``), ``column [NOT] BETWEEN
    constant AND constant``, and ``column [NOT] IN (literal, ...)`` whose
    list :func:`_in_probe` can hash; a constant is a literal or a bound
    parameter."""
    constants: tuple = ()
    if isinstance(conjunct, ast.BinOp) and conjunct.op in _COLUMN_OPS:
        cmp = _COLUMN_OPS[conjunct.op]
        left, right = conjunct.left, conjunct.right
        if isinstance(left, ast.Column) and isinstance(right, ast.Column):
            columns = (left, right)

            def kernel(left_values, right_values):
                return list(map(cmp, left_values, right_values))

        elif isinstance(left, ast.Column):
            columns, constant = (left,), _constant(right, params)
            constants = (constant,)

            def kernel(values):
                return list(map(cmp, values, repeat(constant)))

        elif isinstance(right, ast.Column):
            columns, constant = (right,), _constant(left, params)
            constants = (constant,)

            def kernel(values):
                return list(map(cmp, repeat(constant), values))

        else:
            return None
    elif isinstance(conjunct, ast.Between) and isinstance(conjunct.needle, ast.Column):
        columns, negated = (conjunct.needle,), conjunct.negated
        low, high = constants = (
            _constant(conjunct.low, params),
            _constant(conjunct.high, params),
        )

        def kernel(values):
            # ``low <= v <= high`` with both comparisons bools, so & agrees.
            inside = map(
                operator.and_,
                map(operator.le, repeat(low), values),
                map(operator.le, values, repeat(high)),
            )
            return list(map(operator.not_, inside) if negated else inside)

    elif (
        isinstance(conjunct, ast.InList)
        and isinstance(conjunct.needle, ast.Column)
        and all(isinstance(item, ast.Literal) for item in conjunct.items)
    ):
        columns, negated = (conjunct.needle,), conjunct.negated
        probe = _in_probe([item.value for item in conjunct.items])
        constants = (probe,)

        def kernel(values):
            found = map(probe.__contains__, values)
            return list(map(operator.not_, found) if negated else found)

    else:
        return None
    if any(constant is None for constant in constants):
        return None
    positions = [_scope_index(scope, column) for column in columns]
    return None if None in positions else (positions, kernel)


def _after_prefix(where: ast.Expr, done: int) -> ast.Expr | None:
    """``where`` on rows where its first ``done`` conjuncts hold True: those
    conjuncts folded out of the AND tree (None when nothing is left).
    ``TRUE AND x`` folds to ``x`` only where ``x`` yields nothing but
    TRUE, FALSE or NULL: around any other value the AND stays, because it
    turns the value into a bool and so decides whether the next conjunct
    runs at all."""

    def strip(expr: ast.Expr, done: int) -> tuple[ast.Expr | None, int]:
        if not done:
            return expr, 0
        if not (isinstance(expr, ast.BinOp) and expr.op == "and"):
            return None, done - 1
        left, done = strip(expr.left, done)
        right, done = strip(expr.right, done)
        if left is not None:
            return ast.BinOp("and", left, right), done
        if right is None or _yields_bool(right):
            return right, done
        return ast.BinOp("and", ast.Literal(True), right), done

    return strip(where, done)[0]


#: Binary operators whose closures return only True, False or NULL.
_BOOL_OPS = frozenset(("and", "or", *_COLUMN_OPS))


def _yields_bool(expr: ast.Expr) -> bool:
    if isinstance(expr, ast.BinOp):
        return expr.op in _BOOL_OPS
    if isinstance(expr, ast.UnaryOp):
        return expr.op == "not"
    return isinstance(
        expr,
        (ast.InList, ast.Like, ast.Between, ast.IsNull, ast.InSubquery, ast.Exists),
    )


def _scope_index(scope: Scope, column: ast.Column) -> int | None:
    """The input position a column reference names, or None when only the
    compiled closure can resolve it (an outer or alias reference) or must
    report it (an ambiguous or unknown one)."""
    try:
        return scope.find(column.table, column.name)
    except ExecutionError:
        return None


def _select_items(
    items: tuple[ast.SelectItem, ...],
    scope: Scope,
    from_items: tuple[ast.TableRef, ...] = (),
) -> list[tuple[ast.SelectItem, int | None]]:
    """The select list with ``*`` and ``t.*`` spelled out against ``scope``:
    one ``(item, position)`` pair per output column.  A star becomes one
    column item per scope column it covers (so the result column is named
    after it), paired with that column's position; every other item is
    paired with None.  A ``*`` lists the relations in ``from_items`` order,
    whatever order the joins put them in.  A ``t.*`` that covers no column
    stays as it is, for :func:`_compile_item` to refuse where the
    projection compiles."""
    rank: dict[str, int] = {}
    for binding in _bindings(from_items):
        rank.setdefault(binding, len(rank))
    expanded: list[tuple[ast.SelectItem, int | None]] = []
    for item in items:
        star = item.expr
        if not ast.is_star(star):
            expanded.append((item, None))
            continue
        positions = [
            i
            for i, (binding, _) in enumerate(scope.columns)
            if star.table is None or binding == star.table
        ]
        if not positions and star.table is not None:
            expanded.append((item, None))
            continue
        if star.table is None:
            positions.sort(key=lambda i: rank.get(scope.columns[i][0], len(rank)))
        for i in positions:
            binding, name = scope.columns[i]
            expanded.append((ast.SelectItem(ast.Column(name, binding)), i))
    return expanded


def _bindings(from_items: tuple[ast.TableRef, ...]) -> list[str]:
    """The relation bindings of a FROM list, left to right."""
    bindings: list[str] = []
    for ref in from_items:
        if isinstance(ref, ast.Join):
            bindings.extend(_bindings((ref.left, ref.right)))
        else:
            bindings.append(ref.binding)
    return bindings


def _output_names(items: list[tuple[ast.SelectItem, int | None]]) -> list[str]:
    return [item.output_name(i) for i, (item, _) in enumerate(items)]


def _compile_item(item: ast.SelectItem, scope: Scope, ctx, outer):
    """A computed select item's row closure; a ``t.*`` that
    :func:`_select_items` could not spell out is refused here."""
    if ast.is_star(item.expr):
        raise ExecutionError(f"{item.expr.table}.* names no relation in FROM")
    return compile_expr(item.expr, scope, ctx, outer)


def _compare(op: str, left: object, right: object) -> bool:
    if left is None or right is None:
        return False
    if op == "=":
        return left == right
    if op == "<>":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    return left >= right


def _key_fn(keys: list[ast.Expr], scope: Scope, ctx: EvalContext, outer):
    """A GROUP BY or join key: the value itself for one expression, a tuple
    for several (none at all: every row gets ``()``).  Keys that are all
    bare columns of ``scope`` are one ``itemgetter``, built in C."""
    positions = [
        _scope_index(scope, key) if isinstance(key, ast.Column) else None
        for key in keys
    ]
    if positions and None not in positions:
        return operator.itemgetter(*positions)
    if len(keys) == 1:
        return compile_expr(keys[0], scope, ctx, outer)
    return _row_tuple([compile_expr(key, scope, ctx, outer) for key in keys])


def _row_groups(
    query: ast.Select,
    agg_calls: list[ast.FuncCall],
    relation: _Relation,
    ctx: EvalContext,
    outer: Env | None,
):
    """Each group's fold inputs (one list of argument columns per call in
    ``agg_calls``) and representative row: rows partitioned by the GROUP
    BY keys, groups in first-seen order, rows in input order, the first
    row the representative.  No GROUP BY is one group, empty input too
    (one row of aggregate identities)."""
    # Compile each distinct aggregate argument once per query (Q1 sums
    # and averages the same three columns).
    arg_fns: dict[ast.Expr, object] = {}
    for call in agg_calls:
        for arg in call.args:
            if arg not in arg_fns:
                arg_fns[arg] = compile_expr(arg, relation.scope, ctx, outer)
    rows = relation.rows
    members = [rows]
    if query.group_by:
        key_fn = _key_fn(query.group_by, relation.scope, ctx, outer)
        partitions: dict[object, list[tuple]] = defaultdict(list)
        for key, row in zip(map(key_fn, rows), rows):
            partitions[key].append(row)
        members = list(partitions.values())
    for group_rows in members:
        columns = {arg: list(map(fn, group_rows)) for arg, fn in arg_fns.items()}
        # COUNT(*) has no argument: it counts a constant.
        inputs = [
            [columns[a] for a in call.args] or [[1] * len(group_rows)]
            for call in agg_calls
        ]
        yield inputs, (group_rows[0] if group_rows else None)


def _nested_groups(
    query: ast.Select,
    agg_calls: list[ast.FuncCall],
    relation: _Relation,
    lists: tuple[int, ...],
    ctx: EvalContext,
    outer: Env | None,
):
    """:func:`_row_groups` over rows whose ``lists`` columns hold lists:
    the client's staged grp() results, one row per server group.

    A row stands for its *element rows*, as many as its lists have
    elements (every list of a row has one length, else "misaligned"):
    element row ``i`` takes item ``i`` of each list and the row's other
    columns as they are.  Groups, their order, and each fold input's
    values in their order are those of grouping the element rows, which
    are built only where an expression has to read one:

    * a bare list column's input is its lists concatenated in row order;
    * an argument that reads columns but no list column (a per-group
      scalar the server computed: a key, a hom sum, a count) is evaluated
      once per row and repeated once per element, except under MIN or
      MAX, which fold each row's own value: the server's one row of empty
      lists for an ungrouped query over no input keeps its COUNT of 0;
    * any other argument, and a GROUP BY key that reads a list column,
      is evaluated on each row's element rows.

    Keys that read no list column partition whole rows, and a row with no
    elements starts no group; a key that reads a list column splits a row
    into one piece per key its elements take.
    """
    scope, rows = relation.scope, relation.rows
    lengths = list(map(len, map(operator.itemgetter(lists[0]), rows)))
    for position in lists[1:]:
        if list(map(len, map(operator.itemgetter(position), rows))) != lengths:
            raise ExecutionError("misaligned grp() lists in one group")
    is_list = frozenset(lists)
    width = len(scope.columns)

    def reads_lists(expr: ast.Expr) -> bool:
        # A subquery may correlate to any column: read it per element.
        return bool(ast.find_subqueries(expr)) or any(
            _scope_index(scope, column) in is_list for column in ast.find_columns(expr)
        )

    def reads_columns(expr: ast.Expr) -> bool:
        return any(
            _scope_index(scope, column) is not None
            for column in ast.find_columns(expr)
        )

    def elements(row: tuple, sel: list[int] | None) -> list[tuple]:
        parts = [row[i] if i in is_list else repeat(row[i]) for i in range(width)]
        out = list(zip(*parts))
        return out if sel is None else [out[i] for i in sel]

    # A group is a list of pieces ⟨row, element count, element indices⟩;
    # None for the indices means all of the row's elements.
    members: list[list[tuple]] = [[(row, n, None) for row, n in zip(rows, lengths)]]
    if query.group_by:
        key_fn = _key_fn(query.group_by, scope, ctx, outer)
        partitions: dict[object, list[tuple]] = defaultdict(list)
        if any(map(reads_lists, query.group_by)):
            for row in rows:
                split: dict[object, list[int]] = defaultdict(list)
                for i, key in enumerate(map(key_fn, elements(row, None))):
                    split[key].append(i)
                whole = len(split) == 1
                for key, sel in split.items():
                    partitions[key].append((row, len(sel), None if whole else sel))
        else:
            for key, row, n in zip(map(key_fn, rows), rows, lengths):
                if n:
                    partitions[key].append((row, n, None))
        members = list(partitions.values())

    picks: dict[ast.Expr, int] = {}  # Bare list columns.
    per_element: dict[ast.Expr, object] = {}  # Read on element rows.
    per_row: dict[ast.Expr, object] = {}  # Read once per row.
    repeated: set[ast.Expr] = set()  # Folded per element by some call.
    for call in agg_calls:
        for arg in call.args:
            if call.name not in ("min", "max"):
                repeated.add(arg)
            if arg in picks or arg in per_element or arg in per_row:
                continue
            if isinstance(arg, ast.Column) and _scope_index(scope, arg) in is_list:
                picks[arg] = _scope_index(scope, arg)
            elif reads_lists(arg) or not reads_columns(arg):
                per_element[arg] = compile_expr(arg, scope, ctx, outer)
            else:
                per_row[arg] = compile_expr(arg, scope, ctx, outer)
    for pieces in members:
        columns: dict[ast.Expr, list] = {}
        for arg, p in picks.items():
            columns[arg] = list(
                chain.from_iterable(
                    row[p] if sel is None else [row[p][i] for i in sel]
                    for row, _, sel in pieces
                )
            )
        for arg, fn in per_element.items():
            columns[arg] = [
                fn(element) for row, _, sel in pieces for element in elements(row, sel)
            ]
        row_values: dict[ast.Expr, list] = {}
        for arg, fn in per_row.items():
            values = row_values[arg] = [fn(row) for row, _, _ in pieces]
            if arg in repeated:
                counts = [n for _, n, _ in pieces]
                columns[arg] = list(chain.from_iterable(map(repeat, values, counts)))
        size = sum(n for _, n, _ in pieces)
        inputs = []
        for call in agg_calls:
            if not call.args:
                inputs.append([[1] * size])
            elif call.name in ("min", "max"):
                inputs.append([row_values.get(a, columns.get(a)) for a in call.args])
            else:
                inputs.append([columns[a] for a in call.args])
        rep_row = None
        for row, n, sel in pieces:
            if n:
                i = 0 if sel is None else sel[0]
                rep_row = tuple(
                    [row[c][i] if c in is_list else row[c] for c in range(width)]
                )
                break
        yield inputs, rep_row


def _null_keys(keys, width: int) -> list:
    """The join keys of ``width`` components among ``keys`` (a set or a
    dict) that have a NULL in them."""
    if width == 1:
        return [None] if None in keys else []
    return [key for key in keys if None in key]


def _row_tuple(fns: list):
    """row -> (fns[0](row), fns[1](row), ...) without a generator per row."""
    if len(fns) == 2:
        first, second = fns
        return lambda row: (first(row), second(row))
    return lambda row: tuple([fn(row) for fn in fns])


def _mentioned_names(query: ast.Select) -> frozenset[str] | None:
    """Every column name the query tree mentions, qualifiers dropped:
    through nested and correlated subqueries, FROM subqueries and JOIN
    conditions.  None if a ``*`` appears anywhere."""
    names: set[str] = set()

    def visit_expr(expr: ast.Expr) -> None:
        names.update(col.name for col in ast.find_columns(expr))
        for sub in ast.find_subqueries(expr):
            visit_query(sub)

    def visit_ref(ref: ast.TableRef) -> None:
        if isinstance(ref, ast.SubqueryRef):
            visit_query(ref.query)
        elif isinstance(ref, ast.Join):
            visit_ref(ref.left)
            visit_ref(ref.right)
            if ref.condition is not None:
                visit_expr(ref.condition)

    def visit_query(select: ast.Select) -> None:
        for ref in select.from_items:
            visit_ref(ref)
        exprs = [item.expr for item in select.items]
        exprs.extend(select.group_by)
        exprs.extend(o.expr for o in select.order_by)
        for expr in (*exprs, select.where, select.having):
            if expr is not None:
                visit_expr(expr)

    visit_query(query)
    return None if "*" in names else frozenset(names)


def _or_branches(expr: ast.Expr) -> list[ast.Expr]:
    if isinstance(expr, ast.BinOp) and expr.op == "or":
        return _or_branches(expr.left) + _or_branches(expr.right)
    return [expr]


class _SortKey:
    """Sort wrapper: NULLs last (ascending), type-stable comparisons."""

    __slots__ = ("value",)

    def __init__(self, value: object) -> None:
        self.value = value

    def __lt__(self, other: "_SortKey") -> bool:
        a, b = self.value, other.value
        if a is None:
            return False
        if b is None:
            return True
        return a < b

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _SortKey) and self.value == other.value
