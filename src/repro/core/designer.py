"""The MONOMI designer (§6): choose the encrypted physical design.

Given a representative workload over a plaintext database sample:

1. extract each query's EncSet units (§6.2 step 1, §6.3 pruning);
2. for every unit subset, build the candidate design, run Algorithm 1, and
   price the plan with the cost model (§6.2 steps 2-3) — once per distinct
   candidate, sizing its tables analytically, since nothing is loaded yet;
3. either take the union of each query's best subset (the unconstrained
   algorithm of §6.2), or solve the §6.5 ILP under a space budget
   ``S × plainsize``.

A ``Space-Greedy`` baseline (drop the largest column until the budget is
met) reproduces §8.6's comparison.

``det_default`` adds DET copies for key-like and category-like columns even
when no workload query needs them — the paper's §8.5 default, which is what
lets designs generalize to unseen queries (Figure 8).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.common.errors import InfeasibleDesignError, PlanningError, UnsupportedQueryError
from repro.common.ledger import NetworkModel
from repro.core.candidates import (
    COLUMNAR_ROWS_PER_CT,
    _loaded_group_for,
    base_design_for_plain,
    priced_candidates,
)
from repro.core.cost import MonomiCostModel
from repro.core.design import (
    EncEntry,
    HomGroup,
    PhysicalDesign,
    TechniqueFlags,
)
from repro.core.encdata import CryptoProvider
from repro.core.encset import EncSetExtractor, Pair, Unit
from repro.core.ilp import IlpCandidate, IlpProblem, solve
from repro.core.normalize import expand_stars
from repro.core.schemes import Scheme
from repro.core.sizer import DesignSizer, row_function
from repro.core.splitter import generate_query_plan
from repro.engine.catalog import Database
from repro.engine.table import Table, ValueCounter
from repro.sql import ast, parse_expression


@dataclass
class CandidatePlan:
    subset: tuple[Unit, ...]
    cost: float
    design: PhysicalDesign
    item_keys: frozenset


@dataclass
class DesignResult:
    design: PhysicalDesign
    per_query_cost: list[float]
    setup_seconds: float
    chosen_subsets: list[tuple[Unit, ...]] = field(default_factory=list)

    @property
    def total_cost(self) -> float:
        return sum(self.per_query_cost)


class _ExprMax:
    """The maximum of one integer expression over a mirror table.

    A table nobody writes costs one scan and one int.  The first write
    builds a :class:`ValueCounter` (from the mirror, which already holds
    that write); later writes move it by their own rows only.
    """

    def __init__(self, table: Table, expr_sql: str) -> None:
        self._fn = row_function(table, parse_expression(expr_sql))
        self._table = table
        self._counter: ValueCounter | None = None
        self.best = max(self._values(table.rows), default=None)

    def _values(self, rows):
        for row in rows:
            value = self._fn(row)
            if isinstance(value, int) and not isinstance(value, bool):
                yield value

    def apply(self, inserted, deleted) -> None:
        if self._counter is None:
            self._counter = ValueCounter(self._values(self._table.rows))
        else:
            for value in self._values(inserted):
                self._counter.add(value)
            for value in self._values(deleted):
                self._counter.remove(value)
        self.best = self._counter.high


class Designer:
    def __init__(
        self,
        plain_db: Database,
        provider: CryptoProvider,
        flags: TechniqueFlags = TechniqueFlags(),
        network: NetworkModel | None = None,
        det_default: bool = True,
    ) -> None:
        self.plain_db = plain_db
        self.provider = provider
        self.flags = flags
        self.network = network or NetworkModel()
        self.det_default = det_default
        self.schemas = {name: t.schema for name, t in plain_db.tables.items()}
        self.sizer = DesignSizer(plain_db, provider)
        self.extractor = EncSetExtractor(self.schemas, flags)
        self._base = base_design_for_plain(plain_db)
        self._candidate_cache: dict[ast.Select, list[CandidatePlan]] = {}
        # Planning threads fill the memo while a DML thread's listener call
        # walks it (the service holds different locks for the two).
        self._max_memo: dict[tuple[str, str], _ExprMax] = {}
        self._max_lock = threading.Lock()
        self._range_cache: dict[tuple[str, str], tuple[int, int] | None] = {}

    # -- candidate enumeration (§6.2 steps 2-3) ---------------------------------

    def candidates_for(self, query: ast.Select) -> list[CandidatePlan]:
        if query in self._candidate_cache:
            return self._candidate_cache[query]
        key, query = query, expand_stars(query, self.schemas)
        units = [u for u in self.extractor.extract(query) if self._unit_loadable(u)]
        # Space-expensive units must be *choices* (enumerable head), not
        # forced inclusions: order by projected size, largest first.
        units.sort(key=self._unit_size_estimate, reverse=True)
        out = [
            CandidatePlan(
                subset=subset,
                cost=cost,
                design=candidate,
                item_keys=frozenset(self._item_keys(subset, candidate)),
            )
            for subset, candidate, cost in priced_candidates(
                units,
                self._base,
                self.flags,
                lambda candidate: self._plan_cost(query, candidate),
            )
            if cost is not None
        ]
        if not out:
            raise PlanningError("query admits no feasible design candidates")
        self._candidate_cache[key] = out
        return out

    def _plan_cost(self, query: ast.Select, candidate: PhysicalDesign) -> float | None:
        if not all(self._group_loadable(g) for g in candidate.hom_groups):
            return None
        table_bytes = self.sizer.table_bytes(candidate)
        hom_info = {
            group.file_name: self.sizer.group_info(group)
            for group in candidate.hom_groups
        }
        model = MonomiCostModel(
            self.plain_db,
            self.provider,
            network=self.network,
            table_bytes=table_bytes,
            hom_info=hom_info,
        )
        try:
            plan = generate_query_plan(
                query,
                candidate,
                self.schemas,
                self.provider,
                self.flags,
                self.stats_max,
                plain_db=self.plain_db,
            )
        except (PlanningError, UnsupportedQueryError):
            return None
        return model.plan_cost(plan).total_seconds

    def _unit_size_estimate(self, unit: Unit) -> float:
        total = 0.0
        for pair in unit.pairs:
            if pair.scheme is Scheme.HOM:
                rows = COLUMNAR_ROWS_PER_CT if pair.variant == "col" else 1
                group = HomGroup(pair.table, (pair.expr_sql,), rows)
                total += self.sizer.group_bytes(group)
            else:
                entry = EncEntry(pair.table, pair.expr_sql, pair.scheme)
                if pair.scheme is Scheme.DET and not entry.is_precomputed:
                    continue
                total += self.sizer.entry_bytes(entry)
        return total

    def _item_keys(self, subset: tuple[Unit, ...], candidate: PhysicalDesign):
        keys: list = []
        for unit in subset:
            for pair in unit.pairs:
                if pair.scheme is Scheme.HOM:
                    group = _loaded_group_for(candidate, pair)
                    if group is not None:
                        keys.append(("group", group))
                else:
                    keys.append(("pair", pair))
        return keys

    def design(self, queries: list[ast.Select], mode: str, space_budget: float | None) -> DesignResult:
        """``mode`` ``"ilp"`` or ``"space_greedy"`` under a budget; else greedy."""
        if mode == "ilp" and space_budget is not None:
            return self.design_ilp(queries, space_budget)
        if mode == "space_greedy" and space_budget is not None:
            return self.design_space_greedy(queries, space_budget)
        return self.design_greedy(queries)

    # -- unconstrained designer (§6.2) ----------------------------------------------

    def design_greedy(self, queries: list[ast.Select]) -> DesignResult:
        start = time.perf_counter()
        design = self._base.copy()
        costs: list[float] = []
        subsets: list[tuple[Unit, ...]] = []
        for query in queries:
            candidates = self.candidates_for(query)
            best = min(candidates, key=lambda c: c.cost)
            design = design.union(best.design)
            costs.append(best.cost)
            subsets.append(best.subset)
        design = self._with_det_defaults(design)
        return DesignResult(design, costs, time.perf_counter() - start, subsets)

    # -- ILP designer (§6.5) ------------------------------------------------------------

    def design_ilp(self, queries: list[ast.Select], space_budget: float = 2.0) -> DesignResult:
        start = time.perf_counter()
        plainsize = self.sizer.plaintext_bytes()
        base_size = self.sizer.design_bytes(self._with_det_defaults(self._base.copy()))
        budget = space_budget * plainsize - base_size
        if budget < 0:
            raise InfeasibleDesignError(
                f"space budget S={space_budget} is below the all-DET baseline"
            )
        ilp_candidates: list[IlpCandidate] = []
        item_sizes: dict = {}
        per_query_candidates: list[list[CandidatePlan]] = []
        for qi, query in enumerate(queries):
            candidates = self.candidates_for(query)
            per_query_candidates.append(candidates)
            for candidate in candidates:
                for key in candidate.item_keys:
                    if key not in item_sizes:
                        item_sizes[key] = self._item_size(key)
                ilp_candidates.append(
                    IlpCandidate(qi, candidate.cost, candidate.item_keys)
                )
        problem = IlpProblem(ilp_candidates, item_sizes, budget)
        solution = solve(problem)
        design = self._base.copy()
        costs: list[float] = []
        subsets: list[tuple[Unit, ...]] = []
        for qi, query in enumerate(queries):
            picked = solution.chosen[qi]
            match = next(
                c
                for c in per_query_candidates[qi]
                if c.item_keys == picked.item_keys and abs(c.cost - picked.cost) < 1e-12
            )
            design = design.union(match.design)
            costs.append(match.cost)
            subsets.append(match.subset)
        design = self._with_det_defaults(design)
        return DesignResult(design, costs, time.perf_counter() - start, subsets)

    def _item_size(self, key) -> float:
        kind, payload = key
        if kind == "group":
            return self.sizer.group_bytes(payload)
        pair: Pair = payload
        entry = EncEntry(pair.table, pair.expr_sql, pair.scheme)
        if pair.scheme is Scheme.DET and not entry.is_precomputed:
            return 0.0  # Coincides with the DET fallback copy.
        return self.sizer.entry_bytes(entry)

    # -- Space-Greedy baseline (§8.6) -----------------------------------------------------

    def design_space_greedy(
        self, queries: list[ast.Select], space_budget: float = 2.0
    ) -> DesignResult:
        """Unconstrained design, then delete the largest column until the
        budget is met."""
        start = time.perf_counter()
        result = self.design_greedy(queries)
        design = result.design
        plainsize = self.sizer.plaintext_bytes()
        limit = space_budget * plainsize
        while self.sizer.design_bytes(design) > limit:
            droppable: list[tuple[float, EncEntry]] = []
            for entry in design.entries:
                if entry.scheme is Scheme.DET and not entry.is_precomputed:
                    continue  # Fallback copies cannot be dropped.
                if entry.scheme is Scheme.HOM:
                    group = design.hom_group_for(entry.table, entry.expr_sql)
                    size = self.sizer.group_bytes(group) if group else 0.0
                else:
                    size = self.sizer.entry_bytes(entry)
                droppable.append((size, entry))
            if not droppable:
                raise InfeasibleDesignError(
                    "Space-Greedy cannot meet the budget: nothing left to drop"
                )
            droppable.sort(key=lambda pair: (-pair[0], repr(pair[1])))
            design = design.without_entry(droppable[0][1])
        costs = [self._plan_cost_loaded(query, design) for query in queries]
        return DesignResult(design, costs, time.perf_counter() - start)

    def _plan_cost_loaded(self, query: ast.Select, design: PhysicalDesign) -> float:
        cost = self._plan_cost(query, design)
        return cost if cost is not None else float("inf")

    # -- shared helpers ---------------------------------------------------------------------

    def stats_max(self, table: str, expr_sql: str) -> int | None:
        """Maximum value of an expression over the plaintext sample (§5.4's
        ``m``).  Scanned once per ``(table, expr_sql)``; :meth:`on_change`
        keeps the answer exact under DML."""
        key = (table, expr_sql)
        with self._max_lock:
            entry = self._max_memo.get(key)
            if entry is None:
                tbl = self.plain_db.tables.get(table)
                if tbl is None:
                    return None
                entry = self._max_memo[key] = _ExprMax(tbl, expr_sql)
            return entry.best

    def on_change(self, table: str, inserted, deleted) -> None:
        """DML listener hook (see :class:`~repro.core.dml.DmlExecutor`):
        the mirror already holds the statement's effect."""
        with self._max_lock:
            for (name, _), entry in self._max_memo.items():
                if name == table:
                    entry.apply(inserted, deleted)

    def _unit_loadable(self, unit: Unit) -> bool:
        """Homomorphic packing needs non-negative integers (§5.3's layout
        has no sign bit); drop HOM pairs the data cannot satisfy.  Columnar
        variants that cannot actually fit more than one row per ciphertext
        (payload too small) duplicate the per-row unit and are dropped."""
        for pair in unit.pairs:
            if pair.scheme is Scheme.HOM:
                found = self._int_range(pair.table, pair.expr_sql)
                if found is None or found[0] < 0:
                    return False
                if pair.variant == "col":
                    probe = HomGroup(
                        pair.table, (pair.expr_sql,), COLUMNAR_ROWS_PER_CT
                    )
                    if self.sizer.group_info(probe).rows_per_ciphertext <= 1:
                        return False
        return True

    def _int_range(self, table: str, expr_sql: str) -> tuple[int, int] | None:
        """(min, max) of an integer expression over the whole plaintext
        table, or None if the table is missing, has no value, or the
        expression yields anything but ints and NULLs."""
        key = (table, expr_sql)
        if key in self._range_cache:
            return self._range_cache[key]
        tbl = self.plain_db.tables.get(table)
        found = None
        if tbl is not None:
            fn = row_function(tbl, parse_expression(expr_sql))
            values = [value for value in map(fn, tbl.rows) if value is not None]
            if values and all(
                isinstance(value, int) and not isinstance(value, bool)
                for value in values
            ):
                found = (min(values), max(values))
        self._range_cache[key] = found
        return found

    def _group_loadable(self, group: HomGroup) -> bool:
        """Whether one packed row of ``group`` fits a Paillier plaintext.

        Uses the widths the loader will use (each column's full-table
        maximum plus the row-count pad), so exactly the groups whose load
        would raise are refused; the sizer's sampled estimate prices the
        rest."""
        pad_bits = max(4, self.plain_db.table(group.table).num_rows.bit_length())
        row_bits = 0
        for expr_sql in group.expr_sqls:
            found = self._int_range(group.table, expr_sql)
            if found is None:
                return False
            row_bits += max(1, found[1].bit_length()) + pad_bits
        return row_bits <= self.provider.paillier_public.plaintext_bits

    def _with_det_defaults(self, design: PhysicalDesign) -> PhysicalDesign:
        """§8.5: DET by default for keys and enumerations/categories."""
        if not self.det_default:
            return design
        out = design.copy()
        for name, table in self.plain_db.tables.items():
            stats = table.analyze()
            for column in table.schema.columns:
                is_key = column.name.endswith("key")
                is_category = (
                    column.type == "text"
                    and 0 < stats[column.name].num_distinct <= 50
                )
                if is_key or is_category:
                    out.add(name, ast.Column(column.name), Scheme.DET)
        return out
