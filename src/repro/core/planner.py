"""The MONOMI planner: choose the best split execution plan for one query.

Given a physical design (§6.2 step 2-3): compute the query's EncSet units,
enumerate the power set of the units available in the design (with §6.3
pruning), run Algorithm 1 once per distinct candidate design the subsets
build, price each plan with the cost model (§6.4), and keep the cheapest.

With ``optimizing_planner`` off this degrades to the Execution-Greedy
strategy the paper compares against (§8.3): use every available scheme,
push everything pushable to the server.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import PlanningError, UnsupportedQueryError
from repro.core.candidates import (
    base_design_for_loaded,
    build_candidate,
    priced_candidates,
    usable_units,
)
from repro.core.cost import CostBreakdown, MonomiCostModel
from repro.core.design import PhysicalDesign, TechniqueFlags
from repro.core.encset import EncSetExtractor, Unit
from repro.core.normalize import expand_stars
from repro.core.plan import SplitPlan
from repro.core.splitter import StatsMax, generate_query_plan
from repro.engine.schema import TableSchema
from repro.sql import ast


@dataclass
class PlannedQuery:
    plan: SplitPlan
    cost: CostBreakdown
    chosen_units: tuple[Unit, ...]
    candidates_tried: int  # Distinct feasible candidate designs priced.
    subsets_tried: int = 1  # Unit subsets the search walked to find them.


class Planner:
    def __init__(
        self,
        design: PhysicalDesign,
        schemas: dict[str, TableSchema],
        provider,
        cost_model: MonomiCostModel,
        flags: TechniqueFlags = TechniqueFlags(),
        stats_max: StatsMax | None = None,
        plain_db=None,
    ) -> None:
        self.design = design
        self.schemas = schemas
        self.provider = provider
        self.cost_model = cost_model
        self.flags = flags
        self.stats_max = stats_max
        self.plain_db = plain_db
        self.extractor = EncSetExtractor(schemas, flags)
        self._base = base_design_for_loaded(design)

    def plan(self, query: ast.Select) -> PlannedQuery:
        """Pick the best plan for a normalized query."""
        query = expand_stars(query, self.schemas)
        units = usable_units(self.extractor.extract(query), self.design)
        if not self.flags.optimizing_planner:
            plan = self._plan_with(query, tuple(units))
            if plan is None:
                plan = self._plan_with(query, ())
            if plan is None:
                raise PlanningError("query has no feasible plan under this design")
            return PlannedQuery(plan, self.cost_model.plan_cost(plan), tuple(units), 1)

        tried = 0

        def price(candidate: PhysicalDesign):
            nonlocal tried
            plan = self._plan_on(query, candidate)
            if plan is None:
                return None
            tried += 1
            return plan, self.cost_model.plan_cost(plan)

        best: tuple[SplitPlan, CostBreakdown, tuple[Unit, ...]] | None = None
        subsets = 0
        for subset, _, priced in priced_candidates(
            units, self._base, self.flags, price, loaded=self.design
        ):
            subsets += 1
            if priced is None:
                continue
            plan, cost = priced
            # Strict <: the first subset in enumeration order keeps a tie.
            if best is None or cost.total_seconds < best[1].total_seconds:
                best = (plan, cost, subset)
        if best is None:
            raise PlanningError("query has no feasible plan under this design")
        return PlannedQuery(*best, tried, subsets)

    def _plan_with(self, query: ast.Select, subset: tuple[Unit, ...]) -> SplitPlan | None:
        candidate = build_candidate(self._base, subset, self.flags, loaded=self.design)
        return self._plan_on(query, candidate)

    def _plan_on(self, query: ast.Select, candidate: PhysicalDesign) -> SplitPlan | None:
        try:
            return generate_query_plan(
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
