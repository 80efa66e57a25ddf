"""The §6.2 search prices each distinct candidate design once.

``priced_candidates`` (``core/candidates.py``) keys every unit subset by
the union of its units' *effective pairs* and runs Algorithm 1 and the
cost model only the first time a key is seen.  These tests hold it to the
exhaustive loop it replaced — one Algorithm 1 run per subset, kept here as
the oracle — on plans, chosen units and costs (exact equality), on the
designer's candidate lists and design fingerprints, and on the property
that makes the key exact: equal keys build equal candidates.

The TPC-H and SSB fixtures are the benchmark's set-ups (scale 0.001, the
committed decryption profile, the 9-query / 4-query designer inputs), so
the fingerprints must equal ``benchmarks/e2e/pins/*.json``.
"""

from __future__ import annotations

import gc
import json
import pathlib
import random
import sys
import threading

import pytest

from repro import ssb, tpch
from repro.common.errors import PlanningError, UnsupportedQueryError
from repro.core import CryptoProvider, MonomiClient, TechniqueFlags, normalize_query
from repro.core import candidates as candidates_mod
from repro.core import designer as designer_mod
from repro.core.candidates import (
    base_design_for_loaded,
    build_candidate,
    conflicting_hom_variants,
    effective_pairs,
    unit_subsets,
    usable_units,
)
from repro.core.cost import DecryptionProfile
from repro.core.designer import Designer
from repro.sql import parse
from repro.testkit import MASTER_KEY, SALES_WORKLOAD, build_sales_db

PINS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "e2e" / "pins"
TPCH_DESIGN_INPUT = (1, 3, 4, 6, 7, 9, 14, 19, 22)
SSB_DESIGN_INPUT = ("1.1", "2.1", "3.1", "4.1")
FLAG_SETS = {
    "all": TechniqueFlags.all_enabled(),
    "nocolpack": TechniqueFlags(col_packing=False),
}


def pinned_design(workload: str) -> str:
    return json.loads((PINS / f"{workload}.json").read_text())["design"]


@pytest.fixture(scope="module")
def pinned_provider():
    """The benchmark's provider: 512-bit keys and the committed decryption
    profile, so designs and plans are the pinned ones on any machine."""
    provider = CryptoProvider(MASTER_KEY, paillier_bits=512)
    constants = json.loads((PINS / "decryption_profile.json").read_text())
    provider._decryption_profile = DecryptionProfile(**constants)
    return provider


@pytest.fixture(scope="module")
def tpch_db():
    return tpch.generate(scale=0.001)


@pytest.fixture(scope="module")
def ssb_db():
    return ssb.generate(scale=0.001)


@pytest.fixture(scope="module")
def tpch_sqls():
    return {n: q.sql for n, q in tpch.tpch_queries(0.001).items()}


@pytest.fixture(scope="module")
def ssb_sqls():
    return {key: q.sql for key, q in ssb.ssb_queries().items()}


@pytest.fixture(scope="module")
def workloads(tpch_db, ssb_db, tpch_sqls, ssb_sqls):
    """name -> (plain db, designer input, statements to plan)."""
    return {
        "tpch": (
            tpch_db,
            [tpch_sqls[n] for n in TPCH_DESIGN_INPUT],
            list(tpch_sqls.values()),
        ),
        "ssb": (
            ssb_db,
            [ssb_sqls[key] for key in SSB_DESIGN_INPUT],
            list(ssb_sqls.values()),
        ),
        "sales": (build_sales_db(num_orders=150, seed=3), SALES_WORKLOAD, SALES_WORKLOAD),
    }


@pytest.fixture(scope="module")
def clients(workloads, pinned_provider):
    """Loaded clients per (workload, flag set), built on first use."""
    built: dict = {}

    def get(workload: str, flags_name: str) -> MonomiClient:
        key = (workload, flags_name)
        if key not in built:
            db, design_input, _ = workloads[workload]
            built[key] = MonomiClient.setup(
                db,
                design_input,
                master_key=MASTER_KEY,
                provider=pinned_provider,
                flags=FLAG_SETS[flags_name],
            )
        return built[key]

    return get


def plannable(client: MonomiClient, sqls) -> list:
    """The normalized statements the planner accepts under this design."""
    out = []
    for sql in sqls:
        query = normalize_query(parse(sql))
        try:
            client.planner.plan(query)
        except (PlanningError, UnsupportedQueryError):
            continue
        out.append(query)
    return out


def design_key(design) -> tuple:
    """Everything ``rewrite.py`` / ``splitter.py`` can ask of a design."""
    return (frozenset(design.entries), tuple(design.hom_groups))


def exhaustive_plan(planner, query):
    """The loop ``Planner.plan`` ran before the memo: Algorithm 1 and one
    ``plan_cost`` per unit subset, first strictly-cheapest subset wins."""
    units = usable_units(planner.extractor.extract(query), planner.design)
    best = None
    subsets = feasible = 0
    feasible_designs = set()
    for subset in unit_subsets(units):
        if conflicting_hom_variants(subset):
            continue
        subsets += 1
        plan = planner._plan_with(query, subset)
        if plan is None:
            continue
        feasible += 1
        feasible_designs.add(
            design_key(
                build_candidate(planner._base, subset, planner.flags, planner.design)
            )
        )
        cost = planner.cost_model.plan_cost(plan)
        if best is None or cost.total_seconds < best[1].total_seconds:
            best = (plan, cost, subset)
    assert best is not None
    return best, subsets, feasible, len(feasible_designs)


# ---------------------------------------------------------------------------
# Planner: memoized search == exhaustive search
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("flags_name", list(FLAG_SETS))
@pytest.mark.parametrize("workload", ["tpch", "ssb", "sales"])
def test_planner_agrees_with_exhaustive_oracle(
    workload, flags_name, clients, workloads
):
    """Every plannable statement, the capped TPC-H Q5/Q8 (1,024 subsets,
    rarest units forced in) included."""
    client = clients(workload, flags_name)
    queries = plannable(client, workloads[workload][2])
    assert queries
    memo_hits = 0
    for query in queries:
        planned = client.planner.plan(query)
        (plan, cost, subset), subsets, feasible, distinct = exhaustive_plan(
            client.planner, query
        )
        assert planned.plan.explain() == plan.explain()
        assert planned.chosen_units == subset
        assert planned.cost.total_seconds == cost.total_seconds
        assert planned.subsets_tried == subsets
        # The key may split one design (two HOM pairs in one loaded group),
        # never merge two.
        assert distinct <= planned.candidates_tried <= feasible
        memo_hits += feasible - planned.candidates_tried
    assert memo_hits > 0


@pytest.mark.parametrize("flags_name", list(FLAG_SETS))
@pytest.mark.parametrize("workload", ["tpch", "ssb", "sales"])
def test_equal_keys_build_equal_candidates(workload, flags_name, clients, workloads):
    """Key soundness, runtime (``loaded=``) and design-time modes: any two
    subsets of a query's units with equal effective-pair unions build equal
    entries and an equal hom_groups *list*."""
    client = clients(workload, flags_name)
    flags = FLAG_SETS[flags_name]
    designer = Designer(client.plain_db, client.provider, flags)
    runtime_base = base_design_for_loaded(client.design)
    rng = random.Random(7)
    for sql in workloads[workload][2]:
        query = normalize_query(parse(sql))
        extracted = client.planner.extractor.extract(query)
        modes = [
            (usable_units(extracted, client.design), runtime_base, client.design),
            ([u for u in extracted if designer._unit_loadable(u)], designer._base, None),
        ]
        for units, base, loaded in modes:
            effective = {unit: effective_pairs(unit, base) for unit in units}
            if len(units) <= 7:
                subsets = list(unit_subsets(units))
            else:  # Arbitrary subsets, not only the ones the cap enumerates.
                subsets = [
                    tuple(u for u in units if rng.random() < 0.5) for _ in range(200)
                ]
            seen: dict = {}
            for subset in subsets:
                if conflicting_hom_variants(subset):
                    continue
                key = frozenset().union(*(effective[u] for u in subset))
                built = design_key(build_candidate(base, subset, flags, loaded))
                assert seen.setdefault(key, built) == built


def test_four_threads_plan_like_one(clients, tpch_sqls):
    """The memo is local to one ``plan()`` call: concurrent searches for
    different queries through one Planner cannot see each other's."""
    planner = clients("tpch", "all").planner
    queries = [normalize_query(parse(tpch_sqls[n])) for n in (1, 3, 7, 12)]
    serial = [planner.plan(q) for q in queries]
    results: list = [None] * len(queries)

    def work(i: int) -> None:
        results[i] = [planner.plan(queries[i]) for _ in range(3)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(queries))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for expected, got in zip(serial, results):
        for planned in got:
            assert planned.plan.explain() == expected.plan.explain()
            assert planned.chosen_units == expected.chosen_units
            assert planned.cost.total_seconds == expected.cost.total_seconds
            assert planned.candidates_tried == expected.candidates_tried


# ---------------------------------------------------------------------------
# Designer: memoized enumeration == exhaustive enumeration
# ---------------------------------------------------------------------------


def never_hit(unit, base):
    """Stand-in for ``effective_pairs`` that keys a subset by its units, so
    no two subsets share a memo entry: the exhaustive enumeration."""
    return frozenset({unit})


@pytest.mark.parametrize(
    "workload, pin", [("tpch", "tpch_adhoc_mem"), ("ssb", "ssb_service_tcp_sqlite")]
)
def test_designer_agrees_with_exhaustive_enumeration(
    workload, pin, workloads, pinned_provider, monkeypatch
):
    db, design_input, _ = workloads[workload]
    queries = [normalize_query(parse(sql)) for sql in design_input]
    real_generate = designer_mod.generate_query_plan
    calls: list = []

    def counting_generate(*args, **kwargs):
        calls.append(None)
        return real_generate(*args, **kwargs)

    monkeypatch.setattr(designer_mod, "generate_query_plan", counting_generate)

    memoized = Designer(db, pinned_provider)
    with_memo = [memoized.candidates_for(q) for q in queries]
    memo_calls = len(calls)

    exhaustive = Designer(db, pinned_provider)
    with monkeypatch.context() as patch:
        patch.setattr(candidates_mod, "effective_pairs", never_hit)
        without_memo = [exhaustive.candidates_for(q) for q in queries]
    exhaustive_calls = len(calls) - memo_calls

    def view(candidates):
        return [(c.subset, c.cost, c.item_keys) for c in candidates]

    assert [view(c) for c in with_memo] == [view(c) for c in without_memo]
    for fast, slow in zip(with_memo, without_memo):
        assert [design_key(c.design) for c in fast] == [design_key(c.design) for c in slow]
    assert memo_calls < exhaustive_calls
    # Both designers hold their candidates now; the ILP sees the same input.
    assert (
        memoized.design_ilp(queries, 2.0).design.fingerprint()
        == exhaustive.design_ilp(queries, 2.0).design.fingerprint()
        == pinned_design(pin)
    )


def test_candidate_cache_survives_address_reuse(monkeypatch):
    """The per-query cache is keyed on the query, not ``id(query)``: a new
    AST allocated where a collected one lived must get its own candidates
    (one Designer serves freshly parsed inputs in the Fig. 8 benchmark).
    Where the allocator puts the second AST is its own business, so the
    collision is forced: any ``id()`` the designer takes returns one value."""
    monkeypatch.setattr(designer_mod, "id", lambda obj: 0, raising=False)
    db = build_sales_db(num_orders=150, seed=3)
    provider = CryptoProvider(MASTER_KEY, paillier_bits=384)
    first, second = SALES_WORKLOAD[:2]

    def view(designer, query):
        return [(c.subset, c.cost) for c in designer.candidates_for(query)]

    expected = view(Designer(db, provider), normalize_query(parse(second)))
    designer = Designer(db, provider)
    query = normalize_query(parse(first))
    assert view(designer, query) != expected
    del query
    gc.collect()
    assert view(designer, normalize_query(parse(second))) == expected
