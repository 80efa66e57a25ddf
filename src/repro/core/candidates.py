"""Candidate design construction shared by the designer and the planner.

A *candidate design* = base fetch copies + a chosen subset of EncSet units.
The base guarantees every column stays client-decryptable; units add the
operational schemes (DET equality, OPE order, HOM groups, SEARCH tags).
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Iterable, Iterator, TypeVar

from repro.core.design import EncEntry, HomGroup, PhysicalDesign, TechniqueFlags
from repro.core.encset import Pair, Unit
from repro.core.schemes import Scheme
from repro.engine.catalog import Database
from repro.sql import ast

COLUMNAR_ROWS_PER_CT = 64
MAX_POWERSET_UNITS = 10

Priced = TypeVar("Priced")


def base_design_for_plain(plain_db: Database) -> PhysicalDesign:
    """Design-time base: the DET fallback copy of every base column (§7's
    "at most deterministic encryption"; floats use RND, which FFX cannot
    carry)."""
    design = PhysicalDesign()
    for name, table in plain_db.tables.items():
        for column in table.schema.columns:
            scheme = Scheme.RND if column.type == "float" else Scheme.DET
            design.add(name, ast.Column(column.name), scheme)
    return design


def base_design_for_loaded(design: PhysicalDesign) -> PhysicalDesign:
    """Runtime base: one preferred fetch copy per stored (table, expr).

    Preference RND > DET > OPE: the planner always *may* fetch a value, and
    enumerated units decide which operational schemes it *uses*.
    """
    base = PhysicalDesign()
    by_value: dict[tuple[str, str], set[Scheme]] = {}
    for entry in design.entries:
        by_value.setdefault((entry.table, entry.expr_sql), set()).add(entry.scheme)
    for (table, expr_sql), schemes in by_value.items():
        for scheme in (Scheme.DET, Scheme.RND, Scheme.OPE):
            if scheme in schemes:
                base.entries.add(EncEntry(table, expr_sql, scheme))
                break
    return base


def _loaded_group_for(design: PhysicalDesign, pair: Pair):
    """Find a loaded group matching the pair's packing variant."""
    want_columnar = (pair.variant or "row") == "col"
    for group in design.hom_groups:
        if group.table != pair.table or not group.covers(pair.expr_sql):
            continue
        if (group.rows_per_ciphertext > 1) == want_columnar:
            return group
    return None


def pair_available(pair: Pair, design: PhysicalDesign) -> bool:
    if pair.scheme is Scheme.HOM:
        return _loaded_group_for(design, pair) is not None
    return design.has(pair.table, pair.expr_sql, pair.scheme)


def usable_units(units: Iterable[Unit], design: PhysicalDesign) -> list[Unit]:
    return [u for u in units if all(pair_available(p, design) for p in u.pairs)]


def hom_groups_for_pairs(
    pairs: Iterable[Pair], flags: TechniqueFlags
) -> list[HomGroup]:
    """Materialize HOM pairs into candidate packed groups.

    With ``col_packing`` all of a table's aggregated expressions pack into
    one group (§5.3: all columns aggregated by a query share one
    ciphertext); without it each expression gets its own group (the
    CryptDB-style one-value-per-ciphertext layout).  The ``col`` variant
    additionally packs many rows per ciphertext (§5.2); ``row`` keeps one
    row per ciphertext so any GROUP BY folds into per-group products.
    """
    by_key: dict[tuple[str, str], set[str]] = {}
    for pair in pairs:
        if pair.scheme is Scheme.HOM:
            variant = pair.variant or "row"
            by_key.setdefault((pair.table, variant), set()).add(pair.expr_sql)
    groups: list[HomGroup] = []
    for (table, variant), exprs in sorted(by_key.items()):
        rows_per_ct = COLUMNAR_ROWS_PER_CT if variant == "col" else 1
        if flags.col_packing:
            groups.append(HomGroup(table, tuple(sorted(exprs)), rows_per_ct))
        else:
            groups.extend(
                HomGroup(table, (expr,), rows_per_ct) for expr in sorted(exprs)
            )
    return groups


def build_candidate(
    base: PhysicalDesign,
    chosen_units: Iterable[Unit],
    flags: TechniqueFlags,
    loaded: PhysicalDesign | None = None,
) -> PhysicalDesign:
    """Base + chosen units.  With ``loaded`` (runtime), HOM pairs map to the
    groups that actually exist on the server; otherwise (design time) new
    groups are synthesized per the technique flags."""
    candidate = base.copy()
    pairs: list[Pair] = sorted(
        {p for unit in chosen_units for p in unit.pairs}, key=repr
    )
    for pair in pairs:
        if pair.scheme is Scheme.HOM:
            continue
        candidate.entries.add(EncEntry(pair.table, pair.expr_sql, pair.scheme))
    if loaded is not None:
        for pair in pairs:
            if pair.scheme is Scheme.HOM:
                group = _loaded_group_for(loaded, pair)
                if group is not None:
                    candidate.add_hom_group(group)
    else:
        for group in hom_groups_for_pairs(pairs, flags):
            candidate.add_hom_group(group)
    return candidate


def conflicting_hom_variants(subset: tuple[Unit, ...]) -> bool:
    """True when a subset picks both packing variants of the same value —
    they are alternatives; materializing both wastes space for no plan
    benefit."""
    seen: dict[tuple[str, str], str] = {}
    for unit in subset:
        for pair in unit.pairs:
            if pair.scheme is not Scheme.HOM:
                continue
            key = (pair.table, pair.expr_sql)
            variant = pair.variant or "row"
            if seen.setdefault(key, variant) != variant:
                return True
    return False


def unit_subsets(units: list[Unit]) -> Iterator[tuple[Unit, ...]]:
    """All subsets of the units (the paper's PowSet), capped for sanity.

    Beyond :data:`MAX_POWERSET_UNITS` units, the tail (rarest) units are
    always included — pruning keeps the enumeration tractable exactly as
    §6.3 intends.
    """
    if len(units) <= MAX_POWERSET_UNITS:
        head, tail = units, ()
    else:
        head = units[:MAX_POWERSET_UNITS]
        # Forced-in tail must not carry conflicting packing variants (they
        # would poison every subset); keep the per-row variant.
        tail_list = []
        for unit in units[MAX_POWERSET_UNITS:]:
            candidate_tail = tuple(tail_list) + (unit,)
            if not conflicting_hom_variants(candidate_tail):
                tail_list.append(unit)
        tail = tuple(tail_list)
    for r in range(len(head) + 1):
        for combo in combinations(head, r):
            yield tuple(combo) + tail


def effective_pairs(unit: Unit, base: PhysicalDesign) -> frozenset[Pair]:
    """The unit's pairs that change a candidate built on ``base``: its HOM
    pairs plus the non-HOM pairs whose entry the base does not already
    hold.  The base carries a DET copy of nearly every column (§7), so a
    DET-on-a-base-column unit usually contributes nothing."""
    return frozenset(
        pair
        for pair in unit.pairs
        if pair.scheme is Scheme.HOM
        or EncEntry(pair.table, pair.expr_sql, pair.scheme) not in base.entries
    )


def priced_candidates(
    units: list[Unit],
    base: PhysicalDesign,
    flags: TechniqueFlags,
    price: Callable[[PhysicalDesign], Priced],
    loaded: PhysicalDesign | None = None,
) -> Iterator[tuple[tuple[Unit, ...], PhysicalDesign, Priced]]:
    """The §6.2 search: every subset :func:`unit_subsets` enumerates (minus
    those mixing packing variants of one value), with its candidate design
    and ``price(candidate)`` — computed once per *distinct* candidate.

    :func:`build_candidate` sorts the pair set, so the union of a subset's
    effective pairs determines its candidate exactly (entries and
    hom-group order); later subsets with the same union reuse the first
    one's design and price.  The memo lives for this one search.
    """
    effective = {unit: effective_pairs(unit, base) for unit in units}
    memo: dict[frozenset[Pair], tuple[PhysicalDesign, Priced]] = {}
    for subset in unit_subsets(units):
        if conflicting_hom_variants(subset):
            continue  # Per-row and columnar are alternatives, not a pair.
        key = frozenset().union(*(effective[unit] for unit in subset))
        hit = memo.get(key)
        if hit is None:
            candidate = build_candidate(base, subset, flags, loaded)
            hit = memo[key] = (candidate, price(candidate))
        yield subset, *hit
