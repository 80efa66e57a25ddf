"""Prepared statements: plan once, re-encrypt only the parameter literals.

``MonomiService.prepare(sql)`` returns a :class:`PreparedStatement` handle
for a query template carrying ``:name`` parameters.  The first
``execute(handle, params)`` pays for full planning; later executions with
different parameter values reuse the cached plan and merely *re-bind* it:

* **Fast re-bind** — DET and OPE are deterministic encryptions, so the
  ciphertext a parameter's first value produced is reproducible.  When
  every parameter value can be located unambiguously in the planned query
  (see :func:`substitution_safety`), re-binding replaces each old literal
  — plaintext on the residual side, DET/OPE ciphertext on the server side
  — with the newly encrypted value, leaving plan shape, decrypt specs,
  and unit choice untouched.  Only the parameter literals are
  re-encrypted; the designer and planner never re-run.
* **Template re-plan** — when substitution would be ambiguous (a
  parameter value collides with another literal, got constant-folded
  away, feeds a LIKE pattern, or changed Python type) or the new value
  fails to encrypt under a cached scheme (OPE domain), the service falls
  back to :meth:`Planner.plan_with_units
  <repro.core.planner.Planner.plan_with_units>`: Algorithm 1 re-runs
  under the unit subset the first execution already chose, skipping the
  power-set enumeration that dominates planning time.

Either way the cached plan's *choice* is reused; the fallback only exists
so the fast path never has to guess.  Note the one semantic caveat of any
prepared-statement API: the cached plan was costed against the first
execution's literals, so a parameter value with wildly different
selectivity keeps the same split shape even if a fresh optimizer run
would have picked another — correctness is unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.common.errors import CryptoError, DomainError, ExecutionError
from repro.core.encdata import CryptoProvider
from repro.core.plan import ClientRelation, RemoteRelation, SplitPlan, SubPlan
from repro.core.planner import PlannedQuery
from repro.sql import ast


class RebindError(Exception):
    """Fast re-bind is not possible for these parameter values."""


@dataclass(frozen=True)
class PreparedStatement:
    """Opaque handle returned by ``MonomiService.prepare``."""

    statement_id: int
    sql: str
    template: ast.Select
    param_names: tuple[str, ...]


@dataclass
class PreparedPlan:
    """Per-statement cached planning state (anchored, never chained).

    ``planned`` and ``param_values`` are the *first* execution's plan and
    values; every re-bind substitutes from this anchor rather than from
    the previous substitution, so repeated re-binding cannot drift.
    """

    planned: PlannedQuery
    param_values: dict[str, object]
    substitutable: bool


# ---------------------------------------------------------------------------
# Template analysis
# ---------------------------------------------------------------------------


def _iter_query_exprs(query: ast.Select):
    """Every top-level expression slot of ``query`` and its FROM/expr
    subqueries, recursively."""
    collected: list[ast.Expr] = []

    def grab(expr: ast.Expr) -> ast.Expr:
        collected.append(expr)
        return expr

    query.map_expressions(grab)
    for expr in collected:
        yield expr
        for sub in ast.find_subqueries(expr):
            yield from _iter_query_exprs(sub)
    for ref in query.from_items:
        yield from _iter_ref_exprs(ref)


def _iter_ref_exprs(ref: ast.TableRef):
    if isinstance(ref, ast.SubqueryRef):
        yield from _iter_query_exprs(ref.query)
    elif isinstance(ref, ast.Join):
        if ref.condition is not None:
            yield ref.condition
            for sub in ast.find_subqueries(ref.condition):
                yield from _iter_query_exprs(sub)
        yield from _iter_ref_exprs(ref.left)
        yield from _iter_ref_exprs(ref.right)


def _iter_nodes(query: ast.Select):
    """Every expression *node* in the query, recursing into subqueries."""
    for expr in _iter_query_exprs(query):
        yield from expr.walk()


def param_sites(template: ast.Select) -> dict[str, int]:
    """Parameter name → number of syntactic ``:name`` sites."""
    sites: dict[str, int] = {}
    for node in _iter_nodes(template):
        if isinstance(node, ast.Param):
            sites[node.name] = sites.get(node.name, 0) + 1
    return sites


def _like_pattern_params(template: ast.Select) -> frozenset[str]:
    """Parameters used as LIKE patterns (their server form is an SWP
    trapdoor, not a DET/OPE ciphertext — excluded from fast re-bind)."""
    names = set()
    for node in _iter_nodes(template):
        if isinstance(node, ast.Like) and isinstance(node.pattern, ast.Param):
            names.add(node.pattern.name)
    return frozenset(names)


def _typed(value: object) -> tuple[type, object]:
    """Type-tagged comparison key: 1, 1.0, and True must not alias."""
    return (type(value), value)


def substitution_safety(
    template: ast.Select,
    normalized: ast.Select,
    params: dict[str, object],
) -> bool:
    """Can each parameter's literal be located unambiguously?

    True iff, for every parameter ``p`` bound to value ``v``: the
    normalized bound query contains the literal ``v`` (type-strict)
    exactly as many times as the template has ``:p`` sites, no two
    parameters share a value, no parameter feeds a LIKE pattern, and the
    value is hashable.  Constant folding that consumed the parameter
    (``DATE :p - INTERVAL ...``) reduces the literal count below the site
    count, so it fails this check — by design.
    """
    sites = param_sites(template)
    if set(sites) != set(params):
        return False
    like_params = _like_pattern_params(template)
    literal_counts: dict[tuple[type, object], int] = {}
    for node in _iter_nodes(normalized):
        if isinstance(node, ast.Literal):
            try:
                key = _typed(node.value)
                literal_counts[key] = literal_counts.get(key, 0) + 1
            except TypeError:
                continue
    seen_values: set[tuple[type, object]] = set()
    for name, value in params.items():
        if name in like_params or isinstance(value, bool) or value is None:
            return False
        try:
            key = _typed(value)
        except TypeError:
            return False
        if key in seen_values:
            return False
        seen_values.add(key)
        if literal_counts.get(key, 0) != sites[name]:
            return False
    return True


# ---------------------------------------------------------------------------
# Re-binding
# ---------------------------------------------------------------------------


def _encryptions_of(provider: CryptoProvider, value: object) -> dict[str, object]:
    """The deterministic ciphertexts ``value`` can appear as server-side."""
    out: dict[str, object] = {}
    for kind in ("det", "ope"):
        try:
            out[kind] = provider.encrypt(value, kind)
        except (CryptoError, DomainError):
            continue
    return out


def build_substitutions(
    provider: CryptoProvider,
    old_params: dict[str, object],
    new_params: dict[str, object],
) -> dict[tuple[type, object], object]:
    """Old-literal → new-literal map, plaintext and ciphertext forms.

    Raises :class:`RebindError` when a new value changes type or cannot
    be encrypted under a scheme its predecessor used (e.g. out of the OPE
    domain) — the caller falls back to a template re-plan.
    """
    if set(old_params) != set(new_params):
        raise RebindError(
            f"parameter names changed: {sorted(old_params)} -> "
            f"{sorted(new_params)}"
        )
    subs: dict[tuple[type, object], object] = {}
    for name, old in old_params.items():
        new = new_params[name]
        if type(new) is not type(old):
            raise RebindError(
                f"parameter :{name} changed type "
                f"{type(old).__name__} -> {type(new).__name__}"
            )
        subs[_typed(old)] = new
        old_enc = _encryptions_of(provider, old)
        new_enc = _encryptions_of(provider, new)
        for kind, old_ct in old_enc.items():
            if kind not in new_enc:
                raise RebindError(
                    f"parameter :{name} value {new!r} does not encrypt "
                    f"under {kind}"
                )
            subs[_typed(old_ct)] = new_enc[kind]
    return subs


def _substitute_expr(expr: ast.Expr, subs: dict) -> ast.Expr:
    def repl(node: ast.Expr) -> ast.Expr:
        if isinstance(node, ast.Literal):
            try:
                key = _typed(node.value)
            except TypeError:
                return node
            if key in subs:
                return ast.Literal(subs[key])
        elif isinstance(node, ast.ScalarSubquery):
            return ast.ScalarSubquery(_substitute_select(node.query, subs))
        elif isinstance(node, ast.InSubquery):
            return ast.InSubquery(
                node.needle, _substitute_select(node.query, subs), node.negated
            )
        elif isinstance(node, ast.Exists):
            return ast.Exists(_substitute_select(node.query, subs), node.negated)
        return node

    return ast.transform(expr, repl)


def _substitute_ref(ref: ast.TableRef, subs: dict) -> ast.TableRef:
    if isinstance(ref, ast.SubqueryRef):
        return ast.SubqueryRef(_substitute_select(ref.query, subs), ref.alias)
    if isinstance(ref, ast.Join):
        condition = ref.condition
        if condition is not None:
            condition = _substitute_expr(condition, subs)
        return ast.Join(
            _substitute_ref(ref.left, subs),
            _substitute_ref(ref.right, subs),
            ref.kind,
            condition,
        )
    return ref


def _substitute_select(query: ast.Select, subs: dict) -> ast.Select:
    rebuilt = query.map_expressions(lambda e: _substitute_expr(e, subs))
    return replace(
        rebuilt,
        from_items=tuple(_substitute_ref(r, subs) for r in rebuilt.from_items),
    )


def _substitute_plan(plan: SplitPlan, subs: dict) -> SplitPlan:
    relations = []
    for relation in plan.relations:
        if isinstance(relation, RemoteRelation):
            relations.append(
                RemoteRelation(
                    relation.alias,
                    _substitute_select(relation.query, subs),
                    relation.specs,
                    relation.unnest,
                    relation.plain_selectivity,
                )
            )
        elif isinstance(relation, ClientRelation):
            relations.append(
                ClientRelation(
                    relation.alias,
                    _substitute_plan(relation.plan, subs),
                    relation.column_names,
                )
            )
        else:
            raise ExecutionError(f"unknown relation {relation!r}")
    residual = plan.residual
    if residual is not None:
        residual = _substitute_select(residual, subs)
    subplans = [
        SubPlan(_substitute_plan(s.plan, subs), s.mode, s.param_name)
        for s in plan.subplans
    ]
    return SplitPlan(relations, residual, subplans)


def rebind_plan(
    entry: PreparedPlan,
    provider: CryptoProvider,
    new_params: dict[str, object],
) -> PlannedQuery:
    """Re-bind the anchored plan to ``new_params`` (fast path).

    Raises :class:`RebindError` when the entry is not substitutable or
    the new values cannot take the old values' places.
    """
    if not entry.substitutable:
        raise RebindError("statement is not literal-substitutable")
    subs = build_substitutions(provider, entry.param_values, new_params)
    anchored = entry.planned
    plan = _substitute_plan(anchored.plan, subs)
    # The cost breakdown was priced for the anchor's literals; the shape
    # (and therefore the breakdown's structure) is identical, so it is
    # carried over as the best available estimate, with the anchor's
    # search counts.
    return replace(anchored, plan=plan)
