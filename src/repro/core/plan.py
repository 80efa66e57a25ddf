"""Split query plan representation (Figure 3 in structured form).

A :class:`SplitPlan` is what MONOMI's planner hands the client library:

* ``relations`` — inputs the trusted client materializes first.  A
  :class:`RemoteRelation` is a ``RemoteSQL`` node: an encrypted query the
  untrusted server runs, plus :class:`DecryptSpec` entries describing how
  the client decrypts each output column into named *virtual columns*
  (named by the plaintext expression they carry, e.g.
  ``ps_supplycost * ps_availqty``).  A :class:`ClientRelation` is a nested
  split plan whose result feeds the outer query (FROM-subqueries).
* ``residual`` — the client-side remainder of the query (LocalFilter /
  LocalGroupBy / LocalGroupFilter / LocalSort / LocalProjection in the
  paper's Figure 3), expressed as one SELECT over the virtual columns and
  executed by the same relational engine on the trusted side.
* ``subplans`` — scalar or IN-set subqueries executed in a separate round
  trip; their results bind into the residual (plaintext scalar) or back
  into the server query (DET-encrypted IN set), reproducing the paper's
  "intermediate results sent between the client and the server several
  times" plans.

``unnest`` on a RemoteRelation marks GROUP()-mode results: the server
grouped and shipped whole groups' values via the ``grp()`` UDF, and the
client re-aggregates them exactly (the LocalGroupBy path), while
homomorphic or plain aggregates ride along as per-group scalars.  The
client never explodes the lists back into rows: each decrypted list is a
``list`` column of the staged relation, which the engine's aggregation
folds element by element.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sql import ast, to_sql


@dataclass(frozen=True)
class DecryptSpec:
    """How to turn one server output column into virtual column(s).

    kind:
      * ``det`` / ``ope`` / ``rnd`` — decrypt with that scheme into
        ``output_name`` (``sql_type`` guides typed decryption);
      * ``plain`` — server-visible value (counts, row ids): no decryption;
      * ``hom``   — a packed Paillier aggregate: decrypt once, emit one
        virtual column per packed expression (``hom_output_names``), each
        divided out of the packed slot sums;
      * ``grp``   — a grp() list: decrypt each element with ``elem_kind``;
        list-valued (a ``list`` column of the staged relation).
    """

    kind: str
    output_name: str
    sql_type: str = "int"
    elem_kind: str = "det"
    hom_file: str = ""
    hom_output_names: tuple[str, ...] = ()
    hom_expr_sqls: tuple[str, ...] = ()

    @property
    def output_names(self) -> tuple[str, ...]:
        if self.kind == "hom":
            return self.hom_output_names
        return (self.output_name,)


@dataclass
class RemoteRelation:
    """One RemoteSQL operator: encrypted query + decryption recipe.

    ``plain_selectivity`` is the trusted client's estimate of the pushed
    WHERE's selectivity, computed over *plaintext* statistics — the server
    optimizer cannot interpolate ranges over OPE ciphertexts.
    """

    alias: str
    query: ast.Select
    specs: list[DecryptSpec]
    unnest: bool = False
    plain_selectivity: float | None = None

    def sql(self) -> str:
        return to_sql(self.query)


@dataclass
class ClientRelation:
    """A nested split plan materialized on the client (FROM-subquery)."""

    alias: str
    plan: "SplitPlan"
    column_names: tuple[str, ...] = ()


@dataclass
class SubPlan:
    """A subquery executed in its own round trip.

    ``mode``:
      * ``scalar_residual`` — bind the (plaintext) scalar into the residual
        query as parameter ``:param_name``;
      * ``in_set_server``   — DET-encrypt the result column and bind the set
        into the server query as ``:param_name`` (consumed by ``in_set``).
    """

    plan: "SplitPlan"
    mode: str
    param_name: str


@dataclass
class SplitPlan:
    relations: list = field(default_factory=list)
    residual: ast.Select | None = None
    subplans: list[SubPlan] = field(default_factory=list)

    # -- introspection used by tests and the EXPLAIN-style display -------------

    def remote_relations(self) -> list[RemoteRelation]:
        out = [r for r in self.relations if isinstance(r, RemoteRelation)]
        for relation in self.relations:
            if isinstance(relation, ClientRelation):
                out.extend(relation.plan.remote_relations())
        for subplan in self.subplans:
            out.extend(subplan.plan.remote_relations())
        return out

    def is_fully_remote(self) -> bool:
        """True when the residual does no real work beyond projection of the
        server's outputs (everything was pushed)."""
        if self.subplans or len(self.relations) != 1:
            return False
        relation = self.relations[0]
        if not isinstance(relation, RemoteRelation) or relation.unnest:
            return False
        residual = self.residual
        if residual is None:
            return True
        return (
            residual.where is None
            and not residual.group_by
            and residual.having is None
        )

    def explain(self, indent: int = 0) -> str:
        pad = "  " * indent
        lines: list[str] = []
        if self.residual is not None:
            lines.append(f"{pad}Residual: {to_sql(self.residual)}")
        for relation in self.relations:
            if isinstance(relation, RemoteRelation):
                mode = " [unnest]" if relation.unnest else ""
                lines.append(f"{pad}RemoteSQL {relation.alias}{mode}: {relation.sql()}")
            else:
                lines.append(f"{pad}ClientRelation {relation.alias}:")
                lines.append(relation.plan.explain(indent + 1))
        for subplan in self.subplans:
            lines.append(f"{pad}SubPlan :{subplan.param_name} ({subplan.mode}):")
            lines.append(subplan.plan.explain(indent + 1))
        return "\n".join(lines)
