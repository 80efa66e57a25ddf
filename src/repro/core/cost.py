"""MONOMI's cost model (§6.4): server + network + client decryption.

The planner prices a candidate split plan as::

    cost = server_exec_seconds          (engine optimizer estimate)
         + transfer_seconds             (estimated result bytes / bandwidth)
         + client_seconds               (decryption profile x result shape
                                         + residual processing)

Per-scheme decryption costs come from :class:`DecryptionProfiler`, which
times a small batch of decryptions when the client starts — exactly the
paper's "running a profiler that decrypts a small amount of data when
MONOMI is first launched".
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.common.ledger import NetworkModel
from repro.core.encdata import CryptoProvider
from repro.core.plan import ClientRelation, DecryptSpec, RemoteRelation, SplitPlan
from repro.engine.catalog import Database
from repro.engine.cost import CostEstimator, HomFileInfo, PAGE_BYTES

# Calibration: seconds per optimizer cost unit.  One cost unit is roughly a
# page fetch (8 KiB), so this corresponds to the disk model's throughput.
SECONDS_PER_COST_UNIT = PAGE_BYTES / 300_000_000.0
# Per-row client processing in the residual engine (interpreter overhead on
# top of decryption proper).
CLIENT_TUPLE_SECONDS = 2e-5


@dataclass
class DecryptionProfile:
    det_int: float
    det_text: float
    ope: float
    rnd: float
    paillier: float
    hom_multiply: float = 2e-6  # Server-side modular multiplication.

    def for_spec(self, spec: DecryptSpec) -> float:
        if spec.kind == "plain":
            return 0.0
        if spec.kind == "det":
            return self.det_int if spec.sql_type in ("int", "date", "bool") else self.det_text
        if spec.kind == "ope":
            return self.ope
        if spec.kind == "rnd":
            return self.rnd
        if spec.kind == "grp":
            elem = DecryptSpec(spec.elem_kind, spec.output_name, spec.sql_type)
            return self.for_spec(elem)
        if spec.kind == "hom":
            return self.paillier
        return self.det_int


class DecryptionProfiler:
    """Times each scheme's **batch** decryption throughput (done once).

    Costs are measured through the same column-batch APIs the executor
    uses (shared-tree OPE descent, FFX round loops, per-batch dedup), on
    cold caches — the planner prices first-touch decryption, and
    encryption warms the value and pivot caches that decryption shares.

    The profile is stored on the provider instance itself (not a registry
    keyed by ``id()``, which a garbage-collected provider's address could
    alias), and profiling is serialized by a lock: concurrent service
    sessions constructing cost models against one shared provider must
    neither profile twice nor time decryptions while another thread's
    profiling run competes for the CPU and skews the numbers.  A provider
    built with ``decryption_profile=`` is never timed: its profile is
    returned as is.  A pinned and a measured profile sit in separate
    attributes because a pickled clone keeps the first and drops the second.
    """

    _lock = threading.Lock()

    @classmethod
    def profile(cls, provider: CryptoProvider, batch: int = 24) -> DecryptionProfile:
        pinned = getattr(provider, "_decryption_profile", None)
        if pinned is not None:
            return pinned
        cached = getattr(provider, "_measured_profile", None)
        if cached is not None:
            return cached
        with cls._lock:
            cached = getattr(provider, "_measured_profile", None)
            if cached is not None:
                return cached
            profile = cls._measure(provider, batch)
            provider._measured_profile = profile
            return profile

    @classmethod
    def _measure(cls, provider: CryptoProvider, batch: int) -> DecryptionProfile:
        det_int_cts = provider.det_encrypt_batch([i * 7919 for i in range(batch)])
        det_text_cts = provider.det_encrypt_batch(
            [f"value-{i:06d}" for i in range(batch)]
        )
        ope_cts = provider.ope_encrypt_batch([i * 104729 % 100000 for i in range(batch)])
        rnd_cts = provider.rnd_encrypt_batch(list(range(batch)))
        pub = provider.paillier_public
        hom_cts = [pub.encrypt(i + 1) for i in range(max(4, batch // 4))]

        def timed_batch(fn, cts) -> float:
            # Encryption above warmed the shared value and pivot caches;
            # first-touch decryption is what the planner must price.
            provider.reset_crypto_caches()
            start = time.perf_counter()
            fn(cts)
            return (time.perf_counter() - start) / len(cts)

        def timed(fn, items) -> float:
            start = time.perf_counter()
            for item in items:
                fn(item)
            return (time.perf_counter() - start) / len(items)

        start = time.perf_counter()
        acc = hom_cts[0]
        for _ in range(64):
            for c in hom_cts:
                acc = pub.add(acc, c)
        hom_mul = (time.perf_counter() - start) / (64 * len(hom_cts))

        return DecryptionProfile(
            det_int=timed_batch(
                lambda cts: provider.det_decrypt_batch(cts, "int"), det_int_cts
            ),
            det_text=timed_batch(
                lambda cts: provider.det_decrypt_batch(cts, "text"), det_text_cts
            ),
            ope=timed_batch(
                lambda cts: provider.ope_decrypt_batch(cts, "int"), ope_cts
            ),
            rnd=timed_batch(provider.rnd_decrypt_batch, rnd_cts),
            paillier=timed(provider.paillier_private.decrypt, hom_cts),
            hom_multiply=hom_mul,
        )


@dataclass
class CostBreakdown:
    server_seconds: float = 0.0
    transfer_seconds: float = 0.0
    client_seconds: float = 0.0
    transfer_bytes: float = 0.0

    @property
    def total_seconds(self) -> float:
        return self.server_seconds + self.transfer_seconds + self.client_seconds

    def add(self, other: "CostBreakdown") -> None:
        self.server_seconds += other.server_seconds
        self.transfer_seconds += other.transfer_seconds
        self.client_seconds += other.client_seconds
        self.transfer_bytes += other.transfer_bytes


class MonomiCostModel:
    """Prices split plans against a (possibly hypothetical) physical design.

    ``table_bytes`` / ``hom_info`` overrides let the designer price plans
    for candidate designs that are not loaded anywhere; at runtime the
    loaded server database supplies real sizes.
    """

    def __init__(
        self,
        stats_db: Database,
        provider: CryptoProvider,
        network: NetworkModel | None = None,
        table_bytes: dict[str, float] | None = None,
        hom_info: dict[str, HomFileInfo] | None = None,
    ) -> None:
        self.network = network or NetworkModel()
        self.profile = DecryptionProfiler.profile(provider)
        self.estimator = CostEstimator(
            stats_db,
            table_bytes_override=table_bytes,
            hom_info_override=hom_info,
            modmul_cost=self.profile.hom_multiply / SECONDS_PER_COST_UNIT,
        )

    # -- public ----------------------------------------------------------------

    def plan_cost(self, plan: SplitPlan) -> CostBreakdown:
        breakdown = CostBreakdown()
        for subplan in plan.subplans:
            breakdown.add(self.plan_cost(subplan.plan))
        for relation in plan.relations:
            if isinstance(relation, RemoteRelation):
                breakdown.add(self._remote_cost(relation))
            elif isinstance(relation, ClientRelation):
                breakdown.add(self.plan_cost(relation.plan))
        return breakdown

    # -- internals ------------------------------------------------------------------

    def _remote_cost(self, relation: RemoteRelation) -> CostBreakdown:
        estimate = self.estimator.estimate(
            relation.query, selectivity_override=relation.plain_selectivity
        )
        out = CostBreakdown()
        out.server_seconds = estimate.cost_units * SECONDS_PER_COST_UNIT
        result_bytes = estimate.result_bytes
        out.transfer_bytes = result_bytes
        out.transfer_seconds = self.network.transfer_seconds(int(result_bytes))
        out.client_seconds = self._decrypt_cost(relation, estimate)
        return out

    def _decrypt_cost(self, relation: RemoteRelation, estimate) -> float:
        from repro.engine.cost import estimate_hom_ciphertexts

        rows = estimate.rows
        group_size = estimate.group_size
        per_row = 0.0
        unnest_factor = group_size if relation.unnest else 1.0
        for spec in relation.specs:
            unit = self.profile.for_spec(spec)
            if spec.kind == "grp":
                # Per-element decryption plus interpreter dispatch.
                per_row += (unit + 5e-6) * group_size
            elif spec.kind == "hom":
                # One Paillier decryption per shipped ciphertext: the group
                # product plus every partially covered packed ciphertext.
                info = self.estimator.hom_info_override.get(spec.hom_file)
                if info is None:
                    try:
                        file = self.estimator.db.ciphertext_store.get(spec.hom_file)
                        rows_per_ct = file.rows_per_ciphertext
                    except Exception:
                        rows_per_ct = 1
                else:
                    rows_per_ct = info.rows_per_ciphertext
                per_row += unit * estimate_hom_ciphertexts(
                    rows_per_ct, group_size, rows, estimate.selectivity
                )
            else:
                per_row += unit
        residual = rows * unnest_factor * CLIENT_TUPLE_SECONDS
        return rows * per_row + residual
