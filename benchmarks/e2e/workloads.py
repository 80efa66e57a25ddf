"""The four fixed workloads, each built to put one set of layers in front.

All run one closed-loop client over 512-bit Paillier with the pinned
decryption profile, and drive the program only through its public entry
points (``MonomiClient.setup/connect/execute/execute_iter/service``,
``MonomiService``, ``MonomiServer``, ``MaintainedAggregates``).  When a
run is traced, :func:`tracing.make_trace_view` proxies go wherever the
program takes ``backend=``.

``--seed`` draws the sales databases and the DML stream.  The TPC-H and
SSB databases are the generators' fixed datasets: at scale 0.001 a
reseeded database changes which rows the selective queries match, and
with them the design, the plans and the bytes moved, which would measure
the dataset and not the program.  The order of a round is fixed as well,
because the planner carries state from one statement to the next.

Sizes are set by the driver's time limit (92 runs in 57 minutes), not by
taste: a run may take about 25 s on this box including its set-up, so
TPC-H runs 9 of its 19 supported queries and the sales tables hold 4,000
to 6,000 orders.  README.md lists what was cut and why.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
import time
from typing import Iterator

from harness import Op, Outcome

HERE = pathlib.Path(__file__).resolve().parent
PINS = HERE / "pins"
DEFAULT_SEED = 1
PAILLIER_BITS = 512

_perf = time.perf_counter


def pinned_provider():
    """A provider whose launch-time decryption profile is the committed one.

    The profile is a timing measurement that steers designer and planner;
    left live, two runs on this box pick different designs and plans.  The
    pin sets the attribute ``DecryptionProfiler.profile()`` reads — the
    benchmark's one reach past the public surface, until ``src/`` grows a
    ``decryption_profile=`` argument.
    """
    from repro.core import CryptoProvider
    from repro.core.cost import DecryptionProfile
    from repro.testkit import MASTER_KEY

    provider = CryptoProvider(MASTER_KEY, paillier_bits=PAILLIER_BITS)
    constants = json.loads((PINS / "decryption_profile.json").read_text())
    provider._decryption_profile = DecryptionProfile(**constants)
    return provider


def rows_digest(rows) -> str:
    """Order-insensitive digest of a result (floats rounded as the
    differential tests round them)."""
    from repro.testkit import canonical

    return hashlib.sha256("\n".join(canonical(rows)).encode()).hexdigest()[:16]


class BenchWorkload:
    """Set-up plumbing the four workloads share.

    ``prepare`` builds the inputs from the seed (untimed), ``setup`` is the
    timed design + encrypt + load + connect, ``teardown`` undoes it so the
    set-up can be repeated, ``round`` yields the statement mix.
    """

    name = ""
    why = ""
    setup_repeats = 1
    warm_rounds = 2
    timed_rounds = 9
    seeded = True  # False where the inputs are a generator's fixed dataset
    threads = 1  # client threads serving the one session
    connections = 0  # sockets the client holds open

    def __init__(self, seed: int, tracer=None) -> None:
        self.seed = seed
        self.tracer = tracer
        self.provider = None
        self.client = None
        self.plain_ms: dict[str, float] = {}  # class -> plaintext engine time

    def view(self, backend, role: str):
        if self.tracer is None:
            return backend
        from tracing import make_trace_view

        return make_trace_view(self.tracer, backend, role)

    def prepare(self) -> None:
        self.provider = pinned_provider()

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None

    def round(self, index: int) -> Iterator[Op]:
        raise NotImplementedError

    def facts(self) -> dict:
        return {
            "space_overhead_x": self.client.space_overhead(),
            "design": self.client.design.fingerprint(),
        }

    def counters(self) -> dict[str, float]:
        """Cumulative cache and service counters; the traced pass reports
        their change over the timed rounds."""
        stats = self.provider.cache_stats()
        pivots = [v for k, v in stats.items() if k.startswith("ope_pivots")]
        ope = [stats["ope_encrypt"], stats["ope_decrypt"]]
        return {
            "det_hits": stats["det_encrypt"].hits,
            "det_lookups": stats["det_encrypt"].hits + stats["det_encrypt"].misses,
            "ope_hits": sum(s.hits for s in ope),
            "ope_lookups": sum(s.hits + s.misses for s in ope),
            "pivot_hits": sum(s.hits for s in pivots),
            "pivot_lookups": sum(s.hits + s.misses for s in pivots),
        }


def _plain_rows(db, sql: str):
    from repro.core import normalize_query
    from repro.engine import Executor
    from repro.sql import parse

    return Executor(db).execute(normalize_query(parse(sql))).rows


class ReadWorkload(BenchWorkload):
    """A fixed mix of SELECTs.  Warm-up rounds verify every result against
    the plaintext engine on the mirror database and remember a digest per
    class; timed rounds compare against the digest."""

    def __init__(self, seed: int, tracer=None) -> None:
        super().__init__(seed, tracer)
        self.db = None
        self.statements: list[tuple[str, str]] = []  # (class, sql)
        self.digests: dict[str, object] = {}

    def execute(self, sql: str):
        return self.client.execute(sql)

    def run(self, sql: str) -> Outcome:
        outcome = self.execute(sql)
        planned = outcome.planned
        return Outcome(
            result=outcome.rows,
            transfer_bytes=outcome.ledger.transfer_bytes,
            round_trips=outcome.ledger.round_trips,
            plan=planned.plan.explain if planned is not None else None,
        )

    def judge(self, cls: str, sql: str, digest, rows, warm: bool) -> str | None:
        """Timed rounds: ``digest`` must be the one warm-up remembered.
        Warm-up: ``rows`` must be what the plaintext engine returns, and
        then ``digest`` is remembered."""
        if not warm:
            return None if digest == self.digests.get(cls) else "wrong"
        start = _perf()
        expected = _plain_rows(self.db, sql)
        self.plain_ms[cls] = (_perf() - start) * 1000.0
        if rows_digest(rows) != rows_digest(expected):
            return "wrong"
        self.digests[cls] = digest
        return None

    def round(self, index: int) -> Iterator[Op]:
        for cls, sql in self.statements:
            yield Op(
                cls,
                run=lambda sql=sql: self.run(sql),
                check=lambda outcome, warm, cls=cls, sql=sql: self.judge(
                    cls, sql, rows_digest(outcome.result), outcome.result, warm
                ),
            )


class TpchAdhocMem(ReadWorkload):
    name = "tpch_adhoc_mem"
    why = (
        "The paper's headline suite planned ad hoc on the in-memory backend: "
        "the planner's power-set search is most of a statement, Q1/Q9 add "
        "server scans and bulk decryption."
    )
    # Nine of the 19 supported queries: the full suite takes 20-37 s to
    # design and 4 s per round on this box.  Kept: the hom-heavy scans
    # (Q1, Q9), the planner-heavy joins (Q3 128, Q7 256, Q9 128, Q1 192
    # candidates) and the cheap selective ones (Q4, Q6, Q14, Q19, Q22).
    QUERIES = (1, 3, 4, 6, 7, 9, 14, 19, 22)
    SCALE = 0.001
    timed_rounds = 13
    seeded = False

    def prepare(self) -> None:
        from repro.tpch import generate, tpch_queries

        super().prepare()
        self.db = generate(scale=self.SCALE)
        queries = tpch_queries(self.SCALE)
        self.statements = [(f"q{n}", queries[n].sql) for n in self.QUERIES]

    def setup(self) -> None:
        from repro.core import MonomiClient
        from repro.server import make_backend
        from repro.testkit import MASTER_KEY

        self.client = MonomiClient.setup(
            self.db,
            [sql for _, sql in self.statements],
            master_key=MASTER_KEY,
            provider=self.provider,
            backend=self.view(make_backend("memory", name="tpch_enc"), "seam"),
        )


class SsbServiceTcpSqlite(ReadWorkload):
    name = "ssb_service_tcp_sqlite"
    why = (
        "Plan-cache hits through one service session over TCP to SQLite take "
        "the planner away: what is left is parse/normalize, dispatch, wire "
        "framing, SQLite UDFs and small decrypts."
    )
    timed_rounds = 40
    seeded = False
    connections = 2  # the client's own and its one service worker's
    # The designer sees one query per flight.  The design is the one all 13
    # give (same fingerprint), as the paper's Fig. 8 says it would be, but
    # the 13-query ILP is a dense 4,800-column problem: 620 MB and 13 s, of
    # which the memory-bound solver slows by another factor than the
    # reference kernel when the box is busy.
    DESIGN_INPUT = ("q1.1", "q2.1", "q3.1", "q4.1")

    def __init__(self, seed: int, tracer=None) -> None:
        super().__init__(seed, tracer)
        self.server = self.service = self.session = self.loaded = None

    def prepare(self) -> None:
        from repro.ssb import generate, ssb_queries

        super().prepare()
        self.db = generate(scale=0.001)
        self.statements = [(f"q{key}", q.sql) for key, q in ssb_queries().items()]

    def setup(self) -> None:
        from repro.core import MonomiClient
        from repro.net import MonomiServer
        from repro.server import make_backend
        from repro.testkit import MASTER_KEY

        self.loaded = MonomiClient.setup(
            self.db,
            [sql for cls, sql in self.statements if cls in self.DESIGN_INPUT],
            master_key=MASTER_KEY,
            provider=self.provider,
            backend=self.view(make_backend("sqlite", name="ssb_enc"), "hosted"),
        )
        self.server = MonomiServer(self.loaded.backend)
        self.server.start()
        self.client = MonomiClient.connect(
            self.server.address,
            self.db,
            design=self.loaded.design,
            provider=self.provider,
        )
        self.service = self.client.service(workers=self.threads)
        self.session = self.service.open_session()

    def teardown(self) -> None:
        if self.service is not None:
            self.service.close()
        super().teardown()
        if self.server is not None:
            self.server.close()
        if self.loaded is not None:
            self.loaded.close()
        self.server = self.service = self.session = self.loaded = None

    def execute(self, sql: str):
        return self.session.execute(sql)

    def counters(self) -> dict[str, float]:
        out = super().counters()
        cache = self.service.stats().plan_cache
        out["plan_hits"] = cache.hits
        out["plan_lookups"] = cache.hits + cache.misses
        out["blocks_sent"] = self.server.stats()["blocks_sent"]
        return out


class SalesScanDecrypt(ReadWorkload):
    name = "sales_scan_decrypt"
    why = (
        "Scans returning 1,700 to 6,000 rows pulled block by block through "
        "execute_iter: batch decryption and transfer are the cost, the "
        "planner is idle; each query runs with cold and with warm caches."
    )
    setup_repeats = 5
    timed_rounds = 14
    ORDERS = 6000
    SCANS = (
        ("all", "SELECT o_orderkey, o_custkey, o_price, o_qty FROM orders"),
        ("price", "SELECT o_orderkey, o_price, o_date FROM orders WHERE o_price > 2500"),
        ("status", "SELECT o_orderkey, o_status, o_comment FROM orders "
                   "WHERE o_status = 'OPEN'"),
        ("date", "SELECT o_orderkey, o_date, o_discount FROM orders "
                 "WHERE o_date >= DATE '1996-01-01'"),
    )

    def prepare(self) -> None:
        from repro.testkit import build_sales_db

        super().prepare()
        self.db = build_sales_db(self.ORDERS, seed=self.seed)

    def setup(self) -> None:
        from repro.core import MonomiClient
        from repro.server import make_backend
        from repro.testkit import MASTER_KEY, SALES_WORKLOAD

        self.client = MonomiClient.setup(
            self.db,
            SALES_WORKLOAD + [sql for _, sql in self.SCANS],
            master_key=MASTER_KEY,
            provider=self.provider,
            space_budget=2.5,
            backend=self.view(make_backend("memory", name="sales_enc"), "seam"),
        )

    def stream(self, sql: str, warm: bool) -> Outcome:
        """Pull the stream block by block without keeping the blocks.

        The digest is built inside the timed region because consuming the
        result is the client's work; per-column tuple hashes keep it at a
        fraction of a millisecond.  Warm-up rounds also keep the rows, for
        the comparison against the plaintext engine.
        """
        start = _perf()
        stream = self.client.execute_iter(sql)
        first = None
        rows = 0
        digest = 0
        kept: list = []
        for block in stream:
            if first is None:
                first = (_perf() - start) * 1000.0
            rows += len(block)
            for column in block.columns:
                digest = hash((digest, tuple(column)))
            if warm:
                kept.extend(block.rows())
        return Outcome(
            result=(rows, digest, kept),
            transfer_bytes=stream.ledger.transfer_bytes,
            round_trips=stream.ledger.round_trips,
            plan=stream.planned.plan.explain,
            first_block_ms=first,
        )

    def round(self, index: int) -> Iterator[Op]:
        warm_up = index < self.warm_rounds
        for key, sql in self.SCANS:
            # Cold: value and pivot caches emptied just before, outside the
            # timed region.  Warm: caches as the cold run left them.
            for temperature in ("cold", "warm"):
                cls = f"{key}.{temperature}"
                yield Op(
                    cls,
                    run=lambda sql=sql: self.stream(sql, warm_up),
                    check=lambda outcome, warm, cls=cls, sql=sql: self.judge(
                        cls, sql, outcome.result[:2], outcome.result[2], warm
                    ),
                    prepare=(
                        self.provider.reset_crypto_caches
                        if temperature == "cold"
                        else None
                    ),
                )


def pin_sales_hom_groups(design):
    """The benchmark's own copy of the PR 10 hom pinning: one single-column
    and one two-column packed file on ``orders``, whatever the designer
    chose, so every run maintains the same ciphertexts under DML."""
    from repro.core import HomGroup
    from repro.core.schemes import Scheme

    design = design.copy()
    design.hom_groups = [g for g in design.hom_groups if g.table != "orders"]
    design.entries = {
        e for e in design.entries
        if not (e.table == "orders" and e.scheme is Scheme.HOM)
    }
    design.add_hom_group(HomGroup("orders", ("o_price",), rows_per_ciphertext=8))
    design.add_hom_group(
        HomGroup("orders", ("o_price * o_qty", "o_qty"), rows_per_ciphertext=4)
    )
    return design


class SalesHtapShard2(BenchWorkload):
    name = "sales_htap_shard2"
    why = (
        "Writes beside reads on the 2-shard coordinator: each INSERT, UPDATE "
        "and DELETE is followed by a probe that must see it, plus a "
        "maintained-aggregate read, so a read gain that costs writes shows."
    )
    setup_repeats = 3
    timed_rounds = 16
    # Just past a power of two: the loader sizes the hom files' headroom
    # from the initial row count, and the row space only grows under DML.
    ORDERS = 4200
    SHARDS = 2
    UPDATE = (
        "UPDATE orders SET o_price = o_price - :d "
        "WHERE o_price >= :lo AND o_custkey = :c"
    )
    DELETE = "DELETE FROM orders WHERE o_custkey = :c AND o_qty <= :q"

    def __init__(self, seed: int, tracer=None) -> None:
        super().__init__(seed, tracer)
        self.db = self.oracle = self.aggregates = None
        self.rng = random.Random(seed)

    def prepare(self) -> None:
        from repro.testkit import SALES_WORKLOAD, build_sales_db

        super().prepare()
        self.db = build_sales_db(self.ORDERS, seed=self.seed)
        # The client keeps its own mirror in step with its writes; the
        # oracle is a second copy only this file writes to.
        self.oracle = build_sales_db(self.ORDERS, seed=self.seed)
        self.probes = {
            "insert": SALES_WORKLOAD[0],
            "update": SALES_WORKLOAD[1],
            "delete": SALES_WORKLOAD[2],
        }
        rows = self.oracle.table("orders").rows
        self.next_key = max(r[0] for r in rows) + 1
        # Hom layouts freeze each packed column's width at load time, so
        # fresh values stay under the loaded maxima.
        self.max_price = max(r[2] for r in rows)
        self.max_qty = max(r[3] for r in rows)
        self.max_product = max(r[2] * r[3] for r in rows)
        self.rng = random.Random(self.seed)

    def setup(self) -> None:
        from repro.core import MaintainedAggregates, MonomiClient
        from repro.server import ShardedBackend, make_backend
        from repro.testkit import MASTER_KEY, SALES_WORKLOAD, build_sales_db

        common = dict(
            master_key=MASTER_KEY, provider=self.provider, space_budget=2.5
        )
        donor = MonomiClient.setup(
            build_sales_db(self.ORDERS, seed=self.seed), SALES_WORKLOAD, **common
        )
        shards = [
            self.view(make_backend("memory", name=f"sales_enc_shard{i}"), "shard")
            for i in range(self.SHARDS)
        ]
        self.client = MonomiClient.setup(
            self.db,
            SALES_WORKLOAD,
            design=pin_sales_hom_groups(donor.design),
            backend=self.view(ShardedBackend(shards, name="sales_enc"), "seam"),
            **common,
        )
        self.aggregates = MaintainedAggregates(self.client, splits=4, seed=self.seed)
        self.aggregates.register("revenue", "orders", "o_price")

    def teardown(self) -> None:
        if self.aggregates is not None:
            self.aggregates.close()
            self.aggregates = None
        super().teardown()

    # -- the DML stream -----------------------------------------------------------

    def _insert(self) -> tuple[str, dict]:
        values = []
        for i in range(3):
            # The first row is always one the insert probe (price > 500) sees.
            price = self.rng.randint(501 if i == 0 else 10, self.max_price)
            qty = self.rng.randint(
                1, max(1, min(self.max_qty, self.max_product // price))
            )
            values.append(
                f"({self.next_key}, {self.rng.randint(1, 30)}, {price}, {qty}, "
                f"{self.rng.randint(0, 10)}, DATE '1997-01-01', 'OPEN', "
                "'htap batch row')"
            )
            self.next_key += 1
        return "INSERT INTO orders VALUES " + ", ".join(values), {}

    def _update(self) -> tuple[str, dict]:
        discount = self.rng.randint(1, 9)
        return self.UPDATE, {
            "d": discount, "lo": discount + 10, "c": self.rng.randint(1, 30)
        }

    def _delete(self) -> tuple[str, dict]:
        """Delete about as many rows as a cycle inserts, so the table stays
        within 10 % of its loaded size however long the run."""
        customer = self.rng.randint(1, 30)
        quantities = sorted(
            r[3] for r in self.oracle.table("orders").rows if r[1] == customer
        )
        return self.DELETE, {"c": customer, "q": quantities[2] if len(quantities) > 2 else 50}

    # -- ops ------------------------------------------------------------------------

    def _statement(self, sql: str, params: dict | None = None) -> Outcome:
        outcome = self.client.execute(sql, params)
        planned = outcome.planned
        return Outcome(
            result=outcome.rows,
            transfer_bytes=outcome.ledger.transfer_bytes,
            round_trips=outcome.ledger.round_trips,
            plan=planned.plan.explain if planned is not None else None,
        )

    def _write_op(self, kind: str, sql: str, params: dict) -> Op:
        from repro.testkit import apply_plain_dml

        def check(outcome: Outcome, warm: bool) -> str | None:
            # What the probe would return had the write been lost.
            self.stale = rows_digest(_plain_rows(self.oracle, self.probes[kind]))
            affected = apply_plain_dml(self.oracle, sql, params)
            return None if outcome.result == [(affected,)] else "wrong"

        return Op(kind, lambda: self._statement(sql, params), check, kind="write")

    def _probe_op(self, kind: str) -> Op:
        sql = self.probes[kind]

        def check(outcome: Outcome, warm: bool) -> str | None:
            digest = rows_digest(outcome.result)
            start = _perf()
            expected = rows_digest(_plain_rows(self.oracle, sql))
            self.plain_ms[f"probe_after_{kind}"] = (_perf() - start) * 1000.0
            if digest == expected:
                return None
            return "stale" if digest == self.stale else "wrong"

        return Op(f"probe_after_{kind}", lambda: self._statement(sql), check)

    def _maintained_op(self) -> Op:
        def run() -> Outcome:
            return Outcome(result=self.aggregates.value("revenue"))

        def check(outcome: Outcome, warm: bool) -> str | None:
            total = sum(r[2] for r in self.oracle.table("orders").rows)
            return None if outcome.result == total else "stale"

        return Op("maintained_read", run, check)

    def round(self, index: int) -> Iterator[Op]:
        for kind, make in (
            ("insert", self._insert),
            ("update", self._update),
            ("delete", self._delete),
        ):
            yield self._write_op(kind, *make())
            yield self._probe_op(kind)
        yield self._maintained_op()


WORKLOADS = {
    cls.name: cls
    for cls in (TpchAdhocMem, SsbServiceTcpSqlite, SalesScanDecrypt, SalesHtapShard2)
}
