"""Incrementally maintained encrypted aggregates (MRV-style split counters).

A maintained aggregate keeps ``SUM(expr)`` over one table as Paillier
ciphertexts on the untrusted server, updated in place on every DML
statement instead of re-aggregated by scanning.  The server still learns
nothing: it multiplies ciphertexts it cannot decrypt.

**Why split counters.**  A single encrypted accumulator is a hot record —
every writer would serialize on one ciphertext (and in a replicated or
sharded deployment, conflict on it).  Following the MRV (multi-record
value) pattern, the value is *split* across ``splits`` ciphertext
records (:data:`DEFAULT_SPLITS` unless the registry is given another);
each delta lands on a randomly chosen split, so concurrent writers
contend on ``1/N`` of the records.  The aggregate's value is the sum of
all splits, which any reader recovers with one ``hom_read`` of the split
vector, one fold of it (the product of the split ciphertexts mod ``n²``,
which is ``E(Σ residues mod n)``) and one decryption, whatever ``splits``
is.

Splits drift apart under skewed workloads (one split absorbs most
deltas), which does not affect correctness but concentrates future
contention; :meth:`MaintainedAggregates.balance_now` re-levels them with
a zero-sum patch vector (subtract from the hot splits, add to the cold
ones — the total is invariant by construction), and
:meth:`MaintainedAggregates.start_balancer` runs that re-leveling on a
background thread.

Negative totals ride the modular complement: each split holds an
arbitrary mod-``n`` residue, the fold adds them mod ``n``, and the client
re-centers the one decrypted total (``v > n/2  →  v − n``).

Registration writes the initial split vector through
``add_ciphertext_file``, so it needs a backend that accepts bulk-load
state (in-memory, SQLite, sharded coordinator).  Maintenance itself uses
only the ``hom_apply``/``hom_read`` write surface and works over the wire.
"""

from __future__ import annotations

import itertools
import os
import random
import threading
from dataclasses import dataclass

from repro.common.errors import ConfigError, DesignError
from repro.common.retry import RetryPolicy, retry_call
from repro.crypto.packing import PackedLayout
from repro.engine.eval import EvalContext, Scope, compile_expr
from repro.sql import parse_expression
from repro.storage.ciphertext_store import CiphertextFile

#: Default number of split records per maintained aggregate.
DEFAULT_SPLITS = 4


@dataclass
class _Registered:
    name: str
    table: str
    expr_sql: str
    file_name: str
    splits: int
    fn: object  # Compiled plaintext delta evaluator.


class MaintainedAggregates:
    """Registry of incrementally maintained encrypted SUMs for one client.

    Subscribes to the client's DML executor: after every successful
    INSERT/UPDATE/DELETE it receives the plaintext delta rows and applies
    ``E(delta mod n)`` to a randomly chosen split of each registered
    aggregate over the affected table.
    """

    def __init__(
        self,
        client,
        splits: int = DEFAULT_SPLITS,
        seed: int = 0xA66,
    ) -> None:
        if isinstance(splits, bool) or not isinstance(splits, int) or splits < 1:
            raise ConfigError(f"splits must be an int >= 1, got {splits!r}")
        self.client = client
        self.provider = client.provider
        self.backend = client.backend
        self.splits = splits
        self._rng = random.Random(seed)
        self._aggs: dict[str, _Registered] = {}
        self._lock = threading.RLock()
        self._token_prefix = os.urandom(4).hex()
        self._token_seq = itertools.count()
        self.retry_policy = RetryPolicy()
        self._retry_rng = random.Random(0xBA1A)
        self._balancer: threading.Thread | None = None
        self._stop = threading.Event()
        client.dml.listeners.append(self)

    # -- registration ----------------------------------------------------------

    def register(self, name: str, table: str, expr_sql: str) -> None:
        """Start maintaining ``SUM(expr_sql)`` over ``table`` as ``name``.

        Seeds the split vector from the client's plaintext mirror: split 0
        carries the current total, the rest encrypt zero (call
        :meth:`balance_now` to level them immediately).
        """
        with self._lock:
            if name in self._aggs:
                raise ConfigError(f"maintained aggregate {name!r} already exists")
            if table not in self.client.plain_db.tables:
                raise ConfigError(f"unknown table {table!r}")
            plain = self.client.plain_db.table(table)
            scope = Scope([(table, c) for c in plain.schema.column_names])
            fn = compile_expr(parse_expression(expr_sql), scope, EvalContext())
            total = 0
            for row in plain.rows:
                total += self._int_value(fn(row), table, expr_sql)
            public = self.provider.paillier_public
            n = public.n
            # One residue per ciphertext: a full-width single-column layout
            # (rows_per_ciphertext == 1); pad bits are irrelevant because
            # splits are patched with raw mod-n residues, never packed.
            layout = PackedLayout(
                column_bits=(max(1, public.plaintext_bits - 4),),
                pad_bits=4,
                plaintext_bits=public.plaintext_bits,
            )
            plaintexts = [total % n] + [0] * (self.splits - 1)
            file = CiphertextFile(
                name=f"mrv_{name}",
                public_key=public,
                layout=layout,
                column_names=(expr_sql,),
                num_rows=self.splits,
            )
            file.ciphertexts.extend(self.provider.paillier_encrypt_batch(plaintexts))
            self.backend.add_ciphertext_file(file)
            self._aggs[name] = _Registered(
                name, table, expr_sql, file.name, self.splits, fn
            )

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._aggs)

    # -- DML subscription ------------------------------------------------------

    def on_change(self, table: str, inserted, deleted) -> None:
        """DML listener: fold the statement's plaintext delta into one
        randomly chosen split per registered aggregate on ``table``."""
        with self._lock:
            for agg in self._aggs.values():
                if agg.table != table:
                    continue
                delta = 0
                for row in inserted:
                    delta += self._int_value(agg.fn(row), table, agg.expr_sql)
                for row in deleted:
                    delta -= self._int_value(agg.fn(row), table, agg.expr_sql)
                if delta:
                    split = self._rng.randrange(agg.splits)
                    self._apply(agg, [(split, delta)])

    # -- reads -----------------------------------------------------------------

    def value(self, name: str) -> int:
        """Fold the split vector into one ciphertext, decrypt it once and
        re-center the mod-n total."""
        with self._lock:
            agg = self._get(name)
            public = self.provider.paillier_public
            folded = public.add_many(self._read_splits(agg))
            (total,) = self.provider.paillier_decrypt_batch([folded])
            n = public.n
            return total - n if total > n // 2 else total

    def split_values(self, name: str) -> list[int]:
        """The per-split signed values (diagnostic / balance input)."""
        with self._lock:
            agg = self._get(name)
            n = self.provider.paillier_public.n
            return [v - n if v > n // 2 else v for v in self._split_residues(agg)]

    # -- balancing -------------------------------------------------------------

    def balance_now(self, name: str | None = None) -> None:
        """Re-level splits with a zero-sum patch vector.

        Reads the current splits, computes each split's distance from the
        even share, and applies all corrections in one token-deduplicated
        ``hom_apply`` — the total is invariant by construction, so a
        balance racing readers only ever changes *distribution*.
        """
        with self._lock:
            names = [name] if name is not None else sorted(self._aggs)
            for agg_name in names:
                agg = self._get(agg_name)
                n = self.provider.paillier_public.n
                values = [v - n if v > n // 2 else v for v in self._split_residues(agg)]
                total = sum(values)
                share, remainder = divmod(total, agg.splits)
                targets = [
                    share + (1 if i < remainder else 0)
                    for i in range(agg.splits)
                ]
                patches = [
                    (i, target - value)
                    for i, (value, target) in enumerate(zip(values, targets))
                    if target != value
                ]
                if patches:
                    self._apply(agg, patches)

    def start_balancer(self, interval: float = 0.5) -> None:
        """Run :meth:`balance_now` on a daemon thread every ``interval``
        seconds until :meth:`close`."""
        with self._lock:
            if self._balancer is not None:
                return
            self._stop.clear()

            def loop() -> None:
                while not self._stop.wait(interval):
                    try:
                        self.balance_now()
                    except Exception:  # pragma: no cover - backend teardown race
                        if self._stop.is_set():
                            return
                        raise

            self._balancer = threading.Thread(
                target=loop, name="mrv-balancer", daemon=True
            )
            self._balancer.start()

    def close(self) -> None:
        self._stop.set()
        balancer, self._balancer = self._balancer, None
        if balancer is not None:
            balancer.join(timeout=5.0)

    def __enter__(self) -> "MaintainedAggregates":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- internals -------------------------------------------------------------

    def _get(self, name: str) -> _Registered:
        try:
            return self._aggs[name]
        except KeyError:
            raise ConfigError(f"unknown maintained aggregate {name!r}") from None

    @staticmethod
    def _int_value(value, table: str, expr_sql: str) -> int:
        if value is None:
            return 0
        if not isinstance(value, int) or isinstance(value, bool):
            raise DesignError(
                f"maintained aggregate over {table}:{expr_sql!r} must be "
                f"integer-valued, got {value!r}"
            )
        return value

    def _read_splits(self, agg: _Registered) -> list[int]:
        return retry_call(
            lambda: self.backend.hom_read(agg.file_name, list(range(agg.splits))),
            self.retry_policy,
            rng=self._retry_rng,
        )

    def _split_residues(self, agg: _Registered) -> list[int]:
        return self.provider.paillier_decrypt_batch(self._read_splits(agg))

    def _apply(self, agg: _Registered, patches: list[tuple[int, int]]) -> None:
        """Multiply ``E(delta mod n)`` into the chosen splits, exactly once."""
        n = self.provider.paillier_public.n
        factors = self.provider.paillier_encrypt_batch(
            [delta % n for _, delta in patches]
        )
        updates = [(split, factor) for (split, _), factor in zip(patches, factors)]
        token = f"mrv-{self._token_prefix}-{next(self._token_seq)}"
        retry_call(
            lambda: self.backend.hom_apply(agg.file_name, updates=updates, token=token),
            self.retry_policy,
            rng=self._retry_rng,
        )
