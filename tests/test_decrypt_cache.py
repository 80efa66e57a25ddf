"""Bulk cache probes and the provider's per-type decrypt tables.

``BoundedCache.get_many``/``put_many`` must be indistinguishable from the
same sequence of ``get``/``put`` calls, a hit must write nothing (an
overflow evicts the oldest insert, hit or not), a working set that fits
must never be evicted once warm, the decrypt caches must keep the counter
rule (one lookup per non-NULL ciphertext presented), the scalar and batch
paths must share one table per SQL type, and eviction must stay exact
under threads on a thrashing provider.
"""

from __future__ import annotations

import concurrent.futures
import datetime
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.cache import BoundedCache, PartitionedCache
from repro.core import CryptoProvider
from repro.testkit import MASTER_KEY


class _Recording(dict):
    """A cache table that remembers the keys it evicted, in order."""

    def __init__(self) -> None:
        super().__init__()
        self.evicted: list = []

    def __delitem__(self, key):
        self.evicted.append(key)
        super().__delitem__(key)


class _WriteTrap(dict):
    """A cache table that fails any write while ``armed``."""

    armed = False

    def _write(self) -> None:
        assert not self.armed, "a hit wrote to the cache table"

    def __setitem__(self, key, value):
        self._write()
        super().__setitem__(key, value)

    def __delitem__(self, key):
        self._write()
        super().__delitem__(key)

    def pop(self, *args):
        self._write()
        return super().pop(*args)

    def popitem(self):
        self._write()
        return super().popitem()

    def setdefault(self, *args):
        self._write()
        return super().setdefault(*args)

    def update(self, *args, **kwargs):
        self._write()
        super().update(*args, **kwargs)

    def clear(self):
        self._write()
        super().clear()


def _recording_cache(capacity: int) -> BoundedCache:
    cache = BoundedCache(capacity)
    cache._data = _Recording()
    return cache


def _snapshot(cache: BoundedCache) -> tuple:
    stats = cache.stats()
    return (
        stats.hits,
        stats.misses,
        stats.evictions,
        list(cache._data.items()),
        list(cache._data.evicted),
    )


_KEYS = st.lists(st.one_of(st.none(), st.integers(0, 11)), max_size=12)
_OPS = st.lists(st.tuples(st.sampled_from(["get", "put"]), _KEYS), max_size=12)


class TestBulkEqualsSequence:
    @settings(max_examples=300, deadline=None)
    @given(capacity=st.integers(1, 8), ops=_OPS)
    @example(capacity=1, ops=[("put", [0, 1, 0])])  # 0 returns after its eviction
    def test_get_many_and_put_many_equal_get_and_put(self, capacity, ops):
        bulk = _recording_cache(capacity)
        seq = _recording_cache(capacity)
        for step, (op, keys) in enumerate(ops):
            if op == "get":
                got, misses = bulk.get_many(keys)
                before = seq.misses
                assert got == [seq.get(key) for key in keys]
                assert misses == seq.misses - before
            else:
                values = [f"v{step}.{key}" for key in keys]
                bulk.put_many(keys, values)
                for key, value in zip(keys, values):
                    seq.put(key, value)
            assert _snapshot(bulk) == _snapshot(seq)
            assert len(bulk) == len(seq) <= capacity

    def test_none_is_never_a_key(self):
        cache = BoundedCache(4)
        cache.put(None, "x")
        cache.put_many([None, 1], ["y", "one"])
        assert cache.get(None) is None
        assert cache.get_many([None, 1, None, 2]) == ([None, "one", None, None], 1)
        assert list(cache._data) == [1]
        assert (cache.hits, cache.misses) == (1, 1)


class TestHitsWriteNothing:
    def test_warm_get_many_leaves_contents_and_order_unchanged(self):
        cache = BoundedCache(3)
        cache.put_many(["a", "b", "c"], [1, 2, 3])
        before = list(cache._data.items())
        assert cache.get_many(["c", "a", "x", "a", "b"]) == ([3, 1, None, 1, 2], 1)
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert list(cache._data.items()) == before
        cache.put("d", 4)  # Evicts "a", the oldest insert, though just hit.
        assert list(cache._data) == ["b", "c", "d"]
        assert cache.stats().evictions == 1

    def test_hits_make_no_write_to_the_table(self):
        cache = BoundedCache(4)
        cache._data = _WriteTrap()
        cache.put_many(["a", "b", "c"], [1, 2, 3])
        cache._data.armed = True
        assert cache.get_many(["c", "a", "b", "a"]) == ([3, 1, 2, 1], 0)
        assert cache.get_many(["b", "zz", None]) == ([2, None, None], 1)
        assert cache.get("a") == 1 and cache.get("zz") is None
        assert (cache.hits, cache.misses) == (6, 2)

    def test_partitioned_hits_keep_the_drain_order(self):
        cache = PartitionedCache(4)
        cache._table("int")._data = _WriteTrap()
        cache.put_many("int", [1, 2], ["i1", "i2"])
        cache.put_many("text", [1, 2], ["t1", "t2"])
        cache._table("int")._data.armed = True
        assert cache.get_many("int", [2, 1]) == (["i2", "i1"], 0)
        assert cache.get("int", 2) == "i2"
        cache._table("int")._data.armed = False
        cache.put("bool", 3, True)  # "int" was written least recently.
        assert cache.get_many("int", [1, 2]) == ([None, "i2"], 1)
        assert cache.get_many("text", [1, 2]) == (["t1", "t2"], 0)


class TestWorkingSetThatFits:
    """Once warm, a working set no larger than the capacity is never evicted."""

    def test_value_caches_serve_every_warm_pass(self):
        ints = [i * 7919 % 1_000_003 for i in range(300)]
        texts = [f"customer-{i:05d}" for i in range(100)]
        # 400 DET values fill the DET caches exactly; OPE holds the 300 ints.
        prov = CryptoProvider(MASTER_KEY, paillier_bits=256, cache_size=400)

        def one_pass(order: slice) -> None:
            det_int = prov.det_encrypt_batch(ints[order])
            det_text = prov.det_encrypt_batch(texts[order])
            ope_int = prov.ope_encrypt_batch(ints[order])
            assert prov.det_decrypt_batch(det_text, "text") == texts[order]
            assert prov.det_decrypt_batch(det_int, "int") == ints[order]
            assert prov.ope_decrypt_batch(ope_int, "int") == ints[order]
            scalar = [prov.det_decrypt(c, "int") for c in det_int[:50]]
            assert scalar == ints[order][:50]

        one_pass(slice(None))
        cold = prov.cache_stats()
        one_pass(slice(None))
        one_pass(slice(None, None, -1))
        warm = prov.cache_stats()
        for name in ("det_encrypt", "det_decrypt", "ope_encrypt", "ope_decrypt"):
            assert warm[name].evictions == cold[name].evictions == 0, name
            assert warm[name].misses == cold[name].misses, name
            assert warm[name].entries == cold[name].entries, name
        assert warm["det_encrypt"].entries == warm["det_decrypt"].entries == 400

    def test_full_ope_pivot_sweep_never_evicts(self):
        # 24,000 distinct ints: with the span threshold, the rectangles
        # their descent caches fit the default pivot cache.
        values = [i * 7919 % 1_000_003 for i in range(24_000)]
        prov = CryptoProvider(MASTER_KEY, paillier_bits=256)
        cts = prov.ope_encrypt_batch(values)
        prov._ope_dec_cache.clear()  # Value cache off; pivot cache kept.
        warm = prov.cache_stats()["ope_pivots_int"]
        assert prov.ope_decrypt_batch(cts, "int") == values
        after = prov.cache_stats()["ope_pivots_int"]
        assert after.evictions == warm.evictions == 0
        assert after.misses == warm.misses
        assert after.hits > warm.hits
        assert 0 < after.entries <= after.capacity


class TestPartitionedCache:
    def test_partitions_share_one_bound_and_stale_table_drains_first(self):
        cache = PartitionedCache(4)
        cache.put_many("int", [1, 2, 3], ["i1", "i2", "i3"])
        cache.put_many("text", [1, 2], ["t1", "t2"])
        assert len(cache) == 4
        assert cache.get("int", 1) is None  # "int" was written least recently.
        assert cache.get_many("text", [1, 2]) == (["t1", "t2"], 0)
        assert cache.get_many("int", [2, 3]) == (["i2", "i3"], 0)
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.evictions) == (4, 1, 1)
        assert stats.entries == 4 and stats.capacity == 4
        # Reading "int" last did not make it the fresher table.
        cache.put("text", 3, "t3")
        assert cache.get_many("int", [2, 3]) == ([None, "i3"], 1)
        # "int" is now the fresher table: writing it drains "text".
        cache.put("int", 4, "i4")
        assert cache.get_many("text", [1, 2, 3]) == ([None, "t2", "t3"], 1)
        cache.clear()
        assert len(cache) == 0 and cache.stats().hits == 7

    def test_overflow_drains_stale_tables_in_turn(self):
        cache = PartitionedCache(3)
        cache.put_many("a", [1], ["a1"])
        cache.put_many("b", [1, 2], ["b1", "b2"])
        cache.put_many("c", [1, 2, 3], ["c1", "c2", "c3"])
        # "a" empties, then "b" empties, in one drain.
        assert cache.get_many("c", [1, 2, 3]) == (["c1", "c2", "c3"], 0)
        assert len(cache) == 3 and cache.stats().evictions == 3
        cache.put("a", 9, "a9")  # Empty "b" gives nothing; "c" its oldest.
        assert cache.get_many("c", [1, 2, 3]) == ([None, "c2", "c3"], 1)
        assert cache.get("a", 9) == "a9"
        assert len(cache) == 3 and cache.stats().evictions == 4

    def test_one_partition_is_one_table(self):
        cache = PartitionedCache(2)
        cache.put("int", "a", 1)
        cache.put("int", "b", 2)
        assert cache.get("int", "a") == 1
        cache.put("int", "c", 3)  # Evicts "a", the oldest insert, as one table would.
        assert cache.get("int", "a") is None
        assert cache.get("int", "b") == 2
        assert cache.stats().evictions == 1


# One column per SQL type: duplicates, NULLs and (for text) both the FFX
# short-text and the wide-block branch.
_COLUMNS = {
    "int": [5, 5, None, -3, 5, None, 1 << 40],
    "bool": [True, None, False, True, True],
    "date": [
        datetime.date(1994, 1, 1),
        None,
        datetime.date(1994, 1, 1),
        datetime.date(2001, 12, 31),
    ],
    "text": ["BRASS", None, "BRASS", "a much longer comment than twelve", ""],
}
_OPE_COLUMNS = {
    sql_type: values for sql_type, values in _COLUMNS.items() if sql_type != "text"
}
_OPE_COLUMNS["text"] = ["BRASS", None, "BRASS", "PROMO"]


def _counts(prov: CryptoProvider, name: str) -> tuple[int, int]:
    stats = prov.cache_stats()[name]
    return stats.hits, stats.misses


def _schemes(prov: CryptoProvider):
    """(cache name, encrypt batch, scalar decrypt, batch decrypt, columns)."""
    yield (
        "det_decrypt",
        prov.det_encrypt_batch,
        prov.det_decrypt,
        prov.det_decrypt_batch,
        _COLUMNS,
    )
    yield (
        "ope_decrypt",
        prov.ope_encrypt_batch,
        prov.ope_decrypt,
        prov.ope_decrypt_batch,
        _OPE_COLUMNS,
    )


@pytest.fixture()
def prov() -> CryptoProvider:
    return CryptoProvider(MASTER_KEY, paillier_bits=256)


class TestCounterRule:
    def test_lookup_is_one_non_null_ciphertext_presented(self, prov):
        cts = prov.det_encrypt_batch([7, 7, None, 8, 7, None, 9])
        assert _counts(prov, "det_decrypt") == (0, 0)
        prov.det_decrypt_batch(cts, "int")  # Cold: every presentation misses.
        assert _counts(prov, "det_decrypt") == (0, 5)
        prov.det_decrypt_batch(cts, "int")  # Warm: every presentation hits.
        assert _counts(prov, "det_decrypt") == (5, 5)
        prov.reset_crypto_caches()
        for ciphertext in cts:  # Scalar: a repeat hits what the first stored.
            prov.det_decrypt(ciphertext, "int")
        assert _counts(prov, "det_decrypt") == (7, 8)
        assert prov.det_decrypt_batch([None, None], "int") == [None, None]
        assert _counts(prov, "det_decrypt") == (7, 8)

    def test_ope_counts_the_same_way(self, prov):
        cts = prov.ope_encrypt_batch([7, 7, None, 8])
        prov.ope_decrypt_batch(cts, "int")
        assert _counts(prov, "ope_decrypt") == (0, 3)
        assert prov.ope_decrypt_batch(cts, "int") == [7, 7, None, 8]
        assert _counts(prov, "ope_decrypt") == (3, 3)


class TestScalarAndBatchShareTables:
    @pytest.mark.parametrize("sql_type", sorted(_COLUMNS))
    def test_each_path_warms_the_other(self, prov, sql_type):
        for name, encrypt, scalar, batch, columns in _schemes(prov):
            values = columns[sql_type]
            cts = encrypt(values)
            presented = len(values) - values.count(None)
            prov.reset_crypto_caches()
            assert [scalar(c, sql_type) for c in cts] == values
            hits, misses = _counts(prov, name)
            assert batch(cts, sql_type) == values
            assert _counts(prov, name) == (hits + presented, misses)
            prov.reset_crypto_caches()
            assert batch(cts, sql_type) == values
            hits, misses = _counts(prov, name)
            assert [scalar(c, sql_type) for c in cts] == values
            assert _counts(prov, name) == (hits + presented, misses)


class TestThreads:
    @pytest.mark.parametrize("threads", [2, 3, 4])
    def test_overlapping_columns_on_a_thrashing_provider(self, threads):
        prov = CryptoProvider(MASTER_KEY, paillier_bits=256, cache_size=2)
        ints = [i % 37 for i in range(400)]
        day = datetime.date(1995, 1, 1)
        dates = [day + datetime.timedelta(days=i % 23) for i in ints]
        texts = [f"t{i % 11}" for i in ints]
        flags = [i % 3 == 0 for i in ints]  # Two keys: warm hits amid evictions.
        columns = ((ints, "int"), (dates, "date"), (texts, "text"), (flags, "bool"))
        jobs = []
        for values, sql_type in columns:
            det = prov.det_encrypt_batch(values)
            ope = prov.ope_encrypt_batch(values)
            for start in range(0, 300, 60):
                window = slice(start, start + 100)
                expected = values[window]
                jobs.append((prov.det_decrypt_batch, det[window], sql_type, expected))
                jobs.append((prov.ope_decrypt_batch, ope[window], sql_type, expected))

        def run(job):
            decrypt, cts, sql_type, expected = job
            return all(decrypt(cts, sql_type) == expected for _ in range(5))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # Interleave the threads as often as possible.
        try:
            with concurrent.futures.ThreadPoolExecutor(threads) as pool:
                assert all(pool.map(run, jobs * 2, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert len(prov._det_dec_cache) <= 2
        assert len(prov._ope_dec_cache) <= 2
