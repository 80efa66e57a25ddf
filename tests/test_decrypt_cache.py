"""Bulk LRU probes and the provider's per-type decrypt tables.

``LRUCache.get_many``/``put_many`` must be indistinguishable from the
same sequence of ``get``/``put`` calls, the decrypt caches must keep the
counter rule (one lookup per non-NULL ciphertext presented), the scalar
and batch paths must share one table per SQL type, and the C-level bulk
recency pass must stay exact under threads on a thrashing provider.
"""

from __future__ import annotations

import concurrent.futures
import datetime
import sys
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.lru import LRUCache, PartitionedLRU
from repro.core import CryptoProvider
from repro.testkit import MASTER_KEY


class _Recording(OrderedDict):
    """An LRU table that remembers the keys it evicted, in order."""

    def __init__(self) -> None:
        super().__init__()
        self.evicted: list = []

    def popitem(self, last: bool = True):
        key, value = super().popitem(last=last)
        self.evicted.append(key)
        return key, value


def _recording_cache(capacity: int) -> LRUCache:
    cache = LRUCache(capacity)
    cache._data = _Recording()
    return cache


def _snapshot(cache: LRUCache) -> tuple:
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
        cache = LRUCache(4)
        cache.put(None, "x")
        cache.put_many([None, 1], ["y", "one"])
        assert cache.get(None) is None
        assert cache.get_many([None, 1, None, 2]) == ([None, "one", None, None], 1)
        assert list(cache._data) == [1]
        assert (cache.hits, cache.misses) == (1, 1)

    def test_get_many_refreshes_only_hits(self):
        cache = LRUCache(3)
        cache.put_many(["a", "b", "c"], [1, 2, 3])
        assert cache.get_many(["a", "x", "b"]) == ([1, None, 2], 1)
        assert list(cache._data) == ["c", "a", "b"]
        cache.put("d", 4)  # Evicts "c", the one key the probe did not touch.
        assert list(cache._data) == ["a", "b", "d"]


class _EvictedMidProbe(OrderedDict):
    """Drops ``victim`` just before its recency move, as a put on another
    thread would between ``get_many``'s probe and its recency pass."""

    victim = None

    def move_to_end(self, key, last=True):
        if key == self.victim and key in self:
            del self[key]
        super().move_to_end(key, last=last)


class TestConcurrentEviction:
    def test_get_many_tolerates_a_key_evicted_mid_probe(self):
        for keys in (["a", "b", "c"], ["a", "b", "x", "c"]):
            cache = LRUCache(4)
            cache._data = _EvictedMidProbe()
            cache.put_many(["c", "b", "a"], [3, 2, 1])
            cache.put("d", 4)
            cache._data.victim = "b"
            got, misses = cache.get_many(keys)
            assert [v for v in got if v is not None] == [1, 2, 3]
            assert misses == len(keys) - 3
            # The moves after the evicted key still ran, in order.
            assert list(cache._data) == ["d", "a", "c"]


class TestPartitionedLRU:
    def test_partitions_share_one_bound_and_stale_table_drains_first(self):
        cache = PartitionedLRU(4)
        cache.put_many("int", [1, 2, 3], ["i1", "i2", "i3"])
        cache.put_many("text", [1, 2], ["t1", "t2"])
        assert len(cache) == 4
        assert cache.get("int", 1) is None  # "int" was the stale table.
        assert cache.get_many("text", [1, 2]) == (["t1", "t2"], 0)
        assert cache.get_many("int", [2, 3]) == (["i2", "i3"], 0)
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.evictions) == (4, 1, 1)
        assert stats.entries == 4 and stats.capacity == 4
        # "text" is now the least recently touched table.
        cache.put("int", 4, "i4")
        assert cache.get_many("text", [1, 2]) == ([None, "t2"], 1)
        cache.clear()
        assert len(cache) == 0 and cache.stats().hits == 5

    def test_overflow_drains_stale_tables_in_turn(self):
        cache = PartitionedLRU(3)
        cache.put_many("a", [1], ["a1"])
        cache.put_many("b", [1, 2], ["b1", "b2"])
        cache.put_many("c", [1, 2, 3], ["c1", "c2", "c3"])
        # "a" empties, then "b" empties, in one shrink.
        assert cache.get_many("c", [1, 2, 3]) == (["c1", "c2", "c3"], 0)
        assert len(cache) == 3 and cache.stats().evictions == 3
        cache.put("a", 9, "a9")  # Empty "b" gives nothing; "c" gives its LRU.
        assert cache.get_many("c", [1, 2, 3]) == ([None, "c2", "c3"], 1)
        assert cache.get("a", 9) == "a9"
        assert len(cache) == 3 and cache.stats().evictions == 4

    def test_one_partition_is_one_lru(self):
        cache = PartitionedLRU(2)
        cache.put("int", "a", 1)
        cache.put("int", "b", 2)
        assert cache.get("int", "a") == 1
        cache.put("int", "c", 3)  # Evicts "b" (LRU), as LRUCache would.
        assert cache.get("int", "b") is None
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
