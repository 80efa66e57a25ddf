"""Batch-vs-scalar equivalence for the shared-tree OPE and FFX paths.

The batch APIs (PR 8) must be *observationally identical* to the scalar
ones: same ciphertexts, same plaintexts, same errors — cold or warm
cache, single- or multi-threaded.  Hypothesis drives the value shapes (duplicates,
clustering, Nones, ordering) that the shared descent partitions on.
"""

from __future__ import annotations

import concurrent.futures
import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import CryptoError
from repro.common.lru import LRUCache
from repro.core.encdata import CryptoProvider
from repro.crypto.ffx import FFXInteger
from repro.crypto.ope import OpeCipher

KEY = b"ope-batch-key-01"


@pytest.fixture(scope="module")
def provider():
    return CryptoProvider(KEY, paillier_bits=256)


# -- OpeCipher ----------------------------------------------------------------


class TestOpeCipherBatch:
    @pytest.fixture(scope="class")
    def cipher(self):
        return OpeCipher(KEY, -5000, 5000, expansion_bits=12)

    @given(
        st.lists(
            st.one_of(st.none(), st.integers(min_value=-5000, max_value=5000)),
            max_size=60,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_encrypt_batch_matches_scalar(self, cipher, values):
        batch = cipher.encrypt_batch(values)
        scalar = [None if v is None else cipher.encrypt(v) for v in values]
        assert batch == scalar

    @given(
        st.lists(
            st.one_of(st.none(), st.integers(min_value=-5000, max_value=5000)),
            max_size=60,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_decrypt_batch_roundtrip(self, cipher, values):
        cts = cipher.encrypt_batch(values)
        assert cipher.decrypt_batch(cts) == values

    def test_order_and_dedup_invariance(self, cipher):
        values = [7, -3, 7, 7, 0, 4999, -5000, -3]
        by_batch = dict(zip(values, cipher.encrypt_batch(values)))
        for perm in ([4999, 7, -3], [-5000, -3, 0], list(reversed(values))):
            assert cipher.encrypt_batch(perm) == [by_batch[v] for v in perm]

    def test_cold_and_warm_cache_identical(self):
        a = OpeCipher(KEY, 0, 10_000, expansion_bits=10)
        values = [i * 37 % 10_000 for i in range(400)]
        warm = a.encrypt_batch(values)
        warm_again = a.encrypt_batch(values)  # All-hit pass.
        a.clear_pivot_cache()
        cold = a.encrypt_batch(values)
        assert warm == warm_again == cold
        b = OpeCipher(KEY, 0, 10_000, expansion_bits=10, pivot_cache_size=0)
        assert b.encrypt_batch(values) == warm

    def test_invalid_ciphertext_raises_in_batch(self, cipher):
        good = cipher.encrypt_batch([1, 2, 3])
        bad = next(
            c
            for c in range(max(good) + 1, max(good) + 50_000)
            if c not in set(good)
        )
        with pytest.raises(CryptoError):
            cipher.decrypt_batch(good + [bad])
        with pytest.raises(CryptoError):
            cipher.decrypt_batch([-1])

    def test_empty_and_all_none(self, cipher):
        assert cipher.encrypt_batch([]) == []
        assert cipher.encrypt_batch([None, None]) == [None, None]
        assert cipher.decrypt_batch([None]) == [None]

    def test_pivot_cache_counters_move(self):
        cipher = OpeCipher(KEY, 0, 1 << 20, expansion_bits=8)
        values = list(range(0, 4096, 4))
        cipher.encrypt_batch(values)
        after_encrypt = cipher.cache_stats()
        assert after_encrypt.misses > 0
        assert after_encrypt.entries <= after_encrypt.capacity
        cipher.encrypt_batch(values)
        after_repeat = cipher.cache_stats()
        assert after_repeat.hits > after_encrypt.hits

    def test_cache_disabled_reports_zeros(self):
        cipher = OpeCipher(KEY, 0, 100, expansion_bits=8, pivot_cache_size=0)
        cipher.encrypt_batch([1, 2, 3])
        stats = cipher.cache_stats()
        assert (stats.hits, stats.misses, stats.capacity) == (0, 0, 0)


# -- FFXInteger ---------------------------------------------------------------


class TestFFXBatch:
    @pytest.fixture(scope="class")
    def ffx(self):
        return FFXInteger(KEY, -1000, 900)

    @given(
        st.lists(
            st.one_of(st.none(), st.integers(min_value=-1000, max_value=900)),
            max_size=80,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_batch_matches_scalar(self, ffx, values):
        batch = ffx.encrypt_batch(values)
        scalar = [None if v is None else ffx.encrypt(v) for v in values]
        assert batch == scalar
        assert ffx.decrypt_batch(batch) == values

    def test_dedup_and_order(self, ffx):
        values = [5, 5, -1000, 900, 5, 0]
        cts = ffx.encrypt_batch(values)
        assert cts[0] == cts[1] == cts[4]
        assert ffx.encrypt_batch(list(reversed(values))) == list(reversed(cts))

    def test_domain_error_in_batch(self, ffx):
        with pytest.raises(Exception):
            ffx.encrypt_batch([0, 901])


# -- CryptoProvider integration ----------------------------------------------


def _columns():
    ints = [i * 7919 % 1009 - 500 for i in range(300)] + [None, 0, 0]
    dates = [
        datetime.date(1995, 1, 1) + datetime.timedelta(days=i * 13 % 900)
        for i in range(120)
    ] + [None]
    texts = [f"sku-{i % 41:04d}" for i in range(200)] + [None, "", "x" * 40]
    return ints, dates, texts


class TestProviderBatchEquivalence:
    def test_ope_batch_matches_scalar(self, provider):
        fresh = CryptoProvider(KEY, paillier_bits=256)
        ints, dates, texts = _columns()
        for col, sql_type in ((ints, "int"), (dates, "date"), (texts, "text")):
            batch = provider.ope_encrypt_batch(col)
            scalar = [fresh.ope_encrypt(v) for v in col]
            assert batch == scalar
            assert provider.ope_decrypt_batch(batch, sql_type) == [
                fresh.ope_decrypt(c, sql_type) for c in batch
            ]

    def test_det_batch_matches_scalar(self, provider):
        fresh = CryptoProvider(KEY, paillier_bits=256)
        ints, dates, texts = _columns()
        for col, sql_type in ((ints, "int"), (dates, "date"), (texts, "text")):
            batch = provider.det_encrypt_batch(col)
            scalar = [fresh.det_encrypt(v) for v in col]
            assert batch == scalar
            assert provider.det_decrypt_batch(batch, sql_type) == col

    def test_cold_warm_identity_through_provider(self, provider):
        ints, _, _ = _columns()
        warm_cts = provider.ope_encrypt_batch(ints)
        warm_plain = provider.ope_decrypt_batch(warm_cts, "int")
        provider.reset_crypto_caches()
        cold_cts = provider.ope_encrypt_batch(ints)
        cold_plain = provider.ope_decrypt_batch(cold_cts, "int")
        assert warm_cts == cold_cts
        assert warm_plain == cold_plain == ints

    def test_invalid_ope_ciphertext_raises_through_provider(self, provider):
        cts = provider.ope_encrypt_batch([1, 2, 3])
        with pytest.raises(CryptoError):
            provider.ope_decrypt_batch([-1] + cts, "int")

    def test_cache_stats_shape_and_counters(self):
        prov = CryptoProvider(KEY, paillier_bits=256)
        ints, _, _ = _columns()
        prov.ope_encrypt_batch(ints)
        prov.det_encrypt_batch(ints)
        stats = prov.cache_stats()
        assert set(stats) == {
            "det_encrypt",
            "det_decrypt",
            "ope_encrypt",
            "ope_decrypt",
            "ope_pivots_int",
            "ope_pivots_date",
            "ope_pivots_text",
        }
        assert stats["ope_encrypt"].misses > 0
        assert stats["det_encrypt"].misses > 0
        assert stats["ope_pivots_int"].misses > 0
        # Duplicates in the column hit the value cache, not the pivot cache.
        prov.ope_encrypt_batch(ints)
        assert prov.cache_stats()["ope_encrypt"].hits > 0

    def test_threaded_batches_on_shared_provider(self):
        prov = CryptoProvider(KEY, paillier_bits=256)
        ints, _, _ = _columns()
        expected_cts = prov.ope_encrypt_batch(ints)
        prov.reset_crypto_caches()

        def roundtrip(_):
            cts = prov.ope_encrypt_batch(ints)
            return cts, prov.ope_decrypt_batch(cts, "int")

        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            for cts, plain in pool.map(roundtrip, range(8)):
                assert cts == expected_cts
                assert plain == ints


# -- LRU cache ----------------------------------------------------------------


class TestLRUCacheStats:
    def test_counters(self):
        cache = LRUCache(2)
        assert cache.get("a") is None
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1
        cache.put("c", 3)  # Evicts "b" (LRU).
        stats = cache.stats()
        assert stats.misses == 1
        assert stats.hits == 1
        assert stats.evictions == 1
        assert stats.entries == 2
        assert stats.capacity == 2
        assert cache.get("b") is None

    def test_clear_keeps_counters(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats().hits == 1

    def test_hit_rate(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.get("a")
        cache.get("missing")
        assert cache.stats().hit_rate == 0.5
