"""Batch crypto APIs: element-wise equivalence with the scalar paths.

The columnar pipeline (loader, client decrypt) relies on the ``*_batch``
methods producing exactly what a per-value loop over the scalar methods
would — including ``None`` passthrough, FFX short-text length boundaries,
and the CRT-vs-textbook Paillier decryption split.
"""

from __future__ import annotations

import concurrent.futures
import datetime
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CryptoProvider
from repro.core.encdata import (
    _OFFSETS,
    _SHORT_TEXT_BYTES,
    DEFAULT_CACHE_SIZE,
    INT_BOUND,
    LRUCache,
    _short_text_length,
)
from repro.common.errors import CryptoError, DomainError
from repro.crypto.paillier import generate_keypair
from repro.testkit import MASTER_KEY

RNG = random.Random(20130713)


def _sample_ints(n: int) -> list:
    values: list = [0, 1, -1, INT_BOUND - 1, -INT_BOUND, None, True, False]
    values += [RNG.randint(-(10 ** 6), 10 ** 6) for _ in range(n)]
    return values


def _sample_dates(n: int) -> list:
    base = datetime.date(1970, 1, 1)
    # DATE_DAYS = 1 << 15: the domain's last representable day.
    values: list = [base, base + datetime.timedelta(days=(1 << 15) - 1), None]
    values += [base + datetime.timedelta(days=RNG.randint(0, 30000)) for _ in range(n)]
    return values


def _sample_texts() -> list:
    # Every FFX short-text boundary: empty (CMC branch), 1..12 bytes (FFX
    # per-length domains), 13+ bytes (CMC wide-block branch), multi-byte
    # UTF-8 straddling the byte-length boundary.
    values: list = ["", None]
    for length in range(1, _SHORT_TEXT_BYTES + 3):
        values.append("x" * length)
    values += ["héllo", "naïve-café", "ünïcödé-stri", "日本語テキスト", "BRASS", "PROMO"]
    values += ["word salad " * 4, "a much longer comment string than twelve bytes"]
    return values


@pytest.fixture(scope="module")
def prov() -> CryptoProvider:
    return CryptoProvider(MASTER_KEY, paillier_bits=256)


@pytest.fixture(scope="module")
def thrashing() -> CryptoProvider:
    """Same keys, one-entry caches: nearly every lookup misses and evicts."""
    return CryptoProvider(MASTER_KEY, paillier_bits=256, cache_size=1)


class TestDetBatch:
    @pytest.mark.parametrize(
        "values", [_sample_ints(40), _sample_dates(25), _sample_texts()],
        ids=["ints", "dates", "texts"],
    )
    def test_encrypt_matches_scalar(self, prov, values):
        assert prov.det_encrypt_batch(values) == [prov.det_encrypt(v) for v in values]

    def test_decrypt_matches_scalar_and_roundtrips(self, prov):
        for values, sql_type in [
            (_sample_ints(25), "int"),
            (_sample_dates(15), "date"),
            (_sample_texts(), "text"),
        ]:
            if sql_type == "int":
                values = [v for v in values if not isinstance(v, bool)]
            cts = prov.det_encrypt_batch(values)
            batch = prov.det_decrypt_batch(cts, sql_type)
            assert batch == [prov.det_decrypt(c, sql_type) for c in cts]
            assert batch == values

    def test_bool_type(self, prov):
        values = [True, False, None, True]
        cts = prov.det_encrypt_batch(values)
        assert prov.det_decrypt_batch(cts, "bool") == values

    def test_decrypt_rejects_unknown_type(self, prov):
        with pytest.raises(DomainError):
            prov.det_decrypt_batch(list(range(100)), "float")

    def test_provider_pickles(self, prov):
        """Providers ship to subprocess clients: a clone holds the same keys."""
        values = _sample_ints(20) + _sample_texts()
        clone = pickle.loads(pickle.dumps(prov))
        assert clone.det_encrypt_batch(values) == prov.det_encrypt_batch(values)
        assert clone.ope_encrypt_batch(values) == prov.ope_encrypt_batch(values)
        cts = prov.paillier_encrypt_batch([3, 1, 4])
        assert clone.paillier_decrypt_batch(cts) == [3, 1, 4]


class TestGoldenCiphertexts:
    """Ciphertexts under ``MASTER_KEY``, computed before the PRF moved off
    ``hmac.py`` and the Feistel rounds into one kernel.  The server stores
    these and the benchmark's plan pins embed them: none may ever move."""

    DET = [
        (0, 33710309873044),
        (1, 99365835580773),
        (-1, -38932923207063),
        (42, 67609857945892),
        (INT_BOUND - 1, 59329338926475),
        (-INT_BOUND, -54709951562898),
        (True, 99365835580773),
        (False, 33710309873044),
        (datetime.date(1970, 1, 1), 5741),
        (datetime.date(1995, 3, 15), 13913),
        ("A", 172),
        ("BRASS", 1021938201190),
        ("héllo", 121581836279760),
        ("abcdefghijkl", 73751486081614995190707368128),
        ("", bytes.fromhex("f27215fac884036368e20d83cf6b5ac4")),
        ("thirteen byte", bytes.fromhex("c68f8b0f3ad720b2d8028f93dffe0fd6")),
        (
            "a much longer comment string than twelve bytes",
            bytes.fromhex(
                "cd51ec91a1984c89ae6b6fac6bcc5950e02d143e6a89cc9fd69b221e6b2e2f"
                "8b16afcadb4e9935daec7e42a31e7a74"
            ),
        ),
    ]
    OPE = [
        (0, 9223371715229830230),
        (42, 9223371715232572339),
        (-1, 9223371715229813801),
        (datetime.date(1970, 1, 1), 323970),
        (datetime.date(1995, 3, 15), 614113794),
        ("BRASS", 80177543188503077351496525),
    ]

    def test_det(self):
        prov = CryptoProvider(MASTER_KEY, paillier_bits=256)
        plains = [plain for plain, _ in self.DET]
        golden = [ciphertext for _, ciphertext in self.DET]
        assert prov.det_encrypt_batch(plains) == golden
        prov.reset_crypto_caches()
        assert [prov.det_encrypt(plain) for plain in plains] == golden
        for plain, ciphertext in self.DET:
            sql_type = {bool: "bool", int: "int", str: "text"}.get(type(plain), "date")
            assert prov.det_decrypt(ciphertext, sql_type) == plain

    def test_ope(self):
        prov = CryptoProvider(MASTER_KEY, paillier_bits=256)
        plains = [plain for plain, _ in self.OPE]
        golden = [ciphertext for _, ciphertext in self.OPE]
        assert prov.ope_encrypt_batch(plains) == golden
        prov.reset_crypto_caches()
        assert [prov.ope_encrypt(plain) for plain in plains] == golden


_DET_COLUMNS = st.one_of(
    st.tuples(
        st.just("int"),
        st.lists(st.one_of(st.none(), st.integers(-300, 300)), max_size=40),
    ),
    st.tuples(
        st.just("bool"), st.lists(st.one_of(st.none(), st.booleans()), max_size=12)
    ),
    st.tuples(
        st.just("date"),
        st.lists(
            st.one_of(
                st.none(),
                st.dates(datetime.date(1992, 1, 1), datetime.date(1992, 3, 1)),
            ),
            max_size=40,
        ),
    ),
    st.tuples(
        st.just("text"),
        st.lists(
            st.one_of(
                st.none(),
                st.text("abé", max_size=6),  # empty and short: AES block, FFX
                st.text("xy", min_size=13, max_size=20),  # wide block
            ),
            max_size=40,
        ),
    ),
)


class TestDetDecryptCache:
    """The ciphertext→plaintext LRU is transparent: whatever its state or
    size, scalar and batch decryption return the same column."""

    @settings(max_examples=60, deadline=None)
    @given(_DET_COLUMNS)
    def test_scalar_batch_and_thrashing_cache_agree(self, prov, thrashing, column):
        sql_type, values = column
        cts = prov.det_encrypt_batch(values)
        assert prov.det_decrypt_batch(cts, sql_type) == values
        assert [prov.det_decrypt(c, sql_type) for c in cts] == values
        assert thrashing.det_decrypt_batch(cts, sql_type) == values
        assert [thrashing.det_decrypt(c, sql_type) for c in cts] == values
        assert len(thrashing._det_dec_cache) <= 1

    def test_cold_warm_and_reset_agree(self):
        prov = CryptoProvider(MASTER_KEY, paillier_bits=256)
        for values, sql_type in [
            (_sample_ints(40), "int"),
            (_sample_dates(25), "date"),
            (_sample_texts(), "text"),
        ]:
            if sql_type == "int":
                values = [v for v in values if not isinstance(v, bool)]
            cts = prov.det_encrypt_batch(values)
            before = prov.cache_stats()["det_decrypt"]
            cold = prov.det_decrypt_batch(cts, sql_type)
            mid = prov.cache_stats()["det_decrypt"]
            warm = prov.det_decrypt_batch(cts, sql_type)
            after = prov.cache_stats()["det_decrypt"]
            assert mid.misses > before.misses and mid.hits == before.hits
            assert after.misses == mid.misses and after.hits > mid.hits
            prov.reset_crypto_caches()
            assert prov.cache_stats()["det_decrypt"].entries == 0
            assert cold == warm == prov.det_decrypt_batch(cts, sql_type) == values

    def test_sql_types_do_not_collide(self, prov):
        # One integer is a valid ciphertext of all four types; each must
        # decrypt under its own type whichever was cached first.
        ciphertext = prov.det_encrypt("A")
        expected = {
            sql_type: prov._det_decrypt_uncached(ciphertext, sql_type)
            for sql_type in ("int", "bool", "date", "text")
        }
        assert expected["text"] == "A"
        assert len({repr(plain) for plain in expected.values()}) == 4
        for order in (("int", "bool", "date", "text"), ("text", "date", "bool", "int")):
            prov.reset_crypto_caches()
            for _ in range(2):  # Second pass is served from the cache.
                for sql_type in order:
                    got = prov.det_decrypt(ciphertext, sql_type)
                    assert got == expected[sql_type]
                    assert type(got) is type(expected[sql_type])
                    assert prov.det_decrypt_batch([ciphertext], sql_type) == [got]

    def test_corrupt_short_text_raises_and_is_not_cached(self, prov):
        good = prov.det_encrypt("BRASS")
        for corrupt in (_OFFSETS[-1] + 5, _OFFSETS[-1], 0, -7):
            for _ in range(2):  # A cached failure would not raise twice.
                with pytest.raises(CryptoError):
                    prov.det_decrypt(corrupt, "text")
                with pytest.raises(CryptoError):
                    prov.det_decrypt_batch([good, corrupt], "text")
        too_wide = prov._det_int.hi + 1
        for _ in range(2):
            with pytest.raises(CryptoError):
                prov.det_decrypt_batch([prov.det_encrypt(7), too_wide], "int")
        # The band edges themselves are valid lengths 1 and 12.
        assert _short_text_length(_OFFSETS[1]) == 1
        assert _short_text_length(_OFFSETS[-1] - 1) == _SHORT_TEXT_BYTES
        assert prov.det_decrypt_batch([good], "text") == ["BRASS"]

    def test_threads_sharing_one_provider(self):
        prov = CryptoProvider(MASTER_KEY, paillier_bits=256, cache_size=64)
        columns = [
            ([v for v in _sample_ints(200) if not isinstance(v, bool)], "int"),
            (_sample_dates(200), "date"),
            (_sample_texts() * 4, "text"),
        ]
        encrypted = [
            (prov.det_encrypt_batch(values), sql_type, values)
            for values, sql_type in columns
        ]
        prov.reset_crypto_caches()

        def decrypt_all(_):
            return [prov.det_decrypt_batch(cts, t) for cts, t, _ in encrypted]

        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(decrypt_all, range(12)))
        for result in results:
            assert result == [values for _, _, values in encrypted]
        stats = prov.cache_stats()["det_decrypt"]
        assert stats.entries <= stats.capacity


class TestOpeBatch:
    @pytest.mark.parametrize(
        "values", [_sample_ints(25), _sample_dates(15), _sample_texts()],
        ids=["ints", "dates", "texts"],
    )
    def test_encrypt_matches_scalar(self, prov, values):
        assert prov.ope_encrypt_batch(values) == [prov.ope_encrypt(v) for v in values]

    def test_order_preserved_and_decrypt_matches(self, prov):
        values = sorted(v for v in _sample_ints(30) if isinstance(v, int))
        cts = prov.ope_encrypt_batch(values)
        assert cts == sorted(cts)
        fresh = CryptoProvider(MASTER_KEY, paillier_bits=256)
        batch = fresh.ope_decrypt_batch(cts, "int")
        assert batch == [prov.ope_decrypt(c, "int") for c in cts]
        assert batch == [int(v) for v in values]


class TestRndSearchBatch:
    def test_rnd_roundtrip_batch(self, prov):
        values = _sample_ints(10) + _sample_texts() + _sample_dates(5) + [2.5, -0.125]
        cts = prov.rnd_encrypt_batch(values)
        assert [c is None for c in cts] == [v is None for v in values]
        assert prov.rnd_decrypt_batch(cts) == values

    def test_search_matches_scalar(self, prov):
        values = ["quick brown fox", "", None, "PROMO burnished", "word " * 8]
        assert prov.search_encrypt_batch(values) == [
            prov.search_encrypt(v) for v in values
        ]

    def test_generic_dispatch_matches_scheme_methods(self, prov):
        values = _sample_ints(10)
        assert prov.encrypt_batch(values, "det") == prov.det_encrypt_batch(values)
        assert prov.encrypt_batch(values, "ope") == prov.ope_encrypt_batch(values)
        cts = prov.det_encrypt_batch(values)
        assert prov.decrypt_batch(cts, "det", "int") == prov.det_decrypt_batch(cts, "int")
        assert prov.decrypt_batch(cts, "plain", "int") == list(cts)


class TestPaillierBatchAndCrt:
    def test_crt_matches_textbook(self):
        public, private = generate_keypair(384, seed=b"crt-equivalence-seed")
        assert private.p and private.q  # CRT parameters present
        messages = [0, 1, 2, public.n - 1] + [
            RNG.randrange(public.n) for _ in range(40)
        ]
        for m in messages:
            c = public.encrypt(m)
            assert private.decrypt(c) == private.decrypt_textbook(c) == m

    def test_textbook_fallback_without_factors(self):
        public, private = generate_keypair(256, seed=b"fallback-seed")
        bare = type(private)(public=public, lam=private.lam, mu=private.mu)
        cts = [public.encrypt(m) for m in (0, 7, 12345)]
        assert bare._crt is None
        assert [bare.decrypt(c) for c in cts] == [0, 7, 12345]
        assert bare.decrypt_batch(cts) == [0, 7, 12345]

    def test_encrypt_batch_with_pool_decrypts(self, prov):
        messages = [RNG.randrange(1 << 48) for _ in range(30)] + [0, 1]
        cts = prov.paillier_encrypt_batch(messages)
        assert prov.paillier_decrypt_batch(cts) == messages
        # Pool factors must be fresh randomness: ciphertexts all distinct.
        assert len(set(cts)) == len(cts)

    def test_pool_randomness_not_repeated_across_providers(self):
        # Two providers under the same master key share keys but must NOT
        # share encryption randomness — repeated obfuscation factors would
        # let the server compute plaintext deltas between two loads.
        a = CryptoProvider(MASTER_KEY, paillier_bits=256)
        b = CryptoProvider(MASTER_KEY, paillier_bits=256)
        assert a.paillier_public.n == b.paillier_public.n
        messages = [5, 5, 5, 5]
        assert set(a.paillier_encrypt_batch(messages)).isdisjoint(
            b.paillier_encrypt_batch(messages)
        )

    def test_pool_homomorphism(self, prov):
        public = prov.paillier_public
        a, b = 1234, 5678
        ca, cb = prov.paillier_encrypt_batch([a, b])
        assert prov.paillier_private.decrypt(public.add(ca, cb)) == a + b

    def test_decrypt_batch_matches_scalar(self, prov):
        private = prov.paillier_private
        cts = prov.paillier_encrypt_batch([RNG.randrange(1 << 32) for _ in range(10)])
        assert private.decrypt_batch(cts) == [private.decrypt(c) for c in cts]

    def test_out_of_range_error_reports_value_and_modulus(self, prov):
        public = prov.paillier_public
        with pytest.raises(DomainError) as excinfo:
            public.encrypt(public.n)
        assert str(public.n) in str(excinfo.value)
        with pytest.raises(DomainError) as excinfo:
            prov.paillier_pool.encrypt_batch([0, -3])
        assert "-3" in str(excinfo.value)
        with pytest.raises(DomainError) as excinfo:
            prov.paillier_pool.encrypt_batch([public.n])
        assert str(public.n) in str(excinfo.value)


MIXED_VALUES = (
    [None, 0, 1, -1, 7_777_777, "a", "brown fox", "x" * 40]
    + [datetime.date(1997, 3, 14), datetime.date(2031, 12, 1), True, False]
    + [i * 37 % 1009 for i in range(220)]
    + [f"value-{i % 53}" for i in range(180)]
)


@pytest.fixture(scope="module", params=["fresh", "pickled"])
def peer(request, prov) -> CryptoProvider:
    """A second provider holding ``prov``'s keys: one built from the same
    master key, or a pickled clone (how providers ship to subprocesses)."""
    if request.param == "fresh":
        return CryptoProvider(MASTER_KEY, paillier_bits=256)
    return pickle.loads(pickle.dumps(prov))


class TestPeerProviders:
    """Batches through a peer provider interoperate with ``prov``'s."""

    def test_det_batch_matches(self, prov, peer):
        assert peer.det_encrypt_batch(MIXED_VALUES) == prov.det_encrypt_batch(
            MIXED_VALUES
        )

    def test_det_decrypt_batch_crosses_providers(self, prov, peer):
        ints = [None] + [i * 11 - 4000 for i in range(400)]
        cts = prov.det_encrypt_batch(ints)
        assert peer.det_decrypt_batch(cts, "int") == ints
        texts = [None] + [f"t-{i % 91}" for i in range(300)]
        cts = prov.det_encrypt_batch(texts)
        assert peer.det_decrypt_batch(cts, "text") == texts

    def test_ope_batches_match(self, prov, peer):
        values = [None] + [i * 53 % 4999 for i in range(450)]
        expected = prov.ope_encrypt_batch(values)
        assert peer.ope_encrypt_batch(values) == expected
        assert peer.ope_decrypt_batch(expected, "int") == values

    def test_rnd_crosses_providers(self, prov, peer):
        cts = prov.rnd_encrypt_batch(MIXED_VALUES)
        assert peer.rnd_decrypt_batch(cts) == MIXED_VALUES
        cts = peer.rnd_encrypt_batch(MIXED_VALUES)
        assert prov.rnd_decrypt_batch(cts) == MIXED_VALUES

    def test_search_batch_matches(self, prov, peer):
        values = [None] + [f"quick brown no {i % 13}" for i in range(200)]
        got = peer.search_encrypt_batch(values)
        assert got == prov.search_encrypt_batch(values)  # SWP tags are PRFs.
        trapdoor = prov.search_trapdoor("%brown%")
        assert all(trapdoor in tags for tags in got[1:])

    def test_paillier_crosses_providers(self, prov, peer):
        messages = [i * 997 for i in range(60)]
        cts = peer.paillier_encrypt_batch(messages)
        assert prov.paillier_decrypt_batch(cts) == messages
        cts = prov.paillier_encrypt_batch(messages)
        assert peer.paillier_decrypt_batch(cts) == messages


class TestBoundedCaches:
    def test_lru_evicts_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"
        cache.put("c", 3)  # evicts "b"
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert len(cache) == 2

    def test_provider_caches_stay_bounded(self):
        prov = CryptoProvider(MASTER_KEY, paillier_bits=256, cache_size=16)
        values = list(range(100))
        first = prov.det_encrypt_batch(values)
        assert len(prov._det_cache) <= 16
        assert len(prov._ope_cache) == 0
        # Correctness survives eviction: re-encrypting gives the same
        # ciphertexts (DET is deterministic) even though nothing is cached.
        assert prov.det_encrypt_batch(values) == first
        assert prov.det_decrypt_batch(first, "int") == values
        stats = prov.cache_stats()["det_decrypt"]
        assert stats.evictions == 100 - 16
        assert stats.entries <= stats.capacity == 16
        assert prov.det_decrypt_batch(first, "int") == values
        cts = prov.ope_encrypt_batch(values[:40])
        assert len(prov._ope_cache) <= 16
        assert prov.ope_decrypt_batch(cts, "int") == values[:40]
        assert len(prov._ope_dec_cache) <= 16

    def test_default_cache_size(self):
        prov = CryptoProvider(MASTER_KEY, paillier_bits=256)
        assert prov._det_cache.capacity == DEFAULT_CACHE_SIZE
