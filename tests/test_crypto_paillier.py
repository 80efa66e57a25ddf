"""Paillier and packed-aggregation tests (homomorphism properties)."""

from __future__ import annotations

import hashlib
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import CryptoError, DomainError
from repro.crypto.packing import (
    GroupedHomomorphicAggregator,
    PackedLayout,
    decrypt_column_sums,
)
from repro.crypto.paillier import (
    EncryptionPool,
    PaillierPrivateKey,
    PaillierPublicKey,
    generate_keypair,
)

SEED = b"paillier-test-seed"


@pytest.fixture(scope="module")
def keypair():
    return generate_keypair(modulus_bits=384, seed=SEED)


class TestPaillier:
    def test_roundtrip(self, keypair):
        pub, priv = keypair
        for m in (0, 1, 42, 10**20):
            assert priv.decrypt(pub.encrypt(m)) == m

    @given(st.integers(min_value=0, max_value=10**30), st.integers(min_value=0, max_value=10**30))
    @settings(max_examples=20, deadline=None)
    def test_additive_homomorphism(self, keypair, a, b):
        pub, priv = keypair
        assert priv.decrypt(pub.add(pub.encrypt(a), pub.encrypt(b))) == a + b

    def test_scalar_multiplication(self, keypair):
        pub, priv = keypair
        assert priv.decrypt(pub.mul_scalar(pub.encrypt(7), 13)) == 91

    def test_add_many_matches_sequential(self, keypair):
        pub, priv = keypair
        values = [3, 14, 15, 92, 65]
        cts = [pub.encrypt(v) for v in values]
        assert priv.decrypt(pub.add_many(cts)) == sum(values)

    def test_randomized_ciphertexts(self, keypair):
        pub, _ = keypair
        assert pub.encrypt(5) != pub.encrypt(5)

    def test_deterministic_keygen(self):
        pub1, _ = generate_keypair(modulus_bits=256, seed=b"same-seed")
        pub2, _ = generate_keypair(modulus_bits=256, seed=b"same-seed")
        assert pub1.n == pub2.n

    def test_domain_errors(self, keypair):
        pub, priv = keypair
        with pytest.raises(DomainError):
            pub.encrypt(pub.n)
        with pytest.raises(CryptoError):
            priv.decrypt(pub.n_squared)
        with pytest.raises(CryptoError):
            generate_keypair(modulus_bits=32)

    def test_plaintext_bits(self, keypair):
        pub, _ = keypair
        assert pub.plaintext_bits == pub.n.bit_length() - 1

    def test_cached_square_leaves_equality_hash_and_pickle_alone(self, keypair):
        pub, _ = keypair
        fresh = PaillierPublicKey(n=pub.n)
        fresh_pickle = pickle.dumps(fresh)
        assert fresh.n_squared == pub.n * pub.n
        assert "n_squared" in vars(fresh)  # computed once, then read back
        assert fresh == PaillierPublicKey(n=pub.n)
        assert hash(fresh) == hash(PaillierPublicKey(n=pub.n))
        assert pickle.dumps(fresh) == fresh_pickle
        clone = pickle.loads(fresh_pickle)
        assert clone == fresh and clone.n_squared == fresh.n_squared


#: SHA-256 over the first 16 factors (big-endian, ``ciphertext_bytes`` wide)
#: of ``EncryptionPool(seed=b"golden-pool-seed")`` under the key
#: ``generate_keypair(bits, seed=b"golden-key-<bits>")``, computed mod ``n^2``
#: by the full-width comb: the half-width pool must reproduce them exactly.
GOLDEN_POOL_FACTORS = {
    384: "0b07cfe0396eff7cc4237177ef1d869cc0064eaacf92ea65949c003e8cbd4c3b",
    512: "fa3693fb82eef35a57dc2bae2b90cfff98012f02a19d3ed52022bff9a8631238",
    2048: "422c11d9acb6d2bcf05ee33f6ced2ba8e14554495a5700d04415465bbaff839d",
}


class TestEncryptionPool:
    @pytest.mark.parametrize("bits", sorted(GOLDEN_POOL_FACTORS))
    def test_golden_factors(self, bits):
        pub, priv = generate_keypair(bits, seed=b"golden-key-%d" % bits)
        pool = EncryptionPool(priv, seed=b"golden-pool-seed")
        factors = b"".join(
            pool.factor().to_bytes(pub.ciphertext_bytes, "big") for _ in range(16)
        )
        assert hashlib.sha256(factors).hexdigest() == GOLDEN_POOL_FACTORS[bits]

    def test_key_without_factors_rejected(self, keypair):
        _, priv = keypair
        bare = PaillierPrivateKey(public=priv.public, lam=priv.lam, mu=priv.mu)
        with pytest.raises(CryptoError):
            EncryptionPool(bare)


class TestPackedLayout:
    def test_layout_geometry(self):
        layout = PackedLayout(column_bits=(32, 16), pad_bits=8, plaintext_bits=383)
        assert layout.row_bits == (32 + 8) + (16 + 8)
        assert layout.rows_per_ciphertext == 383 // 64

    def test_encode_decode_rows(self):
        layout = PackedLayout(column_bits=(20, 20), pad_bits=6, plaintext_bits=383)
        rows = [[5, 10], [1000, 1], [0, 99]]
        assert layout.decode_rows(layout.encode_rows(rows), 3) == rows

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**20 - 1),
                st.integers(min_value=0, max_value=2**16 - 1),
            ),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=40)
    def test_column_sums_property(self, rows):
        layout = PackedLayout(column_bits=(20, 16), pad_bits=10, plaintext_bits=400)
        rows = rows[: layout.rows_per_ciphertext]
        plaintext = layout.encode_rows([list(r) for r in rows])
        sums = layout.decode_column_sums(plaintext)
        assert sums[0] == sum(r[0] for r in rows)
        assert sums[1] == sum(r[1] for r in rows)

    def test_rejects_overwide_value(self):
        layout = PackedLayout(column_bits=(8,), pad_bits=4, plaintext_bits=100)
        with pytest.raises(DomainError):
            layout.encode_rows([[256]])

    def test_rejects_negative(self):
        layout = PackedLayout(column_bits=(8,), pad_bits=4, plaintext_bits=100)
        with pytest.raises(DomainError):
            layout.encode_rows([[-1]])

    def test_rejects_too_many_rows(self):
        layout = PackedLayout(column_bits=(8,), pad_bits=4, plaintext_bits=24)
        assert layout.rows_per_ciphertext == 2
        with pytest.raises(DomainError):
            layout.encode_rows([[1], [2], [3]])

    def test_row_must_fit_plaintext(self):
        with pytest.raises(CryptoError):
            PackedLayout(column_bits=(100,), pad_bits=30, plaintext_bits=64)


class TestGroupedHomomorphicAddition:
    def test_grouped_addition_one_multiply_per_row(self, keypair):
        pub, priv = keypair
        layout = PackedLayout(column_bits=(16, 16, 16), pad_bits=8, plaintext_bits=pub.plaintext_bits)
        agg = GroupedHomomorphicAggregator(pub, layout)
        rows = [[1, 2, 3], [10, 20, 30], [100, 200, 300]]
        for row in rows:
            agg.add_ciphertext("g1", pub.encrypt(layout.encode_rows([row])))
        assert agg.multiplications == len(rows) - 1
        sums = decrypt_column_sums(priv, layout, agg.accumulated()["g1"])
        assert sums == [111, 222, 333]

    def test_multiple_groups_isolated(self, keypair):
        pub, priv = keypair
        layout = PackedLayout(column_bits=(16,), pad_bits=8, plaintext_bits=pub.plaintext_bits)
        agg = GroupedHomomorphicAggregator(pub, layout)
        agg.add_ciphertext("a", pub.encrypt(layout.encode_rows([[5]])))
        agg.add_ciphertext("b", pub.encrypt(layout.encode_rows([[7]])))
        agg.add_ciphertext("a", pub.encrypt(layout.encode_rows([[5]])))
        accumulated = agg.accumulated()
        assert decrypt_column_sums(priv, layout, accumulated["a"])[0] == 10
        assert decrypt_column_sums(priv, layout, accumulated["b"])[0] == 7

    def test_layout_wider_than_key_rejected(self, keypair):
        pub, _ = keypair
        layout = PackedLayout(column_bits=(16,), pad_bits=8, plaintext_bits=pub.plaintext_bits + 64)
        with pytest.raises(CryptoError):
            GroupedHomomorphicAggregator(pub, layout)

    def test_max_safe_rows(self):
        layout = PackedLayout(column_bits=(8,), pad_bits=10, plaintext_bits=100)
        assert layout.max_safe_rows() == 1 << 10
