"""Unit + property tests for PRF, primes, AES, and Feistel PRPs."""

from __future__ import annotations

import hashlib
import hmac
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import CryptoError
from repro.crypto.aes import AES128
from repro.crypto.feistel import FeistelPRP, IntegerPRP
from repro.crypto.prf import KeyedPRF, PRFStream, derive_key, prf, prf_int
from repro.crypto.primes import generate_prime, is_probable_prime
from repro.testkit import MASTER_KEY

KEY = b"0123456789abcdef"


def _hmac_int(key: bytes, message: bytes, nbits: int) -> int:
    """Counter-mode integer PRF written against the stdlib ``hmac`` — the
    reference :class:`KeyedPRF` and the Feistel round kernel must match."""
    nbytes = (nbits + 7) // 8
    out = b""
    counter = 0
    while len(out) < nbytes:
        out += hmac.new(
            key, message + counter.to_bytes(4, "big"), hashlib.sha256
        ).digest()
        counter += 1
    return int.from_bytes(out[:nbytes], "big") >> (nbytes * 8 - nbits)


def _reference_prp_encrypt(
    key: bytes, nbits: int, value: int, tweak: bytes = b""
) -> int:
    """:class:`IntegerPRP` as one value-at-a-time loop over stdlib HMAC."""
    msg_bytes = (nbits + 7) // 8 + 1
    l_bits, r_bits = nbits - nbits // 2, nbits // 2
    left, right = value >> r_bits, value & ((1 << r_bits) - 1)
    for i in range(10):
        round_key = hmac.new(
            key, b"feistel-int|%d|%d|" % (nbits, i) + tweak, hashlib.sha256
        ).digest()
        f = _hmac_int(round_key, right.to_bytes(msg_bytes, "big"), l_bits)
        left, right = right, left ^ f
        l_bits, r_bits = r_bits, l_bits
    return (left << r_bits) | right


class TestPrf:
    def test_deterministic(self):
        assert prf(KEY, b"msg") == prf(KEY, b"msg")

    def test_key_separation(self):
        assert prf(KEY, b"msg") != prf(b"fedcba9876543210", b"msg")

    def test_message_separation(self):
        assert prf(KEY, b"a") != prf(KEY, b"b")

    def test_prf_int_width(self):
        for nbits in (1, 7, 8, 9, 63, 64, 65, 257):
            value = prf_int(KEY, b"m", nbits)
            assert 0 <= value < (1 << nbits)

    def test_prf_int_rejects_nonpositive(self):
        with pytest.raises(CryptoError):
            prf_int(KEY, b"m", 0)

    def test_derive_key_path_sensitivity(self):
        assert derive_key(KEY, "a", "b") != derive_key(KEY, "ab")
        assert derive_key(KEY, "t", "col", "det") != derive_key(KEY, "t", "col", "ope")

    def test_derive_key_rejects_empty_master(self):
        with pytest.raises(CryptoError):
            derive_key(b"", "x")


class TestKeyedPRFBitIdentity:
    """The pad-state PRF is HMAC-SHA256, bit for bit."""

    # Keys past 64 bytes take HMAC's pre-hash branch.
    @given(st.binary(min_size=1, max_size=200), st.binary(max_size=300))
    @settings(max_examples=200)
    def test_digest_is_hmac_sha256(self, key, message):
        expected = hmac.new(key, message, hashlib.sha256).digest()
        assert KeyedPRF(key).digest(message) == expected
        assert prf(key, message) == expected

    @given(st.binary(max_size=40), st.integers(min_value=1, max_value=600))
    @settings(max_examples=200)
    def test_digest_int_is_counter_mode_hmac(self, message, nbits):
        expected = _hmac_int(KEY, message, nbits)
        assert KeyedPRF(KEY).digest_int(message, nbits) == expected
        assert prf_int(KEY, message, nbits) == expected

    def test_block_boundary_keys(self):
        for size in (63, 64, 65, 128):
            key = bytes(range(size))
            assert KeyedPRF(key).digest(b"m") == hmac.new(
                key, b"m", hashlib.sha256
            ).digest()

    def test_pickles_by_key(self):
        keyed = KeyedPRF(KEY)
        assert pickle.dumps(keyed).count(KEY) == 1
        clone = pickle.loads(pickle.dumps(keyed))
        assert clone.key == KEY
        assert clone.digest(b"m") == keyed.digest(b"m")
        assert clone.digest_int(b"m", 300) == keyed.digest_int(b"m", 300)

    def test_rejects_empty_key(self):
        with pytest.raises(CryptoError):
            KeyedPRF(b"")

    def test_stream_blocks_are_hmac(self):
        expected = b"".join(
            hmac.new(KEY, b"tw" + n.to_bytes(8, "big"), hashlib.sha256).digest()
            for n in range(3)
        )
        assert PRFStream(KEY, b"tw").next_bytes(96) == expected


class TestPrfStream:
    def test_reproducible(self):
        a = PRFStream(KEY, b"tweak")
        b = PRFStream(KEY, b"tweak")
        assert a.next_bytes(100) == b.next_bytes(100)

    def test_tweak_separation(self):
        a = PRFStream(KEY, b"t1")
        b = PRFStream(KEY, b"t2")
        assert a.next_bytes(32) != b.next_bytes(32)

    @given(st.integers(min_value=1, max_value=10**9))
    def test_next_below_in_range(self, bound):
        stream = PRFStream(KEY, b"nb")
        for _ in range(5):
            assert 0 <= stream.next_below(bound) < bound

    def test_next_unit_in_range(self):
        stream = PRFStream(KEY, b"u")
        for _ in range(100):
            u = stream.next_unit()
            assert 0.0 <= u < 1.0


class TestPrimes:
    def test_small_primes(self):
        assert is_probable_prime(2)
        assert is_probable_prime(97)
        assert not is_probable_prime(1)
        assert not is_probable_prime(100)

    def test_carmichael_rejected(self):
        assert not is_probable_prime(561)
        assert not is_probable_prime(41041)

    def test_generate_prime_size(self):
        p = generate_prime(96)
        assert p.bit_length() == 96
        assert is_probable_prime(p)

    def test_generate_deterministic_with_stream(self):
        a = generate_prime(64, PRFStream(KEY, b"p"))
        b = generate_prime(64, PRFStream(KEY, b"p"))
        assert a == b


class TestAES:
    def test_fips_197_vector(self):
        cipher = AES128(bytes(range(16)))
        ct = cipher.encrypt_block(bytes.fromhex("00112233445566778899aabbccddeeff"))
        assert ct.hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"

    def test_appendix_b_vector(self):
        cipher = AES128(bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"))
        ct = cipher.encrypt_block(bytes.fromhex("3243f6a8885a308d313198a2e0370734"))
        assert ct.hex() == "3925841d02dc09fbdc118597196a0b32"

    @given(st.binary(min_size=16, max_size=16))
    @settings(max_examples=25)
    def test_roundtrip(self, block):
        cipher = AES128(KEY)
        assert cipher.decrypt_block(cipher.encrypt_block(block)) == block

    def test_rejects_bad_key_and_block(self):
        with pytest.raises(CryptoError):
            AES128(b"short")
        with pytest.raises(CryptoError):
            AES128(KEY).encrypt_block(b"short")


class TestFeistelPRP:
    @given(st.binary(min_size=2, max_size=64))
    @settings(max_examples=50)
    def test_roundtrip(self, data):
        prp = FeistelPRP(KEY)
        assert prp.decrypt(prp.encrypt(data)) == data

    def test_length_preserving(self):
        prp = FeistelPRP(KEY)
        for n in (2, 3, 17, 31):
            assert len(prp.encrypt(b"x" * n)) == n

    def test_tweak_changes_permutation(self):
        a = FeistelPRP(KEY, tweak=b"1").encrypt(b"hello world!")
        b = FeistelPRP(KEY, tweak=b"2").encrypt(b"hello world!")
        assert a != b

    def test_rejects_tiny_input(self):
        with pytest.raises(CryptoError):
            FeistelPRP(KEY).encrypt(b"x")

    def test_golden_vector(self):
        # Computed before the PRF moved off hmac.py; wide DET ciphertexts
        # on the server depend on it.
        prp = FeistelPRP(MASTER_KEY, b"tw")
        plain = b"The quick brown fox jumps over the lazy dog"
        golden = bytes.fromhex(
            "4f7bcb05da4dc964d176ce542da6e1bb24a42b9cc1c522a9033200128806e4db"
            "03eddff034630ee63037b6"
        )
        assert prp.encrypt(plain) == golden
        assert prp.decrypt(golden) == plain


class TestIntegerPRP:
    @pytest.mark.parametrize("nbits", [2, 3, 5, 8, 13, 31, 64, 127])
    def test_roundtrip(self, nbits):
        prp = IntegerPRP(KEY, nbits)
        for value in (0, 1, (1 << nbits) - 1, (1 << nbits) // 3):
            ct = prp.encrypt(value)
            assert 0 <= ct < (1 << nbits)
            assert prp.decrypt(ct) == value

    @pytest.mark.parametrize("nbits", [2, 4, 6, 8])
    def test_is_permutation(self, nbits):
        prp = IntegerPRP(KEY, nbits)
        images = sorted(prp.encrypt(v) for v in range(1 << nbits))
        assert images == list(range(1 << nbits))

    def test_domain_check(self):
        prp = IntegerPRP(KEY, 8)
        with pytest.raises(CryptoError):
            prp.encrypt(256)
        with pytest.raises(CryptoError):
            prp.encrypt(-1)
        with pytest.raises(CryptoError):
            prp.decrypt_batch([3, 256])

    # 513+ bits puts a half past one digest: the kernel's counter-mode leg.
    @pytest.mark.parametrize("nbits", [2, 3, 17, 48, 96, 511, 512, 513, 600])
    def test_round_kernel_matches_reference_loop(self, nbits):
        prp = IntegerPRP(KEY, nbits, tweak=b"t")
        top = (1 << nbits) - 1
        values = [0, 1, top, top // 3, top // 7, 1, 0]
        expected = [_reference_prp_encrypt(KEY, nbits, v, b"t") for v in values]
        assert prp.encrypt_batch(values) == expected
        assert [prp.encrypt(v) for v in values] == expected
        assert prp.decrypt_batch(expected) == values
        assert [prp.decrypt(c) for c in expected] == values

    def test_golden_vectors(self):
        # Computed before the round kernel landed.
        assert IntegerPRP(MASTER_KEY, 17, tweak=b"t").encrypt(99999) == 62126
        assert IntegerPRP(MASTER_KEY, 48).encrypt((1 << 47) + 12345) == 270215181451007
        assert IntegerPRP(MASTER_KEY, 2).encrypt(3) == 0
        wide = IntegerPRP(MASTER_KEY, 600)
        golden = int(
            "1995206330091657396135798575037457624490070401234047285988236121"
            "3632596957314859446576554448472865408209731454654357525154585904"
            "54118138376276381595325844638486182310779734760634620"
        )
        assert wide.encrypt(12345678901234567890) == golden
        assert wide.decrypt(golden) == 12345678901234567890
