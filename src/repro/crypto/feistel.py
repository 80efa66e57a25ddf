"""Variable-width Feistel pseudo-random permutations.

Two PRPs are built here:

* :class:`FeistelPRP` — a balanced Feistel network over *byte strings* of a
  fixed length, with HMAC-SHA256 round functions.  This is the wide-block
  permutation behind our deterministic encryption (the paper uses CMC mode
  [17] plus ciphertext stealing for the same purpose: a PRP whose ciphertext
  is exactly as long as the plaintext).

* :class:`IntegerPRP` — a Feistel permutation over the integer domain
  ``[0, 2**nbits)``, the core of FFX-style format-preserving encryption
  (cycle-walking in :mod:`repro.crypto.ffx` narrows it to arbitrary ranges).

Ten rounds are used; four suffice for a strong PRP by Luby–Rackoff, the
extra rounds cover the unbalanced small-domain cases.

Round keys are held as :class:`~repro.crypto.prf.KeyedPRF` pad states, so
each round function costs two SHA-256 compressions instead of four.
:class:`IntegerPRP` computes every round — scalar or batch, encrypt or
decrypt — in one kernel, :meth:`IntegerPRP._round_column`, which loops a
round **over the whole column** with the round key, widths and shift bound
once and no Python-level call per value; that is what the FFX and DET
column paths ride.
"""

from __future__ import annotations

from typing import Sequence

from repro.common.errors import CryptoError
from repro.crypto.prf import KeyedPRF, prf

_ROUNDS = 10


class FeistelPRP:
    """Length-preserving PRP over byte strings of length >= 2."""

    def __init__(self, key: bytes, tweak: bytes = b"") -> None:
        if not key:
            raise CryptoError("key must be non-empty")
        self._round_prfs = [
            KeyedPRF(prf(key, b"feistel-bytes|%d|" % i + tweak))
            for i in range(_ROUNDS)
        ]

    def _round(self, i: int, half: bytes, width: int) -> bytes:
        digest_fn = self._round_prfs[i].digest
        digest = b""
        counter = 0
        while len(digest) < width:
            digest += digest_fn(half + counter.to_bytes(2, "big"))
            counter += 1
        return digest[:width]

    def encrypt(self, data: bytes) -> bytes:
        left, right = self._split(data)
        for i in range(_ROUNDS):
            left, right = right, _xor(left, self._round(i, right, len(left)))
        return left + right

    def decrypt(self, data: bytes) -> bytes:
        left, right = self._split(data)
        for i in reversed(range(_ROUNDS)):
            left, right = _xor(right, self._round(i, left, len(right))), left
        return left + right

    @staticmethod
    def _split(data: bytes) -> tuple[bytes, bytes]:
        if len(data) < 2:
            raise CryptoError("FeistelPRP requires at least 2 bytes")
        mid = len(data) // 2
        return data[:mid], data[mid:]


class IntegerPRP:
    """PRP over ``[0, 2**nbits)`` via an alternating unbalanced Feistel.

    The domain is split into a left half of ``ceil(nbits/2)`` bits and a
    right half of ``floor(nbits/2)`` bits; halves swap widths every round
    (FFX "method 2" structure).  With an even round count the output widths
    line up with the input widths again.
    """

    def __init__(self, key: bytes, nbits: int, tweak: bytes = b"") -> None:
        if nbits < 2:
            raise CryptoError(f"IntegerPRP needs nbits >= 2, got {nbits}")
        self.nbits = nbits
        self._left_bits = nbits - nbits // 2
        self._right_bits = nbits // 2
        self._msg_bytes = (nbits + 7) // 8 + 1
        self._round_prfs = [
            KeyedPRF(prf(key, b"feistel-int|%d|%d|" % (nbits, i) + tweak))
            for i in range(_ROUNDS)
        ]

    def _round_column(
        self, i: int, inputs: Sequence[int], masks: Sequence[int], out_bits: int
    ) -> list[int]:
        """Round ``i`` over a column: ``masks[j] ^ F_i(inputs[j])``, with
        ``F_i`` the round PRF truncated to its top ``out_bits`` bits.

        The one place Feistel rounds are computed.  Everything that is
        constant across the column — the round key's two HMAC pad states,
        the message width, the truncation shift — is bound once, and the
        loop body is C-level calls only: two state copies, two updates,
        two digests.  Bit-identical to ``digest_int`` per value.
        """
        keyed = self._round_prfs[i]
        msg_bytes = self._msg_bytes
        if out_bits > 256:  # A half wider than one digest: counter mode.
            digest_int = keyed.digest_int
            return [
                mask ^ digest_int(value.to_bytes(msg_bytes, "big"), out_bits)
                for value, mask in zip(inputs, masks)
            ]
        inner_copy = keyed._inner.copy
        outer_copy = keyed._outer.copy
        from_bytes = int.from_bytes
        # digest_int's message is the value followed by a zero 4-byte
        # counter: one wider to_bytes of the shifted value builds both.
        width = msg_bytes + 4
        shift = 256 - out_bits
        out: list[int] = []
        append = out.append
        for value, mask in zip(inputs, masks):
            inner = inner_copy()
            inner.update((value << 32).to_bytes(width, "big"))
            outer = outer_copy()
            outer.update(inner.digest())
            append(mask ^ (from_bytes(outer.digest(), "big") >> shift))
        return out

    def encrypt(self, value: int) -> int:
        return self.encrypt_batch((value,))[0]

    def decrypt(self, value: int) -> int:
        return self.decrypt_batch((value,))[0]

    def encrypt_batch(self, values: Sequence[int]) -> list[int]:
        """Column-wise encryption: rounds loop over the whole batch."""
        for value in values:
            self._check(value)
        l_bits, r_bits = self._left_bits, self._right_bits
        mask = (1 << r_bits) - 1
        lefts = [value >> r_bits for value in values]
        rights = [value & mask for value in values]
        for i in range(_ROUNDS):
            lefts, rights = rights, self._round_column(i, rights, lefts, l_bits)
            l_bits, r_bits = r_bits, l_bits
        return [(left << r_bits) | right for left, right in zip(lefts, rights)]

    def decrypt_batch(self, values: Sequence[int]) -> list[int]:
        """Column-wise decryption: rounds loop over the whole batch."""
        for value in values:
            self._check(value)
        l_bits, r_bits = self._left_bits, self._right_bits
        mask = (1 << r_bits) - 1
        lefts = [value >> r_bits for value in values]
        rights = [value & mask for value in values]
        for i in reversed(range(_ROUNDS)):
            # r_bits is the width of the left half this round recovers.
            lefts, rights = self._round_column(i, lefts, rights, r_bits), lefts
            l_bits, r_bits = r_bits, l_bits
        return [(left << r_bits) | right for left, right in zip(lefts, rights)]

    def _check(self, value: int) -> None:
        if not 0 <= value < (1 << self.nbits):
            raise CryptoError(
                f"value {value} outside PRP domain [0, 2**{self.nbits})"
            )


def _xor(a: bytes, b: bytes) -> bytes:
    # One wide-integer XOR instead of a per-byte generator (hot in every
    # DET/FFX round).
    n = len(a)
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(n, "big")
