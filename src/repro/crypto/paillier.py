"""Paillier homomorphic encryption [20].

Paillier is MONOMI's additively homomorphic scheme (Table 1): the server can
compute ``E(a + b) = E(a) * E(b) mod n^2`` without the decryption key, which
is how ``SUM()``/``AVG()`` aggregates execute over encrypted data.  The
paper uses 1,024-bit plaintexts and 2,048-bit ciphertexts; key size is a
parameter here so tests stay fast, and the homomorphic identities hold at
any size.

Implementation notes
--------------------
* ``g = n + 1`` so encryption needs no modular exponentiation for the
  message part: ``g^m = 1 + m*n (mod n^2)``.
* Decryption uses CRT: decrypt mod ``p^2`` and mod ``q^2`` with the
  half-width exponents ``p-1`` / ``q-1``, then recombine with Garner's
  formula — roughly 4x faster than the textbook
  ``lambda = lcm(p-1, q-1)`` / ``mu`` form at 2,048-bit moduli, because
  modular exponentiation is cubic in the operand width.  The textbook path
  is kept as :meth:`PaillierPrivateKey.decrypt_textbook` (equivalence is
  tested) and as the fallback for keys constructed without factors.
* Bulk encryption goes through :class:`EncryptionPool`, a fixed-base
  precomputed-randomness source built from the private key: one
  ``base = r0^n`` at setup, then each value draws ``(r0^e)^n = base^e``
  with a short random exponent ``e`` — turning the per-value cost from a
  ``|n|``-bit into a 128-bit exponentiation.  Because the base never
  changes, that exponentiation is a fixed-base comb: ``base^(j * 2^(w*i))``
  is tabulated once per pool and a factor is the product of one table
  entry per ``w``-bit digit of ``e`` — no squarings.  The pool knows ``p``
  and ``q``, so it keeps two half-width tables (mod ``p^2`` and mod
  ``q^2``) and joins the two products with one Garner step, as decryption
  does.  The exponent draws and the factors are exactly those of
  ``pow(base, e, n^2)``.
* Keys can be generated deterministically from a seed (PRF stream) so that
  benchmark databases are reproducible.
"""

from __future__ import annotations

import math
import secrets
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from repro.common.errors import CryptoError, DomainError
from repro.crypto.prf import PRFStream
from repro.crypto.primes import generate_distinct_primes

DEFAULT_MODULUS_BITS = 2048

# Short-exponent width for the fixed-base encryption pool.  128 bits of
# randomness in the exponent keeps the obfuscation computationally fresh per
# value while costing ~|n|/128 of a full-width exponentiation.
POOL_EXPONENT_BITS = 128

# Digit width of the pool's fixed-base tables: 19 rows (18 of 128 entries,
# then 4 for the top two exponent bits) per prime, so a factor costs at most
# 19 half-width modular multiplications mod p^2 and 19 mod q^2.
POOL_WINDOW_BITS = 7


def _check_plaintext(message: int, n: int) -> None:
    if not 0 <= message < n:
        raise DomainError(
            f"Paillier plaintext out of range [0, n): message={message}, n={n}"
        )


@dataclass(frozen=True)
class PaillierPublicKey:
    """Public half of a Paillier key pair: enough to encrypt and to add."""

    n: int

    @cached_property
    def n_squared(self) -> int:
        return self.n * self.n

    def __getstate__(self) -> dict:
        # The cached square re-derives on load: a key pickles as its fields.
        return {"n": self.n}

    @property
    def plaintext_bits(self) -> int:
        """Usable plaintext payload width (the paper's 1,024 bits)."""
        return self.n.bit_length() - 1

    @property
    def ciphertext_bytes(self) -> int:
        return (self.n_squared.bit_length() + 7) // 8

    def encrypt(self, message: int, r: int | None = None) -> int:
        _check_plaintext(message, self.n)
        n2 = self.n_squared
        if r is None:
            r = secrets.randbelow(self.n - 1) + 1
        gm = (1 + message * self.n) % n2  # g^m with g = n+1
        return (gm * pow(r, self.n, n2)) % n2

    def add(self, c1: int, c2: int) -> int:
        """Homomorphic addition: E(a) (*) E(b) = E(a + b mod n)."""
        return (c1 * c2) % self.n_squared

    def add_many(self, ciphertexts: list[int]) -> int:
        """Product of many ciphertexts — one modular multiply per input.

        This is the inner loop of grouped homomorphic addition (§5.3): one
        modular multiplication per *row*, regardless of how many columns are
        packed inside each ciphertext.
        """
        if not ciphertexts:
            return self.encrypt_zero()
        acc = ciphertexts[0]
        n2 = self.n_squared
        for c in ciphertexts[1:]:
            acc = (acc * c) % n2
        return acc

    def mul_scalar(self, c: int, k: int) -> int:
        """Homomorphic scalar multiply: E(a)^k = E(k * a mod n)."""
        if k < 0:
            raise CryptoError("scalar must be non-negative")
        return pow(c, k, self.n_squared)

    def encrypt_zero(self) -> int:
        return self.encrypt(0)


@dataclass(frozen=True)
class PaillierPrivateKey:
    """Private half: can decrypt.

    ``p``/``q`` enable the CRT fast path; keys built without them (``0``)
    decrypt through the textbook ``lambda``/``mu`` form.
    """

    public: PaillierPublicKey
    lam: int
    mu: int
    p: int = 0
    q: int = 0

    @cached_property
    def _crt(self) -> tuple[int, int, int, int, int, int] | None:
        """(p2, q2, hp, hq, q_inv, q) or None when factors are unknown."""
        p, q = self.p, self.q
        if not p or not q:
            return None
        p2 = p * p
        q2 = q * q
        n = self.public.n
        # hp = L_p((n+1)^(p-1) mod p^2)^-1 mod p, and symmetrically for q.
        hp = pow((pow(n + 1, p - 1, p2) - 1) // p % p, -1, p)
        hq = pow((pow(n + 1, q - 1, q2) - 1) // q % q, -1, q)
        q_inv = pow(q, -1, p)
        return (p2, q2, hp, hq, q_inv, q)

    def decrypt(self, ciphertext: int) -> int:
        n2 = self.public.n_squared
        if not 0 <= ciphertext < n2:
            raise CryptoError("Paillier ciphertext out of range")
        crt = self._crt
        if crt is None:
            return self._decrypt_textbook_unchecked(ciphertext)
        p2, q2, hp, hq, q_inv, q = crt
        p = self.p
        mp = (pow(ciphertext, p - 1, p2) - 1) // p % p * hp % p
        mq = (pow(ciphertext, q - 1, q2) - 1) // q % q * hq % q
        # Garner recombination: m = mq + q * ((mp - mq) * q^-1 mod p).
        return mq + q * ((mp - mq) * q_inv % p)

    def decrypt_textbook(self, ciphertext: int) -> int:
        """CRT-free reference decryption (``lambda``/``mu`` form)."""
        if not 0 <= ciphertext < self.public.n_squared:
            raise CryptoError("Paillier ciphertext out of range")
        return self._decrypt_textbook_unchecked(ciphertext)

    def _decrypt_textbook_unchecked(self, ciphertext: int) -> int:
        n = self.public.n
        u = pow(ciphertext, self.lam, self.public.n_squared)
        return (_big_l(u, n) * self.mu) % n

    def decrypt_batch(self, ciphertexts: Sequence[int]) -> list[int]:
        """Decrypt many ciphertexts with CRT parameters hoisted out of the
        loop — the client-side hot path for packed-aggregate results."""
        n2 = self.public.n_squared
        crt = self._crt
        if crt is None:
            lam, mu, n = self.lam, self.mu, self.public.n
            out = []
            for c in ciphertexts:
                if not 0 <= c < n2:
                    raise CryptoError("Paillier ciphertext out of range")
                out.append((pow(c, lam, n2) - 1) // n * mu % n)
            return out
        p2, q2, hp, hq, q_inv, q = crt
        p = self.p
        out = []
        for c in ciphertexts:
            if not 0 <= c < n2:
                raise CryptoError("Paillier ciphertext out of range")
            mp = (pow(c, p - 1, p2) - 1) // p % p * hp % p
            mq = (pow(c, q - 1, q2) - 1) // q % q * hq % q
            out.append(mq + q * ((mp - mq) * q_inv % p))
        return out


class EncryptionPool:
    """Precomputed-randomness source for bulk Paillier encryption.

    Draws a secret random ``r0`` once and serves per-value obfuscation
    factors ``base^e mod n^2`` with ``base = r0^n`` for short random
    exponents ``e`` — each factor equals ``(r0^e)^n``, i.e. valid Paillier
    randomness for the (uniformly unknown) value ``r0^e``.

    Built from the private key: everything is computed mod ``p^2`` and mod
    ``q^2``, where operands are half as wide, and one Garner step per
    factor lifts the pair back to the unique value mod ``n^2``.
    ``_rows[i]`` holds the pair of rows ``base^(j * 2^(POOL_WINDOW_BITS *
    i))`` mod ``p^2`` and mod ``q^2``, so ``base^e`` is the product of one
    entry per digit of ``e`` in each half.
    """

    def __init__(self, private: PaillierPrivateKey, seed: bytes | None = None) -> None:
        p, q = private.p, private.q
        if not p or not q:
            raise CryptoError("an encryption pool needs a private key with p and q")
        self.public = public = private.public
        self._p2 = p2 = p * p
        self._q2 = q2 = q * q
        self._q2_inv = pow(q2, -1, p2)
        self._stream = PRFStream(seed, b"paillier-pool") if seed is not None else None
        r0 = self._random_below(public.n - 1) + 1
        self._rows = list(
            zip(
                _comb_rows(pow(r0, public.n, p2), p2),
                _comb_rows(pow(r0, public.n, q2), q2),
            )
        )

    def _random_below(self, bound: int) -> int:
        if self._stream is not None:
            return self._stream.next_below(bound)
        return secrets.randbelow(bound)

    def factor(self) -> int:
        """One obfuscation factor ``r^n mod n^2`` (short-exponent path)."""
        e = self._random_below((1 << POOL_EXPONENT_BITS) - 1) + 1
        p2, q2 = self._p2, self._q2
        mask = (1 << POOL_WINDOW_BITS) - 1
        acc_p = acc_q = 1
        for row_p, row_q in self._rows:
            digit = e & mask
            if digit:
                acc_p = acc_p * row_p[digit] % p2
                acc_q = acc_q * row_q[digit] % q2
            e >>= POOL_WINDOW_BITS
        # Garner: the x < n^2 with x = acc_p (mod p^2) and x = acc_q (mod q^2).
        return acc_q + q2 * ((acc_p - acc_q) * self._q2_inv % p2)

    def encrypt_batch(self, messages: Sequence[int]) -> list[int]:
        """Encrypt many plaintexts, one pool factor each."""
        n = self.public.n
        n2 = self.public.n_squared
        factor = self.factor
        out: list[int] = []
        for message in messages:
            _check_plaintext(message, n)
            out.append(((1 + message * n) * factor()) % n2)
        return out


def _comb_rows(base: int, modulus: int) -> list[list[int]]:
    """``rows[i][j] = base^(j * 2^(POOL_WINDOW_BITS * i)) mod modulus``.

    The last row is only as long as the exponent bits it covers.
    """
    rows: list[list[int]] = []
    power = base
    for low in range(0, POOL_EXPONENT_BITS, POOL_WINDOW_BITS):
        width = min(POOL_WINDOW_BITS, POOL_EXPONENT_BITS - low)
        row = [1]
        for _ in range((1 << width) - 1):
            row.append(row[-1] * power % modulus)
        rows.append(row)
        power = row[-1] * power % modulus
    return rows


def generate_keypair(
    modulus_bits: int = DEFAULT_MODULUS_BITS, seed: bytes | None = None
) -> tuple[PaillierPublicKey, PaillierPrivateKey]:
    """Generate a Paillier key pair with an approximately ``modulus_bits`` n.

    With ``seed``, generation is deterministic (reproducible benchmarks).
    """
    if modulus_bits < 64:
        raise CryptoError(f"modulus too small: {modulus_bits} bits")
    stream = PRFStream(seed, b"paillier-keygen") if seed is not None else None
    p, q = generate_distinct_primes(modulus_bits // 2, stream)
    n = p * q
    lam = math.lcm(p - 1, q - 1)
    n2 = n * n
    g_lam = pow(n + 1, lam, n2)
    mu = pow(_big_l(g_lam, n), -1, n)
    public = PaillierPublicKey(n=n)
    return public, PaillierPrivateKey(public=public, lam=lam, mu=mu, p=p, q=q)


def _big_l(u: int, n: int) -> int:
    """Paillier's L function: L(u) = (u - 1) / n, exact by construction."""
    return (u - 1) // n
