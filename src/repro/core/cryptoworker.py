"""Process-side half of :class:`~repro.core.encdata.CryptoProvider`'s pool.

Worker processes cannot receive the parent's provider (it owns live pool
handles); instead each worker builds its **own** provider once, at pool
startup, from the same master key — every symmetric key re-derives to the
same bytes, and the (expensive) Paillier key pair is shipped in rather
than re-generated, so a worker is crypto-identical to the parent by
construction.  DET/OPE/RND/SEARCH and Paillier *decryption* are
deterministic functions of the keys, which is what makes sharded batches
element-wise identical to serial ones.  Paillier *encryption* randomness
deliberately differs per worker: each process builds a fresh
:class:`~repro.crypto.paillier.EncryptionPool` from the shipped private
key, seeded from OS randomness, so two workers never repeat obfuscation
factors (same argument as the parent's unseeded pool).  The pool itself is
never pickled; only the key crosses the process boundary.

Workers run on the trusted client side — holding the private key here
(and using its factors for the half-width encryption tables) is the same
trust the parent process already has (§3: the client library is the only
key holder).

Everything in this module must stay importable at module scope: the pool
pickles ``init_worker`` / ``run_chunk`` by reference, under fork and
spawn start methods alike.
"""

from __future__ import annotations

from repro.common.errors import CryptoError

# One provider per worker process, installed by :func:`init_worker`.
_PROVIDER = None


def init_worker(
    master_key: bytes,
    paillier_bits: int,
    ope_expansion_bits: int,
    cache_size: int,
    paillier_keys: tuple,
    pivot_cache_size: int | None = None,
) -> None:
    """Build this process' serial provider (runs once per worker)."""
    global _PROVIDER
    from repro.core.encdata import DEFAULT_PIVOT_CACHE, CryptoProvider

    _PROVIDER = CryptoProvider(
        master_key,
        paillier_bits=paillier_bits,
        ope_expansion_bits=ope_expansion_bits,
        cache_size=cache_size,
        workers=1,
        paillier_keys=paillier_keys,
        pivot_cache_size=(
            DEFAULT_PIVOT_CACHE if pivot_cache_size is None else pivot_cache_size
        ),
    )


def run_chunk(task: tuple) -> list:
    """Run one sharded batch op: ``(op, sql_type_or_None, values)``."""
    op, sql_type, values = task
    provider = _PROVIDER
    if provider is None:
        raise CryptoError("crypto worker used before init_worker ran")
    if op == "det_encrypt":
        return provider.det_encrypt_batch(values)
    if op == "det_decrypt":
        return provider.det_decrypt_batch(values, sql_type)
    if op == "ope_encrypt":
        return provider.ope_encrypt_batch(values)
    if op == "ope_decrypt":
        return provider.ope_decrypt_batch(values, sql_type)
    if op == "rnd_encrypt":
        return provider.rnd_encrypt_batch(values)
    if op == "rnd_decrypt":
        return provider.rnd_decrypt_batch(values)
    if op == "search_encrypt":
        return provider.search_encrypt_batch(values)
    if op == "paillier_encrypt":
        return provider.paillier_encrypt_batch(values)
    if op == "paillier_decrypt":
        return provider.paillier_decrypt_batch(values)
    raise CryptoError(f"unknown crypto worker op {op!r}")
