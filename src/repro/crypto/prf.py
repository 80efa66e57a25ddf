"""Keyed pseudo-random functions and key derivation.

All higher-level schemes (DET, OPE, FFX, SEARCH) consume randomness through
the primitives in this module so that a single master key deterministically
derives every per-column subkey — the same key-management structure the
MONOMI client library uses.

The PRF is HMAC-SHA256; a PRF-keyed deterministic stream
(:class:`PRFStream`) supplies the "coins" for lazy-sampled OPE.

HMAC from precomputed pad states
--------------------------------
``HMAC(k, m) = H((k ^ opad) || H((k ^ ipad) || m))``.  Absorbing the two
64-byte pads is two of the four SHA-256 compressions a short message
costs, and both depend on the key alone, so :class:`KeyedPRF` absorbs
them once into two raw ``hashlib.sha256`` states and every digest is
``outer.copy().update(inner.copy().update(m).digest()).digest()`` — bit
for bit what ``hmac.new(k, m, sha256).digest()`` returns (property-tested
against the stdlib), without the ``hmac.py`` wrapper objects whose Python
method calls used to outweigh the hashing itself.  The states are exposed
to :mod:`repro.crypto.feistel`, whose round kernel copies them directly
inside its column loop.

There is one implementation: :func:`prf`, :func:`prf_int` and
:class:`PRFStream` all go through a :class:`KeyedPRF` taken from a bounded
per-process table keyed by raw key bytes, so one-shot callers share the
absorbed pads with no API change.
"""

from __future__ import annotations

import hashlib

from repro.common.errors import CryptoError

KEY_BYTES = 16

_BLOCK_BYTES = 64  # SHA-256 block size, the HMAC pad width.
_IPAD = bytes(byte ^ 0x36 for byte in range(256))
_OPAD = bytes(byte ^ 0x5C for byte in range(256))


class KeyedPRF:
    """HMAC-SHA256 under one key, with both pad states absorbed once.

    ``digest`` is equivalent to ``prf(key, message)``; ``digest_int`` to
    ``prf_int(key, message, nbits)``.  Instances pickle by key (the pad
    states re-derive on load), so ciphers holding them stay shippable to
    worker processes.
    """

    __slots__ = ("key", "_inner", "_outer")

    def __init__(self, key: bytes) -> None:
        if not key:
            raise CryptoError("key must be non-empty")
        self.__setstate__(key)

    def digest(self, message: bytes) -> bytes:
        inner = self._inner.copy()
        inner.update(message)
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.digest()

    def digest_int(self, message: bytes, nbits: int) -> int:
        """The top ``nbits`` bits of the PRF output as an integer.

        For outputs longer than one digest, the PRF is iterated in counter
        mode (a 4-byte big-endian counter appended to ``message``).
        """
        if nbits <= 0:
            raise CryptoError(f"nbits must be positive, got {nbits}")
        digest = self.digest
        blocks = (nbits + 255) // 256
        out = b"".join(
            digest(message + counter.to_bytes(4, "big")) for counter in range(blocks)
        )
        return int.from_bytes(out, "big") >> (blocks * 256 - nbits)

    def __getstate__(self) -> bytes:
        return self.key

    def __setstate__(self, key: bytes) -> None:
        self.key = key
        # HMAC's key schedule: keys longer than a block are hashed first,
        # then zero-padded to the block and XORed into each pad.
        if len(key) > _BLOCK_BYTES:
            key = hashlib.sha256(key).digest()
        block = key.ljust(_BLOCK_BYTES, b"\x00")
        self._inner = hashlib.sha256(block.translate(_IPAD))
        self._outer = hashlib.sha256(block.translate(_OPAD))


# One KeyedPRF per raw key for the function-style API below.  Keys are few
# and long-lived (one per column/scheme/round), but adversarial churn (many
# short-lived providers in tests) is bounded by wholesale reset.
_TEMPLATE_LIMIT = 1024
_TEMPLATES: dict[bytes, KeyedPRF] = {}


def _keyed(key: bytes) -> KeyedPRF:
    keyed = _TEMPLATES.get(key)
    if keyed is None:
        if len(_TEMPLATES) >= _TEMPLATE_LIMIT:
            _TEMPLATES.clear()
        keyed = _TEMPLATES[key] = KeyedPRF(key)
    return keyed


def prf(key: bytes, message: bytes) -> bytes:
    """HMAC-SHA256 of ``message`` under ``key`` (32 output bytes)."""
    return _keyed(key).digest(message)


def prf_int(key: bytes, message: bytes, nbits: int) -> int:
    """A deterministic ``nbits``-bit integer derived from the PRF
    (:meth:`KeyedPRF.digest_int` under ``key``)."""
    return _keyed(key).digest_int(message, nbits)


def derive_key(master_key: bytes, *labels: str | bytes | int) -> bytes:
    """Derive a subkey from ``master_key`` and a label path.

    Labels identify the column and scheme, e.g.
    ``derive_key(k, "lineitem", "l_quantity", "OPE")``.  Distinct label
    paths produce independent subkeys.
    """
    if not master_key:
        raise CryptoError("master key must be non-empty")
    material = b"\x00".join(_label_bytes(label) for label in labels)
    return prf(master_key, b"repro-kdf|" + material)[:KEY_BYTES]


def _label_bytes(label: str | bytes | int) -> bytes:
    if isinstance(label, bytes):
        return label
    if isinstance(label, int):
        return str(label).encode()
    return label.encode()


class PRFStream:
    """Deterministic random stream keyed by (key, tweak).

    Used as the coin source for the OPE hypergeometric sampler: the same
    (key, tweak) always yields the same stream, which is what makes the
    lazy-sampled order-preserving function stateless and consistent across
    invocations.
    """

    def __init__(self, key: bytes, tweak: bytes) -> None:
        self._digest = _keyed(key).digest
        self._tweak = tweak
        self._counter = 0
        self._buffer = b""

    def next_bytes(self, n: int) -> bytes:
        while len(self._buffer) < n:
            self._buffer += self._digest(
                self._tweak + self._counter.to_bytes(8, "big")
            )
            self._counter += 1
        out, self._buffer = self._buffer[:n], self._buffer[n:]
        return out

    def next_below(self, bound: int) -> int:
        """Uniform integer in ``[0, bound)`` via rejection sampling."""
        if bound <= 0:
            raise CryptoError(f"bound must be positive, got {bound}")
        nbits = bound.bit_length()
        nbytes = (nbits + 7) // 8
        shift = nbytes * 8 - nbits
        while True:
            candidate = int.from_bytes(self.next_bytes(nbytes), "big") >> shift
            if candidate < bound:
                return candidate

    def next_unit(self) -> float:
        """Uniform float in ``[0, 1)`` with 53 bits of precision."""
        return (int.from_bytes(self.next_bytes(8), "big") >> 11) / float(1 << 53)
