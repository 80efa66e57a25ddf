"""Typed value encryption: the bridge between schemas and ciphers.

One :class:`CryptoProvider` owns every key, derived from a single master
key.  Design choices that mirror the paper's prototype:

* **DET and OPE keys are shared across columns of the same SQL type**, so
  deterministic equality works across tables (equi-joins) and OPE
  comparisons work between columns (e.g. TPC-H Q4's
  ``l_commitdate < l_receiptdate``).  CryptDB achieves the same with
  adjustable join keys; a shared key has the same leakage once all joins
  are allowed.
* **Integers encrypt with FFX** (zero expansion: int in, int out) — the
  §5.2 space optimization; strings use the CMC-style wide-block DET.
* **Dates** encrypt as days-since-epoch through FFX/OPE.
* **OPE on strings** order-preserves a fixed-length prefix (10 bytes);
  TPC-H's sorted string columns are distinguished within that prefix.
* DET and OPE results are memoized per value in both directions —
  analytical columns repeat values heavily, and the paper likewise caches
  repeated (de)cryptions (§8.1 uses a 512-entry decryption cache).  Four
  LRU caches, each bounded by ``cache_size`` so long-running loads cannot
  grow memory without limit: plaintext→ciphertext for ``det_encrypt`` and
  ``ope_encrypt``, ``(sql_type, ciphertext)``→plaintext for
  ``det_decrypt`` and ``ope_decrypt``.  A decrypt cache never needs
  invalidating under DML (the schemes are fixed permutations per key, so
  a rewritten cell arrives as a different ciphertext), stores a plaintext
  only after its decrypt succeeded, and reveals nothing: it lives with
  the keys on the trusted client.

Batch APIs
----------
Every scheme has a ``*_encrypt_batch`` / ``*_decrypt_batch`` companion that
processes a whole column with the scheme/type dispatch, cipher attribute
lookups, and cache accessors hoisted out of the per-value loop.  The batch
paths are element-wise identical to the scalar ones (property-tested),
including ``None`` passthrough; they exist because columnar loading and
client-side result decryption are throughput-bound (§8, Fig. 7).

The OPE and FFX batch paths go further than loop hoisting: LRU misses are
**deduplicated per batch** (a low-cardinality column decrypts each value
once per RowBlock; ``det_decrypt_batch`` deduplicates before it even asks
the LRU) and handed to the ciphers' own column APIs —
:meth:`~repro.crypto.ope.OpeCipher.decrypt_batch`'s shared-tree descent
computes every shared tree pivot once per batch, and
:meth:`~repro.crypto.ffx.FFXInteger.decrypt_batch` loops Feistel rounds
over the whole column.  ``cache_stats()`` exposes hit/miss/eviction
counters for every value cache and OPE pivot cache so benchmarks can
report the amortization.
"""

from __future__ import annotations

import datetime
from bisect import bisect_right
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - cost.py imports this module
    from repro.core.cost import DecryptionProfile

from repro.common.errors import CryptoError, DomainError
from repro.common.lru import CacheStats, LRUCache
from repro.crypto.det import DetCipher
from repro.crypto.ffx import FFXInteger
from repro.crypto.ope import DEFAULT_PIVOT_CACHE, OpeCipher
from repro.crypto.paillier import EncryptionPool, generate_keypair
from repro.crypto.prf import derive_key
from repro.crypto.rnd import RndCipher
from repro.crypto.search import SearchCipher
from repro.storage.rowcodec import decode_value, encode_value

_EPOCH = datetime.date(1970, 1, 1)

# Integer domain for FFX/OPE: wide enough for TPC-H's precomputed products
# (price-cents x quantity x tax factors ~ 1e13).
INT_BOUND = 1 << 47
DATE_DAYS = 1 << 15  # Covers 1970..2059.
_STR_PREFIX_BYTES = 10
# Texts up to this many UTF-8 bytes DET-encrypt through FFX (format
# preserving: ~len-byte ciphertext instead of a 16-byte AES block) — the
# paper's §5.2 point that flags and category columns should not balloon.
_SHORT_TEXT_BYTES = 12
# Cumulative domain offsets make short-text ciphertexts injective across
# lengths: a length-L plaintext maps into
# [_OFFSETS[L], _OFFSETS[L] + 256**L).
_OFFSETS = [0]
for _L in range(_SHORT_TEXT_BYTES + 1):
    _OFFSETS.append(_OFFSETS[-1] + 256 ** _L)

DEFAULT_PAILLIER_BITS = 2048
DEFAULT_CACHE_SIZE = 65536

# LRUCache lives in repro.common.lru (the OPE pivot caches share it); it
# stays importable from this module because callers and tests use it here.

# Exact-type tag lookup: dict hit on type() beats the isinstance chain in
# hot loops; _type_tag remains the fallback for subclasses.
_TYPE_TAGS = {bool: "bool", int: "int", datetime.date: "date", str: "str"}


class CryptoProvider:
    """All keys and ciphers for one encrypted database."""

    def __init__(
        self,
        master_key: bytes,
        paillier_bits: int = DEFAULT_PAILLIER_BITS,
        ope_expansion_bits: int = 16,
        cache_size: int = DEFAULT_CACHE_SIZE,
        pivot_cache_size: int = DEFAULT_PIVOT_CACHE,
        decryption_profile: DecryptionProfile | None = None,
    ) -> None:
        """``pivot_cache_size`` bounds each OPE cipher's pivot LRU (0
        disables pivot caching; descent still shares pivots per batch).
        ``decryption_profile`` fixes the per-scheme decryption costs the
        designer and planner price with, instead of timing them on first
        use (:class:`~repro.core.cost.DecryptionProfiler` returns it as
        is): the timing steers design and plan choice, so runs that must
        pick the same design and plans on any host pin it."""
        if len(master_key) < 16:
            raise CryptoError("master key must be at least 16 bytes")
        self.master_key = master_key
        self.paillier_bits = paillier_bits
        self.ope_expansion_bits = ope_expansion_bits
        self.pivot_cache_size = pivot_cache_size
        self._det_str = DetCipher(derive_key(master_key, "det", "str"))
        self._det_short_text = [
            FFXInteger(
                derive_key(master_key, "det", "short-text", length),
                0,
                256 ** length - 1,
            )
            if length > 0
            else None
            for length in range(_SHORT_TEXT_BYTES + 1)
        ]
        self._det_int = FFXInteger(
            derive_key(master_key, "det", "int"), -INT_BOUND, INT_BOUND - 1
        )
        self._det_date = FFXInteger(
            derive_key(master_key, "det", "date"), 0, DATE_DAYS - 1
        )
        self._ope_int = OpeCipher(
            derive_key(master_key, "ope", "int"),
            -INT_BOUND,
            INT_BOUND - 1,
            expansion_bits=ope_expansion_bits,
            pivot_cache_size=pivot_cache_size,
        )
        self._ope_date = OpeCipher(
            derive_key(master_key, "ope", "date"),
            0,
            DATE_DAYS - 1,
            expansion_bits=ope_expansion_bits,
            pivot_cache_size=pivot_cache_size,
        )
        self._ope_str = OpeCipher(
            derive_key(master_key, "ope", "str"),
            0,
            (1 << (8 * _STR_PREFIX_BYTES)) - 1,
            expansion_bits=8,
            pivot_cache_size=pivot_cache_size,
        )
        self._rnd = RndCipher(derive_key(master_key, "rnd"))
        self._search = SearchCipher(derive_key(master_key, "search"))
        self.paillier_public, self.paillier_private = generate_keypair(
            paillier_bits, seed=derive_key(master_key, "paillier-seed")
        )
        self._paillier_pool: EncryptionPool | None = None
        self.cache_size = cache_size
        self._det_cache = LRUCache(cache_size)
        self._ope_cache = LRUCache(cache_size)
        self._ope_dec_cache = LRUCache(cache_size)
        self._det_dec_cache = LRUCache(cache_size)
        if decryption_profile is not None:
            self._decryption_profile = decryption_profile

    # -- cache introspection -----------------------------------------------------

    def cache_stats(self) -> dict[str, CacheStats]:
        """Hit/miss/eviction counters for every crypto-side cache.

        Mirrors the plan cache's ``PlanCache.stats()`` so benchmarks
        and operators can see how much work the value caches and the OPE
        pivot caches absorb.  Counters are advisory under concurrency
        (see :mod:`repro.common.lru`); entries/capacity are exact.
        """
        return {
            "det_encrypt": self._det_cache.stats(),
            "det_decrypt": self._det_dec_cache.stats(),
            "ope_encrypt": self._ope_cache.stats(),
            "ope_decrypt": self._ope_dec_cache.stats(),
            "ope_pivots_int": self._ope_int.cache_stats(),
            "ope_pivots_date": self._ope_date.cache_stats(),
            "ope_pivots_text": self._ope_str.cache_stats(),
        }

    def reset_crypto_caches(self) -> None:
        """Empty every value cache and OPE pivot cache.

        Results are unaffected — caches are transparent — so this exists
        for cold-path measurement (the decryption profiler) and tests.
        Counters survive the reset.
        """
        self._det_cache.clear()
        self._det_dec_cache.clear()
        self._ope_cache.clear()
        self._ope_dec_cache.clear()
        for cipher in (self._ope_int, self._ope_date, self._ope_str):
            cipher.clear_pivot_cache()

    def __getstate__(self) -> dict:
        """Pickle without the Paillier encryption pool and without a
        measured decryption profile.

        A clone builds its own unseeded pool, so two processes never
        share obfuscation factors.  A measured profile is host-specific
        timing, so a clone re-profiles on its own host; a profile pinned
        with ``decryption_profile=`` travels with the keys.
        """
        state = self.__dict__.copy()
        state["_paillier_pool"] = None
        state.pop("_measured_profile", None)
        return state

    # -- DET ---------------------------------------------------------------------

    def det_encrypt(self, value: object) -> object:
        if value is None:
            return None
        key = ("e", _type_tag(value), value)
        cached = self._det_cache.get(key)
        if cached is None:
            cached = self._det_encrypt_uncached(value)
            self._det_cache.put(key, cached)
        return cached

    def det_encrypt_batch(self, values: Sequence) -> list:
        """Element-wise :meth:`det_encrypt` over a column.

        LRU misses bucket by type and ride the FFX column APIs (ints,
        dates, short texts loop Feistel rounds over the whole batch);
        wide texts fall back to the per-value CMC-style path.
        """
        if not isinstance(values, list):
            values = list(values)
        get = self._det_cache.get
        put = self._det_cache.put
        tags = _TYPE_TAGS
        out: list = [None] * len(values)
        int_misses: list[tuple[int, tuple, int]] = []
        date_misses: list[tuple[int, tuple, int]] = []
        text_misses: dict[int, list[tuple[int, tuple, int]]] = {}
        for idx, value in enumerate(values):
            if value is None:
                continue
            tag = tags.get(type(value))
            if tag is None:
                tag = _type_tag(value)
            key = ("e", tag, value)
            cached = get(key)
            if cached is not None:
                out[idx] = cached
                continue
            if tag == "int" or tag == "bool":
                int_misses.append((idx, key, int(value)))
            elif tag == "date":
                date_misses.append((idx, key, (value - _EPOCH).days))
            elif tag == "str":
                raw = value.encode("utf-8")
                if 0 < len(raw) <= _SHORT_TEXT_BYTES:
                    text_misses.setdefault(len(raw), []).append(
                        (idx, key, int.from_bytes(raw, "big"))
                    )
                else:
                    ciphertext = self._det_str.encrypt(raw)
                    put(key, ciphertext)
                    out[idx] = ciphertext
            else:
                # Floats and unknown types: same errors as the scalar path.
                ciphertext = self._det_encrypt_uncached(value)
                put(key, ciphertext)
                out[idx] = ciphertext
        for cipher, misses in (
            (self._det_int, int_misses),
            (self._det_date, date_misses),
        ):
            if misses:
                cts = cipher.encrypt_batch([plain for _, _, plain in misses])
                for (idx, key, _), ciphertext in zip(misses, cts):
                    put(key, ciphertext)
                    out[idx] = ciphertext
        for length, misses in text_misses.items():
            offset = _OFFSETS[length]
            inners = self._det_short_text[length].encrypt_batch(
                [plain for _, _, plain in misses]
            )
            for (idx, key, _), inner in zip(misses, inners):
                ciphertext = offset + inner
                put(key, ciphertext)
                out[idx] = ciphertext
        return out

    def _det_encrypt_uncached(self, value: object) -> object:
        if isinstance(value, bool):
            return self._det_int.encrypt(int(value))
        if isinstance(value, int):
            return self._det_int.encrypt(value)
        if isinstance(value, datetime.date):
            return self._det_date.encrypt((value - _EPOCH).days)
        if isinstance(value, str):
            raw = value.encode("utf-8")
            if 0 < len(raw) <= _SHORT_TEXT_BYTES:
                ffx = self._det_short_text[len(raw)]
                inner = ffx.encrypt(int.from_bytes(raw, "big"))
                return _OFFSETS[len(raw)] + inner
            return self._det_str.encrypt(raw)
        if isinstance(value, float):
            raise DomainError(
                "DET over floats is not supported; scale DECIMALs to integers "
                "(the paper does the same, §8.1)"
            )
        raise DomainError(f"DET cannot encrypt {type(value).__name__}")

    def det_decrypt(self, ciphertext: object, sql_type: str) -> object:
        if ciphertext is None:
            return None
        key = (sql_type, ciphertext)
        cached = self._det_dec_cache.get(key)
        if cached is None:
            # Stored only once the decrypt succeeded: a corrupt ciphertext
            # raises every time it is presented.
            cached = self._det_decrypt_uncached(ciphertext, sql_type)
            self._det_dec_cache.put(key, cached)
        return cached

    def _det_decrypt_uncached(self, ciphertext: object, sql_type: str) -> object:
        if sql_type in ("int", "bool"):
            plain = self._det_int.decrypt(ciphertext)
            return bool(plain) if sql_type == "bool" else plain
        if sql_type == "date":
            return _EPOCH + datetime.timedelta(days=self._det_date.decrypt(ciphertext))
        if sql_type == "text":
            if isinstance(ciphertext, int):
                length = _short_text_length(ciphertext)
                ffx = self._det_short_text[length]
                inner = ffx.decrypt(ciphertext - _OFFSETS[length])
                return inner.to_bytes(length, "big").decode("utf-8")
            return self._det_str.decrypt(ciphertext).decode("utf-8")
        raise DomainError(f"DET cannot decrypt type {sql_type!r}")

    def det_decrypt_batch(self, ciphertexts: Sequence, sql_type: str) -> list:
        """Element-wise :meth:`det_decrypt` with one type dispatch.

        The column deduplicates first, so the decrypt LRU is consulted
        once per distinct ciphertext; the misses ride the FFX column APIs
        (text partitions into per-length FFX columns plus the wide-block
        fallback) and are stored once the whole column decrypted.
        """
        if not isinstance(ciphertexts, list):
            ciphertexts = list(ciphertexts)
        get = self._det_dec_cache.get
        # ciphertext -> plaintext for this column; None maps to None.
        plains: dict = dict.fromkeys(ciphertexts)
        misses = []
        for ciphertext in plains:
            if ciphertext is not None:
                cached = get((sql_type, ciphertext))
                if cached is None:
                    misses.append(ciphertext)
                else:
                    plains[ciphertext] = cached
        if misses:
            put = self._det_dec_cache.put
            decrypted = self._det_decrypt_column(misses, sql_type)
            for ciphertext, plain in zip(misses, decrypted):
                put((sql_type, ciphertext), plain)
                plains[ciphertext] = plain
        return [plains[ciphertext] for ciphertext in ciphertexts]

    def _det_decrypt_column(self, ciphertexts: list, sql_type: str) -> list:
        """Decrypt distinct, non-``None`` ciphertexts of one SQL type."""
        if sql_type in ("int", "bool"):
            plains = self._det_int.decrypt_batch(ciphertexts)
            if sql_type == "bool":
                return [bool(p) for p in plains]
            return plains
        if sql_type == "date":
            epoch = _EPOCH
            delta = datetime.timedelta
            return [
                epoch + delta(days=p)
                for p in self._det_date.decrypt_batch(ciphertexts)
            ]
        if sql_type == "text":
            return self._det_decrypt_text_column(ciphertexts)
        raise DomainError(f"DET cannot decrypt type {sql_type!r}")

    def _det_decrypt_text_column(self, ciphertexts: list) -> list:
        out: list = [None] * len(ciphertexts)
        # length -> (positions, inner FFX ciphertexts)
        short: dict[int, tuple[list[int], list[int]]] = {}
        decrypt_wide = self._det_str.decrypt
        for idx, ciphertext in enumerate(ciphertexts):
            if isinstance(ciphertext, int):
                length = _short_text_length(ciphertext)
                idxs, inners = short.setdefault(length, ([], []))
                idxs.append(idx)
                inners.append(ciphertext - _OFFSETS[length])
            else:
                out[idx] = decrypt_wide(ciphertext).decode("utf-8")
        for length, (idxs, inners) in short.items():
            plain_ints = self._det_short_text[length].decrypt_batch(inners)
            for idx, plain_int in zip(idxs, plain_ints):
                out[idx] = plain_int.to_bytes(length, "big").decode("utf-8")
        return out

    # -- OPE ---------------------------------------------------------------------

    def ope_encrypt(self, value: object) -> int | None:
        if value is None:
            return None
        key = ("e", _type_tag(value), value)
        cached = self._ope_cache.get(key)
        if cached is None:
            cached = self._ope_encrypt_uncached(value)
            self._ope_cache.put(key, cached)
        return cached

    def ope_encrypt_batch(self, values: Sequence) -> list:
        """Element-wise :meth:`ope_encrypt` over a column.

        LRU misses bucket by type and descend the shared OPE tree once
        per batch via :meth:`OpeCipher.encrypt_batch`, so repeated and
        clustered values pay for their common tree prefix once.
        """
        if not isinstance(values, list):
            values = list(values)
        get = self._ope_cache.get
        put = self._ope_cache.put
        tags = _TYPE_TAGS
        out: list = [None] * len(values)
        int_misses: list[tuple[int, tuple, int]] = []
        date_misses: list[tuple[int, tuple, int]] = []
        str_misses: list[tuple[int, tuple, int]] = []
        for idx, value in enumerate(values):
            if value is None:
                continue
            tag = tags.get(type(value))
            if tag is None:
                tag = _type_tag(value)
            key = ("e", tag, value)
            cached = get(key)
            if cached is not None:
                out[idx] = cached
                continue
            if tag == "int" or tag == "bool":
                int_misses.append((idx, key, int(value)))
            elif tag == "date":
                date_misses.append((idx, key, (value - _EPOCH).days))
            elif tag == "str":
                prefix = value.encode("utf-8")[:_STR_PREFIX_BYTES]
                prefix = prefix + b"\x00" * (_STR_PREFIX_BYTES - len(prefix))
                str_misses.append((idx, key, int.from_bytes(prefix, "big")))
            else:
                raise DomainError(f"OPE cannot encrypt {type(value).__name__}")
        for cipher, misses in (
            (self._ope_int, int_misses),
            (self._ope_date, date_misses),
            (self._ope_str, str_misses),
        ):
            if misses:
                cts = cipher.encrypt_batch([plain for _, _, plain in misses])
                for (idx, key, _), ciphertext in zip(misses, cts):
                    put(key, ciphertext)
                    out[idx] = ciphertext
        return out

    def _ope_encrypt_uncached(self, value: object) -> int:
        if isinstance(value, bool):
            return self._ope_int.encrypt(int(value))
        if isinstance(value, int):
            return self._ope_int.encrypt(value)
        if isinstance(value, datetime.date):
            return self._ope_date.encrypt((value - _EPOCH).days)
        if isinstance(value, str):
            prefix = value.encode("utf-8")[:_STR_PREFIX_BYTES]
            prefix = prefix + b"\x00" * (_STR_PREFIX_BYTES - len(prefix))
            return self._ope_str.encrypt(int.from_bytes(prefix, "big"))
        raise DomainError(f"OPE cannot encrypt {type(value).__name__}")

    def ope_decrypt(self, ciphertext: int | None, sql_type: str) -> object:
        if ciphertext is None:
            return None
        key = (sql_type, ciphertext)
        cached = self._ope_dec_cache.get(key)
        if cached is not None:
            return cached
        plain = self._ope_decrypt_uncached(ciphertext, sql_type)
        self._ope_dec_cache.put(key, plain)
        return plain

    def _ope_decrypt_uncached(self, ciphertext: int, sql_type: str) -> object:
        if sql_type in ("int", "bool"):
            plain: object = self._ope_int.decrypt(ciphertext)
            if sql_type == "bool":
                plain = bool(plain)
        elif sql_type == "date":
            plain = _EPOCH + datetime.timedelta(days=self._ope_date.decrypt(ciphertext))
        elif sql_type == "text":
            raw = self._ope_str.decrypt(ciphertext).to_bytes(_STR_PREFIX_BYTES, "big")
            plain = raw.rstrip(b"\x00").decode("utf-8", errors="replace")
        else:
            raise DomainError(f"OPE cannot decrypt type {sql_type!r}")
        return plain

    def ope_decrypt_batch(self, ciphertexts: Sequence, sql_type: str) -> list:
        """Element-wise :meth:`ope_decrypt` over a column.

        Cache misses deduplicate per batch and ride the shared-tree
        :meth:`OpeCipher.decrypt_batch`, the client-side hot path for
        range-query post-processing.
        """
        if not isinstance(ciphertexts, list):
            ciphertexts = list(ciphertexts)
        get = self._ope_dec_cache.get
        put = self._ope_dec_cache.put
        out: list = [None] * len(ciphertexts)
        miss_idx: list[int] = []
        miss_cts: list[int] = []
        for idx, ciphertext in enumerate(ciphertexts):
            if ciphertext is None:
                continue
            cached = get((sql_type, ciphertext))
            if cached is not None:
                out[idx] = cached
                continue
            miss_idx.append(idx)
            miss_cts.append(ciphertext)
        if not miss_idx:
            return out
        if sql_type in ("int", "bool"):
            plains: list = self._ope_int.decrypt_batch(miss_cts)
            if sql_type == "bool":
                plains = [bool(p) for p in plains]
        elif sql_type == "date":
            epoch = _EPOCH
            delta = datetime.timedelta
            plains = [
                epoch + delta(days=p)
                for p in self._ope_date.decrypt_batch(miss_cts)
            ]
        elif sql_type == "text":
            plains = [
                raw_int.to_bytes(_STR_PREFIX_BYTES, "big")
                .rstrip(b"\x00")
                .decode("utf-8", errors="replace")
                for raw_int in self._ope_str.decrypt_batch(miss_cts)
            ]
        else:
            raise DomainError(f"OPE cannot decrypt type {sql_type!r}")
        for idx, ciphertext, plain in zip(miss_idx, miss_cts, plains):
            put((sql_type, ciphertext), plain)
            out[idx] = plain
        return out

    # -- RND ---------------------------------------------------------------------

    def rnd_encrypt(self, value: object) -> bytes | None:
        if value is None:
            return None
        return self._rnd.encrypt(encode_value(value))

    def rnd_encrypt_batch(self, values: Sequence) -> list:
        enc = self._rnd.encrypt
        encode = encode_value
        return [None if v is None else enc(encode(v)) for v in values]

    def rnd_decrypt(self, ciphertext: bytes | None) -> object:
        if ciphertext is None:
            return None
        value, _ = decode_value(self._rnd.decrypt(ciphertext))
        return value

    def rnd_decrypt_batch(self, ciphertexts: Sequence) -> list:
        dec = self._rnd.decrypt
        decode = decode_value
        return [None if c is None else decode(dec(c))[0] for c in ciphertexts]

    # -- SEARCH ------------------------------------------------------------------

    def search_encrypt(self, value: str | None):
        if value is None:
            return None
        return self._search.encrypt(value)

    def search_encrypt_batch(self, values: Sequence) -> list:
        enc = self._search.encrypt
        return [None if v is None else enc(v) for v in values]

    def search_trapdoor(self, pattern: str) -> bytes:
        return self._search.trapdoor(pattern)

    # -- Paillier ------------------------------------------------------------------

    @property
    def paillier_pool(self) -> EncryptionPool:
        """Shared fixed-base randomness pool for bulk Paillier encryption.

        Built from the private key, so its tables are half-width (mod
        ``p^2`` and ``q^2``); the client already holds that key.
        Deliberately unseeded (OS randomness): a deterministic pool would
        repeat obfuscation factors across provider instances, letting the
        server compute plaintext deltas between two loads under the same
        key.  Only the *keys* are derived deterministically.
        """
        if self._paillier_pool is None:
            self._paillier_pool = EncryptionPool(self.paillier_private)
        return self._paillier_pool

    def paillier_encrypt_batch(self, messages: Sequence[int]) -> list[int]:
        return self.paillier_pool.encrypt_batch(messages)

    def paillier_decrypt_batch(self, ciphertexts: Sequence[int]) -> list[int]:
        """CRT-batched Paillier decryption.

        This is the packed-layout hot path: the plan executor gathers a
        whole result column's ciphertexts into one call.
        """
        return self.paillier_private.decrypt_batch(ciphertexts)

    # -- generic dispatch ----------------------------------------------------------

    def encrypt(self, value: object, scheme: str) -> object:
        if scheme == "det":
            return self.det_encrypt(value)
        if scheme == "ope":
            return self.ope_encrypt(value)
        if scheme == "rnd":
            return self.rnd_encrypt(value)
        if scheme == "search":
            return self.search_encrypt(value)
        raise DomainError(f"no direct encryption for scheme {scheme!r}")

    def encrypt_batch(self, values: Sequence, scheme: str) -> list:
        """Column-wise :meth:`encrypt`: one scheme dispatch per batch."""
        if scheme == "det":
            return self.det_encrypt_batch(values)
        if scheme == "ope":
            return self.ope_encrypt_batch(values)
        if scheme == "rnd":
            return self.rnd_encrypt_batch(values)
        if scheme == "search":
            return self.search_encrypt_batch(values)
        raise DomainError(f"no direct encryption for scheme {scheme!r}")

    def decrypt(self, ciphertext: object, scheme: str, sql_type: str) -> object:
        if scheme == "det":
            return self.det_decrypt(ciphertext, sql_type)
        if scheme == "ope":
            return self.ope_decrypt(ciphertext, sql_type)
        if scheme == "rnd":
            return self.rnd_decrypt(ciphertext)
        if scheme == "plain":
            return ciphertext
        raise DomainError(f"no direct decryption for scheme {scheme!r}")

    def decrypt_batch(self, ciphertexts: Sequence, scheme: str, sql_type: str) -> list:
        """Column-wise :meth:`decrypt`: one scheme dispatch per batch."""
        if scheme == "det":
            return self.det_decrypt_batch(ciphertexts, sql_type)
        if scheme == "ope":
            return self.ope_decrypt_batch(ciphertexts, sql_type)
        if scheme == "rnd":
            return self.rnd_decrypt_batch(ciphertexts)
        if scheme == "plain":
            return list(ciphertexts)
        raise DomainError(f"no direct decryption for scheme {scheme!r}")


def _short_text_length(ciphertext: int) -> int:
    """Plaintext byte length of a short-text DET ciphertext: the index of
    the ``_OFFSETS`` band it falls in."""
    length = bisect_right(_OFFSETS, ciphertext) - 1
    if not 1 <= length <= _SHORT_TEXT_BYTES:
        raise CryptoError("corrupt DET ciphertext")
    return length


def _type_tag(value: object) -> str:
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "int"
    if isinstance(value, datetime.date):
        return "date"
    if isinstance(value, str):
        return "str"
    return type(value).__name__
