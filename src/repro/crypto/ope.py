"""Order-preserving encryption (OPE), Boldyreva et al. [6] style.

OPE lets the untrusted server evaluate ``a > const``, ``MAX``/``MIN`` and
``ORDER BY`` directly on ciphertexts.  It is MONOMI's weakest scheme: it
reveals the order of plaintexts plus partial plaintext information [7]
(Table 1), which is why the designer uses it sparingly (§8.7).

Construction — the lazy-sampled order-preserving function of BCLO'09:
a random order-preserving injection from plaintext domain ``[lo, hi]`` into
a larger ciphertext range is defined implicitly by recursive binary
descent.  At each step the ciphertext range is halved at pivot ``y`` and the
number of plaintexts mapped at or below ``y`` is drawn from the
hypergeometric distribution — with *deterministic* coins derived from a PRF
keyed on the (domain, range) rectangle, so every encryption walks the same
implicit function without shared state.

The hypergeometric draw is exact (log-space inverse CDF) when the domain
side is small and switches to the normal approximation for large instances;
both are deterministic given the PRF stream.  The approximation preserves
the scheme's interface and leakage profile exactly — only the distribution
over the (already leaky) set of order-preserving functions differs
microscopically, which no experiment in the paper depends on.

Batch APIs and the pivot cache
------------------------------
Every value in a column walks the *same* implicit tree, so per-value
descent recomputes every shared pivot from scratch — the dominant client
decryption cost in realistic workloads (~60% of decrypt time before this
layer existed).  Two amortizations attack it:

* :meth:`OpeCipher.encrypt_batch` / :meth:`OpeCipher.decrypt_batch` do a
  **shared-tree descent**: the batch's distinct values are sorted, values
  in the same (domain, range) rectangle are grouped, each rectangle's
  pivot is drawn **once per batch**, and the sorted group is partitioned
  at the pivot by binary search.  The cost drops from N·depth pivot draws
  to one draw per *distinct visited rectangle* — the top ~log₂N levels
  (more for clustered columns, which share a long tree prefix) are paid
  once for the whole batch.  Results are element-wise identical to the
  scalar walk: the pivots are deterministic PRF draws keyed by rectangle,
  so visiting each rectangle once computes exactly what every per-value
  walk would.

* A bounded **pivot cache** keyed on the rectangle is consulted by
  scalar and batch paths alike.  Encryption and decryption walk the same
  implicit function, so they share it; because it lives on the (per
  column/type) cipher instance it also persists across queries — the top
  of the tree hits on every query that touches the column.  Leakage is
  unchanged: pivots are deterministic functions of the key, cached or
  not, and the cache lives with the key on the trusted client.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from statistics import NormalDist
from typing import Sequence

from repro.common.errors import CryptoError, DomainError
from repro.common.cache import BoundedCache, CacheStats
from repro.crypto.prf import KeyedPRF, PRFStream, derive_key

_EXACT_DOMAIN_LIMIT = 64
_NORMAL = NormalDist()
_ZERO8 = (0).to_bytes(8, "big")

# Pivot-cache entries are small tuples; 32k of them cover the top ~15
# levels of the descent tree — the levels every value in a column shares.
DEFAULT_PIVOT_CACHE = 32768

# Rectangles with domain spans below this are one value's private descent
# tail: they are cheap (exact sampler, memoized CDF tables), essentially
# never shared across values or queries, and a column batch streams through
# them in sorted order — a bounded cache's worst case, which would evict the
# shared top of the tree.  Only wider rectangles enter the pivot cache.
_PIVOT_CACHE_MIN_SPAN = _EXACT_DOMAIN_LIMIT


class OpeCipher:
    """Stateless order-preserving encryption on integers in ``[lo, hi]``.

    ``expansion_bits`` controls how much larger the ciphertext range is than
    the plaintext domain; the paper's OPE maps 32-bit plaintexts into
    64-bit ciphertexts, i.e. ~32 expansion bits.  ``pivot_cache_size``
    bounds the per-cipher pivot cache (0 disables caching).
    """

    def __init__(
        self,
        key: bytes,
        lo: int,
        hi: int,
        expansion_bits: int = 24,
        tweak: bytes = b"",
        pivot_cache_size: int = DEFAULT_PIVOT_CACHE,
    ) -> None:
        if hi < lo:
            raise CryptoError(f"empty OPE domain [{lo}, {hi}]")
        if expansion_bits < 1:
            raise CryptoError("OPE needs at least 1 expansion bit")
        self.lo = lo
        self.hi = hi
        self._domain_size = hi - lo + 1
        self._range_size = self._domain_size << expansion_bits
        self._key = derive_key(key, "ope", tweak)
        self._prf = KeyedPRF(self._key)
        self._pivots = BoundedCache(pivot_cache_size) if pivot_cache_size else None

    # -- public API ---------------------------------------------------------

    def encrypt(self, value: int) -> int:
        if not self.lo <= value <= self.hi:
            raise DomainError(f"value {value} outside OPE domain [{self.lo}, {self.hi}]")
        m = value - self.lo
        d_lo, d_hi = 0, self._domain_size - 1
        r_lo, r_hi = 0, self._range_size - 1
        while d_lo < d_hi:
            d_lo, d_hi, r_lo, r_hi = self._descend(m, d_lo, d_hi, r_lo, r_hi)
        return self._leaf_cipher(d_lo, r_lo, r_hi)

    def decrypt(self, ciphertext: int) -> int:
        if not 0 <= ciphertext < self._range_size:
            raise CryptoError(f"OPE ciphertext {ciphertext} out of range")
        d_lo, d_hi = 0, self._domain_size - 1
        r_lo, r_hi = 0, self._range_size - 1
        while d_lo < d_hi:
            x, y = self._pivot(d_lo, d_hi, r_lo, r_hi)
            if ciphertext <= y:
                d_hi, r_hi = d_lo + x - 1, y
            else:
                d_lo, r_lo = d_lo + x, y + 1
            if d_hi < d_lo:
                raise CryptoError("invalid OPE ciphertext (empty branch)")
        if self._leaf_cipher(d_lo, r_lo, r_hi) != ciphertext:
            raise CryptoError("invalid OPE ciphertext (leaf mismatch)")
        return self.lo + d_lo

    def encrypt_batch(self, values: Sequence) -> list:
        """Shared-tree :meth:`encrypt` of a column (``None`` passes through).

        Element-wise identical to the scalar walk; duplicates encrypt once.
        """
        out: list = [None] * len(values)
        groups: dict[int, list[int]] = {}
        lo, hi = self.lo, self.hi
        for idx, value in enumerate(values):
            if value is None:
                continue
            if not lo <= value <= hi:
                raise DomainError(
                    f"value {value} outside OPE domain [{lo}, {hi}]"
                )
            groups.setdefault(value - lo, []).append(idx)
        if not groups:
            return out
        distinct = sorted(groups)
        for m, ciphertext in zip(distinct, self._walk_encrypt(distinct)):
            for idx in groups[m]:
                out[idx] = ciphertext
        return out

    def decrypt_batch(self, ciphertexts: Sequence) -> list:
        """Shared-tree :meth:`decrypt` of a column (``None`` passes through).

        Raises the same :class:`CryptoError` the scalar path would if any
        element is invalid (out of range, empty branch, leaf mismatch).
        """
        out: list = [None] * len(ciphertexts)
        groups: dict[int, list[int]] = {}
        range_size = self._range_size
        for idx, ciphertext in enumerate(ciphertexts):
            if ciphertext is None:
                continue
            if not 0 <= ciphertext < range_size:
                raise CryptoError(f"OPE ciphertext {ciphertext} out of range")
            groups.setdefault(ciphertext, []).append(idx)
        if not groups:
            return out
        distinct = sorted(groups)
        for ciphertext, plain in zip(distinct, self._walk_decrypt(distinct)):
            for idx in groups[ciphertext]:
                out[idx] = plain
        return out

    def ciphertext_bits(self) -> int:
        return max(1, (self._range_size - 1).bit_length())

    def cache_stats(self) -> CacheStats:
        """Pivot-cache counters (zeros when caching is disabled)."""
        if self._pivots is None:
            return CacheStats(0, 0, 0, 0, 0)
        return self._pivots.stats()

    def clear_pivot_cache(self) -> None:
        """Drop memoized pivots (results unchanged; counters survive)."""
        if self._pivots is not None:
            self._pivots.clear()

    # -- shared-tree descent --------------------------------------------------

    def _walk_encrypt(self, distinct: list[int]) -> list[int]:
        """Descend once per visited rectangle over sorted distinct values."""
        results = [0] * len(distinct)
        cache = self._pivots
        cache_get = cache.get if cache is not None else None
        cache_put = cache.put if cache is not None else None
        min_span = _PIVOT_CACHE_MIN_SPAN
        sample = _sample_hypergeometric
        prf = self._prf
        stack = [(0, self._domain_size - 1, 0, self._range_size - 1, 0, len(distinct))]
        while stack:
            d_lo, d_hi, r_lo, r_hi, i0, i1 = stack.pop()
            while d_lo < d_hi:
                # _pivot, inlined: this loop is the OPE hot path.
                rect = (d_lo, d_hi, r_lo, r_hi)
                cacheable = cache_get is not None and d_hi - d_lo >= min_span
                pivot = cache_get(rect) if cacheable else None
                if pivot is not None:
                    x, y = pivot
                else:
                    rsize = r_hi - r_lo + 1
                    draws = (rsize + 1) // 2
                    y = r_lo + draws - 1
                    x = sample(
                        d_hi - d_lo + 1,
                        rsize,
                        draws,
                        prf,
                        b"pivot|%d|%d|%d|%d" % rect,
                    )
                    if cacheable:
                        cache_put(rect, (x, y))
                split = d_lo + x - 1
                mid = bisect_right(distinct, split, i0, i1)
                if mid == i1:  # Whole group goes left.
                    d_hi, r_hi = split, y
                elif mid == i0:  # Whole group goes right.
                    d_lo, r_lo = d_lo + x, y + 1
                else:  # Partition: continue left, stack the right group.
                    stack.append((d_lo + x, d_hi, y + 1, r_hi, mid, i1))
                    d_hi, r_hi, i1 = split, y, mid
            # Singleton domain: exactly one distinct value lands here.
            results[i0] = self._leaf_cipher(d_lo, r_lo, r_hi)
        return results

    def _walk_decrypt(self, distinct: list[int]) -> list[int]:
        """Shared descent over sorted distinct ciphertexts."""
        results = [0] * len(distinct)
        cache = self._pivots
        cache_get = cache.get if cache is not None else None
        cache_put = cache.put if cache is not None else None
        min_span = _PIVOT_CACHE_MIN_SPAN
        sample = _sample_hypergeometric
        prf = self._prf
        lo = self.lo
        stack = [(0, self._domain_size - 1, 0, self._range_size - 1, 0, len(distinct))]
        while stack:
            d_lo, d_hi, r_lo, r_hi, i0, i1 = stack.pop()
            while d_lo < d_hi:
                # _pivot, inlined (see _walk_encrypt).
                rect = (d_lo, d_hi, r_lo, r_hi)
                cacheable = cache_get is not None and d_hi - d_lo >= min_span
                pivot = cache_get(rect) if cacheable else None
                if pivot is not None:
                    x, y = pivot
                else:
                    rsize = r_hi - r_lo + 1
                    draws = (rsize + 1) // 2
                    y = r_lo + draws - 1
                    x = sample(
                        d_hi - d_lo + 1,
                        rsize,
                        draws,
                        prf,
                        b"pivot|%d|%d|%d|%d" % rect,
                    )
                    if cacheable:
                        cache_put(rect, (x, y))
                mid = bisect_right(distinct, y, i0, i1)
                if mid > i0 and x == 0:
                    raise CryptoError("invalid OPE ciphertext (empty branch)")
                if mid < i1 and d_lo + x > d_hi:
                    raise CryptoError("invalid OPE ciphertext (empty branch)")
                if mid == i1:  # Whole group at or below the pivot.
                    d_hi, r_hi = d_lo + x - 1, y
                elif mid == i0:  # Whole group above the pivot.
                    d_lo, r_lo = d_lo + x, y + 1
                else:
                    stack.append((d_lo + x, d_hi, y + 1, r_hi, mid, i1))
                    d_hi, r_hi, i1 = d_lo + x - 1, y, mid
            # Singleton domain: only the true leaf ciphertext is valid.
            if i1 - i0 != 1 or distinct[i0] != self._leaf_cipher(d_lo, r_lo, r_hi):
                raise CryptoError("invalid OPE ciphertext (leaf mismatch)")
            results[i0] = lo + d_lo
        return results

    # -- recursion internals --------------------------------------------------

    def _descend(
        self, m: int, d_lo: int, d_hi: int, r_lo: int, r_hi: int
    ) -> tuple[int, int, int, int]:
        x, y = self._pivot(d_lo, d_hi, r_lo, r_hi)
        if m <= d_lo + x - 1:
            return d_lo, d_lo + x - 1, r_lo, y
        return d_lo + x, d_hi, y + 1, r_hi

    def _pivot(self, d_lo: int, d_hi: int, r_lo: int, r_hi: int) -> tuple[int, int]:
        """Pivot for rectangle (domain x range): returns (x, y).

        ``y`` splits the ciphertext range near its midpoint; ``x`` is the
        hypergeometric draw — how many of the ``d`` plaintexts map to
        ciphertexts at or below ``y``.  Wide rectangles (the shared top of
        the tree) memoize in the pivot cache.
        """
        rect = (d_lo, d_hi, r_lo, r_hi)
        cache = self._pivots if d_hi - d_lo >= _PIVOT_CACHE_MIN_SPAN else None
        if cache is not None:
            cached = cache.get(rect)
            if cached is not None:
                return cached
        dsize = d_hi - d_lo + 1
        rsize = r_hi - r_lo + 1
        draws = (rsize + 1) // 2
        y = r_lo + draws - 1
        tweak = b"pivot|%d|%d|%d|%d" % rect
        x = _sample_hypergeometric(dsize, rsize, draws, self._prf, tweak)
        if cache is not None:
            cache.put(rect, (x, y))
        return x, y

    def _leaf_cipher(self, d: int, r_lo: int, r_hi: int) -> int:
        # Rejection-samples the leaf offset exactly like
        # ``PRFStream(key, tweak).next_below(bound)`` — same blocks, same
        # slicing — but through the keyed pad-state template, without a
        # stream object per leaf.
        bound = r_hi - r_lo + 1
        nbits = bound.bit_length()
        nbytes = (nbits + 7) // 8
        shift = nbytes * 8 - nbits
        tweak = b"leaf|%d|%d|%d" % (d, r_lo, r_hi)
        digest = self._prf.digest
        buffer = b""
        counter = 0
        while True:
            while len(buffer) < nbytes:
                buffer += digest(tweak + counter.to_bytes(8, "big"))
                counter += 1
            candidate = int.from_bytes(buffer[:nbytes], "big") >> shift
            buffer = buffer[nbytes:]
            if candidate < bound:
                return r_lo + candidate


def _sample_hypergeometric(
    marked: int, total: int, draws: int, prf: KeyedPRF, tweak: bytes
) -> int:
    """Deterministic draw of X ~ Hypergeometric(total, marked, draws).

    X is the number of marked items among ``draws`` draws without
    replacement from ``total`` items of which ``marked`` are marked.  The
    coin is the first ``next_unit()`` of ``PRFStream(key, tweak)``, drawn
    lazily (degenerate rectangles burn no PRF call) via one pad-state
    template copy instead of a stream object.
    """
    x_min = max(0, marked - (total - draws))
    x_max = min(marked, draws)
    if x_min == x_max:
        return x_min
    block = prf.digest(tweak + _ZERO8)
    u = (int.from_bytes(block[:8], "big") >> 11) / float(1 << 53)
    if marked <= _EXACT_DOMAIN_LIMIT:
        return _exact_inverse_cdf(marked, total, draws, x_min, x_max, u)
    return _normal_inverse_cdf(marked, total, draws, x_min, x_max, u)


# CDF tables for the exact sampler, keyed (marked, total, draws).  Pure
# hypergeometric math — no key material — so one process-wide cache serves
# every cipher.  The tree's range sizes halve deterministically, so only a
# few thousand distinct shapes occur per domain; the bound is a backstop.
_CDF_LIMIT = 8192
_CDF_TABLES: dict[tuple[int, int, int], list[float]] = {}


def _exact_inverse_cdf(
    marked: int, total: int, draws: int, x_min: int, x_max: int, u: float
) -> int:
    """Inverse-CDF sampling with log-space pmf recurrence (exact).

    The cumulative table is memoized per distribution shape; the recurrence
    floats (and hence every draw) are identical to the unmemoized loop.
    """
    key = (marked, total, draws)
    table = _CDF_TABLES.get(key)
    if table is None:
        # pmf(x) = C(marked, x) * C(total-marked, draws-x) / C(total, draws)
        # log-combinations inlined, float operation order matching _log_comb.
        lg = math.lgamma
        unmarked = total - marked
        log_pmf = (
            (lg(marked + 1) - lg(x_min + 1) - lg(marked - x_min + 1))
            + (
                lg(unmarked + 1)
                - lg(draws - x_min + 1)
                - lg(unmarked - (draws - x_min) + 1)
            )
            - (lg(total + 1) - lg(draws + 1) - lg(total - draws + 1))
        )
        pmf = math.exp(log_pmf)
        cdf = pmf
        table = [cdf]
        append = table.append
        for x in range(x_min, x_max):
            # pmf(x+1)/pmf(x) = (marked-x)(draws-x)/((x+1)(total-marked-draws+x+1))
            ratio = ((marked - x) * (draws - x)) / (
                (x + 1) * (total - marked - draws + x + 1)
            )
            pmf *= ratio
            cdf += pmf
            append(cdf)
        if len(_CDF_TABLES) >= _CDF_LIMIT:
            _CDF_TABLES.clear()
        _CDF_TABLES[key] = table
    # First x whose CDF reaches u, capped at x_max — exactly the scan the
    # recurrence loop performed.
    return x_min + min(bisect_left(table, u), len(table) - 1)


def _normal_inverse_cdf(
    marked: int, total: int, draws: int, x_min: int, x_max: int, u: float
) -> int:
    """Normal approximation to the hypergeometric inverse CDF."""
    p = marked / total
    mean = draws * p
    var = draws * p * (1.0 - p) * (total - draws) / max(1.0, total - 1.0)
    std = math.sqrt(max(var, 1e-12))
    # Clamp u away from 0/1 so inv_cdf stays finite.
    u = min(max(u, 1e-12), 1.0 - 1e-12)
    x = round(mean + _NORMAL.inv_cdf(u) * std)
    return min(max(x, x_min), x_max)


def _log_comb(n: int, k: int) -> float:
    if k < 0 or k > n:
        return float("-inf")
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
