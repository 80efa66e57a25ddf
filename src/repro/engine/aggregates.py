"""Aggregate function implementations, including MONOMI's server UDFs.

Standard SQL aggregates (SUM/COUNT/AVG/MIN/MAX) plus two UDFs the paper
installs on the unmodified DBMS:

* ``grp(x)``         — concatenates a group's values (Figure 3's ``GROUP()``
  operator): used when the client will aggregate itself after decryption;
* ``hom_agg(f, id)`` — grouped homomorphic addition (§5.3) over the packed
  Paillier ciphertext file named ``f``, driven by ``row_id`` values (§7).

``hom_agg`` handles both packing regimes with one mechanism:

* per-row packing (one row per ciphertext): every ciphertext the group
  touches is fully covered, so the whole group folds into a single running
  product — one modular multiplication per row, all packed columns at once;
* columnar packing (many rows per ciphertext): ciphertexts whose rows are
  all in the group fold into the product; *partially* covered ciphertexts
  cannot be summed homomorphically (that would add excluded rows), so they
  ship to the client with the slot offsets that matched, and the client adds
  those slots after decryption.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import partial, reduce
from typing import Sequence

from repro.common.errors import ExecutionError
from repro.storage.ciphertext_store import CiphertextStore


class Aggregate:
    """One aggregate accumulator instance (per group, per call site)."""

    def update(self, args: list) -> None:
        raise NotImplementedError

    def fold(self, columns: list[Sequence]) -> None:
        """Take a whole group at once: ``columns[i]`` holds argument ``i`` of
        every row, in row order (``COUNT(*)`` passes one column of 1s).
        The same state as one :meth:`update` per row; subclasses override
        it where a C-level loop does the work."""
        for args in zip(*columns):
            self.update(list(args))

    def finalize(self) -> object:
        raise NotImplementedError


_NOT_NULL = partial(operator.is_not, None)
_ADD_ALL = partial(reduce, operator.add)


def _combined(state: object, column: Sequence, combine) -> object:
    """``combine`` over the running ``state`` (None: nothing seen yet)
    followed by the non-NULL values of ``column``, in that order."""
    values = [v for v in column if v is not None]
    if state is not None:
        values.insert(0, state)
    return combine(values) if values else state


class SumAgg(Aggregate):
    def __init__(self) -> None:
        self._total = None

    def update(self, args: list) -> None:
        value = args[0]
        if value is None:
            return
        self._total = value if self._total is None else self._total + value

    def fold(self, columns: list[Sequence]) -> None:
        # Left to right like update(), with no start value: sum() would add
        # a 0 and compensate float rounding.
        self._total = _combined(self._total, columns[0], _ADD_ALL)

    def finalize(self) -> object:
        return self._total


class CountAgg(Aggregate):
    """COUNT(x) — non-null count.  COUNT(*) passes a constant arg."""

    def __init__(self) -> None:
        self._count = 0

    def update(self, args: list) -> None:
        if not args or args[0] is not None:
            self._count += 1

    def fold(self, columns: list[Sequence]) -> None:
        self._count += sum(map(_NOT_NULL, columns[0]))

    def finalize(self) -> object:
        return self._count


class AvgAgg(Aggregate):
    def __init__(self) -> None:
        self._total = 0
        self._count = 0

    def update(self, args: list) -> None:
        value = args[0]
        if value is None:
            return
        self._total += value
        self._count += 1

    def fold(self, columns: list[Sequence]) -> None:
        values = [v for v in columns[0] if v is not None]
        self._total = reduce(operator.add, values, self._total)
        self._count += len(values)

    def finalize(self) -> object:
        if self._count == 0:
            return None
        return self._total / self._count


class MinAgg(Aggregate):
    def __init__(self) -> None:
        self._best = None

    def update(self, args: list) -> None:
        value = args[0]
        if value is None:
            return
        if self._best is None or value < self._best:
            self._best = value

    def fold(self, columns: list[Sequence]) -> None:
        # min() keeps the first of equals, like update().
        self._best = _combined(self._best, columns[0], min)

    def finalize(self) -> object:
        return self._best


class MaxAgg(Aggregate):
    def __init__(self) -> None:
        self._best = None

    def update(self, args: list) -> None:
        value = args[0]
        if value is None:
            return
        if self._best is None or value > self._best:
            self._best = value

    def fold(self, columns: list[Sequence]) -> None:
        # max() keeps the first of equals, like update().
        self._best = _combined(self._best, columns[0], max)

    def finalize(self) -> object:
        return self._best


class GrpAgg(Aggregate):
    """MONOMI's GROUP() UDF: ship the group's raw values to the client."""

    def __init__(self) -> None:
        self._values: list = []

    def update(self, args: list) -> None:
        self._values.append(args[0])

    def fold(self, columns: list[Sequence]) -> None:
        self._values.extend(columns[0])

    def finalize(self) -> object:
        return tuple(self._values)


class DistinctWrapper(Aggregate):
    """Applies DISTINCT before delegating (e.g. COUNT(DISTINCT x))."""

    def __init__(self, inner: Aggregate) -> None:
        self._inner = inner
        self._seen: set = set()

    def update(self, args: list) -> None:
        key = tuple(args)
        if key in self._seen:
            return
        self._seen.add(key)
        self._inner.update(args)

    def finalize(self) -> object:
        return self._inner.finalize()


# ---------------------------------------------------------------------------
# Homomorphic aggregation
# ---------------------------------------------------------------------------


@dataclass
class HomAggResult:
    """Opaque result of ``hom_agg`` shipped to the client.

    ``product`` is the running Paillier product over fully covered
    ciphertexts (None when the group touched none fully).  ``partials`` are
    (ciphertext, covered-slot-offsets) pairs for partially covered groups;
    offsets repeat when a join multiplies a row.  ``layout`` is the packing
    metadata (public — it describes widths, not contents).
    """

    file_name: str
    column_names: tuple[str, ...]
    product: int | None
    partials: tuple[tuple[int, tuple[int, ...]], ...]
    multiplications: int
    ciphertext_bytes: int
    layout: object = None

    def byte_size(self) -> int:
        count = (1 if self.product is not None else 0) + len(self.partials)
        mask_bytes = sum(2 + 2 * len(offsets) for _, offsets in self.partials)
        return count * self.ciphertext_bytes + mask_bytes + len(self.file_name) + 16


class HomAgg(Aggregate):
    """Server-side grouped homomorphic addition (needs the ciphertext store)."""

    def __init__(self, store: CiphertextStore) -> None:
        self._store = store
        self._file_name: str | None = None
        self._row_ids: list[int] = []

    def update(self, args: list) -> None:
        if len(args) != 2:
            raise ExecutionError("hom_agg expects (file_name, row_id)")
        file_name, row_id = args
        if row_id is None:
            return
        if self._file_name is None:
            self._file_name = file_name
        elif self._file_name != file_name:
            raise ExecutionError("hom_agg file name must be constant per group")
        self._row_ids.append(int(row_id))

    def finalize(self) -> object:
        if self._file_name is None:
            return None
        file = self._store.get(self._file_name)
        public = file.public_key
        by_group: dict[int, list[int]] = {}
        for row_id in self._row_ids:
            group, offset = file.locate(row_id)
            by_group.setdefault(group, []).append(offset)
        product: int | None = None
        partials: list[tuple[int, tuple[int, ...]]] = []
        multiplications = 0
        for group, offsets in sorted(by_group.items()):
            ciphertext = file.read(group)
            covered = len(file.rows_in_group(group))
            # Fully covered exactly once: fold into the running product.
            if len(offsets) == covered and len(set(offsets)) == covered:
                if product is None:
                    product = ciphertext
                else:
                    product = public.add(product, ciphertext)
                    multiplications += 1
            else:
                # Partial coverage (or join-induced multiplicity): ship the
                # ciphertext with the matched offsets for client-side slotting.
                partials.append((ciphertext, tuple(sorted(offsets))))
        return HomAggResult(
            file_name=self._file_name,
            column_names=file.column_names,
            product=product,
            partials=tuple(partials),
            multiplications=multiplications,
            ciphertext_bytes=file.ciphertext_bytes,
            layout=file.layout,
        )


def make_aggregate(name: str, distinct: bool, store: CiphertextStore) -> Aggregate:
    factories = {
        "sum": SumAgg,
        "count": CountAgg,
        "avg": AvgAgg,
        "min": MinAgg,
        "max": MaxAgg,
        "grp": GrpAgg,
    }
    if name == "hom_agg" or name == "paillier_sum":
        agg: Aggregate = HomAgg(store)
    elif name in factories:
        agg = factories[name]()
    else:
        raise ExecutionError(f"unknown aggregate {name!r}")
    if distinct:
        agg = DistinctWrapper(agg)
    return agg
