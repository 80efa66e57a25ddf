"""Paillier plaintext packing and grouped homomorphic addition (§5.2–§5.3).

Paillier plaintexts are ~1,024 bits but column values are 32–64 bits, so
storing one value per ciphertext wastes ~90% of the payload and makes scans
slow.  Following Ge & Zdonik [11] and the paper's §5.3, a
:class:`PackedLayout` packs:

* **columns**: all columns aggregated together by a query are concatenated
  within one row's slot, each padded with ``pad_bits`` zero bits so column
  sums cannot overflow into their neighbour.  ``pad_bits`` is log2 of the
  maximum number of rows expected (the paper assumes ~2**27);
* **rows**: as many whole rows as fit are packed into one plaintext.  A row
  is never split across two plaintexts (the paper accepts the slack to keep
  every column at fixed offsets).

With this layout the server sums *all* packed columns over a result set
with **one modular multiplication per ciphertext** (grouped homomorphic
addition): arithmetically,
``(a1 || ... || ak) + (b1 || ... || bk) = (a1+b1) || ... || (ak+bk)``
as long as no slot overflows, and Paillier multiplication adds plaintexts.

The client decrypts the single running ciphertext and reads each column's
total by summing that column's slot across the row positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Sequence

from repro.common.errors import CryptoError, DomainError
from repro.crypto.paillier import PaillierPrivateKey, PaillierPublicKey

DEFAULT_PAD_BITS = 27  # Paper: log2 of max table rows, ~2**27.


@dataclass(frozen=True)
class PackedLayout:
    """Slot layout for grouped homomorphic addition.

    ``column_bits[i]`` is the plaintext width of packed column ``i``; each
    slot is ``column_bits[i] + pad_bits`` wide.
    """

    column_bits: tuple[int, ...]
    pad_bits: int
    plaintext_bits: int

    def __post_init__(self) -> None:
        if not self.column_bits:
            raise CryptoError("PackedLayout needs at least one column")
        if any(b <= 0 for b in self.column_bits):
            raise CryptoError("column widths must be positive")
        if self.row_bits > self.plaintext_bits:
            raise CryptoError(
                f"one row ({self.row_bits} bits) does not fit in a "
                f"{self.plaintext_bits}-bit plaintext"
            )

    # The derived widths are computed once per instance and kept out of
    # equality, hashing, repr and pickles, which see the three fields only.

    def __getstate__(self) -> dict:
        return {
            "column_bits": self.column_bits,
            "pad_bits": self.pad_bits,
            "plaintext_bits": self.plaintext_bits,
        }

    @cached_property
    def slot_bits(self) -> tuple[int, ...]:
        return tuple(b + self.pad_bits for b in self.column_bits)

    @cached_property
    def row_bits(self) -> int:
        return sum(self.slot_bits)

    @cached_property
    def rows_per_ciphertext(self) -> int:
        return self.plaintext_bits // self.row_bits

    @cached_property
    def column_offsets(self) -> tuple[int, ...]:
        """Bit offset of each column's slot within one row."""
        return tuple(accumulate(self.slot_bits[:-1], initial=0))

    def slot_offset(self, row_index: int, column_index: int) -> int:
        """Bit offset of (row-in-group, column) within the plaintext."""
        if not 0 <= row_index < self.rows_per_ciphertext:
            raise DomainError(f"row index {row_index} out of group")
        if not 0 <= column_index < len(self.column_bits):
            raise DomainError(f"column index {column_index} out of layout")
        return row_index * self.row_bits + self.column_offsets[column_index]

    # -- encode / decode ------------------------------------------------------

    def encode_rows(self, rows: Sequence[Sequence[int]]) -> int:
        """Pack up to ``rows_per_ciphertext`` rows into one plaintext integer."""
        if len(rows) > self.rows_per_ciphertext:
            raise DomainError(
                f"{len(rows)} rows exceed group capacity {self.rows_per_ciphertext}"
            )
        column_bits = self.column_bits
        columns = tuple(zip(column_bits, self.column_offsets))
        row_bits = self.row_bits
        plaintext = 0
        for r, row in enumerate(rows):
            if len(row) != len(column_bits):
                raise DomainError(
                    f"row has {len(row)} values, layout has {len(column_bits)}"
                )
            packed = 0
            for c, (value, (bits, offset)) in enumerate(zip(row, columns)):
                if value < 0:
                    raise DomainError("packed values must be non-negative")
                if value.bit_length() > bits:
                    raise DomainError(
                        f"value {value} wider than column {c} ({bits} bits)"
                    )
                packed |= value << offset
            plaintext |= packed << (r * row_bits)
        return plaintext

    def decode_column_sums(self, plaintext: int) -> list[int]:
        """Extract per-column totals from a decrypted running sum.

        Each slot holds the sum of that (row-position, column) across all
        multiplied ciphertexts; a column's total is the sum of its slot
        values across all row positions.
        """
        rows = self.decode_rows(plaintext, self.rows_per_ciphertext)
        return [sum(column) for column in zip(*rows)]

    def decode_rows(self, plaintext: int, num_rows: int) -> list[list[int]]:
        """Recover individual packed rows (used when inspecting a single
        un-summed ciphertext, e.g. for client-side aggregation)."""
        if num_rows > self.rows_per_ciphertext:
            raise DomainError("more rows requested than the group holds")
        slots = [
            (offset, (1 << width) - 1)
            for offset, width in zip(self.column_offsets, self.slot_bits)
        ]
        rows: list[list[int]] = []
        for r in range(num_rows):
            row = plaintext >> (r * self.row_bits)
            rows.append([(row >> offset) & mask for offset, mask in slots])
        return rows

    def max_safe_rows(self) -> int:
        """How many rows can be summed before a slot could overflow.

        Each slot has ``pad_bits`` headroom, so 2**pad_bits rows of maximal
        values are always safe.
        """
        return 1 << self.pad_bits


class GroupedHomomorphicAggregator:
    """Server-side accumulator implementing grouped homomorphic addition.

    The server multiplies ciphertexts into per-group accumulators; the
    client decrypts each accumulated ciphertext once and decodes all column
    sums from it.
    """

    def __init__(self, public: PaillierPublicKey, layout: PackedLayout) -> None:
        if layout.plaintext_bits > public.plaintext_bits:
            raise CryptoError("layout plaintext wider than the Paillier payload")
        self._public = public
        self.layout = layout
        self._accumulators: dict[object, int] = {}
        self.multiplications = 0

    def add_ciphertext(self, group_key: object, ciphertext: int) -> None:
        current = self._accumulators.get(group_key)
        if current is None:
            self._accumulators[group_key] = ciphertext
        else:
            self._accumulators[group_key] = self._public.add(current, ciphertext)
            self.multiplications += 1

    def accumulated(self) -> dict[object, int]:
        return dict(self._accumulators)


def decrypt_column_sums(
    private: PaillierPrivateKey, layout: PackedLayout, ciphertext: int
) -> list[int]:
    """Client-side: one decryption yields every packed column's total."""
    return layout.decode_column_sums(private.decrypt(ciphertext))
