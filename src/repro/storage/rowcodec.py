"""Byte-accurate value and row sizing/serialization.

The paper's space results (Table 2) and I/O-bound runtime results (§5.2)
hinge on exact on-disk sizes: ciphertext expansion is scan time.  This
module is the single source of truth for how many bytes a value occupies on
the untrusted server, and provides a real binary serialization so tests can
confirm the accounting is honest (what we count is what we can round-trip).

Sizing rules (mirroring a Postgres-ish row store):

* int     — 8 bytes (the paper replaces DECIMALs with integers; big ints
            such as OPE or Paillier ciphertexts are sized by bit length)
* float   — 8 bytes
* date    — 4 bytes
* bool    — 1 byte
* text    — length + 1-byte header (short varlena)
* bytes   — length + 1-byte header
* tagset  — 8 bytes per SEARCH tag + 2-byte count
* None    — 1 byte (null bitmap share, simplified)
"""

from __future__ import annotations

import datetime
import struct

from repro.common.errors import EngineError

_EPOCH = datetime.date(1970, 1, 1)


_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


def _int_bytes(value: int) -> int:
    if _INT64_MIN <= value <= _INT64_MAX:
        return 8
    return (value.bit_length() + 7) // 8  # Ciphertext-sized integers.


def _sequence_bytes(value: list | tuple) -> int:
    # grp() ships a group as a tuple, mostly of DET integers.
    return column_bytes(value) + 2


#: The sizing rules, by exact type; a subclass sizes as its nearest base.
_SIZERS = {
    type(None): lambda value: 1,
    bool: lambda value: 1,
    int: _int_bytes,
    float: lambda value: 8,
    datetime.date: lambda value: 4,
    str: lambda value: len(value.encode("utf-8")) + 1,
    bytes: lambda value: len(value) + 1,
    frozenset: lambda value: 8 * len(value) + 2,
    list: _sequence_bytes,
    tuple: _sequence_bytes,
}


def value_bytes(value: object) -> int:
    """On-disk size of one value on the server."""
    kind = type(value)
    sizer = _SIZERS.get(kind)
    if sizer is None:
        # datetime is a date, an IntEnum an int, a namedtuple a tuple.
        for base in kind.__mro__[1:]:
            sizer = _SIZERS.get(base)
            if sizer is not None:
                break
        else:
            if hasattr(value, "byte_size"):
                return int(value.byte_size())
            raise EngineError(f"unsizable value type {kind.__name__}")
    return sizer(value)


def column_bytes(column: list | tuple) -> int:
    """Summed :func:`value_bytes` of a column, equal to
    ``sum(map(value_bytes, column))``.  A column of exact ``int`` values
    within int64, or of ``bytes``, is sized without a call per value; any
    other column (bools, wider ints, NULLs, mixed types) goes value by
    value."""
    kinds = set(map(type, column))
    if kinds == {int}:
        if _INT64_MIN <= min(column) and max(column) <= _INT64_MAX:
            return 8 * len(column)
    elif kinds == {bytes}:
        return sum(map(len, column)) + len(column)
    return sum(map(value_bytes, column))


def row_bytes(row: tuple) -> int:
    """On-disk size of one row: values + a fixed per-row header (23 bytes in
    Postgres; we round to 24)."""
    return 24 + sum(map(value_bytes, row))


def rows_bytes(rows: list[tuple]) -> int:
    """Summed :func:`row_bytes` of equal-length rows, sized a column at a
    time with :func:`column_bytes`."""
    return 24 * len(rows) + sum(map(column_bytes, zip(*rows)))


# ---------------------------------------------------------------------------
# Real serialization (used by tests to validate the accounting, and by the
# ciphertext store for its file layout)
# ---------------------------------------------------------------------------

_TAG_NONE = 0
_TAG_BOOL = 1
_TAG_INT = 2
_TAG_BIGINT = 3
_TAG_FLOAT = 4
_TAG_DATE = 5
_TAG_TEXT = 6
_TAG_BYTES = 7
_TAG_TAGSET = 8


def encode_value(value: object) -> bytes:
    if value is None:
        return bytes([_TAG_NONE])
    if isinstance(value, bool):
        return bytes([_TAG_BOOL, int(value)])
    if isinstance(value, int):
        if -(1 << 63) <= value < (1 << 63):
            return bytes([_TAG_INT]) + struct.pack("<q", value)
        payload = value.to_bytes((value.bit_length() + 7) // 8, "big")
        return bytes([_TAG_BIGINT]) + struct.pack("<I", len(payload)) + payload
    if isinstance(value, float):
        return bytes([_TAG_FLOAT]) + struct.pack("<d", value)
    if isinstance(value, datetime.date):
        return bytes([_TAG_DATE]) + struct.pack("<i", (value - _EPOCH).days)
    if isinstance(value, str):
        payload = value.encode("utf-8")
        return bytes([_TAG_TEXT]) + struct.pack("<I", len(payload)) + payload
    if isinstance(value, bytes):
        return bytes([_TAG_BYTES]) + struct.pack("<I", len(value)) + value
    if isinstance(value, frozenset):
        tags = sorted(value)
        return bytes([_TAG_TAGSET]) + struct.pack("<I", len(tags)) + b"".join(tags)
    raise EngineError(f"unencodable value type {type(value).__name__}")


def decode_value(data: bytes, offset: int = 0) -> tuple[object, int]:
    """Decode one value; returns (value, next_offset)."""
    tag = data[offset]
    offset += 1
    if tag == _TAG_NONE:
        return None, offset
    if tag == _TAG_BOOL:
        return bool(data[offset]), offset + 1
    if tag == _TAG_INT:
        return struct.unpack_from("<q", data, offset)[0], offset + 8
    if tag == _TAG_BIGINT:
        (length,) = struct.unpack_from("<I", data, offset)
        offset += 4
        return int.from_bytes(data[offset : offset + length], "big"), offset + length
    if tag == _TAG_FLOAT:
        return struct.unpack_from("<d", data, offset)[0], offset + 8
    if tag == _TAG_DATE:
        (days,) = struct.unpack_from("<i", data, offset)
        return _EPOCH + datetime.timedelta(days=days), offset + 4
    if tag == _TAG_TEXT:
        (length,) = struct.unpack_from("<I", data, offset)
        offset += 4
        return data[offset : offset + length].decode("utf-8"), offset + length
    if tag == _TAG_BYTES:
        (length,) = struct.unpack_from("<I", data, offset)
        offset += 4
        return bytes(data[offset : offset + length]), offset + length
    if tag == _TAG_TAGSET:
        (count,) = struct.unpack_from("<I", data, offset)
        offset += 4
        tags = frozenset(
            bytes(data[offset + 8 * i : offset + 8 * (i + 1)]) for i in range(count)
        )
        return tags, offset + 8 * count
    raise EngineError(f"bad value tag {tag}")


def encode_row(row: tuple) -> bytes:
    body = b"".join(encode_value(v) for v in row)
    return struct.pack("<I", len(row)) + body


def decode_row(data: bytes) -> tuple:
    (count,) = struct.unpack_from("<I", data, 0)
    offset = 4
    values = []
    for _ in range(count):
        value, offset = decode_value(data, offset)
        values.append(value)
    return tuple(values)
