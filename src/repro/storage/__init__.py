"""Storage substrate: byte-accurate sizing, serialization, ciphertext files."""

from repro.storage.ciphertext_store import CiphertextFile, CiphertextStore
from repro.storage.rowcodec import (
    column_bytes,
    decode_row,
    decode_value,
    encode_row,
    encode_value,
    row_bytes,
    value_bytes,
)

__all__ = [
    "CiphertextFile",
    "CiphertextStore",
    "column_bytes",
    "decode_row",
    "decode_value",
    "encode_row",
    "encode_value",
    "row_bytes",
    "value_bytes",
]
