"""Storage tests: codec roundtrips (property) and ciphertext files."""

from __future__ import annotations

import collections
import datetime
import enum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import EngineError
from repro.crypto.packing import PackedLayout
from repro.crypto.paillier import generate_keypair
from repro.engine.aggregates import HomAggResult
from repro.engine.executor import ResultSet
from repro.storage import (
    CiphertextFile,
    CiphertextStore,
    decode_row,
    encode_row,
    column_bytes,
    row_bytes,
    value_bytes,
)

value_strategy = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**62), max_value=2**62),
    st.integers(min_value=2**70, max_value=2**80),  # Ciphertext-sized.
    st.floats(allow_nan=False, allow_infinity=False),
    st.dates(min_value=datetime.date(1970, 1, 1), max_value=datetime.date(2100, 1, 1)),
    st.text(max_size=40),
    st.binary(max_size=40),
)


class TestRowCodec:
    @given(st.lists(value_strategy, max_size=8).map(tuple))
    @settings(max_examples=80)
    def test_roundtrip(self, row):
        assert decode_row(encode_row(row)) == row

    def test_value_bytes_matches_paper_sizes(self):
        assert value_bytes(42) == 8
        assert value_bytes(3.14) == 8
        assert value_bytes(datetime.date(1995, 1, 1)) == 4
        assert value_bytes("hello") == 6
        assert value_bytes(b"\x00" * 10) == 11
        assert value_bytes(None) == 1
        assert value_bytes(True) == 1

    def test_big_int_sized_by_bit_length(self):
        ciphertext = 1 << 2047
        assert value_bytes(ciphertext) == 256

    def test_tagset_sizing(self):
        tags = frozenset({b"12345678", b"abcdefgh"})
        assert value_bytes(tags) == 8 * 2 + 2

    def test_row_bytes_includes_header(self):
        assert row_bytes((1, "ab")) == 24 + 8 + 3

    def test_unsizable_rejected(self):
        with pytest.raises(EngineError):
            value_bytes(object())


def reference_value_bytes(value: object) -> int:
    """The sizing rule as one isinstance chain: what ``value_bytes`` was
    before it dispatched on ``type(value)``, kept as the oracle."""
    if value is None:
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        if -(1 << 63) <= value < (1 << 63):
            return 8
        return (value.bit_length() + 7) // 8
    if isinstance(value, float):
        return 8
    if isinstance(value, datetime.date):
        return 4
    if isinstance(value, str):
        return len(value.encode("utf-8")) + 1
    if isinstance(value, bytes):
        return len(value) + 1
    if isinstance(value, frozenset):
        return 8 * len(value) + 2
    if isinstance(value, (list, tuple)):
        return sum(reference_value_bytes(v) for v in value) + 2
    if hasattr(value, "byte_size"):
        return int(value.byte_size())
    raise EngineError(f"unsizable value type {type(value).__name__}")


class Flag(enum.IntEnum):
    ON = 1


Pair = collections.namedtuple("Pair", "a b")

hom_results = st.builds(
    HomAggResult,
    file_name=st.text(max_size=8),
    column_names=st.just(("x",)),
    product=st.one_of(st.none(), st.integers(0, 2**600)),
    partials=st.lists(
        st.tuples(st.integers(0, 2**600), st.lists(st.integers(0, 9)).map(tuple)),
        max_size=3,
    ).map(tuple),
    multiplications=st.just(0),
    ciphertext_bytes=st.sampled_from([96, 128, 512]),
)
sized_values = st.recursive(
    st.one_of(
        value_strategy,
        st.integers(min_value=-(2**64), max_value=2**64),  # Both 64-bit edges.
        st.frozensets(st.binary(min_size=8, max_size=8), max_size=4),
        st.datetimes().map(lambda d: d.replace(microsecond=0)),
        st.sampled_from([Flag.ON, Pair(1, "x"), Pair(2**63, None)]),
        hom_results,
    ),
    # grp() ships tuples; the client holds lists; both nest.
    lambda inner: st.one_of(st.lists(inner, max_size=6), st.lists(inner, max_size=6).map(tuple)),
    max_leaves=12,
)


class TestValueBytesDispatch:
    @given(sized_values)
    @settings(max_examples=300)
    def test_byte_for_byte_the_isinstance_chain(self, value):
        assert value_bytes(value) == reference_value_bytes(value)

    @given(st.lists(st.integers(-(2**63) - 2, 2**63 + 2), max_size=8).map(tuple))
    def test_int_tuples_at_the_64_bit_edges(self, value):
        assert value_bytes(value) == reference_value_bytes(value)

    @given(st.lists(st.lists(sized_values, min_size=2, max_size=2).map(tuple), max_size=5))
    @settings(max_examples=60)
    def test_result_set_byte_size(self, rows):
        result = ResultSet(["a", "bb"], rows)
        expected = (1 + 4) + (2 + 4)
        expected += sum(4 + sum(map(reference_value_bytes, row)) for row in rows)
        assert result.byte_size() == expected


INT64_EDGES = [-(2**63) - 1, -(2**63), 2**63 - 1, 2**63]

column_values = st.one_of(
    st.integers(-(2**63) - 2, 2**63 + 2),
    st.sampled_from(INT64_EDGES),
    st.booleans(),
    st.none(),
    st.text(alphabet="aé€\U0001f600", max_size=6),  # 1- to 4-byte UTF-8.
    st.binary(max_size=12),
    st.lists(st.integers(-(2**64), 2**64), max_size=4).map(tuple),  # grp()
)


class TestColumnBytes:
    """``column_bytes`` is ``sum(map(value_bytes, column))``, bit for bit:
    its int64 and bytes fast paths never change a count."""

    @given(st.lists(column_values, max_size=30))
    @settings(max_examples=200)
    def test_mixed_columns(self, column):
        assert column_bytes(column) == sum(map(reference_value_bytes, column))

    @given(
        st.lists(
            st.one_of(
                st.integers(-(2**63) - 2, 2**63 + 2), st.sampled_from(INT64_EDGES)
            ),
            max_size=30,
        )
    )
    def test_int_columns_at_the_64_bit_edges(self, column):
        assert column_bytes(column) == sum(map(reference_value_bytes, column))

    @given(st.lists(st.binary(max_size=40), max_size=30))
    def test_bytes_columns(self, column):
        assert column_bytes(column) == sum(map(reference_value_bytes, column))

    @pytest.mark.parametrize(
        "column, expected",
        [
            ([], 0),
            ([1, 2, 3], 24),
            ([2**63 - 1, -(2**63)], 16),
            ([2**63, 1], 8 + 8),  # One past the edge: sized by bit length.
            ([-(2**63) - 1, 1], 8 + 8),
            ([True, 1, 2], 1 + 8 + 8),  # A bool is one byte, not eight.
            ([None, 1, 2], 1 + 8 + 8),
            ([b"ab", b""], 3 + 1),
            ([b"ab", None], 3 + 1),
            (["é€", "a"], 6 + 2),
            ([(1, 2), (2**64,)], (8 + 8 + 2) + (9 + 2)),
        ],
    )
    def test_examples(self, column, expected):
        assert column_bytes(column) == expected
        assert expected == sum(map(reference_value_bytes, column))


class TestCiphertextFile:
    @pytest.fixture(scope="class")
    def file(self):
        pub, _ = generate_keypair(256, seed=b"ct-file")
        layout = PackedLayout(column_bits=(16,), pad_bits=8, plaintext_bits=pub.plaintext_bits)
        f = CiphertextFile(
            name="t_hom",
            public_key=pub,
            layout=layout,
            column_names=("x",),
            num_rows=10,
        )
        per_ct = layout.rows_per_ciphertext
        for start in range(0, 10, per_ct):
            rows = [[i] for i in range(start, min(start + per_ct, 10))]
            f.ciphertexts.append(pub.encrypt(layout.encode_rows(rows)))
        return f

    def test_locate(self, file):
        group, offset = file.locate(0)
        assert group == 0 and offset == 0
        last_group, last_offset = file.locate(file.num_rows - 1)
        assert last_group == (file.num_rows - 1) // file.rows_per_ciphertext
        assert last_offset == (file.num_rows - 1) % file.rows_per_ciphertext

    def test_locate_out_of_range(self, file):
        with pytest.raises(EngineError):
            file.locate(10)

    def test_read_accounting(self, file):
        before = file.bytes_read
        file.read(0)
        assert file.bytes_read == before + file.ciphertext_bytes

    def test_total_bytes(self, file):
        assert file.total_bytes == len(file.ciphertexts) * file.ciphertext_bytes

    def test_store(self, file):
        store = CiphertextStore()
        store.add(file)
        assert store.get("t_hom") is file
        with pytest.raises(EngineError):
            store.add(file)
        with pytest.raises(EngineError):
            store.get("missing")
        assert store.total_bytes == file.total_bytes
