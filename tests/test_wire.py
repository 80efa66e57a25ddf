"""Wire-protocol battery: round-trips, then adversarial bytes.

Two halves.  The constructive half proves the codec is lossless over the
whole value domain that crosses the client/server boundary — hypothesis
generates scalars, containers, ciphertext carriers, and query ASTs, and
every one must decode to an equal value *of the same Python type*
(``bool`` is not ``int``; ``tuple`` is not ``frozenset`` — the ledger's
``value_bytes`` sizes them differently, so type drift would silently
break byte-identical accounting across the socket).

The adversarial half feeds the decoder what a hostile or broken peer
would send — truncated frames, oversized length prefixes, bad magic,
wrong versions, garbage — and requires exactly one of two outcomes:
``None`` (incomplete, wait for more bytes) or a typed
:class:`~repro.common.errors.WireError`.  Never a hang, never an
over-read, never a non-library exception.
"""

from __future__ import annotations

import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import errors as errors_module
from repro.common.errors import (
    CodecError,
    ConfigError,
    FramingError,
    InjectedFaultError,
    LexError,
    PlanningError,
    RemoteError,
    ReproError,
    TransientError,
    TruncatedStreamError,
    UnsupportedVersionError,
    WireError,
)
from repro.crypto.packing import PackedLayout
from repro.engine.aggregates import HomAggResult
from repro.net import wire
from repro.sql import parse
from repro.testkit import SALES_WORKLOAD

# ---------------------------------------------------------------------------
# Value strategies
# ---------------------------------------------------------------------------

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1),
    # Past int64: the BIGINT path (OPE/Paillier ciphertexts live here).
    st.integers(min_value=1 << 63, max_value=1 << 256),
    st.integers(min_value=-(1 << 256), max_value=-(1 << 63) - 1),
    st.floats(allow_nan=False),
    st.text(max_size=40),
    st.binary(max_size=40),
    st.dates(),
)

hashable_values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.tuples(children, children),
        st.frozensets(children, max_size=4),
    ),
    max_leaves=8,
)

layouts = st.builds(
    PackedLayout,
    column_bits=st.lists(
        st.integers(min_value=1, max_value=8), min_size=1, max_size=3
    ).map(tuple),
    pad_bits=st.integers(min_value=0, max_value=4),
    plaintext_bits=st.just(128),
)

hom_aggs = st.builds(
    HomAggResult,
    file_name=st.text(max_size=16),
    column_names=st.lists(st.text(max_size=8), max_size=3).map(tuple),
    product=st.one_of(st.none(), st.integers(min_value=0, max_value=1 << 200)),
    partials=st.lists(
        st.tuples(st.integers(min_value=0, max_value=1 << 64)), max_size=3
    ).map(tuple),
    multiplications=st.integers(min_value=0, max_value=1 << 40),
    ciphertext_bytes=st.integers(min_value=0, max_value=1 << 40),
    layout=st.one_of(st.none(), layouts),
)

values = st.recursive(
    st.one_of(scalars, layouts, hom_aggs),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.frozensets(hashable_values, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)


def assert_same(decoded: object, original: object) -> None:
    """Equality plus exact-type fidelity, recursively."""
    assert type(decoded) is type(original)
    assert decoded == original
    if isinstance(original, (tuple, list)):
        for got, want in zip(decoded, original):
            assert_same(got, want)
    elif isinstance(original, dict):
        for key in original:
            assert_same(decoded[key], original[key])


# ---------------------------------------------------------------------------
# Round-trips
# ---------------------------------------------------------------------------


class TestValueRoundTrip:
    @given(value=values)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_any_value_round_trips(self, value):
        assert_same(wire.decode_value(wire.encode_value(value)), value)

    def test_bool_int_distinction_survives(self):
        # The load-bearing case: value_bytes(True) != value_bytes(1).
        decoded = wire.decode_value(wire.encode_value((True, 1, False, 0)))
        assert [type(v) for v in decoded] == [bool, int, bool, int]

    def test_tuple_frozenset_list_distinction_survives(self):
        for value in ((1, 2), [1, 2], frozenset({1, 2})):
            decoded = wire.decode_value(wire.encode_value(value))
            assert type(decoded) is type(value)

    def test_frozenset_encoding_is_order_independent(self):
        a = frozenset({b"\x01" * 8, b"\x02" * 8, b"\xff" * 8, 5, "x"})
        b = frozenset(sorted(a, key=repr))
        assert wire.encode_value(a) == wire.encode_value(b)

    @given(value=st.integers())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_unbounded_integers_round_trip(self, value):
        assert wire.decode_value(wire.encode_value(value)) == value

    def test_query_asts_round_trip(self):
        from repro.core import normalize_query

        extra = [
            "SELECT o_orderkey FROM orders WHERE o_custkey IN "
            "(SELECT o_custkey FROM orders GROUP BY o_custkey "
            "HAVING SUM(o_qty) > 140)",
            "SELECT COUNT(*) FROM orders WHERE o_comment LIKE '%brown%' "
            "AND o_date >= DATE '1995-06-01'",
        ]
        for sql in SALES_WORKLOAD + extra:
            query = normalize_query(parse(sql))
            decoded = wire.decode_value(wire.encode_value(query))
            assert decoded == query

    def test_unencodable_types_raise_codec_error(self):
        for value in (object(), {1: "non-str key"}, 3 + 4j, {"set"}):
            with pytest.raises(CodecError):
                wire.encode_value(value)

    def test_nesting_past_max_depth_raises(self):
        bomb: object = ()
        for _ in range(wire.MAX_DEPTH + 2):
            bomb = (bomb,)
        with pytest.raises(CodecError):
            wire.encode_value(bomb)


class TestFrameRoundTrip:
    BODIES = {
        wire.HELLO: {"client": "monomi", "version": wire.VERSION},
        wire.EXECUTE: {"block_rows": 64},
        wire.PREPARE: {"query": None},
        wire.BLOCK: {"data": [[1, 2], ["a", "b"]], "rows": 2},
        wire.LEDGER: {"bytes_scanned": 123, "rows_output": 2},
        wire.ERROR: {"code": "EngineError", "message": "x", "transient": False},
        wire.CANCEL: {},
    }

    @pytest.mark.parametrize("ftype", sorted(BODIES))
    def test_every_frame_type_round_trips(self, ftype):
        encoded = wire.encode_message(ftype, self.BODIES[ftype])
        decoder = wire.FrameDecoder()
        decoder.feed(encoded)
        got_type, payload = decoder.next_frame()
        assert got_type == ftype
        assert wire.decode_message(payload) == self.BODIES[ftype]
        assert decoder.next_frame() is None
        assert decoder.pending == 0

    @given(split=st.integers(min_value=0))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_arbitrary_split_points_reassemble(self, split):
        encoded = wire.encode_message(wire.LEDGER, self.BODIES[wire.LEDGER])
        cut = split % (len(encoded) + 1)
        decoder = wire.FrameDecoder()
        decoder.feed(encoded[:cut])
        first = decoder.next_frame()
        if cut < len(encoded):
            assert first is None
            decoder.feed(encoded[cut:])
            first = decoder.next_frame()
        ftype, payload = first
        assert ftype == wire.LEDGER
        assert wire.decode_message(payload) == self.BODIES[wire.LEDGER]

    def test_back_to_back_frames_decode_in_order(self):
        stream = b"".join(
            wire.encode_message(ftype, body)
            for ftype, body in sorted(self.BODIES.items())
        )
        decoder = wire.FrameDecoder()
        decoder.feed(stream)
        seen = []
        while (frame := decoder.next_frame()) is not None:
            seen.append(frame[0])
        assert seen == sorted(self.BODIES)


# ---------------------------------------------------------------------------
# Malformed input: typed errors, no hangs, no over-reads
# ---------------------------------------------------------------------------


class TestMalformedFrames:
    def test_truncated_frame_returns_none_never_raises(self):
        encoded = wire.encode_message(wire.HELLO, {"k": "v"})
        for cut in range(len(encoded)):
            decoder = wire.FrameDecoder()
            decoder.feed(encoded[:cut])
            assert decoder.next_frame() is None
            assert decoder.pending == cut

    def test_bad_magic_raises_framing_error(self):
        decoder = wire.FrameDecoder()
        decoder.feed(b"XX" + wire.encode_frame(wire.HELLO, b"")[2:])
        with pytest.raises(FramingError):
            decoder.next_frame()

    def test_wrong_version_raises_unsupported_version(self):
        frame = bytearray(wire.encode_frame(wire.HELLO, b""))
        frame[2] = wire.VERSION + 1
        decoder = wire.FrameDecoder()
        decoder.feed(bytes(frame))
        with pytest.raises(UnsupportedVersionError):
            decoder.next_frame()

    def test_unknown_frame_type_raises_framing_error(self):
        frame = bytearray(wire.encode_frame(wire.HELLO, b""))
        frame[3] = 0x7F
        decoder = wire.FrameDecoder()
        decoder.feed(bytes(frame))
        with pytest.raises(FramingError):
            decoder.next_frame()

    def test_oversized_length_prefix_raises_before_payload(self):
        # The header alone must trip the limit: a hostile length may
        # never make the receiver buffer (or wait for) the payload.
        header = wire.HEADER.pack(wire.MAGIC, wire.VERSION, wire.BLOCK, 1 << 30)
        decoder = wire.FrameDecoder(max_frame_bytes=1 << 20)
        decoder.feed(header)
        with pytest.raises(FramingError):
            decoder.next_frame()

    def test_encode_frame_rejects_unknown_type(self):
        with pytest.raises(FramingError):
            wire.encode_frame(99, b"")

    @given(junk=st.binary(max_size=64))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_garbage_bytes_never_hang_or_escape_the_taxonomy(self, junk):
        decoder = wire.FrameDecoder(max_frame_bytes=1 << 16)
        decoder.feed(junk)
        # Bounded work: each iteration either consumes a frame, stops, or
        # raises a typed WireError.  Anything else is a defect.
        for _ in range(len(junk) + 1):
            try:
                frame = decoder.next_frame()
            except WireError:
                return
            if frame is None:
                return

    @given(junk=st.binary(max_size=64))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_valid_header_with_garbage_payload_stays_typed(self, junk):
        decoder = wire.FrameDecoder()
        decoder.feed(wire.encode_frame(wire.EXECUTE, junk))
        ftype, payload = decoder.next_frame()
        assert ftype == wire.EXECUTE
        try:
            wire.decode_message(payload)
        except WireError:
            pass  # Typed rejection is the expected outcome.


class TestMalformedValues:
    def test_truncated_value_raises_codec_error(self):
        encoded = wire.encode_value({"key": [1, 2.5, "three", b"four"]})
        for cut in range(len(encoded)):
            with pytest.raises(CodecError):
                wire.decode_value(encoded[:cut])

    def test_trailing_bytes_raise_codec_error(self):
        with pytest.raises(CodecError):
            wire.decode_value(wire.encode_value(1) + b"\x00")

    def test_unknown_tag_raises_codec_error(self):
        with pytest.raises(CodecError):
            wire.decode_value(b"\xee")

    def test_lying_container_count_rejected_before_allocation(self):
        # A list claiming 2**31 elements inside a 9-byte payload must be
        # rejected by the count sanity bound, not attempted.
        payload = bytes([0x0A]) + (1 << 31).to_bytes(4, "big") + b"\x00" * 4
        with pytest.raises(CodecError):
            wire.decode_value(payload)

    def test_depth_bomb_payload_rejected(self):
        # 250 nested one-element tuples, hand-built so encode's own depth
        # guard cannot save us — decode must enforce the limit itself.
        payload = bytes([0x00])  # innermost None
        for _ in range(wire.MAX_DEPTH + 50):
            payload = bytes([0x09]) + (1).to_bytes(4, "big") + payload
        with pytest.raises(CodecError):
            wire.decode_value(payload)

    def test_invalid_layout_payload_stays_codec_error(self):
        # A structurally valid LAYOUT frame whose numbers violate the
        # PackedLayout invariants (row wider than the plaintext) must
        # surface as CodecError, not leak CryptoError internals.
        evil = bytes([0x0E]) + wire.encode_value((64, 64)) + wire.encode_value(
            0
        ) + wire.encode_value(8)
        with pytest.raises(CodecError):
            wire.decode_value(evil)

    def test_non_dict_message_payload_rejected(self):
        with pytest.raises(CodecError):
            wire.decode_message(wire.encode_value([1, 2, 3]))

    def test_bad_date_ordinal_rejected(self):
        evil = bytes([0x08]) + (0).to_bytes(4, "big")
        with pytest.raises(CodecError):
            wire.decode_value(evil)
        assert wire.decode_value(
            wire.encode_value(datetime.date.max)
        ) == datetime.date.max

    @given(junk=st.binary(max_size=64))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_random_payloads_decode_or_raise_codec_error(self, junk):
        try:
            wire.decode_value(junk)
        except CodecError:
            pass


# ---------------------------------------------------------------------------
# Error mapping
# ---------------------------------------------------------------------------


def concrete_error_classes() -> list[type]:
    return sorted(
        (
            obj
            for obj in vars(errors_module).values()
            if isinstance(obj, type) and issubclass(obj, ReproError)
        ),
        key=lambda cls: cls.__name__,
    )


class TestErrorMapping:
    @pytest.mark.parametrize(
        "cls", concrete_error_classes(), ids=lambda cls: cls.__name__
    )
    def test_every_taxonomy_class_survives_the_wire(self, cls):
        exc = cls("boom", 3) if cls is LexError else cls("boom")
        decoded = wire.decode_error(wire.encode_error(exc))
        assert isinstance(decoded, ReproError)
        # Transience must be preserved exactly: it decides whether the
        # client retries or surfaces the failure.
        assert isinstance(decoded, TransientError) == isinstance(
            exc, TransientError
        )
        if cls is not LexError:  # LexError's 2-arg ctor degrades to SQLError.
            assert type(decoded) is cls
        assert "boom" in str(decoded)

    def test_unknown_transient_code_degrades_to_transient(self):
        decoded = wire.decode_error(
            {"code": "FutureFlakyError", "message": "m", "transient": True}
        )
        assert type(decoded) is TransientError

    def test_unknown_fatal_code_degrades_to_remote_error(self):
        decoded = wire.decode_error(
            {"code": "FutureFatalError", "message": "m", "transient": False}
        )
        assert type(decoded) is RemoteError
        assert "FutureFatalError" in str(decoded)

    def test_foreign_exception_encodes_by_transience(self):
        class Weird(TransientError):
            pass

        class Awful(ReproError):
            pass

        assert wire.encode_error(Weird("w"))["code"] == "TransientError"
        assert wire.encode_error(Awful("a"))["code"] == "RemoteError"

    def test_bytes_scanned_rides_along(self):
        body = wire.encode_error(InjectedFaultError("x"), bytes_scanned=4096)
        assert body["bytes_scanned"] == 4096
        assert body["transient"] is True

    def test_error_body_round_trips_as_a_frame(self):
        for exc in (
            TruncatedStreamError("cut"),
            PlanningError("no plan"),
            ConfigError("bad knob"),
        ):
            encoded = wire.encode_message(wire.ERROR, wire.encode_error(exc))
            decoder = wire.FrameDecoder()
            decoder.feed(encoded)
            ftype, payload = decoder.next_frame()
            assert ftype == wire.ERROR
            decoded = wire.decode_error(wire.decode_message(payload))
            assert type(decoded) is type(exc)
