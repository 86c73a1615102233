"""Fuzz and round-trip tests for the RLE wire codec (tracing.wire).

The codec's documented contract: ``decode_block`` returns a
:class:`RunLengthSeries` or raises :class:`TraceError` -- never a bare
``struct.error``, a series-construction error, or any other exception --
so a streaming analyzer can drop a bad block and keep its refresh loop
alive. Hypothesis hammers that contract with truncations and byte flips.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

import struct
import warnings
import zlib

from repro.core.rle import rle_encode
from repro.core.timeseries import DensityTimeSeries
from repro.errors import E2EProfError, TraceError
from repro.tracing.wire import (
    FRAME_MAGIC,
    FRAME_VERSION,
    RoundFrame,
    decode_block,
    decode_frame,
    decode_frames,
    encode_block,
    encode_frame,
)

QUANTUM = 1e-3

#: Float32-exact density values, so decode reproduces the series exactly
#: (the wire carries float32) and re-encoding is byte-identical.
densities = st.one_of(
    st.just(0.0),
    st.integers(min_value=0, max_value=1024).map(lambda k: k / 8.0),
)

wire_blocks = st.builds(
    lambda dense, start: rle_encode(
        DensityTimeSeries.from_dense(
            np.asarray(dense, dtype=np.float64), start, QUANTUM
        )
    ),
    dense=st.lists(densities, min_size=0, max_size=80),
    start=st.integers(-10_000, 10_000),
)


class TestRoundTrip:
    @given(block=wire_blocks)
    def test_roundtrip_reproduces_series(self, block):
        decoded = decode_block(encode_block(block))
        assert decoded.start == block.start
        assert decoded.length == block.length
        assert decoded.quantum == block.quantum
        assert decoded.num_runs == block.num_runs
        np.testing.assert_array_equal(decoded.starts, block.starts)
        np.testing.assert_array_equal(decoded.counts, block.counts)
        np.testing.assert_array_equal(decoded.values, block.values)

    @given(block=wire_blocks)
    def test_reencode_is_byte_identical(self, block):
        payload = encode_block(block)
        assert encode_block(decode_block(payload)) == payload

    def test_empty_block_roundtrips(self):
        block = rle_encode(DensityTimeSeries.empty(5, 12, QUANTUM))
        payload = encode_block(block)
        decoded = decode_block(payload)
        assert decoded.num_runs == 0
        assert decoded.length == 12
        assert encode_block(decoded) == payload


class TestCorruption:
    def test_trace_error_is_an_e2eprof_error(self):
        assert issubclass(TraceError, E2EProfError)

    @given(block=wire_blocks, data=st.data())
    def test_any_truncation_raises_trace_error(self, block, data):
        payload = encode_block(block)
        cut = data.draw(st.integers(0, len(payload) - 1))
        with pytest.raises(TraceError):
            decode_block(payload[:cut])

    def test_every_single_byte_truncation_of_one_block(self):
        """Exhaustive prefix sweep on a representative block."""
        block = rle_encode(
            DensityTimeSeries.from_dense(
                [0.0, 2.0, 2.0, 0.0, 0.0, 1.5, 0.0, 3.0], 100, QUANTUM
            )
        )
        payload = encode_block(block)
        for cut in range(len(payload)):
            with pytest.raises(TraceError):
                decode_block(payload[:cut])

    @given(block=wire_blocks, data=st.data())
    def test_byte_flips_never_escape_trace_error(self, block, data):
        """A flipped byte either still decodes to a valid series (e.g. a
        flipped value bit) or raises the documented TraceError -- no other
        exception type may escape."""
        payload = bytearray(encode_block(block))
        pos = data.draw(st.integers(0, len(payload) - 1))
        flip = data.draw(st.integers(1, 255))
        payload[pos] ^= flip
        try:
            decoded = decode_block(bytes(payload))
        except TraceError:
            return
        # Survived: must be a structurally sound series.
        assert decoded.length >= 0
        assert decoded.num_runs >= 0
        assert np.all(decoded.counts >= 1)

    @given(block=wire_blocks, junk=st.binary(min_size=1, max_size=16))
    def test_trailing_junk_raises(self, block, junk):
        with pytest.raises(TraceError):
            decode_block(encode_block(block) + junk)

    def test_bad_magic_and_version(self):
        payload = bytearray(
            encode_block(rle_encode(DensityTimeSeries.empty(0, 4, QUANTUM)))
        )
        wrong_magic = b"XX" + bytes(payload[2:])
        with pytest.raises(TraceError):
            decode_block(wrong_magic)
        payload[2] = 99  # version byte
        with pytest.raises(TraceError):
            decode_block(bytes(payload))


#: Frame field strategies: identifiers plus arbitrary unicode to prove
#: the varint-length string codec holds for any node/edge naming scheme.
frame_names = st.text(min_size=0, max_size=12)

@st.composite
def wire_frames(draw):
    """A round frame: one window, and the loud blocks of 0-4 edges in it
    (an edge whose drawn density is all zero stays quiet, off the wire)."""
    start = draw(st.integers(-10_000, 10_000))
    length = draw(st.integers(0, 80))
    blocks = {}
    for edge in draw(st.lists(st.tuples(frame_names, frame_names), max_size=4, unique=True)):
        dense = draw(st.lists(densities, min_size=length, max_size=length))
        block = rle_encode(
            DensityTimeSeries.from_dense(np.asarray(dense, dtype=np.float64), start, QUANTUM)
        )
        if block.num_runs:
            blocks[edge] = block
    return RoundFrame(
        draw(frame_names),
        draw(st.integers(0, 2**40)),
        draw(st.integers(0, 2**40)),
        start, length, QUANTUM, blocks,
    )


def _frame_with_body(body: bytes) -> bytes:
    """Assemble a prefix-valid frame around a hand-crafted body (the CRC
    is computed honestly, so only the body content is wrong)."""
    return struct.pack("<2sBI", FRAME_MAGIC, FRAME_VERSION, zlib.crc32(body)) + body


class TestFrameRoundTrip:
    @given(frame=wire_frames())
    def test_roundtrip_reproduces_frame(self, frame):
        decoded = decode_frame(encode_frame(frame))
        assert decoded.node == frame.node
        assert decoded.epoch == frame.epoch
        assert decoded.seq == frame.seq
        assert (decoded.start, decoded.length, decoded.quantum) == (
            frame.start, frame.length, frame.quantum,
        )
        assert list(decoded.blocks) == list(frame.blocks)
        assert decoded.blocks == frame.blocks

    @given(frame=wire_frames())
    def test_reencode_is_byte_identical(self, frame):
        payload = encode_frame(frame)
        assert encode_frame(decode_frame(payload)) == payload


class TestFrameCorruption:
    @given(frame=wire_frames(), data=st.data())
    def test_any_truncation_raises_trace_error(self, frame, data):
        payload = encode_frame(frame)
        cut = data.draw(st.integers(0, len(payload) - 1))
        with pytest.raises(TraceError):
            decode_frame(payload[:cut])

    @given(frame=wire_frames(), data=st.data())
    def test_any_single_byte_flip_raises_trace_error(self, frame, data):
        """The CRC-32 over the body makes *every* single-byte corruption a
        deterministic TraceError -- unlike the bare block codec, a flipped
        frame can never silently decode to different values."""
        payload = bytearray(encode_frame(frame))
        pos = data.draw(st.integers(0, len(payload) - 1))
        payload[pos] ^= data.draw(st.integers(1, 255))
        with pytest.raises(TraceError):
            decode_frame(bytes(payload))

    def test_every_single_byte_flip_of_one_frame(self):
        """Exhaustive single-byte-flip sweep on representative rounds: a
        loud one (two blocks) and a quiet one (the heartbeat)."""
        loud = rle_encode(
            DensityTimeSeries.from_dense(
                [0.0, 2.0, 2.0, 0.0, 0.0, 1.5, 0.0, 3.0], 100, QUANTUM
            )
        )
        other = rle_encode(
            DensityTimeSeries.from_dense([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5], 100, QUANTUM)
        )
        rounds = [
            RoundFrame("WS", 3, 7, 100, 8, QUANTUM, {("C1", "WS"): loud, ("TS1", "WS"): other}),
            RoundFrame("WS", 3, 8, 108, 8, QUANTUM),
        ]
        for frame in rounds:
            payload = bytearray(encode_frame(frame))
            for pos in range(len(payload)):
                for flip in (0x01, 0x55, 0xFF):
                    mutated = bytearray(payload)
                    mutated[pos] ^= flip
                    with pytest.raises(TraceError):
                        decode_frame(bytes(mutated))

    def test_varint_overflow_with_valid_crc(self):
        """A hand-crafted frame whose epoch varint exceeds 64 bits passes
        the CRC (it was computed over the bad body) but must still fail
        with TraceError, not a hang or an integer blow-up."""
        body = bytes([0x00]) + b"\xff" * 10 + bytes([0x01])
        with pytest.raises(TraceError):
            decode_frame(_frame_with_body(body))

    def test_string_length_overrun_with_valid_crc(self):
        """A node-name length claiming more bytes than the body holds."""
        body = bytearray([0x00])  # round-frame flags
        body += bytes([0x00, 0x00])  # epoch 0, seq 0
        body += bytes([0x7F])  # node length 127 with no bytes behind it
        with pytest.raises(TraceError):
            decode_frame(_frame_with_body(bytes(body)))

    def test_heartbeat_with_trailing_bytes_rejected(self):
        """A quiet round (the heartbeat) followed by stray bytes."""
        payload = encode_frame(RoundFrame("N", 0, 0, 0, 10, QUANTUM))
        body = payload[7:] + b"\x00"
        with pytest.raises(TraceError):
            decode_frame(_frame_with_body(body))

    def test_negative_epoch_unencodable(self):
        with pytest.raises(TraceError):
            encode_frame(RoundFrame("N", -1, 0, 0, 10, QUANTUM))


def _section_frame(section: bytes, blocks: bytes = b"\x00") -> bytes:
    """Node N's round 0 with ``blocks`` and then the timestamp ``section``,
    under an honest CRC."""
    body = b"\x00\x00\x00\x01N" + struct.pack("<dqq", QUANTUM, 0, 10) + blocks + section
    return _frame_with_body(body)


def _batch(count: bytes, rest: bytes = b"") -> bytes:
    """The edge table A -> N, one batch on it with ``count``, then the
    section's widths, first values and deltas."""
    return b"\x01\x01A\x01N\x01\x00" + count + rest


_ONE = struct.pack("<d", 1.0)
_INF_BITS = struct.unpack("<Q", struct.pack("<d", float("inf")))[0]

#: Timestamp sections the decoder must reject with TraceError, each for
#: its own reason (the CRC is honest, so only the section is wrong).
HOSTILE_SECTIONS = {
    "no section at all": _frame_with_body(
        b"\x00\x00\x00\x01N" + struct.pack("<dqq", QUANTUM, 0, 10) + b"\x00"
    ),
    "truncated edge table": _section_frame(b"\x01\x01A"),
    "truncated first value": _section_frame(_batch(b"\x01", _ONE[:5])),
    "truncated deltas": _section_frame(_batch(b"\x03", b"\x02" + _ONE + b"\x00\x01")),
    "missing width": _section_frame(_batch(b"\x02")),
    "width 0": _section_frame(_batch(b"\x02", b"\x00" + _ONE)),
    "width 9": _section_frame(_batch(b"\x02", b"\x09" + _ONE + bytes(9))),
    "width 255": _section_frame(_batch(b"\x02", b"\xff" + _ONE + bytes(255))),
    "count overruns the body": _section_frame(_batch(b"\x05", b"\x01" + _ONE + b"\x02\x02")),
    "count worth 2**63": _section_frame(_batch(b"\x80" * 9 + b"\x01", b"\x01" + _ONE + b"\x02")),
    "foreign edge": _section_frame(b"\x01\x01A\x01B\x01\x00\x01" + _ONE),
    "self-loop edge": _section_frame(b"\x01\x01N\x01N\x01\x00\x01" + _ONE),
    "edge index past the table": _section_frame(b"\x01\x01A\x01N\x01\x01\x01" + _ONE),
    "two batches on one edge": _section_frame(
        b"\x01\x01A\x01N\x02\x00\x01\x00\x01" + _ONE + _ONE
    ),
    "edge named twice": _section_frame(b"\x02\x01A\x01N\x01A\x01N\x00"),
    "nan first value": _section_frame(_batch(b"\x01", struct.pack("<d", float("nan")))),
    "infinite first value": _section_frame(_batch(b"\x01", struct.pack("<d", float("-inf")))),
    # 1.0 plus a delta landing exactly on +inf's bit pattern.
    "delta decodes to infinity": _section_frame(
        _batch(
            b"\x02",
            b"\x08" + _ONE
            + (2 * (_INF_BITS - struct.unpack("<Q", _ONE)[0])).to_bytes(8, "little"),
        )
    ),
    "trailing bytes": _section_frame(_batch(b"\x01", _ONE + b"\x00")),
}


class TestTimestampSectionCorruption:
    def test_honest_section_decodes(self):
        """The hostile sections' building blocks, uncorrupted, are sound."""
        frame = decode_frame(_section_frame(_batch(b"\x03", b"\x01" + _ONE + b"\x02\x01")))
        stamps = frame.batches[("A", "N")]
        assert stamps.tolist() == [1.0, np.nextafter(1.0, 2.0), 1.0]

    @pytest.mark.parametrize("name", sorted(HOSTILE_SECTIONS))
    def test_rejected_with_trace_error_without_warnings(self, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning is a failure
            with pytest.raises(TraceError):
                decode_frame(HOSTILE_SECTIONS[name])

    @pytest.mark.parametrize("name", sorted(HOSTILE_SECTIONS))
    def test_never_poisons_its_neighbours(self, name):
        """All of a receive's timestamps decode in one pass; a bad batch
        still fails only its own frame."""
        stamps = np.array([3.0, 1.0, -2.5, 1e9])
        good = RoundFrame("M", 0, 0, 0, 10, QUANTUM, {}, {("M", "X"): stamps})
        other = RoundFrame("N", 1, 4, 0, 10, QUANTUM, {}, {("Y", "N"): stamps[::-1]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            first, verdict, last = decode_frames(
                [encode_frame(good), HOSTILE_SECTIONS[name], encode_frame(other)]
            )
        assert (first, last) == (good, other)
        assert isinstance(verdict, TraceError)

