"""The batched RLE block codec against its two contracts.

* **Differential**: for any flush round -- empty blocks, single-byte and
  multi-byte varints, 2**40 gaps, and payloads truncated, bit-flipped or
  padded on the way -- ``encode_blocks`` produces the bytes the scalar
  reference loop (``tests/wire_reference.py``) produces, and
  ``decode_blocks`` accepts exactly the payloads the reference accepts,
  with equal results, one verdict per payload.
* **Round frames**: the same differential for whole version-3 round
  frames against the scalar round codec, quiet and loud rounds alike,
  with and without capture batches.
* **Timestamp sections**: any batch -- unsorted, negative, signed zeros,
  subnormals, bit-pattern deltas that wrap in zigzag, zero or one
  element -- comes back bit for bit, in the reference coder's bytes.
* **Golden vectors**: ``tests/data/wire_golden.json`` holds blocks as the
  scalar codec wrote them at the commit that retired it, version-3 frames
  as the scalar round codec writes them, and the retired version-1 and
  version-2 frames, each of which must now be rejected. They are the wire
  format's contract: a diff there is a format change.
"""

import json
import pathlib
import struct
import warnings
import zlib

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.config import TransportConfig
from repro.core.rle import RunLengthSeries
from repro.errors import TraceError
from repro.tracing.transport import TransportReceiver
from repro.tracing.wire import (
    _FRAME_PREFIX,
    _HEADER,
    FRAME_MAGIC,
    FRAME_VERSION,
    MAGIC,
    VERSION,
    RoundFrame,
    decode_block,
    decode_blocks,
    decode_frame,
    decode_frames,
    encode_block,
    encode_blocks,
    encode_frame,
    encode_frames,
)
from tests.wire_reference import (
    decode_block_reference,
    decode_round_reference,
    decode_stamps_reference,
    encode_block_reference,
    encode_round_reference,
    encode_stamps_reference,
)

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "data" / "wire_golden.json").read_text()
)
INT64_MAX = 2**63 - 1


def series_from(spec) -> RunLengthSeries:
    return RunLengthSeries(
        np.array(spec["starts"], np.int64),
        np.array(spec["counts"], np.int64),
        np.array(spec["values"], np.float64),
        spec["start"],
        spec["length"],
        spec["quantum"],
    )


def reference_verdict(payload: bytes):
    """The scalar decoder's block, or None where it rejects the payload.

    Two hardenings of the batched decoder count as rejections here: the
    scalar loop let a varint past 2**63 escape as a bare OverflowError,
    and accepted a window whose end does not fit int64 (unusable
    downstream: every index computation on it would wrap)."""
    try:
        block = decode_block_reference(payload)
    except (TraceError, OverflowError):
        return None
    return block if block.end <= INT64_MAX else None


# -- strategies ------------------------------------------------------------------

#: (gap bound, count bound) per block kind: one-byte varints, two- and
#: three-byte varints, and gaps up to 2**40.
KINDS = {"narrow": (127, 127), "wide": (40_000, 300), "huge": (2**40, 2**20)}


@st.composite
def wire_block(draw):
    kind = draw(st.sampled_from(["empty", "narrow", "narrow", "wide", "huge"]))
    start = draw(st.integers(-(10**6), 10**6))
    quantum = draw(st.sampled_from([1e-3, 5e-4, 0.25]))
    if kind == "empty":
        return RunLengthSeries.empty(start, draw(st.integers(0, 5000)), quantum)
    max_gap, max_count = KINDS[kind]
    runs = draw(
        st.lists(
            st.tuples(
                st.integers(0, max_gap),
                st.integers(1, max_count),
                # float32-exact, so decode reproduces the series exactly.
                st.integers(1, 4096).map(lambda k: k / 8.0),
            ),
            min_size=1,
            max_size=12,
        )
    )
    gaps, counts, values = (np.array(col) for col in zip(*runs))
    ends = np.cumsum(gaps + counts)
    return RunLengthSeries(
        start + ends - counts, counts, values.astype(np.float64), start,
        int(ends[-1]) + draw(st.integers(0, 50)), quantum,
    )


@st.composite
def damaged(draw, payload: bytes) -> bytes:
    """``payload`` as a lossy link or a hostile sender might deliver it."""
    how = draw(st.sampled_from(["intact", "intact", "truncate", "flip", "pad"]))
    if how == "truncate":
        return payload[: draw(st.integers(0, len(payload) - 1))]
    if how == "flip":
        mutated = bytearray(payload)
        for _ in range(draw(st.integers(1, 3))):
            mutated[draw(st.integers(0, len(mutated) - 1))] ^= draw(st.integers(1, 255))
        return bytes(mutated)
    if how == "pad":
        return payload + draw(st.binary(min_size=1, max_size=9))
    return payload


rounds = st.lists(wire_block(), min_size=1, max_size=8)


# -- differential ----------------------------------------------------------------


class TestDifferential:
    @given(blocks=rounds)
    @settings(max_examples=200)
    def test_encode_matches_reference_byte_for_byte(self, blocks):
        assert encode_blocks(blocks) == [encode_block_reference(b) for b in blocks]

    @given(data=st.data(), blocks=rounds)
    @settings(max_examples=300)
    def test_decode_matches_reference_per_payload(self, data, blocks):
        payloads = [
            data.draw(damaged(encode_block_reference(b))) for b in blocks
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            decoded = decode_blocks(payloads)
        assert len(decoded) == len(payloads)
        for payload, got in zip(payloads, decoded):
            expected = reference_verdict(payload)
            if expected is None:
                assert isinstance(got, TraceError), payload.hex()
            else:
                assert got == expected, payload.hex()
                assert (got.starts.dtype, got.counts.dtype, got.values.dtype) == (
                    np.int64, np.int64, np.float64,
                )

    @given(blocks=rounds)
    def test_one_element_calls_are_the_batched_codec(self, blocks):
        payloads = encode_blocks(blocks)
        assert [encode_block(b) for b in blocks] == payloads
        assert [decode_block(p) for p in payloads] == decode_blocks(payloads)

    def test_empty_round(self):
        assert encode_blocks([]) == []
        assert decode_blocks([]) == []


def raw_block(runs_field: int, body: bytes, start=0, length=1000, quantum=1e-3) -> bytes:
    return _HEADER.pack(MAGIC, VERSION, quantum, start, length, runs_field) + body


def run_bytes(gap: bytes, count: bytes, value: float) -> bytes:
    return gap + count + struct.pack("<f", value)


GOOD = encode_block_reference(
    RunLengthSeries(np.array([3, 400]), np.array([2, 5]), np.array([1.0, 2.0]), 0, 1000, 1e-3)
)

#: Hand-built hostile payloads the decoder must reject, each for its own reason.
HOSTILE = {
    "truncated varint": raw_block(1, b"\x80"),
    "truncated run value": raw_block(1, b"\x01\x01\x00\x00"),
    "trailing bytes": raw_block(1, run_bytes(b"\x01", b"\x01", 1.0) + b"\x00"),
    "runs claimed, none sent": raw_block(2**32 - 1, b""),
    "body without runs": raw_block(0, b"\x00" * 6),
    "eleven-byte varint": raw_block(1, run_bytes(b"\xff" * 10 + b"\x01", b"\x01", 1.0)),
    "varint worth 2**63": raw_block(1, run_bytes(b"\x80" * 9 + b"\x01", b"\x01", 1.0)),
    "zero count": raw_block(1, run_bytes(b"\x01", b"\x00", 1.0)),
    "zero value": raw_block(1, run_bytes(b"\x01", b"\x01", 0.0)),
    "negative value": raw_block(1, run_bytes(b"\x01", b"\x01", -1.0)),
    "nan value": raw_block(1, run_bytes(b"\x01", b"\x01", float("nan"))),
    # 0x7fa00000: a signalling NaN, which warns when cast to float64.
    "signalling nan value": raw_block(1, b"\x01\x01\x00\x00\xa0\x7f"),
    "run past the window": raw_block(1, run_bytes(b"\xe7\x07", b"\x02", 1.0)),
    "gap sum wraps int64": raw_block(
        3,
        3 * run_bytes(b"\xff" * 8 + b"\x7f", b"\x01", 1.0),
        start=-(2**62), length=INT64_MAX,
    ),
    "window end past int64": raw_block(0, b"", start=2**62, length=INT64_MAX),
    "narrow body with a continuation bit": raw_block(
        2, run_bytes(b"\x81", b"\x01", 1.0) + run_bytes(b"\x01", b"\x01", 1.0)
    ),
    "bad magic": b"XX" + GOOD[2:],
    "shorter than header": GOOD[:10],
}


class TestHostilePayloads:
    @pytest.mark.parametrize("name", sorted(HOSTILE))
    def test_rejected_alone_without_warnings(self, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (verdict,) = decode_blocks([HOSTILE[name]])
            assert isinstance(verdict, TraceError)
            with pytest.raises(TraceError):
                decode_block(HOSTILE[name])

    @pytest.mark.parametrize("name", sorted(HOSTILE))
    def test_never_poisons_its_neighbours(self, name):
        """One bad body between good ones: only its own slot is an error,
        whichever decode path (packed or pointer-chasing) the round takes."""
        good = decode_block_reference(GOOD)
        wide = encode_block_reference(
            RunLengthSeries(np.array([2**30]), np.array([300]), np.array([1.5]), 0, 2**31, 1e-3)
        )
        for neighbours in ([GOOD, GOOD], [GOOD, wide]):
            before, after = neighbours
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                first, verdict, last = decode_blocks([before, HOSTILE[name], after])
            assert first == good
            assert isinstance(verdict, TraceError)
            assert last == decode_block_reference(after)

    def test_ten_byte_varint_with_zero_high_bits_is_accepted(self):
        """Non-canonical but in range: the scalar loop took it, so must we."""
        payload = raw_block(1, run_bytes(b"\x83" + b"\x80" * 8 + b"\x00", b"\x02", 1.0))
        assert decode_block(payload) == decode_block_reference(payload)
        assert decode_block(payload).starts.tolist() == [3]

    def test_corrupt_frame_among_good_ones(self):
        good = decode_block_reference(GOOD)
        frames = [
            RoundFrame("N", 0, seq, 0, 1000, 1e-3, {("A", "N"): good})
            for seq in range(3)
        ]
        payloads = encode_frames(frames)
        body = payloads[1]
        payloads[1] = body[:-1] + bytes([body[-1] ^ 0xFF])  # fails the CRC
        first, verdict, last = decode_frames(payloads)
        assert (first, last) == (frames[0], frames[2])
        assert isinstance(verdict, TraceError)


# -- round frames ----------------------------------------------------------------


#: Float64 values whose bit patterns stress the timestamp coder: signed
#: zeros, subnormals, the extremes (their differences wrap in zigzag)
#: and ordinary capture times.
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308, 1.0, -1.0]
stamp_values = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(0.0, 1e5),
)
stamp_batches = st.one_of(
    st.lists(stamp_values, max_size=12),
    # A capture-like batch: sorted times a few milliseconds apart.
    st.lists(st.floats(0.0, 1e-2), max_size=30).map(
        lambda gaps: (100.0 + np.cumsum(gaps)).tolist()
    ),
).map(lambda values: np.array(values, dtype=np.float64))


@st.composite
def wire_batches(draw, node, edges):
    """Capture batches of ``node``: on some of ``edges`` that have it at
    exactly one end, and on new edges of its own."""
    own = [e for e in edges if (e[0] == node) != (e[1] == node)]
    peers = draw(st.lists(st.text(max_size=3).filter(lambda x: x != node), max_size=3))
    candidates = own + [(node, p) for p in peers] + [(p, node) for p in peers]
    chosen = draw(st.lists(st.sampled_from(candidates), unique=True)) if candidates else []
    return {edge: draw(stamp_batches) for edge in chosen}


@st.composite
def wire_round(draw):
    """A round frame: one window, 0-5 loud blocks in it on distinct edges,
    and capture batches on 0 or more edges of its node."""
    node = draw(st.text(max_size=4))
    start = draw(st.integers(-(10**6), 10**6))
    quantum = draw(st.sampled_from([1e-3, 5e-4, 0.25]))
    max_gap, max_count = KINDS[draw(st.sampled_from(["narrow", "narrow", "wide", "huge"]))]
    ends = st.one_of(st.just(node), st.text(max_size=3))
    edges = draw(st.lists(st.tuples(ends, ends), max_size=5, unique=True))
    runs_per_edge = [
        draw(
            st.lists(
                st.tuples(
                    st.integers(0, max_gap),
                    st.integers(1, max_count),
                    st.integers(1, 4096).map(lambda k: k / 8.0),
                ),
                min_size=1,
                max_size=8,
            )
        )
        for _ in edges
    ]
    ends = [sum(g + c for g, c, _ in runs) for runs in runs_per_edge]
    length = max(ends, default=0) + draw(st.integers(0, 50))
    blocks = {}
    for edge, runs in zip(edges, runs_per_edge):
        gaps, counts, values = (np.array(col) for col in zip(*runs))
        run_ends = np.cumsum(gaps + counts)
        blocks[edge] = RunLengthSeries(
            start + run_ends - counts, counts, values.astype(np.float64),
            start, length, quantum,
        )
    return RoundFrame(
        node,
        draw(st.integers(0, 2**40)),
        draw(st.integers(0, 2**40)),
        start, length, quantum, blocks, draw(wire_batches(node, edges)),
    )


def round_verdict(payload: bytes):
    """The scalar round decoder's frame, or None where it rejects it."""
    try:
        frame = decode_round_reference(payload)
    except (TraceError, OverflowError):
        return None
    return frame if frame.start + frame.length <= INT64_MAX else None


def with_crc(body: bytes, version: int = FRAME_VERSION) -> bytes:
    """A frame around ``body`` whose CRC is honest, so only the body is wrong."""
    return struct.pack("<2sBI", FRAME_MAGIC, version, zlib.crc32(body)) + body


def round_body(
    blocks: bytes, count: int, start=0, length=1000, quantum=1e-3, section=b"\x00\x00"
) -> bytes:
    """Node N's round 0 of epoch 0: ``count`` blocks, then ``section``
    (by default: no extra edges, no batches)."""
    return (
        b"\x00\x00\x00\x01N" + struct.pack("<dqq", quantum, start, length)
        + bytes([count]) + blocks + section
    )


ONE_RUN = run_bytes(b"\x01", b"\x01", 1.0)

#: Round frames with an honest CRC that the decoder must still reject.
HOSTILE_ROUNDS = {
    "quiet block on the wire": with_crc(round_body(b"\x01A\x01N\x00\x00", 1)),
    "edge carried twice": with_crc(
        round_body(2 * (b"\x01A\x01N\x01\x06" + ONE_RUN), 2)
    ),
    "block body overruns the frame": with_crc(round_body(b"\x01A\x01N\x01\x09" + ONE_RUN, 1)),
    "runs short of their count": with_crc(round_body(b"\x01A\x01N\x02\x06" + ONE_RUN, 1)),
    # runs = 2**63: past int64.
    "runs worth 2**63": with_crc(
        round_body(b"\x01A\x01N" + b"\x80" * 9 + b"\x01" + b"\x06" + ONE_RUN, 1)
    ),
    # runs = (2**64 + 8) / 6: six bytes a run wraps int64 to the 8-byte body.
    "runs times six wraps to the body size": with_crc(
        round_body(
            b"\x01A\x01N" + bytes.fromhex("acd5aad5aad5aad52a") + b"\x08" + ONE_RUN + b"\x00\x00",
            1,
        )
    ),
    "run past the window": with_crc(
        round_body(b"\x01A\x01N\x01\x06" + run_bytes(b"\x01", b"\x7f", 1.0), 1, length=50)
    ),
    "trailing bytes": with_crc(round_body(b"", 0) + b"\x00"),
    "bad quantum": with_crc(round_body(b"", 0, quantum=0.0)),
    "unknown flags": with_crc(b"\x01" + round_body(b"", 0)[1:]),
    "version 1": with_crc(round_body(b"", 0), version=1),
    "version 2": with_crc(round_body(b"", 0), version=2),
}


class TestRoundDifferential:
    @given(frames=st.lists(wire_round(), min_size=1, max_size=6))
    @settings(max_examples=200)
    def test_encode_matches_reference_byte_for_byte(self, frames):
        assert encode_frames(frames) == [encode_round_reference(f) for f in frames]

    @given(data=st.data(), frames=st.lists(wire_round(), min_size=1, max_size=6))
    @settings(max_examples=300)
    def test_decode_matches_reference_per_payload(self, data, frames):
        """Damage lands on the whole frame (the CRC catches it) or on the
        body alone under an honest CRC, so the body decoder is fuzzed too."""
        payloads = []
        for frame in frames:
            payload = encode_round_reference(frame)
            if data.draw(st.booleans()):
                payload = with_crc(data.draw(damaged(payload[_FRAME_PREFIX.size:])))
            else:
                payload = data.draw(damaged(payload))
            payloads.append(payload)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            decoded = decode_frames(payloads)
        assert len(decoded) == len(payloads)
        for payload, got in zip(payloads, decoded):
            expected = round_verdict(payload)
            if expected is None:
                assert isinstance(got, TraceError), payload.hex()
            else:
                assert got == expected, payload.hex()

    @pytest.mark.parametrize("name", sorted(HOSTILE_ROUNDS))
    def test_hostile_round_rejected_alone_without_warnings(self, name):
        """Alone, a round's blocks take the packed decode path whenever
        their sizes look narrow, so this is not the neighbour test's path."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (verdict,) = decode_frames([HOSTILE_ROUNDS[name]])
            assert isinstance(verdict, TraceError)
            with pytest.raises(TraceError):
                decode_frame(HOSTILE_ROUNDS[name])

    @pytest.mark.parametrize("name", sorted(HOSTILE_ROUNDS))
    def test_hostile_round_never_poisons_its_neighbours(self, name):
        good = RoundFrame("N", 0, 0, 0, 1000, 1e-3, {("A", "N"): decode_block_reference(GOOD)})
        quiet = RoundFrame("M", 0, 0, 0, 1000, 1e-3)
        payload = HOSTILE_ROUNDS[name]
        assert round_verdict(payload) is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            first, verdict, last = decode_frames(
                [encode_frame(good), payload, encode_frame(quiet)]
            )
        assert (first, last) == (good, quiet)
        assert isinstance(verdict, TraceError)

    def test_quiet_block_unencodable(self):
        frame = RoundFrame("N", 0, 0, 0, 10, 1e-3, {("A", "N"): RunLengthSeries.empty(0, 10, 1e-3)})
        with pytest.raises(TraceError):
            encode_frame(frame)

    def test_block_outside_the_round_window_unencodable(self):
        block = decode_block_reference(GOOD)  # window [0, 1000)
        frame = RoundFrame("N", 0, 0, 1000, 1000, 1e-3, {("A", "N"): block})
        with pytest.raises(TraceError):
            encode_frame(frame)


# -- timestamp sections ----------------------------------------------------------


def bits(stamps) -> list:
    """Bit patterns: equal exactly when two float64 arrays are identical,
    signed zeros included."""
    return np.ascontiguousarray(stamps, dtype=np.float64).view(np.uint64).tolist()


class TestTimestampSection:
    @given(batches=st.lists(stamp_batches, max_size=6))
    @settings(max_examples=300)
    def test_round_trips_bit_for_bit_in_the_reference_bytes(self, batches):
        """A round's batches through the one-pass coder: the bytes are the
        scalar coder's, and every decoded bit pattern is the one sent."""
        edges = [("N", f"D{k}") for k in range(len(batches))]
        frame = RoundFrame("N", 0, 0, 0, 10, 1e-3, {}, dict(zip(edges, batches)))
        payload = encode_frame(frame)
        assert payload == encode_round_reference(frame)
        decoded = decode_frame(payload).batches
        assert list(decoded) == edges
        for edge, stamps in zip(edges, batches):
            assert decoded[edge].dtype == np.float64
            assert bits(decoded[edge]) == bits(stamps)

    @given(stamps=stamp_batches)
    def test_scalar_coder_inverts_itself(self, stamps):
        width, first, deltas = encode_stamps_reference(stamps)
        assert len(deltas) == width * max(len(stamps) - 1, 0)
        assert bits(decode_stamps_reference(len(stamps), width, first, deltas)) == bits(stamps)

    def test_wrapping_delta_takes_eight_bytes(self):
        """+max to -max: the bit-pattern difference is 2**63, whose
        zigzag code is 2**64 - 1."""
        stamps = np.array([1.7976931348623157e308, -1.7976931348623157e308])
        assert encode_stamps_reference(stamps)[::2] == (8, b"\xff" * 8)
        frame = RoundFrame("N", 0, 0, 0, 10, 1e-3, {}, {("A", "N"): stamps})
        assert bits(decode_frame(encode_frame(frame)).batches[("A", "N")]) == bits(stamps)

    def test_neighbouring_floats_take_one_byte_per_delta(self):
        stamps = np.array([100.0, np.nextafter(100.0, 200.0), 100.0])
        assert encode_stamps_reference(stamps) == (1, struct.pack("<d", 100.0), b"\x02\x01")

    def test_empty_and_single_batches(self):
        frame = RoundFrame(
            "N", 0, 0, 0, 10, 1e-3, {},
            {("A", "N"): np.empty(0), ("N", "B"): np.array([-0.0])},
        )
        payload = encode_frame(frame)
        # Section: two edges named by batches alone, then two batches:
        # edge 0 with no timestamps, edge 1 with one -- no width byte, no
        # deltas, just its first value.
        assert payload.endswith(
            b"\x02\x01A\x01N\x01N\x01B\x02\x00\x00\x01\x01" + struct.pack("<d", -0.0)
        )
        decoded = decode_frame(payload)
        assert decoded == frame
        assert bits(decoded.batches[("N", "B")]) == bits([-0.0])

    def test_batch_on_a_block_edge_reuses_its_name(self):
        block = decode_block_reference(GOOD)
        stamps = np.array([1.0, 2.0])
        shared = encode_frame(
            RoundFrame("N", 0, 0, 0, 1000, 1e-3, {("A", "N"): block}, {("A", "N"): stamps})
        )
        apart = encode_frame(
            RoundFrame("N", 0, 0, 0, 1000, 1e-3, {("A", "N"): block}, {("B", "N"): stamps})
        )
        assert len(apart) - len(shared) == len(b"\x01B\x01N")

    def test_unencodable_batches(self):
        """The encoder refuses what the decoder would reject, so a bad
        batch never costs a received round its blocks."""
        for node, batches in (
            ("N", {("A", "B"): np.array([1.0])}),  # foreign edge
            ("N", {("N", "N"): np.array([1.0])}),  # self-loop
            ("N", {("A", "N"): np.array([1.0, np.nan])}),
            ("N", {("A", "N"): np.array([np.inf])}),
            ("N", {("A", "N"): np.ones((2, 2))}),
        ):
            with pytest.raises(TraceError):
                encode_frame(RoundFrame(node, 0, 0, 0, 10, 1e-3, {}, batches))


# -- golden vectors --------------------------------------------------------------


def frame_from(spec):
    blocks = {
        (b["src"], b["dst"]): series_from(
            GOLDEN["blocks"][b["block"]]["series"] if "block" in b else b["series"]
        )
        for b in spec["blocks"]
    }
    batches = {
        (b["src"], b["dst"]): np.array(b["timestamps"], dtype=np.float64)
        for b in spec["batches"]
    }
    return RoundFrame(
        spec["node"], spec["epoch"], spec["seq"],
        spec["start"], spec["length"], spec["quantum"], blocks, batches,
    )


class TestGoldenVectors:
    @pytest.mark.parametrize("name", sorted(GOLDEN["blocks"]))
    def test_block_bytes(self, name):
        entry = GOLDEN["blocks"][name]
        series, payload = series_from(entry["series"]), bytes.fromhex(entry["hex"])
        assert encode_block(series) == payload
        assert encode_block_reference(series) == payload
        decoded = decode_block(payload)
        assert decoded.starts.tolist() == entry["series"]["starts"]
        assert decoded.counts.tolist() == entry["series"]["counts"]
        assert decoded.values.tolist() == [
            float(np.float32(v)) for v in entry["series"]["values"]
        ]
        assert (decoded.start, decoded.length, decoded.quantum) == (
            series.start, series.length, series.quantum,
        )

    def test_all_blocks_in_one_round(self):
        entries = [GOLDEN["blocks"][name] for name in sorted(GOLDEN["blocks"])]
        payloads = [bytes.fromhex(e["hex"]) for e in entries]
        assert encode_blocks([series_from(e["series"]) for e in entries]) == payloads
        assert decode_blocks(payloads) == [decode_block_reference(p) for p in payloads]

    @pytest.mark.parametrize("name", sorted(GOLDEN["frames"]))
    def test_frame_bytes(self, name):
        entry = GOLDEN["frames"][name]
        payload = bytes.fromhex(entry["hex"])
        frame = frame_from(entry["frame"])
        assert encode_frame(frame) == payload
        assert encode_frame(decode_frame(payload)) == payload
        assert encode_round_reference(frame) == payload
        assert decode_round_reference(payload) == decode_frame(payload)

    def test_all_frames_in_one_round(self):
        entries = [GOLDEN["frames"][name] for name in sorted(GOLDEN["frames"])]
        payloads = [bytes.fromhex(e["hex"]) for e in entries]
        assert encode_frames([frame_from(e["frame"]) for e in entries]) == payloads
        assert encode_frames(decode_frames(payloads)) == payloads

    def test_timestamp_frame_body_unchanged(self):
        """Only the version byte of the retired per-edge timestamp frame
        moved from version 1 to 2: the CRC and the body are the version-1
        bytes, so both rejected vectors are the same frame."""
        v2 = bytes.fromhex(GOLDEN["v2_frames"]["timestamps"]["hex"])
        v1 = bytes.fromhex(GOLDEN["v1_frames"]["timestamps"]["hex"])
        assert (v2[2], v1[2]) == (2, 1)
        assert v2[:2] + v2[3:] == v1[:2] + v1[3:]

    @pytest.mark.parametrize("name", sorted(GOLDEN["v1_frames"]))
    def test_v1_frame_rejected(self, name):
        """Frames are never persisted, so there is no version fork: every
        version-1 frame is refused, and the receiver counts it as corrupt
        instead of raising."""
        payload = bytes.fromhex(GOLDEN["v1_frames"][name]["hex"])
        (verdict,) = decode_frames([payload])
        assert isinstance(verdict, TraceError)
        assert str(verdict) == "unsupported frame version 1"
        receiver = TransportReceiver(TransportConfig(), 10.0)
        receiver.receive([payload], now=0.0)
        assert receiver.corrupt_blocks == 1
        assert receiver.poll() == [] and receiver.poll_timestamp_batches() == []

    @pytest.mark.parametrize("name", sorted(GOLDEN["v2_frames"]))
    def test_v2_frame_rejected(self, name):
        """Version-2 frames -- rounds without a timestamp section, and the
        per-edge packed timestamp frame -- are refused like version 1."""
        payload = bytes.fromhex(GOLDEN["v2_frames"][name]["hex"])
        (verdict,) = decode_frames([payload])
        assert isinstance(verdict, TraceError)
        assert str(verdict) == "unsupported frame version 2"
        receiver = TransportReceiver(TransportConfig(), 10.0)
        receiver.receive([payload], now=0.0)
        assert receiver.corrupt_blocks == 1
        assert receiver.poll() == [] and receiver.poll_timestamp_batches() == []

