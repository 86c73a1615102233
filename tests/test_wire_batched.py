"""The batched RLE block codec against its two contracts.

* **Differential**: for any flush round -- empty blocks, single-byte and
  multi-byte varints, 2**40 gaps, and payloads truncated, bit-flipped or
  padded on the way -- ``encode_blocks`` produces the bytes the scalar
  reference loop (``tests/wire_reference.py``) produces, and
  ``decode_blocks`` accepts exactly the payloads the reference accepts,
  with equal results, one verdict per payload.
* **Golden vectors**: ``tests/data/wire_golden.json`` holds frames and
  blocks as the scalar codec wrote them at the commit that retired it.
  They are the wire format's contract: a diff there is a format change.
"""

import json
import pathlib
import struct
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.core.rle import RunLengthSeries
from repro.errors import TraceError
from repro.tracing.wire import (
    _HEADER,
    MAGIC,
    VERSION,
    BlockFrame,
    TimestampFrame,
    decode_block,
    decode_blocks,
    decode_frame,
    decode_frames,
    encode_block,
    encode_blocks,
    encode_frame,
    encode_frames,
)
from tests.wire_reference import decode_block_reference, encode_block_reference

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
        frames = [
            BlockFrame("N", 0, seq, "A", "N", decode_block_reference(GOOD))
            for seq in range(3)
        ]
        payloads = encode_frames(frames)
        body = payloads[1]
        payloads[1] = body[:-1] + bytes([body[-1] ^ 0xFF])  # fails the CRC
        first, verdict, last = decode_frames(payloads)
        assert (first, last) == (frames[0], frames[2])
        assert isinstance(verdict, TraceError)


# -- golden vectors --------------------------------------------------------------


def frame_from(spec):
    if "timestamps" in spec:
        return TimestampFrame(
            spec["node"], spec["epoch"], spec["seq"], spec["src"], spec["dst"],
            np.array(spec["timestamps"]), spec["observed_at_destination"],
        )
    block = series_from(GOLDEN["blocks"][spec["block"]]["series"]) if spec["block"] else None
    return BlockFrame(spec["node"], spec["epoch"], spec["seq"], spec["src"], spec["dst"], block)


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
        assert encode_frame(frame_from(entry["frame"])) == payload
        assert encode_frame(decode_frame(payload)) == payload

    def test_all_frames_in_one_round(self):
        entries = [GOLDEN["frames"][name] for name in sorted(GOLDEN["frames"])]
        payloads = [bytes.fromhex(e["hex"]) for e in entries]
        assert encode_frames([frame_from(e["frame"]) for e in entries]) == payloads
        assert encode_frames(decode_frames(payloads)) == payloads
