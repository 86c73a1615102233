"""Fuzz and round-trip tests for the columnar ingest codecs.

Two codecs carry float64 timestamp arrays: the timestamp section of the
transport's :class:`~repro.tracing.wire.RoundFrame` (delta-packed) and
the binary columnar capture file format (``.rtb``). Both share the
corruption contract of the
RLE wire codec -- decode returns the exact payload or raises
:class:`~repro.errors.TraceError`, never any other exception -- and both
are hammered here with hypothesis round-trips, truncation sweeps and
byte flips, mirroring ``test_wire_fuzz.py``.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

import os
import struct
import tempfile
import zlib

from repro.errors import TraceError
from repro.tracing.records import TimestampBatch
from repro.tracing.storage import (
    BINARY_MAGIC,
    read_capture_binary,
    write_capture_binary,
)
from repro.tracing.wire import (
    FRAME_MAGIC,
    FRAME_VERSION,
    RoundFrame,
    decode_frame,
    encode_frame,
)

#: Finite float64 payloads round-trip bit-exactly through the delta-packed
#: representation, so equality below is exact.
timestamp_arrays = st.lists(
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    min_size=0,
    max_size=40,
).map(lambda values: np.asarray(values, dtype=np.float64))

frame_names = st.text(min_size=0, max_size=12)

#: A quiet round carrying one capture batch, observed at either end.
timestamp_frames = st.builds(
    lambda node, epoch, seq, peer, at_destination, stamps: RoundFrame(
        node, epoch, seq, 0, 10, 1e-3, {},
        {(peer, node) if at_destination else (node, peer): stamps},
    ),
    node=frame_names,
    epoch=st.integers(0, 2**40),
    seq=st.integers(0, 2**40),
    peer=frame_names.map(lambda name: name + "'"),
    at_destination=st.booleans(),
    stamps=timestamp_arrays,
).filter(lambda frame: all(src != dst for src, dst in frame.batches))

node_names = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=8
)

capture_batches = st.builds(
    lambda src, dst, side, stamps: TimestampBatch(src, dst + "'", side, stamps),
    src=node_names,
    dst=node_names,
    side=st.booleans(),
    stamps=timestamp_arrays,
)


def reference_frame():
    return RoundFrame(
        "WS", 3, 7, 0, 10, 1e-3, {}, {("C1", "WS"): np.array([1.0, 2.5, -3.25, 1e9])}
    )


class TestTimestampFrameRoundTrip:
    """Round frames carrying a capture batch (the timestamp section)."""

    @given(frame=timestamp_frames)
    def test_roundtrip_reproduces_frame(self, frame):
        decoded = decode_frame(encode_frame(frame))
        assert decoded == frame

    @given(frame=timestamp_frames)
    def test_reencode_is_byte_identical(self, frame):
        payload = encode_frame(frame)
        assert encode_frame(decode_frame(payload)) == payload

    def test_empty_batch_roundtrips(self):
        frame = RoundFrame("N", 0, 0, 0, 10, 1e-3, {}, {("A", "N"): np.empty(0)})
        decoded = decode_frame(encode_frame(frame))
        assert len(decoded.batches[("A", "N")]) == 0
        assert decoded == frame


class TestTimestampFrameCorruption:
    @given(frame=timestamp_frames, data=st.data())
    def test_any_truncation_raises_trace_error(self, frame, data):
        payload = encode_frame(frame)
        cut = data.draw(st.integers(0, len(payload) - 1))
        with pytest.raises(TraceError):
            decode_frame(payload[:cut])

    @given(frame=timestamp_frames, data=st.data())
    def test_any_single_byte_flip_raises_trace_error(self, frame, data):
        payload = bytearray(encode_frame(frame))
        pos = data.draw(st.integers(0, len(payload) - 1))
        payload[pos] ^= data.draw(st.integers(1, 255))
        with pytest.raises(TraceError):
            decode_frame(bytes(payload))

    def test_every_single_byte_flip_of_one_frame(self):
        payload = bytearray(encode_frame(reference_frame()))
        for pos in range(len(payload)):
            mutated = bytearray(payload)
            mutated[pos] ^= 0x55
            with pytest.raises(TraceError):
                decode_frame(bytes(mutated))

    def _frame_with_body(self, body: bytes) -> bytes:
        return struct.pack(
            "<2sBI", FRAME_MAGIC, FRAME_VERSION, zlib.crc32(body)
        ) + body

    def _body_prefix(self) -> bytearray:
        """Node N's quiet round, up to the count of its one batch on A -> N."""
        body = bytearray([0x00])  # flags
        body += bytes([0x00, 0x00])  # epoch 0, seq 0
        body += bytes([0x01]) + b"N"  # node
        body += struct.pack("<dqq", 1e-3, 0, 10)  # window
        body += bytes([0x00])  # no blocks
        body += bytes([0x01, 0x01]) + b"A" + bytes([0x01]) + b"N"  # edge table: A -> N
        body += bytes([0x01, 0x00])  # one batch, on edge 0
        return body

    def test_count_overrun_with_valid_crc(self):
        # Claims 100 timestamps with no payload behind their width.
        body = self._body_prefix() + bytes([100, 8])
        with pytest.raises(TraceError):
            decode_frame(self._frame_with_body(bytes(body)))

    def test_non_finite_payload_with_valid_crc(self):
        body = self._body_prefix() + bytes([1])
        body += struct.pack("<d", float("nan"))
        with pytest.raises(TraceError):
            decode_frame(self._frame_with_body(bytes(body)))

    def test_trailing_bytes_with_valid_crc(self):
        body = self._body_prefix() + bytes([0])
        assert decode_frame(self._frame_with_body(bytes(body))).batches[("A", "N")].size == 0
        body += b"\x00"
        with pytest.raises(TraceError):
            decode_frame(self._frame_with_body(bytes(body)))


class TestBinaryStorageRoundTrip:
    @given(batches=st.lists(capture_batches, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_reproduces_batches(self, batches):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "trace.rtb")
            written = write_capture_binary(path, batches)
            assert written == sum(len(b) for b in batches)
            assert list(read_capture_binary(path)) == batches

    def test_empty_file_has_only_magic(self, tmp_path):
        path = tmp_path / "empty.rtb"
        assert write_capture_binary(path, []) == 0
        assert path.read_bytes() == BINARY_MAGIC
        assert list(read_capture_binary(path)) == []


class TestBinaryStorageMmap:
    """The zero-copy ``.rtb`` replay path (``mmap=True``)."""

    @given(batches=st.lists(capture_batches, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_mmap_is_bit_identical_to_copying_read(self, batches):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "trace.rtb")
            write_capture_binary(path, batches)
            assert list(read_capture_binary(path, mmap=True)) == list(
                read_capture_binary(path)
            )

    def test_timestamp_arrays_are_zero_copy_views(self, tmp_path):
        path = tmp_path / "trace.rtb"
        stamps = np.array([1.0, 2.5, 3.25, 1e9])
        write_capture_binary(path, [TimestampBatch("WS", "DB", True, stamps)])
        (batch,) = read_capture_binary(path, mmap=True)
        array = batch.timestamps
        # A view into the mapping, not a heap copy: numpy marks borrowed
        # buffers as non-owning and the read-only mapping as immutable.
        assert not array.flags.owndata
        assert not array.flags.writeable
        base = array.base
        while getattr(base, "base", None) is not None:
            base = base.base
        assert isinstance(base, memoryview) or type(base).__name__ == "mmap"
        np.testing.assert_array_equal(array, stamps)

    def test_arrays_outlive_the_reader(self, tmp_path):
        # Lifetime is by refcount: array -> memoryview -> mapping, so
        # consuming the generator and dropping every other reference
        # must leave the data readable.
        import gc

        path = tmp_path / "trace.rtb"
        write_capture_binary(
            path,
            [
                TimestampBatch("WS", "DB", True, [1.0, 2.0]),
                TimestampBatch("C1", "WS", False, [0.5]),
            ],
        )
        arrays = [b.timestamps for b in read_capture_binary(path, mmap=True)]
        gc.collect()
        assert [a.sum() for a in arrays] == [3.0, 0.5]

    def test_empty_and_magic_only_files(self, tmp_path):
        empty = tmp_path / "empty.rtb"
        empty.write_bytes(b"")
        with pytest.raises(TraceError):
            list(read_capture_binary(empty, mmap=True))
        magic_only = tmp_path / "magic.rtb"
        write_capture_binary(magic_only, [])
        assert list(read_capture_binary(magic_only, mmap=True)) == []

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.rtb"
        path.write_bytes(b"XXXX")
        with pytest.raises(TraceError):
            list(read_capture_binary(path, mmap=True))


class TestBinaryStorageCorruption:
    def _payload(self, tmp_path):
        path = tmp_path / "trace.rtb"
        write_capture_binary(
            path,
            [
                TimestampBatch("WS", "DB", True, [1.0, 2.5, 3.25]),
                TimestampBatch("C1", "WS", False, [0.5]),
            ],
        )
        return path, bytearray(path.read_bytes())

    def test_every_truncation_raises_or_yields_strict_prefix(self, tmp_path):
        # Cuts at a section boundary leave a valid, shorter file (sections
        # are self-delimiting); every other cut must raise. Either way a
        # truncated file can never yield the full batch list.
        path, payload = self._payload(tmp_path)
        full = list(read_capture_binary(path))
        boundary_cuts = 0
        for cut in range(len(payload)):
            path.write_bytes(bytes(payload[:cut]))
            try:
                decoded = list(read_capture_binary(path))
            except TraceError:
                continue
            boundary_cuts += 1
            assert decoded == full[: len(decoded)]
            assert len(decoded) < len(full)
        assert boundary_cuts == 2  # bare magic + first-section boundary

    def test_every_single_byte_flip_raises(self, tmp_path):
        path, payload = self._payload(tmp_path)
        for pos in range(len(payload)):
            mutated = bytearray(payload)
            mutated[pos] ^= 0x55
            path.write_bytes(bytes(mutated))
            with pytest.raises(TraceError):
                list(read_capture_binary(path))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.rtb"
        path.write_bytes(b"XXXX")
        with pytest.raises(TraceError):
            list(read_capture_binary(path))

    def test_every_single_byte_flip_raises_under_mmap(self, tmp_path):
        # The zero-copy reader shares the copy path's corruption
        # contract: decode the exact payload or raise TraceError.
        path, payload = self._payload(tmp_path)
        for pos in range(len(payload)):
            mutated = bytearray(payload)
            mutated[pos] ^= 0x55
            path.write_bytes(bytes(mutated))
            with pytest.raises(TraceError):
                list(read_capture_binary(path, mmap=True))

    def test_payload_length_mismatch_with_valid_crc(self, tmp_path):
        # A section whose declared count disagrees with its body length
        # passes the CRC (computed over the bad body) but must still fail.
        body = bytearray()
        body += struct.pack("<H", 1) + b"A"
        body += struct.pack("<H", 1) + b"B"
        body.append(1)
        body += struct.pack("<Q", 5)  # claims 5 stamps, carries none
        path = tmp_path / "short.rtb"
        path.write_bytes(
            BINARY_MAGIC + struct.pack("<II", zlib.crc32(bytes(body)), len(body)) + bytes(body)
        )
        with pytest.raises(TraceError):
            list(read_capture_binary(path))
