"""Tests for the per-node tracer (Section 3.6)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import PathmapConfig
from repro.core.rle import rle_encode
from repro.core.timeseries import build_density_series
from repro.errors import TraceError
from repro.tracing import tracer as tracer_module
from repro.tracing.tracer import Tracer
from tests.tracer_reference import flush_block_reference

CFG = PathmapConfig(
    window=1.0, refresh_interval=0.5, quantum=1e-3, sampling_window=5e-3,
    max_transaction_delay=0.5,
)


class TestObservation:
    def test_observes_own_packets_only(self):
        tracer = Tracer("A")
        tracer.observe(1.0, "A", "B")
        tracer.observe(2.0, "C", "A")
        with pytest.raises(TraceError):
            tracer.observe(3.0, "X", "Y")
        assert tracer.packet_count == 2

    def test_clock_skew_shifts_timestamps(self):
        tracer = Tracer("A", clock_skew=0.25)
        record = tracer.observe(1.0, "A", "B")
        assert record.timestamp == 1.25
        assert tracer.timestamps("A", "B") == [1.25]

    def test_edges_listing(self):
        tracer = Tracer("A")
        tracer.observe(1.0, "A", "B")
        tracer.observe(1.0, "A", "C")
        assert set(tracer.edges()) == {("A", "B"), ("A", "C")}

    def test_timestamps_sorted(self):
        tracer = Tracer("A")
        tracer.observe(2.0, "A", "B")
        tracer.observe(1.0, "A", "B")
        assert tracer.timestamps("A", "B") == [1.0, 2.0]

    def test_reset(self):
        tracer = Tracer("A")
        tracer.observe(1.0, "A", "B")
        tracer.reset()
        assert tracer.packet_count == 0
        assert tracer.edges() == []


    def test_non_finite_timestamps_rejected(self):
        """A NaN used to be stored: the RLE block counted the good packets
        while the receiver dropped the whole timestamp frame as corrupt."""
        tracer = Tracer("A")
        tracer.enable_batch_streaming()
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(TraceError):
                tracer.observe_batch([0.1, bad, 0.2], "A", "B")
            with pytest.raises(TraceError):
                tracer.observe(bad, "A", "B")
        assert tracer.packet_count == 0
        assert tracer.timestamps("A", "B") == []
        assert tracer.drain_batches() == {}
        assert tracer.observe_batch([0.1, 0.2], "A", "B") == 2

    def test_batch_does_not_alias_the_callers_buffer(self):
        tracer = Tracer("A")
        stamps = np.array([0.1, 0.2])
        tracer.observe_batch(stamps, "A", "B")
        stamps[:] = 9.0
        assert tracer.timestamps("A", "B") == [0.1, 0.2]

    def test_drain_keeps_capture_order_across_mixed_calls(self):
        tracer = Tracer("A")
        tracer.enable_batch_streaming()
        tracer.observe(0.5, "A", "C")
        tracer.observe(0.3, "A", "B")
        tracer.observe_batch([0.9, 0.1], "A", "B")
        tracer.observe(0.2, "A", "B")
        tracer.observe_batch([0.4], "A", "C")
        drained = tracer.drain_batches()
        # Edges in first-capture order, stamps in capture order.
        assert list(drained) == [("A", "C"), ("A", "B")]
        assert drained[("A", "C")].tolist() == [0.5, 0.4]
        assert drained[("A", "B")].tolist() == [0.3, 0.9, 0.1, 0.2]
        assert tracer.drain_batches() == {}
        tracer.observe(0.7, "A", "B")
        assert {e: a.tolist() for e, a in tracer.drain_batches().items()} == {
            ("A", "B"): [0.7]
        }


class TestStreaming:
    def test_flush_block_produces_rle_series(self):
        tracer = Tracer("A")
        for t in (0.100, 0.101, 0.300):
            tracer.observe(t, "A", "B")
        blocks = tracer.flush_block(CFG, window_start_quantum=0, block_quanta=500)
        series = blocks[("A", "B")]
        assert series.start == 0
        assert series.length == 500
        assert series.nnz > 0
        # Density mass: 3 messages x 5-quantum boxcar.
        assert series.energy() == pytest.approx(15.0)

    def test_flush_drops_old_timestamps(self):
        tracer = Tracer("A")
        tracer.observe(0.100, "A", "B")
        tracer.flush_block(CFG, 0, 500)
        # Original timestamp is gone (0.1 < 0.5 - omega).
        assert tracer.timestamps("A", "B") == []

    def test_flush_keeps_boundary_margin(self):
        tracer = Tracer("A")
        tracer.observe(0.499, "A", "B")  # within omega of the block end
        tracer.flush_block(CFG, 0, 500)
        assert tracer.timestamps("A", "B") == [0.499]

    def test_consecutive_blocks_cover_boundary_consistently(self):
        # A message near a block boundary contributes to boxcars in both
        # blocks, exactly as a single-window computation would.
        from repro.core.timeseries import build_density_series

        tracer = Tracer("A")
        stamps = [0.498, 0.4995, 0.5005, 0.502]
        for t in stamps:
            tracer.observe(t, "A", "B")
        block1 = tracer.flush_block(CFG, 0, 500)[("A", "B")]
        block2 = tracer.flush_block(CFG, 500, 500)[("A", "B")]
        combined = block1.to_sparse().concatenated(block2.to_sparse())
        whole = build_density_series(stamps, CFG.quantum, CFG.sampling_quanta, 0, 1000)
        assert combined == whole

    def test_flush_empty_edge(self):
        """A quiet edge flushes nothing: its silence is implicit."""
        tracer = Tracer("A")
        tracer.observe(0.1, "A", "B")
        tracer.flush_block(CFG, 0, 500)
        blocks = tracer.flush_block(CFG, 500, 500)
        assert ("A", "B") not in blocks
        assert blocks == {}

    def test_every_flush_equals_the_per_edge_pipeline(self):
        """One batched pass per flush == rle_encode(build_density_series)
        per edge, bit for bit, across flushes that prune and carry the
        sampling-window margin, for packets captured either way."""
        rng = np.random.default_rng(7)
        edges = [("A", "B"), ("C", "A"), ("A", "D"), ("E", "A")]
        captured = {edge: [] for edge in edges}
        tracer = Tracer("A", clock_skew=0.125)
        for block in range(4):
            lo, hi = 0.5 * block, 0.5 * (block + 1)
            for edge in edges[: 2 + block % 3]:  # ("E", "A") stays silent at first
                stamps = rng.uniform(lo, hi, int(rng.integers(0, 40)))
                captured[edge].extend((stamps + 0.125).tolist())
                if block % 2:
                    for t in stamps:
                        tracer.observe(t, *edge)
                else:
                    tracer.observe_batch(stamps, *edge)
            start = 125 + 500 * block  # the skewed clock's quanta
            blocks = tracer.flush_block(CFG, start, 500)
            expected = {
                edge: rle_encode(
                    build_density_series(
                        captured[edge], CFG.quantum, CFG.sampling_quanta, start, 500
                    )
                )
                for edge in tracer.edges()
            }
            loud = [edge for edge in tracer.edges() if expected[edge].num_runs]
            assert list(blocks) == loud
            for edge, got in blocks.items():
                assert got == expected[edge], (block, edge)

    def test_flush_only_the_edges_asked_for(self):
        tracer = Tracer("A")
        for edge in (("A", "B"), ("C", "A"), ("A", "D")):
            tracer.observe_batch([0.1, 0.1005, 0.3], *edge)
        everything = Tracer("A")
        for edge in (("A", "B"), ("C", "A"), ("A", "D")):
            everything.observe_batch([0.1, 0.1005, 0.3], *edge)
        full = everything.flush_block(CFG, 0, 500)
        some = tracer.flush_block(CFG, 0, 500, edges={("A", "D"), ("C", "A"), ("X", "Y")})
        # Capture order, not the order asked in; unknown edges ignored.
        assert list(some) == [("C", "A"), ("A", "D")]
        assert some == {edge: full[edge] for edge in some}
        assert tracer.flush_block(CFG, 500, 500, edges=set()) == {}
        # Edges left out are still pruned like the rest.
        assert tracer.timestamps("A", "B") == []


EDGES = [("A", "B"), ("C", "A"), ("A", "D"), ("E", "A"), ("A", "F")]


@st.composite
def flush_rounds(draw):
    """Rounds of captures for a tracer at A: per round, per edge, either
    silence or a burst -- some stamps drawn into the sampling-window
    margin either side of the block boundary -- and the edges kept."""
    skew = draw(st.sampled_from([0.0, 0.125, -0.0375, 0.0004]))
    rounds = []
    for k in range(draw(st.integers(1, 5))):
        lo = 0.5 * k
        captures = []
        for edge in EDGES:
            kind = draw(st.sampled_from(["quiet", "quiet", "burst", "margin"]))
            if kind == "quiet":
                continue
            if kind == "margin":
                # Within omega of the block's end, or just past it.
                offsets = st.floats(0.5 - 2 * CFG.sampling_window, 0.5 + CFG.sampling_window)
            else:
                offsets = st.floats(0.0, 0.5)
            stamps = draw(st.lists(offsets, min_size=1, max_size=6))
            captures.append((edge, [lo + t for t in stamps], draw(st.booleans())))
        kept = draw(st.one_of(st.none(), st.sets(st.sampled_from(EDGES))))
        rounds.append((captures, kept))
    return skew, rounds


class TestQuietFlush:
    @given(plan=flush_rounds())
    @settings(max_examples=150, deadline=None)
    def test_flush_is_the_reference_without_its_empty_blocks(self, plan):
        """Over quiet and loud edges, clock skew and stamps in the
        sampling-window margin, every flush returns exactly the reference
        flush's non-empty blocks -- bitwise, in the same order -- and keeps
        the same timestamps for the next one."""
        skew, rounds = plan
        tracer, reference = Tracer("A", clock_skew=skew), Tracer("A", clock_skew=skew)
        for k, (captures, kept) in enumerate(rounds):
            for edge, stamps, one_by_one in captures:
                for t in (stamps if one_by_one else [stamps]):
                    for twin in (tracer, reference):
                        if one_by_one:
                            twin.observe(t, *edge)
                        else:
                            twin.observe_batch(t, *edge)
            start = int(round(skew / CFG.quantum)) + 500 * k
            got = tracer.flush_block(CFG, start, 500, edges=kept)
            everything = flush_block_reference(reference, CFG, start, 500, edges=kept)
            expected = {e: b for e, b in everything.items() if b.num_runs}
            assert list(got) == list(expected)
            for edge, block in got.items():
                want = expected[edge]
                assert (block.start, block.length, block.quantum) == (
                    want.start, want.length, want.quantum,
                )
                for field in ("starts", "counts", "values"):
                    a, b = getattr(block, field), getattr(want, field)
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert tracer._kept_stamps.tobytes() == reference._kept_stamps.tobytes()

    def test_nothing_kept_builds_no_density_rows(self, monkeypatch):
        calls = []
        original = tracer_module.build_density_rows

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(tracer_module, "build_density_rows", counting)
        tracer = Tracer("A")
        assert tracer.flush_block(CFG, 0, 500) == {}  # never captured
        tracer.observe(0.1, "A", "B")
        assert list(tracer.flush_block(CFG, 0, 500)) == [("A", "B")]
        assert len(calls) == 1
        # 0.1 s is older than the next block's margin: nothing is kept.
        assert tracer.flush_block(CFG, 500, 500) == {}
        assert tracer.flush_block(CFG, 1000, 500) == {}
        assert len(calls) == 1
