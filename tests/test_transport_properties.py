"""Property tests for the transport reorder buffer (tracing.transport).

Two invariants drive the design:

* **Resequencing**: any permutation of a frame stream whose maximum
  displacement is ``D`` is delivered exactly in order -- no gaps, no
  drops -- by a :class:`ReorderBuffer` with lateness ``2 * D``, even
  with arbitrary duplication mixed in.
* **Epoch monotonicity**: delivered epochs never decrease, and once a
  newer epoch has been observed, no frame from an older epoch is ever
  delivered again (pre-restart blocks cannot be resurrected).
* **Per-tracer gaps**: a lost round is a gap on every edge its tracer
  owns, at exactly the block start the round would have carried, and a
  round that arrives after its gap was declared is handed back whole.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

import numpy as np

from repro.config import TransportConfig
from repro.core.rle import RunLengthSeries
from repro.tracing.transport import ReorderBuffer, TransportReceiver
from repro.tracing.wire import RoundFrame, encode_frames

STREAM = "N"
BLOCK_QUANTA = 100
#: Block start of round 0 (any anchor works; this one is not a multiple).
ANCHOR = -250


def frame(seq, epoch=0, edges=()):
    # Quiet rounds are fine for buffer-order properties: the buffer keys
    # purely on (epoch, seq).
    start = ANCHOR + seq * BLOCK_QUANTA
    blocks = {
        edge: RunLengthSeries(
            np.array([start]), np.array([1]), np.array([1.0]), start, BLOCK_QUANTA, 1e-3
        )
        for edge in edges
    }
    return RoundFrame("N", epoch, seq, start, BLOCK_QUANTA, 1e-3, blocks)


@st.composite
def displaced_streams(draw):
    """A stream of seqs 0..n-1 permuted with bounded displacement, plus
    duplicate injections; returns (arrival_order, max_displacement)."""
    n = draw(st.integers(min_value=1, max_value=40))
    offsets = draw(
        st.lists(
            st.integers(min_value=-8, max_value=8), min_size=n, max_size=n
        )
    )
    order = sorted(range(n), key=lambda i: (i + offsets[i], i))
    displacement = max(abs(pos - seq) for pos, seq in enumerate(order))
    # Sprinkle duplicates of already-scheduled frames into the tail.
    dup_positions = draw(
        st.lists(st.integers(0, n - 1), min_size=0, max_size=5)
    )
    arrivals = list(order)
    for seq in dup_positions:
        arrivals.insert(
            draw(st.integers(order.index(seq) + 1, len(arrivals))), seq
        )
    return arrivals, displacement


class TestResequencing:
    @given(stream=displaced_streams())
    def test_bounded_displacement_resequences_exactly(self, stream):
        arrivals, displacement = stream
        buf = ReorderBuffer(STREAM, lateness=2 * displacement)
        delivered = []
        for seq in arrivals:
            delivered.extend(f.seq for f in buf.push(frame(seq)))
        delivered.extend(f.seq for f in buf.flush())
        n = max(arrivals) + 1
        assert delivered == list(range(n))
        assert buf.gaps == 0
        assert buf.duplicates == len(arrivals) - n

    @given(
        order=st.permutations(list(range(20))),
        lateness=st.integers(min_value=20, max_value=40),
    )
    def test_full_shuffle_with_ample_lateness(self, order, lateness):
        """Any shuffle of n frames resequences exactly when the lateness
        tolerance is at least n."""
        buf = ReorderBuffer(STREAM, lateness=lateness)
        delivered = []
        for seq in order:
            delivered.extend(f.seq for f in buf.push(frame(seq)))
        delivered.extend(f.seq for f in buf.flush())
        assert delivered == list(range(20))
        assert buf.gaps == 0

    @given(order=st.permutations(list(range(15))))
    def test_no_seq_ever_delivered_twice(self, order):
        """Whatever the lateness (here: a tight 1), every sequence number
        is delivered at most once -- late recoveries included."""
        buf = ReorderBuffer(STREAM, lateness=1)
        delivered = []
        for seq in order:
            delivered.extend(f.seq for f in buf.push(frame(seq)))
            # Replay each frame immediately: must never re-deliver.
            assert buf.push(frame(seq)) == []
        delivered.extend(f.seq for f in buf.flush())
        assert sorted(delivered) == list(range(15))
        assert len(set(delivered)) == len(delivered)


class TestEpochs:
    @st.composite
    def epoch_mixes(draw):
        """An arbitrary interleaving of epoch-0 and epoch-1 frames."""
        old = [(0, seq) for seq in range(draw(st.integers(1, 10)))]
        new = [(1, seq) for seq in range(draw(st.integers(1, 10)))]
        mixed = draw(st.permutations(old + new))
        return list(mixed)

    @given(mix=epoch_mixes())
    def test_delivered_epochs_never_decrease(self, mix):
        buf = ReorderBuffer(STREAM, lateness=30)
        delivered = []
        for epoch, seq in mix:
            delivered.extend(
                (f.epoch, f.seq) for f in buf.push(frame(seq, epoch))
            )
        delivered.extend((f.epoch, f.seq) for f in buf.flush())
        epochs = [e for e, _ in delivered]
        assert epochs == sorted(epochs)

    @given(mix=epoch_mixes())
    def test_old_epoch_never_resurrected_after_switch(self, mix):
        """Once any epoch-1 frame has been pushed, no epoch-0 frame is
        ever delivered again."""
        buf = ReorderBuffer(STREAM, lateness=30)
        switched = False
        for epoch, seq in mix:
            out = buf.push(frame(seq, epoch))
            if switched:
                assert all(f.epoch >= 1 for f in out)
            if epoch == 1:
                switched = True
        for f in buf.flush():
            assert f.epoch >= 1 or not switched

    def test_epoch_regression_counted(self):
        buf = ReorderBuffer(STREAM, lateness=2)
        buf.push(frame(0, epoch=3))
        assert buf.push(frame(7, epoch=2)) == []
        assert buf.push(frame(1, epoch=0)) == []
        assert buf.stale_epoch_drops == 2


class TestRoundGaps:
    @st.composite
    def lossy_streams(draw):
        """Rounds 0..n-1 of one tracer, some lost, over 0-4 owned edges."""
        n = draw(st.integers(2, 30))
        lost = draw(st.sets(st.integers(0, n - 1)))
        edges = draw(st.sets(st.sampled_from(["A", "B", "C", "D"])))
        lateness = draw(st.integers(0, 4))
        return n, lost, {(src, "N") for src in edges}, lateness

    @given(stream=lossy_streams())
    def test_lost_round_gaps_every_owned_edge_at_its_start(self, stream):
        n, lost, owned, lateness = stream
        receiver = TransportReceiver(TransportConfig(lateness_blocks=lateness), 10.0)
        # The last round lies past every hole by more than the lateness,
        # so it exposes them all, trailing losses included.
        arrived = [seq for seq in range(n) if seq not in lost] + [n + lateness + 1]
        receiver.receive(
            encode_frames([frame(seq, edges=sorted(owned)) for seq in arrived]), now=0.0
        )
        declared = sorted(set(range(arrived[-1])) - set(arrived))
        notices = receiver.drain_gap_notices()
        assert sorted((g.seq, g.edge, g.block_start) for g in notices) == [
            (seq, edge, ANCHOR + seq * BLOCK_QUANTA)
            for seq in declared
            for edge in sorted(owned)
        ]
        assert receiver.totals()["gaps"] == len(declared) * len(owned)

    @given(stream=lossy_streams())
    def test_late_round_handed_back_whole_and_once(self, stream):
        n, lost, owned, lateness = stream
        buf = ReorderBuffer(STREAM, lateness=lateness)
        arrived = [seq for seq in range(n) if seq not in lost]
        for seq in arrived:
            buf.push(frame(seq, edges=sorted(owned)))
        buf.flush()
        declared = [s for s in sorted(lost) if arrived and s < arrived[-1]]
        for seq in declared:
            late = frame(seq, edges=sorted(owned))
            assert buf.push(late) == [late]
            assert buf.push(late) == []
        assert buf.late_recovered == len(declared)
