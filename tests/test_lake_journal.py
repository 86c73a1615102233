"""The lake journal over whole lifecycles: crashes, damage, index, cost.

``test_trace_lake.py`` pins the journal's format rules one at a time;
here the lake is driven through spill / checkpoint / compact / close and
interrupted or damaged everywhere it can be:

* a crash at any ``fsync`` or rename -- with the unsynced journal tail
  lost, torn or landed -- reopens to the state after some earlier
  operation, and the next append lands cleanly behind it;
* every truncation of a journal is such a crash; every byte flip is a
  ``TraceError`` at open or at the read that touches it, never a wrong
  row;
* the indexed ``summaries()`` returns what a brute-force decode of every
  batch returns, in the same order (hypothesis);
* a checkpoint costs what changed: constant bytes and exactly one
  ``fsync`` however old the lake is, and none when nothing changed;
* recording a summary never touches the filesystem (so none of it can
  land in the engine's correlate stage), and ``close`` releases the fd.
"""

import builtins
import collections
import gc
import os
import shutil
import warnings

import numpy as np
import pytest

from repro.core.engine import E2EProfEngine
from repro.errors import TraceError
from repro.lake import JOURNAL_NAME, BlockSummary, TraceLake, scan_journal
from repro.lake.journal import JOURNAL_MAGIC
from repro.lake.summaries import COVERAGE
from repro.tracing.collector import TraceCollector

from tests.test_trace_lake import CFG, chain_topology

KEY = ("C", "WS", "WS", "DB")


def row(block, lag=None, key=KEY, coverage=None):
    loud = lag is not None
    return BlockSummary(
        *key, block * 4, 4, 0.5,
        x_total=float(block + 1) if loud else 0.0, x_energy=2.0 * loud,
        y_total=3.0 * loud, y_energy=4.0 * loud,
        lag_products=None if lag is None else np.asarray(lag, dtype=np.float64),
        coverage=coverage,
    )


def signature(summary):
    lag = summary.lag_products
    return (
        summary.client, summary.root, summary.src, summary.dst,
        summary.block_start, summary.block_length, summary.quantum,
        summary.x_total, summary.x_energy, summary.y_total, summary.y_energy,
        None if lag is None else lag.tobytes(), summary.coverage,
    )


def snapshot(lake):
    """Everything a reader can learn from a lake, in comparable form."""
    return (
        lake.frontier,
        tuple(m.seq for m in lake.segments()),
        tuple(
            (stream, tuple(np.sort(lake.query(*stream)).tolist()))
            for stream in lake.streams()
        ),
        tuple(signature(s) for s in lake.summaries()),
    )


def reopened_snapshot(root, scratch):
    """Snapshot of ``root`` as a fresh process would open it."""
    shutil.rmtree(scratch, ignore_errors=True)
    shutil.copytree(root, scratch)
    lake = TraceLake(scratch)
    try:
        return snapshot(lake)
    finally:
        lake.close()


# One lifecycle, an operation per entry; segment_bytes=64 so eight values
# cut a segment inside ``spill``.
LIFECYCLE = [
    lambda lake: lake.spill("A", "B", True, np.arange(0.0, 8.0)),
    lambda lake: lake.record_summary(row(0, coverage="begin")),
    lambda lake: lake.record_summary(row(0, [1.0, 2.0, 3.0])),
    lambda lake: lake.advance_frontier(4),
    lambda lake: lake.checkpoint(),
    lambda lake: lake.spill("A", "B", True, np.arange(8.0, 12.0)),  # buffered
    lambda lake: lake.spill("B", "C", False, np.arange(0.0, 8.0)),
    lambda lake: lake.record_summary(row(1, [4.0, 5.0, 6.0])),
    lambda lake: lake.checkpoint(),
    lambda lake: lake.checkpoint(),  # nothing changed
    lambda lake: lake.spill("A", "B", True, np.arange(12.0, 20.0)),
    lambda lake: lake.checkpoint(),
    lambda lake: lake.compact(target_bytes=1 << 20),
    lambda lake: lake.record_summary(row(2, coverage="end")),
    lambda lake: lake.advance_frontier(12),
    lambda lake: lake.spill("B", "C", False, np.arange(8.0, 11.0)),  # buffered
    lambda lake: lake.close(),  # cuts the buffered tail, journals the rest
]


REAL_FSYNC, REAL_REPLACE = os.fsync, os.replace


class Crash(Exception):
    pass


class FaultInjector:
    """Counts the lake's ``os.fsync`` / ``os.replace`` calls and crashes
    before or after the ``at``-th one; remembers the journal's length at
    the last ``fsync`` that did return (what a power cut cannot take)."""

    def __init__(self, monkeypatch, root, at=None, when="before"):
        self.root, self.at, self.when = root, at, when
        self.calls = 0
        self.durable = 0
        monkeypatch.setattr(os, "fsync", lambda fd: self._step(REAL_FSYNC, fd))
        monkeypatch.setattr(os, "replace", lambda a, b: self._step(REAL_REPLACE, a, b))

    def _step(self, real, *args):
        index = self.calls
        self.calls += 1
        if index == self.at and self.when == "before":
            raise Crash
        real(*args)
        journal = self.root / JOURNAL_NAME
        if real is REAL_FSYNC and journal.exists():
            self.durable = journal.stat().st_size
        if index == self.at:
            raise Crash


class TestCrashInjection:
    def _baseline(self, tmp_path, monkeypatch):
        """States after each operation of an uninterrupted run."""
        root = tmp_path / "baseline"
        probe = FaultInjector(monkeypatch, root)
        lake = TraceLake(root, segment_bytes=64)
        states = [reopened_snapshot(root, tmp_path / "copy")]
        for step in LIFECYCLE:
            step(lake)
            states.append(reopened_snapshot(root, tmp_path / "copy"))
        # A checkpoint leaves nothing behind: a reader of the directory
        # sees the summaries and frontier the writer sees.
        assert states[-1][0] == lake.frontier == 12
        assert states[-1][3] == tuple(signature(s) for s in lake.summaries())
        assert len(set(states)) == 6  # empty + five journal records
        return states, probe.calls

    def test_every_fsync_and_rename_point(self, tmp_path, monkeypatch):
        states, points = self._baseline(tmp_path, monkeypatch)
        assert points == 15  # five segment cuts, five records
        recovered = set()
        for at in range(points):
            for when in ("before", "after"):
                root = tmp_path / f"crash-{at}-{when}"
                injector = FaultInjector(monkeypatch, root, at, when)
                lake = TraceLake(root, segment_bytes=64)
                done = 0
                with pytest.raises(Crash):
                    for step in LIFECYCLE:
                        step(lake)
                        done += 1
                journal = root / JOURNAL_NAME
                size = journal.stat().st_size if journal.exists() else 0
                # What an unsynced append may have left: all, nothing, a torn part.
                tails = {size, injector.durable, injector.durable + 3,
                         (size + injector.durable) // 2}
                for keep in sorted(t for t in tails if t <= size):
                    victim = tmp_path / "victim"
                    shutil.rmtree(victim, ignore_errors=True)
                    shutil.copytree(root, victim)
                    if journal.exists():
                        os.truncate(victim / JOURNAL_NAME, keep)
                    FaultInjector(monkeypatch, victim)  # no more faults
                    state = reopened_snapshot(victim, tmp_path / "copy")
                    assert state in (states[done], states[done + 1]), (at, when, keep)
                    recovered.add(state)
                    self._appends_cleanly(victim, state)
        assert recovered == set(states)  # every prefix was some crash's outcome

    def _appends_cleanly(self, root, state):
        """Life goes on: the survivor takes new data behind whatever the
        crash left, and a third process reads old and new."""
        lake = TraceLake(root, segment_bytes=64)
        extra = row(9, [7.0, 8.0], key=("C2", "WS", "WS", "DB"))
        lake.record_summary(extra)
        lake.spill("X", "Y", True, np.arange(100.0, 108.0))
        lake.close()
        frontier, _, streams, rows = snapshot(TraceLake(root))
        assert frontier == state[0]
        assert dict(streams) == {
            **dict(state[2]), ("X", "Y", True): tuple(np.arange(100.0, 108.0)),
        }
        assert collections.Counter(rows) == collections.Counter(
            state[3] + (signature(extra),)
        )

    def test_failed_append_is_retried_behind_a_clean_tail(self, tmp_path, monkeypatch):
        """A live lake whose disk fills mid-frame keeps its rows pending,
        and the next checkpoint overwrites the torn frame."""
        lake = TraceLake(tmp_path / "lake")
        lake.record_summary(row(0, [1.0, 2.0]))
        lake.checkpoint()
        lake.record_summary(row(1, [3.0, 4.0]))

        class FullDisk:
            def __init__(self, *args, **kwargs):
                self.real = open(*args, **kwargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.real.close()

            def writelines(self, buffers):
                data = b"".join(buffers)
                self.real.write(data[: len(data) // 2])
                self.real.flush()
                raise OSError(28, "No space left on device")

        with monkeypatch.context() as patch:
            patch.setattr("repro.lake.lake.open", FullDisk, raising=False)
            with pytest.raises(OSError):
                lake.checkpoint()
        expected = [signature(row(0, [1.0, 2.0])), signature(row(1, [3.0, 4.0]))]
        assert [signature(s) for s in lake.summaries()] == expected
        # Another process opening now sees the first checkpoint only.
        assert snapshot(TraceLake(tmp_path / "lake"))[3] == tuple(expected[:1])
        with monkeypatch.context() as patch:
            patch.setattr(os, "fsync", lambda fd: (_ for _ in ()).throw(OSError(5, "EIO")))
            with pytest.raises(OSError):
                lake.checkpoint()
        lake.checkpoint()
        lake.close()
        assert snapshot(TraceLake(tmp_path / "lake"))[3] == tuple(expected)


class TestDamage:
    def _lake(self, root):
        """Three checkpoints (segments, rows of two keys, frontier); returns
        the journal and, per journal length, the state a reader sees."""
        lake = TraceLake(root, segment_bytes=64)
        states = {0: snapshot(TraceLake(root))}
        other = ("C", "WS", "DB", "X")
        batches = [
            [row(0, coverage="begin"), row(0, [1.0, 2.0, 3.0]), row(0, [9.0], key=other)],
            [row(1), row(2, [4.0, 5.0, 6.0])],
            [row(3, [7.0, 8.0, 9.0], key=other), row(3, coverage="end")],
        ]
        for index, batch in enumerate(batches):
            lake.spill("A", "B", True, np.arange(8.0 * index, 8.0 * index + 8.0))
            for summary in batch:
                lake.record_summary(summary)
            lake.advance_frontier(4 * index + 4)
            lake.checkpoint()
            states[(root / JOURNAL_NAME).stat().st_size] = snapshot(TraceLake(root))
        lake.close()
        return (root / JOURNAL_NAME).read_bytes(), states

    def test_every_truncation_is_a_discarded_tail(self, tmp_path):
        blob, states = self._lake(tmp_path)
        assert len(states) == 4 and max(states) == len(blob)
        for size in range(len(blob)):
            (tmp_path / JOURNAL_NAME).write_bytes(blob[:size])
            whole = max(end for end in states if end <= size)
            assert snapshot(TraceLake(tmp_path)) == states[whole], size

    def test_every_byte_flip_is_a_trace_error_never_a_wrong_row(self, tmp_path):
        blob, states = self._lake(tmp_path)
        truth = states[len(blob)][3]
        keys = sorted({sig[:4] for sig in truth})
        at_open = at_read = 0
        for pos in range(len(blob)):
            flipped = bytearray(blob)
            flipped[pos] ^= 0xFF
            (tmp_path / JOURNAL_NAME).write_bytes(bytes(flipped))
            try:
                lake = TraceLake(tmp_path)
            except TraceError:
                at_open += 1
                continue
            # Heads check out, so the damage is in a lag payload: the one
            # key whose row holds it raises, the other reads true rows.
            raised = 0
            for key in keys:
                try:
                    got = [signature(s) for s in lake.summaries(*key)]
                except TraceError:
                    raised += 1
                else:
                    assert got == [sig for sig in truth if sig[:4] == key], pos
            assert raised == 1, pos
            with pytest.raises(TraceError):
                lake.summaries()
            at_read += 1
        assert at_open + at_read == len(blob)
        assert at_read == sum(len(sig[11]) for sig in truth if sig[11] is not None)

    def test_trailing_zeros_are_damage_not_a_tail(self, tmp_path):
        """A file system may extend a file it never filled: a whole header's
        worth of zeros fails the frame checksum instead of passing as cut off."""
        blob, _ = self._lake(tmp_path)
        (tmp_path / JOURNAL_NAME).write_bytes(blob + bytes(64))
        with pytest.raises(TraceError, match="frame header"):
            TraceLake(tmp_path)

    def test_foreign_file_is_refused(self, tmp_path):
        (tmp_path / JOURNAL_NAME).write_bytes(b"PK\x03\x04 not a journal")
        with pytest.raises(TraceError, match="not a lake journal"):
            TraceLake(tmp_path)


def decode_every_batch(root):
    """Every journaled row in write order, decoded without the index: the
    fixed-width columns from each record's table, lag vectors sliced out
    of the raw file by the offsets the rows carry."""
    path = root / JOURNAL_NAME
    blob = path.read_bytes() if path.exists() else b""
    rows = []
    for record in scan_journal(root):
        for fields in record.table.tolist():
            (key, start, length, quantum, x_total, x_energy, y_total, y_energy,
             coverage, lag_offset, lag_size, _crc) = fields
            lag = None
            if lag_offset >= 0:
                lag = np.frombuffer(blob, "<f8", lag_size, lag_offset)
            rows.append(
                BlockSummary(
                    *record.keys[key], start, length, quantum, x_total, x_energy,
                    y_total, y_energy, lag, COVERAGE[coverage],
                )
            )
    return rows


class TestIndexedReads:
    def test_indexed_summaries_equal_brute_force_decode(self, tmp_path_factory):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings, strategies as st

        names = st.sampled_from(["a", "b"])
        keys = st.tuples(names, st.just("r"), names, names)
        written_row = st.builds(
            lambda key, block, kind, lag: row(
                block, lag if kind is None else None, key=key, coverage=kind
            ),
            keys, st.integers(-3, 12), st.sampled_from([None, None, "begin", "end"]),
            st.one_of(st.none(), st.lists(st.floats(-5, 5), min_size=0, max_size=4)),
        )
        action = st.one_of(written_row, st.sampled_from(["checkpoint", "reopen"]))
        bound = st.one_of(
            st.just(float("-inf")), st.just(float("inf")), st.floats(-8.0, 30.0),
            st.integers(-3, 13).map(lambda block: block * 4 * 0.5),
        )
        wanted = st.tuples(*[st.one_of(st.none(), n) for n in (names, st.just("r"), names, names)])

        @settings(max_examples=60, deadline=None)
        @given(
            actions=st.lists(action, max_size=30),
            queries=st.lists(st.tuples(wanted, bound, bound), min_size=1, max_size=5),
        )
        def check(actions, queries):
            root = tmp_path_factory.mktemp("lake")
            lake = TraceLake(root)
            pending = []
            for act in actions:
                if act == "checkpoint":
                    lake.checkpoint()
                    pending = []
                elif act == "reopen":
                    lake.close()
                    lake = TraceLake(root)
                    pending = []
                else:
                    lake.record_summary(act)
                    pending.append(act)
            everything = decode_every_batch(root) + pending
            assert lake.stats()["summary_rows"] == len(everything) - len(pending)
            for wanted_key, start, end in queries:
                expect = [
                    s for s in everything
                    if all(w is None or w == f for w, f in zip(wanted_key, signature(s)))
                    and (s.coverage or (s.t_max > start and s.t_min < end))
                ]
                expect.sort(key=lambda s: signature(s)[4:5] + signature(s)[:4])
                got = lake.summaries(*wanted_key, start=start, end=end)
                assert [signature(s) for s in got] == [signature(s) for s in expect]
            lake.close()

        check()


class TestCheckpointCost:
    def test_checkpoint_is_o_delta_with_one_fsync(self, tmp_path, monkeypatch):
        syncs = []
        monkeypatch.setattr(os, "fsync", syncs.append)  # count, do not wait
        lake = TraceLake(tmp_path, segment_bytes=8)
        journal = tmp_path / JOURNAL_NAME
        appended = []
        for index in range(2001):
            lake.spill("A", "B", True, np.array([float(index)]))  # cuts a segment
            lake.record_summary(row(index, [1.0, 2.0, 3.0]))
            lake.advance_frontier(4 * index + 4)
            size = journal.stat().st_size if index else len(JOURNAL_MAGIC)
            del syncs[:]
            lake.checkpoint()
            assert len(syncs) == 1
            appended.append(journal.stat().st_size - size)
            lake.checkpoint()  # nothing new: no write, no fsync
            assert len(syncs) == 1 and journal.stat().st_size == size + appended[-1]
        stats = lake.stats()
        assert (stats["segments"], stats["summary_batches"], stats["summary_rows"]) == (
            2001, 2001, 2001,
        )
        # The 2,001st record is the size of the first: the catalog and the
        # older batches are not written again.
        assert appended[-1] == appended[0] < 400
        lake.close()
        assert len(TraceLake(tmp_path).segments()) == 2001

    def test_recording_never_touches_the_filesystem(self, tmp_path, monkeypatch):
        lake = TraceLake(tmp_path / "lake")
        with monkeypatch.context() as patch:
            _forbid_io(patch)
            for index in range(2000):  # the v1 lake cut a file every 512 rows
                lake.record_summary(row(index, [1.0, 2.0]))
        assert lake.stats()["pending_summary_rows"] == 2000

    def test_correlate_stage_does_no_file_io(self, tmp_path, monkeypatch):
        """Summary persistence is the spill stage's cost: the correlate
        stage (where the eviction hooks fire) only buffers rows."""
        topo, _ = chain_topology()
        lake = TraceLake(tmp_path / "lake")
        sink = TraceCollector(client_nodes=["C"], retention=CFG.retention)
        engine = E2EProfEngine(CFG, capture_sink=sink, lake=lake)
        correlate = engine._stage_correlate
        recorded = []

        def guarded(*args, **kwargs):
            before = lake.stats()["pending_summary_rows"]
            with monkeypatch.context() as patch:
                _forbid_io(patch)
                result = correlate(*args, **kwargs)
            recorded.append(lake.stats()["pending_summary_rows"] - before)
            return result

        engine._stage_correlate = guarded
        engine.attach(topo)
        topo.run_until(60.0)
        engine.close()
        assert sum(recorded) == lake.stats()["summary_rows"] > 0

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
    def test_no_journal_fd_outlives_a_call(self, tmp_path):
        """The lake opens the journal per append and per read, so ``close``
        (or dropping the lake unclosed) has no descriptor to leak."""
        def open_fds():
            return len(os.listdir("/proc/self/fd"))

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            before = open_fds()
            lake = TraceLake(tmp_path)
            lake.record_summary(row(0, [1.0]))
            lake.checkpoint()
            assert len(lake.summaries()) == 1
            with pytest.raises(TraceError):  # a failing read releases it too
                os.truncate(tmp_path / JOURNAL_NAME, 40)
                lake.summaries()
            assert open_fds() == before
            lake.close()
            del lake
            gc.collect()
            assert open_fds() == before


def _forbid_io(patch):
    def forbidden(*args, **kwargs):
        raise AssertionError(f"file I/O while recording summaries: {args}")

    patch.setattr(builtins, "open", forbidden)
    patch.setattr(os, "open", forbidden)
    patch.setattr(os, "fsync", forbidden)
    patch.setattr(os, "write", forbidden)
