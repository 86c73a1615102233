"""The correlator bank changes how the work is laid out, never a bit of it.

* Every live row's lag products and moments, refresh by refresh through
  late blocks, a ``rewindow``, parking and waking, and every lake summary
  row, equal the per-pair correlators' that preceded the bank
  (``tests/data/correlator_bank_golden.json``).
* A row rebuilt from block history is *not* bitwise the maintained one --
  the maintained aggregate carries the rounding of every block added and
  subtracted since -- but agrees with it within float tolerance and
  publishes the same spikes.
* The 2-D spike scan finds, row by row, exactly what the 1-D scan finds.
* One ``correlator.append`` span covers each refresh's append.
* Pair products kept as their nonzeros change no bit: through compact
  and dense chunks, row-blocked and lazy appends, evictions with hook
  sums, drops that split a chunk, and park/wake replays, every lag row
  and every hook sum equals a dense store's.
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.core import incremental
from repro.core.correlation import CorrelationSeries
from repro.core.incremental import CorrelatorBank, LagVectors, row_crcs
from repro.core.rle import RunLengthSeries
from repro.core.spikes import _local_maxima_rows, detect_spike_rows, detect_spikes
from repro.obs.spans import SpanTracer

from tests.kernel_reference import local_maxima_above_reference
from tests.test_group_batching import CFG, bits, run_mesh
from tests.test_parking import run_lifecycle

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "data" / "correlator_bank_golden.json").read_text()
)


def digest(*arrays):
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return sha.hexdigest()[:16]


def name(ref, edge):
    return f"{ref[0]}>{ref[1]}|{edge[0]}>{edge[1]}"


class TestBitParityGolden:
    def test_live_rows_match_per_pair_correlators(self):
        recorded = []

        def record(engine, now, result):
            bank = engine._bank
            rows = {
                name(ref, edge): digest(bank._lag[row], bank._moments[row])
                for row, (ref, edge) in enumerate(bank.keys)
            }
            recorded.append({"time": now, "parked": len(engine._parked), "rows": rows})

        engine, _ = run_mesh(faults=True, rewindow_at=25.0, on_refresh=record)
        assert engine._receiver.totals()["late_recovered"] > 0
        assert engine.rewindows == 1
        golden = GOLDEN["mesh"]
        assert [r["time"] for r in recorded] == [r["time"] for r in golden]
        for got, want in zip(recorded, golden):
            assert got["parked"] == want["parked"], got["time"]
            assert got["rows"] == want["rows"], got["time"]
        # The fixture covers parking and waking.
        parked = [r["parked"] for r in golden]
        assert max(parked) > 0 and parked[-1] < max(parked)

    def test_lake_summaries_match_per_pair_correlators(self, tmp_path):
        engine, _, _ = run_lifecycle(
            faults=True, rewindow_at=25.0, lake_dir=tmp_path / "lake"
        )
        per_key = {}
        for row in engine.lake.summaries():
            sha = per_key.setdefault(
                f"{row.client}>{row.root}|{row.src}>{row.dst}", hashlib.sha256()
            )
            sha.update(repr((
                row.block_start, row.block_length, row.coverage,
                row.x_total, row.x_energy, row.y_total, row.y_energy,
            )).encode())
            if row.lag_products is not None:
                sha.update(np.ascontiguousarray(row.lag_products, dtype=np.float64).tobytes())
        assert {k: v.hexdigest()[:16] for k, v in per_key.items()} == GOLDEN["lake_summaries"]

    def test_row_blocked_appends_match_per_pair_correlators(self, monkeypatch):
        # One row per block: every pair slot folds in as many kernel
        # chunks as it has rows, an eviction densifies and sums a row at
        # a time, and no lag row may change a bit.
        monkeypatch.setattr(incremental, "BLOCK_BYTES", 8)
        self.test_live_rows_match_per_pair_correlators()


def rebuilt_row(engine, ref, edge):
    """``(ref, edge)`` replayed from block history into a throwaway bank,
    leaving the engine's own state as it was: ``(bank, row)``."""
    bank, parked = engine._bank, set(engine._parked)
    edge_keys = {e: set(keys) for e, keys in engine._edge_keys.items()}
    fresh = engine._bank = CorrelatorBank(bank.max_lag, bank.num_blocks, bank.quantum)
    try:
        return fresh, engine._create_row(ref, edge)
    finally:
        engine._bank, engine._parked, engine._edge_keys = bank, parked, edge_keys


class TestRebuiltRows:
    def test_agree_within_tolerance_and_publish_same_spikes(self):
        compared, differing, mismatched = [], [], []

        def check(engine, now, result):
            bank = engine._bank
            for row, (ref, edge) in enumerate(list(bank.keys)):
                tail = engine._boundary_masses([ref], True)[ref]
                fresh, fresh_row = rebuilt_row(engine, ref, edge)
                head = engine._boundary_masses([edge], False)[edge][None]
                a, a_deg = bank.normalize(np.array([row]), tail, head)
                b, b_deg = fresh.normalize(np.array([fresh_row]), tail, head)
                # A side gone quiet is exactly zero when rebuilt but
                # can keep a ~1e-13 energy residue when maintained:
                # degenerate on one side, values ~1e-8 on the other.
                ok = (
                    np.allclose(fresh._lag[fresh_row], bank._lag[row], rtol=1e-9, atol=1e-6)
                    and np.allclose(fresh._moments[fresh_row], bank._moments[row], rtol=1e-9)
                    and np.allclose(a, b, rtol=1e-7, atol=1e-6)
                )
                spikes = [
                    [s.lag for s in engine._pathmap.scan(
                        CorrelationSeries(v[0], CFG.quantum, bank.window_length, bool(d[0]))
                    )]
                    for v, d in ((a, a_deg), (b, b_deg))
                ]
                compared.append((now, ref, edge))
                if not ok or spikes[0] != spikes[1]:
                    mismatched.append((now, ref, edge, spikes))
                if not np.array_equal(
                    bits(fresh._lag[fresh_row]), bits(bank._lag[row])
                ) or not np.array_equal(
                    bits(fresh._moments[fresh_row]), bits(bank._moments[row])
                ):
                    differing.append((now, ref, edge))

        engine, samples = run_mesh(faults=True, rewindow_at=25.0, on_refresh=check)
        assert len(compared) > 10 * len(samples)
        assert not mismatched, mismatched[:3]
        # Replay is no bitwise oracle: maintained rows carry the rounding
        # of blocks long evicted.
        assert differing


#: Small integers make ties, plateaus and threshold equality common.
matrices = st.integers(1, 5).flatmap(
    lambda rows: st.integers(0, 20).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, 4).map(float), min_size=n, max_size=n),
            min_size=rows,
            max_size=rows,
        )
    )
)


class TestRowScan:
    @given(values=matrices, data=st.data())
    def test_local_maxima_rows_match_scalar_scan(self, values, data):
        array = np.array(values, dtype=np.float64).reshape(len(values), -1)
        thresholds = np.array(
            [data.draw(st.integers(-1, 4).map(float)) for _ in values]
        )
        got = _local_maxima_rows(array, thresholds)
        for row, threshold, lags in zip(array, thresholds, got):
            assert lags == local_maxima_above_reference(row, threshold)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        rows=st.integers(1, 12),
        lags=st.integers(3, 700),
        resolution=st.integers(1, 6),
    )
    def test_spike_rows_match_one_row_scans(self, seed, rows, lags, resolution):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(rows, lags)) * rng.random((rows, 1))
        values[:, rng.integers(lags)] += 4.0  # a spike in every row
        values[0] = np.round(values[0], 1)  # plateaus and ties
        got = detect_spike_rows(values, 1e-3, 3.0, resolution, 0.1)
        for row in range(rows):
            want = detect_spikes(
                CorrelationSeries(values[row], 1e-3, lags),
                sigma=3.0, resolution_quanta=resolution, min_height=0.1,
            )
            assert got[row] == want, row


class TestAppendSpans:
    def test_one_append_span_per_refresh(self):
        tracer = SpanTracer(enabled=True)
        engine, samples = run_mesh(tracer=tracer)
        frames = engine.flight.frames()
        assert frames
        for frame in frames:
            appends = [s for s in frame.spans if s.name == "correlator.append"]
            assert len(appends) <= 1
            known = frame.sample["correlators"] + frame.sample["parked_correlators"]
            for span in appends:
                assert 1 <= span.attributes["refs"] <= span.attributes["rows"] <= known
                assert not {"ref", "edge"} & set(span.attributes)
        appends = [s for f in frames for s in f.spans if s.name == "correlator.append"]
        assert len(appends) >= len(frames) - 1
        assert any(s.attributes["refs"] > 1 for s in appends)


#: Bank geometry of the store tests: 8 lags over 4-quantum blocks, so a
#: block pairs with the two before it (three pairs per eviction).
WIDTH, BLOCK, DEPTH = 8, 4, 3


def loud(start):
    return RunLengthSeries([start], [1], [1.0], start, BLOCK, 1e-3)


def vectors(rng, rows, dense):
    """Pair products whose sums round differently in another order: a
    few nonzeros (a compact chunk) or none zero (a dense one), over
    twelve decades, with a ``-0.0`` among them."""
    mat = rng.random((rows, WIDTH)) * 10.0 ** rng.integers(-6, 7, (rows, WIDTH))
    if not dense:
        mat[rng.random((rows, WIDTH)) < 0.7] = 0.0
        mat[:, 0] = -0.0
    return mat


class DenseStore:
    """The reference: every pair vector dense, one per (pair, key), added,
    subtracted and summed for the hook in the bank's order."""

    def __init__(self):
        self.lag, self.pairs = {}, {}

    def add(self, key, pair, vec):
        self.lag.setdefault(key, np.zeros(WIDTH))
        self.lag[key] += vec
        self.pairs.setdefault(pair, []).append((key, vec))

    def evict(self, old_id, reach):
        sums = {}
        for y_id in range(old_id, old_id + reach + 1):
            for key, vec in self.pairs.pop((old_id, y_id), []):
                self.lag[key] -= vec
                sums[key] = vec.copy() if key not in sums else sums[key] + vec
        return sums

    def drop(self, keys):
        for key in keys:
            del self.lag[key]
        for pair, kept in self.pairs.items():
            self.pairs[pair] = [(key, vec) for key, vec in kept if key not in keys]


class StoreDrive:
    """A bank and the dense reference driven through the same updates."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.sums = []
        self.bank = CorrelatorBank(WIDTH - 1, DEPTH, 1e-3, evict_hook=self.hook)
        self.ref = DenseStore()
        self.x = [loud(0)]  # the window's x blocks (shared by every reference)

    def hook(self, bank, old_x, y_moments, y_quiet, first, touched, sums, crcs):
        assert isinstance(sums, LagVectors) and len(sums) == touched.size
        dense = sums.dense(np.arange(len(sums)))
        np.testing.assert_array_equal(crcs, row_crcs(dense))
        self.sums.append({bank.keys[row]: vec for row, vec in zip(touched.tolist(), dense)})

    def add_row(self, key, dense):
        """Replay ``key`` over the window: compact or dense vectors."""
        reach, first = self.bank.block_reach or 1, self.bank._first_id
        replay = []
        for i in range(len(self.x)):
            slots = [*range(max(0, i - reach), i), i]
            replay.append(list(vectors(self.rng, len(slots), dense)))
            for p, vec in zip(slots, replay[-1]):
                self.ref.add(key, (first + p, first + i), vec)
        self.bank.add_row(key, key[0], self.x, self.x, replay)

    def append(self, chunk_rows, lazy=False):
        """Slide by one block: every row gets each slot's pair product,
        in chunks of at most ``chunk_rows`` rows, compact or dense."""
        bank = self.bank
        pending = min(bank.block_reach, len(self.x))
        new_id = bank._first_id + len(self.x)
        products = []
        for p_id in range(new_id - pending, new_id + 1):
            rows = np.sort(self.rng.permutation(len(bank))[: self.rng.integers(1, len(bank) + 1)])
            chunks = []
            for lo in range(0, rows.size, chunk_rows):
                part = rows[lo : lo + chunk_rows]
                mat = vectors(self.rng, part.size, bool(self.rng.integers(2)))
                for row, vec in zip(part.tolist(), mat):
                    self.ref.add(bank.keys[row], (p_id, new_id), vec)
                chunks.append((part, mat))
            products.append(iter(chunks) if lazy else chunks)
        evicts = len(self.x) == DEPTH
        if evicts:
            want = self.ref.evict(bank._first_id, bank.block_reach)
        block = loud(self.x[-1].end)
        self.x = [*self.x[1 if evicts else 0 :], block]
        n, calls = len(bank), len(self.sums)
        bank.append([block] * len(bank.refs), np.ones((n, 2)), np.zeros(n, bool), products)
        assert len(self.sums) == calls + evicts
        if evicts:
            self.check_sums(want)

    def check_sums(self, want):
        got = self.sums[-1]
        assert sorted(got) == sorted(want)
        for key in want:
            assert np.array_equal(bits(got[key]), bits(want[key])), key

    def check_rows(self):
        bank = self.bank
        assert sorted(bank.keys) == sorted(self.ref.lag)
        for row, key in enumerate(bank.keys):
            assert np.array_equal(bits(bank._lag[row]), bits(self.ref.lag[key])), key


class TestCompactPairStore:
    @pytest.mark.parametrize("dense", [False, True])
    def test_add_row_vectors_match_a_dense_store(self, dense):
        drive = StoreDrive(seed=1)
        for k in range(6):
            drive.add_row((("a", "b")[k % 2], k), dense)
        drive.check_rows()
        # The replayed vectors are kept in the form their measured
        # nonzeros make smallest.
        stores = list(drive.bank._replayed.values())
        assert all((v._index_at[: len(v)] < 0).all() == dense for v in stores)
        for _ in range(2 * DEPTH):
            drive.append(chunk_rows=4)
            drive.check_rows()

    @pytest.mark.parametrize("chunk_rows", [1, 3, 64])
    def test_row_blocked_and_lazy_appends_match_a_dense_store(self, chunk_rows):
        drive = StoreDrive(seed=2)
        for k in range(9):
            drive.add_row(("a", k), bool(k % 2))
        for turn in range(3 * DEPTH):
            drive.append(chunk_rows, lazy=bool(turn % 2))
            drive.check_rows()
        assert len(drive.sums) >= 2 * DEPTH

    def test_drop_splitting_chunks_then_park_and_wake(self):
        drive = StoreDrive(seed=3)
        keys = [(("a", "b")[k % 3 == 0], k) for k in range(12)]
        for key in keys:
            drive.add_row(key, False)
        drive.append(chunk_rows=5)
        drive.append(chunk_rows=5)
        # Drop rows out of the middle of chunks: a pair keeps the rest.
        before = {pair: len(store) for pair, store in drive.bank._pairs.items()}
        gone = keys[1:9:3]
        drive.bank.drop(gone)
        drive.ref.drop(gone)
        assert any(
            0 < len(store) < before[pair] for pair, store in drive.bank._pairs.items()
        )
        drive.check_rows()
        for _ in range(DEPTH + 1):
            drive.append(chunk_rows=5)
            drive.check_rows()
        # Park two rows (dropped while their edges are quiet) and wake
        # them: replayed over the current window, compact and dense.
        parked = keys[2:4]
        drive.bank.drop(parked)
        drive.ref.drop(parked)
        drive.append(chunk_rows=2)
        for key, dense in zip(parked, (False, True)):
            drive.add_row(key, dense)
        drive.check_rows()
        for _ in range(DEPTH + 1):
            drive.append(chunk_rows=2)
            drive.check_rows()

    def test_vectors_round_trip_bit_for_bit(self, monkeypatch):
        rng = np.random.default_rng(4)
        store = LagVectors(WIDTH)
        parts = [vectors(rng, k, dense) for k, dense in ((3, False), (2, True), (4, False))]
        for i, mat in enumerate(parts):
            store.extend(np.arange(i * 10, i * 10 + len(mat)), mat)
        every = np.concatenate(parts)
        for picks in (np.arange(len(every)), np.array([8, 0, 4, 3]), np.array([], dtype=np.int64)):
            assert np.array_equal(bits(store.dense(picks)), bits(every[picks]))
        assert store.nbytes < every.nbytes
        keep = np.arange(len(every)) % 2 == 0
        kept = store.take(keep, np.arange(keep.sum()))
        assert np.array_equal(bits(kept.dense(np.arange(len(kept)))), bits(every[keep]))
        store.trim()
        monkeypatch.setattr(incremental, "BLOCK_BYTES", 2 * 8 * WIDTH)  # two rows a block
        assert [len(block) for block in store.blocks()] == [2, 2, 2, 2, 1]
        assert np.array_equal(bits(np.concatenate(list(store.blocks()))), bits(every))
