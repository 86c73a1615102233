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
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.core.correlation import CorrelationSeries
from repro.core.incremental import CorrelatorBank
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
