"""A multi-x kernel call returns, row for row, the bits of one-x calls.

The correlate stage calls each batch kernel once per pair slot with one
x block per row -- every reference group rides in one call. For each of
the sparse, RLE and FFT batch kernels this holds each row of such a call
bitwise to the row the per-reference one-x call (the call a reference
group made on its own) returns:

* over hypothesis groups of references, rows and blocks, including
  bounds small enough to cut the batch (sparse), halve it (RLE) or block
  its inverse transforms (FFT), whose row results must not depend on
  what else rides in the batch;
* over every kernel call of the golden mesh run (late blocks, rewindow,
  parking, waking) and of 30 refreshes of each end-to-end workload
  (slow).

And what the stage does with a kernel's rows changes none of them: run a
bounded block of rows at a time, the sparse and RLE kernels' chunks carry
the bits (and ledger the rows, units and bytes) of one whole call, and a
kernel output kept as its nonzeros -- or whole, where that is smaller --
comes back bit for bit.
"""

import pathlib

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from repro.core import correlation, incremental, stages
from repro.core.correlation import (
    SpectrumCache,
    batch_lag_products,
    fft_batch_lag_products,
    fft_length,
    rle_batch_lag_products,
)
from repro.core.engine import E2EProfEngine
from repro.core.incremental import LagVectors
from repro.core.rle import RunLengthSeries
from repro.obs.ledger import LedgerRecorder

from tests.test_group_batching import bits, run_mesh

QUANTUM = 1e-3
SPAN = 24
E2E = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"


def one_x_rows(kernel, xs, ys, max_lag, **kwargs):
    """What ``kernel`` returns row by row when each reference group --
    the rows sharing one x block -- makes its own one-x call."""
    out = [None] * len(ys)
    groups = {}
    for row, x in enumerate(xs):
        groups.setdefault(id(x), (x, []))[1].append(row)
    for x, rows in groups.values():
        mat = kernel(x, [ys[r] for r in rows], max_lag, **kwargs)
        for r, values in zip(rows, mat):
            out[r] = values
    return out


def assert_rows_bitwise(kernel, xs, ys, max_lag):
    got = kernel(list(xs), ys, max_lag)
    assert got.shape == (len(ys), max_lag + 1)
    for row, want in enumerate(one_x_rows(kernel, xs, ys, max_lag)):
        assert np.array_equal(bits(got[row]), bits(want)), f"row {row}"


def fft_kernel(x, ys, max_lag):
    size = fft_length(SPAN + SPAN - 1)
    return fft_batch_lag_products(x, ys, max_lag, size=size, cache=SpectrumCache())


KERNELS = {
    "sparse": lambda x, ys, max_lag: batch_lag_products(
        [b.to_sparse() for b in x] if isinstance(x, list) else x.to_sparse(),
        [y.to_sparse() for y in ys],
        max_lag,
    ),
    "rle": rle_batch_lag_products,
    "fft": fft_kernel,
}


@st.composite
def run_blocks(draw, start, length=SPAN):
    """A RunLengthSeries over ``[start, start + length)``; the empty
    block and runs touching both ends all come up."""
    starts, counts, values = [], [], []
    position = 0
    for _ in range(draw(st.integers(0, 6))):
        position += draw(st.integers(0, 5))
        if position >= length:
            break
        count = draw(st.integers(1, length - position))
        starts.append(start + position)
        counts.append(count)
        values.append(float(np.sqrt(draw(st.integers(1, 50)))))
        position += count
    return RunLengthSeries(
        np.array(starts, dtype=np.int64),
        np.array(counts, dtype=np.int64),
        np.array(values, dtype=np.float64),
        start,
        length,
        QUANTUM,
    )


@st.composite
def groups(draw):
    """x blocks of 1-4 references sharing one window, 1-8 rows each
    assigned a reference, and the rows' y blocks."""
    x_start = draw(st.one_of(st.just(0), st.just(-SPAN), st.integers(-2 * SPAN, SPAN)))
    refs = [draw(run_blocks(x_start)) for _ in range(draw(st.integers(1, 4)))]
    rows = draw(st.integers(1, 8))
    xs = [refs[draw(st.integers(0, len(refs) - 1))] for _ in range(rows)]
    ys = [draw(run_blocks(0)) for _ in range(rows)]
    return xs, ys


class TestMultiXGroups:
    @pytest.mark.parametrize("kernel", list(KERNELS))
    @settings(max_examples=60, deadline=None)
    @given(data=groups(), max_lag=st.integers(0, 3 * SPAN))
    def test_rows_equal_one_x_calls(self, kernel, data, max_lag):
        xs, ys = data
        assert_rows_bitwise(KERNELS[kernel], xs, ys, max_lag)

    @pytest.mark.parametrize("kernel", list(KERNELS))
    @settings(max_examples=60, deadline=None)
    @given(data=groups(), max_lag=st.integers(0, 3 * SPAN), chunk=st.integers(1, 40))
    def test_rows_equal_one_row_calls_under_small_chunks(self, kernel, data, max_lag, chunk):
        # Bounds this small cut (sparse), halve (RLE) or block (FFT) the
        # batch and split single rows; every row still gets a one-row
        # call's bits.
        xs, ys = data
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(correlation, "_PAIR_CHUNK", chunk)
            patch.setattr(correlation, "_ROW_GROUP", chunk)
            patch.setattr(correlation, "_BLOCK_BYTES", 16 * chunk)
            got = KERNELS[kernel](list(xs), ys, max_lag)
            for row, (x, y) in enumerate(zip(xs, ys)):
                want = KERNELS[kernel](x, [y], max_lag)[0]
                assert np.array_equal(bits(got[row]), bits(want)), f"row {row}"

    def test_x_per_row_must_match_rows(self):
        x = RunLengthSeries.empty(0, SPAN, QUANTUM)
        for kernel in (batch_lag_products, rle_batch_lag_products, fft_batch_lag_products):
            with pytest.raises(correlation.CorrelationError):
                kernel([x, x], [x], 3)

    def test_fft_x_blocks_share_one_window(self):
        a = RunLengthSeries.empty(0, SPAN, QUANTUM)
        b = RunLengthSeries.empty(SPAN, SPAN, QUANTUM)
        with pytest.raises(correlation.CorrelationError):
            fft_batch_lag_products([a, b], [a, a], 3)


def stage_chunks(xs, ys, max_lag):
    """``PipelineCore._pair_products`` of loud ``xs`` against loud ``ys``:
    each row's vector by input row, and the ledger's kernel tallies."""
    host = stages.PipelineCore()
    host.ledger, host._spectra = LedgerRecorder(), SpectrumCache()
    rows = [None] * len(ys)
    chunks = 0
    for picked, mat in host._pair_products(xs, ys, stages._run_stats(ys), max_lag):
        chunks += 1
        for row, values in zip(picked.tolist(), mat):
            assert rows[row] is None
            rows[row] = values.copy()
    kernels = host.ledger.complete(0.0, 0, 0.0).kernels
    tallies = {k: (v.rows, v.work_units, v.bytes_touched) for k, v in kernels.items()}
    return rows, chunks, tallies


class TestStageChunks:
    @settings(max_examples=60, deadline=None)
    @given(data=groups(), max_lag=st.integers(0, 3 * SPAN))
    def test_row_blocks_carry_one_calls_bits(self, data, max_lag):
        xs, ys = data
        assume(all(b.num_runs for b in xs + ys))
        whole, _, tallies = stage_chunks(xs, ys, max_lag)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(incremental, "BLOCK_BYTES", 8)  # one row a block
            blocked, chunks, blocked_tallies = stage_chunks(xs, ys, max_lag)
        for row, (want, got) in enumerate(zip(whole, blocked)):
            assert np.array_equal(bits(got), bits(want)), f"row {row}"
        assert blocked_tallies == tallies
        fft_rows = tallies["fft_batch"][0]
        assert chunks == len(ys) - fft_rows + (fft_rows > 0)

    @pytest.mark.parametrize("kernel", list(KERNELS))
    @settings(max_examples=40, deadline=None)
    @given(data=groups(), max_lag=st.integers(0, 3 * SPAN))
    def test_kernel_output_survives_the_pair_store(self, kernel, data, max_lag):
        xs, ys = data
        mat = KERNELS[kernel](list(xs), ys, max_lag)
        store = LagVectors.chunk(np.arange(len(ys)), mat)
        nonzero = np.count_nonzero(bits(mat))
        # Kept as nonzeros exactly when that is smaller than the rows.
        assert (store._index_at < 0).all() == (nonzero * 10 >= mat.size * 8)
        assert store.nbytes <= 16 * len(ys) + mat.nbytes
        assert np.array_equal(bits(store.dense(np.arange(len(ys)))), bits(mat))
        grown = LagVectors(max_lag + 1)
        for row in range(len(ys)):  # a row at a time, as replayed rows are
            grown.extend(np.array([row]), mat[row])
        grown.trim()
        assert np.array_equal(bits(grown.dense(np.arange(len(ys))[::-1])), bits(mat[::-1]))


class KernelAudit:
    """Wraps the stage's three kernels: every call with more than one
    distinct x block is checked against its one-x calls on the spot (so
    no kernel output is kept), and the verdicts are tallied."""

    NAMES = {
        "batch_lag_products": "sparse",
        "rle_batch_lag_products": "rle",
        "fft_batch_lag_products": "fft",
    }

    def __init__(self, monkeypatch):
        self.checked = dict.fromkeys(self.NAMES.values(), 0)
        self.failures = []
        for name, kernel in self.NAMES.items():
            monkeypatch.setattr(stages, name, self._wrap(kernel, getattr(stages, name)))

    def _wrap(self, name, real):
        def audited(x, ys, max_lag, **kwargs):
            got = real(x, ys, max_lag, **kwargs)
            if isinstance(x, list) and len({id(b) for b in x}) > 1:
                self.checked[name] += 1
                if "cache" in kwargs:  # cached spectra are bitwise fresh ones
                    kwargs["cache"] = SpectrumCache()
                for row, values in enumerate(one_x_rows(real, x, ys, max_lag, **kwargs)):
                    if not np.array_equal(bits(got[row]), bits(values)):
                        self.failures.append((name, row))
            return got

        return audited


class TestRecordedKernelInputs:
    def test_golden_mesh_run(self, monkeypatch):
        audit = KernelAudit(monkeypatch)
        run_mesh(faults=True, rewindow_at=25.0)
        assert not audit.failures, audit.failures[:5]
        assert audit.checked["rle"] > 10

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "name, kernels",
        [
            ("sparse_manyclass", ["sparse"]),
            ("dense_surge", ["fft"]),
            ("fanout_mesh", ["rle"]),
            ("lake_history", ["rle"]),
        ],
    )
    def test_thirty_refreshes_of_each_workload(self, name, kernels, monkeypatch):
        monkeypatch.syspath_prepend(str(E2E))
        from workloads import WORKLOADS

        spec = WORKLOADS[name].sized(30)
        deployment = spec.build(seed=11)
        audit = KernelAudit(monkeypatch)
        engine = E2EProfEngine(spec.config())
        engine.attach(deployment.topology, start_at=0.0)
        try:
            deployment.run_until(spec.simulated_seconds)
        finally:
            engine.close()
        assert engine._refreshes == 30
        assert not audit.failures, audit.failures[:5]
        for kernel in kernels:
            assert audit.checked[kernel] > 0, audit.checked
