"""Tests for the incremental sliding-window correlator (Section 3.4).

Central invariant: after any sequence of appends, the incremental result
equals a from-scratch sparse correlation over the concatenated window.
A stand-alone correlator is a one-row :class:`CorrelatorBank`.
"""

import collections

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.correlation import (
    CorrelationSeries,
    correlate_sparse,
    rle_lag_products,
    sparse_lag_products,
)
from repro.core.incremental import (
    CorrelatorBank,
    _concat_blocks,
    block_is_quiet,
    boundary_masses,
)
from repro.core.rle import RunLengthSeries, rle_encode
from repro.core.timeseries import DensityTimeSeries
from repro.errors import CorrelationError, SeriesError


def block(dense, start, quantum=1e-3):
    return DensityTimeSeries.from_dense(dense, start, quantum)


def pair_products(x, y, max_lag):
    """Raw lag products of two blocks, through the matching kernel."""
    if isinstance(x, RunLengthSeries) and isinstance(y, RunLengthSeries):
        return rle_lag_products(x, y, max_lag)
    as_sparse = lambda b: b.to_sparse() if isinstance(b, RunLengthSeries) else b
    return sparse_lag_products(as_sparse(x), as_sparse(y), max_lag)


class IncrementalCorrelator:
    """``corr(x, y)`` over a sliding window: a one-row bank fed blocks."""

    def __init__(self, max_lag, num_blocks, quantum):
        self.bank = CorrelatorBank(max_lag, num_blocks, quantum)
        self.bank.add_row("row", "x", [], [], [])
        self.y_blocks = collections.deque(maxlen=num_blocks)

    def pending_pair_blocks(self):
        return [xs[0] for xs in self.bank.pair_blocks()]

    @property
    def x_blocks(self):
        return self.bank.x_window("x")

    @property
    def window_start(self):
        return self.x_blocks[0].start if self.x_blocks else None

    def append(self, x, y, pair_vectors=None):
        """One block per side; ``pair_vectors`` (one per pending x block,
        then the diagonal, ``None`` for a skipped pair) default to the
        pair kernels over non-quiet blocks."""
        if pair_vectors is None:
            pair_vectors = [
                None
                if block_is_quiet(y) or block_is_quiet(p)
                else pair_products(p, y, self.bank.max_lag)
                for p in self.pending_pair_blocks() + [x]
            ]
        skipped = self.bank.append(
            [x],
            np.array([[y.total(), y.energy()]]),
            np.array([block_is_quiet(y)]),
            [[] if v is None else [(np.array([0]), v[None])] for v in pair_vectors],
        )
        self.y_blocks.append(y)
        return skipped

    def window_series(self):
        return (
            _concat_blocks(self.x_blocks, self.bank.quantum),
            _concat_blocks(list(self.y_blocks), self.bank.quantum),
        )

    def correlation(self):
        bank = self.bank
        tail = boundary_masses([self.x_blocks], bank.max_lag, newest=True)[0]
        head = boundary_masses([list(self.y_blocks)], bank.max_lag, newest=False)[0]
        values, degenerate = bank.normalize(np.array([0]), tail, head[None])
        return CorrelationSeries(
            values[0], bank.quantum, bank.window_length, bool(degenerate[0])
        )


def batch_reference(x_blocks, y_blocks, max_lag):
    xw = x_blocks[0]
    for b in x_blocks[1:]:
        xw = xw.concatenated(b)
    yw = y_blocks[0]
    for b in y_blocks[1:]:
        yw = yw.concatenated(b)
    return correlate_sparse(xw, yw, max_lag)


class TestEquivalence:
    @given(
        st.lists(
            st.tuples(
                st.lists(st.sampled_from([0.0, 0.0, 1.0, 2.0]), min_size=8, max_size=8),
                st.lists(st.sampled_from([0.0, 0.0, 1.0, 2.0]), min_size=8, max_size=8),
            ),
            min_size=1,
            max_size=8,
        ),
        st.integers(min_value=0, max_value=20),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_incremental_equals_batch(self, blocks, max_lag, num_blocks):
        inc = IncrementalCorrelator(max_lag=max_lag, num_blocks=num_blocks, quantum=1e-3)
        xs, ys = [], []
        for i, (dx, dy) in enumerate(blocks):
            xb = block(dx, i * 8)
            yb = block(dy, i * 8)
            xs.append(xb)
            ys.append(yb)
            inc.append(xb, yb)
            ref = batch_reference(xs[-num_blocks:], ys[-num_blocks:], max_lag)
            got = inc.correlation()
            assert got.degenerate == ref.degenerate
            if not ref.degenerate:
                np.testing.assert_allclose(got.values, ref.values, atol=1e-8)

    def test_rle_blocks(self):
        rng = np.random.default_rng(0)
        inc = IncrementalCorrelator(max_lag=30, num_blocks=3, quantum=1e-3)
        xs, ys = [], []
        for i in range(6):
            dx = rng.integers(0, 3, 20).astype(float)
            dy = rng.integers(0, 3, 20).astype(float)
            xb, yb = block(dx, i * 20), block(dy, i * 20)
            xs.append(xb)
            ys.append(yb)
            inc.append(rle_encode(xb), rle_encode(yb))
            ref = batch_reference(xs[-3:], ys[-3:], 30)
            np.testing.assert_allclose(inc.correlation().values, ref.values, atol=1e-8)

    def test_lag_longer_than_block(self):
        # max_lag spanning multiple blocks exercises cross-block pairs.
        rng = np.random.default_rng(1)
        inc = IncrementalCorrelator(max_lag=25, num_blocks=5, quantum=1e-3)
        xs, ys = [], []
        for i in range(8):
            dx = (rng.random(10) < 0.5).astype(float)
            dy = (rng.random(10) < 0.5).astype(float)
            xb, yb = block(dx, i * 10), block(dy, i * 10)
            xs.append(xb)
            ys.append(yb)
            inc.append(xb, yb)
        ref = batch_reference(xs[-5:], ys[-5:], 25)
        np.testing.assert_allclose(inc.correlation().values, ref.values, atol=1e-8)


class TestBookkeeping:
    def test_window_tracking(self):
        inc = IncrementalCorrelator(max_lag=5, num_blocks=2, quantum=1e-3)
        assert inc.window_start is None
        inc.append(block([1.0] * 4, 0), block([1.0] * 4, 0))
        assert inc.window_start == 0
        assert inc.bank.window_length == 4
        inc.append(block([1.0] * 4, 4), block([1.0] * 4, 4))
        inc.append(block([1.0] * 4, 8), block([1.0] * 4, 8))
        assert inc.window_start == 4  # oldest evicted
        assert inc.bank.window_length == 8

    def test_block_reach(self):
        inc = IncrementalCorrelator(max_lag=25, num_blocks=4, quantum=1e-3)
        inc.append(block([1.0] * 10, 0), block([1.0] * 10, 0))
        assert inc.bank.block_reach == 3  # ceil(25/10)

    def test_cache_does_not_grow_after_eviction(self):
        inc = IncrementalCorrelator(max_lag=5, num_blocks=2, quantum=1e-3)
        rng = np.random.default_rng(2)
        sizes = []
        for i in range(10):
            d = rng.integers(0, 2, 8).astype(float)
            inc.append(block(d, i * 8), block(d, i * 8))
            sizes.append(len(inc.bank._pairs))
        assert max(sizes[3:]) <= max(sizes[:3]) + 1  # bounded steady state


class TestValidation:
    def test_rejects_bad_construction(self):
        with pytest.raises(CorrelationError):
            CorrelatorBank(max_lag=-1, num_blocks=1, quantum=1e-3)
        with pytest.raises(CorrelationError):
            CorrelatorBank(max_lag=1, num_blocks=0, quantum=1e-3)
        with pytest.raises(CorrelationError):
            CorrelatorBank(max_lag=1, num_blocks=1, quantum=0.0)

    def test_rejects_wrong_pair_slot_count(self):
        # One kernel output per pending x block plus the diagonal.
        inc = IncrementalCorrelator(max_lag=5, num_blocks=2, quantum=1e-3)
        inc.append(block([1.0] * 4, 0), block([1.0] * 4, 0))
        with pytest.raises(CorrelationError):
            inc.append(block([1.0] * 4, 4), block([1.0] * 4, 4), pair_vectors=[None])

    def test_rejects_a_row_off_the_bank_window(self):
        inc = IncrementalCorrelator(max_lag=5, num_blocks=2, quantum=1e-3)
        inc.append(block([1.0] * 4, 0), block([1.0] * 4, 0))
        with pytest.raises(CorrelationError):
            inc.bank.add_row(
                "late", "x", [block([1.0] * 4, 4)], [block([1.0] * 4, 4)], [[None]]
            )

    def test_rejects_non_adjacent_blocks(self):
        inc = IncrementalCorrelator(max_lag=5, num_blocks=2, quantum=1e-3)
        inc.append(block([1.0] * 4, 0), block([1.0] * 4, 0))
        with pytest.raises(SeriesError):
            inc.append(block([1.0] * 4, 8), block([1.0] * 4, 8))

    def test_rejects_changed_block_length(self):
        inc = IncrementalCorrelator(max_lag=5, num_blocks=2, quantum=1e-3)
        inc.append(block([1.0] * 4, 0), block([1.0] * 4, 0))
        with pytest.raises(SeriesError):
            inc.append(block([1.0] * 6, 4), block([1.0] * 6, 4))

    def test_rejects_wrong_quantum(self):
        inc = IncrementalCorrelator(max_lag=5, num_blocks=2, quantum=1e-3)
        with pytest.raises(SeriesError):
            inc.append(block([1.0] * 4, 0, quantum=1.0), block([1.0] * 4, 0, quantum=1.0))

    def test_query_before_any_block(self):
        inc = IncrementalCorrelator(max_lag=5, num_blocks=2, quantum=1e-3)
        with pytest.raises(CorrelationError):
            inc.bank.normalize(np.array([0]), np.zeros(1), np.zeros((1, 1)))
