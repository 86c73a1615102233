"""Unit and property tests for run-length encoded series (Section 3.5)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rle import (
    Run,
    RunLengthSeries,
    rle_decode,
    rle_encode,
    rle_encode_rows,
)
from repro.core.timeseries import DensityTimeSeries
from repro.errors import SeriesError


def sparse_from(dense, start=0, quantum=1e-3):
    return DensityTimeSeries.from_dense(dense, start, quantum)


# Dense arrays with few distinct values, so runs actually occur.
dense_arrays = st.lists(
    st.sampled_from([0.0, 0.0, 1.0, 1.0, 2.0]), min_size=0, max_size=60
)


class TestRun:
    def test_rejects_bad_count(self):
        with pytest.raises(SeriesError):
            Run(0, 0, 1.0)

    def test_rejects_bad_value(self):
        with pytest.raises(SeriesError):
            Run(0, 1, 0.0)

    def test_end(self):
        assert Run(3, 4, 1.0).end == 7


class TestEncodeDecode:
    def test_simple_runs(self):
        s = sparse_from([1.0, 1.0, 1.0, 0.0, 2.0, 2.0])
        r = rle_encode(s)
        assert r.num_runs == 2
        runs = list(r)
        assert runs[0] == Run(0, 3, 1.0)
        assert runs[1] == Run(4, 2, 2.0)

    def test_value_change_breaks_run(self):
        s = sparse_from([1.0, 2.0, 1.0])
        r = rle_encode(s)
        assert r.num_runs == 3

    def test_gap_breaks_run(self):
        s = sparse_from([1.0, 0.0, 1.0])
        r = rle_encode(s)
        assert r.num_runs == 2

    def test_empty(self):
        s = DensityTimeSeries.empty(3, 10, 1e-3)
        r = rle_encode(s)
        assert r.num_runs == 0
        assert rle_decode(r) == s

    def test_lossy_tolerance(self):
        s = sparse_from([1.0, 1.05, 2.0])
        r = rle_encode(s, value_tolerance=0.1)
        assert r.num_runs == 2  # first two merge, storing the first value
        assert r.to_dense()[1] == 1.0

    @given(dense_arrays, st.integers(min_value=-5, max_value=5))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_is_exact(self, dense, start):
        s = DensityTimeSeries.from_dense(dense, start, 1e-3)
        r = rle_encode(s)
        assert rle_decode(r) == s

    @given(dense_arrays)
    @settings(max_examples=60, deadline=None)
    def test_statistics_match_sparse(self, dense):
        s = DensityTimeSeries.from_dense(dense, 0, 1e-3)
        r = rle_encode(s)
        assert r.total() == pytest.approx(s.total())
        assert r.energy() == pytest.approx(s.energy())
        assert r.mean() == pytest.approx(s.mean())
        assert r.variance() == pytest.approx(s.variance())
        assert r.nnz == s.nnz

    @given(dense_arrays)
    @settings(max_examples=60, deadline=None)
    def test_runs_are_maximal(self, dense):
        s = DensityTimeSeries.from_dense(dense, 0, 1e-3)
        runs = list(rle_encode(s))
        for a, b in zip(runs, runs[1:]):
            # Adjacent runs either have a gap or different values.
            assert b.start > a.end or a.value != b.value


class TestValidation:
    def test_rejects_overlapping_runs(self):
        with pytest.raises(SeriesError):
            RunLengthSeries([0, 2], [3, 2], [1.0, 1.0], 0, 10, 1e-3)

    def test_rejects_out_of_window(self):
        with pytest.raises(SeriesError):
            RunLengthSeries([8], [4], [1.0], 0, 10, 1e-3)

    def test_rejects_bad_values(self):
        with pytest.raises(SeriesError):
            RunLengthSeries([0], [2], [0.0], 0, 10, 1e-3)

    def test_rejects_bad_counts(self):
        with pytest.raises(SeriesError):
            RunLengthSeries([0], [0], [1.0], 0, 10, 1e-3)

    def test_adjacent_equal_value_runs_allowed_but_not_produced(self):
        # Validity does not require maximality (encode produces maximal).
        r = RunLengthSeries([0, 2], [2, 2], [1.0, 1.0], 0, 10, 1e-3)
        assert r.num_runs == 2


    def test_nan_value_rejected(self):
        with pytest.raises(SeriesError):
            RunLengthSeries([0], [2], [float("nan")], 0, 10, 1e-3)


class TestEncodeRows:
    """``rle_encode_rows`` is ``rle_encode`` per row, bit for bit."""

    @given(
        grid=st.lists(
            st.lists(st.sampled_from([0.0, 0.0, 1.0, 1.0, 2.0]), min_size=7, max_size=7),
            min_size=0,
            max_size=6,
        ),
        start=st.integers(-50, 50),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_per_row_encode(self, grid, start):
        dense = np.array(grid, dtype=np.float64).reshape(len(grid), 7)
        blocks = rle_encode_rows(dense, start, 1e-3)
        assert blocks == [rle_encode(sparse_from(row, start)) for row in dense]
        for block in blocks:
            # Validated by construction: the public constructor agrees.
            RunLengthSeries(
                block.starts, block.counts, block.values, block.start, block.length, 1e-3
            )

    def test_runs_never_span_rows(self):
        # Row 0 ends and row 1 begins with the same value.
        blocks = rle_encode_rows(np.array([[0.0, 2.0, 2.0], [2.0, 2.0, 0.0]]), 10, 1e-3)
        assert [list(b) for b in blocks] == [[Run(11, 2, 2.0)], [Run(10, 2, 2.0)]]

    def test_zero_length_rows(self):
        blocks = rle_encode_rows(np.zeros((3, 0)), 5, 1e-3)
        assert blocks == [RunLengthSeries.empty(5, 0, 1e-3)] * 3

    def test_rejects_negative_nan_and_wrong_rank(self):
        with pytest.raises(SeriesError):
            rle_encode_rows(np.array([[1.0, -1.0]]), 0, 1e-3)
        with pytest.raises(SeriesError):
            rle_encode_rows(np.array([[1.0, np.nan]]), 0, 1e-3)
        with pytest.raises(SeriesError):
            rle_encode_rows(np.array([1.0, 2.0]), 0, 1e-3)


class TestOperations:
    def test_restricted_splits_runs(self):
        s = sparse_from([1.0] * 6)
        r = rle_encode(s).restricted(2, 2)
        assert r.num_runs == 1
        assert list(r)[0] == Run(2, 2, 1.0)

    def test_restricted_empty_region(self):
        r = rle_encode(sparse_from([1.0, 1.0])).restricted(5, 3)
        assert r.num_runs == 0
        assert r.length == 3

    def test_shifted(self):
        r = rle_encode(sparse_from([1.0, 1.0], start=4)).shifted(10)
        assert list(r)[0].start == 14
        assert r.start == 14

    def test_concatenated_merges_boundary_run(self):
        a = rle_encode(sparse_from([1.0, 1.0], start=0))
        b = rle_encode(sparse_from([1.0, 2.0], start=2))
        c = a.concatenated(b)
        assert c.num_runs == 2
        assert list(c)[0] == Run(0, 3, 1.0)

    def test_concatenated_rejects_gap(self):
        a = rle_encode(sparse_from([1.0], start=0))
        b = rle_encode(sparse_from([1.0], start=5))
        with pytest.raises(SeriesError):
            a.concatenated(b)

    def test_compression_factors(self):
        s = sparse_from([1.0] * 10 + [0.0] * 90)
        r = rle_encode(s)
        assert r.compression_factor() == 10.0  # r: nnz per run
        assert r.overall_compression() == 100.0  # k*r: quanta per run

    def test_to_dense(self):
        dense = [0.0, 1.0, 1.0, 0.0, 3.0]
        r = rle_encode(sparse_from(dense))
        assert np.array_equal(r.to_dense(), dense)

    @given(
        st.lists(st.sampled_from([0.0, 0.0, 1.0, 1.0, 2.0]), max_size=60),
        st.integers(-100, 100),
    )
    def test_to_sparse_expands_every_run(self, dense, start):
        sparse = sparse_from(dense, start)
        expanded = rle_encode(sparse).to_sparse()
        assert expanded == sparse
        assert expanded.indices.dtype == np.int64

    @given(
        st.lists(st.sampled_from([0.0, 1.0, 1.0, 2.0]), max_size=40),
        st.integers(-10, 50),
        st.integers(0, 50),
    )
    def test_restricted_matches_sparse_restriction(self, dense, start, length):
        sparse = sparse_from(dense)
        restricted = rle_encode(sparse).restricted(start, length)
        assert restricted.to_sparse() == sparse.restricted(start, length)
