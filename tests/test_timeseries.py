"""Unit and property tests for density time series (paper Section 3.5)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.timeseries import (
    DensityTimeSeries,
    aligned_windows,
    build_density_rows,
    build_density_series,
    quantize_timestamps,
)
from repro.errors import SeriesError


def series_from(dense, start=0, quantum=1e-3):
    return DensityTimeSeries.from_dense(dense, start, quantum)


class TestConstruction:
    def test_from_dense_drops_zeros(self):
        s = series_from([0.0, 2.0, 0.0, 1.0])
        assert s.nnz == 2
        assert list(s.indices) == [1, 3]
        assert list(s.values) == [2.0, 1.0]
        assert s.length == 4

    def test_from_dense_rejects_negative(self):
        with pytest.raises(SeriesError):
            series_from([1.0, -0.5])

    def test_from_pairs_sorts_and_drops_zeros(self):
        s = DensityTimeSeries.from_pairs([(5, 1.0), (2, 3.0), (7, 0.0)], 0, 10, 1e-3)
        assert list(s.indices) == [2, 5]
        assert list(s.values) == [3.0, 1.0]

    def test_rejects_unsorted_indices(self):
        with pytest.raises(SeriesError):
            DensityTimeSeries([3, 2], [1.0, 1.0], 0, 10, 1e-3)

    def test_rejects_duplicate_indices(self):
        with pytest.raises(SeriesError):
            DensityTimeSeries([2, 2], [1.0, 1.0], 0, 10, 1e-3)

    def test_rejects_indices_outside_window(self):
        with pytest.raises(SeriesError):
            DensityTimeSeries([10], [1.0], 0, 10, 1e-3)
        with pytest.raises(SeriesError):
            DensityTimeSeries([-1], [1.0], 0, 10, 1e-3)

    def test_rejects_non_positive_values(self):
        with pytest.raises(SeriesError):
            DensityTimeSeries([1], [0.0], 0, 10, 1e-3)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(SeriesError):
            DensityTimeSeries([1, 2], [1.0], 0, 10, 1e-3)

    def test_rejects_bad_quantum(self):
        with pytest.raises(SeriesError):
            DensityTimeSeries.empty(0, 10, 0.0)

    def test_empty(self):
        s = DensityTimeSeries.empty(5, 10, 1e-3)
        assert s.nnz == 0
        assert len(s) == 10
        assert s.total() == 0.0


class TestTrustedConstructor:
    """``_from_validated`` is for concatenations of blocks this process
    already validated; everything else still goes through ``__init__``."""

    BAD = [
        ([3, 2], [1.0, 1.0]),  # unsorted
        ([2, 2], [1.0, 1.0]),  # duplicate
        ([10], [1.0]),  # outside the window
        ([1], [0.0]),  # non-positive
    ]

    @pytest.mark.parametrize("indices, values", BAD)
    def test_public_constructor_validates_what_the_trusted_one_skips(
        self, indices, values
    ):
        indices = np.array(indices, dtype=np.int64)
        values = np.array(values, dtype=np.float64)
        with pytest.raises(SeriesError):
            DensityTimeSeries(indices, values, 0, 10, 1e-3)
        trusted = DensityTimeSeries._from_validated(indices, values, 0, 10, 1e-3)
        assert trusted.indices is indices and trusted.values is values

    def test_trusted_series_equal_validated_ones(self):
        s = series_from([0.0, 2.0, 0.0, 1.0], start=4)
        trusted = DensityTimeSeries._from_validated(
            s.indices, s.values, s.start, s.length, s.quantum
        )
        assert trusted == s
        assert (trusted.total(), trusted.energy()) == (s.total(), s.energy())

    def test_only_block_expansion_and_block_concatenation_use_it(self):
        """The wire decoder, the collector, the tracer, the capture
        readers and every public helper build series from data that
        crossed a process or API boundary: none of them may skip
        validation."""
        import pathlib

        import repro

        root = pathlib.Path(repro.__file__).parent
        users = {
            str(path.relative_to(root))
            for path in root.rglob("*.py")
            if "DensityTimeSeries._from_validated(" in path.read_text(encoding="utf-8")
        }
        assert users == {"core/rle.py", "core/incremental.py"}

    def test_outside_data_is_still_rejected(self):
        from repro.core.rle import RunLengthSeries

        # A run-length block -- the one thing to_sparse() trusts -- cannot
        # be built with overlapping, empty or non-positive runs.
        for starts, counts, values in (
            ([0, 2], [3, 1], [1.0, 1.0]),
            ([0], [0], [1.0]),
            ([0], [1], [-1.0]),
            ([9], [2], [1.0]),
        ):
            with pytest.raises(SeriesError):
                RunLengthSeries(
                    np.array(starts), np.array(counts), np.array(values), 0, 10, 1e-3
                )


class TestStatistics:
    def test_mean_includes_zeros(self):
        s = series_from([0.0, 4.0, 0.0, 0.0])
        assert s.mean() == 1.0

    def test_variance_matches_numpy(self):
        dense = np.array([0.0, 1.0, 3.0, 0.0, 2.0])
        s = series_from(dense)
        assert s.variance() == pytest.approx(dense.var())
        assert s.std() == pytest.approx(dense.std())

    def test_energy(self):
        s = series_from([0.0, 2.0, 3.0])
        assert s.energy() == 13.0

    def test_compression_factor(self):
        s = series_from([0.0] * 9 + [1.0])
        assert s.compression_factor() == 10.0

    def test_compression_factor_empty(self):
        assert DensityTimeSeries.empty(0, 10, 1e-3).compression_factor() == 10.0


class TestTransformations:
    def test_dense_roundtrip(self):
        dense = np.array([0.0, 1.5, 0.0, 2.0, 0.0])
        s = series_from(dense)
        assert np.array_equal(s.to_dense(), dense)

    def test_shifted(self):
        s = series_from([1.0, 0.0, 2.0], start=10)
        t = s.shifted(5)
        assert t.start == 15
        assert list(t.indices) == [15, 17]
        assert np.array_equal(t.to_dense(), s.to_dense())

    def test_restricted_interior(self):
        s = series_from([1.0, 2.0, 3.0, 4.0], start=0)
        r = s.restricted(1, 2)
        assert np.array_equal(r.to_dense(), [2.0, 3.0])

    def test_restricted_beyond_window(self):
        s = series_from([1.0, 2.0], start=0)
        r = s.restricted(1, 5)
        assert r.length == 5
        assert np.array_equal(r.to_dense(), [2.0, 0, 0, 0, 0])

    def test_concatenated(self):
        a = series_from([1.0, 0.0], start=0)
        b = series_from([0.0, 2.0], start=2)
        c = a.concatenated(b)
        assert np.array_equal(c.to_dense(), [1.0, 0.0, 0.0, 2.0])

    def test_concatenated_rejects_gap(self):
        a = series_from([1.0], start=0)
        b = series_from([1.0], start=5)
        with pytest.raises(SeriesError):
            a.concatenated(b)

    def test_concatenated_rejects_quantum_mismatch(self):
        a = series_from([1.0], start=0, quantum=1e-3)
        b = series_from([1.0], start=1, quantum=2e-3)
        with pytest.raises(SeriesError):
            a.concatenated(b)

    def test_scaled(self):
        s = series_from([2.0, 0.0, 4.0])
        t = s.scaled(0.5)
        assert np.array_equal(t.to_dense(), [1.0, 0.0, 2.0])

    def test_scaled_rejects_non_positive(self):
        with pytest.raises(SeriesError):
            series_from([1.0]).scaled(0.0)

    def test_equality(self):
        a = series_from([1.0, 0.0, 2.0])
        b = series_from([1.0, 0.0, 2.0])
        c = series_from([1.0, 0.0, 3.0])
        assert a == b
        assert a != c


class TestQuantize:
    def test_basic(self):
        idx = quantize_timestamps([0.0, 0.0015, 0.0029], 1e-3)
        assert list(idx) == [0, 1, 2]

    def test_origin_shift(self):
        idx = quantize_timestamps([1.0015], 1e-3, origin=1.0)
        assert list(idx) == [1]

    def test_negative_before_origin(self):
        idx = quantize_timestamps([0.5], 1e-3, origin=1.0)
        assert idx[0] < 0

    def test_rejects_bad_quantum(self):
        with pytest.raises(SeriesError):
            quantize_timestamps([1.0], 0.0)


class TestDensityFunction:
    def test_point_burst_sqrt_and_width(self):
        # 9 messages at one instant: sqrt(9)=3 over one sampling window.
        s = build_density_series([1.0] * 9, 1e-3, 50, 0, 2000)
        dense = s.to_dense()
        assert dense.max() == 3.0
        assert (dense > 0).sum() == 50

    def test_no_sampling_window(self):
        s = build_density_series([0.0105], 1e-3, 1, 0, 20)
        dense = s.to_dense()
        assert dense[10] == 1.0
        assert (dense > 0).sum() == 1

    def test_messages_outside_window_near_boundary_contribute(self):
        # A message just before the window start still falls inside the
        # boxcar of the first quanta.
        s = build_density_series([0.999], 1e-3, 50, 1000, 100)
        assert s.nnz > 0

    def test_messages_far_outside_window_ignored(self):
        s = build_density_series([0.5], 1e-3, 50, 1000, 100)
        assert s.nnz == 0

    def test_empty_window(self):
        s = build_density_series([1.0], 1e-3, 50, 0, 0)
        assert len(s) == 0

    def test_rejects_bad_sampling(self):
        with pytest.raises(SeriesError):
            build_density_series([1.0], 1e-3, 0, 0, 10)

    def test_rejects_negative_length(self):
        with pytest.raises(SeriesError):
            build_density_series([1.0], 1e-3, 1, 0, -1)

    def test_mass_conservation_interior(self):
        # Away from boundaries, sum of squared densities == count * omega.
        rng = np.random.default_rng(0)
        stamps = rng.uniform(0.5, 1.5, 200)
        s = build_density_series(stamps, 1e-3, 50, 0, 2000)
        assert s.energy() == pytest.approx(200 * 50)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=40),
        st.integers(min_value=1, max_value=7),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_definition(self, stamps, omega_quanta):
        """d(i) == sqrt(#messages within the centred boxcar), always."""
        tau = 0.01
        length = 110
        s = build_density_series(stamps, tau, omega_quanta, 0, length)
        dense = s.to_dense()
        idx = np.floor(np.array(stamps) / tau).astype(int) if stamps else np.array([], int)
        half_lo = omega_quanta // 2
        half_hi = omega_quanta - half_lo - 1
        for i in range(length):
            count = int(((idx >= i - half_lo) & (idx <= i + half_hi)).sum())
            assert dense[i] == pytest.approx(np.sqrt(count))


class TestDensityRows:
    """``build_density_rows`` is ``build_density_series`` per row, bit for bit."""

    @staticmethod
    def per_row(edges, tau, omega_quanta, start, length):
        return np.array(
            [
                build_density_series(stamps, tau, omega_quanta, start, length).to_dense()
                for stamps in edges
            ]
        ).reshape(len(edges), length)

    @staticmethod
    def batched(edges, tau, omega_quanta, start, length):
        stamps = np.concatenate([np.asarray(e, dtype=np.float64) for e in edges])
        rows = np.repeat(np.arange(len(edges)), [len(e) for e in edges])
        return build_density_rows(stamps, rows, len(edges), tau, omega_quanta, start, length)

    @given(
        edges=st.lists(
            # Includes empty edges and stamps on both sides of the window.
            st.lists(st.floats(min_value=-0.2, max_value=1.2), max_size=60),
            min_size=1,
            max_size=6,
        ),
        omega_quanta=st.sampled_from([1, 5, 50]),
        tau=st.sampled_from([1e-3, 4e-3]),
        start=st.integers(0, 120),
        length=st.integers(0, 150),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_per_edge_series(self, edges, omega_quanta, tau, start, length):
        expected = self.per_row(edges, tau, omega_quanta, start, length)
        got = self.batched(edges, tau, omega_quanta, start, length)
        assert got.shape == (len(edges), length)
        assert got.dtype == np.float64
        assert np.array_equal(got, expected)

    def test_interleaved_rows_and_unsorted_stamps(self):
        stamps = np.array([0.031, 0.002, 0.030, 0.0021, 0.090, 0.031])
        rows = np.array([1, 0, 1, 0, 2, 0])
        got = build_density_rows(stamps, rows, 4, 1e-3, 5, 0, 100)
        for row in range(4):
            expected = build_density_series(stamps[rows == row], 1e-3, 5, 0, 100)
            assert np.array_equal(got[row], expected.to_dense())
        assert not got[3].any()

    def test_zero_length_window_and_no_rows(self):
        stamps, rows = np.array([0.5]), np.array([0])
        assert build_density_rows(stamps, rows, 1, 1e-3, 5, 10, 0).shape == (1, 0)
        assert build_density_rows(stamps[:0], rows[:0], 0, 1e-3, 5, 10, 7).shape == (0, 7)

    def test_all_stamps_outside_the_window(self):
        stamps, rows = np.array([0.0, 9.0]), np.array([0, 1])
        assert not build_density_rows(stamps, rows, 2, 1e-3, 50, 1000, 500).any()

    def test_rejects_bad_parameters(self):
        with pytest.raises(SeriesError):
            build_density_rows(np.array([0.1]), np.array([0]), 1, 1e-3, 0, 0, 10)
        with pytest.raises(SeriesError):
            build_density_rows(np.array([0.1]), np.array([0]), 1, 1e-3, 5, 0, -1)


class TestAlignedWindows:
    def test_overlap(self):
        a = series_from([1.0] * 5, start=0)
        b = series_from([1.0] * 5, start=3)
        ra, rb = aligned_windows(a, b)
        assert ra.start == rb.start == 3
        assert ra.length == rb.length == 2

    def test_no_overlap_raises(self):
        a = series_from([1.0], start=0)
        b = series_from([1.0], start=10)
        with pytest.raises(SeriesError):
            aligned_windows(a, b)

    def test_quantum_mismatch_raises(self):
        a = series_from([1.0], start=0, quantum=1e-3)
        b = series_from([1.0], start=0, quantum=1.0)
        with pytest.raises(SeriesError):
            aligned_windows(a, b)
