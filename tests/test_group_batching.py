"""Reference-group batching of the RLE regime changes cost, never bits.

* ``rle_batch_lag_products`` is, row for row, bitwise the one-pair scalar
  kernel it replaced (``tests/kernel_reference.py``);
* the vectorised ``_local_maxima_above`` reports the lags the scalar scan
  reported;
* a mesh engine that hands host-computed window-boundary masses to its
  correlator bank scans the correlation each row's own window masses
  give, through parking, waking, late-block invalidation replays and
  ``rewindow``;
* a refresh makes one RLE kernel call per pair slot (pending x block or
  diagonal), however many reference groups ride in it;
* no correlation series outlives its scan, and spikes are kept only on
  live rows.
"""

import gc


import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from repro.apps.mesh import build_mesh
from repro.config import PathmapConfig, TransportConfig
from repro.core import correlation, stages
from repro.core.correlation import (
    CorrelationSeries,
    rle_batch_lag_products,
    rle_lag_products,
)
from repro.core.engine import E2EProfEngine
from repro.core.incremental import block_is_quiet
from repro.core.rle import RunLengthSeries
from repro.core.spikes import _local_maxima_above
from repro.errors import CorrelationError
from repro.tracing.transport import FaultyChannel

from tests.kernel_reference import (
    boundary_mass_reference,
    local_maxima_above_reference,
    rle_lag_products_reference,
)

QUANTUM = 1e-3
SPAN = 24


def bits(array):
    return np.ascontiguousarray(array, dtype=np.float64).view(np.int64)


def assert_rows_bitwise(x, ys, max_lag):
    got = rle_batch_lag_products(x, ys, max_lag)
    assert got.shape == (len(ys), max_lag + 1)
    for row, y in enumerate(ys):
        want = rle_lag_products_reference(x, y, max_lag)
        assert np.array_equal(bits(got[row]), bits(want)), f"row {row}"


@st.composite
def run_blocks(draw, start, length=SPAN):
    """A RunLengthSeries over ``[start, start + length)`` drawn as
    alternating gaps and runs: long runs, runs touching both block ends
    and the empty block all come up."""
    starts, counts, values = [], [], []
    position = 0
    for _ in range(draw(st.integers(0, 6))):
        position += draw(st.integers(0, 5))
        if position >= length:
            break
        count = draw(st.integers(1, length - position))
        starts.append(start + position)
        counts.append(count)
        # Irrational-ish values so accumulation order shows in the bits.
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


class TestRleBatchKernel:
    @given(
        data=st.data(),
        # x is the ys' own block (diagonal), an older block (pending
        # pair), or anywhere nearby, including past the ys' window.
        x_start=st.one_of(st.just(0), st.just(-SPAN), st.integers(-3 * SPAN, 2 * SPAN)),
        rows=st.integers(1, 6),
        max_lag=st.integers(0, 3 * SPAN),
    )
    def test_rows_bitwise_equal_scalar_kernel(self, data, x_start, rows, max_lag):
        x = data.draw(run_blocks(x_start))
        ys = [data.draw(run_blocks(0)) for _ in range(rows)]
        assert_rows_bitwise(x, ys, max_lag)

    def test_empty_rows_and_empty_x(self):
        full = RunLengthSeries(
            np.array([0]), np.array([SPAN]), np.array([1.5]), 0, SPAN, QUANTUM
        )
        empty = RunLengthSeries.empty(0, SPAN, QUANTUM)
        assert_rows_bitwise(full, [empty, full, empty], 10)
        assert not rle_batch_lag_products(empty, [full, full], 10).any()
        assert not rle_batch_lag_products(full, [empty, empty], 10).any()
        assert rle_batch_lag_products(full, [], 10).shape == (0, 11)

    def test_max_lag_zero(self):
        x = RunLengthSeries(
            np.array([2, 9]), np.array([3, 4]), np.array([2.0, 0.7]), 0, SPAN, QUANTUM
        )
        y = RunLengthSeries(
            np.array([0, 10]), np.array([4, 14]), np.array([1.1, 3.0]), 0, SPAN, QUANTUM
        )
        assert_rows_bitwise(x, [y, x], 0)
        # lag 0 of x against itself is its energy
        assert rle_batch_lag_products(x, [x], 0)[0, 0] == pytest.approx(x.energy())

    def test_runs_longer_than_max_lag_touching_both_ends(self):
        wall = RunLengthSeries(
            np.array([0]), np.array([SPAN]), np.array([np.sqrt(2.0)]), 0, SPAN, QUANTUM
        )
        ends = RunLengthSeries(
            np.array([0, SPAN - 9]), np.array([9, 9]), np.array([1.3, 0.9]),
            0, SPAN, QUANTUM,
        )
        older = RunLengthSeries(
            np.array([-SPAN, -5]), np.array([7, 5]), np.array([0.6, 1.7]),
            -SPAN, SPAN, QUANTUM,
        )
        for x in (wall, ends, older):
            assert_rows_bitwise(x, [wall, ends], 4)

    def test_single_row_call_is_the_pair_kernel(self):
        x = RunLengthSeries(
            np.array([1, 8]), np.array([4, 2]), np.array([1.2, 2.2]), 0, SPAN, QUANTUM
        )
        y = RunLengthSeries(
            np.array([3, 15]), np.array([6, 9]), np.array([0.4, 1.9]), 0, SPAN, QUANTUM
        )
        want = rle_lag_products_reference(x, y, 12)
        assert np.array_equal(bits(rle_batch_lag_products(x, [y], 12)[0]), bits(want))
        assert np.array_equal(bits(rle_lag_products(x, y, 12)), bits(want))

    def test_large_groups_split_without_changing_bits(self, monkeypatch):
        rng = np.random.default_rng(3)

        def block():
            starts = np.sort(rng.choice(SPAN // 2, size=5, replace=False)) * 2
            return RunLengthSeries(
                starts, np.ones(5, dtype=np.int64), rng.random(5) + 0.1,
                0, SPAN, QUANTUM,
            )

        x, ys = block(), [block() for _ in range(7)]
        whole = rle_batch_lag_products(x, ys, SPAN)
        monkeypatch.setattr(correlation, "_PAIR_CHUNK", 8)
        assert np.array_equal(bits(rle_batch_lag_products(x, ys, SPAN)), bits(whole))

    def test_rejects_mismatched_windows_and_negative_lag(self):
        a = RunLengthSeries.empty(0, SPAN, QUANTUM)
        b = RunLengthSeries.empty(SPAN, SPAN, QUANTUM)
        with pytest.raises(CorrelationError):
            rle_batch_lag_products(a, [a, b], 3)
        with pytest.raises(CorrelationError):
            rle_batch_lag_products(a, [a], -1)


#: Small integers make ties, plateaus and threshold equality common.
levels = st.lists(st.integers(0, 4).map(float), min_size=0, max_size=24)


class TestLocalMaxima:
    @given(values=levels, threshold=st.integers(-1, 4).map(float))
    def test_matches_scalar_scan(self, values, threshold):
        array = np.array(values, dtype=np.float64)
        assert _local_maxima_above(array, threshold) == local_maxima_above_reference(
            array, threshold
        )

    @pytest.mark.parametrize(
        "values, threshold, expected",
        [
            ([3, 3, 1, 0, 2, 2, 2], 0.5, [0, 5]),  # plateaus at both ends
            ([2, 2, 2, 2], 1.0, [1]),  # all equal: one plateau, its centre
            ([2, 2, 2, 2], 2.0, []),  # threshold tie is not above
            ([0, 1, 2, 3, 4], 0.0, [4]),  # strictly increasing
            ([4, 3, 2, 1, 0], 0.0, [0]),  # strictly decreasing
            ([0, 2, 2, 3, 1], 0.0, [3]),  # a shoulder is not a maximum
            ([1, 3, 1, 3, 1], 3.0, []),
            ([5], 1.0, [0]),
            ([], 1.0, []),
        ],
    )
    def test_named_cases(self, values, threshold, expected):
        array = np.array(values, dtype=np.float64)
        assert _local_maxima_above(array, threshold) == expected
        assert local_maxima_above_reference(array, threshold) == expected


# ---------------------------------------------------------------------------
# Mesh engine: shared boundary masses, kernel call counts, spike memo
# ---------------------------------------------------------------------------

#: The mesh's analysis parameters over a shorter window, so a class
#: silent for 12 s parks and its wake still fits a quick run.
CFG = PathmapConfig(
    window=4.0,
    refresh_interval=2.0,
    quantum=1e-3,
    sampling_window=50e-3,
    max_transaction_delay=0.5,
    min_spike_height=0.10,
)
QUIET_AT = 5.0
WAKE_AT = 19.0
END = 30.0


def run_mesh(faults=False, rewindow_at=None, on_refresh=None, **kwargs):
    """Four classes over six shared backends; class M1 stops at
    ``QUIET_AT`` and issues requests again from ``WAKE_AT``. Extra
    keyword arguments go to the engine."""
    deployment = build_mesh(
        classes=4, backends=6, stores=2, fanout=2, seed=7, request_rate=10.0,
        config=CFG,
    )
    sim = deployment.topology.sim
    sim.schedule_at(QUIET_AT, deployment.workloads["M1"].stop)
    sim.schedule_at(WAKE_AT, deployment.workloads["M1"].start)
    if faults:
        kwargs.update(
            transport=TransportConfig(lateness_blocks=1),
            channel_factory=lambda node: FaultyChannel(
                seed=sum(node.encode()) * 7919 + 13, drop=0.1, delay=0.3
            ),
        )
    engine = E2EProfEngine(CFG, **kwargs)
    samples = []
    engine.subscribe_metrics(lambda now, result, sample: samples.append(sample))
    if on_refresh is not None:
        engine.subscribe(lambda now, result: on_refresh(engine, now, result))
    engine.attach(deployment.topology)
    if rewindow_at is not None:
        sim.schedule_at(rewindow_at, lambda: engine.rewindow(rewindow_at - 3.0))
    deployment.run_until(END)
    engine.close()
    return engine, samples


class TestSharedBoundaryMasses:
    @pytest.mark.parametrize("faults", [False, True], ids=["clean", "late-blocks"])
    def test_host_masses_equal_stand_alone_correlator(self, faults):
        # Subscriber exceptions are isolated by the engine: collect, then assert.
        verdicts = []

        def check(engine, now, result):
            max_lag = CFG.max_lag_quanta
            bank = engine._bank
            rows = np.flatnonzero(~np.equal(bank.spikes[: len(bank)], None))
            if not rows.size:
                return  # no row scanned since it last changed
            keys = [bank.keys[r] for r in rows]
            tails = engine._boundary_masses([ref for ref, _ in keys], True)
            heads = engine._boundary_masses([edge for _, edge in keys], False)
            hosted, _ = bank.normalize(
                rows,
                np.array([tails[ref] for ref, _ in keys]),
                np.array([heads[edge] for _, edge in keys]),
            )
            # Masses each row computes from its own windows, one at a time.
            alone, degenerate = bank.normalize(
                rows,
                np.array([
                    boundary_mass_reference(bank.x_window(ref), max_lag, newest=True)
                    for ref, _ in keys
                ]),
                np.array([
                    boundary_mass_reference(list(engine._blocks[edge]), max_lag, newest=False)
                    for _, edge in keys
                ]),
            )
            for i, row in enumerate(rows):
                series = CorrelationSeries(
                    alone[i], CFG.quantum, bank.window_length, bool(degenerate[i])
                )
                verdicts.append(
                    (
                        now,
                        keys[i],
                        np.array_equal(bits(alone[i]), bits(hosted[i]))
                        and bank.spikes[row] == engine._pathmap.scan(series),
                    )
                )

        engine, samples = run_mesh(
            faults=faults, rewindow_at=25.0 if faults else None, on_refresh=check
        )
        assert len(verdicts) > 20 * len(samples)
        assert all(ok for _, _, ok in verdicts), [v for v in verdicts if not v[2]][:3]
        # The run parked M1's correlators and woke them from history...
        parked = [s.parked_correlators for s in samples]
        woke = next(i for i, s in enumerate(samples) if s.time > WAKE_AT)
        assert max(parked[:woke]) > 0 and parked[woke] < parked[woke - 1]
        m1 = ("C1", "FE1")
        assert any(now > WAKE_AT and key[0] == m1 for now, key, _ in verdicts)
        if faults:
            # ...and replayed correlators after late blocks and a rewindow.
            assert engine._receiver.totals()["late_recovered"] > 0
            assert engine.rewindows == 1

    def test_masses_are_computed_once_per_edge_side(self, monkeypatch):
        calls = []
        real = stages.boundary_masses

        def counting(windows, max_lag, newest):
            calls.extend((newest, id(window)) for window in windows)
            return real(windows, max_lag, newest)

        monkeypatch.setattr(stages, "boundary_masses", counting)
        per_refresh = []

        def check(engine, now, result):
            sides = [newest for newest, _ in calls]
            per_refresh.append(
                (sides.count(True), sides.count(False), len(set(calls)) == len(calls),
                 result.stats.correlations, len(engine._blocks))
            )
            calls.clear()

        run_mesh(on_refresh=check)
        for tails, heads, once, correlations, edges in per_refresh[3:]:
            # One x tail per reference group (four classes), one y head
            # per signal edge -- not one of each per correlation, and no
            # (edge, side) twice.
            assert 0 < tails <= 4
            assert 0 < heads <= edges
            assert once
            assert correlations > tails + heads


class TestKernelCallsPerRefresh:
    def test_one_rle_call_per_pair_slot(self, monkeypatch):
        calls = []
        real = stages.rle_batch_lag_products

        def counting(x, ys, max_lag):
            calls.append(len(ys))
            return real(x, ys, max_lag)

        monkeypatch.setattr(stages, "rle_batch_lag_products", counting)
        reach = -(-CFG.max_lag_quanta // CFG.refresh_quanta)
        assert reach == 1
        refreshes = []

        def check(engine, now, result):
            # One call per pair slot (the pending blocks plus the
            # diagonal) where some row is loud on both sides, however
            # many rows and reference groups ride.
            keys = engine._bank.keys
            slots = {len(engine._blocks[ref]) for ref, _ in keys}
            depth = min(slots | {reach + 1})
            expected = sum(
                any(
                    not block_is_quiet(engine._blocks[edge][-1])
                    and not block_is_quiet(list(engine._blocks[ref])[-depth + k])
                    for ref, edge in keys
                )
                for k in range(depth)
            )
            groups = len({ref for ref, edge in keys if not block_is_quiet(engine._blocks[edge][-1])})
            refreshes.append(
                (len(calls), sum(calls), result.ledger.kernels["rle"].rows, expected, groups)
            )
            calls.clear()

        engine, samples = run_mesh(on_refresh=check)
        checked = 0
        for i, ((kernel_calls, rows, ledger_rows, expected, groups), sample) in enumerate(
            zip(refreshes, samples)
        ):
            assert rows == ledger_rows
            replayed = sample.cache_misses or (
                i and sample.parked_correlators < samples[i - 1].parked_correlators
            )
            if replayed:
                continue  # history replays add single-row calls
            assert kernel_calls == expected <= reach + 1
            assert rows > 5 * kernel_calls
            checked += groups > 1
        assert checked >= 10


def series_reachable_from(root):
    """Every CorrelationSeries in the object graph reachable from ``root``."""
    seen, found, stack = {id(root)}, [], [root]
    while stack:
        node = stack.pop()
        # gc does not see into object arrays (a bank's spike column).
        is_objects = isinstance(node, np.ndarray) and node.dtype == object
        for child in node.ravel().tolist() if is_objects else gc.get_referents(node):
            if id(child) in seen or isinstance(child, type):
                continue
            seen.add(id(child))
            if isinstance(child, CorrelationSeries):
                found.append(child)
            stack.append(child)
    return found


class TestSeriesLifetime:
    def test_no_series_reachable_spikes_on_live_rows(self):
        verdicts = []

        def check(engine, now, result):
            bank = engine._bank
            n = len(bank)
            live = set(bank.keys)
            kept = {bank.keys[row] for row in range(n) if bank.spikes[row] is not None}
            # Spare capacity past the live rows holds no scan result.
            spares = list(bank.spikes[n:])
            verdicts.append(
                (
                    now,
                    bool(kept)
                    and kept <= live
                    and not live & engine._parked
                    and all(isinstance(s, int) for s in spares),
                    len(series_reachable_from(engine)),
                )
            )

        engine, samples = run_mesh(faults=True, rewindow_at=25.0, on_refresh=check)
        assert len(verdicts) == len(samples)
        assert all(ok and not series for _, ok, series in verdicts), verdicts
        assert max(s.parked_correlators for s in samples) > 0
        assert engine._receiver.totals()["late_recovered"] > 0
        # Dropping the remaining correlators empties the bank.
        engine._drop_correlators(list(engine._bank.keys))
        assert not len(engine._bank) and not engine._bank.rows
