"""Incremental cross-correlation over a sliding window (paper Section 3.4).

The paper's second optimization: "direct cross-correlation is incremental
... it can be computed over only the newly appended trace of size dW."

The sliding window of ``W = m * dW`` is kept as a deque of ``m`` blocks of
``dW`` worth of quanta each. For each ordered pair of blocks whose quanta
can be at most ``max_lag`` apart, the raw lag-product vector
``S[d] = sum x[i] * y[i + d]`` is computed once and cached. Appending a new
block therefore only computes the pair products that involve the new block
(a constant amount of work per refresh, which is why the 'incremental'
curve in Figure 9 is flat in ``W``), and evicting the oldest block
subtracts its cached vectors.

The result is *exactly* equal (to floating-point accumulation error) to
running :func:`repro.core.correlation.correlate_sparse` over the full
concatenated window, which is the invariant the test suite checks.

Two steady-state optimizations keep quiet edges nearly free (paper
Section 3.5): pair products against an empty block are skipped outright
(their contribution is identically zero), and
:meth:`IncrementalCorrelator.correlation` caches its result behind a
dirty flag so an unchanged correlator re-serves the same
``CorrelationSeries`` object. ``append`` also accepts externally computed
``pair_vectors`` so the engine can feed many correlators that share one
reference edge from a single :func:`~repro.core.correlation.batch_lag_products`
pass (see ``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

import collections
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.registry import MetricsRegistry

from repro.core.correlation import (
    CorrelationSeries,
    _normalize,
    _sparse_prefix_mass,
    rle_lag_products,
    sparse_lag_products,
)
from repro.core.rle import RunLengthSeries
from repro.core.timeseries import DensityTimeSeries
from repro.errors import CorrelationError, SeriesError

Block = Union[DensityTimeSeries, RunLengthSeries]


def _pair_products(x: Block, y: Block, max_lag: int) -> np.ndarray:
    """Raw lag products between two blocks, picking the right kernel."""
    if isinstance(x, RunLengthSeries) and isinstance(y, RunLengthSeries):
        return rle_lag_products(x, y, max_lag)
    xs = x.to_sparse() if isinstance(x, RunLengthSeries) else x
    ys = y.to_sparse() if isinstance(y, RunLengthSeries) else y
    return sparse_lag_products(xs, ys, max_lag)


def block_is_quiet(block: Block) -> bool:
    """True when the block carries no samples (its lag products with any
    other block are identically zero)."""
    if isinstance(block, RunLengthSeries):
        return block.num_runs == 0
    return block.nnz == 0


def _concat_blocks(blocks: Sequence[Block], quantum: float) -> DensityTimeSeries:
    """Adjacent, already-validated blocks as one sparse series."""
    sparse = [b.to_sparse() if isinstance(b, RunLengthSeries) else b for b in blocks]
    if not sparse:
        return DensityTimeSeries.empty(0, 0, quantum)
    return DensityTimeSeries._from_validated(
        np.concatenate([s.indices for s in sparse]),
        np.concatenate([s.values for s in sparse]),
        sparse[0].start,
        sum(s.length for s in sparse),
        quantum,
    )


def boundary_mass(blocks: Sequence[Block], max_lag: int, newest: bool) -> np.ndarray:
    """Mass of the last (``newest``) or first ``d`` quanta of a window.

    One entry per ``d = 0..min(max_lag, n - 1)``, ``n`` being the quanta
    ``blocks`` cover.

    These are the boundary terms of ``_normalize``: ``x_prefix(d)`` is the
    x total minus the tail mass, ``y_suffix(d)`` the y total minus the
    head mass. Each is a pure function of one edge's blocks, so a host
    running many correlators over one aligned block history computes it
    once per (edge, side) and hands it to
    :meth:`IncrementalCorrelator.correlation`.
    """
    d_max = min(max_lag, sum(block.length for block in blocks) - 1)
    lags = np.arange(d_max + 1, dtype=np.int64)
    # Just enough blocks from that end of the window to cover d_max quanta.
    picked = []
    covered = 0
    for block in reversed(blocks) if newest else blocks:
        picked.append(block)
        covered += block.length
        if covered >= d_max:
            break
    if newest:
        picked.reverse()
    edge = _concat_blocks(picked, picked[0].quantum)
    if newest:
        return edge.total() - _sparse_prefix_mass(edge, covered - lags)
    return _sparse_prefix_mass(edge, lags)


class IncrementalCorrelator:
    """Maintains ``corr(x, y)`` over a sliding window of blocks.

    Parameters
    ----------
    max_lag:
        Lag bound in quanta (``T_u / tau``).
    num_blocks:
        ``m = W / dW`` -- how many refresh intervals make up the window.
    quantum:
        Quantum duration in seconds.
    metrics:
        Optional :class:`~repro.obs.registry.MetricsRegistry` receiving
        ``correlator_pair_products_total`` (block-pair lag-product vectors
        actually computed), ``correlator_skips_total`` (pair products
        skipped because one side was quiet),
        ``correlator_correlations_served_total`` (queries answered from
        the cached aggregates), ``correlation_cache_hits_total``
        (queries served from the dirty-flag result cache),
        ``correlator_evictions_total`` and the ``correlator_window_blocks``
        gauge. Many correlators may share one registry; the counters
        aggregate across them.

    :meth:`correlation` re-serves the *same* ``CorrelationSeries`` object
    until an append changes the answer: callers must not mutate a
    returned series in place.

    Usage::

        corr = IncrementalCorrelator(max_lag=60_000, num_blocks=3, quantum=1e-3)
        for x_block, y_block in stream:   # each spanning dW quanta
            corr.append(x_block, y_block)
            series = corr.correlation()
    """

    SKIPS_COUNTER = (  # hosts add their parked correlators' skips to it
        "correlator_skips_total",
        "Block-pair lag products skipped because one side was quiet",
    )

    def __init__(
        self,
        max_lag: int,
        num_blocks: int,
        quantum: float,
        metrics: Optional["MetricsRegistry"] = None,
        evict_hook: Optional[
            "collections.abc.Callable[[Block, Block, Optional[np.ndarray]], None]"
        ] = None,
    ) -> None:
        if max_lag < 0:
            raise CorrelationError(f"max_lag must be non-negative, got {max_lag}")
        if num_blocks < 1:
            raise CorrelationError(f"num_blocks must be >= 1, got {num_blocks}")
        if quantum <= 0:
            raise CorrelationError(f"quantum must be positive, got {quantum}")
        self.max_lag = int(max_lag)
        self.num_blocks = int(num_blocks)
        self.quantum = float(quantum)
        self._x_blocks: Deque[Tuple[int, Block]] = collections.deque()
        self._y_blocks: Deque[Tuple[int, Block]] = collections.deque()
        self._next_block_id = 0
        self._block_quanta: Optional[int] = None
        # Aggregate lag products over all live block pairs.
        self._lag_products = np.zeros(self.max_lag + 1, dtype=np.float64)
        # Cache of per-pair vectors, keyed by (x block id, y block id),
        # needed to subtract a block's contributions on eviction.
        self._pair_cache: Dict[Tuple[int, int], np.ndarray] = {}
        # Running window statistics, maintained on append/evict so that
        # normalization never needs the full window (what keeps the
        # per-refresh cost flat in W -- Figure 9's 'incremental' curve).
        self._x_total = 0.0
        self._x_energy = 0.0
        self._y_total = 0.0
        self._y_energy = 0.0
        # Eviction callback: called as hook(old_x, old_y, contribution)
        # whenever a block pair leaves the window, where contribution is
        # the summed lag-product vector being subtracted (None when the
        # evicted pair contributed identically zero).  The engine uses it
        # to materialize correlation summaries into the trace lake.
        self._evict_hook = evict_hook
        # Dirty-flag result cache: when an append provably leaves the
        # normalized correlation unchanged (see append()), _dirty stays
        # False and correlation() re-serves _corr_cache as-is.
        self._dirty = True
        self._corr_cache: Optional[CorrelationSeries] = None
        if metrics is not None:
            self._m_pairs = metrics.counter(
                "correlator_pair_products_total",
                "Block-pair lag-product vectors computed (not served from cache)",
            )
            self._m_served = metrics.counter(
                "correlator_correlations_served_total",
                "Correlation queries answered from cached lag-product aggregates",
            )
            self._m_evictions = metrics.counter(
                "correlator_evictions_total",
                "Blocks evicted from sliding correlator windows",
            )
            self._m_depth = metrics.gauge(
                "correlator_window_blocks",
                "Window depth (blocks) of the most recently updated correlator",
            )
            self._m_skips = metrics.counter(*self.SKIPS_COUNTER)
            self._m_cache_hits = metrics.counter(
                "correlation_cache_hits_total",
                "Correlation queries served from the dirty-flag result cache",
            )
        else:
            self._m_pairs = None
            self._m_served = None
            self._m_evictions = None
            self._m_depth = None
            self._m_skips = None
            self._m_cache_hits = None

    # -- bookkeeping ---------------------------------------------------------

    @property
    def window_start(self) -> Optional[int]:
        """Absolute quantum index of the start of the current window."""
        if not self._x_blocks:
            return None
        return self._x_blocks[0][1].start

    @property
    def window_length(self) -> int:
        """Number of quanta currently in the window."""
        return sum(block.length for _, block in self._x_blocks)

    @property
    def block_reach(self) -> int:
        """How many blocks back a lag of ``max_lag`` can reach."""
        if self._block_quanta is None:
            return 0
        return (self.max_lag + self._block_quanta - 1) // self._block_quanta

    @property
    def dormant(self) -> bool:
        """True once a full window is quiet on both sides with nothing
        cached: the state is then a pure function of the window position,
        so the host parks the correlator -- drops it and replays it from
        block history when an edge wakes (:mod:`repro.core.stages`)."""
        return (
            len(self._x_blocks) == self.num_blocks
            and not self._pair_cache
            and all(block_is_quiet(b) for _, b in self._x_blocks)
            and all(block_is_quiet(b) for _, b in self._y_blocks)
        )

    def _validate_block(self, block: Block) -> None:
        if block.quantum != self.quantum:
            raise SeriesError(
                f"block quantum {block.quantum} != correlator quantum {self.quantum}"
            )
        if self._block_quanta is None:
            if block.length < 1:
                raise SeriesError("blocks must span at least one quantum")
            self._block_quanta = block.length
        elif block.length != self._block_quanta:
            raise SeriesError(
                f"block length {block.length} != established block length "
                f"{self._block_quanta}"
            )
        if self._x_blocks:
            expected = self._x_blocks[-1][1].end
            if block.start != expected:
                raise SeriesError(
                    f"blocks must be adjacent: expected start {expected}, got {block.start}"
                )

    # -- the sliding-window protocol ------------------------------------------

    def pending_pair_blocks(self) -> List[Block]:
        """The live x blocks that will pair with the next appended block
        (window order, excluding the diagonal pair).

        The engine's reference-grouped batch append uses this to assemble
        the shared x side of one :func:`~repro.core.correlation.batch_lag_products`
        call per pending block.
        """
        reach = self.block_reach
        if reach <= 0 or not self._x_blocks:
            return []
        return [block for _, block in self._x_blocks][-reach:]

    def _result_preserved(self, x_block: Block, y_block: Block) -> bool:
        """Whether appending (x_block, y_block) provably leaves the
        normalized correlation value-identical (checked *before* the
        window slides).

        The window sums are unchanged exactly when the appended and
        evicted blocks are all quiet, but the boundary mass corrections
        (``x_prefix``/``y_suffix`` in ``_normalize``) also slide with the
        window: they stay identical only if the old window's last
        ``max_lag`` quanta of x and the new window's first ``max_lag``
        quanta of y are quiet too (checked conservatively at block
        granularity).
        """
        if self._dirty or self._corr_cache is None:
            return False
        if len(self._x_blocks) != self.num_blocks:
            return False
        if not (block_is_quiet(x_block) and block_is_quiet(y_block)):
            return False
        # The eviction that this append triggers must remove quiet blocks.
        if not (
            block_is_quiet(self._x_blocks[0][1])
            and block_is_quiet(self._y_blocks[0][1])
        ):
            return False
        reach = min(self.block_reach, len(self._x_blocks))
        if reach == 0:
            return True
        x_blocks = [block for _, block in self._x_blocks]
        y_blocks = [block for _, block in self._y_blocks]
        tail_quiet = all(block_is_quiet(b) for b in x_blocks[-reach:])
        head_quiet = all(block_is_quiet(b) for b in y_blocks[1 : 1 + reach])
        return tail_quiet and head_quiet

    def append(
        self,
        x_block: Block,
        y_block: Block,
        pair_vectors: Optional[Sequence[Optional[np.ndarray]]] = None,
    ) -> int:
        """Slide the window forward by one block (one refresh interval).

        ``x_block`` and ``y_block`` must cover the same quantum range, be
        adjacent to the previously appended blocks, and all blocks must have
        equal length.

        ``pair_vectors`` optionally injects precomputed lag-product vectors
        (e.g. from :func:`~repro.core.correlation.batch_lag_products`): one
        entry per :meth:`pending_pair_blocks` block plus a final entry for
        the diagonal ``(x_block, y_block)`` pair, where ``None`` marks an
        identically-zero vector that should be skipped outright.

        Returns the number of pair products skipped (0 when every pair was
        computed or injected).
        """
        if (
            x_block.start != y_block.start
            or x_block.length != y_block.length
            or x_block.quantum != y_block.quantum
        ):
            raise SeriesError("x and y blocks must cover the same window")
        self._validate_block(x_block)
        preserved = self._result_preserved(x_block, y_block)

        block_id = self._next_block_id
        self._next_block_id += 1

        # New pairs: (x_p, y_new) for every live x block p within lag reach
        # (older x blocks cannot reach the new y quanta within max_lag).
        reach = self.block_reach
        pending = [
            (p_id, p_block)
            for p_id, p_block in self._x_blocks
            if block_id - p_id <= reach
        ]
        if pair_vectors is not None and len(pair_vectors) != len(pending) + 1:
            raise CorrelationError(
                f"pair_vectors must have {len(pending) + 1} entries "
                f"(pending pairs + diagonal), got {len(pair_vectors)}"
            )
        y_quiet = block_is_quiet(y_block)
        computed = 0
        skipped = 0
        for slot, (p_id, p_block) in enumerate(pending):
            if pair_vectors is not None:
                vec = pair_vectors[slot]
            elif y_quiet or block_is_quiet(p_block):
                vec = None
            else:
                vec = _pair_products(p_block, y_block, self.max_lag)
            if vec is None:
                skipped += 1
                continue
            self._pair_cache[(p_id, block_id)] = vec
            self._lag_products += vec
            computed += 1
        # The diagonal pair (x_new, y_new).
        if pair_vectors is not None:
            vec = pair_vectors[-1]
        elif y_quiet or block_is_quiet(x_block):
            vec = None
        else:
            vec = _pair_products(x_block, y_block, self.max_lag)
        if vec is None:
            skipped += 1
        else:
            self._pair_cache[(block_id, block_id)] = vec
            self._lag_products += vec
            computed += 1

        self._x_blocks.append((block_id, x_block))
        self._y_blocks.append((block_id, y_block))
        self._x_total += x_block.total()
        self._x_energy += x_block.energy()
        self._y_total += y_block.total()
        self._y_energy += y_block.energy()

        while len(self._x_blocks) > self.num_blocks:
            self._evict_oldest()
        if not preserved:
            self._dirty = True
        if self._m_pairs is not None:
            self._m_pairs.inc(computed)
            self._m_depth.set(len(self._x_blocks))
            if skipped:
                self._m_skips.inc(skipped)
        return skipped

    def _evict_oldest(self) -> None:
        old_id, old_x = self._x_blocks.popleft()
        _, old_y = self._y_blocks.popleft()
        self._x_total -= old_x.total()
        self._x_energy -= old_x.energy()
        self._y_total -= old_y.total()
        self._y_energy -= old_y.energy()
        # Remove every cached pair involving the evicted block. Because
        # blocks are evicted in FIFO order, the evicted id is the smallest
        # live id, so it can only appear as the x side (x_old paired with
        # same-or-newer y) or as the diagonal.
        stale = [key for key in self._pair_cache if old_id in key]
        contribution: Optional[np.ndarray] = None
        for key in stale:
            vec = self._pair_cache.pop(key)
            self._lag_products -= vec
            if self._evict_hook is not None:
                contribution = (
                    vec.copy() if contribution is None else contribution + vec
                )
        if self._evict_hook is not None:
            self._evict_hook(old_x, old_y, contribution)
        if self._m_evictions is not None:
            self._m_evictions.inc()

    # -- queries ----------------------------------------------------------------

    def window_series(self) -> Tuple[DensityTimeSeries, DensityTimeSeries]:
        """The full x and y series over the current window (for testing)."""
        return (
            _concat_blocks([b for _, b in self._x_blocks], self.quantum),
            _concat_blocks([b for _, b in self._y_blocks], self.quantum),
        )

    @property
    def result_cached(self) -> bool:
        """True when the next :meth:`correlation` call re-serves the
        cached series (no boundary masses needed)."""
        return not self._dirty and self._corr_cache is not None

    def correlation(
        self,
        x_tail_mass: Optional[np.ndarray] = None,
        y_head_mass: Optional[np.ndarray] = None,
    ) -> CorrelationSeries:
        """Normalized correlation over the current window.

        Equal to ``correlate_sparse(x_window, y_window, max_lag)`` up to
        floating-point accumulation error. Cost is O(max_lag + head/tail
        block sizes), independent of the window length.

        ``x_tail_mass`` / ``y_head_mass`` are the :func:`boundary_mass`
        arrays of the x window's newest and the y window's oldest quanta;
        a host that shares one block history across correlators passes
        them in, a stand-alone correlator computes its own.
        """
        if not self._x_blocks:
            raise CorrelationError("no blocks appended yet")
        if self._m_served is not None:
            self._m_served.inc()
        if self.result_cached:
            if self._m_cache_hits is not None:
                self._m_cache_hits.inc()
            return self._corr_cache
        n = self.window_length
        d_max = min(self.max_lag, n - 1)
        if x_tail_mass is None:
            x_tail_mass = boundary_mass(
                [b for _, b in self._x_blocks], self.max_lag, newest=True
            )
        if y_head_mass is None:
            y_head_mass = boundary_mass(
                [b for _, b in self._y_blocks], self.max_lag, newest=False
            )
        if x_tail_mass.size != d_max + 1 or y_head_mass.size != d_max + 1:
            raise CorrelationError(
                f"boundary masses must cover lags 0..{d_max}, got "
                f"{x_tail_mass.size} and {y_head_mass.size} entries"
            )
        # x_prefix(d) = mass of the first n-d quanta of x
        #             = total_x - mass of the last d quanta (tail blocks).
        x_prefix = self._x_total - x_tail_mass
        # y_suffix(d) = total_y - mass of the first d quanta (head blocks).
        y_suffix = self._y_total - y_head_mass

        mx = self._x_total / n
        my = self._y_total / n
        sx = float(np.sqrt(max(0.0, self._x_energy / n - mx * mx)))
        sy = float(np.sqrt(max(0.0, self._y_energy / n - my * my)))
        result = _normalize(
            self._lag_products[: d_max + 1],
            x_prefix,
            y_suffix,
            n,
            mx,
            my,
            sx,
            sy,
            self.quantum,
        )
        self._corr_cache = result
        self._dirty = False
        return result
