"""Incremental cross-correlation over a sliding window (paper Section 3.4).

The paper's second optimization: "direct cross-correlation is incremental
... it can be computed over only the newly appended trace of size dW."

The sliding window of ``W = m * dW`` is kept as a deque of ``m`` blocks of
``dW`` worth of quanta each. For each ordered pair of blocks whose quanta
can be at most ``max_lag`` apart, the raw lag-product vector
``S[d] = sum x[i] * y[i + d]`` is computed once and kept. Appending a new
block therefore only computes the pair products that involve the new block
(a constant amount of work per refresh, which is why the 'incremental'
curve in Figure 9 is flat in ``W``), and evicting the oldest block
subtracts its kept vectors. The result equals (to floating-point
accumulation error) :func:`repro.core.correlation.correlate_sparse` over
the concatenated window, the invariant the test suite checks.

The correlators sharing one reference signal ``x`` are the rows of one
:class:`CorrelatorBank`: an append is one indexed add per pending block,
an eviction one indexed subtract, normalization one 2-D pass over the rows
whose answer changed -- and each row sees exactly the float operations a
one-pair correlator would, in the same order. A one-row bank is a
stand-alone correlator.

Two steady-state optimizations keep quiet edges nearly free (paper
Section 3.5): pair products against an empty block are skipped outright
(their contribution is identically zero), and a row whose append provably
leaves its normalized correlation unchanged keeps its scanned result.
"""

from __future__ import annotations

import collections
from typing import (
    TYPE_CHECKING, Callable, Deque, Dict, Hashable, List, Optional, Sequence, Tuple, Union,
)

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.registry import MetricsRegistry

from repro.core.correlation import _sparse_prefix_mass
from repro.core.rle import RunLengthSeries
from repro.core.timeseries import DensityTimeSeries
from repro.errors import CorrelationError, SeriesError

Block = Union[DensityTimeSeries, RunLengthSeries]

#: ``hook(keys, old_x, y_moments, y_quiet, first, contributions)``, called
#: once per eviction: the bank's row keys, the evicted x block, each row's
#: evicted y (total, energy) and quietness, the rows evicting for the first
#: time, and row -> summed lag products just subtracted (absent: all quiet).
EvictHook = Callable[[List[Hashable], Block, np.ndarray, np.ndarray, np.ndarray, Dict], None]


def block_is_quiet(block: Block) -> bool:
    """True when the block carries no samples (its lag products with any
    other block are identically zero)."""
    if isinstance(block, RunLengthSeries):
        return block.num_runs == 0
    return block.nnz == 0


def _concat_blocks(blocks: Sequence[Block], quantum: float) -> DensityTimeSeries:
    """Adjacent, already-validated blocks as one sparse series."""
    sparse = [b.to_sparse() if isinstance(b, RunLengthSeries) else b for b in blocks]
    if len(sparse) < 2:
        return sparse[0] if sparse else DensityTimeSeries.empty(0, 0, quantum)
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

    These are the boundary terms of normalization: ``x_prefix(d)`` is the
    x total minus the tail mass, ``y_suffix(d)`` the y total minus the
    head mass. Each is a pure function of one edge's blocks, so a host
    running many correlators over one aligned block history computes it
    once per (edge, side) and hands it to :meth:`CorrelatorBank.normalize`.
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


def _run_or_rows(rows: np.ndarray) -> Union[slice, np.ndarray]:
    """Sorted row indices as a slice when they are one run: an in-place
    update through a slice skips fancy indexing's gather and scatter."""
    if rows.size and rows[-1] - rows[0] + 1 == rows.size:
        return slice(int(rows[0]), int(rows[-1]) + 1)
    return rows


class CorrelatorBank:
    """The incremental correlators of one reference signal, as rows.

    Parameters
    ----------
    max_lag:
        Lag bound in quanta (``T_u / tau``).
    num_blocks:
        ``m = W / dW`` -- how many refresh intervals make up the window.
    quantum:
        Quantum duration in seconds.
    metrics:
        Optional :class:`~repro.obs.registry.MetricsRegistry` receiving the
        :data:`INSTRUMENTS`; many banks may share one registry.
    evict_hook:
        Optional :data:`EvictHook`, called once per eviction.

    All rows share the bank's x window (the reference blocks); each row
    keeps its own moments, since a row added later accumulated them in
    a different order. A row is keyed by any hashable (the engine uses
    the signal edge).
    """

    SKIPS_COUNTER = (  # hosts add their parked correlators' skips to it
        "correlator_skips_total",
        "Block-pair lag products skipped because one side was quiet",
    )
    #: (key, kind, name, help) of the registry instruments.
    INSTRUMENTS = (
        ("pairs", "counter", "correlator_pair_products_total",
         "Block-pair lag-product vectors computed (not served from cache)"),
        ("skips", "counter", *SKIPS_COUNTER),
        ("served", "counter", "correlator_correlations_served_total",
         "Correlation queries answered from cached lag-product aggregates"),
        ("hits", "counter", "correlation_cache_hits_total",
         "Correlation queries whose answer was unchanged since last served"),
        ("evictions", "counter", "correlator_evictions_total",
         "Blocks evicted from sliding correlator windows"),
        ("depth", "gauge", "correlator_window_blocks",
         "Window depth (blocks) of the most recently updated correlator bank"),
    )

    #: Per-row arrays; growing or dropping rows applies to each alike.
    _ROW_ARRAYS = ("_lag", "_moments", "_y", "_y_quiet", "_pair_count", "_evicted",
                   "_served", "spikes")

    def __init__(
        self,
        max_lag: int,
        num_blocks: int,
        quantum: float,
        metrics: Optional["MetricsRegistry"] = None,
        evict_hook: Optional[EvictHook] = None,
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
        #: Row -> key, and key -> row.
        self.keys: List[Hashable] = []
        self.rows: Dict[Hashable, int] = {}
        # The shared x window; block ids run on from _first_id.
        self._x_blocks: Deque[Block] = collections.deque()
        self._first_id = 0
        self._block_quanta: Optional[int] = None
        # Per-row state, with spare capacity past len(keys):
        self._lag = np.zeros((0, self.max_lag + 1))  # aggregate lag products
        self._moments = np.zeros((0, 4))  # x total, x energy, y total, y energy
        # y (total, energy) and quietness of each window block, in a ring
        # of m + 1 slots indexed by block id (an append lands before the
        # eviction it triggers).
        self._y = np.zeros((0, self.num_blocks + 1, 2))
        self._y_quiet = np.ones((0, self.num_blocks + 1), dtype=bool)
        self._pair_count = np.zeros(0, dtype=np.int64)  # live pair vectors
        self._evicted = np.zeros(0, dtype=bool)  # has evicted a block
        self._served = np.zeros(0, dtype=bool)  # unchanged since last served
        #: Per-row scan result the host stores, None while stale.
        self.spikes = np.empty(0, dtype=object)
        # Live block pairs: (x block id, y block id) -> chunks of
        # (row indices, kernel output matrix for those rows), in the
        # order they were accumulated.
        self._pairs: Dict[Tuple[int, int], List[Tuple[np.ndarray, np.ndarray]]] = {}
        self._evict_hook = evict_hook
        self._m = None if metrics is None else {
            key: getattr(metrics, kind)(name, help)
            for key, kind, name, help in self.INSTRUMENTS
        }

    # -- bookkeeping ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def window_length(self) -> int:
        """Number of quanta currently in the window."""
        return sum(block.length for block in self._x_blocks)

    @property
    def block_reach(self) -> int:
        """How many blocks back a lag of ``max_lag`` can reach."""
        if self._block_quanta is None:
            return 0
        return (self.max_lag + self._block_quanta - 1) // self._block_quanta

    def pending_blocks(self) -> List[Block]:
        """The live x blocks the next appended block pairs with (window
        order, excluding the diagonal pair): the x side of one batched
        kernel call each."""
        reach = self.block_reach
        return list(self._x_blocks)[-reach:] if reach else []

    def _slot(self, block_id: int) -> int:
        return block_id % (self.num_blocks + 1)

    def _validate_block(self, block: Block) -> None:
        if block.quantum != self.quantum:
            raise SeriesError(f"block quantum {block.quantum} != bank quantum {self.quantum}")
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
            expected = self._x_blocks[-1].end
            if block.start != expected:
                raise SeriesError(
                    f"blocks must be adjacent: expected start {expected}, got {block.start}"
                )

    # -- rows ------------------------------------------------------------------

    def add_row(
        self,
        key: Hashable,
        x_blocks: Sequence[Block],
        y_blocks: Sequence[Block],
        vectors: Sequence[Sequence[Optional[np.ndarray]]],
    ) -> int:
        """Add a row by replaying its window history; returns the row.

        ``x_blocks`` must be the bank's window (it becomes the window of an
        empty bank), ``y_blocks`` the row's blocks over it. ``vectors[i]``
        holds the pair products block ``i`` appended: one per pending x
        block, then the diagonal, ``None`` where one side was quiet.
        """
        if not self.keys:
            self._x_blocks.clear()
            self._pairs.clear()
            self._block_quanta = None
            for block in x_blocks:
                self._validate_block(block)
                self._x_blocks.append(block)
        elif len(x_blocks) != len(self._x_blocks) or any(
            a.start != b.start for a, b in zip(x_blocks, self._x_blocks)
        ):
            raise CorrelationError("a new row must replay the bank's own window")
        row = len(self.keys)
        if row == self._lag.shape[0]:
            self._resize(np.arange(row), capacity=row + max(4, row // 2))
        self.keys.append(key)
        self.rows[key] = row
        self.spikes[row] = None  # the rest of a spare row is still zeros
        reach = self.block_reach
        index = np.array([row])
        moments = [0.0, 0.0, 0.0, 0.0]
        computed = skipped = 0
        for i, (x_block, y_block) in enumerate(zip(x_blocks, y_blocks)):
            block_id = self._first_id + i
            for p, vec in zip([*range(max(0, i - reach), i), i], vectors[i]):
                if vec is None:
                    skipped += 1
                    continue
                self._lag[row] += vec
                self._pairs.setdefault((self._first_id + p, block_id), []).append(
                    (index, vec[None])
                )
                computed += 1
            y_total, y_energy = y_block.total(), y_block.energy()
            moments[0] += x_block.total()
            moments[1] += x_block.energy()
            moments[2] += y_total
            moments[3] += y_energy
            self._y[row, self._slot(block_id)] = (y_total, y_energy)
            self._y_quiet[row, self._slot(block_id)] = block_is_quiet(y_block)
        self._moments[row] = moments
        self._pair_count[row] = computed
        self._count(computed, skipped)
        return row

    def drop(self, keys) -> None:
        """Drop the rows of ``keys`` (unknown keys are ignored)."""
        gone = {self.rows[key] for key in keys if key in self.rows}
        if not gone:
            return
        keep = np.setdiff1d(np.arange(len(self.keys)), list(gone))
        remap = np.full(len(self.keys), -1, dtype=np.int64)
        remap[keep] = np.arange(keep.size)
        for pair, chunks in list(self._pairs.items()):
            kept = []
            for index, mat in chunks:
                live = remap[index] >= 0
                if live.any():
                    kept.append((remap[index[live]], mat if live.all() else mat[live]))
            if kept:
                self._pairs[pair] = kept
            else:
                del self._pairs[pair]
        self.keys = [self.keys[row] for row in keep]
        self.rows = {key: row for row, key in enumerate(self.keys)}
        self._resize(keep, capacity=keep.size)

    def _resize(self, keep: np.ndarray, capacity: int) -> None:
        """Rebuild every per-row array from rows ``keep`` (in order),
        with room for ``capacity`` rows."""
        for name in self._ROW_ARRAYS:
            old = getattr(self, name)
            new = np.zeros((capacity,) + old.shape[1:], dtype=old.dtype)
            new[: keep.size] = old[keep]
            setattr(self, name, new)

    # -- the sliding-window protocol ------------------------------------------

    def _preserved(self, x_block: Block, y_quiet: np.ndarray) -> np.ndarray:
        """Rows whose normalized correlation the coming append provably
        leaves value-identical (checked *before* the window slides).

        The window sums are unchanged exactly when the appended and
        evicted blocks are all quiet, but the boundary mass corrections
        (``x_prefix``/``y_suffix`` of normalization) also slide with the
        window: they stay identical only if the old window's last
        ``max_lag`` quanta of x and the new window's first ``max_lag``
        quanta of y are quiet too (checked conservatively at block
        granularity).
        """
        n = len(self.keys)
        m = self.num_blocks
        x_window = list(self._x_blocks)
        reach = min(self.block_reach, m)
        if (
            len(x_window) != m
            or not block_is_quiet(x_block)
            or not all(block_is_quiet(b) for b in x_window[:1] + x_window[m - reach :])
        ):
            return np.zeros(n, dtype=bool)
        # The evicted y block and the y blocks after it within reach.
        slots = [self._slot(self._first_id + k) for k in range(min(reach, m - 1) + 1)]
        return y_quiet & self._y_quiet[:n][:, slots].all(axis=1)

    def append(
        self,
        x_block: Block,
        y_moments: np.ndarray,
        y_quiet: np.ndarray,
        rows: np.ndarray,
        mats: Sequence[Optional[np.ndarray]],
    ) -> int:
        """Slide every row's window forward by one adjacent block.

        ``y_moments`` / ``y_quiet`` give each row's new y block (total,
        energy) and quietness. ``mats`` holds one entry per
        :meth:`pending_blocks` block, then the diagonal: ``None`` for a
        quiet x block, else the pair products of rows ``rows`` (rows left
        out are skipped as quiet). Returns the pair products skipped.
        """
        self._validate_block(x_block)
        n = len(self.keys)
        pending = len(self.pending_blocks())
        if len(mats) != pending + 1:
            raise CorrelationError(
                f"mats must have {pending + 1} entries (pending + diagonal), got {len(mats)}"
            )
        preserved = self._preserved(x_block, y_quiet)
        new_id = self._first_id + len(self._x_blocks)
        computed = 0
        for p_id, mat in zip(range(new_id - pending, new_id + 1), mats):
            if mat is None:
                continue
            # A kernel may hand back a view of a wider scratch matrix.
            mat = np.ascontiguousarray(mat)
            self._lag[_run_or_rows(rows)] += mat
            self._pairs.setdefault((p_id, new_id), []).append((rows, mat))
            computed += 1
        self._pair_count[rows] += computed
        slot = self._slot(new_id)
        self._y[:n, slot] = y_moments
        self._y_quiet[:n, slot] = y_quiet
        self._x_blocks.append(x_block)
        moments = self._moments[:n]
        moments[:, 0] += x_block.total()
        moments[:, 1] += x_block.energy()
        moments[:, 2] += y_moments[:, 0]
        moments[:, 3] += y_moments[:, 1]
        while len(self._x_blocks) > self.num_blocks:
            self._evict_oldest()
        self._served[:n] &= preserved
        self.spikes[:n][~preserved] = None
        skipped = n * len(mats) - computed * len(rows)
        self._count(computed * len(rows), skipped)
        return skipped

    def _count(self, computed: int, skipped: int) -> None:
        if self._m is not None:
            self._m["pairs"].inc(computed)
            if skipped:
                self._m["skips"].inc(skipped)
            self._m["depth"].set(len(self._x_blocks))

    def _evict_oldest(self) -> None:
        n = len(self.keys)
        old_x = self._x_blocks.popleft()
        old_id = self._first_id
        self._first_id += 1
        slot = self._slot(old_id)
        y_old = self._y[:n, slot].copy()
        moments = self._moments[:n]
        moments[:, 0] -= old_x.total()
        moments[:, 1] -= old_x.energy()
        moments[:, 2] -= y_old[:, 0]
        moments[:, 3] -= y_old[:, 1]
        # Every live pair with the evicted block is (old, same-or-newer):
        # blocks leave in FIFO order. Subtract them in the order they were
        # added -- the diagonal first -- and sum each row's contribution
        # in that same order for the hook.
        chunks = [
            chunk
            for y_id in range(old_id, old_id + self.block_reach + 1)
            for chunk in self._pairs.pop((old_id, y_id), ())
        ]
        for rows, mat in chunks:
            self._lag[_run_or_rows(rows)] -= mat
            self._pair_count[rows] -= 1
        if self._evict_hook is not None:
            contributions: Dict[int, np.ndarray] = {}
            if chunks:
                touched = np.unique(np.concatenate([rows for rows, _ in chunks]))
                at = np.zeros(n, dtype=np.int64)
                at[touched] = np.arange(touched.size)
                total = np.empty((touched.size, self.max_lag + 1))
                seen = np.zeros(touched.size, dtype=bool)
                for rows, mat in chunks:
                    slots, first = at[rows], ~seen[at[rows]]
                    total[slots[first]] = mat[first]
                    total[slots[~first]] += mat[~first]
                    seen[slots] = True
                contributions = dict(zip(touched.tolist(), total))
            self._evict_hook(
                self.keys, old_x, y_old, self._y_quiet[:n, slot].copy(),
                ~self._evicted[:n], contributions,
            )
        self._evicted[:n] = True
        if self._m is not None:
            self._m["evictions"].inc(n)

    def y_active(self) -> np.ndarray:
        """Rows with at least one loud y block in the window."""
        slots = [self._slot(self._first_id + k) for k in range(len(self._x_blocks))]
        return ~self._y_quiet[: len(self.keys)][:, slots].all(axis=1)

    def dormant(self) -> np.ndarray:
        """Rows whose full window is quiet on both sides with nothing
        kept: their state is then a pure function of the window position,
        so a host may drop them and replay them from block history when
        an edge wakes (:mod:`repro.core.stages`)."""
        if len(self._x_blocks) != self.num_blocks or not all(
            block_is_quiet(b) for b in self._x_blocks
        ):
            return np.zeros(len(self.keys), dtype=bool)
        return (self._pair_count[: len(self.keys)] == 0) & ~self.y_active()

    # -- queries ----------------------------------------------------------------

    def serve(self, row: int) -> bool:
        """Count one query of ``row``; True when its answer is unchanged
        since it was last served (a result-cache hit)."""
        hit = bool(self._served[row])
        self._served[row] = True
        if self._m is not None:
            self._m["served"].inc()
            if hit:
                self._m["hits"].inc()
        return hit

    def stale_rows(self) -> np.ndarray:
        """Rows whose answer changed since their ``spikes`` were stored."""
        return np.flatnonzero(np.equal(self.spikes[: len(self.keys)], None))

    def normalize(
        self, rows: np.ndarray, x_tail_mass: np.ndarray, y_head_mass: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Normalized correlation of ``rows`` (a ``(rows, d_max + 1)``
        matrix) and their degenerate mask, given the :func:`boundary_mass`
        of the x window's newest quanta and of each y window's oldest.
        Element for element the 1-D normalization's arithmetic; O(max_lag)
        per row, independent of the window length."""
        if not self._x_blocks:
            raise CorrelationError("no blocks appended yet")
        n = self.window_length
        d_max = min(self.max_lag, n - 1)
        if x_tail_mass.size != d_max + 1 or y_head_mass.shape[-1] != d_max + 1:
            raise CorrelationError(
                f"boundary masses must cover lags 0..{d_max}, got "
                f"{x_tail_mass.size} and {y_head_mass.shape[-1]} entries"
            )
        moments = self._moments[rows]
        x_total, x_energy = moments[:, 0:1], moments[:, 1:2]
        y_total, y_energy = moments[:, 2:3], moments[:, 3:4]
        # x_prefix(d) = mass of the first n-d quanta of x
        #             = total_x - mass of the last d quanta (tail blocks).
        x_prefix = x_total - x_tail_mass
        # y_suffix(d) = total_y - mass of the first d quanta (head blocks).
        y_suffix = y_total - y_head_mass
        mx = x_total / n
        my = y_total / n
        sx = np.sqrt(np.maximum(0.0, x_energy / n - mx * mx))
        sy = np.sqrt(np.maximum(0.0, y_energy / n - my * my))
        # lag - mx * y_suffix - my * x_prefix + (n - lags) * mx * my, in
        # that order, updating in place.
        num = self._lag[rows, : d_max + 1]
        num -= np.multiply(mx, y_suffix, out=y_suffix)
        num -= np.multiply(my, x_prefix, out=x_prefix)
        ramp = (n - np.arange(d_max + 1, dtype=np.float64)) * mx
        num += np.multiply(ramp, my, out=ramp)
        denom = n * sx * sy
        degenerate = ~((denom > 0.0) & np.isfinite(denom))[:, 0]
        if degenerate.any():
            denom[degenerate] = 1.0
            num[degenerate] = 0.0
        num /= denom
        return num, degenerate
