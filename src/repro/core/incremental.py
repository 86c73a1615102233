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

Every correlator of a host is a row of one :class:`CorrelatorBank`,
whatever its reference signal ``x``: all references' windows sit on one
block grid, so an append is one indexed add per pair slot, an eviction
one indexed subtract, normalization one 2-D pass over the rows whose
answer changed -- and each row sees exactly the float operations a
one-pair correlator would, in the same order. A one-row bank is a
stand-alone correlator.

Two steady-state optimizations keep quiet edges nearly free (paper
Section 3.5): pair products against an empty block are skipped outright
(their contribution is identically zero), and a row whose append provably
leaves its normalized correlation unchanged keeps its scanned result.
"""

from __future__ import annotations

import collections
import zlib
from typing import (
    TYPE_CHECKING, Callable, Deque, Dict, Hashable, List, Optional, Sequence, Tuple, Union,
)

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.registry import MetricsRegistry

from repro.core.rle import RunLengthSeries
from repro.core.timeseries import DensityTimeSeries
from repro.errors import CorrelationError, SeriesError

Block = Union[DensityTimeSeries, RunLengthSeries]

#: ``hook(bank, old_x, y_moments, y_quiet, first, touched, sums, crcs)``,
#: called once per eviction: each reference slot's evicted x block (None
#: without rows), each row's evicted y (total, energy) and quietness, the
#: rows evicting for the first time, and the rows whose lag products
#: changed with their summed pair products just subtracted (the rest are
#: quiet), as :class:`LagVectors` in the order of those rows, with each
#: sum's :func:`row_crcs` taken while the eviction held it dense.
EvictHook = Callable[..., None]


def block_is_quiet(block: Block) -> bool:
    """True when the block carries no samples (its lag products with any
    other block are identically zero)."""
    if isinstance(block, RunLengthSeries):
        return block.num_runs == 0
    return block.nnz == 0


def block_sums(blocks: Sequence[Optional[Block]]) -> np.ndarray:
    """(total, energy) of each block, zeros for ``None``."""
    return np.array(
        [(0.0, 0.0) if b is None else (b.total(), b.energy()) for b in blocks]
    ).reshape(-1, 2)


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


def boundary_masses(
    windows: Sequence[Sequence[Block]], max_lag: int, newest: bool
) -> np.ndarray:
    """Mass of the last (``newest``) or first ``d`` quanta of each window.

    One row per window and one column per ``d = 0..min(max_lag, n - 1)``,
    ``n`` being the quanta every window covers (they must cover the same
    number).

    These are the boundary terms of normalization: ``x_prefix(d)`` is the
    x total minus the tail mass, ``y_suffix(d)`` the y total minus the
    head mass. Each is a pure function of one edge's blocks, so a host
    running many correlators over one aligned block history computes it
    once per (edge, side) and hands it to :meth:`CorrelatorBank.normalize`.
    All windows go through one pass: their samples are prefix-summed as
    the columns of one dense matrix (each column's ``cumsum`` is bitwise
    the 1-D one, and the zeros between samples add nothing) and read off
    at every lag at once; only each edge's total is summed on its own,
    because a pairwise sum depends on length.
    """
    n = sum(block.length for block in windows[0])
    d_max = min(max_lag, n - 1)
    lags = np.arange(d_max + 1, dtype=np.int64)
    covers, parts = [], []
    for blocks in windows:
        if sum(block.length for block in blocks) != n:
            raise CorrelationError("boundary masses need windows of one length")
        # Just enough blocks from that end of the window to cover d_max quanta.
        picked = []
        covered = 0
        for block in reversed(blocks) if newest else blocks:
            picked.append(block.to_sparse() if isinstance(block, RunLengthSeries) else block)
            covered += block.length
            if covered >= d_max:
                break
        if newest:
            picked.reverse()
        covers.append(covered)
        parts.append(picked)
    # cum[p, r]: mass of window r's first p quanta, accumulated down the
    # columns (the same running sum per window, vectorized across them).
    # The zeros between samples add exactly nothing, so each entry is
    # bitwise the 1-D running sum over the window's samples.
    rows = len(windows)
    nnz = np.array([sum(s.nnz for s in picked) for picked in parts], dtype=np.int64)
    row_of = np.repeat(np.arange(rows), nnz)
    indices = np.concatenate([s.indices for picked in parts for s in picked] or [lags[:0]])
    values = np.concatenate([s.values for picked in parts for s in picked] or [np.zeros(0)])
    starts = np.array([picked[0].start for picked in parts], dtype=np.int64)
    dense = np.zeros((max(covers) + 1, rows))
    dense[indices - starts[row_of] + 1, row_of] = values
    cum = np.cumsum(dense, axis=0)
    if not newest:
        return cum[: d_max + 1].T
    if min(covers) == max(covers):  # aligned windows: one reversed slice
        kept = cum[covers[0] - d_max : covers[0] + 1][::-1].T
    else:
        kept = np.take_along_axis(cum.T, np.array(covers)[:, None] - lags, axis=1)
    ends = np.cumsum(nnz).tolist()
    totals = [float(values[end - k : end].sum()) for end, k in zip(ends, nnz.tolist())]
    return np.array(totals)[:, None] - kept


#: Rows per slab of a bank's lag-product rows; also the most rows an
#: in-place update gathers at a time, which bounds its temporaries.
_SLAB_ROWS = 128

#: Bytes of float64 lag rows one bounded block holds: a kernel's output
#: chunk, the pair products an eviction densifies, the sums it hands the
#: hook. A steady refresh's rows fit one block; warm-up's thousands of
#: loud rows go through a few at a time.
BLOCK_BYTES = 2 << 20


def block_rows(width: int) -> int:
    """Rows of ``width`` float64 lags in one :data:`BLOCK_BYTES` block."""
    return max(1, BLOCK_BYTES // (8 * width))


def row_crcs(mat: np.ndarray) -> np.ndarray:
    """CRC-32 of each row of ``mat`` as little-endian f8 bytes: the
    checksum the lake journal keeps beside a lag row."""
    mat = np.ascontiguousarray(mat, dtype="<f8")
    return np.fromiter(
        (zlib.crc32(row) for row in mat), dtype=np.uint32, count=mat.shape[0]
    )


class _LagRows:
    """Lag-product rows in slabs of :data:`_SLAB_ROWS`: the store grows by
    a slab and shrinks by dropping slabs, so no resize copies -- or holds
    twice -- the rows it keeps. ``store[row]`` is the row's vector."""

    def __init__(self, width: int) -> None:
        self.width = width
        self.slabs: List[np.ndarray] = []

    def reserve(self, rows: int) -> None:
        need = -(-rows // _SLAB_ROWS)
        del self.slabs[need:]
        self.slabs += [np.zeros((_SLAB_ROWS, self.width)) for _ in range(need - len(self.slabs))]

    def __getitem__(self, row: int) -> np.ndarray:
        return self.slabs[row // _SLAB_ROWS][row % _SLAB_ROWS]

    def __setitem__(self, row: int, values) -> None:
        self.slabs[row // _SLAB_ROWS][row % _SLAB_ROWS] = values

    def _parts(self, rows: np.ndarray):
        """(slab, rows within it, their positions in ``rows``) per slab;
        ascending rows give positions as slices."""
        slab = rows // _SLAB_ROWS
        if (np.diff(slab) >= 0).all():
            cuts = [0, *(np.flatnonzero(np.diff(slab)) + 1).tolist(), rows.size]
            picks = [slice(lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:])]
        else:
            picks = [np.flatnonzero(slab == s) for s in np.unique(slab).tolist()]
        for pick in picks:
            s = int(slab[pick][0])
            yield self.slabs[s], rows[pick] - s * _SLAB_ROWS, pick

    def update(self, op: np.ufunc, rows: np.ndarray, mat: np.ndarray) -> None:
        """``row = op(row, mat row)`` for each of ``rows``, in place, a
        slab at a time (through a slice where the rows run on): the same
        operation either way."""
        for slab, local, pick in self._parts(rows):
            part = mat[pick]
            if local[-1] - local[0] + 1 == local.size and (np.diff(local) == 1).all():
                run = slab[int(local[0]) : int(local[-1]) + 1]
                op(run, part, out=run)
            else:
                slab[local] = op(slab[local], part)

    def take(self, rows: np.ndarray, columns: int) -> np.ndarray:
        """The first ``columns`` entries of ``rows``, as a new matrix."""
        out = np.empty((rows.size, columns))
        for slab, local, pick in self._parts(rows):
            out[pick] = slab[local, :columns]
        return out


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``arange(start, start + count)`` of each pair, concatenated."""
    ends = np.cumsum(counts)
    return np.repeat(starts - ends + counts, counts) + np.arange(int(ends[-1]) if ends.size else 0)


def _one_run(starts: np.ndarray, counts: np.ndarray) -> bool:
    """True when each range ``[start, start + count)`` begins where the
    one before it ends: together they are one slice."""
    return bool((starts[1:] == starts[:-1] + counts[:-1]).all())


def _grown(array: np.ndarray, need: int) -> np.ndarray:
    """``array`` with room for ``need`` entries, grown by half again its
    size (amortized appends) when short: in place when it owns its
    buffer, else into a new array."""
    if array.shape[0] < need:
        size = max(need, array.shape[0] * 3 // 2)
        if array.base is None:
            array.resize(size, refcheck=False)
        else:
            array = np.concatenate([array, np.zeros(size - array.shape[0], array.dtype)])
    return array


def _joined(store: Optional["LagVectors"], part: "LagVectors") -> "LagVectors":
    """``store`` with ``part`` appended; ``part`` itself when no store yet."""
    if store is None:
        return part
    store.append(part)
    return store


class LagVectors:
    """Lag-product vectors of ``width`` lags, each labelled with a row,
    kept as their nonzeros in a few large slab arrays.

    A chunk of vectors added at once is stored by its nonzeros -- their
    values and lag indices -- unless, by its measured nonzero count, that
    would take more room than the dense rows, which are then kept whole.
    "Nonzero" is by bit pattern (a ``-0.0`` is kept), so :meth:`dense`
    hands back every vector bit for bit as it was added, and arithmetic
    on it is the arithmetic on the original. Vector ``k`` owns
    ``values[start[k]:start[k + 1]]`` and, when compact, as many lag
    indices from ``index_at[k]`` (-1 when dense).

    A :meth:`chunk` is allocated at its exact size, a dense one in the
    buffer it came in. A store grown a chunk at a time (:meth:`append`,
    :meth:`extend`) grows its slabs in place, by half again when short,
    and :meth:`trim` gives the spare room back; no view of the slabs
    may be held across a growth.
    """

    def __init__(self, width: int) -> None:
        self.width = int(width)
        self.size = 0
        self._rows = np.zeros(0, dtype=np.int64)
        self._start = np.zeros(1, dtype=np.int64)
        self._index_at = np.zeros(0, dtype=np.int64)
        self._values = np.zeros(0)
        self._indices = np.zeros(0, dtype=np.uint16 if self.width <= 1 << 16 else np.uint32)
        self._nindices = 0

    @classmethod
    def chunk(cls, rows: np.ndarray, mat: np.ndarray) -> "LagVectors":
        """One chunk: the vectors ``mat`` (one row each) of ``rows``."""
        mat = np.ascontiguousarray(mat, dtype=np.float64)
        out = cls(mat.shape[-1])
        mat = mat.reshape(-1, out.width)
        k = out.size = mat.shape[0]
        out._rows = np.array(rows, dtype=np.int64)
        nonzero = mat.view(np.uint64) != 0
        nnz = np.count_nonzero(nonzero)
        if nnz * (8 + out._indices.itemsize) < mat.size * 8:
            flat = np.flatnonzero(nonzero)
            counts = np.diff(np.searchsorted(flat, np.arange(0, (k + 1) * out.width, out.width)))
            out._values = np.take(mat.reshape(-1), flat)
            flat -= np.repeat(np.arange(0, k * out.width, out.width), counts)
            out._indices = flat.astype(out._indices.dtype)
            out._nindices = nnz
            out._index_at = np.cumsum(counts) - counts
        else:
            counts = np.full(k, out.width, dtype=np.int64)
            out._values = mat.reshape(-1)
            out._index_at = np.full(k, -1, dtype=np.int64)
        out._start = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(counts, out=out._start[1:])
        return out

    def __len__(self) -> int:
        return self.size

    @property
    def rows(self) -> np.ndarray:
        """Each vector's row label (a view: hold it across no growth)."""
        return self._rows[: self.size]

    @rows.setter
    def rows(self, rows: np.ndarray) -> None:
        self._rows[: self.size] = rows

    @property
    def nbytes(self) -> int:
        """Bytes the vectors take (their slabs' used part)."""
        return (
            16 * self.size + 8 * int(self._start[self.size])
            + self._indices.itemsize * self._nindices
        )

    def extend(self, rows: np.ndarray, mat: np.ndarray) -> None:
        """Add one chunk: the vectors ``mat`` (one row each) of ``rows``."""
        self.append(LagVectors.chunk(rows, mat))

    def append(self, part: "LagVectors") -> None:
        """Add the vectors of ``part``, after this store's."""
        n, k = self.size, part.size
        base, values = int(self._start[n]), int(part._start[k])
        at, indices = self._nindices, part._nindices
        self._rows = _grown(self._rows, n + k)
        self._index_at = _grown(self._index_at, n + k)
        self._start = _grown(self._start, n + k + 1)
        self._values = _grown(self._values, base + values)
        self._indices = _grown(self._indices, at + indices)
        self._rows[n : n + k] = part.rows
        index_at = part._index_at[:k]
        self._index_at[n : n + k] = np.where(index_at < 0, -1, index_at + at)
        self._start[n + 1 : n + k + 1] = base + part._start[1 : k + 1]
        self._values[base : base + values] = part._values[:values]
        self._indices[at : at + indices] = part._indices[:indices]
        self.size += k
        self._nindices += indices

    def trim(self) -> None:
        """Release the slabs' spare room."""
        n = self.size
        for name, used in (
            ("_rows", n), ("_index_at", n), ("_start", n + 1),
            ("_values", int(self._start[n])), ("_indices", self._nindices),
        ):
            array = getattr(self, name)
            if array.shape[0] > used and array.base is None:
                array.resize(used, refcheck=False)

    def dense(self, picks: np.ndarray) -> np.ndarray:
        """Vectors ``picks`` (positions, not row labels) as a
        ``(len(picks), width)`` matrix: a read-only view of the slab when
        they are dense vectors in one run of it, else a new matrix."""
        start = self._start[picks]
        count = self._start[picks + 1] - start
        index_at = self._index_at[picks]
        whole = index_at < 0
        if whole.all():
            if not _one_run(start, count):
                return self._values[_ranges(start, count)].reshape(-1, self.width)
            at = int(start[0]) if picks.size else 0
            view = self._values[at : at + picks.size * self.width].reshape(-1, self.width)
            view.flags.writeable = False
            return view
        out = np.zeros((picks.size, self.width))
        if whole.any():
            out[whole] = self._values[_ranges(start[whole], count[whole])].reshape(-1, self.width)
            start, count, index_at = (a[~whole] for a in (start, count, index_at))
            picks = np.flatnonzero(~whole)
        else:
            picks = np.arange(picks.size)
        if _one_run(start, count) and _one_run(index_at, count):
            at, end = int(start[0]), int(start[-1] + count[-1])
            values = self._values[at:end]
            columns = self._indices[int(index_at[0]) : int(index_at[0]) + end - at]
        else:
            values = self._values[_ranges(start, count)]
            columns = self._indices[_ranges(index_at, count)]
        target = np.repeat(picks * self.width, count)
        target += columns
        out.reshape(-1)[target] = values
        return out

    def blocks(self):
        """Every vector in order, densified a :func:`block_rows` block at
        a time."""
        rows = block_rows(self.width)
        for lo in range(0, self.size, rows):
            yield self.dense(np.arange(lo, min(lo + rows, self.size)))

    def take(self, keep: np.ndarray, rows: np.ndarray) -> "LagVectors":
        """The vectors where ``keep`` is True, relabelled ``rows``, in a
        new store of exactly their size."""
        picks = np.flatnonzero(keep)
        out = LagVectors(self.width)
        start = self._start[picks]
        count = self._start[picks + 1] - start
        index_at = self._index_at[picks]
        compact = index_at >= 0
        out._rows = np.array(rows, dtype=np.int64)
        out._start = np.concatenate([[0], np.cumsum(count)])
        out._values = self._values[_ranges(start, count)]
        out._indices = self._indices[_ranges(index_at[compact], count[compact])]
        out._nindices = out._indices.size
        out._index_at = np.full(picks.size, -1, dtype=np.int64)
        out._index_at[compact] = np.cumsum(count[compact]) - count[compact]
        out.size = picks.size
        return out


class CorrelatorBank:
    """Every incremental correlator of a host, as rows.

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
        :data:`INSTRUMENTS`.
    evict_hook:
        Optional :data:`EvictHook`, called once per eviction.

    A row correlates one reference signal x with one signal y; it is
    keyed by any hashable (the engine uses ``(reference edge, edge)``)
    and carries the slot of its reference in :attr:`refs`. Every
    reference's x window sits on one block grid, so block ids and the
    per-row ring of y block moments are shared by all rows, and one
    append or eviction slides them all. Each row keeps its own moments,
    since a row added later accumulated them in a different order.
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
         "Window depth (blocks) of the correlator bank"),
    )

    #: Per-row arrays; growing or dropping rows applies to each alike.
    _ROW_ARRAYS = ("_moments", "_y", "_y_quiet", "_pair_count", "_evicted",
                   "_served", "_ref", "spikes")

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
        #: Reference slot -> reference key; slots are never reused by
        #: another reference.
        self.refs: List[Hashable] = []
        self._slots: Dict[Hashable, int] = {}
        # Each reference's x window and live rows. The windows share one
        # grid: block ids run on from _first_id, _depth blocks deep, the
        # next one starting at _next_start. A reference without rows lets
        # its window go stale and takes a fresh one with its next row.
        self._x: List[Deque[Block]] = []
        self._ref_rows = np.zeros(0, dtype=np.int64)
        self._first_id = 0
        self._depth = 0
        self._next_start: Optional[int] = None
        self._block_quanta: Optional[int] = None
        # Per-row state, with spare capacity past len(keys):
        self._lag = _LagRows(self.max_lag + 1)  # aggregate lag products
        self._moments = np.zeros((0, 4))  # x total, x energy, y total, y energy
        # y (total, energy) and quietness of each window block, in a ring
        # of m + 1 slots indexed by block id (an append lands before the
        # eviction it triggers).
        self._y = np.zeros((0, self.num_blocks + 1, 2))
        self._y_quiet = np.ones((0, self.num_blocks + 1), dtype=bool)
        self._pair_count = np.zeros(0, dtype=np.int64)  # live pair vectors
        self._evicted = np.zeros(0, dtype=bool)  # has evicted a block
        self._served = np.zeros(0, dtype=bool)  # unchanged since last served
        self._ref = np.zeros(0, dtype=np.int64)  # reference slot
        #: Per-row scan result the host stores, None while stale.
        self.spikes = np.empty(0, dtype=object)
        # Live block pairs: (x block id, y block id) -> the pair products
        # of every row holding one (a row holds at most one per pair):
        # those an append computed, stored at once, and those rows added
        # since replayed, grown a row at a time (so a row added never
        # copies the append's store).
        self._pairs: Dict[Tuple[int, int], LagVectors] = {}
        self._replayed: Dict[Tuple[int, int], LagVectors] = {}
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
        return self._depth * (self._block_quanta or 0)

    @property
    def block_reach(self) -> int:
        """How many blocks back a lag of ``max_lag`` can reach."""
        if self._block_quanta is None:
            return 0
        return (self.max_lag + self._block_quanta - 1) // self._block_quanta

    @property
    def pair_nbytes(self) -> int:
        """Bytes the live block pairs' products take."""
        return sum(v.nbytes for store in (self._pairs, self._replayed) for v in store.values())

    def row_refs(self) -> np.ndarray:
        """Each row's reference slot (an index into :attr:`refs`)."""
        return self._ref[: len(self.keys)]

    def x_window(self, ref: Hashable) -> List[Block]:
        """The window blocks of reference ``ref``, oldest first."""
        return list(self._x[self._slots[ref]])

    def pair_blocks(self) -> List[List[Block]]:
        """Per pair slot of the next append -- the pending x blocks it
        pairs with in window order, excluding the diagonal -- each
        reference slot's x block (stale for a slot without rows)."""
        pending = min(self.block_reach, self._depth)
        return [
            [window[k] if len(window) == self._depth else None for window in self._x]
            for k in range(self._depth - pending, self._depth)
        ]

    def _slot(self, block_id: int) -> int:
        return block_id % (self.num_blocks + 1)

    def _window_slots(self) -> List[int]:
        return [self._slot(self._first_id + k) for k in range(self._depth)]

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
        if self._next_start is not None and block.start != self._next_start:
            raise SeriesError(
                f"blocks must be adjacent: expected start {self._next_start}, got {block.start}"
            )

    def _x_quiet(self) -> np.ndarray:
        """Quietness of every reference slot's window blocks (all True
        for a stale window)."""
        return np.array([
            [block_is_quiet(b) for b in window] if len(window) == self._depth
            else [True] * self._depth
            for window in self._x
        ], dtype=bool).reshape(len(self._x), self._depth)

    # -- rows ------------------------------------------------------------------

    def add_row(
        self,
        key: Hashable,
        ref: Hashable,
        x_blocks: Sequence[Block],
        y_blocks: Sequence[Block],
        vectors: Sequence[Sequence[Optional[np.ndarray]]],
    ) -> int:
        """Add a row correlating reference ``ref`` by replaying its window
        history; returns the row.

        ``x_blocks`` must cover the bank's window (they become the window
        of an empty bank), ``y_blocks`` the row's blocks over it.
        ``vectors[i]`` holds the pair products block ``i`` appended: one
        per pending x block, then the diagonal, ``None`` where one side
        was quiet.
        """
        if not self.keys:
            self._pairs.clear()
            self._replayed.clear()
            self._block_quanta = self._next_start = None
            for block in x_blocks:
                self._validate_block(block)
                self._next_start = block.end
            self._depth = len(x_blocks)
        elif len(x_blocks) != self._depth or (
            x_blocks and x_blocks[-1].end != self._next_start
        ):
            raise CorrelationError("a new row must replay the bank's own window")
        slot = self._slots.get(ref)
        if slot is None:
            slot = self._slots[ref] = len(self.refs)
            self.refs.append(ref)
            self._x.append(collections.deque())
            self._ref_rows = np.append(self._ref_rows, 0)
        if not self._ref_rows[slot]:
            self._x[slot] = collections.deque(x_blocks)
        row = len(self.keys)
        if row == self._moments.shape[0]:
            self._reserve(row + max(4, row // 2))
        self.keys.append(key)
        self.rows[key] = row
        self._ref[row] = slot
        self._ref_rows[slot] += 1
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
                pair = (self._first_id + p, block_id)
                if pair not in self._replayed:
                    self._replayed[pair] = LagVectors(self.max_lag + 1)
                self._replayed[pair].extend(index, vec)
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
        """Drop the rows of ``keys`` (unknown keys are ignored).

        The last live rows move into the holes, so a drop copies as many
        rows as it removes, never the whole bank."""
        gone = np.array(sorted({self.rows[key] for key in keys if key in self.rows}))
        if not gone.size:
            return
        n = len(self.keys)
        kept = n - gone.size
        dropped = np.zeros(n, dtype=bool)
        dropped[gone] = True
        holes = gone[gone < kept]
        movers = np.flatnonzero(~dropped[kept:]) + kept
        np.subtract.at(self._ref_rows, self._ref[gone], 1)
        for name in self._ROW_ARRAYS:
            array = getattr(self, name)
            array[holes] = array[movers]
            array[kept:n] = 0
        for hole, mover in zip(holes.tolist(), movers.tolist()):
            self._lag[hole] = self._lag[mover]
        for row in range(kept, n):
            self._lag[row] = 0.0
        for row in gone.tolist():
            del self.rows[self.keys[row]]
        for hole, mover in zip(holes.tolist(), movers.tolist()):
            self.keys[hole] = self.keys[mover]
            self.rows[self.keys[hole]] = hole
        del self.keys[kept:]
        remap = np.arange(n)
        remap[gone] = -1
        remap[movers] = holes
        for stores in (self._pairs, self._replayed):
            for pair, vectors in list(stores.items()):
                rows = remap[vectors.rows]
                live = rows >= 0
                if live.all():
                    vectors.rows = rows
                elif live.any():
                    stores[pair] = vectors.take(live, rows[live])
                else:
                    del stores[pair]
        if self._moments.shape[0] > 2 * max(kept, 4):
            self._reserve(kept + max(4, kept // 2))

    def _reserve(self, capacity: int) -> None:
        """Room for ``capacity`` rows; rows past the live ones are zeros.
        The small per-row arrays are resized in place, the lag rows by
        whole slabs."""
        for name in self._ROW_ARRAYS:
            array = getattr(self, name)
            array.resize((capacity,) + array.shape[1:], refcheck=False)
        self._lag.reserve(capacity)

    # -- the sliding-window protocol ------------------------------------------

    def _preserved(self, x_quiet: np.ndarray, y_quiet: np.ndarray) -> np.ndarray:
        """Rows whose normalized correlation the coming append provably
        leaves value-identical (checked *before* the window slides), given
        each reference's and each row's new-block quietness.

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
        if self._depth != m:
            return np.zeros(n, dtype=bool)
        reach = min(self.block_reach, m)
        # The oldest x block and the newest within reach.
        x_calm = x_quiet & self._x_quiet()[:, [0, *range(m - reach, m)]].all(axis=1)
        # The evicted y block and the y blocks after it within reach.
        y_slots = [self._slot(self._first_id + k) for k in range(min(reach, m - 1) + 1)]
        return x_calm[self.row_refs()] & y_quiet & self._y_quiet[:n][:, y_slots].all(axis=1)

    def append(
        self,
        x_new: Sequence[Optional[Block]],
        y_moments: np.ndarray,
        y_quiet: np.ndarray,
        products: Sequence[Sequence[Tuple[np.ndarray, np.ndarray]]],
    ) -> int:
        """Slide every row's window forward by one adjacent block.

        ``x_new`` holds each reference slot's new block (``None`` or any
        block for a slot without rows). ``y_moments`` / ``y_quiet`` give
        each row's new y block (total, energy) and quietness. ``products``
        holds one entry per :meth:`pair_blocks` slot, then the diagonal:
        an iterable of chunks ``(rows, mat)``, the pair products of rows
        ``rows`` (each row in at most one chunk; rows left out are skipped
        as quiet). Chunks are folded in and released one at a time, so a
        lazy iterable bounds the kernel output held at once.
        Returns the pair products skipped.
        """
        n = len(self.keys)
        x_new = [x if rows else None for x, rows in zip(x_new, self._ref_rows)]
        for x in x_new:
            if x is not None:
                self._validate_block(x)
        self._next_start = next((x.end for x in x_new if x is not None), self._next_start)
        pending = min(self.block_reach, self._depth)
        if len(products) != pending + 1:
            raise CorrelationError(
                f"products must have {pending + 1} entries (pending + diagonal), "
                f"got {len(products)}"
            )
        new_id = self._first_id + self._depth
        ring = self._slot(new_id)
        x_quiet = np.array([x is None or block_is_quiet(x) for x in x_new], dtype=bool)
        preserved = self._preserved(x_quiet, y_quiet)
        computed = 0
        for p_id, chunks in zip(range(new_id - pending, new_id + 1), products):
            store = None  # a pair with the new block: no vectors yet
            for rows, mat in chunks:
                # A kernel may hand back a view of a wider scratch matrix.
                mat = np.ascontiguousarray(mat)
                self._lag.update(np.add, rows, mat)
                self._pair_count[rows] += 1
                store = _joined(store, LagVectors.chunk(rows, mat))
                computed += len(rows)
            if store is not None:
                store.trim()
                self._pairs[(p_id, new_id)] = store
        for vectors in self._replayed.values():
            vectors.trim()
        self._y[:n, ring] = y_moments
        self._y_quiet[:n, ring] = y_quiet
        for window, x in zip(self._x, x_new):
            if x is None:
                window.clear()
            else:
                window.append(x)
        self._depth += 1
        refs = self.row_refs()
        x_sums = block_sums(x_new)
        moments = self._moments[:n]
        moments[:, 0] += x_sums[refs, 0]
        moments[:, 1] += x_sums[refs, 1]
        moments[:, 2] += y_moments[:, 0]
        moments[:, 3] += y_moments[:, 1]
        while self._depth > self.num_blocks:
            self._evict_oldest()
        self._served[:n] &= preserved
        self.spikes[:n][~preserved] = None
        skipped = n * len(products) - computed
        self._count(computed, skipped)
        return skipped

    def _count(self, computed: int, skipped: int) -> None:
        if self._m is not None:
            self._m["pairs"].inc(computed)
            if skipped:
                self._m["skips"].inc(skipped)
            self._m["depth"].set(self._depth)

    def _evict_oldest(self) -> None:
        n = len(self.keys)
        old_id = self._first_id
        self._first_id += 1
        self._depth -= 1
        ring = self._slot(old_id)
        old_x = [window.popleft() if window else None for window in self._x]
        x_sums = block_sums(old_x)
        refs = self.row_refs()
        y_old = self._y[:n, ring].copy()
        moments = self._moments[:n]
        moments[:, 0] -= x_sums[refs, 0]
        moments[:, 1] -= x_sums[refs, 1]
        moments[:, 2] -= y_old[:, 0]
        moments[:, 3] -= y_old[:, 1]
        # Every live pair with the evicted block is (old, same-or-newer):
        # blocks leave in FIFO order. Subtract them in the order they were
        # added -- the diagonal first -- and sum each row's contribution
        # in that same order for the hook, a block of rows at a time, so
        # neither the pair products nor the sums are ever dense at once.
        pairs = [
            stores.pop((old_id, y_id))
            for y_id in range(old_id, old_id + self.block_reach + 1)
            for stores in (self._pairs, self._replayed)
            if (old_id, y_id) in stores
        ]
        hook = self._evict_hook
        touched = np.unique(np.concatenate([p.rows for p in pairs] or [refs[:0]]))
        where = []
        for vectors in pairs:
            at = np.full(n, -1, dtype=np.int64)
            at[vectors.rows] = np.arange(len(vectors))
            where.append(at)
            self._pair_count[vectors.rows] -= 1
        total = None  # the sums, when a hook wants them
        crcs = [np.empty(0, dtype=np.uint32)]
        step = block_rows(self.max_lag + 1)
        for lo in range(0, touched.size, step):
            block = touched[lo : lo + step]
            sums = np.empty((block.size if hook else 0, self.max_lag + 1))
            seen = np.zeros(block.size, dtype=bool)
            for vectors, at in zip(pairs, where):
                picks = at[block]
                has = np.flatnonzero(picks >= 0)
                if not has.size:
                    continue
                mat = vectors.dense(picks[has])
                self._lag.update(np.subtract, block[has], mat)
                if hook is not None:
                    first = ~seen[has]
                    sums[has[first]] = mat[first]
                    sums[has[~first]] += mat[~first]
                    seen[has] = True
            if hook is not None:
                total = _joined(total, LagVectors.chunk(block, sums))
                crcs.append(row_crcs(sums))
        del pairs
        if hook is not None:
            if total is None:
                total = LagVectors(self.max_lag + 1)
            total.trim()
            hook(
                self, old_x, y_old, self._y_quiet[:n, ring].copy(),
                ~self._evicted[:n], touched, total, np.concatenate(crcs),
            )
        self._evicted[:n] = True
        if self._m is not None:
            self._m["evictions"].inc(n)

    def _x_active(self) -> np.ndarray:
        """Reference slots with at least one loud block in the window."""
        return ~self._x_quiet().all(axis=1)

    def y_active(self) -> np.ndarray:
        """Rows with at least one loud y block in the window."""
        return ~self._y_quiet[: len(self.keys)][:, self._window_slots()].all(axis=1)

    def answerable(self) -> np.ndarray:
        """Rows with samples in the window on both sides: the rows a
        pathmap DFS may ask about."""
        return self.y_active() & self._x_active()[self.row_refs()]

    def dormant(self) -> np.ndarray:
        """Rows whose full window is quiet on both sides with nothing
        kept: their state is then a pure function of the window position,
        so a host may drop them and replay them from block history when
        an edge wakes (:mod:`repro.core.stages`)."""
        if self._depth != self.num_blocks:
            return np.zeros(len(self.keys), dtype=bool)
        return (
            ~self._x_active()[self.row_refs()]
            & (self._pair_count[: len(self.keys)] == 0)
            & ~self.y_active()
        )

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
        matrix) and their degenerate mask, given the :func:`boundary_masses`
        of each row's x window's newest quanta (one vector for all, or a
        row each) and of each y window's oldest. Element for element the
        1-D normalization's arithmetic; O(max_lag) per row, independent of
        the window length."""
        if not self._depth:
            raise CorrelationError("no blocks appended yet")
        n = self.window_length
        d_max = min(self.max_lag, n - 1)
        if x_tail_mass.shape[-1] != d_max + 1 or y_head_mass.shape[-1] != d_max + 1:
            raise CorrelationError(
                f"boundary masses must cover lags 0..{d_max}, got "
                f"{x_tail_mass.shape[-1]} and {y_head_mass.shape[-1]} entries"
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
        num = self._lag.take(rows, d_max + 1)
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
