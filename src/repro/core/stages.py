"""The correlate-stage machinery of the online engine.

The online engine's refresh is four explicit stages -- **ingest ->
correlate -> DFS -> publish**, the exact stage names the refresh ledger
records (:data:`repro.obs.ledger.PIPELINE_STAGES`). The middle two
stages operate on one bundle of state: the aligned per-edge block
history, one :class:`~repro.core.incremental.CorrelatorBank` whose rows
are every (reference edge, edge) correlator, and the kernels that append
fresh blocks into it -- once per refresh, each kernel called once per
pair slot with one x block per row.

That bundle lives here, as :class:`PipelineCore`, a mixin of
:class:`repro.core.engine.E2EProfEngine`. A row rebuilt from history
holds the pair vectors a maintained row holds, but not its bits: the
maintained sums carry the rounding of every block added and evicted
since. The two agree within float tolerance and publish the same spikes.

Host contract (attributes the engine provides):

``config`` (:class:`~repro.config.PathmapConfig`), ``metrics``
(:class:`~repro.obs.registry.MetricsRegistry`), ``tracer``
(:class:`~repro.obs.spans.SpanTracer`), ``ledger``
(:class:`~repro.obs.ledger.LedgerRecorder`), ``_spectra`` (a
:class:`~repro.core.correlation.SpectrumCache` of block FFT spectra),
``_clients`` (set of client node ids), ``_blocks`` / ``_bank``
(the window state: edge -> block deque, and the bank, keyed
``(reference edge, edge)``), ``_parked`` / ``_edge_keys`` (parked keys;
edge -> its live and parked keys), ``_boundary`` (this refresh's
per-(edge, side) boundary masses), ``_num_blocks`` / ``_block_quanta`` /
``_refreshes`` (window geometry), the per-refresh ``_refresh_*``
tallies, and the ``_m_batch`` / ``_m_cache_hits`` / ``_m_cache_misses``
instruments.

**Parking.** A row whose whole window is quiet on both sides holds
nothing its block history does not: the host drops it, keeps its key in
``_parked``, and replays it from history the refresh either edge receives
a non-quiet block. A refresh thus visits the rows that can change, not
every correlator ever created.

**Spikes.** The DFS asks for an edge's spikes, never its series: its
first ask of a refresh normalizes and scans every changed row it may ask
about in one 2-D pass, and the rows keep spikes, not series.
"""

from __future__ import annotations

import collections
import time
from typing import Deque, Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.core.correlation import (
    batch_lag_products,
    choose_batch_kernel,
    fft_batch_lag_products,
    fft_dispatch_units,
    fft_length,
    rle_batch_lag_products,
    rle_dispatch_units,
    sparse_dispatch_units,
)
from repro.core.incremental import (
    CorrelatorBank,
    _concat_blocks,
    block_is_quiet,
    block_rows,
    boundary_masses,
)
from repro.core.pathmap import TraceWindow
from repro.core.rle import RunLengthSeries
from repro.core.spikes import Spike, detect_spike_rows
from repro.core.timeseries import DensityTimeSeries
from repro.errors import AnalysisError
from repro.obs.ledger import (
    KERNEL_FFT_BATCH,
    KERNEL_LEGACY,
    KERNEL_RLE,
    KERNEL_SPARSE_BATCH,
)
from repro.tracing.records import NodeId

EdgeKey = Tuple[NodeId, NodeId]
RefKey = Tuple[NodeId, NodeId]
CorrelatorKey = Tuple[RefKey, EdgeKey]

#: Rows normalized and scanned at a time: bounds the scan's lag matrices
#: (a few of rows x (max_lag + 1) floats) when warm-up makes thousands of
#: rows stale at once.
SCAN_ROWS = 128


def _run_stats(blocks: List[RunLengthSeries]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Runs, samples and sample span of each loud block: the y side of
    the kernel dispatch model, read off the runs in one vectorized pass."""
    runs = np.array([block.num_runs for block in blocks], dtype=np.int64)
    starts = np.concatenate([block.starts for block in blocks])
    counts = np.concatenate([block.counts for block in blocks])
    first = np.cumsum(runs) - runs
    last = first + runs - 1
    samples = np.add.reduceat(counts, first)
    return runs, samples, starts[last] + counts[last] - starts[first]


class PipelineCore:
    """Block-history + correlator machinery of the online engine.

    See the module docstring for the host attribute contract. Every
    method is deterministic given the host's window state; none of them
    publish events or touch host-specific bookkeeping (gap tracking,
    transport health, flight recording stay in the engine).
    """

    # -- block history ---------------------------------------------------------

    def _store_blocks(
        self, fresh: Dict[EdgeKey, RunLengthSeries], block_start: int
    ) -> None:
        empty = RunLengthSeries.empty(block_start, self._block_quanta, self.config.quantum)
        self._boundary.clear()  # every window slides
        for edge in set(self._blocks) | set(fresh):
            deque_ = self._blocks.get(edge)
            if deque_ is None:
                # Newly seen edge: backfill silence so every deque is
                # aligned on the same block boundaries.
                deque_ = self._backfilled_deque(
                    block_start - self._block_quanta,
                    min(self._refreshes - 1, self._num_blocks),
                )
                self._blocks[edge] = deque_
            deque_.append(fresh.get(edge, empty))
        # Blocks older than the window floor have rotated out of every
        # deque; their cached FFT spectra can never be used again.
        self._spectra.evict_before(
            block_start - (self._num_blocks - 1) * self._block_quanta
        )

    def _backfilled_deque(
        self, last_start: int, rounds: int
    ) -> Deque[RunLengthSeries]:
        """An aligned deque of ``rounds`` empty blocks ending at
        ``last_start`` (inclusive)."""
        tau = self.config.quantum
        deque_: Deque[RunLengthSeries] = collections.deque(maxlen=self._num_blocks)
        for k in range(rounds - 1, -1, -1):
            start = last_start - k * self._block_quanta
            deque_.append(RunLengthSeries.empty(start, self._block_quanta, tau))
        return deque_

    def _splice_block(
        self, edge: EdgeKey, block: RunLengthSeries, block_start: int
    ) -> bool:
        """Splice one re-sequenced late block back into window history.

        Blocks carry their own window position, so a block that arrives
        a round (or several) behind schedule replaces the silence that
        was stored in its place; correlators touching the edge are
        invalidated and rebuilt lazily from the corrected history.
        Returns True when the block landed inside the current window.
        """
        deque_ = self._blocks.get(edge)
        if deque_ is None:
            # First-ever block of an edge arrived late: materialize
            # an aligned, silence-filled history to patch into.
            deque_ = self._backfilled_deque(
                block_start, min(self._refreshes, self._num_blocks)
            )
            self._blocks[edge] = deque_
        oldest = deque_[0].start if deque_ else None
        if oldest is None:
            return False
        index = (block.start - oldest) // self._block_quanta
        if index < 0 or index >= len(deque_):
            return False  # already rotated out of the window
        if deque_[index].start != block.start:
            return False
        deque_[index] = block
        self._invalidate_correlators(edge)
        return True

    def _blank_history(self, cutoff_quantum: int) -> int:
        """Replace every block ending at or before ``cutoff_quantum``
        with silence and invalidate the correlators touching it (the
        core of change-point re-windowing; the engine wraps this with
        event/metric bookkeeping). Returns non-empty blocks blanked."""
        tau = self.config.quantum
        blanked = 0
        for edge, deque_ in self._blocks.items():
            touched = False
            for index, block in enumerate(deque_):
                if block.start + self._block_quanta > cutoff_quantum:
                    break
                if block.num_runs:
                    deque_[index] = RunLengthSeries.empty(
                        block.start, self._block_quanta, tau
                    )
                    blanked += 1
                    touched = True
            if touched:
                self._invalidate_correlators(edge)
        return blanked

    def _invalidate_correlators(self, edge: EdgeKey) -> List[CorrelatorKey]:
        """``edge``'s history changed: forget its boundary masses and every
        correlator, live or parked, touching it."""
        self._boundary.pop((edge, True), None)
        self._boundary.pop((edge, False), None)
        return self._drop_correlators(self._edge_keys.get(edge, ()))

    def _drop_correlators(self, keys) -> List[CorrelatorKey]:
        dropped = list(keys)
        for key in dropped:
            self._parked.discard(key)
            for edge in key:
                self._edge_keys[edge].discard(key)
        self._bank.drop(dropped)
        return dropped

    # -- correlate stage -------------------------------------------------------

    def _append_to_correlators(self) -> None:
        started = time.perf_counter()
        # A parked row's append would have skipped every pair slot; count
        # those without visiting it.
        reach = -(-self.config.max_lag_quanta // self._block_quanta)
        parked_skips = len(self._parked) * (min(reach, self._num_blocks) + 1)
        bank = self._bank
        skipped = self._append_rows(bank) if len(bank) else 0
        dormant = [bank.keys[row] for row in np.flatnonzero(bank.dormant())]
        parked_skips -= self._wake_parked()
        if dormant:
            bank.drop(dormant)
            self._parked.update(dormant)
        self.metrics.counter(*CorrelatorBank.SKIPS_COUNTER).inc(parked_skips)
        self._refresh_skips = skipped + parked_skips
        self._m_batch.observe(time.perf_counter() - started)

    def _loud_blocks(self) -> Dict[EdgeKey, RunLengthSeries]:
        """Edge -> its newest block, for every edge whose newest block is loud."""
        return {edge: blocks[-1] for edge, blocks in self._blocks.items() if blocks[-1].num_runs}

    def _wake_parked(self) -> int:
        """Replay from history every parked row one of whose edges just
        received a non-quiet block. Returns the pair products the skipped
        appends would have computed: the diagonal of each woken pair with
        traffic on both edges (every older block is quiet)."""
        computed = 0
        loud = self._loud_blocks() if self._parked else {}
        for edge in loud:
            for key in self._parked.intersection(self._edge_keys.get(edge, ())):
                self._create_row(*key)
                computed += all(e in loud for e in key)
        return computed

    def _pair_products(
        self,
        xs: List[RunLengthSeries],
        y_blocks: List[RunLengthSeries],
        y_stats: Tuple[np.ndarray, np.ndarray, np.ndarray],
        max_lag: int,
        spent: Optional[List[float]] = None,
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Pair-product rows of loud x blocks ``xs`` against loud y blocks
        (one each per row; ``y_stats`` is the ys' :func:`_run_stats`),
        dispatched row by row by a density cost model: yields ``(rows,
        mat)`` chunks, ``rows`` indexing the inputs.

        The sparse batch kernel touches every (x sample, y sample) pair
        within ``max_lag``, so its cost explodes on smeared (near-dense)
        blocks, where the run-length kernel -- whose cost scales with run
        counts, not sample counts -- stays flat. Spike trains are the
        opposite regime. Once rows go genuinely dense (flash crowd, batch
        surge) even the RLE kernel's run-pair count blows up, and the
        batched FFT kernel -- whose ``size * log2(size)`` cost is fixed
        by the window, independent of density -- takes over. All three
        estimates are pure functions of the row's two blocks, so batched
        appends and history replays make the identical choice and stay
        bit-for-bit reproducible. The sparse and RLE kernels produce
        bitwise-identical lag products, so their choice never changes the
        output; FFT rows agree to the documented float tolerance.

        The sparse and RLE kernels return each row's bits whatever else
        rides in the call, so they run one
        :func:`~repro.core.incremental.block_rows` block at a time and
        only one such chunk is alive while the caller folds it in;
        the FFT kernel runs once over all its rows. Kernel timing is
        recorded per kernel (one sample per kernel per pair slot per
        refresh), never per row; ``spent[0]`` also accumulates it.
        """
        y_runs, y_nnz, y_span = y_stats
        x_runs = np.array([x.num_runs for x in xs], dtype=np.int64)
        x_nnz = np.array([x.nnz for x in xs], dtype=np.int64)
        sparse_units = sparse_dispatch_units(x_nnz, y_nnz, y_span, max_lag)
        rle_units = rle_dispatch_units(x_runs, y_runs)
        # One shared 5-smooth plan length for the whole call: every
        # block covers the same window as the head block.
        length = int(y_blocks[0].length)
        fft_size = fft_length(int(xs[0].length) + length - 1)
        fft_units_row = fft_dispatch_units(length, fft_size)
        kernels = np.broadcast_to(
            choose_batch_kernel(sparse_units, rle_units, fft_units_row), y_runs.shape
        )
        for kernel in ("fft", "rle", "sparse"):
            rows = np.flatnonzero(kernels == kernel)
            if not rows.size:
                continue
            picked_x = [xs[i] for i in rows]
            picked = [y_blocks[i] for i in rows]
            distinct_x = {id(x): x for x in picked_x}.values()
            step = rows.size if kernel == "fft" else block_rows(max_lag + 1)
            seconds = 0.0
            for lo in range(0, rows.size, step):
                part = slice(lo, lo + step)
                started = time.perf_counter()
                if kernel == "fft":
                    mat = fft_batch_lag_products(
                        picked_x, picked, max_lag, size=fft_size, cache=self._spectra
                    )
                elif kernel == "rle":
                    mat = rle_batch_lag_products(picked_x[part], picked[part], max_lag)
                else:
                    mat = batch_lag_products(
                        [x.to_sparse() for x in picked_x[part]],
                        [y.to_sparse() for y in picked[part]],
                        max_lag,
                    )
                seconds += time.perf_counter() - started
                yield rows[part], mat
                del mat  # the caller has folded it in
            if kernel == "fft":
                # Dense samples transformed: 8 bytes per quantum of every
                # distinct x block plus every routed y block (spectra
                # cache hits skip the transform but still read the padded
                # product row).
                name, units = KERNEL_FFT_BATCH, fft_units_row * rows.size
                touched = 8 * length * (len(distinct_x) + rows.size)
            elif kernel == "rle":
                # RunLengthSeries data: starts + counts (int64) + values
                # (float64) = 24 bytes per run.
                name, units = KERNEL_RLE, float(np.cumsum(rle_units[rows])[-1])
                touched = 24 * int(x_runs[rows].sum() + y_runs[rows].sum())
            else:
                # DensityTimeSeries data: indices (int64) + values (float64)
                # = 16 bytes per nonzero of every distinct x and routed y.
                name, units = KERNEL_SPARSE_BATCH, float(np.cumsum(sparse_units[rows])[-1])
                touched = 16 * int(sum(x.nnz for x in distinct_x) + y_nnz[rows].sum())
            self.ledger.record_kernel(
                name, rows=rows.size, seconds=seconds,
                work_units=units, bytes_touched=touched,
            )
            if spent is not None:
                spent[0] += seconds

    def _slot_products(
        self,
        xs: List[Optional[RunLengthSeries]],
        loud: np.ndarray,
        y_blocks: List[RunLengthSeries],
        y_stats: Tuple[np.ndarray, np.ndarray, np.ndarray],
        spent: List[float],
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """One pair slot's chunks for :meth:`CorrelatorBank.append`: the
        pair products of the rows ``loud`` (loud y, ``y_blocks``) whose
        slot x block in ``xs`` is loud too, by bank row."""
        refs = self._bank.row_refs()[loud]
        x_loud = np.array([x is not None and not block_is_quiet(x) for x in xs])
        pick = np.flatnonzero(x_loud[refs])
        if not pick.size:
            return
        for rows, mat in self._pair_products(
            [xs[slot] for slot in refs[pick]], [y_blocks[i] for i in pick],
            tuple(stat[pick] for stat in y_stats), self.config.max_lag_quanta, spent,
        ):
            yield loud[pick[rows]], mat

    def _append_rows(self, bank: CorrelatorBank) -> int:
        """Append the newest blocks to every row: per pair slot, one call
        per kernel over the rows loud on both sides (the sparse and RLE
        ones a bounded row chunk at a time), each chunk folded into the
        bank as it comes. Returns the pair products skipped as quiet."""
        n = len(bank)
        refs = bank.row_refs()
        with self.tracer.span(
            "correlator.append", refs=int(np.count_nonzero(np.bincount(refs))), rows=n
        ):
            loud_blocks = self._loud_blocks()
            loud = np.flatnonzero([edge in loud_blocks for _, edge in bank.keys])
            y_blocks = [loud_blocks[bank.keys[row][1]] for row in loud]
            y_moments = np.zeros((n, 2))
            y_quiet = np.ones(n, dtype=bool)
            if y_blocks:
                y_moments[loud] = [(y.total(), y.energy()) for y in y_blocks]
            y_quiet[loud] = False
            x_new = [self._blocks[ref][-1] for ref in bank.refs]
            y_stats = _run_stats(y_blocks) if y_blocks else None
            spent = [0.0]  # kernel seconds, run inside the append
            products = [
                self._slot_products(xs, loud, y_blocks, y_stats, spent) if y_blocks else ()
                for xs in [*bank.pair_blocks(), x_new]
            ]
            slide_started = time.perf_counter()
            skipped = bank.append(x_new, y_moments, y_quiet, products)
            if loud.size < n:
                # Quiet rows call no kernel; ledger them, with their share
                # of the slide, as one legacy_pair sample per refresh.
                slide = time.perf_counter() - slide_started - spent[0]
                self.ledger.record_kernel(
                    KERNEL_LEGACY, rows=n - loud.size, seconds=slide * (n - loud.size) / n,
                )
        return skipped

    # -- spike provider (plugged into pathmap) ---------------------------------

    def _provide_spikes(
        self, window: TraceWindow, ref_key: RefKey, edge_key: EdgeKey
    ) -> List[Spike]:
        bank = self._bank
        row = bank.rows.get((ref_key, edge_key))
        if row is None:
            self._refresh_cache_misses += 1
            self._m_cache_misses.inc()
            row = self._create_row(ref_key, edge_key)
        else:
            self._refresh_cache_hits += 1
            self._m_cache_hits.inc()
        if bank.serve(row):
            self._refresh_corr_cache_hits += 1
        if bank.spikes[row] is None:
            self._scan(row)
        return bank.spikes[row]

    def _scan(self, row: int) -> None:
        """Normalize ``row`` and every other row whose answer changed and
        whose edges the DFS may ask about (both with samples in the
        window), and scan them for spikes: one 2-D pass, taken
        :data:`SCAN_ROWS` rows at a time so its lag matrices stay small."""
        cfg = self.config
        bank = self._bank
        rows = bank.stale_rows()
        rows = rows[(rows == row) | bank.answerable()[rows]]
        for stale in rows:
            bank.spikes[stale] = []  # what degenerate rows and short windows keep
        if bank.window_length < cfg.min_overlap_samples:
            return
        refs = bank.row_refs()
        tails = self._boundary_masses([bank.refs[s] for s in np.unique(refs[rows])], True)
        heads = self._boundary_masses([bank.keys[r][1] for r in rows], False)
        for lo in range(0, rows.size, SCAN_ROWS):
            part = rows[lo : lo + SCAN_ROWS]
            values, degenerate = bank.normalize(
                part,
                np.array([tails[bank.refs[s]] for s in refs[part]]),
                np.array([heads[bank.keys[r][1]] for r in part]),
            )
            scanned = detect_spike_rows(
                values[~degenerate],
                cfg.quantum,
                sigma=cfg.spike_sigma,
                resolution_quanta=cfg.resolution_quanta,
                min_height=cfg.min_spike_height,
            )
            for live, spikes in zip(part[~degenerate], scanned):
                bank.spikes[live] = spikes

    def _boundary_masses(self, edges: List[EdgeKey], newest: bool) -> Dict[EdgeKey, np.ndarray]:
        """This refresh's :func:`boundary_masses` of each of ``edges``'
        windows, by edge. Each (edge, side) is computed once a refresh --
        the ones not yet known in one batched pass -- and shared by every
        correlator with the edge on that side (x tail: a class's
        reference; y head: every class correlating the edge)."""
        missing = list(dict.fromkeys(e for e in edges if (e, newest) not in self._boundary))
        if missing:
            masses = boundary_masses(
                [self._blocks[e] for e in missing], self.config.max_lag_quanta, newest
            )
            for edge, mass in zip(missing, masses):
                self._boundary[(edge, newest)] = mass
        return {e: self._boundary[(e, newest)] for e in edges}

    def _create_row(self, ref_key: RefKey, edge_key: EdgeKey) -> int:
        ref_blocks = self._blocks.get(ref_key)
        edge_blocks = self._blocks.get(edge_key)
        if ref_blocks is None or edge_blocks is None:
            raise AnalysisError(
                f"no block history for correlator {ref_key} x {edge_key}"
            )
        # Replay the history through single-row calls of the kernels the
        # batched append uses, with its quiet skips and kernel dispatch:
        # the row gets the pair vectors a maintained row holds.
        max_lag = self.config.max_lag_quanta
        reach = -(-max_lag // self._block_quanta)
        x_blocks = list(ref_blocks)
        vectors: List[List[Optional[np.ndarray]]] = []
        for i, y_block in enumerate(edge_blocks):
            paired = x_blocks[max(0, i - reach) : i + 1]
            if block_is_quiet(y_block):
                vectors.append([None] * len(paired))
                continue
            y_stats = _run_stats([y_block])
            replayed: List[Optional[np.ndarray]] = []
            for x_p in paired:
                if block_is_quiet(x_p):
                    replayed.append(None)
                    continue
                [(_, mat)] = self._pair_products([x_p], [y_block], y_stats, max_lag)
                replayed.append(mat[0])
            vectors.append(replayed)
        key = (ref_key, edge_key)
        row = self._bank.add_row(key, ref_key, x_blocks, list(edge_blocks), vectors)
        self._parked.discard(key)
        for edge in key:
            self._edge_keys.setdefault(edge, set()).add(key)
        return row

    # -- window state queried by the pathmap DFS -------------------------------

    def _active_edges(self) -> Set[EdgeKey]:
        return {
            edge
            for edge, blocks in self._blocks.items()
            if any(block.num_runs for block in blocks)
        }

    def _edge_series(self, edge: EdgeKey) -> DensityTimeSeries:
        blocks = self._blocks.get(edge)
        if not blocks:
            raise AnalysisError(f"no blocks for edge {edge}")
        return _concat_blocks(blocks, blocks[0].quantum)

    @property
    def correlator_count(self) -> int:
        """Live incremental correlators (bank rows)."""
        return len(self._bank)

    @property
    def parked_count(self) -> int:
        """Dormant correlators dropped until one of their edges wakes."""
        return len(self._parked)


class HostWindow(TraceWindow):
    """TraceWindow view over a :class:`PipelineCore` host's block history
    (its ``_active_edges`` / ``_clients`` / ``_edge_series``).

    The src -> dsts, dst -> clients and front-end lists are built once, in
    one pass over the active edges: the DFS asks for them at every node
    it visits."""

    def __init__(self, host: PipelineCore) -> None:
        self._host = host
        self._clients = host._clients
        destinations: Dict[NodeId, List[NodeId]] = {}
        clients: Dict[NodeId, List[NodeId]] = {}
        for src, dst in host._active_edges():
            destinations.setdefault(src, []).append(dst)
            if src in self._clients:
                clients.setdefault(dst, []).append(src)
        for nodes in (*destinations.values(), *clients.values()):
            nodes.sort()
        self._destinations = destinations
        self._node_clients = clients
        self._front_ends = sorted(node for node in clients if node not in self._clients)

    def front_end_nodes(self) -> List[NodeId]:
        return list(self._front_ends)

    def clients_of(self, node: NodeId) -> List[NodeId]:
        return list(self._node_clients.get(node, ()))

    def destinations_of(self, node: NodeId) -> List[NodeId]:
        return list(self._destinations.get(node, ()))

    def is_client(self, node: NodeId) -> bool:
        return node in self._clients

    def edge_series(self, src: NodeId, dst: NodeId) -> DensityTimeSeries:
        return self._host._edge_series((src, dst))
