"""The correlate-stage machinery of the online engine.

The online engine's refresh is four explicit stages -- **ingest ->
correlate -> DFS -> publish**, the exact stage names the refresh ledger
records (:data:`repro.obs.ledger.PIPELINE_STAGES`). The middle two
stages operate on one bundle of state: the aligned per-edge block
history, one :class:`~repro.core.incremental.CorrelatorBank` per reference
signal whose rows are that class's edges, and the kernels that append
fresh blocks into those banks.

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
``_clients`` (set of client node ids), ``_blocks`` / ``_banks``
(the window state: edge -> block deque, reference -> bank), ``_parked`` /
``_edge_keys`` (parked keys; edge -> its live and parked keys),
``_boundary`` (this refresh's per-(edge, side) boundary masses),
``_num_blocks`` / ``_block_quanta`` / ``_refreshes`` (window geometry),
the per-refresh ``_refresh_*`` tallies, the ``_summary_hook`` factory of
bank eviction hooks, and the ``_m_batch`` / ``_m_cache_hits`` /
``_m_cache_misses`` instruments.

**Parking.** A row whose whole window is quiet on both sides holds
nothing its block history does not: the host drops it, keeps its key in
``_parked``, and replays it from history the refresh either edge receives
a non-quiet block. A refresh thus visits the rows that can change, not
every correlator ever created.

**Spikes.** The DFS asks for an edge's spikes, never its series: its
first ask of a class normalizes and scans the bank's changed rows in one
2-D pass, and the rows keep spikes, not series.
"""

from __future__ import annotations

import collections
import time
from typing import Deque, Dict, List, Optional, Set, Tuple

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
    boundary_mass,
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
        edges_of: Dict[RefKey, List[EdgeKey]] = {}
        for key in dropped:
            edges_of.setdefault(key[0], []).append(key[1])
            self._parked.discard(key)
            for edge in key:
                self._edge_keys[edge].discard(key)
        for ref_edge, edges in edges_of.items():
            self._drop_rows(ref_edge, edges)
        return dropped

    def _drop_rows(self, ref_edge: RefKey, edges: List[EdgeKey]) -> None:
        bank = self._banks.get(ref_edge)
        if bank is not None:
            bank.drop(edges)
            if not len(bank):
                del self._banks[ref_edge]

    # -- correlate stage -------------------------------------------------------

    def _append_to_correlators(self) -> None:
        started = time.perf_counter()
        # A parked row's append would have skipped every pair slot; count
        # those without visiting it.
        reach = -(-self.config.max_lag_quanta // self._block_quanta)
        parked_skips = len(self._parked) * (min(reach, self._num_blocks) + 1)
        loud = {
            edge: blocks[-1]
            for edge, blocks in self._blocks.items()
            if not block_is_quiet(blocks[-1])
        }
        skipped = 0
        dormant: Dict[RefKey, List[EdgeKey]] = {}
        for ref_edge, bank in self._banks.items():
            skipped += self._append_group(ref_edge, bank, loud)
            if ref_edge not in loud:
                rows = np.flatnonzero(bank.dormant())
                if rows.size:
                    dormant[ref_edge] = [bank.keys[row] for row in rows]
        parked_skips -= self._wake_parked()
        for ref_edge, edges in dormant.items():
            self._drop_rows(ref_edge, edges)
            self._parked.update((ref_edge, edge) for edge in edges)
        self.metrics.counter(*CorrelatorBank.SKIPS_COUNTER).inc(parked_skips)
        self._refresh_skips = skipped + parked_skips
        self._m_batch.observe(time.perf_counter() - started)

    def _wake_parked(self) -> int:
        """Replay from history every parked row one of whose edges just
        received a non-quiet block. Returns the pair products the skipped
        appends would have computed: the diagonal of each woken pair with
        traffic on both edges (every older block is quiet)."""
        computed = 0
        for edge, blocks in self._blocks.items() if self._parked else ():
            if block_is_quiet(blocks[-1]):
                continue
            for key in self._parked.intersection(self._edge_keys.get(edge, ())):
                self._create_row(*key)
                computed += not any(block_is_quiet(self._blocks[e][-1]) for e in key)
        return computed

    def _group_vectors(
        self,
        x_block: RunLengthSeries,
        y_blocks: List[RunLengthSeries],
        y_stats: Tuple[np.ndarray, np.ndarray, np.ndarray],
        max_lag: int,
    ) -> Optional[np.ndarray]:
        """Pair-product rows of one pending x block against loud y blocks
        (``y_stats`` is their :func:`_run_stats`), dispatched row by row
        by a density cost model.

        The sparse batch kernel touches every (x sample, y sample) pair
        within ``max_lag``, so its cost explodes on smeared (near-dense)
        blocks, where the run-length kernel -- whose cost scales with run
        counts, not sample counts -- stays flat. Spike trains are the
        opposite regime. Once rows go genuinely dense (flash crowd, batch
        surge) even the RLE kernel's run-pair count blows up, and the
        batched FFT kernel -- whose ``size * log2(size)`` cost is fixed
        by the window, independent of density -- takes over. All three
        estimates are pure functions of the blocks, so grouped appends
        and history replays make the identical choice and stay
        bit-for-bit reproducible. The sparse and RLE kernels produce
        bitwise-identical lag products, so their choice never changes the
        output; FFT rows agree to the documented float tolerance.

        Kernel timing is recorded per dispatch group (a handful of
        ``perf_counter`` calls per pending x block), never per row.
        """
        if block_is_quiet(x_block):
            return None
        y_runs, y_nnz, y_span = y_stats
        x_nnz = x_block.nnz
        sparse_units = sparse_dispatch_units(x_nnz, y_nnz, y_span, max_lag)
        rle_units = rle_dispatch_units(x_block.num_runs, y_runs)
        # One shared 5-smooth plan length for the whole group: every
        # member block covers the same window as the head block.
        fft_size = fft_length(int(x_block.length) + int(y_blocks[0].length) - 1)
        fft_units_row = fft_dispatch_units(int(y_blocks[0].length), fft_size)
        kernels = np.broadcast_to(
            choose_batch_kernel(sparse_units, rle_units, fft_units_row), y_runs.shape
        )
        out: Optional[np.ndarray] = None
        for kernel in ("fft", "rle", "sparse"):
            rows = np.flatnonzero(kernels == kernel)
            if not rows.size:
                continue
            picked = [y_blocks[i] for i in rows]
            started = time.perf_counter()
            if kernel == "fft":
                mat = fft_batch_lag_products(
                    x_block, picked, max_lag, size=fft_size, cache=self._spectra
                )
                # Dense samples transformed: 8 bytes per quantum of the x
                # block plus every routed y block (spectra cache hits skip
                # the transform but still read the padded product row).
                self.ledger.record_kernel(
                    KERNEL_FFT_BATCH,
                    rows=rows.size,
                    seconds=time.perf_counter() - started,
                    work_units=fft_units_row * rows.size,
                    bytes_touched=8 * (
                        int(x_block.length) + int(y_blocks[0].length) * rows.size
                    ),
                )
            elif kernel == "rle":
                mat = rle_batch_lag_products(x_block, picked, max_lag)
                # RunLengthSeries data: starts + counts (int64) + values
                # (float64) = 24 bytes per run.
                self.ledger.record_kernel(
                    KERNEL_RLE,
                    rows=rows.size,
                    seconds=time.perf_counter() - started,
                    work_units=float(np.cumsum(rle_units[rows])[-1]),
                    bytes_touched=24 * int(
                        x_block.num_runs * rows.size + y_runs[rows].sum()
                    ),
                )
            else:
                mat = batch_lag_products(
                    x_block.to_sparse(), [y.to_sparse() for y in picked], max_lag
                )
                # DensityTimeSeries data: indices (int64) + values (float64)
                # = 16 bytes per nonzero.
                self.ledger.record_kernel(
                    KERNEL_SPARSE_BATCH,
                    rows=rows.size,
                    seconds=time.perf_counter() - started,
                    work_units=float(np.cumsum(sparse_units[rows])[-1]),
                    bytes_touched=16 * int(x_nnz + y_nnz[rows].sum()),
                )
            if rows.size == len(y_blocks):
                return mat
            if out is None:
                out = np.empty((len(y_blocks), max_lag + 1))
            out[rows] = mat
        return out

    def _append_group(
        self,
        ref_edge: RefKey,
        bank: CorrelatorBank,
        loud: Dict[EdgeKey, RunLengthSeries],
    ) -> int:
        """Append the newest blocks to every row of one reference group: a
        kernel call per pending x block over its loud rows, then one
        indexed add. Returns the pair products skipped as quiet."""
        x_new = self._blocks[ref_edge][-1]
        n = len(bank)
        with self.tracer.span(
            "correlator.append", ref=f"{ref_edge[0]}->{ref_edge[1]}", rows=n
        ):
            rows = [row for row, edge in enumerate(bank.keys) if edge in loud]
            y_moments = np.zeros((n, 2))
            y_quiet = np.ones(n, dtype=bool)
            xs = bank.pending_blocks() + [x_new]
            mats: List[Optional[np.ndarray]] = [None] * len(xs)
            if rows:
                y_blocks = [loud[bank.keys[row]] for row in rows]
                y_moments[rows] = [(y.total(), y.energy()) for y in y_blocks]
                y_quiet[rows] = False
            if rows and not all(block_is_quiet(x_p) for x_p in xs):
                y_stats = _run_stats(y_blocks)
                max_lag = self.config.max_lag_quanta
                mats = [self._group_vectors(x_p, y_blocks, y_stats, max_lag) for x_p in xs]
            slide_started = time.perf_counter()
            skipped = bank.append(
                x_new, y_moments, y_quiet, np.array(rows, dtype=np.int64), mats
            )
            if len(rows) < n:
                # Quiet rows call no kernel; ledger them, with their share
                # of the slide, as one legacy_pair sample per group.
                self.ledger.record_kernel(
                    KERNEL_LEGACY,
                    rows=n - len(rows),
                    seconds=(time.perf_counter() - slide_started) * (n - len(rows)) / n,
                )
        return skipped

    # -- spike provider (plugged into pathmap) ---------------------------------

    def _provide_spikes(
        self, window: TraceWindow, ref_key: RefKey, edge_key: EdgeKey
    ) -> List[Spike]:
        bank = self._banks.get(ref_key)
        row = None if bank is None else bank.rows.get(edge_key)
        if row is None:
            self._refresh_cache_misses += 1
            self._m_cache_misses.inc()
            bank, row = self._create_row(ref_key, edge_key)
        else:
            self._refresh_cache_hits += 1
            self._m_cache_hits.inc()
        if bank.serve(row):
            self._refresh_corr_cache_hits += 1
        if bank.spikes[row] is None:
            self._scan(ref_key, bank, row)
        return bank.spikes[row]

    def _scan(self, ref_key: RefKey, bank: CorrelatorBank, row: int) -> None:
        """Normalize ``row`` and every other row of ``bank`` whose answer
        changed and whose edge the DFS may ask about (one with samples in
        the window), and scan them for spikes, in one 2-D pass."""
        cfg = self.config
        rows = bank.stale_rows()
        rows = rows[(rows == row) | bank.y_active()[rows]]
        for stale in rows:
            bank.spikes[stale] = []  # what degenerate rows and short windows keep
        if bank.window_length < cfg.min_overlap_samples:
            return
        values, degenerate = bank.normalize(
            rows,
            self._boundary_mass(ref_key, newest=True),
            np.array([self._boundary_mass(bank.keys[r], newest=False) for r in rows]),
        )
        scanned = detect_spike_rows(
            values[~degenerate],
            cfg.quantum,
            sigma=cfg.spike_sigma,
            resolution_quanta=cfg.resolution_quanta,
            min_height=cfg.min_spike_height,
        )
        for live, spikes in zip(rows[~degenerate], scanned):
            bank.spikes[live] = spikes

    def _boundary_mass(self, edge: EdgeKey, newest: bool) -> np.ndarray:
        """This refresh's :func:`boundary_mass` of one edge's window, shared
        by every correlator with the edge on that side (x tail: all of a
        reference group; y head: every class correlating the edge)."""
        key = (edge, newest)
        mass = self._boundary.get(key)
        if mass is None:
            mass = self._boundary[key] = boundary_mass(
                self._blocks[edge], self.config.max_lag_quanta, newest
            )
        return mass

    def _create_row(self, ref_key: RefKey, edge_key: EdgeKey) -> Tuple[CorrelatorBank, int]:
        ref_blocks = self._blocks.get(ref_key)
        edge_blocks = self._blocks.get(edge_key)
        if ref_blocks is None or edge_blocks is None:
            raise AnalysisError(
                f"no block history for correlator {ref_key} x {edge_key}"
            )
        bank = self._banks.get(ref_key)
        if bank is None:
            bank = self._banks[ref_key] = CorrelatorBank(
                max_lag=self.config.max_lag_quanta,
                num_blocks=self._num_blocks,
                quantum=self.config.quantum,
                metrics=self.metrics,
                evict_hook=self._summary_hook(ref_key),
            )
        # Replay the history through single-row calls of the kernels the
        # grouped append uses, with its quiet skips and kernel dispatch:
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
            mats = [
                self._group_vectors(x_p, [y_block], y_stats, max_lag) for x_p in paired
            ]
            vectors.append([None if mat is None else mat[0] for mat in mats])
        row = bank.add_row(edge_key, x_blocks, list(edge_blocks), vectors)
        key = (ref_key, edge_key)
        self._parked.discard(key)
        for edge in key:
            self._edge_keys.setdefault(edge, set()).add(key)
        return bank, row

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
        return sum(len(bank) for bank in self._banks.values())

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
