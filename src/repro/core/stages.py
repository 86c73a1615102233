"""Shared pipeline-stage machinery for analysis hosts.

The online engine's refresh is four explicit stages -- **ingest ->
correlate -> DFS -> publish**, the exact stage names the refresh ledger
records (:data:`repro.obs.ledger.PIPELINE_STAGES`). The middle two
stages operate on one bundle of state: the aligned per-edge block
history, the incremental correlator cache keyed ``(reference, edge)``,
and the kernels that append fresh blocks into those correlators.

That bundle lives here, as :class:`PipelineCore` -- a mixin hosted by
two different owners:

* :class:`repro.core.engine.E2EProfEngine` itself (serial and thread
  modes run everything in-process), and
* :class:`repro.core.shards.ShardWorkerState`, the per-process state of
  one consistent-hash shard under ``parallel="processes"`` -- every
  worker mirrors the full block history (blocks arrive zero-copy via
  shared memory) but maintains correlators only for its owned service
  classes.

Both hosts run byte-for-byte the same append/replay/dispatch code, which
is what makes the sharded refresh bit-identical to the serial one: a
correlator's contents depend only on the block history and the append
order, never on which process performed the appends.

Host contract (attributes every :class:`PipelineCore` host provides):

``config`` (:class:`~repro.config.PathmapConfig`), ``metrics``
(:class:`~repro.obs.registry.MetricsRegistry`), ``tracer``
(:class:`~repro.obs.spans.SpanTracer`), ``ledger``
(:class:`~repro.obs.ledger.LedgerRecorder`), ``batched`` /
``measured_dispatch`` (bools), ``fft_dispatch`` (``"auto"`` / ``"off"``
/ ``"force"``), ``_spectra`` (a
:class:`~repro.core.correlation.SpectrumCache` of block FFT spectra),
``_pool`` (optional thread executor), ``_clients`` (set of client node
ids), ``_blocks`` / ``_correlators`` (the window state), ``_parked`` /
``_edge_keys`` (parked keys; edge -> its live and parked keys),
``_boundary`` (this refresh's per-(edge, side) boundary masses),
``_pathmap`` (the :class:`~repro.core.pathmap.Pathmap` whose spike memo
dies with the correlators),
``_num_blocks`` / ``_block_quanta`` / ``_refreshes`` (window geometry),
``_tally_lock`` plus the per-refresh ``_refresh_*`` tallies, and the
``_m_batch`` / ``_m_cache_hits`` / ``_m_cache_misses`` instruments.

**Parking.** A correlator whose whole window is quiet on both sides
holds nothing its block history does not: the host drops it, keeps its
key in ``_parked``, and replays it from history the refresh either edge
receives a non-quiet block. A refresh thus visits the correlators that
can change, not every correlator ever created.
"""

from __future__ import annotations

import collections
import time
from typing import Deque, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.correlation import (
    CorrelationSeries,
    SeriesLike,
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
    IncrementalCorrelator,
    _concat_blocks,
    block_is_quiet,
    boundary_mass,
)
from repro.core.pathmap import TraceWindow
from repro.core.rle import RunLengthSeries
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


class PipelineCore:
    """Block-history + correlator machinery shared by analysis hosts.

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
            self._correlators.pop(key, None)
            self._parked.discard(key)
            for edge in key:
                self._edge_keys[edge].discard(key)
        self._pathmap.forget(dropped)
        return dropped

    # -- correlate stage -------------------------------------------------------

    def _append_to_correlators(self) -> None:
        if not self.batched:
            self._append_per_pair()
            return
        started = time.perf_counter()
        # Reference-grouped batch path: correlators sharing one reference
        # edge hold identical x-side windows (they replay the same block
        # history), so all their new pair products can come from one
        # batch_lag_products call per pending x block.
        groups: Dict[RefKey, List[Tuple[EdgeKey, IncrementalCorrelator]]] = {}
        for (ref_edge, edge), correlator in self._correlators.items():
            groups.setdefault(ref_edge, []).append((edge, correlator))
        if self._pool is not None and len(groups) > 1:
            results = list(self._pool.map(self._append_group, groups.items()))
        else:
            results = [self._append_group(item) for item in groups.items()]
        # A parked correlator's append would have skipped every pair slot;
        # count those without visiting it.
        reach = -(-self.config.max_lag_quanta // self._block_quanta)
        parked_skips = len(self._parked) * (min(reach, self._num_blocks) + 1)
        parked_skips -= self._wake_parked()
        for _, dormant in results:
            for key in dormant:
                del self._correlators[key]
                self._parked.add(key)
            self._pathmap.forget(dormant)
        self.metrics.counter(*IncrementalCorrelator.SKIPS_COUNTER).inc(parked_skips)
        self._refresh_skips = sum(skipped for skipped, _ in results) + parked_skips
        self._m_batch.observe(time.perf_counter() - started)

    def _wake_parked(self) -> int:
        """Replay from history every parked correlator one of whose edges
        just received a non-quiet block. Returns the pair products the
        skipped appends would have computed: the diagonal of each woken
        pair with traffic on both edges (every older block is quiet)."""
        computed = 0
        for edge, blocks in self._blocks.items() if self._parked else ():
            if block_is_quiet(blocks[-1]):
                continue
            for key in self._parked.intersection(self._edge_keys.get(edge, ())):
                self._create_correlator(*key)
                computed += not any(block_is_quiet(self._blocks[e][-1]) for e in key)
        return computed

    def _append_per_pair(self) -> None:
        """Legacy refresh: one kernel invocation per (reference, edge) pair.

        The whole loop is ledgered as one ``legacy_pair`` kernel sample
        (rows = correlator appends) -- per-append timing would cost more
        than the appends themselves on quiet windows.
        """
        kernel_started = time.perf_counter()
        try:
            if self.tracer.enabled:
                # Traced path: one span per correlator update, labelled by the
                # (reference, edge) pair it maintains.
                for (ref_edge, edge), correlator in self._correlators.items():
                    with self.tracer.span(
                        "correlator.append",
                        ref=f"{ref_edge[0]}->{ref_edge[1]}",
                        edge=f"{edge[0]}->{edge[1]}",
                    ):
                        correlator.append(self._blocks[ref_edge][-1], self._blocks[edge][-1])
                return
            # Untraced hot path: kept span-free so the disabled-tracing
            # overhead stays at one attribute check per refresh, not per edge.
            for (ref_edge, edge), correlator in self._correlators.items():
                ref_block = self._blocks[ref_edge][-1]
                edge_block = self._blocks[edge][-1]
                correlator.append(ref_block, edge_block)
        finally:
            self.ledger.record_kernel(
                KERNEL_LEGACY,
                rows=len(self._correlators),
                seconds=time.perf_counter() - kernel_started,
            )

    def _group_vectors(
        self,
        x_block: RunLengthSeries,
        y_blocks: List[RunLengthSeries],
        ys_sparse: List[SeriesLike],
        max_lag: int,
    ) -> Optional[np.ndarray]:
        """Pair-product rows of one pending x block against every batched
        group member, dispatched by a density cost model.

        The sparse batch kernel touches every (x sample, y sample) pair
        within ``max_lag``, so its cost explodes on smeared (near-dense)
        blocks, where the run-length kernel -- whose cost scales with run
        counts, not sample counts -- stays flat. Spike trains are the
        opposite regime. Once rows go genuinely dense (flash crowd, batch
        surge) even the RLE kernel's run-pair count blows up, and the
        batched FFT kernel -- whose ``size * log2(size)`` cost is fixed
        by the window, independent of density -- takes over. All three
        estimates are pure functions of the blocks, so grouped appends,
        history replays and parallel shards all make the identical choice
        and stay bit-for-bit reproducible.

        With ``measured_dispatch`` on (and the kernel EWMAs warmed), the
        comparison weighs each side's dispatch units by the ledger's
        *measured* ns/unit instead of the modeled constants. The sparse
        and RLE kernels produce bitwise-identical lag products, so their
        choice never changes the output; FFT rows agree to the documented
        float tolerance (``fft_dispatch="off"`` keeps everything
        bit-exact).

        Kernel timing is recorded per dispatch group (a handful of
        ``perf_counter`` calls per pending x block), never per row.
        """
        if block_is_quiet(x_block):
            return None
        xs = x_block.to_sparse()
        rows: List[Optional[np.ndarray]] = [None] * len(y_blocks)
        batched_rows: List[int] = []
        rle_rows: List[int] = []
        fft_rows: List[int] = []
        sparse_units_total = 0.0
        rle_units_total = 0.0
        ns_sparse = ns_rle = ns_fft = None
        if self.measured_dispatch:
            ns_sparse = self.ledger.ns_per_unit(KERNEL_SPARSE_BATCH)
            ns_rle = self.ledger.ns_per_unit(KERNEL_RLE)
            ns_fft = self.ledger.ns_per_unit(KERNEL_FFT_BATCH)
        fft_mode = self.fft_dispatch
        fft_size = 0
        fft_units_row: Optional[float] = None
        if fft_mode != "off" and y_blocks:
            # One shared 5-smooth plan length for the whole group: every
            # member block covers the same window as the head block.
            fft_size = fft_length(int(x_block.length) + int(y_blocks[0].length) - 1)
            fft_units_row = fft_dispatch_units(int(y_blocks[0].length), fft_size)
        for i, (y_block, ys) in enumerate(zip(y_blocks, ys_sparse)):
            if fft_mode == "force":
                fft_rows.append(i)
                continue
            span = max(int(ys.indices[-1]) - int(ys.indices[0]) + 1, 1)
            sparse_units = sparse_dispatch_units(
                xs.indices.size, ys.indices.size, span, max_lag
            )
            rle_units = rle_dispatch_units(x_block.num_runs, y_block.num_runs)
            kernel = choose_batch_kernel(
                sparse_units, rle_units, fft_units_row, ns_sparse, ns_rle, ns_fft
            )
            if kernel == "fft":
                fft_rows.append(i)
            elif kernel == "sparse":
                batched_rows.append(i)
                sparse_units_total += sparse_units
            else:
                rle_rows.append(i)
                rle_units_total += rle_units
        record = self.ledger.record_kernel if self.ledger.enabled else None
        if fft_rows:
            fft_started = time.perf_counter()
            mat_fft = fft_batch_lag_products(
                x_block,
                [y_blocks[i] for i in fft_rows],
                max_lag,
                size=fft_size or None,
                cache=self._spectra,
            )
            full_fft: Optional[np.ndarray] = None
            if len(fft_rows) == len(y_blocks):
                full_fft = mat_fft
            else:
                for r, i in enumerate(fft_rows):
                    rows[i] = mat_fft[r]
            if record is not None:
                # Dense samples transformed: 8 bytes per quantum of the x
                # block plus every routed y block (spectra cache hits skip
                # the transform but still read the padded product row).
                record(
                    KERNEL_FFT_BATCH,
                    rows=len(fft_rows),
                    seconds=time.perf_counter() - fft_started,
                    work_units=(fft_units_row or 0.0) * len(fft_rows),
                    bytes_touched=8 * (
                        int(x_block.length)
                        + int(y_blocks[0].length) * len(fft_rows)
                    ),
                )
            if full_fft is not None:
                return full_fft
        if rle_rows:
            rle_started = time.perf_counter()
            mat_rle = rle_batch_lag_products(
                x_block, [y_blocks[i] for i in rle_rows], max_lag
            )
            if record is not None:
                # RunLengthSeries data: starts + counts (int64) + values
                # (float64) = 24 bytes per run.
                record(
                    KERNEL_RLE,
                    rows=len(rle_rows),
                    seconds=time.perf_counter() - rle_started,
                    work_units=rle_units_total,
                    bytes_touched=24 * (
                        x_block.num_runs * len(rle_rows)
                        + sum(y_blocks[i].num_runs for i in rle_rows)
                    ),
                )
            if len(rle_rows) == len(y_blocks):
                return mat_rle
            for r, i in enumerate(rle_rows):
                rows[i] = mat_rle[r]
        if not batched_rows:
            return np.stack(rows)
        batch_started = time.perf_counter()
        if len(batched_rows) == len(y_blocks):
            mat = batch_lag_products(xs, ys_sparse, max_lag)
            out: Optional[np.ndarray] = mat
        else:
            mat = batch_lag_products(
                xs, [ys_sparse[i] for i in batched_rows], max_lag
            )
            for r, i in enumerate(batched_rows):
                rows[i] = mat[r]
            out = None
        if record is not None:
            # DensityTimeSeries data: indices (int64) + values (float64)
            # = 16 bytes per nonzero.
            record(
                KERNEL_SPARSE_BATCH,
                rows=len(batched_rows),
                seconds=time.perf_counter() - batch_started,
                work_units=sparse_units_total,
                bytes_touched=16 * (
                    xs.indices.size
                    + sum(ys_sparse[i].indices.size for i in batched_rows)
                ),
            )
        return out if out is not None else np.stack(rows)

    def _append_group(
        self,
        group: Tuple[RefKey, List[Tuple[EdgeKey, IncrementalCorrelator]]],
    ) -> Tuple[int, List[CorrelatorKey]]:
        """Append the newest blocks to every correlator of one reference
        group, batching all non-quiet edges into shared kernels. Returns
        the pair products skipped as quiet and the keys left dormant."""
        ref_edge, members = group
        x_new = self._blocks[ref_edge][-1]
        x_quiet = block_is_quiet(x_new)
        traced = self.tracer.enabled
        skipped = 0
        dormant: List[CorrelatorKey] = []
        # Split the group: quiet newest edge blocks produce zero vectors
        # only (the plain optimized append skips every kernel for them);
        # the rest share one batch per pending x block. A member whose
        # window disagrees with the group's (cannot happen through the
        # normal refresh cycle, but cheap to guard) also takes the plain
        # path, which computes its own kernels.
        batch: List[Tuple[EdgeKey, IncrementalCorrelator, RunLengthSeries]] = []
        plain: List[Tuple[EdgeKey, IncrementalCorrelator, RunLengthSeries]] = []
        canonical: Optional[List[SeriesLike]] = None
        for edge, correlator in members:
            y_new = self._blocks[edge][-1]
            if block_is_quiet(y_new):
                plain.append((edge, correlator, y_new))
                continue
            pending = correlator.pending_pair_blocks()
            if canonical is None:
                canonical = pending
            elif len(pending) != len(canonical) or any(
                a is not b for a, b in zip(pending, canonical)
            ):
                plain.append((edge, correlator, y_new))
                continue
            batch.append((edge, correlator, y_new))
        if batch:
            max_lag = self.config.max_lag_quanta
            y_blocks = [y for _, _, y in batch]
            ys = [
                y.to_sparse() if isinstance(y, RunLengthSeries) else y
                for y in y_blocks
            ]
            mats = [
                self._group_vectors(x_p, y_blocks, ys, max_lag)
                for x_p in list(canonical or []) + [x_new]
            ]
            for row, (edge, correlator, y_new) in enumerate(batch):
                vectors = [None if m is None else m[row].copy() for m in mats]
                if traced:
                    with self.tracer.span(
                        "correlator.append",
                        ref=f"{ref_edge[0]}->{ref_edge[1]}",
                        edge=f"{edge[0]}->{edge[1]}",
                    ):
                        skipped += correlator.append(x_new, y_new, pair_vectors=vectors)
                else:
                    skipped += correlator.append(x_new, y_new, pair_vectors=vectors)
        if plain:
            # Quiet / mismatched members take the per-pair append path
            # (which computes its own kernels); ledger them as one
            # legacy_pair sample per group.
            plain_started = time.perf_counter()
            for edge, correlator, y_new in plain:
                if traced:
                    with self.tracer.span(
                        "correlator.append",
                        ref=f"{ref_edge[0]}->{ref_edge[1]}",
                        edge=f"{edge[0]}->{edge[1]}",
                    ):
                        skipped += correlator.append(x_new, y_new)
                else:
                    skipped += correlator.append(x_new, y_new)
                if x_quiet and correlator.dormant:
                    dormant.append((ref_edge, edge))
            self.ledger.record_kernel(
                KERNEL_LEGACY,
                rows=len(plain),
                seconds=time.perf_counter() - plain_started,
            )
        return skipped, dormant

    # -- correlation provider (plugged into pathmap) ---------------------------

    def _provide_correlation(
        self, window: TraceWindow, ref_key: RefKey, edge_key: EdgeKey
    ) -> CorrelationSeries:
        correlator = self._correlators.get((ref_key, edge_key))
        if correlator is None:
            with self._tally_lock:
                self._refresh_cache_misses += 1
            self._m_cache_misses.inc()
            correlator = self._create_correlator(ref_key, edge_key)
        else:
            with self._tally_lock:
                self._refresh_cache_hits += 1
            self._m_cache_hits.inc()
        if correlator.result_cached:
            with self._tally_lock:
                self._refresh_corr_cache_hits += 1
            return correlator.correlation()
        return correlator.correlation(
            self._boundary_mass(ref_key, newest=True),
            self._boundary_mass(edge_key, newest=False),
        )

    def _boundary_mass(self, edge: EdgeKey, newest: bool) -> np.ndarray:
        """This refresh's :func:`boundary_mass` of one edge's window, shared
        by every correlator with the edge on that side (x tail: all of a
        reference group; y head: every class correlating the edge). Two
        DFS threads may race to fill an entry with bitwise-equal arrays."""
        key = (edge, newest)
        mass = self._boundary.get(key)
        if mass is None:
            mass = self._boundary[key] = boundary_mass(
                self._blocks[edge], self.config.max_lag_quanta, newest
            )
        return mass

    def _summary_hook(self, ref_key: RefKey, edge_key: EdgeKey):
        """Optional eviction hook for new correlators. The engine
        overrides this to materialize trace-lake summaries; the shared
        core (and shard workers) have no lake, so the default is None."""
        return None

    def _create_correlator(self, ref_key: RefKey, edge_key: EdgeKey) -> IncrementalCorrelator:
        ref_blocks = self._blocks.get(ref_key)
        edge_blocks = self._blocks.get(edge_key)
        if ref_blocks is None or edge_blocks is None:
            raise AnalysisError(
                f"no block history for correlator {ref_key} x {edge_key}"
            )
        correlator = IncrementalCorrelator(
            max_lag=self.config.max_lag_quanta,
            num_blocks=self._num_blocks,
            quantum=self.config.quantum,
            metrics=self.metrics,
            optimized=self.batched,
            evict_hook=self._summary_hook(ref_key, edge_key),
        )
        for ref_block, edge_block in zip(ref_blocks, edge_blocks):
            if self.batched:
                # Replay through the same batch kernel the grouped append
                # uses, so a correlator rebuilt from history (new service
                # class, transport late-block invalidation) is bit-identical
                # to one maintained incrementally across refreshes.
                self._batched_replay(correlator, ref_block, edge_block)
            else:
                correlator.append(ref_block, edge_block)
        key = (ref_key, edge_key)
        self._correlators[key] = correlator
        self._parked.discard(key)
        for edge in key:
            self._edge_keys.setdefault(edge, set()).add(key)
        return correlator

    def _batched_replay(
        self,
        correlator: IncrementalCorrelator,
        x_block: RunLengthSeries,
        y_block: RunLengthSeries,
    ) -> int:
        """One append computed via single-row :meth:`_group_vectors` calls
        (the quiet-skip and kernel-dispatch structure mirrors the grouped
        path exactly, so a replayed correlator is bit-identical to a
        maintained one)."""
        if block_is_quiet(y_block):
            return correlator.append(x_block, y_block)
        max_lag = self.config.max_lag_quanta
        y_blocks = [y_block]
        ys = [y_block.to_sparse() if isinstance(y_block, RunLengthSeries) else y_block]
        vectors: List[Optional[np.ndarray]] = []
        for x_p in correlator.pending_pair_blocks() + [x_block]:
            mat = self._group_vectors(x_p, y_blocks, ys, max_lag)
            vectors.append(None if mat is None else mat[0])
        return correlator.append(x_block, y_block, pair_vectors=vectors)

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
        return len(self._correlators)


class HostWindow(TraceWindow):
    """TraceWindow view over a :class:`PipelineCore` host's block history.

    Works identically over the engine and over a shard worker's mirrored
    state -- both expose ``_active_edges`` / ``_clients`` /
    ``_edge_series`` -- so parent and workers derive the same class
    pairs from the same window.
    """

    def __init__(self, host: PipelineCore) -> None:
        self._host = host
        self._active = host._active_edges()
        self._clients = host._clients

    def front_end_nodes(self) -> List[NodeId]:
        return sorted(
            {
                dst
                for (src, dst) in self._active
                if src in self._clients and dst not in self._clients
            }
        )

    def clients_of(self, node: NodeId) -> List[NodeId]:
        return sorted(
            src for (src, dst) in self._active if dst == node and src in self._clients
        )

    def destinations_of(self, node: NodeId) -> List[NodeId]:
        return sorted(dst for (src, dst) in self._active if src == node)

    def is_client(self, node: NodeId) -> bool:
        return node in self._clients

    def edge_series(self, src: NodeId, dst: NodeId) -> DensityTimeSeries:
        return self._host._edge_series((src, dst))
