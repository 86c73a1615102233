"""Process-parallel correlate/DFS sharding for the online engine.

``parallel="processes"`` scales the refresh past the GIL: the engine
partitions its **service classes** -- the ``(client, front_end)`` pairs
that key both the reference-grouped correlator batches and the pathmap
DFS loop -- across worker *processes* with a consistent-hash shard map,
ships each refresh's fresh blocks to every worker through one
``multiprocessing.shared_memory`` segment (the RLE columns are already
contiguous ``int64``/``float64`` arrays, so workers get zero-copy
views), and merges the disjoint per-shard partial pathmaps back into the
global result.

Design points that make the sharded refresh **bit-identical to serial**:

* The shard unit is the service class. A correlator group shares one
  reference edge -- the class key -- so an entire group (and the DFS of
  the class it feeds) lands on exactly one shard, and the group's batch
  kernels run with exactly the serial membership.
* Every worker mirrors the *full* block history (store/patch/blank all
  follow the parent, via :class:`~repro.core.stages.PipelineCore`), but
  maintains correlators only for classes it owns. Rebalancing therefore
  never moves state: a reassigned class is rebuilt lazily from mirrored
  history through the same replay path that already guarantees
  bit-identical correlators (``PipelineCore._create_correlator``).
* Workers ship exact per-refresh tallies (cache hits/misses, quiet
  skips, correlation-cache hits) and counter *deltas* from their own
  metrics registries, which the parent folds into its registry -- so
  observable counters match the serial run to the integer.

Fault handling: a worker that dies mid-refresh loses only its shard's
classes for that refresh. The parent completes the merge without them,
marks the affected edges :data:`~repro.tracing.transport.QUALITY_DEGRADED`,
publishes :data:`~repro.obs.events.EVENT_SHARD_LOST`, and respawns the
shard from its own mirrored history before the next refresh.
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import logging
import multiprocessing
import threading
import time
import traceback
from bisect import bisect_right
from multiprocessing import shared_memory
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.config import PathmapConfig
from repro.core.pathmap import Pathmap, class_pairs
from repro.core.correlation import SpectrumCache
from repro.core.rle import RunLengthSeries
from repro.core.stages import EdgeKey, HostWindow, PipelineCore, RefKey
from repro.errors import AnalysisError
from repro.obs.instruments import Counter
from repro.obs.ledger import LedgerRecorder
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import SpanTracer

logger = logging.getLogger(__name__)

#: Virtual nodes per shard on the consistent-hash ring. More vnodes give
#: a smoother key distribution; 64 keeps ring rebuilds trivially cheap
#: while bounding per-shard imbalance to a few percent at realistic
#: class counts.
DEFAULT_VNODES = 64

#: How long (seconds) ``close`` waits for a worker to acknowledge before
#: escalating to terminate/kill.
_CLOSE_GRACE = 5.0


def _hash64(data: bytes) -> int:
    """Stable 64-bit hash. ``hashlib.blake2b`` rather than ``hash()``:
    Python string hashing is salted per process, and shard ownership
    must agree across the parent and every worker."""
    return int.from_bytes(
        hashlib.blake2b(data, digest_size=8).digest(), "big"
    )


def _key_bytes(key: Tuple[object, ...]) -> bytes:
    """Canonical byte form of a class key (tuple of node ids)."""
    return "\x1f".join(str(part) for part in key).encode("utf-8")


class ShardMap:
    """Consistent-hash assignment of class keys to ``num_shards`` shards.

    Each shard owns :data:`DEFAULT_VNODES` points on a 64-bit ring; a key
    belongs to the shard owning the first ring point at or after the
    key's hash (wrapping). Because shard ``i``'s points depend only on
    ``i``, growing the map from ``n`` to ``n + 1`` shards leaves every
    point of shards ``0..n-1`` in place: a key changes owner **only** by
    moving to the new shard ``n`` (and shrinking is the exact inverse).
    That is the "rebalance without recompute" property -- roughly
    ``K / N`` of ``K`` keys move per step, and the rest keep their
    correlator state where it is.
    """

    def __init__(self, num_shards: int, vnodes: int = DEFAULT_VNODES) -> None:
        if num_shards < 1:
            raise AnalysisError(f"num_shards must be >= 1, got {num_shards}")
        if vnodes < 1:
            raise AnalysisError(f"vnodes must be >= 1, got {vnodes}")
        self.num_shards = int(num_shards)
        self.vnodes = int(vnodes)
        points: List[Tuple[int, int]] = []
        for shard in range(self.num_shards):
            for v in range(self.vnodes):
                points.append((_hash64(f"shard:{shard}:vnode:{v}".encode()), shard))
        points.sort()
        self._points = [p for p, _ in points]
        self._owners = [s for _, s in points]

    def owner(self, key: Tuple[object, ...]) -> int:
        """The shard that owns ``key`` (deterministic across processes)."""
        if self.num_shards == 1:
            return 0
        h = _hash64(_key_bytes(key))
        index = bisect_right(self._points, h)
        if index == len(self._points):
            index = 0  # wrap past the highest ring point
        return self._owners[index]

    def partition(
        self, keys: Sequence[Tuple[object, ...]]
    ) -> Dict[int, List[Tuple[object, ...]]]:
        """Split ``keys`` into per-shard lists (every shard present,
        possibly empty; input order preserved within each shard)."""
        out: Dict[int, List[Tuple[object, ...]]] = {
            shard: [] for shard in range(self.num_shards)
        }
        for key in keys:
            out[self.owner(key)].append(key)
        return out


# -- shared-memory block shipment ----------------------------------------------

#: Per-edge shipment header:
#: (edge, start, length, quantum, num_runs, offset, spec_offset, spec_size).
#: ``spec_offset`` is -1 (and ``spec_size`` 0) when no warm FFT spectrum
#: rides along for the edge's block.
BlockHeader = Tuple[EdgeKey, int, int, float, int, int, int, int]


def pack_blocks(
    fresh: Dict[EdgeKey, RunLengthSeries],
    spectra: Optional[Dict[EdgeKey, Tuple[int, np.ndarray]]] = None,
) -> Tuple[Optional[shared_memory.SharedMemory], List[BlockHeader]]:
    """Lay one refresh's fresh blocks into a single shared-memory segment.

    Layout per edge, 8-byte aligned by construction (24 bytes per run):
    ``starts`` (int64) | ``counts`` (int64) | ``values`` (float64). The
    tiny header travels over the control pipe; only the columnar arrays
    go through shared memory. Returns ``(None, header)`` when there are
    no runs to ship (workers then rebuild every block as empty).

    ``spectra`` optionally maps edges to ``(fft_size, rfft spectrum)``
    pairs (complex128). They are appended after the run payload and the
    header records where, so every shard worker can seed its
    :class:`~repro.core.correlation.SpectrumCache` instead of
    re-transforming the same fresh block once per shard.
    """
    spectra = spectra or {}
    header: List[BlockHeader] = []
    offset = 0
    for edge in sorted(fresh):
        block = fresh[edge]
        runs = int(block.num_runs)
        header.append(
            (edge, int(block.start), int(block.length), float(block.quantum), runs, offset)
        )
        offset += 24 * runs
    if offset == 0:
        return None, [entry + (-1, 0) for entry in header]
    # Spectrum payload rides after the runs, 16-byte aligned for the
    # complex128 views.
    full_header: List[BlockHeader] = []
    spec_plan: List[Tuple[EdgeKey, int, int, np.ndarray]] = []
    for entry in header:
        edge = entry[0]
        shipped = spectra.get(edge)
        if shipped is None:
            full_header.append(entry + (-1, 0))
            continue
        size, spec = shipped
        offset = (offset + 15) & ~15
        full_header.append(entry + (offset, int(size)))
        spec_plan.append((edge, offset, int(spec.size), spec))
        offset += 16 * spec.size
    shm = shared_memory.SharedMemory(create=True, size=offset)
    for (edge, _, _, _, runs, off, _, _) in full_header:
        if not runs:
            continue
        block = fresh[edge]
        out = np.frombuffer(shm.buf, dtype=np.int64, count=runs, offset=off)
        out[:] = block.starts
        out = np.frombuffer(shm.buf, dtype=np.int64, count=runs, offset=off + 8 * runs)
        out[:] = block.counts
        out = np.frombuffer(shm.buf, dtype=np.float64, count=runs, offset=off + 16 * runs)
        out[:] = block.values
        del out  # drop the buffer export before the segment is ever closed
    for (_, off, count, spec) in spec_plan:
        out = np.frombuffer(shm.buf, dtype=np.complex128, count=count, offset=off)
        out[:] = spec
        del out
    return shm, full_header


def unpack_blocks(
    shm: Optional[shared_memory.SharedMemory], header: List[BlockHeader]
) -> Dict[EdgeKey, RunLengthSeries]:
    """Rebuild the fresh-block dict from a shipment, as zero-copy views.

    ``RunLengthSeries`` passes arrays through ``np.asarray``, so the
    views returned here alias the shared segment directly -- the worker
    never copies block data it only reads.
    """
    fresh: Dict[EdgeKey, RunLengthSeries] = {}
    for (edge, start, length, quantum, runs, off, *_rest) in header:
        if runs and shm is not None:
            starts = np.frombuffer(shm.buf, dtype=np.int64, count=runs, offset=off)
            counts = np.frombuffer(shm.buf, dtype=np.int64, count=runs, offset=off + 8 * runs)
            values = np.frombuffer(shm.buf, dtype=np.float64, count=runs, offset=off + 16 * runs)
        else:
            starts = np.empty(0, dtype=np.int64)
            counts = np.empty(0, dtype=np.int64)
            values = np.empty(0, dtype=np.float64)
        fresh[tuple(edge)] = RunLengthSeries(starts, counts, values, start, length, quantum)
    return fresh


def seed_spectra(
    shm: Optional[shared_memory.SharedMemory],
    header: List[BlockHeader],
    fresh: Dict[EdgeKey, RunLengthSeries],
    cache: SpectrumCache,
) -> int:
    """Seed a worker's spectrum cache from a shipment's spectra payload.

    Copies each shipped spectrum out of the segment (a memcpy, versus
    the ``rfft`` it replaces) so the cache never pins the mapping, and
    seeds it against the *unpacked block object* -- the same object that
    lands in block history and reaches the batch kernels, which is what
    the cache's identity keying requires. Returns how many spectra were
    seeded.
    """
    if shm is None:
        return 0
    seeded = 0
    for entry in header:
        if len(entry) < 8:
            continue
        edge, _, _, _, _, _, spec_off, spec_size = entry
        if spec_off < 0:
            continue
        count = spec_size // 2 + 1
        view = np.frombuffer(
            shm.buf, dtype=np.complex128, count=count, offset=spec_off
        )
        cache.seed(fresh[tuple(edge)], int(spec_size), view.copy())
        del view
        seeded += 1
    return seeded


def block_tuple(block: RunLengthSeries) -> tuple:
    """Picklable copy of one block (detached from any shared segment) --
    the bootstrap/late-block wire form on the control pipe."""
    return (
        np.array(block.starts, dtype=np.int64),
        np.array(block.counts, dtype=np.int64),
        np.array(block.values, dtype=np.float64),
        int(block.start),
        int(block.length),
        float(block.quantum),
    )


def block_from_tuple(doc: tuple) -> RunLengthSeries:
    starts, counts, values, start, length, quantum = doc
    return RunLengthSeries(starts, counts, values, start, length, quantum)


# -- worker protocol -----------------------------------------------------------


@dataclasses.dataclass
class ShardPartial:
    """One shard worker's complete contribution to one refresh."""

    shard: int
    graphs: Dict[RefKey, object]
    correlations: int = 0
    spikes: int = 0
    edges_discovered: int = 0
    graph_count: int = 0
    nodes_visited: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    skips: int = 0
    corr_cache_hits: int = 0
    correlators: int = 0
    parked: int = 0
    classes: int = 0
    correlate_seconds: float = 0.0
    dfs_seconds: float = 0.0
    #: kernel -> (rows, seconds, work_units, bytes_touched) this refresh.
    kernels: Dict[str, Tuple[int, float, float, int]] = dataclasses.field(
        default_factory=dict
    )
    #: Counter increments this refresh: (name, labels_key, help, delta).
    counters: List[Tuple[str, tuple, str, float]] = dataclasses.field(
        default_factory=list
    )


class ShardWorkerState(PipelineCore):
    """Per-process analysis state of one shard (runs in the worker).

    Hosts the same :class:`~repro.core.stages.PipelineCore` machinery as
    the engine, over a mirrored full block history, with correlators for
    owned classes only. Owns a private metrics registry and ledger whose
    per-refresh movements are shipped back to the parent.
    """

    def __init__(self, spec: dict) -> None:
        self.config: PathmapConfig = spec["config"]
        self._clients: Set[object] = set(spec["clients"])
        self.batched: bool = spec["batched"]
        self.measured_dispatch: bool = spec["measured_dispatch"]
        self.fft_dispatch: str = spec["fft_dispatch"]
        self._spectra = SpectrumCache()
        self.metrics = MetricsRegistry(enabled=spec["metrics_enabled"])
        self.tracer = SpanTracer()
        self.ledger = LedgerRecorder(enabled=spec["ledger_enabled"])
        self.shard: int = spec["shard"]
        self.map = ShardMap(spec["num_shards"])
        self._pool = None
        self._num_blocks: int = spec["num_blocks"]
        self._block_quanta: int = spec["block_quanta"]
        self._refreshes: int = spec["refreshes"]
        self._blocks: Dict[EdgeKey, Deque[RunLengthSeries]] = {
            tuple(edge): collections.deque(
                (block_from_tuple(doc) for doc in docs), maxlen=self._num_blocks
            )
            for edge, docs in spec["history"].items()
        }
        self._correlators: Dict[Tuple[RefKey, EdgeKey], object] = {}
        self._parked: Set[Tuple[RefKey, EdgeKey]] = set()
        self._edge_keys: Dict[EdgeKey, Set[Tuple[RefKey, EdgeKey]]] = {}
        self._boundary: Dict[Tuple[EdgeKey, bool], np.ndarray] = {}
        self._tally_lock = threading.Lock()
        self._refresh_cache_hits = 0
        self._refresh_cache_misses = 0
        self._refresh_skips = 0
        self._refresh_corr_cache_hits = 0
        m = self.metrics
        self._m_batch = m.histogram(
            "correlator_batch_seconds",
            "Seconds per refresh spent in the reference-grouped batch append",
        )
        self._m_cache_hits = m.counter(
            "engine_correlator_cache_hits_total",
            "Correlations served by an existing incremental correlator",
        )
        self._m_cache_misses = m.counter(
            "engine_correlator_cache_misses_total",
            "Correlations that had to build a correlator from block history",
        )
        self._pathmap = Pathmap(
            self.config,
            correlation_provider=self._provide_correlation,
            metrics=self.metrics,
            tracer=self.tracer,
        )
        # Counter values already shipped to the parent, keyed
        # (name, labels_key): the next delta is value - mark.
        self._counter_marks: Dict[Tuple[str, tuple], float] = {}
        # Attached shipment segments, oldest first. A view of a segment
        # can live in block history (and correlator windows) for up to
        # _num_blocks refreshes, so mappings are released only once the
        # window has provably slid past them.
        self._segments: Deque[shared_memory.SharedMemory] = collections.deque()

    # -- refresh ---------------------------------------------------------------

    def refresh(self, msg: dict) -> ShardPartial:
        self._refreshes = msg["refreshes"]
        self._clients |= msg["clients"]
        shm: Optional[shared_memory.SharedMemory] = None
        if msg["shm"] is not None:
            shm = _attach_segment(msg["shm"])
            self._segments.append(shm)
            while len(self._segments) > self._num_blocks + 2:
                segment = self._segments.popleft()
                try:
                    segment.close()
                except BufferError:
                    # A view outlived the modeled retention; keep the
                    # mapping around and retry on a later refresh.
                    self._segments.append(segment)
                    break
        fresh = unpack_blocks(shm, msg["header"])
        if self.fft_dispatch != "off":
            # Warm spectra shipped by the parent: one rfft per block per
            # refresh fleet-wide instead of one per block per shard.
            seed_spectra(shm, msg["header"], fresh, self._spectra)
        pairs = msg["pairs"]
        self._refresh_cache_hits = 0
        self._refresh_cache_misses = 0
        self._refresh_skips = 0
        self._refresh_corr_cache_hits = 0
        self.ledger.begin_refresh()
        correlate_started = time.perf_counter()
        self._store_blocks(fresh, msg["block_start"])
        for edge, doc in msg["late"]:
            self._splice_block(tuple(edge), block_from_tuple(doc), msg["block_start"])
        self._append_to_correlators()
        correlate_seconds = time.perf_counter() - correlate_started
        dfs_started = time.perf_counter()
        window = HostWindow(self)
        result = self._pathmap.analyze(window, workers=1, pairs=pairs)
        dfs_seconds = time.perf_counter() - dfs_started
        kernels = self.ledger.kernel_tallies()
        # Completing the worker ledger warms its kernel-cost EWMAs, so
        # measured dispatch keeps adapting inside each shard.
        self.ledger.complete(
            msg["now"],
            self._refreshes - 1,
            correlate_seconds + dfs_seconds,
            skips=self._refresh_skips,
            cache_hits=self._refresh_cache_hits,
        )
        return ShardPartial(
            shard=self.shard,
            graphs=dict(result.graphs),
            correlations=result.stats.correlations,
            spikes=result.stats.spikes,
            edges_discovered=result.stats.edges_discovered,
            graph_count=result.stats.graphs,
            nodes_visited=result.stats.nodes_visited,
            cache_hits=self._refresh_cache_hits,
            cache_misses=self._refresh_cache_misses,
            skips=self._refresh_skips,
            corr_cache_hits=self._refresh_corr_cache_hits,
            correlators=len(self._correlators),
            parked=len(self._parked),
            classes=len(pairs),
            correlate_seconds=correlate_seconds,
            dfs_seconds=dfs_seconds,
            kernels={k: v for k, v in kernels.items() if v[0] or v[1]},
            counters=self._drain_counter_deltas(),
        )

    def _drain_counter_deltas(self) -> List[Tuple[str, tuple, str, float]]:
        """Counter increments since the last drain, for parent fold-in."""
        out: List[Tuple[str, tuple, str, float]] = []
        for inst in self.metrics.instruments():
            if not isinstance(inst, Counter):
                continue
            key = (inst.name, inst.labels)
            delta = inst.value - self._counter_marks.get(key, 0.0)
            # A zero delta still ships the first time the counter is
            # seen: the parent folds it with inc(0), which materialises
            # the counter so serial and sharded registries expose an
            # identical instrument set (not just identical values).
            if delta or key not in self._counter_marks:
                out.append((inst.name, inst.labels, inst.help, delta))
                self._counter_marks[key] = inst.value
        return out

    # -- control ---------------------------------------------------------------

    def reshard(self, num_shards: int) -> None:
        """Adopt a new shard map; drop correlators for classes no longer
        owned (a reassigned class rebuilds lazily -- and bit-identically
        -- from mirrored history on its new owner)."""
        self.map = ShardMap(num_shards)
        self._drop_correlators(
            key
            for key in (*self._correlators, *self._parked)
            if self.map.owner(key[0]) != self.shard
        )

    def rewindow(self, cutoff_quantum: int) -> None:
        self._blank_history(cutoff_quantum)

    def close(self) -> None:
        """Release every shared-memory mapping. Block history and
        correlator windows hold zero-copy views into the segments, so
        those references must be dropped (and collected) before the
        mmaps can close without ``BufferError``."""
        import gc

        self._blocks.clear()
        self._correlators.clear()
        self._pathmap = None  # type: ignore[assignment]
        gc.collect()
        while self._segments:
            segment = self._segments.popleft()
            try:
                segment.close()
            except BufferError:  # stray view: process exit reclaims the map
                segment._mmap = None  # type: ignore[attr-defined]
                segment._buf = None  # type: ignore[attr-defined]


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach (never create) a shipment segment. Only the parent -- who
    created the segment and will unlink it -- may own the resource-tracker
    registration; a worker registering its attach would make the tracker
    unlink (or warn about) segments it does not own. Python 3.13+ has
    ``track=False`` for exactly this; on older versions the registration
    hook is suppressed for the duration of the attach."""
    try:
        return shared_memory.SharedMemory(name=name, track=False)  # type: ignore[call-arg]
    except TypeError:
        pass
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None  # type: ignore[assignment]
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original  # type: ignore[assignment]


def _shard_worker_main(conn, spec: dict) -> None:
    """Worker process entry point: serve refresh/reshard/rewindow/close
    requests over the control pipe until told to stop."""
    state = ShardWorkerState(spec)
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            kind = message[0]
            try:
                if kind == "refresh":
                    conn.send(("ok", state.refresh(message[1])))
                elif kind == "reshard":
                    state.reshard(message[1])
                elif kind == "rewindow":
                    state.rewindow(message[1])
                elif kind == "close":
                    conn.send(("closed", state.shard))
                    break
                else:
                    conn.send(("error", f"unknown message kind {kind!r}"))
            except Exception:
                try:
                    conn.send(("error", traceback.format_exc()))
                except (BrokenPipeError, OSError):
                    break
    finally:
        state.close()
        conn.close()


# -- parent-side orchestration -------------------------------------------------


class _WorkerHandle:
    """One live shard worker: its process and control pipe."""

    __slots__ = ("shard", "process", "conn", "dispatched")

    def __init__(self, shard: int, process, conn) -> None:
        self.shard = shard
        self.process = process
        self.conn = conn
        #: True while a refresh request is outstanding (awaiting reply).
        self.dispatched = False

    @property
    def alive(self) -> bool:
        try:
            return self.process.is_alive()
        except ValueError:  # process object already close()d
            return False


class ShardedAnalysis:
    """Parent-side manager of the shard worker fleet.

    Owns worker lifecycle (spawn from mirrored history, respawn after a
    crash, reshard, shutdown), the shared-memory shipment ring, and the
    per-refresh dispatch/collect round. The engine drives it from its
    correlate and DFS stages; all policy that affects analysis output
    lives in the workers' shared :class:`PipelineCore` code.
    """

    def __init__(self, engine, num_shards: int) -> None:
        if num_shards < 1:
            raise AnalysisError(f"shards must be >= 1, got {num_shards}")
        self._engine = engine
        self.num_shards = int(num_shards)
        self.map = ShardMap(self.num_shards)
        self._workers: Dict[int, _WorkerHandle] = {}
        # Live shipment segments, oldest first; unlinked once every
        # worker's window has slid past them (depth bound mirrors the
        # workers' own segment retention).
        self._segments: Deque[shared_memory.SharedMemory] = collections.deque()
        if "fork" in multiprocessing.get_all_start_methods():
            self._ctx = multiprocessing.get_context("fork")
        else:  # pragma: no cover - non-POSIX fallback
            self._ctx = multiprocessing.get_context("spawn")
        #: Shards that died and were dropped from the latest refresh.
        self.lost_last_refresh: List[int] = []
        #: Shards respawned from history at the top of the latest refresh.
        self.respawned_last_refresh: List[int] = []
        #: Last reported (live, parked) correlator counts per shard.
        self.correlator_counts: Dict[int, Tuple[int, int]] = {}
        #: Workers respawned after a crash, all time.
        self.respawns = 0
        self._closed = False

    # -- lifecycle -------------------------------------------------------------

    def _spawn(self, shard: int) -> None:
        engine = self._engine
        parent_conn, child_conn = self._ctx.Pipe()
        spec = {
            "config": engine.config,
            "clients": set(engine._clients),
            "batched": engine.batched,
            "measured_dispatch": engine.measured_dispatch,
            "fft_dispatch": engine.fft_dispatch,
            "metrics_enabled": engine.metrics.enabled,
            "ledger_enabled": engine.ledger.enabled,
            "shard": shard,
            "num_shards": self.num_shards,
            "num_blocks": engine._num_blocks,
            "block_quanta": engine._block_quanta,
            "refreshes": engine._refreshes,
            # Deep, segment-detached copy of the parent's mirrored
            # history: exactly what the worker needs to rebuild any
            # owned correlator bit-identically.
            "history": {
                edge: [block_tuple(block) for block in deque_]
                for edge, deque_ in engine._blocks.items()
            },
        }
        process = self._ctx.Process(
            target=_shard_worker_main,
            args=(child_conn, spec),
            name=f"e2eprof-shard-{shard}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        self._workers[shard] = _WorkerHandle(shard, process, parent_conn)

    def ensure_workers(self) -> List[int]:
        """Spawn missing shards and respawn dead ones from the engine's
        current (pre-store) history. Call at the top of the correlate
        stage, before the refresh's blocks are stored, so a respawned
        worker bootstraps to exactly the other workers' pre-refresh
        state and then ingests the refresh message like everyone else."""
        respawned: List[int] = []
        for shard in range(self.num_shards):
            handle = self._workers.get(shard)
            if handle is not None and handle.alive:
                continue
            if handle is not None:
                handle.conn.close()
                handle.process.join(timeout=0.1)
                self.respawns += 1
            respawned.append(shard)
            self._spawn(shard)
        self.respawned_last_refresh = respawned
        return respawned

    # -- per-refresh round -----------------------------------------------------

    def dispatch(
        self,
        fresh: Dict[EdgeKey, RunLengthSeries],
        late: List[Tuple[EdgeKey, tuple]],
        block_start: int,
        now: float,
        pairs_by_shard: Dict[int, List[RefKey]],
        clients: Set[object],
        refreshes: int,
        spectra: Optional[Dict[EdgeKey, Tuple[int, np.ndarray]]] = None,
    ) -> None:
        """Ship one refresh (blocks via shared memory, control via pipe)
        to every worker. A send failure just marks the shard dead; the
        collect pass accounts for it."""
        shm, header = pack_blocks(fresh, spectra)
        if shm is not None:
            self._segments.append(shm)
            while len(self._segments) > self._engine._num_blocks + 2:
                old = self._segments.popleft()
                old.close()
                old.unlink()
        for shard in range(self.num_shards):
            handle = self._workers.get(shard)
            if handle is None or not handle.alive:
                continue
            message = (
                "refresh",
                {
                    "block_start": block_start,
                    "refreshes": refreshes,
                    "now": now,
                    "clients": set(clients),
                    "shm": shm.name if shm is not None else None,
                    "header": header,
                    "late": late,
                    "pairs": pairs_by_shard.get(shard, []),
                },
            )
            try:
                handle.conn.send(message)
                handle.dispatched = True
            except (BrokenPipeError, OSError):
                handle.dispatched = False

    def collect(self) -> Tuple[List[ShardPartial], List[int]]:
        """Await every dispatched worker's partial. Returns the partials
        (shard order) and the shards lost mid-refresh. A worker that
        *reports* an exception re-raises it here -- that is an analysis
        bug, not a process fault."""
        partials: List[ShardPartial] = []
        lost: List[int] = []
        for shard in range(self.num_shards):
            handle = self._workers.get(shard)
            if handle is None or not handle.dispatched:
                lost.append(shard)
                continue
            handle.dispatched = False
            try:
                reply = handle.conn.recv()
            except (EOFError, OSError):
                lost.append(shard)
                continue
            if reply[0] == "error":
                raise AnalysisError(
                    f"shard {shard} worker failed:\n{reply[1]}"
                )
            partial: ShardPartial = reply[1]
            self.correlator_counts[shard] = (partial.correlators, partial.parked)
            partials.append(partial)
        for shard in lost:
            self.correlator_counts.pop(shard, None)
        self.lost_last_refresh = lost
        return partials, lost

    # -- state queries / control ----------------------------------------------

    def correlator_total(self) -> int:
        """Live correlators across the fleet (last reported)."""
        return sum(live for live, _ in self.correlator_counts.values())

    def parked_total(self) -> int:
        """Parked correlators across the fleet (last reported)."""
        return sum(parked for _, parked in self.correlator_counts.values())

    def partition(self, pairs: List[RefKey]) -> Dict[int, List[RefKey]]:
        return self.map.partition(pairs)

    def reshard(self, num_shards: int) -> None:
        """Rebalance to ``num_shards`` at a refresh boundary: surviving
        workers drop no-longer-owned correlators, removed workers shut
        down, added workers spawn from the engine's mirrored history."""
        if num_shards < 1:
            raise AnalysisError(f"shards must be >= 1, got {num_shards}")
        if num_shards == self.num_shards:
            return
        old = self.num_shards
        self.num_shards = int(num_shards)
        self.map = ShardMap(self.num_shards)
        for shard in range(self.num_shards, old):
            handle = self._workers.pop(shard, None)
            if handle is not None:
                _stop_worker(handle)
        for shard in range(min(old, self.num_shards)):
            handle = self._workers.get(shard)
            if handle is None or not handle.alive:
                continue
            try:
                handle.conn.send(("reshard", self.num_shards))
            except (BrokenPipeError, OSError):
                pass
        # Missing new shards spawn via ensure_workers at the next
        # refresh, bootstrapping from post-refresh history.

    def rewindow(self, cutoff_quantum: int) -> None:
        """Mirror a change-point history blanking into every worker."""
        for handle in self._workers.values():
            if not handle.alive:
                continue
            try:
                handle.conn.send(("rewindow", cutoff_quantum))
            except (BrokenPipeError, OSError):
                pass

    def close(self) -> None:
        """Shut the fleet down and unlink every shipment segment.

        Idempotent, and unconditional about resources: workers that
        ignore the close request are terminated, then killed; every
        shared-memory segment the parent still owns is closed *and*
        unlinked, so nothing survives for the resource tracker to warn
        about."""
        if self._closed:
            return
        self._closed = True
        for handle in list(self._workers.values()):
            _stop_worker(handle)
        self._workers.clear()
        self.correlator_counts.clear()
        while self._segments:
            segment = self._segments.popleft()
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


def _stop_worker(handle: _WorkerHandle) -> None:
    """Stop one worker: polite close request, then terminate, then kill."""
    process = handle.process
    try:
        if process.is_alive():
            handle.conn.send(("close",))
            if handle.conn.poll(_CLOSE_GRACE):
                handle.conn.recv()
    except (BrokenPipeError, EOFError, OSError):
        pass
    finally:
        handle.conn.close()
    process.join(timeout=_CLOSE_GRACE)
    if process.is_alive():  # pragma: no cover - stuck worker
        process.terminate()
        process.join(timeout=1.0)
    if process.is_alive():  # pragma: no cover - unkillable worker
        process.kill()
        process.join(timeout=1.0)
    # Release the Process object's pidfd/bookkeeping promptly.
    if hasattr(process, "close") and not process.is_alive():
        try:
            process.close()
        except ValueError:  # pragma: no cover
            pass
