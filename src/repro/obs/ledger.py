"""The refresh cost ledger: measured per-stage / per-kernel accounting.

The paper's Figure 9 argument is that incremental analysis cost stays
flat and predictable online. The ledger is how the reproduction *keeps
proving that while it runs*: every engine refresh produces one
:class:`RefreshLedger` -- wall time and work volume for each explicit
pipeline stage (ingest -> correlate -> dfs -> publish) and, per
correlation kernel (sparse batch / RLE / FFT batch / per-pair append),
rows processed, estimated bytes touched, and measured ns/row.

Unlike the metrics registry (off by default) the ledger is **always on**:
it adds a handful of ``perf_counter`` calls per refresh, not per row, so
the overhead-guard benchmark pins it at well under 5% of refresh cost.
Its continuous EWMAs of measured kernel cost (ns/row, ns per dispatch
unit) are an observability view, read by ``repro top``; kernel dispatch
itself stays a pure function of block data (the modeled constants of
:func:`repro.core.correlation.choose_batch_kernel`).

Ledgers are attached to every :class:`~repro.core.pathmap.PathmapResult`
(``result.ledger``), recorded into flight-recorder frames, exported as
counter tracks in the Perfetto timeline, rendered live by ``repro top``
and dumped by ``repro profile --json``.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import deque
from typing import Deque, Dict, List, Optional

#: Pipeline stage names, in execution order: block pull from tracers,
#: correlator store/patch/append, pathmap DFS, and result fan-out.
STAGE_INGEST = "ingest"
STAGE_CORRELATE = "correlate"
STAGE_DFS = "dfs"
STAGE_PUBLISH = "publish"

#: Optional stage: trace-lake write-behind spill (segment cuts, summary
#: persistence, journal checkpoints). Not part of
#: :data:`PIPELINE_STAGES` -- it only appears in ledgers of engines with
#: a lake attached (``record_stage`` creates unknown stages on demand).
STAGE_SPILL = "spill"

#: All pipeline stages, in order.
PIPELINE_STAGES = (STAGE_INGEST, STAGE_CORRELATE, STAGE_DFS, STAGE_PUBLISH)

#: Correlation kernel names: the grouped sparse batch kernel, the
#: run-length pair-product kernel, the dense-regime batched FFT kernel
#: (cached spectra + one 2-D inverse transform per group), and
#: ``legacy_pair``: the plain per-pair appends of group members whose
#: newest block is quiet (they skip every kernel) or whose window
#: disagrees with the group's. The name predates the removal of the
#: per-pair refresh and is pinned by the end-to-end benchmark contract.
KERNEL_SPARSE_BATCH = "sparse_batch"
KERNEL_RLE = "rle"
KERNEL_FFT_BATCH = "fft_batch"
KERNEL_LEGACY = "legacy_pair"

#: All correlation kernels a refresh can dispatch rows to.
CORRELATION_KERNELS = (KERNEL_SPARSE_BATCH, KERNEL_RLE, KERNEL_FFT_BATCH, KERNEL_LEGACY)

#: Default smoothing factor for kernel cost EWMAs: heavy enough to adapt
#: within ~10 refreshes, light enough to ride out one noisy measurement.
DEFAULT_EWMA_ALPHA = 0.2

#: Default bound on retained per-refresh ledgers (for ``repro top`` /
#: ``repro profile``); a ledger is a few hundred bytes, so this is small.
DEFAULT_LEDGER_HISTORY = 256


@dataclasses.dataclass
class StageSample:
    """Wall time and work volume of one pipeline stage in one refresh.

    Attributes
    ----------
    seconds:
        Wall-clock time spent in the stage this refresh.
    items:
        Work volume in stage-specific units (see ``unit``).
    unit:
        What ``items`` counts: ``blocks`` (ingest), ``blocks``
        (correlate), ``correlations`` (dfs), ``subscribers`` (publish).
    """

    seconds: float = 0.0
    items: int = 0
    unit: str = ""

    def to_dict(self) -> dict:
        return {"items": self.items, "seconds": self.seconds, "unit": self.unit}

    @classmethod
    def from_dict(cls, doc: dict) -> "StageSample":
        return cls(
            seconds=float(doc.get("seconds", 0.0)),
            items=int(doc.get("items", 0)),
            unit=str(doc.get("unit", "")),
        )


@dataclasses.dataclass
class KernelSample:
    """Measured cost of one correlation kernel in one refresh.

    Attributes
    ----------
    rows:
        Rows the kernel processed this refresh (correlation pairs for the
        sparse/RLE kernels; correlator appends for ``legacy_pair``).
    seconds:
        Wall-clock time in the kernel this refresh.
    work_units:
        Dispatch cost units attributed to the kernel this refresh (the
        quantities the density dispatch model compares; 0 for ``legacy_pair``).
    bytes_touched:
        Estimated bytes of series data read by the kernel this refresh
        (16 B/nonzero for sparse series, 24 B/run for RLE series).
    ns_per_row:
        Measured nanoseconds per row *this refresh*, or None when the
        kernel processed no rows.
    ns_per_row_ewma:
        The recorder's running EWMA of ns/row at stamp time (None until
        the kernel has processed at least one row in the engine's life).
    """

    rows: int = 0
    seconds: float = 0.0
    work_units: float = 0.0
    bytes_touched: int = 0
    ns_per_row: Optional[float] = None
    ns_per_row_ewma: Optional[float] = None

    def to_dict(self) -> dict:
        return {
            "bytes_touched": self.bytes_touched,
            "ns_per_row": self.ns_per_row,
            "ns_per_row_ewma": self.ns_per_row_ewma,
            "rows": self.rows,
            "seconds": self.seconds,
            "work_units": self.work_units,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "KernelSample":
        ns = doc.get("ns_per_row")
        ewma = doc.get("ns_per_row_ewma")
        return cls(
            rows=int(doc.get("rows", 0)),
            seconds=float(doc.get("seconds", 0.0)),
            work_units=float(doc.get("work_units", 0.0)),
            bytes_touched=int(doc.get("bytes_touched", 0)),
            ns_per_row=None if ns is None else float(ns),
            ns_per_row_ewma=None if ewma is None else float(ewma),
        )


@dataclasses.dataclass
class RefreshLedger:
    """The full cost accounting of one engine refresh.

    Attributes
    ----------
    time:
        Analysis time of the refresh (the ``now`` passed to ``refresh``).
    sequence:
        Monotonic refresh index within the producing engine.
    refresh_seconds:
        Wall-clock cost of the refresh work (ingest + correlate + dfs;
        the Figure 9 quantity -- publish is accounted separately because
        subscriber fan-out happens after the result exists).
    stages:
        Stage name -> :class:`StageSample`, always containing all four
        :data:`PIPELINE_STAGES`. When a subscriber reads the ledger off a
        just-published result, the ``publish`` stage is still 0 -- it is
        filled in-place once fan-out completes (the flight-recorder frame
        and history copies see the final value).
    kernels:
        Kernel name -> :class:`KernelSample`, always containing all four
        :data:`CORRELATION_KERNELS` (zero rows when a kernel was idle).
    skips:
        Pair products skipped this refresh because a block was quiet.
    cache_hits:
        Correlator cache hits this refresh (existing incremental
        correlator re-served instead of rebuilt).
    """

    time: float
    sequence: int
    refresh_seconds: float = 0.0
    stages: Dict[str, StageSample] = dataclasses.field(default_factory=dict)
    kernels: Dict[str, KernelSample] = dataclasses.field(default_factory=dict)
    skips: int = 0
    cache_hits: int = 0

    def stage(self, name: str) -> StageSample:
        """The named stage's sample (a zero sample when absent)."""
        return self.stages.get(name) or StageSample()

    def kernel(self, name: str) -> KernelSample:
        """The named kernel's sample (a zero sample when absent)."""
        return self.kernels.get(name) or KernelSample()

    def stage_seconds(self, name: str) -> float:
        return self.stage(name).seconds

    def to_dict(self) -> dict:
        """Deterministically key-ordered, JSON-able form of the ledger."""
        return {
            "cache_hits": self.cache_hits,
            "kernels": {
                name: self.kernels[name].to_dict()
                for name in sorted(self.kernels)
            },
            "refresh_seconds": self.refresh_seconds,
            "sequence": self.sequence,
            "skips": self.skips,
            "stages": {
                name: self.stages[name].to_dict()
                for name in sorted(self.stages)
            },
            "time": self.time,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "RefreshLedger":
        """Rebuild a ledger from :meth:`to_dict` output (JSON round-trip).
        Unknown keys, such as the per-shard ``"shards"`` section of older
        documents, are ignored."""
        return cls(
            time=float(doc.get("time", 0.0)),
            sequence=int(doc.get("sequence", 0)),
            refresh_seconds=float(doc.get("refresh_seconds", 0.0)),
            stages={
                str(name): StageSample.from_dict(sample)
                for name, sample in doc.get("stages", {}).items()
            },
            kernels={
                str(name): KernelSample.from_dict(sample)
                for name, sample in doc.get("kernels", {}).items()
            },
            skips=int(doc.get("skips", 0)),
            cache_hits=int(doc.get("cache_hits", 0)),
        )


class Ewma:
    """An exponentially weighted moving average over positive samples."""

    __slots__ = ("alpha", "value", "samples")

    def __init__(self, alpha: float = DEFAULT_EWMA_ALPHA) -> None:
        if not 0.0 < alpha <= 1.0:
            from repro.errors import ObservabilityError

            raise ObservabilityError(f"EWMA alpha must be in (0, 1], got {alpha}")
        self.alpha = float(alpha)
        self.value: Optional[float] = None
        self.samples = 0

    def update(self, sample: float) -> float:
        """Fold one sample in and return the new average."""
        sample = float(sample)
        if self.value is None:
            self.value = sample
        else:
            self.value += self.alpha * (sample - self.value)
        self.samples += 1
        return self.value


class LedgerRecorder:
    """Builds one :class:`RefreshLedger` per refresh and keeps the EWMAs.

    The engine owns one recorder for its lifetime. Per refresh the flow is
    ``begin_refresh`` -> ``record_stage`` / ``record_kernel`` ->
    ``complete``, which stamps the ledger, folds kernel measurements into
    the persistent EWMAs and appends to a bounded history. Kernel records
    and history reads take a lock, so callers may share one recorder
    across their own threads.

    ``enabled=False`` turns every call into a cheap no-op (``complete``
    still returns a stage/kernel-complete zero ledger so downstream
    consumers never see a partial one) -- used by the overhead benchmark
    to price the always-on default.
    """

    def __init__(
        self,
        enabled: bool = True,
        alpha: float = DEFAULT_EWMA_ALPHA,
        history: int = DEFAULT_LEDGER_HISTORY,
    ) -> None:
        self.enabled = bool(enabled)
        self.alpha = float(alpha)
        self._lock = threading.Lock()
        self._history: Deque[RefreshLedger] = deque(maxlen=max(1, int(history)))
        self._row_ewma: Dict[str, Ewma] = {k: Ewma(alpha) for k in CORRELATION_KERNELS}
        self._unit_ewma: Dict[str, Ewma] = {k: Ewma(alpha) for k in CORRELATION_KERNELS}
        self._stages: Dict[str, StageSample] = {}
        self._kernels: Dict[str, List[float]] = {}
        self._begin_fresh_tallies()

    def _begin_fresh_tallies(self) -> None:
        self._stages = {name: StageSample(unit=_STAGE_UNITS[name])
                        for name in PIPELINE_STAGES}
        # rows, seconds, work_units, bytes_touched
        self._kernels = {name: [0, 0.0, 0.0, 0] for name in CORRELATION_KERNELS}

    # -- per-refresh recording -------------------------------------------------

    def begin_refresh(self) -> None:
        """Reset the per-refresh tallies (call at the top of a refresh)."""
        if not self.enabled:
            return
        self._begin_fresh_tallies()

    def record_stage(self, stage: str, seconds: float, items: int = 0) -> None:
        """Add wall time and work volume to a pipeline stage.

        Additive, so a stage split across code regions (e.g. publish =
        annotation + two fan-out loops) accumulates into one sample.
        """
        if not self.enabled:
            return
        sample = self._stages.get(stage)
        if sample is None:
            sample = self._stages[stage] = StageSample(unit=_STAGE_UNITS.get(stage, ""))
        sample.seconds += seconds
        sample.items += items

    def record_kernel(
        self,
        kernel: str,
        rows: int,
        seconds: float,
        work_units: float = 0.0,
        bytes_touched: int = 0,
    ) -> None:
        """Add one kernel invocation's cost. Thread-safe."""
        if not self.enabled:
            return
        with self._lock:
            tally = self._kernels.get(kernel)
            if tally is None:
                tally = self._kernels[kernel] = [0, 0.0, 0.0, 0]
            tally[0] += rows
            tally[1] += seconds
            tally[2] += work_units
            tally[3] += bytes_touched

    def complete(
        self,
        time_: float,
        sequence: int,
        refresh_seconds: float,
        skips: int = 0,
        cache_hits: int = 0,
    ) -> RefreshLedger:
        """Stamp this refresh's ledger, update EWMAs, append to history.

        Kernel EWMAs fold in only refreshes where the kernel actually
        processed rows, so idle refreshes never dilute the cost model.
        """
        kernels: Dict[str, KernelSample] = {}
        if self.enabled:
            for name, (rows, seconds, units, nbytes) in self._kernels.items():
                ns_per_row = (seconds * 1e9 / rows) if rows > 0 else None
                row_ewma = self._row_ewma.setdefault(name, Ewma(self.alpha))
                unit_ewma = self._unit_ewma.setdefault(name, Ewma(self.alpha))
                if ns_per_row is not None:
                    row_ewma.update(ns_per_row)
                    if units > 0:
                        unit_ewma.update(seconds * 1e9 / units)
                kernels[name] = KernelSample(
                    rows=rows,
                    seconds=seconds,
                    work_units=units,
                    bytes_touched=nbytes,
                    ns_per_row=ns_per_row,
                    ns_per_row_ewma=row_ewma.value,
                )
            stages = self._stages
        else:
            kernels = {name: KernelSample() for name in CORRELATION_KERNELS}
            stages = {name: StageSample(unit=_STAGE_UNITS[name])
                      for name in PIPELINE_STAGES}
        ledger = RefreshLedger(
            time=float(time_),
            sequence=int(sequence),
            refresh_seconds=float(refresh_seconds),
            stages=stages,
            kernels=kernels,
            skips=int(skips),
            cache_hits=int(cache_hits),
        )
        if self.enabled:
            with self._lock:
                self._history.append(ledger)
        return ledger

    # -- cost model feed -------------------------------------------------------

    def ns_per_row(self, kernel: str) -> Optional[float]:
        """EWMA of measured ns/row for a kernel (None until warmed)."""
        ewma = self._row_ewma.get(kernel)
        return ewma.value if ewma is not None else None

    def ns_per_unit(self, kernel: str) -> Optional[float]:
        """EWMA of measured ns per dispatch cost unit (None until warmed).

        Predicted kernel time = dispatch units x measured ns/unit; an
        observability view next to the modeled dispatch constants.
        """
        ewma = self._unit_ewma.get(kernel)
        return ewma.value if ewma is not None else None

    # -- history / export ------------------------------------------------------

    @property
    def latest(self) -> Optional[RefreshLedger]:
        with self._lock:
            return self._history[-1] if self._history else None

    def history(self, last: Optional[int] = None) -> List[RefreshLedger]:
        """Retained ledgers, oldest first (optionally only the last N)."""
        with self._lock:
            out = list(self._history)
        if last is not None and last >= 0:
            out = out[len(out) - min(last, len(out)):]
        return out

    def ewma_snapshot(self) -> dict:
        """Deterministically key-ordered dict of the per-kernel EWMAs."""
        return {
            kernel: {
                "ns_per_row": self._row_ewma[kernel].value,
                "ns_per_unit": self._unit_ewma[kernel].value,
                "samples": self._row_ewma[kernel].samples,
            }
            for kernel in sorted(self._row_ewma)
        }

    def export(self, last: Optional[int] = None) -> dict:
        """JSON-able ledger export: EWMAs plus the retained history.

        This is the ``repro profile --json`` document body; keys are
        deterministically ordered so CI artifact diffs stay stable.
        """
        return {
            "ewma": self.ewma_snapshot(),
            "ledgers": [ledger.to_dict() for ledger in self.history(last)],
        }

    def __len__(self) -> int:
        with self._lock:
            return len(self._history)


#: Work-volume units per stage (what StageSample.items counts).
_STAGE_UNITS = {
    STAGE_INGEST: "blocks",
    STAGE_CORRELATE: "blocks",
    STAGE_DFS: "correlations",
    STAGE_PUBLISH: "subscribers",
    STAGE_SPILL: "segments",
}
