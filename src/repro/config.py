"""Configuration objects for pathmap analysis.

The paper (Section 3) parameterizes the pathmap algorithm by:

* ``W`` -- the length of the sliding window over which analysis is run,
* ``dW`` -- the service-graph refresh interval (how often the window slides),
* ``tau`` -- the *time quantum*, the smallest delay of interest; the time
  series has one sample per quantum,
* ``omega`` -- the *rectangular sampling window* used by the density
  function; an integral multiple of ``tau`` (the paper recommends
  ``omega = 50 * tau``),
* ``T_u`` -- an upper bound on the end-to-end transaction delay, which caps
  the lag range of the cross-correlation.

All times in this package are floats in **seconds**. Quantum indices are
integers (``i`` in the paper's ``d(i)``).
"""

from __future__ import annotations

import dataclasses
import math

from repro.errors import ConfigError

#: Default ratio ``omega / tau`` recommended by the paper (Section 3.5):
#: "For the systems we have analyzed, omega = 50 * tau gave the best set of
#: results."
DEFAULT_OMEGA_QUANTA = 50

#: Spike threshold used in Section 3.3: local maxima exceeding
#: ``mean + 3 * std``.
DEFAULT_SPIKE_SIGMA = 3.0


def _is_multiple(value: float, base: float, rel_tol: float = 1e-6) -> bool:
    """Return True when ``value`` is an integral multiple of ``base``."""
    if base <= 0:
        return False
    ratio = value / base
    return math.isclose(ratio, round(ratio), rel_tol=rel_tol, abs_tol=rel_tol)


@dataclasses.dataclass(frozen=True)
class PathmapConfig:
    """Parameters of the pathmap algorithm (paper Sections 3.3-3.5).

    The defaults mirror the RUBiS configuration used in Section 4.1:
    ``W = 3 min``, ``dW = 1 min``, ``tau = 1 ms``, ``omega = 50 ms`` and
    ``T_u = 1 min``.
    """

    #: Sliding window length ``W`` in seconds.
    window: float = 180.0
    #: Refresh interval ``dW`` in seconds. The service graph is recomputed
    #: every ``refresh_interval`` seconds from the most recent ``window``
    #: seconds of trace.
    refresh_interval: float = 60.0
    #: Time quantum ``tau`` in seconds (resolution of the analysis).
    quantum: float = 1e-3
    #: Rectangular sampling window ``omega`` in seconds. Must be an integral
    #: multiple of ``quantum``.
    sampling_window: float = 50e-3
    #: Upper bound ``T_u`` on the transaction delay, in seconds. Correlation
    #: lags are only evaluated in ``[0, T_u]``.
    max_transaction_delay: float = 60.0
    #: Spike detection threshold, in standard deviations above the mean of
    #: the correlation series.
    spike_sigma: float = DEFAULT_SPIKE_SIGMA
    #: Resolution window in seconds: among spikes closer than this, only the
    #: tallest is kept. Defaults to ``sampling_window`` when None.
    resolution_window: float | None = None
    #: Minimum number of samples two series must overlap on for their
    #: correlation to be considered statistically meaningful.
    min_overlap_samples: int = 8
    #: Absolute floor on spike heights (normalized correlation value).
    #: The paper's mean + 3*sigma rule alone admits occasional chance
    #: alignments on causally unrelated edges (~0.05 high); a small floor
    #: removes them without touching real spikes (typically > 0.3).
    #: 0.0 keeps the paper's exact rule.
    min_spike_height: float = 0.0
    #: Trace retention horizon in seconds for bounded-memory collectors
    #: (see :attr:`retention_horizon`). None picks the analysis-safe
    #: default ``3 * window + max_transaction_delay``; an explicit value
    #: must cover at least one window plus the transaction delay bound,
    #: or the retained trace could not serve a full analysis window.
    retention: float | None = None
    #: Dense-regime FFT batch kernel routing. ``"auto"`` (the default)
    #: lets the density dispatch send rows whose direct-kernel cost
    #: exceeds the modeled FFT transform cost to the batched FFT kernel
    #: (``choose_batch_kernel``). ``"off"`` never uses the FFT kernel
    #: (every row keeps the bit-exact direct kernels -- also the A/B
    #: baseline for benchmarks). ``"force"`` routes every loud row
    #: through the FFT kernel regardless of density (equivalence
    #: testing). FFT lag products agree with the direct kernels to float
    #: tolerance, not bitwise; see docs/PERFORMANCE.md.
    fft_dispatch: str = "auto"

    def __post_init__(self) -> None:
        if self.quantum <= 0:
            raise ConfigError(f"quantum must be positive, got {self.quantum}")
        if self.window <= 0:
            raise ConfigError(f"window must be positive, got {self.window}")
        if self.refresh_interval <= 0:
            raise ConfigError(
                f"refresh_interval must be positive, got {self.refresh_interval}"
            )
        if self.refresh_interval > self.window:
            raise ConfigError(
                "refresh_interval must not exceed window "
                f"({self.refresh_interval} > {self.window})"
            )
        if self.sampling_window < self.quantum:
            raise ConfigError(
                "sampling_window must be at least one quantum "
                f"({self.sampling_window} < {self.quantum})"
            )
        if not _is_multiple(self.sampling_window, self.quantum):
            raise ConfigError(
                "sampling_window must be an integral multiple of quantum "
                f"(omega={self.sampling_window}, tau={self.quantum})"
            )
        if self.max_transaction_delay <= 0:
            raise ConfigError(
                "max_transaction_delay must be positive, got "
                f"{self.max_transaction_delay}"
            )
        if self.spike_sigma <= 0:
            raise ConfigError(f"spike_sigma must be positive, got {self.spike_sigma}")
        if self.resolution_window is not None and self.resolution_window < 0:
            raise ConfigError(
                f"resolution_window must be non-negative, got {self.resolution_window}"
            )
        if self.min_overlap_samples < 1:
            raise ConfigError(
                f"min_overlap_samples must be >= 1, got {self.min_overlap_samples}"
            )
        if not 0.0 <= self.min_spike_height < 1.0:
            raise ConfigError(
                f"min_spike_height must be in [0, 1), got {self.min_spike_height}"
            )
        if self.fft_dispatch not in ("auto", "off", "force"):
            raise ConfigError(
                "fft_dispatch must be one of auto/off/force, "
                f"got {self.fft_dispatch!r}"
            )
        if self.retention is not None:
            floor = self.window + self.max_transaction_delay
            if self.retention < floor:
                raise ConfigError(
                    "retention must cover window + max_transaction_delay "
                    f"({self.retention} < {floor})"
                )

    # -- derived quantities, all in quanta ---------------------------------

    @property
    def window_quanta(self) -> int:
        """Number of quanta in the sliding window (``W / tau``)."""
        return max(1, round(self.window / self.quantum))

    @property
    def refresh_quanta(self) -> int:
        """Number of quanta in the refresh interval (``dW / tau``)."""
        return max(1, round(self.refresh_interval / self.quantum))

    @property
    def sampling_quanta(self) -> int:
        """Width of the rectangular sampling window in quanta (``omega / tau``)."""
        return max(1, round(self.sampling_window / self.quantum))

    @property
    def max_lag_quanta(self) -> int:
        """Largest correlation lag evaluated, in quanta (``T_u / tau``).

        Capped at ``window_quanta - 1``: lags beyond the window have no
        overlap at all.
        """
        lag = round(self.max_transaction_delay / self.quantum)
        return max(1, min(lag, self.window_quanta - 1))

    @property
    def resolution_quanta(self) -> int:
        """Spike resolution window in quanta.

        Defaults to the sampling window width: the density function already
        smears each message over ``omega``, so spikes closer than ``omega``
        are not distinguishable.
        """
        if self.resolution_window is None:
            return self.sampling_quanta
        return max(1, round(self.resolution_window / self.quantum))

    @property
    def retention_horizon(self) -> float:
        """Trace retention horizon in seconds for a bounded collector.

        :attr:`retention` when set, otherwise ``3 * window +
        max_transaction_delay`` -- enough history for the current window,
        the correlation lag bound and two windows of slack (re-analysis,
        late arrivals), while keeping resident trace memory flat. Pass it
        as ``TraceCollector(retention=config.retention_horizon)``;
        collectors retain everything unless asked.
        """
        if self.retention is not None:
            return self.retention
        return 3.0 * self.window + self.max_transaction_delay

    def with_window(self, window: float, refresh_interval: float | None = None) -> "PathmapConfig":
        """Return a copy with a different sliding window (and optionally dW)."""
        return dataclasses.replace(
            self,
            window=window,
            refresh_interval=(
                refresh_interval if refresh_interval is not None else min(self.refresh_interval, window)
            ),
        )

    def with_resolution(
        self,
        quantum: float,
        omega_quanta: int = DEFAULT_OMEGA_QUANTA,
        max_transaction_delay: float | None = None,
    ) -> "PathmapConfig":
        """Return a copy at a different time resolution.

        ``omega`` is given in quanta (so it always stays an integral
        multiple of the new ``tau``); any explicit resolution window is
        dropped back to its ``omega`` default. This is how the auto-tuner
        and the scenario harness derive comparable configs that differ
        only in resolution.
        """
        return dataclasses.replace(
            self,
            quantum=quantum,
            sampling_window=omega_quanta * quantum,
            max_transaction_delay=(
                max_transaction_delay
                if max_transaction_delay is not None
                else self.max_transaction_delay
            ),
            resolution_window=None,
        )


@dataclasses.dataclass(frozen=True)
class TransportConfig:
    """Parameters of the fault-tolerant tracer -> analyzer transport
    (:mod:`repro.tracing.transport`).

    Thresholds are expressed in refresh intervals (``dW`` multiples)
    because the transport clocks itself off the engine's flush cadence:
    one round frame per tracer per refresh (a quiet round is the heartbeat).
    """

    #: Reorder tolerance: how many blocks newer than a hole may arrive
    #: before the hole is declared lost and the stream skips ahead.
    lateness_blocks: int = 2
    #: A tracer unheard for more than this many refresh intervals is
    #: flagged ``lagging`` (its edges degrade).
    stale_after_refreshes: float = 1.5
    #: Beyond this many refresh intervals of silence the tracer is
    #: ``dead`` (its edges are stale).
    dead_after_refreshes: float = 3.0
    #: An edge whose in-window gap ratio exceeds this is ``stale`` even
    #: if its tracer is alive.
    stale_gap_ratio: float = 0.5

    def __post_init__(self) -> None:
        if self.lateness_blocks < 0:
            raise ConfigError(
                f"lateness_blocks must be >= 0, got {self.lateness_blocks}"
            )
        if self.stale_after_refreshes <= 0:
            raise ConfigError(
                "stale_after_refreshes must be positive, got "
                f"{self.stale_after_refreshes}"
            )
        if self.dead_after_refreshes < self.stale_after_refreshes:
            raise ConfigError(
                "dead_after_refreshes must be >= stale_after_refreshes "
                f"({self.dead_after_refreshes} < {self.stale_after_refreshes})"
            )
        if not 0.0 < self.stale_gap_ratio <= 1.0:
            raise ConfigError(
                f"stale_gap_ratio must be in (0, 1], got {self.stale_gap_ratio}"
            )


@dataclasses.dataclass(frozen=True)
class LakeConfig:
    """Parameters of the tiered trace lake (:mod:`repro.lake`).

    A lake turns the collector's retention eviction into a write-behind
    spill tier: evicted timestamp arrays land in time-indexed ``.rtb``
    segments under ``root`` cataloged by an append-only journal (one
    fsync'd record per checkpoint), historical window reads stitch
    segments back in through an mmap LRU, and (when ``summaries`` is on)
    correlator evictions persist materialized correlation summaries for
    ``repro history`` drift queries.
    """

    #: Lake directory (created if missing). None disables the lake.
    root: str | None = None
    #: Per-stream write-behind buffer threshold in payload bytes; a
    #: stream's buffered evictions are cut into one segment once they
    #: cross it.
    segment_bytes: int = 256 * 1024
    #: Open segment mappings kept by the read path's LRU.
    mapping_cache: int = 64
    #: Persist materialized correlation summaries at correlator-eviction time.
    summaries: bool = True

    def __post_init__(self) -> None:
        if self.segment_bytes < 8:
            raise ConfigError(
                f"segment_bytes must be >= 8, got {self.segment_bytes}"
            )
        if self.mapping_cache < 1:
            raise ConfigError(
                f"mapping_cache must be >= 1, got {self.mapping_cache}"
            )


#: Configuration used for the RUBiS experiments in Section 4.1.
RUBIS_CONFIG = PathmapConfig(
    window=180.0,
    refresh_interval=60.0,
    quantum=1e-3,
    sampling_window=50e-3,
    max_transaction_delay=60.0,
)

#: Configuration used for the Delta Revenue Pipeline analysis in Section 4.3
#: (W = 1 hour, tau = 1 s, omega = 50 s).
DELTA_CONFIG = PathmapConfig(
    window=3600.0,
    refresh_interval=600.0,
    quantum=1.0,
    sampling_window=50.0,
    max_transaction_delay=1800.0,
)
