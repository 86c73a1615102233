"""Self-tuning analysis parameters (quantum / omega / T_u).

The paper fixes tau, omega and T_u per deployment (Section 3.5: "omega =
50 tau gave the best set of results") -- values an operator must guess.
Guessing wrong is expensive: a quantum much finer than the traffic's
inter-arrival scale wastes correlation work and drowns spikes in noise;
a coarse quantum with the recommended omega smears messages past the
delays being measured; a T_u below the real transaction delay truncates
the correlation lag range and silently loses deep edges.

This module derives those parameters from *observed* traffic instead:

* ``tau`` tracks the class's median inter-arrival time (a fixed fraction
  of it, snapped to a 1-2-5 grid so nearby workloads tune identically),
* ``omega`` starts at the paper's 50 quanta and shrinks as the observed
  burstiness grows (smearing a burst over a long boxcar destroys exactly
  the temporal signature correlation needs),
* ``T_u`` follows the observed end-to-end delay with headroom, instead
  of a worst-case guess.

All outputs are clamped to documented absolute bounds, every rule is a
pure function of the observed statistics, and tuning is idempotent:
feeding a tuned config back through the tuner with the same observations
returns the identical config. The tuner is deliberately *not* seeded or
randomized -- two analyzers watching the same traffic pick the same
parameters.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional, Sequence

import numpy as np

from repro.config import PathmapConfig
from repro.errors import AnalysisError

# -- documented absolute bounds (the property tests pin these) ------------------

#: Smallest quantum the tuner will ever pick (100 microseconds).
TAU_MIN = 1e-4
#: Largest quantum the tuner will ever pick (1 second).
TAU_MAX = 1.0
#: The tuned quantum is the median inter-arrival time divided by this.
TAU_DIVISOR = 8.0
#: With a delay bound observed, the quantum also tracks the delay scale:
#: bound / DELAY_DIVISOR, so the whole delay structure spans ~one
#: paper-recommended omega of quanta. The smaller of the two candidates
#: wins (the analysis must resolve delays AND see enough arrivals).
DELAY_DIVISOR = 50.0
#: Sparsity floor: tau never drops below the median inter-arrival time
#: divided by this. Resolution the arrival process cannot fill adds no
#: delay information -- it only multiplies the correlation lags compared
#: against the spike threshold, and with thousands of lags the tallest
#: chance alignment starts clearing mean + 3 sigma.
TAU_SPARSITY_DIVISOR = 64.0
#: Smallest sampling window, in quanta (omega / tau).
OMEGA_QUANTA_MIN = 10
#: Largest sampling window, in quanta -- the paper's recommendation.
OMEGA_QUANTA_MAX = 50
#: T_u headroom: tuned T_u is this multiple of the *correlation
#: structure width* -- observed delay bound plus one sampling window
#: (each spike is a triangle of width ~2 omega centered at its delay).
#: The spike threshold is mean + k sigma over the whole lag range, so
#: the structure must occupy a small fraction of it for spikes to
#: clear the threshold; but every extra decade of empty lag range
#: admits more chance alignments, so the headroom is bounded both ways.
TU_HEADROOM = 5.0
#: T_u never drops below this many sampling windows (a lag range shorter
#: than a few omega cannot resolve any spike structure, while every
#: extra omega of lag range admits more chance alignments between
#: causally unrelated smooth density series -- both failure modes are
#: real, and 8 omegas sits between them).
TU_MIN_OMEGAS = 8.0
#: Absolute ceiling on the tuned T_u (seconds).
TU_MAX = 120.0


@dataclasses.dataclass(frozen=True)
class TrafficStats:
    """Observed per-class traffic statistics driving the tuner.

    All fields are plain observations -- nothing here depends on the
    analysis configuration, which is what makes tuning idempotent.
    """

    #: Messages observed on the class's reference edge.
    requests: int
    #: Observation span in seconds.
    duration: float
    #: Median inter-arrival time (seconds); 0 when < 2 requests.
    median_inter_arrival: float
    #: Burstiness index: excess Fano factor of binned counts (0 = Poisson).
    burstiness: float
    #: Observed end-to-end delay bound in seconds (e.g. the largest
    #: cumulative path delay from a calibration analysis); None = unknown.
    delay_bound: Optional[float] = None

    @classmethod
    def from_timestamps(
        cls,
        timestamps: Sequence[float],
        start: float,
        end: float,
        delay_bound: Optional[float] = None,
        bins: int = 24,
    ) -> "TrafficStats":
        """Compute stats from raw reference-edge timestamps in ``[start, end)``."""
        if end <= start:
            raise AnalysisError(f"empty observation span [{start}, {end})")
        stamps = np.sort(np.asarray(list(timestamps), dtype=np.float64))
        stamps = stamps[(stamps >= start) & (stamps < end)]
        duration = end - start
        if stamps.size < 2:
            return cls(
                requests=int(stamps.size),
                duration=duration,
                median_inter_arrival=0.0,
                burstiness=0.0,
                delay_bound=delay_bound,
            )
        gaps = np.diff(stamps)
        median_ia = float(np.median(gaps))
        counts, _ = np.histogram(stamps, bins=bins, range=(start, end))
        mean = counts.mean()
        fano = float(counts.var() / mean) if mean > 0 else 0.0
        return cls(
            requests=int(stamps.size),
            duration=duration,
            median_inter_arrival=median_ia,
            burstiness=max(0.0, fano - 1.0),
            delay_bound=delay_bound,
        )

    @classmethod
    def from_rate(
        cls,
        rate: float,
        duration: float,
        burstiness: float = 0.0,
        delay_bound: Optional[float] = None,
    ) -> "TrafficStats":
        """Stats from an estimated mean rate (the online engine sees
        density blocks, not raw timestamps; for a Poisson-like process
        the median inter-arrival is ``ln 2 / rate``)."""
        if rate <= 0 or duration <= 0:
            return cls(0, max(duration, 0.0), 0.0, max(0.0, burstiness), delay_bound)
        return cls(
            requests=int(round(rate * duration)),
            duration=duration,
            median_inter_arrival=math.log(2.0) / rate,
            burstiness=max(0.0, burstiness),
            delay_bound=delay_bound,
        )


def snap_to_grid(value: float) -> float:
    """Largest 1-2-5 decade grid value <= ``value`` (monotone in value).

    Snapping keeps tuned quanta stable across small traffic fluctuations
    and guarantees clean omega multiples.
    """
    if value <= 0:
        raise AnalysisError(f"cannot snap non-positive value {value}")
    exponent = math.floor(math.log10(value))
    base = 10.0 ** exponent
    for mantissa in (5.0, 2.0, 1.0):
        candidate = mantissa * base
        # Tolerate float representation error at grid points.
        if candidate <= value * (1.0 + 1e-9):
            return candidate
    return base  # pragma: no cover - loop always returns at mantissa 1


def snap_up_to_grid(value: float) -> float:
    """Smallest 1-2-5 decade grid value >= ``value`` (monotone in value)."""
    if value <= 0:
        raise AnalysisError(f"cannot snap non-positive value {value}")
    exponent = math.floor(math.log10(value))
    base = 10.0 ** exponent
    for mantissa in (1.0, 2.0, 5.0):
        candidate = mantissa * base
        if candidate >= value * (1.0 - 1e-9):
            return candidate
    return 10.0 * base


def tuned_quantum(stats: TrafficStats) -> float:
    """Tuned tau, grid-snapped and clamped to ``[TAU_MIN, TAU_MAX]``.

    The candidate is the median inter-arrival time / TAU_DIVISOR; when a
    delay bound has been observed, ``delay_bound / DELAY_DIVISOR`` also
    competes and the smaller wins -- slow arrivals over fast services
    still need a quantum fine enough to resolve the service delays.
    Monotone non-decreasing in the inter-arrival scale (at fixed delay
    bound) and in the delay bound (at fixed inter-arrival scale).
    """
    if stats.median_inter_arrival <= 0:
        return snap_to_grid(TAU_MIN)
    target = stats.median_inter_arrival / TAU_DIVISOR
    if stats.delay_bound is not None and stats.delay_bound > 0:
        target = min(target, stats.delay_bound / DELAY_DIVISOR)
    target = max(target, stats.median_inter_arrival / TAU_SPARSITY_DIVISOR)
    return snap_to_grid(min(max(target, TAU_MIN), TAU_MAX))


def tuned_omega_quanta(stats: TrafficStats) -> int:
    """Tuned omega in quanta: the paper's 50 for Poisson-like traffic,
    shrinking toward ``OMEGA_QUANTA_MIN`` as burstiness grows. Snapped
    to multiples of ``OMEGA_QUANTA_MIN`` so classes with similar (not
    identical) burstiness share a resolution -- the analysis batches
    classes per distinct config, and needless distinctions multiply
    whole-window correlation passes."""
    raw = OMEGA_QUANTA_MAX / (1.0 + stats.burstiness)
    snapped = OMEGA_QUANTA_MIN * round(raw / OMEGA_QUANTA_MIN)
    return int(min(OMEGA_QUANTA_MAX, max(OMEGA_QUANTA_MIN, snapped)))


def autotune_config(base: PathmapConfig, stats: TrafficStats) -> PathmapConfig:
    """Derive a tuned config from observed traffic statistics.

    Window and refresh cadence are kept from ``base`` (they are paced by
    operational needs, not by traffic shape); quantum, sampling window
    and T_u are re-derived from ``stats`` within the documented bounds.
    Pure and idempotent: ``autotune_config(autotune_config(c, s), s) ==
    autotune_config(c, s)``.
    """
    tau = tuned_quantum(stats)
    # tau may never exceed the refresh interval (one sample per block
    # minimum) -- snap down again so omega stays an exact multiple.
    if tau > base.refresh_interval:
        tau = snap_to_grid(base.refresh_interval)
    omega_quanta = tuned_omega_quanta(stats)
    omega = omega_quanta * tau
    if stats.delay_bound is not None and stats.delay_bound > 0:
        # Structure-based target, but never below the operator's base
        # bound: observed delays say how *deep* the structure reaches
        # today, while the base T_u is a commitment about how slow a
        # transaction may legitimately get -- a sudden slowdown must
        # still fall inside the lag range to be seen at all.
        target_tu = max(
            TU_HEADROOM * (stats.delay_bound + omega),
            min(base.max_transaction_delay, TU_MAX),
        )
    else:
        target_tu = min(base.max_transaction_delay, TU_MAX)
    tu = min(max(target_tu, TU_MIN_OMEGAS * omega), TU_MAX)
    # Snap T_u *up* to the 1-2-5 grid: headroom is preserved, and
    # classes whose observed bounds differ only slightly share one
    # config (and therefore one correlation pass).
    tu = min(snap_up_to_grid(tu), TU_MAX)
    return base.with_resolution(tau, omega_quanta, tu)


#: Minimum normalized spike height for an edge's delays to feed the
#: observed delay bound. Chance alignments barely clear the detection
#: threshold (heights near ``min_spike_height``); genuine causal spikes
#: are far stronger. Filtering keeps one spurious large-lag edge from
#: ratcheting T_u upward, which would admit more spurious edges in turn.
HINT_MIN_SPIKE_HEIGHT = 0.4


def observed_delay_bound(graph: object) -> Optional[float]:
    """Largest cumulative delay among an analyzed graph's *confidently*
    discovered edges (strongest spike >= :data:`HINT_MIN_SPIKE_HEIGHT`),
    or None when no edge qualifies. This is the ``delay_bound`` feed for
    :class:`TrafficStats` that resists spurious-spike poisoning."""
    bound: Optional[float] = None
    for edge in getattr(graph, "edges", []):
        spike = edge.strongest_spike()
        if spike is None or spike.height < HINT_MIN_SPIKE_HEIGHT:
            continue
        if bound is None or edge.max_delay > bound:
            bound = edge.max_delay
    return bound
