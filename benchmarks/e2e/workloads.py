"""The benchmark's workloads, as data.

Each :class:`WorkloadSpec` is a frozen, validated description of one
input: which ``repro.apps`` builder wires the deployment and with which
arguments, the :class:`~repro.config.PathmapConfig` fields of the
analysis, the capture sink's retention, how many refreshes are replayed
and how many of them are warm-up, the history-query cadence, and one
sentence on why the workload exists. ``run.py`` has no per-workload
branches: it compiles a spec (:meth:`WorkloadSpec.build`,
:meth:`WorkloadSpec.config`) and replays whatever comes out.

The workload seed reaches only :meth:`WorkloadSpec.build` in the capture
generator; the analyzer under test sees the generated captures and
nothing else.

Sizes are set for a 2-core box and the driver's time cap (about 35 s per
run, set-up included). When they have to shrink, lower class counts or
rates -- never ``refreshes``: every workload keeps >= 110 measured
refreshes so the reported p90 has at least ten samples beyond it.
"""

from __future__ import annotations

import dataclasses
from types import MappingProxyType
from typing import Callable, Dict, Mapping, Tuple

from repro.apps.manyclass import build_many_class
from repro.apps.mesh import build_mesh
from repro.config import PathmapConfig

#: App name -> ``repro.apps`` builder. Every builder takes ``seed`` and
#: ``config`` keywords and returns a deployment with ``topology``,
#: ``clients`` (class name -> client node) and ``run_until``.
BUILDERS: Mapping[str, Callable] = MappingProxyType(
    {"many_class": build_many_class, "mesh": build_mesh}
)

#: Fewest measured refreshes a registered workload may have.
MIN_MEASURED_REFRESHES = 110


@dataclasses.dataclass(frozen=True)
class WorkloadSpec:
    """One benchmark input (see module docstring)."""

    name: str
    #: One sentence: which layers this workload stresses and why it is here.
    why: str
    #: Key into :data:`BUILDERS`.
    app: str
    #: Keyword arguments of the builder (``seed`` and ``config`` excluded).
    app_kwargs: Mapping[str, object]
    #: ``PathmapConfig`` fields that differ from its defaults.
    pathmap: Mapping[str, object]
    #: Capture-sink retention ``R`` in seconds; older captures spill.
    retention: float
    #: Refreshes replayed per pass (simulated span = refreshes * dW).
    refreshes: int
    #: Leading refreshes excluded from every metric (caches fill, the
    #: window reaches its full length, dispatch EWMAs settle).
    warmup_refreshes: int = 6
    #: In-loop history reads: from refresh ``query_from`` on, every
    #: ``query_every``-th refresh is followed by one summary-fold query
    #: and one stitched historical window read. 0 = none in the loop.
    query_every: int = 0
    query_from: int = 12
    #: Summary-fold queries run after the timed loop over the last
    #: ``post_query_span`` simulated seconds of spilled history (so every
    #: workload reports ``history_query_p50_ms``). 0 = none.
    post_queries: int = 0
    post_query_span: float = 60.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "app_kwargs", MappingProxyType(dict(self.app_kwargs)))
        object.__setattr__(self, "pathmap", MappingProxyType(dict(self.pathmap)))
        if self.app not in BUILDERS:
            raise ValueError(
                f"workload {self.name!r}: unknown app {self.app!r} "
                f"(known: {sorted(BUILDERS)})"
            )
        if {"seed", "config"} & set(self.app_kwargs):
            raise ValueError(
                f"workload {self.name!r}: seed/config are supplied by the "
                "harness, not the spec"
            )
        if not self.why or "\n" in self.why or len(self.why) > 200:
            raise ValueError(f"workload {self.name!r}: 'why' must be one line <= 200 chars")
        config = self.config()  # PathmapConfig validates its own fields
        if self.retention < config.window + config.max_transaction_delay:
            raise ValueError(
                f"workload {self.name!r}: retention {self.retention} cannot "
                "serve one analysis window plus the delay bound"
            )
        if not 0 <= self.warmup_refreshes < self.refreshes:
            raise ValueError(
                f"workload {self.name!r}: warm-up {self.warmup_refreshes} "
                f"must be below refreshes {self.refreshes}"
            )
        if self.query_every < 0 or self.post_queries < 0:
            raise ValueError(f"workload {self.name!r}: negative query cadence")
        if self.query_every == 0 and self.post_queries == 0:
            raise ValueError(
                f"workload {self.name!r}: no history query at all "
                "(history_query_p50_ms would be undefined)"
            )

    # -- compilation -----------------------------------------------------------

    def config(self) -> PathmapConfig:
        return PathmapConfig(**self.pathmap)

    def build(self, seed: int):
        """Wire a fresh, never-run deployment of this workload's app."""
        return BUILDERS[self.app](seed=seed, config=self.config(), **self.app_kwargs)

    @property
    def simulated_seconds(self) -> float:
        return self.refreshes * self.config().refresh_interval

    @property
    def measured_refreshes(self) -> int:
        return self.refreshes - self.warmup_refreshes

    def sized(self, refreshes: int) -> "WorkloadSpec":
        """The same workload replaying ``refreshes`` refreshes (smoke tests)."""
        return dataclasses.replace(self, refreshes=refreshes)

    def sizes(self) -> Dict[str, object]:
        """What the trajectory log records about this workload's size."""
        return {
            "app": self.app,
            **dict(self.app_kwargs),
            "refreshes": self.refreshes,
            "warmup_refreshes": self.warmup_refreshes,
            "simulated_seconds": self.simulated_seconds,
            "retention": self.retention,
        }


_SPECS: Tuple[WorkloadSpec, ...] = (
    WorkloadSpec(
        name="sparse_manyclass",
        why=(
            "Enterprise regime: thousands of live correlators, nine in ten "
            "classes quiet, so quiet-skip bookkeeping and pair caches set "
            "refresh time and memory."
        ),
        app="many_class",
        app_kwargs={
            "classes": 28, "quiet_fraction": 0.9, "request_rate": 20.0,
            "quiet_after": 5.0,
        },
        pathmap={
            "window": 6.0, "refresh_interval": 2.0, "quantum": 1e-3,
            "sampling_window": 1e-3, "max_transaction_delay": 2.0,
            "min_spike_height": 0.10,
        },
        retention=8.0,
        refreshes=120,
        post_queries=5,
    ),
    WorkloadSpec(
        name="dense_surge",
        why=(
            "Flash crowd: every class busy, every kernel row goes to "
            "fft_batch, and tracer flush, wire, collector and spill carry "
            "the most records of any workload."
        ),
        app="many_class",
        app_kwargs={
            "classes": 3, "quiet_fraction": 0.0, "request_rate": 100.0,
            "quiet_after": None,
        },
        pathmap={
            "window": 6.0, "refresh_interval": 2.0, "quantum": 1e-3,
            "sampling_window": 5e-3, "max_transaction_delay": 2.0,
            # 0.10 admits chance spikes here, and how many the DFS chases
            # (hence correlators, summary rows, fold time) then swings
            # +-20% with the seed; 0.20 keeps the work seed-independent.
            "min_spike_height": 0.20,
        },
        retention=8.0,
        refreshes=120,
        post_queries=5,
    ),
    WorkloadSpec(
        name="fanout_mesh",
        why=(
            "Many edges per class over shared backends: the DFS and the "
            "rle kernel carry the refresh, and it is the one workload where "
            "edge_f1 < 1, so an accuracy cost shows."
        ),
        app="mesh",
        app_kwargs={
            "classes": 5, "backends": 10, "stores": 2, "fanout": 3,
            "request_rate": 10.0,
        },
        pathmap={
            "window": 8.0, "refresh_interval": 2.0, "quantum": 1e-3,
            "sampling_window": 50e-3, "max_transaction_delay": 0.5,
            "min_spike_height": 0.10,
        },
        retention=10.0,
        refreshes=120,
        post_queries=5,
    ),
    WorkloadSpec(
        name="lake_history",
        why=(
            "Reads beside writes: cheap refreshes over a long run, with "
            "summary-fold queries and stitched historical windows in the "
            "loop, so spill, checkpoint and lake reads dominate."
        ),
        app="many_class",
        app_kwargs={"classes": 2, "quiet_fraction": 0.0, "request_rate": 20.0},
        pathmap={
            "window": 10.0, "refresh_interval": 5.0, "quantum": 1e-3,
            "sampling_window": 10e-3, "max_transaction_delay": 1.0,
            "min_spike_height": 0.20,  # seed-independent work, as in dense_surge
        },
        retention=31.0,
        refreshes=240,
        query_every=8,
    ),
)

#: Workload name -> spec, in reporting order.
WORKLOADS: Mapping[str, WorkloadSpec] = MappingProxyType(
    {spec.name: spec for spec in _SPECS}
)

for _spec in _SPECS:
    if _spec.measured_refreshes < MIN_MEASURED_REFRESHES:
        raise ValueError(
            f"workload {_spec.name!r} measures {_spec.measured_refreshes} "
            f"refreshes; the benchmark needs >= {MIN_MEASURED_REFRESHES}"
        )
