"""Synthetic many-class topology for refresh-throughput benchmarking.

The paper's testbeds carry a handful of service classes; an enterprise
analyzer sees hundreds, most of them *quiet* at any given moment (trading
desks after close, batch feeds between runs, regional front ends off
peak). This app builds that shape on the simulation substrate: ``classes``
independent three-tier stacks (client -> front end -> app server) sharing
one database, where a configurable fraction of the classes stops issuing
requests after a warmup period. Their correlators stay live in the engine
-- real deployments cannot know a class is gone for good -- so every
refresh must still walk them, which is exactly the work the
refresh's quiet-edge skipping eliminates (see ``docs/PERFORMANCE.md`` and
``tools/bench_refresh.py``).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.config import PathmapConfig
from repro.errors import TopologyError
from repro.simulation.distributions import Erlang
from repro.simulation.nodes import ClientNode, StaticRouter
from repro.simulation.topology import Topology
from repro.simulation.workload import OpenWorkload

#: Analysis parameters for the refresh benchmark: a short window (three
#: 2 s blocks) and a 0.5 s transaction-delay bound keep single refreshes
#: fast enough to measure many of them in CI.
MANY_CLASS_CONFIG = PathmapConfig(
    window=6.0,
    refresh_interval=2.0,
    quantum=1e-3,
    sampling_window=50e-3,
    max_transaction_delay=0.5,
    min_spike_height=0.10,
)


@dataclasses.dataclass
class ManyClassDeployment:
    """A wired many-class system ready to run."""

    topology: Topology
    config: PathmapConfig
    clients: Dict[str, ClientNode]
    workloads: Dict[str, OpenWorkload]
    #: Class names whose workload stops at ``quiet_after`` (sim seconds).
    quiet_classes: List[str]
    quiet_after: Optional[float]

    @property
    def collector(self):
        return self.topology.collector

    def run_until(self, end_time: float) -> int:
        return self.topology.run_until(end_time)


def build_many_class(
    classes: int = 12,
    quiet_fraction: float = 0.5,
    seed: int = 0,
    request_rate: float = 8.0,
    quiet_after: Optional[float] = 5.0,
    config: PathmapConfig = MANY_CLASS_CONFIG,
) -> ManyClassDeployment:
    """Build ``classes`` three-tier stacks sharing one database.

    Class ``i`` is the chain ``C{i} -> FE{i} -> AP{i} -> DB``. The last
    ``round(classes * quiet_fraction)`` classes stop issuing requests at
    simulation time ``quiet_after`` (None keeps every class active): from
    the next full block on, every edge of a stopped class is quiet while
    its correlators remain live in an attached engine.
    """
    if classes < 1:
        raise TopologyError(f"classes must be >= 1, got {classes}")
    if not 0.0 <= quiet_fraction <= 1.0:
        raise TopologyError(
            f"quiet_fraction must be in [0, 1], got {quiet_fraction}"
        )
    topo = Topology(seed=seed)
    topo.add_service_node("DB", Erlang(0.004, k=8), workers=16)
    clients: Dict[str, ClientNode] = {}
    workloads: Dict[str, OpenWorkload] = {}
    names: List[str] = []
    for i in range(classes):
        name = f"K{i}"
        names.append(name)
        topo.add_service_node(
            f"AP{i}", Erlang(0.006, k=8), workers=8,
            router=StaticRouter({}, default="DB"),
        )
        topo.add_service_node(
            f"FE{i}", Erlang(0.002, k=8), workers=8,
            router=StaticRouter({}, default=f"AP{i}"),
        )
        client = topo.add_client(f"C{i}", name, front_end=f"FE{i}")
        clients[name] = client
        workloads[name] = topo.open_workload(client, rate=request_rate)

    num_quiet = int(round(classes * quiet_fraction))
    quiet = names[classes - num_quiet :] if num_quiet else []
    if quiet and quiet_after is not None:
        for name in quiet:
            topo.sim.schedule_at(quiet_after, workloads[name].stop)
    return ManyClassDeployment(
        topology=topo,
        config=config,
        clients=clients,
        workloads=workloads,
        quiet_classes=quiet,
        quiet_after=quiet_after if quiet else None,
    )
