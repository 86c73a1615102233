"""Topology builder: one-stop wiring of a simulated enterprise system.

Bundles a simulator, a network fabric, per-node tracers, a central trace
collector, and optional ground truth into a single object with a small
API, so application topologies (RUBiS, Delta) and examples read linearly::

    topo = Topology(seed=7)
    db = topo.add_service_node("DB", LogNormal(0.008))
    ws = topo.add_service_node("WS", Constant(0.002),
                               router=StaticRouter({"bid": "DB"}))
    client = topo.add_client("C1", "bid", front_end="WS")
    topo.open_workload(client, rate=50.0)
    topo.run_until(180.0)
    window = topo.collector.window(RUBIS_CONFIG, end_time=180.0)
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.errors import TopologyError
from repro.simulation.des import Simulator
from repro.simulation.distributions import Distribution, Exponential
from repro.simulation.groundtruth import GroundTruth
from repro.simulation.network import DEFAULT_LATENCY, Fabric
from repro.simulation.nodes import ClientNode, Router, ServiceNode
from repro.simulation.workload import (
    ClosedWorkload,
    ModulatedWorkload,
    OpenWorkload,
    RateFunction,
    RetryWorkload,
)
from repro.tracing.collector import TraceCollector
from repro.tracing.records import NodeId
from repro.tracing.tracer import Tracer


class Topology:
    """A simulated distributed system with passive tracing wired in."""

    def __init__(
        self,
        seed: int = 0,
        default_latency: Distribution = DEFAULT_LATENCY,
        packets_per_message: int = 1,
    ) -> None:
        self.sim = Simulator()
        self.rng = np.random.default_rng(seed)
        self.fabric = Fabric(
            self.sim,
            self.rng,
            default_latency=default_latency,
            packets_per_message=packets_per_message,
        )
        self.collector = TraceCollector()
        self.fabric.set_trace_sink(self.collector.ingest_point)
        self.service_nodes: Dict[NodeId, ServiceNode] = {}
        self.clients: Dict[NodeId, ClientNode] = {}
        self.workloads: List[object] = []
        self._ground_truths: Dict[NodeId, GroundTruth] = {}

    # -- construction ----------------------------------------------------------

    def add_service_node(
        self,
        node_id: NodeId,
        service_time: Distribution,
        workers: int = 4,
        router: Optional[Router] = None,
        response_service_time: Optional[Distribution] = None,
        clock_skew: float = 0.0,
    ) -> ServiceNode:
        """Create a traced service node."""
        node = ServiceNode(
            self.sim,
            self.fabric,
            node_id,
            service_time=service_time,
            response_service_time=response_service_time,
            workers=workers,
            router=router,
        )
        self.fabric.attach_tracer(Tracer(node_id, clock_skew=clock_skew))
        self.service_nodes[node_id] = node
        return node

    def add_client(
        self, node_id: NodeId, service_class: str, front_end: NodeId
    ) -> ClientNode:
        """Create an untraced client node issuing one service class."""
        if not self.fabric.has_node(front_end):
            raise TopologyError(
                f"front end {front_end!r} must be added before client {node_id!r}"
            )
        client = ClientNode(self.sim, self.fabric, node_id, service_class, front_end)
        self.clients[node_id] = client
        self.collector.add_client(node_id)
        return client

    def node(self, node_id: NodeId) -> ServiceNode:
        try:
            return self.service_nodes[node_id]
        except KeyError:
            raise TopologyError(f"unknown service node {node_id!r}") from None

    def set_link_latency(self, src: NodeId, dst: NodeId, latency: Distribution) -> None:
        self.fabric.set_latency(src, dst, latency)

    # -- workloads ------------------------------------------------------------------

    def open_workload(
        self, client: ClientNode, rate: float, start: bool = True
    ) -> OpenWorkload:
        """Poisson arrivals at ``rate`` req/s from ``client``."""
        workload = OpenWorkload(self.sim, client, rate, self.rng)
        self.workloads.append(workload)
        if start:
            workload.start()
        return workload

    def closed_workload(
        self,
        client: ClientNode,
        sessions: int,
        think_time: Optional[Distribution] = None,
        start: bool = True,
    ) -> ClosedWorkload:
        """``sessions`` think-loop sessions (httperf style) from ``client``."""
        workload = ClosedWorkload(
            self.sim, client, sessions, think_time or Exponential(1.0), self.rng
        )
        self.workloads.append(workload)
        if start:
            workload.start()
        return workload

    def modulated_workload(
        self,
        client: ClientNode,
        rate_fn: RateFunction,
        peak_rate: float,
        start: bool = True,
    ) -> ModulatedWorkload:
        """Non-homogeneous Poisson arrivals with rate ``rate_fn(t)``."""
        workload = ModulatedWorkload(self.sim, client, rate_fn, peak_rate, self.rng)
        self.workloads.append(workload)
        if start:
            workload.start()
        return workload

    def retry_workload(
        self,
        client: ClientNode,
        rate: float,
        timeout: float,
        retry_delay: float = 0.05,
        max_retries: int = 2,
        start: bool = True,
    ) -> RetryWorkload:
        """Open arrivals plus timeout-driven client retries."""
        workload = RetryWorkload(
            self.sim, client, rate, self.rng, timeout, retry_delay, max_retries
        )
        self.workloads.append(workload)
        if start:
            workload.start()
        return workload

    # -- observation --------------------------------------------------------------------

    def ground_truth(self, front_end: NodeId) -> GroundTruth:
        """Attach (or fetch) the exact recorder for one front end."""
        if front_end not in self._ground_truths:
            self._ground_truths[front_end] = GroundTruth(self.fabric, front_end)
        return self._ground_truths[front_end]

    # -- execution -------------------------------------------------------------------------

    def run_until(self, end_time: float) -> int:
        """Advance the simulation to ``end_time`` (seconds)."""
        return self.sim.run_until(end_time)

    @property
    def now(self) -> float:
        return self.sim.now
