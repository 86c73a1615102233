"""Ground-truth recorder for validating pathmap output.

The paper validates E2EProf by instrumenting RUBiS "to keep track of
transaction latency at different servers, by piggybagging performance
delay information in requests and responses" (Section 4.1.1). In our
simulated substrate we can do strictly better: the recorder taps the
fabric's capture hook and the nodes' service logs, so it knows the exact
per-hop arrival times and per-node processing delays of every request.

None of this is visible to pathmap, which sees only edge timestamps.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.simulation.network import Fabric
from repro.simulation.nodes import Message, REQUEST
from repro.tracing.records import NodeId

EdgeKey = Tuple[NodeId, NodeId]


@dataclasses.dataclass
class _RequestTrace:
    service_class: str
    front_arrival: Optional[float] = None
    # Earliest arrival time per edge (a fan-out may hit an edge repeatedly).
    edge_arrivals: Dict[EdgeKey, float] = dataclasses.field(default_factory=dict)


class GroundTruth:
    """Passive, exact observation of the simulated system.

    Attach before running::

        truth = GroundTruth(fabric, front_end="WS")
        ...run simulation...
        truth.mean_edge_delay("bidding", ("WS", "TS1"))
    """

    def __init__(self, fabric: Fabric, front_end: NodeId) -> None:
        self.front_end = front_end
        self._requests: Dict[int, _RequestTrace] = {}
        fabric.add_capture_hook(self._on_capture)

    # -- capture ------------------------------------------------------------------

    def _on_capture(
        self, timestamp: float, src: NodeId, dst: NodeId, observer: NodeId, message: object
    ) -> None:
        if observer != dst or not isinstance(message, Message):
            return  # only count deliveries, once per message
        trace = self._requests.get(message.request_id)
        if trace is None:
            trace = _RequestTrace(service_class=message.service_class)
            self._requests[message.request_id] = trace
        if dst == self.front_end and message.kind == REQUEST and trace.front_arrival is None:
            trace.front_arrival = timestamp
        edge = (src, dst)
        if edge not in trace.edge_arrivals:
            trace.edge_arrivals[edge] = timestamp

    # -- queries -------------------------------------------------------------------

    def edge_delays(
        self,
        service_class: str,
        edge: EdgeKey,
        since: float = 0.0,
        until: float = float("inf"),
    ) -> List[float]:
        """True cumulative delays (front-end arrival -> arrival at edge.dst)
        for every request of a class that traversed ``edge``.

        This is exactly the quantity a pathmap spike on that edge denotes.
        """
        out: List[float] = []
        for trace in self._requests.values():
            if trace.service_class != service_class or trace.front_arrival is None:
                continue
            if not (since <= trace.front_arrival < until):
                continue
            arrival = trace.edge_arrivals.get(edge)
            if arrival is not None:
                out.append(arrival - trace.front_arrival)
        return out

    def mean_edge_delay(
        self,
        service_class: str,
        edge: EdgeKey,
        since: float = 0.0,
        until: float = float("inf"),
    ) -> float:
        delays = self.edge_delays(service_class, edge, since, until)
        if not delays:
            return float("nan")
        return float(np.mean(delays))

    def traversed_edges(
        self,
        service_class: str,
        since: float = 0.0,
        until: float = float("inf"),
    ) -> Dict[EdgeKey, int]:
        """Every edge requests of a class traversed, with request counts.

        ``since``/``until`` restrict to requests whose *front-end arrival*
        fell in ``[since, until)`` -- the same windowing convention as
        :meth:`edge_delays`, so a sliding-window analysis can be graded
        against exactly the requests its window contained.
        """
        counts: Dict[EdgeKey, int] = {}
        for trace in self._requests.values():
            if trace.service_class != service_class:
                continue
            if trace.front_arrival is None or not (
                since <= trace.front_arrival < until
            ):
                continue
            for edge in trace.edge_arrivals:
                counts[edge] = counts.get(edge, 0) + 1
        return counts

    def request_count(self, service_class: Optional[str] = None) -> int:
        return sum(
            1
            for trace in self._requests.values()
            if service_class is None or trace.service_class == service_class
        )
