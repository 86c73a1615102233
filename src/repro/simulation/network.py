"""Message fabric: links, latencies, packet capture hooks.

The :class:`Fabric` is the simulated network. It routes messages between
registered nodes with per-link latency distributions, and fires capture
hooks at both endpoints -- exactly where the paper's `tracer` kernel
module sits (netfilter: outgoing packets are captured at the sender,
incoming packets at the receiver).

A message may be carried by several back-to-back packets
(``packets_per_message``); the paper notes that "a single transaction may
be composed of multiple packets sent back-to-back", which is part of why
traffic is bursty.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Callable, Dict, List, Optional, Protocol, Tuple

import numpy as np

from repro.errors import SimulationError, TopologyError
from repro.simulation.des import Simulator
from repro.simulation.distributions import Constant, Distribution
from repro.tracing.records import NodeId
from repro.tracing.tracer import Tracer

#: (timestamp, src, dst, observer, message) capture callback signature.
CaptureHook = Callable[[float, NodeId, NodeId, NodeId, "object"], None]

#: (local timestamp, src, dst, observed at destination) callback fed by
#: every capture a tracer took -- what the tracer streams on.
TraceSink = Callable[[float, NodeId, NodeId, bool], None]


class Receiver(Protocol):
    """Anything that can be registered on the fabric."""

    node_id: NodeId

    def receive(self, message: object) -> None: ...


#: Default LAN one-way latency: 0.2 ms (typical switched-ethernet RTT/2).
DEFAULT_LATENCY = Constant(0.0002)

#: Spacing of back-to-back packets of one message (wire serialization).
PACKET_GAP = 20e-6


class Fabric:
    """The simulated network connecting all nodes.

    Parameters
    ----------
    sim:
        The shared simulation engine.
    rng:
        Shared random generator (latency sampling).
    default_latency:
        Latency distribution for links without an explicit one.
    packets_per_message:
        How many back-to-back packets carry one message (>= 1).
    """

    def __init__(
        self,
        sim: Simulator,
        rng: np.random.Generator,
        default_latency: Distribution = DEFAULT_LATENCY,
        packets_per_message: int = 1,
    ) -> None:
        if packets_per_message < 1:
            raise SimulationError(
                f"packets_per_message must be >= 1, got {packets_per_message}"
            )
        self.sim = sim
        self.rng = rng
        self.default_latency = default_latency
        self.packets_per_message = packets_per_message
        # Each packet's offset from its message's send/arrival time.
        self._packet_offsets = tuple(k * PACKET_GAP for k in range(packets_per_message))
        self._nodes: Dict[NodeId, Receiver] = {}
        self._latencies: Dict[Tuple[NodeId, NodeId], Distribution] = {}
        self._tracers: Dict[NodeId, Tracer] = {}
        self._capture_hooks: List[CaptureHook] = []
        self._trace_sink: Optional[TraceSink] = None
        self._messages_sent = 0
        self._request_ids = itertools.count(1)

    # -- registration -------------------------------------------------------------

    def register(self, node: Receiver) -> None:
        if node.node_id in self._nodes:
            raise TopologyError(f"duplicate node id {node.node_id!r}")
        self._nodes[node.node_id] = node

    def node(self, node_id: NodeId) -> Receiver:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise TopologyError(f"unknown node {node_id!r}") from None

    def has_node(self, node_id: NodeId) -> bool:
        return node_id in self._nodes

    def attach_tracer(self, tracer: Tracer) -> None:
        """Install a passive tracer at a node (client nodes have none)."""
        if tracer.node in self._tracers:
            raise TopologyError(f"node {tracer.node!r} already has a tracer")
        self._tracers[tracer.node] = tracer

    def tracer(self, node_id: NodeId) -> Optional[Tracer]:
        return self._tracers.get(node_id)

    @property
    def tracers(self) -> Dict[NodeId, Tracer]:
        return dict(self._tracers)

    def add_capture_hook(self, hook: CaptureHook) -> None:
        """Register an observer of every packet capture, traced or not,
        by true time and with the message (ground truth, access logs)."""
        self._capture_hooks.append(hook)

    def set_trace_sink(self, sink: TraceSink) -> None:
        """Stream every capture a tracer takes, by that tracer's local
        clock, to ``sink`` (the topology's collector)."""
        self._trace_sink = sink

    def set_latency(self, src: NodeId, dst: NodeId, latency: Distribution) -> None:
        """Override the latency of the directed link ``src -> dst``."""
        self._latencies[(src, dst)] = latency

    def link_latency(self, src: NodeId, dst: NodeId) -> Distribution:
        return self._latencies.get((src, dst), self.default_latency)

    @property
    def messages_sent(self) -> int:
        return self._messages_sent

    def next_request_id(self) -> int:
        """Fresh request id, unique and deterministic within this fabric."""
        return next(self._request_ids)

    # -- transport -----------------------------------------------------------------

    def send(self, message: "object") -> None:
        """Put a message on the wire from ``message.src`` to ``message.dst``.

        Captures the packet(s) at the sender now, samples the link latency
        once per message, and schedules delivery (with the receiver-side
        capture) at arrival.
        """
        src = message.src  # type: ignore[attr-defined]
        dst = message.dst  # type: ignore[attr-defined]
        if dst not in self._nodes:
            raise TopologyError(f"message to unknown node {dst!r}")
        self._capture(self.sim.now, src, dst, src, message)
        latency = self.link_latency(src, dst).sample(self.rng)
        self._messages_sent += 1
        self.sim.schedule(latency, partial(self._deliver, message))

    def _deliver(self, message: "object") -> None:
        dst = message.dst  # type: ignore[attr-defined]
        self._capture(self.sim.now, message.src, dst, dst, message)  # type: ignore[attr-defined]
        self._nodes[dst].receive(message)

    def _capture(
        self, timestamp: float, src: NodeId, dst: NodeId, observer: NodeId, message: "object"
    ) -> None:
        """One packet per ``packets_per_message`` at ``observer``: the
        tracer there (if any) records it and its local stamp goes to the
        trace sink; every capture hook sees it by true time."""
        tracer = self._tracers.get(observer)
        hooks = self._capture_hooks
        if tracer is None and not hooks:
            return
        sink = self._trace_sink
        at_destination = observer == dst
        for offset in self._packet_offsets:
            stamp = timestamp + offset
            if tracer is not None:
                local = tracer.observe(stamp, src, dst)
                if sink is not None:
                    sink(local, src, dst, at_destination)
            for hook in hooks:
                hook(stamp, src, dst, observer, message)
