"""Simulated service and client nodes.

A :class:`ServiceNode` is a k-worker FIFO queueing station: messages
(requests and responses alike) queue for a worker, are held for a sampled
service time (plus any injected fault delay), and are then routed by the
node's :class:`Router`.

Request-response flow uses an explicit *return stack* carried in the
message (no global state): every node that forwards a request pushes
itself; a replying leaf turns the message around, and each pop walks the
response back hop-by-hop through the same nodes in reverse order -- the
paper's bidirectional path assumption.

Fan-out is supported (an EJB server issuing multiple database queries for
one request -- the paper's "changes in rate across nodes"): a router may
forward to several targets at once; the node joins the responses and
propagates a single response upstream once all have arrived.
"""

from __future__ import annotations

import abc
import collections
import dataclasses
from functools import partial
from typing import Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.simulation.des import Simulator
from repro.simulation.distributions import Constant, Distribution
from repro.simulation.network import Fabric
from repro.tracing.records import NodeId

REQUEST = "request"
RESPONSE = "response"


@dataclasses.dataclass
class Message:
    """One application message in flight.

    ``return_stack`` holds the upstream nodes a response must traverse,
    bottom (client) to top (most recent forwarder). Every hop builds
    one, so it carries no per-instance ``__dict__``.
    """

    __slots__ = (
        "request_id", "service_class", "kind", "src", "dst", "return_stack",
        "created_at",
    )

    request_id: int
    service_class: str
    kind: str
    src: NodeId
    dst: NodeId
    return_stack: Tuple[NodeId, ...]
    created_at: float

    def __post_init__(self) -> None:
        if self.kind not in (REQUEST, RESPONSE):
            raise SimulationError(f"unknown message kind {self.kind!r}")


class Decision(abc.ABC):
    """What a router wants done with a serviced request."""


@dataclasses.dataclass(frozen=True)
class Forward(Decision):
    """Forward the request to one or more downstream nodes (fan-out)."""

    targets: Tuple[NodeId, ...]

    def __init__(self, *targets: NodeId) -> None:
        if not targets:
            raise SimulationError("Forward needs at least one target")
        object.__setattr__(self, "targets", tuple(targets))


class Reply(Decision):
    """Turn the request around: send a response to the caller."""


class Absorb(Decision):
    """Consume the request with no response -- unidirectional pipelines
    (streaming media, event pipelines like Delta's Revenue Pipeline)."""


class Router(abc.ABC):
    """Pluggable request-routing policy of a service node."""

    @abc.abstractmethod
    def route(self, node: "ServiceNode", message: Message) -> Decision:
        """Decide what to do with a serviced request."""


class StaticRouter(Router):
    """Routes by service class using a fixed map; unlisted classes reply.

    ``targets[cls]`` may be a single node id or a sequence (fan-out).
    """

    def __init__(self, targets: Dict[str, object], default: Optional[object] = None) -> None:
        self._targets = dict(targets)
        self._default = default

    def route(self, node: "ServiceNode", message: Message) -> Decision:
        target = self._targets.get(message.service_class, self._default)
        if target is None:
            return Reply()
        if isinstance(target, str):
            return Forward(target)
        return Forward(*target)


class LeafRouter(Router):
    """Always replies -- terminal nodes (the database tier)."""

    def route(self, node: "ServiceNode", message: Message) -> Decision:
        return Reply()


class SinkRouter(Router):
    """Always absorbs -- the end of a unidirectional pipeline."""

    def route(self, node: "ServiceNode", message: Message) -> Decision:
        return Absorb()


#: Injected extra service delay: callable(now) -> seconds. Used for the
#: Figure 7 staircase and the Table 1 random perturbation.
DelayFunction = Callable[[float], float]


class ServiceNode:
    """A k-worker FIFO queueing station with pluggable routing.

    Parameters
    ----------
    sim, fabric:
        Shared simulation engine and network.
    node_id:
        Unique id (the paper labels nodes by IP or IP+pid).
    service_time:
        Service time distribution for requests.
    response_service_time:
        Service time for responses passing back through the node
        (defaults to a tenth of nothing -- a fast constant; response
        forwarding is much cheaper than request processing).
    workers:
        Number of concurrent workers (threads) -- the queueing capacity.
    router:
        Routing policy; defaults to :class:`LeafRouter`.
    """

    def __init__(
        self,
        sim: Simulator,
        fabric: Fabric,
        node_id: NodeId,
        service_time: Distribution,
        response_service_time: Optional[Distribution] = None,
        workers: int = 4,
        router: Optional[Router] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if workers < 1:
            raise SimulationError(f"workers must be >= 1, got {workers}")
        self.sim = sim
        self.fabric = fabric
        self.node_id = node_id
        self.service_time = service_time
        self.response_service_time = response_service_time or Constant(0.0005)
        self.workers = workers
        self.router = router or LeafRouter()
        self.rng = rng if rng is not None else fabric.rng
        self.extra_delay: Optional[DelayFunction] = None
        self._extra_delay_kinds: Tuple[str, ...] = (REQUEST,)
        self._failed = False
        self.dropped_messages = 0
        self._queue: Deque[Tuple[Message, float]] = collections.deque()
        self._busy = 0
        # Fan-out joins: request_id -> outstanding child-response count.
        self._joins: Dict[int, int] = {}
        # Observability / ground truth.
        self.serviced_requests = 0
        self.serviced_responses = 0
        self._service_log: List[Tuple[float, str, str, float]] = []
        self._queue_delay_log: List[float] = []
        fabric.register(self)

    # -- fault injection ------------------------------------------------------------

    @property
    def failed(self) -> bool:
        return self._failed

    def fail(self) -> None:
        """Crash the node: queued and future messages are dropped (in-service
        work is lost too)."""
        self._failed = True
        self.dropped_messages += len(self._queue)
        self._queue.clear()

    def recover(self) -> None:
        """Bring a crashed node back into service."""
        self._failed = False

    def set_extra_delay(
        self, fn: Optional[DelayFunction], kinds: Tuple[str, ...] = (REQUEST,)
    ) -> None:
        """Inject (or clear) an additional service delay, as a function of
        simulation time. Models the paper's artificial perturbations, which
        are injected into *request* processing (pass ``kinds`` to also slow
        responses)."""
        self.extra_delay = fn
        self._extra_delay_kinds = kinds

    # -- queueing ---------------------------------------------------------------------

    def receive(self, message: Message) -> None:
        if self._failed:
            # A crashed node drops traffic on the floor -- the 'service
            # outages' the paper's introduction motivates detecting.
            self.dropped_messages += 1
            return
        self._queue.append((message, self.sim.now))
        self._dispatch()

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    @property
    def busy_workers(self) -> int:
        return self._busy

    def _dispatch(self) -> None:
        now = self.sim.now
        while self._busy < self.workers and self._queue:
            message, enqueued_at = self._queue.popleft()
            self._busy += 1
            self._queue_delay_log.append(now - enqueued_at)
            duration = self._sample_service(message)
            self._service_log.append((now, message.service_class, message.kind, duration))
            self.sim.schedule(duration, partial(self._complete, message))

    def _sample_service(self, message: Message) -> float:
        if message.kind == REQUEST:
            duration = self.service_time.sample(self.rng)
        else:
            duration = self.response_service_time.sample(self.rng)
        if self.extra_delay is not None and message.kind in self._extra_delay_kinds:
            duration += max(0.0, self.extra_delay(self.sim.now))
        return duration

    def _complete(self, message: Message) -> None:
        self._busy -= 1
        if self._failed:
            # Work in flight at crash time is lost.
            self.dropped_messages += 1
            return
        try:
            if message.kind == REQUEST:
                self._handle_request(message)
            else:
                self._handle_response(message)
        finally:
            self._dispatch()

    # -- routing -----------------------------------------------------------------------

    def _handle_request(self, message: Message) -> None:
        self.serviced_requests += 1
        decision = self.router.route(self, message)
        if isinstance(decision, Absorb):
            return
        if isinstance(decision, Reply):
            self._send_response(message)
            return
        if isinstance(decision, Forward):
            targets = decision.targets
            if len(targets) > 1:
                self._joins[message.request_id] = (
                    self._joins.get(message.request_id, 0) + len(targets) - 1
                )
            stack = message.return_stack + (self.node_id,)
            for target in targets:
                self.fabric.send(
                    Message(
                        message.request_id, message.service_class, message.kind,
                        self.node_id, target, stack, message.created_at,
                    )
                )
            return
        raise SimulationError(f"router returned unknown decision {decision!r}")

    def _handle_response(self, message: Message) -> None:
        self.serviced_responses += 1
        outstanding = self._joins.get(message.request_id)
        if outstanding:
            # Absorb all but the last child response of a fan-out.
            if outstanding > 1:
                self._joins[message.request_id] = outstanding - 1
            else:
                del self._joins[message.request_id]
            if outstanding >= 1:
                return
        self._propagate_response(message)

    def _send_response(self, request: Message) -> None:
        """Turn a request around at a leaf."""
        if not request.return_stack:
            raise SimulationError(
                f"request {request.request_id} reached leaf {self.node_id!r} "
                "with an empty return stack"
            )
        self.fabric.send(self._response_hop(request))

    def _propagate_response(self, message: Message) -> None:
        """Walk a response one hop further up the return stack."""
        if not message.return_stack:
            raise SimulationError(
                f"response {message.request_id} at {self.node_id!r} has no "
                "upstream left"
            )
        self.fabric.send(self._response_hop(message))

    def _response_hop(self, message: Message) -> Message:
        """The response to ``message`` one hop up its return stack, from
        this node."""
        stack = message.return_stack
        return Message(
            message.request_id, message.service_class, RESPONSE,
            self.node_id, stack[-1], stack[:-1], message.created_at,
        )

    # -- observability ------------------------------------------------------------------

    def service_log(self) -> List[Tuple[float, str, str, float]]:
        """(start_time, class, kind, duration) per serviced message."""
        return list(self._service_log)

    def mean_service_time(
        self, service_class: Optional[str] = None, kind: str = REQUEST
    ) -> float:
        durations = [
            d
            for (_, cls, k, d) in self._service_log
            if k == kind and (service_class is None or cls == service_class)
        ]
        if not durations:
            return 0.0
        return float(np.mean(durations))

    def mean_queue_delay(self) -> float:
        if not self._queue_delay_log:
            return 0.0
        return float(np.mean(self._queue_delay_log))


class ClientNode:
    """A client node: issues requests of one service class, measures
    response latency. Clients are *not* traced (paper Section 3.3).

    One physical client issuing multiple request classes is modelled as
    multiple client nodes (paper Section 3.2).
    """

    def __init__(
        self,
        sim: Simulator,
        fabric: Fabric,
        node_id: NodeId,
        service_class: str,
        front_end: NodeId,
    ) -> None:
        self.sim = sim
        self.fabric = fabric
        self.node_id = node_id
        self.service_class = service_class
        self.front_end = front_end
        self.sent = 0
        self.completed = 0
        self._latencies: List[Tuple[float, float]] = []  # (completion time, latency)
        self._inflight: Dict[int, float] = {}
        self._completion_callbacks: List[Callable[[Message, float], None]] = []
        fabric.register(self)

    def issue_request(self) -> int:
        """Send one request to the front end; returns its request id."""
        request_id = self.fabric.next_request_id()
        message = Message(
            request_id=request_id,
            service_class=self.service_class,
            kind=REQUEST,
            src=self.node_id,
            dst=self.front_end,
            return_stack=(self.node_id,),
            created_at=self.sim.now,
        )
        self._inflight[request_id] = self.sim.now
        self.sent += 1
        self.fabric.send(message)
        return request_id

    def receive(self, message: Message) -> None:
        if message.kind != RESPONSE:
            raise SimulationError(
                f"client {self.node_id!r} received a non-response message"
            )
        started = self._inflight.pop(message.request_id, None)
        if started is None:
            raise SimulationError(
                f"client {self.node_id!r} received unknown response "
                f"{message.request_id}"
            )
        latency = self.sim.now - started
        self.completed += 1
        self._latencies.append((self.sim.now, latency))
        for callback in self._completion_callbacks:
            callback(message, latency)

    def on_completion(self, callback: Callable[[Message, float], None]) -> None:
        """Register a callback fired at every completed request (closed
        workloads use this to drive think-time loops)."""
        self._completion_callbacks.append(callback)

    # -- measurements ----------------------------------------------------------------

    def latencies(self, since: float = 0.0) -> List[float]:
        """Client-perceived latencies of requests completed after ``since``."""
        return [lat for (t, lat) in self._latencies if t >= since]

    def latencies_between(self, start: float, end: float) -> List[float]:
        """Latencies of requests completed in ``[start, end)``."""
        return [lat for (t, lat) in self._latencies if start <= t < end]

    def mean_latency(self, since: float = 0.0) -> float:
        lats = self.latencies(since)
        if not lats:
            return 0.0
        return float(np.mean(lats))

    @property
    def outstanding(self) -> int:
        return len(self._inflight)
