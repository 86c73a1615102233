"""Bit-identity of the discrete-event simulator (``tests/data/des_golden.json``).

Every benchmark set-up, paper gate and scenario is driven by the DES, so
a change to its per-packet path -- fabric capture, tracer, collector
stream, message construction -- must leave what it produces unchanged to
the bit. For a short seeded run of each ``repro.apps`` builder this pins
the sha256 of:

``captures``
    ``collector.export_batches()``: every ``(edge, side)`` stream's
    sorted timestamps, as raw float64 bytes.
``truth``
    the ground-truth tables: per service class and edge, the exact
    cumulative delays ``GroundTruth.edge_delays`` reports, plus every
    delivered message's ``(time, request, class, kind, src, dst,
    return stack, created_at)`` in delivery order, plus Delta's
    application access log.
``tracers``
    every tracer's raw local-clock timestamps per edge (sorted), edges in
    first-capture order -- what ``flush_block`` and the transport read.

A swapped random draw, a reordered event or a changed packet stamp moves
at least one digest. Regenerate only for a deliberate change to the
simulated system, never for a refactor::

    PYTHONPATH=src python tests/test_des_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import struct
import sys
from typing import Dict, List

import numpy as np
import pytest

from repro.apps.delta import build_delta
from repro.apps.faults import staircase_delay
from repro.apps.manyclass import build_many_class
from repro.apps.mesh import build_mesh
from repro.apps.pubsub import build_pubsub
from repro.apps.rubis import build_rubis
from repro.simulation.distributions import Constant, Erlang, Exponential
from repro.simulation.nodes import Message, StaticRouter
from repro.simulation.topology import Topology

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "des_golden.json"


def _rubis_faulted(seed: int):
    deployment = build_rubis(
        dispatch="round_robin", seed=seed, request_rate=15.0, db_fanout=2,
        packets_per_message=2,
    )
    deployment.tomcats["TS1"].set_extra_delay(
        staircase_delay(step=0.004, interval=3.0, start=4.0)
    )
    return deployment


class _Skewed:
    """A hand-wired chain with skewed tracer clocks, retries and a
    modulated feed: the topology paths no ``repro.apps`` builder takes."""

    def __init__(self, seed: int) -> None:
        self.topology = Topology(seed=seed)
        topo = self.topology
        topo.add_service_node("DB", Erlang(0.004, k=4), workers=2, clock_skew=-0.0031)
        topo.add_service_node(
            "AP", Exponential(0.003), workers=4, clock_skew=0.0125,
            router=StaticRouter({}, default="DB"),
        )
        topo.add_service_node(
            "FE", Constant(0.001), workers=8, router=StaticRouter({}, default="AP")
        )
        topo.set_link_latency("FE", "AP", Exponential(0.0005))
        retry = topo.add_client("C0", "retry", front_end="FE")
        wave = topo.add_client("C1", "wave", front_end="FE")
        topo.retry_workload(retry, rate=60.0, timeout=0.02, max_retries=2)
        topo.modulated_workload(wave, lambda t: 20.0 + 15.0 * (t % 2.0), peak_rate=50.0)

    def run_until(self, end_time: float) -> int:
        return self.topology.run_until(end_time)


#: case name -> (builder(seed), simulated seconds). Each runs well under
#: a second; together they cover fan-out joins, multi-packet messages,
#: clock-free and absorbing pipelines, injected delays and closed loops.
CASES: Dict[str, tuple] = {
    "rubis_affinity": (lambda seed: build_rubis(seed=seed, request_rate=20.0), 12.0),
    "rubis_faulted": (_rubis_faulted, 12.0),
    "rubis_closed": (
        lambda seed: build_rubis(seed=seed, workload="closed", sessions=10), 12.0
    ),
    "delta": (
        lambda seed: build_delta(seed=seed, num_queues=4, events_per_hour=7200.0),
        300.0,
    ),
    "pubsub": (lambda seed: build_pubsub(seed=seed, publish_rate=40.0), 10.0),
    "mesh": (
        lambda seed: build_mesh(
            seed=seed, classes=4, backends=6, stores=2, fanout=3, request_rate=15.0
        ),
        8.0,
    ),
    "skewed_retries": (_Skewed, 6.0),
    "many_class": (
        lambda seed: build_many_class(
            seed=seed, classes=6, quiet_fraction=0.5, request_rate=25.0,
            quiet_after=4.0,
        ),
        8.0,
    ),
}

SEED = 5


class _DeliveryLog:
    """Capture hook: every delivered message, in delivery order."""

    def __init__(self) -> None:
        self.rows: List[tuple] = []

    def __call__(self, timestamp, src, dst, observer, message) -> None:
        if observer == dst and isinstance(message, Message):
            self.rows.append(
                (
                    timestamp, message.request_id, message.service_class,
                    message.kind, src, dst, message.return_stack,
                    message.created_at,
                )
            )


def _front_ends(deployment) -> Dict[str, str]:
    """service class -> front-end node, from the deployment's clients."""
    topology = deployment.topology
    return {c.service_class: c.front_end for c in topology.clients.values()}


def digests(case: str, seed: int = SEED) -> Dict[str, str]:
    """Run one case: its three digests and how many messages it delivered."""
    build, seconds = CASES[case]
    deployment = build(seed)
    topology = deployment.topology
    fronts = _front_ends(deployment)
    truths = {front: topology.ground_truth(front) for front in sorted(set(fronts.values()))}
    log = _DeliveryLog()
    topology.fabric.add_capture_hook(log)
    deployment.run_until(seconds)

    captures = hashlib.sha256()
    for batch in topology.collector.export_batches():
        captures.update(
            f"{batch.src}>{batch.dst}|{int(batch.observed_at_destination)}|".encode()
        )
        captures.update(np.ascontiguousarray(batch.timestamps, np.float64).tobytes())

    truth = hashlib.sha256()
    for cls in sorted(fronts):
        gt = truths[fronts[cls]]
        for edge in sorted(gt.traversed_edges(cls)):
            delays = gt.edge_delays(cls, edge)
            truth.update(f"{cls}|{edge[0]}>{edge[1]}|".encode())
            truth.update(np.asarray(delays, np.float64).tobytes())
    for row in log.rows:
        truth.update(struct.pack("<dq", row[0], row[1]))
        truth.update(repr(row[2:]).encode())
    if hasattr(deployment, "sorted_access_log"):
        truth.update(repr(deployment.sorted_access_log()).encode())

    tracers = hashlib.sha256()
    for node, tracer in sorted(topology.fabric.tracers.items()):
        for src, dst in tracer.edges():
            tracers.update(f"{node}|{src}>{dst}|".encode())
            tracers.update(np.asarray(tracer.timestamps(src, dst), np.float64).tobytes())

    return {
        "captures": captures.hexdigest(),
        "truth": truth.hexdigest(),
        "tracers": tracers.hexdigest(),
        "deliveries": len(log.rows),
    }


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_des_output_is_bit_identical(case: str) -> None:
    want = _golden()["cases"][case]
    got = digests(case, _golden()["seed"])
    assert got["deliveries"] == want["deliveries"]
    assert got == want


def test_every_builder_is_covered() -> None:
    import repro.apps as apps
    from repro.apps import manyclass, mesh

    builders = {
        name for module in (apps, manyclass, mesh) for name in dir(module)
        if name.startswith("build_")
    }
    covered = {"build_rubis", "build_delta", "build_pubsub", "build_mesh",
               "build_many_class"}
    assert builders == covered
    assert set(_golden()["cases"]) == set(CASES)


def _write() -> None:
    payload = {
        "about": (
            "sha256 of collector.export_batches(), the ground-truth tables "
            "plus the delivery log, and every tracer's raw timestamps, for "
            "each case of tests/test_des_golden.py at the given seed"
        ),
        "seed": SEED,
        "cases": {case: digests(case) for case in sorted(CASES)},
    }
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_des_golden.py --write")
    _write()
