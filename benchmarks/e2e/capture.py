"""Capture generation: the simulator's half of set-up, in a child process.

``generate()`` starts this file as a short-lived child. The child builds
the workload's deployment from the seed, runs the discrete-event
simulation to the workload's end time, and leaves two files behind:

``captures.rtb``
    Everything the deployment's tracers saw, as a binary capture file
    (``topology.collector.export_batches()`` -- the collector keeps only
    captures whose observer has a tracer; clients have none).
``truth.pkl``
    Exact per-class ground truth, as plain dicts of numpy arrays (see
    :class:`TruthIndex`).

Running the simulator in a child keeps its memory out of the measured
process's ``peak_rss_mb`` and its cost confined to ``setup_s``.

Ground truth is recorded by one capture hook of the benchmark's own
instead of ``topology.ground_truth()``: the library recorder answers
every query with a scan over all requests, which makes scoring every
(refresh, class) cell quadratic, and each recorder adds a hook call per
simulated packet. :class:`TruthIndex` answers the same two queries from
sorted arrays; the smoke test pins it to ``topology.ground_truth()``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import pickle
import subprocess
import sys
import time
from typing import Dict, Tuple

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"
if str(SRC) not in sys.path:  # the driver's command line cannot set PYTHONPATH
    sys.path.insert(0, str(SRC))

from repro.simulation.nodes import REQUEST, Message  # noqa: E402
from repro.tracing.storage import write_capture_binary  # noqa: E402

CAPTURE_FILE = "captures.rtb"
TRUTH_FILE = "truth.pkl"

EdgeKey = Tuple[str, str]


class TruthRecorder:
    """Capture hook recording what ``simulation.groundtruth.GroundTruth``
    records -- per request its class, its front-end arrival and its
    earliest delivery on every edge -- for all classes in one hook."""

    def __init__(self, fronts: Dict[str, str]) -> None:
        #: service class -> its front-end node.
        self._fronts = fronts
        # request id -> [class, front arrival or None, {edge: first arrival}]
        self._requests: Dict[int, list] = {}

    def on_capture(self, timestamp, src, dst, observer, message) -> None:
        if observer != dst or not isinstance(message, Message):
            return  # deliveries only, once per message
        trace = self._requests.get(message.request_id)
        if trace is None:
            trace = [message.service_class, None, {}]
            self._requests[message.request_id] = trace
        if (
            trace[1] is None
            and message.kind == REQUEST
            and dst == self._fronts.get(trace[0])
        ):
            trace[1] = timestamp
        trace[2].setdefault((src, dst), timestamp)

    def tables(self) -> Dict[str, Dict[EdgeKey, Tuple[np.ndarray, np.ndarray]]]:
        """class -> edge -> (front arrivals sorted, matching delays)."""
        rows: Dict[str, Dict[EdgeKey, list]] = {}
        for cls, front_arrival, arrivals in self._requests.values():
            if front_arrival is None:
                continue
            edges = rows.setdefault(cls, {})
            for edge, arrival in arrivals.items():
                edges.setdefault(edge, []).append((front_arrival, arrival - front_arrival))
        tables = {}
        for cls, edges in rows.items():
            tables[cls] = {}
            for edge, pairs in edges.items():
                arr = np.asarray(pairs, dtype=np.float64)
                arr = arr[np.argsort(arr[:, 0], kind="stable")]
                tables[cls][edge] = (arr[:, 0].copy(), arr[:, 1].copy())
        return tables


class TruthIndex:
    """Windowed ground-truth queries over :meth:`TruthRecorder.tables`.

    Implements the two ``GroundTruth`` methods
    ``repro.scenarios.scoring.score_refresh`` calls, with the same
    windowing (requests whose front-end arrival is in ``[since, until)``).
    """

    def __init__(self, tables) -> None:
        self._tables = tables

    def _slice(self, service_class, edge, since, until):
        fronts, delays = self._tables[service_class][edge]
        lo = int(np.searchsorted(fronts, since, side="left"))
        hi = int(np.searchsorted(fronts, until, side="left"))
        return delays[lo:hi]

    def traversed_edges(self, service_class, since=0.0, until=float("inf")):
        counts = {}
        for edge in self._tables.get(service_class, ()):
            count = self._slice(service_class, edge, since, until).size
            if count:
                counts[edge] = count
        return counts

    def mean_edge_delay(self, service_class, edge, since=0.0, until=float("inf")):
        if edge not in self._tables.get(service_class, ()):
            return float("nan")
        delays = self._slice(service_class, edge, since, until)
        return float(np.mean(delays)) if delays.size else float("nan")


def class_fronts(deployment) -> Dict[str, str]:
    """service class -> front-end node of a ``repro.apps`` deployment."""
    return {cls: client.front_end for cls, client in deployment.clients.items()}


def simulate(spec, seed: int, outdir: pathlib.Path) -> dict:
    """Build, run and dump one workload (the child's whole job)."""
    started = time.perf_counter()
    deployment = spec.build(seed)
    recorder = TruthRecorder(class_fronts(deployment))
    deployment.topology.fabric.add_capture_hook(recorder.on_capture)
    built = time.perf_counter()
    deployment.run_until(spec.simulated_seconds)
    simulated = time.perf_counter()
    records = write_capture_binary(
        outdir / CAPTURE_FILE, deployment.topology.collector.export_batches()
    )
    with open(outdir / TRUTH_FILE, "wb") as handle:
        pickle.dump(recorder.tables(), handle, protocol=pickle.HIGHEST_PROTOCOL)
    return {
        "build_s": built - started,
        "des_s": simulated - built,
        "write_s": time.perf_counter() - simulated,
        "captures": records,
    }


def generate(spec_name: str, seed: int, outdir: pathlib.Path, refreshes: int) -> dict:
    """Run :func:`simulate` in a child process; returns its stats."""
    done = subprocess.run(
        [
            sys.executable, str(HERE / "capture.py"),
            "--workload", spec_name, "--seed", str(seed),
            "--refreshes", str(refreshes), "--out", str(outdir),
        ],
        stdout=subprocess.PIPE,
        check=True,
        timeout=170,
    )
    return json.loads(done.stdout.decode("utf-8").strip().splitlines()[-1])


def load_truth(outdir: pathlib.Path) -> TruthIndex:
    # The file was written by generate()'s child a moment ago.
    with open(outdir / TRUTH_FILE, "rb") as handle:
        return TruthIndex(pickle.load(handle))


def main() -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--refreshes", type=int, required=True)
    parser.add_argument("--out", type=pathlib.Path, required=True)
    args = parser.parse_args()
    stats = simulate(WORKLOADS[args.workload].sized(args.refreshes), args.seed, args.out)
    print(json.dumps(stats))
    return 0


if __name__ == "__main__":
    sys.exit(main())
