"""Accuracy harness: grade pathmap output against exact ground truth.

The unit of grading is one (refresh, service class) pair: the edges a
:class:`~repro.core.service_graph.ServiceGraph` claims the class
traversed, versus the edges its requests actually traversed during that
analysis window (the ground-truth recorder windows by *front-end
arrival*, the same time origin pathmap's delay labels use). From the
edge confusion we derive:

* **path precision / recall / F1** -- did the analysis find the real
  causal edges, and only those? Empty-vs-empty counts as a perfect score
  (correctly reporting silence *is* the right answer for a traffic
  trough); claiming edges for a class with no traffic scores zero (the
  stale-path failure mode).
* **delay error** -- median relative error of the predicted cumulative
  delay labels on true-positive edges, against the true mean delay.
* **change-detection latency** -- per labeled
  :class:`~repro.scenarios.base.ChangePoint`, how long after the shift
  the first matching :class:`~repro.core.change_detection.ChangeEvent`
  fired (None if never detected).

Aggregation is deliberately flat: a :class:`ScenarioScore` averages F1
over every (refresh, class) cell, so a config cannot hide a broken
regime behind a good steady-state stretch.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.service_graph import ServiceGraph
from repro.scenarios.base import ChangePoint
from repro.simulation.groundtruth import GroundTruth
from repro.tracing.records import NodeId

EdgeKey = Tuple[NodeId, NodeId]

#: A truth edge must carry at least this many requests inside the window
#: to count as required (single stragglers at window borders are noise no
#: correlation threshold should be penalized for missing).
DEFAULT_MIN_COUNT = 2

#: Relative delay errors are computed against max(true delay, this floor)
#: so sub-millisecond truths don't explode the ratio.
DELAY_FLOOR = 1e-3


def edge_f1(
    predicted: Set[EdgeKey], truth: Set[EdgeKey]
) -> Tuple[float, float, float]:
    """(precision, recall, F1) of a predicted edge set.

    Both sets empty is a perfect (1, 1, 1): the class had no traffic and
    the analysis correctly stayed silent. Predicting edges for an empty
    truth scores precision 0 -- the stale-path penalty.
    """
    if not predicted and not truth:
        return (1.0, 1.0, 1.0)
    tp = len(predicted & truth)
    precision = tp / len(predicted) if predicted else 1.0
    recall = tp / len(truth) if truth else 0.0
    if precision + recall == 0.0:
        return (precision, recall, 0.0)
    return (precision, recall, 2.0 * precision * recall / (precision + recall))


@dataclasses.dataclass(frozen=True)
class EdgeScore:
    """Verdict for one edge of one (refresh, class) cell."""

    edge: EdgeKey
    #: "tp" (found, real), "fp" (claimed, not real), "fn" (real, missed).
    verdict: str
    #: True mean cumulative delay inside the window (None for fp edges).
    true_delay: Optional[float] = None
    #: Predicted cumulative delay labels (empty for fn edges).
    predicted_delays: Tuple[float, ...] = ()
    #: Relative error of the closest predicted label (tp edges only).
    delay_error: Optional[float] = None


@dataclasses.dataclass
class ClassScore:
    """Accuracy of one service class in one refresh window."""

    service_class: str
    window_end: float
    precision: float
    recall: float
    f1: float
    edges: List[EdgeScore] = dataclasses.field(default_factory=list)

    @property
    def delay_errors(self) -> List[float]:
        return [e.delay_error for e in self.edges if e.delay_error is not None]

    @property
    def median_delay_error(self) -> Optional[float]:
        errors = sorted(self.delay_errors)
        if not errors:
            return None
        mid = len(errors) // 2
        if len(errors) % 2:
            return errors[mid]
        return 0.5 * (errors[mid - 1] + errors[mid])

    def to_dict(self) -> Dict:
        return {
            "class": self.service_class,
            "window_end": self.window_end,
            "precision": round(self.precision, 4),
            "recall": round(self.recall, 4),
            "f1": round(self.f1, 4),
            "median_delay_error": (
                None
                if self.median_delay_error is None
                else round(self.median_delay_error, 4)
            ),
            "tp": sum(1 for e in self.edges if e.verdict == "tp"),
            "fp": sum(1 for e in self.edges if e.verdict == "fp"),
            "fn": sum(1 for e in self.edges if e.verdict == "fn"),
        }


def _true_edges(
    truth: GroundTruth,
    service_class: str,
    client: NodeId,
    since: float,
    until: float,
    min_count: int,
) -> Set[EdgeKey]:
    """Ground-truth edge set for one window, restricted to what a passive
    enterprise-side observer could ever see: edges touching the untraced
    client are dropped (the implicit client edge is likewise dropped from
    predictions)."""
    counts = truth.traversed_edges(service_class, since=since, until=until)
    return {
        edge
        for edge, count in counts.items()
        if count >= min_count and client not in edge
    }


def score_refresh(
    graph: Optional[ServiceGraph],
    truth: GroundTruth,
    service_class: str,
    client: NodeId,
    window_start: float,
    window_end: float,
    min_count: int = DEFAULT_MIN_COUNT,
) -> ClassScore:
    """Grade one service graph against the requests its window contained.

    ``graph`` may be None (analysis produced nothing for the class) --
    scored as an empty prediction, which is perfect against an empty
    truth and zero-recall against a populated one.
    """
    real = _true_edges(
        truth, service_class, client, window_start, window_end, min_count
    )
    if graph is None:
        predicted: Set[EdgeKey] = set()
    else:
        predicted = {
            edge for edge in graph.edge_set() if client not in edge
        }
    precision, recall, f1 = edge_f1(predicted, real)

    edges: List[EdgeScore] = []
    for edge in sorted(predicted | real):
        if edge in predicted and edge in real:
            true_delay = truth.mean_edge_delay(
                service_class, edge, since=window_start, until=window_end
            )
            labels = tuple(graph.edge(*edge).delays)
            error: Optional[float] = None
            if labels and not math.isnan(true_delay):
                error = min(
                    abs(label - true_delay) / max(true_delay, DELAY_FLOOR)
                    for label in labels
                )
            edges.append(
                EdgeScore(edge, "tp", true_delay, labels, error)
            )
        elif edge in predicted:
            edges.append(
                EdgeScore(edge, "fp", None, tuple(graph.edge(*edge).delays))
            )
        else:
            true_delay = truth.mean_edge_delay(
                service_class, edge, since=window_start, until=window_end
            )
            edges.append(EdgeScore(edge, "fn", true_delay))
    return ClassScore(service_class, window_end, precision, recall, f1, edges)


def detection_latencies(
    change_points: Sequence[ChangePoint],
    detections: Iterable[Tuple],
    horizon: float = float("inf"),
) -> List[Optional[float]]:
    """Latency (seconds) from each labeled change point to its first
    matching detection, or None if nothing matched before ``horizon``.

    A detection is ``(time, edge)`` or ``(time, edge, window_end)``, the
    end of the window its analysis covered (``time`` when not given: a
    refresh at ``now`` analyzes up to ``now - omega``). It matches a
    change point when it fires at or after the shift, its window ends
    after it -- a window ending before the shift cannot have seen it --
    and either side leaves the edge unspecified or the edges agree.
    """
    events = sorted(
        ((d[0], d[1], d[2] if len(d) > 2 else d[0]) for d in detections),
        key=lambda d: d[0],
    )
    out: List[Optional[float]] = []
    for point in change_points:
        latency: Optional[float] = None
        for time, edge, window_end in events:
            if time < point.time or window_end <= point.time or time > horizon:
                continue
            if point.edge is not None and edge is not None and edge != point.edge:
                continue
            latency = time - point.time
            break
        out.append(latency)
    return out


@dataclasses.dataclass
class ScenarioScore:
    """Aggregate accuracy of one analysis mode on one scenario run."""

    scenario: str
    #: Which analysis produced this score ("adaptive", "static:fast", ...).
    mode: str
    seed: int
    cells: List[ClassScore] = dataclasses.field(default_factory=list)
    #: Per labeled change point: detection latency in seconds, or None.
    detection: List[Optional[float]] = dataclasses.field(default_factory=list)

    @property
    def aggregate_f1(self) -> float:
        """Mean F1 over every (refresh, class) cell -- the headline."""
        if not self.cells:
            return 0.0
        return sum(cell.f1 for cell in self.cells) / len(self.cells)

    @property
    def aggregate_precision(self) -> float:
        if not self.cells:
            return 0.0
        return sum(cell.precision for cell in self.cells) / len(self.cells)

    @property
    def aggregate_recall(self) -> float:
        if not self.cells:
            return 0.0
        return sum(cell.recall for cell in self.cells) / len(self.cells)

    @property
    def mean_delay_error(self) -> Optional[float]:
        errors = [e for cell in self.cells for e in cell.delay_errors]
        if not errors:
            return None
        return sum(errors) / len(errors)

    @property
    def detected_fraction(self) -> Optional[float]:
        if not self.detection:
            return None
        hits = sum(1 for latency in self.detection if latency is not None)
        return hits / len(self.detection)

    def to_dict(self, include_cells: bool = False) -> Dict:
        out = {
            "scenario": self.scenario,
            "mode": self.mode,
            "seed": self.seed,
            "aggregate_f1": round(self.aggregate_f1, 4),
            "aggregate_precision": round(self.aggregate_precision, 4),
            "aggregate_recall": round(self.aggregate_recall, 4),
            "mean_delay_error": (
                None
                if self.mean_delay_error is None
                else round(self.mean_delay_error, 4)
            ),
            "cells": len(self.cells),
            "detection_latencies": [
                None if latency is None else round(latency, 3)
                for latency in self.detection
            ],
        }
        if include_cells:
            out["cell_scores"] = [cell.to_dict() for cell in self.cells]
        return out
