"""Generate docs/API.md: every public module/class/function with its
one-line summary. Run from the repository root:

    python tools/gen_api_doc.py

:func:`render` builds the text; ``tests/test_docs_consistency.py`` checks
that the committed file equals it.
"""

from __future__ import annotations

import importlib
import inspect
import pathlib
import sys

MODULES = [
    "repro",
    "repro.config",
    "repro.errors",
    "repro.core.timeseries",
    "repro.core.rle",
    "repro.core.correlation",
    "repro.core.incremental",
    "repro.core.spikes",
    "repro.core.service_graph",
    "repro.core.pathmap",
    "repro.core.engine",
    "repro.core.change_detection",
    "repro.core.anomaly",
    "repro.core.clock_skew",
    "repro.core.link_latency",
    "repro.core.bottleneck",
    "repro.core.offline",
    "repro.core.confidence",
    "repro.core.autotune",
    "repro.obs.instruments",
    "repro.obs.registry",
    "repro.obs.exposition",
    "repro.obs.sample",
    "repro.obs.spans",
    "repro.obs.events",
    "repro.obs.flight",
    "repro.obs.export",
    "repro.obs.ledger",
    "repro.obs.slo",
    "repro.tracing.records",
    "repro.tracing.tracer",
    "repro.tracing.collector",
    "repro.tracing.access_log",
    "repro.tracing.storage",
    "repro.tracing.wire",
    "repro.tracing.transport",
    "repro.lake.journal",
    "repro.lake.segments",
    "repro.lake.summaries",
    "repro.lake.lake",
    "repro.simulation.des",
    "repro.simulation.distributions",
    "repro.simulation.network",
    "repro.simulation.nodes",
    "repro.simulation.workload",
    "repro.simulation.topology",
    "repro.simulation.groundtruth",
    "repro.apps.rubis",
    "repro.apps.manyclass",
    "repro.apps.delta",
    "repro.apps.pubsub",
    "repro.apps.dispatch",
    "repro.apps.faults",
    "repro.apps.mesh",
    "repro.scenarios.base",
    "repro.scenarios.library",
    "repro.scenarios.scoring",
    "repro.scenarios.runner",
    "repro.management.sla",
    "repro.management.scheduler",
    "repro.management.monitor",
    "repro.management.planning",
    "repro.baselines.convolution",
    "repro.baselines.nesting",
    "repro.analysis.render",
    "repro.analysis.svg",
    "repro.analysis.compare",
    "repro.analysis.diff",
    "repro.analysis.reportgen",
    "repro.analysis.graph_export",
    "repro.analysis.timeline",
    "repro.analysis.history",
    "repro.analysis.top",
    "repro.cli",
]


def first_line(doc: str | None) -> str:
    if not doc:
        return ""
    return doc.strip().splitlines()[0].rstrip(".")


def public_members(module):
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_"):
            continue
        if inspect.ismodule(obj):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj) or inspect.isfunction(obj):
            yield name, obj


API_DOC = pathlib.Path(__file__).resolve().parent.parent / "docs" / "API.md"


def render() -> str:
    """The text of docs/API.md for the package as it is imported now."""
    lines = [
        "# API index",
        "",
        "Generated by `python tools/gen_api_doc.py`. One line per public "
        "item; see the docstrings for details.",
    ]
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        members = list(public_members(module))
        lines.append("")
        lines.append(f"## `{module_name}`")
        lines.append("")
        summary = first_line(module.__doc__)
        if summary:
            lines.append(f"*{summary}.*")
            lines.append("")
        if not members:
            lines.append("(re-exports only)")
            continue
        for name, obj in members:
            kind = "class" if inspect.isclass(obj) else "def"
            lines.append(f"- **`{name}`** ({kind}) — {first_line(obj.__doc__)}")
    return "\n".join(lines) + "\n"


def main() -> None:
    API_DOC.write_text(render(), encoding="utf-8")
    print(f"wrote {API_DOC}")


if __name__ == "__main__":
    sys.exit(main())
