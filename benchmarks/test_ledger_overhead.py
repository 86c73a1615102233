"""Overhead guard for the always-on refresh cost ledger.

The ledger's contract is O(stages + kernel invocations) bookkeeping per
refresh -- a handful of ``perf_counter`` reads, never per-row work. This
benchmark counts the recorder operations a real many-class refresh
performs, prices each operation in isolation, and demands the product
stays under 5% of the measured refresh cost. The priced numbers land in
``benchmarks/results/ledger_overhead.txt``; the ledger has no off switch
(its on/off A/B is frozen in docs/PERFORMANCE.md section 5).
"""

import statistics
import time

from conftest import write_result

from repro.apps.manyclass import MANY_CLASS_CONFIG, build_many_class
from repro.core.engine import E2EProfEngine
from repro.obs.ledger import KERNEL_RLE, STAGE_INGEST, LedgerRecorder

CLASSES = 40
QUIET_FRACTION = 0.5
SEED = 7
END_TIME = 30.0


def _run():
    """One many-class run; returns (refresh costs, recorder op counts)."""
    deployment = build_many_class(
        classes=CLASSES, quiet_fraction=QUIET_FRACTION, seed=SEED,
        request_rate=8.0, config=MANY_CLASS_CONFIG,
    )
    engine = E2EProfEngine(MANY_CLASS_CONFIG)
    calls = {"stage": 0, "kernel": 0, "refreshes": 0}
    record_stage, record_kernel = (engine.ledger.record_stage,
                                   engine.ledger.record_kernel)

    def counting_stage(*args, **kwargs):
        calls["stage"] += 1
        return record_stage(*args, **kwargs)

    def counting_kernel(*args, **kwargs):
        calls["kernel"] += 1
        return record_kernel(*args, **kwargs)

    engine.ledger.record_stage = counting_stage
    engine.ledger.record_kernel = counting_kernel
    costs = []
    engine.subscribe(
        lambda now, result: costs.append(engine.last_refresh_seconds)
    )
    engine.attach(deployment.topology)
    deployment.run_until(END_TIME)
    engine.detach()
    calls["refreshes"] = len(costs)
    assert costs
    return costs, calls


def _price_op(op, *args, ops=50_000, **kwargs):
    """Per-call wall cost of one recorder operation."""
    started = time.perf_counter()
    for _ in range(ops):
        op(*args, **kwargs)
    return (time.perf_counter() - started) / ops


def test_ledger_overhead_under_five_percent():
    costs, calls = _run()
    refreshes = calls["refreshes"]
    # The contract: O(stages + kernel invocations) recorder calls per
    # refresh, independent of row counts. ~40 pending blocks per refresh
    # on this workload means at most a few kernel records each.
    ops_per_refresh = (calls["stage"] + calls["kernel"]) / refreshes + 2
    assert ops_per_refresh < 16 * CLASSES  # bookkeeping stays O(blocks)

    recorder = LedgerRecorder()
    recorder.begin_refresh()
    per_stage = _price_op(recorder.record_stage, STAGE_INGEST, 1e-6, items=1)
    per_kernel = _price_op(recorder.record_kernel, KERNEL_RLE, rows=10,
                           seconds=1e-6, work_units=40.0, bytes_touched=240)
    per_op = max(per_stage, per_kernel)

    median_cost = statistics.median(costs)
    ledger_cost = ops_per_refresh * per_op
    overhead = ledger_cost / median_cost
    assert overhead < 0.05, (
        f"ledger bookkeeping {ledger_cost * 1e6:.1f}us/refresh is "
        f"{overhead:.1%} of the {median_cost * 1e3:.2f}ms median refresh"
    )

    write_result(
        "ledger_overhead.txt",
        "\n".join([
            f"many-class workload: {CLASSES} classes, "
            f"{QUIET_FRACTION:.0%} quiet, {refreshes} refreshes",
            f"recorder ops/refresh        {ops_per_refresh:.1f}",
            f"priced per-op cost          {per_op * 1e9:.0f} ns",
            f"ledger bookkeeping/refresh  {ledger_cost * 1e6:.2f} us",
            f"median refresh              {median_cost * 1e3:.3f} ms",
            f"priced overhead             {overhead:.3%} (bound 5%)",
        ]),
    )

