"""``discover-large`` and ``discover-wide``: cold one-shot discovery.

Each op hands ``discover_aods`` (or ``discover_ods`` at ε = 0) a fresh
relation object, so encoding, partitions and validation all happen inside
the op.  Ops run back to back until the run's time is up.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time

import env
import inputs
import tracing

THRESHOLDS = {"discover-large": 0.1, "discover-wide": 0.0}

#: Re-validated OCs and OFDs per run (sampled from the reported set).
SAMPLE_SIZE = 6

#: Import plus warm-up discoveries on a small generated table, in a fresh
#: interpreter: what a user pays before the first real discovery.  It is
#: timed SETUP_REPEATS times before and as many times after the timed ops,
#: so that ``setup_s`` samples the host's speed at both ends of the run
#: rather than in one two-second stretch.
SETUP_CODE = """
import repro, inputs
table = inputs.flight_like(400, 8, 3)
repro.discover_aods(repro.Relation.from_columns(table.columns), threshold=0.1)
repro.discover_ods(repro.Relation.from_columns(table.columns))
"""
SETUP_REPEATS = 3


def _discover(repro, columns, threshold):
    """One op: returns ``(seconds, result)``; the relation is built first."""
    relation = repro.Relation.from_columns(dict(columns))
    start = time.perf_counter()
    if threshold == 0.0:
        result = repro.discover_ods(relation)
    else:
        result = repro.discover_aods(relation, threshold=threshold)
    return time.perf_counter() - start, result


def _signature(result) -> str:
    return json.dumps([[d.to_dict() for d in result.ocs],
                       [d.to_dict() for d in result.ofds]], sort_keys=True)


def _check_result(repro, workload, seed, table, result) -> None:
    """Planted OCs reported; a sample of the reported dependencies keeps its
    removal size under the python backend's standalone validators."""
    from repro.validation import (validate_aoc_optimal, validate_aofd,
                                  validate_exact_oc)

    threshold = THRESHOLDS[workload]
    relation = repro.Relation.from_columns(dict(table.columns))
    if result.num_rows != relation.num_rows or not result.ocs or not result.ofds:
        raise env.BenchError(f"{workload}: empty or mis-sized result")
    if threshold > 0:
        for a, b in table.planted:
            if result.find_oc(a, b) is None:
                raise env.BenchError(f"{workload}: planted OC {a} ~ {b} missing")
    limit = int(threshold * relation.num_rows + 1e-9)
    rng = random.Random(seed)
    for found in rng.sample(result.ocs, min(SAMPLE_SIZE, len(result.ocs))):
        if threshold == 0.0:
            check = validate_exact_oc(relation, found.oc, backend="python")
            size = 0 if check.holds_exactly else -1
        else:
            check = validate_aoc_optimal(relation, found.oc, backend="python")
            size = check.removal_size
        if size != found.removal_size or size > limit:
            raise env.BenchError(f"{workload}: {found} re-validates to {size}")
    for found in rng.sample(result.ofds, min(SAMPLE_SIZE, len(result.ofds))):
        check = validate_aofd(relation, found.ofd, backend="python")
        if check.removal_size != found.removal_size or check.removal_size > limit:
            raise env.BenchError(
                f"{workload}: {found} re-validates to {check.removal_size}")


def run(workload: str, seed: int, seconds: float, trace: bool):
    threshold = THRESHOLDS[workload]
    setup = [sys.executable, "-c", SETUP_CODE]
    setups = env.time_subprocess(setup, SETUP_REPEATS, timeout=60)
    import repro

    warm = inputs.flight_like(400, 8, 3)
    _discover(repro, warm.columns, 0.1)
    _discover(repro, warm.columns, 0.0)

    tables = inputs.workload_tables(workload, seed)
    recorded = inputs.check_inputs(workload, seed, tables)
    table = tables["table"]

    recorder = tracing.Recorder()
    plain, traced = [], []
    signature = first = None
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline or (trace and not traced):
        # The traced run alternates untraced and traced ops, so the tracing
        # overhead is measured on the same data in the same process.
        traced_op = trace and len(plain) > len(traced)
        if traced_op:
            tracing.install(recorder)
            span = recorder.open("op")
        try:
            elapsed, result = _discover(repro, table.columns, threshold)
        finally:
            if traced_op:
                recorder.close(span)
                recorder.uninstall()
        (traced if traced_op else plain).append(elapsed)
        if signature is None:
            signature, first = _signature(result), result
        elif _signature(result) != signature:
            raise env.BenchError(f"{workload}: ops returned different results")
    window = time.perf_counter() - start
    peak = env.peak_rss_mb()
    setups += env.time_subprocess(setup, SETUP_REPEATS, timeout=60)
    _check_result(repro, workload, seed, table, first)

    ops = len(plain) + len(traced)
    print(f"{workload} seed={seed}: {ops} ops ({len(traced)} traced), "
          f"op seconds {[round(s, 3) for s in plain + traced]}, "
          f"setups {[round(s, 2) for s in setups]} s, "
          f"{first.num_ocs} OCs, {first.num_ofds} OFDs, "
          f"inputs digest {'checked' if recorded else 'not recorded; canary checked'}")
    if not trace:
        # The mean op, not the median: on a shared host CPU speed drifts by
        # up to 2x over minutes, and across runs the mean moves least with
        # it (README, "Steadiness").
        return ops, 0, {
            "setup_s": statistics.median(setups),
            "discover_s": statistics.fmean(plain),
            "ops_per_s": ops / window,
            "peak_rss_mb": peak,
        }
    return ops, 0, per_layer(workload, seed, recorder, plain, traced)


def per_layer(workload, seed, recorder, plain, traced):
    if recorder.missing:
        print(f"not traced (missing): {recorder.missing}", file=sys.stderr)
    tree = tracing.SpanTree(recorder.spans, "op")
    recorder.dump(env.OUT / f"trace-{workload}-{seed}.json")
    wall = tree.wall()
    ledger = tree.ledger()
    if abs(sum(ledger.values()) - wall) > 0.05 * wall:
        raise env.BenchError("layer ledger does not add up to traced wall time")
    metrics = tracing.layer_metrics(tree, recorder.stats, len(tree.roots))
    metrics["trace.unattributed_share"] = ledger.get("op", 0.0) / wall
    metrics["trace.overhead_share"] = env.median(traced) / env.median(plain) - 1.0
    print("ledger (s per op): " + ", ".join(
        f"{name} {value / len(tree.roots):.4f}"
        for name, value in sorted(ledger.items(), key=lambda kv: -kv[1])))
    return metrics
