"""The traced run and its per-layer metrics.

A traced run measures its workload twice, each half of ``--seconds``:
first untraced, then with the :class:`~perfbench.layers.LayerTracer`
wrappers installed (in this process, or in the daemon through
:mod:`perfbench.traced_serve`).  Layer times come from the traced half,
``trace.overhead_pct`` compares the two halves' throughput, each at the
nominal machine speed (:mod:`perfbench.calibration`); layer times are
wall times.

Layer times are mean self milliseconds per computed verdict (one spec,
sweep entry or edit); on ``serve_edit_loop`` the hit-path metrics are
per hit.  Counts are summed over one fixed unit of work -- one round of
``scale_verify``, one pass of ``corpus_sweep``, the first
:data:`COUNTED_EDITS` edits of ``serve_edit_loop`` -- so they repeat
exactly from run to run.  Every metric is reported on every workload; a
layer the workload does not exercise reads 0.
"""

from __future__ import annotations

import json
import os
import statistics
from typing import Dict, List, Mapping

from perfbench import declared_metrics, layers
from perfbench.workloads import freeze_setup_objects

#: Edits whose counters are summed on ``serve_edit_loop`` (all of them
#: in a traced run too short for this many).
COUNTED_EDITS = 20

#: Span label -> per-layer metric of its self time.
SELF_TIME_METRICS = {
    "core.encoding": "core.encoding.ms",
    "core.traversal": "core.traversal.ms",
    "check:consistency": "check.consistency.ms",
    "check:safeness": "check.safeness.ms",
    "check:persistency": "check.persistency.ms",
    "check:fake_conflicts": "check.fake_conflicts.ms",
    "check:csc": "check.csc.ms",
    "check:reducibility": "check.reducibility.ms",
    "check:liveness": "check.liveness.ms",
    "stg.parse": "stg.parse.ms",
    "api.run": "api.run.self_ms",
    "runner.worker": "runner.worker.self_ms",
    "runner.store.put": "runner.store.put.ms",
    "runner.store.lookup": "runner.store.lookup.ms",
    "cache.bdd.lookup": "cache.bdd.lookup.ms",
    "cache.bdd.put": "cache.bdd.put.ms",
    "delta.diff": "delta.diff.ms",
    "delta.classify": "delta.classify.ms",
    "delta.apply_base": "delta.apply_base.ms",
    layers.OP: "uncovered.ms",
}

#: Every per-layer metric and its unit, as ``BENCHMARK.json`` declares.
PER_LAYER = declared_metrics("per_layer")


#: The per-layer metrics each workload must produce (non-zero).
EXPECTED = {
    "scale_verify": [
        "core.encoding.ms", "core.traversal.ms", "core.traversal.iterations",
        "core.traversal.images", "bdd.created_nodes", "bdd.cache_lookups",
        "bdd.cache_hit_rate", "bdd.peak_live_nodes",
        "check.consistency.ms", "check.safeness.ms", "check.persistency.ms",
        "check.fake_conflicts.ms", "check.csc.ms", "check.reducibility.ms"],
    "corpus_sweep": [
        "runner.plan.ms", "stg.parse.ms", "api.run.self_ms",
        "check.liveness.ms", "runner.worker.self_ms", "runner.store.put.ms",
        "runner.store.bytes", "bdd.created_nodes"],
    "serve_edit_loop": [
        "delta.diff.ms", "delta.classify.ms", "delta.apply_base.ms",
        "delta.seed_share", "cache.bdd.lookup.ms", "cache.bdd.put.ms",
        "cache.bdd.bytes_written", "core.traversal.ms", "check.csc.ms",
        "serve.queue_wait.ms", "serve.daemon.hit_ms", "serve.daemon.edit_ms",
        "serve.transport.hit_ms", "runner.store.lookup.ms",
        "serve.runstore.hit_share"],
}


# ----------------------------------------------------------------------
# Pieces shared by the workloads
# ----------------------------------------------------------------------
def self_time_sums(ops: Mapping[int, List[Mapping[str, object]]],
                   selected) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for op in selected:
        for label, ms in layers.layer_self_ms(ops[op]).items():
            metric = SELF_TIME_METRICS.get(label)
            if metric is not None:
                totals[metric] = totals.get(metric, 0.0) + ms
    return totals


def counters(ops: Mapping[int, List[Mapping[str, object]]],
             selected) -> Dict[str, float]:
    """Deterministic work counts summed over ``selected`` operations."""
    counts = {"core.traversal.iterations": 0, "core.traversal.images": 0,
              "bdd.created_nodes": 0, "bdd.cache_lookups": 0,
              "bdd.peak_live_nodes": 0}
    hits = 0
    for op in selected:
        for span in ops[op]:
            attrs = span.get("attrs") or {}
            if span["name"] == "core.traversal":
                counts["core.traversal.iterations"] += attrs["iterations"]
                counts["core.traversal.images"] += attrs["images"]
            elif span["name"] == "api.run" and "created_nodes" in attrs:
                counts["bdd.created_nodes"] += attrs["created_nodes"]
                counts["bdd.cache_lookups"] += attrs["cache_lookups"]
                hits += attrs["cache_hits"]
                counts["bdd.peak_live_nodes"] = max(
                    counts["bdd.peak_live_nodes"], attrs["live_nodes"])
    lookups = counts["bdd.cache_lookups"]
    counts["bdd.cache_hit_rate"] = hits / lookups if lookups else 0.0
    return counts


def unit_counters(ops, units, problems: List[str]) -> Dict[str, float]:
    """Counters of the first unit; every later unit must repeat them."""
    first = counters(ops, units[0])
    for index, unit in enumerate(units[1:], start=1):
        if counters(ops, unit) != first:
            problems.append(f"work counters of unit {index} differ from "
                            f"unit 0")
    return first


def throughput(observed: Mapping[str, object], calibration) -> float:
    """Answers per second at the nominal machine speed."""
    answered = calibration.scale(observed["answered"])
    return len(answered) / sum(answered)


def overhead_pct(untraced: Mapping[str, object],
                 traced: Mapping[str, object], calibration) -> float:
    return (throughput(untraced, calibration)
            / throughput(traced, calibration) - 1.0) * 100.0


def finish(workload: str, values: Dict[str, float],
           problems: List[str]):
    """All per-layer metrics; each one the workload must produce is
    checked to be there, and each one it produced to be declared."""
    for name in sorted(set(values) - set(PER_LAYER)):
        problems.append(f"per-layer metric {name} is not declared in "
                        f"BENCHMARK.json")
    for name in EXPECTED[workload]:
        if not values.get(name):
            problems.append(f"per-layer metric {name} missing on "
                            f"{workload}")
    return {name: {"value": values.get(name, 0), "unit": unit}
            for name, unit in PER_LAYER.items()}


# ----------------------------------------------------------------------
# The traced run of each workload
# ----------------------------------------------------------------------
def traced_run(workload, seconds: float):
    half = seconds / 2.0
    if workload.name == "serve_edit_loop":
        return _traced_serve(workload, half)
    return _traced_in_process(workload, half)


def _traced_in_process(workload, half: float):
    workload.setup()
    freeze_setup_objects()
    untraced = workload.run(half)
    tracer = layers.LayerTracer().install()
    try:
        if workload.name == "corpus_sweep":
            workload.setup(tracer)
        observed = workload.run(half, tracer=tracer)
    finally:
        tracer.uninstall()
    records = tracer.records()
    problems = layers.consistency_problems(records)
    ops = layers.operations(records)
    units = observed["units"]
    selected = [op for unit in units for op in unit]
    verdicts = len(observed["latencies"])
    values = {metric: total / verdicts for metric, total
              in self_time_sums(ops, selected).items()}
    values.update(unit_counters(ops, units, problems))
    plans = [span["duration_s"] * 1e3 for span in layers.spans_of(records)
             if span["name"] == "runner.plan"]
    if plans:
        values["runner.plan.ms"] = statistics.mean(plans)
        values["runner.store.bytes"] = workload.store_bytes
    values["trace.overhead_pct"] = overhead_pct(untraced, observed,
                                                workload.calibration)
    samples = {"verdicts": verdicts, "operations": len(selected),
               "units": len(units), "spans": len(records)}
    return finish(workload.name, values, problems), samples, problems


class _MetricsProbe:
    """Snapshots of the daemon's ``/metrics`` around every request."""

    def __init__(self, client) -> None:
        self.client = client
        self.snapshots: List[Dict[str, Mapping[str, object]]] = []

    def __call__(self) -> None:
        self.snapshots.append(self.client.metrics()["metrics"])

    def deltas(self, name: str, field: str) -> List[float]:
        values = [float(snapshot[name][field])
                  for snapshot in self.snapshots]
        return [after - before for before, after
                in zip(values, values[1:])]


def _traced_serve(workload, half: float):
    workload.setup()
    freeze_setup_objects()
    untraced = workload.run(half)
    workload.close()

    spans_path = os.path.join(workload.workdir, "daemon-spans.json")
    workload.setup(spans_path=spans_path)
    state_dir = workload.daemon.state_dir
    probe = _MetricsProbe(workload.daemon.client)
    observed = workload.run(half, probe=probe)
    kinds = [kind for kind, _ in observed["requests"]]
    workload.close()
    with open(spans_path, encoding="utf-8") as handle:
        records = json.load(handle)

    problems = layers.consistency_problems(records)
    ops = layers.operations(records)
    order = sorted(ops)[workload.SETUP_REQUESTS:]
    if len(order) != len(kinds):
        problems.append(f"daemon traced {len(order)} timed requests, the "
                        f"client sent {len(kinds)}")
        order = order[:len(kinds)]
    edits = [op for op, kind in zip(order, kinds) if kind == "edit"]
    hits = [op for op, kind in zip(order, kinds) if kind == "hit"]

    values = {metric: total / len(edits) for metric, total
              in self_time_sums(ops, edits).items()}
    values["runner.store.lookup.ms"] = self_time_sums(ops, hits).get(
        "runner.store.lookup.ms", 0.0) / len(hits)
    values.update(counters(ops, edits[:COUNTED_EDITS]))
    seeded = sum(1 for op in edits for span in ops[op]
                 if span["name"] == "delta.apply_base"
                 and (span.get("attrs") or {}).get("tier") == "seed")
    values["delta.seed_share"] = seeded / len(edits)

    # The daemon's own view, request by request.
    daemon_s = probe.deltas("serve.request.seconds", "sum")
    queue_s = probe.deltas("serve.queue_wait.seconds", "sum")
    edit_daemon = [d for d, kind in zip(daemon_s, kinds) if kind == "edit"]
    hit_daemon = [d for d, kind in zip(daemon_s, kinds) if kind == "hit"]
    hit_client = _hits(observed)
    values["serve.daemon.edit_ms"] = statistics.mean(edit_daemon) * 1e3
    values["serve.daemon.hit_ms"] = statistics.mean(hit_daemon) * 1e3
    values["serve.transport.hit_ms"] = (statistics.mean(hit_client)
                                        - statistics.mean(hit_daemon)) * 1e3
    values["serve.queue_wait.ms"] = statistics.mean(
        q for q, kind in zip(queue_s, kinds) if kind == "edit") * 1e3
    hit_count = sum(probe.deltas("serve.runstore.hits", "value"))
    miss_count = sum(probe.deltas("serve.runstore.misses", "value"))
    values["serve.runstore.hit_share"] = hit_count / (hit_count
                                                      + miss_count)
    values["serve.client.hit_p50_ms"] = statistics.median(
        _hits(untraced)) * 1e3
    values["cache.bdd.bytes_written"] = _mean_file_size(
        os.path.join(state_dir, "bdd-store"), ".bdd")
    records_path = os.path.join(state_dir, "run-store", "results.jsonl")
    with open(records_path, encoding="utf-8") as handle:
        lines = sum(1 for line in handle if line.strip())
    values["runner.store.bytes"] = os.path.getsize(records_path) / lines
    values["trace.overhead_pct"] = overhead_pct(untraced, observed,
                                                workload.calibration)
    samples = {"edits": len(edits), "hits": len(hits),
               "spans": len(records)}
    return finish(workload.name, values, problems), samples, problems


def _hits(observed: Mapping[str, object]) -> List[float]:
    return [seconds for kind, (_, seconds) in observed["requests"]
            if kind == "hit"]


def _mean_file_size(directory: str, suffix: str) -> float:
    sizes = [os.path.getsize(os.path.join(directory, name))
             for name in os.listdir(directory) if name.endswith(suffix)]
    return statistics.mean(sizes)
