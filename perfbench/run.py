"""Benchmark entry point.

Usage::

    python3 perfbench/run.py --workload scale_verify --seed 1 \\
        --seconds 20 --trace 0

Run from the root of a checkout.  With ``--trace 0`` the last line of
standard output is a JSON object whose ``metrics`` are the end-to-end
metrics, measured with no tracing; with ``--trace 1`` they are the
per-layer metrics of a traced run (see ``perfbench/README.md``).  The
line before it carries the run's context block, the sample counts and
any verdict problems.  The exit code is 0 whenever a result was
printed, also when a verdict was wrong (``"correct": false``).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 5

# ----------------------------------------------------------------------
# The per-run context block
# ----------------------------------------------------------------------
def _steal_ticks() -> int:
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def pin_to_one_cpu() -> int:
    """Run this process and its children on one CPU.

    Every workload is a sequential closed loop, so it never needs more;
    pinned, the client and the daemon of ``serve_edit_loop`` stop waking
    each other across CPUs, which on a shared 2-core VM halved the spread
    of that workload's timings.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Context:
    def __init__(self, cpu: int) -> None:
        from perfbench.calibration import reference_loop_s

        self.cpu = cpu
        self.steal_start = _steal_ticks()
        self.reference_start = reference_loop_s()

    def finish(self, calibration) -> dict:
        from perfbench.calibration import reference_loop_s

        return {
            "calibration": calibration.summary(),
            "nproc": os.cpu_count(),
            "pinned_cpu": self.cpu,
            "python": platform.python_version(),
            "steal_ticks": _steal_ticks() - self.steal_start,
            "reference_loop_s": [round(self.reference_start, 6),
                                 round(reference_loop_s(), 6)],
        }


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def geomean(values) -> float:
    return math.exp(sum(math.log(value) for value in values) / len(values))


def p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# The two kinds of run
# ----------------------------------------------------------------------
def end_to_end(workload, seconds: float):
    from perfbench import declared_metrics
    from perfbench.workloads import freeze_setup_objects

    calibration = workload.calibration
    setups = []
    for repeat in range(SETUP_REPEATS):
        if repeat:
            workload.close()
        gc.collect()
        calibration.sample()
        first = len(calibration.samples)
        start = time.perf_counter()
        workload.setup()
        end = time.perf_counter()
        # The warm-up operations time the loop too; that is not set-up.
        looped = sum(loop for _, loop in calibration.samples[first:])
        setups.append((end, end - start - looped))
    calibration.sample()
    freeze_setup_objects()
    observed = workload.run(seconds)
    calibration.sample()
    daemon = getattr(workload, "daemon", None)
    rss = daemon.peak_rss_mb() if daemon is not None else self_peak_rss_mb()
    workload.close()
    # Every timing, set-ups included, at the nominal machine speed.
    setups, latencies, answered = (
        calibration.scale(timings) for timings
        in (setups, observed["latencies"], observed["answered"]))
    values = {
        "setup_s": statistics.median(setups),
        "specs_per_s": len(answered) / sum(answered),
        "verdict_geomean_ms": geomean(latencies) * 1e3,
        "verdict_p90_ms": p90(latencies) * 1e3,
        "peak_rss_mb": rss,
    }
    declared = declared_metrics("end_to_end")
    if set(values) != set(declared):
        raise RuntimeError(f"measured {sorted(values)}, BENCHMARK.json "
                           f"declares {sorted(declared)}")
    samples = {"setup_s": len(setups), "verdicts": len(latencies),
               "answered": len(answered)}
    return ({name: {"value": values[name], "unit": unit}
             for name, unit in declared.items()}, samples, [])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

    from perfbench.report import traced_run
    from perfbench.workloads import WORKLOADS, make_workdir, remove_workdir

    if arguments.workload not in WORKLOADS:
        parser.error(f"unknown workload {arguments.workload!r}; choose "
                     f"from {', '.join(WORKLOADS)}")
    context = Context(pin_to_one_cpu())
    workdir = make_workdir()
    # Whatever asks for a temporary file stays inside the checkout.
    os.environ["TMPDIR"] = tempfile.tempdir = workdir
    workload = WORKLOADS[arguments.workload](arguments.seed, workdir)
    try:
        run = traced_run if arguments.trace else end_to_end
        metrics, samples, problems = run(workload, arguments.seconds)
    finally:
        workload.close()
        remove_workdir(workdir)
    outcome = workload.outcome
    problems = list(problems) + outcome.problems
    print(json.dumps({"context": context.finish(workload.calibration),
                      "samples": samples,
                      "problems": problems[:20]}, sort_keys=True))
    print(json.dumps({"correct": not problems,
                      "attempted": outcome.attempted,
                      "failed": outcome.failed,
                      "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
