"""The three benchmark workloads.

Each workload is driven from this one process through public entry
points only, and each takes its inputs from a seed:

``scale_verify``
    Closed loop, one spec at a time, cold ``repro.api.verify`` with the
    default check set over instances of the Table-1 families.
``corpus_sweep``
    The default ``batch-check`` path: a ``SweepPlan`` run by
    ``SweepRunner`` (``process`` backend, ``jobs=1``, inline) with every
    check, against a fresh ``RunStore`` per pass.
``serve_edit_loop``
    One ``python -m repro serve`` daemon (``--jobs 1``) and one
    closed-loop ``ServeClient`` sending seeded one-signal edits of a base
    spec with ``base=``, each followed by re-sends of earlier edits
    (``RunStore`` hits).

A workload object does its set-up (:meth:`setup`, timed and repeated by
the caller), then :meth:`run` does the work of a run of a given number
of seconds (:func:`work_units`) and returns the latency samples.  Every
verdict is checked by :mod:`perfbench.oracle`, and every wrong or failed
one is recorded in an :class:`Outcome`.  With a :class:`~perfbench.layers.LayerTracer`
installed, :meth:`run` also brackets each operation in a root span.
Timings are ``(end, seconds)`` pairs of wall time.  Between operations
the workload's :class:`~perfbench.calibration.Calibration` times its
reference loop, by which the caller rescales the timings to the nominal
machine speed (the daemon of ``serve_edit_loop`` shares the client's
CPU).
"""

from __future__ import annotations

import contextlib
import gc
import os
import random
import re
import select
import shutil
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from perfbench import oracle
from perfbench.calibration import Calibration

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: When an operation ended and how long it took, in wall-clock seconds.
Timing = Tuple[float, float]


class Outcome:
    """Operations attempted and the problems found with their results."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def record(self, problems: Sequence[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def work_units(rate: float, seconds: float) -> int:
    """How many units of work a run of ``seconds`` does.

    Runs do a fixed amount of work, set from ``--seconds`` at the rate
    (units per second) the workload ran at on the 2-core machine the
    benchmark was defined on, instead of stopping on the clock: every
    run of a given length then does the same work, and a faster program
    finishes it sooner rather than doing more of it.
    """
    return max(1, round(rate * seconds))


def operation(tracer, kind: str):
    """The tracer's root span of one operation (yielding its id), or
    nothing (yielding ``None``) in an untraced run."""
    return (tracer.operation(kind) if tracer is not None
            else contextlib.nullcontext())


def span(tracer, name: str):
    """The tracer's span ``name``, or nothing in an untraced run."""
    return (tracer.span(name) if tracer is not None
            else contextlib.nullcontext())


def freeze_setup_objects() -> None:
    """Keep the between-operation ``gc.collect()`` calls cheap: objects
    that survive set-up are not scanned again."""
    gc.collect()
    gc.freeze()


# ----------------------------------------------------------------------
# scale_verify
# ----------------------------------------------------------------------
class ScaleVerify:
    """Cold ``repro.api.verify`` of Table-1 family instances.

    The draw is stratified: each round is a seeded permutation of the
    16 (family, scale) pairs, so every run verifies the same mix of
    sizes and the seed changes only the order.  The first operation is
    fixed -- the smallest instance of each family -- and counts as
    warm-up.
    """

    name = "scale_verify"
    FAMILIES = (("muller_pipeline", range(10, 16)),
                ("master_read", range(5, 8)),
                ("parallel_handshakes", range(8, 13)),
                ("mutex", range(4, 6)))
    WARMUP = tuple((family, scales[0]) for family, scales in FAMILIES)
    ROUNDS_PER_SECOND = 0.5

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.configs = [(family, scale) for family, scales in self.FAMILIES
                        for scale in scales]
        self.outcome = Outcome()
        self.calibration = Calibration()

    def round(self, index: int) -> List[Tuple[str, int]]:
        order = list(self.configs)
        random.Random(f"{self.seed}:{index}").shuffle(order)
        return order

    def verify(self, family: str, scale: int, tracer=None,
               units: Optional[List[int]] = None) -> Timing:
        """Build one fresh instance (untimed), then verify it (timed)."""
        from repro import api, corpus

        stg, arbitration = corpus.family(family).instantiate(scale)
        config = api.EngineConfig(arbitration_places=tuple(arbitration))
        gc.collect()
        self.calibration.tick()
        with operation(tracer, f"{family}@{scale}") as op:
            start = time.perf_counter()
            report = api.verify(stg, config)
            end = time.perf_counter()
        if op is not None:
            units.append(op)
        self.outcome.record(oracle.check(f"{family}@{scale}",
                                         report.to_dict(), {}))
        return end, end - start

    def setup(self) -> None:
        for family, scale in self.WARMUP:
            self.verify(family, scale)

    def close(self) -> None:
        pass

    def run(self, seconds: float, tracer=None) -> Dict[str, object]:
        latencies: List[Timing] = []
        rounds: List[List[int]] = []
        while len(rounds) < work_units(self.ROUNDS_PER_SECOND, seconds):
            ops: List[int] = []
            for family, scale in self.round(len(rounds)):
                latencies.append(self.verify(family, scale, tracer, ops))
            rounds.append(ops)
        return {"latencies": latencies, "answered": latencies,
                "units": rounds}


# ----------------------------------------------------------------------
# corpus_sweep
# ----------------------------------------------------------------------
class CorpusSweep:
    """The corpus plus a seeded draw of random-family scales, swept.

    The random draw is stratified by structure: ``random_ring`` scales
    by ring size (``3 + scale % 6``, 21 each) and ``random_parallel``
    scales by their sorted ring sizes, in fixed quotas, so every seed
    sweeps the same mix of sizes while CSC verdicts still vary.
    """

    name = "corpus_sweep"
    POOL = range(1, 3001)
    RING_PER_SIZE = 21
    PARALLEL_TOTAL = 126
    PASSES_PER_SECOND = 1 / 15
    WARMUP_ENTRIES = 10

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.outcome = Outcome()
        self.calibration = Calibration()
        self.pinned = oracle.load_pinned()
        rng = random.Random(seed)
        self.families = [("random_ring", self._draw_rings(rng)),
                         ("random_parallel", self._draw_parallel(rng))]
        self.plan = None
        self._stores = 0

    def _draw_rings(self, rng: random.Random) -> List[int]:
        scales: List[int] = []
        for size in range(6):
            scales += rng.sample([s for s in self.POOL if s % 6 == size],
                                 self.RING_PER_SIZE)
        return sorted(scales)

    def _draw_parallel(self, rng: random.Random) -> List[int]:
        from repro.stg.generators import random_parallel_ring_sizes

        groups: Dict[Tuple, List[int]] = {}
        for scale in self.POOL:
            rings = 2 + scale % 3
            key = (rings,
                   tuple(sorted(random_parallel_ring_sizes(rings, scale))))
            groups.setdefault(key, []).append(scale)
        scales: List[int] = []
        for key in sorted(groups):
            members = groups[key]
            quota = max(1, round(self.PARALLEL_TOTAL * len(members)
                                 / len(self.POOL)))
            scales += rng.sample(members, quota)
        return sorted(scales)

    def _fresh_store(self):
        from repro.runner import RunStore

        self._stores += 1
        return RunStore(os.path.join(self.workdir, f"store{self._stores}"))

    def setup(self, tracer=None) -> None:
        """Expand the plan (instances, ``.g`` texts, fingerprints) and
        sweep its first :attr:`WARMUP_ENTRIES` entries as warm-up."""
        from repro.runner import SweepPlan, SweepRunner

        with operation(tracer, "setup"), span(tracer, "runner.plan"):
            self.plan = SweepPlan(families=self.families, jobs=1,
                                  backend="process")
            for task in self.plan.tasks():
                task.fingerprint
        names = [task.name
                 for task in self.plan.tasks()[:self.WARMUP_ENTRIES]]
        warmup = SweepRunner(SweepPlan(names=names, jobs=1,
                                       backend="process"),
                             store=self._fresh_store()).run()
        for result in warmup.results:
            self._check(result)

    def _check(self, result) -> None:
        problems = oracle.check(result.name, result.report, self.pinned)
        if result.status != "ok":
            problems.append(f"{result.name}: status {result.status} "
                            f"({result.error or result.mismatches})")
        self.outcome.record(problems)

    def sweep(self, tracer=None) -> Tuple[List[Timing], Optional[int]]:
        """One pass over a fresh store; per-entry latencies as seen by
        the progress callback, with ``gc.collect()`` and the calibration
        between entries (outside the latencies)."""
        from repro.runner import SweepRunner

        latencies: List[Timing] = []
        store = self._fresh_store()
        mark = [0.0]

        def progress(result) -> None:
            now = time.perf_counter()
            latencies.append((now, now - mark[0]))
            gc.collect()
            self.calibration.tick()
            mark[0] = time.perf_counter()

        runner = SweepRunner(self.plan, store=store, progress=progress)
        gc.collect()
        self.calibration.tick()
        with operation(tracer, "pass") as op:
            mark[0] = time.perf_counter()
            sweep = runner.run()
        for result in sweep.results:
            self._check(result)
        self.store_bytes = os.path.getsize(store.path) / len(sweep.results)
        return latencies, op

    def run(self, seconds: float, tracer=None) -> Dict[str, object]:
        latencies: List[Timing] = []
        passes: List[List[int]] = []
        while len(passes) < work_units(self.PASSES_PER_SECOND, seconds):
            pass_latencies, op = self.sweep(tracer)
            latencies += pass_latencies
            passes.append([op] if op is not None else [])
        return {"latencies": latencies, "answered": latencies,
                "units": passes}

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# serve_edit_loop
# ----------------------------------------------------------------------
_LISTENING = re.compile(r"listening on http://([0-9.]+):(\d+)")
BOOT_TIMEOUT_S = 60.0


class Daemon:
    """One ``repro serve`` subprocess with a fresh state directory."""

    def __init__(self, workdir: str, index: int,
                 spans_path: Optional[str] = None) -> None:
        from repro.serve import ServeClient

        self.state_dir = os.path.join(workdir, f"daemon{index}")
        os.makedirs(self.state_dir)
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        env["TMPDIR"] = self.state_dir
        args = ["serve", "--port", "0", "--jobs", "1",
                "--state-dir", self.state_dir]
        if spans_path is None:
            command = [sys.executable, "-m", "repro"] + args
        else:
            command = [sys.executable, "-m", "perfbench.traced_serve",
                       spans_path] + args[1:]
            env["PYTHONPATH"] = ROOT + os.pathsep + env["PYTHONPATH"]
        self.process = subprocess.Popen(
            command, env=env, cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
        line = self._read_line(BOOT_TIMEOUT_S)
        match = _LISTENING.search(line)
        if not match:
            self.kill()
            raise RuntimeError(f"daemon failed to start: {line!r}")
        self.client = ServeClient(host=match.group(1),
                                  port=int(match.group(2)))

    def _read_line(self, timeout: float) -> str:
        ready, _, _ = select.select([self.process.stdout], [], [], timeout)
        return self.process.stdout.readline() if ready else ""

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """Drain the daemon; kill it if it does not stop by itself."""
        from repro.serve import ServeClientError

        try:
            self.client.shutdown()
            self.process.wait(timeout=60)
        except (OSError, ServeClientError, subprocess.TimeoutExpired):
            pass  # already gone or hanging: kill() below ends it
        finally:
            self.kill()

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()


class ServeEditLoop:
    """Seeded one-signal edits of ``muller_pipeline@16`` over HTTP."""

    name = "serve_edit_loop"
    BASE = ("muller_pipeline", 16)
    BASE_NAME = "editloop-base"
    HITS_PER_EDIT = 3
    EDITS_PER_SECOND = 6
    #: Requests of one set-up: the base check and the warm-up edit.
    SETUP_REQUESTS = 2

    def __init__(self, seed: int, workdir: str) -> None:
        from repro import corpus
        from repro.stg.writer import to_g_string

        self.seed = seed
        self.workdir = workdir
        self.outcome = Outcome()
        self.calibration = Calibration()
        self.rng = random.Random(seed)
        self.base_text = to_g_string(
            corpus.family(self.BASE[0]).instantiate(self.BASE[1])[0])
        self.base_states = oracle.table1_states(*self.BASE)
        self.daemon: Optional[Daemon] = None
        self._daemons = 0
        self._signals = set()
        #: (task name, text) of every edit sent to the current daemon, and
        #: the stable view of each edit's first reply.
        self.edits: List[Tuple[str, str]] = []
        self.stables: List[Optional[Dict[str, object]]] = []

    # ------------------------------------------------------------------
    def _edit_text(self) -> Tuple[str, str]:
        """A fresh seeded edit: a disconnected internal-signal cycle."""
        from repro.stg.parser import parse_g
        from repro.stg.stg import SignalKind
        from repro.stg.writer import to_g_string

        signal = f"e{self.rng.getrandbits(32):08x}"
        while signal in self._signals:
            signal = f"e{self.rng.getrandbits(32):08x}"
        self._signals.add(signal)
        stg = parse_g(self.base_text)
        rising, falling = f"{signal}+", f"{signal}-"
        p0, p1 = f"p_{signal}0", f"p_{signal}1"
        stg.add_signal(signal, SignalKind.INTERNAL, initial_value=False)
        stg.add_place(p0, tokens=1)
        stg.add_place(p1)
        stg.add_transition(rising)
        stg.add_transition(falling)
        for arc in ((p0, rising), (rising, p1), (p1, falling),
                    (falling, p0)):
            stg.add_arc(*arc)
        return f"edit-{signal}", to_g_string(stg)

    def _send(self, index: int) -> Timing:
        """Send edit ``index`` and return the client's timing of it.

        The first sending of an edit is checked as a seeded re-check,
        every later one as a ``RunStore`` hit of the first reply.
        """
        name, text = self.edits[index]
        first = index == len(self.stables)
        gc.collect()
        self.calibration.tick()
        start = time.perf_counter()
        try:
            reply = self.daemon.client.check(
                g_text=text, name=name, checks=["csc"],
                base=self.BASE_NAME)
        except Exception as error:  # any failure is a failed operation
            end = time.perf_counter()
            reply = {}
            problems = [f"{type(error).__name__}: {error}"]
        else:
            end = time.perf_counter()
            problems = (self._edit_problems(reply) if first
                        else self._hit_problems(reply, index))
        if first:
            self.stables.append(reply.get("stable"))
        self.outcome.record([f"{name}: {problem}" for problem in problems])
        return end, end - start

    def _edit_problems(self, reply: Dict[str, object]) -> List[str]:
        report = reply["entry"]["report"] or {}
        problems = oracle.compare(
            report, {"num_states": 2 * self.base_states, "csc": True})
        tier = (report.get("delta") or {}).get("tier")
        if tier != "seed":
            problems.append(f"delta tier {tier!r}, expected 'seed'")
        if reply["status"] != "ok":
            problems.append(f"status {reply['status']}")
        return problems

    def _hit_problems(self, reply: Dict[str, object],
                      index: int) -> List[str]:
        problems = []
        if not reply.get("cached"):
            problems.append("re-send not served from the RunStore")
        if reply.get("stable") != self.stables[index]:
            problems.append("re-send differs from the first reply")
        return problems

    def setup(self, spans_path: Optional[str] = None) -> None:
        """Boot a daemon, check the base, send the warm-up edit."""
        self._daemons += 1
        self.daemon = Daemon(self.workdir, self._daemons, spans_path)
        self.edits = [self._edit_text()]
        self.stables = []
        try:
            reply = self.daemon.client.check(
                g_text=self.base_text, name=self.BASE_NAME, checks=["csc"])
            problems = oracle.compare(reply["entry"]["report"] or {},
                                      {"num_states": self.base_states,
                                       "csc": True})
        except Exception as error:
            problems = [f"{type(error).__name__}: {error}"]
        self.outcome.record([f"base: {problem}" for problem in problems])
        self._send(0)

    def run(self, seconds: float, probe=None) -> Dict[str, object]:
        """Edits, each followed by seeded re-sends of earlier edits.

        The daemon's stores grow with every edit and later edits cost
        more, which is one more reason the number of edits is fixed.
        ``probe()`` is called before each request and after the last
        one (the traced run snapshots the daemon's metrics there).
        """
        requests: List[Tuple[str, Timing]] = []
        for _ in range(work_units(self.EDITS_PER_SECOND, seconds)):
            self.edits.append(self._edit_text())
            # Re-sends pick any edit of the timed phase, never the warm-up.
            sends = [("edit", len(self.edits) - 1)] + [
                ("hit", self.rng.randrange(1, len(self.edits)))
                for _ in range(self.HITS_PER_EDIT)]
            for kind, index in sends:
                if probe is not None:
                    probe()
                requests.append((kind, self._send(index)))
        if probe is not None:
            probe()
        return {"latencies": [timing for kind, timing in requests
                              if kind == "edit"],
                "answered": [timing for _, timing in requests],
                "requests": requests, "units": []}

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None


WORKLOADS = {cls.name: cls for cls in (ScaleVerify, CorpusSweep,
                                       ServeEditLoop)}


def make_workdir() -> str:
    """A scratch directory inside the checkout for stores and daemons."""
    base = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(base, exist_ok=True)
    path = os.path.join(base, f"run-{os.getpid()}-{time.time_ns()}")
    os.makedirs(path)
    return path


def remove_workdir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(path))
    except OSError:
        pass  # another run still uses it
