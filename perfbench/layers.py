"""Per-layer tracing from outside the program.

:class:`LayerTracer` wraps the public callables of each layer at the
module or class attribute their caller resolves at call time, and
records one :mod:`repro.obs` span per call into an ``InMemorySink``.
No span is added to the program itself, and the program's own
``repro.obs`` spans stay off: the wrappers talk to their own
:class:`~repro.obs.Tracer` directly instead of activating it.

Spans nest by call order, so a layer's self time is its span's duration
minus its children's (:func:`repro.obs.report.self_times`).  Every span
of one operation carries the operation's id in its ``op`` attribute,
under one root span per operation.

The tracer keeps one span stack, so it is only correct while calls are
sequential: one in-process closed loop, or a daemon with one worker
answering one closed-loop client.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro import obs
from repro.obs.report import self_times, span_label, spans_of

#: Root span name of one benchmark operation.
OP = "op"


class LayerTracer:
    """Wrappers around the layers' entry points plus their span sink."""

    def __init__(self) -> None:
        self.sink = obs.InMemorySink()
        self.tracer = obs.Tracer(sinks=[self.sink],
                                 meta={"entry": "perfbench"})
        self.op: Optional[int] = None
        self._next_op = 0
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def span(self, name: str, **attrs: object):
        if self.op is not None:
            attrs["op"] = self.op
        return self.tracer.span(name, **attrs)

    @contextmanager
    def operation(self, kind: str = "op"):
        """Root span of one operation; yields the operation id."""
        self._next_op += 1
        self.op = self._next_op
        try:
            with self.span(OP, kind=kind):
                yield self.op
        finally:
            self.op = None

    def records(self) -> List[Dict[str, object]]:
        return list(self.sink.records)

    # ------------------------------------------------------------------
    # Installing and removing wrappers
    # ------------------------------------------------------------------
    def _patch(self, owner: object, attribute: str, replacement) -> None:
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def wrap(self, owner: object, attribute: str, name: str,
             after: Optional[Callable] = None,
             attrs: Optional[Callable] = None) -> None:
        """Time every call of ``owner.attribute`` as a ``name`` span.

        ``attrs(*args, **kwargs)`` adds attributes when the span opens;
        ``after(span, result, *args, **kwargs)`` annotates it from the
        call's result before it closes.
        """
        original = getattr(owner, attribute)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            extra = attrs(*args, **kwargs) if attrs is not None else {}
            with self.span(name, **extra) as span:
                result = original(*args, **kwargs)
                if after is not None:
                    after(span, result, *args, **kwargs)
                return result

        self._patch(owner, attribute, wrapper)

    def wrap_operation(self, owner: type, attribute: str,
                       kind: str) -> None:
        """Make every call of the coroutine method ``owner.attribute``
        one operation, under its own root span."""
        original = getattr(owner, attribute)

        @functools.wraps(original)
        async def wrapper(*args, **kwargs):
            with self.operation(kind):
                return await original(*args, **kwargs)

        self._patch(owner, attribute, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def install(self) -> "LayerTracer":
        """Wrap every measured layer (see the benchmark README's map)."""
        from repro import api
        from repro.api import checks, facade
        from repro.cache import BDDStore
        from repro.core import pipeline
        from repro.delta import warmstart
        from repro.runner import backends, worker
        from repro.runner.store import RunStore
        from repro.stg import parser

        self.wrap(pipeline, "SymbolicEncoding", "core.encoding")
        self.wrap(pipeline, "symbolic_traversal", "core.traversal",
                  after=_annotate_traversal)
        self.wrap(checks, "apply_check", "check",
                  attrs=lambda context, spec, *rest: {"check": spec.name})
        # verify() resolves run() in the facade module; sweep workers
        # resolve it on the package.
        self.wrap(facade, "run", "api.run", after=_annotate_manager)
        self._patch(api, "run", facade.run)
        self.wrap(parser, "parse_g", "stg.parse")
        self.wrap(warmstart, "parse_g", "stg.parse")
        self.wrap(backends, "execute_payload", "runner.worker")
        self.wrap(worker, "execute_payload", "runner.worker")
        self.wrap(RunStore, "put", "runner.store.put")
        self.wrap(RunStore, "lookup", "runner.store.lookup")
        self.wrap(BDDStore, "find", "cache.bdd.lookup")
        self.wrap(BDDStore, "load_entry", "cache.bdd.lookup")
        self.wrap(BDDStore, "lookup", "cache.bdd.lookup")
        self.wrap(BDDStore, "put", "cache.bdd.put")
        self.wrap(warmstart, "apply_base", "delta.apply_base",
                  after=_annotate_tier)
        self.wrap(warmstart, "diff_stg", "delta.diff")
        self.wrap(warmstart, "classify_delta", "delta.classify")
        return self


# ----------------------------------------------------------------------
# Annotations read from results (counts are deterministic)
# ----------------------------------------------------------------------
def _annotate_traversal(span, result, *args, **kwargs) -> None:
    _, stats = result
    span.annotate(iterations=stats.iterations,
                  images=stats.images_computed)


def _annotate_manager(span, outcome, *args, **kwargs) -> None:
    pipeline = outcome.pipeline
    if pipeline is None:
        return
    manager = pipeline.encoding.manager
    span.annotate(created_nodes=manager.created_nodes,
                  cache_lookups=manager.cache_lookups,
                  cache_hits=manager.cache_hits,
                  live_nodes=manager.num_nodes)


def _annotate_tier(span, result, pipeline, *args, **kwargs) -> None:
    span.annotate(tier=(pipeline.delta_info or {}).get("tier"))


# ----------------------------------------------------------------------
# Reading a trace
# ----------------------------------------------------------------------
def operations(records: Iterable[Mapping[str, object]]
               ) -> Dict[int, List[Mapping[str, object]]]:
    """Operation id -> its spans (root first)."""
    grouped: Dict[int, List[Mapping[str, object]]] = {}
    for span in spans_of(records):
        op = (span.get("attrs") or {}).get("op")
        if op is not None:
            grouped.setdefault(int(op), []).append(span)
    for spans in grouped.values():
        spans.sort(key=lambda span: span.get("depth") or 0)
    return grouped


def layer_self_ms(spans: List[Mapping[str, object]]) -> Dict[str, float]:
    """Label -> summed self time (ms) over one operation's spans."""
    selfs = self_times(spans)
    table: Dict[str, float] = {}
    for span in spans:
        label = span_label(span)
        table[label] = table.get(label, 0.0) + selfs[int(span["id"])] * 1e3
    return table


def consistency_problems(records: Iterable[Mapping[str, object]],
                         tolerance_s: float = 1e-5) -> List[str]:
    """Check every operation's spans against its wall time.

    The layer self times plus the root's own (uncovered) remainder must
    add up to the root duration, every span must sit inside its
    parent's interval, and every span must belong to the operation
    tree rooted at its operation's root.
    """
    problems = []
    for op, spans in sorted(operations(records).items()):
        roots = [span for span in spans if span["name"] == OP]
        if len(roots) != 1:
            problems.append(f"op {op}: {len(roots)} root spans")
            continue
        root = roots[0]
        by_id = {int(span["id"]): span for span in spans}
        wall = float(root["duration_s"])
        total = sum(layer_self_ms(spans).values()) / 1e3
        slack = tolerance_s * len(spans)
        if abs(total - wall) > slack:
            problems.append(f"op {op}: self times sum to {total:.6f}s, "
                            f"wall is {wall:.6f}s")
        for span in spans:
            if span is root:
                continue
            parent = by_id.get(span.get("parent"))
            if parent is None:
                problems.append(f"op {op}: span {span['name']} escapes "
                                f"its operation tree")
                continue
            start = float(span["start_s"])
            end = start + float(span["duration_s"])
            parent_start = float(parent["start_s"])
            parent_end = parent_start + float(parent["duration_s"])
            if start < parent_start - slack or end > parent_end + slack:
                problems.append(f"op {op}: span {span['name']} outside "
                                f"its parent {parent['name']}")
    return problems
