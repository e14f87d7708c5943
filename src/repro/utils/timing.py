"""Timing utilities used by the checker and the benchmark harness."""

from __future__ import annotations

import time
from typing import Dict, Iterator, Optional
from contextlib import contextmanager


class DeadlineExceeded(Exception):
    """A cooperative deadline expired mid-computation.

    Raised by the symbolic traversal's fixpoint loop when the
    ``deadline`` execution knob (an absolute :func:`time.monotonic`
    instant) has passed.  The worker primitive catches it and reports
    the entry as a ``timeout`` record, which is how the ``serial``,
    ``thread`` and ``asyncio`` backends -- none of which can preempt a
    running entry the way the ``process`` backend can -- still honour
    per-entry time budgets.
    """


def deadline_from_timeout(timeout: Optional[float]) -> Optional[float]:
    """Absolute monotonic deadline for a relative ``timeout`` budget."""
    if timeout is None:
        return None
    return time.monotonic() + float(timeout)


def check_deadline(deadline: Optional[float], context: str) -> None:
    """Raise :class:`DeadlineExceeded` when ``deadline`` has passed."""
    if deadline is not None and time.monotonic() > deadline:
        raise DeadlineExceeded(
            f"cooperative deadline exceeded during {context}")


class PhaseTimer:
    """Accumulates wall-clock time per named phase.

    Mirrors the columns of the paper's Table 1 (T+C, NI-p, CSC, Total).
    """

    def __init__(self) -> None:
        self._phases: Dict[str, float] = {}

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._phases[name] = self._phases.get(name, 0.0) + elapsed

    def get(self, name: str) -> float:
        """Seconds accumulated in a phase (0.0 if the phase never ran)."""
        return self._phases.get(name, 0.0)

    @property
    def total(self) -> float:
        """Sum of every recorded phase."""
        return sum(self._phases.values())

    def as_dict(self) -> Dict[str, float]:
        """Copy of the per-phase timings."""
        return dict(self._phases)
