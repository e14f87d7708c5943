"""Verdict oracle: answers that do not come from the code under test.

Every verdict the benchmark receives is compared against one of

* closed-form reachable-state counts of the scalable families (derived
  from the construction of each family, not from running a checker);
* verdicts pinned in ``pinned_corpus.json`` for the registered corpus
  entries (only fields on which the symbolic and the explicit engine
  agreed when the file was written);
* the structural invariants the random families guarantee by
  construction (consistent, output-persistent, deadlock-free).

A check returns a list of human-readable problems; an empty list means
the verdict is right.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Mapping, Optional

PINNED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "pinned_corpus.json")

#: Verdicts every instance of the Table-1 families must produce.
TABLE1_VERDICTS = {"consistent": True, "output_persistent": True,
                   "csc": True, "classification": "gate-implementable"}

#: What the random families guarantee whatever their seed (CSC varies).
RANDOM_VERDICTS = {"consistent": True, "output_persistent": True,
                   "deadlock_free": True}


def table1_states(family: str, scale: int) -> int:
    """Closed-form reachable-state count of a Table-1 family instance."""
    if family == "muller_pipeline":
        return 2 ** (scale + 1)
    if family == "parallel_handshakes":
        return 4 ** scale
    if family == "master_read":
        return 2 * 3 ** scale + 2
    if family == "mutex":
        return (scale + 1) * 2 ** scale
    raise ValueError(f"no closed form for family {family!r}")


def random_states(family: str, scale: int) -> int:
    """Reachable-state count of a ``random_ring``/``random_parallel`` scale.

    A random ring over ``n`` signals is one sequential cycle of ``2n``
    transitions, so it has ``2n`` states; the ring size of scale ``s`` is
    ``3 + s % 6``.  Independent rings multiply, and the per-ring sizes of
    a parallel instance are a seeded draw the generator exposes.
    """
    if family == "random_ring":
        return 2 * (3 + scale % 6)
    if family == "random_parallel":
        from repro.stg.generators import random_parallel_state_count

        return random_parallel_state_count(2 + scale % 3, scale)
    raise ValueError(f"not a random family: {family!r}")


def load_pinned() -> Dict[str, Dict[str, object]]:
    with open(PINNED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def compare(report: Mapping[str, object],
            expected: Mapping[str, object]) -> List[str]:
    """Differences between a report dict and the expected fields."""
    problems = []
    for key, wanted in expected.items():
        observed = report.get(key)
        if key == "classification":
            observed = str(observed)
        if observed != wanted:
            problems.append(f"{key}: expected {wanted!r}, got {observed!r}")
    return problems


def expected_for(name: str, pinned: Mapping[str, Mapping[str, object]]
                 ) -> Optional[Dict[str, object]]:
    """Expected report fields of a sweep entry or family instance name.

    ``name`` is a corpus entry name or ``family@scale``; ``None`` means
    the oracle has no answer for it (which the caller counts as a
    failure: every verdict must be checked).
    """
    if name in pinned:
        return dict(pinned[name])
    family, at, scale_text = name.partition("@")
    if not at:
        return None
    scale = int(scale_text)
    if family in ("random_ring", "random_parallel"):
        return dict(RANDOM_VERDICTS, num_states=random_states(family, scale))
    return dict(TABLE1_VERDICTS, num_states=table1_states(family, scale))


def check(name: str, report: Optional[Mapping[str, object]],
          pinned: Mapping[str, Mapping[str, object]]) -> List[str]:
    """Problems with the verdict reported for ``name`` (empty = correct)."""
    if report is None:
        return [f"{name}: no report"]
    expected = expected_for(name, pinned)
    if expected is None:
        return [f"{name}: the oracle has no answer for this entry"]
    return [f"{name}: {problem}" for problem in compare(report, expected)]
