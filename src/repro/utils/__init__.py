"""Small shared utilities (timing, deterministic naming)."""

from repro.utils.timing import PhaseTimer

__all__ = ["PhaseTimer"]
