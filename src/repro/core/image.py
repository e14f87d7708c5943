"""Symbolic transition functions (Section 4).

``delta_N`` transforms a set of markings by firing one transition:

    delta_N(M, t) = ((M_{E(t)} . NPM(t))_{NSM(t)}) . ASM(t)

``delta_D`` extends it to STG full states by updating the variable of the
fired signal (cofactor with respect to the old value, conjunction with the
new value).  The inverse functions used by the backward traversal of the
CSC-reducibility check are also provided; they handle self-loop places
(``p`` in both the preset and the postset) explicitly.

All functions operate on characteristic functions over the variables of a
:class:`~repro.core.encoding.SymbolicEncoding` and never enumerate states.

Every ingredient of ``delta_D`` is a cube over the variables of the
transition's preset, postset and signal, and the four steps together
only *rewrite* those variables: the states must hold the "before" value
of each and leave with its "after" value --

    =================  ======  =====
    variable           before  after
    =================  ======  =====
    preset-only place  1       0
    postset-only place 0       1
    self-loop place    1       1
    signal             old     new
    =================  ======  =====

-- so a firing is one :func:`repro.bdd.operators.rewrite` walk that
builds no intermediate BDD.  A backward firing swaps "before" and
"after"; the net-level firings drop the signal row.  The traversal fires
every transition on every outer iteration, so the four rewrite specs of
a transition are built **once** into a :class:`_FirePlan`.
"""

from __future__ import annotations

from typing import Dict, Iterable, NamedTuple, Optional, Tuple

from repro.bdd import Function
from repro.bdd.operators import CubeRewrite, rewrite, rewrite_spec
from repro.core.charfun import CharacteristicFunctions
from repro.core.encoding import SymbolicEncoding


class _FirePlan(NamedTuple):
    """Prebuilt rewrite specs for firing one transition symbolically."""

    forward: CubeRewrite       # delta_D(t): places and the label's signal
    backward: CubeRewrite      # inverse of delta_D(t)
    net_forward: CubeRewrite   # delta_N(t): places only
    net_backward: CubeRewrite  # inverse of delta_N(t)


def _swapped(rows: Dict[str, Tuple[bool, bool]]) -> Dict[str, Tuple[bool, bool]]:
    """The backward rows of forward ``rows``: "before" and "after" swap."""
    return {name: (after, before) for name, (before, after) in rows.items()}


class SymbolicImage:
    """Forward and backward symbolic firing for one encoded STG."""

    def __init__(self, encoding: SymbolicEncoding,
                 charfun: Optional[CharacteristicFunctions] = None) -> None:
        self.encoding = encoding
        self.charfun = charfun or CharacteristicFunctions(encoding)
        self._plans: Dict[str, _FirePlan] = {}

    def _plan(self, transition: str) -> _FirePlan:
        """The cached :class:`_FirePlan` of ``transition`` (built once)."""
        plan = self._plans.get(transition)
        if plan is None:
            plan = self._build_plan(transition)
            self._plans[transition] = plan
        return plan

    def _build_plan(self, transition: str) -> _FirePlan:
        encoding = self.encoding
        manager = encoding.manager
        net = encoding.stg.net
        place = encoding.place_variable

        preset = net.preset_of_transition(transition)
        postset = net.postset_of_transition(transition)
        # Rows are {variable: (before, after)} for the forward firing.
        rows = {place(p): (True, p in postset) for p in sorted(preset)}
        rows.update({place(p): (p in preset, True) for p in sorted(postset)})
        label = encoding.stg.label_of(transition)
        signal_rows = dict(rows)
        signal_rows[encoding.signal_variable(label.signal)] = (
            not label.target_value, label.target_value)
        return _FirePlan(
            forward=rewrite_spec(manager, signal_rows),
            backward=rewrite_spec(manager, _swapped(signal_rows)),
            net_forward=rewrite_spec(manager, rows),
            net_backward=rewrite_spec(manager, _swapped(rows)))

    # ------------------------------------------------------------------
    # Petri-net level
    # ------------------------------------------------------------------
    def fire_net(self, states: Function, transition: str) -> Function:
        """``delta_N(states, t)``: fire ``t`` on the marking variables only."""
        return rewrite(states, self._plan(transition).net_forward)

    def fire_net_backward(self, states: Function, transition: str) -> Function:
        """Inverse of :meth:`fire_net`: predecessors of ``states`` under ``t``."""
        return rewrite(states, self._plan(transition).net_backward)

    # ------------------------------------------------------------------
    # STG level (marking + signal code)
    # ------------------------------------------------------------------
    def fire(self, states: Function, transition: str) -> Function:
        """``delta_D(states, t)``: fire ``t`` and update its signal variable.

        Following the paper, source states must hold the *old* signal
        value; those that would violate consistency are dropped (they are
        reported separately by :mod:`repro.core.consistency`).
        """
        return rewrite(states, self._plan(transition).forward)

    def fire_backward(self, states: Function, transition: str) -> Function:
        """Inverse of :meth:`fire`: predecessors under ``t`` with signal undo."""
        return rewrite(states, self._plan(transition).backward)

    # ------------------------------------------------------------------
    # Images over transition sets
    # ------------------------------------------------------------------
    def image(self, states: Function,
              transitions: Optional[Iterable[str]] = None) -> Function:
        """Union of ``delta_D(states, t)`` over ``transitions`` (default all)."""
        if transitions is None:
            transitions = self.encoding.stg.transitions
        result = self.encoding.manager.false
        for transition in transitions:
            result = result | self.fire(states, transition)
        return result

    def preimage(self, states: Function,
                 transitions: Optional[Iterable[str]] = None) -> Function:
        """Union of backward firings over ``transitions`` (default all)."""
        if transitions is None:
            transitions = self.encoding.stg.transitions
        result = self.encoding.manager.false
        for transition in transitions:
            result = result | self.fire_backward(states, transition)
        return result

    def input_transitions(self) -> list:
        """Transitions labelled with *input* signals (for frozen traversals)."""
        stg = self.encoding.stg
        return [t for t in stg.transitions if stg.is_input(stg.signal_of(t))]
