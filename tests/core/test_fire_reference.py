"""The one-pass firing against the paper's four-step pipeline.

:class:`~repro.core.image.SymbolicImage` fires a transition with a single
cube-rewrite walk.  The reference here is Section 4's formula written out
step by step from the :class:`~repro.core.charfun.CharacteristicFunctions`
cube helpers:

    delta_N(M, t)    = ((M_{E(t)} . NPM(t))_{NSM(t)}) . ASM(t)
    delta_N^-1(M, t) = ((M_{ASM(t)} . NSM(t))_{NPM(t)}) . E(t)

``delta_D`` (and its inverse) adds the signal step: cofactor by the value
the signal holds before the firing, conjoin the value it holds after.
Both must agree on random state sets over every transition of every
corpus entry, on variants whose transitions self-loop on a place, on sets
that do not depend on some rewritten variable, and on FALSE and TRUE.
"""

from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro import corpus
from repro.bdd import BDDManager
from repro.core.charfun import CharacteristicFunctions
from repro.core.encoding import SymbolicEncoding
from repro.core.image import SymbolicImage
from repro.core.traversal import symbolic_traversal
from repro.stg.generators import mutex_element


def _with_self_loops(stg):
    """Give every transition a read arc on a place outside its environment."""
    places = sorted(stg.places)
    for index, transition in enumerate(sorted(stg.transitions)):
        touched = (stg.net.preset_of_transition(transition)
                   | stg.net.postset_of_transition(transition))
        free = [p for p in places if p not in touched]
        if free:
            place = free[index % len(free)]
            stg.add_arc(place, transition)
            stg.add_arc(transition, place)
    return stg


CASES: List[Tuple[str, bool]] = [(name, loops) for name in corpus.names()
                                 for loops in (False, True)]
_SETUPS: Dict[Tuple[str, bool], tuple] = {}


def _setup(case: Tuple[str, bool]):
    """(stg, encoding, charfun, image) of one case, built once."""
    if case not in _SETUPS:
        name, loops = case
        stg = corpus.load(name)
        if loops:
            stg = _with_self_loops(stg)
        encoding = SymbolicEncoding(stg)
        charfun = CharacteristicFunctions(encoding)
        _SETUPS[case] = (stg, encoding, charfun, SymbolicImage(encoding))
    return _SETUPS[case]


def _signal_literals(encoding, transition: str) -> Tuple[str, bool, bool]:
    label = encoding.stg.label_of(transition)
    return (encoding.signal_variable(label.signal), not label.target_value,
            label.target_value)


def _literal(manager, variable: str, value: bool):
    return manager.var(variable) if value else manager.nvar(variable)


def reference_fire_net(charfun, states, transition):
    step = states.cofactor(charfun.enabled_literals(transition))
    step = step & charfun.no_predecessor_marked(transition)
    step = step.cofactor(charfun.no_successor_literals(transition))
    return step & charfun.all_successors_marked(transition)


def reference_fire_net_backward(charfun, states, transition):
    step = states.cofactor(charfun.all_successors_literals(transition))
    step = step & charfun.no_successor_marked(transition)
    step = step.cofactor(charfun.no_predecessor_literals(transition))
    return step & charfun.enabled(transition)


def reference_fire(charfun, states, transition):
    encoding = charfun.encoding
    variable, old, new = _signal_literals(encoding, transition)
    step = reference_fire_net(charfun, states, transition)
    step = step.cofactor({variable: old})
    return step & _literal(encoding.manager, variable, new)


def reference_fire_backward(charfun, states, transition):
    encoding = charfun.encoding
    variable, old, new = _signal_literals(encoding, transition)
    step = reference_fire_net_backward(charfun, states, transition)
    step = step.cofactor({variable: new})
    return step & _literal(encoding.manager, variable, old)


FIRINGS = [
    ("fire", reference_fire),
    ("fire_backward", reference_fire_backward),
    ("fire_net", reference_fire_net),
    ("fire_net_backward", reference_fire_net_backward),
]


def _rewritten_variables(encoding, transition: str) -> List[str]:
    net = encoding.stg.net
    places = sorted(net.preset_of_transition(transition)
                    | net.postset_of_transition(transition))
    return ([encoding.place_variable(p) for p in places]
            + [_signal_literals(encoding, transition)[0]])


@st.composite
def firing_problems(draw):
    """A case, one of its transitions and a random state set."""
    case = draw(st.sampled_from(CASES))
    stg, encoding, charfun, image = _setup(case)
    manager = encoding.manager
    transition = draw(st.sampled_from(sorted(stg.transitions)))
    variables = manager.variables
    # Bias the cubes towards the transition's own variables, so the
    # set is often enabled and the rewrite has work to do.
    local = _rewritten_variables(encoding, transition)
    states = manager.false
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        chosen = draw(st.lists(st.sampled_from(local + variables),
                               max_size=8, unique=True))
        states = states | manager.cube(
            {name: draw(st.booleans()) for name in chosen})
    # Sometimes make the set independent of some rewritten variables.
    dropped = draw(st.lists(st.sampled_from(local), unique=True))
    if dropped:
        states = states.exist(dropped)
    return charfun, image, transition, states


class TestFiringMatchesThePaperPipeline:
    @settings(max_examples=300, deadline=None)
    @given(problem=firing_problems())
    def test_random_state_sets(self, problem):
        charfun, image, transition, states = problem
        for method, reference in FIRINGS:
            assert (getattr(image, method)(states, transition)
                    == reference(charfun, states, transition)), method

    @pytest.mark.parametrize("case", CASES,
                             ids=[f"{name}{'+loops' if loops else ''}"
                                  for name, loops in CASES])
    def test_false_and_true_inputs(self, case):
        stg, encoding, charfun, image = _setup(case)
        manager = encoding.manager
        for transition in sorted(stg.transitions):
            for method, reference in FIRINGS:
                fire = getattr(image, method)
                assert fire(manager.false, transition).is_false()
                assert (fire(manager.true, transition)
                        == reference(charfun, manager.true, transition))

    def test_self_loop_place_stays_marked(self):
        stg, encoding, _, image = _setup(("mutex_element", True))
        manager = encoding.manager
        for transition in sorted(stg.transitions):
            loops = (stg.net.preset_of_transition(transition)
                     & stg.net.postset_of_transition(transition))
            assert loops
            for place in sorted(loops):
                marked = manager.var(encoding.place_variable(place))
                for method in ("fire", "fire_backward", "fire_net",
                               "fire_net_backward"):
                    fired = getattr(image, method)(manager.true, transition)
                    assert fired <= marked
                    assert getattr(image, method)(~marked,
                                                  transition).is_false()


def _models(function, encoding) -> List[tuple]:
    care = encoding.manager.variables
    return sorted(tuple(sorted(model.items()))
                  for model in function.iter_models(care))


def _all_firings(stg, encoding):
    """Fire every transition (four ways) from the reachable set."""
    manager = encoding.manager
    reached, _ = symbolic_traversal(encoding)
    image = SymbolicImage(encoding)
    results = []
    for transition in sorted(stg.transitions):
        for method, _ in FIRINGS:
            results.append(getattr(image, method)(reached, transition))
    return manager, image, reached, results


class TestRewriteCacheHygiene:
    def test_fire_after_garbage_collection_matches_a_fresh_manager(self):
        stg = mutex_element()
        encoding = SymbolicEncoding(stg)
        manager, image, reached, first = _all_firings(stg, encoding)
        # Drop the firing results so collection remaps surviving ids.
        del first
        manager.collect_garbage()
        assert not manager._rewrite_cache
        again = [getattr(image, method)(reached, transition)
                 for transition in sorted(stg.transitions)
                 for method, _ in FIRINGS]
        fresh_encoding = SymbolicEncoding(mutex_element())
        _, _, _, fresh = _all_firings(mutex_element(), fresh_encoding)
        assert ([_models(f, encoding) for f in again]
                == [_models(f, fresh_encoding) for f in fresh])

    def test_tiny_cache_limit_evicts_and_stays_correct(self):
        stg = mutex_element()
        small = SymbolicEncoding(stg, manager=BDDManager(cache_limit=8))
        manager, _, _, results = _all_firings(stg, small)
        assert manager.cache_evictions > 0
        assert len(manager._rewrite_cache) <= 8
        reference = SymbolicEncoding(mutex_element())
        _, _, _, expected = _all_firings(mutex_element(), reference)
        assert ([_models(f, small) for f in results]
                == [_models(f, reference) for f in expected])

    def test_rewrite_probes_are_counted_and_cleared(self):
        stg = mutex_element()
        encoding = SymbolicEncoding(stg)
        manager = encoding.manager
        image = SymbolicImage(encoding)
        lookups = manager.cache_lookups
        image.fire(encoding.initial_state(), sorted(stg.transitions)[0])
        assert manager.cache_lookups > lookups
        assert manager._rewrite_cache
        assert (manager.cache_stats()["entries"]
                >= len(manager._rewrite_cache))
        manager.clear_caches()
        assert not manager._rewrite_cache
