"""Derived BDD operations: quantification, cofactors, composition, renaming.

All functions here take and return :class:`~repro.bdd.function.Function`
handles.  Each operation memoises its recursion in a dedicated cache on
the manager (quantification, cofactor, the relational product and the
cube rewrite each own one; composition shares the generic ``_op_cache``),
keyed by the node id plus a small interned id of the operation parameter
(:meth:`~repro.bdd.manager.BDDManager.intern_key`) -- so cache probes
hash integer tuples instead of re-hashing frozensets on every visit.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, NamedTuple, Sequence, Tuple

from repro.bdd.function import Function
from repro.bdd.manager import BDDManager, BDDOrderError, FALSE_ID, TRUE_ID


def _levels_of(manager: BDDManager, variables: Sequence[str]) -> FrozenSet[int]:
    return frozenset(manager.level_of(name) for name in variables)


# ----------------------------------------------------------------------
# Quantification
# ----------------------------------------------------------------------
def exist(f: Function, variables: Sequence[str]) -> Function:
    """Existential quantification ``exists variables . f``.

    The abstraction of a single variable x is the classic
    ``f[x:=0] + f[x:=1]`` (Section 4 of the paper).
    """
    manager = f.manager
    levels = _levels_of(manager, variables)
    if not levels:
        return f
    key_id = manager.intern_key(("quant", levels))
    result = _quantify(manager, f.node, levels, max(levels), key_id,
                       conjunction=False)
    return manager._wrap(result)


def forall(f: Function, variables: Sequence[str]) -> Function:
    """Universal quantification ``forall variables . f``."""
    manager = f.manager
    levels = _levels_of(manager, variables)
    if not levels:
        return f
    key_id = manager.intern_key(("quant", levels))
    result = _quantify(manager, f.node, levels, max(levels), key_id,
                       conjunction=True)
    return manager._wrap(result)


def _quantify(manager: BDDManager, node: int, levels: FrozenSet[int],
              top: int, key_id: int, conjunction: bool) -> int:
    if node <= TRUE_ID:
        return node
    level = manager._level[node]
    if level > top:
        # Every quantified variable is above this node: nothing to abstract.
        return node
    cache = manager._quant_cache
    key = (conjunction, node, key_id)
    manager.cache_lookups += 1
    cached = cache.get(key)
    if cached is not None:
        manager.cache_hits += 1
        return cached
    low = _quantify(manager, manager._low[node], levels, top, key_id,
                    conjunction)
    high = _quantify(manager, manager._high[node], levels, top, key_id,
                     conjunction)
    if level in levels:
        if conjunction:
            result = manager.apply_and(low, high)
        else:
            result = manager.apply_or(low, high)
    else:
        result = manager._mk(level, low, high)
    if len(cache) >= manager._cache_limit:
        manager._evict_oldest(cache)
    cache[key] = result
    return result


def and_exist(f: Function, g: Function, variables: Sequence[str]) -> Function:
    """Relational product ``exists variables . (f & g)`` in one pass."""
    manager = f.manager
    if g.manager is not manager:
        raise ValueError("cannot combine functions from different managers")
    levels = _levels_of(manager, variables)
    key_id = manager.intern_key(("andex", levels))
    result = _and_exist(manager, f.node, g.node, levels, key_id)
    return manager._wrap(result)


def _and_exist(manager: BDDManager, f: int, g: int,
               levels: FrozenSet[int], key_id: int) -> int:
    if f == FALSE_ID or g == FALSE_ID:
        return FALSE_ID
    if f == TRUE_ID and g == TRUE_ID:
        return TRUE_ID
    if f == TRUE_ID or g == TRUE_ID:
        single = g if f == TRUE_ID else f
        if not levels:
            return single
        quant_id = manager.intern_key(("quant", levels))
        return _quantify(manager, single, levels, max(levels), quant_id,
                         conjunction=False)
    cache = manager._andex_cache
    key = (min(f, g), max(f, g), key_id)
    manager.cache_lookups += 1
    cached = cache.get(key)
    if cached is not None:
        manager.cache_hits += 1
        return cached
    level = min(manager._level[f], manager._level[g])
    f0, f1 = manager._cofactors_at(f, level)
    g0, g1 = manager._cofactors_at(g, level)
    if level in levels:
        low = _and_exist(manager, f0, g0, levels, key_id)
        if low == TRUE_ID:
            result = TRUE_ID
        else:
            high = _and_exist(manager, f1, g1, levels, key_id)
            result = manager.apply_or(low, high)
    else:
        low = _and_exist(manager, f0, g0, levels, key_id)
        high = _and_exist(manager, f1, g1, levels, key_id)
        result = manager._mk(level, low, high) if low != high else low
    if len(cache) >= manager._cache_limit:
        manager._evict_oldest(cache)
    cache[key] = result
    return result


# ----------------------------------------------------------------------
# Cofactor / restrict
# ----------------------------------------------------------------------
def cofactor(f: Function, literals: Dict[str, bool]) -> Function:
    """Cofactor of ``f`` with respect to a cube of literals.

    ``literals`` maps variable names to the value they are fixed to.  The
    result does not depend on the fixed variables; this corresponds to the
    paper's cube-generalised cofactor ``f_c``.
    """
    manager = f.manager
    if not literals:
        return f
    assignment = {manager.level_of(name): bool(value)
                  for name, value in literals.items()}
    key_id = manager.intern_key(("cof", frozenset(assignment.items())))
    result = _cofactor(manager, f.node, assignment, max(assignment), key_id)
    return manager._wrap(result)


def _cofactor(manager: BDDManager, node: int,
              assignment: Dict[int, bool], top: int, key_id: int) -> int:
    if node <= TRUE_ID:
        return node
    level = manager._level[node]
    if level > top:
        return node
    cache = manager._cof_cache
    key = (node, key_id)
    manager.cache_lookups += 1
    cached = cache.get(key)
    if cached is not None:
        manager.cache_hits += 1
        return cached
    if level in assignment:
        child = (manager._high[node] if assignment[level]
                 else manager._low[node])
        result = _cofactor(manager, child, assignment, top, key_id)
    else:
        low = _cofactor(manager, manager._low[node], assignment, top, key_id)
        high = _cofactor(manager, manager._high[node], assignment, top,
                         key_id)
        result = manager._mk(level, low, high) if low != high else low
    if len(cache) >= manager._cache_limit:
        manager._evict_oldest(cache)
    cache[key] = result
    return result


def restrict(f: Function, literals: Dict[str, bool]) -> Function:
    """Alias of :func:`cofactor` (classical name)."""
    return cofactor(f, literals)


# ----------------------------------------------------------------------
# Cube rewrite
# ----------------------------------------------------------------------
class CubeRewrite(NamedTuple):
    """A prebuilt rewrite of a fixed set of variables (see :func:`rewrite`).

    ``steps`` holds one ``(level, before, after)`` triple per rewritten
    variable in ascending level order; ``key_id`` is the interned id the
    memo table keys on, so a spec belongs to the manager that built it.
    """

    steps: Tuple[Tuple[int, bool, bool], ...]
    key_id: int


def rewrite_spec(manager: BDDManager,
                 rows: Dict[str, Tuple[bool, bool]]) -> CubeRewrite:
    """Build the :class:`CubeRewrite` mapping ``{name: (before, after)}``."""
    steps = tuple(sorted((manager.level_of(name), bool(before), bool(after))
                         for name, (before, after) in rows.items()))
    return CubeRewrite(steps, manager.intern_key(("rewrite", steps)))


def rewrite(f: Function, spec: CubeRewrite) -> Function:
    """The states of ``f`` matching ``before`` with the variables set to ``after``.

    For the rewritten variables ``V`` this is ``f_B . A`` -- the cofactor
    by the ``before`` cube ``B`` conjoined with the ``after`` cube ``A``
    -- computed in one memoised walk that builds no intermediate BDD.
    Every ingredient of the paper's firing function ``delta_D`` is such a
    cube, so a whole firing is one call.
    """
    if not spec.steps:
        return f
    manager = f.manager
    return manager._wrap(_rewrite(manager, f.node, spec.steps, spec.key_id,
                                  0))


def _rewrite(manager: BDDManager, node: int,
             steps: Tuple[Tuple[int, bool, bool], ...], key_id: int,
             position: int) -> int:
    if node == FALSE_ID:
        return FALSE_ID
    if position == len(steps):
        return node
    cache = manager._rewrite_cache
    key = (node, key_id, position)
    manager.cache_lookups += 1
    cached = cache.get(key)
    if cached is not None:
        manager.cache_hits += 1
        return cached
    level, before, after = steps[position]
    node_level = manager._level[node]
    if node_level < level:
        low = _rewrite(manager, manager._low[node], steps, key_id, position)
        high = _rewrite(manager, manager._high[node], steps, key_id, position)
        result = manager._mk(node_level, low, high)
    else:
        # The rewritten variable is tested here, or skipped (the states
        # do not depend on it): select the ``before`` branch and rebuild
        # the level with only the ``after`` branch populated.
        if node_level == level:
            node = manager._high[node] if before else manager._low[node]
        child = _rewrite(manager, node, steps, key_id, position + 1)
        if after:
            result = manager._mk(level, FALSE_ID, child)
        else:
            result = manager._mk(level, child, FALSE_ID)
    if len(cache) >= manager._cache_limit:
        manager._evict_oldest(cache)
    cache[key] = result
    return result


# ----------------------------------------------------------------------
# Composition and renaming
# ----------------------------------------------------------------------
def compose(f: Function, substitutions: Dict[str, Function]) -> Function:
    """Simultaneous composition: replace each variable by a function.

    Implemented by a single recursive pass that rebuilds the function with
    ``ite`` at substituted variables, so simultaneous substitution is exact
    (no sequential-composition artefacts).
    """
    manager = f.manager
    if not substitutions:
        return f
    by_level: Dict[int, int] = {}
    for name, g in substitutions.items():
        if g.manager is not manager:
            raise ValueError("substitution functions must share the manager")
        by_level[manager.level_of(name)] = g.node
    key_id = manager.intern_key(("compose", frozenset(by_level.items())))
    result = _compose(manager, f.node, by_level, key_id)
    return manager._wrap(result)


def _compose(manager: BDDManager, node: int, by_level: Dict[int, int],
             key_id: int) -> int:
    if node <= TRUE_ID:
        return node
    cache = manager._op_cache
    key = (node, key_id)
    manager.cache_lookups += 1
    cached = cache.get(key)
    if cached is not None:
        manager.cache_hits += 1
        return cached
    level = manager._level[node]
    low = _compose(manager, manager._low[node], by_level, key_id)
    high = _compose(manager, manager._high[node], by_level, key_id)
    replacement = by_level.get(level)
    if replacement is None:
        replacement = manager._mk(level, FALSE_ID, TRUE_ID)
    result = manager.ite(replacement, high, low)
    if len(cache) >= manager._cache_limit:
        manager._evict_oldest(cache)
    cache[key] = result
    return result


def rename(f: Function, mapping: Dict[str, str]) -> Function:
    """Rename variables according to ``mapping`` (old name -> new name).

    Every target variable must already be declared.  Renaming is a special
    case of composition with projection functions.
    """
    manager = f.manager
    substitutions = {}
    for old, new in mapping.items():
        if new not in manager.variables:
            raise BDDOrderError(f"rename target {new!r} is not declared")
        substitutions[old] = manager.var(new)
    return compose(f, substitutions)
