"""The specialised binary apply routines: correctness, caches, eviction.

The kernel used to funnel every connective through the generic ``ite``;
``apply_and``/``apply_or``/``apply_xor``/``apply_diff`` now recurse
directly with their own caches and terminal short-circuits.  These tests
pin them against an ``ite``-based reference on exhaustive small cases
and randomised functions, and cover the generational cache eviction that
replaced the clear-everything policy.
"""

import itertools
import random

import pytest

from repro.bdd import BDDManager
from repro.bdd.manager import FALSE_ID, TRUE_ID


@pytest.fixture
def mgr():
    return BDDManager(["a", "b", "c", "d", "e"])


def reference_and(mgr, f, g):
    return mgr.ite(f, g, FALSE_ID)


def reference_or(mgr, f, g):
    return mgr.ite(f, TRUE_ID, g)


def reference_xor(mgr, f, g):
    return mgr.ite(f, mgr.negate(g), g)


def reference_diff(mgr, f, g):
    return mgr.ite(f, mgr.negate(g), FALSE_ID)


def random_function(mgr, rng, depth=3):
    """A random function over the manager's variables."""
    variables = mgr.variables
    node = mgr.var(rng.choice(variables)).node
    for _ in range(depth):
        other = mgr.var(rng.choice(variables)).node
        operation = rng.choice(["and", "or", "xor", "not"])
        if operation == "and":
            node = mgr.apply_and(node, other)
        elif operation == "or":
            node = mgr.apply_or(node, other)
        elif operation == "xor":
            node = mgr.apply_xor(node, other)
        else:
            node = mgr.negate(node)
    return node


class TestSpecialisedOpsMatchIte:
    def test_terminal_cases_exhaustive(self, mgr):
        a = mgr.var("a").node
        operands = [FALSE_ID, TRUE_ID, a, mgr.negate(a)]
        for f, g in itertools.product(operands, repeat=2):
            assert mgr.apply_and(f, g) == reference_and(mgr, f, g)
            assert mgr.apply_or(f, g) == reference_or(mgr, f, g)
            assert mgr.apply_xor(f, g) == reference_xor(mgr, f, g)
            assert mgr.apply_diff(f, g) == reference_diff(mgr, f, g)

    def test_randomised_functions_match_reference(self, mgr):
        rng = random.Random(7)
        for _ in range(60):
            f = random_function(mgr, rng)
            g = random_function(mgr, rng)
            assert mgr.apply_and(f, g) == reference_and(mgr, f, g)
            assert mgr.apply_or(f, g) == reference_or(mgr, f, g)
            assert mgr.apply_xor(f, g) == reference_xor(mgr, f, g)
            assert mgr.apply_diff(f, g) == reference_diff(mgr, f, g)

    def test_implies_and_iff_through_specialised_ops(self, mgr):
        rng = random.Random(11)
        for _ in range(30):
            f = random_function(mgr, rng)
            g = random_function(mgr, rng)
            assert mgr.apply_implies(f, g) == mgr.ite(f, g, TRUE_ID)
            assert mgr.apply_iff(f, g) == mgr.ite(f, g, mgr.negate(g))

    def test_commutative_ops_share_cache_entries(self, mgr):
        f = mgr.apply_and(mgr.var("a").node, mgr.var("b").node)
        g = mgr.apply_or(mgr.var("c").node, mgr.var("d").node)
        mgr.apply_and(f, g)
        entries = len(mgr._and_cache)
        mgr.apply_and(g, f)  # swapped operands: must hit, not grow
        assert len(mgr._and_cache) == entries

    def test_function_operators_route_through_specialised_ops(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        assert (a & b).node == mgr.apply_and(a.node, b.node)
        assert (a | b).node == mgr.apply_or(a.node, b.node)
        assert (a ^ b).node == mgr.apply_xor(a.node, b.node)
        assert (a - b).node == mgr.apply_diff(a.node, b.node)


class TestCacheCounters:
    def test_lookups_and_hits_are_counted(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        before = mgr.cache_stats()
        _ = a & b
        _ = a & b  # second time: at least one hit
        after = mgr.cache_stats()
        assert after["lookups"] > before["lookups"]
        assert after["hits"] > before["hits"]

    def test_stats_shape(self, mgr):
        stats = mgr.cache_stats()
        assert set(stats) == {"lookups", "hits", "evictions", "entries"}

    def test_clear_caches_empties_every_table(self, mgr):
        a, b, c = mgr.var("a"), mgr.var("b"), mgr.var("c")
        _ = (a & b) | c
        _ = (a ^ b) - c
        _ = (a & b).exist(["a"])
        _ = (a | c).cofactor({"a": True})
        _ = ~(a & c)
        assert mgr.cache_stats()["entries"] > 0
        mgr.clear_caches()
        assert mgr.cache_stats()["entries"] == 0


class TestGenerationalEviction:
    def test_eviction_keeps_caches_bounded(self):
        mgr = BDDManager([f"x{i}" for i in range(24)], cache_limit=64)
        rng = random.Random(3)
        for _ in range(400):
            f = random_function(mgr, rng, depth=4)
            g = random_function(mgr, rng, depth=4)
            mgr.apply_and(f, g)
            mgr.apply_or(f, g)
        assert mgr.cache_evictions > 0
        # Bounded: at most the limit plus one in-flight generation.
        assert len(mgr._and_cache) <= 64 + 1
        assert len(mgr._or_cache) <= 64 + 1

    def test_negate_cache_is_bounded_and_counted(self):
        names = [f"x{i}" for i in range(12)]
        mgr = BDDManager(names, cache_limit=8)
        parity = mgr.false
        for name in names:
            parity = parity ^ mgr.var(name)
        lookups, hits = mgr.cache_lookups, mgr.cache_hits
        negated = ~parity
        assert len(mgr._not_cache) <= 8 + 1
        assert mgr.cache_lookups > lookups
        # The parity BDD shares its sub-graphs: negation re-visits them.
        assert mgr.cache_hits > hits
        assert ~negated == parity
        assert (negated ^ parity) == mgr.true

    def test_eviction_drops_oldest_half_not_everything(self):
        mgr = BDDManager([f"x{i}" for i in range(10)], cache_limit=8)
        cache = {key: key for key in range(8)}
        mgr._evict_oldest(cache)
        assert list(cache) == [4, 5, 6, 7]  # newest half survives
        assert mgr.cache_evictions == 1

    def test_results_stay_correct_across_evictions(self):
        mgr = BDDManager([f"x{i}" for i in range(12)], cache_limit=32)
        rng = random.Random(5)
        pairs = []
        for _ in range(50):
            f = random_function(mgr, rng, depth=3)
            g = random_function(mgr, rng, depth=3)
            pairs.append((f, g, mgr.apply_and(f, g)))
        # Recompute every conjunction after heavy cache churn: node
        # canonicity means the results must be identical ids.
        for f, g, expected in pairs:
            assert mgr.apply_and(f, g) == expected

    def test_intern_key_is_stable(self, mgr):
        key = frozenset({1, 2, 3})
        first = mgr.intern_key(("quant", key))
        second = mgr.intern_key(("quant", frozenset({3, 2, 1})))
        assert first == second
        assert mgr.intern_key(("cof", key)) != first
