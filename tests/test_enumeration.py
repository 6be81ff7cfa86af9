"""Enumeration of minimal forests, phi and the convexity profile.

The independent oracle enumerates arc subsets directly and uses
networkx for acyclicity, sharing no code with the DFS enumerator.
"""

import itertools
import os
import subprocess
import sys
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings

from forest_atoms import (INF, CapExceeded, Digraph, Forest, InvariantError,
                          MinForestSet, PhiSequence, all_minimal_forests,
                          convexity_profile, count_forests, enumerate_forests,
                          is_strict_level, minimal_forests, phi_sequence)
from tests.conftest import random_graph, signed_graphs


def brute_force(graph):
    """All spanning forests via arc-subset enumeration + networkx.

    Returns {k: (min_weight or None, {out-tuples of minimal forests})}.
    """
    arcs = sorted(graph.arcs)
    best = {}
    for r in range(len(arcs) + 1):
        for combo in itertools.combinations(arcs, r):
            tails = [i for i, _ in combo]
            if len(set(tails)) != len(tails):
                continue  # two out-arcs at one vertex
            nxg = nx.DiGraph()
            nxg.add_nodes_from(range(graph.n))
            nxg.add_edges_from(combo)
            if not nx.is_directed_acyclic_graph(nxg):
                continue
            out = [None] * graph.n
            for i, j in combo:
                out[i] = j
            k = graph.n - len(combo)
            w = sum((graph.arcs[a] for a in combo), Fraction(0))
            cur = best.setdefault(k, [None, set()])
            if cur[0] is None or w < cur[0]:
                cur[0], cur[1] = w, {tuple(out)}
            elif w == cur[0]:
                cur[1].add(tuple(out))
    return best


def assert_matches_brute_force(g):
    oracle = brute_force(g)
    mine = all_minimal_forests(g)
    for k in range(1, g.n + 1):
        got = mine[k]
        if k not in oracle:
            assert got.weight == INF and not got.forests
        else:
            assert got.weight == oracle[k][0]
            assert {F.out for F in got.forests} == oracle[k][1]


@pytest.mark.parametrize("seed", range(30))
def test_minimal_sets_match_brute_force(seed):
    assert_matches_brute_force(random_graph(seed, n_max=5))


@settings(max_examples=150, deadline=None)
@given(signed_graphs(max_arcs=9))  # keeps the arc-subset oracle small
def test_minimal_sets_match_brute_force_signed(g):
    assert_matches_brute_force(g)


@pytest.mark.parametrize("seed", range(20))
def test_single_level_matches_all_levels(seed):
    g = random_graph(seed + 300, n_max=6, wmax=2)
    every = all_minimal_forests(g)
    for k in range(1, g.n + 1):
        one = minimal_forests(g, k)
        assert one.weight == every[k].weight
        assert [F.out for F in one.forests] == [F.out for F in every[k].forests]


@pytest.mark.parametrize("seed", range(20))
def test_tie_sets_in_canonical_order(seed):
    # unit-ish weights make large tie sets
    g = random_graph(seed + 400, n_max=6, wmax=2)
    key = lambda out: tuple(g.n if t is None else t for t in out)
    for tilde in all_minimal_forests(g).values():
        outs = [F.out for F in tilde.forests]
        assert outs == sorted(outs, key=key)
        assert len(set(outs)) == len(outs)


@pytest.mark.parametrize("seed", range(20))
def test_counts_match_brute_force(seed):
    g = random_graph(seed + 100, n_max=5)
    by_k = {}
    for F in enumerate_forests(g):
        by_k[F.k] = by_k.get(F.k, 0) + 1
    arcs = sorted(g.arcs)
    expect = {}
    for r in range(len(arcs) + 1):
        for combo in itertools.combinations(arcs, r):
            tails = [i for i, _ in combo]
            if len(set(tails)) != len(tails):
                continue
            nxg = nx.DiGraph()
            nxg.add_nodes_from(range(g.n))
            nxg.add_edges_from(combo)
            if nx.is_directed_acyclic_graph(nxg):
                k = g.n - len(combo)
                expect[k] = expect.get(k, 0) + 1
    assert by_k == expect
    for k in range(1, g.n + 1):
        assert count_forests(g, k) == expect.get(k, 0)


def test_golden_phi_and_unique_forests(g_ato, an_ato):
    assert an_ato.phi.values == (INF, 7, 3, 1, 0)
    assert an_ato.profile == ("strict", "strict", "strict")
    expected = {
        1: {("a", "c"), ("b", "d"), ("c", "b")},
        2: {("a", "c"), ("b", "a")},
        3: {("b", "a")},
        4: set(),
    }
    for k, arcset in expected.items():
        tilde = an_ato.minimal[k]
        assert len(tilde.forests) == 1
        assert set(tilde.forests[0].arc_names()) == arcset


def test_woody_phi(an_woody):
    assert an_woody.phi.values == (INF, INF, 8, 5, 3, 1, 0)
    assert an_woody.profile == ("undefined", "strict", "strict", "equal",
                                "strict")
    assert len(an_woody.minimal[2].forests) == 8


def test_gap_arithmetic(an_ato, an_woody):
    assert an_ato.phi.gap(1) == INF
    assert an_ato.phi.gap(2) == 4
    assert an_woody.phi.gap(2) == INF
    with pytest.raises(InvariantError):
        an_woody.phi.gap(1)  # inf - inf is undefined


def test_invariant_errors(g_ato, an_ato):
    F = an_ato.minimal[1].forests[0]
    with pytest.raises(InvariantError):
        MinForestSet(1, INF, (F,))
    with pytest.raises(InvariantError):
        MinForestSet(1, Fraction(7), ())
    with pytest.raises(InvariantError):
        convexity_profile(PhiSequence((INF, 5, 4, 0)))  # 5 - 4 < 4 - 0
    with pytest.raises(InvariantError):
        convexity_profile(PhiSequence((INF, 3, INF, 0)))  # rises to inf


# Each case corrupts one input (or, for atom indivisibility, the
# refinement that guarantees it) and must still raise under -O.
OPTIMIZED_CASES = """
import importlib

from forest_atoms import (INF, Analysis, Digraph, InvariantError,
                          MinForestSet, PhiSequence, atoms, build_hierarchy,
                          measure)

# the package's atoms() function shadows the module of the same name
atoms_mod = importlib.import_module("forest_atoms.atoms")
ato = Digraph.from_arcs([("b", "a", 1), ("a", "c", 2), ("b", "d", 2),
                         ("c", "b", 3)])
an = Analysis.compute(ato)


def unrefined_atoms():
    refine = atoms_mod._refine
    atoms_mod._refine = lambda partition, blocks: partition
    try:
        atoms(ato, 2, an.minimal[2])
    finally:
        atoms_mod._refine = refine


def wrong_phi_measure():
    tilde = an.minimal[2]
    measure(ato, 2, MinForestSet(2, tilde.weight + 1, tilde.forests),
            an.family(2))


def unnested_hierarchy():
    bad = Analysis.compute(ato)
    bad._families[1] = bad.family(4)
    build_hierarchy(bad)


def unordered_gaps():
    bad = Analysis.compute(ato)
    bad.phi = PhiSequence((INF, 7, 3, 2, 0))
    build_hierarchy(bad)


cases = {
    "gap": lambda: PhiSequence((INF, INF, 0)).gap(1),
    "atom split": unrefined_atoms,
    "measure sum": wrong_phi_measure,
    "nesting": unnested_hierarchy,
    "gap order": unordered_gaps,
}
for name, case in cases.items():
    try:
        case()
        print(name, "passed")
    except InvariantError:
        print(name, "raised")
"""


def test_invariants_survive_optimize_flag():
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    res = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_CASES],
                         env=env, capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == [
        "gap raised", "atom split raised", "measure sum raised",
        "nesting raised", "gap order raised"]


def test_strictness(an_ato, an_woody):
    assert all(an_ato.strict(k) for k in range(1, 5))
    assert not an_woody.strict(1)       # infeasible, never strict
    assert an_woody.strict(2) and an_woody.strict(3)
    assert not an_woody.strict(4)       # equality level
    assert an_woody.strict(6)           # k = N counts as strict


def test_canonical_order():
    g = Digraph.from_arcs([("a", "b", 1), ("b", "a", 1)])
    forests = list(enumerate_forests(g))
    outs = [F.out for F in forests]
    key = lambda out: tuple(g.n if t is None else t for t in out)
    assert outs == sorted(outs, key=key)
    assert len(outs) == 3  # a->b, b->a, empty


def test_cap():
    g = Digraph(names=tuple(f"v{i}" for i in range(15)), arcs={})
    with pytest.raises(CapExceeded):
        phi_sequence(g)
    assert phi_sequence(g, cap=15).values[15] == 0


def test_k_bounds(g_ato):
    with pytest.raises(ValueError):
        list(enumerate_forests(g_ato, 0))
    with pytest.raises(ValueError):
        minimal_forests(g_ato, 5)


def test_single_vertex():
    g = Digraph(names=("x",), arcs={})
    assert phi_sequence(g).values == (INF, 0)
    assert convexity_profile(phi_sequence(g)) == ()


@pytest.mark.parametrize("seed", range(40))
def test_convexity_holds(seed):
    g = random_graph(seed + 500, n_max=6)
    phi = phi_sequence(g)
    profile = convexity_profile(phi)  # asserts convexity internally
    # phi is non-increasing and ends at 0
    finite = [w for w in phi.values if w != INF]
    assert finite == sorted(finite, reverse=True)
    assert phi.values[g.n] == 0
    for k, marker in enumerate(profile, start=1):
        assert (marker == "undefined") == (not phi.feasible(k))
