"""Metastable hierarchy levels, gaps, aggregation maps."""

from fractions import Fraction

import pytest

from forest_atoms import (INF, Analysis, Digraph, build_hierarchy,
                          from_rate_exponents)


def test_golden_hierarchy(an_ato):
    levels = build_hierarchy(an_ato)
    assert [lv.k for lv in levels] == [1, 2, 3, 4]
    assert [lv.gap for lv in levels] == [INF, 4, 2, 1]
    # coarsest level aggregates everything into one atom
    assert levels[0].aggregation == (0, 0, 0, 0)
    assert levels[-1].aggregation == (0, 1, 2, 3)


def test_woody_hierarchy(an_woody):
    levels = build_hierarchy(an_woody)
    assert [lv.k for lv in levels] == [2, 3, 5, 6]  # k=4 is an equality level
    assert levels[0].gap == INF
    gaps = [lv.gap for lv in levels[1:]]
    assert gaps == sorted(gaps, reverse=True)
    # support: only labeled atoms keep mass
    assert levels[0].atoms.labeled == (True, False, True)
    assert levels[1].atoms.labeled == (True, True, True)


def test_empty_arc_graph_single_level():
    g = Digraph(names=("x", "y", "z"), arcs={})
    levels = build_hierarchy(Analysis.compute(g))
    assert [lv.k for lv in levels] == [3]
    assert [len(a) for a in levels[0].atoms.atoms] == [1, 1, 1]


def test_unit_weight_complete_graph():
    names = ("a", "b", "c", "d")
    arcs = {(i, j): Fraction(1) for i in range(4) for j in range(4) if i != j}
    an = Analysis.compute(Digraph(names=names, arcs=arcs))
    # phi = inf 3 2 1 0: every interior difference equals 1, so the only
    # strict levels are k=1 and k=N
    levels = build_hierarchy(an)
    assert [lv.k for lv in levels] == [1, 4]


def test_nesting(an_woody):
    levels = build_hierarchy(an_woody)
    for upper, lower in zip(levels, levels[1:]):
        for a in lower.atoms.atoms:
            assert any(a <= b for b in upper.atoms.atoms)


def test_from_rate_exponents():
    g = from_rate_exponents(
        ["s0", "s1", "s2"],
        [[None, 1, None],
         [2, None, "3/2"],
         [None, None, None]])
    assert g.arcs[(0, 1)] == 1
    assert g.arcs[(1, 2)] == Fraction(3, 2)
    assert (2, 0) not in g.arcs
    build_hierarchy(Analysis.compute(g))  # smoke: hierarchy exists
