"""Atom families, the measure, shielding/detaching, undirected case."""

from fractions import Fraction

import pytest

from forest_atoms import (Analysis, Digraph, InfeasibleLevel, InputError,
                          algebra_contains, algebra_elements, atoms,
                          detach_incoming, find_shielded_forest,
                          in_neighborhood, is_symmetric, measure, restrict,
                          symmetrize, verify)
from forest_atoms.atoms import undirected_check
from forest_atoms.enumeration import MinForestSet
from forest_atoms.verification import VERIFIED
from tests.conftest import random_graph


def _atom_names(g, fam):
    return [frozenset(g.names[v] for v in a) for a in fam.atoms]


def test_golden_atoms(g_ato, an_ato):
    fam2 = an_ato.family(2)
    assert _atom_names(g_ato, fam2) == [frozenset("abc"), frozenset("d")]
    assert fam2.labeled == (True, True)
    fam3 = an_ato.family(3)
    assert _atom_names(g_ato, fam3) == [frozenset("ab"), frozenset("c"),
                                        frozenset("d")]
    assert fam3.labeled == (True, True, True)


def test_golden_measure(an_ato):
    m2 = an_ato.atom_measure(2)
    assert m2.well_defined and m2.values == (3, 0)
    m3 = an_ato.atom_measure(3)
    assert m3.well_defined and m3.values == (1, 0, 0)


def test_woody_atoms(g_woody, an_woody):
    fam2, fam3 = an_woody.family(2), an_woody.family(3)
    two_sets = {frozenset({"alpha", "zeta"}), frozenset({"beta", "eta"}),
                frozenset({"gamma", "xi"})}
    assert set(_atom_names(g_woody, fam2)) == two_sets
    assert set(_atom_names(g_woody, fam3)) == two_sets
    mid2 = fam2.labeled[fam2.atom_of(g_woody.index("beta"))]
    mid3 = fam3.labeled[fam3.atom_of(g_woody.index("beta"))]
    assert not mid2 and mid3  # unlabeled at k=2, labeled at k=3
    # equality collapse at k = 4
    assert an_woody.family(4).as_sets() == an_woody.family(5).as_sets()


def test_measure_sums_to_phi(an_woody):
    for k in an_woody.feasible_levels():
        m = an_woody.atom_measure(k)
        if m.well_defined:
            assert sum(m.values, Fraction(0)) == an_woody.minimal[k].weight


def test_atoms_partition_and_refine():
    for seed in range(25):
        g = random_graph(seed + 900, n_max=6)
        an = Analysis.compute(g)
        levels = an.feasible_levels()
        for k in levels:
            fam = an.family(k)
            assert sum(len(a) for a in fam.atoms) == g.n
            assert len(fam.labeled) == len(fam.atoms)
            if an.strict(k):
                assert sum(fam.labeled) == k
        for k in levels:
            if k + 1 in levels:
                coarse, fine = an.family(k), an.family(k + 1)
                for a in coarse.atoms:
                    assert algebra_contains(fine, a)


def test_atoms_input_checks(g_ato, an_ato):
    with pytest.raises(Exception):
        atoms(g_ato, 3, an_ato.minimal[2])  # k mismatch
    with pytest.raises(InfeasibleLevel):
        atoms(g_ato, 1, MinForestSet(1, float("inf"), ()))
    fam = an_ato.family(3)
    assert [fam.atom_of(v) for v in range(g_ato.n)] == [
        next(i for i, a in enumerate(fam.atoms) if v in a)
        for v in range(g_ato.n)]
    for v in (g_ato.n, -1):
        with pytest.raises(InputError):
            fam.atom_of(v)


def test_algebra_membership(an_ato, g_ato):
    fam = an_ato.family(3)
    assert algebra_contains(fam, g_ato.vset(["a", "b", "d"]))
    assert not algebra_contains(fam, g_ato.vset(["a", "d"]))
    elements = set(algebra_elements(fam))
    assert len(elements) == 2 ** 3
    assert g_ato.vset(["a", "b", "c", "d"]) in elements


def test_shielded_forest(an_woody, g_woody):
    tilde = an_woody.minimal[2]
    U = g_woody.vset(["beta", "eta"])
    for F in tilde.forests:
        H = find_shielded_forest(tilde, U, F)
        assert not in_neighborhood(H, U)
        assert all(H.out[v] == F.out[v] for v in U)


def test_shielded_forest_counterexample(an_woody, g_woody):
    tilde = an_woody.minimal[2]
    U = g_woody.vset(["alpha", "zeta"])  # reachable via eta->zeta
    # gutted tie set: keep only forests with arcs entering U
    kept = tuple(F for F in tilde.forests if in_neighborhood(F, U))
    assert kept  # sanity: the gutted set is nonempty
    gutted = MinForestSet(2, tilde.weight, kept)
    assert find_shielded_forest(gutted, U, kept[0]) is None
    # so the detach construction has no shield to copy from either
    assert detach_incoming(gutted, kept[0], U) is None


def test_detach_incoming(an_woody, g_woody):
    tilde = an_woody.minimal[2]
    U = g_woody.vset(["beta", "eta"])
    for F in tilde.forests:
        D, G = detach_incoming(tilde, F, U)
        assert not in_neighborhood(G, U)
        assert not D & U
        assert G.weight == tilde.weight and G.k == 2
        assert all(G.out[v] == F.out[v] for v in range(g_woody.n)
                   if v not in D)


def test_component_out_weights_by_t3(g_woody):
    # T3 part 2: every component of F|_U of an unlabeled atom U carries
    # the same out-weight in all minimal forests; {beta, eta} is one at k=2
    report = verify(Analysis.compute(g_woody), upto_k=2, seed=0)
    assert report.statements["T3"].status == VERIFIED
    assert report.statements["T3"].checks > 0


def test_symmetrize(g_ato):
    assert not is_symmetric(g_ato)
    s = symmetrize(g_ato)
    assert is_symmetric(s)
    assert s.arcs[(s.index("a"), s.index("b"))] == 1  # reverse of b->a


def test_undirected_all_atoms_labeled():
    for seed in range(15):
        g = symmetrize(random_graph(seed + 300, n_max=6))
        an = Analysis.compute(g)
        for k in an.feasible_levels():
            frag = undirected_check(g, k, an.minimal[k], an.family(k),
                                    an.strict(k))
            assert frag["ok"], frag
            if an.strict(k):
                assert len(an.family(k)) == k
                assert all(an.family(k).labeled)


def test_restriction_theorem_stops_at_k_minus_2(g_sharp):
    """The paper's second claim on its least witness: at k = 3, T5 and T6
    hold (minimal 3- and 2-forests are trees on every atom), while the
    minimal 1-forest restricts to the atom {c, d} as two components."""
    an = Analysis.compute(g_sharp)
    assert an.strict(3)
    fam = an.family(3)
    assert _atom_names(g_sharp, fam) == [{"a"}, {"b"}, {"c", "d"}]
    for k in (3, 2):
        assert an.minimal[k].forests
        for F in an.minimal[k].forests:
            assert all(restrict(F, atom).is_tree() for atom in fam.atoms)
    (F1,) = an.minimal[1].forests
    assert sorted(F1.arc_names()) == [("b", "d"), ("c", "b"), ("d", "a")]
    c, d = g_sharp.index("c"), g_sharp.index("d")
    assert restrict(F1, frozenset({c, d})).component_sets() == (
        frozenset({c}), frozenset({d}))
    report = verify(an)
    assert report.counterexamples == []
    assert report.statements["T5"].status == VERIFIED
    assert report.statements["T6"].status == VERIFIED
