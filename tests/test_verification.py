"""The statement battery: clean graphs verify, corrupted oracles fail."""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from forest_atoms import (Analysis, Digraph, Forest, InputError, MinForestSet,
                          corrupted_verify, enumerate_forests, upsilon, verify)
from forest_atoms import verification
from forest_atoms.campaign import (CAMPAIGN_BUDGETS, EnsembleSpec,
                                   random_digraph, trial_seed)
from forest_atoms.enumeration import _integer_arcs
from forest_atoms.io import dump_document
from forest_atoms.verification import (COUNTEREXAMPLE, NOT_APPLICABLE,
                                       STATEMENTS, VERIFIED, _atom_assignments)
from tests.conftest import ATO_ARCS, WOODY_ARCS, random_graph, signed_graphs


def test_statement_registry_complete():
    ids = set(STATEMENTS)
    assert {"L%d" % i for i in range(1, 8)} <= ids
    assert {"P%d" % i for i in range(1, 18)} <= ids
    assert {"T%d" % i for i in range(1, 8)} <= ids
    assert {"C%d" % i for i in range(1, 5)} <= ids
    assert {"Cor1", "Prop1", "Prop2", "T5prime", "ENUM"} <= ids
    assert len(STATEMENTS) == len(ids)


def test_golden_example_verifies(g_ato):
    report = verify(g_ato, seed=3)
    assert report.ok
    for stmt, o in report.statements.items():
        assert o.status in (VERIFIED, NOT_APPLICABLE)
        if o.status == VERIFIED:
            assert o.checks > 0
    # the core machinery is always exercised
    for stmt in ["C1", "C2", "C3", "C4", "L1", "L5", "L6", "L7",
                 "P1", "T5", "ENUM"]:
        assert report.statements[stmt].status == VERIFIED, stmt


def test_woody_example_verifies(g_woody):
    report = verify(g_woody, seed=3)
    assert report.ok
    # the equality level makes the collapse statements applicable
    for stmt in ["P5", "Prop1", "T1", "T6"]:
        assert report.statements[stmt].status == VERIFIED, stmt
    # unlabeled atom at k=2 exercises the arc-structure statements
    for stmt in ["L3", "Cor1", "T3"]:
        assert report.statements[stmt].status == VERIFIED, stmt


@pytest.mark.parametrize("seed", range(12))
def test_random_graphs_verify(seed):
    g = random_graph(seed + 40, n_max=6)
    report = verify(g, seed=seed)
    assert report.ok, report.counterexamples


def test_verify_deterministic(g_woody):
    a = verify(g_woody, seed=11).to_dict()
    b = verify(g_woody, seed=11).to_dict()
    assert a == b


def test_upto_k_limits_levels(g_ato):
    report = verify(g_ato, upto_k=1, seed=0)
    assert report.ok
    # with only k=1 in scope there is a single atom, so pairwise atom
    # statements never fire
    assert report.statements["P3"].status == NOT_APPLICABLE


def test_corrupted_oracle_detected(g_ato):
    report = corrupted_verify(g_ato, level=2)
    assert not report.ok
    bad = report.counterexamples
    assert "P10" in bad  # measure cannot be forest-independent
    witness = report.statements[bad[0]].witness
    assert witness["graph"]["vertices"] == list(g_ato.names)
    assert witness["statement"] == bad[0]


def test_corrupted_oracle_every_level(g_woody):
    for level in [2, 3, 5]:
        report = corrupted_verify(g_woody, level=level)
        assert not report.ok, f"corruption at k={level} went undetected"
        # the product oracle sees the intruder in the tie set directly
        assert report.statements["ENUM"].status == COUNTEREXAMPLE


# -- L6/L7 against a wrong quotient ----------------------------------------

def test_wrong_quotient_caught_by_l6(g_woody, monkeypatch):
    quotient = verification.quotient

    def misdirected(F, P):
        # send the first non-root block to a root block it does not enter
        qout = quotient(F, P)
        roots = [b for b in sorted(qout) if qout[b] is None]
        for a in sorted(qout):
            wrong = [r for r in roots if qout[a] not in (None, r)]
            if wrong:
                qout[a] = wrong[0]
                break
        return qout

    monkeypatch.setattr(verification, "quotient", misdirected)
    report = verify(g_woody, seed=0)
    assert report.statements["L6"].status == COUNTEREXAMPLE


def test_reaching_block_caught_by_l7(g_woody, monkeypatch):
    non_reaching = verification.quotient_non_reaching

    def reaching(qout, B):
        # a block of B that reaches another one, when there is such
        for b in sorted(B):
            if any(verification.quotient_reaches(qout, b, o)
                   for o in B if o != b):
                return b
        return non_reaching(qout, B)

    monkeypatch.setattr(verification, "quotient_non_reaching", reaching)
    report = verify(g_woody, seed=0)
    assert report.statements["L7"].status == COUNTEREXAMPLE
    assert report.statements["L6"].status == VERIFIED


def test_cut_quotient_caught_by_l7(g_woody, monkeypatch):
    quotient = verification.quotient

    def cut(F, P):
        # a non-root block without its quotient arc reaches nothing there,
        # so the search may return it while it reaches its target in F
        qout = quotient(F, P)
        for a in sorted(qout):
            if qout[a] is not None:
                qout[a] = None
                break
        return qout

    monkeypatch.setattr(verification, "quotient", cut)
    report = verify(g_woody, seed=0)
    assert report.statements["L7"].status == COUNTEREXAMPLE


def test_report_serialization(g_ato):
    doc = verify(g_ato, seed=0).to_dict()
    assert doc["ok"] is True
    assert set(doc["statements"]) == set(STATEMENTS)
    for entry in doc["statements"].values():
        assert entry["status"] in (VERIFIED, NOT_APPLICABLE, COUNTEREXAMPLE)
        assert isinstance(entry["checks"], int)


# -- byte pins on whole reports -------------------------------------------

# sha256 over the dumped reports of test_verify_documents_pinned: every
# status, checks count and therefore the battery's RNG draw order
VERIFY_DIGEST = "25691351091612fdb8ea08a507fefc507442eee8a42bbe7eddbcad02f2b884e1"
# sha256 over the dumped reports of test_corrupted_reports_pinned, in
# which 21 statements fail: the bytes of their witnesses
CORRUPTED_DIGEST = "3c4356514ecebc4b87a77f202af6137ebc50c97f160314c16e5f5646eeb223cf"


def _acceptance_graphs(count: int, n_max: int):
    """(trial seed, graph) of the first trials of the seed-42 ensemble."""
    spec = EnsembleSpec(trials=count, seed=42, n_max=n_max)
    for i in range(count):
        ts = trial_seed(42, i)
        yield ts, random_digraph(random.Random(ts), spec)


def _digest(reports) -> str:
    h = hashlib.sha256()
    for report in reports:
        h.update(dump_document(report.to_dict()).encode())
    return h.hexdigest()


def test_verify_documents_pinned(g_ato, g_woody):
    reports = [verify(g, seed=0) for g in (g_ato, g_woody)]
    reports += [verify(g, seed=ts, **CAMPAIGN_BUDGETS)
                for ts, g in _acceptance_graphs(40, 7)]
    assert _digest(reports) == VERIFY_DIGEST


def _corrupted_reports(graphs):
    """corrupted_verify at every level that has a non-minimal forest."""
    for g in graphs:
        for level in Analysis.compute(g).feasible_levels():
            try:
                yield corrupted_verify(g, level)
            except InputError:
                continue


def test_corrupted_reports_pinned(g_ato, g_woody):
    graphs = [g_ato, g_woody] + [g for _, g in _acceptance_graphs(20, 6)]
    reports = list(_corrupted_reports(graphs))
    failing = set().union(*(r.counterexamples for r in reports))
    assert len(failing) == 21
    assert _digest(reports) == CORRUPTED_DIGEST


def test_unit_weight_theorem():
    # unit weights, no spanning tree: two separate 2-cycles
    g = Digraph.from_arcs([("a", "b", 1), ("b", "a", 1),
                           ("c", "d", 1), ("d", "c", 1)])
    report = verify(g, seed=0)
    assert report.ok
    assert report.statements["T7"].status == VERIFIED


@pytest.mark.parametrize("arcs", [
    [("a", "b", 1), ("b", "a", 1), ("c", "d", 1), ("d", "c", 1)],
    [(a, b, 1) for a, b, _ in ATO_ARCS],
    [(a, b, 1) for a, b, _ in WOODY_ARCS],
])
def test_unit_weight_tie_set_holds_every_forest(arcs):
    # T7 walks the tie set: on unit weights every k-forest weighs N - k
    g = Digraph.from_arcs(arcs)
    an = Analysis.compute(g)
    for k in an.feasible_levels():
        assert an.minimal[k].forests == tuple(enumerate_forests(g, k))


# -- P14: the per-atom search ------------------------------------------

def _heads(F, order):
    return tuple(F.out[v] for v in order)


@settings(max_examples=120, deadline=None)
@given(signed_graphs())
def test_atom_search_matches_brute_force(g):
    """At every strict level, the least out-weight of an atom over all
    forests with the required out-degree is rho, the forests meeting it
    restrict to the realized patterns, and the search reaches exactly
    the restrictions at or below any limit."""
    an = Analysis.compute(g)
    scale, arcs = _integer_arcs(g)
    forests = list(enumerate_forests(g))
    for k in an.feasible_levels():
        if not an.strict(k):
            continue
        tilde = an.minimal[k]
        fam = an.family(k)
        for atom, lab in zip(fam.atoms, fam.labeled):
            order = sorted(atom)
            rho = upsilon(tilde.forests[0], atom) * scale
            need = len(atom) - 1 if lab else len(atom)
            brute = {}
            for F in forests:
                if sum(1 for v in atom if F.out[v] is not None) == need:
                    brute[_heads(F, order)] = upsilon(F, atom) * scale
            assert min(brute.values()) == rho
            tight = {h for h, w in brute.items() if w == rho}
            if lab:
                # labeled atoms are judged on their inside arcs only
                inside = lambda hs: frozenset(
                    (v, t) for v, t in zip(order, hs) if t in atom)
                assert ({inside(h) for h in tight}
                        == {inside(_heads(H, order)) for H in tilde.forests})
            else:
                assert tight == {_heads(H, order) for H in tilde.forests}
            for limit in {int(rho), int(max(brute.values()))}:
                found = _atom_assignments(arcs, atom, lab, limit)
                assert len(found) == len({h for _, h in found})
                assert ({h: w for w, h in found}
                        == {h: w for h, w in brute.items() if w <= limit})


def _dropped_pattern_cases():
    """(graph, analysis, k, atom) with one realized pattern of the atom
    dropped from the level-k tie set, the atoms kept as they were."""
    for seed in range(60):
        g = random_graph(seed + 500, n_max=5, wmax=2)
        an = Analysis.compute(g)
        for k in an.feasible_levels():
            if not an.strict(k):
                continue
            tilde = an.minimal[k]
            for atom in an.family(k).atoms:
                order = sorted(atom)
                dropped = _heads(tilde.forests[0], order)
                kept = tuple(F for F in tilde.forests
                             if _heads(F, order) != dropped)
                if kept:
                    for level in an.feasible_levels():
                        an.family(level)
                    an.minimal[k] = MinForestSet(k, tilde.weight, kept)
                    yield g, an, k, atom
                    break
            else:
                continue
            break


def test_dropped_pattern_caught_by_p14():
    cases = list(_dropped_pattern_cases())
    assert len(cases) >= 5
    # both kinds of atom are among them
    assert {an.family(k).labeled[an.family(k).atoms.index(atom)]
            for _, an, k, atom in cases} == {True, False}
    for g, an, k, atom in cases:
        report = verify(g, seed=0, _analysis=an)
        p14 = report.statements["P14"]
        assert p14.status == COUNTEREXAMPLE, (g.arcs, k, sorted(atom))
        witness = p14.witness
        assert witness["k"] == k
        F = Forest.from_names(g, dict(witness["forest"]))
        assert {g.index(v) for v in witness["atom"]} == atom
        assert upsilon(F, atom) == upsilon(an.minimal[k].forests[0], atom)
