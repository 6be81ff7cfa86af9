"""The statement battery: clean graphs verify, corrupted oracles fail."""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from forest_atoms import (Analysis, Digraph, Forest, InputError, MinForestSet,
                          corrupted_verify, enumerate_forests, in_neighborhood,
                          subtree, upsilon, verify)
from forest_atoms import verification
from forest_atoms.campaign import (CAMPAIGN_BUDGETS, EnsembleSpec,
                                   random_digraph, trial_seed)
from forest_atoms.io import dump_document, graph_from_json
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
    report = verify(Analysis.compute(g_ato), seed=3)
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
    report = verify(Analysis.compute(g_woody), seed=3)
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
    report = verify(Analysis.compute(g), seed=seed)
    assert report.ok, report.counterexamples


def test_verify_deterministic(g_woody):
    a = verify(Analysis.compute(g_woody), seed=11).to_dict()
    b = verify(Analysis.compute(g_woody), seed=11).to_dict()
    assert a == b


def test_upto_k_limits_levels(g_ato):
    report = verify(Analysis.compute(g_ato), upto_k=1, seed=0)
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


def test_integer_arcs_built_once_per_graph(monkeypatch):
    """The tie-set search, the battery and the self-test share one
    integer-scaled copy of the graph's out-lists."""
    view = Digraph.__dict__["_integer_arcs"]
    build, calls = view.fn, []
    monkeypatch.setattr(view, "fn", lambda g: calls.append(g) or build(g))
    g = Digraph.from_arcs(WOODY_ARCS)
    an = Analysis.compute(g)
    scale, arcs = g._integer_arcs
    battery = verification._Battery(an, random.Random(0), max_pool=10,
                                    max_subsets=24, enum_budget=60000)
    assert battery.arcs is arcs and battery.scale == scale == 1
    assert verify(an).ok and not corrupted_verify(g, level=2).ok
    assert calls == [g]


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
    report = verify(Analysis.compute(g_woody), seed=0)
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
    report = verify(Analysis.compute(g_woody), seed=0)
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
    report = verify(Analysis.compute(g_woody), seed=0)
    assert report.statements["L7"].status == COUNTEREXAMPLE


def test_report_serialization(g_ato):
    doc = verify(Analysis.compute(g_ato), seed=0).to_dict()
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
CORRUPTED_DIGEST = "6723d81d9b74df0b18d910529e9c535b4e93844cf1948edb3bf198908d641120"
# the same reports with the P9 and T4 witnesses left out; computed while
# those two statements still wrote vertex indices through an exception,
# so it pins every other byte to that earlier battery
CORRUPTED_OTHER_DIGEST = "2f7091e7bf90a59a2d9bd9863e35290bb8799e0502ac26c560573b8e702334de"


def _acceptance_graphs(count: int, n_max: int):
    """(trial seed, graph) of the first trials of the seed-42 ensemble."""
    spec = EnsembleSpec(trials=count, seed=42, n_max=n_max)
    for i in range(count):
        ts = trial_seed(42, i)
        yield ts, random_digraph(random.Random(ts), spec)


def _digest(docs) -> str:
    h = hashlib.sha256()
    for doc in docs:
        h.update(dump_document(doc).encode())
    return h.hexdigest()


def test_verify_documents_pinned(g_ato, g_woody):
    reports = [verify(Analysis.compute(g), seed=0) for g in (g_ato, g_woody)]
    reports += [verify(Analysis.compute(g), seed=ts, **CAMPAIGN_BUDGETS)
                for ts, g in _acceptance_graphs(40, 7)]
    assert _digest(r.to_dict() for r in reports) == VERIFY_DIGEST


@pytest.fixture(scope="module")
def corrupted_reports(g_ato, g_woody):
    """corrupted_verify at every level that has a non-minimal forest."""
    reports = []
    for g in [g_ato, g_woody] + [g for _, g in _acceptance_graphs(20, 6)]:
        for level in Analysis.compute(g).feasible_levels():
            try:
                reports.append(corrupted_verify(g, level))
            except InputError:
                continue
    return reports


def test_corrupted_reports_pinned(corrupted_reports):
    failing = set().union(*(r.counterexamples for r in corrupted_reports))
    assert len(failing) == 21
    docs = [r.to_dict() for r in corrupted_reports]
    assert _digest(docs) == CORRUPTED_DIGEST
    for doc in docs:
        for stmt in ("P9", "T4"):
            doc["statements"][stmt].pop("witness", None)
    assert _digest(docs) == CORRUPTED_OTHER_DIGEST


def test_corrupted_p9_t4_witnesses_replay(corrupted_reports):
    """P9 and T4 witnesses name their vertices and rebuild from the
    witness alone."""
    seen = {"P9": 0, "T4": 0}
    for report in corrupted_reports:
        for stmt, keys in (("P9", {"k", "atom", "F"}),
                           ("T4", {"k", "atom", "F", "D"})):
            witness = report.statements[stmt].witness
            if witness is None:
                continue
            seen[stmt] += 1
            assert set(witness) == keys | {"statement", "graph"}
            g = graph_from_json(witness["graph"])
            atom = g.vset(witness["atom"])
            F = Forest.from_names(g, dict(witness["F"]))
            assert F.k == witness["k"]
            if stmt == "T4":
                D = frozenset().union(*(subtree(F, b)
                                        for b in in_neighborhood(F, atom)))
                assert g.vset(witness["D"]) == D
    assert seen == {"P9": 17, "T4": 24}


def test_unit_weight_theorem():
    # unit weights, no spanning tree: two separate 2-cycles
    g = Digraph.from_arcs([("a", "b", 1), ("b", "a", 1),
                           ("c", "d", 1), ("d", "c", 1)])
    report = verify(Analysis.compute(g), seed=0)
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
    scale, arcs = g._integer_arcs
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
        report = verify(an, seed=0)
        p14 = report.statements["P14"]
        assert p14.status == COUNTEREXAMPLE, (g.arcs, k, sorted(atom))
        witness = p14.witness
        assert witness["k"] == k
        F = Forest.from_names(g, dict(witness["forest"]))
        assert {g.index(v) for v in witness["atom"]} == atom
        assert upsilon(F, atom) == upsilon(an.minimal[k].forests[0], atom)
