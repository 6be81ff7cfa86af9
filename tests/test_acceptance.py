"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Criteria 4-6 and 8 share one 500-trial random campaign (seed 42, N <= 7,
integer weights 1..5, random density); criterion 8 re-runs it with a
different worker count and demands byte-identical output.
"""

import hashlib
import json
import time
from fractions import Fraction

import pytest

from forest_atoms import Analysis, Digraph, symmetrize, verify
from forest_atoms.atoms import undirected_check
from forest_atoms.campaign import (EnsembleSpec, campaign_text, random_digraph,
                                   run_campaign)
from forest_atoms.cli import main
from forest_atoms.graph import INF, restrict
import random

from tests.conftest import ATO_ARCS, WOODY_ARCS

MAIN_SPEC = EnsembleSpec(trials=500, seed=42, n_max=7, wmin=1, wmax=5)
# sha256 of the MAIN_SPEC campaign document: pins the battery's RNG draw
# order, every status and every checks count
MAIN_DIGEST = "2124fe47afd941c768bedf56ee9487a8a6850df7afd600120971776ee42d6c4d"


def _report(num: int, desc: str, ok: bool) -> None:
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def _no_counterexamples(doc: dict, statements) -> bool:
    return all(entry["statements"][s] != "counterexample"
               for entry in doc["results"] for s in statements)


def _exercised(doc: dict, stmt: str) -> int:
    return sum(1 for entry in doc["results"]
               if entry["statements"][stmt] == "verified")


@pytest.fixture(scope="module")
def main_campaign():
    t0 = time.time()
    text = campaign_text(MAIN_SPEC, workers=4)
    elapsed = time.time() - t0
    return json.loads(text), text, elapsed


def test_criterion_1_golden_example(capsys):
    t0 = time.time()
    g = Digraph.from_arcs(ATO_ARCS)
    an = Analysis.compute(g)
    ok = an.phi.values == (INF, 7, 3, 1, 0)
    ok = ok and an.profile == ("strict", "strict", "strict")
    expected_arcs = {
        1: {("a", "c"), ("b", "d"), ("c", "b")},
        2: {("a", "c"), ("b", "a")},
        3: {("b", "a")},
        4: set(),
    }
    for k, arcset in expected_arcs.items():
        tilde = an.minimal[k]
        ok = ok and len(tilde.forests) == 1
        ok = ok and set(tilde.forests[0].arc_names()) == arcset
    names = lambda fam: {frozenset(g.names[v] for v in a) for a in fam.atoms}
    ok = ok and names(an.family(2)) == {frozenset("abc"), frozenset("d")}
    ok = ok and names(an.family(3)) == {frozenset("ab"), frozenset("c"),
                                        frozenset("d")}
    ok = ok and all(an.strict(k) for k in range(1, 4))
    elapsed = time.time() - t0
    ok = ok and elapsed < 1.0
    with capsys.disabled():
        _report(1, f"golden 4-vertex example, exact, {elapsed:.3f}s", ok)


def test_criterion_2_restriction_boundary(capsys):
    g = Digraph.from_arcs(ATO_ARCS)
    an = Analysis.compute(g)
    ab = g.vset(["a", "b"])
    f1 = an.minimal[1].forests[0]   # the unique minimal spanning tree
    f2 = an.minimal[2].forests[0]
    r1, r2 = restrict(f1, ab), restrict(f2, ab)
    ok = (not r1.is_tree() and len(r1.component_sets()) == 2
          and r2.is_tree())
    with capsys.disabled():
        _report(2, "minimal 1-forest disconnects on atom {a,b}, "
                   "2-forest restricts to a tree", ok)


def test_criterion_3_woody_example(capsys):
    g = Digraph.from_arcs(WOODY_ARCS)
    an = Analysis.compute(g)
    ok = an.phi.values[1] == INF
    fam2, fam3 = an.family(2), an.family(3)
    names = lambda fam: {frozenset(g.names[v] for v in a) for a in fam.atoms}
    two_sets = {frozenset({"alpha", "zeta"}), frozenset({"beta", "eta"}),
                frozenset({"gamma", "xi"})}
    ok = ok and names(fam2) == two_sets and names(fam3) == two_sets
    mid = g.index("beta")
    ok = ok and not fam2.labeled[fam2.atom_of(mid)]
    ok = ok and fam3.labeled[fam3.atom_of(mid)]
    with capsys.disabled():
        _report(3, "6-vertex example: phi^1 = inf, three 2-element atoms, "
                   "middle atom unlabeled at k=2 / labeled at k=3", ok)


def test_criterion_4_restriction_campaign(main_campaign, capsys):
    doc, _, elapsed = main_campaign
    ok = (len(doc["results"]) == 500
          and _no_counterexamples(doc, ["T5"])
          and _exercised(doc, "T5") > 400
          and elapsed <= 300.0)
    with capsys.disabled():
        _report(4, f"500-trial campaign: every minimal-forest restriction "
                   f"to an atom is a tree ({elapsed:.1f}s)", ok)


def test_criterion_5_previous_level_campaign(main_campaign, capsys):
    doc, _, _ = main_campaign
    ok = _no_counterexamples(doc, ["T6"]) and _exercised(doc, "T6") > 300
    with capsys.disabled():
        _report(5, "same ensemble: (k-1)-level forests restrict to trees "
                   "on level-k atoms", ok)


def test_criterion_6_structural_suite(main_campaign, capsys):
    doc, _, _ = main_campaign
    suite = ["P4", "P5", "P7", "P8", "P10", "P11", "P6",
             "L3", "Cor1", "T2", "L4",
             "L1", "P1", "P12", "P13", "P14", "Prop2",
             "C1", "C2", "C3", "C4", "L5", "L6", "L7"]
    ok = _no_counterexamples(doc, suite)
    # the bulk of the suite must actually fire; conditional statements
    # (equality collapse, multi-unlabeled-atom lemmas) fire more rarely
    always_on = ["P4", "P7", "P8", "P10", "P11", "P6", "L1", "P1",
                 "P12", "P13", "P14", "Prop2",
                 "C1", "C2", "C3", "C4", "L5", "L6", "L7"]
    ok = ok and all(_exercised(doc, s) > 100 for s in always_on)
    ok = ok and all(_exercised(doc, s) > 0 for s in suite)
    with capsys.disabled():
        _report(6, "structural property suite over the ensemble "
                   f"({len(suite)} statements), zero counterexamples", ok)


def test_criterion_7_specializations(capsys):
    unit = run_campaign(EnsembleSpec(trials=120, seed=7, n_max=6, unit=True),
                        workers=4)
    ok = unit["ok"] and _exercised(unit, "T7") > 0
    sym = run_campaign(EnsembleSpec(trials=120, seed=9, n_max=6,
                                    symmetric=True), workers=4)
    ok = ok and sym["ok"]
    # undirected specialization: at strict levels every atom is labeled
    # and there are exactly k of them
    rng = random.Random(123)
    spec = EnsembleSpec(trials=0, seed=0, n_max=6, symmetric=True)
    for _ in range(40):
        g = random_digraph(rng, spec)
        an = Analysis.compute(g)
        for k in an.feasible_levels():
            frag = undirected_check(g, k, an.minimal[k], an.family(k),
                                    an.strict(k))
            ok = ok and frag["ok"]
    with capsys.disabled():
        _report(7, "unit-weight ensemble exercises the unweighted theorem; "
                   "symmetric ensembles have k labeled atoms at strict "
                   "levels", ok)


def test_criterion_8_determinism(main_campaign, capsys):
    _, text_w4, _ = main_campaign
    text_w2 = campaign_text(MAIN_SPEC, workers=2)
    ok = text_w2 == text_w4
    with capsys.disabled():
        _report(8, "same seed, worker count varied: byte-identical "
                   "campaign documents", ok)


def test_campaign_document_pinned(main_campaign):
    _, text, _ = main_campaign
    assert hashlib.sha256(text.encode()).hexdigest() == MAIN_DIGEST
