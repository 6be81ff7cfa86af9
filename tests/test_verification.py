"""The statement battery: clean graphs verify, corrupted oracles fail."""

import pytest

from forest_atoms import Digraph, corrupted_verify, verify
from forest_atoms.verification import (COUNTEREXAMPLE, NOT_APPLICABLE,
                                       STATEMENTS, VERIFIED)
from tests.conftest import random_graph


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


def test_report_serialization(g_ato):
    doc = verify(g_ato, seed=0).to_dict()
    assert doc["ok"] is True
    assert set(doc["statements"]) == set(STATEMENTS)
    for entry in doc["statements"].values():
        assert entry["status"] in (VERIFIED, NOT_APPLICABLE, COUNTEREXAMPLE)
        assert isinstance(entry["checks"], int)


def test_unit_weight_theorem():
    # unit weights, no spanning tree: two separate 2-cycles
    g = Digraph.from_arcs([("a", "b", 1), ("b", "a", 1),
                           ("c", "d", 1), ("d", "c", 1)])
    report = verify(g, seed=0)
    assert report.ok
    assert report.statements["T7"].status == VERIFIED
