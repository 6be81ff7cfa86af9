"""The pipeline's records: immutable, compared by value or by identity,
with a field repr and views cached on first use."""

from fractions import Fraction

import pytest

from forest_atoms import (Analysis, AtomFamily, AtomMeasure, Digraph, Forest,
                          HierarchyLevel, MinForestSet, PhiSequence,
                          TreePartition, atoms, build_hierarchy, measure,
                          restrict, tree_partition)
from forest_atoms.graph import Subgraph
from forest_atoms.verification import Outcome, VerificationReport
from tests.conftest import ATO_ARCS


@pytest.fixture
def records(g_ato, an_ato):
    F = an_ato.minimal[2].forests[0]
    fam = an_ato.family(2)
    return {
        "names": g_ato, "out": F, "vertices": restrict(F, fam.atoms[0]),
        "blocks": tree_partition(F, F.roots), "forests": an_ato.minimal[2],
        "values": an_ato.phi, "labeled": fam,
        "well_defined": an_ato.atom_measure(2),
        "aggregation": build_hierarchy(an_ato)[0],
        "statements": VerificationReport(g_ato, {"T5": Outcome()}),
    }


def test_fields_cannot_be_assigned_or_deleted(records):
    for field, record in records.items():
        before = getattr(record, field)
        with pytest.raises(AttributeError, match="read-only"):
            setattr(record, field, None)
        with pytest.raises(AttributeError, match="read-only"):
            delattr(record, field)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert getattr(record, field) is before


def test_value_records_compare_and_hash_by_fields(g_ato, an_ato):
    tilde = an_ato.minimal[2]
    fam = an_ato.family(2)
    copies = [
        (tilde, MinForestSet(2, Fraction(3), tuple(tilde.forests))),
        (an_ato.phi, PhiSequence(tuple(an_ato.phi.values))),
        (an_ato.atom_measure(2), measure(g_ato, 2, tilde, fam)),
    ]
    for record, copy in copies:
        assert record is not copy
        assert record == copy and not record != copy
        assert hash(record) == hash(copy)
        assert {record: 1}[copy] == 1
    rho = an_ato.atom_measure(2)
    assert tilde != MinForestSet(2, Fraction(4), tilde.forests)
    assert an_ato.phi != PhiSequence(an_ato.phi.values[:1] + (Fraction(0),) * 4)
    assert rho != AtomMeasure(2, rho.values, False, rho.per_forest)
    assert tilde != an_ato.minimal[3] and tilde != an_ato.phi


def test_identity_records_equal_only_themselves(g_ato, an_ato):
    F = an_ato.minimal[2].forests[0]
    fam = an_ato.family(2)
    level = build_hierarchy(an_ato)[0]
    P = tree_partition(F, F.roots)
    pairs = [
        (g_ato, Digraph(g_ato.names, dict(g_ato.arcs))),
        (fam, AtomFamily(fam.k, fam.atoms, fam.labeled)),
        (P, TreePartition(P.forest, P.generators, dict(P.blocks))),
        (level, HierarchyLevel(level.k, level.gap, level.atoms,
                               level.aggregation)),
    ]
    for record, twin in pairs:
        assert record == record and record != twin
        assert len({record, twin}) == 2


def test_repr_shows_class_and_fields(an_ato):
    assert repr(an_ato.phi) == f"PhiSequence(values={an_ato.phi.values!r})"
    assert repr(an_ato.minimal[2]) == (
        "MinForestSet(k=2, weight=Fraction(3, 1), "
        "forests=(Forest(a->c, b->a),))")
    fam = an_ato.family(2)
    assert repr(fam) == (f"AtomFamily(k=2, atoms={fam.atoms!r}, "
                         f"labeled={fam.labeled!r})")
    g = an_ato.graph
    assert repr(g) == f"Digraph(names={g.names!r}, arcs={g.arcs!r})"
    # cached views stay out of the repr
    g.vertex_set
    assert "vertex_set" not in repr(g) and "out_lists" not in repr(g)


def _fills_on_first_use(owner, view):
    assert view not in vars(owner)
    value = getattr(owner, view)
    assert vars(owner)[view] is value is getattr(owner, view)


def test_cached_views_fill_on_first_use():
    g = Digraph.from_arcs(ATO_ARCS)
    _fills_on_first_use(g, "vertex_set")
    F = Forest.from_names(g, {"a": "c", "b": "a"})
    _fills_on_first_use(F, "roots")
    P = tree_partition(F, F.roots)
    _fills_on_first_use(P, "_block_index")
    fam = atoms(g, 2, Analysis.compute(g).minimal[2])
    _fills_on_first_use(fam, "_atom_index")
    assert g.vertex_set == {0, 1, 2, 3} and F.roots == {2, 3}
    assert P.block_of(1) == 2 and fam.atom_of(3) == 1


def test_subgraph_equality_needs_the_same_parent(g_ato):
    twin = Digraph(g_ato.names, dict(g_ato.arcs))
    S = frozenset({0, 2})
    arcs = frozenset({(0, 2)})
    assert Subgraph(g_ato, S, arcs) == Subgraph(g_ato, S, arcs)
    assert hash(Subgraph(g_ato, S, arcs)) == hash(Subgraph(g_ato, S, arcs))
    assert Subgraph(g_ato, S, arcs) != Subgraph(twin, S, arcs)
    assert Subgraph(g_ato, S, arcs) != Subgraph(g_ato, S, frozenset())
