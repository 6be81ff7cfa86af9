"""Edge-list parsing, analysis documents, DOT emission."""

import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forest_atoms import (Analysis, Digraph, ParseError, analysis_document,
                          build_hierarchy, cli, corrupted_verify,
                          dump_document, parse_edge_list, to_dot, verify)
from forest_atoms.io import (format_edge_list, graph_from_json, graph_json,
                             hierarchy_dot, load_document, weight_from_json,
                             weight_to_json)
from forest_atoms.campaign import (EnsembleSpec, random_digraph, run_campaign,
                                   trial_seed)
from forest_atoms.graph import INF, InputError
from tests.conftest import ATO_ARCS, SHARP_EDGES, WOODY_ARCS

# sha256 over the dumped analysis documents, with hierarchy, of ATO, WOODY,
# SHARP_EDGES and the first 60 seed-42 acceptance graphs: pins phi, every
# tie set in canonical order, atoms, labels, the measure with per_forest
# and the hierarchy, byte for byte
ANALYSIS_DIGEST = "8c28dfd7788c8630ac6bab571d7788387f76b13a3c8142a0cb60c8413874223d"


def test_parse_basic():
    g = parse_edge_list("b a 1\na c 2\nb d 2\nc b 3\n")
    assert g.names == ("a", "b", "c", "d")
    assert g.arcs[(g.index("b"), g.index("a"))] == 1


def test_parse_comments_blank_isolated():
    g = parse_edge_list("# header\n\nx y 1/2  # inline\nlonely\n")
    assert set(g.names) == {"x", "y", "lonely"}
    assert g.arcs[(g.index("x"), g.index("y"))] == Fraction(1, 2)


def test_parse_duplicate_keeps_min():
    with pytest.warns(UserWarning, match="duplicate arc"):
        g = parse_edge_list("a b 5\na b 2\n")
    assert g.arcs[(0, 1)] == 2


def test_parse_errors():
    with pytest.raises(ParseError, match="line 2"):
        parse_edge_list("a b 1\na b\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_edge_list("a b 1/0\n")
    with pytest.raises(ParseError, match="self-loop"):
        parse_edge_list("a a 1\n")
    with pytest.raises(ParseError, match="empty"):
        parse_edge_list("# nothing\n")


def test_round_trip():
    text = "a c 2\nb a 1\nb d 2\nc b 3\n"
    g = parse_edge_list(text)
    assert format_edge_list(g) == text
    g2 = parse_edge_list(format_edge_list(g))
    assert g2.names == g.names and g2.arcs == g.arcs


def test_weight_json():
    assert weight_to_json(INF) == "inf"
    assert weight_to_json(Fraction(3, 2)) == "3/2"
    assert weight_from_json("inf") == INF
    assert weight_from_json("3/2") == Fraction(3, 2)


def test_graph_json_round_trip(g_ato):
    g2 = graph_from_json(graph_json(g_ato))
    assert g2.names == g_ato.names and g2.arcs == g_ato.arcs


def test_analysis_document(an_ato):
    doc = analysis_document(an_ato, build_hierarchy(an_ato))
    assert doc["schema_version"] == 1
    assert doc["phi"] == ["inf", "7", "3", "1", "0"]
    assert doc["profile"] == ["strict", "strict", "strict"]
    assert doc["levels"]["2"]["atoms"] == [["a", "b", "c"], ["d"]]
    assert doc["levels"]["2"]["measure"]["values"] == ["3", "0"]
    assert [lv["gap"] for lv in doc["hierarchy"]] == ["inf", "4", "2", "1"]
    # deterministic, valid JSON
    text = dump_document(doc)
    assert text == dump_document(doc)
    assert json.loads(text)["phi"][0] == "inf"


def test_load_document_schema(tmp_path, an_ato):
    path = tmp_path / "doc.json"
    path.write_text(dump_document(analysis_document(an_ato)))
    assert load_document(str(path))["phi"][1] == "7"
    path.write_text('{"schema_version": 99}')
    with pytest.raises(InputError):
        load_document(str(path))


def test_dot_output(g_ato, an_ato):
    fam = an_ato.family(2)
    dot = to_dot(g_ato, family=fam, gap=INF, title="lvl")
    assert "subgraph cluster_0" in dot
    assert '"gap = inf"' in dot
    assert '"b" -> "a" [label="1"];' in dot
    full = hierarchy_dot(an_ato, build_hierarchy(an_ato))
    assert full.count("digraph") == 4


def _pinned_graphs():
    spec = EnsembleSpec(trials=60, seed=42)
    yield Digraph.from_arcs(ATO_ARCS)
    yield Digraph.from_arcs(WOODY_ARCS)
    yield parse_edge_list(SHARP_EDGES)
    for i in range(spec.trials):
        yield random_digraph(random.Random(trial_seed(spec.seed, i)), spec)


def test_analysis_documents_pinned():
    h = hashlib.sha256()
    for g in _pinned_graphs():
        an = Analysis.compute(g)
        h.update(dump_document(
            analysis_document(an, build_hierarchy(an))).encode())
    assert h.hexdigest() == ANALYSIS_DIGEST


def _reference_dump(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_writer_matches_json_dumps_on_documents(an_woody, g_woody, tmp_path):
    documents = [
        analysis_document(an_woody),
        analysis_document(an_woody, build_hierarchy(an_woody),
                          verify(an_woody).to_dict()),
        run_campaign(EnsembleSpec(trials=6, seed=42, n_max=5)),
    ]
    for doc in documents:
        assert dump_document(doc) == _reference_dump(doc)
    report = corrupted_verify(g_woody, 3)
    witnesses = [report.statements[s].witness for s in report.counterexamples]
    assert witnesses
    path = tmp_path / "w.json"
    cli._write_witnesses(str(path), witnesses)
    assert path.read_text() == _reference_dump(
        {"schema_version": 1, "witnesses": witnesses})


json_trees = st.recursive(
    st.none() | st.booleans() | st.text()
    | st.integers(min_value=-2 ** 80, max_value=2 ** 80),
    lambda children: (st.lists(children) | st.lists(children).map(tuple)
                      | st.dictionaries(st.text(), children)),
    max_leaves=30)


@settings(max_examples=200, deadline=None)
@given(json_trees)
def test_writer_matches_json_dumps_on_trees(doc):
    assert dump_document(doc) == _reference_dump(doc)


@pytest.mark.parametrize("bad", [1.5, float("inf"), {1, 2}, frozenset(),
                                 Fraction(1, 2)])
def test_writer_rejects_other_types(bad):
    for doc in (bad, {"x": bad}, {"x": [0, [bad]]}):
        with pytest.raises(TypeError):
            dump_document(doc)
