"""Input/output: edge-list parsing, JSON analysis documents, DOT emission.

File formats:

* Edge list — one arc per line, ``src dst weight``; ``#`` starts a
  comment, blank lines are skipped, a single-token line declares an
  isolated vertex.  Weights are decimals or ``p/q`` fractions.
  Duplicate (src, dst) pairs keep the minimum weight (with a warning).
* AnalysisDocument — schema-versioned JSON with the full analysis:
  graph echo, phi (infinity as the string "inf"), per-level minimal
  forests, atoms with labeled flags, measure, hierarchy and an optional
  verification report.  Deterministic key order; the document alone
  replays every claim through the library.
* DOT — atoms as clusters, one cluster subgraph per atom of a level,
  annotated with the level's gap.
"""

from __future__ import annotations

import json
import warnings
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import Optional

from .analysis import Analysis
from .graph import INF, Digraph, Forest, InputError, Weight
from .hierarchy import HierarchyLevel

SCHEMA_VERSION = 1


class ParseError(InputError):
    """Malformed edge-list input; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def parse_weight(token: str) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"bad weight {token!r}") from None


def parse_edge_list(text: str) -> Digraph:
    """Digraph from edge-list text (see module docstring for the format)."""
    vertices: list[str] = []
    seen: set[str] = set()
    arcs: dict[tuple[str, str], Fraction] = {}

    def declare(v: str) -> None:
        if v not in seen:
            seen.add(v)
            vertices.append(v)

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) == 1:
            declare(tokens[0])
            continue
        if len(tokens) != 3:
            raise ParseError(
                line_no, f"expected 'src dst weight', got {len(tokens)} tokens")
        src, dst, wtok = tokens
        if src == dst:
            raise ParseError(line_no, f"self-loop at {src!r}")
        try:
            w = parse_weight(wtok)
        except InputError as exc:
            raise ParseError(line_no, str(exc)) from None
        declare(src)
        declare(dst)
        key = (src, dst)
        if key in arcs:
            warnings.warn(
                f"line {line_no}: duplicate arc {src}->{dst}, keeping minimum")
            arcs[key] = min(arcs[key], w)
        else:
            arcs[key] = w
    if not vertices:
        raise ParseError(0, "empty graph: no vertices declared")
    names = tuple(sorted(vertices))
    index = {v: i for i, v in enumerate(names)}
    return Digraph(names=names,
                   arcs={(index[a], index[b]): w for (a, b), w in arcs.items()})


def load_graph(path: str) -> Digraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def format_edge_list(graph: Digraph) -> str:
    """Canonical edge-list text (round-trips through parse_edge_list)."""
    lines = [f"{v}" for v in graph.names
             if not any(v in (graph.names[i], graph.names[j])
                        for i, j in graph.arcs)]
    for (i, j), w in sorted(graph.arcs.items()):
        lines.append(f"{graph.names[i]} {graph.names[j]} {w}")
    return "\n".join(lines) + "\n"


# -- weights <-> JSON -------------------------------------------------

def weight_to_json(w: Weight) -> str:
    return "inf" if w == INF else str(w)


def weight_from_json(s: str) -> Weight:
    return INF if s == "inf" else Fraction(s)


def _forest_json(F: Forest) -> list[list[str]]:
    return [[a, b] for a, b in sorted(F.arc_names())]


def graph_json(graph: Digraph) -> dict:
    return {
        "vertices": list(graph.names),
        "arcs": sorted(
            [graph.names[i], graph.names[j], str(w)]
            for (i, j), w in graph.arcs.items()),
    }


def graph_from_json(doc: dict) -> Digraph:
    return Digraph.from_arcs(
        [(a, b, Fraction(w)) for a, b, w in doc["arcs"]],
        vertices=doc["vertices"])


def analysis_document(analysis: Analysis,
                      hierarchy: Optional[list[HierarchyLevel]] = None,
                      report: Optional[dict] = None) -> dict:
    """Full JSON-ready analysis document (schema v1)."""
    graph = analysis.graph
    levels = {}
    for k in analysis.feasible_levels():
        tilde = analysis.minimal[k]
        fam = analysis.family(k)
        meas = analysis.atom_measure(k)
        levels[str(k)] = {
            "phi": weight_to_json(tilde.weight),
            "strict": analysis.strict(k),
            "forests": [_forest_json(F) for F in tilde.forests],
            "atoms": [sorted(graph.names[v] for v in a) for a in fam.atoms],
            "labeled": list(fam.labeled),
            "measure": {
                "well_defined": meas.well_defined,
                "values": [str(x) for x in meas.values],
                "per_forest": [[str(x) for x in row]
                               for row in meas.per_forest],
            },
        }
    doc = {
        "schema_version": SCHEMA_VERSION,
        "graph": graph_json(graph),
        "phi": [weight_to_json(w) for w in analysis.phi.values],
        "profile": list(analysis.profile),
        "levels": levels,
    }
    if hierarchy is not None:
        doc["hierarchy"] = [
            {
                "k": lv.k,
                "gap": weight_to_json(lv.gap),
                "atoms": [sorted(graph.names[v] for v in a)
                          for a in lv.atoms.atoms],
                "labeled": list(lv.atoms.labeled),
                "aggregation": {graph.names[v]: lv.aggregation[v]
                                for v in range(graph.n)},
            }
            for lv in hierarchy
        ]
    if report is not None:
        doc["verification"] = report
    return doc


def dump_document(doc: dict) -> str:
    """Deterministic JSON text, byte for byte ``json.dumps(doc,
    sort_keys=True, indent=2) + "\\n"``, written directly; any value but
    a str-keyed dict, list, tuple, str, int, bool or None raises TypeError."""
    parts: list[str] = []
    _write_json(doc, "", "\n", parts)
    parts.append("\n")
    return "".join(parts)


def _write_json(value, prefix: str, indent: str, parts: list[str]) -> None:
    """Append ``value``, led by ``prefix``, to ``parts``; ``indent`` is
    the newline and indentation of the line that ``value`` starts on."""
    if isinstance(value, str):
        parts.append(prefix + _quote(value))
    elif value is None or value is True or value is False:
        parts.append(prefix + ("null" if value is None else
                               "true" if value else "false"))
    elif isinstance(value, int):
        parts.append(prefix + int.__repr__(value))
    elif isinstance(value, dict):
        inner = indent + "  "
        sep = prefix + "{" + inner
        for key in sorted(value):
            _write_json(value[key], sep + _quote(key) + ": ", inner, parts)
            sep = "," + inner
        parts.append(indent + "}" if value else prefix + "{}")
    elif isinstance(value, (list, tuple)):
        inner = indent + "  "
        sep = prefix + "[" + inner
        for item in value:
            _write_json(item, sep, inner, parts)
            sep = "," + inner
        parts.append(indent + "]" if value else prefix + "[]")
    else:
        raise TypeError(
            f"Object of type {type(value).__name__} is not JSON serializable")


def load_document(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise InputError(
            f"unsupported schema version {doc.get('schema_version')!r}")
    return doc


# -- DOT --------------------------------------------------------------

def _dot_id(name: str) -> str:
    return '"%s"' % name.replace('"', '\\"')


def to_dot(graph: Digraph, family=None, gap: Optional[Weight] = None,
           title: str = "G") -> str:
    """DOT text; with an atom family, atoms become cluster subgraphs."""
    lines = [f"digraph {_dot_id(title)} {{"]
    if gap is not None:
        lines.append(f'  label="gap = {weight_to_json(gap)}";')
    if family is not None:
        for idx, (atom, lab) in enumerate(zip(family.atoms, family.labeled)):
            lines.append(f"  subgraph cluster_{idx} {{")
            mark = "labeled" if lab else "unlabeled"
            lines.append(f'    label="atom {idx} ({mark})";')
            for v in sorted(atom):
                lines.append(f"    {_dot_id(graph.names[v])};")
            lines.append("  }")
    else:
        for v in graph.names:
            lines.append(f"  {_dot_id(v)};")
    for (i, j), w in sorted(graph.arcs.items()):
        lines.append(
            f"  {_dot_id(graph.names[i])} -> {_dot_id(graph.names[j])}"
            f' [label="{w}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def hierarchy_dot(analysis: Analysis, hierarchy: list[HierarchyLevel]) -> str:
    """One DOT digraph per hierarchy level, concatenated."""
    return "".join(
        to_dot(analysis.graph, family=lv.atoms, gap=lv.gap,
               title=f"level_k{lv.k}")
        for lv in hierarchy)
