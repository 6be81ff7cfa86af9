"""Spans around the public functions of forest_atoms, recorded from outside.

``Tracer.install()`` replaces each traced function at every module
attribute of the package that holds it, which is where its callers look it
up (``from .graph import is_forest`` binds a second attribute, and inline
``from .enumeration import count_forests`` reads the first one at call
time).  Each call becomes a span: name, start, end, parent span and graph
id, kept in memory and summarized or written out after the run.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array

#: (module, function) pairs traced; the span name is "<module>.<function>".
TRACED = (
    ("enumeration", "all_minimal_forests"),
    ("enumeration", "count_forests"),
    ("enumeration", "enumerate_forests"),
    ("atoms", "atoms"),
    ("atoms", "measure"),
    ("io", "parse_edge_list"),
    ("io", "analysis_document"),
    ("io", "dump_document"),
    ("verification", "verify"),
    ("graph", "is_forest"),
    ("hierarchy", "build_hierarchy"),
    ("campaign", "run_trial"),
    ("campaign", "random_digraph"),
    ("cli", "main"),
)
COMPUTE = "analysis.compute"
NAMES = tuple(f"{m}.{f}" for m, f in TRACED) + (COMPUTE,)


def _tie_forests(args, kwargs, result):
    return {"tie_forests": sum(len(s.forests) for s in result.values())}


def _atoms_input(args, kwargs, result):
    tilde = args[2] if len(args) > 2 else kwargs["tilde"]
    return {"atoms_forests": len(tilde.forests)}


def _outcomes(args, kwargs, result):
    outcomes = result.statements.values()
    return {"checks": sum(o.checks for o in outcomes),
            "not_applicable": sum(1 for o in outcomes
                                  if o.status == "not-applicable"),
            "outcomes": len(outcomes)}


#: Counts taken at a span's boundary from its arguments and result.
COUNTS = {
    "enumeration.all_minimal_forests": _tie_forests,
    "atoms.atoms": _atoms_input,
    "io.dump_document": lambda args, kwargs, result: {"doc_bytes": len(result)},
    "verification.verify": _outcomes,
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.name = array("b")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.graph_of = array("l")
        self.counts: dict[str, int] = {}
        self.searched: list = []    # graphs handed to the forest search
        self.graph = -1
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        code = NAMES.index(name)
        count = COUNTS.get(name)
        keep_graph = name == "enumeration.all_minimal_forests"
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            span = len(self.start)
            self.name.append(code)
            self.parent.append(stack[-1])
            self.graph_of.append(self.graph)
            self.end.append(0.0)
            stack.append(span)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[span] = clock()
                stack.pop()
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    self.counts[key] = self.counts.get(key, 0) + value
            if keep_graph:
                self.searched.append(args[0] if args else kwargs["graph"])
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced function wherever the package binds it."""
        owners = {m: importlib.import_module(f"forest_atoms.{m}")
                  for m, _ in TRACED}
        modules = [m for key, m in list(sys.modules.items())
                   if key == "forest_atoms" or key.startswith("forest_atoms.")]
        for module_name, func in TRACED:
            original = getattr(owners[module_name], func)
            wrapper = self._wrap(f"{module_name}.{func}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, attr, original))
                        setattr(module, attr, wrapper)
        analysis_cls = sys.modules["forest_atoms.analysis"].Analysis
        compute = analysis_cls.__dict__["compute"]
        self._undo.append((analysis_cls, "compute", compute))
        analysis_cls.compute = classmethod(self._wrap(COMPUTE, compute.__func__))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def spans(self) -> dict:
        """Columns of all recorded spans, JSON-ready."""
        return {"names": list(NAMES), "name": self.name.tolist(),
                "start": self.start.tolist(), "end": self.end.tolist(),
                "parent": self.parent.tolist(),
                "graph": self.graph_of.tolist()}

    def summary(self) -> dict:
        """Calls and self time per span name, plus the boundary counts.

        Self time is a span's duration minus the time its direct child
        spans cover (calls are nested, so children never overlap).
        """
        summary = self_times(self.spans())
        summary["counts"] = dict(self.counts)
        summary["searched"] = [(g.n, sorted(g.arcs)) for g in self.searched]
        return summary


def self_times(spans: dict) -> dict:
    names = spans["names"]
    dur = [e - s for s, e in zip(spans["start"], spans["end"])]
    own = dur[:]
    for span, parent in enumerate(spans["parent"]):
        if parent >= 0:
            own[parent] -= dur[span]
    calls = dict.fromkeys(names, 0)
    self_s = dict.fromkeys(names, 0.0)
    for span, code in enumerate(spans["name"]):
        calls[names[code]] += 1
        self_s[names[code]] += own[span]
    return {"calls": calls, "self_s": self_s}


def write_spans(tracer: Tracer, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans(), fh, separators=(",", ":"))
