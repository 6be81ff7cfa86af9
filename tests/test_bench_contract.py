"""Names the benchmark under bench/ looks up in the package.

The traced benchmark run wraps each ``TRACED`` function by ``getattr``
and the ``cli`` workload reads ``ATO`` from scripts/reproduce_examples.py,
so renaming or deleting any of them breaks the benchmark, not the suite.
"""

import importlib
import importlib.util
import os
import runpy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_spans():
    spec = importlib.util.spec_from_file_location(
        "bench_spans", os.path.join(ROOT, "bench", "spans.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist():
    spans = _load_spans()
    for module_name, func in spans.TRACED:
        module = importlib.import_module(f"forest_atoms.{module_name}")
        assert callable(getattr(module, func, None)), (module_name, func)
    analysis = importlib.import_module("forest_atoms.analysis")
    assert callable(analysis.Analysis.compute)


def test_reference_graph_script_defines_ato():
    examples = runpy.run_path(
        os.path.join(ROOT, "scripts", "reproduce_examples.py"))
    assert examples["ATO"]
