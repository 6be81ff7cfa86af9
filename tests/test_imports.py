"""Import footprint: the paper's pipeline never loads the statement
battery, the campaign runner or multiprocessing, no CLI run but a
campaign loads dataclasses, and the package still exports every name it
did when it imported them eagerly."""

import importlib
import os
import subprocess
import sys

import forest_atoms
from tests.conftest import ATO_ARCS

#: Every name ``forest_atoms`` exports, by defining submodule.
EXPORTS = {
    "analysis": ("Analysis",),
    "atoms": ("AtomFamily", "AtomMeasure", "algebra_contains",
              "algebra_elements", "atoms", "detach_incoming",
              "find_shielded_forest", "is_symmetric", "measure", "symmetrize",
              "undirected_check"),
    "campaign": ("EnsembleSpec", "random_digraph", "run_campaign"),
    "enumeration": ("DEFAULT_CAP", "EQUAL", "STRICT", "UNDEFINED",
                    "CapExceeded", "InfeasibleLevel", "InvariantError",
                    "MinForestSet", "PhiSequence", "all_minimal_forests",
                    "convexity_profile", "count_forests", "enumerate_forests"),
    "graph": ("INF", "Digraph", "Forest", "InputError", "Subgraph",
              "TreePartition", "components", "find_non_reaching",
              "in_neighborhood", "is_forest", "rewrite_guard",
              "out_neighborhood", "quotient", "quotient_non_reaching",
              "quotient_reaches", "replace_arcs", "restrict", "subtree",
              "tree_partition", "upsilon"),
    "hierarchy": ("HierarchyLevel", "build_hierarchy", "from_rate_exponents"),
    "io": ("ParseError", "analysis_document", "dump_document",
           "load_document", "load_graph", "parse_edge_list", "to_dot"),
    "verification": ("VerificationReport", "corrupted_verify", "verify"),
}

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFERRED = ("multiprocessing", "forest_atoms.campaign",
            "forest_atoms.verification")


def _loaded_after(code: str, modules=DEFERRED) -> list[str]:
    """Which of ``modules`` a fresh interpreter holds after running code."""
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    probe = f"{code}\nimport sys\nprint(*[m for m in {modules!r} if m in sys.modules])"
    res = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    return res.stdout.split()


def test_cli_import_defers_battery_and_campaign():
    assert _loaded_after("import forest_atoms.cli") == []


def test_campaign_import_defers_battery():
    assert _loaded_after("import forest_atoms.campaign") == [
        "forest_atoms.campaign"]


def test_reference_graphs_load_without_battery():
    script = os.path.join(ROOT, "scripts", "reproduce_examples.py")
    assert _loaded_after(f"import runpy; runpy.run_path({script!r})") == []


def _subcommand_runs(tmp_path) -> tuple[str, str]:
    """Code running phi, atoms and hierarchy, and code running verify,
    on the 4-vertex reference graph."""
    path = tmp_path / "ato.edges"
    path.write_text("".join(f"{a} {b} {w}\n" for a, b, w in ATO_ARCS))
    runs = "; ".join(f"main([{cmd!r}, {str(path)!r}, '--json', '--quiet'])"
                     for cmd in ("phi", "atoms", "hierarchy"))
    pipeline = f"import io, contextlib\nfrom forest_atoms.cli import main\n" \
               f"with contextlib.redirect_stdout(io.StringIO()): {runs}"
    verify = f"from forest_atoms.cli import main; main(['verify', {str(path)!r}, '--quiet'])"
    return pipeline, verify


def test_pipeline_subcommands_never_load_battery(tmp_path):
    pipeline, verify = _subcommand_runs(tmp_path)
    assert _loaded_after(pipeline) == []
    # the battery subcommand still loads it, without multiprocessing
    assert _loaded_after(verify) == ["forest_atoms.verification"]


def test_only_campaigns_load_dataclasses(tmp_path):
    pipeline, verify = _subcommand_runs(tmp_path)
    edges = str(tmp_path / "ato.edges")
    doc, witness = str(tmp_path / "doc.json"), str(tmp_path / "w.json")
    replay_and_self_test = (
        "import contextlib\nfrom forest_atoms.cli import main\n"
        f"with open({doc!r}, 'w') as fh, contextlib.redirect_stdout(fh):\n"
        f"    main(['verify', {edges!r}, '--json', '--quiet'])\n"
        f"assert main(['verify', '--replay', {doc!r}, '--quiet']) == 0\n"
        f"assert main(['verify', '--self-test', '--witness', {witness!r},"
        " '--quiet']) == 0")
    for code in ("import forest_atoms.cli", pipeline, verify,
                 replay_and_self_test):
        assert _loaded_after(code, ("dataclasses",)) == [], code
    assert _loaded_after("import forest_atoms.campaign",
                         ("dataclasses",)) == ["dataclasses"]


def test_every_export_resolves_to_its_defining_object():
    for module, names in EXPORTS.items():
        owner = importlib.import_module(f"forest_atoms.{module}")
        for name in names:
            assert getattr(forest_atoms, name) is getattr(owner, name), name


def test_submodule_imports_and_unknown_names():
    from forest_atoms import campaign, verification
    assert campaign is sys.modules["forest_atoms.campaign"]
    assert verification is sys.modules["forest_atoms.verification"]
    assert not hasattr(forest_atoms, "no_such_name")


def test_star_import_exports_every_name():
    namespace: dict = {}
    exec("from forest_atoms import *", namespace)
    for module, names in EXPORTS.items():
        owner = importlib.import_module(f"forest_atoms.{module}")
        for name in names:
            assert namespace[name] is getattr(owner, name), name
