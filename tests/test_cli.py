"""CLI subcommands, exit codes and emitted artifacts."""

import importlib
import json

import pytest

from forest_atoms.cli import main
from tests.conftest import ATO_ARCS, WOODY_ARCS


@pytest.fixture()
def ato_file(tmp_path):
    path = tmp_path / "ato.edges"
    path.write_text("".join(f"{a} {b} {w}\n" for a, b, w in ATO_ARCS))
    return str(path)


@pytest.fixture()
def woody_file(tmp_path):
    path = tmp_path / "woody.edges"
    path.write_text("".join(f"{a} {b} {w}\n" for a, b, w in WOODY_ARCS))
    return str(path)


def test_phi(ato_file, capsys):
    assert main(["phi", ato_file]) == 0
    out = capsys.readouterr().out
    assert "phi: inf 7 3 1 0" in out
    assert "profile: strict strict strict" in out


def test_phi_single_vertex(tmp_path, capsys):
    path = tmp_path / "one.edges"
    path.write_text("solo\n")
    assert main(["phi", str(path)]) == 0
    assert "phi: inf 0" in capsys.readouterr().out


def test_phi_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.edges"
    path.write_text("a b\n")
    assert main(["phi", str(path)]) == 2
    assert "line 1" in capsys.readouterr().err


def test_phi_missing_file(tmp_path, capsys):
    assert main(["phi", str(tmp_path / "nope.edges")]) == 5


def test_phi_cap(tmp_path, capsys):
    path = tmp_path / "big.edges"
    path.write_text("".join(f"n{i}\n" for i in range(15)))
    assert main(["phi", str(path)]) == 3


def test_atoms(ato_file, capsys):
    assert main(["atoms", ato_file, "--k", "3"]) == 0
    out = capsys.readouterr().out
    assert "atoms: {a,b}* {c}* {d}*" in out
    assert "rho: 1 0 0" in out
    assert main(["atoms", ato_file, "--k", "2"]) == 0
    out = capsys.readouterr().out
    assert "atoms: {a,b,c}* {d}*" in out
    assert "rho: 3 0" in out


def test_invariant_failure_exits_one(ato_file, capsys, monkeypatch):
    # the package's atoms() function shadows the module of the same name
    atoms_mod = importlib.import_module("forest_atoms.atoms")
    monkeypatch.setattr(atoms_mod, "_split", lambda classes, root: classes)
    assert main(["atoms", ato_file, "--k", "2"]) == 1
    err = capsys.readouterr().err
    assert err == "error: invariant failed: atom split by a generator tree\n"


def test_atoms_k_zero_usage(ato_file, capsys):
    assert main(["atoms", ato_file, "--k", "0"]) == 2


def test_atoms_infeasible(woody_file, capsys):
    assert main(["atoms", woody_file, "--k", "1"]) == 4
    assert "phi^1 = inf" in capsys.readouterr().err


def test_atoms_dot(ato_file, tmp_path, capsys):
    dot = tmp_path / "atoms.dot"
    assert main(["atoms", ato_file, "--k", "2", "--dot", str(dot)]) == 0
    assert "subgraph cluster_0" in dot.read_text()


def test_json_document(ato_file, capsys):
    assert main(["phi", ato_file, "--json", "--quiet"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["phi"] == ["inf", "7", "3", "1", "0"]
    assert doc["schema_version"] == 1


@pytest.mark.parametrize("command", [
    "phi", "atoms", "hierarchy", "verify", "verify --random"])
def test_json_stdout_is_one_document(command, ato_file, capsys):
    # the human lines go to stderr, so stdout parses without --quiet
    source = (["--random", "n=4,trials=3,seed=42"] if "--random" in command
              else [ato_file])
    assert main([command.split()[0], *source, "--json"]) == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["schema_version"] == 1
    if command != "phi":
        assert captured.err.strip()


def test_verify_ok(ato_file, capsys):
    assert main(["verify", ato_file]) == 0
    out = capsys.readouterr().out
    assert "statements verified:" in out
    assert "counterexamples: 0" in out


def test_verify_needs_source(capsys):
    assert main(["verify"]) == 2


def test_verify_random_campaign(capsys):
    args = ["verify", "--random", "n=4,trials=12,seed=42", "--quiet"]
    assert main(args) == 0
    assert main(args + ["--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert len(doc["results"]) == 12


def test_verify_random_summary_line(capsys):
    spec = "n=4,trials=12,seed=42"
    assert main(["verify", "--random", spec]) == 0
    line = capsys.readouterr().out.splitlines()[-1]
    assert main(["verify", "--random", spec, "--json", "--quiet"]) == 0
    doc = json.loads(capsys.readouterr().out)
    merged = {}
    for entry in doc["results"]:
        for stmt, status in entry["statements"].items():
            merged.setdefault(stmt, set()).add(status)
    counts = dict.fromkeys(["verified", "not-applicable", "counterexample"], 0)
    for seen in merged.values():
        worst = ("counterexample" if "counterexample" in seen
                 else "verified" if "verified" in seen else "not-applicable")
        counts[worst] += 1
    assert line == ("trials: 12  statements verified: {verified}, "
                    "not-applicable: {not-applicable}, "
                    "counterexamples: {counterexample}").format_map(counts)


def test_verify_random_bad_spec(capsys):
    assert main(["verify", "--random", "bogus"]) == 2
    assert main(["verify", "--random", "trials=x"]) == 2


def test_verify_self_test(tmp_path, capsys):
    # exit 0: the corrupted oracle was caught and its witnesses written
    witness = tmp_path / "w.json"
    assert main(["verify", "--self-test", "--witness", str(witness)]) == 0
    doc = json.loads(witness.read_text())
    assert doc["witnesses"], "witness file must carry counterexamples"
    assert "self-test ok" in capsys.readouterr().out


def test_verify_self_test_missed(monkeypatch, capsys):
    # a battery that reports the corrupted oracle clean fails the self-test
    # cmd_verify reads corrupted_verify from the battery module at call time
    verification = importlib.import_module("forest_atoms.verification")
    monkeypatch.setattr(verification, "corrupted_verify",
                        lambda graph, level: verification.verify(
                            verification.Analysis.compute(graph)))
    assert main(["verify", "--self-test"]) == 1
    assert "self-test FAILED" in capsys.readouterr().out


def test_verify_witness_io_error(ato_file, capsys):
    # unwritable witness path only matters on failure; force failure via
    # self-test with a bad path
    code = main(["verify", "--self-test", "--witness", "/nonexistent/w.json"])
    assert code == 5


def test_verify_replay(ato_file, tmp_path, capsys):
    assert main(["verify", ato_file, "--json", "--quiet"]) == 0
    doc_path = tmp_path / "doc.json"
    doc_path.write_text(capsys.readouterr().out)
    assert main(["verify", "--replay", str(doc_path)]) == 0
    assert "replay ok" in capsys.readouterr().out
    # tampered document no longer replays
    tampered = json.loads(doc_path.read_text())
    tampered["phi"][1] = "8"
    doc_path.write_text(json.dumps(tampered, sort_keys=True, indent=2) + "\n")
    assert main(["verify", "--replay", str(doc_path)]) == 1
    # so does one holding a float, which no document holds
    tampered["phi"][1] = 7.0
    doc_path.write_text(json.dumps(tampered))
    capsys.readouterr()
    assert main(["verify", "--replay", str(doc_path)]) == 1
    assert "replay mismatch" in capsys.readouterr().out


def test_hierarchy(ato_file, capsys):
    assert main(["hierarchy", ato_file]) == 0
    out = capsys.readouterr().out
    assert "k=1 gap=inf" in out
    assert "k=2 gap=4" in out
    assert "k=4 gap=1" in out


def test_hierarchy_woody(woody_file, capsys):
    assert main(["hierarchy", woody_file]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("k=2 ")
    assert out.splitlines()[0].count("{") == 3  # three clusters


def test_hierarchy_dot_io_error(ato_file):
    assert main(["hierarchy", ato_file, "--dot", "/nonexistent/x.dot"]) == 5


def test_hierarchy_empty_arcs(tmp_path, capsys):
    path = tmp_path / "iso.edges"
    path.write_text("x\ny\nz\n")
    assert main(["hierarchy", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == [
        "k=3 gap=inf atoms: {x}* {y}* {z}*"]
