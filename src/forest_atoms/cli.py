"""Command-line front end.

Subcommands: ``phi``, ``atoms``, ``verify``, ``hierarchy``.

Exit codes: 0 ok, 1 counterexample found or internal invariant failed,
2 parse/usage error, 3 enumeration cap exceeded, 4 infeasible level,
5 i/o error.  ``verify --self-test`` exits 0 when the battery catches the
corrupted oracle and 1 when it does not.

With ``--json`` the document is all that goes to stdout; the human lines
go to stderr.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .analysis import Analysis
from .atoms import symmetrize
from .enumeration import (DEFAULT_CAP, CapExceeded, InfeasibleLevel,
                          InvariantError)
from .graph import Digraph, InputError
from .hierarchy import build_hierarchy
from .io import (ParseError, analysis_document, dump_document, graph_from_json,
                 hierarchy_dot, load_document, load_graph, to_dot,
                 weight_to_json)

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_INFEASIBLE = 4
EXIT_IO = 5

#: Graph used by ``verify --self-test``: ties at k = 2 and a strict
#: level, so a corrupted tie set must produce measure counterexamples.
SELF_TEST_ARCS = [("b", "a", 1), ("a", "c", 2), ("b", "d", 2), ("c", "b", 3)]


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _say(args, *parts) -> None:
    """A human line: on stdout, or on stderr when stdout holds a --json
    document."""
    if not args.quiet:
        print(*parts, file=sys.stderr if args.json else sys.stdout)


def _load(args) -> Digraph:
    try:
        return load_graph(args.input)
    except ParseError as exc:
        raise _CliError(EXIT_USAGE, f"parse error: {exc}") from None
    except OSError as exc:
        raise _CliError(EXIT_IO, f"cannot read {args.input}: {exc}") from None


def _analyze(graph: Digraph, args) -> Analysis:
    try:
        return Analysis.compute(graph, cap=args.cap)
    except CapExceeded as exc:
        raise _CliError(EXIT_CAP, str(exc)) from None


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _CliError(EXIT_IO, f"cannot write {path}: {exc}") from None


def _write_witnesses(path: str, witnesses: list) -> None:
    _write(path, dump_document({"schema_version": 1, "witnesses": witnesses}))


def _atom_str(graph: Digraph, atom, labeled: bool) -> str:
    body = ",".join(sorted(graph.names[v] for v in atom))
    return "{%s}%s" % (body, "*" if labeled else "o")


def cmd_phi(args) -> int:
    graph = _load(args)
    analysis = _analyze(graph, args)
    if args.json:
        hierarchy = build_hierarchy(analysis)
        print(dump_document(analysis_document(analysis, hierarchy)), end="")
        return EXIT_OK
    _say(args, "phi:", " ".join(weight_to_json(w)
                                for w in analysis.phi.values))
    _say(args, "profile:", " ".join(analysis.profile) or "-")
    return EXIT_OK


def cmd_atoms(args) -> int:
    if args.k is not None and args.k < 1:
        raise _CliError(EXIT_USAGE, f"--k must be >= 1, got {args.k}")
    graph = _load(args)
    analysis = _analyze(graph, args)
    k = args.k if args.k is not None else graph.n
    if k > graph.n:
        raise _CliError(EXIT_USAGE,
                        f"--k {k} exceeds vertex count {graph.n}")
    try:
        fam = analysis.family(k)
    except InfeasibleLevel:
        raise _CliError(EXIT_INFEASIBLE, f"phi^{k} = inf") from None
    meas = analysis.atom_measure(k)
    _say(args, "atoms:", " ".join(
        _atom_str(graph, a, l) for a, l in zip(fam.atoms, fam.labeled)))
    if meas.well_defined:
        _say(args, "rho:", " ".join(str(x) for x in meas.values))
    else:
        for row, F in zip(meas.per_forest, analysis.minimal[k].forests):
            _say(args, "rho[%s]:" % F, " ".join(str(x) for x in row))
    if args.dot:
        _write(args.dot, to_dot(graph, family=fam, title=f"atoms_k{k}"))
    if args.json:
        print(dump_document(analysis_document(analysis)), end="")
    return EXIT_OK


def _parse_random(spec: str):
    from .campaign import EnsembleSpec
    fields = {}
    for part in spec.split(","):
        if "=" not in part:
            raise _CliError(EXIT_USAGE,
                            f"bad --random field {part!r} (expected key=value)")
        key, value = part.split("=", 1)
        fields[key.strip()] = value.strip()
    try:
        return EnsembleSpec(
            trials=int(fields.get("trials", 100)),
            seed=int(fields.get("seed", 0)),
            n_max=int(fields.get("n", 7)),
            n_min=int(fields.get("n_min", 2)),
            wmin=int(fields.get("wmin", 1)),
            wmax=int(fields.get("wmax", 5)),
            unit=bool(int(fields.get("unit", 0))),
            symmetric=bool(int(fields.get("symmetric", 0))),
        )
    except ValueError as exc:
        raise _CliError(EXIT_USAGE, f"bad --random value: {exc}") from None


def _summary_line(statuses: list[str]) -> str:
    from .verification import COUNTEREXAMPLE, NOT_APPLICABLE, VERIFIED
    return (f"statements verified: {statuses.count(VERIFIED)}, "
            f"not-applicable: {statuses.count(NOT_APPLICABLE)}, "
            f"counterexamples: {statuses.count(COUNTEREXAMPLE)}")


def cmd_verify(args) -> int:
    # the battery loads only for this subcommand, the campaign runner
    # only for --random
    from .verification import (COUNTEREXAMPLE, NOT_APPLICABLE, VERIFIED,
                               corrupted_verify, verify)
    if args.self_test:
        graph = Digraph.from_arcs(SELF_TEST_ARCS)
        report = corrupted_verify(graph, level=2)
        witness_path = args.witness or "self-test.witness.json"
        if report.ok:
            # the battery missed the corruption: the self-test fails
            _say(args, "self-test FAILED: corrupted oracle went undetected")
            return EXIT_COUNTEREXAMPLE
        _write_witnesses(witness_path, [report.statements[s].witness
                                        for s in report.counterexamples])
        _say(args, "self-test ok: corrupted oracle detected "
                   f"({', '.join(report.counterexamples)}); "
                   f"witnesses in {witness_path}")
        return EXIT_OK

    if args.random:
        from .campaign import run_campaign
        spec = _parse_random(args.random)
        doc = run_campaign(spec, workers=args.workers)
        if args.json:
            print(dump_document(doc), end="")
        # a statement fails if any trial fails it, else it is verified if
        # any trial verifies it
        statuses = [next(st for st in (COUNTEREXAMPLE, VERIFIED, NOT_APPLICABLE)
                         if counts.get(st))
                    for counts in doc["summary"].values()]
        _say(args, f"trials: {spec.trials}  {_summary_line(statuses)}")
        if not doc["ok"]:
            witness_path = args.witness or "campaign.witness.json"
            _write_witnesses(witness_path, [w for e in doc["results"]
                                            if not e["ok"]
                                            for w in e["witnesses"]])
            _say(args, f"witnesses in {witness_path}")
            return EXIT_COUNTEREXAMPLE
        return EXIT_OK

    if args.replay:
        return _replay(args)

    if not args.input:
        raise _CliError(EXIT_USAGE,
                        "verify needs an input file, --random or --self-test")
    graph = _load(args)
    analysis = _analyze(graph, args)
    report = verify(analysis, upto_k=args.k, seed=args.seed)
    _say(args, _summary_line([o.status for o in report.statements.values()]))
    if args.json:
        hierarchy = build_hierarchy(analysis)
        doc = analysis_document(analysis, hierarchy,
                                report=dict(report.to_dict(), seed=args.seed))
        print(dump_document(doc), end="")
    if not report.ok:
        witness_path = args.witness or args.input + ".witness.json"
        _write_witnesses(witness_path, [report.statements[s].witness
                                        for s in report.counterexamples])
        _say(args, f"witnesses in {witness_path}")
        return EXIT_COUNTEREXAMPLE
    return EXIT_OK


def _replay(args) -> int:
    """Re-ingest an AnalysisDocument and reproduce it from scratch."""
    try:
        doc = load_document(args.replay)
    except OSError as exc:
        raise _CliError(EXIT_IO, f"cannot read {args.replay}: {exc}") from None
    except (InputError, ValueError) as exc:
        raise _CliError(EXIT_USAGE, f"bad document: {exc}") from None
    graph = graph_from_json(doc["graph"])
    analysis = _analyze(graph, args)
    hierarchy = build_hierarchy(analysis)
    report = None
    if "verification" in doc:
        from .verification import verify
        seed = doc["verification"].get("seed", 0)
        report = dict(verify(analysis, seed=seed).to_dict(), seed=seed)
    fresh = analysis_document(analysis, hierarchy if "hierarchy" in doc else None,
                              report=report)
    if dump_document(fresh) == dump_document(doc):
        _say(args, "replay ok: document reproduced")
        return EXIT_OK
    _say(args, "replay mismatch: document is not reproducible")
    return EXIT_COUNTEREXAMPLE


def cmd_hierarchy(args) -> int:
    graph = _load(args)
    if args.symmetrize:
        graph = symmetrize(graph)
    analysis = _analyze(graph, args)
    hierarchy = build_hierarchy(analysis)
    for lv in hierarchy:
        _say(args, f"k={lv.k} gap={weight_to_json(lv.gap)} atoms:",
             " ".join(_atom_str(graph, a, l)
                      for a, l in zip(lv.atoms.atoms, lv.atoms.labeled)))
    if args.dot:
        _write(args.dot, hierarchy_dot(analysis, hierarchy))
    if args.json:
        print(dump_document(analysis_document(analysis, hierarchy)), end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forest-atoms",
        description="Minimum-weight entering forests, atom algebras and "
                    "the metastable hierarchy of a weighted digraph.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("input", help="edge-list file (src dst weight)")
        p.add_argument("--cap", type=int, default=DEFAULT_CAP,
                       help="enumeration cap on vertex count")
        p.add_argument("--quiet", action="store_true")
        p.add_argument("--json", action="store_true",
                       help="print the full analysis document as JSON")

    p = sub.add_parser("phi", help="phi sequence and convexity profile")
    common(p)
    p.set_defaults(func=cmd_phi)

    p = sub.add_parser("atoms", help="atoms, labels and measure at level k")
    common(p)
    p.add_argument("--k", type=int, default=None,
                   help="component count (default: N)")
    p.add_argument("--dot", metavar="PATH",
                   help="write atoms as DOT clusters")
    p.set_defaults(func=cmd_atoms)

    p = sub.add_parser("verify",
                       help="run the statement battery; exit 1 on "
                            "counterexamples")
    common(p, needs_input=False)
    p.add_argument("input", nargs="?", default=None)
    p.add_argument("--k", type=int, default=None,
                   help="verify levels up to k only")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--random", metavar="SPEC",
                   help="campaign spec: n=7,trials=200,seed=42"
                        "[,wmin=1,wmax=5,unit=0,symmetric=0]")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--witness", metavar="PATH",
                   help="where to write counterexample witnesses")
    p.add_argument("--self-test", action="store_true", dest="self_test",
                   help="corrupt a built-in oracle and require detection")
    p.add_argument("--replay", metavar="DOC",
                   help="re-ingest an analysis document and reproduce it")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("hierarchy", help="metastable hierarchy levels")
    common(p)
    p.add_argument("--dot", metavar="PATH",
                   help="write one DOT digraph per level")
    p.add_argument("--symmetrize", action="store_true",
                   help="make the graph undirected first")
    p.set_defaults(func=cmd_hierarchy)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvariantError as exc:
        print(f"error: invariant failed: {exc}", file=sys.stderr)
        return EXIT_COUNTEREXAMPLE


if __name__ == "__main__":
    sys.exit(main())
