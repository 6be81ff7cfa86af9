"""Seeded inputs of the benchmark workloads and the step each graph runs.

A workload is a fixed list of jobs ("graphs") made from the seed alone;
one pass runs every job once.  ``run`` calls the package through module
attributes, so the tracer's wrappers see every call; ``check`` judges a
result with the package-independent checks of ``checks.py``.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import os
import random
import runpy
import subprocess
import sys
import time
from fractions import Fraction

from checks import check_document, check_trial, forest_counts

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SHIM = os.path.join(ROOT, "bench", "cli_shim.py")

fa_analysis = importlib.import_module("forest_atoms.analysis")
fa_campaign = importlib.import_module("forest_atoms.campaign")
fa_hierarchy = importlib.import_module("forest_atoms.hierarchy")
fa_io = importlib.import_module("forest_atoms.io")

#: Largest share of arcs missing from a ladder graph.  The rounds of a pass
#: miss evenly spaced shares from 0 to this, so every pass has the same
#: density mix.
MAX_DROP = 0.2
#: Seed of the package's acceptance ensemble, whose trials the campaign runs.
ACCEPTANCE_SEED = 42
#: Seed of the ladder and CLI graphs up to vertex names; ``--seed`` renames
#: their vertices and orders the jobs (NOTES.md says why).
BASE_SEED = 20250131
#: Share of arcs missing from a CLI medium graph (N = 7).
MEDIUM_DROP = 0.3
CLI_COMMANDS = ("phi", "atoms", "hierarchy", "verify")
#: Reference graphs of scripts/reproduce_examples.py that the CLI runs on.
#: WOODY is left out so that a run makes enough passes (NOTES.md).
REFERENCE_GRAPHS = ("ATO",)
#: Seconds one CLI invocation may take before it counts as failed.
CLI_TIMEOUT = 120


class Job:
    """One graph of a pass: its vertex count and whatever runs it."""

    def __init__(self, index: int, n: int, **data):
        self.index = index
        self.n = n
        self.__dict__.update(data)


def dense_arcs(rng: random.Random, n: int, drop: float,
               unit: bool) -> dict[tuple[int, int], Fraction]:
    """Complete digraph on n vertices minus a seeded share ``drop`` of arcs."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    rng.shuffle(pairs)
    kept = sorted(pairs[round(drop * len(pairs)):])
    return {p: Fraction(1 if unit else rng.randint(1, 9)) for p in kept}


def relabel(rng: random.Random, n: int,
            arcs: dict[tuple[int, int], Fraction]) -> dict[tuple[int, int], Fraction]:
    """The same digraph with its vertices renamed by a seeded permutation."""
    perm = list(range(n))
    rng.shuffle(perm)
    return {(perm[i], perm[j]): w for (i, j), w in arcs.items()}


def edge_list(n: int, arcs: dict[tuple[int, int], Fraction]) -> str:
    """Edge-list text; every vertex is declared, so none can go missing."""
    lines = [f"v{i}" for i in range(n)]
    lines += [f"v{i} v{j} {w}" for (i, j), w in sorted(arcs.items())]
    return "\n".join(lines) + "\n"


def named(arcs: dict[tuple[int, int], Fraction]) -> dict:
    return {(f"v{i}", f"v{j}"): w for (i, j), w in arcs.items()}


class Campaign:
    """The acceptance ensemble, one ``campaign.run_trial`` per graph.

    The graphs are trials of the package's acceptance ensemble
    (``EnsembleSpec(seed=42, n_max=7)``); ``--seed`` orders them.  Trial
    times are heavy-tailed and follow the size of the out-arc assignment
    space, prod_v (outdeg(v) + 1): the full enumerations and the battery's
    product oracle walk it, and the oracle runs only below a budget.  So a
    pass is a stratified sample: for each N, the first ``pool`` trials with
    that N are sorted by that size, and the ``per_n`` trials at evenly
    spaced quantiles of it are kept.
    """

    name = "campaign"

    def __init__(self, seed: int, per_n: int = 6, pool: int = 200):
        spec = fa_campaign.EnsembleSpec(trials=0, seed=ACCEPTANCE_SEED, n_max=7)
        pools: dict[int, list[tuple[int, int]]] = {
            n: [] for n in range(spec.n_min, spec.n_max + 1)}
        index = 0
        while any(len(p) < pool for p in pools.values()):
            rng = random.Random(fa_campaign.trial_seed(spec.seed, index))
            graph = fa_campaign.random_digraph(rng, spec)
            if len(pools[graph.n]) < pool:
                space = 1
                for row in graph.out_lists:
                    space *= len(row) + 1
                pools[graph.n].append((space, index))
            index += 1
        self.spec = dataclasses.replace(spec, trials=index)
        picks = [(n, sorted(p)[(2 * i + 1) * pool // (2 * per_n)][1])
                 for n, p in pools.items() for i in range(per_n)]
        random.Random(seed).shuffle(picks)
        self.jobs = [Job(i, n, trial=trial) for i, (n, trial) in enumerate(picks)]

    def sizes(self) -> dict:
        return {"trials_scanned": self.spec.trials, "per_pass": len(self.jobs),
                "n": [self.spec.n_min, self.spec.n_max]}

    def run(self, job: Job):
        return fa_campaign.run_trial((self.spec, job.trial))

    def output(self, entry) -> bytes:
        return json.dumps(entry, sort_keys=True).encode()

    def check(self, job: Job, entry) -> list[str]:
        return check_trial(entry, job.trial)


class Ladder:
    """Dense digraphs of growing N through the whole document pipeline.

    Each round draws one graph per N with the same missing-arc share; the
    shares of a pass are evenly spaced from 0 to ``MAX_DROP``.  The graphs
    come from ``BASE_SEED``; the seed renames their vertices and orders the
    jobs, so every seed asks for the same work.  Weights are integers 1..9,
    or all 1 with ``unit``: every k-forest then ties, and the matrix-forest
    counts must equal the tie-set sizes.
    """

    def __init__(self, name: str, seed: int, rounds: int, ns: tuple[int, ...],
                 unit: bool):
        self.name = name
        self.unit = unit
        self.ns = ns
        base = random.Random(BASE_SEED)
        rng = random.Random(seed)
        drops = [MAX_DROP * r / max(1, rounds - 1) for r in range(rounds)]
        self.jobs = []
        for drop in drops:
            for n in ns:
                arcs = relabel(rng, n, dense_arcs(base, n, drop, unit))
                self.jobs.append(Job(0, n, arcs=arcs, text=edge_list(n, arcs)))
        rng.shuffle(self.jobs)
        for index, job in enumerate(self.jobs):
            job.index = index

    def sizes(self) -> dict:
        return {"rounds": len(self.jobs) // len(self.ns), "n": list(self.ns),
                "per_pass": len(self.jobs), "unit": self.unit}

    def run(self, job: Job) -> str:
        graph = fa_io.parse_edge_list(job.text)
        analysis = fa_analysis.Analysis.compute(graph)
        for k in analysis.feasible_levels():
            analysis.family(k)
            analysis.atom_measure(k)
        levels = fa_hierarchy.build_hierarchy(analysis)
        return fa_io.dump_document(fa_io.analysis_document(analysis, levels))

    def output(self, text: str) -> bytes:
        return text.encode()

    def check(self, job: Job, text: str) -> list[str]:
        counts = forest_counts(job.n, job.arcs) if self.unit else None
        return check_document(json.loads(text), named(job.arcs), counts)


class Cli:
    """Sequential ``python -m forest_atoms.cli`` runs, one per graph.

    Every subcommand, with and without ``--json``, on ``REFERENCE_GRAPHS``
    and on ``medium`` N = 7 graphs from ``BASE_SEED``, renamed by the seed.
    With a trace directory set, each child runs through ``cli_shim.py``
    instead and leaves its span summary there.
    """

    name = "cli"

    def __init__(self, seed: int, medium: int = 1):
        rng = random.Random(seed)
        examples = runpy.run_path(
            os.path.join(ROOT, "scripts", "reproduce_examples.py"))
        self.graphs = []
        for label in REFERENCE_GRAPHS:
            arcs = {(a, b): Fraction(w) for a, b, w in examples[label]}
            names = sorted({v for pair in arcs for v in pair})
            text = "".join(f"{a} {b} {w}\n" for (a, b), w in arcs.items())
            self.graphs.append((label.lower(), len(names), arcs, text))
        base = random.Random(BASE_SEED)
        for m in range(medium):
            arcs = relabel(rng, 7, dense_arcs(base, 7, MEDIUM_DROP, False))
            self.graphs.append((f"medium{m}", 7, named(arcs), edge_list(7, arcs)))
        calls = [(g, cmd, as_json) for g in range(len(self.graphs))
                 for cmd in CLI_COMMANDS for as_json in (False, True)]
        rng.shuffle(calls)
        self.jobs = [Job(i, self.graphs[g][1], graph=g, command=cmd,
                         as_json=as_json)
                     for i, (g, cmd, as_json) in enumerate(calls)]
        self.workdir = None
        self.trace_dir = None

    def sizes(self) -> dict:
        return {"graphs": [[label, n, len(arcs)]
                           for label, n, arcs, _ in self.graphs],
                "per_pass": len(self.jobs)}

    def start(self, workdir: str) -> None:
        self.workdir = workdir
        for label, _, _, text in self.graphs:
            with open(os.path.join(workdir, label + ".txt"), "w",
                      encoding="utf-8") as fh:
                fh.write(text)

    def run(self, job: Job):
        path = os.path.join(self.workdir, self.graphs[job.graph][0] + ".txt")
        args = [job.command, path] + (["--json"] if job.as_json else [])
        if self.trace_dir is None:
            argv = [sys.executable, "-m", "forest_atoms.cli", *args]
        else:
            out = os.path.join(self.trace_dir, f"{job.index}.json")
            argv = [sys.executable, SHIM, out, repr(time.monotonic()), *args]
        env = dict(os.environ, PYTHONPATH=SRC)
        try:
            done = subprocess.run(argv, capture_output=True, env=env, cwd=ROOT,
                                  timeout=CLI_TIMEOUT)
        except subprocess.TimeoutExpired:
            return None
        return done.returncode, done.stdout

    def output(self, result) -> bytes:
        if result is None:
            return b"timeout"
        code, stdout = result
        return b"%d\n" % code + stdout

    def check(self, job: Job, result) -> list[str]:
        if result is None:
            return [f"{job.command} timed out"]
        code, stdout = result
        if code != 0:
            return [f"{job.command} exited {code}"]
        if not job.as_json:
            return [] if stdout.strip() else [f"{job.command} printed nothing"]
        # atoms and verify print their summary lines before the document
        lines = stdout.decode().splitlines(keepends=True)
        start = next((i for i, line in enumerate(lines) if line.rstrip() == "{"),
                     None)
        if start is None:
            return [f"{job.command} --json printed no JSON document"]
        doc = json.loads("".join(lines[start:]))
        problems = check_document(doc, self.graphs[job.graph][2])
        if job.command == "verify" and doc.get("verification", {}).get("ok") is not True:
            problems.append("verify --json document does not report ok")
        return problems


def make(name: str, seed: int):
    """The workload ``name`` with the inputs drawn from ``seed``."""
    if name == "campaign":
        return Campaign(seed)
    if name == "dense-weighted":
        return Ladder(name, seed, 3, (5, 6, 7), unit=False)
    if name == "dense-unit":
        return Ladder(name, seed, 4, (4, 5, 6), unit=True)
    if name == "cli":
        return Cli(seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("campaign", "dense-weighted", "dense-unit", "cli")
