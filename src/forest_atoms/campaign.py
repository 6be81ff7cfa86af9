"""Randomized verification campaigns over seeded graph ensembles.

A campaign draws ``trials`` random digraphs from a seed, runs the full
statement battery on each and merges the per-trial reports into one
deterministic campaign document.  Trials are independent, each driven
by a seed derived from (campaign seed, trial index), so the merged
document is byte-identical for any worker count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .analysis import Analysis
from .graph import Digraph
from .io import SCHEMA_VERSION, dump_document, graph_json

#: Battery sampling budgets used by campaigns: smaller forest pools and
#: subset samples than ``verify``'s defaults, and ENUM's product walk only
#: up to 20000 out-arc assignments.  The complete tie sets are still
#: searched exactly on every trial, and P14 is exhaustive at every N.
CAMPAIGN_BUDGETS = dict(max_pool=8, max_subsets=12, enum_budget=20000)


@dataclass(frozen=True)
class EnsembleSpec:
    """Parameters of a random-digraph ensemble."""

    trials: int
    seed: int
    n_max: int = 7
    n_min: int = 2
    wmin: int = 1
    wmax: int = 5
    unit: bool = False        # all weights 1 (unweighted specialization)
    symmetric: bool = False   # arcs come in equal-weight opposite pairs

    def to_dict(self) -> dict:
        return {
            "trials": self.trials, "seed": self.seed,
            "n_max": self.n_max, "n_min": self.n_min,
            "wmin": self.wmin, "wmax": self.wmax,
            "unit": self.unit, "symmetric": self.symmetric,
        }


def random_digraph(rng: random.Random, spec: EnsembleSpec) -> Digraph:
    """One random digraph: random order, density and integer weights."""
    n = rng.randint(spec.n_min, spec.n_max)
    names = tuple(f"v{i}" for i in range(n))
    density = rng.uniform(0.15, 0.9)
    arcs: dict[tuple[int, int], Fraction] = {}

    def weight() -> Fraction:
        return Fraction(1 if spec.unit else rng.randint(spec.wmin, spec.wmax))

    if spec.symmetric:
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < density:
                    w = weight()
                    arcs[(i, j)] = w
                    arcs[(j, i)] = w
    else:
        for i in range(n):
            for j in range(n):
                if i != j and rng.random() < density:
                    arcs[(i, j)] = weight()
    return Digraph(names=names, arcs=arcs)


def trial_seed(seed: int, index: int) -> int:
    return random.Random(seed * 1_000_003 + index).getrandbits(63)


def run_trial(args: tuple[EnsembleSpec, int]) -> dict:
    """One campaign trial: draw the graph, run the battery, summarize."""
    from .verification import verify
    spec, index = args
    ts = trial_seed(spec.seed, index)
    graph = random_digraph(random.Random(ts), spec)
    report = verify(Analysis.compute(graph), seed=ts, **CAMPAIGN_BUDGETS)
    entry = {
        "trial": index,
        "graph": graph_json(graph),
        "ok": report.ok,
        "statements": {s: o.status for s, o in
                       sorted(report.statements.items())},
    }
    if not report.ok:
        entry["witnesses"] = [report.statements[s].witness
                              for s in report.counterexamples]
    return entry


def run_campaign(spec: EnsembleSpec, workers: int = 1) -> dict:
    """Campaign document: per-trial results plus an aggregate summary.

    Deterministic for a fixed spec regardless of ``workers``.
    """
    jobs = [(spec, i) for i in range(spec.trials)]
    if workers > 1:
        import multiprocessing
        with multiprocessing.Pool(workers) as pool:
            results = pool.map(run_trial, jobs, chunksize=8)
    else:
        results = [run_trial(j) for j in jobs]
    summary: dict[str, dict[str, int]] = {}
    for entry in results:
        for s, status in entry["statements"].items():
            summary.setdefault(s, {})[status] = \
                summary.setdefault(s, {}).get(status, 0) + 1
    return {
        "schema_version": SCHEMA_VERSION,
        "campaign": spec.to_dict(),
        "ok": all(e["ok"] for e in results),
        "summary": summary,
        "results": results,
    }


def campaign_text(spec: EnsembleSpec, workers: int = 1) -> str:
    return dump_document(run_campaign(spec, workers))
