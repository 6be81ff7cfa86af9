"""Fast self-test of the benchmark (about half a minute).

    python3 bench/selftest.py

Checks the independent forest counter against brute force, shows that the
output checks reject corrupted documents, runs each workload at tiny sizes
untraced and traced, and runs the entry point for its output contract,
including the refusal to run without the package.
"""

from __future__ import annotations

import copy
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
import unittest
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from checks import check_document, check_trial, forest_counts  # noqa: E402
from forest_atoms import Analysis, Digraph, build_hierarchy  # noqa: E402
from forest_atoms.enumeration import count_forests  # noqa: E402
from forest_atoms.io import analysis_document  # noqa: E402


def brute_counts(n: int, arcs) -> list[int]:
    """Forests per root count by trying every out-arc assignment."""
    outs = [[None] + [j for i, j in arcs if i == v] for v in range(n)]
    counts = [0] * (n + 1)
    for out in itertools.product(*outs):
        if all(_reaches_root(out, v) for v in range(n)):
            counts[out.count(None)] += 1
    return counts


def _reaches_root(out, v) -> bool:
    for _ in range(len(out)):
        if out[v] is None:
            return True
        v = out[v]
    return False


def random_arcs(rng: random.Random, n: int) -> list[tuple[int, int]]:
    density = rng.uniform(0.2, 1.0)
    return [(i, j) for i in range(n) for j in range(n)
            if i != j and rng.random() < density]


class ForestCounter(unittest.TestCase):
    def test_matches_brute_force_and_the_package(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(1, 5)
            arcs = random_arcs(rng, n)
            counts = forest_counts(n, arcs)
            self.assertEqual(counts, brute_counts(n, arcs))
            graph = Digraph(names=tuple(f"v{i}" for i in range(n)),
                            arcs={a: Fraction(1) for a in arcs})
            self.assertEqual(sum(counts), count_forests(graph))

    def test_complete_digraph(self):
        # Cayley: (n + 1)^(n - 1) rooted forests on n labelled vertices
        n = 5
        arcs = [(i, j) for i in range(n) for j in range(n) if i != j]
        self.assertEqual(sum(forest_counts(n, arcs)), (n + 1) ** (n - 1))


class DocumentChecks(unittest.TestCase):
    ARCS = [("b", "a", 1), ("a", "c", 2), ("b", "d", 2), ("c", "b", 3)]

    def setUp(self):
        graph = Digraph.from_arcs(self.ARCS)
        analysis = Analysis.compute(graph)
        self.doc = analysis_document(analysis, build_hierarchy(analysis))
        self.arcs = {(a, b): Fraction(w) for a, b, w in self.ARCS}

    def mutated(self, change) -> list[str]:
        doc = copy.deepcopy(self.doc)
        change(doc)
        return check_document(doc, self.arcs)

    def test_accepts_the_package_document(self):
        self.assertEqual(check_document(self.doc, self.arcs), [])

    def test_rejects_corruptions(self):
        def extra_forest(doc):   # a heavier 2-forest joins the tie set
            doc["levels"]["2"]["forests"].append([["a", "c"], ["b", "d"]])

        def repeat(doc):
            forests = doc["levels"]["3"]["forests"]
            forests.append(forests[0])

        def relabel(doc):
            doc["levels"]["2"]["labeled"][0] ^= True

        def remeasure(doc):
            doc["levels"]["1"]["measure"]["values"][0] = "99"

        def merge_atoms(doc):
            atoms = doc["levels"]["4"]["atoms"]
            atoms[:2] = [atoms[0] + atoms[1]]

        def reweigh(doc):
            doc["graph"]["arcs"][0][2] = "5"

        for change in (extra_forest, repeat, relabel, remeasure, merge_atoms,
                       reweigh):
            with self.subTest(change.__name__):
                self.assertNotEqual(self.mutated(change), [])

    def test_tie_counts(self):
        sizes = [0] + [len(self.doc["levels"][str(k)]["forests"])
                       for k in range(1, 5)]
        self.assertEqual(check_document(self.doc, self.arcs, sizes), [])
        sizes[2] += 1
        self.assertNotEqual(check_document(self.doc, self.arcs, sizes), [])

    def test_trial_entry(self):
        entry = {"trial": 3, "ok": True,
                 "statements": {f"S{i}": "verified" for i in range(40)}}
        self.assertEqual(check_trial(entry, 3), [])
        self.assertNotEqual(check_trial(dict(entry, ok=False), 3), [])


class TinyWorkloads(unittest.TestCase):
    def run_workload(self, wl, layers):
        first = run.run_pass(wl)
        self.assertEqual((first.failed, first.problems), (0, []))
        tracer = spans.Tracer()
        with tracer:
            traced = run.run_pass(wl, first.digests, tracer)
        self.assertEqual(traced.failed, 0)
        calls = tracer.summary()["calls"]
        for layer in layers:
            self.assertGreater(calls[layer], 0, layer)
        again = run.run_pass(wl, first.digests)
        self.assertEqual(again.digests, first.digests)

    def test_campaign(self):
        self.run_workload(workloads.Campaign(seed=1, per_n=1, pool=4),
                          ["campaign.run_trial", "verification.verify",
                           "graph.is_forest", "analysis.compute"])

    def test_ladders(self):
        for unit in (False, True):
            wl = workloads.Ladder("tiny", seed=2, rounds=2, ns=(3, 4), unit=unit)
            self.run_workload(wl, ["io.parse_edge_list", "atoms.atoms",
                                   "hierarchy.build_hierarchy",
                                   "io.dump_document"])

    def test_ladder_inputs_follow_the_seed(self):
        make = lambda seed: workloads.Ladder("t", seed, 3, (4,), unit=False)
        self.assertEqual([j.text for j in make(5).jobs],
                         [j.text for j in make(5).jobs])
        self.assertNotEqual([j.text for j in make(5).jobs],
                            [j.text for j in make(6).jobs])

    def test_cli(self):
        wl = workloads.Cli(seed=3, medium=0)
        workdir = os.path.join(HERE, "work", f"selftest-{os.getpid()}")
        os.makedirs(os.path.join(workdir, "trace"))
        try:
            wl.start(workdir)
            first = run.run_pass(wl)
            self.assertEqual((first.failed, first.problems), (0, []))
            wl.trace_dir = os.path.join(workdir, "trace")
            traced = run.run_pass(wl, first.digests)
            self.assertEqual(traced.failed, 0)
            with open(os.path.join(wl.trace_dir, "0.json")) as fh:
                child = json.load(fh)
            self.assertEqual(child["calls"]["cli.main"], 1)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


class EntryPoint(unittest.TestCase):
    def invoke(self, cwd, trace):
        argv = [sys.executable, os.path.join(cwd, "bench", "run.py"),
                "--workload", "dense-unit", "--seed", "4", "--seconds", "1",
                "--trace", str(trace)]
        return subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                              timeout=170)

    def test_output_contract(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            done = self.invoke(ROOT, trace)
            self.assertEqual(done.returncode, 0, done.stderr)
            result = json.loads(done.stdout.splitlines()[-1])
            self.assertEqual(sorted(result),
                             ["attempted", "correct", "failed", "metrics"])
            self.assertTrue(result["correct"])
            self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                             {m["name"]: m["unit"] for m in spec[key]})

    def test_refuses_without_the_package(self):
        bare = os.path.join(HERE, "work", f"bare-{os.getpid()}")
        try:
            shutil.copytree(HERE, os.path.join(bare, "bench"),
                            ignore=shutil.ignore_patterns("work", "results",
                                                          "__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            done = self.invoke(bare, 0)
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout, "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
