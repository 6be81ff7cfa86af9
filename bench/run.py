"""Benchmark of forest_atoms: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload dense-weighted --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 36    # table of every workload

``--trace 0`` runs the workload's graphs in several passes, takes each
graph's best time and prints the end-to-end metrics.  ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics.
The last line of standard output is the result object; the line before
it is a report with metadata, output digests and every figure measured.
BENCHMARK.json names the metrics and their units; NOTES.md explains them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import spans
from checks import forest_counts

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 7
#: The yardstick's digraph, its best time on the reference host, and the
#: least time between two of its samples in a run.  End-to-end times are
#: multiplied by the reference time over the run's best yardstick time,
#: which takes out much of the host's slow phases (NOTES.md).
YARDSTICK_ARCS = [(i, j) for i in range(6) for j in range(6)
                  if i != j and (i + 2 * j) % 5]
REFERENCE_YARDSTICK_S = 0.002
GAUGE_EVERY_S = 0.5


def timed_passes(wl, first: Pass, seconds: int, start: float, probe):
    """Passes after the checked ``first`` until ``seconds`` have passed
    since ``start``, and at least two in all.  Returns them, the yardstick
    times taken between their graphs, and the set-up times that ``probe``
    measures after each pass (at least ``SETUP_PROBES``).

    Each graph's time is its best over the passes.  The shared host's speed
    drifts by tens of percent for seconds at a time; short passes spread
    over the whole run give every graph many chances at the speed the
    program runs at when nothing else contends with it, and set-up probes
    spread over the run see the same mix of phases in every run.
    """
    passes, gauge, setup = [first], [yardstick()], []
    while len(passes) < 2 or time.perf_counter() - start < seconds:
        passes.append(run_pass(wl, first.digests, gauge=gauge))
        setup.append(probe())
    while len(setup) < SETUP_PROBES:
        setup.append(probe())
    return passes, gauge, setup


def yardstick() -> float:
    """Best of three timings of a fixed piece of pure-Python work that
    shares no code with the package: the matrix-forest counts of a fixed
    6-vertex digraph, in exact Fraction arithmetic like the package's own.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        forest_counts(6, YARDSTICK_ARCS)
        best = min(best, time.perf_counter() - start)
    return best


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load_package():
    """Import the workloads, which import forest_atoms from src/."""
    if not os.path.isfile(os.path.join(SRC, "forest_atoms", "__init__.py")):
        sys.exit(f"error: no forest_atoms package under {SRC}")
    sys.path.insert(0, SRC)
    try:
        import workloads
    except ImportError as exc:
        sys.exit(f"error: cannot import the package: {exc}")
    return workloads


def probe_setup(args) -> float:
    """Seconds from a fresh interpreter to the package imported and the
    workload's inputs generated (the child says "ready" at that point)."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds)]
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
    if line.strip() != "ready" or child.returncode != 0:
        sys.exit("error: set-up probe failed")
    return elapsed


class Pass:
    """Per-graph times, digests and failures of one pass over the jobs."""

    def __init__(self):
        self.times: list[tuple[int, float]] = []   # (vertex count, seconds)
        self.digests: list[str] = []
        self.failed = 0
        self.problems: list[str] = []

    @property
    def seconds(self) -> float:
        return sum(t for _, t in self.times)


def run_pass(wl, reference: list[str] | None = None, tracer=None,
             gauge: list[float] | None = None) -> Pass:
    """Run every job once.  Without ``reference`` each output is checked
    in full; with it, each output must have the reference digest.  With
    ``gauge``, a yardstick time is appended to it between graphs at most
    every ``GAUGE_EVERY_S``."""
    done = Pass()
    last = time.perf_counter()
    for job in wl.jobs:
        if gauge is not None and time.perf_counter() - last >= GAUGE_EVERY_S:
            gauge.append(yardstick())
            last = time.perf_counter()
        if tracer is not None:
            tracer.graph = job.index
        start = time.perf_counter()
        try:
            result, error = wl.run(job), None
        except Exception as exc:   # a raising graph is a failed graph
            result, error = None, f"job {job.index}: {exc!r}"
        done.times.append((job.n, time.perf_counter() - start))
        problems = [error] if error else []
        digest = "error"
        if not error:
            try:   # a malformed output must not stop the run
                digest = hashlib.sha256(wl.output(result)).hexdigest()
                if reference is None:
                    problems += wl.check(job, result)
                elif digest != reference[job.index]:
                    problems.append(f"job {job.index}: output differs between passes")
            except Exception as exc:
                problems.append(f"job {job.index}: check raised {exc!r}")
        done.digests.append(digest)
        if problems:
            done.failed += 1
            done.problems += problems[:3]
    return done


def peak_rss_mb(include_children: bool) -> float:
    """Peak resident set in MB (ru_maxrss is in KiB on Linux)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024


#: Units of every end-to-end figure.  BENCHMARK.json bounds a subset; the
#: rest are reported (NOTES.md says why).
UNITS = {"setup_s": "s", "graphs_per_s": "1/s", "graph_p50_s": "s",
         "graph_p90_s": "s", "largest_s": "s", "peak_rss_mb": "MB"}


def end_to_end(passes: list[Pass], setup: list[float], rss: float,
               scale: float = 1.0):
    """End-to-end metrics from each graph's best time over the passes,
    every time multiplied by ``scale``, and the sample counts they rest on."""
    sizes = [n for n, _ in passes[0].times]
    times = [scale * min(ts)
             for ts in zip(*([t for _, t in p.times] for p in passes))]
    largest_n = max(sizes)
    largest = [t for n, t in zip(sizes, times) if n == largest_n]
    p90 = statistics.quantiles(times, n=10)[8] if len(times) > 1 else times[0]
    return {
        "setup_s": scale * statistics.median(setup),
        "graphs_per_s": len(times) / sum(times),
        "graph_p50_s": statistics.median(times),
        "graph_p90_s": p90,
        "largest_s": statistics.median(largest),
        "peak_rss_mb": rss,
    }, {"graph_samples": len(times), "beyond_p90": sum(t > p90 for t in times),
        "largest_n": largest_n, "largest_samples": len(largest),
        "passes": len(passes)}


def layers(summary: dict, forests_in_space: int, untraced: float,
           traced: float, cli_children: list[dict]) -> dict:
    """Every per-layer metric, from the traced pass's span summary."""
    calls, own, counts = summary["calls"], summary["self_s"], summary["counts"]

    def per(num, den):
        return num / den if den else 0.0

    search_s = own["enumeration.all_minimal_forests"]
    atoms_s = own["atoms.atoms"] + own["atoms.measure"]
    m = {}
    for name in ("enumeration.all_minimal_forests", "enumeration.count_forests",
                 "enumeration.enumerate_forests", "graph.is_forest",
                 "analysis.compute"):
        m[name + ".calls"] = calls[name]
    for name, value in own.items():
        m[name + ".self_s"] = value
    m.update({
        "enumeration.tie_forests": counts.get("tie_forests", 0),
        "enumeration.forests_in_space": forests_in_space,
        "enumeration.forests_per_s": per(forests_in_space, search_s),
        "atoms.tie_forests_per_s": per(counts.get("atoms_forests", 0), atoms_s),
        "io.doc_bytes": counts.get("doc_bytes", 0),
        "io.dump_mb_per_s": per(counts.get("doc_bytes", 0) / 1e6,
                                own["io.dump_document"]),
        "verification.checks": counts.get("checks", 0),
        "verification.checks_per_s": per(counts.get("checks", 0),
                                         own["verification.verify"]),
        "verification.not_applicable_frac": per(counts.get("not_applicable", 0),
                                                counts.get("outcomes", 0)),
        "trace.overhead_frac": traced / untraced - 1,
    })
    verify_json = [c for c in cli_children if c["command"] == "verify --json"]
    m["cli.startup_s"] = (statistics.median(c["startup_s"] for c in cli_children)
                          if cli_children else 0.0)
    m["analysis.compute.calls_per_verify_json"] = per(
        sum(c["calls"]["analysis.compute"] for c in verify_json), len(verify_json))
    return m


def shares(summary: dict, traced: float) -> dict:
    """Share of the traced pass spent in each module's own code."""
    out: dict[str, float] = {}
    for name, value in summary["self_s"].items():
        module = name.split(".")[0]
        out[module] = out.get(module, 0.0) + value / traced
    return out


def merge(summaries: list[dict]) -> dict:
    """Sum span summaries of several processes (the CLI children)."""
    total = {"calls": {}, "self_s": {}, "counts": {}, "searched": []}
    for s in summaries:
        for key in ("calls", "self_s", "counts"):
            for name, value in s[key].items():
                total[key][name] = total[key].get(name, 0) + value
        total["searched"] += s["searched"]
    return total


def metadata(args, wl) -> dict:
    src = hashlib.sha256()
    package = os.path.join(SRC, "forest_atoms")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    revision = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        revision = done.stdout.strip() or None
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "git_revision": revision, "src_sha256": src.hexdigest(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "sizes": wl.sizes()}


def measure(args, workloads) -> tuple[dict, dict, int, int]:
    probe_setup(args)   # warms the bytecode cache; not counted
    wl = workloads.make(args.workload, args.seed)
    report = {"meta": metadata(args, wl)}
    workdir = os.path.join(HERE, "work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.workload == "cli":
            wl.start(workdir)
        start = time.perf_counter()
        first = run_pass(wl)
        if args.trace == 0:
            passes, gauge, setup = timed_passes(
                wl, first, args.seconds, start, lambda: probe_setup(args))
            report["setup_samples"] = setup
            rss = peak_rss_mb(include_children=args.workload == "cli")
            scale = REFERENCE_YARDSTICK_S / min(gauge)
            metrics, report["samples"] = end_to_end(passes, setup, rss, scale)
            report["end_to_end"] = metrics
            report["wall_end_to_end"] = end_to_end(passes, setup, rss)[0]
            report["host"] = {"yardstick_s": gauge, "scale": scale}
        else:
            passes, metrics, report["layer_shares"] = trace_run(args, wl, first,
                                                                workdir)
            report["layer_metrics"] = metrics
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report["pass_seconds"] = [p.seconds for p in passes]
    report["digest"] = hashlib.sha256("".join(first.digests).encode()).hexdigest()
    attempted = sum(len(p.times) for p in passes)
    failed = sum(p.failed for p in passes)
    report["failed_frac"] = failed / attempted
    report["problems"] = [q for p in passes for q in p.problems][:20]
    return metrics, report, attempted, failed


def traced_pass(wl, first: Pass, workdir: str, tag: str):
    """One pass with spans recorded: the pass, its span summary, the CLI
    children's own summaries and the in-process tracer (None for cli)."""
    if wl.name != "cli":
        tracer = spans.Tracer()
        with tracer:
            done = run_pass(wl, first.digests, tracer)
        return done, tracer.summary(), [], tracer
    wl.trace_dir = os.path.join(workdir, tag)
    os.makedirs(wl.trace_dir)
    try:
        done = run_pass(wl, first.digests)
    finally:
        wl.trace_dir = None
    children = []
    for job in wl.jobs:
        path = os.path.join(workdir, tag, f"{job.index}.json")
        if not os.path.exists(path):   # the child failed; already counted
            continue
        with open(path, encoding="utf-8") as fh:
            child = json.load(fh)
        child["command"] = job.command + (" --json" if job.as_json else "")
        children.append(child)
    return done, merge(children), children, None


def trace_run(args, wl, first: Pass, workdir: str):
    """Traced and untraced passes in turn after the checked first one.

    The first traced pass gives the per-layer metrics and the spans file;
    the overhead compares each graph's best traced and untraced times.
    """
    traced, summary, children, tracer = traced_pass(wl, first, workdir, "t1")
    if tracer is not None:
        results = os.path.join(HERE, "results")
        os.makedirs(results, exist_ok=True)
        spans.write_spans(tracer, os.path.join(
            results, f"{args.workload}-seed{args.seed}.spans.json"))
        del tracer
    again = run_pass(wl, first.digests)
    traced_again = traced_pass(wl, first, workdir, "t2")[0]
    counts: dict = {}   # the same graph is often searched more than once
    in_space = 0
    for n, arcs in summary["searched"]:
        key = (n, tuple(map(tuple, arcs)))
        if key not in counts:
            counts[key] = sum(forest_counts(*key))
        in_space += counts[key]
    metrics = layers(summary, in_space, best(first, again),
                     best(traced, traced_again), children)
    return ([first, traced, again, traced_again], metrics,
            shares(summary, traced.seconds))


def best(*passes: Pass) -> float:
    """Sum over graphs of each graph's best time in the given passes."""
    return sum(min(times) for times in
               zip(*([t for _, t in p.times] for p in passes)))


def table(workload: str, report: dict) -> list[str]:
    """One line per figure: every end-to-end or layer metric, with unit."""
    rows = [(name, value, UNITS[name])
            for name, value in report.get("end_to_end", {}).items()]
    rows += [(name, value, "") for name, value in
             sorted(report.get("layer_metrics", {}).items())]
    rows.append(("failed_frac", report["failed_frac"], "ratio"))
    return [f"{workload:15s} {name:45s} {value:<12.6g} {unit}"
            for name, value, unit in rows]


def emit(args, spec: dict, metrics: dict, report: dict,
         attempted: int, failed: int) -> None:
    wanted = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    chosen = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
              for m in wanted}
    print("\n".join(table(args.workload, report)), file=sys.stderr)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": chosen}))


def run_all(args) -> int:
    """Every workload in its own process; one table of all figures."""
    status = 0
    for name in load_package().WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        done = subprocess.run(argv, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if done.returncode != 0:
            print(f"{name}: exited {done.returncode}")
            status = 1
            continue
        lines = done.stdout.splitlines()
        print("\n".join(table(name, json.loads(lines[-2])["report"])))
        status |= not json.loads(lines[-1])["correct"]
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload == "all":
        return run_all(args)
    workloads = load_package()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}")
    if args.setup_probe:
        workloads.make(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    metrics, report, attempted, failed = measure(args, workloads)
    emit(args, spec, metrics, report, attempted, failed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
