"""End-to-end benchmark of the tensorchain CLI.

Run from the repository root:

    python3 clibench/run.py --workload mc-deep --seed 1 --seconds 20 --trace 0

The workload's configs are generated from ``--seed`` and run through the
public entry point ``tensorchain.cli.main`` (config file in, output
directory out), in this one process, in whole rounds until ``--seconds``
have passed (at least two rounds).  Timings are medians over rounds.
After the timed section every output of the first round is checked
against values recomputed apart from the package (``checks.py``), and
every later round must reproduce the first round's digests.

The speed of a shared machine drifts by a quarter or more within minutes,
so the declared time ``wall_ref`` divides each invocation's wall time by
the time of a short fixed reference pass (``reference_pass``: batched SVDs
and interpreter work, no package code) measured just before and just
after it.  The raw seconds are printed as well.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics of
``tracing.py``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".clibench"
# One BLAS thread: the whole load is this one process, which keeps the
# timings steady on a shared machine and never exceeds the core count.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)  # before numpy loads BLAS

import numpy as np  # noqa: E402

SETUP_REPEATS = 15
SETUP_CODE = "import tensorchain.cli as cli; cli.build_parser()"
MIN_ROUNDS = 2
# One reference pass takes 30 to 50 ms on a 2-core x86 machine.
REF_SVDS = 2
REF_LOOP = 75_000


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup():
    """Median seconds for a fresh interpreter to import a ready CLI."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        # no timeout: waiting with one polls in steps of up to 50 ms
        subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def reference_pass(batch):
    """Seconds of a fixed pass of batched 4x4 SVDs and interpreter work.

    The pass mixes the two kinds of work the CLI spends its time on, so a
    slowdown of the machine stretches it as it stretches an invocation.
    """
    start = time.perf_counter()
    for _ in range(REF_SVDS):
        np.linalg.svd(batch, compute_uv=False)
    total = 0.0
    for i in range(REF_LOOP):
        total += i * 0.5
    return time.perf_counter() - start


def run_round(main, invocations, out_root, probe=None):
    """Run every invocation once.

    Returns [(experiment, seconds, exit code)] and the times of ``probe``,
    if given, taken before every invocation and after the last one.
    """
    results, probes = [], []
    for i, (experiment, config_path) in enumerate(invocations):
        out = out_root / str(i)
        shutil.rmtree(out, ignore_errors=True)
        argv = [experiment, "--config", str(config_path), "--out", str(out)]
        if probe:
            probes.append(probe())
        start = time.perf_counter()
        try:
            code = main(argv)
        except Exception:  # a traceback is a failed invocation, not a crash
            traceback.print_exc()
            code = 1
        results.append((experiment, time.perf_counter() - start, code))
    if probe:
        probes.append(probe())
    return results, probes


def digests(out_root, count):
    found = []
    for i in range(count):
        try:
            found.append(json.loads((out_root / str(i) / "manifest.json").read_text())["digests"])
        except (OSError, ValueError):
            found.append(None)
    return found


def output_bytes(out):
    """Bytes of the experiment's outputs; the manifest holds wall times."""
    if not out.is_dir():
        return 0
    return sum(p.stat().st_size for p in out.iterdir() if p.name != "manifest.json")


def timed_rounds(cli_main, invocations, work, seconds, tracer):
    """Whole rounds until ``seconds`` have passed, at least ``MIN_ROUNDS``.

    In an untraced round every invocation lies between two reference
    passes.  With a tracer every untraced round is followed by a traced
    one.  Returns the untraced rounds, their reference times, the traced
    rounds as (results, spans, output bytes) and the invocations whose
    digests differed from the first round's.
    """
    traced_main = tracer.wrap("cli.main", cli_main) if tracer else None
    rounds, refs, traced_rounds, first, mismatch = [], [], [], None, set()
    rng = np.random.default_rng(0)
    batch = rng.standard_normal((2000, 4, 4)) + 1j * rng.standard_normal((2000, 4, 4))
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        out_roots = [work / ("first" if not rounds else "again")]
        results, probes = run_round(cli_main, invocations, out_roots[0],
                                    lambda: reference_pass(batch))
        rounds.append(results)
        refs.append(probes)
        if tracer:
            out_roots.append(work / "traced")
            tracer.install()
            try:
                results, _ = run_round(traced_main, invocations, out_roots[1])
            finally:
                tracer.uninstall()
            written = sum(output_bytes(out_roots[1] / str(i)) for i in range(len(invocations)))
            traced_rounds.append((results, tracer.take(), written))
        for root in out_roots:
            found = digests(root, len(invocations))
            first = first or found
            mismatch |= {i for i, d in enumerate(found) if d != first[i]}
    return rounds, refs, traced_rounds, mismatch


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "tensorchain" / "cli.py").is_file():
        print(f"no tensorchain sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import checks
    import tracing
    import workloads
    from tensorchain import cli

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        configs = workloads.configs(args.workload, args.seed)
        invocations = []
        for i, (experiment, cfg) in enumerate(configs):
            path = work / f"config-{i}.json"
            path.write_text(json.dumps(cfg))
            invocations.append((experiment, path))

        tracer = tracing.Tracer() if args.trace else None
        rounds, refs, traced_rounds, mismatch = timed_rounds(
            cli.main, invocations, work, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # An invocation fails when it exits nonzero or its config's outputs
        # fail a check; outputs are identical across rounds, so a check
        # failure counts in every round.
        problems = {}
        for i, (experiment, cfg) in enumerate(configs):
            found = checks.check(experiment, cfg, str(work / "first" / str(i)))
            if i in mismatch:
                found.append("outputs differ between rounds")
            for p in found:
                print(f"check failed: {experiment} #{i}: {p}", file=sys.stderr)
            if found:
                problems[i] = found
        all_rounds = rounds + [results for results, _, _ in traced_rounds]
        attempted = sum(len(r) for r in all_rounds)
        failed = sum(code != 0 or i in problems
                     for r in all_rounds for i, (_, _, code) in enumerate(r))
        wrong = [i for i in problems if all(r[i][2] == 0 for r in all_rounds)]

        walls = [sum(t for _, t, _ in r) for r in rounds]
        ratios = [sum(t / ((a + b) / 2) for (_, t, _), a, b in zip(r, p, p[1:]))
                  for r, p in zip(rounds, refs)]
        if tracer:
            metrics = layer_report(tracing, traced_rounds, walls)
            tracing.write_spans(WORK / f"spans-{args.workload}-{args.seed}.csv",
                                [spans for _, spans, _ in traced_rounds])
        else:
            metrics = {
                "wall_ref": {"value": statistics.median(ratios), "unit": "ref"},
                "setup_s": {"value": measure_setup(), "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
        print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} rounds"
              + (f" untraced, {len(traced_rounds)} traced" if tracer else ""))
        print("  round wall_s: " + " ".join(f"{w:.3f}" for w in walls))
        print("  round wall_ref: " + " ".join(f"{w:.3f}" for w in ratios))
        print("  reference pass s: " + " ".join(f"{t:.3f}" for p in refs for t in p))
        print(f"  wall_s: {statistics.median(walls):.4f} s")
        for experiment in dict(configs):
            times = [sum(t for e, t, _ in r if e == experiment) for r in rounds]
            print(f"  {experiment.replace('-', '_')}_s: {statistics.median(times):.4f} s")
        for name, m in metrics.items():
            print(f"  {name}: {m['value']:.6g} {m['unit']}")
        print(f"  attempted {attempted}, failed {failed}")
        print(json.dumps({"correct": not wrong, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def layer_report(tracing, traced_rounds, untraced_walls):
    """Per-layer metrics: median times over traced rounds, exact counts."""
    per_round = []
    for results, spans, written in traced_rounds:
        values = tracing.layer_metrics(tracing.summarize(spans))
        values["cli.output.bytes"] = written
        values["trace.overhead_s"] = sum(t for _, t, _ in results)
        per_round.append(values)
    metrics = {}
    for name, unit in tracing.metric_names():
        column = [values[name] for values in per_round]
        if unit == "s":
            value = statistics.median(column)
        else:
            value = column[0]
            if any(v != value for v in column):
                print(f"count {name} differs between traced rounds: {column}", file=sys.stderr)
        metrics[name] = {"value": value, "unit": unit}
    metrics["trace.overhead_s"]["value"] -= statistics.median(untraced_walls)
    return metrics


if __name__ == "__main__":
    raise SystemExit(main())
