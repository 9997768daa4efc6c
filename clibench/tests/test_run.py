"""The benchmark's declared metrics and its refusal to run without sources."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import tracing

CLIBENCH = Path(__file__).resolve().parent.parent
ROOT = CLIBENCH.parent


def test_declared_per_layer_metrics_match_the_trace():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    assert declared == tracing.metric_names()


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(CLIBENCH, tmp_path / "clibench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "clibench/run.py", "--workload", "rip-scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_round_takes_a_reference_pass_around_every_invocation(tmp_path):
    calls = []

    def main(argv):
        calls.append(argv[0])
        return 0

    def probe():
        calls.append("probe")
        return 0.04

    invocations = [("gamma", tmp_path / "a.json"), ("rip", tmp_path / "b.json")]
    results, probes = run.run_round(main, invocations, tmp_path, probe)
    assert calls == ["probe", "gamma", "probe", "rip", "probe"]
    assert [(e, code) for e, _, code in results] == [("gamma", 0), ("rip", 0)]
    assert probes == [0.04] * 3
