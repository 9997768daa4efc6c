import errno
import json
import math
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tensorchain import chaining, cli, kernels, processes
from tensorchain import rng as trng
from tensorchain.chaining import FiniteMetricSpace
from tensorchain.cli import (
    EXIT_CAPACITY,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_VERDICT,
    main,
    validate,
)
from tensorchain.errors import (
    CapacityError,
    DegenerateMetricError,
    FitFailureError,
    InsufficientDataError,
    ValidationError,
)


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


GAMMA_CONFIG = {
    "experiment": "gamma",
    "seed": 0,
    "points": [[0.0], [1.0], [3.0]],
    "beta": 2.0,
    "p_values": [1, 2],
}


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_validate_accepts_good_config():
    assert validate(GAMMA_CONFIG) == []


def test_validate_reports_all_violations_at_once():
    bad = {"experiment": "rip", "col_dims": [8], "xi": 2, "trials": 10, "tau": 0.5}
    diags = validate(bad)  # missing seed and target_size
    assert len(diags) == 2
    assert any("seed" in d for d in diags)
    assert any("target_size" in d for d in diags)


def test_validate_unknown_experiment():
    diags = validate({"experiment": "frobnicate"})
    assert len(diags) == 1


def test_validate_capacity_diagnostic_names_limit(tmp_path):
    bad = {
        "experiment": "rip",
        "seed": 1,
        "col_dims": [4096],
        "xi": 3,
        "tau": 0.5,
        "trials": 5,
        "target_size": 64,
    }
    diags = validate(bad)
    assert any("budget" in d and "1000000" in d for d in diags)
    path = write_config(tmp_path, bad)
    code = main(["rip", "--config", path, "--out", str(tmp_path / "out")])
    assert code == EXIT_CAPACITY


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------


def test_missing_seed_rejected_without_output(tmp_path):
    cfg = dict(GAMMA_CONFIG)
    del cfg["seed"]
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["gamma", "--config", path, "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


def test_subcommand_must_match_config(tmp_path):
    path = write_config(tmp_path, GAMMA_CONFIG)
    assert main(["rip", "--config", path, "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def test_unreadable_config(tmp_path, capsys):
    # a missing file, a byte that is not UTF-8, and nesting past the decoder's recursion limit
    (tmp_path / "latin1.json").write_bytes(b'{"experiment": "gamma\xff"}')
    (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    for name in ("none.json", "latin1.json", "deep.json"):
        out = tmp_path / f"out-{name}"
        code = main(["gamma", "--config", str(tmp_path / name), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG, name
        assert err.startswith("config error: ") and err.count("\n") == 1, (name, err)
        assert not out.exists(), name


def test_gamma_experiment_report_value(tmp_path):
    path = write_config(tmp_path, GAMMA_CONFIG)
    out = tmp_path / "out"
    assert main(["gamma", "--config", path, "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["gamma_exhaustive"] == pytest.approx(2.0)
    assert report["experiment_config"] == GAMMA_CONFIG
    assert (out / "covering.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["digests"]) == {"report.json", "covering.csv"}
    assert manifest["verdicts"] == []
    assert manifest["workers"] == kernels._WORKERS


@pytest.mark.parametrize("workers", [1, 3])
def test_manifest_declares_the_workers_a_run_was_allowed(tmp_path, monkeypatch, workers):
    monkeypatch.setattr(kernels, "_WORKERS", workers)
    path = write_config(tmp_path, GAMMA_CONFIG)
    assert main(["gamma", "--config", path, "--out", str(tmp_path / "out")]) == EXIT_OK
    assert json.loads((tmp_path / "out" / "manifest.json").read_text())["workers"] == workers


def test_reruns_reproduce_identical_digests(tmp_path):
    path = write_config(tmp_path, GAMMA_CONFIG)
    m = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["gamma", "--config", path, "--out", str(out)]) == EXIT_OK
        m.append(json.loads((out / "manifest.json").read_text())["digests"])
    assert m[0] == m[1]


def test_simulate_rerun_byte_identical(tmp_path):
    cfg = {
        "experiment": "simulate",
        "seed": 5,
        "samples": 400,
        "family": "gaussian_linear",
        "index_count": 4,
        "basis_count": 2,
        "row_modes": [2],
        "fit_exponent": False,
    }
    path = write_config(tmp_path, cfg)
    texts = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["simulate", "--config", path, "--out", str(out)]) == EXIT_OK
        texts.append((out / "ensemble.csv").read_bytes())
    assert texts[0] == texts[1]


def count_calls(monkeypatch, name):
    calls = []
    original = getattr(kernels, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(kernels, name, counted)
    return calls


def test_simulate_reduces_increments_against_t0_once(tmp_path, monkeypatch):
    # sup_samples, empirical_tail and ensemble.csv all read the same norms
    calls = count_calls(monkeypatch, "ensemble_norms_vs_ref")
    cfg = {
        "experiment": "simulate",
        "seed": 5,
        "samples": 400,
        "index_count": 4,
        "basis_count": 2,
        "row_modes": [2],
        "t0": 1,
        "verify_tail": True,
    }
    path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "out")]) == EXIT_OK
    assert len(calls) == 1


def test_gamma_covers_once_per_radius(tmp_path, monkeypatch):
    # one greedy_cover call per run counts every radius of the curve, on
    # either side of the exact-cover limit of 20 points; the entropy
    # integral and covering.csv share it
    calls = count_calls(monkeypatch, "greedy_cover")
    for size in (24, 20):
        calls.clear()
        points = trng.stream(3, 0).uniform(-1.0, 1.0, (size, 2)).tolist()
        cfg = {"experiment": "gamma", "seed": 0, "points": points}
        path = write_config(tmp_path, cfg)
        out = tmp_path / f"out{size}"
        assert main(["gamma", "--config", path, "--out", str(out)]) == EXIT_OK
        dist = FiniteMetricSpace.from_points(points).distance_matrix("euclidean")
        radii = np.unique(dist[dist > 0])
        assert len(calls) == 1
        assert np.array_equal(calls[0][1], np.concatenate(([0.0], radii)))
        assert len((out / "covering.csv").read_text().splitlines()) == 1 + radii.size


@pytest.mark.parametrize("size, exact", [(20, True), (21, False)])
def test_gamma_reports_whether_covering_numbers_are_exact(tmp_path, size, exact):
    points = trng.stream(3, 0).uniform(-1.0, 1.0, (size, 2)).tolist()
    path = write_config(tmp_path, {"experiment": "gamma", "seed": 0, "points": points})
    out = tmp_path / "out"
    assert main(["gamma", "--config", path, "--out", str(out)]) == EXIT_OK
    assert json.loads((out / "report.json").read_text())["covering_exact"] is exact


def test_verdict_failure_exit_code(tmp_path):
    # an under-scaled metric with an overclaimed cubic tail must exit 4
    cfg = {
        "experiment": "simulate",
        "seed": 6,
        "samples": 2000,
        "family": "gaussian_linear",
        "tail_beta": 3.0,
        "metric_scale": 0.5,
        "index_count": 6,
        "basis_count": 3,
        "row_modes": [2],
        "fit_exponent": False,
        "verify_tail": True,
        "tail_u_grid": [1.0, 1.5, 2.0, 2.5, 3.0],
    }
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--out", str(out)]) == EXIT_VERDICT
    report = json.loads((out / "report.json").read_text())
    assert report["increment_tail"]["verdict"] == "violated"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["verdicts"] == ["violated"]


def test_rip_experiment_outputs(tmp_path):
    cfg = {
        "experiment": "rip",
        "seed": 7,
        "col_dims": [8],
        "target_size": 4,
        "xi": 2,
        "tau": 0.5,
        "trials": 20,
        "operator": "fourier",
    }
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["rip", "--config", path, "--out", str(out)]) == EXIT_OK
    rep = json.loads((out / "rip_report.json").read_text())
    assert rep["trials"] == 20 and len(rep["tau_values"]) == 20
    lines = (out / "rip_trials.csv").read_text().strip().splitlines()
    assert lines[0] == "trial,tau_value" and len(lines) == 21


def test_fourier_rip_scans_xi_5_on_64_columns(tmp_path):
    # 595 665 orbit representatives are within the budget; all C(64, 5) are not
    taus = {}
    for xi in (4, 5):
        cfg = {**RIP, "col_dims": [64], "target_size": 32, "xi": xi, "trials": 2}
        assert validate(cfg) == []
        path = write_config(tmp_path, cfg)
        out = tmp_path / f"out{xi}"
        assert main(["rip", "--config", path, "--out", str(out)]) == EXIT_OK
        rep = json.loads((out / "rip_report.json").read_text())
        assert rep["method"] == "exact"
        taus[xi] = rep["tau_values"]
    # interlacing: a larger support deviates at least as far
    assert all(t5 >= t4 for t4, t5 in zip(taus[4], taus[5]))
    unitary = {**RIP, "col_dims": [64], "target_size": 32, "xi": 5, "operator": {"seed": 1}}
    assert any("capacity" in d for d in validate(unitary))


def test_verify_experiments_hold(tmp_path):
    for kind, extra in (
        ("verify-azuma", {"steps": 10, "row_modes": [2]}),
        ("verify-bernstein", {"n": 10, "row_modes": [2]}),
    ):
        cfg = {"experiment": kind, "seed": 8, "samples": 2000, **extra}
        path = write_config(tmp_path, cfg, name=f"{kind}.json")
        out = tmp_path / kind
        assert main([kind, "--config", path, "--out", str(out)]) == EXIT_OK
        rep = json.loads((out / "bound_report.json").read_text())
        assert rep["verdict"] == "holds"


def test_empirical_and_mixed_tail_hold(tmp_path):
    emp = {
        "experiment": "empirical",
        "seed": 9,
        "samples": 2000,
        "row_modes": [2],
        "t_count": 3,
        "n": 6,
    }
    path = write_config(tmp_path, emp, name="emp.json")
    out = tmp_path / "emp"
    assert main(["empirical", "--config", path, "--out", str(out)]) == EXIT_OK
    assert json.loads((out / "bound_report.json").read_text())["verdict"] == "holds"

    mixed = {
        "experiment": "mixed-tail",
        "seed": 10,
        "samples": 2000,
        "row_modes": [2],
        "index_count": 4,
        "basis_count": 2,
    }
    path = write_config(tmp_path, mixed, name="mixed.json")
    out = tmp_path / "mixed"
    assert main(["mixed-tail", "--config", path, "--out", str(out)]) == EXIT_OK
    assert json.loads((out / "bound_report.json").read_text())["verdict"] == "holds"


BLOCKED_MIXED = {
    "experiment": "mixed-tail",
    "seed": 10,
    "samples": 300,
    "row_modes": [2],
    "index_count": 4,
    "basis_count": 2,
}


def test_mixed_tail_reduces_one_block_at_a_time(tmp_path, monkeypatch):
    # 4 indices of 2x2 unfoldings and 2 + 2 weights: forming every increment
    # of a sample holds 4 x (4 x 4 + 4) reals, 40 complex entries, so 64
    # samples per block, each bounded and reduced by one call; in one
    # process, where the calls are counted
    monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", 40 * 64)
    monkeypatch.setattr(kernels, "_WORKERS", 1)
    calls = count_calls(monkeypatch, "_top_then_ties")
    path = write_config(tmp_path, BLOCKED_MIXED)
    assert main(["mixed-tail", "--config", path, "--out", str(tmp_path / "o")]) == EXIT_OK
    assert len(calls) == math.ceil(300 / 64)
    assert [len(args[0]) for args in calls] == [64, 64, 64, 64, 44]


def test_mixed_tail_blocks_shared_by_two_workers_write_the_same_bytes(tmp_path, monkeypatch):
    # the blocks above, shared by two processes: this one reduces the first
    # share of the 6 blocks of 50 samples the cut for two workers gives
    monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", 40 * 64)
    monkeypatch.setattr(kernels, "_FORK_WORK", 0)
    calls = count_calls(monkeypatch, "_top_then_ties")
    path = write_config(tmp_path, BLOCKED_MIXED)
    outputs = {}
    for workers in (1, 2):
        monkeypatch.setattr(kernels, "_WORKERS", workers)
        out = tmp_path / str(workers)
        assert main(["mixed-tail", "--config", path, "--out", str(out)]) == EXIT_OK
        outputs[workers] = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
    assert outputs[2] == outputs[1]
    assert [len(args[0]) for args in calls] == [64, 64, 64, 64, 44] + [50, 50, 50]


# each config with the count of blocks its statistic reduces: samples x
# index_count increments against t0, or one weighted sum per sample
@pytest.mark.parametrize(
    "config, blocks",
    [
        ({"experiment": "mixed-tail", "seed": 5, "samples": 2000, "index_count": 16,
          "basis_count": 4, "row_modes": [2, 2]}, 2000 * 16),
        ({"experiment": "verify-azuma", "seed": 6, "samples": 4000, "steps": 8,
          "row_modes": [2, 2]}, 4000),
        ({"experiment": "verify-bernstein", "seed": 7, "samples": 4000, "n": 8,
          "row_modes": [2, 2]}, 4000),
        ({"experiment": "empirical", "seed": 8, "samples": 4000, "t_count": 8, "n": 8,
          "row_modes": [2, 2]}, 4000 * 8),
    ],
    ids=["mixed-tail", "verify-azuma", "verify-bernstein", "empirical"],
)
def test_bound_first_experiments_eigensolve_few_blocks(tmp_path, monkeypatch, config, blocks):
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def counting(mats, *args, **kwargs):
        solved.append(math.prod(mats.shape[:-2]))
        return eigvalsh(mats, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    kind = config["experiment"]
    path = write_config(tmp_path, config)
    assert main([kind, "--config", path, "--out", str(tmp_path / "o")]) == EXIT_OK
    assert 0 < sum(solved) <= blocks / 4


SAMPLING = {"seed": 3, "samples": 50, "row_modes": [2]}
SIMULATE = {"experiment": "simulate", "index_count": 4, "basis_count": 2, **SAMPLING}
MIXED = {"experiment": "mixed-tail", "index_count": 4, "basis_count": 2, **SAMPLING}
EMPIRICAL = {"experiment": "empirical", "t_count": 3, "n": 4, **SAMPLING}
GAMMA = {"experiment": "gamma", "seed": 0, "points": [[0.0], [1.0], [3.0]]}
RIP = {
    "experiment": "rip",
    "seed": 7,
    "col_dims": [8],
    "target_size": 4,
    "xi": 2,
    "tau": 0.5,
    "trials": 5,
}
AZUMA = {"experiment": "verify-azuma", "steps": 4, **SAMPLING}
BERNSTEIN = {"experiment": "verify-bernstein", "n": 4, **SAMPLING}


def test_rip_scan_refuses_past_its_eigensolve_budget(tmp_path, capsys, monkeypatch):
    # every row kept: G = I up to rounding ties every bound with the best, so
    # the scan eigensolves every support it bounds and every orbit
    cfg = {**RIP, "col_dims": [16], "target_size": 16, "xi": 3, "trials": 2}
    path = write_config(tmp_path, cfg)
    assert main(["rip", "--config", path, "--out", str(tmp_path / "full")]) == EXIT_OK
    monkeypatch.setattr(kernels, "SUPPORT_BUDGET", 200)  # bounds C(15, 2) = 105
    assert validate(cfg) == []
    out = tmp_path / "out"
    assert main(["rip", "--config", path, "--out", str(out)]) == EXIT_CAPACITY
    err = capsys.readouterr().err
    assert err.startswith("capacity error: ") and "budget of 200" in err
    assert not out.exists()


# each experiment over the held-entry budget, with the key that brings it
# within: samples x index_count x D^2 trajectory entries, samples x K
# weights, mixed-tail's suprema, empirical's t_count x n x D^2 parameters and
# t_count x t_count metrics
@pytest.mark.parametrize(
    "config, key",
    [
        ({**SIMULATE, "samples": 2**23, "row_modes": [4]}, "samples"),
        ({**MIXED, "samples": 2**27}, "samples"),
        ({**EMPIRICAL, "samples": 2**25}, "samples"),
        ({**EMPIRICAL, "t_count": 2**12, "n": 2**20}, "t_count"),
        ({**EMPIRICAL, "t_count": 2**14, "n": 1}, "t_count"),
        ({**AZUMA, "samples": 2**25}, "samples"),
        ({**BERNSTEIN, "samples": 2**25}, "samples"),
    ],
    ids=["simulate", "mixed-tail", "empirical-weights", "empirical-parameters",
         "empirical-metrics", "verify-azuma", "verify-bernstein"],
)
def test_held_entries_are_bounded_before_anything_is_drawn(
    tmp_path, capsys, monkeypatch, config, key
):
    def refuse(*args, **kwargs):
        raise AssertionError("drew past the entry budget")

    monkeypatch.setattr(processes, "_realize", refuse)
    monkeypatch.setattr(processes, "_draw", refuse)
    monkeypatch.setattr(trng, "noise", refuse)
    monkeypatch.setattr(cli, "diagonal_family", refuse)
    kind = config["experiment"]
    path = write_config(tmp_path, config)
    out = tmp_path / "out"
    assert main([kind, "--config", path, "--out", str(out)]) == EXIT_CAPACITY
    err = capsys.readouterr().err
    assert "capacity: the run holds" in err and f"budget of {cli._ENTRY_BUDGET}" in err
    assert not out.exists()
    # scaled down to the budget the config passes
    entries = cli._ENTRIES[kind](config)
    assert validate({**config, key: config[key] * cli._ENTRY_BUDGET // entries}) == []


def test_entry_budget_counts_what_a_run_holds_not_its_work():
    # mixed-tail bounds 600 000 x 16 increments of 4 x 4 matrices, a chunk
    # at a time, forms only those that may hold a supremum, and holds only
    # its 600 000 suprema
    assert validate({**MIXED, "samples": 600_000, "index_count": 16, "row_modes": [2, 2]}) == []
    # simulate builds its metric and pair increments only under verify_tail
    assert validate({**SIMULATE, "index_count": 100_000}) == []


# the two n x n distance matrices of a metric, and under verify_tail the
# one-sample chunk of all pair increments and its threshold rows
@pytest.mark.parametrize(
    "config",
    [
        {**MIXED, "index_count": 20_000},
        {**SIMULATE, "index_count": 100_000, "verify_tail": True},
        {**GAMMA, "points": [[float(k), 0.0, 1.0] for k in range(6000)]},
    ],
    ids=["mixed-tail", "simulate-verify-tail", "gamma"],
)
def test_metric_and_pair_arrays_are_bounded_before_they_are_built(
    tmp_path, capsys, monkeypatch, config
):
    def refuse(*args, **kwargs):
        raise AssertionError("built past the entry budget")

    monkeypatch.setattr(chaining, "euclidean_distances", refuse)
    monkeypatch.setattr(processes, "euclidean_distances", refuse)
    monkeypatch.setattr(processes, "_realize", refuse)
    monkeypatch.setattr(processes, "_draw", refuse)
    kind = config["experiment"]
    path = write_config(tmp_path, config)
    out = tmp_path / "out"
    assert main([kind, "--config", path, "--out", str(out)]) == EXIT_CAPACITY
    err = capsys.readouterr().err
    assert "capacity: the run holds" in err and f"budget of {cli._ENTRY_BUDGET}" in err
    assert not out.exists()


# the D x D stacks held whatever the sample count: mixed-tail's one-sample
# trajectory chunk, a process basis, and the steps and n stacks of the Monte
# Carlo sums; row_modes [64, 64] makes D^2 = 2^24
@pytest.mark.parametrize(
    "config",
    [
        {**MIXED, "index_count": 5, "row_modes": [64, 64]},
        {**MIXED, "basis_count": 5, "row_modes": [64, 64]},
        {**SIMULATE, "samples": 2, "index_count": 2, "basis_count": 5, "row_modes": [64, 64]},
        {**AZUMA, "samples": 1, "steps": 8, "row_modes": [64, 64]},
        {**BERNSTEIN, "samples": 1, "n": 8, "row_modes": [64, 64]},
    ],
    ids=["mixed-tail-chunk", "mixed-tail-basis", "simulate-basis", "verify-azuma",
         "verify-bernstein"],
)
def test_dense_stacks_are_bounded_before_they_are_built(tmp_path, capsys, monkeypatch, config):
    def refuse(*args, **kwargs):
        raise AssertionError("built past the entry budget")

    monkeypatch.setattr(cli, "random_hermitian", refuse)
    monkeypatch.setattr(processes, "_realize", refuse)
    monkeypatch.setattr(processes, "_draw", refuse)
    kind = config["experiment"]
    path = write_config(tmp_path, config)
    out = tmp_path / "out"
    assert main([kind, "--config", path, "--out", str(out)]) == EXIT_CAPACITY
    err = capsys.readouterr().err
    assert "capacity: the run holds" in err and f"budget of {cli._ENTRY_BUDGET}" in err
    assert not out.exists()


@pytest.mark.parametrize("operator", ["fourier", {"seed": 5}])
def test_rip_unitary_and_gram_are_bounded_before_they_are_built(
    tmp_path, capsys, monkeypatch, operator
):
    # three N x N arrays: 3 x 4729^2 fits the budget of 2^26, 3 x 4730^2 not
    config = {**RIP, "xi": 1, "operator": operator}
    assert validate({**config, "col_dims": [4729]}) == []
    assert validate({**config, "col_dims": [4730]})[0].startswith("capacity:")

    def refuse(*args, **kwargs):
        raise AssertionError("built past the entry budget")

    monkeypatch.setattr(cli, "fourier_unitary", refuse)
    monkeypatch.setattr(cli, "random_unitary", refuse)
    path = write_config(tmp_path, {**config, "col_dims": [65536]})
    out = tmp_path / "out"
    assert main(["rip", "--config", path, "--out", str(out)]) == EXIT_CAPACITY
    err = capsys.readouterr().err
    assert "capacity: the run holds" in err and f"budget of {cli._ENTRY_BUDGET}" in err
    assert not out.exists()


# support counts of thousands or millions of digits: C(299 999, 149 999),
# C(20 000, 10 000) and C(3 999 999, 1 999 999), the last slow to form in full
@pytest.mark.parametrize(
    "config",
    [
        {**RIP, "col_dims": [300_000], "xi": 150_000},
        {**RIP, "col_dims": [20_000], "xi": 10_000, "operator": {"seed": 1}},
        {**RIP, "col_dims": [2000, 2000], "xi": 2_000_000},
    ],
    ids=["fourier", "random-unitary", "fourier-2d"],
)
def test_huge_support_counts_exit_with_a_capacity_diagnostic(tmp_path, capsys, config):
    path = write_config(tmp_path, {**config, "target_size": 1})
    out = tmp_path / "out"
    assert main(["rip", "--config", path, "--out", str(out)]) == EXIT_CAPACITY
    err = capsys.readouterr().err
    assert "capacity: xi/col_dims: the scan bounds more than" in err
    assert "Traceback" not in err and not out.exists()


def test_huge_entry_counts_exit_with_a_capacity_diagnostic(tmp_path, capsys):
    # D^2 = 2^18 600: an int of 5 600 digits, past what Python writes out
    path = write_config(tmp_path, {**SIMULATE, "row_modes": [2**31] * 300})
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--out", str(out)]) == EXIT_CAPACITY
    err = capsys.readouterr().err
    assert "capacity: the run holds at least 2^" in err
    assert f"budget of {cli._ENTRY_BUDGET}" in err and not out.exists()


@pytest.mark.parametrize(
    "config, key, largest",
    [
        # 2 x n^2: the metric and its frozen copy, whatever the basis_count
        ({**MIXED, "basis_count": 4}, "index_count", 5792),
        # a sample's block and its two pair gathers, (n + 2 x pairs) x 2^2 = 4 n^2,
        # beside the 50 x (2 + n) weights and norms
        ({**SIMULATE, "verify_tail": True}, "index_count", 4089),
        ({**GAMMA, "points": None}, "points", 5792),  # 2 x 5792^2 <= 2^26, whatever dim
    ],
    ids=["mixed-tail", "simulate-verify-tail", "gamma"],
)
def test_metric_and_pair_arrays_fill_the_budget_exactly(config, key, largest):
    def sized(n):
        return [[0.0, 0.0]] * n if key == "points" else n

    assert validate({**config, key: sized(largest)}) == []
    assert validate({**config, key: sized(largest + 1)})[0].startswith("capacity:")


@pytest.mark.parametrize(
    "config, key",
    [
        ({**SIMULATE, "samples": 1}, "samples"),
        ({**SIMULATE, "gauge": "bogus"}, "gauge"),
        ({**SIMULATE, "seed": True}, "seed"),
        ({**SIMULATE, "basis_count": True}, "basis_count"),
        ({**SIMULATE, "u_grid": {"start": 0}}, "u_grid"),
        ({**SIMULATE, "tail_u_grid": {"start": 0, "stop": 2}}, "tail_u_grid"),
        ({**MIXED, "constants": {"chain_konst": 1.0}}, "chain_konst"),
        ({**MIXED, "u_grid": {"stop": 3, "points": 4}}, "u_grid"),
        ({**EMPIRICAL, "constants": {"bogus": 2.0, "chain_const": 1.0}}, "bogus"),
        ({**EMPIRICAL, "u_grid": {"start": 1, "stop": 2, "points": "4"}}, "u_grid"),
        ({**EMPIRICAL, "constants": {"chain_const": "1"}}, "constants"),
        # values of the wrong form
        ({**SIMULATE, "t0": "x"}, "t0"),
        ({**SIMULATE, "basis_seed": "abc"}, "basis_seed"),
        ({**SIMULATE, "tail_beta": "x"}, "tail_beta"),
        ({**SIMULATE, "metric_scale": "x"}, "metric_scale"),
        ({**SIMULATE, "coefficients": "abc"}, "coefficients"),
        ({**SIMULATE, "u_grid": "x"}, "u_grid"),
        ({**GAMMA, "points": "ab"}, "points"),
        ({**GAMMA, "points": [[0], [1, 2]]}, "points"),
        ({**GAMMA, "p_values": ["a"]}, "p_values"),
        ({**GAMMA, "p_values": 3}, "p_values"),
        ({**GAMMA, "metric_id": 5}, "metric_id"),
        ({**RIP, "operator": {}}, "operator"),
        ({**RIP, "operator": "bogus"}, "operator"),
        ({**RIP, "operator": {"seed": "x"}}, "operator"),
        ({**AZUMA, "difference_seed": "x"}, "difference_seed"),
        ({**AZUMA, "u_sigma_factors": "ab"}, "u_sigma_factors"),
        ({**BERNSTEIN, "u_grid": "ab"}, "u_grid"),
        ({**BERNSTEIN, "u_grid": {"start": 1, "stop": 2, "points": 3}}, "u_grid"),
        ({**EMPIRICAL, "family_seed": "x"}, "family_seed"),
        # values that must not be coerced, ignored or empty
        ({**SIMULATE, "t0": 1.7}, "t0"),
        ({**SIMULATE, "verify_tail": "no"}, "verify_tail"),
        ({**SIMULATE, "coefficients": [[0.5, 1.0], [1.0, 0.5]]}, "coefficients"),
        ({**MIXED, "basis_seed": 1.5}, "basis_seed"),
        ({**MIXED, "family": "gaussian_linear"}, "family"),
        ({**MIXED, "tail_beta": 2.0}, "tail_beta"),
        ({**MIXED, "t0": 0}, "t0"),
        ({**BERNSTEIN, "envelope_seed": -1}, "envelope_seed"),
        ({**SIMULATE, "sampels": 60}, "sampels"),
        ({**GAMMA, "bta": 2.0}, "bta"),
        ({**RIP, "operater": "fourier"}, "operater"),
        ({**AZUMA, "step": 4}, "step"),
        ({**BERNSTEIN, "u-grid": [1.0]}, "u-grid"),
        ({**EMPIRICAL, "noize": "uniform"}, "noize"),
        ({**MIXED, "constant": {}}, "constant"),
        ({**GAMMA, "matrix": [[0.0, 1.0], [1.0, 0.0]]}, "matrix"),
        ({**GAMMA, "points": []}, "points"),
        ({**MIXED, "u_grid": []}, "u_grid"),
        ({**EMPIRICAL, "u_grid": []}, "u_grid"),
        ({**AZUMA, "u_sigma_factors": []}, "u_sigma_factors"),
        # fitted tail bounds are stated for u >= 1 only
        ({**MIXED, "u_grid": [0.5, 1.0]}, "u_grid"),
        ({**MIXED, "u_grid": {"start": 0, "stop": 2, "points": 3}}, "u_grid"),
        ({**EMPIRICAL, "u_grid": [0.5, 1.0]}, "u_grid"),
        ({**EMPIRICAL, "u_grid": {"start": 0, "stop": 2, "points": 3}}, "u_grid"),
        ({**AZUMA, "u_sigma_factors": [-1.0, 2.0]}, "u_sigma_factors"),
        # constants the bound does not read
        ({**MIXED, "constants": {"chain_const": 1000.0}}, "chain_const"),
        ({**EMPIRICAL, "constants": {"diam_const": 2.0}}, "diam_const"),
        ({**MIXED, "constants": {"mixed_chain_const": "1"}}, "constants"),
        # a chaining weight 2^(n/beta) that overflows; moments below 1
        ({**GAMMA, "points": [[0.0], [1.0], [3.0], [4.0], [7.0]], "beta": 1e-3}, "beta"),
        ({**GAMMA, "p_values": [0.5]}, "p_values"),
        # sizes beyond the largest addressable unfolding side
        ({**EMPIRICAL, "samples": 10**20}, "samples"),
        ({**MIXED, "samples": 10**20}, "samples"),
        ({**SIMULATE, "index_count": 10**20}, "index_count"),
        ({**SIMULATE, "u_grid": {"start": 0, "stop": 1, "points": 10**20}}, "u_grid"),
        # a support larger than the column count prod(col_dims) = 8
        ({**RIP, "xi": 9}, "xi"),
        # nonpositive constants, refused by validate, not after sampling
        ({**MIXED, "constants": {"mixed_chain_const": 0}}, "constants"),
        ({**MIXED, "constants": {"mixed_scale_const": -1.0}}, "constants"),
        ({**EMPIRICAL, "constants": {"mixed_chain_const": 0}}, "constants"),
        ({**EMPIRICAL, "constants": {"mixed_scale_const": -1.0}}, "constants"),
    ],
)
def test_bad_sampling_config_exits_with_diagnostic(tmp_path, capsys, config, key):
    # every experiment's table, not only the sampling ones
    kind = config["experiment"]
    path = write_config(tmp_path, config)
    out = tmp_path / "out"
    assert main([kind, "--config", path, "--out", str(out)]) == EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not out.exists()


# json.load reads NaN, Infinity and 1e400 as floats, and 10**400 as an int
# no float holds; each replaces "X"
@pytest.mark.parametrize(
    "token", ["NaN", "Infinity", "1e400", pytest.param("1" + "0" * 400, id="10**400")]
)
@pytest.mark.parametrize(
    "config, key",
    [
        ({**GAMMA, "p_values": [1, "X"]}, "p_values"),
        ({**GAMMA, "beta": "X"}, "beta"),
        ({**GAMMA, "points": [[0.0], ["X"], [3.0]]}, "points"),
        ({**AZUMA, "u_sigma_factors": [2.0, "X"]}, "u_sigma_factors"),
        ({**BERNSTEIN, "u_grid": [1.0, "X"]}, "u_grid"),
        ({**MIXED, "constants": {"mixed_chain_const": "X", "mixed_scale_const": 1.0}},
         "constants"),
        ({**SIMULATE, "u_grid": {"start": 0, "stop": "X", "points": 3}}, "u_grid"),
        ({**SIMULATE, "coefficients": [[0.5, "X"]] * 4}, "coefficients"),
        ({**RIP, "tau": "X"}, "tau"),
    ],
)
def test_nonfinite_number_exits_with_diagnostic(tmp_path, capsys, config, key, token):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config).replace('"X"', token))
    out = tmp_path / "out"
    assert main([config["experiment"], "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_grid_points_are_bounded_before_the_grid_is_built(tmp_path, capsys, monkeypatch):
    top = {"start": 0, "stop": 1, "points": cli._MAX_GRID_POINTS}
    assert validate({**SIMULATE, "u_grid": top}) == []

    def refuse(grid):
        raise AssertionError(f"built a grid of {grid['points']} points")

    monkeypatch.setattr(cli, "_u_grid", refuse)
    path = write_config(tmp_path, {**SIMULATE, "u_grid": {**top, "points": 2**31}})
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "u_grid" in err and f"from 1 to {cli._MAX_GRID_POINTS}" in err
    assert not out.exists()


# stop - start overflows, at 3 points and at 1; a finite span whose last
# spaced value, 3 * (max / 3), overflows
@pytest.mark.parametrize(
    "grid",
    [
        {"start": -1e308, "stop": 1e308, "points": 3},
        {"start": -1e308, "stop": 1e308, "points": 1},
        {"start": 0, "stop": sys.float_info.max, "points": 4},
    ],
)
def test_grid_spacing_that_overflows_exits_with_diagnostic(tmp_path, capsys, grid):
    path = write_config(tmp_path, {**SIMULATE, "u_grid": grid})
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "u_grid" in err and "overflows" in err
    assert not out.exists()


def test_grid_spacing_up_to_the_float_range_is_accepted():
    grid = {"start": 0, "stop": sys.float_info.max, "points": 3}
    assert validate({**SIMULATE, "u_grid": grid}) == []


def test_unusable_out_exits_with_diagnostic(tmp_path, capsys):
    path = write_config(tmp_path, GAMMA_CONFIG)
    out = tmp_path / "taken"
    out.write_text("a regular file")
    assert main(["gamma", "--config", path, "--out", str(out)]) == EXIT_CONFIG
    assert f"output error: {out}" in capsys.readouterr().err
    assert out.read_text() == "a regular file"


def test_readme_configs_validate():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```json\n(.*?)```", readme, re.S)
    assert blocks
    for block in blocks:
        assert validate(json.loads(block)) == []


def test_failed_run_leaves_no_output_directory(tmp_path, capsys):
    # t0 passes its own check but lies outside the 4-index space
    path = write_config(tmp_path, {**SIMULATE, "t0": 9})
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--out", str(out)]) == EXIT_CONFIG
    assert "outside the space" in capsys.readouterr().err
    assert not out.exists()


def test_gamma_on_a_matrix_that_breaks_the_triangle_inequality(tmp_path, capsys):
    matrix = [[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]]
    path = write_config(tmp_path, {"experiment": "gamma", "seed": 0, "matrix": matrix})
    out = tmp_path / "out"
    assert main(["gamma", "--config", path, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "config error: metric 'euclidean' violates the triangle inequality\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "config, checked",
    [
        ({**MIXED, "index_count": 400, "basis_count": 4, "row_modes": [2, 2]}, []),
        ({**SIMULATE, "index_count": 16, "basis_count": 4, "verify_tail": True}, []),
        ({**GAMMA, "points": trng.stream(4, 0).uniform(0, 1, (100, 2)).tolist()}, []),
        ({"experiment": "gamma", "seed": 0, "matrix": [[0.0, 1.0], [1.0, 0.0]]}, [2]),
        ({**EMPIRICAL, "t_count": 6}, [6, 6]),
    ],
    ids=["mixed-tail", "simulate", "gamma-points", "gamma-matrix", "empirical"],
)
def test_triangle_scans_run_only_on_metrics_without_a_certificate(
    tmp_path, monkeypatch, config, checked
):
    sizes = []
    check = kernels.max_triangle_violation
    monkeypatch.setattr(
        kernels, "max_triangle_violation", lambda d: sizes.append(len(d)) or check(d)
    )
    path = write_config(tmp_path, config)
    out = str(tmp_path / "o")
    assert main([config["experiment"], "--config", path, "--out", out]) == EXIT_OK
    assert sizes == checked


def test_simulate_without_a_pair_at_positive_distance_is_rejected(tmp_path, capsys):
    # three equal coefficient rows: every increment is zero, nothing to test
    config = {
        **SIMULATE,
        "index_count": 3,
        "coefficients": [[0.5, -1.0]] * 3,
        "verify_tail": True,
        "fit_exponent": False,
        "u_grid": [1.0],
    }
    path = write_config(tmp_path, config)
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--out", str(out)]) == EXIT_CONFIG
    assert "positive distance" in capsys.readouterr().err
    assert not out.exists()


# collinear points and coefficient rows far from the origin: their computed
# distances break the triangle inequality by rounding alone, about 1e-8
@pytest.mark.parametrize(
    "config",
    [
        {"experiment": "gamma", "seed": 0,
         "points": [[1e7 * x, 2e7 * x] for x in (np.linspace(0.0, 1.0, 30) ** 2).tolist()]},
        {**MIXED, "index_count": 20, "basis_count": 3,
         "coefficients": [[1e6 * x, -2e6 * x, 3e6 * x]
                          for x in (np.linspace(-1.0, 1.0, 20) ** 3).tolist()],
         "constants": {"mixed_chain_const": 1.0, "mixed_scale_const": 1.0}},
    ],
    ids=["gamma", "mixed-tail"],
)
def test_distances_far_from_the_origin_are_metrics(tmp_path, config):
    path = write_config(tmp_path, config)
    assert main([config["experiment"], "--config", path, "--out", str(tmp_path / "o")]) == EXIT_OK


# a numpy overflow warning would print to stderr ahead of the diagnostic
@pytest.mark.filterwarnings("error")
def test_overflowing_gamma_prints_only_the_diagnostic(tmp_path, capfd):
    # finite weights 2^(n/beta), a chaining sum beyond the largest float
    pts = np.array([0.0, 1.0, 3.0, 4.0, 7.0])
    matrix = (1e300 * np.abs(pts[:, None] - pts[None, :])).tolist()
    config = {"experiment": "gamma", "seed": 0, "matrix": matrix, "beta": 0.01}
    path = write_config(tmp_path, config)
    out = tmp_path / "out"
    assert main(["gamma", "--config", path, "--out", str(out)]) == EXIT_CONFIG
    err = capfd.readouterr().err
    assert err.startswith("config error: beta 0.01 is too small")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_overflowing_metric_scale_prints_only_the_diagnostic(tmp_path, capfd):
    config = {**SIMULATE, "metric_scale": 1e308, "verify_tail": True}
    path = write_config(tmp_path, config)
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--out", str(out)]) == EXIT_CONFIG
    err = capfd.readouterr().err
    assert err == "config error: metric 'increment' has non-finite entries\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_overflowing_tail_beta_prints_only_the_verdict(tmp_path, capfd):
    # u**beta overflows for every u > 1, where the bound 2 exp(-u**beta) is 0
    config = {
        **SIMULATE,
        "tail_beta": 1e308,
        "metric_scale": 0.5,
        "verify_tail": True,
        "fit_exponent": False,
    }
    path = write_config(tmp_path, config)
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--out", str(out)]) == EXIT_VERDICT
    assert capfd.readouterr().err == "bound verdict: violated\n"
    rows = json.loads((out / "report.json").read_text())["increment_tail"]["rows"]
    assert [row["prob_bound"] for row in rows if row["u"] > 1.0] == [0.0] * 4


@pytest.mark.filterwarnings("error")
def test_simulate_reads_the_metric_only_to_verify_the_tail(tmp_path, capfd):
    # distances scaled by 1e308 overflow; the realizations and their norms do not
    config = {**SIMULATE, "index_count": 3, "metric_scale": 1e308, "fit_exponent": False}
    path = write_config(tmp_path, config)
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "a")]) == EXIT_OK
    path = write_config(tmp_path, {**config, "verify_tail": True})
    code = main(["simulate", "--config", path, "--out", str(tmp_path / "b")])
    assert code == EXIT_CONFIG
    err = capfd.readouterr().err
    assert err == "config error: metric 'increment' has non-finite entries\n"


# coefficients that pass validation, whose realizations overflow
HUGE = {"index_count": 2, "basis_count": 1, "coefficients": [[1e308], [-1e308]]}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "config",
    [{**SIMULATE, **HUGE}, {**SIMULATE, **HUGE, "verify_tail": True}, {**MIXED, **HUGE}],
    ids=["simulate", "simulate-verify-tail", "mixed-tail"],
)
def test_overflowing_realizations_print_only_the_diagnostic(tmp_path, capfd, config):
    path = write_config(tmp_path, config)
    out = tmp_path / "out"
    assert main([config["experiment"], "--config", path, "--out", str(out)]) == EXIT_CONFIG
    err = capfd.readouterr().err
    assert err.startswith("config error: realized trajectories overflow: ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_overflow_refused_in_a_child_exits_as_in_one_process(tmp_path, monkeypatch, capfd):
    # one basis matrix and two indices, coefficients 0 and c: a sample's
    # entries are c times those at c = 1, and c puts the limit between the
    # largest entry of the first half of the samples and the largest of the
    # second, the share a forked child reduces, in several blocks
    monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", 20 * 64)
    monkeypatch.setattr(kernels, "_FORK_WORK", 0)
    cfg = {**MIXED, "seed": 5, "samples": 200, "index_count": 2, "basis_count": 1}
    p = cli._settings({**cfg, "coefficients": [[0.0], [1.0]]})
    specs = [cli._build_process_spec(p, family, p["basis_seed"] + shift, 1.0)
             for family, shift in (("gaussian_linear", 0), ("subexponential_linear", 1000))]
    parts = processes._realize(specs, p["seed"], 0, 200).view(np.float64)
    top = np.abs(parts).reshape(200, -1).max(axis=1)
    slices = list(kernels.chunks(200, processes._mixed_sample_entries(2, 2, 4), 2))
    half = slices[len(slices) // 2].start
    assert top[half:].max() > 1.01 * top[:half].max()
    c = processes._entry_limit(2) / math.sqrt(top[:half].max() * top[half:].max())
    path = write_config(tmp_path, {**cfg, "coefficients": [[0.0], [c]]})
    printed = {}
    for workers in (1, 2):
        monkeypatch.setattr(kernels, "_WORKERS", workers)
        out = tmp_path / str(workers)
        assert main(["mixed-tail", "--config", path, "--out", str(out)]) == EXIT_CONFIG
        printed[workers] = capfd.readouterr()
        assert not out.exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    assert printed[2] == printed[1]
    assert printed[1].out == ""
    assert re.fullmatch(r"config error: realized trajectories overflow: [^\n]*\n", printed[1].err)


def test_a_killed_worker_exits_with_its_own_diagnostic(tmp_path, monkeypatch, capfd):
    # mixed-tail's sample blocks are shared by two processes, whatever the
    # work; the forked one is killed as it draws
    monkeypatch.setattr(kernels, "_FORK_WORK", 0)
    monkeypatch.setattr(kernels, "_WORKERS", 2)
    parent, draw = os.getpid(), processes._draw

    def killed(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return draw(*args)

    monkeypatch.setattr(processes, "_draw", killed)
    path = write_config(tmp_path, {**MIXED, "seed": 5, "samples": 200})
    out = tmp_path / "out"
    assert main(["mixed-tail", "--config", path, "--out", str(out)]) == EXIT_CAPACITY
    err = capfd.readouterr().err
    assert re.fullmatch(r"worker error: worker \d+ ended without a result: killed by signal 9\n", err)
    assert not out.exists()
    with pytest.raises(ChildProcessError):  # every child reaped
        os.waitpid(-1, os.WNOHANG)


# the squares of these distances under- or overflow; the distances do not
POINTS = [[0.0, 0.0], [1.0, 0.0], [0.0, 3.0], [2.0, 2.0]]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_gamma_of_points_whose_squares_leave_the_float_range(tmp_path, scale):
    reports = {}
    for factor in (1.0, scale):
        points = (factor * np.array(POINTS)).tolist()
        path = write_config(tmp_path, {"experiment": "gamma", "seed": 0, "points": points})
        out = tmp_path / str(factor)
        assert main(["gamma", "--config", path, "--out", str(out)]) == EXIT_OK
        reports[factor] = json.loads((out / "report.json").read_text())
    for key in ("diameter", "dudley_integral", "gamma_greedy"):
        assert reports[scale][key] == pytest.approx(scale * reports[1.0][key], rel=1e-12, abs=0)


@pytest.mark.filterwarnings("error")
def test_gamma_of_points_whose_distance_overflows(tmp_path, capfd):
    # each coordinate of the first point is finite, its distance to 0 is not
    points = [[1.5e308, 1.5e308], [0.0, 0.0], [1.0, 0.0]]
    path = write_config(tmp_path, {"experiment": "gamma", "seed": 0, "points": points})
    out = tmp_path / "out"
    assert main(["gamma", "--config", path, "--out", str(out)]) == EXIT_CONFIG
    assert capfd.readouterr().err == "config error: metric 'euclidean' has non-finite entries\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_simulate_tail_at_coefficients_whose_squares_underflow(tmp_path):
    # distance 1e-200 between two distinct indices, not zero
    config = {
        **SIMULATE,
        "index_count": 2,
        "basis_count": 1,
        "coefficients": [[1e-200], [2e-200]],
        "verify_tail": True,
        "fit_exponent": False,
    }
    path = write_config(tmp_path, config)
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--out", str(out)]) == EXIT_OK
    tail = json.loads((out / "report.json").read_text())["increment_tail"]
    assert tail["inputs"]["pairs_tested"] == 1


# a row is finite or refused: no traceback, no Infinity, no numpy warning
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "config, refused",
    [
        ({**AZUMA, "u_sigma_factors": [1e200]}, None),
        ({**BERNSTEIN, "u_grid": [1e308]}, 1e308),
        ({**MIXED, "u_grid": [1e308]}, 1e308),
        ({**MIXED, "metric_scale": 3e307}, 1.0),
        ({**SIMULATE, "verify_tail": True, "tail_u_grid": [1e308]}, None),
    ],
    ids=["verify-azuma", "verify-bernstein", "mixed-tail-u", "mixed-tail-scale", "simulate"],
)
def test_huge_grid_values_give_finite_rows_or_a_diagnostic(tmp_path, capfd, config, refused):
    kind = config["experiment"]
    path = write_config(tmp_path, config)
    out = tmp_path / "out"
    code = main([kind, "--config", path, "--out", str(out)])
    err = capfd.readouterr().err
    if refused is not None:
        assert code == EXIT_CONFIG and not out.exists()
        assert err == f"config error: u = {refused!r}: the threshold or bound is not finite\n"
        return
    assert code == EXIT_OK and err == ""
    report = json.loads(next(out.glob("*report.json")).read_text())
    rows = report.get("increment_tail", report)["rows"]
    assert rows[-1]["prob_bound"] == 0.0
    assert all(math.isfinite(row["threshold"]) for row in rows)


def drop_config_echo(out):
    """Output files by name; JSON reports without their config echo."""
    files = {}
    for path in sorted(out.iterdir()):
        if path.name == "manifest.json":
            continue
        if path.suffix == ".json":
            payload = json.loads(path.read_text())
            payload.pop("experiment_config")
            files[path.name] = payload
        else:
            files[path.name] = path.read_bytes()
    return files


@pytest.mark.parametrize(
    "minimal",
    [
        {**SIMULATE, "samples": 400},
        GAMMA,
        RIP,
        {**AZUMA, "samples": 400},
        {**BERNSTEIN, "samples": 400},
        {**EMPIRICAL, "samples": 400},
        {**MIXED, "samples": 400},
    ],
    ids=lambda c: c["experiment"],
)
def test_spelled_out_defaults_match_minimal_config(tmp_path, minimal):
    # a key left out must run exactly as the key given at its declared default
    full = dict(minimal)
    for key, (_, default) in cli._KEYS[minimal["experiment"]].items():
        if key not in minimal and default is not None:
            full[key] = default(minimal) if callable(default) else default
    assert len(full) > len(minimal)
    outputs = []
    for name, cfg in (("minimal", minimal), ("full", full)):
        path = write_config(tmp_path, cfg, name=f"{name}.json")
        out = tmp_path / name
        assert main([cfg["experiment"], "--config", path, "--out", str(out)]) == EXIT_OK
        outputs.append(drop_config_echo(out))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "error, label, code",
    [
        (FitFailureError, "fit failure", EXIT_CONFIG),
        (InsufficientDataError, "insufficient data", EXIT_CONFIG),
        (DegenerateMetricError, "degenerate metric", EXIT_CONFIG),
        (ValidationError, "config error", EXIT_CONFIG),
        (CapacityError, "capacity error", EXIT_CAPACITY),
    ],
)
def test_runtime_failure_is_named(tmp_path, capsys, monkeypatch, error, label, code):
    diagnostics = {"bound": "mixed", "violations": [{"u": 1.0, "empirical": 0.5}]}

    def failing_fit(*args, **kwargs):
        if error is FitFailureError:
            raise FitFailureError("no feasible constants", diagnostics)
        raise error("fit stopped")

    monkeypatch.setattr(cli, "fit_constants", failing_fit)
    path = write_config(tmp_path, MIXED)
    out = tmp_path / "out"
    assert main(["mixed-tail", "--config", path, "--out", str(out)]) == code
    assert capsys.readouterr().err.startswith(f"{label}: ")
    written = out / "fit_diagnostics.json"
    if error is FitFailureError:
        assert json.loads(written.read_text()) == diagnostics
    else:
        assert not written.exists()


def run_into(tmp_path, config, out):
    path = write_config(tmp_path, config, name=f"{config['experiment']}.json")
    return main([config["experiment"], "--config", path, "--out", str(out)])


def test_a_run_replaces_the_outputs_of_an_earlier_run(tmp_path):
    out = tmp_path / "out"
    assert run_into(tmp_path, SIMULATE, out) == EXIT_OK
    assert {"ensemble.csv", "tail_curve.csv"} < {p.name for p in out.iterdir()}
    assert run_into(tmp_path, GAMMA, out) == EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == ["covering.csv", "manifest.json", "report.json"]


def test_a_fit_failure_leaves_only_its_diagnostics(tmp_path, monkeypatch):
    out = tmp_path / "out"
    assert run_into(tmp_path, GAMMA, out) == EXIT_OK
    diagnostics = {"bound": "mixed", "violations": []}

    def failing_fit(*args, **kwargs):
        raise FitFailureError("no feasible constants", diagnostics)

    monkeypatch.setattr(cli, "fit_constants", failing_fit)
    assert run_into(tmp_path, MIXED, out) == EXIT_CONFIG
    assert [p.name for p in out.iterdir()] == ["fit_diagnostics.json"]
    monkeypatch.undo()
    assert run_into(tmp_path, GAMMA, out) == EXIT_OK
    assert not (out / "fit_diagnostics.json").exists()


def test_a_run_keeps_other_files_and_a_failed_run_changes_nothing(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_text("mine")
    assert run_into(tmp_path, GAMMA, out) == EXIT_OK
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert before["notes.txt"] == b"mine"
    zero = {**SIMULATE, "coefficients": [[0.0, 0.0]] * 4}  # insufficient data
    assert run_into(tmp_path, zero, out) == EXIT_CONFIG
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_a_write_that_fails_leaves_out_as_it_was(tmp_path, monkeypatch, capsys):
    # the run's files go into a temporary directory inside --out and move
    # into --out only once every file is written: a write that fails midway,
    # into an earlier run's --out or where there is none, leaves --out as it
    # was and nothing beside it
    runs = tmp_path / "runs"
    out = runs / "out"
    assert run_into(tmp_path, GAMMA, out) == EXIT_OK
    (out / "notes.txt").write_text("mine")
    (out / "sub").mkdir()
    before = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}

    def full_disk(path, *args, **kwargs):
        if os.path.basename(path) == "report.json":  # simulate's second file
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return open(path, *args, **kwargs)

    monkeypatch.setattr(cli, "open", full_disk, raising=False)
    for target in (out, runs / "new"):
        assert run_into(tmp_path, SIMULATE, target) == EXIT_CONFIG
        assert capsys.readouterr().err == f"output error: {target}: No space left on device\n"
    assert {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()} == before
    assert {p.name for p in out.iterdir()} == {*before, "sub"} and "ensemble.csv" not in before
    assert [p.name for p in runs.iterdir()] == ["out"]
    monkeypatch.undo()
    assert run_into(tmp_path, SIMULATE, out) == EXIT_OK
    assert {p.name for p in out.iterdir()} == {
        "ensemble.csv", "report.json", "tail_curve.csv", "manifest.json", "notes.txt", "sub"
    }
    assert [p.name for p in runs.iterdir()] == ["out"]


def test_a_run_keeps_the_out_directory_itself(tmp_path, monkeypatch):
    # files move into --out one by one; --out is never renamed or remade, so
    # it keeps its inode and mode (a 0700 --out stays private, a mount point
    # stays usable), and a shell inside it (--out .) stays where it was
    out = tmp_path / "out"
    out.mkdir(mode=0o700)
    out.chmod(0o700)
    ino = out.stat().st_ino
    assert run_into(tmp_path, GAMMA, out) == EXIT_OK
    assert run_into(tmp_path, SIMULATE, out) == EXIT_OK
    assert (out.stat().st_ino, out.stat().st_mode & 0o777) == (ino, 0o700)
    assert {p.name for p in out.iterdir()} == {
        "ensemble.csv", "report.json", "tail_curve.csv", "manifest.json"
    }
    monkeypatch.chdir(out)
    path = write_config(tmp_path, GAMMA)
    assert main(["gamma", "--config", path, "--out", "."]) == EXIT_OK
    assert os.getcwd() == str(out) and os.stat(".").st_ino == ino
    assert sorted(os.listdir(".")) == ["covering.csv", "manifest.json", "report.json"]


@pytest.mark.parametrize(
    "manifest",
    [
        {"digests": {"../x": "0", "/tmp": "0", ".": "0", "..": "0", "": "0"}},
        {"digests": ["notes.txt"]},
        {"digests": {"notes.txt": "0"}},
        {"version": "0"},
        "not json",
        "[" * 100_000 + "]" * 100_000,
    ],
    ids=["escaping", "list", "foreign-name", "no-digests", "unreadable", "too-deep"],
)
def test_an_earlier_manifest_removes_nothing_outside_its_outputs(tmp_path, manifest):
    out = tmp_path / "out"
    out.mkdir()
    (tmp_path / "x").write_text("outside")
    (out / "notes.txt").write_text("mine")
    text = manifest if isinstance(manifest, str) else json.dumps(manifest)
    (out / "manifest.json").write_text(text)
    assert run_into(tmp_path, GAMMA, out) == EXIT_OK
    assert (tmp_path / "x").read_text() == "outside"
    assert (out / "notes.txt").read_text() == "mine"
    assert json.loads((out / "manifest.json").read_text())["config"] == GAMMA


GOLDEN_CASES = json.loads((Path(__file__).parent / "golden" / "cases.json").read_text())


def test_every_file_a_run_leaves_is_a_declared_output(tmp_path):
    assert {c["experiment"] for c in GOLDEN_CASES.values()} == set(cli.EXPERIMENTS)
    left = set()
    for name, config in GOLDEN_CASES.items():
        out = tmp_path / name
        run_into(tmp_path, config, out)
        if out.exists():
            left |= {p.name for p in out.iterdir()}
    # the last name is written only by a fit failure (see the test above)
    assert left | {"fit_diagnostics.json"} == set(cli._OUTPUT_NAMES)


def run_module(*args):
    """``python -m tensorchain`` on this checkout's source."""
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    cmd = [sys.executable, "-m", "tensorchain", *args]
    return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)


def test_the_module_entry_point_runs_as_cli_main(tmp_path):
    path = write_config(tmp_path, GAMMA)
    assert main(["gamma", "--config", path, "--out", str(tmp_path / "main")]) == EXIT_OK
    done = run_module("gamma", "--config", path, "--out", str(tmp_path / "module"))
    assert (done.returncode, done.stderr) == (EXIT_OK, "")
    written = [
        {p.name: p.read_bytes() for p in (tmp_path / side).iterdir() if p.name != "manifest.json"}
        for side in ("main", "module")
    ]
    assert written[0] == written[1] and written[0]
    done = run_module("gamma", "--config", str(tmp_path / "none.json"), "--out", str(tmp_path / "x"))
    assert done.returncode == EXIT_CONFIG and done.stderr.startswith("config error: ")


def test_seeds_are_not_size_keys():
    # seeds are masked to 64 bits, so any nonnegative integer is a seed
    assert validate({**SIMULATE, "seed": 10**20, "basis_seed": 10**30}) == []


def test_all_zero_suprema_without_u_grid_name_the_cause(tmp_path, capsys):
    config = {**SIMULATE, "coefficients": [[0.0, 0.0]] * 4}
    path = write_config(tmp_path, config)
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("insufficient data: every sampled supremum is zero")
    assert "u_grid must be" not in err
    assert not out.exists()
