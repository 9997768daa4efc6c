import json

import numpy as np
import pytest

from tensorchain import kernels
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


def test_unreadable_config(tmp_path):
    assert (
        main(["gamma", "--config", str(tmp_path / "none.json"), "--out", str(tmp_path)])
        == EXIT_CONFIG
    )


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
    # beyond the exact-cover limit of 20 points every N(u) is one greedy cover;
    # the entropy integral and covering.csv share them
    calls = count_calls(monkeypatch, "greedy_cover")
    points = trng.stream(3, 0).uniform(-1.0, 1.0, (24, 2)).tolist()
    cfg = {"experiment": "gamma", "seed": 0, "points": points}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["gamma", "--config", path, "--out", str(out)]) == EXIT_OK
    dist = FiniteMetricSpace.from_points(points).distance_matrix("euclidean")
    radii = np.unique(dist[dist > 0])
    assert len(calls) == radii.size + 1  # u = 0 for the integral
    assert len((out / "covering.csv").read_text().splitlines()) == 1 + radii.size


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
