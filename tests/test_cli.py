import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from tensorchain import cli, kernels, processes
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
    assert manifest["verdicts"] == []


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


def test_mixed_tail_reduces_one_block_at_a_time(tmp_path, monkeypatch):
    # 4 indices of 2x2 unfoldings: 16 complex entries per sample, 64 per block
    monkeypatch.setattr(processes, "_BLOCK_ENTRIES", 16 * 64)
    calls = count_calls(monkeypatch, "ensemble_norms_vs_ref")
    cfg = {
        "experiment": "mixed-tail",
        "seed": 10,
        "samples": 300,
        "row_modes": [2],
        "index_count": 4,
        "basis_count": 2,
    }
    path = write_config(tmp_path, cfg)
    assert main(["mixed-tail", "--config", path, "--out", str(tmp_path / "o")]) == EXIT_OK
    assert len(calls) == math.ceil(300 / 64)
    assert [len(args[0]) for args in calls] == [64, 64, 64, 64, 44]


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
    # distances of 1e200 overflow; the realizations and their norms do not
    config = {
        **SIMULATE,
        "index_count": 3,
        "coefficients": [[1e200, 0.0], [0.0, 1e200], [1e200, 1e200]],
        "fit_exponent": False,
    }
    path = write_config(tmp_path, config)
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "a")]) == EXIT_OK
    path = write_config(tmp_path, {**config, "verify_tail": True})
    code = main(["simulate", "--config", path, "--out", str(tmp_path / "b")])
    assert code == EXIT_CONFIG
    err = capfd.readouterr().err
    assert err == "config error: metric 'increment' has non-finite entries\n"


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
