"""Each output check passes on real outputs and rejects a corrupted one."""

import json

import pytest

import checks
from tensorchain import cli

MODES = [2, 2]


def run(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main([cfg["experiment"], "--config", str(path), "--out", str(out)]) == 0
    return str(out)


def edit_json(out, name, change):
    path = f"{out}/{name}"
    with open(path) as fh:
        data = json.load(fh)
    change(data)
    with open(path, "w") as fh:
        json.dump(data, fh)


def edit_csv(out, name, row, column, change):
    """Replace one field of a CSV file; ``row`` counts data rows from 0."""
    path = f"{out}/{name}"
    with open(path) as fh:
        lines = fh.read().splitlines()
    fields = lines[row + 1].split(",")
    fields[column] = change(fields[column])
    lines[row + 1] = ",".join(fields)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


SIMULATE = {
    "experiment": "simulate", "seed": 5, "samples": 300, "index_count": 6,
    "basis_count": 3, "row_modes": MODES, "verify_tail": True,
}


@pytest.fixture
def simulate_out(tmp_path):
    return run(tmp_path, SIMULATE)


def test_simulate_accepts_real_output(simulate_out):
    assert checks.check("simulate", SIMULATE, simulate_out) == []


def test_simulate_rejects_perturbed_norm(simulate_out):
    # sample 0, index 3: one of the regenerated rows
    edit_csv(simulate_out, "ensemble.csv", 3, 2, lambda v: repr(float(v) * (1 + 1e-9)))
    assert checks.check_simulate(SIMULATE, simulate_out)


def test_simulate_rejects_tail_count_off_by_one(simulate_out):
    edit_csv(simulate_out, "tail_curve.csv", 2, 2, lambda v: repr(float(v) + 1))
    assert checks.check_simulate(SIMULATE, simulate_out)


def test_simulate_rejects_violated_verdict(simulate_out):
    edit_json(simulate_out, "report.json",
              lambda d: d["increment_tail"].update(verdict="violated"))
    assert checks.check_simulate(SIMULATE, simulate_out)


def gamma_config(count, seed=3):
    import numpy as np

    pts = np.random.default_rng(seed).uniform(0, 1, (count, 2)).tolist()
    return {"experiment": "gamma", "seed": 0, "points": pts, "beta": 2.0,
            "p_values": [1, 2, 4]}


@pytest.mark.parametrize("count", [12, 30])
def test_gamma_accepts_real_output(tmp_path, count):
    cfg = gamma_config(count)
    assert checks.check("gamma", cfg, run(tmp_path, cfg)) == []


@pytest.mark.parametrize("count", [12, 30])
@pytest.mark.parametrize("row", [0, 20, -1])
def test_gamma_rejects_covering_count_off_by_one(tmp_path, count, row):
    cfg = gamma_config(count)
    out = run(tmp_path, cfg)
    rows = count * (count - 1) // 2
    edit_csv(out, "covering.csv", row % rows, 1, lambda v: str(int(v) + 1))
    assert checks.check_gamma(cfg, out)


@pytest.mark.parametrize("key", ["diameter", "gamma_greedy", "gamma_exhaustive"])
def test_gamma_rejects_perturbed_value(tmp_path, key):
    cfg = gamma_config(12)
    out = run(tmp_path, cfg)
    edit_json(out, "report.json", lambda d: d.update({key: d[key] * (1 + 1e-8)}))
    assert checks.check_gamma(cfg, out)


def test_gamma_rejects_perturbed_truncated_value(tmp_path):
    cfg = gamma_config(30)
    out = run(tmp_path, cfg)
    edit_json(out, "report.json", lambda d: d["gamma_truncated"].update({"2": 0.5}))
    assert checks.check_gamma(cfg, out)


def rip_config(operator):
    return {"experiment": "rip", "seed": 9, "col_dims": [4, 4], "target_size": 8,
            "xi": 2, "tau": 0.5, "trials": 4, "operator": operator}


@pytest.mark.parametrize("operator", ["fourier", {"seed": 4}])
def test_rip_accepts_real_output(tmp_path, operator):
    cfg = rip_config(operator)
    assert checks.check("rip", cfg, run(tmp_path, cfg)) == []


@pytest.mark.parametrize("operator", ["fourier", {"seed": 4}])
def test_rip_rejects_wrong_tau(tmp_path, operator):
    cfg = rip_config(operator)
    out = run(tmp_path, cfg)
    wrong = lambda v: v + 1e-6  # noqa: E731
    edit_json(out, "rip_report.json",
              lambda d: d.update(tau_values=[wrong(d["tau_values"][0])] + d["tau_values"][1:]))
    edit_csv(out, "rip_trials.csv", 0, 1, lambda v: repr(wrong(float(v))))
    assert checks.check_rip(cfg, out)


def test_rip_rejects_wrong_eta(tmp_path):
    cfg = rip_config("fourier")
    out = run(tmp_path, cfg)
    edit_json(out, "rip_report.json", lambda d: d.update(eta_hat=d["eta_hat"] + 0.25))
    assert checks.check_rip(cfg, out)


AZUMA = {"experiment": "verify-azuma", "seed": 2, "samples": 3000, "steps": 5,
         "row_modes": MODES}
BERNSTEIN = {"experiment": "verify-bernstein", "seed": 2, "samples": 3000, "n": 5,
             "row_modes": MODES}


@pytest.mark.parametrize("cfg", [AZUMA, BERNSTEIN], ids=["azuma", "bernstein"])
def test_bound_accepts_real_output(tmp_path, cfg):
    assert checks.check(cfg["experiment"], cfg, run(tmp_path, cfg)) == []


@pytest.mark.parametrize("cfg,key", [(AZUMA, "sigma"), (BERNSTEIN, "sigma"),
                                     (BERNSTEIN, "upsilon")])
def test_bound_rejects_wrong_scale(tmp_path, cfg, key):
    out = run(tmp_path, cfg)
    edit_json(out, "bound_report.json",
              lambda d: d["inputs"].update({key: d["inputs"][key] * (1 + 1e-9)}))
    assert checks.CHECKS[cfg["experiment"]](cfg, out)


@pytest.mark.parametrize("cfg", [AZUMA, BERNSTEIN], ids=["azuma", "bernstein"])
def test_bound_rejects_wrong_frequency(tmp_path, cfg):
    out = run(tmp_path, cfg)
    edit_json(out, "bound_report.json",
              lambda d: d["rows"][0].update(empirical=d["rows"][0]["empirical"] + 0.01))
    assert checks.CHECKS[cfg["experiment"]](cfg, out)


FITTED = [
    {"experiment": "mixed-tail", "seed": 4, "samples": 400, "index_count": 8,
     "basis_count": 3, "row_modes": MODES},
    {"experiment": "empirical", "seed": 4, "samples": 400, "t_count": 8, "n": 4,
     "row_modes": MODES},
]
ALL_BOUNDS = [AZUMA, BERNSTEIN] + FITTED


@pytest.mark.parametrize("cfg", FITTED, ids=["mixed-tail", "empirical"])
def test_fitted_accepts_real_output(tmp_path, cfg):
    assert checks.check(cfg["experiment"], cfg, run(tmp_path, cfg)) == []


@pytest.mark.parametrize("cfg", FITTED, ids=["mixed-tail", "empirical"])
def test_fitted_rejects_constant_outside_box(tmp_path, cfg):
    out = run(tmp_path, cfg)
    edit_json(out, "bound_report.json",
              lambda d: d["fitted"].update({k: 5e3 for k in d["fitted"]}))
    assert checks.check_fitted(cfg, out)


@pytest.mark.parametrize("cfg", ALL_BOUNDS, ids=lambda c: c["experiment"])
def test_bound_rejects_violated_verdict(tmp_path, cfg):
    out = run(tmp_path, cfg)
    edit_json(out, "bound_report.json", lambda d: d.update(verdict="violated"))
    assert checks.CHECKS[cfg["experiment"]](cfg, out)


def test_manifest_rejects_edited_file(tmp_path):
    out = run(tmp_path, AZUMA)
    edit_csv(out, "bound_report.csv", 0, 3, lambda v: v + "1")
    assert checks.check_manifest(out)


def test_missing_output_is_a_problem(tmp_path):
    assert checks.check("gamma", gamma_config(5), str(tmp_path / "nothing"))
