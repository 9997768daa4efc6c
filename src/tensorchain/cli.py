"""Batch experiment runner.

Every experiment is described by a single JSON config file; the command
line carries only the subcommand, the config path and the output
directory.  Reports embed their full config, and reruns with the
same config produce byte-identical JSON/CSV payloads (the manifest's wall
times are the only nondeterministic output, and they are excluded from
its digest list).

Exit codes: 0 success, 2 config error, 3 capacity error, 4 a verified
bound was violated.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__, rng as rng_mod
from .bounds import (
    ConstantSet,
    evaluate_bound,
    fit_constants,
    verify_azuma,
    verify_bernstein,
)
from .chaining import (
    FiniteMetricSpace,
    build_admissible_greedy,
    covering_curve,
    diameter,
    gamma_exhaustive,
    gamma_truncated_value,
    gamma_value,
)
from .empirical import diagonal_family, verify_empirical_bound
from .errors import CapacityError, TensorChainError
from .processes import (
    ProcessSpec,
    empirical_tail,
    ensemble_to_csv,
    fit_tail_exponent,
    process_metric,
    sample_ensemble,
    sample_mixed_sups,
    verify_increment_tail,
)
from .sensing import fourier_unitary, rip_monte_carlo
from .tensor import GaugeNorm, random_hermitian, random_unitary

EXPERIMENTS = (
    "simulate",
    "gamma",
    "rip",
    "verify-azuma",
    "verify-bernstein",
    "empirical",
    "mixed-tail",
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CAPACITY = 3
EXIT_VERDICT = 4

_RIP_BUDGET = 1_000_000


@dataclass
class RunManifest:
    config: dict
    version: str
    stage_seconds: dict
    digests: dict
    verdicts: list = field(default_factory=list)

    def to_json(self) -> str:
        return (
            json.dumps(
                {
                    "config": self.config,
                    "version": self.version,
                    "stage_seconds": self.stage_seconds,
                    "digests": self.digests,
                },
                sort_keys=True,
                indent=2,
            )
            + "\n"
        )


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def validate(config: dict) -> list:
    """All config violations at once, as human-readable diagnostics."""
    diags = []
    kind = config.get("experiment")
    if kind not in EXPERIMENTS:
        diags.append(f"experiment: must be one of {', '.join(EXPERIMENTS)}")
        return diags
    seed = config.get("seed")
    if not isinstance(seed, int) or seed < 0:
        diags.append("seed: required, must be a nonnegative integer")

    def need_positive_int(name, minimum=1):
        v = config.get(name)
        if not isinstance(v, int) or v < minimum:
            diags.append(f"{name}: required, must be an integer >= {minimum}")
            return None
        return v

    def need_dims(name):
        v = config.get(name)
        if (
            not isinstance(v, list)
            or not v
            or any(not isinstance(d, int) or d < 1 for d in v)
        ):
            diags.append(f"{name}: required, must be a list of positive integers")
            return None
        return v

    if kind == "simulate":
        need_positive_int("samples")
        need_positive_int("index_count", 2)
        need_positive_int("basis_count")
        need_dims("row_modes")
        family = config.get("family", "gaussian_linear")
        if family not in (
            "gaussian_linear",
            "subexponential_linear",
            "rademacher_martingale",
            "iid_bernstein",
        ):
            diags.append(f"family: unknown generator family {family!r}")
    elif kind == "gamma":
        if "points" not in config and "matrix" not in config:
            diags.append("points/matrix: one of the two must be given")
        beta = config.get("beta", 2.0)
        if not isinstance(beta, (int, float)) or beta <= 0:
            diags.append("beta: must be a positive number")
    elif kind == "rip":
        cols = need_dims("col_dims")
        xi = need_positive_int("xi")
        need_positive_int("trials")
        tau = config.get("tau")
        if not isinstance(tau, (int, float)) or not 0 < tau:
            diags.append("tau: required, must be positive")
        target = need_positive_int("target_size")
        if cols and target and target > math.prod(cols):
            diags.append(
                f"target_size: must not exceed the source size {math.prod(cols)}"
            )
        if cols and xi:
            count = math.comb(math.prod(cols), min(xi, math.prod(cols)))
            if count > _RIP_BUDGET:
                diags.append(
                    f"capacity: xi/col_dims: {count} supports exceed the "
                    f"exact-scan budget of {_RIP_BUDGET}; shrink xi or col_dims"
                )
    elif kind == "verify-azuma":
        need_positive_int("samples")
        need_positive_int("steps")
        need_dims("row_modes")
    elif kind == "verify-bernstein":
        need_positive_int("samples")
        need_positive_int("n")
        need_dims("row_modes")
    elif kind == "empirical":
        need_positive_int("samples")
        need_positive_int("t_count", 2)
        need_positive_int("n")
        need_dims("row_modes")
    elif kind == "mixed-tail":
        need_positive_int("samples")
        need_positive_int("index_count", 2)
        need_positive_int("basis_count")
        need_dims("row_modes")
    return diags


# ---------------------------------------------------------------------------
# experiment builders
# ---------------------------------------------------------------------------


def _u_grid(config, default):
    grid = config.get("u_grid")
    if grid is None:
        return np.asarray(default, dtype=np.float64)
    if isinstance(grid, dict):
        return np.linspace(grid["start"], grid["stop"], int(grid["points"]))
    return np.asarray(grid, dtype=np.float64)


def _quantile_grid(sups: np.ndarray, points: int = 12) -> np.ndarray:
    # survival levels log-spaced through the upper tail, where the
    # exponential-exponent diagnosis is meaningful
    levels = np.geomspace(0.5, max(0.005, 2.0 / sups.size), points)
    grid = np.quantile(sups, 1.0 - levels)
    grid = np.unique(grid[grid > 0])
    return grid


def _build_process_spec(config) -> ProcessSpec:
    basis_seed = int(config.get("basis_seed", config["seed"] + 1))
    row_modes = tuple(config["row_modes"])
    count = int(config["basis_count"])
    basis = tuple(
        random_hermitian(row_modes, rng_mod.stream(basis_seed, k)) for k in range(count)
    )
    if "coefficients" in config:
        coeffs = np.asarray(config["coefficients"], dtype=np.float64)
    else:
        coeffs = rng_mod.stream(basis_seed, count).uniform(
            -1.0, 1.0, (int(config["index_count"]), count)
        )
    return ProcessSpec(
        family=config.get("family", "gaussian_linear"),
        coefficients=coeffs,
        basis=basis,
        tail_beta=float(config.get("tail_beta", 2.0)),
        metric_scale=float(config.get("metric_scale", 2.0)),
    )


def _run_simulate(config, outputs):
    spec = _build_process_spec(config)
    gauge = GaugeNorm.coerce(config.get("gauge", "spectral"))
    space = FiniteMetricSpace(
        spec.index_count, {"increment": process_metric(spec, gauge)}
    )
    ensemble = sample_ensemble(
        spec, space, config["seed"], config["samples"], gauge=gauge
    )
    t0 = int(config.get("t0", 0))
    sups = ensemble.sup_samples(t0)
    grid = _u_grid(config, None) if "u_grid" in config else _quantile_grid(sups)
    curve = empirical_tail(ensemble, space, t0, grid)
    report = {"experiment_config": config, "family": spec.family.value}
    verdicts = []
    if config.get("fit_exponent", True):
        beta_hat, r2 = fit_tail_exponent(curve)
        report["fitted_exponent"] = {"beta_hat": beta_hat, "r_squared": r2}
    if config.get("verify_tail", False):
        tail_grid = _u_grid({"u_grid": config.get("tail_u_grid")}, np.linspace(0.5, 3.0, 6))
        tail_report = verify_increment_tail(
            ensemble, space, "increment", spec.tail_beta, tail_grid
        )
        report["increment_tail"] = tail_report.to_dict()
        verdicts.append(tail_report.verdict)
    outputs["ensemble.csv"] = ensemble_to_csv(ensemble, t0)
    outputs["tail_curve.csv"] = curve.to_csv()
    outputs["report.json"] = json.dumps(report, sort_keys=True, indent=2) + "\n"
    return verdicts


def _run_gamma(config, outputs):
    metric_id = config.get("metric_id", "euclidean")
    if "points" in config:
        space = FiniteMetricSpace.from_points(config["points"], metric_id)
    else:
        mat = np.asarray(config["matrix"], dtype=np.float64)
        space = FiniteMetricSpace(mat.shape[0], {metric_id: mat})
    beta = float(config.get("beta", 2.0))
    seq = build_admissible_greedy(space, metric_id, beta)
    curve = covering_curve(space, metric_id)
    report = {
        "experiment_config": config,
        "size": space.size,
        "diameter": diameter(space, metric_id),
        "greedy_levels": [list(lev) for lev in seq.levels],
        "gamma_greedy": gamma_value(space, metric_id, beta, seq),
        "dudley_integral": curve.dudley_integral(),
    }
    if space.size <= 16:
        report["gamma_exhaustive"] = gamma_exhaustive(space, metric_id, beta)
    truncated = {}
    for p in config.get("p_values", [1, 2, 4]):
        truncated[str(p)] = gamma_truncated_value(space, metric_id, beta, float(p), seq)
    report["gamma_truncated"] = truncated
    outputs["covering.csv"] = curve.to_csv()
    outputs["report.json"] = json.dumps(report, sort_keys=True, indent=2) + "\n"
    return []


def _run_rip(config, outputs):
    operator = config.get("operator", "fourier")
    col_dims = tuple(config["col_dims"])
    if operator == "fourier":
        u = fourier_unitary(col_dims)
    else:
        u = random_unitary(col_dims, rng_mod.stream(int(operator["seed"]), 0))
    rep = rip_monte_carlo(
        u,
        int(config["xi"]),
        float(config["tau"]),
        int(config["trials"]),
        int(config["seed"]),
        target_size=int(config["target_size"]),
    )
    payload = rep.to_dict()
    payload["experiment_config"] = config
    outputs["rip_report.json"] = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    outputs["rip_trials.csv"] = rep.to_csv()
    return []


def _emit_bound_report(config, outputs, report):
    payload = report.to_dict()
    payload["experiment_config"] = config
    outputs["bound_report.json"] = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    outputs["bound_report.csv"] = report.to_csv()
    return [report.verdict]


def _run_verify_azuma(config, outputs):
    row_modes = tuple(config["row_modes"])
    steps = int(config["steps"])
    diff_seed = int(config.get("difference_seed", config["seed"] + 1))
    scale = 1.0 / math.sqrt(steps)
    diffs = [
        scale * random_hermitian(row_modes, rng_mod.stream(diff_seed, i))
        for i in range(steps)
    ]
    report = verify_azuma(
        diffs,
        int(config["samples"]),
        int(config["seed"]),
        u_sigma_factors=tuple(config.get("u_sigma_factors", (2.0, 3.0, 4.0))),
    )
    return _emit_bound_report(config, outputs, report)


def _run_verify_bernstein(config, outputs):
    row_modes = tuple(config["row_modes"])
    n = int(config["n"])
    env_seed = int(config.get("envelope_seed", config["seed"] + 1))
    envelopes = [
        random_hermitian(row_modes, rng_mod.stream(env_seed, i)) for i in range(n)
    ]
    report = verify_bernstein(
        envelopes,
        int(config["samples"]),
        int(config["seed"]),
        u_grid=tuple(config.get("u_grid", (1.0, 2.0, 3.0))),
    )
    return _emit_bound_report(config, outputs, report)


def _run_empirical(config, outputs):
    family = diagonal_family(
        tuple(config["row_modes"]),
        int(config["t_count"]),
        int(config["n"]),
        int(config.get("family_seed", config["seed"] + 1)),
        noise=config.get("noise", "rademacher"),
    )
    constants = None
    if isinstance(config.get("constants"), dict):
        constants = ConstantSet(**config["constants"])
    report = verify_empirical_bound(
        family,
        int(config["seed"]),
        int(config["samples"]),
        _u_grid(config, np.linspace(1.0, 5.0, 10)),
        constants=constants,
    )
    return _emit_bound_report(config, outputs, report)


def _run_mixed_tail(config, outputs):
    seed = int(config["seed"])
    base = dict(config)
    base["family"] = "gaussian_linear"
    spec_g = _build_process_spec(base)
    base = dict(config)
    base["family"] = "subexponential_linear"
    base["basis_seed"] = int(config.get("basis_seed", seed + 1)) + 1000
    base["tail_beta"] = 1.0
    spec_e = _build_process_spec(base)
    sups = sample_mixed_sups(spec_g, spec_e, seed, int(config["samples"]))
    d2 = process_metric(spec_g)
    d1 = process_metric(spec_e)
    space = FiniteMetricSpace(spec_g.index_count, {"d1": d1, "d2": d2})
    gamma1 = gamma_value(space, "d1", 1.0, build_admissible_greedy(space, "d1", 1.0))
    gamma2 = gamma_value(space, "d2", 2.0, build_admissible_greedy(space, "d2", 2.0))
    params = {
        "gammas": [gamma1, gamma2],
        "diams": [diameter(space, "d1"), diameter(space, "d2")],
    }
    grid = _u_grid(config, np.linspace(1.0, 5.0, 10))
    constants = None
    if isinstance(config.get("constants"), dict):
        constants = ConstantSet(**config["constants"])
    if constants is None:
        constants = fit_constants("mixed", sups, grid, params)
    report = evaluate_bound("mixed", sups, grid, params, constants)
    return _emit_bound_report(config, outputs, report)


_RUNNERS = {
    "simulate": _run_simulate,
    "gamma": _run_gamma,
    "rip": _run_rip,
    "verify-azuma": _run_verify_azuma,
    "verify-bernstein": _run_verify_bernstein,
    "empirical": _run_empirical,
    "mixed-tail": _run_mixed_tail,
}


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def run(config: dict, out_dir) -> RunManifest:
    """Execute the configured experiment and write its outputs."""
    os.makedirs(out_dir, exist_ok=True)
    outputs = {}
    stages = {}
    start = time.perf_counter()
    verdicts = _RUNNERS[config["experiment"]](config, outputs)
    stages["run"] = time.perf_counter() - start
    digests = {}
    start = time.perf_counter()
    for name, text in sorted(outputs.items()):
        path = os.path.join(out_dir, name)
        data = text.encode("ascii")
        with open(path, "wb") as fh:
            fh.write(data)
        digests[name] = hashlib.sha256(data).hexdigest()
    stages["write"] = time.perf_counter() - start
    manifest = RunManifest(
        config=config,
        version=__version__,
        stage_seconds=stages,
        digests=digests,
        verdicts=verdicts,
    )
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="ascii") as fh:
        fh.write(manifest.to_json())
    return manifest


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tensorchain",
        description="Seeded experiments over tensor-valued random processes",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for kind in EXPERIMENTS:
        p = sub.add_parser(kind)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", required=True, help="output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if not isinstance(config, dict):
        print("config error: top level must be an object", file=sys.stderr)
        return EXIT_CONFIG
    if config.get("experiment") != args.experiment:
        print(
            f"config error: experiment field {config.get('experiment')!r} "
            f"does not match subcommand {args.experiment!r}",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    diagnostics = validate(config)
    if diagnostics:
        for d in diagnostics:
            print(f"config error: {d}", file=sys.stderr)
        if all(d.startswith("capacity:") for d in diagnostics):
            return EXIT_CAPACITY
        return EXIT_CONFIG
    try:
        manifest = run(config, args.out)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except TensorChainError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if any(v == "violated" for v in manifest.verdicts):
        print("bound verdict: violated", file=sys.stderr)
        return EXIT_VERDICT
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
