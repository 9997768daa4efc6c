"""Batch experiment runner.

Every experiment is described by a single JSON config file; the command
line carries only the subcommand, the config path and the output
directory.  Each experiment declares its keys once, in ``_KEYS``: the
check a value must pass and the default used when the key is absent.
Reports embed their full config, and reruns with the same config produce
byte-identical JSON/CSV payloads (the manifest's wall times are the only
nondeterministic output, and they are excluded from its digest list).

Exit codes: 0 success, 2 config error, 3 capacity error, 4 a verified
bound was violated.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__, kernels, rng as rng_mod
from .bounds import (
    ConstantSet,
    constant_slots,
    evaluate_bound,
    fit_constants,
    verify_azuma,
    verify_bernstein,
)
from .chaining import (
    EXACT_COVER_LIMIT,
    EXHAUSTIVE_LIMIT,
    FiniteMetricSpace,
    build_admissible_greedy,
    covering_curve,
    diameter,
    gamma_exhaustive,
    gamma_truncated_value,
    gamma_value,
)
from .empirical import diagonal_family, verify_empirical_bound
from .errors import (
    CapacityError,
    FitFailureError,
    InsufficientDataError,
    TensorChainError,
    WorkerError,
)
from .processes import (
    ProcessFamily,
    ProcessSpec,
    _increment_metric,
    _mixed_sample_entries,
    empirical_tail,
    ensemble_to_csv,
    fit_tail_exponent,
    process_space,
    sample_ensemble,
    sample_mixed_sups,
    verify_increment_tail,
)
from .report import dumps
from .sensing import fourier_unitary, rip_monte_carlo
from .tensor import _MAX_SIDE, GaugeNorm, random_hermitian, random_unitary

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CAPACITY = 3
EXIT_VERDICT = 4

_MAX_GRID_POINTS = 1000  # of a {"start", "stop", "points"} grid, built to validate it


@dataclass
class RunManifest:
    config: dict
    version: str
    stage_seconds: dict
    digests: dict
    verdicts: list = field(default_factory=list)
    workers: int = 1  # the processes kernels.map_blocks could share a loop among


# ---------------------------------------------------------------------------
# the declared keys of each experiment
# ---------------------------------------------------------------------------


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    """A number that is finite as a float: not NaN, Infinity or 1e400, which
    ``json.load`` reads as floats, nor an int such as 10**400."""
    return (_is_int(v) or isinstance(v, float)) and abs(v) <= sys.float_info.max


def _is_numbers(v) -> bool:
    return isinstance(v, list) and len(v) > 0 and all(_is_number(x) for x in v)


def _is_rows(v) -> bool:
    return isinstance(v, list) and len(v) > 0 and all(
        _is_numbers(r) and len(r) == len(v[0]) for r in v
    )


def _check(ok, form):
    """A key's check: None for a value that passes ``ok``, else what it must be."""
    return lambda v: None if ok(v) else f"must be {form}"


def _is_size(v, minimum, maximum=_MAX_SIDE) -> bool:
    """A count or extent; every size key has the largest addressable
    unfolding side as its upper bound."""
    return _is_int(v) and minimum <= v <= maximum


def _size(minimum):
    form = f"an integer from {minimum} to {_MAX_SIDE}"
    return _check(lambda v: _is_size(v, minimum), form)


def _enum(*choices):
    return _check(lambda v: v in choices, f"one of {', '.join(choices)}")


def _numbers(minimum):
    form = f"a nonempty list of numbers >= {minimum}"
    return _check(lambda v: _is_numbers(v) and min(v) >= minimum, form)


def _grid(objects, minimum=0):
    """Nonempty, ascending and at least ``minimum``; with ``objects`` also
    the ``{"start", "stop", "points"}`` form that ``_u_grid`` spaces linearly,
    once its size is known to be in range, refused where numpy reports an
    overflow while spacing it."""
    form = f"a nonempty ascending list of numbers >= {minimum}"
    if objects:
        form += " or an object of numbers start, stop and an integer points"
        form += f" from 1 to {_MAX_GRID_POINTS}"

    def check(v):
        if objects and isinstance(v, dict) and set(v) == {"start", "stop", "points"}:
            start, stop, points = v["start"], v["stop"], v["points"]
            if not (_is_numbers([start, stop]) and _is_size(points, 1, _MAX_GRID_POINTS)):
                return f"must be {form}"
            try:
                with np.errstate(over="raise", invalid="raise"):
                    v = _u_grid(v).tolist()
            except FloatingPointError:
                return "spacing start to stop overflows the float range; narrow it"
        ok = _is_numbers(v) and v[0] >= minimum and all(a < b for a, b in zip(v, v[1:]))
        return None if ok else f"must be {form}"

    return check


def _constants(bound_name):
    """The ``constants`` key of an experiment whose tail bound is
    ``bound_name``: positive numbers for the ConstantSet slots that bound
    reads (an omitted slot is 1.0), or None (the default) to fit them."""
    slots = constant_slots(bound_name)

    def check(v):
        if not isinstance(v, dict):
            return "must be an object"
        unknown = sorted(set(v) - set(slots))
        if unknown:
            return f"unknown keys {', '.join(unknown)}; allowed: {', '.join(slots)}"
        if not all(_is_number(x) and x > 0 for x in v.values()):
            return "every value must be a positive number"
        return None

    return check, None


_POSITIVE = _check(lambda v: _is_number(v) and v > 0, "a positive number")
_NONNEGATIVE = _check(lambda v: _is_int(v) and v >= 0, "an integer >= 0")  # seeds, t0
_BOOL = _check(lambda v: isinstance(v, bool), "true or false")
_NAME = _check(lambda v: isinstance(v, str) and v != "", "a nonempty string")
_DIMS = _check(
    lambda v: _is_numbers(v) and all(_is_size(d, 1) for d in v),
    f"a nonempty list of integers from 1 to {_MAX_SIDE}",
)
_ROWS = _check(_is_rows, "a nonempty list of equal-length number lists")
_POINTS = _check(
    lambda v: _is_numbers(v) or _is_rows(v),
    "a nonempty list of numbers or of equal-length number lists",
)
_SQUARE = _check(lambda v: _is_rows(v) and len(v) == len(v[0]), "a square matrix")
_OPERATOR = _check(
    lambda v: v == "fourier" or isinstance(v, dict) and set(v) == {"seed"}
    and _is_int(v["seed"]) and v["seed"] >= 0,
    '"fourier" or {"seed": integer >= 0}',
)

_REQUIRED = object()  # default of a key the config must give
_SEED = (_NONNEGATIVE, _REQUIRED)
_NEXT_SEED = (_NONNEGATIVE, lambda config: config["seed"] + 1)
_SAMPLING = {
    "seed": _SEED,
    "samples": (_size(1), _REQUIRED),
    "row_modes": (_DIMS, _REQUIRED),
}
_PROCESS = {
    **_SAMPLING,
    "index_count": (_size(2), _REQUIRED),
    "basis_count": (_size(1), _REQUIRED),
    "basis_seed": _NEXT_SEED,
    "coefficients": (_ROWS, None),  # None: uniform on [-1, 1] from the basis stream
    "metric_scale": (_POSITIVE, 2.0),
}
# the fitted tail bounds hold for u >= 1 only
_FITTED_GRID = (_grid(True, 1), {"start": 1.0, "stop": 5.0, "points": 10})

# experiment -> {key: (check, default)}; a default is a value, _REQUIRED, or
# a function of the config
_KEYS = {
    "simulate": {
        **_PROCESS,
        "samples": (_size(2), _REQUIRED),
        "family": (_enum(*(f.value for f in ProcessFamily)), "gaussian_linear"),
        "tail_beta": (_POSITIVE, 2.0),
        "gauge": (_enum(*(g.value for g in GaugeNorm)), "spectral"),
        "t0": (_NONNEGATIVE, 0),
        "u_grid": (_grid(True), None),  # None: quantiles of the sampled suprema
        "tail_u_grid": (_grid(True), {"start": 0.5, "stop": 3.0, "points": 6}),
        "fit_exponent": (_BOOL, True),
        "verify_tail": (_BOOL, False),
    },
    "gamma": {
        "seed": _SEED,
        "points": (_POINTS, None),
        "matrix": (_SQUARE, None),
        "metric_id": (_NAME, "euclidean"),
        "beta": (_POSITIVE, 2.0),
        "p_values": (_numbers(1), [1, 2, 4]),  # moments p >= 1
    },
    "rip": {
        "seed": _SEED,
        "col_dims": (_DIMS, _REQUIRED),
        "target_size": (_size(1), _REQUIRED),
        "xi": (_size(1), _REQUIRED),
        "tau": (_POSITIVE, _REQUIRED),
        "trials": (_size(1), _REQUIRED),
        "operator": (_OPERATOR, "fourier"),
    },
    "verify-azuma": {
        **_SAMPLING,
        "steps": (_size(1), _REQUIRED),
        "difference_seed": _NEXT_SEED,
        "u_sigma_factors": (_numbers(0), [2.0, 3.0, 4.0]),
    },
    "verify-bernstein": {
        **_SAMPLING,
        "n": (_size(1), _REQUIRED),
        "envelope_seed": _NEXT_SEED,
        "u_grid": (_grid(False), [1.0, 2.0, 3.0]),
    },
    "empirical": {
        **_SAMPLING,
        "t_count": (_size(2), _REQUIRED),
        "n": (_size(1), _REQUIRED),
        "family_seed": _NEXT_SEED,
        "noise": (_enum(*rng_mod.NOISE_LAWS), "rademacher"),
        "u_grid": _FITTED_GRID,
        "constants": _constants("empirical"),
    },
    "mixed-tail": {**_PROCESS, "u_grid": _FITTED_GRID, "constants": _constants("mixed")},
}

EXPERIMENTS = tuple(_KEYS)


# The budget on what a run holds at once, in entries: simulate's samples x K
# weights and samples x index_count norms, with the larger of one chunk (of
# its norms against t0, or under verify_tail of its pair increments) and the
# text of ensemble.csv (_csv_entries), the samples x K weights
# the Monte Carlo sums draw, mixed-tail's per-sample suprema and the
# one-sample chunk it bounds and forms its increments in
# (processes._mixed_sample_entries: the weight-times-coordinate arrays and
# the coordinates of the increments, or, to form them all, X_t, a
# component's part and its contract weights per index), the
# basis_count x D^2 basis of a process, the steps x D^2 and n x D^2 stacks
# of verify-azuma and verify-bernstein, empirical's t_count x n x D^2
# parameter tensor and t_count x t_count metrics, the two n x n distance
# matrices of a metric on n points or indices (the metric built and the
# copy FiniteMetricSpace freezes; its differences are formed in row chunks,
# within the chunk budget), for verify_tail the one-sample chunk of its
# formed block and all n(n - 1) / 2 pair increments (X_a and X_b, both
# gathered) and its threshold rows, and the N x N arrays of a rip trial on
# N columns.  The largest workload configs, mc-deep's verify-azuma and
# verify-bernstein, hold 800 000; index-wide's simulate holds 490 800, most
# of it the text of its 80 000 CSV rows.
_ENTRY_BUDGET = 1 << 26


def _stack_entries(config, count) -> int:
    """Entries of a stack of ``count`` D x D unfoldings."""
    side = math.prod(config["row_modes"])
    return count * side * side


def _distance_entries(config) -> int:
    return 2 * config["index_count"] ** 2


def _csv_entries(samples, count) -> int:
    """Entries of the samples x count rows of ``ensemble.csv`` as it is
    written: each row's text (two indices, a float repr of at most 24
    characters, two commas and a newline) held twice, as the joined text
    and its parts, then as the text and its encoded copy; and the two int64
    index arrays ``ensemble_to_csv`` builds."""
    chars = len(str(samples - 1)) + len(str(count - 1)) + 27
    return -(-samples * count * (2 * chars + 16) // 16)


def _simulate_entries(config) -> int:
    p = _settings(config)
    samples, count = config["samples"], config["index_count"]
    side = _stack_entries(config, 1)
    chunk = (2 * count + 1) * side  # one sample's block, its increments and X_t0
    if p["verify_tail"]:
        pairs = count * (count - 1) // 2
        rows = _u_grid(p["tail_u_grid"]).size + 1  # one more for the degeneracy check
        increments = (count + 2 * pairs) * side
        chunk = max(chunk, _distance_entries(config), increments, rows * pairs)
    held = samples * (config["basis_count"] + count)  # the weights and the norms
    basis = _stack_entries(config, config["basis_count"])
    return max(basis, held + max(chunk, _csv_entries(samples, count)))


def _gamma_entries(config) -> int:
    return 2 * len(config.get("points", [])) ** 2  # a matrix is held as given


def _empirical_entries(config) -> int:
    t_count = config["t_count"]
    parameters = _stack_entries(config, t_count * config["n"])
    return max(config["samples"] * config["n"], parameters, t_count**2)


def _mixed_tail_entries(config) -> int:
    size = _stack_entries(config, 1)
    chunk = _mixed_sample_entries(config["index_count"], 2 * config["basis_count"], size)
    basis = _stack_entries(config, config["basis_count"])
    return max(config["samples"], _distance_entries(config), chunk, basis)


def _sums_entries(config, count_key) -> int:
    """The samples x count weights and the count x D^2 stack of a Monte
    Carlo sum of ``count_key`` terms."""
    count = config[count_key]
    return max(config["samples"] * count, _stack_entries(config, count))


def _rip_entries(config) -> int:
    """Three N x N arrays: the unitary, and a trial's kept rows and their
    Gram; fourier_unitary holds as many while it builds (index grids, DFT).
    The first chunk of supports and their pair indices that
    ``kernels.rip_scan`` keeps between scans is one ``kernels.chunks`` slice,
    within the chunk budget, not counted here."""
    return 3 * math.prod(config["col_dims"]) ** 2


_ENTRIES = {
    "simulate": _simulate_entries,
    "gamma": _gamma_entries,
    "rip": _rip_entries,
    "mixed-tail": _mixed_tail_entries,
    "empirical": _empirical_entries,
    "verify-azuma": lambda config: _sums_entries(config, "steps"),
    "verify-bernstein": lambda config: _sums_entries(config, "n"),
}


def validate(config: dict) -> list:
    """All config violations at once, as human-readable diagnostics.

    Every key is checked against its experiment's table; the checks that
    span keys run once every key has passed its own.
    """
    kind = config.get("experiment")
    if kind not in EXPERIMENTS:
        return [f"experiment: must be one of {', '.join(EXPERIMENTS)}"]
    table = _KEYS[kind]
    unknown = sorted(set(config) - set(table) - {"experiment"})
    diags = [f"{key}: unknown key for {kind}" for key in unknown]
    for key, (check, default) in table.items():
        if key not in config:
            if default is _REQUIRED:
                diags.append(f"{key}: required")
        elif (problem := check(config[key])) is not None:
            diags.append(f"{key}: {problem}")
    if diags:
        return diags
    if "points" in table and ("points" in config) == ("matrix" in config):
        diags.append("points/matrix: exactly one of the two must be given")
    coeffs = config.get("coefficients")
    if coeffs and np.shape(coeffs) != (config["index_count"], config["basis_count"]):
        diags.append("coefficients: must have index_count rows of basis_count numbers")
    if kind in _ENTRIES and (entries := _ENTRIES[kind](config)) > _ENTRY_BUDGET:
        bits = entries.bit_length()  # str() refuses ints of over 4 300 digits
        held = entries if bits <= 64 else f"at least 2^{bits - 1}"
        diags.append(
            f"capacity: the run holds {held} entries, over the budget of {_ENTRY_BUDGET}"
        )
    if "col_dims" in table:
        size = math.prod(config["col_dims"])
        for key in ("target_size", "xi"):
            if config[key] > size:
                diags.append(f"{key}: must not exceed the source size {size}")
        # a Fourier operator's scan bounds one support per translation orbit
        group = config["col_dims"] if _settings(config)["operator"] == "fourier" else None
        try:
            kernels.check_scan_capacity(size, config["xi"], group)
        except CapacityError as exc:
            diags.append(f"capacity: xi/col_dims: {exc}; shrink xi or col_dims")
    return diags


def _settings(config) -> dict:
    """Every declared key of the config's experiment: its value or default."""
    return {
        key: config[key] if key in config else (d(config) if callable(d) else d)
        for key, (_, d) in _KEYS[config["experiment"]].items()
    }


# ---------------------------------------------------------------------------
# experiment builders: they read the settings ``p`` and echo ``config``
# ---------------------------------------------------------------------------


def _u_grid(grid) -> np.ndarray:
    if isinstance(grid, dict):
        return np.linspace(grid["start"], grid["stop"], grid["points"])
    return np.asarray(grid, dtype=np.float64)


def _quantile_grid(sups: np.ndarray) -> np.ndarray:
    # 12 survival levels log-spaced through the upper tail, where the
    # exponential-exponent diagnosis is meaningful
    levels = np.geomspace(0.5, max(0.005, 2.0 / sups.size), 12)
    grid = np.quantile(sups, 1.0 - levels)
    grid = np.unique(grid[grid > 0])
    if grid.size == 0:
        raise InsufficientDataError(
            "every sampled supremum is zero, so no quantile grid exists; set u_grid"
        )
    return grid


def _build_process_spec(p, family, basis_seed, tail_beta) -> ProcessSpec:
    row_modes = tuple(p["row_modes"])
    count = p["basis_count"]
    basis = tuple(
        random_hermitian(row_modes, rng_mod.stream(basis_seed, k)) for k in range(count)
    )
    coeffs = p["coefficients"]
    if coeffs is None:
        coeffs = rng_mod.stream(basis_seed, count).uniform(
            -1.0, 1.0, (p["index_count"], count)
        )
    return ProcessSpec(family, coeffs, basis, tail_beta, p["metric_scale"])


def _run_simulate(config, p, outputs):
    spec = _build_process_spec(p, p["family"], p["basis_seed"], float(p["tail_beta"]))
    ensemble = sample_ensemble(spec, p["seed"], p["samples"], gauge=p["gauge"])
    sups = ensemble.sup_samples(p["t0"])
    grid = _quantile_grid(sups) if p["u_grid"] is None else _u_grid(p["u_grid"])
    curve = empirical_tail(ensemble, p["t0"], grid)
    report = {"experiment_config": config, "family": spec.family.value}
    verdicts = []
    if p["fit_exponent"]:
        beta_hat, r2 = fit_tail_exponent(curve)
        report["fitted_exponent"] = {"beta_hat": beta_hat, "r_squared": r2}
    if p["verify_tail"]:
        space = process_space(spec, p["gauge"])
        tail_report = verify_increment_tail(
            ensemble, space, "increment", spec.tail_beta, _u_grid(p["tail_u_grid"])
        )
        report["increment_tail"] = tail_report.to_dict()
        verdicts.append(tail_report.verdict)
    outputs["ensemble.csv"] = ensemble_to_csv(ensemble, p["t0"])
    outputs["tail_curve.csv"] = curve.to_csv()
    outputs["report.json"] = dumps(report)
    return verdicts


def _run_gamma(config, p, outputs):
    metric_id = p["metric_id"]
    if p["points"] is not None:
        space = FiniteMetricSpace.from_points(p["points"], metric_id)
    else:
        mat = np.asarray(p["matrix"], dtype=np.float64)
        space = FiniteMetricSpace(mat.shape[0], {metric_id: mat})
    beta = p["beta"]
    seq = build_admissible_greedy(space, metric_id, beta)
    curve = covering_curve(space, metric_id)
    report = {
        "experiment_config": config,
        "size": space.size,
        "diameter": diameter(space, metric_id),
        "greedy_levels": [list(lev) for lev in seq.levels],
        "gamma_greedy": gamma_value(space, metric_id, beta, seq),
        "dudley_integral": curve.dudley_integral(),
        "covering_exact": space.size <= EXACT_COVER_LIMIT,
    }
    if space.size <= EXHAUSTIVE_LIMIT:
        report["gamma_exhaustive"] = gamma_exhaustive(space, metric_id, beta)
    report["gamma_truncated"] = {
        str(q): gamma_truncated_value(space, metric_id, beta, q, seq)
        for q in p["p_values"]
    }
    outputs["covering.csv"] = curve.to_csv()
    outputs["report.json"] = dumps(report)
    return []


def _run_rip(config, p, outputs):
    col_dims = tuple(p["col_dims"])
    if p["operator"] == "fourier":
        u, group = fourier_unitary(col_dims), col_dims
    else:
        u, group = random_unitary(col_dims, rng_mod.stream(p["operator"]["seed"], 0)), None
    rep = rip_monte_carlo(
        u, p["xi"], p["tau"], p["trials"], p["seed"], target_size=p["target_size"],
        group=group,
    )
    outputs["rip_report.json"] = dumps({**rep.to_dict(), "experiment_config": config})
    outputs["rip_trials.csv"] = rep.to_csv()
    return []


def _emit_bound_report(config, outputs, report):
    outputs["bound_report.json"] = dumps({**report.to_dict(), "experiment_config": config})
    outputs["bound_report.csv"] = report.to_csv()
    return [report.verdict]


def _run_verify_azuma(config, p, outputs):
    row_modes = tuple(p["row_modes"])
    scale = 1.0 / math.sqrt(p["steps"])
    diffs = [
        scale * random_hermitian(row_modes, rng_mod.stream(p["difference_seed"], i))
        for i in range(p["steps"])
    ]
    report = verify_azuma(
        diffs, p["samples"], p["seed"], u_sigma_factors=p["u_sigma_factors"]
    )
    return _emit_bound_report(config, outputs, report)


def _run_verify_bernstein(config, p, outputs):
    row_modes = tuple(p["row_modes"])
    envelopes = [
        random_hermitian(row_modes, rng_mod.stream(p["envelope_seed"], i))
        for i in range(p["n"])
    ]
    report = verify_bernstein(envelopes, p["samples"], p["seed"], u_grid=p["u_grid"])
    return _emit_bound_report(config, outputs, report)


def _run_empirical(config, p, outputs):
    family = diagonal_family(
        tuple(p["row_modes"]), p["t_count"], p["n"], p["family_seed"], noise=p["noise"]
    )
    constants = None if p["constants"] is None else ConstantSet(**p["constants"])
    report = verify_empirical_bound(
        family, p["seed"], p["samples"], _u_grid(p["u_grid"]), constants=constants
    )
    return _emit_bound_report(config, outputs, report)


def _run_mixed_tail(config, p, outputs):
    basis_seed = p["basis_seed"]
    spec_g = _build_process_spec(p, "gaussian_linear", basis_seed, 2.0)
    spec_e = _build_process_spec(p, "subexponential_linear", basis_seed + 1000, 1.0)
    sups = sample_mixed_sups(spec_g, spec_e, p["seed"], p["samples"])
    metrics = {"d1": _increment_metric(spec_e), "d2": _increment_metric(spec_g)}
    space = FiniteMetricSpace(spec_g.index_count, metrics)
    gamma1 = gamma_value(space, "d1", 1.0, build_admissible_greedy(space, "d1", 1.0))
    gamma2 = gamma_value(space, "d2", 2.0, build_admissible_greedy(space, "d2", 2.0))
    params = {
        "gammas": [gamma1, gamma2],
        "diams": [diameter(space, "d1"), diameter(space, "d2")],
    }
    grid = _u_grid(p["u_grid"])
    if p["constants"] is None:
        constants = fit_constants("mixed", sups, grid, params)
    else:
        constants = ConstantSet(**p["constants"])
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
    """Execute the configured experiment and write its outputs.

    Nothing is written until the experiment has run, so a run that fails
    creates no output directory and leaves an existing one as it was.
    """
    outputs = {}
    start = time.perf_counter()
    verdicts = _RUNNERS[config["experiment"]](config, _settings(config), outputs)
    stages = {"run": time.perf_counter() - start}
    manifest = RunManifest(config, __version__, stages, digests={}, verdicts=verdicts,
                           workers=kernels._WORKERS)
    _write_run(out_dir, outputs, manifest)
    return manifest


# every name a run writes into --out: outputs, manifest, a fit failure's diagnostics
_OUTPUT_NAMES = ("ensemble.csv", "tail_curve.csv", "report.json", "covering.csv",
                 "rip_report.json", "rip_trials.csv", "bound_report.json",
                 "bound_report.csv", "manifest.json", "fit_diagnostics.json")


def _write_run(out_dir, outputs, manifest=None):
    """Write ``outputs`` (name -> text), then ``manifest`` with their digests
    and write time, into a temporary directory inside out_dir (created if
    missing), then move each file into out_dir, the manifest last, and
    remove the files of _OUTPUT_NAMES this run did not write; a fit failure
    passes its diagnostics alone.  out_dir itself and its other files are
    not touched, and a write that fails leaves out_dir as it was."""
    made = not os.path.isdir(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    temp = None
    try:
        temp = tempfile.mkdtemp(prefix=".tensorchain-", dir=out_dir)
        start = time.perf_counter()
        for name, text in sorted(outputs.items()):
            data = text.encode("ascii")
            with open(os.path.join(temp, name), "wb") as fh:
                fh.write(data)
            if manifest is not None:
                manifest.digests[name] = hashlib.sha256(data).hexdigest()
        names = sorted(outputs)
        if manifest is not None:
            manifest.stage_seconds["write"] = time.perf_counter() - start
            with open(os.path.join(temp, "manifest.json"), "wb") as fh:
                fh.write(dumps(asdict(manifest)).encode("ascii"))
            names.append("manifest.json")
    except BaseException:
        if temp is not None:
            shutil.rmtree(temp, ignore_errors=True)
        if made:
            os.rmdir(out_dir)
        raise
    for name in names:
        os.replace(os.path.join(temp, name), os.path.join(out_dir, name))
    os.rmdir(temp)
    for name in set(_OUTPUT_NAMES) - set(names):
        path = os.path.join(out_dir, name)
        if os.path.isfile(path):
            os.remove(path)


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
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON or UTF-8
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
    try:  # an --out that cannot be created or written
        try:
            manifest = run(config, args.out)
        except TensorChainError as exc:
            print(f"{exc.label}: {exc}", file=sys.stderr)
            if isinstance(exc, FitFailureError):
                _write_run(args.out, {"fit_diagnostics.json": dumps(exc.diagnostics)})
            return EXIT_CAPACITY if isinstance(exc, (CapacityError, WorkerError)) else EXIT_CONFIG
    except OSError as exc:
        print(f"output error: {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_CONFIG
    if any(v == "violated" for v in manifest.verdicts):
        print("bound verdict: violated", file=sys.stderr)
        return EXIT_VERDICT
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
