"""Output checks for the CLI experiments, computed apart from the package.

Every check reads the files an experiment wrote and its config, and
returns a list of problems (empty when the outputs are correct).  The
values are recomputed with plain numpy from the documented seeding
scheme: Philox streams keyed by (seed, stream index), Hermitian tensors
as (G + G^H) / 2 of a complex Gaussian unfolding.  Where no independent
value exists, a property the method must have is checked instead.
Nothing is compared against stored outputs.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import os

import numpy as np

REL_TOL = 1e-12
FIT_BOX = (1e-2, 1e3)
_MASK64 = (1 << 64) - 1


def philox(seed, index):
    key = np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def hermitian(row_modes, gen):
    dims = tuple(row_modes) * 2
    raw = gen.standard_normal(dims) + 1j * gen.standard_normal(dims)
    side = math.prod(row_modes)
    raw = raw.reshape(side, side)
    return (raw + raw.conj().T) / 2.0


def spectral_norms(mats):
    """Spectral norms of Hermitian matrices, as the largest |eigenvalue|."""
    return np.abs(np.linalg.eigvalsh(mats)).max(axis=-1)


def _close(a, b, rel=REL_TOL):
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _read_json(out, name):
    with open(os.path.join(out, name), encoding="ascii") as fh:
        return json.load(fh)


def _read_csv(out, name):
    with open(os.path.join(out, name), encoding="ascii", newline="") as fh:
        return list(csv.DictReader(fh))


def check_manifest(out):
    """Every digest in manifest.json is the sha256 of the file it names."""
    problems = []
    for name, digest in _read_json(out, "manifest.json")["digests"].items():
        with open(os.path.join(out, name), "rb") as fh:
            if hashlib.sha256(fh.read()).hexdigest() != digest:
                problems.append(f"manifest digest of {name} does not match the file")
    return problems


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def check_simulate(cfg, out):
    problems = []
    if cfg.get("family", "gaussian_linear") != "gaussian_linear":
        return [f"simulate check covers gaussian_linear only, got {cfg['family']}"]
    seed = cfg["seed"]
    nt, k, t0 = cfg["index_count"], cfg["basis_count"], cfg.get("t0", 0)
    basis_seed = cfg.get("basis_seed", seed + 1)
    basis = np.stack([hermitian(cfg["row_modes"], philox(basis_seed, i)) for i in range(k)])
    coeffs = philox(basis_seed, k).uniform(-1.0, 1.0, (nt, k))

    rows = _read_csv(out, "ensemble.csv")
    samples = cfg["samples"]
    if len(rows) != samples * nt:
        return [f"ensemble.csv has {len(rows)} rows, expected {samples * nt}"]
    index = np.array([[int(r["sample"]), int(r["t_index"])] for r in rows])
    expected_index = np.stack(np.meshgrid(np.arange(samples), np.arange(nt), indexing="ij"), -1)
    if not np.array_equal(index, expected_index.reshape(-1, 2)):
        problems.append("ensemble.csv rows are not in (sample, t_index) order")
    norms = np.array([float(r["norm"]) for r in rows]).reshape(samples, nt)

    for s in sorted({0, 1, samples // 2, samples - 1}):  # a few samples
        w = philox(seed, s).standard_normal(k)
        traj = np.einsum("tk,kij->tij", coeffs * w[None, :], basis)
        want = spectral_norms(traj - traj[t0])
        for t in range(nt):
            if not _close(norms[s, t], want[t]):
                problems.append(
                    f"ensemble.csv sample {s} index {t}: {norms[s, t]!r} != {want[t]!r}"
                )

    sups = norms.max(axis=1)
    for r in _read_csv(out, "tail_curve.csv"):
        u = float(r["u"])
        count = int((sups >= u).sum())
        if abs(float(r["count"]) - count) > 1e-9 or float(r["survival"]) != count / samples:
            problems.append(
                f"tail_curve.csv at u={u!r}: survival {r['survival']} count {r['count']}, "
                f"ensemble.csv gives {count}/{samples}"
            )

    report = _read_json(out, "report.json")
    if cfg.get("fit_exponent", True) and "fitted_exponent" not in report:
        problems.append("report.json lacks the fitted exponent")
    if cfg.get("verify_tail", False):
        verdict = report.get("increment_tail", {}).get("verdict")
        if verdict != "holds":
            problems.append(f"increment tail verdict is {verdict!r}")
    return problems


# ---------------------------------------------------------------------------
# gamma
# ---------------------------------------------------------------------------


def _chain_value(dist, levels, beta, start=0):
    total = np.zeros(dist.shape[0])
    for n, level in enumerate(levels):
        if n >= start:
            total += 2.0 ** (n / beta) * dist[:, list(level)].min(axis=1)
    return float(total.max())


def _exhaustive_gamma(dist, beta):
    n = dist.shape[0]
    if n == 1:
        return 0.0
    subs = np.array(list(itertools.combinations(range(n), min(4, n))))
    to_subset = dist[:, subs].min(axis=2)  # (n, subsets)
    # sup over t of d(t, root) + 2^(1/beta) d(t, subset), then min over both
    vals = dist[:, :, None] + 2.0 ** (1.0 / beta) * to_subset[:, None, :]
    return float(vals.max(axis=0).min())


def check_gamma(cfg, out):
    problems = []
    pts = np.asarray(cfg["points"], dtype=np.float64)
    n = pts.shape[0]
    beta = float(cfg.get("beta", 2.0))
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    report = _read_json(out, "report.json")

    if not _close(report["diameter"], float(dist.max())):
        problems.append(f"diameter {report['diameter']!r} != {float(dist.max())!r}")
    levels = report["greedy_levels"]
    if len(levels[0]) != 1 or sorted(levels[-1]) != list(range(n)):
        problems.append("greedy levels do not run from one point to the whole set")
    for i, level in enumerate(levels[1:], start=1):
        if len(level) > 2 ** (2**i):
            problems.append(f"greedy level {i} exceeds its cap")
    want = _chain_value(dist, levels, beta)
    if not _close(report["gamma_greedy"], want, 1e-10):
        problems.append(f"gamma_greedy {report['gamma_greedy']!r} != {want!r}")
    for p, value in report["gamma_truncated"].items():
        want = _chain_value(dist, levels, beta, int(math.floor(math.log2(float(p)))))
        if not _close(value, want, 1e-10):
            problems.append(f"gamma_truncated[{p}] {value!r} != {want!r}")
    if n <= 16:
        want = _exhaustive_gamma(dist, beta)
        got = report.get("gamma_exhaustive")
        if got is None or not _close(got, want, 1e-10):
            problems.append(f"gamma_exhaustive {got!r} != {want!r}")

    rows = _read_csv(out, "covering.csv")
    us = np.array([float(r["u"]) for r in rows])
    counts = np.array([int(r["covering_number"]) for r in rows])
    distances = np.unique(dist[dist > 0])
    if us.shape != distances.shape or not np.allclose(us, distances, rtol=REL_TOL, atol=0):
        return problems + ["covering.csv radii are not the distinct positive distances"]
    radius = float(dist.max(axis=1).min())
    for u, c in zip(us, counts):
        if not 1 <= c <= n:
            problems.append(f"N({u!r}) = {c} outside [1, {n}]")
        elif (c == 1) != (u >= radius * (1.0 - REL_TOL)):
            problems.append(f"N({u!r}) = {c}, but the space radius is {radius!r}")
    if n <= 20 and np.any(np.diff(counts) > 0):
        problems.append("exact covering numbers rise with the radius")
    steps = np.diff(np.concatenate(([0.0], us)))
    before = np.concatenate(([n], counts[:-1]))
    want = float(np.sum(np.sqrt(np.log(before)) * steps))
    if not _close(report["dudley_integral"], want, 1e-10):
        problems.append(f"dudley_integral {report['dudley_integral']!r} != {want!r}")
    return problems


# ---------------------------------------------------------------------------
# rip
# ---------------------------------------------------------------------------

def measurement_unitary(cfg):
    dims = [int(d) for d in cfg["col_dims"]]
    operator = cfg.get("operator", "fourier")
    if operator == "fourier":
        mat = np.ones((1, 1), np.complex128)
        for d in dims:
            mat = np.kron(mat, np.fft.fft(np.eye(d)) / math.sqrt(d))
        return mat
    side = math.prod(dims)
    gen = philox(int(operator["seed"]), 0)
    raw = gen.standard_normal(dims * 2) + 1j * gen.standard_normal(dims * 2)
    q, r = np.linalg.qr(raw.reshape(side, side))
    return q * (np.diag(r) / np.abs(np.diag(r)))[None, :]


def brute_force_tau(mat, xi):
    """Largest deviation from 1 of any eigenvalue of a xi-column Gram block."""
    gram = mat.conj().T @ mat
    k = min(xi, gram.shape[0])
    subs = np.array(list(itertools.combinations(range(gram.shape[0]), k)))
    w = np.linalg.eigvalsh(gram[subs[:, :, None], subs[:, None, :]])
    return max(0.0, float((w[:, -1] - 1.0).max()), float((1.0 - w[:, 0]).max()))


def check_rip(cfg, out):
    problems = []
    report = _read_json(out, "rip_report.json")
    rows = _read_csv(out, "rip_trials.csv")
    taus = [float(r["tau_value"]) for r in rows]
    trials = cfg["trials"]
    if report["method"] != "exact":
        problems.append(f"rip method is {report['method']!r}, expected exact")
    if len(taus) != trials or taus != report["tau_values"]:
        return problems + ["rip_trials.csv does not list the report's tau values"]
    eta = sum(t >= cfg["tau"] for t in taus) / trials
    if report["eta_hat"] != eta:
        problems.append(f"eta_hat {report['eta_hat']!r} != {eta!r} from rip_trials.csv")

    unitary = measurement_unitary(cfg)
    side = unitary.shape[0]
    target = cfg["target_size"]
    for trial in sorted({0, trials - 1}):
        keep = np.flatnonzero(philox(cfg["seed"], trial).random(side) < target / side)
        if keep.size:
            op = math.sqrt(side / target) * unitary[keep]
        else:
            op = np.zeros((1, side), np.complex128)
        want = brute_force_tau(op, cfg["xi"])
        if abs(taus[trial] - want) > 1e-10:
            problems.append(f"trial {trial}: tau {taus[trial]!r} != brute force {want!r}")
    return problems


# ---------------------------------------------------------------------------
# bound reports
# ---------------------------------------------------------------------------


def _check_rows(report, samples):
    problems = []
    if report["verdict"] != "holds":
        problems.append(f"verdict is {report['verdict']!r}")
    for row in report["rows"]:
        if row["holds"] != (row["empirical"] <= row["prob_bound"] + row["margin"]):
            problems.append(f"row u={row['u']!r}: holds flag contradicts its figures")
    if report["inputs"]["samples"] != samples:
        problems.append(f"report counts {report['inputs']['samples']} samples, not {samples}")
    return problems


def _check_frequencies(report, stats, thresholds, probs):
    problems = []
    samples = stats.size
    for row, thr, pb in zip(report["rows"], thresholds, probs):
        if not _close(row["threshold"], thr) or not _close(row["prob_bound"], pb):
            problems.append(
                f"row u={row['u']!r}: threshold/bound {row['threshold']!r}/"
                f"{row['prob_bound']!r} != {thr!r}/{pb!r}"
            )
        # one sample may sit on the threshold within rounding
        freq = float((stats >= thr).mean())
        if abs(row["empirical"] - freq) > 1.5 / samples:
            problems.append(f"row u={row['u']!r}: empirical {row['empirical']!r} != {freq!r}")
    return problems


def check_verify_azuma(cfg, out):
    report = _read_json(out, "bound_report.json")
    problems = _check_rows(report, cfg["samples"])
    modes, steps = cfg["row_modes"], cfg["steps"]
    diff_seed = cfg.get("difference_seed", cfg["seed"] + 1)
    diffs = np.stack(
        [hermitian(modes, philox(diff_seed, i)) / math.sqrt(steps) for i in range(steps)]
    )
    sigma = math.sqrt(float(np.linalg.eigvalsh((diffs @ diffs).sum(axis=0))[-1]))
    if not _close(report["inputs"]["sigma"], sigma):
        problems.append(f"sigma {report['inputs']['sigma']!r} != {sigma!r}")
    signs = philox(cfg["seed"], 0).integers(0, 2, (cfg["samples"], steps)) * 2.0 - 1.0
    stats = np.linalg.eigvalsh(np.einsum("sk,kij->sij", signs, diffs))[:, -1]
    u_values = [f * sigma for f in cfg.get("u_sigma_factors", (2.0, 3.0, 4.0))]
    probs = [min(1.0, math.prod(modes) * math.exp(-(u**2) / (8.0 * sigma**2))) for u in u_values]
    return problems + _check_frequencies(report, stats, u_values, probs)


def check_verify_bernstein(cfg, out):
    report = _read_json(out, "bound_report.json")
    problems = _check_rows(report, cfg["samples"])
    modes, n = cfg["row_modes"], cfg["n"]
    env_seed = cfg.get("envelope_seed", cfg["seed"] + 1)
    env = np.stack([hermitian(modes, philox(env_seed, i)) for i in range(n)])
    sigma = math.sqrt(float(np.linalg.eigvalsh((env @ env).sum(axis=0) / n)[-1]))
    upsilon = float(spectral_norms(env).max())
    for name, want in (("sigma", sigma), ("upsilon", upsilon)):
        if not _close(report["inputs"][name], want):
            problems.append(f"{name} {report['inputs'][name]!r} != {want!r}")
    w = philox(cfg["seed"], 0).uniform(-1.0, 1.0, (cfg["samples"], n))
    stats = np.linalg.eigvalsh(np.einsum("sn,nij->sij", w, env) / n)[:, -1]
    us = [float(u) for u in cfg.get("u_grid", (1.0, 2.0, 3.0))]
    thresholds = [sigma * math.sqrt(2.0 * u / n) + upsilon * u / n for u in us]
    probs = [min(1.0, 2.0 * math.prod(modes) * math.exp(-u)) for u in us]
    return problems + _check_frequencies(report, stats, thresholds, probs)


def check_fitted(cfg, out):
    """mixed-tail and empirical: fitted constants inside the box, verdict holds."""
    report = _read_json(out, "bound_report.json")
    problems = _check_rows(report, cfg["samples"])
    if not report["fitted"]:
        problems.append("no fitted constants reported")
    for name, value in report["fitted"].items():
        if not FIT_BOX[0] <= value <= FIT_BOX[1]:
            problems.append(f"fitted {name} = {value!r} outside {FIT_BOX}")
    return problems


CHECKS = {
    "simulate": check_simulate,
    "gamma": check_gamma,
    "rip": check_rip,
    "verify-azuma": check_verify_azuma,
    "verify-bernstein": check_verify_bernstein,
    "empirical": check_fitted,
    "mixed-tail": check_fitted,
}


def check(experiment, cfg, out):
    """All problems with one invocation's outputs; a missing file is one."""
    try:
        return check_manifest(out) + CHECKS[experiment](cfg, out)
    except (OSError, KeyError, ValueError) as exc:
        return [f"unreadable output: {exc!r}"]
