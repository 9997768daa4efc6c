"""Acceptance suite.

Each test exercises one acceptance criterion end to end at its stated
tolerance and prints a single verdict line.  Run with ``pytest -s
tests/test_acceptance.py`` to see the lines as they pass.
"""

import itertools
import json
import math

import numpy as np
import pytest

from tensorchain import rng as trng
from tensorchain.bounds import (
    SEARCH_BOX,
    evaluate_bound,
    fit_constants,
    moment_to_tail,
    tail_to_moment,
    verify_azuma,
    verify_bernstein,
)
from tensorchain.chaining import (
    FiniteMetricSpace,
    build_admissible_greedy,
    diameter,
    gamma_exhaustive,
    gamma_truncated_value,
    gamma_value,
)
from tensorchain.cli import main as cli_main
from tensorchain.processes import (
    ProcessSpec,
    empirical_tail,
    fit_tail_exponent,
    process_space,
    sample_ensemble,
    sample_mixed_sups,
)
from tensorchain.sensing import (
    fourier_unitary,
    rip_exact,
    rip_monte_carlo,
    rip_sampling_condition,
)
from tensorchain.tensor import (
    GaugeNorm,
    Shape,
    einstein_product,
    fold,
    inner_product,
    norm,
    random_hermitian,
    random_tensor,
    trace,
    unfold,
)

SAMPLES = 10_000


def conclude(number: int, label: str, ok: bool, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:2d} [{label}]: {verdict}{suffix}")
    assert ok, f"criterion {number} ({label}) failed{suffix}"


# ---------------------------------------------------------------------------
# 1. algebra oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_1_algebra_oracles():
    gen = trng.stream(1001, 0)

    def random_modes():
        return tuple(int(e) for e in gen.integers(1, 5, int(gen.integers(1, 4))))

    product_exact = 0
    stat_checks = 0
    for _ in range(1000):
        rows, mids, cols = random_modes(), random_modes(), random_modes()
        a = random_tensor(Shape(rows, mids), gen)
        b = random_tensor(Shape(mids, cols), gen)
        got = einstein_product(a, b)
        oracle = fold(unfold(a) @ unfold(b), Shape(rows, cols))
        product_exact += int(np.array_equal(got.data, oracle.data))

        # entrywise statistics against plain python loops
        c = random_tensor(Shape(rows, mids), gen)
        flat_a, flat_c = a.entries, c.entries
        inner_loop = sum(complex(x).conjugate() * complex(y) for x, y in zip(flat_a, flat_c))
        assert inner_product(a, c) == pytest.approx(inner_loop, rel=1e-12)
        fro_loop = math.sqrt(sum(abs(complex(x)) ** 2 for x in flat_a))
        assert norm(a, GaugeNorm.FROBENIUS) == pytest.approx(fro_loop, rel=1e-12)
        sq = random_tensor(Shape(rows, rows), gen)
        trace_loop = sum(
            complex(sq.data[idx + idx]) for idx in np.ndindex(*rows)
        )
        assert trace(sq) == pytest.approx(trace_loop, rel=1e-12)
        stat_checks += 1

    conclude(
        1,
        "algebra oracle equivalence",
        product_exact == 1000 and stat_checks == 1000,
        f"{product_exact}/1000 products bit-exact, {stat_checks} stat triples at 1e-12",
    )


# ---------------------------------------------------------------------------
# 2. unitary isometry of mode-wise Fourier operators
# ---------------------------------------------------------------------------


def test_criterion_2_fourier_isometry():
    shapes = [(2,), (4,), (8,), (16,), (2, 2), (2, 4), (4, 4), (2, 2, 2),
              (4, 8), (8, 8), (2, 2, 2, 2), (16, 16), (256,)]
    gen = trng.stream(1002, 0)
    worst = 0.0
    checked = 0
    for dims in shapes:
        u = fourier_unitary(dims)
        per_shape = max(1, 100 // len(shapes))
        for _ in range(per_shape):
            x = random_tensor(Shape(dims, (2,)), gen)
            ratio = norm(einstein_product(u, x), GaugeNorm.FROBENIUS) / norm(
                x, GaugeNorm.FROBENIUS
            )
            worst = max(worst, abs(ratio - 1.0))
            checked += 1
    while checked < 100:
        x = random_tensor(Shape((256,), (2,)), gen)
        u = fourier_unitary((256,))
        ratio = norm(einstein_product(u, x), GaugeNorm.FROBENIUS) / norm(
            x, GaugeNorm.FROBENIUS
        )
        worst = max(worst, abs(ratio - 1.0))
        checked += 1
    conclude(
        2,
        "unitary isometry",
        worst <= 1e-10 and checked >= 100,
        f"worst |ratio-1| = {worst:.2e} over {checked} signals",
    )


# ---------------------------------------------------------------------------
# 3. chaining-functional oracle agreement
# ---------------------------------------------------------------------------


def test_criterion_3_gamma_oracles():
    gen = trng.stream(1003, 0)
    dominated = 0
    within_factor_two = 0
    truncation_exact = 0
    total = 50
    for case in range(total):
        n = int(gen.integers(2, 17))
        dim = int(gen.integers(1, 4))
        pts = gen.uniform(-1.0, 1.0, (n, dim))
        if case % 3 == 0:
            pts[: n // 2] *= 0.05  # clustered geometry
        space = FiniteMetricSpace.from_points(pts)
        seq = build_admissible_greedy(space, "euclidean", 2.0)
        greedy = gamma_value(space, "euclidean", 2.0, seq)
        exact = gamma_exhaustive(space, "euclidean", 2.0)
        dominated += int(greedy >= exact - 1e-12)
        within_factor_two += int(greedy <= 2.0 * exact + 1e-12)
        truncation_exact += int(
            gamma_truncated_value(space, "euclidean", 2.0, 1.0, seq) == greedy
        )
    conclude(
        3,
        "chaining oracle agreement",
        dominated == total and within_factor_two >= 0.9 * total
        and truncation_exact == total,
        f"dominated {dominated}/{total}, within 2x {within_factor_two}/{total}, "
        f"p=1 truncation exact {truncation_exact}/{total}",
    )


# ---------------------------------------------------------------------------
# 4. tail-exponent recovery
# ---------------------------------------------------------------------------


def _fit_exponent(family, basis_count, levels, seed):
    basis = tuple(
        random_hermitian((2,), trng.stream(seed, k)) for k in range(basis_count)
    )
    coeffs = trng.stream(seed, 99).uniform(-1.0, 1.0, (8, basis_count))
    spec = ProcessSpec(family, coeffs, basis, 2.0 if "gauss" in family else 1.0)
    ens = sample_ensemble(spec, seed + 1, SAMPLES)
    sups = ens.sup_samples(0)
    grid = np.unique(np.quantile(sups, 1.0 - np.geomspace(levels[0], levels[1], 12)))
    return fit_tail_exponent(empirical_tail(ens, 0, grid))


def test_criterion_4_tail_exponent_recovery():
    # the exponent is a deep-tail property: sums of subexponential scalars
    # are CLT-rounded in the bulk, so their window sits further out
    beta_g, r2_g = _fit_exponent("gaussian_linear", 4, (0.5, 0.005), seed=1004)
    beta_e, r2_e = _fit_exponent("subexponential_linear", 2, (0.2, 0.002), seed=1005)
    ok = (
        1.7 <= beta_g <= 2.3
        and r2_g >= 0.95
        and 0.8 <= beta_e <= 1.2
        and r2_e >= 0.95
    )
    conclude(
        4,
        "tail-exponent recovery",
        ok,
        f"gaussian beta={beta_g:.3f} (r2={r2_g:.3f}), "
        f"subexponential beta={beta_e:.3f} (r2={r2_e:.3f})",
    )


# ---------------------------------------------------------------------------
# 5. explicit-constant bounds
# ---------------------------------------------------------------------------


def test_criterion_5_explicit_constant_bounds():
    all_hold = True
    details = []
    for row_modes in ((2,), (2, 2)):
        for steps in (10, 50):
            diffs = [
                (1.0 / math.sqrt(steps))
                * random_hermitian(row_modes, trng.stream(1006, 100 * steps + i))
                for i in range(steps)
            ]
            rep = verify_azuma(diffs, SAMPLES, seed=1007 + steps)
            all_hold &= rep.verdict == "holds"
            details.append(f"azuma{row_modes}x{steps}:{rep.verdict}")
            envs = [
                random_hermitian(row_modes, trng.stream(1008, 100 * steps + i))
                for i in range(steps)
            ]
            rep = verify_bernstein(envs, SAMPLES, seed=1009 + steps)
            all_hold &= rep.verdict == "holds"
            details.append(f"bernstein{row_modes}x{steps}:{rep.verdict}")
    conclude(5, "explicit-constant bounds", all_hold, ", ".join(details))


# ---------------------------------------------------------------------------
# 6. fitted-constant bounds
# ---------------------------------------------------------------------------


def test_criterion_6_fitted_constant_bounds():
    grid = np.linspace(1.0, 5.0, 10)

    basis = tuple(random_hermitian((2,), trng.stream(1010, k)) for k in range(4))
    coeffs = trng.stream(1010, 99).uniform(-1.0, 1.0, (8, 4))
    spec = ProcessSpec("gaussian_linear", coeffs, basis, 2.0)
    space = process_space(spec)
    params = {
        "beta": 2.0,
        "gamma": gamma_value(
            space, "increment", 2.0, build_admissible_greedy(space, "increment", 2.0)
        ),
        "diam": diameter(space, "increment"),
    }
    fits = []
    verdicts = []
    for seed in (1, 2, 3):
        ens = sample_ensemble(spec, 7000 + seed, SAMPLES)
        sups = ens.sup_samples(0)
        cs = fit_constants("exp_tail", sups, grid, params)
        fits.append(cs.chain_const)
        verdicts.append(evaluate_bound("exp_tail", sups, grid, params, cs).verdict)
    single_ok = (
        all(v == "holds" for v in verdicts)
        and all(SEARCH_BOX[0] <= f <= SEARCH_BOX[1] for f in fits)
        and max(fits) / min(fits) <= 1.2
    )

    basis_g = tuple(random_hermitian((2,), trng.stream(1011, k)) for k in range(3))
    basis_e = tuple(random_hermitian((2,), trng.stream(1012, k)) for k in range(3))
    cg = trng.stream(1011, 99).uniform(-1.0, 1.0, (6, 3))
    ce = trng.stream(1012, 99).uniform(-1.0, 1.0, (6, 3))
    spec_g = ProcessSpec("gaussian_linear", cg, basis_g, 2.0)
    spec_e = ProcessSpec("subexponential_linear", ce, basis_e, 1.0)
    from tensorchain.processes import process_metric

    space2 = FiniteMetricSpace(
        6, {"d1": process_metric(spec_e), "d2": process_metric(spec_g)}
    )
    params2 = {
        "gammas": [
            gamma_value(space2, "d1", 1.0, build_admissible_greedy(space2, "d1", 1.0)),
            gamma_value(space2, "d2", 2.0, build_admissible_greedy(space2, "d2", 2.0)),
        ],
        "diams": [diameter(space2, "d1"), diameter(space2, "d2")],
    }
    fits2 = []
    verdicts2 = []
    for seed in (4, 5, 6):
        sups = sample_mixed_sups(spec_g, spec_e, 8000 + seed, SAMPLES)
        cs = fit_constants("mixed", sups, grid, params2)
        fits2.append(cs.mixed_chain_const)
        verdicts2.append(evaluate_bound("mixed", sups, grid, params2, cs).verdict)
    mixed_ok = (
        all(v == "holds" for v in verdicts2)
        and all(SEARCH_BOX[0] <= f <= SEARCH_BOX[1] for f in fits2)
        and max(fits2) / min(fits2) <= 1.2
    )
    conclude(
        6,
        "fitted-constant bounds",
        single_ok and mixed_ok,
        f"single-tail fits {[round(f, 4) for f in fits]}, "
        f"mixed fits {[round(f, 4) for f in fits2]}",
    )


# ---------------------------------------------------------------------------
# 7. restricted isometry exactness
# ---------------------------------------------------------------------------


def test_criterion_7_rip_exactness():
    gen = trng.stream(1013, 0)
    agree = 0
    monotone = 0
    total = 20
    for _ in range(total):
        rows = int(gen.integers(2, 9))
        cols = int(gen.integers(rows, 17))
        mat = gen.standard_normal((rows, cols)) + 1j * gen.standard_normal((rows, cols))
        a = fold(mat / math.sqrt(rows), Shape((rows,), (cols,)))
        values = []
        ok = True
        for xi in (1, 2, 3):
            got = rip_exact(a, xi)
            gram = unfold(a).conj().T @ unfold(a)
            brute = 0.0
            for sup in itertools.combinations(range(cols), min(xi, cols)):
                w = np.linalg.eigvalsh(gram[np.ix_(sup, sup)])
                brute = max(brute, float(w[-1] - 1.0), float(1.0 - w[0]))
            ok &= abs(got - brute) <= 1e-10
            values.append(got)
        agree += int(ok)
        monotone += int(all(x <= y + 1e-12 for x, y in zip(values, values[1:])))
    conclude(
        7,
        "restricted isometry exactness",
        agree == total and monotone == total,
        f"oracle agreement {agree}/{total}, monotone in xi {monotone}/{total}",
    )


# ---------------------------------------------------------------------------
# 8. sampling-condition directional check
# ---------------------------------------------------------------------------


def test_criterion_8_sampling_sweep():
    u = fourier_unitary((64,))
    xi, tau, eta_req = 2, 0.5, 0.25
    targets = (8, 16, 32, 48)
    etas = {}
    for target in targets:
        rep = rip_monte_carlo(u, xi, tau, trials=500, seed=1014, target_size=target)
        etas[target] = rep.eta_hat
    values = [etas[t] for t in targets]
    nonincreasing = all(a >= b for a, b in zip(values, values[1:]))
    crossing = [t for t in targets if etas[t] <= eta_req]
    ok = nonincreasing and crossing
    if ok:
        mstar = crossing[0]
        below = [t for t in targets if t < mstar]

        def requirement(m, s):
            log_term = s * math.log(xi) ** 2 * math.log(m) * math.log(64)
            eta_term = s * math.log(1.0 / eta_req)
            return xi * 1.0 * tau**-2 * max(log_term, eta_term)

        hi = mstar / requirement(mstar, 1.0)
        lo = max((t / requirement(t, 1.0) for t in below), default=hi / 4.0)
        ok = lo < hi
        if ok:
            s = math.sqrt(lo * hi)
            consistent = all(
                rip_sampling_condition(xi, 1.0, tau, eta_req, (t,), (64,), s, s)
                == (etas[t] <= eta_req)
                for t in targets
            )
            ok = consistent
    conclude(
        8,
        "sampling-condition direction",
        bool(ok),
        "eta sweep " + ", ".join(f"{t}:{etas[t]:.3f}" for t in targets),
    )


# ---------------------------------------------------------------------------
# 9. moment/tail conversions dominate exact laws
# ---------------------------------------------------------------------------


def test_criterion_9_conversion_round_trip():
    points = (1.0, 2.0, 4.0)

    def gauss_tail(x):
        return math.erfc(x / math.sqrt(2.0))

    def gauss_moment(p):
        return math.sqrt(2.0) * (
            math.gamma((p + 1) / 2.0) / math.sqrt(math.pi)
        ) ** (1.0 / p)

    ok = True
    # gaussian: moments dominated by sqrt(2) sqrt(p); implied tail must hold
    for p in points:
        ok &= gauss_moment(p) <= math.sqrt(2.0) * math.sqrt(p)
    for u in points:
        thr, pb = moment_to_tail(math.sqrt(2.0), 0.0, 2.0, u)
        ok &= gauss_tail(thr) <= pb
    # gaussian: tail P(|Z| >= sqrt(e) u) <= 2 e^{-u^2/2}; implied moments hold
    for p in points:
        ok &= gauss_moment(p) <= tail_to_moment(1.0, 2.0, 2.0, p)
    # exponential law, rate one
    for p in points:
        ok &= math.gamma(p + 1.0) ** (1.0 / p) <= p
    for u in points:
        thr, pb = moment_to_tail(1.0, 0.0, 1.0, u)
        ok &= math.exp(-thr) <= pb
    for p in points:
        ok &= math.gamma(p + 1.0) ** (1.0 / p) <= tail_to_moment(1.0, 1.0, 1.0, p)
    conclude(9, "moment/tail round trip", ok, "gaussian and exponential laws")


# ---------------------------------------------------------------------------
# 10. end-to-end determinism
# ---------------------------------------------------------------------------


def test_criterion_10_determinism(tmp_path):
    configs = [
        {
            "experiment": "simulate", "seed": 11, "samples": 400,
            "family": "gaussian_linear", "index_count": 4, "basis_count": 2,
            "row_modes": [2], "verify_tail": True,
            "tail_u_grid": [0.5, 1.0, 2.0],
        },
        {"experiment": "gamma", "seed": 12, "points": [[0.0], [1.0], [3.0]]},
        {
            "experiment": "rip", "seed": 13, "col_dims": [8], "target_size": 4,
            "xi": 2, "tau": 0.5, "trials": 25, "operator": "fourier",
        },
        {"experiment": "verify-azuma", "seed": 14, "samples": 400,
         "row_modes": [2], "steps": 10},
        {"experiment": "verify-bernstein", "seed": 15, "samples": 400,
         "row_modes": [2], "n": 10},
        {"experiment": "empirical", "seed": 16, "samples": 400,
         "row_modes": [2], "t_count": 3, "n": 6},
        {"experiment": "mixed-tail", "seed": 17, "samples": 400,
         "row_modes": [2], "index_count": 4, "basis_count": 2},
    ]
    all_equal = True
    for i, cfg in enumerate(configs):
        path = tmp_path / f"cfg{i}.json"
        path.write_text(json.dumps(cfg))
        digests = []
        for attempt in ("a", "b"):
            out = tmp_path / f"out{i}{attempt}"
            code = cli_main(
                [cfg["experiment"], "--config", str(path), "--out", str(out)]
            )
            assert code == 0, f"{cfg['experiment']} exited {code}"
            digests.append(
                json.loads((out / "manifest.json").read_text())["digests"]
            )
        all_equal &= digests[0] == digests[1]
    conclude(
        10, "end-to-end determinism", all_equal, f"{len(configs)} experiments rerun"
    )
