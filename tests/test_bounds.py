import math
import tracemalloc

import numpy as np
import pytest

from tensorchain import rng as trng
from tensorchain.bounds import (
    SEARCH_BOX,
    ConstantSet,
    azuma_tail,
    bernstein_tail,
    empirical_sup_tail_bound,
    evaluate_bound,
    exp_tail_sup_moment_bound,
    exp_tail_sup_tail_bound,
    fit_constants,
    martingale_chain_metric,
    martingale_sup_tail_bound,
    mixed_moment_envelope,
    mixed_moment_to_tail,
    mixed_tail_sup_moment_bound,
    mixed_tail_sup_tail_bound,
    mixed_tail_to_moment,
    moment_to_tail,
    scaled_tail_moment_bound,
    tail_to_moment,
    union_bound_series_constant,
    verify_azuma,
    verify_bernstein,
)
from tensorchain.errors import DomainError, FitFailureError, ValidationError
from tensorchain.processes import (
    ProcessSpec,
    process_space,
    sample_ensemble,
    verify_increment_tail,
)
from tensorchain.tensor import DenseTensor, Shape, norm, random_hermitian


def gaussian_upper_tail(x):
    """P(|Z| >= x) for a standard normal."""
    return math.erfc(x / math.sqrt(2.0))


def gaussian_abs_moment(p):
    """(E |Z|^p)^(1/p) for a standard normal."""
    return math.sqrt(2.0) * (math.gamma((p + 1) / 2.0) / math.sqrt(math.pi)) ** (1.0 / p)


def exponential_moment(p):
    """(E X^p)^(1/p) for a rate-one exponential."""
    return math.gamma(p + 1.0) ** (1.0 / p)


# ---------------------------------------------------------------------------
# single-exponential-tail formulas
# ---------------------------------------------------------------------------


def test_moment_bound_degenerate_cases():
    assert exp_tail_sup_moment_bound(0.0, 0.0, 2.0) == 0.0
    assert exp_tail_sup_moment_bound(1.0, 3.0, 2.0) == 8.0
    assert exp_tail_sup_moment_bound(0.0, 3.0, 2.0) == 6.0  # singleton index set
    with pytest.raises(DomainError):
        exp_tail_sup_moment_bound(-1.0, 0.0, 1.0)


def test_tail_bound_formula_cases():
    thr, pb = exp_tail_sup_tail_bound(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    assert thr == pytest.approx(2.0 * math.e)
    assert pb == pytest.approx(math.exp(-1.0))
    thr, pb = exp_tail_sup_tail_bound(0.0, 0.0, 2.0, 2.0, 1.0, 1.0)
    assert thr == 0.0
    assert pb == pytest.approx(math.exp(-(2.0**2) / 2.0))
    with pytest.raises(DomainError):
        exp_tail_sup_tail_bound(1.0, 1.0, 0.5, 2.0, 1.0, 1.0)


def test_moment_to_tail_cases():
    thr, pb = moment_to_tail(1.0, 0.0, 2.0, 1.0)
    assert (thr, pb) == (
        pytest.approx(math.sqrt(math.e)),
        pytest.approx(math.exp(-0.5)),
    )
    thr2, _ = moment_to_tail(0.0, 2.0, 1.0, 3.0)
    assert thr2 == pytest.approx(math.e * 2.0)  # constant in u when a = 0
    with pytest.raises(DomainError):
        moment_to_tail(1.0, 0.0, 2.0, 0.5)


def test_moment_to_tail_dominates_gaussian_law():
    # (E|Z|^p)^(1/p) <= sqrt(2) sqrt(p), so the implied tail must dominate
    for p in (1.0, 2.0, 4.0):
        assert gaussian_abs_moment(p) <= math.sqrt(2.0) * math.sqrt(p)
    for u in (1.0, 2.0, 4.0):
        thr, pb = moment_to_tail(math.sqrt(2.0), 0.0, 2.0, u)
        assert gaussian_upper_tail(thr) <= pb


def test_moment_to_tail_dominates_exponential_law():
    for p in (1.0, 2.0, 4.0):
        assert exponential_moment(p) <= p
    for u in (1.0, 2.0, 4.0):
        thr, pb = moment_to_tail(1.0, 0.0, 1.0, u)
        assert math.exp(-thr) <= pb


def test_tail_to_moment_formula_and_limit():
    val = tail_to_moment(1.0, 1.0, 1.0, 1.0)
    assert val == pytest.approx(
        math.exp(1.0 / (2.0 * math.e)) * math.sqrt(2.0 * math.pi) * math.exp(1.0 / 12.0)
    )
    # the p-th-root factor tends to one
    big = tail_to_moment(1.0, 1.0, 2.0, 1e6)
    asym = math.exp(1.0 / (2.0 * math.e)) * (1e6) ** 0.5
    assert big == pytest.approx(asym, rel=1e-5)


def test_tail_to_moment_dominates_true_moments():
    # gaussian: P(|Z| >= sqrt(e) u) <= 2 exp(-u^2/2) holds, so the implied
    # moment bound must dominate the true moments
    for u in (0.5, 1.0, 2.0, 4.0):
        assert gaussian_upper_tail(math.sqrt(math.e) * u) <= 2.0 * math.exp(-(u**2) / 2)
    for p in (1.0, 2.0, 4.0):
        assert gaussian_abs_moment(p) <= tail_to_moment(1.0, 2.0, 2.0, p)
    # exponential: P(X >= e u) = exp(-e u) <= exp(-u)
    for p in (1.0, 2.0, 4.0):
        assert exponential_moment(p) <= tail_to_moment(1.0, 1.0, 1.0, p)


def test_round_trip_moment_tail_moment_bounded_factor():
    # feeding the implied tail back through the moment bound stays within a
    # fixed multiplicative factor of the starting moment law a p^(1/beta)
    for p in (1.0, 2.0, 4.0, 8.0):
        a, beta = 1.0, 2.0
        back = tail_to_moment(a, 1.0, beta, p)
        assert back <= 6.0 * a * p ** (1.0 / beta)
        assert back >= a * p ** (1.0 / beta)


def test_scaled_tail_moment_bound():
    assert scaled_tail_moment_bound(0.0, 1.0, 2.0, 2.0, 2.0, 1.0) == 0.0
    assert scaled_tail_moment_bound(3.0, 2.0, 0.0, 2.0, 2.0, 5.0) == 6.0
    assert scaled_tail_moment_bound(2.0, 1.0, 3.0, 2.0, 2.0, 1.5) == 2.0 * (4.5 + 1.0)


def test_scaled_tail_moment_bound_monte_carlo():
    # exact law P(x > r u) = exp(-p u^beta / 4) via inverse sampling
    r, beta, p_exp = 2.0, 2.0, 2.0
    gen = trng.stream(5, 0)
    uni = gen.random(20000)
    x = r * (-4.0 * np.log(uni) / p_exp) ** (1.0 / beta)
    for p in (1.0, 2.0, 4.0):
        emp = float(np.mean(x**p) ** (1.0 / p))
        assert emp <= scaled_tail_moment_bound(r, 1.0, 1.0, beta, p, 2.0) * 1.02


def test_union_bound_series_constant():
    r = math.exp(2.0 * math.log(2.0) - 1.5)
    assert r < 1.0  # log 2 < 0.75
    partial = sum(r**n for n in range(1, 300))
    assert union_bound_series_constant() == pytest.approx(partial, abs=1e-12)
    assert union_bound_series_constant() == pytest.approx(8.30, abs=5e-3)


def test_union_bound_tail_comparison_at_small_p():
    # 2 exp(-2^n' u^b / 2) C1 <= C1 exp(-p u^b / 4) via 2^n' >= p/2
    c1 = union_bound_series_constant()
    for beta in (1.0, 2.0, 3.0):
        p = 4.0
        n_prime = math.floor(math.log2(p))
        u = 2.0 ** (1.0 / beta)
        lhs = 2.0 * math.exp(-(2.0**n_prime) * u**beta / 2.0) * c1
        rhs = c1 * math.exp(-p * u**beta / 4.0)
        assert lhs <= rhs


# ---------------------------------------------------------------------------
# martingale bounds
# ---------------------------------------------------------------------------


def test_azuma_formula_cases():
    assert azuma_tail(1.0, 0.0, (2,)) == 2.0
    assert azuma_tail(1.0, 4.0, (2,)) == pytest.approx(2.0 * math.exp(-2.0))
    with pytest.raises(DomainError):
        azuma_tail(0.0, 1.0, (2,))


@pytest.mark.parametrize(
    "sigma, u, ratio",
    [(1.0, 1e200, math.inf), (1e200, 2e200, 2.0), (1e-170, 1e-170, 1.0), (1e-170, 1.0, math.inf)],
)
def test_azuma_tail_where_a_square_leaves_the_float_range(sigma, u, ratio):
    # u^2 or sigma^2 over- or underflows; u / sigma does not, or is beyond the range
    assert azuma_tail(sigma, u, (2,)) == pytest.approx(2.0 * math.exp(-(ratio**2) / 8.0))


def test_chain_metric_cases():
    assert martingale_chain_metric([]) == 0.0
    d = random_hermitian((2,), trng.stream(7, 0))
    assert martingale_chain_metric([d]) == pytest.approx(
        norm(d, "spectral"), rel=1e-12
    )
    # two commuting diagonal differences
    d1 = DenseTensor(Shape((2,), (2,)), np.diag([1.0, 2.0]).astype(complex))
    d2 = DenseTensor(Shape((2,), (2,)), np.diag([3.0, 1.0]).astype(complex))
    assert martingale_chain_metric([d1, d2]) == pytest.approx(
        math.sqrt(max(1 + 9, 4 + 1))
    )


def test_chain_metric_rejects_non_hermitian():
    gen = trng.stream(8, 0)
    bad = DenseTensor(
        Shape((2,), (2,)), gen.standard_normal((2, 2)) + 1j * gen.standard_normal((2, 2))
    )
    with pytest.raises(ValidationError):
        martingale_chain_metric([bad])


def test_martingale_tail_formula():
    thr, pb = martingale_sup_tail_bound(1.0, 1.0, 1.0, 1.0, 1.0)
    assert thr == pytest.approx(2.0 * math.sqrt(math.e))
    assert pb == pytest.approx(math.exp(-0.5))
    with pytest.raises(DomainError):
        martingale_sup_tail_bound(1.0, 1.0, 0.9, 1.0, 1.0)


def test_verify_azuma_holds():
    steps = 20
    diffs = [
        (1.0 / math.sqrt(steps)) * random_hermitian((2,), trng.stream(9, i))
        for i in range(steps)
    ]
    report = verify_azuma(diffs, 5000, seed=10)
    assert report.verdict == "holds"
    assert report.inputs["sigma"] > 0


# ---------------------------------------------------------------------------
# mixed-tail formulas
# ---------------------------------------------------------------------------


def test_mixed_moment_to_tail_cases():
    thr, pb = mixed_moment_to_tail([0.0, 0.0], 1.0, 2.0)
    assert thr == pytest.approx(math.e)
    assert pb == pytest.approx(math.exp(-2.0))
    thr, _ = mixed_moment_to_tail([1.0], 1.0, 1.0)
    assert thr == pytest.approx(2.0 * math.e)
    with pytest.raises(DomainError):
        mixed_moment_to_tail([1.0], 0.0, 0.5)


def test_mixed_moment_to_tail_dominates_exponential():
    # exponential moments: Gamma(p+1)^(1/p) <= p = a1 p^(1/1)
    for u in (1.0, 2.0, 4.0, 6.0):
        thr, pb = mixed_moment_to_tail([1.0], 0.0, u)
        assert math.exp(-thr) <= pb


def test_mixed_envelopes_match_closed_forms():
    p = 2.0
    f1_expected = math.sqrt(2.0 * math.pi * p) * p**p * math.exp(-p + 1.0 / (12 * p))
    f2_expected = (
        math.sqrt(math.pi)
        * math.exp(1.0 / (6 * p))
        * (2 * math.e) ** (-p / 2)
        * math.exp(p / (2 * math.e))
        * p ** (p / 2)
    )
    assert mixed_moment_envelope(1, p) == pytest.approx(f1_expected, rel=1e-12)
    assert mixed_moment_envelope(2, p) == pytest.approx(f2_expected, rel=1e-12)


def test_mixed_envelopes_dominate_gamma_summands():
    for n in (1, 2, 3):
        for p in (1.0, 2.0, 4.0):
            assert mixed_moment_envelope(n, p) >= (1.0 / n) * p * math.gamma(p / n)


def test_mixed_tail_to_moment_cases():
    assert mixed_tail_to_moment([0.0, 0.0], 2.0) == 0.0
    # each summand dominates its gamma-function term
    m = 2
    for p in (1.0, 2.0, 4.0):
        total = mixed_tail_to_moment([1.0, 1.0], p)
        for n in (1, 2):
            assert total >= (1.0 / m) * p * math.gamma(p / n)


def test_mixed_sup_bounds():
    assert mixed_tail_sup_moment_bound([0.0, 0.0], 5.0, 3.0) == 10.0
    assert mixed_tail_sup_moment_bound([1.0, 2.0], 0.0, 3.0) == 9.0
    thr, pb = mixed_tail_sup_tail_bound([1.0, 1.0], [1.0, 1.0], 1.0, 2.0, 3.0)
    assert thr == pytest.approx(2.0 * 2.0 + 3.0 * 2.0)
    assert pb == pytest.approx(math.exp(-1.0))
    thr, _ = mixed_tail_sup_tail_bound([1.0], [2.0], 4.0, 1.0, 1.0)
    assert thr == pytest.approx(1.0 + 2.0 * 4.0)  # single metric: linear in u
    with pytest.raises(DomainError):
        mixed_tail_sup_tail_bound([1.0], [1.0, 2.0], 1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# Bernstein
# ---------------------------------------------------------------------------


def traced_peak(run):
    """Peak bytes numpy and Python allocate while ``run()`` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("verify", [verify_azuma, verify_bernstein])
def test_verify_memory_grows_by_the_weights_not_the_sums(verify):
    # two 8x8 steps: 16 bytes of weights per sample, 1024 of a weighted sum
    mats = [random_hermitian((8,), trng.stream(26, k)) for k in range(2)]
    verify(mats, 100, 27)  # warm caches
    small, large = 10_000, 50_000
    grown = traced_peak(lambda: verify(mats, large, 27)) - traced_peak(
        lambda: verify(mats, small, 27)
    )
    weights = (large - small) * len(mats) * 8
    assert grown <= 4 * weights  # the sums alone would add 64 times the weights


def test_constants_must_be_positive_numbers():
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(DomainError, match="chain_const"):
            ConstantSet(chain_const=bad)


def test_bernstein_formula_cases():
    thr, pb = bernstein_tail(1.0, 1.0, 4, 0.0, (2,))
    assert thr == 0.0 and pb == 4.0
    thr, pb = bernstein_tail(1.0, 1.0, 4, 2.0, (2,))
    assert thr == pytest.approx(1.5)
    assert pb == pytest.approx(4.0 * math.exp(-2.0))


def test_verify_bernstein_holds():
    envs = [random_hermitian((2,), trng.stream(11, i)) for i in range(10)]
    report = verify_bernstein(envs, 5000, seed=12)
    assert report.verdict == "holds"


# ---------------------------------------------------------------------------
# homogeneity and monotonicity of the thresholds
# ---------------------------------------------------------------------------


def test_thresholds_positively_homogeneous():
    c = 3.7
    for u in (1.0, 2.0):
        t1, p1 = exp_tail_sup_tail_bound(1.0, 2.0, u, 2.0, 1.5, 0.5)
        t2, p2 = exp_tail_sup_tail_bound(c * 1.0, c * 2.0, u, 2.0, 1.5, 0.5)
        assert t2 == pytest.approx(c * t1, rel=1e-12) and p1 == p2
        t1, p1 = martingale_sup_tail_bound(1.0, 2.0, u, 1.5, 0.5)
        t2, p2 = martingale_sup_tail_bound(c, 2 * c, u, 1.5, 0.5)
        assert t2 == pytest.approx(c * t1, rel=1e-12) and p1 == p2
        t1, p1 = mixed_tail_sup_tail_bound([1.0, 2.0], [0.5, 1.5], u, 1.0, 1.0)
        t2, p2 = mixed_tail_sup_tail_bound([c, 2 * c], [0.5 * c, 1.5 * c], u, 1.0, 1.0)
        assert t2 == pytest.approx(c * t1, rel=1e-12) and p1 == p2
        t1, p1 = bernstein_tail(1.0, 2.0, 5, u, (2,))
        t2, p2 = bernstein_tail(c, 2 * c, 5, u, (2,))
        assert t2 == pytest.approx(c * t1, rel=1e-12) and p1 == p2


def test_bounds_monotone_in_u():
    us = [1.0, 1.5, 2.0, 3.0]
    thr = [exp_tail_sup_tail_bound(1.0, 1.0, u, 2.0, 1.0, 1.0) for u in us]
    assert all(a[0] <= b[0] and a[1] > b[1] for a, b in zip(thr, thr[1:]))
    thr = [mixed_tail_sup_tail_bound([1.0, 1.0], [1.0, 1.0], u, 1.0, 1.0) for u in us]
    assert all(a[0] <= b[0] and a[1] > b[1] for a, b in zip(thr, thr[1:]))


# ---------------------------------------------------------------------------
# constant fitting
# ---------------------------------------------------------------------------


def _tiny_sups():
    gen = trng.stream(13, 0)
    return np.abs(gen.standard_normal(4000)) * 1e-3


def test_fit_returns_small_constants_when_bound_already_holds():
    params = {"beta": 2.0, "gamma": 1.0, "diam": 1.0}
    cs = fit_constants("exp_tail", _tiny_sups(), np.linspace(1, 5, 5), params)
    assert cs.chain_const <= 1.0


def test_fit_monotone_under_tail_inflation():
    gen = trng.stream(14, 0)
    sups = np.abs(gen.standard_normal(4000))
    params = {"beta": 2.0, "gamma": 1.0, "diam": 1.0}
    grid = np.linspace(1, 5, 8)
    c1 = fit_constants("exp_tail", sups, grid, params)
    c2 = fit_constants("exp_tail", 2.0 * sups, grid, params)
    assert c2.chain_const >= c1.chain_const


def test_fit_reproducible_bit_exact():
    gen = trng.stream(15, 0)
    sups = np.abs(gen.standard_normal(2000))
    params = {"beta": 2.0, "gamma": 0.7, "diam": 1.3}
    grid = np.linspace(1, 5, 10)
    a = fit_constants("exp_tail", sups, grid, params)
    b = fit_constants("exp_tail", sups, grid, params)
    assert a.chain_const == b.chain_const


def test_fit_failure_diagnostics():
    sups = np.full(1000, 1.0)
    params = {"beta": 2.0, "gamma": 1e-12, "diam": 1e-12}
    with pytest.raises(FitFailureError) as err:
        fit_constants("exp_tail", sups, np.array([1.0]), params)
    assert err.value.diagnostics["violations"]
    # the failing rows at the top of the box, under their own four keys
    top = SEARCH_BOX[1]
    thr, pb = exp_tail_sup_tail_bound(1e-12, 1e-12, 1.0, 2.0, top, top)
    assert err.value.diagnostics == {
        "bound": "exp_tail",
        "box": list(SEARCH_BOX),
        "violations": [{"u": 1.0, "threshold": thr, "prob_bound": pb, "empirical": 1.0}],
    }


# every fitted family, its params, and its public formula at constants (c1, c2)
FAMILIES = {
    "exp_tail": (
        {"beta": 2.0, "gamma": 0.7, "diam": 1.3},
        lambda u, c1, c2: exp_tail_sup_tail_bound(0.7, 1.3, u, 2.0, c1, c2),
    ),
    "martingale": (
        {"gamma": 0.7, "diam": 1.3},
        lambda u, c1, c2: martingale_sup_tail_bound(0.7, 1.3, u, c1, c2),
    ),
    "mixed": (
        {"gammas": [0.4, 0.9], "diams": [1.1, 0.6]},
        lambda u, c1, c2: mixed_tail_sup_tail_bound([0.4, 0.9], [1.1, 0.6], u, c1, c2),
    ),
    "empirical": (
        {"gamma2": 0.8, "gamma1": 0.3, "n": 8, "sigma": 0.5, "upsilon": 1.2},
        lambda u, c1, c2: empirical_sup_tail_bound(0.8, 0.3, 8, 0.5, 1.2, u, c1, c2),
    ),
}


@pytest.mark.parametrize("bound_name", sorted(FAMILIES))
def test_evaluation_rows_are_the_public_formula(bound_name):
    params, formula = FAMILIES[bound_name]
    cs = ConstantSet(
        chain_const=1.7, diam_const=0.6, mixed_chain_const=2.3, mixed_scale_const=0.9
    )
    sups = np.abs(trng.stream(24, 0).standard_normal(500))
    rep = evaluate_bound(bound_name, sups, np.linspace(1.0, 4.0, 7), params, cs)
    c1, c2 = rep.fitted.values()
    for row in rep.rows:
        assert (row.threshold, row.prob_bound) == formula(row.u, c1, c2)


@pytest.mark.parametrize("bound_name", ["mixed", "empirical"])
def test_fitted_bound_rejects_u_below_one(bound_name):
    params, _ = FAMILIES[bound_name]
    sups = np.abs(trng.stream(25, 0).standard_normal(500))
    grid = [0.5, 1.0]
    with pytest.raises(DomainError):
        evaluate_bound(bound_name, sups, grid, params, ConstantSet())
    with pytest.raises(DomainError):
        fit_constants(bound_name, sups, grid, params)


@pytest.mark.parametrize("bound_name", ["martingale", "empirical"])
def test_fitted_constants_hold(bound_name):
    params, _ = FAMILIES[bound_name]
    sups = np.abs(trng.stream(26, 0).standard_normal(4000))
    grid = np.linspace(1.0, 5.0, 8)
    cs = fit_constants(bound_name, sups, grid, params)
    rep = evaluate_bound(bound_name, sups, grid, params, cs)
    assert rep.verdict == "holds"
    # and the fit is the smallest such scale: just below it a row fails
    below = ConstantSet(**{k: v * (1 - 1e-9) for k, v in rep.fitted.items()})
    assert evaluate_bound(bound_name, sups, grid, params, below).verdict == "violated"


def test_evaluate_bound_report_shape():
    gen = trng.stream(16, 0)
    sups = np.abs(gen.standard_normal(2000))
    params = {"beta": 2.0, "gamma": 1.0, "diam": 1.0}
    grid = np.linspace(1, 4, 4)
    cs = fit_constants("exp_tail", sups, grid, params)
    rep = evaluate_bound("exp_tail", sups, grid, params, cs)
    assert rep.verdict == "holds"
    assert len(rep.rows) == 4
    assert rep.fitted["chain_const"] == cs.chain_const
    # CSV and JSON render deterministically
    assert rep.to_csv() == rep.to_csv()
    assert rep.to_json() == rep.to_json()


def _azuma_without_points():
    diffs = [random_hermitian((2,), trng.stream(17, i)) for i in range(3)]
    return verify_azuma(diffs, 100, seed=18, u_sigma_factors=())


def _bernstein_without_points():
    envs = [random_hermitian((2,), trng.stream(19, i)) for i in range(3)]
    return verify_bernstein(envs, 100, seed=20, u_grid=())


def _evaluation_without_points():
    params = {"beta": 2.0, "gamma": 1.0, "diam": 1.0}
    sups = np.abs(trng.stream(21, 0).standard_normal(100))
    return evaluate_bound("exp_tail", sups, [], params, ConstantSet())


def _fit_without_points():
    params = {"gammas": [0.4, 0.9], "diams": [1.1, 0.6]}
    return fit_constants("mixed", [1.0, 2.0], [], params)


def _increment_tail_without_points():
    basis = (random_hermitian((2,), trng.stream(22, 0)),)
    spec = ProcessSpec("gaussian_linear", np.array([[0.0], [1.0], [2.0]]), basis, 2.0)
    space = process_space(spec)
    ensemble = sample_ensemble(spec, 23, 50)
    return verify_increment_tail(ensemble, space, "increment", 2.0, [])


@pytest.mark.parametrize(
    "verify",
    [
        _azuma_without_points,
        _bernstein_without_points,
        _evaluation_without_points,
        _fit_without_points,
        _increment_tail_without_points,
    ],
)
def test_report_without_tested_points_is_rejected(verify):
    # over zero rows every row holds, so the verdict would read "holds"
    with pytest.raises(ValidationError):
        verify()


def test_constant_set_positivity():
    with pytest.raises(DomainError):
        ConstantSet(chain_const=0.0)


@pytest.mark.parametrize(
    "verify",
    [
        lambda: verify_azuma([random_hermitian((2,), trng.stream(24, 0))], 0, seed=1),
        lambda: verify_bernstein([random_hermitian((2,), trng.stream(25, 0))], 0, seed=1),
        lambda: fit_constants("exp_tail", [], [1.0], {"beta": 2.0, "gamma": 1.0, "diam": 1.0}),
        lambda: evaluate_bound(
            "exp_tail", [], [1.0], {"beta": 2.0, "gamma": 1.0, "diam": 1.0}, ConstantSet()
        ),
    ],
    ids=["azuma", "bernstein", "fit", "evaluate"],
)
def test_zero_samples_are_rejected(verify):
    # no empirical frequency exists over zero samples
    with pytest.raises(ValidationError, match="at least one sample"):
        verify()
