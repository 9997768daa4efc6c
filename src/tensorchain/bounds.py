"""Closed-form tail/moment bounds and their empirical verification.

Universal constants that the theory only proves to exist are never
hardcoded: every formula takes them as explicit inputs, and
:func:`fit_constants` searches for the smallest feasible values against an
empirical tail.  The two bounds with fully explicit constants (the Azuma
and Bernstein inequalities for Hermitian tensors) are verified as true
probability bounds by Monte Carlo on generators that satisfy their
hypotheses.

Fitting and evaluation share one formula table, ``_TAIL_BOUNDS``, which
maps each fitted bound to its public ``*_sup_tail_bound`` function and the
two :class:`ConstantSet` slots it fills, and one verdict rule, the rows of
:func:`tensorchain.report.make_rows`: a fitted scale is feasible when every
row of its report holds.  The Azuma and Bernstein checks build the same
rows in one harness, from tensors taken through
:func:`tensorchain.tensor.hermitian_part`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import kernels, rng as rng_mod
from .errors import DomainError, FitFailureError, ValidationError
from .report import BoundReport, make_rows, row_holds
from .tensor import hermitian_stack


@dataclass(frozen=True)
class ConstantSet:
    """Named slots for the calibration constants used by the bounds.

    chain_const / diam_const scale the chaining and diameter terms of the
    single-exponential-tail bounds, including the martingale variant;
    mixed_chain_const / mixed_scale_const play the same roles for the
    mixed-tail and empirical-process bounds.
    """

    chain_const: float = 1.0
    diam_const: float = 1.0
    mixed_chain_const: float = 1.0
    mixed_scale_const: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            if not getattr(self, f.name) > 0:  # NaN too
                raise DomainError(f"{f.name} must be strictly positive")


# ---------------------------------------------------------------------------
# single exponential tail
# ---------------------------------------------------------------------------


def exp_tail_sup_moment_bound(gamma_trunc: float, sup_moment: float, chain_const: float) -> float:
    """Moment bound for the supremum: chain_const * gamma + 2 * sup_moment."""
    if min(gamma_trunc, sup_moment, chain_const) < 0:
        raise DomainError("inputs must be nonnegative")
    return chain_const * gamma_trunc + 2.0 * sup_moment


def _tail_decay(u: float, beta: float) -> float:
    """exp(-u^beta / beta); 0.0 where u^beta overflows the float range."""
    try:
        return math.exp(-(u**beta) / beta)
    except OverflowError:  # from the Python-float power
        return 0.0


def exp_tail_sup_tail_bound(gamma_trunc, diam, u, beta, chain_const, diam_const):
    """Tail bound for the supremum of a process with exponent-beta tails.

    Returns (threshold, prob_bound) with
    threshold = e^(1/beta) (chain_const * gamma + u * diam_const * diam)
    and prob_bound = exp(-u^beta / beta).  Requires u >= 1: the underlying
    moment-to-tail conversion is only available there.
    """
    if u < 1:
        raise DomainError("u must be at least 1")
    if beta <= 0:
        raise DomainError("beta must be positive")
    threshold = math.exp(1.0 / beta) * (chain_const * gamma_trunc + u * diam_const * diam)
    return threshold, _tail_decay(u, beta)


def moment_to_tail(a: float, b: float, beta: float, u: float):
    """Tail bound implied by moment growth (E|X|^p)^(1/p) <= a p^(1/beta) + b.

    Returns (e^(1/beta) (a u + b), exp(-u^beta / beta)); valid for u >= 1.
    """
    if u < 1:
        raise DomainError("u must be at least 1")
    if beta <= 0 or a < 0 or b < 0:
        raise DomainError("a, b must be nonnegative and beta positive")
    return math.exp(1.0 / beta) * (a * u + b), _tail_decay(u, beta)


def tail_to_moment(a: float, b: float, beta: float, p: float) -> float:
    """Moment bound implied by the tail P(|X| >= e^(1/beta) a u) <= b e^(-u^beta/beta)."""
    if p < 1:
        raise DomainError("p must be at least 1")
    if beta <= 0 or a <= 0 or b <= 0:
        raise DomainError("a, b, beta must be positive")
    factor = (math.sqrt(2.0 * math.pi / beta) * b * math.exp(beta / 12.0)) ** (1.0 / p)
    return math.exp(1.0 / (2.0 * math.e)) * a * p ** (1.0 / beta) * factor


def scaled_tail_moment_bound(r, u_b, d, beta, p, moment_const) -> float:
    """Moment bound r (moment_const * d + u_b) for a positive variable whose
    tail beyond r*u_b is controlled by d exp(-p u^beta / 4)."""
    if r < 0 or u_b <= 0 or p < 1 or beta <= 0:
        raise DomainError("need r >= 0, u_b > 0, p >= 1, beta > 0")
    return r * (moment_const * d + u_b)


def union_bound_series_constant() -> float:
    """Closed form of sum_{n>0} exp(2n(log 2 - 0.75)): a geometric series."""
    r = math.exp(2.0 * math.log(2.0) - 1.5)
    return r / (1.0 - r)


# ---------------------------------------------------------------------------
# martingales
# ---------------------------------------------------------------------------


def azuma_tail(sigma: float, u: float, row_modes) -> float:
    """P(lambda_max(X_n - X_0) >= u) <= prod(I) exp(-u^2 / (8 sigma^2))."""
    if sigma <= 0:
        raise DomainError("sigma must be positive")
    if u < 0:
        raise DomainError("u must be nonnegative")
    try:
        exponent = u**2 / (8.0 * sigma**2)
    except (OverflowError, ZeroDivisionError):  # a square outside the float range
        exponent = (u / sigma) * (u / sigma) / 8.0
    return math.prod(row_modes) * math.exp(-exponent)


def _sigma(stack, n=1) -> float:
    """sqrt ||(1/n) sum_k M_k^2||: the variance proxy of a Hermitian stack."""
    return math.sqrt(kernels.batch_lambda_max(np.einsum("kij,kjl->il", stack, stack) / n))


def martingale_chain_metric(diff_paths) -> float:
    """sqrt ||sum_k D_k^2|| over the Hermitian parts of the differences D_k;
    0 for no differences."""
    diffs = list(diff_paths)
    return _sigma(hermitian_stack(diffs, "difference")[1]) if diffs else 0.0


def martingale_sup_tail_bound(gamma2, diam, u, chain_const, diam_const):
    """Sub-gaussian chaining bound for suprema of martingale terminal values."""
    if u < 1:
        raise DomainError("u must be at least 1")
    threshold = math.sqrt(math.e) * (chain_const * gamma2 + diam_const * diam * u)
    return threshold, _tail_decay(u, 2.0)


# ---------------------------------------------------------------------------
# mixed tails
# ---------------------------------------------------------------------------


def mixed_moment_to_tail(a, a_extra, u):
    """Tail bound from mixed moment growth sum_n a_n p^(1/n) + a_extra.

    Implemented in the only direction a Markov argument supports: the
    threshold e (sum_n a_n u^(1/n) + a_extra) is exceeded with probability
    at most exp(-u), for u >= 1.
    """
    if u < 1:
        raise DomainError("u must be at least 1")
    coeffs = [float(v) for v in a]
    if any(v < 0 for v in coeffs) or a_extra < 0:
        raise DomainError("coefficients must be nonnegative")
    total = sum(v * u ** (1.0 / (n + 1)) for n, v in enumerate(coeffs))
    return math.e * (total + a_extra), math.exp(-u)


def mixed_moment_envelope(n: int, p: float) -> float:
    """Stirling envelope f_n(p) dominating (1/n) p Gamma(p/n).

    n = 2 carries an explicit closed form; every other n, n = 1 included,
    uses the Stirling upper bound applied to Gamma(p/n + 1) at x = p / n.
    """
    if n < 1 or p < 1:
        raise DomainError("need n >= 1 and p >= 1")
    if n == 2:
        return (
            math.sqrt(math.pi)
            * math.exp(1.0 / (6.0 * p))
            * (2.0 * math.e) ** (-p / 2.0)
            * math.exp(p / (2.0 * math.e))
            * p ** (p / 2.0)
        )
    x = p / n
    return math.sqrt(2.0 * math.pi * x) * x**x * math.exp(-x + 1.0 / (12.0 * x))


def mixed_tail_to_moment(a, p: float) -> float:
    """Moment bound sum_n m a_n f_n(p) p^(1/n) from a mixed tail hypothesis
    with u^(1/n) thresholds, where f_n is :func:`mixed_moment_envelope`."""
    if p < 1:
        raise DomainError("p must be at least 1")
    coeffs = [float(v) for v in a]
    if any(v < 0 for v in coeffs):
        raise DomainError("coefficients must be nonnegative")
    m = len(coeffs)
    total = 0.0
    for idx, coeff in enumerate(coeffs):
        n = idx + 1
        if coeff == 0.0:
            continue
        total += m * coeff * mixed_moment_envelope(n, p) * p ** (1.0 / n)
    return total


def mixed_tail_sup_moment_bound(gammas, sup_moment, chain_const) -> float:
    values = [float(g) for g in gammas]
    if any(g < 0 for g in values) or sup_moment < 0 or chain_const < 0:
        raise DomainError("inputs must be nonnegative")
    return chain_const * sum(values) + 2.0 * sup_moment


def mixed_tail_sup_tail_bound(gammas, diams, u, chain_const, scale_const):
    """Threshold C sum_n gamma_n + C' sum_n u^(1/n) diam_n with tail exp(-u)."""
    if u < 1:
        raise DomainError("u must be at least 1")
    gs = [float(g) for g in gammas]
    ds = [float(d) for d in diams]
    if len(gs) != len(ds):
        raise DomainError("gammas and diams must align")
    mixed = sum(d * u ** (1.0 / (n + 1)) for n, d in enumerate(ds))
    return chain_const * sum(gs) + scale_const * mixed, math.exp(-u)


# ---------------------------------------------------------------------------
# Bernstein
# ---------------------------------------------------------------------------


def bernstein_tail(sigma, upsilon, n, u, row_modes):
    """Threshold sigma sqrt(2u/n) + upsilon u / n for lambda_max of the
    average, with probability bound 2 prod(I) exp(-u)."""
    if sigma <= 0 or upsilon <= 0:
        raise DomainError("sigma and upsilon must be positive")
    if n < 1:
        raise DomainError("n must be at least 1")
    if u < 0:
        raise DomainError("u must be nonnegative")
    threshold = sigma * math.sqrt(2.0 * u / n) + upsilon * u / n
    return threshold, 2.0 * math.prod(row_modes) * math.exp(-u)


# ---------------------------------------------------------------------------
# empirical processes
# ---------------------------------------------------------------------------


def empirical_sup_tail_bound(gamma2, gamma1, n, sigma, upsilon, u, chain_const, scale_const):
    """Threshold C (gamma2/sqrt(n) + gamma1/n) + C' (sigma sqrt(u/n) + upsilon u/n)
    with tail exp(-u) for the supremum of an empirical process; u >= 1."""
    if u < 1:
        raise DomainError("u must be at least 1")
    threshold = chain_const * (gamma2 / math.sqrt(n) + gamma1 / n) + scale_const * (
        sigma * math.sqrt(u) / math.sqrt(n) + upsilon * u / n
    )
    return threshold, math.exp(-u)


# ---------------------------------------------------------------------------
# constant fitting against empirical tails
# ---------------------------------------------------------------------------

SEARCH_BOX = (1e-2, 1e3)
BISECTION_STEPS = 80

# bound name -> (the ConstantSet slots of its two free constants, its
# public tail formula as (threshold, prob_bound) of params, u, c1, c2)
_TAIL_BOUNDS = {
    "exp_tail": (
        ("chain_const", "diam_const"),
        lambda p, u, c1, c2: exp_tail_sup_tail_bound(
            p["gamma"], p["diam"], u, p["beta"], c1, c2
        ),
    ),
    "martingale": (
        ("chain_const", "diam_const"),
        lambda p, u, c1, c2: martingale_sup_tail_bound(p["gamma"], p["diam"], u, c1, c2),
    ),
    "mixed": (
        ("mixed_chain_const", "mixed_scale_const"),
        lambda p, u, c1, c2: mixed_tail_sup_tail_bound(p["gammas"], p["diams"], u, c1, c2),
    ),
    "empirical": (
        ("mixed_chain_const", "mixed_scale_const"),
        lambda p, u, c1, c2: empirical_sup_tail_bound(
            p["gamma2"], p["gamma1"], p["n"], p["sigma"], p["upsilon"], u, c1, c2
        ),
    ),
}


def _tail_bound(bound_name: str):
    if bound_name not in _TAIL_BOUNDS:
        raise DomainError(f"unknown bound family {bound_name!r}")
    return _TAIL_BOUNDS[bound_name]


def constant_slots(bound_name: str) -> tuple:
    """The two :class:`ConstantSet` slots the named bound reads."""
    return _tail_bound(bound_name)[0]


def _fit_inputs(bound_name: str, sup_samples, u_grid):
    """(count, samples, u grid, slots, formula); neither may be empty."""
    sups = np.sort(np.asarray(sup_samples, dtype=np.float64))
    u = np.asarray(u_grid, dtype=np.float64)
    if sups.size == 0 or u.size == 0:
        raise ValidationError(f"{bound_name}: need at least one sample and one u")

    def count(thresholds):
        return sups.size - np.searchsorted(sups, thresholds, side="left")

    return (count, sups.size, u, *_tail_bound(bound_name))


def _bound_rows(tail, u_grid, samples: int, count):
    """One verdict row per u of the bound ``tail(u) = (threshold, prob_bound)``,
    capped at 1, against the frequency ``count(thresholds) / samples``."""
    pairs = [tail(float(u)) for u in u_grid]
    thresholds = [thr for thr, _ in pairs]
    probs = [min(1.0, pb) for _, pb in pairs]
    empir = [float(c) / samples for c in count(thresholds)]
    return make_rows(u_grid, thresholds, probs, empir, samples)


def fit_constants(bound_name: str, sup_samples, u_grid, params: dict) -> ConstantSet:
    """Smallest feasible constants for the named bound, by log bisection.

    Both free constants of the family are tied to a single scale s (the
    search direction is (1, 1)), which makes feasibility monotone in s and
    the fit deterministic.  A scale is feasible when every row of the
    report at constants (s, s) holds; each trial scale stops at its first
    failing u, and full rows are built only for the diagnostics.  Raises
    :class:`FitFailureError` when even the top of :data:`SEARCH_BOX` fails,
    with the failing rows as diagnostics, and :class:`ValidationError` for
    an empty u grid or no samples.
    """
    count, samples, u, slots, formula = _fit_inputs(bound_name, sup_samples, u_grid)

    def feasible(s: float) -> bool:
        for uu in u.tolist():
            thr, pb = formula(params, uu, s, s)
            if not row_holds(pb, float(count(thr)) / samples, samples):
                return False
        return True

    lo, hi = SEARCH_BOX
    if feasible(lo):
        return ConstantSet(**{slots[0]: lo, slots[1]: lo})
    if not feasible(hi):
        rows = _bound_rows(lambda uu: formula(params, uu, hi, hi), u, samples, count)
        violations = [r for r in rows if not r.holds]
        diag = {
            "bound": bound_name,
            "box": [lo, hi],
            "violations": [
                {"u": r.u, "threshold": r.threshold, "prob_bound": r.prob_bound,
                 "empirical": r.empirical}
                for r in violations
            ],
        }
        raise FitFailureError(
            f"no feasible constants for {bound_name!r} within {SEARCH_BOX}", diag
        )
    for _ in range(BISECTION_STEPS):
        mid = math.sqrt(lo * hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return ConstantSet(**{slots[0]: hi, slots[1]: hi})


def evaluate_bound(
    bound_name: str, sup_samples, u_grid, params: dict, constants: ConstantSet
) -> BoundReport:
    """Compare the named bound against an empirical supremum sample."""
    count, samples, u, slots, formula = _fit_inputs(bound_name, sup_samples, u_grid)
    c1 = getattr(constants, slots[0])
    c2 = getattr(constants, slots[1])
    return BoundReport(
        bound_name=bound_name,
        inputs={**{k: _plain(v) for k, v in params.items()}, "samples": int(samples)},
        rows=_bound_rows(lambda uu: formula(params, uu, c1, c2), u, samples, count),
        fitted={slots[0]: c1, slots[1]: c2},
    )


def _plain(value):
    if isinstance(value, (list, tuple)):
        return [float(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return float(value)
    return value


# ---------------------------------------------------------------------------
# Monte Carlo verification of the explicit-constant bounds
# ---------------------------------------------------------------------------


def _verify_sums(bound_name, stack, law, n_samples, seed, u_grid, tail, inputs):
    """Monte Carlo report of a tail bound on lambda_max(sum_k w_k M_k).

    The weights w of every sample are drawn under the ``rng.noise`` law
    from the stream (seed, 0); the rows are those of the fitted bounds.
    Only counts at the bound's thresholds are read: ``kernels.lambda_max_counts``
    bounds each sum from its weights, chunk by chunk, forms only the sums
    those certified trace bounds leave undecided, and eigensolves only those
    the trace bounds of the formed sums leave undecided; only the weights
    grow with ``n_samples``.
    """
    if n_samples < 1:
        raise ValidationError(f"{bound_name}: need at least one sample")
    weights = rng_mod.noise(law, rng_mod.stream(seed, 0), (n_samples, len(stack)))
    return BoundReport(
        bound_name=bound_name,
        inputs={**inputs, "samples": n_samples, "seed": seed},
        rows=_bound_rows(
            tail, u_grid, n_samples, lambda t: kernels.lambda_max_counts(weights, stack, t)
        ),
    )


def verify_azuma(
    diffs,
    n_samples: int,
    seed: int,
    u_sigma_factors=(2.0, 3.0, 4.0),
) -> BoundReport:
    """Empirical check of the Azuma bound on a sign-flip martingale.

    The martingale is X_k = sum_{i<=k} eps_i D_i with fixed Hermitian
    difference tensors D_i, taken through
    :func:`~tensorchain.tensor.hermitian_part`, and independent signs, so
    its variance proxy sigma^2 = ||sum D_i^2|| is deterministic and the
    hypothesis holds exactly.  All signs come from one counter-based stream
    (the harness is a single vectorized pass).
    """
    shape, stack = hermitian_stack(diffs, "difference")
    sigma = _sigma(stack)
    inputs = {"sigma": sigma, "steps": len(stack), "row_modes": list(shape.row_modes)}
    return _verify_sums(
        "azuma", stack, "rademacher", n_samples, seed, [f * sigma for f in u_sigma_factors],
        lambda u: (u, azuma_tail(sigma, u, shape.row_modes)), inputs,
    )


def verify_bernstein(
    envelopes,
    n_samples: int,
    seed: int,
    u_grid=(1.0, 2.0, 3.0),
) -> BoundReport:
    """Empirical check of the Bernstein bound on bounded Hermitian draws.

    Draws X_i = w_i B_i with w_i uniform on [-1, 1] and the B_i taken
    through :func:`~tensorchain.tensor.hermitian_part`; then E X_i^p is
    dominated by (p! upsilon^(p-2) / 2) B_i^2 with upsilon = max ||B_i||,
    so the hypothesis holds with envelopes A_i = B_i.  The statistic is
    lambda_max of the average (1/n) sum_i X_i.
    """
    shape, stack = hermitian_stack(envelopes, "envelope")
    n = len(stack)
    sigma, upsilon = _sigma(stack, n), float(kernels.batch_spectral(stack).max())
    inputs = {"sigma": sigma, "upsilon": upsilon, "n": n, "row_modes": list(shape.row_modes)}
    return _verify_sums(  # the statistic averages: sum_i w_i (B_i / n)
        "bernstein", stack / n, "uniform", n_samples, seed, u_grid,
        lambda u: bernstein_tail(sigma, upsilon, n, u, shape.row_modes), inputs,
    )
