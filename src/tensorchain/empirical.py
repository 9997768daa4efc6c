"""Empirical averages of Hermitian random tensors over a parameter set.

A family holds, for each parameter tuple t and each of the n probability
spaces, a deterministic Hermitian parameter tensor; the random draw on
space i is a zero-mean scalar times that tensor, with the scalar shared
across t (the process is coupled through the same sample point).  Bounded
scalars make the per-space draws satisfy the Bernstein moment condition
with envelopes dominating the squared parameter tensors.

The two chaining metrics are evaluated on the deterministic parameter
tensors (the only reading that yields a bona fide metric; a random
quantity cannot serve as a chaining distance), using the spectral norm of
the Hermitian differences, which dominates their largest eigenvalue and is
symmetric in (s, t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kernels, rng as rng_mod
from .chaining import FiniteMetricSpace, build_admissible_greedy, gamma_value
from .errors import DomainError, ValidationError
from .report import MARGIN_SIGMAS, BoundReport
from .tensor import hermitian_part
from .bounds import ConstantSet, evaluate_bound, fit_constants

# the moment orders p that check_bernstein_condition tests
BERNSTEIN_ORDERS = (2, 3, 4)


@dataclass(frozen=True, eq=False)
class EmpiricalFamily:
    """Parameter tensors (t_count, n, D, D) plus the scalar noise law.

    The parameters go through :func:`~tensorchain.tensor.hermitian_part`
    and are stored as its read-only result, as the norm kernels assume.
    """

    row_modes: tuple
    parameters: np.ndarray
    noise: str = "rademacher"

    def __post_init__(self):
        object.__setattr__(self, "row_modes", tuple(int(m) for m in self.row_modes))
        params = np.asarray(self.parameters, dtype=np.complex128)
        side = math.prod(self.row_modes)
        if params.ndim != 4 or params.shape[2:] != (side, side):
            raise ValidationError(
                f"parameters must have shape (t_count, n, {side}, {side})"
            )
        if self.noise not in rng_mod.NOISE_LAWS:
            raise ValidationError(f"noise must be one of {rng_mod.NOISE_LAWS}")
        object.__setattr__(self, "parameters", hermitian_part(params))

    @property
    def t_count(self) -> int:
        return self.parameters.shape[0]

    @property
    def n(self) -> int:
        return self.parameters.shape[1]

    @cached_property
    def diagonals(self):
        """The read-only real diagonals (t_count, n, D) when every
        off-diagonal parameter entry is exactly zero (``==``, no tolerance),
        else None."""
        side = self.parameters.shape[-1]
        if (self.parameters[..., ~np.eye(side, dtype=bool)] != 0).any():
            return None
        diags = np.ascontiguousarray(self.parameters.diagonal(0, -2, -1).real)
        diags.flags.writeable = False
        return diags

    @cached_property
    def upsilon(self) -> float:
        """Bernstein scale: the largest spectral norm over all (t, i)."""
        flat = self.parameters.reshape(-1, *self.parameters.shape[2:])
        return float(kernels.batch_spectral(np.ascontiguousarray(flat)).max())

    @cached_property
    def envelope_squares(self) -> np.ndarray:
        """Default envelopes A_i^2 = (max_t ||theta_i(t)||)^2 I, one per space."""
        side = self.parameters.shape[2]
        out = np.empty((self.n, side, side), np.complex128)
        for i in range(self.n):
            block = np.ascontiguousarray(self.parameters[:, i])
            top = float(kernels.batch_spectral(block).max())
            out[i] = top**2 * np.eye(side)
        out.flags.writeable = False
        return out

    @cached_property
    def sigma(self) -> float:
        """Variance proxy: sqrt of || (1/n) sum_i A_i^2 ||.  The A_i^2 are
        multiples of I, so the norm is the (0, 0) entry of their mean."""
        return math.sqrt(self.envelope_squares.mean(axis=0)[0, 0].real)


def _max_and_quadratic_mean(norms):
    """Per row of ``norms``, its max d1 and its quadratic mean d2 =
    sqrt(mean(norms^2)).  Where the squares overflow, and only there, d2 is
    taken in the range-safe form d1 sqrt(mean((norms / d1)^2)), so every
    finite direct value keeps its bits."""
    d1 = norms.max(axis=1)
    with np.errstate(over="ignore"):  # taken again below
        d2 = np.sqrt(np.mean(norms**2, axis=1))
    wild = ~np.isfinite(d2)
    if wild.any():
        d2[wild] = d1[wild] * np.sqrt(np.mean((norms[wild] / d1[wild, None]) ** 2, axis=1))
    return d1, d2


def family_space(family: EmpiricalFamily) -> FiniteMetricSpace:
    """Metric space over the parameter tuples carrying both metrics: d1 is
    the max over spaces of the spectral norm of the parameter difference,
    d2 the quadratic mean of those norms.

    The C(t_count, 2) pairs (s, t), s < t, are taken in ``np.triu_indices``
    order and shared by ``kernels.map_blocks``, one (n, D, D) item a pair;
    row s holds t_count - 1 - s of them, so the map cuts pairs, not rows.  A
    slice walks its pairs one row piece at a time, forming P[t0:t1] - P[s]
    from a view and a broadcast; each pair's norms come from one
    ``batch_spectral`` call, every block eigensolved, and the slice returns
    each pair's max and quadratic mean along its (pairs, n) norms
    (``_max_and_quadratic_mean``).  Both are written into the row and the
    column of both matrices."""
    params = family.parameters
    nt = family.t_count
    rows, cols = np.triu_indices(nt, 1)

    def pair_metrics(sl):
        norms = np.empty((sl.stop - sl.start, family.n))
        k = sl.start
        while k < sl.stop:
            s, t = rows[k], cols[k]
            end = min(sl.stop, k + nt - t)  # the rest of row s, or of the slice
            diffs = params[t : t + end - k] - params[s]
            for j, diff in enumerate(diffs, k - sl.start):
                norms[j] = kernels.batch_spectral(diff)
            k = end
        return np.stack(_max_and_quadratic_mean(norms), axis=1)

    metrics = kernels.map_blocks(
        lambda share: [pair_metrics(sl) for sl in share], len(rows), params[0].size
    )
    metrics = np.concatenate(metrics) if metrics else np.empty((0, 2))
    d1 = np.zeros((nt, nt))
    d2 = np.zeros((nt, nt))
    d1[rows, cols] = d1[cols, rows] = metrics[:, 0]
    d2[rows, cols] = d2[cols, rows] = metrics[:, 1]
    return FiniteMetricSpace(nt, {"d1": d1, "d2": d2})


def empirical_sup_moment_bound(gamma2, gamma1, n, sigma, upsilon, p, const=1.0) -> float:
    """const * ((gamma2/sqrt(n) + gamma1/n) + sqrt(p) sigma/sqrt(n) + p upsilon/n)."""
    if min(gamma2, gamma1, sigma, upsilon) < 0 or n < 1 or p < 1:
        raise DomainError("inputs must be nonnegative with n, p >= 1")
    return const * (
        gamma2 / math.sqrt(n)
        + gamma1 / n
        + math.sqrt(p) * sigma / math.sqrt(n)
        + p * upsilon / n
    )


def sample_family_sups(family: EmpiricalFamily, seed: int, n_samples: int) -> np.ndarray:
    """Per-sample sup_t || (1/n) sum_i w_i theta_i(t) ||_spec; the values are
    formed and reduced per ``kernels.chunks`` block, so only the weights w
    and the suprema grow with ``n_samples``.

    Every family forms its values by ``kernels.contract``, samples first:
    0 + w_0 theta_0 + w_1 theta_1 + ... in the order of i.  Dense blocks are
    divided by n in place and reduced by ``kernels.sup_norms``.  A family with
    ``diagonals`` forms only those and scales by values *= 1.0 / n, bit for
    bit the real parts of the dense blocks: numpy divides by n + 0j as a
    product with 1 / n (a real / n differs in the last bit for some n);
    ``kernels.sup_norms_of_diagonals`` reduces them.  Both are bound first,
    with the suprema of a full eigensolve to the last bit.

    A sample's supremum depends on its row of w alone: ``contract`` forms
    each row on its own and both reductions decide row by row.  So under
    ``rademacher`` noise with 2^n <= ``n_samples``, each row is keyed by its
    sign bits into a ``bincount`` table of 2^n entries, one exact +-1.0 row
    is rebuilt and reduced per key present, and each sample takes its key's
    supremum: at most 2^n rows are formed, with the same bits."""
    if n_samples < 1:
        raise ValidationError("need at least one sample")
    gen = rng_mod.stream(seed, 0)
    w = rng_mod.noise(family.noise, gen, (n_samples, family.n))
    if family.noise != "rademacher" or 2**family.n > n_samples:
        return _family_sups(family, w)
    bits = 1 << np.arange(family.n)
    keys = (w < 0) @ bits  # bit i set where w_i = -1.0
    present = np.flatnonzero(np.bincount(keys))
    table = np.empty(2**family.n)
    table[present] = _family_sups(family, 1.0 - 2.0 * ((present[:, None] & bits) != 0))
    return table[keys]


def _family_sups(family, w):
    """The suprema of ``sample_family_sups`` for the weight rows ``w``."""
    sups = np.empty(len(w))
    diags = family.diagonals
    theta = family.parameters if diags is None else diags  # (t, n, ...)
    stack = np.ascontiguousarray(np.moveaxis(theta, 1, 0))  # (n, t, ...)
    for sl in kernels.chunks(len(w), family.parameters[:, 0].size):
        values = kernels.contract(w[sl], stack)  # (samples, t, ...)
        if diags is None:
            values /= family.n
            sups[sl] = kernels.sup_norms(values)
        else:
            values *= 1.0 / family.n
            sups[sl] = kernels.sup_norms_of_diagonals(values)
    return sups


def verify_empirical_bound(
    family: EmpiricalFamily,
    seed: int,
    n_samples: int,
    u_grid,
    constants: ConstantSet | None = None,
) -> BoundReport:
    """Fit (or take) constants and compare the tail bound with simulation."""
    space = family_space(family)
    gamma1 = gamma_value(space, "d1", 1.0, build_admissible_greedy(space, "d1", 1.0))
    gamma2 = gamma_value(space, "d2", 2.0, build_admissible_greedy(space, "d2", 2.0))
    sups = sample_family_sups(family, seed, n_samples)
    params = {
        "gamma2": gamma2,
        "gamma1": gamma1,
        "n": family.n,
        "sigma": family.sigma,
        "upsilon": family.upsilon,
    }
    if constants is None:
        constants = fit_constants("empirical", sups, u_grid, params)
    report = evaluate_bound("empirical", sups, u_grid, params, constants)
    inputs = dict(report.inputs)
    inputs.update({"noise": family.noise, "seed": seed, "t_count": family.t_count})
    # fit-time concentration record: the average supremum against the
    # moment bound at p = 1 under the fitted constants
    mean_sup = float(np.mean(sups))
    moment_bound = empirical_sup_moment_bound(
        gamma2, gamma1, family.n, family.sigma, family.upsilon, 1.0,
        const=max(constants.mixed_chain_const, constants.mixed_scale_const),
    )
    extras = dict(report.extras)
    extras.update(
        {
            "mean_sup": mean_sup,
            "moment_bound_p1": moment_bound,
            "mean_within_moment_bound": bool(mean_sup <= moment_bound),
        }
    )
    return BoundReport(
        bound_name=report.bound_name,
        inputs=inputs,
        rows=report.rows,
        fitted=report.fitted,
        extras=extras,
    )


def check_bernstein_condition(family: EmpiricalFamily, seed: int, n_samples: int):
    """Monte Carlo check of E X^p <= (p! upsilon^(p-2) / 2) A_i^2 per (t, i),
    for p in :data:`BERNSTEIN_ORDERS`.

    The order check is lambda_min(bound - estimate) >= -margin with the
    margin set to :data:`~tensorchain.report.MARGIN_SIGMAS` spectral
    standard errors of the estimated moment tensor.  Returns one record per
    (p, t, i).  The standard errors need at least two samples.
    """
    if n_samples < 2:
        raise ValidationError("need at least two samples for a standard error")
    gen = rng_mod.stream(seed, 0)
    w = rng_mod.noise(family.noise, gen, n_samples)
    results = []
    for p in BERNSTEIN_ORDERS:
        wp = w**p
        mean_wp = float(wp.mean())
        se_wp = float(wp.std(ddof=1) / math.sqrt(n_samples))
        theta_p = np.linalg.matrix_power(family.parameters, p)  # (t, i, D, D)
        margins = MARGIN_SIGMAS * se_wp * kernels.batch_spectral(theta_p)
        scale = math.factorial(p) * family.upsilon ** (p - 2) / 2.0
        bound = scale * family.envelope_squares
        # lambda_min(bound - estimate) = -lambda_max(estimate - bound)
        slacks = -kernels.batch_lambda_max(mean_wp * theta_p - bound)
        for (t, i), slack in np.ndenumerate(slacks):
            margin = float(margins[t, i])
            results.append(
                {
                    "p": int(p),
                    "t": int(t),
                    "i": int(i),
                    "min_eigenvalue_slack": float(slack),
                    "margin": margin,
                    "holds": bool(slack >= -margin),
                }
            )
    return results


def diagonal_family(
    row_modes, t_count: int, n: int, seed: int, noise: str = "rademacher"
) -> EmpiricalFamily:
    """Convenience family with random diagonal parameter tensors."""
    side = math.prod(tuple(row_modes))
    gen = rng_mod.stream(seed, 0)
    diags = gen.uniform(-1.0, 1.0, (t_count, n, side))
    params = np.zeros((t_count, n, side, side), np.complex128)
    idx = np.arange(side)
    params[:, :, idx, idx] = diags
    return EmpiricalFamily(tuple(row_modes), params, noise)
