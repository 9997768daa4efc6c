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
from .tensor import DenseTensor
from .bounds import ConstantSet, evaluate_bound, fit_constants
# the empirical-process tail bound is declared with the other bounds
from .bounds import empirical_sup_tail_bound  # noqa: F401

_NOISE_LAWS = ("rademacher", "uniform")


@dataclass(frozen=True, eq=False)
class EmpiricalFamily:
    """Parameter tensors (t_count, n, D, D) plus the scalar noise law.

    Parameters within 1e-10 of Hermitian are accepted and stored as their
    Hermitian parts (P + P^H) / 2, which equal exactly Hermitian input bit
    for bit; the norm kernels assume Hermitian stacks.
    """

    row_modes: tuple
    parameters: np.ndarray
    noise: str = "rademacher"

    def __post_init__(self):
        object.__setattr__(self, "row_modes", tuple(int(m) for m in self.row_modes))
        params = np.ascontiguousarray(self.parameters, dtype=np.complex128)
        side = math.prod(self.row_modes)
        if params.ndim != 4 or params.shape[2:] != (side, side):
            raise ValidationError(
                f"parameters must have shape (t_count, n, {side}, {side})"
            )
        adjoint = params.conj().transpose(0, 1, 3, 2)
        if np.abs(params - adjoint).max() > 1e-10:
            raise ValidationError("parameter tensors must be Hermitian")
        params = (params + adjoint) / 2.0
        if self.noise not in _NOISE_LAWS:
            raise ValidationError(f"noise must be one of {_NOISE_LAWS}")
        params.flags.writeable = False
        object.__setattr__(self, "parameters", params)

    @property
    def t_count(self) -> int:
        return self.parameters.shape[0]

    @property
    def n(self) -> int:
        return self.parameters.shape[1]

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
        """Variance proxy: sqrt of || (1/n) sum_i A_i^2 ||."""
        avg = self.envelope_squares.mean(axis=0)
        return float(math.sqrt(np.linalg.svd(avg, compute_uv=False)[0]))


def _draw_noise(noise: str, gen: np.random.Generator, shape):
    if noise == "rademacher":
        return gen.integers(0, 2, shape) * 2.0 - 1.0
    return gen.uniform(-1.0, 1.0, shape)


def empirical_value(samples, means=None) -> DenseTensor:
    """Average of the centered draws (1/n) sum_i (X_i - E X_i).

    ``means`` supplies the analytic expectations; omitted means are zero
    (the zero-mean convention of the built-in families).
    """
    samples = list(samples)
    if not samples or any(s is None for s in samples):
        raise ValidationError("every probability space needs one realized sample")
    shape = samples[0].shape
    if means is None:
        means = [None] * len(samples)
    if len(means) != len(samples):
        raise ValidationError("means must align with samples")
    total = np.zeros(shape.row_modes + shape.col_modes, np.complex128)
    for s, m in zip(samples, means):
        centered = s.data if m is None else s.data - m.data
        total = total + centered
    return DenseTensor(shape, total / len(samples))


def family_metrics(family: EmpiricalFamily, s_idx: int, t_idx: int):
    """(d1, d2) between two parameter tuples.

    d1 is the max over spaces of the spectral norm of the parameter
    difference; d2 the quadratic mean of those norms.
    """
    diff = family.parameters[t_idx] - family.parameters[s_idx]
    norms = kernels.batch_spectral(np.ascontiguousarray(diff))
    d1 = float(norms.max())
    d2 = float(math.sqrt(np.mean(norms**2)))
    return d1, d2


def family_space(family: EmpiricalFamily) -> FiniteMetricSpace:
    """Metric space over the parameter tuples carrying both metrics."""
    nt = family.t_count
    d1 = np.zeros((nt, nt))
    d2 = np.zeros((nt, nt))
    for s in range(nt):
        for t in range(s + 1, nt):
            a, b = family_metrics(family, s, t)
            d1[s, t] = d1[t, s] = a
            d2[s, t] = d2[t, s] = b
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
    """Per-sample sup_t || (1/n) sum_i w_i theta_i(t) ||_spec."""
    if n_samples < 1:
        raise ValidationError("need at least one sample")
    gen = rng_mod.stream(seed, 0)
    w = _draw_noise(family.noise, gen, (n_samples, family.n))
    values = np.einsum("si,tiab->stab", w, family.parameters) / family.n
    flat = np.ascontiguousarray(values.reshape(-1, *values.shape[2:]))
    norms = kernels.batch_spectral(flat).reshape(n_samples, family.t_count)
    return norms.max(axis=1)


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


def check_bernstein_condition(
    family: EmpiricalFamily,
    seed: int,
    n_samples: int,
    p_values=(2, 3, 4),
):
    """Monte Carlo check of E X^p <= (p! upsilon^(p-2) / 2) A_i^2 per (t, i).

    The order check is lambda_min(bound - estimate) >= -margin with the
    margin set to :data:`~tensorchain.report.MARGIN_SIGMAS` spectral
    standard errors of the estimated moment tensor.  Returns one record per
    (p, t, i).
    """
    gen = rng_mod.stream(seed, 0)
    w = _draw_noise(family.noise, gen, n_samples)
    side = family.parameters.shape[2]
    results = []
    for p in p_values:
        wp = w**p
        mean_wp = float(wp.mean())
        se_wp = float(wp.std(ddof=1) / math.sqrt(n_samples))
        for t in range(family.t_count):
            for i in range(family.n):
                theta = family.parameters[t, i]
                theta_p = np.linalg.matrix_power(theta, p)
                estimate = mean_wp * theta_p
                margin = MARGIN_SIGMAS * se_wp * float(
                    np.linalg.svd(theta_p, compute_uv=False)[0]
                )
                bound = (
                    math.factorial(p) * family.upsilon ** (p - 2) / 2.0
                ) * family.envelope_squares[i]
                slack = float(np.linalg.eigvalsh(bound - estimate)[0])
                results.append(
                    {
                        "p": int(p),
                        "t": int(t),
                        "i": int(i),
                        "min_eigenvalue_slack": slack,
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
