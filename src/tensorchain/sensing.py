"""Sparse signals, subsampled unitary operators, and restricted isometry.

A signal lives on the column-mode index space (J_1, ..., J_N); a
measurement operator is a (rows; J) tensor.  The restricted isometry
constant of order xi is the worst deviation of a xi-column Gram block of
the unfolding from the identity.  It is computed exactly by
:func:`tensorchain.kernels.rip_scan`, whose docstring states how it prunes
the scan and why the result is that of a scan eigensolving every block.
For a mode-wise Fourier operator, passed with its column dims as ``group``,
the scan bounds one support per translation orbit: the C(N - 1, xi - 1)
supports holding column 0 in place of all C(N, xi).
:data:`tensorchain.kernels.SUPPORT_BUDGET` binds both the supports the scan
bounds, refused with :class:`CapacityError` before any work, and those it
eigensolves, the scan raising it once that count would pass the budget.

Sampled operators follow the standard recipe: keep each output index of a
square unitary independently with probability target/source and rescale by
sqrt(source/target).

The sampling-condition predicate uses the inverse-square dependence on the
isometry level tau; the tau^2 variant is rejected because it loosens as
tau shrinks, contradicting the guarantee it is meant to deliver (see the
predicate's docstring).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from . import kernels, rng as rng_mod
from .errors import DegenerateOperatorWarning, DomainError
from .report import csv_text
from .tensor import DenseTensor, Shape, fold, is_unitary, unfold


# ---------------------------------------------------------------------------
# coherence
# ---------------------------------------------------------------------------


def coherence(u: DenseTensor) -> float:
    """sqrt(prod J) times the largest entry magnitude of a unitary tensor."""
    if not is_unitary(u):
        raise DomainError("coherence is defined for unitary measurement tensors")
    return float(math.sqrt(u.shape.col_count) * np.abs(u.data).max())


# ---------------------------------------------------------------------------
# random selectors and sampled operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SamplingPattern:
    """Independently selected output indices of a square unitary.

    ``selected`` holds sorted flat row-major indices into ``source_dims``;
    the expected count under the generating law is ``target_size``.
    """

    source_dims: tuple
    target_size: int
    seed: int
    selected: tuple

    @property
    def source_count(self) -> int:
        return math.prod(self.source_dims)

    def __len__(self):
        return len(self.selected)


def draw_pattern(
    source_dims, target_size: int, seed: int, stream_index: int = 0
) -> SamplingPattern:
    """Include each source index independently with probability target/source."""
    source_dims = tuple(int(d) for d in source_dims)
    total = math.prod(source_dims)
    if target_size < 1 or target_size > total:
        raise DomainError(
            f"target size must lie in [1, {total}], got {target_size}"
        )
    gen = rng_mod.stream(seed, stream_index)
    keep = gen.random(total) < target_size / total
    selected = tuple(int(i) for i in np.flatnonzero(keep))
    return SamplingPattern(source_dims, int(target_size), int(seed), selected)


def sample_operator(u: DenseTensor, pattern: SamplingPattern) -> DenseTensor:
    """Row restriction of the unitary to the pattern, rescaled.

    The unfolding of the result is sqrt(source/target) times the selected
    rows of unfold(u).  An empty pattern yields a single all-zero row and a
    :class:`DegenerateOperatorWarning` (a zero row behaves identically to
    no row for every isometry statistic, and shapes require extents >= 1).
    """
    if pattern.source_dims != u.shape.row_modes:
        raise DomainError(
            f"pattern covers {pattern.source_dims}, operator rows are "
            f"{u.shape.row_modes}"
        )
    scale = math.sqrt(pattern.source_count / pattern.target_size)
    mat = unfold(u)
    if len(pattern) == 0:
        warnings.warn(
            "sampling pattern selected no indices", DegenerateOperatorWarning
        )
        rows = np.zeros((1, mat.shape[1]), np.complex128)
    else:
        rows = scale * mat[list(pattern.selected), :]
    return fold(rows, Shape((rows.shape[0],), u.shape.col_modes))


# ---------------------------------------------------------------------------
# restricted isometry constants
# ---------------------------------------------------------------------------


def rip_exact(a: DenseTensor, xi: int, group=None) -> float:
    """Exact isometry constant: worst eigenvalue deviation of a Gram block.

    Deviations only grow as supports grow (eigenvalue interlacing), so only
    supports of size min(xi, #columns) are scanned.  Only the blocks whose
    slack-inflated bound reaches the running maximum are eigensolved.
    ``group``, the column dims of a mode-wise Fourier operator, lets the
    scan bound one support per translation orbit, certified against how far
    the computed Gram matrix is from a group-circulant (see
    :func:`tensorchain.kernels.rip_scan`).  Either way the value is the one a
    scan that eigensolves every block returns, to the last bit.  A scan that
    would bound or eigensolve more than ``kernels.SUPPORT_BUDGET`` supports
    raises :class:`CapacityError`; the bounded count is refused before the
    Gram matrix is formed.
    """
    if xi < 1:
        raise DomainError("xi must be at least 1")
    ncols = a.shape.col_count
    if group is not None and math.prod(group) != ncols:
        raise DomainError(f"group {tuple(group)} does not act on {ncols} columns")
    kernels.check_scan_capacity(ncols, min(xi, ncols), group)  # before the Gram
    mat = unfold(a)
    gram = mat.conj().T @ mat
    return float(kernels.rip_scan(gram, min(xi, ncols), group))


@dataclass(frozen=True)
class RipReport:
    """Monte Carlo sweep of the isometry constant under random sampling."""

    method = "exact"  # every trial's tau value comes from an exact scan

    xi: int
    tau: float
    trials: int
    seed: int
    target_size: int
    source_dims: tuple
    tau_values: tuple
    eta_hat: float
    eta_ci: tuple  # normal-approximation 95% interval, clipped to [0, 1]

    def to_dict(self) -> dict:
        return {**asdict(self), "method": self.method}

    def to_csv(self) -> str:
        return csv_text("trial,tau_value", range(len(self.tau_values)), self.tau_values)


def rip_monte_carlo(
    u: DenseTensor,
    xi: int,
    tau: float,
    trials: int,
    seed: int,
    target_size: int,
    group=None,
) -> RipReport:
    """Frequency of tau_xi(sampled operator) >= tau over seeded trials.

    Each trial draws its pattern from stream (seed, trial), so reports merge
    deterministically by trial index.  Every tau value is exact, scanned with
    ``group`` as in :func:`rip_exact`; a scan over ``kernels.SUPPORT_BUDGET``
    supports raises :class:`CapacityError` before the first pattern is drawn.
    Every trial scans the same shape, so the first chunk of supports and
    their pair indices that ``kernels.rip_scan`` keeps serves them
    all: a scan of one chunk, such as the C(64, 3) = 41 664 supports of xi 3
    on 64 columns, enumerates its supports once per sweep, not once per trial.
    """
    if trials < 1:
        raise DomainError("need at least one trial")
    if xi < 1:
        raise DomainError("xi must be at least 1")
    kernels.check_scan_capacity(u.shape.col_count, xi, group)
    source_dims = u.shape.row_modes
    values = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateOperatorWarning)
        for trial in range(trials):
            pattern = draw_pattern(source_dims, target_size, seed, stream_index=trial)
            values.append(rip_exact(sample_operator(u, pattern), xi, group))
    arr = np.array(values)
    eta_hat = float((arr >= tau).mean())
    half = 1.96 * math.sqrt(max(eta_hat * (1.0 - eta_hat), 0.0) / trials)
    ci = (max(0.0, eta_hat - half), min(1.0, eta_hat + half))
    return RipReport(
        xi=int(xi),
        tau=float(tau),
        trials=int(trials),
        seed=int(seed),
        target_size=int(target_size),
        source_dims=source_dims,
        tau_values=tuple(float(v) for v in values),
        eta_hat=eta_hat,
        eta_ci=ci,
    )


# ---------------------------------------------------------------------------
# sampling condition and entropy estimates
# ---------------------------------------------------------------------------


def rip_sampling_condition(
    xi, upsilon, tau, eta, row_dims, col_dims, c4, c5
) -> bool:
    """Sufficient-sampling predicate for tau-level isometry with failure
    probability eta.

    The requirement scales as tau^(-2): demanding a tighter isometry must
    demand more samples.  (A tau^2 variant of the same condition weakens as
    tau -> 0 and is deliberately not implemented.)
    """
    if not (0 < tau < 1) or not (0 < eta < 1):
        raise DomainError("tau and eta must lie in (0, 1)")
    if upsilon < 1:
        raise DomainError("coherence is at least 1")
    if xi < 1:
        raise DomainError("xi must be at least 1")
    prod_i = math.prod(row_dims)
    prod_j = math.prod(col_dims)
    log_term = c4 * math.log(xi) ** 2 * math.log(prod_i) * math.log(prod_j)
    eta_term = c5 * math.log(1.0 / eta)
    required = xi * upsilon**2 * tau**-2 * max(log_term, eta_term)
    return prod_i >= required


def rip_tau_threshold(eta, xi, upsilon, row_dims, col_dims) -> float:
    """Isometry level G(eta) exceeded with probability at most eta."""
    if not (0 < eta < 1):
        raise DomainError("eta must lie in (0, 1)")
    prod_i = math.prod(row_dims)
    prod_j = math.prod(col_dims)
    li, lj = math.log(prod_i), math.log(prod_j)
    lx = math.log(xi)
    le = math.log(1.0 / eta)
    ratio = xi / prod_i
    return (
        upsilon * math.sqrt(ratio) * math.sqrt(li) * math.sqrt(lj) * lx
        + upsilon**2 * ratio * li * lj * lx**2
        + upsilon * math.sqrt(le * ratio)
        + upsilon**2 * le * ratio
    )


def entropy_bound(xi, upsilon, row_dims, col_dims) -> float:
    """Closed-form entropy-integral estimate for the sparse sphere."""
    if xi < 1:
        raise DomainError("xi must be at least 1")
    prod_i = math.prod(row_dims)
    prod_j = math.prod(col_dims)
    if prod_i < 2 or prod_j < 2:
        raise DomainError("both index products must be at least 2")
    return (
        upsilon
        * math.sqrt(xi / prod_i)
        * math.log(xi * math.sqrt(math.log(prod_i)) * math.sqrt(math.log(prod_j)))
    )


# ---------------------------------------------------------------------------
# measurement unitaries
# ---------------------------------------------------------------------------


def fourier_unitary(col_dims) -> DenseTensor:
    """Mode-wise discrete Fourier tensor: unit coherence, exactly unitary.

    The unfolding is the Kronecker product of the per-mode normalized DFT
    matrices, with the leftmost mode most significant (matching the
    row-major index order).
    """
    col_dims = tuple(int(d) for d in col_dims)
    mat = np.ones((1, 1), np.complex128)
    for n in col_dims:
        j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        dft = np.exp(-2j * math.pi * j * k / n) / math.sqrt(n)
        mat = np.kron(mat, dft)
    return fold(mat, Shape(col_dims, col_dims))
