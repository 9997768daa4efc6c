"""Seeded Monte Carlo generation of tensor-valued random processes.

A process assigns to each index t a random tensor X_t = sum_k w_k c_k(t) B_k
built from a fixed Hermitian basis (B_k), a per-index coefficient vector
c(t), and scalar draws w whose law is the generator family.  The families
are this library's own test processes (no canonical family is mandated by
the theory being exercised):

* gaussian_linear          w_k i.i.d. standard normal
* subexponential_linear    w_k i.i.d. symmetrized exponential (Laplace)
* rademacher_martingale    w_k i.i.d. signs; X_t is the terminal value of
                           the martingale with differences w_k c_k(t) B_k
* iid_bernstein            w_k i.i.d. uniform on [-sqrt(3), sqrt(3)]
                           (bounded, unit variance)

Each process carries the increment pseudo-metric
d(s, t) = kappa * ||c(t) - c(s)||_2 * max_k ||B_k||, with kappa the one
``ProcessSpec.metric_scale`` of every family.  Sampling never reads it; the
claimed exponential tail with exponent ``tail_beta`` is verified on it
empirically by :func:`verify_increment_tail`, never assumed.

Trajectory s is drawn from the counter-based stream (seed, s), so ensembles
are bit-reproducible regardless of scheduling.  :func:`_form` is the one place
trajectories are built: from the weights that :func:`_draw` draws for a block
of samples, one re-keyed generator per sample, it contracts each component
with ``kernels.contract`` at chosen (sample, index) pairs.  An
:class:`Ensemble` holds only its weights; its blocks are formed a chunk of
samples at a time inside the ``kernels`` loops that reduce them
(:meth:`Ensemble.blocks`).  :func:`_realize` forms every pair of a block,
to refuse one whose entries overflow, and :func:`sample_mixed_sups` forms
only those its bounds leave as candidates.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels, rng as rng_mod
from .chaining import FiniteMetricSpace, _Certified, _certify, euclidean_distances
from .errors import (
    DegenerateMetricError,
    DomainError,
    InsufficientDataError,
    ValidationError,
)
from .report import BoundReport, csv_text, make_rows
from .tensor import GaugeNorm, fold, hermitian_stack


class ProcessFamily(enum.Enum):
    GAUSSIAN_LINEAR = "gaussian_linear"
    SUBEXPONENTIAL_LINEAR = "subexponential_linear"
    RADEMACHER_MARTINGALE = "rademacher_martingale"
    IID_BERNSTEIN = "iid_bernstein"

    @classmethod
    def coerce(cls, value) -> "ProcessFamily":
        if isinstance(value, cls):
            return value
        return cls(str(value).lower())


@dataclass(frozen=True)
class ProcessSpec:
    """Generator family plus the coefficient map and Hermitian basis.

    The basis goes through :func:`~tensorchain.tensor.hermitian_stack`, and
    ``basis_stack`` holds the result, the read-only (K, D, D) Hermitian
    parts of the unfoldings (``basis`` refolds them).  So the realized
    trajectories and their increments are Hermitian, as the kernels assume.
    """

    family: ProcessFamily
    coefficients: np.ndarray  # (index_count, K) real
    basis: tuple  # K Hermitian DenseTensors with one square shape
    tail_beta: float
    metric_scale: float = 2.0
    basis_stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "family", ProcessFamily.coerce(self.family))
        coeffs = np.array(self.coefficients, dtype=np.float64, order="C")  # a copy
        if coeffs.ndim != 2 or coeffs.shape[1] < 1:
            raise ValidationError("coefficients must be a (index, K) array with K >= 1")
        if not np.isfinite(coeffs).all():
            raise ValidationError("coefficients must be finite")
        coeffs.flags.writeable = False
        object.__setattr__(self, "coefficients", coeffs)
        basis = tuple(self.basis)
        if len(basis) != coeffs.shape[1]:
            raise ValidationError("basis length must match coefficient dimension")
        shape0, stack = hermitian_stack(basis, "basis")
        object.__setattr__(self, "basis_stack", stack)
        object.__setattr__(self, "basis", tuple(fold(m, shape0) for m in stack))
        if self.tail_beta <= 0:
            raise ValidationError("tail_beta must be positive")
        if self.metric_scale <= 0:
            raise ValidationError("metric_scale must be positive")

    @property
    def index_count(self) -> int:
        return self.coefficients.shape[0]

    @property
    def order(self) -> int:
        return self.coefficients.shape[1]


def _increment_metric(spec: ProcessSpec, gauge=GaugeNorm.SPECTRAL) -> _Certified:
    """:func:`process_metric` with the rounding certificate of its triangle check."""
    top = kernels.gauge_norms(spec.basis_stack, gauge).max()
    with np.errstate(over="ignore", invalid="ignore"):  # FiniteMetricSpace names it
        return _certify(euclidean_distances(spec.coefficients), spec.order,
                        spec.metric_scale * top)


def process_metric(spec: ProcessSpec, gauge=GaugeNorm.SPECTRAL) -> np.ndarray:
    """Increment pseudo-metric kappa * ||c(t)-c(s)|| * max_k ||B_k||."""
    return _increment_metric(spec, gauge).matrix


def process_space(spec: ProcessSpec, gauge=GaugeNorm.SPECTRAL) -> FiniteMetricSpace:
    """The index set under :func:`process_metric`, named ``"increment"``."""
    return FiniteMetricSpace(spec.index_count, {"increment": _increment_metric(spec, gauge)})


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Samples of a process, held as the read-only (samples, K) weights that
    one :func:`_draw` call gives; their trajectories are formed a block of
    samples at a time, inside the loop that reduces them (:meth:`blocks`).

    Gauge norms of the increments against one index are reduced from those
    blocks on demand and cached, in ``norms_vs``.
    """

    spec: ProcessSpec
    seed: int
    gauge: GaugeNorm
    weights: np.ndarray
    _norms_vs: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def sample_count(self) -> int:
        return self.weights.shape[0]

    @property
    def space_size(self) -> int:
        return self.spec.index_count

    @property
    def trajectories(self) -> np.ndarray:
        """The read-only (samples, index, D, D) trajectories, every sample
        formed at each read: for tests and library callers; the package's
        own reductions read :meth:`blocks`."""
        trajs = self.blocks()[:]
        trajs.flags.writeable = False
        return trajs

    def blocks(self) -> "_Blocks":
        """A new block former of the trajectories, for one ``kernels`` loop."""
        return _Blocks(self.spec, self.weights)

    def norms_vs(self, t0: int) -> np.ndarray:
        """(samples, index) norms of X_t - X_t0, computed once per t0, read-only."""
        if t0 < 0 or t0 >= self.space_size:
            raise DomainError(f"reference index {t0} outside the space")
        norms = self._norms_vs.get(t0)
        if norms is None:
            norms = kernels.ensemble_norms_vs_ref(self.blocks(), t0, self.gauge)
            norms.flags.writeable = False
            self._norms_vs[t0] = norms
        return norms

    def sup_samples(self, t0: int) -> np.ndarray:
        """Per-sample supremum over t of ||X_t - X_t0||."""
        return self.norms_vs(t0).max(axis=1)


class _Blocks:
    """The trajectories of ``weights`` (samples, K) under ``spec`` as the
    ``kernels`` increment loops read an array: ``shape``, and ``[sl]`` the
    block of the samples ``sl``, formed by :func:`_form` into a buffer that
    the next block reuses, so a former serves one loop.  A share that
    ``kernels.map_blocks`` forks forms its own blocks in its own buffer."""

    def __init__(self, spec, weights):
        self._spec, self._weights, self._held = spec, weights, {}
        self.shape = (len(weights), spec.index_count, *spec.basis_stack.shape[1:])

    def __getitem__(self, sl):
        rows = self._weights[sl]
        out = kernels._reuse(self._held, "block", (len(rows), *self.shape[1:]), np.complex128)
        return _form((self._spec,), (rows,), np.s_[:, None], np.s_[:], out)


def _draw(specs, seed: int, lo: int, hi: int) -> list:
    """Per component of a sum of processes, the (hi - lo, K) signed weights
    of samples lo..hi-1.

    Sample s draws the scalars of every component from the stream (seed, s),
    in component order, into row s - lo of one (samples, K) weight array per
    component; ``rng.streams`` re-keys one generator per sample.  Normals and
    exponentials are written in place.  A component with signs stores only
    their raw words (``rng.sign_words``) per sample, and after the loop
    ``rng.signs`` turns the whole block into +-1.0 factors of its weights, an
    exact product: the bits a per-sample ``integers(0, 2, K)`` draw gives.

    The sign words skip the 32-bit half-word that ``integers`` would leave
    buffered after an odd K, and nothing reads it: ``specs`` is one process
    or a gaussian and a subexponential component, so a sample draws signs at
    most once; only ``standard_exponential`` follows them, and it reads whole
    64-bit words; and ``rng.streams`` clears the buffer at each re-key.
    """
    n = hi - lo
    signed = (ProcessFamily.SUBEXPONENTIAL_LINEAR, ProcessFamily.RADEMACHER_MARTINGALE)
    draws = []  # per component: its family, weights and sign words (or None)
    for spec in specs:
        family, k = spec.family, spec.order
        # rademacher weights are their signs alone: +-1.0 times ones
        w = (np.ones if family is ProcessFamily.RADEMACHER_MARTINGALE else np.empty)((n, k))
        words = np.empty((n, (k + 1) // 2), np.uint64) if family in signed else None
        draws.append((family, w, words))
    for row, gen in enumerate(rng_mod.streams(seed, lo, hi)):
        for family, w, words in draws:
            if family is ProcessFamily.GAUSSIAN_LINEAR:
                gen.standard_normal(out=w[row])
            elif family is ProcessFamily.IID_BERNSTEIN:
                w[row] = gen.uniform(-math.sqrt(3.0), math.sqrt(3.0), w.shape[1])
            else:
                words[row] = rng_mod.sign_words(gen, w.shape[1])
                if family is ProcessFamily.SUBEXPONENTIAL_LINEAR:
                    gen.standard_exponential(out=w[row])
    for spec, (_, w, words) in zip(specs, draws):
        if words is not None:
            w *= rng_mod.signs(words, spec.order)
    return [w for _, w, _ in draws]


def _form(specs, weights, rows, cols, out=None) -> np.ndarray:
    """X at the samples ``rows`` of ``weights`` (from :func:`_draw`) and the
    indices ``cols``, two indices that broadcast: each component's weights
    c_k(t) w_k contracted by ``kernels.contract``, the first into ``out`` if
    given, the parts added in component order.  Every entry is formed by
    the same operations whichever (row, index) pairs are chosen, so any of
    them equals that entry of the whole block bit for bit."""
    trajs = None
    for spec, w in zip(specs, weights):
        part = kernels.contract(spec.coefficients[cols] * w[rows], spec.basis_stack,
                                out if trajs is None else None)
        trajs = part if trajs is None else np.add(trajs, part, out=trajs)
    return trajs


def _entry_limit(side: int) -> float:
    """The largest |part| of a realized entry of D x D trajectories, D = ``side``."""
    return np.finfo(np.float64).max / (4.0 * side**1.5)


def _realize(specs, seed: int, lo: int, hi: int) -> np.ndarray:
    """(hi - lo, T, D, D) trajectories of samples lo..hi-1 of a sum of processes:
    the weights of :func:`_draw`, each component contracted once for the
    block by :func:`_form`.

    The block, formed with numpy's overflow warnings off, is refused with a
    :class:`DomainError` unless each real or imaginary part r of its entries
    has |r| <= ``_entry_limit(D)``, that is 4 |r| D^(3/2) <= the largest
    float.  Then an increment X_a - X_b has parts within 2 |r|, Frobenius and
    spectral norms at most 2 sqrt(2) |r| D and a nuclear norm sqrt(D) times
    that: all finite, with room for rounding.
    """
    weights = _draw(specs, seed, lo, hi)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        trajs = _form(specs, weights, np.s_[:, None], np.s_[:])
        parts = trajs.view(np.float64)
        top = max(parts.max(), -parts.min())
    limit = _entry_limit(trajs.shape[-1])
    if not top <= limit:  # also NaN
        raise DomainError(f"realized trajectories overflow: an entry passes {limit:.3g}")
    return trajs


def sample_ensemble(
    spec: ProcessSpec, seed: int, n_samples: int, gauge=GaugeNorm.SPECTRAL
) -> Ensemble:
    """Samples 0..n_samples-1 of ``spec``: the weights of one :func:`_draw`.

    Overflow is refused here, as :func:`_realize` refuses it, though no
    trajectory is formed yet.  Every |part| of an entry of X_t is at most
    the pad scale sum_k |w_k| max_t |c_k(t)| ||B_k||_F of its sample, up to
    a relative (K + 2) eps; only when the largest scale passes half
    ``_entry_limit`` are the samples realized, a ``kernels.chunks`` block at
    a time, so that :func:`_realize` refuses the entries that overflow.
    """
    if n_samples < 1:
        raise ValidationError("need at least one sample")
    (weights,) = _draw((spec,), seed, 0, n_samples)
    side = spec.basis_stack.shape[-1]
    fro = kernels.gauge_norms(spec.basis_stack, GaugeNorm.FROBENIUS)
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN: realized below
        scale = np.abs(weights) @ (np.abs(spec.coefficients).max(axis=0) * fro)
    if not scale.max() <= _entry_limit(side) / 2:  # also NaN
        for sl in kernels.chunks(n_samples, spec.index_count * side * side):
            _realize((spec,), seed, sl.start, sl.stop)
    weights.flags.writeable = False
    return Ensemble(spec, seed, GaugeNorm.coerce(gauge), weights)


# ---------------------------------------------------------------------------
# empirical statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TailCurve:
    """Empirical survival of the per-sample supremum statistic.

    ``sample_count == 0`` marks a synthetic curve (exact functional form,
    no integrality constraint on survival * sample_count).
    """

    u_grid: np.ndarray
    survival: np.ndarray
    sample_count: int

    def __post_init__(self):
        u = np.array(self.u_grid, dtype=np.float64, order="C")  # copies, frozen below
        s = np.array(self.survival, dtype=np.float64, order="C")
        if u.ndim != 1 or s.shape != u.shape:
            raise ValidationError("u_grid and survival must be 1-D and aligned")
        if np.any(np.diff(u) <= 0):
            raise ValidationError("u_grid must be strictly ascending")
        if np.any((s < 0) | (s > 1)):
            raise ValidationError("survival values must lie in [0, 1]")
        if np.any(np.diff(s) > 1e-12):
            raise ValidationError("survival must be nonincreasing")
        if self.sample_count:
            counts = s * self.sample_count
            if np.abs(counts - np.round(counts)).max() > 1e-9:
                raise ValidationError("survival * sample_count must be integral")
        u.flags.writeable = False
        s.flags.writeable = False
        object.__setattr__(self, "u_grid", u)
        object.__setattr__(self, "survival", s)

    @classmethod
    def from_counts(cls, u_grid, counts, sample_count: int) -> "TailCurve":
        counts = np.asarray(counts, dtype=np.float64)
        return cls(np.asarray(u_grid, dtype=np.float64), counts / sample_count, sample_count)

    def to_csv(self) -> str:
        return csv_text(
            "u,survival,count", self.u_grid, self.survival, self.survival * self.sample_count
        )


def empirical_tail(ensemble: Ensemble, t0: int, u_grid) -> TailCurve:
    """Survival of the per-sample supremum of ||X_t - X_t0|| at each u."""
    u = np.asarray(u_grid, dtype=np.float64)
    if u.ndim != 1 or u.size == 0:
        raise DomainError("u_grid must be a nonempty 1-D array")
    if np.any(u < 0) or np.any(np.diff(u) <= 0):
        raise DomainError("u_grid must be ascending and nonnegative")
    sups = ensemble.sup_samples(t0)
    counts = (sups[None, :] >= u[:, None]).sum(axis=1)
    return TailCurve.from_counts(u, counts, ensemble.sample_count)


def fit_tail_exponent(curve: TailCurve):
    """Least-squares slope of log(-log survival) against log u.

    Returns (beta_hat, r_squared) over grid points with survival strictly
    inside (0, 1) and positive u.
    """
    usable = (curve.survival > 0.0) & (curve.survival < 1.0) & (curve.u_grid > 0.0)
    if usable.sum() < 4:
        raise InsufficientDataError(
            f"need at least 4 usable grid points, have {int(usable.sum())}"
        )
    x = np.log(curve.u_grid[usable])
    y = np.log(-np.log(curve.survival[usable]))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float((resid**2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot <= 1e-30 else 1.0 - ss_res / ss_tot
    return float(slope), float(r2)


def verify_increment_tail(
    ensemble: Ensemble,
    space: FiniteMetricSpace,
    metric_id: str,
    beta: float,
    u_grid,
) -> BoundReport:
    """Check P(||X_t - X_s|| >= u d(s,t)) <= 2 exp(-u^beta) on every pair.

    Pairs at zero distance must have identical realizations; otherwise the
    metric is degenerate for this process.  They are left out, and a space
    with no pair at positive distance has nothing to test.

    Only counts at each u d(s, t) and, to find nonzero increments, at the
    least subnormal are read, from the bound-first ``kernels.increment_counts``.
    """
    if beta <= 0:
        raise DomainError("beta must be positive")
    u = np.asarray(u_grid, dtype=np.float64)
    if np.any(u < 0) or np.any(np.diff(u) <= 0):
        raise DomainError("u_grid must be ascending and nonnegative")
    dist = space.distance_matrix(metric_id)
    if space.size != ensemble.space_size:
        raise ValidationError("ensemble and space disagree on the index count")
    samples = ensemble.sample_count
    idx_s, idx_t = np.triu_indices(space.size, k=1)
    d_pairs = dist[idx_s, idx_t]
    live = d_pairs > 0
    with np.errstate(over="ignore"):  # no finite norm reaches an infinite threshold
        thr = np.vstack([u[:, None] * d_pairs, np.full_like(d_pairs, np.nextafter(0.0, 1.0))])
    counts = kernels.increment_counts(ensemble.blocks(), idx_s, idx_t, thr, ensemble.gauge)
    differ = np.flatnonzero(~live & (counts[-1] > 0))
    if differ.size:  # name the first in triu order
        raise DegenerateMetricError(
            f"indices {idx_s[differ[0]]} and {idx_t[differ[0]]} are at distance zero "
            "but their realizations differ"
        )
    if not live.any():
        raise InsufficientDataError("no pair of indices is at positive distance")

    with np.errstate(over="ignore"):  # u**beta = inf gives the bound 0
        bounds = np.minimum(1.0, 2.0 * np.exp(-(u**beta)))
    worst_freq = (counts[:-1, live] / samples).max(axis=1)
    worst_ratio = (worst_freq[bounds > 0] / bounds[bounds > 0]).max(initial=0.0)
    rows = make_rows(u, u, bounds, worst_freq, samples)
    return BoundReport(
        bound_name="increment_exponential_tail",
        inputs={
            "beta": beta,
            "metric_id": metric_id,
            "family": ensemble.spec.family.value,
            "gauge": ensemble.gauge.value,
            "samples": samples,
            "seed": ensemble.seed,
            "pairs_tested": int(live.sum()),
        },
        rows=rows,
        extras={"worst_ratio": float(worst_ratio)},
    )


# sample_mixed_sups forks only for shares of _CHUNK_ENTRIES /
# _LEAST_MIXED_SHARE samples or more, 256 at the default budget: bound first,
# a sample costs 17 us (mc-deep) to 120 us (index-wide), far less than its
# entries say, against about 10 ms of CPU for a fork and its page faults.
_LEAST_MIXED_SHARE = 2048


def _mixed_sample_entries(index_count: int, order: int, size: int) -> int:
    """Complex entries that :func:`sample_mixed_sups` holds per sample, for
    ``order`` weights in all over matrices of ``size`` D^2 entries: the
    larger of its bound's reals, the weight-times-coordinate arrays (order x
    D^2) and the coordinates of every increment (index_count x D^2), and of
    what forming every increment holds, as a chunk realized whole or one
    whose bounds decide nothing does: per index, X_t, a component's part or
    the X_0 gather, and a component's contract weights (at most ``order``
    reals)."""
    bound = (order + index_count) * size
    formed = index_count * (4 * size + order)
    return -(-max(bound, formed) // 2)


def _increment_bounds(specs, weights):
    """(samples, T) upper bounds of the spectral norm, as ``eigvalsh``
    computes it, of each increment X_t - X_0 that :func:`_form` gives from
    ``weights`` (from :func:`_draw`), and the pad scale A of each.

    X_t - X_0 = sum_k w_k (c_k(t) - c_k(0)) B_k over the K weights of every
    component, so ``kernels._sum_intervals`` takes the steps c_k(t) - c_k(0)
    as its weights and the coordinates of each sample's w_k B_k as its
    stacks, with A = sum_k |w_k| (|c_k(t)| + |c_k(0)|) ||B_k||_F, which
    covers the rounding of X_t, of X_0 and of their difference (derived
    there).  A also bounds every |part| of X_t up to a relative
    (K + D^2 + 4) eps.
    """
    coeffs = np.hstack([spec.coefficients for spec in specs])
    coords, fro = kernels._coordinates(np.concatenate([spec.basis_stack for spec in specs]))
    w = np.hstack(weights)
    with np.errstate(over="ignore", invalid="ignore"):  # wild in _sum_intervals
        steps = coeffs - coeffs[0]
        reach = ((np.abs(coeffs) + np.abs(coeffs[0])) * fro).T
        scaled = w[:, :, None] * coords
    _, upper, scale = kernels._sum_intervals(steps, scaled, w, reach, GaugeNorm.SPECTRAL)
    return upper, scale


def sample_mixed_sups(
    spec_subgauss: ProcessSpec, spec_subexp: ProcessSpec, seed: int, n_samples: int
) -> np.ndarray:
    """Per-sample suprema over t of the spectral norm of X_t - X_0 for the
    sum of a gaussian and a subexponential part.

    The two components share the index set; each sample draws both scalar
    blocks from the same per-sample stream, gaussian block first.  The
    resulting process has one sub-gaussian and one sub-exponential metric
    (from each component), the shape the mixed-tail bounds expect.

    Each block of samples, mapped by ``kernels.map_blocks``, draws its
    weights once (:func:`_draw`) and bounds every increment from them
    (:func:`_increment_bounds`).  ``kernels._top_then_ties`` then forms
    (:func:`_form`) and eigensolves only the increments that may hold a
    sample's maximum, each X_t minus the sample's X_0: bit for bit the
    increment of the realized block, whose entries are formed by the same
    operations.  A chunk whose largest pad scale passes half
    ``_entry_limit`` is first realized whole by :func:`_realize`, which
    refuses one whose entries overflow.
    """
    if n_samples < 1:
        raise ValidationError("need at least one sample")
    if spec_subgauss.family is not ProcessFamily.GAUSSIAN_LINEAR:
        raise ValidationError("first component must be gaussian_linear")
    if spec_subexp.family is not ProcessFamily.SUBEXPONENTIAL_LINEAR:
        raise ValidationError("second component must be subexponential_linear")
    nt = spec_subgauss.index_count
    if spec_subexp.index_count != nt:
        raise ValidationError("components must share one index set")
    if spec_subgauss.basis[0].shape != spec_subexp.basis[0].shape:
        raise ValidationError("components must share one tensor shape")
    specs = (spec_subgauss, spec_subexp)
    side = spec_subgauss.basis_stack.shape[-1]
    order = spec_subgauss.order + spec_subexp.order

    def block_sups(sl):
        weights = _draw(specs, seed, sl.start, sl.stop)
        upper, scale = _increment_bounds(specs, weights)
        if not scale.max() <= _entry_limit(side) / 2:  # also NaN
            _realize(specs, seed, sl.start, sl.stop)
        x0 = _form(specs, weights, np.s_[:], 0)

        def norms(rows, cols):
            diff = _form(specs, weights, rows, cols)
            diff -= x0[rows]
            return kernels.gauge_norms(diff, GaugeNorm.SPECTRAL)

        return kernels._top_then_ties(upper, norms)

    entries = _mixed_sample_entries(nt, order, side * side)
    least = kernels._CHUNK_ENTRIES // _LEAST_MIXED_SHARE
    return np.concatenate(kernels.map_blocks(block_sups, n_samples, entries, least))


def ensemble_to_csv(ensemble: Ensemble, t0: int = 0) -> str:
    """Per-(sample, index) gauge norms of X_t - X_t0 as CSV."""
    norms = ensemble.norms_vs(t0)
    samples, indices = np.indices(norms.shape)
    return csv_text("sample,t_index,norm", samples.ravel(), indices.ravel(), norms.ravel())
