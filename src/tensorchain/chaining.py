"""Finite metric spaces and generic-chaining functionals.

The chaining complexity of a finite index set is measured through
admissible sequences: nested-size families (T_n) with |T_0| = 1 and
|T_n| <= 2^(2^n).  Evaluating the weighted sum sup_t sum_n 2^(n/beta)
d(t, T_n) for a *given* sequence is exact and cheap; minimizing over all
sequences is hard, so this module separates evaluation from search: a
deterministic farthest-point greedy supplies good sequences, and an
exhaustive oracle certifies optimality on spaces with at most 16 points.

Sequences are stored finitely and terminate at the first level containing
every point; the formally infinite tail contributes zero from there on.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import CapacityError, DomainError, ValidationError
from .report import csv_text
from .tensor import _FRO_RANGE, root_sum_squares

# Triangle-inequality tolerance relative to the largest distance (absolute
# below 1): computed distances break the inequality by rounding alone.
_TRIANGLE_TOL = 1e-9
_UNIT = 2.0**-53  # unit roundoff of float64
_TINY = float(np.finfo(np.float64).tiny)  # least normal float64
EXACT_COVER_LIMIT = 20
EXHAUSTIVE_LIMIT = 16


def euclidean_distances(points: np.ndarray) -> np.ndarray:
    """(n, n) Euclidean distances between the rows of a 2-D array.

    Exactly symmetric with a zero diagonal, as p_i - p_j is exactly -(p_j - p_i).
    Each is ``tensor.root_sum_squares`` of a difference, range-safe, so only a
    difference beyond the float range is non-finite, for FiniteMetricSpace to reject.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        diff = points[:, None, :] - points[None, :, :]
    return root_sum_squares(diff, 1)


class _Certified(NamedTuple):
    """A metric the library built, with a bound on the value
    ``kernels.max_triangle_violation`` computes on it (inf: no bound)."""

    matrix: np.ndarray
    bound: float


def _certify(dist: np.ndarray, dim: int, scale=None) -> _Certified:
    """``dist``, the ``euclidean_distances`` of points with ``dim`` coordinates,
    times ``scale`` if given, with the rounding certificate of its triangle check.

    Let sigma be the computed scale (1 unscaled) and D the exact Euclidean
    distances: sigma * D is a metric, so sigma's own error cannot break the
    inequality.  Each computed entry is d = sigma * D * (1 + phi) with
    |phi| <= gamma_c = c u / (1 - c u) (Higham, *Accuracy and Stability of
    Numerical Algorithms*, ch. 3), u = 2^-53 and c = (dim + 4) / 2:

    - a squared difference carries (1 + u)^3: the difference, twice, and the square;
    - the dim-term sum adds at most (1 + u)^(dim - 1), so d^2 carries (1 + u)^(dim + 2);
    - the square root halves that exponent and rounds once: (dim + 2) / 2 + 1;
    - ``scale`` rounds once more: c = (dim + 6) / 2.

    Then d_ij - d_ik - d_kj <= gamma_c (D'_ij + D'_ik + D'_kj) <= 3 gamma_c /
    (1 - gamma_c) max d, for D' = sigma * D.  The check's two subtractions add at
    most u max d, times 1 + u.  With c u <= 2^-30 the total is under
    (3c + 1.1) u max d.  The bound returned is (3c + 2) u max d: (3c + 2) u is
    exact and one rounding keeps the product above (3c + 1.1) u max d.

    The model needs every entry off the rescaled path of ``root_sum_squares``
    and, scaled, in the normal range; otherwise the bound is inf and the check
    runs.  An unscaled positive distance inside [2 lo, hi / 2] of ``_FRO_RANGE``
    is a direct value: the two paths agree to a relative 2c u, far under the
    factor 2.  Inside that range, squares that underflow move a distance by a
    relative dim * 2^-1075 / 4e-280, far under u.  A 0 is exact: a nonzero
    difference whose square underflows takes the rescaled path.
    """
    c = (dim + 4) / 2 if scale is None else (dim + 6) / 2
    lo = np.min(dist, where=dist > 0, initial=np.inf)
    direct = 2 * _FRO_RANGE[0] <= lo and dist.max(initial=0.0) <= _FRO_RANGE[1] / 2
    if scale is not None:
        dist = scale * dist
        direct = direct and scale * lo >= _TINY  # fl(scale * x) is monotone in x
    exact = direct and c * _UNIT <= 2.0**-30
    return _Certified(dist, (3 * c + 2) * _UNIT * dist.max(initial=0.0) if exact else math.inf)


@dataclass(frozen=True)
class FiniteMetricSpace:
    """Index set {0, ..., size-1} with one or more named distance matrices.

    Every matrix must be finite, non-negative and symmetric with a zero
    diagonal, and break the triangle inequality by at most ``_TRIANGLE_TOL``
    times max(1, its largest distance).  The O(n^3) triangle check is skipped
    only for a metric the library built with a rounding certificate
    (``_certify``) whose bound is within that tolerance.
    """

    size: int
    metrics: dict

    def __post_init__(self):
        if self.size < 1:
            raise ValidationError("metric space must contain at least one point")
        if not self.metrics:
            raise ValidationError("metric space needs at least one metric")
        frozen = {}
        for name, mat in self.metrics.items():
            mat, bound = mat if isinstance(mat, _Certified) else (mat, math.inf)
            arr = np.array(mat, dtype=np.float64, order="C")  # a copy, frozen below
            if arr.shape != (self.size, self.size):
                raise ValidationError(f"metric {name!r} has shape {arr.shape}")
            if not np.isfinite(arr).all():
                raise ValidationError(f"metric {name!r} has non-finite entries")
            if (arr < 0).any():
                raise ValidationError(f"metric {name!r} has negative distances")
            if np.abs(np.diag(arr)).max(initial=0.0) > 1e-12:
                raise ValidationError(f"metric {name!r} has a nonzero diagonal")
            if np.diag(arr).any():  # accepted as zero, so stored as zero
                np.fill_diagonal(arr, 0.0)
            if np.abs(arr - arr.T).max() > 1e-12:
                raise ValidationError(f"metric {name!r} is not symmetric")
            limit = _TRIANGLE_TOL * max(1.0, arr.max())
            if bound > limit and kernels.max_triangle_violation(arr) > limit:
                raise ValidationError(f"metric {name!r} violates the triangle inequality")
            arr.flags.writeable = False
            frozen[str(name)] = arr
        object.__setattr__(self, "metrics", frozen)

    @classmethod
    def from_points(cls, points, name="euclidean") -> "FiniteMetricSpace":
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if pts.shape[0] == 1 and pts.shape[1] > 1 and np.ndim(points) == 1:
            pts = pts.T
        return cls(pts.shape[0], {name: _certify(euclidean_distances(pts), pts.shape[1])})

    def distance_matrix(self, metric_id: str) -> np.ndarray:
        try:
            return self.metrics[metric_id]
        except KeyError:
            raise KeyError(f"unknown metric id {metric_id!r}") from None


def diameter(space: FiniteMetricSpace, metric_id: str) -> float:
    return float(space.distance_matrix(metric_id).max())


# ---------------------------------------------------------------------------
# admissible sequences
# ---------------------------------------------------------------------------


def level_cap(n: int) -> int:
    """Cardinality cap at level n: 1 at the root, then 2^(2^n)."""
    return 1 if n == 0 else 2 ** (2**n)


@dataclass(frozen=True)
class AdmissibleSequence:
    """Nested-size subsets (T_n), ending at a level equal to the whole set."""

    size: int
    levels: tuple

    def __post_init__(self):
        levels = tuple(tuple(sorted(int(i) for i in lev)) for lev in self.levels)
        object.__setattr__(self, "levels", levels)
        if not levels:
            raise ValidationError("sequence needs at least one level")
        for n, lev in enumerate(levels):
            if len(set(lev)) != len(lev):
                raise ValidationError(f"level {n} repeats a point")
            if any(i < 0 or i >= self.size for i in lev):
                raise ValidationError(f"level {n} references a point outside the space")
            if len(lev) > level_cap(n):
                raise ValidationError(
                    f"level {n} has {len(lev)} points, cap is {level_cap(n)}"
                )
        if len(levels[-1]) != self.size:
            raise ValidationError("final level must contain every point")

    @property
    def depth(self) -> int:
        return len(self.levels)


def _level_arrays(seq: AdmissibleSequence):
    members = np.array(
        [i for lev in seq.levels for i in lev], dtype=np.int64
    )
    offsets = np.zeros(len(seq.levels) + 1, dtype=np.int64)
    np.cumsum([len(lev) for lev in seq.levels], out=offsets[1:])
    return members, offsets


def _check_pair(space: FiniteMetricSpace, seq: AdmissibleSequence):
    if seq.size != space.size:
        raise ValidationError(
            f"sequence is over {seq.size} points, space has {space.size}"
        )


def _weight(n, beta) -> float:
    """The chaining weight 2^(n/beta); a DomainError naming beta on overflow."""
    try:
        return 2.0 ** (n / beta)
    except OverflowError:
        return _finite(math.inf, beta)


def _finite(value: float, beta) -> float:
    """A chaining weight or value; a DomainError naming beta if it overflowed."""
    if not math.isfinite(value):
        raise DomainError(f"beta {beta!r} is too small: the chaining sum overflows")
    return value


def gamma_value(space, metric_id, beta, seq: AdmissibleSequence) -> float:
    """sup_t sum_n 2^(n/beta) d(t, T_n) for the given sequence."""
    return gamma_truncated_value(space, metric_id, beta, 1.0, seq)


def gamma_truncated_value(space, metric_id, beta, p, seq: AdmissibleSequence) -> float:
    """Same weighted sum started at level floor(log2 p)."""
    if beta <= 0:
        raise DomainError("beta must be positive")
    if p < 1:
        raise DomainError("p must be at least 1")
    _check_pair(space, seq)
    dist = space.distance_matrix(metric_id)
    start = int(math.floor(math.log2(p)))
    weights = np.array(
        [_weight(n, beta) if n >= start else 0.0 for n in range(seq.depth)]
    )
    members, offsets = _level_arrays(seq)
    with np.errstate(over="ignore"):  # _finite names beta instead
        value = float(kernels.chain_sum(dist, members, offsets, weights))
    return _finite(value, beta)


def build_admissible_greedy(space, metric_id, beta) -> AdmissibleSequence:
    """Farthest-point-seeded sequence; each level is a prefix of the ordering.

    The point choice is metric-driven only; ``beta`` does not affect the
    levels, just how they are later weighted.
    """
    if beta <= 0:
        raise DomainError("beta must be positive")
    dist = space.distance_matrix(metric_id)
    order = kernels.farthest_point_order(dist)
    levels = []
    n = 0
    while True:
        take = min(level_cap(n), space.size)
        levels.append(tuple(int(i) for i in order[:take]))
        if take == space.size:
            break
        n += 1
    return AdmissibleSequence(space.size, tuple(levels))


def gamma_exhaustive(space, metric_id, beta) -> float:
    """Exact infimum over admissible sequences for spaces with <= 16 points.

    With at most 16 points the level-2 cap already allows the whole set,
    so all terms beyond level 1 vanish and the infimum reduces to the best
    root point plus the best level-1 subset of size min(4, |T|); later
    levels only shrink the sum, so the maximal subset size is optimal.
    """
    if beta <= 0:
        raise DomainError("beta must be positive")
    if space.size > EXHAUSTIVE_LIMIT:
        raise CapacityError(
            f"exhaustive search limited to {EXHAUSTIVE_LIMIT} points, "
            f"got {space.size}; use build_admissible_greedy"
        )
    if space.size == 1:
        return 0.0
    dist = space.distance_matrix(metric_id)
    k = min(4, space.size)
    subs = np.array(list(itertools.combinations(range(space.size), k)), dtype=np.int64)
    w1 = _weight(1, beta)
    with np.errstate(over="ignore"):  # _finite names beta instead
        value = float(kernels.gamma2_scan(dist, subs, w1))
    return _finite(value, beta)


# ---------------------------------------------------------------------------
# covering numbers and the entropy integral
# ---------------------------------------------------------------------------


def _ball_masks(dist: np.ndarray, u: float):
    within = dist <= u
    n = dist.shape[0]
    masks = []
    for c in range(n):
        m = 0
        for t in range(n):
            if within[c, t]:
                m |= 1 << t
        masks.append(m)
    return masks


def _exact_cover_count(dist: np.ndarray, u: float, best: int) -> int:
    """Minimum u-ball cover by branch and bound, seeded with a cover of ``best``
    balls."""
    n = dist.shape[0]
    full = (1 << n) - 1
    masks = _ball_masks(dist, u)
    order = sorted(range(n), key=lambda c: -bin(masks[c]).count("1"))
    degree = (dist <= u).sum(axis=0).tolist()  # balls holding each point

    def descend(covered: int, used: int):
        nonlocal best
        if covered == full:
            best = min(best, used)
            return
        if used + 1 >= best:
            return
        # branch on the uncovered point with the fewest candidate balls
        rest = full & ~covered
        point = min((t for t in range(n) if rest >> t & 1), key=degree.__getitem__)
        for c in order:
            if masks[c] >> point & 1:
                descend(covered | masks[c], used + 1)

    descend(0, 0)
    return best


def _covering_counts(dist: np.ndarray, radii) -> tuple:
    """N(u) at each radius: one greedy call over every radius, then, up to
    EXACT_COVER_LIMIT points, branch and bound wherever greedy used more
    than 2 balls.  Greedy's 1 is optimal, and its 2 is too: greedy counts 1
    at every radius where one ball covers the space."""
    counts = kernels.greedy_cover(dist, radii).tolist()
    if dist.shape[0] <= EXACT_COVER_LIMIT:
        counts = [
            _exact_cover_count(dist, u, c) if c > 2 else c for u, c in zip(radii, counts)
        ]
    return tuple(counts)


def covering_number(space, metric_id, u: float) -> int:
    """Minimum number of closed u-balls centered in T that cover T.

    Exact (branch and bound seeded by greedy) up to
    :data:`EXACT_COVER_LIMIT` points; the greedy upper bound beyond that.
    The count equals the covering curve's at u.  A radius that is not > 0,
    NaN included, raises :class:`DomainError`.
    """
    if not u > 0:
        raise DomainError("radius must be positive")
    return _covering_counts(space.distance_matrix(metric_id), [u])[0]


@dataclass(frozen=True)
class CoveringCurve:
    """N(u) at u = 0 and at every distinct positive distance, ascending."""

    radii: np.ndarray
    counts: tuple

    def dudley_integral(self) -> float:
        """Entropy integral of sqrt(log N(u)) over (0, diameter].

        N(u) is piecewise constant between consecutive radii, so the step
        sum below is the exact value of the integral for the counts held.
        """
        total = 0.0
        for k in range(len(self.radii) - 1):
            step = self.radii[k + 1] - self.radii[k]
            total += math.sqrt(math.log(self.counts[k])) * step
        return total

    def to_csv(self) -> str:
        return csv_text("u,covering_number", self.radii[1:], self.counts[1:])


def covering_curve(space, metric_id) -> CoveringCurve:
    """Covering numbers at u = 0 and at every distinct positive distance,
    where N(u) can change.

    One ``kernels.greedy_cover`` call counts every radius in lockstep; up to
    :data:`EXACT_COVER_LIMIT` points each count above 2 is then made exact,
    as in :func:`covering_number`.
    """
    dist = space.distance_matrix(metric_id)
    radii = np.concatenate(([0.0], np.unique(dist[dist > 0])))
    return CoveringCurve(radii, _covering_counts(dist, radii))


def dudley_integral(space, metric_id) -> float:
    """Entropy integral of sqrt(log N(u)) over (0, diameter]."""
    return covering_curve(space, metric_id).dudley_integral()


# ---------------------------------------------------------------------------
# partition sequences
# ---------------------------------------------------------------------------


def _canonical_partition(cells):
    canon = tuple(sorted((tuple(sorted(c)) for c in cells), key=lambda c: c[0]))
    return canon


@dataclass(frozen=True)
class PartitionSequence:
    """Increasingly fine partitions with the doubly-exponential cap.

    Level 0 is required to be the trivial one-cell partition; that is what
    lets intersected sequences stay admissible after the level shift.
    """

    size: int
    levels: tuple

    def __post_init__(self):
        levels = tuple(_canonical_partition(lev) for lev in self.levels)
        object.__setattr__(self, "levels", levels)
        if not levels:
            raise ValidationError("partition sequence needs at least one level")
        ground = tuple(range(self.size))
        for i, lev in enumerate(levels):
            flat = tuple(sorted(p for cell in lev for p in cell))
            if flat != ground:
                raise ValidationError(f"level {i} is not a partition of the ground set")
            if len(lev) > level_cap(i):
                raise ValidationError(
                    f"level {i} has {len(lev)} cells, cap is {level_cap(i)}"
                )
        for i in range(1, len(levels)):
            parents = {}
            for ci, cell in enumerate(levels[i - 1]):
                for p in cell:
                    parents[p] = ci
            for cell in levels[i]:
                if len({parents[p] for p in cell}) != 1:
                    raise ValidationError(f"level {i} does not refine level {i - 1}")

    @property
    def depth(self) -> int:
        return len(self.levels)

    def level_at(self, i: int):
        """Level i with clamping: negative levels give the root, indices past
        the stored depth give the finest stored partition."""
        i = min(max(i, 0), self.depth - 1)
        return self.levels[i]

    def cell_of(self, i: int, point: int):
        for cell in self.level_at(i):
            if point in cell:
                return cell
        raise ValidationError(f"point {point} missing from level {i}")


def intersect_partitions(parts) -> PartitionSequence:
    """Common refinement across sequences, shifted so the result stays admissible.

    Level i of the result collects the nonempty intersections of the input
    cells at level i - ceil(log2 m); the shift absorbs the cell-count blowup
    of crossing m partitions.
    """
    parts = list(parts)
    if not parts:
        raise ValidationError("need at least one partition sequence")
    size = parts[0].size
    if any(p.size != size for p in parts):
        raise ValidationError("partition sequences cover different ground sets")
    m = len(parts)
    shift = math.ceil(math.log2(m)) if m > 1 else 0
    depth = max(p.depth for p in parts) + shift
    out_levels = []
    for i in range(depth):
        labels = {}
        for point in range(size):
            key = tuple(p.cell_of(i - shift, point) for p in parts)
            labels.setdefault(key, []).append(point)
        out_levels.append(tuple(tuple(cell) for cell in labels.values()))
    return PartitionSequence(size, tuple(out_levels))


def gamma_prime_value(space, metric_id, n, parts: PartitionSequence) -> float:
    """sup_t sum_i 2^(i/n) diam(cell containing t at level i)."""
    if n <= 0:
        raise DomainError("exponent must be positive")
    if parts.size != space.size:
        raise ValidationError("partition sequence does not match the space")
    dist = space.distance_matrix(metric_id)
    per_point = np.zeros(space.size)
    for i, lev in enumerate(parts.levels):
        w = 2.0 ** (i / n)
        for cell in lev:
            sel = np.array(cell, dtype=np.int64)
            diam = float(dist[np.ix_(sel, sel)].max()) if len(cell) > 1 else 0.0
            per_point[sel] += w * diam
    return float(per_point.max())
