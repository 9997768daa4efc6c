import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tensorchain import chaining, kernels
from tensorchain import rng as trng
from tensorchain.chaining import (
    EXACT_COVER_LIMIT,
    AdmissibleSequence,
    FiniteMetricSpace,
    PartitionSequence,
    build_admissible_greedy,
    covering_curve,
    covering_number,
    diameter,
    dudley_integral,
    gamma_exhaustive,
    gamma_prime_value,
    gamma_truncated_value,
    gamma_value,
    intersect_partitions,
    level_cap,
)
from tensorchain.empirical import diagonal_family, family_space
from tensorchain.errors import CapacityError, DomainError, ValidationError
from tensorchain.processes import ProcessSpec, _increment_metric, process_space
from tensorchain.tensor import random_hermitian, root_sum_squares

LINE = FiniteMetricSpace.from_points([[0.0], [1.0], [3.0]])
TWO = FiniteMetricSpace.from_points([[0.0], [5.0]])
SINGLE = FiniteMetricSpace(1, {"euclidean": np.zeros((1, 1))})


def random_space(seed, max_points=16, dim=2):
    gen = trng.stream(seed, 0)
    n = int(gen.integers(2, max_points + 1))
    pts = gen.uniform(-1.0, 1.0, (n, dim))
    return FiniteMetricSpace.from_points(pts)


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def brute_cover(dist, u):
    """Minimum ball cover by scanning all center subsets (tiny n only)."""
    n = dist.shape[0]
    within = dist <= u
    for k in range(1, n + 1):
        for centers in itertools.combinations(range(n), k):
            if np.all(within[list(centers), :].any(axis=0)):
                return k
    return n


def eval_sequence(dist, levels, beta, start=0):
    """Direct evaluation of the weighted chaining sum."""
    worst = 0.0
    for t in range(dist.shape[0]):
        total = 0.0
        for n, lev in enumerate(levels):
            if n < start:
                continue
            total += 2.0 ** (n / beta) * min(dist[t, s] for s in lev)
        worst = max(worst, total)
    return worst


def tiny_gamma_oracle(dist, beta):
    """Full enumeration over all admissible sequences for n <= 5.

    With n <= 5 <= 16 the level-2 cap covers the set, so every admissible
    value is realized by some (T_0, T_1) with |T_1| <= 4 and T_2 = T; this
    oracle additionally enumerates T_1 of *every* size.
    """
    n = dist.shape[0]
    if n == 1:
        return 0.0
    best = math.inf
    points = range(n)
    for t0 in points:
        for k in range(1, min(4, n) + 1):
            for t1 in itertools.combinations(points, k):
                value = eval_sequence(dist, [(t0,), t1, tuple(points)], beta)
                best = min(best, value)
    return best


# ---------------------------------------------------------------------------
# metric space validation
# ---------------------------------------------------------------------------


def test_space_requires_triangle_inequality():
    bad = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    with pytest.raises(ValidationError):
        FiniteMetricSpace(3, {"d": bad})


def test_triangle_tolerance_scales_with_the_largest_distance():
    line = np.array([0.0, 0.5, 1.0])
    exact = np.abs(line[:, None] - line[None, :])

    def violated(by):
        d = exact.copy()
        d[0, 2] = d[2, 0] = 1.0 + by
        return d

    # violations below 1e-9 of the largest distance pass: 5e-3 at scale 1e7
    FiniteMetricSpace(3, {"d": 1e7 * violated(5e-10)})
    # at scale 1 the tolerance stays 1e-9, and a relative 1e-6 always fails
    for bad in (violated(1.5e-9), 1e7 * violated(1e-6)):
        with pytest.raises(ValidationError, match="triangle"):
            FiniteMetricSpace(3, {"d": bad})


def test_space_requires_symmetry_and_zero_diagonal():
    asym = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ValidationError):
        FiniteMetricSpace(2, {"d": asym})
    diag = np.array([[0.5, 1.0], [1.0, 0.0]])
    with pytest.raises(ValidationError):
        FiniteMetricSpace(2, {"d": diag})


def test_space_stores_an_accepted_near_zero_diagonal_as_zero():
    # a point outside its own ball at u = 0 could never be covered
    exact = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    near = exact.copy()
    near[0, 0] = 1e-13
    space = FiniteMetricSpace(3, {"d": near})
    assert np.array_equal(space.distance_matrix("d"), exact)
    assert near[0, 0] == 1e-13  # the caller's array is not changed
    curve = covering_curve(space, "d")
    assert curve.counts == covering_curve(FiniteMetricSpace(3, {"d": exact}), "d").counts


# ---------------------------------------------------------------------------
# the rounding certificate of the triangle check
# ---------------------------------------------------------------------------


@pytest.fixture
def triangle_checks(monkeypatch):
    """The point count of every kernels.max_triangle_violation call."""
    sizes = []
    check = kernels.max_triangle_violation

    def counted(dist):
        sizes.append(dist.shape[0])
        return check(dist)

    monkeypatch.setattr(kernels, "max_triangle_violation", counted)
    return sizes


def make_spec(coefficients, seed=3, metric_scale=2.0):
    """A process over 2x2 row modes, one basis term per coefficient column."""
    basis = tuple(
        random_hermitian((2, 2), trng.stream(seed, j)) for j in range(coefficients.shape[1])
    )
    return ProcessSpec("gaussian_linear", coefficients, basis, 2.0, metric_scale)


def test_built_metrics_skip_the_triangle_scan(triangle_checks):
    gen = trng.stream(5, 0)
    FiniteMetricSpace.from_points(gen.uniform(0.0, 1.0, (1000, 2)))
    process_space(make_spec(gen.uniform(-1.0, 1.0, (400, 4))))
    assert triangle_checks == []


def test_other_metrics_keep_the_triangle_scan(triangle_checks):
    FiniteMetricSpace(3, {"d": LINE.distance_matrix("euclidean")})
    assert triangle_checks == [3]
    family_space(diagonal_family((2,), 5, 3, 1))
    assert triangle_checks == [3, 5, 5]


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_the_certificate_declines_far_from_unit_scale(triangle_checks, scale):
    # distances outside _FRO_RANGE come from the rescaled path of
    # root_sum_squares, which the certificate does not model
    pts = scale * trng.stream(6, 0).uniform(-1.0, 1.0, (12, 3))
    dist = chaining.euclidean_distances(pts)
    assert chaining._certify(dist, 3).bound == math.inf
    space = FiniteMetricSpace.from_points(pts)
    assert triangle_checks == [12]  # the check ran, and accepted as it decides
    assert kernels.max_triangle_violation(dist) <= chaining._TRIANGLE_TOL * dist.max()
    assert np.array_equal(space.distance_matrix("euclidean"), dist)


def one_pass_distances(pts):
    with np.errstate(over="ignore", invalid="ignore"):
        return root_sum_squares(pts[:, None, :] - pts[None, :, :], 1)


# 64 entries hold one row of 40 x 2 or less, 1 entry one row of any
@pytest.mark.parametrize("chunk_entries", [1 << 22, 64, 1])
@pytest.mark.parametrize(
    "n, dim, scale", [(40, 2, 1.0), (30, 5, 1e200), (30, 3, 1e-200), (25, 1, 1.0), (4, 1, None)]
)
def test_distances_in_row_blocks_equal_one_pass(n, dim, scale, chunk_entries, monkeypatch):
    monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", chunk_entries)
    if scale is None:  # one difference overflows to inf, one squares past the range
        pts = np.array([[1e308], [-1e308], [0.0], [5.0]])
    else:
        pts = scale * trng.stream(7, 0).uniform(-1.0, 1.0, (n, dim))
    want = one_pass_distances(pts)
    got = chaining.euclidean_distances(pts)
    assert got.dtype == want.dtype and np.array_equal(got.view(np.int64), want.view(np.int64))


def test_the_certificate_declines_a_scale_that_leaves_the_normal_range(triangle_checks):
    # 1e-306 * 1e-3: scaled distances below the least normal float
    spec = make_spec(1e-3 * np.eye(6, 4), metric_scale=1e-306)
    assert _increment_metric(spec).bound == math.inf
    process_space(spec)
    assert triangle_checks == [6]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(2, 12),
    dim=st.integers(1, 8),
    exponent=st.integers(-100, 100),
    shape=st.sampled_from(["scattered", "collinear", "duplicates"]),
)
def test_certificate_bounds_the_computed_violation(seed, n, dim, exponent, shape):
    gen = trng.stream(seed, 0)
    pts = gen.uniform(-1.0, 1.0, (n, dim))
    if shape == "collinear":
        pts = pts[:1] + gen.uniform(-1.0, 1.0, (n, 1)) * pts[1:2]
    elif shape == "duplicates":
        pts = pts[gen.integers(0, n // 2, n)]
    pts = 10.0**exponent * pts
    euclid = chaining._certify(chaining.euclidean_distances(pts), dim)
    process = _increment_metric(make_spec(pts, seed))
    for metric in (euclid, process):
        assert math.isfinite(metric.bound)
        assert kernels.max_triangle_violation(metric.matrix) <= metric.bound
        limit = chaining._TRIANGLE_TOL * max(1.0, metric.matrix.max())
        assert metric.bound <= limit  # so the skipped check would have accepted


def test_unknown_metric_id():
    with pytest.raises(KeyError):
        diameter(LINE, "nope")


def test_diameter_cases():
    assert diameter(SINGLE, "euclidean") == 0.0
    assert diameter(TWO, "euclidean") == 5.0
    assert diameter(LINE, "euclidean") == 3.0


# ---------------------------------------------------------------------------
# admissible sequences and gamma evaluation
# ---------------------------------------------------------------------------


def test_sequence_validation():
    with pytest.raises(ValidationError):
        AdmissibleSequence(3, ((0, 1), (0, 1, 2)))  # root too large
    with pytest.raises(ValidationError):
        AdmissibleSequence(3, ((0,), (0, 1)))  # last level not full
    with pytest.raises(ValidationError):
        AdmissibleSequence(3, ((0,), (0, 1, 2, 3)))  # out of range
    seq = AdmissibleSequence(3, ((1,), (0, 1, 2)))
    assert seq.depth == 2


def test_level_caps():
    assert [level_cap(n) for n in range(4)] == [1, 4, 16, 256]


def test_gamma_singleton_is_zero():
    seq = AdmissibleSequence(1, ((0,),))
    for beta in (0.5, 1.0, 2.0, 3.0):
        assert gamma_value(SINGLE, "euclidean", beta, seq) == 0.0


def test_gamma_two_points_full_level_one():
    seq = AdmissibleSequence(2, ((0,), (0, 1)))
    for beta in (1.0, 2.0, 4.0):
        assert gamma_value(TWO, "euclidean", beta, seq) == pytest.approx(5.0)


def test_gamma_line_optimum_is_radius():
    assert gamma_exhaustive(LINE, "euclidean", 2.0) == pytest.approx(2.0)
    assert gamma_exhaustive(LINE, "euclidean", 1.0) == pytest.approx(2.0)


def test_gamma_value_matches_direct_evaluation():
    space = random_space(100, max_points=10)
    seq = build_admissible_greedy(space, "euclidean", 2.0)
    dist = space.distance_matrix("euclidean")
    assert gamma_value(space, "euclidean", 2.0, seq) == pytest.approx(
        eval_sequence(dist, seq.levels, 2.0), rel=1e-12
    )


def test_gamma_rejects_mismatched_sequence():
    seq = AdmissibleSequence(2, ((0,), (0, 1)))
    with pytest.raises(ValidationError):
        gamma_value(LINE, "euclidean", 2.0, seq)


def test_truncated_level_one_case():
    seq = AdmissibleSequence(3, ((1,), (0, 2), (0, 1, 2)))
    got = gamma_truncated_value(LINE, "euclidean", 2.0, 2.0, seq)
    assert got == pytest.approx(math.sqrt(2.0))


def test_truncated_p_in_unit_interval_equals_gamma_exactly():
    space = random_space(101)
    seq = build_admissible_greedy(space, "euclidean", 2.0)
    full = gamma_value(space, "euclidean", 2.0, seq)
    for p in (1.0, 1.5, 1.999):
        assert gamma_truncated_value(space, "euclidean", 2.0, p, seq) == full


def test_truncated_vanishes_when_start_level_is_full():
    seq = AdmissibleSequence(3, ((1,), (0, 1, 2)))
    assert gamma_truncated_value(LINE, "euclidean", 2.0, 8.0, seq) == 0.0


def test_truncated_monotone_in_p_and_below_gamma():
    space = random_space(102)
    seq = build_admissible_greedy(space, "euclidean", 2.0)
    full = gamma_value(space, "euclidean", 2.0, seq)
    values = [
        gamma_truncated_value(space, "euclidean", 2.0, p, seq)
        for p in (1.0, 2.0, 4.0, 8.0)
    ]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert all(v <= full + 1e-12 for v in values)


def test_truncated_rejects_small_p():
    seq = AdmissibleSequence(3, ((1,), (0, 1, 2)))
    with pytest.raises(DomainError):
        gamma_truncated_value(LINE, "euclidean", 2.0, 0.5, seq)


FIVE = FiniteMetricSpace.from_points([[0.0], [1.0], [3.0], [4.0], [7.0]])
FAR = FiniteMetricSpace(5, {"euclidean": 1e300 * FIVE.distance_matrix("euclidean")})


# the overflow is reported once, as the DomainError, without a numpy warning
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "space, beta, evaluate",
    [
        (FIVE, 0.001, "greedy"),  # the level-2 weight 2^2000
        (FIVE, 0.0009, "exhaustive"),  # the level-1 weight 2^1111
        (FAR, 0.01, "greedy"),  # finite weights, an infinite value
        (FAR, 0.01, "exhaustive"),
    ],
)
def test_overflowing_chaining_sum_names_beta(space, beta, evaluate):
    with pytest.raises(DomainError, match="beta"):
        if evaluate == "greedy":
            seq = build_admissible_greedy(space, "euclidean", beta)
            gamma_value(space, "euclidean", beta, seq)
        else:
            gamma_exhaustive(space, "euclidean", beta)


# ---------------------------------------------------------------------------
# greedy construction and the exhaustive oracle
# ---------------------------------------------------------------------------


def test_greedy_singleton():
    seq = build_admissible_greedy(SINGLE, "euclidean", 2.0)
    assert seq.levels == ((0,),)


def test_greedy_dominates_exhaustive_small_spaces():
    for seed in range(10):
        space = random_space(200 + seed)
        greedy = gamma_value(
            space, "euclidean", 2.0, build_admissible_greedy(space, "euclidean", 2.0)
        )
        exact = gamma_exhaustive(space, "euclidean", 2.0)
        assert greedy >= exact - 1e-12
        assert greedy <= 2.0 * exact + 1e-12


def test_greedy_terminates_on_uniform_grid():
    side = np.arange(8.0)
    pts = np.array([[x, y] for x in side for y in side])
    space = FiniteMetricSpace.from_points(pts)
    seq = build_admissible_greedy(space, "euclidean", 2.0)
    assert len(seq.levels[-1]) == 64
    assert seq.depth - 1 <= 4


def test_exhaustive_two_points():
    assert gamma_exhaustive(TWO, "euclidean", 2.0) == pytest.approx(5.0)


def test_exhaustive_singleton():
    assert gamma_exhaustive(SINGLE, "euclidean", 2.0) == 0.0


def test_exhaustive_matches_tiny_full_enumeration():
    for seed in range(6):
        gen = trng.stream(300 + seed, 0)
        n = int(gen.integers(2, 6))
        pts = gen.uniform(-1, 1, (n, 2))
        space = FiniteMetricSpace.from_points(pts)
        dist = space.distance_matrix("euclidean")
        for beta in (1.0, 2.0):
            assert gamma_exhaustive(space, "euclidean", beta) == pytest.approx(
                tiny_gamma_oracle(dist, beta), rel=1e-12
            )


def test_exhaustive_capacity_limit():
    gen = trng.stream(8, 0)
    space = FiniteMetricSpace.from_points(gen.uniform(-1, 1, (17, 2)))
    with pytest.raises(CapacityError):
        gamma_exhaustive(space, "euclidean", 2.0)


# ---------------------------------------------------------------------------
# covering numbers and the entropy integral
# ---------------------------------------------------------------------------


def test_covering_radius_beyond_diameter():
    assert covering_number(LINE, "euclidean", 3.0) == 1
    assert covering_number(LINE, "euclidean", 100.0) == 1


def test_covering_tiny_radius_counts_points():
    assert covering_number(LINE, "euclidean", 0.5) == 3


def test_covering_line_at_unit_radius():
    assert covering_number(LINE, "euclidean", 1.0) == 2


def test_covering_matches_brute_force():
    for seed in range(8):
        gen = trng.stream(400 + seed, 0)
        n = int(gen.integers(2, 8))
        pts = gen.uniform(-1, 1, (n, 2))
        space = FiniteMetricSpace.from_points(pts)
        dist = space.distance_matrix("euclidean")
        for u in np.unique(dist[dist > 0]):
            assert covering_number(space, "euclidean", float(u)) == brute_cover(
                dist, float(u)
            )


def test_covering_nonincreasing_in_radius():
    space = random_space(500, max_points=12)
    dist = space.distance_matrix("euclidean")
    radii = np.unique(dist[dist > 0])
    counts = [covering_number(space, "euclidean", float(u)) for u in radii]
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_covering_rejects_nonpositive_radius():
    # NaN passes a `u <= 0` check, and no point lies in a ball of radius NaN
    for u in (0.0, -1.0, float("nan"), -math.inf):
        with pytest.raises(DomainError):
            covering_number(LINE, "euclidean", u)


@pytest.mark.parametrize("size", [12, EXACT_COVER_LIMIT, 30])
def test_covering_number_equals_the_curve_count(size):
    pts = trng.stream(610 + size, 0).uniform(-1, 1, (size, 2))
    pts[-1] = pts[0]
    space = FiniteMetricSpace.from_points(pts)
    curve = covering_curve(space, "euclidean")
    for u, count in zip(curve.radii[1:], curve.counts[1:]):
        assert covering_number(space, "euclidean", float(u)) == count


def test_covering_curve_is_exact_where_greedy_is_not():
    # seed 900 draws 9 points on which greedy is above the optimum at 5 radii
    for seed in range(900, 904):
        gen = trng.stream(seed, 0)
        n = int(gen.integers(6, 11))
        space = FiniteMetricSpace.from_points(gen.uniform(-1, 1, (n, 2)))
        dist = space.distance_matrix("euclidean")
        curve = covering_curve(space, "euclidean")
        assert list(curve.counts) == [brute_cover(dist, u) for u in curve.radii]
        if seed == 900:
            greedy = kernels.greedy_cover(dist, curve.radii)
            assert (greedy > np.array(curve.counts)).sum() == 5


def test_dudley_singleton_zero():
    assert dudley_integral(SINGLE, "euclidean") == 0.0


def test_dudley_two_points_closed_form():
    assert dudley_integral(TWO, "euclidean") == pytest.approx(
        5.0 * math.sqrt(math.log(2.0))
    )


def test_dudley_matches_segment_quadrature():
    # oracle: exact step integral with brute-force counts at segment midpoints
    for seed in range(5):
        gen = trng.stream(600 + seed, 0)
        n = int(gen.integers(2, 7))
        pts = gen.uniform(-1, 1, (n, 2))
        space = FiniteMetricSpace.from_points(pts)
        dist = space.distance_matrix("euclidean")
        cuts = np.concatenate(([0.0], np.unique(dist[dist > 0])))
        oracle = 0.0
        for a, b in zip(cuts[:-1], cuts[1:]):
            mid = (a + b) / 2.0
            oracle += math.sqrt(math.log(brute_cover(dist, mid))) * (b - a)
        assert dudley_integral(space, "euclidean") == pytest.approx(oracle, abs=1e-6)


def test_dudley_invariant_under_relabeling():
    gen = trng.stream(601, 0)
    pts = gen.uniform(-1, 1, (7, 2))
    space = FiniteMetricSpace.from_points(pts)
    perm = gen.permutation(7)
    space_p = FiniteMetricSpace.from_points(pts[perm])
    assert dudley_integral(space, "euclidean") == pytest.approx(
        dudley_integral(space_p, "euclidean"), rel=1e-12
    )


# ---------------------------------------------------------------------------
# scaling invariants
# ---------------------------------------------------------------------------


@given(st.floats(0.1, 10.0), st.integers(0, 2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_scaling_the_metric_scales_functionals(c, seed):
    space = random_space(seed, max_points=8)
    scaled = FiniteMetricSpace(space.size, {"euclidean": c * space.distance_matrix("euclidean")})
    seq = build_admissible_greedy(space, "euclidean", 2.0)
    assert diameter(scaled, "euclidean") == pytest.approx(
        c * diameter(space, "euclidean"), rel=1e-12
    )
    assert gamma_value(scaled, "euclidean", 2.0, seq) == pytest.approx(
        c * gamma_value(space, "euclidean", 2.0, seq), rel=1e-12
    )
    assert gamma_truncated_value(scaled, "euclidean", 2.0, 2.0, seq) == pytest.approx(
        c * gamma_truncated_value(space, "euclidean", 2.0, 2.0, seq), rel=1e-12
    )
    assert dudley_integral(scaled, "euclidean") == pytest.approx(
        c * dudley_integral(space, "euclidean"), rel=1e-12
    )
    dist = space.distance_matrix("euclidean")
    u = float(np.median(dist[dist > 0]))
    assert covering_number(scaled, "euclidean", c * u) == covering_number(
        space, "euclidean", u
    )


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------


def trivial_sequence(n, depth):
    ground = tuple(range(n))
    return PartitionSequence(n, tuple((ground,) for _ in range(depth)))


def test_partition_validation():
    with pytest.raises(ValidationError):
        PartitionSequence(3, (((0, 1), (2,)),))  # level 0 must be trivial
    with pytest.raises(ValidationError):
        PartitionSequence(3, (((0, 1, 2),), ((0,), (1,)),))  # not a partition
    with pytest.raises(ValidationError):
        # refinement violated: {0,1},{2} then {0},{1,2}
        PartitionSequence(
            3, (((0, 1, 2),), ((0, 1), (2,)), ((0,), (1, 2)))
        )


def test_intersect_single_input_unchanged():
    p = PartitionSequence(4, (((0, 1, 2, 3),), ((0, 1), (2, 3))))
    out = intersect_partitions([p])
    assert out.levels == p.levels


def test_intersect_trivial_inputs_stay_trivial():
    a = trivial_sequence(4, 3)
    b = trivial_sequence(4, 3)
    out = intersect_partitions([a, b])
    assert all(len(lev) == 1 for lev in out.levels)


def test_intersect_crossing_two_partitions():
    a = PartitionSequence(4, (((0, 1, 2, 3),), ((0, 1), (2, 3))))
    b = PartitionSequence(4, (((0, 1, 2, 3),), ((0, 2), (1, 3))))
    out = intersect_partitions([a, b])
    # shift is 1, so level 2 crosses the two 2-cell partitions: 4 cells <= 2^(2^2)
    assert len(out.levels[0]) == 1
    assert len(out.levels[2]) == 4
    for i, lev in enumerate(out.levels):
        assert len(lev) <= level_cap(i)


def test_intersect_rejects_mismatched_ground_sets():
    with pytest.raises(ValidationError):
        intersect_partitions([trivial_sequence(3, 2), trivial_sequence(4, 2)])


def test_gamma_prime_all_singletons_zero():
    parts = PartitionSequence(
        3, (((0, 1, 2),), ((0,), (1,), (2,)))
    )
    # only the root level has positive diameter
    assert gamma_prime_value(LINE, "euclidean", 2, parts) == pytest.approx(3.0)
    singletons_only = PartitionSequence(1, (((0,),),))
    assert gamma_prime_value(SINGLE, "euclidean", 2, singletons_only) == 0.0


def test_gamma_prime_root_then_singletons_gives_diameter():
    parts = PartitionSequence(3, (((0, 1, 2),), ((0,), (1,), (2,))))
    assert gamma_prime_value(LINE, "euclidean", 1, parts) == pytest.approx(
        diameter(LINE, "euclidean")
    )


def test_gamma_prime_two_level_hand_sum():
    # line {0,1,3}: root diam 3, then cells {0,1} (diam 1) and {3} (diam 0),
    # then singletons; with n=2 the worst point carries 3 + sqrt(2) * 1
    parts = PartitionSequence(
        3, (((0, 1, 2),), ((0, 1), (2,)), ((0,), (1,), (2,)))
    )
    want = 3.0 + math.sqrt(2.0) * 1.0
    assert gamma_prime_value(LINE, "euclidean", 2, parts) == pytest.approx(want)

    # direct-sum oracle over every point
    dist = LINE.distance_matrix("euclidean")
    per_point = []
    for t in range(3):
        total = 0.0
        for i, lev in enumerate(parts.levels):
            cell = next(c for c in lev if t in c)
            diam = max(
                (dist[a, b] for a in cell for b in cell), default=0.0
            )
            total += 2.0 ** (i / 2.0) * diam
        per_point.append(total)
    assert gamma_prime_value(LINE, "euclidean", 2, parts) == pytest.approx(
        max(per_point), rel=1e-12
    )
