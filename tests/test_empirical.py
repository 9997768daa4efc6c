import math
import tracemalloc

import numpy as np
import pytest

from tensorchain import kernels, rng as trng
from tensorchain.bounds import ConstantSet, empirical_sup_tail_bound
from tensorchain.empirical import (
    EmpiricalFamily,
    check_bernstein_condition,
    diagonal_family,
    empirical_sup_moment_bound,
    family_space,
    sample_family_sups,
    verify_empirical_bound,
)
from tensorchain.errors import DomainError, ValidationError
from golden.oracles import block_norms, per_pair_family_space
from test_kernels import assert_no_child_left, count_forks, family_sups_oracle


# ---------------------------------------------------------------------------
# family construction
# ---------------------------------------------------------------------------


def test_family_requires_hermitian_parameters():
    # a diagonal tensor is Hermitian when its diagonal is real: complex
    # diagonals are refused, not cut to their real parts, even where every
    # imaginary part is zero
    diags = np.zeros((2, 2, 2), complex)
    for imag in (1.0, 0.0):
        diags[0, 0, 1] = 1.0 + imag * 1j
        with pytest.raises(ValidationError, match="real"):
            EmpiricalFamily((2,), diags)


def test_family_shape_checks():
    # the wrong D, the wrong rank, and no tuple or no space
    for shape in [(2, 2, 3), (2, 2), (2, 2, 2, 2), (0, 2, 2), (2, 0, 2)]:
        with pytest.raises(ValidationError, match="shape"):
            EmpiricalFamily((2,), np.zeros(shape))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_family_refuses_non_finite_diagonals(bad):
    diags = np.zeros((2, 3, 2))
    diags[1, 2, 0] = bad
    with pytest.raises(ValidationError, match="finite"):
        EmpiricalFamily((2,), diags)


def test_family_refuses_an_unknown_noise_law():
    with pytest.raises(ValidationError, match="noise"):
        EmpiricalFamily((2,), np.zeros((2, 2, 2)), noise="cauchy")


def test_family_stores_a_read_only_copy():
    # a caller that changes its own array afterwards changes nothing
    given = trng.stream(3, 0).uniform(-1.0, 1.0, (4, 3, 2))
    fam, same = EmpiricalFamily((2,), given), EmpiricalFamily((2,), given.copy())
    given[:] = 7.0
    assert fam.diagonals.tobytes() == same.diagonals.tobytes()
    assert (fam.upsilon, fam.sigma) == (same.upsilon, same.sigma)
    assert sample_family_sups(fam, 4, 50).tobytes() == sample_family_sups(same, 4, 50).tobytes()
    assert not fam.diagonals.flags.writeable
    with pytest.raises(ValueError):
        fam.diagonals[0, 0, 0] = 1.0


def test_family_scale_and_variance_proxy():
    fam = diagonal_family((2,), t_count=3, n=4, seed=1)
    # upsilon is the worst spectral norm; the default envelopes are flat
    norms = np.abs(fam.diagonals).max(axis=2)
    assert fam.upsilon == pytest.approx(float(norms.max()), rel=1e-12)
    per_space_tops = norms.max(axis=0)
    assert fam.sigma == pytest.approx(
        math.sqrt(float(np.mean(per_space_tops**2))), rel=1e-12
    )


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def metric_matrices(family):
    space = family_space(family)
    return space.distance_matrix("d1"), space.distance_matrix("d2")


def test_metrics_vanish_on_equal_parameters():
    fam = diagonal_family((2,), t_count=3, n=4, seed=2)
    diags = fam.diagonals.copy()
    diags[2] = diags[1]
    for d in metric_matrices(EmpiricalFamily((2,), diags)):
        assert d[1, 1] == d[1, 2] == d[2, 1] == 0.0
        assert (d[0, 1:] > 0).all()


def test_metrics_single_space_equal():
    fam = diagonal_family((2,), t_count=3, n=1, seed=3)
    d1, d2 = metric_matrices(fam)
    assert d1 == pytest.approx(d2, rel=1e-12)


def test_metric_quadratic_mean_below_max():
    fam = diagonal_family((2,), t_count=5, n=6, seed=4)
    d1, d2 = metric_matrices(fam)
    assert (d2 <= d1 + 1e-12).all()


def metric_family(t_count, n, scale, seed):
    return EmpiricalFamily((4,), scale * trng.stream(seed, 0).uniform(-1.0, 1.0, (t_count, n, 4)))


def max_diagonal_difference(family, s, t):
    """The block norms of a pair's parameter difference read in exact
    arithmetic: max |diagonal difference| per space."""
    return np.abs(family.diagonals[t] - family.diagonals[s]).max(axis=1)


def assert_equals_oracle(space, family, oracle, scale):
    """``space`` against the dense per-pair path bit for bit, or against
    ``max_diagonal_difference``: exact at scale 1, where eigvalsh returns a
    diagonal as it is, and within 4 ulps where zheevd scales the blocks."""
    norms = block_norms if oracle == "dense" else max_diagonal_difference
    want = per_pair_family_space(family, norms).metrics
    for name in ("d1", "d2"):
        got = space.distance_matrix(name)
        if oracle == "dense" or scale == 1.0:
            assert_same_bits(got, want[name])
        else:
            assert np.allclose(got, want[name], rtol=4 * np.finfo(float).eps, atol=0.0)


# n crosses numpy's pairwise-sum blocks of 8 and 128 in the row mean; at
# 1e+-150 zheevd scales the blocks, at 1e-170 their squared norms underflow;
# a budget of 0 forms one pair's differences per chunk.  Shared by two
# workers, whatever the work, a budget of 0 gives each slice one pair and
# 4096 gives slices that cross rows
@pytest.mark.parametrize(
    "chunk_entries, workers",
    [
        pytest.param(0, 1, id="0"),
        pytest.param(1 << 19, 1, id="524288"),
        pytest.param(0, 2, id="0-w2"),
        pytest.param(4096, 2, id="4096-w2"),
    ],
)
@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150, 1e-170])
@pytest.mark.parametrize("n", [1, 3, 8, 9, 17, 130])
@pytest.mark.parametrize("oracle", ["diagonal", "dense"])
def test_family_space_equals_the_per_pair_path(oracle, n, scale, chunk_entries, workers, monkeypatch):
    fam = metric_family(7, n, scale, 80 + n)
    monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", chunk_entries)
    monkeypatch.setattr(kernels, "_FORK_WORK", 0)
    monkeypatch.setattr(kernels, "_WORKERS", workers)
    forks = count_forks(monkeypatch)
    got = family_space(fam)
    assert (len(forks) > 0) == (workers > 1)
    assert_no_child_left()
    assert_equals_oracle(got, fam, oracle, scale)


# the squared norms of 1e170 overflow on every path, and d2 is taken in its
# range-safe form there: a quadratic mean within a few ulps of 1e170 times
# that at scale 1.  Shared by two workers, whatever the work, the pair
# (0, 1) is this process's share and the rest a child's: with only the last
# tuple at 1e170 only the child's pairs overflow
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("oracle", ["diagonal", "dense"])
def test_family_space_equals_the_per_pair_path_where_the_squares_overflow(oracle, monkeypatch):
    fam = metric_family(3, 4, 1e170, 90)
    last = EmpiricalFamily((4,), fam.diagonals * np.array([1e-170, 1e-170, 1.0])[:, None, None])
    unit = family_space(metric_family(3, 4, 1.0, 90)).distance_matrix("d2")
    monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", 0)
    monkeypatch.setattr(kernels, "_FORK_WORK", 0)
    forks = count_forks(monkeypatch)
    for family in (fam, last):
        for workers in (1, 2):
            monkeypatch.setattr(kernels, "_WORKERS", workers)
            got = family_space(family)
            assert_no_child_left()
            assert_equals_oracle(got, family, oracle, None)
    assert len(forks) == 2
    d2 = family_space(fam).distance_matrix("d2")
    assert np.isfinite(d2).all() and d2 == pytest.approx(1e170 * unit, rel=1e-14)


# at the default budget a fork pays only for large families: the empirical
# configs of mc-deep (t_count 32) and of clibench/tests/test_tracing.py
# (t_count 6, whose batch_spectral calls it counts in this process) stay in
# one process, index-wide's (t_count 200) is shared by one child
@pytest.mark.parametrize(
    "modes, t_count, n, forked", [((2, 2), 32, 8, 0), ((2, 2), 200, 8, 1), ((2,), 6, 3, 0)]
)
def test_family_space_forks_only_for_large_families(modes, t_count, n, forked, monkeypatch):
    monkeypatch.setattr(kernels, "_WORKERS", 2)
    fam = diagonal_family(modes, t_count=t_count, n=n, seed=1)
    forks = count_forks(monkeypatch)
    family_space(fam)
    assert len(forks) == forked
    assert_no_child_left()


def test_family_space_accepts_every_valid_family():
    # signed zeros, the least subnormal and halves of the largest finite
    # value, whose difference is that value: every distance is finite and
    # d1 is within 4 ulps of the largest |diagonal difference|
    top = np.finfo(float).max / 2
    diags = np.array([[[0.0, -0.0]], [[-0.0, 5e-324]], [[top, 0.0]], [[-top, 0.0]]])
    fam = EmpiricalFamily((2,), diags)
    d1 = family_space(fam).distance_matrix("d1")
    assert np.isfinite(d1).all() and d1[0, 1] == 5e-324
    want = per_pair_family_space(fam, max_diagonal_difference).distance_matrix("d1")
    assert np.allclose(d1, want, rtol=4 * np.finfo(float).eps, atol=0.0)


def test_family_stores_exactly_hermitian_parameters_bit_for_bit():
    # real diagonals are exactly Hermitian: the family keeps them as given,
    # signed zeros and subnormals too, and as float64 where given as integers
    fam = diagonal_family((2, 2), t_count=3, n=2, seed=6)
    assert fam.diagonals.tobytes() == trng.stream(6, 0).uniform(-1.0, 1.0, (3, 2, 4)).tobytes()
    given = np.array([[[-0.0, 0.0, 5e-324, -5e-324]]])
    for diags in (fam.diagonals, given):
        assert EmpiricalFamily((2, 2), diags).diagonals.tobytes() == diags.tobytes()
    ints = EmpiricalFamily((2,), np.arange(4).reshape(1, 2, 2)).diagonals
    assert ints.dtype == np.float64 and ints.tolist() == [[[0.0, 1.0], [2.0, 3.0]]]


def test_family_space_carries_both_metrics():
    fam = diagonal_family((2,), t_count=4, n=3, seed=5)
    space = family_space(fam)
    assert set(space.metrics) == {"d1", "d2"}
    assert space.size == 4


# ---------------------------------------------------------------------------
# bound formulas
# ---------------------------------------------------------------------------


def test_moment_bound_reduces_without_chaining_terms():
    got = empirical_sup_moment_bound(0.0, 0.0, 4, 2.0, 3.0, 1.0)
    assert got == pytest.approx(2.0 / 2.0 + 3.0 / 4.0)


def test_moment_bound_scaling_in_n():
    a = empirical_sup_moment_bound(1.0, 0.0, 4, 2.0, 0.0, 1.0)
    b = empirical_sup_moment_bound(1.0, 0.0, 16, 2.0, 0.0, 1.0)
    assert b == pytest.approx(a / 2.0)  # both surviving terms halve


def test_moment_bound_spot_value():
    got = empirical_sup_moment_bound(1.5, 0.5, 9, 2.0, 3.0, 4.0, const=2.0)
    want = 2.0 * (1.5 / 3.0 + 0.5 / 9.0 + 2.0 * 2.0 / 3.0 + 4.0 * 3.0 / 9.0)
    assert got == pytest.approx(want, rel=1e-12)


def test_tail_bound_formula():
    thr, pb = empirical_sup_tail_bound(1.0, 2.0, 4, 1.0, 3.0, 1.0, 2.0, 5.0)
    want = 2.0 * (1.0 / 2.0 + 2.0 / 4.0) + 5.0 * (1.0 / 2.0 + 3.0 / 4.0)
    assert thr == pytest.approx(want)
    assert pb == pytest.approx(math.exp(-1.0))
    thr, _ = empirical_sup_tail_bound(1.0, 1.0, 4, 0.0, 0.0, 9.0, 2.0, 5.0)
    assert thr == pytest.approx(2.0 * (0.5 + 0.25))  # constant in u
    with pytest.raises(DomainError):
        empirical_sup_tail_bound(1.0, 1.0, 4, 1.0, 1.0, 0.5, 1.0, 1.0)


# ---------------------------------------------------------------------------
# simulation and verification
# ---------------------------------------------------------------------------


def test_zero_parameters_give_zero_process():
    fam = EmpiricalFamily((2,), np.zeros((3, 4, 2)))
    sups = sample_family_sups(fam, seed=6, n_samples=10)
    assert np.all(sups == 0)
    for d in metric_matrices(fam):
        assert not d.any()


def test_sups_deterministic():
    fam = diagonal_family((2,), t_count=4, n=6, seed=7)
    a = sample_family_sups(fam, 8, 50)
    b = sample_family_sups(fam, 8, 50)
    assert np.array_equal(a, b)


def test_family_sups_memory_grows_by_the_weights_not_the_values():
    # 8 tuples of 4x4 values: 16 bytes of weights per sample over n = 2
    # spaces, 2048 bytes of values; both runs span more than one chunk
    fam = diagonal_family((2, 2), t_count=8, n=2, seed=11)
    sample_family_sups(fam, 12, 100)  # warm caches
    small, large = 10_000, 30_000
    peaks = []
    for samples in (small, large):
        tracemalloc.start()
        try:
            sample_family_sups(fam, 12, samples)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    weights = (large - small) * fam.n * 8
    assert peaks[1] - peaks[0] <= 4 * weights  # the values alone add 128 times


# ---------------------------------------------------------------------------
# suprema against the dense path, a full eigensolve of the complex blocks,
# bit for bit
# ---------------------------------------------------------------------------


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_diagonals_are_the_read_only_real_diagonals():
    fam = diagonal_family((2, 2), t_count=5, n=3, seed=20)
    diags = fam.diagonals
    assert diags.shape == (5, 3, 4) and diags.dtype == np.float64
    assert not diags.flags.writeable
    assert diags.tobytes() == trng.stream(20, 0).uniform(-1.0, 1.0, (5, 3, 4)).tobytes()


# every n from 1 to 17 pins the scaling: a real / n differs in the last bit
# from einsum's complex division for n = 3, 5, 6, 7, 9, ...
@pytest.mark.parametrize("noise", ["rademacher", "uniform"])
@pytest.mark.parametrize("n", range(1, 18))
def test_diagonal_family_sups_equal_the_dense_path(n, noise):
    fam = diagonal_family((2, 2), t_count=7, n=n, seed=30 + n, noise=noise)
    assert_same_bits(sample_family_sups(fam, n, 400), family_sups_oracle(fam, n, 400))


def adversarial_diagonals(seed):
    """(t, n, D) diagonals with exact ties between blocks, zero blocks, a
    zero tuple, and a tuple per scale near 1e+-150, where zheevd scales."""
    gen = trng.stream(seed, 0)
    diags = gen.uniform(-1.0, 1.0, (12, 3, 4))
    diags[1] = diags[0]  # equal blocks
    diags[2] = -diags[0][:, ::-1]  # equal max |diag|, other signs and order
    diags[3, :, 2] = -diags[3, :, 1]  # a tie inside each block
    diags[4] = 0.0  # a zero tuple
    diags[5, 1] = 0.0  # a zero block
    diags[6] *= 1e150
    diags[7] *= 1e-150
    diags[8] = diags[6] * (1.0 - 2.0**-52)
    diags[9] = 1e-150 * diags[0]
    diags[10] = 1e150 * diags[0]
    diags[11] = np.nextafter(diags[6], 0.0)
    return diags


@pytest.mark.parametrize("scales", [slice(None), slice(0, 6), slice(6, 12), slice(7, 8)])
@pytest.mark.parametrize("noise", ["rademacher", "uniform"])
def test_adversarial_diagonal_families_equal_the_dense_path(noise, scales):
    fam = EmpiricalFamily((4,), adversarial_diagonals(40)[scales], noise)
    assert_same_bits(sample_family_sups(fam, 41, 500), family_sups_oracle(fam, 41, 500))


def test_zero_diagonal_families_equal_the_dense_path():
    for noise in ("rademacher", "uniform"):
        fam = EmpiricalFamily((2,), np.zeros((3, 4, 2)), noise)
        assert_same_bits(sample_family_sups(fam, 42, 50), family_sups_oracle(fam, 42, 50))


def count_solves(monkeypatch):
    """The matrices each later ``np.linalg.eigvalsh`` call solves, appended."""
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def counting(mats, *args, **kwargs):
        solved.append(math.prod(mats.shape[:-2]))
        return eigvalsh(mats, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return solved


def distinct_sign_rows(seed, samples, n):
    """The distinct rows of the rademacher weights sample_family_sups draws."""
    w = trng.noise("rademacher", trng.stream(seed, 0), (samples, n))
    return len({row.tobytes() for row in w})


def diagonal_sups(family, seed, n_samples):
    """Every sample's real diagonal values, scaled as the complex blocks
    are, each row's largest |entry|: the norm a full eigensolve returns
    inside LAPACK's unscaled range."""
    w = trng.noise(family.noise, trng.stream(seed, 0), (n_samples, family.n))
    values = np.einsum("si,tid->std", w, family.diagonals) * (1.0 / family.n)
    return np.abs(values).max(axis=(1, 2))


# 2^n just above, at and below the sample count: under rademacher noise the
# sign-row path runs once 2^n <= samples and forms one row per distinct row;
# its suprema equal both the dense path's and the diagonal reading's
@pytest.mark.parametrize("oracle", ["diagonal", "dense"])
@pytest.mark.parametrize("n", range(1, 17))
def test_sign_row_sups_equal_the_per_sample_path(n, oracle, monkeypatch):
    fam = EmpiricalFamily((2,), trng.stream(60 + n, 0).uniform(-1.0, 1.0, (3, n, 2)))
    per_sample = family_sups_oracle if oracle == "dense" else diagonal_sups
    formed = []
    contract = kernels.contract
    monkeypatch.setattr(kernels, "contract", lambda w, st: formed.append(len(w)) or contract(w, st))
    for samples in {min(2**n - 1, 3000), 2**n, min(4 * 2**n, 3000)}:
        want = per_sample(fam, 70 + n, samples)
        formed.clear()
        assert_same_bits(sample_family_sups(fam, 70 + n, samples), want)
        rows = distinct_sign_rows(70 + n, samples, n) if 2**n <= samples else samples
        assert sum(formed) == rows


# uniform noise repeats no row, so each sample is reduced: the per-sample path
def test_diagonal_family_sups_eigensolve_about_one_block_per_sample(monkeypatch):
    fam = diagonal_family((2, 2), t_count=32, n=8, seed=43, noise="uniform")
    solved = count_solves(monkeypatch)
    samples = 3000
    sample_family_sups(fam, 44, samples)
    assert samples <= sum(solved) <= 1.05 * samples  # a full eigensolve: 32 per sample


def test_diagonal_family_sups_eigensolve_about_one_block_per_sign_row(monkeypatch):
    fam = diagonal_family((2, 2), t_count=32, n=8, seed=43)
    samples = 3000
    rows = distinct_sign_rows(44, samples, fam.n)
    solved = count_solves(monkeypatch)
    sample_family_sups(fam, 44, samples)
    assert rows == 2**fam.n  # every sign row occurs at this sample count
    assert rows <= sum(solved) <= 1.05 * rows


def test_verify_empirical_bound_fit_and_holds():
    fam = diagonal_family((2,), t_count=4, n=8, seed=9)
    report = verify_empirical_bound(fam, seed=10, n_samples=4000, u_grid=np.linspace(1, 5, 8))
    assert report.verdict == "holds"
    assert report.fitted["mixed_chain_const"] > 0
    assert report.inputs["noise"] == "rademacher"
    # fit-time concentration record
    assert report.extras["mean_within_moment_bound"]
    assert report.extras["mean_sup"] <= report.extras["moment_bound_p1"]


def test_verify_empirical_bound_fixed_constants():
    fam = diagonal_family((2,), t_count=4, n=8, seed=11)
    consts = ConstantSet(mixed_chain_const=100.0, mixed_scale_const=100.0)
    report = verify_empirical_bound(
        fam, seed=12, n_samples=1000, u_grid=np.linspace(1, 3, 4), constants=consts
    )
    assert report.verdict == "holds"  # absurdly large constants always hold


def test_bernstein_moment_condition_holds():
    fam = diagonal_family((2,), t_count=3, n=5, seed=13)
    records = check_bernstein_condition(fam, seed=14, n_samples=4000)
    assert records and all(r["holds"] for r in records)
    assert {r["p"] for r in records} == {2, 3, 4}


def test_bernstein_moment_condition_uniform_noise():
    fam = diagonal_family((2,), t_count=2, n=3, seed=15, noise="uniform")
    records = check_bernstein_condition(fam, seed=16, n_samples=4000)
    assert all(r["holds"] for r in records)


# the standard error of the moment estimate needs two samples
@pytest.mark.parametrize("n_samples", [0, 1])
def test_bernstein_moment_condition_rejects_fewer_than_two_samples(n_samples):
    fam = diagonal_family((2,), t_count=2, n=3, seed=15)
    with pytest.raises(ValidationError, match="two samples"):
        check_bernstein_condition(fam, seed=16, n_samples=n_samples)
