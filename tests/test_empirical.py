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
from golden.oracles import per_pair_family_space
from test_kernels import (
    assert_no_child_left,
    count_forks,
    diagonal_blocks,
    family_sups_oracle,
    random_hermitian_stack,
)


# ---------------------------------------------------------------------------
# family construction
# ---------------------------------------------------------------------------


def test_family_requires_hermitian_parameters():
    params = np.zeros((2, 2, 2, 2), complex)
    params[0, 0] = [[0.0, 1.0], [0.0, 0.0]]
    with pytest.raises(ValidationError):
        EmpiricalFamily((2,), params)


def test_family_shape_checks():
    with pytest.raises(ValidationError):
        EmpiricalFamily((2,), np.zeros((2, 2, 3, 3), complex))
    with pytest.raises(ValidationError):
        EmpiricalFamily((2,), np.zeros((2, 2, 2, 2), complex), noise="cauchy")


def test_family_scale_and_variance_proxy():
    fam = diagonal_family((2,), t_count=3, n=4, seed=1)
    # upsilon is the worst spectral norm; the default envelopes are flat
    norms = np.abs(fam.parameters).max(axis=(2, 3))
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
    params = fam.parameters.copy()
    params[2] = params[1]
    for d in metric_matrices(EmpiricalFamily((2,), params)):
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


def metric_family(dense, t_count, n, scale, seed):
    gen = trng.stream(seed, 0)
    if dense:
        return EmpiricalFamily((2, 2), scale * random_hermitian_stack(gen, (t_count, n, 4, 4)))
    return family_of_diagonals(scale * gen.uniform(-1.0, 1.0, (t_count, n, 4)))


# n crosses numpy's pairwise-sum blocks of 8 and 128 in the row mean; at
# 1e+-150 zheevd scales the blocks, at 1e-170 their norms square to subnormals;
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
@pytest.mark.parametrize("dense", [False, True], ids=["diagonal", "dense"])
def test_family_space_equals_the_per_pair_path(dense, n, scale, chunk_entries, workers, monkeypatch):
    fam = metric_family(dense, 7, n, scale, 80 + n)
    assert (fam.diagonals is None) == dense
    want = per_pair_family_space(fam)
    monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", chunk_entries)
    monkeypatch.setattr(kernels, "_FORK_WORK", 0)
    monkeypatch.setattr(kernels, "_WORKERS", workers)
    forks = count_forks(monkeypatch)
    got = family_space(fam)
    assert (len(forks) > 0) == (workers > 1)
    assert_no_child_left()
    for name in ("d1", "d2"):
        assert_same_bits(got.distance_matrix(name), want.distance_matrix(name))


# the squared norms of 1e170 overflow on both paths, and d2 is taken in its
# range-safe form there: the same bits, a quadratic mean within a few ulps
# of 1e170 times that at scale 1.  Shared by two workers, whatever the work,
# the pair (0, 1) is this process's share and the rest a child's: with only
# the last tuple at 1e170 only the child's pairs overflow
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dense", [False, True], ids=["diagonal", "dense"])
def test_family_space_equals_the_per_pair_path_where_the_squares_overflow(dense, monkeypatch):
    fam = metric_family(dense, 3, 4, 1e170, 90)
    params = fam.parameters * np.array([1e-170, 1e-170, 1.0])[:, None, None, None]
    last = EmpiricalFamily(fam.row_modes, params)
    unit = family_space(metric_family(dense, 3, 4, 1.0, 90)).distance_matrix("d2")
    monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", 0)
    monkeypatch.setattr(kernels, "_FORK_WORK", 0)
    forks = count_forks(monkeypatch)
    for family in (fam, last):
        want = per_pair_family_space(family)
        for workers in (1, 2):
            monkeypatch.setattr(kernels, "_WORKERS", workers)
            got = family_space(family)
            assert_no_child_left()
            for name in ("d1", "d2"):
                assert_same_bits(got.distance_matrix(name), want.distance_matrix(name))
    assert len(forks) == 2
    d2 = per_pair_family_space(fam).distance_matrix("d2")
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
    # each tensor is within the construction's Hermitian tolerance of 1e-10,
    # their difference (gap 1.6e-10) is not; the stored Hermitian parts are
    # off-diagonal +-0.4e-10, so d1 is the spectral norm 0.8e-10 of theirs
    params = np.zeros((2, 1, 2, 2), complex)
    params[0, 0] = [[1.0, 0.8e-10], [0.0, 1.0]]
    params[1, 0] = [[1.0, -0.8e-10], [0.0, 1.0]]
    space = family_space(EmpiricalFamily((2,), params))
    assert space.distance_matrix("d1")[0, 1] == pytest.approx(0.8e-10, rel=1e-9)


def test_family_stores_exactly_hermitian_parameters_bit_for_bit():
    fam = diagonal_family((2, 2), t_count=3, n=2, seed=6)
    gen = np.random.default_rng(6)
    raw = gen.standard_normal((3, 2, 4, 4)) + 1j * gen.standard_normal((3, 2, 4, 4))
    params = raw + raw.conj().transpose(0, 1, 3, 2)
    for given in (fam.parameters, params):
        stored = EmpiricalFamily((2, 2), given).parameters
        assert np.array_equal(stored, given)
        assert np.array_equal(stored, stored.conj().transpose(0, 1, 3, 2))


def test_family_stores_hermitian_part_of_nearly_hermitian_parameters():
    gen = np.random.default_rng(7)
    raw = gen.standard_normal((2, 3, 2, 2)) + 1j * gen.standard_normal((2, 3, 2, 2))
    herm = raw + raw.conj().transpose(0, 1, 3, 2)
    off = herm.copy()
    off[:, :, 0, 1] += 0.9e-10  # within the accepted gap of 1e-10
    stored = EmpiricalFamily((2,), off).parameters
    assert np.array_equal(stored, (off + off.conj().transpose(0, 1, 3, 2)) / 2)
    assert np.array_equal(stored, stored.conj().transpose(0, 1, 3, 2))
    assert not np.array_equal(stored, off)


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
    fam = EmpiricalFamily((2,), np.zeros((3, 4, 2, 2), complex))
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
# diagonal families against the dense path, bit for bit
# ---------------------------------------------------------------------------


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def family_of_diagonals(diags, noise="rademacher"):
    """The family whose (t, i) parameter blocks are diag(diags[t, i])."""
    return EmpiricalFamily((diags.shape[-1],), diagonal_blocks(diags), noise)


def test_diagonals_are_the_read_only_real_diagonals():
    fam = diagonal_family((2, 2), t_count=5, n=3, seed=20)
    diags = fam.diagonals
    assert diags.shape == (5, 3, 4) and diags.dtype == np.float64
    assert not diags.flags.writeable
    assert np.array_equal(diags, fam.parameters.diagonal(0, -2, -1).real)
    assert fam.diagonals is diags  # decided once


def test_one_subnormal_off_diagonal_entry_takes_the_dense_path():
    fam = diagonal_family((2,), t_count=4, n=3, seed=21)
    params = fam.parameters.copy()
    params[2, 1, 0, 1] = params[2, 1, 1, 0] = 5e-324
    nearly = EmpiricalFamily((2,), params)
    assert nearly.diagonals is None
    assert_same_bits(sample_family_sups(nearly, 22, 300), family_sups_oracle(nearly, 22, 300))


# every n from 1 to 17 pins the scaling: a real / n differs in the last bit
# from einsum's complex division for n = 3, 5, 6, 7, 9, ...
@pytest.mark.parametrize("noise", ["rademacher", "uniform"])
@pytest.mark.parametrize("n", range(1, 18))
def test_diagonal_family_sups_equal_the_dense_path(n, noise):
    fam = diagonal_family((2, 2), t_count=7, n=n, seed=30 + n, noise=noise)
    assert fam.diagonals is not None
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
    fam = family_of_diagonals(adversarial_diagonals(40)[scales], noise)
    assert_same_bits(sample_family_sups(fam, 41, 500), family_sups_oracle(fam, 41, 500))


def test_zero_diagonal_families_equal_the_dense_path():
    for noise in ("rademacher", "uniform"):
        fam = family_of_diagonals(np.zeros((3, 4, 2)), noise)
        assert fam.diagonals is not None
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


# 2^n just above, at and below the sample count: under rademacher noise the
# sign-row path runs once 2^n <= samples and forms one row per distinct row
@pytest.mark.parametrize("dense", [False, True], ids=["diagonal", "dense"])
@pytest.mark.parametrize("n", range(1, 17))
def test_sign_row_sups_equal_the_per_sample_path(n, dense, monkeypatch):
    gen = trng.stream(60 + n, 0)
    if dense:
        fam = EmpiricalFamily((2,), random_hermitian_stack(gen, (3, n, 2, 2)))
    else:
        fam = family_of_diagonals(gen.uniform(-1.0, 1.0, (3, n, 2)))
    assert (fam.diagonals is None) == dense
    formed = []
    contract = kernels.contract
    monkeypatch.setattr(kernels, "contract", lambda w, st: formed.append(len(w)) or contract(w, st))
    for samples in {min(2**n - 1, 3000), 2**n, min(4 * 2**n, 3000)}:
        want = family_sups_oracle(fam, 70 + n, samples)
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
    assert samples <= sum(solved) <= 1.05 * samples  # the dense path: 32 per sample


def test_diagonal_family_sups_eigensolve_about_one_block_per_sign_row(monkeypatch):
    fam = diagonal_family((2, 2), t_count=32, n=8, seed=43)
    samples = 3000
    rows = distinct_sign_rows(44, samples, fam.n)
    solved = count_solves(monkeypatch)
    sample_family_sups(fam, 44, samples)
    assert rows == 2**fam.n  # every sign row occurs at this sample count
    assert rows <= sum(solved) <= 1.05 * rows


def dense_family(noise):
    fam = EmpiricalFamily((2, 2), random_hermitian_stack(trng.stream(45, 0), (32, 8, 4, 4)), noise)
    assert fam.diagonals is None
    return fam


def test_dense_family_sups_eigensolve_a_third_of_the_blocks(monkeypatch):
    fam = dense_family("uniform")
    solved = count_solves(monkeypatch)
    samples = 2000
    sample_family_sups(fam, 46, samples)
    # 9.4 per sample here; every one of the 32 blocks when each is solved
    assert samples <= sum(solved) <= 32 * samples / 3


def test_dense_family_sups_eigensolve_a_third_of_the_blocks_per_sign_row(monkeypatch):
    fam = dense_family("rademacher")
    samples = 2000
    rows = distinct_sign_rows(46, samples, fam.n)
    solved = count_solves(monkeypatch)
    sample_family_sups(fam, 46, samples)
    assert rows == 2**fam.n
    assert rows <= sum(solved) <= 32 * rows / 3


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
