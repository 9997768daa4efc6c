import math
import tracemalloc

import numpy as np
import pytest

from tensorchain import rng as trng
from tensorchain.bounds import ConstantSet, empirical_sup_tail_bound
from tensorchain.empirical import (
    EmpiricalFamily,
    check_bernstein_condition,
    diagonal_family,
    empirical_sup_moment_bound,
    family_metrics,
    family_space,
    sample_family_sups,
    verify_empirical_bound,
)
from tensorchain.errors import DomainError, ValidationError
from test_kernels import diagonal_blocks, family_sups_oracle, random_hermitian_stack


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


def test_metrics_vanish_on_equal_parameters():
    fam = diagonal_family((2,), t_count=3, n=4, seed=2)
    assert family_metrics(fam, 1, 1) == (0.0, 0.0)


def test_metrics_single_space_equal():
    fam = diagonal_family((2,), t_count=3, n=1, seed=3)
    d1, d2 = family_metrics(fam, 0, 2)
    assert d1 == pytest.approx(d2, rel=1e-12)


def test_metric_quadratic_mean_below_max():
    fam = diagonal_family((2,), t_count=5, n=6, seed=4)
    for s in range(5):
        for t in range(5):
            d1, d2 = family_metrics(fam, s, t)
            assert d2 <= d1 + 1e-12


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
    assert family_metrics(fam, 0, 2) == (0.0, 0.0)


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


def test_diagonal_family_sups_eigensolve_about_one_block_per_sample(monkeypatch):
    fam = diagonal_family((2, 2), t_count=32, n=8, seed=43)
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def counting(mats, *args, **kwargs):
        solved.append(math.prod(mats.shape[:-2]))
        return eigvalsh(mats, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    samples = 3000
    sample_family_sups(fam, 44, samples)
    assert samples <= sum(solved) <= 1.05 * samples  # the dense path: 32 per sample


def test_dense_family_sups_eigensolve_a_third_of_the_blocks(monkeypatch):
    params = random_hermitian_stack(trng.stream(45, 0), (32, 8, 4, 4))
    fam = EmpiricalFamily((2, 2), params)
    assert fam.diagonals is None
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def counting(mats, *args, **kwargs):
        solved.append(math.prod(mats.shape[:-2]))
        return eigvalsh(mats, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    samples = 2000
    sample_family_sups(fam, 46, samples)
    # 9.4 per sample here; every one of the 32 blocks when each is solved
    assert samples <= sum(solved) <= 32 * samples / 3


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
