import math

import numpy as np
import pytest

from tensorchain.bounds import ConstantSet
from tensorchain.empirical import (
    EmpiricalFamily,
    check_bernstein_condition,
    diagonal_family,
    empirical_sup_moment_bound,
    empirical_sup_tail_bound,
    empirical_value,
    family_metrics,
    family_space,
    sample_family_sups,
    verify_empirical_bound,
)
from tensorchain.errors import DomainError, ValidationError
from tensorchain.tensor import DenseTensor, Shape


def diag_tensor(values):
    return DenseTensor(
        Shape((len(values),), (len(values),)),
        np.diag(np.asarray(values, dtype=np.complex128)),
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
# the averaged process
# ---------------------------------------------------------------------------


def test_empirical_value_zero_when_samples_equal_means():
    samples = [diag_tensor([1.0, 2.0]), diag_tensor([3.0, -1.0])]
    means = list(samples)
    out = empirical_value(samples, means)
    assert np.all(out.data == 0)


def test_empirical_value_single_space_centers():
    s = diag_tensor([2.0, 4.0])
    out = empirical_value([s], [diag_tensor([1.0, 1.0])])
    assert np.allclose(np.diag(out.data), [1.0, 3.0])


def test_empirical_value_matches_entrywise_average():
    draws = [diag_tensor([1.0, 0.0]), diag_tensor([0.0, 3.0]), diag_tensor([2.0, 3.0])]
    out = empirical_value(draws)
    assert np.allclose(np.diag(out.data), [1.0, 2.0])


def test_empirical_value_rejects_missing_sample():
    with pytest.raises(ValidationError):
        empirical_value([diag_tensor([1.0]), None])
    with pytest.raises(ValidationError):
        empirical_value([])


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
