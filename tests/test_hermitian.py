"""One Hermitian contract: every consumer of Hermitian input takes it through
``tensor.hermitian_part``, and every Hermitian spectrum comes from the
``kernels`` eigensolver.

A nearly Hermitian input must give the same results (``==``) as its exact
Hermitian part, and the eigenvalue-based scales must match the singular
values that ``np.linalg.svd`` gives for the same matrices.
"""

import math

import numpy as np
import pytest

from tensorchain import rng as trng
from tensorchain.bounds import martingale_chain_metric, verify_azuma, verify_bernstein
from tensorchain.chaining import euclidean_distances
from tensorchain.empirical import (
    EmpiricalFamily,
    check_bernstein_condition,
    sample_family_sups,
    verify_empirical_bound,
)
from tensorchain.errors import ShapeError, ValidationError
from tensorchain.processes import ProcessSpec, process_metric, sample_ensemble
from tensorchain.report import MARGIN_SIGMAS
from tensorchain.tensor import (
    Shape,
    fold,
    hermitian_part,
    hermitian_stack as tensor_stack,
    norm,
    random_hermitian,
    random_tensor,
    unfold,
)

# relative size of the anti-Hermitian nudge, well inside the 1e-10 tolerance
NUDGE = 1e-12


def top_singular(mat) -> float:
    return float(np.linalg.svd(mat, compute_uv=False)[0])


def nudged(mats):
    """A copy of a (..., D, D) stack with entry (0, 1) of the first matrix moved."""
    out = np.array(mats, dtype=np.complex128)
    first = out.reshape(-1, *out.shape[-2:])[0]
    first[0, 1] += NUDGE * np.linalg.norm(first)
    return out


def tensors(mats, shape):
    return [fold(m, shape) for m in mats]


def hermitian_stack(seed, count, row_modes=(2, 2), scale=1.0):
    hs = [scale * random_hermitian(row_modes, trng.stream(seed, k)) for k in range(count)]
    return hs[0].shape, np.stack([unfold(h) for h in hs])


# ---------------------------------------------------------------------------
# hermitian_part
# ---------------------------------------------------------------------------


def test_hermitian_part_returns_exact_hermitian_input_bit_for_bit():
    _, stack = hermitian_stack(1, 3)
    part = hermitian_part(stack)
    assert np.array_equal(part, stack)
    assert not part.flags.writeable
    once = hermitian_part(nudged(stack))
    assert np.array_equal(hermitian_part(once), once)


def test_hermitian_part_tolerance_is_relative():
    _, stack = hermitian_stack(2, 2)
    for scale in (1e-30, 1.0, 1e30):
        off = nudged(scale * stack)
        assert np.array_equal(hermitian_part(off), (off + off.conj().swapaxes(1, 2)) / 2)
    far = stack.copy()
    far[1, 0, 1] += 1e-8 * np.linalg.norm(far[1])
    with pytest.raises(ValidationError):
        hermitian_part(far)


@pytest.mark.parametrize(
    "mats",
    [
        np.array([[0.0, 1.0], [0.0, 0.0]]),
        np.ones((2, 2, 3)),
        np.array([[np.nan, 0.0], [0.0, 1.0]]),
    ],
)
def test_hermitian_part_rejects(mats):
    with pytest.raises(ValidationError):
        hermitian_part(mats)


# ---------------------------------------------------------------------------
# hermitian_stack: the one intake of a sequence of tensors
# ---------------------------------------------------------------------------


def test_hermitian_stack_is_the_shape_and_the_hermitian_part():
    shape, stack = hermitian_stack(4, 3)
    off = nudged(stack)
    got_shape, got = tensor_stack(tensors(off, shape), "difference")
    assert got_shape == shape and np.array_equal(got, hermitian_part(off))
    with pytest.raises(ValidationError, match="need at least one envelope tensor"):
        tensor_stack([], "envelope")


def test_every_consumer_refuses_tensors_of_two_shapes():
    mixed = [random_hermitian((2,), trng.stream(6, 0)), random_hermitian((3,), trng.stream(6, 1))]
    square_not = [random_tensor(Shape((2,), (3,)), trng.stream(6, 2))]
    message = "tensors must share one square shape"
    for tensors_ in (mixed, square_not):
        with pytest.raises(ShapeError, match="basis " + message):
            ProcessSpec("gaussian_linear", np.ones((3, len(tensors_))), tensors_, 2.0)
        with pytest.raises(ShapeError, match="difference " + message):
            verify_azuma(tensors_, 10, 1)
        with pytest.raises(ShapeError, match="difference " + message):
            martingale_chain_metric(tensors_)
        with pytest.raises(ShapeError, match="envelope " + message):
            verify_bernstein(tensors_, 10, 1)


# ---------------------------------------------------------------------------
# a nearly Hermitian input and its Hermitian part give equal results
# ---------------------------------------------------------------------------


def test_bounds_take_the_hermitian_part():
    shape, stack = hermitian_stack(2, 4, scale=0.5)
    off = nudged(stack)
    near, exact = tensors(off, shape), tensors(hermitian_part(off), shape)
    assert martingale_chain_metric(near) == martingale_chain_metric(exact)
    assert verify_azuma(near, 200, 3).to_json() == verify_azuma(exact, 200, 3).to_json()
    assert (
        verify_bernstein(near, 200, 3).to_json()
        == verify_bernstein(exact, 200, 3).to_json()
    )


def test_process_spec_takes_the_hermitian_part():
    shape, stack = hermitian_stack(3, 3)
    off = nudged(stack)
    coeffs = trng.stream(3, 9).uniform(-1.0, 1.0, (5, 3))
    near = ProcessSpec("gaussian_linear", coeffs, tensors(off, shape), 2.0)
    exact = ProcessSpec("gaussian_linear", coeffs, tensors(hermitian_part(off), shape), 2.0)
    assert np.array_equal(near.basis_stack, exact.basis_stack)
    assert not near.basis_stack.flags.writeable
    for gauge in ("spectral", "frobenius", "nuclear"):
        assert np.array_equal(process_metric(near, gauge), process_metric(exact, gauge))
    a, b = sample_ensemble(near, 4, 20), sample_ensemble(exact, 4, 20)
    assert np.array_equal(a.trajectories, b.trajectories)


def test_empirical_family_takes_the_hermitian_part():
    _, stack = hermitian_stack(5, 12)
    off = nudged(stack.reshape(3, 4, 4, 4))
    near = EmpiricalFamily((2, 2), off)
    exact = EmpiricalFamily((2, 2), hermitian_part(off))
    assert np.array_equal(near.parameters, exact.parameters)
    assert (near.sigma, near.upsilon) == (exact.sigma, exact.upsilon)
    assert np.array_equal(sample_family_sups(near, 6, 30), sample_family_sups(exact, 6, 30))
    grid = [1.0, 2.0]
    assert (
        verify_empirical_bound(near, 6, 30, grid).to_json()
        == verify_empirical_bound(exact, 6, 30, grid).to_json()
    )


# ---------------------------------------------------------------------------
# eigenvalue scales against an SVD oracle
# ---------------------------------------------------------------------------


def test_variance_proxies_match_svd():
    shape, stack = hermitian_stack(7, 5)
    hs = tensors(stack, shape)
    squares = np.einsum("kij,kjl->il", stack, stack)
    sigma = math.sqrt(top_singular(squares))
    assert martingale_chain_metric(hs) == pytest.approx(sigma, rel=1e-12)
    assert verify_azuma(hs, 10, 1).inputs["sigma"] == pytest.approx(sigma, rel=1e-12)
    inputs = verify_bernstein(hs, 10, 1).inputs
    assert inputs["sigma"] == pytest.approx(math.sqrt(top_singular(squares / 5)), rel=1e-12)
    upsilon = max(top_singular(m) for m in stack)
    assert inputs["upsilon"] == pytest.approx(upsilon, rel=1e-12)


def test_empirical_family_scales_match_svd():
    _, stack = hermitian_stack(8, 12)
    fam = EmpiricalFamily((2, 2), stack.reshape(3, 4, 4, 4))
    avg = fam.envelope_squares.mean(axis=0)
    assert fam.sigma == pytest.approx(math.sqrt(top_singular(avg)), rel=1e-12)
    upsilon = max(top_singular(m) for m in stack)
    assert fam.upsilon == pytest.approx(upsilon, rel=1e-12)


@pytest.mark.parametrize("gauge", ["spectral", "frobenius", "nuclear"])
def test_process_metric_scale_matches_svd(gauge):
    shape, stack = hermitian_stack(9, 3)
    coeffs = trng.stream(9, 9).uniform(-1.0, 1.0, (6, 3))
    spec = ProcessSpec("gaussian_linear", coeffs, tensors(stack, shape), 2.0, 1.5)
    scale = 1.5 * max(norm(b, gauge) for b in spec.basis)  # tensor.norm keeps the SVD
    want = scale * euclidean_distances(coeffs)
    assert np.allclose(process_metric(spec, gauge), want, rtol=1e-12, atol=0.0)


def test_bernstein_condition_matches_a_per_matrix_svd_loop():
    _, stack = hermitian_stack(10, 6, row_modes=(2,))
    fam = EmpiricalFamily((2,), stack.reshape(2, 3, 2, 2), noise="uniform")
    records = check_bernstein_condition(fam, seed=11, n_samples=500)
    w = trng.stream(11, 0).uniform(-1.0, 1.0, 500)
    want = []
    for p in (2, 3, 4):
        wp = w**p
        se = float(wp.std(ddof=1) / math.sqrt(500))
        scale = math.factorial(p) * fam.upsilon ** (p - 2) / 2.0
        for t in range(2):
            for i in range(3):
                theta_p = np.linalg.matrix_power(fam.parameters[t, i], p)
                bound = scale * fam.envelope_squares[i]
                slack = np.linalg.eigvalsh(bound - float(wp.mean()) * theta_p)[0]
                want.append((p, t, i, slack, MARGIN_SIGMAS * se * top_singular(theta_p)))
    assert [(r["p"], r["t"], r["i"]) for r in records] == [row[:3] for row in want]
    for r, (_, _, _, slack, margin) in zip(records, want):
        assert r["min_eigenvalue_slack"] == pytest.approx(slack, rel=1e-12, abs=1e-12)
        assert r["margin"] == pytest.approx(margin, rel=1e-12)
        assert r["holds"] == bool(slack >= -margin)
