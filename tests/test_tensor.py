import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tensorchain import kernels, rng as trng
from tensorchain.errors import ShapeError, ValidationError
from tensorchain.tensor import (
    DenseTensor,
    GaugeNorm,
    Shape,
    einstein_product,
    fold,
    hermitian_part,
    is_unitary,
    random_hermitian,
    random_tensor,
    random_unitary,
    root_sum_squares,
    unfold,
)

# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def loop_einstein(a: DenseTensor, b: DenseTensor) -> np.ndarray:
    """Entrywise contraction straight from the index-sum definition."""
    rm, cm = a.shape.row_modes, a.shape.col_modes
    bm = b.shape.col_modes
    out = np.zeros(rm + bm, np.complex128)
    for i in np.ndindex(*rm):
        for k in np.ndindex(*bm):
            acc = 0.0 + 0.0j
            for j in np.ndindex(*cm):
                acc += a.data[i + j] * b.data[j + k]
            out[i + k] = acc
    return out


def power_iteration_norm(mat: np.ndarray, iters: int = 2000) -> float:
    """Spectral norm via power iteration on mat^H mat."""
    gram = mat.conj().T @ mat
    v = np.ones(gram.shape[0], np.complex128) / np.sqrt(gram.shape[0])
    for _ in range(iters):
        w = gram @ v
        nw = np.linalg.norm(w)
        if nw == 0:
            return 0.0
        v = w / nw
    return float(np.sqrt(np.real(np.vdot(v, gram @ v))))


def shifted_power_lambda_max(mat: np.ndarray, iters: int = 4000) -> float:
    """Largest eigenvalue of a Hermitian matrix via a positive shift."""
    shift = float(np.linalg.norm(mat)) + 1.0
    shifted = mat + shift * np.eye(mat.shape[0])
    v = np.ones(mat.shape[0], np.complex128) / np.sqrt(mat.shape[0])
    for _ in range(iters):
        w = shifted @ v
        v = w / np.linalg.norm(w)
    return float(np.real(np.vdot(v, shifted @ v))) - shift


def rand(shape, seed=0):
    return random_tensor(shape, trng.stream(seed, 0))


def eye(shape):
    return fold(np.eye(shape.row_count), shape)


# numpy's matrix norm of the unfolding for each gauge
NUMPY_ORD = {GaugeNorm.FROBENIUS: "fro", GaugeNorm.SPECTRAL: 2, GaugeNorm.NUCLEAR: "nuc"}


def gauge_norm(a, gauge):
    return float(np.linalg.norm(unfold(a), NUMPY_ORD[gauge]))


# ---------------------------------------------------------------------------
# shapes and construction
# ---------------------------------------------------------------------------


def test_shape_validation():
    with pytest.raises(ShapeError):
        Shape((), (2,))
    with pytest.raises(ShapeError):
        Shape((2, 0), (2,))
    s = Shape((2, 3), (4,))
    assert s.row_count == 6 and s.col_count == 4
    assert not s.is_square and Shape((2,), (2,)).is_square


def test_entries_must_be_finite():
    bad = np.ones((2, 2), np.complex128)
    bad[0, 0] = np.nan
    with pytest.raises(ValidationError):
        DenseTensor(Shape((2,), (2,)), bad)


def test_data_shape_must_match():
    with pytest.raises(ShapeError):
        DenseTensor(Shape((2,), (3,)), np.ones((2, 2), np.complex128))


def test_tensors_are_immutable():
    t = rand(Shape((2,), (2,)))
    with pytest.raises(ValueError):
        t.data[0, 0] = 1.0


# ---------------------------------------------------------------------------
# the contraction product
# ---------------------------------------------------------------------------


def test_einstein_identity_neutral():
    a = rand(Shape((2, 3), (2,)), 5)
    left = eye(Shape((2, 3), (2, 3)))
    assert np.allclose(einstein_product(left, a).data, a.data, rtol=1e-14, atol=0)


def test_einstein_matrix_case():
    m1 = DenseTensor(Shape((2,), (2,)), np.array([[1, 2], [3, 4]], np.complex128))
    m2 = DenseTensor(Shape((2,), (2,)), np.array([[5, 6], [7, 8]], np.complex128))
    assert np.array_equal(
        unfold(einstein_product(m1, m2)), np.array([[19, 22], [43, 50]])
    )


def test_einstein_annihilates_zero():
    b = rand(Shape((2,), (3,)), 6)
    z = DenseTensor(Shape((3,), (2,)), np.zeros((3, 2)))
    assert np.all(einstein_product(z, b).data == 0)


def test_einstein_matches_contraction_loop():
    a = rand(Shape((2, 2), (3,)), 7)
    b = rand(Shape((3,), (2, 2)), 8)
    got = einstein_product(a, b).data
    want = loop_einstein(a, b)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_einstein_equals_unfold_multiply_bit_exact():
    a = rand(Shape((2, 3), (2, 2)), 9)
    b = rand(Shape((2, 2), (3,)), 10)
    got = unfold(einstein_product(a, b))
    assert np.array_equal(got, unfold(a) @ unfold(b))


def test_einstein_mode_mismatch():
    with pytest.raises(ShapeError):
        einstein_product(rand(Shape((2,), (3,))), rand(Shape((2,), (3,))))


# ---------------------------------------------------------------------------
# norms and eigenvalues, by the kernels on Hermitian unfoldings
# ---------------------------------------------------------------------------


def test_norms_of_identity():
    mat = np.eye(2)
    assert kernels.gauge_norms(mat, GaugeNorm.FROBENIUS) == pytest.approx(np.sqrt(2))
    assert kernels.gauge_norms(mat, GaugeNorm.SPECTRAL) == pytest.approx(1.0)
    assert kernels.gauge_norms(mat, GaugeNorm.NUCLEAR) == pytest.approx(2.0)


def test_norms_of_zero():
    z = np.zeros((6, 6))
    for gauge in GaugeNorm:
        assert kernels.gauge_norms(z, gauge) == 0.0


def test_spectral_norm_matches_power_iteration():
    h = unfold(random_hermitian((2, 2), trng.stream(19, 0)))
    assert kernels.batch_spectral(h) == pytest.approx(power_iteration_norm(h), rel=1e-8)


def test_gauge_norms_unitarily_invariant():
    gen = trng.stream(20, 0)
    a = random_tensor(Shape((2, 2), (2, 2)), gen)
    u = random_unitary((2, 2), trng.stream(21, 0))
    v = random_unitary((2, 2), trng.stream(22, 0))
    rotated = einstein_product(einstein_product(u, a), v)
    for gauge in GaugeNorm:
        assert gauge_norm(rotated, gauge) == pytest.approx(gauge_norm(a, gauge), rel=1e-10)


def test_lambda_max_identity_and_diagonal():
    assert kernels.batch_lambda_max(np.eye(2)) == pytest.approx(1.0)
    assert kernels.batch_lambda_max(np.diag([3.0, -1.0])) == pytest.approx(3.0)


def test_lambda_max_matches_shifted_power_iteration():
    h = unfold(random_hermitian((2, 2), trng.stream(23, 0)))
    assert kernels.batch_lambda_max(h) == pytest.approx(shifted_power_lambda_max(h), rel=1e-8)


def test_lambda_max_below_spectral_equality_when_psd():
    h = unfold(random_hermitian((2,), trng.stream(25, 0)))
    assert kernels.batch_lambda_max(h) <= kernels.batch_spectral(h) + 1e-12
    psd = h @ h.conj().T
    assert kernels.batch_lambda_max(psd) == pytest.approx(kernels.batch_spectral(psd), rel=1e-12)


# ---------------------------------------------------------------------------
# the identity tensor
# ---------------------------------------------------------------------------


def test_identity_idempotent_under_product():
    one = eye(Shape((2, 2), (2, 2)))
    assert np.array_equal(einstein_product(one, one).data, one.data)


# ---------------------------------------------------------------------------
# hermitian / unitary predicates
# ---------------------------------------------------------------------------


def test_identity_is_hermitian_and_unitary():
    one = eye(Shape((2, 3), (2, 3)))
    assert is_unitary(one)
    assert np.array_equal(hermitian_part(unfold(one)), unfold(one))


def test_random_unitary_detected():
    u = random_unitary((2, 2, 2), trng.stream(28, 0))
    assert is_unitary(u, tol=1e-10)


def test_tolerance_semantics():
    bumped = fold((1.0 + 1e-3) * np.eye(2), Shape((2,), (2,)))
    assert not is_unitary(bumped, tol=1e-6)
    with pytest.raises(ValidationError):
        hermitian_part(np.eye(2) + 1e-3 * unfold(rand(Shape((2,), (2,)), 29)))


def test_non_square_predicates_false():
    t = rand(Shape((2,), (3,)), 30)
    assert not is_unitary(t)
    with pytest.raises(ValidationError):
        hermitian_part(unfold(t))


# ---------------------------------------------------------------------------
# root-sum-of-squares
# ---------------------------------------------------------------------------


def direct_rss(x, trailing):
    """sqrt(sum |x|^2) over the last ``trailing`` axes, squares unguarded."""
    with np.errstate(over="ignore"):
        squares = x.real**2 + x.imag**2 if np.iscomplexobj(x) else x**2
    return np.sqrt(squares.sum(axis=tuple(range(-trailing, 0))))


def hypot_rss(x, trailing):
    """The same by math.hypot over the |entries| of each block, which scales."""
    lead = x.shape[: x.ndim - trailing]
    blocks = np.abs(x).reshape(math.prod(lead), -1)
    return np.array([math.hypot(*b) for b in blocks]).reshape(lead)


def rss_inputs(seed):
    """(array, trailing): real and complex, stacks and single blocks."""
    gen = trng.stream(seed, 0)
    cplx = gen.standard_normal((3, 4, 3, 3)) + 1j * gen.standard_normal((3, 4, 3, 3))
    real = gen.standard_normal((6, 5, 4))
    return [
        (cplx, 2), (cplx[0], 2), (cplx[0, 0], 2), (cplx, 4), (cplx[0, 0, 0], 1),
        (real, 1), (real[0], 1), (real[0, 0], 1), (real, 2), (real[0], 2),
    ]


@pytest.mark.parametrize("case", range(10))
def test_root_sum_squares_is_the_direct_value_inside_its_range(case):
    x, trailing = rss_inputs(40)[case]
    got, want = root_sum_squares(x, trailing), direct_rss(x, trailing)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", range(10))
@pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e170, 1e300])
def test_root_sum_squares_rescales_outside_its_range(case, scale):
    x, trailing = rss_inputs(41)[case]
    got = root_sum_squares(scale * x, trailing)
    assert np.allclose(got, hypot_rss(scale * x, trailing), rtol=1e-14, atol=0.0)
    # a stack with one block out of range keeps the others' direct bits
    if x.ndim > trailing:
        mixed = x.copy()
        mixed[0] *= scale
        got, want = root_sum_squares(mixed, trailing), direct_rss(mixed, trailing)
        assert got[1:].tobytes() == want[1:].tobytes()
        assert np.allclose(got[0], hypot_rss(mixed, trailing)[0], rtol=1e-14, atol=0.0)


def test_root_sum_squares_keeps_zero_infinite_and_nan_blocks():
    wild = np.zeros((3, 2, 2), np.complex128)
    wild[1, 0, 0], wild[2, 1, 1] = np.inf, np.nan
    got = root_sum_squares(wild, 2)
    assert got[0] == 0.0 and got[1] == np.inf and np.isnan(got[2])
    assert np.isnan(root_sum_squares(np.array([[np.nan, 0.0], [0.0, 1.0]]), 2))
    assert root_sum_squares(np.zeros(4), 1) == 0.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e-170, 1e170])
def test_hermitian_rule_holds_where_squares_leave_the_float_range(scale):
    far = scale * np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValidationError):
        hermitian_part(far)
    assert root_sum_squares(far, 2) == pytest.approx(1.5 * scale, rel=1e-15, abs=0.0)
    exact = scale * np.array([[1.0, 0.5], [0.5, 1.0]])
    assert np.array_equal(hermitian_part(exact), exact)


# ---------------------------------------------------------------------------
# unfold / fold
# ---------------------------------------------------------------------------


def test_first_entry_maps_to_origin():
    a = rand(Shape((2, 2), (2,)), 31)
    assert unfold(a)[0, 0] == a.data[0, 0, 0]


def test_fold_unfold_round_trip_bit_exact():
    a = rand(Shape((2, 3), (4, 2)), 32)
    assert np.array_equal(fold(unfold(a), a.shape).data, a.data)


def test_fold_dimension_mismatch():
    with pytest.raises(ShapeError):
        fold(np.ones((2, 2), np.complex128), Shape((2,), (3,)))


def test_row_major_index_order():
    # leftmost mode most significant: entry (i1,i2;j) sits at row i1*I2+i2
    a = rand(Shape((2, 3), (2,)), 33)
    assert unfold(a)[1 * 3 + 2, 1] == a.data[1, 2, 1]


# ---------------------------------------------------------------------------
# module invariants (property style)
# ---------------------------------------------------------------------------


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_invariant_product_factorizes_bit_exact(seed):
    gen = trng.stream(seed, 0)
    a = random_tensor(Shape((2,), (2, 2)), gen)
    b = random_tensor(Shape((2, 2), (3,)), gen)
    assert np.array_equal(unfold(einstein_product(a, b)), unfold(a) @ unfold(b))


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_invariant_frobenius_three_ways(seed):
    a = random_tensor(Shape((2, 2), (3,)), trng.stream(seed, 0))
    f = float(root_sum_squares(unfold(a), 2))
    assert f**2 == pytest.approx(float(np.sum(np.abs(a.data) ** 2)), rel=1e-12)
    assert f**2 == pytest.approx(np.vdot(a.data, a.data).real, rel=1e-12)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_invariant_unitary_isometry(seed):
    u = random_unitary((2, 2), trng.stream(seed, 0))
    x = random_tensor(Shape((2, 2), (3,)), trng.stream(seed, 1))
    ratio = root_sum_squares(unfold(einstein_product(u, x)), 2) / root_sum_squares(unfold(x), 2)
    assert abs(ratio - 1.0) <= 1e-10
