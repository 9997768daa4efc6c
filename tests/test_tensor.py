import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tensorchain import rng as trng
from tensorchain.errors import (
    DomainError,
    ShapeError,
    SingularityError,
    ValidationError,
)
from tensorchain.tensor import (
    DenseTensor,
    GaugeNorm,
    Shape,
    add,
    conjugate_transpose,
    einstein_product,
    fold,
    hermitian_part,
    identity,
    inner_product,
    inverse,
    is_hermitian,
    is_unitary,
    lambda_max,
    load_tensor,
    norm,
    random_hermitian,
    random_tensor,
    random_unitary,
    root_sum_squares,
    save_tensor,
    tensor_from_text,
    tensor_to_text,
    trace,
    unfold,
    zero,
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


def loop_inner(a: DenseTensor, b: DenseTensor) -> complex:
    acc = 0.0 + 0.0j
    for idx in np.ndindex(*a.data.shape):
        acc += np.conj(a.data[idx]) * b.data[idx]
    return acc


def loop_trace(a: DenseTensor) -> complex:
    acc = 0.0 + 0.0j
    for i in np.ndindex(*a.shape.row_modes):
        acc += a.data[i + i]
    return acc


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
# addition
# ---------------------------------------------------------------------------


def test_add_zero_identity():
    a = rand(Shape((2, 3), (2,)), 1)
    z = zero(a.shape)
    assert np.array_equal(add(z, a).data, a.data)


def test_add_additive_inverse():
    a = rand(Shape((2, 3), (2,)), 2)
    total = add(a, (-1.0) * a)
    assert np.all(total.data == 0)


def test_add_matches_scalar_loop():
    a = rand(Shape((2, 3), (2, 3)), 3)
    b = rand(Shape((2, 3), (2, 3)), 4)
    out = add(a, b)
    for idx in np.ndindex(*a.data.shape):
        assert out.data[idx] == a.data[idx] + b.data[idx]


def test_add_shape_mismatch():
    with pytest.raises(ShapeError):
        add(rand(Shape((2,), (2,))), rand(Shape((3,), (2,))))


# ---------------------------------------------------------------------------
# the contraction product
# ---------------------------------------------------------------------------


def test_einstein_identity_neutral():
    a = rand(Shape((2, 3), (2,)), 5)
    left = identity(Shape((2, 3), (2, 3)))
    assert np.allclose(einstein_product(left, a).data, a.data, rtol=1e-14, atol=0)


def test_einstein_matrix_case():
    m1 = DenseTensor(Shape((2,), (2,)), np.array([[1, 2], [3, 4]], np.complex128))
    m2 = DenseTensor(Shape((2,), (2,)), np.array([[5, 6], [7, 8]], np.complex128))
    assert np.array_equal(
        unfold(einstein_product(m1, m2)), np.array([[19, 22], [43, 50]])
    )


def test_einstein_annihilates_zero():
    b = rand(Shape((2,), (3,)), 6)
    z = zero(Shape((3,), (2,)))
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
# conjugate transpose
# ---------------------------------------------------------------------------


def test_conjugate_transpose_involution():
    a = rand(Shape((2, 3), (4,)), 11)
    assert np.array_equal(conjugate_transpose(conjugate_transpose(a)).data, a.data)


def test_conjugate_transpose_real_symmetric_fixed_point():
    mat = np.array([[1.0, 2.0], [2.0, 5.0]], np.complex128)
    a = DenseTensor(Shape((2,), (2,)), mat)
    assert np.array_equal(conjugate_transpose(a).data, a.data)


def test_conjugate_transpose_entry_definition():
    a = zero(Shape((2,), (3,)))
    data = np.array(a.data)
    data[0, 1] = 1 + 2j
    a = DenseTensor(a.shape, data)
    h = conjugate_transpose(a)
    assert h.shape == Shape((3,), (2,))
    assert h.data[1, 0] == 1 - 2j


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_conjugate_transpose_is_isometry_every_gauge(seed):
    a = random_tensor(Shape((2,), (2, 2)), trng.stream(seed, 0))
    h = conjugate_transpose(a)
    for gauge in GaugeNorm:
        assert norm(a, gauge) == pytest.approx(norm(h, gauge), rel=1e-12)


# ---------------------------------------------------------------------------
# trace and inner product
# ---------------------------------------------------------------------------


def test_trace_identity_counts_diagonal():
    assert trace(identity(Shape((2, 3), (2, 3)))) == pytest.approx(6.0)


def test_trace_zero():
    assert trace(zero(Shape((2, 2), (2, 2)))) == 0


def test_trace_matches_matrix_and_loop_oracles():
    a = rand(Shape((2, 3), (2, 3)), 12)
    assert trace(a) == pytest.approx(np.trace(unfold(a)), rel=1e-12)
    assert trace(a) == pytest.approx(loop_trace(a), rel=1e-12)


def test_trace_rejects_non_square():
    with pytest.raises(ShapeError):
        trace(rand(Shape((2,), (3,))))
    with pytest.raises(ShapeError):
        trace(rand(Shape((2, 3), (3, 2))))  # equal products, different modes


def test_inner_product_gives_squared_frobenius():
    a = rand(Shape((2,), (2, 2)), 13)
    assert inner_product(a, a).real == pytest.approx(
        norm(a, GaugeNorm.FROBENIUS) ** 2, rel=1e-12
    )
    assert abs(inner_product(a, a).imag) < 1e-12


def test_inner_product_zero():
    b = rand(Shape((2,), (2,)), 14)
    assert inner_product(zero(b.shape), b) == 0


def test_inner_product_matches_loop_oracle():
    a = rand(Shape((2, 2), (3,)), 15)
    b = rand(Shape((2, 2), (3,)), 16)
    assert inner_product(a, b) == pytest.approx(loop_inner(a, b), rel=1e-12)


def test_inner_product_equals_trace_pairing():
    a = rand(Shape((2,), (3,)), 17)
    b = rand(Shape((2,), (3,)), 18)
    paired = trace(einstein_product(conjugate_transpose(a), b))
    assert inner_product(a, b) == pytest.approx(paired, rel=1e-12)


# ---------------------------------------------------------------------------
# norms and eigenvalues
# ---------------------------------------------------------------------------


def test_norms_of_identity():
    eye = identity(Shape((2,), (2,)))
    assert norm(eye, GaugeNorm.FROBENIUS) == pytest.approx(np.sqrt(2))
    assert norm(eye, GaugeNorm.SPECTRAL) == pytest.approx(1.0)
    assert norm(eye, GaugeNorm.NUCLEAR) == pytest.approx(2.0)


def test_norms_of_zero():
    z = zero(Shape((2, 2), (3,)))
    for gauge in GaugeNorm:
        assert norm(z, gauge) == 0.0


def test_spectral_norm_matches_power_iteration():
    a = rand(Shape((2, 2), (2, 2)), 19)
    assert norm(a, GaugeNorm.SPECTRAL) == pytest.approx(
        power_iteration_norm(unfold(a)), rel=1e-8
    )


def test_gauge_norms_unitarily_invariant():
    gen = trng.stream(20, 0)
    a = random_tensor(Shape((2, 2), (2, 2)), gen)
    u = random_unitary((2, 2), trng.stream(21, 0))
    v = random_unitary((2, 2), trng.stream(22, 0))
    rotated = einstein_product(einstein_product(u, a), v)
    for gauge in GaugeNorm:
        assert norm(rotated, gauge) == pytest.approx(norm(a, gauge), rel=1e-10)


def test_lambda_max_identity_and_diagonal():
    assert lambda_max(identity(Shape((2,), (2,)))) == pytest.approx(1.0)
    d = DenseTensor(Shape((2,), (2,)), np.diag([3.0, -1.0]).astype(np.complex128))
    assert lambda_max(d) == pytest.approx(3.0)


def test_lambda_max_matches_shifted_power_iteration():
    h = random_hermitian((2, 2), trng.stream(23, 0))
    assert lambda_max(h) == pytest.approx(
        shifted_power_lambda_max(unfold(h)), rel=1e-8
    )


def test_lambda_max_rejects_non_hermitian():
    with pytest.raises(DomainError):
        lambda_max(rand(Shape((2,), (2,)), 24))


def test_lambda_max_below_spectral_equality_when_psd():
    h = random_hermitian((2,), trng.stream(25, 0))
    assert lambda_max(h) <= norm(h, GaugeNorm.SPECTRAL) + 1e-12
    psd = fold(unfold(h) @ unfold(h).conj().T, h.shape)
    assert lambda_max(psd) == pytest.approx(norm(psd, GaugeNorm.SPECTRAL), rel=1e-12)


# ---------------------------------------------------------------------------
# identity / zero / inverse
# ---------------------------------------------------------------------------


def test_identity_unfolds_to_eye():
    assert np.array_equal(unfold(identity(Shape((2, 3), (2, 3)))), np.eye(6))


def test_identity_trace_counts_dimension():
    assert trace(identity(Shape((4,), (4,)))) == pytest.approx(4.0)


def test_identity_idempotent_under_product():
    eye = identity(Shape((2, 2), (2, 2)))
    assert np.array_equal(einstein_product(eye, eye).data, eye.data)


def test_identity_requires_square():
    with pytest.raises(ShapeError):
        identity(Shape((2,), (3,)))


def test_inverse_of_identity():
    eye = identity(Shape((2, 3), (2, 3)))
    assert np.allclose(inverse(eye).data, eye.data)


def test_inverse_of_unitary_is_adjoint():
    u = random_unitary((2, 2), trng.stream(26, 0))
    assert np.allclose(
        inverse(u).data, conjugate_transpose(u).data, rtol=0, atol=1e-10
    )


def test_inverse_residual_small():
    a = rand(Shape((2, 2), (2, 2)), 27)
    shifted = add(a, 5.0 * identity(a.shape))  # comfortably nonsingular
    res = einstein_product(shifted, inverse(shifted))
    gap = norm(add(res, (-1.0) * identity(a.shape)), GaugeNorm.FROBENIUS)
    assert gap <= 1e-10 * norm(shifted, GaugeNorm.FROBENIUS)


def test_inverse_singular_raises():
    singular = DenseTensor(Shape((2,), (2,)), np.ones((2, 2), np.complex128))
    with pytest.raises(SingularityError):
        inverse(singular)


# ---------------------------------------------------------------------------
# hermitian / unitary predicates
# ---------------------------------------------------------------------------


def test_identity_is_hermitian_and_unitary():
    eye = identity(Shape((2, 3), (2, 3)))
    assert is_hermitian(eye) and is_unitary(eye)


def test_random_unitary_detected():
    u = random_unitary((2, 2, 2), trng.stream(28, 0))
    assert is_unitary(u, tol=1e-10)


def test_tolerance_semantics():
    eye = identity(Shape((2,), (2,)))
    bumped = add(eye, 1e-3 * identity(eye.shape))
    assert not is_unitary(bumped, tol=1e-6)
    assert not is_hermitian(add(eye, 1e-3 * rand(Shape((2,), (2,)), 29)), tol=1e-6)


def test_non_square_predicates_false():
    t = rand(Shape((2,), (3,)), 30)
    assert not is_hermitian(t) and not is_unitary(t)


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
    t = fold(far, Shape((2,), (2,)))
    assert not is_hermitian(t)
    assert norm(t) == pytest.approx(1.5 * scale, rel=1e-15, abs=0.0)
    exact = scale * np.array([[1.0, 0.5], [0.5, 1.0]])
    assert np.array_equal(hermitian_part(exact), exact)
    assert is_hermitian(fold(exact, Shape((2,), (2,))))


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
    f = norm(a, GaugeNorm.FROBENIUS)
    assert f**2 == pytest.approx(float(np.sum(np.abs(a.entries) ** 2)), rel=1e-12)
    assert f**2 == pytest.approx(inner_product(a, a).real, rel=1e-12)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_invariant_unitary_isometry(seed):
    u = random_unitary((2, 2), trng.stream(seed, 0))
    x = random_tensor(Shape((2, 2), (3,)), trng.stream(seed, 1))
    ratio = norm(einstein_product(u, x), GaugeNorm.FROBENIUS) / norm(
        x, GaugeNorm.FROBENIUS
    )
    assert abs(ratio - 1.0) <= 1e-10


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_text_round_trip_bit_exact():
    a = rand(Shape((2, 3), (2,)), 34)
    back = tensor_from_text(tensor_to_text(a))
    assert back.shape == a.shape
    assert np.array_equal(back.data, a.data)


def test_file_round_trip(tmp_path):
    a = rand(Shape((2,), (2, 2)), 35)
    path = tmp_path / "t.txt"
    save_tensor(a, path)
    assert np.array_equal(load_tensor(path).data, a.data)


def test_malformed_record_rejected():
    with pytest.raises(ValidationError):
        tensor_from_text("nonsense\n")
