"""Dense complex tensors with grouped row/column modes.

A tensor here is a complex array whose axes are split into M row modes
(I_1, ..., I_M) and N column modes (J_1, ..., J_N).  Flattening the row
group and the column group with the row-major mixed-radix rule (leftmost
mode most significant) turns the tensor into its *unfolding*, a
row_count x col_count matrix, and turns the grouped-mode contraction
product into plain matrix multiplication.  Every spectral quantity is
computed on the unfolding; this is exact, not an approximation, because
the map is an algebra isomorphism.

Values are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, ValidationError

_MAX_SIDE = 1 << 31  # guard against unfoldings that cannot be addressed
_REL_TOL = 1e-10  # default tolerance, relative to the Frobenius norm
# root_sum_squares, kernels._intervals and kernels._sum_intervals: the values
# whose squares are exact to the slack.  Below, an underflowed square changes s
# by at most n * 1.5e-154, far under the pad _SLACK * 1e-140; above, no square
# of an entry reaches 1e280.
_FRO_RANGE = (1e-140, 1e140)


class GaugeNorm(enum.Enum):
    """Unitarily invariant norms evaluated on the unfolding."""

    FROBENIUS = "frobenius"
    SPECTRAL = "spectral"
    NUCLEAR = "nuclear"

    @classmethod
    def coerce(cls, value) -> "GaugeNorm":
        if isinstance(value, cls):
            return value
        return cls(str(value).lower())


@dataclass(frozen=True)
class Shape:
    """Mode extents of a tensor, split into row and column groups."""

    row_modes: tuple
    col_modes: tuple

    def __post_init__(self):
        object.__setattr__(self, "row_modes", tuple(int(e) for e in self.row_modes))
        object.__setattr__(self, "col_modes", tuple(int(e) for e in self.col_modes))
        if not self.row_modes or not self.col_modes:
            raise ShapeError("both mode groups must be nonempty")
        for extent in self.row_modes + self.col_modes:
            if extent < 1:
                raise ShapeError(f"mode extents must be >= 1, got {extent}")
        if self.row_count > _MAX_SIDE or self.col_count > _MAX_SIDE:
            raise ShapeError("unfolding dimensions exceed the addressable limit")

    @property
    def row_count(self) -> int:
        return math.prod(self.row_modes)

    @property
    def col_count(self) -> int:
        return math.prod(self.col_modes)

    @property
    def is_square(self) -> bool:
        return self.row_modes == self.col_modes


@dataclass(frozen=True, eq=False)
class DenseTensor:
    """Immutable complex tensor over a :class:`Shape`.

    ``data`` has ndim ``M + N`` with the row modes first; it is stored
    C-contiguous so its flat order is exactly the documented row-major
    mixed-radix order over the concatenated index tuple.
    """

    shape: Shape
    data: np.ndarray

    def __post_init__(self):
        arr = np.array(self.data, dtype=np.complex128, order="C")  # a copy, frozen
        expected = self.shape.row_modes + self.shape.col_modes
        if arr.shape != expected:
            raise ShapeError(f"data has shape {arr.shape}, expected {expected}")
        if not np.isfinite(arr.view(np.float64)).all():
            raise ValidationError("tensor entries must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    def __mul__(self, scalar):
        return scale(self, scalar)

    __rmul__ = __mul__


# ---------------------------------------------------------------------------
# unfolding
# ---------------------------------------------------------------------------


def unfold(a: DenseTensor) -> np.ndarray:
    """Matrix unfolding; row index ranges over the row-mode tuple."""
    return a.data.reshape(a.shape.row_count, a.shape.col_count)


def fold(matrix: np.ndarray, shape: Shape) -> DenseTensor:
    """Inverse of :func:`unfold` for the given shape."""
    matrix = np.asarray(matrix, dtype=np.complex128)
    if matrix.shape != (shape.row_count, shape.col_count):
        raise ShapeError(
            f"matrix has shape {matrix.shape}, expected "
            f"{(shape.row_count, shape.col_count)}"
        )
    return DenseTensor(shape, matrix.reshape(shape.row_modes + shape.col_modes))


# ---------------------------------------------------------------------------
# algebra
# ---------------------------------------------------------------------------


def scale(a: DenseTensor, scalar) -> DenseTensor:
    return DenseTensor(a.shape, a.data * complex(scalar))


def einstein_product(a: DenseTensor, b: DenseTensor) -> DenseTensor:
    """Contraction of ``a``'s column modes against ``b``'s row modes.

    Computed as ``unfold(a) @ unfold(b)`` refolded, which fixes the
    floating-point contraction order; the identity
    ``unfold(a * b) == unfold(a) @ unfold(b)`` holds bit-exactly.
    """
    if a.shape.col_modes != b.shape.row_modes:
        raise ShapeError(
            f"contraction modes {a.shape.col_modes} do not match {b.shape.row_modes}"
        )
    out_shape = Shape(a.shape.row_modes, b.shape.col_modes)
    return fold(unfold(a) @ unfold(b), out_shape)


def root_sum_squares(x, trailing: int):
    """sqrt(sum |x|^2) over the last ``trailing`` axes (a 0-d array for one block).
    A block whose direct value is outside _FRO_RANGE or not finite, where a
    square may under- or overflow, is summed again divided by its largest |entry|
    (unless 0, infinite or NaN), then multiplied by it: Blue's scaled 2-norm (ACM
    TOMS 4, 1978).  Every other block keeps the direct value's bits."""
    lead = x.shape[: x.ndim - trailing]
    with np.errstate(over="ignore"):
        sq = x.real**2 + x.imag**2 if np.iscomplexobj(x) else x**2
        rss = np.sqrt(sq.sum(axis=tuple(range(-trailing, 0)), keepdims=True)).reshape(lead)
    # a copy, not a view, where x (so rss) is not C-contiguous: flat is returned
    flat, wild = rss.reshape(-1), ~((rss >= _FRO_RANGE[0]) & (rss <= _FRO_RANGE[1])).ravel()
    if wild.any():
        mags = np.abs(x.reshape(wild.size, math.prod(x.shape[len(lead) :]))[wild])
        top = mags.max(axis=1, initial=0.0)  # divided by it, a block is in range
        fine = (top > 0) & np.isfinite(top)
        wild[wild] = fine
        with np.errstate(over="ignore"):  # a block past the float range is inf
            flat[wild] = top[fine] * root_sum_squares(mags[fine] / top[fine, None], 1)
    return flat.reshape(lead)


def is_unitary(a: DenseTensor, tol: float | None = None) -> bool:
    """Whether both U^H U and U U^H are within ``tol`` of I in Frobenius norm;
    by default ``tol`` is _REL_TOL times the Frobenius norm of U."""
    if not a.shape.is_square:
        return False
    if tol is None:
        tol = _REL_TOL * float(root_sum_squares(a.data.reshape(-1), 1))
    mat = unfold(a)
    eye = np.eye(mat.shape[0])
    return (
        float(root_sum_squares(mat.conj().T @ mat - eye, 2)) <= tol
        and float(root_sum_squares(mat @ mat.conj().T - eye, 2)) <= tol
    )


def hermitian_part(mats) -> np.ndarray:
    """Read-only (M + M^H) / 2 of each M in a (..., D, D) stack, which is M
    bit for bit when M is exactly Hermitian.  Each M must pass the rule
    ||M - M^H||_F <= _REL_TOL ||M||_F (_REL_TOL is 1e-10), else
    :class:`ValidationError` is raised."""
    mats = np.asarray(mats, dtype=np.complex128)
    adjoint = np.conj(np.swapaxes(mats, -1, -2))
    if mats.shape != adjoint.shape or not np.all(  # a NaN gap fails too
        root_sum_squares(mats - adjoint, 2) <= _REL_TOL * root_sum_squares(mats, 2)
    ):
        raise ValidationError("matrices must be square and Hermitian")
    part = (mats + adjoint) / 2.0
    part.flags.writeable = False
    return part


def hermitian_stack(tensors, what: str):
    """(shape, :func:`hermitian_part` of the unfoldings) of nonempty square tensors."""
    tensors = list(tensors)
    if not tensors:
        raise ValidationError(f"need at least one {what} tensor")
    shape = tensors[0].shape
    if not shape.is_square or any(t.shape != shape for t in tensors):
        raise ShapeError(f"{what} tensors must share one square shape")
    return shape, hermitian_part([unfold(t) for t in tensors])


# ---------------------------------------------------------------------------
# random constructions
# ---------------------------------------------------------------------------


def random_tensor(shape: Shape, rng: np.random.Generator) -> DenseTensor:
    dims = shape.row_modes + shape.col_modes
    data = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
    return DenseTensor(shape, data)


def random_hermitian(row_modes, rng: np.random.Generator) -> DenseTensor:
    shape = Shape(tuple(row_modes), tuple(row_modes))
    raw = unfold(random_tensor(shape, rng))
    return fold((raw + raw.conj().T) / 2.0, shape)


def random_unitary(row_modes, rng: np.random.Generator) -> DenseTensor:
    """Haar-style unitary from the QR factorization of a Gaussian unfolding."""
    shape = Shape(tuple(row_modes), tuple(row_modes))
    raw = unfold(random_tensor(shape, rng))
    q, r = np.linalg.qr(raw)
    q = q * (np.diag(r) / np.abs(np.diag(r)))[None, :]
    return fold(q, shape)
