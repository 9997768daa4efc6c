"""Grouped-mode tensor algebra, chaining functionals, and tail-bound checks."""

__version__ = "0.1.0"

from .tensor import (  # noqa: F401
    DenseTensor,
    GaugeNorm,
    Shape,
    einstein_product,
    fold,
    hermitian_part,
    is_unitary,
    unfold,
)
from .chaining import (  # noqa: F401
    AdmissibleSequence,
    FiniteMetricSpace,
    PartitionSequence,
    build_admissible_greedy,
    covering_number,
    diameter,
    dudley_integral,
    gamma_exhaustive,
    gamma_prime_value,
    gamma_truncated_value,
    gamma_value,
    intersect_partitions,
)
from .processes import (  # noqa: F401
    Ensemble,
    ProcessFamily,
    ProcessSpec,
    TailCurve,
    empirical_tail,
    fit_tail_exponent,
    sample_ensemble,
    verify_increment_tail,
)
from .bounds import ConstantSet, fit_constants  # noqa: F401
from .report import BoundReport  # noqa: F401
