"""Counter-based random streams.

Every stochastic routine in the package derives its generator from
``stream(seed, index)``: a Philox bit generator keyed by the 64-bit user
seed and a 64-bit stream index (trajectory number, trial number, ...).
Streams are independent by construction and do not depend on how work is
scheduled across workers, so results are reproducible from (seed, index)
alone.
"""

import numpy as np

_MASK64 = (1 << 64) - 1


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Generator for the `index`-th stream of the given seed."""
    key = np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# laws of the zero-mean scalars drawn by :func:`noise`
NOISE_LAWS = ("rademacher", "uniform")


def noise(law: str, gen: np.random.Generator, shape) -> np.ndarray:
    """Random signs ("rademacher") or uniform draws on [-1, 1] ("uniform")."""
    if law == "rademacher":
        return gen.integers(0, 2, shape) * 2.0 - 1.0
    return gen.uniform(-1.0, 1.0, shape)
