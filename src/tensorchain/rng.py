"""Counter-based random streams.

Every stochastic routine in the package derives its generator from
``stream(seed, index)``: a Philox bit generator keyed by the 64-bit user
seed and a 64-bit stream index (trajectory number, trial number, ...).
Streams are independent by construction and do not depend on how work is
scheduled across workers, so results are reproducible from (seed, index)
alone.

A stream is fixed by its key and counter (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC 2011), so ``streams(seed, lo, hi)`` builds
one generator for a block of indices and re-keys it per index: the same
draws as a new ``stream`` per index, without building one.  Both key
through ``_rekey``, the one keying rule.

Signs have one rule, the one numpy's ``Generator.integers(0, 2, k)`` follows
on a generator with no buffered half-word: it reads ceil(k/2) 64-bit words
and splits each into two 32-bit halves, low half first, and Lemire's
bounded-integer method (Lemire, ACM TOMACS 2019) maps a half h to h >> 31,
with no rejection for the range {0, 1}.  So ``sign_words`` draws those words
with ``random_raw`` and ``signs`` reads the top bit of each half as -1.0 or
+1.0, through a little-endian view so the half order does not depend on the
host.  For an odd k, ``integers`` keeps the unread high half of its last word
buffered for the next 32-bit draw and ``random_raw`` does not; every later
draw of the stream is otherwise the same, and a re-key clears that buffer.
"""

import numpy as np

from .errors import ValidationError

_MASK64 = (1 << 64) - 1


def _rekey(bitgen: np.random.Philox, seed: int, index: int) -> None:
    """Reset ``bitgen`` to the start of stream (seed, index): key (seed,
    index) masked to 64 bits, counter 0, an empty buffer, no half-word.
    The state setter reads the words one at a time, so tuples serve and
    no array is built per reset."""
    bitgen.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (seed & _MASK64, index & _MASK64)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def streams(seed: int, lo: int, hi: int):
    """The generators of streams lo..hi-1 of the given seed, in order: one
    generator, re-keyed before each is yielded, so each is valid only until
    the next is taken."""
    gen = np.random.Generator(np.random.Philox(0))  # a fixed seed: no entropy read
    for index in range(lo, hi):
        _rekey(gen.bit_generator, seed, index)
        yield gen


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Generator for the `index`-th stream of the given seed."""
    return next(streams(seed, index, index + 1))


def sign_words(gen: np.random.Generator, k: int) -> np.ndarray:
    """The ceil(k/2) raw 64-bit words that ``gen.integers(0, 2, k)`` reads."""
    return gen.bit_generator.random_raw((k + 1) // 2)


def signs(words, k: int) -> np.ndarray:
    """The k signs, -1.0 or +1.0, spelled by rows of ``sign_words`` words
    (shape (..., ceil(k/2))): the top bit of each 32-bit half, low half
    first, as ``integers(0, 2, k) * 2.0 - 1.0`` reads them."""
    halves = np.ascontiguousarray(words, dtype="<u8").view("<u4")[..., :k]
    return (halves >> 31) * 2.0 - 1.0


# laws of the zero-mean scalars drawn by :func:`noise`
NOISE_LAWS = ("rademacher", "uniform")


def noise(law: str, gen: np.random.Generator, shape) -> np.ndarray:
    """Random signs ("rademacher") or uniform draws on [-1, 1] ("uniform");
    any other law is refused with a :class:`ValidationError`."""
    if law == "rademacher":
        count = int(np.prod(shape))
        return signs(sign_words(gen, count), count).reshape(shape)
    if law == "uniform":
        return gen.uniform(-1.0, 1.0, shape)
    raise ValidationError(f"noise law {law!r} is not one of {NOISE_LAWS}")
