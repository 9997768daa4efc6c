"""The re-keyed streams of ``rng.streams`` against a new generator per index,
and the sign rule of ``rng.signs`` against ``Generator.integers(0, 2, k)``.

The oracle builds Philox from its key, as numpy documents it, so these
tests also pin the state-dict layout that ``rng`` re-keys through.
"""

import re

import numpy as np
import pytest

from tensorchain import rng as trng
from tensorchain.errors import ValidationError
from tensorchain.processes import ProcessFamily

MASK = (1 << 64) - 1
SQRT3 = np.sqrt(3.0)


def keyed(seed, index):
    """A new generator for stream (seed, index), built from its key."""
    key = np.array([seed & MASK, index & MASK], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def signs(gen, k):
    return trng.signs(trng.sign_words(gen, k), k)


# the scalars of one sample of each process family, as ``processes._realize``
# draws them from the sample's stream
FAMILY_DRAWS = {
    "gaussian_linear": lambda gen, k: gen.standard_normal(k),
    "subexponential_linear": lambda gen, k: signs(gen, k) * gen.standard_exponential(k),
    "rademacher_martingale": signs,
    "iid_bernstein": lambda gen, k: gen.uniform(-SQRT3, SQRT3, k),
}


def draws(gen, law, k):
    if law in trng.NOISE_LAWS:
        return trng.noise(law, gen, k)
    return FAMILY_DRAWS[law](gen, k)


LAWS = [f.value for f in ProcessFamily] + list(trng.NOISE_LAWS)
# seeds and index ranges: lo > 0, the top of the 64-bit range, and negative
# values, which are masked to 64 bits
BLOCKS = [(7, 0, 5), (7, 3, 9), (MASK, MASK - 2, MASK + 2), (-1, -3, 2), (-(1 << 70), 5, 8)]


def sample_draws(gens, law):
    """Three odd-sized draws from each generator, the bytes of each."""
    return [[draws(gen, law, k).tobytes() for k in (3, 5, 1)] for gen in gens]


@pytest.mark.parametrize("law", LAWS)
@pytest.mark.parametrize("seed, lo, hi", BLOCKS)
def test_streams_draw_what_a_new_generator_per_index_draws(law, seed, lo, hi):
    got = sample_draws(trng.streams(seed, lo, hi), law)
    want = sample_draws((keyed(seed, i) for i in range(lo, hi)), law)
    assert len(got) == hi - lo and got == want


@pytest.mark.parametrize("seed, lo, hi", BLOCKS)
def test_stream_is_the_keyed_generator(seed, lo, hi):
    for i in range(lo, hi):
        a, b = trng.stream(seed, i), keyed(seed, i)
        assert a.random(9).tobytes() == b.random(9).tobytes()
        assert a.bit_generator.state["state"]["key"].tolist() == [seed & MASK, i & MASK]


def test_a_reset_clears_the_buffered_half_word():
    gens = trng.streams(11, 0, 3)
    gen = next(gens)
    # 3 signs drawn by integers read 3 of the 32-bit halves and keep the 4th
    gen.integers(0, 2, 3)
    assert gen.bit_generator.state["has_uint32"] == 1
    gen = next(gens)
    state = gen.bit_generator.state
    assert state["has_uint32"] == 0 and state["buffer_pos"] == 4
    assert state["state"]["counter"].tolist() == [0, 0, 0, 0]
    assert gen.integers(0, 2, 7).tobytes() == keyed(11, 1).integers(0, 2, 7).tobytes()


def test_streams_reuse_one_generator():
    gens = list(trng.streams(5, 0, 4))
    assert all(g is gens[0] for g in gens)


def philox_state(gen):
    """The Philox state as plain values: counter, buffer, buffer position
    and the buffered half-word (has_uint32, uinteger)."""
    state = gen.bit_generator.state
    return (
        state["state"]["counter"].tolist(),
        state["buffer"].tolist(),
        state["buffer_pos"],
        (state["has_uint32"], state["uinteger"]),
    )


@pytest.mark.parametrize("k", range(1, 9))
def test_signs_are_the_signs_integers_draws(k):
    for index in range(300):
        a, b = keyed(k, index), keyed(k, index)  # a: integers, b: the sign rule
        assert a.standard_normal(k).tobytes() == b.standard_normal(k).tobytes()
        want = a.integers(0, 2, k) * 2.0 - 1.0
        words = trng.sign_words(b, k)
        got = trng.signs(words, k)
        assert got.shape == want.shape == (k,)
        assert got.tobytes() == want.tobytes()
        # a big-endian copy of the words spells the same signs
        assert trng.signs(words.astype(">u8"), k).tobytes() == want.tobytes()
        *same_a, half_a = philox_state(a)
        *same_b, half_b = philox_state(b)
        assert same_a == same_b
        # after an odd k only integers holds a half-word (has_uint32 1); an
        # even k leaves it none, with a stale uinteger that nothing reads
        assert half_b == (0, 0) and half_a[0] == k % 2
        assert a.standard_exponential(k).tobytes() == b.standard_exponential(k).tobytes()
        assert philox_state(a)[:3] == philox_state(b)[:3]


@pytest.mark.parametrize("shape", [(100_000, 8), (3, 5), 7, 1])
def test_rademacher_noise_is_the_signs_integers_draws(shape):
    a, b = keyed(9, 2), keyed(9, 2)
    got = trng.noise("rademacher", a, shape)
    want = b.integers(0, 2, shape) * 2.0 - 1.0
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert philox_state(a)[:3] == philox_state(b)[:3]


def test_noise_refuses_an_unknown_law():
    with pytest.raises(ValidationError, match=re.escape(str(trng.NOISE_LAWS))):
        trng.noise("cauchy", trng.stream(0), 3)
