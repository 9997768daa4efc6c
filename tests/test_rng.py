"""The re-keyed streams of ``rng.streams`` against a new generator per index.

The oracle builds Philox from its key, as numpy documents it, so these
tests also pin the state-dict layout that ``rng`` re-keys through.
"""

import numpy as np
import pytest

from tensorchain import rng as trng
from tensorchain.processes import ProcessFamily, _draw_scalars

MASK = (1 << 64) - 1


def keyed(seed, index):
    """A new generator for stream (seed, index), built from its key."""
    key = np.array([seed & MASK, index & MASK], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def draws(gen, law, k):
    if law in trng.NOISE_LAWS:
        return trng.noise(law, gen, k)
    return _draw_scalars(ProcessFamily(law), gen, k)


LAWS = [f.value for f in ProcessFamily] + list(trng.NOISE_LAWS)
# seeds and index ranges: lo > 0, the top of the 64-bit range, and negative
# values, which are masked to 64 bits
BLOCKS = [(7, 0, 5), (7, 3, 9), (MASK, MASK - 2, MASK + 2), (-1, -3, 2), (-(1 << 70), 5, 8)]


def sample_draws(gens, law):
    """Three odd-sized draws from each generator, the bytes of each; the
    odd-sized integers draws leave a buffered half-word behind."""
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
    # a subexponential sample over 3 terms draws 3 of the 32-bit halves
    _draw_scalars(ProcessFamily.SUBEXPONENTIAL_LINEAR, gen, 3)
    assert gen.bit_generator.state["has_uint32"] == 1
    gen = next(gens)
    state = gen.bit_generator.state
    assert state["has_uint32"] == 0 and state["buffer_pos"] == 4
    assert state["state"]["counter"].tolist() == [0, 0, 0, 0]
    assert gen.integers(0, 2, 7).tobytes() == keyed(11, 1).integers(0, 2, 7).tobytes()


def test_streams_reuse_one_generator():
    gens = list(trng.streams(5, 0, 4))
    assert all(g is gens[0] for g in gens)
