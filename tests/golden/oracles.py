"""Every fast path of tensorchain swapped for its slow oracle, for a check
that no output moves when none of them runs.

Usage: python tests/golden/oracles.py OUT

writes what ``workload_outputs.py OUT`` writes, every benchmark workload
config at seeds 1 and 4242, under :func:`slow_paths` with the exact cover
kept (``brute_cover`` is affordable only on spaces of a few points);
``diff -r -x manifest.json`` against the plain outputs must find nothing.
``tests/test_golden.py`` runs the golden cases with every swap.

The oracles are those the unit tests check each fast path against:
``tests/test_chaining.py::brute_cover``,
``tests/test_kernels.py::farthest_point_order_loop`` and
``tests/test_processes.py::oracle_weights``, and the plain forms below.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import string
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(Path(__file__).parent)]
import workload_outputs  # noqa: E402
from tensorchain import chaining, cli, empirical, kernels, processes, rng  # noqa: E402
from test_chaining import brute_cover  # noqa: E402
from test_kernels import farthest_point_order_loop  # noqa: E402
from test_processes import oracle_weights  # noqa: E402


def unbounded(mats, gauge):
    """[-inf, inf] for every matrix: ``_count`` and ``sup_norms`` eigensolve all."""
    shape = mats.shape[:-2]
    return np.full(shape, -np.inf), np.full(shape, np.inf)


def unbounded_sums(w, coords, v, reach, gauge=None):
    """[-inf, inf] for every weight row, and the pad scale: ``lambda_max_counts``
    forms every sum."""
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.abs(v) @ reach
    return np.full(scale.shape, -np.inf), np.full(scale.shape, np.inf), scale


def every_diagonal_block(diags):
    """Row maxima of the spectral norms of every diagonal block, each eigensolved."""
    side = np.arange(diags.shape[-1])
    blocks = np.zeros((*diags.shape, side.size), np.complex128)
    blocks[..., side, side] = diags
    return np.abs(np.linalg.eigvalsh(blocks)).max(axis=(1, 2))


def per_row_family_sups(family, seed, n_samples):
    """``sample_family_sups`` without the sign-row table: every row reduced."""
    w = rng.noise(family.noise, rng.stream(seed, 0), (n_samples, family.n))
    return empirical._family_sups(family, w)


def family_metrics(family, s_idx, t_idx):
    """(d1, d2) between two parameter tuples: d1 the max over spaces of the
    spectral norm of the parameter difference, d2 the quadratic mean of
    those norms, taken as d1 sqrt(mean((norms / d1)^2)) where the squares
    overflow."""
    diff = family.parameters[t_idx] - family.parameters[s_idx]
    norms = kernels.batch_spectral(np.ascontiguousarray(diff))
    d1 = float(norms.max())
    with np.errstate(over="ignore"):
        d2 = math.sqrt(np.mean(norms**2))
    if not math.isfinite(d2):
        d2 = d1 * math.sqrt(np.mean((norms / d1) ** 2))
    return d1, d2


def per_pair_family_space(family):
    """``family_space`` one pair at a time, by :func:`family_metrics`."""
    nt = family.t_count
    d1, d2 = np.zeros((nt, nt)), np.zeros((nt, nt))
    for s, t in itertools.combinations(range(nt), 2):
        a, b = family_metrics(family, s, t)
        d1[s, t] = d1[t, s] = a
        d2[s, t] = d2[t, s] = b
    return chaining.FiniteMetricSpace(nt, {"d1": d1, "d2": d2})


def uncertified(dist, dim, scale=None):
    """``_certify``'s metric, ``dist`` times ``scale`` if given, with no
    bound, so every triangle scan runs."""
    return chaining._Certified(dist if scale is None else scale * dist, np.inf)


def every_support(gram, xi, group=None):
    """The largest |eigenvalue - 1| over the blocks of every xi-subset, as
    ``tests/test_sensing.py::brute_rip`` scans, in one batch; the scan's
    capacity refusal kept."""
    kernels.check_scan_capacity(gram.shape[0], xi, group)
    subs = np.array(list(itertools.combinations(range(gram.shape[0]), xi)), np.int64)
    w = np.linalg.eigvalsh(gram[subs[:, :, None], subs[:, None, :]])
    return max(0.0, float((w[:, -1] - 1.0).max()), float((1.0 - w[:, 0]).max()))


def einsum_contract(weights, stack, out=None):
    """sum_k weights[..., k] stack[k] by ``np.einsum``, into ``out`` if given."""
    axes = string.ascii_lowercase[: stack.ndim - 1]
    return np.einsum(f"...z,z{axes}->...{axes}", weights, stack, out=out)


def integer_signs(law, gen, shape):
    """``rng.noise`` with its signs drawn by ``integers(0, 2)``."""
    if law == "rademacher":
        return gen.integers(0, 2, shape) * 2.0 - 1.0
    return _noise(law, gen, shape)


def block_mixed_sups(spec_subgauss, spec_subexp, seed, n_samples):
    """``sample_mixed_sups`` realizing every increment: each chunk of
    samples realized whole, X_0 subtracted in place (numpy copies the
    overlapping slice first) and reduced by ``kernels.sup_norms``."""
    specs = (spec_subgauss, spec_subexp)
    sups = np.empty(n_samples)
    step = 2 * spec_subgauss.index_count * spec_subgauss.basis_stack[0].size
    for sl in kernels.chunks(n_samples, step):
        block = processes._realize(specs, seed, sl.start, sl.stop)
        block -= block[:, :1]
        sups[sl] = kernels.sup_norms(block)
    return sups


class SampleBlocks:
    """``processes._Blocks`` a sample at a time: each trajectory contracted
    from its row of weights by ``np.einsum``, into a new array per block."""

    def __init__(self, spec, weights):
        self.spec, self.weights = spec, weights
        self.shape = (len(weights), spec.index_count, *spec.basis_stack.shape[1:])

    def __getitem__(self, sl):
        spec = self.spec
        return np.array([np.einsum("tk,kij->tij", spec.coefficients * w, spec.basis_stack)
                         for w in self.weights[sl]]).reshape(-1, *self.shape[1:])


def oracle_draw(specs, seed, lo, hi):
    return oracle_weights(specs, seed, hi, lo)


def brute_exact_cover(dist, u, best):
    return brute_cover(dist, u)


_noise = rng.noise
SWAPS = [
    (kernels, "_intervals", unbounded),
    (kernels, "_sum_intervals", unbounded_sums),
    (kernels, "sup_norms_of_diagonals", every_diagonal_block),
    (empirical, "sample_family_sups", per_row_family_sups),
    (empirical, "family_space", per_pair_family_space),
    (chaining, "_certify", uncertified),
    (processes, "_certify", uncertified),
    (kernels, "rip_scan", every_support),
    (cli, "sample_mixed_sups", block_mixed_sups),
    (kernels, "contract", einsum_contract),
    (processes, "_draw", oracle_draw),
    (processes, "_Blocks", SampleBlocks),
    (rng, "noise", integer_signs),
    (kernels, "farthest_point_order", farthest_point_order_loop),
]
COVER = (chaining, "_exact_cover_count", brute_exact_cover)


@contextlib.contextmanager
def slow_paths(cover=True):
    """Every fast path of ``SWAPS`` replaced by its oracle, and with
    ``cover`` the exact cover's branch and bound by ``brute_cover``; yields
    the count of calls of each oracle, keyed by the name it replaces."""
    swaps = SWAPS + [COVER] * cover
    kept = [getattr(module, name) for module, name, _ in swaps]
    calls = {f"{module.__name__}.{name}": 0 for module, name, _ in swaps}

    def counted(key, slow):
        def call(*args, **kwargs):
            calls[key] += 1
            return slow(*args, **kwargs)

        return call

    try:
        for (module, name, slow), key in zip(swaps, calls):
            setattr(module, name, counted(key, slow))
        yield calls
    finally:
        for (module, name, _), fast in zip(swaps, kept):
            setattr(module, name, fast)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.strip().splitlines()[3], file=sys.stderr)
        return 2
    with slow_paths(cover=False):
        return workload_outputs.main(args)


if __name__ == "__main__":
    raise SystemExit(main())
