"""Hot numeric kernels, vectorized with numpy.

Each kernel has one implementation.  ``tests/test_kernels.py`` checks every
one against a plain-loop oracle.  Scratch memory of the batched kernels is
bounded by processing samples, supports or subsets in chunks.

Gauge codes used by the norm kernels: 0 = frobenius, 1 = spectral,
2 = nuclear, all evaluated on the matrix unfolding.
"""

from itertools import combinations

import numpy as np

GAUGE_FROBENIUS = 0
GAUGE_SPECTRAL = 1
GAUGE_NUCLEAR = 2

# Cap on per-chunk scratch memory (complex entries).
_CHUNK_ENTRIES = 1 << 22


def _gauge_norms_stack(diff, gauge):
    """Gauge norms along the last two axes of a stacked array."""
    if gauge == GAUGE_FROBENIUS:
        return np.sqrt((diff.real**2 + diff.imag**2).sum(axis=(-2, -1)))
    sv = np.linalg.svd(diff, compute_uv=False)
    if gauge == GAUGE_SPECTRAL:
        return sv[..., 0]
    return sv.sum(axis=-1)


def _sample_chunks(ns, per_sample_entries):
    step = max(1, _CHUNK_ENTRIES // max(1, per_sample_entries))
    for lo in range(0, ns, step):
        yield lo, min(ns, lo + step)


def ensemble_pairwise_norms(trajs, gauge):
    """(samples, index, index) gauge norms of X_a - X_b for every pair."""
    ns, nt, d1, d2 = trajs.shape
    out = np.zeros((ns, nt, nt))
    for lo, hi in _sample_chunks(ns, nt * nt * d1 * d2):
        block = trajs[lo:hi]
        diff = block[:, :, None, :, :] - block[:, None, :, :, :]
        out[lo:hi] = _gauge_norms_stack(diff, gauge)
    return out


def ensemble_norms_vs_ref(trajs, ref, gauge):
    """(samples, index) gauge norms of X_a - X_ref."""
    ns, nt, d1, d2 = trajs.shape
    out = np.zeros((ns, nt))
    for lo, hi in _sample_chunks(ns, nt * d1 * d2):
        block = trajs[lo:hi]
        diff = block - block[:, ref : ref + 1, :, :]
        out[lo:hi] = _gauge_norms_stack(diff, gauge)
    return out


def batch_lambda_max(mats):
    """Largest eigenvalue of each Hermitian matrix in a stack."""
    return np.linalg.eigvalsh(mats)[..., -1]


def batch_spectral(mats):
    """Largest singular value of each matrix in a stack."""
    return np.linalg.svd(mats, compute_uv=False)[..., 0]


def rip_scan(gram, xi):
    """Largest |eigenvalue - 1| over every xi-by-xi principal block of gram."""
    ncols = gram.shape[0]
    best = 0.0
    chunk = []
    limit = max(1, _CHUNK_ENTRIES // (xi * xi))

    def flush(rows):
        nonlocal best
        subs = np.array(rows, dtype=np.int64)
        blocks = gram[subs[:, :, None], subs[:, None, :]]
        w = np.linalg.eigvalsh(blocks)
        best = max(best, float((w[:, -1] - 1.0).max()), float((1.0 - w[:, 0]).max()))

    for comb in combinations(range(ncols), xi):
        chunk.append(comb)
        if len(chunk) >= limit:
            flush(chunk)
            chunk = []
    if chunk:
        flush(chunk)
    return best


def farthest_point_order(dist):
    """Farthest-point ordering seeded at the 1-center, ties to the lowest index."""
    n = dist.shape[0]
    order = np.empty(n, np.int64)
    order[0] = int(np.argmin(dist.max(axis=1)))
    mind = dist[order[0]].copy()
    chosen = np.zeros(n, np.bool_)
    chosen[order[0]] = True
    for k in range(1, n):
        masked = np.where(chosen, -np.inf, mind)
        nxt = int(np.argmax(masked))
        order[k] = nxt
        chosen[nxt] = True
        np.minimum(mind, dist[nxt], out=mind)
    return order


def chain_sum(dist, members, offsets, weights):
    """sup_t sum_lev weights[lev] * d(t, level lev); level lev is
    members[offsets[lev]:offsets[lev + 1]]."""
    n = dist.shape[0]
    total = np.zeros(n)
    for lev in range(weights.shape[0]):
        if weights[lev] == 0.0:
            continue
        sel = members[offsets[lev] : offsets[lev + 1]]
        total += weights[lev] * dist[:, sel].min(axis=1)
    return float(total.max())


def gamma2_scan(dist, subs, w1):
    """min over subsets S in subs and roots t0 of sup_t d(t, t0) + w1 * d(t, S)."""
    n = dist.shape[0]
    best = np.inf
    step = max(1, _CHUNK_ENTRIES // (n * n))
    for lo in range(0, subs.shape[0], step):
        block = subs[lo : lo + step]
        msub = dist[:, block].min(axis=2).T  # (chunk, n)
        vals = (w1 * msub[:, :, None] + dist[None, :, :]).max(axis=1)
        best = min(best, float(vals.min()))
    return best


def greedy_cover(within):
    """Ball count of the greedy cover; within[c, t] says ball c holds t."""
    n = within.shape[0]
    covered = np.zeros(n, np.bool_)
    count = 0
    while not covered.all():
        gains = (within & ~covered[None, :]).sum(axis=1)
        pick = int(np.argmax(gains))
        covered |= within[pick]
        count += 1
    return count


def max_triangle_violation(dist):
    """max over i, j, k of d(i, j) - d(i, k) - d(k, j)."""
    worst = -np.inf
    for k in range(dist.shape[0]):
        v = dist - dist[:, k : k + 1] - dist[k : k + 1, :]
        worst = max(worst, float(v.max()))
    return worst
