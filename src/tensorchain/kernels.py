"""Hot numeric kernels, vectorized with numpy.

Each kernel has one implementation.  ``tests/test_kernels.py`` checks every
one against a plain-loop oracle.  Scratch memory of the batched kernels is
bounded by processing samples, supports or subsets in chunks.

Gauge codes used by the norm kernels: 0 = frobenius, 1 = spectral,
2 = nuclear, all evaluated on the matrix unfolding.
"""

import math
from itertools import combinations

import numpy as np

GAUGE_FROBENIUS = 0
GAUGE_SPECTRAL = 1
GAUGE_NUCLEAR = 2

# Cap on per-chunk scratch memory (complex entries).
_CHUNK_ENTRIES = 1 << 22

# rip_scan: relative slack on a Gershgorin bound, and the size of the first
# of a chunk's doubling eigensolve batches.
_RIP_SLACK = 1e-9
_RIP_FIRST_BATCH = 64


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


def _lex_supports(ncols, xi, limit):
    """The xi-subsets of range(ncols) in lexicographic order, as (xi, <= limit)
    index arrays.

    The subset of rank r is read off the combinatorial number system:
    C(ncols, xi) - 1 - r = sum_j C(a_j, xi - j) with a_0 > a_1 > ..., each
    a_j the largest with C(a_j, xi - j) within what is left, and element j
    is ncols - 1 - a_j.  Table entries are capped at C(ncols, xi), which
    no remainder reaches; C(ncols, xi) itself must fit in an int64.
    """
    total = math.comb(ncols, xi)
    table = np.array(
        [[min(math.comb(a, m), total) for a in range(ncols)] for m in range(xi + 1)],
        np.int64,
    )
    for lo in range(0, total, limit):
        rest = total - 1 - np.arange(lo, min(total, lo + limit))
        cols = np.empty((xi, rest.size), np.int64)
        for j in range(xi):
            a = np.searchsorted(table[xi - j], rest, side="right") - 1
            rest -= table[xi - j][a]
            cols[j] = ncols - 1 - a
        yield cols


def rip_scan(gram, xi):
    """Largest |eigenvalue - 1| over every xi-by-xi principal block of gram.

    Every support is enumerated, in lexicographic chunks, but only the
    blocks that could beat the running maximum are eigensolved.  For the
    Hermitian matrix B that ``eigvalsh`` reads (the lower triangle of a
    block, real diagonal), Gershgorin's theorem gives
    |lambda - 1| <= g = max_i (|B_ii - 1| + sum_{j != i} |B_ij|).  The
    computed eigenvalues are exact for some B + E with ||E|| <= c xi eps ||B||
    and ||B|| <= 1 + g, and g itself is summed with relative error below
    xi eps; both stay far below the slack, so a block's computed deviation
    is at most g + _RIP_SLACK * (1 + g).  Each chunk eigensolves its
    supports in decreasing order of that inflated bound, in batches that
    start at _RIP_FIRST_BATCH and double, and stops at the first support
    whose inflated bound is below the running best.  A skipped block's
    computed deviation is below the best already found, so the result is the
    maximum over the same per-block ``eigvalsh`` values as a scan that
    eigensolves every block, to the last bit.
    """
    ncols = gram.shape[0]
    radius = np.abs(np.tril(gram, -1))
    radius += radius.T
    radius[np.diag_indices(ncols)] = np.abs(gram.diagonal().real - 1.0)
    limit = max(1, _CHUNK_ENTRIES // (xi * xi))
    best = 0.0
    for cols in _lex_supports(ncols, xi, limit):
        rows = radius.diagonal()[cols]
        for a, b in combinations(range(xi), 2):
            off = radius.take(cols[a] * ncols + cols[b])
            rows[a] += off
            rows[b] += off
        bound = rows.max(axis=0)
        bound += _RIP_SLACK * (1.0 + bound)
        live = np.flatnonzero(bound >= best)
        live = live[np.argsort(-bound[live])]
        ranked = -bound[live]  # ascending
        done, batch = 0, _RIP_FIRST_BATCH
        while True:
            stop = min(done + batch, np.searchsorted(ranked, -best, side="right"))
            if stop <= done:
                break
            subs = cols[:, live[done:stop]].T
            w = np.linalg.eigvalsh(gram[subs[:, :, None], subs[:, None, :]])
            dev = max(float((w[:, -1] - 1.0).max()), float((1.0 - w[:, 0]).max()))
            best = max(best, dev)
            done, batch = stop, 2 * batch
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
