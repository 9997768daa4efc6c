"""Hot numeric kernels, vectorized with numpy.

Each kernel has one implementation.  ``tests/test_kernels.py`` checks every
one against a plain-loop oracle.  Scratch memory of the batched kernels is
bounded by processing samples, supports or subsets in chunks.

The norm kernels evaluate a ``GaugeNorm`` on stacks of Hermitian matrices:
the increments of a process or of a family, whose tensors are Hermitian by
construction.  Spectral and nuclear norms come from the eigenvalues, max |w|
and sum |w|, and ``np.linalg.eigvalsh`` reads only the lower triangle of each
matrix.  Ensemble increments are reduced once per a < b pair, in
``np.triu_indices`` order.
"""

import math
from itertools import combinations

import numpy as np

from .tensor import GaugeNorm

# Cap on per-chunk scratch memory (complex entries).
_CHUNK_ENTRIES = 1 << 22

# rip_scan: relative slack on a Gershgorin bound, and the size of the first
# of a chunk's doubling eigensolve batches.
_RIP_SLACK = 1e-9
_RIP_FIRST_BATCH = 64


def _gauge_norms_stack(mats, gauge):
    """Gauge norms of a stack of Hermitian matrices (the last two axes)."""
    gauge = GaugeNorm.coerce(gauge)
    if gauge is GaugeNorm.FROBENIUS:
        return np.sqrt((mats.real**2 + mats.imag**2).sum(axis=(-2, -1)))
    w = np.linalg.eigvalsh(mats)  # ascending
    if gauge is GaugeNorm.SPECTRAL:
        return np.maximum(-w[..., 0], w[..., -1])
    return np.abs(w).sum(axis=-1)


def _increment_norms(trajs, a, b, gauge):
    """(samples, len(a)) gauge norms of X_a - X_b; ``b`` is aligned with ``a``
    or holds one index, which broadcasts.  A chunk's two gathers, X_a (the
    difference buffer) and X_b, hold at most _CHUNK_ENTRIES complex entries."""
    ns, _, d1, d2 = trajs.shape
    out = np.empty((ns, a.size))
    step = max(1, _CHUNK_ENTRIES // max(1, (a.size + b.size) * d1 * d2))
    for lo in range(0, ns, step):
        block = trajs[lo : lo + step]
        diff = block[:, a]
        diff -= block[:, b]
        out[lo : lo + step] = _gauge_norms_stack(diff, gauge)
    return out


def ensemble_pairwise_norms(trajs, gauge):
    """(samples, pairs) gauge norms of X_a - X_b, a < b in ``triu_indices`` order."""
    a, b = np.triu_indices(trajs.shape[1], 1)
    return _increment_norms(trajs, a, b, gauge)


def ensemble_norms_vs_ref(trajs, ref, gauge):
    """(samples, index) gauge norms of X_a - X_ref."""
    return _increment_norms(trajs, np.arange(trajs.shape[1]), np.array([ref]), gauge)


def batch_lambda_max(mats):
    """Largest eigenvalue of each Hermitian matrix in a stack."""
    return np.linalg.eigvalsh(mats)[..., -1]


def batch_spectral(mats):
    """Spectral norm, max |eigenvalue|, of each Hermitian matrix in a stack;
    ``eigvalsh`` reads the lower triangle."""
    return _gauge_norms_stack(mats, GaugeNorm.SPECTRAL)


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
