"""Hot numeric kernels, vectorized with numpy.

Each kernel has one implementation.  ``tests/test_kernels.py`` checks every
one against a plain-loop oracle.  Every batched loop in the package, here
and in the callers that realize or sum per-sample stacks, takes its blocks
of samples, supports, subsets or radii from :func:`chunks`, under the one
budget ``_CHUNK_ENTRIES``: no stack of one matrix per sample is held whole.
The increment loops (``_map_increments``) read each chunk's block as
``trajs[sl]``, from an array or from an ensemble's former, which forms the
block there; a loop writes its chunks into buffers it reuses and drops when
it returns, and the weighted-sum chunks here are each dropped before the
next is formed.  Every weighted sum of a stack that is formed, realized
trajectories and empirical values included, is formed by :func:`contract`:
one ordered multiply-add over k on real views, bit for bit ``einsum``, in
row blocks of a chunk's 1 / _CONTRACT_SHARE so that its product temporary
stays in cache.  ``lambda_max_counts`` first bounds each sum from its
weights (``_sum_intervals``) and forms and eigensolves only the sums those
bounds leave undecided; ``processes.sample_mixed_sups`` bounds each
increment of its trajectories the same way and forms only those
``_top_then_ties`` selects.

The package's Hermitian reductions read their spectra here, from stacks
built of matrices taken through ``tensor.hermitian_part`` or formed from
real diagonals by :func:`diagonal_blocks`, the one place that forms
diagonal blocks.  Spectral and nuclear norms come from the eigenvalues,
max |w| and sum |w|, and ``np.linalg.eigvalsh`` reads only the lower
triangle of each matrix.
Ensemble increments are reduced once per a < b pair, in ``np.triu_indices``
order.

Bound first: threshold counts eigensolve only the matrices the padded
trace bounds of ``_intervals`` leave undecided, bit for bit the full
result; callers reading every value (``ensemble.csv``) keep the full path.
Both interval kernels share one Wolkowicz-Styan body, ``_trace_bounds``;
``rip_scan`` bounds each support's |lambda - 1| by the same formula, summed
in place over its supports (``_trace_deviations``).
An empirical family's per-sample maxima come from
``sup_norms_of_diagonals`` (real diagonals, max |diag| padded by
``_SLACK``) on a chunk its caller formed: per sample, ``_top_then_ties``
eigensolves the block of largest bound, then those whose bound reaches it.

Four loops are shared among the usable cores by :func:`map_blocks`, each
over its ``chunks`` slices in order: the increment chunks of
``increment_counts`` and ``ensemble_norms_vs_ref`` (``_map_increments``,
whose forked shares form their own blocks), the sample blocks of
``processes.sample_mixed_sups`` and the pairs of ``empirical.family_space``.
Each loop states an item's work; one constant, ``_FORK_WORK``, decides from
sizes alone whether it forks.  No result depends on the number of processes.
"""

import functools
import math
import os
import pickle
import warnings
from itertools import islice

import numpy as np

from .errors import CapacityError, WorkerError
from .tensor import _FRO_RANGE, GaugeNorm, root_sum_squares

# The one chunk budget in complex entries (8 MB), read only by chunks().  It
# trades time for memory: on a 2-core AMD EPYC, one BLAS thread, a 100-point
# greedy_cover curve takes 23.7 ms at 1 << 22, 24.8 at 1 << 20, 27.5 here and
# 36.2 at 1 << 18; a round of the mc-deep configs peaks at 135, 86, 80, 64 MB.
_CHUNK_ENTRIES = 1 << 19

# The processes a map_blocks loop is shared among: the CPUs this process may
# run on (``taskset`` sets them), one where os.fork is missing.
_WORKERS = (len(os.sched_getaffinity(0))
            if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") else 1)
# map_blocks forks only for shares of _FORK_WORK entries of work or more (0:
# every share).  A fork and its page faults cost about 10 ms of CPU in a 70 MB
# process on a 2-vCPU KVM guest, and the mapped loops reduce about 0.08 us an
# entry (family_space 10-11 us a pair of 128, index-wide's simulate 1.0 ms a
# sample of 12 816): a share of 2^18 entries takes about 21 ms, twice a fork.
_FORK_WORK = 1 << 18

# contract: its product temporary holds 1 / _CONTRACT_SHARE of a chunk, 1 024
# rows of a 4 x 4 matrix (256 KB).  On a 2-core AMD EPYC it formed 32 768
# sums of 8 such terms in 15.2 ms at 32, 15.6 at 16, 16.5 at 64 and 23.0 at 4.
_CONTRACT_SHARE = 32

# Relative slack on the certified bounds of rip_scan and _intervals.
_SLACK = 1e-9
# rip_scan: the size of the first of a chunk's doubling eigensolve batches.
_RIP_FIRST_BATCH = 64
# The exact-scan budget in supports: check_scan_capacity refuses a scan that
# bounds more, and rip_scan raises before it eigensolves more.
SUPPORT_BUDGET = 1_000_000

# _popcount: shift counts and the SWAR masks of 1-, 2- and 4-bit fields.
_U1, _U2, _U4, _U56 = (np.uint64(s) for s in (1, 2, 4, 56))
_M1 = np.uint64(0x5555555555555555)
_M2 = np.uint64(0x3333333333333333)
_M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
_H01 = np.uint64(0x0101010101010101)


def chunks(count, entries, workers=1):
    """Slices of range(count), items of ``entries`` complex entries: each holds
    at most _CHUNK_ENTRIES entries, or one item where that alone is more.
    For ``workers`` processes (``map_blocks``) their count is rounded up to a
    multiple of ``workers``, or to ``count``, and their sizes differ by at
    most one item."""
    step = max(1, _CHUNK_ENTRIES // max(1, entries))
    if workers > 1:
        blocks = -(-count // step)
        blocks = min(count, -(-blocks // workers) * workers)
        return (slice(count * k // blocks, count * (k + 1) // blocks) for k in range(blocks))
    return (slice(lo, min(lo + step, count)) for lo in range(0, count, step))


def map_blocks(fn, count, entries, work=None):
    """The lists ``fn(share)`` joined in order, for the W shares of
    consecutive slices of chunks(count, entries, W).  W is min(_WORKERS,
    count, count * work // _FORK_WORK), at least 1 (_FORK_WORK 0: no limit),
    ``work`` an item's work in entries reduced, by default ``entries``.

    W - 1 children are forked, each to run ``fn`` over its share and send
    back its list, or the exception that stopped it, pickled through a
    pipe; a child always leaves by ``os._exit``.  This process runs the
    first share itself, and any share whose fork fails, then reads and
    reaps the children in order and raises the first exception one sent, or
    a :class:`WorkerError` with the wait status of one that sent no result
    or did not exit 0; once it raises, the children left are killed.  Every
    child is reaped before the map returns or raises.  No result depends on
    W, provided ``fn`` returns its share's values and changes nothing else:
    a child's other effects are lost.
    """
    work = entries if work is None else work
    limit = count * work // _FORK_WORK if _FORK_WORK else count
    workers = max(1, min(_WORKERS, count, limit))
    slices = list(chunks(count, entries, workers))
    cuts = [len(slices) * k // workers for k in range(workers + 1)]
    shares = [slices[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    children = []  # per later share: (pid, read end of its pipe); None if unforked or reaped
    try:
        for share in shares[1:]:
            children.append(_fork(fn, share))
        results = fn(shares[0])
        for k, share in enumerate(shares[1:]):
            if children[k] is None:
                results += fn(share)
                continue
            pid, pipe = children[k]
            with pipe:
                data = pipe.read()
            children[k] = None
            status = os.waitpid(pid, 0)[1]
            if status or not data:
                code = os.waitstatus_to_exitcode(status)
                how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
                raise WorkerError(f"worker {pid} ended without a result: {how}")
            done, value = pickle.loads(data)
            if not done:
                raise value
            results += value
        return results
    except BaseException:
        import signal  # here, not at the top: no CLI start loads it

        for pid, _ in filter(None, children):  # their results are not read
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, pipe in filter(None, children):
            pipe.close()
            os.waitpid(pid, 0)


def _fork(fn, share):
    """Fork a child that sends (True, fn(share)), or (False, the exception),
    pickled through a pipe; return its pid and the read end of the pipe, or
    None if the fork fails."""
    global _WORKERS
    read, write = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12 warns of a fork with threads alive, such as
            # OpenBLAS's pool; OpenBLAS stops its pool in its own fork
            # handler, and the package starts no thread
            warnings.filterwarnings("ignore", ".*use of fork", DeprecationWarning)
            pid = os.fork()
    except OSError:  # no process to spare: the share runs here
        os.close(read)
        os.close(write)
        return None
    if pid:
        os.close(write)
        return pid, open(read, "rb")
    try:
        _WORKERS = 1  # a map inside fn runs in this child
        os.close(read)
        try:
            out = (True, fn(share))
        except BaseException as exc:
            out = (False, exc)
        try:
            data = pickle.dumps(out, pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:
            error = WorkerError(f"a worker's result does not pickle: {exc!r}")
            data = pickle.dumps((False, error))
        with open(write, "wb") as fh:
            fh.write(data)
    finally:
        os._exit(0)


def gauge_norms(mats, gauge):
    """Gauge norms of a stack of Hermitian matrices (the last two axes)."""
    gauge = GaugeNorm.coerce(gauge)
    if gauge is GaugeNorm.FROBENIUS:
        return root_sum_squares(mats, 2)
    w = np.linalg.eigvalsh(mats)  # ascending
    if gauge is GaugeNorm.SPECTRAL:
        return np.maximum(-w[..., 0], w[..., -1])
    return np.abs(w).sum(axis=-1)


def _trace_bounds(diag, off, gauge, pad=None):
    """Padded [lower, upper] of lambda_max (``gauge`` None) or of the spectral
    or nuclear norm of each Hermitian B with real diagonal ``diag`` (..., n)
    and off = 2 sum_{i > j} |B_ij|^2, and ||B||_F; ``pad`` defaults to
    _SLACK ||B||_F.

    With m = tr B / n and s^2 = ||B - m I||_F^2 / n, read from diag - m and
    ``off`` (not from ||B||_F^2 - n m^2, which cancels), Wolkowicz and Styan
    give m + s / sqrt(n - 1) <= lambda_max <= m + s sqrt(n - 1); also
    max_i B_ii <= lambda_max, ||B||_F / sqrt(n) <= ||B|| <= ||B||_F and
    ||B||_F <= ||B||_* <= sqrt(n) ||B||_F.  The nuclear pad is sqrt(n) pad.
    """
    n = diag.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):  # the wild B: callers widen them
        m = diag.mean(axis=-1)
        fro = np.sqrt((diag**2).sum(axis=-1) + off)
        s = np.sqrt((((diag - m[..., None]) ** 2).sum(axis=-1) + off) / n)
        wide, narrow = s * math.sqrt(n - 1), s / math.sqrt(max(n - 1, 1))
        pad = _SLACK * fro if pad is None else pad
        if gauge is None:
            lo, hi = np.maximum(m + narrow, diag.max(axis=-1)) - pad, m + wide + pad
        elif gauge is GaugeNorm.SPECTRAL:
            lo, hi = np.maximum(abs(m) + narrow, fro / math.sqrt(n)) - pad, abs(m) + wide + pad
        else:
            lo, hi = fro - math.sqrt(n) * pad, math.sqrt(n) * (fro + pad)
    return lo, hi, fro


def _intervals(mats, gauge):
    """Padded [lower, upper] of a gauge norm of each Hermitian B, as read by
    ``eigvalsh``: lower triangle, real diagonal.

    The bounds are those of ``_trace_bounds``; ``gauge`` None, which no
    kernel passes, gives its lambda_max bounds, the ones ``_sum_intervals``
    pads, for the tests to check against ``eigvalsh``.  The pad, _SLACK ||B||_F
    (times sqrt(n) for nuclear), is far above eigvalsh's backward error.
    Outside _FRO_RANGE the squares may under- or overflow, so a nonzero B
    whose computed ||B||_F falls there (or is not finite) gets [-inf, inf].
    """
    if gauge is GaugeNorm.FROBENIUS:  # exact: the gauge_norms value
        return (gauge_norms(mats, gauge),) * 2
    n = mats.shape[-1]
    diag = mats.diagonal(0, -2, -1).real
    low = mats[(..., *np.tril_indices(n, -1))]
    with np.errstate(over="ignore", invalid="ignore"):  # the wild B, reset below
        off = 2.0 * (low.real**2 + low.imag**2).sum(axis=-1)
    lo, hi, fro = _trace_bounds(diag, off, gauge)
    wild = ~((fro >= _FRO_RANGE[0]) & (fro <= _FRO_RANGE[1]))
    if wild.any():  # a zero B keeps its exact [0, 0]
        wild[wild] = (diag[wild] != 0).any(axis=-1) | (low[wild] != 0).any(axis=-1)
        lo[wild], hi[wild] = -np.inf, np.inf
    return lo, hi


def _count(mats, thr, gauge):
    """(k, *P) counts of the ``gauge`` norms of the chunk ``mats`` (c, *P,
    n, n) >= ``thr`` (k, 1, *P), eigensolving only matrices with a
    threshold in their interval."""
    lo, hi = _intervals(mats, gauge)
    thr_c = np.broadcast_to(thr, (len(thr), *lo.shape))
    hit = lo >= thr_c
    sel = np.nonzero(~(hit | (hi < thr_c)).all(axis=0))
    hit[(slice(None), *sel)] = gauge_norms(mats[sel], gauge) >= thr_c[(slice(None), *sel)]
    return hit.sum(axis=1)


def _reuse(held, key, shape, dtype):
    """A ``shape`` array of ``dtype``: the leading rows of the buffer
    ``held[key]``, made anew only when it has fewer rows, so that the chunks
    of one loop share it."""
    buf = held.get(key)
    if buf is None or len(buf) < shape[0]:
        buf = held[key] = np.empty(shape, dtype)
    return buf[: shape[0]]


def _increments(block, a, b, held):
    """X_a - X_b of a block of samples, written into the buffer
    ``held["diff"]`` with X_b gathered into ``held["other"]`` (``_reuse``).
    X_a is gathered too, unless ``a`` is None, every index in order: then
    it is read where it lies, and the subtraction is the one pass."""
    n, side = len(block), block.shape[2:]
    other = _reuse(held, "other", (n, b.size, *side), block.dtype)
    np.take(block, b, axis=1, out=other, mode="clip")  # "raise" would buffer out
    diff = _reuse(held, "diff", (n, block.shape[1] if a is None else a.size, *side), block.dtype)
    xa = block if a is None else np.take(block, a, axis=1, out=diff, mode="clip")
    return np.subtract(xa, other, out=diff)


def _map_increments(trajs, a, b, reduce, fold=list):
    """The lists fold(reduce(X_a - X_b) of each chunk in order) of the shares
    of samples that :func:`map_blocks` cuts, joined in order; ``b`` is
    aligned with ``a`` or holds one index, which broadcasts, and ``a`` None
    is every index.  A chunk reads its block as ``trajs[sl]``: a view of an
    array, or the block that an ensemble's former
    (``processes.Ensemble.blocks``) forms from its weights.  The entries
    ``chunks`` counts are that block and the chunk's two gathers, X_a (the
    difference buffer) and X_b; the gathers reuse two buffers, held as long
    as the loop, and each chunk is reduced before the next is formed."""
    count = trajs.shape[1] if a is None else a.size
    step = (trajs.shape[1] + count + b.size) * math.prod(trajs.shape[2:])
    held = {}  # a forked share forms into its own copy
    return map_blocks(
        lambda share: fold(reduce(_increments(trajs[sl], a, b, held)) for sl in share),
        trajs.shape[0], step,
    )


def increment_counts(trajs, a, b, thresholds, gauge):
    """(k, len(a)) counts of samples with ||X_a - X_b|| >= ``thresholds`` (k,
    len(a)); a process holds its share's running total and one chunk's."""
    thr, gauge = np.asarray(thresholds, np.float64)[:, None], GaugeNorm.coerce(gauge)
    return sum(_map_increments(trajs, a, b, lambda d: _count(d, thr, gauge), lambda c: [sum(c)]))


def _top_then_ties(upper, solve):
    """Row maxima of values bounded above by ``upper`` (rows, items): per row
    the item of largest bound is solved, then, in one more call if any is
    left, every item whose bound reaches that value; any other is below its
    bound.  ``solve(rows, items)`` returns the values at those indices."""
    rows, top = np.arange(len(upper)), upper.argmax(axis=1)
    vals = np.full(upper.shape, -np.inf)
    vals[rows, top] = solve(rows, top)
    live = ~(upper < vals[rows, top][:, None])
    live[rows, top] = False
    if live.any():
        vals[live] = solve(*np.nonzero(live))
    return vals.max(axis=1)


def sup_norms_of_diagonals(diags):
    """(samples,) maxima over t of ``batch_spectral`` of the blocks with
    real diagonals ``diags`` (samples, t, D), each eigensolved as its
    :func:`diagonal_blocks` block.

    In exact arithmetic a block's norm is max |diag|.  ``eigvalsh`` returns
    the diagonal as it is inside LAPACK's unscaled range (about 1e-146 to
    1e146) and within a few ulps of it outside, where ``zheevd`` scales the
    block, so max |diag| padded by _SLACK bounds the computed norm; the
    blocks are selected by ``_top_then_ties`` on that bound."""
    upper = np.abs(diags).max(axis=-1) * (1.0 + _SLACK)
    return _top_then_ties(upper, lambda rows, t: batch_spectral(diagonal_blocks(diags[rows, t])))


def diagonal_blocks(diags):
    """The complex (..., D, D) blocks with real diagonals ``diags`` (..., D)
    and zeros off the diagonal."""
    side = np.arange(diags.shape[-1])
    blocks = np.zeros((*diags.shape, side.size), np.complex128)
    blocks[..., side, side] = diags
    return blocks


def ensemble_pairwise_norms(trajs, gauge):
    """(samples, pairs) gauge norms of X_a - X_b, a < b in ``triu_indices`` order."""
    a, b = np.triu_indices(trajs.shape[1], 1)
    return np.concatenate(_map_increments(trajs, a, b, lambda d: gauge_norms(d, gauge)))


def ensemble_norms_vs_ref(trajs, ref, gauge):
    """(samples, index) gauge norms of X_a - X_ref."""
    b = np.array([ref])
    return np.concatenate(_map_increments(trajs, None, b, lambda d: gauge_norms(d, gauge)))


def batch_lambda_max(mats):
    """Largest eigenvalue of each Hermitian matrix in a stack."""
    return np.linalg.eigvalsh(mats)[..., -1]


def contract(weights, stack, out=None):
    """sum_k weights[..., k] stack[k], shape weights.shape[:-1] + stack.shape[1:],
    for real ``weights`` and a real or complex ``stack``; written into
    ``out``, a C-contiguous array of that shape, when one is given (its
    values are not read).

    Each output entry is 0 + w_0 s_0 + w_1 s_1 + ... in the order of k, on
    real views of a complex stack.  That is bit for bit ``np.einsum`` over
    k: it multiplies by w + 0j, whose extra zero products can flip only the
    sign of a zero product, and a sum begun at +0 drops that sign.  The
    rows of the output, one per weight vector, are formed in ``chunks`` of
    1 / _CONTRACT_SHARE of the budget, so the product temporary, one for
    the call, stays in cache."""
    if out is None:
        out = np.empty((*weights.shape[:-1], *stack.shape[1:]), stack.dtype)
    rows = weights.reshape(-1, weights.shape[-1])
    terms = np.ascontiguousarray(stack).reshape(len(stack), -1).view(np.float64)
    sums = out.reshape(len(rows), -1).view(np.float64)
    prod = None
    for sl in chunks(len(rows), _CONTRACT_SHARE * stack[0].size):
        part, w = sums[sl], rows[sl]
        if prod is None:  # the first chunk is the largest
            prod = np.empty_like(part)
        tmp = prod[: len(part)]
        for k, term in enumerate(terms):
            np.multiply(w[:, k, None], term, out=tmp)
            if k:
                part += tmp
            else:  # w_0 s_0 + 0 is 0 + w_0 s_0: a -0 product is summed to +0
                np.add(tmp, 0.0, out=part)
    return out


def _coordinates(stack):
    """(K, n * n) real coordinates of each matrix of ``stack`` (K, n, n) as
    ``eigvalsh`` reads it: the real diagonal, then the real and the
    imaginary parts of the strict lower triangle in ``tril_indices`` order;
    and (K,) the Frobenius norms of those Hermitian matrices."""
    n = stack.shape[-1]
    low = stack[(slice(None), *np.tril_indices(n, -1))]
    coords = np.concatenate([stack.diagonal(0, -2, -1).real, low.real, low.imag], axis=1)
    fro = root_sum_squares(coords * np.repeat([1.0, math.sqrt(2.0)], [n, n * n - n]), 1)
    return coords, fro


def _sum_intervals(w, coords, v, reach, gauge=None):
    """Padded [lower, upper] of lambda_max (``gauge`` None) or of the
    spectral norm, as ``eigvalsh`` computes it, of each Hermitian B near a
    sum Y = sum_k w_k S_k, read off the weights, and the pad scale A of
    each.  The rows of ``w`` (c, K) weigh ``coords`` (..., K, n * n), the
    ``_coordinates`` of the S_k, one stack or one per leading index, and the
    bounds have the shape (..., c).  The caller supplies A = |v| @ reach,
    ``v`` (..., K) and ``reach`` (K,) or (K, c): it must bound
    sum_k |w_k| ||S_k||_F and the gap ||B - Y||_F <= (K + 3) eps A.

    One BLAS product of coords and w gives the coordinates of Y, and
    ``_trace_bounds`` bounds lambda_max(Y), or ||Y||, padded by
    (_SLACK + 8 (K + n^2) eps) A as computed.  The pad covers every gap to
    the computed value:

    - each coordinate of Y is a dot product of length K; in any summation
      order, with or without FMA, it is within gamma_K = K u / (1 - K u) <=
      K eps of the sum of its |products| (Higham, Accuracy and Stability of
      Numerical Algorithms, 3.1); with two rounded factors per product, the
      computed Y is within (K + 2) eps A of Y in Frobenius norm, and so
      within (2 K + 5) eps A of B;
    - by Weyl, lambda_max and the spectral norm move by at most that;
    - ``eigvalsh`` returns lambda_max(B + E) with ||E|| <= c n eps ||B||,
      and the trace sums of ``_trace_bounds`` round within c n^2 eps A:
      both lie far under _SLACK A / 2, as in ``_intervals``;
    - the computed A is within (K + n^2 + 4) eps of A, relatively, so the
      pad is at least (_SLACK / 2 + 4 (K + n^2) eps) A.

    Two callers supply ``v`` and ``reach``:

    - ``lambda_max_counts``: B is the sum ``contract`` forms from the rows
      of ``w`` and the stack of the S_k, and A = sum_k |w_k| ||S_k||_F
      (``v`` is ``w``, ``reach`` the norms).  Each entry of B is, like Y's
      coordinates, a dot product of length K of products rounded once:
      ||B - Y||_F <= (K + 1) eps A.
    - ``processes.sample_mixed_sups``: B is an increment X_t - X_0 of a sum
      of two components.  Each X is formed by ``contract`` from the weights
      c_k(t) v_k over the bases T_k of the components, one sum per
      component, and the two parts are added; then X_0 is subtracted.  The
      rows of ``w`` are the steps c_k(t) - c_k(0), ``coords`` the
      coordinates of S_k = v_k T_k per sample, and
      A = sum_k |v_k| (|c_k(t)| + |c_k(0)|) ||T_k||_F (``v`` the sample
      weights, ``reach`` the factors after |v_k|).  An entry of X_t or X_0
      is K products rounded twice each, summed in K - 1 additions: within
      (K + 2) eps of its sum of |products|.  Their sum over both is at most
      A in Frobenius norm, and the subtraction adds eps |X_t - X_0|, so
      ||B - Y||_F <= (K + 3) eps A.

    The argument needs normal-range squares and products, so a row whose
    computed A falls outside _FRO_RANGE (below it, the square of a
    cancelled coordinate of Y underflows and s collapses), or whose bounds
    are not finite, gets [-inf, inf].
    """
    n = math.isqrt(coords.shape[-1])
    slack = _SLACK + 8 * (w.shape[1] + n * n) * np.finfo(np.float64).eps
    with np.errstate(over="ignore", invalid="ignore"):  # the wild rows, reset below
        y = np.swapaxes(coords, -1, -2) @ w.T  # (..., n * n, c): a coordinate's sums contiguous
        scale = np.abs(v) @ reach
        off = 2.0 * (y[..., n:, :] ** 2).sum(axis=-2)
    lo, hi, _ = _trace_bounds(np.swapaxes(y[..., :n, :], -1, -2), off, gauge, slack * scale)
    sure = (scale >= _FRO_RANGE[0]) & (scale <= _FRO_RANGE[1])
    wild = ~(sure & np.isfinite(lo) & np.isfinite(hi))
    lo[wild], hi[wild] = -np.inf, np.inf
    return lo, hi, scale


def lambda_max_counts(weights, stack, thresholds):
    """(k,) counts of samples s with lambda_max(sum_j weights[s, j] stack[j])
    >= each threshold, as ``eigvalsh`` computes it on the sum ``contract``
    forms.  Per ``chunks`` block of weights, ``_sum_intervals`` bounds each
    sum from its weights alone, and only the rows with a threshold inside
    their interval are formed and eigensolved."""
    thr = np.asarray(thresholds, np.float64)[:, None]
    coords, fro = _coordinates(stack)
    counts = np.zeros(len(thr), np.int64)
    for b in chunks(len(weights), stack[0].size):
        w = weights[b]
        lo, hi, _ = _sum_intervals(w, coords, w, fro)
        hit = lo >= thr
        todo = ~(hit | (hi < thr)).all(axis=0)
        counts += hit[:, ~todo].sum(axis=1)
        if todo.any():
            counts += (batch_lambda_max(contract(w[todo], stack)) >= thr).sum(axis=1)
    return counts


def batch_spectral(mats):
    """Spectral norm, max |eigenvalue|, of each Hermitian matrix in a stack;
    ``eigvalsh`` reads the lower triangle."""
    return gauge_norms(mats, GaugeNorm.SPECTRAL)


def _lex_supports(ncols, xi, start=0):
    """The xi-subsets of range(ncols) in lexicographic order, as (xi, chunk)
    index arrays, one per ``chunks`` slice of the ranks from the ``start``-th on.

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
    for ranks in islice(chunks(total, xi * xi), start, None):
        rest = total - 1 - np.arange(ranks.start, ranks.stop)
        cols = np.empty((xi, rest.size), np.int64)
        for j in range(xi):
            a = np.searchsorted(table[xi - j], rest, side="right") - 1
            rest -= table[xi - j][a]
            cols[j] = ncols - 1 - a
        yield cols


def check_scan_capacity(ncols, xi, group=None):
    """Refuse a :func:`rip_scan` that bounds more than :data:`SUPPORT_BUDGET`
    supports, and return ``head``: the scan takes its supports of
    k = min(xi, ncols) columns from ``_lex_supports(ncols - head, k - head)``,
    all C(ncols, k) of them, or with a translation ``group`` (head 1) the
    C(ncols - 1, k - 1) that hold column 0.  That count C(n, m), n = ncols -
    head and m = k - head, may have millions of digits: it is built by
    C(n, i + 1) = C(n, i) (n - i) / (i + 1), rising for i < min(m, n - m),
    only until it passes the budget."""
    head = 0 if group is None else 1
    n, m = ncols - head, min(xi, ncols) - head
    count, i = 1, 0
    while count <= SUPPORT_BUDGET and i < min(m, n - m):
        count, i = count * (n - i) // (i + 1), i + 1
    if count > SUPPORT_BUDGET:
        raise CapacityError(
            f"the scan bounds more than the exact-scan budget of {SUPPORT_BUDGET} supports"
        )
    return head


def _trace_deviations(shift, sq, cols, pairs):
    """The Wolkowicz-Styan bound of ``_trace_bounds``, |m| + s sqrt(xi - 1), on
    max |lambda - 1| of the block H on each support of ``cols`` (xi, k), summed
    in place over its rows: m and s^2 are the mean and the variance of
    ``shift``, Re H_ii - 1, with ``sq``, 2 |H_ij|^2, at the flat indices
    ``pairs`` of ``_support_chunks`` added into s^2.  Not finite: +inf."""
    dev = shift[cols]
    with np.errstate(over="ignore", invalid="ignore"):  # wild H: +inf or NaN, set below
        mean = dev.mean(axis=0)
        dev -= mean
        bound = np.square(dev, out=dev).sum(axis=0)
        for flat in pairs:
            bound += sq.take(flat)
        bound *= (cols.shape[0] - 1) / cols.shape[0]
        np.sqrt(bound, out=bound)
        bound += np.abs(mean)
    bound[np.isnan(bound)] = np.inf  # so that its support is eigensolved
    return bound


def _support_chunks(ncols, xi, head, start=0):
    """(cols, pairs) per ``_lex_supports`` chunk from the ``start``-th on of
    the supports a :func:`rip_scan` of ``xi`` of ``ncols`` columns bounds
    (``head`` from :func:`check_scan_capacity`): ``cols`` (xi, k), column 0
    put first for a group scan, and the flat indices ``pairs`` (xi (xi - 1)
    / 2, k) of their pairs, cols[a] * ncols + cols[b] for a < b in
    ``combinations`` order; both read-only."""
    for cols in _lex_supports(ncols - head, xi - head, start):
        if head:  # 0, then xi - 1 of the columns 1 .. N - 1
            cols = np.vstack([np.zeros((1, cols.shape[1]), np.int64), cols + 1])
        a, b = np.triu_indices(xi, 1)  # the combinations order
        pairs = cols[a] * ncols + cols[b]
        cols.flags.writeable = pairs.flags.writeable = False
        yield cols, pairs


@functools.lru_cache(maxsize=1)
def _first_chunk(ncols, xi, head, entries):
    """The first of ``_support_chunks(ncols, xi, head)``, None if there is
    none, kept between scans.  ``entries``, the ``_CHUNK_ENTRIES`` that sizes
    the chunk, is read only as part of the key."""
    return next(_support_chunks(ncols, xi, head), None)


def _scan_chunks(ncols, xi, head):
    """Every ``_support_chunks(ncols, xi, head)``: the kept first chunk, then
    any later chunk rebuilt.  A scan of one chunk, such as the C(64, 3) =
    41 664 supports of xi 3 on 64 columns, enumerates its supports once for
    a run of scans of one shape; between scans at most one chunk is kept,
    within the ``chunks`` budget."""
    first = _first_chunk(ncols, xi, head, _CHUNK_ENTRIES)
    if first is not None:
        yield first
        if first[0].shape[1] < math.comb(ncols - head, xi - head):
            yield from _support_chunks(ncols, xi, head, start=1)


def _minus(a, b, group):
    """Row-major index of a - b in Z_{d_1} x ... x Z_{d_k}, ``group`` the d's;
    a and b broadcast."""
    parts = zip(np.unravel_index(a, group), np.unravel_index(b, group), group)
    return np.ravel_multi_index([(x - y) % d for x, y, d in parts], group)


def _circulant_gap(gram, group):
    """delta = max_{j, k} |H[j, k] - H[j - k, 0]| over ``group``, H the
    Hermitian matrix eigvalsh reads from gram; in row chunks."""
    ncols = gram.shape[0]
    first = gram[:, 0].copy()  # H[:, 0]
    first[0] = first[0].real
    gap = 0.0
    for sl in chunks(ncols, ncols):
        j, k = np.arange(sl.start, sl.stop)[:, None], np.arange(ncols)
        h = np.where(j > k, gram[sl], gram[:, sl].T.conj())
        h[j == k] = h[j == k].real
        gap = max(gap, float(np.abs(h - first[_minus(j, k, group)]).max()))
    return gap


def _canonical(cols, group):
    """Whether each support of ``cols`` (xi, k), all holding 0, is the
    lexicographically least of its orbit's supports holding 0, S - s for s in S."""
    back = _minus(cols[None], cols[:, None], group)  # (xi shifts, xi, k)
    back.sort(axis=1)
    diff = back - cols[None]
    first = (diff != 0).argmax(axis=1)
    return (np.take_along_axis(diff, first[:, None], axis=1) >= 0).all(axis=(0, 1))


def _deviations(gram, subs):
    """max |eigenvalue - 1| of the block on each support, a row of ``subs``."""
    w = np.linalg.eigvalsh(gram[subs[:, :, None], subs[:, None, :]])
    return np.maximum(w[:, -1] - 1.0, 1.0 - w[:, 0])


def _orbit_max(deviations, cols, group):
    """Largest deviation over the translates S - s of each support S of
    ``cols`` (xi, k) that leave 0 out, in chunks; -inf if none (xi = N).
    ``deviations`` eigensolves a stack of supports."""
    ncols, xi = math.prod(group), cols.shape[0]
    out = []
    for sl in chunks(cols.shape[1], ncols * xi * xi):
        moved = _minus(cols[:, sl].T[:, None], np.arange(ncols)[:, None], group)
        moved.sort(axis=-1)  # (k, N, xi); N - xi per support leave 0 out
        devs = deviations(moved[moved[..., 0] != 0])
        out.append(devs.reshape(len(moved), ncols - xi).max(axis=1, initial=-np.inf))
    return np.concatenate(out)


def _descend(bound, solve, best):
    """The running best over the items solved by ``solve`` in decreasing
    ``bound`` order, until the next bound is below it; also each item's
    value, NaN if unsolved.  The item of largest bound is solved first, on
    its own; then only the items whose bound reaches the best so far are
    sorted, and solved in batches that start at _RIP_FIRST_BATCH and double.
    A NaN bound fails ``bound >= best``, so its item is never solved."""
    vals = np.full(bound.shape, np.nan)
    live = np.flatnonzero(bound >= best)
    if live.size:
        pos = bound[live].argmax()
        top = live[pos : pos + 1]
        vals[top] = solve(top)
        best = max(best, float(vals[top[0]]))
        keep = bound[live] >= best
        keep[pos] = False
        live = live[keep]
    live = live[np.argsort(-bound[live])]
    ranked = -bound[live]  # ascending
    done, batch = 0, _RIP_FIRST_BATCH
    while (stop := min(done + batch, np.searchsorted(ranked, -best, side="right"))) > done:
        sel = live[done:stop]
        vals[sel] = solve(sel)
        best = max(best, float(vals[sel].max()))
        done, batch = stop, 2 * batch
    return best, vals


def rip_scan(gram, xi, group=None):
    """Largest |eigenvalue - 1| over every xi-by-xi principal block of gram.

    A block is eigensolved as ``eigvalsh`` reads it with its columns sorted:
    the Hermitian H of its lower triangle and real diagonal.  The eigenvalues
    of H - I have mean m = tr(H - I) / xi and variance s^2 =
    ||H - (1 + m) I||_F^2 / xi, so Wolkowicz and Styan give |lambda - 1| <=
    b = |m| + s sqrt(xi - 1) (``_trace_deviations``).  The computed
    eigenvalues are exact for some H + E with ||E|| <= c xi eps (1 + b);
    b, a sum of about xi^2 / 2 squares, is rounded with relative error of
    order xi^2 eps / 4 (1e-10 at xi = 1 300), squares that underflow take
    under 1e-150 from s, and a bound whose squares overflow is +inf.  All
    of it lies far below the pad, so a computed deviation is at most
    its bound padded to b + _SLACK * (1 + b).
    Each chunk's supports are eigensolved in decreasing order of that bound
    (``_descend``: the largest alone, then only those whose bound still
    reaches the best are sorted), in batches that start at _RIP_FIRST_BATCH
    and double, until the next bound is below the running best.  A skipped
    block's computed deviation is below the best already found, so the
    result is the maximum over the same per-block ``eigvalsh`` values as a
    scan that eigensolves every block, to the last bit.

    Without ``group`` every support is bounded, in lexicographic chunks.
    With ``group`` = (d_1, ..., d_k), prod d = N, the columns are the
    row-major elements of Z_{d_1} x ... x Z_{d_k}, and the bound comes from
    the group-circulant C[j, k] = H[j - k, 0] that H is near, for a
    row-subsampled mode-wise DFT up to rounding: delta = max |H - C|.  On a
    support S and its translate r = S - s, the blocks of H are each within
    xi delta of the one circulant block C[r, r] in spectral norm, so by Weyl
    dev(S) <= dev(r) + 2 xi delta.  Every orbit {S - s} has members holding
    0, so only those C(N - 1, xi - 1) representatives are bounded (by
    b + 2 xi delta) and eigensolved; an orbit is expanded, its members
    without 0 eigensolved, only while its representative's deviation plus
    2 xi delta, padded, reaches the best, and only from its lexicographically
    least representative.  No support is then eigensolved twice, save the
    repeated translates of a periodic support.  The inequality holds for any
    gram, so a wrong group can slow the scan but not change its value.

    The supports and their pair indices, which no Gram matrix
    changes, come from ``_scan_chunks``: its first chunk is kept from the
    last scan of the same shape.

    :func:`check_scan_capacity` refuses to bound more than
    :data:`SUPPORT_BUDGET` supports, and the scan raises
    :class:`CapacityError` before a batch would take the count of supports
    it eigensolves past the budget: a Gram matrix near a multiple of the
    identity ties every bound with the best and leaves nothing to prune.
    """
    ncols = gram.shape[0]
    head = check_scan_capacity(ncols, xi, group)
    shift = gram.diagonal().real - 1.0
    with np.errstate(over="ignore"):  # +inf bounds: see above
        sq = 2.0 * np.abs(np.tril(gram, -1)) ** 2
    sq += sq.T
    spread = 0.0 if group is None else 2.0 * xi * _circulant_gap(gram, group)

    def pad(bound):
        bound += spread
        bound += _SLACK * (1.0 + bound)
        return bound

    solved = 0

    def deviations(subs):
        nonlocal solved
        solved += len(subs)
        if solved > SUPPORT_BUDGET:
            raise CapacityError(
                "the scan eigensolves more than the exact-scan budget of"
                f" {SUPPORT_BUDGET} supports"
            )
        return _deviations(gram, subs)

    best = 0.0
    for cols, pairs in _scan_chunks(ncols, xi, head):
        bound = pad(_trace_deviations(shift, sq, cols, pairs))
        best, dev = _descend(bound, lambda sel: deviations(cols[:, sel].T), best)
        if group is None:
            continue
        bound = pad(dev)
        orbits = np.flatnonzero(bound >= best)  # NaN (not eigensolved): below
        orbits = orbits[_canonical(cols[:, orbits], group)]
        best = _descend(
            bound[orbits], lambda sel: _orbit_max(deviations, cols[:, orbits[sel]], group), best
        )[0]
    return best


def farthest_point_order(dist):
    """Farthest-point ordering seeded at the 1-center, ties to the lowest index.

    A chosen point's distance to the chosen set is set to -inf, which
    ``np.minimum`` keeps, so ``argmax`` picks among the rest; ``dist`` must
    be finite, as ``FiniteMetricSpace`` requires."""
    order = np.empty(dist.shape[0], np.int64)
    order[0] = int(np.argmin(dist.max(axis=1)))
    mind = dist[order[0]].copy()
    for k in range(1, len(order)):
        mind[order[k - 1]] = -np.inf
        order[k] = int(np.argmax(mind))
        np.minimum(mind, dist[order[k]], out=mind)
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
    best = np.inf
    for sl in chunks(subs.shape[0], dist.size):
        msub = dist[:, subs[sl]].min(axis=2).T  # (chunk, n)
        vals = (w1 * msub[:, :, None] + dist[None, :, :]).max(axis=1)
        best = min(best, float(vals.min()))
    return best


def _popcount(words):
    """Set bits of each uint64 word (SWAR: shifts, masks and one multiply)."""
    x = words >> _U1
    x &= _M1
    np.subtract(words, x, out=x)  # 2-bit field counts
    y = x >> _U2
    y &= _M2
    x &= _M2
    x += y  # 4-bit field counts
    np.right_shift(x, _U4, out=y)
    x += y
    x &= _M4  # byte counts
    x *= _H01  # top byte: their sum
    x >>= _U56
    return x


def greedy_cover(dist, radii):
    """Ball count of the greedy cover by closed balls at each radius in radii.

    Greedy repeatedly picks the ball, among dist <= u, that holds the most
    uncovered points, ties to the lowest index.  A radius at or above the
    space radius min_c max_t dist[c, t] counts 1 with no cover run: the ball
    that holds every point is the first pick.  The other radii run in
    lockstep, in ``chunks`` of n^2 entries per radius, with each
    ball packed into ceil(n / 64) uint64 words; a radius leaves the chunk
    once its balls cover every point.  Every radius must be >= 0 and every
    dist[t, t] zero, so that each point lies in its own ball.
    """
    n = dist.shape[0]
    words = -(-n // 64)
    radii = np.asarray(radii, np.float64)
    counts = np.ones(radii.size, np.int64)
    todo = np.flatnonzero(~(radii >= dist.max(axis=1).min()))  # NaN too
    for sl in chunks(todo.size, dist.size):
        sel = todo[sl]
        counts[sel] = 0
        packed = np.zeros((sel.size, n, 8 * words), np.uint8)
        packed[..., : -(-n // 8)] = np.packbits(
            dist[None, :, :] <= radii[sel, None, None], axis=-1, bitorder="little"
        )
        # (word, radius, ball): summing gains over words adds whole slabs.
        # Only AND, OR and popcount read a word, so its byte order is moot.
        balls = np.ascontiguousarray(packed.view(np.uint64).transpose(2, 0, 1))
        covered = np.zeros((words, sel.size), np.uint64)
        left = np.full(sel.size, n, np.uint64)
        while sel.size:
            gains = _popcount(balls & ~covered[:, :, None]).sum(axis=0)
            pick = np.argmax(gains, axis=1)
            rows = np.arange(sel.size)
            gained = gains[rows, pick]
            if not gained.all():
                raise ValueError("a point lies in no ball: negative or NaN radius")
            covered |= balls[:, rows, pick]
            left -= gained
            counts[sel] += 1
            keep = left > 0
            if not keep.all():
                sel, left = sel[keep], left[keep]
                balls, covered = balls[:, keep], covered[:, keep]
    return counts


def max_triangle_violation(dist):
    """max over i, j, k of d(i, j) - d(i, k) - d(k, j)."""
    worst = -np.inf
    with np.errstate(over="ignore"):  # only toward -inf, which breaks nothing
        for k in range(dist.shape[0]):
            v = dist - dist[:, k : k + 1] - dist[k : k + 1, :]
            worst = max(worst, float(v.max()))
    return worst
