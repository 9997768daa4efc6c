"""Each numpy kernel against a plain-loop oracle."""

import functools
import itertools
import math
import os
import time
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from tensorchain import kernels, sensing
from tensorchain import rng as trng
from tensorchain.bounds import verify_azuma, verify_bernstein
from tensorchain.empirical import EmpiricalFamily, sample_family_sups
from tensorchain.errors import CapacityError, DomainError, WorkerError
from tensorchain.processes import ProcessSpec, sample_mixed_sups
from tensorchain.report import dumps
from tensorchain.tensor import GaugeNorm, random_hermitian, random_unitary, unfold

GAUGES = list(GaugeNorm)
GAUGE_IDS = [str(i) for i in range(len(GAUGES))]
# budgets of kernels._CHUNK_ENTRIES: one that holds every input of these
# tests in one chunk, as the default does, then ever smaller chunks
CHUNK_BUDGETS = [1 << 22, 20, 1]


def test_chunks_slice_every_item_within_the_budget(monkeypatch):
    monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", 12)
    assert list(kernels.chunks(0, 4)) == []
    assert list(kernels.chunks(3, 4)) == [slice(0, 3)]
    assert list(kernels.chunks(6, 4)) == [slice(0, 3), slice(3, 6)]  # exact multiples
    assert list(kernels.chunks(7, 4)) == [slice(0, 3), slice(3, 6), slice(6, 7)]
    assert list(kernels.chunks(12, 1)) == [slice(0, 12)]
    # an item above the budget is a chunk of its own
    assert list(kernels.chunks(2, 13)) == [slice(0, 1), slice(1, 2)]


def test_chunks_for_workers_come_in_multiples_of_them(monkeypatch):
    monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", 96)  # 24 items of 4 entries
    assert list(kernels.chunks(0, 4, 2)) == []
    assert list(kernels.chunks(7, 4, 2)) == [slice(0, 3), slice(3, 7)]
    assert list(kernels.chunks(1, 4, 2)) == [slice(0, 1)]
    assert len(list(kernels.chunks(100, 4, 2))) == 6  # 5 chunks, rounded up
    assert len(list(kernels.chunks(100, 4, 3))) == 6
    for workers in (2, 3):
        for count in range(60):
            for entries in (1, 4, 13, 200):
                plain = len(list(kernels.chunks(count, entries)))
                got = list(kernels.chunks(count, entries, workers))
                items = [i for sl in got for i in range(sl.start, sl.stop)]
                assert items == list(range(count))
                sizes = [sl.stop - sl.start for sl in got]
                assert max(sizes, default=1) <= max(1, 96 // entries)
                assert max(sizes, default=0) - min(sizes, default=0) <= 1
                assert len(got) == min(count, -(-plain // workers) * workers)


def assert_no_child_left():
    """Every child this process forked has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def count_forks(monkeypatch):
    """A list that gains an entry at each later ``os.fork``."""
    fork, forks = os.fork, []

    def counted_fork():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


def each(fn):
    """A share function for ``kernels.map_blocks``: [fn(sl) for sl in share]."""
    return lambda share: [fn(sl) for sl in share]


def test_map_blocks_forks_only_for_shares_of_fork_work(monkeypatch):
    # a share holds 64 entries of work or more: by default an item's entries
    monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", 64)
    monkeypatch.setattr(kernels, "_FORK_WORK", 64)
    monkeypatch.setattr(kernels, "_WORKERS", 3)

    def owners(count, entries, work=None):
        return len(set(kernels.map_blocks(each(lambda sl: os.getpid()), count, entries, work)))

    assert owners(100, 4) == 3
    assert owners(40, 4) == 2
    assert owners(15, 4) == 1
    assert owners(100, 4, work=1) == 1  # the stated work, not the entries
    assert owners(2, 4, work=32) == 1
    assert owners(2, 4, work=64) == 2
    assert owners(100, 64) == 3  # a 64-entry item is a share of its own
    monkeypatch.setattr(kernels, "_FORK_WORK", 0)  # every share forks
    assert owners(100, 4, work=0) == 3
    assert owners(2, 4, work=0) == 2
    assert owners(1, 4) == 1
    assert owners(0, 4) == 0
    assert_no_child_left()


def test_map_blocks_shares_the_slices_in_order(monkeypatch):
    monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", 64)
    monkeypatch.setattr(kernels, "_FORK_WORK", 8)
    for workers in (1, 2, 3):
        monkeypatch.setattr(kernels, "_WORKERS", workers)
        for count in (0, 1, 5, 333):  # shares of 2 items or more
            got = kernels.map_blocks(each(lambda sl: (sl, os.getpid())), count, 4)
            cut = kernels.chunks(count, 4, min(workers, count // 2))
            assert [sl for sl, _ in got] == list(cut)
        owners = [pid for _, pid in got]
        assert owners[0] == os.getpid()
        # one contiguous share a process, of nearly equal sizes
        shares = [len(list(run)) for _, run in itertools.groupby(owners)]
        assert len(shares) == len(set(owners)) == workers
        assert max(shares) - min(shares) <= 1
        assert_no_child_left()


def in_child(parent, error):
    """A block function that raises ``error`` in any process but ``parent``."""

    def fn(sl):
        if os.getpid() != parent:
            raise error
        return sl

    return fn


@pytest.mark.parametrize(
    "error", [DomainError("realized trajectories overflow"), KeyboardInterrupt("stop")],
    ids=["domain", "interrupt"],
)
def test_map_blocks_raises_what_a_child_raised(monkeypatch, error):
    monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", 64)
    monkeypatch.setattr(kernels, "_FORK_WORK", 0)
    monkeypatch.setattr(kernels, "_WORKERS", 2)
    with pytest.raises(type(error)) as raised:
        kernels.map_blocks(each(in_child(os.getpid(), error)), 100, 4)
    assert type(raised.value) is type(error) and str(raised.value) == str(error)
    assert_no_child_left()


def test_map_blocks_raises_the_first_error_in_slice_order(monkeypatch):
    monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", 64)
    monkeypatch.setattr(kernels, "_FORK_WORK", 0)
    monkeypatch.setattr(kernels, "_WORKERS", 3)

    def fails(sl):
        raise ValueError(f"block at {sl.start}")

    with pytest.raises(ValueError, match="^block at 0$"):  # this process's own, first
        kernels.map_blocks(each(fails), 100, 4)
    slices = list(kernels.chunks(100, 4, 3))
    parent = os.getpid()

    def child_fails(sl):
        return sl if os.getpid() == parent else fails(sl)

    # the first child's share is the second third of the slices
    with pytest.raises(ValueError, match=f"^block at {slices[len(slices) // 3].start}$"):
        kernels.map_blocks(each(child_fails), 100, 4)
    assert_no_child_left()


def test_map_blocks_kills_the_children_once_it_raises(monkeypatch):
    # the child's share would take a minute; the error in this process's
    # share ends the map at once, and leaves no child behind
    monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", 64)
    monkeypatch.setattr(kernels, "_FORK_WORK", 0)
    monkeypatch.setattr(kernels, "_WORKERS", 2)
    parent = os.getpid()

    def slow_child(sl):
        if os.getpid() != parent:
            time.sleep(60)
        raise DomainError("refused here")

    start = time.perf_counter()
    with pytest.raises(DomainError, match="^refused here$"):
        kernels.map_blocks(each(slow_child), 100, 4)
    assert time.perf_counter() - start < 20
    assert_no_child_left()


def test_map_blocks_reports_a_child_that_sends_nothing(monkeypatch):
    monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", 64)
    monkeypatch.setattr(kernels, "_FORK_WORK", 0)
    monkeypatch.setattr(kernels, "_WORKERS", 2)
    parent = os.getpid()

    def dies(sl):
        if os.getpid() != parent:
            os._exit(1)
        return sl

    with pytest.raises(WorkerError, match=r"^worker \d+ ended without a result: exit status 1$"):
        kernels.map_blocks(each(dies), 100, 4)

    def unpicklable(sl):
        return sl if os.getpid() == parent else (lambda: sl)

    with pytest.raises(WorkerError, match="does not pickle"):
        kernels.map_blocks(each(unpicklable), 100, 4)
    assert_no_child_left()


def test_map_blocks_runs_a_share_here_when_the_fork_fails(monkeypatch):
    monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", 64)
    monkeypatch.setattr(kernels, "_FORK_WORK", 0)
    monkeypatch.setattr(kernels, "_WORKERS", 2)

    def no_fork():
        raise BlockingIOError("Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    got = kernels.map_blocks(each(lambda sl: (sl, os.getpid())), 100, 4)
    assert [sl for sl, _ in got] == list(kernels.chunks(100, 4, 2))
    assert {pid for _, pid in got} == {os.getpid()}


def test_map_blocks_nests_inside_a_child_without_forking(monkeypatch):
    monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", 64)
    monkeypatch.setattr(kernels, "_FORK_WORK", 0)
    monkeypatch.setattr(kernels, "_WORKERS", 2)

    def owners(sl):
        return os.getpid(), set(kernels.map_blocks(each(lambda s: os.getpid()), 100, 4))

    got = kernels.map_blocks(each(owners), 100, 4)
    assert len(got[0][1]) == 2  # this process forks its own inner map
    assert got[-1][1] == {got[-1][0]}  # a child's inner map runs in the child


@pytest.mark.filterwarnings("error")
def test_map_blocks_forks_where_python_warns_of_threads(monkeypatch):
    # Python 3.12 warns, after the fork and in the parent, that a process with
    # threads (OpenBLAS's pool) may deadlock in the child
    monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", 64)
    monkeypatch.setattr(kernels, "_FORK_WORK", 0)
    monkeypatch.setattr(kernels, "_WORKERS", 2)
    fork = os.fork

    def warning_fork():
        pid = fork()
        if pid:
            warnings.warn(
                f"This process (pid={os.getpid()}) is multi-threaded, use of fork() may"
                " lead to deadlocks in the child.", DeprecationWarning, stacklevel=2,
            )
        return pid

    monkeypatch.setattr(os, "fork", warning_fork)
    got = kernels.map_blocks(each(lambda sl: (sl, os.getpid())), 100, 4)
    assert [sl for sl, _ in got] == list(kernels.chunks(100, 4, 2))
    assert len({pid for _, pid in got}) == 2


def random_hermitian_stack(gen, shape):
    """Exactly Hermitian matrices over the last two axes."""
    raw = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
    return np.ascontiguousarray((raw + np.swapaxes(raw, -1, -2).conj()) / 2)


def random_trajs(seed, ns=6, nt=5, d=3):
    return random_hermitian_stack(trng.stream(seed, 0), (ns, nt, d, d))


def spectrum_trajs(seed, ns=3):
    """Trajectories over 4 indices whose increments have every sign pattern:
    X_1 - X_0 has eigenvalues (-3, 1, 2), so the spectral norm is the bottom
    one and the nuclear norm sums mixed signs; X_2 - X_0 is zero; X_3 - X_0
    is negative definite."""
    gen = trng.stream(seed, 0)
    q, _ = np.linalg.qr(gen.standard_normal((3, 3)) + 1j * gen.standard_normal((3, 3)))

    def conj(diag):
        m = q @ np.diag(diag) @ q.conj().T
        return (m + m.conj().T) / 2

    base = random_hermitian_stack(gen, (ns, 3, 3))
    zero = np.zeros((3, 3))
    steps = [zero, conj([-3.0, 1.0, 2.0]), zero, conj([-1.0, -2.0, -0.5])]
    return np.ascontiguousarray(np.stack([base + step for step in steps], axis=1))


def planar_dist(pts):
    diff = pts[:, None, :] - pts[None, :, :]
    d = np.sqrt((diff**2).sum(axis=2))
    return np.ascontiguousarray((d + d.T) / 2)


def random_dist(seed, n=9):
    return planar_dist(trng.stream(seed, 0).uniform(-1, 1, (n, 2)))


# ---------------------------------------------------------------------------
# loop oracles
# ---------------------------------------------------------------------------


def matrix_gauge_norm(mat, gauge):
    if gauge is GaugeNorm.FROBENIUS:
        acc = 0.0
        for i in range(mat.shape[0]):
            for j in range(mat.shape[1]):
                v = mat[i, j]
                acc += v.real * v.real + v.imag * v.imag
        return np.sqrt(acc)
    s = np.linalg.svd(mat)[1]
    if gauge is GaugeNorm.SPECTRAL:
        return s[0]
    return s.sum()


def increment_norms_loop(trajs, pairs, gauge):
    """(samples, len(pairs)) norms of X_a - X_b, one (a, b) pair at a time."""
    out = np.zeros((trajs.shape[0], len(pairs)))
    for s in range(trajs.shape[0]):
        for k, (a, b) in enumerate(pairs):
            out[s, k] = matrix_gauge_norm(trajs[s, a] - trajs[s, b], gauge)
    return out


def pairwise_norms_loop(trajs, gauge):
    nt = trajs.shape[1]
    pairs = [(a, b) for a in range(nt) for b in range(a + 1, nt)]  # triu order
    return increment_norms_loop(trajs, pairs, gauge)


def norms_vs_ref_loop(trajs, ref, gauge):
    pairs = [(a, ref) for a in range(trajs.shape[1])]
    return increment_norms_loop(trajs, pairs, gauge)


def broadcast_square_norms(trajs, gauge):
    """(samples, index, index) norms of every ordered pair, the diagonal and
    the mirrored lower triangle included: the all-pairs form that
    ``ensemble_pairwise_norms`` reduced before it kept one pair per increment."""
    diff = trajs[:, :, None, :, :] - trajs[:, None, :, :, :]
    return kernels.gauge_norms(diff, gauge)


def farthest_point_order_loop(dist):
    n = dist.shape[0]
    # seed at the 1-center, ties toward the lowest index
    best_i, best_e = 0, np.inf
    for i in range(n):
        ecc = max(dist[i, j] for j in range(n))
        if ecc < best_e:
            best_e, best_i = ecc, i
    order = [best_i]
    chosen = [i == best_i for i in range(n)]
    mind = list(dist[best_i])
    for _ in range(1, n):
        bi, bv = -1, -1.0
        for i in range(n):
            if not chosen[i] and mind[i] > bv:
                bv, bi = mind[i], i
        order.append(bi)
        chosen[bi] = True
        for i in range(n):
            mind[i] = min(mind[i], dist[bi, i])
    return np.array(order)


def chain_sum_loop(dist, members, offsets, weights):
    worst = 0.0
    for t in range(dist.shape[0]):
        total = 0.0
        for lev in range(weights.shape[0]):
            if weights[lev] == 0.0:
                continue
            m = min(dist[t, members[p]] for p in range(offsets[lev], offsets[lev + 1]))
            total += weights[lev] * m
        worst = max(worst, total)
    return worst


def gamma2_scan_loop(dist, subs, w1):
    n = dist.shape[0]
    best = np.inf
    for sub in subs:
        msub = [min(dist[t, p] for p in sub) for t in range(n)]
        for t0 in range(n):
            sup = max(dist[t, t0] + w1 * msub[t] for t in range(n))
            best = min(best, sup)
    return best


def greedy_cover_loop(within):
    """Greedy cover with each ball a Python-int bit set; the first ball of
    largest gain wins."""
    n = within.shape[0]
    # ball c as the binary numeral whose digit t (from the right) is within[c, t]
    digits = (within[:, ::-1].astype(np.uint8) + ord("0")).view(f"S{n}").ravel()
    balls = [int(d, 2) for d in digits]
    covered = count = 0
    while covered != (1 << n) - 1:
        gains = [bin(b & ~covered).count("1") for b in balls]
        covered |= balls[gains.index(max(gains))]
        count += 1
    return count


def max_triangle_violation_loop(dist):
    n = dist.shape[0]
    worst = -np.inf
    for i in range(n):
        for j in range(n):
            for k in range(n):
                worst = max(worst, dist[i, j] - dist[i, k] - dist[k, j])
    return worst


# ---------------------------------------------------------------------------
# kernels vs oracles
# ---------------------------------------------------------------------------


# ids are each gauge's position in declaration order
@pytest.mark.parametrize("gauge", GAUGES, ids=GAUGE_IDS)
def test_pairwise_norms_match_loop(gauge):
    trajs = random_trajs(1)
    assert np.allclose(
        kernels.ensemble_pairwise_norms(trajs, gauge),
        pairwise_norms_loop(trajs, gauge),
        rtol=1e-13,
        atol=0.0,
    )


@pytest.mark.parametrize("gauge", GAUGES, ids=GAUGE_IDS)
def test_norms_vs_ref_match_loop(gauge):
    trajs = random_trajs(2)
    assert np.allclose(
        kernels.ensemble_norms_vs_ref(trajs, 2, gauge),
        norms_vs_ref_loop(trajs, 2, gauge),
        rtol=1e-13,
        atol=0.0,
    )


@pytest.mark.parametrize("gauge", GAUGES, ids=lambda g: g.value)
def test_norm_kernels_match_loop_on_every_sign_pattern(gauge):
    trajs = spectrum_trajs(11)
    pairwise = kernels.ensemble_pairwise_norms(trajs, gauge)
    vs_ref = kernels.ensemble_norms_vs_ref(trajs, 0, gauge)
    want_pairwise = pairwise_norms_loop(trajs, gauge)
    assert np.allclose(pairwise, want_pairwise, rtol=1e-13, atol=0.0)
    want_vs_ref = norms_vs_ref_loop(trajs, 0, gauge)
    assert np.allclose(vs_ref, want_vs_ref, rtol=1e-13, atol=0.0)
    # the zero increments X_2 - X_0 and X_0 - X_0 reduce to exact zeros
    assert np.all(pairwise[:, 1] == 0.0)
    assert np.all(vs_ref[:, [0, 2]] == 0.0)
    closed = {
        GaugeNorm.SPECTRAL: (3.0, 2.0),
        GaugeNorm.NUCLEAR: (6.0, 3.5),
        GaugeNorm.FROBENIUS: (math.sqrt(14.0), math.sqrt(5.25)),
    }[gauge]
    assert np.allclose(vs_ref[:, [1, 3]], closed, rtol=1e-13, atol=0.0)


# one chunk for all samples, or one sample per chunk
@pytest.mark.parametrize("chunk_entries", CHUNK_BUDGETS)
@pytest.mark.parametrize("gauge", GAUGES, ids=lambda g: g.value)
def test_pairwise_norms_equal_broadcast_square_on_triu(
    gauge, chunk_entries, monkeypatch
):
    trajs = random_trajs(3, ns=7, nt=6)
    a, b = np.triu_indices(6, 1)
    want = broadcast_square_norms(trajs, gauge)[:, a, b]
    monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", chunk_entries)
    assert np.array_equal(kernels.ensemble_pairwise_norms(trajs, gauge), want)


@pytest.mark.parametrize("gauge", GAUGES, ids=lambda g: g.value)
def test_one_point_ensemble_has_no_pairs(gauge):
    trajs = random_trajs(4, ns=3, nt=1)
    assert kernels.ensemble_pairwise_norms(trajs, gauge).shape == (3, 0)
    norms_vs = kernels.ensemble_norms_vs_ref(trajs, 0, gauge)
    assert np.array_equal(norms_vs, np.zeros((3, 1)))


def test_norm_kernels_take_gauge_names_not_codes():
    trajs = random_trajs(5)
    for gauge in GAUGES:
        want = kernels.ensemble_pairwise_norms(trajs, gauge)
        assert np.array_equal(kernels.ensemble_pairwise_norms(trajs, gauge.value), want)
    with pytest.raises(ValueError):
        kernels.ensemble_norms_vs_ref(trajs, 0, 1)


def test_batch_lambda_max_matches_loop():
    mats = random_hermitian_stack(trng.stream(3, 0), (8, 4, 4))
    want = [np.linalg.eigvalsh(m)[-1] for m in mats]
    assert np.allclose(kernels.batch_lambda_max(mats), want, rtol=1e-12, atol=1e-12)


def test_batch_spectral_matches_loop():
    mats = random_hermitian_stack(trng.stream(4, 0), (8, 4, 4))
    mats[::2] -= 3.0 * np.eye(4)  # spectral norm from the bottom eigenvalue
    w = np.linalg.eigvalsh(mats)
    assert (-w[::2, 0] > w[::2, -1]).all()
    want = [np.linalg.svd(m)[1][0] for m in mats]
    assert np.allclose(kernels.batch_spectral(mats), want, rtol=1e-13, atol=0.0)


# ---------------------------------------------------------------------------
# bound-first kernels against the full eigensolve, by ==
# ---------------------------------------------------------------------------


def adversarial_blocks(seed, n=4):
    """(kinds, n, n) blocks at the edges of the trace bounds, and two that
    are not exactly Hermitian where ``eigvalsh`` does not read."""
    gen = trng.stream(seed, 0)
    rand = random_hermitian_stack(gen, (3, n, n))
    q, _ = np.linalg.qr(gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n)))
    v = gen.standard_normal(n) + 1j * gen.standard_normal(n)
    equi = np.eye(n) + 0.3 * (np.ones((n, n)) - np.eye(n))
    upper_noise = rand[0].copy()
    upper_noise[np.triu_indices(n, 1)] += 1e-3  # eigvalsh reads the lower triangle
    imag_diag = rand[1] + 1e-3j * np.eye(n)  # and the real diagonal
    blocks = [
        rand[0],
        rand[1] - 3.0 * np.eye(n),  # lambda_min dominant
        np.zeros((n, n)),
        np.diag(gen.uniform(-1.0, 1.0, n)),
        np.diag([0.5] * (n - 1) + [-2.0]),  # lambda_min dominant and diagonal
        2.0 * np.eye(n),
        -2.0 * np.eye(n),
        np.eye(n) + 1e-9 * rand[2],  # nearly scalar
        np.outer(v, v.conj()),  # rank one: lambda_max meets the upper bound
        -np.outer(v, v.conj()),
        equi,  # n - 1 equal eigenvalues below lambda_max: the upper bound again
        q @ np.diag([1.0] * (n - 1) + [-2.0]) @ q.conj().T,  # lambda_max meets the lower
        upper_noise,
        imag_diag,
    ]
    return np.ascontiguousarray(np.stack(blocks).astype(np.complex128))


def adversarial_trajs(seed, n=4):
    """(samples, index, n, n) trajectories whose increments against index 0
    are the adversarial blocks, rotated per sample, then four near-ties:
    one block scaled by 1, 1, 1 + 2^-52 and 1 - 2^-53."""
    blocks = adversarial_blocks(seed, n)
    kinds = len(blocks)
    gen = trng.stream(seed, 1)
    ties = [blocks[0] * c for c in (1.0, 1.0, 1.0 + 2.0**-52, 1.0 - 2.0**-53)]
    trajs = np.zeros((kinds, kinds + 5, n, n), np.complex128)
    for s in range(kinds):
        trajs[s, 1 : kinds + 1] = np.roll(blocks, s, axis=0)
        trajs[s, kinds + 1 :] = ties
        if s % 2:  # X_0 nonzero: the increments are rounded differences
            trajs[s] += random_hermitian_stack(gen, (n, n))
    return trajs


def edge_thresholds(values, gen):
    """Thresholds at, just above and just below computed values, and at
    0, the least subnormal, +-inf, NaN and random points."""
    flat = values.ravel()
    pick = flat[gen.integers(0, flat.size, 6)]
    return np.concatenate([
        pick,
        np.nextafter(pick, np.inf),
        np.nextafter(pick, -np.inf),
        [0.0, np.nextafter(0.0, 1.0), np.inf, -np.inf, np.nan],
        gen.uniform(-3.0, 8.0, 6),
    ])


BOUND_GAUGES = [None, *GAUGES]


@pytest.mark.parametrize("gauge", BOUND_GAUGES, ids=lambda g: getattr(g, "value", "lambda_max"))
def test_intervals_hold_every_computed_value(gauge):
    mats = np.concatenate([adversarial_blocks(20), adversarial_trajs(21).reshape(-1, 4, 4)])
    # near 1e+-150 the squares of the bounds are exact; near 1e+-170 they
    # under- and overflow (the frobenius bound is its value, rescaled there)
    scales = (1e150, 1e-150, 1e-170, 1e170)
    mats = np.concatenate([mats, *(c * mats[:20] for c in scales)])
    want = kernels.batch_lambda_max(mats) if gauge is None else kernels.gauge_norms(mats, gauge)
    lo, hi = kernels._intervals(mats, gauge)
    assert (lo <= want).all() and (want <= hi).all()


def frobenius_oracle(mats):
    """||B||_F of each matrix by hypot over the |entries|, which scales."""
    return np.array([math.hypot(*np.abs(m).ravel()) for m in mats.reshape(-1, *mats.shape[-2:])])


def test_frobenius_rescales_only_the_blocks_outside_its_range():
    mats = np.concatenate([adversarial_blocks(22), adversarial_trajs(23).reshape(-1, 4, 4)])
    direct = np.sqrt((mats.real**2 + mats.imag**2).sum(axis=(-2, -1)))
    assert kernels.gauge_norms(mats, "frobenius").tobytes() == direct.tobytes()
    for scale in (1e170, 1e-170, 1e300, 1e-300):
        scaled = scale * mats[:20]
        got = kernels.gauge_norms(scaled, "frobenius")
        assert np.allclose(got, frobenius_oracle(scaled), rtol=1e-14, atol=0.0)
        assert ((got > 0) == (np.abs(scaled) > 0).any(axis=(-2, -1))).all()
        # laid out as gathered increments are, not C-contiguous
        strided = scaled.reshape(4, 5, 4, 4).swapaxes(0, 1)
        assert np.allclose(kernels.gauge_norms(strided, "frobenius"), got.reshape(4, 5).T,
                           rtol=1e-14, atol=0.0)
    # a zero block stays 0; a block with inf or NaN keeps its direct value
    wild = np.zeros((3, 2, 2), np.complex128)
    wild[1, 0, 0], wild[2, 1, 1] = np.inf, np.nan
    got = kernels.gauge_norms(wild, "frobenius")
    assert got[0] == 0.0 and got[1] == np.inf and np.isnan(got[2])


def mixed_specs(seed):
    """A gaussian and a subexponential component over 5 indices of 2x2 tensors."""
    basis = tuple(random_hermitian((2,), trng.stream(seed, j)) for j in range(3))
    coeffs = trng.stream(seed, 99).uniform(-1.0, 1.0, (5, 3))
    return (ProcessSpec("gaussian_linear", coeffs, basis, 2.0),
            ProcessSpec("subexponential_linear", coeffs[:, ::-1], basis, 1.0))


def diagonal_blocks(diags):
    """The complex blocks with real diagonals ``diags`` (..., D) and zeros."""
    side = diags.shape[-1]
    blocks = np.zeros((*diags.shape, side), np.complex128)
    blocks[..., np.arange(side), np.arange(side)] = diags
    return blocks


def family_sups_oracle(family, seed, n_samples):
    """Every sample's values stacked at once, then reduced."""
    w = trng.noise(family.noise, trng.stream(seed, 0), (n_samples, family.n))
    values = np.einsum("si,tiab->stab", w, family.parameters) / family.n
    return np.abs(np.linalg.eigvalsh(values)).max(axis=(1, 2))


@pytest.mark.parametrize("chunk_entries", CHUNK_BUDGETS)
@pytest.mark.parametrize("seed", [30, 31])
def test_sup_norms_vs_ref_equal_full_row_maxima(seed, chunk_entries, monkeypatch):
    # sup_norms on increments against a reference, adversarial and random
    # trajectories: the full row maxima
    adversarial = adversarial_trajs(seed)
    cases = [(adversarial, 0), (adversarial, 3), (random_trajs(seed, ns=9, nt=7, d=4), 5)]
    wants = [kernels.ensemble_norms_vs_ref(t, ref, "spectral").max(axis=1) for t, ref in cases]
    specs = mixed_specs(seed)
    want_mixed = sample_mixed_sups(*specs, seed, 13)
    family = EmpiricalFamily((2, 2), random_trajs(seed + 10, ns=3, nt=5, d=4))
    want_family = family_sups_oracle(family, seed, 11)
    # a diagonal family, which takes the diagonal path: ties, a zero block,
    # and tuples near 1e+-150, under each noise law
    diags = trng.stream(seed + 20, 0).uniform(-1.0, 1.0, (6, 5, 4))
    diags[1] = -diags[0]
    diags[2, 3] = 0.0
    diags[4] *= 1e150
    diags[5] *= 1e-150
    noise = ("rademacher", "uniform")[seed % 2]
    diagonal = EmpiricalFamily((2, 2), diagonal_blocks(diags), noise)
    want_diagonal = family_sups_oracle(diagonal, seed, 37)
    monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", chunk_entries)
    for (trajs, ref), want in zip(cases, wants):
        assert np.array_equal(kernels.sup_norms(trajs - trajs[:, ref : ref + 1]), want)
    # the callers that realize or form their stacks chunk by chunk
    assert np.array_equal(sample_mixed_sups(*specs, seed, 13), want_mixed)
    assert np.array_equal(sample_family_sups(family, seed, 11), want_family)
    assert diagonal.diagonals is not None
    assert np.array_equal(sample_family_sups(diagonal, seed, 37), want_diagonal)


def tiny_rows(seed, n=4):
    """(2, 2, n, n) rows that a bound from underflowed squares misorders: a
    zero-trace off-diagonal block near 1e-170 beside a diagonal one near
    1e-171, in both orders."""
    gen = trng.stream(seed, 2)
    off = random_hermitian_stack(gen, (n, n))
    off[np.arange(n), np.arange(n)] = 0.0
    diag = np.diag(gen.uniform(0.5, 1.0, n)).astype(np.complex128)
    pair = np.stack([1e-170 * off, 1e-171 * diag])
    return np.stack([pair, pair[::-1]])


@pytest.mark.parametrize("seed", [30, 31])
def test_sup_norms_equal_full_row_maxima(seed):
    # the increments of adversarial_trajs: ties, zero and scalar blocks; the
    # same rows near 1e+-150 and 1e+-170; and the rows of tiny_rows
    trajs = adversarial_trajs(seed)
    mats = trajs - trajs[:, :1]
    mats = np.concatenate([mats, *(c * mats for c in (1e150, 1e-150, 1e170, 1e-170))])
    for mats in (mats, tiny_rows(seed)):
        want = kernels.gauge_norms(mats, "spectral").max(axis=1)
        assert kernels.sup_norms(mats).tobytes() == want.tobytes()
        # samples last in memory, as sample_family_sups forms them
        view = np.moveaxis(np.ascontiguousarray(np.moveaxis(mats, 0, -1)), -1, 0)
        assert kernels.sup_norms(view).tobytes() == want.tobytes()


def adversarial_family(seed, noise):
    """A dense family (t, n, 4, 4) with tuples tied exactly and up to sign,
    a zero tuple, a scalar tuple, tuples near 1e+-150, and last the two
    tuples of ``tiny_rows``, near 1e-170 and 1e-171."""
    params = random_hermitian_stack(trng.stream(seed, 0), (10, 3, 4, 4))
    params[1] = params[0]
    params[2] = -params[0]
    params[3] = 0.0
    params[4] = 2.0 * np.eye(4)
    params[5, 1] = 0.0  # a zero block
    params[6] *= 1e150
    params[7] *= 1e-150
    params[8:] = tiny_rows(seed)[0][:, None]
    return EmpiricalFamily((2, 2), params, noise)


@pytest.mark.parametrize("chunk_entries", CHUNK_BUDGETS)
@pytest.mark.parametrize("noise", ["rademacher", "uniform"])
def test_dense_family_sups_equal_the_full_eigensolve(noise, chunk_entries, monkeypatch):
    fams = [adversarial_family(50, noise)]
    fams += [EmpiricalFamily((2, 2), fams[0].parameters[sl], noise)
             for sl in (slice(0, 6), slice(6, 7), slice(7, 8), slice(8, 10))]
    wants = [family_sups_oracle(fam, 51, 40) for fam in fams]
    monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", chunk_entries)
    for fam, want in zip(fams, wants):
        assert fam.diagonals is None
        assert sample_family_sups(fam, 51, 40).tobytes() == want.tobytes()


def test_sup_norms_of_diagonals_equal_full_row_maxima():
    gen = trng.stream(32, 0)
    diags = gen.uniform(-1.0, 1.0, (40, 9, 4))
    diags[:, 1] = diags[:, 0]  # exact ties between blocks
    diags[:, 2] = -diags[:, 0, ::-1]
    diags[:, 3] = 0.0  # a zero block in every sample
    diags[0] = 0.0  # a zero sample
    diags[1:4, :, 0] = 2.0  # every block tied at the top
    # blocks where zheevd scales: near 1e+-150, at the edges of its
    # unscaled range, one ulp apart, and subnormal
    for rows, scale in [(slice(4, 12), 1e150), (slice(12, 20), 1e-150),
                        (slice(20, 24), 1e146), (slice(24, 28), 1e-146),
                        (slice(28, 32), 1e-310)]:
        diags[rows, 4:] *= scale
        diags[rows, 5] = np.nextafter(diags[rows, 4], 0.0)
    diags[32:36, 6:] *= 1e150  # one sample, two scales
    diags[36:, 6:] *= 1e-150
    want = kernels.batch_spectral(diagonal_blocks(diags)).max(axis=1)
    got = kernels.sup_norms_of_diagonals(diags)
    assert got.tobytes() == want.tobytes()
    # samples last in memory, as sample_family_sups forms them
    view = np.ascontiguousarray(diags.transpose(1, 2, 0)).transpose(2, 0, 1)
    assert kernels.sup_norms_of_diagonals(view).tobytes() == want.tobytes()


@pytest.mark.parametrize("chunk_entries", CHUNK_BUDGETS)
def test_lambda_max_counts_equal_full_counts(chunk_entries, monkeypatch):
    mats = np.concatenate([adversarial_blocks(40), adversarial_trajs(41).reshape(-1, 4, 4)])
    full = kernels.batch_lambda_max(mats)
    thr = edge_thresholds(full, trng.stream(42, 0))
    want = (full[None, :] >= thr[:, None]).sum(axis=1)
    diffs = [random_hermitian((2, 2), trng.stream(43, k)) for k in range(5)]
    want_reports = [dumps(verify_azuma(diffs, 150, 44).to_dict()),
                    dumps(verify_bernstein(diffs, 150, 45).to_dict())]
    monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", chunk_entries)
    weights = np.eye(len(mats))  # each sum is one of the matrices
    assert np.array_equal(kernels.lambda_max_counts(weights, mats, thr), want)
    # a NaN threshold leaves every row undecided; without it the weights decide
    keep = ~np.isnan(thr)
    assert np.array_equal(kernels.lambda_max_counts(weights, mats, thr[keep]), want[keep])
    assert [dumps(verify_azuma(diffs, 150, 44).to_dict()),
            dumps(verify_bernstein(diffs, 150, 45).to_dict())] == want_reports


def weighted_stacks(gen, k, d):
    """(name, stack) of k Hermitian d x d terms: random; near multiples of I
    (1e-9 perturbations); and terms repeated, as is and negated, so that
    some sign rows cancel them exactly."""
    rand = random_hermitian_stack(gen, (k, d, d))
    near = gen.uniform(-1.0, 1.0, (k, 1, 1)) * np.eye(d) + 1e-9 * rand
    half = rand[: (k + 1) // 2]
    repeated = np.concatenate([half, -half[::-1]])[:k]
    repeated[k // 2 :: 3] = rand[0]
    return [("random", rand), ("near_identity", near), ("repeated", repeated)]


# 1e+-140 bound _FRO_RANGE: inside it the weights decide most rows; outside,
# where squares of the coordinates under- or overflow, every row is formed
SUM_SCALES = (1.0, 1e100, 1e-100, 1e140, 1e-140, 1e150, 1e-150, 1e170, 1e-170)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 6])
@pytest.mark.parametrize("k", range(1, 17))
def test_lambda_max_counts_equal_counts_of_every_formed_sum(k, d, monkeypatch):
    gen = trng.stream(80 + k, d)
    formed = []
    contract = kernels.contract
    monkeypatch.setattr(kernels, "contract", lambda w, st: formed.append(len(w)) or contract(w, st))
    for law in trng.NOISE_LAWS:
        weights = trng.noise(law, gen, (64, k))
        for name, stack in weighted_stacks(gen, k, d):
            for scale in SUM_SCALES:
                scaled = np.ascontiguousarray(scale * stack)
                full = np.linalg.eigvalsh(np.einsum("sk,kij->sij", weights, scaled))[:, -1]
                pick = full[gen.integers(0, full.size, 5)]
                thr = np.concatenate([pick, np.nextafter(pick, np.inf),
                                      np.nextafter(pick, -np.inf), [0.0, -np.inf, np.inf]])
                want = (full[None, :] >= thr[:, None]).sum(axis=1)
                formed.clear()
                got = kernels.lambda_max_counts(weights, scaled, thr)
                assert np.array_equal(got, want), (law, name, scale)
                if not 1e-140 <= scale <= 1e140:  # every row is formed
                    assert sum(formed) == len(weights), (law, name, scale)
                elif 1e-100 <= scale <= 1e100:  # the weights alone decide +-inf
                    formed.clear()
                    got = kernels.lambda_max_counts(weights, scaled, [-np.inf, np.inf])
                    assert list(got) == [len(weights), 0] and formed == []


@pytest.mark.parametrize("chunk_entries", CHUNK_BUDGETS)
@pytest.mark.parametrize("gauge", GAUGES, ids=lambda g: g.value)
def test_increment_counts_equal_full_counts(gauge, chunk_entries, monkeypatch):
    trajs = adversarial_trajs(50)
    a, b = np.triu_indices(trajs.shape[1], 1)
    full = kernels.ensemble_pairwise_norms(trajs, gauge)  # (samples, pairs)
    gen = trng.stream(51, 0)
    # per pair: a computed norm, its neighbours, and the edge values
    rows = [full[0], np.nextafter(full[1], np.inf), np.nextafter(full[2], -np.inf)]
    rows += [np.full(a.size, t) for t in edge_thresholds(full, gen)]
    rows.append(gen.uniform(0.0, 2.0, a.size) * full.mean(axis=0))
    thr = np.stack(rows)
    want = (full[None] >= thr[:, None, :]).sum(axis=1)
    monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", chunk_entries)
    assert np.array_equal(kernels.increment_counts(trajs, a, b, thr, gauge), want)
    assert np.array_equal(kernels.increment_counts(trajs, a, b, thr, gauge.value), want)


def test_increment_counts_holds_a_running_total_not_a_count_array_per_chunk(monkeypatch):
    # one sample per chunk, 400 chunks, and (64, 45) int64 counts (23 KB) per
    # chunk: a process sums its share's counts as they come, so the peak is a
    # few count arrays, where keeping one per chunk would hold 400 of them
    monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", 0)
    monkeypatch.setattr(kernels, "_WORKERS", 1)
    trajs = random_hermitian_stack(np.random.default_rng(52), (400, 10, 2, 2))
    a, b = np.triu_indices(10, 1)
    thr = np.linspace(0.0, 4.0, 64)[:, None] * np.ones(a.size)
    counts = kernels.increment_counts(trajs, a, b, thr, "spectral")  # warm caches
    tracemalloc.start()
    try:
        assert np.array_equal(kernels.increment_counts(trajs, a, b, thr, "spectral"), counts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < counts.sum() < 64 * 45 * 400
    assert peak < 10 * counts.nbytes, peak / counts.nbytes


def contract_weights(gen, law, shape):
    """Signs, uniform or normal weights, with +-0 entries."""
    if law == "sign":
        w = gen.integers(0, 2, shape) * 2.0 - 1.0
    elif law == "uniform":
        w = gen.uniform(-1.0, 1.0, shape)
    else:
        w = gen.standard_normal(shape)
    flat = w.reshape(-1)
    flat[::7], flat[3::11] = 0.0, -0.0
    return w


def signed_zero_stack(gen, shape, dtype):
    """A stack with random entries, +-0 real and imaginary parts, and one
    all-zero term."""
    stack = gen.standard_normal(shape)
    if dtype is np.complex128:
        stack = stack + 1j * gen.standard_normal(shape)
        stack.imag.reshape(-1)[1::5] = -0.0
    stack.real.reshape(-1)[::6] = 0.0
    stack.real.reshape(-1)[2::9] = -0.0
    stack[0] = -0.0 if len(stack) > 1 else stack[0]
    return np.ascontiguousarray(stack)


def assert_same_values_and_signs(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)
    parts = [(got, want)]
    if np.iscomplexobj(got):
        parts = [(got.real, want.real), (got.imag, want.imag)]
    for a, b in parts:
        assert (np.signbit(a) == np.signbit(b)).all()


@pytest.mark.parametrize("budget", [1 << 19, 3 * 32 * 16])  # blocks of 1024 and 3 rows
@pytest.mark.parametrize("law", ["sign", "uniform", "normal"])
@pytest.mark.parametrize(
    "spec, wshape, sshape",
    [
        ("sk,kij->sij", (2500, 8), (8, 4, 4)),
        ("stk,kij->stij", (157, 16, 4), (4, 4, 4)),
        ("sk,kij->sij", (1030, 1), (1, 4, 4)),  # K = 1
        ("stk,kij->stij", (31, 5, 1), (1, 3, 3)),
    ],
    ids=["sk,kij", "stk,kij", "sk,kij-K1", "stk,kij-K1"],
)
def test_contract_equals_einsum_bit_for_bit(spec, wshape, sshape, law, budget, monkeypatch):
    # row counts that are not multiples of either block
    monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", budget)
    gen = trng.stream(71, len(wshape))
    w = contract_weights(gen, law, wshape)
    stack = signed_zero_stack(gen, sshape, np.complex128)
    assert_same_values_and_signs(kernels.contract(w, stack), np.einsum(spec, w, stack))


@pytest.mark.parametrize("law", ["sign", "uniform", "normal"])
def test_contract_takes_a_real_stack(law, monkeypatch):
    # the diagonals of an empirical family: (n, t, D) real terms
    monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", 7 * 32 * 12)
    gen = trng.stream(72, 0)
    w = contract_weights(gen, law, (503, 6))
    stack = signed_zero_stack(gen, (6, 3, 4), np.float64)
    assert_same_values_and_signs(kernels.contract(w, stack), np.einsum("si,itd->std", w, stack))


def test_each_loop_reuses_one_buffer_and_drops_it(monkeypatch):
    # the increment chunks of a loop are written into one buffer, which no
    # later loop reads and which is dropped once its loop returns; the
    # weighted sums are each dropped before the next is formed.  So a loop
    # holds one chunk at a time
    monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", 200)
    monkeypatch.setattr(kernels, "_WORKERS", 1)
    trajs = random_trajs(61, ns=40, nt=5, d=3)
    buffers, alive, held = [], [], []
    increments, contract = kernels._increments, kernels.contract

    def tracked_increments(*args):
        out = increments(*args)
        buffers.append(out.base)
        return out

    def tracked_contract(*args, **kwargs):
        held.append(sum(ref() is not None for ref in alive))
        out = contract(*args, **kwargs)
        alive.append(weakref.ref(out))
        return out

    monkeypatch.setattr(kernels, "_increments", tracked_increments)
    monkeypatch.setattr(kernels, "contract", tracked_contract)
    a, b = np.triu_indices(5, 1)
    loops = [
        lambda: kernels.ensemble_norms_vs_ref(trajs, 2, "nuclear"),
        lambda: kernels.ensemble_pairwise_norms(trajs, "spectral"),
        lambda: kernels.increment_counts(trajs, a, b, np.ones((2, a.size)), "spectral"),
    ]
    for loop in loops:
        loop()
        assert len(buffers) > 4 and all(buf is buffers[0] for buf in buffers)
        assert not np.shares_memory(buffers[0], trajs)
        dropped = weakref.ref(buffers[0])
        buffers.clear()
        assert dropped() is None
    # thresholds among the sums, so that every chunk forms some of them
    weights = trng.stream(62, 0).standard_normal((200, 5))
    sums = kernels.batch_lambda_max(np.einsum("sk,kij->sij", weights, trajs[0]))
    kernels.lambda_max_counts(weights, trajs[0], np.quantile(sums, [0.3, 0.7]))
    assert len(held) > 4 and max(held) == 0


def rip_scan_loop(gram, xi):
    best = 0.0
    for comb in itertools.combinations(range(gram.shape[0]), xi):
        w = np.linalg.eigvalsh(gram[np.ix_(comb, comb)])
        best = max(best, w[-1] - 1.0, 1.0 - w[0])
    return best


def random_gram(scale):
    gen = trng.stream(5, 0)
    mat = gen.standard_normal((6, 9)) + 1j * gen.standard_normal((6, 9))
    mat *= scale / np.sqrt(6)
    return np.ascontiguousarray(mat.conj().T @ mat)


# at column scale 0.5 the deviation below 1 is the larger one
@pytest.mark.parametrize("scale", [1.0, 0.5])
@pytest.mark.parametrize("xi", [1, 2, 3])
def test_rip_scan_matches_plain_scan(xi, scale):
    gram = random_gram(scale)
    assert kernels.rip_scan(gram, xi) == rip_scan_loop(gram, xi)


# 20 chunk entries split the scan into chunks of two supports at xi 3
@pytest.mark.parametrize("scale", [1.0, 0.5])
@pytest.mark.parametrize("xi", [1, 2, 3])
def test_rip_scan_matches_plain_scan_in_small_chunks(xi, scale, monkeypatch):
    monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", 20)
    gram = random_gram(scale)
    assert kernels.rip_scan(gram, xi) == rip_scan_loop(gram, xi)


def trace_bound(block):
    """Wolkowicz-Styan |m| + s sqrt(n - 1) on max |lambda - 1| of a Hermitian
    block, m and s^2 the mean and the variance of its eigenvalues minus 1."""
    n = block.shape[0]
    m = np.trace(block).real / n - 1.0
    s = np.linalg.norm(block - (1.0 + m) * np.eye(n)) / math.sqrt(n)
    return abs(m) + s * math.sqrt(n - 1)


def misleading_gram():
    """Its largest trace bound (0.57, on {0, 1, 3}) is not on the support of
    largest deviation (0.3 sqrt 2 = 0.42, on {0, 1, 2})."""
    gram = np.eye(6, dtype=np.complex128)
    gram[0, 1] = gram[1, 0] = 0.3
    gram[0, 2], gram[2, 0] = 0.3j, -0.3j
    gram[3, 3] = 1.4
    return gram


def equicorrelated(n, rho):
    return np.eye(n, dtype=np.complex128) + rho * (np.ones((n, n)) - np.eye(n))


@pytest.mark.parametrize(
    "gram",
    [
        equicorrelated(7, 0.2),  # lambda_max meets its trace bound
        equicorrelated(7, -0.15),  # lambda_min meets it
        1e200 * equicorrelated(7, 0.2),  # its squares overflow: every bound +inf
        # its off-diagonal squares underflow: the bound reads the diagonal alone
        equicorrelated(7, 1e-170) + np.diag([0.0, 0.1, 0.2, 0.3, 0.4, 0.49999999, 0.5]),
        1.0 * np.eye(7, dtype=np.complex128),
        1.5 * np.eye(7, dtype=np.complex128),
        0.25 * np.eye(7, dtype=np.complex128),
        misleading_gram(),
        # scanned one support per chunk, the last support meets its bound
        # just above the best of the earlier ones
        np.diag([1.0, 1.1, 1.2, 1.3, 1.4, 1.49999999, 1.5]).astype(np.complex128),
    ],
    ids=[
        "equi+", "equi-", "equi+1e200", "graded+1e-170", "I", "1.5I", "0.25I", "misleading", "graded"
    ],
)
@pytest.mark.parametrize("chunk_entries", CHUNK_BUDGETS)
@pytest.mark.parametrize("xi", [1, 2, 3, 6])
def test_rip_scan_matches_plain_scan_on_adversarial_grams(
    gram, xi, chunk_entries, monkeypatch
):
    monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", chunk_entries)
    assert kernels.rip_scan(gram, xi) == rip_scan_loop(gram, xi)


def test_misleading_gram_bound_and_deviation_disagree():
    gram = misleading_gram()
    combs = list(itertools.combinations(range(6), 3))
    bounds = [trace_bound(gram[np.ix_(c, c)]) for c in combs]
    devs = [np.abs(np.linalg.eigvalsh(gram[np.ix_(c, c)]) - 1.0).max() for c in combs]
    assert combs[int(np.argmax(bounds))] == (0, 1, 3)
    assert combs[int(np.argmax(devs))] == (0, 1, 2)
    assert max(bounds) > max(devs)


@pytest.mark.parametrize(
    "ncols, xi, limit",
    [(9, 1, 4), (9, 3, 7), (9, 9, 3), (12, 6, 100), (70, 69, 5), (5, 7, 2)],
)
def test_lex_supports_match_combinations(ncols, xi, limit, monkeypatch):
    monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", limit * xi * xi)
    chunks = list(kernels._lex_supports(ncols, xi))
    assert all(c.shape[0] == xi and 0 < c.shape[1] <= limit for c in chunks)
    got = [tuple(int(v) for v in col) for c in chunks for col in c.T]
    assert got == list(itertools.combinations(range(ncols), xi))


def counting_lex_supports(monkeypatch):
    """The support counts of every chunk ``kernels._lex_supports`` yields,
    from a cold start: no first chunk is kept from an earlier scan."""
    kernels._first_chunk.cache_clear()
    yielded, lex_supports = [], kernels._lex_supports

    def counting(*args):
        for cols in lex_supports(*args):
            yielded.append(cols.shape[1])
            yield cols

    monkeypatch.setattr(kernels, "_lex_supports", counting)
    return yielded


@pytest.mark.parametrize("group, count", [((64,), math.comb(63, 2)), (None, math.comb(64, 3))])
def test_scan_capacity_counts_the_supports_the_scan_bounds(group, count, monkeypatch):
    # 1 953 orbit representatives on a Fourier [64] at xi 3, 41 664 without a
    # group; one chunk, which a sweep of three trials enumerates once
    yielded = counting_lex_supports(monkeypatch)
    kernels.rip_scan(fourier_gram((64,), range(0, 64, 3)), 3, group)
    assert sum(yielded) == count
    yielded.clear()
    kernels._first_chunk.cache_clear()  # a cold sweep
    u = sensing.fourier_unitary((64,))
    rep = sensing.rip_monte_carlo(u, 3, 0.5, trials=3, seed=9, target_size=32, group=group)
    assert len(rep.tau_values) == 3 and yielded == [count]
    monkeypatch.setattr(kernels, "SUPPORT_BUDGET", count)
    kernels.check_scan_capacity(64, 3, group)
    monkeypatch.setattr(kernels, "SUPPORT_BUDGET", count - 1)
    refused = f"bounds more than the exact-scan budget of {count - 1} supports"
    with pytest.raises(CapacityError, match=refused):
        kernels.check_scan_capacity(64, 3, group)


def count_eigensolves(monkeypatch):
    """The stack sizes of the ``np.linalg.eigvalsh`` calls made from now on."""
    solved, eigvalsh = [], np.linalg.eigvalsh

    def counting(blocks, *args, **kwargs):
        solved.append(blocks.shape[0])
        return eigvalsh(blocks, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return solved


def test_rip_scan_eigensolves_few_fourier_blocks(monkeypatch):
    u = sensing.fourier_unitary((64,))
    a = unfold(sensing.sample_operator(u, sensing.draw_pattern((64,), 32, 7)))
    gram = a.conj().T @ a
    solved = count_eigensolves(monkeypatch)
    tau = kernels.rip_scan(gram, 3)
    assert sum(solved) < math.comb(64, 3) / 4
    monkeypatch.undo()
    assert tau == rip_scan_loop(gram, 3)


@pytest.mark.parametrize("trial", [0, 1, 2])
def test_rip_scan_eigensolves_few_random_unitary_blocks(trial, monkeypatch):
    # no Fourier structure to prune by orbits: the trace bounds alone leave
    # under 1% of the C(64, 3) supports to eigvalsh
    u = random_unitary((64,), trng.stream(11, 0))
    pattern = sensing.draw_pattern((64,), 32, 12, trial)
    a = unfold(sensing.sample_operator(u, pattern))
    gram = a.conj().T @ a
    solved = count_eigensolves(monkeypatch)
    tau = kernels.rip_scan(gram, 3)
    assert sum(solved) < math.comb(64, 3) // 100 == 416
    monkeypatch.undo()
    assert tau == rip_scan_loop(gram, 3)


def test_rip_scan_eigensolves_a_support_whose_bound_is_not_finite():
    # an infinite diagonal entry makes the bound of each support holding it
    # NaN (inf - inf): as +inf that support is eigensolved, as in the plain
    # scan, where a NaN bound, never solved, would hide it
    gram = np.eye(5, dtype=np.complex128)
    gram[2, 2] = np.inf
    assert kernels.rip_scan(gram, 1) == rip_scan_loop(gram, 1) == np.inf
    for scan in (rip_scan_loop, kernels.rip_scan):
        with pytest.raises(np.linalg.LinAlgError):  # eigvalsh does not converge
            scan(gram, 3)


def fourier_gram(dims, selected):
    """Gram matrix of the rows ``selected`` of the mode-wise DFT on ``dims``,
    rescaled as ``sensing.sample_operator`` does; zero if none is selected."""
    mat = unfold(sensing.fourier_unitary(dims))
    rows = mat[list(selected)] * math.sqrt(mat.shape[0] / max(len(selected), 1))
    return rows.conj().T @ rows


def fourier_patterns(n, seed):
    """Row selections: none, one, all, and random ones of several densities."""
    gen = trng.stream(seed, 0)
    picks = [gen.random(n) < p for p in (0.15, 0.3, 0.5, 0.5, 0.7, 0.9)]
    return [(), (n // 3,), tuple(range(n))] + [tuple(np.flatnonzero(k)) for k in picks]


ORBIT_DIMS = [(8,), (12,), (3, 4), (2, 2, 3)]


@pytest.mark.parametrize("dims", ORBIT_DIMS, ids=str)
def test_orbit_scan_equals_plain_scan_on_fourier_grams(dims):
    n = math.prod(dims)
    for selected in fourier_patterns(n, 31):
        gram = fourier_gram(dims, selected)
        for xi in sorted({1, 2, 3, 4, n}):
            assert kernels.rip_scan(gram, xi, dims) == rip_scan_loop(gram, xi)


@pytest.mark.parametrize("chunk_entries", CHUNK_BUDGETS)
@pytest.mark.parametrize("dims", [(12,), (3, 4)], ids=str)
def test_orbit_scan_equals_plain_scan_in_small_chunks(dims, chunk_entries, monkeypatch):
    monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", chunk_entries)
    for selected in fourier_patterns(12, 32)[:5]:
        gram = fourier_gram(dims, selected)
        for xi in (1, 3, 12):
            assert kernels.rip_scan(gram, xi, dims) == rip_scan_loop(gram, xi)


@pytest.mark.parametrize("dims", ORBIT_DIMS, ids=str)
def test_orbit_scan_equals_plain_scan_off_circulant(dims):
    # pushed 1e-13 off circulant (and off Hermitian), or no circulant at all:
    # delta grows, the answer does not move
    n = math.prod(dims)
    gen = trng.stream(33, 0)
    near = fourier_gram(dims, fourier_patterns(n, 34)[4])
    near = near + 1e-13 * (gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n)))
    assert kernels._circulant_gap(near, dims) > 1e-14
    for gram in (near, random_hermitian_stack(gen, (n, n)) + np.eye(n)):
        for xi in sorted({1, 2, 3, n}):
            assert kernels.rip_scan(gram, xi, dims) == rip_scan_loop(gram, xi)


# one support per batch: {0, 1, 2} comes after a running best of eps + 2 delta
@pytest.mark.parametrize("first_batch", [64, 1])
def test_orbit_scan_finds_the_worst_translate_of_a_near_perfect_representative(
    first_batch, monkeypatch
):
    # (1 + eps) I plus delta on the block of {3, 4, 5}: gap delta, and that
    # support deviates by eps + 3 delta, while every support holding 0
    # deviates by at most eps + 2 delta.  Its orbit's least representative,
    # {0, 1, 2}, deviates by eps only and must still be eigensolved and expanded.
    monkeypatch.setattr(kernels, "_RIP_FIRST_BATCH", first_batch)
    delta, eps = 1e-3, 1e-2
    gram = (1.0 + eps) * np.eye(8, dtype=np.complex128)
    gram[3:6, 3:6] += delta
    assert kernels._circulant_gap(gram, (8,)) == pytest.approx(delta)
    tau = kernels.rip_scan(gram, 3, (8,))
    assert tau == rip_scan_loop(gram, 3) == pytest.approx(eps + 3 * delta)


@pytest.mark.parametrize("dims", ORBIT_DIMS, ids=str)
def test_circulant_gap_of_an_exact_circulant_is_zero(dims):
    n = math.prod(dims)
    gen = trng.stream(35, 0)
    f = gen.standard_normal(n) + 1j * gen.standard_normal(n)
    first = f + f[kernels._minus(0, np.arange(n), dims)].conj()  # first[-m] = conj first[m]
    j, k = np.arange(n)[:, None], np.arange(n)
    circ = first[kernels._minus(j, k, dims)]
    assert kernels._circulant_gap(circ, dims) == 0.0
    circ[1, 0] += 1e-12
    assert kernels._circulant_gap(circ, dims) > 0.0


@pytest.mark.parametrize("dims, xi", [((12,), 3), ((3, 4), 4), ((2, 2, 3), 2), ((6,), 6)])
def test_one_canonical_representative_per_orbit(dims, xi):
    n = math.prod(dims)
    reps = np.array([c for c in itertools.combinations(range(n), xi) if c[0] == 0]).T
    canon = reps[:, kernels._canonical(reps, dims)]
    orbits = {
        frozenset(tuple(sorted(kernels._minus(r, s, dims))) for s in range(n)) for r in reps.T
    }
    assert canon.shape[1] == len(orbits)
    assert {frozenset(tuple(sorted(kernels._minus(r, s, dims))) for s in range(n))
            for r in canon.T} == orbits


def test_orbit_scan_bounds_one_support_per_orbit_representative(monkeypatch):
    u = sensing.fourier_unitary((64,))
    a = unfold(sensing.sample_operator(u, sensing.draw_pattern((64,), 32, 7)))
    gram = a.conj().T @ a
    bounded, trace_deviations = [], kernels._trace_deviations

    def counting(shift, sq, cols, pairs):
        bounded.append(cols.shape[1])
        return trace_deviations(shift, sq, cols, pairs)

    monkeypatch.setattr(kernels, "_trace_deviations", counting)
    tau = kernels.rip_scan(gram, 3, (64,))
    assert 0 < sum(bounded) <= math.comb(63, 2) == 1953
    assert tau == rip_scan_loop(gram, 3)


@pytest.mark.parametrize("group", [None, (16,)], ids=["plain", "orbit"])
def test_rip_scan_budget_binds_the_supports_it_eigensolves(group, monkeypatch):
    # every row of the DFT on 16 columns: G = I up to rounding ties every
    # bound with the best, so nothing is pruned
    gram = fourier_gram((16,), range(16))
    solved = count_eigensolves(monkeypatch)
    tau = kernels.rip_scan(gram, 3, group)
    spent = sum(solved)
    assert spent >= math.comb(15, 2)  # at least every support holding 0
    monkeypatch.setattr(kernels, "SUPPORT_BUDGET", spent)
    assert kernels.rip_scan(gram, 3, group) == tau
    solved.clear()
    monkeypatch.setattr(kernels, "SUPPORT_BUDGET", spent - 1)
    with pytest.raises(CapacityError, match=f"budget of {spent - 1} supports"):
        kernels.rip_scan(gram, 3, group)
    assert sum(solved) < spent  # refused before the batch that passes it


def test_descend_solves_the_top_bound_alone_and_never_a_nan_bound():
    # values bound - 1: the top item (bound 3) gives 2, which leaves only the
    # item of bound 2 to solve; the NaN bounds are never solved
    bound = np.array([np.nan, 3.0, np.nan, 2.0, 0.5, 1.5])
    calls = []

    def solve(sel):
        calls.append(sel.tolist())
        return bound[sel] - 1.0

    best, vals = kernels._descend(bound, solve, 0.0)
    assert calls == [[1], [3]] and best == 2.0
    assert np.array_equal(vals, [np.nan, 2.0, np.nan, 1.0, np.nan, np.nan], equal_nan=True)
    assert kernels._descend(np.full(3, np.nan), solve, 0.0)[0] == 0.0 and len(calls) == 2


def sweep_grams(dims):
    """Gram matrices on prod(dims) columns that one sweep may meet in a row:
    Fourier ones of several selections, one pushed off circulant, a random
    Hermitian one, equicorrelated ones, a misleading one and scaled identities."""
    n = math.prod(dims)
    gen = trng.stream(36, 0)
    fourier = [fourier_gram(dims, selected) for selected in fourier_patterns(n, 37)[2:7]]
    near = fourier[2] + 1e-13 * (gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n)))
    misleading = np.eye(n, dtype=np.complex128)
    misleading[:6, :6] = misleading_gram()
    return fourier + [
        near,
        random_hermitian_stack(gen, (n, n)) + np.eye(n),
        equicorrelated(n, 0.2),
        equicorrelated(n, -0.1),
        misleading,
        1.5 * np.eye(n, dtype=np.complex128),
        0.25 * np.eye(n, dtype=np.complex128),
    ]


@functools.cache
def sweep_taus(dims):
    """{xi: the plain scan of each of sweep_grams(dims)} at xi 1 to 4 and N."""
    n = math.prod(dims)
    grams = sweep_grams(dims)
    return {xi: [rip_scan_loop(g, xi) for g in grams] for xi in sorted({1, 2, 3, 4, n})}


# 1 << 22 holds each scan in one chunk, which the scan keeps; at 20 the
# scans of xi >= 2 take several, the first kept and the others rebuilt
@pytest.mark.parametrize("chunk_entries", CHUNK_BUDGETS[:2])
@pytest.mark.parametrize("orbits", [False, True], ids=["plain", "orbit"])
@pytest.mark.parametrize("dims", [(8,), (3, 4)], ids=str)
def test_one_support_set_scans_a_sweep_of_grams(dims, orbits, chunk_entries, monkeypatch):
    monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", chunk_entries)
    group = dims if orbits else None
    for xi, want in sweep_taus(dims).items():
        assert [kernels.rip_scan(gram, xi, group) for gram in sweep_grams(dims)] == want


def test_a_sweep_enumerates_only_the_chunks_after_the_first_again(monkeypatch):
    # 41 664 supports at xi 3 in chunks of 10 000: a cold scan enumerates
    # them all, a later one all but the kept first chunk
    monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", 9 * 10_000)
    yielded = counting_lex_supports(monkeypatch)
    for seed in (7, 8, 9):
        selected = sensing.draw_pattern((64,), 32, seed).selected
        gram = fourier_gram((64,), selected)
        tau = kernels.rip_scan(gram, 3)
        kernels._first_chunk.cache_clear()
        assert tau == kernels.rip_scan(gram, 3)  # every chunk built afresh
    whole = [10_000] * 4 + [1_664]
    assert yielded == whole + whole + whole[1:] + whole + whole[1:] + whole


def test_a_kept_chunk_serves_only_its_chunk_budget(monkeypatch):
    # one shape at budgets of two supports a chunk (20) and of one chunk:
    # a first chunk kept from the other budget would skip supports 2 to 55
    # after the switch to one chunk, or repeat supports after the other
    gram = sweep_grams((8,))[0]
    kernels._first_chunk.cache_clear()
    for chunk_entries in (20, 1 << 22, 20, 1 << 22):
        monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", chunk_entries)
        assert kernels.rip_scan(gram, 3) == rip_scan_loop(gram, 3)


def test_farthest_point_order_matches_loop():
    dist = random_dist(6)
    assert np.array_equal(kernels.farthest_point_order(dist), farthest_point_order_loop(dist))


def test_chain_sum_matches_loop():
    dist = random_dist(7)
    members = np.array([0, 0, 3, 5, 0, 1, 2, 3, 4, 5, 6, 7, 8], dtype=np.int64)
    offsets = np.array([0, 1, 4, 13], dtype=np.int64)
    weights = np.array([1.0, 2.0**0.5, 2.0])
    assert kernels.chain_sum(dist, members, offsets, weights) == pytest.approx(
        chain_sum_loop(dist, members, offsets, weights), rel=1e-12
    )


def test_gamma2_scan_matches_loop():
    dist = random_dist(8)
    subs = np.array(list(itertools.combinations(range(9), 4)), dtype=np.int64)
    assert kernels.gamma2_scan(dist, subs, 2.0**0.5) == pytest.approx(
        gamma2_scan_loop(dist, subs, 2.0**0.5), rel=1e-12
    )


def cover_dist(name):
    """Spaces for the greedy-cover oracle: random planar ones on either side
    of the 64-bit word boundary, one with a duplicated point (a zero
    off-diagonal distance) and an integer lattice, whose many equal
    distances make ties in the gains."""
    if name == "duplicate":
        pts = trng.stream(71, 0).uniform(-1, 1, (70, 2))
        pts[40] = pts[3]
        return planar_dist(pts)
    if name == "lattice":
        return planar_dist(np.array(list(itertools.product(range(9), range(8))), float))
    n = int(name)
    return random_dist(700 + n, n)


COVER_SPACES = ["1", "2", "63", "64", "65", "130", "duplicate", "lattice"]


@functools.cache
def cover_oracle(name):
    """(dist, radii, loop counts) over every radius of the covering curve;
    every 16th radius on the 130-point space, where the loop takes seconds."""
    dist = cover_dist(name)
    radii = np.concatenate(([0.0], np.unique(dist[dist > 0])))
    if dist.shape[0] > 100:
        radii = radii[::16]
    return dist, radii, np.array([greedy_cover_loop(dist <= u) for u in radii])


def test_greedy_cover_matches_loop():
    for name in COVER_SPACES:
        dist, radii, want = cover_oracle(name)
        got = kernels.greedy_cover(dist, radii)
        assert np.array_equal(got, want), name
        for u, count in zip(radii[::7], want[::7]):
            assert kernels.greedy_cover(dist, [u]).tolist() == [count], (name, u)


@pytest.mark.parametrize("per_chunk", [2, 7])
def test_greedy_cover_matches_loop_in_split_chunks(per_chunk, monkeypatch):
    for name in COVER_SPACES:
        dist, radii, want = cover_oracle(name)
        monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", per_chunk * dist.size)
        assert np.array_equal(kernels.greedy_cover(dist, radii), want), name


def test_greedy_cover_counts_one_from_the_space_radius_on():
    dist = cover_dist("65")
    radius = dist.max(axis=1).min()
    above = np.array([radius, np.nextafter(radius, np.inf), dist.max(), 1e300])
    assert kernels.greedy_cover(dist, above).tolist() == [1, 1, 1, 1]
    assert kernels.greedy_cover(dist, [np.nextafter(radius, 0)])[0] >= 2
    assert kernels.greedy_cover(dist, []).size == 0


@pytest.mark.parametrize("u", [float("nan"), -1.0])
def test_greedy_cover_rejects_a_radius_with_empty_balls(u):
    with pytest.raises(ValueError):
        kernels.greedy_cover(cover_dist("2"), [0.5, u])


def test_popcount_counts_set_bits():
    words = np.concatenate(
        (
            np.array([0, 1, 2**63, 2**64 - 1], np.uint64),
            trng.stream(72, 0).integers(0, 2**64, 1000, np.uint64, endpoint=False),
        )
    )
    got = kernels._popcount(words)
    assert got.dtype == np.uint64
    assert got.tolist() == [bin(int(w)).count("1") for w in words]


def test_triangle_violation_matches_loop():
    # both round each triple's two subtractions alike, and a max is exact
    for scale in (1.0, 1e170, 1e-170):
        dist = scale * random_dist(10)
        assert kernels.max_triangle_violation(dist) == max_triangle_violation_loop(dist)
        bad = dist.copy()
        bad[0, 1] = bad[1, 0] = dist.max() * 10
        assert kernels.max_triangle_violation(bad) == max_triangle_violation_loop(bad)
        assert kernels.max_triangle_violation(bad) > 0
