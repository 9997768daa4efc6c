"""Each numpy kernel against a plain-loop oracle."""

import itertools
import math

import numpy as np
import pytest

from tensorchain import kernels, sensing
from tensorchain import rng as trng
from tensorchain.tensor import GaugeNorm, unfold

GAUGES = list(GaugeNorm)
GAUGE_IDS = [str(i) for i in range(len(GAUGES))]


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


def random_dist(seed, n=9):
    gen = trng.stream(seed, 0)
    pts = gen.uniform(-1, 1, (n, 2))
    diff = pts[:, None, :] - pts[None, :, :]
    d = np.sqrt((diff**2).sum(axis=2))
    return np.ascontiguousarray((d + d.T) / 2)


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
    return kernels._gauge_norms_stack(diff, gauge)


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
    n = within.shape[0]
    covered = [False] * n
    count = 0
    while not all(covered):
        bi, bv = 0, -1
        for c in range(n):
            gain = sum(1 for t in range(n) if not covered[t] and within[c, t])
            if gain > bv:
                bv, bi = gain, c
        for t in range(n):
            covered[t] = covered[t] or bool(within[bi, t])
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
@pytest.mark.parametrize("chunk_entries", [kernels._CHUNK_ENTRIES, 20, 1])
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


def gershgorin_bound(block):
    off = np.abs(block).sum(axis=1) - np.abs(block.diagonal())
    return float((np.abs(block.diagonal().real - 1.0) + off).max())


def misleading_gram():
    """Its largest Gershgorin bound (0.6, on {0, 1, 2}) is not on the
    support of largest deviation (0.5, any support holding 3)."""
    gram = np.eye(6, dtype=np.complex128)
    gram[0, 1] = gram[1, 0] = 0.3
    gram[0, 2], gram[2, 0] = 0.3j, -0.3j
    gram[3, 3] = 1.5
    return gram


def equicorrelated(n, rho):
    return np.eye(n, dtype=np.complex128) + rho * (np.ones((n, n)) - np.eye(n))


@pytest.mark.parametrize(
    "gram",
    [
        equicorrelated(7, 0.2),  # lambda_max meets its Gershgorin bound
        equicorrelated(7, -0.15),  # lambda_min meets it
        1.0 * np.eye(7, dtype=np.complex128),
        1.5 * np.eye(7, dtype=np.complex128),
        0.25 * np.eye(7, dtype=np.complex128),
        misleading_gram(),
        # scanned one support per chunk, the last support meets its bound
        # just above the best of the earlier ones
        np.diag([1.0, 1.1, 1.2, 1.3, 1.4, 1.49999999, 1.5]).astype(np.complex128),
    ],
    ids=["equi+", "equi-", "I", "1.5I", "0.25I", "misleading", "graded"],
)
@pytest.mark.parametrize("chunk_entries", [kernels._CHUNK_ENTRIES, 20, 1])
@pytest.mark.parametrize("xi", [1, 2, 3, 6])
def test_rip_scan_matches_plain_scan_on_adversarial_grams(
    gram, xi, chunk_entries, monkeypatch
):
    monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", chunk_entries)
    assert kernels.rip_scan(gram, xi) == rip_scan_loop(gram, xi)


def test_misleading_gram_bound_and_deviation_disagree():
    gram = misleading_gram()
    combs = list(itertools.combinations(range(6), 3))
    bounds = [gershgorin_bound(gram[np.ix_(c, c)]) for c in combs]
    devs = [np.abs(np.linalg.eigvalsh(gram[np.ix_(c, c)]) - 1.0).max() for c in combs]
    assert combs[int(np.argmax(bounds))] == (0, 1, 2)
    assert 3 in combs[int(np.argmax(devs))]
    assert max(bounds) > max(devs)


@pytest.mark.parametrize(
    "ncols, xi, limit",
    [(9, 1, 4), (9, 3, 7), (9, 9, 3), (12, 6, 100), (70, 69, 5), (5, 7, 2)],
)
def test_lex_supports_match_combinations(ncols, xi, limit):
    chunks = list(kernels._lex_supports(ncols, xi, limit))
    assert all(c.shape[0] == xi and 0 < c.shape[1] <= limit for c in chunks)
    got = [tuple(int(v) for v in col) for c in chunks for col in c.T]
    assert got == list(itertools.combinations(range(ncols), xi))


def test_rip_scan_eigensolves_few_fourier_blocks(monkeypatch):
    u = sensing.fourier_unitary((64,))
    a = unfold(sensing.sample_operator(u, sensing.draw_pattern((64,), 32, 7)))
    gram = a.conj().T @ a
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def counting(blocks, *args, **kwargs):
        solved.append(blocks.shape[0])
        return eigvalsh(blocks, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    tau = kernels.rip_scan(gram, 3)
    assert sum(solved) < math.comb(64, 3) / 4
    monkeypatch.undo()
    assert tau == rip_scan_loop(gram, 3)


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


def test_greedy_cover_matches_loop():
    dist = random_dist(9)
    for u in np.quantile(dist[dist > 0], [0.2, 0.5, 0.8]):
        within = dist <= u
        assert kernels.greedy_cover(within) == greedy_cover_loop(within)


def test_triangle_violation_matches_loop():
    dist = random_dist(10)
    assert kernels.max_triangle_violation(dist) == pytest.approx(
        max_triangle_violation_loop(dist), abs=1e-15
    )
    bad = dist.copy()
    bad[0, 1] = bad[1, 0] = dist.max() * 10
    assert kernels.max_triangle_violation(bad) == pytest.approx(
        max_triangle_violation_loop(bad), abs=1e-15
    )
    assert kernels.max_triangle_violation(bad) > 0
