"""Each numpy kernel against a plain-loop oracle."""

import itertools
import math

import numpy as np
import pytest

from tensorchain import kernels, sensing
from tensorchain import rng as trng
from tensorchain.tensor import unfold


def random_trajs(seed, ns=6, nt=5, d=3):
    gen = trng.stream(seed, 0)
    return np.ascontiguousarray(
        gen.standard_normal((ns, nt, d, d)) + 1j * gen.standard_normal((ns, nt, d, d))
    )


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
    if gauge == kernels.GAUGE_FROBENIUS:
        acc = 0.0
        for i in range(mat.shape[0]):
            for j in range(mat.shape[1]):
                v = mat[i, j]
                acc += v.real * v.real + v.imag * v.imag
        return np.sqrt(acc)
    s = np.linalg.svd(mat)[1]
    if gauge == kernels.GAUGE_SPECTRAL:
        return s[0]
    return s.sum()


def pairwise_norms_loop(trajs, gauge):
    ns, nt = trajs.shape[:2]
    out = np.zeros((ns, nt, nt))
    for s in range(ns):
        for a in range(nt):
            for b in range(a + 1, nt):
                v = matrix_gauge_norm(trajs[s, a] - trajs[s, b], gauge)
                out[s, a, b] = v
                out[s, b, a] = v
    return out


def norms_vs_ref_loop(trajs, ref, gauge):
    ns, nt = trajs.shape[:2]
    out = np.zeros((ns, nt))
    for s in range(ns):
        for a in range(nt):
            if a != ref:
                out[s, a] = matrix_gauge_norm(trajs[s, a] - trajs[s, ref], gauge)
    return out


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


@pytest.mark.parametrize("gauge", [0, 1, 2])
def test_pairwise_norms_match_loop(gauge):
    trajs = random_trajs(1)
    assert np.allclose(
        kernels.ensemble_pairwise_norms(trajs, gauge),
        pairwise_norms_loop(trajs, gauge),
        rtol=1e-12,
        atol=1e-12,
    )


@pytest.mark.parametrize("gauge", [0, 1, 2])
def test_norms_vs_ref_match_loop(gauge):
    trajs = random_trajs(2)
    assert np.allclose(
        kernels.ensemble_norms_vs_ref(trajs, 2, gauge),
        norms_vs_ref_loop(trajs, 2, gauge),
        rtol=1e-12,
        atol=1e-12,
    )


def test_batch_lambda_max_matches_loop():
    gen = trng.stream(3, 0)
    raw = gen.standard_normal((8, 4, 4)) + 1j * gen.standard_normal((8, 4, 4))
    mats = np.ascontiguousarray((raw + raw.conj().transpose(0, 2, 1)) / 2)
    want = [np.linalg.eigvalsh(m)[-1] for m in mats]
    assert np.allclose(kernels.batch_lambda_max(mats), want, rtol=1e-12, atol=1e-12)


def test_batch_spectral_matches_loop():
    gen = trng.stream(4, 0)
    mats = np.ascontiguousarray(
        gen.standard_normal((8, 3, 5)) + 1j * gen.standard_normal((8, 3, 5))
    )
    want = [np.linalg.svd(m)[1][0] for m in mats]
    assert np.allclose(kernels.batch_spectral(mats), want, rtol=1e-12, atol=1e-12)


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
