import itertools
import math
import tracemalloc

import numpy as np
import pytest

from tensorchain import kernels, rng as trng, sensing
from tensorchain.chaining import FiniteMetricSpace, dudley_integral
from tensorchain.errors import CapacityError, DegenerateOperatorWarning, DomainError
from tensorchain.report import dumps
from tensorchain.sensing import (
    RipReport,
    SamplingPattern,
    coherence,
    draw_pattern,
    entropy_bound,
    fourier_unitary,
    rip_exact,
    rip_monte_carlo,
    rip_sampling_condition,
    rip_tau_threshold,
    sample_operator,
)
from tensorchain.tensor import (
    DenseTensor,
    Shape,
    fold,
    identity,
    is_unitary,
    random_unitary,
    unfold,
)


def brute_rip(a: DenseTensor, xi: int) -> float:
    """Unpruned support enumeration with a dense eigensolver."""
    mat = unfold(a)
    gram = mat.conj().T @ mat
    ncols = gram.shape[0]
    best = 0.0
    for sup in itertools.combinations(range(ncols), min(xi, ncols)):
        w = np.linalg.eigvalsh(gram[np.ix_(sup, sup)])
        best = max(best, float(w[-1] - 1.0), float(1.0 - w[0]))
    return best


# ---------------------------------------------------------------------------
# coherence
# ---------------------------------------------------------------------------


def test_coherence_fourier_is_one():
    assert coherence(fourier_unitary((8,))) == pytest.approx(1.0, abs=1e-10)
    assert coherence(fourier_unitary((2, 4))) == pytest.approx(1.0, abs=1e-10)


def test_coherence_identity_is_sqrt_dim():
    eye = identity(Shape((2, 3), (2, 3)))
    assert coherence(eye) == pytest.approx(math.sqrt(6.0))


def test_coherence_matches_entry_scan():
    u = random_unitary((2, 2), trng.stream(2, 0))
    scan = max(abs(v) for v in u.entries)
    assert coherence(u) == pytest.approx(2.0 * scan, rel=1e-12)


def test_coherence_rejects_non_unitary():
    bad = 2.0 * identity(Shape((2,), (2,)))
    with pytest.raises(DomainError):
        coherence(bad)


# ---------------------------------------------------------------------------
# sampling patterns and operators
# ---------------------------------------------------------------------------


def test_pattern_full_probability_selects_everything():
    pat = draw_pattern((2, 4), 8, seed=3)
    assert len(pat) == 8
    assert pat.selected == tuple(range(8))


def test_pattern_seed_reproducible():
    a = draw_pattern((16,), 4, seed=5)
    b = draw_pattern((16,), 4, seed=5)
    assert a.selected == b.selected
    c = draw_pattern((16,), 4, seed=6)
    assert a.selected != c.selected or a.seed != c.seed


def test_pattern_inclusion_rate_binomial():
    total, target, draws = 16, 4, 10_000
    counts = sum(
        len(draw_pattern((total,), target, seed=7, stream_index=i)) for i in range(draws)
    )
    rate = counts / (draws * total)
    p = target / total
    se = math.sqrt(p * (1 - p) / (draws * total))
    assert abs(rate - p) <= 3.0 * se


def test_pattern_bounds_validation():
    with pytest.raises(DomainError):
        draw_pattern((4,), 5, seed=1)
    with pytest.raises(DomainError):
        draw_pattern((4,), 0, seed=1)


def test_sample_operator_full_pattern_is_identity_action():
    u = fourier_unitary((2, 2))
    pat = draw_pattern((2, 2), 4, seed=8)
    op = sample_operator(u, pat)
    assert np.allclose(unfold(op), unfold(u), rtol=0, atol=1e-14)


def test_sample_operator_is_scaled_row_selection():
    u = random_unitary((8,), trng.stream(9, 0))
    pat = draw_pattern((8,), 4, seed=10)
    op = sample_operator(u, pat)
    scale = math.sqrt(8.0 / 4.0)
    assert np.allclose(
        unfold(op), scale * unfold(u)[list(pat.selected), :], rtol=0, atol=0
    )


def test_sample_operator_single_row_rank_one():
    u = fourier_unitary((4,))
    pat = SamplingPattern((4,), 1, 0, (2,))
    op = sample_operator(u, pat)
    assert np.linalg.matrix_rank(unfold(op)) == 1


def test_sample_operator_empty_pattern_warns():
    u = fourier_unitary((4,))
    pat = SamplingPattern((4,), 1, 0, ())
    with pytest.warns(DegenerateOperatorWarning):
        op = sample_operator(u, pat)
    assert np.all(op.data == 0)


def test_sample_operator_dimension_check():
    u = fourier_unitary((4,))
    with pytest.raises(DomainError):
        sample_operator(u, draw_pattern((8,), 2, seed=1))


# ---------------------------------------------------------------------------
# restricted isometry constants
# ---------------------------------------------------------------------------


def test_rip_exact_unitary_is_zero():
    for dims in ((4,), (2, 2)):
        u = random_unitary(dims, trng.stream(11, 0))
        for xi in (1, 2, 3):
            assert rip_exact(u, xi) <= 1e-10


def test_rip_exact_scaled_identity():
    for c in (0.5, 1.3):
        a = c * identity(Shape((2, 2), (2, 2)))
        assert rip_exact(a, 2) == pytest.approx(abs(c**2 - 1.0), rel=1e-12)


def test_rip_exact_matches_brute_force():
    gen = trng.stream(12, 0)
    for trial in range(6):
        mat = gen.standard_normal((4, 8)) + 1j * gen.standard_normal((4, 8))
        mat /= math.sqrt(4)
        a = fold(mat, Shape((4,), (8,)))
        for xi in (1, 2, 3):
            assert rip_exact(a, xi) == pytest.approx(brute_rip(a, xi), rel=1e-10)


def test_rip_exact_monotone_in_xi():
    gen = trng.stream(13, 0)
    mat = gen.standard_normal((6, 10)) + 1j * gen.standard_normal((6, 10))
    a = fold(mat / math.sqrt(6), Shape((6,), (10,)))
    values = [rip_exact(a, xi) for xi in (1, 2, 3, 4)]
    assert all(x <= y + 1e-12 for x, y in zip(values, values[1:]))


def test_rip_exact_equals_matrix_view():
    # the constant only depends on the unfolding, not the mode structure
    gen = trng.stream(14, 0)
    mat = gen.standard_normal((4, 8)) + 1j * gen.standard_normal((4, 8))
    a = fold(mat, Shape((2, 2), (2, 4)))
    b = fold(mat, Shape((4,), (8,)))
    assert rip_exact(a, 2) == pytest.approx(rip_exact(b, 2), rel=1e-14)


@pytest.mark.parametrize("dims", [(8,), (2, 4), (2, 2, 2)])
def test_rip_exact_with_its_group_equals_the_full_scan(dims):
    u = fourier_unitary(dims)
    for trial in range(4):
        a = sample_operator(u, draw_pattern(dims, 4, 21, stream_index=trial))
        for xi in (1, 2, 3, 8):
            assert rip_exact(a, xi, group=dims) == rip_exact(a, xi)


def test_rip_exact_budget():
    # a Fourier scan bounds C(63, 5) = 7 028 847 orbit representatives at xi 6
    u = fourier_unitary((64,))
    with pytest.raises(CapacityError):
        rip_exact(u, 6, group=(64,))


def test_rip_exact_refuses_before_it_forms_the_gram():
    # C(2048, 3) = 1 429 559 296 supports; the 2048^2 complex Gram is 64 MB
    a = DenseTensor(Shape((16,), (2048,)), np.ones((16, 2048), np.complex128))
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="bounds more than the exact-scan budget"):
            rip_exact(a, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_rip_monte_carlo_refuses_before_drawing(monkeypatch):
    # a random unitary's scan bounds every one of C(64, 5) = 7 624 512 supports
    drawn = []
    monkeypatch.setattr(sensing, "draw_pattern", lambda *a, **k: drawn.append(a))
    u = random_unitary((64,), trng.stream(3, 0))
    with pytest.raises(CapacityError, match="budget of 1000000"):
        rip_monte_carlo(u, 5, 0.5, trials=3, seed=1, target_size=32)
    assert drawn == []


@pytest.mark.parametrize("xi, count", [(1, 1), (5, math.comb(63, 4)), (64, 1)])
def test_scan_capacity_counts_orbit_representatives(xi, count, monkeypatch):
    monkeypatch.setattr(kernels, "SUPPORT_BUDGET", count)
    kernels.check_scan_capacity(64, xi, (64,))
    monkeypatch.setattr(kernels, "SUPPORT_BUDGET", count - 1)
    with pytest.raises(CapacityError, match=f"budget of {count - 1} supports"):
        kernels.check_scan_capacity(64, xi, (8, 8))


def test_rip_exact_rejects_a_group_of_another_size():
    with pytest.raises(DomainError, match="group"):
        rip_exact(fourier_unitary((8,)), 2, group=(4,))


def test_rip_monte_carlo_trivial_thresholds():
    u = fourier_unitary((8,))
    rep0 = rip_monte_carlo(u, 2, 0.0, trials=40, seed=15, target_size=4)
    assert rep0.eta_hat == 1.0
    hi = max(rep0.tau_values) * 1.01
    rep1 = rip_monte_carlo(u, 2, hi, trials=40, seed=15, target_size=4)
    assert rep1.eta_hat == 0.0
    assert rep1.method == "exact"


def test_rip_monte_carlo_deterministic():
    u = fourier_unitary((8,))
    a = rip_monte_carlo(u, 2, 0.5, trials=25, seed=16, target_size=4)
    b = rip_monte_carlo(u, 2, 0.5, trials=25, seed=16, target_size=4)
    assert a.tau_values == b.tau_values
    assert isinstance(a, RipReport)
    assert dumps(a.to_dict()) == dumps(b.to_dict())


def test_rip_monte_carlo_eta_monotone_in_tau():
    u = fourier_unitary((8,))
    rep = rip_monte_carlo(u, 2, 0.3, trials=30, seed=17, target_size=4)
    arr = np.array(rep.tau_values)
    etas = [(arr >= tau).mean() for tau in (0.1, 0.3, 0.6, 1.0)]
    assert all(a >= b for a, b in zip(etas, etas[1:]))



@pytest.mark.parametrize("group", [None, (3, 4)], ids=["plain", "orbit"])
def test_rip_monte_carlo_equals_brute_force_on_every_trial(group):
    # the trials share the scan's kept first chunk; each is still the unpruned scan
    u = fourier_unitary((3, 4))
    rep = rip_monte_carlo(u, 3, 0.5, trials=6, seed=18, target_size=5, group=group)
    want = [
        brute_rip(sample_operator(u, draw_pattern((3, 4), 5, 18, stream_index=t)), 3)
        for t in range(6)
    ]
    assert list(rep.tau_values) == want

# ---------------------------------------------------------------------------
# sampling condition, thresholds, entropy
# ---------------------------------------------------------------------------


def test_condition_eta_near_one_drops_eta_term():
    # with eta -> 1 the eta term vanishes and the log term governs
    assert rip_sampling_condition(2, 1.0, 0.5, 0.999999, (64,), (64,), 1e-9, 1.0)
    assert not rip_sampling_condition(2, 1.0, 0.5, 0.999999, (64,), (64,), 1e9, 1.0)


def test_condition_xi_one_drops_log_term():
    # log^2(1) = 0: only the eta term matters
    assert rip_sampling_condition(1, 1.0, 0.5, 0.5, (8,), (64,), 1e9, 1.0)
    assert not rip_sampling_condition(1, 1.0, 0.5, 1e-6, (8,), (64,), 1e9, 1e3)


def test_condition_flips_once_in_target_size():
    flips = [
        rip_sampling_condition(2, 1.0, 0.5, 0.25, (m,), (64,), 0.5, 0.5)
        for m in (2, 4, 8, 16, 32, 64, 128, 256)
    ]
    assert flips[0] is False and flips[-1] is True
    assert sum(1 for a, b in zip(flips, flips[1:]) if a != b) == 1


def test_condition_domain_checks():
    with pytest.raises(DomainError):
        rip_sampling_condition(2, 1.0, 1.5, 0.5, (8,), (64,), 1.0, 1.0)
    with pytest.raises(DomainError):
        rip_sampling_condition(2, 0.5, 0.5, 0.5, (8,), (64,), 1.0, 1.0)


def test_tau_threshold_spot_value():
    eta, xi, ups = 0.1, 4, 1.0
    got = rip_tau_threshold(eta, xi, ups, (64,), (256,))
    # independent re-evaluation with a different arrangement
    li, lj, lx, le = math.log(64), math.log(256), math.log(4), math.log(10)
    ratio = 4 / 64
    want = (
        math.sqrt(ratio * li * lj) * lx
        + ratio * li * lj * lx**2
        + math.sqrt(le * ratio)
        + le * ratio
    )
    assert got == pytest.approx(want, rel=1e-12)


def test_tau_threshold_xi_one_kills_log_terms():
    got = rip_tau_threshold(0.1, 1, 2.0, (16,), (64,))
    le = math.log(10.0)
    want = 2.0 * math.sqrt(le / 16.0) + 4.0 * le / 16.0
    assert got == pytest.approx(want, rel=1e-12)


def test_tau_threshold_decreasing_in_rows():
    vals = [rip_tau_threshold(0.1, 4, 1.0, (m,), (256,)) for m in (16, 32, 64, 128)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_entropy_bound_scalings():
    base = entropy_bound(4, 1.0, (64,), (256,))
    assert entropy_bound(4, 2.0, (64,), (256,)) == pytest.approx(2.0 * base, rel=1e-12)
    # doubling the row count divides the prefactor by sqrt(2)
    log_part = math.log(4 * math.sqrt(math.log(64)) * math.sqrt(math.log(256)))
    log_part2 = math.log(4 * math.sqrt(math.log(128)) * math.sqrt(math.log(256)))
    doubled = entropy_bound(4, 1.0, (128,), (256,))
    assert doubled / log_part2 == pytest.approx(
        base / log_part / math.sqrt(2.0), rel=1e-12
    )


def test_entropy_bound_vs_discretized_sphere():
    # a coarse proxy for the sparse sphere: canonical xi-sparse sign vectors
    # under the scaled max-inner-product distance; the ratio against the
    # closed-form estimate is recorded, not asserted (the estimate hides an
    # absolute constant)
    xi, rows = 2, 6
    u = fourier_unitary((8,))
    pat = draw_pattern((8,), rows, seed=18)
    op = unfold(sample_operator(u, pat))
    vectors = []
    for sup in itertools.combinations(range(8), xi):
        for signs in itertools.product((1.0, -1.0), repeat=xi):
            v = np.zeros(8, complex)
            v[list(sup)] = np.array(signs) / math.sqrt(xi)
            vectors.append(v)
    vecs = np.array(vectors)
    proj = vecs @ op.T  # f-values per measurement row
    dist = np.abs(proj[:, None, :] - proj[None, :, :]).max(axis=2)
    space = FiniteMetricSpace(len(vecs), {"d": (dist + dist.T) / 2})
    numeric = dudley_integral(space, "d")
    estimate = entropy_bound(xi, 1.0, (rows,), (8,))
    ratio = numeric / estimate
    assert ratio > 0
    print(f"entropy-integral ratio numeric/closed-form = {ratio:.3f}")


def test_sparse_projection_magnitude_bound():
    # max_j sqrt(prodJ/prodI) |<row_j, x>| <= coherence sqrt(xi/prodI) for
    # unit-norm xi-sparse signals; maximize over canonical supports
    for u, dims in ((fourier_unitary((8,)), (8,)), (random_unitary((8,), trng.stream(19, 0)), (8,))):
        ups = coherence(u)
        rows = unfold(u)
        prod_j = 8
        for target in (2, 4):
            scale = math.sqrt(prod_j / target)
            for xi in (1, 2, 3):
                worst = 0.0
                for sup in itertools.combinations(range(prod_j), xi):
                    # the best unit-norm signal on this support aligns with the row
                    amp = np.sqrt((np.abs(rows[:, list(sup)]) ** 2).sum(axis=1)).max()
                    worst = max(worst, scale * amp)
                assert worst <= ups * math.sqrt(xi * prod_j / target) / math.sqrt(prod_j) + 1e-9


# ---------------------------------------------------------------------------
# measurement unitaries
# ---------------------------------------------------------------------------


def test_fourier_two_point():
    f = fourier_unitary((2,))
    assert np.allclose(np.abs(unfold(f)), 1.0 / math.sqrt(2.0))


def test_fourier_unitary_and_flat():
    for dims in ((8,), (2, 4), (2, 2, 2)):
        f = fourier_unitary(dims)
        assert is_unitary(f, tol=1e-10)
        assert coherence(f) == pytest.approx(1.0, abs=1e-10)


def test_fourier_kron_structure():
    f = fourier_unitary((2, 3))
    f2, f3 = unfold(fourier_unitary((2,))), unfold(fourier_unitary((3,)))
    assert np.allclose(unfold(f), np.kron(f2, f3), atol=1e-12)
