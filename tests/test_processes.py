from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tensorchain import kernels, processes
from tensorchain import rng as trng
from tensorchain.chaining import FiniteMetricSpace
from tensorchain.errors import (
    DegenerateMetricError,
    DomainError,
    InsufficientDataError,
    ValidationError,
)
from tensorchain.processes import (
    ProcessSpec,
    TailCurve,
    empirical_tail,
    ensemble_to_csv,
    fit_tail_exponent,
    process_space,
    sample_ensemble,
    sample_mixed_sups,
    verify_increment_tail,
)
from tensorchain.tensor import (
    DenseTensor,
    Shape,
    fold,
    random_hermitian,
    unfold,
)
from test_kernels import assert_no_child_left, count_forks


def make_spec(family="gaussian_linear", seed=7, nt=6, k=3, row_modes=(2,), **kw):
    basis = tuple(random_hermitian(row_modes, trng.stream(seed, j)) for j in range(k))
    coeffs = trng.stream(seed, 99).uniform(-1.0, 1.0, (nt, k))
    return ProcessSpec(family, coeffs, basis, kw.pop("tail_beta", 2.0), **kw)


def make_pair(seed=7, samples=500, **kw):
    spec = make_spec(seed=seed, **kw)
    return spec, process_space(spec), sample_ensemble(spec, seed + 1, samples)


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------


def test_spec_stores_exactly_hermitian_basis_bit_for_bit():
    spec = make_spec(seed=5, k=3, row_modes=(2, 3))
    again = ProcessSpec(spec.family, spec.coefficients, spec.basis, spec.tail_beta)
    for given, stored in zip(spec.basis, again.basis):
        assert np.array_equal(stored.data, given.data)
        mat = unfold(stored)
        assert np.array_equal(mat, mat.conj().T)


def test_spec_stores_hermitian_part_of_nearly_hermitian_basis():
    herm = unfold(random_hermitian((3,), trng.stream(6, 0)))
    off = herm.copy()
    off[0, 2] += 1e-12  # inside the relative tolerance of hermitian_part
    basis = (fold(off, Shape((3,), (3,))),)
    spec = ProcessSpec("gaussian_linear", np.ones((2, 1)), basis, 2.0)
    mat = unfold(spec.basis[0])
    assert np.array_equal(mat, (off + off.conj().T) / 2)
    assert np.array_equal(mat, mat.conj().T)
    assert not np.array_equal(mat, off)
    assert np.array_equal(spec.basis_stack[0], mat)


def test_spec_rejects_non_hermitian_basis():
    gen = trng.stream(1, 0)
    bad = DenseTensor(
        Shape((2,), (2,)), gen.standard_normal((2, 2)) + 1j * gen.standard_normal((2, 2))
    )
    with pytest.raises(ValidationError):
        ProcessSpec("gaussian_linear", np.ones((3, 1)), (bad,), 2.0)


def test_spec_rejects_bad_scale_and_beta():
    basis = (random_hermitian((2,), trng.stream(2, 0)),)
    with pytest.raises(ValidationError):
        ProcessSpec("gaussian_linear", np.ones((3, 1)), basis, 0.0)
    with pytest.raises(ValidationError):
        ProcessSpec("gaussian_linear", np.ones((3, 1)), basis, 2.0, metric_scale=-1.0)


# each class is given a C-contiguous array of the dtype it stores, which it
# must copy before freezing
@pytest.mark.parametrize(
    "given, store",
    [
        (1.0 - np.eye(2), lambda a: FiniteMetricSpace(2, {"d": a}).metrics["d"]),
        (np.ones((2, 1)), lambda a: ProcessSpec(
            "gaussian_linear", a, make_spec(k=1).basis, 2.0).coefficients),
        (np.array([1.0, 2.0]), lambda a: TailCurve(a, [0.5, 0.25], 0).u_grid),
        (np.array([0.5, 0.25]), lambda a: TailCurve([1.0, 2.0], a, 0).survival),
        (np.eye(2, dtype=complex), lambda a: DenseTensor(Shape((2,), (2,)), a).data),
    ],
    ids=["FiniteMetricSpace", "ProcessSpec", "TailCurve.u_grid", "TailCurve.survival",
         "DenseTensor"],
)
def test_stored_arrays_leave_the_callers_writeable(given, store):
    stored = store(given)
    assert not stored.flags.writeable
    given.flat[0] = 3.0
    assert stored.flat[0] != 3.0


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


def test_zero_coefficients_give_zero_trajectories():
    basis = (random_hermitian((2,), trng.stream(3, 0)),)
    spec = ProcessSpec("gaussian_linear", np.zeros((2, 1)), basis, 2.0)
    ens = sample_ensemble(spec, 5, 1)
    assert np.all(ens.trajectories == 0)


def test_same_seed_bit_identical():
    _, _, e1 = make_pair(seed=11, samples=50)
    e2 = sample_ensemble(make_spec(seed=11), 12, 50)
    assert np.array_equal(e1.trajectories, e2.trajectories)


def test_different_seed_differs():
    spec, _, e1 = make_pair(seed=13, samples=20)
    e2 = sample_ensemble(spec, 99, 20)
    assert not np.array_equal(e1.trajectories, e2.trajectories)


@pytest.mark.parametrize(
    "family",
    ["gaussian_linear", "subexponential_linear", "rademacher_martingale", "iid_bernstein"],
)
def test_all_families_generate_hermitian_trajectories(family):
    spec, space, ens = make_pair(family=family, seed=17, samples=8)
    trajs = ens.trajectories
    # bit for bit: the norm kernels read only the lower triangle
    assert np.array_equal(trajs, trajs.conj().transpose(0, 1, 3, 2))


def test_rank_one_increment_closed_form():
    # K = 1, |T| = 2: per-sample increment norm is |g| |c(t)-c(s)| ||B||
    basis = (random_hermitian((2,), trng.stream(19, 0)),)
    coeffs = np.array([[0.25], [1.0]])
    spec = ProcessSpec("gaussian_linear", coeffs, basis, 2.0)
    seed, samples = 23, 40
    ens = sample_ensemble(spec, seed, samples)
    b_norm = np.linalg.norm(unfold(basis[0]), 2)
    pairwise = kernels.ensemble_pairwise_norms(ens.trajectories, ens.gauge)
    assert pairwise.shape == (samples, 1)  # the one pair (0, 1)
    got = pairwise[:, 0]
    for s in range(samples):
        g = trng.stream(seed, s).standard_normal(1)[0]
        assert got[s] == pytest.approx(abs(g) * 0.75 * b_norm, rel=1e-10)


def test_homogeneity_of_statistics_and_exponent():
    spec, _, ens = make_pair(seed=29, samples=4000)
    scaled_spec = ProcessSpec(
        spec.family,
        spec.coefficients,
        tuple(3.0 * b for b in spec.basis),
        spec.tail_beta,
        spec.metric_scale,
    )
    scaled = sample_ensemble(scaled_spec, 30, 4000)
    base = sample_ensemble(spec, 30, 4000)
    base_norms = kernels.ensemble_pairwise_norms(base.trajectories, base.gauge)
    scaled_norms = kernels.ensemble_pairwise_norms(scaled.trajectories, scaled.gauge)
    assert base_norms.shape == (4000, 6 * 5 // 2)
    assert np.allclose(scaled_norms, 3.0 * base_norms, rtol=1e-12)
    sups_a, sups_b = base.sup_samples(0), scaled.sup_samples(0)
    grid_a = np.unique(np.quantile(sups_a, 1 - np.geomspace(0.5, 0.01, 10)))
    fit_a = fit_tail_exponent(empirical_tail(base, 0, grid_a))
    fit_b = fit_tail_exponent(empirical_tail(scaled, 0, 3.0 * grid_a))
    assert fit_a[0] == pytest.approx(fit_b[0], rel=1e-9)


LAWS = {
    "gaussian_linear": lambda gen, k: gen.standard_normal(k),
    "subexponential_linear": lambda gen, k: (gen.integers(0, 2, k) * 2.0 - 1.0)
    * gen.standard_exponential(k),
    "rademacher_martingale": lambda gen, k: gen.integers(0, 2, k) * 2.0 - 1.0,
    "iid_bernstein": lambda gen, k: gen.uniform(-np.sqrt(3.0), np.sqrt(3.0), k),
}


def oracle_weights(specs, seed, hi, lo=0):
    """Per-sample loop over samples lo..hi-1: each component's scalars from
    stream (seed, s) in order; one (hi - lo, K) array per component."""
    draws = []
    for s in range(lo, hi):
        gen = trng.stream(seed, s)
        draws.append([LAWS[spec.family.value](gen, spec.order) for spec in specs])
    return [np.array([row[j] for row in draws]).reshape(hi - lo, spec.order)
            for j, spec in enumerate(specs)]


def oracle_trajectories(specs, seed, hi, lo=0):
    """Per-sample loop over samples lo..hi-1 of :func:`oracle_weights`: each
    component contracted by ``einsum``, the parts added in order."""
    weights = oracle_weights(specs, seed, hi, lo)
    out = []
    for row in range(hi - lo):
        traj = None
        for spec, w in zip(specs, weights):
            part = np.einsum(
                "tk,kij->tij", spec.coefficients * w[row][None, :], spec.basis_stack
            )
            traj = part if traj is None else traj + part
        out.append(traj)
    return np.array(out)


@pytest.mark.parametrize(
    "family",
    ["gaussian_linear", "subexponential_linear", "rademacher_martingale", "iid_bernstein"],
)
def test_ensemble_matches_per_sample_oracle(family):
    # an odd order draws an odd number of signs, whose last word integers
    # leaves half read
    for k in (1, 3, 4, 5):
        spec = make_spec(family=family, seed=31, nt=5, k=k)
        ens = sample_ensemble(spec, 37, 25)
        assert np.array_equal(ens.trajectories, oracle_trajectories((spec,), 37, 25))
        assert (ens.sample_count, ens.space_size) == (25, 5)


def test_mixed_sups_match_per_sample_oracle_across_blocks(monkeypatch):
    # 6 indices of 2x2 unfoldings and 5 or 6 weights: forming every
    # increment of a sample holds 6 x (4 x 4 + K) reals, at most 66 entries,
    # 3 samples per block, so 10 samples span three full blocks and a
    # partial one
    monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", 3 * 66)
    g = make_spec("gaussian_linear", seed=103, nt=6, k=3)
    for k in (2, 3):  # subexponential orders, even and odd
        e = make_spec("subexponential_linear", seed=104, nt=6, k=k, tail_beta=1.0)
        got = sample_mixed_sups(g, e, 7, 10)
        trajs = oracle_trajectories((g, e), 7, 10)
        # the increments are Hermitian: spectral norm is the largest |eigenvalue|
        want = [np.abs(np.linalg.eigvalsh(traj - traj[0])).max() for traj in trajs]
        assert np.array_equal(got, want)


# the property a process pool maps on: samples 0..n-1 realized in blocks cut
# anywhere concatenate to one realization of them all, byte for byte.  At a
# budget of 4096 entries contract forms the 6 indices x 2 x 2 rows of a block
# in chunks of 32 rows, about 5 samples, so the cuts fall inside and across them
@settings(max_examples=40, deadline=None)
@example(families=("gaussian_linear",), k=3, cuts=[3], chunk_entries=4096)
@given(
    families=st.sampled_from([
        ("gaussian_linear",), ("subexponential_linear",), ("rademacher_martingale",),
        ("iid_bernstein",), ("gaussian_linear", "subexponential_linear"),
    ]),
    k=st.integers(1, 5),
    cuts=st.lists(st.integers(1, 23), max_size=4, unique=True).map(sorted),
    chunk_entries=st.sampled_from([4096, 1 << 19]),
)
def test_realize_over_any_split_concatenates_to_one_call(families, k, cuts, chunk_entries):
    specs = tuple(make_spec(family, seed=120 + j, nt=6, k=k) for j, family in enumerate(families))
    bounds = [0, *cuts, 24]
    with mock.patch.object(kernels, "_CHUNK_ENTRIES", chunk_entries):
        whole = processes._realize(specs, 121, 0, 24)
        parts = [processes._realize(specs, 121, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    assert np.concatenate(parts).tobytes() == whole.tobytes()


# the property sample_mixed_sups relies on: X formed at any (sample, index)
# pairs of drawn weights is those entries of the realized block, byte for
# byte, whatever the budget contract cuts its rows by
@settings(max_examples=40, deadline=None)
@given(
    families=st.sampled_from([
        ("gaussian_linear",), ("subexponential_linear",), ("rademacher_martingale",),
        ("iid_bernstein",), ("gaussian_linear", "subexponential_linear"),
    ]),
    k=st.integers(1, 5),
    pairs=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 5)), min_size=1, max_size=40),
    chunk_entries=st.sampled_from([0, 4096, 1 << 19]),
)
def test_forming_any_pairs_equals_those_entries_of_the_realized_block(
    families, k, pairs, chunk_entries
):
    specs = tuple(make_spec(family, seed=140 + j, nt=6, k=k) for j, family in enumerate(families))
    rows, cols = np.array(pairs).T
    with mock.patch.object(kernels, "_CHUNK_ENTRIES", chunk_entries):
        whole = processes._realize(specs, 141, 5, 15)
        got = processes._form(specs, processes._draw(specs, 141, 5, 15), rows, cols)
    assert got.tobytes() == whole[rows, cols].tobytes()


def mixed_pair(k, scale, nt=7, row_modes=(2, 2)):
    """A gaussian part of order 3 and a subexponential part of order ``k``,
    coefficients times ``scale``, with a zero column and indices 2 and 5
    equal, so that their increments tie."""
    specs = []
    for j, (family, order) in enumerate([("gaussian_linear", 3), ("subexponential_linear", k)]):
        spec = make_spec(family, seed=150 + j, nt=nt, k=order, row_modes=row_modes)
        coeffs = scale * spec.coefficients
        coeffs[:, 1] = 0.0
        coeffs[5] = coeffs[2]
        specs.append(ProcessSpec(family, coeffs, spec.basis, 2.0 - j))
    return specs


# the bound-first path against the block path it replaced
# (tests/golden/oracles.py::block_mixed_sups): up to 1e+-100 the increment
# bounds decide most increments; near 1e+-150 and 1e+-170 the pad scale A
# leaves _FRO_RANGE and every increment is formed; one sample per chunk, a
# few chunks, one chunk
@pytest.mark.parametrize("chunk_entries", [0, 3000, 1 << 19])
@pytest.mark.parametrize("scale", [1.0, 1e100, 1e-100, 1e150, 1e-150, 1e170, 1e-170])
@pytest.mark.parametrize("k", [2, 3])
def test_mixed_sups_equal_the_block_path_bit_for_bit(monkeypatch, k, scale, chunk_entries):
    from golden.oracles import block_mixed_sups

    specs = mixed_pair(k, scale)
    monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", chunk_entries)
    got = sample_mixed_sups(*specs, 160, 45)
    assert got.tobytes() == block_mixed_sups(*specs, 160, 45).tobytes()


# the upper bounds read off the weights hold the norm eigvalsh computes on
# every formed increment: random bases, and identity bases, whose scalar
# increments make the Wolkowicz-Styan bound exact, so that only the pad
# covers the rounding of X_t, X_0 and their difference
@pytest.mark.parametrize("scale", [1.0, 1e100, 1e-100])
def test_increment_bounds_hold_every_computed_norm(scale):
    eye = (fold(np.eye(2), Shape((2,), (2,))),) * 2
    for specs in (mixed_pair(3, scale), [ProcessSpec(s.family, s.coefficients[:, :2], eye, 2.0)
                                         for s in mixed_pair(3, scale)]):
        block = processes._realize(specs, 170, 0, 400)
        block -= block[:, :1]
        upper = processes._increment_bounds(specs, processes._draw(specs, 170, 0, 400))[0]
        assert np.isfinite(upper).all()
        assert (kernels.gauge_norms(block, "spectral") <= upper).all()


def test_mixed_sups_form_only_candidate_increments(monkeypatch):
    # at scale 1 the bounds leave few candidates: each sample's X_0 and its
    # top increment, then the few whose bound reaches that
    formed = []
    form = processes._form

    def counted(*args):
        out = form(*args)
        formed.append(len(out))
        return out

    monkeypatch.setattr(processes, "_form", counted)
    sample_mixed_sups(*mixed_pair(3, 1.0), 160, 45)
    assert formed[:2] == [45, 45]  # X_0 and the top increments
    assert sum(formed[2:]) < 45 * 7 / 4


@pytest.mark.filterwarnings("error")
def test_mixed_sups_refuse_entries_whose_increments_overflow():
    # the subexponential part on the 2x2 identity, the gaussian part zero:
    # entries +-c w_k; c the largest coefficient at which every |c w_k| of
    # the 6 samples is within the limit, then the next float
    basis = (fold(np.eye(2), Shape((2,), (2,))),)
    g = ProcessSpec("gaussian_linear", [[0.0], [0.0]], basis, 2.0)
    e = ProcessSpec("subexponential_linear", [[1.0], [-1.0]], basis, 1.0)
    top = np.abs(processes._draw((g, e), 3, 0, 6)[1]).max()
    limit = np.finfo(np.float64).max / (4.0 * 2**1.5)
    c = limit / top
    while c * top > limit:
        c = np.nextafter(c, 0.0)
    while np.nextafter(c, np.inf) * top <= limit:
        c = np.nextafter(c, np.inf)
    at = ProcessSpec("subexponential_linear", [[c], [-c]], basis, 1.0)
    sups = sample_mixed_sups(g, at, 3, 6)
    assert np.isfinite(sups).all() and sups.max() == 2 * c * top
    past = ProcessSpec("subexponential_linear", [[np.nextafter(c, np.inf)], [-c]], basis, 1.0)
    with pytest.raises(DomainError, match="realized trajectories overflow"):
        sample_mixed_sups(g, past, 3, 6)


@pytest.mark.filterwarnings("error")
def test_realize_refuses_entries_whose_increments_overflow():
    # signs on the 2x2 identity: entries +-c, increments +-2c times the identity
    limit = np.finfo(np.float64).max / (4.0 * 2**1.5)
    basis = (fold(np.eye(2), Shape((2,), (2,))),)
    huge = ProcessSpec("rademacher_martingale", [[limit], [-limit]], basis, 2.0)
    trajs = sample_ensemble(huge, 0, 4).trajectories
    for gauge in ("spectral", "frobenius", "nuclear"):
        assert np.isfinite(kernels.ensemble_norms_vs_ref(trajs, 0, gauge)).all()
    past = np.nextafter(limit, np.inf)
    spec = ProcessSpec("rademacher_martingale", [[past], [-past]], basis, 2.0)
    with pytest.raises(DomainError, match="realized trajectories overflow"):
        sample_ensemble(spec, 0, 4)


# ---------------------------------------------------------------------------
# supremum statistics
# ---------------------------------------------------------------------------


# the streamed ensemble against the kernels run on its realized array: each
# chunk's block is formed inside the loop that reduces it, in this process
# or, at two workers, in a forked child that forms its own share; one
# sample per chunk, a few chunks and one chunk, each forked at two workers
# whatever its work
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("chunk_entries", [0, 4096, kernels._CHUNK_ENTRIES])
@pytest.mark.parametrize("gauge", ["spectral", "nuclear", "frobenius"])
def test_streamed_norms_and_counts_equal_the_kernels_on_the_realized_array(
    monkeypatch, gauge, chunk_entries, workers
):
    spec = make_spec("subexponential_linear", seed=180, nt=6, k=3, row_modes=(2, 2))
    ens = sample_ensemble(spec, 181, 90, gauge)
    trajs = ens.trajectories
    a, b = np.triu_indices(6, 1)
    want_norms = kernels.ensemble_norms_vs_ref(trajs, 4, gauge)
    thr = np.quantile(kernels.ensemble_pairwise_norms(trajs, gauge), [0.2, 0.5, 0.9], axis=0)
    want_counts = kernels.increment_counts(trajs, a, b, thr, gauge)
    monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", chunk_entries)
    monkeypatch.setattr(kernels, "_FORK_WORK", 0)
    monkeypatch.setattr(kernels, "_WORKERS", workers)
    forks = count_forks(monkeypatch)
    got_norms = sample_ensemble(spec, 181, 90, gauge).norms_vs(4)
    got_counts = kernels.increment_counts(ens.blocks(), a, b, thr, gauge)
    assert_no_child_left()
    assert len(forks) == (2 if workers == 2 else 0)
    assert got_norms.tobytes() == want_norms.tobytes()
    assert got_counts.tobytes() == want_counts.tobytes()
    assert 0 < want_counts.sum() < thr.size * 90


# one chunk for the whole ensemble, or (clamped) one sample per chunk
@pytest.mark.parametrize("chunk_entries", [1 << 24, 0])
def test_norms_vs_is_cached_and_read_only(monkeypatch, chunk_entries):
    monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", chunk_entries)
    spec = make_spec(seed=108, nt=4)
    ens = sample_ensemble(spec, 109, 5)
    norms = ens.norms_vs(1)
    assert ens.norms_vs(1) is norms
    diffs = ens.trajectories - ens.trajectories[:, 1:2]
    assert np.allclose(norms, np.linalg.svd(diffs, compute_uv=False)[..., 0])
    with pytest.raises(ValueError):
        norms[0, 0] = 1.0


def test_sup_moment_singleton_space_is_zero():
    basis = (random_hermitian((2,), trng.stream(41, 0)),)
    spec = ProcessSpec("gaussian_linear", np.ones((1, 1)), basis, 2.0)
    ens = sample_ensemble(spec, 43, 10)
    assert np.array_equal(ens.sup_samples(0), np.zeros(10))


def test_sup_moment_subset_monotonicity():
    spec, space, ens = make_pair(seed=61, samples=100)
    full = ens.norms_vs(0).max(axis=1)
    subset = ens.norms_vs(0)[:, :3].max(axis=1)
    assert np.all(subset <= full + 1e-15)


def test_sup_moment_domain_checks():
    spec, space, ens = make_pair(seed=67, samples=5)
    for t0 in (-1, 99):
        with pytest.raises(DomainError, match="outside the space"):
            ens.sup_samples(t0)


# ---------------------------------------------------------------------------
# tail curves
# ---------------------------------------------------------------------------


def test_tail_survival_one_at_zero_and_zero_past_max():
    spec, space, ens = make_pair(seed=71, samples=100)
    sups = ens.sup_samples(0)
    grid = np.array([0.0, float(sups.max()) * 1.01])
    curve = empirical_tail(ens, 0, grid)
    assert curve.survival[0] == 1.0
    assert curve.survival[-1] == 0.0


def test_tail_counts_match_independent_pass():
    spec, space, ens = make_pair(seed=73, samples=150)
    sups = ens.sup_samples(0)
    grid = np.quantile(sups, [0.2, 0.5, 0.8])
    grid = np.unique(grid)
    curve = empirical_tail(ens, 0, grid)
    for u, s in zip(curve.u_grid, curve.survival):
        count = sum(1 for v in sups if v >= u)
        assert s * curve.sample_count == pytest.approx(count)


def test_tail_curve_validation():
    with pytest.raises(ValidationError):
        TailCurve(np.array([1.0, 2.0]), np.array([0.2, 0.5]), 10)  # increasing
    with pytest.raises(ValidationError):
        TailCurve(np.array([1.0, 2.0]), np.array([0.51, 0.2]), 10)  # non-integral
    TailCurve(np.array([1.0, 2.0]), np.array([0.51, 0.2]), 0)  # synthetic ok


def test_fit_exponent_recovers_exact_laws():
    u = np.linspace(0.5, 3.0, 12)
    for beta in (1.0, 2.0):
        curve = TailCurve(u, np.exp(-(u**beta)), 0)
        beta_hat, r2 = fit_tail_exponent(curve)
        assert beta_hat == pytest.approx(beta, abs=1e-6)
        assert r2 == pytest.approx(1.0, abs=1e-9)


def test_fit_exponent_needs_enough_points():
    curve = TailCurve(np.array([1.0, 2.0, 3.0]), np.exp(-np.array([1.0, 2.0, 3.0])), 0)
    with pytest.raises(InsufficientDataError):
        fit_tail_exponent(curve)


# ---------------------------------------------------------------------------
# increment-tail verification
# ---------------------------------------------------------------------------


def test_increment_tail_zero_process_has_no_pair_to_test():
    basis = (DenseTensor(Shape((2,), (2,)), np.zeros((2, 2))),)
    spec = ProcessSpec("gaussian_linear", np.ones((3, 1)), basis, 2.0)
    space = process_space(spec)  # all distances zero
    ens = sample_ensemble(spec, 79, 20)
    with pytest.raises(InsufficientDataError, match="positive distance"):
        verify_increment_tail(ens, space, "increment", 2.0, [0.5, 1.0, 2.0])


def test_increment_tail_one_point_space_has_no_pair_to_test():
    spec = make_spec(seed=113, nt=1, k=2)
    space = process_space(spec)
    ens = sample_ensemble(spec, 114, 20)
    assert kernels.ensemble_pairwise_norms(ens.trajectories, ens.gauge).shape == (20, 0)
    with pytest.raises(InsufficientDataError, match="positive distance"):
        verify_increment_tail(ens, space, "increment", 2.0, [1.0])


def test_increment_tail_leaves_out_coincident_indices():
    # indices 0 and 2 share coefficients: zero distance, identical realizations
    spec = make_spec(seed=111)
    coeffs = spec.coefficients.copy()
    coeffs[2] = coeffs[0]
    spec = ProcessSpec(spec.family, coeffs, spec.basis, spec.tail_beta)
    space = process_space(spec)
    ens = sample_ensemble(spec, 112, 300)
    u = [0.5, 1.0, 2.0]
    report = verify_increment_tail(ens, space, "increment", 2.0, u)
    assert report.inputs["pairs_tested"] == 6 * 5 // 2 - 1
    a, b = np.triu_indices(6, 1)
    dist = space.distance_matrix("increment")[a, b]
    live = dist > 0
    norms = kernels.ensemble_pairwise_norms(ens.trajectories, ens.gauge)[:, live]
    want = [(norms >= uu * dist[live]).mean(axis=0).max() for uu in u]
    assert [row.empirical for row in report.rows] == want


def test_increment_tail_gaussian_with_default_scale_passes():
    spec, space, ens = make_pair(seed=83, samples=4000)
    report = verify_increment_tail(
        ens, space, "increment", 2.0, np.linspace(0.25, 3.0, 8)
    )
    assert report.verdict == "holds"
    assert report.extras["worst_ratio"] <= 1.0


def test_increment_tail_overclaimed_exponent_fails():
    # an under-scaled metric with a claimed cubic exponent must be caught
    spec = make_spec(seed=89, metric_scale=0.5, tail_beta=3.0)
    space = process_space(spec)
    ens = sample_ensemble(spec, 90, 4000)
    report = verify_increment_tail(
        ens, space, "increment", 3.0, np.linspace(1.0, 3.0, 6)
    )
    assert report.verdict == "violated"


def test_increment_tail_degenerate_metric_detected():
    spec, space, _ = make_pair(seed=97, samples=10)
    zero_metric = FiniteMetricSpace(space.size, {"flat": np.zeros((space.size,) * 2)})
    ens = sample_ensemble(spec, 98, 10)
    with pytest.raises(DegenerateMetricError, match="indices 0 and 1 "):
        verify_increment_tail(ens, zero_metric, "flat", 2.0, [1.0, 2.0])


def test_increment_tail_names_first_degenerate_pair_in_triu_order():
    # points 1 and 3 coincide, and so do 2 and 5; their realizations differ
    spec, _, _ = make_pair(seed=97, samples=10)
    space = FiniteMetricSpace.from_points([[0.0], [1.0], [2.0], [1.0], [4.0], [2.0]])
    ens = sample_ensemble(spec, 98, 10)
    with pytest.raises(DegenerateMetricError, match="indices 1 and 3 "):
        verify_increment_tail(ens, space, "euclidean", 2.0, [1.0, 2.0])


# ---------------------------------------------------------------------------
# mixed process and CSV export
# ---------------------------------------------------------------------------


def test_mixed_sups_requires_matching_families():
    g = make_spec("gaussian_linear", seed=101)
    with pytest.raises(ValidationError):
        sample_mixed_sups(g, g, 1, 5)


def test_mixed_sups_input_checks():
    g = make_spec("gaussian_linear", seed=101)
    e = make_spec("subexponential_linear", seed=102, tail_beta=1.0)
    with pytest.raises(ValidationError):
        sample_mixed_sups(g, e, 1, 0)


def test_mixed_sups_deterministic():
    g = make_spec("gaussian_linear", seed=103)
    e = make_spec("subexponential_linear", seed=104, tail_beta=1.0)
    a = sample_mixed_sups(g, e, 7, 20)
    b = sample_mixed_sups(g, e, 7, 20)
    assert np.array_equal(a, b)


def test_ensemble_csv_two_pass_identical():
    spec, space, ens = make_pair(seed=107, samples=4, nt=3)
    text = ensemble_to_csv(ens)
    assert text == ensemble_to_csv(ens)
    lines = text.strip().splitlines()
    assert lines[0] == "sample,t_index,norm"
    assert len(lines) == 1 + 4 * 3
    norms = ens.norms_vs(0)
    row = lines[1 + 2 * 3 + 1].split(",")  # sample 2, index 1
    assert float(row[2]) == pytest.approx(norms[2, 1], rel=1e-15)
