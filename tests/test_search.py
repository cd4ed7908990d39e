import math
import warnings

import numpy as np
import pytest

from mub6 import (
    Basis,
    DimensionError,
    FormatError,
    MUPair,
    ParameterRangeError,
    SearchConfig,
    find_extension_basis,
    find_mu_vectors,
    hw_eigenbasis,
    is_mu_pair,
    make_family_pair,
    orthogonality_graph,
    reduce_P2,
    same_basis_up_to_phase,
)
from mub6 import search
from mub6.search import (
    _cayley,
    _cluster,
    _damped_step,
    _gauge_fix,
    _recheck,
    _residual,
    _solve_phases,
    _spd_solve,
    _start_phases,
)

from grid_oracle import _residual_batch


def pair_zx_d2():
    return MUPair(hw_eigenbasis(2, "z"), hw_eigenbasis(2, "x"))


def pair_zx_d3():
    return MUPair(hw_eigenbasis(3, "z"), hw_eigenbasis(3, "x"))


def pairs_d3():
    # Besides {Z, X}, two pairs whose first member A is not I, so the search's
    # A^dagger frame change and its v = A u pull-back are exercised: on
    # {X, Y} skipping either one loses vectors.
    return [
        pair_zx_d3(),
        MUPair(hw_eigenbasis(3, "x"), hw_eigenbasis(3, "z")),
        MUPair(hw_eigenbasis(3, "x"), hw_eigenbasis(3, "y")),
    ]


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(restarts=0)
    # Integers only: Philox truncates a float key, so seed 1.9 would run as 1.
    for name in ("restarts", "master_seed"):
        for bad in (1.5, 1.9, 2.5, True, "10"):
            with pytest.raises(ParameterRangeError, match=f"^{name} must be an integer"):
                SearchConfig(**{name: bad})
    cfg = SearchConfig(restarts=np.int64(5), master_seed=np.uint64(3))
    assert cfg == SearchConfig(5, 3) and type(cfg.restarts) is type(cfg.master_seed) is int


def _recheck_one(v, pair):
    return _recheck(np.asarray(v, dtype=complex)[None, :], pair.basis_vectors().conj(), 1 / pair.dim)[0]


def test_recheck_examples():
    v = np.array([1, 1j]) / np.sqrt(2)
    assert _recheck_one(v, pair_zx_d2()) <= 1e-30

    hy0 = hw_eigenbasis(3, "y").matrix[:, 0]
    assert _recheck_one(hy0, pair_zx_d3()) <= 1e-15

    pair = make_family_pair("P0")
    e0 = np.zeros(6, dtype=complex)
    e0[0] = 1.0
    assert abs(_recheck_one(e0, pair) - ((1 - 1 / 6) ** 2 + 5 * (1 / 6) ** 2)) < 1e-12


def test_find_mu_vectors_d2():
    vecset = find_mu_vectors(pair_zx_d2(), SearchConfig(restarts=64, master_seed=0))
    assert len(vecset) == 2
    y = hw_eigenbasis(2, "y").matrix
    for vec in vecset.vectors:
        dev = min(
            np.abs(vec - (np.vdot(col, vec) / abs(np.vdot(col, vec))) * col).max()
            for col in y.T
        )
        assert dev < 1e-9
    assert all(r <= 1e-20 for r in vecset.residuals)
    assert sum(vecset.hits) <= 64
    assert not vecset.manifold_warning


def test_find_mu_vectors_d3():
    for pair in pairs_d3():
        vecset = find_mu_vectors(pair, SearchConfig(restarts=400, master_seed=0))
        assert len(vecset) == 6
        graph = orthogonality_graph(vecset)
        assert len(graph.edges) == 6  # two disjoint triangles
        degree = [0] * 6
        for i, j in graph.edges:
            degree[i] += 1
            degree[j] += 1
        assert degree == [2] * 6


def test_find_mu_vectors_deterministic_and_chunk_independent():
    # The d = 6 run merges the rows of six chunks in the batched recheck, sort
    # and clustering.
    runs = [(pair, SearchConfig(restarts=300, master_seed=9), 17) for pair in pairs_d3()]
    runs.append((make_family_pair("P0"), SearchConfig(restarts=200, master_seed=9), 37))
    for pair, cfg, chunk in runs:
        a = find_mu_vectors(pair, cfg)
        b = find_mu_vectors(pair, cfg)
        c = find_mu_vectors(pair, cfg, _chunk=chunk)
        for other in (b, c):
            assert len(a) == len(other)
            assert a.hits == other.hits
            assert a.residuals == other.residuals
            for u, v in zip(a.vectors, other.vectors):
                assert np.array_equal(u, v)


def test_cluster_count_monotone_in_restarts():
    pair = pair_zx_d3()
    counts = [
        len(find_mu_vectors(pair, SearchConfig(restarts=n, master_seed=3)))
        for n in (50, 150, 400)
    ]
    assert counts == sorted(counts)


def test_soundness_recheck():
    vecset = find_mu_vectors(pair_zx_d3(), SearchConfig(restarts=200, master_seed=1))
    # The grid oracle's residual shares no code with the search's.
    assert np.all(_residual_batch(np.stack(vecset.vectors), pair_zx_d3().basis_vectors()) <= 10 * 1e-20)


def _leader_reference(vecs, res, tol):
    """The per-column loop that _cluster batches: each column joins the first
    earlier center within tol up to global phase, measured as
    min_theta |c - e^{i theta} v| by turning v onto c, or becomes a center;
    the representative moves to a strictly better residual."""
    centers, reps, hits = [], [], []
    for k, vec in enumerate(vecs.T):
        for j, c in enumerate(centers):
            ip = np.vdot(vec, vecs[:, c])
            turned = vec * (ip / abs(ip)) if ip else vec
            if np.linalg.norm(vecs[:, c] - turned) < tol:
                hits[j] += 1
                if res[k] < res[reps[j]]:
                    reps[j] = k
                break
        else:
            centers.append(k)
            reps.append(k)
            hits.append(1)
    return centers, reps, hits


def _real_unit_columns(degrees, phases):
    """Columns (cos a, sin a), each times e^{i phase}: the phase-optimal
    distance of two of them is sqrt(2 - 2 |cos(a - b)|), below 1 exactly when
    a and b differ by less than 60 degrees modulo 180."""
    a = np.radians(degrees)
    return np.array([np.cos(a), np.sin(a)]) * np.exp(1j * np.asarray(phases))


def test_cluster_joins_first_center_within_radius():
    # Columns 0 and 1 (0 and 70 degrees) are centers. Column 2 (40 degrees) is
    # within radius 1 of both and joins the first, although column 1 is
    # nearer. Columns 3 and 4 join column 0 only up to global phase: 10
    # degrees turned by -i, and 175 degrees, which is -(-5 degrees). Column 5
    # (110 degrees) is within radius of column 1 only.
    vecs = _real_unit_columns([0, 70, 40, 10, 175, 110], [0, 0, 0, -np.pi / 2, 2.0, 0.5])
    centers, reps, hits = _cluster(vecs, np.zeros(6), 1.0)
    assert centers.tolist() == [0, 1]
    assert hits.tolist() == [4, 2]
    assert reps.tolist() == [0, 1]


def test_cluster_representative_and_center():
    # Equal best residuals keep the first member in column order.
    vecs = _real_unit_columns([0, 10, 20], [0, 1, 2])
    _, reps, hits = _cluster(vecs, np.array([3e-21, 1e-21, 1e-21]), 1.0)
    assert reps.tolist() == [1] and hits.tolist() == [3]
    # The representative moves to column 1, the better residual, but
    # distances are still taken from column 0: column 2 is 70 degrees from it
    # and starts a cluster although it lies within 35 degrees of column 1.
    vecs = _real_unit_columns([0, 35, 70], [0, 0, 0])
    centers, reps, hits = _cluster(vecs, np.array([5e-21, 1e-21, 2e-21]), 1.0)
    assert centers.tolist() == [0, 2]
    assert reps.tolist() == [1, 2]
    assert hits.tolist() == [2, 1]


def test_cluster_matches_greedy_loop():
    # Dense random unit vectors make many columns lie within tol of several
    # centers.
    rng = np.random.default_rng(5)
    cases = [
        (rng.random((3, n)) + 1j * rng.random((3, n)), tol)
        for n, tol in ((300, 0.3), (300, 0.6), (50, 1e-6))
    ]
    # Columns that agree where _cluster screens candidates and differ
    # elsewhere, so only the full overlap tells them apart: all share the
    # key |<x|v>| = 0.6 for x the unit vector with weights 1, 2, 3.
    x = np.arange(1.0, 4.0) / np.linalg.norm(np.arange(1.0, 4.0))
    perp = rng.normal(size=(3, 300)) + 1j * rng.normal(size=(3, 300))
    perp -= np.outer(x, x @ perp)
    cases.append((0.6 * x[:, None] + 0.8 * perp / np.linalg.norm(perp, axis=0), 0.6))
    # Columns cos(t) x + sin(t) y with y a unit vector orthogonal to x and t
    # near pi/2, where keys differ almost by the full distance, so a window
    # narrower than tol would miss columns within it.
    y = perp[:, 0] / np.linalg.norm(perp[:, 0])
    t = np.pi / 2 + rng.uniform(-0.5, 0.5, 300)
    cases.append((np.outer(x, np.cos(t)) + np.outer(y, np.sin(t)), 0.3))
    for vecs, tol in cases:
        vecs = vecs / np.linalg.norm(vecs, axis=0) * np.exp(2j * np.pi * rng.random(vecs.shape[1]))
        res = rng.integers(0, 4, vecs.shape[1]) * 1e-21
        centers, reps, hits = _cluster(vecs, res, tol)
        assert (centers.tolist(), reps.tolist(), hits.tolist()) == _leader_reference(vecs, res, tol)
        assert len(centers) < vecs.shape[1] or tol < 1e-3


def test_cluster_ignores_gauge_pivot():
    # Two columns 3e-7 apart up to phase, with all four moduli tied near 1/2
    # and the two largest rounding to six decimals in opposite order, so
    # _gauge_fix picks a different pivot for each and puts them far apart;
    # they still form one cluster.
    r = math.sqrt((1.0 - 0.5000004**2 - 0.5000006**2) / 2.0)
    a = np.array([0.5000004 * np.exp(0.3j), 0.5000006 * np.exp(1.7j), r, -r])
    b = np.array([0.5000006 * np.exp(0.3j), 0.5000004 * np.exp(1.7j), r, -r]) * np.exp(2.5j)
    vecs = np.stack([a, b], axis=1)
    fixed = _gauge_fix(vecs.T)
    assert np.argmax(np.round(np.abs(a), 6)) != np.argmax(np.round(np.abs(b), 6))
    assert np.linalg.norm(fixed[0] - fixed[1]) > 1.0
    centers, reps, hits = _cluster(vecs, np.zeros(2), search.CLUSTER_TOL)
    assert centers.tolist() == [0] and hits.tolist() == [2]


def _random_spd(rng, n, m):
    """m well-conditioned SPD matrices of order n, stacked as (m, n, n)."""
    g = rng.normal(size=(m, n, n))
    return g @ g.transpose(0, 2, 1) + n * np.eye(n)


@pytest.mark.parametrize("n", [1, 2, 5])  # the orders the search solves for d = 2, 3, 6
def test_spd_solve_matches_numpy(n):
    rng = np.random.default_rng(n)
    a = _random_spd(rng, n, 300)
    b = rng.normal(size=(300, n))
    lower_only = a.transpose(1, 2, 0).copy()
    lower_only[np.triu_indices(n, 1)] = np.nan  # the upper triangle is never read
    x = _spd_solve(lower_only, b.T.copy())
    np.testing.assert_allclose(x.T, np.linalg.solve(a, b[:, :, None])[:, :, 0], rtol=1e-10)


def test_spd_solve_flags_only_rows_that_are_not_positive_definite():
    rng = np.random.default_rng(3)
    a = _random_spd(rng, 3, 6)
    a[1] = np.diag([1.0, -1.0, 1.0])  # indefinite
    a[3] = 0.0  # zero pivot
    a[4, 0, 0] = np.inf  # infinite pivot
    b = rng.normal(size=(6, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = _spd_solve(a.transpose(1, 2, 0).copy(), b.T.copy())
    bad = [1, 3, 4]
    assert np.isnan(x[:, bad]).all()
    good = [0, 2, 5]
    np.testing.assert_allclose(
        x[:, good].T, np.linalg.solve(a[good], b[good, :, None])[:, :, 0], rtol=1e-10
    )


def _h_conj(pair):
    return pair.first.matrix.T @ pair.second.matrix.conj()


def test_damped_step_matches_dense_solve():
    # The step sizes J^T J by the free phases (d - 1) and sums over every
    # residual, so a stack of bases [F3 | Y3], with 2d residuals, works as
    # well as a square pair.
    stack = np.hstack([hw_eigenbasis(3, "x").matrix, hw_eigenbasis(3, "y").matrix]).conj()
    rng = np.random.default_rng(8)
    for h_conj in (stack, _h_conj(make_family_pair("P0"))):
        d, n = len(h_conj), 5
        u = np.exp(1j * rng.uniform(0, 2 * np.pi, (d, n))) / np.sqrt(d)
        w = h_conj.T @ u
        r = np.abs(w) ** 2 - 1 / d
        damping = rng.uniform(1e-3, 1.0, n)
        step = _damped_step(h_conj, u, w, r, damping)
        assert step.shape == (d - 1, n)
        for c in range(n):
            # d|w_j|^2 / d phi_k with u_k = e^{i phi_k} / sqrt(d), k >= 1.
            jac = np.array([[2 * np.real(np.conj(w[j, c]) * 1j * h_conj[k, j] * u[k, c]) for k in range(1, d)]
                            for j in range(len(w))])
            dense = np.linalg.solve(jac.T @ jac + damping[c] * np.eye(d - 1), jac.T @ r[:, c])
            np.testing.assert_allclose(step[:, c], dense, rtol=1e-10, atol=1e-13)


def test_solve_phases_counts_failed_factorisation_as_failed_step(monkeypatch):
    h_conj = _h_conj(pair_zx_d3())
    phases = _start_phases(0, 8, 3)
    plain = _solve_phases(phases, h_conj, 200, 1e-20)
    calls = []

    def first_system_fails(a, b):
        # An infinite step, which e^{i phi} would turn into NaN with a warning.
        calls.append(b.shape[1])
        x = _spd_solve(a, b)
        x[:, 0] = np.inf
        return x

    monkeypatch.setattr(search, "_spd_solve", first_system_fails)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = _solve_phases(phases, h_conj, 200, 1e-20)
    # Restart 0 never moves from its start; the others are untouched by it.
    assert u[0, 0] == 1 / math.sqrt(3)
    assert np.array_equal(u[1:, 0], np.exp(1j * phases[:, 0]) / math.sqrt(3))
    assert np.array_equal(u[:, 1:], plain[:, 1:])

    # Alone, it fails once per iteration, its damping growing tenfold each
    # time, until the damping passes the cap.
    calls.clear()
    _solve_phases(phases[:, :1], h_conj, 200, 1e-20)
    fails, damping = 0, search._DAMPING
    while damping < search._DAMPING_CAP:
        damping *= 10.0
        fails += 1
    assert calls == [1] * fails


def test_one_restart_batches_match_full_batches():
    # Every restart solved alone gives the same bits as in one batch, whatever
    # summation kernels numpy picks for the two shapes. Sums of eight or more
    # terms (d = 8 deviations, 2d = 12 overlaps) are where np.sum switches to
    # pairwise summation for a one-column batch.
    runs = [(pair, 60, 2000) for pair in pairs_d3()]
    runs += [(make_family_pair("P0"), 30, 2000), (_fourier8_pair(), 12, 40)]
    for pair, n, max_iters in runs:
        h_conj = _h_conj(pair)
        phases = _start_phases(4, n, pair.dim)
        batch = _solve_phases(phases, h_conj, max_iters, 1e-20)
        alone = [_solve_phases(phases[:, k : k + 1], h_conj, max_iters, 1e-20) for k in range(n)]
        assert np.array_equal(batch, np.hstack(alone))
    rng = np.random.default_rng(4)
    overlaps = rng.normal(size=(12, 50)) + 1j * rng.normal(size=(12, 50))
    f = _residual(overlaps, 1 / 6)[0]
    assert np.array_equal(f, [_residual(overlaps[:, k : k + 1], 1 / 6)[0][0] for k in range(50)])
    # The same through the whole search, 2d = 12 overlaps summed per restart.
    cfg = SearchConfig(restarts=30, master_seed=4)
    a = find_mu_vectors(make_family_pair("P0"), cfg)
    b = find_mu_vectors(make_family_pair("P0"), cfg, _chunk=1)
    assert (a.hits, a.residuals) == (b.hits, b.residuals)
    assert all(np.array_equal(u, v) for u, v in zip(a.vectors, b.vectors))


def _fourier8_pair():
    fourier8 = np.exp(2j * np.pi * np.outer(range(8), range(8)) / 8) / np.sqrt(8)
    return MUPair(Basis(np.eye(8, dtype=complex)), Basis(fourier8))


def test_solve_phases_width_does_not_change_bits():
    # Narrow batches retire and refill columns at other iterations and in
    # other places than one batch that holds every restart.
    runs = [(pair, 60, 2000) for pair in pairs_d3()]
    runs += [(make_family_pair("P0"), 30, 2000), (_fourier8_pair(), 12, 40)]
    for pair, n, max_iters in runs:
        h_conj = _h_conj(pair)
        phases = _start_phases(4, n, pair.dim)
        full = _solve_phases(phases, h_conj, max_iters, 1e-20, width=n)
        for width in (1, 7):
            assert np.array_equal(_solve_phases(phases, h_conj, max_iters, 1e-20, width), full)


@pytest.mark.parametrize("dim", [3, 6, 8, 9])
def test_start_phases_of_fewer_restarts_are_a_prefix(dim):
    # Restart k reads the k-th run of counter blocks whatever the budget, so
    # its start phases depend only on (master_seed, k). Each restart reads one
    # block of four doubles at d = 3 and two at d = 6, 8 and 9.
    full = _start_phases(5, 50, dim)
    assert full.shape == (dim - 1, 50)
    for m in (1, 17, 49):
        assert np.array_equal(_start_phases(5, m, dim), full[:, :m])


def test_refilled_restart_takes_max_iters_steps(monkeypatch):
    h_conj = _h_conj(pair_zx_d3())
    phases = _start_phases(0, 3, 3)
    starts = _solve_phases(phases, h_conj, 0, 1e-20)
    calls = []

    def always_fails(a, b):
        calls.append(b.shape[1])
        return np.full_like(b, np.nan)

    monkeypatch.setattr(search, "_spd_solve", always_fails)
    # Five failed steps leave the damping far below the cap, so every
    # restart retires on its own step count, including those admitted late.
    assert np.array_equal(_solve_phases(phases, h_conj, 5, 1e-20, width=1), starts)
    assert calls == [1] * 15
    calls.clear()
    # Two columns retire together; restart 2 refills one, the other is dropped.
    _solve_phases(phases, h_conj, 5, 1e-20, width=2)
    assert calls == [2] * 5 + [1] * 5


def test_cayley_update_keeps_u_flat():
    pair, _ = reduce_P2()
    h_conj = _h_conj(pair)
    u = _solve_phases(_start_phases(0, 2000, 6), h_conj, search.MAX_ITERS, search.RESIDUAL_TOL)
    assert np.abs(np.abs(u) - 1 / math.sqrt(6)).max() <= 1e-15
    assert np.array_equal(_cayley(u, np.zeros((5, 2000))), u)
    vecset = find_mu_vectors(pair, SearchConfig(restarts=2000, master_seed=0))
    assert len(vecset) == 90
    assert sum(vecset.hits) == 2000


def test_gauge_fix_matches_per_row_formula():
    rng = np.random.default_rng(6)
    vecs = rng.normal(size=(500, 6)) + 1j * rng.normal(size=(500, 6))
    vecs[:100] /= np.abs(vecs[:100])  # equal moduli: the rounded argmax tie-break
    for vec, fixed in zip(vecs, _gauge_fix(vecs)):
        idx = int(np.argmax(np.round(np.abs(vec), 6)))
        assert np.array_equal(fixed, vec * (vec[idx] / abs(vec[idx])).conjugate())


def test_recheck_agrees_with_grid_oracle_residual():
    pair = make_family_pair("P0")
    basis_conj = pair.basis_vectors().conj()
    rng = np.random.default_rng(7)
    vecs = rng.normal(size=(200, 6)) + 1j * rng.normal(size=(200, 6))
    vecs /= np.linalg.norm(vecs, axis=1)[:, None]
    oracle = _residual_batch(vecs, pair.basis_vectors())
    assert np.all(np.abs(_recheck(vecs, basis_conj, 1 / 6) - oracle) <= 1e-12 * oracle)

    cfg = SearchConfig(restarts=50, master_seed=0)
    found = np.stack(find_mu_vectors(pair, cfg).vectors)
    assert np.all(_recheck(found, basis_conj, 1 / 6) <= 10 * search.RESIDUAL_TOL)
    nudged = found.copy()
    nudged[:, 1] += 1e-8
    nudged /= np.linalg.norm(nudged, axis=1)[:, None]
    assert np.all(_recheck(nudged, basis_conj, 1 / 6) > 10 * search.RESIDUAL_TOL)


def test_gauge_fixing():
    vecset = find_mu_vectors(pair_zx_d2(), SearchConfig(restarts=32, master_seed=2))
    for vec in vecset.vectors:
        k = int(np.argmax(np.round(np.abs(vec), 6)))
        assert abs(vec[k].imag) < 1e-12
        assert vec[k].real > 0


def test_find_mu_vectors_lists_in_canonical_order():
    # The reported vectors are gauge-fixed (again up to rounding), and listed
    # in np.lexsort order of their components rounded to nine decimals, real
    # parts first.
    d3 = MUPair(hw_eigenbasis(3, "x"), hw_eigenbasis(3, "y"))
    for pair, restarts in ((make_family_pair("P0"), 2000), (d3, 400)):
        vecs = np.stack(find_mu_vectors(pair, SearchConfig(restarts=restarts, master_seed=7)).vectors)
        assert np.abs(vecs - _gauge_fix(vecs)).max() <= 1e-15
        key = np.round(np.concatenate([vecs.real, vecs.imag], axis=1), 9)
        assert np.array_equal(np.lexsort(key.T[::-1]), np.arange(len(vecs)))


def test_orthogonality_graph_rejects_non_unit_vectors():
    # ORTHO_TOL only means orthogonal for unit vectors; a huge entry fails
    # before its square can overflow.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for vectors in ([[2, 0], [0, 1]], [[1e200, 0], [1e200, 0]]):
            with pytest.raises(FormatError, match="norm 1"):
                orthogonality_graph(vectors)


def test_orthogonality_graph_rejects_mixed_dimensions():
    with pytest.raises(DimensionError):
        orthogonality_graph([[1, 0], [0, 1, 0]])


def test_orthogonality_graph_edges():
    y = hw_eigenbasis(3, "y").matrix
    w = hw_eigenbasis(3, "w").matrix
    vectors = list(y.T) + list(w.T)
    graph = orthogonality_graph(vectors)
    assert graph.num_vectors == 6
    assert set(graph.edges) == {(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)}
    assert graph.min_abs_overlap < 1e-12
    assert abs(graph.max_abs_overlap - 1 / np.sqrt(3)) < 1e-9

    single = orthogonality_graph([y[:, 0]])
    assert single.num_vectors == 1
    assert single.edges == ()
    assert single.min_abs_overlap is None


def test_orthogonality_graph_tolerance():
    # The threshold is 1e-7: an overlap just under it is an edge, one just
    # over it is not.
    def at_overlap(s):
        return np.array([s, math.sqrt(1.0 - s * s), 0.0])

    graph = orthogonality_graph([np.array([1.0, 0.0, 0.0]), at_overlap(0.99e-7), at_overlap(1.01e-7)])
    assert graph.edges == ((0, 1),)


def test_find_extension_basis_small_dims():
    ext2 = find_extension_basis(pair_zx_d2(), SearchConfig(restarts=64, master_seed=0))
    assert ext2.basis is not None
    assert ext2.max_clique_size == 2
    assert same_basis_up_to_phase(ext2.basis, hw_eigenbasis(2, "y")) is not None

    ext3 = find_extension_basis(pair_zx_d3(), SearchConfig(restarts=400, master_seed=0))
    assert ext3.basis is not None
    assert ext3.max_clique_size == 3
    in_y = same_basis_up_to_phase(ext3.basis, hw_eigenbasis(3, "y")) is not None
    in_w = same_basis_up_to_phase(ext3.basis, hw_eigenbasis(3, "w")) is not None
    assert in_y or in_w
    pair = pair_zx_d3()
    assert is_mu_pair(ext3.basis, pair.first).ok
    assert is_mu_pair(ext3.basis, pair.second).ok


def test_max_clique_on_edgeless_graph():
    from mub6.search import _max_clique

    # No orthogonal pairs means the largest "extension" is a single vector.
    assert len(_max_clique(5, (), stop_at=6)) == 1
    assert _max_clique(0, (), stop_at=6) == []
    triangle = ((0, 1), (0, 2), (1, 2))
    assert sorted(_max_clique(4, triangle, stop_at=3)) == [0, 1, 2]


def test_empty_result_is_valid(monkeypatch):
    # A short run that converges nowhere still returns a well-formed set.
    monkeypatch.setattr(search, "MAX_ITERS", 1)
    pair = make_family_pair("P0")
    cfg = SearchConfig(restarts=1, master_seed=12345)
    vecset = find_mu_vectors(pair, cfg)
    assert len(vecset) == 0
    graph = orthogonality_graph(vecset)
    assert graph.num_vectors == 0
