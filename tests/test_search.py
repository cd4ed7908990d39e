import numpy as np
import pytest

from mub6 import (
    DEFAULT_TOL,
    DimensionError,
    MUPair,
    SearchConfig,
    Tolerance,
    find_extension_basis,
    find_mu_vectors,
    hw_eigenbasis,
    is_mu_pair,
    make_family_pair,
    mu_residual,
    orthogonality_graph,
    same_basis_up_to_phase,
)
from mub6.search import _cluster, _gauge_fix, _recheck


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
    with pytest.raises(ValueError):
        SearchConfig(max_iters=0)
    with pytest.raises(ValueError):
        SearchConfig(residual_tol=0.0)


def test_mu_residual_examples():
    v = np.array([1, 1j]) / np.sqrt(2)
    assert mu_residual(v, pair_zx_d2()) <= 1e-30

    hy0 = hw_eigenbasis(3, "y").matrix[:, 0]
    assert mu_residual(hy0, pair_zx_d3()) <= 1e-15

    pair = make_family_pair("P0")
    e0 = np.zeros(6, dtype=complex)
    e0[0] = 1.0
    assert abs(mu_residual(e0, pair) - ((1 - 1 / 6) ** 2 + 5 * (1 / 6) ** 2)) < 1e-12

    with pytest.raises(DimensionError):
        mu_residual([1, 0], pair)


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
    pair = pair_zx_d3()
    for vec in vecset.vectors:
        assert mu_residual(vec, pair) <= 10 * 1e-20


def _greedy_reference(vecs, res, tol):
    """The per-vector greedy loop that _cluster batches: each row joins the
    nearest existing center within tol (first on ties) or becomes a center;
    the representative moves to a strictly better residual."""
    centers, reps, hits = [], [], []
    for k, vec in enumerate(vecs):
        if centers:
            dists = np.sqrt(np.sum(np.abs(vecs[centers] - vec[None, :]) ** 2, axis=1))
            j = int(np.argmin(dists))
            if dists[j] < tol:
                hits[j] += 1
                if res[k] < res[reps[j]]:
                    reps[j] = k
                continue
        centers.append(k)
        reps.append(k)
        hits.append(1)
    return centers, reps, hits


def test_cluster_joins_nearest_earlier_center():
    # Centers 0 and 1 are 1.5 apart with tol 1: row 2 (0.9 from center 0,
    # 0.6 from center 1) joins center 1, row 3 stays with center 0, and row 4,
    # 0.75 from both, goes to the first. Row 5 sits before center 6 in order,
    # so it keeps center 0 although center 6 is nearer.
    vecs = np.array([[0, 0], [1.5, 0], [0.9, 0], [0.7, 0], [0.75, 0], [0, 0.9], [0, 1.5]], complex)
    centers, reps, hits = _cluster(vecs, np.zeros(len(vecs)), 1.0)
    assert centers.tolist() == [0, 1, 6]
    assert hits.tolist() == [4, 2, 1]
    assert reps.tolist() == [0, 1, 6]


def test_cluster_representative_and_center():
    # Equal best residuals keep the first member in order.
    vecs = np.array([[0, 0], [0.1, 0], [0.2, 0]], complex)
    _, reps, hits = _cluster(vecs, np.array([3e-21, 1e-21, 1e-21]), 1.0)
    assert reps.tolist() == [1] and hits.tolist() == [3]
    # The representative moves to row 1, the better residual, but distances
    # are still taken from row 0: row 2 is 1.2 from it and starts a cluster
    # although it lies within 0.6 of row 1.
    vecs = np.array([[0, 0], [0.6, 0], [1.2, 0]], complex)
    centers, reps, hits = _cluster(vecs, np.array([5e-21, 1e-21, 2e-21]), 1.0)
    assert centers.tolist() == [0, 2]
    assert reps.tolist() == [1, 2]
    assert hits.tolist() == [2, 1]


def test_cluster_matches_greedy_loop():
    # Dense random points make many rows lie within tol of several centers.
    rng = np.random.default_rng(5)
    for n, tol in ((300, 0.3), (300, 0.6), (50, 1e-6)):
        vecs = rng.random((n, 3)) + 1j * rng.random((n, 3))
        res = rng.integers(0, 4, n) * 1e-21
        centers, reps, hits = _cluster(vecs, res, tol)
        assert (centers.tolist(), reps.tolist(), hits.tolist()) == _greedy_reference(vecs, res, tol)


def test_gauge_fix_matches_per_row_formula():
    rng = np.random.default_rng(6)
    vecs = rng.normal(size=(500, 6)) + 1j * rng.normal(size=(500, 6))
    vecs[:100] /= np.abs(vecs[:100])  # equal moduli: the rounded argmax tie-break
    for vec, fixed in zip(vecs, _gauge_fix(vecs)):
        idx = int(np.argmax(np.round(np.abs(vec), 6)))
        assert np.array_equal(fixed, vec * (vec[idx] / abs(vec[idx])).conjugate())


def test_recheck_agrees_with_mu_residual():
    pair = make_family_pair("P0")
    basis_conj = pair.basis_vectors().conj()
    rng = np.random.default_rng(7)
    vecs = rng.normal(size=(200, 6)) + 1j * rng.normal(size=(200, 6))
    vecs /= np.linalg.norm(vecs, axis=1)[:, None]
    rechecked = _recheck(vecs, basis_conj, 1 / 6)
    for vec, value in zip(vecs, rechecked):
        assert abs(value - mu_residual(vec, pair)) <= 1e-12 * mu_residual(vec, pair)

    cfg = SearchConfig(restarts=50, master_seed=0)
    found = np.stack(find_mu_vectors(pair, cfg).vectors)
    assert np.all(_recheck(found, basis_conj, 1 / 6) <= 10 * cfg.residual_tol)
    nudged = found.copy()
    nudged[:, 1] += 1e-8
    nudged /= np.linalg.norm(nudged, axis=1)[:, None]
    assert np.all(_recheck(nudged, basis_conj, 1 / 6) > 10 * cfg.residual_tol)


def test_gauge_fixing():
    vecset = find_mu_vectors(pair_zx_d2(), SearchConfig(restarts=32, master_seed=2))
    for vec in vecset.vectors:
        k = int(np.argmax(np.round(np.abs(vec), 6)))
        assert abs(vec[k].imag) < 1e-12
        assert vec[k].real > 0


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
    y = hw_eigenbasis(3, "y").matrix
    vectors = [y[:, 0], y[:, 1]]
    strict = orthogonality_graph(vectors, Tolerance(ortho_tol=1e-20))
    assert strict.edges == ()  # exact zeros are below any positive tol
    loose = orthogonality_graph(vectors, Tolerance(ortho_tol=0.9))
    assert loose.edges == ((0, 1),)


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


def test_empty_result_is_valid():
    # A short run that converges nowhere still returns a well-formed set.
    pair = make_family_pair("P0")
    cfg = SearchConfig(restarts=1, master_seed=12345, max_iters=1)
    vecset = find_mu_vectors(pair, cfg)
    assert len(vecset) == 0
    graph = orthogonality_graph(vecset)
    assert graph.num_vectors == 0
