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
    cfg = SearchConfig(restarts=300, master_seed=9)
    for pair in pairs_d3():
        a = find_mu_vectors(pair, cfg)
        b = find_mu_vectors(pair, cfg)
        c = find_mu_vectors(pair, cfg, _chunk=17)
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
