import itertools
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
    make_Ftilde,
    make_family_pair,
    orthogonality_graph,
    reduce_P1,
    reduce_P2,
    reduce_P3,
    same_basis_up_to_phase,
)
from mub6 import search
from mub6.search import (
    _cayley,
    _cluster,
    _damped_step,
    _gauge_fix,
    _isolation,
    _map_defects,
    _overlaps,
    _recheck,
    _residual,
    _solve_phases,
    _spd_solve,
    _start_phases,
    _symmetry_group,
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


def _same_result(a, b):
    return (len(a), a.hits, a.residuals) == (len(b), b.hits, b.residuals) and all(
        np.array_equal(u, v) for u, v in zip(a.vectors, b.vectors)
    )


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


def test_find_mu_vectors_bit_identical_at_any_chunk():
    # The solver's steps are elementwise over the restarts, so a chunk of one
    # restart, odd chunks that split the rounds unevenly and the default
    # chunk give the same bits.
    pair, _ = reduce_P2()
    cfg = SearchConfig(restarts=400, master_seed=5)
    runs = [find_mu_vectors(pair, cfg, _chunk=chunk) for chunk in (1, 7, 333, 4096)]
    assert len(runs[0]) > 80
    assert all(_same_result(runs[0], other) for other in runs[1:])


def _round_ends(cap, first):
    # first (128 for a pair with a symmetry besides the identity), then
    # 2,048 and 1.5 times the previous end: 3,072, 4,608, 6,912, ...
    ends = [first, search._ROUND] if first < search._ROUND else [search._ROUND]
    while ends[-1] < cap:
        ends.append(ends[-1] + ends[-1] // 2)
    return ends


def _orbit_hits(vecset):
    return np.bincount(vecset.orbits, weights=vecset.hits)


def test_search_stops_once_saturated():
    # S6 and P0 saturate long before a cap of 20k, and a search that stops
    # after N restarts equals one capped at N, at any chunk size. The stop
    # counts hits per orbit: at seed 3 S6 and P0 stop after the first round,
    # at 128, and hits count restarts only. Near the continuum point of P1,
    # 12 of the 48 vectors are not isolated, each an orbit of its own, and
    # the search stops at 2,048, the first round that gives each of them 16
    # hits.
    c = 2 * np.pi / 3
    pairs = [(reduce_P2()[0], 128), (make_family_pair("P0"), 128), (reduce_P1(c + 1e-5, c + 1e-5)[0], 2048)]
    for pair, stop in pairs:
        got = find_mu_vectors(pair, SearchConfig(restarts=20000, master_seed=3))
        n = got.restarts_run
        assert got.saturated and n == stop and _orbit_hits(got).min() >= search._SATURATED
        assert n in _round_ends(20000, search._FIRST) and got.group_order > 1
        assert sum(got.hits) <= n
        for chunk in (search._WIDTH, 37):
            capped = find_mu_vectors(pair, SearchConfig(restarts=n, master_seed=3), _chunk=chunk)
            assert _same_result(capped, got) and capped.orbits == got.orbits
            assert (capped.restarts_run, capped.saturated) == (n, True)
        if n > search._FIRST:
            earlier = find_mu_vectors(pair, SearchConfig(restarts=search._FIRST, master_seed=3))
            assert not earlier.saturated and _orbit_hits(earlier).min() < search._SATURATED


@pytest.mark.parametrize("cap", [32, 64, 128, 400, 2047])
def test_cap_below_one_round_solves_once(monkeypatch, cap):
    # Criterion 5's 64 and 400 restarts and criterion 9's 32 run in rounds:
    # a cap up to the first round's 128 as one solve over every restart, a
    # cap above it, below 2,048, as two, 128 and the rest, once the stop is
    # out of reach. Each round's accepted restarts are clustered in one
    # _cluster call; the completion's calls cluster images, which add no
    # hits.
    solves, clusters, completing = [], [], []
    solve, cluster, complete = search._solve_phases, search._cluster, search._complete

    def counted_solve(phases, *args):
        solves.append(phases.shape[1])
        return solve(phases, *args)

    def counted_cluster(old, vecs, *args):
        if not completing:
            clusters.append(vecs.shape[1])
        return cluster(old, vecs, *args)

    def flagged_complete(*args):
        completing.append(True)
        try:
            return complete(*args)
        finally:
            completing.pop()

    monkeypatch.setattr(search, "_solve_phases", counted_solve)
    monkeypatch.setattr(search, "_cluster", counted_cluster)
    monkeypatch.setattr(search, "_complete", flagged_complete)
    monkeypatch.setattr(search, "_SATURATED", 10**9)
    for pair in (pair_zx_d3(), reduce_P2()[0]):
        solves.clear()
        clusters.clear()
        got = find_mu_vectors(pair, SearchConfig(restarts=cap, master_seed=0))
        assert solves == ([cap] if cap <= search._FIRST else [search._FIRST, cap - search._FIRST])
        assert len(clusters) == len(solves) and sum(clusters) == sum(got.hits)
        assert got.restarts_run == cap and not got.saturated


def test_continuum_point_runs_to_the_cap(monkeypatch):
    # {I, F~(2 pi/3, 2 pi/3)} has a continuum of MU vectors: every round
    # finds new clusters of one hit. Its 72 symmetries complete only the
    # isolated clusters, one orbit of 36; every other cluster is an orbit of
    # its own and keeps the search running to the cap. Its five rounds and
    # one completion, clustered after hundreds of old centers from the third
    # round on, end as one _cluster call on every accepted column and image
    # would, save the images' hits: compared as floats, not as bytes of a
    # file. At a step cap of 2,000 every restart here converges, and the
    # slow ones, which a cap of 15 rejects, give the hundreds of old centers.
    rounds, out, cluster = [], [], search._cluster

    def spied(clusters, vecs, res, radius):
        rounds.append((len(clusters[3]), vecs.copy(), res.copy()))
        out.append(cluster(clusters, vecs, res, radius))
        return out[-1]

    monkeypatch.setattr(search, "_cluster", spied)
    monkeypatch.setattr(search, "MAX_ITERS", 2000)
    pair = MUPair(Basis(np.eye(6, dtype=complex)), Basis(make_Ftilde(2 * np.pi / 3, 2 * np.pi / 3)))
    got = find_mu_vectors(pair, SearchConfig(restarts=6144, master_seed=0))
    assert (got.restarts_run, got.saturated, got.group_order) == (6144, False, 72)
    assert _orbit_hits(got).min() < search._SATURATED
    sizes = np.bincount(got.orbits)
    assert sorted(set(sizes.tolist())) == [1, 36] and (sizes == 36).sum() == 1
    # The 36 are isolated, by a wide margin; the continuum's samples are not.
    isolation = _isolation(_frame(pair).conj(), np.array(got.vectors).T)
    in_orbit = sizes[list(got.orbits)] == 36
    assert isolation[in_orbit].min() > 0.05 and isolation[~in_orbit].max() < 1e-4
    old, vecs, res = zip(*rounds)
    assert len(old) == 6 and old[0] == 0 and min(old[3:]) >= 200
    vecs, res = np.hstack(vecs), np.concatenate(res)
    centers, reps, hits = _cluster_indices(vecs, res, search.CLUSTER_TOL)
    final = out[-1]
    assert np.array_equal(final[0], vecs[:, centers])
    assert np.array_equal(final[1], vecs[:, reps])
    assert np.array_equal(final[2], res[reps])
    assert (final[3] <= hits).all() and sum(got.hits) == 6144
    assert hits.sum() - final[3].sum() == vecs.shape[1] - 6144 > 0


@pytest.mark.parametrize("family, offset", [("P1", 1e-1), ("P1", 1e-3), ("P1", 1e-5), ("P1", 1e-7), ("P3", 1e-7)])
def test_step_cap_keeps_every_vector_near_the_continuum_point(monkeypatch, family, offset):
    # Approaching {I, F~(2 pi/3, 2 pi/3)}, where the 48 isolated vectors of
    # the family merge into a continuum, restarts converge more slowly and a
    # cap of 15 steps rejects more of them. Down to an offset of 1e-7 the
    # search still saturates on the same 48 vectors as at a cap of 2,000.
    # The 12 slow ones are no longer isolated from an offset of about 4e-5
    # inward (their smallest Jacobian singular value, about 0.155 sqrt of
    # the offset, falls below 1e-3), so no symmetry completes them: each must
    # reach 16 hits itself, which takes rounds up to 2,048, and at 1e-7 one
    # round more at a cap of 15.
    c = 2 * np.pi / 3
    if family == "P1":
        pair = reduce_P1(c + offset, c + offset)[0]
    else:
        pair = reduce_P3((0.5 - c - offset) % (2 * np.pi), (1.0 - c + offset) % (2 * np.pi), 0.5, 1.0)[0]
    cfg = SearchConfig(restarts=20000, master_seed=0)
    short = find_mu_vectors(pair, cfg)
    monkeypatch.setattr(search, "MAX_ITERS", 2000)
    long = find_mu_vectors(pair, cfg)
    assert (len(short), short.saturated, len(long), long.saturated) == (48, True, 48, True)
    runs = {1e-1: (128, 128), 1e-3: (128, 128), 1e-5: (2048, 2048), 1e-7: (3072, 2048)}
    assert (short.restarts_run, long.restarts_run) == runs[offset]
    overlaps = np.abs(np.array(short.vectors).conj() @ np.array(long.vectors).T)
    assert np.sqrt(np.maximum(2.0 - 2.0 * overlaps.max(axis=1), 0.0)).max() < search.CLUSTER_TOL


def _frame(pair):
    """H = A^dagger B of a pair {A, B}: the search works on {I, H}."""
    return pair.first.matrix.conj().T @ pair.second.matrix


def _fourier_pair(d):
    k = np.arange(d)
    return MUPair(Basis(np.eye(d, dtype=complex)), Basis(np.exp(2j * np.pi * np.outer(k, k) / d) / np.sqrt(d)))


def _brute_force_group(h):
    """Every map v -> D P v or D P conj(v), over all d! row permutations, with
    D fixed (D_0 = 1) by sending column 0 to each column k of h, kept where
    _map_defects accepts it."""
    d = len(h)
    rows = np.array(list(itertools.permutations(range(d))))
    conj = np.repeat([False, True], len(rows) * d)
    perms = np.tile(np.repeat(rows, d, axis=0), (2, 1))
    source = np.where(conj[:, None, None], h.conj(), h)[np.arange(len(conj))[:, None], perms]
    phases = h[:, np.tile(np.arange(d), 2 * len(rows))].T / source[:, :, 0]
    phases /= phases[:, :1]
    keep = _map_defects(h, perms, phases, conj) <= search._SYMMETRY
    return perms[keep], phases[keep], conj[keep]


def _same_maps(a, b):
    """The same set of maps: each map of a equals exactly one of b, with the
    same permutation and conjugation and phases within 1e-12, and the other
    way round."""
    (perms_a, phases_a, conj_a), (perms_b, phases_b, conj_b) = a, b
    same = (perms_a[:, None] == perms_b).all(axis=2) & (conj_a[:, None] == conj_b)
    same &= (np.abs(phases_a[:, None] - phases_b) < 1e-12).all(axis=2)
    return (same.sum(axis=0) == 1).all() and (same.sum(axis=1) == 1).all()


GROUPS = {
    "S6": (lambda: reduce_P2()[0], 720),
    "P0": (lambda: make_family_pair("P0"), 144),
    "P1": (lambda: reduce_P1(0.7, 1.3)[0], 12),
    "P3": (lambda: reduce_P3(0.4, 1.1, 0.9, 2.0)[0], 12),
    "Ftilde": (lambda: reduce_P1(2 * np.pi / 3, 2 * np.pi / 3)[0], 72),
    "F2": (lambda: _fourier_pair(2), 8),
    "F3": (lambda: _fourier_pair(3), 36),
    "F4": (lambda: _fourier_pair(4), 64),
    "F5": (lambda: _fourier_pair(5), 200),
    "F7": (lambda: _fourier_pair(7), 588),
    "XY3": (lambda: pairs_d3()[2], 36),
}


@pytest.mark.parametrize("name", list(GROUPS))
def test_symmetry_group_orders_and_brute_force(name):
    # 720, 144 and 12 maps for S6, P0 and P1(0.7, 1.3), and 588 = 2 * 7 *
    # 42 for {I, F7} (conjugation, the 7 shifts and the affine maps of Z_7).
    # Up to d = 6 the search over row images finds exactly the maps that
    # trying all d! permutations, with and without conjugation, finds.
    make, order = GROUPS[name]
    h = _frame(make())
    checked, defects = [], search._map_defects
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "_map_defects", lambda h, *maps: checked.append(len(maps[0])) or defects(h, *maps))
        group = _symmetry_group(h)
    perms, phases, conj = group
    # The branches that reach the final check are exactly the group's maps.
    assert len(perms) == order and checked == [order]
    assert (np.sort(perms, axis=1) == np.arange(len(h))).all() and (phases[:, 0] == 1).all()
    assert np.abs(np.abs(phases) - 1).max() < 1e-12
    assert (_map_defects(h, *group) <= search._SYMMETRY).all()
    identity = (perms == np.arange(len(h))).all(axis=1) & ~conj & (np.abs(phases - 1) < 1e-12).all(axis=1)
    assert identity.sum() == 1
    if len(h) <= 6:
        assert _same_maps(group, _brute_force_group(h))


def test_a_group_search_too_large_to_hold_leaves_the_identity():
    # The 8 x 8 Sylvester-Hadamard pair has 21,504 symmetries and {I, F11}
    # 2,420: a row of either search would hold more than _BRANCHES entries,
    # so the search keeps the identity alone and runs as for a pair without
    # symmetries, a cap below 2,048 in one round.
    f2 = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    sylvester = MUPair(Basis(np.eye(8, dtype=complex)), Basis(np.kron(np.kron(f2, f2), f2).astype(complex)))
    for pair in (sylvester, _fourier_pair(11)):
        perms, phases, conj = _symmetry_group(_frame(pair))
        identity = ([list(range(pair.dim))], [[1.0] * pair.dim], [False])
        assert (perms.tolist(), phases.tolist(), conj.tolist()) == identity
    got = find_mu_vectors(sylvester, SearchConfig(restarts=300, master_seed=0))
    assert (got.group_order, got.restarts_run) == (1, 300) and got.orbits == tuple(range(len(got)))


def _images(pair, vectors, group):
    """The images of vectors (rows) under each map, in the pair's frame:
    (maps, vectors, d)."""
    a = pair.first.matrix
    perms, phases, conj = group
    u = np.asarray(vectors) @ a.conj()  # rows of u = A^dagger v
    source = np.where(conj[:, None, None], u.conj(), u)
    mapped = np.take_along_axis(source, np.broadcast_to(perms[:, None, :], source.shape), axis=2)
    return (phases[:, None, :] * mapped) @ a.T


@pytest.mark.parametrize("name", ["S6", "P0", "P1"])
def test_symmetries_map_the_found_vectors_onto_themselves(name):
    pair = GROUPS[name][0]()
    found = find_mu_vectors(pair, SearchConfig(restarts=20000, master_seed=1))
    vectors = np.array(found.vectors)
    group = _symmetry_group(_frame(pair))
    assert found.group_order == len(group[0])
    for start in range(0, len(group[0]), 90):
        part = tuple(x[start : start + 90] for x in group)
        same = np.abs(_images(pair, vectors, part) @ vectors.conj().T) > 1 - 1e-9
        # Each image is one of the vectors up to phase, and each vector one image.
        assert (same.sum(axis=2) == 1).all() and (same.sum(axis=1) == 1).all()


@pytest.mark.parametrize("name", ["S6", "P0", "P1", "F5"])
def test_a_map_with_one_phase_changed_or_two_images_swapped_is_rejected(name):
    h = _frame(GROUPS[name][0]())
    perms, phases, conj = _symmetry_group(h)
    d = len(h)
    for k in range(d):
        turned = phases.copy()
        turned[:, k] *= np.exp(1e-6j)
        assert (_map_defects(h, perms, turned, conj) > search._SYMMETRY).all()
    # Phases off the unit circle give no monomial unitary.
    for scale in (0.0, 2.0):
        assert (_map_defects(h, perms, scale * phases, conj) > search._SYMMETRY).all()
    # Swapping two entries of a permutation gives a map that is accepted
    # exactly when it is one of the group's; most are not.
    keys = {(tuple(p), bool(c)) for p, c in zip(perms.tolist(), conj)}
    rejected = 0
    for i, j in itertools.combinations(range(d), 2):
        swapped = perms.copy()
        swapped[:, [i, j]] = swapped[:, [j, i]]
        ok = _map_defects(h, swapped, phases, conj) <= search._SYMMETRY
        for p, c, accepted in zip(swapped.tolist(), conj, ok):
            if not accepted:
                rejected += 1
            elif (tuple(p), bool(c)) not in keys:
                raise AssertionError(f"swapped map {p} accepted but not in the group")
    assert rejected > len(perms)


def _search_without_orbits(pair, cfg):
    """The search before symmetries: rounds ending at 2,048, 3,072, ...,
    stopping once every cluster has _SATURATED hits. Its clusters, gauge
    fixed, and its restart count."""
    a, d = pair.first.matrix, pair.dim
    h_conj, basis_conj = a.T @ pair.second.matrix.conj(), pair.basis_vectors().conj()
    clusters, lo, hi = _no_clusters(d), 0, min(search._ROUND, cfg.restarts)
    while True:
        u = _solve_phases(_start_phases(cfg.master_seed, lo, hi, d), h_conj, search.MAX_ITERS, search.RESIDUAL_TOL)
        clusters = _cluster(clusters, *search._accepted(_overlaps(u, a.T), basis_conj), search.CLUSTER_TOL)
        if clusters[3].min() >= search._SATURATED or hi == cfg.restarts:
            return _gauge_fix(clusters[1].T), clusters[2], clusters[3], hi
        lo, hi = hi, min(hi + hi // 2, cfg.restarts)


def test_a_pair_without_symmetries_searches_as_before(monkeypatch):
    # With the group cut to the identity, every cluster is an orbit of its
    # own: the rounds end at 2,048, 3,072, ..., and the vectors, residuals,
    # hits and restart count are those of the search without orbits.
    identity = lambda h: (np.arange(len(h))[None], np.ones((1, len(h)), dtype=complex), np.zeros(1, dtype=bool))
    monkeypatch.setattr(search, "_symmetry_group", identity)
    for pair, cfg, rounds in ((reduce_P2()[0], SearchConfig(20000, 3), [2048, 1024, 1536]),
                              (make_family_pair("P0"), SearchConfig(20000, 0), [2048])):
        solves, solve = [], search._solve_phases
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(search, "_solve_phases", lambda p, *args: solves.append(p.shape[1]) or solve(p, *args))
            got = find_mu_vectors(pair, cfg)
        vectors, best, hits, hi = _search_without_orbits(pair, cfg)
        n = sum(rounds)
        assert (solves, got.restarts_run, hi, got.group_order, got.saturated) == (rounds, n, n, 1, True)
        assert n in _round_ends(20000, search._ROUND)
        listed = {v.tobytes(): (r, k) for v, r, k in zip(got.vectors, got.residuals, got.hits)}
        assert listed == {v.tobytes(): (r, k) for v, r, k in zip(vectors, best.tolist(), hits.tolist())}
        assert got.orbits == tuple(range(len(got)))


def test_completion_lists_every_vector_from_a_small_budget():
    # 64 restarts miss some of S6's 90 vectors and P0's 48; the maps of one
    # representative per orbit give the rest, each rechecked, with 0 hits.
    # The hits still count the accepted restarts only.
    for pair, count, orbits in ((reduce_P2()[0], 90, [90]), (make_family_pair("P0"), 48, [12, 36])):
        got = find_mu_vectors(pair, SearchConfig(restarts=64, master_seed=0))
        assert (len(got), got.restarts_run, sorted(np.bincount(got.orbits).tolist())) == (count, 64, orbits)
        assert 0 < sum(got.hits) <= 64 and got.hits.count(0) > 0
        assert max(got.residuals) <= search.RESIDUAL_TOL
        assert _recheck(np.array(got.vectors), pair.basis_vectors().conj(), 1 / 6).max() <= 10 * search.RESIDUAL_TOL


def test_completed_vectors_are_orthogonal_to_rounding():
    # An image carries the error of the vector it maps, and an accepted
    # restart sits up to about sqrt(RESIDUAL_TOL) = 1e-10 from its answer: at
    # P0 seeds 22 and 55, mapping the representatives as found left
    # orthogonal pairs 1.2e-10 and 1.0e-10 from orthogonal, past the 1e-10 a
    # Basis allows. Polished first, every orthogonal pair is within 1e-14.
    for seed in (22, 55):
        got = find_mu_vectors(make_family_pair("P0"), SearchConfig(restarts=6000, master_seed=seed))
        vectors = np.array(got.vectors)
        overlaps = np.abs(vectors.conj() @ vectors.T)
        assert len(got) == 48 and overlaps[overlaps < 1e-6].max() < 1e-14


def test_images_of_a_map_that_is_no_symmetry_are_rejected(monkeypatch):
    # Completion checks every image as it checks a solved restart: with a
    # map added to the group that turns one phase of S6's symmetries, its
    # images are not MU to the pair, fail the residual gate and list
    # nothing, and the 90 vectors come out as before.
    group = _symmetry_group(_frame(reduce_P2()[0]))
    bad = (group[0][:2], group[1][:2] * np.exp(0.3j * np.eye(6)[1]), group[2][:2])
    bent = tuple(np.concatenate([x, y]) for x, y in zip(group, bad))
    monkeypatch.setattr(search, "_symmetry_group", lambda h: bent)
    got = find_mu_vectors(reduce_P2()[0], SearchConfig(restarts=64, master_seed=0))
    assert (len(got), got.group_order) == (90, 722)
    assert _recheck(np.array(got.vectors), reduce_P2()[0].basis_vectors().conj(), 1 / 6).max() <= 1e-19


def test_chunks_reach_cluster_in_restart_order(monkeypatch):
    # A P0 search capped at 3,000 runs three rounds, 128, 2,048 and 3,000,
    # with the stop out of reach (P0 saturates after one). Solved 37
    # restarts at a time, each round's accepted columns and residuals, and
    # the images its completion clusters, reach _cluster with the bits and in
    # the order of the default chunk, which solves each round at once.
    calls, cluster = {}, search._cluster

    def spied(clusters, vecs, res, radius):
        calls[chunk].append((vecs.copy(), res.copy()))
        return cluster(clusters, vecs, res, radius)

    monkeypatch.setattr(search, "_cluster", spied)
    monkeypatch.setattr(search, "_SATURATED", 10**9)
    cfg = SearchConfig(restarts=3000, master_seed=0)
    for chunk in (search._WIDTH, 37):
        calls[chunk] = []
        got = find_mu_vectors(make_family_pair("P0"), cfg, _chunk=chunk)
        assert got.restarts_run == 3000
    assert len(calls[37]) == len(calls[search._WIDTH]) > 3
    for (vecs, res), (vecs37, res37) in zip(calls[search._WIDTH], calls[37]):
        assert vecs.shape[1] > 0
        assert np.array_equal(vecs, vecs37)
        assert np.array_equal(res, res37)


def test_cluster_continued_piecewise_matches_one_call():
    # Leader clustering continued round by round, over pieces of columns,
    # equals one fresh _cluster call on all of them: the same centers, hits,
    # representatives and residuals, ties going to the earlier column.
    rng = np.random.default_rng(11)
    cases = []
    for n, tol, cuts in ((400, 0.3, (0, 1, 57, 200, 400)), (400, 0.6, (0, 150, 151, 400)), (60, 1e-6, (0, 30, 60))):
        vecs = rng.random((3, n)) + 1j * rng.random((3, n))
        vecs = vecs / np.linalg.norm(vecs, axis=0) * np.exp(2j * np.pi * rng.random(n))
        cases.append((vecs, rng.integers(0, 4, n) * 1e-21, tol, cuts, search._PAIRS))
    # As in test_cluster_joins_first_center_within_radius, with columns 0 and
    # 1 the old centers: column 2 lies within radius of both and joins 0.
    vecs = _real_unit_columns([0, 70, 40, 10, 175, 110], [0, 0, 0, -np.pi / 2, 2.0, 0.5])
    cases.append((vecs, np.zeros(6), 1.0, (0, 2, 6), search._PAIRS))
    # One cluster whose representative is column 1, not its center. Column 2
    # ties its residual and leaves it in place; column 3 is strictly lower
    # and takes its place, and column 4, which ties column 3, does not.
    vecs = _real_unit_columns([0, 10, 20, 30, 40], [0, 1, 2, 3, 4])
    res = np.array([3e-21, 1e-21, 1e-21, 5e-22, 5e-22])
    cases += [(vecs[:, :3], res[:3], 1.0, (0, 2, 3), search._PAIRS), (vecs, res, 1.0, (0, 2, 5), search._PAIRS)]
    # Empty rounds, first and later.
    cases.append((vecs, res, 1.0, (0, 0, 2, 2, 5, 5), search._PAIRS))
    # A round of new clusters only: 90 and 95 degrees lie outside the radius
    # of 0 degrees, and 95 joins 90.
    cases.append((_real_unit_columns([0, 90, 95], [0, 1, 2]), np.zeros(3), 1.0, (0, 1, 3), search._PAIRS))
    # Every column has the key 0.6 of test_cluster_matches_greedy_loop, so
    # each new column is paired with every old center: hundreds of pairs a
    # round, measured in blocks of seven.
    x = np.arange(1.0, 4.0) / np.linalg.norm(np.arange(1.0, 4.0))
    perp = rng.normal(size=(3, 300)) + 1j * rng.normal(size=(3, 300))
    perp -= np.outer(x, x @ perp)
    vecs = (0.6 * x[:, None] + 0.8 * perp / np.linalg.norm(perp, axis=0)) * np.exp(2j * np.pi * rng.random(300))
    cases.append((vecs, rng.integers(0, 4, 300) * 1e-21, 0.6, (0, 100, 101, 300), 7))
    for vecs, res, tol, cuts, pairs in cases:
        clusters = _no_clusters(len(vecs))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(search, "_PAIRS", pairs)
            for lo, hi in zip(cuts, cuts[1:]):
                clusters = _cluster(clusters, vecs[:, lo:hi], res[lo:hi], tol)
        centers, reps, hits = _cluster_indices(vecs, res, tol)
        assert np.array_equal(clusters[0], vecs[:, centers])
        assert np.array_equal(clusters[1], vecs[:, reps])
        assert np.array_equal(clusters[2], res[reps])
        assert clusters[3].tolist() == hits.tolist()
        assert len(centers) < vecs.shape[1] or tol < 1e-3


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


def _no_clusters(dim):
    """The clusters of no earlier columns, which a fresh _cluster call takes."""
    empty = np.empty((dim, 0), dtype=complex)
    return empty, empty, np.empty(0), np.empty(0, dtype=int)


def _cluster_indices(vecs, res, tol):
    """A fresh _cluster call on distinct columns, its centers and
    representatives as column indices of vecs, with its hits; the residuals
    it returns are those of its representatives."""
    centers, reps, best, hits = _cluster(_no_clusters(len(vecs)), vecs, res, tol)
    index = {col.tobytes(): k for k, col in enumerate(vecs.T)}
    centers, reps = (np.array([index[col.tobytes()] for col in cols.T], dtype=int) for cols in (centers, reps))
    assert np.array_equal(best, res[reps])
    return centers, reps, hits


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
    centers, reps, hits = _cluster_indices(vecs, np.zeros(6), 1.0)
    assert centers.tolist() == [0, 1]
    assert hits.tolist() == [4, 2]
    assert reps.tolist() == [0, 1]


def test_cluster_representative_and_center():
    # Equal best residuals keep the first member in column order.
    vecs = _real_unit_columns([0, 10, 20], [0, 1, 2])
    _, reps, hits = _cluster_indices(vecs, np.array([3e-21, 1e-21, 1e-21]), 1.0)
    assert reps.tolist() == [1] and hits.tolist() == [3]
    # The representative moves to column 1, the better residual, but
    # distances are still taken from column 0: column 2 is 70 degrees from it
    # and starts a cluster although it lies within 35 degrees of column 1.
    vecs = _real_unit_columns([0, 35, 70], [0, 0, 0])
    centers, reps, hits = _cluster_indices(vecs, np.array([5e-21, 1e-21, 2e-21]), 1.0)
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
        centers, reps, hits = _cluster_indices(vecs, res, tol)
        assert (centers.tolist(), reps.tolist(), hits.tolist()) == _leader_reference(vecs, res, tol)
        assert len(centers) < vecs.shape[1] or tol < 1e-3


@pytest.mark.parametrize("leads", [1, 2, 3, search._LEADS])
def test_cluster_matches_leader_loop_at_any_pass_size(monkeypatch, leads):
    # _cluster settles `leads` tentative centers per pass; any pass size
    # gives the one-center-at-a-time loop.
    monkeypatch.setattr(search, "_LEADS", leads)
    rng = np.random.default_rng(23)
    # Within radius 1 means less than 60 degrees apart modulo 180. In a pass
    # of columns 0-2 (0, 40 and 80 degrees), column 0 claims column 1, and
    # column 2, within radius of column 1 only, is a center. Column 3 (110)
    # then joins column 2, column 4 (20) column 0 and column 5 (100) column 2.
    vecs = _real_unit_columns([0, 40, 80, 110, 20, 100], [0, 1, 2, 3, 4, 5])
    assert _leader_reference(vecs, np.zeros(6), 1.0) == ([0, 2], [0, 2], [3, 3])
    cases = [(vecs, 1.0)]
    # A random walk whose steps are shorter than the radius: chains of near
    # columns that run across the edges of the passes, in column order and
    # shuffled.
    steps = rng.normal(size=(3, 400)) + 1j * rng.normal(size=(3, 400))
    walk = np.cumsum(0.12 * steps / np.linalg.norm(steps, axis=0), axis=1) + np.array([[1.0], [0.0], [0.0]])
    cases += [(walk, 0.3), (walk[:, rng.permutation(400)], 0.3)]
    # Dense random columns, many within radius of several centers of a pass.
    cases += [(rng.random((3, 300)) + 1j * rng.random((3, 300)), tol) for tol in (0.3, 0.6)]
    runs = []
    for vecs, tol in cases:
        vecs = vecs / np.linalg.norm(vecs, axis=0) * np.exp(2j * np.pi * rng.random(vecs.shape[1]))
        runs.append((vecs, rng.integers(0, 4, vecs.shape[1]) * 1e-21, tol))
    for vecs, res, tol in runs:
        centers, reps, hits = _cluster_indices(vecs, res, tol)
        assert (centers.tolist(), reps.tolist(), hits.tolist()) == _leader_reference(vecs, res, tol)
        assert 1 < len(centers) <= vecs.shape[1] / 3
    # The dense columns at 0.3 continued after their first 37 clusters, a
    # count that no pass size but 1 divides, so one pass holds the last old
    # centers and the first new tentative columns. The first new column is
    # old cluster 0's representative negated, at the same distances, with
    # its residual: it joins cluster 0 and, tied, leaves the old
    # representative in place.
    vecs, res, tol = runs[3]
    cut = _leader_reference(vecs, res, tol)[0][37]
    old = _cluster(_no_clusters(3), vecs[:, :cut], res[:cut], tol)
    assert len(old[3]) == 37
    vecs = np.hstack([vecs[:, :cut], -old[1][:, :1], vecs[:, cut:]])
    res = np.concatenate([res[:cut], old[2][:1], res[cut:]])
    centers, reps, hits = _leader_reference(vecs, res, tol)
    got = _cluster(old, vecs[:, cut:], res[cut:], tol)
    assert np.array_equal(got[0], vecs[:, centers]) and np.array_equal(got[1], vecs[:, reps])
    assert np.array_equal(got[2], res[reps]) and got[3].tolist() == hits
    assert cut not in centers and reps[0] < cut and len(centers) > 40


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
    centers, reps, hits = _cluster_indices(vecs, np.zeros(2), search.CLUSTER_TOL)
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
            # The isolation value is the smallest singular value of the same J.
            sigma = np.linalg.svd(jac, compute_uv=False).min()
            np.testing.assert_allclose(_isolation(h_conj, u)[c], sigma, rtol=1e-10, atol=1e-14)


def test_solve_phases_counts_failed_factorisation_as_failed_step(monkeypatch):
    h_conj = _h_conj(pair_zx_d3())
    phases = _start_phases(0, 0, 8, 3)
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
    # Restart 0 never moves from its start, which it keeps bit for bit; the
    # others are untouched by it.
    _assert_kept_start(u[:, :1], phases[:, :1])
    assert np.array_equal(u[:, 1:], plain[:, 1:])

    # Alone, it fails once per iteration, its damping growing tenfold each
    # time (to 1e197, with no warning), until the step cap retires it.
    calls.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _solve_phases(phases[:, :1], h_conj, 200, 1e-20)
    assert calls == [1] * 200


def test_solve_phases_evaluates_no_empty_batch(monkeypatch):
    # Retired columns are dropped, and no step or evaluation runs on zero
    # columns, not even once the last restart retires.
    h_conj = _h_conj(pair_zx_d3())
    phases = _start_phases(0, 0, 40, 3)
    widths = []
    overlaps, damped_step = search._overlaps, search._damped_step

    def counted_overlaps(v, m):
        widths.append(v.shape[1])
        return overlaps(v, m)

    def counted_step(h_conj, u, *args):
        widths.append(u.shape[1])
        return damped_step(h_conj, u, *args)

    monkeypatch.setattr(search, "_overlaps", counted_overlaps)
    monkeypatch.setattr(search, "_damped_step", counted_step)
    _solve_phases(phases, h_conj, 200, 1e-20)
    assert widths[0] == 40 and min(widths) > 0


def test_one_restart_batches_match_full_batches():
    # Every restart solved alone gives the same bits as in one batch, whatever
    # summation kernels numpy picks for the two shapes. Sums of eight or more
    # terms (d = 8 deviations, 2d = 12 overlaps) are where np.sum switches to
    # pairwise summation for a one-column batch.
    runs = [(pair, 60, 2000) for pair in pairs_d3()]
    runs += [(make_family_pair("P0"), 30, 2000), (_fourier8_pair(), 12, 40)]
    for pair, n, max_iters in runs:
        h_conj = _h_conj(pair)
        phases = _start_phases(4, 0, n, pair.dim)
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


def test_solve_phases_writes_capped_columns_as_one_batch_would():
    # Columns still live after the last iteration are written out after the
    # loop: on S6 start phases at the step cap, one batch and one column at a
    # time give the same bits, and some column retired unconverged on the cap.
    pair, _ = reduce_P2()
    h_conj = _h_conj(pair)
    phases = _start_phases(3, 0, 60, 6)
    batch = _solve_phases(phases, h_conj, search.MAX_ITERS, search.RESIDUAL_TOL)
    alone = [_solve_phases(phases[:, k : k + 1], h_conj, search.MAX_ITERS, search.RESIDUAL_TOL) for k in range(60)]
    assert np.array_equal(batch, np.hstack(alone))
    assert (_residual(_overlaps(batch, h_conj), 1 / 6)[0] > search.RESIDUAL_TOL).sum() == 2


def _fourier8_pair():
    fourier8 = np.exp(2j * np.pi * np.outer(range(8), range(8)) / 8) / np.sqrt(8)
    return MUPair(Basis(np.eye(8, dtype=complex)), Basis(fourier8))


@pytest.mark.parametrize("dim", [3, 6, 8, 9])
def test_start_phases_of_fewer_restarts_are_a_prefix(dim):
    # Restart k reads the k-th run of counter blocks whatever the budget, so
    # its start phases depend only on (master_seed, k). Each restart reads one
    # block of four doubles at d = 3 and two at d = 6, 8 and 9.
    # A round draws only its own range, from the counter its first restart
    # reads, and gets the bits of one draw for every restart up front.
    blocks = -(-(dim - 1) // 4)
    up_front = np.random.Generator(np.random.Philox(key=5)).random((50, 4 * blocks))
    full = _start_phases(5, 0, 50, dim)
    assert np.array_equal(full, 2.0 * np.pi * up_front[:, : dim - 1].T)
    for lo, hi in ((0, 1), (0, 17), (0, 49), (3, 4), (17, 49), (49, 50)):
        assert np.array_equal(_start_phases(5, lo, hi, dim), full[:, lo:hi])


def _start_points(phases):
    # u_0 = 1/sqrt(d) and u_k = e^{i phi_k}/sqrt(d), built apart from the solver.
    d = len(phases) + 1
    return np.vstack([np.full((1, phases.shape[1]), 1 / math.sqrt(d)), np.exp(1j * phases) / math.sqrt(d)])


def _assert_kept_start(u, phases):
    # A restart that never moved comes out at its start point, bit for bit.
    assert u.dtype == complex and np.array_equal(u, _start_points(phases))


def test_restarts_retire_after_max_iters_steps(monkeypatch):
    h_conj = _h_conj(pair_zx_d3())
    phases = _start_phases(0, 0, 3, 3)
    calls = []

    def always_fails(a, b):
        calls.append((b.shape[1], a.dtype, b.dtype))
        return np.full_like(b, np.nan)

    monkeypatch.setattr(search, "_spd_solve", always_fails)
    # The three restarts of one batch fail every step, so none retires in the
    # loop: each is written out after it, at its start point. Every step
    # solves in double, whatever the cap.
    for max_iters in (2, 4, 5):
        calls.clear()
        u = _solve_phases(phases, h_conj, max_iters, 1e-20)
        _assert_kept_start(u, phases)
        assert calls == [(3, np.float64, np.float64)] * max_iters


def test_damping_past_the_double_range_raises_no_warning(monkeypatch):
    # A restart that fails every step grows its damping tenfold each time,
    # past the double range after about 311 steps: it then keeps its start
    # point, with no overflow warning.
    h_conj = _h_conj(pair_zx_d3())
    phases = _start_phases(0, 0, 1, 3)
    monkeypatch.setattr(search, "_spd_solve", lambda a, b: np.full_like(b, np.nan))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = _solve_phases(phases, h_conj, 400, 1e-20)
    _assert_kept_start(u, phases)


def _s6_answers():
    # The 90 answers of {I, S6} and the pair's h_conj. Against I the answers
    # are the u themselves, up to phase: u_0 > 0 up to the rounding of the
    # gauge fix (images of a symmetry have u_0 complex).
    pair = MUPair(Basis(np.eye(6, dtype=complex)), reduce_P2()[0].second)
    answers = np.array(find_mu_vectors(pair, SearchConfig(restarts=2048, master_seed=0)).vectors).T
    assert len(answers.T) == 90 and np.abs(answers[0].imag).max() < 1e-15
    return _h_conj(pair), answers


def test_restarts_started_on_the_answers_converge_on_them():
    # All 90 restarts started on the exact S6 answers come out converged, each
    # on the answer it started on.
    h_conj, answers = _s6_answers()
    phases = np.angle(answers[1:] / answers[0])
    u = _solve_phases(phases, h_conj, search.MAX_ITERS, search.RESIDUAL_TOL)
    assert (_residual(_overlaps(u, h_conj), 1 / 6)[0] <= search.RESIDUAL_TOL).all()
    assert np.abs(np.abs(np.einsum("ij,ij->j", u.conj(), _start_points(phases))) - 1).max() < 1e-12


def test_undamped_steps_square_the_distance_to_an_isolated_answer():
    # The completion polish is _solve at damping 0 and stop 0: Gauss-Newton
    # steps, each squaring the distance to an isolated answer, here from 1e-5
    # to rounding in _POLISH = 2 steps. u_0 never moves, and a step that does
    # not lower the residual is not taken, so an exact answer stays as good.
    h_conj, answers = _s6_answers()
    u = answers / (answers[0] / np.abs(answers[0]))
    turn = np.vstack([np.zeros(90), np.random.default_rng(0).normal(scale=1e-5, size=(5, 90))])
    start = u * np.exp(1j * turn)
    one, two = (search._solve(start.copy(), h_conj, k, 0.0, 0.0) for k in (1, search._POLISH))
    assert np.abs(start - u).max() > 1e-5 and np.abs(one - u).max() < 1e-9 and np.abs(two - u).max() < 1e-14
    assert np.array_equal(two[0], start[0])
    kept = search._solve(u.copy(), h_conj, search._POLISH, 0.0, 0.0)
    assert (_residual(_overlaps(kept, h_conj), 1 / 6)[0] <= _residual(_overlaps(u, h_conj), 1 / 6)[0]).all()


def test_infinite_damping_gives_a_failed_step_with_no_warning():
    h_conj = _h_conj(pair_zx_d3())
    u = _start_points(_start_phases(0, 0, 4, 3))
    w = _overlaps(u, h_conj)
    _, r = _residual(w, 1 / 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        step = _damped_step(h_conj, u, w, r, np.array([1e-3, np.inf, 1e300, np.inf]))
    assert np.isfinite(step[:, [0, 2]]).all() and np.isnan(step[:, [1, 3]]).all()


def test_cayley_update_keeps_u_flat():
    pair, _ = reduce_P2()
    h_conj = _h_conj(pair)
    u = _solve_phases(_start_phases(0, 0, 2000, 6), h_conj, search.MAX_ITERS, search.RESIDUAL_TOL)
    assert np.abs(np.abs(u) - 1 / math.sqrt(6)).max() <= 1e-15
    assert np.array_equal(_cayley(u, np.zeros((5, 2000))), u)
    # Every restart that converged within the step cap is accepted, and the
    # recheck rejects none of them; the search stops after the first 128.
    v = _overlaps(u, pair.first.matrix.T)
    converged = _residual(_overlaps(v, pair.basis_vectors().conj()), 1 / 6)[0] <= search.RESIDUAL_TOL
    vecset = find_mu_vectors(pair, SearchConfig(restarts=2000, master_seed=0))
    assert (len(vecset), vecset.restarts_run, converged.sum()) == (90, 128, 1940)
    assert sum(vecset.hits) == converged[:128].sum()


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
