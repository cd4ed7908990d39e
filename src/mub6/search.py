"""Numerical search for unit vectors mutually unbiased to both members of a
pair, clustering up to global phase, orthogonality graphs, and clique search
for extension bases."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bases import Basis, MUPair
from .errors import DimensionError, ParameterRangeError
from .linalg import DEFAULT_TOL, Tolerance, as_vector

# Levenberg-Marquardt damping: its starting value, and the value past which a
# restart whose steps keep failing is given up as stalled.
_DAMPING = 1e-3
_DAMPING_CAP = 1e12


@dataclass(frozen=True)
class SearchConfig:
    """Restart budget, seeding and acceptance thresholds for the search.

    Restart k draws its start phases from its own counter blocks of one
    Philox stream keyed by master_seed, so results do not depend on how
    restarts are batched or scheduled. max_iters caps the Levenberg-Marquardt iterations
    of each restart; residual_tol is both where a restart stops and what it
    must reach to be accepted.
    """

    restarts: int = 20000
    master_seed: int = 0
    max_iters: int = 2000
    residual_tol: float = 1e-20
    cluster_tol: float = 1e-6

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ParameterRangeError("restarts must be at least 1")
        if not 0 <= self.master_seed < 2**128:
            raise ParameterRangeError("master_seed must lie in [0, 2**128)")
        if self.max_iters < 1:
            raise ParameterRangeError("max_iters must be at least 1")
        if not (self.residual_tol > 0.0 and self.cluster_tol > 0.0):
            raise ParameterRangeError("tolerances must be strictly positive")


@dataclass(frozen=True)
class MUVectorSet:
    """Deduplicated unit vectors MU to both members of a pair.

    Vectors are gauge-fixed representatives (largest-modulus component real
    positive), each with the best residual seen in its cluster and the number
    of restarts that converged into the cluster.
    """

    pair: MUPair
    vectors: tuple[np.ndarray, ...]
    residuals: tuple[float, ...]
    hits: tuple[int, ...]
    manifold_warning: bool = False

    def __len__(self) -> int:
        return len(self.vectors)


@dataclass(frozen=True)
class OrthoGraph:
    """Orthogonality graph on MU vectors: an edge where |<u|v>| <= ortho_tol."""

    num_vectors: int
    edges: tuple[tuple[int, int], ...]
    min_abs_overlap: float | None
    max_abs_overlap: float | None


@dataclass(frozen=True)
class ExtensionResult:
    """Outcome of an extension-basis search over the orthogonality graph."""

    basis: Basis | None
    max_clique_size: int
    vectors: MUVectorSet
    graph: OrthoGraph


def mu_residual(v, pair: MUPair) -> float:
    """Sum over all 2d basis vectors b of (|<v|b>|^2 - 1/d)^2.

    Zero exactly when v is mutually unbiased to both members.
    """
    vec = as_vector(v)
    if vec.shape[0] != pair.dim:
        raise DimensionError(f"vector has dimension {vec.shape[0]}, pair has {pair.dim}")
    f, _ = _residual(_overlaps(vec[None, :], pair.basis_vectors().conj()), 1.0 / pair.dim)
    return float(f[0])


def _overlaps(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Row-batched products v @ m, accumulated in a fixed order over the d
    components so results do not depend on the batch size. With m the
    conjugated basis vectors these are the overlaps <b|v>."""
    out = v[:, 0, None] * m[0]
    for i in range(1, m.shape[0]):
        out = out + v[:, i, None] * m[i]
    return out


def _residual(overlaps: np.ndarray, target: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-row sum of (|<b|v>|^2 - target)^2, with the deviations inside it."""
    devs = np.abs(overlaps) ** 2 - target
    return np.sum(devs * devs, axis=1), devs


def _recheck(v: np.ndarray, basis_conj: np.ndarray, target: float) -> np.ndarray:
    """Per-row residuals accumulated independently of _overlaps and _residual:
    components and basis vectors both in reverse order, |<b|v>|^2 as
    re^2 + im^2, and elementwise numpy only (no BLAS, whose blocking can vary
    with the batch size)."""
    ip = sum(v[:, i, None] * basis_conj[i, ::-1] for i in reversed(range(v.shape[1])))
    devs = ip.real * ip.real + ip.imag * ip.imag - target
    return sum(devs.T * devs.T)


def _start_phases(master_seed: int, lo: int, hi: int, dim: int) -> np.ndarray:
    """Start phases of restarts lo..hi-1, the first phase pinned to 0.

    Each restart reads ceil((d - 1) / 4) counter blocks of four doubles,
    restart k the k-th such run, of one Philox stream keyed by master_seed,
    so it depends only on (master_seed, k).
    """
    blocks = -(-(dim - 1) // 4)
    bitgen = np.random.Philox(key=master_seed)
    bitgen.advance(lo * blocks)
    draws = np.random.Generator(bitgen).random((hi - lo, 4 * blocks))
    phases = np.zeros((hi - lo, dim))
    phases[:, 1:] = 2.0 * np.pi * draws[:, : dim - 1]
    return phases


def _solve_phases(
    phases: np.ndarray, h_conj: np.ndarray, max_iters: int, tol: float
) -> np.ndarray:
    """Batched Levenberg-Marquardt on the d - 1 free phases of
    u = e^{i phases} / sqrt(d), driving |(H^dagger u)_j|^2 to 1/d.

    The d residuals sum to zero, so the system is square. Each row stops on
    its own once its residual is <= tol or its damping passes _DAMPING_CAP,
    and all per-row updates are independent, so trajectories are identical
    no matter how the restarts are chunked. Returns the rows u.
    """
    d = phases.shape[1]
    target = 1.0 / d

    def evaluate(phi: np.ndarray) -> tuple[np.ndarray, ...]:
        u = np.exp(1j * phi) / math.sqrt(d)
        w = _overlaps(u, h_conj)
        f, r = _residual(w, target)
        return u, w, r, f

    f = evaluate(phases)[3]
    damping = np.full(len(phases), _DAMPING)
    active = np.nonzero(f > tol)[0]
    for _ in range(max_iters):
        if active.size == 0:
            break
        u, w, r, _ = evaluate(phases[active])
        # d r_j / d phi_k = 2 Re(conj(w_j) i conj(H_kj) u_k) for k = 1..d-1.
        jac = -2.0 * (w.conj()[:, :, None] * h_conj.T[None, :, 1:] * u[:, None, 1:]).imag
        jtj = damping[active, None, None] * np.eye(d - 1)
        jtr = np.zeros((active.size, d - 1))
        for j in range(d):
            jtj = jtj + jac[:, j, :, None] * jac[:, j, None, :]
            jtr = jtr + jac[:, j, :] * r[:, j, None]
        trial = phases[active]
        trial[:, 1:] -= np.linalg.solve(jtj, jtr[:, :, None])[:, :, 0]
        trial_f = evaluate(trial)[3]
        better = trial_f < f[active]
        took = active[better]
        phases[took] = trial[better]
        f[took] = trial_f[better]
        damping[took] *= 0.1
        damping[active[~better]] *= 10.0
        active = active[(f[active] > tol) & (damping[active] < _DAMPING_CAP)]
    return evaluate(phases)[0]


def _gauge_fix(v: np.ndarray) -> np.ndarray:
    """Make the first component of largest modulus of each row real positive.

    Moduli are rounded before the argmax so that near-ties (exact for MU
    vectors against the standard basis) resolve to the same index for every
    member of a cluster. The pivot's modulus is np.hypot, as the scalar abs()
    gives it; numpy's vectorised complex abs can differ in the last bit.
    """
    pivot = v[np.arange(len(v)), np.argmax(np.round(np.abs(v), 6), axis=1)]
    return v * (pivot / np.hypot(pivot.real, pivot.imag)).conj()[:, None]


def _distances(rows: np.ndarray, vec: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(np.abs(rows - vec[None, :]) ** 2, axis=1))


def _cluster(vecs: np.ndarray, res: np.ndarray, tol: float) -> tuple[np.ndarray, ...]:
    """Greedy clustering of the rows in order: row k joins the nearest center
    created before it (the first on ties) if within tol, else becomes one.

    Built a cluster at a time; a claimed row can move only to a later center
    within 2 tol of its current one (triangle inequality), so only those rows
    are measured again. Returns the center rows, the representative rows (best
    residual, the first on ties) and the hits of each cluster.
    """
    owner = np.full(len(vecs), -1)
    best = np.full(len(vecs), np.inf)
    centers: list[int] = []
    for c in range(len(vecs)):
        if owner[c] < 0:
            # Unclaimed rows (owner -1) and rows of centers near c are candidates.
            near = np.append(_distances(vecs[centers], vecs[c]) < 3.0 * tol, True)
            cand = c + 1 + np.flatnonzero(near[owner[c + 1 :]])
            dists = _distances(vecs[cand], vecs[c])
            take = (dists < tol) & (dists < best[cand])
            owner[cand[take]] = owner[c] = len(centers)
            best[cand[take]] = dists[take]
            centers.append(c)
    by_cluster = np.lexsort((res, owner))
    reps = by_cluster[np.flatnonzero(np.diff(owner[by_cluster], prepend=-1))]
    return np.array(centers, dtype=int), reps, np.bincount(owner)


def find_mu_vectors(pair: MUPair, cfg: SearchConfig, _chunk: int = 4096) -> MUVectorSet:
    """Collect, gauge-fix and cluster all vectors found MU to a pair.

    Maps the pair {A, B} to {I, H} with H = A^dagger B, where a vector MU to
    I is u = e^{i phi} / sqrt(d) with phi_0 = 0 pinned. Runs cfg.restarts
    independent seeded solves for the d - 1 free phases, pulls each back as
    v = A u, keeps solutions with mu_residual <= cfg.residual_tol that also
    pass an independently accumulated re-check, and greedily clusters the
    survivors in canonical sorted order. Deterministic for a given
    (pair, cfg); _chunk only controls batching and never the result.
    """
    d = pair.dim
    a = pair.first.matrix
    h_conj = a.T @ pair.second.matrix.conj()
    basis_conj = pair.basis_vectors().conj()
    target = 1.0 / d

    found = []
    for lo in range(0, cfg.restarts, _chunk):
        hi = min(lo + _chunk, cfg.restarts)
        phases = _start_phases(cfg.master_seed, lo, hi, d)
        v = _overlaps(_solve_phases(phases, h_conj, cfg.max_iters, cfg.residual_tol), a.T)
        f, _ = _residual(_overlaps(v, basis_conj), target)
        keep = f <= cfg.residual_tol
        keep[keep] = _recheck(v[keep], basis_conj, target) <= 10.0 * cfg.residual_tol
        found.append((v[keep], f[keep]))
    vecs, res = (np.concatenate(parts) for parts in zip(*found))
    vecs = _gauge_fix(vecs)
    # Canonical merge order: sort by rounded components so clustering is
    # independent of restart and batch order.
    order = np.lexsort(np.round(np.concatenate([vecs.real, vecs.imag], axis=1), 9).T[::-1])
    vecs, res = vecs[order], res[order]
    centers, reps, hits = _cluster(vecs, res, cfg.cluster_tol)

    # A continuum of solutions shows up as centers packed close to the
    # clustering scale; flag it rather than trying to parameterize it.
    center_vecs = vecs[centers]
    dists_sq = np.maximum(2.0 - 2.0 * np.abs(center_vecs @ center_vecs.conj().T), 0.0)
    np.fill_diagonal(dists_sq, np.inf)
    manifold = bool(np.sqrt(dists_sq.min(initial=np.inf)) < 100.0 * cfg.cluster_tol)

    out = vecs[reps]
    out.setflags(write=False)
    return MUVectorSet(pair, tuple(out), tuple(res[reps].tolist()), tuple(hits.tolist()), manifold)


def orthogonality_graph(vectors, tol: Tolerance = DEFAULT_TOL) -> OrthoGraph:
    """Build the graph with edges exactly where |<u|v>| <= ortho_tol."""
    if isinstance(vectors, MUVectorSet):
        vecs = vectors.vectors
    else:
        vecs = tuple(as_vector(v) for v in vectors)
    n = len(vecs)
    if n < 2:
        return OrthoGraph(n, (), None, None)
    stack = np.stack(vecs)
    gram = np.abs(stack.conj() @ stack.T)
    iu = np.triu_indices(n, k=1)
    offdiag = gram[iu]
    edges = tuple(
        (int(i), int(j))
        for i, j in zip(*iu)
        if gram[i, j] <= tol.ortho_tol
    )
    return OrthoGraph(n, edges, float(offdiag.min()), float(offdiag.max()))


def _max_clique(n: int, edges: tuple[tuple[int, int], ...], stop_at: int) -> list[int]:
    """Exact branch-and-bound maximum clique, stopping early at stop_at."""
    neighbors = [set() for _ in range(n)]
    for i, j in edges:
        neighbors[i].add(j)
        neighbors[j].add(i)
    best: list[int] = []

    def extend(current: list[int], candidates: list[int]) -> bool:
        nonlocal best
        if len(current) > len(best):
            best = list(current)
            if len(best) >= stop_at:
                return True
        for pos, node in enumerate(candidates):
            if len(current) + len(candidates) - pos <= len(best):
                return False
            rest = [c for c in candidates[pos + 1 :] if c in neighbors[node]]
            current.append(node)
            if extend(current, rest):
                return True
            current.pop()
        return False

    extend([], list(range(n)))
    return best


def find_extension_basis(
    pair: MUPair, cfg: SearchConfig, tol: Tolerance = DEFAULT_TOL
) -> ExtensionResult:
    """Search for a third basis MU to both members of a pair.

    Finds the MU vectors, builds their orthogonality graph, and runs an exact
    clique search; a clique of size d is returned as a Basis (none otherwise,
    along with the largest clique size found).
    """
    vecset = find_mu_vectors(pair, cfg)
    graph = orthogonality_graph(vecset, tol)
    d = pair.dim
    clique = _max_clique(len(vecset), graph.edges, stop_at=d)
    size = max(len(clique), 1 if len(vecset) else 0)
    basis = None
    if len(clique) >= d:
        basis = Basis(np.column_stack([vecset.vectors[i] for i in clique[:d]]))
    return ExtensionResult(basis, size, vecset, graph)
