"""Numerical search for unit vectors mutually unbiased to both members of a
pair, clustering up to global phase, orthogonality graphs, and clique search
for extension bases."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bases import Basis, MUPair
from .errors import DimensionError, FormatError, ParameterRangeError
from .linalg import ORTHO_TOL, _is_unit, _numbers, as_vector

# Levenberg-Marquardt damping: its starting value, and the value past which a
# restart whose steps keep failing is given up as stalled.
_DAMPING = 1e-3
_DAMPING_CAP = 1e12

# The most restarts the solver keeps live at once.
_WIDTH = 4096

# MAX_ITERS caps the Levenberg-Marquardt steps each restart takes;
# RESIDUAL_TOL is both where a restart stops and what it must reach to be
# accepted; CLUSTER_TOL is a cluster's radius up to phase. find_mu_vectors
# reads them when it runs.
MAX_ITERS = 2000
RESIDUAL_TOL = 1e-20
CLUSTER_TOL = 1e-6


@dataclass(frozen=True)
class SearchConfig:
    """Restart budget and seeding of the search.

    Restart k draws its start phases from its own counter blocks of one
    Philox stream keyed by master_seed, so results do not depend on how
    restarts are batched or scheduled.
    """

    restarts: int = 20000
    master_seed: int = 0

    def __post_init__(self) -> None:
        for name in ("restarts", "master_seed"):
            value = getattr(self, name)
            number = _numbers((value,), (int, np.integer), int)
            if number is None:
                raise ParameterRangeError(f"{name} must be an integer in double range, got {type(value).__name__}")
            object.__setattr__(self, name, number[0])
        if self.restarts < 1:
            raise ParameterRangeError("restarts must be at least 1")
        if not 0 <= self.master_seed < 2**128:
            raise ParameterRangeError("master_seed must lie in [0, 2**128)")


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
    """Orthogonality graph on MU vectors: an edge where |<u|v>| <= ORTHO_TOL."""

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


def _overlaps(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Products m^T v for vectors laid out component-major (v is (d, n), one
    column per vector), accumulated in a fixed order over the d components so
    results do not depend on the batch size. With m the conjugated basis
    vectors these are the overlaps <b|v>, one row per basis vector."""
    out = m[0, :, None] * v[0]
    for i in range(1, m.shape[0]):
        out += m[i, :, None] * v[i]
    return out


def _sum_rows(terms: np.ndarray) -> np.ndarray:
    """terms[0] + terms[1] + ... added elementwise in that order, so each
    column gets the same arithmetic whatever the layout and the batch size;
    np.sum and np.einsum choose their summation order from shapes and strides,
    and a one-column batch can get another one."""
    out = terms[0].copy()
    for term in terms[1:]:
        out += term
    return out


def _residual(overlaps: np.ndarray, target: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-column sum of (|<b|v>|^2 - target)^2 over component-major overlaps,
    with the deviations inside it."""
    devs = np.square(np.abs(overlaps))
    devs -= target
    return _sum_rows(devs * devs), devs


def _recheck(v: np.ndarray, basis_conj: np.ndarray, target: float) -> np.ndarray:
    """Per-row residuals accumulated independently of _overlaps and _residual:
    components and basis vectors both in reverse order, |<b|v>|^2 as
    re^2 + im^2, and elementwise numpy only (no BLAS, whose blocking can vary
    with the batch size)."""
    ip = sum(v[:, i, None] * basis_conj[i, ::-1] for i in reversed(range(v.shape[1])))
    devs = ip.real * ip.real + ip.imag * ip.imag - target
    return sum(devs.T * devs.T)


def _start_phases(master_seed: int, n: int, dim: int) -> np.ndarray:
    """Free start phases phi_1..phi_{d-1} of restarts 0..n-1 as a
    (dim - 1, n) array, one column per restart (phi_0 is pinned to 0).

    Each restart reads ceil((d - 1) / 4) counter blocks of four doubles,
    restart k the k-th such run, of one Philox stream keyed by master_seed,
    so it depends only on (master_seed, k).
    """
    blocks = -(-(dim - 1) // 4)
    draws = np.random.Generator(np.random.Philox(key=master_seed)).random((n, 4 * blocks))
    return 2.0 * np.pi * draws[:, : dim - 1].T


def _spd_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a batch of symmetric positive definite systems a x = b laid out
    component-major: a is (n, n, m), of which only the lower triangle is read,
    and b and the returned x are (n, m).

    An unrolled, unpivoted Cholesky factorisation a = L L^T, then forward and
    back substitution, all elementwise over the m systems (no BLAS or LAPACK),
    so each system gets the same arithmetic whatever the batch. A system with
    a pivot that is not positive and finite gets an all-NaN x and raises no
    warning.
    """
    n = len(b)
    low = np.empty_like(a)
    x = b.copy()
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for j in range(n):
            col = a[j:, j]
            for k in range(j):
                col = col - low[j:, k] * low[j, k]
            np.sqrt(col[0], out=low[j, j])
            np.divide(col[1:], low[j, j], out=low[j + 1 :, j])
        for k in range(n):
            x[k] /= low[k, k]
            x[k + 1 :] -= low[k + 1 :, k] * x[k]
        for k in reversed(range(n)):
            x[k] /= low[k, k]
            x[:k] -= low[k, :k] * x[k]
        pivots = np.diagonal(low, axis1=0, axis2=1)
        x[:, ~((pivots > 0.0) & (pivots < np.inf)).all(axis=1)] = np.nan
    return x


def _damped_step(
    h_conj: np.ndarray, u: np.ndarray, w: np.ndarray, r: np.ndarray, damping: np.ndarray
) -> np.ndarray:
    """The Levenberg-Marquardt step (J^T J + damping I)^{-1} J^T r of each
    restart (column) for its free phases, with u, w and r as in _solve_phases.
    Sums over j run in order, like _sum_rows."""
    free = len(u) - 1
    # d r_j / d phi_k = 2 Im(H_kj conj(u_k) w_j) for k = 1..d-1, indexed [j, k - 1].
    jac = 2.0 * h_conj.T.conj()[:, 1:, None] * u[1:].conj()
    jac *= w[:, None]
    jac = np.ascontiguousarray(jac.imag)  # a real copy frees the complex products
    # The damped lower triangle of J^T J, a row at a time, over the residuals j.
    jtj = np.empty((free, free, len(damping)))
    for k in range(free):
        row = jtj[k, : k + 1]
        np.multiply(jac[0, : k + 1], jac[0, k], out=row)
        for j in range(1, len(w)):
            row += jac[j, : k + 1] * jac[j, k]
        row[k] += damping
    return _spd_solve(jtj, _sum_rows(jac * r[:, None]))


def _cayley(u: np.ndarray, step: np.ndarray) -> np.ndarray:
    """u with each free component u_k (k >= 1) turned by the Cayley factor
    (1 - i s/2) / (1 + i s/2) of its step s, in real arithmetic.

    The factor has unit modulus and is exactly 1 at s = 0, so a zero step
    leaves u unchanged bit for bit. It turns the phase by -2 atan(s/2), which
    agrees with the step -s to second order, and needs no trigonometric call.
    """
    sq = 0.25 * step * step
    den = 1.0 + sq
    cos = (1.0 - sq) / den
    sin = step / den
    re, im = u[1:].real, u[1:].imag
    out = np.empty_like(u)
    out[0] = u[0]
    out[1:].real = re * cos + im * sin
    out[1:].imag = im * cos - re * sin
    return out


def _solve_phases(
    phases: np.ndarray, h_conj: np.ndarray, max_iters: int, stop: float, width: int = _WIDTH
) -> np.ndarray:
    """Batched Levenberg-Marquardt on the free phases phi_1..phi_{d-1} of
    u = e^{i phi} / sqrt(d) (phi_0 = 0), driving |(H^dagger u)_j|^2 to 1/d.

    phases holds the (d - 1, n) start phases and the returned u is (d, n), one
    column per restart. The d residuals sum to zero, so the system is square.

    At most width restarts are live at once, as one batch: a tuple of
    per-restart arrays, one column each, holding u, the overlaps w, the
    deviations r and the residual f of the restart's current point, then its
    index, its damping and its step count. An iteration evaluates only its
    trial and copies it into (u, w, r, f) where it is better. A trial turns
    the phases of u by the LM step through _cayley, so u is built from the
    start phases once. A restart retires once its residual is <= stop, its
    damping passes _DAMPING_CAP or it has taken max_iters steps, and its
    column is refilled with the next pending restart. Every update is
    elementwise over the restarts, so trajectories are identical whatever the
    width.
    """
    d = len(h_conj)
    n = phases.shape[1]
    target = 1.0 / d

    def evaluate(u: np.ndarray) -> tuple[np.ndarray, ...]:
        w = _overlaps(u, h_conj)
        f, r = _residual(w, target)
        return u, w, r, f

    def start(lo: int, hi: int) -> tuple[np.ndarray, ...]:
        u = np.empty((d, hi - lo), dtype=complex)
        u[0] = 1.0 / math.sqrt(d)
        np.exp(1j * phases[:, lo:hi], out=u[1:])
        u[1:] /= math.sqrt(d)
        return evaluate(u) + (np.arange(lo, hi), np.full(hi - lo, _DAMPING), np.zeros(hi - lo, dtype=int))

    admitted = min(width, n)
    batch = start(0, admitted)
    out = np.empty((d, n), dtype=complex)
    while batch[4].size:
        u, w, r, f, rows, damping, steps = batch
        live = (f > stop) & (damping < _DAMPING_CAP) & (steps < max_iters)
        if not live.all():
            dead = np.flatnonzero(~live)
            out[:, rows[dead]] = u[:, dead]
            # Refill the first k retired columns with the next pending restarts.
            k = min(dead.size, n - admitted)
            for old, new in zip(batch, start(admitted, admitted + k)):
                old[..., dead[:k]] = new
            admitted += k
            if k < dead.size:
                keep = np.ones(rows.size, dtype=bool)
                keep[dead[k:]] = False
                batch = tuple(x[..., keep] for x in batch)
            # A refilled restart may already be done: check again before stepping.
            continue
        step = _damped_step(h_conj, u, w, r, damping)
        # A restart whose factorisation failed keeps its point: a failed step.
        step[:, ~np.isfinite(step).all(axis=0)] = 0.0
        trial = evaluate(_cayley(u, step))
        better = trial[3] < f
        for old, new in zip(batch, trial):
            np.copyto(old, new, where=better)
        damping *= np.where(better, 0.1, 10.0)
        steps += 1
    return out


def _gauge_fix(v: np.ndarray) -> np.ndarray:
    """Make the first component of largest modulus of each row real positive,
    the output convention of reported vectors (the clusters do not use it).

    Moduli are rounded before the argmax so that near-ties (exact for MU
    vectors against the standard basis) resolve to the first index. The pivot's
    modulus is np.hypot, as the scalar abs() gives it; numpy's vectorised
    complex abs can differ in the last bit.
    """
    pivot = v[np.arange(len(v)), np.argmax(np.round(np.abs(v), 6), axis=1)]
    return v * (pivot / np.hypot(pivot.real, pivot.imag)).conj()[:, None]


def _cluster(vecs: np.ndarray, res: np.ndarray, radius: float) -> tuple[np.ndarray, ...]:
    """Leader clustering of unit vectors up to global phase, in column order.

    vecs is (d, n), one vector per column. The first unclaimed column c becomes
    a center and claims every unclaimed v whose phase-optimal distance
    min_theta |c - e^{i theta} v| = sqrt(2 - 2 |<c|v>|) is below radius. Only
    columns whose key |<x|v>|, for one fixed unit x, lies within radius of c's
    (plus room for rounding) are measured: by Cauchy-Schwarz the keys differ
    by at most that distance. Returns the center columns, the representative
    columns (best residual, the first on ties) and each cluster's hits.
    """
    weights = np.arange(1.0, len(vecs) + 1)
    key = np.abs(_overlaps(vecs, (weights / np.linalg.norm(weights))[:, None])[0])
    order = np.argsort(key)
    sorted_key = key[order]
    # Room for overlap rounding (~1e-15), which moves distances by ~1e-15 / radius.
    reach = math.sqrt(radius * radius + 1e-12)
    owner = np.full(vecs.shape[1], -1)
    centers: list[int] = []
    c = 0
    while c < len(owner):
        lo, hi = np.searchsorted(sorted_key, (key[c] - reach, key[c] + reach))
        cand = order[lo:hi]
        cand = cand[owner[cand] < 0]
        overlap = np.abs(_overlaps(vecs[:, cand], vecs[:, c, None].conj())[0])
        owner[cand[2.0 - 2.0 * overlap < radius * radius]] = owner[c] = len(centers)
        centers.append(c)
        # The next center is the first unclaimed column after c (none: stop).
        c += 1 + np.argmax(np.append(owner[c + 1 :] < 0, True))
    by_cluster = np.lexsort((res, owner))
    reps = by_cluster[np.flatnonzero(np.diff(owner[by_cluster], prepend=-1))]
    return np.array(centers, dtype=int), reps, np.bincount(owner)


def find_mu_vectors(pair: MUPair, cfg: SearchConfig, _chunk: int = _WIDTH) -> MUVectorSet:
    """Collect and cluster all vectors found MU to a pair.

    Maps the pair {A, B} to {I, H} with H = A^dagger B, where a vector MU to
    I is u = e^{i phi} / sqrt(d) with phi_0 = 0 pinned. Runs cfg.restarts
    independent seeded solves for the d - 1 free phases, pulls each back as
    v = A u, keeps solutions with residual <= RESIDUAL_TOL that also
    pass an independently accumulated re-check, clusters the survivors up to
    global phase in restart order, and lists the gauge-fixed representatives
    by their rounded components. Deterministic for a given (pair, cfg);
    _chunk only controls batching and never the result.
    """
    d = pair.dim
    a = pair.first.matrix
    h_conj = a.T @ pair.second.matrix.conj()
    basis_conj = pair.basis_vectors().conj()
    target = 1.0 / d

    # numpy raises ValueError, not MemoryError, for an array whose size in
    # bytes its index type cannot hold; the (d, restarts) complex solver
    # output is the largest array of the search.
    if d * cfg.restarts * np.dtype(complex).itemsize > np.iinfo(np.intp).max:
        raise MemoryError(f"{cfg.restarts} restarts need more memory than numpy can address")
    phases = _start_phases(cfg.master_seed, cfg.restarts, d)
    found = _solve_phases(phases, h_conj, MAX_ITERS, RESIDUAL_TOL, _chunk)
    # Pull back, residual and recheck a chunk at a time, moving the accepted
    # rows to the front of the solver's output.
    res = np.empty(cfg.restarts)
    kept = 0
    for lo in range(0, cfg.restarts, _chunk):
        v = _overlaps(found[:, lo : lo + _chunk], a.T)
        f, _ = _residual(_overlaps(v, basis_conj), target)
        keep = f <= RESIDUAL_TOL
        keep[keep] = _recheck(v.T[keep], basis_conj, target) <= 10.0 * RESIDUAL_TOL
        k = np.count_nonzero(keep)
        found[:, kept : kept + k] = v[:, keep]
        res[kept : kept + k] = f[keep]
        kept += k
    vecs, res = found[:, :kept], res[:kept]
    centers, reps, hits = _cluster(vecs, res, CLUSTER_TOL)

    # A continuum of solutions shows up as centers packed close to the
    # clustering scale; flag it rather than trying to parameterize it.
    center_vecs = vecs[:, centers].T
    dists_sq = np.maximum(2.0 - 2.0 * np.abs(center_vecs @ center_vecs.conj().T), 0.0)
    np.fill_diagonal(dists_sq, np.inf)
    manifold = bool(np.sqrt(dists_sq.min(initial=np.inf)) < 100.0 * CLUSTER_TOL)

    out = _gauge_fix(vecs[:, reps].T)
    order = np.lexsort(np.round(np.concatenate([out.real, out.imag], axis=1), 9).T[::-1])
    out, reps = out[order], reps[order]
    out.setflags(write=False)
    return MUVectorSet(pair, tuple(out), tuple(res[reps].tolist()), tuple(hits[order].tolist()), manifold)


def orthogonality_graph(vectors) -> OrthoGraph:
    """Build the graph with edges exactly where |<u|v>| <= ORTHO_TOL, which
    only means orthogonal for unit vectors: any other raises FormatError."""
    if isinstance(vectors, MUVectorSet):
        vecs = vectors.vectors
    else:
        vecs = tuple(as_vector(v) for v in vectors)
        if len({vec.shape for vec in vecs}) > 1:
            raise DimensionError("vectors of different dimensions")
        for k, vec in enumerate(vecs):
            if not _is_unit(vec):
                raise FormatError(f"vector {k} does not have norm 1 within EQ_TOL")
    n = len(vecs)
    if n < 2:
        return OrthoGraph(n, (), None, None)
    stack = np.stack(vecs)
    gram = np.abs(stack.conj() @ stack.T)
    iu = np.triu_indices(n, k=1)
    offdiag = gram[iu]
    near = offdiag <= ORTHO_TOL
    edges = tuple(zip(iu[0][near].tolist(), iu[1][near].tolist()))
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


def find_extension_basis(pair: MUPair, cfg: SearchConfig) -> ExtensionResult:
    """Search for a third basis MU to both members of a pair.

    Finds the MU vectors, builds their orthogonality graph, and runs an exact
    clique search; a clique of size d is returned as a Basis (none otherwise,
    along with the largest clique size found).
    """
    vecset = find_mu_vectors(pair, cfg)
    graph = orthogonality_graph(vecset)
    d = pair.dim
    clique = _max_clique(len(vecset), graph.edges, stop_at=d)
    basis = Basis(np.column_stack([vecset.vectors[i] for i in clique])) if len(clique) == d else None
    return ExtensionResult(basis, len(clique), vecset, graph)
