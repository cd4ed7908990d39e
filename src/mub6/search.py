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

# Levenberg-Marquardt damping: its starting value, scaled by 0.1 after a step
# that lowers the residual and by 10 after one that does not.
_DAMPING = 1e-3

# find_mu_vectors solves, pulls back and rechecks a round this many restarts
# at a time.
_WIDTH = 4096

# find_mu_vectors solves restarts in rounds that end at _ROUND restarts and
# then at 1.5 times the previous end (2,048, 3,072, 4,608, ...), capped at
# cfg.restarts; a pair with a symmetry besides the identity runs a first round
# of _FIRST restarts before them. It stops after the first round that leaves
# every orbit of clusters with at least _SATURATED hits.
_FIRST = 128
_ROUND = 2048
_SATURATED = 16

# A cluster is completed by the pair's symmetries only when it is isolated:
# the smallest singular value of the phase Jacobian at its representative is
# at least _ISOLATED; the representative first takes _POLISH Gauss-Newton
# steps (_solve at damping 0). A map is a symmetry when |H^dagger M H| lies
# within _SYMMETRY of a permutation matrix; _MATCH is how near two unit-modulus
# ratios must be for the search over row images to keep a branch. A row of
# that search whose candidate branches, times d^2, pass _BRANCHES (16 MiB of
# complex entries) ends it with the identity alone, and the search runs as
# for a pair without symmetries. {I, F_d} for d = 11 to 13 and the 8 x 8
# Sylvester-Hadamard pair, with groups of 1,152 to 21,504 maps, end so; S6
# and F_d up to d = 8 reach a fifth of it, F_9 and F_10 about 60%.
_ISOLATED = 1e-3
_POLISH = 2
_SYMMETRY = 1e-9
_MATCH = 1e-6
_BRANCHES = 1 << 20

# The most (center, column) pairs _near_pairs measures at once, and how many
# tentative centers, the first unclaimed columns, each pass of _cluster takes.
_PAIRS = 1 << 14
_LEADS = 32

# MAX_ITERS caps each restart's Levenberg-Marquardt steps (about 3% of S6
# restarts need more and are rejected), which retires any stall too: damping
# reaches 1e12 only after 15 failed steps in a row; RESIDUAL_TOL is both where
# a restart stops and what it must reach to be accepted; CLUSTER_TOL is a
# cluster's radius up to phase. find_mu_vectors reads them when it runs.
MAX_ITERS = 15
RESIDUAL_TOL = 1e-20
CLUSTER_TOL = 1e-6


@dataclass(frozen=True)
class SearchConfig:
    """Restart cap and seeding of the search.

    Restart k draws its start phases from its own counter blocks of one
    Philox stream keyed by master_seed, so results do not depend on how the
    restarts are batched or on where a round of restarts begins.
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
    positive), each with the best residual seen in its cluster, the number
    of restarts that converged into the cluster (0 for a vector reached only
    through a symmetry) and the index of its orbit, numbered in list order.
    group_order is the number of symmetries of the pair that the search
    used (1 when there were too many to list, see _BRANCHES), restarts_run how
    many restarts the search solved, and saturated whether every orbit had at
    least _SATURATED hits when it stopped.
    """

    pair: MUPair
    vectors: tuple[np.ndarray, ...]
    residuals: tuple[float, ...]
    hits: tuple[int, ...]
    orbits: tuple[int, ...]
    group_order: int
    restarts_run: int
    saturated: bool
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


def _start_phases(master_seed: int, lo: int, hi: int, dim: int) -> np.ndarray:
    """Free start phases phi_1..phi_{d-1} of restarts lo..hi-1 as a
    (dim - 1, hi - lo) array, one column per restart (phi_0 is pinned to 0).

    Each restart reads ceil((d - 1) / 4) counter blocks of four doubles,
    restart k the k-th such run, of one Philox stream keyed by master_seed,
    so it depends only on (master_seed, k).
    """
    blocks = -(-(dim - 1) // 4)
    bits = np.random.Philox(key=master_seed, counter=blocks * lo)
    return 2.0 * np.pi * np.random.Generator(bits).random((hi - lo, 4 * blocks))[:, : dim - 1].T


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


def _jacobian(h_conj: np.ndarray, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The real Jacobian d r_j / d phi_k = 2 Im(H_kj conj(u_k) w_j) of the
    residuals r_j = |w_j|^2 - 1/d for the free phases k = 1..d-1, indexed
    [j, k - 1, column], with u and w = H^dagger u as in _solve."""
    jac = 2.0 * h_conj.T.conj()[:, 1:, None] * u[1:].conj()
    jac *= w[:, None]
    return np.ascontiguousarray(jac.imag)  # a real copy frees the complex products


def _isolation(h_conj: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The smallest singular value of each column's d x (d - 1) Jacobian: a
    solution with a direction in which no residual moves to first order
    (about 1e-6 on a continuum, 0.016 or more at isolated points) has one
    near 0."""
    jac = _jacobian(h_conj, u, _overlaps(u, h_conj))
    return np.linalg.svd(jac.transpose(2, 0, 1), compute_uv=False).min(axis=1, initial=np.inf)


def _damped_step(
    h_conj: np.ndarray, u: np.ndarray, w: np.ndarray, r: np.ndarray, damping: np.ndarray
) -> np.ndarray:
    """The Levenberg-Marquardt step (J^T J + damping I)^{-1} J^T r of each
    restart (column) for its free phases, with u, w and r as in _solve.
    Sums over j run in order, like _sum_rows."""
    free = len(u) - 1
    jac = _jacobian(h_conj, u, w)
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


def _solve(u: np.ndarray, h_conj: np.ndarray, max_iters: int, stop: float, damping: float) -> np.ndarray:
    """Batched Levenberg-Marquardt on the free phases phi_1..phi_{d-1} of the
    (d, n) start points u, one column per restart, with u_0 fixed, driving
    |(H^dagger u)_j|^2 to 1/d from the starting damping given. The d
    residuals sum to zero, so the system is square. The solved points come
    back as a new (d, n) array; u itself may be overwritten. At damping 0
    the damping stays 0 and the steps are Gauss-Newton steps.

    The live restarts form one batch: a tuple of per-restart arrays, one
    column each, holding u, the overlaps w, the deviations r and the residual
    f of the restart's current point, then its index and its damping. Each of
    the max_iters iterations evaluates only its trial and copies it into
    (u, w, r, f) where it is better. A trial turns the phases of u by the LM
    step through _cayley, so |u_k| stays that of the start. A restart retires
    once its residual is <= stop, and its column is written out and dropped;
    the columns still live after the last iteration are written out once
    after it. Every update is elementwise over the restarts, so trajectories
    are identical whatever the batch.
    """
    n = u.shape[1]
    target = 1.0 / len(u)

    def evaluate(u: np.ndarray) -> tuple[np.ndarray, ...]:
        w = _overlaps(u, h_conj)
        f, r = _residual(w, target)
        return u, w, r, f

    batch = evaluate(u) + (np.arange(n), np.full(n, damping))
    out = np.empty_like(u)
    for _ in range(max_iters):
        live = batch[3] > stop
        if not live.all():
            out[:, batch[4][~live]] = batch[0][:, ~live]
            batch = tuple(x[..., live] for x in batch)
            if not live.any():
                break
        u, w, r, f, rows, damping = batch
        step = _damped_step(h_conj, u, w, r, damping)
        # A restart whose factorisation failed keeps its point: a failed step.
        step[:, ~np.isfinite(step).all(axis=0)] = 0.0
        trial = evaluate(_cayley(u, step))
        better = trial[3] < f
        for old, new in zip(batch, trial):
            np.copyto(old, new, where=better)
        # Past the double range (after ~311 failed steps) the damping is inf,
        # whose factorisation fails: the restart keeps its point, as it all
        # but would at any damping that large.
        with np.errstate(over="ignore"):
            damping *= np.where(better, 0.1, 10.0)
    out[:, batch[4]] = batch[0]
    return out


def _solve_phases(phases: np.ndarray, h_conj: np.ndarray, max_iters: int, stop: float) -> np.ndarray:
    """_solve from the start points u = e^{i phi} / sqrt(d) (phi_0 = 0) of
    the (d - 1, n) start phases, at damping _DAMPING."""
    d = len(h_conj)
    u = np.empty((d, phases.shape[1]), dtype=complex)
    u[0] = 1.0 / math.sqrt(d)
    np.exp(1j * phases, out=u[1:])
    u[1:] /= math.sqrt(d)
    return _solve(u, h_conj, max_iters, stop, _DAMPING)


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


def _near_pairs(
    centers: np.ndarray, center_key: np.ndarray, vecs: np.ndarray, key: np.ndarray, order: np.ndarray, radius: float
) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (i, j) of a center, column i of centers, and a column j of
    vecs, listed by i, that lie within radius of each other up to phase.

    Only the columns that order lists, sorted by their keys key[j], are
    measured, and of those only the ones in the center's key window,
    center_key[i] - reach <= key[j] < center_key[i] + reach: by
    Cauchy-Schwarz no other column lies within radius. reach is radius with
    room for overlap rounding (~1e-15), which moves distances by
    ~1e-15 / radius. |<c|v>| sums conj(c_k) v_k in order of k, as _overlaps
    does, so a pair gets the same bits wherever it is measured. At most
    _PAIRS pairs are measured at a time.
    """
    sorted_key, reach = key[order], math.sqrt(radius * radius + 1e-12)
    lo = np.searchsorted(sorted_key, center_key - reach)
    count = np.searchsorted(sorted_key, center_key + reach) - lo
    ends = np.cumsum(count)
    conj = centers.conj()
    near_i, near_j = [np.empty(0, dtype=int)], [np.empty(0, dtype=int)]
    for start in range(0, int(count.sum()), _PAIRS):
        pair = np.arange(start, min(start + _PAIRS, ends[-1]))
        i = np.searchsorted(ends, pair, side="right")
        j = order[lo[i] + pair - ends[i] + count[i]]
        near = 2.0 - 2.0 * np.abs(_sum_rows(conj[:, i] * vecs[:, j])) < radius * radius
        near_i.append(i[near])
        near_j.append(j[near])
    return np.concatenate(near_i), np.concatenate(near_j)


def _cluster(
    clusters: tuple[np.ndarray, ...], vecs: np.ndarray, res: np.ndarray, radius: float
) -> tuple[np.ndarray, ...]:
    """Leader clustering of unit vectors up to global phase, in column order,
    continued from the clusters of earlier columns.

    clusters holds, per earlier cluster, its center and representative (as
    (d, m) columns), the representative's residual and the cluster's hits;
    vecs is (d, n), one further vector per column, with residuals res. The
    same four come back for all the columns: the fresh clustering of vecs is
    the call with m = 0.

    The first unclaimed column c becomes a center and claims every unclaimed
    v whose phase-optimal distance min_theta |c - e^{i theta} v| =
    sqrt(2 - 2 |<c|v>|) is below radius, as _near_pairs screens and measures
    it, by the key |<x|v>| for the unit x with weights 1, 2, ..., d. The
    representative is the member with the best residual, the first on ties.

    The old centers lead the new columns. They lie pairwise outside each
    other's radius, so they stay clusters 0..m-1, in order, and claim first:
    that is the clustering of all the columns seen so far. Each old center
    carries its representative's residual, so a representative moves only to
    a strictly lower new one.

    The centers are settled _LEADS at a time. The first _LEADS unclaimed
    columns are tentative centers, and _near_pairs measures each against
    every unclaimed column at once. In column order, a tentative column is a
    center unless an earlier center of the pass claims it; every other
    column within radius of one of the pass's centers joins the first such
    center. That is what the one-center-at-a-time loop does: an unclaimed
    column before the last tentative one is itself tentative, so no center
    between the pass's ones can claim first.
    """
    old_centers, old_reps, best, old_hits = clusters
    cols, res = np.hstack([old_centers, vecs]), np.concatenate([best, res])
    n = cols.shape[1]
    weights = np.arange(1.0, len(cols) + 1)
    key = np.abs(_overlaps(cols, (weights / np.linalg.norm(weights))[:, None])[0])
    order = np.argsort(key)  # the unclaimed columns, sorted by key
    free = np.arange(n)  # the unclaimed columns, in column order
    owner = np.full(n, n)
    centers = [np.empty(0, dtype=int)]
    while len(free):
        lead = free[:_LEADS]
        i, j = _near_pairs(cols[:, lead], key[lead], cols, key, order, radius)
        # The pairs come by center, so is_center[a] is settled before a's.
        is_center = [True] * len(lead)
        inside = j <= lead[-1]
        for a, b in zip(i[inside].tolist(), np.searchsorted(lead, j[inside]).tolist()):
            if is_center[a] and b > a:
                is_center[b] = False
        is_center = np.array(is_center)
        rank = sum(map(len, centers)) + np.cumsum(is_center) - 1
        claim = is_center[i]
        np.minimum.at(owner, j[claim], rank[i[claim]])
        owner[lead[is_center]] = rank[is_center]
        centers.append(lead[is_center])
        order, free = order[owner[order] == n], free[owner[free] == n]
    by_cluster = np.lexsort((res, owner))
    reps = by_cluster[np.flatnonzero(np.diff(owner[by_cluster], prepend=-1))]
    hits = np.bincount(owner)
    hits[: len(old_hits)] += old_hits - 1
    return cols[:, np.concatenate(centers)], np.hstack([old_reps, vecs])[:, reps], res[reps], hits


def _map_defects(h: np.ndarray, perms: np.ndarray, phases: np.ndarray, conj: np.ndarray) -> np.ndarray:
    """How far each map M, v -> D P v or D P conj(v) with (D P v)_i =
    phases_i v_{perms_i}, is from a symmetry of {I, h}: the largest entry of
    | |h^dagger M h| - Q | for Q the rounding of |h^dagger M h|, or inf where
    Q is not a permutation matrix. h^dagger M h is unitary, so it is
    monomial when the defect is small, and M then maps the columns of h to
    columns of h up to phase, as it maps those of I."""
    mapped = np.where(conj[:, None, None], h.conj()[perms], h[perms]) * phases[:, :, None]
    m = np.abs(h.conj().T @ mapped)
    q = np.round(m)
    permutation = (q.sum(axis=1) == 1).all(axis=1) & (q.sum(axis=2) == 1).all(axis=1)
    return np.where(permutation, np.abs(m - q).max(axis=(1, 2)), np.inf)


def _symmetry_group(h: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The monomial symmetries of the pair {I, h}, h a d x d unitary with
    entries of modulus 1/sqrt(d): the maps v -> D P v and v -> D P conj(v),
    P a permutation and D a diagonal of phases with D_0 = 1, that map the
    columns of h to columns of h up to phase. They map the vectors MU to the
    pair onto themselves. The g-th map is the triple (perms[g], phases[g],
    conj[g]), (D P v)_i = phases_i v_{perms_i}, each with a _map_defects
    value of at most _SYMMETRY; the identity is always one, and the only one
    when the search would hold more than _BRANCHES entries at once.

    A search over row images, a row at a time, over every (conjugate,
    perms_0) at once: a map sends column j of the source s (h or conj(h)) to
    column tau(j) of h times a phase exactly when, with every column divided
    by its row-0 entry, source column j reads as target column tau(j) in
    every row. Row r of a branch takes an unused source row and the phase
    D_r that sends source column 0 into a target column of its class, and
    survives when the source columns, read down to row r, match the target
    columns as a multiset; a class is the set of target columns that agree
    down to the previous row, labelled by its first column. A branch thus
    dies once rows 0 and 1 fail to carry the same multiset of column ratios
    up to one phase, and no search lists all d! permutations.
    """
    d = len(h)
    target = h / h[0]
    source = np.stack([h, h.conj()])
    quot = source[:, None] / source[:, :, None]  # [c, s0, s, j] = s_sj / s_s0j, turned so that j = 0 reads 1
    quot /= quot[..., :1]
    conj = np.repeat([0, 1], d)
    perms = np.tile(np.arange(d), 2)[:, None]
    phases = np.ones((2 * d, 1), dtype=complex)
    labels = np.zeros((2 * d, d), dtype=int)  # each source column's class
    cls = np.zeros(d, dtype=int)  # each target column's class
    for r in range(1, d):
        row = target[r]
        value = (np.abs(row[:, None] - row) < _MATCH).argmax(axis=1)  # the first column of equal entry
        key = cls * d + value
        refined = (key[:, None] == key).argmax(axis=1)
        refine = np.full(d * d, -1)
        refine[key] = refined
        free = np.ones((len(conj), d), dtype=bool)
        free[np.arange(len(conj))[:, None], perms] = False
        # Column 0 goes to the first column of a refined class inside its class.
        lead = (cls == labels[:, :1]) & (refined == np.arange(d))
        b, s, t = np.nonzero(free[:, :, None] & lead[:, None, :])
        if len(b) * d * d > _BRANCHES:
            return np.arange(d)[None], np.ones((1, d), dtype=complex), np.zeros(1, dtype=bool)
        near = np.abs((row[t, None] * quot[conj[b], perms[b, 0], s])[:, :, None] - row) < _MATCH
        moved = np.where(near.any(axis=2), refine[labels[b] * d + value[near.argmax(axis=2)]], -1)
        ok = (moved >= 0).all(axis=1) & (np.sort(moved, axis=1) == np.sort(refined)).all(axis=1)
        b, s, t, labels, cls = b[ok], s[ok], t[ok], moved[ok], refined
        conj = conj[b]
        perms = np.column_stack([perms[b], s])
        phases = np.column_stack([phases[b], row[t] * source[conj, perms[:, 0], 0] / source[conj, s, 0]])
    keep = _map_defects(h, perms, phases, conj) <= _SYMMETRY
    return perms[keep], phases[keep], conj[keep] == 1


def _accepted(v: np.ndarray, basis_conj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The columns of v, with their residuals, whose residual is at most
    RESIDUAL_TOL and whose independent _recheck is at most 10 RESIDUAL_TOL."""
    target = 1.0 / len(v)
    f, _ = _residual(_overlaps(v, basis_conj), target)
    keep = f <= RESIDUAL_TOL
    keep[keep] = _recheck(v.T[keep], basis_conj, target) <= 10.0 * RESIDUAL_TOL
    return v[:, keep], f[keep]


def _complete(
    clusters: tuple[np.ndarray, ...], orbit: np.ndarray, group: tuple[np.ndarray, ...], a: np.ndarray,
    h_conj: np.ndarray, basis_conj: np.ndarray
) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Give every cluster without an orbit index one, completing its orbit.

    orbit holds the orbit index of each earlier cluster; the clusters after
    it are new. If the group is more than the identity, each new isolated
    cluster that no earlier one of them reached opens an orbit, in cluster
    order: its representative is taken to the {I, H} frame (u = A^dagger v),
    polished by _POLISH undamped steps of _solve, so that its images are as
    accurate as the best restarts, mapped by every symmetry and pulled back,
    and the images that pass a solved restart's gate (_accepted) are
    clustered after all the clusters.
    Every cluster without an index that they reach or open joins the orbit.
    Any other new cluster is an orbit of its own. An orbit's index is the
    index of the cluster that opened it. Images are not restarts: the hits
    stay as they were, 0 for a cluster that only images reached.
    """
    perms, phases, conj = group
    orbit = np.pad(orbit, (0, len(clusters[3]) - len(orbit)), constant_values=-1)
    new = np.flatnonzero(orbit < 0)
    if len(perms) > 1 and len(new):
        u = a.conj().T @ clusters[1][:, new]
        isolated = _isolation(h_conj, u) >= _ISOLATED
        for c, uc in zip(new[isolated].tolist(), u[:, isolated].T):
            if orbit[c] >= 0:
                continue
            uc = _solve(uc[:, None], h_conj, _POLISH, 0.0, 0.0)[:, 0]
            images = phases * np.where(conj[:, None], uc.conj()[perms], uc[perms])
            hits = clusters[3]
            clusters = _cluster(clusters, *_accepted(_overlaps(images.T, a.T), basis_conj), CLUSTER_TOL)
            hits = np.pad(hits, (0, len(clusters[3]) - len(hits)))
            orbit = np.pad(orbit, (0, len(hits) - len(orbit)), constant_values=-1)
            orbit[(clusters[3] > hits) & (orbit < 0)] = c
            clusters = clusters[:3] + (hits,)
    alone = np.flatnonzero(orbit < 0)
    orbit[alone] = alone
    return clusters, orbit


def find_mu_vectors(pair: MUPair, cfg: SearchConfig, _chunk: int = _WIDTH) -> MUVectorSet:
    """Collect and cluster all vectors found MU to a pair.

    Maps the pair {A, B} to {I, H} with H = A^dagger B, where a vector MU to
    I is u = e^{i phi} / sqrt(d) with phi_0 = 0 pinned. Runs independent
    seeded solves for the d - 1 free phases in rounds that end at _ROUND,
    1.5 _ROUND, 2.25 _ROUND, ... restarts, after a first round of _FIRST when
    the pair has a symmetry besides the identity, capped at cfg.restarts.
    Each round pulls its solutions back as v = A u, keeps those with residual
    <= RESIDUAL_TOL that also pass an independently accumulated re-check, and
    clusters them up to global phase after those of earlier rounds, in
    restart order. _complete then maps each new orbit's first isolated
    cluster by the symmetries, so the clusters come in orbits. The search
    stops after the first round that leaves every orbit with _SATURATED hits,
    or at the cap. The gauge-fixed representatives are listed by their
    rounded components.

    The round ends do not depend on the cap, so a search that stops after N
    restarts equals, bit for bit, one capped at N. Deterministic for a given
    (pair, cfg); _chunk only controls batching and never the result.
    """
    d = pair.dim
    a = pair.first.matrix
    h_conj = a.T @ pair.second.matrix.conj()
    basis_conj = pair.basis_vectors().conj()
    group = _symmetry_group(h_conj.conj())

    # numpy raises ValueError, not MemoryError, for an array whose size in
    # bytes its index type cannot hold; a cap whose round's accepted vectors,
    # up to (d, cap) complex, it could not address is refused before any round.
    if d * cfg.restarts * np.dtype(complex).itemsize > np.iinfo(np.intp).max:
        raise MemoryError(f"{cfg.restarts} restarts need more memory than numpy can address")
    empty = np.empty((d, 0), dtype=complex)
    clusters, orbit = (empty, empty, np.empty(0), np.empty(0, dtype=int)), np.empty(0, dtype=int)
    lo, hi = 0, min(_FIRST if len(group[0]) > 1 else _ROUND, cfg.restarts)
    while True:
        # Solve, pull back, residual and recheck the round a chunk at a time.
        vecs, res = [], []
        for c in range(lo, hi, _chunk):
            phases = _start_phases(cfg.master_seed, c, min(c + _chunk, hi), d)
            v, f = _accepted(_overlaps(_solve_phases(phases, h_conj, MAX_ITERS, RESIDUAL_TOL), a.T), basis_conj)
            vecs.append(v)
            res.append(f)
        clusters = _cluster(clusters, np.hstack(vecs), np.concatenate(res), CLUSTER_TOL)
        clusters, orbit = _complete(clusters, orbit, group, a, h_conj, basis_conj)
        centers, reps, best, hits = clusters
        saturated = bool(hits.size) and bool(np.bincount(orbit, weights=hits)[orbit].min() >= _SATURATED)
        if saturated or hi == cfg.restarts:
            break
        lo, hi = hi, min(max(hi + hi // 2, _ROUND), cfg.restarts)

    # A continuum of solutions shows up as centers packed close to the
    # clustering scale; flag it rather than trying to parameterize it.
    center_vecs = centers.T
    dists_sq = np.maximum(2.0 - 2.0 * np.abs(center_vecs @ center_vecs.conj().T), 0.0)
    np.fill_diagonal(dists_sq, np.inf)
    manifold = bool(np.sqrt(dists_sq.min(initial=np.inf)) < 100.0 * CLUSTER_TOL)

    out = _gauge_fix(reps.T)
    order = np.lexsort(np.round(np.concatenate([out.real, out.imag], axis=1), 9).T[::-1])
    out = out[order]
    out.setflags(write=False)
    # Orbits are numbered by their first vector in the list.
    _, first, orbit = np.unique(orbit[order], return_index=True, return_inverse=True)
    orbits = tuple(np.argsort(np.argsort(first))[orbit].tolist())
    return MUVectorSet(
        pair, tuple(out), tuple(best[order].tolist()), tuple(hits[order].tolist()), orbits, len(group[0]), hi,
        saturated, manifold
    )


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
