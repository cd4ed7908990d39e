"""Elementary equivalence moves on pairs of bases, dephased canonical forms,
Haagerup fingerprints, and the reduction pipelines that bring the P0..P3
families to the standard forms {I, F(xi, eta)} and {I, S6}."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .bases import Basis, MUPair, hw_eigenbasis, is_mu_pair, same_basis_up_to_phase
from .errors import DimensionError, FormatError, InvalidMoveError, NotHadamardError
from .families import make_family_pair, make_Ftilde, make_S, FamilyParams
from .linalg import EQ_TOL, OMEGA2, _numbers, _quote, as_matrix, is_unitary


# The fields each move kind takes besides its kind.
_KIND_FIELDS = {
    "permute-rows": {"perm"},
    "permute-cols": {"member", "perm"},
    "left-diag-phase": {"phases"},
    "right-diag-phase": {"member", "phases"},
    "left-unitary": {"matrix"},
    "conjugate-both": set(),
    "swap-members": set(),
}


@dataclass(frozen=True)
class Move:
    """One elementary equivalence move on a pair of bases.

    Permutations are stored 0-based with the convention new[i] = old[perm[i]]
    (serialization uses 1-based indices). Phases are radians. Member-scoped
    moves ("permute-cols", "right-diag-phase") carry member "first" or
    "second"; row operations and left multiplications act on both members.
    A move is checked once, when it is built; apply_script adds only its size
    against the pair's dimension and the MU check after it. Fields are plain
    tuples, a matrix a tuple of row tuples of complex numbers, so moves compare
    and hash by value, entries by ==. A script is a tuple of moves.
    """

    kind: str
    member: str | None = None
    perm: tuple[int, ...] | None = None
    phases: tuple[float, ...] | None = None
    matrix: tuple[tuple[complex, ...], ...] | None = None

    def __post_init__(self) -> None:
        try:
            fields = _KIND_FIELDS[self.kind]
        except (KeyError, TypeError):
            raise InvalidMoveError(f"unknown move kind {_quote(str(self.kind))}") from None
        given = {name for name in ("member", "perm", "phases", "matrix") if getattr(self, name) is not None}
        if given != fields:
            raise InvalidMoveError(f"move {self.kind} takes the fields {sorted(fields)}, got {sorted(given)}")
        if "member" in fields and self.member not in ("first", "second"):
            raise InvalidMoveError(f"move {self.kind} needs member 'first' or 'second'")
        if self.perm is not None:
            perm = _numbers(self.perm, (int, np.integer), int)
            if perm is None or sorted(perm) != list(range(len(perm))):
                raise InvalidMoveError(f"move {self.kind} needs perm as a permutation of the integers 0..n-1")
            object.__setattr__(self, "perm", perm)
        if self.phases is not None:
            phases = _numbers(self.phases, (int, float, np.integer, np.floating), float)
            if phases is None or not all(map(math.isfinite, phases)):
                raise InvalidMoveError(f"move {self.kind} needs phases as a sequence of finite numbers")
            object.__setattr__(self, "phases", phases)
        if self.matrix is not None:
            rows = np.asarray(self.matrix, dtype=object)
            entries = _numbers(rows.flat, (int, float, complex, np.number), complex)
            matrix = None if entries is None else np.array(entries, dtype=complex).reshape(rows.shape)
            try:
                unitary = matrix is not None and is_unitary(matrix)
            except (DimensionError, FormatError):
                unitary = False
            if not unitary:
                raise InvalidMoveError("left-unitary needs a square matrix of numbers, unitary within EQ_TOL")
            object.__setattr__(self, "matrix", tuple(map(tuple, matrix.tolist())))


def _apply_raw(m1: np.ndarray, m2: np.ndarray, move: Move) -> tuple[np.ndarray, np.ndarray]:
    d = m1.shape[0]
    for payload in (move.perm, move.phases, move.matrix):
        if payload is not None and len(payload) != d:
            raise InvalidMoveError(f"move {move.kind} has size {len(payload)}, the pair dimension {d}")
    kind = move.kind
    if kind == "permute-rows":
        p = np.asarray(move.perm)
        return m1[p, :], m2[p, :]
    if kind == "left-diag-phase":
        lam = np.exp(1j * np.asarray(move.phases))
        return lam[:, None] * m1, lam[:, None] * m2
    if kind == "left-unitary":
        u = np.array(move.matrix)
        return u @ m1, u @ m2
    if kind == "conjugate-both":
        return m1.conj(), m2.conj()
    if kind == "swap-members":
        return m2, m1
    # permute-cols or right-diag-phase: a column move on one member.
    m = m1 if move.member == "first" else m2
    if kind == "permute-cols":
        m = m[:, np.asarray(move.perm)]
    else:
        m = m * np.exp(1j * np.asarray(move.phases))[None, :]
    return (m, m2) if move.member == "first" else (m1, m)


def apply_script(pair: MUPair, script: Sequence[Move]) -> MUPair:
    """Replay a script on a pair, checking after every move that the pair
    stays mutually unbiased within MU_TOL."""
    m1, m2 = pair.first.matrix, pair.second.matrix
    for idx, move in enumerate(script):
        m1, m2 = _apply_raw(m1, m2, move)
        check = is_mu_pair(m1, m2)
        if not check.ok:
            raise InvalidMoveError(
                f"move {idx} ({move.kind}) broke mutual unbiasedness: "
                f"deviation {check.worst_deviation:.3e}"
            )
    return MUPair(Basis(m1), Basis(m2))


def _assert_hadamard(h: np.ndarray) -> int:
    d = h.shape[0]
    if h.shape[0] != h.shape[1]:
        raise NotHadamardError(f"Hadamard check needs a square matrix, got {h.shape}")
    target = 1.0 / np.sqrt(d)
    dev = np.abs(np.abs(h) - target)
    if float(dev.max()) > EQ_TOL:
        i, j = np.unravel_index(int(dev.argmax()), dev.shape)
        raise NotHadamardError(
            f"entry modulus at ({i}, {j}) deviates from 1/sqrt({d}) by {dev[i, j]:.3e}"
        )
    return d


def _replay(m1: np.ndarray, m2: np.ndarray, moves) -> tuple[np.ndarray, np.ndarray]:
    """The pair (m1, m2) after the moves, unchecked."""
    for move in moves:
        m1, m2 = _apply_raw(m1, m2, move)
    return m1, m2


def dephase(h) -> tuple[np.ndarray, tuple[Move, ...]]:
    """Normalize a Hadamard so its first row and column are real positive.

    Returns the dephased matrix and a script that, applied to the pair
    {I, H}, yields {I, dephased H}: column phases on the second member, row
    phases on both, and the column phases that restore the first member. The
    matrix is the second member of that replay.
    """
    m = as_matrix(h)
    eye = np.eye(_assert_hadamard(m), dtype=np.complex128)
    cols = Move("right-diag-phase", "second", phases=-np.angle(m[0, :]))
    eye, m = _apply_raw(eye, m, cols)
    row_angles = -np.angle(m[:, 0])
    rows = (
        Move("left-diag-phase", phases=row_angles),
        Move("right-diag-phase", "first", phases=-row_angles),
    )
    return _replay(eye, m, rows)[1], (cols, *rows)


def _restore_first_moves(m1: np.ndarray) -> tuple[Move, ...]:
    """Column moves turning a monomial first member back into the identity.

    The member must equal the identity basis up to column order and phases;
    the witness from same_basis_up_to_phase supplies the permutation and the
    phases to undo. Identity permutations and all-zero phase lists are
    omitted from the emitted moves.
    """
    d = m1.shape[0]
    witness = same_basis_up_to_phase(m1, np.eye(d, dtype=np.complex128))
    if witness is None:
        raise InvalidMoveError("first member is not the identity basis up to column phases")
    # m1[:, k] = e^{i theta_k} e_{pi(k)}; putting column sigma(i) at slot i
    # with sigma = pi^{-1} leaves diag phases, undone by their conjugates.
    sigma = np.argsort(witness.permutation)
    moves: list[Move] = []
    if (sigma != np.arange(d)).any():
        moves.append(Move("permute-cols", "first", perm=sigma))
    undo = -np.asarray(witness.phases)[sigma]
    if np.abs(undo).max() > 1e-15:
        moves.append(Move("right-diag-phase", "first", phases=undo))
    return tuple(moves)


def reduce_P1(xi: float, eta: float) -> tuple[MUPair, tuple[Move, ...]]:
    """Bring the P1 pair {I, Ftilde(xi,eta)^T} to the form {I, Ftilde(xi,eta)}.

    Three moves: left-multiply by the adjoint of the second member, conjugate
    the pair, swap the members.
    """
    pair = make_family_pair("P1", FamilyParams(xi=xi, eta=eta))
    script = (
        Move("left-unitary", matrix=pair.second.matrix.conj().T),
        Move("conjugate-both"),
        Move("swap-members"),
    )
    return apply_script(pair, script), script


# Row and column permutations taking Ftilde(xi, eta) to the Fourier family
# F(xi, eta): swap rows 2 and 5 (1-based), then fill columns 2,3,5,6 with the
# old columns 6,2,3,5. At (0, 0) the result is exactly the 6x6 Fourier matrix.
_FOURIER_ROW_PERM = (0, 4, 2, 3, 1, 5)
_FOURIER_COL_PERM = (0, 5, 1, 3, 2, 4)


def ftilde_to_fourier(xi: float, eta: float) -> tuple[np.ndarray, tuple[Move, ...]]:
    """Permute Ftilde(xi, eta) into the Fourier-family Hadamard F(xi, eta).

    The returned script acts on the pair {I, Ftilde}: the row swap is undone
    on the first member by the matching column swap, so the pair maps to
    {I, F(xi, eta)}. The matrix is the second member of that replay.
    """
    script = (
        Move("permute-rows", perm=_FOURIER_ROW_PERM),
        Move("permute-cols", "first", perm=_FOURIER_ROW_PERM),
        Move("permute-cols", "second", perm=_FOURIER_COL_PERM),
    )
    return _replay(np.eye(6, dtype=np.complex128), make_Ftilde(xi, eta), script)[1], script


def fourier_family(xi: float, eta: float) -> np.ndarray:
    """The Fourier-family Hadamard F(xi, eta), i.e. the matrix part of
    ftilde_to_fourier."""
    return ftilde_to_fourier(xi, eta)[0]


def reduce_P3(zeta: float, chi: float, sigma: float, tau: float) -> tuple[MUPair, tuple[Move, ...]]:
    """Reduce {Itilde(zeta,chi), Ftilde(sigma,tau)} to {I, Ftilde(sigma-zeta, tau-chi)}.

    A single left multiplication by [[I, 0], [0, S^dagger]] maps the first
    member to the identity and shifts the phase parameters of the second.
    """
    pair = make_family_pair("P3", FamilyParams(zeta=zeta, chi=chi, sigma=sigma, tau=tau))
    zero = np.zeros((3, 3))
    u = np.block([[np.eye(3), zero], [zero, make_S(zeta, chi).conj().T]])
    script = (Move("left-unitary", matrix=u),)
    return apply_script(pair, script), script


def reduce_P2() -> tuple[MUPair, tuple[Move, ...]]:
    """Reduce the parameter-free P2 pair to {I, S6}.

    Fixed move order: left-multiply by [[I, 0], [0, i Hy^dagger]], restore the
    first member, swap rows 2<->3 then 4<->5 (1-based), permute columns of the
    second member 2<->6, 3<->5, 4<->5, multiply rows 4 and 6 by w^2, and
    restore the first member again. Each restore reads the first member off an
    unchecked replay of the script so far; apply_script then replays the whole
    script, checking each move. The second member ends as a complex Hadamard
    whose dephased entry phases are all cube roots of unity.
    """
    pair = make_family_pair("P2")
    m1, m2 = pair.first.matrix, pair.second.matrix
    hy = hw_eigenbasis(3, "y").matrix
    zero = np.zeros((3, 3))
    u = np.block([[np.eye(3), zero], [zero, 1j * hy.conj().T]])
    script = (Move("left-unitary", matrix=u),)
    script += _restore_first_moves(_replay(m1, m2, script)[0])
    w2_angle = float(np.angle(OMEGA2))
    script += (
        Move("permute-rows", perm=(0, 2, 1, 3, 4, 5)),
        Move("permute-rows", perm=(0, 1, 2, 4, 3, 5)),
        Move("permute-cols", "second", perm=(0, 5, 2, 3, 4, 1)),
        Move("permute-cols", "second", perm=(0, 1, 4, 3, 2, 5)),
        Move("permute-cols", "second", perm=(0, 1, 2, 4, 3, 5)),
        Move("left-diag-phase", phases=(0.0, 0.0, 0.0, w2_angle, 0.0, w2_angle)),
    )
    script += _restore_first_moves(_replay(m1, m2, script)[0])
    out = apply_script(pair, script)
    first_dev = float(np.abs(out.first.matrix - np.eye(6)).max())
    if first_dev > EQ_TOL:
        raise InvalidMoveError(f"P2 reduction failed to restore the identity ({first_dev:.3e})")
    return out, script


@dataclass(frozen=True)
class HadamardFingerprint:
    """Phase-invariant fingerprint of a complex Hadamard matrix.

    The multiset of quadruple products h_ij h_kl conj(h_il) conj(h_kj) over
    all index quadruples, scaled by d^2 to unit modulus and rounded to the
    quantum. Invariant under row/column permutations and diagonal phase
    multiplications; equality is necessary but NOT sufficient for Hadamard
    equivalence.
    """

    quantum: float
    classes: tuple[tuple[tuple[int, int], int], ...]

    def digest(self) -> str:
        import hashlib  # only here, so the other commands never load OpenSSL

        payload = repr((self.quantum, self.classes)).encode()
        return hashlib.sha256(payload).hexdigest()


def haagerup_fingerprint(h) -> HadamardFingerprint:
    """Fingerprint a Hadamard via its quadruple-product multiset, rounded to
    a quantum of 1e-8."""
    quantum = 1e-8
    m = as_matrix(h)
    d = _assert_hadamard(m)
    mc = m.conj()
    # products[i, k, j, l] = h_ij * h_kl * conj(h_il) * conj(h_kj), scaled to
    # unit modulus by d^2.
    products = (
        m[:, None, :, None]
        * m[None, :, None, :]
        * mc[:, None, None, :]
        * mc[None, :, :, None]
    ) * (d * d)
    flat = products.reshape(-1)
    re = np.rint(flat.real / quantum).astype(np.int64)
    im = np.rint(flat.imag / quantum).astype(np.int64)
    # Complex keys sort by real part, then imaginary part; both are exact
    # integers well below 2**53.
    keys, counts = np.unique(re + 1j * im, return_counts=True)
    re, im = keys.real.astype(np.int64).tolist(), keys.imag.astype(np.int64).tolist()
    classes = tuple(((r, i), c) for r, i, c in zip(re, im, counts.tolist()))
    return HadamardFingerprint(quantum=quantum, classes=classes)

