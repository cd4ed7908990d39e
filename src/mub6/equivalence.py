"""Elementary equivalence moves on pairs of bases, dephased canonical forms,
Haagerup fingerprints, and the reduction pipelines that bring the P0..P3
families to the standard forms {I, F(xi, eta)} and {I, S6}."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bases import Basis, MUPair, hw_eigenbasis, is_mu_pair, same_basis_up_to_phase
from .errors import FormatError, InvalidMoveError, NotHadamardError
from .families import make_family_pair, make_Ftilde, make_S, FamilyParams
from .linalg import (
    EQ_TOL,
    OMEGA2,
    TAU,
    _freeze,
    as_matrix,
    format_matrix,
    is_unitary,
    parse_matrix,
)


@dataclass(frozen=True)
class Move:
    """One elementary equivalence move on a pair of bases.

    Permutations are stored 0-based with the convention new[i] = old[perm[i]]
    (serialization uses 1-based indices). Phases are radians. Member-scoped
    moves ("permute-cols", "right-diag-phase") carry member "first" or
    "second"; row operations and left multiplications act on both members.
    """

    kind: str
    member: str | None = None
    perm: tuple[int, ...] | None = None
    phases: tuple[float, ...] | None = None
    matrix: np.ndarray | None = None

    @staticmethod
    def permute_rows(perm) -> "Move":
        return Move("permute-rows", perm=tuple(int(i) for i in perm))

    @staticmethod
    def permute_cols(member: str, perm) -> "Move":
        return Move("permute-cols", member=member, perm=tuple(int(i) for i in perm))

    @staticmethod
    def left_diag_phase(phases) -> "Move":
        return Move("left-diag-phase", phases=tuple(float(p) for p in phases))

    @staticmethod
    def right_diag_phase(member: str, phases) -> "Move":
        return Move("right-diag-phase", member=member, phases=tuple(float(p) for p in phases))

    @staticmethod
    def left_unitary(matrix) -> "Move":
        return Move("left-unitary", matrix=_freeze(as_matrix(matrix)))

    @staticmethod
    def conjugate_both() -> "Move":
        return Move("conjugate-both")

    @staticmethod
    def swap_members() -> "Move":
        return Move("swap-members")

    def to_json_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.member is not None:
            out["member"] = self.member
        if self.perm is not None:
            out["perm"] = [i + 1 for i in self.perm]
        if self.phases is not None:
            out["phases_over_2pi"] = [p / TAU for p in self.phases]
        if self.matrix is not None:
            out["matrix"] = format_matrix(self.matrix)
        return out

    @staticmethod
    def from_json_dict(d: dict) -> "Move":
        if not isinstance(d, dict):
            raise FormatError(f"a script move must be an object, got {type(d).__name__}")
        perm = _json_numbers(d, "perm", lambda i: int(i) - 1)
        phases = _json_numbers(d, "phases_over_2pi", lambda p: float(p) * TAU)
        matrix = None
        if "matrix" in d:
            if not isinstance(d["matrix"], str):
                raise FormatError("a script move's 'matrix' must be matrix text")
            matrix = _freeze(parse_matrix(d["matrix"]))
        return Move(d.get("kind"), member=d.get("member"), perm=perm, phases=phases, matrix=matrix)


def _json_numbers(d: dict, key: str, convert) -> tuple | None:
    """The list d[key] converted entrywise, or None when the key is absent."""
    if key not in d:
        return None
    if isinstance(d[key], (list, tuple)):
        try:
            return tuple(convert(v) for v in d[key])
        except (TypeError, ValueError, OverflowError):
            pass
    raise FormatError(f"a script move's {key!r} must be a list of numbers")


@dataclass(frozen=True)
class TransformScript:
    """Replayable ordered list of moves."""

    moves: tuple[Move, ...] = ()

    def __iter__(self):
        return iter(self.moves)

    def __len__(self) -> int:
        return len(self.moves)

    def to_json_dict(self) -> dict:
        return {"moves": [m.to_json_dict() for m in self.moves]}

    @staticmethod
    def from_json_dict(d: dict) -> "TransformScript":
        moves = d.get("moves", ()) if isinstance(d, dict) else None
        if not isinstance(moves, (list, tuple)):
            raise FormatError("script JSON must be an object with a 'moves' list")
        return TransformScript(tuple(Move.from_json_dict(m) for m in moves))


def _check_perm(perm: tuple[int, ...] | None, d: int, move: Move) -> np.ndarray:
    if perm is None or sorted(perm) != list(range(d)):
        raise InvalidMoveError(f"move {move.kind} needs a permutation of 0..{d - 1}, got {perm}")
    return np.asarray(perm, dtype=int)


def _check_phases(phases: tuple[float, ...] | None, d: int, move: Move) -> np.ndarray:
    if phases is None or len(phases) != d:
        raise InvalidMoveError(f"move {move.kind} needs {d} phases")
    arr = np.asarray(phases, dtype=float)
    if not np.isfinite(arr).all():
        raise InvalidMoveError(f"move {move.kind} has non-finite phases")
    return arr


def _apply_raw(m1: np.ndarray, m2: np.ndarray, move: Move) -> tuple[np.ndarray, np.ndarray]:
    d = m1.shape[0]
    kind = move.kind
    if kind == "permute-rows":
        p = _check_perm(move.perm, d, move)
        return m1[p, :], m2[p, :]
    if kind == "permute-cols":
        p = _check_perm(move.perm, d, move)
        if move.member == "first":
            return m1[:, p], m2
        if move.member == "second":
            return m1, m2[:, p]
        raise InvalidMoveError(f"permute-cols needs member 'first' or 'second', got {move.member!r}")
    if kind == "left-diag-phase":
        lam = np.exp(1j * _check_phases(move.phases, d, move))
        return lam[:, None] * m1, lam[:, None] * m2
    if kind == "right-diag-phase":
        lam = np.exp(1j * _check_phases(move.phases, d, move))
        if move.member == "first":
            return m1 * lam[None, :], m2
        if move.member == "second":
            return m1, m2 * lam[None, :]
        raise InvalidMoveError(f"right-diag-phase needs member 'first' or 'second', got {move.member!r}")
    if kind == "left-unitary":
        if move.matrix is None or move.matrix.shape != (d, d):
            raise InvalidMoveError(f"left-unitary needs a {d}x{d} matrix payload")
        if not is_unitary(move.matrix):
            raise InvalidMoveError("left-unitary payload is not unitary within EQ_TOL")
        return move.matrix @ m1, move.matrix @ m2
    if kind == "conjugate-both":
        return m1.conj(), m2.conj()
    if kind == "swap-members":
        return m2, m1
    raise InvalidMoveError(f"unknown move kind {move.kind!r}")


def apply_script(pair: MUPair, script: TransformScript) -> MUPair:
    """Replay a script on a pair, checking the MU invariant after every move."""
    m1 = pair.first.matrix.copy()
    m2 = pair.second.matrix.copy()
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


def dephase(h) -> tuple[np.ndarray, TransformScript]:
    """Normalize a Hadamard so its first row and column are real positive.

    Returns the dephased matrix and a script that, applied to the pair
    {I, H}, yields {I, dephased H}: column phases on the second member, row
    phases on both, and the column phases that restore the first member.
    """
    m = as_matrix(h)
    _assert_hadamard(m)
    col_angles = -np.angle(m[0, :])
    m1 = m * np.exp(1j * col_angles)[None, :]
    row_angles = -np.angle(m1[:, 0])
    m2 = np.exp(1j * row_angles)[:, None] * m1
    script = TransformScript(
        (
            Move.right_diag_phase("second", col_angles),
            Move.left_diag_phase(row_angles),
            Move.right_diag_phase("first", -row_angles),
        )
    )
    return m2, script


def _restore_first_moves(m1: np.ndarray) -> list[Move]:
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
    pi = witness.permutation
    sigma = [0] * d
    for k, target in enumerate(pi):
        sigma[target] = k
    moves: list[Move] = []
    if sigma != list(range(d)):
        moves.append(Move.permute_cols("first", sigma))
    undo = [-witness.phases[sigma[i]] for i in range(d)]
    if any(abs(a) > 1e-15 for a in undo):
        moves.append(Move.right_diag_phase("first", undo))
    return moves


def reduce_P1(xi: float, eta: float) -> tuple[MUPair, TransformScript]:
    """Bring the P1 pair {I, Ftilde(xi,eta)^T} to the form {I, Ftilde(xi,eta)}.

    Three moves: left-multiply by the adjoint of the second member, conjugate
    the pair, swap the members.
    """
    pair = make_family_pair("P1", FamilyParams(xi=xi, eta=eta))
    script = TransformScript(
        (
            Move.left_unitary(pair.second.matrix.conj().T),
            Move.conjugate_both(),
            Move.swap_members(),
        )
    )
    return apply_script(pair, script), script


# Row and column permutations taking Ftilde(xi, eta) to the Fourier family
# F(xi, eta): swap rows 2 and 5 (1-based), then fill columns 2,3,5,6 with the
# old columns 6,2,3,5. At (0, 0) the result is exactly the 6x6 Fourier matrix.
_FOURIER_ROW_PERM = (0, 4, 2, 3, 1, 5)
_FOURIER_COL_PERM = (0, 5, 1, 3, 2, 4)


def ftilde_to_fourier(xi: float, eta: float) -> tuple[np.ndarray, TransformScript]:
    """Permute Ftilde(xi, eta) into the Fourier-family Hadamard F(xi, eta).

    The returned script acts on the pair {I, Ftilde}: the row swap is undone
    on the first member by the matching column swap, so the pair maps to
    {I, F(xi, eta)}.
    """
    ft = make_Ftilde(xi, eta)
    out = ft[np.asarray(_FOURIER_ROW_PERM), :][:, np.asarray(_FOURIER_COL_PERM)]
    script = TransformScript(
        (
            Move.permute_rows(_FOURIER_ROW_PERM),
            Move.permute_cols("first", _FOURIER_ROW_PERM),
            Move.permute_cols("second", _FOURIER_COL_PERM),
        )
    )
    return out, script


def fourier_family(xi: float, eta: float) -> np.ndarray:
    """The Fourier-family Hadamard F(xi, eta), i.e. the matrix part of
    ftilde_to_fourier."""
    return ftilde_to_fourier(xi, eta)[0]


def reduce_P3(zeta: float, chi: float, sigma: float, tau: float) -> tuple[MUPair, TransformScript]:
    """Reduce {Itilde(zeta,chi), Ftilde(sigma,tau)} to {I, Ftilde(sigma-zeta, tau-chi)}.

    A single left multiplication by [[I, 0], [0, S^dagger]] maps the first
    member to the identity and shifts the phase parameters of the second.
    """
    pair = make_family_pair("P3", FamilyParams(zeta=zeta, chi=chi, sigma=sigma, tau=tau))
    zero = np.zeros((3, 3))
    u = np.block([[np.eye(3), zero], [zero, make_S(zeta, chi).conj().T]])
    script = TransformScript((Move.left_unitary(u),))
    return apply_script(pair, script), script


def reduce_P2() -> tuple[MUPair, TransformScript]:
    """Reduce the parameter-free P2 pair to {I, S6}.

    Fixed move order: left-multiply by [[I, 0], [0, i Hy^dagger]], restore the
    first member, swap rows 2<->3 then 4<->5 (1-based), permute columns of the
    second member 2<->6, 3<->5, 4<->5, multiply rows 4 and 6 by w^2, and
    restore the first member again. The resulting second member is a
    complex Hadamard whose dephased entry phases are all cube roots of unity.
    """
    pair = make_family_pair("P2")
    hy = hw_eigenbasis(3, "y").matrix
    zero = np.zeros((3, 3))
    u = np.block([[np.eye(3), zero], [zero, 1j * hy.conj().T]])
    moves: list[Move] = []
    m1, m2 = pair.first.matrix, pair.second.matrix

    def push(*new: Move) -> None:
        nonlocal m1, m2
        for mv in new:
            m1, m2 = _apply_raw(m1, m2, mv)
        moves.extend(new)

    push(Move.left_unitary(u))
    push(*_restore_first_moves(m1))
    w2_angle = float(np.angle(OMEGA2))
    push(
        Move.permute_rows((0, 2, 1, 3, 4, 5)),
        Move.permute_rows((0, 1, 2, 4, 3, 5)),
        Move.permute_cols("second", (0, 5, 2, 3, 4, 1)),
        Move.permute_cols("second", (0, 1, 4, 3, 2, 5)),
        Move.permute_cols("second", (0, 1, 2, 4, 3, 5)),
        Move.left_diag_phase((0.0, 0.0, 0.0, w2_angle, 0.0, w2_angle)),
    )
    push(*_restore_first_moves(m1))

    script = TransformScript(tuple(moves))
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

    def values(self) -> tuple[complex, ...]:
        return tuple(complex(re * self.quantum, im * self.quantum) for (re, im), _ in self.classes)

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
    # Group equal (re, im) keys in lexicographic order: sort, then cut the
    # runs where either component changes.
    order = np.lexsort((im, re))
    re, im = re[order], im[order]
    starts = np.flatnonzero(np.r_[True, (re[1:] != re[:-1]) | (im[1:] != im[:-1])])
    counts = np.diff(np.r_[starts, re.size])
    classes = tuple(
        ((r, i), c) for r, i, c in zip(re[starts].tolist(), im[starts].tolist(), counts.tolist())
    )
    return HadamardFingerprint(quantum=quantum, classes=classes)

