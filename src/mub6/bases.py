"""Clock/shift eigenbases in dimensions 2 and 3, product bases of C^2 x C^3,
and the mutual-unbiasedness and same-basis predicates."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionError, NotABasisError, NotMUPairError, ParameterRangeError
from .linalg import (
    EQ_TOL,
    MU_TOL,
    OMEGA,
    OMEGA2,
    _freeze,
    _gram_defect,
    _is_unit,
    as_matrix,
    as_vector,
)

if TYPE_CHECKING:
    from .families import FamilyParams


@dataclass(frozen=True)
class ProductLabel:
    """Provenance of one product vector: its C^2 and C^3 tensor factors.

    The stored factors are exact states; vector(), their Kronecker product,
    reproduces the labelled basis column. The name is informational.
    """

    factor2: np.ndarray
    factor3: np.ndarray
    name: str = ""

    def __post_init__(self) -> None:
        for field, dim in (("factor2", 2), ("factor3", 3)):
            f = as_vector(getattr(self, field), dim)
            if not _is_unit(f):
                raise NotABasisError(f"label factor is not a unit vector in {self.name!r}")
            object.__setattr__(self, field, _freeze(f))

    def vector(self) -> np.ndarray:
        # The factors were checked and frozen once above.
        return np.multiply.outer(self.factor2, self.factor3).ravel()


@dataclass(frozen=True)
class Basis:
    """Ordered orthonormal basis, stored as the unitary matrix of columns."""

    matrix: np.ndarray
    labels: tuple[ProductLabel, ...] | None = None

    def __post_init__(self) -> None:
        m = as_matrix(self.matrix)
        if m.shape[0] != m.shape[1]:
            raise NotABasisError(f"basis matrix must be square, got {m.shape}")
        labels = None if self.labels is None else tuple(self.labels)
        if labels is not None and len(labels) != m.shape[0]:
            raise NotABasisError(f"{len(labels)} labels for a basis of dimension {m.shape[0]}")
        defect = _gram_defect(m)
        if defect is not None:
            dev, i, j = defect
            names = (i, j) if labels is None else (labels[i].name, labels[j].name)
            raise NotABasisError(
                f"columns are not orthonormal: Gram deviation {dev:.3e} at vector pair {names}"
            )
        if labels is not None:
            vectors = np.column_stack([label.vector() for label in labels])
            bad = np.flatnonzero(np.abs(vectors - m).max(axis=0) > EQ_TOL)
            if bad.size:
                k = int(bad[0])
                raise NotABasisError(
                    f"label {labels[k].name!r} does not reproduce basis vector {k}"
                )
            object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "matrix", _freeze(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


# Clock/shift eigenbases, columns = basis vectors, each checked once here and
# shared: a Basis is frozen and its matrix read-only. Column order and phases
# are pinned so that downstream reduction scripts reproduce fixed row/column
# indices; tests rely on these exact entries. The qubit y basis has columns
# (1, i)/sqrt2 and (1, -i)/sqrt2, the eigenvectors of X Z.
_EIGENBASES = {
    (2, "z"): Basis(np.eye(2)),
    (2, "x"): Basis(np.array([[1, 1], [1, -1]]) / np.sqrt(2.0)),
    (2, "y"): Basis(np.array([[1, 1], [1j, -1j]]) / np.sqrt(2.0)),
    (3, "z"): Basis(np.eye(3)),
    (3, "x"): Basis(np.array([[1, 1, 1], [1, OMEGA, OMEGA2], [1, OMEGA2, OMEGA]]) / np.sqrt(3.0)),
    (3, "y"): Basis(np.array([[1, 1, 1], [OMEGA, OMEGA2, 1], [OMEGA, 1, OMEGA2]]) / np.sqrt(3.0)),
    (3, "w"): Basis(np.array([[1, 1, 1], [OMEGA2, 1, OMEGA], [OMEGA2, OMEGA, 1]]) / np.sqrt(3.0)),
}


@dataclass(frozen=True)
class MUCheck:
    """Result of a mutual-unbiasedness check with its worst offender."""

    ok: bool
    worst_deviation: float
    worst_index: tuple[int, int]


@dataclass(frozen=True)
class MUPair:
    """Two mutually unbiased bases of equal dimension, with optional family
    provenance. Construction validates both through is_mu_pair, at MU_TOL,
    and params need a family."""

    first: Basis
    second: Basis
    family: str | None = None
    params: "FamilyParams | None" = None

    def __post_init__(self) -> None:
        if self.family is None and self.params is not None:
            raise ParameterRangeError(f"params {sorted(self.params.present())} given without a family")
        check = is_mu_pair(self.first, self.second)
        if not check.ok:
            raise NotMUPairError(
                f"bases are not mutually unbiased: worst |<a|b>|^2 deviation "
                f"{check.worst_deviation:.3e} at index {check.worst_index}"
            )

    @property
    def dim(self) -> int:
        return self.first.dim

    def basis_vectors(self) -> np.ndarray:
        """All 2d basis vectors as columns: first member's, then second's."""
        return np.hstack([self.first.matrix, self.second.matrix])


@dataclass(frozen=True)
class PhaseWitness:
    """Witness that A equals B up to column order and column phases:
    A[:, k] = exp(1j * phases[k]) * B[:, permutation[k]] for every k."""

    permutation: tuple[int, ...]
    phases: tuple[float, ...]


def _coerce(basis_or_matrix) -> np.ndarray:
    if isinstance(basis_or_matrix, Basis):
        return basis_or_matrix.matrix
    return as_matrix(basis_or_matrix)


def hw_eigenbasis(dim: int, label: str) -> Basis:
    """Eigenbasis of the clock/shift operators Z, X, XZ (and X^2 Z for dim 3).

    Valid labels are z, x, y for dim 2 and z, x, y, w for dim 3. Column order
    and phases are fixed once and for all; see the module tests for the
    eigenvector contracts. Each call returns the same Basis object, checked
    once at import.
    """
    key = (dim, label)
    if key not in _EIGENBASES:
        raise DimensionError(f"no eigenbasis for dim {dim} with label {label!r}")
    return _EIGENBASES[key]


def product_basis(labels) -> Basis:
    """Assemble a dim-6 basis from product labels, one column per label.

    Columns that are not orthonormal raise NotABasisError naming the two
    labels at the worst Gram deviation.
    """
    labels = tuple(labels)
    if len(labels) != 6:
        raise NotABasisError(f"a product basis needs 6 labels, got {len(labels)}")
    return Basis(np.column_stack([label.vector() for label in labels]), labels=labels)


def is_mu_pair(first, second) -> MUCheck:
    """Check |<a_i|b_j>|^2 = 1/d for all cross overlaps.

    Returns the verdict together with the worst deviation and the index pair
    (i, j) where it occurs. An overlap past the double range, which only
    matrices far from unitary have, gives an infinite deviation (NaN where
    the product met inf - inf) and fails the check without a warning.
    """
    a = _coerce(first)
    b = _coerce(second)
    if a.shape != b.shape:
        raise DimensionError(f"dimension mismatch: {a.shape} vs {b.shape}")
    d = a.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        cross = np.abs(a.conj().T @ b) ** 2
        dev = np.abs(cross - 1.0 / d)
    flat = int(dev.argmax())
    i, j = np.unravel_index(flat, dev.shape)
    worst = float(dev[i, j])
    return MUCheck(worst <= MU_TOL, worst, (int(i), int(j)))


def same_basis_up_to_phase(first, second) -> PhaseWitness | None:
    """Find a column permutation and per-column phases identifying two bases.

    Returns a PhaseWitness with A[:, k] = exp(1j phases[k]) B[:, perm[k]]
    within EQ_TOL, or None if no such identification exists. Column k of A is
    matched to the first unused column of B that equals it up to phase, and
    no match is undone: the columns of a basis are orthonormal, so each
    column of A equals at most one of them up to phase.
    """
    a = _coerce(first)
    b = _coerce(second)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        return None
    d = a.shape[0]
    perm: list[int] = []
    phases: list[float] = []
    for k in range(d):
        for j in range(d):
            if j in perm:
                continue
            ip = np.vdot(b[:, j], a[:, k])
            if abs(ip) < 1e-12:
                continue
            phase = ip / abs(ip)
            if np.abs(a[:, k] - phase * b[:, j]).max() <= EQ_TOL:
                perm.append(j)
                phases.append(float(np.angle(phase)))
                break
        else:
            return None
    return PhaseWitness(tuple(perm), tuple(phases))
