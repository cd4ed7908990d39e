"""Constructors for the four catalogued families P0..P3 of mutually unbiased
product-basis pairs of C^2 x C^3, as matrices whose columns carry their
product-state labels."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .bases import Basis, MUPair, ProductLabel, hw_eigenbasis
from .errors import ParameterRangeError
from .linalg import OMEGA, OMEGA2, TAU

FAMILY_IDS = ("P0", "P1", "P2", "P3")

# Parameter names each family accepts.
_FAMILY_PARAMS = {
    "P0": (),
    "P1": ("xi", "eta"),
    "P2": (),
    "P3": ("zeta", "chi", "sigma", "tau"),
}


@dataclass(frozen=True)
class FamilyParams:
    """Free angles (radians) of a family; unused slots stay None."""

    xi: float | None = None
    eta: float | None = None
    zeta: float | None = None
    chi: float | None = None
    sigma: float | None = None
    tau: float | None = None

    def present(self) -> dict[str, float]:
        return {
            name: float(getattr(self, name))
            for name in _PARAM_NAMES
            if getattr(self, name) is not None
        }


# The angle names in field order, the order of the CLI flags and of the names
# a pair file may give.
_PARAM_NAMES = tuple(f.name for f in fields(FamilyParams))


def validate_family_params(family: str, params: FamilyParams | None) -> FamilyParams:
    """Check presence and ranges of the parameters for one family.

    P1 needs xi, eta in [0, 2pi) with (xi, eta) != (0, 0); P3 needs zeta, chi
    in [0, 2pi) and sigma, tau in the open interval (0, pi). P0 and P2 take
    no parameters. Angles are kept as given; no modular normalization.
    """
    if family not in FAMILY_IDS:
        raise ParameterRangeError(f"unknown family {family!r}, expected one of {FAMILY_IDS}")
    params = params or FamilyParams()
    wanted = _FAMILY_PARAMS[family]
    given = params.present()
    extra = sorted(set(given) - set(wanted))
    if extra:
        raise ParameterRangeError(f"family {family} does not take parameters {extra}")
    missing = sorted(set(wanted) - set(given))
    if missing:
        raise ParameterRangeError(f"family {family} requires parameters {missing}")
    for name in ("xi", "eta", "zeta", "chi"):
        if name in given and not (0.0 <= given[name] < TAU):
            raise ParameterRangeError(f"{name} must lie in [0, 2pi), got {given[name]!r}")
    for name in ("sigma", "tau"):
        if name in given and not (0.0 < given[name] < np.pi):
            raise ParameterRangeError(f"{name} must lie in the open interval (0, pi), got {given[name]!r}")
    if family == "P1" and given["xi"] == 0.0 and given["eta"] == 0.0:
        raise ParameterRangeError("P1 requires (xi, eta) != (0, 0); that point is the P0 pair")
    return params


def make_R(xi: float, eta: float) -> np.ndarray:
    """Relative-phase operator diag(1, e^{i xi}, e^{i eta}) on the dim-3 z basis."""
    return np.diag([1.0, np.exp(1j * xi), np.exp(1j * eta)]).astype(np.complex128)


def make_S(zeta: float, chi: float) -> np.ndarray:
    """Circulant unitary acting as diag(1, e^{i zeta}, e^{i chi}) on the dim-3 x basis.

    Built from the closed-form coefficients
        a = (1 + e^{i zeta} + e^{i chi}) / 3,
        b = (1 + w^2 e^{i zeta} + w e^{i chi}) / 3,
        c = (1 + w e^{i zeta} + w^2 e^{i chi}) / 3,
    arranged so that F3^dagger S F3 = diag(1, e^{i zeta}, e^{i chi}) with the
    column order of F3.
    """
    ez = np.exp(1j * zeta)
    ec = np.exp(1j * chi)
    a = (1.0 + ez + ec) / 3.0
    b = (1.0 + OMEGA2 * ez + OMEGA * ec) / 3.0
    c = (1.0 + OMEGA * ez + OMEGA2 * ec) / 3.0
    return np.array([[a, b, c], [c, a, b], [b, c, a]], dtype=np.complex128)


def make_Ftilde(xi: float, eta: float) -> np.ndarray:
    """Two-parameter 6x6 complex Hadamard [[F3, F3], [F3 D, -F3 D]] / sqrt2
    with D = diag(1, e^{i xi}, e^{i eta})."""
    f3 = hw_eigenbasis(3, "x").matrix
    fd = f3 @ make_R(xi, eta)
    top = np.hstack([f3, f3])
    bottom = np.hstack([fd, -fd])
    return np.vstack([top, bottom]) / np.sqrt(2.0)


def make_Itilde(zeta: float, chi: float) -> np.ndarray:
    """Block-diagonal basis [[I3, 0], [0, S_{zeta,chi}]]."""
    out = np.zeros((6, 6), dtype=np.complex128)
    out[:3, :3] = np.eye(3)
    out[3:, 3:] = make_S(zeta, chi)
    return out


def _labels(qubits: np.ndarray, qutrits: np.ndarray, names: list[str]) -> tuple[ProductLabel, ...]:
    """A member's six column labels: label k has the C^2 factor qubits[:, k]
    (qubits is 2 x 6), the C^3 factor qutrits[:, k] (3 x 6) and names[k]."""
    return tuple(ProductLabel(q, t, name=n) for q, t, n in zip(qubits.T, qutrits.T, names))


def _block_labels(b: str, cols: np.ndarray, name3: str) -> tuple[ProductLabel, ...]:
    """Labels |0_b, J_b> then |1_b, c_J> of a two-block member, b the z or x
    basis and c_J the columns of cols; name3 annotates the C^3 states c_J."""
    names = [f"|0_{b},{J}_{b}>" for J in range(3)] + [f"|1_{b},{name3.format(J=J)}>" for J in range(3)]
    qutrits = np.hstack([hw_eigenbasis(3, b).matrix, cols])
    return _labels(np.repeat(hw_eigenbasis(2, b).matrix, 3, axis=1), qutrits, names)


def _labels_ftilde(sigma: float, tau: float) -> tuple[ProductLabel, ...]:
    """Column labels of make_Ftilde(sigma, tau): C^3 factors run over the x
    basis, C^2 factors are (1, +-e^{i delta})/sqrt2 with delta = 0, sigma, tau."""
    phases = np.exp(1j * np.array([0.0, sigma, tau]))
    qubits = np.array([np.ones(6), np.r_[phases, -phases]]) / np.sqrt(2.0)
    f3 = hw_eigenbasis(3, "x").matrix
    names = [f"|{tag}{j}_x,{k}_x>" for j in range(2) for k, tag in enumerate(("", "r(sigma)", "r(tau)"))]
    return _labels(qubits, np.hstack([f3, f3]), names)


def make_family_pair(family: str, params: FamilyParams | None = None) -> MUPair:
    """Build the matrix-form pair of one family, with label provenance.

    P0 -> {I, Ftilde(0,0)}, P1 -> {I, Ftilde(xi,eta)^T},
    P2 -> {Itilde(4pi/3,4pi/3), Ftilde(4pi/3,4pi/3)^T},
    P3 -> {Itilde(zeta,chi), Ftilde(sigma,tau)}.
    """
    params = validate_family_params(family, params)
    f3 = hw_eigenbasis(3, "x").matrix
    if family == "P0":
        first = Basis(np.eye(6, dtype=np.complex128), labels=_block_labels("z", np.eye(3), "{J}_z"))
        second = Basis(make_Ftilde(0.0, 0.0), labels=_block_labels("x", f3, "{J}_x"))
    elif family == "P1":
        first = Basis(np.eye(6, dtype=np.complex128), labels=_block_labels("z", np.eye(3), "{J}_z"))
        second = Basis(
            make_Ftilde(params.xi, params.eta).T.copy(),
            labels=_block_labels("x", make_R(params.xi, params.eta) @ f3, "R{J}_x"),
        )
    elif family == "P2":
        angle = 2.0 * TAU / 3.0
        first = Basis(make_Itilde(angle, angle), labels=_block_labels("z", make_S(angle, angle), "{J}_y"))
        second = Basis(
            make_Ftilde(angle, angle).T.copy(),
            labels=_block_labels("x", make_R(angle, angle) @ f3, "{J}_w"),
        )
    else:
        s = make_S(params.zeta, params.chi)
        first = Basis(make_Itilde(params.zeta, params.chi), labels=_block_labels("z", s, "S{J}_z"))
        second = Basis(
            make_Ftilde(params.sigma, params.tau),
            labels=_labels_ftilde(params.sigma, params.tau),
        )
    return MUPair(first, second, family=family, params=params)
