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
            f.name: float(getattr(self, f.name))
            for f in fields(self)
            if getattr(self, f.name) is not None
        }


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


def _qubit_state(kind: str, delta: float = 0.0, sign: int = +1) -> np.ndarray:
    """Named C^2 states used in labels: z/x basis vectors and their phased
    variants (1, sign * e^{i delta})/sqrt2."""
    if kind == "z0":
        return np.array([1.0, 0.0], dtype=np.complex128)
    if kind == "z1":
        return np.array([0.0, 1.0], dtype=np.complex128)
    return np.array([1.0, sign * np.exp(1j * delta)], dtype=np.complex128) / np.sqrt(2.0)


def _labels_x_r(cols: np.ndarray, name3: str) -> tuple[ProductLabel, ...]:
    """Labels |0_x, J_x> then |1_x, c_J> with c_J the columns of cols; name3
    annotates the C^3 states c_J."""
    f3 = hw_eigenbasis(3, "x").matrix
    out = []
    for bigj in range(3):
        out.append(
            ProductLabel(_qubit_state("x", 0.0, +1), f3[:, bigj], name=f"|0_x,{bigj}_x>")
        )
    for bigj in range(3):
        out.append(
            ProductLabel(
                _qubit_state("x", 0.0, -1), cols[:, bigj], name=f"|1_x,{name3.format(J=bigj)}>"
            )
        )
    return tuple(out)


def _labels_ftilde(sigma: float, tau: float) -> tuple[ProductLabel, ...]:
    """Column labels of make_Ftilde(sigma, tau): the C^3 factor runs over the
    x basis while the C^2 factor picks up the phases (0, sigma, tau)."""
    f3 = hw_eigenbasis(3, "x").matrix
    deltas = (0.0, sigma, tau)
    tags = ("", "r(sigma)", "r(tau)")
    out = []
    for j, sign in ((0, +1), (1, -1)):
        for k in range(3):
            out.append(
                ProductLabel(
                    _qubit_state("x", deltas[k], sign),
                    f3[:, k],
                    name=f"|{tags[k]}{j}_x,{k}_x>",
                )
            )
    return tuple(out)


def _labels_itilde(s: np.ndarray, name3: str) -> tuple[ProductLabel, ...]:
    """Column labels of [[I,0],[0,S]]: |0_z, J_z> then |1_z, S J_z>."""
    eye3 = np.eye(3, dtype=np.complex128)
    out = []
    for bigj in range(3):
        out.append(ProductLabel(_qubit_state("z0"), eye3[:, bigj], name=f"|0_z,{bigj}_z>"))
    for bigj in range(3):
        out.append(
            ProductLabel(
                _qubit_state("z1"), s[:, bigj].copy(), name=f"|1_z,{name3.format(J=bigj)}>"
            )
        )
    return tuple(out)


def make_family_pair(family: str, params: FamilyParams | None = None) -> MUPair:
    """Build the matrix-form pair of one family, with label provenance.

    P0 -> {I, Ftilde(0,0)}, P1 -> {I, Ftilde(xi,eta)^T},
    P2 -> {Itilde(4pi/3,4pi/3), Ftilde(4pi/3,4pi/3)^T},
    P3 -> {Itilde(zeta,chi), Ftilde(sigma,tau)}.
    """
    params = validate_family_params(family, params)
    f3 = hw_eigenbasis(3, "x").matrix
    if family == "P0":
        first = Basis(np.eye(6, dtype=np.complex128), labels=_labels_itilde(np.eye(3), "{J}_z"))
        second = Basis(make_Ftilde(0.0, 0.0), labels=_labels_x_r(f3, "{J}_x"))
    elif family == "P1":
        first = Basis(np.eye(6, dtype=np.complex128), labels=_labels_itilde(np.eye(3), "{J}_z"))
        second = Basis(
            make_Ftilde(params.xi, params.eta).T.copy(),
            labels=_labels_x_r(make_R(params.xi, params.eta) @ f3, "R{J}_x"),
        )
    elif family == "P2":
        angle = 2.0 * TAU / 3.0
        s = make_S(angle, angle)
        first = Basis(make_Itilde(angle, angle), labels=_labels_itilde(s, "{J}_y"))
        second = Basis(
            make_Ftilde(angle, angle).T.copy(),
            labels=_labels_x_r(make_R(angle, angle) @ f3, "{J}_w"),
        )
    else:
        s = make_S(params.zeta, params.chi)
        first = Basis(make_Itilde(params.zeta, params.chi), labels=_labels_itilde(s, "S{J}_z"))
        second = Basis(
            make_Ftilde(params.sigma, params.tau),
            labels=_labels_ftilde(params.sigma, params.tau),
        )
    return MUPair(first, second, family=family, params=params)

