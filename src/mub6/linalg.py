"""Small dense complex linear algebra with an explicit tolerance policy.

Everything operates on plain numpy complex arrays of dimension 2, 3 or 6.
Inputs are never mutated; every operation returns a fresh array, so values can
be shared freely between threads and replayed deterministically.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import DimensionError, FormatError

TAU = 2.0 * np.pi

# Cube roots of unity come from the exact angle constants 2pi/3 and 4pi/3
# rather than chained multiplications, so repeated use accumulates no drift.
OMEGA = np.exp(1j * TAU / 3.0)
OMEGA2 = np.exp(2j * TAU / 3.0)

# Comparison thresholds shared across the package: EQ_TOL bounds entrywise
# absolute deviations, MU_TOL bounds deviations of squared overlaps from 1/d,
# and ORTHO_TOL is the largest |<u|v>| still treated as zero when building
# orthogonality graphs.
EQ_TOL = 1e-10
MU_TOL = 1e-9
ORTHO_TOL = 1e-7


def _numbers(values, types, convert) -> tuple | None:
    """The entries of values, each converted, or None unless every one is a
    number of one of types: never a bool or string, and within double range.
    The test is per entry: numpy infers integers for [True, 1]."""
    try:
        values = tuple(values)
        kinds = set(map(type, values))
        if not all(issubclass(t, types) and not issubclass(t, bool) for t in kinds):
            return None
        # Python ints are unbounded: one past a double is refused.
        if int in kinds and not all(abs(v) <= sys.float_info.max for v in values if type(v) is int):
            return None
        return tuple(map(convert, values))
    except TypeError:
        return None


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.complex128, copy=True)
    out.setflags(write=False)
    return out


def as_vector(v, dim: int | None = None) -> np.ndarray:
    """Coerce to a 1-D complex128 array, rejecting non-finite entries."""
    a = np.asarray(v, dtype=np.complex128)
    if a.ndim != 1:
        raise DimensionError(f"expected a 1-D vector, got shape {a.shape}")
    if dim is not None and a.shape[0] != dim:
        raise DimensionError(f"expected a vector of dimension {dim}, got {a.shape[0]}")
    if not np.isfinite(a).all():
        raise FormatError("vector contains non-finite entries")
    return a


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-D complex128 array, rejecting non-finite entries."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.size == 0:
        raise DimensionError(f"expected a non-empty 2-D matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise FormatError("matrix contains non-finite entries")
    return a


def _is_unit(v: np.ndarray) -> bool:
    """True iff | ||v|| - 1 | <= EQ_TOL. A real or imaginary part past
    1 + EQ_TOL fails before any square is formed, so nothing overflows."""
    parts = v.real.tolist() + v.imag.tolist()
    return max(map(abs, parts), default=0.0) <= 1.0 + EQ_TOL and abs(math.hypot(*parts) - 1.0) <= EQ_TOL


def _gram_defect(a: np.ndarray) -> tuple[float, int, int] | None:
    """Largest |A^dagger A - I| entry and its index, or None if all are <= EQ_TOL.

    A column with an entry past 1 + EQ_TOL in modulus is reported first, with
    its own |<a_j|a_j> - 1|, before any product is formed, so nothing overflows.
    """
    moduli = np.abs(a)
    if moduli.max() > 1.0 + EQ_TOL:
        j = int(np.flatnonzero(moduli.max(axis=0) > 1.0 + EQ_TOL)[0])
        norm = math.hypot(*moduli[:, j].tolist())
        return norm * norm - 1.0, j, j
    dev = np.abs(a.conj().T @ a - np.eye(a.shape[0]))
    i, j = np.unravel_index(int(dev.argmax()), dev.shape)
    return None if dev[i, j] <= EQ_TOL else (float(dev[i, j]), int(i), int(j))


def is_unitary(m) -> bool:
    """True iff max entry of |M^dagger M - I| is at most EQ_TOL."""
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"unitarity is defined for square matrices, got {a.shape}")
    return _gram_defect(a) is None


def format_matrix(m) -> str:
    """Render a matrix in the shared text format.

    First line is "n_rows n_cols"; each following line holds one row with
    entries written as re{sign}imj (e.g. "0.5-0.28867513459481287j"),
    separated by single spaces. 17 significant digits guarantee an exact
    double round trip.
    """
    a = as_matrix(m)
    lines = [f"{a.shape[0]} {a.shape[1]}"]
    for row in a.tolist():
        lines.append(" ".join(f"{z.real:.17g}{z.imag:+.17g}j" for z in row))
    return "\n".join(lines) + "\n"


def _quote(text: str) -> str:
    """repr of a short prefix of text, so an error message stays small."""
    return repr(text[:40]) + ("..." if len(text) > 40 else "")


def parse_matrix(text: str) -> np.ndarray:
    """Parse the text format produced by format_matrix."""
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty matrix text")
    header = lines[0].split()
    if len(header) != 2:
        raise FormatError(f"bad matrix header {_quote(lines[0])}, expected 'n_rows n_cols'")
    try:
        nrows, ncols = int(header[0]), int(header[1])
    except ValueError as exc:
        raise FormatError(f"bad matrix header {_quote(lines[0])}") from exc
    if nrows <= 0 or ncols <= 0:
        raise FormatError("matrix dimensions must be positive")
    if len(lines) - 1 != nrows:
        raise FormatError(f"expected {nrows} rows, got {len(lines) - 1}")
    # Every row is checked against the header before the header sizes anything.
    rows = [line.split() for line in lines[1:]]
    for i, tokens in enumerate(rows):
        if len(tokens) != ncols:
            raise FormatError(f"row {i} has {len(tokens)} entries, expected {ncols}")
    values = []
    for i, tokens in enumerate(rows):
        for j, token in enumerate(tokens):
            try:
                values.append(complex(token))
            except ValueError as exc:
                raise FormatError(f"bad matrix entry {_quote(token)} at ({i}, {j})") from exc
    return as_matrix(np.array(values, dtype=np.complex128).reshape(nrows, ncols))
