"""Mutually unbiased product-basis pairs in dimension six.

Construct the four catalogued families of MU product-basis pairs, replay
their reductions to the standard forms {I, F(xi, eta)} and {I, S6}, and
search numerically for vectors and bases that extend a given pair.

The package loads lazily (PEP 562): `import mub6` runs none of its modules,
and a name below, or a submodule, is imported on its first use.
"""

import importlib

# Home module -> the names the package re-exports from it.
_EXPORTS = {
    "bases": (
        "Basis", "MUCheck", "MUPair", "PhaseWitness", "ProductLabel", "hw_eigenbasis",
        "is_mu_pair", "product_basis", "same_basis_up_to_phase",
    ),
    "equivalence": (
        "HadamardFingerprint", "Move", "apply_script", "dephase", "fourier_family",
        "ftilde_to_fourier", "haagerup_fingerprint", "reduce_P1", "reduce_P2", "reduce_P3",
    ),
    "errors": (
        "DimensionError", "FormatError", "InvalidMoveError", "Mub6Error", "NotABasisError",
        "NotHadamardError", "NotMUPairError", "ParameterRangeError",
    ),
    "families": (
        "FAMILY_IDS", "FamilyParams", "make_family_pair", "make_Ftilde", "make_Itilde",
        "make_R", "make_S", "validate_family_params",
    ),
    "linalg": (
        "EQ_TOL", "MU_TOL", "OMEGA", "OMEGA2", "ORTHO_TOL", "format_matrix", "is_unitary",
        "parse_matrix",
    ),
    "search": (
        "ExtensionResult", "MUVectorSet", "OrthoGraph", "SearchConfig",
        "find_extension_basis", "find_mu_vectors", "orthogonality_graph",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "serialize"}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_SUBMODULES})
