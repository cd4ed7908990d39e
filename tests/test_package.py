import importlib
import os
import subprocess
import sys
import types

import pytest

import mub6

# Home module -> the names `mub6` re-exports from it.
_EXPORTS = {
    "bases": ["Basis", "MUCheck", "MUPair", "PhaseWitness", "ProductLabel", "hw_eigenbasis",
              "is_mu_pair", "product_basis", "same_basis_up_to_phase"],
    "equivalence": ["HadamardFingerprint", "Move", "apply_script", "dephase", "fourier_family",
                    "ftilde_to_fourier", "haagerup_fingerprint", "reduce_P1", "reduce_P2", "reduce_P3"],
    "errors": ["DimensionError", "FormatError", "InvalidMoveError", "Mub6Error", "NotABasisError",
               "NotHadamardError", "NotMUPairError", "ParameterRangeError"],
    "families": ["FAMILY_IDS", "FamilyParams", "make_family_pair", "make_Ftilde", "make_Itilde",
                 "make_R", "make_S", "validate_family_params"],
    "linalg": ["EQ_TOL", "MU_TOL", "OMEGA", "OMEGA2", "ORTHO_TOL", "format_matrix", "is_unitary",
               "parse_matrix"],
    "search": ["ExtensionResult", "MUVectorSet", "OrthoGraph", "SearchConfig", "find_extension_basis",
               "find_mu_vectors", "orthogonality_graph"],
}
_NAMES = [name for names in _EXPORTS.values() for name in names]
_SUBMODULES = [*_EXPORTS, "cli", "serialize"]


@pytest.mark.parametrize("home, name", [(home, name) for home, names in _EXPORTS.items() for name in names])
def test_a_reexported_name_is_its_home_module_object(home, name):
    assert getattr(mub6, name) is getattr(importlib.import_module(f"mub6.{home}"), name)


def test_a_bare_import_loads_no_module_and_every_submodule_resolves():
    src = os.path.dirname(os.path.dirname(mub6.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, mub6\n"
        "print(*sorted(m for m in sys.modules if m.startswith('mub6')))\n"
        f"print(*(getattr(mub6, name).__name__ for name in {_SUBMODULES!r}))\n"
        "print(mub6.search.find_mu_vectors is mub6.find_mu_vectors)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == ["mub6", " ".join(f"mub6.{name}" for name in _SUBMODULES), "True"]


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        mub6.no_such_name
    with pytest.raises(ImportError):
        from mub6 import no_such_name  # noqa: F401
    # A private name of a submodule is not re-exported.
    assert not hasattr(mub6, "_PARAM_NAMES")


def test_dir_and_star_import_list_the_public_names():
    assert set(_NAMES) | set(_SUBMODULES) <= set(dir(mub6))
    namespace = {}
    exec("from mub6 import *", namespace)
    assert set(_NAMES) <= set(namespace)
    assert all(isinstance(getattr(mub6, name), types.ModuleType) for name in _SUBMODULES)
