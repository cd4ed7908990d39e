"""Mutually unbiased product-basis pairs in dimension six.

Construct the four catalogued families of MU product-basis pairs, replay
their reductions to the standard forms {I, F(xi, eta)} and {I, S6}, and
search numerically for vectors and bases that extend a given pair.
"""

from .bases import (
    Basis,
    MUCheck,
    MUPair,
    PhaseWitness,
    ProductLabel,
    hw_eigenbasis,
    is_mu_pair,
    product_basis,
    same_basis_up_to_phase,
)
from .equivalence import (
    HadamardFingerprint,
    Move,
    apply_script,
    dephase,
    fourier_family,
    ftilde_to_fourier,
    haagerup_fingerprint,
    reduce_P1,
    reduce_P2,
    reduce_P3,
)
from .errors import (
    DimensionError,
    FormatError,
    InvalidMoveError,
    Mub6Error,
    NotABasisError,
    NotHadamardError,
    NotMUPairError,
    ParameterRangeError,
)
from .families import (
    FAMILY_IDS,
    FamilyParams,
    make_family_pair,
    make_Ftilde,
    make_Itilde,
    make_R,
    make_S,
    validate_family_params,
)
from .linalg import (
    EQ_TOL,
    MU_TOL,
    OMEGA,
    OMEGA2,
    ORTHO_TOL,
    format_matrix,
    is_unitary,
    parse_matrix,
)
from .search import (
    ExtensionResult,
    MUVectorSet,
    OrthoGraph,
    SearchConfig,
    find_extension_basis,
    find_mu_vectors,
    mu_residual,
    orthogonality_graph,
)

__version__ = "0.1.0"
