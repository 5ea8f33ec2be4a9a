"""Rational R-matrix with adjoint SU(n) symmetry and the induced spin chain.

The package constructs the orthonormal su(n) basis and structure constants,
decomposes the adjoint tensor square into irreducible submodules, assembles
the intertwiner and R-matrix from their closed-form coefficients, verifies
the Yang-Baxter equation and the supporting operator identities, and builds
the (non-Hermitian) integrable chain Hamiltonian with its diagnostics.
"""

from .numerics import DEFAULT_TOL, Tolerance
from .liealg import SunBasis, build_basis, matrix_unit, structure_constants
from .adjoint_tensor import (
    AdjointRep,
    Decomposition,
    Submodule,
    adjoint_rep,
    build_decomposition,
    casimir_op,
    highest_weight_vectors,
)
from .rmatrix import (
    CoefficientSet,
    asymptotic_check,
    build_R,
    build_R_tilde,
    build_intertwiner,
    derive_coefficients,
    ybe_residual,
)
from .spinchain import (
    SpinOperators,
    chain_H,
    local_h,
    spin_operators,
    spinform_h,
    transfer_matrix,
    verify_spinform,
)
from .yangian_action import delta_action, level1_action

__version__ = "0.1.0"

__all__ = [
    "AdjointRep",
    "CoefficientSet",
    "DEFAULT_TOL",
    "Decomposition",
    "SpinOperators",
    "Submodule",
    "SunBasis",
    "Tolerance",
    "adjoint_rep",
    "asymptotic_check",
    "build_R",
    "build_R_tilde",
    "build_basis",
    "build_decomposition",
    "build_intertwiner",
    "casimir_op",
    "chain_H",
    "delta_action",
    "derive_coefficients",
    "highest_weight_vectors",
    "level1_action",
    "local_h",
    "matrix_unit",
    "spin_operators",
    "spinform_h",
    "structure_constants",
    "transfer_matrix",
    "verify_spinform",
    "ybe_residual",
]
