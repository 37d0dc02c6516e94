"""Exact Poisson-algebra engine for solvable Lie algebras.

Everything is computed over the rationals with exact arithmetic: sparse
Laurent polynomials, structure-constant Lie algebras, bracket tables with
quotients and localizations, degree-bounded semi-invariant searches, the
Weyl-factor decomposition of solvable quotients, and the simple family
built from a skew form and a weight lattice.
"""

from .bvwg import (
    BVWG,
    build,
    embed_in_weyl,
    growth_exponent,
    invariants,
    is_simple,
    make_spec,
    realize_from_lie,
)
from .decompose import (
    DecompositionResult,
    check_84,
    decompose,
    decompose_nilpotent,
    verify_decomposition,
)
from .invariants import (
    SemiInvariantReport,
    center_up_to_degree,
    ghat,
    present_over_ghat,
    semi_invariants,
)
from .lie import (
    JordanHolderData,
    LieAlgebra,
    Subspace,
    Weight,
    common_eigenvector,
    is_nilpotent,
    is_solvable,
    jordan_holder,
    nilradical,
    series,
    verify_lie,
)
from .poisson import (
    Derivation,
    LocalElement,
    PoissonAlgebra,
    SubstitutionIdeal,
    canonical_from_lie,
    epsilon_derivation,
    ideal_from_pairs,
    inner_derivation,
    is_p_derivation,
    is_stable_ideal,
    localize,
    poisson_algebra,
    quotient,
    reduced_algebra,
    skew_extend,
    tensor,
)
from .polys import Poly, VarSpec, make_vars, parse_poly
from .weyl import (
    ChiContext,
    WeylPresentation,
    chi_context,
    chi_forward,
    chi_inverse,
    chi_tensor,
    extract_core,
    integrate_potential,
    split_derivation,
    tensor_presentation_check,
    weyl_bracket_via_partials,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
