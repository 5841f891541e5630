"""Exact computer algebra for finite-dimensional non-commutative Poisson
algebras: axiom validation, PBW enveloping algebras, the quasi-Poisson
enveloping smash product, degree-truncated quotient probes, and the
equivalence between Poisson modules and enveloping-algebra modules.
"""

from .limits import DegreeCapExceeded
from .linalg import (
    SparseVector,
    Subspace,
    join_and_reduce,
    saturate_closure,
)
from .ncpa import (
    NCPA,
    AlgebraPresentation,
    NcpaValidationError,
    PresentationError,
    axiom_violations,
    center,
    is_poisson_simple,
    poisson_ideal_closure,
    regular_poisson_structures,
    standard_ncpa,
    validate_ncpa,
)
from .pbw import straighten, u_monomials, u_mult
from .poisson_modules import (
    EnvAction,
    QuasiPoissonModule,
    action_to_module,
    annihilator,
    j_annihilation_check,
    module_to_action,
    poisson_violations,
    quasi_violations,
    quotient_module,
    regular_module,
    roundtrip_report,
    standard_bimodule_to_poisson,
    tensor_square_module,
)
from .smash import (
    embed,
    generator_relation_failures,
    q_identity,
    q_mult,
)
from .truncation import (
    IdealGens,
    TruncatedQuotient,
    dimension_table,
    ideal_i_gens,
    ideal_j_gens,
    ideal_oh_gens,
    truncated_ideal_span,
)
from .words import ordered_partitions, shuffle_coproduct

__version__ = "0.1.0"
