"""Split transitive permutation representations into irreducible projectors.

The pipeline: parse generators -> orbitals and the ordered centralizer-algebra
basis -> integer structure constants -> central and block idempotents by
exact linear algebra over the tower (quadratic idempotency systems, Groebner
bases and solution points for what the tower cannot split) -> the
complete orthogonal family of irreducible projectors, verified algebraically
and (optionally) at matrix level.
"""

from .errors import (
    IncompleteDecomposition,
    IntransitiveAction,
    InvariantViolation,
    MatrixCapExceeded,
    NotZeroDimensional,
    ParseError,
    PermsplitError,
    ResourceLimit,
    SliceExhausted,
    UNREPRESENTABLE,
    Unrepresentable,
)
from .perms import (
    GeneratorSet,
    Permutation,
    SchreierTree,
    is_transitive,
    orbit_with_tree,
    parse_generators,
    parse_generator_text,
)
from .centralizer import (
    OrbitalBasis,
    StructureConstants,
    compute_orbitals,
    compute_structure_constants,
    order_basis,
)
from .exactfield import (
    ComplexBall,
    FieldElement,
    Rational,
    field_element_from_json,
    field_element_to_json,
    parse_field_element,
    render_field_element,
    sqrt_if_nice,
)
from .polynomial import (
    Poly,
    Ring,
    groebner_basis,
    hilbert_dimension,
    normal_form,
)
from .solver import (
    SolutionPoint,
    particular_solution_on_slice,
    solve_zero_dimensional,
)
from .splitter import (
    Decomposition,
    Projector,
    SplitConfig,
    build_idempotency_system,
    build_orthogonality_system,
    process_single_solution,
    split,
)
from .verify import (
    compare_to_reference,
    verify_family_algebraic,
    verify_matrix_level,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
