"""Split transitive permutation representations into irreducible projectors.

The pipeline: parse generators -> orbitals and the ordered centralizer-algebra
basis -> integer structure constants -> central and block idempotents by
exact linear algebra over the tower (quadratic idempotency systems, Groebner
bases and solution points for what the tower cannot split) -> the
complete orthogonal family of irreducible projectors, verified algebraically
and (optionally) at matrix level.  Each public name is imported from its home
submodule on first use (PEP 562), so parsing alone loads neither mpmath nor
the Groebner stack; and mpmath, bound lazily in ``exactfield``, loads only at
the first value outside the tower, so exact splits never load it.
"""

from importlib import import_module

__version__ = "0.1.0"

# home submodule -> the public names it defines; each submodule is public too
_EXPORTS = {
    "errors": (
        "IncompleteDecomposition", "IntransitiveAction", "InvariantViolation", "MatrixCapExceeded",
        "NotZeroDimensional", "ParseError", "PermsplitError", "ResourceLimit", "SliceExhausted",
        "UNREPRESENTABLE", "Unrepresentable",
    ),
    "perms": (
        "GeneratorSet", "Permutation", "SchreierTree", "is_transitive", "orbit_with_tree",
        "parse_generators", "parse_generator_text",
    ),
    "centralizer": (
        "OrbitalBasis", "StructureConstants", "compute_orbitals", "compute_structure_constants",
        "order_basis",
    ),
    "exactfield": (
        "ComplexBall", "FieldElement", "field_element_from_json",
        "field_element_to_json", "parse_field_element", "render_field_element", "sqrt_if_nice",
    ),
    "polynomial": ("Poly", "Ring", "groebner_basis", "hilbert_dimension", "normal_form"),
    "solver": ("SolutionPoint", "particular_solution_on_slice", "solve_zero_dimensional"),
    "splitter": (
        "Decomposition", "Projector", "SplitConfig", "build_idempotency_system",
        "build_orthogonality_system", "process_single_solution", "split",
    ),
    "verify": ("compare_to_reference", "verify_family_algebraic", "verify_matrix_level"),
}
_HOME = {name: home for home, names in _EXPORTS.items() for name in (home, *names)}

__all__ = sorted(_HOME)


def __getattr__(name):
    """``name`` from its home submodule, kept here for the next access."""
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = import_module(f"{__name__}.{home}")
    globals()[name] = value = module if name == home else getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
