"""One operation through the public pipeline, and the gate that checks it.

An operation takes one parsed generator set to a verified, rendered
decomposition, calling the library the way ``permsplit split`` does.  Every
call goes through a module attribute so that the tracer can wrap it.  The
gate runs afterwards, outside the timed region.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from permsplit import centralizer, cli, perms, splitter, verify
from permsplit.errors import PermsplitError
from permsplit.exactfield import FieldElement


@dataclass
class Outcome:
    """What one operation produced; ``error`` is set when it raised."""

    deco: object = None
    text: str = None
    algebraic_passed: bool = False
    matrix_passed: bool = None  # None when matrix verification was not asked for
    error: str = None


def parse_inputs(inputs):
    """Fresh GeneratorSets, so no cached inverse array outlives a repeat."""
    return [perms.parse_generator_text(inp.text) for inp in inputs]


def run_operation(gens, verify_matrix):
    config = splitter.SplitConfig()
    try:
        basis = centralizer.compute_orbitals(gens, rank_cap=config.rank_cap)
        consts = centralizer.compute_structure_constants(gens, basis, threads=config.threads)
        deco = splitter.split_from_constants(basis, consts, config)
        out = Outcome(deco=deco)
        report = verify.verify_family_algebraic(consts, deco, precision=config.precision)
        out.algebraic_passed = report.passed
        if verify_matrix:
            mreport = verify.verify_matrix_level(
                gens, basis, deco,
                mode="exact" if deco.exact_only() else "numeric",
                matrix_cap=config.matrix_cap, precision=config.precision,
            )
            out.matrix_passed = mreport.passed
        out.text = cli.render_decomposition_text(deco)
    except PermsplitError as e:
        return Outcome(error=f"{type(e).__name__}: {e}")
    return out


def _same_decomposition(deco, parsed):
    if [p.dimension for p in deco.projectors] != [p.dimension for p in parsed.projectors]:
        return False
    if [p.exact for p in deco.projectors] != [p.exact for p in parsed.projectors]:
        return False
    return verify.compare_to_reference(deco, parsed).passed


def gate(inp, outcome, reference_text=None):
    """Reasons the operation failed; an empty list means it passed.

    ``reference_text`` is the report the same input rendered in an earlier
    repeat with the same seed; it must match byte for byte.
    """
    if outcome.error:
        return [outcome.error]
    problems = []
    dims = tuple(outcome.deco.dimension_multiset)
    if dims != tuple(inp.expected_dims):
        problems.append(f"dimensions {list(dims)} != expected {list(inp.expected_dims)}")
    if not outcome.algebraic_passed:
        problems.append("algebraic verification failed")
    if inp.verify_matrix and outcome.matrix_passed is not True:
        problems.append("matrix-level verification failed")
    if reference_text is not None and outcome.text != reference_text:
        problems.append("text report differs from an earlier repeat")
    try:
        if not _same_decomposition(outcome.deco, cli.parse_decomposition_text(outcome.text)):
            problems.append("text report does not round-trip")
        as_json = json.loads(json.dumps(cli.decomposition_to_json(outcome.deco)))
        if not _same_decomposition(outcome.deco, cli.decomposition_from_json(as_json)):
            problems.append("JSON report does not round-trip")
    except PermsplitError as e:
        problems.append(f"report does not parse back: {type(e).__name__}: {e}")
    return problems


def exact_coefficients(outcome):
    """(exact, all) projector coefficient counts of one outcome."""
    if outcome.deco is None:
        return 0, 0
    coeffs = [c for p in outcome.deco.projectors for c in p.coefficients]
    return sum(isinstance(c, FieldElement) for c in coeffs), len(coeffs)
