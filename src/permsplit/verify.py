"""Independent verification of decompositions.

Two routes: algebraic (structure constants only, exact over the tower, any
degree) and matrix-level (materializes each projector as sparse rows and
checks commutation with the generators, idempotency, and traces).  The
algebraic route is the primary certificate; the matrix route is the
independent cross-check against the actual group action.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import mpmath
import numpy as np

from .centralizer import OrbitalBasis, StructureConstants
from .errors import MatrixCapExceeded
from .exactfield import ComplexBall, FieldElement, render_field_element
from .perms import GeneratorSet
from .splitter import (
    Decomposition,
    Projector,
    algebra_product,
    is_unit_trace,
    primitivity_traces,
    _as_ball,
    _vanishes,
)

__all__ = [
    "CheckResult",
    "VerificationReport",
    "verify_family_algebraic",
    "verify_matrix_level",
    "compare_to_reference",
]

NUMERIC_TOLERANCE = 1e-10


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witness: str = ""


@dataclass
class VerificationReport:
    checks: list = field(default_factory=list)

    def add(self, name, passed, witness=""):
        self.checks.append(CheckResult(name, passed, witness))

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def lines(self):
        out = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            tail = f"  [{c.witness}]" if (c.witness and not c.passed) else ""
            out.append(f"{status}  {c.name}{tail}")
        return out


def _witness(vec, reference=None):
    """First nonvanishing component as a printable witness."""
    for r, v in enumerate(vec, start=1):
        want = None if reference is None else reference[r - 1]
        if isinstance(v, FieldElement) and (want is None or isinstance(want, FieldElement)):
            diff = v if want is None else v - want
            if not diff.is_zero():
                return f"r={r}: {render_field_element(diff)}"
        else:
            b = v if isinstance(v, ComplexBall) else _as_ball(v, 128)
            if want is not None:
                w = want if isinstance(want, ComplexBall) else _as_ball(want, 128)
                b = b - w
            if not b.contains_zero():
                return f"r={r}: ~{complex(b.mid)}"
    return ""


def verify_family_algebraic(consts: StructureConstants, deco: Decomposition, precision=128):
    """Idempotency, pairwise orthogonality, completeness, trace integrality
    and primitivity (dim B A B = 1, so no projector splits further).

    All checks run exactly over the tower for exact projectors; coordinates
    flagged numeric are checked through their certified enclosures.
    """
    report = VerificationReport()
    rank = consts.rank
    n = deco.degree
    for m, p in enumerate(deco.projectors, start=1):
        sq = algebra_product(consts, p.coefficients, p.coefficients, precision)
        ok = _vanishes(sq, reference=list(p.coefficients), precision=precision)
        report.add(
            f"idempotency B[{m}] (d={p.dimension})",
            ok,
            "" if ok else _witness(sq, list(p.coefficients)),
        )
    for m1 in range(len(deco.projectors)):
        for m2 in range(len(deco.projectors)):
            if m1 == m2:
                continue
            a = deco.projectors[m1]
            b = deco.projectors[m2]
            prod = algebra_product(consts, a.coefficients, b.coefficients, precision)
            ok = _vanishes(prod, precision=precision)
            report.add(
                f"orthogonality B[{m1 + 1}]*B[{m2 + 1}]",
                ok,
                "" if ok else _witness(prod),
            )
    # completeness: sum of projectors equals the identity vector
    identity = [FieldElement.one()] + [FieldElement.zero()] * (rank - 1)
    total = []
    for r in range(rank):
        acc = None
        for p in deco.projectors:
            c = p.coefficients[r]
            acc = c if acc is None else _add_mixed(acc, c, precision)
        total.append(acc)
    ok = _vanishes(total, reference=identity, precision=precision)
    report.add("completeness sum(B) = A1", ok, "" if ok else _witness(total, identity))
    dims_ok = sum(p.dimension for p in deco.projectors) == n
    report.add(
        "completeness sum(d) = N",
        dims_ok,
        "" if dims_ok else f"{sum(p.dimension for p in deco.projectors)} != {n}",
    )
    for m, p in enumerate(deco.projectors, start=1):
        b1 = p.coefficients[0]
        ok = (
            isinstance(b1, FieldElement)
            and b1.is_rational()
            and b1.rational_value() * n == p.dimension
            and p.dimension > 0
        )
        report.add(f"trace integrality B[{m}]: N*b1 = d", ok)
    traces = primitivity_traces(
        consts, [p.coefficients for p in deco.projectors], precision
    )
    for m, t in enumerate(traces, start=1):
        ok = is_unit_trace(t)
        report.add(f"primitivity B[{m}]", ok, "" if ok else f"dim B A B = {_render_trace(t)}")
    return report


def _render_trace(t):
    if isinstance(t, FieldElement):
        return render_field_element(t)
    return f"~{complex(t.mid)}"


def _add_mixed(a, b, precision):
    if isinstance(a, FieldElement) and isinstance(b, FieldElement):
        return a + b
    return _as_ball(a, precision) + _as_ball(b, precision)


# -- matrix-level checks -----------------------------------------------------------


def _projector_rows_exact(basis: OrbitalBasis, projector: Projector):
    """Sparse rows {i: {j: coeff}} of P = sum_r b_r A_r, 0-based points.

    Row i of A_r is the suborbit paired with the base, translated by the tree
    word of i; nothing dense in N is allocated beyond the rows themselves.
    """
    n = basis.degree
    tree = basis.tree
    members = {
        r: [p - 1 for p in basis.suborbit_members(r)]
        for r in range(1, basis.rank + 1)
        if not _coeff_is_zero(projector.coefficients[r - 1])
    }
    rows = []
    for i0 in range(n):
        word = tree.word_to(i0 + 1)
        row = {}
        for r, pts in members.items():
            c = projector.coefficients[r - 1]
            for y0 in pts:
                row[tree.apply_word0(word, y0)] = c
        rows.append(row)
    return rows


def _coeff_is_zero(c):
    if isinstance(c, FieldElement):
        return c.is_zero()
    return False


def verify_matrix_level(
    gens: GeneratorSet,
    basis: OrbitalBasis,
    deco: Decomposition,
    mode="exact",
    matrix_cap=2000,
    precision=128,
):
    """Materialized checks: P p(s) = p(s) P entrywise, P^2 = P, tr P = d.

    Commutation is verified as an index-permutation identity (P[i^s][j^s] ==
    P[i][j]), never by a full product.  ``exact`` mode needs every projector
    exact and N within the cap; ``numeric`` mode evaluates coefficients to
    complex and compares with relative tolerance 1e-10.
    """
    report = VerificationReport()
    n = basis.degree
    if n > matrix_cap:
        raise MatrixCapExceeded(f"degree {n} exceeds matrix cap {matrix_cap}")
    if mode not in ("exact", "numeric"):
        raise ValueError("mode must be 'exact' or 'numeric'")
    if mode == "exact" and not deco.exact_only():
        mode = "numeric"
        report.add("mode downgrade to numeric (numeric projectors present)", True)

    if mode == "exact":
        for m, p in enumerate(deco.projectors, start=1):
            rows = _projector_rows_exact(basis, p)
            ok = True
            for s in gens.generators:
                img = s.images0
                for i0 in range(n):
                    row = rows[i0]
                    target = rows[int(img[i0])]
                    if len(row) != len(target):
                        ok = False
                        break
                    for j0, c in row.items():
                        if target.get(int(img[j0])) != c:
                            ok = False
                            break
                    if not ok:
                        break
                if not ok:
                    break
            report.add(f"commutation B[{m}] with all generators", ok)
            trace = FieldElement.zero()
            for i0 in range(n):
                trace = trace + rows[i0].get(i0, FieldElement.zero())
            ok = trace == Fraction(p.dimension)
            report.add(f"trace B[{m}] = {p.dimension}", ok)
            ok = True
            for i0 in range(n):
                acc = {}
                for k0, c in rows[i0].items():
                    for j0, c2 in rows[k0].items():
                        prev = acc.get(j0)
                        v = c * c2 if prev is None else prev + c * c2
                        if v.is_zero():
                            acc.pop(j0, None)
                        else:
                            acc[j0] = v
                if acc != {j: c for j, c in rows[i0].items() if not c.is_zero()}:
                    ok = False
                    break
            report.add(f"idempotency B[{m}]^2 = B[{m}] (matrix)", ok)
        return report

    # numeric mode
    mats = []
    with mpmath.workprec(precision + 20):
        for p in deco.projectors:
            mat = np.zeros((n, n), dtype=np.complex128)
            coeffs = []
            for c in p.coefficients:
                b = c if isinstance(c, ComplexBall) else c.to_complex(precision)
                coeffs.append(complex(b.mid))
            tree = basis.tree
            for i0 in range(n):
                word = tree.word_to(i0 + 1)
                for r in range(1, basis.rank + 1):
                    if coeffs[r - 1] == 0:
                        continue
                    for y in basis.suborbit_members(r):
                        mat[i0, tree.apply_word0(word, y - 1)] = coeffs[r - 1]
            mats.append(mat)
    for m, (p, mat) in enumerate(zip(deco.projectors, mats), start=1):
        scale = max(np.abs(mat).max(), 1.0)
        ok = True
        for s in gens.generators:
            img = s.images0
            if np.abs(mat[np.ix_(img, img)] - mat).max() > NUMERIC_TOLERANCE * scale:
                ok = False
                break
        report.add(f"commutation B[{m}] with all generators", ok)
        tr = np.trace(mat)
        ok = abs(tr - p.dimension) <= NUMERIC_TOLERANCE * max(p.dimension, 1)
        report.add(f"trace B[{m}] = {p.dimension}", ok, f"trace ~ {tr:.3e}")
        resid = np.abs(mat @ mat - mat).max()
        report.add(
            f"idempotency B[{m}]^2 = B[{m}] (matrix)",
            resid <= NUMERIC_TOLERANCE * scale * max(1.0, np.abs(mat).max() * n**0.5),
            f"residual {resid:.3e}",
        )
    total = sum(mats)
    resid = np.abs(total - np.eye(n)).max()
    report.add(
        "completeness sum(B) = I (matrix)",
        resid <= NUMERIC_TOLERANCE * max(1.0, len(mats)),
        f"residual {resid:.3e}",
    )
    return report


# -- reference comparison ------------------------------------------------------------


def _coeffs_equal(a, b, precision=128):
    if isinstance(a, FieldElement) and isinstance(b, FieldElement):
        return a == b
    ba = a if isinstance(a, ComplexBall) else _as_ball(a, precision)
    bb = b if isinstance(b, ComplexBall) else _as_ball(b, precision)
    diff = ba - bb
    tol = mpmath.mpf(NUMERIC_TOLERANCE) * (1 + abs(bb.mid))
    return bool(abs(diff.mid) <= max(diff.rad, tol))


def _projector_matches(a: Projector, b: Projector, conjugate):
    if a.dimension != b.dimension:
        return False
    coeffs = a.coefficients
    if conjugate:
        if not a.exact:
            return False
        coeffs = a.conjugate_coefficients()
    return all(_coeffs_equal(x, y) for x, y in zip(coeffs, b.coefficients))


def compare_to_reference(deco: Decomposition, ref: Decomposition):
    """Match projectors by dimension, then by exact coefficient equality.

    The matching tolerates reordering within equal-dimension groups and one
    simultaneous complex conjugation of the whole computed family.
    """
    report = VerificationReport()
    if deco.degree != ref.degree or deco.rank != ref.rank:
        report.add(
            "frame (degree, rank) agreement",
            False,
            f"computed ({deco.degree},{deco.rank}) vs reference ({ref.degree},{ref.rank})",
        )
        return report
    report.add("frame (degree, rank) agreement", True)
    if deco.suborbit_lengths != ref.suborbit_lengths:
        report.add("suborbit lengths agreement", False)
        return report
    report.add("suborbit lengths agreement", True)

    def attempt(conjugate):
        used = set()
        assignment = {}
        for i, p in enumerate(deco.projectors):
            found = None
            for j, q in enumerate(ref.projectors):
                if j in used:
                    continue
                if _projector_matches(p, q, conjugate):
                    found = j
                    break
            if found is None:
                return None
            used.add(found)
            assignment[i] = found
        return assignment

    assignment = attempt(conjugate=False)
    conj_used = False
    if assignment is None and deco.exact_only():
        assignment = attempt(conjugate=True)
        conj_used = assignment is not None
    if assignment is None:
        # give per-projector diagnostics under the direct orientation
        used = set()
        for i, p in enumerate(deco.projectors):
            found = None
            for j, q in enumerate(ref.projectors):
                if j in used:
                    continue
                if _projector_matches(p, q, False):
                    found = j
                    break
            if found is None:
                report.add(f"projector {i + 1} (d={p.dimension}) match", False)
            else:
                used.add(found)
                report.add(f"projector {i + 1} (d={p.dimension}) match", True)
        return report
    for i, p in enumerate(deco.projectors):
        note = " (conjugated)" if conj_used else ""
        report.add(f"projector {i + 1} (d={p.dimension}) match{note}", True)
    return report
