"""Verification of decompositions, and the arithmetic of coefficient vectors
in the centralizer algebra that it rests on.

``algebra_product``, ``primitivity_traces`` and the zero test ``_vanishes``
work on coefficient vectors in the ordered orbital basis, whose entries are
exact FieldElements or ComplexBall enclosures.  Each runs one loop: exact over
the tower when every entry is exact, and otherwise on every entry lifted to a
ball, so a numeric coordinate yields a certified enclosure.

Two routes.  The algebraic route works on the structure constants alone:
idempotency, orthogonality, completeness, trace integrality and
primitivity, at any degree.  It is also the splitter's certificate: a split
returns a family only when this route passes on it.  The matrix route
certifies the same family against the actual generators: it checks the
orbital basis itself on the N x N orbital label matrix (invariance under
every generator, A_1 = I, and closure of the products with a tensor it reads
off the matrix, independent of the splitter's), after which commutation,
trace, idempotency and completeness of every projector follow from its
coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING

import mpmath
import numpy as np

from .centralizer import OrbitalBasis, StructureConstants
from .errors import MatrixCapExceeded
from .exactfield import ComplexBall, FieldElement, as_ball, render_field_element
from .perms import GeneratorSet, orbit_with_tree
from .solver import DEFAULT_PRECISION

if TYPE_CHECKING:
    from .splitter import Decomposition, Projector

__all__ = [
    "algebra_product",
    "primitivity_traces",
    "is_unit_trace",
    "CheckResult",
    "VerificationReport",
    "verify_family_algebraic",
    "verify_matrix_level",
    "compare_to_reference",
]

NUMERIC_TOLERANCE = 1e-10
DEFAULT_MATRIX_CAP = 2000  # the orbital label matrix holds N^2 labels


# -- products in the centralizer algebra ---------------------------------------


def _lifted(values, precision):
    """``values`` as they are when every one is exact; else every one as a ball
    at ``precision``, so that exact and enclosed entries meet in one loop."""
    if all(isinstance(x, FieldElement) for x in values):
        return list(values)
    return [as_ball(x, precision) for x in values]


def _support(vec):
    """Indices of the entries of vec that are not exact zeros."""
    return [i for i, x in enumerate(vec) if not (isinstance(x, FieldElement) and x.is_zero())]


def algebra_product(consts: StructureConstants, a, b, precision=DEFAULT_PRECISION):
    """Coefficients of (sum a_p A_p)(sum b_q A_q) in the basis.

    Exact when both vectors are exact; otherwise every entry is lifted to a
    ball and the product is an enclosure.
    """
    rank = consts.rank
    with mpmath.workprec(precision + 40):
        lifted = _lifted((*a, *b), precision)
        la, lb = lifted[: len(a)], lifted[len(a) :]
        out = [FieldElement.zero()] * rank
        support_b = _support(b)
        for p in _support(a):
            for q in support_b:
                ab = la[p] * lb[q]
                col = consts.table[p + 1, q + 1]
                for r in range(rank):
                    c = int(col[r + 1])
                    if c:
                        out[r] = out[r] + ab * c
        return out


def _first_nonzero(vec, reference=None, precision=DEFAULT_PRECISION):
    """The first component r of vec - reference that is not zero, as (r, value);
    None when every component vanishes.

    Exact for FieldElements, by enclosure for balls (a ball is zero when it
    contains zero).  ``reference`` supplies the expected values to subtract.
    """
    with mpmath.workprec(precision + 40):
        for r, v in enumerate(vec, start=1):
            if reference is not None:
                v, want = _lifted((v, reference[r - 1]), precision)
                v = v - want
            if not (v.contains_zero() if isinstance(v, ComplexBall) else v.is_zero()):
                return r, v
    return None


def _vanishes(vec, reference=None, precision=DEFAULT_PRECISION):
    """Componentwise zero test of vec - reference."""
    return _first_nonzero(vec, reference, precision) is None


# -- the primitivity certificate ----------------------------------------------------


def primitivity_traces(consts: StructureConstants, vectors, precision=DEFAULT_PRECISION):
    """dim eAe = tr(x -> e x e) for each coefficient vector e.

    The map is L_e R_e, and its trace is the quadratic form e^T T e with the
    integer matrix T[p,s] = sum_qr C_pq^r C_rs^q.  For an idempotent e the
    map is idempotent, so the trace is its rank, and e is primitive exactly
    when the trace is 1.  Exact over the tower for exact vectors, a
    ComplexBall otherwise.
    """
    c = consts.table[1:, 1:, 1:]
    form = np.einsum("pqr,rsq->ps", c, c)
    pairs = [
        [(s, int(form[p, s])) for s in np.nonzero(form[p])[0]]
        for p in range(consts.rank)
    ]
    out = []
    with mpmath.workprec(precision + 40):
        for e in vectors:
            lifted = _lifted(e, precision)
            total = FieldElement.zero()
            for p in _support(e):
                if pairs[p]:
                    inner = FieldElement.zero()
                    for s, t in pairs[p]:
                        inner = inner + lifted[s] * t
                    total = total + lifted[p] * inner
            out.append(total)
    return out


def is_unit_trace(trace):
    """The trace certifies primitivity: exactly 1, or a ball of width below 1
    around 1 (the true value is an integer)."""
    if isinstance(trace, FieldElement):
        return trace == FieldElement.one()
    return (trace - 1).contains_zero() and trace.width() < 1


# -- reports and the algebraic route ---------------------------------------------------


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


def _witness(vec, reference=None, precision=DEFAULT_PRECISION):
    """The first nonvanishing component of vec - reference, printable."""
    hit = _first_nonzero(vec, reference, precision)
    if hit is None:
        return ""
    r, diff = hit
    return f"r={r}: {_render(diff)}"


def verify_family_algebraic(
    consts: StructureConstants, deco: Decomposition, precision=DEFAULT_PRECISION
):
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
        witness = _witness(sq, list(p.coefficients), precision)
        report.add(f"idempotency B[{m}] (d={p.dimension})", not witness, witness)
    # in a commutative algebra B_j*B_i = B_i*B_j: one product per unordered pair
    commutative = consts.is_commutative()
    witnesses = {}
    for m1 in range(len(deco.projectors)):
        for m2 in range(len(deco.projectors)):
            if m1 == m2:
                continue
            pair = (min(m1, m2), max(m1, m2)) if commutative else (m1, m2)
            if pair not in witnesses:
                a, b = (deco.projectors[m] for m in pair)
                prod = algebra_product(consts, a.coefficients, b.coefficients, precision)
                witnesses[pair] = _witness(prod, precision=precision)
            witness = witnesses[pair]
            report.add(f"orthogonality B[{m1 + 1}]*B[{m2 + 1}]", not witness, witness)
    # completeness: sum of projectors equals the identity vector
    identity = _unit_vector(rank)
    total = _coefficient_sum(deco.projectors, rank, precision)
    witness = _witness(total, identity, precision)
    report.add("completeness sum(B) = A1", not witness, witness)
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
        report.add(f"primitivity B[{m}]", ok, "" if ok else f"dim B A B = {_render(t)}")
    return report


def _render(x):
    """An exact value in tower notation, a ball by its midpoint."""
    if isinstance(x, FieldElement):
        return render_field_element(x)
    return f"~{complex(x.mid)}"


def _unit_vector(rank):
    """Coefficients of the identity matrix A_1."""
    return [FieldElement.one()] + [FieldElement.zero()] * (rank - 1)


def _coefficient_sum(projectors, rank, precision):
    """Coefficients of sum_m B[m]; exact when every coefficient is exact."""
    total = [FieldElement.zero()] * rank
    with mpmath.workprec(precision + 40):
        lifted = _lifted([c for p in projectors for c in p.coefficients], precision)
        for m in range(0, len(lifted), rank):
            total = [a + c for a, c in zip(total, lifted[m : m + rank])]
    return total


# -- matrix-level checks -----------------------------------------------------------


def orbital_label_matrix(basis: OrbitalBasis):
    """The N x N integer matrix L with L[i, j] = r for (i+1, j+1) in Delta_r."""
    n = basis.degree
    labels = np.empty((n, n), dtype=np.int64)
    for x in range(1, n + 1):
        labels[x - 1] = basis.orbital_row(x)
    return labels


def tensor_from_label_matrix(labels, base, rank):
    """T[p, q, r] = #{k : L[b, k] = p, L[k, j] = q} read off the base row b.

    The count is taken at the first j of row b with L[b, j] = r.  Also
    returns whether every j with L[b, j] = r gives the same counts, i.e.
    whether row b of A_p A_q equals row b of sum_r T_pq^r A_r.  Labels must
    lie in 1..rank.  One p at a time, so the extra memory stays O(N^2).
    """
    n = labels.shape[0]
    row = labels[base - 1]
    present, first = np.unique(row, return_index=True)
    table = np.zeros((rank + 1,) * 3, dtype=np.int64)
    consistent = True
    for p in range(1, rank + 1):
        keys = labels[row == p]
        keys *= n
        keys += np.arange(n)
        counts = np.bincount(keys.ravel(), minlength=(rank + 1) * n).reshape(rank + 1, n)
        table[p][:, present] = counts[:, first]
        consistent = consistent and np.array_equal(counts, table[p][:, row])
    table.setflags(write=False)
    return table, consistent


def verify_matrix_level(
    gens: GeneratorSet,
    basis: OrbitalBasis,
    deco: Decomposition,
    mode="exact",
    matrix_cap=DEFAULT_MATRIX_CAP,
    precision=DEFAULT_PRECISION,
):
    """Certify the family as N x N matrices acting with the real generators.

    Every B = sum_r b_r A_r, so only the basis is checked against ``gens``,
    on the orbital label matrix L (L[i, j] = r for (i, j) in Delta_r):

    * invariance: ``gens`` acts transitively and L[s(i), s(j)] = L[i, j] for
      every generator s, so every A_r, hence every B, commutes with the group;
    * diagonal: L = 1 exactly on the diagonal, so A_1 = I and tr A_r = 0 for
      r > 1;
    * closure: T[p, q, r] read off the base row is the same for every pair of
      Delta_r in that row.  With invariance and transitivity a G-invariant
      matrix is fixed by its base row, so A_p A_q = sum_r T_pq^r A_r.

    Each projector then gets commutation, trace (N b_1 = d) and idempotency
    (B^2 = B through T, not the splitter's tensor), and the family gets
    completeness (sum b = e_1, so sum B = I).  These are exact over the
    tower for exact coefficients and certified enclosures for numeric ones.
    Known limit: the check does not prove that the A_r span the whole
    commutant, so a G-invariant fusion of orbitals would pass.

    ``mode`` is accepted for compatibility only; it selects nothing.  Raises
    MatrixCapExceeded above ``matrix_cap`` points, since L holds N^2 labels.
    """
    n = basis.degree
    if n > matrix_cap:
        raise MatrixCapExceeded(f"degree {n} exceeds matrix cap {matrix_cap}")
    if mode not in ("exact", "numeric"):
        raise ValueError("mode must be 'exact' or 'numeric'")
    rank = basis.rank
    report = VerificationReport()
    labels = orbital_label_matrix(basis)
    invariant = len(orbit_with_tree(gens, basis.base)[0]) == n and all(
        np.array_equal(labels[np.ix_(s.images0, s.images0)], labels)
        for s in gens.generators
    )
    report.add("invariance L[s(i), s(j)] = L[i, j] for all generators", invariant)
    diagonal = bool(
        labels.min() >= 1
        and labels.max() <= rank
        and (np.diagonal(labels) == 1).all()
        and np.count_nonzero(labels == 1) == n
    )
    report.add("diagonal L[i, j] = 1 exactly when i = j", diagonal)
    table, consistent = (
        tensor_from_label_matrix(labels, basis.base, rank)
        if diagonal
        else (np.zeros((rank + 1,) * 3, dtype=np.int64), False)
    )
    closed = invariant and consistent
    report.add("closure A_p A_q = sum_r T_pq^r A_r", closed)
    tensor = StructureConstants(rank=rank, table=table)

    for m, p in enumerate(deco.projectors, start=1):
        report.add(f"commutation B[{m}] with all generators", invariant)
        b1 = p.coefficients[:1]
        d_over_n = [FieldElement.from_rational(Fraction(p.dimension, n))]
        witness = _witness(b1, d_over_n, precision)
        report.add(f"trace B[{m}] = {p.dimension}", diagonal and not witness, witness)
        sq = algebra_product(tensor, p.coefficients, p.coefficients, precision)
        coeffs = list(p.coefficients)
        witness = _witness(sq, coeffs, precision)
        report.add(f"idempotency B[{m}]^2 = B[{m}] (matrix)", closed and not witness, witness)
    total = _coefficient_sum(deco.projectors, rank, precision)
    identity = _unit_vector(rank)
    witness = _witness(total, identity, precision)
    report.add("completeness sum(B) = I (matrix)", diagonal and not witness, witness)
    return report


# -- reference comparison ------------------------------------------------------------


def _coeffs_equal(a, b, precision=DEFAULT_PRECISION):
    a, b = _lifted((a, b), precision)
    if isinstance(a, FieldElement):
        return a == b
    diff = a - b
    tol = mpmath.mpf(NUMERIC_TOLERANCE) * (1 + abs(b.mid))
    return bool(abs(diff.mid) <= max(diff.rad, tol))


def _all_equal(coeffs, ref_coeffs):
    return all(_coeffs_equal(x, y) for x, y in zip(coeffs, ref_coeffs))


def _match(deco: Decomposition, ref: Decomposition, conjugate):
    """Whether each computed projector matches, in order (see
    ``compare_to_reference``); with ``conjugate`` the computed family is
    conjugated first."""
    def coefficients(p):
        return p.conjugate_coefficients() if conjugate else p.coefficients

    used = set()
    matched = {}
    for i, p in enumerate(deco.projectors):
        if p.block is not None:
            continue
        j = next(
            (
                j for j, q in enumerate(ref.projectors)
                if j not in used and q.dimension == p.dimension
                and _all_equal(coefficients(p), q.coefficients)
            ),
            None,
        )
        if j is not None:
            used.add(j)
        matched[i] = j is not None
    for d in {p.block for p in deco.projectors} - {None}:
        members = [i for i, p in enumerate(deco.projectors) if p.block == d]
        theirs = [q for j, q in enumerate(ref.projectors) if j not in used and q.dimension == d]
        ok = len(theirs) == len(members)
        if ok:
            mine = [deco.projectors[i] for i in members]
            total = _coefficient_sum(mine, deco.rank, DEFAULT_PRECISION)
            if conjugate:
                total = [c.conjugate() for c in total]
            ok = _all_equal(total, _coefficient_sum(theirs, ref.rank, DEFAULT_PRECISION))
        matched.update((i, ok) for i in members)
    return [matched[i] for i in range(len(deco.projectors))]


def compare_to_reference(deco: Decomposition, ref: Decomposition):
    """Match the computed projectors with the reference's, by dimension and
    exact coefficient equality (within the enclosures for numeric ones).

    A projector outside a multiplicity block is the only primitive
    idempotent of its isotypic component, so it must equal a reference
    projector of its dimension.  Inside a block the primitive idempotents
    are not unique, but the members of block d make up whole components, so
    their sum is: it must equal the sum of the reference projectors of
    dimension d that no projector outside a block took, and their count the
    block's.  That those reference projectors are primitive orthogonal
    idempotents is left to ``verify_family_algebraic`` on the reference,
    which ``permsplit verify`` runs as well.  The matching tolerates
    reordering within equal-dimension groups and one simultaneous complex
    conjugation of the whole computed family.  There is one line per
    projector outside a block and one per block.
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

    matched = _match(deco, ref, conjugate=False)
    note = ""
    if not all(matched) and deco.exact_only():
        conjugated = _match(deco, ref, conjugate=True)
        if all(conjugated):
            matched, note = conjugated, " (conjugated)"
    # on failure the lines are the results of the direct orientation
    seen = set()
    for i, (p, ok) in enumerate(zip(deco.projectors, matched), start=1):
        if p.block is None:
            report.add(f"projector {i} (d={p.dimension}) match{note}", ok)
        elif p.block not in seen:
            seen.add(p.block)
            members = [m for m, q in enumerate(deco.projectors, start=1) if q.block == p.block]
            listed = ", ".join(map(str, members))
            report.add(f"block d={p.block} (projectors {listed}) sum match{note}", ok)
    return report
