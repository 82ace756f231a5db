"""Verification of decompositions, and the arithmetic of coefficient vectors
in the centralizer algebra that it rests on.

Every product of coefficient vectors in the ordered orbital basis is one
contraction, ``_contract``: for a batch of pairs (a, b), out[k] =
sum_pq a_p b_q T[p, q, k] for an integer tensor T >= 0.  ``algebra_product``
is a batch of one with the structure constants (in the matrix route, with
the tensor read off the label matrix), and ``primitivity_traces`` contracts
with the form T[p, s] = sum_qr C_pq^r C_rs^q
(``StructureConstants.trace_form``, built once per constants object).
``_contract`` has one path: the midpoints of the vectors (a FieldElement is
its own, a ComplexBall's is an exact dyadic one) become elements of
``exactfield`` (``_encode``), and the batch is contracted in matmuls by
``exactfield._contract_exact``, the kernel that the splitter's linear route
calls on its own elements.  A product with a ball is an enclosure of that
exact product, its radius one more contraction in the same kernel, so no
entry is multiplied on its own.  The zero test ``_vanishes`` decides
FieldElements exactly and balls by enclosure.

Two routes.  The algebraic route works on the structure constants alone:
idempotency, orthogonality, completeness, trace integrality and
primitivity, at any degree.  It is also the splitter's certificate: a split
returns a family only when this route passes on it.  Orthogonality of an
exact family is derived, not multiplied: idempotents that sum to the
identity and whose traces sum to N are pairwise orthogonal, and the other
checks establish exactly those hypotheses.  The pairs are multiplied only
for a family with a numeric coordinate or a failed hypothesis.  An exact
family's squares are one contraction and its primitivity traces another,
compared with the family in integers (``exactfield._differing``): with
e = A / D, e e = S / D^2, so e is idempotent when S = D A and primitive
when its trace is D^2.  Only a projector that fails is decoded into
FieldElements, for its witness; a family with a ComplexBall has its
squares, its traces and its pairs made as one batch of enclosures each.
The matrix route certifies the same family against the actual generators:
it checks the orbital basis itself on the N x N orbital label matrix (invariance
under every generator, A_1 = I, and closure of the products with a tensor
T it reads off the matrix, independent of the splitter's), then runs the
algebraic route on T.  One certificate serves both routes: the splitter's
constants on one, the tensor read off the generators on the other.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from .centralizer import OrbitalBasis, StructureConstants
from .errors import MatrixCapExceeded
from .exactfield import (
    ComplexBall, FieldElement, _ball, _contract_exact, _decoded, _differing, _encode,
    _magnitude, _midpoint, _radius, _summed, render_field_element,
)
from .perms import GeneratorSet, is_transitive
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

DEFAULT_MATRIX_CAP = 2000  # the orbital label matrix holds N^2 labels
_UNIT = _encode([[FieldElement.one()]])[0]  # what an exact trace must be


# -- products in the centralizer algebra ---------------------------------------


def _contract(tensor, t_sum, vectors, pairs, precision):
    """out[k] = sum_pq a_p b_q T[p, q, k] for an integer array T >= 0, with
    a = vectors[i] and b = vectors[j] for each (i, j) in ``pairs``.

    The midpoints a', b' are contracted in one exact batch (with T's bound
    ``t_sum``), decoded as they are for a pair without a ball.  A pair with
    one yields enclosures of a'b' (at ``precision`` bits, ``_ball``) with
    the radius K(|a'| + rho_a, |b'| + rho_b) - K(|a'|, |b'|) in the same
    kernel K, on upper bounds of the moduli (``_magnitude``) and the radii:
    sum_pq T (|a'| rho_b + rho_a |b'| + rho_a rho_b) by bilinearity, which
    bounds |ab - a'b'| for a, b in the balls since T >= 0.
    """
    mids = [[_midpoint(x) for x in vec] for vec in vectors]
    products = [_decoded(x) for x in _contract_exact(tensor, t_sum, _encode(mids), pairs)]
    balls = [any(isinstance(x, ComplexBall) for x in vec) for vec in vectors]
    numeric = [n for n, (i, j) in enumerate(pairs) if balls[i] or balls[j]]
    if not numeric:
        return products
    sizes = [[_magnitude(m) for m in vec] for vec in mids]
    widths = [[s + _radius(x) for s, x in zip(size, vec)] for size, vec in zip(sizes, vectors)]
    outer = [(i + h, j + h) for h in (0, len(vectors)) for i, j in (pairs[n] for n in numeric)]
    bounds = [_decoded(x) for x in _contract_exact(tensor, t_sum, _encode(widths + sizes), outer)]
    for n, wide, narrow in zip(numeric, bounds, bounds[len(numeric) :]):
        radii = ((w - s).rational_value() for w, s in zip(wide, narrow))
        products[n] = [_ball(m, r, precision) for m, r in zip(products[n], radii)]
    return products


def algebra_product(consts: StructureConstants, a, b, precision=DEFAULT_PRECISION):
    """Coefficients of (sum a_p A_p)(sum b_q A_q) in the basis: exact when
    both vectors are exact, enclosures when an entry is a ComplexBall."""
    return _contract(consts.tensor, consts.product_bound, [a, b], [(0, 1)], precision)[0]


def _first_nonzero(vec, reference=None, precision=DEFAULT_PRECISION):
    """The first component r of vec - reference that is not zero, as (r, value);
    None when every component vanishes.

    Exact for FieldElements, by enclosure for balls (a ball is zero when it
    contains zero): a difference with a ball is that of the midpoints,
    widened by the radii.  ``reference`` supplies the values to subtract.
    """
    for r, v in enumerate(vec, start=1):
        if reference is not None:
            want = reference[r - 1]
            diff, rad = _midpoint(v) - _midpoint(want), _radius(v) + _radius(want)
            v = diff if ComplexBall not in (type(v), type(want)) else _ball(diff, rad, precision)
        if not (v.contains_zero() if isinstance(v, ComplexBall) else v.is_zero()):
            return r, v
    return None


def _vanishes(vec, reference=None, precision=DEFAULT_PRECISION):
    """Componentwise zero test of vec - reference."""
    return _first_nonzero(vec, reference, precision) is None


# -- the primitivity certificate ----------------------------------------------------


def primitivity_traces(consts: StructureConstants, vectors, precision=DEFAULT_PRECISION):
    """dim eAe = tr(x -> e x e) for each coefficient vector e.

    The map is L_e R_e, and its trace is the quadratic form e^T T e with
    the integer matrix T = ``consts.trace_form``, contracted as a tensor
    whose last axis has length 1.  For an idempotent e the map is
    idempotent, so the trace is its rank, and e is primitive exactly when
    the trace is 1.  Exact over the tower for exact vectors, a ComplexBall
    otherwise.
    """
    pairs = [(i, i) for i in range(len(vectors))]
    form = consts.trace_form[:, :, None]
    return [t for t, in _contract(form, consts.trace_bound, vectors, pairs, precision)]


def is_unit_trace(trace):
    """The trace certifies primitivity: exactly 1, or a ball of width below 1
    around 1 (the true value is an integer)."""
    exact = isinstance(trace, FieldElement)
    return _vanishes([trace], [FieldElement.one()]) and (exact or trace.width() < 1)


# -- reports and the algebraic route ---------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witness: str = ""
    # settled by a theorem from the other checks, not computed itself
    derived: bool = False


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


def _checked(name, witness):
    return CheckResult(name, not witness, witness)


def verify_family_algebraic(
    consts: StructureConstants, deco: Decomposition, precision=DEFAULT_PRECISION
):
    """Idempotency, pairwise orthogonality, completeness, trace integrality
    and primitivity (dim B A B = 1, so no projector splits further).

    All checks run exactly over the tower for exact projectors; coordinates
    flagged numeric are checked through their certified enclosures.

    Orthogonality of an exact family follows from the other checks.  Let
    B_1..B_m be idempotents with sum B_i = I and sum tr B_i = N.  For an
    idempotent rank = trace, so the images span V with dimensions summing
    to N and V is their direct sum; for v in im B_j, v = sum_i B_i v with
    B_i v in im B_i, so B_i v = 0 for every i != j.  On the orbital basis
    tr(sum x_r A_r) = N x_1, and the algebra acts faithfully on the
    permutation module, so the checks of idempotency, completeness
    (sum B = A_1, sum d = N) and trace integrality (N b_1 = d) are those
    hypotheses.  When the family is exact and all of them pass, every
    orthogonality line is passed as ``derived``; otherwise every ordered
    pair is multiplied (each unordered pair once when the algebra is
    commutative), so a family that fails keeps its pair witnesses and an
    enclosure, which proves no equality, never stands in for a hypothesis.
    """
    rank = consts.rank
    n = deco.degree
    projectors = deco.projectors
    exact = deco.exact_only()
    squares, traces, total = _values_to_compare(consts, projectors, exact, precision)
    idempotency = []
    for m, p in enumerate(projectors, start=1):
        sq = squares.get(m - 1)
        witness = "" if sq is None else _witness(sq, list(p.coefficients), precision)
        idempotency.append(_checked(f"idempotency B[{m}] (d={p.dimension})", witness))
    # completeness: sum of projectors equals the identity vector
    identity = _basis_vector(rank, 0)
    dims = sum(p.dimension for p in projectors)
    completeness = [
        _checked(
            "completeness sum(B) = A1",
            "" if total is None else _witness(total, identity, precision),
        ),
        _checked("completeness sum(d) = N", "" if dims == n else f"{dims} != {n}"),
    ]
    integrality = []
    for m, p in enumerate(projectors, start=1):
        b1 = p.coefficients[0]
        ok = (
            isinstance(b1, FieldElement)
            and b1.is_rational()
            and b1.rational_value() * n == p.dimension
            and p.dimension > 0
        )
        integrality.append(CheckResult(f"trace integrality B[{m}]: N*b1 = d", ok))
    pairs = [(i, j) for i in range(len(projectors)) for j in range(len(projectors)) if i != j]
    hypotheses = idempotency + completeness + integrality
    derive = exact and all(c.passed for c in hypotheses)
    witnesses = {} if derive else _pair_witnesses(consts, projectors, pairs, precision)
    orthogonality = []
    for i, j in pairs:
        name = f"orthogonality B[{i + 1}]*B[{j + 1}]"
        orthogonality.append(
            CheckResult(name, True, derived=True) if derive else _checked(name, witnesses[i, j])
        )
    report = VerificationReport(idempotency + orthogonality + completeness + integrality)
    for m in range(1, len(projectors) + 1):
        t = traces.get(m - 1)
        ok = t is None or is_unit_trace(t)
        report.add(f"primitivity B[{m}]", ok, "" if ok else f"dim B A B = {_render(t)}")
    return report


def _values_to_compare(consts, projectors, exact, precision):
    """(squares, traces, total): the values that the certificate compares
    with what they must be, wherever they may differ.  ``squares`` and
    ``traces`` map the index of a projector e to e*e (which must be e) and
    to tr(x -> e x e) (which must be 1); ``total`` is the sum of the family
    (which must be A_1), or None.

    An exact family (``exact``: every coefficient a FieldElement) is decided
    in integers (see the module docstring): a square or trace is decoded
    only when it differs, for its witness, and the family's sum
    (``_summed``) is decoded and compared with A_1.  A family with a
    ComplexBall, and the empty family, yield every value.
    """
    vectors = [p.coefficients for p in projectors]
    pairs = [(i, i) for i in range(len(vectors))]
    if not (vectors and exact):
        squares = _contract(consts.tensor, consts.product_bound, vectors, pairs, precision)
        traces = dict(enumerate(primitivity_traces(consts, vectors, precision)))
        return dict(enumerate(squares)), traces, _coefficient_sum(projectors, consts.rank, precision)
    elements = _encode(vectors)
    squared = _contract_exact(consts.tensor, consts.product_bound, elements, pairs)
    traced = _contract_exact(consts.trace_form[:, :, None], consts.trace_bound, elements, pairs)
    squares = {i: _decoded(squared[i]) for i in _differing(squared, elements)}
    traces = {i: _decoded(traced[i])[0] for i in _differing(traced, [_UNIT] * len(vectors))}
    total = _decoded(_summed(elements))
    return squares, traces, None if total == _basis_vector(consts.rank, 0) else total


def _pair_witnesses(consts, projectors, pairs, precision):
    """The witness of B[i]*B[j] = 0 for each ordered pair (i, j), by
    multiplying them all in one batch; in a commutative algebra
    B_j*B_i = B_i*B_j, so each unordered pair is multiplied once."""
    commutative = consts.is_commutative()
    key = {(i, j): (min(i, j), max(i, j)) if commutative else (i, j) for i, j in pairs}
    keys = list(dict.fromkeys(key.values()))
    vectors = [p.coefficients for p in projectors]
    products = _contract(consts.tensor, consts.product_bound, vectors, keys, precision)
    witnesses = {k: _witness(product, precision=precision) for k, product in zip(keys, products)}
    return {pair: witnesses[k] for pair, k in key.items()}


def _render(x):
    """An exact value in tower notation, a ball by its midpoint."""
    if isinstance(x, FieldElement):
        return render_field_element(x)
    return f"~{complex(x.mid)}"


def _basis_vector(rank, r):
    """Coefficients of the basis matrix A_{r+1}."""
    return [FieldElement.one() if i == r else FieldElement.zero() for i in range(rank)]


def _coefficient_sum(projectors, rank, precision):
    """Coefficients of sum_m B[m]; exact when every coefficient is exact, else
    the sums of the midpoints widened by those of the radii."""
    cols = [[p.coefficients[r] for p in projectors] for r in range(rank)]
    mids = [sum(map(_midpoint, col), FieldElement.zero()) for col in cols]
    exact = all(p.exact for p in projectors)
    return [m if exact else _ball(m, sum(map(_radius, c)), precision) for m, c in zip(mids, cols)]


# -- matrix-level checks -----------------------------------------------------------


def orbital_label_matrix(basis: OrbitalBasis):
    """The N x N integer matrix L with L[i, j] = r for (i+1, j+1) in Delta_r.

    Row x is x's label row, ``SchreierTree.row0`` from the base's labels
    ``sidx0 + 1``.  By ascending depth the parent's row is already in L, so
    each row is one gather, written in place: L is the only N x N array."""
    tree = basis.tree
    b0 = tree.base - 1
    labels = np.empty((basis.degree, basis.degree), dtype=np.int64)
    labels[b0] = basis.sidx0 + 1
    rows = {b0: labels[b0]}
    for x0 in np.argsort(tree.depth, kind="stable")[1:].tolist():
        labels[x0] = tree.row0(x0, rows)
        rows[x0] = labels[x0]
    return labels


def tensor_from_label_matrix(labels, base, rank):
    """T_pq^r = #{k : L[b, k] = p, L[k, j] = q} read off base row b, at [p-1, q-1, r-1].

    The count is taken at the first j of row b with L[b, j] = r.  Also
    returns whether every j with L[b, j] = r gives the same counts, i.e.
    whether row b of A_p A_q equals row b of sum_r T_pq^r A_r.  Labels must
    lie in 1..rank.  One p at a time, so the extra memory stays O(N^2).
    """
    n = labels.shape[0]
    row = labels[base - 1] - 1  # 0-based, like T's axes
    present, first = np.unique(row, return_index=True)
    tensor = np.zeros((rank,) * 3, dtype=np.int64)
    consistent = True
    for p in range(rank):
        keys = labels[row == p]
        keys -= 1
        keys *= n
        keys += np.arange(n)
        counts = np.bincount(keys.ravel(), minlength=rank * n).reshape(rank, n)
        tensor[p][:, present] = counts[:, first]
        consistent = consistent and np.array_equal(counts, tensor[p][:, row])
    tensor.setflags(write=False)
    return tensor, consistent


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

    Then b -> sum_r b_r A_r is a homomorphism with trace N b_1, and the
    lines of ``verify_family_algebraic`` on T (N the degree of ``gens``)
    hold of the real matrices; primitivity holds in the span of the A_r.
    Known limit: a closed G-invariant fusion of orbitals passes with a
    family that is primitive in the fusion.

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
    invariant = is_transitive(gens) and all(
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
    tensor, consistent = (
        tensor_from_label_matrix(labels, basis.base, rank)
        if diagonal
        else (np.zeros((rank,) * 3, dtype=np.int64), False)
    )
    report.add("closure A_p A_q = sum_r T_pq^r A_r", invariant and consistent)
    consts = StructureConstants(rank=rank, tensor=tensor)
    report.checks += verify_family_algebraic(consts, replace(deco, degree=n), precision).checks
    return report


# -- reference comparison ------------------------------------------------------------


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
    reordering within equal-dimension groups.  It needs no second try with
    the computed family conjugated: a complete, certified family holds every
    central primitive idempotent, so complex conjugation, an automorphism of
    the rational algebra, only permutes its projectors outside blocks and
    fixes each block's sum.  There is one line per projector outside a block
    and one per block.
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

    free = dict(enumerate(ref.projectors))  # the reference projectors not yet taken
    singles = {}
    for i, p in enumerate(deco.projectors, start=1):
        if p.block is None:
            j = next(
                (
                    j for j, q in free.items()
                    if q.dimension == p.dimension and _vanishes(p.coefficients, q.coefficients)
                ),
                None,
            )
            singles[i] = free.pop(j, None) is not None
    seen = set()
    for i, p in enumerate(deco.projectors, start=1):
        if p.block is None:
            report.add(f"projector {i} (d={p.dimension}) match", singles[i])
        elif p.block not in seen:
            seen.add(p.block)
            members = [(m, q) for m, q in enumerate(deco.projectors, start=1) if q.block == p.block]
            theirs = [q for q in free.values() if q.dimension == p.block]
            ok = len(theirs) == len(members) and _vanishes(
                _coefficient_sum([q for _, q in members], deco.rank, DEFAULT_PRECISION),
                _coefficient_sum(theirs, ref.rank, DEFAULT_PRECISION),
            )
            listed = ", ".join(str(m) for m, _ in members)
            report.add(f"block d={p.block} (projectors {listed}) sum match", ok)
    return report
