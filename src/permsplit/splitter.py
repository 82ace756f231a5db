"""The split of the centralizer algebra into the complete orthogonal family
of irreducible projectors: exact idempotents first, then the dimension loop
for what they leave.

The exact idempotents need no Groebner basis, slice or float.  The centre Z
of the algebra is the rational null space of x -> (x A_r - A_r x)_r.
Refinement splits the identity into the central primitive idempotents E_j:
for each current idempotent e and each basis element z of Z, the minimal
polynomial of y = e z in eZ is read off the linear dependence of its powers,
its roots are found in the tower (``solver._exact_roots``), and e splits into
the Lagrange idempotents L_lambda(y) of its simple tower roots, with
L_lambda(t) = prod_{mu != lambda} (t - mu)/(lambda - mu).  When the
polynomial keeps a residual factor g with no root in the tower, e minus
their sum is one more part: by the Chinese remainder theorem it is the
idempotent of g's roots.  An element with a repeated tower root is passed
over for that idempotent.  E_j spans a block M_{k_j} of the algebra, so
k_j^2 = tr(L_{E_j}), and its trace in the permutation module is
N (E_j)_1 = k_j d_j; both are exact.  An E_j with k_j = 1 is a projector
(provenance "uniqueSolution").  One with k_j >= 2 is refined the same way
inside E_j A, with the elements e A_r e, until it holds k_j primitive
idempotents (provenance "blockRefinement", block d_j).  When a pass over the
elements splits nothing, the parts that every element maps to a multiple of
themselves are kept: they are the primitive ones.  The others hold roots
outside the tower (in the corpus: the roots of unity of order 5, 7 or 9 of
C5, C7, C9 and D7 of order 14, on their natural points), and the dimension
loop finds their projectors.

The dimension loop runs only when the exact projectors sum to less than N.
It starts from the orthogonality forms of their sum S and tries
d = 1, 2, ... in turn: the generic invariant form is constrained by
x_1 = d/N (the trace pins the coefficient of the identity basis matrix), the
forms of S are joined in, and the Groebner basis decides: inconsistent
(advance d), zero-dimensional (enumerate and accept every solution; the
dimension is done, as more constraints could only shrink that finite
variety), or positive-dimensional (an irreducible that occurs more than
once; one particular solution is sliced off that same basis, and the
dimension re-runs with the forms of the new sum; see
``process_single_solution`` for why S stands for every projector).  The
loop never counts the projectors of a block; the certificate settles the
counts.

The floats are never trusted.  Each solution the solver returns already
satisfies the d-system, so it is idempotent and orthogonal to every exact
projector accepted before it (candidates are filtered against the sum of the
numeric ones); the projectors are accepted without being multiplied out
again.  The one certificate is ``verify.verify_family_algebraic`` on the
whole family: idempotency, orthogonality, completeness, trace and
primitivity, exact over the tower.  A complete, orthogonal family of
primitive idempotents holds exactly k projectors of each dimension d.  A
family that fails, or a central idempotent whose k_j or d_j is not a
positive integer, cannot occur in exact arithmetic and raises
InvariantViolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .centralizer import (
    DEFAULT_RANK_CAP,
    OrbitalBasis,
    StructureConstants,
    compute_orbitals,
    compute_structure_constants,
)
from .errors import IncompleteDecomposition, InvariantViolation, SliceExhausted
from .exactfield import FieldElement
from .perms import GeneratorSet
from .polynomial import (
    Poly,
    Ring,
    groebner_basis,
    hilbert_dimension,
    is_trivial_basis,
)
from .solver import (
    DEFAULT_PRECISION,
    SolutionPoint,
    _deflate,
    _exact_roots,
    _poly_eval,
    particular_solution_on_slice,
    solve_zero_dimensional,
)
from .verify import (
    DEFAULT_MATRIX_CAP,
    _coefficient_sum,
    _vanishes,
    algebra_product,
    verify_family_algebraic,
)

__all__ = [
    "SplitConfig",
    "IdempotencySystem",
    "Projector",
    "Decomposition",
    "SplitEvent",
    "build_idempotency_system",
    "build_orthogonality_system",
    "build_orthogonality_system_right",
    "algebra_product",
    "PROVENANCES",
    "process_single_solution",
    "split",
    "split_from_constants",
]


# how a projector was found; see ``Projector.provenance``
PROVENANCES = ("uniqueSolution", "slicedSolution", "blockRefinement")


@dataclass
class SplitConfig:
    """Knobs for the splitting pipeline; defaults suit desk-scale inputs."""

    precision: int = DEFAULT_PRECISION
    rank_cap: int = DEFAULT_RANK_CAP
    matrix_cap: int = DEFAULT_MATRIX_CAP
    threads: int = 1  # read by the benchmark only; selects nothing


@dataclass
class IdempotencySystem:
    """E_r = Q_r - x_r over x_1..x_R, plus accumulated orthogonality forms."""

    rank: int
    ring: Ring
    polys: list
    orthogonality: list = field(default_factory=list)


@dataclass
class Projector:
    """Coefficient vector of one irreducible projector in the ordered basis.

    ``coefficients[r-1]`` multiplies basis matrix A_r; entries are exact
    FieldElements, or ComplexBall enclosures on coordinates that fell through
    to the numeric solver.  b_1 = d/N is always exact.
    """

    coefficients: tuple
    dimension: int
    # "uniqueSolution": solved from a zero-dimensional system, or a central
    # idempotent with k = 1; "slicedSolution": sliced off a positive-dimensional
    # system; "blockRefinement": a primitive idempotent that block refinement
    # split off a block with k >= 2
    provenance: str
    precision: int = DEFAULT_PRECISION
    block: int = None          # shared id for one multiplicity block
    conjugate_of: int = None   # index in the decomposition, when paired

    @property
    def rank(self):
        return len(self.coefficients)

    @property
    def exact(self):
        return all(isinstance(c, FieldElement) for c in self.coefficients)

    def conjugate_coefficients(self):
        if not self.exact:
            raise ValueError("conjugate of a numeric projector is not tracked")
        return tuple(c.conjugate() for c in self.coefficients)


@dataclass
class Decomposition:
    """The complete orthogonal family, with its certificate data."""

    degree: int
    rank: int
    projectors: list
    suborbit_lengths: list
    events: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def dimension_multiset(self):
        return sorted(p.dimension for p in self.projectors)

    def exact_only(self):
        return all(p.exact for p in self.projectors)


@dataclass(frozen=True)
class SplitEvent:
    """One step of the split, for reports and diagnostics."""

    d: int
    # the dimension loop's "inconsistent" | "solutions" | "slice" | "filtered";
    # the exact projectors of dimension d make one event with no Hilbert
    # dimension, "blockRefinement" when some come from refining a block and
    # "solutions" otherwise
    kind: str
    hilbert: int = None
    extracted: int = 0


def build_idempotency_system(consts: StructureConstants):
    """E_r = sum_pq C_pq^r x_p x_q  -  x_r, for r = 1..R."""
    rank = consts.rank
    ring = Ring(tuple(f"x{i}" for i in range(1, rank + 1)), "degrevlex")
    polys = []
    for r in range(1, rank + 1):
        terms = {}
        for p in range(1, rank + 1):
            for q in range(1, rank + 1):
                cpq = consts.c(p, q, r)
                if not cpq:
                    continue
                mono = [0] * rank
                mono[p - 1] += 1
                mono[q - 1] += 1
                mono = tuple(mono)
                terms[mono] = terms.get(mono, 0) + cpq
        lin = tuple(1 if i == r - 1 else 0 for i in range(rank))
        terms[lin] = terms.get(lin, 0) - 1
        polys.append(Poly(ring, {m: Fraction(c) for m, c in terms.items() if c}))
    return IdempotencySystem(rank=rank, ring=ring, polys=polys)


def _orthogonality_forms(consts, coeffs, side):
    """Linear forms of B·X = 0 (side="left") or X·B = 0 (side="right")."""
    if not all(isinstance(c, FieldElement) for c in coeffs):
        raise ValueError("orthogonality forms need exact coefficients")
    rank = consts.rank
    ring = Ring(tuple(f"x{i}" for i in range(1, rank + 1)), "degrevlex")
    forms = []
    for r in range(1, rank + 1):
        terms = {}
        for var in range(1, rank + 1):
            acc = FieldElement.zero()
            for other in range(1, rank + 1):
                c = (
                    consts.c(other, var, r)
                    if side == "left"
                    else consts.c(var, other, r)
                )
                if c:
                    acc = acc + coeffs[other - 1].scaled(c)
            if not acc.is_zero():
                mono = tuple(1 if i == var - 1 else 0 for i in range(rank))
                terms[mono] = acc
        if terms:
            forms.append(Poly(ring, terms, _canonical=True))
    return forms


def build_orthogonality_system(consts: StructureConstants, coeffs):
    """The R linear forms L_r(x) = sum_q (sum_p b_p C_pq^r) x_q of B·X = 0,
    for the exact coefficient vector b of B."""
    return _orthogonality_forms(consts, coeffs, "left")


def build_orthogonality_system_right(consts: StructureConstants, coeffs):
    """The mirrored forms of X·B = 0.

    Inside a multiplicity block one-sided annihilation still leaves a
    parameter family (B X = 0 does not force X B = 0 in a noncommutative
    block), so the complement is pinned down only with both sides; mutual
    orthogonality of the family is the two-sided condition.
    """
    return _orthogonality_forms(consts, coeffs, "right")


# -- the splitting state ---------------------------------------------------------


class _SplitState:
    """The dimension loop's state, seeded with the exact projectors found
    before it and the orthogonality forms of their sum."""

    def __init__(self, basis, consts, config, projectors=()):
        self.basis = basis
        self.consts = consts
        self.config = config
        self.idem = build_idempotency_system(consts)
        self.sub_ring = Ring(self.idem.ring.names[1:], "degrevlex")
        self.projectors = list(projectors)
        self.numeric_sum = None  # coefficients of the numeric projectors' sum
        self.found = sum(p.dimension for p in projectors)
        self.events = []
        self.notes = []
        self._current_d = None
        if self.projectors:
            self.renew_sum(exact=True)  # the seeds are exact idempotents

    def renew_sum(self, exact):
        """Renew the running sum of the exact (or the numeric) projectors:
        the orthogonality forms of the exact sum join the system, and the
        numeric sum is what ``accept_candidate`` checks."""
        same_kind = [p for p in self.projectors if p.exact == exact]
        total = _coefficient_sum(same_kind, self.consts.rank, self.config.precision)
        if exact:
            forms = build_orthogonality_system(self.consts, total)
            forms += build_orthogonality_system_right(self.consts, total)
            self.idem.orthogonality = list(dict.fromkeys(forms))
        else:
            self.numeric_sum = total

    def d_system(self, d):
        """Substitute x_1 = d/N into E and the accumulated forms; drop x_1."""
        x1 = FieldElement.from_rational(Fraction(d, self.basis.degree))
        out = []
        inconsistent = False
        for poly in self.idem.polys + self.idem.orthogonality:
            s = poly.substitute(0, x1)
            dropped = s.drop_variable(0, self.sub_ring)
            if dropped.is_zero():
                continue
            if dropped.is_constant():
                inconsistent = True
                break
            out.append(dropped)
        return None if inconsistent else out

    def accept_candidate(self, point):
        """Numeric-side orthogonality filter for solver output.

        Constraints from exact projectors already live in the polynomial
        system; projectors with numeric coordinates cannot be injected there
        without poisoning the exact Groebner kernel, so their orthogonality
        is enforced here on every candidate solution instead, through their
        sum S: for mutually orthogonal idempotents B with sum S, b is
        orthogonal to every B exactly when S·b = b·S = 0.
        """
        if self.numeric_sum is None:
            return True
        b = self._point_to_coeffs(point, self._current_d)
        prec = max(self.config.precision, point.precision)
        left = algebra_product(self.consts, self.numeric_sum, b, prec)
        right = algebra_product(self.consts, b, self.numeric_sum, prec)
        return _vanishes(left, precision=prec) and _vanishes(right, precision=prec)

    def _point_to_coeffs(self, point, d):
        b1 = FieldElement.from_rational(Fraction(d, self.basis.degree))
        return (b1,) + point.values

    def make_projector(self, point, d, provenance):
        return Projector(
            coefficients=self._point_to_coeffs(point, d),
            dimension=d,
            provenance=provenance,
            precision=point.precision,
        )


def process_single_solution(state: _SplitState, projector: Projector):
    """Accept one projector: record it and renew the running sum it joins.

    Nothing is multiplied out here.  The projector is a solution of the
    d-system, which holds E_r and the orthogonality forms of the exact
    projectors accepted before it; the solver certified it against that
    system (exactly, or through enclosures for numeric coordinates), and
    ``accept_candidate`` filtered it against the numeric projectors.

    The accepted projectors are mutually orthogonal idempotents, so with S
    their sum B·S = S·B = B, and X·S = S·X = 0 exactly when X·B = B·X = 0
    for every B: the two-sided forms of S span the same constraints as the
    forms of all of them.  An exact projector therefore replaces the
    orthogonality forms by those of the exact sum; one with numeric
    coordinates renews the numeric sum that ``accept_candidate`` checks.
    The finished family is certified as a whole by
    ``verify_family_algebraic``.
    """
    state.projectors.append(projector)
    state.found += projector.dimension
    state.renew_sum(projector.exact)
    return state


def split(gens: GeneratorSet, config: SplitConfig = None):
    """Decompose a transitive permutation action into irreducible projectors.

    Raises IntransitiveAction (from ``compute_orbitals``) when the action is
    not transitive.
    """
    config = config or SplitConfig()
    basis = compute_orbitals(gens, rank_cap=config.rank_cap)
    consts = compute_structure_constants(gens, basis)
    return split_from_constants(basis, consts, config)


def split_from_constants(basis: OrbitalBasis, consts: StructureConstants, config=None):
    """The certified family, from precomputed structure constants: the exact
    idempotents of ``_split_linear``, completed by the dimension loop of
    ``_split_over`` where they sum to less than N.  The family is returned
    only when ``verify_family_algebraic`` passes on it.
    """
    config = config or SplitConfig()
    deco = _split_over(basis, consts, config, _split_linear(basis, consts, config))
    _pair_conjugates(deco)
    return deco


# -- the exact idempotents: central and block refinement -------------------------


def _split_linear(basis, consts, config):
    """The primitive idempotents that the central and block refinements reach
    in the tower, as projectors; they sum to the identity unless some part of
    the centre or of a block holds roots outside it (see the module
    docstring)."""
    rank, n = consts.rank, basis.degree
    centre = _centre_basis(consts)
    central = _refine(
        consts, [_basis_vector(rank, 0)],
        [lambda e, z=z: algebra_product(consts, e, z) for z in centre],
        len(centre),
    )
    table = consts.table[1:, 1:, 1:]
    left_traces = [int(t) for t in np.einsum("pqq->p", table)]
    compressions = [
        lambda e, a=_basis_vector(rank, r): algebra_product(
            consts, algebra_product(consts, e, a), e
        )
        for r in range(1, rank)
    ]
    projectors = []
    for idem in central:
        k, d = _block_size(idem, left_traces, n)
        if k == 1:
            projectors.append(Projector(tuple(idem), d, "uniqueSolution", config.precision))
            continue
        projectors += [
            Projector(tuple(f), d, "blockRefinement", config.precision, block=d)
            for f in _refine(consts, [idem], compressions, k)
        ]
    return projectors


def _basis_vector(rank, r):
    """Coefficients of the basis matrix A_{r+1}."""
    return [FieldElement.one() if i == r else FieldElement.zero() for i in range(rank)]


def _centre_basis(consts):
    """A basis of the centre: the rational null space of x -> (x A_r - A_r x)_r,
    read off the reduced row echelon form of that map's integer matrix."""
    rank = consts.rank
    if consts.is_commutative():
        return [_basis_vector(rank, r) for r in range(rank)]
    c = consts.table[1:, 1:, 1:]
    # row (r, s), column p: the A_s coefficient of A_p A_r - A_r A_p
    matrix = (c - c.transpose(1, 0, 2)).transpose(1, 2, 0).reshape(rank * rank, rank)
    pivots = {}  # pivot column -> row, 1 there and 0 in every other pivot column
    for row in dict.fromkeys(tuple(int(v) for v in row) for row in matrix if row.any()):
        v = [Fraction(x) for x in row]
        for col, prow in pivots.items():
            if v[col]:
                v = [a - v[col] * b for a, b in zip(v, prow)]
        lead = next((i for i, a in enumerate(v) if a), None)
        if lead is None:
            continue
        v = [a / v[lead] for a in v]
        for col, prow in pivots.items():
            if prow[lead]:
                pivots[col] = [a - prow[lead] * b for a, b in zip(prow, v)]
        pivots[lead] = v
        if len(pivots) == rank - 1:
            break  # the identity is central, so no more pivots can come
    basis = []
    for free in (j for j in range(rank) if j not in pivots):
        z = [Fraction(j == free) for j in range(rank)]
        for col, prow in pivots.items():
            z[col] = -prow[free]
        basis.append([FieldElement.from_rational(x) for x in z])
    return basis


def _refine(consts, parts, elements, target):
    """Split the idempotents ``parts`` toward ``target`` of them, and return
    the primitive ones.

    Each element maps an idempotent e to an element y of eAe, and e splits
    by y (``_split_idempotent``).  The elements are tried in order, in
    passes.  When ``target`` parts are reached, each is primitive.  When a
    pass splits nothing, the parts that every element maps to a multiple of
    themselves are returned: those, and only those, are primitive.
    """
    while len(parts) < target:
        before = len(parts)
        for element in elements:
            parts = [
                piece
                for e in parts
                for piece in _split_idempotent(consts, e, element(e)) or [e]
            ]
            if len(parts) == target:
                return parts
        if len(parts) == before:
            return [e for e in parts if all(_is_multiple(f(e), e) for f in elements)]
    return parts


def _is_multiple(y, e):
    """Whether y = c e for a scalar c; e is nonzero."""
    i = next(i for i, a in enumerate(e) if a)
    c = y[i] / e[i]
    return all(b == c * a for a, b in zip(e, y))


def _split_idempotent(consts, e, y):
    """The Lagrange idempotents of y's simple tower roots in eAe, and, when
    y's minimal polynomial keeps a residual factor g, e minus their sum, the
    idempotent of g's roots; the parts sum to e.  [e] when y is a multiple
    of e or has no root in the tower, and None when a tower root is
    repeated."""
    poly, powers = _minimal_polynomial(consts, e, y)
    roots, residual = _exact_roots(poly)
    if len(roots) + len(residual) < len(poly):
        return None
    if len(roots) + (len(residual) > 1) < 2:
        return [e]
    parts = []
    for root in roots:
        # L(t) = m(t) / ((t - root) m'(root)), a combination of e, y, ..., y^(m-1)
        quotient = _deflate(poly, root)
        scale = _poly_eval(quotient, root).invert()
        part = [FieldElement.zero()] * len(e)
        for c, power in zip(quotient, powers):
            c = c * scale
            part = [a + c * b for a, b in zip(part, power)]
        parts.append(part)
    if len(residual) > 1:
        rest = list(e)
        for part in parts:
            rest = [a - b for a, b in zip(rest, part)]
        parts.append(rest)
    return parts


def _minimal_polynomial(consts, e, y):
    """The monic minimal polynomial of y in the algebra with unit e, as its
    ascending coefficients, and the powers e, y, ..., y^(m-1) of y.

    The powers are reduced against each other in turn; the first that
    reduces to zero gives the polynomial through the recorded combinations.
    """
    zero = FieldElement.zero()
    powers, rows = [], []  # rows: (pivot, reduced power, its combination of powers)
    power = e
    while True:
        vec = list(power)
        combo = [zero] * len(powers) + [FieldElement.one()]
        for pivot, row, row_combo in rows:
            c = vec[pivot]
            if c:
                vec = [a - c * b for a, b in zip(vec, row)]
                pad = [zero] * (len(combo) - len(row_combo))
                combo = [a - c * b for a, b in zip(combo, row_combo + pad)]
        lead = next((i for i, a in enumerate(vec) if a), None)
        if lead is None:
            return combo, powers
        inv = vec[lead].invert()
        rows.append((lead, [a * inv for a in vec], [a * inv for a in combo]))
        powers.append(power)
        power = y if len(powers) == 1 else algebra_product(consts, power, y)


def _block_size(idem, left_traces, degree):
    """(k, d) of a central primitive idempotent E: k^2 = tr(L_E) and
    N E_1 = k d.  InvariantViolation unless both are positive integers,
    which for a central primitive idempotent they always are."""
    k_squared = sum((c * t for c, t in zip(idem, left_traces) if t), FieldElement.zero())
    trace = idem[0] * degree
    if k_squared.is_rational() and trace.is_rational():
        k_squared, trace = k_squared.rational_value(), trace.rational_value()
        k = math.isqrt(max(int(k_squared), 0))
        if k >= 1 and k * k == k_squared and trace > 0 and trace.denominator == 1:
            if trace.numerator % k == 0:
                return k, trace.numerator // k
    raise InvariantViolation(
        f"central idempotent with tr(L_E) = {k_squared} and N E_1 = {trace}"
    )


def _split_over(basis, consts, config, projectors):
    """The certified family: the exact ``projectors``, completed by the
    dimension loop when they sum to less than N.

    The loop is seeded with the running sums of ``projectors`` and runs
    d = 1, 2, ... until the family is complete; it raises
    IncompleteDecomposition when the dimensions run out first.  The family
    is ordered by ascending d, the projectors outside a block before the
    members of one, then by ``SolutionPoint.sort_key``.  It is returned once
    ``verify_family_algebraic`` passes on it; InvariantViolation naming the
    failed checks otherwise.
    """
    n = basis.degree
    events = []
    for d in sorted({p.dimension for p in projectors}):
        at_d = [p for p in projectors if p.dimension == d]
        kind = "solutions" if all(p.block is None for p in at_d) else "blockRefinement"
        events.append(SplitEvent(d, kind, None, len(at_d)))
    notes = []
    if sum(p.dimension for p in projectors) < n:
        state = _SplitState(basis, consts, config, projectors)
        for d in range(1, n + 1):
            # a dimension with found + d > N can never fit, nor can any larger one
            if state.found + d > n:
                break
            _run_dimension(state, d)
        if state.found < n:
            raise IncompleteDecomposition(f"dimensions exhausted with {state.found}/{n} found")
        projectors, events, notes = state.projectors, events + state.events, state.notes
    deco = Decomposition(
        degree=n,
        rank=basis.rank,
        projectors=sorted(
            projectors,
            key=lambda p: (p.dimension, p.block is not None,
                           SolutionPoint(p.coefficients[1:]).sort_key()),
        ),
        suborbit_lengths=basis.lengths_in_order(),
        events=events,
        notes=notes,
    )
    report = verify_family_algebraic(consts, deco, config.precision)
    if not report.passed:
        failed = "; ".join(c.name for c in report.failures())
        raise InvariantViolation(f"split family fails its certificate: {failed}")
    return deco


def _run_dimension(state: _SplitState, d):
    """Process one candidate dimension: slice and re-run while the system is
    positive-dimensional, then enumerate its solutions or meet inconsistency.

    The Hilbert dimension only chooses between enumerating and slicing; how
    many projectors a dimension yields is left to the certificate.  When a
    slice happened at d, every projector extracted at d is tagged as the
    block d.
    """
    cfg = state.config
    state._current_d = d
    first = len(state.projectors)
    sliced = False
    guard = 0
    while True:
        guard += 1
        if guard > state.basis.degree + state.basis.rank + 8:
            raise InvariantViolation(f"dimension {d} failed to stabilize")
        polys = state.d_system(d)
        if polys is None:
            state.events.append(SplitEvent(d, "inconsistent"))
            break
        if not polys:
            # rank 1 action: the empty system has the single empty solution
            point = SolutionPoint((), cfg.precision)
            process_single_solution(state, state.make_projector(point, d, "uniqueSolution"))
            state.events.append(SplitEvent(d, "solutions", 0, 1))
            break
        gb = groebner_basis(polys)
        if is_trivial_basis(gb):
            state.events.append(SplitEvent(d, "inconsistent"))
            break
        h = hilbert_dimension(gb, nvars=state.sub_ring.nvars)
        if h == 0:
            points = solve_zero_dimensional(gb, precision=cfg.precision)
            points = [p for p in points if state.accept_candidate(p)]
            for point in points:
                process_single_solution(
                    state, state.make_projector(point, d, "uniqueSolution")
                )
            kind = "solutions" if points else "filtered"
            state.events.append(SplitEvent(d, kind, h, len(points)))
            break
        sliced = True
        try:
            point = particular_solution_on_slice(
                gb, precision=cfg.precision, accept=state.accept_candidate
            )
        except SliceExhausted:
            if state.numeric_sum is not None:
                state.notes.append(
                    f"d={d}: slice attempts exhausted against numeric projectors"
                )
                state.events.append(SplitEvent(d, "filtered", h, 0))
                break
            raise
        process_single_solution(state, state.make_projector(point, d, "slicedSolution"))
        state.events.append(SplitEvent(d, "slice", h, 1))
        if state.found >= state.basis.degree:
            break
    if sliced:
        for proj in state.projectors[first:]:
            proj.block = d


def _pair_conjugates(deco: Decomposition):
    exact_index = {}
    for i, p in enumerate(deco.projectors):
        if p.exact:
            exact_index[_coeff_key(p.coefficients)] = i
    for i, p in enumerate(deco.projectors):
        if not p.exact or p.conjugate_of is not None:
            continue
        conj = tuple(c.conjugate() for c in p.coefficients)
        j = exact_index.get(_coeff_key(conj))
        if j is not None and j != i:
            deco.projectors[i].conjugate_of = j
            deco.projectors[j].conjugate_of = i


def _coeff_key(coeffs):
    return tuple(tuple(sorted(c.terms.items())) for c in coeffs)
