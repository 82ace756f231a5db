"""The two splitting routes, and the assembly of the complete orthogonal
family of irreducible projectors.

The linear route runs first and needs no Groebner basis, slice or float.
The centre Z of the algebra is the rational null space of
x -> (x A_r - A_r x)_r.  Refinement splits the identity into the central
primitive idempotents E_j: for each current idempotent e and each basis
element z of Z, the minimal polynomial of y = e z in eZ is read off the
linear dependence of its powers, its roots are found in the tower
(``solver._exact_roots``), and e splits into the Lagrange idempotents
L_lambda(y), with L_lambda(t) = prod_{mu != lambda} (t - mu)/(lambda - mu).
E_j spans a block M_{k_j} of the algebra, so k_j^2 = tr(L_{E_j}), and its
trace in the permutation module is N (E_j)_1 = k_j d_j; both are exact.  An
E_j with k_j = 1 is a projector (provenance "uniqueSolution").  One with
k_j >= 2 is refined the same way inside E_j A, with the elements e A_r e,
until it holds k_j primitive idempotents (provenance "blockRefinement",
block d_j).  In the centre and in a block alike, an element whose minimal
polynomial has a repeated root or a root outside the tower is passed over
for that idempotent.

The Groebner route runs from scratch when the linear route gives up: when
a pass over the elements splits nothing while the centre holds fewer than
dim Z idempotents, or a block fewer than k_j (in the corpus: C5, C7 and C9,
and D7 of order 14, on their natural points, where the roots of unity of
order 5, 7 or 9 lie outside the tower).  A linear family that fails its
certificate, or a central idempotent whose k_j or d_j is not a positive
integer, cannot occur in exact arithmetic and raises InvariantViolation.
The Groebner route's candidate dimensions come from a floating-point
oracle (``dimension_hint``) that reads each irreducible's dimension d and
multiplicity k off the same central idempotents.  For each hinted d, in
ascending order, the generic invariant form is constrained by x_1 = d/N
(the trace pins the coefficient of the identity basis matrix), the
orthogonality forms of the running sum S of the exact projectors accepted
so far are joined in, and the Groebner basis decides: inconsistent (advance
d), zero-dimensional (enumerate and accept every solution; the dimension is
done, as more constraints could only shrink that finite variety), or
positive-dimensional (an irreducible that occurs more than once; one
particular solution is sliced off that same basis, and the dimension re-runs
with the forms of the new sum; see ``process_single_solution`` for why S
stands for every projector).  The loop never counts the projectors of a
block; the certificate settles the counts.

The floats are never trusted.  Each solution the solver returns already
satisfies the d-system, so it is idempotent and orthogonal to every exact
projector accepted before it (candidates are filtered against the sum of the
numeric ones); the projectors are accepted without being multiplied out
again.  The one certificate, on both routes, is
``verify.verify_family_algebraic`` on the whole family: idempotency,
orthogonality, completeness, trace and primitivity, exact over the tower.
A complete, orthogonal family of primitive idempotents holds exactly k
projectors of each dimension d.  A hinted family is kept only when its
dimensions are the hinted multiset and it passes; otherwise the full scan
d = 1, 2, ... runs from scratch, and a scanned family that fails raises
InvariantViolation naming the failed checks.
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
from .errors import (
    IncompleteDecomposition,
    InvariantViolation,
    PermsplitError,
    SliceExhausted,
)
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
    "dimension_hint",
    "PROVENANCES",
    "process_single_solution",
    "split",
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
    # system; "blockRefinement": a primitive idempotent that the linear route
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
    """One step of the dimension loop, for reports and diagnostics."""

    d: int
    # "inconsistent" | "solutions" | "slice" | "filtered" | "hint-fallback",
    # or "blockRefinement": the linear route's projectors of dimension d, of
    # which some come from refining a block (only "solutions" when none do)
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


# -- the dimension oracle ---------------------------------------------------------


def dimension_hint(consts: StructureConstants, degree):
    """The irreducible dimensions, each d_j repeated k_j times, read off the
    centre of the algebra in floating point; None when the floats are unclear.

    The centre Z is the null space of x -> (x y - y x)_y.  Multiplication by
    a random central z acts on Z with generically distinct eigenvalues; the
    identity splits over its eigenvectors into the central idempotents E_j.
    E_j spans a block M_{k_j}, so k_j^2 = tr(L_{E_j}), and its trace in the
    permutation module is N (E_j)_1 = k_j d_j.  The values are only a hint:
    the splitter certifies whatever it builds from them.
    """
    c = consts.table[1:, 1:, 1:].astype(float)
    rank = consts.rank
    commutator = (c - c.transpose(1, 0, 2)).transpose(1, 2, 0).reshape(rank * rank, rank)
    _, sing, vh = np.linalg.svd(commutator, full_matrices=False)
    centre = vh[sing <= 1e-9 * max(1.0, sing[0])].T
    rng = np.random.default_rng(0)
    weights = rng.normal(size=centre.shape[1]) + 1j * rng.normal(size=centre.shape[1])
    left = np.einsum("p,pqr->rq", centre @ weights, c)
    _, vecs = np.linalg.eig(centre.T @ left @ centre)
    split_identity = np.linalg.solve(vecs, centre[0])
    idempotents = centre @ (vecs * split_identity)
    k_squared = np.einsum("prr->p", c) @ idempotents
    traces = degree * idempotents[0]
    if not _near_integers(k_squared):
        return None
    k_squared = np.rint(k_squared.real)
    k = np.rint(np.sqrt(np.maximum(k_squared, 0)))
    if k.min() < 1 or not np.array_equal(k * k, k_squared):
        return None
    d = traces / k
    if not _near_integers(d) or np.rint(d.real).min() < 1:
        return None
    d = np.rint(d.real)
    if int(k @ d) != degree:
        return None
    return sorted(int(dj) for dj, kj in zip(d, k) for _ in range(int(kj)))


def _near_integers(values, tol=1e-6):
    return bool(np.all(np.abs(values - np.rint(values.real)) <= tol))


# -- the splitting state ---------------------------------------------------------


class _SplitState:
    def __init__(self, basis, consts, config):
        self.basis = basis
        self.consts = consts
        self.config = config
        self.idem = build_idempotency_system(consts)
        self.sub_ring = Ring(self.idem.ring.names[1:], "degrevlex")
        self.projectors = []
        self.numeric_sum = None  # coefficients of the numeric projectors' sum
        self.found = 0
        self.events = []
        self.notes = []
        self._current_d = None

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
    exact = projector.exact
    same_kind = [p for p in state.projectors if p.exact == exact]
    total = _coefficient_sum(same_kind, state.consts.rank, state.config.precision)
    if exact:
        forms = build_orthogonality_system(state.consts, total)
        forms += build_orthogonality_system_right(state.consts, total)
        state.idem.orthogonality = list(dict.fromkeys(forms))
    else:
        state.numeric_sum = total
    state.found += projector.dimension
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
    """The certified family, from precomputed structure constants.

    The linear route (``_split_linear``) runs first; when it gives up, the
    Groebner route (``_split_by_groebner``) runs from scratch.  Either way
    the family is returned only when ``verify_family_algebraic`` passes on
    it.
    """
    config = config or SplitConfig()
    deco = _split_linear(basis, consts, config)
    if deco is None:
        deco = _split_by_groebner(basis, consts, config)
    return deco


def _split_by_groebner(basis, consts, config):
    """The Groebner route: the dimension loop over the hinted dimensions.

    Only the dimensions of ``dimension_hint`` are solved.  When there is no
    hint, or the hinted run raises or yields a family whose dimensions are
    not the hinted multiset, the full scan d = 1, 2, ... runs from scratch
    after a "hint-fallback" event.  A scanned family that fails its
    certificate raises InvariantViolation naming the failed checks.
    """
    hint = dimension_hint(consts, basis.degree)
    deco = None
    if hint:
        try:
            deco = _split_over(basis, consts, config, hint)
        except PermsplitError:
            pass
    if deco is None or deco.dimension_multiset != hint:
        deco = _split_over(basis, consts, config, None)
    _pair_conjugates(deco)
    return deco


# -- the linear route: central and block idempotents ------------------------------


def _split_linear(basis, consts, config):
    """The family read off the central and block idempotents, or None when
    the tower cannot split the centre or a block (see the module docstring).

    The family is ordered by ascending d, the k = 1 projectors of a d before
    the block members of the same d, then by ``SolutionPoint.sort_key``:
    the order in which the Groebner route enumerates a multiplicity-free
    family.
    """
    rank, n = consts.rank, basis.degree
    centre = _centre_basis(consts)
    central = _refine(
        consts, [_basis_vector(rank, 0)],
        [lambda e, z=z: algebra_product(consts, e, z) for z in centre],
        len(centre),
    )
    if central is None:
        return None
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
        parts = _refine(consts, [idem], compressions, k)
        if parts is None:
            return None
        projectors += [
            Projector(tuple(f), d, "blockRefinement", config.precision, block=d)
            for f in parts
        ]
    projectors.sort(
        key=lambda p: (p.dimension, p.block is not None,
                       SolutionPoint(p.coefficients[1:]).sort_key())
    )
    events = []
    for d in sorted({p.dimension for p in projectors}):
        at_d = [p for p in projectors if p.dimension == d]
        kind = "solutions" if all(p.block is None for p in at_d) else "blockRefinement"
        events.append(SplitEvent(d, kind, None, len(at_d)))
    deco = _certified(basis, consts, config, projectors, events, [])
    _pair_conjugates(deco)
    return deco


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
    """Split the idempotents ``parts`` until there are ``target`` of them;
    None when a pass over the elements splits nothing.

    Each element maps an idempotent e to an element y of eAe, and e splits
    into the Lagrange idempotents of y (``_split_idempotent``).  The elements
    are tried in order, in passes; an element that cannot split a part in
    the tower is passed over for that part.
    """
    while len(parts) < target:
        before = len(parts)
        for element in elements:
            split_parts = []
            for e in parts:
                pieces = _split_idempotent(consts, e, element(e))
                if pieces is None:
                    pieces = [e]
                split_parts += pieces
            parts = split_parts
            if len(parts) == target:
                return parts
        if len(parts) == before:
            return None
    return parts


def _split_idempotent(consts, e, y):
    """The Lagrange idempotents of y in eAe, which sum to e; [e] when y is a
    multiple of e, and None when y's minimal polynomial has a repeated root
    or a root outside the tower."""
    poly, powers = _minimal_polynomial(consts, e, y)
    roots, residual = _exact_roots(poly)
    if len(residual) > 1 or len(roots) < len(poly) - 1:
        return None
    if len(roots) == 1:
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


def _split_over(basis, consts, config, hint):
    """Run the dimensions in ascending order, the hinted ones or (hint None)
    every d = 1, 2, ..., until the family is complete; the certified family.

    With a right hint the full scan finds nothing between the hinted
    dimensions, so the accepted projectors and their order match it.  (Projectors with numeric coordinates are the
    exception: their orthogonality is not in the polynomial system, so the
    scan may meet sums of them at an unhinted d and filter them out, which
    the hinted run skips.)  Raises IncompleteDecomposition when the
    dimensions run out first, and InvariantViolation when the family fails
    its certificate.
    """
    state = _SplitState(basis, consts, config)
    n = basis.degree
    if hint:
        dims = sorted(set(hint))
    else:
        dims = range(1, n + 1)
        state.events.append(SplitEvent(0, "hint-fallback"))
    for d in dims:
        # a dimension with found + d > N can never fit, nor can any larger one
        if state.found >= n or state.found + d > n:
            break
        _run_dimension(state, d)
    if state.found < n:
        raise IncompleteDecomposition(f"dimensions exhausted with {state.found}/{n} found")
    return _certified(basis, consts, config, state.projectors, state.events, state.notes)


def _certified(basis, consts, config, projectors, events, notes):
    """The family as a Decomposition, once ``verify_family_algebraic``
    passes on it; InvariantViolation naming the failed checks otherwise."""
    deco = Decomposition(
        degree=basis.degree,
        rank=basis.rank,
        projectors=projectors,
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
