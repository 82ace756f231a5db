"""The split of the centralizer algebra into the complete orthogonal family
of irreducible projectors: exact idempotents first, then the dimension loop
for what they leave.

The exact idempotents need no Groebner basis, slice or float; their
elements are ``exactfield``'s integer arrays, decoded once per projector.
The centre Z of the algebra is the rational null space of
x -> (x A_r - A_r x)_r.
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
d = 1, 2, ... in turn.  The system of d lives in x_1..x_R, the coordinates
of the rest of the split X = sum x_r A_r: the idempotency polynomials,
the coordinates of X·X - X, are read off the structure constants, and the
forms of S, the nonzero coordinates of S·X and X·S, off the products S·A_q
and A_q·S, one batch of ``verify._contract`` per side.  The linear generator
x_1 - d/N joins them (the trace pins the coefficient of the identity basis
matrix), so every solution carries b_1 = d/N exactly as its first
coordinate.  Its Groebner basis decides: inconsistent (advance d),
zero-dimensional (enumerate and accept every solution; the dimension is
done, as more constraints could only shrink that finite variety), or
positive-dimensional (an irreducible that occurs more than once; solutions
are sliced off that basis one at a time: an exact one's forms join the
system, whose basis is computed again, and a numeric one leaves both as
they were; ``process_single_solution`` says why S stands for every
projector).  The certificate, not the loop, counts a block's projectors.

The floats are never trusted.  Each solution the solver returns already
satisfies the d-system, so it is idempotent and orthogonal to every exact
projector accepted before it (candidates are filtered against the sum of the
numeric ones); the projectors are accepted without being multiplied out
again.  The one certificate is ``verify.verify_family_algebraic`` on the
whole family: idempotency, orthogonality, completeness, trace and
primitivity, exact over the tower.  Orthogonality is a theorem there for
an exact family: idempotents B_i with sum B_i = I and sum tr B_i = N (each
tr B_i = N b_1 = d) are pairwise orthogonal, since rank = trace makes V the
direct sum of their images.  So once idempotency, completeness and trace
integrality pass exactly, no pair is multiplied; a family with a numeric
coordinate, or one that fails any of those checks, has every pair
multiplied.  A complete, orthogonal family of primitive idempotents holds
exactly k projectors of each dimension d.  A family that fails, or a
central idempotent whose k_j or d_j is not a positive integer, cannot
occur in exact arithmetic and raises InvariantViolation.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import verify
from .centralizer import (
    DEFAULT_RANK_CAP,
    OrbitalBasis,
    StructureConstants,
    compute_orbitals,
    compute_structure_constants,
)
from .errors import IncompleteDecomposition, InvariantViolation, SliceExhausted
from .exactfield import (
    FieldElement, _canonical, _combination, _contract_exact, _decoded, _form, _integer_array,
)
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
    _basis_vector,
    _coefficient_sum,
    _contract,
    _vanishes,
    algebra_product,
)

__all__ = [
    "SplitConfig",
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
    # not fields: no split reads them; ``permsplit split --matrix-cap`` takes
    # its default from one, and the benchmark reads both
    matrix_cap = DEFAULT_MATRIX_CAP
    threads = 1


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
    def exact(self):
        return all(isinstance(c, FieldElement) for c in self.coefficients)


@dataclass
class Decomposition:
    """The complete orthogonal family, with its certificate data."""

    degree: int
    rank: int
    projectors: list
    suborbit_lengths: list
    events: list = field(default_factory=list)

    @property
    def dimension_multiset(self):
        return sorted(p.dimension for p in self.projectors)

    def exact_only(self):
        return all(p.exact for p in self.projectors)


@dataclass(frozen=True)
class SplitEvent:
    """One step of the split, for reports and diagnostics."""

    d: int
    # the dimension loop's "inconsistent" | "solutions" | "slice" | "filtered",
    # the last when the numeric filter rejects every point of a
    # zero-dimensional system or every slice of a positive-dimensional one;
    # the exact projectors of dimension d make one event with no Hilbert
    # dimension, "blockRefinement" when some come from refining a block and
    # "solutions" otherwise
    kind: str
    hilbert: int = None
    extracted: int = 0


def _ring(rank):
    """The ring of the coordinates x_1..x_R of an unknown X."""
    return Ring(tuple(f"x{i}" for i in range(1, rank + 1)), "degrevlex")


def build_idempotency_system(consts: StructureConstants):
    """The coordinates of X·X - X over x_1..x_R: E_r = sum_pq C_pq^r x_p x_q - x_r,
    one term per nonzero structure constant."""
    c, ring, eye = consts.tensor, _ring(consts.rank), np.eye(consts.rank, dtype=np.int64)
    terms = [Counter() for _ in range(consts.rank)]
    for r, p, q in zip(*np.nonzero(c.transpose(2, 0, 1))):
        terms[r][tuple((eye[p] + eye[q]).tolist())] += int(c[p, q, r])
    return [Poly(ring, at_r) - Poly.variable(ring, r) for r, at_r in enumerate(terms)]


def _orthogonality_forms(consts, coeffs, side):
    """The nonzero coordinates of B·X (side="left") or X·B (side="right"), linear
    forms in x_1..x_R whose coefficients are one batch of products B·A_q (A_q·B)."""
    if not all(isinstance(c, FieldElement) for c in coeffs):
        raise ValueError("orthogonality forms need exact coefficients")
    rank, ring = consts.rank, _ring(consts.rank)
    vectors = [coeffs] + [_basis_vector(rank, q) for q in range(rank)]
    pairs = [(0, q) if side == "left" else (q, 0) for q in range(1, rank + 1)]
    columns = _contract(consts.tensor, consts.product_bound, vectors, pairs, DEFAULT_PRECISION)
    monos = [tuple(row) for row in np.eye(rank, dtype=int).tolist()]
    forms = (Poly(ring, dict(zip(monos, row))) for row in zip(*columns))
    return [form for form in forms if not form.is_zero()]


def build_orthogonality_system(consts: StructureConstants, coeffs):
    """The nonzero linear forms L_r(x) = sum_q (sum_p b_p C_pq^r) x_q of
    B·X = 0, for the exact coefficient vector b of B."""
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
        self.polys = build_idempotency_system(consts)
        self.forms = []  # orthogonality forms of the exact projectors' sum
        self.projectors = list(projectors)
        self.numeric_sum = None  # coefficients of the numeric projectors' sum
        self.found = sum(p.dimension for p in projectors)
        self.events = []
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
            self.forms = list(dict.fromkeys(forms))
        else:
            self.numeric_sum = total

    def d_system(self, d):
        """The system of dimension d over x_1..x_R: E_r, the orthogonality
        forms of the exact sum, and x_1 - d/N, since the trace pins the
        coefficient of the identity basis matrix."""
        x1 = Poly.variable(self.polys[0].ring, 0)
        return self.polys + self.forms + [x1 - Fraction(d, self.basis.degree)]

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
        b = point.values
        prec = max(self.config.precision, point.precision)
        left = algebra_product(self.consts, self.numeric_sum, b, prec)
        right = algebra_product(self.consts, b, self.numeric_sum, prec)
        return _vanishes(left, precision=prec) and _vanishes(right, precision=prec)


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
    docstring).  Each is decoded into FieldElements once, here."""
    rank, n = consts.rank, basis.degree
    centre = _centre_basis(consts)
    units = [(1, (1,), a[:, None], 1) for a in np.eye(rank, dtype=np.int64)]  # A_1, ..., A_R
    # centre[0] is A_1 (the commutator matrix's column 0 is zero), which splits nothing
    central = _refine(
        consts, [units[0]],
        [lambda e, z=z: _product(consts, e, z) for z in centre[1:]],
        len(centre),
    )
    compressions = [
        lambda e, a=units[r]: _product(consts, _product(consts, e, a), e)
        for r in range(1, rank)
    ]
    projectors = []
    left_traces = np.einsum("pqq->p", consts.tensor).tolist()  # tr(L_{A_p})
    for idem in central:
        k, d = _block_size(idem, left_traces, n)
        parts = [idem] if k == 1 else _refine(consts, [idem], compressions, k)
        kind, block = ("uniqueSolution", None) if k == 1 else ("blockRefinement", d)
        for f in parts:
            projectors.append(Projector(tuple(_decoded(f)), d, kind, config.precision, block))
    return projectors


def _product(consts, x, y):
    """The product of two elements, canonical, with the bound read off it."""
    (den, rads, s, _), = _contract_exact(consts.tensor, consts.product_bound, [x, y], [(0, 1)])
    return _canonical(den, rads, s)


# Entries of the commutator matrix that ``_centre_basis`` makes at once:
# 2^16 int64 entries are 0.5 MB, the whole matrix up to rank 40.
COMMUTATOR_ENTRIES = 1 << 16


def _centre_basis(consts):
    """A basis of the centre, as elements: the rational null space of
    x -> (x A_r - A_r x)_r, read off the reduced row echelon form of that
    map's integer matrix."""
    rank = consts.rank
    c = consts.tensor
    # row (r, s), column p: the A_s coefficient of A_p A_r - A_r A_p, made
    # for ``COMMUTATOR_ENTRIES`` entries' worth of r at a time
    step = max(1, COMMUTATOR_ENTRIES // rank**2)
    blocks = (
        (c[:, lo : lo + step] - c[lo : lo + step].transpose(1, 0, 2))
        .transpose(1, 2, 0)
        .reshape(-1, rank)
        for lo in range(0, rank, step)
    )
    # the identity is central, so at most rank - 1 pivots
    pivots = {col: row.tolist() for col, row in _integer_row_reduce(blocks, rank - 1).items()}
    basis = []
    for free in (j for j in range(rank) if j not in pivots):
        # z_free = 1 and z_col = -row[free] / row[col], over the lcm of those pivots
        den = math.lcm(*(row[col] for col, row in pivots.items() if row[free]))
        z = [[0] for _ in range(rank)]
        z[free][0] = den
        for col, row in pivots.items():
            z[col][0] = -row[free] * den // row[col]
        basis.append(_canonical(den, (1,), _integer_array(z)))
    return basis


def _integer_row_reduce(matrices, most):
    """Fraction-free Gauss-Jordan elimination of the rows of the integer
    matrices ``matrices``, stacked in order (``_distinct_rows``), stopped at
    ``most`` pivots: {pivot column: integer row} with each row 0 in every
    other pivot column, so the rows divided by their pivot entries are the
    reduced row echelon form.

    A step eliminates the pivot column from every other row that has it,
    row -> pivot * row - row[col] * pivot row, and divides each changed row
    by the gcd of its entries; the rows are int64 while a bound shows the
    step cannot overflow, and Python ints from then on.
    """
    rows = _distinct_rows(matrices)
    cols = []  # the pivot column of rows[i], for i < len(cols)
    while len(cols) < min(len(rows), most):
        n = len(cols)
        pivot_row = rows[n]
        col = int(np.flatnonzero(pivot_row)[0])
        hit = np.flatnonzero(rows[:, col])
        hit = hit[hit != n]
        if len(hit):
            sub = rows[hit]
            factor = sub[:, col]
            if rows.dtype != object and (
                int(np.abs(sub).max()) * abs(int(pivot_row[col]))
                + int(np.abs(factor).max()) * int(np.abs(pivot_row).max())
                >= 1 << 63
            ):
                rows, sub, factor, pivot_row = (
                    x.astype(object) for x in (rows, sub, factor, pivot_row)
                )
            sub = sub * pivot_row[col] - np.outer(factor, pivot_row)
            gcd = np.gcd.reduce(sub, axis=1)
            zero = gcd == 0
            gcd[zero] = 1
            rows[hit] = sub // gcd[:, None]
            if zero.any():
                rows = np.delete(rows, hit[zero], axis=0)
        cols.append(col)
    return {col: rows[i] for i, col in enumerate(cols)}


def _distinct_rows(matrices):
    """The nonzero rows of the integer matrices, stacked in order, each
    distinct row once, at its first occurrence; nothing of the matrices
    outlives the call."""
    seen, kept = set(), []
    for matrix in matrices:
        rows = matrix[matrix.any(axis=1)]
        first = []
        for i, row in enumerate(rows):
            key = row.tobytes()
            if key not in seen:
                seen.add(key)
                first.append(i)
        kept.append(rows[first])
    return np.concatenate(kept)


def _refine(consts, parts, elements, target):
    """Split the idempotents ``parts`` toward ``target`` of them, and return
    the primitive ones.

    Each element maps an idempotent e to an element y of eAe, and e splits
    by y (``_split_idempotent``).  The elements are tried in order, in
    passes.  A part that has met every element since it was made without
    splitting is settled: the same (e, y) pairs would split nothing again,
    so it is not multiplied again.  When ``target`` parts are reached, each
    is primitive.  When every part is settled, the parts that every element
    mapped to a multiple of themselves are returned: those, and only those,
    are primitive.
    """
    # per part: (e, elements met since it was made, each of them mapped e to a multiple of e)
    parts = [(e, 0, True) for e in parts]
    while len(parts) < target:
        if all(met == len(elements) for _, met, _ in parts):
            return [e for e, _, fixed in parts if fixed]
        for element in elements:
            refined = []
            for e, met, fixed in parts:
                if met == len(elements):
                    refined.append((e, met, fixed))
                    continue
                pieces = _split_idempotent(consts, e, element(e))
                if len(pieces) < 2:
                    refined.append((e, met + 1, fixed and not pieces))
                else:
                    refined += [(f, 0, True) for f in pieces]
            parts = refined
            if len(parts) == target:
                break
    return [e for e, _, _ in parts]


def _split_idempotent(consts, e, y):
    """What y in eAe says about the idempotent e.

    ``[]`` when y's minimal polynomial has degree 1, that is when y is a
    multiple of e.  Otherwise the Lagrange idempotents of y's simple tower
    roots and, when the minimal polynomial keeps a residual factor g, e
    minus their sum, the idempotent of g's roots; the parts sum to e.
    ``[e]`` when nothing splits: y has no root in the tower, or a repeated
    one."""
    poly, powers = _minimal_polynomial(consts, e, y)
    if len(poly) == 2:
        return []
    roots, residual = _exact_roots(poly)
    repeated = len(roots) + len(residual) < len(poly)
    if repeated or len(roots) + (len(residual) > 1) < 2:
        return [e]
    parts = []
    for root in roots:
        # L(t) = m(t) / ((t - root) m'(root)), a combination of e, y, ..., y^(m-1)
        quotient = _deflate(poly, root)
        scale = _poly_eval(quotient, root).invert()
        parts.append(_combination([(c * scale, power) for c, power in zip(quotient, powers)]))
    if len(residual) > 1:
        minus = -FieldElement.one()
        parts.append(_combination([(FieldElement.one(), e)] + [(minus, part) for part in parts]))
    return parts


def _minimal_polynomial(consts, e, y):
    """The monic minimal polynomial of y in the algebra with unit e, as its
    ascending coefficients, and the powers e, y, ..., y^(m-1) of y.

    The powers are reduced against each other in turn, each in one
    combination whose coefficients are read off the entries at the pivots;
    the first that reduces to zero gives the polynomial through the
    recorded combinations.
    """
    zero, one = FieldElement.zero(), FieldElement.one()
    # rows: (p_i, w_i, 1 / w_i[p_i], [w_j[p_i] for j < i], w_i as a combination of powers)
    powers, rows = [], []
    power = e
    while True:
        coeffs = []
        at = _decoded(power, [row[0] for row in rows]) if rows else []
        for v, (_, _, inv, above, _) in zip(at, rows):
            coeffs.append((v - sum((c * w for c, w in zip(coeffs, above)), zero)) * inv)
        terms = [(-c, row[1]) for c, row in zip(coeffs, rows) if c]
        vec = _combination([(one, power)] + terms) if terms else power
        combo = [zero] * len(powers) + [one]
        for c, (*_, row_combo) in zip(coeffs, rows):
            if c:
                pad = [zero] * (len(combo) - len(row_combo))
                combo = [a - c * b for a, b in zip(combo, row_combo + pad)]
        nonzero = np.flatnonzero(vec[2])
        if not len(nonzero):
            return combo, powers
        pivot = int(nonzero[0]) // len(vec[1])
        above = [_decoded(row[1], [pivot])[0] for row in rows]
        rows.append((pivot, vec, _decoded(vec, [pivot])[0].invert(), above, combo))
        powers.append(power)
        power = y if len(powers) == 1 else _product(consts, power, y)


def _block_size(idem, left_traces, degree):
    """(k, d) of a central primitive idempotent E: k^2 = tr(L_E), the sum of
    tr(L_{A_p}) E_p, and N E_1 = k d.  InvariantViolation unless both are
    positive integers, which for a central primitive idempotent they are."""
    k_squared, trace = _form(idem, left_traces), _decoded(idem, [0])[0] * degree
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
    if sum(p.dimension for p in projectors) < n:
        state = _SplitState(basis, consts, config, projectors)
        for d in range(1, n + 1):
            # a dimension with found + d > N can never fit, nor can any larger one
            if state.found + d > n:
                break
            _run_dimension(state, d)
        if state.found < n:
            raise IncompleteDecomposition(f"dimensions exhausted with {state.found}/{n} found")
        projectors, events = state.projectors, events + state.events
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
    )
    report = verify.verify_family_algebraic(consts, deco, config.precision)
    if not report.passed:
        failed = "; ".join(c.name for c in report.failures())
        raise InvariantViolation(f"split family fails its certificate: {failed}")
    return deco


def _run_dimension(state: _SplitState, d):
    """Process one candidate dimension: slice while the system is
    positive-dimensional, then enumerate its solutions or meet inconsistency.

    The d-system's Groebner basis is computed on entry and after each exact
    sliced projector, whose forms join the system; a numeric one leaves the
    system and its basis as they were.  The Hilbert dimension only chooses
    between enumerating and slicing; the certificate settles how many
    projectors a dimension yields.  Every projector extracted at a sliced d
    is tagged as the block d.  Running out of slice attempts ends the block
    at d once a numeric projector has been accepted, and raises
    SliceExhausted naming d and the Hilbert dimension otherwise.  Each pass
    ends d or accepts a projector of dimension d, so at most N passes run.
    """
    cfg = state.config
    first = len(state.projectors)
    sliced = False
    changed = True  # the d-system has no basis yet, or has changed since
    while True:
        if changed:
            gb = groebner_basis(state.d_system(d))
            if is_trivial_basis(gb):
                state.events.append(SplitEvent(d, "inconsistent"))
                break
            h = hilbert_dimension(gb)
        if h == 0:
            points = solve_zero_dimensional(gb, precision=cfg.precision)
            points = [p for p in points if state.accept_candidate(p)]
            for point in points:
                process_single_solution(
                    state, Projector(point.values, d, "uniqueSolution", point.precision)
                )
            kind = "solutions" if points else "filtered"
            state.events.append(SplitEvent(d, kind, h, len(points)))
            break
        sliced = True
        try:
            point = particular_solution_on_slice(
                gb, precision=cfg.precision, accept=state.accept_candidate
            )
        except SliceExhausted as e:
            if state.numeric_sum is None:
                raise SliceExhausted(f"{e} at d={d} (Hilbert dimension {h})") from None
            # a numeric projector leaves the d-system as it was, so once the
            # block is complete every slice is rejected: the block ends here
            state.events.append(SplitEvent(d, "filtered", h, 0))
            break
        projector = Projector(point.values, d, "slicedSolution", point.precision)
        process_single_solution(state, projector)
        state.events.append(SplitEvent(d, "slice", h, 1))
        if state.found >= state.basis.degree:
            break
        changed = projector.exact
    if sliced:
        for proj in state.projectors[first:]:
            proj.block = d


def _pair_conjugates(deco: Decomposition):
    exact_index = {p.coefficients: i for i, p in enumerate(deco.projectors) if p.exact}
    for i, p in enumerate(deco.projectors):
        if not p.exact or p.conjugate_of is not None:
            continue
        j = exact_index.get(tuple(c.conjugate() for c in p.coefficients))
        if j is not None and j != i:
            deco.projectors[i].conjugate_of = j
            deco.projectors[j].conjugate_of = i
