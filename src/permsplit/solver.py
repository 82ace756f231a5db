"""Solution points of the idempotency systems.

A zero-dimensional lex basis is triangular in a usable sense: every variable
x_j owns a basis element whose leading monomial is a pure power x_j^m, and
under lex (weakest variable first) that element involves x_1..x_j only.
Enumeration walks this chain: factor the univariate in the least variable,
back-substitute, recurse.

A coordinate is one value: an exact FieldElement of the tower, or a
ComplexBall enclosure, and its type is its flag.  Exact root extraction covers
degrees 1 and 2 over the tower plus rational roots of any degree; deeper
factors are solved numerically (root finding plus Newton polishing, with
enclosure verification by ball arithmetic and precision doubling).  Each level
of the enumeration substitutes the exact coordinates exactly and lifts its
coefficients to balls only when a numeric coordinate is left.  Each
candidate point is checked against the lex basis by ``Poly.evaluate``: an
exact point must give exactly zero in every element, and a point with a
numeric coordinate is evaluated on the balls of its coordinates, each of
which must contain zero.

A positive-dimensional system is sliced from the caller's Groebner basis:
coordinate pins over the free variables its leading terms leave, tried in a
fixed order, turn it zero-dimensional, and the caller re-runs its system once
the sliced solution is taken.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import mpmath

from .errors import (
    InvariantViolation,
    NotZeroDimensional,
    ResourceLimit,
    SliceExhausted,
    UNREPRESENTABLE,
)
from .exactfield import RHO_STEPS, ComplexBall, FieldElement, as_ball, factorize, sqrt_if_nice
from .polynomial import (
    Poly,
    groebner_basis,
    is_trivial_basis,
    max_independent_set,
)

__all__ = [
    "SolutionPoint",
    "solve_zero_dimensional",
    "particular_solution_on_slice",
]

DEFAULT_PRECISION = 128
MAX_PRECISION = 2048
SLICE_ATTEMPTS = 64
MAX_DIVISORS = 4096  # the rational root search gives up on more divisors

_PIN_VALUES = [
    Fraction(0),
    Fraction(1),
    Fraction(-1),
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(2),
    Fraction(-2),
    Fraction(1, 3),
]


@dataclass(frozen=True)
class SolutionPoint:
    """One solution of a polynomial system over the ambient variables.

    ``values[i]`` is the coordinate: an exact FieldElement of the tower, or a
    certified ComplexBall enclosure where the root lies outside it.  Its type
    is the coordinate's flag, read per coordinate from ``exact``.
    """

    values: tuple
    precision: int = DEFAULT_PRECISION

    def __len__(self):
        return len(self.values)

    @property
    def exact(self):
        return tuple(isinstance(v, FieldElement) for v in self.values)

    def is_exact(self):
        return all(self.exact)

    def coordinate_ball(self, i, precision=None):
        return as_ball(self.values[i], precision or self.precision)

    def sort_key(self):
        """Lexicographic on (Re, Im) of the coordinate embeddings, lazily."""
        return [_SortCoordinate(v) for v in self.values]


class _SortCoordinate:
    """A coordinate ordered by (Re, Im) of its 64-bit ball's midpoint, made
    at the first comparison that needs it; equal exact values need none."""

    def __init__(self, value):
        self.value = value

    @cached_property
    def key(self):
        b = as_ball(self.value, 64)
        return mpmath.mpf(b.mid.real), mpmath.mpf(b.mid.imag)

    def __eq__(self, other):
        exact = isinstance(self.value, FieldElement) and self.value == other.value
        return exact or self.key == other.key

    def __lt__(self, other):
        return self.key < other.key


# -- univariate helpers ---------------------------------------------------------


def _deflate(coeffs, root):
    """Synthetic division of sum c_k x^k by (x - root); exact remainder must
    vanish (caller guarantees root)."""
    out = [FieldElement.zero()] * (len(coeffs) - 1)
    acc = FieldElement.zero()
    for k in range(len(coeffs) - 1, 0, -1):
        acc = coeffs[k] + acc
        out[k - 1] = acc
        acc = acc * root
    return out


def _poly_eval(coeffs, x):
    """sum c_k x^k by Horner's rule, for FieldElements and mpmath numbers
    alike; ``coeffs`` is not empty."""
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


def _divisors(n):
    """The positive divisors of n; None for 0, past ``MAX_DIVISORS`` divisors,
    or when factorizing n hits its step cap."""
    n = abs(n)
    if n == 0:
        return None
    try:
        factors = factorize(n, RHO_STEPS)
    except ResourceLimit:
        return None
    divs = [1]
    for p, e in factors.items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
        if len(divs) > MAX_DIVISORS:
            return None
    return divs


def _rational_roots(coeffs):
    """All rational roots, found by bounded divisor search.

    With irrational coefficients a rational root must kill every radicand
    component, so the search runs on the component of the leading
    coefficient's first radicand (a rational polynomial with nonzero leading
    entry).  Each candidate ±p/q in lowest terms is screened in integers on
    that component, cleared of denominators (sum_k ints[k]·p^k·q^(n−k) = 0);
    only a survivor becomes a Fraction, and the survivors, in ascending
    order, are verified against the full polynomial and deflated.
    """
    roots = []
    work = list(coeffs)
    while len(work) > 1 and work[0].is_zero():
        roots.append(FieldElement.zero())
        work = work[1:]
    if len(work) <= 1:
        return roots, work
    key = work[-1].sorted_terms()[0][0]
    comp = [c.terms.get(key, Fraction(0)) for c in work]
    den_lcm = math.lcm(*(q.denominator for q in comp))
    ints = [int(q * den_lcm) for q in comp]
    low = 0
    while ints[low] == 0:
        low += 1  # nonzero candidates divide the lowest nonzero entry
    d0 = _divisors(ints[low])
    dn = _divisors(ints[-1])
    if d0 is None or dn is None:
        return roots, work
    survivors = [
        Fraction(num, q)
        for p in d0
        for q in dn
        if math.gcd(p, q) == 1
        for num in (p, -p)
        if _kills_component(ints, num, q)
    ]
    for cand in sorted(survivors):
        fe = FieldElement.from_rational(cand)
        while len(work) > 1 and _poly_eval(work, fe).is_zero():
            roots.append(fe)
            work = _deflate(work, fe)
    return roots, work


def _kills_component(ints, p, q):
    """True when p/q is a root of sum_k ints[k]·t^k, by Horner's rule on
    sum_k ints[k]·p^k·q^(n−k) in Python integers."""
    acc, q_power = ints[-1], 1
    for c in reversed(ints[:-1]):
        q_power *= q
        acc = acc * p + c * q_power
    return acc == 0


def _quadratic_roots(coeffs):
    """Exact roots of a degree-2 factor over the tower, or None."""
    c0, c1, c2 = coeffs
    disc = c1 * c1 - FieldElement.from_rational(4) * c2 * c0
    s = sqrt_if_nice(disc)
    if s is UNREPRESENTABLE:
        return None
    inv = (FieldElement.from_rational(2) * c2).invert()
    if s.is_zero():
        return [(-c1) * inv]
    return [(-c1 + s) * inv, (-c1 - s) * inv]


def _exact_roots(coeffs):
    """The distinct roots of an exact univariate that lie in the tower, and the
    residual factor left for the numeric solver (a constant when none is)."""
    roots, residual = _rational_roots(coeffs)
    if len(residual) == 2:
        roots.append((-residual[0]) / residual[1])
        residual = residual[:1]
    elif len(residual) == 3:
        qr = _quadratic_roots(residual)
        if qr is not None:
            roots.extend(qr)
            residual = residual[:1]
    # multiplicity is ignored: repeated roots collapse to one branch
    return list(dict.fromkeys(roots)), residual


# -- numeric roots ----------------------------------------------------------------


def _numeric_roots(coeffs, prec):
    """Certified enclosures of all roots of an exact/ball coefficient list.

    The enclosure radius combines the final Newton correction with a
    first-order bound for the coefficient uncertainty, sum(rad_k |x|^k)/|f'|.
    """
    with mpmath.workprec(prec + 40):
        balls = [as_ball(c, prec + 40) for c in coeffs]
        mids = [b.mid for b in balls]
        deg = len(mids) - 1
        roots = mpmath.polyroots(
            list(reversed(mids)), maxsteps=200, extraprec=prec
        )
        out = []
        dpoly = [mids[k] * k for k in range(1, deg + 1)]
        tiny = mpmath.mpf(2) ** (-(prec + 20))
        for r in roots:
            x = mpmath.mpc(r)
            last = mpmath.mpf(1)
            for _ in range(80):
                fx = _poly_eval(mids, x)
                dfx = _poly_eval(dpoly, x)
                if dfx == 0:
                    break
                step = fx / dfx
                x -= step
                last = abs(step)
                if last < tiny * (1 + abs(x)):
                    break
            coeff_rad = mpmath.mpf(0)
            scale = mpmath.mpf(1)
            xm = max(mpmath.mpf(1), abs(x))
            for b in balls:
                coeff_rad += b.rad * scale
                scale *= xm
            dfx_abs = max(abs(_poly_eval(dpoly, x)), mpmath.mpf(2) ** (-prec))
            rad = (
                32 * last
                + (1 + abs(x)) * mpmath.mpf(2) ** (-(prec + 10))
                + 4 * coeff_rad / dfx_abs
            )
            out.append(ComplexBall(+x, +rad))
        return out


def _dedupe_balls(balls, prec):
    """Cluster overlapping/near-identical enclosures, keeping first-found."""
    out = []
    tol = mpmath.mpf(2) ** (-max(prec // 2, 24))
    for b in balls:
        dup = False
        for kept in out:
            if abs(b.mid - kept.mid) <= tol * (1 + abs(kept.mid)) + b.rad + kept.rad:
                dup = True
                break
        if not dup:
            out.append(b)
    return out


# -- the solver -------------------------------------------------------------------


def _triangular_chain(G, ring):
    """For each variable the minimal pure-power-led basis element."""
    nvars = ring.nvars
    chain = [None] * nvars
    for g in G:
        lm = g.leading_monomial()
        support = [i for i, e in enumerate(lm) if e]
        if len(support) == 1:
            j = support[0]
            if chain[j] is None or lm[j] < chain[j].leading_monomial()[j]:
                chain[j] = g
    if any(c is None for c in chain):
        raise NotZeroDimensional(
            "some variable has no pure-power leading term in the lex basis"
        )
    return chain


def _to_lex(polys):
    ring = polys[0].ring
    if ring.order == "lex":
        lex_ring = ring
        lex_gens = list(polys)
    else:
        lex_ring = ring.with_order("lex")
        lex_gens = [Poly(lex_ring, p.terms) for p in polys]
    return groebner_basis(lex_gens), lex_ring


def solve_zero_dimensional(system, precision=DEFAULT_PRECISION):
    """All solutions over the complex numbers of a zero-dimensional system.

    ``system`` is a list of Poly sharing one ring.  Returns
    SolutionPoints in deterministic order (lexicographic over the numeric
    embeddings of the coordinates).  Raises ResourceLimit when some candidate
    root is neither verified nor rejected at MAX_PRECISION.
    """
    gens = [g for g in system if not g.is_zero()]
    if not gens:
        raise NotZeroDimensional("empty system is not zero-dimensional")
    lex_basis, lex_ring = _to_lex(gens)
    if is_trivial_basis(lex_basis):
        return []
    chain = _triangular_chain(lex_basis, lex_ring)

    prec = precision
    while True:
        points = []
        _enumerate(chain, [], points, prec)
        verified = []
        ambiguous = 0
        for pt in points:
            status = _classify_point(pt, lex_basis, prec)
            if status == "ok":
                verified.append(pt)
            elif status == "ambiguous":
                ambiguous += 1
        if not ambiguous:
            verified.sort(key=SolutionPoint.sort_key)
            _assert_exact_roots(verified, gens)
            return verified
        if prec >= MAX_PRECISION:
            raise ResourceLimit(
                f"{ambiguous} candidate roots neither verified nor rejected "
                f"up to precision {prec}"
            )
        prec = min(2 * prec, MAX_PRECISION)


def _enumerate(chain, partial, sink, prec):
    """Depth-first root enumeration along the triangular chain.

    ``partial`` holds the coordinates assigned so far, exact or enclosed.
    While every coefficient is exact the tower roots come first; whatever
    residual is left, and every level below a numeric coordinate, is solved
    numerically.
    """
    j = len(partial)
    if j == len(chain):
        sink.append(SolutionPoint(tuple(partial), prec))
        return
    coeffs = _collect_univariate(chain[j], j, partial, prec)
    roots = []
    if all(isinstance(c, FieldElement) for c in coeffs):
        roots, coeffs = _exact_roots(coeffs)
    if len(coeffs) > 1:
        roots += _dedupe_balls(_numeric_roots(coeffs, prec), prec)
    for root in roots:
        _enumerate(chain, partial + [root], sink, prec)


def _collect_univariate(poly, var, partial, prec):
    """Coefficients of x_var in ``poly`` at the assigned coordinates.

    Exact coordinates are substituted exactly.  When a numeric one is left,
    the coefficients are lifted to balls and it is evaluated by enclosure.
    """
    for i, v in enumerate(partial):
        if isinstance(v, FieldElement):
            poly = poly.substitute(i, v)
    lift = not all(isinstance(v, FieldElement) for v in partial)
    with mpmath.workprec(prec + 40):
        buckets = {}
        for mono, c in poly.terms.items():
            term = as_ball(c, prec) if lift else c
            for i, exp in enumerate(mono):
                if i == var or not exp:
                    continue
                if i > var:
                    raise InvariantViolation("chain element not triangular after substitution")
                for _ in range(exp):
                    term = term * partial[i]
            e = mono[var]
            prev = buckets.get(e)
            buckets[e] = term if prev is None else prev + term
        zero = FieldElement.zero()
        return [buckets.get(e, zero) for e in range(max(buckets, default=0) + 1)]


def _classify_point(point, residuals, prec):
    """'ok' when every residual polynomial vanishes at the point (encloses
    zero, for a numeric one), 'reject' when some residual is confidently
    nonzero, 'ambiguous' otherwise (requesting more precision)."""
    if point.is_exact():
        good = all(p.evaluate(point.values).is_zero() for p in residuals)
        return "ok" if good else "reject"
    margin = mpmath.mpf(2) ** 24
    status = "ok"
    with mpmath.workprec(prec + 40):
        balls = [point.coordinate_ball(i, prec) for i in range(len(point))]
        for poly in residuals:
            res = poly.evaluate(balls)
            if res.contains_zero():
                continue
            if abs(res.mid) > res.rad * margin:
                return "reject"
            status = "ambiguous"
    return status


def _assert_exact_roots(points, original_gens):
    for pt in points:
        if pt.is_exact():
            for g in original_gens:
                if not g.evaluate(pt.values).is_zero():
                    raise InvariantViolation(
                        "exact solution does not annihilate a generator"
                    )


# -- slicing for positive-dimensional systems --------------------------------------


def _sum_tuples(h, total, maxidx):
    if h == 1:
        if total <= maxidx:
            yield (total,)
        return
    for first in range(min(total, maxidx) + 1):
        for rest in _sum_tuples(h - 1, total - first, maxidx):
            yield (first,) + rest


def _pin_assignments(h):
    """Graded deterministic sequence of pin-value tuples (all zeros first),
    at most SLICE_ATTEMPTS of them."""
    count = 0
    maxidx = len(_PIN_VALUES) - 1
    for total in range(h * maxidx + 1):
        for combo in _sum_tuples(h, total, maxidx):
            yield tuple(_PIN_VALUES[i] for i in combo)
            count += 1
            if count >= SLICE_ATTEMPTS:
                return


def particular_solution_on_slice(basis, precision=DEFAULT_PRECISION, accept=None):
    """One verified solution of a positive-dimensional system.

    ``basis`` is the system's reduced Groebner basis.  Its leading terms give
    a maximal independent set of h free variables (h = Hilbert dimension),
    and the basis is augmented with h coordinate pins over them: zero first,
    then small rationals, graded by pin index (8^h tuples, at most
    SLICE_ATTEMPTS).  Each augmented system gets one Groebner basis, the lex
    basis of ``solve_zero_dimensional``; pins that make it inconsistent,
    leave it positive-dimensional or hit a resource cap move on to the next
    tuple.  The first solution that also satisfies the basis (and the
    optional ``accept`` predicate) is returned.
    """
    if is_trivial_basis(basis):
        raise ValueError("inconsistent system cannot be sliced")
    ring = basis[0].ring
    free = sorted(max_independent_set(basis, ring.nvars))
    if not free:
        raise ValueError("slice requested for a zero-dimensional system")
    for tried, pins in enumerate(_pin_assignments(len(free)), start=1):
        extra = [
            Poly.variable(ring, v) - Poly.const(ring, val)
            for v, val in zip(free, pins)
        ]
        pt = _try_slice(basis + extra, basis, precision, accept)
        if pt is not None:
            return pt
    raise SliceExhausted(f"no particular solution within {tried} slice attempts")


def _try_slice(augmented, basis, precision, accept):
    """The first accepted solution of one pinned system, or None when the
    pins are inconsistent, leave it positive-dimensional, or run into a
    resource cap (the caller then tries the next pins)."""
    try:
        points = solve_zero_dimensional(augmented, precision=precision)
    except (NotZeroDimensional, ResourceLimit):
        return None
    for pt in points:
        if _classify_point(pt, basis, precision) != "ok":
            continue
        if accept is not None and not accept(pt):
            continue
        return pt
    return None
