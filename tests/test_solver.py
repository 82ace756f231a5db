import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from permsplit import (
    FieldElement,
    NotZeroDimensional,
    Poly,
    ResourceLimit,
    Ring,
    SliceExhausted,
    groebner_basis,
    particular_solution_on_slice,
    solve_zero_dimensional,
)
from permsplit import solver
from permsplit.exactfield import ComplexBall
from permsplit.solver import SolutionPoint

from oracles import eager_sort_key, rational_roots_by_divisor_search

FE = FieldElement

PRIMORIAL_41 = math.prod([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41])


def _is_square(n):
    return n >= 0 and math.isqrt(n) ** 2 == n


def one_var():
    r = Ring(("x2",), "degrevlex")
    return r, Poly.variable(r, 0)


class TestExactRoots:
    def test_linear(self):
        r, x = one_var()
        pts = solve_zero_dimensional([x - Poly.const(r, Fraction(1, 3))])
        assert len(pts) == 1
        assert pts[0].is_exact()
        assert pts[0].values[0] == FE.from_rational(Fraction(1, 3))

    def test_quadratic_sqrt3(self):
        r, x = one_var()
        pts = solve_zero_dimensional([x * x - 3])
        assert [p.values[0] for p in pts] == [-FE.sqrt_int(3), FE.sqrt_int(3)]

    def test_golden_ratio(self):
        r, x = one_var()
        pts = solve_zero_dimensional([x * x - x - 1])
        lo = (FE.one() - FE.sqrt_int(5)).scaled(Fraction(1, 2))
        hi = (FE.one() + FE.sqrt_int(5)).scaled(Fraction(1, 2))
        assert [p.values[0] for p in pts] == [lo, hi]

    def test_gaussian_pair(self):
        r, x = one_var()
        pts = solve_zero_dimensional([x * x + 1])
        assert [p.values[0] for p in pts] == [-FE.i(), FE.i()]

    def test_double_root_is_one_root(self):
        # 2 - 2 sqrt(2) x + x^2 = (x - sqrt(2))^2: a zero discriminant
        s2 = FE.sqrt_int(2)
        coeffs = [FE.from_rational(2), -2 * s2, FE.one()]
        assert solver._quadratic_roots(coeffs) == [s2]
        assert solver._exact_roots(coeffs) == ([s2], [FE.from_rational(2)])

    def test_rational_roots_of_cubic(self):
        r, x = one_var()
        f = (x - 1) * (x - 2) * (x * 2 + 1)
        pts = solve_zero_dimensional([f])
        values = [p.values[0] for p in pts]
        assert values == [
            FE.from_rational(Fraction(-1, 2)),
            FE.from_rational(1),
            FE.from_rational(2),
        ]

    @given(
        st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=6), max_size=4),
        st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=4), min_size=1, max_size=4),
        st.lists(
            st.tuples(st.sampled_from([-1, 2, 3, 5, -3]), st.integers(-3, 3), st.booleans()),
            max_size=3,
        ),
        st.fractions(min_value=-5, max_value=5, max_denominator=5).filter(bool),
    )
    @settings(max_examples=150, deadline=None)
    def test_rational_roots_match_the_divisor_search(self, roots, rational, tower, scale):
        """(chosen rational roots) x (a rational cofactor) x (a tower
        cofactor, x − c·√k or √k·x − c): the integer screen leaves the
        roots, their order and the residual of the search that evaluates
        every candidate."""
        coeffs = [FE.from_rational(scale)]
        factors = [[FE.from_rational(-r), FE.one()] for r in roots]
        factors.append([FE.from_rational(c) for c in rational])
        for k, c, lead in tower:
            root = FE.sqrt_int(k)
            factors.append([FE.from_rational(-c), root] if lead else [-c * root, FE.one()])
        for f in factors:
            out = [FE.zero()] * (len(coeffs) + len(f) - 1)
            for i, a in enumerate(coeffs):
                for j, b in enumerate(f):
                    out[i + j] = out[i + j] + a * b
            coeffs = out
        while len(coeffs) > 1 and coeffs[-1].is_zero():
            coeffs.pop()
        if coeffs[-1].is_zero():
            return
        assert solver._rational_roots(coeffs) == rational_roots_by_divisor_search(coeffs)

    @given(
        st.lists(st.tuples(st.integers(-12, 12), st.integers(1, 6)), min_size=1, max_size=5),
        st.tuples(st.integers(1, 4), st.integers(-6, 6), st.integers(-6, 6)).filter(
            lambda abc: not _is_square(abc[1] ** 2 - 4 * abc[0] * abc[2])
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_rational_roots_of_linear_factors_and_a_quadratic(self, linear, quadratic):
        """prod (q x - p) times an irreducible a x^2 + b x + c: the roots
        are the p/q, each as often as its factor, zeros first and then in
        ascending order, as the search that evaluates every candidate finds
        them; the residual is the quadratic times prod q."""
        a, b, c = quadratic
        coeffs = [FE.from_rational(c), FE.from_rational(b), FE.from_rational(a)]
        lead = 1
        for p, q in linear:
            lead *= q
            shifted = [FE.zero()] + [x.scaled(q) for x in coeffs]
            coeffs = [s - x.scaled(p) for s, x in zip(shifted, coeffs + [FE.zero()])]
        roots, residual = solver._rational_roots(coeffs)
        values = [Fraction(p, q) for p, q in linear]
        want = [v for v in values if not v] + sorted(v for v in values if v)
        assert roots == [FE.from_rational(v) for v in want]
        assert residual == [FE.from_rational(x * lead) for x in (c, b, a)]
        assert (roots, residual) == rational_roots_by_divisor_search(coeffs)

    def test_two_variable_back_substitution(self):
        r = Ring(("x2", "x3"), "degrevlex")
        x2, x3 = Poly.variable(r, 0), Poly.variable(r, 1)
        pts = solve_zero_dimensional([x2 * x2 - 2, x3 - x2 * x2 * x2])
        assert len(pts) == 2
        for p in pts:
            v2, v3 = p.values
            assert v3 == v2 * v2 * v2

    def test_exact_points_annihilate_generators(self):
        r = Ring(("x2", "x3"), "degrevlex")
        x2, x3 = Poly.variable(r, 0), Poly.variable(r, 1)
        gens = [x2 * x2 + x3 - 1, x3 * x3 - x3]
        for p in solve_zero_dimensional(gens):
            if p.is_exact():
                for g in gens:
                    assert g.evaluate(list(p.values)).is_zero()

    def test_not_zero_dimensional(self):
        r = Ring(("x2", "x3"), "degrevlex")
        x2, x3 = Poly.variable(r, 0), Poly.variable(r, 1)
        with pytest.raises(NotZeroDimensional):
            solve_zero_dimensional([x2 * x3])

    def test_inconsistent_system_has_no_points(self):
        r = Ring(("x1",), "degrevlex")
        x1 = Poly.variable(r, 0)
        assert solve_zero_dimensional([x1, x1 - 1]) == []

    @pytest.mark.parametrize(
        "n", [0, PRIMORIAL_41, 1099511627791 * 1099511627803],
        ids=["zero", "past_max_divisors", "past_rho_steps"],
    )
    def test_divisor_search_gives_up(self, n):
        """0; 2·3·…·41, whose 8,192 divisors are past MAX_DIVISORS; and a
        product of two primes near 2^40, which Pollard rho does not split
        within RHO_STEPS."""
        assert solver._divisors(n) is None

    def test_rational_roots_give_up_but_the_quadratic_finds_them(self):
        """(t + 1)(t − N) with N = 2·3·…·41: N's divisors are past the cap,
        so the rational search returns no root, and the quadratic formula
        finds both.  (With t − 1 in place of t + 1 the discriminant is the
        square of the prime N − 1, whose uncapped factorization takes
        Pollard rho about 50 s.)"""
        coeffs = [FE.from_rational(x) for x in (-PRIMORIAL_41, 1 - PRIMORIAL_41, 1)]
        assert solver._rational_roots(coeffs) == ([], coeffs)
        roots, residual = solver._exact_roots(coeffs)
        assert roots == [FE.from_rational(PRIMORIAL_41), -FE.one()]
        assert residual == coeffs[:1]


# coordinates for the sort key: exact rationals, tower elements, two exact
# values that differ only past 64 bits, and balls
_KEY_POOL = [
    FE.from_rational(Fraction(1)),
    FE.from_rational(Fraction(1) + Fraction(1, 2**80)),
    FE.from_rational(Fraction(-1, 3)),
    FE.sqrt_int(2) - 1,
    FE.sqrt_int(-3) / 2,
    FE.from_rational(Fraction(-1, 2)) + FE.sqrt_int(-3) / 2,
    ComplexBall(mpmath.mpc(-0.5, 0.8660254037844386), mpmath.mpf(2) ** -90),
    ComplexBall(mpmath.mpf(1), mpmath.mpf(2) ** -70),
]


class TestSortKey:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from(_KEY_POOL), st.sampled_from(_KEY_POOL)),
            max_size=7,
        )
    )
    def test_lazy_key_keeps_the_eager_order(self, rows):
        points = [SolutionPoint(values) for values in rows]
        lazy = sorted(range(len(points)), key=lambda i: points[i].sort_key())
        eager = sorted(range(len(points)), key=lambda i: eager_sort_key(points[i]))
        assert lazy == eager

    def test_coordinates_after_the_first_difference_are_not_lifted(self):
        """Distinct first coordinates settle the order, so no second
        coordinate is lifted; equal exact first coordinates compare equal
        without a ball of their own."""
        distinct = [
            SolutionPoint((FE.from_rational(Fraction(k)), FE.sqrt_int(2))) for k in (3, 1, 2)
        ]
        keys = [p.sort_key() for p in distinct]
        assert sorted(range(3), key=keys.__getitem__) == [1, 2, 0]
        assert all("key" in vars(k[0]) and "key" not in vars(k[1]) for k in keys)
        same = [SolutionPoint((FE.sqrt_int(2), FE.from_rational(Fraction(k)))) for k in (2, 1)]
        keys = [p.sort_key() for p in same]
        assert sorted(range(2), key=keys.__getitem__) == [1, 0]
        assert all("key" not in vars(k[0]) and "key" in vars(k[1]) for k in keys)


class TestNumericFallback:
    def test_cyclotomic_quintic(self):
        # x^5 = 1/3125: one rational root, four numeric on the circle
        r, x = one_var()
        f = x**5 - Poly.const(r, Fraction(1, 3125))
        pts = solve_zero_dimensional(f.terms and [f])
        assert len(pts) == 5
        exact = [p for p in pts if p.is_exact()]
        assert len(exact) == 1 and exact[0].values[0] == FE.from_rational(
            Fraction(1, 5)
        )
        with mpmath.workprec(140):
            for p in pts:
                ball = p.coordinate_ball(0)
                assert abs(abs(ball.mid) - mpmath.mpf(1) / 5) < mpmath.mpf(2) ** -100

    def test_classify_point_evaluates_residuals_on_balls(self):
        """Numeric points of the system enclose zero in every lex basis
        element; moving a coordinate off its root makes some residual
        confidently nonzero."""
        r = Ring(("x2", "x3"), "degrevlex")
        x2, x3 = Poly.variable(r, 0), Poly.variable(r, 1)
        gens = [x2**3 - 2, x3 * x3 - x2 * Poly.const(r, FE.sqrt_int(2)) - 1]
        lex_basis, _ = solver._to_lex(gens)
        prec = solver.DEFAULT_PRECISION
        points = [p for p in solve_zero_dimensional(gens) if not p.is_exact()]
        assert len(points) == 6
        for pt in points:
            assert solver._classify_point(pt, lex_basis, prec) == "ok"
            off = (pt.values[0] + ComplexBall(mpmath.mpf(2) ** -20),) + pt.values[1:]
            moved = SolutionPoint(off, pt.precision)
            assert solver._classify_point(moved, lex_basis, prec) == "reject"

    def test_classify_point_near_a_root_asks_for_more_precision(self):
        """A residual ball that excludes zero decides 'reject' only when its
        midpoint lies more than 2^24 radii from zero; nearer, the point is
        'ambiguous', so the solver retries it at a higher precision."""
        r, x = one_var()
        residual = [x - Poly.const(r, Fraction(1, 3))]
        prec = solver.DEFAULT_PRECISION
        rad = mpmath.mpf(2) ** -100
        with mpmath.workprec(prec + 40):
            third = mpmath.mpf(1) / 3

            def at(offset):
                return SolutionPoint((ComplexBall(third + offset, rad),), prec)

            assert solver._classify_point(at(0), residual, prec) == "ok"
            assert solver._classify_point(at(2**10 * rad), residual, prec) == "ambiguous"
            assert solver._classify_point(at(2**30 * rad), residual, prec) == "reject"

    def test_dedupe_merges_two_enclosures_of_one_root(self):
        """Two enclosures of 1/2 whose midpoints differ by 2^-40, far past
        the 2^-64 tolerance at 128 bits, overlap by their radii: one root,
        kept as first found.  A disjoint ball is another root."""
        with mpmath.workprec(168):
            half = mpmath.mpf(1) / 2
            first = ComplexBall(half, mpmath.mpf(2) ** -39)
            second = ComplexBall(half + mpmath.mpf(2) ** -40, mpmath.mpf(2) ** -39)
            other = ComplexBall(mpmath.mpf(7) / 10, mpmath.mpf(2) ** -100)
            assert solver._dedupe_balls([first, second, other], 128) == [first, other]

    def test_unrepresentable_quadratic_goes_numeric(self):
        # discriminant 1 + sqrt(2) has no tower square root
        r, x = one_var()
        s2 = Poly.const(r, FE.sqrt_int(2))
        f = x * x - s2 * x + (s2 - 1) * Poly.const(r, Fraction(1, 4))
        # disc = 2 - (sqrt(2) - 1) = 3 - sqrt(2): check nonsquare branch
        pts = solve_zero_dimensional([f])
        assert len(pts) == 2
        for p in pts:
            ball = p.coordinate_ball(0)
            with mpmath.workprec(160):
                s2v = mpmath.sqrt(2)
                val = ball.mid
                resid = val * val - s2v * val + (s2v - 1) / 4
                assert abs(resid) < mpmath.mpf(2) ** -90

    def test_escalation_stops_at_max_precision(self, monkeypatch):
        """Each escalation doubles the precision, clamped to MAX_PRECISION,
        so no point carries more bits than that."""
        tried = []

        def undecided(point, polys, prec):
            tried.append(prec)
            return "ambiguous"

        monkeypatch.setattr(solver, "_classify_point", undecided)
        r, x = one_var()
        with pytest.raises(ResourceLimit):
            solve_zero_dimensional([x**3 - Poly.const(r, 2)], precision=1500)
        assert sorted(set(tried)) == [1500, solver.MAX_PRECISION]

    def test_multiplicity_collapses_to_one_point(self):
        r = Ring(("x2", "x3"), "degrevlex")
        x2, x3 = Poly.variable(r, 0), Poly.variable(r, 1)
        pts = solve_zero_dimensional([x2 * x2 * x2 - x2, x3 * x3 - x2])
        assert len(pts) == 5  # (0,0) once despite the double x3 root

    def test_count_matches_newton_grid_oracle(self):
        # a radical system with simple roots, where the grid oracle is stable
        r = Ring(("x2", "x3"), "degrevlex")
        x2, x3 = Poly.variable(r, 0), Poly.variable(r, 1)
        gens = [x2 * x2 - 1, x3 * x3 - x2 - 3]
        pts = solve_zero_dimensional(gens)
        assert len(pts) == _newton_grid_count(gens, 2) == 4

    def test_determinism(self):
        r, x = one_var()
        f = x**5 - Poly.const(r, Fraction(1, 3125))
        a = solve_zero_dimensional([f])
        b = solve_zero_dimensional([f])
        for p, q in zip(a, b):
            assert p.exact == q.exact
            for i in range(len(p)):
                assert p.coordinate_ball(i).mid == q.coordinate_ball(i).mid


def _newton_grid_count(gens, nvars, grid=5, tol=1e-9):
    """Brute-force root count: Newton from a coarse complex grid, dedupe."""
    import itertools

    import numpy as np

    def f(v):
        vals = [FE.from_rational(0)] * 0
        out = []
        for g in gens:
            total = 0j
            for mono, c in g.terms.items():
                term = complex(c.to_complex(64).mid)
                for i, e in enumerate(mono):
                    term *= v[i] ** e
                total += term
            out.append(total)
        return np.array(out)

    def jac(v, h=1e-7):
        cols = []
        base = f(v)
        for i in range(nvars):
            vv = list(v)
            vv[i] += h
            cols.append((f(vv) - base) / h)
        return np.array(cols).T

    coords = [x + 1j * y for x in np.linspace(-2, 2, grid) for y in np.linspace(-2, 2, grid)]
    roots = []
    for start in itertools.product(coords, repeat=nvars):
        v = np.array(start, dtype=complex)
        for _ in range(80):
            fv = f(v)
            if np.max(np.abs(fv)) < tol:
                break
            try:
                step = np.linalg.solve(jac(list(v)), fv)
            except np.linalg.LinAlgError:
                break
            v = v - step
        else:
            continue
        if np.max(np.abs(f(v))) < tol:
            if not any(np.max(np.abs(v - r)) < 1e-5 for r in roots):
                roots.append(v)
    return len(roots)


class TestSlicing:
    def test_pin_zero_first(self):
        # x^2 - x in two variables: y free, pin y = 0, keep x = 0 by ordering
        r = Ring(("x", "y"), "degrevlex")
        x, y = Poly.variable(r, 0), Poly.variable(r, 1)
        pt = particular_solution_on_slice(groebner_basis([x * x - x]))
        assert pt.is_exact()
        assert [v.rational_value() for v in pt.values] == [0, 0]

    def test_zero_dimensional_rejected(self):
        r, x = one_var()
        with pytest.raises(ValueError):
            particular_solution_on_slice(groebner_basis([x * x - 1]))

    def test_inconsistent_pin_retries(self):
        # variety x = 1 with y free but constrained y*(y-1)*(y-2)... no:
        # x*(x-1) = 0 and x*y = y forces (x=1, y anything) or (x=0, y=0);
        # pinning y=0 keeps it consistent, later pins too
        r = Ring(("x", "y"), "degrevlex")
        x, y = Poly.variable(r, 0), Poly.variable(r, 1)
        gens = [x * (x - 1), x * y - y]
        pt = particular_solution_on_slice(groebner_basis(gens))
        for g in gens:
            assert g.evaluate(list(pt.values)).is_zero()

    def test_positive_dimensional_pin_retries(self, monkeypatch):
        # x1*x2 = 0 with x2 free: the pin x2 = 0 leaves the line x2 = 0,
        # which is not zero-dimensional, so the next pin x2 = 1 is tried
        r = Ring(("x1", "x2"), "degrevlex")
        x1, x2 = Poly.variable(r, 0), Poly.variable(r, 1)
        raised, real = [], solver.solve_zero_dimensional

        def spy(system, precision):
            try:
                return real(system, precision=precision)
            except NotZeroDimensional:
                raised.append(system[-1].render())
                raise

        monkeypatch.setattr(solver, "solve_zero_dimensional", spy)
        pt = particular_solution_on_slice(groebner_basis([x1 * x2]))
        assert raised == ["x2"]
        assert [v.rational_value() for v in pt.values] == [0, 1]

    def test_accept_filter_and_exhaustion(self):
        # h = 1: the eight pin values are all the attempts there are
        r = Ring(("x", "y"), "degrevlex")
        x, y = Poly.variable(r, 0), Poly.variable(r, 1)
        with pytest.raises(SliceExhausted, match="within 8 slice attempts"):
            particular_solution_on_slice(
                groebner_basis([x * x - x]), accept=lambda pt: False
            )

    def test_determinism(self):
        r = Ring(("x", "y"), "degrevlex")
        x, y = Poly.variable(r, 0), Poly.variable(r, 1)
        basis = groebner_basis([x * x - x])
        a = particular_solution_on_slice(basis)
        b = particular_solution_on_slice(basis)
        assert a.values == b.values
