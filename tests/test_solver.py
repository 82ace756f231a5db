from fractions import Fraction

import mpmath
import pytest

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
from permsplit.solver import SolutionPoint

FE = FieldElement


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
