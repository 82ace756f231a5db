from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from permsplit import (
    FieldElement,
    Poly,
    ResourceLimit,
    Ring,
    groebner_basis,
    hilbert_dimension,
    normal_form,
    polynomial,
)
from permsplit.polynomial import (
    is_trivial_basis,
    reduce_basis,
    s_polynomial,
)

FE = FieldElement


def ring_xy_lex():
    # lex with x > y: names are listed weakest first
    return Ring(("y", "x"), "lex")


def variables(ring):
    return [Poly.variable(ring, i) for i in range(ring.nvars)]


class TestNormalForm:
    def test_x_square_mod_x(self):
        r = Ring(("x",), "lex")
        (x,) = variables(r)
        assert normal_form(x * x, [x]).is_zero()

    def test_tail_reduction(self):
        r = Ring(("y", "x"), "lex")
        y, x = variables(r)
        nf = normal_form(x * x + y, [x * x - 1])
        assert nf == y + Poly.one(r)

    def test_lex_single_step(self):
        r = ring_xy_lex()
        y, x = variables(r)
        nf = normal_form(x * y, [x + y])
        assert nf == -(y * y)

    def test_membership_soundness(self):
        r = ring_xy_lex()
        y, x = variables(r)
        gens = [x * x - 1, (x - 1) * y]
        basis = groebner_basis(gens)
        for g in gens:
            assert normal_form(g, basis).is_zero()


class TestGroebner:
    def test_spec_pair(self):
        r = ring_xy_lex()
        y, x = variables(r)
        basis = groebner_basis([x * x - 1, (x - 1) * y])
        rendered = sorted(p.render() for p in basis)
        assert rendered == ["x^2 - 1", "y*x - y"]

    def test_inconsistent(self):
        r = Ring(("x",), "lex")
        (x,) = variables(r)
        basis = groebner_basis([x - 1, x])
        assert is_trivial_basis(basis)
        assert basis[0] == Poly.one(r)

    def test_s3_d1_system(self):
        r = Ring(("x2",), "degrevlex")
        (x2,) = variables(r)
        g1 = x2 * x2 * 2 - Fraction(2, 9)
        g2 = x2 * x2 - x2 * Fraction(1, 3)
        basis = groebner_basis([g1, g2])
        assert len(basis) == 1
        assert basis[0] == x2 - Poly.const(r, Fraction(1, 3))

    def test_idempotence(self):
        r = ring_xy_lex()
        y, x = variables(r)
        basis = groebner_basis([x * x + y * y - 1, x - y])
        assert groebner_basis(basis) == basis

    def test_buchberger_criterion(self):
        r = ring_xy_lex()
        y, x = variables(r)
        basis = groebner_basis([x * x * y - 1, x * y * y - x])
        for i in range(len(basis)):
            for j in range(i):
                assert normal_form(s_polynomial(basis[i], basis[j]), basis).is_zero()

    def test_basis_cap_raises_resource_limit(self, monkeypatch):
        # the S-polynomial of x^2 - y and x*y - 1 keeps a third polynomial
        monkeypatch.setattr(polynomial, "MAX_BASIS", 1)
        r = ring_xy_lex()
        y, x = variables(r)
        with pytest.raises(ResourceLimit, match="Groebner basis cap 1 exceeded"):
            groebner_basis([x * x - y, x * y - 1])

    def test_tower_coefficients(self):
        r = Ring(("x",), "lex")
        (x,) = variables(r)
        s2 = Poly.const(r, FE.sqrt_int(2))
        basis = groebner_basis([x * x - 2, x - s2])
        # x - sqrt(2) divides x^2 - 2 over the tower
        assert basis == [x - s2]

    def test_reduced_property(self):
        r = ring_xy_lex()
        y, x = variables(r)
        basis = groebner_basis([x * x - y, y * y - x])
        lms = [g.leading_monomial() for g in basis]
        for i, g in enumerate(basis):
            assert g.leading_coeff() == FE.one()
            for mono in g.terms:
                for j, lm in enumerate(lms):
                    if j != i:
                        assert not all(a <= b for a, b in zip(lm, mono))
                    elif mono != g.leading_monomial():
                        assert not all(a <= b for a, b in zip(lm, mono))


class TestHilbertDimension:
    def test_zero_dimensional(self):
        r = ring_xy_lex()
        y, x = variables(r)
        assert hilbert_dimension(groebner_basis([x * x, y])) == 0

    def test_union_of_axes(self):
        r = ring_xy_lex()
        y, x = variables(r)
        assert hilbert_dimension(groebner_basis([x * y])) == 1

    def test_order_independence(self):
        for gens_builder in (
            lambda y, x: [x * x - y],
            lambda y, x: [x * y - 1],
            lambda y, x: [x * x + y * y - 1, x * y],
        ):
            dims = []
            for order in ("degrevlex", "lex"):
                r = Ring(("y", "x"), order)
                y, x = variables(r)
                basis = groebner_basis(gens_builder(y, x))
                dims.append(hilbert_dimension(basis))
            assert dims[0] == dims[1]

    def test_zero_and_positive_dimension(self):
        r = ring_xy_lex()
        y, x = variables(r)
        finite = groebner_basis([x * x * x - 1, y * y - y])
        assert hilbert_dimension(finite) == 0
        infinite = groebner_basis([x * y])
        assert hilbert_dimension(infinite) == 1


class TestSubstitute:
    def test_s3_e1(self):
        # x1^2 + 2 x2^2 - x1 at x1 = 1/3
        r = Ring(("x1", "x2"), "degrevlex")
        x1, x2 = variables(r)
        e1 = x1 * x1 + x2 * x2 * 2 - x1
        out = e1.substitute(0, Fraction(1, 3))
        assert out == x2 * x2 * 2 - Poly.const(r, Fraction(2, 9))

    def test_unused_variable(self):
        r = Ring(("x1", "x2"), "degrevlex")
        x1, x2 = variables(r)
        assert x2.substitute(0, Fraction(5)) == x2

    def test_s3_e2(self):
        r = Ring(("x1", "x2"), "degrevlex")
        x1, x2 = variables(r)
        e2 = x1 * x2 * 2 + x2 * x2 - x2
        out = e2.substitute(0, Fraction(1, 3))
        assert out == x2 * x2 - x2 * Fraction(1, 3)


class TestRendering:
    def test_spec_format(self):
        r = Ring(("x2",), "degrevlex")
        (x2,) = variables(r)
        p = x2 * x2 * 2 - Fraction(2, 9)
        assert p.render() == "2*x2^2 - 2/9"


_small = st.integers(-4, 4)


@st.composite
def small_systems(draw, orders=("degrevlex", "lex")):
    """1-3 generators, 2 variables, degree <= 2, tiny coefficients."""
    r = Ring(("y", "x"), draw(st.sampled_from(orders)))
    monos = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    polys = []
    for _ in range(draw(st.integers(1, 3))):
        coeffs = draw(st.lists(_small, min_size=6, max_size=6))
        p = Poly(r, {m: Fraction(c) for m, c in zip(monos, coeffs) if c})
        if not p.is_zero():
            polys.append(p)
    return r, polys


@given(small_systems())
@settings(max_examples=40, deadline=None)
def test_random_system_invariants(sys):
    ring, polys = sys
    if not polys:
        return
    basis = groebner_basis(polys)
    assert groebner_basis(basis) == basis
    for g in polys:
        assert normal_form(g, basis).is_zero()
    if not is_trivial_basis(basis):
        for i in range(len(basis)):
            for j in range(i):
                s = s_polynomial(basis[i], basis[j])
                assert normal_form(s, basis).is_zero()
        hilbert_dimension(basis)


@pytest.mark.parametrize("order", ["degrevlex", "lex"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_basis_does_not_depend_on_the_generators_given(order, data):
    """The reduced basis is fixed by the ideal: shuffling the generators,
    repeating some and scaling each by a nonzero rational changes nothing."""
    ring, polys = data.draw(small_systems(orders=[order]))
    if not polys:
        return
    repeated = polys + data.draw(st.lists(st.sampled_from(polys), min_size=1, max_size=3))
    shuffled = data.draw(st.permutations(repeated))
    scales = data.draw(
        st.lists(st.fractions(-3, 3, max_denominator=4).filter(bool),
                 min_size=len(shuffled), max_size=len(shuffled))
    )
    assert groebner_basis([g * c for g, c in zip(shuffled, scales)]) == groebner_basis(polys)
