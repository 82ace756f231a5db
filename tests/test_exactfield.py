import json
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from permsplit import UNREPRESENTABLE, FieldElement, ResourceLimit, sqrt_if_nice
from permsplit.exactfield import (
    RHO_STEPS,
    factorize,
    field_element_from_json,
    field_element_to_json,
    parse_field_element,
    render_field_element,
    squarefree_decompose,
)

FE = FieldElement


def fe(q):
    return FE.from_rational(Fraction(q))


class TestArithmetic:
    def test_difference_of_squares(self):
        a = FE.one() + FE.sqrt_int(3)
        b = FE.one() - FE.sqrt_int(3)
        assert a * b == fe(-2)

    def test_i_sqrt3_squared(self):
        x = FE.term(1, -3)
        assert x * x == fe(-3)

    def test_gcd_extraction(self):
        assert FE.sqrt_int(2) * FE.sqrt_int(6) == FE.term(2, 3)

    def test_radicand_normalization(self):
        assert FE.term(1, 12) == FE.term(2, 3)
        assert FE.sqrt_int(-8) == FE.term(2, -2)

    def test_i_squared(self):
        assert FE.i() * FE.i() == fe(-1)

    def test_conjugate(self):
        x = fe(2) + FE.term(3, -7) + FE.sqrt_int(5)
        assert x.conjugate() == fe(2) - FE.term(3, -7) + FE.sqrt_int(5)
        assert x.conjugate().conjugate() == x


class TestInvert:
    def test_one_plus_i(self):
        x = FE.one() + FE.i()
        assert x.invert() == (FE.one() - FE.i()).scaled(Fraction(1, 2))

    def test_sqrt7(self):
        assert FE.sqrt_int(7).invert() == FE.term(Fraction(1, 7), 7)

    def test_one_plus_i_sqrt7(self):
        x = FE.one() + FE.term(1, -7)
        assert x.invert() == (FE.one() - FE.term(1, -7)).scaled(Fraction(1, 8))
        assert x * x.invert() == FE.one()

    def test_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            FE.zero().invert()


class TestSqrtIfNice:
    def test_rational_square(self):
        assert sqrt_if_nice(fe(12)) == FE.term(2, 3)

    def test_negative_rational(self):
        assert sqrt_if_nice(fe(-7)) == FE.term(1, -7)

    def test_unrepresentable_nested(self):
        # minimal polynomial x^4 - 2x^2 - 1 has no rational root and no
        # rational quadratic factor, so Q(sqrt(1+sqrt(2))) is not
        # multi-quadratic
        assert sqrt_if_nice(FE.one() + FE.sqrt_int(2)) is UNREPRESENTABLE

    def test_two_term_square(self):
        assert sqrt_if_nice(fe(3) + FE.term(2, 2)) == FE.one() + FE.sqrt_int(2)

    def test_rational_multiple_of_square(self):
        # 3*(1+sqrt(2))^2 = 9 + 6*sqrt(2), root sqrt(3)+sqrt(6)
        assert sqrt_if_nice(fe(9) + FE.term(6, 2)) == FE.sqrt_int(3) + FE.sqrt_int(6)

    def test_gaussian(self):
        assert sqrt_if_nice(FE.term(2, -1)) == FE.one() + FE.i()
        assert sqrt_if_nice(fe(3) + FE.term(4, -1)) == fe(2) + FE.i()

    def test_mixed_sign_square(self):
        x = FE.sqrt_int(2) + FE.term(1, -3)
        assert sqrt_if_nice(x * x) in (x, -x)

    def test_zero(self):
        assert sqrt_if_nice(FE.zero()) == FE.zero()


_rad_pool = [1, -1, 2, 3, 5, -3, 7, -7, 6, 11]
_coeff = st.fractions(
    min_value=Fraction(-1000), max_value=Fraction(1000), max_denominator=1000
)


@st.composite
def field_elements(draw, max_terms=4):
    nterms = draw(st.integers(0, max_terms))
    rads = draw(
        st.lists(st.sampled_from(_rad_pool), min_size=nterms, max_size=nterms, unique=True)
    )
    coeffs = draw(st.lists(_coeff, min_size=nterms, max_size=nterms))
    return FE({r: c for r, c in zip(rads, coeffs)})


@given(field_elements(), field_elements(), field_elements())
@settings(max_examples=60, deadline=None)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(field_elements())
@settings(max_examples=60, deadline=None)
def test_inverse_roundtrip(a):
    if a.is_zero():
        return
    assert a * a.invert() == FE.one()


@given(field_elements(max_terms=2))
@settings(max_examples=60, deadline=None)
def test_sqrt_of_square_roundtrip(x):
    # squares of <= 2-term elements have the denestable shape c1 + c2*sqrt(r)
    r = sqrt_if_nice(x * x)
    assert r is not UNREPRESENTABLE
    assert r in (x, -x)


def _is_rational_square(q):
    return q >= 0 and all(math.isqrt(n) ** 2 == n for n in (q.numerator, q.denominator))


@given(_coeff, _coeff, st.sampled_from([-1, -2, -3, -7, -15, 2, 3, 5, 6, 7, 10, 11]))
@settings(max_examples=100, deadline=None)
def test_sqrt_exists_exactly_when_the_norm_is_a_square(c1, c2, r):
    """sqrt(c1 + c2*sqrt(r)) for square-free r lies in the tower exactly when
    c1^2 - r*c2^2 is the square of a rational."""
    a = fe(c1) + FE.term(c2, r)
    root = sqrt_if_nice(a)
    assert (root is not UNREPRESENTABLE) == _is_rational_square(c1 * c1 - r * c2 * c2)
    if root is not UNREPRESENTABLE:
        assert root * root == a


@given(field_elements(), field_elements())
@settings(max_examples=30, deadline=None)
def test_to_complex_respects_multiplication(a, b):
    prec = 80
    pa, pb, pab = a.to_complex(prec), b.to_complex(prec), (a * b).to_complex(prec)
    with mpmath.workprec(prec + 20):
        diff = abs(pab.mid - pa.mid * pb.mid)
        bound = (
            pab.rad
            + abs(pa.mid) * pb.rad
            + abs(pb.mid) * pa.rad
            + pa.rad * pb.rad
            + mpmath.mpf(2) ** (-(prec - 6)) * (1 + abs(pa.mid) * abs(pb.mid))
        )
        assert diff <= bound


class TestToComplex:
    def test_exact_rational(self):
        ball = fe(Fraction(1, 2)).to_complex(64)
        assert ball.mid == mpmath.mpc(0.5)

    def test_sqrt2(self):
        ball = FE.sqrt_int(2).to_complex(100)
        with mpmath.workprec(120):
            assert abs(ball.mid - mpmath.sqrt(2)) < mpmath.mpf(2) ** -98

    def test_imaginary(self):
        ball = FE.term(Fraction(1, 8), -7).to_complex(100)
        with mpmath.workprec(120):
            assert abs(ball.mid.imag - mpmath.sqrt(7) / 8) < mpmath.mpf(2) ** -90
            assert ball.mid.real == 0

    def test_width_contract(self):
        for prec in (53, 100, 200):
            val = fe(1) + FE.sqrt_int(2) - FE.term(1, 3) + FE.term(2, -5)
            ball = val.to_complex(prec)
            assert 2 * ball.rad <= mpmath.mpf(2) ** (1 - prec) * abs(ball.mid)

    def test_minimum_precision(self):
        with pytest.raises(ValueError):
            fe(1).to_complex(10)


class TestRendering:
    def test_appendix_style(self):
        val = fe(Fraction(1, 14)) - FE.term(Fraction(3, 98), -7)
        assert render_field_element(val) == "1/14*(1 - 3/7*I*sqrt(7))"

    def test_atoms(self):
        assert render_field_element(fe(0)) == "0"
        assert render_field_element(fe(Fraction(-2, 3))) == "-2/3"
        assert render_field_element(FE.i()) == "I"
        assert render_field_element(-FE.i()) == "-I"
        assert render_field_element(FE.term(Fraction(2, 3), 7)) == "2/3*sqrt(7)"
        assert render_field_element(FE.term(-1, -5)) == "-I*sqrt(5)"

    def test_term_order(self):
        val = FE.term(1, -2) + FE.term(1, 2) + fe(1) + FE.i()
        flat = render_field_element(val, factored=False)
        assert flat == "1 + I + sqrt(2) + I*sqrt(2)"

    @given(field_elements())
    @settings(max_examples=60, deadline=None)
    def test_parse_roundtrip(self, a):
        assert parse_field_element(render_field_element(a)) == a
        assert parse_field_element(render_field_element(a, factored=False)) == a

    @pytest.mark.parametrize("text, value", [
        ("1/-2", fe(Fraction(-1, 2))),
        ("sqrt(-7)", FE.term(1, -7)),
        ("--1", fe(1)),
        ("2*3/4", fe(Fraction(3, 2))),
        ("+2 - I", fe(2) - FE.i()),
        ("sqrt(12)", FE.term(2, 3)),
        ("sqrt(2)/2", FE.term(Fraction(1, 2), 2)),
        ("3/4/5", fe(Fraction(3, 20))),
    ])
    def test_parse_accepts(self, text, value):
        assert parse_field_element(text) == value

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_field_element("1 + ")
        with pytest.raises(ValueError):
            parse_field_element("sqrt 7")

    @pytest.mark.parametrize("text", [
        "0x10", "1_0", "True", "2**3", "x", "sqrt(2, 3)", "1/sqrt(2)", "1/2.5",
    ])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            parse_field_element(text)

    def test_parse_long_sum(self):
        """A 512-term sum, beyond what any rendered element needs."""
        assert parse_field_element(" + ".join(["1"] * 512)) == fe(512)

    @pytest.mark.parametrize("text", [
        "(" * 5000 + "1" + ")" * 5000,
        "-" * 5000 + "1",
        " + ".join(["1"] * 5000),
    ], ids=["parentheses", "negations", "sum"])
    def test_parse_too_deep_is_a_value_error(self, text):
        with pytest.raises(ValueError, match="not a coefficient"):
            parse_field_element(text)


class TestJson:
    def test_shape(self):
        val = fe(Fraction(1, 2)) + FE.term(Fraction(-3, 7), -7)
        obj = field_element_to_json(val)
        assert obj == {
            "terms": [
                {"rad": 1, "num": "1", "den": "2"},
                {"rad": -7, "num": "-3", "den": "7"},
            ]
        }

    @given(field_elements())
    @settings(max_examples=40, deadline=None)
    def test_roundtrip(self, a):
        blob = json.dumps(field_element_to_json(a))
        assert field_element_from_json(json.loads(blob)) == a


class TestSquarefree:
    @pytest.mark.parametrize(
        "n,expected",
        [(12, (2, 3)), (-7, (1, -7)), (1, (1, 1)), (49, (7, 1)), (360, (6, 10))],
    )
    def test_examples(self, n, expected):
        assert squarefree_decompose(n) == expected

    def test_large_semiprime(self):
        p, q = 1000003, 1000033
        s, m = squarefree_decompose(p * p * q)
        assert (s, m) == (p, q)


class TestFactorizationCap:
    """Two primes above 2^33, whose product Pollard rho splits in more than
    RHO_STEPS steps (and in about 0.1 s)."""

    P, Q = 2**33 + 29, 2**35 + 53

    def test_arithmetic_is_not_capped(self):
        assert factorize(self.P * self.Q) == {self.P: 1, self.Q: 1}
        assert FE.sqrt_int(4 * self.P * self.Q) == FE.term(2, self.P * self.Q)

    def test_cap_with_steps(self):
        with pytest.raises(ResourceLimit, match=f"{RHO_STEPS} Pollard rho steps"):
            factorize(self.P * self.Q, RHO_STEPS)

    def test_readers_are_capped(self):
        n = self.P * self.Q
        with pytest.raises(ResourceLimit):
            parse_field_element(f"1/2*sqrt({n})")
        with pytest.raises(ResourceLimit):
            field_element_from_json({"terms": [{"rad": n, "num": "1", "den": "2"}]})
        assert parse_field_element(f"sqrt({self.Q})") == FE.term(1, self.Q)
