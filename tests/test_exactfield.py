import json
import math
import random
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from permsplit import (
    UNREPRESENTABLE,
    FieldElement,
    ResourceLimit,
    compute_orbitals,
    compute_structure_constants,
    exactfield,
    sqrt_if_nice,
)
from permsplit.exactfield import (
    RHO_STEPS,
    ComplexBall,
    _combination,
    _contract_exact,
    _decoded,
    factorize,
    field_element_from_json,
    field_element_to_json,
    parse_field_element,
    render_field_element,
    rounded_parts,
    signed_sum,
    squarefree_decompose,
)

from conftest import CORPUS, element

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


@pytest.mark.parametrize("build, error, message", [
    (lambda: FE({0: 1}), ValueError, "radicand 0 is not allowed"),
    (lambda: FE.sqrt_int(2) / 0, ZeroDivisionError, "division by zero field element"),
    # plain ints read as the writer's decimal strings do, so the zero is met
    (lambda: field_element_from_json({"terms": [{"rad": 1, "num": 1, "den": 0}]}),
     ZeroDivisionError, "Fraction(1, 0)"),
], ids=["radicand-zero", "division-by-zero", "json-int-denominator-zero"])
def test_elements_that_do_not_exist_are_refused(build, error, message):
    with pytest.raises(error) as err:
        build()
    assert type(err.value) is error and str(err.value) == message


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

    @pytest.mark.parametrize("a", [
        FE.sqrt_int(2) + FE.sqrt_int(3),
        # its root 1 + sqrt(2) + sqrt(3) lies in the tower, past the denesting
        (FE.one() + FE.sqrt_int(2) + FE.sqrt_int(3)) ** 2,
        # 3^2 - 2*2^2 and 3^2 - 5*1^2 are both squares
        fe(3) + FE.term(2, 2) + FE.sqrt_int(5),
    ], ids=["sqrt2+sqrt3", "(1+sqrt2+sqrt3)^2", "3+2sqrt2+sqrt5"])
    def test_two_irrational_terms(self, a, monkeypatch):
        """An element with two irrational terms is refused at once, without
        a rational square root."""

        def refuse(n, d):
            raise AssertionError(f"took sqrt({n}/{d})")

        monkeypatch.setattr(exactfield, "_sqrt_ratio", refuse)
        assert sqrt_if_nice(a) is UNREPRESENTABLE

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
def field_elements(draw, max_terms=4, coeff=_coeff):
    nterms = draw(st.integers(0, max_terms))
    rads = draw(
        st.lists(st.sampled_from(_rad_pool), min_size=nterms, max_size=nterms, unique=True)
    )
    coeffs = draw(st.lists(coeff, min_size=nterms, max_size=nterms))
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


def _assert_canonical(x):
    """Integer numerators over one positive denominator: no zero numerator,
    square-free radicands, gcd(den, numerators) = 1, zero as ({}, 1)."""
    num, den = x._num, x._den
    assert type(den) is int and den > 0
    assert all(type(c) is int and c for c in num.values())
    assert all(r and squarefree_decompose(r)[0] == 1 for r in num)
    assert math.gcd(den, *num.values()) == 1


def _ref_add(a, b):
    out = dict(a)
    for r, c in b.items():
        out[r] = out.get(r, 0) + c
    return {r: c for r, c in out.items() if c}


def _ref_mul(a, b):
    """Per-term Fraction product, the radicals multiplied through
    squarefree_decompose: sqrt(x) sqrt(y) = -sqrt(xy) when both are negative."""
    out = {}
    for r1, c1 in a.items():
        for r2, c2 in b.items():
            s, m = squarefree_decompose(r1 * r2)
            if r1 < 0 and r2 < 0:
                s = -s
            out[m] = out.get(m, 0) + s * c1 * c2
    return {r: c for r, c in out.items() if c}


_nonzero_coeff = _coeff.filter(bool)


@given(field_elements(), field_elements(), _nonzero_coeff)
@settings(max_examples=80, deadline=None)
def test_results_are_canonical_and_match_a_per_term_reference(a, b, q):
    ta, tb = dict(a.terms), dict(b.terms)
    cases = [
        (a + b, _ref_add(ta, tb)),
        (a - b, _ref_add(ta, {r: -c for r, c in tb.items()})),
        (-a, {r: -c for r, c in ta.items()}),
        (a * b, _ref_mul(ta, tb)),
        (a.scaled(q), {r: c * q for r, c in ta.items()}),
        (a.scaled(0), {}),
        (a / q, {r: c / q for r, c in ta.items()}),
        (a / fe(q), {r: c / q for r, c in ta.items()}),
        (a.conjugate(), {r: -c if r < 0 else c for r, c in ta.items()}),
    ]
    for x, want in cases:
        _assert_canonical(x)
        assert dict(x.terms) == want
    if b:
        # no per-term formula for a quotient: multiplied back it gives a
        quotient, inverse = a / b, b.invert()
        _assert_canonical(quotient)
        _assert_canonical(inverse)
        assert _ref_mul(dict(quotient.terms), tb) == ta
        assert _ref_mul(dict(inverse.terms), tb) == {1: 1}


@given(field_elements(), field_elements())
@settings(max_examples=60, deadline=None)
def test_equal_values_are_equal_and_hash_alike(a, b):
    rebuilt = FE(a.terms)
    _assert_canonical(rebuilt)
    assert rebuilt == a and hash(rebuilt) == hash(a)
    other_route = (a + b) - b
    assert other_route == a and hash(other_route) == hash(a)
    assert (a == b) == (dict(a.terms) == dict(b.terms))


def _ref_to_complex(terms, precision):
    """The enclosure from per-term Fractions, term by term in ``terms``' order."""
    work = precision + 24
    while True:
        with mpmath.workprec(work):
            total, abssum = mpmath.mpc(0), mpmath.mpf(0)
            for rad, c in terms.items():
                cval = mpmath.mpf(c.numerator) / c.denominator
                if rad == 1:
                    t = mpmath.mpc(cval)
                elif rad == -1:
                    t = mpmath.mpc(0, cval)
                elif rad > 0:
                    t = mpmath.mpc(cval * mpmath.sqrt(rad))
                else:
                    t = mpmath.mpc(0, cval * mpmath.sqrt(-rad))
                total += t
                abssum += abs(t)
            err = abssum * mpmath.mpf(2) ** (-(work - 8))
            if err <= abs(total) * mpmath.mpf(2) ** (-precision):
                return +total, +err
        work *= 2


@given(field_elements(), field_elements(), st.sampled_from([53, 64, 100]))
@settings(max_examples=40, deadline=None)
def test_to_complex_is_bit_identical_to_a_per_term_reference(a, b, precision):
    # numerators beyond the working precision round, so dividing reduced and
    # unreduced ones may differ
    for x in (a, a * b + b, (a * b + b).scaled(Fraction(3**70, 7**30))):
        if x.is_zero():
            continue
        ball = x.to_complex(precision)
        mid, rad = _ref_to_complex(x.terms, precision)
        assert ball.mid == mid and ball.rad == rad


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

    def test_cancellation_doubles_the_working_precision(self):
        """p - q*sqrt(2) for the 31-digit Pell convergent p/q of sqrt(2)
        below it is about -9.9e-32: its two terms, near 5e30, cancel in
        about 200 bits, more than the first working precision holds, so the
        enclosure is made only after that precision is doubled."""
        p, q = 1, 1
        while len(str(p)) < 31 or p * p - 2 * q * q != -1:
            p, q = p + 2 * q, p + q
        x = fe(p) - FE.term(q, 2)
        with mpmath.workprec(2000):
            value = p - q * mpmath.sqrt(2)
            assert -1e-31 < value < -9.8e-32
        for prec in (53, 128):
            ball = x.to_complex(prec)
            with mpmath.workprec(2000):
                assert abs(ball.mid - value) <= ball.rad
                assert 2 * ball.rad <= mpmath.mpf(2) ** (1 - prec) * abs(value)


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

    def test_signed_sum(self):
        """One rule for every symbol: a rational coefficient before it, left
        out when it is 1 or -1, its sign in front; any other coefficient in
        parentheses; zero terms left out."""
        terms = [
            (Fraction(-1), "A1"),
            (fe(Fraction(2, 3)), "A2"),
            (Fraction(0), "A3"),
            (fe(1) + FE.i(), "A4"),
            (fe(-1), "A5"),
            (Fraction(-5, 2), ""),
        ]
        assert signed_sum(terms) == "-A1 + 2/3*A2 + (1 + I)*A4 - A5 - 5/2"
        assert signed_sum([(fe(1), ""), (FE.term(-1, 2), "")]) == "1 + (-sqrt(2))"
        assert signed_sum([(Fraction(0), "x")]) == signed_sum([]) == "0"

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

    def test_a_square_is_split_by_isqrt(self):
        """2 (N - 1)^2, N = 2·3·…·41: N - 1 is a prime near 3·10^14, so
        Pollard rho would need about 10^7 steps to split its square (a
        minute on one core); isqrt splits it at once, well inside the 1 s
        CPU budget, and the root needs no step cap."""
        n = math.prod([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41])
        start = time.process_time()
        assert factorize(2 * (n - 1) ** 2) == {2: 1, n - 1: 2}
        assert sqrt_if_nice(fe(2 * (n - 1) ** 2)) == FE.term(n - 1, 2)
        assert factorize((n - 1) ** 2, RHO_STEPS) == {n - 1: 2}
        assert time.process_time() - start < 1.0


# -- rational elements hash as the numbers they equal ---------------------------

_rationals = st.one_of(
    st.integers(-(10**30), 10**30),
    st.fractions(max_denominator=10**20),
    st.sampled_from([Fraction(1, 2**61 - 1), Fraction(-5, 3 * (2**61 - 1)), Fraction(2**61 - 1)]),
)


@given(_rationals)
@settings(max_examples=150, deadline=None)
def test_rational_elements_hash_as_their_int_or_fraction(q):
    """A rational element equals its int or Fraction, so it hashes alike
    and finds it in a set or dict (2^61 - 1 is the hash modulus)."""
    x = FE.from_rational(q)
    assert x == q and hash(x) == hash(q) == hash(Fraction(q))
    assert q in {x} and x in {q}
    assert {x: 1}[q] == 1


# -- vectors as integer arrays, against entry-by-entry FieldElement arithmetic ----

_vector_coeff = st.one_of(_coeff, st.integers(2**60, 2**70).map(Fraction))


@st.composite
def tower_vectors(draw, rank):
    """Vectors of ``rank`` FieldElements with exact zeros among them, over
    radicands from a small pool, some coefficients past int64."""
    out = []
    for _ in range(rank):
        n = draw(st.integers(0, 2))
        rads = draw(st.lists(st.sampled_from([1, 5, -3, 13]), min_size=n, max_size=n, unique=True))
        coeffs = draw(st.lists(_vector_coeff, min_size=n, max_size=n))
        out.append(FE(dict(zip(rads, coeffs))))
    return out


def _assert_canonical_element(x, rank):
    """den > 0, sorted radicands with no zero column, gcd(den, all
    entries) = 1, big bounding the entries, and int64 below 2^63."""
    den, rads, a, big = x
    assert type(den) is int and den > 0
    assert list(rads) == sorted(set(rads)) and a.shape == (rank, len(rads))
    entries = [int(v) for v in a.ravel()]
    assert all(any(int(v) for v in a[:, u]) for u in range(len(rads)))
    assert math.gcd(den, *entries) == 1
    assert big >= max(map(abs, entries), default=0)
    assert (a.dtype == np.int64) == (big < 1 << 63)


@given(st.integers(1, 5), st.data())
@settings(max_examples=120, deadline=None)
def test_array_arithmetic_matches_field_elements(rank, data):
    """c x through c's fold matrix, a + c b, one elimination step (the
    entry at a pivot of b cleared from a) and a scalar with a radicand that
    x does not use, which widens the array: each result is canonical and
    equals the entry-by-entry FieldElement result.  Some numerators of c
    pass 2^63, so that its fold matrix is read off the table in Python ints
    and the sum is an object array."""
    a = data.draw(tower_vectors(rank))
    b = data.draw(tower_vectors(rank))
    c = data.draw(field_elements(max_terms=3, coeff=_vector_coeff))
    x, y = element(a), element(b)
    for vec, elem in ((a, x), (b, y)):
        _assert_canonical_element(elem, rank)
        assert _decoded(elem) == vec
    one = FE.one()
    cases = [
        (_combination([(c, x)]), [c * v for v in a]),
        (_combination([(one, x), (c, y)]), [u + c * v for u, v in zip(a, b)]),
        (_combination([(FE.sqrt_int(7), x)]), [FE.sqrt_int(7) * v for v in a]),
    ]
    pivot = next((p for p, v in enumerate(b) if v), None)
    if pivot is not None:
        c = a[pivot] / b[pivot]
        step = [u - c * v for u, v in zip(a, b)]
        assert not step[pivot]
        cases.append((_combination([(one, x), (-c, y)]), step))
    for got, want in cases:
        _assert_canonical_element(got, rank)
        assert _decoded(got) == want


# -- a second field: Q(zeta_5) in the power basis ----------------------------


def _zeta5_table(labels):
    """The table of Q(zeta_5) over the powers zeta^u, u in ``labels`` (a
    subset of 0..3), as ``_product_fold`` serves one: the columns are
    1, zeta, zeta^2, zeta^3; zeta^5 = 1 and zeta^4 = -1 - zeta - zeta^2 -
    zeta^3, so a row with u + v = 4 has four nonzeros."""
    rows = []
    for u in labels:
        for v in labels:
            w = (u + v) % 5
            rows.append([-1] * 4 if w == 4 else [int(m == w) for m in range(4)])
    f = np.array(rows, dtype=np.int64).reshape(len(rows), 4)
    return (0, 1, 2, 3), f, int(np.abs(f).sum(axis=0).max(initial=0))


def _cyclotomic_product(a, b):
    """a b in Z[x]/Phi_5 for coefficient lists of length 4, reduced by
    x^d = -x^(d-1) - x^(d-2) - x^(d-3) - x^(d-4) from the top degree down."""
    prod = [0] * 7
    for u, x in enumerate(a):
        for v, y in enumerate(b):
            prod[u + v] += x * y
    for d in (6, 5, 4):
        top = prod.pop()
        for e in range(d - 4, d):
            prod[e] -= top
    return prod


@pytest.mark.parametrize("name", [name for name, gens in CORPUS if gens.degree <= 8])
def test_contract_exact_multiplies_in_any_integer_table(monkeypatch, name):
    """The kernel knows the field only through ``_product_fold``'s table:
    served Q(zeta_5)'s power basis, it multiplies elements over subsets of
    its labels (some entries past 2^63) in the algebra, entry by entry as
    sum_pq T[p, q, k] A_i[p] A_j[q] in Z[x]/Phi_5, within its bound."""
    gens = dict(CORPUS)[name]
    consts = compute_structure_constants(gens, compute_orbitals(gens))
    monkeypatch.setattr(exactfield, "_product_fold", _zeta5_table)
    rng = random.Random(name)
    elements = []
    for i in range(4):
        labels = tuple(sorted(rng.sample(range(4), rng.randint(1, 4))))
        top = 2**70 if i == 1 else 2**20
        rows = [[rng.randint(-top, top) for _ in labels] for _ in range(consts.rank)]
        big = max(abs(x) for row in rows for x in row)
        elements.append((rng.randint(1, 9), labels, exactfield._integer_array(rows), big))
    # coefficient lists of length 4, one per position
    dense = [[[dict(zip(labels, row)).get(u, 0) for u in range(4)] for row in a.tolist()]
             for _, labels, a, _ in elements]
    # the kernel picks int64 or Python ints per batch: element 1 is past 2^63
    for pairs in ([(0, 0), (0, 2), (2, 3), (3, 3)], [(1, 3), (2, 1), (1, 1)]):
        products = _contract_exact(consts.tensor, consts.product_bound, elements, pairs)
        for (i, j), (den, rads, s, big) in zip(pairs, products):
            a, b = dense[i], dense[j]
            want = [[0] * 4 for _ in range(consts.rank)]
            for p, q, k in zip(*np.nonzero(consts.tensor)):
                t = int(consts.tensor[p, q, k])
                want[k] = [w + t * x for w, x in zip(want[k], _cyclotomic_product(a[p], b[q]))]
            assert (den, rads) == (elements[i][0] * elements[j][0], (0, 1, 2, 3))
            assert s.tolist() == want
            assert big >= max(abs(x) for row in want for x in row)
            assert (s.dtype == np.int64) == (pairs[0] == (0, 0))


# -- the 53-bit parts that order solution points ------------------------------------

_KEY_RADICANDS = (1, -1, 2, -2, 3, -3, 5, -7, 10)


@st.composite
def key_elements(draw):
    """Tower elements over the radicands ±1, ±2, ±3, 5, -7 and 10, numerators
    up to 2^70 in size."""
    rads = draw(st.lists(st.sampled_from(_KEY_RADICANDS), unique=True, max_size=4))
    return FE({
        r: Fraction(draw(st.integers(-(2**70), 2**70)), draw(st.integers(1, 2**40)))
        for r in rads
    })


def _mpmath_key(x):
    """(Re, Im) of x's 400-bit enclosure, each rounded by mpmath to 53 bits
    (to nearest, ties to even)."""
    ball = x.to_complex(400)
    with mpmath.workprec(53):
        parts = mpmath.mpf(ball.mid.real), mpmath.mpf(ball.mid.imag)
    return tuple(Fraction(*mpmath.libmp.to_rational(part._mpf_)) for part in parts)


class TestRoundedParts:
    @settings(max_examples=300, deadline=None)
    @given(key_elements())
    def test_integer_rounding_is_mpmaths(self, x):
        assert rounded_parts(x) == _mpmath_key(x)

    @pytest.mark.parametrize("value,want", [
        (1 + Fraction(1, 2**53), Fraction(1)),
        (1 + Fraction(3, 2**53), 1 + Fraction(1, 2**51)),
        (2 - Fraction(1, 2**54), Fraction(2)),  # no tie: rounds up into the next binade
    ])
    def test_rational_ties_go_to_even(self, value, want):
        for sign in (1, -1):
            assert rounded_parts(fe(sign * value)) == (sign * want, 0)
            assert rounded_parts(FE({-1: sign * value})) == (0, sign * want)

    def test_a_part_without_terms_is_zero(self):
        assert rounded_parts(FE.sqrt_int(2) / 3) == (_mpmath_key(FE.sqrt_int(2) / 3)[0], 0)
        assert rounded_parts(FE.zero()) == (0, 0)

    def test_cancellation_refines_the_enclosure(self):
        """p - q sqrt(2) for the Pell convergent of 31 digits is about
        -9.9e-32, so its isqrt bounds at 64 bits straddle zero and the
        rounding takes several refinements."""
        p, q = 1, 1
        while len(str(p)) < 31 or p * p - 2 * q * q != -1:
            p, q = p + 2 * q, p + q
        x = fe(p) - FE.term(q, 2)
        assert rounded_parts(x) == _mpmath_key(x)
        assert rounded_parts(x)[0] < 0


def _midpoint_parts(draw):
    """A dyadic number of up to 120 bits, half of the draws a tie at 53 bits
    (an odd mantissa of 54 bits), with its binary exponent."""
    man = draw(st.one_of(
        st.integers(-(2**120), 2**120),
        st.integers(2**52, 2**53 - 1).map(lambda k: 2 * k + 1),
        st.integers(2**52, 2**53 - 1).map(lambda k: -(2 * k + 1)),
    ))
    return mpmath.ldexp(man, draw(st.integers(-300, 300)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_ball_midpoint_rounding_is_mpf_pos(data):
    """The key of a ComplexBall is its exact midpoint rounded like an exact
    element's, and equals mpmath's rounding of each midpoint part to 53 bits
    (to nearest, ties to even)."""
    with mpmath.workprec(256):
        ball = ComplexBall(mpmath.mpc(_midpoint_parts(data.draw), _midpoint_parts(data.draw)))
    want = tuple(
        Fraction(*mpmath.libmp.to_rational(mpmath.libmp.mpf_pos(part, 53, "n")))
        for part in ball.mid._mpc_
    )
    assert rounded_parts(ball) == want
