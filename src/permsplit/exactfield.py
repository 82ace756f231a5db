"""Exact arithmetic in multi-quadratic towers Q(i, sqrt(k1), ..., sqrt(kt)).

An element is a finite sum  sum_k  c_k * sqrt(k)  over signed square-free
integer radicands k, with rational coefficients c_k:

*  k = 1   denotes the rational part,
*  k = -1  denotes i,
*  k = -m  (m > 1) denotes i*sqrt(m).

Products of radicals rewrite by gcd extraction,
sqrt(a)*sqrt(b) = g*sqrt(m) with g = gcd, m square-free, and a factor -1
whenever both radicands are negative (i^2 = -1).  Elements are kept in
canonical form (square-free keys, no zero coefficients), so equality is
structural.  Nonzero canonical elements are nonzero complex numbers, which
``to_complex`` exploits to produce enclosures of guaranteed relative width.

``Rational`` is the standard library Fraction: it already maintains the
gcd-reduced, positive-denominator canonical form required here.

``signed_sum`` is the one writer of every sum the package prints: an
element over its radicals, a polynomial over its monomials, and a
projector over A_1..A_R in the reports' ``# B[k]`` lines.
"""

from __future__ import annotations

import ast
import math
from fractions import Fraction

import mpmath

from .errors import UNREPRESENTABLE, ParseError, ResourceLimit

__all__ = [
    "Rational",
    "FieldElement",
    "ComplexBall",
    "UNREPRESENTABLE",
    "sqrt_if_nice",
    "render_field_element",
    "signed_sum",
    "parse_field_element",
    "field_element_to_json",
    "field_element_from_json",
]

Rational = Fraction


# -- integer factorization helpers --------------------------------------------

_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Pollard rho steps allowed per composite when factorizing an integer read
# from a file (``_read_radicand``) or searched for rational roots
# (``solver._divisors``).  Rho meets a prime factor p in about sqrt(p) steps,
# so factors below about 2^28 are found; 2^15 steps on a 106-digit integer
# take about 0.2 s (one Xeon core), so such a radicand in a reference is
# refused well within a second.  The splitter's own radicands are factorized
# without a cap.
RHO_STEPS = 1 << 15


def _is_probable_prime(n):
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n, max_steps):
    """A proper factor of the odd composite n; with ``max_steps``, in at most
    that many steps over all the polynomials x^2 + c tried, and
    ResourceLimit past them."""
    if n % 2 == 0:
        return 2
    steps = 0
    for c in range(1, 50):
        x = y = 2
        d = 1
        while d == 1:
            steps += 1
            if max_steps is not None and steps > max_steps:
                raise ResourceLimit(
                    f"factoring a {len(str(n))}-digit integer takes more than "
                    f"{max_steps} Pollard rho steps"
                )
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"factorization failed for {n}")


def factorize(n, max_steps=None):
    """Prime factorization of n >= 1 as an exponent dict; with ``max_steps``,
    ResourceLimit when a composite part does not split within that many
    Pollard rho steps."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if _is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m, max_steps)
        stack.extend((d, m // d))
    return out


def _read_radicand(n):
    """n, once |n| factorizes within RHO_STEPS steps; ResourceLimit otherwise,
    so that a radicand read from a file cannot make the reader run without
    bound."""
    if n:
        factorize(abs(n), RHO_STEPS)
    return n


def squarefree_decompose(n):
    """n = s^2 * m with m square-free (sign carried by m); n != 0."""
    if n == 0:
        raise ValueError("zero has no square-free decomposition")
    sign = -1 if n < 0 else 1
    s = 1
    m = 1
    for p, e in factorize(abs(n)).items():
        s *= p ** (e // 2)
        if e % 2:
            m *= p
    return s, sign * m


def _rad_mul(a, b):
    """sqrt(a)*sqrt(b) = mult * sqrt(rad) for signed square-free a, b."""
    if a == 1:
        return 1, b
    if b == 1:
        return 1, a
    aa, bb = abs(a), abs(b)
    g = math.gcd(aa, bb)
    m = (aa // g) * (bb // g)
    if a < 0 and b < 0:
        return -g, m
    if (a < 0) != (b < 0):
        return g, -m
    return g, m


# -- the field element ---------------------------------------------------------


class FieldElement:
    """Immutable element of the radical tower; see the module docstring."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=None, _canonical=False):
        if terms is None:
            terms = {}
        if not _canonical:
            clean = {}
            for rad, c in terms.items():
                c = Fraction(c)
                if c == 0:
                    continue
                if rad == 0:
                    raise ValueError("radicand 0 is not allowed")
                s, m = squarefree_decompose(rad)
                if s != 1:
                    c *= s
                clean[m] = clean.get(m, Fraction(0)) + c
            terms = {r: c for r, c in clean.items() if c != 0}
        self.terms = terms
        self._hash = None

    # constructors
    @classmethod
    def zero(cls):
        return cls({}, _canonical=True)

    @classmethod
    def one(cls):
        return cls({1: Fraction(1)}, _canonical=True)

    @classmethod
    def from_rational(cls, q):
        q = Fraction(q)
        return cls({1: q} if q else {}, _canonical=True)

    @classmethod
    def i(cls):
        return cls({-1: Fraction(1)}, _canonical=True)

    @classmethod
    def term(cls, coeff, rad):
        """coeff * sqrt(rad) for an arbitrary nonzero integer radicand."""
        return cls({rad: Fraction(coeff)})

    @classmethod
    def sqrt_int(cls, n):
        """Exact sqrt of an integer: sqrt(12) = 2*sqrt(3), sqrt(-7) = i*sqrt(7)."""
        if n == 0:
            return cls.zero()
        s, m = squarefree_decompose(n)
        return cls({m: Fraction(s)}, _canonical=True)

    # predicates and accessors
    def is_zero(self):
        return not self.terms

    def is_rational(self):
        return not self.terms or set(self.terms) == {1}

    def rational_value(self):
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.terms.get(1, Fraction(0))

    def support_primes(self):
        """Primes under the radicals, plus -1 when i is involved."""
        out = set()
        for r in self.terms:
            if r < 0:
                out.add(-1)
            for p in factorize(abs(r)):
                out.add(p)
        out.discard(1)
        return out

    # arithmetic
    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for r, c in other.terms.items():
            s = out.get(r)
            if s is None:
                out[r] = c
            else:
                s = s + c
                if s:
                    out[r] = s
                else:
                    del out[r]
        return FieldElement(out, _canonical=True)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(
            {r: -c for r, c in self.terms.items()}, _canonical=True
        )

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.terms, other.terms
        if not a or not b:
            return FieldElement.zero()
        # fast path: rational * anything
        if set(a) == {1}:
            q = a[1]
            return FieldElement({r: c * q for r, c in b.items()}, _canonical=True)
        if set(b) == {1}:
            q = b[1]
            return FieldElement({r: c * q for r, c in a.items()}, _canonical=True)
        out = {}
        for r1, c1 in a.items():
            for r2, c2 in b.items():
                mult, rad = _rad_mul(r1, r2)
                c = c1 * c2
                if mult != 1:
                    c *= mult
                s = out.get(rad)
                out[rad] = c if s is None else s + c
        return FieldElement(
            {r: c for r, c in out.items() if c != 0}, _canonical=True
        )

    __rmul__ = __mul__

    def scaled(self, q):
        """Multiply by an exact rational, cheaply."""
        q = Fraction(q)
        if not q:
            return FieldElement.zero()
        return FieldElement(
            {r: c * q for r, c in self.terms.items()}, _canonical=True
        )

    def __pow__(self, n):
        if n < 0:
            return self.invert() ** (-n)
        out = FieldElement.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def _flip(self, which):
        """Conjugation flipping one radical: which = -1 flips i, a prime p
        flips sqrt(p)."""
        if which == -1:
            return FieldElement(
                {r: (-c if r < 0 else c) for r, c in self.terms.items()},
                _canonical=True,
            )
        return FieldElement(
            {r: (-c if abs(r) % which == 0 else c) for r, c in self.terms.items()},
            _canonical=True,
        )

    def conjugate(self):
        """Complex conjugation: flip the sign of every i-carrying term."""
        return self._flip(-1)

    def invert(self):
        """Multiplicative inverse by successive conjugation.

        Each round multiplies numerator and denominator by the conjugate
        flipping one radical, removing that radical from the denominator;
        at most (number of distinct primes) + 1 rounds.
        """
        if not self.terms:
            raise ZeroDivisionError("inverse of zero field element")
        num = FieldElement.one()
        den = self
        while not den.is_rational():
            flips = sorted(den.support_primes())
            sigma = den._flip(flips[0])
            num = num * sigma
            den = den * sigma
        return num.scaled(1 / den.rational_value())

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_rational():
            return self.scaled(1 / other.rational_value())
        return self * other.invert()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.invert()

    # comparisons / hashing
    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(tuple(sorted(self.terms.items())))
        return self._hash

    def __bool__(self):
        return bool(self.terms)

    def sorted_terms(self):
        """(rad, coeff) pairs: |rad| ascending, positive radicand first."""
        return sorted(self.terms.items(), key=lambda t: (abs(t[0]), t[0] < 0))

    def __repr__(self):
        return f"FieldElement({render_field_element(self)})"

    def to_complex(self, precision=53):
        """Complex enclosure of guaranteed width <= 2^(1-precision)*|value|.

        Nonzero canonical elements are nonzero numbers, so evaluating at
        increasing working precision eventually clears any cancellation and
        meets the relative-width contract.
        """
        if precision < 53:
            raise ValueError("precision must be at least 53 bits")
        if not self.terms:
            return ComplexBall(mpmath.mpc(0), mpmath.mpf(0))
        work = precision + 24
        while True:
            with mpmath.workprec(work):
                total = mpmath.mpc(0)
                abssum = mpmath.mpf(0)
                for rad, c in self.terms.items():
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
                # relative-width contract: 2*err <= 2^(1-precision)*|value|
                if err <= abs(total) * mpmath.mpf(2) ** (-precision):
                    return ComplexBall(+total, +err)
            work *= 2


def _coerce(x):
    if isinstance(x, FieldElement):
        return x
    if isinstance(x, (int, Fraction)):
        return FieldElement.from_rational(x)
    return NotImplemented


# -- restricted square roots ---------------------------------------------------


def _sqrt_fraction(q):
    """Exact sqrt of a rational as a tower element (always representable)."""
    q = Fraction(q)
    if q == 0:
        return FieldElement.zero()
    s, m = squarefree_decompose(q.numerator * q.denominator)
    return FieldElement({m: Fraction(s, q.denominator)}, _canonical=True)


def _rational_sqrt_or_none(q):
    """sqrt of q as a plain Fraction, or None."""
    q = Fraction(q)
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def sqrt_if_nice(a):
    """Square root inside the tower by denesting, or ``UNREPRESENTABLE``.

    With a = c1 + c2*sqrt(r) (c1 the rational part, r the one other
    radicand) and t = sqrt(c1^2 - r*c2^2) rational,

        sqrt(a) = sqrt((c1 + t)/2) +- sqrt((c1 - t)/2),

    and each term is the square root of a rational, so it lies in the tower
    (Borodin, Fagin, Hopcroft and Tompa, 1985).  Of u + v and u - v the
    first whose square is a is returned.  Rationals (c2 = 0) and i*c
    (r = -1) are special cases of the same identity.  When t is irrational
    no multi-quadratic tower holds the root; that and an a with two
    irrational terms give ``UNREPRESENTABLE``, and numeric fallback is the
    caller's job.
    """
    a = _coerce(a)
    c1 = a.terms.get(1, Fraction(0))
    rest = [(r, c) for r, c in a.terms.items() if r != 1]
    if len(rest) > 1:
        return UNREPRESENTABLE
    r, c2 = rest[0] if rest else (1, Fraction(0))
    t = _rational_sqrt_or_none(c1 * c1 - r * c2 * c2)
    if t is None:
        return UNREPRESENTABLE
    u = _sqrt_fraction((c1 + t) / 2)
    v = _sqrt_fraction((c1 - t) / 2)
    for x in (u + v, u - v):
        if x * x == a:
            return x
    return UNREPRESENTABLE


# -- complex enclosures ----------------------------------------------------------


class ComplexBall:
    """Midpoint-radius complex enclosure on top of mpmath.

    Arithmetic is outward-padded by a few ulps of the current working
    precision, which keeps the enclosures honest for the verification jobs
    here (residual checks against tolerances far above 2^-prec).
    """

    __slots__ = ("mid", "rad")

    def __init__(self, mid, rad=0):
        self.mid = mpmath.mpc(mid)
        self.rad = mpmath.mpf(rad)

    @staticmethod
    def _eps():
        return mpmath.mpf(2) ** (6 - mpmath.mp.prec)

    def __add__(self, other):
        other = as_ball(other)
        mid = self.mid + other.mid
        spread = abs(self.mid) + abs(other.mid) + self.rad + other.rad
        # rounding error of the midpoint op scales with the operands, not the
        # result (cancellation), so the slop uses the operand magnitudes
        rad = self.rad + other.rad + spread * self._eps()
        return ComplexBall(mid, rad)

    __radd__ = __add__

    def __neg__(self):
        return ComplexBall(-self.mid, self.rad)

    def __sub__(self, other):
        return self + (-as_ball(other))

    def __rsub__(self, other):
        return as_ball(other) + (-self)

    def __mul__(self, other):
        other = as_ball(other)
        mid = self.mid * other.mid
        am, bm = abs(self.mid), abs(other.mid)
        rad = am * other.rad + bm * self.rad + self.rad * other.rad
        rad = rad + (am * bm + rad) * self._eps()
        return ComplexBall(mid, rad)

    __rmul__ = __mul__

    def contains_zero(self):
        return abs(self.mid) <= self.rad

    def width(self):
        return 2 * self.rad

    def __repr__(self):
        return f"ComplexBall({self.mid}, rad={mpmath.nstr(self.rad, 3)})"


def as_ball(x, precision=None):
    """``x`` as a ComplexBall: a ball as is, a FieldElement as its enclosure at
    ``precision`` bits (None: the current working precision), a rational or
    complex number as an exact midpoint."""
    if isinstance(x, ComplexBall):
        return x
    if isinstance(x, FieldElement):
        return x.to_complex(mpmath.mp.prec if precision is None else precision)
    if isinstance(x, Fraction):
        return ComplexBall(mpmath.mpf(x.numerator) / x.denominator, 0)
    return ComplexBall(x, 0)


# -- rendering and parsing ------------------------------------------------------


def _radical(rad):
    """The symbol of sqrt(rad): none, ``I``, ``sqrt(k)`` or ``I*sqrt(k)``."""
    if rad > 1:
        return f"sqrt({rad})"
    if rad < -1:
        return f"I*sqrt({-rad})"
    return "I" if rad == -1 else ""


def signed_sum(terms):
    """The one writer of a sum: (coefficient, symbol) pairs as ``a - b + c``.

    A rational coefficient (a Fraction, or a rational FieldElement) goes
    before its symbol, joined by ``*``, and is left out when it is ±1 and a
    symbol follows; its sign goes in front of its term, ``-`` on the first
    and ``- `` or ``+ `` on the later ones.  Any other coefficient is written
    in parentheses, unfactored.  The symbol ``""`` is no symbol.  Zero terms
    are left out, and a sum of none is ``0``.
    """
    out = []
    for c, symbol in terms:
        if isinstance(c, FieldElement) and c.is_rational():
            c = c.rational_value()
        if isinstance(c, FieldElement):
            neg, coeff = False, f"({render_field_element(c, factored=False)})"
        elif not c:
            continue
        else:
            neg, c = c < 0, abs(c)
            coeff = "" if symbol and c == 1 else str(c)
        body = f"{coeff}*{symbol}" if coeff and symbol else coeff or symbol
        if out:
            out.append(f"- {body}" if neg else f"+ {body}")
        else:
            out.append(f"-{body}" if neg else body)
    return " ".join(out) if out else "0"


def render_field_element(fe, factored=True):
    """Deterministic text form, e.g. ``1/14*(1 - 3/7*I*sqrt(7))``.

    Term order: |rad| ascending, positive radicand before negative.  With
    ``factored`` (the default, mirroring the appendix tables of the usual
    references) multi-term values are written as leading-coefficient times a
    parenthesized sum whose first coefficient is 1.
    """
    items = _coerce(fe).sorted_terms()
    if factored and len(items) > 1 and items[0][1] != 1:
        lead = items[0][1]
        return f"{lead}*({signed_sum((c / lead, _radical(rad)) for rad, c in items)})"
    return signed_sum((c, _radical(rad)) for rad, c in items)


def parse_field_element(text):
    """The inverse of ``render_field_element``; ValueError on any other text.

    ``ast.parse`` reads the text, and only these forms are evaluated:
    decimal integers, ``I``, ``sqrt(n)``, unary ``+``/``-``, binary ``+``,
    ``-``, ``*``, and ``/`` by an integer; a divisor or radicand may be
    negated (``1/-2``, ``sqrt(-7)``).  Anything else is a ValueError:
    ``0x10``, ``1_0``, ``True``, ``2**3``, other names and calls,
    ``1/sqrt(2)``, ``1/2.5``, a syntax error, nesting too deep to evaluate.
    Unlike a grammar of ``int/int`` rationals, a division may follow any
    factor (``sqrt(2)/2``, ``3/4/5``); and a sum of about 1,000 terms or more
    is refused as too deep (a rendered element has at most 2^(t+1) terms).
    """
    text = text.strip()
    lines = text.encode().splitlines()

    def integer(node):
        match node:
            case ast.UnaryOp(ast.USub(), operand):
                return -integer(operand)
            case ast.Constant(int(n)):
                # the tree keeps 0x10, 1_0 and True as ints; only the spelling tells
                if lines[node.lineno - 1][node.col_offset : node.end_col_offset].isdigit():
                    return n
        raise ValueError(f"column {node.col_offset + 1}: not in the coefficient grammar")

    def value(node):
        match node:
            case ast.BinOp(left, ast.Add(), right):
                return value(left) + value(right)
            case ast.BinOp(left, ast.Sub(), right):
                return value(left) - value(right)
            case ast.BinOp(left, ast.Mult(), right):
                return value(left) * value(right)
            case ast.BinOp(left, ast.Div(), right):
                return value(left) / integer(right)
            case ast.UnaryOp(ast.USub(), operand):
                return -value(operand)
            case ast.UnaryOp(ast.UAdd(), operand):
                return value(operand)
            case ast.Name("I"):
                return FieldElement.i()
            case ast.Call(ast.Name("sqrt"), [radicand], []):
                return FieldElement.sqrt_int(_read_radicand(integer(radicand)))
        return FieldElement.from_rational(integer(node))

    try:
        return value(ast.parse(text, mode="eval").body)
    except SyntaxError as e:
        raise ValueError(f"not a coefficient: {e.msg}") from None
    except RecursionError:
        raise ValueError("not a coefficient: nested too deeply") from None


def field_element_to_json(fe):
    fe = _coerce(fe)
    return {
        "terms": [
            {"rad": rad, "num": str(c.numerator), "den": str(c.denominator)}
            for rad, c in fe.sorted_terms()
        ]
    }


def field_element_from_json(obj):
    """The inverse of ``field_element_to_json``.  ParseError unless every
    ``rad`` is an int that no other term repeats and every ``num`` and
    ``den`` an int or the decimal string the writer emits; a bool is
    neither."""
    terms = {}
    for t in obj["terms"]:
        rad = t["rad"]
        # type(x) is int, because a bool is an int to isinstance
        if type(rad) is not int:
            raise ParseError(f"radicand {rad!r} is not an integer")
        if rad in terms:
            raise ParseError(f"repeated radicand {rad}")
        value = Fraction(_json_integer(t["num"]), _json_integer(t["den"]))
        terms[_read_radicand(rad)] = value
    return FieldElement(terms)


def _json_integer(x):
    if type(x) is str and str(int(x)) == x:
        return int(x)
    if type(x) is not int:
        raise ParseError(f"{x!r} is not an integer")
    return x
