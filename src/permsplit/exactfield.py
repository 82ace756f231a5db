"""Exact arithmetic in multi-quadratic towers Q(i, sqrt(k1), ..., sqrt(kt)).

An element is a finite sum  sum_k  c_k * sqrt(k)  over signed square-free
integer radicands k, with rational coefficients c_k:

*  k = 1   denotes the rational part,
*  k = -1  denotes i,
*  k = -m  (m > 1) denotes i*sqrt(m).

Products of radicals rewrite by gcd extraction,
sqrt(a)*sqrt(b) = g*sqrt(m) with g = gcd, m square-free, and a factor -1
whenever both radicands are negative (i^2 = -1).  Nonzero canonical
elements are nonzero complex numbers, which ``to_complex`` exploits to
produce enclosures of guaranteed relative width.

An element holds its coefficients as integers over one common denominator,
the number-field representation of Cohen (A Course in Computational
Algebraic Number Theory, 1993, section 4.2): {radicand: numerator} and a
positive ``int`` den.  The canonical form has square-free keys, no zero
numerator and gcd(den, all numerators) = 1, with zero as ({}, 1), so
equality is structural.  Arithmetic runs on Python ints and reduces each
result with one gcd.  ``Fraction`` appears only at the boundary: the
constructor ``FieldElement({rad: rational})``, ``from_rational``,
``rational_value``, the read-only ``terms`` view and a ball's radius;
other modules read the integers through ``coefficient`` and
``radicands``, or hold vectors as integer-array elements, which this
module alone encodes, multiplies, combines, compares and decodes.

``signed_sum`` is the one writer of every sum the package prints: an
element over its radicals, a polynomial over its monomials, and a
projector over A_1..A_R in the reports' ``# B[k]`` lines.
"""

from __future__ import annotations

import ast
import functools
import importlib.util
import math
import sys
from fractions import Fraction
from types import MappingProxyType

import numpy as np

from .errors import UNREPRESENTABLE, ParseError, ResourceLimit

__all__ = [
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


def _lazily_loaded(name):
    """The module ``name``: the one in ``sys.modules`` when it is there,
    otherwise one registered there whose code runs at its first attribute
    access."""
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return module


# mpmath encloses the values outside the tower, so only the numeric fallback
# loads it; the package's other modules import this binding
mpmath = _lazily_loaded("mpmath")


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
        # rho needs about sqrt(p) steps to split p^2, so a square goes by isqrt
        r = math.isqrt(m)
        d = r if r * r == m else _pollard_rho(m, max_steps)
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
    """Immutable element of the radical tower; see the module docstring.

    ``FieldElement({rad: rational})`` builds sum_k c_k sqrt(k) from any
    nonzero integer radicands and rational coefficients (ints, Fractions or
    anything ``Fraction`` reads); ``terms`` reads it back as
    {radicand: Fraction}.
    """

    __slots__ = ("_num", "_den", "_hash")

    def __init__(self, terms=None):
        clean = {}
        for rad, c in (terms or {}).items():
            c = Fraction(c)
            if c == 0:
                continue
            if rad == 0:
                raise ValueError("radicand 0 is not allowed")
            s, m = squarefree_decompose(rad)
            clean[m] = clean.get(m, 0) + c * s
        clean = {r: c for r, c in clean.items() if c}
        # the lcm of reduced denominators leaves gcd(den, numerators) = 1
        den = math.lcm(*(c.denominator for c in clean.values()))
        self._num = {r: c.numerator * (den // c.denominator) for r, c in clean.items()}
        self._den = den
        self._hash = None

    # constructors
    @classmethod
    def zero(cls):
        return _ZERO

    @classmethod
    def one(cls):
        return _ONE

    @classmethod
    def from_rational(cls, q):
        if type(q) is not int:
            q = Fraction(q)
        return _make({1: q.numerator}, q.denominator) if q else _ZERO

    @classmethod
    def i(cls):
        return _make({-1: 1}, 1)

    @classmethod
    def term(cls, coeff, rad):
        """coeff * sqrt(rad) for an arbitrary nonzero integer radicand."""
        return cls({rad: coeff})

    @classmethod
    def sqrt_int(cls, n):
        """Exact sqrt of an integer: sqrt(12) = 2*sqrt(3), sqrt(-7) = i*sqrt(7)."""
        if n == 0:
            return _ZERO
        s, m = squarefree_decompose(n)
        return _make({m: s}, 1)

    # predicates and accessors
    @property
    def terms(self):
        """The coefficients as a read-only {radicand: Fraction}."""
        return MappingProxyType({r: Fraction(c, self._den) for r, c in self._num.items()})

    def radicands(self):
        """The radicands of the nonzero terms in writing order: |rad|
        ascending, positive radicand first."""
        return sorted(self._num, key=lambda r: (abs(r), r < 0))

    def coefficient(self, rad):
        """The coefficient of sqrt(rad) in lowest terms, as (numerator,
        positive denominator) ints; (0, 1) when there is no such term."""
        n = self._num.get(rad, 0)
        g = math.gcd(n, self._den)
        return n // g, self._den // g

    def is_zero(self):
        return not self._num

    def is_rational(self):
        num = self._num
        return not num or (len(num) == 1 and 1 in num)

    def rational_value(self):
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self._num.get(1, 0), self._den)

    def support_primes(self):
        """Primes under the radicals, plus -1 when i is involved."""
        out = set()
        for r in self._num:
            if r < 0:
                out.add(-1)
            for p in factorize(abs(r)):
                out.add(p)
        out.discard(1)
        return out

    # arithmetic: numerators over one denominator, reduced by ``_reduced``
    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._num, other._num
        if not a:
            return other
        if not b:
            return self
        da, db = self._den, other._den
        if da == db:
            out = dict(a)
        else:
            out = {r: c * db for r, c in a.items()}
            b = {r: c * da for r, c in b.items()}
            da *= db
        for r, c in b.items():
            s = out.get(r, 0) + c
            if s:
                out[r] = s
            else:
                del out[r]
        return _reduced(out, da)

    __radd__ = __add__

    def __neg__(self):
        return _make({r: -c for r, c in self._num.items()}, self._den)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._num, other._num
        if not a or not b:
            return _ZERO
        den = self._den * other._den
        # fast path: rational * anything
        if len(a) == 1 and 1 in a:
            q = a[1]
            return _reduced({r: c * q for r, c in b.items()}, den)
        if len(b) == 1 and 1 in b:
            q = b[1]
            return _reduced({r: c * q for r, c in a.items()}, den)
        out = {}
        for r1, c1 in a.items():
            for r2, c2 in b.items():
                mult, rad = _rad_mul(r1, r2)
                out[rad] = out.get(rad, 0) + mult * c1 * c2
        return _reduced({r: c for r, c in out.items() if c}, den)

    __rmul__ = __mul__

    def scaled(self, q):
        """Multiply by an exact rational, cheaply."""
        q = Fraction(q)
        return self._times(q.numerator, q.denominator)

    def _times(self, n, d):
        """self * n/d for ints n and d != 0."""
        if not n:
            return _ZERO
        return _reduced({r: c * n for r, c in self._num.items()}, self._den * d)

    def __pow__(self, n):
        if n < 0:
            return self.invert() ** (-n)
        out = _ONE
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
            num = {r: (-c if r < 0 else c) for r, c in self._num.items()}
        else:
            num = {r: (-c if abs(r) % which == 0 else c) for r, c in self._num.items()}
        return _make(num, self._den)

    def conjugate(self):
        """Complex conjugation: flip the sign of every i-carrying term."""
        return self if all(r > 0 for r in self._num) else self._flip(-1)

    def invert(self):
        """Multiplicative inverse by successive conjugation.

        Each round multiplies numerator and denominator by the conjugate
        flipping one radical, removing that radical from the denominator;
        at most (number of distinct primes) + 1 rounds.
        """
        if not self._num:
            raise ZeroDivisionError("inverse of zero field element")
        num = _ONE
        den = self
        while not den.is_rational():
            sigma = den._flip(min(den.support_primes()))
            num = num * sigma
            den = den * sigma
        return num._times(den._den, den._num[1])

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_rational():
            if not other._num:
                raise ZeroDivisionError("division by zero field element")
            return self._times(other._den, other._num[1])
        return self * other.invert()

    # comparisons / hashing
    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        if self._hash is None:
            if self.is_rational():
                n, d = self._num.get(1, 0), self._den
                self._hash = hash(n if d == 1 else Fraction(n, d))
            else:
                self._hash = hash((self._den, frozenset(self._num.items())))
        return self._hash

    def __bool__(self):
        return bool(self._num)

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
        if not self._num:
            return ComplexBall(mpmath.mpc(0), mpmath.mpf(0))
        work = precision + 24
        while True:
            with mpmath.workprec(work):
                total = mpmath.mpc(0)
                abssum = mpmath.mpf(0)
                for rad in self._num:
                    n, d = self.coefficient(rad)
                    cval = mpmath.mpf(n) / d
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


def _make(num, den):
    """The element sum_r num[r] sqrt(r) / den, already canonical: nonzero
    int numerators over a positive int den that shares no factor with all
    of them."""
    x = object.__new__(FieldElement)
    x._num, x._den, x._hash = num, den, None
    return x


def _reduced(num, den):
    """The canonical element sum_r num[r] sqrt(r) / den from nonzero int
    numerators and a nonzero int den, by one gcd."""
    if not num:
        return _ZERO
    g = math.gcd(den, *num.values())
    if den < 0:
        g = -g
    if g != 1:
        num = {r: c // g for r, c in num.items()}
        den //= g
    return _make(num, den)


_ZERO = _make({}, 1)
_ONE = _make({1: 1}, 1)


def _coerce(x):
    if type(x) is FieldElement:
        return x
    if isinstance(x, (int, Fraction)):
        return FieldElement.from_rational(x)
    return NotImplemented


# -- elements: vectors as integer arrays -------------------------------------------
#
# An element is the vector x[p] = sum_u a[p, u] sqrt(rads[u]) / den, held as
# (den, rads, a, big): one positive int den, sorted radicands, an R x U integer
# array, int64 below 2^63 and Python ints past it, and big >= every |entry|.

_INT64 = 1 << 63
# an exact product restricts a T of more entries to the supports first;
# on a smaller T the gather costs more than the entries it saves
DENSE_PRODUCT_ENTRIES = 1 << 13


def _integer_array(rows):
    """``rows`` as an int64 array, or an object array of Python ints when
    an entry does not fit."""
    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError:
        return np.array(rows, dtype=object)


def _encode(vectors):
    """Vectors of FieldElements as elements over one radicand tuple, the
    sorted union of those used: vector i is (D_i, rads, A_i, max|A_i|), with
    D_i the lcm of its denominators; a column of A_i may be zero."""
    rads = tuple(sorted({r for vec in vectors for x in vec for r in x._num}))
    dens = [math.lcm(*(x._den for x in vec)) for vec in vectors]
    flat = [x._num.get(r, 0) * d // x._den for v, d in zip(vectors, dens) for x in v for r in rads]
    arrays = _integer_array(flat).reshape(len(dens), len(vectors[0]) if vectors else 0, len(rads))
    lows = arrays.min(axis=(1, 2), initial=0).tolist()
    highs = arrays.max(axis=(1, 2), initial=0).tolist()
    return [(d, rads, a, max(-lo, hi)) for d, a, lo, hi in zip(dens, arrays, lows, highs)]


def _decoded(x, ps=slice(None)):
    """The coefficients of the element x at the positions ``ps``, all of them
    by default, as FieldElements."""
    den, rads, a, _ = x
    return [_reduced({r: c for r, c in zip(rads, row) if c}, den) for row in a[ps].tolist()]


def _form(x, weights):
    """sum_p weights[p] x[p] for integer weights, as a FieldElement."""
    den, rads, a, _ = x
    sums = [sum(w * c for w, c in zip(weights, col)) for col in a.T.tolist()]
    return _reduced({r: c for r, c in zip(rads, sums) if c}, den)


def _canonical(den, rads, a, big=None):
    """a / den over ``rads`` as a canonical element (den, rads, a, big): no
    zero column, gcd(den, entries) = 1, big >= every |entry| (read off a
    unless given below 2^63), and a int64 when big is below 2^63."""
    g = int(np.gcd.reduce(a, axis=None)) if a.size else 0
    if not g:
        return 1, (), np.zeros((len(a), 0), dtype=np.int64), 0
    if len(rads) > 1:
        keep = a.any(axis=0)
        if not keep.all():
            a, rads = a[:, keep], tuple(r for r, k in zip(rads, keep.tolist()) if k)
    g = math.gcd(den, g)
    if g != 1:
        a, den = a // g, den // g
        big = None if big is None else big // g
    if big is None or big >= _INT64:
        big = max(-int(np.minimum.reduce(a, axis=None)), int(np.maximum.reduce(a, axis=None)))
    return den, rads, a.astype(np.int64 if big < _INT64 else object, copy=False), big


def _widened(a, rads, cols):
    """The array a, whose last axis runs over the radicands ``rads``, with
    that axis over ``cols``, which holds them all."""
    if rads == cols:
        return a
    wide = np.zeros(a.shape[:-1] + (len(cols),), dtype=a.dtype)
    wide[..., [cols.index(r) for r in rads]] = a
    return wide


def _combination(terms):
    """sum_k c_k x_k, canonical, for pairs (c_k, x_k) of FieldElements and
    canonical elements of one length.  After scaling to the lcm of the
    denominators, c_k x_k is one matmul with c_k's fold matrix, whose row u
    is sum_v c_k[v] F[(u, v), :] with F ``_product_fold``'s table over the
    union of the radicands of x_k and c_k, and the bound of the sum adds
    those of the x_k times the matrices' weights."""
    length = len(terms[0][1][2])
    terms = [(c, x) for c, x in terms if c and x[1]]
    den = math.lcm(*(d * c._den for c, (d, *_) in terms))
    parts, big = [], 0  # parts: (cols, array, fold matrix)
    for c, (d, rads, a, b) in terms:
        scale = den // (d * c._den)
        if c.is_rational():  # the fold matrix is a multiple of the identity
            cols, f, weight = rads, c._num[1] * scale, abs(c._num[1] * scale)
        else:  # in Python ints, as c's numerators may pass 2^63
            union = tuple(sorted(set(rads).union(c._num)))
            cols, table, _ = _product_fold(union)
            scalar = np.array([c._num.get(s, 0) * scale for s in union], dtype=object)
            f = (scalar @ table.reshape(len(union), len(union), len(cols))).tolist()
            f = [f[union.index(r)] for r in rads]
            weight = max(sum(map(abs, col)) for col in zip(*f))
        parts.append((cols, a, f))
        big += b * weight
    rads = tuple(sorted({r for cols, _, _ in parts for r in cols}))
    dtype = np.int64 if big < _INT64 else object
    total = np.zeros((length, len(rads)), dtype=dtype)
    for cols, a, f in parts:
        a = a.astype(dtype, copy=False)
        total += _widened(a * f if type(f) is int else a @ np.array(f, dtype=dtype), cols, rads)
    return _canonical(den, rads, total, big)


def _contract_exact(tensor, t_sum, elements, pairs):
    """The product of elements[i] and elements[j] for each (i, j) in
    ``pairs`` in the algebra with integer structure tensor T, not reduced:
    (D_i D_j, rads, S, big), rads the sorted union of 1, the radicands and
    those their products reach, big the batch's bound.  With A_i over the
    union of the radicands, S[k, u, v] = sum_pq A_i[p, u] T[p, q, k] A_j[q, v]
    is two matmuls over the batch, the first once per distinct left element,
    on T restricted to the supports past ``DENSE_PRODUCT_ENTRIES`` entries;
    a third folds the radicand pairs by ``_product_fold``'s table F, the
    field's multiplication table.  It is int64 when max|A_i|, max|A_j| and
    their product times ``t_sum`` (at least max_k sum_pq |T[p, q, k]|) times
    the largest column sum of |F| are below 2^63 over the batch, Python ints
    otherwise (T then holds R^3 references)."""
    rads_in = tuple(sorted(set().union(*(x[1] for x in elements))))
    arrays = [_widened(a, rads, rads_in) for _, rads, a, _ in elements]
    u_len = len(rads_in)
    rads, fold, fold_sum = _product_fold(rads_in)
    n, k_len = len(pairs), tensor.shape[2]
    if not n:
        return []
    left, right = map(list, zip(*pairs))
    rows = {i: r for r, i in enumerate(dict.fromkeys(left))}  # each left meets T once
    a = np.array([arrays[i] for i in rows])  # n' x P x U
    b = a if right == list(rows) else np.array([arrays[j] for j in right])
    if tensor.size > DENSE_PRODUCT_ENTRIES:
        used_a = a.any(axis=(0, 2))
        used_b = used_a if b is a else b.any(axis=(0, 2))
        if not (used_a.all() and used_b.all()):
            tensor, a, b = tensor[np.ix_(used_a, used_b)], a[:, used_a], b[:, used_b]
    big_a, big_b = max([elements[i][3] for i in left]), max([elements[j][3] for j in right])
    big = big_a * big_b * max(t_sum, 1) * fold_sum
    # a zero side bounds the product by 0, but the other side must still fit
    dtype = np.int64 if max(big_a, big_b, big) < _INT64 else object
    a, b, fold = (x.astype(dtype, copy=False) for x in (a, b, fold))
    p_len, q_len = tensor.shape[:2]
    tensor = tensor.astype(dtype, copy=False).reshape(p_len, q_len * k_len)
    first = (a.transpose(0, 2, 1) @ tensor).reshape(len(rows), u_len, q_len, k_len)
    if len(rows) < n:
        first = first[[rows[i] for i in left]]
    s = first.transpose(0, 3, 1, 2) @ b[:, None]  # n x K x U x U
    out = s.reshape(n, k_len, u_len * u_len) @ fold
    return [(elements[i][0] * elements[j][0], rads, x, big) for (i, j), x in zip(pairs, out)]


@functools.lru_cache(maxsize=64)
def _product_fold(rads):
    """The multiplication table of the radicands, read off the field's own
    products: (cols, F, weight), with ``cols`` the sorted union of 1,
    ``rads`` and the radicands reached, F[u * U + v][m] the coefficient of
    sqrt(cols[m]) in sqrt(rads[u]) sqrt(rads[v]), and weight the largest
    column sum of |F|.  It is cached for the radicand sets met last, and F
    is a read-only integer array, as callers share it."""
    products = [_make({r: 1}, 1) * _make({s: 1}, 1) for r in rads for s in rads]
    cols = tuple(sorted(set(rads).union([1], *(p._num for p in products))))
    f = [[p._num.get(m, 0) for m in cols] for p in products]
    weight = max((sum(map(abs, col)) for col in zip(*f)), default=0)
    f = _integer_array(f).reshape(len(products), len(cols))
    f.setflags(write=False)
    return cols, f, weight


def _summed(xs):
    """The sum of elements that share one radicand tuple and shape, not reduced."""
    den = math.lcm(*(x[0] for x in xs))
    scale = [den // x[0] for x in xs]
    total = (np.array([x[2] for x in xs]) * np.array(scale, dtype=object)[:, None, None]).sum(0)
    return den, xs[0][1], total, sum(x[3] * s for x, s in zip(xs, scale))


def _differing(xs, ys):
    """The indices i at which xs[i] = A / D and ys[i] = B / E differ, in Python
    ints over the whole batch: A (E / g) = B (D / g) with g = gcd(D, E), over
    the union of the radicands.  The elements of each list share one
    radicand tuple and shape, as ``_encode`` and ``_contract_exact`` make."""
    cols = tuple(sorted(set(xs[0][1]) | set(ys[0][1])))
    sides = []
    for mine, theirs in ((xs, ys), (ys, xs)):
        a = np.array([x[2] for x in mine])
        scale = [y[0] // math.gcd(x[0], y[0]) for x, y in zip(mine, theirs)]
        if any(s != 1 for s in scale):  # e*e = S / D^2 against e = A / D scales A alone
            a = a * np.array(scale, dtype=object)[:, None, None]
        sides.append(_widened(a, mine[0][1], cols))
    return np.flatnonzero((sides[0] != sides[1]).any(axis=(1, 2))).tolist()


# -- restricted square roots ---------------------------------------------------


def _sqrt_ratio(n, d):
    """Exact sqrt of n/d, for ints n and d > 0, as a tower element (always
    representable)."""
    if not n:
        return _ZERO
    g = math.gcd(n, d)
    n, d = n // g, d // g
    s = math.isqrt(abs(n * d))
    if s * s == abs(n * d):  # a rational or i times one: nothing to factorize
        return _reduced({1 if n > 0 else -1: s}, d)
    s, m = squarefree_decompose(n * d)
    return _reduced({m: s}, d)


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
    num, den = a._num, a._den
    rest = [(r, c) for r, c in num.items() if r != 1]
    if len(rest) > 1:
        return UNREPRESENTABLE
    r, n2 = rest[0] if rest else (1, 0)
    # c1^2 - r*c2^2 = p/den^2, whose root is rational exactly when p is a square
    n1 = num.get(1, 0)
    p = n1 * n1 - r * n2 * n2
    t = math.isqrt(max(p, 0))
    if t * t != p:
        return UNREPRESENTABLE
    u = _sqrt_ratio(n1 + t, 2 * den)
    v = _sqrt_ratio(n1 - t, 2 * den)
    for x in (u + v, u - v):
        if x * x == a:
            return x
    return UNREPRESENTABLE


# -- complex enclosures ----------------------------------------------------------


class ComplexBall:
    """Midpoint-radius complex enclosure on top of mpmath.

    Arithmetic is outward-padded by a few ulps of the current working
    precision, which keeps the solver's enclosures honest (residual checks
    against tolerances far above 2^-prec); products in the algebra read a
    ball as its exact midpoint and radius instead (``_midpoint``).
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
    ``precision`` bits (None: the current working precision)."""
    if isinstance(x, ComplexBall):
        return x
    return x.to_complex(mpmath.mp.prec if precision is None else precision)


# -- values rounded to floats, for ordering -------------------------------------------


def rounded_parts(x):
    """(Re x, Im x), each as its nearest float (ties to even): the parts of a
    FieldElement's value, or of a ComplexBall's exact midpoint, found in
    integers."""
    x = _midpoint(x)
    real = {r: c for r, c in x._num.items() if r > 0}
    imag = {-r: c for r, c in x._num.items() if r < 0}
    return _rounded(real, x._den), _rounded(imag, x._den)


def _rounded(terms, den):
    """sum_m terms[m] sqrt(m) / den, for square-free m > 0, as its nearest
    float.  The sum times 2^s lies between integers that ``math.isqrt``
    bounds term by term; Python's ``int / int`` rounds each end correctly,
    and s doubles until both ends round alike.  They do once the enclosure
    is narrow enough, as a sum with an irrational term is irrational and so
    no tie.  OverflowError on a part past the float range."""
    s = 64
    while True:
        lo = hi = 0
        for m, c in terms.items():
            if m == 1:
                lo, hi = lo + (c << s), hi + (c << s)
                continue
            a = math.isqrt(c * c * m << 2 * s)  # a <= |c| sqrt(m) 2^s < a + 1
            lo, hi = (lo + a, hi + a + 1) if c > 0 else (lo - a - 1, hi - a)
        low, high = lo / (den << s), hi / (den << s)
        if low == high:
            return low
        s *= 2


# -- balls as exact midpoints over the radicands 1 and -1 (an mpf is dyadic) --------


def _midpoint(x):
    """The exact midpoint of the ComplexBall x; x itself for a FieldElement."""
    if isinstance(x, FieldElement):
        return x
    re, im = (Fraction(*mpmath.libmp.to_rational(part)) for part in x.mid._mpc_)
    return FieldElement({1: re, -1: im})


def _radius(x):
    """The radius of the ComplexBall x, a Fraction; 0 for a FieldElement."""
    if isinstance(x, ComplexBall):
        return Fraction(*mpmath.libmp.to_rational(x.rad._mpf_))
    return Fraction(0)


def _magnitude(x):
    """An upper bound on |x| for a FieldElement x, within a relative 2^-50,
    as a rational FieldElement."""
    ball = x.to_complex(53)
    size = Fraction(*mpmath.libmp.to_rational(mpmath.libmp.mpc_abs(ball.mid._mpc_, 53, "u")))
    return FieldElement.from_rational(size + _radius(ball))


def _ball(mid, rad, precision):
    """mid's enclosure at ``precision`` bits widened by the Fraction ``rad``,
    the radius rounded up to 53 bits."""
    ball = mid.to_complex(precision)
    rad += _radius(ball)
    up = mpmath.libmp.from_rational(rad.numerator, rad.denominator, 53, "u")
    ball.rad = mpmath.mp.make_mpf(up)
    return ball


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

    A rational coefficient (an int, a Fraction, or a rational FieldElement)
    goes before its symbol, joined by ``*``, and is left out when it is ±1
    and a symbol follows; its sign goes in front of its term, ``-`` on the
    first and ``- `` or ``+ `` on the later ones.  Any other coefficient is
    written in parentheses, unfactored.  The symbol ``""`` is no symbol.
    Zero terms are left out, and a sum of none is ``0``.
    """
    parts = []
    for c, symbol in terms:
        if type(c) is not FieldElement:
            parts.append(_rational_part(c.numerator, c.denominator, symbol))
        elif c.is_rational():
            parts.append(_rational_part(c._num.get(1, 0), c._den, symbol))
        else:
            parts.append((False, f"({render_field_element(c, factored=False)})", symbol))
    return _joined(parts)


def _rational_part(n, d, symbol):
    """The term n/d * symbol, for ints n and d > 0, as (negative,
    coefficient text, symbol) for ``_joined``; None when n is 0."""
    if not n:
        return None
    neg, n = n < 0, abs(n)
    g = math.gcd(n, d)
    n, d = n // g, d // g
    coeff = "" if symbol and n == d == 1 else _rational_text(n, d)
    return neg, coeff, symbol


def _joined(parts):
    """The (negative, coefficient text, symbol) terms as ``a - b + c``,
    skipping None; ``0`` for none."""
    out = []
    for part in parts:
        if part is None:
            continue
        neg, coeff, symbol = part
        body = f"{coeff}*{symbol}" if coeff and symbol else coeff or symbol
        if out:
            out.append(f"- {body}" if neg else f"+ {body}")
        else:
            out.append(f"-{body}" if neg else body)
    return " ".join(out) if out else "0"


def _rational_text(n, d):
    """n/d for coprime ints n and d > 0, written as ``str`` writes a Fraction."""
    return str(n) if d == 1 else f"{n}/{d}"


def render_field_element(fe, factored=True):
    """Deterministic text form, e.g. ``1/14*(1 - 3/7*I*sqrt(7))``.

    Term order: |rad| ascending, positive radicand before negative.  With
    ``factored`` (the default, mirroring the appendix tables of the usual
    references) multi-term values are written as leading-coefficient times a
    parenthesized sum whose first coefficient is 1.
    """
    fe = _coerce(fe)
    num, den = fe._num, fe._den
    rads = fe.radicands()
    lead = num[rads[0]] if rads else 0
    if factored and len(rads) > 1 and lead != den:
        # each coefficient over the leading one, n/lead, with a positive denominator
        sign = -1 if lead < 0 else 1
        ratios = _joined([_rational_part(sign * num[r], abs(lead), _radical(r)) for r in rads])
        g = math.gcd(lead, den)
        return f"{_rational_text(lead // g, den // g)}*({ratios})"
    return _joined([_rational_part(num[r], den, _radical(r)) for r in rads])


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
    terms = []
    for rad in fe.radicands():
        n, d = fe.coefficient(rad)
        terms.append({"rad": rad, "num": str(n), "den": str(d)})
    return {"terms": terms}


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
