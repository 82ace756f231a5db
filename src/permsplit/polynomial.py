"""Multivariate polynomials over the radical tower, Buchberger bases, and the
Krull dimension of leading-term ideals.

Monomials are exponent tuples; variables are listed weakest first, so with
names ``(x1, x2, ..., xR)`` both supported orders make x1 the least variable
and a lex basis eliminates down to a univariate polynomial in x1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import add, le, neg, sub

from .errors import ResourceLimit
from .exactfield import FieldElement, signed_sum

__all__ = [
    "Ring",
    "Poly",
    "normal_form",
    "s_polynomial",
    "groebner_basis",
    "reduce_basis",
    "hilbert_dimension",
    "max_independent_set",
]

MAX_PAIRS = 40000
MAX_BASIS = 800


@dataclass(frozen=True)
class Ring:
    """Variable names (weakest first) plus a term order."""

    names: tuple
    order: str = "degrevlex"

    def __post_init__(self):
        if self.order not in ("degrevlex", "lex"):
            raise ValueError(f"unknown term order {self.order!r}")
        object.__setattr__(self, "names", tuple(self.names))

    @property
    def nvars(self):
        return len(self.names)

    def key(self, mono):
        """Sort key: larger key = larger monomial in the active order."""
        if self.order == "degrevlex":
            return (sum(mono), tuple(map(neg, mono)))
        return tuple(reversed(mono))

    def with_order(self, order):
        return Ring(self.names, order)


# elementwise over exponent tuples; map over the operator functions runs in C
def _mono_mul(a, b):
    return tuple(map(add, a, b))


def _mono_divides(a, b):
    return all(map(le, a, b))


def _mono_div(a, b):
    return tuple(map(sub, a, b))


def _mono_lcm(a, b):
    return tuple(map(max, a, b))


class Poly:
    """Polynomial with FieldElement coefficients; no zero terms stored."""

    __slots__ = ("ring", "terms", "_lm")

    def __init__(self, ring, terms=None, _canonical=False):
        self.ring = ring
        if terms is None:
            terms = {}
        if not _canonical:
            clean = {}
            for mono, c in terms.items():
                if not isinstance(c, FieldElement):
                    c = FieldElement.from_rational(c)
                if c.is_zero():
                    continue
                mono = tuple(mono)
                if len(mono) != ring.nvars:
                    raise ValueError("exponent tuple has wrong length")
                prev = clean.get(mono)
                clean[mono] = c if prev is None else prev + c
            terms = {m: c for m, c in clean.items() if not c.is_zero()}
        self.terms = terms
        self._lm = None

    # constructors
    @classmethod
    def zero(cls, ring):
        return cls(ring, {}, _canonical=True)

    @classmethod
    def one(cls, ring):
        return cls.const(ring, 1)

    @classmethod
    def const(cls, ring, value):
        if not isinstance(value, FieldElement):
            value = FieldElement.from_rational(value)
        if value.is_zero():
            return cls.zero(ring)
        z = (0,) * ring.nvars
        return cls(ring, {z: value}, _canonical=True)

    @classmethod
    def variable(cls, ring, index):
        mono = tuple(1 if i == index else 0 for i in range(ring.nvars))
        return cls(ring, {mono: FieldElement.one()}, _canonical=True)

    # basic structure
    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return not self.terms or set(self.terms) == {(0,) * self.ring.nvars}

    def leading_monomial(self):
        if self._lm is None and self.terms:
            self._lm = max(self.terms, key=self.ring.key)
        return self._lm

    def leading_coeff(self):
        lm = self.leading_monomial()
        return self.terms[lm] if lm is not None else FieldElement.zero()

    def monic(self):
        lc = self.leading_coeff()
        if lc.is_zero() or lc == 1:
            return self
        inv = lc.invert()
        return Poly(
            self.ring,
            {m: c * inv for m, c in self.terms.items()},
            _canonical=True,
        )

    # arithmetic
    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            prev = out.get(m)
            if prev is None:
                out[m] = c
            else:
                s = prev + c
                if s.is_zero():
                    del out[m]
                else:
                    out[m] = s
        return Poly(self.ring, out, _canonical=True)

    def __neg__(self):
        return Poly(
            self.ring, {m: -c for m, c in self.terms.items()}, _canonical=True
        )

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if not self.terms or not other.terms:
            return Poly.zero(self.ring)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                c = c1 * c2
                prev = out.get(m)
                out[m] = c if prev is None else prev + c
        return Poly(
            self.ring,
            {m: c for m, c in out.items() if not c.is_zero()},
            _canonical=True,
        )

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative polynomial power")
        out = Poly.one(self.ring)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def term_mul(self, coeff, mono):
        """Multiply by a single term coeff * x^mono."""
        if coeff.is_zero():
            return Poly.zero(self.ring)
        return Poly(
            self.ring,
            {_mono_mul(m, mono): c * coeff for m, c in self.terms.items()},
            _canonical=True,
        )

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.ring != self.ring:
                raise ValueError("mixed rings")
            return other
        return Poly.const(self.ring, other)

    # substitution and evaluation
    def substitute(self, var, value):
        """Exact evaluation at x_var = value (a FieldElement or rational)."""
        if not isinstance(value, FieldElement):
            value = FieldElement.from_rational(value)
        powers = {0: FieldElement.one()}
        out = {}
        for mono, c in self.terms.items():
            e = mono[var]
            if e not in powers:
                powers[e] = value**e
            c2 = c * powers[e] if e else c
            if c2.is_zero():
                continue
            m2 = tuple(0 if i == var else x for i, x in enumerate(mono))
            prev = out.get(m2)
            s = c2 if prev is None else prev + c2
            if s.is_zero():
                out.pop(m2, None)
            else:
                out[m2] = s
        return Poly(self.ring, out, _canonical=True)

    def evaluate(self, values):
        """Full evaluation; ``values`` lists one FieldElement per variable, or
        one ComplexBall per variable for an enclosure of the value."""
        total = FieldElement.zero()
        for mono, c in self.terms.items():
            term = c
            for i, e in enumerate(mono):
                for _ in range(e):
                    term = term * values[i]
            total = total + term
        return total

    # comparisons, rendering
    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms.items()))))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: self.ring.key(t[0]), reverse=True)

    def render(self):
        names = self.ring.names

        def monomial(mono):
            return "*".join(
                f"{names[i]}^{e}" if e > 1 else names[i] for i, e in enumerate(mono) if e
            )

        return signed_sum((c, monomial(mono)) for mono, c in self.sorted_terms())

    def __repr__(self):
        return f"Poly({self.render()})"


def normal_form(f, G):
    """Remainder of f under full division by G (tails included).

    The engine's one reduction.  While terms are left, the leading one is
    cancelled by the first nonzero element of G whose leading monomial
    divides it, with the factor lc / (that element's leading coefficient),
    so G need not be monic; a leading term nothing divides moves to the
    result.  No term of the result is divisible by any leading monomial of
    G, and f - result lies in the ideal generated by G.  The result is
    deterministic for a fixed list order.
    """
    ring = f.ring
    G = [g for g in G if not g.is_zero()]
    out = {}
    p = f
    while p.terms:
        lm = p.leading_monomial()
        lc = p.terms[lm]
        for g in G:
            glm = g.leading_monomial()
            if _mono_divides(glm, lm):
                p = p - g.term_mul(lc / g.leading_coeff(), _mono_div(lm, glm))
                break
        else:
            out[lm] = lc
            p = Poly(ring, {m: c for m, c in p.terms.items() if m != lm}, _canonical=True)
    return Poly(ring, out, _canonical=True)


def s_polynomial(f, g):
    lf, lg = f.leading_monomial(), g.leading_monomial()
    lcm = _mono_lcm(lf, lg)
    a = f.term_mul(f.leading_coeff().invert(), _mono_div(lcm, lf))
    b = g.term_mul(g.leading_coeff().invert(), _mono_div(lcm, lg))
    return a - b


def reduce_basis(G):
    """The reduced Groebner basis of the ideal with Groebner basis G: monic,
    tails reduced, no leading term divides another, in ascending order.

    Keeping each element whose leading term no kept one divides, in
    ascending order, leaves a minimal basis; ``normal_form`` of each by the
    others, which need not be monic, leaves every leading term in place.
    The ideal alone fixes the result, so it does not depend on which
    Groebner basis G is.
    """
    minimal = []
    G = sorted((g for g in G if not g.is_zero()), key=lambda g: g.ring.key(g.leading_monomial()))
    for g in G:
        lm = g.leading_monomial()
        if not any(_mono_divides(h.leading_monomial(), lm) for h in minimal):
            minimal.append(g)
    return [
        normal_form(g, minimal[:i] + minimal[i + 1 :]).monic()
        for i, g in enumerate(minimal)
    ]


def groebner_basis(generators):
    """Reduced Groebner basis by Buchberger's algorithm.

    Each generator, in ascending order of leading term, and then each
    S-polynomial is reduced in full by ``normal_form`` with the basis G
    kept so far, in list order; a nonzero remainder is made monic and
    appended to G, and a constant one means the unit ideal.
    ``reduce_basis`` returns the reduced basis, which the ideal alone
    fixes, whatever the generators' order or scale.

    Pair selection follows the normal strategy (minimal lcm in the active
    order, ties by input index) from a list of pairs keyed at creation and
    sorted again as each kept polynomial adds its pairs; the coprime and
    chain criteria prune pairs.  Returns ``[1]`` exactly when the
    ideal is the whole ring.  Raises ResourceLimit when more than MAX_PAIRS
    pairs are processed or the basis grows past MAX_BASIS.
    """
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        raise ValueError("groebner_basis of an empty/zero generating set")
    ring = gens[0].ring
    G = []
    for g in sorted(gens, key=lambda g: ring.key(g.leading_monomial())):
        r = normal_form(g, G)
        if r.is_zero():
            continue
        if r.is_constant():
            return [Poly.one(ring)]
        G.append(r.monic())

    pairs = []  # (key of the lcm, (i, j)), sorted so that the next pair is last

    def add_pairs(k):
        for t in range(k):
            lcm = _mono_lcm(G[t].leading_monomial(), G[k].leading_monomial())
            pairs.append((ring.key(lcm), (t, k)))
        pairs.sort(reverse=True)

    for k in range(len(G)):
        add_pairs(k)
    done = set()
    processed = 0
    while pairs:
        _, pair = pairs.pop()
        done.add(pair)
        i, j = pair
        li = G[i].leading_monomial()
        lj = G[j].leading_monomial()
        lcm = _mono_lcm(li, lj)
        if lcm == _mono_mul(li, lj):
            continue  # coprime leading terms
        if _chain_criterion(G, pair, lcm, done):
            continue
        processed += 1
        if processed > MAX_PAIRS:
            raise ResourceLimit(f"Groebner pair cap {MAX_PAIRS} exceeded")
        r = normal_form(s_polynomial(G[i], G[j]), G)
        if r.is_zero():
            continue
        if r.is_constant():
            return [Poly.one(ring)]
        G.append(r.monic())
        if len(G) > MAX_BASIS:
            raise ResourceLimit(f"Groebner basis cap {MAX_BASIS} exceeded")
        add_pairs(len(G) - 1)
    return reduce_basis(G)


def _chain_criterion(G, pair, lcm, done):
    i, j = pair
    for k in range(len(G)):
        if k in pair:
            continue
        if not _mono_divides(G[k].leading_monomial(), lcm):
            continue
        a = (min(i, k), max(i, k))
        b = (min(j, k), max(j, k))
        if a in done and b in done:
            return True
    return False


def is_trivial_basis(G):
    return len(G) == 1 and G[0].is_constant() and not G[0].is_zero()


def hilbert_dimension(G):
    """Krull dimension of the ideal with reduced Groebner basis G.

    Combinatorial form: the size of the largest set U of variables such that
    no leading monomial is supported entirely inside U.  G must not be [1].
    """
    if is_trivial_basis(G):
        raise ValueError("the unit ideal has no Hilbert dimension")
    return len(max_independent_set(G, G[0].ring.nvars))


def max_independent_set(G, nvars):
    """A maximum variable set containing no leading-monomial support."""
    supports = set()
    for g in G:
        if g.is_zero():
            continue
        lm = g.leading_monomial()
        supports.add(frozenset(i for i, e in enumerate(lm) if e))
    supports = [s for s in supports if s]
    full = frozenset(range(nvars))

    @lru_cache(maxsize=None)
    def best(allowed):
        inside = next((s for s in supports if s <= allowed), None)
        if inside is None:
            return allowed
        best_set = frozenset()
        for v in sorted(inside):
            cand = best(allowed - {v})
            if len(cand) > len(best_set):
                best_set = cand
        return best_set

    result = best(full)
    best.cache_clear()
    return set(result)

