"""Shared group constructions, the acceptance-corpus fixture, and the exact
vectors of the linear route as integer-array elements."""

import copy
import functools
from itertools import combinations

import pytest

from permsplit import (
    GeneratorSet,
    Permutation,
    SplitConfig,
    compute_orbitals,
    compute_structure_constants,
    split,
    splitter,
)
from permsplit.exactfield import _canonical, _encode


def element(vec):
    """A vector of FieldElements as the canonical element (den, rads, A, big)
    of ``exactfield``'s integer-array form."""
    return _canonical(*_encode([vec])[0])


def perm(imgs):
    return Permutation.from_images(imgs)


def cyclic(n):
    return GeneratorSet(n, (perm([i % n + 1 for i in range(1, n + 1)]),))


def dihedral(n):
    rot = perm([i % n + 1 for i in range(1, n + 1)])
    ref = perm([(n + 1 - i) % n + 1 for i in range(1, n + 1)])
    return GeneratorSet(n, (rot, ref))


def symmetric(n):
    if n == 2:
        return GeneratorSet(2, (perm([2, 1]),))
    return GeneratorSet(
        n,
        (perm([2, 1] + list(range(3, n + 1))), perm([i % n + 1 for i in range(1, n + 1)])),
    )


def alternating(n):
    three = perm([2, 3, 1] + list(range(4, n + 1)))
    if n % 2 == 1:
        big = perm([i % n + 1 for i in range(1, n + 1)])
    else:
        big = perm([1] + [i + 1 for i in range(2, n)] + [2])
    return GeneratorSet(n, (three, big))


def pair_action(gens, m, pair_order=None):
    """Induced action on unordered pairs of {1..m}, with a chosen labeling."""
    pairs = pair_order or list(combinations(range(1, m + 1), 2))
    idx = {p: i + 1 for i, p in enumerate(pairs)}
    out = []
    for g in gens.generators:
        imgs = []
        for a, b in pairs:
            x, y = g.apply(a), g.apply(b)
            imgs.append(idx[(min(x, y), max(x, y))])
        out.append(perm(imgs))
    return GeneratorSet(len(pairs), tuple(out))


def set_action(gens, m, k):
    """Induced action on the k-subsets of {1..m}, in lexicographic order;
    the Johnson scheme J(m, k) for the symmetric group."""
    subsets = list(combinations(range(1, m + 1), k))
    idx = {c: i + 1 for i, c in enumerate(subsets)}
    out = [
        perm([idx[tuple(sorted(g.apply(a) for a in c))] for c in subsets])
        for g in gens.generators
    ]
    return GeneratorSet(len(subsets), tuple(out))


def orbit_action(gens, start, act):
    """The action of ``gens`` on the orbit of ``start`` under ``act(g, x)``,
    its points numbered in breadth-first order."""
    points, idx = [start], {start: 1}
    for x in points:  # the list grows while it is walked
        for g in gens.generators:
            y = act(g, x)
            if y not in idx:
                idx[y] = len(points) + 1
                points.append(y)
    return GeneratorSet(
        len(points),
        tuple(perm([idx[act(g, x)] for x in points]) for g in gens.generators),
    )


# Petersen labeling: point 2 is disjoint from point 1 = {1,2}, which puts the
# valency-3 (disjointness) suborbit ahead of the valency-6 one in the basis
# ordering and yields suborbit lengths 1, 3, 6.
PETERSEN_PAIR_ORDER = [
    (1, 2), (3, 4), (3, 5), (4, 5), (1, 3),
    (1, 4), (1, 5), (2, 3), (2, 4), (2, 5),
]


def petersen():
    return pair_action(alternating(5), 5, PETERSEN_PAIR_ORDER)


def regular_action(gens):
    """Right-regular action of the group generated by ``gens``."""

    def mul(p, q):
        return tuple(q[i] for i in p)

    gi = [tuple(x - 1 for x in g.images()) for g in gens.generators]
    ident = tuple(range(gens.degree))
    elems = [ident]
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gi:
                h = mul(e, g)
                if h not in seen:
                    seen.add(h)
                    elems.append(h)
                    nxt.append(h)
        frontier = nxt
    idx = {e: i + 1 for i, e in enumerate(elems)}
    return GeneratorSet(
        len(elems),
        tuple(perm([idx[mul(e, g)] for e in elems]) for g in gi),
    )


def q8_regular():
    """Right-regular action of the quaternion group from its unit table."""

    def mul(a, b):
        sa, ua = a & 1, a >> 1
        sb, ub = b & 1, b >> 1
        table = {
            (0, 0): (0, 0), (0, 1): (1, 0), (0, 2): (2, 0), (0, 3): (3, 0),
            (1, 0): (1, 0), (1, 1): (0, 1), (1, 2): (3, 0), (1, 3): (2, 1),
            (2, 0): (2, 0), (2, 1): (3, 1), (2, 2): (0, 1), (2, 3): (1, 0),
            (3, 0): (3, 0), (3, 1): (2, 0), (3, 2): (1, 1), (3, 3): (0, 1),
        }
        uu, extra = table[(ua, ub)]
        return (uu << 1) | (sa ^ sb ^ extra)

    return GeneratorSet(
        8, tuple(perm([mul(e, g) + 1 for e in range(8)]) for g in (2, 4))
    )


def klein_regular():
    return GeneratorSet(4, (perm([2, 1, 4, 3]), perm([3, 4, 1, 2])))


def frobenius21():
    """C7 : C3 on 7 points: x -> x+1 and x -> 2x over GF(7)."""
    add = perm([i % 7 + 1 for i in range(1, 8)])
    mul2 = perm([((2 * (i - 1)) % 7) + 1 for i in range(1, 8)])
    return GeneratorSet(7, (add, mul2))


def frobenius20():
    """C5 : C4 on 5 points: x -> x+1 and x -> 2x over GF(5)."""
    add = perm([i % 5 + 1 for i in range(1, 6)])
    mul2 = perm([((2 * (i - 1)) % 5) + 1 for i in range(1, 6)])
    return GeneratorSet(5, (add, mul2))


def affine(p, mult):
    """x -> x+1 and x -> mult*x over GF(p), on the points x+1.  With ``mult``
    a primitive root this generates AGL(1,p)."""
    add = perm([(i % p) + 1 for i in range(1, p + 1)])
    scale = perm([((mult * (i - 1)) % p) + 1 for i in range(1, p + 1)])
    return GeneratorSet(p, (add, scale))


def primitive_root(p):
    """The least primitive root modulo the prime p."""
    primes = [q for q in range(2, p) if (p - 1) % q == 0 and all(q % r for r in range(2, q))]
    return next(g for g in range(2, p) if all(pow(g, (p - 1) // q, p) != 1 for q in primes))


def wreath_c2_c3():
    return GeneratorSet(6, (perm([2, 1, 3, 4, 5, 6]), perm([3, 4, 5, 6, 1, 2])))


def wreath_s3_c2():
    return GeneratorSet(
        6,
        (perm([2, 1, 3, 4, 5, 6]), perm([2, 3, 1, 4, 5, 6]), perm([4, 5, 6, 1, 2, 3])),
    )


def wreath_c3_c2():
    return GeneratorSet(6, (perm([2, 3, 1, 4, 5, 6]), perm([4, 5, 6, 1, 2, 3])))


def corpus_actions():
    """The transitive-action corpus of the acceptance property suite."""
    return [
        ("C4_regular", cyclic(4)),
        ("C5_natural", cyclic(5)),
        ("C6_natural", cyclic(6)),
        ("C7_natural", cyclic(7)),
        ("C8_natural", cyclic(8)),
        ("C9_natural", cyclic(9)),
        ("D4_natural", dihedral(4)),
        ("D5_natural", dihedral(5)),
        ("D6_natural", dihedral(6)),
        ("D7_natural", dihedral(7)),
        ("S3_natural", symmetric(3)),
        ("S4_natural", symmetric(4)),
        ("A4_natural", alternating(4)),
        ("A5_natural", alternating(5)),
        ("S4_pairs", pair_action(symmetric(4), 4)),
        ("A4_pairs", pair_action(alternating(4), 4)),
        ("A5_petersen", petersen()),
        ("S3_regular", regular_action(symmetric(3))),
        ("D4_regular", regular_action(dihedral(4))),
        ("Q8_regular", q8_regular()),
        ("V4_regular", klein_regular()),
        ("F21_natural", frobenius21()),
        ("C2wrC3", wreath_c2_c3()),
        ("S3wrC2", wreath_s3_c2()),
        ("C3wrC2", wreath_c3_c2()),
    ]


CORPUS = corpus_actions()


@pytest.fixture(params=CORPUS, ids=[name for name, _ in CORPUS])
def corpus_member(request):
    return request.param


@functools.lru_cache(maxsize=None)
def _cached_corpus_split(name):
    return split(dict(CORPUS)[name])


def corpus_split(name):
    """``split`` of the named corpus action with the default configuration,
    computed once per session; each call returns a deep copy, so a test may
    mutate it.  Tests that patch the splitter or pass a SplitConfig call
    ``split`` themselves."""
    return copy.deepcopy(_cached_corpus_split(name))


def groebner_route(gens):
    """The dimension loop alone on ``gens``, seeded with no exact
    idempotent, as ``split`` runs it for what the tower cannot split."""
    basis = compute_orbitals(gens)
    consts = compute_structure_constants(gens, basis)
    deco = splitter._split_over(basis, consts, SplitConfig(), [])
    splitter._pair_conjugates(deco)
    return deco


# Corpus actions whose exact idempotents do not cover the identity: the roots
# of unity of order 5, 7 or 9 lie outside the tower, so no element splits the
# parts that hold them, and ``split`` runs the dimension loop on the rest.
GROEBNER_ONLY = {"C5_natural", "C7_natural", "C9_natural", "D7_natural"}


@functools.lru_cache(maxsize=None)
def _cached_groebner_split(name):
    return groebner_route(dict(CORPUS)[name])


def groebner_split(name):
    """``groebner_route`` of the named corpus action, computed once per
    session; each call returns a deep copy."""
    return copy.deepcopy(_cached_groebner_split(name))


def duplicate_first_projector(monkeypatch):
    """Send ``split`` down the dimension loop alone and make it record its
    first projector twice, so the finished family holds a duplicate."""
    real = splitter.process_single_solution

    def doubled(state, projector):
        real(state, projector)
        if len(state.projectors) == 1:
            state.projectors.append(projector)

    monkeypatch.setattr(splitter, "_split_linear", lambda basis, consts, config: [])
    monkeypatch.setattr(splitter, "process_single_solution", doubled)
