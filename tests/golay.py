"""M22 on 770 points and M24 on its octads and larger actions, built from
the binary Golay code.

The paper's example: M22 acting on the 770 pairs (hexad, 3|3 bisection of
it); and M24 on its 759 octads, the code words of weight 8, on its 1,288
dodecad pairs, 1,771 sextets, 2,576 dodecads and 3,795 trios, and on its 24
points (whose 4-sets, ``conftest.set_action``, are 10,626 points).
Everything is closed form (Conway and Sloane, *Sphere Packings, Lattices
and Groups*, ch. 10-11), and no search runs:

* the extended Golay code is the span of the 23 translates of the
  quadratic non-residues mod 23, each with a parity coordinate at infinity;
* M24 = <x -> x+1, x -> 2x, x -> -1/x, delta> on P^1(F_23), where Conway's
  delta sends x to x^3/9 on the residues and to 9x^3 on the non-residues
  and fixes 0 and infinity;
* M22 is the pointwise stabilizer of infinity and 0; M23 is generated by
  the Schreier generators of infinity's stabilizer in M24, and M22 here
  by the first ``M22_SCHREIER_GENERATORS`` Schreier generators of 0's
  stabilizer in M23;
* the hexads are the 77 octads through infinity and 0, without those two
  points; each has 10 bisections into two triples.

Permutations are image tuples on 0..n-1, composed left to right.
"""

from itertools import combinations, count
from math import prod

from permsplit import GeneratorSet, Permutation

P = 23
INFINITY = 23  # points 0..22 are F_23, point 23 is infinity
RESIDUES = frozenset(x * x % P for x in range(1, P))
NON_RESIDUES = frozenset(range(1, P)) - RESIDUES

M24_ORDER = 244_823_040
M22_ORDER = 443_520
# the first four Schreier generators of the stabilizer of 0 in M23 already
# generate all of M22 (``group_order`` says 443,520)
M22_SCHREIER_GENERATORS = 4


def compose(g, h):
    """g, then h."""
    return tuple(h[x] for x in g)


def inverse(g):
    out = [0] * len(g)
    for x, y in enumerate(g):
        out[y] = x
    return tuple(out)


def golay_code():
    """The 4096 words of the extended Golay code, as 24-bit integers with
    bit x for the point x of P^1(F_23)."""
    rows = [
        sum(1 << ((x + t) % P) for x in NON_RESIDUES) | 1 << INFINITY for t in range(P)
    ]
    words = {0}
    for row in rows:
        if row not in words:
            words |= {w ^ row for w in words}
    return words


def m24_generators():
    """x -> x+1, x -> 2x, x -> -1/x and Conway's delta on P^1(F_23)."""
    inv9 = pow(9, -1, P)
    maps = [
        lambda x: x if x == INFINITY else (x + 1) % P,
        lambda x: x if x == INFINITY else 2 * x % P,
        lambda x: 0 if x == INFINITY else INFINITY if x == 0 else -pow(x, -1, P) % P,
        lambda x: x if x in (0, INFINITY) else x**3 * (inv9 if x in RESIDUES else 9) % P,
    ]
    return [tuple(f(x) for x in range(P + 1)) for f in maps]


def _transversal(gens, point):
    """{y: u} with point^u = y for the orbit of ``point``, in BFS order."""
    transversal = {point: tuple(range(len(gens[0])))}
    queue = [point]
    for x in queue:
        for s in gens:
            if s[x] not in transversal:
                transversal[s[x]] = compose(transversal[x], s)
                queue.append(s[x])
    return transversal


def schreier_generators(gens, point):
    """The stabilizer of ``point`` in <gens>: its Schreier generators
    u_x s u_{x^s}^-1 in BFS order of x, then order of s, without the
    identity and repeats; and the orbit length of ``point``."""
    transversal = _transversal(gens, point)
    identity = tuple(range(len(gens[0])))
    found = (
        compose(compose(u, s), inverse(transversal[s[x]]))
        for x, u in transversal.items()
        for s in gens
    )
    return [g for g in dict.fromkeys(found) if g != identity], len(transversal)


def group_order(gens):
    """The order of <gens>, by the deterministic Schreier-Sims algorithm:
    extend the strong generators until every Schreier generator of every
    level of the stabilizer chain sifts to the identity."""
    identity = tuple(range(len(gens[0])))
    base, strong = [], list(gens)
    while True:
        levels = []  # (base point, its stabilizer's generators, transversal)
        for i in count():
            fixing = [g for g in strong if g != identity and all(g[b] == b for b in base[:i])]
            if not fixing:
                break
            if i == len(base):
                base.append(next(x for x in identity if fixing[0][x] != x))
            levels.append((base[i], fixing, _transversal(fixing, base[i])))
        residues = (
            _sift(levels, compose(compose(u, s), inverse(transversal[s[x]])))
            for _, fixing, transversal in levels
            for x, u in transversal.items()
            for s in fixing
        )
        residue = next((h for h in residues if h != identity), None)
        if residue is None:
            return prod(len(transversal) for _, _, transversal in levels)
        strong.append(residue)


def _sift(levels, g):
    """What is left of g after dividing out the transversals, top down."""
    for point, _, transversal in levels:
        u = transversal.get(g[point])
        if u is None:
            return g
        g = compose(g, inverse(u))
    return g


def m22_generators():
    """The selected generators of M22 = M24 fixing infinity and 0, on all
    24 points."""
    m23, _ = schreier_generators(m24_generators(), INFINITY)
    m22, _ = schreier_generators(m23, 0)
    return m22[:M22_SCHREIER_GENERATORS]


def hexads(words):
    """The 77 hexads: the octads through infinity and 0, without them."""
    through = 1 << INFINITY | 1
    return sorted(
        tuple(x for x in range(1, P) if w >> x & 1)
        for w in words
        if bin(w).count("1") == 8 and w & through == through
    )


def m24_points():
    """M24 on its 24 points, as a GeneratorSet: point x + 1 is x."""
    return GeneratorSet(
        P + 1, tuple(Permutation.from_images([y + 1 for y in g]) for g in m24_generators())
    )


def _image(g, word):
    return sum(1 << g[x] for x in range(P + 1) if word >> x & 1)


def _m24_action(points, image):
    """M24 on ``points``, as a GeneratorSet: point i + 1 is points[i], and g
    sends it to image(g, points[i])."""
    index = {x: i + 1 for i, x in enumerate(points)}
    return GeneratorSet(
        len(points),
        tuple(
            Permutation.from_images([index[image(g, x)] for x in points])
            for g in m24_generators()
        ),
    )


def _words(weight):
    return sorted(w for w in golay_code() if bin(w).count("1") == weight)


def _set_image(g, words):
    return frozenset(_image(g, w) for w in words)


def _in_order(sets):
    return sorted(sets, key=sorted)


def m24_octads():
    """M24 on its 759 octads, as a GeneratorSet; point i + 1 is the i-th
    octad in increasing order of its 24-bit word."""
    return _m24_action(_words(8), _image)


def m24_dodecads():
    """M24 on its 2,576 dodecads (the code words of weight 12), in
    increasing order of their words."""
    return _m24_action(_words(12), _image)


def m24_dodecad_pairs():
    """M24 on the 1,288 pairs {dodecad, complement}, each named by the
    smaller word of the two."""
    full = (1 << P + 1) - 1

    def image(g, w):
        v = _image(g, w)
        return min(v, v ^ full)

    return _m24_action(sorted({min(w, w ^ full) for w in _words(12)}), image)


def m24_sextets():
    """M24 on its 1,771 sextets: the partitions of the 24 points into six
    tetrads, any two of which make an octad.  Each of the five octads
    through a tetrad T is T and another tetrad of T's sextet."""
    of = {}
    for octad in _words(8):
        points = [x for x in range(P + 1) if octad >> x & 1]
        for tetrad in combinations(points, 4):
            word = sum(1 << x for x in tetrad)
            of.setdefault(word, {word}).add(octad ^ word)
    return _m24_action(_in_order({frozenset(s) for s in of.values()}), _set_image)


def m24_trios():
    """M24 on its 3,795 trios: the partitions of the 24 points into three
    octads.  The complement of two disjoint octads is an octad, since the
    all-ones word lies in the code."""
    full = (1 << P + 1) - 1
    octads = _words(8)
    trios = {frozenset((a, b, full ^ a ^ b)) for a in octads for b in octads if not a & b}
    return _m24_action(_in_order(trios), _set_image)


def m22_770():
    """M22 on the 770 pairs (hexad, 3|3 bisection), as a GeneratorSet.

    Point i + 1 is the i-th pair, with hexads in lexicographic order and
    the bisections of each in lexicographic order of the triple through
    the hexad's least point."""
    bisections = [
        frozenset({triple, frozenset(h) - triple})
        for h in hexads(golay_code())
        for triple in (frozenset((h[0], *pair)) for pair in combinations(h[1:], 2))
    ]
    index = {b: i + 1 for i, b in enumerate(bisections)}
    return GeneratorSet(
        len(bisections),
        tuple(
            Permutation.from_images(
                [index[frozenset(frozenset(g[x] for x in half) for half in b)] for b in bisections]
            )
            for g in m22_generators()
        ),
    )
