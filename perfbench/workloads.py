"""Seeded inputs for the benchmark workloads.

Every input is a transitive permutation action with a closed-form dimension
multiset.  The seed picks a random relabelling of the points 1..N and an order
for the generators; the program only ever sees the generator-file text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from math import comb


@dataclass(frozen=True)
class Input:
    """One operation's input: generator-file text plus the expected answer."""

    name: str
    text: str
    expected_dims: tuple
    verify_matrix: bool = False


# -- actions as 0-based image lists --------------------------------------------


def _symmetric_gens(n):
    """(1,2) and (1,2,...,n) on 0..n-1."""
    swap = [1, 0] + list(range(2, n))
    cycle = [(i + 1) % n for i in range(n)]
    return [swap, cycle]


def _set_action(gens, n, k):
    """Induced action on the k-subsets of an n-set."""
    subsets = list(combinations(range(n), k))
    index = {s: i for i, s in enumerate(subsets)}
    return len(subsets), [
        [index[tuple(sorted(g[x] for x in s))] for s in subsets] for g in gens
    ]


def _johnson_dims(n, k):
    return tuple(comb(n, i) - (comb(n, i - 1) if i else 0) for i in range(k + 1))


def _primitive_root(p):
    factors = {q for q in range(2, p) if (p - 1) % q == 0 and all(q % r for r in range(2, q))}
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise ValueError(f"no primitive root mod {p}")


def _affine_gens(p):
    """AGL(1,p): x -> x+1 and x -> g*x on 0..p-1."""
    g = _primitive_root(p)
    return [[(x + 1) % p for x in range(p)], [(g * x) % p for x in range(p)]]


def _regular_action(gens, degree):
    """Right-regular action of the group generated by ``gens`` on 0..|G|-1."""

    def mul(a, b):
        return tuple(b[i] for i in a)

    elems = [tuple(range(degree))]
    index = {elems[0]: 0}
    frontier = list(elems)
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                h = mul(e, tuple(g))
                if h not in index:
                    index[h] = len(elems)
                    elems.append(h)
                    nxt.append(h)
        frontier = nxt
    return len(elems), [[index[mul(e, tuple(g))] for e in elems] for g in gens]


def _dihedral_gens(n):
    return [[(i + 1) % n for i in range(n)], [(-i) % n for i in range(n)]]


def _q8_gens():
    """Quaternion units {±1, ±i, ±j, ±k} acting on themselves by right product."""
    units = [(s, u) for u in "1ijk" for s in (1, -1)]
    table = {
        ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
        ("i", "1"): (1, "i"), ("i", "i"): (-1, "1"), ("i", "j"): (1, "k"), ("i", "k"): (-1, "j"),
        ("j", "1"): (1, "j"), ("j", "i"): (-1, "k"), ("j", "j"): (-1, "1"), ("j", "k"): (1, "i"),
        ("k", "1"): (1, "k"), ("k", "i"): (1, "j"), ("k", "j"): (-1, "i"), ("k", "k"): (-1, "1"),
    }

    def mul(a, b):
        s, u = table[(a[1], b[1])]
        return (a[0] * b[0] * s, u)

    index = {x: i for i, x in enumerate(units)}
    return [[index[mul(x, g)] for x in units] for g in ((1, "i"), (1, "j"))]


def _a4_gens():
    return [[1, 2, 0, 3], [1, 0, 3, 2]]


# -- PSL(3,4) on one orbit of 56 hyperovals (the Gewirtz graph action) -----------

_GF4_MUL = [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]]
_GF4_INV = [None, 1, 3, 2]


def _gewirtz_gens():
    def normalize(v):
        lead = next(x for x in v if x)
        return tuple(_GF4_MUL[_GF4_INV[lead]][x] for x in v)

    vectors = [(a, b, c) for a in range(4) for b in range(4) for c in range(4)]
    points = sorted({normalize(v) for v in vectors if any(v)})
    pidx = {p: i for i, p in enumerate(points)}

    def apply(m, v):
        out = []
        for row in m:
            acc = 0
            for a, x in zip(row, v):
                acc ^= _GF4_MUL[a][x]
            out.append(acc)
        return normalize(out)

    mats = (
        ((1, 0, 0), (1, 1, 0), (0, 0, 1)),
        ((1, 0, 0), (2, 1, 0), (0, 0, 1)),
        ((0, 1, 0), (0, 0, 1), (1, 0, 0)),
    )
    gens21 = [[pidx[apply(m, p)] for p in points] for m in mats]

    lines = [
        frozenset(
            i for i, p in enumerate(points)
            if not (_GF4_MUL[f[0]][p[0]] ^ _GF4_MUL[f[1]][p[1]] ^ _GF4_MUL[f[2]][p[2]])
        )
        for f in points
    ]
    collinear = {frozenset(t) for line in lines for t in combinations(sorted(line), 3)}

    def arcs(arc, start):
        if len(arc) == 6:
            yield frozenset(arc)
            return
        for q in range(start, 21):
            if all(frozenset((a, b, q)) not in collinear for a, b in combinations(arc, 2)):
                yield from arcs(arc + [q], q + 1)

    first = next(arcs([], 0))
    orbit = [first]
    index = {first: 0}
    for h in orbit:  # grows while iterating: breadth-first closure
        for g in gens21:
            image = frozenset(g[x] for x in h)
            if image not in index:
                index[image] = len(orbit)
                orbit.append(image)
    if len(orbit) != 56:
        raise AssertionError(f"hyperoval orbit has {len(orbit)} members, expected 56")
    return 56, [[index[frozenset(g[x] for x in h)] for h in orbit] for g in gens21]


# -- seeded relabelling ----------------------------------------------------------


def generator_text(degree, gens, rng):
    """Generator-file text for ``gens`` (0-based image lists) under a random
    relabelling of the points and a random generator order."""
    label = list(range(1, degree + 1))
    rng.shuffle(label)
    order = list(range(len(gens)))
    rng.shuffle(order)
    lines = [f"degree {degree}"]
    for gi in order:
        g = gens[gi]
        images = [0] * degree
        for x in range(degree):
            images[label[x] - 1] = label[g[x]]
        lines.append("gen " + " ".join(map(str, images)))
    return "\n".join(lines) + "\n"


def _make(name, seed, degree, gens, dims, verify_matrix=False):
    rng = random.Random(f"{name}/{seed}")
    return Input(name, generator_text(degree, gens, rng), tuple(sorted(dims)), verify_matrix)


def affine_large(seed):
    """Rank 2 at N = 10^4: orbital and structure-constant work on many points,
    then a dimension scan of ~N one-variable systems, two of them useful."""
    p = 10007
    return [_make(f"AGL1_{p}", seed, p, _affine_gens(p), (1, p - 1))]


def johnson_scan(seed):
    """The paper-scale stand-in (M22 on 770 points has no generator file
    yet): hundreds of small exact systems with orthogonality accumulation."""
    out = []
    for n, k in ((12, 5), (16, 3)):
        degree, gens = _set_action(_symmetric_gens(n), n, k)
        out.append(_make(f"S{n}_on_{k}sets", seed, degree, gens, _johnson_dims(n, k)))
    return out


def regular_blocks(seed):
    """The multiplicity branch: a few large positive-dimensional systems,
    slicing, tower square roots (A4) and numeric coordinates (D5).  In a
    regular action each irreducible of dimension d appears d times."""
    groups = (
        ("S3", _symmetric_gens(3), 3, (1, 1, 2)),
        ("D4", _dihedral_gens(4), 4, (1, 1, 1, 1, 2)),
        ("Q8", _q8_gens(), 8, (1, 1, 1, 1, 2)),
        ("A4", _a4_gens(), 4, (1, 1, 1, 3)),
        ("D5", _dihedral_gens(5), 5, (1, 1, 2, 2)),
    )
    out = []
    for name, gens, degree, irreps in groups:
        n, reg = _regular_action(gens, degree)
        dims = [d for d in irreps for _ in range(d)]
        if sum(d * d for d in irreps) != n:
            raise AssertionError(f"{name}: irreducible degrees do not match |G|={n}")
        out.append(_make(f"{name}_regular", seed, n, reg, dims))
    return out


def certify_matrix(seed):
    """Exact matrix-level verification outweighs the split itself here; no
    other family measures the verify layer."""
    degree, gens = _gewirtz_gens()
    s8_degree, s8 = _set_action(_symmetric_gens(8), 8, 3)
    return [
        _make("PSL34_on_hyperovals", seed, degree, gens, (1, 20, 35), True),
        _make("S8_on_3sets", seed, s8_degree, s8, _johnson_dims(8, 3), True),
    ]


# The benchmark's workloads pair the four families above.  On a shared host
# whose speed drifts by 20-30 % over tens of seconds, a run needs half a
# minute or more of timed work to be steady, and a full comparison must fit
# in an hour, which leaves room for two workloads rather than four.  Each pairing
# keeps one workload that exercises a layer and one that nearly bypasses it:
# centralizer and the dimension scan load `scan`; solver, exactfield and
# verify load `blocks`; polynomial is loaded by both, with small systems in
# one and large ones in the other.


def scan(seed):
    """Dimension scans: affine_large plus johnson_scan."""
    return affine_large(seed) + johnson_scan(seed)


def blocks(seed):
    """Multiplicity blocks and certification: regular_blocks plus certify_matrix."""
    return regular_blocks(seed) + certify_matrix(seed)


def smoke(seed):
    """Toy inputs for the benchmark's own tests; one takes the matrix path."""
    degree, gens = _set_action(_symmetric_gens(5), 5, 2)
    n3, reg3 = _regular_action(_symmetric_gens(3), 3)
    return [
        _make("S5_on_pairs", seed, degree, gens, _johnson_dims(5, 2), True),
        _make("S3_regular", seed, n3, reg3, (1, 1, 2, 2)),
        _make("AGL1_7", seed, 7, _affine_gens(7), (1, 6)),
    ]


WORKLOADS = {
    f.__name__: f
    for f in (scan, blocks, affine_large, johnson_scan, regular_blocks, certify_matrix, smoke)
}
