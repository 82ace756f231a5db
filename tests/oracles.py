"""Independent brute-force oracles.

Everything here deliberately avoids the library's Schreier-tree machinery:
Schreier trees come from a point-by-point BFS, orbitals from a BFS over
ordered pairs, structure constants from dense 0/1 matrix products,
irreducible dimensions from numerically diagonalizing a random
group-averaged matrix.  Most scale only to toy degrees, which is the point.
"""

from fractions import Fraction

import numpy as np


def enumerate_group(gens, cap=5000):
    """All group elements as 0-based image tuples (BFS closure)."""

    def mul(p, q):
        return tuple(q[i] for i in p)

    gi = [tuple(g.images0) for g in gens.generators]
    ident = tuple(range(gens.degree))
    elems = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gi:
                h = mul(e, g)
                if h not in elems:
                    if len(elems) >= cap:
                        raise ValueError(f"group larger than cap {cap}")
                    elems.add(h)
                    nxt.append(h)
        frontier = nxt
    return sorted(elems)


def scalar_orbit_with_tree(gens, base):
    """Orbit of ``base`` and its BFS Schreier tree, one point at a time.

    The reference for ``orbit_with_tree``: each level's points are expanded
    in ascending order, generators in list order, forward image before
    inverse, and a point joins the tree at the first edge that reaches it.
    Returns the orbit (1-based) and the 0-based parent, generator index,
    direction and depth arrays.
    """
    n = gens.degree
    parent = np.full(n, -1, dtype=np.int64)
    gen_index = np.full(n, -1, dtype=np.int64)
    direction = np.zeros(n, dtype=np.int64)
    depth = np.full(n, -1, dtype=np.int64)
    b0 = base - 1
    depth[b0] = 0
    level = [b0]
    while level:
        nxt = []
        for p0 in sorted(level):
            for gi, g in enumerate(gens.generators):
                for d, arr in ((1, g.images0), (-1, g.inv_images0)):
                    q0 = int(arr[p0])
                    if depth[q0] < 0:
                        depth[q0] = depth[p0] + 1
                        parent[q0] = p0
                        gen_index[q0] = gi
                        direction[q0] = d
                        nxt.append(q0)
        level = nxt
    orbit = {int(i) + 1 for i in np.nonzero(depth >= 0)[0]}
    return orbit, parent, gen_index, direction, depth


def pair_orbit_labels(gens):
    """Orbital index of every ordered pair by BFS on pairs (dense, 1-based
    labels in the ordering convention: identity, symmetric ascending, then
    transpose pairs)."""
    n = gens.degree
    lab = -np.ones((n, n), dtype=np.int64)
    raw = []
    for i in range(n):
        for j in range(n):
            if lab[i, j] >= 0:
                continue
            cell = len(raw)
            stack = [(i, j)]
            lab[i, j] = cell
            members = []
            while stack:
                a, b = stack.pop()
                members.append((a, b))
                for g in gens.generators:
                    p = (int(g.images0[a]), int(g.images0[b]))
                    if lab[p] < 0:
                        lab[p] = cell
                        stack.append(p)
            raw.append(members)
    # ordering rule, computed straight from the pair labels
    base = 0
    ncells = len(raw)
    suborbit = {c: sorted(j for (i, j) in raw[c] if i == base) for c in range(ncells)}
    transpose = {}
    for c in range(ncells):
        i, j = raw[c][0]
        transpose[c] = int(lab[j, i])
    diag = int(lab[base, base])

    def i_x(c):
        return min(suborbit[transpose[c]]) + 1

    symmetric_cells = sorted(
        (c for c in range(ncells) if transpose[c] == c and c != diag), key=i_x
    )
    pairs = []
    seen = set()
    for c in range(ncells):
        cs = transpose[c]
        if c == cs or c in seen or c == diag:
            continue
        seen.update((c, cs))
        leader = c if i_x(c) < i_x(cs) else cs
        pairs.append(leader)
    pairs.sort(key=i_x)
    ordered = [diag] + symmetric_cells
    for leader in pairs:
        ordered.extend((leader, transpose[leader]))
    newlab = {c: r for r, c in enumerate(ordered, start=1)}
    out = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            out[i, j] = newlab[int(lab[i, j])]
    return out


def basis_matrices(gens):
    """Dense 0/1 orbital matrices in basis order, index r-1."""
    lab = pair_orbit_labels(gens)
    rank = int(lab.max())
    return [(lab == r).astype(np.int64) for r in range(1, rank + 1)], lab


def structure_constants_dense(gens):
    """C_pq^r by multiplying the dense basis matrices."""
    mats, lab = basis_matrices(gens)
    rank = len(mats)
    reps = []
    for r in range(1, rank + 1):
        i, j = np.argwhere(lab == r)[0]
        reps.append((int(i), int(j)))
    table = np.zeros((rank + 1, rank + 1, rank + 1), dtype=np.int64)
    for p in range(rank):
        for q in range(rank):
            prod = mats[p] @ mats[q]
            for r in range(rank):
                i, j = reps[r]
                table[p + 1, q + 1, r + 1] = prod[i, j]
    return table


def dense_algebra_commutes(gens):
    mats, _ = basis_matrices(gens)
    for p in range(len(mats)):
        for q in range(p):
            if not np.array_equal(mats[p] @ mats[q], mats[q] @ mats[p]):
                return False
    return True


def dimension_multiset(gens, cap=5000, seed=7, trials=2):
    """Irreducible dimensions (with multiplicity) of the permutation rep.

    Averages a random complex matrix over the group, which lands in the
    centralizer algebra; for a generic seed matrix the eigenvalue
    multiplicities are exactly the d_m, each appearing k_m times.  Two
    independent draws must agree.
    """
    elems = enumerate_group(gens, cap)
    n = gens.degree
    rng = np.random.default_rng(seed)
    results = []
    for _ in range(trials):
        d = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        m = np.zeros((n, n), dtype=np.complex128)
        for g in elems:
            a = np.asarray(g)
            m += d[np.ix_(a, a)]
        m /= len(elems)
        eig = np.linalg.eigvals(m)
        results.append(_cluster_multiplicities(eig))
    assert results[0] == results[-1], "oracle eigenvalue clustering unstable"
    return results[0]


def _cluster_multiplicities(eig, tol=1e-6):
    eig = sorted(eig, key=lambda z: (z.real, z.imag))
    groups = []
    for z in eig:
        if groups and abs(z - groups[-1][-1]) < tol:
            groups[-1].append(z)
        else:
            groups.append([z])
    return sorted(len(g) for g in groups)


def s3_character_projectors(gens):
    """Exact character projectors of the natural S3 action.

    Characters are derived from the action itself: trivial, parity, and
    fixed-points-minus-one; P = (d/|G|) sum_g chi(g^{-1}) rho(g).
    """
    elems = enumerate_group(gens)
    n = gens.degree
    assert len(elems) == 6 and n == 3

    def parity(t):
        sign = 1
        seen = [False] * len(t)
        for i in range(len(t)):
            if seen[i]:
                continue
            j, length = i, 0
            while not seen[j]:
                seen[j] = True
                j = t[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        return sign

    def fixes(t):
        return sum(1 for i, x in enumerate(t) if i == x)

    chars = {
        1: lambda t: 1,
        -1: parity,
        0: lambda t: fixes(t) - 1,
    }
    projs = []
    for key, chi in ((1, chars[1]), (-1, chars[-1]), (0, chars[0])):
        dim = 1 if key != 0 else 2
        p = np.full((n, n), Fraction(0), dtype=object)
        for t in elems:
            inv = tuple(sorted(range(n), key=lambda i: t[i]))
            val = Fraction(chi(inv), 1)
            for i in range(n):
                p[i][t[i]] += val
        p = p * Fraction(dim, len(elems))
        projs.append((dim, p))
    return projs


def petersen_eigenprojectors(adjacency):
    """Exact spectral projectors of a strongly regular graph from
    (A - mu I)(A - nu I) / ((theta - mu)(theta - nu))."""
    n = adjacency.shape[0]
    a = np.asarray(
        [[Fraction(int(adjacency[i, j])) for j in range(n)] for i in range(n)],
        dtype=object,
    )
    eye = np.asarray(
        [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)],
        dtype=object,
    )
    eigs = [Fraction(3), Fraction(1), Fraction(-2)]
    out = []
    for theta in eigs:
        mu, nu = [e for e in eigs if e != theta]
        p = (a - mu * eye) @ (a - nu * eye)
        p = p * (Fraction(1) / ((theta - mu) * (theta - nu)))
        trace = sum(p[i][i] for i in range(n))
        out.append((int(trace), p))
    return out
