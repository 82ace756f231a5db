"""Independent brute-force oracles.

Everything here deliberately avoids the library's Schreier-tree machinery:
Schreier trees come from a point-by-point BFS, tree edges are read off a
tree's arrays one pair at a time, orbitals from a BFS over ordered pairs,
structure constants from dense 0/1 matrix products, irreducible dimensions
from numerically diagonalizing a random group-averaged matrix.  Most scale
only to toy degrees, which is the point.
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


def is_edge0(tree, p0, gen_index):
    """True when p -> p^s (0-based p, s the generator ``gen_index``) is the
    tree edge of p^s, or the reverse of the tree edge of p: the scalar
    reference for ``SchreierTree.edge_mask``, read off the tree's arrays."""
    q0 = int(tree.gens.generators[gen_index].images0[p0])
    if tree.parent0[q0] == p0 and tree.direction[q0] > 0:
        return bool(tree.gen_index[q0] == gen_index)
    return bool(
        tree.parent0[p0] == q0 and tree.direction[p0] < 0 and tree.gen_index[p0] == gen_index
    )


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
    """C_pq^r by multiplying the dense basis matrices, at [p-1, q-1, r-1]."""
    mats, lab = basis_matrices(gens)
    rank = len(mats)
    reps = []
    for r in range(1, rank + 1):
        i, j = np.argwhere(lab == r)[0]
        reps.append((int(i), int(j)))
    tensor = np.zeros((rank, rank, rank), dtype=np.int64)
    for p in range(rank):
        for q in range(rank):
            prod = mats[p] @ mats[q]
            for r in range(rank):
                i, j = reps[r]
                tensor[p, q, r] = prod[i, j]
    return tensor


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


def _loop_ring(rank):
    from permsplit.polynomial import Ring

    return Ring(tuple(f"x{i}" for i in range(1, rank + 1)), "degrevlex")


def idempotency_system_by_definition(consts):
    """E_r = sum_pq C_pq^r x_p x_q - x_r over x_1..x_R, for r = 1..R, read
    entry by entry off the tensor."""
    from permsplit.polynomial import Poly

    rank = consts.rank
    ring = _loop_ring(rank)
    polys = []
    for r in range(1, rank + 1):
        terms = {}
        for p in range(1, rank + 1):
            for q in range(1, rank + 1):
                cpq = consts.c(p, q, r)
                if not cpq:
                    continue
                mono = [0] * rank
                mono[p - 1] += 1
                mono[q - 1] += 1
                mono = tuple(mono)
                terms[mono] = terms.get(mono, 0) + cpq
        lin = tuple(1 if i == r - 1 else 0 for i in range(rank))
        terms[lin] = terms.get(lin, 0) - 1
        polys.append(Poly(ring, {m: Fraction(c) for m, c in terms.items() if c}))
    return polys


def orthogonality_forms_by_definition(consts, coeffs, side):
    """The nonzero linear forms of B·X = 0 (side="left") or X·B = 0
    (side="right") for the exact coefficient vector b of B: the coefficient
    of x_q in form r is sum_p b_p C_pq^r, or sum_p b_p C_qp^r."""
    from permsplit.exactfield import FieldElement
    from permsplit.polynomial import Poly

    rank = consts.rank
    ring = _loop_ring(rank)
    forms = []
    for r in range(1, rank + 1):
        terms = {}
        for q in range(1, rank + 1):
            total = FieldElement.zero()
            for p in range(1, rank + 1):
                c = consts.c(p, q, r) if side == "left" else consts.c(q, p, r)
                if c:
                    total = total + coeffs[p - 1] * c
            if not total.is_zero():
                terms[tuple(int(i == q - 1) for i in range(rank))] = total
        if terms:
            forms.append(Poly(ring, terms))
    return forms


def algebra_product_by_definition(consts, a, b, precision=None):
    """Coefficients of (sum a_p A_p)(sum b_q A_q), one product a_p b_q per
    pair of the supports and one structure constant at a time: the triple
    loop the library's contraction kernel replaced, kept as its reference."""
    import mpmath

    from permsplit.exactfield import FieldElement
    from permsplit.solver import DEFAULT_PRECISION
    from permsplit.verify import _lifted, _support

    precision = DEFAULT_PRECISION if precision is None else precision
    rank = consts.rank
    with mpmath.workprec(precision + 40):
        lifted = _lifted((*a, *b), precision)
        la, lb = lifted[: len(a)], lifted[len(a) :]
        out = [FieldElement.zero()] * rank
        support_b = _support(b)
        for p in _support(a):
            for q in support_b:
                ab = la[p] * lb[q]
                col = consts.tensor[p, q]
                for r in range(rank):
                    c = int(col[r])
                    if c:
                        out[r] = out[r] + ab * c
        return out


def row_reduce_by_definition(matrix, most=None):
    """Gauss-Jordan elimination of an integer matrix over the rationals, one
    row at a time and stopped at ``most`` pivots: {pivot column: row of
    Fractions}, 1 at its pivot and 0 in every other pivot column."""
    pivots = {}
    for row in dict.fromkeys(tuple(int(v) for v in row) for row in matrix if any(row)):
        v = [Fraction(x) for x in row]
        for col, prow in pivots.items():
            if v[col]:
                v = [a - v[col] * b for a, b in zip(v, prow)]
        lead = next((i for i, a in enumerate(v) if a), None)
        if lead is None:
            continue
        v = [a / v[lead] for a in v]
        for col, prow in pivots.items():
            if prow[lead]:
                pivots[col] = [a - prow[lead] * b for a, b in zip(prow, v)]
        pivots[lead] = v
        if len(pivots) == most:
            break
    return pivots


def centre_basis_by_definition(consts):
    """The reduced basis of the centre, as ``splitter._centre_basis`` returns
    it: the rational null space of x -> (x A_r - A_r x)_r, with one vector
    per free column of the reduced row echelon form, by Fraction Gauss-Jordan
    elimination of the commutator matrix (the elimination the library's
    fraction-free one replaced)."""
    from permsplit.exactfield import FieldElement

    rank = consts.rank
    c = consts.tensor
    matrix = (c - c.transpose(1, 0, 2)).transpose(1, 2, 0).reshape(rank * rank, rank)
    pivots = row_reduce_by_definition(matrix, rank - 1)
    basis = []
    for free in (j for j in range(rank) if j not in pivots):
        z = [Fraction(j == free) for j in range(rank)]
        for col, prow in pivots.items():
            z[col] = -prow[free]
        basis.append([FieldElement.from_rational(x) for x in z])
    return basis


def rational_roots_by_divisor_search(coeffs):
    """``solver._rational_roots`` as it was before its integer screen: every
    divisor candidate p/q, in ascending order, is evaluated on the full
    polynomial (lowest degree first) by Horner's rule over the tower and
    deflated while it is a root.  Returns (roots, residual)."""
    import math

    from permsplit.exactfield import FieldElement
    from permsplit.solver import _deflate, _divisors, _poly_eval

    roots = []
    work = list(coeffs)
    while len(work) > 1 and work[0].is_zero():
        roots.append(FieldElement.zero())
        work = work[1:]
    if len(work) <= 1:
        return roots, work
    key = work[-1].radicands()[0]
    comp = [c.terms.get(key, Fraction(0)) for c in work]
    den_lcm = math.lcm(*(q.denominator for q in comp))
    ints = [int(q * den_lcm) for q in comp]
    low = 0
    while ints[low] == 0:
        low += 1
    d0 = _divisors(ints[low])
    dn = _divisors(ints[-1])
    if d0 is None or dn is None:
        return roots, work
    candidates = set()
    for p in d0:
        for q in dn:
            candidates.add(Fraction(p, q))
            candidates.add(Fraction(-p, q))
    for cand in sorted(candidates):
        fe = FieldElement.from_rational(cand)
        while len(work) > 1 and _poly_eval(work, fe).is_zero():
            roots.append(fe)
            work = _deflate(work, fe)
    return roots, work


def eager_sort_key(point):
    """``SolutionPoint.sort_key`` as it was before it became lazy: every
    coordinate lifted to a 64-bit ball up front, keyed by (Re, Im) of the
    midpoint."""
    import mpmath

    key = []
    for i in range(len(point.values)):
        b = point.coordinate_ball(i, 64)
        key.append((mpmath.mpf(b.mid.real), mpmath.mpf(b.mid.imag)))
    return key
