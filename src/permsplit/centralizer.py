"""Orbitals, the ordered centralizer-algebra basis, and structure constants.

The basis matrices A_1..A_R are 0/1 matrices supported on the orbitals of the
group acting diagonally on ordered pairs; they are never materialized here.
Everything is driven by the suborbit partition of the point-1 stabilizer and
by transport along the Schreier tree's parent links, so no N x N storage is
ever allocated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import IntransitiveAction, InvariantViolation, ResourceLimit
from .perms import GeneratorSet, SchreierTree, orbit_with_tree

__all__ = [
    "OrbitalBasis",
    "StructureConstants",
    "compute_orbitals",
    "order_basis",
    "compute_structure_constants",
]

DEFAULT_RANK_CAP = 64


@dataclass(frozen=True)
class OrbitalBasis:
    """The ordered basis A_1..A_R of the centralizer algebra.

    Arrays indexed by orbital are padded so that index r means orbital r
    (slot 0 unused).  ``sidx0[p]`` gives the orbital index of the pair
    (1, p+1); equivalently the suborbit of point p+1.
    """

    degree: int
    rank: int
    base: int
    sidx0: np.ndarray
    suborbit_lengths: np.ndarray        # [r] = n_r
    suborbit_representative: np.ndarray  # [r] = min j with (j,1) in orbital r
    transpose_of: np.ndarray            # [r] = r*
    symmetric: np.ndarray               # [r] = (r == r*)
    tree: SchreierTree = field(repr=False)

    def orbital_size(self, r):
        """|Delta_r| = N * n_r."""
        return self.degree * int(self.suborbit_lengths[r])

    def suborbit_members(self, r):
        """1-based points of the suborbit paired with the base, ascending."""
        return [int(p) + 1 for p in np.nonzero(self.sidx0 == r)[0]]

    def orbital_of_pair(self, x, y):
        """Orbital index of an arbitrary ordered pair (1-based points).

        Transports x to the base point along the tree's parent links and
        reads the suborbit index of the transported y; costs O(tree depth).
        """
        y0 = self.tree.transport_to_base0(x - 1, y - 1)
        return int(self.sidx0[y0])

    def orbital_row(self, x):
        """Orbital indices of the pairs (x, y) over all points y (0-based y).

        The vectorised twin of ``orbital_of_pair``: one array pass per tree
        edge between x and the base.
        """
        points = np.arange(self.degree, dtype=np.int64)
        return self.sidx0[self.tree.transport_to_base0(x - 1, points)]

    def lengths_in_order(self):
        return [int(self.suborbit_lengths[r]) for r in range(1, self.rank + 1)]


@dataclass(frozen=True)
class StructureConstants:
    """Integer tensor C with A_p A_q = sum_r C[p,q,r] A_r (1-based indices)."""

    rank: int
    table: np.ndarray   # shape (R+1, R+1, R+1), slot 0 unused

    def c(self, p, q, r):
        return int(self.table[p, q, r])

    def is_commutative(self):
        """True iff C is symmetric in (p, q); equivalent to the action being
        multiplicity-free."""
        return bool(np.array_equal(self.table, self.table.transpose(1, 0, 2)))


def _stabilizer_cell_labels(gens: GeneratorSet, tree: SchreierTree):
    """Partition of points into orbits of the point-base stabilizer.

    With t_x the transport x -> base and q = p^s, the Schreier generator
    u_p·s·u_q^{-1} keeps the partition exactly when labels[t_p(y)] equals
    labels[t_q(y^s)] for every y.  t_p is built once per point, one
    generator that respects the partition costs one O(N) check, and the
    N−1 tree edges, whose generators are the identity, cost nothing; so
    coarse partitions (low rank) converge quickly even for large N.
    """
    n = gens.degree
    points = np.arange(n, dtype=np.int64)
    labels = points
    for p0 in range(n):
        row_p = None
        for gi, s in enumerate(gens.generators):
            if tree.is_edge0(p0, gi):
                continue
            if row_p is None:
                row_p = tree.transport_to_base0(p0, points)
            q0 = int(s.images0[p0])
            here = labels[row_p]
            there = labels[tree.transport_to_base0(q0, s.images0)]
            if not np.array_equal(here, there):
                labels = _merge_cells(labels, here, there)
    return labels


def _merge_cells(labels, here, there):
    """Relabel cells so that the cells here[i] and there[i] are one cell.

    A label union on the cells: every linked pair hooks its two roots onto
    the smaller one, then pointer jumping flattens the forest, until every
    pair agrees.  Each root is its component's minimal cell, so the new
    labels 0, 1, ... number the components in order of their minimal cell.
    """
    parent = np.arange(int(labels.max()) + 1, dtype=np.int64)
    while True:
        ra, rb = parent[here], parent[there]
        if np.array_equal(ra, rb):
            break
        low = np.minimum(ra, rb)
        np.minimum.at(parent, ra, low)
        np.minimum.at(parent, rb, low)
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
    _, compact = np.unique(parent, return_inverse=True)
    return compact[labels]


def order_basis(cells, tree: SchreierTree, degree: int):
    """Apply the basis ordering rule to raw suborbit cells.

    ``cells`` maps each 1-based point to an arbitrary cell id.  Ordering:
    the diagonal orbital first; then all symmetric orbitals; then asymmetric
    orbitals in adjacent transpose pairs.  Both the symmetric block and the
    pair leaders are sorted by i_X = min{ i : (A)_{i,1} = 1 }, which is the
    minimal point of the transpose suborbit; within a pair the member with
    the smaller i_X leads.
    """
    members = {}
    for p0 in range(degree):
        c = int(cells[p0])
        members.setdefault(c, []).append(p0 + 1)
    base_cell = int(cells[tree.base - 1])

    # transpose pairing on raw cells: (j, 1) lies in the orbital of (1, j*)
    # where j* is the image of the base under the inverse word base -> j.
    transpose_cell = {}
    for c, pts in members.items():
        j = min(pts)
        jstar0 = tree.transport_to_base0(j - 1, tree.base - 1)
        transpose_cell[c] = int(cells[jstar0])
    for c, cstar in transpose_cell.items():
        if transpose_cell[cstar] != c:
            raise InvariantViolation("transpose pairing is not an involution")

    def i_x(c):
        # minimal point whose pair (point, base) lies in the orbital of cell c
        return min(members[transpose_cell[c]])

    symmetric_cells = sorted(
        (c for c in members if transpose_cell[c] == c and c != base_cell),
        key=i_x,
    )
    pairs = []
    done = set()
    for c in members:
        cstar = transpose_cell[c]
        if c == cstar or c in done or c == base_cell:
            continue
        done.update((c, cstar))
        leader = c if i_x(c) < i_x(cstar) else cstar
        pairs.append((leader, transpose_cell[leader]))
    pairs.sort(key=lambda pr: i_x(pr[0]))

    ordered = [base_cell] + symmetric_cells
    for a, b in pairs:
        ordered.extend((a, b))
    rank = len(ordered)
    cell_ids = {c: r for r, c in enumerate(ordered, start=1)}

    sidx0 = np.zeros(degree, dtype=np.int64)
    for p0 in range(degree):
        sidx0[p0] = cell_ids[int(cells[p0])]
    lengths = np.zeros(rank + 1, dtype=np.int64)
    reps = np.zeros(rank + 1, dtype=np.int64)
    transpose_of = np.zeros(rank + 1, dtype=np.int64)
    symmetric = np.zeros(rank + 1, dtype=bool)
    for r, c in enumerate(ordered, start=1):
        lengths[r] = len(members[c])
        reps[r] = i_x(c)
        transpose_of[r] = cell_ids[transpose_cell[c]]
        symmetric[r] = transpose_cell[c] == c
    for a in (sidx0, lengths, reps, transpose_of, symmetric):
        a.setflags(write=False)
    return OrbitalBasis(
        degree=degree,
        rank=rank,
        base=tree.base,
        sidx0=sidx0,
        suborbit_lengths=lengths,
        suborbit_representative=reps,
        transpose_of=transpose_of,
        symmetric=symmetric,
        tree=tree,
    )


def compute_orbitals(gens: GeneratorSet, rank_cap=DEFAULT_RANK_CAP):
    """Orbitals of a transitive action as an ordered OrbitalBasis."""
    orbit, tree = orbit_with_tree(gens, 1)
    if len(orbit) != gens.degree:
        raise IntransitiveAction(orbit)
    cells = _stabilizer_cell_labels(gens, tree)
    basis = order_basis(cells, tree, gens.degree)
    if rank_cap is not None and basis.rank > rank_cap:
        raise ResourceLimit(
            f"rank {basis.rank} exceeds configured cap {rank_cap}"
        )
    _check_basis(basis)
    return basis


def _check_basis(basis: OrbitalBasis):
    r1 = int(basis.sidx0[basis.base - 1])
    if r1 != 1 or basis.suborbit_lengths[1] != 1 or basis.suborbit_representative[1] != basis.base:
        raise InvariantViolation("diagonal orbital is not first")
    if int(basis.suborbit_lengths[1:].sum()) != basis.degree:
        raise InvariantViolation("suborbit lengths do not sum to the degree")
    for r in range(1, basis.rank + 1):
        rs = int(basis.transpose_of[r])
        if int(basis.transpose_of[rs]) != r:
            raise InvariantViolation("transpose map is not an involution")
        if basis.suborbit_lengths[r] != basis.suborbit_lengths[rs]:
            raise InvariantViolation("transpose-paired suborbits differ in length")


def _constants_slab(basis: OrbitalBasis, q_vec, r):
    """C[:, :, r] counted from the representative pair (j_r, 1)."""
    rank = basis.rank
    p_vec = basis.orbital_row(int(basis.suborbit_representative[r]))
    flat = np.bincount(p_vec * (rank + 1) + q_vec, minlength=(rank + 1) ** 2)
    return flat.reshape(rank + 1, rank + 1)


def compute_structure_constants(gens: GeneratorSet, basis: OrbitalBasis, threads=1):
    """The integer tensor C_pq^r, one representative pair per orbital.

    For each r the count runs over all N points k of the pair
    (j_r, k) in Delta_p, (k, 1) in Delta_q with (j_r, 1) a fixed
    representative of Delta_r; orbital membership of arbitrary pairs is read
    off by transport along the Schreier tree.  ``threads`` is accepted for
    the benchmark's calls only and selects nothing: the slabs are computed
    in one loop.
    """
    rank = basis.rank
    # orbital of (k, 1) is the transpose of the orbital of (1, k): constant in r
    q_vec = basis.transpose_of[basis.sidx0]
    table = np.zeros((rank + 1, rank + 1, rank + 1), dtype=np.int64)
    for r in range(1, rank + 1):
        table[:, :, r] = _constants_slab(basis, q_vec, r)
    table.setflags(write=False)
    consts = StructureConstants(rank=rank, table=table)
    _check_constants(basis, consts)
    return consts


def _check_constants(basis: OrbitalBasis, consts: StructureConstants):
    rank = basis.rank
    n = basis.suborbit_lengths
    c = consts.table
    if c.min() < 0:
        raise InvariantViolation("negative structure constant")
    # row-sum identity: sum_r C_pq^r n_r = n_p n_q
    sums = np.tensordot(c[1:, 1:, 1:], n[1:], axes=([2], [0]))
    expected = np.outer(n[1:], n[1:])
    if not np.array_equal(sums, expected):
        raise InvariantViolation("row-sum identity failed")
    # C_pq^1 = n_p when q = p*, else 0
    for p in range(1, rank + 1):
        for q in range(1, rank + 1):
            want = int(n[p]) if q == int(basis.transpose_of[p]) else 0
            if int(c[p, q, 1]) != want:
                raise InvariantViolation(
                    f"diagonal rule failed at C[{p},{q},1]"
                )
    # identity element: A_1 A_q = A_q
    for q in range(1, rank + 1):
        col = np.zeros(rank + 1, dtype=np.int64)
        col[q] = 1
        if not np.array_equal(c[1, q, :], col) or not np.array_equal(c[q, 1, :], col):
            raise InvariantViolation("A_1 is not the multiplicative identity")
    # transpose consistency: C_pq^r = C_{q* p*}^{r*}
    t = basis.transpose_of
    for p in range(1, rank + 1):
        for q in range(1, rank + 1):
            for r in range(1, rank + 1):
                if c[p, q, r] != c[t[q], t[p], t[r]]:
                    raise InvariantViolation("transpose consistency failed")
