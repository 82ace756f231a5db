"""Orbitals, the ordered centralizer-algebra basis, and structure constants.

The basis matrices A_1..A_R are 0/1 matrices supported on the orbitals of the
group acting diagonally on ordered pairs; they are never materialized here.
Everything is driven by the suborbit partition of the point-1 stabilizer and
by rows along the Schreier tree, each made from its parent's row by
``SchreierTree.row0``, so no N x N storage is ever allocated: the stabilizer
scan keeps its transport rows in a store of at most ``ROW_STORE_ENTRIES``
entries, and the structure constants make the label row of each orbital's
representative afresh.  The scan ends once its partition is proved to be the
suborbits: at two cells, or by colour refinement of one exact orbital graph
(``_suborbits_proved``, whose out-lists ``SchreierTree.carry0`` makes within
the same budget); otherwise it checks every Schreier generator.  The
structure constants are one R x R x R integer array over 0-based indices
(``StructureConstants.tensor``), the layout every product reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

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

    def lengths_in_order(self):
        return [int(self.suborbit_lengths[r]) for r in range(1, self.rank + 1)]


@dataclass(frozen=True)
class StructureConstants:
    """C with A_p A_q = sum_r C_pq^r A_r: ``tensor[p-1, q-1, r-1]``, contiguous
    so a product reshapes it as is, and ``c(p, q, r)`` by 1-based indices."""

    rank: int
    tensor: np.ndarray   # shape (R, R, R)

    def c(self, p, q, r):
        return int(self.tensor[p - 1, q - 1, r - 1])

    def is_commutative(self):
        """True iff C is symmetric in (p, q); equivalent to the action being
        multiplicity-free."""
        return bool(np.array_equal(self.tensor, self.tensor.transpose(1, 0, 2)))

    @cached_property
    def trace_form(self):
        """The integer matrix T[p, s] = sum_qr C_pq^r C_rs^q over 0-based
        indices, with tr(x -> e x e) = e^T T e (``verify.primitivity_traces``);
        built on first use, once per constants object."""
        return _trace_form(self.tensor)

    @cached_property
    def trace_bound(self):
        """sum_ps |T[p, s]|, the ``product_bound`` of ``trace_form``."""
        return int(np.abs(self.trace_form).sum())

    @cached_property
    def product_bound(self):
        """max_r sum_pq |C[p, q, r]|, for ``exactfield._contract_exact``."""
        return int(np.abs(self.tensor).sum(axis=(0, 1)).max())


# Entries that ``_trace_form`` gathers at once, as rows of C of R entries
# each: 2^18 int64 entries are 2 MB.
TRACE_FORM_ENTRIES = 1 << 18


def _trace_form(c):
    """T[p, s] = sum_qr c[p, q, r] c[r, s, q] from the nonzero c[p, q, r]:
    each adds c[p, q, r] c[r, :, q] to row p, so the cost is R per nonzero
    (R^3 for a regular action, whose C has R^2 nonzeros, against R^4 for
    the dense sum).  The rows are gathered ``TRACE_FORM_ENTRIES`` entries at
    a time and summed per p (``np.nonzero`` lists p in order)."""
    rank = c.shape[0]
    p, q, r = np.nonzero(c)
    form = np.zeros((rank, rank), dtype=np.int64)
    step = max(1, TRACE_FORM_ENTRIES // rank)
    for lo in range(0, len(p), step):
        ps, qs, rs = p[lo : lo + step], q[lo : lo + step], r[lo : lo + step]
        rows = c[rs, :, qs] * c[ps, qs, rs][:, None]
        starts = np.flatnonzero(np.diff(ps, prepend=-1))
        form[ps[starts]] += np.add.reduceat(rows, starts)
    return form


# Entries (points) the transport rows of the orbital stage may hold at once:
# 2^20 int16 entries are 2 MB, every row of an action on up to 1024 points.
# The out-lists of the certificate (``_suborbits_proved``) keep to it too.
ROW_STORE_ENTRIES = 1 << 20


def _stabilizer_cell_labels(gens: GeneratorSet, tree: SchreierTree):
    """Partition of points into orbits of the point-base stabilizer.

    With t_x the transport x -> base and q = p^s, the Schreier generator
    u_p·s·u_q^{-1} keeps the partition exactly when labels[t_p(y)] equals
    labels[t_q(y^s)] for every y.  Each row t_x is one gather from its
    parent's row (``SchreierTree.row0`` from the identity), kept in the
    smallest integer dtype that holds the degree, in a store of at most
    ``ROW_STORE_ENTRIES`` entries and never fewer than two rows: a full
    store is cleared back to the base row, and a missing row is rebuilt
    from its nearest stored ancestor.  A check thus costs O(N): one gather
    for t_q(y^s) and two reads of the labels.  The N−1 tree edges
    (``SchreierTree.edge_mask``), whose generators are the identity, cost
    nothing.  The points p are visited in stride order (``_stride_order``),
    since actions on lexicographically labelled sets merge late in label
    order.

    Every merge is forced by a stabilizer element, so the partition is
    always finer than or equal to the suborbits.  The scan stops as soon as
    it is proved equal to them:
    - at two cells: the stabilizer fixes the base, so {base} is always a
      cell, and {base} and the rest is the final partition (a 2-transitive
      action);
    - by the certificate ``_suborbits_proved``, tried at checks 16, 32,
      64, ... when no merge happened in the last half of the checks, and
      not tried again on a partition it failed to prove.
    Otherwise every Schreier generator is checked.
    """
    n = gens.degree
    b0 = tree.base - 1
    rows = {b0: np.arange(n, dtype=_point_dtype(n))}
    capacity = max(2, ROW_STORE_ENTRIES // n)
    edge = tree.edge_mask()
    labels = np.arange(n, dtype=np.int64)
    checks = last_merge = 0
    proof_at, unproved = 16, None
    for p0 in _stride_order(n):
        here = None
        for gi, s in enumerate(gens.generators):
            if edge[p0, gi]:
                continue
            if here is None:
                here = labels.take(tree.row0(p0, rows, capacity))
            q0 = int(s.images0[p0])
            # the base row is the identity, so t_base(y^s) is y^s
            there = labels.take(
                s.images0 if q0 == b0 else tree.row0(q0, rows, capacity).take(s.images0)
            )
            checks += 1
            # byte equality of two int64 arrays of one length
            if here.tobytes() != there.tobytes():
                labels = _merge_cells(labels, here, there)
                last_merge = checks
                if labels.max() == 1:
                    return labels
                here = labels.take(tree.row0(p0, rows, capacity))
            if checks == proof_at:
                proof_at *= 2
                cells = int(labels.max()) + 1
                if 2 * last_merge <= checks and cells != unproved:
                    if _suborbits_proved(gens, tree, labels, cells):
                        return labels
                    unproved = cells
    return labels


def _point_dtype(n):
    """The smallest integer dtype that holds the points 0..n-1 (and -1)."""
    return np.int16 if n <= 1 << 15 else np.int32


def _stride_order(n):
    """The points 0..n-1 as i·k mod n, k the first stride from ⌊0.618 n⌋
    up that is prime to n: consecutive points lie far apart."""
    k = max(1, int(0.618 * n))
    while math.gcd(k, n) != 1:
        k += 1
    return (i * k % n for i in range(n))


def _suborbits_proved(gens: GeneratorSet, tree: SchreierTree, labels, cells):
    """True when the partition ``labels`` of ``cells`` cells, finer than or
    equal to the suborbits O, is proved equal to them.

    Let S be its smallest cell other than {base} (the lowest label on a
    tie) and N(x) = S^{u_x} its images under the tree words
    (``SchreierTree.carry0``).  If N(x^s) = N(x)^s as sets for every point
    x and generator s, the rule x -> N(x) commutes with all of G, so S =
    N(base) is fixed by the stabilizer: a union of suborbits inside one,
    hence a suborbit, and x -> N(x) an orbital graph.  Colour refinement
    (1-WL on the out-lists) of that graph with the base individualised
    gives a partition F that the stabilizer, acting by automorphisms that
    fix the base, preserves cell by cell, so F is coarser than or equal to
    O.  F with as many cells as the partition forces partition = O (McKay
    and Piperno, *Practical graph isomorphism II*, 2014).

    Only attempted while the out-lists hold at most ``ROW_STORE_ENTRIES``
    entries; they are in the smallest dtype of the points.  A refinement
    round reads N x (|S| + 1) colours and adds a colour or ends the proof,
    so there are fewer than ``cells`` rounds, and as S is the smallest of
    cells − 1 cells they read fewer than 3N² entries (the full scan reads N
    per Schreier generator, of which there are N(K − 1) + 1).
    """
    n = gens.degree
    b0 = tree.base - 1
    sizes = np.bincount(labels)
    sizes[labels[b0]] = n + 1
    cell = int(np.argmin(sizes))
    if n * int(sizes[cell]) > ROW_STORE_ENTRIES:
        return False
    out = tree.carry0(np.flatnonzero(labels == cell).astype(_point_dtype(n)))
    out.sort(axis=1)
    for s in gens.generators:
        moved = s.images0.astype(out.dtype).take(out)
        moved.sort(axis=1)
        if not np.array_equal(out.take(s.images0, axis=0), moved):
            return False
    colours = np.zeros(n, dtype=np.int64)
    colours[b0] = 1
    found = 2
    while found < cells:
        # a point's new colour: its colour and its out-neighbours' colours
        # as a sorted row, |S| + 1 columns whatever the number of colours
        neighbours = colours.take(out)
        neighbours.sort(axis=1)
        colours = _row_classes(np.column_stack((colours, neighbours)))
        if int(colours.max()) + 1 == found:
            return False
        found = int(colours.max()) + 1
    return found == cells


def _row_classes(rows):
    """Class ids 0, 1, ... of the rows of a non-negative integer matrix, equal
    for equal rows: the columns are read as digits of one int64 key, which
    is compacted to the ids so far before it could overflow."""
    radix = int(rows.max()) + 1
    key, span = np.zeros(len(rows), dtype=np.int64), 1
    for column in rows.T:
        if span * radix >= 1 << 62:
            key = np.unique(key, return_inverse=True)[1]
            span = len(rows)
        key = key * radix + column
        span *= radix
    return np.unique(key, return_inverse=True)[1]


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

    ``cells[p0]`` is an arbitrary cell id of the 0-based point p0.  Ordering:
    the diagonal orbital first; then all symmetric orbitals; then asymmetric
    orbitals in adjacent transpose pairs.  Both the symmetric block and the
    pair leaders are sorted by i_X = min{ i : (A)_{i,1} = 1 }, which is the
    minimal point of the transpose suborbit; within a pair the member with
    the smaller i_X leads.  Cells are compacted with one ``np.unique``, whose
    first occurrences are their minimal points; the only loop is one tree
    walk per cell.
    """
    _, first, compact = np.unique(np.asarray(cells), return_index=True, return_inverse=True)
    b0 = tree.base - 1
    base_cell = int(compact[b0])

    # transpose pairing on cells: (j, 1) lies in the orbital of (1, j*)
    # where j* is the image of the base under the inverse word base -> j.
    transpose_cell = compact[[tree.transport_to_base0(int(j0), b0) for j0 in first]]
    if not np.array_equal(transpose_cell[transpose_cell], np.arange(len(first))):
        raise InvariantViolation("transpose pairing is not an involution")
    # i_X of each cell, 0-based: the minimal point of its transpose cell
    i_x = first[transpose_cell]

    cell_range = range(len(first))
    symmetric_cells = sorted(
        (c for c in cell_range if transpose_cell[c] == c and c != base_cell),
        key=lambda c: i_x[c],
    )
    leaders = sorted(
        (c for c in cell_range if i_x[c] < i_x[transpose_cell[c]]),
        key=lambda c: i_x[c],
    )
    ordered = [base_cell] + symmetric_cells
    for c in leaders:
        ordered.extend((c, int(transpose_cell[c])))
    ordered = np.array(ordered, dtype=np.int64)
    rank = len(ordered)
    rank_of = np.empty(rank, dtype=np.int64)
    rank_of[ordered] = np.arange(1, rank + 1)

    # slot 0 of the per-orbital arrays is unused
    sidx0 = rank_of[compact]
    lengths = np.concatenate(([0], np.bincount(compact)[ordered]))
    reps = np.concatenate(([0], i_x[ordered] + 1))
    transpose_of = np.concatenate(([0], rank_of[transpose_cell[ordered]]))
    symmetric = np.concatenate(([False], transpose_cell[ordered] == ordered))
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
    # checked before ordering, which walks the tree once per cell; the cell
    # labels are 0, 1, ... (see ``_merge_cells``)
    rank = int(cells.max()) + 1
    if rank_cap is not None and rank > rank_cap:
        raise ResourceLimit(f"rank {rank} exceeds configured cap {rank_cap}")
    basis = order_basis(cells, tree, gens.degree)
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


def _constants_slab(basis: OrbitalBasis, q0, r):
    """C[:, :, r] counted from the representative pair (j_r, 1), whose label
    row (the orbitals of the pairs (j_r, k)) is made from the base's labels
    in a store of two rows, so a deep representative holds no more."""
    rank = basis.rank
    rows = {basis.base - 1: basis.sidx0}
    p_vec = basis.tree.row0(int(basis.suborbit_representative[r]) - 1, rows, capacity=2)
    flat = np.bincount((p_vec - 1) * rank + q0, minlength=rank * rank)
    return flat.reshape(rank, rank)


def compute_structure_constants(gens: GeneratorSet, basis: OrbitalBasis, threads=1):
    """The integer tensor C_pq^r, one representative pair per orbital.

    For each r the count runs over all N points k of the pair
    (j_r, k) in Delta_p, (k, 1) in Delta_q with (j_r, 1) a fixed
    representative of Delta_r; the orbitals of the pairs (j_r, k) are one
    label row along the Schreier tree (``SchreierTree.row0``).  ``threads``
    is accepted for the benchmark's calls only and selects nothing: the
    slabs are computed in one loop.
    """
    rank = basis.rank
    # 0-based orbital of (k, 1), the transpose of that of (1, k): constant in r
    q0 = basis.transpose_of[basis.sidx0] - 1
    tensor = np.zeros((rank, rank, rank), dtype=np.int64)
    for r in range(1, rank + 1):
        tensor[:, :, r - 1] = _constants_slab(basis, q0, r)
    tensor.setflags(write=False)
    consts = StructureConstants(rank=rank, tensor=tensor)
    _check_constants(basis, consts)
    return consts


def _check_constants(basis: OrbitalBasis, consts: StructureConstants):
    rank = basis.rank
    # suborbit lengths and transposes, 0-based like the tensor
    n, t = basis.suborbit_lengths[1:], basis.transpose_of[1:] - 1
    c = consts.tensor
    if c.min() < 0:
        raise InvariantViolation("negative structure constant")
    # row-sum identity: sum_r C_pq^r n_r = n_p n_q
    if not np.array_equal(np.tensordot(c, n, axes=([2], [0])), np.outer(n, n)):
        raise InvariantViolation("row-sum identity failed")
    # C_pq^1 = n_p when q = p*, else 0
    want = np.zeros((rank, rank), dtype=c.dtype)
    want[np.arange(rank), t] = n
    bad = np.argwhere(c[:, :, 0] != want)
    if len(bad):
        p, q = bad[0] + 1
        raise InvariantViolation(f"diagonal rule failed at C[{p},{q},1]")
    # identity element: A_1 A_q = A_q = A_q A_1
    eye = np.eye(rank, dtype=c.dtype)
    if not (np.array_equal(c[0], eye) and np.array_equal(c[:, 0], eye)):
        raise InvariantViolation("A_1 is not the multiplicative identity")
    # transpose consistency: C_pq^r = C_{q* p*}^{r*}
    if not np.array_equal(c, c[np.ix_(t, t, t)].transpose(1, 0, 2)):
        raise InvariantViolation("transpose consistency failed")
