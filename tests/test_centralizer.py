import re
import tracemalloc

import numpy as np
import pytest

from permsplit import (
    GeneratorSet,
    IntransitiveAction,
    InvariantViolation,
    Permutation,
    ResourceLimit,
    compute_orbitals,
    compute_structure_constants,
    orbit_with_tree,
)
from permsplit import centralizer
from permsplit.centralizer import (
    StructureConstants,
    _check_constants,
    _merge_cells,
    _stabilizer_cell_labels,
    order_basis,
)
from permsplit.perms import SchreierTree

from conftest import (
    CORPUS,
    affine,
    cyclic,
    petersen,
    primitive_root,
    regular_action,
    set_action,
    symmetric,
)
import golay
from oracles import (
    dense_algebra_commutes,
    is_edge0,
    pair_orbit_labels,
    structure_constants_dense,
)


class TestOrbitals:
    def test_s3(self):
        basis = compute_orbitals(symmetric(3))
        assert basis.rank == 2
        assert basis.lengths_in_order() == [1, 2]
        assert basis.symmetric[1:].tolist() == [True, True]

    def test_petersen(self):
        basis = compute_orbitals(petersen())
        assert basis.rank == 3
        assert basis.lengths_in_order() == [1, 3, 6]
        assert all(basis.symmetric[1:])

    def test_c4(self):
        basis = compute_orbitals(cyclic(4))
        assert basis.rank == 4
        assert basis.lengths_in_order() == [1, 1, 1, 1]
        assert basis.symmetric[1:].tolist() == [True, True, False, False]
        assert basis.transpose_of[1:].tolist() == [1, 2, 4, 3]

    def test_trivial_group_single_point(self):
        g = GeneratorSet(1, (Permutation.identity(1),))
        basis = compute_orbitals(g)
        assert basis.rank == 1
        assert basis.lengths_in_order() == [1]

    def test_intransitive_rejected(self):
        g = GeneratorSet(3, (Permutation.from_images([2, 1, 3]),))
        with pytest.raises(IntransitiveAction) as exc:
            compute_orbitals(g)
        assert exc.value.orbit == {1, 2}

    def test_rank_cap(self):
        with pytest.raises(ResourceLimit):
            compute_orbitals(cyclic(9), rank_cap=4)

    def test_rank_cap_checked_before_ordering(self, monkeypatch):
        """The cells already give the rank, so a high-rank action is refused
        without ordering its basis, which walks the tree once per cell."""
        calls = []

        def spy(*args):
            calls.append(args)
            return order_basis(*args)

        monkeypatch.setattr(centralizer, "order_basis", spy)
        with pytest.raises(ResourceLimit, match="^rank 2000 exceeds configured cap 64$"):
            compute_orbitals(cyclic(2000))
        assert calls == []

    def test_orbital_sizes(self):
        basis = compute_orbitals(petersen())
        assert [basis.orbital_size(r) for r in (1, 2, 3)] == [10, 30, 60]

    def test_matches_pair_orbit_oracle(self, corpus_member):
        name, gens = corpus_member
        if gens.degree > 60:
            pytest.skip("oracle is dense")
        basis = compute_orbitals(gens)
        lab = pair_orbit_labels(gens)
        # identical cell structure AND identical ordering
        for p0 in range(gens.degree):
            assert int(basis.sidx0[p0]) == int(lab[0, p0])

    def test_ordering_rule_on_pair_leaders(self):
        basis = compute_orbitals(cyclic(4))
        # leader of the asymmetric pair has the smaller minimal (j, 1) point
        r, rs = 3, int(basis.transpose_of[3])
        assert rs == 4
        assert basis.suborbit_representative[r] < basis.suborbit_representative[rs]


def _cells_of_the_full_scan(gens, tree):
    """The stabilizer's cells with every Schreier generator checked."""
    points = np.arange(gens.degree, dtype=np.int64)
    labels = points
    for p0 in range(gens.degree):
        for gi, s in enumerate(gens.generators):
            if is_edge0(tree, p0, gi):
                continue
            here = labels[tree.transport_to_base0(p0, points)]
            there = labels[tree.transport_to_base0(int(s.images0[p0]), s.images0)]
            if not np.array_equal(here, there):
                labels = _merge_cells(labels, here, there)
    return labels


BASIS_ARRAYS = (
    "sidx0",
    "suborbit_lengths",
    "suborbit_representative",
    "transpose_of",
    "symmetric",
)


class TestTwoCellStop:
    @pytest.mark.parametrize(
        "gens",
        [affine(1009, primitive_root(1009)), symmetric(40)],
        ids=["AGL1_1009", "S40"],
    )
    def test_two_transitive_scan_stops_at_two_cells(self, gens, monkeypatch):
        """A 2-transitive action is done once {base} and the rest are the
        cells; the scan reads a handful of transport rows and builds as
        few, not thousands, and gives the basis of the full scan."""
        _, tree = orbit_with_tree(gens, 1)
        looked_up, built = [], []
        real_row, real_undo = SchreierTree.row0, SchreierTree.undo0

        def lookup(self, x0, rows, capacity=None):
            looked_up.append(x0)
            return real_row(self, x0, rows, capacity)

        def undo(self, x0):
            built.append(x0)
            return real_undo(self, x0)

        with monkeypatch.context() as m:
            m.setattr(SchreierTree, "row0", lookup)
            m.setattr(SchreierTree, "undo0", undo)
            cells = _stabilizer_cell_labels(gens, tree)
        # each row read stands for one transport of the full scan, and each
        # row built for one array pass
        assert 1 <= len(looked_up) <= 8
        assert len(built) <= 8
        full_cells = _cells_of_the_full_scan(gens, tree)
        assert np.array_equal(cells, full_cells)
        basis = compute_orbitals(gens)
        full = order_basis(full_cells, tree, gens.degree)
        assert basis.rank == full.rank == 2
        for name in BASIS_ARRAYS:
            a, b = getattr(basis, name), getattr(full, name)
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)

    def test_rank_three_affine_subgroup_scans_in_full(self):
        """x -> x+1 and x -> g²x generate the index-2 subgroup of AGL(1,1999):
        the stabilizer of 0 multiplies by the nonzero squares, so it has the
        squares and the non-squares as suborbits, and −1 is a non-square, so
        transposition swaps them.  The scan never reaches two cells."""
        p = 1999
        g = primitive_root(p)
        basis = compute_orbitals(affine(p, g * g % p))
        assert basis.rank == 3
        assert basis.lengths_in_order() == [1, 999, 999]
        assert basis.transpose_of.tolist() == [0, 1, 3, 2]
        squares = sorted({x * x % p for x in range(1, p)})
        assert basis.suborbit_members(3) == [x + 1 for x in squares]


def _rank_three_affine():
    """The index-2 subgroup of AGL(1,1999): rank 3, see
    ``test_rank_three_affine_subgroup_scans_in_full``."""
    g = primitive_root(1999)
    return affine(1999, g * g % 1999)


TRANSPORT_CASES = [gens for _, gens in CORPUS] + [
    set_action(symmetric(12), 12, 6),
    golay.m22_770(),
    _rank_three_affine(),
]
TRANSPORT_IDS = [name for name, _ in CORPUS] + ["J12_6", "M22_770", "AGL1_1999_index2"]


def _scan_spy(monkeypatch):
    """Record every ``SchreierTree.row0`` call of the scans that follow: the
    row it returns, the store's entries after it, the capacity it was
    passed, and how many calls left the store smaller than they found it
    (each such call cleared it at least once)."""
    seen = {"rows": [], "sizes": [], "capacities": set(), "clears": 0}
    real = SchreierTree.row0

    def row0(self, x0, rows, capacity=None):
        before = len(rows)
        row = real(self, x0, rows, capacity)
        seen["rows"].append((x0, row))
        seen["sizes"].append(sum(r.size for r in rows.values()))
        seen["capacities"].add(capacity)
        seen["clears"] += len(rows) < before
        return row

    monkeypatch.setattr(SchreierTree, "row0", row0)
    return seen


class _StoreLog(dict):
    """A row store that logs its largest size and its clears."""

    most = clears = 0

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.most = max(self.most, len(self))

    def clear(self):
        self.clears += 1
        super().clear()


class TestRows:
    @pytest.mark.parametrize("rows_in_store", [None, 3], ids=["default", "three_rows"])
    @pytest.mark.parametrize("gens", TRANSPORT_CASES, ids=TRANSPORT_IDS)
    def test_labels_equal_the_full_scan(self, gens, rows_in_store, monkeypatch):
        """The rows give the labels of a scan that walks the tree for every
        transport; with room for three rows the store clears many times."""
        if rows_in_store is not None:
            monkeypatch.setattr(centralizer, "ROW_STORE_ENTRIES", rows_in_store * gens.degree)
        _, tree = orbit_with_tree(gens, 1)
        cells = _stabilizer_cell_labels(gens, tree)
        assert np.array_equal(cells, _cells_of_the_full_scan(gens, tree))

    @pytest.mark.parametrize("gens", TRANSPORT_CASES[-3:], ids=TRANSPORT_IDS[-3:])
    def test_rows_from_the_identity_are_the_transports(self, gens):
        """From the identity, every row is the transport; the store keeps to
        five rows and keeps the base row through every clear."""
        _, tree = orbit_with_tree(gens, 1)
        identity = np.arange(gens.degree, dtype=np.int16)
        rows = _StoreLog({0: identity})
        for x0 in range(0, gens.degree, 7):
            row = tree.row0(x0, rows, capacity=5)
            assert row.dtype == np.int16
            assert np.array_equal(row, tree.transport_to_base0(x0, identity))
            assert rows[x0] is row and rows[0] is identity
        assert rows.most == 5 and rows.clears > 0

    @pytest.mark.parametrize("gens", TRANSPORT_CASES[-3:], ids=TRANSPORT_IDS[-3:])
    def test_rows_from_the_base_labels_are_the_label_rows(self, gens):
        """From the base's suborbit labels, x's row holds the orbitals of the
        pairs (x, y): those of ``orbital_of_pair``."""
        basis = compute_orbitals(gens)
        points = np.arange(gens.degree)
        rows = {0: basis.sidx0}
        for x0 in range(0, gens.degree, 11):
            row = basis.tree.row0(x0, rows)
            assert row.dtype == np.int64
            assert np.array_equal(row, basis.sidx0[basis.tree.transport_to_base0(x0, points)])
            y0 = x0 * 5 % gens.degree
            assert row[y0] == basis.orbital_of_pair(x0 + 1, y0 + 1)

    def test_a_point_outside_the_orbit_is_refused(self):
        """parent0 is -1 outside the orbit; a walk that followed it would
        read the parent of the last point instead."""
        g = GeneratorSet(4, (Permutation.from_images([2, 3, 1, 4]),))
        _, tree = orbit_with_tree(g, 1)
        rows = {0: np.arange(4)}
        with pytest.raises(ValueError, match="^point 4 not in orbit of 1$"):
            tree.row0(3, rows)
        assert list(rows) == [0]

    @pytest.mark.parametrize(
        "p, dtype", [(1999, np.int16), (32771, np.int32)], ids=["int16", "int32"]
    )
    def test_scan_rows_are_the_transports_in_the_smallest_dtype(self, p, dtype, monkeypatch):
        """The scan's rows are int16 up to 2^15 points and int32 past."""
        gens = affine(p, primitive_root(p))
        _, tree = orbit_with_tree(gens, 1)
        seen = _scan_spy(monkeypatch)
        _stabilizer_cell_labels(gens, tree)
        assert seen["rows"]
        for x0, row in seen["rows"]:
            assert row.dtype == dtype
            assert np.array_equal(row, tree.transport_to_base0(x0, np.arange(p)))

    def test_store_keeps_to_its_budget(self, monkeypatch):
        """With room for four rows on 1999 points the store clears back to
        the base row many times and never holds more than its budget; the
        stage allocates nothing of the size of a BFS level of rows (up to
        698 here) or of N x N."""
        gens = _rank_three_affine()
        n = gens.degree
        budget = 4 * n
        monkeypatch.setattr(centralizer, "ROW_STORE_ENTRIES", budget)
        _, tree = orbit_with_tree(gens, 1)
        with monkeypatch.context() as m:
            seen = _scan_spy(m)
            cells = _stabilizer_cell_labels(gens, tree)
        assert int(cells.max()) + 1 == 3
        assert seen["capacities"] == {4}
        assert max(seen["sizes"]) <= budget
        assert seen["clears"] > 100

        tracemalloc.start()
        try:
            _stabilizer_cell_labels(gens, tree)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= budget * 2 + 32 * n * 8
        assert np.bincount(tree.depth).max() * n * 2 > 4 * peak

    def test_rows_built_with_a_four_row_store(self, monkeypatch):
        """A full store is cleared mid-path and a missing row is rebuilt from
        its nearest stored ancestor, one gather per row: on the index-2
        subgroup of AGL(1,1999) with room for four rows that is 23,276 rows."""
        gens = _rank_three_affine()
        monkeypatch.setattr(centralizer, "ROW_STORE_ENTRIES", 4 * gens.degree)
        _, tree = orbit_with_tree(gens, 1)
        built = []
        real = SchreierTree.undo0

        def undo(self, x0):
            built.append(x0)
            return real(self, x0)

        monkeypatch.setattr(SchreierTree, "undo0", undo)
        _stabilizer_cell_labels(gens, tree)
        assert len(built) == 23276


class TestStructureConstants:
    def test_s3_values(self):
        gens = symmetric(3)
        consts = compute_structure_constants(gens, compute_orbitals(gens))
        assert consts.c(2, 2, 1) == 2
        assert consts.c(2, 2, 2) == 1

    def test_petersen_strongly_regular(self):
        gens = petersen()
        consts = compute_structure_constants(gens, compute_orbitals(gens))
        assert consts.c(2, 2, 1) == 3
        assert consts.c(2, 2, 2) == 0
        assert consts.c(2, 2, 3) == 1

    def test_c4_circulant(self):
        gens = cyclic(4)
        basis = compute_orbitals(gens)
        consts = compute_structure_constants(gens, basis)
        shift = {1: 0, 2: 2, 3: 3, 4: 1}  # orbital index -> shift amount
        for p in range(1, 5):
            for q in range(1, 5):
                for r in range(1, 5):
                    want = 1 if (shift[p] + shift[q]) % 4 == shift[r] else 0
                    assert consts.c(p, q, r) == want

    def test_matches_dense_oracle(self, corpus_member):
        name, gens = corpus_member
        if gens.degree > 60:
            pytest.skip("oracle is dense")
        basis = compute_orbitals(gens)
        consts = compute_structure_constants(gens, basis)
        assert np.array_equal(consts.table, structure_constants_dense(gens))

    def test_row_sum_identity(self, corpus_member):
        name, gens = corpus_member
        basis = compute_orbitals(gens)
        consts = compute_structure_constants(gens, basis)
        n = basis.suborbit_lengths
        rank = basis.rank
        for p in range(1, rank + 1):
            for q in range(1, rank + 1):
                total = sum(
                    consts.c(p, q, r) * int(n[r]) for r in range(1, rank + 1)
                )
                assert total == int(n[p]) * int(n[q])

    def test_diagonal_rule(self, corpus_member):
        name, gens = corpus_member
        basis = compute_orbitals(gens)
        consts = compute_structure_constants(gens, basis)
        for p in range(1, basis.rank + 1):
            for q in range(1, basis.rank + 1):
                want = (
                    int(basis.suborbit_lengths[p])
                    if q == int(basis.transpose_of[p])
                    else 0
                )
                assert consts.c(p, q, 1) == want

    def test_transpose_consistency(self, corpus_member):
        name, gens = corpus_member
        basis = compute_orbitals(gens)
        consts = compute_structure_constants(gens, basis)
        t = basis.transpose_of
        rank = basis.rank
        for p in range(1, rank + 1):
            for q in range(1, rank + 1):
                for r in range(1, rank + 1):
                    assert consts.c(p, q, r) == consts.c(t[q], t[p], t[r])

    def test_commutativity_iff_dense_commutes(self, corpus_member):
        """C is (p,q)-symmetric exactly when the dense algebra commutes,
        i.e. when the action is multiplicity-free.  Regular actions of
        nonabelian groups are the honest counterexamples."""
        name, gens = corpus_member
        if gens.degree > 60:
            pytest.skip("oracle is dense")
        basis = compute_orbitals(gens)
        consts = compute_structure_constants(gens, basis)
        assert consts.is_commutative() == dense_algebra_commutes(gens)


class TestCheckConstants:
    """Each check of ``_check_constants`` refuses a copy of the S3-regular
    table tampered so that the checks before it still pass.  Every suborbit
    of a regular action has length 1, so moving one unit from C[p,q,r] to
    C[p,q,s] keeps the row sums."""

    @pytest.fixture(scope="class")
    def s3_regular(self):
        gens = regular_action(symmetric(3))
        basis = compute_orbitals(gens)
        return basis, compute_structure_constants(gens, basis)

    def refuse(self, basis, table, message):
        with pytest.raises(InvariantViolation, match=f"^{re.escape(message)}$"):
            _check_constants(basis, StructureConstants(basis.rank, table))

    def moved(self, table, p, q, r, s):
        table = table.copy()
        assert table[p, q, r] == 1 and table[p, q, s] == 0
        table[p, q, r], table[p, q, s] = 0, 1
        return table

    def test_untampered_table_passes(self, s3_regular):
        basis, consts = s3_regular
        assert basis.lengths_in_order() == [1] * 6
        _check_constants(basis, consts)

    def test_negative(self, s3_regular):
        basis, consts = s3_regular
        table = consts.table.copy()
        table[2, 3, 4] = -1
        self.refuse(basis, table, "negative structure constant")

    def test_row_sum(self, s3_regular):
        basis, consts = s3_regular
        table = consts.table.copy()
        table[2, 3, 4] += 1
        self.refuse(basis, table, "row-sum identity failed")

    def test_diagonal_rule_names_the_first_failing_entry(self, s3_regular):
        basis, consts = s3_regular
        table = consts.table
        for p in (5, 3):
            q = int(basis.transpose_of[p])
            s = next(s for s in range(2, 7) if table[p, q, s] == 0)
            table = self.moved(table, p, q, 1, s)
        q = int(basis.transpose_of[3])
        self.refuse(basis, table, f"diagonal rule failed at C[3,{q},1]")

    def test_identity(self, s3_regular):
        basis, consts = s3_regular
        self.refuse(
            basis, self.moved(consts.table, 1, 2, 2, 3), "A_1 is not the multiplicative identity"
        )

    def test_transpose_consistency(self, s3_regular):
        basis, consts = s3_regular
        r = next(r for r in range(2, 7) if consts.c(2, 3, r) == 1)
        s = next(s for s in range(2, 7) if consts.c(2, 3, s) == 0)
        self.refuse(basis, self.moved(consts.table, 2, 3, r, s), "transpose consistency failed")


def test_m22_770_suborbit_lengths_from_the_golay_code():
    """The Golay construction fixes the labelling, so the lengths hold by
    basis position."""
    basis = compute_orbitals(golay.m22_770())
    assert basis.rank == 9
    assert basis.lengths_in_order() == [1, 9, 96, 144, 72, 144, 16, 144, 144]


class TestGolayConstruction:
    """The generators that ``golay.m22_770`` induces generate all of M22, so
    the action has M22's orbitals and its centralizer algebra."""

    def test_code(self):
        words = golay.golay_code()
        weights = sorted({bin(w).count("1") for w in words})
        assert len(words) == 4096 and weights == [0, 8, 12, 16, 24]
        assert len(golay.hexads(words)) == 77

    def test_m24_generators_preserve_the_code(self):
        words = golay.golay_code()
        for g in golay.m24_generators():
            assert sorted(g) == list(range(24))
            assert {sum(1 << g[x] for x in range(24) if w >> x & 1) for w in words} == words

    def test_selected_generators_generate_the_two_point_stabilizer(self):
        """|<gens>| = |M24| and <gens> is 2-transitive, so the stabilizer of
        infinity and 0 has order |M24| / (24 * 23) = |M22|; the selected
        generators lie in it and generate a group of that order."""
        m24 = golay.m24_generators()
        assert golay.group_order(m24) == golay.M24_ORDER
        m23, orbit = golay.schreier_generators(m24, golay.INFINITY)
        assert orbit == 24
        assert golay.schreier_generators(m23, 0)[1] == 23
        assert golay.M24_ORDER // (24 * 23) == golay.M22_ORDER
        selected = golay.m22_generators()
        assert all(g[golay.INFINITY] == golay.INFINITY and g[0] == 0 for g in selected)
        assert golay.group_order(selected) == golay.M22_ORDER
