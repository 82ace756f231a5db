import dataclasses
import hashlib
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    _suborbits_proved,
    order_basis,
)
from permsplit.perms import SchreierTree

from conftest import (
    CORPUS,
    affine,
    alternating,
    cyclic,
    dihedral,
    frobenius20,
    frobenius21,
    orbit_action,
    petersen,
    primitive_root,
    regular_action,
    set_action,
    symmetric,
    wreath_s3_c2,
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
        assert basis.symmetric.tolist() == [True, True]

    def test_petersen(self):
        basis = compute_orbitals(petersen())
        assert basis.rank == 3
        assert basis.lengths_in_order() == [1, 3, 6]
        assert all(basis.symmetric)

    def test_c4(self):
        basis = compute_orbitals(cyclic(4))
        assert basis.rank == 4
        assert basis.lengths_in_order() == [1, 1, 1, 1]
        assert basis.symmetric.tolist() == [True, True, False, False]
        assert basis.transpose_of.tolist() == [0, 1, 3, 2]

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
        basis = compute_orbitals(gens)
        lab = pair_orbit_labels(gens)
        # identical cell structure AND identical ordering
        for p0 in range(gens.degree):
            assert int(basis.sidx0[p0]) + 1 == int(lab[0, p0])

    def test_ordering_rule_on_pair_leaders(self):
        basis = compute_orbitals(cyclic(4))
        # leader of the asymmetric pair has the smaller minimal (j, 1) point
        r, rs = 2, int(basis.transpose_of[2])
        assert rs == 3
        assert basis.suborbit_representative[r] < basis.suborbit_representative[rs]


# small groups whose actions on tuples of point subsets the random test draws
RANDOM_ACTION_GROUPS = {
    "S4": symmetric(4),
    "S5": symmetric(5),
    "A5": alternating(5),
    "A6": alternating(6),
    "D6": dihedral(6),
    "D8": dihedral(8),
    "C9": cyclic(9),
    "F20": frobenius20(),
    "F21": frobenius21(),
    "S3wrC2": wreath_s3_c2(),
}


def _on_subset_tuples(g, x):
    return tuple(frozenset(g.apply(a) for a in part) for part in x)


@st.composite
def random_actions(draw):
    """A transitive action: a group of ``RANDOM_ACTION_GROUPS`` on the orbit
    of a tuple of 1-3 random proper nonempty point subsets, so of at least
    two points, cut to its longest prefix whose orbit has at most 40 points
    (one subset always has), with the points relabelled at random."""
    gens = RANDOM_ACTION_GROUPS[draw(st.sampled_from(sorted(RANDOM_ACTION_GROUPS)))]
    subset = st.frozensets(st.integers(1, gens.degree), min_size=1, max_size=gens.degree - 1)
    parts = draw(st.lists(subset, min_size=1, max_size=3))
    action = next(
        action
        for k in range(len(parts), 0, -1)
        if (action := orbit_action(gens, tuple(parts[:k]), _on_subset_tuples)).degree <= 40
    )
    label = np.array(draw(st.permutations(range(action.degree))))
    images = np.empty(action.degree, dtype=np.int64)
    relabelled = []
    for g in action.generators:
        images[label] = label[g.images0]
        relabelled.append(Permutation(images.copy()))
    return GeneratorSet(action.degree, tuple(relabelled))


@given(random_actions())
@settings(max_examples=800, deadline=None)
def test_random_actions_match_the_dense_oracles(gens):
    """The orbital stage on random transitive actions of up to 40 points
    against the BFS over ordered pairs and the dense matrix products: the
    suborbit labels in basis order, the lengths, transposes and
    representatives read off the pair labels, and the structure constants.
    Time budget: 800 actions, 5-6 s on a 2-core host."""
    basis = compute_orbitals(gens)
    lab = pair_orbit_labels(gens)
    assert np.array_equal(basis.sidx0, lab[0] - 1)
    into_base = lab[:, 0] - 1  # orbital of (j, base) for each point j
    first = [int(np.flatnonzero(into_base == r)[0]) for r in range(basis.rank)]
    assert np.array_equal(basis.suborbit_lengths, np.bincount(lab[0] - 1))
    assert np.array_equal(basis.transpose_of, basis.sidx0[first])
    assert np.array_equal(basis.suborbit_representative, np.array(first) + 1)
    consts = compute_structure_constants(gens, basis)
    assert np.array_equal(consts.tensor, structure_constants_dense(gens))


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
        tree = orbit_with_tree(gens, 1)
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
        assert basis.transpose_of.tolist() == [0, 2, 1]
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
        tree = orbit_with_tree(gens, 1)
        cells = _stabilizer_cell_labels(gens, tree)
        assert np.array_equal(cells, _cells_of_the_full_scan(gens, tree))

    @pytest.mark.parametrize("gens", TRANSPORT_CASES[-3:], ids=TRANSPORT_IDS[-3:])
    def test_rows_from_the_identity_are_the_transports(self, gens):
        """From the identity, every row is the transport; the store keeps to
        five rows and keeps the base row through every clear."""
        tree = orbit_with_tree(gens, 1)
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
            assert row[y0] + 1 == basis.orbital_of_pair(x0 + 1, y0 + 1)

    def test_a_point_outside_the_orbit_is_refused(self):
        """parent0 is -1 outside the orbit; a walk that followed it would
        read the parent of the last point instead."""
        g = GeneratorSet(4, (Permutation.from_images([2, 3, 1, 4]),))
        tree = orbit_with_tree(g, 1)
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
        tree = orbit_with_tree(gens, 1)
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
        tree = orbit_with_tree(gens, 1)
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
        subgroup of AGL(1,1999) with room for four rows, visiting the points
        in stride order, that is 26,307 rows."""
        gens = _rank_three_affine()
        monkeypatch.setattr(centralizer, "ROW_STORE_ENTRIES", 4 * gens.degree)
        tree = orbit_with_tree(gens, 1)
        built = []
        real = SchreierTree.undo0

        def undo(self, x0):
            built.append(x0)
            return real(self, x0)

        monkeypatch.setattr(SchreierTree, "undo0", undo)
        _stabilizer_cell_labels(gens, tree)
        assert len(built) == 26307


def _partition_sha256(gens):
    """sha256 over the basis's suborbit labels, lengths, transposes and
    representatives and the structure constants, as int64 bytes.  The pins
    were taken when the basis arrays numbered the orbitals 1..R and kept an
    unused slot 0, so the arrays are hashed in that layout."""
    basis = compute_orbitals(gens, rank_cap=None)
    consts = compute_structure_constants(gens, basis)
    digest = hashlib.sha256()
    for a in (
        basis.sidx0 + 1,
        np.concatenate(([0], basis.suborbit_lengths)),
        np.concatenate(([0], basis.transpose_of + 1)),
        np.concatenate(([0], basis.suborbit_representative)),
        consts.tensor,
    ):
        digest.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
    return digest.hexdigest()


# ``_partition_sha256`` of every corpus action and of larger actions, taken
# when the scan checked every Schreier generator in label order: a scan that
# stops early, or visits the points in another order, must give them all.
PARTITION_SHA256 = {
    "C4_regular": "5b62ce3ff86760dc443748d25de7477a7c04b009d228178a70838e9285fe1a76",
    "C5_natural": "885dd7a08e4b4435341d4936356e42baad1086ff22909e60daaa6187e1acfe86",
    "C6_natural": "3c1944ad2e9053b500af51b5d21083a7693ba24bb3c9121740f199b85f597054",
    "C7_natural": "3af9e2e7d3fe97c6552347873b85660b01714df3972f9a075b89b62c463770d6",
    "C8_natural": "1e7efa3e543a5aab3cca36a0e1bcb474f9e37bb76f3bb47a281f6dbeeb5f13fe",
    "C9_natural": "d56799ab8d20b70d48f0975ad35c68f7cbd65534a6e7768b907a369d46ec0f13",
    "D4_natural": "336c3054628cf9dd349cef696a13f4181ba09e0bdce38965d42e98ffe0d3c3a9",
    "D5_natural": "a2275781918ba9e3b34b853f3b9dad236e493c9e5627814c751f987f2753a0e8",
    "D6_natural": "b90f29ecb5fac8102a72f35beb0f45a720d39abd09bd0b178746b304e74b802b",
    "D7_natural": "4d3044b3b2189eb7cb3331634bb4bc2af1bcdbdc34ed2d9a4cba33726e9b3fe0",
    "S3_natural": "8ebd4dd769ea564816ff54d28b236cf83d1a3208ce91c39d3ad7f09834f52369",
    "S4_natural": "d8b9da1462a97b324636be3861cee5f4ee661ecbf3d244ac866ad12fe8b0e0eb",
    "A4_natural": "d8b9da1462a97b324636be3861cee5f4ee661ecbf3d244ac866ad12fe8b0e0eb",
    "A5_natural": "4aa2113a633d939097dc5a9c542831a1cbf23d8a487417242a9519e8be9e9534",
    "S4_pairs": "d4c1e4f0785761728c2df4e253a8274906eb2a2b684e3e4ae67aeefaff34e5cd",
    "A4_pairs": "6718b483dadcb1c52ff2c74a418b033bc995a1f5437281f4f17dcc432c514194",
    "A5_petersen": "103e9642a46378c5065bf08c65d542fc1325c0c33395189c09f42b5425a26367",
    "S3_regular": "09411f0bcda33f7aaaf5890dd853601c2982ed1a59b4d1e136e72d8bd98d4a4e",
    "D4_regular": "34a0b509da95d39a174908c99a66d7fc36e6c531a647367911315561ef964599",
    "Q8_regular": "c07d39deb2dfed7995b263152d441947482b27ac5825686dc47f046b429ddfcd",
    "V4_regular": "278be49a16cd033694634809f50852dbfe36c84462e7e4eac83ff36215e4563d",
    "F21_natural": "b3857a90ddf0362e8e7ec04d793173d7031e7066abcf3a448ec9e9a98375599a",
    "C2wrC3": "775992c7b880006d921dcb7344d9acf73c9f40cf94ef81c19822048fe3b51018",
    "S3wrC2": "d35136cb1eef70b7d325993f043660f7ac204f3b77090168d3d80d92549a6033",
    "C3wrC2": "c4e6ad7ef9183f2e65d1848701a5dd0b120a71e1ab4ea76a1b14c171a270aeff",
    "J16_3": "04992e380d14caa51e15cfcefc8ac4682f8df2acfdc51241b81581585bb7e580",
    "S12_on_5sets": "dca72b4e01fd99acde1452c944a1b1920aab04d30e7142b1e71a60f82e13c660",
    "M22_770": "4b14837d75111d512f301ed97680b03fac87113bb4a1eca6a43da25abecd6bed",
    "AGL1_1999_index2": "22f751b4a604b116cd737e891d1bd4e2176e575747c6a46412ad9b0a3edc9309",
    "J20_4": "1f903eb64fef4e346fcd1cd92e34390ac613e6d26fe08fd2a49f103ab159a5ab",
    "J24_4": "9645d9dc193878caf9be860fc4b06a07cc20a7151fe02bf428d0b2db32c5de8e",
    "M24_on_4sets": "7c17813015a7695bc5d50e5e5c74bf92915b57f260f19567ac881149b6fe74c5",
}

LARGER_ACTIONS = {
    "J16_3": lambda: set_action(symmetric(16), 16, 3),
    "S12_on_5sets": lambda: set_action(symmetric(12), 12, 5),
    "M22_770": golay.m22_770,
    "AGL1_1999_index2": _rank_three_affine,
    "J20_4": lambda: set_action(symmetric(20), 20, 4),
    "J24_4": lambda: set_action(symmetric(24), 24, 4),
}


@pytest.mark.parametrize("name", [name for name, _ in CORPUS] + list(LARGER_ACTIONS))
def test_partition_is_pinned(name):
    gens = dict(CORPUS)[name] if name in dict(CORPUS) else LARGER_ACTIONS[name]()
    assert _partition_sha256(gens) == PARTITION_SHA256[name]


def _split_one_cell(labels, cell, part):
    """``labels`` with the points of ``cell`` at the positions ``part`` of
    its member list moved to a new last cell."""
    labels = labels.copy()
    labels[np.flatnonzero(labels == cell)[part]] = labels.max() + 1
    return labels


class TestCertificate:
    """``_suborbits_proved`` accepts the suborbit partition and refuses a
    partition strictly finer than it, whichever of its cells is the
    smallest."""

    @pytest.mark.parametrize("gens", [petersen(), set_action(symmetric(16), 16, 3)], ids=["petersen", "J16_3"])
    def test_the_suborbits_are_proved(self, gens):
        basis = compute_orbitals(gens)
        assert _suborbits_proved(gens, basis.tree, basis.sidx0, basis.rank)

    def test_splitting_one_suborbit_into_two_cells_is_refused(self):
        """J(16,3) has suborbits of 1, 39, 234 and 286 points.  With the 286
        halved, the smallest other cell is still the suborbit of 39, whose
        out-lists pass the invariance check; refinement then finds at most
        the 4 suborbits, fewer than the 5 cells."""
        gens = set_action(symmetric(16), 16, 3)
        basis = compute_orbitals(gens)
        labels = basis.sidx0
        assert sorted(np.bincount(labels).tolist()) == [1, 39, 234, 286]
        largest = int(np.argmax(np.bincount(labels)))
        finer = _split_one_cell(labels, largest, slice(0, 143))
        assert not _suborbits_proved(gens, basis.tree, finer, basis.rank + 1)

    def test_a_cell_inside_its_suborbit_fails_the_invariance_check(self):
        """The Petersen graph's suborbits have 1, 3 and 6 points.  With one
        point split off the suborbit of 3, that point is the smallest cell,
        and its images under the tree words are no orbital graph.  Colour
        refinement of them alone would reach the 4 cells: only the check
        N(x^s) = N(x)^s refuses the partition."""
        gens = petersen()
        basis = compute_orbitals(gens)
        labels = basis.sidx0
        finer = _split_one_cell(labels, 1, slice(0, 1))
        assert np.bincount(finer).tolist() == [1, 2, 6, 1]
        assert not _suborbits_proved(gens, basis.tree, finer, basis.rank + 1)

    @pytest.mark.parametrize(
        "gens", [set_action(symmetric(16), 16, 3), set_action(symmetric(12), 12, 5)],
        ids=["J16_3", "S12_on_5sets"],
    )
    def test_the_scan_stops_at_the_proof(self, gens, monkeypatch):
        """The lexicographic Johnson labels merge early in stride order, and
        the scan ends at the first proof, at check 16, 32 or 64, with the
        labels of the full scan."""
        tree = orbit_with_tree(gens, 1)
        seen = _scan_spy(monkeypatch)
        proofs = _proof_spy(monkeypatch)
        cells = _stabilizer_cell_labels(gens, tree)
        assert proofs[-1] is True and proofs.count(True) == 1
        assert len(seen["rows"]) < 3 * 64
        assert np.array_equal(cells, _cells_of_the_full_scan(gens, tree))

    def test_refinement_rounds_stay_narrow(self, monkeypatch):
        """D_1001 on its 1001 points has 501 suborbits, {0} and the pairs
        {i, −i}, and its smallest orbital graph, the 1001-cycle, gains one
        colour per refinement round from the base.  Each of those rounds
        reads the points' colours and their two neighbours' colours, 3
        columns however many colours there are, before the rank cap refuses
        the action."""
        shapes = []
        real = centralizer._row_classes

        def row_classes(rows):
            shapes.append(rows.shape)
            return real(rows)

        monkeypatch.setattr(centralizer, "_row_classes", row_classes)
        proofs = _proof_spy(monkeypatch)
        with pytest.raises(ResourceLimit, match="^rank 501 exceeds configured cap 64$"):
            compute_orbitals(dihedral(1001))
        assert proofs == [True]
        assert set(shapes) == {(1001, 3)}
        assert len(shapes) < 501

    def test_m24_on_4_sets_falls_back_to_the_full_scan(self, monkeypatch):
        """One orbital graph of M24 on its 10,626 4-sets (rank 14) refines to
        fewer colours than the suborbits: the certificate fails once, is not
        tried again on the same partition, and the scan reads the row of
        every point but the base, whose four generator pairs are all tree
        edges, and ends with the pinned partition."""
        gens = set_action(golay.m24_points(), 24, 4)
        proofs = _proof_spy(monkeypatch)
        looked_up = set()
        real = SchreierTree.row0

        def row0(self, x0, rows, capacity=None):
            looked_up.add(x0)
            return real(self, x0, rows, capacity)

        monkeypatch.setattr(SchreierTree, "row0", row0)
        assert _partition_sha256(gens) == PARTITION_SHA256["M24_on_4sets"]
        assert proofs == [False]
        assert looked_up == set(range(1, gens.degree))


def _proof_spy(monkeypatch):
    """The results of every ``_suborbits_proved`` call of the scans that follow."""
    results = []
    real = centralizer._suborbits_proved

    def proved(*args):
        results.append(real(*args))
        return results[-1]

    monkeypatch.setattr(centralizer, "_suborbits_proved", proved)
    return results


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
        basis = compute_orbitals(gens)
        consts = compute_structure_constants(gens, basis)
        assert np.array_equal(consts.tensor, structure_constants_dense(gens))

    def test_row_sum_identity(self, corpus_member):
        name, gens = corpus_member
        basis = compute_orbitals(gens)
        consts = compute_structure_constants(gens, basis)
        n = basis.suborbit_lengths
        rank = basis.rank
        for p in range(1, rank + 1):
            for q in range(1, rank + 1):
                total = sum(
                    consts.c(p, q, r) * int(n[r - 1]) for r in range(1, rank + 1)
                )
                assert total == int(n[p - 1]) * int(n[q - 1])

    def test_diagonal_rule(self, corpus_member):
        name, gens = corpus_member
        basis = compute_orbitals(gens)
        consts = compute_structure_constants(gens, basis)
        for p in range(1, basis.rank + 1):
            for q in range(1, basis.rank + 1):
                want = (
                    int(basis.suborbit_lengths[p - 1])
                    if q == int(basis.transpose_of[p - 1]) + 1
                    else 0
                )
                assert consts.c(p, q, 1) == want

    def test_transpose_consistency(self, corpus_member):
        name, gens = corpus_member
        basis = compute_orbitals(gens)
        consts = compute_structure_constants(gens, basis)
        t = basis.transpose_of
        rank = basis.rank
        for p in range(rank):
            for q in range(rank):
                for r in range(rank):
                    assert consts.tensor[p, q, r] == consts.tensor[t[q], t[p], t[r]]

    def test_basis_arrays_index_the_tensor(self, corpus_member):
        """The per-orbital arrays and the tensor share one 0-based index: r
        means A_{r+1} in both, and the base's suborbit is 0."""
        name, gens = corpus_member
        basis = compute_orbitals(gens)
        consts = compute_structure_constants(gens, basis)
        rank = basis.rank
        assert len(basis.suborbit_lengths) == rank == consts.tensor.shape[0]
        for array in BASIS_ARRAYS[1:]:
            assert len(getattr(basis, array)) == rank
        assert sorted(set(basis.sidx0.tolist())) == list(range(rank))
        assert basis.sidx0[basis.base - 1] == 0
        for p in range(rank):
            assert consts.tensor[p, basis.transpose_of[p], 0] == basis.suborbit_lengths[p]

    def test_commutativity_iff_dense_commutes(self, corpus_member):
        """C is (p,q)-symmetric exactly when the dense algebra commutes,
        i.e. when the action is multiplicity-free.  Regular actions of
        nonabelian groups are the honest counterexamples."""
        name, gens = corpus_member
        basis = compute_orbitals(gens)
        consts = compute_structure_constants(gens, basis)
        assert consts.is_commutative() == dense_algebra_commutes(gens)


@pytest.mark.parametrize("altered, message", [
    (dict(suborbit_representative=np.array([2, 1, 5])), "diagonal orbital is not first"),
    (dict(degree=11), "suborbit lengths do not sum to the degree"),
    (dict(transpose_of=np.array([0, 0, 2])), "transpose map is not an involution"),
    (dict(transpose_of=np.array([0, 2, 1])), "transpose-paired suborbits differ in length"),
], ids=["base-not-first", "lengths-past-the-degree", "transpose-not-involution",
        "transpose-pairs-unequal"])
def test_altered_basis_is_refused(altered, message):
    """Each check of ``_check_basis`` refuses Petersen's basis (suborbits of
    1, 3 and 6 points, every orbital symmetric) altered in one field."""
    basis = compute_orbitals(petersen())
    assert basis.suborbit_lengths.tolist() == [1, 3, 6]
    with pytest.raises(InvariantViolation) as err:
        centralizer._check_basis(dataclasses.replace(basis, **altered))
    assert str(err.value) == message


class TestCheckConstants:
    """Each check of ``_check_constants`` refuses a copy of the S3-regular
    tensor tampered so that the checks before it still pass.  Every suborbit
    of a regular action has length 1, so moving one unit from C[p,q,r] to
    C[p,q,s] keeps the row sums."""

    @pytest.fixture(scope="class")
    def s3_regular(self):
        gens = regular_action(symmetric(3))
        basis = compute_orbitals(gens)
        return basis, compute_structure_constants(gens, basis)

    def refuse(self, basis, tensor, message):
        with pytest.raises(InvariantViolation, match=f"^{re.escape(message)}$"):
            _check_constants(basis, StructureConstants(basis.rank, tensor))

    def moved(self, tensor, p, q, r, s):
        """A copy with one unit moved from C[p,q,r] to C[p,q,s], 1-based."""
        tensor = tensor.copy()
        p, q, r, s = p - 1, q - 1, r - 1, s - 1
        assert tensor[p, q, r] == 1 and tensor[p, q, s] == 0
        tensor[p, q, r], tensor[p, q, s] = 0, 1
        return tensor

    def test_untampered_table_passes(self, s3_regular):
        basis, consts = s3_regular
        assert basis.lengths_in_order() == [1] * 6
        _check_constants(basis, consts)

    def test_negative(self, s3_regular):
        basis, consts = s3_regular
        tensor = consts.tensor.copy()
        tensor[1, 2, 3] = -1  # C[2,3,4]
        self.refuse(basis, tensor, "negative structure constant")

    def test_row_sum(self, s3_regular):
        basis, consts = s3_regular
        tensor = consts.tensor.copy()
        tensor[1, 2, 3] += 1  # C[2,3,4]
        self.refuse(basis, tensor, "row-sum identity failed")

    def test_diagonal_rule_names_the_first_failing_entry(self, s3_regular):
        basis, consts = s3_regular
        tensor = consts.tensor
        for p in (5, 3):
            q = int(basis.transpose_of[p - 1]) + 1
            s = next(s for s in range(2, 7) if tensor[p - 1, q - 1, s - 1] == 0)
            tensor = self.moved(tensor, p, q, 1, s)
        q = int(basis.transpose_of[2]) + 1
        self.refuse(basis, tensor, f"diagonal rule failed at C[3,{q},1]")

    def test_identity(self, s3_regular):
        basis, consts = s3_regular
        self.refuse(
            basis, self.moved(consts.tensor, 1, 2, 2, 3), "A_1 is not the multiplicative identity"
        )

    def test_transpose_consistency(self, s3_regular):
        basis, consts = s3_regular
        r = next(r for r in range(2, 7) if consts.c(2, 3, r) == 1)
        s = next(s for s in range(2, 7) if consts.c(2, 3, s) == 0)
        self.refuse(basis, self.moved(consts.tensor, 2, 3, r, s), "transpose consistency failed")


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
