import numpy as np
import pytest

from permsplit import (
    GeneratorSet,
    IntransitiveAction,
    Permutation,
    ResourceLimit,
    SchreierTree,
    compute_orbitals,
    compute_structure_constants,
    orbit_with_tree,
    parse_generators,
)
from permsplit.centralizer import _merge_cells, _stabilizer_cell_labels, order_basis

from conftest import (
    affine,
    cyclic,
    m22_path,
    petersen,
    primitive_root,
    requires_m22,
    symmetric,
)
from oracles import (
    dense_algebra_commutes,
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
            if tree.is_edge0(p0, gi):
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
        cells; the scan makes a handful of transports, not thousands, and
        gives the basis of the full scan."""
        _, tree = orbit_with_tree(gens, 1)
        calls = []
        real = SchreierTree.transport_to_base0

        def counted(self, x0, y0):
            calls.append(x0)
            return real(self, x0, y0)

        with monkeypatch.context() as m:
            m.setattr(SchreierTree, "transport_to_base0", counted)
            cells = _stabilizer_cell_labels(gens, tree)
        assert len(calls) <= 8
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


@requires_m22
def test_m22_770_suborbit_lengths():
    gens = parse_generators(m22_path())
    basis = compute_orbitals(gens)
    assert basis.rank == 9
    assert basis.lengths_in_order() == [1, 96, 144, 72, 144, 9, 16, 144, 144]
