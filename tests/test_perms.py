import numpy as np
import pytest

from permsplit import (
    GeneratorSet,
    ParseError,
    Permutation,
    compute_orbitals,
    is_transitive,
    orbit_with_tree,
    parse_generator_text,
)

from conftest import alternating, cyclic, pair_action, petersen, symmetric
from oracles import enumerate_group


class TestParsing:
    def test_cycle_notation_s3(self):
        g = parse_generator_text("degree 3\ngen (1,2,3)\ngen (1,2)")
        assert g.degree == 3
        assert g.generators[0].images() == [2, 3, 1]
        assert g.generators[1].images() == [2, 1, 3]

    def test_image_list_c4(self):
        g = parse_generator_text("degree 4\ngen 2 3 4 1")
        assert g.degree == 4
        assert g.generators[0].images() == [2, 3, 4, 1]

    def test_repeated_point_in_cycle(self):
        with pytest.raises(ParseError, match="line 2.*repeated point"):
            parse_generator_text("degree 3\ngen (1,2,2)")

    def test_comments_and_blank_lines(self):
        text = "# header\n\ndegree 3   # inline\ngen (1,2)(3)\n\n"
        g = parse_generator_text(text)
        assert g.generators[0].images() == [2, 1, 3]

    def test_multi_cycle(self):
        g = parse_generator_text("degree 5\ngen (1,2)(3,4,5)")
        assert g.generators[0].images() == [2, 1, 4, 5, 3]

    def test_out_of_range_point(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_generator_text("degree 3\ngen (1,4)")

    def test_repeated_image_in_list(self):
        with pytest.raises(ParseError, match="line 2.*repeated image"):
            parse_generator_text("degree 3\ngen 1 1 2")

    def test_wrong_image_count(self):
        with pytest.raises(ParseError, match="expected 4"):
            parse_generator_text("degree 4\ngen 1 2 3")

    def test_empty_generator_list(self):
        with pytest.raises(ParseError, match="empty generator list"):
            parse_generator_text("degree 3\n")

    def test_gen_before_degree(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_generator_text("gen (1,2)\ndegree 3")

    def test_missing_degree(self):
        with pytest.raises(ParseError):
            parse_generator_text("# nothing\n")


class TestPermutation:
    def test_compose_inverse_identity(self):
        p = Permutation.from_images([2, 3, 1, 5, 4])
        assert p.compose(p.inverse()) == Permutation.identity(5)
        assert p.inverse().compose(p) == Permutation.identity(5)

    def test_bijection_invariant(self):
        with pytest.raises(ValueError):
            Permutation.from_images([1, 1, 3])

    def test_cycles_roundtrip(self):
        p = Permutation.from_images([2, 1, 4, 5, 3])
        assert p.cycles() == [(1, 2), (3, 4, 5)]
        assert Permutation.from_cycles(5, [list(c) for c in p.cycles()]) == p


tree_actions = pytest.mark.parametrize(
    "gens", [symmetric(4), petersen(), cyclic(9)], ids=["S4", "petersen", "C9"]
)


class TestOrbits:
    def test_s3_orbit_of_1(self):
        orbit, _ = orbit_with_tree(symmetric(3), 1)
        assert orbit == {1, 2, 3}

    def test_identity_only_orbit(self):
        g = GeneratorSet(3, (Permutation.identity(3),))
        orbit, tree = orbit_with_tree(g, 2)
        assert orbit == {2}
        with pytest.raises(ValueError, match="not in orbit"):
            tree.transport_to_base0(0, 0)

    def test_c4_tree_depths(self):
        orbit, tree = orbit_with_tree(cyclic(4), 1)
        assert orbit == {1, 2, 3, 4}
        assert tree.depth.tolist() == [0, 1, 2, 1]

    def test_transitivity(self):
        assert is_transitive(symmetric(3))
        assert is_transitive(cyclic(4))
        assert not is_transitive(
            GeneratorSet(3, (Permutation.from_images([2, 1, 3]),))
        )

    def test_orbit_sizes_partition_degree(self):
        g = GeneratorSet(5, (Permutation.from_images([2, 1, 3, 5, 4]),))
        seen = set()
        total = 0
        for base in range(1, 6):
            if base in seen:
                continue
            orbit, _ = orbit_with_tree(g, base)
            seen |= orbit
            total += len(orbit)
        assert total == 5
        assert not is_transitive(g)

    @tree_actions
    def test_transport_rows_match_scalar_walks(self, gens):
        n = gens.degree
        _, tree = orbit_with_tree(gens, 1)
        points = np.arange(n)
        for p in range(1, n + 1):
            row = tree.transport_to_base0(p - 1, points)
            assert sorted(row.tolist()) == list(range(n))
            assert row[p - 1] == 0
            assert row.tolist() == [tree.transport_to_base0(p - 1, y) for y in range(n)]

    @tree_actions
    def test_tree_edges_are_identity_schreier_generators(self, gens):
        """Exactly N−1 (point, generator) pairs are tree edges, and for each
        of them t_p and t_q·s agree, so u_p·s·u_q^{-1} is the identity."""
        n = gens.degree
        _, tree = orbit_with_tree(gens, 1)
        points = np.arange(n)
        edges = [
            (p0, gi)
            for p0 in range(n)
            for gi in range(len(gens))
            if tree.is_edge0(p0, gi)
        ]
        assert len(edges) == n - 1
        for p0, gi in edges:
            s = gens.generators[gi]
            q0 = int(s.images0[p0])
            assert np.array_equal(
                tree.transport_to_base0(p0, points),
                tree.transport_to_base0(q0, s.images0),
            )


def brute_force_stabilizer_orbits(gens, base):
    elems = enumerate_group(gens)
    fixing = [g for g in elems if g[base - 1] == base - 1]
    n = gens.degree
    labels = list(range(n))

    def find(x):
        while labels[x] != x:
            labels[x] = labels[labels[x]]
            x = labels[x]
        return x

    for g in fixing:
        for x in range(n):
            a, b = find(x), find(g[x])
            if a != b:
                labels[a] = b
    parts = {}
    for x in range(n):
        parts.setdefault(find(x), set()).add(x + 1)
    return sorted(frozenset(p) for p in parts.values())


def _suborbits(gens):
    basis = compute_orbitals(gens)
    return {frozenset(basis.suborbit_members(r)) for r in range(1, basis.rank + 1)}


class TestStabilizer:
    def test_s3_stabilizer(self):
        parts = brute_force_stabilizer_orbits(symmetric(3), 1)
        assert parts == sorted([frozenset({1}), frozenset({2, 3})])

    def test_c4_trivial_stabilizer(self):
        assert _suborbits(cyclic(4)) == {frozenset({p}) for p in range(1, 5)}

    def test_a5_pairs_orbit_sizes(self):
        sizes = [len(part) for part in _suborbits(pair_action(alternating(5), 5))]
        assert sorted(sizes) == [1, 3, 6]

    @pytest.mark.parametrize(
        "gens",
        [
            symmetric(3),
            symmetric(4),
            alternating(4),
            cyclic(6),
            petersen(),
            pair_action(alternating(5), 5),
        ],
        ids=["S3", "S4", "A4", "C6", "petersen", "A5_pairs"],
    )
    def test_partition_matches_brute_force(self, gens):
        assert _suborbits(gens) == set(brute_force_stabilizer_orbits(gens, 1))
