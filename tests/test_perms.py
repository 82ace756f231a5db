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

from conftest import (
    affine,
    alternating,
    cyclic,
    pair_action,
    petersen,
    primitive_root,
    symmetric,
)
from oracles import enumerate_group, is_edge0, scalar_orbit_with_tree


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

    def test_image_past_int64_is_out_of_range(self):
        # the parser's range pass keeps np.asarray from overflowing
        with pytest.raises(ParseError, match="point out of range in image list") as err:
            parse_generator_text("degree 2\ngen 1 100000000000000000000000000")
        assert err.value.line == 2

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

    @pytest.mark.parametrize("text, lineno, message", [
        ("degree 3\ndegree 3\ngen (1,2)", 2, "duplicate degree line"),
        ("degree three\ngen (1,2)", 1, "malformed degree 'three'"),
        ("degree 0\ngen (1,2)", 1, "degree must be positive"),
        ("degree 3\ngenerator (1,2)", 2, "unknown keyword 'generator'"),
        ("degree 3\ngen (1,2)x", 2, "malformed token 'x' in cycle notation"),
        ("degree 3\ngen (1,a)", 2, "malformed cycle (1,a)"),
        ("degree 3\ngen 1 x 3", 2, "malformed token in image list: '1 x 3'"),
    ], ids=["second-degree", "degree-word", "degree-zero", "unknown-keyword",
            "text-after-cycles", "word-in-cycle", "word-in-image-list"])
    def test_refusal_names_its_line(self, text, lineno, message):
        with pytest.raises(ParseError) as err:
            parse_generator_text(text)
        assert err.value.line == lineno
        assert str(err.value) == f"line {lineno}: {message}"

    def test_empty_cycle_is_the_identity(self):
        g = parse_generator_text("degree 3\ngen ()")
        assert g.generators[0] == Permutation.identity(3)


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
        tree = orbit_with_tree(symmetric(3), 1)
        assert set(np.flatnonzero(tree.depth >= 0) + 1) == {1, 2, 3}

    def test_identity_only_orbit(self):
        g = GeneratorSet(3, (Permutation.identity(3),))
        tree = orbit_with_tree(g, 2)
        assert set(np.flatnonzero(tree.depth >= 0) + 1) == {2}
        with pytest.raises(ValueError, match="not in orbit"):
            tree.transport_to_base0(0, 0)

    @pytest.mark.parametrize("base", [0, 4])
    def test_base_outside_the_points_is_refused(self, base):
        with pytest.raises(ValueError, match=f"base {base} out of range 1..3"):
            orbit_with_tree(symmetric(3), base)

    def test_c4_tree_depths(self):
        tree = orbit_with_tree(cyclic(4), 1)
        assert set(np.flatnonzero(tree.depth >= 0) + 1) == {1, 2, 3, 4}
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
            orbit = set(np.flatnonzero(orbit_with_tree(g, base).depth >= 0) + 1)
            seen |= orbit
            total += len(orbit)
        assert total == 5
        assert not is_transitive(g)

    @tree_actions
    def test_transport_rows_match_scalar_walks(self, gens):
        n = gens.degree
        tree = orbit_with_tree(gens, 1)
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
        tree = orbit_with_tree(gens, 1)
        points = np.arange(n)
        edges = [
            (p0, gi)
            for p0 in range(n)
            for gi in range(len(gens))
            if is_edge0(tree, p0, gi)
        ]
        assert len(edges) == n - 1
        for p0, gi in edges:
            s = gens.generators[gi]
            q0 = int(s.images0[p0])
            assert np.array_equal(
                tree.transport_to_base0(p0, points),
                tree.transport_to_base0(q0, s.images0),
            )


    def test_edge_mask_is_the_tree_edge_test(self, corpus_member):
        _, gens = corpus_member
        tree = orbit_with_tree(gens, 1)
        mask = tree.edge_mask()
        want = [[is_edge0(tree, p0, gi) for gi in range(len(gens))] for p0 in range(gens.degree)]
        assert mask.tolist() == want
        assert int(mask.sum()) == gens.degree - 1


def _assert_tree_matches_scalar_bfs(gens, base):
    tree = orbit_with_tree(gens, base)
    want_orbit, *want = scalar_orbit_with_tree(gens, base)
    assert set(np.flatnonzero(tree.depth >= 0) + 1) == want_orbit
    got = (tree.parent0, tree.gen_index, tree.direction, tree.depth)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


class TestTreeMatchesScalarBfs:
    """The level-at-a-time tree is the point-at-a-time BFS tree, array for
    array."""

    def test_every_base_of_the_corpus(self, corpus_member):
        _, gens = corpus_member
        for base in range(1, gens.degree + 1):
            _assert_tree_matches_scalar_bfs(gens, base)

    @pytest.mark.parametrize("base", [1, 2, 500, 1009])
    def test_affine_1009(self, base):
        _assert_tree_matches_scalar_bfs(affine(1009, primitive_root(1009)), base)

    def test_intransitive_orbits(self):
        gens = GeneratorSet(
            9,
            (
                Permutation.from_cycles(9, [[1, 2, 3, 4], [5, 6]]),
                Permutation.from_cycles(9, [[2, 4], [7, 8, 9]]),
            ),
        )
        for base in range(1, 10):
            _assert_tree_matches_scalar_bfs(gens, base)
        assert set(np.flatnonzero(orbit_with_tree(gens, 2).depth >= 0) + 1) == {1, 2, 3, 4}


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


@pytest.mark.parametrize("build, message", [
    (lambda: Permutation.from_images([]), "empty permutation"),
    (lambda: Permutation.from_images([1, 3]), "image out of range"),
    (lambda: GeneratorSet(3, ()), "empty generator list"),
    (lambda: GeneratorSet(3, (Permutation.from_images([2, 3, 1]),
                              Permutation.from_images([2, 1]))), "generators of mixed degree"),
], ids=["empty-images", "image-past-the-degree", "no-generators", "mixed-degree"])
def test_malformed_permutations_are_refused(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message
