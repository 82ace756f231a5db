import random
import re
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from permsplit import (
    FieldElement,
    GeneratorSet,
    IntransitiveAction,
    InvariantViolation,
    Permutation,
    Poly,
    SplitConfig,
    build_idempotency_system,
    build_orthogonality_system,
    compute_orbitals,
    compute_structure_constants,
    split,
)
from permsplit import splitter, verify
from permsplit.cli import render_decomposition_text
from permsplit.exactfield import ComplexBall
from permsplit.polynomial import groebner_basis
from permsplit.splitter import (
    Projector,
    _SplitState,
    algebra_product,
    build_orthogonality_system_right,
    process_single_solution,
)

from conftest import (
    CORPUS,
    GROEBNER_ONLY,
    corpus_split,
    cyclic,
    duplicate_first_projector,
    frobenius20,
    groebner_route,
    groebner_split,
    pair_action,
    petersen,
    regular_action,
    symmetric,
)
from oracles import (
    dimension_multiset,
    petersen_eigenprojectors,
    s3_character_projectors,
)

FE = FieldElement


def fe(q):
    return FE.from_rational(Fraction(q))


def constants_for(gens):
    basis = compute_orbitals(gens)
    return basis, compute_structure_constants(gens, basis)


class TestIdempotencySystem:
    def test_s3(self):
        _, consts = constants_for(symmetric(3))
        system = build_idempotency_system(consts)
        r = system.ring
        x1, x2 = Poly.variable(r, 0), Poly.variable(r, 1)
        assert system.polys[0] == x1 * x1 + x2 * x2 * 2 - x1
        assert system.polys[1] == x1 * x2 * 2 + x2 * x2 - x2

    def test_petersen_e1(self):
        _, consts = constants_for(petersen())
        system = build_idempotency_system(consts)
        r = system.ring
        x1, x2, x3 = (Poly.variable(r, i) for i in range(3))
        assert system.polys[0] == x1 * x1 + x2 * x2 * 3 + x3 * x3 * 6 - x1

    def test_trivial_rank_one(self):
        g = GeneratorSet(1, (Permutation.identity(1),))
        _, consts = constants_for(g)
        system = build_idempotency_system(consts)
        r = system.ring
        x1 = Poly.variable(r, 0)
        assert system.polys == [x1 * x1 - x1]


class TestOrthogonalitySystem:
    def test_s3_proportional_forms(self):
        _, consts = constants_for(symmetric(3))
        forms = build_orthogonality_system(consts, (fe(Fraction(1, 3)), fe(Fraction(1, 3))))
        r = forms[0].ring
        x1, x2 = Poly.variable(r, 0), Poly.variable(r, 1)
        target = (x1 + x2 * 2) * Fraction(1, 3)
        assert all(f == target for f in forms)

    def test_trivial_rank_one(self):
        g = GeneratorSet(1, (Permutation.identity(1),))
        _, consts = constants_for(g)
        forms = build_orthogonality_system(consts, (fe(1),))
        r = forms[0].ring
        assert forms == [Poly.variable(r, 0)]

    def test_petersen_row_sum_pattern(self):
        _, consts = constants_for(petersen())
        forms = build_orthogonality_system(consts, (fe(Fraction(1, 10)),) * 3)
        r = forms[0].ring
        x1, x2, x3 = (Poly.variable(r, i) for i in range(3))
        target = (x1 + x2 * 3 + x3 * 6) * Fraction(1, 10)
        assert all(f == target for f in forms)

    def test_right_forms_differ_in_noncommutative_algebra(self):
        gens = regular_action(symmetric(3))
        _, consts = constants_for(gens)
        deco = split(gens)
        member = [p for p in deco.projectors if p.block is not None][0]
        left = build_orthogonality_system(consts, member.coefficients)
        right = build_orthogonality_system_right(consts, member.coefficients)
        assert set(left) != set(right)

    def test_numeric_coefficients_rejected(self):
        _, consts = constants_for(symmetric(3))
        with pytest.raises(ValueError, match="exact coefficients"):
            build_orthogonality_system(consts, (fe(Fraction(1, 3)), ComplexBall(0.5)))
        with pytest.raises(ValueError, match="exact coefficients"):
            build_orthogonality_system_right(consts, (fe(Fraction(1, 3)), ComplexBall(0.5)))

    @pytest.mark.parametrize("name", [name for name, _ in CORPUS])
    def test_forms_of_the_sum_give_the_same_basis(self, name):
        """For mutually orthogonal idempotents B with sum S, X·S = S·X = 0
        exactly when X·B = B·X = 0 for every B, so the forms of each running
        sum of exact projectors and the forms of its terms give one reduced
        Groebner basis."""
        _, consts = constants_for(dict(CORPUS)[name])
        exact = [p.coefficients for p in corpus_split(name).projectors if p.exact]
        for k in range(1, len(exact) + 1):
            each = []
            for b in exact[:k]:
                each += build_orthogonality_system(consts, b)
                each += build_orthogonality_system_right(consts, b)
            total = [sum(col, fe(0)) for col in zip(*exact[:k])]
            whole = build_orthogonality_system(consts, total)
            whole += build_orthogonality_system_right(consts, total)
            assert groebner_basis(each) == groebner_basis(whole)


class TestProcessSingleSolution:
    def _state(self, gens):
        basis, consts = constants_for(gens)
        return _SplitState(basis, consts, SplitConfig())

    def test_accepts_valid_projector(self):
        state = self._state(symmetric(3))
        b1 = Projector((fe(Fraction(1, 3)), fe(Fraction(1, 3))), 1, "uniqueSolution")
        process_single_solution(state, b1)
        assert len(state.projectors) == 1
        assert state.idem.orthogonality

    def test_duplicate_rejected(self, monkeypatch):
        """Acceptance does not multiply a candidate out, so a duplicate is
        recorded; the certificate rejects the family."""
        duplicate_first_projector(monkeypatch)
        with pytest.raises(InvariantViolation, match=re.escape("orthogonality B[1]*B[2]")):
            split(symmetric(3))

    def test_distinct_forms_with_equal_hashes_are_kept(self, monkeypatch):
        """hash(-1) == hash(-2) in CPython, so x2 - x3 and x2 - 2*x3 hash
        alike; both forms must reach the system."""
        state = self._state(petersen())
        ring = state.idem.ring
        x2, x3 = Poly.variable(ring, 1), Poly.variable(ring, 2)
        one, two = x2 - x3, x2 - x3 * 2
        assert hash(one) == hash(two)
        monkeypatch.setattr(splitter, "build_orthogonality_system", lambda c, b: [one])
        monkeypatch.setattr(splitter, "build_orthogonality_system_right", lambda c, b: [two])
        b1 = Projector(
            coefficients=(fe(Fraction(1, 10)),) * 3, dimension=1, provenance="uniqueSolution"
        )
        process_single_solution(state, b1)
        assert one in state.idem.orthogonality
        assert two in state.idem.orthogonality

    def test_numeric_sum_is_a_tight_enclosure(self):
        """C9 natural keeps 6 projectors numeric; the running sum that
        ``accept_candidate`` checks candidates against stays tight."""
        state = self._state(cyclic(9))
        deco = corpus_split("C9_natural")
        assert sum(not p.exact for p in deco.projectors) == 6
        for p in deco.projectors:
            process_single_solution(state, p)
        assert all(isinstance(c, ComplexBall) for c in state.numeric_sum)
        assert max(c.rad for c in state.numeric_sum) < mpmath.mpf(2) ** -128

    def test_s3_d2_forced_linearly(self):
        state = self._state(symmetric(3))
        b1 = Projector((fe(Fraction(1, 3)), fe(Fraction(1, 3))), 1, "uniqueSolution")
        process_single_solution(state, b1)
        polys = state.d_system(2)
        basis = groebner_basis(polys)
        r = basis[0].ring
        x2 = Poly.variable(r, 0)
        assert basis == [x2 + Poly.const(r, Fraction(1, 3))]


class TestAlgebraProduct:
    def test_exact_idempotent(self):
        _, consts = constants_for(symmetric(3))
        b = [fe(Fraction(2, 3)), fe(Fraction(-1, 3))]
        sq = algebra_product(consts, b, b)
        assert sq == b


class TestSplit:
    def test_s3(self):
        deco = split(symmetric(3))
        assert deco.dimension_multiset == [1, 2]
        assert deco.projectors[0].coefficients == (fe(Fraction(1, 3)), fe(Fraction(1, 3)))
        assert deco.projectors[1].coefficients == (fe(Fraction(2, 3)), fe(Fraction(-1, 3)))

    def test_s3_matches_character_oracle(self):
        gens = symmetric(3)
        deco = split(gens)
        basis = compute_orbitals(gens)
        computed = {tuple(p.coefficients) for p in deco.projectors}
        matched = 0
        for dim, mat in s3_character_projectors(gens):
            if all(x == 0 for row in mat for x in row):
                continue  # the sign character is absent from the natural action
            coeffs = _matrix_to_basis_coeffs(mat, basis)
            assert coeffs is not None and coeffs in computed
            matched += 1
        assert matched == len(deco.projectors) == 2

    def test_petersen(self):
        deco = split(petersen())
        assert deco.dimension_multiset == [1, 4, 5]
        got = {p.dimension: p.coefficients for p in deco.projectors}
        assert got[1] == (fe(Fraction(1, 10)),) * 3
        assert got[4] == (
            fe(Fraction(2, 5)),
            fe(Fraction(-4, 15)),
            fe(Fraction(1, 15)),
        )
        assert got[5] == (
            fe(Fraction(1, 2)),
            fe(Fraction(1, 6)),
            fe(Fraction(-1, 6)),
        )

    def test_petersen_matches_eigenprojector_oracle(self):
        gens = petersen()
        basis = compute_orbitals(gens)
        deco = split(gens)

        adjacency = np.zeros((10, 10), dtype=np.int64)
        for i in range(10):
            for j in range(10):
                if basis.orbital_of_pair(i + 1, j + 1) == 2:
                    adjacency[i, j] = 1
        got = {p.dimension: p.coefficients for p in deco.projectors}
        for dim, mat in petersen_eigenprojectors(adjacency):
            coeffs = _matrix_to_basis_coeffs(mat, basis)
            assert got[dim] == coeffs

    def test_c4_gaussian_and_conjugate_pairing(self):
        deco = split(cyclic(4))
        assert deco.dimension_multiset == [1, 1, 1, 1]
        total = [FE.zero()] * 4
        for p in deco.projectors:
            assert p.exact
            for c in p.coefficients:
                # Gaussian rationals only
                assert all(rad in (1, -1) for rad in c.terms)
            for r in range(4):
                total[r] = total[r] + p.coefficients[r]
        assert total[0] == FE.one()
        assert all(t.is_zero() for t in total[1:])
        pairs = {
            i: p.conjugate_of for i, p in enumerate(deco.projectors)
            if p.conjugate_of is not None
        }
        assert len(pairs) == 2  # one conjugate pair among the four
        for i, j in pairs.items():
            conj = tuple(c.conjugate() for c in deco.projectors[i].coefficients)
            assert conj == deco.projectors[j].coefficients

    def test_s3_regular_multiplicity_branch(self):
        deco = groebner_route(regular_action(symmetric(3)))
        assert deco.dimension_multiset == [1, 1, 2, 2]
        slice_events = [e for e in deco.events if e.kind == "slice"]
        assert slice_events and slice_events[0].d == 2
        assert slice_events[0].hilbert == 2
        two_dims = [p for p in deco.projectors if p.dimension == 2]
        assert len(two_dims) == 2
        assert all(p.block == 2 for p in two_dims)

    def test_hilbert_dimension_does_not_set_the_count(self, monkeypatch):
        """The solutions at a first-met d are the rank-one idempotents of an
        M_k block, a variety of dimension 2(k - 1); no formula in k is
        applied to it.  With every positive-dimensional system reported at
        h = 6, the Hilbert dimension of a multiplicity-4 block, the split
        still slices and its certified report is unchanged."""
        real = splitter.hilbert_dimension

        def as_if_k4(gb, nvars=None):
            return 6 if real(gb, nvars=nvars) else 0

        monkeypatch.setattr(splitter, "hilbert_dimension", as_if_k4)
        deco = groebner_route(regular_action(symmetric(3)))
        assert [e.hilbert for e in deco.events if e.kind == "slice"] == [6]
        assert render_decomposition_text(deco) == render_decomposition_text(
            groebner_split("S3_regular")
        )

    def test_intransitive_raises(self):
        g = GeneratorSet(3, (Permutation.from_images([2, 1, 3]),))
        with pytest.raises(IntransitiveAction):
            split(g)

    def test_determinism(self):
        gens = regular_action(symmetric(3))
        a = split(gens)
        b = split(gens)
        assert [p.coefficients for p in a.projectors] == [
            p.coefficients for p in b.projectors
        ]

    def test_trivial_single_point(self):
        g = GeneratorSet(1, (Permutation.identity(1),))
        deco = split(g)
        assert deco.dimension_multiset == [1]
        assert deco.projectors[0].coefficients == (fe(1),)


class TestCorpusProperties:
    def test_dimension_multiset_matches_oracle(self, corpus_member):
        name, gens = corpus_member
        deco = corpus_split(name)
        assert deco.dimension_multiset == dimension_multiset(gens)

    def test_completeness_and_trace(self, corpus_member):
        name, gens = corpus_member
        deco = corpus_split(name)
        n = gens.degree
        assert sum(p.dimension for p in deco.projectors) == n
        for p in deco.projectors:
            b1 = p.coefficients[0]
            assert b1.rational_value() * n == p.dimension

    def test_conjugation_closure_of_unique_solutions(self, corpus_member):
        """The enumerated (non-sliced) part of an exact decomposition is
        closed under complex conjugation; members of multiplicity blocks need
        not be (the slice choices are not conjugation-symmetric)."""
        name, gens = corpus_member
        deco = corpus_split(name)
        unique_exact = [
            p for p in deco.projectors
            if p.exact and p.provenance == "uniqueSolution" and p.block is None
        ]
        keys = {tuple(sorted((r, c) for r, c in enumerate(p.coefficients)))
                for p in unique_exact}
        for p in unique_exact:
            conj = tuple(c.conjugate() for c in p.coefficients)
            key = tuple(sorted((r, c) for r, c in enumerate(conj)))
            assert key in keys


    def test_slices_at_even_hilbert_and_enumerated_dimensions_end(self, corpus_member):
        """The rank-r idempotents of an M_k block form a variety of dimension
        2r(k-r), so every slice is at an even Hilbert dimension; and once a
        dimension's solutions are enumerated, it is not solved again."""
        name, _ = corpus_member
        _assert_slicing_events(corpus_split(name).events)


def _assert_slicing_events(events):
    """Slices sit at even Hilbert dimensions, and a dimension the loop has
    enumerated is not solved again.  The exact idempotents' events carry no
    Hilbert dimension and come first; the loop may go on at their d."""
    assert all(e.hilbert % 2 == 0 for e in events if e.kind == "slice")
    for i, e in enumerate(events):
        if e.kind == "solutions" and e.hilbert is not None:
            assert all(later.d != e.d for later in events[i + 1:]), events


class TestLinearRoute:
    def test_f20_regular_block_of_four(self):
        """Regular F20 = C5 : C4 holds its 4-dimensional irreducible four
        times; the block splits into four primitive idempotents."""
        gens = regular_action(frobenius20())
        basis, consts = constants_for(gens)
        deco = split(gens)
        assert deco.dimension_multiset == [1, 1, 1, 1, 4, 4, 4, 4]
        assert deco.exact_only()
        assert verify.verify_family_algebraic(consts, deco).passed
        fours = [p for p in deco.projectors if p.dimension == 4]
        assert {(p.provenance, p.block) for p in fours} == {("blockRefinement", 4)}

    def test_tower_centres_split_without_groebner(self, corpus_member, monkeypatch):
        name, gens = corpus_member
        basis, consts = constants_for(gens)
        linear = splitter._split_linear(basis, consts, SplitConfig())
        complete = sum(p.dimension for p in linear) == gens.degree
        assert complete == (name not in GROEBNER_ONLY)
        if not complete:
            return

        def no_groebner(polys):
            raise AssertionError("an exact split took a Groebner basis")

        monkeypatch.setattr(splitter, "groebner_basis", no_groebner)
        deco = split(gens)
        assert deco.dimension_multiset == dimension_multiset(gens)
        assert deco.exact_only()
        assert all(e.hilbert is None for e in deco.events)

    # all coordinates of the exact projectors, and b_1 = d/N of each numeric
    # one: C9 keeps 3 of its 9 projectors exact, the others 1
    EXACT_COORDINATES_AT_LEAST = {
        "C5_natural": 9, "C7_natural": 13, "C9_natural": 33, "D7_natural": 7,
    }

    @pytest.mark.parametrize("name", sorted(GROEBNER_ONLY))
    def test_remainder_keeps_exact_coordinates(self, name):
        deco = corpus_split(name)
        exact = sum(isinstance(c, FE) for p in deco.projectors for c in p.coefficients)
        assert exact >= self.EXACT_COORDINATES_AT_LEAST[name]
        assert deco.dimension_multiset == dimension_multiset(dict(CORPUS)[name])

    @pytest.mark.parametrize("name", sorted(GROEBNER_ONLY))
    def test_exact_idempotents_reach_the_family_unchanged(self, name):
        """The dimension loop completes the exact idempotents; it neither
        drops nor changes one."""
        basis, consts = constants_for(dict(CORPUS)[name])
        linear = splitter._split_linear(basis, consts, SplitConfig())
        assert linear and all(p.exact for p in linear)
        family = {p.coefficients for p in corpus_split(name).projectors}
        assert {p.coefficients for p in linear} <= family

    def test_c9_exact_idempotents_factor_through_c3(self):
        """On C9 the tower holds the cube roots of unity but not the primitive
        ninth ones: the exact idempotents are the trivial projector and the
        two whose characters factor through C3, sum_j w^(jk) A_(j+1)/9 with
        w a primitive cube root of unity and k = 1, 2."""
        basis, consts = constants_for(cyclic(9))
        linear = splitter._split_linear(basis, consts, SplitConfig())
        omega = (FE.from_rational(-1) + FE.sqrt_int(-3)) * fe(Fraction(1, 2))
        expected = set()
        for k in range(3):
            coeffs = []
            for r in range(9):
                # A_(r+1) is the basis matrix of the shift by shift_of[r]
                shift = basis.suborbit_representative[r + 1] - 1
                power = FE.one()
                for _ in range((k * shift) % 3):
                    power = power * omega
                coeffs.append(power * fe(Fraction(1, 9)))
            expected.add(tuple(coeffs))
        assert {p.coefficients for p in linear} == expected
        assert [p.dimension for p in linear] == [1, 1, 1]

    def test_split_idempotent_keeps_the_residual_part(self):
        """On C5, A_2 has the minimal polynomial t^5 - 1 = (t - 1) Phi_5(t);
        only the root 1 lies in the tower.  Its Lagrange idempotent is the
        trivial projector, and the identity minus it is the idempotent of
        Phi_5's roots."""
        basis, consts = constants_for(cyclic(5))
        one = [fe(1)] + [fe(0)] * 4
        a2 = [fe(0), fe(1)] + [fe(0)] * 3
        parts = splitter._split_idempotent(consts, one, a2)
        assert parts == [
            [fe(Fraction(1, 5))] * 5,
            [fe(Fraction(4, 5))] + [fe(Fraction(-1, 5))] * 4,
        ]

    def test_failed_certificate_raises_instead_of_falling_back(self, monkeypatch):
        """An exact family that fails its certificate is a bug, not a reason
        to run the dimension loop."""
        real = splitter.verify_family_algebraic

        def one_check_fails(consts, deco, precision):
            report = real(consts, deco, precision)
            report.add("planted check", False)
            return report

        def no_groebner(polys):
            raise AssertionError("the dimension loop ran")

        monkeypatch.setattr(splitter, "verify_family_algebraic", one_check_fails)
        monkeypatch.setattr(splitter, "groebner_basis", no_groebner)
        with pytest.raises(InvariantViolation, match="planted check"):
            split(regular_action(symmetric(3)))

    def test_block_size_of_a_non_idempotent_raises(self):
        """S3 on three points: E = (A_1 + A_2)/3 is the trivial projector,
        with k = d = 1; for 2E, tr(L_E) = 2 is no k^2."""
        _, consts = constants_for(symmetric(3))
        left_traces = [int(t) for t in np.einsum("pqq->p", consts.table[1:, 1:, 1:])]
        trivial = [fe(Fraction(1, 3)), fe(Fraction(1, 3))]
        assert splitter._block_size(trivial, left_traces, 3) == (1, 1)
        with pytest.raises(InvariantViolation, match=r"tr\(L_E\) = 2 "):
            splitter._block_size([x * 2 for x in trivial], left_traces, 3)

    @pytest.mark.parametrize("name", [
        name for name, _ in CORPUS
        if name not in GROEBNER_ONLY | {"S3_regular", "D4_regular", "Q8_regular", "C8_natural"}
    ])
    def test_multiplicity_free_reports_match_groebner(self, name):
        """Every k = 1 means a commutative algebra, whose primitive
        idempotents are unique; the dimension loop alone prints the same
        report.  (C8 is left out: the loop alone leaves some of its
        coordinates numeric, and ``test_numeric_reference_matches_exact_family``
        compares it.)"""
        _, consts = constants_for(dict(CORPUS)[name])
        assert consts.is_commutative()
        assert render_decomposition_text(corpus_split(name)) == render_decomposition_text(
            groebner_split(name)
        )

    @pytest.mark.parametrize("name", ["S3_regular", "D4_regular", "Q8_regular"])
    def test_block_sums_match_groebner(self, name):
        """Inside a block the primitive idempotents are not unique, but their
        sum, the central idempotent, is; so are the k = 1 projectors."""

        def blocks(deco):
            sums = {}
            for p in deco.projectors:
                key = p.block if p.block is not None else p.coefficients
                sums[key] = [a + b for a, b in zip(sums.get(key, [fe(0)] * deco.rank),
                                                   p.coefficients)]
            return {k: tuple(v) for k, v in sums.items()}

        linear, groebner = corpus_split(name), groebner_split(name)
        assert linear.dimension_multiset == groebner.dimension_multiset
        assert blocks(linear) == blocks(groebner)
        assert any(p.block is not None for p in linear.projectors)
        assert {p.provenance for p in linear.projectors if p.block is not None} == {
            "blockRefinement"
        }


def _assert_orthogonal_idempotents(consts, parts):
    zero = [fe(0)] * consts.rank
    for i, e in enumerate(parts):
        assert algebra_product(consts, e, e) == list(e)
        for f in parts[i + 1:]:
            assert algebra_product(consts, e, f) == zero
            assert algebra_product(consts, f, e) == zero


class TestExactIdempotents:
    def test_exact_idempotents_are_primitive_and_orthogonal(self, corpus_member):
        """The exact idempotents are mutually orthogonal primitive
        idempotents with N b_1 = d, and their dimensions are part of the
        oracle's multiset."""
        name, gens = corpus_member
        basis, consts = constants_for(gens)
        linear = splitter._split_linear(basis, consts, SplitConfig())
        assert linear and all(p.exact for p in linear)
        _assert_orthogonal_idempotents(consts, [p.coefficients for p in linear])
        assert verify.primitivity_traces(consts, [p.coefficients for p in linear]) == [
            FE.one()
        ] * len(linear)
        for p in linear:
            assert p.coefficients[0].rational_value() * gens.degree == p.dimension
        assert not Counter(p.dimension for p in linear) - Counter(dimension_multiset(gens))

    def test_basis_elements_split_the_identity(self, corpus_member):
        """For each A_r, ``_split_idempotent`` splits the identity into
        polynomials in A_r that are mutually orthogonal idempotents summing
        to it and commuting with A_r, or leaves it whole."""
        name, gens = corpus_member
        _, consts = constants_for(gens)
        one = splitter._basis_vector(consts.rank, 0)
        for r in range(1, consts.rank):
            y = splitter._basis_vector(consts.rank, r)
            parts = splitter._split_idempotent(consts, one, y)
            assert parts is not None, f"A_{r + 1} has a repeated root"
            assert [sum(col, fe(0)) for col in zip(*parts)] == one
            _assert_orthogonal_idempotents(consts, parts)
            for e in parts:
                assert algebra_product(consts, e, y) == algebra_product(consts, y, e)


class TestDimensionLoop:
    def test_loop_alone_matches_the_split(self, corpus_member):
        """Seeded with no exact idempotent, the dimension loop finds the
        oracle's dimensions, slices only at even Hilbert dimensions, and
        its family matches the split's."""
        name, gens = corpus_member
        alone = groebner_split(name)
        assert alone.dimension_multiset == dimension_multiset(gens)
        assert any(e.hilbert is not None for e in alone.events)
        _assert_slicing_events(alone.events)
        assert verify.compare_to_reference(corpus_split(name), alone).passed

    def test_loop_completes_a_partial_seed(self, corpus_member):
        """Seeded with every second exact idempotent, the loop keeps the
        seeds unchanged and completes them to a certified family that
        matches the split's."""
        name, gens = corpus_member
        basis, consts = constants_for(gens)
        seeds = splitter._split_linear(basis, consts, SplitConfig())[::2]
        deco = splitter._split_over(basis, consts, SplitConfig(), seeds)
        splitter._pair_conjugates(deco)
        assert deco.dimension_multiset == dimension_multiset(gens)
        assert {p.coefficients for p in seeds} <= {p.coefficients for p in deco.projectors}
        _assert_slicing_events(deco.events)
        assert verify.compare_to_reference(corpus_split(name), deco).passed

    def test_non_primitive_seed_fails_the_certificate(self, monkeypatch):
        """S5 on pairs is 1 + 4 + 5.  Seeded with the trivial projector and
        the sum of the other two, the seeds already sum to N, so the loop
        does not run; only the primitivity certificate rejects the family."""
        gens = pair_action(symmetric(5), 5)
        basis, consts = constants_for(gens)
        trivial, four, five = split(gens).projectors
        merged = Projector(
            tuple(a + b for a, b in zip(four.coefficients, five.coefficients)),
            9, "uniqueSolution",
        )

        def no_groebner(polys):
            raise AssertionError("the dimension loop ran")

        monkeypatch.setattr(splitter, "groebner_basis", no_groebner)
        with pytest.raises(InvariantViolation) as info:
            splitter._split_over(basis, consts, SplitConfig(), [trivial, merged])
        assert str(info.value) == "split family fails its certificate: primitivity B[2]"


def _matrix_to_basis_coeffs(mat, basis):
    """Read exact basis coefficients off representative entries; None when
    the matrix is not constant on some orbital."""
    coeffs = []
    for r in range(1, basis.rank + 1):
        j = basis.suborbit_members(r)[0]
        coeffs.append(FE.from_rational(Fraction(mat[0][j - 1])))
    # cross-check a second representative for safety
    for r in range(1, basis.rank + 1):
        for j in basis.suborbit_members(r)[:2]:
            if Fraction(mat[0][j - 1]) != coeffs[r - 1].rational_value():
                return None
    return tuple(coeffs)
