import dataclasses
import functools
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
from permsplit import exactfield, splitter, verify
from permsplit.cli import main, render_decomposition_text
from permsplit.errors import IncompleteDecomposition, SliceExhausted
from permsplit.exactfield import ComplexBall, _decoded, as_ball
from permsplit.polynomial import Ring, groebner_basis
from permsplit.solver import SolutionPoint
from permsplit.splitter import (
    Projector,
    SplitEvent,
    _SplitState,
    algebra_product,
    build_orthogonality_system_right,
    process_single_solution,
)

from conftest import (
    CORPUS,
    GROEBNER_ONLY,
    alternating,
    corpus_split,
    cyclic,
    dihedral,
    duplicate_first_projector,
    element,
    frobenius20,
    groebner_route,
    groebner_split,
    orbit_action,
    pair_action,
    petersen,
    regular_action,
    set_action,
    symmetric,
)
import golay
from oracles import (
    centre_basis_by_definition,
    dimension_multiset,
    idempotency_system_by_definition,
    orthogonality_forms_by_definition,
    petersen_eigenprojectors,
    row_reduce_by_definition,
    s3_character_projectors,
)

FE = FieldElement


def fe(q):
    return FE.from_rational(Fraction(q))


def constants_for(gens):
    basis = compute_orbitals(gens)
    return basis, compute_structure_constants(gens, basis)


# right-regular actions beyond the corpus, with their numbers of conjugacy classes
REGULAR = {
    "S4": (lambda: symmetric(4), 5),
    "F20": (frobenius20, 5),
    "A5": (lambda: alternating(5), 5),
}


@functools.cache
def regular_constants(name):
    return constants_for(regular_action(REGULAR[name][0]()))


class TestIdempotencySystem:
    def test_s3(self):
        _, consts = constants_for(symmetric(3))
        polys = build_idempotency_system(consts)
        r = polys[0].ring
        x1, x2 = Poly.variable(r, 0), Poly.variable(r, 1)
        assert polys[0] == x1 * x1 + x2 * x2 * 2 - x1
        assert polys[1] == x1 * x2 * 2 + x2 * x2 - x2

    def test_petersen_e1(self):
        _, consts = constants_for(petersen())
        polys = build_idempotency_system(consts)
        r = polys[0].ring
        x1, x2, x3 = (Poly.variable(r, i) for i in range(3))
        assert polys[0] == x1 * x1 + x2 * x2 * 3 + x3 * x3 * 6 - x1

    def test_trivial_rank_one(self):
        g = GeneratorSet(1, (Permutation.identity(1),))
        _, consts = constants_for(g)
        polys = build_idempotency_system(consts)
        x1 = Poly.variable(polys[0].ring, 0)
        assert polys == [x1 * x1 - x1]


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


@pytest.mark.parametrize("name", [name for name, _ in CORPUS])
def test_systems_match_their_definitions(name):
    """The loop's systems, coordinates of X·X - X, B·X and X·B, equal the
    polynomials read entry by entry off the tensor, for every exact
    projector of the action's split."""
    _, consts = constants_for(dict(CORPUS)[name])
    assert build_idempotency_system(consts) == idempotency_system_by_definition(consts)
    for p in corpus_split(name).projectors:
        if not p.exact:
            continue
        b = p.coefficients
        assert build_orthogonality_system(consts, b) == (
            orthogonality_forms_by_definition(consts, b, "left")
        )
        assert build_orthogonality_system_right(consts, b) == (
            orthogonality_forms_by_definition(consts, b, "right")
        )


class TestProcessSingleSolution:
    def _state(self, gens):
        basis, consts = constants_for(gens)
        return _SplitState(basis, consts, SplitConfig())

    def test_accepts_valid_projector(self):
        state = self._state(symmetric(3))
        b1 = Projector((fe(Fraction(1, 3)), fe(Fraction(1, 3))), 1, "uniqueSolution")
        process_single_solution(state, b1)
        assert len(state.projectors) == 1
        assert state.forms

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
        ring = state.polys[0].ring
        x2, x3 = Poly.variable(ring, 1), Poly.variable(ring, 2)
        one, two = x2 - x3, x2 - x3 * 2
        assert hash(one) == hash(two)
        monkeypatch.setattr(splitter, "build_orthogonality_system", lambda c, b: [one])
        monkeypatch.setattr(splitter, "build_orthogonality_system_right", lambda c, b: [two])
        b1 = Projector(
            coefficients=(fe(Fraction(1, 10)),) * 3, dimension=1, provenance="uniqueSolution"
        )
        process_single_solution(state, b1)
        assert one in state.forms
        assert two in state.forms

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

    def test_numeric_filter_on_c5(self):
        """The dimension loop alone leaves C5's four nontrivial projectors
        numeric.  With B1 of them accepted, the filter rejects the candidates
        that B1 does not annihilate, B1 and B1 + B2, and accepts B2, B3, B4
        and B3 + B4."""
        state = self._state(cyclic(5))
        b = [p for p in groebner_split("C5_natural").projectors if not p.exact]
        assert len(b) == 4
        process_single_solution(state, b[0])

        def accepted(*projectors):
            total = verify._coefficient_sum(projectors, state.basis.rank, b[0].precision)
            return state.accept_candidate(SolutionPoint(tuple(total), b[0].precision))

        assert not accepted(b[0]) and not accepted(b[0], b[1])
        assert accepted(b[1]) and accepted(b[2]) and accepted(b[3]) and accepted(b[2], b[3])

    def test_s3_d2_forced_linearly(self):
        state = self._state(symmetric(3))
        b1 = Projector((fe(Fraction(1, 3)), fe(Fraction(1, 3))), 1, "uniqueSolution")
        process_single_solution(state, b1)
        basis = groebner_basis(state.d_system(2))
        r = basis[0].ring
        x1, x2 = Poly.variable(r, 0), Poly.variable(r, 1)
        assert basis == [x1 - Fraction(2, 3), x2 + Fraction(1, 3)]


def _split_library(tmp_path, capsys):
    """The message of the IncompleteDecomposition that ``split`` raises."""
    with pytest.raises(IncompleteDecomposition) as err:
        split(cyclic(5))
    return str(err.value)


def _split_command(tmp_path, capsys):
    """The message of ``permsplit split``'s exit 4, which it prints for an
    IncompleteDecomposition as for any error of the package not named."""
    path = tmp_path / "c5.gens"
    path.write_text("degree 5\ngen (1,2,3,4,5)\n")
    assert main(["split", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err.removeprefix("internal invariant violation: ").rstrip("\n")


@pytest.mark.parametrize("run", [_split_library, _split_command], ids=["split", "permsplit-split"])
def test_a_dimension_loop_that_finds_nothing_is_incomplete(run, tmp_path, capsys, monkeypatch):
    """C5 natural leaves its four numeric projectors to the dimension loop;
    with the loop doing nothing the split ends in IncompleteDecomposition."""
    monkeypatch.setattr(splitter, "_run_dimension", lambda state, d: None)
    assert run(tmp_path, capsys) == "dimensions exhausted with 1/5 found"


class TestDimensionLoopExits:
    """The exits of ``_run_dimension`` that no corpus input reaches."""

    def _state(self, gens):
        basis, consts = constants_for(gens)
        return _SplitState(basis, consts, SplitConfig())

    @staticmethod
    def _exhausted(*args, **kwargs):
        raise SliceExhausted("no particular solution within 8 slice attempts")

    def test_every_point_filtered(self, monkeypatch):
        """A zero-dimensional system whose every point the numeric filter
        rejects ends d with a "filtered" event and no projector."""
        state = self._state(symmetric(3))
        monkeypatch.setattr(_SplitState, "accept_candidate", lambda self, point: False)
        splitter._run_dimension(state, 1)
        assert state.events == [SplitEvent(1, "filtered", 0, 0)]
        assert state.projectors == []

    def test_slices_exhausted_against_numeric_projectors(self, monkeypatch):
        """With a numeric projector accepted, running out of slice attempts
        ends the block at d with a "filtered" event and moves on to d + 1:
        numeric projectors leave the d-system as it was, so slices against
        a complete block can only be rejected."""
        state = self._state(regular_action(symmetric(3)))
        trivial = tuple(as_ball(fe(Fraction(1, 6)), 128) for _ in range(6))
        process_single_solution(state, Projector(trivial, 1, "uniqueSolution"))
        monkeypatch.setattr(splitter, "particular_solution_on_slice", self._exhausted)
        splitter._run_dimension(state, 2)
        assert state.events == [SplitEvent(2, "filtered", 2, 0)]
        assert len(state.projectors) == 1

    def test_slices_exhausted_without_numeric_projectors(self, monkeypatch):
        """With no numeric projector accepted, SliceExhausted propagates."""
        state = self._state(regular_action(symmetric(3)))
        monkeypatch.setattr(splitter, "particular_solution_on_slice", self._exhausted)
        with pytest.raises(SliceExhausted, match=r"at d=2 \(Hilbert dimension 2\)$"):
            splitter._run_dimension(state, 2)
        assert state.events == []

    def test_a_slice_that_completes_the_family_ends_the_loop(self, monkeypatch):
        """Regular D5 on the dimension loop alone (about 3 s): its fourth
        slice at d = 2 brings the dimensions found to 10 of 10, and the
        loop ends there instead of slicing again."""
        groebner, calls = splitter.groebner_basis, []

        def counted(system):
            calls.append(system)
            return groebner(system)

        monkeypatch.setattr(splitter, "groebner_basis", counted)
        deco = groebner_route(regular_action(dihedral(5)))
        assert [(e.d, e.kind) for e in deco.events] == [(1, "solutions")] + [(2, "slice")] * 4
        # one basis for each of d = 1, 2: the sliced projectors are numeric,
        # so the d-system keeps its basis
        assert len(calls) == 2
        dims = [(p.dimension, p.exact) for p in deco.projectors]
        assert dims == [(1, True)] * 2 + [(2, False)] * 4

    def test_numeric_block_ends_before_the_last_dimension(self, monkeypatch):
        """S4 on the 12 pairs of disjoint arcs (point stabilizer (12)(34)):
        characters of degree 1, 1, 2, 3, 3, the 2 twice.  With numeric
        coordinates for every sliced point, the block of the 2 ends when its
        slices run out against its two numeric projectors, and d = 3
        completes a family that passes the certificate."""
        gens = orbit_action(
            symmetric(4), frozenset({(1, 3), (2, 4)}),
            lambda g, arcs: frozenset((g.apply(a), g.apply(b)) for a, b in arcs),
        )
        slice_exactly = splitter.particular_solution_on_slice

        def numeric(point, precision):
            # the trace coordinate stays exact, as in every solver point
            values = point.values[:1] + tuple(as_ball(v, precision) for v in point.values[1:])
            return dataclasses.replace(point, values=values)

        def slice_numerically(gb, precision, accept):
            return numeric(slice_exactly(
                gb, precision=precision, accept=lambda p: accept(numeric(p, precision))
            ), precision)

        groebner, calls = splitter.groebner_basis, []

        def counted(system):
            calls.append(system)
            return groebner(system)

        monkeypatch.setattr(splitter, "_split_linear", lambda basis, consts, config: [])
        monkeypatch.setattr(splitter, "particular_solution_on_slice", slice_numerically)
        monkeypatch.setattr(splitter, "groebner_basis", counted)
        deco = split(gens)
        # one basis for each of d = 1, 2, 3: a numeric projector leaves the
        # d-system as it was, so the block of the 2 is sliced from one basis
        assert len(calls) == 3
        assert SplitEvent(2, "filtered", 2, 0) in deco.events
        assert [(p.dimension, p.exact) for p in deco.projectors] == [
            (1, True), (1, True), (2, False), (2, False), (3, True), (3, True)
        ]


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
        # computed before the patch: ``groebner_split`` caches its first result
        want = render_decomposition_text(groebner_split("S3_regular"))

        def as_if_k4(gb):
            return 6 if real(gb) else 0

        monkeypatch.setattr(splitter, "hilbert_dimension", as_if_k4)
        deco = groebner_route(regular_action(symmetric(3)))
        assert [e.hilbert for e in deco.events if e.kind == "slice"] == [6]
        assert render_decomposition_text(deco) == want

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

    def test_a5_regular(self):
        """Regular A5 (rank 60) holds its irreducibles of dimensions 1, 3, 3,
        4 and 5 as often as their dimensions.  Its block idempotents need
        sqrt(5) and sqrt(13), so their products meet sqrt(65) =
        sqrt(5) sqrt(13); every coefficient stays exact."""
        basis, consts = regular_constants("A5")
        deco = splitter.split_from_constants(basis, consts)
        assert deco.dimension_multiset == [1] + [3] * 6 + [4] * 4 + [5] * 5
        assert deco.exact_only()
        assert verify.verify_family_algebraic(consts, deco).passed
        radicands = {r for p in deco.projectors for c in p.coefficients for r in c.terms}
        assert radicands == {1, 5, 13}

    def test_m24_on_its_octads(self):
        """M24 on its 759 octads, a second input from the paper's family:
        rank 4 (two octads meet in 8, 4, 2 or 0 points) and multiplicity
        free, 759 = 1 + 23 + 252 + 483, every projector exact."""
        gens = golay.m24_octads()
        basis, consts = constants_for(gens)
        assert sorted(basis.lengths_in_order()) == [1, 30, 280, 448]
        deco = split(gens)
        assert deco.dimension_multiset == [1, 23, 252, 483]
        assert deco.exact_only()
        assert verify.verify_family_algebraic(consts, deco).passed

    def test_johnson_24_4(self):
        """J(24,4): S24 on its 10,626 4-sets, rank 5, whose orbital stage
        ends at the suborbit certificate; 10626 = 1 + 23 + 252 + 1748 +
        8602, each C(24,i) - C(24,i-1), every projector exact."""
        gens = set_action(symmetric(24), 24, 4)
        basis, consts = constants_for(gens)
        assert basis.lengths_in_order() == [1, 80, 1140, 4560, 4845]
        deco = splitter.split_from_constants(basis, consts)
        assert deco.dimension_multiset == [1, 23, 252, 1748, 8602]
        assert deco.exact_only()
        assert verify.verify_family_algebraic(consts, deco).passed

    @pytest.mark.parametrize("name", sorted(REGULAR))
    def test_regular_centre_is_the_class_sums(self, name):
        """The centre of a group algebra is spanned by its class sums, so its
        dimension is the number of conjugacy classes; the fraction-free
        elimination returns the reduced basis of the Fraction one."""
        _, consts = regular_constants(name)
        centre = [_decoded(z) for z in splitter._centre_basis(consts)]
        assert len(centre) == REGULAR[name][1]
        assert centre == centre_basis_by_definition(consts)

    def test_centre_matches_fraction_elimination(self, corpus_member):
        _, consts = constants_for(corpus_member[1])
        centre = [_decoded(z) for z in splitter._centre_basis(consts)]
        assert centre == centre_basis_by_definition(consts)

    @pytest.mark.parametrize("seed", range(6))
    def test_row_reduction_past_int64(self, seed):
        """Entries near 2^40 overflow int64 within a step or two, so the
        elimination goes on in Python ints; rows scaled to their pivots are
        the Fraction elimination's reduced rows."""
        rng = np.random.default_rng(seed)
        matrix = rng.integers(-(1 << 40), 1 << 40, size=(9, 7))
        matrix[3] = 2 * matrix[1] - 5 * matrix[0]  # a dependent row
        matrix[:, 4] = matrix[:, 2] - matrix[:, 6]  # a dependent column
        most = 6 + seed % 2  # the rank is at most 6; fewer pivots would depend on the row order
        want = row_reduce_by_definition(matrix, most)
        got = splitter._integer_row_reduce([matrix], most)
        assert sorted(got) == sorted(want)
        for col, row in got.items():
            assert [Fraction(int(x), int(row[col])) for x in row] == want[col]

    # ``_product`` calls of ``_split_linear``: a part that has met every
    # element since it was made without splitting is not multiplied again,
    # and no part is multiplied by A_1
    LINEAR_PRODUCTS = {"C5_natural": 25, "C7_natural": 49, "C9_natural": 103, "D7_natural": 16}

    @pytest.mark.parametrize("name", sorted(LINEAR_PRODUCTS))
    def test_final_pass_multiplies_each_part_once(self, name, monkeypatch):
        basis, consts = constants_for(dict(CORPUS)[name])
        calls = []
        real = splitter._product

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(splitter, "_product", counted)
        splitter._split_linear(basis, consts, SplitConfig())
        assert len(calls) == self.LINEAR_PRODUCTS[name]

    @pytest.mark.parametrize("group", [lambda: alternating(4), lambda: alternating(5)], ids=["A4", "A5"])
    def test_vectors_decoded_once_per_projector(self, group, monkeypatch):
        """Regular A4 and A5: the linear route decodes a whole vector once
        per projector it returns, and encodes none while it refines."""
        basis, consts = constants_for(regular_action(group()))
        decoded, encoded, refining = [], [], []
        real_decoded, real_refine = splitter._decoded, splitter._refine

        def spy_decoded(x, *ps):
            values = real_decoded(x, *ps)
            if len(values) == consts.rank:
                decoded.append(1)
            return values

        def spy_encode(real):
            def counted(vectors):
                if refining:
                    encoded.extend(len(v) for v in vectors)
                return real(vectors)

            return counted

        def spy_refine(*args):
            refining.append(1)
            try:
                return real_refine(*args)
            finally:
                refining.pop()

        monkeypatch.setattr(splitter, "_decoded", spy_decoded)
        monkeypatch.setattr(splitter, "_refine", spy_refine)
        monkeypatch.setattr(exactfield, "_encode", spy_encode(exactfield._encode))
        monkeypatch.setattr(verify, "_encode", spy_encode(verify._encode))
        projectors = splitter._split_linear(basis, consts, SplitConfig())
        assert sum(p.dimension for p in projectors) == basis.degree
        assert len(decoded) == len(projectors)
        assert consts.rank not in encoded

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
                shift = basis.suborbit_representative[r] - 1
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
        parts = splitter._split_idempotent(consts, element(one), element(a2))
        assert [_decoded(part) for part in parts] == [
            [fe(Fraction(1, 5))] * 5,
            [fe(Fraction(4, 5))] + [fe(Fraction(-1, 5))] * 4,
        ]

    def test_failed_certificate_raises_instead_of_falling_back(self, monkeypatch):
        """An exact family that fails its certificate is a bug, not a reason
        to run the dimension loop."""
        real = verify.verify_family_algebraic

        def one_check_fails(consts, deco, precision):
            report = real(consts, deco, precision)
            report.add("planted check", False)
            return report

        def no_groebner(polys):
            raise AssertionError("the dimension loop ran")

        monkeypatch.setattr(verify, "verify_family_algebraic", one_check_fails)
        monkeypatch.setattr(splitter, "groebner_basis", no_groebner)
        with pytest.raises(InvariantViolation, match="planted check"):
            split(regular_action(symmetric(3)))

    def test_block_size_of_a_non_idempotent_raises(self):
        """S3 on three points: E = (A_1 + A_2)/3 is the trivial projector,
        with k = d = 1; for 2E, tr(L_E) = 2 is no k^2."""
        _, consts = constants_for(symmetric(3))
        left_traces = np.einsum("pqq->p", consts.tensor).tolist()
        trivial = [fe(Fraction(1, 3)), fe(Fraction(1, 3))]
        assert splitter._block_size(element(trivial), left_traces, 3) == (1, 1)
        with pytest.raises(InvariantViolation, match=r"tr\(L_E\) = 2 "):
            splitter._block_size(element([x * 2 for x in trivial]), left_traces, 3)

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
        """For each A_r, the minimal polynomial m is squarefree (m and m'
        generate the unit ideal), and ``_split_idempotent`` splits the
        identity into polynomials in A_r that are mutually orthogonal
        idempotents summing to it and commuting with A_r, or leaves it
        whole."""
        name, gens = corpus_member
        _, consts = constants_for(gens)
        one = verify._basis_vector(consts.rank, 0)
        ring = Ring(("t",))
        for r in range(1, consts.rank):
            y = verify._basis_vector(consts.rank, r)
            m, _ = splitter._minimal_polynomial(consts, element(one), element(y))
            dm = [i * c for i, c in enumerate(m)][1:]
            assert groebner_basis([
                Poly(ring, {(i,): c for i, c in enumerate(f)}) for f in (m, dm)
            ]) == [Poly.one(ring)], f"A_{r + 1} has a repeated root"
            parts = splitter._split_idempotent(consts, element(one), element(y))
            parts = [_decoded(part) for part in parts]
            assert [sum(col, fe(0)) for col in zip(*parts)] == one
            _assert_orthogonal_idempotents(consts, parts)
            for e in parts:
                assert algebra_product(consts, e, y) == algebra_product(consts, y, e)

    def test_repeated_root_and_multiple_of_e(self):
        """Regular S3: with E the central idempotent of the 2-dimensional
        block, f a primitive idempotent under it and n = f A_r (E - f) != 0,
        y = E + n has minimal polynomial (t - 1)^2 in EAE.  Nothing splits E,
        and y is no multiple of E, so refining E by y alone keeps no part;
        3E is a multiple of E.  In the whole algebra, 1 + n + P with P a
        linear projector has minimal polynomial (t - 1)^2 (t - 2): its two
        tower roots give no Lagrange idempotents, since 1 is repeated."""
        basis, consts = constants_for(regular_action(symmetric(3)))
        linear = splitter._split_linear(basis, consts, SplitConfig())
        block = [p.coefficients for p in linear if p.block == 2]
        assert len(block) == 2
        e = [a + b for a, b in zip(*block)]
        f = list(block[0])
        rest = [a - b for a, b in zip(e, f)]
        zero = [fe(0)] * consts.rank
        products = (
            algebra_product(
                consts, algebra_product(consts, f, verify._basis_vector(consts.rank, r)), rest
            )
            for r in range(1, consts.rank)
        )
        n = next(p for p in products if p != zero)
        y = [a + b for a, b in zip(e, n)]
        e, y, three_e = element(e), element(y), element([3 * a for a in e])
        assert splitter._minimal_polynomial(consts, e, y)[0] == [fe(1), fe(-2), fe(1)]
        assert splitter._split_idempotent(consts, e, y) == [e]
        assert splitter._refine(consts, [e], [lambda part: y], 2) == []
        assert splitter._split_idempotent(consts, e, three_e) == []

        one = verify._basis_vector(consts.rank, 0)
        projector = next(p.coefficients for p in linear if p.block is None)
        z = [a + b + c for a, b, c in zip(one, n, projector)]
        one, z = element(one), element(z)
        assert splitter._minimal_polynomial(consts, one, z)[0] == [
            fe(-2), fe(5), fe(-4), fe(1)
        ]
        assert splitter._split_idempotent(consts, one, z) == [one]


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

    # (d, kind, hilbert, extracted) of every event, for ``split`` on the
    # actions whose exact idempotents fall short, and for the loop alone
    LOOP_EVENTS = {
        "C5_natural": [(1, "solutions", None, 1), (1, "solutions", 0, 4)],
        "C7_natural": [(1, "solutions", None, 1), (1, "solutions", 0, 6)],
        "C9_natural": [(1, "solutions", None, 3), (1, "solutions", 0, 6)],
        "D7_natural": [
            (1, "solutions", None, 1), (1, "inconsistent", None, 0), (2, "solutions", 0, 3),
        ],
        "S3_regular/loop": [(1, "solutions", 0, 2), (2, "slice", 2, 1), (2, "solutions", 0, 1)],
        "D4_regular/loop": [(1, "solutions", 0, 4), (2, "slice", 2, 1), (2, "solutions", 0, 1)],
        "Q8_regular/loop": [(1, "solutions", 0, 4), (2, "slice", 2, 1), (2, "solutions", 0, 1)],
        "C2wrC3/loop": [
            (1, "solutions", 0, 3), (2, "inconsistent", None, 0), (3, "solutions", 0, 1),
        ],
    }

    @pytest.mark.parametrize("key", sorted(LOOP_EVENTS))
    def test_event_logs_are_pinned(self, key):
        """The report hashes do not cover the split's events; these pin the
        dimensions the loop tried, what each system gave, and its Hilbert
        dimension."""
        name, _, alone = key.partition("/")
        deco = groebner_split(name) if alone else corpus_split(name)
        got = [(e.d, e.kind, e.hilbert, e.extracted) for e in deco.events]
        assert got == self.LOOP_EVENTS[key]

    def test_one_point_action(self):
        """Rank 1: after x_1 = 1 the idempotency system has nothing left,
        and the single solution is the identity."""
        deco = groebner_route(GeneratorSet(1, (Permutation.identity(1),)))
        assert [(e.d, e.kind, e.hilbert, e.extracted) for e in deco.events] == [
            (1, "solutions", 0, 1)
        ]
        assert [p.coefficients for p in deco.projectors] == [(fe(1),)]

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
