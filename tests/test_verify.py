import copy
import dataclasses
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from permsplit import (
    ComplexBall,
    FieldElement,
    GeneratorSet,
    MatrixCapExceeded,
    Permutation,
    compute_orbitals,
    compute_structure_constants,
    split,
    verify_family_algebraic,
    verify_matrix_level,
    compare_to_reference,
)
from permsplit.splitter import Decomposition, Projector, SplitConfig, split_from_constants
from permsplit.verify import (
    _coefficient_sum,
    orbital_label_matrix,
    tensor_from_label_matrix,
)

from conftest import (
    CORPUS,
    affine,
    corpus_split,
    cyclic,
    groebner_split,
    pair_action,
    petersen,
    primitive_root,
    regular_action,
    symmetric,
)

FE = FieldElement


def fe(q):
    return FE.from_rational(Fraction(q))


def split_with_constants(gens):
    basis = compute_orbitals(gens)
    consts = compute_structure_constants(gens, basis)
    return basis, consts, split(gens)


def corpus_with_constants(name, gens):
    """Like split_with_constants, with the session-cached corpus split."""
    basis = compute_orbitals(gens)
    consts = compute_structure_constants(gens, basis)
    return basis, consts, corpus_split(name)


def _family(consts, degree, vectors, dims):
    return Decomposition(
        degree=degree,
        rank=consts.rank,
        projectors=[
            Projector(
                coefficients=tuple(v),
                dimension=d,
                provenance="uniqueSolution",
            )
            for v, d in zip(vectors, dims)
        ],
        suborbit_lengths=[],
    )


def _tweak(deco, m, r, delta=Fraction(1, 7), flip=False):
    out = copy.deepcopy(deco)
    p = out.projectors[m]
    coeffs = list(p.coefficients)
    coeffs[r] = -coeffs[r] if flip else coeffs[r] + fe(delta)
    out.projectors[m] = Projector(
        coefficients=tuple(coeffs),
        dimension=p.dimension,
        provenance=p.provenance,
        precision=p.precision,
        block=p.block,
        conjugate_of=p.conjugate_of,
    )
    return out


class TestAlgebraic:
    def test_s3_passes(self):
        _, consts, deco = split_with_constants(symmetric(3))
        report = verify_family_algebraic(consts, deco)
        assert report.passed
        assert any("idempotency" in c.name for c in report.checks)

    def test_tampered_sign_fails_with_witness(self):
        _, consts, deco = split_with_constants(symmetric(3))
        bad = _tweak(deco, 1, 1, flip=True)
        report = verify_family_algebraic(consts, bad)
        failures = report.failures()
        assert failures
        assert any("idempotency B[2]" in c.name and "r=2" in c.witness for c in failures)

    def test_identity_vector_fails_only_primitivity(self):
        """{A1} is idempotent and complete, but dim A1 A A1 = R."""
        gens = petersen()
        basis = compute_orbitals(gens)
        consts = compute_structure_constants(gens, basis)
        identity = _family(consts, 10, [(fe(1), fe(0), fe(0))], [10])
        failures = verify_family_algebraic(consts, identity).failures()
        assert [(c.name, c.witness) for c in failures] == [
            ("primitivity B[1]", "dim B A B = 3")
        ]

    def test_s3_identity_family_fails(self):
        gens = symmetric(3)
        basis = compute_orbitals(gens)
        consts = compute_structure_constants(gens, basis)
        identity = _family(consts, 3, [(fe(1), fe(0))], [3])
        failures = verify_family_algebraic(consts, identity).failures()
        assert [c.name for c in failures] == ["primitivity B[1]"]

    def test_sum_of_two_projectors_fails(self):
        _, consts, deco = split_with_constants(petersen())
        b1, b2, b3 = deco.projectors
        merged = tuple(x + y for x, y in zip(b2.coefficients, b3.coefficients))
        family = _family(
            consts, 10, [b1.coefficients, merged], [b1.dimension, b2.dimension + b3.dimension]
        )
        failures = verify_family_algebraic(consts, family).failures()
        assert [(c.name, c.witness) for c in failures] == [
            ("primitivity B[2]", "dim B A B = 2")
        ]

    def test_sum_of_irreducibles_fails_only_primitivity(self):
        """S5 on pairs is 1 + 4 + 5.  The family {e_1, e_4 + e_5} is
        complete, orthogonal and idempotent, with traces 1 and 9; only the
        primitivity certificate tells e_4 + e_5 from an irreducible."""
        _, consts, deco = split_with_constants(pair_action(symmetric(5), 5))
        e1, e4, e5 = deco.projectors
        assert [e1.dimension, e4.dimension, e5.dimension] == [1, 4, 5]
        merged = tuple(x + y for x, y in zip(e4.coefficients, e5.coefficients))
        family = _family(consts, 10, [e1.coefficients, merged], [1, 9])
        failures = verify_family_algebraic(consts, family).failures()
        assert [c.name for c in failures] == ["primitivity B[2]"]

    def test_primitivity_of_numeric_projectors(self):
        """C5 keeps the quartic coordinates numeric; the trace is then an
        enclosure of 1 narrower than 1."""
        _, consts, deco = split_with_constants(cyclic(5))
        assert not deco.exact_only()
        report = verify_family_algebraic(consts, deco)
        lines = [c for c in report.checks if c.name.startswith("primitivity")]
        assert report.passed and len(lines) == len(deco.projectors) == 5

    def test_completeness_sum_keeps_the_coefficient_precision(self):
        """C9 keeps 6 of 9 projectors numeric, with coefficient radii near
        1e-42; their sum is taken at the checks' working precision, not at
        mpmath's default 53 bits, so no entry is wider than 2^-128."""
        gens = dict(CORPUS)["C9_natural"]
        basis, consts, deco = corpus_with_constants("C9_natural", gens)
        total = _coefficient_sum(deco.projectors, basis.rank, 128)
        assert all(isinstance(x, ComplexBall) for x in total)
        assert max(x.rad for x in total) < mpmath.mpf(2) ** -128
        algebraic = verify_family_algebraic(consts, deco).checks
        matrix = verify_matrix_level(gens, basis, deco).checks
        assert [c.passed for c in algebraic if c.name == "completeness sum(B) = A1"] == [True]
        assert [
            c.passed for c in matrix if c.name == "completeness sum(B) = I (matrix)"
        ] == [True]

    @pytest.mark.parametrize(
        "builder", [symmetric(3), petersen(), cyclic(4), regular_action(symmetric(3))],
        ids=["S3", "petersen", "C4", "S3_regular"],
    )
    def test_acceptance_decompositions_are_primitive(self, builder):
        _, consts, deco = split_with_constants(builder)
        report = verify_family_algebraic(consts, deco)
        names = [c.name for c in report.checks if c.name.startswith("primitivity")]
        assert report.passed
        assert names == [f"primitivity B[{m}]" for m in range(1, len(deco.projectors) + 1)]

    def test_every_single_coefficient_perturbation_fails(self, corpus_member):
        name, gens = corpus_member
        if gens.degree > 8:
            pytest.skip("keep the negative-control sweep small")
        basis, consts, deco = corpus_with_constants(name, gens)
        if not deco.exact_only():
            pytest.skip("perturbation sweep is for exact decompositions")
        for m in range(len(deco.projectors)):
            for r in range(basis.rank):
                bad = _tweak(deco, m, r)
                assert not verify_family_algebraic(consts, bad).passed, (m, r)


    @pytest.mark.parametrize("name", ["A5_petersen", "C9_natural"])
    def test_commutative_algebra_halves_orthogonality_products(self, name, monkeypatch):
        """B_i*B_j = B_j*B_i when the algebra is commutative, so each
        unordered pair is multiplied once; the report lines do not change."""
        import permsplit.verify as verify_module

        _, consts, deco = corpus_with_constants(name, dict(CORPUS)[name])
        assert consts.is_commutative()
        calls = []
        real = verify_module.algebra_product

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(verify_module, "algebra_product", counted)
        lines = verify_family_algebraic(consts, deco).lines()
        commutative_calls = len(calls)
        calls.clear()
        monkeypatch.setattr(type(consts), "is_commutative", lambda self: False)
        assert verify_family_algebraic(consts, deco).lines() == lines
        m = len(deco.projectors)
        assert len(calls) - commutative_calls == m * (m - 1) // 2


class TestMatrixLevel:
    def test_petersen_exact(self):
        gens = petersen()
        basis, consts, deco = split_with_constants(gens)
        report = verify_matrix_level(gens, basis, deco, mode="exact")
        assert report.passed
        traces = [c for c in report.checks if c.name.startswith("trace")]
        assert len(traces) == 3

    def test_c4_numeric_traces(self):
        gens = cyclic(4)
        basis, consts, deco = split_with_constants(gens)
        report = verify_matrix_level(gens, basis, deco, mode="numeric")
        assert report.passed
        assert sum(1 for c in report.checks if c.name.startswith("trace")) == 4

    def test_cap(self):
        gens = petersen()
        basis, consts, deco = split_with_constants(gens)
        with pytest.raises(MatrixCapExceeded):
            verify_matrix_level(gens, basis, deco, matrix_cap=5)

    def test_agreement_with_algebraic(self, corpus_member):
        """Algebraic pass and matrix-level pass agree on the corpus, numeric
        decompositions included."""
        name, gens = corpus_member
        basis, consts, deco = corpus_with_constants(name, gens)
        algebraic = verify_family_algebraic(consts, deco).passed
        matrix = verify_matrix_level(gens, basis, deco).passed
        assert algebraic and matrix

    def test_tampered_fails_at_matrix_level(self):
        gens = symmetric(3)
        basis, consts, deco = split_with_constants(gens)
        bad = _tweak(deco, 1, 1, flip=True)
        report = verify_matrix_level(gens, basis, bad, mode="exact")
        assert [c.name for c in report.failures()] == [
            "idempotency B[2]^2 = B[2] (matrix)",
            "completeness sum(B) = I (matrix)",
        ]

    def test_swapped_labels_fail_invariance(self):
        """Two points of different suborbits trade orbital labels: the
        label matrix is no longer G-invariant."""
        gens = petersen()
        basis, consts, deco = split_with_constants(gens)
        sidx0 = basis.sidx0.copy()
        a = basis.suborbit_members(2)[0] - 1
        b = basis.suborbit_members(3)[0] - 1
        sidx0[a], sidx0[b] = sidx0[b], sidx0[a]
        bad = dataclasses.replace(basis, sidx0=sidx0)
        report = verify_matrix_level(gens, bad, deco)
        invariance = [c for c in report.checks if c.name.startswith("invariance")]
        assert [c.passed for c in invariance] == [False]
        assert not report.passed

    def test_intransitive_generators_fail_invariance(self):
        """Invariance under a group fixing every point says nothing about
        the rows away from the base."""
        gens = petersen()
        basis, consts, deco = split_with_constants(gens)
        trivial = GeneratorSet(10, (Permutation.identity(10),))
        report = verify_matrix_level(trivial, basis, deco)
        invariance = [c for c in report.checks if c.name.startswith("invariance")]
        assert [c.passed for c in invariance] == [False]

    @pytest.mark.parametrize(
        "sidx0,failures",
        [
            # the known limit: differences {1, 4} and {2, 3} form the D5
            # scheme, a closed G-invariant fusion, indistinguishable here
            # from the full commutant
            ([1, 2, 3, 3, 2], []),
            # differences {1, 2} and {3, 4}: A^2 = C^2 + 2C^3 + C^4 is not
            # in the span, so the counts differ along the orbital
            ([1, 2, 2, 3, 3], ["closure", "idempotency"]),
            # the diagonal fused with differences {1, 4}
            ([1, 1, 3, 3, 1], ["diagonal", "closure", "trace", "idempotency", "completeness"]),
        ],
        ids=["closed", "unclosed", "diagonal"],
    )
    def test_c5_fusions(self, sidx0, failures):
        """G-invariant fusions of the C5 orbitals into three labels, checked
        with the family {I}."""
        gens = cyclic(5)
        fused = dataclasses.replace(compute_orbitals(gens), sidx0=np.array(sidx0), rank=3)
        identity = Decomposition(
            degree=5,
            rank=3,
            projectors=[Projector((fe(1), fe(0), fe(0)), 5, "uniqueSolution")],
            suborbit_lengths=[],
        )
        report = verify_matrix_level(gens, fused, identity)
        assert [c.name.split()[0] for c in report.failures()] == failures

    def test_wrong_dimension_fails_trace(self):
        gens = petersen()
        basis, consts, deco = split_with_constants(gens)
        p = deco.projectors[1]
        deco.projectors[1] = dataclasses.replace(p, dimension=p.dimension + 1)
        failures = verify_matrix_level(gens, basis, deco).failures()
        assert [c.name for c in failures] == [f"trace B[2] = {p.dimension + 1}"]

    def test_label_tensor_matches_structure_constants(self, corpus_member):
        name, gens = corpus_member
        basis = compute_orbitals(gens)
        consts = compute_structure_constants(gens, basis)
        labels = orbital_label_matrix(basis)
        table, consistent = tensor_from_label_matrix(labels, basis.base, basis.rank)
        assert consistent
        assert np.array_equal(table, consts.table)

    def test_affine_group_at_cap_scale(self):
        """AGL(1, 1999) on 1999 points, just under the default cap."""
        p = 1999
        gens = affine(p, primitive_root(p))
        basis = compute_orbitals(gens)
        consts = compute_structure_constants(gens, basis)
        deco = split_from_constants(basis, consts, SplitConfig())
        report = verify_matrix_level(gens, basis, deco)
        assert report.passed
        assert [c.name for c in report.checks][-1] == "completeness sum(B) = I (matrix)"


class TestCompare:
    def test_self_comparison(self, corpus_member):
        name, gens = corpus_member
        if gens.degree > 8:
            pytest.skip("representative subset")
        deco = corpus_split(name)
        assert compare_to_reference(deco, deco).passed

    def test_conjugated_family_matches(self):
        _, consts, deco = split_with_constants(cyclic(4))
        conj = copy.deepcopy(deco)
        for i, p in enumerate(conj.projectors):
            conj.projectors[i] = Projector(
                coefficients=tuple(c.conjugate() for c in p.coefficients),
                dimension=p.dimension,
                provenance=p.provenance,
            )
        assert compare_to_reference(deco, conj).passed

    def test_corrupted_coefficient_fails(self):
        _, consts, deco = split_with_constants(petersen())
        bad = _tweak(deco, 1, 2)
        report = compare_to_reference(deco, bad)
        assert not report.passed

    def test_reordered_equal_dimension_group_matches(self):
        _, consts, deco = split_with_constants(regular_action(symmetric(3)))
        shuffled = copy.deepcopy(deco)
        two = [i for i, p in enumerate(shuffled.projectors) if p.dimension == 2]
        a, b = two
        shuffled.projectors[a], shuffled.projectors[b] = (
            shuffled.projectors[b],
            shuffled.projectors[a],
        )
        assert compare_to_reference(deco, shuffled).passed

    def test_mismatched_basis_ordering_detected(self):
        """Swapping two basis coordinates in the reference leaves the family
        algebraically valid-looking but the coefficient comparison fails."""
        gens = petersen()
        basis, consts, deco = split_with_constants(gens)
        swapped = copy.deepcopy(deco)
        for i, p in enumerate(swapped.projectors):
            coeffs = list(p.coefficients)
            coeffs[1], coeffs[2] = coeffs[2], coeffs[1]
            swapped.projectors[i] = Projector(
                coefficients=tuple(coeffs),
                dimension=p.dimension,
                provenance=p.provenance,
            )
        assert not compare_to_reference(deco, swapped).passed
        # while the original still passes matrix-level commutation
        assert verify_matrix_level(gens, basis, deco, mode="exact").passed

    @pytest.mark.parametrize("name", ["S3_regular", "D4_regular", "Q8_regular"])
    def test_block_compared_by_its_sum(self, name):
        """Block refinement and the dimension loop alone split the k = 2 block
        into different primitive idempotents; the block's sum and count
        agree, so the families match."""
        linear, groebner = corpus_split(name), groebner_split(name)
        members = [p for p in linear.projectors if p.block is not None]
        theirs = [q for q in groebner.projectors if q.dimension == 2]
        assert not any(p.coefficients == q.coefficients for p in members for q in theirs)
        report = compare_to_reference(linear, groebner)
        assert report.passed
        assert sum(c.name.startswith("block d=2 ") for c in report.checks) == 1
        assert compare_to_reference(groebner, linear).passed

    def test_block_with_wrong_sum_or_count_fails(self):
        deco = corpus_split("S3_regular")
        first, second = [i for i, p in enumerate(deco.projectors) if p.block is not None]
        doubled = copy.deepcopy(deco)
        doubled.projectors[second] = doubled.projectors[first]
        short = copy.deepcopy(deco)
        del short.projectors[second]
        for ref in (doubled, short):
            report = compare_to_reference(deco, ref)
            assert [c.name for c in report.failures()] == ["block d=2 (projectors 3, 4) sum match"]

    def test_numeric_reference_matches_exact_family(self):
        """The dimension loop alone leaves 24 of C8's 64 coordinates numeric;
        the exact family lies inside their enclosures."""
        exact, numeric = corpus_split("C8_natural"), groebner_split("C8_natural")
        assert exact.exact_only() and not numeric.exact_only()
        assert compare_to_reference(exact, numeric).passed

    def test_frame_mismatch(self):
        _, _, a = split_with_constants(symmetric(3))
        _, _, b = split_with_constants(cyclic(4))
        assert not compare_to_reference(a, b).passed
