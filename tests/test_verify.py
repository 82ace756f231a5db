import copy
from fractions import Fraction

import pytest

from permsplit import (
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
from permsplit.splitter import Decomposition, Projector

from conftest import cyclic, petersen, regular_action, symmetric

FE = FieldElement


def fe(q):
    return FE.from_rational(Fraction(q))


def split_with_constants(gens):
    basis = compute_orbitals(gens)
    consts = compute_structure_constants(gens, basis)
    return basis, consts, split(gens)


def _family(consts, degree, vectors, dims):
    return Decomposition(
        degree=degree,
        rank=consts.rank,
        projectors=[
            Projector(
                coefficients=tuple(v),
                dimension=d,
                exact=True,
                provenance="uniqueSolution",
            )
            for v, d in zip(vectors, dims)
        ],
        complete=True,
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
        exact=p.exact,
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

    def test_primitivity_of_numeric_projectors(self):
        """C5 keeps the quartic coordinates numeric; the trace is then an
        enclosure of 1 narrower than 1."""
        _, consts, deco = split_with_constants(cyclic(5))
        assert not deco.exact_only()
        report = verify_family_algebraic(consts, deco)
        lines = [c for c in report.checks if c.name.startswith("primitivity")]
        assert report.passed and len(lines) == len(deco.projectors) == 5

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
        basis, consts, deco = split_with_constants(gens)
        if not deco.exact_only():
            pytest.skip("perturbation sweep is for exact decompositions")
        for m in range(len(deco.projectors)):
            for r in range(basis.rank):
                bad = _tweak(deco, m, r)
                assert not verify_family_algebraic(consts, bad).passed, (m, r)


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
        """Algebraic pass and exact matrix-level pass agree on the corpus."""
        name, gens = corpus_member
        basis, consts, deco = split_with_constants(gens)
        if not deco.exact_only():
            pytest.skip("exact matrix mode needs exact projectors")
        algebraic = verify_family_algebraic(consts, deco).passed
        matrix = verify_matrix_level(gens, basis, deco, mode="exact").passed
        assert algebraic and matrix

    def test_tampered_fails_at_matrix_level(self):
        gens = symmetric(3)
        basis, consts, deco = split_with_constants(gens)
        bad = _tweak(deco, 1, 1, flip=True)
        report = verify_matrix_level(gens, basis, bad, mode="exact")
        assert not report.passed


class TestCompare:
    def test_self_comparison(self, corpus_member):
        name, gens = corpus_member
        if gens.degree > 8:
            pytest.skip("representative subset")
        _, consts, deco = split_with_constants(gens)
        assert compare_to_reference(deco, deco).passed

    def test_conjugated_family_matches(self):
        _, consts, deco = split_with_constants(cyclic(4))
        conj = copy.deepcopy(deco)
        for i, p in enumerate(conj.projectors):
            conj.projectors[i] = Projector(
                coefficients=tuple(c.conjugate() for c in p.coefficients),
                dimension=p.dimension,
                exact=p.exact,
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
                exact=p.exact,
                provenance=p.provenance,
            )
        assert not compare_to_reference(deco, swapped).passed
        # while the original still passes matrix-level commutation
        assert verify_matrix_level(gens, basis, deco, mode="exact").passed

    def test_frame_mismatch(self):
        _, _, a = split_with_constants(symmetric(3))
        _, _, b = split_with_constants(cyclic(4))
        assert not compare_to_reference(a, b).passed
