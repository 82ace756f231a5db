from collections import Counter
import copy
import dataclasses
import functools
import hashlib
from decimal import Decimal, localcontext
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from permsplit import exactfield, verify
from permsplit.cli import parse_decomposition_text, render_decomposition_text
from permsplit.exactfield import as_ball
from permsplit.splitter import Decomposition, Projector, SplitConfig, split_from_constants
from permsplit.solver import DEFAULT_PRECISION
from permsplit.verify import (
    _coefficient_sum,
    _vanishes,
    algebra_product,
    is_unit_trace,
    orbital_label_matrix,
    primitivity_traces,
    tensor_from_label_matrix,
)

from conftest import (
    CORPUS,
    GROEBNER_ONLY,
    affine,
    alternating,
    corpus_split,
    cyclic,
    frobenius20,
    frobenius21,
    groebner_split,
    pair_action,
    petersen,
    primitive_root,
    q8_regular,
    regular_action,
    set_action,
    symmetric,
)
from oracles import algebra_product_by_definition

FE = FieldElement


def fe(q):
    return FE.from_rational(Fraction(q))


# The corpus actions on at most 8 points, for the sweeps that run on a
# representative subset; every one outside GROEBNER_ONLY splits exactly.
SMALL_CORPUS = [(name, gens) for name, gens in CORPUS if gens.degree <= 8]
SMALL_EXACT_CORPUS = [(name, gens) for name, gens in SMALL_CORPUS if name not in GROEBNER_ONLY]


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


def _count_products(monkeypatch):
    """A list that gains one entry per product of two vectors the verifier
    makes: per pair of a ``_contract`` batch with a product tensor (a trace
    form has one output coordinate)."""
    import permsplit.verify as verify_module

    calls = []
    real = verify_module._contract

    def counted(tensor, t_sum, vectors, pairs, precision):
        if tensor.shape[2] > 1:
            calls.extend(1 for _ in pairs)
        return real(tensor, t_sum, vectors, pairs, precision)

    monkeypatch.setattr(verify_module, "_contract", counted)
    return calls


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
        for checks in (algebraic, matrix):
            assert [c.passed for c in checks if c.name == "completeness sum(B) = A1"] == [True]

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

    @pytest.mark.parametrize(
        "name, gens", SMALL_EXACT_CORPUS, ids=[name for name, _ in SMALL_EXACT_CORPUS]
    )
    def test_every_single_coefficient_perturbation_fails(self, name, gens):
        """Each perturbed family fails a hypothesis of the orthogonality
        theorem, so its pairs are multiplied: no line is derived, and since
        sum_{j != m} B'_m B_j = B'_m (I - B_m) = delta A_r (I - B_m) is never
        zero, some pair keeps a witness."""
        basis, consts, deco = corpus_with_constants(name, gens)
        assert deco.exact_only()
        for m in range(len(deco.projectors)):
            for r in range(basis.rank):
                report = verify_family_algebraic(consts, _tweak(deco, m, r))
                assert not report.passed, (m, r)
                assert not any(c.derived for c in report.checks), (m, r)
                pairs = [c for c in report.failures() if c.name.startswith("orthogonality")]
                assert pairs and all(c.witness.startswith("r=") for c in pairs), (m, r)

    @pytest.mark.parametrize("name", ["C9_natural"])
    def test_commutative_algebra_halves_orthogonality_products(self, name, monkeypatch):
        """B_i*B_j = B_j*B_i when the algebra is commutative, so each
        unordered pair is multiplied once; the report lines do not change."""
        _, consts, deco = corpus_with_constants(name, dict(CORPUS)[name])
        assert consts.is_commutative()
        calls = _count_products(monkeypatch)
        lines = verify_family_algebraic(consts, deco).lines()
        commutative_calls = len(calls)
        calls.clear()
        monkeypatch.setattr(type(consts), "is_commutative", lambda self: False)
        assert verify_family_algebraic(consts, deco).lines() == lines
        m = len(deco.projectors)
        assert len(calls) - commutative_calls == m * (m - 1) // 2

    @pytest.mark.parametrize("name", ["A5_petersen", "S3_regular"])
    def test_exact_family_multiplies_no_pair(self, name, monkeypatch):
        """An exact certified family multiplies none of its pairs (its
        squares and traces are two batched contractions, see
        ``TestBatchedCertificate``); its lines are those of the general
        route, which exactness decided once turns on for the whole family:
        one square per projector and one product per ordered pair, or per
        unordered pair when the algebra is commutative."""
        _, consts, deco = corpus_with_constants(name, dict(CORPUS)[name])
        assert deco.exact_only()
        calls = _count_products(monkeypatch)
        lines = verify_family_algebraic(consts, deco).lines()
        assert not calls
        monkeypatch.setattr(Decomposition, "exact_only", lambda self: False)
        multiplied = verify_family_algebraic(consts, deco)
        assert multiplied.lines() == lines
        assert not any(c.derived for c in multiplied.checks)
        m = len(deco.projectors)
        assert len(calls) == m + (m * (m - 1) // 2 if consts.is_commutative() else m * (m - 1))


def _replaced(deco, m, coefficients, **changes):
    """deco with projector m's coefficients (and any other field) replaced."""
    projectors = list(deco.projectors)
    projectors[m] = dataclasses.replace(projectors[m], coefficients=tuple(coefficients), **changes)
    return dataclasses.replace(deco, projectors=projectors)


class TestFailingCertificateLines:
    """Every line of a failing certificate, literally: the witnesses of the
    failed checks and the lines that pass beside them."""

    def test_scaled_projector(self):
        """2·B[2] of regular S3 fails its square, its trace and the sums;
        its pairs still vanish."""
        _, consts, deco = corpus_with_constants("S3_regular", regular_action(symmetric(3)))
        bad = _replaced(deco, 1, [2 * c for c in deco.projectors[1].coefficients])
        assert verify_family_algebraic(consts, bad).lines() == [
            "PASS  idempotency B[1] (d=1)",
            "FAIL  idempotency B[2] (d=1)  [r=1: 1/3]",
            "PASS  idempotency B[3] (d=2)",
            "PASS  idempotency B[4] (d=2)",
            "PASS  orthogonality B[1]*B[2]",
            "PASS  orthogonality B[1]*B[3]",
            "PASS  orthogonality B[1]*B[4]",
            "PASS  orthogonality B[2]*B[1]",
            "PASS  orthogonality B[2]*B[3]",
            "PASS  orthogonality B[2]*B[4]",
            "PASS  orthogonality B[3]*B[1]",
            "PASS  orthogonality B[3]*B[2]",
            "PASS  orthogonality B[3]*B[4]",
            "PASS  orthogonality B[4]*B[1]",
            "PASS  orthogonality B[4]*B[2]",
            "PASS  orthogonality B[4]*B[3]",
            "FAIL  completeness sum(B) = A1  [r=1: 1/6]",
            "PASS  completeness sum(d) = N",
            "PASS  trace integrality B[1]: N*b1 = d",
            "FAIL  trace integrality B[2]: N*b1 = d",
            "PASS  trace integrality B[3]: N*b1 = d",
            "PASS  trace integrality B[4]: N*b1 = d",
            "PASS  primitivity B[1]",
            "FAIL  primitivity B[2]  [dim B A B = 4]",
            "PASS  primitivity B[3]",
            "PASS  primitivity B[4]",
        ]

    def test_merged_primitive_projectors(self):
        """B[3] + B[4] of regular S3 is an idempotent of dimension 4 that
        passes every check but primitivity."""
        _, consts, deco = corpus_with_constants("S3_regular", regular_action(symmetric(3)))
        b3, b4 = (p.coefficients for p in deco.projectors[2:])
        merged = _replaced(deco, 2, [x + y for x, y in zip(b3, b4)], dimension=4, block=None)
        merged.projectors.pop()
        assert verify_family_algebraic(consts, merged).lines() == [
            "PASS  idempotency B[1] (d=1)",
            "PASS  idempotency B[2] (d=1)",
            "PASS  idempotency B[3] (d=4)",
            "PASS  orthogonality B[1]*B[2]",
            "PASS  orthogonality B[1]*B[3]",
            "PASS  orthogonality B[2]*B[1]",
            "PASS  orthogonality B[2]*B[3]",
            "PASS  orthogonality B[3]*B[1]",
            "PASS  orthogonality B[3]*B[2]",
            "PASS  completeness sum(B) = A1",
            "PASS  completeness sum(d) = N",
            "PASS  trace integrality B[1]: N*b1 = d",
            "PASS  trace integrality B[2]: N*b1 = d",
            "PASS  trace integrality B[3]: N*b1 = d",
            "PASS  primitivity B[1]",
            "PASS  primitivity B[2]",
            "FAIL  primitivity B[3]  [dim B A B = 4]",
        ]

    def test_conjugated_coordinate_over_the_tower(self):
        """Regular A4 with one coordinate of B[1] conjugated: witnesses in
        Q(sqrt(-3)) on the square, the pairs, the sum and the trace."""
        _, consts, deco = split_with_constants(regular_action(alternating(4)))
        coefficients = list(deco.projectors[0].coefficients)
        coefficients[4] = coefficients[4].conjugate()
        bad = _replaced(deco, 0, coefficients)
        assert verify_family_algebraic(consts, bad).lines() == [
            "FAIL  idempotency B[1] (d=1)  [r=1: -1/48*(1 + 1/3*I*sqrt(3))]",
            "PASS  idempotency B[2] (d=1)",
            "PASS  idempotency B[3] (d=1)",
            "PASS  idempotency B[4] (d=3)",
            "PASS  idempotency B[5] (d=3)",
            "PASS  idempotency B[6] (d=3)",
            "FAIL  orthogonality B[1]*B[2]  [r=1: 1/96*(1 - 1/3*I*sqrt(3))]",
            "FAIL  orthogonality B[1]*B[3]  [r=1: 1/144*I*sqrt(3)]",
            "FAIL  orthogonality B[1]*B[4]  [r=5: 1/48*I*sqrt(3)]",
            "FAIL  orthogonality B[1]*B[5]  [r=5: 1/48*I*sqrt(3)]",
            "FAIL  orthogonality B[1]*B[6]  [r=5: 1/48*I*sqrt(3)]",
            "FAIL  orthogonality B[2]*B[1]  [r=1: 1/96*(1 - 1/3*I*sqrt(3))]",
            "PASS  orthogonality B[2]*B[3]",
            "PASS  orthogonality B[2]*B[4]",
            "PASS  orthogonality B[2]*B[5]",
            "PASS  orthogonality B[2]*B[6]",
            "FAIL  orthogonality B[3]*B[1]  [r=1: 1/144*I*sqrt(3)]",
            "PASS  orthogonality B[3]*B[2]",
            "PASS  orthogonality B[3]*B[4]",
            "PASS  orthogonality B[3]*B[5]",
            "PASS  orthogonality B[3]*B[6]",
            "FAIL  orthogonality B[4]*B[1]  [r=5: 1/48*I*sqrt(3)]",
            "PASS  orthogonality B[4]*B[2]",
            "PASS  orthogonality B[4]*B[3]",
            "PASS  orthogonality B[4]*B[5]",
            "PASS  orthogonality B[4]*B[6]",
            "FAIL  orthogonality B[5]*B[1]  [r=5: 1/48*I*sqrt(3)]",
            "PASS  orthogonality B[5]*B[2]",
            "PASS  orthogonality B[5]*B[3]",
            "PASS  orthogonality B[5]*B[4]",
            "PASS  orthogonality B[5]*B[6]",
            "FAIL  orthogonality B[6]*B[1]  [r=5: 1/48*I*sqrt(3)]",
            "PASS  orthogonality B[6]*B[2]",
            "PASS  orthogonality B[6]*B[3]",
            "PASS  orthogonality B[6]*B[4]",
            "PASS  orthogonality B[6]*B[5]",
            "FAIL  completeness sum(B) = A1  [r=5: 1/12*I*sqrt(3)]",
            "PASS  completeness sum(d) = N",
            "PASS  trace integrality B[1]: N*b1 = d",
            "PASS  trace integrality B[2]: N*b1 = d",
            "PASS  trace integrality B[3]: N*b1 = d",
            "PASS  trace integrality B[4]: N*b1 = d",
            "PASS  trace integrality B[5]: N*b1 = d",
            "PASS  trace integrality B[6]: N*b1 = d",
            "FAIL  primitivity B[1]  [dim B A B = 3/4*(1 - 1/9*I*sqrt(3))]",
            "PASS  primitivity B[2]",
            "PASS  primitivity B[3]",
            "PASS  primitivity B[4]",
            "PASS  primitivity B[5]",
            "PASS  primitivity B[6]",
        ]


    def test_numeric_witness_is_its_midpoint(self):
        """C5's B[1] with the numeric coefficient of A2 moved by 1/1000 fails
        on enclosures: each witness is a ball, printed as ``~`` and its
        midpoint as a Python complex."""
        _, consts, deco = corpus_with_constants("C5_natural", cyclic(5))
        coefficients = list(deco.projectors[0].coefficients)
        assert isinstance(coefficients[1], ComplexBall)
        with mpmath.workprec(128):
            coefficients[1] = coefficients[1] + ComplexBall(mpmath.mpf(1) / 1000)
        lines = verify_family_algebraic(consts, _replaced(deco, 0, coefficients)).lines()
        assert lines[0] == (
            "FAIL  idempotency B[1] (d=1)  "
            "[r=1: ~(-0.00032360679774997897+0.00023511410091698926j)]"
        )
        failed = [line for line in lines if line.startswith("FAIL")]
        assert [line.split("  [")[0] for line in failed] == [
            "FAIL  idempotency B[1] (d=1)",
            *(f"FAIL  orthogonality B[1]*B[{j}]" for j in range(2, 6)),
            *(f"FAIL  orthogonality B[{i}]*B[1]" for i in range(2, 6)),
            "FAIL  completeness sum(B) = A1",
            "FAIL  primitivity B[1]",
        ]
        assert all(" ~(" in line and line.endswith("j)]") for line in failed)


class TestBatchedCertificate:
    """An exact family's squares and traces are two integer contractions,
    compared with the family in integers."""

    @pytest.mark.parametrize(
        "gens, m",
        [(regular_action(symmetric(3)), 4), (regular_action(alternating(4)), 6)],
        ids=["S3_regular", "A4_regular"],
    )
    def test_two_kernel_calls(self, gens, m, monkeypatch):
        """One contraction for all m squares and one for all m traces."""
        _, consts, deco = split_with_constants(gens)
        assert len(deco.projectors) == m and deco.exact_only()
        calls = []
        real = verify._contract_exact

        def counted(tensor, t_sum, elements, pairs):
            calls.append(len(pairs))
            return real(tensor, t_sum, elements, pairs)

        monkeypatch.setattr(verify, "_contract_exact", counted)
        assert verify_family_algebraic(consts, deco).passed
        assert calls == [m, m]

    def test_passing_family_subtracts_nothing(self, monkeypatch):
        """A family that passes is compared in integers: no FieldElement is
        subtracted and no mpmath working precision is set."""
        _, consts, deco = split_with_constants(regular_action(alternating(4)))
        calls = []

        def spy(real):
            def counted(*args, **kwargs):
                calls.append(real)
                return real(*args, **kwargs)

            return counted

        monkeypatch.setattr(FE, "__sub__", spy(FE.__sub__))
        monkeypatch.setattr(mpmath, "workprec", spy(mpmath.workprec))
        assert verify_family_algebraic(consts, deco).passed
        assert not calls

    def test_sum_without_a_rational_part(self):
        """A family that uses sqrt(2) alone and sums to zero, and the empty
        family, are not complete: the integer sum is compared with A_1 only
        where the family has a rational part."""
        _, consts, _ = split_with_constants(symmetric(3))
        root2 = FE.sqrt_int(2)
        for vectors, dims in (([(root2, fe(0)), (-root2, fe(0))], [1, 2]), ([], [])):
            report = verify_family_algebraic(consts, _family(consts, 3, vectors, dims))
            assert [c.witness for c in report.failures() if c.name.endswith("= A1")] == [
                "r=1: -1"
            ]

    def test_trace_form_is_built_once(self, monkeypatch):
        """Two certificates on one constants object build the primitivity
        form once; it is the form of the definition."""
        import permsplit.centralizer as centralizer_module

        name = "F20_regular"
        gens = KERNEL_ACTIONS[name]()
        consts = compute_structure_constants(gens, compute_orbitals(gens))
        deco = split_from_constants(compute_orbitals(gens), _kernel_constants(name))
        builds = []
        real = centralizer_module._trace_form

        def counted(c):
            builds.append(1)
            return real(c)

        monkeypatch.setattr(centralizer_module, "_trace_form", counted)
        assert verify_family_algebraic(consts, deco).passed
        assert verify_family_algebraic(consts, deco).passed
        assert len(builds) == 1
        assert consts.trace_form.tolist() == _primitivity_form(name)

    def test_regular_s5_at_full_rank(self):
        """Rank 120, the largest the tests split: 26 exact projectors, and
        the two contractions at full rank certify them."""
        gens = regular_action(symmetric(5))
        basis = compute_orbitals(gens, rank_cap=None)
        consts = compute_structure_constants(gens, basis)
        deco = split_from_constants(basis, consts, SplitConfig(rank_cap=None))
        assert len(deco.projectors) == 26 and deco.exact_only()
        assert sorted(Counter(p.dimension for p in deco.projectors).items()) == [
            (1, 2), (4, 8), (5, 10), (6, 6),
        ]
        assert verify_family_algebraic(consts, deco).passed


class TestOrthogonalityTheorem:
    """The products that the theorem replaces, as an oracle for it."""

    def test_every_pair_multiplies_to_zero(self, corpus_member):
        name, gens = corpus_member
        _, consts, deco = corpus_with_constants(name, gens)
        family = [p.coefficients for p in deco.projectors]
        for i, a in enumerate(family):
            for j, b in enumerate(family):
                if i != j:
                    assert _vanishes(algebra_product(consts, a, b)), (i, j)
        checks = verify_family_algebraic(consts, deco).checks
        pairs = [c for c in checks if c.name.startswith("orthogonality")]
        m = len(family)
        assert len(pairs) == m * (m - 1) and all(c.passed for c in pairs)

    def test_derived_checks_are_the_pairs_of_an_exact_family(self, corpus_member):
        """m(m-1) derived lines for an exact family, none for a numeric one
        (C5, C7, C9 and D7 natural), and only orthogonality is derived."""
        name, gens = corpus_member
        _, consts, deco = corpus_with_constants(name, gens)
        derived = [c for c in verify_family_algebraic(consts, deco).checks if c.derived]
        m = len(deco.projectors)
        assert len(derived) == (m * (m - 1) if deco.exact_only() else 0)
        assert all(c.name.startswith("orthogonality") and c.passed for c in derived)

    def test_failed_hypothesis_derives_nothing(self):
        """S5 on pairs with e_4 doubled in dimension fails only trace
        integrality and completeness sum(d) = N, and its pairs, which do
        vanish, are multiplied."""
        _, consts, deco = split_with_constants(pair_action(symmetric(5), 5))
        bad = copy.deepcopy(deco)
        bad.projectors[1] = dataclasses.replace(bad.projectors[1], dimension=8)
        report = verify_family_algebraic(consts, bad)
        assert [c.name for c in report.failures()] == [
            "completeness sum(d) = N",
            "trace integrality B[2]: N*b1 = d",
        ]
        assert not any(c.derived for c in report.checks)


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

    @pytest.mark.parametrize("mode", ["dense", "EXACT", None])
    def test_unknown_mode_is_refused(self, mode):
        gens = symmetric(3)
        basis, consts, deco = split_with_constants(gens)
        with pytest.raises(ValueError) as err:
            verify_matrix_level(gens, basis, deco, mode=mode)
        assert str(err.value) == "mode must be 'exact' or 'numeric'"

    def test_agreement_with_algebraic(self, corpus_member):
        """On the corpus, numeric decompositions included, the matrix lines
        are the three basis lines, passed, then the splitter's certificate
        line for line: the tensor read off the label matrix is the
        structure constants."""
        name, gens = corpus_member
        basis, consts, deco = corpus_with_constants(name, gens)
        algebraic = verify_family_algebraic(consts, deco)
        matrix = verify_matrix_level(gens, basis, deco)
        assert algebraic.passed and matrix.passed
        assert [c.name.split()[0] for c in matrix.checks[:3]] == [
            "invariance", "diagonal", "closure",
        ]
        assert matrix.checks[3:] == algebraic.checks

    def test_tampered_fails_at_matrix_level(self):
        gens = symmetric(3)
        basis, consts, deco = split_with_constants(gens)
        bad = _tweak(deco, 1, 1, flip=True)
        report = verify_matrix_level(gens, basis, bad, mode="exact")
        assert [c.name for c in report.failures()] == [
            "idempotency B[2] (d=2)",
            "orthogonality B[1]*B[2]",
            "orthogonality B[2]*B[1]",
            "completeness sum(B) = A1",
            "primitivity B[2]",
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
            # differences {1, 4} and {2, 3} form the D5 scheme, a closed
            # G-invariant fusion, in which I = E_0 + E_1 + E_2 is not
            # primitive
            ([0, 1, 2, 2, 1], ["primitivity"]),
            # differences {1, 2} and {3, 4}: A^2 = C^2 + 2C^3 + C^4 is not
            # in the span, so the counts differ along the orbital
            ([0, 1, 1, 2, 2], ["closure", "primitivity"]),
            # the diagonal fused with differences {1, 4}
            ([0, 0, 2, 2, 0], ["diagonal", "closure", "idempotency", "primitivity"]),
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

    def test_closed_fusion_with_its_primitive_family_passes(self):
        """The known limit: in the D5 scheme of C5 (A_2 = C + C^4,
        A_3 = C^2 + C^3) the family J/5, E, E' is primitive, so every line
        passes, though E and E' of dimension 2 each split into two
        characters of C5.  Counting the generators' orbits on pairs, which
        finds 5 against the fusion's rank 3, would fail it."""
        gens = cyclic(5)
        fused = dataclasses.replace(
            compute_orbitals(gens), sidx0=np.array([0, 1, 2, 2, 1]), rank=3
        )
        root5 = FE.sqrt_int(5)
        plus, minus = (root5 - 1) / 10, (-root5 - 1) / 10
        family = Decomposition(
            degree=5,
            rank=3,
            projectors=[
                Projector((fe(Fraction(1, 5)),) * 3, 1, "uniqueSolution"),
                Projector((fe(Fraction(2, 5)), plus, minus), 2, "uniqueSolution"),
                Projector((fe(Fraction(2, 5)), minus, plus), 2, "uniqueSolution"),
            ],
            suborbit_lengths=[],
        )
        report = verify_matrix_level(gens, fused, family)
        assert report.passed
        assert sum(c.name.startswith("primitivity") for c in report.checks) == 3

    def test_wrong_dimension_fails_trace(self):
        gens = petersen()
        basis, consts, deco = split_with_constants(gens)
        p = deco.projectors[1]
        deco.projectors[1] = dataclasses.replace(p, dimension=p.dimension + 1)
        failures = verify_matrix_level(gens, basis, deco).failures()
        assert [c.name for c in failures] == [
            "completeness sum(d) = N",
            "trace integrality B[2]: N*b1 = d",
        ]

    def test_degree_is_read_off_the_generators(self):
        """A family that claims twice the degree and twice every dimension
        is consistent with itself (sum(d) = 20, 20*b1 = d); N is the
        degree of the generators, so both trace lines fail."""
        gens = petersen()
        basis, consts, deco = split_with_constants(gens)
        doubled = dataclasses.replace(
            deco,
            degree=20,
            projectors=[dataclasses.replace(p, dimension=2 * p.dimension) for p in deco.projectors],
        )
        assert verify_family_algebraic(consts, doubled).passed
        failures = verify_matrix_level(gens, basis, doubled).failures()
        assert [c.name for c in failures] == [
            "completeness sum(d) = N",
            "trace integrality B[1]: N*b1 = d",
            "trace integrality B[2]: N*b1 = d",
            "trace integrality B[3]: N*b1 = d",
        ]

    def test_label_tensor_matches_structure_constants(self, corpus_member):
        name, gens = corpus_member
        basis = compute_orbitals(gens)
        consts = compute_structure_constants(gens, basis)
        labels = orbital_label_matrix(basis)
        table, consistent = tensor_from_label_matrix(labels, basis.base, basis.rank)
        assert consistent
        assert np.array_equal(table, consts.tensor)

    def test_label_matrix_rows_are_transported_base_rows(self):
        """J(16, 3), 560 points on a Schreier tree of depth 25: each row
        gathered from its parent's row equals the base row transported
        along the whole tree word."""
        gens = set_action(symmetric(16), 16, 3)
        basis = compute_orbitals(gens)
        assert basis.tree.depth.max() == 25
        points = np.arange(gens.degree)
        want = [basis.sidx0[basis.tree.transport_to_base0(x0, points)] + 1 for x0 in points]
        assert np.array_equal(orbital_label_matrix(basis), np.array(want))

    def test_affine_group_at_cap_scale(self):
        """AGL(1, 1999) on 1999 points, just under the default cap."""
        p = 1999
        gens = affine(p, primitive_root(p))
        basis = compute_orbitals(gens)
        consts = compute_structure_constants(gens, basis)
        deco = split_from_constants(basis, consts, SplitConfig())
        report = verify_matrix_level(gens, basis, deco)
        assert report.passed
        assert [c.name for c in report.checks][-1] == f"primitivity B[{len(deco.projectors)}]"


class TestCompare:
    @pytest.mark.parametrize("name", [name for name, _ in SMALL_CORPUS])
    def test_self_comparison(self, name):
        deco = corpus_split(name)
        assert compare_to_reference(deco, deco).passed

    def test_a_moved_numeric_midpoint_fails_its_match(self):
        """One printed midpoint of C5's text report moved by 1e-12, far past
        its radius of about 1e-42, is a different coefficient: numeric
        coefficients match when their difference encloses zero, with no
        tolerance beyond the enclosures."""
        deco = corpus_split("C5_natural")
        lines = render_decomposition_text(deco).splitlines()
        i = next(i for i, line in enumerate(lines)
                 if line.startswith("coeff ") and " numeric " in line)
        fields = lines[i].split()
        with localcontext() as ctx:
            ctx.prec = 80
            fields[3] = str(Decimal(fields[3]) + Decimal("1e-12"))
        lines[i] = " ".join(fields)
        report = compare_to_reference(deco, parse_decomposition_text("\n".join(lines) + "\n"))
        assert [c.name for c in report.failures()] == ["projector 1 (d=1) match"]

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

    def test_singles_take_their_projectors_before_a_block(self):
        """A block listed before the projectors outside blocks of its
        dimension is compared with the reference projectors that they leave:
        C4's regular family with its first two projectors made a block of
        dimension 1 matches its own family in reverse order."""
        deco = corpus_split("C4_regular")
        blocked = copy.deepcopy(deco)
        blocked.projectors[:2] = [dataclasses.replace(p, block=1) for p in deco.projectors[:2]]
        reversed_ref = copy.deepcopy(deco)
        reversed_ref.projectors.reverse()
        report = compare_to_reference(blocked, reversed_ref)
        assert [c.name for c in report.checks[2:]] == [
            "block d=1 (projectors 1, 2) sum match",
            "projector 3 (d=1) match",
            "projector 4 (d=1) match",
        ]
        assert report.passed

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


# -- the contraction kernel against its definitions ---------------------------------

KERNEL_ACTIONS = {
    "petersen": petersen,  # commutative, rank 3
    "Q8_regular": q8_regular,  # noncommutative, rank 8
    "F20_regular": lambda: regular_action(frobenius20()),  # noncommutative, rank 20
    # rank 21: 9,261 entries, past DENSE_PRODUCT_ENTRIES, so the kernel
    # restricts T to the supports
    "F21_regular": lambda: regular_action(frobenius21()),
}


@functools.cache
def _kernel_constants(name):
    gens = KERNEL_ACTIONS[name]()
    return compute_structure_constants(gens, compute_orbitals(gens))


@functools.cache
def _primitivity_form(name):
    """T[p][s] = sum_qr C_pq^r C_rs^q, entry by entry."""
    consts = _kernel_constants(name)
    idx = range(1, consts.rank + 1)
    return [
        [sum(consts.c(p, q, r) * consts.c(r, s, q) for q in idx for r in idx) for s in idx]
        for p in idx
    ]


# Q(i, sqrt 2), and radicands whose products carry a gcd and a sign:
# sqrt(5) sqrt(65) = 5 sqrt(13), sqrt(-3) sqrt(-15) = -3 sqrt(5)
_TOWERS = ((1, -1, 2, -2), (1, 5, 13, 65, -3, -15))
_small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=7)
# integers around 2^31: a product of two of them, contracted with the
# tensor, falls on either side of 2^63
_int64_edge = st.integers(-(1 << 32), 1 << 32).map(Fraction)
_huge = st.integers(1 << 63, 1 << 80)
# numerators and denominators past 2^63: only Python ints hold them
_past_int64 = st.builds(
    lambda n, d, sign: Fraction(sign * n, d), _huge, _huge, st.sampled_from([1, -1])
)
_COEFFICIENTS = (_small_fractions, _int64_edge, _past_int64)


@st.composite
def tower_vectors(draw, rank):
    """Vectors over one tower of ``_TOWERS``, with exact zeros among their
    entries, and coefficients of one size class of ``_COEFFICIENTS``."""
    rads = draw(st.sampled_from(_TOWERS))
    coefficients = draw(st.sampled_from(_COEFFICIENTS))
    out = []
    for _ in range(rank):
        if draw(st.booleans()):
            out.append(FE.zero())
        else:
            coeffs = draw(st.lists(coefficients, min_size=len(rads), max_size=len(rads)))
            out.append(FE(dict(zip(rads, coeffs))))
    return out


def _encloses(ball, exact):
    """Whether ``ball`` contains the exact tower element ``exact``, decided
    at 600 bits."""
    with mpmath.workprec(600):
        want = as_ball(exact, 500)
        return abs(ball.mid - want.mid) + want.rad <= ball.rad


@given(st.sampled_from(sorted(KERNEL_ACTIONS)), st.sampled_from([53, 128, 300]), st.data())
@settings(max_examples=40, deadline=None)
def test_products_match_the_triple_loop(name, precision, data):
    """A batch of 1-6 products of exact vectors, over towers and size
    classes mixed within the batch, so that one contraction may have to
    leave int64 for a single pair: each product is exactly that of the
    triple loop, and equals the product taken alone.  The first pair
    lifted to balls gives an enclosure of it."""
    consts = _kernel_constants(name)
    tensor = consts.tensor
    vectors = data.draw(st.lists(tower_vectors(consts.rank), min_size=1, max_size=6))
    index = st.integers(0, len(vectors) - 1)
    pairs = data.draw(st.lists(st.tuples(index, index), min_size=1, max_size=6))
    wants = [algebra_product_by_definition(consts, vectors[i], vectors[j]) for i, j in pairs]
    assert verify._contract(tensor, consts.product_bound, vectors, pairs, precision) == wants
    for (i, j), want in zip(pairs, wants):
        assert algebra_product(consts, vectors[i], vectors[j]) == want
    (i, j), want = pairs[0], wants[0]
    balls = [as_ball(x, precision) for x in vectors[i]], [as_ball(x, precision) for x in vectors[j]]
    got = algebra_product(consts, *balls, precision)
    assert all(_encloses(g, w) for g, w in zip(got, want))


def test_a_zero_vector_times_one_past_int64():
    """A zero vector bounds the product by 0, yet the other vector's
    entries past 2^63 still keep the contraction off int64."""
    consts = _kernel_constants("petersen")
    tensor = consts.tensor
    past = Fraction(1 << 63, (1 << 63) + 1)
    wide = [FE({1: 1, 2: past})] + [FE.zero()] * (consts.rank - 1)
    vectors = [[FE.zero()] * consts.rank, wide]
    for pairs in ([(0, 1)], [(1, 0)], [(0, 1), (1, 1)]):
        wants = [algebra_product_by_definition(consts, vectors[i], vectors[j]) for i, j in pairs]
        assert verify._contract(tensor, consts.product_bound, vectors, pairs, 53) == wants


def test_a_large_tensor_is_restricted_to_the_supports(monkeypatch):
    """F21's regular tensor has more than ``DENSE_PRODUCT_ENTRIES`` entries,
    so a batch whose vectors leave coordinates at zero is contracted with T
    restricted to the union of their supports; each product still equals
    the triple loop's."""
    consts = _kernel_constants("F21_regular")
    assert consts.tensor.size > exactfield.DENSE_PRODUCT_ENTRIES
    # supports: the multiples of 3, and the odd coordinates
    a = [fe(p + 1) if p % 3 == 0 else FE.zero() for p in range(consts.rank)]
    b = [FE.sqrt_int(5) * (p - 4) if p % 2 else FE.zero() for p in range(consts.rank)]
    pairs = [(0, 1), (1, 0), (0, 0)]
    kept, real = [], np.ix_

    def spy(*masks):
        kept.append([int(m.sum()) for m in masks])
        return real(*masks)

    monkeypatch.setattr(np, "ix_", spy)
    got = verify._contract(consts.tensor, consts.product_bound, [a, b], pairs, DEFAULT_PRECISION)
    monkeypatch.undo()
    assert kept and all(0 < n < consts.rank for n in kept[0])
    assert got == [algebra_product_by_definition(consts, *([a, b][k] for k in pair)) for pair in pairs]


def _spy_on_entry_products(monkeypatch):
    """A list that grows by one for every FieldElement product made."""
    calls = []
    real = FE.__mul__

    def counted(self, other):
        calls.append(1)
        return real(self, other)

    monkeypatch.setattr(FE, "__mul__", counted)
    monkeypatch.setattr(FE, "__rmul__", counted)
    return calls


@pytest.mark.parametrize("tower", _TOWERS)
def test_products_across_the_int64_edge(tower, monkeypatch):
    """Positive entries make the sums coherent, so the true coordinates pass
    2^63 as the scale grows by quarter bits: each product is exact, and
    multiplies no entry on its own, whether the bound keeps it in int64 or
    sends it to Python-int arrays."""
    consts = _kernel_constants("Q8_regular")
    vectors = []
    for quarter_bits in range(100, 136):
        scale = int(2 ** (quarter_bits / 4))
        a = [FE({r: scale + 7 * p + i for i, r in enumerate(tower)}) for p in range(consts.rank)]
        b = [FE({r: scale - 3 * q - i for i, r in enumerate(tower)}) for q in range(consts.rank)]
        vectors.append((a, b))
    calls = _spy_on_entry_products(monkeypatch)
    products = [algebra_product(consts, a, b) for a, b in vectors]
    batch = verify._contract(
        consts.tensor,
        consts.product_bound,
        [x for pair in vectors for x in pair],
        [(2 * n, 2 * n + 1) for n in range(len(vectors))],
        DEFAULT_PRECISION,
    )
    assert not calls
    monkeypatch.undo()
    largest = [max(abs(c) for x in out for c in x.terms.values()) for out in products]
    assert largest[0] < 1 << 63 <= largest[-1]
    assert batch == products
    for (a, b), out in zip(vectors, products):
        assert out == algebra_product_by_definition(consts, a, b)


@given(st.sampled_from(sorted(KERNEL_ACTIONS)), st.data())
@settings(max_examples=40, deadline=None)
def test_primitivity_traces_match_their_form(name, data):
    """tr(x -> e x e) = sum_ps e_p e_s sum_qr C_pq^r C_rs^q, exactly, and
    within the enclosure of the lifted vector."""
    consts = _kernel_constants(name)
    form = _primitivity_form(name)
    e = data.draw(tower_vectors(consts.rank))
    want = FE.zero()
    for p in range(consts.rank):
        for s in range(consts.rank):
            if form[p][s]:
                want = want + e[p] * e[s] * form[p][s]
    assert primitivity_traces(consts, [e]) == [want]
    (got,) = primitivity_traces(consts, [[as_ball(x, 128) for x in e]], 128)
    assert _encloses(got, want)


@pytest.mark.parametrize("name", ["F20_regular", "Q8_regular"])
def test_exact_products_multiply_no_entries(name, monkeypatch):
    """An all-exact product or primitivity trace runs on integer arrays: it
    makes no FieldElement product, so exact work cannot drift back into the
    loop over entries."""
    consts = _kernel_constants(name)
    deco = split_from_constants(compute_orbitals(KERNEL_ACTIONS[name]()), consts)
    vectors = [p.coefficients for p in deco.projectors]
    calls = _spy_on_entry_products(monkeypatch)
    products = [algebra_product(consts, a, b) for a in vectors for b in vectors]
    traces = primitivity_traces(consts, vectors)
    assert not calls
    monkeypatch.undo()
    assert products[0] == algebra_product_by_definition(consts, vectors[0], vectors[0])
    assert all(t == FE.one() for t in traces)


# radii of the balls around exact vectors: none, tiny, or up to 2^-20
_radii = st.one_of(st.just(Fraction(0)), st.integers(20, 200).map(lambda e: Fraction(1, 1 << e)))
# entries of positive rational vectors: with T >= 0 their products add up
# with no cancellation, so moving every midpoint toward zero by its radius
# makes the radius bound tight
_positive = st.fractions(min_value=0, max_value=5, max_denominator=7).map(FE.from_rational)


@st.composite
def balls_around(draw, exact):
    """Balls that hold the entries of the exact vector ``exact``: each
    entry's 300-bit enclosure, its midpoint moved by a drawn radius
    rho <= 2^-20 in one drawn direction for the whole vector (toward zero,
    away from it, turned by i, or not at all), and its radius grown by rho
    (with a margin of rho 2^-500 for the rounding of the move)."""
    move = draw(st.sampled_from([-1, 1, 1j, 0]))
    out = []
    with mpmath.workprec(600):
        for x in exact:
            rho = draw(_radii)
            c = as_ball(x, 300)
            unit = c.mid / abs(c.mid) if c.mid else 1
            step = mpmath.mpf(rho.numerator) / rho.denominator
            out.append(ComplexBall(c.mid + move * unit * step, c.rad + step * (1 + mpmath.mpf(2) ** -500)))
    return out


@given(st.sampled_from(sorted(KERNEL_ACTIONS)), st.sampled_from([53, 128, 300]), st.data())
@settings(max_examples=60, deadline=None)
def test_ball_products_enclose_the_exact_ones(name, precision, data):
    """The radius term of a product with balls: for exact a and b and balls
    around them, ``algebra_product`` and ``primitivity_traces`` of the balls
    enclose the exact product and trace, whether the midpoints moved by the
    whole radius, the radii are 0 (the midpoints alone carry the error) or
    one side is exact."""
    consts = _kernel_constants(name)
    vectors = st.one_of(
        tower_vectors(consts.rank),
        st.lists(_positive, min_size=consts.rank, max_size=consts.rank),
    )
    a, b = data.draw(vectors), data.draw(vectors)
    ball_a, ball_b = data.draw(balls_around(a)), data.draw(balls_around(b))
    want = algebra_product(consts, a, b)
    for left, right in ((ball_a, ball_b), (ball_a, b), (a, ball_b)):
        got = algebra_product(consts, left, right, precision)
        assert all(_encloses(g, w) for g, w in zip(got, want))
    (trace,), (exact_trace,) = primitivity_traces(consts, [ball_a], precision), primitivity_traces(consts, [a])
    assert _encloses(trace, exact_trace)


@pytest.mark.parametrize("precision", [53, 128, 300])
@pytest.mark.parametrize("name", sorted(KERNEL_ACTIONS))
def test_ball_products_at_the_edge(name, precision):
    """Two balls that need every part of the radius: around the all-ones
    vector, midpoints 1 - rho with radius rho = 2^-20, so the exact product
    lies on the bound sum_pq T (|a'| rho + rho |a'| + rho^2) itself; and
    around 1/3 in every entry, midpoints of 324 bits with a radius near
    2^-300, so a midpoint read in fewer bits misses.  Products and traces
    of the balls enclose the exact ones."""
    consts = _kernel_constants(name)
    rho = mpmath.mpf(2) ** -20
    ones, third = [FE.one()] * consts.rank, [fe(Fraction(1, 3))] * consts.rank
    edge, fine = [ComplexBall(1 - rho, rho)] * consts.rank, [as_ball(x, 300) for x in third]
    for balls, exact in ((edge, ones), (fine, third)):
        got = algebra_product(consts, balls, balls, precision)
        assert all(_encloses(g, w) for g, w in zip(got, algebra_product(consts, exact, exact)))
        (trace,), (want,) = primitivity_traces(consts, [balls], precision), primitivity_traces(consts, [exact])
        assert _encloses(trace, want)


def test_numeric_family_multiplies_no_balls(monkeypatch):
    """C7 natural keeps numeric projectors; their products, primitivity
    traces and certificate read each ball as an exact midpoint plus a
    radius, so no ComplexBall is ever multiplied: the loop over entries in
    ball arithmetic cannot come back."""
    _, consts, deco = corpus_with_constants("C7_natural", cyclic(7))
    assert not deco.exact_only()
    vectors = [p.coefficients for p in deco.projectors]
    calls = []
    real = ComplexBall.__mul__

    def counted(self, other):
        calls.append(1)
        return real(self, other)

    monkeypatch.setattr(ComplexBall, "__mul__", counted)
    monkeypatch.setattr(ComplexBall, "__rmul__", counted)
    products = [algebra_product(consts, a, b) for a in vectors for b in vectors]
    traces = primitivity_traces(consts, vectors)
    report = verify_family_algebraic(consts, deco)
    assert not calls
    monkeypatch.undo()
    assert any(isinstance(x, ComplexBall) for product in products for x in product)
    assert all(is_unit_trace(t) for t in traces)
    assert report.passed


def test_affine_11_on_pairs_is_pinned():
    """AGL(1,11) on the 55 2-subsets of F_11, the largest numeric family:
    6 of its 10 projectors are exact, and the 4 of dimension 10 that the
    dimension loop finds are enclosures, so its certificate multiplies every
    pair.  Its decomposition, certificate and report are pinned.  Budget:
    about 1.4 s on one Xeon core, the split with its certificate about 1 s
    and the certificate again about 0.35 s; multiplied entry by entry in
    ball arithmetic the same took about 11 s."""
    gens = set_action(affine(11, 2), 11, 2)
    basis, consts, deco = split_with_constants(gens)
    text = render_decomposition_text(deco)
    assert "Decomposition: 55 ≅ 1 ⊕ 1 ⊕ 1 ⊕ 1 ⊕ 1 ⊕ (10 ⊕ 10 ⊕ 10 ⊕ 10 ⊕ 10)" in text.splitlines()
    assert sum(p.exact for p in deco.projectors) == 6 and len(deco.projectors) == 10
    lines = verify_family_algebraic(consts, deco).lines()
    assert len(lines) == 122 and all(line.startswith("PASS  ") for line in lines)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "34bfff6071cb66fdb2b87fdbdb0852963d80c3e57970ca2ff296a7b166c71f60"
    )
