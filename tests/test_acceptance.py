"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Criterion 6, the paper's M22 on 770 points, runs on generators
built from the Golay code (``golay.m22_770``), whose labelling is fixed, so
it is checked by basis position.  Its synthetic performance smoke test
always runs.
"""

import time
from fractions import Fraction

import pytest

from permsplit import (
    FieldElement,
    compute_orbitals,
    compute_structure_constants,
    split,
    verify_family_algebraic,
    compare_to_reference,
)
from permsplit.polynomial import (
    groebner_basis,
    hilbert_dimension,
    is_trivial_basis,
    normal_form,
    s_polynomial,
)
from permsplit.splitter import (
    SplitConfig,
    _SplitState,
    process_single_solution,
)

from conftest import (
    CORPUS,
    affine,
    cyclic,
    petersen,
    primitive_root,
    regular_action,
    symmetric,
)
import golay
from oracles import (
    dense_algebra_commutes,
    dimension_multiset,
    s3_character_projectors,
)

FE = FieldElement


def fe(q):
    return FE.from_rational(Fraction(q))


def _report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS  ({detail})")


def test_criterion_1_s3_exact_pipeline():
    """S3 natural: rank 2, dims {1,2}, exact projector coefficients, < 1 s."""
    t0 = time.perf_counter()
    gens = symmetric(3)
    basis = compute_orbitals(gens)
    deco = split(gens)
    elapsed = time.perf_counter() - t0
    assert basis.rank == 2
    assert deco.dimension_multiset == [1, 2]
    got = {p.dimension: p.coefficients for p in deco.projectors}
    assert got[1] == (fe(Fraction(1, 3)), fe(Fraction(1, 3)))
    assert got[2] == (fe(Fraction(2, 3)), fe(Fraction(-1, 3)))
    # independent cross-check: character projectors over the 6 elements
    from test_splitter import _matrix_to_basis_coeffs

    oracle = {}
    for dim, mat in s3_character_projectors(gens):
        if any(x != 0 for row in mat for x in row):
            oracle[dim] = _matrix_to_basis_coeffs(mat, basis)
    assert oracle == got
    assert elapsed < 1.0
    _report(1, f"S3 exact pipeline in {elapsed:.3f}s")


def test_criterion_2_petersen():
    """A5 on the Petersen labeling: rank 3, lengths {1,3,6}, dims {1,4,5},
    exact coefficients, < 5 s."""
    t0 = time.perf_counter()
    gens = petersen()
    basis = compute_orbitals(gens)
    deco = split(gens)
    elapsed = time.perf_counter() - t0
    assert basis.rank == 3
    assert basis.lengths_in_order() == [1, 3, 6]
    assert deco.dimension_multiset == [1, 4, 5]
    got = {p.dimension: p.coefficients for p in deco.projectors}
    tenth = Fraction(1, 10)
    assert got[1] == (fe(tenth), fe(tenth), fe(tenth))
    assert got[4] == (
        fe(Fraction(2, 5)),
        fe(Fraction(2, 5) * Fraction(-2, 3)),
        fe(Fraction(2, 5) * Fraction(1, 6)),
    )
    assert got[5] == (
        fe(Fraction(1, 2)),
        fe(Fraction(1, 2) * Fraction(1, 3)),
        fe(Fraction(1, 2) * Fraction(-1, 3)),
    )
    assert elapsed < 5.0
    _report(2, f"Petersen exact decomposition in {elapsed:.3f}s")


def test_criterion_3_c4_gaussian():
    """C4 regular: four 1-dim projectors over the Gaussian rationals with
    exact sum-to-identity and conjugate pairing, < 1 s."""
    t0 = time.perf_counter()
    deco = split(cyclic(4))
    elapsed = time.perf_counter() - t0
    assert deco.dimension_multiset == [1, 1, 1, 1]
    total = [FE.zero()] * 4
    for p in deco.projectors:
        assert p.exact
        for c in p.coefficients:
            assert set(c.terms) <= {1, -1}  # Gaussian rational
        for r in range(4):
            total[r] = total[r] + p.coefficients[r]
    assert total[0] == FE.one() and all(t.is_zero() for t in total[1:])
    paired = {i for i, p in enumerate(deco.projectors) if p.conjugate_of is not None}
    assert len(paired) == 2
    for i in paired:
        j = deco.projectors[i].conjugate_of
        conj = tuple(c.conjugate() for c in deco.projectors[i].coefficients)
        assert conj == deco.projectors[j].coefficients
    real = [i for i in range(4) if i not in paired]
    for i in real:
        coeffs = deco.projectors[i].coefficients
        assert tuple(c.conjugate() for c in coeffs) == coeffs
    assert elapsed < 1.0
    _report(3, f"C4 Gaussian projectors in {elapsed:.3f}s")


def test_criterion_4_s3_regular_multiplicity():
    """S3 regular: the d=2 system has Hilbert dimension exactly 2 (the
    rank-one idempotents of M_2 form a 2-dimensional variety); the linear
    route splits that block into exactly two mutually orthogonal 2-dim
    projectors; the family verifies; < 5 s."""
    t0 = time.perf_counter()
    gens = regular_action(symmetric(3))
    basis = compute_orbitals(gens)
    consts = compute_structure_constants(gens, basis)
    deco = split(gens)
    elapsed = time.perf_counter() - t0
    assert basis.rank == 6
    assert deco.dimension_multiset == [1, 1, 2, 2]
    block = [p for p in deco.projectors if p.dimension == 2]
    assert len(block) == 2
    assert all(p.block == 2 and p.provenance == "blockRefinement" for p in block)
    report = verify_family_algebraic(consts, deco)
    assert report.passed
    # the d=2 system the dimension loop meets after the two d=1 projectors
    state = _SplitState(basis, consts, SplitConfig())
    for p in deco.projectors[:2]:
        process_single_solution(state, p)
    gb = groebner_basis(state.d_system(2))
    assert hilbert_dimension(gb) == 2
    assert elapsed < 5.0
    _report(4, f"S3-regular multiplicity block (Hd=2, block of two d=2) in {elapsed:.3f}s")


@pytest.mark.parametrize("name,gens", CORPUS, ids=[n for n, _ in CORPUS])
def test_criterion_5_property_suite(name, gens):
    """>= 20 transitive actions of order <= 5000: structure-constant
    identities, Groebner idempotence and the Buchberger criterion, projector
    idempotency/orthogonality/completeness, sum(d) = N, and the dimension
    multiset against the numeric character oracle."""
    basis = compute_orbitals(gens)
    consts = compute_structure_constants(gens, basis)
    rank = basis.rank
    n_r = basis.suborbit_lengths

    # structure-constant identities
    for p in range(1, rank + 1):
        for q in range(1, rank + 1):
            assert (
                sum(consts.c(p, q, r) * int(n_r[r]) for r in range(1, rank + 1))
                == int(n_r[p]) * int(n_r[q])
            )
            want = int(n_r[p]) if q == int(basis.transpose_of[p]) else 0
            assert consts.c(p, q, 1) == want
    if gens.degree <= 60:
        assert consts.is_commutative() == dense_algebra_commutes(gens)

    # Groebner idempotence + Buchberger criterion on the d=1 system
    gb = groebner_basis(_SplitState(basis, consts, SplitConfig()).d_system(1))
    assert groebner_basis(gb) == gb
    if not is_trivial_basis(gb):
        for i in range(len(gb)):
            for j in range(i):
                assert normal_form(s_polynomial(gb[i], gb[j]), gb).is_zero()

    # full split: verification + dimension oracle
    deco = split(gens)
    report = verify_family_algebraic(consts, deco)
    assert report.passed, [c.name for c in report.failures()]
    assert sum(p.dimension for p in deco.projectors) == gens.degree
    assert deco.dimension_multiset == dimension_multiset(gens)


def test_criterion_5_corpus_size():
    assert len(CORPUS) >= 20
    _report(5, f"property suite over {len(CORPUS)} transitive actions")


def test_criterion_6_m22_770_from_the_golay_code():
    """The paper's example on generators built from the Golay code, by basis
    position: rank 9 with the stated suborbit lengths, 770 = 1 + 21 +
    (55 + 55) + 99 + 154 + 385 with the 55s one multiplicity block over
    Q(sqrt(-7)), every projector exact, and the coefficients of B_1 and
    B_21."""
    t0 = time.perf_counter()
    gens = golay.m22_770()
    basis = compute_orbitals(gens)
    deco = split(gens)
    elapsed = time.perf_counter() - t0
    assert basis.rank == 9
    assert basis.lengths_in_order() == [1, 9, 96, 144, 72, 144, 16, 144, 144]
    assert deco.dimension_multiset == [1, 21, 55, 55, 99, 154, 385]
    assert all(p.exact for p in deco.projectors)
    fives = [p for p in deco.projectors if p.dimension == 55]
    assert fives[0].block == fives[1].block == 55
    assert all(p.block is None for p in deco.projectors if p.dimension != 55)
    for p in fives:
        assert {rad for c in p.coefficients for rad in c.terms} <= {1, -7}
    got = {p.dimension: p.coefficients for p in deco.projectors if p.dimension in (1, 21)}
    assert got[1] == tuple(fe(Fraction(1, 770)) for _ in range(9))
    # b_1 = 21/770 = 3/110, then b_1 / 12 = 1/440 and b_1 * (-3/8) = -9/880
    b21 = ("3/110", "3/110", "1/440", "1/440", "1/440", "-9/880", "-9/880", "1/440", "1/440")
    assert got[21] == tuple(fe(Fraction(b)) for b in b21)
    consts = compute_structure_constants(gens, basis)
    assert verify_family_algebraic(consts, deco).passed
    assert elapsed < 300.0
    _report(6, f"M22-770 from the Golay code in {elapsed:.1f}s")


def test_criterion_6_performance_smoke():
    """The analyze stage completes on a degree >= 10000 synthetic input
    within 10 minutes: the 1-dimensional affine group on GF(10007)."""
    p = 10007
    g = primitive_root(p)
    t0 = time.perf_counter()
    gens = affine(p, g)
    basis = compute_orbitals(gens)
    consts = compute_structure_constants(gens, basis)
    elapsed = time.perf_counter() - t0
    assert basis.rank == 2
    assert basis.lengths_in_order() == [1, p - 1]
    assert consts.c(2, 2, 1) == p - 1
    assert consts.c(2, 2, 2) == p - 2
    assert elapsed < 600.0
    _report(6, f"degree-{p} analyze smoke in {elapsed:.1f}s")
