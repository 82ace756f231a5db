"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Criterion 6's full reproduction needs user-supplied generators for
M22 on 770 points and is skipped without them; its synthetic performance
smoke test always runs.
"""

import time
from fractions import Fraction

import pytest

from permsplit import (
    FieldElement,
    GeneratorSet,
    Permutation,
    compute_orbitals,
    compute_structure_constants,
    parse_generators,
    split,
    verify_family_algebraic,
    compare_to_reference,
)
from permsplit.polynomial import groebner_basis, hilbert_dimension, normal_form, s_polynomial
from permsplit.splitter import (
    SplitConfig,
    _SplitState,
    build_idempotency_system,
    process_single_solution,
)

from conftest import (
    CORPUS,
    cyclic,
    m22_path,
    petersen,
    regular_action,
    requires_m22,
    symmetric,
)
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
    assert hilbert_dimension(gb, nvars=state.sub_ring.nvars) == 2
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
    system = build_idempotency_system(consts)
    state_polys = [
        p.substitute(0, Fraction(1, gens.degree)) for p in system.polys
    ]
    sub_ring_polys = []
    from permsplit.polynomial import Ring

    sub_ring = Ring(system.ring.names[1:], "degrevlex")
    for p in state_polys:
        dropped = p.drop_variable(0, sub_ring)
        if not dropped.is_zero():
            sub_ring_polys.append(dropped)
    if sub_ring_polys:
        gb = groebner_basis(sub_ring_polys)
        assert groebner_basis(gb) == gb
        from permsplit.polynomial import is_trivial_basis

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


@requires_m22
def test_criterion_6_m22_770():
    """Paper-scale reproduction on user-supplied M22 generators: rank 9,
    the stated suborbit lengths, decomposition 1+21+(55+55)+99+154+385,
    coefficient table spot checks, <= 5 minutes."""
    t0 = time.perf_counter()
    gens = parse_generators(m22_path())
    basis = compute_orbitals(gens)
    assert basis.rank == 9
    assert basis.lengths_in_order() == [1, 96, 144, 72, 144, 9, 16, 144, 144]
    deco = split(gens)
    elapsed = time.perf_counter() - t0
    assert deco.dimension_multiset == sorted([1, 21, 55, 55, 99, 154, 385])
    got = {p.dimension: p for p in deco.projectors if p.dimension in (1, 21)}
    assert got[1].coefficients == tuple(fe(Fraction(1, 770)) for _ in range(9))
    b21 = got[21].coefficients
    assert b21[0] == fe(Fraction(3, 110))  # = 21/770
    assert b21[5] == fe(Fraction(3, 110))  # the A6 coefficient equals b1
    assert b21[1] == fe(Fraction(3, 110) * Fraction(1, 12))
    assert b21[4] == fe(Fraction(3, 110) * Fraction(-3, 8))
    fives = [p for p in deco.projectors if p.dimension == 55]
    assert len(fives) == 2 and all(p.block is not None for p in fives)
    for p in fives:
        assert p.exact
        rads = {rad for c in p.coefficients for rad in c.terms}
        assert rads <= {1, -7}  # rationals and i*sqrt(7)
    consts = compute_structure_constants(gens, basis)
    assert verify_family_algebraic(consts, deco).passed
    assert elapsed < 300.0
    _report(6, f"M22-770 reproduction in {elapsed:.1f}s")


def _agl_generators(p, g):
    add = Permutation.from_images([(i % p) + 1 for i in range(1, p + 1)])
    mul = Permutation.from_images([((g * (i - 1)) % p) + 1 for i in range(1, p + 1)])
    return GeneratorSet(p, (add, mul))


def test_criterion_6_performance_smoke():
    """The analyze stage completes on a degree >= 10000 synthetic input
    within 10 minutes: the 1-dimensional affine group on GF(10007)."""
    p = 10007
    g = next(
        x
        for x in range(2, p)
        if pow(x, (p - 1) // 2, p) != 1 and pow(x, (p - 1) // 5003, p) != 1
    )
    t0 = time.perf_counter()
    gens = _agl_generators(p, g)
    basis = compute_orbitals(gens)
    consts = compute_structure_constants(gens, basis)
    elapsed = time.perf_counter() - t0
    assert basis.rank == 2
    assert basis.lengths_in_order() == [1, p - 1]
    assert consts.c(2, 2, 1) == p - 1
    assert consts.c(2, 2, 2) == p - 2
    assert elapsed < 600.0
    _report(6, f"degree-{p} analyze smoke in {elapsed:.1f}s")
