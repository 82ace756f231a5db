"""Multiplicity blocks: regular S3, where the 2-dimensional irreducible
appears twice.

The centre of the algebra has three primitive idempotents; for the one of
the 2-dimensional irreducible tr(L_E) = 4, so its block is M_2 (k = 2).
``split`` needs no Groebner basis on this input: the block is refined inside
E A with the elements e A_r e until it holds two primitive idempotents,
which the report tags "blockRefinement" and block 2.  Which two is a choice
(u e u^-1 is as good as e for any unit u of the block); their sum, the
central idempotent, is not.

The dimension loop runs only on what the tower cannot split, and the demo
runs it here alone, seeded with no exact idempotent
(``splitter._split_over`` with an empty list).  It meets the block as a
d = 2 idempotency system that is consistent but not zero-dimensional:
Hilbert dimension 2, the rank-one idempotents of the 2 x 2 block.  It slices one particular solution, joins its orthogonality
relations, and re-derives the system until the dimension is exhausted.
How many projectors the block holds is never computed from the Hilbert
dimension; the certificate on the finished family settles the counts.
"""

from permsplit import split, verify_family_algebraic
from permsplit import compute_orbitals, compute_structure_constants
from permsplit import FieldElement, GeneratorSet, Permutation, SplitConfig, splitter
from permsplit.cli import render_decomposition_text


def s3_regular():
    # right-multiplication action on the 6 elements of S3
    def mul(p, q):
        return tuple(q[i] for i in p)

    gens = [(1, 0, 2), (1, 2, 0)]
    elems = [(0, 1, 2)]
    frontier = [(0, 1, 2)]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                h = mul(e, g)
                if h not in elems:
                    elems.append(h)
                    nxt.append(h)
        frontier = nxt
    idx = {e: i + 1 for i, e in enumerate(elems)}
    perms = tuple(
        Permutation.from_images([idx[mul(e, g)] for e in elems]) for g in gens
    )
    return GeneratorSet(6, perms)


def main():
    gens = s3_regular()
    deco = split(gens)
    print(render_decomposition_text(deco))

    basis = compute_orbitals(gens)
    consts = compute_structure_constants(gens, basis)
    report = verify_family_algebraic(consts, deco)
    print("algebraic verification:", "all passed" if report.passed else "FAILED")

    groebner = splitter._split_over(basis, consts, SplitConfig(), [])
    print("\nthe dimension loop's events:")
    for e in groebner.events:
        extra = f" Hd={e.hilbert}" if e.hilbert is not None else ""
        print(f"  d={e.d}: {e.kind}{extra} extracted={e.extracted}")

    def block_sum(family):
        members = [p.coefficients for p in family.projectors if p.block == 2]
        return [sum(col, FieldElement.zero()) for col in zip(*members)]

    print("same block sum both ways:", block_sum(deco) == block_sum(groebner))


if __name__ == "__main__":
    main()
