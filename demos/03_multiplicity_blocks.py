"""The multiplicity branch: regular S3, where the 2-dimensional irreducible
appears twice.

At d = 2 the idempotency system is consistent but not zero-dimensional: its
solution set is a 2-parameter family (Hilbert dimension 2, the rank-one
idempotents of the 2 x 2 block).  A positive dimension only tells the
splitter to slice: it pins free coordinates to small rationals, takes one
particular solution, joins its orthogonality relations, and re-derives the
system until the dimension is exhausted.  How many projectors the block
holds is never computed from the Hilbert dimension; the certificate on the
finished family settles the counts.
"""

from permsplit import split, verify_family_algebraic
from permsplit import compute_orbitals, compute_structure_constants
from permsplit import GeneratorSet, Permutation
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

    print("dimension-loop events:")
    for e in deco.events:
        extra = f" Hd={e.hilbert}" if e.hilbert is not None else ""
        print(f"  d={e.d}: {e.kind}{extra} extracted={e.extracted}")

    sliced = [p for p in deco.projectors if p.provenance == "slicedSolution"]
    print(f"\n{len(sliced)} projector(s) came from slicing; "
          "the complement of a sliced projector inside its block is unique, "
          "so the second one falls out of a zero-dimensional re-run.")

    basis = compute_orbitals(gens)
    consts = compute_structure_constants(gens, basis)
    report = verify_family_algebraic(consts, deco)
    print("algebraic verification:", "all passed" if report.passed else "FAILED")


if __name__ == "__main__":
    main()
