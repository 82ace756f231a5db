"""End-to-end splits of three small actions, with the exact projector tables.

Each projector B_m lies in the centralizer algebra, B_m = sum_r b_r A_r.  The
centre of the algebra hints at the irreducible dimensions d, and the library
solves the quadratic idempotency systems only at those d (the trace pins
b_1 = d/N exactly), with Groebner bases over the radical tower.  One
certificate checks the finished family on every route: idempotent, mutually
orthogonal, complete, and every projector primitive, so none splits further.
A hinted family that fails it sends the library back to scanning every
d = 1, 2, ..., and a scanned family that fails it is an error.
"""

from permsplit import GeneratorSet, Permutation, parse_generator_text, split
from permsplit.cli import render_decomposition_text


def show(title, gens):
    print("=" * 60)
    print(title)
    deco = split(gens)
    print(render_decomposition_text(deco))


def main():
    show("S3, natural action on 3 points",
         parse_generator_text("degree 3\ngen (1,2,3)\ngen (1,2)"))

    # C4 in its regular action: the four characters appear as projectors over
    # the Gaussian rationals, with one conjugate pair
    show("C4, regular action", parse_generator_text("degree 4\ngen 2 3 4 1"))

    # 2-transitive example: rank 2 means just identity + complement
    show("S5, natural action on 5 points",
         parse_generator_text("degree 5\ngen (1,2)\ngen (1,2,3,4,5)"))


if __name__ == "__main__":
    main()
