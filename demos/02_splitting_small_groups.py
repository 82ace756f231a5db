"""End-to-end splits of three small actions, with the exact projector tables.

Each projector B_m lies in the centralizer algebra, B_m = sum_r b_r A_r.
All three algebras are commutative and their centres split over the radical
tower, so the library reads the projectors off the central idempotents by
exact linear algebra: the minimal polynomial of a central element, its roots
in the tower, and the Lagrange idempotents.  (Where the tower cannot split
the centre, it solves quadratic idempotency systems with Groebner bases
instead.)  One certificate checks the finished family on every route:
idempotent, mutually orthogonal, complete, and every projector primitive, so
none splits further.
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
