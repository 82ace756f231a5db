"""Orbitals, the ordered basis, and structure constants, on a 10-point action.

The running example is A5 acting on unordered pairs of {1..5}, labeled so
that pair #2 is disjoint from pair #1 (that labeling makes the valency-3
orbital come second in the basis ordering).  The orbital graph of that
suborbit is the Petersen graph.
"""

from itertools import combinations

from permsplit import (
    GeneratorSet,
    Permutation,
    compute_orbitals,
    compute_structure_constants,
    is_transitive,
)

PAIR_ORDER = [
    (1, 2), (3, 4), (3, 5), (4, 5), (1, 3),
    (1, 4), (1, 5), (2, 3), (2, 4), (2, 5),
]


def induced_on_pairs(perm5):
    idx = {p: i + 1 for i, p in enumerate(PAIR_ORDER)}
    images = []
    for a, b in PAIR_ORDER:
        x, y = perm5[a - 1], perm5[b - 1]
        images.append(idx[(min(x, y), max(x, y))])
    return Permutation.from_images(images)


def main():
    # A5 = <(1,2,3,4,5), (1,2,3)>, pushed to the 10 pairs
    five = [2, 3, 4, 5, 1]
    three = [2, 3, 1, 4, 5]
    gens = GeneratorSet(10, (induced_on_pairs(five), induced_on_pairs(three)))
    print("transitive on the 10 pairs:", is_transitive(gens))

    basis = compute_orbitals(gens)
    print(f"rank R = {basis.rank}")
    print("suborbit lengths in basis order:", basis.lengths_in_order())
    print("symmetric orbitals:", [bool(basis.symmetric[r]) for r in (0, 1, 2)])
    print("suborbit of the base paired with A2:", basis.suborbit_members(2))

    # membership of an arbitrary ordered pair is a Schreier-word translation
    print("orbital of (3, 7):", basis.orbital_of_pair(3, 7))

    consts = compute_structure_constants(gens, basis)
    print("\nmultiplication table of the basis (A_p A_q = sum_r C_pq^r A_r):")
    for p in range(1, 4):
        for q in range(1, 4):
            row = [consts.c(p, q, r) for r in range(1, 4)]
            print(f"  A{p} * A{q} -> {row}")
    # A2 is the Petersen adjacency: A2^2 = 3*A1 + 0*A2 + 1*A3, i.e. the
    # strongly-regular relation with k = 3, lambda = 0, mu = 1
    assert [consts.c(2, 2, r) for r in (1, 2, 3)] == [3, 0, 1]
    print("\nA2^2 = 3*A1 + A3: the srg(10,3,0,1) relation, recovered exactly")


if __name__ == "__main__":
    main()
