"""Permutations, group actions, orbits and Schreier trees.

Points are 1-based at every public interface (matching the usual conventions
for permutation group data files); storage is 0-based numpy arrays.  All types
are immutable after construction and all operations are pure functions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError

__all__ = [
    "Permutation",
    "GeneratorSet",
    "SchreierTree",
    "parse_generators",
    "parse_generator_text",
    "orbit_with_tree",
    "is_transitive",
]


class Permutation:
    """A permutation of {1..N}, stored as a 0-based image array.

    ``images0[i]`` is the 0-based image of the 0-based point ``i``.  The
    inverse image array is computed once on demand and cached.
    """

    __slots__ = ("images0", "_inv0")

    def __init__(self, images0):
        arr = np.asarray(images0, dtype=np.int64)
        arr.setflags(write=False)
        self.images0 = arr
        self._inv0 = None

    @classmethod
    def identity(cls, degree):
        return cls(np.arange(degree, dtype=np.int64))

    @classmethod
    def from_images(cls, images):
        """Build from a 1-based image list: images[i-1] = i^g."""
        arr = np.asarray(images, dtype=np.int64) - 1
        p = cls(arr)
        p._check()
        return p

    @classmethod
    def from_cycles(cls, degree, cycles):
        """Build from 1-based disjoint cycles; fixed points omitted."""
        arr = np.arange(degree, dtype=np.int64)
        seen = set()
        for cyc in cycles:
            for a in cyc:
                if not 1 <= a <= degree:
                    raise ValueError(f"point {a} out of range 1..{degree}")
                if a in seen:
                    raise ValueError(f"repeated point {a} in cycle notation")
                seen.add(a)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                arr[a - 1] = b - 1
        return cls(arr)

    def _check(self):
        n = len(self.images0)
        if n == 0:
            raise ValueError("empty permutation")
        if self.images0.min() < 0 or self.images0.max() >= n:
            raise ValueError("image out of range")
        if np.bincount(self.images0, minlength=n).max() > 1:
            raise ValueError("repeated image: not a bijection on 1..N")

    @property
    def inv_images0(self):
        if self._inv0 is None:
            inv = np.empty_like(self.images0)
            inv[self.images0] = np.arange(len(self.images0), dtype=np.int64)
            inv.setflags(write=False)
            self._inv0 = inv
        return self._inv0

    @property
    def degree(self):
        return len(self.images0)

    def apply(self, point):
        """Image of a 1-based point."""
        return int(self.images0[point - 1]) + 1

    def images(self):
        """1-based image list."""
        return [int(x) + 1 for x in self.images0]

    def inverse(self):
        return Permutation(self.inv_images0)

    def compose(self, other):
        """self then other: i^(self*other) = (i^self)^other."""
        return Permutation(other.images0[self.images0])

    __mul__ = compose

    def cycles(self):
        """Nontrivial cycles, 1-based, each starting at its minimal point."""
        n = self.degree
        seen = np.zeros(n, dtype=bool)
        out = []
        for i in range(n):
            if seen[i] or self.images0[i] == i:
                continue
            cyc = [i + 1]
            seen[i] = True
            j = int(self.images0[i])
            while j != i:
                seen[j] = True
                cyc.append(j + 1)
                j = int(self.images0[j])
            out.append(tuple(cyc))
        return out

    def __eq__(self, other):
        return isinstance(other, Permutation) and np.array_equal(
            self.images0, other.images0
        )

    def __hash__(self):
        return hash(self.images0.tobytes())

    def __repr__(self):
        cyc = self.cycles()
        if not cyc:
            return f"Permutation(id, degree={self.degree})"
        body = "".join("(" + ",".join(map(str, c)) + ")" for c in cyc)
        return f"Permutation({body})"


@dataclass(frozen=True)
class GeneratorSet:
    """A nonempty list of same-degree permutations generating the group."""

    degree: int
    generators: tuple

    def __post_init__(self):
        if not self.generators:
            raise ValueError("empty generator list")
        for g in self.generators:
            if g.degree != self.degree:
                raise ValueError("generators of mixed degree")
        object.__setattr__(self, "generators", tuple(self.generators))

    def __len__(self):
        return len(self.generators)

    def __iter__(self):
        return iter(self.generators)


@dataclass(frozen=True)
class SchreierTree:
    """BFS tree over one orbit.

    ``parent0``, ``gen_index`` are −1 outside the orbit and at the base;
    ``direction`` is +1 for a forward generator edge, −1 for an inverse edge.
    Following ``parent0`` links from any orbit point reaches the base, and
    applying the labelled generators along the reversed path maps the base to
    the point.
    """

    base: int                     # 1-based
    parent0: np.ndarray
    gen_index: np.ndarray
    direction: np.ndarray
    depth: np.ndarray             # -1 outside the orbit
    gens: GeneratorSet = field(repr=False)

    def transport_to_base0(self, x0, y0):
        """Image of y under the inverse of the tree word base -> x (0-based).

        ``y0`` is one point or an index array, and so is the result.  Walks
        x up to the base along ``parent0``, undoing one edge at a time:
        O(depth) lookups or array passes, and no words or transversal
        permutations are ever stored.
        """
        if self.depth[x0] < 0:
            raise ValueError(f"point {x0 + 1} not in orbit of {self.base}")
        gens = self.gens.generators
        b0 = self.base - 1
        while x0 != b0:
            g = gens[self.gen_index[x0]]
            y0 = (g.inv_images0 if self.direction[x0] > 0 else g.images0)[y0]
            x0 = int(self.parent0[x0])
        return y0

    def is_edge0(self, p0, gen_index):
        """True when p -> p^s (0-based p, s the generator ``gen_index``) is
        the tree edge of p^s, or the reverse of the tree edge of p.

        Its Schreier generator u_p·s·u_{p^s}^{-1} is then the identity by
        construction.  An orbit of N points has exactly N−1 such pairs.
        """
        q0 = int(self.gens.generators[gen_index].images0[p0])
        if self.parent0[q0] == p0 and self.direction[q0] > 0:
            return bool(self.gen_index[q0] == gen_index)
        return bool(
            self.parent0[p0] == q0
            and self.direction[p0] < 0
            and self.gen_index[p0] == gen_index
        )


# -- generator file parsing ---------------------------------------------------

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_generator_text(text):
    """Parse the generator file grammar.

    Lines: ``degree <N>``, then one or more ``gen <spec>`` where ``<spec>`` is
    cycle notation ``(a,b,c)(d,e)`` (1-based, fixed points omitted) or a
    whitespace-separated image list of exactly N integers.  ``#`` starts a
    comment; blank lines are ignored.
    """
    degree = None
    gens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        keyword = parts[0].lower()
        rest = parts[1].strip() if len(parts) > 1 else ""
        if keyword == "degree":
            if degree is not None:
                raise ParseError("duplicate degree line", lineno)
            try:
                degree = int(rest)
            except ValueError:
                raise ParseError(f"malformed degree {rest!r}", lineno) from None
            if degree <= 0:
                raise ParseError("degree must be positive", lineno)
        elif keyword == "gen":
            if degree is None:
                raise ParseError("gen line before degree line", lineno)
            gens.append(_parse_gen_spec(rest, degree, lineno))
        else:
            raise ParseError(f"unknown keyword {keyword!r}", lineno)
    if degree is None:
        raise ParseError("missing degree line")
    if not gens:
        raise ParseError("empty generator list")
    return GeneratorSet(degree, tuple(gens))


def _parse_gen_spec(spec, degree, lineno):
    if spec.startswith("("):
        tail = _CYCLE_RE.sub("", spec).strip()
        if tail:
            raise ParseError(f"malformed token {tail!r} in cycle notation", lineno)
        cycles = []
        for m in _CYCLE_RE.finditer(spec):
            body = m.group(1).strip()
            if not body:
                continue
            try:
                cyc = [int(t) for t in re.split(r"[,\s]+", body)]
            except ValueError:
                raise ParseError(f"malformed cycle ({body})", lineno) from None
            cycles.append(cyc)
        try:
            return Permutation.from_cycles(degree, cycles)
        except ValueError as e:
            raise ParseError(str(e), lineno) from None
    tokens = spec.split()
    try:
        images = [int(t) for t in tokens]
    except ValueError:
        raise ParseError(f"malformed token in image list: {spec!r}", lineno) from None
    if len(images) != degree:
        raise ParseError(
            f"image list has {len(images)} entries, expected {degree}", lineno
        )
    if any(not 1 <= x <= degree for x in images):
        raise ParseError("point out of range in image list", lineno)
    try:
        return Permutation.from_images(images)
    except ValueError as e:
        raise ParseError(str(e), lineno) from None


def parse_generators(path):
    """Parse the generator file at ``path``; ``parse_generator_text`` reads text."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_generator_text(fh.read())


# -- orbits and Schreier trees ------------------------------------------------


def orbit_with_tree(gens: GeneratorSet, base: int):
    """Orbit of ``base`` with a deterministic BFS Schreier tree.

    Level-synchronised BFS: within each level points are expanded in
    ascending value, generators in list order, forward image before inverse.
    """
    n = gens.degree
    if not 1 <= base <= n:
        raise ValueError(f"base {base} out of range 1..{n}")
    parent = np.full(n, -1, dtype=np.int64)
    gen_index = np.full(n, -1, dtype=np.int64)
    direction = np.zeros(n, dtype=np.int64)
    depth = np.full(n, -1, dtype=np.int64)
    b0 = base - 1
    depth[b0] = 0
    level = [b0]
    while level:
        nxt = []
        for p0 in sorted(level):
            for gi, g in enumerate(gens.generators):
                for d, arr in ((1, g.images0), (-1, g.inv_images0)):
                    q0 = int(arr[p0])
                    if depth[q0] < 0:
                        depth[q0] = depth[p0] + 1
                        parent[q0] = p0
                        gen_index[q0] = gi
                        direction[q0] = d
                        nxt.append(q0)
        level = nxt
    orbit = {int(i) + 1 for i in np.nonzero(depth >= 0)[0]}
    for a in (parent, gen_index, direction, depth):
        a.setflags(write=False)
    tree = SchreierTree(base, parent, gen_index, direction, depth, gens)
    return orbit, tree


def is_transitive(gens: GeneratorSet):
    orbit, _ = orbit_with_tree(gens, 1)
    return len(orbit) == gens.degree
