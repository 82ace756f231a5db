"""Permutations, group actions, orbits and Schreier trees.

Points are 1-based at every public interface (matching the usual conventions
for permutation group data files); storage is 0-based numpy arrays.  All types
are immutable after construction and all operations are pure functions, except
that ``SchreierTree.row0`` adds the rows it makes to the caller's store.

The Schreier tree stores no coset representatives.  Every row indexed by the
points of the orbit is made by one recurrence, owned by ``SchreierTree.row0``:
with undo_x the inverse of the generator on x's tree edge, r_x =
r_parent(x)[undo_x], one gather per edge from the nearest row already made.
Its base row decides what the rows are: the identity gives the transports
x -> base that the stabilizer scan reads, and the suborbit labels of the base
give the orbital label rows of the label matrix.  ``transport_to_base0`` walks
the same edges for one point or array, such as the label row of one orbital's
representative that the structure constants read.
``SchreierTree.carry0`` runs the recurrence on the image side, a BFS level at
a time: the images of one point set under every tree word, the out-lists of
an orbital graph that certify the suborbits.
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
    "read_input",
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
    the point.  No other module of the library reads ``parent0``,
    ``gen_index`` or ``direction``: ``row0``, ``carry0``,
    ``transport_to_base0`` and ``edge_mask`` are the tree's interface.
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
        b0 = self.base - 1
        while x0 != b0:
            y0 = self.undo0(x0)[y0]
            x0 = int(self.parent0[x0])
        return y0

    def row0(self, x0, rows, capacity=None):
        """The row r_x = r_parent(x)[undo_x] of the point x (0-based).

        ``rows`` maps points to rows and holds the base's row r_base.  The
        walk goes up ``parent0`` to the nearest point that ``rows`` holds
        and comes back down with one gather per tree edge; each row made
        joins ``rows``.  A row that would push ``rows`` past ``capacity``
        rows first clears it back to the base's row.  With the identity as
        r_base, r_x is the transport ``transport_to_base0(x, ·)``; with the
        suborbit labels of the base, r_x is x's orbital label row.
        """
        path = []
        while x0 not in rows:
            path.append(x0)
            x0 = int(self.parent0[x0])
            # parent0 is -1 outside the orbit, and rows holds the base
            if x0 < 0:
                raise ValueError(f"point {path[0] + 1} not in orbit of {self.base}")
        row = rows[x0]
        for y0 in reversed(path):
            row = row.take(self.undo0(y0))
            if capacity is not None and len(rows) >= capacity:
                base_row = rows[self.base - 1]
                rows.clear()
                rows[self.base - 1] = base_row
            rows[y0] = row
        return row

    def carry0(self, points0):
        """The images of the point set S = ``points0`` (0-based) under every
        tree word u_x: base -> x, as an N x |S| array in the dtype of
        ``points0`` whose row x lists S^{u_x} (-1 outside the orbit).

        Row x is s_x[row parent(x)], s_x the generator on x's tree edge:
        the recurrence of ``row0`` on the image side, made for a whole BFS
        level with one gather.
        """
        n = len(self.depth)
        gens = self.gens.generators
        edges = np.stack([a for g in gens for a in (g.images0, g.inv_images0)])
        edges = edges.astype(points0.dtype).ravel()
        # where x's edge generator starts in ``edges``
        offset = (2 * self.gen_index + (self.direction < 0)) * n
        rows = np.full((n, len(points0)), -1, dtype=points0.dtype)
        rows[self.base - 1] = points0
        order = np.argsort(self.depth, kind="stable")
        # order lists the points outside the orbit, the base, then each level
        start = int(np.count_nonzero(self.depth < 0)) + 1
        for size in np.bincount(self.depth[order[start:]]).tolist()[1:]:
            level = order[start : start + size]
            start += size
            above = rows.take(self.parent0.take(level), axis=0)
            rows[level] = edges.take(above + offset.take(level)[:, None])
        return rows

    def undo0(self, x0):
        """The image array of the inverse of the labelled generator on the
        tree edge into x (0-based, x not the base): it maps x to its parent."""
        g = self.gens.generators[self.gen_index[x0]]
        return g.inv_images0 if self.direction[x0] > 0 else g.images0

    def edge_mask(self):
        """mask[p, i] is True when p -> p^s (0-based p, s the generator i) is
        the tree edge of p^s, or the reverse of the tree edge of p.

        Its Schreier generator u_p·s·u_{p^s}^{-1} is then the identity by
        construction.  An orbit of N points has exactly N−1 such pairs.
        """
        mask = np.zeros((len(self.parent0), len(self.gens)), dtype=bool)
        forward = np.flatnonzero(self.direction > 0)
        mask[self.parent0[forward], self.gen_index[forward]] = True
        inverse = np.flatnonzero(self.direction < 0)
        mask[inverse, self.gen_index[inverse]] = True
        return mask


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
    # Permutation._check repeats this range test, but only after np.asarray,
    # which would raise an uncaught OverflowError on an image past int64
    if any(not 1 <= x <= degree for x in images):
        raise ParseError("point out of range in image list", lineno)
    try:
        return Permutation.from_images(images)
    except ValueError as e:
        raise ParseError(str(e), lineno) from None


def read_input(path):
    """The UTF-8 text of the input file at ``path``.  A file that cannot be
    read as such (missing, a directory, not UTF-8) is a ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(str(e)) from e


def parse_generators(path):
    """Parse the generator file at ``path``; ``parse_generator_text`` reads text."""
    return parse_generator_text(read_input(path))


# -- orbits and Schreier trees ------------------------------------------------


def orbit_with_tree(gens: GeneratorSet, base: int):
    """The deterministic BFS Schreier tree of the orbit of ``base``; the
    orbit is read off it as the points with ``tree.depth >= 0``.

    Level-synchronised BFS, one array pass per level: a point new to the
    tree hangs off its first occurrence in the level's (points x 2K) image
    table, read with points ascending, generators in list order, forward
    image before inverse, exactly as a point-by-point BFS in the same order
    would attach it.  That first occurrence is the least key p * 2K + column
    over the table entries that reach the point, taken with one
    ``np.minimum.at``, so the level itself needs no order and no level is
    sorted.
    """
    n = gens.degree
    if not 1 <= base <= n:
        raise ValueError(f"base {base} out of range 1..{n}")
    parent = np.full(n, -1, dtype=np.int64)
    gen_index = np.full(n, -1, dtype=np.int64)
    direction = np.zeros(n, dtype=np.int64)
    depth = np.full(n, -1, dtype=np.int64)
    # row p: p's image under each generator, forward image before inverse
    table = np.stack([a for g in gens.generators for a in (g.images0, g.inv_images0)], axis=1)
    width = table.shape[1]
    first = np.full(n, n * width, dtype=np.int64)  # least key that reached each point
    level = np.array([base - 1], dtype=np.int64)
    depth[level] = 0
    d = 0
    while level.size:
        d += 1
        images = table[level].ravel()
        unseen = np.flatnonzero(depth[images] < 0)
        reached = images[unseen]
        keys = level[unseen // width] * width + unseen % width
        np.minimum.at(first, reached, keys)
        # each new point once: at the entry that holds its least key
        level = reached[first[reached] == keys]
        depth[level] = d
    # a point's least key names its parent and the column of its edge
    hung = np.flatnonzero(depth > 0)
    parent[hung], column = np.divmod(first[hung], width)
    gen_index[hung] = column // 2
    direction[hung] = 1 - 2 * (column % 2)
    for a in (parent, gen_index, direction, depth):
        a.setflags(write=False)
    return SchreierTree(base, parent, gen_index, direction, depth, gens)


def is_transitive(gens: GeneratorSet):
    return bool((orbit_with_tree(gens, 1).depth >= 0).all())
