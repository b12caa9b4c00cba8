"""Abstract simplicial complexes and their combinatorial predicates.

Complexes live on vertex set {0..n-1} and are described by their maximal
faces (facets).  The predicates are flagness, empty squares and isolated
squares; the constructions are vertex links, full subcomplexes, disjoint
unions, joins, clique complexes and the (oriented) barycentric subdivision.
"""

import json
from functools import lru_cache
from itertools import combinations, permutations
from typing import NamedTuple, Optional


class InvalidComplexError(ValueError):
    """Raised when facet data violates the complex invariants."""


class SimplicialComplex:
    """Finite abstract simplicial complex given by its facets.

    Vertices are 0..vertex_count-1, every vertex appears in some facet,
    and no facet contains another.  Faces up to dimension 3 are hashed at
    construction; higher faces are answered by scanning facets.  The
    facets at each vertex are listed on the first call of ``star``.
    """

    __slots__ = ("vertex_count", "facets", "_faces_small", "_adj", "_stars")

    def __init__(self, vertex_count, facets):
        self.vertex_count = int(vertex_count)
        seen = set()
        clean = []
        for f in facets:
            t = tuple(f)
            if list(t) != sorted(set(t)):
                raise InvalidComplexError("facet %r is not sorted and duplicate-free" % (f,))
            if not t:
                raise InvalidComplexError("empty facet")
            if t[0] < 0 or t[-1] >= self.vertex_count:
                raise InvalidComplexError("facet %r has a vertex out of range" % (f,))
            if t in seen:
                raise InvalidComplexError("facet %r listed twice" % (f,))
            seen.add(t)
            clean.append(t)
        clean.sort(key=lambda t: (len(t), t))
        self.facets = tuple(clean)

        # hash all faces of dimension <= 3 (size <= 4)
        small = set()
        for f in self.facets:
            k = min(len(f), 4)
            for size in range(1, k + 1):
                small.update(combinations(f, size))
        self._faces_small = frozenset(small)

        # facet vertices lie in range(vertex_count): equal sizes mean all are
        # covered, and the first uncovered vertex is at most len(covered)
        covered = {v for f in self.facets for v in f}
        if len(covered) != self.vertex_count:
            first = next(v for v in range(self.vertex_count) if v not in covered)
            raise InvalidComplexError(
                "vertex %d appears in no facet (%d of %d covered)"
                % (first, len(covered), self.vertex_count))

        # no facet contains another; only cross-size pairs can violate this
        by_size = {}
        for f in self.facets:
            by_size.setdefault(len(f), []).append(f)
        bigger = []
        for size in sorted(by_size, reverse=True):
            for f in by_size[size]:
                fs = set(f)
                for g in bigger:
                    if fs <= g:
                        raise InvalidComplexError(
                            "facet %r contained in facet %r" % (f, tuple(sorted(g))))
            bigger.extend(set(f) for f in by_size[size])

        adj = [set() for _ in range(self.vertex_count)]
        for (u, v) in self.faces(1):
            adj[u].add(v)
            adj[v].add(u)
        self._adj = tuple(frozenset(s) for s in adj)
        self._stars = None

    # -- basic queries ---------------------------------------------------

    def has_face(self, face):
        t = tuple(sorted(face))
        if len(t) != len(set(t)):
            return False
        if len(t) <= 4:
            return t in self._faces_small
        fs = set(t)
        return any(fs <= set(f) for f in self.facets if len(f) >= len(t))

    def faces(self, dim):
        """Sorted list of all faces of the given dimension."""
        size = dim + 1
        out = set()
        for f in self.facets:
            if len(f) >= size:
                out.update(combinations(f, size))
        return sorted(out)

    def all_faces(self):
        """Every nonempty face, sorted by (dimension, lex)."""
        out = set()
        for f in self.facets:
            for size in range(1, len(f) + 1):
                out.update(combinations(f, size))
        return sorted(out, key=lambda t: (len(t), t))

    def dim(self):
        return max(len(f) for f in self.facets) - 1 if self.facets else -1

    def f_vector(self):
        counts = {}
        for f in self.facets:
            for size in range(1, len(f) + 1):
                counts.setdefault(size, set()).update(combinations(f, size))
        return tuple(len(counts[s]) for s in sorted(counts))

    def euler_characteristic(self):
        fv = self.f_vector()
        return sum((-1) ** d * c for d, c in enumerate(fv))

    def neighbors(self, v):
        return self._adj[v]

    def star(self, v):
        """The facets containing vertex v, in facet order."""
        if self._stars is None:
            stars = [[] for _ in range(self.vertex_count)]
            for f in self.facets:
                for u in f:
                    stars[u].append(f)
            self._stars = tuple(map(tuple, stars))
        return self._stars[v]

    def is_pure(self, dim=None):
        sizes = {len(f) for f in self.facets}
        if len(sizes) != 1:
            return False
        return True if dim is None else sizes == {dim + 1}

    def __eq__(self, other):
        return (isinstance(other, SimplicialComplex)
                and self.vertex_count == other.vertex_count
                and self.facets == other.facets)

    def __hash__(self):
        return hash((self.vertex_count, self.facets))

    def __repr__(self):
        return "SimplicialComplex(%d vertices, %d facets, dim %d)" % (
            self.vertex_count, len(self.facets), self.dim())

    # -- JSON interchange --------------------------------------------------

    def to_json(self):
        return {"vertices": self.vertex_count,
                "facets": [list(f) for f in self.facets]}

    @classmethod
    def from_json(cls, data):
        if not isinstance(data, dict) or "vertices" not in data or "facets" not in data:
            raise InvalidComplexError("complex JSON needs 'vertices' and 'facets'")
        facets = data["facets"]
        if not isinstance(facets, list):
            raise InvalidComplexError("'facets' must be a list")
        vertices = data["vertices"]
        if type(vertices) is not int or vertices < 0:
            raise InvalidComplexError("'vertices' must be a non-negative integer")
        for idx, f in enumerate(facets):
            if not isinstance(f, list) or not all(type(v) is int for v in f):
                raise InvalidComplexError("facet #%d is not a list of integers" % idx)
            if f != sorted(set(f)):
                raise InvalidComplexError(
                    "facet #%d (%r) is not sorted and duplicate-free" % (idx, f))
        return cls(vertices, facets)

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        try:
            data = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: deep nesting
            raise InvalidComplexError("malformed complex JSON: %s" % exc) from exc
        return cls.from_json(data)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, sort_keys=True)
            fh.write("\n")


class Square(NamedTuple):
    """An empty square: a 4-cycle whose diagonals are non-edges.

    The cycle is stored in canonical form, the lexicographically least of
    its 8 dihedral rotations and reflections.
    """

    cycle: tuple

    @staticmethod
    def canonical(cycle):
        a, b, c, d = cycle
        images = [(a, b, c, d), (b, c, d, a), (c, d, a, b), (d, a, b, c),
                  (d, c, b, a), (c, b, a, d), (b, a, d, c), (a, d, c, b)]
        return Square(min(images))

    def vertices(self):
        return frozenset(self.cycle)

    def validate(self, complex_):
        a, b, c, d = self.cycle
        if len({a, b, c, d}) != 4:
            raise ValueError("square vertices must be distinct")
        for u, v in ((a, b), (b, c), (c, d), (d, a)):
            if not complex_.has_face((u, v)):
                raise ValueError("square side (%d,%d) is not an edge" % (u, v))
        for u, v in ((a, c), (b, d)):
            if complex_.has_face((u, v)):
                raise ValueError("square diagonal (%d,%d) is an edge" % (u, v))


class FlagReport(NamedTuple):
    is_flag: bool
    witness: Optional[tuple]  # a minimal non-spanning clique when not flag


class IsolatedSquaresReport(NamedTuple):
    has_isolated_squares: bool
    offending_vertex: Optional[int]


def is_flag(complex_):
    """Check that every clique of the 1-skeleton spans a face.

    Candidate cliques of size k are grown from (k-1)-faces, so any clique
    found missing has all proper subsets present: it is a minimal
    non-spanning clique.
    """
    current = [tuple(f) for f in complex_.faces(1)]
    size = 2
    while current:
        size += 1
        nxt = []
        for face in current:
            last = face[-1]
            common = complex_._adj[face[0]]
            for v in face[1:]:
                common = common & complex_._adj[v]
            for v in common:
                if v <= last:
                    continue
                cand = face + (v,)
                # all (size-1)-subsets must be faces for minimality
                if all(complex_.has_face(cand[:i] + cand[i + 1:])
                       for i in range(size)):
                    if not complex_.has_face(cand):
                        return FlagReport(False, cand)
                    nxt.append(cand)
        current = nxt
    return FlagReport(True, None)


class PairScan(NamedTuple):
    squares: list     # sorted canonical Squares
    caprace_witnesses: tuple  # sorted ((5-vertex tuple, "3-points" | "edge-point"), ...)


def scan_nonadjacent_pairs(complex_):
    """Squares and Caprace witnesses from the common neighbourhoods C(p, q).

    C(p, q) of every non-adjacent pair p < q is gathered by walking the
    paths p - m - q of length two (work: the sum of squared degrees).  A
    square is a non-adjacent pair x < y in C(p, q), taken once, when p is
    its least vertex and so (p, x, q, y) its canonical cycle.  A witness is
    a triple of C(p, q) spanning no edge (the full subcomplex is the
    suspension of 3 points), or exactly one edge uv with puv and quv faces
    (the suspension of an edge and a point).
    """
    adj = complex_._adj
    squares = []
    witnesses = set()
    for p in range(complex_.vertex_count):
        common = {}
        for m in adj[p]:
            for q in adj[m]:
                if q > p and q not in adj[p]:
                    common.setdefault(q, []).append(m)
        for q, mids in common.items():
            mids.sort()
            for i, x in enumerate(mids):
                for y in mids[i + 1:]:
                    if p < x and y not in adj[x]:
                        squares.append(Square((p, x, q, y)))
            for x, y, z in combinations(mids, 3):
                edges = [(u, v) for u, v in ((x, y), (x, z), (y, z)) if v in adj[u]]
                if not edges:
                    kind = "3-points"
                elif (len(edges) == 1 and complex_.has_face((p,) + edges[0])
                      and complex_.has_face((q,) + edges[0])):
                    kind = "edge-point"
                else:
                    continue
                witnesses.add((tuple(sorted((p, q, x, y, z))), kind))
    return PairScan(sorted(squares), tuple(sorted(witnesses)))


def find_squares(complex_):
    """All empty squares, canonical form, sorted lexicographically."""
    return scan_nonadjacent_pairs(complex_).squares


def has_isolated_squares(complex_, squares=None):
    """True when no vertex lies in two distinct squares."""
    if squares is None:
        squares = find_squares(complex_)
    seen = {}
    for s in squares:
        for v in s.cycle:
            if v in seen:
                return IsolatedSquaresReport(False, v)
            seen[v] = s
    return IsolatedSquaresReport(True, None)


def vertex_link(complex_, v):
    """Link of a vertex, relabelled onto 0..k-1 by sorted neighbor order.

    Vertex i of the result corresponds to the i-th smallest neighbor of v.
    """
    if not 0 <= v < complex_.vertex_count:
        raise ValueError("vertex %d out of range" % v)
    nbrs = sorted(complex_.neighbors(v))
    index = {u: i for i, u in enumerate(nbrs)}
    facets = [tuple(index[u] for u in f if u != v) for f in complex_.star(v)]
    return SimplicialComplex(len(nbrs), sorted(f for f in facets if f))


def maximal_faces(faces):
    """The faces contained in no other face, sorted; repeats count once."""
    kept = []
    for f in sorted(set(faces), key=len, reverse=True):
        fs = set(f)
        if not any(fs <= g for g in kept):
            kept.append(fs)
    return sorted(tuple(sorted(g)) for g in kept)


def full_subcomplex(complex_, vertices):
    """Faces of the complex entirely contained in the given vertex set.

    Relabelled onto 0..|S|-1 in sorted order of the original vertices.
    """
    vs = sorted(set(vertices))
    if vs and (vs[0] < 0 or vs[-1] >= complex_.vertex_count):
        raise ValueError("vertex set not contained in the complex")
    inside = set(vs)
    index = {u: i for i, u in enumerate(vs)}
    kept = (tuple(index[u] for u in f if u in inside) for f in complex_.facets)
    return SimplicialComplex(len(vs), maximal_faces(f for f in kept if f))


def _parity(seq):
    """Sign of the permutation that sorts ``seq``."""
    par = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                par = -par
    return par


def _subfaces(facet):
    """The nonempty faces of a facet, listed by (size, lex)."""
    return [face for k in range(1, len(facet) + 1) for face in combinations(facet, k)]


@lru_cache(maxsize=None)
def _flag_table(size):
    """Per vertex order of a facet of the given size: its parity and the
    positions of its prefixes in ``_subfaces`` of the facet."""
    position = {face: i for i, face in enumerate(_subfaces(range(size)))}
    return tuple((_parity(order),
                  tuple(position[tuple(sorted(order[:k]))] for k in range(1, size + 1)))
                 for order in permutations(range(size)))


def oriented_subdivision(facets_signed):
    """Barycentric subdivision of a list of (sorted facet, sign) pairs.

    One new vertex per face, numbered by (dimension, lex); one new facet per
    flag v0 < v0v1 < ... of each facet, that is per order in which the flag
    adds the facet's vertices, signed by the facet's sign times the parity
    of that order.  Returns the signed facets and the face -> id map.
    """
    subfaces = [_subfaces(f) for f, _ in facets_signed]
    faces = sorted({face for own in subfaces for face in own}, key=lambda t: (len(t), t))
    face_id = {f: i for i, f in enumerate(faces)}
    out = []
    for (f, sign), own in zip(facets_signed, subfaces):
        ids = list(map(face_id.__getitem__, own))
        for parity, prefixes in _flag_table(len(f)):
            out.append((tuple(map(ids.__getitem__, prefixes)), sign * parity))
    return out, face_id


def barycentric_subdivision(complex_, return_face_map=False):
    """Order complex of the face poset: ``oriented_subdivision`` unsigned."""
    signed, face_id = oriented_subdivision([(f, 1) for f in complex_.facets])
    sd = SimplicialComplex(len(face_id), sorted(f for f, _ in signed))
    if return_face_map:
        return sd, face_id
    return sd


def clique_complex(vertex_count, edges):
    """Flag complex of a graph: facets are the maximal cliques."""
    adj = [set() for _ in range(vertex_count)]
    for (u, v) in edges:
        if u == v:
            raise ValueError("loop edge (%d,%d)" % (u, v))
        adj[u].add(v)
        adj[v].add(u)
    cliques = []

    def bron_kerbosch(r, p, x):
        if not p and not x:
            cliques.append(tuple(sorted(r)))
            return
        pivot_pool = p | x
        pivot = max(pivot_pool, key=lambda w: len(adj[w] & p))
        for v in sorted(p - adj[pivot]):
            bron_kerbosch(r | {v}, p & adj[v], x & adj[v])
            p = p - {v}
            x = x | {v}

    bron_kerbosch(set(), set(range(vertex_count)), set())
    return SimplicialComplex(vertex_count, sorted(cliques))


def disjoint_union(k1, k2):
    shift = k1.vertex_count
    facets = list(k1.facets) + [tuple(v + shift for v in f) for f in k2.facets]
    return SimplicialComplex(k1.vertex_count + k2.vertex_count, facets)


def join(k1, k2):
    """Simplicial join; k2's vertices are shifted past k1's."""
    shift = k1.vertex_count
    facets = []
    for f in k1.facets:
        for g in k2.facets:
            facets.append(tuple(sorted(f + tuple(v + shift for v in g))))
    return SimplicialComplex(shift + k2.vertex_count, facets)
