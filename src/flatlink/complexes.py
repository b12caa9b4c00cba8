"""Abstract simplicial complexes and their combinatorial predicates.

Complexes live on vertex set {0..n-1} and are described by their maximal
faces (facets).  All predicates needed downstream are here: flagness,
empty squares, isolated squares, links, full subcomplexes, barycentric
subdivision and small-scale isomorphism testing.
"""

import json
from itertools import combinations
from typing import NamedTuple, Optional


class InvalidComplexError(ValueError):
    """Raised when facet data violates the complex invariants."""


class SearchBudgetExceeded(RuntimeError):
    """Raised when a backtracking search exceeds its node budget.

    Distinct from a negative answer: the question is left undecided.
    """


class SimplicialComplex:
    """Finite abstract simplicial complex given by its facets.

    Vertices are 0..vertex_count-1, every vertex appears in some facet,
    and no facet contains another.  Faces up to dimension 3 are hashed at
    construction; higher faces are answered by scanning facets.
    """

    __slots__ = ("vertex_count", "facets", "_faces_small", "_adj")

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
        except json.JSONDecodeError as exc:
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


class IsomorphismWitness(NamedTuple):
    """A vertex bijection carrying facets onto facets."""

    mapping: tuple

    def apply(self, face):
        return tuple(sorted(self.mapping[v] for v in face))

    def compose(self, other):
        """self : K1 -> K2 composed with other : K2 -> K3."""
        return IsomorphismWitness(tuple(other.mapping[m] for m in self.mapping))

    def validate(self, k1, k2):
        if sorted(self.mapping) != list(range(k2.vertex_count)):
            raise ValueError("mapping is not a bijection onto the target vertices")
        image = sorted(self.apply(f) for f in k1.facets)
        if image != sorted(k2.facets):
            raise ValueError("mapping does not carry facets onto facets")


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


def find_squares(complex_):
    """All empty squares, canonical form, sorted lexicographically.

    Enumerates non-adjacent vertex pairs as candidate diagonals and
    intersects their neighborhoods, avoiding a 4-fold loop.
    """
    adj = complex_._adj
    found = set()
    n = complex_.vertex_count
    for v1 in range(n):
        for v3 in range(v1 + 1, n):
            if v3 in adj[v1]:
                continue
            common = sorted(adj[v1] & adj[v3])
            for i, v2 in enumerate(common):
                for v4 in common[i + 1:]:
                    if v4 in adj[v2]:
                        continue
                    found.add(Square.canonical((v1, v2, v3, v4)))
    return sorted(found)


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
    facets = set()
    for f in complex_.facets:
        if v in f:
            rest = tuple(index[u] for u in f if u != v)
            if rest:
                facets.add(rest)
    return SimplicialComplex(len(nbrs), sorted(facets))


def full_subcomplex(complex_, vertices):
    """Faces of the complex entirely contained in the given vertex set.

    Relabelled onto 0..|S|-1 in sorted order of the original vertices.
    """
    vs = sorted(set(vertices))
    if vs and (vs[0] < 0 or vs[-1] >= complex_.vertex_count):
        raise ValueError("vertex set not contained in the complex")
    inside = set(vs)
    index = {u: i for i, u in enumerate(vs)}
    best = {}
    for f in complex_.facets:
        kept = tuple(index[u] for u in f if u in inside)
        if kept:
            best[kept] = True
    # drop faces contained in other kept faces
    kept_faces = sorted(best, key=len, reverse=True)
    facets = []
    for f in kept_faces:
        fs = set(f)
        if not any(fs < set(g) for g in facets):
            facets.append(f)
    return SimplicialComplex(len(vs), sorted(facets))


def barycentric_subdivision(complex_, return_face_map=False):
    """Order complex of the face poset.

    One vertex per nonempty face (numbered by (dimension, lex) order),
    one facet per maximal chain of faces.
    """
    faces = complex_.all_faces()
    face_id = {f: i for i, f in enumerate(faces)}
    facets = []
    for top in complex_.facets:
        for chain in _chains_of(top):
            facets.append(tuple(face_id[c] for c in chain))
    sd = SimplicialComplex(len(faces), sorted(facets))
    if return_face_map:
        return sd, face_id
    return sd


def _chains_of(facet):
    """All maximal chains of subfaces of a facet, as tuples of sorted faces."""
    if len(facet) == 1:
        yield (facet,)
        return
    for drop in facet:
        sub = tuple(x for x in facet if x != drop)
        for chain in _chains_of(sub):
            yield chain + (facet,)


def _vertex_invariant(complex_, v):
    nbrs = complex_.neighbors(v)
    fv = {}
    for f in complex_.facets:
        if v in f:
            fv[len(f)] = fv.get(len(f), 0) + 1
    return (len(nbrs), tuple(sorted(fv.items())))


def is_isomorphic(k1, k2, node_budget=200000):
    """Search for a facet-preserving vertex bijection.

    Returns an IsomorphismWitness, or None when no bijection exists.
    Backtracking on the 1-skeleton with degree and star-profile pruning;
    raises SearchBudgetExceeded (undecided) past the node budget.
    """
    if k1.vertex_count != k2.vertex_count:
        return None
    if len(k1.facets) != len(k2.facets):
        return None
    if sorted(map(len, k1.facets)) != sorted(map(len, k2.facets)):
        return None
    inv1 = [_vertex_invariant(k1, v) for v in range(k1.vertex_count)]
    inv2 = [_vertex_invariant(k2, v) for v in range(k2.vertex_count)]
    if sorted(inv1) != sorted(inv2):
        return None

    if k1.facets == k2.facets:
        return IsomorphismWitness(tuple(range(k1.vertex_count)))

    n = k1.vertex_count
    # most constrained first: rarest invariant class, then high degree
    rarity = {}
    for inv in inv1:
        rarity[inv] = rarity.get(inv, 0) + 1
    order = sorted(range(n), key=lambda v: (rarity[inv1[v]], -len(k1.neighbors(v)), v))
    candidates = {v: sorted(u for u in range(n) if inv2[u] == inv1[v]) for v in order}

    facets2 = set(k2.facets)
    mapping = [-1] * n
    used = [False] * n
    nodes = 0

    def extend(pos):
        nonlocal nodes
        if pos == n:
            image = sorted(tuple(sorted(mapping[x] for x in f)) for f in k1.facets)
            return image == sorted(facets2)
        v = order[pos]
        for u in candidates[v]:
            if used[u]:
                continue
            ok = True
            for w in order[:pos]:
                adj1 = w in k1.neighbors(v)
                adj2 = mapping[w] in k2.neighbors(u)
                if adj1 != adj2:
                    ok = False
                    break
            if not ok:
                continue
            nodes += 1
            if nodes > node_budget:
                raise SearchBudgetExceeded(
                    "isomorphism search exceeded %d nodes" % node_budget)
            mapping[v] = u
            used[u] = True
            if extend(pos + 1):
                return True
            mapping[v] = -1
            used[u] = False
        return False

    if extend(0):
        return IsomorphismWitness(tuple(mapping))
    return None


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
