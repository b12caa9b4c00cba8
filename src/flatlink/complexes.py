"""Abstract simplicial complexes and their combinatorial predicates.

Complexes live on vertex set {0..n-1} and are described by their maximal
faces (facets).  The predicates are flagness, empty squares and isolated
squares; the constructions are vertex links, full subcomplexes, disjoint
unions, joins, clique complexes, the (oriented) barycentric subdivision and
the oriented starring of a list of faces.
"""

import json
from bisect import bisect_right
from functools import lru_cache
from itertools import combinations, groupby, permutations
from typing import NamedTuple, Optional


class InvalidComplexError(ValueError):
    """Raised when facet data violates the complex invariants."""


class SimplicialComplex:
    """Finite abstract simplicial complex given by its facets.

    Vertices are the ints 0..vertex_count-1, every vertex appears in some
    facet, and no facet contains another; construction checks this and
    builds nothing else.  The first query that needs one builds each of
    three tables: the faces up to dimension 3, hashed; the neighbours of
    each vertex as a frozenset and as the set bits of an int.  ``faces(d)``
    reads the hash once it is built, else scans the facets.
    """

    __slots__ = ("vertex_count", "facets", "_small_table", "_adj_table", "_mask_table")

    def __init__(self, vertex_count, facets):
        self.vertex_count = int(vertex_count)
        if self.vertex_count < 0:
            raise InvalidComplexError("vertex count %d is negative" % self.vertex_count)
        seen = set()
        clean = []
        for idx, f in enumerate(facets):
            t = tuple(f)
            if not t:
                raise InvalidComplexError("empty facet")
            if set(map(type, t)) != {int}:
                raise InvalidComplexError("facet #%d is not a list of integers" % idx)
            if any(map(int.__ge__, t, t[1:])):
                raise InvalidComplexError(
                    "facet #%d (%r) is not sorted and duplicate-free" % (idx, f))
            if t[0] < 0 or t[-1] >= self.vertex_count:
                raise InvalidComplexError("facet %r has a vertex out of range" % (f,))
            if t in seen:
                raise InvalidComplexError("facet %r listed twice" % (f,))
            seen.add(t)
            clean.append(t)
        clean.sort()
        clean.sort(key=len)  # stable: ordered by (size, lex)
        self.facets = tuple(clean)
        self._small_table = self._adj_table = self._mask_table = None

        # facet vertices lie in range(vertex_count): equal sizes mean all are
        # covered, and the first uncovered vertex is at most len(covered)
        covered = set().union(*clean)
        if len(covered) != self.vertex_count:
            first = next(v for v in range(self.vertex_count) if v not in covered)
            raise InvalidComplexError(
                "vertex %d appears in no facet (%d of %d covered)"
                % (first, len(covered), self.vertex_count))

        # no facet contains another: each size, largest first, is tested
        # against all bigger ones; the smallest is never tested against
        by_size = [list(g) for _, g in groupby(clean, len)][::-1]
        bigger = []
        for prev, group in zip(by_size, by_size[1:]):
            bigger.extend(map(set, prev))
            for f in group:
                fs = set(f)
                for g in bigger:
                    if fs <= g:
                        raise InvalidComplexError(
                            "facet %r contained in facet %r" % (f, tuple(sorted(g))))

    # Tables built on first read: each is built in full, then stored in one
    # assignment, so a concurrent reader sees no table or a complete one.

    @property
    def _faces_small(self):
        """Every face of dimension <= 3 (size <= 4), hashed."""
        if self._small_table is None:
            small = set()
            for f in self.facets:
                for size in range(1, min(len(f), 4) + 1):
                    small.update(combinations(f, size))
            self._small_table = frozenset(small)
        return self._small_table

    @property
    def _adj(self):
        if self._adj_table is None:
            adj = [set() for _ in range(self.vertex_count)]
            for f in self.facets:
                for u in f:
                    adj[u].update(f)
            for v, s in enumerate(adj):
                s.discard(v)
            self._adj_table = tuple(map(frozenset, adj))
        return self._adj_table

    @property
    def _masks(self):
        """Per vertex, its neighbours as the set bits of one int."""
        if self._mask_table is None:
            masks = [0] * self.vertex_count
            for f in self.facets:
                m = _mask(f)
                for u in f:
                    masks[u] |= m
            # every vertex lies in a facet, so its own bit is set
            self._mask_table = tuple(m ^ 1 << v for v, m in enumerate(masks))
        return self._mask_table

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
        small = self._small_table
        if small is not None and 1 <= size <= 4:
            return sorted([f for f in small if len(f) == size])
        out = set()
        for f in self.facets:
            if len(f) >= size:
                out.update(combinations(f, size))
        return sorted(out)

    def dim(self):
        return max(len(f) for f in self.facets) - 1 if self.facets else -1

    def f_vector(self):
        """Face counts by dimension, one dimension's faces held at a time."""
        return tuple(len({g for f in self.facets for g in combinations(f, size)})
                     for size in range(1, self.dim() + 2))

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
            if not isinstance(f, list):
                raise InvalidComplexError("facet #%d is not a list of integers" % idx)
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
            fh.write(json.dumps(self.to_json(), sort_keys=True) + "\n")


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


class FlagReport(NamedTuple):
    is_flag: bool
    witness: Optional[tuple]  # a minimal non-spanning clique when not flag


class IsolatedSquaresReport(NamedTuple):
    has_isolated_squares: bool
    offending_vertex: Optional[int]


def is_flag(complex_):
    """Check that every clique of the 1-skeleton spans a face.

    That holds exactly when every maximal clique is a facet: a maximal
    clique that is a face lies in a facet, itself a clique, so it is that
    facet.  Otherwise the witness is the lexicographically least maximal
    clique that is not a facet, less each vertex, largest first, whose
    removal leaves a non-face: a minimal non-spanning clique."""
    facets = set(complex_.facets)
    witness = min((c for c in _maximal_cliques(complex_._masks) if c not in facets),
                  default=None)
    if witness is None:
        return FlagReport(True, None)
    for v in reversed(witness):
        smaller = tuple(u for u in witness if u != v)
        if not complex_.has_face(smaller):
            witness = smaller
    return FlagReport(False, witness)


class PairScan(NamedTuple):
    squares: list     # sorted canonical Squares
    caprace_witness: Optional[tuple]  # the least (sorted 5-vertex tuple, kind), or None
    caprace_witness_count: int


def scan_nonadjacent_pairs(complex_):
    """Squares, and the count and least of the Caprace witnesses, from the
    common neighbourhoods C(p, q).

    For each p, a fold over its neighbours m of the bit masks, twice |=
    once & masks[m] and once |= masks[m], sets in ``twice`` the vertices
    with two or more neighbours in common with p; a pair with one common
    neighbour holds no square and no triple, so only the non-adjacent q > p
    of ``twice`` are visited, with C(p, q) the sorted intersection of the
    neighbour sets.  A square is a non-adjacent pair x < y in C(p, q), taken
    once, when p is its least vertex and so (p, x, q, y) its canonical
    cycle.  A witness is a triple of C(p, q) spanning no edge (the full
    subcomplex is the suspension of 3 points), or exactly one edge uv with
    puv and quv faces (the suspension of an edge and a point).  Each 5-set
    comes from one pair: in a 3-points witness only {p, q} is adjacent to
    the other three vertices, and in an edge-point one w is adjacent to
    neither u nor v.  So each witness is counted once, and only the least
    (5-set, kind) is kept.  As q > p and the mids x < y < z are sorted, its
    5-set starts with min(p, x): only when that is at most the least one's
    first vertex is it built.  The squares are sorted as flat int tuples,
    which CPython compares faster, then wrapped.
    """
    adj = complex_._adj
    masks = complex_._masks
    small = complex_._faces_small
    squares = []
    least, count = None, 0
    for p in range(complex_.vertex_count):
        once = twice = 0
        for m in adj[p]:
            twice |= once & masks[m]
            once |= masks[m]
        for q in _bits(twice & ~masks[p] & -(2 << p)):  # non-adjacent, above p
            mids = sorted(adj[p] & adj[q])
            for i in range(bisect_right(mids, p), len(mids)):
                x = mids[i]
                for y in mids[i + 1:]:
                    if y not in adj[x]:
                        squares.append((p, x, q, y))
            for x, y, z in combinations(mids, 3):
                xy, xz, yz = y in adj[x], z in adj[x], z in adj[y]
                if not (xy or xz or yz):
                    kind = "3-points"
                elif xy + xz + yz == 1:
                    u, v = (x, y) if xy else (x, z) if xz else (y, z)
                    # u < v: place p, then q, in the sorted triangle
                    if ((p, u, v) if p < u else (u, p, v) if p < v else (u, v, p)) not in small:
                        continue
                    if ((q, u, v) if q < u else (u, q, v) if q < v else (u, v, q)) not in small:
                        continue
                    kind = "edge-point"
                else:
                    continue
                count += 1
                if least is None or min(p, x) <= least[0][0]:
                    witness = (tuple(sorted((p, q, x, y, z))), kind)
                    least = witness if least is None else min(least, witness)
    return PairScan([Square(c) for c in sorted(squares)], least, count)


def find_squares(complex_):
    """All empty squares, canonical form, sorted lexicographically."""
    return scan_nonadjacent_pairs(complex_).squares


def has_isolated_squares(squares):
    """True when no vertex lies in two distinct squares."""
    seen = {}
    for s in squares:
        for v in s.cycle:
            if v in seen:
                return IsolatedSquaresReport(False, v)
            seen[v] = s
    return IsolatedSquaresReport(True, None)


def vertex_link(complex_, v):
    """Link of a vertex, relabelled onto 0..k-1 by sorted neighbor order,
    from one scan of the facets.

    Vertex i of the result corresponds to the i-th smallest neighbor of v.
    """
    if not 0 <= v < complex_.vertex_count:
        raise ValueError("vertex %d out of range" % v)
    nbrs = sorted(complex_.neighbors(v))
    index = {u: i for i, u in enumerate(nbrs)}
    facets = [tuple(index[u] for u in f if u != v) for f in complex_.facets if v in f]
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


def _stellar_subdivision(facets_signed, faces, vertex_count):
    """Star each face of a list of (sorted facet, sign) pairs, in order.

    The k-th face gets the new vertex w = vertex_count + k.  Each signed
    facet (f, s) through it becomes one facet per vertex t of the face: f
    with t replaced by w in place, signed by s times the parity of that
    tuple, then sorted.  A vertex -> facet-id index, kept up to date as
    facets split, finds the facets through a face without scanning every
    facet, so the work follows the sizes of the stars.  Returns the signed
    facets, sorted.
    """
    facets = list(facets_signed)
    index = [set() for _ in range(vertex_count)]
    for i, (f, _) in enumerate(facets):
        for v in f:
            index[v].add(i)
    for w, face in enumerate(faces, vertex_count):
        index.append(set())
        for i in set.intersection(*(index[v] for v in face)):
            f, sign = facets[i]
            facets[i] = None
            for v in f:
                index[v].discard(i)
            for t in face:
                child = tuple(w if v == t else v for v in f)
                for v in child:
                    index[v].add(len(facets))
                facets.append((tuple(sorted(child)), sign * _parity(child)))
    return sorted(f for f in facets if f is not None)


def barycentric_subdivision(complex_):
    """Order complex of the face poset: ``oriented_subdivision`` unsigned."""
    signed, face_id = oriented_subdivision([(f, 1) for f in complex_.facets])
    return SimplicialComplex(len(face_id), sorted(f for f, _ in signed))


def _mask(vertices):
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _bits(mask):
    """The set bits of a non-negative int, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _maximal_cliques(masks):
    """The maximal cliques of the graph on 0..len(masks)-1 whose neighbours
    are the set bits of masks[v], each sorted: Bron-Kerbosch with pivoting
    (Bron-Kerbosch 1973; Tomita-Tanaka-Takahashi 2006) on bit-mask sets (San
    Segundo-Rodriguez-Losada-Jimenez 2011); no clique on no vertex."""
    cliques = []

    def bron_kerbosch(r, p, x):
        if not p and not x:
            cliques.append(tuple(sorted(r)))
            return
        # bits walked inline: a ``_bits`` generator per call slows the search by a third
        pool, best = p | x, -1
        while pool:
            low = pool & -pool
            pool ^= low
            w = low.bit_length() - 1
            size = (masks[w] & p).bit_count()
            if size > best:
                pivot, best = w, size
        todo = p & ~masks[pivot]
        while todo:
            low = todo & -todo
            todo ^= low
            v = low.bit_length() - 1
            bron_kerbosch(r + (v,), p & masks[v], x & masks[v])
            p ^= low
            x |= low

    if masks:
        bron_kerbosch((), (1 << len(masks)) - 1, 0)
    return cliques


def clique_complex(vertex_count, edges):
    """Flag complex of a graph: facets are the maximal cliques."""
    masks = [0] * vertex_count
    for (u, v) in edges:
        if u == v:
            raise ValueError("loop edge (%d,%d)" % (u, v))
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise ValueError("edge (%d,%d) has a vertex out of range for %d vertices"
                             % (u, v, vertex_count))
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return SimplicialComplex(vertex_count, sorted(_maximal_cliques(masks)))


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
