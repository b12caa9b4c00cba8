"""Mirror cubulation P_K of a simplicial complex K.

P_K is the subcomplex of the cube [-1,1]^I whose faces are the translates
of [-1,1]^J for J a simplex vertex set of K.  Cells are stored as
(J, coset) pairs: J a bit mask over the ground set I, and the coset a
canonical sign-vector representative with the bits in J forced to zero.
Bit b = 0 means coordinate +1, so the face with bit 0 in a direction is
the top face.

P_K is the real moment-angle complex of K, so its f-vector and homology
come from K without building any cell: ``pk_f_vector`` and
``pk_homology``.  ``pk_pieces`` first splits K into disjoint unions and
joins; P of a join is the product of the factors' P, and P of a union is
read from the parts' P, so only the pieces neither splits are summed
over their vertex sets.  The homology of a piece splits over its full
subcomplexes K_J; in a flag K, each K_J is first dismantled to its core
by strong collapses (deleting a vertex u when another vertex v of J is
in every maximal face through u, Barmak-Minian 2012), the J are tallied
per core, and each distinct core that spans an edge has its homology
computed once.  ``build_pk`` builds the cells for ``pk --cells-out``.
"""

from collections import Counter
from math import gcd, prod
from typing import NamedTuple

from .complexes import _bits, _mask, full_subcomplex, is_flag
from .homology import (ChainComplex, HomologyProfile, IntegerMatrix, _merged_torsion,
                       homology, simplicial_chain_complex)


class GroundSetTooLarge(ValueError):
    """P_K has 2^|I| vertices; refuse ground sets past the configured bound."""


DEFAULT_MAX_GROUND = 24


class CubicalCell(NamedTuple):
    J: int      # face type, bit mask over the ground set
    coset: int  # canonical representative, bits in J forced to zero

    def dim(self):
        return self.J.bit_count()


class CubicalComplex:
    """Cells per dimension, each a canonical (J, coset) pair, face-closed."""

    def __init__(self, ground, cells):
        self.ground = int(ground)
        per_dim = {}
        for cell in cells:
            cell = CubicalCell(*cell)
            if cell.coset & cell.J:
                raise ValueError("coset %x not canonical for type %x" % (cell.coset, cell.J))
            if cell.coset >> self.ground or cell.J >> self.ground:
                raise ValueError("cell outside the ground set")
            per_dim.setdefault(cell.dim(), set()).add(cell)
        # closure under faces, descending through dimensions created on the way
        d = max(per_dim, default=0)
        while d > 0:
            for cell in list(per_dim.get(d, ())):
                for b in _bits(cell.J):
                    sub = cell.J & ~(1 << b)
                    for bit in (0, 1 << b):
                        face = CubicalCell(sub, cell.coset | bit)
                        per_dim.setdefault(d - 1, set()).add(face)
            d -= 1
        self.cells = {d: sorted(per_dim[d]) for d in sorted(per_dim)}

    def dim(self):
        return max(self.cells) if self.cells else -1

    def f_vector(self):
        return tuple(len(self.cells[d]) for d in sorted(self.cells))

    def euler_characteristic(self):
        return sum((-1) ** d * len(cs) for d, cs in self.cells.items())

    def top_cells(self):
        """Cells that are faces of no other cell.

        Marking codimension-1 faces of every cell suffices: closure makes
        deeper faces codimension-1 faces of some stored cell.
        """
        covered = set()
        for d, cells in self.cells.items():
            if d == 0:
                continue
            for cell in cells:
                for b in _bits(cell.J):
                    sub = cell.J & ~(1 << b)
                    covered.add(CubicalCell(sub, cell.coset))
                    covered.add(CubicalCell(sub, cell.coset | (1 << b)))
        return [c for d in sorted(self.cells) for c in self.cells[d] if c not in covered]

    def __eq__(self, other):
        return (isinstance(other, CubicalComplex) and self.ground == other.ground
                and self.cells == other.cells)

    def to_json(self):
        return {"ground": self.ground,
                "cells": [{"J": list(_bits(c.J)), "coset": "%x" % c.coset}
                          for c in self.top_cells()]}


def check_ground(complex_, max_ground=None):
    """Refuse a ground set past the bound, before any work on P_K."""
    n = complex_.vertex_count
    bound = DEFAULT_MAX_GROUND if max_ground is None else int(max_ground)
    if n > bound:
        raise GroundSetTooLarge(
            "ground set has %d vertices; 2^%d cube vertices exceeds the bound %d"
            % (n, n, bound))


def _classes(V, related):
    """The classes of the vertices of V, as bit masks, under the transitive
    closure of u ~ v for v in related[u]."""
    classes = []
    while V:
        part = todo = V & -V
        while todo:
            low = todo & -todo
            todo ^= low
            new = related[low.bit_length() - 1] & V & ~part
            part |= new
            todo |= new
        classes.append(part)
        V ^= part
    return classes


def _split(masks, V, facets):
    """Node (kind, V, facets, children) of the full subcomplex on V, whose
    facets are given as bit masks.

    A disconnected 1-skeleton makes a "union" of its components.  Else u
    and v go in one class when they are not adjacent or when two facets
    differ only by u for v.  Neither holds across the factors of a join, so
    the classes are a "join" exactly when every facet meets each class in a
    facet of that class (no trace inside another) and the classes' facet
    counts multiply to the facet count; otherwise V is a "piece".
    """
    parts = _classes(V, masks)
    if len(parts) != 1:
        return "union", V, facets, [_split(masks, p, {f for f in facets if f & p}) for p in parts]
    related = {v: V & ~masks[v] for v in _bits(V)}
    swaps = {}
    for f in facets:
        for v in _bits(f):
            swaps[f ^ 1 << v] = swaps.get(f ^ 1 << v, 0) | 1 << v
    for group in swaps.values():
        for v in _bits(group):
            related[v] |= group
    parts = _classes(V, related)
    traces = [{f & p for f in facets} for p in parts]
    if len(parts) > 1 and prod(map(len, traces)) == len(facets) and all(
            s == t or s & ~t for ts in traces for s in ts for t in ts):
        return "join", V, facets, [_split(masks, p, ts) for p, ts in zip(parts, traces)]
    return "piece", V, facets, ()


def pk_pieces(complex_):
    """K as a tree of disjoint unions and joins of pieces that neither splits."""
    return _split(complex_._masks, (1 << complex_.vertex_count) - 1,
                  {_mask(f) for f in complex_.facets})


def piece_sizes(node):
    """Sorted vertex counts of the pieces of a ``pk_pieces`` tree."""
    if node[0] == "piece":
        return [node[1].bit_count()]
    return sorted(n for child in node[3] for n in piece_sizes(child))


def _fold(node, piece, connected):
    """Per degree, a Counter of P of the node's full subcomplex: key 0 the
    rank, key c > 1 the number of summands Z/c; ``piece(V, facets)`` gives
    it for a piece.

    P of a join is the product of the factors' P.  Kunneth gives
    H_n(P_A x P_B) from H_i(P_A) (x) H_j(P_B) over i+j=n and
    Tor(H_i(P_A), H_j(P_B)) over i+j=n-1, with Z/a (x) Z/b =
    Tor(Z/a, Z/b) = Z/gcd(a, b), and gcd(0, b) = b gives Z (x) Z/b = Z/b;
    on the K_J this is Milnor's join formula (Milnor, "Construction of
    universal bundles II", Ann. Math. 1956).  Cell counts multiply the
    same way.  P of a union A + B is P_A x 2^|B| points and 2^|A| points
    x P_B, glued at their 2^(|A|+|B|) vertices: cells and homology add up
    (Mayer-Vietoris), less the vertices in degree 0.  P is ``connected``
    for homology: rank 1 in degree 0, and the Euler characteristic moves
    the rest of degree 0 to degree 1, Z^((2^|A|-1)(2^|B|-1)).
    """
    kind, V, facets, children = node
    if kind == "piece":
        return piece(V, facets)
    out, seen = [Counter({0: 1})], 0
    for child in children:
        g, n = _fold(child, piece, connected), child[1].bit_count()
        if kind == "join":
            new = [Counter() for _ in range(len(out) + len(g) - 1)]
            for i, s in enumerate(out):
                for j, t in enumerate(g):
                    for a, m in s.items():
                        for b, k in t.items():
                            new[i + j][gcd(a, b)] += m * k
                            if a and b:
                                new[i + j + 1][gcd(a, b)] += m * k
        else:
            new = [Counter() for _ in range(max(len(out), len(g)))]
            for h, scale in ((out, 1 << n), (g, 1 << seen)):
                for t, o in zip(h, new):
                    for c, m in t.items():
                        o[c] += m * scale
            new[0][0] -= 1 << seen + n
            if connected:
                new[1][0] += 1 - new[0][0]
                new[0][0] = 1
        out, seen = new, seen + n
    return out


def pk_f_vector(complex_, pieces=None):
    """f_k(P_K) = 2^(m-k) f_(k-1)(K), with f_(-1)(K) = 1 for the empty face.

    A (k-1)-simplex of K on m vertices types one k-cube per coset of
    (C_2)^k in (C_2)^m.  Only the ``pk_pieces`` of K list their faces.
    """
    def piece(V, facets):
        if V & (V - 1) == 0:
            f = (1, 1)  # a point
        else:
            whole = V == (1 << complex_.vertex_count) - 1
            f = (1,) + (complex_ if whole else full_subcomplex(complex_, tuple(_bits(V)))).f_vector()
        return [Counter({0: c << V.bit_count() - k}) for k, c in enumerate(f)]

    return tuple(g[0] for g in _fold(pieces or pk_pieces(complex_), piece, False))


def _dominated(J, closed):
    """The lowest vertex u of J, as a bit, with closed[u] & J inside
    closed[v] for some other v of J; 0 when there is none."""
    rest = J
    while rest:
        u = rest & -rest
        rest ^= u
        star = closed[u.bit_length() - 1] & J
        others = star ^ u
        while others:
            v = others & -others
            others ^= v
            if star & ~closed[v.bit_length() - 1] == 0:
                return u
    return 0


def _core_tally(closed):
    """How many vertex sets J of a flag complex dismantle to each core.

    closed[v] is the closed neighbourhood of vertex v as a bit mask.  A
    vertex u of J is dominated by another vertex v of J when
    closed[u] & J lies inside closed[v].  K_J is flag, so this holds
    exactly when v lies in every maximal face of K_J through u; deleting u
    is then a strong collapse of K_J onto K_(J-u) (Barmak-Minian, "Strong
    homotopy types, nerves and collapses", Discrete Comput. Geom. 2012),
    which keeps the homology.  The core of J deletes the lowest dominated
    vertex and takes the core of what is left, read from a table indexed
    by J: J - u < J, so it is already filled.  Cores of one vertex, which
    include every cone, are left out.
    """
    core = [0] * (1 << len(closed))
    tally = {}
    for J in range(1, len(core)):
        u = _dominated(J, closed)
        c = core[J] = core[J ^ u] if u else J
        if c & (c - 1):
            tally[c] = tally.get(c, 0) + 1
    return tally


def pk_homology(complex_, pieces=None):
    """Integral homology of P_K by the polyhedral-product splitting.

    H~_i(P_K) is the direct sum of H~_(i-1)(K_J) over the nonempty vertex
    sets J, K_J the full subcomplex on J (Bahri-Bendersky-Cohen-Gitler,
    "The polyhedral product functor", Adv. Math. 2010), torsion included.
    ``_fold`` combines the ``pk_pieces`` of K, so J runs over the vertex
    sets of each piece: sum 2^|piece| of them, not 2^|I|.  In a flag K each
    J is first shrunk to its core by strong collapses (``_core_tally``); a
    J whose core is one vertex contributes nothing, a core spanning no edge
    is |J| points with H~_0 = Z^(|J|-1), and the homology of each other
    distinct core is computed once and counted once per J that has it.  A
    K that is not flag visits every J of every piece.  Checks no ground
    bound; callers run ``check_ground`` first.
    """
    flag = is_flag(complex_).is_flag

    def piece(V, facets):
        vs = list(_bits(V))
        ranks = [1] + [0] * max(map(int.bit_count, facets))
        torsion = [[] for _ in ranks]
        closed = [_mask(map(vs.index, _bits(complex_._masks[v] & V | 1 << v))) for v in vs]
        tally = _core_tally(closed).items() if flag else ((J, 1) for J in range(1, 1 << len(vs)))
        for J, count in tally:
            if flag and all(closed[i] & J == 1 << i for i in _bits(J)):
                ranks[1] += count * (J.bit_count() - 1)
                continue
            sub = full_subcomplex(complex_, [vs[i] for i in _bits(J)])
            for d, (rank, tors) in enumerate(homology(simplicial_chain_complex(sub)).groups):
                ranks[d + 1] += count * (rank - (d == 0))
                torsion[d + 1].extend(tors * count)
        return [Counter(t) + Counter({0: r}) for r, t in zip(ranks, torsion)]

    groups = _fold(pieces or pk_pieces(complex_), piece, True)
    return HomologyProfile((g.pop(0, 0), _merged_torsion(list(g.elements()))) for g in groups)


def build_pk(complex_, max_ground=None):
    """Build P_K from a simplicial complex K on ground set I.

    The vertex set is all of (C_2)^I; a face of type J exists for every
    simplex vertex set J of K, one per coset of (C_2)^J.  Only the vertices
    and the cells of facet type are listed; ``CubicalComplex`` closes them.
    """
    check_ground(complex_, max_ground)
    n = complex_.vertex_count
    cells = [CubicalCell(0, c) for c in range(1 << n)]
    for face in complex_.facets:
        jm = _mask(face)
        free = ~jm & ((1 << n) - 1)
        sub = free
        while True:  # iterate all submasks of the complement
            cells.append(CubicalCell(jm, sub))
            if sub == 0:
                break
            sub = (sub - 1) & free
    return CubicalComplex(n, cells)


# no command calls this: it is the test oracle of ``pk_homology`` and a perfbench tracer target
def cubical_chain_complex(cubical):
    """Chain complex of a cubical complex with product-orientation signs.

    The coefficient of the faces in direction j of a cell of type J is
    (-1)^(rank of j within sorted J), with the top face positive.
    """
    dims = sorted(cubical.cells)
    if not dims or dims[0] != 0 or dims != list(range(len(dims))):
        raise ValueError("cell dimensions must start at 0 with no gaps")
    index = {d: {c: i for i, c in enumerate(cubical.cells[d])} for d in dims}
    boundaries = {}
    for d in dims[1:]:
        mat = IntegerMatrix(len(cubical.cells[d - 1]), len(cubical.cells[d]))
        lower = index[d - 1]
        for col, cell in enumerate(cubical.cells[d]):
            column = mat.columns[col] = {}
            for rank, b in enumerate(_bits(cell.J)):
                sub = cell.J & ~(1 << b)
                sign = 1 if rank % 2 == 0 else -1
                top = CubicalCell(sub, cell.coset)            # bit 0: coordinate +1
                bottom = CubicalCell(sub, cell.coset | (1 << b))
                # written once: faces differ in type across b, in bit b within
                column[lower[top]] = sign
                column[lower[bottom]] = -sign
        boundaries[d] = mat
    counts = [len(cubical.cells[d]) for d in dims]
    return ChainComplex(counts, boundaries)
