"""Mirror cubulation P_K of a simplicial complex K.

P_K is the subcomplex of the cube [-1,1]^I whose faces are the translates
of [-1,1]^J for J a simplex vertex set of K.  Cells are stored as
(J, coset) pairs: J a bit mask over the ground set I, and the coset a
canonical sign-vector representative with the bits in J forced to zero.
Bit b = 0 means coordinate +1, so the face with bit 0 in a direction is
the top face.
"""

import json
from typing import NamedTuple

from .complexes import SimplicialComplex, Square
from .homology import ChainComplex, IntegerMatrix


class GroundSetTooLarge(ValueError):
    """P_K has 2^|I| vertices; refuse ground sets past the configured bound."""


DEFAULT_MAX_GROUND = 24


def _popcount(x):
    return bin(x).count("1")


def _mask(vertices):
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _unmask(mask):
    out = []
    v = 0
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


class CubicalCell(NamedTuple):
    J: int      # face type, bit mask over the ground set
    coset: int  # canonical representative, bits in J forced to zero

    def dim(self):
        return _popcount(self.J)

    def vertices(self):
        """All 2^dim vertex bit-vectors of the cell."""
        free = _unmask(self.J)
        verts = [self.coset]
        for b in free:
            verts += [v | (1 << b) for v in verts]
        return verts


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
                for b in _unmask(cell.J):
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
                for b in _unmask(cell.J):
                    sub = cell.J & ~(1 << b)
                    covered.add(CubicalCell(sub, cell.coset))
                    covered.add(CubicalCell(sub, cell.coset | (1 << b)))
        return [c for d in sorted(self.cells) for c in self.cells[d] if c not in covered]

    def __eq__(self, other):
        return (isinstance(other, CubicalComplex) and self.ground == other.ground
                and self.cells == other.cells)

    def to_json(self):
        return {"ground": self.ground,
                "cells": [{"J": list(_unmask(c.J)), "coset": "%x" % c.coset}
                          for c in self.top_cells()]}

    @classmethod
    def from_json(cls, data):
        if not isinstance(data, dict) or "ground" not in data or "cells" not in data:
            raise ValueError("cubical JSON needs 'ground' and 'cells'")
        cells = []
        for rec in data["cells"]:
            cells.append(CubicalCell(_mask(rec["J"]), int(rec["coset"], 16)))
        return cls(data["ground"], cells)

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


def build_pk(complex_, max_ground=None):
    """Build P_K from a simplicial complex K on ground set I.

    The vertex set is all of (C_2)^I; a face of type J exists for every
    simplex vertex set J of K, one per coset of (C_2)^J.
    """
    n = complex_.vertex_count
    bound = DEFAULT_MAX_GROUND if max_ground is None else int(max_ground)
    if n > bound:
        raise GroundSetTooLarge(
            "ground set has %d vertices; 2^%d cube vertices exceeds the bound %d"
            % (n, n, bound))
    cells = [CubicalCell(0, c) for c in range(1 << n)]
    for face in complex_.all_faces():
        jm = _mask(face)
        free = ~jm & ((1 << n) - 1)
        sub = free
        while True:  # iterate all submasks of the complement
            cells.append(CubicalCell(jm, sub))
            if sub == 0:
                break
            sub = (sub - 1) & free
    return CubicalComplex(n, cells)


def cubical_chain_complex(cubical, check=True):
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
            for rank, b in enumerate(_unmask(cell.J)):
                sub = cell.J & ~(1 << b)
                sign = 1 if rank % 2 == 0 else -1
                top = CubicalCell(sub, cell.coset)            # bit 0: coordinate +1
                bottom = CubicalCell(sub, cell.coset | (1 << b))
                # written once: faces differ in type across b, in bit b within
                mat.entries[(lower[top], col)] = sign
                mat.entries[(lower[bottom], col)] = -sign
        boundaries[d] = mat
    counts = [len(cubical.cells[d]) for d in dims]
    labels = {d: cubical.cells[d] for d in dims}
    return ChainComplex(counts, boundaries, labels=labels, check=check)


def pk_vertex_link(cubical, vertex):
    """Link of a cube vertex, read off the cell lists.

    The cells of type J incident to the vertex span a simplicial complex
    on the ground set; for P_K it is canonically isomorphic to K via the
    identity on I.
    """
    if not 0 <= vertex < (1 << cubical.ground):
        raise ValueError("vertex %d is not a cube vertex" % vertex)
    if CubicalCell(0, vertex) not in set(cubical.cells.get(0, ())):
        raise ValueError("vertex %d is not in the complex" % vertex)
    simplices = []
    for d in sorted(cubical.cells):
        if d == 0:
            continue
        for cell in cubical.cells[d]:
            if vertex & ~cell.J == cell.coset:
                simplices.append(_unmask(cell.J))
    maximal = []
    simplices.sort(key=len, reverse=True)
    for s in simplices:
        ss = set(s)
        if not any(ss <= set(t) for t in maximal):
            maximal.append(s)
    return SimplicialComplex(cubical.ground, sorted(maximal))


def verify_vertex_links(cubical, complex_, vertices=None):
    """Assert every (or each given) vertex link equals K under the identity."""
    if vertices is None:
        vertices = [c.coset for c in cubical.cells.get(0, ())]
    for v in vertices:
        link = pk_vertex_link(cubical, v)
        if link != complex_:
            raise AssertionError("link of vertex %x differs from the base complex" % v)
    return True


def torus_subcomplex(cubical, square):
    """The sub-cubical complex over a square: a 4x4 grid torus.

    Keeps the cells whose type lies inside the square's vertex set and
    whose coset representative vanishes off the square's vertices.
    """
    if isinstance(square, Square):
        cyc = square.cycle
    else:
        cyc = tuple(square)
    if len(set(cyc)) != 4:
        raise ValueError("square must have 4 distinct vertices")
    a, b, c, d = cyc
    # edges of the base complex show up as the types of 2-dimensional cells
    edge_types = {c2.J for c2 in cubical.cells.get(2, ())}
    for u, v in ((a, b), (b, c), (c, d), (d, a)):
        if _mask((u, v)) not in edge_types:
            raise ValueError("square side (%d,%d) is not an edge type" % (u, v))
    for u, v in ((a, c), (b, d)):
        if _mask((u, v)) in edge_types:
            raise ValueError("square diagonal (%d,%d) is an edge type: not a square"
                             % (u, v))
    sq_mask = _mask(cyc)
    kept = []
    for dcells in cubical.cells.values():
        for cell in dcells:
            if cell.J & ~sq_mask == 0 and cell.coset & ~sq_mask == 0:
                kept.append(cell)
    return CubicalComplex(cubical.ground, kept)
