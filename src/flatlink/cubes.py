"""Mirror cubulation P_K of a simplicial complex K.

P_K is the subcomplex of the cube [-1,1]^I whose faces are the translates
of [-1,1]^J for J a simplex vertex set of K.  Cells are stored as
(J, coset) pairs: J a bit mask over the ground set I, and the coset a
canonical sign-vector representative with the bits in J forced to zero.
Bit b = 0 means coordinate +1, so the face with bit 0 in a direction is
the top face.

P_K is the real moment-angle complex of K, so its f-vector and homology
come from K without building any cell: ``pk_f_vector`` and
``pk_homology``.  The homology splits over the full subcomplexes K_J; in a
flag K, each K_J is first dismantled to its core by strong collapses
(deleting a vertex u when another vertex v of J is in every maximal face
through u, Barmak-Minian 2012), the J are tallied per core, and each
distinct core's homology is computed once.  ``build_pk`` builds the cells
for ``pk --cells-out``.
"""

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


def pk_f_vector(complex_):
    """f_k(P_K) = 2^(m-k) f_(k-1)(K), with f_(-1)(K) = 1 for the empty face.

    A (k-1)-simplex of K on m vertices types one k-cube per coset of
    (C_2)^k in (C_2)^m.
    """
    m = complex_.vertex_count
    return tuple(f << (m - k) for k, f in enumerate((1,) + complex_.f_vector()))


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


def _core_tally(complex_):
    """How many vertex sets J of a flag complex dismantle to each core.

    A vertex u of J is dominated by another vertex v of J when
    closed[u] & J lies inside closed[v], closed[] the closed neighbourhoods
    as bit masks.  K_J is flag, so this holds exactly when v lies in every
    maximal face of K_J through u; deleting u is then a strong collapse
    of K_J onto K_(J-u) (Barmak-Minian, "Strong homotopy types, nerves and
    collapses", Discrete Comput. Geom. 2012), which keeps the homology.
    The core of J deletes the lowest dominated vertex and takes the core
    of what is left, read from a table indexed by J: J - u < J, so it is
    already filled.  Cores of one vertex, which include every cone, are
    left out.
    """
    n = complex_.vertex_count
    closed = [m | 1 << v for v, m in enumerate(complex_._masks)]
    core = [0] * (1 << n)
    tally = {}
    for J in range(1, 1 << n):
        u = _dominated(J, closed)
        c = core[J] = core[J ^ u] if u else J
        if c & (c - 1):
            tally[c] = tally.get(c, 0) + 1
    return tally


def pk_homology(complex_):
    """Integral homology of P_K by the polyhedral-product splitting.

    H~_i(P_K) is the direct sum of H~_(i-1)(K_J) over the nonempty vertex
    sets J, K_J the full subcomplex on J (Bahri-Bendersky-Cohen-Gitler,
    "The polyhedral product functor", Adv. Math. 2010), torsion included.
    In a flag K each J is first shrunk to its core by strong collapses
    (``_core_tally``); a J whose core is one vertex contributes nothing,
    and the homology of each distinct core is computed once and counted
    once per J that has it.  A K that is not flag visits every J.  Visits
    up to 2^|I| subsets and checks no ground bound; callers run
    ``check_ground`` first.
    """
    n = complex_.vertex_count
    size = complex_.dim() + 2
    ranks = [1] + [0] * (size - 1)
    torsion = [[] for _ in range(size)]
    if is_flag(complex_).is_flag:
        tally = _core_tally(complex_).items()
    else:
        tally = ((J, 1) for J in range(1, 1 << n))
    for J, count in tally:
        sub = full_subcomplex(complex_, tuple(_bits(J)))
        for d, (rank, tors) in enumerate(homology(simplicial_chain_complex(sub)).groups):
            ranks[d + 1] += count * (rank - (d == 0))
            torsion[d + 1].extend(tors * count)
    return HomologyProfile((r, _merged_torsion(t)) for r, t in zip(ranks, torsion))


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
