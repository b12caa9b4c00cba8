"""Canonical fixture complexes, the named links in them and the type-L
verifier.

The registry is generated by code (see fixtures.md for the catalogue).  The
type verifier reads ``homology.check_hypotheses`` and adds the square-link's
component count and linking matrix against the expectation.  Matching
linking data is necessary but not sufficient for matching the link type up
to isotopy.  No complex here carries a nonempty isolated square-link, and
nothing constructs one; ``verify_type_l`` is the gate such a construction
must pass.  ``homology`` and ``links`` are imported by the functions that
use them, so building a fixture loads only ``complexes``; the CLI loads
this module only for its ``fixture`` command and help.
"""

import itertools
from typing import NamedTuple

from .complexes import (SimplicialComplex, _parity, barycentric_subdivision, clique_complex,
                        disjoint_union, join)


def _points(k):
    return SimplicialComplex(k, [(i,) for i in range(k)])


def _cycle(k):
    return SimplicialComplex(k, [(i, (i + 1) % k) if i + 1 < k else (0, k - 1)
                                 for i in range(k)])


def _cross_polytope(dim):
    """Join of `dim` two-point complexes; antipodal pairs are (2i, 2i+1)."""
    out = _points(2)
    for _ in range(dim - 1):
        out = join(out, _points(2))
    return out


def _boundary_simplex(n):
    """Boundary of the n-simplex: all n-subsets of n+1 vertices."""
    return SimplicialComplex(n + 1, list(itertools.combinations(range(n + 1), n)))


def _projective_plane_6():
    """Minimal 6-vertex triangulation of the projective plane."""
    facets = [(0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 2, 5), (0, 4, 5),
              (1, 2, 4), (1, 2, 5), (1, 3, 5), (2, 3, 4), (3, 4, 5)]
    return SimplicialComplex(6, facets)


def _torus_7():
    """7-vertex triangulation of the torus."""
    facets = []
    for i in range(7):
        facets.append(tuple(sorted((i, (i + 1) % 7, (i + 3) % 7))))
        facets.append(tuple(sorted((i, (i + 2) % 7, (i + 3) % 7))))
    return SimplicialComplex(7, facets)


def product_triangulation(k1, k2):
    """Staircase triangulation of the product of two complexes.

    Vertices are pairs (u, x) numbered u * |V2| + x; each facet pair is
    triangulated by the monotone lattice paths through its vertex grid,
    which glue consistently because every simplex uses the global vertex
    order.
    """
    n2 = k2.vertex_count
    facets = set()
    for f in k1.facets:
        for g in k2.facets:
            p, q = len(f) - 1, len(g) - 1
            # lattice paths from (0,0) to (p,q): choose the steps that rise;
            # the s-th point has risen once per rise before step s
            for rises in itertools.combinations(range(p + q), q):
                js = [sum(r < s for r in rises) for s in range(p + q + 1)]
                facets.add(tuple(sorted(f[s - j] * n2 + g[j] for s, j in enumerate(js))))
    return SimplicialComplex(k1.vertex_count * n2, sorted(facets))


def _s2_x_s1():
    """Product triangulation of the 2-sphere boundary and a 3-cycle."""
    return product_triangulation(_boundary_simplex(3), _cycle(3))


def _six_hundred_cell():
    """Boundary of the 600-cell: 120 vertices, 600 tetrahedra.

    Exact arithmetic over Z[phi]: a coordinate (a + b*phi)/2 is the pair
    (a, b).  Vertices at inner product phi/2 span an edge; facets are the
    4-cliques.  The result is flag with no empty squares.
    """
    def mul(x, y):
        a, b = x
        c, d = y
        return (a * c + b * d, a * d + b * c + b * d)

    verts = set()
    for i in range(4):
        for s in (2, -2):
            v = [(0, 0)] * 4
            v[i] = (s, 0)
            verts.add(tuple(v))
    for signs in range(16):
        verts.add(tuple(((1 if signs >> i & 1 else -1), 0) for i in range(4)))
    base = [(0, 1), (1, 0), (-1, 1), (0, 0)]  # phi, 1, phi-1, 0 (halved)
    for p in itertools.permutations(range(4)):
        if _parity(p) < 0:
            continue
        for signs in itertools.product((1, -1), (1, -1), (1, -1), (1,)):
            v = [None] * 4
            for pos in range(4):
                a, b = base[pos]
                v[p[pos]] = (signs[pos] * a, signs[pos] * b)
            verts.add(tuple(v))
    verts = sorted(verts)
    edges = []
    for i, vi in enumerate(verts):
        for j in range(i + 1, len(verts)):
            vj = verts[j]
            total = (0, 0)
            for k in range(4):
                prod = mul(vi[k], vj[k])
                total = (total[0] + prod[0], total[1] + prod[1])
            if total == (0, 2):  # inner product phi/2 on the unit sphere
                edges.append((i, j))
    return clique_complex(len(verts), edges)


_REGISTRY = {
    "boundary-3-simplex": lambda: _boundary_simplex(3),
    "boundary-4-simplex": lambda: _boundary_simplex(4),
    "c4": lambda: _cycle(4),
    "octahedron": lambda: _cross_polytope(3),
    "boundary-16-cell": lambda: _cross_polytope(4),
    "suspension-3-points": lambda: join(_points(3), _points(2)),
    "suspension-edge-point": lambda: join(
        SimplicialComplex(3, [(0, 1), (2,)]), _points(2)),
    "sd-boundary-4-simplex": lambda: barycentric_subdivision(_boundary_simplex(4)),
    "two-squares-disjoint": lambda: disjoint_union(_cycle(4), _cycle(4)),
    "projective-plane-6": _projective_plane_6,
    "torus-7": _torus_7,
    "s2-x-s1": _s2_x_s1,
    "600-cell": _six_hundred_cell,
    "join-c6-c6": lambda: join(_cycle(6), _cycle(6)),
    "join-c10-c10": lambda: join(_cycle(10), _cycle(10)),
}

_CACHE = {}


def fixture_names():
    return sorted(_REGISTRY)


def fixture(name):
    """A named complex from the registry; unknown names are an error."""
    if name not in _REGISTRY:
        raise KeyError("unknown fixture %r; known: %s" % (name, ", ".join(fixture_names())))
    if name not in _CACHE:
        _CACHE[name] = _REGISTRY[name]()
    return _CACHE[name]


def hopf_pair():
    """The two join-factor squares of the 16-cell boundary: a Hopf pair."""
    from .links import EdgeCycleLink
    ambient = fixture("boundary-16-cell")
    return ambient, EdgeCycleLink(ambient, [(0, 2, 1, 3), (4, 6, 5, 7)])


def split_pair():
    """Two disjoint triangles in the 16-cell, each bounding a face: unlinked."""
    from .links import EdgeCycleLink
    ambient = fixture("boundary-16-cell")
    return ambient, EdgeCycleLink(ambient, [(0, 2, 4), (1, 3, 7)])


def zigzag_cycle(m, n, start_a, start_b, step_a, step_b, steps):
    """An embedded cycle in the join of two polygons, alternating factors.

    Visits a_(start_a + t*step_a) and b_(start_b + t*step_b) for t < steps;
    all consecutive pairs are cross edges of the join.  Vertex b_k of the
    second polygon is numbered m + k.
    """
    out = []
    for t in range(steps):
        out.append((start_a + step_a * t) % m)
        out.append(m + (start_b + step_b * t) % n)
    if len(set(out)) != len(out):
        raise ValueError("zigzag parameters revisit a vertex")
    return tuple(out)


def solomon_pair():
    """Two cycles in the join of two 10-gons with linking number of size 2.

    Both components advance two vertices in the first polygon and four in
    the second per zigzag step; the offset between them produces the
    doubled clasp.  Cross-checked against the Gauss-integral oracle in the
    test suite.
    """
    from .links import EdgeCycleLink
    ambient = fixture("join-c10-c10")
    a = zigzag_cycle(10, 10, 0, 0, 2, 4, 5)
    b = zigzag_cycle(10, 10, 1, 5, 2, 4, 5)
    return ambient, EdgeCycleLink(ambient, [a, b])


class TypeLReport(NamedTuple):
    flags: dict
    square_link: "Optional[EdgeCycleLink]"
    matrix: "Optional[LinkingMatrix]"
    verdict: bool
    note: str


def _expected_matrix(expected):
    from .links import LinkingMatrix, PlanarDiagram, diagram_linking_matrix
    if isinstance(expected, PlanarDiagram):
        return diagram_linking_matrix(expected)
    if isinstance(expected, LinkingMatrix):
        return expected
    return LinkingMatrix(expected)


def verify_type_l(sigma, expected):
    """Check the type hypotheses of a triangulation against a target link.

    Reads flagness, isolated squares and the homology-3-sphere check from
    ``check_hypotheses``, takes the squares as the square-link, and
    compares its component count and linking matrix with the target up to
    simultaneous permutation and global sign.  Flagness and the Caprace
    criterion are not required before the matrix is computed.  A passing
    verdict certifies matching linking data, which is NECESSARY but not
    sufficient for carrying the link type up to isotopy.
    """
    from .homology import check_hypotheses
    from .links import EdgeCycleLink, LinkingMatrix, linking_matrix
    target = _expected_matrix(expected)
    report = check_hypotheses(sigma)
    flags = {key: report.checks[key]
             for key in ("is_flag", "has_isolated_squares", "is_homology_3sphere")}
    square_link = None
    if flags["has_isolated_squares"]:
        square_link = EdgeCycleLink(sigma, [s.cycle for s in report.squares])
    flags["component_count_matches"] = (square_link is not None
                                        and len(square_link) == target.m)
    matrix = None
    if flags["component_count_matches"] and flags["is_homology_3sphere"]:
        matrix = linking_matrix(square_link)
    elif flags["component_count_matches"] and target.m == 0:
        matrix = LinkingMatrix([])
    flags["linking_matrix_matches"] = (flags["is_homology_3sphere"] and matrix is not None
                                       and matrix.equivalent_to(target))
    verdict = all(flags.values())
    return TypeLReport(
        flags, square_link, matrix, verdict,
        "matching linking data is necessary but not sufficient for type L up "
        "to isotopy")
