"""Independent brute-force oracles shared by the test modules.

Deliberately naive implementations on different algorithmic routes than
the library: clique growth for flagness, 4-tuple scans for squares,
5-subset scans against the two forbidden suspensions for the Caprace
criterion, Tits-style commutation-class reduction for Coxeter words, coset
representatives and explicit cell vertices for Davis balls, cube-vertex
links of P_K read off its cell lists, linking numbers in the second
barycentric subdivision, the subdivision itself from recursively enumerated
chains of faces, and homology from one independent Smith form per
boundary, without clearing.
"""

from itertools import combinations, permutations, product
from typing import NamedTuple

from flatlink.complexes import (SimplicialComplex, Square, clique_complex, full_subcomplex,
                                maximal_faces, oriented_subdivision)
from flatlink.cubes import _unmask
from flatlink.homology import HomologyProfile, is_homology_3sphere, smith_normal_form
from flatlink.links import (LinkingMatrix, _carry_cycle, _class_multiples,
                            _cycle_chain, _edge_link_cycle, _skeleton)


def brute_force_is_flag(k):
    """Grow every clique of the 1-skeleton and test face membership."""
    n = k.vertex_count
    adj = [set(k.neighbors(v)) for v in range(n)]
    stack = [((v,), sorted(u for u in adj[v] if u > v)) for v in range(n)]
    while stack:
        clique, extensions = stack.pop()
        if len(clique) >= 3 and not k.has_face(clique):
            return False
        for u in extensions:
            stack.append((clique + (u,), sorted(w for w in extensions
                                                if w > u and w in adj[u])))
    return True


def brute_force_squares(k):
    """All empty squares by scanning unordered 4-sets with each pairing."""
    n = k.vertex_count
    out = set()
    for quad in combinations(range(n), 4):
        for perm in [(0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3)]:
            cyc = tuple(quad[i] for i in perm)
            a, b, c, d = cyc
            if (k.has_face(tuple(sorted((a, b)))) and k.has_face(tuple(sorted((b, c))))
                    and k.has_face(tuple(sorted((c, d))))
                    and k.has_face(tuple(sorted((a, d))))
                    and not k.has_face(tuple(sorted((a, c))))
                    and not k.has_face(tuple(sorted((b, d))))):
                out.add(Square.canonical(cyc))
    return sorted(out)


# the suspensions of 3 points and of (edge and point), on vertices 0..4
FORBIDDEN_SUSPENSIONS = (
    ("3-points", [(0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4)]),
    ("edge-point", [(0, 1, 3), (0, 1, 4), (2, 3), (2, 4)]),
)


def _degrees(edges):
    return [sum(v in e for e in edges) for v in range(5)]


def _degree_preserving_maps(degrees, target_degrees):
    """Every bijection p of 0..4 with target_degrees[p[v]] == degrees[v]."""
    classes = sorted(set(degrees))
    sources = [[v for v in range(5) if degrees[v] == d] for d in classes]
    images = [[v for v in range(5) if target_degrees[v] == d] for d in classes]
    for choice in product(*(permutations(img) for img in images)):
        p = [None] * 5
        for src, img in zip(sources, choice):
            for v, w in zip(src, img):
                p[v] = w
        yield p


def brute_force_caprace_witnesses(k):
    """Every 5-subset whose full subcomplex is a forbidden suspension.

    Each subset's full subcomplex is compared with both suspensions under
    every relabelling that keeps vertex degrees, an isomorphism invariant
    that also skips most subsets before any relabelling is tried.
    """
    targets = []
    for kind, facets in FORBIDDEN_SUSPENSIONS:
        edges = {e for f in facets for e in combinations(f, 2)}
        targets.append((kind, facets, _degrees(edges)))
    out = []
    for five in combinations(range(k.vertex_count), 5):
        degrees = _degrees([(i, j) for i, j in combinations(range(5), 2)
                            if k.has_face((five[i], five[j]))])
        for kind, target, target_degrees in targets:
            if sorted(degrees) != sorted(target_degrees):
                continue
            facets = full_subcomplex(k, five).facets
            if any(sorted(tuple(sorted(p[v] for v in f)) for f in facets) == target
                   for p in _degree_preserving_maps(degrees, target_degrees)):
                out.append((five, kind))
    return tuple(out)


def random_flag_complex(rng, max_vertices=12):
    n = rng.randint(3, max_vertices)
    p = rng.uniform(0.2, 0.8)
    edges = [e for e in combinations(range(n), 2) if rng.random() < p]
    return clique_complex(n, edges)


def commutation_class(group, word, cap=200000):
    """All words reachable by adjacent commuting swaps (same length)."""
    seen = {tuple(word)}
    frontier = [tuple(word)]
    while frontier:
        nxt = []
        for w in frontier:
            for i in range(len(w) - 1):
                a, b = w[i], w[i + 1]
                if a != b and group.commutes(a, b):
                    swapped = w[:i] + (b, a) + w[i + 2:]
                    if swapped not in seen:
                        seen.add(swapped)
                        nxt.append(swapped)
                        if len(seen) > cap:
                            raise AssertionError("commutation class too large")
        frontier = nxt
    return seen


def oracle_reduce(group, word):
    """Fully reduce by cancelling adjacent equal pairs found anywhere in the
    commutation class; sound and complete for Coxeter groups."""
    current = tuple(word)
    while True:
        cls = commutation_class(group, current)
        shorter = None
        for w in cls:
            for i in range(len(w) - 1):
                if w[i] == w[i + 1]:
                    shorter = w[:i] + w[i + 2:]
                    break
            if shorter is not None:
                break
        if shorter is None:
            return cls
        current = shorter


def oracle_equal(group, u, v):
    return oracle_reduce(group, u) == oracle_reduce(group, v)


def oracle_canonical(group, word):
    return min(oracle_reduce(group, word))


class BruteForceDavisBall(NamedTuple):
    vertices: frozenset
    cells: tuple     # (rep, J), sorted by (len(J), J, rep)
    interior: list   # sorted interior vertices
    links: dict      # vertex -> maximal simplices J of the ball's cells at it


def brute_force_davis_ball(group, complex_, radius):
    """Davis ball by coset-representative search and explicit cell vertices.

    Each (word, simplex J) pair gets the ShortLex least representative of
    its coset word W_J; the cell is kept when all 2^|J| of its vertices lie
    in the ball, and a vertex is interior when every cell of its star in
    the whole Davis complex does.  The link at g is spanned by the J whose
    cell at g, (min_coset_rep(g, J), J), is a cell of the ball.
    """
    vertices = frozenset(group.ball(radius))
    simplices = complex_.all_faces()

    def cell_vertices(rep, J):
        verts = [rep]
        for s in J:
            verts += [group.normal_form(v + (s,)) for v in verts]
        return verts

    def in_ball(rep, J):
        return all(v in vertices for v in cell_vertices(rep, J))

    cells = set()
    for g in sorted(vertices):
        for J in simplices:
            rep = group.min_coset_rep(g, J)
            if (rep, J) not in cells and in_ball(rep, J):
                cells.add((rep, J))
    cells = tuple(sorted(cells, key=lambda c: (len(c[1]), c[1], c[0])))
    interior = sorted(g for g in vertices
                      if all(in_ball(group.min_coset_rep(g, J), J) for J in simplices))
    cell_set = set(cells)
    links = {}
    for g in vertices:
        spanned = [J for J in simplices if (group.min_coset_rep(g, J), J) in cell_set]
        links[g] = sorted(J for J in spanned if not any(set(J) < set(o) for o in spanned))
    return BruteForceDavisBall(vertices, cells, interior, links)


def pk_vertex_link(cubical, vertex):
    """Link of a cube vertex: the types J of the cells through it, as a
    complex on the ground set.  For P_K it is K under the identity on I."""
    simplices = [_unmask(cell.J) for d, cells in cubical.cells.items() if d
                 for cell in cells if vertex & ~cell.J == cell.coset]
    return SimplicialComplex(cubical.ground, maximal_faces(simplices))


def all_graphs(n):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield [pairs[i] for i in range(len(pairs)) if mask >> i & 1]


def _chains_of(facet):
    """All maximal chains of subfaces of a facet, as tuples of sorted faces."""
    if len(facet) == 1:
        yield (facet,)
        return
    for drop in facet:
        sub = tuple(x for x in facet if x != drop)
        for chain in _chains_of(sub):
            yield chain + (facet,)


def chain_subdivision(k):
    """Barycentric subdivision as the order complex of the face poset.

    Every maximal chain of faces is grown by recursively dropping vertices;
    faces are numbered by (dimension, lex).  Returns the subdivision and
    the face -> id map.
    """
    face_id = {f: i for i, f in enumerate(k.all_faces())}
    facets = [tuple(face_id[c] for c in chain)
              for top in k.facets for chain in _chains_of(top)]
    return SimplicialComplex(len(face_id), facets), face_id


def second_subdivision_linking_matrix(sigma, link, orientation=None):
    """Linking matrix with every complement taken in the second subdivision.

    Whatever the components, two barycentric subdivisions make each one the
    core of its own regular neighbourhood; Lk(i, j) is solved separately
    for each pair i < j, removing component j and every simplex touching
    it, regardless of fullness.
    """
    if orientation is None:
        orientation = is_homology_3sphere(sigma).manifold.orientation
    facets, face_id = oriented_subdivision(sorted(orientation.items()))
    components = [_carry_cycle(c, face_id) for c in link.components]
    facets, face_id = oriented_subdivision(facets)
    components = [_carry_cycle(c, face_id) for c in components]
    all_edges, all_triangles = map(sorted, _skeleton(facets))
    m = len(components)
    pairs = {}
    for i in range(m):
        for j in range(i + 1, m):
            removed = set(components[j])
            edges = [e for e in all_edges if not removed & set(e)]
            triangles = [t for t in all_triangles if not removed & set(t)]
            a, b = components[j][0], components[j][1]
            if link.orientations[j] < 0:
                a, b = b, a
            meridian = _cycle_chain(_edge_link_cycle(facets, a, b))
            target = _cycle_chain(components[i], link.orientations[i])
            pairs[(i, j)] = _class_multiples(edges, triangles, meridian, [target])[0]
    return LinkingMatrix.from_pairs(m, pairs)


def independent_snf_homology(chain_complex):
    """Homology bottom-up, each boundary reduced whole and on its own."""
    ranks = {}
    torsions = {}
    for d in range(1, chain_complex.dim + 1):
        snf = smith_normal_form(chain_complex.boundary(d))
        ranks[d] = snf.rank()
        torsions[d] = tuple(t for t in snf.invariants if t > 1)
    groups = []
    for d in range(chain_complex.dim + 1):
        n_d = chain_complex.cell_counts[d]
        betti = n_d - ranks.get(d, 0) - ranks.get(d + 1, 0)
        groups.append((betti, torsions.get(d + 1, ())))
    return HomologyProfile(groups)
