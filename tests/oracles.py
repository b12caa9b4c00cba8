"""Independent brute-force oracles shared by the test modules.

Deliberately naive implementations on different algorithmic routes than
the library: clique growth for flagness, 4-tuple scans for squares,
Tits-style commutation-class reduction for Coxeter words, coset
representatives and explicit cell vertices for Davis balls, linking
numbers in the second barycentric subdivision, and homology from one
independent Smith form per boundary, without clearing.
"""

from itertools import combinations
from typing import NamedTuple

from flatlink.complexes import Square, clique_complex
from flatlink.homology import HomologyProfile, is_homology_3sphere, smith_normal_form
from flatlink.links import (LinkingMatrix, _carry_cycle, _class_multiples,
                            _cycle_chain, _edge_link_cycle, _sd_oriented, _skeleton)


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


def all_graphs(n):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield [pairs[i] for i in range(len(pairs)) if mask >> i & 1]


def second_subdivision_linking_matrix(sigma, link, orientation=None):
    """Linking matrix with every complement taken in the second subdivision.

    Whatever the components, two barycentric subdivisions make each one the
    core of its own regular neighbourhood; Lk(i, j) is solved separately
    for each pair i < j, removing component j and every simplex touching
    it, regardless of fullness.
    """
    if orientation is None:
        orientation = is_homology_3sphere(sigma).manifold.orientation
    facets, face_id = _sd_oriented(sorted(orientation.items()))
    components = [_carry_cycle(c, face_id) for c in link.components]
    facets, face_id = _sd_oriented(facets)
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
