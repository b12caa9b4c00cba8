"""Independent brute-force oracles shared by the test modules.

Deliberately naive implementations on different algorithmic routes than
the library: clique growth for flagness, 4-tuple scans for squares,
5-subset scans against the two forbidden suspensions for the Caprace
criterion, Tits-style commutation-class reduction for Coxeter words, coset
representatives and explicit cell vertices for Davis balls, cube-vertex
links of P_K read off its cell lists, the closure of cubical top cells
under faces, linking numbers in the second barycentric subdivision with
each meridian walked around its edge link, the
subdivision itself from recursively enumerated chains of faces and from
starring every face, top dimension first, Smith
invariants from a Hermite basis by Bezout
elimination with no pivot strategy, homology from one independent Smith
form per boundary, without clearing, and the class map of a cokernel Z by
rational Gauss-Jordan elimination; the homology of P_K with one Smith-form
homology per vertex set; the closed-3-manifold check with each vertex link
read from its star, found by scanning the facets.  Also the helpers and
fixtures only the tests use: every face, the Euler characteristic, the
f-vector and Euler characteristic of a dict of cubical cells, square
validation, the eagerly built face tables, the face map of the barycentric
subdivision, complexes with pinched vertex links, the non-orientable
S^2-bundle over S^1, random pure 3-complexes, seeded random flag 3-spheres
by edge subdivisions, dense matrices, the
commutation test of two generators, the certified oriented facets of a
link's ambient, the linking number of one pair of components, links
carried into the barycentric subdivision and the named link diagrams.
"""

import random
from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd, lcm
from typing import NamedTuple

from flatlink.complexes import (SimplicialComplex, Square, _parity, _stellar_subdivision,
                                barycentric_subdivision, clique_complex, full_subcomplex,
                                is_flag, maximal_faces, oriented_subdivision)
from flatlink.coxeter import racg_from_skeleton
from flatlink.cubes import CubicalCell, _mask
from flatlink.fixtures import fixture, product_triangulation
from flatlink.homology import (HomologyProfile, IntegerMatrix, Manifold3Report, _merged_torsion,
                               homology, is_homology_3sphere, simplicial_chain_complex,
                               smith_normal_form)
from flatlink.links import (EdgeCycleLink, LinkingMatrix, PlanarDiagram, _class_multiples,
                            _Complements, _cycle_chain, _skeleton,
                            diagram_linking_matrix)


def _unmask(mask):
    """The set bits of a non-negative int, lowest first, read one shift at
    a time."""
    out = []
    v = 0
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


def all_faces(k):
    """Every nonempty face, sorted by (dimension, lex)."""
    out = set()
    for f in k.facets:
        for size in range(1, len(f) + 1):
            out.update(combinations(f, size))
    return sorted(out, key=lambda t: (len(t), t))


def euler_characteristic(k):
    return sum((-1) ** d * c for d, c in enumerate(k.f_vector()))


def from_dense(data):
    """The IntegerMatrix of a list of rows of equal length."""
    if len(set(map(len, data))) > 1:
        raise ValueError("ragged rows")
    return IntegerMatrix(len(data), len(data[0]) if data else 0,
                         {(i, j): v for i, row in enumerate(data) for j, v in enumerate(row)})


def to_dense(matrix):
    """The rows of an IntegerMatrix, zeros included."""
    out = [[0] * matrix.cols for _ in range(matrix.rows)]
    for j, col in matrix.columns.items():
        for i, v in col.items():
            out[i][j] = v
    return out


def pinched_3_complexes():
    """Connected pure 3-complexes, every triangle in two tetrahedra, where
    the link of vertex 0 is two 2-spheres glued at two points: two 16-cells
    glued along the square (0, 2, 1, 3) (12 vertices, 32 facets), and
    sd(join-c10-c10) with two of its squares glued together (436 vertices,
    2,400 facets; its dual graph is connected and orients)."""
    def glued(k, cycle, onto):  # each vertex of cycle onto its place in onto
        to = dict(zip(cycle, onto))
        index = {u: i for i, u in enumerate(u for u in range(k.vertex_count) if u not in to)}
        return SimplicialComplex(len(index), sorted(
            tuple(sorted(index[to.get(u, u)] for u in f)) for f in k.facets))

    c16 = fixture("boundary-16-cell").facets
    return {"16-cells on a square": glued(
                SimplicialComplex(16, c16 + tuple(tuple(v + 8 for v in f) for f in c16)),
                (8, 10, 9, 11), (0, 2, 1, 3)),
            "sd(join-c10-c10) on two squares": glued(
                barycentric_subdivision(fixture("join-c10-c10")),
                (3, 212, 4, 213), (0, 140, 1, 141))}


def twisted_s2_bundle():
    """The non-orientable S^2-bundle over S^1 (12 vertices, 36 facets): the
    staircase product of the boundary of the 3-simplex and a path of 3
    edges, its end slices glued by the transposition (0 1).  Product vertex
    (u, x), numbered 4u + x, becomes 3u + x for x < 3 and 3 sigma(u) for
    x = 3, where sigma swaps 0 and 1."""
    sphere = SimplicialComplex(4, list(combinations(range(4), 3)))
    path = SimplicialComplex(4, [(0, 1), (1, 2), (2, 3)])
    sigma = (1, 0, 2, 3)

    def glued(w):
        u, x = divmod(w, 4)
        return 3 * u + x if x < 3 else 3 * sigma[u]
    return SimplicialComplex(12, sorted(tuple(sorted(map(glued, f))) for f in
                                        product_triangulation(sphere, path).facets))


def random_pure_3_complex(rng):
    """A pure 3-complex drawn by one random move, then relabelled at random:
    random tetrahedra on 5-8 vertices, or a closed 3-manifold (the boundary
    of the 4-simplex, of the 16-cell or of the 600-cell, S^2 x S^1, the
    twisted bundle) with
    two vertices identified, facets removed, facets added, another copy
    beside it, or nothing changed.  Facets that a move makes degenerate are
    dropped."""
    move = rng.randrange(6)
    if move == 0:
        n = rng.randint(5, 8)
        tetrahedra = list(combinations(range(n), 4))
        facets = rng.sample(tetrahedra, rng.randint(1, min(12, len(tetrahedra))))
    else:
        base = rng.choice([fixture("boundary-4-simplex"), fixture("boundary-16-cell"),
                           fixture("600-cell"), fixture("s2-x-s1"), twisted_s2_bundle()])
        n, facets = base.vertex_count, list(base.facets)
        if move == 1:
            u, w = rng.sample(range(n), 2)
            facets = [tuple(w if v == u else v for v in f) for f in facets]
        elif move == 2:
            for _ in range(rng.randint(1, 3)):
                facets.remove(rng.choice(facets))
        elif move == 3:
            facets += [tuple(rng.sample(range(n), 4)) for _ in range(rng.randint(1, 2))]
        elif move == 4:
            facets += [tuple(v + n for v in f) for f in facets]
            n *= 2
    kept = sorted({tuple(sorted(f)) for f in facets if len(set(f)) == 4})
    used = sorted(set().union(*kept))
    label = dict(zip(used, rng.sample(range(len(used)), len(used))))
    return SimplicialComplex(len(used), sorted(tuple(sorted(label[v] for v in f))
                                               for f in kept))


def link_is_2sphere_from_star(complex_, v):
    """The link of v in a pure 3-complex, the triangles f - {v} of its star,
    is a 2-sphere: every edge in two triangles, the triangles connected
    through edges, and chi = 2."""
    triangles = [tuple(u for u in f if u != v) for f in complex_.facets if v in f]
    if not triangles:
        return False
    sides = {}  # edge -> the triangles through it
    for i, t in enumerate(triangles):
        for e in combinations(t, 2):
            sides.setdefault(e, []).append(i)
    if any(len(s) != 2 for s in sides.values()):
        return False
    across = [[] for _ in triangles]
    for a, b in sides.values():
        across[a].append(b)
        across[b].append(a)
    seen = {0}
    stack = [0]
    while stack:
        for i in across[stack.pop()]:
            if i not in seen:
                seen.add(i)
                stack.append(i)
    degree = len(complex_.neighbors(v))
    return len(seen) == len(triangles) and degree - len(sides) + len(triangles) == 2


def manifold_report_by_stars(complex_):
    """The closed-orientable-3-manifold report in three passes: the first
    triangle of the table in other than two tetrahedra, then the least
    vertex whose star's link fails ``link_is_2sphere_from_star``, then the
    orientation walk over a dual graph built from the table once it is
    known to be a pseudomanifold, whose tree is the crossed triangles'
    positions among the sorted triangles.  Errors as the library does."""
    if not complex_.facets or not complex_.is_pure(3):
        raise ValueError("complex is not pure 3-dimensional")
    failures = []
    facets = complex_.facets
    tri_to_facets = {}
    for idx, f in enumerate(facets):
        for t, sign in zip(combinations(f, 3), (-1, 1, -1, 1)):
            tri_to_facets.setdefault(t, []).append((idx, sign))
    bad = [(t, len(owners)) for t, owners in tri_to_facets.items() if len(owners) != 2]
    if bad:
        failures.append("triangle %r lies in %d tetrahedra" % bad[0])
    failing = [v for v in range(complex_.vertex_count)
               if not link_is_2sphere_from_star(complex_, v)]
    if failing:
        failures.append("link of vertex %d is not a 2-sphere" % failing[0])
    orientable, orientation, tree = False, None, None
    if not bad:
        dual = [[] for _ in facets]
        for t, ((a, e_a), (b, e_b)) in tri_to_facets.items():
            dual[a].append((b, t, e_a * e_b))
            dual[b].append((a, t, e_a * e_b))
        signs = {0: 1}
        crossed = []
        stack = [0]
        mismatch = None
        while stack:
            cur = stack.pop()
            for nb, tri, same in dual[cur]:
                want = -signs[cur] * same
                if nb not in signs:
                    signs[nb] = want
                    crossed.append(tri)
                    stack.append(nb)
                elif signs[nb] != want and mismatch is None:
                    mismatch = tri
        if mismatch is not None:
            failures.append("orientation mismatch across triangle %r" % (mismatch,))
        if len(signs) != len(facets):
            if not failing:
                raise ValueError("complex is not connected")
        elif mismatch is None:
            orientable = True
            orientation = {facets[i]: s * signs[0] for i, s in signs.items()}
            position = {t: i for i, t in enumerate(sorted(tri_to_facets))}
            tree = tuple(position[t] for t in crossed)
    return Manifold3Report(not bad, not failing, orientable, orientation, tuple(failures),
                           tree)


def subdivision_face_map(k):
    """The face -> new vertex map of ``barycentric_subdivision(k)``, as
    ``oriented_subdivision`` returns it."""
    return oriented_subdivision([(f, 1) for f in k.facets])[1]


def validate_square(square, k):
    """Raise ValueError unless the square's sides are edges of k and its
    diagonals are not."""
    a, b, c, d = square.cycle
    if len({a, b, c, d}) != 4:
        raise ValueError("square vertices must be distinct")
    for u, v in ((a, b), (b, c), (c, d), (d, a)):
        if not (0 <= u < k.vertex_count and v in k.neighbors(u)):
            raise ValueError("square side (%d,%d) is not an edge" % (u, v))
    for u, v in ((a, c), (b, d)):
        if v in k.neighbors(u):
            raise ValueError("square diagonal (%d,%d) is an edge" % (u, v))


def eager_tables(k):
    """The face table (per dimension 0..3, face -> position among the sorted
    faces of that dimension), the vertex adjacency and its bit masks, built
    eagerly from the facets and the sorted edge list: what the library's
    tables, built on first read, must equal."""
    small = []
    for size in range(1, 5):
        faces = sorted({g for f in k.facets for g in combinations(f, size)})
        small.append(dict(zip(faces, range(len(faces)))))
    adj = [set() for _ in range(k.vertex_count)]
    for (u, v) in small[1]:
        adj[u].add(v)
        adj[v].add(u)
    masks = tuple(sum(2 ** u for u in s) for s in adj)
    return tuple(small), tuple(frozenset(s) for s in adj), masks


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


def brute_force_flag_witness(k):
    """None when k is flag, else the least maximal clique that is not a
    facet, less each vertex, largest first, whose removal leaves a non-face.
    The maximal cliques are the cliques, grown in increasing vertex order,
    that no vertex extends."""
    n = k.vertex_count
    adj = [set(k.neighbors(v)) for v in range(n)]
    least = None
    stack = [(v,) for v in range(n)]
    while stack:
        clique = stack.pop()
        extensions = [u for u in range(n) if all(u in adj[w] for w in clique)]
        if not extensions and not k.has_face(clique) and (least is None or clique < least):
            least = clique
        stack.extend(clique + (u,) for u in extensions if u > clique[-1])
    if least is not None:
        for v in reversed(least):
            smaller = tuple(u for u in least if u != v)
            if not k.has_face(smaller):
                least = smaller
    return least


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


def random_flag_sphere(seed, moves, start):
    """A flag PL 3-sphere drawn from the flag 3-sphere ``start`` by ``moves``
    edge subdivisions at edges chosen by ``seed``.

    Subdividing the edge ab at a new vertex c replaces each facet through ab
    by its two halves, one with c for a and one with c for b; the PL type
    stays.  K stays flag: a clique through c holds a or b, not both, and with
    ab it spans a face of the old K.  Since a and b are no longer adjacent,
    every non-adjacent pair x, y of the edge link gives the square a x b y.
    """
    rng = random.Random(seed)
    n, facets = start.vertex_count, set(start.facets)
    for _ in range(moves):
        a, b = rng.choice(sorted({e for f in facets for e in combinations(f, 2)}))
        through = [f for f in facets if a in f and b in f]
        facets.difference_update(through)
        facets.update(tuple(sorted(n if v == old else v for v in f))
                      for f in through for old in (a, b))
        n += 1
    return SimplicialComplex(n, sorted(facets))


def random_flag_complex(rng, max_vertices=12):
    n = rng.randint(3, max_vertices)
    p = rng.uniform(0.2, 0.8)
    edges = [e for e in combinations(range(n), 2) if rng.random() < p]
    return clique_complex(n, edges)


def random_complex(rng, max_vertices):
    """A flag complex of a random graph, or the maximal faces of random
    vertex sets (mostly not flag), on at least one vertex."""
    if rng.random() < 0.5:
        return random_flag_complex(rng, max_vertices)
    n = rng.randint(1, max_vertices)
    faces = [tuple(sorted(rng.sample(range(n), rng.randint(1, min(n, 4)))))
             for _ in range(rng.randint(1, 2 * n))]
    return SimplicialComplex(n, maximal_faces(faces + [(v,) for v in range(n)]))


def commutes(group, a, b):
    return b in group.commuting[a]


def commutation_class(group, word, cap=200000):
    """The words reachable by adjacent commuting swaps (same length), yielded
    breadth first as the search meets them."""
    seen = {tuple(word)}
    frontier = [tuple(word)]
    yield tuple(word)
    while frontier:
        nxt = []
        for w in frontier:
            for i in range(len(w) - 1):
                a, b = w[i], w[i + 1]
                if a != b and commutes(group, a, b):
                    swapped = w[:i] + (b, a) + w[i + 2:]
                    if swapped not in seen:
                        seen.add(swapped)
                        if len(seen) > cap:
                            raise AssertionError("commutation class too large")
                        nxt.append(swapped)
                        yield swapped
        frontier = nxt


def oracle_reduce(group, word):
    """Fully reduce by cancelling adjacent equal pairs found anywhere in the
    commutation class, each as soon as the class search meets it; sound and
    complete for Coxeter groups.  Returns the class of the reduced word."""
    current = tuple(word)
    while True:
        cls = set()
        for w in commutation_class(group, current):
            pair = next((i for i in range(len(w) - 1) if w[i] == w[i + 1]), None)
            if pair is not None:
                current = w[:pair] + w[pair + 2:]
                break
            cls.add(w)
        else:
            return cls


def oracle_equal(group, u, v):
    return oracle_reduce(group, u) == oracle_reduce(group, v)


def oracle_canonical(group, word):
    return min(oracle_reduce(group, word))


class BruteForceDavisBall(NamedTuple):
    vertices: frozenset
    cells: tuple     # (rep, J), sorted by (len(J), J, rep)
    interior: list   # sorted interior vertices
    links: dict      # vertex -> maximal simplices J of the ball's cells at it


def brute_force_davis_ball(complex_, radius):
    """Davis ball by coset-representative search and explicit cell vertices.

    Each (word, simplex J) pair gets the ShortLex least representative of
    its coset word W_J; the cell is kept when all 2^|J| of its vertices lie
    in the ball, and a vertex is interior when every cell of its star in
    the whole Davis complex does.  The link at g is spanned by the J whose
    cell at g, (min_coset_rep(g, J), J), is a cell of the ball.
    """
    group = racg_from_skeleton(complex_)
    vertices = frozenset(group.ball(radius))
    simplices = all_faces(complex_)

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


def cubical_closure(ground, top_cells):
    """{d: sorted cells} of the closure of (J, coset) cells under faces,
    each face of a cell found by dropping one direction of J, coset bit
    0 or 1 in it, down to the vertices."""
    per_dim = {}
    todo = {CubicalCell(*cell) for cell in top_cells}
    while todo:
        cell = todo.pop()
        cells = per_dim.setdefault(cell.J.bit_count(), set())
        if cell in cells:
            continue
        cells.add(cell)
        for b in _unmask(cell.J):
            todo.update((CubicalCell(cell.J ^ 1 << b, cell.coset),
                         CubicalCell(cell.J ^ 1 << b, cell.coset | 1 << b)))
    assert all(c.coset & c.J == 0 and (c.J | c.coset) >> ground == 0
               for cells in per_dim.values() for c in cells)
    return {d: sorted(per_dim[d]) for d in sorted(per_dim)}


def cubical_f_vector(cells):
    """Cell counts of a {d: cells} dict, by dimension."""
    return tuple(len(cells[d]) for d in sorted(cells))


def cubical_euler_characteristic(cells):
    return sum((-1) ** d * len(cs) for d, cs in cells.items())


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
    face_id = {f: i for i, f in enumerate(all_faces(k))}
    facets = [tuple(face_id[c] for c in chain)
              for top in k.facets for chain in _chains_of(top)]
    return SimplicialComplex(len(face_id), facets), face_id


def stellar_oriented_subdivision(facets_signed):
    """``oriented_subdivision`` by starring every face of dimension >= 1,
    the top dimension first, each dimension in lex order.

    The k-th starred face gets a new vertex, k past the largest one; then every
    vertex is renumbered to its face's (dimension, lex) id, and each facet
    is re-sorted with its sign times the parity of the renumbered tuple.
    Returns the signed facets, sorted, and the face -> id map.
    """
    faces = sorted({g for f, _ in facets_signed for size in range(1, len(f) + 1)
                    for g in combinations(f, size)}, key=lambda t: (len(t), t))
    face_id = {f: i for i, f in enumerate(faces)}
    starred = sorted((f for f in faces if len(f) > 1), key=lambda t: (-len(t), t))
    count = max(v for f, _ in facets_signed for v in f) + 1
    label = {f[0]: i for f, i in face_id.items() if len(f) == 1}
    label.update((count + k, face_id[f]) for k, f in enumerate(starred))
    out = []
    for f, sign in _stellar_subdivision(facets_signed, starred, count):
        renumbered = tuple(map(label.__getitem__, f))
        out.append((tuple(sorted(renumbered)), sign * _parity(renumbered)))
    return sorted(out), face_id


def _carry_cycle(cycle, face_id):
    """Push an edge cycle through one subdivision: vertex, midpoint, vertex."""
    out = []
    r = len(cycle)
    for k in range(r):
        u, v = cycle[k], cycle[(k + 1) % r]
        out.append(face_id[(u,)])
        out.append(face_id[tuple(sorted((u, v)))])
    return tuple(out)


def subdivide_link(link):
    """Carry a link into the barycentric subdivision of its ambient complex:
    the subdivision and the carried link."""
    sigma = link.ambient
    sd, face_map = barycentric_subdivision(sigma), subdivision_face_map(sigma)
    comps = [_carry_cycle(c, face_map) for c in link.components]
    return sd, EdgeCycleLink(sd, comps, link.orientations)


def certified_facets(ambient):
    """The (facet, sign) pairs of a certified homology 3-sphere, sorted, as
    ``linking_matrix`` hands them to ``_Complements``."""
    report = is_homology_3sphere(ambient)
    if not report.is_homology_sphere:
        raise ValueError("ambient is not a verified homology 3-sphere: %s" % report.note)
    return sorted(report.manifold.orientation.items())


def simplicial_linking_number(link, i, j, orientation=None):
    """Exact linking number of two components of an edge-cycle link, from
    the one elimination over the complement of component j.

    The ambient must verify as a homology 3-sphere, unless a facet
    orientation is passed, which is taken as given.  The certified
    orientation has the lexicographically least facet positive.
    """
    if i == j:
        raise ValueError("need two distinct components")
    facets_signed = (certified_facets(link.ambient) if orientation is None
                     else sorted(orientation.items()))
    return _Complements(link, facets_signed).column(j, [i])[i]


def _edge_link_cycle(facets_signed, a, b):
    """The link circle of the edge (a,b), oriented by the right-hand rule.

    Walk direction is fixed at the lexicographically least tetrahedron T
    around the edge: the ordered tuple (a, b, w0, w1) is positively
    oriented in T, where w0 -> w1 is the first meridian step.
    """
    around = [(f, s) for f, s in facets_signed if a in f and b in f]
    if not around:
        raise ValueError("(%d,%d) is not an edge of the ambient complex" % (a, b))
    adj = {}
    for f, _ in around:
        w1, w2 = (x for x in f if x != a and x != b)
        adj.setdefault(w1, []).append(w2)
        adj.setdefault(w2, []).append(w1)
    if any(len(v) != 2 for v in adj.values()):
        raise ValueError("edge link of (%d,%d) is not a circle" % (a, b))
    t0, s0 = min(around)
    w0, w1 = (x for x in t0 if x != a and x != b)
    if _parity((a, b, w0, w1)) * s0 < 0:
        w0, w1 = w1, w0
    cycle = [w0, w1]
    while True:
        prev, cur = cycle[-2], cycle[-1]
        nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
        if nxt == w0:
            break
        cycle.append(nxt)
    if len(cycle) != len(adj):
        raise ValueError("edge link of (%d,%d) is not a single circle" % (a, b))
    return tuple(cycle)


def second_subdivision_linking_matrix(link, orientation=None):
    """Linking matrix with every complement taken in the second subdivision.

    Whatever the components, two barycentric subdivisions make each one the
    core of its own regular neighbourhood; Lk(i, j) is solved separately
    for each pair i < j, removing component j and every simplex touching
    it, regardless of fullness.  Each meridian is walked around its edge
    link from the least tetrahedron's step, not summed over the
    tetrahedra as the solver's is.
    """
    if orientation is None:
        orientation = is_homology_3sphere(link.ambient).manifold.orientation
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


def _hermite_rows(dense):
    """The Hermite normal form of the row lattice, built a row at a time.

    Each row is reduced by the pivot rows, in column order, before it joins
    them: by a multiple where a pivot divides its entry, else by a Bezout
    step that makes the pivot their gcd.  Every entry above a pivot is then
    brought into [0, pivot), which keeps the entries small.  The row
    operations are unimodular, so the invariant factors stay.
    """
    basis = {}  # pivot column -> row, pivot positive
    for row in dense:
        row = list(row)
        for c in range(len(row)):
            x = row[c]
            if not x:
                continue
            if c not in basis:
                basis[c] = row if x > 0 else [-y for y in row]
                break
            p = basis[c]
            if x % p[c]:
                s, t = _bezout(p[c], x)
                g = s * p[c] + t * x
                if g < 0:
                    s, t, g = -s, -t, -g
                u, w = p[c] // g, x // g  # det [[s, t], [-w, u]] = 1
                basis[c] = [s * a + t * b for a, b in zip(p, row)]
                row = [u * b - w * a for a, b in zip(p, row)]
            else:
                q = x // p[c]
                row = [b - q * a for a, b in zip(p, row)]
        pivots = sorted(basis)
        for k, c in enumerate(pivots):
            p = basis[c]
            for above in pivots[:k]:
                q = basis[above][c] // p[c]
                if q:
                    basis[above] = [a - q * b for a, b in zip(basis[above], p)]
    return [basis[c] for c in sorted(basis)]


def oracle_invariant_factors(dense):
    """Naive Smith invariants: the Hermite rows of ``_hermite_rows``, then
    gcd-based elimination with no pivot strategy."""
    a = _hermite_rows(dense)
    m = len(a)
    n = len(dense[0]) if dense else 0
    out = []
    t = 0
    while t < min(m, n):
        found = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j]:
                    found = (i, j)
                    break
            if found:
                break
        if not found:
            break
        i, j = found
        a[t], a[i] = a[i], a[t]
        for row in a:
            row[t], row[j] = row[j], row[t]
        while True:
            i_bad = next((i for i in range(t + 1, m) if a[i][t] % a[t][t]), None)
            j_bad = next((j for j in range(t + 1, n) if a[t][j] % a[t][t]), None)
            if i_bad is not None:
                g = gcd(a[t][t], a[i_bad][t])
                # Bezout row combination to make the pivot the gcd
                x0, y0 = _bezout(a[t][t], a[i_bad][t])
                r_t = [x0 * a[t][c] + y0 * a[i_bad][c] for c in range(n)]
                q1, q2 = a[t][t] // g, a[i_bad][t] // g
                r_i = [-q2 * a[t][c] + q1 * a[i_bad][c] for c in range(n)]
                a[t], a[i_bad] = r_t, r_i
                continue
            if j_bad is not None:
                g = gcd(a[t][t], a[t][j_bad])
                x0, y0 = _bezout(a[t][t], a[t][j_bad])
                q1, q2 = a[t][t] // g, a[t][j_bad] // g
                for r in range(m):
                    c_t = x0 * a[r][t] + y0 * a[r][j_bad]
                    c_j = -q2 * a[r][t] + q1 * a[r][j_bad]
                    a[r][t], a[r][j_bad] = c_t, c_j
                continue
            break
        for i in range(t + 1, m):
            q = a[i][t] // a[t][t]
            for c in range(n):
                a[i][c] -= q * a[t][c]
        for j in range(t + 1, n):
            q = a[t][j] // a[t][t]
            for r in range(m):
                a[r][j] -= q * a[r][t]
        out.append(abs(a[t][t]))
        t += 1
    # normalize into a divisibility chain via gcd/lcm exchanges
    changed = True
    while changed:
        changed = False
        for i in range(len(out) - 1):
            if out[i + 1] % out[i]:
                g = gcd(out[i], out[i + 1])
                out[i], out[i + 1] = g, out[i] * out[i + 1] // g
                changed = True
    return tuple(x for x in out if x)


def _bezout(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_s, old_t


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


def cokernel_functional(dense):
    """The primitive integer vector phi with phi M = 0, for a dense m x n
    matrix M whose cokernel Z^m / M Z^n has free rank 1, such as Z: the
    image of v in the free part is then +-(phi . v).  Gauss-Jordan
    elimination of M^T over the rationals."""
    m = len(dense)
    rows = [[Fraction(dense[i][j]) for i in range(m)] for j in range(len(dense[0]))]
    pivots = []
    for c in range(m):
        r = len(pivots)
        p = next((k for k in range(r, len(rows)) if rows[k][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][c]:
                f = rows[k][c]
                rows[k] = [x - f * y for x, y in zip(rows[k], rows[r])]
        pivots.append(c)
    free = [c for c in range(m) if c not in pivots]
    assert len(free) == 1, "the left kernel has dimension %d, not 1" % len(free)
    phi = [Fraction(0)] * m
    phi[free[0]] = Fraction(1)
    for r, c in enumerate(pivots):
        phi[c] = -rows[r][free[0]]
    ints = [int(x * lcm(*(y.denominator for y in phi))) for x in phi]
    g = gcd(*ints)
    return [x // g for x in ints]


def pk_homology_by_subsets(complex_):
    """Homology of P_K by the splitting, one Smith-form homology per vertex
    set J: every J of a non-flag K, and in a flag K every J that no single
    vertex of J is adjacent to in full (those K_J are cones)."""
    n = complex_.vertex_count
    size = complex_.dim() + 2
    ranks = [1] + [0] * (size - 1)
    torsion = [[] for _ in range(size)]
    closed = None
    if is_flag(complex_).is_flag:
        closed = [_mask(complex_.neighbors(v)) | 1 << v for v in range(n)]
    for J in range(1, 1 << n):
        vertices = _unmask(J)
        if closed is not None and any(J & ~closed[v] == 0 for v in vertices):
            continue
        sub = full_subcomplex(complex_, vertices)
        for d, (rank, tors) in enumerate(homology(simplicial_chain_complex(sub)).groups):
            ranks[d + 1] += rank - (d == 0)
            torsion[d + 1].extend(tors)
    return HomologyProfile((r, _merged_torsion(t)) for r, t in zip(ranks, torsion))


# -- diagram fixtures ------------------------------------------------------

def hopf_diagram():
    """Two components crossing twice, both positive: linking number 1."""
    return PlanarDiagram(2, [(0, 1, 1), (1, 0, 1)], [[0, 1], [0, 1]])


def solomon_diagram():
    """Four positive inter-component crossings: linking number 2."""
    crossings = [(0, 1, 1), (1, 0, 1), (0, 1, 1), (1, 0, 1)]
    return PlanarDiagram(2, crossings, [[0, 1, 2, 3], [0, 1, 2, 3]])


def whitehead_diagram():
    """The clasped unlink: four cancelling inter-component crossings plus a
    self-crossing in the clasp, linking number 0."""
    crossings = [(0, 1, 1), (1, 0, -1), (0, 1, -1), (1, 0, 1), (1, 1, -1)]
    return PlanarDiagram(2, crossings, [[0, 1, 2, 3], [0, 1, 2, 3, 4, 4]])


def three_chain_133_diagram():
    """Three components with pairwise linking numbers 1, 3 and 3."""
    crossings = []
    order = [[], [], []]

    def clasp(a, b, count):
        for _ in range(count):
            for over, under in ((a, b), (b, a)):
                idx = len(crossings)
                crossings.append((over, under, 1))
                order[a].append(idx)
                order[b].append(idx)

    clasp(0, 1, 1)   # Lk(0,1) = 1
    clasp(0, 2, 3)   # Lk(0,2) = 3
    clasp(1, 2, 3)   # Lk(1,2) = 3
    return PlanarDiagram(3, crossings, order)


def brunnian_diagram(m):
    """Cyclically clasped components with cancelling signs, all pairwise
    linking numbers zero; m = 3 is the Borromean pattern."""
    if m < 3:
        raise ValueError("a Brunnian pattern needs at least 3 components, got %d" % m)
    crossings = []
    order = [[] for _ in range(m)]
    for i in range(m):
        j = (i + 1) % m
        idx = len(crossings)
        crossings.append((i, j, 1))
        crossings.append((j, i, -1))
        order[i] += [idx, idx + 1]
        order[j] += [idx, idx + 1]
    diagram = PlanarDiagram(m, crossings, order)
    matrix = diagram_linking_matrix(diagram)
    if any(matrix.off_diagonal()):
        raise AssertionError("Brunnian pattern has a nonzero pairwise sum")
    return diagram


def whitehead_double_diagram(m, twists):
    """Doubled components of the m-component Brunnian pattern.

    Each inter-component crossing becomes the four crossings of the two
    parallel strands; each component gains a clasp and the given even
    number of twist self-crossings.  All pairwise linking numbers are 0.
    """
    if m < 3:
        raise ValueError("need at least 3 components, got %d" % m)
    if twists % 2:
        raise ValueError("twist count must be even, got %d" % twists)
    base = brunnian_diagram(m)
    crossings = []
    order = [[] for _ in range(m)]
    for (over, under, sign) in base.crossings:
        for _ in range(4):  # two parallel strands on each side
            idx = len(crossings)
            crossings.append((over, under, sign))
            order[over].append(idx)
            order[under].append(idx)
    for i in range(m):
        # the clasp of the double: two cancelling self-crossings
        for s in (1, -1):
            idx = len(crossings)
            crossings.append((i, i, s))
            order[i] += [idx, idx]
        twist_sign = 1 if twists >= 0 else -1
        for _ in range(abs(twists)):
            idx = len(crossings)
            crossings.append((i, i, twist_sign))
            order[i] += [idx, idx]
    diagram = PlanarDiagram(m, crossings, order)
    matrix = diagram_linking_matrix(diagram)
    if any(matrix.off_diagonal()):
        raise AssertionError("doubled pattern has a nonzero pairwise sum")
    return diagram
