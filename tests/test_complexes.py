"""Core simplicial predicates, checked against brute-force oracles."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatlink.complexes import (InvalidComplexError, SimplicialComplex, Square,
                                barycentric_subdivision, clique_complex, find_squares,
                                full_subcomplex, has_isolated_squares, is_flag, join,
                                maximal_faces, oriented_subdivision, vertex_link)
from flatlink.fixtures import fixture, fixture_names
from flatlink.homology import is_closed_orientable_3manifold


# -- independent oracles ----------------------------------------------------

from oracles import (brute_force_is_flag, brute_force_squares, chain_subdivision,
                     random_flag_complex)


# -- construction and JSON ---------------------------------------------------

def test_constructor_rejects_bad_facets():
    with pytest.raises(InvalidComplexError):
        SimplicialComplex(3, [(1, 0)])  # unsorted
    with pytest.raises(InvalidComplexError):
        SimplicialComplex(3, [(0, 0, 1)])  # duplicate vertex
    with pytest.raises(InvalidComplexError):
        SimplicialComplex(3, [(0, 1)])  # vertex 2 phantom
    with pytest.raises(InvalidComplexError):
        SimplicialComplex(3, [(0, 1, 2), (0, 1)])  # contained facet
    with pytest.raises(InvalidComplexError):
        SimplicialComplex(2, [(0, 3)])  # out of range


def test_json_loader_names_offending_facet():
    with pytest.raises(InvalidComplexError, match="facet #1"):
        SimplicialComplex.from_json({"vertices": 3, "facets": [[0, 1], [2, 1]]})
    with pytest.raises(InvalidComplexError, match="facet #0"):
        SimplicialComplex.from_json({"vertices": 3, "facets": [[1, 1, 2]]})


def test_json_roundtrip(tmp_path):
    k = fixture("octahedron")
    path = tmp_path / "octa.json"
    k.dump(path)
    assert SimplicialComplex.load(path) == k


# -- is_flag -----------------------------------------------------------------

def test_flag_boundary_4_simplex():
    report = is_flag(fixture("boundary-4-simplex"))
    assert not report.is_flag
    assert tuple(sorted(report.witness)) == (0, 1, 2, 3, 4)


def test_flag_c4():
    assert is_flag(fixture("c4")).is_flag


def test_flag_sd_boundary_4_simplex_against_oracle():
    sd = fixture("sd-boundary-4-simplex")
    assert is_flag(sd).is_flag
    assert brute_force_is_flag(sd)


def test_flag_witness_is_minimal_nonface_clique():
    k = fixture("boundary-4-simplex")
    report = is_flag(k)
    w = report.witness
    edges = set(k.faces(1))
    assert all(tuple(sorted(p)) in edges for p in combinations(w, 2))
    assert not k.has_face(w)
    for i in range(len(w)):
        assert k.has_face(w[:i] + w[i + 1:])


def test_flag_matches_oracle_on_random_complexes():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(3, 7)
        facets = set()
        for _ in range(rng.randint(2, 10)):
            size = rng.randint(1, 4)
            facets.add(tuple(sorted(rng.sample(range(n), min(size, n)))))
        usable = sorted({v for f in facets for v in f})
        relabel = {v: i for i, v in enumerate(usable)}
        renamed = sorted({tuple(sorted(relabel[v] for v in f)) for f in facets},
                         key=len, reverse=True)
        maximal = []
        for f in renamed:
            if not any(set(f) <= set(g) for g in maximal):
                maximal.append(f)
        k = SimplicialComplex(len(usable), maximal)
        assert is_flag(k).is_flag == brute_force_is_flag(k)


# -- squares ------------------------------------------------------------------

def test_squares_c4():
    assert [s.cycle for s in find_squares(fixture("c4"))] == [(0, 1, 2, 3)]


def test_squares_octahedron_oracle():
    octa = fixture("octahedron")
    squares = find_squares(octa)
    assert len(squares) == 3
    assert squares == brute_force_squares(octa)


def test_squares_16_cell():
    squares = find_squares(fixture("boundary-16-cell"))
    assert len(squares) == 6
    assert squares == brute_force_squares(fixture("boundary-16-cell"))


def test_squares_match_oracle_on_random_flag_complexes():
    rng = random.Random(11)
    for _ in range(25):
        k = random_flag_complex(rng, max_vertices=9)
        assert find_squares(k) == brute_force_squares(k)


def test_square_invariants_validate():
    for name in ("c4", "octahedron", "boundary-16-cell", "two-squares-disjoint"):
        k = fixture(name)
        for s in find_squares(k):
            s.validate(k)


def test_square_canonical_form_is_dihedral_least():
    images = [(0, 1, 2, 3), (1, 2, 3, 0), (3, 2, 1, 0), (2, 1, 0, 3)]
    assert all(Square.canonical(c).cycle == (0, 1, 2, 3) for c in images)


# -- isolated squares ---------------------------------------------------------

def test_isolated_c4_and_disjoint_union():
    assert has_isolated_squares(fixture("c4")).has_isolated_squares
    assert has_isolated_squares(fixture("two-squares-disjoint")).has_isolated_squares


def test_isolated_octahedron_fails_with_vertex():
    report = has_isolated_squares(fixture("octahedron"))
    assert not report.has_isolated_squares
    squares = find_squares(fixture("octahedron"))
    hits = [s for s in squares if report.offending_vertex in s.cycle]
    assert len(hits) >= 2


def test_isolated_implies_pairwise_disjoint():
    rng = random.Random(13)
    for _ in range(40):
        k = random_flag_complex(rng, max_vertices=10)
        squares = find_squares(k)
        if has_isolated_squares(k, squares).has_isolated_squares:
            seen = set()
            for s in squares:
                assert not (seen & s.vertices())
                seen |= s.vertices()


# -- links and full subcomplexes ------------------------------------------------

def test_vertex_link_examples():
    octa = fixture("octahedron")
    for v in range(6):
        link = vertex_link(octa, v)
        assert link.f_vector() == (4, 4)  # a 4-cycle
    tetra = fixture("boundary-3-simplex")
    for v in range(4):
        assert vertex_link(tetra, v).facets == ((0, 1), (0, 2), (1, 2))
    c4 = fixture("c4")
    for v in range(4):
        assert vertex_link(c4, v).facets == ((0,), (1,))
    with pytest.raises(ValueError):
        vertex_link(c4, 9)


def test_full_subcomplex_examples():
    d4 = fixture("boundary-4-simplex")
    assert full_subcomplex(d4, [0, 1, 2]).facets == ((0, 1, 2),)
    octa = fixture("octahedron")
    assert full_subcomplex(octa, [0, 1]).facets == ((0,), (1,))
    c4 = fixture("c4")
    assert full_subcomplex(c4, [0, 2]).facets == ((0,), (1,))


def test_link_commutes_with_full_subcomplex():
    rng = random.Random(17)
    for _ in range(20):
        k = random_flag_complex(rng, max_vertices=9)
        v = rng.randrange(k.vertex_count)
        nbrs = sorted(k.neighbors(v))
        if not nbrs:
            continue
        sub = sorted(rng.sample(nbrs, rng.randint(1, len(nbrs))))
        # restrict-then-link equals link-then-restrict, via consistent relabels
        keep = sorted(sub + [v])
        restricted = full_subcomplex(k, keep)
        v_new = keep.index(v)
        lhs = vertex_link(restricted, v_new)
        link = vertex_link(k, v)
        rhs = full_subcomplex(link, [nbrs.index(u) for u in sub])
        assert lhs == rhs


# -- barycentric subdivision ----------------------------------------------------

def test_subdivision_edge():
    sd = barycentric_subdivision(SimplicialComplex(2, [(0, 1)]))
    assert sd.vertex_count == 3
    assert len(sd.facets) == 2


def test_subdivision_solid_triangle():
    sd = barycentric_subdivision(SimplicialComplex(3, [(0, 1, 2)]))
    assert sd.vertex_count == 7
    assert len(sd.facets) == 6


def test_subdivision_boundary_4_simplex():
    sd = fixture("sd-boundary-4-simplex")
    assert sd.vertex_count == 30
    assert len(sd.facets) == 120


def test_subdivision_always_flag():
    rng = random.Random(19)
    for _ in range(15):
        k = random_flag_complex(rng, max_vertices=7)
        assert is_flag(barycentric_subdivision(k)).is_flag


@given(st.integers(min_value=3, max_value=8))
@settings(max_examples=6, deadline=None)
def test_subdivision_preserves_euler_characteristic(n):
    edges = [(i, (i + 1) % n) for i in range(n)]
    k = clique_complex(n, edges)
    assert barycentric_subdivision(k).euler_characteristic() == k.euler_characteristic()


def test_subdivision_face_map_consistent():
    k = fixture("c4")
    sd, face_map = barycentric_subdivision(k, return_face_map=True)
    assert len(face_map) == sd.vertex_count
    for (u, v) in k.faces(1):
        assert sd.has_face(tuple(sorted((face_map[(u,)], face_map[(u, v)]))))


@pytest.mark.parametrize("name", fixture_names())
def test_subdivision_matches_chain_oracle_on_registry(name):
    sd, face_map = barycentric_subdivision(fixture(name), return_face_map=True)
    assert (sd, face_map) == chain_subdivision(fixture(name))


def test_subdivision_matches_chain_oracle_on_random_flag_complexes():
    rng = random.Random(23)
    for _ in range(30):
        k = random_flag_complex(rng, max_vertices=9)
        assert barycentric_subdivision(k, return_face_map=True) == chain_subdivision(k)


@pytest.mark.parametrize("name", ["join-c10-c10", "boundary-16-cell",
                                  "sd-boundary-4-simplex", "600-cell", "s2-x-s1"])
def test_carried_orientation_matches_certified_orientation_of_subdivision(name):
    # the sign rule (facet sign times the parity of the order in which the
    # flag adds vertices) against sign propagation over sd(K) from scratch
    k = fixture(name)
    orientation = is_closed_orientable_3manifold(k).orientation
    signed, face_map = oriented_subdivision(sorted(orientation.items()))
    sd = barycentric_subdivision(k)
    assert face_map == barycentric_subdivision(k, return_face_map=True)[1]
    assert sorted(f for f, _ in signed) == list(sd.facets)
    certified = is_closed_orientable_3manifold(sd).orientation
    flip = certified[signed[0][0]] * signed[0][1]
    assert all(certified[f] == flip * s for f, s in signed)


def test_oriented_subdivision_of_a_triangle_and_mixed_sizes():
    signed, face_map = oriented_subdivision([((0, 1, 2), -1)])
    assert len(face_map) == 7 and len(signed) == 6
    # flag 0 < 01 < 012 follows the vertex order (0, 1, 2): the facet's sign
    assert ((face_map[(0,)], face_map[(0, 1)], face_map[(0, 1, 2)]), -1) in signed
    assert ((face_map[(1,)], face_map[(0, 1)], face_map[(0, 1, 2)]), 1) in signed
    signed, face_map = oriented_subdivision([((0, 1), 1), ((2,), 1)])
    assert signed == [((0, 3), 1), ((1, 3), -1), ((2,), 1)]


def test_maximal_faces_drops_contained_and_repeated_faces():
    assert maximal_faces([(0,), (0, 1), (1, 2), (0, 1), (2,), (3,)]) == [(0, 1), (1, 2), (3,)]
    assert maximal_faces([]) == []


def test_join_products():
    two = SimplicialComplex(2, [(0,), (1,)])
    octa = join(join(two, two), two)
    assert octa == fixture("octahedron")
    assert octa.f_vector() == (6, 12, 8)
