"""Mirror cubulation: f-vectors, vertex links, boundary signs, cell JSON,
homology.

The splitting route (``pk_homology``, ``pk_f_vector``) is checked against
the cells: ``homology(cubical_chain_complex(build_pk(K)))`` and
``build_pk(K).f_vector()``; its strong collapses are checked against one
homology per vertex set, ``pk_homology_by_subsets``.
"""

import random
from itertools import combinations

import pytest

from flatlink.complexes import SimplicialComplex, disjoint_union, full_subcomplex, join
from flatlink.cubes import (CubicalCell, CubicalComplex, GroundSetTooLarge, _mask, build_pk,
                            check_ground, cubical_chain_complex, pk_f_vector, pk_homology)
from flatlink.fixtures import _cycle, fixture, fixture_names
from flatlink.homology import (HomologyProfile, IntegerMatrix, _merged_torsion, homology,
                               smith_normal_form)

from oracles import (all_faces, from_dense, oracle_invariant_factors, pk_homology_by_subsets,
                     pk_vertex_link, random_flag_complex, to_dense)


def test_pk_point_is_segment():
    p = build_pk(SimplicialComplex(1, [(0,)]))
    assert p.f_vector() == (2, 1)


def test_pk_edge_is_solid_square():
    p = build_pk(SimplicialComplex(2, [(0, 1)]))
    assert p.f_vector() == (4, 4, 1)


def test_pk_c4_is_torus():
    p = build_pk(fixture("c4"))
    assert p.f_vector() == (16, 32, 16)
    assert p.euler_characteristic() == 0
    assert homology(cubical_chain_complex(p)) == HomologyProfile(
        [(1, ()), (2, ()), (1, ())])


def test_pk_octahedron_is_3_torus():
    p = build_pk(fixture("octahedron"))
    assert p.f_vector() == (64, 192, 192, 64)
    assert p.euler_characteristic() == 0
    assert homology(cubical_chain_complex(p)) == HomologyProfile(
        [(1, ()), (3, ()), (3, ()), (1, ())])


def test_pk_f_vector_formula():
    for name in ("c4", "octahedron", "boundary-4-simplex"):
        k = fixture(name)
        p = build_pk(k)
        n = k.vertex_count
        expected = [2 ** n]
        by_size = {}
        for f in all_faces(k):
            by_size[len(f)] = by_size.get(len(f), 0) + 1
        for d in sorted(by_size):
            expected.append(by_size[d] * 2 ** (n - d))
        assert list(p.f_vector()) == expected


def test_pk_euler_characteristic_consistency():
    # chi from the cell enumeration; for a sphere triangulation with
    # f = (v,e,t,q) the Dehn-Sommerville relations give 2^(n-4)*(16-4v+q)
    for name, expected in (("boundary-4-simplex", 2), ("boundary-16-cell", 0)):
        k = fixture(name)
        p = build_pk(k)
        v, q = k.vertex_count, len(k.facets)
        assert p.euler_characteristic() == expected
        assert expected == 2 ** (v - 4) * (16 - 4 * v + q)


def test_segment_boundary_matrix():
    p = build_pk(SimplicialComplex(1, [(0,)]))
    cc = cubical_chain_complex(p)
    # vertices ordered (coset 0, coset 1); bit 0 is the top (+1) face
    assert to_dense(cc.boundary(1)) == [[1], [-1]]


def _accumulated_boundaries(cubical):
    """Boundary matrices summed face by face onto whatever entry is there."""
    out = {}
    for d in range(1, cubical.dim() + 1):
        lower = {c: i for i, c in enumerate(cubical.cells[d - 1])}
        mat = IntegerMatrix(len(cubical.cells[d - 1]), len(cubical.cells[d]))
        for col, cell in enumerate(cubical.cells[d]):
            free = [b for b in range(cubical.ground) if cell.J >> b & 1]
            for rank, b in enumerate(free):
                sub = cell.J & ~(1 << b)
                for face, sign in ((CubicalCell(sub, cell.coset), (-1) ** rank),
                                   (CubicalCell(sub, cell.coset | 1 << b), -(-1) ** rank)):
                    mat.set(lower[face], col, mat.get(lower[face], col) + sign)
        out[d] = mat
    return out


@pytest.mark.parametrize("name", ["octahedron", "boundary-16-cell"])
def test_boundaries_match_face_by_face_accumulation(name):
    p = build_pk(fixture(name))
    assert cubical_chain_complex(p).boundaries == _accumulated_boundaries(p)


def test_boundary_of_boundary_vanishes():
    for name in ("c4", "octahedron", "boundary-4-simplex"):
        cc = cubical_chain_complex(build_pk(fixture(name)))
        for d in range(2, cc.dim + 1):
            assert (cc.boundary(d - 1) @ cc.boundary(d)).nnz() == 0


def test_vertex_links_canonical_exhaustive():
    # every vertex of P_K has link K under the identity, for all |I| <= 8
    for k in [fixture(name) for name in ("c4", "octahedron", "boundary-4-simplex",
                                         "boundary-16-cell")] + [
            SimplicialComplex(1, [(0,)]), SimplicialComplex(2, [(0, 1)])]:
        p = build_pk(k)
        assert all(pk_vertex_link(p, cell.coset) == k for cell in p.cells[0])


def test_ground_bound_error():
    k = SimplicialComplex(25, [(i,) for i in range(25)])
    with pytest.raises(GroundSetTooLarge, match="bound 24"):
        build_pk(k)
    with pytest.raises(GroundSetTooLarge, match="bound 4"):
        build_pk(fixture("octahedron"), max_ground=4)


def test_cell_canonical_representative_enforced():
    with pytest.raises(ValueError, match="canonical"):
        CubicalComplex(2, [CubicalCell(0b01, 0b01)])


def test_closure_reconstruction_and_json_roundtrip():
    p = build_pk(fixture("c4"))
    data = p.to_json()
    # top cells only: the 2-cells of the torus
    assert len(data["cells"]) == 16
    cells = [CubicalCell(_mask(rec["J"]), int(rec["coset"], 16)) for rec in data["cells"]]
    assert CubicalComplex(data["ground"], cells) == p


def _splitting_cases():
    cases = [(name, fixture(name)) for name in fixture_names()
             if fixture(name).vertex_count <= 10]
    rng = random.Random(29)
    cases += [("random flag %d" % i, random_flag_complex(rng, max_vertices=9))
              for i in range(20)]
    cases.append(("rp2 + point", disjoint_union(fixture("projective-plane-6"),
                                                SimplicialComplex(1, [(0,)]))))
    cases.append(("empty", SimplicialComplex(0, [])))
    return cases


SPLITTING_CASES = _splitting_cases()


@pytest.mark.parametrize("name,k", SPLITTING_CASES, ids=[c[0] for c in SPLITTING_CASES])
def test_pk_homology_matches_cubical_homology(name, k):
    cells = build_pk(k)
    profile = pk_homology(k)
    assert profile == homology(cubical_chain_complex(cells))
    assert profile == pk_homology_by_subsets(k)
    f = pk_f_vector(k)
    assert f == cells.f_vector()
    assert sum((-1) ** d * c for d, c in enumerate(f)) == cells.euler_characteristic()


def test_pk_homology_pinned_values():
    # projective-plane-6 and torus-7 are not flag: every J is visited; in the
    # disjoint union with a point, the torsion comes from two J's
    assert pk_homology(fixture("projective-plane-6")) == HomologyProfile(
        [(1, ()), (0, ()), (31, (2,)), (0, ())])
    assert pk_homology(fixture("torus-7")) == HomologyProfile(
        [(1, ()), (0, ()), (128, ()), (1, ())])
    rp2_point = disjoint_union(fixture("projective-plane-6"), SimplicialComplex(1, [(0,)]))
    assert pk_homology(rp2_point) == HomologyProfile(
        [(1, ()), (63, ()), (62, (2, 2)), (0, ())])
    empty = SimplicialComplex(0, [])
    assert pk_f_vector(empty) == (1,)
    assert pk_homology(empty) == HomologyProfile([(1, ())])


def test_pk_homology_of_join_c6_c6_without_cells():
    # 12 vertices: 168 cores stand for the 1,155 vertex sets whose core is
    # not one vertex, and the cubical route is far slower
    k = fixture("join-c6-c6")
    assert pk_f_vector(k) == (4096, 24576, 49152, 36864, 9216)
    assert pk_homology(k) == HomologyProfile(
        [(1, ()), (68, ()), (1158, ()), (68, ()), (1, ())])


def _recorded_full_subcomplexes(monkeypatch):
    """The vertex tuples ``pk_homology`` takes full subcomplexes on, in order."""
    import flatlink.cubes as cubes_module
    visited = []

    def recording(complex_, vertices):
        visited.append(tuple(vertices))
        return full_subcomplex(complex_, vertices)

    monkeypatch.setattr(cubes_module, "full_subcomplex", recording)
    return visited


def test_pk_homology_skips_cones_of_flag_complexes(monkeypatch):
    visited = _recorded_full_subcomplexes(monkeypatch)
    pk_homology(fixture("c4"))  # K_J is a cone unless J holds a diagonal
    assert visited == [(0, 2), (1, 3), (0, 1, 2, 3)]
    visited.clear()
    pk_homology(SimplicialComplex(4, [(0, 1, 2, 3)]))  # every K_J is a simplex
    assert visited == []
    visited.clear()
    pk_homology(fixture("projective-plane-6"))  # not flag: every J is visited
    assert len(visited) == 63


def test_pk_homology_matches_the_subset_oracle_up_to_12_vertices():
    rng = random.Random(41)
    cases = [random_flag_complex(rng, max_vertices=12) for _ in range(20)]
    cases += [join(_cycle(4), _cycle(6)), fixture("join-c6-c6")]
    for k in cases:
        assert pk_homology(k) == pk_homology_by_subsets(k)


def test_pk_homology_dismantles_a_forest_to_one_vertex_per_component(monkeypatch):
    # a connected J spans a subtree, which strong-collapses to a vertex, so
    # only J that span no edge are left: no homology of a connected J
    path = SimplicialComplex(6, [(i, i + 1) for i in range(5)])
    tree = SimplicialComplex(7, [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5), (5, 6)])
    visited = _recorded_full_subcomplexes(monkeypatch)
    for k in (path, tree):
        visited.clear()
        assert pk_homology(k) == pk_homology_by_subsets(k)
        edges = set(k.faces(1))
        assert visited
        assert not any(e in edges for t in visited for e in combinations(t, 2))


def test_pk_homology_takes_the_homology_of_each_core_once(monkeypatch):
    visited = _recorded_full_subcomplexes(monkeypatch)
    rng = random.Random(43)
    cases = [random_flag_complex(rng, max_vertices=10) for _ in range(10)]
    for k in cases + [fixture("join-c6-c6"), join(_cycle(4), _cycle(6))]:
        visited.clear()
        pk_homology(k)
        assert len(set(visited)) == len(visited)
    # the cone prune alone visits 183 vertex sets of join(C4,C6)
    assert len(visited) < 183 // 3


@pytest.mark.parametrize("coefficients,expected", [
    ((2, 3), (6,)), ((2, 4, 2), (2, 2, 4)), ((6, 10), (2, 30)), ((), ()), ((5,), (5,)),
    ((2,) * 511 + (3,), (2,) * 510 + (6,))])
def test_torsion_merge_gives_invariant_factors(coefficients, expected):
    assert _merged_torsion(list(coefficients)) == expected


def test_torsion_merge_matches_smith_form_of_the_diagonal():
    # smith_normal_form of a diagonal runs the merge itself: both meet the oracle
    rng = random.Random(11)
    for _ in range(300):
        coefficients = [rng.randint(2, 36) for _ in range(rng.randint(1, 10))]
        n = len(coefficients)
        dense = [[c if i == j else 0 for j in range(n)] for i, c in enumerate(coefficients)]
        invariants = oracle_invariant_factors(dense)
        assert _merged_torsion(coefficients) == tuple(t for t in invariants if t > 1)
        assert smith_normal_form(from_dense(dense)).invariants == invariants


def test_check_ground_is_the_bound_of_build_pk():
    k = SimplicialComplex(25, [(i,) for i in range(25)])
    with pytest.raises(GroundSetTooLarge,
                       match="ground set has 25 vertices; 2\\^25 cube vertices exceeds the bound 24"):
        check_ground(k)
    check_ground(k, 25)
    with pytest.raises(GroundSetTooLarge, match="bound 4"):
        check_ground(fixture("octahedron"), 4)
