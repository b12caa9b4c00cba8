"""Mirror cubulation: f-vectors, vertex links, boundary signs, cell JSON,
homology.

The splitting route (``pk_homology``, ``pk_f_vector``) is checked against
the cells: ``homology(cubical_chain_complex(build_pk(K)))`` and
``build_pk(K).f_vector()``; its union and join pieces and its strong
collapses are checked against one homology per vertex set,
``pk_homology_by_subsets``.
"""

import random
from itertools import combinations
from math import comb

import pytest

from flatlink.complexes import SimplicialComplex, _bits, disjoint_union, full_subcomplex, join
from flatlink.cubes import (CubicalCell, CubicalComplex, GroundSetTooLarge, _core_tally, _mask,
                            build_pk, check_ground, cubical_chain_complex, piece_sizes,
                            pk_f_vector, pk_homology, pk_pieces)
from flatlink.fixtures import _cycle, fixture, fixture_names
from flatlink.homology import (HomologyProfile, IntegerMatrix, _merged_torsion, homology,
                               smith_normal_form)

from oracles import (all_faces, from_dense, oracle_invariant_factors, pk_homology_by_subsets,
                     pk_vertex_link, random_complex, random_flag_complex, to_dense)


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
    rp2, c4 = fixture("projective-plane-6"), _cycle(4)
    s0 = SimplicialComplex(2, [(0,), (1,)])
    cases.append(("rp2 + point", disjoint_union(rp2, SimplicialComplex(1, [(0,)]))))
    cases.append(("empty", SimplicialComplex(0, [])))
    # joins and unions with a piece that is not flag, and a refused split
    cases += [("rp2 * s0", join(rp2, s0)), ("rp2 * c4", join(rp2, c4)),
              ("torus-7 * s0", join(fixture("torus-7"), s0)),
              ("c4 + c4 + triangle", disjoint_union(disjoint_union(c4, c4),
                                                    SimplicialComplex(3, [(0, 1, 2)]))),
              ("no join", SimplicialComplex(4, [(0, 1, 2), (0, 1, 3), (2, 3)]))]
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
    # 12 vertices: the join of two C6 pieces, and the cubical route is far slower
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
    pk_homology(fixture("c4"))  # the join of four points: no vertex set is left
    assert visited == []
    # K_J is a cone unless J holds a diagonal; the diagonals' two points are
    # counted without a homology
    pk_homology(_cycle(5))
    assert visited == [(0, 1, 2, 3, 4)]
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
    for _ in range(10):  # pieces that are mostly not flag
        a, b = random_complex(rng, 4), random_complex(rng, 4)
        cases += [join(a, b), disjoint_union(a, b)]
    for k in cases:
        assert pk_homology(k) == pk_homology_by_subsets(k)


def test_pk_homology_dismantles_a_forest_to_one_vertex_per_component(monkeypatch):
    # a connected J spans a subtree, which strong-collapses to a vertex, so
    # only J that span no edge are left as cores; those are points, counted
    # without a homology
    path = SimplicialComplex(6, [(i, i + 1) for i in range(5)])
    tree = SimplicialComplex(7, [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5), (5, 6)])
    visited = _recorded_full_subcomplexes(monkeypatch)
    for k in (path, tree):
        visited.clear()
        assert pk_homology(k) == pk_homology_by_subsets(k)
        edges = set(k.faces(1))
        cores = _core_tally([m | 1 << v for v, m in enumerate(k._masks)])
        assert cores
        assert not any(e in edges for c in cores for e in combinations(_bits(c), 2))
        assert visited == []


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


def test_pk_pieces_of_unions_and_joins():
    rp2 = fixture("projective-plane-6")
    for k, sizes in ((join(_cycle(4), _cycle(6)), [1, 1, 1, 1, 6]),
                     (fixture("boundary-16-cell"), [1] * 8),
                     (fixture("join-c10-c10"), [10, 10]),
                     (join(rp2, rp2), [6, 6]),  # complete 1-skeleton: split by the facets
                     (rp2, [6]),
                     (disjoint_union(fixture("torus-7"), _cycle(4)), [1, 1, 1, 1, 7]),
                     (SimplicialComplex(1, [(0,)]), [1]),
                     (SimplicialComplex(0, []), [])):
        assert piece_sizes(pk_pieces(k)) == sizes


def test_pk_pieces_refuse_classes_that_are_no_join(monkeypatch):
    # 0, 1 and {2, 3} are the classes (2, 3 are swapped in two facets), but
    # the facet (2, 3) meets {0} and {1} in nothing: 2 * 2 * 3 traces, not 3
    import flatlink.cubes as cubes_module
    real, classes = cubes_module._classes, []

    def recording(*args):
        classes.append(real(*args))
        return classes[-1]

    monkeypatch.setattr(cubes_module, "_classes", recording)
    k = SimplicialComplex(4, [(0, 1, 2), (0, 1, 3), (2, 3)])
    assert pk_pieces(k) == ("piece", 0b1111, {0b0111, 0b1011, 0b1100}, ())
    assert classes == [[0b1111], [0b0001, 0b0010, 0b1100]]
    assert pk_homology(k) == pk_homology_by_subsets(k)


def test_pk_homology_of_joins_and_unions_pinned():
    # computed over all 2^|I| vertex sets before the split: about 4 s, 2.5 s
    # and 12 s; a Z/2 of rp2 * rp2 comes from Tor alone
    rp2 = fixture("projective-plane-6")
    assert pk_homology(fixture("join-c10-c10")) == HomologyProfile(
        [(1, ()), (3076, ()), (2365446, ()), (3076, ()), (1, ())])
    assert pk_homology(join(rp2, rp2)) == HomologyProfile(
        [(1, ()), (0, ()), (62, (2, 2)), (0, ()), (961, (2,) * 63), (0, (2,)), (0, ())])
    union = disjoint_union(disjoint_union(fixture("torus-7"), rp2),
                           SimplicialComplex(3, [(0, 1, 2)]))
    assert pk_homology(union) == HomologyProfile(
        [(1, ()), (121345, ()), (97280, (2,) * 1024), (512, ())])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pk_homology_of_the_large_workload_input(monkeypatch, seed):
    # join(C4,C6) under a relabelling: four points and one C6, whose only
    # core that is not a set of points is the C6 (51 homologies before the
    # split, 38 cores with an edge if it were lost)
    rng = random.Random(seed)
    perm = list(range(10))
    rng.shuffle(perm)
    k = join(_cycle(4), _cycle(6))
    k = SimplicialComplex(10, [sorted(perm[v] for v in f) for f in k.facets])
    visited = _recorded_full_subcomplexes(monkeypatch)
    assert pk_homology(k) == HomologyProfile([(1, ()), (36, ()), (70, ()), (36, ()), (1, ())])
    assert len(visited) == 1
    assert piece_sizes(pk_pieces(k)) == [1, 1, 1, 1, 6]


def test_pk_f_vector_counts_faces_only_in_the_pieces(monkeypatch):
    f_vector = SimplicialComplex.f_vector

    def pieces_only(self):
        assert self.vertex_count <= 10, "f_vector of a complex that splits"
        return f_vector(self)

    monkeypatch.setattr(SimplicialComplex, "f_vector", pieces_only)
    simplex = SimplicialComplex(24, [tuple(range(24))])  # P_K is the 24-cube
    assert pk_f_vector(simplex) == tuple(comb(24, k) << (24 - k) for k in range(25))
    assert pk_f_vector(fixture("join-c10-c10")) == (
        1048576, 10485760, 31457280, 26214400, 6553600)


def test_pk_f_vector_from_the_pieces_matches_the_whole_f_vector():
    rng = random.Random(47)
    cases = [fixture(name) for name in fixture_names()]
    for _ in range(30):
        a, b, c = (random_complex(rng, 6) for _ in range(3))
        cases += [a, join(a, b), disjoint_union(a, b), join(disjoint_union(a, c), b)]
    for k in cases:
        m = k.vertex_count
        assert pk_f_vector(k) == tuple(f << (m - d) for d, f in enumerate((1,) + k.f_vector()))


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
