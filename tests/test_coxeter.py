"""RACG normal forms against a Tits-style brute-force oracle, Davis balls,
and the forbidden-suspension scan."""

import random
from itertools import combinations
from math import comb

import pytest

from flatlink.complexes import (SimplicialComplex, barycentric_subdivision, clique_complex,
                                has_isolated_squares, scan_nonadjacent_pairs)
from flatlink.coxeter import (Racg, ResourceLimitError, caprace_criterion, davis_ball,
                              racg_from_skeleton)
from flatlink.fixtures import fixture, fixture_names


# -- oracles: see tests/oracles.py -------------------------------------------

from oracles import (all_graphs, brute_force_caprace_witnesses, brute_force_davis_ball,
                     oracle_canonical, oracle_equal, random_flag_complex)


# -- normal form ---------------------------------------------------------------

def test_normal_form_spec_examples():
    g = Racg(2, [])
    assert g.normal_form((0, 0)) == ()
    g2 = Racg(2, [(0, 1)])
    assert g2.normal_form((1, 0)) == (0, 1)
    g3 = Racg(2, [])
    assert g3.normal_form((0, 1, 0)) == (0, 1, 0)


def test_normal_form_needs_more_than_adjacent_bubbling():
    # commuting {0,1} and {1,2}: the class of (2,0,1) is {201, 210, 120};
    # plain descending adjacent swaps stall at 201, the true least is 120
    g = Racg(3, [(0, 1), (1, 2)])
    assert g.normal_form((2, 0, 1)) == (1, 2, 0)


def test_normal_form_matches_oracle_all_racgs_up_to_4_generators():
    rng = random.Random(5)
    for n in (2, 3, 4):
        for edges in all_graphs(n):
            g = Racg(n, edges)
            for _ in range(12):
                word = tuple(rng.randrange(n) for _ in range(rng.randint(0, 6)))
                nf = g.normal_form(word)
                assert nf == oracle_canonical(g, word)
                assert g.normal_form(nf) == nf  # idempotent
                assert len(nf) <= len(word)
                other = tuple(rng.randrange(n) for _ in range(rng.randint(0, 6)))
                assert (g.normal_form(other) == nf) == oracle_equal(g, word, other)
    # random graphs on 5-7 generators of any density: the oracle cancels as
    # soon as its class search meets a pair, so the classes stay small
    for _ in range(30):
        n = rng.randint(5, 7)
        p = rng.uniform(0, 1)
        g = Racg(n, [e for e in combinations(range(n), 2) if rng.random() < p])
        for _ in range(8):
            word = tuple(rng.randrange(n) for _ in range(rng.randint(0, 12)))
            nf = g.normal_form(word)
            assert nf == oracle_canonical(g, word)
            assert g.normal_form(nf) == nf
    # the last 0 cancels the first from behind the commuting run 3, 2, 1
    g = Racg(5, [(0, 1), (0, 2), (0, 3), (1, 2)])
    word = (4, 0, 3, 2, 1, 0)
    assert g.normal_form(word) == oracle_canonical(g, word) == (4, 3, 1, 2)


def test_ball_sizes_c4_grid_growth():
    g = racg_from_skeleton(fixture("c4"))
    assert g.ball_sizes(4) == [1, 4, 8, 12, 16]


def test_ball_sizes_small_groups():
    assert Racg(1, []).ball_sizes(3) == [1, 1, 0]
    assert Racg(2, [(0, 1)]).ball_sizes(3) == [1, 2, 1, 0]
    anygroup = Racg(3, [(0, 1)])
    sizes = anygroup.ball_sizes(1)
    assert sizes[0] == 1 and sizes[1] == 3


def test_ball_sizes_against_brute_force_closure():
    rng = random.Random(9)
    graphs = [edges for n in (2, 3, 4) for edges in all_graphs(n)]
    # plus a couple of 5- and 6-vertex graphs
    for n in (5, 6):
        pairs = list(combinations(range(n), 2))
        for _ in range(2):
            graphs.append([p for p in pairs if rng.random() < 0.5])
    for edges in graphs:
        n = max((max(e) for e in edges), default=3) + 1 if edges else 4
        g = Racg(n, edges)
        # brute force: close the ball under right multiplication, classify
        # elements by the oracle's canonical form
        elements = {(): 0}
        frontier = [()]
        for radius in range(1, 4):
            nxt = []
            for w in frontier:
                for s in range(n):
                    canon = oracle_canonical(g, w + (s,))
                    if canon not in elements:
                        elements[canon] = radius
                        nxt.append(canon)
            frontier = nxt
        by_radius = [sum(1 for r in elements.values() if r == k) for k in range(4)]
        assert g.ball_sizes(3) == by_radius


# -- Davis balls ------------------------------------------------------------------

def test_davis_ball_radius_zero():
    k = fixture("c4")
    b = davis_ball(racg_from_skeleton(k), k, 0)
    assert b.f_vector() == (1,)
    assert len(b.cells) == 0


def test_davis_ball_edge_group_is_single_square():
    k = SimplicialComplex(2, [(0, 1)])
    b = davis_ball(racg_from_skeleton(k), k, 2)
    assert b.f_vector() == (4, 4, 1)


def test_davis_ball_c4_radius_2_grid():
    k = fixture("c4")
    b = davis_ball(racg_from_skeleton(k), k, 2)
    assert len(b.vertices) == 13
    assert b.interior_vertices() == [()]


def test_davis_ball_interior_links_radius_3():
    # an interior vertex's cells span a link equal to K itself
    k = fixture("c4")
    group = racg_from_skeleton(k)
    ball, ref = davis_ball(group, k, 3), brute_force_davis_ball(group, k, 3)
    assert ball.cells == ref.cells
    interior = ball.interior_vertices()
    assert () in interior and len(interior) == 5
    for v in interior:
        assert ref.links[v] == list(k.facets)


def _assert_davis_ball_matches_oracle(k, radius):
    group = racg_from_skeleton(k)
    ball = davis_ball(group, k, radius)
    ref = brute_force_davis_ball(group, k, radius)
    assert ball.cells == ref.cells
    assert ball.vertices == ref.vertices
    assert ball.interior_vertices() == ref.interior
    for g, descents in group.ball(radius).items():
        assert descents == {
            s for s in range(group.n) if len(group.normal_form(g + (s,))) < len(g)}
    return ball


@pytest.mark.parametrize("name,radius", [("c4", r) for r in range(7)] + [
    ("octahedron", 3), ("suspension-3-points", 4), ("boundary-16-cell", 3),
    ("join-c6-c6", 1)])
def test_davis_ball_matches_brute_force_oracle(name, radius):
    _assert_davis_ball_matches_oracle(fixture(name), radius)


def test_davis_ball_single_simplex_top_element_is_interior():
    # W_K is (Z/2)^3, finite: its top element has every generator as a descent
    k = SimplicialComplex(3, [(0, 1, 2)])
    for radius in range(5):
        ball = _assert_davis_ball_matches_oracle(k, radius)
        assert ((0, 1, 2) in ball.interior_vertices()) == (radius >= 3)


def test_davis_ball_matches_brute_force_oracle_random_flag_complexes():
    rng = random.Random(41)
    for _ in range(30):
        _assert_davis_ball_matches_oracle(random_flag_complex(rng, max_vertices=7),
                                          rng.randint(0, 3))


def test_davis_ball_bound_stops_the_search_early(monkeypatch):
    k = fixture("boundary-16-cell")
    group = racg_from_skeleton(k)
    calls = []
    original = Racg.normal_form

    def counting(self, word):
        calls.append(word)
        return original(self, word)

    monkeypatch.setattr(Racg, "normal_form", counting)
    with pytest.raises(ResourceLimitError, match="bound"):
        davis_ball(group, k, 6, max_vertices=10)
    assert len(calls) <= 300


def test_davis_ball_rejects_negative_radius():
    k = fixture("c4")
    with pytest.raises(ValueError):
        davis_ball(racg_from_skeleton(k), k, -1)


def test_finite_group_ball_stops_at_the_first_empty_sphere():
    # W_K of a triangle is (Z/2)^3: 8 elements, none longer than 3
    k = SimplicialComplex(3, [(0, 1, 2)])
    group = racg_from_skeleton(k)
    assert group.ball(100000) == group.ball(3) and len(group.ball(3)) == 8
    ball = davis_ball(group, k, 100000, max_vertices=100001)
    assert ball.f_vector() == (8, 12, 6, 1)


def test_davis_ball_refuses_a_radius_not_below_the_bound(monkeypatch):
    # refused for every group: an infinite one has more than r vertices within radius r
    k = SimplicialComplex(1, [(0,)])
    group = racg_from_skeleton(k)
    assert len(davis_ball(group, k, 9, max_vertices=10).vertices) == 2
    monkeypatch.setattr(Racg, "ball", lambda *args, **kwargs: pytest.fail("BFS ran"))
    with pytest.raises(ResourceLimitError,
                       match="^radius 10 is not below the bound of 10 vertices$"):
        davis_ball(group, k, 10, max_vertices=10)


@pytest.mark.parametrize("radius", [0, 1, 3])
def test_davis_ball_lists_faces_only_below_the_radius(radius, monkeypatch):
    # a simplex on 26 vertices, whose faces of every dimension are too many to list
    k = SimplicialComplex(26, [tuple(range(26))])
    group = racg_from_skeleton(k)
    faces = SimplicialComplex.faces

    def bounded(self, d):
        assert d < radius, "faces of dimension %d listed at radius %d" % (d, radius)
        return faces(self, d)

    monkeypatch.setattr(SimplicialComplex, "faces", bounded)
    ball = davis_ball(group, k, radius)
    # (Z/2)^26: a cell is a pair of disjoint sets, w and a face J, with |w| + |J| <= r
    assert ball.f_vector() == tuple(
        comb(26, d) * sum(comb(26 - d, j) for j in range(radius - d + 1))
        for d in range(radius + 1))


# -- forbidden suspensions -----------------------------------------------------------

def test_caprace_suspension_of_3_points_fails():
    report = caprace_criterion(fixture("suspension-3-points"))
    assert not report.passes
    assert report.witness == ((0, 1, 2, 3, 4), "3-points")
    assert report.count == 1


def test_caprace_suspension_of_edge_point_fails():
    report = caprace_criterion(fixture("suspension-edge-point"))
    assert not report.passes
    assert report.witness[1] == "edge-point"
    assert report.count == 1


def test_caprace_passes_octahedron_and_16_cell():
    assert caprace_criterion(fixture("octahedron")).passes
    assert caprace_criterion(fixture("boundary-16-cell")).passes


def test_caprace_witness_is_full_forbidden_subcomplex():
    k = fixture("sd-boundary-4-simplex")
    report = caprace_criterion(k)
    assert not report.passes  # subdivisions are full of suspensions
    assert report.count == 280
    verts, kind = report.witness
    degree3 = [v for v in verts
               if len(set(verts) & k.neighbors(v)) == 3]
    assert len(degree3) >= 2, (verts, kind)


def _random_2_complex(rng, n):
    """Random triangles and edges on n vertices: rarely flag, so a triangle
    puv can be present while quv is missing."""
    triangles = [t for t in combinations(range(n), 3) if rng.random() < 0.3]
    covered = {e for t in triangles for e in combinations(t, 2)}
    edges = [e for e in combinations(range(n), 2) if e not in covered and rng.random() < 0.3]
    used = {v for f in triangles + edges for v in f}
    return SimplicialComplex(n, triangles + edges + [(v,) for v in range(n) if v not in used])


def test_caprace_witnesses_match_five_subset_oracle():
    cases = [(name, fixture(name)) for name in fixture_names()
             if fixture(name).vertex_count <= 20]
    rng = random.Random(41)
    cases += [("random flag %d" % i, random_flag_complex(rng)) for i in range(30)]
    cases += [("random 2-complex %d" % i, _random_2_complex(rng, rng.randint(5, 9)))
              for i in range(30)]
    kinds = set()
    for name, k in cases:
        report = caprace_criterion(k)
        oracle = brute_force_caprace_witnesses(k)
        assert report.passes == (not oracle), name
        assert (report.count, report.witness) == (len(oracle), oracle[0] if oracle else None), name
        if oracle:
            kinds.add(report.witness[1])
    assert kinds == {"3-points", "edge-point"}


@pytest.mark.parametrize("name, squares, witnesses", [
    ("sd-boundary-4-simplex", 6480, 20160), ("join-c10-c10", 6600, 30000)])
def test_pair_scan_on_second_subdivisions(name, squares, witnesses):
    # past the reach of the 5-subset oracle: each 5-set is found from one
    # pair only, so the count repeats nothing
    k = barycentric_subdivision(fixture(name))
    scan = scan_nonadjacent_pairs(k)
    assert (len(scan.squares), scan.caprace_witness_count) == (squares, witnesses)
    assert all(a < b for a, b in zip(scan.squares, scan.squares[1:]))
    five, kind = scan.caprace_witness
    assert list(five) == sorted(set(five)) and len(five) == 5
    edges = sum(k.has_face(e) for e in combinations(five, 2))
    assert edges == {"3-points": 6, "edge-point": 7}[kind], (five, kind)


def test_isolated_squares_imply_caprace_on_corpus():
    for name in ("c4", "two-squares-disjoint", "600-cell", "boundary-4-simplex",
                 "octahedron", "boundary-16-cell", "sd-boundary-4-simplex",
                 "torus-7", "projective-plane-6", "s2-x-s1"):
        k = fixture(name)
        if has_isolated_squares(scan_nonadjacent_pairs(k).squares).has_isolated_squares:
            assert caprace_criterion(k).passes, name


def test_isolated_squares_imply_caprace_random_sample():
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randint(4, 12)
        p = rng.uniform(0.15, 0.85)
        edges = [e for e in combinations(range(n), 2) if rng.random() < p]
        k = clique_complex(n, edges)
        if has_isolated_squares(scan_nonadjacent_pairs(k).squares).has_isolated_squares:
            assert caprace_criterion(k).passes
