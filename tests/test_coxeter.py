"""RACG normal forms against a Tits-style brute-force oracle, Davis balls,
flats, and the forbidden-suspension scan."""

import random
from itertools import combinations

import pytest

from flatlink.complexes import (SimplicialComplex, clique_complex, find_squares,
                                has_isolated_squares, is_isomorphic)
from flatlink.coxeter import (Racg, ResourceLimitError, caprace_criterion, davis_ball,
                              flat_from_square, racg_from_skeleton)
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


def test_ball_sizes_c4_grid_growth():
    g = racg_from_skeleton(fixture("c4"))
    assert g.ball_sizes(4) == [1, 4, 8, 12, 16]


def test_ball_sizes_small_groups():
    assert Racg(1, []).ball_sizes(3) == [1, 1, 0, 0]
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
    assert b.vertex_link(()) == k


def test_davis_ball_boundary_vertex_link_is_relabelled():
    k = fixture("c4")
    b = davis_ball(racg_from_skeleton(k), k, 2)
    # (0, 3) has length r: only the J inside D_R = {0, 3} keep their cells,
    # one edge, relabelled 0 -> 0 and 3 -> 1
    assert b.vertex_link((0, 3)) == SimplicialComplex(2, [(0, 1)])
    assert b.vertex_link((0,)) == SimplicialComplex(4, [(2,), (0, 1), (0, 3)])
    assert davis_ball(racg_from_skeleton(k), k, 1).vertex_link((0,)) == \
        SimplicialComplex(1, [(0,)])
    with pytest.raises(ValueError, match=r"\(0, 2, 0\)"):
        b.vertex_link((0, 2, 0))


def test_davis_ball_interior_links_radius_3():
    k = fixture("c4")
    b = davis_ball(racg_from_skeleton(k), k, 3)
    interior = b.interior_vertices()
    assert () in interior and len(interior) == 5
    for v in interior:
        link = b.vertex_link(v)
        assert is_isomorphic(link, k) is not None


def _assert_davis_ball_matches_oracle(k, radius):
    group = racg_from_skeleton(k)
    ball = davis_ball(group, k, radius)
    ref = brute_force_davis_ball(group, k, radius)
    assert ball.cells == ref.cells
    assert ball.vertices == ref.vertices
    assert ball.interior_vertices() == ref.interior
    for g in ball.vertices:
        assert group.right_descents(g) == {
            s for s in range(group.n) if len(group.normal_form(g + (s,))) < len(g)}
        # boundary links miss generators: relabel onto the covered ones
        covered = sorted({v for J in ref.links[g] for v in J})
        index = {v: i for i, v in enumerate(covered)}
        assert ball.vertex_link(g) == SimplicialComplex(
            len(covered), [tuple(index[v] for v in J) for J in ref.links[g]])
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


def test_flat_from_square_c4_is_everything():
    k = fixture("c4")
    b = davis_ball(racg_from_skeleton(k), k, 2)
    flat = flat_from_square(b, (0, 1, 2, 3), ())
    assert set(flat.cells) == set(b.cells)
    assert flat.translate == ()


def test_flat_from_square_16_cell_patch():
    k = fixture("boundary-16-cell")
    b = davis_ball(racg_from_skeleton(k), k, 1)
    square = find_squares(k)[0]
    flat = flat_from_square(b, square, ())
    assert flat.cells  # a nonempty 2-dimensional patch
    members = set(square.cycle)
    for _, J in flat.cells:
        assert set(J) <= members and len(J) <= 2


def test_flat_interior_link_is_4_cycle():
    k = fixture("c4")
    b = davis_ball(racg_from_skeleton(k), k, 2)
    flat = flat_from_square(b, (0, 1, 2, 3), ())
    # interior vertex of the flat: the center; its link in the flat
    two_cells = [c for c in flat.cells if len(c[1]) == 2]
    assert len(two_cells) == 4  # the four grid squares around the center
    flat_complex = SimplicialComplex(4, sorted({J for _, J in flat.cells if len(J) == 2}))
    assert flat_complex == k


def test_flat_rejects_non_square():
    k = fixture("boundary-4-simplex")
    b = davis_ball(racg_from_skeleton(k), k, 1)
    with pytest.raises(ValueError):
        flat_from_square(b, (0, 1, 2, 3), ())


# -- forbidden suspensions -----------------------------------------------------------

def test_caprace_suspension_of_3_points_fails():
    report = caprace_criterion(fixture("suspension-3-points"))
    assert not report.passes
    assert report.witnesses == (((0, 1, 2, 3, 4), "3-points"),)


def test_caprace_suspension_of_edge_point_fails():
    report = caprace_criterion(fixture("suspension-edge-point"))
    assert not report.passes
    assert report.witnesses[0][1] == "edge-point"


def test_caprace_passes_octahedron_and_16_cell():
    assert caprace_criterion(fixture("octahedron")).passes
    assert caprace_criterion(fixture("boundary-16-cell")).passes


def test_caprace_witness_is_full_forbidden_subcomplex():
    k = fixture("sd-boundary-4-simplex")
    report = caprace_criterion(k)
    assert not report.passes  # subdivisions are full of suspensions
    for verts, kind in report.witnesses[:10]:
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
    for name, k in cases:
        assert caprace_criterion(k).witnesses == brute_force_caprace_witnesses(k), name
    kinds = {kind for _, k in cases for _, kind in caprace_criterion(k).witnesses}
    assert kinds == {"3-points", "edge-point"}


def test_isolated_squares_imply_caprace_on_corpus():
    for name in ("c4", "two-squares-disjoint", "600-cell", "boundary-4-simplex",
                 "octahedron", "boundary-16-cell", "sd-boundary-4-simplex",
                 "torus-7", "projective-plane-6", "s2-x-s1"):
        k = fixture(name)
        if has_isolated_squares(k).has_isolated_squares:
            assert caprace_criterion(k).passes, name


def test_isolated_squares_imply_caprace_random_sample():
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randint(4, 12)
        p = rng.uniform(0.15, 0.85)
        edges = [e for e in combinations(range(n), 2) if rng.random() < p]
        k = clique_complex(n, edges)
        if has_isolated_squares(k).has_isolated_squares:
            assert caprace_criterion(k).passes
