"""Diagrams, edge-cycle links, the two linking-number methods, and the
obstruction decision table."""

import pytest

from flatlink.complexes import SimplicialComplex
from flatlink.fixtures import fixture, hopf_pair, split_pair, verify_type_l
from flatlink.homology import check_hypotheses
from flatlink.links import (EdgeCycleLink, LinkingMatrix, ObstructionVerdict,
                            PlanarDiagram, diagram_linking_matrix, linking_matrix,
                            obstruction_report)

from oracles import (brunnian_diagram, hopf_diagram, simplicial_linking_number,
                     solomon_diagram, subdivide_link, subdivision_face_map,
                     three_chain_133_diagram, whitehead_diagram, whitehead_double_diagram)


# -- edge cycle links ---------------------------------------------------------

def test_edge_cycle_link_validation():
    c16 = fixture("boundary-16-cell")
    with pytest.raises(ValueError, match="non-edge"):
        EdgeCycleLink(c16, [(0, 1, 2)])  # 0-1 antipodal: not an edge
    with pytest.raises(ValueError, match=">= 3"):
        EdgeCycleLink(c16, [(0, 2)])
    with pytest.raises(ValueError, match="share vertex"):
        EdgeCycleLink(c16, [(0, 2, 4), (0, 3, 5)])
    with pytest.raises(ValueError, match="orientation"):
        EdgeCycleLink(c16, [(0, 2, 4)], orientations=(1, 1))


def test_edge_cycle_link_json_roundtrip():
    ambient, link = hopf_pair()
    data = link.to_json()
    back = EdgeCycleLink.from_json(ambient, data)
    assert back.components == link.components
    assert back.orientations == link.orientations


def _square_link(name):
    """The square-link of a fixture, built from its squares as ``obstruct`` does."""
    return verify_type_l(fixture(name), LinkingMatrix([])).square_link


def test_link_from_squares_c4():
    assert _square_link("c4").components == ((0, 1, 2, 3),)


def test_link_from_squares_two_squares():
    assert len(_square_link("two-squares-disjoint")) == 2


def test_link_from_squares_16_cell_overlap_names_vertex():
    assert _square_link("boundary-16-cell") is None
    checks = check_hypotheses(fixture("boundary-16-cell")).checks
    assert checks["isolated_offending_vertex"] == 0


def test_link_from_squares_600_cell_empty():
    assert len(_square_link("600-cell")) == 0


# -- planar diagrams -----------------------------------------------------------

def test_diagram_validation():
    with pytest.raises(ValueError, match="component out of range"):
        PlanarDiagram(2, [(0, 2, 1)], [[0], [0]])
    with pytest.raises(ValueError, match="sign"):
        PlanarDiagram(2, [(0, 1, 2)], [[0], [0]])
    with pytest.raises(ValueError, match="visited once by each strand"):
        PlanarDiagram(2, [(0, 1, 1)], [[0, 0], [0]])
    with pytest.raises(ValueError, match="traversal order"):
        PlanarDiagram(2, [(0, 1, 1)], [[0]])


def test_diagram_odd_sign_sum_rejected():
    d = PlanarDiagram(2, [(0, 1, 1), (1, 0, 1), (0, 1, 1)],
                      [[0, 1, 2], [0, 1, 2]])
    with pytest.raises(ValueError, match="odd"):
        diagram_linking_matrix(d)


def test_diagram_fixture_linking_numbers():
    assert diagram_linking_matrix(hopf_diagram()).entries[0][1] == 1
    assert diagram_linking_matrix(solomon_diagram()).entries[0][1] == 2
    assert diagram_linking_matrix(whitehead_diagram()).entries[0][1] == 0
    m = diagram_linking_matrix(three_chain_133_diagram())
    assert sorted(abs(x) for x in m.off_diagonal()) == [1, 3, 3]


def test_brunnian_diagrams_all_zero():
    for m in (3, 4, 5):
        matrix = diagram_linking_matrix(brunnian_diagram(m))
        assert matrix.m == m
        assert all(x == 0 for x in matrix.off_diagonal())
    with pytest.raises(ValueError):
        brunnian_diagram(2)


def test_borromean_is_the_three_component_brunnian():
    d = brunnian_diagram(3)
    inter = [(o, u, s) for o, u, s in d.crossings if o != u]
    assert len(inter) == 6  # each pair crosses twice with cancelling signs
    assert all(x == 0 for x in diagram_linking_matrix(d).off_diagonal())


def test_whitehead_double_diagrams():
    for m, twists in ((3, 2), (3, 0), (4, 2), (3, -2)):
        matrix = diagram_linking_matrix(whitehead_double_diagram(m, twists))
        assert all(x == 0 for x in matrix.off_diagonal())
    with pytest.raises(ValueError, match="even"):
        whitehead_double_diagram(3, 1)
    with pytest.raises(ValueError):
        whitehead_double_diagram(2, 2)


# -- linking matrix and obstruction table ---------------------------------------

def test_linking_matrix_validation():
    with pytest.raises(ValueError, match="symmetric"):
        LinkingMatrix([[0, 1], [2, 0]])
    with pytest.raises(ValueError, match="diagonal"):
        LinkingMatrix([[1, 0], [0, 0]])
    with pytest.raises(ValueError, match="square"):
        LinkingMatrix([[0, 1]])
    for bad in ([[0, "1"], ["1", 0]], [[0, True], [True, 0]], [[0, 1.0], [1.0, 0]],
                [0], 5):
        with pytest.raises(ValueError, match="integers"):
            LinkingMatrix(bad)


def test_linking_matrix_equivalence():
    a = LinkingMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    b = LinkingMatrix([[0, 0, 0], [0, 0, -1], [0, -1, 0]])
    assert a.equivalent_to(b)
    assert not a.equivalent_to(LinkingMatrix([[0, 2, 0], [2, 0, 0], [0, 0, 0]]))


def test_obstruction_decision_table():
    r1 = obstruction_report(LinkingMatrix([[0, 2], [2, 0]]))
    assert r1.verdict == ObstructionVerdict.LINKING_OBSTRUCTION

    zero3 = LinkingMatrix([[0] * 3 for _ in range(3)])
    r2 = obstruction_report(zero3)
    assert r2.verdict == ObstructionVerdict.ZERO_MATRIX_NEEDS_CERTIFICATE
    r2c = obstruction_report(zero3, nontrivial_certificate=True)
    assert r2c.verdict == ObstructionVerdict.LINKING_OBSTRUCTION

    mixed = LinkingMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    r3 = obstruction_report(mixed)
    assert r3.verdict == ObstructionVerdict.MIXED_NEEDS_ISOTOPY_CHECK
    r3c = obstruction_report(mixed, nontrivial_certificate=True)
    assert r3c.verdict == ObstructionVerdict.LINKING_OBSTRUCTION

    r4 = obstruction_report(LinkingMatrix([[0, 1], [1, 0]]))
    assert r4.verdict == ObstructionVerdict.NO_OBSTRUCTION_DETECTED


def test_obstruction_magnitude_beats_later_rules():
    m = LinkingMatrix([[0, 2, 0], [2, 0, 0], [0, 0, 0]])
    assert obstruction_report(m).verdict == ObstructionVerdict.LINKING_OBSTRUCTION


def test_obstruction_empty_matrix_is_vacuous():
    rep = obstruction_report(LinkingMatrix([]))
    assert rep.verdict == ObstructionVerdict.NO_OBSTRUCTION_DETECTED
    assert "vacuous" in rep.explanation


def test_obstruction_rejects_asymmetric_input():
    with pytest.raises(ValueError):
        obstruction_report([[0, 1], [2, 0]])


# -- simplicial linking numbers ---------------------------------------------------

def test_hopf_pair_links_once():
    ambient, link = hopf_pair()
    value = simplicial_linking_number(ambient, link, 0, 1)
    assert abs(value) == 1
    # matches the diagram method up to the documented global sign
    assert abs(value) == abs(diagram_linking_matrix(hopf_diagram()).entries[0][1])


def test_split_pair_links_zero():
    ambient, link = split_pair()
    assert simplicial_linking_number(ambient, link, 0, 1) == 0
    assert simplicial_linking_number(ambient, link, 1, 0) == 0


def test_linking_symmetric_under_argument_swap():
    ambient, link = hopf_pair()
    assert (simplicial_linking_number(ambient, link, 0, 1)
            == simplicial_linking_number(ambient, link, 1, 0))


def test_linking_matrix_hopf_with_symmetry_check():
    ambient, link = hopf_pair()
    matrix = linking_matrix(ambient, link)
    assert matrix.entries[0][1] in (1, -1)
    assert matrix.entries[0][0] == matrix.entries[1][1] == 0


def test_component_orientation_reversal_negates():
    ambient, link = hopf_pair()
    base = simplicial_linking_number(ambient, link, 0, 1)
    for orientations in ((-1, 1), (1, -1)):
        flipped = EdgeCycleLink(ambient, link.components, orientations)
        assert simplicial_linking_number(ambient, flipped, 0, 1) == -base


def test_ambient_orientation_reversal_negates():
    ambient, link = hopf_pair()
    from flatlink.homology import is_homology_3sphere
    orientation = is_homology_3sphere(ambient).manifold.orientation
    flipped = {f: -s for f, s in orientation.items()}
    base = linking_matrix(ambient, link, orientation=orientation)
    neg = linking_matrix(ambient, link, orientation=flipped)
    assert neg == base.negated()


def test_single_component_matrix_is_zero():
    c16 = fixture("boundary-16-cell")
    link = EdgeCycleLink(c16, [(0, 2, 1, 3)])
    assert linking_matrix(c16, link) == LinkingMatrix([[0]])


def test_linking_requires_homology_sphere():
    t7 = fixture("torus-7")  # a 2-complex: manifold check raises
    link = EdgeCycleLink(t7, [(0, 1, 2)])
    with pytest.raises(ValueError):
        simplicial_linking_number(t7, link, 0, 0)
    s2s1 = fixture("s2-x-s1")
    comps = [(0, 1, 2)]
    link2 = EdgeCycleLink(s2s1, comps)
    with pytest.raises(ValueError, match="homology 3-sphere"):
        linking_matrix(s2s1, link2)


def test_linking_rejects_equal_indices():
    ambient, link = hopf_pair()
    with pytest.raises(ValueError):
        simplicial_linking_number(ambient, link, 1, 1)


def test_subdivision_invariance_of_hopf_matrix():
    ambient, link = hopf_pair()
    base = linking_matrix(ambient, link)
    sd_ambient, sd_link = subdivide_link(ambient, link)
    assert sd_ambient.vertex_count == 8 + 24 + 32 + 16
    carried = linking_matrix(sd_ambient, sd_link)
    assert carried == base


def test_split_pair_subdivision_invariance():
    ambient, link = split_pair()
    sd_ambient, sd_link = subdivide_link(ambient, link)
    assert linking_matrix(sd_ambient, sd_link) == LinkingMatrix([[0, 0], [0, 0]])


def test_hopf_in_join_of_triangles():
    # S^3 as the join of two triangle boundaries: the factor cycles link once
    tri = SimplicialComplex(3, [(0, 1), (0, 2), (1, 2)])
    from flatlink.complexes import join
    ambient = join(tri, tri)
    link = EdgeCycleLink(ambient, [(0, 1, 2), (3, 4, 5)])
    assert abs(simplicial_linking_number(ambient, link, 0, 1)) == 1


def test_solver_aborts_loudly_when_ambient_is_not_a_sphere():
    # bypass the verifier with a genuine orientation of S^2 x S^1: the
    # complement of a fiber circle has H_1 = Z but the meridian is
    # null-homologous, so the multiple is undefined and must abort
    from flatlink.homology import is_closed_orientable_3manifold
    from flatlink.links import LinkingInternalError
    s2s1 = fixture("s2-x-s1")
    orientation = is_closed_orientable_3manifold(s2s1).orientation
    link = EdgeCycleLink(s2s1, [(0, 1, 2), (9, 10, 11)])
    with pytest.raises(LinkingInternalError):
        linking_matrix(s2s1, link, orientation=orientation)


def test_mixed_configuration_hopf_plus_bounding_triangle():
    # carried Hopf pair in the subdivided 16-cell, plus the boundary of a
    # subdivision triangle (an edge-in-triangle-in-tetrahedron chain) away
    # from both components: linking matrix mixes +-1 and 0, the
    # configuration needing an isotopy certificate
    from flatlink.complexes import barycentric_subdivision
    from flatlink.links import ObstructionVerdict, obstruction_report
    ambient, hopf = hopf_pair()
    sd, face_map = barycentric_subdivision(ambient), subdivision_face_map(ambient)
    sd_hopf_comps = []
    for comp in hopf.components:
        carried = []
        for k in range(len(comp)):
            u, v = comp[k], comp[(k + 1) % len(comp)]
            carried.append(face_map[(u,)])
            carried.append(face_map[tuple(sorted((u, v)))])
        sd_hopf_comps.append(tuple(carried))
    triangle = (face_map[(0, 4)], face_map[(0, 2, 4)], face_map[(0, 2, 4, 6)])
    link = EdgeCycleLink(sd, sd_hopf_comps + [triangle])
    matrix = linking_matrix(sd, link)
    off = {(i, j): matrix.entries[i][j] for i in range(3) for j in range(i + 1, 3)}
    assert abs(off[(0, 1)]) == 1
    assert off[(0, 2)] == 0 and off[(1, 2)] == 0
    assert (obstruction_report(matrix).verdict
            == ObstructionVerdict.MIXED_NEEDS_ISOTOPY_CHECK)
    assert (obstruction_report(matrix, nontrivial_certificate=True).verdict
            == ObstructionVerdict.LINKING_OBSTRUCTION)


def test_full_complement_route_matches_second_subdivision_oracle():
    # the route stars exactly the chords and spanned triangles of the
    # components; the second-subdivision oracle never looks at fullness
    from itertools import product

    from flatlink.complexes import barycentric_subdivision
    from flatlink.fixtures import solomon_pair
    from flatlink.links import _Complements
    from oracles import second_subdivision_linking_matrix

    def starred(ambient, link):
        return _Complements(ambient, link).starred

    def join_chords(cycle):
        # each Solomon zigzag visits every other vertex of both 10-gons, so
        # it spans no edge inside a factor: its chords are its cross pairs
        # that are not cycle steps
        steps = {tuple(sorted(e)) for e in zip(cycle, cycle[1:] + cycle[:1])}
        pairs = product(sorted(v for v in cycle if v < 10), sorted(v for v in cycle if v >= 10))
        return tuple(e for e in pairs if e not in steps)

    c66 = fixture("join-c6-c6")
    fibers = (c66, EdgeCycleLink(c66, [(k, 6 + k, k + 3, 9 + k) for k in range(3)]))
    solomon = solomon_pair()
    solomon_chords = sum(map(join_chords, solomon[1].components), ())
    assert len(solomon_chords) == 30
    cases = [(hopf_pair(), ()), (fibers, ()), (split_pair(), ((0, 2, 4), (1, 3, 7))),
             (solomon, solomon_chords)]
    for (ambient, link), expected in cases:
        assert starred(ambient, link) == expected
        assert (linking_matrix(ambient, link)
                == second_subdivision_linking_matrix(ambient, link))
    assert len(_Complements(*solomon).facets_signed) == 260

    ambient, hopf = hopf_pair()
    sd, face_map = barycentric_subdivision(ambient), subdivision_face_map(ambient)
    _, sd_hopf = subdivide_link(ambient, hopf)
    triangle = (face_map[(0, 4)], face_map[(0, 2, 4)], face_map[(0, 2, 4, 6)])
    assert starred(sd, EdgeCycleLink(sd, list(sd_hopf.components) + [triangle])) == (triangle,)


def test_meridian_matches_the_edge_link_walk():
    # the solver adds one step per tetrahedron through the edge; the oracle
    # walks the edge link from the least tetrahedron's step
    from flatlink.fixtures import solomon_pair
    from flatlink.homology import is_homology_3sphere
    from flatlink.links import _Complements, _cycle_chain, _meridian, _skeleton
    from oracles import _edge_link_cycle

    ambients = [sorted(is_homology_3sphere(fixture(name)).manifold.orientation.items())
                for name in ("boundary-16-cell", "600-cell", "join-c6-c6", "join-c10-c10",
                             "sd-boundary-4-simplex")]
    ambients += [_Complements(*pair).facets_signed
                 for pair in (solomon_pair(), hopf_pair(), split_pair())]
    count = 0
    for facets_signed in ambients:
        for a, b in sorted(_skeleton(facets_signed)[0]):
            for edge in ((a, b), (b, a)):
                walked = _cycle_chain(_edge_link_cycle(facets_signed, *edge))
                assert _meridian(facets_signed, *edge) == walked, edge
                count += 1
    assert count == 2860


def test_an_inconsistent_orientation_is_refused():
    # every tetrahedron through (0, 2) is read: a walk that reads only the
    # least one's sign returns [[0, 1], [1, 0]] with the largest one flipped
    from flatlink.homology import is_homology_3sphere
    from flatlink.links import _meridian
    ambient, link = hopf_pair()
    orientation = is_homology_3sphere(ambient).manifold.orientation
    with pytest.raises(ValueError, match=r"^\(0,1\) is not an edge of the ambient complex$"):
        _meridian(sorted(orientation.items()), 0, 1)
    largest = max(f for f in orientation if 0 in f and 2 in f)
    flipped = dict(orientation)
    flipped[largest] = -flipped[largest]
    with pytest.raises(ValueError, match=r"^meridian of \(0,2\) is not a cycle: "
                       r"inconsistent orientation$"):
        linking_matrix(ambient, link, orientation=flipped)


def test_an_edge_link_of_two_circles_is_refused():
    # two boundary-16-cells glued along the edge (0, 2): its link is two
    # circles, one in each copy, and the steps of both close up.  The copies
    # share no triangle, so the manifold check orients neither of them; each
    # copy takes the 16-cell's certified orientation through its relabelling
    from flatlink.complexes import _parity
    from flatlink.homology import is_closed_orientable_3manifold
    ambient, _ = hopf_pair()
    copy = {v: 8 + i for i, v in enumerate(v for v in range(8) if v not in (0, 2))}
    copy.update({0: 0, 2: 2})
    certified = is_closed_orientable_3manifold(ambient).orientation
    orientation = dict(certified)
    for f, s in certified.items():
        image = tuple(copy[v] for v in f)
        orientation[tuple(sorted(image))] = s * _parity(image)
    glued = SimplicialComplex(14, sorted(orientation))
    assert is_closed_orientable_3manifold(glued).orientation is None
    link = EdgeCycleLink(glued, [(0, 2, 1, 3), (4, 6, 5, 7)])
    with pytest.raises(ValueError, match=r"^edge link of \(0,2\) is not a single circle$"):
        linking_matrix(glued, link, orientation=orientation)
