"""Diagrams, edge-cycle links, the two linking-number methods, and the
obstruction decision table."""

import pytest

from flatlink.complexes import SimplicialComplex
from flatlink.fixtures import check_hypotheses, fixture, hopf_pair, split_pair, verify_type_l
from flatlink.links import (EdgeCycleLink, LinkingMatrix, ObstructionVerdict,
                            PlanarDiagram, brunnian_diagram, diagram_linking_matrix,
                            hopf_diagram, linking_matrix,
                            obstruction_report, simplicial_linking_number,
                            solomon_diagram, subdivide_link, three_chain_133_diagram,
                            whitehead_diagram, whitehead_double_diagram)


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
    sd, face_map = barycentric_subdivision(ambient, return_face_map=True)
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
    # the route subdivides only when some component is not full; the
    # second-subdivision oracle never looks at fullness
    from flatlink.complexes import barycentric_subdivision
    from flatlink.fixtures import solomon_pair
    from flatlink.links import _Complements
    from oracles import second_subdivision_linking_matrix

    def level(ambient, link):
        return _Complements(ambient, link).level

    c66 = fixture("join-c6-c6")
    fibers = (c66, EdgeCycleLink(c66, [(k, 6 + k, k + 3, 9 + k) for k in range(3)]))
    cases = [(hopf_pair(), 0), (fibers, 0), (split_pair(), 1), (solomon_pair(), 1)]
    for (ambient, link), expected_level in cases:
        assert level(ambient, link) == expected_level
        assert (linking_matrix(ambient, link)
                == second_subdivision_linking_matrix(ambient, link))

    ambient, hopf = hopf_pair()
    sd, face_map = barycentric_subdivision(ambient, return_face_map=True)
    _, sd_hopf = subdivide_link(ambient, hopf)
    triangle = (face_map[(0, 4)], face_map[(0, 2, 4)], face_map[(0, 2, 4, 6)])
    assert level(sd, EdgeCycleLink(sd, list(sd_hopf.components) + [triangle])) == 1
