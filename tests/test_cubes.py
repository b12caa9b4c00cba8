"""Mirror cubulation: f-vectors, vertex links, torus subcomplexes, homology."""

import pytest

from flatlink.complexes import SimplicialComplex, find_squares, is_isomorphic
from flatlink.cubes import (CubicalCell, CubicalComplex, GroundSetTooLarge, build_pk,
                            cubical_chain_complex, pk_vertex_link, torus_subcomplex,
                            verify_vertex_links)
from flatlink.fixtures import fixture
from flatlink.homology import HomologyProfile, IntegerMatrix, homology


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
        for f in k.all_faces():
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
    assert cc.boundary(1).to_dense() == [[1], [-1]]


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
    for name in ("c4", "octahedron", "boundary-4-simplex", "boundary-16-cell"):
        k = fixture(name)
        p = build_pk(k)
        assert verify_vertex_links(p, k)
    point = SimplicialComplex(1, [(0,)])
    assert verify_vertex_links(build_pk(point), point)
    edge = SimplicialComplex(2, [(0, 1)])
    assert verify_vertex_links(build_pk(edge), edge)


def test_vertex_link_identity_witness():
    k = fixture("c4")
    p = build_pk(k)
    link = pk_vertex_link(p, 9)
    witness = is_isomorphic(link, k)
    assert witness is not None and witness.mapping == (0, 1, 2, 3)


def test_vertex_link_rejects_foreign_vertex():
    p = build_pk(fixture("c4"))
    with pytest.raises(ValueError):
        pk_vertex_link(p, 1 << 10)


def test_torus_subcomplex_of_16_cell():
    k = fixture("boundary-16-cell")
    p = build_pk(k)
    torus_profile = HomologyProfile([(1, ()), (2, ()), (1, ())])
    for s in find_squares(k):
        sub = torus_subcomplex(p, s)
        assert sub.f_vector() == (16, 32, 16)
        assert sub.euler_characteristic() == 0
        assert homology(cubical_chain_complex(sub)) == torus_profile


def test_torus_subcomplex_degenerate_ambient():
    k = fixture("c4")
    p = build_pk(k)
    (square,) = find_squares(k)
    assert torus_subcomplex(p, square) == p


def test_torus_subcomplex_rejects_diagonal():
    p = build_pk(fixture("boundary-4-simplex"))  # complete 1-skeleton
    with pytest.raises(ValueError, match="diagonal"):
        torus_subcomplex(p, (0, 1, 2, 3))


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
    assert CubicalComplex.from_json(data) == p
