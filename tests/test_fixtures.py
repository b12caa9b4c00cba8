"""Registry golden profiles, the type verifier, flag subdivisions."""

import pytest

from flatlink.complexes import SimplicialComplex, barycentric_subdivision, is_flag
from flatlink.fixtures import (check_hypotheses, fixture, fixture_names,
                               product_triangulation, verify_type_l)
from flatlink.homology import homology, simplicial_chain_complex
from flatlink.links import LinkingMatrix, hopf_diagram


def corpus_properties(name):
    """Golden property profile of a fixture, read from ``check_hypotheses``."""
    k = fixture(name)
    checks = check_hypotheses(k).checks
    profile = {
        "vertices": k.vertex_count,
        "facets": len(k.facets),
        "dim": k.dim(),
        "is_flag": checks["is_flag"],
        "squares": checks["square_count"],
        "has_isolated_squares": checks["has_isolated_squares"],
        "caprace_passes": checks["caprace_criterion"],
    }
    if k.dim() == 3 and k.is_pure(3):
        manifold = checks["is_closed_orientable_3manifold"]
        profile["closed_orientable_3manifold"] = manifold
        if manifold:
            profile["homology_3sphere"] = checks["is_homology_3sphere"]
    return profile


GOLDEN = {
    "boundary-4-simplex": dict(vertices=5, facets=5, dim=3, is_flag=False,
                               squares=0, has_isolated_squares=True,
                               caprace_passes=True,
                               closed_orientable_3manifold=True,
                               homology_3sphere=True),
    "boundary-16-cell": dict(vertices=8, facets=16, dim=3, is_flag=True,
                             squares=6, has_isolated_squares=False,
                             caprace_passes=True,
                             closed_orientable_3manifold=True,
                             homology_3sphere=True),
    "octahedron": dict(vertices=6, facets=8, dim=2, is_flag=True, squares=3,
                       has_isolated_squares=False, caprace_passes=True),
    "c4": dict(vertices=4, facets=4, dim=1, is_flag=True, squares=1,
               has_isolated_squares=True, caprace_passes=True),
    "two-squares-disjoint": dict(vertices=8, facets=8, dim=1, is_flag=True,
                                 squares=2, has_isolated_squares=True,
                                 caprace_passes=True),
    "suspension-3-points": dict(vertices=5, facets=6, dim=1, is_flag=True,
                                squares=3, has_isolated_squares=False,
                                caprace_passes=False),
    "suspension-edge-point": dict(vertices=5, facets=4, dim=2, is_flag=True,
                                  squares=2, has_isolated_squares=False,
                                  caprace_passes=False),
    "sd-boundary-4-simplex": dict(vertices=30, facets=120, dim=3, is_flag=True,
                                  squares=150, has_isolated_squares=False,
                                  caprace_passes=False,
                                  closed_orientable_3manifold=True,
                                  homology_3sphere=True),
    "600-cell": dict(vertices=120, facets=600, dim=3, is_flag=True, squares=0,
                     has_isolated_squares=True, caprace_passes=True,
                     closed_orientable_3manifold=True, homology_3sphere=True),
    "projective-plane-6": dict(vertices=6, facets=10, dim=2, is_flag=False,
                               squares=0, has_isolated_squares=True,
                               caprace_passes=True),
    "torus-7": dict(vertices=7, facets=14, dim=2, is_flag=False, squares=0,
                    has_isolated_squares=True, caprace_passes=True),
    "s2-x-s1": dict(vertices=12, facets=36, dim=3,
                    closed_orientable_3manifold=True, homology_3sphere=False),
    "boundary-3-simplex": dict(vertices=4, facets=4, dim=2, is_flag=False,
                               squares=0, has_isolated_squares=True,
                               caprace_passes=True),
    "join-c6-c6": dict(vertices=12, facets=36, dim=3, is_flag=True, squares=81,
                       has_isolated_squares=False, caprace_passes=False,
                       closed_orientable_3manifold=True, homology_3sphere=True),
    "join-c10-c10": dict(vertices=20, facets=100, dim=3, is_flag=True,
                         squares=1225, has_isolated_squares=False,
                         caprace_passes=False, closed_orientable_3manifold=True,
                         homology_3sphere=True),
}


def test_registry_contains_required_names():
    required = {"boundary-4-simplex", "octahedron", "boundary-16-cell",
                "suspension-3-points", "sd-boundary-4-simplex",
                "two-squares-disjoint"}
    assert required <= set(fixture_names())


def test_unknown_fixture_rejected():
    with pytest.raises(KeyError, match="unknown fixture"):
        fixture("klein-bottle")


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_fixture_property_profiles(name):
    profile = corpus_properties(name)
    for key, expected in GOLDEN[name].items():
        assert profile[key] == expected, (name, key, profile)


def test_verify_type_l_16_cell_fails_on_isolated_squares():
    report = verify_type_l(fixture("boundary-16-cell"), hopf_diagram())
    assert not report.verdict
    assert report.flags["is_flag"]
    assert not report.flags["has_isolated_squares"]
    assert "necessary but not sufficient" in report.note


def test_verify_type_l_600_cell_empty_link():
    report = verify_type_l(fixture("600-cell"), LinkingMatrix([]))
    assert report.verdict
    assert all(report.flags.values())
    assert report.matrix == LinkingMatrix([])


def test_verify_type_l_boundary_4_simplex_fails_flag():
    report = verify_type_l(fixture("boundary-4-simplex"), LinkingMatrix([]))
    assert not report.verdict
    assert not report.flags["is_flag"]


def test_subdivision_of_boundary_4_simplex_is_flag_with_same_homology():
    k = fixture("boundary-4-simplex")
    sd = barycentric_subdivision(k)
    assert is_flag(sd).is_flag
    assert homology(simplicial_chain_complex(sd)) == homology(simplicial_chain_complex(k))


def test_subdivision_of_a_flag_complex_is_not_skipped():
    sd = barycentric_subdivision(fixture("c4"))  # c4 is already flag
    assert is_flag(sd).is_flag
    assert sd.vertex_count == 8  # 4 vertices + 4 edge barycenters


def test_subdivision_of_the_empty_complex_is_empty_and_flag():
    sd = barycentric_subdivision(SimplicialComplex(0, []))
    assert sd.vertex_count == 0 and is_flag(sd).is_flag


def test_product_triangulation_torus():
    tri = SimplicialComplex(3, [(0, 1), (0, 2), (1, 2)])
    torus = product_triangulation(tri, tri)
    prof = homology(simplicial_chain_complex(torus))
    assert prof.betti(0) == 1 and prof.betti(1) == 2 and prof.betti(2) == 1
