"""Numerical Gauss-integral oracle against the exact complement-class solver.

Join-of-polygon ambients have a geometric realization: the two polygons on
orthogonal unit circles in R^4 span the boundary of their free join, a
convex 4-polytope homeomorphic to S^3.  Edge cycles become polygonal
curves there; radial projection to the unit sphere and stereographic
projection to R^3 let the classical Gauss linking integral of the two
space curves be evaluated numerically.  Linking numbers are integers, so
an 0.01-close value rounds safely; the two implementations must agree up
to one global sign, uniform across every pair in the run.
"""

import numpy as np

from flatlink.complexes import SimplicialComplex, join
from flatlink.fixtures import fixture, solomon_pair, zigzag_cycle
from flatlink.links import EdgeCycleLink, ObstructionVerdict, linking_matrix, obstruction_report

from oracles import simplicial_linking_number

POLE = np.array([0.31, 0.47, -0.55, 0.61]) / np.linalg.norm([0.31, 0.47, -0.55, 0.61])


def cycle_complex(m):
    return SimplicialComplex(m, [tuple(sorted((i, (i + 1) % m))) for i in range(m)])


def join_coords(m, n):
    """Vertices of the join realization: two orthogonal unit circles."""
    out = []
    for k in range(m):
        t = 2 * np.pi * k / m
        out.append([np.cos(t), np.sin(t), 0.0, 0.0])
    for k in range(n):
        t = 2 * np.pi * k / n
        out.append([0.0, 0.0, np.cos(t), np.sin(t)])
    return np.array(out)


def stereo_curve(cycle, coords, samples=48):
    """Sample a cycle's edges, push to the unit 3-sphere, stereograph to R^3."""
    pts = []
    r = len(cycle)
    for idx in range(r):
        p = coords[cycle[idx]]
        q = coords[cycle[(idx + 1) % r]]
        for t in np.linspace(0.0, 1.0, samples, endpoint=False):
            x = (1 - t) * p + t * q
            pts.append(x / np.linalg.norm(x))
    pts = np.array(pts)
    frame_src = np.eye(4)
    frame_src[:, 0] = POLE
    qmat, _ = np.linalg.qr(frame_src)
    u0 = qmat[:, 0] if np.dot(qmat[:, 0], POLE) > 0 else -qmat[:, 0]
    denom = 1.0 - pts @ u0
    assert np.min(np.abs(denom)) > 1e-3, "pole too close to a curve"
    return (pts @ qmat[:, 1:]) / denom[:, None]


def gauss_linking(ls, ks):
    """Gauss linking number of two closed polygonal curves in R^3."""
    ls = np.vstack([ls, ls[:1]])
    ks = np.vstack([ks, ks[:1]])
    total = 0.0
    for i in range(len(ks) - 1):
        a = ls[:-1] - ks[i]
        b = ls[:-1] - ks[i + 1]
        c = ls[1:] - ks[i + 1]
        d = ls[1:] - ks[i]
        p = np.einsum("ij,ij->i", a, np.cross(b, c))
        an = np.linalg.norm(a, axis=1)
        bn = np.linalg.norm(b, axis=1)
        cn = np.linalg.norm(c, axis=1)
        dn = np.linalg.norm(d, axis=1)
        d1 = (an * bn * cn + np.einsum("ij,ij->i", a, b) * cn
              + np.einsum("ij,ij->i", b, c) * an + np.einsum("ij,ij->i", c, a) * bn)
        d2 = (an * dn * cn + np.einsum("ij,ij->i", a, d) * cn
              + np.einsum("ij,ij->i", d, c) * an + np.einsum("ij,ij->i", c, a) * dn)
        total += np.sum(np.arctan2(p, d1) + np.arctan2(p, d2))
    return total / (2 * np.pi)


def gauss_value(cycle_a, cycle_b, coords):
    value = gauss_linking(stereo_curve(cycle_a, coords),
                          stereo_curve(cycle_b, coords))
    assert abs(value - round(value)) < 0.01, value
    return int(round(value))


def collect_cases():
    """(ambient, component pair, coordinates) across slopes and offsets."""
    cases = []

    tri = cycle_complex(3)
    cases.append((join(tri, tri), (0, 1, 2), (3, 4, 5), join_coords(3, 3)))

    c66 = fixture("join-c6-c6")
    coords66 = join_coords(6, 6)
    fibers = [(k, 6 + k, k + 3, 6 + k + 3) for k in range(3)]
    for i in range(3):
        for j in range(i + 1, 3):
            cases.append((c66, fibers[i], fibers[j], coords66))

    c1010 = fixture("join-c10-c10")
    coords1010 = join_coords(10, 10)
    one_two = zigzag_cycle(10, 10, 0, 0, 2, 4, 5)
    cases.append((c1010, one_two, zigzag_cycle(10, 10, 1, 1, 2, 4, 5), coords1010))
    cases.append((c1010, one_two, zigzag_cycle(10, 10, 1, 5, 2, 4, 5), coords1010))
    one_one = zigzag_cycle(10, 10, 0, 0, 2, 2, 5)
    cases.append((c1010, one_one, zigzag_cycle(10, 10, 1, 1, 2, 2, 5), coords1010))
    cases.append((c1010, one_one, zigzag_cycle(10, 10, 1, 1, 2, 4, 5), coords1010))

    # chord-heavy: each component spans hundreds of chords to be starred
    for m in (20, 30):
        ring = cycle_complex(m)
        cases.append((join(ring, ring), zigzag_cycle(m, m, 0, 0, 2, 2, m // 2),
                      zigzag_cycle(m, m, 1, 1, 2, 2, m // 2), join_coords(m, m)))
    return cases


def test_exact_solver_matches_gauss_integral_up_to_one_global_sign():
    signs = set()
    values = []
    for ambient, ca, cb, coords in collect_cases():
        link = EdgeCycleLink(ambient, [ca, cb])
        exact = simplicial_linking_number(ambient, link, 0, 1)
        numeric = gauss_value(ca, cb, coords)
        assert abs(exact) == abs(numeric)
        if exact:
            signs.add(1 if exact == numeric else -1)
        values.append(abs(exact))
    assert len(signs) <= 1  # one documented global sign for the whole run
    # the slope/offset family realizes linking numbers 0 through 4
    assert {0, 1, 2, 3, 4} <= set(values)


def test_solomon_pair_links_twice_and_obstructs():
    ambient, link = solomon_pair()
    matrix = linking_matrix(ambient, link)
    assert abs(matrix.entries[0][1]) == 2
    numeric = gauss_value(link.components[0], link.components[1],
                          join_coords(10, 10))
    assert abs(numeric) == 2
    report = obstruction_report(matrix)
    assert report.verdict == ObstructionVerdict.LINKING_OBSTRUCTION


def test_triple_fiber_matrix_is_unobstructed():
    c66 = fixture("join-c6-c6")
    fibers = [(k, 6 + k, k + 3, 6 + k + 3) for k in range(3)]
    link = EdgeCycleLink(c66, fibers)
    matrix = linking_matrix(c66, link)
    assert all(abs(x) == 1 for x in matrix.off_diagonal())
    report = obstruction_report(matrix)
    assert report.verdict == ObstructionVerdict.NO_OBSTRUCTION_DETECTED
