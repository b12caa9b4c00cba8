"""Exact integer linear algebra and 3-manifold verification.

The Smith form is cross-checked against a deliberately naive in-test
elimination, and homology examples against independently built boundary
matrices.
"""

import importlib
import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatlink.complexes import SimplicialComplex
from flatlink.cubes import build_pk, cubical_chain_complex
from flatlink.fixtures import fixture, fixture_names
from flatlink.homology import (ChainComplex, HomologyProfile, IntegerMatrix,
                               S3_PROFILE, eliminate_unit_pivots, homology,
                               is_closed_orientable_3manifold, is_homology_3sphere,
                               simplicial_chain_complex, smith_normal_form)
from oracles import independent_snf_homology, random_flag_complex


# -- independent oracle -------------------------------------------------------

def oracle_invariant_factors(dense):
    """Naive Smith invariants: gcd-based elimination, no pivot strategy."""
    a = [row[:] for row in dense]
    m = len(a)
    n = len(a[0]) if m else 0
    out = []
    t = 0
    while t < min(m, n):
        found = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j]:
                    found = (i, j)
                    break
            if found:
                break
        if not found:
            break
        i, j = found
        a[t], a[i] = a[i], a[t]
        for row in a:
            row[t], row[j] = row[j], row[t]
        while True:
            i_bad = next((i for i in range(t + 1, m) if a[i][t] % a[t][t]), None)
            j_bad = next((j for j in range(t + 1, n) if a[t][j] % a[t][t]), None)
            if i_bad is not None:
                g = gcd(a[t][t], a[i_bad][t])
                # Bezout row combination to make the pivot the gcd
                x0, y0 = _bezout(a[t][t], a[i_bad][t])
                r_t = [x0 * a[t][c] + y0 * a[i_bad][c] for c in range(n)]
                q1, q2 = a[t][t] // g, a[i_bad][t] // g
                r_i = [-q2 * a[t][c] + q1 * a[i_bad][c] for c in range(n)]
                a[t], a[i_bad] = r_t, r_i
                continue
            if j_bad is not None:
                g = gcd(a[t][t], a[t][j_bad])
                x0, y0 = _bezout(a[t][t], a[t][j_bad])
                q1, q2 = a[t][t] // g, a[t][j_bad] // g
                for r in range(m):
                    c_t = x0 * a[r][t] + y0 * a[r][j_bad]
                    c_j = -q2 * a[r][t] + q1 * a[r][j_bad]
                    a[r][t], a[r][j_bad] = c_t, c_j
                continue
            break
        for i in range(t + 1, m):
            q = a[i][t] // a[t][t]
            for c in range(n):
                a[i][c] -= q * a[t][c]
        for j in range(t + 1, n):
            q = a[t][j] // a[t][t]
            for r in range(m):
                a[r][j] -= q * a[r][t]
        out.append(abs(a[t][t]))
        t += 1
    # normalize into a divisibility chain via gcd/lcm exchanges
    changed = True
    while changed:
        changed = False
        for i in range(len(out) - 1):
            if out[i + 1] % out[i]:
                g = gcd(out[i], out[i + 1])
                out[i], out[i + 1] = g, out[i] * out[i + 1] // g
                changed = True
    return tuple(x for x in out if x)


def _bezout(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_s, old_t


def oracle_rank(dense):
    rows = [[Fraction(x) for x in row] for row in dense if any(row)]
    rank = 0
    col = 0
    n = len(dense[0]) if dense else 0
    while rows and col < n:
        pivot = next((i for i, r in enumerate(rows) if r[col]), None)
        if pivot is None:
            col += 1
            continue
        rows[0], rows[pivot] = rows[pivot], rows[0]
        lead = rows[0]
        rows = [r if not r[col] else
                [x - r[col] / lead[col] * y for x, y in zip(r, lead)]
                for r in rows[1:]]
        rows = [r for r in rows if any(r)]
        rank += 1
        col += 1
    return rank


def boundary_matrices_by_hand(facets):
    """Boundary maps straight from the definition, independent of the library."""
    dims = {}
    for f in facets:
        for size in range(1, len(f) + 1):
            dims.setdefault(size - 1, set()).update(combinations(f, size))
    faces = {d: sorted(dims[d]) for d in dims}
    mats = {}
    for d in range(1, max(dims) + 1):
        rows = {f: i for i, f in enumerate(faces[d - 1])}
        mat = [[0] * len(faces[d]) for _ in faces[d - 1]]
        for j, f in enumerate(faces[d]):
            for pos in range(len(f)):
                mat[rows[f[:pos] + f[pos + 1:]]][j] = (-1) ** pos
        mats[d] = mat
    return faces, mats


# -- IntegerMatrix -------------------------------------------------------------

def test_matrix_basics():
    m = IntegerMatrix(2, 3)
    m.set(0, 0, 5)
    m.set(0, 0, 0)
    assert m.nnz() == 0
    m.set(1, 2, -4)
    assert m.get(1, 2) == -4
    with pytest.raises(IndexError):
        m.set(2, 0, 1)
    d = [[1, 0, 2], [0, 3, 0]]
    assert IntegerMatrix.from_dense(d).to_dense() == d


def test_matrix_multiplication():
    a = IntegerMatrix.from_dense([[1, 2], [3, 4]])
    b = IntegerMatrix.from_dense([[0, 1], [1, 0]])
    assert (a @ b).to_dense() == [[2, 1], [4, 3]]


# -- Smith normal form ----------------------------------------------------------

def test_snf_spec_examples():
    assert smith_normal_form(IntegerMatrix.from_dense([[2, 0], [0, 0]])).invariants == (2,)
    assert smith_normal_form(IntegerMatrix.from_dense([[1, 2], [3, 4]])).invariants == (1, 2)
    assert smith_normal_form(IntegerMatrix(3, 4)).invariants == ()


def test_snf_divisibility_and_transforms():
    m = IntegerMatrix.from_dense([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    snf = smith_normal_form(m, want_transforms=True)
    assert snf.invariants == (2, 2, 156)
    assert (snf.U @ m @ snf.V) == snf.diagonal_matrix(3, 3)


@given(st.lists(st.lists(st.integers(min_value=-9, max_value=9),
                         min_size=1, max_size=5),
                min_size=1, max_size=5).filter(
                    lambda rows: len({len(r) for r in rows}) == 1))
@settings(max_examples=60, deadline=None)
def test_snf_matches_oracle_and_transforms_hold(rows):
    m = IntegerMatrix.from_dense(rows)
    snf = smith_normal_form(m)
    assert snf.invariants == oracle_invariant_factors(rows)
    for a, b in zip(snf.invariants, snf.invariants[1:]):
        assert b % a == 0
    with_t = smith_normal_form(m, want_transforms=True)
    assert with_t.invariants == snf.invariants
    assert (with_t.U @ m @ with_t.V) == with_t.diagonal_matrix(m.rows, m.cols)
    # U, V unimodular: their Smith invariants are all 1
    assert set(smith_normal_form(with_t.U).invariants) <= {1}
    assert set(smith_normal_form(with_t.V).invariants) <= {1}


def test_snf_sparse_path_matches_oracle_on_larger_random():
    rng = random.Random(3)
    for _ in range(10):
        rows = [[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(12)] for _ in range(9)]
        m = IntegerMatrix.from_dense(rows)
        assert smith_normal_form(m).invariants == oracle_invariant_factors(rows)


def _row_and_col_dicts(matrix):
    rows, cols = {}, {}
    for (i, j), v in matrix.entries.items():
        rows.setdefault(i, {})[j] = v
        cols.setdefault(j, {})[i] = v
    return rows, cols


def _free_class(matrix, vec):
    """|class| of a vector in a cokernel Z, read off U of a transformed Smith form."""
    snf = smith_normal_form(matrix, want_transforms=True)
    assert set(snf.invariants) <= {1} and matrix.rows - snf.rank() == 1
    return abs(sum(u * vec.get(k, 0) for (i, k), u in snf.U.entries.items()
                   if i == snf.rank()))


def test_eliminate_unit_pivots_keeps_the_class_of_a_carried_vector():
    rng = random.Random(5)
    m, n = 9, 12
    cores = classes = 0
    for _ in range(25):
        # cokernel Z, hidden by random unimodular row and column operations;
        # the row (2, 3) has no unit entry, so most cases leave a core
        dense = [[0] * n for _ in range(m)]
        dense[0][:2] = [2, 3]
        for i in range(1, m - 1):
            dense[i][i + 1] = 1
        for _ in range(12):
            a, b = rng.sample(range(m), 2)
            q = rng.choice((1, -1))
            dense[a] = [x + q * y for x, y in zip(dense[a], dense[b])]
            c, d = rng.sample(range(n), 2)
            q = rng.choice((1, -1))
            for row in dense:
                row[c] += q * row[d]
        matrix = IntegerMatrix.from_dense(dense)
        vec = {i: v for i in range(m) if (v := rng.randint(-3, 3))}
        rows, cols = _row_and_col_dicts(matrix)
        carried = dict(vec)
        pivots = eliminate_unit_pivots(rows, cols, [carried])
        live = [r for r in range(m) if r not in pivots]
        assert set(carried) <= set(live)
        index = {r: k for k, r in enumerate(live)}
        core = IntegerMatrix(len(live), len(cols), {
            (index[r], k): v for k, j in enumerate(sorted(cols))
            for r, v in cols[j].items()})
        expected = _free_class(matrix, vec)
        assert _free_class(core, {index[r]: v for r, v in carried.items()}) == expected
        cores += bool(cols)
        classes += bool(expected)
    assert cores > 15 and classes > 15


def test_eliminate_unit_pivots_fill_in_fallback_matches_oracle():
    # 64 cheap unit pivots on the identity block leave a dense 6 x 6 core:
    # the fill-in check after pivot 64 hands it to the dense elimination
    # while unit entries are still left in it
    rng = random.Random(0)
    n = 70
    dense = [[int(i == j) if i < 64 and j < 64 else rng.choice((1, -1))
              for j in range(n)] for i in range(n)]
    matrix = IntegerMatrix.from_dense(dense)
    rows, cols = _row_and_col_dicts(matrix)
    assert len(eliminate_unit_pivots(rows, cols)) == 64
    assert any(v in (1, -1) for row in rows.values() for v in row.values())
    assert smith_normal_form(matrix).invariants == oracle_invariant_factors(dense)


# -- chain complexes and homology -------------------------------------------------

def test_chain_complex_rejects_nonzero_boundary_square():
    d1 = IntegerMatrix.from_dense([[1, 1]])
    d2 = IntegerMatrix.from_dense([[1], [1]])
    with pytest.raises(ValueError, match="boundary of boundary"):
        ChainComplex([1, 2, 1], {1: d1, 2: d2})


def test_simplicial_chain_complex_edge_and_triangle():
    edge = simplicial_chain_complex(SimplicialComplex(2, [(0, 1)]))
    assert edge.boundary(1).to_dense() == [[-1], [1]]
    tri = simplicial_chain_complex(SimplicialComplex(3, [(0, 1, 2)]))
    col = [tri.boundary(2).get(i, 0) for i in range(3)]
    assert col == [1, -1, 1]  # edges (0,1), (0,2), (1,2)


def test_homology_c4_is_circle():
    prof = homology(simplicial_chain_complex(fixture("c4")))
    assert prof == HomologyProfile([(1, ()), (1, ())])


def test_homology_boundary_4_simplex():
    prof = homology(simplicial_chain_complex(fixture("boundary-4-simplex")))
    assert prof == S3_PROFILE


def test_homology_projective_plane_torsion_oracle():
    rp2 = fixture("projective-plane-6")
    faces, mats = boundary_matrices_by_hand(rp2.facets)
    # independent computation: betti from fraction ranks, torsion from SNF oracle
    r1 = oracle_rank(mats[1])
    r2 = oracle_rank(mats[2])
    betti1 = len(faces[1]) - r1 - r2
    torsion1 = [d for d in oracle_invariant_factors(mats[2]) if d > 1]
    assert betti1 == 0 and torsion1 == [2]
    assert homology(simplicial_chain_complex(rp2)) == HomologyProfile(
        [(1, ()), (0, (2,)), (0, ())])


def test_homology_torus_7_oracle():
    t7 = fixture("torus-7")
    faces, mats = boundary_matrices_by_hand(t7.facets)
    betti1 = len(faces[1]) - oracle_rank(mats[1]) - oracle_rank(mats[2])
    assert betti1 == 2
    assert homology(simplicial_chain_complex(t7)) == HomologyProfile(
        [(1, ()), (2, ()), (1, ())])


def test_euler_poincare_on_corpus():
    for name in ("c4", "octahedron", "boundary-4-simplex", "boundary-16-cell",
                 "projective-plane-6", "torus-7", "sd-boundary-4-simplex"):
        k = fixture(name)
        prof = homology(simplicial_chain_complex(k))
        alt_cells = k.euler_characteristic()
        alt_betti = sum((-1) ** d * prof.betti(d) for d in range(k.dim() + 1))
        assert alt_cells == alt_betti, name


# -- clearing ----------------------------------------------------------------------

def _mixed_bases(chain_complex, rng, ops):
    """The same complex in other bases: random +-1 basis changes e_a += q e_b.

    Such a change in degree k adds q times column b to column a of d_k and
    subtracts q times row a from row b of d_{k+1}; d d = 0 and the homology
    stay, the unit entries the elimination feeds on thin out.
    """
    dense = {d: chain_complex.boundary(d).to_dense() for d in range(1, chain_complex.dim + 1)}
    for _ in range(ops):
        k = rng.randrange(chain_complex.dim + 1)
        if chain_complex.cell_counts[k] < 2:
            continue
        a, b = rng.sample(range(chain_complex.cell_counts[k]), 2)
        q = rng.choice((1, -1))
        if k >= 1:
            for row in dense[k]:
                row[a] += q * row[b]
        if k < chain_complex.dim:
            upper = dense[k + 1]
            upper[b] = [y - q * x for x, y in zip(upper[a], upper[b])]
    return ChainComplex(chain_complex.cell_counts,
                        {d: IntegerMatrix.from_dense(m) for d, m in dense.items()})


def _cleared_homology_cases():
    for name in fixture_names():
        yield "fixture " + name, simplicial_chain_complex(fixture(name))
    rng = random.Random(23)
    for k in range(30):
        yield "random flag %d" % k, simplicial_chain_complex(random_flag_complex(rng))
    for name in ("c4", "octahedron", "projective-plane-6", "torus-7"):
        yield "P_K of " + name, cubical_chain_complex(build_pk(fixture(name)))


def test_cleared_homology_matches_independent_oracle():
    profiles = {}
    for case, chain_complex in _cleared_homology_cases():
        profiles[case] = homology(chain_complex)
        assert profiles[case] == independent_snf_homology(chain_complex), case
    # H_2(P_K) of the 6-vertex projective plane has 2-torsion
    assert profiles["P_K of projective-plane-6"].groups[2] == (31, (2,))


@pytest.mark.parametrize("name,ops,seed", [
    ("boundary-4-simplex", 60, 1),      # pivots stop at a core with no unit entry
    ("join-c10-c10", 600, 1),           # pivots stop after 64, at the fill-in bound
])
def test_cleared_homology_matches_oracle_on_a_partial_pivot_set(name, ops, seed):
    chain_complex = _mixed_bases(simplicial_chain_complex(fixture(name)),
                                 random.Random(seed), ops)
    top = smith_normal_form(chain_complex.boundary(3))
    assert 0 < len(top.pivot_rows) < top.rank()
    assert homology(chain_complex) == independent_snf_homology(chain_complex) == S3_PROFILE


def test_homology_clears_the_pivot_rows_of_the_boundary_above(monkeypatch):
    homology_module = importlib.import_module("flatlink.homology")
    handed = []
    original = homology_module.smith_normal_form

    def recording(matrix, *args, **kwargs):
        snf = original(matrix, *args, **kwargs)
        handed.append((matrix, snf))
        return snf

    monkeypatch.setattr(homology_module, "smith_normal_form", recording)
    chain_complex = simplicial_chain_complex(fixture("sd-boundary-4-simplex"))
    assert homology(chain_complex) == S3_PROFILE
    assert [m.cols for m, _ in handed] == [chain_complex.cell_counts[d] for d in (3, 2, 1)]
    for (_, upper), (lower, _) in zip(handed, handed[1:]):
        assert upper.pivot_rows
        assert not {j for _, j in lower.entries} & set(upper.pivot_rows)
    assert (sum(m.nnz() for m, _ in handed)
            < sum(chain_complex.boundary(d).nnz() for d in (1, 2, 3)))


# -- 3-manifold checks --------------------------------------------------------------

def test_manifold_check_boundary_4_simplex():
    rep = is_closed_orientable_3manifold(fixture("boundary-4-simplex"))
    assert rep.passed and rep.orientable
    least = min(fixture("boundary-4-simplex").facets)
    assert rep.orientation[least] == 1
    # consistent orientation: boundary of the oriented facet sum vanishes
    k = fixture("boundary-4-simplex")
    chain = {}
    for f, s in rep.orientation.items():
        for pos in range(4):
            tri = f[:pos] + f[pos + 1:]
            chain[tri] = chain.get(tri, 0) + s * (-1) ** pos
    assert all(v == 0 for v in chain.values())


def test_manifold_check_16_cell():
    rep = is_closed_orientable_3manifold(fixture("boundary-16-cell"))
    assert rep.passed
    assert is_homology_3sphere(fixture("boundary-16-cell")).is_homology_sphere


def test_manifold_check_rejects_2_sphere():
    with pytest.raises(ValueError, match="pure 3"):
        is_closed_orientable_3manifold(fixture("boundary-3-simplex"))


def test_s2_x_s1_is_not_homology_sphere():
    rep = is_homology_3sphere(fixture("s2-x-s1"))
    assert not rep.is_homology_sphere
    assert rep.profile.betti(1) == 1
    assert rep.manifold.passed  # it is a genuine closed orientable 3-manifold


def test_homology_sphere_note_mentions_simple_connectivity():
    rep = is_homology_3sphere(fixture("boundary-4-simplex"))
    assert rep.is_homology_sphere
    assert "NOT checked" in rep.note


def test_pseudomanifold_failure_detected():
    # three tetrahedra around one triangle
    k = SimplicialComplex(6, [(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 2, 5)])
    rep = is_closed_orientable_3manifold(k)
    assert not rep.pseudomanifold
    assert not rep.passed


def test_profile_json():
    prof = HomologyProfile([(1, ()), (0, (2, 4))])
    assert prof.to_json() == {"H": [{"rank": 1, "torsion": []},
                                    {"rank": 0, "torsion": [2, 4]}]}
    with pytest.raises(ValueError):
        HomologyProfile([(0, (3, 4))])  # 3 does not divide 4


def test_orientation_found_iff_top_homology_is_z():
    for name in ("boundary-4-simplex", "boundary-16-cell", "s2-x-s1"):
        k = fixture(name)
        rep = is_closed_orientable_3manifold(k)
        prof = homology(simplicial_chain_complex(k))
        assert rep.orientable and rep.orientation is not None
        assert prof.betti(3) == 1 and prof.torsion(3) == ()
