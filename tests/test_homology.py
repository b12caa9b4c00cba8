"""Exact integer linear algebra, 3-manifold verification and the
hypothesis chain.

The Smith form is cross-checked against the deliberately naive Hermite
basis and Bezout elimination of ``oracles.oracle_invariant_factors``, and
homology examples against independently built boundary matrices.  The
hypothesis chain is checked link by link against the brute-force oracles
on seeded random flag 3-spheres.
"""

import heapq
import importlib
import random
import types
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatlink.complexes import SimplicialComplex, barycentric_subdivision, join, vertex_link
from flatlink.cubes import build_pk, cubical_chain_complex
from flatlink.fixtures import fixture, fixture_names
from flatlink.homology import (ChainComplex, HomologyProfile, IntegerMatrix,
                               S3_PROFILE, _link_is_2sphere, check_hypotheses,
                               eliminate_unit_pivots, homology, is_closed_orientable_3manifold,
                               is_homology_3sphere, simplicial_chain_complex, smith_normal_form)
from oracles import (brute_force_caprace_witnesses, brute_force_is_flag, brute_force_squares,
                     cokernel_functional, euler_characteristic, from_dense,
                     independent_snf_homology, link_is_2sphere_from_star,
                     manifold_report_by_stars, oracle_invariant_factors, pinched_3_complexes,
                     random_flag_complex, random_flag_sphere, random_pure_3_complex, to_dense,
                     twisted_s2_bundle)


# -- independent oracle -------------------------------------------------------

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
    assert m.columns == {}  # the emptied column is dropped
    m.set(1, 2, -4)
    m.set(0, 2, 7)
    m.set(0, 2, 0)
    assert m.get(1, 2) == -4
    assert m.columns == {2: {1: -4}}
    with pytest.raises(IndexError):
        m.set(2, 0, 1)
    d = [[1, 0, 2], [0, 3, 0]]
    assert to_dense(from_dense(d)) == d
    m = from_dense(d)
    assert m.nnz() == len(m.entries) == 3
    assert dict(m.entries) == {(0, 0): 1, (0, 2): 2, (1, 1): 3}
    with pytest.raises(TypeError):
        m.entries[(1, 0)] = 1  # a read-only view


def test_matrix_multiplication():
    a = from_dense([[1, 2], [3, 4]])
    b = from_dense([[0, 1], [1, 0]])
    assert to_dense(a @ b) == [[2, 1], [4, 3]]


def test_matrix_multiplication_matches_dense_on_random_rectangular():
    # entries in {-1, 0, 1} make many products cancel to 0: those entries,
    # and columns left empty, must not be stored
    rng = random.Random(11)
    cancelled = 0
    for _ in range(200):
        m, k, n = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        a = [[rng.choice((-1, 0, 0, 1)) for _ in range(k)] for _ in range(m)]
        b = [[rng.choice((-1, 0, 0, 1)) for _ in range(n)] for _ in range(k)]
        dense = [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(n)]
                 for i in range(m)]
        prod = from_dense(a) @ from_dense(b)
        assert (prod.rows, prod.cols) == (m, n)
        assert to_dense(prod) == dense
        assert prod == from_dense(dense)
        assert all(col and all(col.values()) for col in prod.columns.values())
        assert prod.nnz() == len(prod.entries)
        cancelled += any(a[i][t] * b[t][j] and not dense[i][j]
                         for i in range(m) for j in range(n) for t in range(k))
    assert cancelled > 50
    with pytest.raises(ValueError, match="shape"):
        IntegerMatrix(2, 3) @ IntegerMatrix(2, 3)


# -- Smith normal form ----------------------------------------------------------

def test_snf_spec_examples():
    assert smith_normal_form(from_dense([[2, 0], [0, 0]])).invariants == (2,)
    assert smith_normal_form(from_dense([[1, 2], [3, 4]])).invariants == (1, 2)
    assert smith_normal_form(IntegerMatrix(3, 4)).invariants == ()


def _carry(matrix, vecs, xs=()):
    """Carry vecs and the images M x of xs through one Smith form.

    Each comes back with its rows - rank free coordinates, all 0 for an
    image.  When there is one, the coordinate of each v is eps * (phi . v),
    phi from the rational oracle and one sign eps for the call.  Returns
    the Smith form and the |phi . v|, or None for another free rank.
    """
    images = []
    for x in xs:
        image = {}
        for j, col in matrix.columns.items():
            for i, val in col.items():
                image[i] = image.get(i, 0) + val * x[j]
        images.append({i: val for i, val in image.items() if val})
    snf = smith_normal_form(matrix, carried=list(vecs) + images)
    free = matrix.rows - snf.rank()
    assert [len(c) for c in snf.carried] == [free] * (len(vecs) + len(images))
    assert snf.carried[len(vecs):] == ((0,) * free,) * len(images)
    if free != 1:
        return snf, None
    phi = cokernel_functional(to_dense(matrix))
    expected = [sum(p * v.get(i, 0) for i, p in enumerate(phi)) for v in vecs]
    got = [c for (c,) in snf.carried[:len(vecs)]]
    assert got in (expected, [-y for y in expected])
    return snf, [abs(y) for y in expected]


def _units(m):
    return [{i: 1} for i in range(m)]


def test_snf_divisibility_and_carried_vectors():
    rows = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    snf, _ = _carry(from_dense(rows), _units(3), [[1, 0, 0], [2, -1, 3]])
    assert snf.invariants == (2, 2, 156) and snf.carried[:3] == ((),) * 3
    # a fourth row r0 + r1 adds a free Z to the cokernel, read by phi = +-(1, 1, 0, -1)
    snf, classes = _carry(from_dense(rows + [[-4, 10, 16]]), _units(4),
                          [[1, 0, 0], [2, -1, 3]])
    assert snf.invariants == (2, 2, 156)
    assert classes == [1, 1, 0, 1]


@given(st.lists(st.lists(st.integers(min_value=-9, max_value=9),
                         min_size=1, max_size=5),
                min_size=1, max_size=5).filter(
                    lambda rows: len({len(r) for r in rows}) == 1))
@settings(max_examples=60, deadline=None)
def test_snf_matches_oracle_and_carried_classes_hold(rows):
    m = from_dense(rows)
    snf, _ = _carry(m, _units(m.rows), [[1] * m.cols, [(-2) ** j for j in range(m.cols)]])
    assert snf.invariants == oracle_invariant_factors(rows)
    for a, b in zip(snf.invariants, snf.invariants[1:]):
        assert b % a == 0
    assert smith_normal_form(m).invariants == snf.invariants


def test_snf_sparse_path_matches_oracle_on_larger_random():
    rng = random.Random(3)
    for _ in range(10):
        rows = [[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(12)] for _ in range(9)]
        m = from_dense(rows)
        assert smith_normal_form(m).invariants == oracle_invariant_factors(rows)


def _row_and_col_dicts(matrix):
    cols = {j: dict(col) for j, col in matrix.columns.items()}
    rows = {}
    for j, col in cols.items():
        for i, v in col.items():
            rows.setdefault(i, {})[j] = v
    return rows, cols


def _free_class(matrix, vecs, xs=()):
    """|class| of each vector in a cokernel Z, read off its one carried free
    coordinate and checked against the oracle's functional."""
    snf, classes = _carry(matrix, vecs, xs)
    assert set(snf.invariants) <= {1} and classes is not None
    return classes


def test_eliminate_unit_pivots_keeps_the_class_of_a_carried_vector():
    rng = random.Random(5)
    more = random.Random(6)  # the second vector and the image, apart from the matrices
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
        matrix = from_dense(dense)
        vecs = [{i: v for i in range(m) if (v := r.randint(-3, 3))} for r in (rng, more)]
        rows, cols = _row_and_col_dicts(matrix)
        carried = [dict(vec) for vec in vecs]
        pivots = eliminate_unit_pivots(rows, cols, carried)
        live = [r for r in range(m) if r not in pivots]
        assert set().union(*carried) <= set(live)
        index = {r: k for k, r in enumerate(live)}
        core = IntegerMatrix(len(live), len(cols), {
            (index[r], k): v for k, j in enumerate(sorted(cols))
            for r, v in cols[j].items()})
        expected = _free_class(matrix, vecs, [[more.randint(-2, 2) for _ in range(n)]])
        assert _free_class(core, [{index[r]: v for r, v in vec.items()}
                                  for vec in carried]) == expected
        cores += bool(cols)
        classes += bool(expected[0])
    assert cores > 15 and classes > 15


def test_eliminate_unit_pivots_fill_in_fallback_matches_oracle():
    # 64 cheap unit pivots on the identity block leave a dense 6 x 6 core:
    # the fill-in check after pivot 64 hands it to the dense elimination
    # while unit entries are still left in it
    rng = random.Random(0)
    n = 70
    dense = [[int(i == j) if i < 64 and j < 64 else rng.choice((1, -1))
              for j in range(n)] for i in range(n)]
    matrix = from_dense(dense)
    rows, cols = _row_and_col_dicts(matrix)
    assert len(eliminate_unit_pivots(rows, cols)) == 64
    assert any(v in (1, -1) for row in rows.values() for v in row.values())
    assert smith_normal_form(matrix).invariants == oracle_invariant_factors(dense)


def test_eliminate_unit_pivots_selection_work_is_linear_on_a_manifold_boundary(monkeypatch):
    # d_3 of sd(sd-boundary-4-simplex): 2,879 pivots on 2,880 columns, no
    # core.  A pivot pushes only the columns it changes, one here, so the
    # heap work stays linear; a heap of unit entries, re-pushed for every
    # row a pivot touches, makes 57,093 pushes on this matrix
    calls = {"heappush": 0, "heappop": 0}

    def counting(name):
        def call(*args):
            calls[name] += 1
            return getattr(heapq, name)(*args)
        return call

    counted = types.SimpleNamespace(heapify=heapq.heapify, heappush=counting("heappush"),
                                    heappop=counting("heappop"))
    monkeypatch.setattr(importlib.import_module("flatlink.homology"), "heapq", counted)
    d3 = simplicial_chain_complex(barycentric_subdivision(fixture("sd-boundary-4-simplex")))
    rows, cols = _row_and_col_dicts(d3.boundary(3))
    assert len(cols) == 2880
    assert len(eliminate_unit_pivots(rows, cols)) == 2879
    assert not rows and not cols
    assert calls["heappush"] <= 2880 and calls["heappop"] <= 2 * 2880


# -- chain complexes and homology -------------------------------------------------

def test_chain_complex_rejects_nonzero_boundary_square():
    d1 = from_dense([[1, 1]])
    d2 = from_dense([[1], [1]])
    with pytest.raises(ValueError, match="boundary of boundary"):
        ChainComplex([1, 2, 1], {1: d1, 2: d2})


def test_simplicial_chain_complex_edge_and_triangle():
    edge = simplicial_chain_complex(SimplicialComplex(2, [(0, 1)]))
    assert to_dense(edge.boundary(1)) == [[-1], [1]]
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
        alt_cells = euler_characteristic(k)
        alt_betti = sum((-1) ** d * prof.betti(d) for d in range(k.dim() + 1))
        assert alt_cells == alt_betti, name


# -- clearing ----------------------------------------------------------------------

def _mixed_bases(chain_complex, rng, ops):
    """The same complex in other bases: random +-1 basis changes e_a += q e_b.

    Such a change in degree k adds q times column b to column a of d_k and
    subtracts q times row a from row b of d_{k+1}; d d = 0 and the homology
    stay, the unit entries the elimination feeds on thin out.
    """
    dense = {d: to_dense(chain_complex.boundary(d)) for d in range(1, chain_complex.dim + 1)}
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
                        {d: from_dense(m) for d, m in dense.items()})


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
    ("boundary-4-simplex", 60, 4),      # pivots stop at a core with no unit entry
    ("join-c10-c10", 600, 1),           # pivots stop after 64, at the fill-in bound
])
def test_cleared_homology_matches_oracle_on_a_partial_pivot_set(name, ops, seed):
    chain_complex = _mixed_bases(simplicial_chain_complex(fixture(name)),
                                 random.Random(seed), ops)
    top = smith_normal_form(chain_complex.boundary(3))
    assert 0 < len(top.pivot_rows) < top.rank()
    # each case stops for its own reason: unit entries are left in the core
    # exactly when the fill-in bound stopped the pivots
    rows, cols = _row_and_col_dicts(chain_complex.boundary(3))
    assert eliminate_unit_pivots(rows, cols) == list(top.pivot_rows)
    units_left = any(v in (1, -1) for row in rows.values() for v in row.values())
    assert units_left == (len(top.pivot_rows) == 64)
    assert homology(chain_complex) == independent_snf_homology(chain_complex) == S3_PROFILE


def test_dense_core_of_a_mixed_basis_boundary_matches_the_oracle():
    # 800 basis changes leave d_3 of sd-boundary-4-simplex with a 176 x 56
    # core after 64 unit pivots; the dense Smith form finishes it
    d3 = _mixed_bases(simplicial_chain_complex(fixture("sd-boundary-4-simplex")),
                      random.Random(0), 800).boundary(3)
    rows, cols = _row_and_col_dicts(d3)
    pivots = eliminate_unit_pivots(rows, cols)
    core = [[rows[r].get(c, 0) for c in sorted(cols)] for r in sorted(rows)]
    assert (len(pivots), len(core), len(core[0])) == (64, 176, 56)
    matrix = from_dense(core)
    # the free coordinates F of the 176 unit vectors read the free part of
    # the cokernel: F M = 0, and F maps Z^176 onto Z^(176 - rank)
    snf, _ = _carry(matrix, _units(176), [[1] * 56, [(-1) ** j * j for j in range(56)]])
    free = from_dense([list(c) for c in zip(*snf.carried[:176])])
    assert (free.rows, free.cols) == (176 - snf.rank(), 176)
    assert (free @ matrix).nnz() == 0
    assert smith_normal_form(free).invariants == (1,) * free.rows
    # a matrix and its transpose share invariant factors
    assert snf.invariants == oracle_invariant_factors([list(c) for c in zip(*core)])
    assert smith_normal_form(d3).invariants == (1,) * 64 + snf.invariants


def test_dense_diagonal_goes_through_the_one_torsion_merge(monkeypatch):
    homology_module = importlib.import_module("flatlink.homology")
    merged = []
    original = homology_module._merged_torsion

    def recording(coefficients):
        merged.append(list(coefficients))
        return original(coefficients)

    monkeypatch.setattr(homology_module, "_merged_torsion", recording)
    matrix = IntegerMatrix(4, 3, {(0, 0): 4, (1, 1): 6, (2, 2): 10})  # row 3 is zero
    snf = smith_normal_form(matrix, carried=[{3: 1}])
    assert merged == [[4, 6, 10]]
    assert snf.invariants == (2, 2, 60)
    assert snf.carried in (((1,),), ((-1,),))


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
        assert not set(lower.columns) & set(upper.pivot_rows)
    assert (sum(m.nnz() for m, _ in handed)
            < sum(chain_complex.boundary(d).nnz() for d in (1, 2, 3)))


def test_homology_and_smith_form_leave_their_input_unchanged():
    # the cleared matrix shares its column dicts with the boundary, so an
    # elimination that wrote to them would corrupt the complex
    chain_complex = simplicial_chain_complex(fixture("sd-boundary-4-simplex"))
    before = {d: {j: dict(col) for j, col in m.columns.items()}
              for d, m in chain_complex.boundaries.items()}
    assert homology(chain_complex) == homology(chain_complex) == S3_PROFILE
    assert {d: m.columns for d, m in chain_complex.boundaries.items()} == before
    matrix = from_dense([[2, 4, 4], [-6, 6, 12], [10, 4, 16], [1, 1, 0]])
    vec = {0: 1, 3: -2}
    snf = smith_normal_form(matrix, carried=[vec])
    assert to_dense(matrix) == [[2, 4, 4], [-6, 6, 12], [10, 4, 16], [1, 1, 0]]
    assert vec == {0: 1, 3: -2}
    assert smith_normal_form(matrix, carried=[vec]) == snf


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


def _link_is_2sphere_oracle(complex_, v):
    """The link as its own complex: a closed surface with the homology of S^2."""
    link = vertex_link(complex_, v)
    if not link.facets:
        return False
    edges = {}
    for f in link.facets:
        if len(f) != 3:
            return False
        for e in combinations(f, 2):
            edges[e] = edges.get(e, 0) + 1
    return (all(c == 2 for c in edges.values())
            and homology(simplicial_chain_complex(link))
            == HomologyProfile([(1, ()), (0, ()), (1, ())]))


_TWO_POINTS = SimplicialComplex(2, [(0,), (1,)])
_BOUNDARY_4_SIMPLEX = list(combinations(range(5), 4))
_LINK_CASES = {
    **{name: (lambda n=name: fixture(n))
       for name in ("boundary-4-simplex", "boundary-16-cell", "sd-boundary-4-simplex",
                    "s2-x-s1", "600-cell", "join-c6-c6")},
    "suspension-torus-7": lambda: join(fixture("torus-7"), _TWO_POINTS),
    "suspension-projective-plane-6": lambda: join(fixture("projective-plane-6"),
                                                  _TWO_POINTS),
    "two-3-spheres-at-a-vertex": lambda: SimplicialComplex(
        9, _BOUNDARY_4_SIMPLEX + [tuple(v + 4 if v else 0 for v in f)
                                  for f in _BOUNDARY_4_SIMPLEX]),
    "cone-on-torus-7-and-2-sphere": lambda: SimplicialComplex(  # apex link has chi 2
        12, [(0,) + tuple(v + 1 for v in t) for t in fixture("torus-7").facets]
        + [(0,) + tuple(v + 8 for v in t) for t in combinations(range(4), 3)]),
    "cone-on-2-sphere-with-a-fin": lambda: SimplicialComplex(  # apex link has chi 2
        6, [(0,) + t for t in combinations(range(1, 5), 3)] + [(0, 1, 2, 5)]),
    "three-tetrahedra-on-a-triangle": lambda: SimplicialComplex(
        6, [(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 2, 5)]),
    **{name: (lambda k=k: k) for name, k in pinched_3_complexes().items()},
}


def _link_checks(k):
    """Per vertex, the link test as the manifold check runs it: a vertex on
    a triangle in other than two tetrahedra fails, and any other is tested
    on its triangles' pairs of (tetrahedron, sign) and its degree."""
    owners = {}
    for i, f in enumerate(k.facets):
        for t, sign in zip(combinations(f, 3), (-1, 1, -1, 1)):
            owners.setdefault(t, []).append((i, sign))
    pairs = [[] for _ in range(k.vertex_count)]
    bad = set()
    for t, tetrahedra in owners.items():
        for v in t:
            if len(tetrahedra) == 2:
                pairs[v].append(tetrahedra)
            else:
                bad.add(v)
    return [v not in bad and _link_is_2sphere(pairs[v], len(k.neighbors(v)))
            for v in range(k.vertex_count)]


@pytest.mark.parametrize("name", sorted(_LINK_CASES))
def test_link_check_from_the_star_matches_the_link_complex(name):
    k = _LINK_CASES[name]()
    got = _link_checks(k)
    assert got == [_link_is_2sphere_oracle(k, v) for v in range(k.vertex_count)]
    assert got == [link_is_2sphere_from_star(k, v) for v in range(k.vertex_count)]
    assert all(got) == (name in fixture_names())  # the registry cases are 3-manifolds


def test_twisted_s2_bundle_is_a_non_orientable_closed_3_manifold():
    k = twisted_s2_bundle()
    assert (k.vertex_count, len(k.facets)) == (12, 36)
    rep = is_closed_orientable_3manifold(k)
    assert rep.pseudomanifold and rep.vertex_links_are_2spheres
    assert not rep.orientable and rep.orientation is None and not rep.passed
    assert rep.failures == ("orientation mismatch across triangle (5, 8, 11)",)
    assert homology(simplicial_chain_complex(k)) == HomologyProfile(  # H(Z, Z, Z/2, 0)
        [(1, ()), (1, ()), (0, (2,)), (0, ())])


def _report_or_error(check, k):
    try:
        return check(k)
    except ValueError as exc:
        return "ValueError: %s" % exc


def test_manifold_report_matches_the_star_route_on_a_seeded_corpus():
    rng = random.Random(25)
    corpus = [twisted_s2_bundle()] + [random_pure_3_complex(rng) for _ in range(240)]
    outcomes = []
    for k in corpus:
        got = _report_or_error(is_closed_orientable_3manifold, k)
        assert got == _report_or_error(manifold_report_by_stars, k), k.facets
        outcomes.append(got if isinstance(got, str) else
                        (got.pseudomanifold, got.vertex_links_are_2spheres, got.orientable))
    # the corpus reaches each outcome: a pass, each failure, and disconnection
    assert {"ValueError: complex is not connected", (True, True, True), (True, True, False),
            (True, False, True), (False, False, False)} <= set(outcomes)


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


@pytest.mark.parametrize("seed", [1, 2])
def test_hypothesis_chain_matches_the_oracles_on_random_flag_spheres(seed):
    # 16 edge subdivisions of the 16-cell: 24 vertices, 89 facets and a
    # hundred or more squares, so the isolated-squares and Caprace links fail
    k = random_flag_sphere(seed, 16, fixture("boundary-16-cell"))
    report = check_hypotheses(k)
    checks = report.checks
    assert checks["is_flag"] is brute_force_is_flag(k) is True
    squares = brute_force_squares(k)
    assert report.squares == squares and checks["square_count"] == len(squares) > 100
    shared = {v for s in squares for v in s.cycle
              if sum(v in t.cycle for t in squares) > 1}
    assert checks["has_isolated_squares"] is (not shared) is False
    assert checks["isolated_offending_vertex"] in shared
    witnesses = brute_force_caprace_witnesses(k)
    assert checks["caprace_criterion"] is (not witnesses) is False
    assert checks["caprace_witness_count"] == len(witnesses)
    vertices, kind = witnesses[0]
    assert checks["caprace_witness"] == {"vertices": list(vertices), "type": kind}
    manifold = manifold_report_by_stars(k)
    assert checks["is_closed_orientable_3manifold"] is manifold.passed is True
    assert report.orientation == manifold.orientation
    assert checks["is_homology_3sphere"] is True
    assert checks["homology_profile"] == S3_PROFILE.to_json()
    assert report.passed is False
