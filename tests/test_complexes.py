"""Core simplicial predicates, checked against brute-force oracles."""

import random
import sys
import threading
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatlink.complexes import (InvalidComplexError, SimplicialComplex, Square,
                                _stellar_subdivision, barycentric_subdivision, clique_complex,
                                disjoint_union, find_squares, full_subcomplex,
                                has_isolated_squares, is_flag, join, maximal_faces,
                                oriented_subdivision, scan_nonadjacent_pairs, vertex_link)
from flatlink.fixtures import fixture, fixture_names
from flatlink.homology import check_hypotheses, is_closed_orientable_3manifold


# -- independent oracles ----------------------------------------------------

from oracles import (brute_force_caprace_witnesses, brute_force_flag_witness,
                     brute_force_is_flag, brute_force_squares, chain_subdivision, eager_tables,
                     euler_characteristic, random_complex, random_flag_complex,
                     subdivision_face_map, validate_square)


# -- construction and JSON ---------------------------------------------------

def test_constructor_rejects_bad_facets():
    with pytest.raises(InvalidComplexError):
        SimplicialComplex(3, [(1, 0)])  # unsorted
    with pytest.raises(InvalidComplexError):
        SimplicialComplex(3, [(0, 0, 1)])  # duplicate vertex
    with pytest.raises(InvalidComplexError):
        SimplicialComplex(3, [(0, 1)])  # vertex 2 phantom
    with pytest.raises(InvalidComplexError):
        SimplicialComplex(3, [(0, 1, 2), (0, 1)])  # contained facet
    with pytest.raises(InvalidComplexError):
        SimplicialComplex(2, [(0, 3)])  # out of range


def test_json_loader_names_offending_facet():
    with pytest.raises(InvalidComplexError, match="facet #1"):
        SimplicialComplex.from_json({"vertices": 3, "facets": [[0, 1], [2, 1]]})
    with pytest.raises(InvalidComplexError, match="facet #0"):
        SimplicialComplex.from_json({"vertices": 3, "facets": [[1, 1, 2]]})


def test_json_roundtrip(tmp_path):
    k = fixture("octahedron")
    path = tmp_path / "octa.json"
    k.dump(path)
    assert SimplicialComplex.load(path) == k


# Every construction message, in the order the checks run.  Vertices are
# refused unless their type is int, so bools and floats are refused too.
@pytest.mark.parametrize("vertex_count, facets, message", [
    (-1, [], "vertex count -1 is negative"),
    (3, [(0, 1, 2), ()], "empty facet"),
    (2, [[0, 1.0]], "facet #0 is not a list of integers"),
    (2, [(0,), [0, True]], "facet #1 is not a list of integers"),
    (2, [["a", 1]], "facet #0 is not a list of integers"),
    (3, [(1, 0)], "facet #0 ((1, 0)) is not sorted and duplicate-free"),
    (3, [(0, 1, 2), [0, 0, 1]], "facet #1 ([0, 0, 1]) is not sorted and duplicate-free"),
    (2, [(0, 3)], "facet (0, 3) has a vertex out of range"),
    (2, [(-1, 0)], "facet (-1, 0) has a vertex out of range"),
    (2, [(0, 1), [0, 1]], "facet [0, 1] listed twice"),
    (3, [(0, 1)], "vertex 2 appears in no facet (2 of 3 covered)"),
    (1, [], "vertex 0 appears in no facet (0 of 1 covered)"),
    (3, [(0, 1, 2), (0, 1)], "facet (0, 1) contained in facet (0, 1, 2)"),
    (5, [(0, 1, 2, 3), (3, 4), (4,)], "facet (4,) contained in facet (3, 4)"),
    (5, [(0, 1, 2, 3), (3, 4), (0,)], "facet (0,) contained in facet (0, 1, 2, 3)"),
], ids=["negative count", "empty", "float", "bool", "str", "unsorted", "duplicate vertex",
        "above range", "below range", "repeated", "uncovered", "no facets",
        "contained", "contained in the next size", "contained two sizes up"])
def test_constructor_messages_are_pinned(vertex_count, facets, message):
    with pytest.raises(InvalidComplexError) as exc:
        SimplicialComplex(vertex_count, facets)
    assert str(exc.value) == message


# -- lazy tables ---------------------------------------------------------------

def _built(k):
    """The names of the lazy tables built so far on k."""
    return [name for name in ("_small_table", "_adj_table", "_mask_table")
            if getattr(k, name) is not None]


def _assert_tables_match_oracle(k):
    small, adj, masks = eager_tables(k)
    every_face = [sorted({g for f in k.facets for g in combinations(f, d + 1)})
                  for d in range(k.dim() + 1)]
    fresh = SimplicialComplex(k.vertex_count, k.facets)
    # faces(d) scans the facets until the face hash is built, then reads it
    assert [fresh.faces(d) for d in range(fresh.dim() + 1)] == every_face
    assert _built(fresh) == []
    assert fresh._faces_small == small
    assert [fresh.faces(d) for d in range(fresh.dim() + 1)] == every_face
    assert fresh._adj == adj
    assert fresh._masks == masks
    assert [fresh.neighbors(v) for v in range(k.vertex_count)] == list(adj)
    # built once: later reads return the stored tables
    assert fresh._faces_small is fresh._faces_small and fresh._adj is fresh._adj
    assert fresh._masks is fresh._masks
    # read in the other order, from a second fresh copy
    other = SimplicialComplex(k.vertex_count, k.facets)
    assert other._masks == masks and other._adj == adj and other._faces_small == small


@pytest.mark.parametrize("name", fixture_names())
def test_lazy_tables_match_eager_oracle_on_registry(name):
    k = fixture(name)
    _assert_tables_match_oracle(k)
    _assert_tables_match_oracle(barycentric_subdivision(k))


@st.composite
def _small_complexes(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    faces = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1, max_size=6),
                          max_size=8))
    faces = [tuple(sorted(f)) for f in faces] + [(v,) for v in range(n)]
    return SimplicialComplex(n, maximal_faces(faces))


@given(_small_complexes())
@settings(max_examples=60, deadline=None)
def test_lazy_tables_match_eager_oracle_on_generated_complexes(k):
    _assert_tables_match_oracle(k)


def test_construction_and_subdivision_build_no_table():
    base = fixture("sd-boundary-4-simplex")
    k = SimplicialComplex(base.vertex_count, base.facets)
    sd = barycentric_subdivision(k)
    assert (sd.vertex_count, len(sd.facets)) == (540, 2880)
    again = SimplicialComplex(sd.vertex_count, sd.facets)
    assert _built(k) == _built(sd) == _built(again) == []


def test_concurrent_first_reads_see_complete_tables():
    base = barycentric_subdivision(fixture("boundary-16-cell"))
    small, adj, masks = eager_tables(base)
    k = SimplicialComplex(base.vertex_count, base.facets)
    barrier = threading.Barrier(6)
    seen = []

    def read():
        barrier.wait(timeout=10)
        # copies taken at once: a table published before it is full shows here
        seen.append((frozenset(k._faces_small), tuple(map(frozenset, k._adj)),
                     tuple(k._masks)))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert seen == [(small, adj, masks)] * 6


def test_check_hypotheses_builds_each_table_at_most_once(monkeypatch):
    builds = []

    def counting(name, slot):
        original = vars(SimplicialComplex)[name]
        read = original.fget if isinstance(original, property) else original

        def wrapper(self, *args):
            if getattr(self, slot) is None:
                builds.append((slot, self))  # holding self keeps each id unique
            return read(self, *args)
        return property(wrapper) if isinstance(original, property) else wrapper

    for name, slot in (("_faces_small", "_small_table"), ("_adj", "_adj_table"),
                       ("_masks", "_mask_table")):
        monkeypatch.setattr(SimplicialComplex, name, counting(name, slot))
    base = fixture("sd-boundary-4-simplex")
    k = SimplicialComplex(base.vertex_count, base.facets)
    report = check_hypotheses(k)
    assert report.checks["is_homology_3sphere"]
    keys = [(slot, id(obj)) for slot, obj in builds]
    assert len(keys) == len(set(keys))
    assert sorted(slot for slot, obj in builds if obj is k) == [
        "_adj_table", "_mask_table", "_small_table"]


# -- is_flag -----------------------------------------------------------------

def test_flag_boundary_4_simplex():
    report = is_flag(fixture("boundary-4-simplex"))
    assert not report.is_flag
    assert tuple(sorted(report.witness)) == (0, 1, 2, 3, 4)


def test_flag_c4():
    assert is_flag(fixture("c4")).is_flag


def test_flag_sd_boundary_4_simplex_against_oracle():
    sd = fixture("sd-boundary-4-simplex")
    assert is_flag(sd).is_flag
    assert brute_force_is_flag(sd)


def _assert_minimal_nonface_clique(k, w):
    edges = set(k.faces(1))
    assert all(tuple(sorted(p)) in edges for p in combinations(w, 2))
    assert not k.has_face(w)
    for i in range(len(w)):
        assert k.has_face(w[:i] + w[i + 1:])


def test_flag_witness_is_minimal_nonface_clique():
    k = fixture("boundary-4-simplex")
    _assert_minimal_nonface_clique(k, is_flag(k).witness)


@pytest.mark.parametrize("name", fixture_names())
def test_flag_matches_oracle_on_registry_and_subdivisions(name):
    k = fixture(name)
    report = is_flag(k)
    assert report.is_flag == brute_force_is_flag(k)
    if not report.is_flag:
        _assert_minimal_nonface_clique(k, report.witness)
    sd = barycentric_subdivision(k)
    assert is_flag(sd).is_flag and brute_force_is_flag(sd)


def _shuffled(k, seed):
    perm = list(range(k.vertex_count))
    random.Random(seed).shuffle(perm)
    return SimplicialComplex(k.vertex_count,
                             sorted(tuple(sorted(perm[v] for v in f)) for f in k.facets))


def _decagon():
    return SimplicialComplex(10, sorted(tuple(sorted((i, (i + 1) % 10))) for i in range(10)))


# The witness is part of the verify report and depends only on the complex:
# the lexicographically least maximal clique that is not a facet, shrunk
# from its largest vertex down.  On the shuffled RP^2_6 beside a 10-cycle
# that clique is the triangle (0, 4, 6), whatever order the neighbour sets
# iterate in.  The 4-dimensional complexes take the facet scan of
# ``has_face`` for cliques of 5 and 6; the boundary of the 23-simplex keeps
# its whole maximal clique, 24 vertices, as every 23 of them span a facet.
@pytest.mark.parametrize("complex_, witness", [
    (fixture("boundary-3-simplex"), (0, 1, 2, 3)),
    (fixture("boundary-4-simplex"), (0, 1, 2, 3, 4)),
    (fixture("projective-plane-6"), (0, 1, 2)),
    (fixture("s2-x-s1"), (0, 1, 2)),
    (fixture("torus-7"), (0, 1, 2)),
    (_shuffled(disjoint_union(_decagon(), fixture("projective-plane-6")), 0), (0, 4, 6)),
    (SimplicialComplex(6, list(combinations(range(6), 5))), (0, 1, 2, 3, 4, 5)),
    (join(fixture("boundary-4-simplex"), SimplicialComplex(2, [(0,), (1,)])),
     (0, 1, 2, 3, 4)),
    (SimplicialComplex(24, list(combinations(range(24), 23))), tuple(range(24))),
], ids=["boundary-3-simplex", "boundary-4-simplex", "projective-plane-6", "s2-x-s1",
        "torus-7", "shuffled rp2 beside c10", "boundary-5-simplex",
        "suspension of boundary-4-simplex", "boundary-23-simplex"])
def test_flag_witness_is_pinned(complex_, witness):
    assert is_flag(complex_) == (False, witness)


@pytest.mark.parametrize("complex_", [
    SimplicialComplex(0, []),
    SimplicialComplex(24, [tuple(range(24))]),
], ids=["empty", "one facet of 24 vertices"])
def test_flag_edge_cases_are_flag(complex_):
    assert is_flag(complex_) == (True, None)


def test_every_non_flag_registry_fixture_has_a_pinned_witness():
    pinned = {"boundary-3-simplex", "boundary-4-simplex", "projective-plane-6",
              "s2-x-s1", "torus-7"}
    assert {n for n in fixture_names() if not is_flag(fixture(n)).is_flag} == pinned


def test_flag_matches_oracle_on_random_complexes():
    rng = random.Random(7)
    non_flag = 0
    for _ in range(300):
        n = rng.randint(3, 12)
        facets = set()
        for _ in range(rng.randint(2, 12)):
            size = rng.randint(1, 7)
            facets.add(tuple(sorted(rng.sample(range(n), min(size, n)))))
        usable = sorted({v for f in facets for v in f})
        relabel = {v: i for i, v in enumerate(usable)}
        k = SimplicialComplex(len(usable), maximal_faces(
            tuple(sorted(relabel[v] for v in f)) for f in facets))
        report = is_flag(k)
        assert report.is_flag == brute_force_is_flag(k)
        if not report.is_flag:
            non_flag += 1
            _assert_minimal_nonface_clique(k, report.witness)
    assert non_flag > 100


# -- squares ------------------------------------------------------------------

def test_squares_c4():
    assert [s.cycle for s in find_squares(fixture("c4"))] == [(0, 1, 2, 3)]


def test_squares_octahedron_oracle():
    octa = fixture("octahedron")
    squares = find_squares(octa)
    assert len(squares) == 3
    assert squares == brute_force_squares(octa)


def test_squares_16_cell():
    squares = find_squares(fixture("boundary-16-cell"))
    assert len(squares) == 6
    assert squares == brute_force_squares(fixture("boundary-16-cell"))


def test_squares_match_oracle_on_random_flag_complexes():
    rng = random.Random(11)
    for _ in range(25):
        k = random_flag_complex(rng, max_vertices=9)
        assert find_squares(k) == brute_force_squares(k)


def test_square_invariants_validate():
    for name in ("c4", "octahedron", "boundary-16-cell", "two-squares-disjoint"):
        k = fixture(name)
        for s in find_squares(k):
            validate_square(s, k)


@pytest.mark.parametrize("cycle, side", [
    ((0, 1, 2, 4), (2, 4)), ((4, 1, 2, 3), (4, 1)), ((-1, 1, 2, 3), (-1, 1))])
def test_square_validate_rejects_vertices_outside_the_complex(cycle, side):
    with pytest.raises(ValueError, match=r"square side \(%d,%d\) is not an edge" % side):
        validate_square(Square(cycle), fixture("c4"))


def test_square_canonical_form_is_dihedral_least():
    images = [(0, 1, 2, 3), (1, 2, 3, 0), (3, 2, 1, 0), (2, 1, 0, 3)]
    assert all(Square.canonical(c).cycle == (0, 1, 2, 3) for c in images)


# -- the bit-mask kernels against the oracles ------------------------------------

def _spread(k, targets):
    """k with vertex v renamed targets[v], increasing, on targets[-1] + 1
    vertices; the vertices no target names are isolated points."""
    n = targets[-1] + 1
    isolated = sorted(set(range(n)) - set(targets))
    return SimplicialComplex(n, [tuple(targets[v] for v in f) for f in k.facets]
                             + [(v,) for v in isolated])


def _oracle_kernels(k, kinds=None):
    witnesses = brute_force_caprace_witnesses(k)
    if kinds is not None:
        kinds.update(kind for _, kind in witnesses)
    return (brute_force_flag_witness(k), brute_force_squares(k),
            witnesses[0] if witnesses else None, len(witnesses))


def _library_kernels(k):
    flag, scan = is_flag(k), scan_nonadjacent_pairs(k)
    assert flag.is_flag == (flag.witness is None) == brute_force_is_flag(k)
    return flag.witness, scan.squares, scan.caprace_witness, scan.caprace_witness_count


def test_mask_kernels_match_oracles_on_random_and_disconnected_complexes():
    rng = random.Random(24)
    kinds = Counter()
    for trial in range(60):
        k = random_complex(rng, 10)
        if trial % 3 == 0:
            k = disjoint_union(k, random_complex(rng, 6))
        witness, squares, _, _ = found = _library_kernels(k)
        assert found == _oracle_kernels(k, kinds)
        kinds.update(["non-flag"] * (witness is not None) + ["squares"] * bool(squares))
    assert min(kinds[key] for key in ("non-flag", "squares", "3-points", "edge-point")) >= 5, kinds


@pytest.mark.parametrize("size", [65, 129, 200])
def test_mask_kernels_match_oracles_past_one_machine_word(size):
    # the complex's vertices are spread over 0..size-1 with the largest
    # ones past 64 (or 128), so each mask spans several words; an increasing
    # renaming keeps every canonical form and every order
    rng = random.Random(size)
    counts = []
    for _ in range(16):
        k = random_complex(rng, 12)
        targets = sorted(rng.sample(range(size - 1), k.vertex_count - 1)) + [size - 1]

        def spread(face):
            return tuple(targets[v] for v in face)

        witness, squares, least, count = _oracle_kernels(k)
        assert _library_kernels(_spread(k, targets)) == (
            witness and spread(witness), [Square(spread(s.cycle)) for s in squares],
            least and (spread(least[0]), least[1]), count)
        counts.append((witness is not None, len(squares), count))
    assert all(map(any, zip(*counts))), counts
    # a sparse graph on all of them, and the same with one facet hollowed
    k = clique_complex(size, [e for e in combinations(range(size), 2)
                              if rng.random() < 6 / size])
    f = max(k.facets, key=len)
    hollow = SimplicialComplex(size, maximal_faces(
        [g for g in k.facets if g != f] + list(combinations(f, len(f) - 1))))
    for case in (k, hollow):
        assert is_flag(case).witness == brute_force_flag_witness(case)
    assert is_flag(hollow).witness == f


@pytest.mark.parametrize("complex_", [SimplicialComplex(0, []), SimplicialComplex(1, [(0,)])],
                         ids=["empty", "one vertex"])
def test_mask_kernels_on_the_smallest_complexes(complex_):
    assert complex_._masks == (0,) * complex_.vertex_count
    assert is_flag(complex_) == (True, None)
    assert scan_nonadjacent_pairs(complex_) == ([], None, 0)


def test_a_pair_with_one_common_neighbour_beside_a_square():
    # (1, 4) has only 0 in common and (2, 4) nothing; (1, 3) holds the square
    k = clique_complex(5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4)])
    assert scan_nonadjacent_pairs(k) == ([Square((0, 1, 2, 3))], None, 0)
    assert _oracle_kernels(k) == (None, [Square((0, 1, 2, 3))], None, 0)


@pytest.mark.parametrize("edges, message", [
    ([(0, 1), (1, 2), (2, -1)], r"edge \(2,-1\) has a vertex out of range for 4 vertices"),
    ([(0, 1), (1, 4)], r"edge \(1,4\) has a vertex out of range for 4 vertices"),
    ([(0, 1), (1, 5)], r"edge \(1,5\) has a vertex out of range for 4 vertices"),
    ([(1, 1)], r"loop edge \(1,1\)"),
], ids=["negative", "one past the end", "past the end", "loop"])
def test_clique_complex_names_a_bad_edge(edges, message):
    with pytest.raises(ValueError, match=message):
        clique_complex(4, edges)


# -- isolated squares ---------------------------------------------------------

def test_isolated_c4_and_disjoint_union():
    assert has_isolated_squares(find_squares(fixture("c4"))).has_isolated_squares
    assert has_isolated_squares(find_squares(fixture("two-squares-disjoint"))).has_isolated_squares


def test_isolated_octahedron_fails_with_vertex():
    squares = find_squares(fixture("octahedron"))
    report = has_isolated_squares(squares)
    assert not report.has_isolated_squares
    hits = [s for s in squares if report.offending_vertex in s.cycle]
    assert len(hits) >= 2


def test_isolated_implies_pairwise_disjoint():
    rng = random.Random(13)
    for _ in range(40):
        k = random_flag_complex(rng, max_vertices=10)
        squares = find_squares(k)
        if has_isolated_squares(squares).has_isolated_squares:
            seen = set()
            for s in squares:
                assert not (seen & set(s.cycle))
                seen |= set(s.cycle)


# -- links and full subcomplexes ------------------------------------------------

def test_vertex_link_examples():
    octa = fixture("octahedron")
    for v in range(6):
        link = vertex_link(octa, v)
        assert link.f_vector() == (4, 4)  # a 4-cycle
    tetra = fixture("boundary-3-simplex")
    for v in range(4):
        assert vertex_link(tetra, v).facets == ((0, 1), (0, 2), (1, 2))
    c4 = fixture("c4")
    for v in range(4):
        assert vertex_link(c4, v).facets == ((0,), (1,))
    with pytest.raises(ValueError):
        vertex_link(c4, 9)


def test_full_subcomplex_examples():
    d4 = fixture("boundary-4-simplex")
    assert full_subcomplex(d4, [0, 1, 2]).facets == ((0, 1, 2),)
    octa = fixture("octahedron")
    assert full_subcomplex(octa, [0, 1]).facets == ((0,), (1,))
    c4 = fixture("c4")
    assert full_subcomplex(c4, [0, 2]).facets == ((0,), (1,))


def test_link_commutes_with_full_subcomplex():
    rng = random.Random(17)
    for _ in range(20):
        k = random_flag_complex(rng, max_vertices=9)
        v = rng.randrange(k.vertex_count)
        nbrs = sorted(k.neighbors(v))
        if not nbrs:
            continue
        sub = sorted(rng.sample(nbrs, rng.randint(1, len(nbrs))))
        # restrict-then-link equals link-then-restrict, via consistent relabels
        keep = sorted(sub + [v])
        restricted = full_subcomplex(k, keep)
        v_new = keep.index(v)
        lhs = vertex_link(restricted, v_new)
        link = vertex_link(k, v)
        rhs = full_subcomplex(link, [nbrs.index(u) for u in sub])
        assert lhs == rhs


# -- barycentric subdivision ----------------------------------------------------

def test_subdivision_edge():
    sd = barycentric_subdivision(SimplicialComplex(2, [(0, 1)]))
    assert sd.vertex_count == 3
    assert len(sd.facets) == 2


def test_subdivision_solid_triangle():
    sd = barycentric_subdivision(SimplicialComplex(3, [(0, 1, 2)]))
    assert sd.vertex_count == 7
    assert len(sd.facets) == 6


def test_subdivision_boundary_4_simplex():
    sd = fixture("sd-boundary-4-simplex")
    assert sd.vertex_count == 30
    assert len(sd.facets) == 120


def test_subdivision_always_flag():
    rng = random.Random(19)
    for _ in range(15):
        k = random_flag_complex(rng, max_vertices=7)
        assert is_flag(barycentric_subdivision(k)).is_flag


@given(st.integers(min_value=3, max_value=8))
@settings(max_examples=6, deadline=None)
def test_subdivision_preserves_euler_characteristic(n):
    edges = [(i, (i + 1) % n) for i in range(n)]
    k = clique_complex(n, edges)
    assert euler_characteristic(barycentric_subdivision(k)) == euler_characteristic(k)


def test_subdivision_face_map_consistent():
    k = fixture("c4")
    sd, face_map = barycentric_subdivision(k), subdivision_face_map(k)
    assert len(face_map) == sd.vertex_count
    for (u, v) in k.faces(1):
        assert sd.has_face(tuple(sorted((face_map[(u,)], face_map[(u, v)]))))


@pytest.mark.parametrize("name", fixture_names())
def test_subdivision_matches_chain_oracle_on_registry(name):
    k = fixture(name)
    assert (barycentric_subdivision(k), subdivision_face_map(k)) == chain_subdivision(k)


def test_subdivision_matches_chain_oracle_on_random_flag_complexes():
    rng = random.Random(23)
    for _ in range(30):
        k = random_flag_complex(rng, max_vertices=9)
        assert (barycentric_subdivision(k), subdivision_face_map(k)) == chain_subdivision(k)


@pytest.mark.parametrize("name", ["join-c10-c10", "boundary-16-cell",
                                  "sd-boundary-4-simplex", "600-cell", "s2-x-s1"])
def test_carried_orientation_matches_certified_orientation_of_subdivision(name):
    # the sign rule (facet sign times the parity of the order in which the
    # flag adds vertices) against sign propagation over sd(K) from scratch
    k = fixture(name)
    orientation = is_closed_orientable_3manifold(k).orientation
    signed, face_map = oriented_subdivision(sorted(orientation.items()))
    sd = barycentric_subdivision(k)
    assert face_map == subdivision_face_map(k)
    assert sorted(f for f, _ in signed) == list(sd.facets)
    certified = is_closed_orientable_3manifold(sd).orientation
    flip = certified[signed[0][0]] * signed[0][1]
    assert all(certified[f] == flip * s for f, s in signed)


@pytest.mark.parametrize("name", ["boundary-16-cell", "600-cell", "join-c10-c10",
                                  "sd-boundary-4-simplex", "s2-x-s1"])
def test_carried_orientation_matches_certified_orientation_of_starring(name):
    # star an edge, then a triangle through one end of it and not the
    # other: some facets through the triangle are children of the first
    # starring, so they are found through the updated index
    k = fixture(name)
    orientation = is_closed_orientable_3manifold(k).orientation
    edge = k.faces(1)[0]
    triangle = next(t for t in k.faces(2) if edge[0] in t and edge[1] not in t
                    and any(set(t) | {edge[1]} <= set(f) for f in k.facets))
    signed = _stellar_subdivision(sorted(orientation.items()), [edge, triangle],
                                  k.vertex_count)
    starred = SimplicialComplex(k.vertex_count + 2, [f for f, _ in signed])
    assert not starred.has_face(edge) and not starred.has_face(triangle)
    certified = is_closed_orientable_3manifold(starred).orientation
    flip = certified[signed[0][0]] * signed[0][1]
    assert all(certified[f] == flip * s for f, s in signed)


def test_oriented_subdivision_of_a_triangle_and_mixed_sizes():
    signed, face_map = oriented_subdivision([((0, 1, 2), -1)])
    assert len(face_map) == 7 and len(signed) == 6
    # flag 0 < 01 < 012 follows the vertex order (0, 1, 2): the facet's sign
    assert ((face_map[(0,)], face_map[(0, 1)], face_map[(0, 1, 2)]), -1) in signed
    assert ((face_map[(1,)], face_map[(0, 1)], face_map[(0, 1, 2)]), 1) in signed
    signed, face_map = oriented_subdivision([((0, 1), 1), ((2,), 1)])
    assert signed == [((0, 3), 1), ((1, 3), -1), ((2,), 1)]


def test_maximal_faces_drops_contained_and_repeated_faces():
    assert maximal_faces([(0,), (0, 1), (1, 2), (0, 1), (2,), (3,)]) == [(0, 1), (1, 2), (3,)]
    assert maximal_faces([]) == []


def test_join_products():
    two = SimplicialComplex(2, [(0,), (1,)])
    octa = join(join(two, two), two)
    assert octa == fixture("octahedron")
    assert octa.f_vector() == (6, 12, 8)
