"""Acceptance suite: one test per criterion, exact tolerances throughout.

Run with -s to see the per-criterion pass lines.
"""

import random

from oracles import (all_graphs, brunnian_diagram, cokernel_functional,
                     cubical_euler_characteristic, cubical_f_vector, from_dense, hopf_diagram,
                     oracle_canonical, pk_vertex_link, simplicial_linking_number,
                     solomon_diagram, subdivide_link, three_chain_133_diagram,
                     whitehead_diagram)

from flatlink.complexes import (clique_complex, find_squares, has_isolated_squares,
                                is_flag)
from flatlink.coxeter import Racg, caprace_criterion, racg_from_skeleton
from flatlink.cubes import build_pk, cubical_chain_complex
from flatlink.fixtures import fixture, fixture_names, hopf_pair, split_pair
from flatlink.homology import (HomologyProfile, S3_PROFILE, homology, is_homology_3sphere,
                               simplicial_chain_complex, smith_normal_form)
from flatlink.links import (LinkingMatrix, ObstructionVerdict, diagram_linking_matrix,
                            linking_matrix, obstruction_report)


def _passed(n, text):
    print("PASS criterion %d: %s" % (n, text))


def test_criterion_1_diagram_linking_numbers_match_captions():
    assert diagram_linking_matrix(solomon_diagram()).entries[0][1] == 2
    assert diagram_linking_matrix(whitehead_diagram()).entries[0][1] == 0
    three = diagram_linking_matrix(three_chain_133_diagram())
    assert sorted(abs(x) for x in three.off_diagonal()) == [1, 3, 3]
    borromean = diagram_linking_matrix(brunnian_diagram(3))
    assert borromean.off_diagonal() == [0, 0, 0]
    _passed(1, "Solomon 2, Whitehead 0, three-component {1,3,3}, Borromean 0s")


def test_criterion_2_cubulation_of_the_square_is_the_torus():
    p = build_pk(fixture("c4"))
    assert cubical_f_vector(p.cells) == (16, 32, 16)
    assert cubical_euler_characteristic(p.cells) == 0
    assert homology(cubical_chain_complex(p)) == HomologyProfile(
        [(1, ()), (2, ()), (1, ())])
    _passed(2, "P over the 4-cycle: f=(16,32,16), chi=0, torus homology")


def test_criterion_3_vertex_links_canonical_exhaustive():
    checked = 0
    for name in fixture_names():
        k = fixture(name)
        if k.vertex_count > 8:
            continue
        p = build_pk(k)
        for cell in p.cells[0]:
            link = pk_vertex_link(p, cell.coset)
            assert link == k, (name, cell.coset)
            checked += 1
    assert checked >= 800  # several fixtures, all 2^|I| vertices each
    _passed(3, "vertex links identical to the base complex at %d cube vertices"
            % checked)


def test_criterion_4_isolated_squares_imply_caprace():
    corpus = [fixture(name) for name in fixture_names()]
    rng = random.Random(20260810)
    complexes = list(corpus)
    while len(complexes) < len(corpus) + 1000:
        n = rng.randint(4, 12)
        p = rng.uniform(0.15, 0.85)
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    edges.append((u, v))
        complexes.append(clique_complex(n, edges))
    counterexamples = 0
    isolated_count = 0
    for k in complexes:
        if has_isolated_squares(find_squares(k)).has_isolated_squares:
            isolated_count += 1
            if not caprace_criterion(k).passes:
                counterexamples += 1
    assert counterexamples == 0
    assert isolated_count > 50  # the implication is exercised, not vacuous
    _passed(4, "0 counterexamples over %d complexes (%d with isolated squares)"
            % (len(complexes), isolated_count))


def test_criterion_5_oracle_equivalence_hopf_and_split():
    _, hopf = hopf_pair()
    simp = simplicial_linking_number(hopf, 0, 1)
    diag = diagram_linking_matrix(hopf_diagram()).entries[0][1]
    assert abs(simp) == 1 and abs(diag) == 1  # equal up to the global sign
    _, split = split_pair()
    assert simplicial_linking_number(split, 0, 1) == 0
    _passed(5, "complement-class and half-sum methods agree on Hopf (1) and split (0)")


def test_criterion_6_subdivision_invariance():
    _, hopf = hopf_pair()
    base = linking_matrix(hopf)
    _, sd_hopf = subdivide_link(hopf)
    carried = linking_matrix(sd_hopf)
    assert carried == base
    _passed(6, "Hopf linking matrix unchanged under barycentric subdivision")


def test_criterion_7_homology_suite():
    assert homology(simplicial_chain_complex(fixture("boundary-4-simplex"))) == S3_PROFILE
    assert homology(simplicial_chain_complex(fixture("boundary-16-cell"))) == S3_PROFILE
    assert is_homology_3sphere(fixture("boundary-4-simplex")).is_homology_sphere
    assert is_homology_3sphere(fixture("boundary-16-cell")).is_homology_sphere
    rp2 = homology(simplicial_chain_complex(fixture("projective-plane-6")))
    assert rp2 == HomologyProfile([(1, ()), (0, (2,)), (0, ())])
    rng = random.Random(99)
    checked = 0
    for _ in range(40):
        rows = [[rng.randint(-6, 6) for _ in range(rng.randint(1, 5))]
                for _ in range(rng.randint(1, 5))]
        width = max(len(r) for r in rows)
        rows = [r + [0] * (width - len(r)) for r in rows]
        m = from_dense(rows)
        # carry the unit vectors and one image M x through the Smith form
        x = [(-2) ** j for j in range(width)]
        image = {i: v for i, row in enumerate(rows) if (v := sum(a * b for a, b in zip(row, x)))}
        snf = smith_normal_form(m, carried=[{i: 1} for i in range(m.rows)] + [image])
        free = m.rows - snf.rank()
        assert snf.carried[-1] == (0,) * free
        if free == 1:
            phi = cokernel_functional(rows)
            assert [c for (c,) in snf.carried[:-1]] in (phi, [-p for p in phi])
            checked += 1
        for a, b in zip(snf.invariants, snf.invariants[1:]):
            assert b % a == 0
    assert checked > 10
    _passed(7, "sphere profiles, Z/2 torsion, 40 carried images of M x read as 0, and "
            "%d free classes read as the cokernel functional" % checked)


def test_criterion_8_coxeter_suite():
    rng = random.Random(4)
    groups = 0
    for n in (1, 2, 3, 4):
        for edges in all_graphs(n):
            g = Racg(n, edges)
            groups += 1
            # multiplication table over the radius-4 ball, against the
            # commutation-closure oracle (full group when order <= 64)
            ball = sorted(g.ball(4), key=lambda w: (len(w), w))
            sample = ball if len(ball) <= 40 else rng.sample(ball, 40)
            for w in sample:
                for s in range(n):
                    assert g.normal_form(w + (s,)) == oracle_canonical(g, w + (s,))
    c4_group = racg_from_skeleton(fixture("c4"))
    sizes = c4_group.ball_sizes(4)
    assert sizes == [1, 4, 8, 12, 16]  # square-grid growth 4n
    assert all(sizes[k] == 4 * k for k in range(1, 5))
    _passed(8, "normal forms match brute force for %d groups; grid growth (1,4,8,12,16)"
            % groups)


def test_criterion_9_obstruction_decision_table():
    assert (obstruction_report(LinkingMatrix([[0, 2], [2, 0]])).verdict
            == ObstructionVerdict.LINKING_OBSTRUCTION)
    zero3 = LinkingMatrix([[0] * 3 for _ in range(3)])
    assert (obstruction_report(zero3, nontrivial_certificate=True).verdict
            == ObstructionVerdict.LINKING_OBSTRUCTION)
    assert (obstruction_report(zero3).verdict
            == ObstructionVerdict.ZERO_MATRIX_NEEDS_CERTIFICATE)
    mixed = LinkingMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    assert (obstruction_report(mixed, nontrivial_certificate=True).verdict
            == ObstructionVerdict.LINKING_OBSTRUCTION)
    assert (obstruction_report(mixed).verdict
            == ObstructionVerdict.MIXED_NEEDS_ISOTOPY_CHECK)
    assert (obstruction_report(LinkingMatrix([[0, 1], [1, 0]])).verdict
            == ObstructionVerdict.NO_OBSTRUCTION_DETECTED)
    _passed(9, "all four verdict classes fire on their matrices")


def test_criterion_10_negative_controls():
    d4 = fixture("boundary-4-simplex")
    assert not is_flag(d4).is_flag

    c16 = fixture("boundary-16-cell")
    assert is_flag(c16).is_flag
    assert is_homology_3sphere(c16).is_homology_sphere
    squares = find_squares(c16)
    assert len(squares) == 6
    isolated = has_isolated_squares(squares)
    assert not isolated.has_isolated_squares
    assert isolated.offending_vertex is not None

    susp = fixture("suspension-3-points")
    report = caprace_criterion(susp)
    assert not report.passes
    assert report.witness[0] == (0, 1, 2, 3, 4)
    assert report.count == 1
    _passed(10, "flagness, isolated-squares (6 squares), and forbidden-suspension "
               "controls all fail as required")
