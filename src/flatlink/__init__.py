"""Combinatorial toolkit around flag triangulations of the 3-sphere:
squares and their links, mirror cubulations, right-angled Coxeter groups
with Davis-complex balls, exact integer homology, and the linking-number
obstruction report."""

__version__ = "0.1.0"

from .complexes import (InvalidComplexError, IsomorphismWitness, SearchBudgetExceeded,
                        SimplicialComplex, Square, barycentric_subdivision,
                        clique_complex, disjoint_union, full_subcomplex, find_squares,
                        has_isolated_squares, is_flag, is_isomorphic, join,
                        vertex_link)
from .coxeter import (CapraceReport, DavisBall, FlatSubcomplex, Racg,
                      ResourceLimitError, caprace_criterion, davis_ball,
                      flat_from_square, racg_from_skeleton)
from .cubes import (CubicalCell, CubicalComplex, GroundSetTooLarge, build_pk,
                    cubical_chain_complex, pk_vertex_link, torus_subcomplex,
                    verify_vertex_links)
from .fixtures import (BuildOutcome, TypeLReport, attempt_type_l_build, fixture,
                       fixture_names, flagify, hopf_pair, product_triangulation,
                       solomon_pair, split_pair, verify_type_l, zigzag_cycle)
from .homology import (ChainComplex, HomologyProfile, IntegerMatrix, Manifold3Report,
                       SmithNormalForm, SphereReport, homology,
                       is_closed_orientable_3manifold, is_homology_3sphere,
                       simplicial_chain_complex, smith_normal_form)
from .links import (EdgeCycleLink, LinkingInternalError, LinkingMatrix,
                    ObstructionReport, ObstructionVerdict, PlanarDiagram,
                    brunnian_diagram, diagram_linking_matrix, hopf_diagram,
                    link_from_squares, linking_matrix, obstruction_report,
                    simplicial_linking_number, solomon_diagram, subdivide_link,
                    three_chain_133_diagram, whitehead_diagram,
                    whitehead_double_diagram)
