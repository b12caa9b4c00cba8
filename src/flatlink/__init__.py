"""Combinatorial toolkit around flag triangulations of the 3-sphere:
squares and their links, mirror cubulations, right-angled Coxeter groups
with Davis-complex balls, exact integer homology, and the linking-number
obstruction report."""

__version__ = "0.1.0"

from .complexes import (InvalidComplexError, SimplicialComplex, Square, barycentric_subdivision,
                        clique_complex, disjoint_union, full_subcomplex, find_squares,
                        has_isolated_squares, is_flag, join, scan_nonadjacent_pairs,
                        vertex_link)
from .coxeter import (CapraceReport, DavisBall, Racg, ResourceLimitError, caprace_criterion,
                      davis_ball, racg_from_skeleton)
from .cubes import (CubicalCell, CubicalComplex, GroundSetTooLarge, build_pk,
                    cubical_chain_complex, pk_f_vector, pk_homology)
from .fixtures import (HypothesisReport, TypeLReport, check_hypotheses, fixture,
                       fixture_names, hopf_pair, product_triangulation, solomon_pair,
                       split_pair, verify_type_l, zigzag_cycle)
from .homology import (ChainComplex, HomologyProfile, IntegerMatrix, Manifold3Report,
                       SmithNormalForm, SphereReport, homology,
                       is_closed_orientable_3manifold, is_homology_3sphere,
                       simplicial_chain_complex, smith_normal_form)
from .links import (EdgeCycleLink, LinkingInternalError, LinkingMatrix,
                    ObstructionReport, ObstructionVerdict, PlanarDiagram,
                    brunnian_diagram, diagram_linking_matrix, hopf_diagram,
                    linking_matrix, obstruction_report, simplicial_linking_number,
                    solomon_diagram, subdivide_link, three_chain_133_diagram,
                    whitehead_diagram, whitehead_double_diagram)
