"""Combinatorial toolkit around flag triangulations of the 3-sphere:
squares and their links, mirror cubulations, right-angled Coxeter groups
with Davis-complex balls, exact integer homology, and the linking-number
obstruction report.

The exports are lazy (PEP 562): ``import flatlink`` loads no submodule,
and the first access to an export imports the module that defines it.
No export shares a submodule's name: loading ``flatlink.homology`` binds
the module there, so the function is ``flatlink.homology.homology``.
"""

import importlib

__version__ = "0.1.0"

# export name -> defining module
_EXPORTS = {name: module for module, names in (
    ("complexes", "InvalidComplexError SimplicialComplex Square barycentric_subdivision "
                  "clique_complex disjoint_union full_subcomplex find_squares "
                  "has_isolated_squares is_flag join scan_nonadjacent_pairs vertex_link"),
    ("coxeter", "CapraceReport DavisBall Racg ResourceLimitError caprace_criterion "
                "davis_ball racg_from_skeleton"),
    ("cubes", "CubicalCell CubicalComplex GroundSetTooLarge build_pk cubical_chain_complex "
              "facet_cells pk_f_vector pk_homology"),
    ("fixtures", "TypeLReport fixture fixture_names hopf_pair product_triangulation "
                 "solomon_pair split_pair verify_type_l zigzag_cycle"),
    ("homology", "ChainComplex HomologyProfile HypothesisReport IntegerMatrix Manifold3Report "
                 "SmithNormalForm SphereReport check_hypotheses is_closed_orientable_3manifold "
                 "is_homology_3sphere simplicial_chain_complex smith_normal_form"),
    ("links", "EdgeCycleLink LinkingInternalError LinkingMatrix ObstructionReport "
              "ObstructionVerdict PlanarDiagram diagram_linking_matrix linking_matrix "
              "obstruction_report"),
) for name in names.split()}
__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(importlib.import_module("." + module, __name__), name)
