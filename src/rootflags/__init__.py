"""Uniform flag triangulations of the boundary of the full root polytope.

Exact combinatorial machinery for the 64 arrow-pair rule codes: the
classification into the lex, revlex and Simion classes, exhaustive
support/linkage axiom verification, constructive support matchings, and
refined face enumeration checked against exact generating functions.
"""

from types import ModuleType as _ModuleType

from .rules import (
    ALIASES,
    Arrow,
    ClassLabel,
    PairRelation,
    RuleSet,
    TABLE_ROW_ORDER,
    alias_of,
    all_rulesets,
    arrows_of,
    classify,
    is_edge,
    orbit_census,
    orbit_of,
    orbits,
    pair_relation,
    valid_rulesets,
)
from .complexes import (
    Face,
    FaceTable,
    ResourceLimitError,
    dimension_face_count,
    enumerate_faces,
    excess_degree,
    excess_degree_formula,
    excess_signature,
    face_table,
)
from .axioms import (
    AxiomReport,
    BipartiteEnsemble,
    MultiplicityError,
    check_linkage_axiom,
    check_permissible,
    check_support_axiom,
    me_axioms,
    phi,
    phi_inverse,
    postnikov_compatible,
    restriction_ensemble,
    spanning_trees,
    support_matching,
    verify,
)
from .matchings import (
    THWord,
    canonical_backward_matching,
    canonical_forward_matching,
    construct_matching,
    dyck_classify,
    th_word,
)

# the package's own imports also bind its submodules, which are not exported
__all__ = [
    name
    for name, value in vars().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
__version__ = "0.1.0"
