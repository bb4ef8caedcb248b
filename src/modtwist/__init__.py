"""modtwist: the 2-factorization calculus of PSL(2,Z) and its applications.

Decides existence, counts and constructs factorizations of modular group
elements into products of two positive Dehn twists, classifies the
cyclic-diagram symmetries that govern them, and enumerates the necklace
diagrams and junction words of maximal real elliptic Lefschetz fibrations
and real trigonal M-curves.
"""

from .diagrams import (
    CyclicDiagram,
    DiagramForm,
    ParaSymmetry,
    axis_word,
    build_disjoint_axis_diagram,
    build_shared_axis_diagram,
    canonical_rotation,
    is_even_word,
    para_symmetries,
    recognize,
    reflection_symmetries,
    word_transpose,
)
from .errors import BudgetError, DomainError, ParseError, VerificationError
from .factorization import (
    Analysis,
    Factorization,
    FactorizationRealityReport,
    StrongClassLabel,
    analyze,
    canonical_2factorizations,
    count_classes,
    decide_strong_equivalence,
    decide_weak_equivalence,
    exists_2factorization,
    factorization_reality,
    hurwitz_move,
    oracle_products,
    pair,
    strong_class_labels,
)
from .mcurve import (
    branch_word,
    canonical_class,
    classes_sharing_real_part,
    flat_diagram,
    flip,
    horizontal_flip,
    junction_pair_count,
    monodromy_class,
    parse_junction_word,
    vertical_flip,
)
from .necklace import (
    CATEGORIES,
    EnumerationResult,
    NecklaceClass,
    NecklaceStats,
    canonicalize,
    dual,
    enumerate_classes,
    inverse,
    monodromy,
    pendants,
    shift,
    stats,
    transform,
    twisted_monodromy,
    twisted_shift,
)
from .obstructions import QuotientReport, finite_quotient_test, trace_test
from .psl2 import (
    IDENTITY,
    L,
    R,
    TAU1,
    TAU2,
    X,
    Y,
    ConjugacyClass,
    GroupElement,
    RealStructure,
    SyllableWord,
    TwistVector,
    abelian_degree,
    classify,
    conjugator_to_rep,
    dehn_twist,
    evaluate,
    is_real_element,
    normal_form,
    parse_element,
    parse_matrix,
    primitive_root,
    real_involution,
    twist_vector,
)
from .skeleton import (
    CYCLIC,
    FULL_GROUP,
    MarkedPseudoTree,
    PseudoTree,
    from_twists,
    is_even_tree,
    isomorphic,
    monodromy_at_infinity,
)

__version__ = "0.1.0"
