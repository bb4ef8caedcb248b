"""Input checks: each call below is refused with DomainError."""

import pytest

from modtwist.diagrams import (
    CyclicDiagram,
    axis_word,
    build_disjoint_axis_diagram,
    build_shared_axis_diagram,
    canonical_rotation,
    is_even_word,
    para_symmetries,
)
from modtwist.errors import DomainError
from modtwist.factorization import (
    Factorization,
    decide_strong_equivalence,
    decide_weak_equivalence,
    pair,
)
from modtwist.necklace import orbit
from modtwist.obstructions import QuotientReport
from modtwist.psl2 import (
    L,
    R,
    X,
    ConjugacyClass,
    RealStructure,
    SyllableWord,
    cutting_conjugator,
)
from modtwist.skeleton import MarkedPseudoTree, PseudoTree

# an axis of LLLLLLRR that LLLLRRLLLLRR lacks: axis 1 read from anchors (0, 4)
_FOREIGN_AXIS = para_symmetries(CyclicDiagram("LLLLLLRR"))[0]

REFUSED = {
    "empty cyclic word": lambda: canonical_rotation(""),
    "letter outside L/R": lambda: CyclicDiagram("LXR"),
    "even test of a letter outside L/R": lambda: is_even_word("LXR"),
    "para-symmetry of another diagram": lambda: axis_word(
        CyclicDiagram("LLLLRRLLLLRR"), _FOREIGN_AXIS
    ),
    "negative chain parameter": lambda: build_shared_axis_diagram(-1),
    "insert outside L/R": lambda: build_disjoint_axis_diagram((1, 3), "LX"),
    "adjacent syllables of one factor": lambda: SyllableWord((("X", 1), ("X", 1))),
    "bad syllable": lambda: SyllableWord((("Y", 2),)),
    "parabolic class without index": lambda: ConjugacyClass("parabolic"),
    "hyperbolic word lacking R": lambda: ConjugacyClass("hyperbolic", CyclicDiagram("LLL")),
    "parabolic class with both letters": lambda: ConjugacyClass("parabolic", CyclicDiagram("LR")),
    "real structure of determinant 1": lambda: RealStructure(1, 0, 0, 1),
    "real structure not an involution": lambda: RealStructure(1, 1, 1, 0),
    "cutting word of an elliptic element": lambda: cutting_conjugator(X),
    "strong equivalence of a non-pair": lambda: decide_strong_equivalence(
        Factorization((R,)), Factorization((R,))
    ),
    "weak equivalence of unequal products": lambda: decide_weak_equivalence(
        pair(R, R), pair(R, L.inverse())
    ),
    "unknown necklace category": lambda: orbit("OS", "bogus"),
    "solvable without solutions": lambda: QuotientReport(2, True, 0),
    "branch letter outside u/d": lambda: PseudoTree("x"),
    "marking neither left nor right": lambda: MarkedPseudoTree(PseudoTree(), "up"),
}


@pytest.mark.parametrize("call", REFUSED.values(), ids=REFUSED.keys())
def test_input_is_refused(call):
    with pytest.raises(DomainError):
        call()
