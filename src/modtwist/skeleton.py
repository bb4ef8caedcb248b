"""Branch-word encodings of subgroups generated by two Dehn twists.

A proper non-cyclic subgroup generated by two positive Dehn twists is
free of rank two, and its coset graph is a pseudo-tree: two monogons
joined by a segment carrying a sequence of up/down branches.  We store
only the branch word (serialized over 'u'/'d'); an upward branch
contributes an L and a downward branch an R to the word A in the
monodromy at infinity L.L.A.L.L.At.

The marked variant records which of the (at most two) strong classes of
2-factorizations the marking's base edge selects: "left" for the first
canonical class, "right" for the second.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Union

from .diagrams import _axis_reading, word_transpose
from .errors import DomainError
from .factorization import analyze, pair
from .psl2 import GroupElement, TwistVector, _run_product, dehn_twist

__all__ = [
    "PseudoTree",
    "MarkedPseudoTree",
    "FULL_GROUP",
    "CYCLIC",
    "monodromy_at_infinity",
    "from_twists",
]

_BRANCH_TO_LETTER = str.maketrans("ud", "LR")
_LETTER_TO_BRANCH = str.maketrans("LR", "ud")


class PseudoTree(namedtuple("PseudoTree", "branches")):
    """Branch directions along the segment joining the two monogons."""

    __slots__ = ()

    def __new__(cls, branches: str = "") -> "PseudoTree":
        if set(branches) - {"u", "d"}:
            raise DomainError(f"branches must use letters u/d: {branches!r}")
        return tuple.__new__(cls, (branches,))


class MarkedPseudoTree(namedtuple("MarkedPseudoTree", "tree marking")):
    __slots__ = ()

    def __new__(cls, tree: PseudoTree, marking: str) -> "MarkedPseudoTree":
        if marking not in ("left", "right"):
            raise DomainError(f"marking must be left or right: {marking!r}")
        return tuple.__new__(cls, (tree, marking))


FULL_GROUP = "full_group"
CYCLIC = "cyclic"


def monodromy_at_infinity(tree: PseudoTree) -> GroupElement:
    """Evaluate L.L.A.L.L.At for the tree's branch word A (u -> L, d -> R)."""
    a_word = tree.branches.translate(_BRANCH_TO_LETTER)
    return _run_product("LL" + a_word + "LL" + word_transpose(a_word))


def from_twists(
    u: TwistVector | tuple[int, int], v: TwistVector | tuple[int, int]
) -> Union[str, MarkedPseudoTree]:
    """The subgroup generated by two twists: FULL_GROUP, CYCLIC, or its tree.

    The two twists generate the whole group iff the vectors span (wedge
    product +-1) and a cyclic group iff they are parallel; otherwise the
    subgroup is free on the twists and the marked pseudo-tree is recovered
    from the strong class of the pair (t_u, t_v).
    """
    u, v = TwistVector(*u), TwistVector(*v)
    wedge = u.p * v.q - u.q * v.p
    if abs(wedge) == 1:
        return FULL_GROUP
    if wedge == 0:
        return CYCLIC
    fact = pair(dehn_twist(u), dehn_twist(v))
    analysis = analyze(fact.product)
    idx = analysis.locate(fact)
    a_word = _axis_reading(analysis.cls.diagram, analysis.labels[idx].anchor)
    tree = PseudoTree(a_word.translate(_LETTER_TO_BRANCH))
    return MarkedPseudoTree(tree, "left" if idx == 0 else "right")

