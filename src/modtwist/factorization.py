"""Dehn-twist factorizations, Hurwitz moves and 2-factorization classes.

A 2-factorization of g is an ordered pair of positive Dehn twists whose
product is g.  Strong equivalence is generated by the single Hurwitz move
(m1, m2) -> (m1 m2 m1^-1, m1), an integer transvection on the twist
vectors (see _move); weak equivalence allows an additional global
conjugation.  Since the braid group on two strands is infinite cyclic, the
strong orbit of a pair is the bi-infinite sequence of iterated Hurwitz
moves, and the square of the move conjugates the pair by its product g.
Every other pair along the walk therefore has its first twist vector in
one <g>-orbit, whose norms p^2 + q^2 (|b| + |c| of the twist) follow
A mu^k + B mu^-k + C for hyperbolic g (both coefficients positive, since
an integer vector is never an eigenvector) and a quadratic in k for
parabolic g: a strictly convex function of k.  Once such a norm has risen
it keeps rising, and each pair shares a twist with its neighbour on the
walk, which makes strong equivalence decidable by an exact walk on vector
pairs (see _walk).  A finite orbit holds one pair (equal twists) or three
(g conjugate to X, the only elliptic product of two twists).

Existence and the count of strong classes are governed by the
para-symmetries of the cyclic diagram: an element is 2-factorizable iff
it is conjugate to X, to R^2, or presents as L.L.A.L.L.At, and each
presentation yields the explicit pair

    L.L.A.L.L.At = (X L^-1 X^-1) * ((Y A X) L^-1 (Y A X)^-1).
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, lru_cache
from itertools import accumulate, repeat

from .diagrams import _axis_reading, para_symmetries, reflection_symmetries
from .errors import DomainError, VerificationError
from .obstructions import trace_test
from .psl2 import (
    L,
    R,
    X,
    Y,
    GroupElement,
    TwistVector,
    _classify_full,
    _run_product,
    classify,
    dehn_twist,
    primitive_root,
    product,
    twist_vector,
)

__all__ = [
    "Factorization",
    "StrongClassLabel",
    "FactorizationRealityReport",
    "Analysis",
    "analyze",
    "pair",
    "hurwitz_move",
    "exists_2factorization",
    "canonical_2factorizations",
    "strong_class_labels",
    "count_classes",
    "decide_strong_equivalence",
    "decide_weak_equivalence",
    "factorization_reality",
]


def _read_only(self, name, *value):
    """Refuses to set or delete an attribute of a record that keeps some
    beside its fields, in an instance dict (no __slots__)."""
    raise AttributeError(f"cannot assign to {name!r} of a {type(self).__name__}")


class Factorization(namedtuple("Factorization", "factors")):
    """An ordered sequence of positive Dehn twists, with their twist vectors.

    The one field is the factors, so equality and hashing are those of
    (factors,); the twist vectors are kept beside them, read-only.
    """

    def __new__(cls, factors: tuple[GroupElement, ...]) -> "Factorization":
        vectors = tuple(map(twist_vector, factors))
        if None in vectors:
            bad = factors[vectors.index(None)]
            raise DomainError(f"factor {bad} is not a positive Dehn twist")
        self = tuple.__new__(cls, (factors,))
        self.__dict__["vectors"] = vectors
        return self

    __setattr__ = __delattr__ = _read_only

    @property
    def product(self) -> GroupElement:
        return product(self.factors)

    def __len__(self):
        return len(self.factors)

    def conjugated_by(self, h: GroupElement) -> "Factorization":
        return Factorization(tuple(f.conjugated_by(h) for f in self.factors))


def pair(m1: GroupElement, m2: GroupElement) -> Factorization:
    return Factorization((m1, m2))


def _move(u: TwistVector, v: TwistVector, direction: int) -> tuple[TwistVector, TwistVector]:
    """The Hurwitz move on the twist vectors of a pair (direction -1 inverts it).

    t_u acts on row vectors as x -> x + (u^x) u, with u^x = u0 x1 - u1 x0, and
    h^-1 t_v h = t_{v h}; so (t_u t_v t_u^-1, t_u) is (v - (u^v) u, u) and
    (t_v, t_v^-1 t_u t_v) is (v, u - (u^v) v), whatever the signs of u and v.
    """
    (p, q), (r, s) = u, v
    wedge = p * s - q * r
    if direction >= 0:
        return TwistVector(r - wedge * p, s - wedge * q), u
    return v, TwistVector(p - wedge * r, q - wedge * s)


def hurwitz_move(f: Factorization, i: int, direction: int = 1) -> Factorization:
    """Hurwitz move at 1-based position i; direction is 1, or -1 for the inverse move."""
    if not 1 <= i < len(f):
        raise DomainError(f"move index {i} out of range for length {len(f)}")
    if direction not in (1, -1):
        raise DomainError(f"move direction must be 1 or -1, not {direction}")
    u, v = _move(f.vectors[i - 1], f.vectors[i], direction)
    return Factorization(f.factors[: i - 1] + (dehn_twist(u), dehn_twist(v)) + f.factors[i + 1 :])


class StrongClassLabel(namedtuple("StrongClassLabel", "kind axis anchor", defaults=(None, None))):
    """Label of a strong equivalence class of 2-factorizations.

    kind "full_group" is the class of (R, L^-1) with elliptic product;
    "equal_twists" the class of (R, R); "axis" carries the para-symmetry
    axis on the canonical diagram together with the anchor offset at which
    the presentation L.L.A.L.L.At is read.
    """

    __slots__ = ()

    def describe(self) -> str:
        if self.kind == "axis":
            return f"axis(c={self.axis}, anchor={self.anchor})"
        return self.kind


_L_INVERSE = L.inverse()
# the first twist of every axis pair, X L^-1 X^-1 (module docstring)
_AXIS_FIRST = X * _L_INVERSE * X.inverse()


def _verify(fact: Factorization, g: GroupElement) -> Factorization:
    if fact.product != g:
        raise VerificationError(f"canonical factorization multiplies to {fact.product}, not {g}")
    return fact


class Analysis(namedtuple("Analysis", "element cls labels")):
    """Everything the 2-factorization queries of one element read.

    labels names the element's strong classes, one label each: full_group
    (conjugate to X), equal_twists (conjugate to R^2), one axis label per
    para-symmetry of the class's cyclic diagram cls.diagram (negative
    parabolic or hyperbolic), or none (never 2-factorizable).  The class and
    the labels are computed at once; the canonical pairs on first use, and
    are then kept on the record (cached_property writes the instance dict).
    """

    __setattr__ = __delattr__ = _read_only

    @cached_property
    def canonical(self) -> tuple[tuple[Factorization, StrongClassLabel], ...]:
        """One verified (representative, label) per strong class."""
        return tuple((_verify(self._pair(label), self.element), label) for label in self.labels)

    def _pair(self, label: StrongClassLabel) -> Factorization:
        """The pair of the labelled class, conjugated to multiply to the element."""
        # g = h^-1 * rep * h, rep X = R L^-1, R^2 or evaluate(diagram.letters)
        _, h, _ = _classify_full(self.element)
        if label.kind != "axis":
            return pair(R, _L_INVERSE if label.kind == "full_group" else R).conjugated_by(h)
        diagram = self.cls.diagram
        rotated = diagram.rotated(label.anchor)
        wing = Y * _run_product(_axis_reading(diagram, label.anchor)) * X
        second = _L_INVERSE.conjugated_by(wing.inverse())  # wing * L^-1 * wing^-1
        if _AXIS_FIRST * second != _run_product(rotated):
            raise VerificationError(f"the pair read at axis {label.axis} does not give {rotated}")
        # g = (prefix^-1 h)^-1 * evaluate(rotated) * (prefix^-1 h)
        prefix = _run_product(diagram.letters[: label.anchor])
        return pair(_AXIS_FIRST, second).conjugated_by(prefix.inverse() * h)

    def locate(self, fact: Factorization) -> int:
        """Index of the one canonical strong class that holds the pair fact."""
        g = self.element
        if len(fact) != 2 or fact.product != g:
            raise DomainError(f"{fact} is not a pair of twists with product {g}")
        matches = _walk(fact, [canonical for canonical, _ in self.canonical])
        if len(matches) != 1:
            raise VerificationError(f"{fact} lies in {len(matches)} strong classes of {g}")
        return matches[0]


# The size covers the 410 elements a pass of the benchmark's pendant_stream
# workload analyses (313 of its 1,600 distinct monodromies pass the trace
# test, and the rest are monodromies of its shifted and inverted words) and
# the 859 (nonoriented) or 1,290 (oriented) half-word products of the
# k = 2, w = 2 keyed join that pass the trace test; the enumeration reads
# the canonical pairs of only 293 or 535 of them, the monodromies of its
# orbit minima.  Records are immutable apart from their lazily cached
# fields, and every query returns a fresh list.
@lru_cache(maxsize=4096)
def analyze(g: GroupElement) -> Analysis:
    """The shared, memoized 2-factorization analysis of g."""
    cls = classify(g)
    if cls.kind == "elliptic_order3_pos":
        labels = (StrongClassLabel("full_group"),)
    elif cls.kind == "parabolic" and cls.index == 2:
        labels = (StrongClassLabel("equal_twists"),)
    elif cls.kind == "hyperbolic" or cls.kind == "parabolic" and cls.index < 0:
        labels = tuple(
            StrongClassLabel("axis", s.axis, min(s.anchor_starts))
            for s in para_symmetries(cls.diagram)
        )
    else:
        labels = ()
    return Analysis(g, cls, labels)


def exists_2factorization(g: GroupElement) -> bool:
    """True iff g is a product of two positive Dehn twists."""
    # a twist pair has SL trace 2 - w^2, so failing the trace test is an exact
    # no, and 7 in 8 k = 2, w = 2 half-word products then fill no memo entry
    return trace_test(g) and bool(analyze(g).labels)


def canonical_2factorizations(g: GroupElement) -> list[Factorization]:
    """One verified representative per strong equivalence class (0, 1 or 2)."""
    return [fact for fact, _ in analyze(g).canonical]


def strong_class_labels(g: GroupElement) -> list[StrongClassLabel]:
    """Labels parallel to canonical_2factorizations(g)."""
    return [label for _, label in analyze(g).canonical]


def count_classes(g: GroupElement) -> tuple[int, int]:
    """(strong, weak) counts of equivalence classes of 2-factorizations."""
    analysis = analyze(g)
    strong = len(analysis.labels)
    # the two classes of the L^4 class are conjugate by a root of it
    if analysis.cls.kind == "parabolic" and strong == 2:
        return 2, 1
    return strong, strong


def _walk(f: Factorization, targets: list[Factorization]) -> list[int]:
    """Indices of the target pairs on the strong orbit of the pair f.

    Walks the twist vectors of f both ways with _move and validates nothing.
    On an infinite orbit the first-vector norms at every other step are
    strictly convex (see the module docstring): once the norm at step s has
    risen over step s - 2, it keeps rising at that parity.  A later pair of
    the other parity holds the first vector of an adjacent step of that
    parity, at or beyond s, as the move keeps u and its inverse keeps v.  So
    once that norm also exceeds bound, the largest norm of a target vector,
    no later pair is a target.  A finite orbit has at most three pairs, each
    at most one move from f either way, so the cutoff, which needs two
    moves, skips none.
    """
    at: dict[tuple[TwistVector, ...], list[int]] = {}
    for i, target in enumerate(targets):
        at.setdefault(target.vectors, []).append(i)
    bound = max((p * p + q * q for t in targets for p, q in t.vectors), default=0)
    start, hits = f.vectors, []
    for direction in (1, -1):
        (u, v), norms = start, [start[0][0] ** 2 + start[0][1] ** 2]
        while not (len(norms) > 2 and norms[-3] < norms[-1] > bound):
            hits += at.pop((u, v), ())
            if not at:  # every target found
                return sorted(hits)
            u, v = _move(u, v, direction)
            if (u, v) == start:  # a finite orbit, fully explored
                return sorted(hits)
            norms.append(u[0] * u[0] + u[1] * u[1])
    return sorted(hits)


def decide_strong_equivalence(f1: Factorization, f2: Factorization) -> bool:
    """True iff f1 and f2 are related by Hurwitz moves alone (see _walk)."""
    if len(f1) != 2 or len(f2) != 2:
        raise DomainError("strong equivalence is implemented for pairs")
    if f1.product != f2.product:
        raise DomainError("strong equivalence preserves the product; products differ")
    return bool(_walk(f1, [f2]))


def decide_weak_equivalence(f1: Factorization, f2: Factorization) -> bool:
    """True iff f1 and f2 are related by Hurwitz moves plus a conjugation.

    The conjugation centralizes the common product g, so it is a power of
    the primitive root of g, whose n-th power g is two Hurwitz moves.  The
    only elliptic product of two positive twists is the class of X, which
    has one strong class, so the strong test has answered every elliptic
    pair before the primitive root, which an elliptic g lacks, is taken.
    """
    g = f1.product
    if g != f2.product:
        raise DomainError("weak equivalence is decided for equal products")
    if decide_strong_equivalence(f1, f2):
        return True
    root, n = primitive_root(g)
    powers = accumulate(repeat(root, n - 1), GroupElement.__mul__)  # root, ..., root^(n - 1)
    return bool(_walk(f2, [f1.conjugated_by(power) for power in powers]))


class FactorizationRealityReport(
    namedtuple(
        "FactorizationRealityReport",
        "applicable reason classes real_structure_count",
        defaults=(None, (), None),
    )
):
    """Reality of the strong classes of 2-factorizations of one element.

    classes holds "real" or "swapped-with-partner" per strong class;
    real_structure_count is the number of reflection axes of the cyclic
    diagram (for parabolic/hyperbolic) or 2 for the elliptic and R^2 cases,
    which admit both types of real structures.
    """

    __slots__ = ()


def factorization_reality(g: GroupElement) -> FactorizationRealityReport:
    """Which strong classes of 2-factorizations of g are real."""
    analysis = analyze(g)
    labels = analysis.labels
    if not labels:
        return FactorizationRealityReport(False, reason="no 2-factorization exists")
    if labels[0].kind != "axis":
        return FactorizationRealityReport(True, classes=("real",), real_structure_count=2)
    diagram = analysis.cls.diagram
    reflections = len(reflection_symmetries(diagram))
    if analysis.cls.kind == "parabolic":
        # the L^4 class: both classes real, two of the four reflections
        # preserve each of them and the two others swap them
        return FactorizationRealityReport(
            True, classes=("real", "real"), real_structure_count=reflections
        )
    if reflections == 0:
        return FactorizationRealityReport(
            False, reason="element is not real", real_structure_count=0
        )
    if len(labels) == 1:
        a_word = _axis_reading(diagram, labels[0].anchor)
        if a_word != a_word[::-1]:
            raise VerificationError(f"real one-axis element {g} has a non-palindromic wing")
        return FactorizationRealityReport(
            True, classes=("real",), real_structure_count=reflections
        )
    return FactorizationRealityReport(
        True,
        classes=("swapped-with-partner", "swapped-with-partner"),
        real_structure_count=reflections,
    )

