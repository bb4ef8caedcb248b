"""Exact arithmetic, normal forms and conjugacy in the modular group PSL(2,Z).

Conventions
-----------
Matrices act on row vectors on the right, so products read left to right.
The generators are fixed as

    X = [[1, -1], [1, 0]]      (order 3)
    Y = [[0, 1], [-1, 0]]      (order 2)
    L = X*Y  = [[1, 1], [0, 1]]
    R = X^2*Y = [[1, 0], [1, 1]]

which satisfy X^3 = Y^2 = -id in SL(2,Z), X = R*L^-1 and
Y = L*R^-1*L = R^-1*L*R^-1.  The positive Dehn twist along a primitive
row vector (p, q) is

    twist(p, q) = [[1 - p*q, -q^2], [p^2, 1 + p*q]],

so twist(1, 0) = R and twist(0, 1) = L^-1; positive twists form the
conjugacy class of R, and L lies in the *inverse* twist class.

Elements of PSL(2,Z) are stored as the SL(2,Z) lift whose first nonzero
entry in reading order (a, b, c, d) is positive.  Like every value type
of the package, GroupElement and TwistVector are read-only namedtuple
records validated in __new__: ``a, b, c, d = g`` unpacks an element and
``g == (a, b, c, d)`` holds, and a TwistVector is the record (p, q)
likewise.  namedtuple's _make and _replace skip the checks, and a CI step
refuses them in package code.  The tuple's concatenation, repetition and
ordering raise TypeError, and ``g * h`` is the group product.  The
products the package builds itself (runs of L and R, parsed words,
conjugates, real involutions, stone words) multiply the entries as
integers and build one checked element per result.  Python integers
are unbounded, so no overflow handling is needed anywhere; an element
whose normal form would exceed QUOTIENT_SUM_CAP L-steps is refused with
BudgetError.

A parabolic or hyperbolic ConjugacyClass holds its cutting word as a
CyclicDiagram, rotated to its least rotation once per element; the
conjugators, reality, roots, degrees and factorization.analyze read it.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from functools import lru_cache
from typing import Optional

from .diagrams import CyclicDiagram, reflection_symmetries
from .errors import BudgetError, DomainError, ParseError, VerificationError

__all__ = [
    "GroupElement",
    "product",
    "TwistVector",
    "SyllableWord",
    "ConjugacyClass",
    "RealStructure",
    "IDENTITY",
    "X",
    "Y",
    "L",
    "R",
    "TAU1",
    "TAU2",
    "evaluate",
    "parse_element",
    "parse_matrix",
    "normal_form",
    "classify",
    "cutting_conjugator",
    "dehn_twist",
    "twist_vector",
    "real_involution",
    "is_real_element",
    "primitive_root",
    "abelian_degree",
]


def _no_tuple_operator(self, other):
    """Stands in for the tuple's concatenation, repetition and ordering,
    which mean nothing for a group element or a twist vector."""
    raise TypeError(f"operation not defined for {type(self).__name__}")


class GroupElement(namedtuple("GroupElement", "a b c d")):
    """An element of PSL(2,Z), stored as a sign-normalized det-1 matrix.

    A read-only record (a, b, c, d): equality and hashing are the tuple's.
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int, d: int) -> "GroupElement":
        if a * d - b * c != 1:
            raise DomainError("matrix determinant must be 1, got %d" % (a * d - b * c))
        # det 1 rules out a == b == 0, so a or b is the first nonzero entry
        if a < 0 or (a == 0 and b < 0):
            a, b, c, d = -a, -b, -c, -d
        return tuple.__new__(cls, (a, b, c, d))

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        a, b, c, d = self
        e, f, g, h = other
        return GroupElement(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)

    __add__ = __radd__ = __rmul__ = _no_tuple_operator
    __lt__ = __le__ = __gt__ = __ge__ = _no_tuple_operator

    def inverse(self) -> "GroupElement":
        a, b, c, d = self
        return GroupElement(d, -b, -c, a)

    def __pow__(self, n: int) -> "GroupElement":
        if not n:
            return IDENTITY
        base = result = self if n > 0 else self.inverse()
        # square and multiply from the bit below the top one
        for bit in bin(abs(n))[3:]:
            result = result * result
            if bit == "1":
                result = result * base
        return result

    def conjugated_by(self, h: "GroupElement") -> "GroupElement":
        """h^-1 * self * h, with h^-1 = (s, -q, -r, p)."""
        a, b, c, d = self
        p, q, r, s = h
        a, b, c, d = s * a - q * c, s * b - q * d, p * c - r * a, p * d - r * b
        return GroupElement(a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s)

    @property
    def trace(self) -> int:
        """Trace of the normalized lift (defined up to sign in PSL)."""
        return self[0] + self[3]

    def matrix(self) -> tuple[tuple[int, int], tuple[int, int]]:
        a, b, c, d = self
        return ((a, b), (c, d))

    def __repr__(self):
        return "GroupElement(%d, %d, %d, %d)" % self


IDENTITY = GroupElement(1, 0, 0, 1)
X = GroupElement(1, -1, 1, 0)
Y = GroupElement(0, 1, -1, 0)
L = GroupElement(1, 1, 0, 1)
R = GroupElement(1, 0, 1, 1)

_X_POWERS = (IDENTITY, X, X * X)


def product(elements) -> GroupElement:
    """The product of the elements, in order; the empty product is IDENTITY.

    Multiplies the entries as integers and builds one element at the end.
    """
    a, b, c, d = 1, 0, 0, 1
    for e, f, g, h in elements:
        a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
    return GroupElement(a, b, c, d)


class TwistVector(namedtuple("TwistVector", "p q")):
    """A primitive integer vector (p, q), defined up to overall sign.

    A read-only record (p, q), like GroupElement.
    """

    __slots__ = ()

    def __new__(cls, p: int, q: int) -> "TwistVector":
        if math.gcd(p, q) != 1:
            raise DomainError(f"twist vector ({p}, {q}) is not primitive")
        if p < 0 or (p == 0 and q < 0):
            p, q = -p, -q
        return tuple.__new__(cls, (p, q))

    __add__ = __radd__ = __mul__ = __rmul__ = _no_tuple_operator
    __lt__ = __le__ = __gt__ = __ge__ = _no_tuple_operator


_X1, _X2, _Y1 = ("X", 1), ("X", 2), ("Y", 1)  # the syllables every normal form shares
_X_SYLLABLES = frozenset({_X1, _X2})
_Y_SYLLABLES = frozenset({_Y1})


class SyllableWord(namedtuple("SyllableWord", "syllables")):
    """A reduced word in the free product Z3 * Z2.

    Syllables are ("X", 1), ("X", 2) or ("Y", 1); adjacent syllables come
    from different factors.
    """

    __slots__ = ()

    def __new__(cls, syllables: tuple[tuple[str, int], ...]) -> "SyllableWord":
        # valid syllables alternate factors iff the even and the odd
        # positions each hold syllables of one factor: two set tests
        even, odd = set(syllables[::2]), set(syllables[1::2])
        if (even <= _X_SYLLABLES and odd <= _Y_SYLLABLES) or (
            even <= _Y_SYLLABLES and odd <= _X_SYLLABLES
        ):
            return tuple.__new__(cls, (syllables,))
        for (g1, _), (g2, _) in zip(syllables, syllables[1:]):
            if g1 == g2:
                raise DomainError("adjacent syllables from the same factor")
        gen, exp = next(s for s in syllables if s not in _X_SYLLABLES | _Y_SYLLABLES)
        raise DomainError(f"bad syllable ({gen}, {exp})")

    def __len__(self):
        return len(self.syllables)

    def to_word(self) -> str:
        """Serialize in the grammar accepted by :func:`evaluate`."""
        parts = []
        for gen, exp in self.syllables:
            parts.append(gen if exp == 1 else f"{gen}^{exp}")
        return " ".join(parts)


class ConjugacyClass(namedtuple("ConjugacyClass", "kind diagram")):
    """Tagged conjugacy class of an element of PSL(2,Z).

    kind is one of "identity", "elliptic_order2", "elliptic_order3_pos",
    "elliptic_order3_neg", "parabolic", "hyperbolic".  A parabolic class
    (g ~ R^n, with n < 0 for an all-L word) or a hyperbolic class carries its
    cutting word as a cyclic diagram, of one letter or of both letters.
    """

    __slots__ = ()

    def __new__(cls, kind: str, diagram: Optional[CyclicDiagram] = None) -> "ConjugacyClass":
        letters = diagram.letters if diagram else ""
        both = "L" in letters and "R" in letters
        if kind == "parabolic" and (both or not letters):
            raise DomainError("parabolic class needs a one-letter cutting word")
        if kind == "hyperbolic" and not both:
            raise DomainError("hyperbolic cutting word must contain both letters")
        return tuple.__new__(cls, (kind, diagram))

    @property
    def index(self) -> Optional[int]:
        """The signed n with g ~ R^n of a parabolic class, else None."""
        if self.kind != "parabolic":
            return None
        n = len(self.diagram)
        return n if self.diagram.letters[0] == "R" else -n

    def describe(self) -> str:
        if self.kind == "parabolic":
            return f"parabolic({self.index:+d})"
        if self.kind == "hyperbolic":
            return f"hyperbolic({self.diagram.letters})"
        return self.kind


class RealStructure(namedtuple("RealStructure", "a b c d")):
    """An involutive element of PGL(2,Z) \\ PSL(2,Z): a det -1 matrix of order 2."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int, d: int) -> "RealStructure":
        if a * d - b * c != -1:
            raise DomainError("real structure lift must have determinant -1")
        # det -1 rules out a == b == 0, so a or b is the first nonzero entry
        if a < 0 or (a == 0 and b < 0):
            a, b, c, d = -a, -b, -c, -d
        # at det -1, M^2 = (a + d) M + I, which is +-I (M is not scalar) iff a + d = 0
        if a + d:
            raise DomainError("real structure must square to the identity in PGL")
        return tuple.__new__(cls, (a, b, c, d))


# The displayed actions tau1^(L) = R^-1, tau1^(X) = X, tau2^(R) = R pin
# these representatives; [[0,1],[1,0]] swaps the two twist directions and
# [[1,0],[0,-1]] fixes them.
TAU1 = RealStructure(0, 1, 1, 0)
TAU2 = RealStructure(1, 0, 0, -1)


# the whole word; whitespace after a token belongs to that token, so the
# match does not backtrack over ways to split it, and where it stops is the
# first position that no token reaches
_WORD = re.compile(r"\s*(?:[LRXY](?:\^-?\d+)?\s*)+")
_WORD_TOKEN = re.compile(r"([LRXY])(?:\^(-?\d+))?")


def evaluate(word: str) -> GroupElement:
    """Evaluate a word over L, R, X, Y with optional integer exponents.

    Tokens may be juxtaposed or whitespace-separated: "R L^-1", "RL^-1"
    and "X^3" are all valid.  The empty word is the identity.
    """
    m = _WORD.match(word)
    pos = m.end() if m else 0
    if pos != len(word):
        raise ParseError(f"unexpected input at position {pos}: {word[pos:]!r}")
    a, b, c, d = 1, 0, 0, 1
    for gen, digits in _WORD_TOKEN.findall(word):
        k = _int_literal(digits) if digits else 1
        # times L^k = [[1, k], [0, 1]] or R^k = [[1, 0], [k, 1]]
        if gen == "L":
            b, d = b + k * a, d + k * c
        elif gen == "R":
            a, c = a + k * b, c + k * d
        else:
            e, f, g, h = _X_POWERS[k % 3] if gen == "X" else Y if k % 2 else IDENTITY
            a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
    return GroupElement(a, b, c, d)


_LR_RUN = re.compile("L+|R+")


def _run_product(letters: str) -> GroupElement:
    """evaluate(letters) for a word over L and R that the package built:
    one closed-form power per run of a letter, and no parsing."""
    a, b, c, d = 1, 0, 0, 1
    for run in _LR_RUN.findall(letters):
        k = len(run)
        if run[0] == "L":
            b, d = b + k * a, d + k * c
        else:
            a, c = a + k * b, c + k * d
    return GroupElement(a, b, c, d)


def _int_literal(digits: str) -> int:
    """int(digits), with a literal past the interpreter's digit limit a ParseError."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(
            f"integer literal of {len(digits.lstrip('-'))} digits exceeds the digit limit"
        ) from None


_MATRIX = re.compile(
    r"\s*\[\s*\[\s*(-?\d+)\s*,\s*(-?\d+)\s*\]\s*,"
    r"\s*\[\s*(-?\d+)\s*,\s*(-?\d+)\s*\]\s*\]\s*$"
)


def parse_matrix(text: str) -> GroupElement:
    """Parse a matrix literal of the form [[a,b],[c,d]]."""
    m = _MATRIX.match(text)
    if not m:
        raise ParseError(f"not a matrix literal: {text!r}")
    a, b, c, d = map(_int_literal, m.groups())
    if a * d - b * c != 1:
        raise ParseError(f"matrix {text!r} has determinant {a * d - b * c}, not 1")
    return GroupElement(a, b, c, d)


def parse_element(text: str) -> GroupElement:
    """Parse either a word over L/R/X/Y or a [[a,b],[c,d]] matrix literal."""
    if text.lstrip().startswith("["):
        return parse_matrix(text)
    return evaluate(text)


# The cap on the sum of the absolute partial quotients of an element's
# Euclidean peel, which bounds the length of its normal form and cutting
# word; at the cap, the CLI answers classify "L^65536 R^65536" in about
# 0.25 s (2-core VM, Python 3.11), all cyclic-word work being linear.
QUOTIENT_SUM_CAP = 2**17


def _peel(g: GroupElement) -> SyllableWord:
    """The normal form of g, for _classify_full's record to keep.

    Works by the continued-fraction peeling g = L^(q1) Y L^(q2) Y ... L^(qk)
    (Euclidean algorithm on the first column), L = XY and L^-1 = Y X^2.
    Per quotient, the joining Y and the run (XY)^q or (Y X^2)^-q are each
    reduced against the word so far only where they meet, then appended.
    Raises BudgetError when |q1| + ... + |qk| exceeds QUOTIENT_SUM_CAP,
    before expanding.
    """
    a, b, c, d = g
    atoms: list[int] = []  # q1, ..., qk
    total = 0
    while c != 0 and total <= QUOTIENT_SUM_CAP:
        q = a // c
        atoms.append(q)
        total += abs(q)
        a, b = a - q * c, b - q * d
        # multiply by Y on the left: rows swap with a sign
        a, b, c, d = c, d, -a, -b
    if c == 0:
        atoms.append(b if a == 1 else -b)
        total += abs(atoms[-1])
    if total > QUOTIENT_SUM_CAP:
        raise BudgetError(
            f"the normal form needs more than {QUOTIENT_SUM_CAP} L-steps "
            "(the sum of the partial quotients of the entries)"
        )

    stack: list = []
    for i, q in enumerate(atoms):
        # the Y joining this quotient to the last, then its run L^q
        for run in ((_Y1,) if i else (), (_X1, _Y1) * q if q > 0 else (_Y1, _X2) * -q):
            # free-product reduction where the two words meet; a merged
            # syllable that survives ends it, as run[j] is of the other factor
            j = 0
            while stack and j < len(run) and stack[-1][0] == run[j][0]:
                exp = (stack.pop()[1] + run[j][1]) % (3 if run[j][0] == "X" else 2)
                j += 1
                if exp:
                    stack.append((_X1, _X2)[exp - 1])
            stack.extend(run[j:])
    return SyllableWord(tuple(stack))


# each syllable a normal form holds, as its power: a prefix product is one lookup per syllable
_SYLLABLE_POWER = {_X1: X, _X2: _X_POWERS[2], _Y1: Y}


# The classes without a cutting word: representative and abelian degree.
_ELLIPTIC = {
    "identity": (IDENTITY, 0),
    "elliptic_order2": (Y, 3),
    "elliptic_order3_pos": (X, 2),
    "elliptic_order3_neg": (_X_POWERS[2], 4),
}


def _cutting_word_class(diagram: CyclicDiagram) -> ConjugacyClass:
    """The class of a cyclic word over L, R.  A word with both letters is
    cyclically reduced in Z3 * Z2, so it is its own class up to rotation."""
    both = "L" in diagram.letters and "R" in diagram.letters
    return ConjugacyClass("hyperbolic" if both else "parabolic", diagram)


# The one per-element memo of psl2: one peel, one class and one conjugator
# per element serve every class query and the public normal form.  The size
# covers the 410 elements a pass of the pendant_stream benchmark workload
# sends here (313 of its 1,600 distinct monodromies pass the trace test, and
# the rest are monodromies of its shifted and inverted words) and the 859
# (nonoriented) or 1,290 (oriented) elements the k = 2, w = 2 enumeration
# classifies; a fresh_queries pass sends 800 elements, each then read about
# 5.5 times more.  The results are immutable, so sharing them is safe.
@lru_cache(maxsize=4096)
def _classify_full(g: GroupElement) -> tuple[ConjugacyClass, GroupElement, SyllableWord]:
    """(cls, h, nf) with nf the normal form of g and g = h^-1 * rep * h
    exactly, rep the identity, Y, X or X^2 (_ELLIPTIC) or else
    evaluate(cls.diagram.letters)."""
    nf = _peel(g)
    syl = nf.syllables
    # peel syl[i] and syl[j - 1] off both ends while they come from one
    # factor; a nonzero merged syllable ends the reduction, since the
    # syllable after syl[i] comes from the other factor
    i, j, tail = 0, len(syl), ()
    while j - i >= 2 and syl[i][0] == syl[j - 1][0]:
        gen, e_first = syl[i]
        merged = (syl[j - 1][1] + e_first) % (3 if gen == "X" else 2)
        i, j = i + 1, j - 1
        if merged:
            tail = ((gen, merged),)
            break
    # g = u * evaluate(syl) * u^-1 from here on
    u = product(map(_SYLLABLE_POWER.__getitem__, syl[:i]))
    syl = list(syl[i:j] + tail)

    if len(syl) < 2:
        rep = product(map(_SYLLABLE_POWER.__getitem__, syl))
        kind = next(k for k, (e, _) in _ELLIPTIC.items() if e == rep)
        return ConjugacyClass(kind), u.inverse(), nf

    if syl[0][0] == "Y":
        # rotate one syllable so the word starts in the Z3 factor
        u = u * Y
        syl = syl[1:] + [syl[0]]
    letters = "".join("L" if exp == 1 else "R" for gen, exp in syl if gen == "X")
    if 2 * len(letters) != len(syl):
        raise VerificationError(f"cyclic reduction of {g} does not alternate")
    cls = _cutting_word_class(CyclicDiagram(letters))
    r = (letters + letters).index(cls.diagram.letters)
    # evaluate(letters) = p * evaluate(canon) * p^-1 for p = evaluate(letters[:r])
    return cls, (u * _run_product(letters[:r])).inverse(), nf


def classify(g: GroupElement) -> ConjugacyClass:
    """Conjugacy class of g, with the least rotation of its cutting word."""
    return _classify_full(g)[0]


def normal_form(g: GroupElement) -> SyllableWord:
    """The unique reduced alternating word in Z3 * Z2 evaluating to g.

    Read off the class record, so classify and normal_form peel g once.
    Raises BudgetError when the peel exceeds QUOTIENT_SUM_CAP L-steps.
    """
    return _classify_full(g)[2]


def cutting_conjugator(g: GroupElement) -> tuple[GroupElement, str]:
    """(h, w) with w the canonical rotation of the cutting word and
    g = h^-1 * evaluate(w) * h exactly.  Parabolic or hyperbolic g only."""
    cls, h, _ = _classify_full(g)
    if cls.diagram is None:
        raise DomainError(f"{cls.kind} element has no cutting word")
    return h, cls.diagram.letters


def dehn_twist(v: TwistVector | tuple[int, int]) -> GroupElement:
    """The positive Dehn twist along the primitive vector v."""
    p, q = TwistVector(*v)
    return GroupElement(1 - p * q, -q * q, p * p, 1 + p * q)


def twist_vector(g: GroupElement) -> Optional[TwistVector]:
    """The twist vector of g if g is a positive Dehn twist, else None."""
    a, b, c, d = g
    if a + d == -2:
        a, b, c, d = -a, -b, -c, -d
    elif a + d != 2:
        return None
    if b > 0 or c < 0:
        return None
    q = math.isqrt(-b)
    p = math.isqrt(c)
    if q * q != -b or p * p != c or math.gcd(p, q) != 1:
        return None
    if a != 1 - p * q:
        q = -q
    if (a, b, c, d) != (1 - p * q, -q * q, p * p, 1 + p * q):
        return None
    return TwistVector(p, q)


def real_involution(tau: RealStructure, g: GroupElement) -> GroupElement:
    """The involutive anti-automorphism g -> tau * g^-1 * tau."""
    # determinant (-1) * 1 * (-1) = 1; g^-1 = (d, -b, -c, a)
    a, b, c, d = g
    p, q, r, s = tau
    a, b, c, d = p * d - q * c, q * a - p * b, r * d - s * c, s * a - r * b
    return GroupElement(a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s)


def is_real_element(g: GroupElement) -> bool:
    """True iff g is a product of two real structures in PGL(2,Z).

    Identity, elliptic and parabolic elements are always real; a hyperbolic
    element is real iff its cyclic diagram has a reflection symmetry.
    """
    cls = classify(g)
    return cls.kind != "hyperbolic" or bool(reflection_symmetries(cls.diagram))


def primitive_root(g: GroupElement) -> tuple[GroupElement, int]:
    """(h, n) with g = h^n, n maximal.  Parabolic or hyperbolic g only."""
    cls, h, _ = _classify_full(g)
    if cls.diagram is None:
        raise DomainError(f"primitive root undefined for {cls.kind} element")
    canon = cls.diagram.letters
    period = (canon + canon).find(canon, 1)
    n = len(canon) // period
    root = _run_product(canon[:period]).conjugated_by(h)
    if root**n != g:
        raise VerificationError(f"{root}^{n} is not {g}")
    return root, n


def abelian_degree(g: GroupElement) -> int:
    """Image of g under the abelianization PSL(2,Z) ->> Z6 with deg R = 1.

    The degree is a class function: deg L = -1, so a cutting word has
    degree #R - #L, and the elliptic classes have fixed degrees.
    """
    cls = classify(g)
    if cls.diagram is None:
        return _ELLIPTIC[cls.kind][1]
    word = cls.diagram.letters
    return (word.count("R") - word.count("L")) % 6
