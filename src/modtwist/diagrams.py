"""Cyclic words over {L, R}: symmetries, para-symmetries and special forms.

A cyclic diagram is the cutting word of a parabolic or hyperbolic element
displayed on a circle.  Reflections of Z_m are encoded by the residue c
with i -> c - i; for a para-symmetry m is even and c odd, so the
reflection is fixed-point free, and the two adjacent transposed pairs
{i, i+1} with 2i = c - 1 (mod m) are its anchors.  A para-symmetry keeps
the four anchors (all of type L) and flips every other letter; it is the
same thing as a presentation of the underlying element as
L.L.A.L.L.At, where At reverses A and swaps L <-> R, and it is decided by
one outward wing test from its anchor pair (_reads_axis).

recognize() names two families of diagrams with exactly two
para-symmetries: the axes either share an anchor (the "shared-axes" chain
LL(LR)^m LL(LR)^m) or are disjoint with an odd rotation order (the
"disjoint-axes" words built from an odd rotation fraction q and an
inserted word B).  The two are not exhaustive: disjoint axes of even
rotation order occur too, as on LLLLLRRRLLLLLRRR, and are refused.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import groupby
from math import gcd
from typing import TYPE_CHECKING, Union

from .errors import DomainError, VerificationError

if TYPE_CHECKING:  # fractions loads on the disjoint-axes paths only
    from fractions import Fraction

__all__ = [
    "CyclicDiagram",
    "ParaSymmetry",
    "DiagramForm",
    "word_transpose",
    "canonical_rotation",
    "para_symmetries",
    "reflection_symmetries",
    "axis_word",
    "build_shared_axis_diagram",
    "build_disjoint_axis_diagram",
    "recognize",
    "cutting_period_cycle",
    "is_even_word",
]

_FLIP = str.maketrans("LR", "RL")


def word_transpose(word: str) -> str:
    """Reverse the word and swap L <-> R (matrix transpose on evaluations)."""
    return word[::-1].translate(_FLIP)


def canonical_rotation(word: str) -> str:
    """Least rotation in code-point order (L < R): where a cyclic word starts.

    Compares two candidate starts i < j over k letters; a mismatch rules out
    the larger reading and the k starts after it, so i + j + k, below 3m,
    grows every step: linear time.
    """
    if not word:
        raise DomainError("empty cyclic word")
    m = len(word)
    s = word + word
    i, j, k = 0, 1, 0
    while j < m and k < m:
        a, b = s[i + k], s[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i, j = j, max(j, i + k) + 1
        else:
            j += k + 1
        k = 0
    return s[i : i + m]


class CyclicDiagram(namedtuple("CyclicDiagram", "letters")):
    """A nonempty cyclic word over {L, R}, stored as its least rotation."""

    __slots__ = ()

    def __new__(cls, letters: str) -> "CyclicDiagram":
        if not letters:
            raise DomainError("empty cyclic word")
        if set(letters) - {"L", "R"}:
            raise DomainError(f"cyclic words use letters L/R only: {letters!r}")
        return tuple.__new__(cls, (canonical_rotation(letters),))

    def __len__(self):
        return len(self.letters)

    def rotated(self, k: int) -> str:
        k %= len(self.letters)
        return self.letters[k:] + self.letters[:k]


class ParaSymmetry(namedtuple("ParaSymmetry", "axis anchor_starts")):
    """A para-symmetry axis c with its two anchor-pair start positions."""

    __slots__ = ()


def _reads_axis(w: str, j: int) -> bool:
    """Whether the cyclic word w reads as L.L.A.L.L.At from anchor start j < m/2.

    The one wing test: the four anchors j, j+1, j+m/2, j+m/2+1 are L, and
    the letters at distance t on either side of the anchor pair differ,
    read outward for t = 1 .. m/2 - 2, which pairs every other letter with
    its mirror under i -> 2j+1 - i.  A failing axis mostly fails next to
    its anchor, so the scan stops early.
    """
    m = len(w)
    half = m // 2
    if m % 2 or m < 4:
        return False
    if not w[j] == w[j + 1] == w[j + half] == w[(j + half + 1) % m] == "L":
        return False
    return all(w[j - t] != w[j + 1 + t] for t in range(1, half - 1))


def para_symmetries(diagram: CyclicDiagram) -> tuple[ParaSymmetry, ...]:
    """All para-symmetries of the diagram, sorted by axis."""
    w = diagram.letters
    half = len(w) // 2
    return tuple(ParaSymmetry(2 * j + 1, (j, j + half)) for j in range(half) if _reads_axis(w, j))


def reflection_symmetries(diagram: CyclicDiagram) -> tuple[int, ...]:
    """Axes c of all reflections i -> c - i preserving every letter.

    The reflection at c preserves w iff w occurs in the doubled reverse of w
    at offset m - 1 - c.  Those offsets repeat with the primitive period p
    of w, so one search below p finds them all.
    """
    w = diagram.letters
    m = len(w)
    period = (w + w).find(w, 1)
    reverse = w[::-1]
    first = (reverse + reverse).find(w, 0, period + m - 1)
    if first < 0:
        return ()
    return tuple(sorted(m - 1 - s for s in range(first, m, period)))


def axis_word(diagram: CyclicDiagram, axis: Union[ParaSymmetry, int]) -> str:
    """The word A of the presentation L.L.A.L.L.At read at the given axis.

    Both anchor pairs of the axis give a valid reading (A and At); the
    lexicographically smaller one is returned.
    """
    match = next((s for s in para_symmetries(diagram) if axis in (s, s.axis)), None)
    if match is None:
        raise DomainError(f"axis {axis} is not a para-symmetry of {diagram.letters}")
    return min(_axis_reading(diagram, j) for j in match.anchor_starts)


def _axis_reading(diagram: CyclicDiagram, anchor_start: int) -> str:
    """Read L.L.A.L.L.At starting at the given anchor pair; returns A.

    The only reader of the wing A.  Callers pass anchors of para-symmetries,
    so a failed reading is a broken invariant, not bad input.
    """
    w = diagram.rotated(anchor_start)
    if not _reads_axis(w, 0):
        raise VerificationError(f"{w} is not read as L.L.A.L.L.At at {anchor_start}")
    return w[2 : len(w) // 2]


def build_shared_axis_diagram(m: int) -> CyclicDiagram:
    """The chain LL(LR)^m LL(LR)^m whose two para-symmetries share an anchor."""
    if m < 0:
        raise DomainError("chain parameter must be >= 0")
    return CyclicDiagram(("LL" + "LR" * m) * 2)


def _block_pattern(num: int, n: int) -> str:
    """The l/r block word of the 1/n rotation pattern re-indexed by i -> num*i."""
    base = ("l" + "lr" * ((n - 1) // 2)) * 2
    return "".join(base[(num * i) % (2 * n)] for i in range(2 * n))


def build_disjoint_axis_diagram(
    q: Union[Fraction, tuple[int, int]], insert: str = ""
) -> CyclicDiagram:
    """The two-para-symmetry word with axis angle pi*q and inserted word B.

    q must be a fraction with odd numerator and odd denominator >= 3,
    0 < q < 1.  The base word over {l, r} is the 1/n pattern re-indexed by
    i -> numerator*i, then copies of insert / its transpose are placed
    between consecutive base letters and l, r are doubled to LL, RR.
    """
    from fractions import Fraction

    if not isinstance(q, Fraction):
        if q[1] == 0:
            raise DomainError(f"rotation fraction has denominator 0: {q}")
        q = Fraction(*q)
    num, den = q.numerator, q.denominator
    if not (0 < q < 1) or num % 2 == 0 or den % 2 == 0 or den < 3:
        raise DomainError(f"rotation fraction must be odd/odd in (0,1), got {q}")
    if set(insert) - {"L", "R"}:
        raise DomainError(f"insert must be a word over L/R: {insert!r}")
    inserts = (insert, word_transpose(insert))
    pattern = _block_pattern(num, den).upper()
    return CyclicDiagram("".join(b * 2 + inserts[i % 2] for i, b in enumerate(pattern)))


class DiagramForm(namedtuple("DiagramForm", "kind m q insert", defaults=(None,) * 3)):
    """Result of recognize(): which two-axis family (if any) a diagram is in.

    kind is "shared_axes" (with chain parameter m), "disjoint_axes" (with
    rotation fraction q, a Fraction, and insert word), "one_axis" or
    "no_axis".
    """

    __slots__ = ()

    def describe(self) -> str:
        if self.kind == "shared_axes":
            return f"shared_axes(m={self.m})"
        if self.kind == "disjoint_axes":
            return f"disjoint_axes(q={self.q}, insert={self.insert!r})"
        return self.kind


def recognize(diagram: CyclicDiagram) -> DiagramForm:
    """Classify a diagram by its para-symmetry count and two-axis family.

    Two para-symmetries with disjoint anchors and an even rotation order
    lie outside both families and raise DomainError.
    """
    symmetries = para_symmetries(diagram)
    if not symmetries:
        return DiagramForm("no_axis")
    if len(symmetries) == 1:
        return DiagramForm("one_axis")
    if len(symmetries) != 2:
        raise VerificationError(f"{diagram.letters} has more than two para-symmetries")
    s1, s2 = symmetries
    anchors1 = {j for start in s1.anchor_starts for j in (start, (start + 1) % len(diagram))}
    anchors2 = {j for start in s2.anchor_starts for j in (start, (start + 1) % len(diagram))}
    if anchors1 & anchors2:
        m = (len(diagram) - 4) // 4
        # the chain LL(LR)^m LL(LR)^m is its own least rotation
        if diagram.letters != ("LL" + "LR" * m) * 2:
            raise VerificationError(
                f"shared-anchor diagram {diagram.letters} is not the chain with m={m}"
            )
        return DiagramForm("shared_axes", m=m)
    return _recognize_disjoint(diagram, s1, s2)


def _recognize_disjoint(
    diagram: CyclicDiagram, s1: ParaSymmetry, s2: ParaSymmetry
) -> DiagramForm:
    from fractions import Fraction

    m_len = len(diagram)
    shift = (s2.axis - s1.axis) % m_len
    n = m_len // gcd(m_len, shift)
    if n % 2 == 0:
        raise DomainError(
            f"{diagram.letters}: two para-symmetries outside the shared- and "
            "disjoint-axes families"
        )
    if n < 3 or m_len % (2 * n):
        raise VerificationError(f"bad rotation order {n} for {diagram.letters}")
    unit = m_len // (2 * n)
    candidates = []
    # a rotation read as the form starts at an anchor, modulo the block
    # unit; the rotations by whole blocks are rotations of one l/r pattern
    for start in {a % unit for s in (s1, s2) for a in s.anchor_starts}:
        v = diagram.rotated(start)
        blocks = [v[i : i + 2] for i in range(0, m_len, unit)]
        inserts = [v[i + 2 : i + unit] for i in range(0, m_len, unit)]
        b_words = (inserts[0], word_transpose(inserts[0]))
        if set(blocks) - {"LL", "RR"} or inserts != list(b_words) * n:
            continue
        pattern = "".join("l" if b == "LL" else "r" for b in blocks)
        # Letter i of _block_pattern(num, n) is l iff num*i mod n is 0 or
        # odd.  For i = 2 .. n-1 (mod n) the neighbours i-1, i agree iff
        # floor(num*i/n) steps up, as num and n are odd; i = 1 agrees
        # without a step and i = n steps without agreeing.  So one period
        # holds exactly num agreeing pairs at every rotation, and num is
        # read off the pattern.
        num = sum(pattern[i - 1] == pattern[i] for i in range(1, n + 1))
        if num % 2 and gcd(num, n) == 1 and _block_pattern(num, n) in pattern + pattern:
            # the pattern has odd period n, so the matching rotations t and
            # t + n have opposite parities: the insert reads as B and as Bt
            candidates.append((Fraction(num, n), min(b_words)))
    if not candidates:
        raise VerificationError(
            f"two disjoint para-symmetries but no disjoint-axes form: {diagram.letters}"
        )
    q, insert = min(candidates)
    return DiagramForm("disjoint_axes", q=q, insert=insert)


def cutting_period_cycle(diagram: CyclicDiagram) -> tuple[int, ...]:
    """The run-length cycle [a1, ..., a2n] of the diagram, read off its least
    rotation: with both letters that starts an L-run after a final R, so the
    wrap-around run is read whole."""
    return tuple(len(list(run)) for _, run in groupby(diagram.letters))


def is_even_word(word: Union[str, CyclicDiagram]) -> bool:
    """True iff every run of the cyclic word has even length: iff its letters
    pair up from position 0 or, wrapping around, from position 1."""
    letters = word.letters if isinstance(word, CyclicDiagram) else word
    if set(letters) - {"L", "R"}:
        raise DomainError(f"cyclic words use letters L/R only: {letters!r}")
    turned = letters[1:] + letters[:1]
    return letters[::2] == letters[1::2] or turned[::2] == turned[1::2]
