"""Necklace diagrams: stone words, group actions, statistics, enumeration.

A broken necklace diagram is a nonempty word over the stone alphabet,
serialized as 'O' (circle), 'S' (square), '>' and '<'.  Each stone
carries a monodromy in PSL(2,Z):

    O -> Y X^2 Y X^2 Y      S -> X^2 Y X^2      > -> XY = L      < -> YX

Circle and square stones are conjugates of L; the arrows are L and R^-1.
The diagram classes are orbits under combinations of cyclic shifts, the
inverse (reverse and invert stones), the dual (swap O/S and the arrows),
and the twisted shifts that dualize the wrapped stone.

Enumeration of w-pendant diagrams of length 6k - w filters stone words by
the pendant condition (monodromy = id for w = 0, a positive twist for
w = 1, 2-factorizable for w = 2) and counts orbits; for w = 2 the objects
are (diagram, strong-class) pairs, and the pair orbits over a word orbit
are read off the action of the orbit-minimal word's stabilizer on its
classes (see _stabilizer_swaps); for w <= 1 every word carries the one
label of its weight.  The filter joins the half-words over their distinct
monodromies and keeps exactly the orbit minima (see _pendant_words).
"""

from __future__ import annotations

import time
from bisect import bisect_right
from collections import namedtuple
from functools import lru_cache
from typing import Optional

from .diagrams import canonical_rotation
from .errors import BudgetError, DomainError
from .factorization import (
    Factorization,
    StrongClassLabel,
    analyze,
    exists_2factorization,
    strong_class_labels,
)
from .psl2 import (
    IDENTITY,
    TAU1,
    GroupElement,
    evaluate,
    real_involution,
    twist_vector,
)

__all__ = [
    "STONES",
    "NecklaceStats",
    "NecklaceClass",
    "EnumerationResult",
    "CATEGORIES",
    "validate_stone_word",
    "monodromy",
    "dual",
    "inverse",
    "shift",
    "stats",
    "orbit",
    "canonicalize",
    "pendants",
    "enumerate_classes",
]

STONES = "OS><"

STONE_MONODROMY = {
    "O": evaluate("Y X^2 Y X^2 Y"),
    "S": evaluate("X^2 Y X^2"),
    ">": evaluate("X Y"),
    "<": evaluate("Y X"),
}

_DUAL = str.maketrans("OS><", "SO<>")
_INVERT_STONE = str.maketrans("OS><", "OS<>")
_PAD = "\x7f"  # sorts after every stone letter: read after the end of a half-word

# uncoated-diagram endpoint types (left, right) of the double segment
_ENDPOINTS = {"O": ("o", "o"), "S": ("x", "x"), ">": ("x", "o"), "<": ("o", "x")}

CATEGORIES = (
    "oriented",
    "nonoriented",
    "flat_oriented",
    "flat_nonoriented",
    "twisted_oriented",
    "twisted_nonoriented",
)


def validate_stone_word(word: str) -> str:
    if not word:
        raise DomainError("stone word must be nonempty")
    if word.strip(STONES):  # a letter outside the alphabet stops the strip
        raise DomainError(f"stone word uses alphabet O, S, >, <: {word!r}")
    return word


def monodromy(word: str) -> GroupElement:
    """Product of the stone monodromies, in word order."""
    return _stone_product(validate_stone_word(word))


def dual(word: str) -> str:
    return validate_stone_word(word).translate(_DUAL)


def inverse(word: str) -> str:
    return validate_stone_word(word)[::-1].translate(_INVERT_STONE)


def shift(word: str, k: int = 1) -> str:
    validate_stone_word(word)
    k %= len(word)
    return word[k:] + word[:k]


_STATS_FIELDS = "circles squares right_arrows left_arrows betti euler essential maximal essential_obstruction"


class NecklaceStats(namedtuple("NecklaceStats", _STATS_FIELDS, defaults=(None, None))):
    __slots__ = ()


def stats(word: str, k: Optional[int] = None, w: Optional[int] = None) -> NecklaceStats:
    """Stone counts, real-part Betti/Euler numbers and obstruction data.

    betti = 2(circles + squares) + 4 and euler = 2(circles - squares)
    describe the real part of the covering surface; essential counts the
    cyclically adjacent stone pairs whose facing endpoint types differ.
    With k and w supplied (and 6k - w equal to the length), maximal tests
    arrows + w = 2 and essential_obstruction tests essential <= 2k and
    essential + arrows <= 6k.
    """
    validate_stone_word(word)
    n_o = word.count("O")
    n_s = word.count("S")
    n_r = word.count(">")
    n_l = word.count("<")
    n = len(word)
    essential = sum(
        _ENDPOINTS[word[i]][1] != _ENDPOINTS[word[(i + 1) % n]][0] for i in range(n)
    )
    maximal = obstruction = None
    if k is not None or w is not None:
        if k is None or w is None:
            raise DomainError("maximality context needs both k and w")
        if w not in (0, 1, 2):
            raise DomainError(f"w must be 0, 1 or 2, not {w}")
        if k < 1 or 6 * k - w != n:
            raise DomainError(
                f"inconsistent context: length {n} but 6k - w = {6 * k - w}"
            )
        maximal = n_r + n_l + w == 2
        obstruction = essential <= 2 * k and essential + n_r + n_l <= 6 * k
    return NecklaceStats(
        circles=n_o,
        squares=n_s,
        right_arrows=n_r,
        left_arrows=n_l,
        betti=2 * (n_o + n_s) + 4,
        euler=2 * (n_o - n_s),
        essential=essential,
        maximal=maximal,
        essential_obstruction=obstruction,
    )


class NecklaceClass(namedtuple("NecklaceClass", "category representative")):
    __slots__ = ()


def _orbit_cycles(word: str, category: str) -> list[str]:
    """Cyclic words whose length-n windows are the orbit of word (unvalidated):
    the seeds (word, its inverse, their duals, in this order), or s + dual(s)
    for a twisted seed s."""
    seeds = [word]
    if category.endswith("nonoriented"):
        seeds.append(word[::-1].translate(_INVERT_STONE))
    if category.startswith("flat"):
        seeds += [s.translate(_DUAL) for s in seeds]
    if category.startswith("twisted"):
        return [s + s.translate(_DUAL) for s in seeds]
    return seeds


def _checked(word: str, category: str) -> str:
    validate_stone_word(word)
    if category not in CATEGORIES:
        raise DomainError(f"unknown category {category!r}")
    return word


def orbit(word: str, category: str) -> set[str]:
    """All stone words in the orbit of word under the category's group."""
    n = len(_checked(word, category))
    doubled = [c + c for c in _orbit_cycles(word, category)]
    return {d[k : k + n] for d in doubled for k in range(len(d) // 2)}


def canonicalize(word: str, category: str) -> NecklaceClass:
    """Orbit-minimal representative of word in the given category."""
    cycles = _orbit_cycles(_checked(word, category), category)
    return NecklaceClass(category, min(canonical_rotation(c)[: len(word)] for c in cycles))


def pendants(word: str, w: int) -> list[StrongClassLabel]:
    """Strong-class labels of the w-pendants on the diagram (w <= 2).

    Empty when no w-factorization of the monodromy exists; label kinds are
    "empty" (w = 0), "single_twist" (w = 1) and the 2-factorization labels
    otherwise.
    """
    m = monodromy(word)
    if w not in _HAS_PENDANT:
        raise DomainError("pendant weight must be 0, 1 or 2")
    if not _HAS_PENDANT[w](m):
        return []
    return strong_class_labels(m) if w == 2 else [_ONE_PENDANT[w]]


class EnumerationResult(namedtuple("EnumerationResult", "k w category count representatives elapsed")):
    """representatives are (stone word, pendant label) pairs; the field count
    shadows tuple.count."""

    __slots__ = ()

    def summary(self) -> dict:
        return {
            "k": self.k,
            "w": self.w,
            "category": self.category,
            "count": self.count,
            "elapsed": round(self.elapsed, 3),
        }


# the pendant condition on a monodromy per weight w, and the one label for w <= 1
_HAS_PENDANT = {
    0: lambda g: g == IDENTITY,
    1: lambda g: twist_vector(g) is not None,
    2: exists_2factorization,
}
_ONE_PENDANT = {0: StrongClassLabel("empty"), 1: StrongClassLabel("single_twist")}


def _next_histogram(level: dict[GroupElement, tuple[str, ...]]) -> dict[GroupElement, tuple[str, ...]]:
    """H_(d + 1) from H_d: each distinct element times each stone, once."""
    grown: dict[GroupElement, list[str]] = {}
    for g, words in level.items():
        for s, gs in STONE_MONODROMY.items():
            grown.setdefault(g * gs, []).extend([w + s for w in words])
    return {g: tuple(words) for g, words in grown.items()}


# the half tables depend only on the alphabet.  Reached through
# enumerate_classes, the k <= 2 cap bounds them to lengths up to 6; a
# direct call with a larger length adds its entry.  They are shared and
# read-only; the word groups are tuples, which the collector stops tracking.
@lru_cache(maxsize=None)
def _stone_histograms(length: int) -> tuple[tuple[dict[GroupElement, tuple[str, ...]], ...], dict[str, str]]:
    """(levels, key): levels = (H_0, ..., H_length), where H_d groups the
    stone words of length d by their monodromy, and key[s] for each of
    those words s is its least padded suffix, by the suffix recursion
    K("") = PAD and K(c + u) = min(c + u + PAD, K(u)).

    A dynamic programme over distinct monodromies (see _next_histogram),
    each length built on the shared levels of the one below, so H_d holds
    one GroupElement per distinct element: F(2d + 3) - 1 of them, observed
    and not proven (609 for the 4,096 words of length 6).
    """
    if not length:
        return ({IDENTITY: ("",)},), {"": _PAD}
    shorter, key = _stone_histograms(length - 1)
    level = _next_histogram(shorter[-1])
    return shorter + (level,), {**key, **{s: min(s + _PAD, key[s[1:]]) for ws in level.values() for s in ws}}


_BLOCK = 5  # stones per lookup of _stone_product


@lru_cache(maxsize=None)
def _block_monodromies() -> dict[str, GroupElement]:
    """Every stone word of up to _BLOCK letters ("" included, 1,365 words)
    mapped to its monodromy: the levels of _stone_histograms(_BLOCK)
    inverted, once per process."""
    return {s: g for level in _stone_histograms(_BLOCK)[0] for g, ws in level.items() for s in ws}


def _stone_product(word: str) -> GroupElement:
    """The monodromy of a stone word (unvalidated; "" gives IDENTITY): the
    product of its blocks of _BLOCK stones, each looked up in
    _block_monodromies, multiplied as integers."""
    block = _block_monodromies()
    a, b, c, d = block[word[:_BLOCK]]
    for i in range(_BLOCK, len(word), _BLOCK):
        e, f, g, h = block[word[i : i + _BLOCK]]
        a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
    return GroupElement(a, b, c, d)


def _inverse_keys(halves: tuple, key: dict[str, str]) -> tuple[dict[str, str], dict[str, str]]:
    """(key, inv) of the nonoriented join on the words of halves, levels of
    _stone_histograms: inv[s] is inverse(s) and key[s] the lesser of the
    oriented keys of s and inv[s].  Built per call, not shared."""
    inv = {s: s[::-1].translate(_INVERT_STONE) for lv in halves for ws in lv.values() for s in ws}
    return {s: min(key[s], key[i]) for s, i in inv.items()}, inv


def _pendant_words(n: int, w: int, category: str) -> dict[str, GroupElement]:
    """The orbit minima among stone words of length n with a w-pendant,
    each mapped to its monodromy.

    Pendant word sets are transform-closed: for w = 2 a shift conjugates
    the monodromy and the inverse applies the anti-automorphism of tau_1,
    and both keep a product of two positive twists one.  So an orbit's
    minimum x = h + t (|h| = m = n // 2 <= |t|) is a pendant word, and every
    rotation of x and, nonoriented, of y = inverse(h) + inverse(t) starts
    with m letters no less than h.  Where one starts at offset j of a half
    s, the padded suffix s[j:] + PAD is then above h, as PAD sorts after
    every stone.  So the key of a half, its least padded suffix (or its
    inverse's, if less), is above h for the head, a prenecklace, and for
    the tail.

    The key bounds the rotations.  Let a rotation start at offset j of a
    half s whose key is above h, and let p be the up to m letters of s
    from j.  Unless p is a prefix of h, s[j:] + PAD, which starts with p
    and is above h, first differs from h inside p, and there p is the
    greater: the rotation is above x.  So the only rotations that can be
    no greater than x start at a head suffix that is a prefix of h (the
    head's borders, fixed per head), or in a tail half s (t, or
    nonoriented inverse(t)) where h occurs in s or where s ends with a
    proper prefix of h.

    Such a prefix decides its rotation outright.  If a tail half s ends
    with h[:i] (0 < i < m), the rotation from there reads h[:i] + c + ...,
    with c = h after t and c = inverse(h) after inverse(t), while x reads
    h[:i] + h[i:] + ...: if c[:m - i] < h[i:], it is below x and x is
    dropped; if c[:m - i] > h[i:], it is above x and flags nothing.  After
    t, key(h) > h gives h[i:] + PAD > h, so h[:m - i] < h[i:] unless h[i:]
    is a border (a suffix of h that is also a prefix of it).

    The tail decides each border: where h[i:] is a prefix of h, the
    rotation of x at i reads t[:i] where x reads h[m - i:], so it is below
    x iff t < h[m - i:] and equal to x that far iff t starts with
    e = h[m - i:]; inverse(t) does the same at an inverse border i >= 1 of
    y (inverse(h)[i:] a prefix of h), and for h = inverse(h), y compares
    with x as inverse(t) does with t.  A t that starts with e leaves the
    rotation above x unless t holds h or ends with a proper prefix of h,
    where x is dropped or flagged anyway: h has period i, so with
    r = m mod i, h[r:] is a prefix of e + e + ... and the window of t at
    i - r reads h[:r] + t[i:], a suffix of t and so no prefix of h.  As
    key(t) > h, t[i:] first differs from e + e + ... inside t[i:], at a
    letter where it is the greater, and there the rotation's t[i:] + h[:i]
    exceeds x's e + t[i:] (tests/test_necklace.py checks every case up to
    n = 13).

    The halves, grouped by their monodromies, and their keys come from
    _stone_histograms, shared by every call of a process.  A head joins
    the tails of a monodromy keyed above it (bisect_right on the keys,
    sorted when a head group first reaches it); a pair of monodromies
    whose greatest tail key is not above its least head is skipped before
    its product, and the condition is decided once per pair of them; for
    w = 0 the only partner is the inverse.  A head group's rows are built
    once it passes that guard.  A joined x is dropped if t is below the
    greatest of the head's border suffixes (top), inverse(t) below the
    greatest of its inverse ones (itop) or, for h = inverse(h), below t
    (mirror), or if t ends in a prefix h[:i] of h with h[i:] no border
    (kill) or inverse(t) in one after which inverse(h)[:m - i] < h[i:]
    (ikill).  It is flagged if h occurs in a tail half, inverse(t) starts
    with an inverse border's suffix (iends), or c[:m - i] = h[i:] after a
    tail half's prefix h[:i] (keep after t, ikeep after inverse(t)).  A
    flagged x is kept iff it is no greater than its rotations at the
    head's borders and every rotation that starts in a tail half; an
    unflagged x is kept, as all its other rotations are above it: exactly
    the orbit minima.  The check reads no rotation at the start of y for
    h = inverse(h): y = h + inverse(t), and mirror keeps only the x with
    inverse(t) >= t, so y >= x.

    Each rule's lemma test in tests/test_necklace.py:
      top, itop, mirror: test_a_border_of_the_head_is_decided_by_the_tail
        (iends: its equal case at an inverse border);
      kill: test_a_tail_ending_in_a_non_border_prefix_undercuts_the_join;
      ikill, ikeep (its equal case):
        test_an_inverse_tail_ending_in_a_prefix_is_decided_by_the_inverse_head;
      keep: test_only_flagged_tail_halves_open_rotations, and for the
        border suffixes that set no flag,
        test_a_tail_starting_with_a_border_suffix_leaves_the_rotation_above.
    A copy that skips any one rule fails
    test_pendant_words_match_the_reference_join_at_k2, and all but itop
    and ikeep also fail the brute force to n = 8.
    """
    m = n // 2
    nonoriented = category == "nonoriented"
    (levels, key), inv = _stone_histograms(n - m), {}
    if nonoriented:
        key, inv = _inverse_keys(levels[m:], key)

    # the rotations of x + x + y + y (oriented, x + x) that start in t or inverse(t)
    in_tails = [slice(c + i, c + i + n) for c in (0, 2 * n)[: 1 + nonoriented] for i in range(m, n)]

    def head(h: str) -> tuple:
        """The row of head h: (h, inverse(h), top, itop, mirror, kill,
        ikill, iends, keep, ikeep, the rotations open at a flagged x)."""
        ih = inv.get(h, "")
        top, itop, kill, keep, ikill, ikeep, iends, borders = "", "", [], [], [], [], [], []
        for i in range(1, m):
            if h.startswith(r := h[i:]):  # a border: the h after t reads h[:m - i] = h[i:]
                top = max(top, h[m - i :])
                keep.append(h[:i])
                borders.append(slice(i, i + n))
            else:  # key(h) > h: h[:m - i] < h[i:]
                kill.append(h[:i])
            if nonoriented:
                if (c := ih[: m - i]) <= r:  # the inverse(h) after inverse(t) reads c
                    (ikill if c < r else ikeep).append(h[:i])
                if h.startswith(ih[i:]):  # an inverse border
                    itop = max(itop, h[m - i :])
                    iends.append(h[m - i :])
                    borders.append(slice(2 * n + i, 3 * n + i))
        tests = tuple(kill), tuple(ikill), tuple(iends), tuple(keep), tuple(ikeep)
        return h, ih, top, itop, nonoriented and ih == h, *tests, borders + in_tails

    tails = levels[-1]

    def table(gr: GroupElement) -> tuple[list[str], list[str], list[str]]:
        """(keys, tails, inverse tails; oriented, the tails) of gr, by key."""
        ts = sorted(tails.get(gr, ()), key=key.__getitem__)
        its = list(map(inv.__getitem__, ts)) if nonoriented else ts
        return list(map(key.__getitem__, ts)), ts, its

    # w = 0 meets each tail monodromy once, from its inverse; w > 0, all of them
    every = None if w == 0 else [(gr, table(gr)) for gr in tails]
    found: dict[str, GroupElement] = {}
    for gl, ws in levels[m].items():
        if not (hs := [h for h in ws if key[h] > h]):
            continue
        least, rows = min(hs), None
        for gr, (keys, ts, its) in [(gi := gl.inverse(), table(gi))] if every is None else every:
            if not keys or keys[-1] <= least or not _HAS_PENDANT[w](g := gl * gr):
                continue
            if rows is None:
                rows = list(map(head, hs))
            for h, ih, top, itop, mirror, kill, ikill, iends, keep, ikeep, open_ in rows:
                lo = bisect_right(keys, h)
                if nonoriented:
                    for t, it in zip(ts[lo:], its[lo:]):
                        if t < top or it < itop or mirror and it < t or t.endswith(kill) or it.endswith(ikill):
                            continue
                        x = h + t
                        if (
                            h in t or h in it or it.startswith(iends) or t.endswith(keep) or it.endswith(ikeep)
                        ) and x > min(map((2 * x + 2 * (ih + it)).__getitem__, open_)):
                            continue
                        found[x] = g
                else:
                    for t in ts[lo:]:
                        if t < top or t.endswith(kill):
                            continue
                        x = h + t
                        if (h in t or t.endswith(keep)) and x > min(map((x + x).__getitem__, open_)):
                            continue
                        found[x] = g
    return found


def _stabilizer_swaps(w0: str, g: GroupElement, category: str) -> bool:
    """Whether a generator of the stabilizer of w0 carries class 0 of g to class 1.

    The shift s conjugates a pendant pair by the first stone's monodromy;
    the inverse i maps (m1, m2) to (tau1(m2), tau1(m1)).  As tau1 is an
    anti-automorphism and monodromy(inverse(w)) = tau1(monodromy(w)), both
    i^2 = id and i s i = s^-1 hold exactly on pairs, and s^n conjugates by
    g = monodromy(w), the square of the Hurwitz move, which keeps the
    strong class.  So the cyclic (or dihedral) group acts on (word, class)
    pairs, and by orbit-stabilizer the pair orbits over the word orbit of
    w0 are the orbits of Stab(w0) on the classes of g.  Each pair orbit
    meets w0, so its least pair is (w0, least index of its Stab-orbit):
    the pair a sweep over every (word, class) pair would find first.

    Stab(w0) is generated by the shift by the primitive period of w0 and,
    nonoriented, by the inverse followed by the shift back onto w0 when
    inverse(w0) is a rotation of w0.  Both fix w0, so a moved pair still
    multiplies to g and analyze(g).locate names its class; with at most
    two classes, they form one orbit iff some generator moves 0 to 1.
    """
    analysis = analyze(g)
    fact, _ = analysis.canonical[0]
    moves = []  # (a pair of w0 or of inverse(w0), the prefix shifted back onto w0)
    period = (w0 + w0).find(w0, 1)
    if period < len(w0):
        moves.append((fact, w0[:period]))
    if category == "nonoriented":
        inv = inverse(w0)
        back = (inv + inv).find(w0)
        if back >= 0:
            m1, m2 = fact.factors
            flipped = Factorization((real_involution(TAU1, m2), real_involution(TAU1, m1)))
            moves.append((flipped, inv[:back]))
    for pair, prefix in moves:
        if analysis.locate(pair.conjugated_by(_stone_product(prefix))) == 1:
            return True
    return False


def enumerate_classes(k: int, w: int, category: str = "nonoriented") -> EnumerationResult:
    """Count w-pendant necklace diagram classes of length 6k - w.

    category is "oriented" (cyclic shifts, with the pendant conjugated
    along) or "nonoriented" (shifts and the inverse).  The enumeration is
    capped at k <= 2: k = 3 already holds 4^16 to 4^18 raw stone words.
    """
    if k < 1 or w not in (0, 1, 2):
        raise DomainError("need k >= 1 and w in {0, 1, 2}")
    if category not in ("oriented", "nonoriented"):
        raise DomainError("enumeration categories are oriented and nonoriented")
    if k > 2:
        raise BudgetError(f"k = {k} is past the enumeration budget of k <= 2")
    start = time.perf_counter()
    found = _pendant_words(6 * k - w, w, category)
    if w < 2:  # every w <= 1 pendant word has the one label of its weight
        label = _ONE_PENDANT[w].describe()
        reps = [(word, label) for word in sorted(found)]
    else:
        described: dict[GroupElement, list[str]] = {}  # each distinct monodromy's labels
        reps = []
        for word in sorted(found):
            g = found[word]
            labels = described.get(g)
            if labels is None:
                labels = described[g] = [label.describe() for label in strong_class_labels(g)]
            reps.append((word, labels[0]))
            # a second class is a pair orbit of its own unless the word's
            # stabilizer carries class 0 onto it
            if len(labels) == 2 and not _stabilizer_swaps(word, g, category):
                reps.append((word, labels[1]))
    return EnumerationResult(
        k=k,
        w=w,
        category=category,
        count=len(reps),
        representatives=tuple(reps),
        elapsed=time.perf_counter() - start,
    )
