"""Test-side oracles: every twist-pair product in a box, by brute force,
the monodromy of a stone word one stone at a time, a plain 2x2 integer
matrix product that shares no code with psl2's kernels, and a half-word
join that decides each joined word by its rotations."""

from bisect import bisect_right
from itertools import product
from math import gcd
from typing import Callable, Iterable, Iterator

from modtwist.psl2 import GroupElement, TwistVector, dehn_twist

Matrix = tuple[tuple[int, int], tuple[int, int]]

IDENTITY_MATRIX: Matrix = ((1, 0), (0, 1))
LETTER_MATRICES: dict[str, Matrix] = {
    "L": ((1, 1), (0, 1)),
    "R": ((1, 0), (1, 1)),
    "X": ((1, -1), (1, 0)),
    "Y": ((0, 1), (-1, 0)),
}


def matrix_product(matrices: Iterable[Matrix]) -> Matrix:
    """The product of 2x2 integer matrices ((a, b), (c, d)), in order, as
    nested tuples: no determinant check and no sign normalisation."""
    (a, b), (c, d) = IDENTITY_MATRIX
    for (e, f), (g, h) in matrices:  # row times column
        a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
    return (a, b), (c, d)


def matrix_inverse(m: Matrix) -> Matrix:
    """The adjugate of m: its inverse at determinant 1, up to sign at -1."""
    (a, b), (c, d) = m
    return ((d, -b), (-c, a))


def matrix_power(m: Matrix, n: int) -> Matrix:
    """m^n by squaring (the inverse's power for n < 0, at determinant 1)."""
    if n < 0:
        m, n = matrix_inverse(m), -n
    result = IDENTITY_MATRIX
    while n:
        if n % 2:
            result = matrix_product((result, m))
        m, n = matrix_product((m, m)), n // 2
    return result


def word_matrix(tokens: Iterable[tuple[str, int]]) -> Matrix:
    """The product of the powers letter^exp of the (letter, exp) tokens."""
    return matrix_product(matrix_power(LETTER_MATRICES[gen], exp) for gen, exp in tokens)


def projective(m: Matrix) -> tuple[int, int, int, int]:
    """The entries (a, b, c, d) of +-m whose first nonzero entry is positive,
    which a GroupElement compares equal to."""
    flat = m[0] + m[1]
    return flat if next(x for x in flat if x) > 0 else tuple(-x for x in flat)


STONE_MATRICES: dict[str, Matrix] = {
    stone: word_matrix((gen, 1) for gen in letters)
    for stone, letters in {"O": "YXXYXXY", "S": "XXYXX", ">": "XY", "<": "YX"}.items()
}


def oracle_products(
    bound: int,
) -> Iterator[tuple[TwistVector, TwistVector, GroupElement]]:
    """Brute-force stream of all twist pair products with |p|, |q| <= bound."""
    if bound < 1:
        raise ValueError("oracle bound must be >= 1")
    vectors = sorted(
        {
            TwistVector(p, q)
            for p in range(-bound, bound + 1)
            for q in range(-bound, bound + 1)
            if (p, q) != (0, 0) and gcd(p, q) == 1
        },
        key=lambda v: (v.p, v.q),
    )
    for u in vectors:
        tu = dehn_twist(u)
        for v in vectors:
            yield u, v, tu * dehn_twist(v)


def stone_monodromy(word: str) -> GroupElement:
    """The product of the stone monodromies of word, letter by letter, by
    matrix_product: the reference for necklace.monodromy, which multiplies
    blocks of the shared word tables."""
    return GroupElement(*projective(matrix_product(map(STONE_MATRICES.__getitem__, word))))


PAD = "\x7f"  # sorts after every stone letter: read after the end of a half-word
_TURN_ARROWS = str.maketrans("<>", "><")


def stone_inverse(word: str) -> str:
    """The inverse diagram of a stone word: reversed, each arrow turned."""
    return word[::-1].translate(_TURN_ARROWS)


def reference_join(n: int, condition: Callable[[GroupElement], bool], nonoriented: bool) -> dict[str, GroupElement]:
    """The orbit minima among stone words of length n whose monodromy meets
    condition, each mapped to its monodromy: the reference for
    necklace._pendant_words, which decides most joined words by rule.

    An orbit minimum x = h + t (|h| = n // 2) has both halves keyed above
    h, a half's key being its least padded suffix (nonoriented, the lesser
    of its own and its inverse's), each key taken from that definition.
    The halves are grouped by stone_monodromy, condition is decided once
    per pair of groups that holds a tail keyed above a head, and each x
    whose halves are keyed above h is kept iff no rotation of x + x
    (nonoriented, also of y + y, y = inverse(h) + inverse(t)) is below x.
    """
    m = n // 2

    def key(half: str) -> str:
        reads = (half, stone_inverse(half)) if nonoriented else (half,)
        return min(s[j:] + PAD for s in reads for j in range(len(s)))

    def grouped(size: int) -> dict[GroupElement, list[tuple[str, str]]]:
        groups: dict[GroupElement, list[tuple[str, str]]] = {}
        for half in map("".join, product("OS><", repeat=size)):
            groups.setdefault(stone_monodromy(half), []).append((key(half), half))
        return groups

    halves = grouped(m)
    tails = []
    for gr, group in (halves if n == 2 * m else grouped(n - m)).items():
        keys, ts = zip(*sorted(group))
        tails.append((gr, keys, ts))
    rotations = [slice(i, i + n) for i in range(n)]
    found = {}
    for gl, heads in halves.items():
        if not (hs := [h for k, h in heads if k > h]):
            continue
        least = min(hs)
        for gr, keys, ts in tails:
            if keys[-1] <= least or not condition(g := gl * gr):
                continue
            for h in hs:
                ih = stone_inverse(h)
                for t in ts[bisect_right(keys, h) :]:
                    x = h + t
                    if min(map((x + x).__getitem__, rotations)) < x:
                        continue
                    if nonoriented and min(map((2 * (ih + stone_inverse(t))).__getitem__, rotations)) < x:
                        continue
                    found[x] = g
    return found
