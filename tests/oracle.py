"""Test-side oracles: every twist-pair product in a box, by brute force,
the monodromy of a stone word one stone at a time, and a plain 2x2
integer matrix product that shares no code with psl2's kernels."""

from math import gcd
from typing import Iterable, Iterator

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
