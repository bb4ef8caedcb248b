"""Test-side oracles: every twist-pair product in a box, by brute force,
and the monodromy of a stone word one stone at a time."""

from math import gcd
from typing import Iterator

from modtwist.necklace import STONE_MONODROMY
from modtwist.psl2 import GroupElement, TwistVector, dehn_twist, product


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
    """The product of the stone monodromies of word, letter by letter: the
    reference for necklace.monodromy, which reads the shared word tables."""
    return product(map(STONE_MONODROMY.__getitem__, word))
