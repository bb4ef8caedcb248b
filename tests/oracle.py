"""Test-side oracle: every twist-pair product in a box, by brute force."""

from math import gcd
from typing import Iterator

from modtwist.psl2 import GroupElement, TwistVector, dehn_twist


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
