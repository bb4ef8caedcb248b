"""Necessary conditions for 2-factorizability: trace and finite-quotient tests.

If g is a product of two positive Dehn twists in SL(2,Z), its trace is
2 - w^2 for the wedge product w of the twist vectors; working in PSL one
checks 2 - t and 2 + t.  The finite-quotient test reduces mod n and
counts solutions x1 * x2 = lift(g) with x1, x2 in the conjugacy class of
R in SL(2,Z_n); the Frobenius character sum computes the same count, and
only its positivity is used, so we count directly.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

from .errors import BudgetError, DomainError
from .psl2 import GroupElement

__all__ = ["QuotientReport", "trace_test", "finite_quotient_test"]

DEFAULT_MODULUS_BUDGET = 12


def trace_test(g: GroupElement) -> bool:
    """True iff 2 - t or 2 + t is a perfect square, t the trace of a lift."""
    t = g.trace
    for s in (2 - t, 2 + t):
        if s >= 0 and math.isqrt(s) ** 2 == s:
            return True
    return False


class QuotientReport(namedtuple("QuotientReport", "modulus solvable solution_count")):
    __slots__ = ()

    def __new__(cls, modulus: int, solvable: bool, solution_count: int) -> "QuotientReport":
        if solvable != (solution_count > 0):
            raise DomainError(f"solvable={solvable} contradicts {solution_count} solutions")
        return tuple.__new__(cls, (modulus, solvable, solution_count))


@lru_cache(maxsize=None)
def _twist_class_mod(n: int) -> frozenset:
    """Conjugacy class of R in SL(2, Z_n), as matrix tuples.

    h^-1 R h is the twist [[1 - pq, -q^2], [p^2, 1 + pq]] along the first
    row (p, q) of h, and SL(2, Z) maps onto SL(2, Z_n), so the first rows
    are exactly the vectors with gcd(p, q, n) = 1.
    """
    return frozenset(
        ((1 - p * q) % n, -q * q % n, p * p % n, (1 + p * q) % n)
        for p in range(n)
        for q in range(n)
        if math.gcd(p, q, n) == 1
    )


def finite_quotient_test(
    g: GroupElement, n: int, max_modulus: int = DEFAULT_MODULUS_BUDGET
) -> QuotientReport:
    """Count twist-class pairs multiplying to a lift of g in SL(2, Z_n)."""
    if n < 2:
        raise DomainError("modulus must be >= 2")
    if n > max_modulus:
        raise BudgetError(f"modulus {n} exceeds budget {max_modulus}")
    twist_class = _twist_class_mod(n)
    lifts = {
        (g.a % n, g.b % n, g.c % n, g.d % n),
        ((-g.a) % n, (-g.b) % n, (-g.c) % n, (-g.d) % n),
    }
    count = 0
    for target in lifts:
        ta, tb, tc, td = target
        for a, b, c, d in twist_class:
            # x2 = x1^-1 * target
            x2 = (
                (d * ta - b * tc) % n,
                (d * tb - b * td) % n,
                (-c * ta + a * tc) % n,
                (-c * tb + a * td) % n,
            )
            if x2 in twist_class:
                count += 1
    return QuotientReport(modulus=n, solvable=count > 0, solution_count=count)
