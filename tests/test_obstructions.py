import itertools

import pytest

from modtwist.errors import BudgetError, DomainError
from modtwist.factorization import exists_2factorization
from modtwist.obstructions import _twist_class_mod, finite_quotient_test, trace_test
from modtwist.psl2 import X, dehn_twist, evaluate
from oracle import oracle_products


def test_trace_test_examples():
    assert trace_test(X)  # 2 - 1 = 1
    assert trace_test(evaluate("R^3 L R^2"))  # 2 + 7 = 9
    assert not trace_test(evaluate("L^3 R"))  # trace 5: neither -3 nor 7 square
    assert trace_test(evaluate("R^2"))


def test_trace_test_not_sufficient():
    witness = evaluate("R^3 L R^2")
    assert trace_test(witness)
    assert not exists_2factorization(witness)


def test_every_deficit_is_realized():
    # for each q there is a twist pair of SL-trace 2 - q^2
    for q in range(0, 7):
        product = dehn_twist((1, 0)) * dehn_twist((1, q) if q else (1, 0))
        target = 2 - q * q
        assert product.trace in (target, -target), q


def test_quotient_examples():
    for n in range(2, 8):
        assert finite_quotient_test(X, n).solvable
    assert finite_quotient_test(evaluate("L^4"), 5).solvable
    report = finite_quotient_test(evaluate("L^4"), 5)
    assert report.solution_count > 0 and report.modulus == 5


def _twist_class_by_conjugation(n):
    """Reference: the conjugation closure of R under L and R that the
    closed form replaced."""
    gens = [(1, 1, 0, 1), (1, 0, 1, 1)]  # L and R generate SL(2, Z_n)
    start = (1, 0, 1 % n, 1)
    seen = {start}
    queue = [start]
    while queue:
        a, b, c, d = queue.pop()
        for ga, gb, gc, gd in gens:
            # h^-1 * m * h mod n with h the generator
            ia, ib, ic, id_ = gd, -gb, -gc, ga
            m00 = ia * a + ib * c
            m01 = ia * b + ib * d
            m10 = ic * a + id_ * c
            m11 = ic * b + id_ * d
            r = (
                (m00 * ga + m01 * gc) % n,
                (m00 * gb + m01 * gd) % n,
                (m10 * ga + m11 * gc) % n,
                (m10 * gb + m11 * gd) % n,
            )
            if r not in seen:
                seen.add(r)
                queue.append(r)
    return frozenset(seen)


def test_twist_class_closed_form_matches_the_conjugation_closure():
    for n in range(2, 41):
        assert _twist_class_mod(n) == _twist_class_by_conjugation(n), n


def test_quotient_budget():
    with pytest.raises(BudgetError):
        finite_quotient_test(X, 13)
    assert finite_quotient_test(X, 13, max_modulus=13).solvable
    with pytest.raises(DomainError):
        finite_quotient_test(X, 1)


def test_oracle_products_pass_quotient_tests():
    for u, v, g in itertools.islice(oracle_products(4), 0, None, 11):
        for n in (2, 3, 4, 5, 6, 7):
            assert finite_quotient_test(g, n).solvable, (u, v, n)


def test_necessity_chain_on_short_cutting_words():
    # every 2-factorizable word of length <= 10 passes both obstructions
    for m in range(2, 11):
        for bits in itertools.product("LR", repeat=m):
            word = "".join(bits)
            g = evaluate(word)
            if not exists_2factorization(g):
                continue
            assert trace_test(g), word
            for n in (2, 3, 5):
                assert finite_quotient_test(g, n).solvable, (word, n)
