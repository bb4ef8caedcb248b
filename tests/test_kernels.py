"""The integer product kernels of psl2 and necklace, each pinned to the
nested-tuple matrix product of tests/oracle.py, which shares no code with
them."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modtwist import psl2
from modtwist.necklace import STONES, _stone_product
from modtwist.psl2 import (
    IDENTITY,
    TAU1,
    TAU2,
    GroupElement,
    L,
    RealStructure,
    evaluate,
    real_involution,
)
from oracle import (
    matrix_inverse,
    matrix_product,
    projective,
    stone_monodromy,
    word_matrix,
)

EXPONENTS = st.integers(min_value=-7, max_value=7) | st.integers(min_value=-(10**5), max_value=10**5)
TOKENS = st.lists(st.tuples(st.sampled_from("LRXY"), EXPONENTS), max_size=12)
ELEMENTS = TOKENS.map(lambda tokens: GroupElement(*projective(word_matrix(tokens))))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from("LR"), st.integers(min_value=1, max_value=6)), max_size=10),
    st.sampled_from([0, 1, 99_999, 100_000]),
    st.integers(min_value=0, max_value=10),
)
@example([], 0, 0)
@example([("L", 3), ("R", 2)], 100_000, 1)
def test_run_product_matches_the_oracle(runs, long_run, at):
    # at most one run of 10^5 letters, inserted at a random place
    runs = runs[:at] + [("L" if at % 2 else "R", long_run)] + runs[at:]
    word = "".join(letter * n for letter, n in runs)
    assert psl2._run_product(word) == projective(word_matrix(runs))


@settings(max_examples=60, deadline=None)
@given(TOKENS, st.sampled_from(["", " "]), st.sampled_from([0, 100_000]), st.sampled_from("LR"))
@example([], "", 0, "L")
@example([("X", 3), ("Y", -2)], "", 0, "L")
def test_evaluate_matches_the_oracle(tokens, sep, spelled, letter):
    # tokens juxtaposed or spaced, then a run of spelled-out letters, up to 10^5
    spelled_run = [letter * spelled] if spelled else []
    word = sep.join([gen if exp == 1 else f"{gen}^{exp}" for gen, exp in tokens] + spelled_run)
    assert evaluate(word) == projective(word_matrix(tokens + [(letter, spelled)]))


@settings(max_examples=200, deadline=None)
@given(ELEMENTS, ELEMENTS)
def test_conjugated_by_matches_the_oracle(g, h):
    expected = matrix_product((matrix_inverse(h.matrix()), g.matrix(), h.matrix()))
    assert g.conjugated_by(h) == projective(expected)


@st.composite
def involutions(draw) -> RealStructure:
    """A det -1 involution [[a, b], [c, -a]]: b * c = 1 - a^2, b a signed
    divisor of 1 - a^2, or one of b, c zero where a = +-1."""
    a = draw(st.integers(min_value=-60, max_value=60))
    n = 1 - a * a
    if n == 0:
        x, y = draw(st.integers(min_value=-99, max_value=99)), 0
        b, c = draw(st.sampled_from([(x, y), (y, x)]))
    else:
        b = draw(st.sampled_from([s * q for q in range(1, abs(n) + 1) if n % q == 0 for s in (1, -1)]))
        c = n // b
    return RealStructure(a, b, c, -a)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([TAU1, TAU2]) | involutions(), ELEMENTS)
@example(TAU1, L)
@example(TAU2, L)
def test_real_involution_matches_the_oracle(tau, g):
    a, b, c, d = tau
    t = ((a, b), (c, d))
    assert real_involution(tau, g) == projective(matrix_product((t, matrix_inverse(g.matrix()), t)))


@settings(max_examples=100, deadline=None)
@given(ELEMENTS, st.integers(min_value=-12, max_value=12))
def test_power_matches_repeated_products(g, n):
    step = g.matrix() if n >= 0 else matrix_inverse(g.matrix())
    assert g**n == projective(matrix_product([step] * abs(n)))


def test_power_at_a_large_exponent():
    assert L ** 2**20 == GroupElement(1, 2**20, 0, 1)
    assert L ** -(2**20) == GroupElement(1, -(2**20), 0, 1)


@pytest.mark.parametrize("n", [*range(-9, 10), 2**20, 2**20 - 1])
def test_power_squares_and_multiplies_no_more_than_it_needs(n, monkeypatch):
    # one squaring per bit below the top one and one product per set bit
    # below it: none for n = +-1
    calls, mul = [], GroupElement.__mul__
    monkeypatch.setattr(GroupElement, "__mul__", lambda x, y: calls.append(1) or mul(x, y))
    L**n
    bits = abs(n).bit_length()
    assert len(calls) == (bits - 1 + bin(n).count("1") - 1 if n else 0)


@pytest.mark.parametrize("length", range(17))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_stone_product_matches_the_oracle(length, data):
    # every length from "" to 16 stones: one to four blocks of five,
    # the block boundaries 5, 10 and 15 included
    word = data.draw(st.text(alphabet=STONES, min_size=length, max_size=length))
    assert _stone_product(word) == stone_monodromy(word)


def test_empty_stone_word_is_the_identity():
    assert _stone_product("") == IDENTITY
