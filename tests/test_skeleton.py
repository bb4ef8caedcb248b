import itertools

import pytest

from modtwist.diagrams import CyclicDiagram, axis_word, para_symmetries, word_transpose
from modtwist.errors import DomainError
from modtwist.psl2 import classify, dehn_twist, evaluate
from modtwist.skeleton import (
    CYCLIC,
    FULL_GROUP,
    MarkedPseudoTree,
    PseudoTree,
    from_twists,
    monodromy_at_infinity,
)


def test_monodromy_at_infinity():
    assert classify(monodromy_at_infinity(PseudoTree(""))).index == -4
    cls = classify(monodromy_at_infinity(PseudoTree("uu")))
    assert cls.diagram == CyclicDiagram("LLLLLLRR")
    cls = classify(monodromy_at_infinity(PseudoTree("ud")))
    assert cls.diagram == CyclicDiagram("LLLRLLLR")


def test_from_twists_cases():
    assert from_twists((1, 0), (0, 1)) == FULL_GROUP
    assert from_twists((1, 0), (1, 0)) == CYCLIC
    assert from_twists((1, 0), (-1, 0)) == CYCLIC
    result = from_twists((1, 0), (1, 2))
    assert isinstance(result, MarkedPseudoTree)
    assert result.tree == PseudoTree("")
    with pytest.raises(DomainError):
        from_twists((2, 2), (1, 0))


def test_from_twists_tree_monodromy_matches_product():
    for u, v in [((1, 0), (1, 2)), ((1, 0), (1, 3)), ((1, 1), (1, -2)), ((0, 1), (3, 1))]:
        result = from_twists(u, v)
        if not isinstance(result, MarkedPseudoTree):
            continue
        product = dehn_twist(u) * dehn_twist(v)
        assert classify(monodromy_at_infinity(result.tree)) == classify(product)


def test_from_twists_markings_distinguish_l4_classes():
    # the two strong classes with the empty tree come from the two markings
    markings = set()
    for u, v in [((1, 0), (1, 2)), ((1, 2), (1, 0)), ((1, 0), (1, -2)), ((0, 1), (2, 1))]:
        result = from_twists(u, v)
        if isinstance(result, MarkedPseudoTree) and result.tree == PseudoTree(""):
            markings.add(result.marking)
    assert markings == {"left", "right"}


def test_branch_word_roundtrip_through_axis():
    # axis extraction on the monodromy diagram recovers the branch word
    for length in range(0, 9):
        for bits in itertools.product("ud", repeat=length):
            tree = PseudoTree("".join(bits))
            g = monodromy_at_infinity(tree)
            cls = classify(g)
            diagram = cls.diagram
            a_expected = tree.branches.translate(str.maketrans("ud", "LR"))
            words = {axis_word(diagram, s) for s in para_symmetries(diagram)}
            assert a_expected in words or word_transpose(a_expected) in words, bits


def test_canonical_factors_generate_freely():
    # no nontrivial short reduced word over the two factors is the identity
    from modtwist.factorization import canonical_2factorizations

    g = evaluate("LL" + "LLR" + "LL" + word_transpose("LLR"))
    fact = canonical_2factorizations(g)[0]
    assert fact.product == g
    a, b = fact.factors
    alphabet = {1: a, -1: a.inverse(), 2: b, -2: b.inverse()}
    identity = a * a.inverse()
    for length in range(1, 7):
        for word in itertools.product((1, -1, 2, -2), repeat=length):
            if any(x == -y for x, y in zip(word, word[1:])):
                continue  # not reduced
            value = identity
            for token in word:
                value = value * alphabet[token]
            assert value != identity, word
