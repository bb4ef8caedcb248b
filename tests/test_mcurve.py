import itertools

import pytest

from modtwist.diagrams import (
    CyclicDiagram,
    build_disjoint_axis_diagram,
    word_transpose,
)
from modtwist.errors import DomainError, ParseError
from modtwist.factorization import (
    canonical_2factorizations,
    decide_strong_equivalence,
    pair,
    strong_class_labels,
)
from modtwist.mcurve import (
    ARROW_BLOCK,
    _cutting_diagram,
    branch_word,
    canonical_class,
    classes_sharing_real_part,
    flat_diagram,
    horizontal_flip,
    junction_pair_count,
    monodromy_class,
    parse_junction_word,
    vertical_flip,
)
from modtwist.necklace import canonicalize, monodromy
from modtwist.psl2 import L, X, Y, classify, evaluate
from modtwist.skeleton import monodromy_at_infinity


def _even_runs(tree):
    """True iff the up/down branches come in adjacent equal pairs."""
    return all(len(list(run)) % 2 == 0 for _, run in itertools.groupby(tree.branches))


def test_parse_junction_word():
    assert parse_junction_word(".ud.") == "*ud*"
    assert parse_junction_word("uud") == "uud"
    assert junction_pair_count(".ud.") == 2
    assert junction_pair_count("uud") == 0
    assert junction_pair_count("*uu") == 1
    with pytest.raises(ParseError):
        parse_junction_word("u*d")
    with pytest.raises(ParseError):
        parse_junction_word("")
    with pytest.raises(ParseError):
        parse_junction_word("uxd")


def test_flips():
    assert vertical_flip("*ud*") == "*du*"
    assert horizontal_flip("*ud*") == "*du*"
    assert vertical_flip("*uud*") == "*duu*"
    assert horizontal_flip("*uud*") == "*ddu*"
    word = "*dudduudu*"
    assert vertical_flip(vertical_flip(word)) == word
    assert horizontal_flip(horizontal_flip(word)) == word
    assert vertical_flip(horizontal_flip(word)) == horizontal_flip(vertical_flip(word))


def test_canonical_classes():
    # .ud. and .du.: distinct directed classes, one undirected class
    assert canonical_class("*ud*", directed=True) != canonical_class("*du*", directed=True)
    assert canonical_class("*ud*") == canonical_class("*du*")
    assert canonical_class("*uu*", directed=True) != canonical_class("*ud*", directed=True)
    # the degree-30 pair: distinct even undirectedly
    assert canonical_class("*dudduudu*") != canonical_class("*duududdu*")
    # canonical_class constant on orbits
    for word in ["*ud*", "*dudduudu*", "uudu"]:
        for image in (vertical_flip(word), horizontal_flip(word)):
            assert canonical_class(image) == canonical_class(word)


def test_branch_word_even_and_anchored():
    tree = branch_word("*ud*")
    assert _even_runs(tree)
    cls = monodromy_class("*ud*")
    assert cls.diagram == build_disjoint_axis_diagram((1, 3))
    for word in ["*ud*", "*uu*", "*dddd*", "*uddu*", "*dudduudu*"]:
        assert _even_runs(branch_word(word))
    with pytest.raises(DomainError):
        branch_word("uud")


def test_every_even_tree_arises_from_a_junction_word():
    # even branch words of length <= 8 <-> junction words with that interior
    from modtwist.skeleton import PseudoTree

    reachable = set()
    for interior_len in range(0, 5):
        for arrows in itertools.product("ud", repeat=interior_len):
            word = "*" + "".join(arrows) + "*"
            reachable.add(branch_word(word).branches)
    for length in range(0, 9, 2):
        for bits in itertools.product("ud", repeat=length):
            branches = "".join(bits)
            tree = PseudoTree(branches)
            if _even_runs(tree):
                assert branches in reachable, branches


def test_degree30_monodromy_class():
    target = build_disjoint_axis_diagram((1, 3), "LLRR")
    for word in ["*dudduudu*", "*duududdu*"]:
        cls = monodromy_class(word)
        assert cls.diagram == target


def test_cutting_word_matches_the_multiplied_out_monodromy():
    # the matrix path, classify(L.L.A.L.L.At multiplied out), is the reference
    for length in range(11):
        for arrows in itertools.product("ud", repeat=length):
            word = "*" + "".join(arrows) + "*"
            reference = classify(monodromy_at_infinity(branch_word(word)))
            assert monodromy_class(word) == reference, word
            # the diagram classes_sharing_real_part recognizes
            assert _cutting_diagram(word) == reference.diagram, word


def test_degree30_pair_separates_strong_classes():
    labels = []
    for word in ["*dudduudu*", "*duududdu*"]:
        tree = branch_word(word)
        a_word = tree.branches.translate(str.maketrans("ud", "LR"))
        first = X * L.inverse() * X.inverse()
        wing = Y * evaluate(a_word) * X
        fact = pair(first, wing * L.inverse() * wing.inverse())
        g = fact.product
        assert g == monodromy_at_infinity(tree)
        matches = [
            label
            for canonical, label in zip(canonical_2factorizations(g), strong_class_labels(g))
            if decide_strong_equivalence(fact, canonical)
        ]
        assert len(matches) == 1
        labels.append(matches[0])
    assert labels[0] != labels[1]


def test_flat_diagram_anchors():
    assert flat_diagram("*ud*") == canonicalize("OOOOOSSSSS", "flat_oriented")
    assert flat_diagram("*du*") == flat_diagram("*ud*")
    target = ("O" * 5 + "S" * 5 + "O" + "S" * 3) * 2
    assert flat_diagram("*dudduudu*") == canonicalize(target, "flat_oriented")
    assert flat_diagram("*duududdu*") == flat_diagram("*dudduudu*")
    # the degree-six zigzag-free M-curve: junction of two one-zigzag cubics
    assert flat_diagram("**") == canonicalize("OOOO", "flat_oriented")


def test_flat_diagram_monodromy_consistency():
    # the stone word's monodromy lies in the monodromy class of the curve
    for length in range(2, 9):
        for arrows in itertools.product("ud", repeat=length - 2):
            word = "*" + "".join(arrows) + "*"
            if length % 2:
                continue  # odd degree diagrams are twisted: structural only
            stone_word = flat_diagram(word).representative
            assert classify(monodromy(stone_word)) == monodromy_class(word), word


def test_flat_diagram_odd_degree_structural():
    cls = flat_diagram("*u*")
    assert cls.category == "twisted_oriented"
    assert len(cls.representative) == 3 * 3 - 2


def test_flat_diagram_zigzag_stone_accounting():
    cls = flat_diagram("uud")  # degree 3, two zigzags
    word = cls.representative
    assert len(word) == 3 * 3 - 0
    assert sum(word.count(ch) for ch in "<>") == 2
    cls = flat_diagram("*uu")  # one zigzag
    word = cls.representative
    assert len(word) == 3 * 3 - 1
    assert sum(word.count(ch) for ch in "<>") == 1


def test_classes_sharing_real_part():
    assert classes_sharing_real_part("*ud*") == 2
    assert classes_sharing_real_part("*dudduudu*") == 2
    assert classes_sharing_real_part("**") == 2
    # one para-symmetry example: interior uu gives the one-axis word
    assert classes_sharing_real_part("*uu*") == 1
    with pytest.raises(DomainError):
        classes_sharing_real_part("uud")


def test_arrow_convention_is_the_unique_fit():
    """The frozen arrow->block table is the only one of the eight candidate
    conventions (letter swap x reversal x per-position alternation) that
    reproduces all three worked monodromy classes."""
    anchors = [
        ("*ud*", build_disjoint_axis_diagram((1, 3))),
        ("*dudduudu*", build_disjoint_axis_diagram((1, 3), "LLRR")),
        ("*duududdu*", build_disjoint_axis_diagram((1, 3), "LLRR")),
    ]
    surviving = []
    for swap in (False, True):
        for reverse in (False, True):
            for alternate in (False, True):
                ok = True
                for word, target in anchors:
                    arrows = word[1:-1]
                    if reverse:
                        arrows = arrows[::-1]
                    blocks = []
                    for i, ch in enumerate(arrows):
                        letter = {"u": "R", "d": "L"}[ch]
                        if swap:
                            letter = {"R": "L", "L": "R"}[letter]
                        if alternate and i % 2:
                            letter = {"R": "L", "L": "R"}[letter]
                        blocks.append(letter * 2)
                    a_word = "".join(blocks)
                    full = "LL" + a_word + "LL" + word_transpose(a_word)
                    if CyclicDiagram(full) != target:
                        ok = False
                        break
                if ok:
                    surviving.append((swap, reverse, alternate))
    # swap+reverse together read the junction from the other end (the vh
    # flip of the same directed curve), so exactly that pair survives
    assert surviving == [(False, False, False), (True, True, False)]
    assert ARROW_BLOCK == {"u": "R", "d": "L"}
