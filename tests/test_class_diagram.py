"""A conjugacy class carries its cyclic diagram, rotated once per element."""

import sys

import pytest

from modtwist import cli, diagrams, factorization, mcurve, psl2
from modtwist.diagrams import CyclicDiagram
from modtwist.necklace import monodromy
from modtwist.psl2 import QUOTIENT_SUM_CAP, ConjugacyClass, classify, evaluate
from modtwist.skeleton import monodromy_at_infinity

HYPERBOLIC = [
    "R^3 L R^2",
    "L^2 R^2",
    "L^3 R L^2 R^5",
    "Y X L^3 R^2 X",
    "X^2 R^4 Y L^5 R",
    "L L L L R R L L L L R R",
    "L^26216 R^26212 L^26216 R^26212",
] + [
    f"L L {a} L L {diagrams.word_transpose(a)}" for a in ("RR", "LLRR", "RLLR", "RRRLLLRR")
]

ZIGZAG_FREE = ["**", "*u*", "*ud*", "*uddu*", "*dudduudu*", "*" + "uudd" * 300 + "*"]


@pytest.fixture
def rotations(monkeypatch):
    """The L/R words passed to diagrams.canonical_rotation, under every name
    a modtwist module binds it to, with the class, analysis and cutting
    diagram memos cleared."""
    original = diagrams.canonical_rotation
    words = []

    def counted(word):
        if not set(word) - {"L", "R"}:
            words.append(word)
        return original(word)

    for name, module in list(sys.modules.items()):
        if name.startswith("modtwist") and getattr(module, "canonical_rotation", None) is original:
            monkeypatch.setattr(module, "canonical_rotation", counted)
    psl2._classify_full.cache_clear()
    factorization.analyze.cache_clear()
    mcurve._cutting_diagram.cache_clear()
    yield words
    psl2._classify_full.cache_clear()
    factorization.analyze.cache_clear()
    mcurve._cutting_diagram.cache_clear()


@pytest.mark.parametrize("text", HYPERBOLIC)
def test_classify_and_factorize_rotate_the_cutting_word_once(rotations, capsys, text):
    g = evaluate(text)
    assert cli.main(["classify", text]) == 0
    assert cli.main(["factorize", text, "--check-obstructions", "--max-modulus", "3"]) == 0
    # the library readers of the same element add no rotation
    psl2.is_real_element(g)
    psl2.primitive_root(g)
    psl2.cutting_conjugator(g)
    factorization.canonical_2factorizations(g)
    factorization.strong_class_labels(g)
    factorization.factorization_reality(g)
    capsys.readouterr()
    assert len(rotations) == 1
    assert classify(g).kind == "hyperbolic"


@pytest.mark.parametrize("text", HYPERBOLIC + ["L^4", "R^3", "X", "Y", "", "[[0,1],[-1,5]]"])
def test_classify_then_normal_form_peels_the_element_once(text):
    g = psl2.parse_element(text)
    cls = classify(g)
    # the public normal form is the one the class record holds
    assert psl2.normal_form(g) is psl2.normal_form(g)
    # the rest of the classify and factorize payloads read the same record
    # and one analysis
    psl2.is_real_element(g)
    psl2.abelian_degree(g)
    if cls.diagram is not None:
        psl2.primitive_root(g)
    factorization.count_classes(g)
    factorization.canonical_2factorizations(g)
    factorization.strong_class_labels(g)
    factorization.factorization_reality(g)
    factorization.exists_2factorization(g)
    assert psl2._classify_full.cache_info().misses == 1
    assert factorization.analyze.cache_info().misses == 1


@pytest.mark.parametrize("word", ZIGZAG_FREE)
def test_monodromy_class_rotates_the_cutting_word_once(rotations, capsys, word):
    mcurve.monodromy_class(word)
    assert len(rotations) == 1
    # the CLI payload's flat diagram, class and shared real part reuse that
    # diagram and rotate no word of their own
    assert cli.main(["mcurve", word]) == 0
    capsys.readouterr()
    assert mcurve._cutting_diagram.cache_info().misses == 1
    assert len(rotations) == 1


@pytest.mark.parametrize("n", list(range(1, 9)) + [QUOTIENT_SUM_CAP])
def test_parabolic_index_is_the_signed_diagram_length(n):
    assert classify(evaluate(f"R^{n}")).index == n
    assert classify(evaluate(f"L^{n}")).index == -n
    assert classify(evaluate(f"L^{n}")).diagram == CyclicDiagram("L" * n)


def test_describe_is_unchanged():
    assert classify(evaluate("R^2")).describe() == "parabolic(+2)"
    assert classify(evaluate("L^4")).describe() == "parabolic(-4)"
    assert classify(evaluate("R^3 L R^2")).describe() == "hyperbolic(LRRRRR)"
    assert classify(evaluate("X")).describe() == "elliptic_order3_pos"
    assert classify(evaluate("")).describe() == "identity"
    assert mcurve.monodromy_class("*ud*").describe() == "hyperbolic(LLLLRRLLLLRR)"
    for kind in ("identity", "elliptic_order2", "elliptic_order3_pos", "elliptic_order3_neg"):
        assert classify(psl2._ELLIPTIC[kind][0]) == ConjugacyClass(kind)
        assert ConjugacyClass(kind).index is None and ConjugacyClass(kind).diagram is None


@pytest.mark.parametrize("word", ["**", "*ud*", "*uu*", "*dddd*", "*dudduudu*", "*uduudd*"])
def test_monodromy_class_equals_the_classified_monodromy(word):
    cls = mcurve.monodromy_class(word)
    from_matrix = classify(monodromy_at_infinity(mcurve.branch_word(word)))
    # at even degree the flat diagram's stones multiply into the curve's class
    from_stones = classify(monodromy(mcurve.flat_diagram(word).representative))
    assert cls == from_matrix == from_stones
    assert hash(cls) == hash(from_matrix) == hash(from_stones)
    assert len({cls, from_matrix, from_stones}) == 1
