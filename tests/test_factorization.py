import copy
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modtwist import factorization, psl2
from modtwist.diagrams import build_disjoint_axis_diagram, word_transpose
from modtwist.errors import DomainError, VerificationError
from modtwist.factorization import (
    Factorization,
    analyze,
    canonical_2factorizations,
    count_classes,
    decide_strong_equivalence,
    decide_weak_equivalence,
    exists_2factorization,
    factorization_reality,
    hurwitz_move,
    pair,
    strong_class_labels,
)
from modtwist.obstructions import trace_test
from modtwist.psl2 import (
    IDENTITY,
    L,
    R,
    X,
    Y,
    TwistVector,
    abelian_degree,
    classify,
    dehn_twist,
    evaluate,
    primitive_root,
    twist_vector,
)
from oracle import oracle_products


def test_factorization_validates_twists():
    with pytest.raises(DomainError):
        pair(L, R)  # L is an inverse twist
    f = pair(R, L.inverse())
    assert f.product == X
    assert f.vectors == (TwistVector(1, 0), TwistVector(0, 1))


def test_factorization_vectors_leave_value_semantics_alone():
    f = pair(R, L.inverse())
    assert repr(f) == "Factorization(factors=(GroupElement(1, 0, 1, 1), GroupElement(1, -1, 0, 1)))"
    assert hash(f) == hash((f.factors,))
    for clone in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f), pair(R, L.inverse())):
        assert clone == f and hash(clone) == hash(f) and repr(clone) == repr(f)
        assert clone.vectors == (TwistVector(1, 0), TwistVector(0, 1))
    assert f != pair(L.inverse(), R)


def _matrix_move(f, direction):
    """Reference: the Hurwitz move at position 1, multiplied out on matrices."""
    a, b = f.factors
    if direction >= 0:
        return pair(a * b * a.inverse(), a)
    return pair(b, b.inverse() * a * b)


_primitive = st.tuples(st.integers(-30, 30), st.integers(-30, 30)).filter(
    lambda v: math.gcd(*v) == 1
)
_elements = st.lists(st.sampled_from(["L", "R", "L^-1", "R^-1", "X", "Y"]), max_size=8).map(
    lambda letters: evaluate(" ".join(letters)) if letters else IDENTITY
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_primitive, _primitive, _elements)
def test_vector_move_is_the_matrix_move(u, v, h):
    f = pair(dehn_twist(u), dehn_twist(v))
    for direction in (1, -1):
        moved = factorization._move(*f.vectors, direction)
        assert moved == _matrix_move(f, direction).vectors
        assert hurwitz_move(f, 1, direction) == _matrix_move(f, direction)
    # h^-1 t_v h = t_{v h}, v a row vector
    (p, q), (a, b, c, d) = v, h
    assert dehn_twist(v).conjugated_by(h) == dehn_twist((p * a + q * c, p * b + q * d))


def test_hurwitz_move_examples():
    assert hurwitz_move(pair(R, R), 1) == pair(R, R)
    f = pair(R, L.inverse())
    moved = hurwitz_move(f, 1)
    assert moved.factors == (R * L.inverse() * R.inverse(), R)
    assert moved.product == X
    with pytest.raises(DomainError):
        hurwitz_move(f, 2)


@pytest.mark.parametrize("direction", [0, 2, 5, -2, -7])
def test_hurwitz_move_refuses_a_direction_other_than_one_or_minus_one(direction):
    with pytest.raises(DomainError, match="direction"):
        hurwitz_move(pair(R, L.inverse()), 1, direction)


@settings(max_examples=60, deadline=None)
@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
def test_hurwitz_move_inverse(p1, q1, p2, q2):
    if math.gcd(p1, q1) != 1 or math.gcd(p2, q2) != 1:
        return
    f = pair(dehn_twist((p1, q1)), dehn_twist((p2, q2)))
    assert hurwitz_move(hurwitz_move(f, 1, 1), 1, -1) == f
    assert hurwitz_move(hurwitz_move(f, 1, -1), 1, 1) == f
    assert hurwitz_move(f, 1).product == f.product


def test_exists_examples():
    assert exists_2factorization(X)
    assert not exists_2factorization(evaluate("R^3 L R^2"))
    assert not exists_2factorization(IDENTITY)
    assert exists_2factorization(evaluate("L^6 R^2"))
    assert exists_2factorization(evaluate("R^2"))
    assert exists_2factorization(evaluate("L^4"))
    assert not exists_2factorization(Y)
    assert not exists_2factorization(X.inverse())
    assert not exists_2factorization(evaluate("L^2"))
    assert not exists_2factorization(evaluate("R^4"))


def test_a_failing_trace_test_builds_no_analysis():
    # trace 3: neither 2 - 3 nor 2 + 3 is a square, so no pair of twists
    g = evaluate("L R")
    assert not trace_test(g)
    before = analyze.cache_info().currsize
    assert not exists_2factorization(g)
    assert analyze.cache_info().currsize == before


def test_count_classes_examples():
    assert count_classes(evaluate("L^2 L R L^2 L R")) == (2, 2)  # the m=1 chain
    assert count_classes(evaluate("L^4")) == (2, 1)
    assert count_classes(evaluate("R^2")) == (1, 1)
    assert count_classes(Y) == (0, 0)
    assert count_classes(X) == (1, 1)
    assert count_classes(evaluate("L^6 R^2")) == (1, 1)


def test_canonical_factorizations_verified():
    for word in ["R L^-1", "R^2", "L^4", "L^6 R^2", "L^2 L R L^2 L R"]:
        g = evaluate(word)
        facts = canonical_2factorizations(g)
        assert len(facts) == count_classes(g)[0]
        for f in facts:
            assert f.product == g
            assert all(twist_vector(m) for m in f.factors)
        # representatives pairwise strongly inequivalent
        for i in range(len(facts)):
            for j in range(i + 1, len(facts)):
                assert not decide_strong_equivalence(facts[i], facts[j])


def test_canonical_x_class_pair():
    facts = canonical_2factorizations(X)
    assert facts[0].factors == (R, L.inverse())
    g = X.conjugated_by(evaluate("L^2 R"))
    (f,) = canonical_2factorizations(g)
    assert f.product == g


def test_displayed_l4_factorizations():
    conj_a = evaluate("R^-1 L^2")
    conj_b = evaluate("L R^-1 L^2")
    f_a = pair(R, conj_a * R * conj_a.inverse())
    f_b = pair(evaluate("L R L^-1"), conj_b * R * conj_b.inverse())
    l4 = evaluate("L^4")
    assert f_a.product == l4
    assert f_b.product == l4
    assert not decide_strong_equivalence(f_a, f_b)
    assert decide_weak_equivalence(f_a, f_b)
    canonical = canonical_2factorizations(l4)
    matches_a = [i for i, c in enumerate(canonical) if decide_strong_equivalence(f_a, c)]
    matches_b = [i for i, c in enumerate(canonical) if decide_strong_equivalence(f_b, c)]
    assert len(matches_a) == 1 and len(matches_b) == 1
    assert matches_a != matches_b


def test_chain_classes_not_weakly_equivalent():
    v1 = evaluate("L^2 L R L^2 L R")
    c1, c2 = canonical_2factorizations(v1)
    assert not decide_strong_equivalence(c1, c2)
    assert not decide_weak_equivalence(c1, c2)


@pytest.mark.parametrize("word", ["X", "R^2", "L^4", "LLLLRRLLLLRR"])
@pytest.mark.parametrize("direction", [1, -1])
def test_a_hurwitz_move_keeps_the_weak_class(word, direction):
    for f in canonical_2factorizations(evaluate(word)):
        assert decide_weak_equivalence(f, hurwitz_move(f, 1, direction))


def test_every_elliptic_oracle_product_is_the_one_class_of_x():
    # the class of X is the only elliptic product of two positive twists and
    # holds one strong class, so weak equivalence there is strong equivalence
    elliptic = 0
    for u, v, g in oracle_products(7):
        if classify(g).kind.startswith("elliptic"):
            elliptic += 1
            assert classify(g).kind == "elliptic_order3_pos"
            f = pair(dehn_twist(u), dehn_twist(v))
            (canonical,) = canonical_2factorizations(g)
            assert decide_strong_equivalence(f, canonical)
            assert decide_weak_equivalence(f, canonical)
    assert elliptic == 282


def test_decide_rejects_distinct_products():
    with pytest.raises(DomainError):
        decide_strong_equivalence(pair(R, R), pair(R, L.inverse()))


def test_strong_orbit_membership():
    f = pair(R, L.inverse())
    current = f
    for _ in range(5):
        current = hurwitz_move(current, 1)
        assert decide_strong_equivalence(f, current)
        assert decide_strong_equivalence(current, f)


def _max_entry(f):
    return max(max(abs(m.a), abs(m.b), abs(m.c), abs(m.d)) for m in f.factors)


def _streak_walk(f1, f2):
    """Reference: the bounded walk that decided strong equivalence before the
    exact cutoff.  A direction stops after eight moves in a row whose pair has
    an entry above 4 * (largest entry of f1 and f2) + 64."""
    threshold = 4 * max(_max_entry(f1), _max_entry(f2)) + 64
    for direction in (1, -1):
        cur, streak = f1, 0
        while streak < 8:
            if cur == f2:
                return True
            cur = _matrix_move(cur, direction)
            if cur == f1:
                return False
            streak = streak + 1 if _max_entry(cur) > threshold else 0
    return False


def test_locate_agrees_with_the_streak_walk():
    for i, (u, v, g) in enumerate(oracle_products(8)):
        analysis = analyze(g)
        fact = pair(dehn_twist(u), dehn_twist(v))
        # a second copy moved by 1..10 Hurwitz moves, alternating in direction
        shift = (i % 10 + 1) * (1 if i % 20 < 10 else -1)
        moved = fact
        for _ in range(abs(shift)):
            moved = hurwitz_move(moved, 1, 1 if shift > 0 else -1)
        for f in (fact, moved):
            reference = [
                j for j, (canonical, _) in enumerate(analysis.canonical)
                if _streak_walk(f, canonical)
            ]
            assert reference == [analysis.locate(f)], (u, v, shift)


def test_locate_raises_unless_one_class_matches(monkeypatch):
    f1, f2 = canonical_2factorizations(evaluate("L^4"))
    assert [analyze(f1.product).locate(f) for f in (f1, f2)] == [0, 1]
    for matches in ([], [0, 1]):
        monkeypatch.setattr(factorization, "_walk", lambda f, targets: matches)
        with pytest.raises(VerificationError):
            analyze(f1.product).locate(f1)


@pytest.mark.parametrize(
    "g, fact",
    [
        (Y, pair(R, R)),  # Y has no classes
        (evaluate("R^3 L R^2"), pair(R, L.inverse())),  # nor has R^3 L R^2
        (evaluate("L^4"), pair(R, L.inverse())),
        (X, Factorization((R,))),
        (X, Factorization((R, L.inverse(), R))),
    ],
)
def test_locate_refuses_a_pair_of_another_element(g, fact):
    with pytest.raises(DomainError):
        analyze(g).locate(fact)


def test_weak_classes_match_the_weak_count():
    # grouping the canonical pairs by weak equivalence gives the weak count;
    # 140 of these products are hyperbolic with two classes and a proper root
    products = {g: None for _, _, g in oracle_products(6)}
    rooted = 0
    for g in products:
        facts = canonical_2factorizations(g)
        groups = []
        for f in facts:
            for group in groups:
                if decide_weak_equivalence(group[0], f):
                    group.append(f)
                    break
            else:
                groups.append([f])
        assert len(groups) == count_classes(g)[1], g
        if len(facts) == 2 and classify(g).kind == "hyperbolic" and primitive_root(g)[1] > 1:
            rooted += 1
    assert len(products) == 2050 and rooted == 140


def test_equal_twists_orbit_is_fixed():
    f = pair(R, R)
    assert hurwitz_move(f, 1) == f
    assert decide_strong_equivalence(f, canonical_2factorizations(evaluate("R^2"))[0])


def test_labels():
    assert strong_class_labels(X)[0].kind == "full_group"
    assert strong_class_labels(evaluate("R^2"))[0].kind == "equal_twists"
    labels = strong_class_labels(evaluate("L^4"))
    assert [lab.kind for lab in labels] == ["axis", "axis"]
    assert labels[0].axis != labels[1].axis


def test_the_analysis_labels_are_the_canonical_labels():
    # the one list of strong classes: canonical pairs and counts read it
    products = {g for _, _, g in oracle_products(6)}
    products |= {X, evaluate("R^2"), evaluate("L^4"), evaluate("LLLLRRLLLLRR")}
    for g in products:
        analysis = analyze(g)
        assert analysis.labels == tuple(label for _, label in analysis.canonical)
        assert len(analysis.labels) == count_classes(g)[0]


def test_reality_reports():
    report = factorization_reality(X)
    assert report.applicable and report.classes == ("real",)
    report = factorization_reality(evaluate("R^2"))
    assert report.applicable and report.classes == ("real",)
    report = factorization_reality(evaluate("L^4"))
    assert report.classes == ("real", "real")
    assert report.real_structure_count == 4
    # palindromic wing: unique class, real
    word = "LL" + "LRL" + "LL" + word_transpose("LRL")
    report = factorization_reality(evaluate(word))
    assert report.applicable and report.classes == ("real",)
    # the m=1 chain: two classes swapped by the (two) real structures
    report = factorization_reality(evaluate("L^2 L R L^2 L R"))
    assert report.classes == ("swapped-with-partner",) * 2
    assert report.real_structure_count == 2
    report = factorization_reality(evaluate("R^3 L R^2"))
    assert not report.applicable


def test_reality_disjoint_axes_insert_palindrome_controls_structures():
    # insert "" has two reflection axes, a palindromic insert has one,
    # a non-palindromic insert none (element not real)
    counts = {}
    for insert in ["", "LRL", "LLR"]:
        g = evaluate(build_disjoint_axis_diagram((1, 3), insert).letters)
        counts[insert] = factorization_reality(g)
    assert counts[""].real_structure_count == 2
    assert counts["LRL"].real_structure_count == 1
    assert not counts["LLR"].applicable


def test_oracle_products_small():
    with pytest.raises(ValueError):
        next(oracle_products(0))
    triples = list(oracle_products(1))
    assert any(
        u == TwistVector(1, 0) and v == TwistVector(0, 1) and g == X
        for u, v, g in triples
    )
    for u, v, g in oracle_products(2):
        assert exists_2factorization(g)
        assert abelian_degree(g) == 2
        wedge = u.p * v.q - u.q * v.p
        assert g.trace in (2 - wedge * wedge, wedge * wedge - 2)
    assert classify(dehn_twist((1, 0)) * dehn_twist((1, 2))).index == -4


def test_oracle_strong_class_completeness_small():
    # each oracle factorization is equivalent to exactly one canonical rep
    seen = 0
    for u, v, g in oracle_products(2):
        f = pair(dehn_twist(u), dehn_twist(v))
        matches = [
            c for c in canonical_2factorizations(g) if decide_strong_equivalence(f, c)
        ]
        assert len(matches) == 1, (u, v)
        seen += 1
    assert seen == 64  # 8 primitive vectors up to sign at bound 2


def _answers(g):
    return (
        exists_2factorization(g),
        canonical_2factorizations(g),
        strong_class_labels(g),
        count_classes(g),
        factorization_reality(g),
    )


def test_returned_lists_are_fresh_copies():
    g = evaluate("L^4")
    facts, labels = canonical_2factorizations(g), strong_class_labels(g)
    assert len(facts) == len(labels) == 2
    kept = (list(facts), list(labels))
    facts.reverse()
    facts.append(facts[0])
    labels.clear()
    assert (canonical_2factorizations(g), strong_class_labels(g)) == kept
    assert analyze(g) is analyze(g)


def test_cold_and_warm_memos_agree():
    products = {g for _, _, g in oracle_products(6)}
    cold = {}
    for g in products:
        analyze.cache_clear()
        psl2._classify_full.cache_clear()
        cold[g] = _answers(g)
    for g in products:
        assert _answers(g) == cold[g]
        assert _answers(g) == cold[g]


# twist vectors with wedge 3: their product is hyperbolic and its classes
# are read at para-symmetry axes
_AXIS_TWISTS = ((1, 0), (1, 3))


def test_wrong_wing_raises(monkeypatch):
    g = dehn_twist(_AXIS_TWISTS[0]) * dehn_twist(_AXIS_TWISTS[1])
    assert analyze(g).labels[0].kind == "axis"
    # Y enters the factorization layer only through the wing Y A X
    monkeypatch.setattr(factorization, "Y", L)
    with pytest.raises(VerificationError):
        canonical_2factorizations(g)


def test_wrong_wing_raises_under_optimization():
    # python -O strips assert statements; the result checks must survive it
    u, v = _AXIS_TWISTS
    code = (
        "import sys\n"
        "from modtwist import factorization\n"
        "from modtwist.errors import VerificationError\n"
        "from modtwist.psl2 import L, dehn_twist\n"
        f"g = dehn_twist({u}) * dehn_twist({v})\n"
        "factorization.Y = L\n"
        "try:\n"
        "    factorization.canonical_2factorizations(g)\n"
        "except VerificationError:\n"
        "    sys.exit(0 if sys.flags.optimize else 3)\n"
        "sys.exit(1)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(factorization.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env, timeout=60)
    assert done.returncode == 0
