"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
"""

import itertools
import random
import time

import pytest

from modtwist.diagrams import (
    CyclicDiagram,
    build_disjoint_axis_diagram,
    para_symmetries,
    recognize,
)
from modtwist.factorization import (
    canonical_2factorizations,
    decide_strong_equivalence,
    decide_weak_equivalence,
    exists_2factorization,
    pair,
)
from modtwist.mcurve import canonical_class, flat_diagram, monodromy_class
from modtwist.necklace import canonicalize, dual, enumerate_classes, inverse, monodromy, stats
from modtwist.obstructions import finite_quotient_test, trace_test
from modtwist.psl2 import (
    TAU1,
    TAU2,
    Y,
    classify,
    dehn_twist,
    evaluate,
    normal_form,
    real_involution,
)
from oracle import oracle_products

WORD_ATOMS = ["L", "R", "X", "Y", "L^-1", "R^-1", "X^-1", "L^2", "R^3"]


def _verdict(number: int, ok: bool, message: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {message}")
    assert ok, f"criterion {number}: {message}"


@pytest.fixture(scope="module")
def k1_w0():
    return enumerate_classes(1, 0)


@pytest.fixture(scope="module")
def k2_w0():
    return enumerate_classes(2, 0)


def test_criterion_1_necklace_counts(k1_w0, k2_w0):
    started = time.perf_counter()
    counts = {
        (1, 0): k1_w0.count,
        (1, 1): enumerate_classes(1, 1).count,
        (1, 2): enumerate_classes(1, 2).count,
        (2, 0): k2_w0.count,
        (2, 1): enumerate_classes(2, 1).count,
    }
    expected = {(1, 0): 25, (1, 1): 28, (1, 2): 24, (2, 0): 8421, (2, 1): 15602}
    elapsed = time.perf_counter() - started
    _verdict(
        1,
        counts == expected,
        f"necklace class counts {counts} == {expected} ({elapsed:.1f}s)",
    )


def test_criterion_2_maximal_and_algebraic(k1_w0, k2_w0):
    maximal = sum(
        1 for word, _ in k1_w0.representatives if stats(word, k=1, w=0).maximal
    )
    passing_k1 = sum(
        1
        for word, _ in k1_w0.representatives
        if stats(word, k=1, w=0).essential_obstruction
    )
    passing_k2 = sum(
        1
        for word, _ in k2_w0.representatives
        if stats(word, k=2, w=0).essential_obstruction
    )
    _verdict(
        2,
        (maximal, passing_k1, passing_k2) == (4, 17, 3596),
        f"maximal/obstruction counts {(maximal, passing_k1, passing_k2)} == (4, 17, 3596)",
    )


def test_criterion_3_l4_identity_and_classes():
    conj_a = evaluate("R^-1 L^2")
    conj_b = evaluate("L R^-1 L^2")
    f_a = pair(evaluate("R"), conj_a * evaluate("R") * conj_a.inverse())
    f_b = pair(evaluate("L R L^-1"), conj_b * evaluate("R") * conj_b.inverse())
    l4 = evaluate("L^4")
    ok = (
        f_a.product == l4
        and f_b.product == l4
        and not decide_strong_equivalence(f_a, f_b)
        and decide_weak_equivalence(f_a, f_b)
    )
    _verdict(3, ok, "R(R^-1 L^2)R(R^-1 L^2)^-1 = L^4; classes split strongly, merge weakly")


def test_criterion_4_oracle_equivalence():
    started = time.perf_counter()
    total = 0
    for u, v, g in oracle_products(6):
        total += 1
        assert exists_2factorization(g), (u, v)
        wedge = u.p * v.q - u.q * v.p
        assert g.trace in (2 - wedge * wedge, wedge * wedge - 2), (u, v)
        for n in range(2, 8):
            assert finite_quotient_test(g, n).solvable, (u, v, n)
        fact = pair(dehn_twist(u), dehn_twist(v))
        matches = [
            c for c in canonical_2factorizations(g) if decide_strong_equivalence(fact, c)
        ]
        assert len(matches) == 1, (u, v)
    elapsed = time.perf_counter() - started
    _verdict(
        4,
        total > 1000 and elapsed < 120,
        f"{total} oracle products verified (existence, trace, quotients, classes) in {elapsed:.1f}s",
    )


def test_criterion_5_para_symmetry_bound():
    started = time.perf_counter()
    checked = 0
    for m in range(1, 15):
        for bits in itertools.product("LR", repeat=m):
            diagram = CyclicDiagram("".join(bits))
            count = len(para_symmetries(diagram))
            assert count <= 2, diagram
            form = recognize(diagram)
            assert (count == 2) == (form.kind in ("shared_axes", "disjoint_axes"))
            checked += 1
    elapsed = time.perf_counter() - started
    _verdict(
        5,
        elapsed < 60,
        f"para-symmetry count <= 2 on all {checked} cyclic words of length <= 14 ({elapsed:.1f}s)",
    )


def test_criterion_6_non_sufficiency_witness():
    witness = evaluate("R^3 L R^2")
    ok = (
        witness.trace == 7
        and trace_test(witness)
        and not exists_2factorization(witness)
    )
    _verdict(6, ok, "R^3 L R^2 has trace 7, passes the trace test, admits no 2-factorization")


def test_criterion_7_mcurve_anchors():
    flat_ud = flat_diagram("*ud*")
    flat_du = flat_diagram("*du*")
    target30 = canonicalize(("O" * 5 + "S" * 5 + "O" + "S" * 3) * 2, "flat_oriented")
    class_target = build_disjoint_axis_diagram((1, 3), "LLRR")
    ok = (
        flat_ud == flat_du == canonicalize("OOOOOSSSSS", "flat_oriented")
        and canonical_class("*ud*", directed=True) != canonical_class("*du*", directed=True)
        and flat_diagram("*dudduudu*") == flat_diagram("*duududdu*") == target30
        and monodromy_class("*dudduudu*").diagram == class_target
        and monodromy_class("*duududdu*").diagram == class_target
        and canonical_class("*dudduudu*") != canonical_class("*duududdu*")
    )
    _verdict(7, ok, "junction-word anchors: flat diagrams, monodromy classes, class splits")


def test_criterion_8_randomized_property_suites():
    started = time.perf_counter()
    rng = random.Random(2024)
    cases = 0

    for _ in range(2500):  # normal-form round trip
        word = " ".join(rng.choice(WORD_ATOMS) for _ in range(rng.randint(0, 12)))
        g = evaluate(word)
        assert evaluate(normal_form(g).to_word()) == g
        cases += 1

    for _ in range(2500):  # classify is a class function
        g = evaluate(" ".join(rng.choice(WORD_ATOMS) for _ in range(rng.randint(0, 8))))
        h = evaluate(" ".join(rng.choice(WORD_ATOMS) for _ in range(rng.randint(1, 5))))
        assert classify(g.conjugated_by(h)) == classify(g)
        cases += 1

    for _ in range(2500):  # the real involutions are involutive
        g = evaluate(" ".join(rng.choice(WORD_ATOMS) for _ in range(rng.randint(0, 10))))
        tau = rng.choice((TAU1, TAU2))
        assert real_involution(tau, real_involution(tau, g)) == g
        cases += 1

    for _ in range(2500):  # necklace transform identities
        word = "".join(rng.choice("OS><") for _ in range(rng.randint(1, 10)))
        m = monodromy(word)
        assert monodromy(dual(word)) == Y * m * Y
        assert monodromy(inverse(word)) == real_involution(TAU1, m)
        cases += 1

    elapsed = time.perf_counter() - started
    _verdict(
        8,
        cases >= 10_000 and elapsed < 30,
        f"{cases} randomized property cases in {elapsed:.1f}s",
    )
