import copy
import math
import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modtwist import psl2
from modtwist.diagrams import CyclicDiagram
from modtwist.errors import BudgetError, DomainError, ParseError
from modtwist.psl2 import (
    IDENTITY,
    QUOTIENT_SUM_CAP,
    L,
    R,
    TAU1,
    TAU2,
    X,
    Y,
    ConjugacyClass,
    GroupElement,
    RealStructure,
    SyllableWord,
    TwistVector,
    abelian_degree,
    classify,
    cutting_conjugator,
    dehn_twist,
    evaluate,
    is_real_element,
    normal_form,
    parse_element,
    parse_matrix,
    primitive_root,
    product,
    real_involution,
    twist_vector,
)
from oracle import projective, word_matrix


def test_generator_matrices():
    assert L.matrix() == ((1, 1), (0, 1))
    assert R.matrix() == ((1, 0), (1, 1))
    assert X.matrix() == ((1, -1), (1, 0))
    assert Y.matrix() == ((0, 1), (-1, 0))


def test_presentation_relations():
    assert X**3 == IDENTITY
    assert Y**2 == IDENTITY
    assert X * Y == L
    assert X * X * Y == R
    assert R * L.inverse() == X
    assert L * R.inverse() * L == Y
    assert R.inverse() * L * R.inverse() == Y
    # the braid-like relation R L^-1 R = L^-1 R L^-1
    assert R * L.inverse() * R == L.inverse() * R * L.inverse()


def test_evaluate_examples():
    assert evaluate("L") == L
    assert evaluate("") == IDENTITY
    assert evaluate("X^3") == IDENTITY
    assert evaluate("R L^-1") == X
    assert evaluate("RL^-1") == X  # juxtaposed tokens
    assert evaluate("L^-3") == evaluate("L") ** -3


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from("LRXY"), st.integers(min_value=-7, max_value=7)),
        max_size=12,
    )
)
def test_evaluate_matches_letter_by_letter_product(tokens):
    # runs of one generator are merged and powered in closed form; the
    # reference multiplies one generator (or its inverse) at a time
    word = "".join(f"{gen}^{exp}" for gen, exp in tokens)
    expected = IDENTITY
    for gen, exp in tokens:
        letter = {"L": L, "R": R, "X": X, "Y": Y}[gen]
        step = letter if exp >= 0 else letter.inverse()
        for _ in range(abs(exp)):
            expected = expected * step
    assert evaluate(word) == expected


def test_evaluate_rejects_garbage():
    with pytest.raises(ParseError):
        evaluate("L Q")
    with pytest.raises(ParseError):
        evaluate("L^")


def test_parse_matrix():
    assert parse_matrix("[[1,0],[0,1]]") == IDENTITY
    assert parse_matrix("[[1, -1], [1, 0]]") == X
    with pytest.raises(ParseError):
        parse_matrix("[[1,0],[0,2]]")
    with pytest.raises(ParseError):
        parse_matrix("[[1,0],[0,1]")


def test_sign_normalization_idempotent():
    g = GroupElement(-1, -2, 0, -1)
    assert g.a > 0
    assert GroupElement(g.a, g.b, g.c, g.d) == g


def test_determinant_checked():
    with pytest.raises(DomainError):
        GroupElement(1, 0, 0, 2)
    with pytest.raises(DomainError):
        TwistVector(2, 4)


def test_elements_are_immutable_tuples():
    g = evaluate("L^3 R^-2 X Y")
    a, b, c, d = g
    assert g == (a, b, c, d) == (g.a, g.b, g.c, g.d)
    assert hash(g) == hash((g.a, g.b, g.c, g.d))
    v = TwistVector(-2, 3)
    assert v == (2, -3) == (v.p, v.q)
    assert hash(v) == hash((v.p, v.q))
    with pytest.raises(AttributeError):
        g.a = 0
    with pytest.raises(AttributeError):
        g.extra = 0


@pytest.mark.parametrize("value", [evaluate("L^3 R^-2 X Y"), IDENTITY, TwistVector(2, -3)])
def test_pickle_and_deepcopy_round_trip(value):
    for clone in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert clone == value
        assert type(clone) is type(value)
        assert repr(clone) == repr(value)


@pytest.mark.parametrize("value", [L, TwistVector(1, 2)])
def test_tuple_operators_are_refused(value):
    other = R if isinstance(value, GroupElement) else TwistVector(0, 1)
    for operation in (
        lambda: value + other,
        lambda: 3 * value,
        lambda: value * 3,
        lambda: value < other,
        lambda: value >= other,
        lambda: sorted([value, other]),
    ):
        with pytest.raises(TypeError):
            operation()


ELEMENTS = st.sampled_from([L, R, X, Y, L.inverse(), R.inverse(), evaluate("R^3 L^-2")])


@settings(max_examples=200, deadline=None)
@given(st.lists(ELEMENTS, max_size=30))
def test_product_is_the_left_fold_of_mul(elements):
    expected = IDENTITY
    for g in elements:
        expected = expected * g
    assert product(elements) == expected
    assert product(iter(elements)) == expected


def test_product_checks_the_determinant():
    assert product([]) == IDENTITY
    with pytest.raises(DomainError):
        product([(1, 0, 0, 2)])


def test_oversize_literals_are_parse_errors():
    digits = "7" * 5000
    for word in (f"L^{digits}", f"X^-{digits} R"):
        with pytest.raises(ParseError, match="digit limit"):
            evaluate(word)
    with pytest.raises(ParseError, match="digit limit"):
        parse_matrix(f"[[1,{digits}],[0,1]]")


def test_parse_error_names_the_first_bad_position():
    with pytest.raises(ParseError, match="position 4: 'Q R'"):
        evaluate("L X Q R")
    with pytest.raises(ParseError, match="position 0"):
        evaluate("   ")


def test_entry_size_cap():
    # L^n peels to the single partial quotient n
    assert classify(evaluate(f"L^{QUOTIENT_SUM_CAP}")).index == -QUOTIENT_SUM_CAP
    half = QUOTIENT_SUM_CAP // 2
    assert classify(evaluate(f"R^{half} L^-{half}")).kind == "hyperbolic"
    for word in (f"L^{QUOTIENT_SUM_CAP + 1}", "L^100000000", f"R^{half} L^{half + 1}"):
        with pytest.raises(BudgetError):
            classify(evaluate(word))


def test_inverse_roundtrip():
    g = evaluate("L^3 R^-2 X Y")
    assert g * g.inverse() == IDENTITY
    assert g.inverse() * g == IDENTITY


WORD_ATOMS = ["L", "R", "X", "Y", "L^-1", "R^-1", "X^-1", "L^2", "R^3"]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(WORD_ATOMS), max_size=20))
def test_normal_form_roundtrip(atoms):
    g = evaluate(" ".join(atoms))
    nf = normal_form(g)
    assert evaluate(nf.to_word()) == g
    # reduced: adjacent syllables alternate between the two factors
    for (g1, _), (g2, _) in zip(nf.syllables, nf.syllables[1:]):
        assert g1 != g2


# L = X Y and R = X^2 Y as syllables of Z3 * Z2
_LETTER_SYLLABLES = {
    "L": [("X", 1), ("Y", 1)],
    "R": [("X", 2), ("Y", 1)],
    "X": [("X", 1)],
    "Y": [("Y", 1)],
}


def _reference_syllables(tokens):
    """Reference: rewrite each letter into syllables and reduce one syllable
    at a time, recursing on a merge."""

    def push(stack, gen, exp):
        exp %= 3 if gen == "X" else 2
        if exp == 0:
            return
        if stack and stack[-1][0] == gen:
            push(stack, gen, stack.pop()[1] + exp)
        else:
            stack.append((gen, exp))

    stack = []
    for gen, exp in tokens:
        letter = _LETTER_SYLLABLES[gen]
        if exp < 0:
            letter = [(g, -e) for g, e in reversed(letter)]
        for _ in range(abs(exp)):
            for syllable in letter:
                push(stack, *syllable)
    return tuple(stack)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from("LRXY"), st.integers(min_value=-40, max_value=40)),
        max_size=8,
    )
)
def test_normal_form_with_long_runs(tokens):
    # long runs of one sign take the appending shortcut of normal_form
    g = evaluate(" ".join(f"{gen}^{exp}" for gen, exp in tokens))
    assert normal_form(g).syllables == _reference_syllables(tokens)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from("LRXY"), st.integers(min_value=-9, max_value=9)),
        max_size=6,
    ),
    st.lists(
        st.tuples(st.sampled_from("LRXY"), st.integers(min_value=-9, max_value=9)),
        max_size=6,
    ),
    st.booleans(),
    st.booleans(),
)
def test_normal_form_of_zero_quotients_and_cascades(head, tail, y_first, y_last):
    # a Y at either end makes a = 0 or a last quotient 0; the tail and its
    # inverse cancel in a cascade of merges in the reference
    undo = [(gen, -exp) for gen, exp in reversed(tail)]
    tokens = [("Y", 1)] * y_first + head + tail + undo + [("Y", 1)] * y_last
    g = evaluate(" ".join(f"{gen}^{exp}" for gen, exp in tokens))
    nf = normal_form(g)
    assert SyllableWord(nf.syllables) == nf  # revalidated: reduced and alternating
    assert evaluate(nf.to_word()) == g
    assert nf.syllables == _reference_syllables(tokens)


@pytest.mark.parametrize(
    "text",
    [
        # first quotient 0 (a = 0), last quotient 0 (d = 0), both, and Y alone
        "[[0,1],[-1,5]]", "[[0,-1],[1,-3]]", "[[5,1],[-1,0]]", "[[3,-1],[1,0]]",
        "[[0,1],[-1,0]]", "Y L^7 Y", "L^-4 Y", "Y R^6",
        # letter words that cancel in cascades
        "L^4 R^2 R^-2 L^-3", "R^7 L^-1 L R^-6", "X Y X^2 Y L^-1 Y X^2 Y X", "L^9 Y L^-9 Y",
    ],
)
def test_normal_form_of_peel_edges_evaluates_back(text):
    g = parse_element(text)
    nf = normal_form(g)
    assert SyllableWord(nf.syllables) == nf
    assert evaluate(nf.to_word()) == g


def _syllable_refusal_by_loops(syllables):
    """Reference: the two per-syllable loops the set tests replaced; the
    adjacency refusal comes first."""
    for (g1, _), (g2, _) in zip(syllables, syllables[1:]):
        if g1 == g2:
            return "adjacent syllables from the same factor"
    for gen, exp in syllables:
        if not ((gen == "X" and exp in (1, 2)) or (gen == "Y" and exp == 1)):
            return f"bad syllable ({gen}, {exp})"
    return None


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    st.lists(
        st.tuples(st.sampled_from("XYZ"), st.integers(min_value=0, max_value=3)), max_size=8
    )
)
@example([("X", 1), ("Y", 1), ("X", 2), ("Y", 1)])
@example([("Y", 1), ("X", 2), ("Y", 1)])
@example([("X", 1), ("Y", 2), ("Y", 1)])
@example([("Z", 1), ("X", 1), ("Y", 1)])
def test_syllable_word_refuses_as_the_loops_did(syllables):
    expected = _syllable_refusal_by_loops(syllables)
    if expected is None:
        assert SyllableWord(tuple(syllables)).syllables == tuple(syllables)
    else:
        with pytest.raises(DomainError) as refused:
            SyllableWord(tuple(syllables))
        assert str(refused.value) == expected


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from("LR"), st.integers(min_value=1, max_value=6)), max_size=10),
    st.sampled_from([0, 100_000, 131_073]),
    st.integers(min_value=0, max_value=10),
)
@example([], 0, 0)
def test_run_product_equals_evaluate(runs, long_run, at):
    # at most one run of 10^5 letters or more, inserted at a random place
    runs = runs[:at] + [("L" if at % 2 else "R", long_run)] + runs[at:]
    word = "".join(letter * n for letter, n in runs)
    assert psl2._run_product(word) == evaluate(word)


def test_syllable_powers_are_the_generator_powers():
    # _classify_full multiplies its peeled prefix and its elliptic remainder
    # through this table
    for syllable, power in psl2._SYLLABLE_POWER.items():
        assert power == projective(word_matrix([syllable]))
    assert set(psl2._SYLLABLE_POWER) == set(normal_form(evaluate("L R^-2 L^3 R")).syllables)


def test_normal_form_examples():
    assert normal_form(IDENTITY).syllables == ()
    assert normal_form(L).syllables == (("X", 1), ("Y", 1))
    assert normal_form(evaluate("R^2")).syllables == (
        ("X", 2),
        ("Y", 1),
        ("X", 2),
        ("Y", 1),
    )


def _random_elements(count, seed=7, length=8):
    rng = random.Random(seed)
    for _ in range(count):
        yield evaluate(" ".join(rng.choice(WORD_ATOMS) for _ in range(rng.randint(0, length))))


def test_classify_examples():
    assert classify(evaluate("R^2")) == ConjugacyClass("parabolic", CyclicDiagram("RR"))
    assert classify(evaluate("L^4")) == ConjugacyClass("parabolic", CyclicDiagram("LLLL"))
    assert classify(evaluate("R L^-1")).kind == "elliptic_order3_pos"
    assert classify(evaluate("L R^-1")).kind == "elliptic_order3_neg"
    assert classify(Y).kind == "elliptic_order2"
    assert classify(IDENTITY).kind == "identity"
    cls = classify(evaluate("R^3 L R^2"))
    assert cls.kind == "hyperbolic"
    assert sorted(cls.diagram.letters) == sorted("RRRLRR")
    assert evaluate("R^3 L R^2").trace == 7


def test_no_small_conjugator_sends_L_to_R():
    # L and R are not conjugate; L is conjugate to R^-1 instead.
    bound = 6
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            for c in range(-bound, bound + 1):
                for d in range(-bound, bound + 1):
                    if a * d - b * c != 1:
                        continue
                    h = GroupElement(a, b, c, d)
                    assert L.conjugated_by(h) != R
    assert L.inverse().conjugated_by(Y) == R


def test_classify_is_class_function():
    rng = random.Random(11)
    elements = list(_random_elements(120, seed=3))
    for g in elements:
        h = evaluate(" ".join(rng.choice(WORD_ATOMS) for _ in range(rng.randint(1, 6))))
        assert classify(g.conjugated_by(h)) == classify(g)


def test_trace_coherence():
    for g in _random_elements(200, seed=5):
        cls = classify(g)
        t = abs(g.trace)
        if cls.kind == "identity":
            assert t == 2
        elif cls.kind.startswith("elliptic"):
            assert t < 2
        elif cls.kind == "parabolic":
            assert t == 2 and g != IDENTITY
        else:
            assert t > 2


def _class_rep(cls):
    """The representative that _classify_full's conjugator carries onto g."""
    if cls.diagram is None:
        return psl2._ELLIPTIC[cls.kind][0]
    return psl2._run_product(cls.diagram.letters)


def test_conjugator_to_rep():
    # _classify_full's h conjugates the class representative onto g:
    # g = h^-1 * rep * h, the conjugator Analysis._pair reads
    for word, expected_rep in [
        ("R", R),
        ("L^-1 R L", R),
        ("L R^3 L^-1", R**3),
        ("L^4", L**4),
        ("X", X),
        ("", IDENTITY),
    ]:
        g = evaluate(word)
        cls, h, _ = psl2._classify_full(g)
        assert _class_rep(cls) == expected_rep
        assert h.inverse() * _class_rep(cls) * h == g
    kinds = set()
    for g in _random_elements(100, seed=13):
        cls, h, _ = psl2._classify_full(g)
        kinds.add(cls.kind)
        assert h.inverse() * _class_rep(cls) * h == g
        if cls.diagram is not None:
            h, w = cutting_conjugator(g)
            assert h.inverse() * evaluate(w) * h == g
    assert len(kinds) == 6  # every class kind


@pytest.mark.parametrize(
    "word",
    [
        "R^30000 L R^-30000",  # a prefix of 59,999 syllables, ending in X
        "L^3000 R^7 L^-3000",
        "L^40 X L^-40",  # (X^e Y)* alone
        "R^-40 X R^40",  # a leading Y
        "Y R^40 L^2 R^-40 Y",  # a leading Y and a trailing X
        "Y L^40 R^3 L^-40 Y",
    ],
)
def test_conjugator_to_rep_on_long_peels(word):
    # the conjugator stays exact on peeled prefixes of 79 syllables or more,
    # with or without a leading Y and a trailing X
    g = evaluate(word)
    cls, h, nf = psl2._classify_full(g)
    assert len(nf) > 150
    assert h.inverse() * _class_rep(cls) * h == g


def test_dehn_twist_formula():
    assert dehn_twist((1, 0)) == R
    assert dehn_twist((0, 1)) == L.inverse()
    # [[1-pq, -q^2], [p^2, 1+pq]] at (2, 3), sign-normalized
    assert dehn_twist(TwistVector(2, 3)).matrix() == ((5, 9), (-4, -7))
    with pytest.raises(DomainError):
        dehn_twist((2, 4))


def test_twist_vector():
    assert twist_vector(L) is None
    assert twist_vector(L.inverse()) == TwistVector(0, 1)
    assert twist_vector(R.conjugated_by(L)) == TwistVector(1, 1)
    assert twist_vector(IDENTITY) is None
    assert twist_vector(R**2) is None
    for p in range(-4, 5):
        for q in range(-4, 5):
            if (p, q) == (0, 0) or math.gcd(p, q) != 1:
                continue
            v = TwistVector(p, q)
            assert twist_vector(dehn_twist(v)) == v


def test_twist_class_membership():
    # twists are exactly the conjugates of R
    for g in _random_elements(60, seed=17, length=5):
        assert twist_vector(R.conjugated_by(g)) is not None


def test_real_structure_lift_is_sign_normalised():
    # the first nonzero entry of (a, b) is made positive, as for GroupElement
    assert RealStructure(0, -1, -1, 0) == TAU1
    assert RealStructure(-1, 0, 0, 1) == TAU2


def test_real_involution_action_table():
    assert real_involution(TAU1, L) == R.inverse()
    assert real_involution(TAU1, R) == L.inverse()
    assert real_involution(TAU1, X) == X
    assert real_involution(TAU1, Y) == Y
    assert real_involution(TAU2, L) == L
    assert real_involution(TAU2, R) == R
    assert real_involution(TAU2, X) == Y * X * Y
    assert real_involution(TAU2, Y) == Y


def test_real_involution_is_involutive_antiautomorphism():
    for g in _random_elements(100, seed=19):
        for tau in (TAU1, TAU2):
            assert real_involution(tau, real_involution(tau, g)) == g
            assert real_involution(tau, g).trace in (g.trace, -g.trace)
    g, h = evaluate("L R^2"), evaluate("R^-1 X")
    for tau in (TAU1, TAU2):
        assert real_involution(tau, g * h) == real_involution(tau, h) * real_involution(tau, g)


def test_is_real_element():
    assert is_real_element(evaluate("R^5"))
    assert is_real_element(evaluate("L R"))
    assert not is_real_element(evaluate("L^2 R L R^2"))
    assert is_real_element(IDENTITY)
    assert is_real_element(X)


def test_real_elements_have_bounded_real_structure_witness():
    # positive calls cross-checked by exhibiting tau with tau g^-1 tau = g;
    # an integer involution of determinant -1 has trace 0
    bound = 3
    structures = [
        (a, b, c, d)
        for a in range(-bound, bound + 1)
        for b in range(-bound, bound + 1)
        for c in range(-bound, bound + 1)
        for d in range(-bound, bound + 1)
        if a * d - b * c == -1 and a + d == 0
    ]
    for word in ["R^5", "L R", "X", "L^2 R^2 L^2 R^2"]:
        g = evaluate(word)
        assert is_real_element(g)
        gi = g.inverse()
        witness = False
        for a, b, c, d in structures:
            m00, m01 = a * gi.a + b * gi.c, a * gi.b + b * gi.d
            m10, m11 = c * gi.a + d * gi.c, c * gi.b + d * gi.d
            image = (
                m00 * a + m01 * c,
                m00 * b + m01 * d,
                m10 * a + m11 * c,
                m10 * b + m11 * d,
            )
            if image in ((g.a, g.b, g.c, g.d), (-g.a, -g.b, -g.c, -g.d)):
                witness = True
                break
        assert witness, word


def test_primitive_root():
    root, n = primitive_root(evaluate("R^4"))
    assert root == R and n == 4
    root, n = primitive_root(evaluate("L^4"))
    assert n == 4 and root**4 == evaluate("L^4")
    root, n = primitive_root(evaluate("R^3 L R^2"))
    assert n == 1 and root == evaluate("R^3 L R^2")
    g = evaluate("L^2 R^2 L^2 R^2")
    root, n = primitive_root(g)
    assert n == 2 and root**2 == g
    with pytest.raises(DomainError):
        primitive_root(X)
    with pytest.raises(DomainError):
        primitive_root(IDENTITY)


def _primitive_root_by_divisors(g):
    """Reference: the divisor scan for the period that primitive_root replaced."""
    h, canon = cutting_conjugator(g)
    m = len(canon)
    period = next(p for p in range(1, m + 1) if m % p == 0 and canon == canon[:p] * (m // p))
    return evaluate(canon[:period]).conjugated_by(h), m // period


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.lists(st.sampled_from(["L", "R", "X", "Y", "L^-1", "R^-1"]), min_size=1, max_size=12),
    st.integers(min_value=1, max_value=4),
)
def test_primitive_root_matches_the_divisor_scan(tokens, power):
    g = evaluate(" ".join(tokens)) ** power
    if classify(g).kind in ("parabolic", "hyperbolic"):
        assert primitive_root(g) == _primitive_root_by_divisors(g)


def _syllable_degree(g):
    """Reference: sum the degrees of X (2), X^2 (4) and Y (3) over the normal form."""
    degree = {("X", 1): 2, ("X", 2): 4, ("Y", 1): 3}
    return sum(degree[s] for s in normal_form(g).syllables) % 6


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(["L", "R", "X", "Y", "L^-1", "R^-1", "X^2"]), max_size=20))
def test_abelian_degree_matches_the_syllable_sum(tokens):
    g = evaluate(" ".join(tokens))
    assert abelian_degree(g) == _syllable_degree(g)


def test_abelian_degree():
    assert abelian_degree(R) == 1
    assert abelian_degree(L) == 5
    assert abelian_degree(IDENTITY) == 0
    assert abelian_degree(evaluate("L^4")) == 2
    pairs = zip(_random_elements(50, seed=23, length=4), _random_elements(50, seed=29, length=4))
    for g, h in pairs:
        assert abelian_degree(g * h) == (abelian_degree(g) + abelian_degree(h)) % 6
        assert abelian_degree(g.conjugated_by(h)) == abelian_degree(g)
