import itertools
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modtwist.diagrams import (
    CyclicDiagram,
    ParaSymmetry,
    _axis_reading,
    _block_pattern,
    _recognize_disjoint,
    axis_word,
    build_disjoint_axis_diagram,
    build_shared_axis_diagram,
    canonical_rotation,
    cutting_period_cycle,
    is_even_word,
    para_symmetries,
    recognize,
    reflection_symmetries,
    word_transpose,
)
from modtwist.errors import DomainError, VerificationError
from modtwist.mcurve import monodromy_class


def test_canonical_rotation():
    assert canonical_rotation("RLRL") == "LRLR"
    assert canonical_rotation("LLLL") == "LLLL"
    assert canonical_rotation("RRLR") == "LRRR"
    with pytest.raises(DomainError):
        CyclicDiagram("")


def _least_rotation_by_scan(word):
    """Reference: the scan over every rotation that canonical_rotation replaced."""
    return min(word[i:] + word[:i] for i in range(len(word)))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(
    st.text(alphabet="LR", min_size=1, max_size=40)
    | st.text(alphabet="OS><", min_size=1, max_size=12),
    st.integers(min_value=1, max_value=4),
)
def test_canonical_rotation_matches_the_rotation_scan(unit, copies):
    # periodic words have several least rotations, all the same string
    word = unit * copies
    assert canonical_rotation(word) == _least_rotation_by_scan(word)


def test_canonical_is_rotation_invariant():
    word = "LLRLRRRL"
    for k in range(len(word)):
        assert CyclicDiagram(word[k:] + word[:k]) == CyclicDiagram(word)


def test_word_transpose():
    assert word_transpose("LR") == "LR"
    assert word_transpose("LLR") == "LRR"
    assert word_transpose("") == ""
    assert word_transpose(word_transpose("LLRLR")) == "LLRLR"


def test_para_symmetry_examples():
    assert len(para_symmetries(CyclicDiagram("LLLL"))) == 2
    assert para_symmetries(CyclicDiagram("RRRR")) == ()
    assert para_symmetries(CyclicDiagram("RRRLRR")) == ()
    assert len(para_symmetries(CyclicDiagram("LLLLLLRR"))) == 1
    assert len(para_symmetries(CyclicDiagram("LLLLRRLLLLRR"))) == 2
    assert para_symmetries(CyclicDiagram("LL")) == ()
    assert para_symmetries(CyclicDiagram("LLLLLL")) == ()


def test_para_symmetry_structure():
    diagram = CyclicDiagram("LLLLLLRR")
    (sym,) = para_symmetries(diagram)
    w = diagram.letters
    m = len(w)
    c = sym.axis
    assert c % 2 == 1
    anchor_positions = {j for s in sym.anchor_starts for j in (s, (s + 1) % m)}
    assert all(w[j] == "L" for j in anchor_positions)
    for j in range(m):
        if j not in anchor_positions:
            assert w[(c - j) % m] != w[j]
        assert (c - j) % m != j  # fixed-point free


def test_exhaustive_para_symmetry_bound_small():
    # at most two para-symmetries, and exactly two only on the special forms
    for m in range(1, 11):
        for bits in itertools.product("LR", repeat=m):
            diagram = CyclicDiagram("".join(bits))
            count = len(para_symmetries(diagram))
            assert count <= 2
            if count == 2:
                assert recognize(diagram).kind in ("shared_axes", "disjoint_axes")


def _para_symmetries_by_scan(diagram):
    """Reference: the scan over all m positions per axis that the outward
    wing test replaced."""
    w = diagram.letters
    m = len(w)
    if m % 2 or m < 4:
        return ()
    half = m // 2
    found = []
    for c in range(1, m, 2):
        j1 = ((c - 1) // 2) % half
        j2 = j1 + half
        anchors = (j1, (j1 + 1) % m, j2, (j2 + 1) % m)
        if any(w[j] != "L" for j in anchors):
            continue
        if all(w[(c - j) % m] != w[j] for j in range(m) if j not in anchors):
            found.append(ParaSymmetry(c, (j1, j2)))
    return tuple(found)


def test_para_symmetries_match_the_scan_exhaustively():
    for m in range(1, 15):
        for bits in itertools.product("LR", repeat=m):
            diagram = CyclicDiagram("".join(bits))
            assert para_symmetries(diagram) == _para_symmetries_by_scan(diagram)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    st.text(alphabet="LR", min_size=1, max_size=60)
    | st.text(alphabet="LR", min_size=1, max_size=30).map(lambda u: u + u)
    | st.integers(min_value=0, max_value=6).map(build_shared_axis_diagram)
    | st.tuples(
        st.sampled_from([(1, 3), (3, 5), (5, 7), (7, 9), (5, 11), (11, 21)]),
        st.text(alphabet="LR", max_size=6),
    ).map(lambda c: build_disjoint_axis_diagram(*c))
)
def test_para_symmetries_match_the_scan(word):
    diagram = word if isinstance(word, CyclicDiagram) else CyclicDiagram(word)
    assert para_symmetries(diagram) == _para_symmetries_by_scan(diagram)


def _axis_reading_by_slices(diagram, anchor_start):
    """Reference: the slice reading of L.L.A.L.L.At that the wing test replaced."""
    w = diagram.rotated(anchor_start)
    m = len(w)
    k = (m - 4) // 2
    a = w[2 : 2 + k]
    if not (
        w[:2] == "LL" and w[2 + k : 4 + k] == "LL" and w[4 + k :] == word_transpose(a)
    ):
        raise VerificationError(f"{w} is not read as L.L.A.L.L.At at {anchor_start}")
    return a


def _reading_or_error(reader, diagram, start):
    try:
        return reader(diagram, start)
    except VerificationError:
        return VerificationError


def test_axis_reading_matches_the_slices():
    # the slices also "read" the odd word LLL, which has no para-symmetry;
    # the wing test reads even words only
    assert _axis_reading_by_slices(CyclicDiagram("LLL"), 0) == ""
    assert _reading_or_error(_axis_reading, CyclicDiagram("LLL"), 0) is VerificationError
    for m in range(1, 13):
        for bits in itertools.product("LR", repeat=m):
            diagram = CyclicDiagram("".join(bits))
            if diagram.letters == "LLL":
                continue
            for start in range(m):
                assert _reading_or_error(_axis_reading, diagram, start) == _reading_or_error(
                    _axis_reading_by_slices, diagram, start
                ), (diagram.letters, start)


def test_reflection_symmetries():
    assert reflection_symmetries(CyclicDiagram("LR"))
    assert reflection_symmetries(CyclicDiagram("LLRLRR")) == ()
    for n in (1, 2, 5):
        assert len(reflection_symmetries(CyclicDiagram("L" * n))) == n


def _scanned_reflections(diagram):
    """Reference: test every axis c letter by letter."""
    w = diagram.letters
    m = len(w)
    return tuple(c for c in range(m) if all(w[(c - i) % m] == w[i] for i in range(m)))


@settings(max_examples=500, deadline=None)
@given(
    st.lists(st.sampled_from("LR"), min_size=1, max_size=12),
    st.integers(min_value=1, max_value=4),
    st.booleans(),
)
def test_reflection_search_matches_the_axis_scan(letters, copies, mirrored):
    # periodic and palindromic words carry several axes each
    unit = "".join(letters)
    word = (unit + unit[::-1] if mirrored else unit) * copies
    diagram = CyclicDiagram(word)
    assert reflection_symmetries(diagram) == _scanned_reflections(diagram)


def _is_odd_bipalindromic(cycle):
    """Independent oracle: cyclic run-length sequence splits into two
    palindromic pieces of odd length."""
    n = len(cycle)
    for rot in range(n):
        rotated = cycle[rot:] + cycle[:rot]
        for cut in range(1, n):
            left, right = rotated[:cut], rotated[cut:]
            if len(left) % 2 and len(right) % 2:
                if left == left[::-1] and right == right[::-1]:
                    return True
    return False


def test_reflection_matches_bipalindromic_cycles():
    for m in range(2, 11):
        for bits in itertools.product("LR", repeat=m):
            word = "".join(bits)
            if "L" not in word or "R" not in word:
                continue
            diagram = CyclicDiagram(word)
            cycle = cutting_period_cycle(diagram)
            assert bool(reflection_symmetries(diagram)) == _is_odd_bipalindromic(
                list(cycle)
            ), word


def test_axis_word_examples():
    d = CyclicDiagram("LLLL")
    for sym in para_symmetries(d):
        assert axis_word(d, sym) == ""
    d = CyclicDiagram("LLLLLLRR")
    assert axis_word(d, para_symmetries(d)[0]) == "LL"
    d = build_shared_axis_diagram(1)
    assert {axis_word(d, s) for s in para_symmetries(d)} == {"LR", "RL"}
    with pytest.raises(DomainError):
        axis_word(CyclicDiagram("LLLLLLRR"), 3)


@settings(max_examples=150, deadline=None)
@given(st.text(alphabet="LR", max_size=8))
def test_axis_word_roundtrip(a_word):
    diagram = CyclicDiagram("LL" + a_word + "LL" + word_transpose(a_word))
    symmetries = para_symmetries(diagram)
    assert symmetries
    words = {axis_word(diagram, s) for s in symmetries}
    assert a_word in words or word_transpose(a_word) in words
    # reassembly reproduces the diagram
    for w in words:
        assert CyclicDiagram("LL" + w + "LL" + word_transpose(w)) == diagram


def test_shared_axis_diagrams():
    assert build_shared_axis_diagram(0) == CyclicDiagram("LLLL")
    assert build_shared_axis_diagram(1) == CyclicDiagram("LLLRLLLR")
    for m in range(4):
        d = build_shared_axis_diagram(m)
        syms = para_symmetries(d)
        assert len(syms) == 2
        anchors = [
            {j for s in sym.anchor_starts for j in (s, (s + 1) % len(d))}
            for sym in syms
        ]
        assert anchors[0] & anchors[1], "shared-axes forms share an anchor"


def test_two_axes_share_anchor_iff_shared_form():
    for m in range(2, 13):
        for bits in itertools.product("LR", repeat=m):
            d = CyclicDiagram("".join(bits))
            syms = para_symmetries(d)
            if len(syms) != 2:
                continue
            anchors = [
                {j for s in sym.anchor_starts for j in (s, (s + 1) % m)}
                for sym in syms
            ]
            shared = bool(anchors[0] & anchors[1])
            assert shared == (recognize(d).kind == "shared_axes")
            if shared:
                assert d == build_shared_axis_diagram((m - 4) // 4)


def test_disjoint_axis_diagrams():
    assert build_disjoint_axis_diagram((1, 3)) == CyclicDiagram("LLLLRRLLLLRR")
    with pytest.raises(DomainError):
        build_disjoint_axis_diagram((2, 4))
    with pytest.raises(DomainError):
        build_disjoint_axis_diagram((1, 2))
    with pytest.raises(DomainError):
        build_disjoint_axis_diagram((1, 0))
    # (3, 9) reduces to the valid fraction 1/3
    assert build_disjoint_axis_diagram((3, 9)) == build_disjoint_axis_diagram((1, 3))
    d = build_disjoint_axis_diagram(Fraction(3, 5), "LR")
    assert len(para_symmetries(d)) == 2


def test_recognize():
    form = recognize(build_disjoint_axis_diagram((1, 3), "LLRR"))
    assert form.kind == "disjoint_axes"
    assert form.q == Fraction(1, 3)
    assert form.insert == "LLRR"
    assert recognize(CyclicDiagram("RRRLRR")).kind == "no_axis"
    assert recognize(CyclicDiagram("LLLLLLRR")).kind == "one_axis"
    form = recognize(build_shared_axis_diagram(2))
    assert form.kind == "shared_axes" and form.m == 2
    for num, den in [(1, 3), (1, 5), (3, 5), (1, 7), (5, 7)]:
        for insert in ["", "L", "LLRR", "RL"]:
            d = build_disjoint_axis_diagram((num, den), insert)
            form = recognize(d)
            assert form.kind == "disjoint_axes", (num, den, insert)
            assert build_disjoint_axis_diagram(form.q, form.insert) == d


@pytest.mark.parametrize(
    "diagram, text",
    [
        (CyclicDiagram("LLLLRRLLLLRR"), "disjoint_axes(q=1/3, insert='')"),
        (build_shared_axis_diagram(0), "shared_axes(m=0)"),
        (CyclicDiagram("LLLLLLRR"), "one_axis"),
        (CyclicDiagram("RRRLRR"), "no_axis"),
    ],
)
def test_recognized_form_describes_itself(diagram, text):
    assert recognize(diagram).describe() == text


@pytest.mark.parametrize(
    "word", ["LLLLLRRRLLLLLRRR", "LLLRLLLRRRLLLRLLLRRR", "LLLLLLLRRRRRLLLLLLLRRRRR"]
)
def test_disjoint_axes_of_even_rotation_order_are_refused(word):
    # two para-symmetries with disjoint anchors, rotation order even: in
    # neither family (the only such words up to 24 letters)
    diagram = CyclicDiagram(word)
    assert len(para_symmetries(diagram)) == 2
    with pytest.raises(DomainError, match="outside the shared- and disjoint-axes"):
        recognize(diagram)


def test_two_axis_necklaces_are_recognized_exhaustively():
    refused = []
    for m in range(12, 17):
        for bits in itertools.product("LR", repeat=m):
            word = "".join(bits)
            if word != canonical_rotation(word):
                continue
            diagram = CyclicDiagram(word)
            if len(para_symmetries(diagram)) != 2:
                continue
            try:
                assert recognize(diagram).kind in ("shared_axes", "disjoint_axes")
            except DomainError:
                refused.append(word)
    assert refused == ["LLLLLRRRLLLLLRRR"]


def _linear_even(word):
    """Evenness of a plain (non-cyclic) word: a product of LL and RR blocks."""
    runs = []
    for ch in word:
        if runs and runs[-1][0] == ch:
            runs[-1][1] += 1
        else:
            runs.append([ch, 1])
    return all(count % 2 == 0 for _, count in runs)


def _cyclic_runs_from_a_boundary(word):
    """Reference: the run boundary search that the least rotation replaced."""
    start = next((i for i in range(len(word)) if word[i] != word[i - 1]), 0)
    return [len(list(run)) for _, run in itertools.groupby(word[start:] + word[:start])]


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.text(alphabet="LR", min_size=1, max_size=40))
def test_cyclic_runs_match_the_boundary_search(word):
    runs = list(cutting_period_cycle(CyclicDiagram(word)))
    reference = _cyclic_runs_from_a_boundary(word)
    # the same cycle of runs, now starting at the L-run of the least rotation
    assert sorted(runs) == sorted(reference)
    assert any(runs == reference[k:] + reference[:k] for k in range(len(reference)))


def test_is_even_word():
    assert is_even_word("LLLLRR")
    assert not is_even_word("LR")
    assert is_even_word("LRRL")  # wrap-around run merges
    assert is_even_word("")
    assert is_even_word(build_disjoint_axis_diagram((1, 3), "LLRR"))


def test_even_word_wing_equivalence():
    # the assembled cyclic word is even iff the wing is even as a plain word
    for m in range(0, 9):
        for bits in itertools.product("LR", repeat=m):
            a_word = "".join(bits)
            full = "LL" + a_word + "LL" + word_transpose(a_word)
            assert is_even_word(full) == _linear_even(a_word), a_word


def _disjoint_form_by_scan(diagram, s1, s2):
    """Reference: the scan over all m rotations that _recognize_disjoint
    replaced, with each rotation's blocks and inserts sliced afresh."""
    m_len = len(diagram)
    n = m_len // gcd(m_len, (s2.axis - s1.axis) % m_len)
    unit = m_len // (2 * n)
    base = ("l" + "lr" * ((n - 1) // 2)) * 2
    numerators = {}
    for num in range(1, n, 2):
        if gcd(num, n) == 1:
            pattern = "".join(base[(num * i) % (2 * n)] for i in range(2 * n))
            numerators.setdefault(pattern, []).append(num)
    candidates = []
    for rot in range(m_len):
        v = diagram.rotated(rot)
        blocks = [v[i * unit : i * unit + 2] for i in range(2 * n)]
        if any(b not in ("LL", "RR") for b in blocks):
            continue
        inserts = [v[i * unit + 2 : (i + 1) * unit] for i in range(2 * n)]
        b_word = inserts[0]
        b_word_t = word_transpose(b_word)
        if any(inserts[i] != (b_word if i % 2 == 0 else b_word_t) for i in range(2 * n)):
            continue
        pattern = "".join("l" if b == "LL" else "r" for b in blocks)
        candidates += [(Fraction(num, n), b_word) for num in numerators.get(pattern, ())]
    return min(candidates)


def test_block_pattern_agreeing_neighbours_count_the_numerator():
    # the lemma _recognize_disjoint reads its numerator by
    for n in range(3, 200, 2):
        for num in range(1, n, 2):
            if gcd(num, n) == 1:
                pattern = _block_pattern(num, n)
                assert sum(pattern[i - 1] == pattern[i] for i in range(n)) == num, (num, n)


def _check_disjoint_form(diagram):
    symmetries = para_symmetries(diagram)
    if recognize(diagram).kind != "disjoint_axes":
        return
    form = _recognize_disjoint(diagram, *symmetries)
    assert (form.q, form.insert) == _disjoint_form_by_scan(diagram, *symmetries)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.sampled_from(
        [(1, 3), (1, 5), (3, 5), (1, 7), (3, 7), (5, 7), (1, 9), (7, 9), (7, 15)]
        + [(5, 11), (11, 21), (13, 27), (17, 33), (27, 53)]
    ),
    st.text(alphabet="LR", max_size=8),
)
def test_disjoint_form_matches_the_rotation_scan(q, insert):
    _check_disjoint_form(build_disjoint_axis_diagram(q, insert))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.text(alphabet="ud", max_size=12), st.booleans())
def test_junction_disjoint_forms_match_the_rotation_scan(arrows, mirrored):
    # arrows followed by their reversed swap give two disjoint axes most often
    if mirrored:
        arrows += arrows[::-1].translate(str.maketrans("ud", "du"))
    cls = monodromy_class("*" + arrows + "*")
    if cls.diagram is not None:
        _check_disjoint_form(cls.diagram)
