import hashlib
import itertools
import json
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from modtwist import cli, factorization
from modtwist.errors import BudgetError, DomainError, VerificationError
from modtwist.factorization import (
    Factorization,
    analyze,
    canonical_2factorizations,
    decide_strong_equivalence,
    exists_2factorization,
)
from modtwist.necklace import (
    _PAD,
    CATEGORIES,
    _inverse_keys,
    _next_histogram,
    _pendant_words,
    _stone_histograms,
    canonicalize,
    dual,
    enumerate_classes,
    inverse,
    monodromy,
    orbit,
    pendants,
    shift,
    stats,
)
from modtwist.psl2 import (
    IDENTITY,
    TAU1,
    Y,
    abelian_degree,
    classify,
    evaluate,
    real_involution,
    twist_vector,
)
from oracle import reference_join, stone_monodromy

STONES = "OS><"


def test_stone_monodromies():
    assert monodromy("S") == evaluate("X^2 Y X^2")
    assert monodromy("O") == evaluate("Y X^2 Y X^2 Y")
    assert monodromy(">") == evaluate("L")
    assert monodromy("<") == evaluate("Y X")
    assert monodromy("<") == evaluate("R^-1")
    assert classify(monodromy("OOOO")).index == -4


def test_circle_and_square_stones_are_inverse_twists():
    for stone in "OS":
        g = monodromy(stone)
        assert twist_vector(g) is None
        assert twist_vector(g.inverse()) is not None


def test_transform_identities():
    rng = random.Random(5)
    for _ in range(300):
        word = "".join(rng.choice(STONES) for _ in range(rng.randint(1, 9)))
        m = monodromy(word)
        assert monodromy(dual(word)) == Y * m * Y
        assert monodromy(inverse(word)) == real_involution(TAU1, m)
        k = rng.randrange(1, len(word) + 1)
        prefix = monodromy(word[:k]) if k else IDENTITY
        assert monodromy(shift(word, k)) == m.conjugated_by(prefix)


def test_monodromy_is_the_letter_by_letter_product():
    # every word of length 1-8, then seeded words of length 9-40: full
    # blocks of the lookup and a partial last one
    for n in range(1, 9):
        for stones in itertools.product(STONES, repeat=n):
            word = "".join(stones)
            assert monodromy(word) == stone_monodromy(word), word
    rng = random.Random(25)
    for n in range(9, 41):
        for _ in range(20):
            word = "".join(rng.choice(STONES) for _ in range(n))
            assert monodromy(word) == stone_monodromy(word), word


@pytest.mark.parametrize("word", ["xOS>", "OS<x>O", "OOOOOSSSSSx", "OOS <", "OOOOO\nSSSSS", ""])
def test_monodromy_refuses_a_word_off_the_alphabet(word):
    # a foreign letter first, inside, last, or as a space or line break
    expected = f"stone word uses alphabet O, S, >, <: {word!r}" if word else "stone word must be nonempty"
    with pytest.raises(DomainError) as refusal:
        monodromy(word)
    assert str(refusal.value) == expected


def test_transform_examples():
    assert dual("OS><") == "SO<>"
    assert inverse("><") == "><"
    assert shift("OS", 1) == "SO"


def test_dual_and_inverse_commute():
    rng = random.Random(9)
    for _ in range(100):
        word = "".join(rng.choice(STONES) for _ in range(rng.randint(1, 8)))
        assert dual(inverse(word)) == inverse(dual(word))


def test_stats_examples():
    st = stats("OOOOOSSSSS")
    assert st.betti == 24 and st.euler == 0 and st.essential == 2
    st = stats("OOOO><", k=1, w=0)
    assert st.maximal is True
    st = stats("SSSSSS", k=1, w=0)
    assert st.maximal is False
    st = stats("OOOOOSSSSS", k=2, w=2)
    assert st.maximal is True and st.essential_obstruction is True
    with pytest.raises(DomainError):
        stats("OOOO", k=1, w=1)  # length 4 != 6*1 - 1


def test_stats_refuses_a_weight_past_two():
    # the weight is checked before the length, whose message would mislead
    with pytest.raises(DomainError, match="w must be 0, 1 or 2"):
        stats("OOO", k=1, w=5)
    with pytest.raises(DomainError, match="w must be 0, 1 or 2"):
        stats("OOOOOOO", k=1, w=-1)


def test_stats_essential_invariance():
    rng = random.Random(3)
    for _ in range(100):
        word = "".join(rng.choice(STONES) for _ in range(rng.randint(2, 9)))
        base = stats(word).essential
        assert stats(shift(word, 1)).essential == base
        assert stats(inverse(word)).essential == base
        assert stats(dual(word)).essential == base


def test_canonicalize():
    assert canonicalize("SO", "oriented") == canonicalize("OS", "oriented")
    assert canonicalize("><", "nonoriented") == canonicalize("<>", "nonoriented")
    assert canonicalize("OOOOOSSSSS", "flat_oriented") == canonicalize(
        "SSSSSOOOOO", "flat_oriented"
    )
    # orbit sizes divide the group order
    for category, order in [
        ("oriented", 4),
        ("nonoriented", 8),
        ("flat_oriented", 8),
        ("flat_nonoriented", 16),
        ("twisted_oriented", 8),
        ("twisted_nonoriented", 16),
    ]:
        size = len(orbit("OS><", category))
        assert order % size == 0 or size % 4 == 0
        assert size <= order


def _twisted_shift_by_steps(word, k):
    """Reference: k twisted shifts (rotate, dualize the wrapped stone), one step at a time."""
    for _ in range(k % (2 * len(word))):
        word = word[1:] + dual(word[0])
    return word


def _orbit_by_steps(word, category):
    """Reference: the orbit as built before the cycle windows, twisted
    categories by stepping twisted shifts."""
    n = len(word)
    seeds = {word}
    if category in ("nonoriented", "flat_nonoriented", "twisted_nonoriented"):
        seeds.add(inverse(word))
    if category.startswith("twisted"):
        return {_twisted_shift_by_steps(s, k) for s in seeds for k in range(2 * n)}
    if category in ("flat_oriented", "flat_nonoriented"):
        seeds |= {dual(s) for s in seeds}
    return {(s + s)[k : k + n] for s in seeds for k in range(n)}


STONE_WORDS = st.text(alphabet=STONES, min_size=1, max_size=10)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(STONE_WORDS, st.integers(min_value=1, max_value=3))
def test_orbit_and_canonicalize_match_the_rotation_scan(unit, copies):
    # repeated units make orbits smaller than the group order
    word = unit * copies
    for category in CATEGORIES:
        reference = _orbit_by_steps(word, category)
        assert orbit(word, category) == reference
        assert canonicalize(word, category).representative == min(reference)


def test_pendants():
    assert len(pendants("OOOO", 2)) == 2
    assert pendants("SS", 2) == []
    assert pendants("OOOO", 0) == []
    assert pendants("OOOO", 1) == []
    twisting = [w for w in ("O>S<>", ">OOOO") if pendants(w, 1)]
    # a length-5 word admits a 1-pendant iff its monodromy is a twist
    for word in twisting:
        assert twist_vector(monodromy(word)) is not None


def test_a_failing_trace_test_builds_no_analysis_in_pendants():
    # trace 6: neither 2 - 6 nor 2 + 6 is a square, so no pair of twists
    assert monodromy("OOS").trace == 6
    before = analyze.cache_info().currsize
    assert pendants("OOS", 2) == []
    assert analyze.cache_info().currsize == before
    with pytest.raises(DomainError):
        pendants("OOS", 3)


def test_pendant_degree_constraint():
    rng = random.Random(17)
    for _ in range(200):
        word = "".join(rng.choice(STONES) for _ in range(rng.randint(1, 7)))
        for w in (0, 1, 2):
            if pendants(word, w):
                assert abelian_degree(monodromy(word)) == w % 6


def test_enumeration_k1_counts():
    assert enumerate_classes(1, 0).count == 25
    assert enumerate_classes(1, 1).count == 28
    assert enumerate_classes(1, 2).count == 24


class _ReferenceTransport:
    """Unmemoized per-word transport of strong-class indices (reference)."""

    def __init__(self):
        self._facts = {}

    def factorizations(self, word):
        if word not in self._facts:
            self._facts[word] = canonical_2factorizations(monodromy(word))
        return self._facts[word]

    def _locate(self, word, fact):
        matches = [
            i
            for i, canonical in enumerate(self.factorizations(word))
            if decide_strong_equivalence(fact, canonical)
        ]
        assert len(matches) == 1
        return matches[0]

    def shifted(self, word, idx):
        moved = self.factorizations(word)[idx].conjugated_by(monodromy(word[0]))
        return shift(word), self._locate(shift(word), moved)

    def inverted(self, word, idx):
        m1, m2 = self.factorizations(word)[idx].factors
        moved = Factorization((real_involution(TAU1, m2), real_involution(TAU1, m1)))
        return inverse(word), self._locate(inverse(word), moved)


def _reference_pendant_pairs(words, category):
    transport = _ReferenceTransport()
    labels = {word: pendants(word, 2) for word in words}
    pending = {(word, idx) for word in words for idx in range(len(labels[word]))}
    reps = []
    while pending:
        seed = min(pending)
        seen = {seed}
        queue = [seed]
        while queue:
            word, idx = queue.pop()
            nexts = [transport.shifted(word, idx)]
            if category == "nonoriented":
                nexts.append(transport.inverted(word, idx))
            for item in nexts:
                if item not in seen:
                    seen.add(item)
                    queue.append(item)
        rep_word, rep_idx = min(seen)
        reps.append((rep_word, labels[rep_word][rep_idx].describe()))
        pending -= seen
    return sorted(reps)


def _reference_classes(k, w, category):
    """Brute force: test every stone word, canonicalize with orbit()."""
    words = [
        "".join(stones) for stones in itertools.product(STONES, repeat=6 * k - w)
    ]
    words = [word for word in words if pendants(word, w)]
    if w == 2:
        return _reference_pendant_pairs(words, category)
    minima = sorted({min(orbit(word, category)) for word in words})
    return [(word, pendants(word, w)[0].describe()) for word in minima]


@pytest.mark.parametrize("category", ["nonoriented", "oriented"])
@pytest.mark.parametrize("w", [0, 1, 2])
def test_enumeration_matches_brute_force(w, category):
    result = enumerate_classes(1, w, category)
    reference = _reference_classes(1, w, category)
    assert result.count == len(reference)
    assert list(result.representatives) == reference


# sha256 of the --out TSV bytes, as written by the (word, class) sweep that
# the stabilizer reading replaced
K2_TWO_PENDANT_TSV = {
    "nonoriented": (13949, "072c42f52f1ff588f2a2a610f2bdf7de24905f8c03d73ec848cf8d7ab0af59cd"),
    "oriented": (27624, "846e4f2aa49fed44b269d10d77d025e68216998772ebb510f407f794947e8440"),
}


# sha256 of the --out TSV bytes, as written by the join that spelled out
# every pendant word before the sweep
K2_TSV = {
    (0, "nonoriented"): (8421, "f800f64718c411b5d54b96717294e4d107be90377e44f287aefcc85db3716ca5"),
    (0, "oriented"): (16646, "016eec780730efdeffd127ed7b4761ee88b584dfd372a2a8b0586f2296171cb8"),
    (1, "nonoriented"): (15602, "c25c0783aa361c262ed092b11891b22c8513451c64fcde8fed47624fd46501d0"),
    (1, "oriented"): (31008, "8e71909e4e946f1da7181ac527b0aea46f306bddb390b563f226aa5c38cf8a8c"),
}


# sha256 of the --out TSV bytes at k = 1, as written by the sorted sweep
# over candidate orbit minima that the keyed join replaced
K1_TSV = {
    (0, "nonoriented"): (25, "7ed49d0b504a55252c35122eed049b433057bfc907ba174a3733b9cfb35adf0f"),
    (0, "oriented"): (42, "4ff7ef0b617d8ca3b3903324adf2513c32cbee1199166311364c5d280f18831f"),
    (1, "nonoriented"): (28, "9e7159c568ed2edcbf8c73819ccb61de70ae91433384e4f8081935a800b473de"),
    (1, "oriented"): (48, "0f583101ed7eded718a5d35179b2eef70deb0d0267f1fcb1e26a8fef388051df"),
    (2, "nonoriented"): (24, "033443c6a656809fc90370a50eee5c08615d90461fc60fb7a2012bede53ab84d"),
    (2, "oriented"): (39, "e2b268855fb7ea6d1910b467458d6ecb9fa8a7f81ee60145f8b9d1ad70ee38ca"),
}


def _check_tsv(tmp_path, capsys, k, w, category, count, digest):
    out = tmp_path / f"{k}-{w}-{category}.tsv"
    argv = ["necklace", "enumerate", "--k", str(k), "--w", str(w), "--category", category]
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == count
    assert out.read_text().count("\n") == count
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, (w, category)


def test_enumeration_k2_two_pendants(tmp_path, capsys):
    # no external reference: the per-word engine this one replaced gives
    # the same count and the same representatives
    for category, (count, digest) in K2_TWO_PENDANT_TSV.items():
        _check_tsv(tmp_path, capsys, 2, 2, category, count, digest)


def test_enumeration_k2_outputs_are_pinned(tmp_path, capsys):
    for (w, category), (count, digest) in K2_TSV.items():
        _check_tsv(tmp_path, capsys, 2, w, category, count, digest)


def test_enumeration_k1_outputs_are_pinned(tmp_path, capsys):
    for (w, category), (count, digest) in K1_TSV.items():
        _check_tsv(tmp_path, capsys, 1, w, category, count, digest)


def _identity_words_by_the_full_half_join(n):
    """Reference: every stone word of length n with identity monodromy,
    spelled out from the unpruned join of the two half-word histograms."""
    halves = {}
    for stones in itertools.product(STONES, repeat=n // 2):
        half = "".join(stones)
        halves.setdefault(stone_monodromy(half), []).append(half)
    return [
        head + tail
        for g, heads in halves.items()
        for head in heads
        for tail in halves.get(g.inverse(), [])
    ]


def test_pruned_join_matches_the_full_half_join_at_k2():
    words = _identity_words_by_the_full_half_join(12)
    assert len(words) == 199316
    for category in ("nonoriented", "oriented"):
        minima = sorted({min(orbit(word, category)) for word in words})
        result = enumerate_classes(2, 0, category)
        assert list(result.representatives) == [(word, "empty") for word in minima]


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.text(alphabet=STONES, min_size=4, max_size=12))
def test_rotation_minimal_words_have_a_prenecklace_head_and_a_tail_no_less(word):
    # the two premises of the pruned join, on the least rotation of word
    word = min(word[i:] + word[:i] for i in range(len(word)))
    head, tail = word[: len(word) // 2], word[len(word) // 2 :]
    assert all(head[i:] >= head[: len(head) - i] for i in range(1, len(head)))
    assert tail >= head


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.text(alphabet=STONES, min_size=4, max_size=12), st.sampled_from(["oriented", "nonoriented"]))
def test_orbit_minima_have_tail_keys_above_the_head(word, category):
    # the premises of the keyed join, on the orbit minimum of word: each
    # window of |head| stones of the tail (and, nonoriented, of its inverse),
    # read with the pad after it, is above the head; nonoriented, so is each
    # suffix of the inverse head
    word = min(orbit(word, category))
    m = len(word) // 2
    head, tail = word[:m], word[m:]
    halves = [tail, inverse(tail)] if category == "nonoriented" else [tail]
    assert min(s[j : j + m] + _PAD for s in halves for j in range(len(s))) > head
    if category == "nonoriented":
        assert all(inverse(head)[i:] + _PAD > head for i in range(m))


def _key(half, m, category):
    """The least window of m + 1 letters of half + PAD (or of its inverse's,
    if less) that starts in the half: for m >= len(half), its least padded
    suffix."""
    halves = [half, inverse(half)] if category == "nonoriented" else [half]
    return min((s + _PAD)[j : j + m + 1] for s in halves for j in range(len(s)))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(
    st.integers(min_value=4, max_value=12),
    st.sampled_from(["oriented", "nonoriented"]),
    st.text(alphabet=STONES, min_size=6, max_size=6),
    st.text(alphabet=STONES, min_size=6, max_size=6),
)
def test_only_flagged_tail_halves_open_rotations(n, category, head, tail):
    # the lemma behind the join's rule: with key(h) > h and key(t) > h, a
    # rotation of x = h + t (or, nonoriented, of y = inverse(h) + inverse(t))
    # that starts in a tail half s is above x unless h occurs in s or s ends
    # with a proper prefix of h.  Its consumer is the one-flag rule of
    # _pendant_words: an unflagged x is checked against its head's borders
    # alone and a flagged one also against every rotation that starts in a
    # tail half, as the rotations of an unflagged half cannot change the
    # decision.  This checks the lemma, not the flag that _pendant_words
    # computes from it; the brute-force and pinned-digest tests of the
    # enumeration guard that.
    m = n // 2
    head = min(orbit(head[:m], category))  # an orbit minimum: key(head) > head
    tail = tail[: n - m]
    assert _key(head, m, category) > head
    assume(_key(tail, m, category) > head)
    x = head + tail
    prefixes = tuple(head[:i] for i in range(1, m))
    cycles = [x, inverse(head) + inverse(tail)] if category == "nonoriented" else [x]
    for c in cycles:
        half = c[m:]
        if not (head in half or half.endswith(prefixes)):
            assert all((c + c)[i : i + n] > x for i in range(m, n)), c


@settings(max_examples=500, deadline=None, derandomize=True)
@given(
    st.integers(min_value=4, max_value=12),
    st.sampled_from(["oriented", "nonoriented"]),
    st.text(alphabet=STONES, min_size=6, max_size=6),
    st.text(alphabet=STONES, min_size=6, max_size=6),
)
def test_a_tail_ending_in_a_non_border_prefix_undercuts_the_join(n, category, head, tail):
    # the lemma behind the join's reject rule: with key(h) > h and
    # key(t) > h, if t ends with h[:i] (0 < i < m) and h[i:] is not a prefix
    # of h, the rotation of x = h + t that starts at that suffix of t is
    # strictly below x.  Each such i gets the tail whose end is h[:i].
    m = n // 2
    head = min(orbit(head[:m], category))  # an orbit minimum: key(head) > head
    assert _key(head, m, category) > head
    checked = 0
    for i in range(1, m):
        t = tail[: n - m - i] + head[:i]
        if head.startswith(head[i:]) or _key(t, m, category) <= head:
            continue
        x = head + t
        assert (x + x)[n - i : 2 * n - i] < x, (x, i)
        checked += 1
    assume(checked)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(
    st.integers(min_value=4, max_value=12),
    st.text(alphabet=STONES, min_size=6, max_size=6),
    st.text(alphabet=STONES, min_size=6, max_size=6),
)
def test_an_inverse_tail_ending_in_a_prefix_is_decided_by_the_inverse_head(n, head, tail):
    # the lemma behind the join's inverse-tail rule: if inverse(t) ends with
    # h[:i] (0 < i < m), the rotation of y = inverse(h) + inverse(t) from
    # that suffix reads h[:i] + inverse(h) + ..., and x = h + t reads
    # h[:i] + h[i:] + ...; so it is strictly below x when inverse(h)[:m - i]
    # is below h[i:], and strictly above it when above.  Each i gets the
    # tail whose inverse ends with h[:i].
    m = n // 2
    head = min(orbit(head[:m], "nonoriented"))
    decided = 0
    for i in range(1, m):
        it = tail[: n - m - i] + head[:i]
        x, y = head + inverse(it), inverse(head) + it
        rotation = (y + y)[n - i : 2 * n - i]
        if inverse(head)[: m - i] < head[i:]:
            assert rotation < x, (x, i)
        elif inverse(head)[: m - i] > head[i:]:
            assert rotation > x, (x, i)
        else:
            continue
        decided += 1
    assume(decided)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(
    st.integers(min_value=4, max_value=12),
    st.sampled_from(["oriented", "nonoriented"]),
    st.text(alphabet=STONES, min_size=6, max_size=6),
    st.integers(min_value=1, max_value=6),
    st.text(alphabet=STONES, min_size=6, max_size=6),
)
def test_a_border_of_the_head_is_decided_by_the_tail(n, category, head, period, tail):
    # the lemma behind the border rule of _pendant_words, which drops x =
    # h + t from t alone: at a border i of h (h[i:] a prefix of h,
    # 0 < i < m), the rotation of x reads h[:m - i] + t[:i] where x reads
    # h[:m - i] + h[m - i:], so it is strictly below x when t[:i] < h[m - i:]
    # and strictly above it when greater.  Nonoriented, the rotation of
    # y = inverse(h) + inverse(t) at an inverse border i >= 1
    # (inverse(h)[i:] a prefix of h) does the same with inverse(t)[:i], and
    # for h = inverse(h), y = h + inverse(t) is in the orbit of x, where it
    # compares with x as inverse(t) does with t.  A head repeating its
    # first letters has more borders.
    m = n // 2
    head = min(orbit((head[:period] * m)[:m], category))
    tail = tail[: n - m]
    x = head + tail
    cycles = [(x, tail)]
    if category == "nonoriented":
        cycles.append((inverse(head) + inverse(tail), inverse(tail)))
    decided = 0
    for c, s in cycles:
        for i in range(1, m):
            if not head.startswith(c[i:m]):
                continue
            rotation = (c + c)[i : i + n]
            if s[:i] < head[m - i :]:
                assert rotation < x, (c, i)
            elif s[:i] > head[m - i :]:
                assert rotation > x, (c, i)
            else:
                continue
            decided += 1
    if category == "nonoriented" and inverse(head) == head:
        assert head + inverse(tail) in orbit(x, category), x
        decided += 1
    assume(decided)


@pytest.mark.parametrize("n", range(4, 14))
def test_a_tail_starting_with_a_border_suffix_leaves_the_rotation_above(n):
    # the lemma that lets the border rule of _pendant_words set no flag for
    # a tail that starts with a border suffix: if h[i:] is a prefix of h
    # (0 < i < m), t starts with h[m - i:], the oriented key(t) is above h
    # (the nonoriented one is no greater), and t neither holds h nor ends
    # with a proper prefix of h (which drops or flags x already), the
    # rotation of x = h + t at i is strictly above x.  Every head of size m
    # with a border and every such tail, for n up to 13; the proof is in
    # the docstring of _pendant_words.
    m = n // 2
    checked = 0
    for i in range(1, m):
        for unit in map("".join, itertools.product(STONES, repeat=i)):
            head = (unit * m)[:m]
            prefixes = tuple(head[:j] for j in range(1, m))
            for rest in map("".join, itertools.product(STONES, repeat=n - m - i)):
                tail = head[m - i :] + rest
                if head in tail or tail.endswith(prefixes) or _key(tail, m, "oriented") <= head:
                    continue
                x = head + tail
                assert (x + x)[i : i + n] > x, (head, tail, i)
                checked += 1
    assert checked


def _fresh_histograms(length):
    """_stone_histograms(length) built level by level, outside its memo:
    the levels by _next_histogram, the keys by the suffix recursion."""
    levels, key = [{IDENTITY: ("",)}], {"": _PAD}
    while len(levels) <= length:
        levels.append(_next_histogram(levels[-1]))
        key.update({s: min(s + _PAD, key[s[1:]]) for ws in levels[-1].values() for s in ws})
    return tuple(levels), key


@pytest.mark.parametrize("category", ["nonoriented", "oriented"])
def test_half_keys_are_the_least_padded_windows(category):
    # the suffix recursion gives every stone word of length 1-7 its least
    # padded suffix (nonoriented, the lesser of its own and its inverse's):
    # _key with a window of one letter more than the word.  The package's
    # length-7 build, outside the memo but on its length-6 entry, equals
    # the fresh one
    nonoriented = category == "nonoriented"
    levels, key = _fresh_histograms(7)
    assert _stone_histograms.__wrapped__(7) == (levels, key)
    inv = {}
    if nonoriented:
        key, inv = _inverse_keys(levels[1:], key)
    for level in levels[1:]:
        for words in level.values():
            for word in words:
                assert key[word] == _key(word, len(word), category), word
                if nonoriented:
                    assert inv[word] == inverse(word)


@pytest.mark.parametrize("category", ["nonoriented", "oriented"])
def test_a_tail_key_reads_as_its_window_key_against_every_head(category):
    # the lemma that lets a size-(m + 1) tail of odd n take the key of every
    # other word, its least padded suffix, where the join was first stated
    # with its least window of m + 1 letters: the padded key is that window
    # key, or that key + PAD when the window is the whole tail, and each
    # size-m head is below the one iff below the other.  So the tails keyed
    # above a head, the bisection on the sorted keys and the guard on the
    # greatest key are the same under either key.  Every tail and head for
    # m up to 4
    for m in range(1, 5):
        levels, key = _stone_histograms(m + 1)
        if category == "nonoriented":
            key, _ = _inverse_keys(levels[m:], key)
        heads = list(map("".join, itertools.product(STONES, repeat=m)))
        for tail in map("".join, itertools.product(STONES, repeat=m + 1)):
            window = _key(tail, m, category)
            assert key[tail] in (window, window + _PAD), tail
            assert all((head < key[tail]) == (head < window) for head in heads), tail


def test_stone_histograms_group_every_word_by_its_monodromy():
    # H_d holds F(2d + 3) - 1 distinct monodromies (1, 4, 12, 33, ...) and
    # all 4^d words, each group a tuple; 4^9 words are too many to keep in
    # the memo, so the levels past 6 are built outside it
    fib = [0, 1]
    while len(fib) < 22:
        fib.append(fib[-2] + fib[-1])
    levels, _ = _fresh_histograms(9)
    assert _stone_histograms(0) == (({IDENTITY: ("",)},), {"": _PAD})
    assert _stone_histograms(6) == _fresh_histograms(6)
    for d, level in enumerate(levels):
        assert len(level) == fib[2 * d + 3] - 1, d
        assert sum(map(len, level.values())) == 4**d, d
        assert all(type(group) is tuple for group in level.values()), d
        if 1 <= d <= 4:
            words = sorted(word for group in level.values() for word in group)
            assert words == sorted(map("".join, itertools.product(STONES, repeat=d)))
            for g, group in level.items():
                assert all(stone_monodromy(word) == g for word in group), d


def test_the_shared_half_tables_stay_intact():
    # both categories of k = 1 (w <= 2) and of k = 2, w = 0 read the shared
    # _stone_histograms in one process: each run keeps its pinned
    # representatives, and the memoized levels and keys still equal a fresh
    # build, so no enumeration changed them
    pinned = {(1, w, category): digest for (w, category), (_, digest) in K1_TSV.items()}
    pinned.update({(2, 0, category): K2_TSV[0, category][1] for category in ("nonoriented", "oriented")})
    for (k, w, category), digest in pinned.items():
        reps = enumerate_classes(k, w, category).representatives
        tsv = "".join(f"{word}\t{label}\n" for word, label in reps)
        assert hashlib.sha256(tsv.encode()).hexdigest() == digest, (k, w, category)
    for length in range(7):
        assert _stone_histograms(length) == _fresh_histograms(length), length


@pytest.mark.parametrize("category", ["nonoriented", "oriented"])
@pytest.mark.parametrize("w", [1, 2])
def test_pendant_words_match_the_reference_join_at_k2(w, category):
    # the rule-decided join against one that keeps a joined word iff none
    # of its rotations is below it: at n = 12 - w, past the brute force's
    # n <= 8, where only the --out digests pinned these cases
    condition = exists_2factorization if w == 2 else lambda g: twist_vector(g) is not None
    expected = reference_join(12 - w, condition, category == "nonoriented")
    assert _pendant_words(12 - w, w, category) == expected


@pytest.mark.parametrize("category", ["nonoriented", "oriented"])
@pytest.mark.parametrize("w", [0, 1, 2])
def test_pendant_words_map_each_word_to_its_monodromy(w, category):
    # the --out digests pin the words, not the monodromies the dict carries:
    # every word at k = 1, and 500 seeded words at k = 2
    for k in (1, 2):
        found = _pendant_words(6 * k - w, w, category)
        words = sorted(found)
        if k == 2:
            words = random.Random(21).sample(words, 500)
        for word in words:
            assert found[word] == stone_monodromy(word), (k, word)


@pytest.mark.parametrize("n", range(2, 9))
def test_pendant_words_match_the_orbit_minima_of_every_word(n):
    # brute force over all 4^n words, each word's monodromy included: odd n
    # and m = 1 reach the join only here
    monodromies = {}
    for stones in itertools.product(STONES, repeat=n):
        word = "".join(stones)
        monodromies[word] = stone_monodromy(word)
    for w in (0, 1, 2) if n <= 7 else (0, 1):
        words = [word for word in monodromies if pendants(word, w)]
        for category in ("nonoriented", "oriented"):
            minima = {min(orbit(word, category)) for word in words}
            expected = {word: monodromies[word] for word in minima}
            assert _pendant_words(n, w, category) == expected, (w, category)


def _shifted_pair(word, fact):
    """The shift s on pairs: conjugation by the first stone's monodromy."""
    return fact.conjugated_by(monodromy(word[0]))


def _inverted_pair(fact):
    """The inverse i on pairs: (m1, m2) -> (tau1(m2), tau1(m1))."""
    m1, m2 = fact.factors
    return Factorization((real_involution(TAU1, m2), real_involution(TAU1, m1)))


def _check_stabilizer_premises(word):
    g = monodromy(word)
    analysis = factorization.analyze(g)
    for idx, (fact, _) in enumerate(analysis.canonical):
        assert _inverted_pair(_inverted_pair(fact)) == fact, word
        # s^-1 conjugates by the inverse of the last stone's monodromy
        unshifted = fact.conjugated_by(monodromy(word[-1]).inverse())
        assert _inverted_pair(_shifted_pair(inverse(word), _inverted_pair(fact))) == unshifted
        # s^n conjugates by g, two Hurwitz moves: the strong class is kept
        assert analysis.locate(fact.conjugated_by(g)) == idx, word


def test_stabilizer_premises_on_every_k1_two_pendant_word():
    words = ["".join(stones) for stones in itertools.product(STONES, repeat=4)]
    words = [word for word in words if pendants(word, 2)]
    assert len(words) > 0
    for word in words:
        _check_stabilizer_premises(word)


def test_stabilizer_premises_on_sampled_k2_two_pendant_words():
    rng = random.Random(8)
    checked = 0
    while checked < 2000:
        word = "".join(rng.choice(STONES) for _ in range(10))
        if pendants(word, 2):
            _check_stabilizer_premises(word)
            checked += 1


def test_enumeration_deterministic():
    first = enumerate_classes(1, 2)
    second = enumerate_classes(1, 2)
    assert first.count == second.count
    assert first.representatives == second.representatives


def test_transport_mismatch_raises(monkeypatch):
    monkeypatch.setattr(factorization, "_walk", lambda f, targets: [])
    with pytest.raises(VerificationError):
        enumerate_classes(1, 2)


def test_enumeration_oriented_vs_nonoriented():
    for w in (0, 1, 2):
        oriented = enumerate_classes(1, w, category="oriented")
        nonoriented = enumerate_classes(1, w, category="nonoriented")
        assert oriented.count >= nonoriented.count
        assert oriented.count <= 2 * nonoriented.count


def test_enumeration_budget():
    for w in (0, 1, 2):
        with pytest.raises(BudgetError, match="budget"):
            enumerate_classes(3, w)
    with pytest.raises(DomainError):
        enumerate_classes(1, 3)
    with pytest.raises(DomainError):
        enumerate_classes(1, 0, category="flat_oriented")


def test_enumeration_representatives_are_canonical():
    result = enumerate_classes(1, 0)
    words = [word for word, _ in result.representatives]
    assert words == sorted(words)
    for word in words:
        assert monodromy(word) == IDENTITY
        assert word == canonicalize(word, "nonoriented").representative
    assert len(words) == result.count


def test_arrowless_two_pendant_words_have_paired_r_runs():
    # without arrow stones a 2-factorizable monodromy has even R-runs
    checked = 0
    for word_tuple in itertools.product("OS", repeat=10):
        word = "".join(word_tuple)
        g = monodromy(word)
        if not exists_2factorization(g):
            continue
        letters = classify(g).diagram.letters
        if "R" not in letters:
            continue  # the all-L parabolic case has no R-runs
        start = next(i for i in range(len(letters)) if letters[i] != letters[i - 1])
        rotated = letters[start:] + letters[:start]
        for chunk in rotated.replace("L", " ").split():
            assert len(chunk) % 2 == 0, word
        checked += 1
    assert checked > 0
