"""Junction words of real trigonal M-curves and their combinatorial data.

An M-curve in the d-th Hirzebruch surface is encoded by a word of length
d over {u, d, *} ('*' only at the ends; a leading/trailing '.' in input
is accepted for '*').  The '*' letters are the one-zigzag cubic blocks,
so their number equals the count w of conjugate singular fiber pairs and
the remaining 2 - w word ends are zigzags.

For zigzag-free words (stars at both ends) each interior arrow feeds one
same-direction branch pair of the monodromy pseudo-tree.  The assignment
is pinned by the worked examples: an up arrow contributes an R^2 block
and a down arrow an L^2 block, read left to right (the unique choice,
among letter swap / reversal / per-position alternation, matching all
anchor monodromies; see tests).  The monodromy at infinity L.L.A.L.L.At
is never multiplied out: with both letters it is cyclically reduced in
Z3 * Z2, so the cutting word is its class.  The flat necklace diagram is
recovered from that word exactly: breaking the even cyclic word
into (L-run, R-run) pairs, a pair (a, b) contributes one stone run of
length a + 1 followed by b/2 - 1 singleton runs, with stone types
alternating per run.
"""

from __future__ import annotations

from functools import lru_cache

from .diagrams import CyclicDiagram, cutting_period_cycle, is_even_word, recognize, word_transpose
from .errors import BudgetError, DomainError, ParseError, VerificationError
from .necklace import NecklaceClass, canonicalize
from .psl2 import QUOTIENT_SUM_CAP, ConjugacyClass, _cutting_word_class
from .skeleton import PseudoTree

__all__ = [
    "parse_junction_word",
    "junction_pair_count",
    "vertical_flip",
    "horizontal_flip",
    "canonical_class",
    "branch_word",
    "monodromy_class",
    "flat_diagram",
    "classes_sharing_real_part",
]

# arrow -> doubled cutting-word block; frozen by the anchor regression test
ARROW_BLOCK = {"u": "R", "d": "L"}

_SWAP_ARROWS = str.maketrans("ud", "du")


def parse_junction_word(text: str) -> str:
    """Normalize a junction word; '.' is accepted for '*' at the ends."""
    word = text.strip().replace(".", "*")
    if not word:
        raise ParseError("junction word must be nonempty")
    if set(word) - {"u", "d", "*"}:
        raise ParseError(f"junction words use letters u, d, * (or .): {text!r}")
    if "*" in word[1:-1]:
        raise ParseError("'*' may appear only as the first and/or last letter")
    return word


def junction_pair_count(word: str) -> int:
    """The number w of conjugate singular fiber pairs: the '*' count."""
    return parse_junction_word(word).count("*")


def vertical_flip(word: str) -> str:
    return parse_junction_word(word)[::-1]


def horizontal_flip(word: str) -> str:
    return parse_junction_word(word).translate(_SWAP_ARROWS)


def canonical_class(word: str, directed: bool = False) -> str:
    """Orbit minimum under the composite flip (directed) or both flips."""
    word = parse_junction_word(word)
    if directed:
        candidates = [word, horizontal_flip(vertical_flip(word))]
    else:
        candidates = [
            word,
            vertical_flip(word),
            horizontal_flip(word),
            horizontal_flip(vertical_flip(word)),
        ]
    return min(candidates)


def _interior_blocks(word: str) -> str:
    return "".join(ARROW_BLOCK[ch] * 2 for ch in word[1:-1])


# one entry: the CLI's mcurve payload reads the diagram of one word three times
@lru_cache(maxsize=1)
def _cutting_diagram(word: str) -> CyclicDiagram:
    """The cyclic word L.L.A.L.L.At, A the doubled blocks of the interior.

    For a zigzag-free word it is the monodromy's cutting word, held to the
    element cap before it is built; the stone accounting of a word with a
    zigzag end holds no element and is not capped."""
    if word[0] == word[-1] == "*" and 4 + 4 * len(word[1:-1]) > QUOTIENT_SUM_CAP:
        raise BudgetError(f"the monodromy's cutting word exceeds {QUOTIENT_SUM_CAP} letters")
    blocks = _interior_blocks(word)
    return CyclicDiagram("LL" + blocks + "LL" + word_transpose(blocks))


def _require_zigzag_free(word: str) -> str:
    word = parse_junction_word(word)
    if len(word) < 2 or word[0] != "*" or word[-1] != "*":
        raise DomainError(
            "operation needs a zigzag-free curve: '*' at both word ends"
        )
    return word


def branch_word(word: str) -> PseudoTree:
    """Pseudo-tree of the monodromy group of a zigzag-free curve.

    Each interior arrow contributes one same-direction branch pair, so the
    tree is always even.
    """
    word = _require_zigzag_free(word)
    blocks = _interior_blocks(word)
    return PseudoTree(blocks.translate(str.maketrans("LR", "ud")))


def monodromy_class(word: str) -> ConjugacyClass:
    """Conjugacy class of the monodromy at infinity of a zigzag-free curve."""
    return _cutting_word_class(_cutting_diagram(_require_zigzag_free(word)))


def _stones_from_even_cutting(diagram: CyclicDiagram) -> str:
    """Stone word over O/S with the diagram's even cutting word as monodromy.

    Inverts the product formula for runs of squares and circles: an
    alternating necklace run sequence (r_1, r_2, ...) multiplies out to
    the cyclic word  prod_t L^(r_t - 1) R^2.  A least rotation with both
    letters starts with L and ends with R, so its runs pair up in order.
    """
    if "R" not in diagram.letters:
        return "O" * len(diagram)
    runs = cutting_period_cycle(diagram)
    stones = []
    kind = "S"
    other = {"S": "O", "O": "S"}
    for a, b in zip(runs[0::2], runs[1::2]):
        if a % 2 or b % 2:
            raise VerificationError(f"cutting word {diagram.letters} is not even")
        stones.append(kind * (a + 1))
        kind = other[kind]
        for _ in range(b // 2 - 1):
            stones.append(kind)
            kind = other[kind]
    return "".join(stones)


def flat_diagram(word: str) -> NecklaceClass:
    """Necklace diagram of the real part: flat for even degree, twisted for odd.

    Zigzag-free words are handled exactly (the stone word's monodromy lies
    in the monodromy class of the curve).  Words with zigzag ends get
    stone accounting only: an arrow stone per zigzag around the oval word
    of the starred interior, without monodromy validation.
    """
    word = parse_junction_word(word)
    d = len(word)
    category = "flat_oriented" if d % 2 == 0 else "twisted_oriented"
    stones = "O" if d == 1 else _stones_from_even_cutting(_cutting_diagram(word))
    if word[-1] != "*":
        stones = stones + ("<" if word[-1] == "u" else ">")
    if word[0] != "*":
        stones = (">" if word[0] == "u" else "<") + stones
    return canonicalize(stones, category)


def classes_sharing_real_part(word: str) -> int:
    """How many deformation classes share this real part (1 or 2).

    Two iff the monodromy presents with two disjoint para-symmetry axes
    and an even inserted word, or is the even shared-axes chain (m = 0).
    """
    form = recognize(_cutting_diagram(_require_zigzag_free(word)))
    if form.kind == "disjoint_axes" and is_even_word(form.insert):
        return 2
    if form.kind == "shared_axes" and form.m == 0:
        return 2
    return 1
