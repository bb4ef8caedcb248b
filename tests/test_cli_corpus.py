"""A seeded corpus of CLI calls with one pinned digest of their outputs.

Every call goes through ``cli.main`` in process.  The digest is a sha256
over (argv, exit code, stdout, stderr) per call, with the one
time-dependent field, ``elapsed``, blanked.  The per-command exit-code
tallies are pinned beside it, so a mismatch names the command that moved.
An intended output change updates both pins in the same change.

Runs under pytest, or without it as a script:

    PYTHONPATH=src python tests/test_cli_corpus.py

which prints the digest and the tallies and exits 1 if either differs
from the pins.
"""

import contextlib
import hashlib
import io
import json
import random
import re
import sys
from collections import Counter

from modtwist import cli

SEED = 20170

CORPUS_SHA256 = "98fb276c6d2b92208737296ecefa2976dc588fc347a1a4ae9cdb058124ecf48e"

EXIT_TALLIES = {
    "classify": {"0": 247, "2": 4, "4": 3},
    "factorize": {"0": 276, "2": 1, "4": 1},
    "mcurve": {"0": 122, "2": 3},
    "necklace enumerate": {"0": 6, "4": 2},
    "necklace stats": {"0": 81, "3": 3},
}

_ATOMS = ["L", "R", "X", "Y", "L^-1", "R^-1", "X^2", "L^3", "R^-2", "L^5", "R^4", "Y X"]
_STONES = "OS><"
_ELAPSED = re.compile(r'"elapsed": ?[-0-9.e]+')


def _twist(p, q):
    return (1 - p * q, -q * q, p * p, 1 + p * q)


def _mul(m, n):
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _matrix(m):
    a, b, c, d = m
    return f"[[{a},{b}],[{c},{d}]]"


def _primitive(rng, bound):
    while True:
        p, q = rng.randint(-bound, bound), rng.randint(-bound, bound)
        a, b = abs(p), abs(q)
        while b:
            a, b = b, a % b
        if a == 1:
            return p, q


def _elements(rng):
    """Element arguments: seeded words and matrices, twist-pair products
    (which factorize), and fixed edge cases of the Euclidean peel."""
    out = [
        # elliptic and identity elements; Y and X peel with zero quotients
        "", "X", "X^2", "Y", "X Y X^-1", "Y X Y X^2 Y", "[[0,1],[-1,0]]", "[[0,-1],[1,1]]",
        # peels whose first or last partial quotient is zero
        "[[0,1],[-1,5]]", "[[0,1],[-1,-7]]", "[[5,1],[-1,0]]", "[[1,0],[-3,1]]", "Y L^3 Y",
        "Y R^4", "L^-2 Y", "[[2,-1],[1,0]]", "[[0,-1],[1,-3]]",
        # parabolic, all-L and all-R, and their conjugates
        "L", "L^4", "L^65536", "L^131072", "R^2", "R^-9", "R^1000 L R^-1000", "R^30000 L R^-30000",
        # products that cancel in cascades
        "L R L^-1 R^-1 R L R^-1 L^-1", "X Y X Y X^2 Y X^2 Y", "R^3 L R^2 R^-2 L^-1 R^-3 L",
        # cutting words with para-symmetries, and the counterexample
        "L^2 L R L^2 L R", "L^4 R^2 L^4 R^2", "L^6 R^2", "R^3 L R^2", "L^5 R^3 L^5 R^3",
        "LLLLRRLLLLRR", "L^3 R L^3 R L^3 R",
    ]
    for _ in range(110):
        out.append(" ".join(rng.choice(_ATOMS) for _ in range(rng.randint(1, 10))))
    for _ in range(40):
        m = (1, 0, 0, 1)
        for _ in range(rng.randint(1, 8)):
            m = _mul(m, rng.choice([(1, 1, 0, 1), (1, 0, 1, 1), (0, 1, -1, 0), (1, -1, 1, 0)]))
        out.append(_matrix(m))
    for _ in range(60):
        out.append(_matrix(_mul(_twist(*_primitive(rng, 4)), _twist(*_primitive(rng, 4)))))
    return out


def _junction_words(rng):
    out = ["*ud*", ".ud.", "*u*", "*d*", "**", "*uudd*", "*u", "d*", "ud", "u", "*" + "uudd" * 50 + "*"]
    for _ in range(50):
        inner = "".join(rng.choice("ud") for _ in range(rng.randint(1, 12)))
        out.append(rng.choice(["*{}*", ".{}.", "*{}", "{}*", "{}", ".{}"]).format(inner))
    return out


def _stone_words(rng):
    out = []
    for _ in range(40):
        k, w = rng.randint(1, 2), rng.randint(0, 2)
        word = "".join(rng.choice(_STONES) for _ in range(6 * k - w))
        out.append(["necklace", "stats", word])
        out.append(["necklace", "stats", word, "--k", str(k), "--w", str(w)])
    out.append(["necklace", "stats", "OS><", "--k", "1", "--w", "2"])
    return out


def corpus_calls():
    """The argv lists of the corpus, in order."""
    rng = random.Random(SEED)
    calls = []
    for element in _elements(rng):
        calls.append(["classify", element])
        calls.append(["factorize", element])
    for element in rng.sample(_elements(rng), 30):
        calls.append(["factorize", element, "--check-obstructions"])
    for word in _junction_words(rng):
        calls.append(["mcurve", word])
        calls.append(["mcurve", word, "--directed"])
    calls += _stone_words(rng)
    for w in (0, 1, 2):
        for category in ("nonoriented", "oriented"):
            calls.append(["necklace", "enumerate", "--k", "1", "--w", str(w), "--category", category])
    calls += [
        # refusals: parse (exit 2), domain (exit 3), budget (exit 4)
        ["classify", "L Q R"],
        ["classify", "L^"],
        ["classify", "[[1,2],[3,4]]"],
        ["classify", "L^" + "3" * 5000],
        ["factorize", "[[1," + "7" * 5000 + "],[0,1]]"],
        ["mcurve", "u*d"],
        ["mcurve", "uxd"],
        ["mcurve", ""],
        ["necklace", "stats", "OSX"],
        ["necklace", "stats", "OS><", "--k", "1"],
        ["necklace", "stats", "OS><", "--k", "1", "--w", "0"],
        ["classify", "L^131073"],
        ["classify", "L^65536 R^65537"],
        ["classify", "LR" * 12000],
        ["factorize", "L^4", "--check-obstructions", "--max-modulus", "13"],
        ["necklace", "enumerate", "--k", "3", "--w", "0"],
        ["necklace", "enumerate", "--k", "4", "--w", "2", "--category", "oriented"],
        # at the entry-size cap
        ["classify", "L^65536 R^65536"],
        ["factorize", "L^26216 R^26212 L^26216 R^26212"],
        ["classify", "R^65536 L^-65536"],
    ]
    return calls


def run_call(argv):
    """(exit code, stdout, stderr) of one in-process CLI call, elapsed blanked."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, _ELAPSED.sub('"elapsed":null', out.getvalue()), err.getvalue()


def corpus_record():
    """(sha256 hex digest, {command: {exit code: calls}}) of the corpus."""
    digest = hashlib.sha256()
    tallies = {}
    for argv in corpus_calls():
        code, out, err = run_call(argv)
        digest.update(json.dumps([argv, code, out, err]).encode() + b"\n")
        command = " ".join(argv[:2]) if argv[0] == "necklace" else argv[0]
        tallies.setdefault(command, Counter())[str(code)] += 1
    return digest.hexdigest(), {c: dict(sorted(t.items())) for c, t in sorted(tallies.items())}


def test_cli_corpus_is_unchanged():
    digest, tallies = corpus_record()
    assert tallies == EXIT_TALLIES
    assert digest == CORPUS_SHA256


if __name__ == "__main__":
    digest, tallies = corpus_record()
    print(digest)
    print(json.dumps(tallies, sort_keys=True))
    sys.exit(0 if (digest, tallies) == (CORPUS_SHA256, EXIT_TALLIES) else 1)
