"""The three benchmark workloads: seeded inputs, one op per input, output checks.

Every workload exposes the same five pieces:

* `inputs(seed, passes)` builds the input list of `passes` passes up front
  from the seed, so the program only ever sees generated inputs and two runs
  with one seed see the same data.  The first pass is the same for any
  `passes`; on the two streams no input repeats across passes;
* `run_op(item)` is one closed-loop op.  It calls only public functions of
  the modtwist modules, always through the module object, so the tracer's
  wrappers see the benchmark's calls;
* `check_op(item, out)` returns the problems found in the op's output.  It
  runs outside the timed region, with the tracer inactive;
* `cli_kinds` makes the argument lists of the run's cold command-line calls:
  the subcommands that serve the workload's traffic;
* `traced_only` lists the inputs that only the traced run takes.

The workloads and the reason for each are described in README.md.
"""

from __future__ import annotations

import math
import random
from typing import Any

from modtwist import mcurve, necklace, obstructions, psl2, skeleton
from modtwist import factorization as fz

# -- cold command-line calls ------------------------------------------------------

CLI_CALLS = 20  # argument lists per timed run


def cli_calls(workload, seed: int) -> list[list[str]]:
    """CLI_CALLS argument lists from the seed, cycling over the workload's kinds."""
    rng = random.Random(f"cli:{workload.name}:{seed}")
    kinds = workload.cli_kinds
    return [kinds[i % len(kinds)](rng) for i in range(CLI_CALLS)]


def _cli_classify(rng: random.Random) -> list[str]:
    return ["classify", _random_word(rng)]


def _cli_factorize(rng: random.Random) -> list[str]:
    return ["factorize", _random_word(rng)]


def _cli_factorize_obstructions(rng: random.Random) -> list[str]:
    return ["factorize", _matrix(_pair_product(_random_pair(rng))), "--check-obstructions"]


def _cli_factorize_stones(rng: random.Random) -> list[str]:
    return ["factorize", _matrix(necklace.monodromy(_random_stones(rng, PENDANT_WORD_LENGTH)))]


def _cli_necklace_stats(rng: random.Random) -> list[str]:
    stones = _random_stones(rng, PENDANT_WORD_LENGTH)
    return ["necklace", "stats", stones, "--k", "2", "--w", "2"]


def _cli_necklace_enumerate(w: int, category: str):
    """The argument list of one k = 1 enumeration case.  k = 1 only: a cold
    k = 2 case takes seconds, and k = 1 starts no worker.  The case is
    fixed, not drawn: the cases' cold times differ by more than a seed
    should move a percentile of them."""

    def make(rng: random.Random) -> list[str]:
        return ["necklace", "enumerate", "--k", "1", "--w", str(w), "--category", category]

    return make


def _cli_mcurve(rng: random.Random) -> list[str]:
    directed = ["--directed"] if rng.randrange(2) else []
    return ["mcurve", _random_junction(rng)] + directed


def _matrix(g: psl2.GroupElement) -> str:
    return f"[[{g.a},{g.b}],[{g.c},{g.d}]]"


# -- enumerate ---------------------------------------------------------------

# (k, w) -> pinned (nonoriented, oriented) class counts; the nonoriented ones
# are the headline numbers the package reproduces
PINNED_COUNTS = {
    (1, 0): (25, 42),
    (1, 1): (28, 48),
    (1, 2): (24, 39),
    (2, 0): (8421, 16646),
    (2, 1): (15602, 31008),
}
# from the w = 0 nonoriented representatives: maximal classes at k = 1 and
# classes passing the essential-segment obstruction at k = 1 and k = 2
PINNED_MAXIMAL_K1 = 4
PINNED_OBSTRUCTION = {1: 17, 2: 3596}
CATEGORIES = ("nonoriented", "oriented")


class Enumerate:
    """In-process `enumerate_classes` over the pinned (k, w) cases, both categories."""

    name = "enumerate"
    cli_kinds = tuple(_cli_necklace_enumerate(w, c) for w in range(3) for c in CATEGORIES)
    # left out of the timed run: a try takes seconds, and on a shared host
    # its time follows the neighbours' load by more than the bounds allow
    # (README.md).  The traced run still times and checks them.
    traced_only = ((2, 1, "nonoriented"), (2, 1, "oriented"))

    def __init__(self, expected: dict | None = None):
        self.expected = dict(PINNED_COUNTS if expected is None else expected)

    def inputs(self, seed: int, passes: int = 1) -> list[tuple[int, int, str]]:
        # no seed: the cases are the workload, and every pass runs them all
        return passes * [
            (k, w, category)
            for (k, w) in self.expected
            for category in CATEGORIES
        ]

    def run_op(self, case):
        k, w, category = case
        return necklace.enumerate_classes(k, w, category)

    def check_op(self, case, result) -> list[str]:
        k, w, category = case
        want = self.expected[(k, w)][category == "oriented"]
        problems = []
        if result.count != want:
            problems.append(f"{case}: {result.count} classes, expected {want}")
        if len(result.representatives) != result.count:
            problems.append(f"{case}: {len(result.representatives)} representatives")
        if w == 0 and category == "nonoriented":
            words = [word for word, _ in result.representatives]
            passing = sum(necklace.stats(x, k=k, w=0).essential_obstruction for x in words)
            if passing != PINNED_OBSTRUCTION.get(k, passing):
                problems.append(f"{case}: {passing} pass the obstruction")
            if k == 1:
                maximal = sum(necklace.stats(x, k=1, w=0).maximal for x in words)
                if maximal != PINNED_MAXIMAL_K1:
                    problems.append(f"{case}: {maximal} maximal classes")
        return problems


# -- pendant_stream ------------------------------------------------------------

PENDANT_WORD_LENGTH = 10
PENDANT_PASS = 5000  # distinct words per pass


class PendantStream:
    """Per-word traffic of the k = 2, w = 2 enumeration on uniform stone words."""

    name = "pendant_stream"
    cli_kinds = (_cli_necklace_stats, _cli_factorize_stones)
    traced_only = ()

    def inputs(self, seed: int, passes: int = 1) -> list[str]:
        # distinct words, as the enumeration visits each word once; only
        # their monodromies repeat
        rng = random.Random(seed)
        words: dict[str, None] = {}
        while len(words) < passes * PENDANT_PASS:
            words[_random_stones(rng, PENDANT_WORD_LENGTH)] = None
        return list(words)

    def run_op(self, word: str):
        m = necklace.monodromy(word)
        exists = fz.exists_2factorization(m)
        if not exists:
            return m, False, [], [], []
        labels = necklace.pendants(word, 2)
        facts = fz.canonical_2factorizations(m)
        located = []
        for fact in facts:
            moved = fact.conjugated_by(necklace.STONE_MONODROMY[word[0]])
            located.append(_locate(moved, necklace.shift(word)))
            m1, m2 = fact.factors
            moved = fz.Factorization(
                (psl2.real_involution(psl2.TAU1, m2), psl2.real_involution(psl2.TAU1, m1))
            )
            located.append(_locate(moved, necklace.inverse(word)))
        return m, True, labels, facts, located

    def check_op(self, word, out) -> list[str]:
        m, exists, labels, facts, located = out
        problems = _check_factorizations(m, exists, facts)
        if len(labels) != len(facts):
            problems.append(f"{word}: {len(labels)} pendants for {len(facts)} classes")
        for matches in located:
            if sum(matches) != 1:
                problems.append(f"{word}: transported class matches {sum(matches)} classes")
        return problems


def _locate(moved, word: str) -> list[bool]:
    targets = fz.canonical_2factorizations(necklace.monodromy(word))
    return [fz.decide_strong_equivalence(moved, target) for target in targets]


def _check_factorizations(g, exists: bool, facts) -> list[str]:
    problems = []
    if exists and not obstructions.trace_test(g):
        problems.append(f"{g}: 2-factorizable but fails the trace test")
    if exists != bool(facts):
        problems.append(f"{g}: exists={exists} with {len(facts)} canonical classes")
    for fact in facts:
        if fact.product != g:
            problems.append(f"{g}: canonical factorization multiplies to {fact.product}")
    return problems


# -- fresh_queries -------------------------------------------------------------

FRESH_PASS = 1000  # so op_p99_ms has ten samples beyond it
TWIST_BOUND = 12  # twist vectors have |p|, |q| <= TWIST_BOUND
WORD_ATOMS = ["L", "R", "X", "Y", "L^-1", "R^-1", "L^2", "R^2", "X^2", "R^3", "L^3"]
JUNCTION_INTERIOR = (1, 14)
QUOTIENT_EVERY = 8  # every 8th element query also runs the finite-quotient tests
MAX_MODULUS = 7
# fixed interleaving of query kinds, so every prefix of the stream has the same mix
KIND_SCHEDULE = ["pair", "word", "pair", "word", "junction"] * 2


class FreshQueries:
    """Distinct elements and junction words through the library API."""

    name = "fresh_queries"
    traced_only = ()
    # every subcommand
    cli_kinds = (
        _cli_classify, _cli_factorize, _cli_factorize_obstructions,
        _cli_necklace_stats, _cli_necklace_enumerate(1, "nonoriented"), _cli_mcurve,
    )

    def inputs(self, seed: int, passes: int = 1) -> list[tuple]:
        rng = random.Random(seed)
        seen: set = set()
        items: list[tuple] = []
        element_queries = 0
        while len(items) < passes * FRESH_PASS:
            kind = KIND_SCHEDULE[len(items) % len(KIND_SCHEDULE)]
            if kind == "junction":
                word = _random_junction(rng)
                if word not in seen:
                    seen.add(word)
                    items.append(("junction", word))
                continue
            if kind == "pair":
                source = _random_pair(rng)
                g = _pair_product(source)
            else:
                source = _random_word(rng)
                g = psl2.evaluate(source)
            moves = tuple(rng.choice((1, -1)) for _ in range(rng.randint(1, 4)))
            pick = rng.randrange(2)
            if g in seen:
                continue
            seen.add(g)
            quotients = element_queries % QUOTIENT_EVERY == 0
            element_queries += 1
            items.append((kind, source, moves, pick, quotients))
        return items

    def run_op(self, item):
        if item[0] == "junction":
            word = item[1]
            return (
                mcurve.monodromy_class(word),
                mcurve.flat_diagram(word),
                mcurve.classes_sharing_real_part(word),
            )
        kind, source, moves, pick, quotients = item
        g = _pair_product(source) if kind == "pair" else psl2.evaluate(source)
        out: dict[str, Any] = {"g": g}
        # the `classify` payload
        out["class"] = psl2.classify(g)
        out["normal_form"] = psl2.normal_form(g)
        out["real"] = psl2.is_real_element(g)
        out["degree"] = psl2.abelian_degree(g)
        if out["class"].kind in ("parabolic", "hyperbolic"):
            out["root"] = psl2.primitive_root(g)
        # the `factorize` payload
        out["counts"] = fz.count_classes(g)
        out["facts"] = facts = fz.canonical_2factorizations(g)
        out["labels"] = fz.strong_class_labels(g)
        out["reality"] = fz.factorization_reality(g)
        out["exists"] = fz.exists_2factorization(g)
        out["trace_test"] = obstructions.trace_test(g)
        if quotients:
            out["quotients"] = [
                obstructions.finite_quotient_test(g, n, max_modulus=MAX_MODULUS)
                for n in range(2, MAX_MODULUS + 1)
            ]
        if not facts:
            return out
        # a Hurwitz-moved copy of one class, located among the canonical classes
        chosen = pick % len(facts)
        moved = facts[chosen]
        for direction in moves:
            moved = fz.hurwitz_move(moved, 1, direction)
        out["chosen"] = chosen
        out["decisions"] = [fz.decide_strong_equivalence(moved, c) for c in facts]
        out["weak"] = fz.decide_weak_equivalence(moved, facts[(chosen + 1) % len(facts)])
        if kind == "pair":
            u, v = source
        else:
            u, v = ((x.p, x.q) for x in facts[chosen].vectors)
        out["twists"] = (u, v)
        out["subgroup"] = skeleton.from_twists(u, v)
        return out

    def check_op(self, item, out) -> list[str]:
        if item[0] == "junction":
            return _check_junction(item[1], *out)
        g = out["g"]
        problems = _check_factorizations(g, out["exists"], out["facts"])
        if psl2.evaluate(out["normal_form"].to_word()) != g:
            problems.append(f"{g}: normal form does not evaluate back")
        strong, weak = out["counts"]
        if item[0] == "pair" and not out["exists"]:
            problems.append(f"{g}: twist-pair product reported not 2-factorizable")
        if not (strong == len(out["facts"]) == len(out["labels"]) and weak <= strong):
            problems.append(f"{g}: counts {strong}/{weak} for {len(out['facts'])} classes")
        if out["exists"] and not all(r.solvable for r in out.get("quotients", [])):
            problems.append(f"{g}: 2-factorizable but a finite-quotient test fails")
        if not out["facts"]:
            return problems
        chosen = out["chosen"]
        if out["decisions"] != [i == chosen for i in range(len(out["facts"]))]:
            problems.append(f"{g}: moved copy of class {chosen} matches {out['decisions']}")
        if out["weak"] != (len(out["facts"]) == 1 or weak == 1):
            problems.append(f"{g}: weak equivalence {out['weak']} with counts {strong}/{weak}")
        problems += _check_subgroup(g, *out["twists"], out["subgroup"])
        return problems


_TWIST_VECTORS = [
    (p, q)
    for p in range(0, TWIST_BOUND + 1)
    for q in range(-TWIST_BOUND, TWIST_BOUND + 1)
    if (p, q) != (0, 0) and math.gcd(p, q) == 1 and (p > 0 or q > 0)
]


def _random_pair(rng: random.Random) -> tuple:
    return rng.choice(_TWIST_VECTORS), rng.choice(_TWIST_VECTORS)


def _random_word(rng: random.Random) -> str:
    return " ".join(rng.choice(WORD_ATOMS) for _ in range(rng.randint(2, 10)))


def _random_junction(rng: random.Random) -> str:
    lo, hi = JUNCTION_INTERIOR
    return "*" + "".join(rng.choice("ud") for _ in range(rng.randint(lo, hi))) + "*"


def _random_stones(rng: random.Random, length: int) -> str:
    return "".join(rng.choice(necklace.STONES) for _ in range(length))


def _pair_product(source) -> psl2.GroupElement:
    u, v = source
    return psl2.dehn_twist(u) * psl2.dehn_twist(v)


def _check_subgroup(g, u, v, subgroup) -> list[str]:
    wedge = u[0] * v[1] - u[1] * v[0]
    if abs(wedge) == 1:
        ok = subgroup == skeleton.FULL_GROUP
    elif wedge == 0:
        ok = subgroup == skeleton.CYCLIC
    else:
        ok = isinstance(subgroup, skeleton.MarkedPseudoTree) and psl2.classify(
            skeleton.monodromy_at_infinity(subgroup.tree)
        ) == psl2.classify(g)
    return [] if ok else [f"{g}: from_twists({u}, {v}) gave {subgroup}"]


def _check_junction(word, monodromy_class, flat, sharing) -> list[str]:
    problems = []
    if sharing not in (1, 2):
        problems.append(f"{word}: {sharing} classes share the real part")
    rep = flat.representative
    if necklace.canonicalize(rep, flat.category) != flat:
        problems.append(f"{word}: flat diagram {rep} is not orbit-minimal")
    # even degree: the flat diagram's stones multiply into the curve's class
    if len(word) % 2 == 0 and psl2.classify(necklace.monodromy(rep)) != monodromy_class:
        problems.append(f"{word}: flat diagram {rep} has another monodromy class")
    return problems


WORKLOADS = {w.name: w for w in (Enumerate, PendantStream, FreshQueries)}
