"""Command-line interface with machine-readable JSON output.

Exit codes: 0 success, 2 parse error (an integer literal past the
interpreter's digit limit included), 3 domain error (precondition
violation), 4 budget exceeded (the entry-size cap of psl2.normal_form
and a result integer past the digit limit included) or memory
exhausted.  Output is a single
JSON document on stdout with sorted keys; --pretty switches to indented
rendering.  necklace enumerate runs within the budget k <= 2 (exit 4
past it, at once); factorize --max-modulus runs within the modulus budget
of 12 (exit 4 past it).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import mcurve as mc
from . import necklace as nk
from .errors import BudgetError, DomainError, ParseError, VerificationError
from .factorization import analyze, count_classes, exists_2factorization, factorization_reality
from .obstructions import finite_quotient_test, trace_test
from .psl2 import (
    GroupElement,
    abelian_degree,
    classify,
    is_real_element,
    parse_element,
    primitive_root,
)

__all__ = ["main"]


def _emit(payload: dict, pretty: bool) -> None:
    try:
        if pretty:
            text = json.dumps(payload, indent=2, sort_keys=True)
        else:
            text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    except ValueError:
        # the only ValueError json raises here: an integer in the result
        # past the interpreter's digit limit for int -> str conversion
        raise BudgetError("an integer in the result exceeds the digit limit") from None
    sys.stdout.write(text + "\n")


def _classify_payload(g: GroupElement) -> dict:
    cls = classify(g)
    payload = {
        "class": cls.kind,
        "real": is_real_element(g),
        "degree_mod6": abelian_degree(g),
        "trace": g.trace,
        "cutting_word": cls.diagram.letters if cls.diagram else None,
        "parabolic_index": cls.index,
        "root_power": None,
    }
    if cls.kind in ("parabolic", "hyperbolic"):
        payload["root_power"] = primitive_root(g)[1]
    return payload


def _cmd_classify(args) -> dict:
    return _classify_payload(parse_element(args.element))


def _cmd_factorize(args) -> dict:
    g = parse_element(args.element)
    # first, so a modulus past the budget is refused before any other work
    quotient_tests = [
        finite_quotient_test(g, n)._asdict() for n in range(2, args.max_modulus + 1)
    ] if args.check_obstructions else None
    strong, weak = count_classes(g)
    reps = []
    for fact, label in analyze(g).canonical:
        if fact.product != g:
            raise VerificationError(f"representative multiplies to {fact.product}, not {g}")
        reps.append(
            {
                "factors": [list(map(list, f.matrix())) for f in fact.factors],
                "twist_vectors": [[v.p, v.q] for v in fact.vectors],
                "label": label.describe(),
            }
        )
    payload = {
        "exists": exists_2factorization(g),
        "strong_count": strong,
        "weak_count": weak,
        "representatives": reps,
        "reality": factorization_reality(g)._asdict(),
        "trace_test": trace_test(g),
    }
    if args.check_obstructions:
        payload["quotient_tests"] = quotient_tests
    return payload


def _cmd_necklace(args) -> dict:
    if args.necklace_command == "stats":
        return nk.stats(args.word, k=args.k, w=args.w)._asdict()
    result = nk.enumerate_classes(args.k, args.w, category=args.category)
    if args.out:
        try:
            with open(args.out, "w") as handle:
                for word, label in result.representatives:
                    handle.write(f"{word}\t{label}\n")
        except OSError as exc:
            raise ParseError(f"cannot write --out {args.out}: {exc.strerror}") from None
    return result.summary()


def _cmd_mcurve(args) -> dict:
    word = mc.parse_junction_word(args.word)
    w = mc.junction_pair_count(word)
    payload = {
        "word": word,
        "w": w,
        "canonical_class": mc.canonical_class(word, directed=args.directed),
        "directed": args.directed,
        "monodromy_class": None,
        "flat_diagram": mc.flat_diagram(word).representative,
        "classes_sharing_real_part": None,
    }
    if w == 2:
        payload["monodromy_class"] = mc.monodromy_class(word).describe()
        payload["classes_sharing_real_part"] = mc.classes_sharing_real_part(word)
    return payload


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modtwist",
        description="2-factorizations in PSL(2,Z) and necklace diagram enumeration",
    )
    parser.add_argument("--pretty", action="store_true", help="indent JSON output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="conjugacy class of a word or matrix")
    p.add_argument("element", help='word over L/R/X/Y (e.g. "R^3 L R^2") or [[a,b],[c,d]]')
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("factorize", help="2-factorization existence, classes, reality")
    p.add_argument("element")
    p.add_argument("--check-obstructions", action="store_true")
    p.add_argument("--max-modulus", type=int, default=7)
    p.set_defaults(func=_cmd_factorize)

    p = sub.add_parser("necklace", help="necklace diagram statistics and enumeration")
    nsub = p.add_subparsers(dest="necklace_command", required=True)
    pe = nsub.add_parser("enumerate", help="count w-pendant classes of length 6k-w")
    pe.add_argument("--k", type=int, required=True)
    pe.add_argument("--w", type=int, required=True, choices=(0, 1, 2))
    pe.add_argument(
        "--category", choices=("oriented", "nonoriented"), default="nonoriented"
    )
    pe.add_argument("--out", help="write one representative per line to this file")
    pe.set_defaults(func=_cmd_necklace)
    ps = nsub.add_parser("stats", help="stone counts and obstruction record")
    ps.add_argument("word", help="stone word over O, S, >, <")
    ps.add_argument("--k", type=int)
    ps.add_argument("--w", type=int)
    ps.set_defaults(func=_cmd_necklace)

    p = sub.add_parser("mcurve", help="junction-word invariants of trigonal M-curves")
    p.add_argument("word", help='junction word, e.g. ".ud."')
    p.add_argument("--directed", action="store_true")
    p.set_defaults(func=_cmd_mcurve)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _emit(args.func(args), args.pretty)
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return 2
    except BudgetError as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return 4
    except MemoryError:
        sys.stderr.write("memory exhausted\n")
        return 4
    except DomainError as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
