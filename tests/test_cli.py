import contextlib
import io
import json
import math
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modtwist import cli
from modtwist.cli import main
from modtwist.errors import VerificationError
from modtwist.factorization import StrongClassLabel, pair
from modtwist.necklace import NecklaceStats
from modtwist.psl2 import QUOTIENT_SUM_CAP, R, evaluate


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_word(capsys):
    code, out, _ = run_cli(capsys, "classify", "R^3 L R^2")
    assert code == 0
    payload = json.loads(out)
    assert payload["class"] == "hyperbolic"
    assert sorted(payload["cutting_word"]) == sorted("RRRLRR")
    assert payload["trace"] == 7
    assert payload["real"] is True


def test_classify_matrix(capsys):
    code, out, _ = run_cli(capsys, "classify", "[[1,0],[0,1]]")
    assert code == 0
    assert json.loads(out)["class"] == "identity"


def test_classify_parabolic(capsys):
    code, out, _ = run_cli(capsys, "classify", "L^4")
    payload = json.loads(out)
    assert payload["class"] == "parabolic"
    assert payload["parabolic_index"] == -4
    assert payload["real"] is True
    assert payload["degree_mod6"] == 2
    assert payload["root_power"] == 4


def test_classify_parse_error(capsys):
    code, _, err = run_cli(capsys, "classify", "L Q R")
    assert code == 2
    assert "parse error" in err


def test_factorize_l4(capsys):
    code, out, _ = run_cli(capsys, "factorize", "L^4")
    payload = json.loads(out)
    assert payload["exists"] is True
    assert payload["strong_count"] == 2
    assert payload["weak_count"] == 1
    assert len(payload["representatives"]) == 2
    assert payload["reality"]["classes"] == ["real", "real"]


def test_factorize_counterexample(capsys):
    code, out, _ = run_cli(capsys, "factorize", "R^3 L R^2", "--check-obstructions")
    payload = json.loads(out)
    assert payload["exists"] is False
    assert payload["trace_test"] is True
    assert payload["representatives"] == []
    assert all(report["solvable"] in (True, False) for report in payload["quotient_tests"])


def test_factorize_x(capsys):
    code, out, _ = run_cli(capsys, "factorize", "R L^-1")
    payload = json.loads(out)
    assert payload["representatives"][0]["twist_vectors"] == [[1, 0], [0, 1]]
    assert payload["representatives"][0]["label"] == "full_group"


def test_factorize_rejects_a_wrong_representative(monkeypatch):
    # R * R is not L^4: the re-check must refuse to print it
    wrong = SimpleNamespace(canonical=[(pair(R, R), StrongClassLabel("equal_twists"))])
    monkeypatch.setattr(cli, "analyze", lambda g: wrong)
    with pytest.raises(VerificationError):
        main(["factorize", "L^4"])


def test_out_of_memory_exits_4(capsys, monkeypatch):
    def exhausted(g):
        raise MemoryError

    monkeypatch.setattr(cli, "classify", exhausted)
    code, out, err = run_cli(capsys, "classify", "R")
    assert (code, out) == (4, "")
    assert "memory" in err


def test_necklace_enumerate(capsys, tmp_path):
    out_file = tmp_path / "reps.tsv"
    code, out, _ = run_cli(
        capsys, "necklace", "enumerate", "--k", "1", "--w", "0", "--out", str(out_file)
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 25
    lines = out_file.read_text().strip().split("\n")
    assert len(lines) == 25


@pytest.mark.parametrize("parts", [("missing", "x.tsv"), ()], ids=["no_parent", "directory"])
def test_unwritable_out_exits_2(capsys, tmp_path, parts):
    target = str(tmp_path.joinpath(*parts))
    argv = ["necklace", "enumerate", "--k", "1", "--w", "0", "--out", target]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"parse error: cannot write --out {target}")
    assert err.count("\n") == 1


def test_stats_weight_past_two_exits_3(capsys):
    code, out, err = run_cli(capsys, "necklace", "stats", "OOO", "--k", "1", "--w", "5")
    assert (code, out) == (3, "")
    assert "w must be 0, 1 or 2" in err


def test_necklace_stats(capsys):
    code, out, _ = run_cli(capsys, "necklace", "stats", "OOOOOSSSSS")
    payload = json.loads(out)
    assert payload["betti"] == 24
    assert payload["essential"] == 2


def test_necklace_stats_golden(capsys):
    code, out, _ = run_cli(capsys, "necklace", "stats", "OOOOOSSSSS", "--k", "2", "--w", "2")
    assert code == 0
    assert out == (
        '{"betti":24,"circles":5,"essential":2,"essential_obstruction":true,"euler":0,'
        '"left_arrows":0,"maximal":true,"right_arrows":0,"squares":5}\n'
    )


def test_necklace_stats_fields_are_the_v1_schema():
    # the CLI emits the record as it stands, so its fields are the schema
    assert list(NecklaceStats._fields) == [
        "circles",
        "squares",
        "right_arrows",
        "left_arrows",
        "betti",
        "euler",
        "essential",
        "maximal",
        "essential_obstruction",
    ]


def test_necklace_budget(capsys):
    # the enumeration is capped at k <= 2
    for w in ("0", "1", "2"):
        code, out, err = run_cli(capsys, "necklace", "enumerate", "--k", "3", "--w", w)
        assert (code, out) == (4, ""), w
        assert "budget" in err


def test_enumeration_refusal_is_instant(capsys):
    # the cap is checked on k before any word is built
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "necklace", "enumerate", "--k", "100000000", "--w", "0")
    assert time.perf_counter() - start < 1
    assert (code, out) == (4, "")
    assert "budget" in err


def test_max_modulus_is_capped_by_the_library_budget(capsys):
    argv = ["factorize", "L^4", "--check-obstructions", "--max-modulus"]
    code, out, _ = run_cli(capsys, *argv, "12")
    assert code == 0
    assert [t["modulus"] for t in json.loads(out)["quotient_tests"]] == list(range(2, 13))
    for modulus in ("13", "1000000"):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv, modulus)
        assert time.perf_counter() - start < 1
        assert (code, out) == (4, "")
        assert "modulus 13 exceeds budget 12" in err


def test_max_modulus_past_the_budget_refuses_before_factorizing(capsys, monkeypatch):
    def no_factorization_work(g):
        raise AssertionError("count_classes ran before the modulus budget check")

    monkeypatch.setattr(cli, "count_classes", no_factorization_work)
    code, out, err = run_cli(
        capsys, "factorize", "L^4", "--check-obstructions", "--max-modulus", "13"
    )
    assert (code, out) == (4, "")
    assert "modulus 13 exceeds budget 12" in err


def test_mcurve(capsys):
    code, out, _ = run_cli(capsys, "mcurve", ".ud.")
    payload = json.loads(out)
    assert payload["flat_diagram"] == "OOOOOSSSSS"
    assert payload["classes_sharing_real_part"] == 2
    assert payload["w"] == 2


@pytest.mark.parametrize(
    "word, flat, monodromy_class, sharing",
    [("u*", "<SSSS", None, None), ("*ud*", "OOOOOSSSSS", "hyperbolic(LLLLRRLLLLRR)", 2)],
)
def test_mcurve_nulls_only_the_monodromy_fields(capsys, word, flat, monodromy_class, sharing):
    # flat_diagram is always a string; the monodromy fields need w = 2
    code, out, _ = run_cli(capsys, "mcurve", word)
    payload = json.loads(out)
    assert code == 0
    assert payload["flat_diagram"] == flat
    assert payload["monodromy_class"] == monodromy_class
    assert payload["classes_sharing_real_part"] == sharing


def test_mcurve_directed_distinct(capsys):
    _, out_uu, _ = run_cli(capsys, "mcurve", ".uu.", "--directed")
    _, out_ud, _ = run_cli(capsys, "mcurve", ".ud.", "--directed")
    assert json.loads(out_uu)["canonical_class"] != json.loads(out_ud)["canonical_class"]


def test_mcurve_bad_star(capsys):
    code, _, err = run_cli(capsys, "mcurve", "u*d")
    assert code == 2


def test_output_is_byte_stable(capsys):
    _, first, _ = run_cli(capsys, "factorize", "L^4")
    _, second, _ = run_cli(capsys, "factorize", "L^4")
    assert first == second


def test_factorize_with_obstructions_golden(capsys):
    code, out, _ = run_cli(capsys, "factorize", "L^4", "--check-obstructions", "--max-modulus", "4")
    assert code == 0
    assert out == (
        '{"exists":true,"quotient_tests":[{"modulus":2,"solution_count":3,"solvable":true},'
        '{"modulus":3,"solution_count":4,"solvable":true},'
        '{"modulus":4,"solution_count":6,"solvable":true}],'
        '"reality":{"applicable":true,"classes":["real","real"],"real_structure_count":4,'
        '"reason":null},"representatives":[{"factors":[[[2,-1],[1,0]],[[0,1],[-1,-2]]],'
        '"label":"axis(c=1, anchor=0)","twist_vectors":[[1,-1],[1,1]]},'
        '{"factors":[[[3,-4],[1,-1]],[[1,0],[1,1]]],"label":"axis(c=3, anchor=1)",'
        '"twist_vectors":[[1,-2],[1,0]]}],"strong_count":2,"trace_test":true,"weak_count":1}\n'
    )


def test_oversize_integer_literals_exit_2(capsys):
    digits = "3" * 5000
    for element in (f"[[1,{digits}],[0,1]]", f"L^{digits}"):
        code, out, err = run_cli(capsys, "classify", element)
        assert (code, out) == (2, "")
        assert "digit limit" in err


def test_entry_size_cap_exits_4(capsys):
    code, out, err = run_cli(capsys, "classify", "L^100000000")
    assert (code, out) == (4, "")
    assert "budget" in err
    code, out, _ = run_cli(capsys, "classify", f"L^{QUOTIENT_SUM_CAP}")
    assert code == 0
    assert json.loads(out)["parabolic_index"] == -QUOTIENT_SUM_CAP


def test_result_integer_past_the_digit_limit_exits_4(capsys):
    # (LR)^n stays far below the cap, but its trace has about 0.42 n digits
    word = "LR" * 12000
    assert evaluate(word).trace.bit_length() > 4300 * math.log2(10)
    code, out, err = run_cli(capsys, "classify", word)
    assert (code, out) == (4, "")
    assert "digit limit" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "R^3 L R^2"),
        ("factorize", "L^4", "--check-obstructions"),
        ("necklace", "stats", "OOOOOSSSSS", "--k", "2", "--w", "2"),
        ("mcurve", "*ud*", "--directed"),
        ("necklace", "enumerate", "--k", "1", "--w", "0"),
        ("classify", "LR" * 12000),
    ],
    ids=["classify", "factorize", "stats", "mcurve", "enumerate", "digit_limit"],
)
def test_pretty_indents_the_compact_document(capsys, argv):
    code, compact, _ = run_cli(capsys, *argv)
    pretty_code, pretty, err = run_cli(capsys, "--pretty", *argv)
    assert pretty_code == code
    if code == 4:  # a result integer past the digit limit is refused either way
        assert (compact, pretty) == ("", "")
        assert "digit limit" in err
        return
    assert code == 0
    doc = json.loads(compact)
    if argv[:2] == ("necklace", "enumerate"):  # elapsed is the run's wall time
        doc["elapsed"] = json.loads(pretty)["elapsed"]
    assert pretty == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        # a conjugate whose normal form peels 30,000 syllables off both ends
        ["classify", "R^30000 L R^-30000"],
        # disjoint-axes monodromies with 600- and 4,004-letter diagrams
        ["mcurve", "." + "ud" * 150 + "."],
        ["mcurve", "*" + "uudd" * 500 + "*"],
        # a flat diagram of 20,001 stones to canonicalize
        ["mcurve", "*" + "u" * 20000 + "*"],
        # cutting words of 131,072 letters, at the entry-size cap
        ["classify", "L^65536 R^65536"],
        ["factorize", "L^65536 R^65536"],
        # a square of 104,856 letters: about half its axes pass the anchor
        # test, and each fails next to its anchor in the outward wing test
        ["factorize", "L^26216 R^26212 L^26216 R^26212"],
        # a disjoint-axes monodromy of 87,364 letters, one step below the
        # largest uudd word under the cap: its rotation fraction 10921/21841
        # is read off the l/r block pattern
        ["mcurve", "*" + "uudd" * 5460 + "*"],
        # a cutting word of 128,004 letters, whose multiplied-out monodromy
        # would peel past the cap
        ["mcurve", "*" + "uudd" * 8000 + "*"],
    ],
)
def test_long_inputs_below_the_cap_answer_quickly(capsys, argv):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)
    assert time.perf_counter() - start < 5


def test_junction_word_past_the_cap_is_refused_before_any_work(capsys):
    # a cutting word of 262,068 letters: refused from the word's length
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "mcurve", "*" + "uudd" * 16379 + "*")
    assert (code, out) == (4, "")
    assert "budget" in err
    assert time.perf_counter() - start < 1


# -- every input answers or exits 2, 3 or 4 --------------------------------

EXPONENTS = st.one_of(
    st.just(""),
    st.integers(min_value=-12, max_value=12).map(lambda e: f"^{e}"),
    st.integers(min_value=-(10**9), max_value=10**9).map(lambda e: f"^{e}"),
)
TOKENS = st.tuples(st.sampled_from("LRXY"), EXPONENTS).map("".join)
WORDS = st.one_of(
    st.tuples(st.sampled_from(["", " "]), st.lists(TOKENS, max_size=12)).map(
        lambda c: c[0].join(c[1])
    ),
    st.text(alphabet="LRXY^-0123456789 Q[],", max_size=20),
    st.sampled_from(["L^" + "9" * 5000, "R^-" + "1" * 4400 + " L"]),
)
ENTRIES = st.one_of(
    st.integers(min_value=-5, max_value=5),
    st.integers(min_value=-(10**12), max_value=10**12),
).map(str) | st.just("4" * 4400)
MATRICES = st.one_of(
    st.tuples(ENTRIES, ENTRIES, ENTRIES, ENTRIES),
    # det 1 by construction, some with entries past 10^18
    st.lists(TOKENS, max_size=6).map(lambda t: tuple(map(str, evaluate(" ".join(t))))),
).map(lambda m: "[[%s,%s],[%s,%s]]" % m)
ELEMENT_CALLS = st.tuples(
    st.sampled_from([["classify"], ["factorize"], ["factorize", "--check-obstructions"]]),
    st.one_of(WORDS, MATRICES),
).map(lambda c: [c[0][0], c[1], *c[0][1:]])
STONE_CALLS = st.tuples(
    st.text(alphabet="OS><", max_size=40) | st.text(alphabet="OS><x ", max_size=8),
    st.sampled_from([[], ["--k", "2", "--w", "2"], ["--k", "1"]]),
).map(lambda c: ["necklace", "stats", c[0], *c[1]])
# the budget paths: a modulus past the library budget and a k past the
# enumeration cap of k <= 2 are refused before any large work
BUDGET_CALLS = st.one_of(
    st.tuples(st.one_of(WORDS, MATRICES), st.integers(min_value=-1, max_value=10**6)).map(
        lambda c: ["factorize", c[0], "--check-obstructions", "--max-modulus", str(c[1])]
    ),
    st.tuples(
        st.just(1) | st.integers(min_value=3, max_value=10**9),
        st.sampled_from("012"),
        st.sampled_from(["oriented", "nonoriented"]),
    ).map(lambda c: ["necklace", "enumerate", "--k", str(c[0]), "--w", c[1], "--category", c[2]]),
)
# zigzag-free words whose cutting word is at the cap and one arrow past it,
# and a zigzag word as long, whose stone accounting holds no element
LONG_JUNCTIONS = st.sampled_from(
    ["*" + "u" * 32767 + "*", "*" + "u" * 32768 + "*", "." + "ud" * 16384 + "u"]
)
JUNCTION_CALLS = st.tuples(
    st.text(alphabet="ud*.", max_size=30)
    | st.text(alphabet="udx* ", max_size=6)
    | LONG_JUNCTIONS,
    st.sampled_from([[], ["--directed"]]),
).map(lambda c: ["mcurve", c[0], *c[1]])


def _exits(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing the argument list
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=250, deadline=None, derandomize=True)
@given(st.one_of(ELEMENT_CALLS, STONE_CALLS, JUNCTION_CALLS, BUDGET_CALLS))
def test_every_input_answers_or_exits_2_3_or_4(argv):
    start = time.perf_counter()
    code, out, err = _exits(argv)
    assert time.perf_counter() - start < 10, argv
    assert code in (0, 2, 3, 4), argv
    if code == 0:
        json.loads(out)
    else:
        assert out == "" and err, argv
