import json

import pytest

from modtwist import cli
from modtwist.cli import main
from modtwist.errors import VerificationError
from modtwist.factorization import pair
from modtwist.psl2 import R


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
    monkeypatch.setattr(cli, "canonical_2factorizations", lambda g: [pair(R, R)])
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


def test_necklace_stats(capsys):
    code, out, _ = run_cli(capsys, "necklace", "stats", "OOOOOSSSSS")
    payload = json.loads(out)
    assert payload["betti"] == 24
    assert payload["essential"] == 2


def test_necklace_budget(capsys, monkeypatch):
    monkeypatch.setenv("MODTWIST_BUDGET", "100")
    code, _, err = run_cli(capsys, "necklace", "enumerate", "--k", "1", "--w", "0")
    assert code == 4
    assert "budget" in err


def test_mcurve(capsys):
    code, out, _ = run_cli(capsys, "mcurve", ".ud.")
    payload = json.loads(out)
    assert payload["flat_diagram"] == "OOOOOSSSSS"
    assert payload["classes_sharing_real_part"] == 2
    assert payload["w"] == 2


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
