import json
import re
import shlex
from pathlib import Path

import pytest

from cdiffkit import build_field, from_monomial, save_table
from cdiffkit.cli import _COMMANDS, build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_field_info(capsys):
    code, out, _ = run(capsys, "field-info", "--p", "3", "--n", "2")
    assert code == 0
    assert json.loads(out) == {"p": 3, "n": 2, "modulus": [2, 1, 1]}


def test_field_info_custom_modulus(capsys):
    code, out, _ = run(capsys, "field-info", "--p", "2", "--n", "3",
                       "--modulus", "1,1,0,1")
    assert code == 0
    assert json.loads(out)["modulus"] == [1, 1, 0, 1]


def test_uniformity_command(capsys):
    code, out, _ = run(capsys, "uniformity", "--p", "2", "--n", "3",
                       "--function", "monomial:3", "--c", "7",
                       "--a-convention", "nonzero")
    assert code == 0
    blob = json.loads(out)
    assert blob["payload"]["uniformity"] == 3
    assert blob["payload"]["witness_a"] == 1
    assert blob["field"]["modulus"] == [1, 1, 0, 1]
    assert blob["a_convention"] == "nonzero"


def test_uniformity_requires_convention(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["uniformity", "--p", "2", "--n", "3",
              "--function", "monomial:3", "--c", "7"])
    assert exc.value.code == 2


def test_spectrum_json_csv_same_numbers(capsys):
    code, out_json, _ = run(capsys, "spectrum", "--p", "2", "--n", "4",
                            "--function", "monomial:5", "--c-set", "nonzero",
                            "--a-convention", "nonzero")
    assert code == 0
    payload = json.loads(out_json)["payload"]
    code, out_csv, _ = run(capsys, "spectrum", "--p", "2", "--n", "4",
                           "--function", "monomial:5", "--c-set", "nonzero",
                           "--a-convention", "nonzero", "--format", "csv")
    assert code == 0
    rows = out_csv.strip().splitlines()[1:]
    assert len(rows) == len(payload["results"])
    for row, res in zip(rows, payload["results"]):
        c, u, wa, wb, cls = row.split(",")
        assert int(c) == res["c_rank"]
        assert int(u) == res["uniformity"]
        assert int(wa) == res["witness_a"]
        assert int(wb) == res["witness_b"]
        assert cls == res["classification"]
    assert payload["overall_max"] == 5


def test_spectrum_threads_identical_payload(capsys):
    argv = ["spectrum", "--p", "3", "--n", "3", "--function",
            "poly:10=1,6=2,2=2", "--c-set", "no01", "--a-convention",
            "include-zero"]
    code, out1, _ = run(capsys, *argv, "--threads", "1")
    code2, out2, _ = run(capsys, *argv, "--threads", "2")
    assert code == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["payload"]["overall_max"] == 5


def test_threads_below_one_exits_2(capsys):
    code, _, err = run(capsys, "spectrum", "--p", "2", "--n", "3",
                       "--function", "monomial:3", "--c-set", "nonzero",
                       "--a-convention", "nonzero", "--threads", "0")
    assert code == 2
    assert "threads" in err


def test_function_spec_inverse_and_table(tmp_path, capsys):
    spec = build_field(2, 4)
    path = tmp_path / "f.json"
    save_table(from_monomial(spec, 14), path)
    code, out, _ = run(capsys, "uniformity", "--p", "2", "--n", "4",
                       "--function", f"table:{path}", "--c", "0",
                       "--a-convention", "include-zero")
    assert code == 0
    assert json.loads(out)["payload"]["uniformity"] == 1
    code, out, _ = run(capsys, "uniformity", "--p", "2", "--n", "4",
                       "--function", "inverse", "--c", "0",
                       "--a-convention", "include-zero")
    assert json.loads(out)["payload"]["uniformity"] == 1


def test_unreadable_table_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, "uniformity", "--p", "2", "--n", "4",
                       "--function", f"table:{tmp_path / 'missing.json'}",
                       "--c", "0", "--a-convention", "include-zero")
    assert code == 2
    assert err.startswith("error: ")


def test_bad_function_spec_exits_2(capsys):
    code, _, err = run(capsys, "uniformity", "--p", "2", "--n", "3",
                       "--function", "nonsense", "--c", "1",
                       "--a-convention", "nonzero")
    assert code == 2
    assert "cannot parse" in err


def test_walsh_check_command(capsys):
    code, out, _ = run(capsys, "walsh-check", "--p", "3", "--n", "2",
                       "--function", "monomial:2", "--c", "2", "--delta", "2")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["pcn"]["equality"] is False
    assert payload["apcn"]["equality"] is True
    assert payload["convolution"]["zero"] is True
    assert payload["convolution"]["sides_equal"] is True


@pytest.mark.parametrize("argv", [
    ["walsh-check", "--p", "2", "--n", "12", "--function", "monomial:2", "--c", "2"],
    ["field-info", "--p", "2", "--n", "21"],
], ids=lambda argv: argv[0])
def test_walsh_check_size_guard_exit_3(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert "guard" in err


def test_trinomial_command(capsys):
    code, out, _ = run(capsys, "trinomial", "--p", "3", "--n", "2",
                       "--k", "1", "--a", "2", "--b", "2")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["count"] == 3
    assert payload["roots"] == [1, 3, 8]


def test_gcd_lemma_command(capsys):
    code, out, _ = run(capsys, "gcd-lemma", "--p", "3", "--k", "1", "--n", "4")
    assert code == 0
    assert json.loads(out)["gcd"] == 4


@pytest.mark.parametrize("p", ["4", "1", "9"])
def test_gcd_lemma_non_prime_exits_2(capsys, p):
    code, out, err = run(capsys, "gcd-lemma", "--p", p, "--k", "1", "--n", "1")
    assert (code, out) == (2, "")
    assert "not prime" in err


def test_verify_summary_and_strict(capsys):
    code, out, _ = run(capsys, "verify", "--claim", "T8", "--grid", "small")
    assert code == 0
    assert "Confirmed" in out
    # T4 acceptance grid contains the known stated-variant refutation
    code, out, _ = run(capsys, "verify", "--claim", "T4", "--grid", "acceptance")
    assert code == 0
    assert "REFUTED" in out
    code, _, _ = run(capsys, "verify", "--claim", "T4", "--grid", "acceptance",
                     "--strict")
    assert code == 1


def test_verify_jsonl(capsys):
    code, out, _ = run(capsys, "verify", "--claim", "T6", "--grid", "small",
                       "--format", "jsonl")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert all(line["claim"] == "T6" for line in lines)


def test_reproduce_table1_small(capsys):
    code, out, _ = run(capsys, "reproduce", "--table", "1", "--max-n", "3")
    assert code == 0
    envelope = json.loads(out.strip().splitlines()[-1])
    rows = envelope["payload"]["rows"]
    assert [r["n"] for r in rows] == [1, 2, 3]
    assert envelope["payload"]["all_match"] is True


def test_reproduce_table2_small(capsys):
    code, out, _ = run(capsys, "reproduce", "--table", "2", "--max-n", "2")
    assert code == 0
    envelope = json.loads(out.strip().splitlines()[-1])
    for row in envelope["payload"]["rows"]:
        for cell in row["cells"].values():
            assert cell["match"] is True
            assert cell["convention"]    # at least one matching convention


def test_reproduce_table2_long_rows_excluded(capsys):
    code, out, _ = run(capsys, "reproduce", "--table", "2", "--max-n", "2")
    assert code == 0
    # rows 9 and 11 stay out without --allow-long regardless of max-n
    code, out, _ = run(capsys, "reproduce", "--table", "2", "--max-n", "3")
    envelope = json.loads(out.strip().splitlines()[-1])
    assert all(r["n"] <= 3 for r in envelope["payload"]["rows"])


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--p", "2"])
    assert exc.value.code == 2


def _readme_examples():
    """The `cdiffkit ...` lines of README "Command line", continuations
    joined, each with its [optional] parts and without them."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```")[1]
    examples = []
    for line in filter(None, map(str.strip, block.replace("\\\n", " ").splitlines())):
        assert line.startswith("cdiffkit "), line
        for variant in (re.sub(r"[\[\]]", "", line), re.sub(r"\[[^]]*\]", "", line)):
            if shlex.split(variant)[1:] not in examples:
                examples.append(shlex.split(variant)[1:])
    return examples


def test_readme_examples_parse(capsys):
    # guards the README against flag drift; the quick commands also run
    examples = _readme_examples()
    assert {argv[0] for argv in examples} == set(_COMMANDS)
    for argv in examples:
        build_parser().parse_args(argv)
        if argv[0] in ("field-info", "uniformity", "walsh-check", "trinomial",
                       "gcd-lemma"):
            assert run(capsys, *argv)[0] == 0, argv
