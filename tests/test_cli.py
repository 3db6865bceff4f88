from __future__ import annotations

import argparse
import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rkcodes.cli import build_parser, main


def run(capsys, *argv: str) -> tuple[int, str]:
    rc = main(list(argv))
    return rc, capsys.readouterr().out


def test_eval_text(capsys):
    rc, out = run(capsys, "eval", "--k", "2", "b")
    assert rc == 0
    assert out == "b: unit=True character=-1 hom_weight=4 residue=1\n"


def test_eval_op_mul(capsys):
    rc, out = run(capsys, "eval", "--k", "2", "--op", "mul", "b", "7")
    assert rc == 0
    assert out.startswith("5:")


def test_eval_json(capsys):
    rc, out = run(capsys, "eval", "--k", "1", "--format", "json", "3")
    rec = json.loads(out)
    assert rec == {"element": "3", "unit": True, "character": 1,
                   "hom_weight": 1, "residue": 1}


def test_gray_forward_and_invert(capsys):
    rc, out = run(capsys, "gray", "--k", "2", "b")
    assert rc == 0 and out == "b -> 10100101\n"
    rc, out = run(capsys, "gray", "--k", "1", "--invert", "10")
    assert rc == 0 and out == "10 -> 3\n"


def test_gray_invert_bad_length(capsys):
    rc, _ = run(capsys, "gray", "--k", "2", "--invert", "101")
    assert rc == 2


def test_image_text(capsys):
    rc, out = run(capsys, "image", "--k", "2", "--lambda", "1", "--ell", "1",
                  "--m", "2", "--gen", "11")
    assert rc == 0
    assert out == "[16,4,8] self-orthogonal 8-QC\n"


def test_image_json_schema(capsys):
    rc, out = run(capsys, "image", "--k", "2", "--gen", "088", "--format", "json")
    rec = json.loads(out)
    assert rec["image"]["length"] == 24
    assert rec["image"]["dimension"] == 2
    assert rec["image"]["min_distance"] == 16
    assert rec["flags"] == {"self_orthogonal": True, "qc_index": 8}


def test_build(capsys):
    rc, out = run(capsys, "build", "--k", "1", "--lambda", "3", "--gen", "0u|0u|uu")
    assert rc == 0
    assert "|C|=2^2" in out and "qt_invariant=True" in out


def test_wd(capsys):
    rc, out = run(capsys, "wd", "--k", "1", "--lambda", "3", "--gen", "0u|0u|uu")
    assert rc == 0 and out == "1 + 3z^8\n"
    rc, out = run(capsys, "wd", "--k", "1", "--lambda", "3", "--gen", "0u|0u|uu",
                  "--format", "json")
    rec = json.loads(out)
    assert rec["matches_homogeneous"] is True
    assert rec["weight_enumerator"] == [[0, 1], [8, 3]]


def test_bounds(capsys):
    rc, out = run(capsys, "bounds", "--k", "2", "--gen", "231|f87|bc7")
    assert rc == 0
    assert "d_hom=32" in out and "ok=True" in out


def test_bounds_text_prints_a_dash_for_a_vacuous_bound(capsys):
    # the residue code of (u) over R_1 is zero, so there is no residue distance
    rc, out = run(capsys, "bounds", "--k", "1", "--gen", "u")
    assert rc == 0
    assert out == "residue_d=- d_hom=2 bounds=-..- generator_bound=- ok=True\n"
    rc, out = run(capsys, "bounds", "--k", "1", "--gen", "u", "--format", "json")
    rec = json.loads(out)
    assert rec["residue_distance"] is None and rec["lower_bound"] is None


def test_image_text_prints_a_dash_for_a_missing_distance(capsys):
    # the zero code has no minimum distance; text shows '-' as bounds does, JSON null
    rc, out = run(capsys, "image", "--k", "2", "--gen", "0")
    assert rc == 0
    assert out == "[8,0,-] self-orthogonal 8-QC\n"
    rc, out = run(capsys, "image", "--k", "2", "--gen", "0", "--format", "json")
    assert json.loads(out)["image"]["min_distance"] is None


def test_build_text_prints_one_tuple_per_generator(capsys):
    rc, out = run(capsys, "build", "--k", "1", "--gen", "0u|0u", "--gen", "11|11")
    assert rc == 0
    assert out.startswith("(0u|0u), (11|11) over R_1: ")
    rc, out = run(capsys, "build", "--k", "1", "--lambda", "3", "--gen", "0u|0u|uu")
    assert out.startswith("(0u|0u|uu) over R_1: ")


def test_stdin_batch(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("11\n088\n"))
    rc, out = run(capsys, "image", "--k", "2", "--gen", "-")
    assert rc == 0
    assert out.splitlines() == [
        "[16,4,8] self-orthogonal 8-QC",
        "[24,2,16] self-orthogonal 8-QC",
    ]


def test_verify_tables_csv_and_exit_codes(capsys):
    rc, out = run(capsys, "verify-tables", "--tables", "1,2", "--format", "csv")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("table,")
    assert len(lines) == 1 + 21 + 14
    assert all("MATCH" in line for line in lines[1:])
    # table 3 contains the known published misprint -> verification mismatch
    rc, out = run(capsys, "verify-tables", "--tables", "3")
    assert rc == 1
    assert sum("MISMATCH" in line for line in out.splitlines()) == 1


def test_search_stream_and_jobs_determinism(capsys):
    args = ["search", "--k", "1", "--lambda", "3", "--ell", "3", "--m", "2",
            "--seed", "7", "--format", "json"]
    rc, out1 = run(capsys, *args, "--jobs", "1")
    assert rc == 0
    rc, out4 = run(capsys, *args, "--jobs", "4")
    assert rc == 0
    assert out1 == out4
    first = json.loads(out1.splitlines()[0])
    assert first["provenance"]["seed"] == 7


def test_search_text_lines_start_with_their_generator(capsys):
    rc, out = run(capsys, "search", "--k", "1", "--lambda", "3", "--ell", "3", "--m", "2")
    assert rc == 0
    assert out.splitlines() == [
        "(uu|uu|uu) [12,1,12] self-orthogonal",
        "(0u|0u|uu) [12,2,8] self-orthogonal",
        "(0u|11|11) [12,3,6] self-orthogonal",
        "(01|11|1u) [12,4,6]",
    ]


def test_usage_errors(capsys):
    rc, _ = run(capsys, "eval", "q")  # missing --k
    assert rc == 2
    rc, _ = run(capsys, "eval", "--k", "2", "zz")  # bad element
    assert rc == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


EXIT_CASES = [  # (argv, exit code): work that is empty, malformed or all over budget
    (("search", "--k", "1", "--ell", "0", "--m", "2"), 2),
    (("search", "--k", "1", "--ell", "1", "--m", "0"), 2),
    (("search", "--k", "1", "--ell", "1", "--m", "2", "--mode", "random", "--samples", "0"), 2),
    (("verify-tables", "--tables", "9"), 2),
    (("verify-tables", "--tables", ","), 2),
    (("verify-tables", "--tables", "x"), 2),
    (("search", "--k", "1", "--ell", "1", "--m", "2", "--budget", "0"), 3),
    (("search", "--k", "1", "--ell", "1", "--m", "2", "--jobs", "0"), 2),
    (("search", "--k", "1", "--ell", "1", "--m", "2", "--jobs", "-2"), 2),
    (("image", "--k", "4", "--gen", "1"), 2),
    (("wd", "--k", "4", "--gen", "1", "--notation", "generic"), 2),
    (("gray", "--k", "4", "1"), 2),
    (("image", "--k", "2", "--gen", "11", "--budget", "-5"), 2),
    (("search", "--k", "1", "--ell", "1", "--m", "2", "--budget", "-1"), 2),
    (("search", "--k", "1", "--ell", "30", "--m", "30"), 3),  # 2^1800 tuples over the cap
    (("search", "--k", "1", "--lambda", "u", "--ell", "1", "--m", "2", "--budget", "0"), 2),
    (("search", "--k", "1", "--ell", "1", "--m", "1", "--mode", "random", "--samples", "1",
      "--seed", "2"), 2),  # the only sample is the zero tuple
    (("image", "--k", "7", "--gen", "1"), 2),
    (("search", "--k", "5", "--ell", "1", "--m", "2"), 2),
    (("search", "--k", "2", "--ell", "1", "--m", "8", "--budget", "-1"), 2),  # before the cap
]


@pytest.mark.parametrize(
    "argv, code", EXIT_CASES, ids=[f"argv{i}" for i in range(len(EXIT_CASES))]
)
def test_empty_or_malformed_work_is_a_usage_error(capsys, argv, code):
    rc = main(list(argv))
    captured = capsys.readouterr()
    assert rc == code
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1 and len(captured.err) <= 100
    for internal in ("range()", "int()", "Traceback", "allow_above_k_max"):
        assert internal not in captured.err


@pytest.mark.parametrize("argv", [
    ("image", "--k", "7", "--gen", "1"),
    ("wd", "--k", "0", "--gen", "1"),
    ("search", "--k", "5", "--ell", "1", "--m", "2"),
])
def test_gray_commands_report_the_gray_k_range(capsys, argv):
    assert main(list(argv)) == 2
    assert capsys.readouterr().err == f"error: Gray images exist for k in 1..3, got k={argv[2]}\n"


OPTIONS = {  # what each command's handler reads; any other option is refused
    "eval": {"k", "notation", "format", "op", "elements"},
    "gray": {"k", "notation", "format", "invert", "args"},
    "build": {"k", "lambda", "ell", "m", "notation", "format", "gen"},
    "image": {"k", "lambda", "ell", "m", "notation", "format", "gen", "budget"},
    "wd": {"k", "lambda", "ell", "m", "notation", "format", "gen", "budget"},
    "bounds": {"k", "lambda", "ell", "m", "notation", "format", "gen", "budget"},
    "verify-tables": {"format", "budget", "tables"},
    "search": {"k", "lambda", "ell", "m", "notation", "format", "budget",
               "seed", "jobs", "mode", "samples"},
}


def test_each_command_declares_only_what_it_reads():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    declared = {
        name: {
            a.option_strings[-1].lstrip("-") if a.option_strings else a.dest
            for a in parser._actions
            if not isinstance(a, argparse._HelpAction)
        }
        for name, parser in sub.choices.items()
    }
    assert declared == OPTIONS
    assert sum(map(len, declared.values())) == 55


@pytest.mark.parametrize("argv, refused", [
    (("eval", "--k", "1", "u", "--jobs", "2"), "--jobs"),
    (("gray", "--k", "1", "--seed", "1", "u"), "--seed"),
    (("build", "--k", "1", "--gen", "u", "--budget", "3"), "--budget"),
    (("image", "--k", "1", "--gen", "u", "--seed", "1"), "--seed"),
    (("verify-tables", "--k", "2"), "--k"),
    (("verify-tables", "--notation", "generic"), "--notation"),
])
def test_commands_refuse_options_they_do_not_read(capsys, argv, refused):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"unrecognized arguments: {refused}" in captured.err


@pytest.mark.parametrize("command", ["image", "wd", "bounds", "build"])
def test_empty_stdin_batch_is_a_usage_error(capsys, monkeypatch, command):
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    rc = main([command, "--k", "2", "--gen", "-"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: no generator lines on stdin\n"


def test_closed_stdin_batch_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", None)  # what Python sets when file descriptor 0 is closed
    rc = main(["image", "--k", "2", "--gen", "-"])
    assert (rc, capsys.readouterr().err) == (2, "error: no generator lines on stdin\n")


# the symbols of every notation, the generator separators and a few strays
GENERATOR_ALPHABET = "0123456789abcdefuU|,+() -z"
ELEMENTS = {1: "013u", 2: "0123456789abcdef", 3: ["0", "1", "u1", "u2", "u1u2", "1+u3"]}
UNITS = {1: ["1", "3"], 2: ["1", "b", "f"], 3: ["1", "1+u1", "1+u2+u1u3"]}


@st.composite
def code_command_argv(draw) -> list[str]:
    """argv of build, image, wd or bounds: a valid command, or one with a single fault.

    A fault leaves out or spoils one option, or replaces the generators with
    stray text or "-" (stdin).  An --ell, --m or --notation fault may also
    happen to give the right value.
    """
    k, ell, m = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    sep = "," if k == 3 else ""
    block = st.lists(st.sampled_from(ELEMENTS[k]), min_size=m, max_size=m).map(sep.join)
    tuples = st.lists(block, min_size=ell, max_size=ell).map("|".join)
    gens = draw(st.lists(tuples, min_size=1, max_size=2))
    command = draw(st.sampled_from(["build", "image", "wd", "bounds"]))
    options = {"--k": k, "--lambda": draw(st.sampled_from(UNITS[k]))}
    if command != "build":  # a small budget keeps every enumeration small
        options["--budget"] = draw(st.integers(-1, 12))
    fault = draw(st.sampled_from([None, "k", "lambda", "ell", "m", "notation", "gen", "stdin"]))
    if fault == "k":
        options["--k"] = draw(st.sampled_from([None, 0, 4, 7, "x"]))
    elif fault == "lambda":
        options["--lambda"] = draw(st.sampled_from(["u", "0", "2", "x", "1+u9", ""]))
    elif fault in ("ell", "m"):
        options[f"--{fault}"] = draw(st.integers(0, 4))
    elif fault == "notation":
        options["--notation"] = draw(st.sampled_from(["r1", "hex", "generic"]))
    elif fault == "gen":
        gens = draw(st.lists(st.text(GENERATOR_ALPHABET, max_size=8), min_size=1, max_size=2))
    elif fault == "stdin":
        gens = ["-"]
    argv = [command, "--format", draw(st.sampled_from(["text", "json", "csv"]))]
    for flag, value in options.items():
        if value is not None:
            argv += [flag, str(value)]
    for gen in gens:
        argv += ["--gen", gen]
    return argv


@settings(max_examples=60, deadline=None)
@given(code_command_argv())
def test_code_commands_keep_the_exit_code_contract(argv):
    out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = None  # closed: --gen - reads stdin
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as exc:  # argparse's usage errors
                rc = exc.code
    finally:
        sys.stdin = stdin
    assert rc in (0, 1, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
    assert rc != 0 or out.getvalue(), argv


def test_budget_exit_code(capsys):
    rc, _ = run(capsys, "image", "--k", "2", "--gen", "11", "--budget", "3")
    assert rc == 3


def test_build_is_not_capped_by_the_budget(capsys):
    # 2^28 codewords, over the default 2^24 budget: build enumerates none of them.
    rc, out = run(capsys, "build", "--k", "2", "--gen", "1000000", "--format", "json")
    assert rc == 0
    rec = json.loads(out)
    assert rec["f2_dimension"] == 28 and rec["qt_invariant"] is True


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "rkcodes", "eval", "--k", "1", "u"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("u:")
