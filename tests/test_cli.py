import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgakit import Alphabet, build_exec_mechanism, parse_program, parse_thread, print_program
from pgakit.cli import EXIT_FAIL, EXIT_OVERFLOW, EXIT_PARSE, main
from pgakit.properties import PROPERTIES, draw_cases


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_normalize_canonical(capsys):
    code, out, _ = run(capsys, "normalize", "f.a; (f.b; f.a)*")
    assert code == 0
    assert out.strip() == "(f.a; f.b)*"


def test_normalize_shifts(capsys):
    code, out, _ = run(capsys, "normalize", "--shifts", "~; #2; !")
    assert code == 0
    assert out.strip() == "#3; !; #0"
    # CI runs this one with the installed command too
    code, out, _ = run(capsys, "normalize", "--shifts", "f.a; ~; ~; (~)*")
    assert (code, out) == (0, "f.a; (#0)*\n")


def test_normalize_reads_file(tmp_path, capsys):
    f = tmp_path / "prog.pga"
    f.write_text("f.a; !\n")
    code, out, _ = run(capsys, "normalize", str(f))
    assert code == 0
    assert out.strip() == "f.a; !"


def test_unreadable_input_is_config_error(tmp_path, capsys):
    # a directory is taken as program text; a file that is not UTF-8 fails,
    # and so does `--in=--`, which argparse reads as no value
    assert run(capsys, "normalize", str(tmp_path))[0] == EXIT_PARSE
    assert run(capsys, "normalize", "--in=--")[0] == EXIT_PARSE
    f = tmp_path / "prog.bin"
    f.write_bytes(b"\xff\xfe")
    code, _, err = run(capsys, "normalize", str(f))
    assert code == EXIT_PARSE and err.startswith("error: cannot read")


def test_extract_prints_thread(capsys):
    code, out, _ = run(capsys, "extract", "f.a; !")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].endswith("f.a <X1>") or "f.a" in lines[0]
    assert any(line.endswith("= S") for line in lines)


def test_extract_dot(capsys):
    code, out, _ = run(capsys, "extract", "--dot", "f.a; !")
    assert code == 0
    assert out.startswith("digraph")


def test_extract_modes_share_state_names(capsys):
    for mode in ("--alt", "--via-counter"):
        code, out, _ = run(capsys, "extract", mode, "+f.a; ~; #0; !")
        assert code == 0
        assert out.startswith("X0 = "), mode


def test_extract_alt_of_a_zero_jump(capsys):
    # guarded #0 deadlocks at counter zero, else counts down; the end of the
    # program reads as #0 too.  CI runs this with the installed command.
    code, out, _ = run(capsys, "extract", "--alt", "#0")
    assert code == 0
    assert out == ("X0 = <X1> cnt.isz <X2>\nX1 = D\nX2 = <X3> cnt.dec <X3>\n"
                   "X3 = <X4> cnt.isz <X2>\nX4 = <X1> cnt.isz <X2>\n")


def test_extract_via_counter(capsys):
    # shifts before a #0, in the prefix and in the period.  CI runs this
    # with the installed command.
    code, out, _ = run(capsys, "extract", "--via-counter",
                       "+f.a; ~; #0; f.b; (-f.b; ~; ~; #0; f.a; !)*")
    assert code == 0
    assert out == ("X0 = <X1> f.a <X2>\nX1 = <X3> f.b <X3>\nX2 = <X3> f.b <X3>\n"
                   "X3 = <X4> f.b <X5>\nX4 = <X6> f.a <X6>\nX5 = S\nX6 = S\n")


def test_bisim_programs(capsys):
    code, out, _ = run(capsys, "bisim", "--programs", "f.a; ~", "f.a; #1; #0")
    assert code == 0
    assert out.strip() == "bisimilar"


def test_bisim_detects_difference(capsys):
    code, out, _ = run(capsys, "bisim", "--programs", "f.a; !", "f.b; !")
    assert code == 1
    assert out.strip() == "not-bisimilar"


def test_a_leading_dash_is_read_as_input(capsys, tmp_path, monkeypatch):
    # a program that starts with a negative test, as text, a file or --in=
    want = run(capsys, "extract", "--in=-f.a; !")
    assert want[0] == 0
    assert run(capsys, "extract", "-f.a;!") == run(capsys, "extract", "--in", "-f.a;!") == want
    monkeypatch.chdir(tmp_path)
    (tmp_path / "-p.pga").write_text("-f.a; !\n")
    assert run(capsys, "extract", "-p.pga") == want
    assert run(capsys, "extract", "-f.a; !", "--dot")[1].startswith("digraph")
    assert run(capsys, "mechanism", "-f.a")[0] == 0
    assert run(capsys, "normalize", "-f.a") == (0, "-f.a\n", "")
    assert run(capsys, "bisim", "--programs", "-f.a; f.b", "+f.a; f.b") == (
        1, "not-bisimilar\n", "")
    assert run(capsys, "bisim", "--programs", "-f.a; !", "-p.pga") == (0, "bisimilar\n", "")
    # options, help and negative numbers keep their meaning
    assert run(capsys, "extract", "-f.a", "--alt")[1] == run(capsys, "extract", "--alt", "-f.a")[1]
    for argv, code in ((["extract", "-h"], 0), (["extract", "--frob", "-f.a"], 2),
                       (["verify", "--theorem", "1", "-f.a"], 2)):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code, argv
    assert capsys.readouterr().err.endswith("error: unrecognized arguments: -f.a\n")
    assert run(capsys, "verify", "--theorem", "1", "--count", "-4")[0] == EXIT_PARSE


def test_bisim_reads_stdin_once(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("x = S"))
    code, out, err = run(capsys, "bisim", "-", "-")
    assert (code, out) == (EXIT_PARSE, "")
    assert err == "error: '-' (stdin) can be given only once\n"
    assert run(capsys, "bisim", "-", "y = S") == (0, "bisimilar\n", "")


def test_bisim_threads(capsys):
    code, out, _ = run(capsys, "bisim", "x = S", "y = S")
    assert code == 0


def test_compile(capsys):
    code, out, _ = run(capsys, "compile", "x = <x> f.a <x>")
    assert code == 0
    assert out.strip() == "(f.a; #2; #0)*"


def test_compile_pgajs0(capsys):
    code, out, _ = run(capsys, "compile", "--pgajs0", "x = <x> f.a <x>")
    assert code == 0
    assert out.strip() == "(f.a; ~; ~; #0; #0)*"


@pytest.mark.parametrize("m", [0, 1, 3])
def test_mechanism_reads_back_as_the_control(capsys, m):
    program = "; ".join([f"f.m{i}" for i in range(m)] + ["!"])
    code, out, _ = run(capsys, "mechanism", program)
    assert code == 0
    assert out.startswith(f"# m = {m} basics, {16 * m + 16} states\n")
    expected = build_exec_mechanism(Alphabet.from_sequence(parse_program(program)))
    assert parse_thread(out) == expected


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "normalize", "f.a;;")
    assert code == 2
    assert "error" in err


def test_overflow_exit_code(capsys):
    code, _, err = run(capsys, "normalize", f"#{2**63}")
    assert code == 3


def test_precondition_exit_code(capsys):
    # extraction refuses raw shifts only through the plain path; the verify
    # single-case path rejects non-#0 jumps
    code, _, err = run(capsys, "verify", "--theorem", "2", "--in", "#2; !")
    assert code == 4


def test_compile_error_exit_code(capsys):
    code, _, err = run(capsys, "compile", "x = tau <y>\ny = S")
    assert code == 6


def test_compile_refuses_actions_it_cannot_print(capsys):
    # f.a-b is a thread action, but `f.a-b` is not a program instruction
    for flags in ([], ["--pgajs0"]):
        code, out, err = run(capsys, "compile", *flags, "s0 = <s1> f.a-b <s0>\ns1 = S")
        assert code == 6 and out == ""
        assert "f.a-b" in err


def test_missing_input_is_config_error(capsys):
    code, _, err = run(capsys, "normalize")
    assert code == 2


def test_verify_corpus(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "1", "--count", "25", "--seed", "7")
    assert code == 0
    assert out.strip() == "25/25 pass"


def test_verify_corpus_exec(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "exec", "--count", "10", "--seed", "3")
    assert code == 0
    assert out.strip() == "10/10 pass"


def test_verify_roundtrip(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "roundtrip", "--count", "10", "--seed", "3")
    assert code == 0


def test_verify_single_case(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "2", "--in", "(+f.a; ~; #0; !)*")
    assert code == 0
    assert out.strip() == "pass"


def test_verify_names_its_first_failure(capsys, monkeypatch):
    # a check that fails on programs of more than one instruction
    prop = replace(PROPERTIES["transform"], check=lambda p: len(p) < 2)
    monkeypatch.setitem(PROPERTIES, "transform", prop)
    code, out, _ = run(capsys, "verify", "--theorem", "1", "--count", "5", "--seed", "7")
    drawn = [p for p in draw_cases(prop, 7, 5) if len(p) >= 2]
    assert code == EXIT_FAIL
    assert out == f"{5 - len(drawn)}/5 pass\nfirst failure: {print_program(drawn[0])}\n"


def test_verify_json(capsys):
    code, out, _ = run(
        capsys, "verify", "--theorem", "2", "--count", "5", "--seed", "1", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] == 5 and doc["passed"] == 5
    assert len(doc["cases"]) == 5
    assert all(c["verdict"] == "pass" for c in doc["cases"])


def test_verify_json_single(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "1", "--in", "#3; !", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] == 1


@pytest.mark.parametrize("theorem", ["1", "2", "exec", "roundtrip"])
def test_verify_prints_cases_it_can_read_back(capsys, theorem):
    code, out, _ = run(
        capsys, "verify", "--theorem", theorem, "--count", "1", "--seed", "3", "--json"
    )
    case = json.loads(out)["cases"][0]
    again, out, _ = run(capsys, "verify", "--theorem", theorem, "--in", case["program"], "--json")
    assert again == code
    assert json.loads(out)["cases"][0]["verdict"] == case["verdict"]


def test_closed_stdout_is_a_documented_exit(monkeypatch):
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["verify", "--theorem", "1", "--count", "30", "--json"]) == EXIT_PARSE
    assert main(["normalize", "f.a; !"]) == EXIT_PARSE


def test_verify_refuses_jumps_too_long_to_expand(capsys):
    code, out, err = run(capsys, "verify", "--theorem", "1", "--in", "#9999999999; !")
    assert code == EXIT_OVERFLOW
    assert out == "" and err.startswith("error: expanding the jumps")


def test_verify_rejects_max_len_below_one(capsys):
    for args in (("--max-len", "-3"), ("--count", "0", "--max-len", "1000001")):
        code, out, err = run(capsys, "verify", "--theorem", "1", *args)
        assert code == EXIT_PARSE
        assert out == "" and err.startswith("error: --max-len")


def test_verify_rejects_negative_count(capsys):
    code, out, err = run(capsys, "verify", "--theorem", "1", "--count", "-4")
    assert code == EXIT_PARSE
    assert out == "" and err.startswith("error: --count")


# Program text as a user may type it, any text at all, and a thread whose
# action may not be a program basic; any of them with a leading "-", as a
# program that starts with a negative test has.
_TEXTS = (
    st.text(alphabet=st.sampled_from(list("f.ab;()*!~#+-019 \n/=<>SD")), max_size=40)
    | st.text(max_size=40)
    | st.text(alphabet=st.sampled_from(list("fab.-+!#~0(;*")), min_size=1, max_size=6).map(
        lambda m: f"s0 = <s1> f.{m} <s0>\ns1 = S"
    )
)
_TEXTS = _TEXTS | _TEXTS.map(lambda text: "-" + text)


@settings(max_examples=300, deadline=None)
@given(_TEXTS, _TEXTS)
def test_any_text_ends_in_a_documented_exit(a, b):
    for argv in (
        ["normalize", f"--in={a}"],
        ["normalize", "--shifts", f"--in={a}"],
        ["extract", f"--in={a}"],
        ["extract", "--alt", f"--in={a}"],
        ["extract", "--via-counter", f"--in={a}"],
        ["compile", f"--in={a}"],
        ["compile", "--pgajs0", "--abstract", f"--in={a}"],
        ["mechanism", f"--in={a}"],
        ["bisim", "--programs", "--", a, b],
        *(["verify", "--theorem", t, f"--in={a}"] for t in ("1", "2", "exec", "roundtrip")),
    ):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sys, "stdin", io.StringIO(b))
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = main(argv)
                assert code in range(7)
                # a compiled program reads back
                if argv[0] == "compile" and code == 0:
                    assert main(["normalize", f"--in={out.getvalue()}"]) == 0, out.getvalue()
    # as positional input; a text that is an option, such as --alt or -h,
    # is read as that option, and argparse exits on help or a usage error
    for argv in (["extract", a], ["bisim", "--programs", a, b]):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sys, "stdin", io.StringIO(b))
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
                assert code in range(7)
