"""Command-line front end.

Exit codes are stable: 0 success or bisimilar, 1 not-bisimilar or property
failure, 2 parse or configuration error, or a stdout closed by its reader,
3 jump-offset overflow, 4 violated precondition (shift present, non-#0 jump),
5 state budget exceeded, 6 uncompilable thread input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .altsem import NotPgajs0Error, behaviour_via_counter, extract_alt
from .compiler import CompileError, compile_spec, corollary1_pipeline
from .execmech import Alphabet, build_exec_mechanism
from .extraction import extract_pgajs
from .properties import PROPERTIES, draw_cases
from .services import BudgetExceededError
from .syntax import (
    EXPANSION_LIMIT,
    JumpOverflowError,
    ProgramError,
    ShiftPresentError,
    normalize_shifts,
    parse_program,
    print_program,
)
from .threads import (
    ThreadError,
    abstract_tau,
    bisimilar,
    parse_thread,
    print_thread,
    relabel,
    to_dot,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_OVERFLOW = 3
EXIT_PRECONDITION = 4
EXIT_BUDGET = 5
EXIT_COMPILE = 6


def _read_input(value: str) -> str:
    """Input resolution: `-` reads stdin, the path of a file reads the file,
    anything else is taken literally."""
    if not isinstance(value, str):
        # argparse reads `--in=--` as an empty list of values
        raise ConfigError("'--' is not an input")
    try:
        if value == "-":
            return sys.stdin.read()
        if os.path.isfile(value):
            with open(value, "r", encoding="utf-8") as fh:
                return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {value!r}: {exc}") from exc
    return value


def _program_arg(args) -> str:
    if getattr(args, "in_", None) is not None:
        return _read_input(args.in_)
    if getattr(args, "input", None) is not None:
        return _read_input(args.input)
    raise ConfigError("no input given; pass text, a file, or --in")


class ConfigError(Exception):
    """Configuration problem surfaced as exit code 2."""


def cmd_normalize(args) -> int:
    p = parse_program(_program_arg(args))
    if args.shifts:
        p = normalize_shifts(p)
    print(print_program(p))
    return EXIT_OK


def cmd_extract(args) -> int:
    p = parse_program(_program_arg(args))
    if args.alt:
        spec = relabel(extract_alt(p))
    elif args.via_counter:
        spec = relabel(behaviour_via_counter(p))
    else:
        spec = extract_pgajs(p)
    print(to_dot(spec) if args.dot else print_thread(spec))
    return EXIT_OK


def cmd_bisim(args) -> int:
    if args.a == args.b == "-":
        raise ConfigError("'-' (stdin) can be given only once")
    if args.programs:
        a = extract_pgajs(parse_program(_read_input(args.a)))
        b = extract_pgajs(parse_program(_read_input(args.b)))
    else:
        a = parse_thread(_read_input(args.a))
        b = parse_thread(_read_input(args.b))
    if bisimilar(a, b):
        print("bisimilar")
        return EXIT_OK
    print("not-bisimilar")
    return EXIT_FAIL


def cmd_compile(args) -> int:
    spec = parse_thread(_program_arg(args))
    if args.abstract:
        spec = abstract_tau(spec)
    out = corollary1_pipeline(spec) if args.pgajs0 else compile_spec(spec)
    print(print_program(out))
    return EXIT_OK


def cmd_mechanism(args) -> int:
    alphabet = Alphabet.from_sequence(parse_program(_program_arg(args)))
    mech = build_exec_mechanism(alphabet)
    print(f"# m = {len(alphabet.basics)} basics, {len(mech.states)} states")
    print(print_thread(mech))
    return EXIT_OK


# `--theorem` values and the properties they name
_THEOREMS = {"1": "transform", "2": "counter", "exec": "exec", "roundtrip": "roundtrip"}


def cmd_verify(args) -> int:
    if args.count < 0:
        raise ConfigError(f"--count must be at least 0, not {args.count}")
    if args.max_len is not None and not 1 <= args.max_len <= EXPANSION_LIMIT:
        raise ConfigError(
            f"--max-len must be from 1 to {EXPANSION_LIMIT}, not {args.max_len}"
        )
    prop = PROPERTIES[_THEOREMS[args.theorem]]
    if args.in_ is not None:
        text = _read_input(args.in_).strip()
        seed, results = None, [(text, prop.check(prop.read(text)))]
    else:
        drawn = draw_cases(prop, args.seed, args.count, args.max_len)
        seed, results = args.seed, [(prop.show(c), prop.check(c)) for c in drawn]
    passed = sum(ok for _, ok in results)
    failures = [text for text, ok in results if not ok]
    if args.json:
        cases = [
            {"case": i, "verdict": "pass" if ok else "fail", "program": t, "seed": seed}
            for i, (t, ok) in enumerate(results)
        ]
        total = len(results)
        print(json.dumps({"theorem": args.theorem, "cases": cases,
                          "passed": passed, "total": total}))
    elif args.in_ is not None:
        print(f"fail: {failures[0]}" if failures else "pass")
    else:
        print(f"{passed}/{len(results)} pass")
        if failures:
            print(f"first failure: {failures[0]}")
    return EXIT_FAIL if failures else EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="pgakit",
        description="Instruction sequences, thread extraction, and services",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("input", nargs="?", help="program text, file, or -")
        p.add_argument("--in", dest="in_", help="input text, file, or -")

    p = sub.add_parser("normalize", help="print the canonical form")
    add_input(p)
    p.add_argument("--shifts", action="store_true", help="fold jump-shifts away")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("extract", help="print the extracted thread")
    add_input(p)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--alt", action="store_true", help="two-mode counter form")
    mode.add_argument(
        "--via-counter",
        action="store_true",
        help="two-mode form composed with a counter and abstracted",
    )
    p.add_argument("--dot", action="store_true", help="emit GraphViz")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("bisim", help="compare two threads (or programs)")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument(
        "--programs",
        action="store_true",
        help="treat the two inputs as programs and compare extractions",
    )
    p.set_defaults(func=cmd_bisim)

    p = sub.add_parser("compile", help="compile a thread spec to a program")
    add_input(p)
    p.add_argument(
        "--pgajs0", action="store_true", help="expand jumps into shifts plus #0"
    )
    p.add_argument(
        "--abstract",
        action="store_true",
        help="remove silent steps instead of failing on them",
    )
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser(
        "mechanism", help="print the execution mechanism over a program's basics"
    )
    add_input(p)
    p.set_defaults(func=cmd_mechanism)

    p = sub.add_parser("verify", help="run a property suite")
    p.add_argument("--theorem", required=True, choices=list(_THEOREMS))
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--max-len",
        type=int,
        default=None,
        help="max program length (or max states for roundtrip),"
        f" 1 to {EXPANSION_LIMIT}",
    )
    p.add_argument("--in", dest="in_", help="verify one given input instead")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)
    return top


# The exit code of each error a command raises; the first match counts.
_ERROR_EXITS = (
    (JumpOverflowError, EXIT_OVERFLOW),
    ((NotPgajs0Error, ShiftPresentError), EXIT_PRECONDITION),
    (BudgetExceededError, EXIT_BUDGET),
    (CompileError, EXIT_COMPILE),
    ((ProgramError, ThreadError, ConfigError), EXIT_PARSE),
)


def _parse(parser: argparse.ArgumentParser, argv: Optional[List[str]]):
    """parser.parse_args(argv), with every argument that starts with one "-"
    read as a value, such as the program `-f.a`, which argparse would take
    for an unknown option; `-` (stdin) and `-h` keep their meaning.  Such an
    argument is passed with a space in front, which makes it a value to
    argparse, and the value is put back as it was given."""
    argv = sys.argv[1:] if argv is None else list(argv)
    given = {" " + a: a for a in argv
             if a.startswith("-") and not a.startswith("--") and a not in ("-", "-h")}
    args, extra = parser.parse_known_args([" " + a if " " + a in given else a for a in argv])
    if extra:  # as parse_args says it, with the arguments as given
        parser.error("unrecognized arguments: " + " ".join(given.get(a, a) for a in extra))
    for name, value in vars(args).items():
        if isinstance(value, str) and value in given:
            setattr(args, name, given[value])
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(_build_parser(), argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout.  Point the descriptor at devnull, so
        # that the flush at interpreter exit does not fail again.
        if sys.stdout is sys.__stdout__:
            with open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        return EXIT_PARSE
    except (ProgramError, ThreadError, ConfigError, BudgetExceededError,
            CompileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in _ERROR_EXITS if isinstance(exc, kinds))


if __name__ == "__main__":
    sys.exit(main())
