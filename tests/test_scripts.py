"""Smoke runs of the two scripts, as separate processes."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_verify_theorems_runs_the_four_properties():
    done = _script("verify_theorems.py", "--count", "5")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["transform", "counter", "exec", "roundtrip"]
    assert all(" 5/5 pass " in line for line in lines)
    assert "peak counter" in lines[1]


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--count", "-1", "--count must be at least 0"),
        ("--max-len", "0", "--max-len must be from 1"),
        ("--max-len", "-3", "--max-len must be from 1"),
    ],
)
def test_verify_theorems_rejects_bad_sizes(flag, value, message):
    done = _script("verify_theorems.py", flag, value)
    assert done.returncode == 2
    assert message in done.stderr
    assert "Traceback" not in done.stderr
    assert done.stdout == ""


def test_mechanism_report_counts_every_state():
    done = _script("mechanism_report.py", "--max-basics", "3")
    assert done.returncode == 0, done.stderr
    rows = [row.split() for row in done.stdout.splitlines()[1:]]
    assert [row[-2:] for row in rows] == [["16m+16", "ok"]] * 3
    # the columns count states by name prefix: dispatch q, enactments e,
    # skip loop s, and the rest
    for m, row in enumerate(rows, start=1):
        assert [int(x) for x in row[:6]] == [m, 16 * m + 16, 3 * m + 3, 13 * m + 5, 6, 2]


@pytest.mark.parametrize("flag, value", [("--max-basics", "0"), ("--max-basics", "-2"),
                                         ("--dump", "0")])
def test_mechanism_report_rejects_no_basics(flag, value):
    done = _script("mechanism_report.py", flag, value)
    assert done.returncode == 2
    assert f"{flag} needs at least one basic instruction" in done.stderr
    assert done.stdout == ""
