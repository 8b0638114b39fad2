"""Runs of `python -m pgakit`, the console entry point, as separate processes."""

import os
import subprocess
import sys

from pgakit import parse_thread
from pgakit.cli import EXIT_PARSE

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    # a buffered stdout, as by default, still holds text when its reader goes
    env.pop("PYTHONUNBUFFERED", None)
    return env


def _pgakit(*argv):
    return subprocess.run([sys.executable, "-m", "pgakit", *argv], env=_env(),
                          capture_output=True, text=True, timeout=120)


def test_mechanism_report_counts_every_state():
    for m in (1, 2, 3):
        program = "; ".join([f"f.m{i}" for i in range(m)] + ["!"])
        done = _pgakit("mechanism", program)
        assert done.returncode == 0, done.stderr
        head, _, body = done.stdout.partition("\n")
        assert head == f"# m = {m} basics, {16 * m + 16} states"
        mech = parse_thread(body)
        assert len(mech.states) == 16 * m + 16
        # by name prefix: dispatch q, enactments e, skip loop s, and the rest
        parts = {"q": 0, "e": 0, "s": 0, "rest": 0}
        for name in mech.states:
            parts[name[0] if name[0] in parts else "rest"] += 1
        assert parts == {"q": 3 * m + 3, "e": 13 * m + 5, "s": 6, "rest": 2}


def test_python_m_pgakit_exits_as_documented(tmp_path):
    done = _pgakit("bisim", "x = S", "y = D")
    assert (done.returncode, done.stdout) == (1, "not-bisimilar\n")
    done = _pgakit("normalize", "f.a;;")
    assert done.returncode == EXIT_PARSE and done.stdout == ""
    assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr
    # readers that close at once, and after one line, while the control of
    # 1000 basics (about 500 kB, more than a pipe holds) is still unwritten
    program = "; ".join(f"f.m{i}" for i in range(1000))
    for lines in (0, 1):
        err = tmp_path / f"stderr{lines}"
        with open(err, "w") as to_err, subprocess.Popen(
            [sys.executable, "-m", "pgakit", "mechanism", program],
            env=_env(), stdout=subprocess.PIPE, stderr=to_err, text=True,
        ) as proc:
            head = [proc.stdout.readline() for _ in range(lines)]
            proc.stdout.close()
            assert proc.wait(timeout=60) == EXIT_PARSE
        assert head == ["# m = 1000 basics, 16016 states\n"][:lines]
        assert err.read_text() == ""
