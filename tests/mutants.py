"""Hand-made mutants of the library, and the tests that must kill them.

Each entry changes one text of one file under `src/pgakit`: `old` must
occur exactly once in that file, and `new` replaces it.  `tests` names
the test node ids, relative to the repository root, that must fail when
the change is made.  An equivalent mutant, one that changes no behaviour
any test can see, carries the reason in `equivalent`, and its tests must
pass.  The list records which tests show each part of the library to be
right; a test or an oracle goes only when every mutant here is still
killed without it.

Run it from anywhere with `python tests/mutants.py`.  It copies `src/`
into a temporary directory, checks that `pgakit` imports from the copy,
and then, one mutant at a time, applies it to the copy, runs
`python -m pytest -q -x -p no:cacheprovider` on its tests with
`PYTHONPATH` set to the copy, and puts the file back.  It prints one line
per mutant and exits 1 when a mutant not marked equivalent survives, a
mutant marked equivalent is killed, an old text does not occur exactly
once, or pytest cannot run the named tests.  Uses the standard library
only; pytest does not collect this file.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Mutant(NamedTuple):
    what: str
    file: str  # relative to src/pgakit
    old: str
    new: str
    tests: Tuple[str, ...]
    equivalent: Optional[str] = None


_LANDING = "tests/test_oracles.py::test_landing_matches_walk_over_positions"
_MIXED = "tests/test_oracles.py::test_explorer_matches_one_value_at_a_time_on_long_mixed_runs"
_COUNTS_DOWN = "tests/test_execmech.py::test_run_exec_counts_down_past_non_shifts_in_one_step"
_BUDGETS = "tests/test_execmech.py::test_run_exec_fits_the_budgets_of_its_one_step_rounds"
_WITNESS_EXEC = "tests/test_acceptance.py::test_witness_exec_n4_to_6"
_FIND_ZERO = ("tests/test_execmech.py::"
              "test_explorer_walks_rounds_step_by_step_when_one_would_find_zero")
_BOTH_WAYS = ("tests/test_execmech.py::"
              "test_explorer_walks_rounds_step_by_step_when_they_move_the_counter_both_ways")
_SHARED_CONTROL = "tests/test_execmech.py::test_shared_control_changes_no_output"
_EXTRACT_WALK = "tests/test_oracles.py::test_extraction_matches_per_jump_walk_and_relabel"
_EXTRACT_CHAINS = "tests/test_oracles.py::test_extraction_matches_per_jump_walk_on_jump_chains"
_PROJECTIONS = "tests/test_oracles.py::test_bisimilar_matches_projections_to_depth_n_plus_m"
_EXTRACTION = "tests/test_extraction.py::"
_THREADS = "tests/test_threads.py::"
_COMPILER = "tests/test_compiler.py::"
_PYTHON_M = "tests/test_scripts.py::test_python_m_pgakit_exits_as_documented"

MUTANTS = (
    # --- the landing search of the explorer ---------------------------------
    Mutant("landing one past its target", "execmech.py",
           "    k += sums[i]\n", "    k += sums[i] + 1\n",
           (_LANDING, _COUNTS_DOWN)),
    Mutant("landing counts from the next position", "execmech.py",
           "    k += sums[i]\n", "    k += sums[i + 1]\n",
           (_LANDING, _BUDGETS)),
    Mutant("landing wraps the period at most once", "execmech.py",
           "passes, k = divmod(k - sums[p] - 1, per)",
           "passes, k = 1, k - sums[p] - 1 - per",
           (_LANDING, _COUNTS_DOWN)),
    Mutant("landing divides one too many", "execmech.py",
           "passes, k = divmod(k - sums[p] - 1, per)",
           "passes, k = divmod(k - sums[p], per)",
           (_LANDING, _BUDGETS)),
    Mutant("landing searches one short after the wrap", "execmech.py",
           "return bisect_left(sums, sums[p] + k + 1, p), passes",
           "return bisect_left(sums, sums[p] + k, p), passes",
           (_LANDING, _BUDGETS)),
    Mutant("landing wraps a target that the first pass reaches", "execmech.py",
           "    if k <= sums[e]:\n", "    if k < sums[e]:\n",
           (_LANDING, _MIXED)),
    Mutant("landing gives the end of a finite program a weight of its own",
           "execmech.py",
           "    per = sums[e] - sums[p]\n",
           "    per = sums[e] - sums[p] if s.period else 1\n",
           (_LANDING, _COUNTS_DOWN)),
    # --- the prefix counts and rounds of the explorer -----------------------
    Mutant("prefix count never covers the end of a finite program", "execmech.py",
           "bare[h], size[h] = int(moved is None), moved or 0",
           "bare[h], size[h] = int(moved is None or h is None), moved or 0",
           (_COUNTS_DOWN,)),
    Mutant("prefix count always covers the end of a finite program", "execmech.py",
           "bare[h], size[h] = int(moved is None), moved or 0",
           "bare[h], size[h] = int(moved is None and h is not None), moved or 0",
           (_LANDING, _MIXED, _COUNTS_DOWN, _BUDGETS, _WITNESS_EXEC),
           equivalent="landing at the end of a finite program ends in deadlock"
           " whatever the counter (the end reads as #0 and every drop there"
           " fails), exactly like never landing"),
    Mutant("rounds stop past the first position none covers", "execmech.py",
           "stops.append((got[0] - 1, got[1]))", "stops.append(got)",
           (_COUNTS_DOWN, _MIXED)),
    Mutant("rounds that never stop are not deadlock", "execmech.py",
           "        if not stops:\n            return DEADLOCK\n",
           "        if not stops:\n            return None\n",
           ("tests/test_execmech.py::test_explorer_deadlocks_on_rounds_that_never_stop",)),
    Mutant("rounds leave out the change of whole periods", "execmech.py",
           "moved = size[t] - size[i] + passes * (size[e] - size[p])",
           "moved = size[t] - size[i]",
           (_COUNTS_DOWN, _MIXED)),
    Mutant("rounds land on an unwrapped position", "execmech.py",
           "return position(s, t), c + sign * moved",
           "return t, c + sign * moved",
           (_COUNTS_DOWN, _MIXED)),
    Mutant("rounds are taken although one would find the counter zero",
           "execmech.py",
           "if not sign or (low is not None and c + low < 1):",
           "if not sign:",
           (_FIND_ZERO,)),
    Mutant("rounds are taken although they move the counter both ways",
           "execmech.py",
           "if not sign or (low is not None and c + low < 1):",
           "if low is not None and c + low < 1:",
           (_BOTH_WAYS,)),
    Mutant("a round is recorded after a test that found zero", "execmech.py",
           'plain = plain and c > 0 and method != "clr"',
           'plain = plain and method != "clr"',
           ("tests/test_execmech.py::test_explorer_keeps_no_round_whose_test_found_zero",)),
    # --- what the explorer shares between programs --------------------------
    Mutant("query chains keyed by end-or-not, not by the instruction",
           "execmech.py",
           "at = (m, heads[v])", "at = (m, heads[v] is None)",
           (_SHARED_CONTROL, "tests/test_execmech.py::test_one_mechanism_runs_many_programs")),
    Mutant("control keyed by the number of basics", "execmech.py",
           "@lru_cache(maxsize=16)\n"
           "def _control(alphabet: Alphabet) -> tuple:\n"
           '    """The alphabet\'s mechanism, read once for every program over it."""\n'
           "    return _tables(build_exec_mechanism(alphabet))\n",
           "_BY_COUNT: dict = {}\n\n\n"
           "@lru_cache(maxsize=16)\n"
           "def _control(alphabet: Alphabet) -> tuple:\n"
           "    m = len(alphabet.basics)\n"
           "    if m not in _BY_COUNT:\n"
           "        _BY_COUNT[m] = _tables(build_exec_mechanism(alphabet))\n"
           "    return _BY_COUNT[m]\n",
           (_SHARED_CONTROL, "tests/test_execmech.py::test_control_is_built_once_per_alphabet")),
    Mutant("program service drops without wrapping into the period", "execmech.py",
           "pos = position(s, self.position + 1)", "pos = self.position + 1",
           ("tests/test_execmech.py::test_pgs_periodic_never_exhausts",
            "tests/test_oracles.py::test_program_service_matches_residual_service")),
    Mutant("program service keys every position alike", "execmech.py",
           'return f"pgs:{self.position}"', 'return "pgs:0"',
           ("tests/test_execmech.py::test_pgs_key_names_the_position",
            "tests/test_oracles.py::test_program_service_matches_residual_service",
            "tests/test_oracles.py::test_service_pipeline_matches_old_route")),
    # --- extraction ----------------------------------------------------------
    Mutant("the end of the unfolding does not wrap into the period",
           "extraction.py",
           "        land[end] = land[p]\n", "        land[end] = end\n",
           (_EXTRACT_WALK, _EXTRACT_CHAINS)),
    Mutant("the index past the end lands as the period's first position",
           "extraction.py",
           "land.append(land[p + 1] if n else end)", "land.append(land[p] if n else end)",
           (_EXTRACT_WALK, _EXTRACT_CHAINS)),
    Mutant("a cycle of jumps lands on the jump it revisits", "extraction.py",
           "r = end if land[j] == -2 else land[j]", "r = j if land[j] == -2 else land[j]",
           (_EXTRACT_WALK, _EXTRACTION + "test_cyclic_jump_chain_deadlocks")),
    Mutant("a jump off a finite sequence lands on its start", "extraction.py",
           "j = p + (j - p) % n if n else end", "j = p + (j - p) % n if n else 0",
           (_EXTRACT_WALK, _EXTRACTION + "test_congruent_out_of_range_jumps")),
    Mutant("a jump wraps the period at most once", "extraction.py",
           "j = p + (j - p) % n if n else end", "j = j - n if n else end",
           (_EXTRACT_WALK, _EXTRACTION + "test_jump_into_period_wraps")),
    Mutant("a negative test keeps the positive test's branches", "extraction.py",
           "then, else_ = else_, then", "then, else_ = then, else_",
           (_EXTRACT_WALK, _EXTRACTION + "test_tests_branch")),
    Mutant("a plain instruction continues past the next one on False",
           "extraction.py",
           "                else_ = then\n", "                else_ = land[pos + 2]\n",
           (_EXTRACT_WALK, _EXTRACTION + "test_plain_action_then_continue")),
    Mutant("the end position stops instead of deadlocking", "extraction.py",
           "body: Body = DEADLOCK", "body: Body = STOP",
           (_EXTRACT_WALK, _EXTRACTION + "test_missing_termination_deadlocks")),
    Mutant("states are named else first", "extraction.py",
           "for t in (then, else_):", "for t in (else_, then):",
           (_EXTRACT_WALK, "tests/test_acceptance.py::test_extraction_of_a_100k_jump_ladder")),
    Mutant("states are numbered by the names given", "extraction.py",
           'names[t] = f"X{len(order)}"', 'names[t] = f"X{len(names)}"',
           (_EXTRACT_WALK, _EXTRACT_CHAINS),
           equivalent="every name goes into both `names` and `order`, so the"
           " two always have the same length"),
    # --- the compiler --------------------------------------------------------
    Mutant("equal branches compile as a positive test", "compiler.py",
           "            if body.then == body.else_:\n", "            if False:\n",
           (_COMPILER + "test_single_state_loop",
            _COMPILER + "test_equal_branches_compile_as_a_plain_instruction",
            "tests/test_acceptance.py::test_witness_exec_n30",
            "tests/test_oracles.py::test_compile_matches_validate_first_route")),
    Mutant("branches that differ compile as a plain instruction", "compiler.py",
           "units += (tests[body.action], then, else_)",
           "units += (plains[body.action], then, else_)",
           (_COMPILER + "test_compile_roundtrip_examples",
            _COMPILER + "test_equal_branches_compile_as_a_plain_instruction",
            "tests/test_oracles.py::test_compile_matches_validate_first_route")),
    Mutant("the third slot of a plain block halts", "compiler.py",
           "units += (plains[body.action], then, jumps[0])",
           "units += (plains[body.action], then, HALT)",
           (_COMPILER + "test_slot_three_of_a_plain_block_is_never_reached",
            _COMPILER + "test_compile_roundtrip_property",
            _COMPILER + "test_pipeline_roundtrip_property",
            _WITNESS_EXEC, _BUDGETS),
           equivalent="a plain instruction always goes on to the #d after it,"
           " and every jump lands on the first slot of a block, so no run"
           " reaches the third slot"),
    # --- bisimilarity --------------------------------------------------------
    Mutant("bisimilar ignores actions", "threads.py",
           "        if ba.action != bb.action:\n", "        if ba.action is None:\n",
           (_PROJECTIONS, _THREADS + "test_bisimilar_distinguishes_actions")),
    Mutant("bisimilar ignores else branches", "threads.py",
           "for ta, tb in ((ba.then, bb.then), (ba.else_, bb.else_)):",
           "for ta, tb in ((ba.then, bb.then),):",
           (_PROJECTIONS, _THREADS + "test_bisimilarity_agrees_with_bounded_projections")),
    Mutant("bisimilar crosses then and else", "threads.py",
           "for ta, tb in ((ba.then, bb.then), (ba.else_, bb.else_)):",
           "for ta, tb in ((ba.then, bb.else_), (ba.else_, bb.then)):",
           (_PROJECTIONS, _THREADS + "test_bisimilar_branch_sensitive")),
    Mutant("bisimilar takes stop for deadlock", "threads.py",
           "        if type(ba) is not type(bb):\n            return False\n"
           "        if not isinstance(ba, Post):\n            continue\n"
           "        if ba.action != bb.action:\n",
           "        if isinstance(ba, Post) is not isinstance(bb, Post):\n"
           "            return False\n"
           "        if not isinstance(ba, Post):\n            continue\n"
           "        if ba.action != bb.action:\n",
           (_PROJECTIONS, _THREADS + "test_bisimilar_distinguishes_leaves")),
    Mutant("bisimilar does not merge the roots first", "threads.py",
           "parent[ids_a[a.root]] = ids_b[b.root]", "parent[ids_a[a.root]] = ids_a[a.root]",
           (_PROJECTIONS, "tests/test_acceptance.py::test_bisimilar_chains_of_100k_states"),
           equivalent="the root pair is on the stack, so it is checked anyway;"
           " reached again, it is merged and checked once more"),
    # --- silent steps and services -------------------------------------------
    Mutant("a cycle of silent steps stops instead of deadlocking", "threads.py",
           "            if cur in chain:\n                body = DEADLOCK\n",
           "            if cur in chain:\n                body = STOP\n",
           (_THREADS + "test_endless_tau_is_deadlock",
            "tests/test_oracles.py::test_abstract_tau_matches_per_state_walk")),
    Mutant("product copies are numbered from 1 for every copy", "services.py",
           "n = next_suffix.get(sid, 1)", "n = 1",
           ("tests/test_oracles.py::test_state_names_match_counting_from_one",
            "tests/test_oracles.py::test_service_pipeline_matches_old_route"),
           equivalent="a suffix skipped once stays taken, so counting from 1"
           " again finds the same one; the kept suffix only saves the rescan"),
    # --- the command line ----------------------------------------------------
    Mutant("a closed stdout is not pointed at devnull", "cli.py",
           "os.dup2(devnull.fileno(), sys.stdout.fileno())", "pass",
           (_PYTHON_M,)),
)


def _pytest(ids, env, cwd):
    """0 when every named test passes, 1 when one fails or the run takes
    over ten minutes, None when pytest could not run them (a missing id,
    say)."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
    cmd += [os.path.join(ROOT, i) for i in ids]
    try:
        done = subprocess.run(cmd, env=env, cwd=cwd, capture_output=True, text=True,
                              timeout=600)
    except subprocess.TimeoutExpired:
        return 1
    # 1: a test failed; 2: a collection error, such as a mutant that does
    # not import
    return {0: 0, 1: 1, 2: 1}.get(done.returncode)


def main():
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(os.path.join(ROOT, "src"), src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
        # hypothesis keeps its example database in the working directory
        work = os.path.join(tmp, "work")
        os.mkdir(work)
        where = subprocess.run(
            [sys.executable, "-c", "import pgakit; print(pgakit.__file__)"],
            env=env, cwd=work, capture_output=True, text=True)
        if not where.stdout.startswith(src + os.sep):
            print(f"pgakit does not import from the copy: {where.stdout or where.stderr}")
            return 1
        print(f"{'result':<11} {'s':>5}  file           mutant")
        for m in MUTANTS:
            path = os.path.join(src, "pgakit", m.file)
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            start = time.perf_counter()
            found = text.count(m.old)
            if found != 1:
                result = f"old text x{found}"
            else:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text.replace(m.old, m.new))
                try:
                    got = _pytest(m.tests, env, work)
                finally:
                    with open(path, "w", encoding="utf-8") as fh:
                        fh.write(text)
                if got is None:
                    result = "no run"
                elif m.equivalent:
                    result = "KILLED-EQ" if got else "equivalent"
                else:
                    result = "killed" if got else "SURVIVED"
            bad += result not in ("killed", "equivalent")
            print(f"{result:<11} {time.perf_counter() - start:5.1f}  {m.file:<14} {m.what}")
    to_kill = sum(not m.equivalent for m in MUTANTS)
    print(f"{len(MUTANTS)} mutants, {to_kill} to kill, {len(MUTANTS) - to_kill} equivalent;"
          f" {bad} wrong")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
