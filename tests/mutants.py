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
`pytest.main(["-q", "-x", "-p", "no:cacheprovider", ...])` on its tests
in a forked child that imports `pgakit` from the copy, and puts the file
back.  This process imports pytest and hypothesis once and never
imports `pgakit`, so each child starts with them loaded; children run
one at a time.  It prints one line per mutant and exits 1 when a mutant not marked
equivalent survives, a mutant marked equivalent is killed, an old text
does not occur exactly once, or pytest cannot run the named tests.  Needs
pytest and `os.fork` (POSIX); pytest does not collect this file.
"""

import importlib
import os
import shutil
import signal
import sys
import tempfile
import time
from typing import NamedTuple, Optional, Tuple

import pytest

# Loaded once here, so that no forked child loads it again; it does not
# import pgakit.  With hypothesis already loaded, pytest.main on one test
# takes about a quarter of the time.
importlib.import_module("hypothesis")

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
_MEET = "tests/test_execmech.py::test_run_exec_counts_where_walks_meet_or_come_back"
_WITNESS_EXEC = "tests/test_acceptance.py::test_witness_exec_n4_to_6"
_WITNESS_N30 = "tests/test_acceptance.py::test_witness_exec_n30"
_BY_WHERE_THEY_LEAD = ("tests/test_execmech.py::"
                       "test_explorer_takes_rounds_by_where_their_drop_leads_and_not_through_a_clr")
_FIND_ZERO = ("tests/test_execmech.py::"
              "test_explorer_walks_rounds_step_by_step_when_one_would_find_zero")
_BOTH_WAYS = ("tests/test_execmech.py::"
              "test_explorer_walks_rounds_step_by_step_when_they_move_the_counter_both_ways")
_SHARED_CONTROL = "tests/test_execmech.py::test_shared_control_changes_no_output"
_EXTRACT_WALK = "tests/test_oracles.py::test_extraction_matches_per_jump_walk_and_relabel"
_EXTRACT_CHAINS = "tests/test_oracles.py::test_extraction_matches_per_jump_walk_on_jump_chains"
_PROJECTIONS = "tests/test_oracles.py::test_bisimilar_matches_projections_to_depth_n_plus_m"
_BOTH_READERS = "tests/test_oracles.py::test_thread_reader_matches_the_per_line_reader"
_EXTRACTION = "tests/test_extraction.py::"
_THREADS = "tests/test_threads.py::"
_COMPILER = "tests/test_compiler.py::"
_PYTHON_M = "tests/test_scripts.py::test_python_m_pgakit_exits_as_documented"
_SYNTAX = "tests/test_syntax.py::"
_ALTSEM = "tests/test_altsem.py::"
_EVERY_KIND = _ALTSEM + "test_two_mode_equations_of_every_kind"
_EXECMECH = "tests/test_execmech.py::"
_TOKEN_TEXT = ("the kind of a punctuation token is its own text, and no other"
               " token's text is a punctuation mark")
_PARSE_ERRORS = _SYNTAX + "test_parse_errors_name_what_was_found_and_where"
_READ_AGAIN = _SYNTAX + "test_a_piece_read_in_an_earlier_call_is_checked_again"
_SERVICES = "tests/test_services.py::"
_NAMED_AS_RELABEL = _THREADS + "test_built_threads_are_named_as_relabel_names_them"

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
    # --- the rounds of the control and the explorer --------------------------
    Mutant("a failed drop at the end of a finite program is not a round", "execmech.py",
           "if how <= _FAILED and nxt == m and rel:",
           "if how == _MOVED and nxt == m and rel:",
           (_COUNTS_DOWN,)),
    Mutant("a failed drop is taken to land by its then branch", "execmech.py",
           "if how <= _FAILED and nxt == m and rel:",
           "if how <= _FAILED and control.thens[slots[k][6]] == m and rel:",
           (_BY_WHERE_THEY_LEAD,)),
    Mutant("a round through a clr is taken", "execmech.py",
           "if how <= _FAILED and nxt == m and rel:",
           "if how <= _FAILED and nxt == m:",
           (_BY_WHERE_THEY_LEAD,)),
    Mutant("rounds wait until one round has been walked", "execmech.py",
           "                if (rounds[nxt] if nxt in rounds",
           "                if m == nxt and (rounds[nxt] if nxt in rounds",
           (_BUDGETS, _WITNESS_N30)),
    Mutant("rounds stop past the first position none covers", "execmech.py",
           "stop = (stop[0] - 1, stop[1])", "stop = (stop[0], stop[1])",
           (_COUNTS_DOWN, _MIXED)),
    Mutant("rounds that never stop are not deadlock", "execmech.py",
           "        if stop is None:\n            return DEADLOCK\n",
           "        if stop is None:\n            return None\n",
           ("tests/test_execmech.py::test_explorer_deadlocks_on_rounds_that_never_stop",)),
    Mutant("rounds leave out the change of whole periods", "execmech.py",
           "moved = size[t] - size[i] + passes * (size[e] - size[p])",
           "moved = size[t] - size[i]",
           (_COUNTS_DOWN, _MIXED)),
    Mutant("rounds land on an unwrapped position", "execmech.py",
           "return t if t < e else p, c + sign * moved",
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
    Mutant("a tested round taken in one step keeps the walk before it", "execmech.py",
           "                        if tables[nxt][3] is not None:\n"
           "                            pairs.clear()\n", "",
           (_EXECMECH + "test_explorer_forgets_its_walk_after_rounds_that_tested_the_counter",)),
    # --- the segments of the explorer ----------------------------------------
    Mutant("segments keyed without the instruction at the position", "execmech.py",
           "k, slots = segments[m].get(h) or _first_segment(control, m, h)",
           "k, slots = next(iter(segments[m].values()), None) or _first_segment(control, m, h)",
           (_SHARED_CONTROL, _EXECMECH + "test_one_mechanism_runs_many_programs")),
    Mutant("segments keyed without the min(c, K) bucket", "execmech.py",
           "i = c if c < k else k", "i = k",
           (_BUDGETS, _EXECMECH + "test_run_exec_examples")),
    Mutant("K leaves out how low the counter goes", "execmech.py",
           "return (count, tested, rel, val, low, how, at, m), 1 - least",
           "return (count, tested, rel, val, low, how, at, m), 1",
           (_BUDGETS,)),
    Mutant("a segment stands for one configuration too many", "execmech.py",
           "            n += count\n", "            n += count + 1\n",
           (_BUDGETS,)),
    Mutant("a segment stands for one configuration too few", "execmech.py",
           "            n += count\n", "            n += count - 1\n",
           (_BUDGETS,)),
    Mutant("a reset is recorded as a change", "execmech.py",
           "r, val, rel = True, 0, False", "r, val, rel = True, 0, True",
           (_EXECMECH + "test_run_exec_examples",)),
    Mutant("walks share no configuration", "execmech.py",
           "if got is not None:  # another walk's", "if got is _WALKING:  # another walk's",
           (_BUDGETS, _MEET)),
    Mutant("a segment's counter test keeps the pairs it passed", "execmech.py",
           "            if tested:\n                pairs.clear()\n", "",
           (_EXECMECH + "test_explorer_forgets_the_states_it_passed_at_each_test",)),
    Mutant("a walk never comes back to its state and position", "execmech.py",
           "            if (m, v) in pairs:\n                got = DEADLOCK\n                break\n", "",
           (_EXECMECH + "test_explorer_counts_where_a_walk_comes_back_with_no_test",)),
    # --- what the explorer shares between programs --------------------------
    Mutant("control keyed by the number of basics", "execmech.py",
           "@lru_cache(maxsize=16)\n"
           "def _control(alphabet: Alphabet) -> _Control:\n"
           '    """The alphabet\'s mechanism, read once for every program over it."""\n'
           "    return _tables(build_exec_mechanism(alphabet), alphabet)\n",
           "_BY_COUNT: dict = {}\n\n\n"
           "@lru_cache(maxsize=16)\n"
           "def _control(alphabet: Alphabet) -> _Control:\n"
           "    m = len(alphabet.basics)\n"
           "    if m not in _BY_COUNT:\n"
           "        _BY_COUNT[m] = _tables(build_exec_mechanism(alphabet), alphabet)\n"
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
    Mutant("every action is treated as the service's", "services.py",
           "elif action.focus != focus:", "elif False:",
           (_SERVICES + "test_compose_foreign_focus_passes_through",)),
    Mutant("a True reply takes the else branch", "services.py",
           "visit(body.then if reply is Reply.TRUE else body.else_, nxt)",
           "visit(body.else_ if reply is Reply.TRUE else body.else_, nxt)",
           (_SERVICES + "test_compose_true_reply_selects_then",)),
    Mutant("a Blocked reply takes the else branch", "services.py",
           "if reply is Reply.BLOCKED:", "if reply is None:",
           (_SERVICES + "test_compose_blocked_reply_deadlocks",)),
    Mutant("the budget admits one state more", "services.py",
           "if len(names) >= budget.max_states:", "if len(names) > budget.max_states:",
           (_SERVICES + "test_budget_admits_exactly_its_states",)),
    Mutant("a silent step loses its successor", "services.py",
           "                then = visit(body.then, service)\n"
           "                body = Post(TAU, then, then)\n",
           "                body = DEADLOCK\n",
           (_SERVICES + "test_compose_tau_passes_through",)),
    Mutant("a passed-through action names its else branch first", "services.py",
           "body = Post(action, visit(body.then, service), visit(body.else_, service))",
           "else_ = visit(body.else_, service)\n"
           "                body = Post(action, visit(body.then, service), else_)",
           (_NAMED_AS_RELABEL,)),
    Mutant("a counter at zero decrements", "services.py",
           "                return self, Reply.FALSE\n", "                return self, Reply.TRUE\n",
           (_SERVICES + "test_counter_table", _SERVICES + "test_compose_dec_at_zero_continues_on_else")),
    Mutant("isz finds one zero", "services.py",
           "Reply.TRUE if k == 0 else Reply.FALSE", "Reply.TRUE if k <= 1 else Reply.FALSE",
           (_SERVICES + "test_counter_table",)),
    Mutant("clr keeps the content", "services.py",
           "return CounterService(0), Reply.TRUE", "return self, Reply.TRUE",
           (_SERVICES + "test_counter_table",)),
    Mutant("an unknown method does not wedge the counter", "services.py",
           "return CounterService(None), Reply.BLOCKED", "return self, Reply.BLOCKED",
           (_SERVICES + "test_counter_unknown_method_wedges",)),
    Mutant("a wedged counter answers as zero", "services.py",
           "        if k is None:\n            return self, Reply.BLOCKED\n",
           "        if k is None:\n            k = 0\n",
           (_SERVICES + "test_counter_unknown_method_wedges",)),
    Mutant("a wedged counter has the key of zero", "services.py",
           'return "cnt:undef"', 'return "cnt:0"',
           (_SERVICES + "test_counter_keys_distinct",)),
    Mutant("a counter may start below zero", "services.py",
           "if init < 0:", "if init < -1:",
           (_SERVICES + "test_counter_new_rejects_negative",)),
    Mutant("a budget of no states is allowed", "services.py",
           "if self.max_states <= 0:", "if self.max_states < 0:",
           (_SERVICES + "test_budget_validation",)),
    Mutant("counter divergence ignores increments", "services.py",
           'if a.focus == "cnt" and a.method == "inc":', 'if a.focus == "cnt" and a.method == "":',
           (_SERVICES + "test_collapse_pure_inc_cycle",)),
    Mutant("counter divergence ignores silent steps", "services.py",
           "        if isinstance(a, Tau):\n            return body.then\n",
           "        if isinstance(a, Tau):\n            return None\n",
           (_SERVICES + "test_collapse_tau_inc_cycle",)),
    # --- the command line ----------------------------------------------------
    Mutant("a closed stdout is not pointed at devnull", "cli.py",
           "os.dup2(devnull.fileno(), sys.stdout.fileno())", "pass",
           (_PYTHON_M,)),
    # --- the execution mechanism ---------------------------------------------
    Mutant("the explorer names its else branch first", "execmech.py",
           "got = Post(bodies[m].action, name((thens[m], v, c)), name((elses[m], v, c)))",
           "else_ = name((elses[m], v, c))\n"
           "            got = Post(bodies[m].action, name((thens[m], v, c)), else_)",
           (_NAMED_AS_RELABEL,
            "tests/test_oracles.py::test_explorer_matches_one_value_at_a_time_on_witnesses")),
    Mutant("the dispatch never asks for the alphabet's last instruction", "execmech.py",
           'nxt = f"q{i + 1}" if i + 1 < len(units) else "gend"',
           'nxt = f"q{i + 1}" if i + 2 < len(units) else "gend"',
           (_EXECMECH + "test_run_exec_examples",)),
    Mutant("an exhausted program stops", "execmech.py",
           '    lay_out(_GUARDED[Jump], ("gend",), moved=exits)\n',
           '    states["gend"] = STOP\n',
           (_EXECMECH + "test_run_exec_examples",)),
    Mutant("a halt deadlocks in the mechanism", "execmech.py",
           "            states[e] = STOP\n", "            states[e] = DEADLOCK\n",
           (_EXECMECH + "test_run_exec_examples",)),
    Mutant("the skipping loop flies over every head", "execmech.py",
           'states["schk"] = Post(hdeq(SHIFT), "sshr", "sdrop")',
           'states["schk"] = Post(hdeq(SHIFT), "sshr", "sshr")',
           (_EXECMECH + "test_run_exec_examples",)),
    # --- the two-mode equations ----------------------------------------------
    Mutant("a halt moves on", "altsem.py",
           "    Halt: (),\n", "    Halt: ((_DROP, _READ, _READ),),\n",
           (_ALTSEM + "test_halt_state",)),
    Mutant("a guarded shift adds nothing to the counter", "altsem.py",
           "    Shift: ((_DROP, _NEXT, _NEXT), (_INC, _READ, _READ)),",
           "    Shift: ((_DROP, _READ, _READ),),",
           (_ALTSEM + "test_verify_examples",)),
    Mutant("a guarded shift's increment branches", "altsem.py",
           "    Shift: ((_DROP, _NEXT, _NEXT), (_INC, _READ, _READ)),",
           "    Shift: ((_DROP, _NEXT, _NEXT), (_INC, _READ, _SKIP)),",
           (_EVERY_KIND,)),
    Mutant("guarded #0 at counter zero reads on", "altsem.py",
           "    Jump: ((_ISZ, _DEAD, _NEXT), (_DROP, _SKIP, _SKIP)),",
           "    Jump: ((_ISZ, _READ, _NEXT), (_DROP, _SKIP, _SKIP)),",
           ("tests/test_cli.py::test_extract_alt_of_a_zero_jump", _EVERY_KIND)),
    Mutant("guarded #0 with a nonzero counter lands at once", "altsem.py",
           "    Jump: ((_ISZ, _DEAD, _NEXT), (_DROP, _SKIP, _SKIP)),",
           "    Jump: ((_ISZ, _DEAD, _NEXT), (_DROP, _READ, _READ)),",
           (_ALTSEM + "test_skip_flies_over_shift_runs_for_free",)),
    Mutant("a plain instruction leaves the counter as it is", "altsem.py",
           "    Plain: _PERFORM + ((_BASIC, _READ, _READ),),",
           "    Plain: _PERFORM[:1] + ((_BASIC, _READ, _READ),),",
           (_ALTSEM + "test_plain_gets_clear_prefix",)),
    Mutant("a positive test goes on alike on a false reply", "altsem.py",
           "    PosTest: _PERFORM + ((_BASIC, _READ, _NEXT),) + _SKIP_ONE,",
           "    PosTest: _PERFORM + ((_BASIC, _READ, _READ),) + _SKIP_ONE,",
           (_ALTSEM + "test_verify_examples",)),
    Mutant("a negative test reads on in skipping mode", "altsem.py",
           "    NegTest: _PERFORM + ((_BASIC, _NEXT, _READ),) + _SKIP_ONE,",
           "    NegTest: _PERFORM + ((_BASIC, _NEXT, _SKIP),) + _SKIP_ONE,",
           (_EVERY_KIND,)),
    Mutant("a failed test skips no instruction", "altsem.py",
           "_SKIP_ONE = ((_INC, _NEXT, _NEXT), (_INC, _SKIP, _SKIP))",
           "_SKIP_ONE = ((_INC, _SKIP, _SKIP),)",
           (_ALTSEM + "test_verify_examples",)),
    Mutant("the last increment of a failed test branches", "altsem.py",
           "_SKIP_ONE = ((_INC, _NEXT, _NEXT), (_INC, _SKIP, _SKIP))",
           "_SKIP_ONE = ((_INC, _NEXT, _NEXT), (_INC, _SKIP, _READ))",
           (_EVERY_KIND,)),
    Mutant("the clear step branches", "altsem.py",
           "_PERFORM = ((_DROP, _NEXT, _NEXT), (_CLR, _NEXT, _NEXT))",
           "_PERFORM = ((_DROP, _NEXT, _NEXT), (_CLR, _NEXT, _READ))",
           (_EVERY_KIND,)),
    Mutant("a drop branches on a reply it never gets", "altsem.py",
           "_PERFORM = ((_DROP, _NEXT, _NEXT), (_CLR, _NEXT, _NEXT))",
           "_PERFORM = ((_DROP, _NEXT, _READ), (_CLR, _NEXT, _NEXT))",
           ("tests/test_oracles.py::test_two_mode_builders_keep_their_invariants_on_a_corpus",)),
    Mutant("the countdown tests before it counts", "altsem.py",
           "_COUNTDOWN = ((_DEC, _NEXT, _NEXT), (_ISZ, _READ, _NEXT))",
           "_COUNTDOWN = ((_ISZ, _READ, _NEXT), (_DEC, _NEXT, _NEXT))",
           (_ALTSEM + "test_verify_examples",)),
    Mutant("the countdown's decrement branches", "altsem.py",
           "_COUNTDOWN = ((_DEC, _NEXT, _NEXT), (_ISZ, _READ, _NEXT))",
           "_COUNTDOWN = ((_DEC, _NEXT, _READ), (_ISZ, _READ, _NEXT))",
           (_EVERY_KIND,)),
    Mutant("flying over a shift costs a count", "altsem.py",
           "_FLY_OVER = ((_INC, _NEXT, _NEXT),) + _MOVE_ON", "_FLY_OVER = _MOVE_ON",
           (_ALTSEM + "test_skip_flies_over_shift_runs_for_free",)),
    Mutant("skipping mode reads the next position", "altsem.py",
           "_MOVE_ON = ((_DROP, _SKIP, _SKIP),)", "_MOVE_ON = ((_DROP, _READ, _READ),)",
           (_ALTSEM + "test_verify_examples",)),
    Mutant("a drop is never a state of its own", "altsem.py",
           "        if action is _DROP and moved is not None:\n",
           "        if action is _DROP:\n",
           (_EXECMECH + "test_mechanism_size_formula",)),
    Mutant("the last step of a chain goes nowhere", "altsem.py",
           "    follow = exits.get(_NEXT)\n", "    follow = None\n",
           (_EXECMECH + "test_mechanism_size_formula",)),
    Mutant("guarded #0 at counter zero skips on", "altsem.py",
           "exits, moved = {_READ: 0, _DEAD: 9}, {_READ: 7, _SKIP: 8}",
           "exits, moved = {_READ: 0, _DEAD: 8}, {_READ: 7, _SKIP: 8}",
           (_ALTSEM + "test_behaviour_examples",)),
    Mutant("a drop reads the same position again", "altsem.py",
           "exits, moved = {_READ: 0, _DEAD: 9}, {_READ: 7, _SKIP: 8}",
           "exits, moved = {_READ: 0, _DEAD: 9}, {_READ: 0, _SKIP: 8}",
           (_ALTSEM + "test_behaviour_examples",)),
    Mutant("the end of a finite program reads as a halt", "altsem.py",
           "units += (Jump(0),)  # the end position", "units += (Halt(),)  # the end position",
           (_ALTSEM + "test_verify_examples",)),
    Mutant("the end of a finite program reads as #1", "altsem.py",
           "units += (Jump(0),)  # the end position", "units += (Jump(1),)  # the end position",
           ("tests/test_cli.py::test_extract_alt_of_a_zero_jump", _ALTSEM + "test_verify_examples"),
           equivalent="only the kind of the instruction at the end is read"),
    Mutant("skipping past the end of a finite program wraps to its start", "altsem.py",
           'g, k, n = f"g{i}", f"s{i}", position(s, i + 1)',
           'g, k, n = f"g{i}", f"s{i}", (i + 1) % len(units)',
           (_ALTSEM + "test_verify_examples",)),
    # --- the thread reader and the reference check ----------------------------
    Mutant("tau may touch its target", "threads.py",
           r"tau\s+<(?P<tau>", r"tau\s*<(?P<tau>",
           (_THREADS + "test_parse_thread_rejects_garbage",)),
    Mutant("an action may touch the target before it", "threads.py",
           r"|<(?P<then>{_NAME})>\s+", r"|<(?P<then>{_NAME})>\s*",
           (_THREADS + "test_parse_thread_rejects_garbage",)),
    Mutant("a run of words may split inside a word", "threads.py",
           r'_WORDS = r"\S*(?:\s+[^\s#]\S*)*"', r'_WORDS = r"\S*(?:\s*[^\s#]\S*)*"',
           (_THREADS + "test_parse_thread_says_what_is_wrong",
            _THREADS + "test_parse_thread_method_tokens", _THREADS + "test_parse_thread_rejects_garbage"),
           equivalent="the greedy run of non-space characters before the loop"
           " takes each word whole, so the loop only ever starts at whitespace"),
    Mutant("a line of only a comment is not skipped", "threads.py",
           "        if line is None:\n            continue\n",
           "        if line is None:\n            line = raw\n",
           (_THREADS + "test_parse_thread_skips_blank_lines_and_comments",)),
    Mutant("a later state of the same name replaces the first", "threads.py",
           "        if name in states:\n", "        if False:\n",
           (_THREADS + "test_parse_thread_rejects_duplicates",)),
    Mutant("a bad action is reported as a body that does not parse", "threads.py",
           "        if action is not None:\n", "        if False:\n",
           (_THREADS + "test_parse_thread_says_what_is_wrong",)),
    Mutant("the last state named is the root", "threads.py",
           "return ThreadSpec(states, next(iter(states)))", "return ThreadSpec(states, name)",
           (_THREADS + "test_parse_thread_first_line_is_root", _BOTH_READERS)),
    Mutant("a row may hold any whitespace before its body", "threads.py",
           r'rf"^[ \t]*({_NAME})[ \t]*=[ \t]*(?:([SD])|tau[ \t]+<({_NAME})>"',
           r'rf"^\s*({_NAME})\s*=\s*(?:([SD])|tau\s+<({_NAME})>"',
           (_BOTH_READERS,)),
    Mutant("a row may hold any whitespace in an action's body", "threads.py",
           r'rf"|<({_NAME})>[ \t]+({_NAME})\.(\S+)[ \t]+<({_NAME})>)[ \t]*$"',
           r'rf"|<({_NAME})>\s+({_NAME})\.(\S+)\s+<({_NAME})>)\s*$"',
           (_BOTH_READERS,)),
    Mutant("rows are read although a line is no row", "threads.py",
           'if len(rows) == text.count("\\n") + (not text.endswith("\\n")):', "if rows:",
           (_THREADS + "test_parse_thread_says_what_is_wrong", _BOTH_READERS)),
    Mutant("rows are read although a name repeats", "threads.py",
           "        if len(states) == len(rows):\n", "        if True:\n",
           (_THREADS + "test_parse_thread_rejects_duplicates", _BOTH_READERS)),
    Mutant("the last row is the root", "threads.py",
           "return ThreadSpec(states, rows[0][0])", "return ThreadSpec(states, rows[-1][0])",
           (_THREADS + "test_parse_thread_first_line_is_root", _BOTH_READERS)),
    Mutant("an undefined root is let through", "threads.py",
           "        if self.root not in states:\n", "        if False:\n",
           (_THREADS + "test_spec_refuses_undefined_root",)),
    Mutant("else branches are not checked", "threads.py",
           "chain(map(_then, posts), map(_else, posts))", "map(_then, posts)",
           (_THREADS + "test_spec_refuses_dangling_target",)),
    Mutant("the last dangling state is named", "threads.py",
           "(n, t) for n, b in states.items() if isinstance(b, Post)",
           "(n, t) for n, b in reversed(states.items()) if isinstance(b, Post)",
           (_THREADS + "test_spec_refuses_dangling_target",)),
    # --- the program reader --------------------------------------------------
    Mutant("end of input is placed at a comment on an earlier line", "syntax.py",
           'comment = text.find("//", text.rfind("\\n") + 1)',
           'comment = text.find("//")',
           (_PARSE_ERRORS,)),
    Mutant("a comment that opens the text is not where input ends", "syntax.py",
           "return src, comment if comment >= 0 else len(text)",
           "return src, comment if comment > 0 else len(text)",
           (_PARSE_ERRORS,)),
    Mutant("an underscore cannot start a name", "syntax.py",
           'elif c.isalpha() or c == "_":', "elif c.isalpha():",
           (_SYNTAX + "test_names_may_start_with_an_underscore",)),
    Mutant("the token after a piece is always end of input", "syntax.py",
           'toks.append((";", ";", end) if end < len(src) else ("EOF", "", eof))',
           'toks.append(("EOF", "", eof))',
           (_PARSE_ERRORS,)),
    Mutant("columns count from zero", "syntax.py",
           'return kind(message, line, offset - src.rfind("\\n", 0, offset))',
           'return kind(message, line, offset - src.rfind("\\n", 0, offset) - 1)',
           (_PARSE_ERRORS,)),
    Mutant("end of input is shown as no text", "syntax.py",
           "found {tok[1] or 'end of input'!r}", "found {tok[1]!r}",
           (_PARSE_ERRORS,)),
    Mutant("no rescan for a later bad character", "syntax.py",
           "    _tokens(src, start, len(src), eof)\n    raise error\n",
           "    raise error\n",
           (_PARSE_ERRORS,)),
    Mutant("a missing jump offset is read as the next token", "syntax.py",
           '        if toks[i + 1][0] != "NAT":\n',
           "        if False:\n",
           (_PARSE_ERRORS,)),
    Mutant("a reserved focus is refused with no position", "syntax.py",
           "    if focus[1] in RESERVED_FOCI:\n        raise _error(",
           "    if False:\n        raise _error(",
           (_PARSE_ERRORS,)),
    Mutant("only the first digit before the last 19 is checked", "syntax.py",
           "if any(int(d) for d in digits[:-width]):",
           "if digits[:-width] and int(digits[0]):",
           (_SYNTAX + "test_jump_offsets_are_decimal_numbers",)),
    Mutant("a text with no comment is searched for one", "syntax.py",
           '    if "//" not in text:\n', "    if False:\n",
           (_PARSE_ERRORS, _SYNTAX + "test_comments_and_whitespace"),
           equivalent="with no comment, the search finds none and the"
           " substitution changes nothing; the test only saves the work"),
    Mutant("opened stars are counted by token text", "syntax.py",
           'while toks[i][0] == "(":', 'while toks[i][1] == "(":',
           (_PARSE_ERRORS, _SYNTAX + "test_nested_repetition_collapses"),
           equivalent=_TOKEN_TEXT),
    Mutant("closed stars are counted by token text", "syntax.py",
           'while toks[i][0] == ")" and closes < depth:',
           'while toks[i][1] == ")" and closes < depth:',
           (_PARSE_ERRORS, _SYNTAX + "test_nested_repetition_collapses"),
           equivalent=_TOKEN_TEXT),
    Mutant("a star's mark is found by token text", "syntax.py",
           'if toks[i + 1][0] != "*":', 'if toks[i + 1][1] != "*":',
           (_PARSE_ERRORS,), equivalent=_TOKEN_TEXT),
    Mutant("the dot after a focus is found by token text", "syntax.py",
           '    if toks[i + 1][0] != ".":\n        raise',
           '    if toks[i + 1][1] != ".":\n        raise',
           (_PARSE_ERRORS,), equivalent=_TOKEN_TEXT),
    Mutant("the dots of a method are found by token text", "syntax.py",
           '        if toks[i + 1][0] != ".":\n            break',
           '        if toks[i + 1][1] != ".":\n            break',
           (_PARSE_ERRORS, _SYNTAX + "test_method_may_contain_dots"),
           equivalent=_TOKEN_TEXT),
    # --- stars and the piece cache -------------------------------------------
    Mutant("a piece closes more stars than are open", "syntax.py",
           'while toks[i][0] == ")" and closes < depth:',
           'while toks[i][0] == ")":',
           (_PARSE_ERRORS,)),
    Mutant("a star left open at the end is not reported", "syntax.py",
           "    if stack:\n        raise _unexpected(",
           "    if False:\n        raise _unexpected(",
           (_PARSE_ERRORS,)),
    Mutant("a cached piece is not read again", "syntax.py",
           "if r is None or r[2] > r[0] + len(stack):", "if r is None:",
           (_PARSE_ERRORS, _READ_AGAIN)),
    Mutant("the piece table is never emptied", "syntax.py",
           "            read.clear()\n", "            pass\n",
           ("tests/test_acceptance.py::"
            "test_parse_of_100k_distinct_pieces_keeps_the_piece_table_bounded",)),
    Mutant("a piece of any length is kept", "syntax.py",
           "if len(piece) <= _PIECE_LEN:", "if True:",
           ("tests/test_acceptance.py::"
            "test_long_pieces_are_not_kept_after_their_call",)),
    Mutant("every piece is read again", "syntax.py",
           "if r is None or r[2] > r[0] + len(stack):", "if True:",
           (_PARSE_ERRORS, _SYNTAX + "test_print_parse_roundtrip"),
           equivalent="reading a piece gives the same result every time; the"
           " cache only saves the work"),
    Mutant("a loop after a loop takes its place", "syntax.py",
           "    prefix, period = stack.pop()\n    if period is None:\n",
           "    prefix, period = stack.pop()\n    if True:\n",
           (_SYNTAX + "test_repetition_absorbs_tail",)),
    Mutant("iterating a list that ends in a loop drops its prefix", "syntax.py",
           "body_prefix, body_period = prefix, period",
           "body_prefix, body_period = [], period",
           (_SYNTAX + "test_nested_repetition_collapses",)),
    Mutant("a term read after a loop is kept", "syntax.py",
           "        elif period is None:\n            prefix.append(t.instruction)\n",
           "        else:\n            prefix.append(t.instruction)\n",
           (_SYNTAX + "test_repetition_absorbs_tail",)),
    # --- canonical forms -----------------------------------------------------
    Mutant("each prime is divided out only once", "syntax.py",
           "while d % f == 0 and period[d // f:] == period[:n - d // f]:",
           "if d % f == 0 and period[d // f:] == period[:n - d // f]:",
           (_SYNTAX + "test_repeated_power_collapses",)),
    Mutant("trial division steps over odd factors", "syntax.py",
           "        f += 1\n", "        f += 2\n",
           (_SYNTAX + "test_repeated_power_collapses",)),
    Mutant("a last prime factor of 2 is dropped", "syntax.py",
           "    if n > 1:\n        factors.append(n)", "    if n > 2:\n        factors.append(n)",
           (_SYNTAX + "test_repeated_power_collapses",)),
    Mutant("trial division goes on past the square root", "syntax.py",
           "while f * f <= n:", "while f + f <= n:",
           (_SYNTAX + "test_repeated_power_collapses", _SYNTAX + "test_canonical_idempotent"),
           equivalent="a prime factor above the square root is found either"
           " way, as the part of n left over or by a division"),
    Mutant("the rollback rotates the period the wrong way", "syntax.py",
           "period = period[m - r:] + period[:m - r]", "period = period[r:] + period[:r]",
           (_SYNTAX + "test_prefix_rollback_is_maximal",)),
    Mutant("the rollback stops one instruction short", "syntax.py",
           "while k < n and prefix[n - 1 - k] == period[-1 - k % m]:",
           "while k < n - 1 and prefix[n - 1 - k] == period[-1 - k % m]:",
           (_SYNTAX + "test_repetition_unfolds_once",)),
    Mutant("an empty sequence is allowed", "syntax.py",
           "        if not prefix and not period:\n", "        if False:\n",
           (_SYNTAX + "test_empty_program_rejected",)),
    Mutant("a jump is made without first looking it up", "syntax.py",
           "return _INTERNED.get((cls, (offset,))) or super().__new__(cls, offset)",
           "return super().__new__(cls, offset)",
           (_SYNTAX + "test_equal_instructions_are_one_object",),
           equivalent="the shared constructor looks the value up itself; the"
           " lookup here only saves a call"),
    Mutant("every number up to the root counts as a factor", "syntax.py",
           "        if n % f == 0:\n            factors.append(f)",
           "        if True:\n            factors.append(f)",
           (_SYNTAX + "test_repeated_power_collapses",),
           equivalent="a number that does not divide the period's length is"
           " never divided out, as the root search tests that first"),
    Mutant("a position at the prefix's end is taken as is", "syntax.py",
           "    if i < p:\n        return i\n", "    if i <= p:\n        return i\n",
           (_SYNTAX + "test_instruction_at_and_heads",),
           equivalent="index p is position p either way: the end of a finite"
           " sequence, or the first position of the period"),
    # --- shift normalization and jump expansion -------------------------------
    Mutant("a shift run adds nothing to the jump that ends it", "syntax.py",
           "out.append(Jump(u.offset + run))", "out.append(Jump(u.offset))",
           (_SYNTAX + "test_shift_boosts_following_jump",)),
    Mutant("a shift run carries on past a non-jump", "syntax.py",
           "            out.append(u)\n            run = 0\n",
           "            out.append(u)\n",
           (_SYNTAX + "test_shift_runs_fold_together",)),
    Mutant("a finite program's end gets no #0 to absorb its shifts", "syntax.py",
           "        prefix.append(Jump(0))\n", "",
           (_SYNTAX + "test_trailing_shift_boosts_virtual_terminal",)),
    Mutant("a period that ends in shifts is not rotated", "syntax.py",
           "    if k:\n        # rotate", "    if False:\n        # rotate",
           (_SYNTAX + "test_periodic_trailing_shifts_rotate",)),
    Mutant("the loop's first pass closes every prefix", "syntax.py",
           "if prefix and isinstance(prefix[-1], Shift):", "if prefix:",
           (_SYNTAX + "test_periodic_trailing_shifts_rotate",
            _SYNTAX + "test_normalize_removes_all_shifts", _SYNTAX + "test_normalize_idempotent"),
           equivalent="a prefix that ends in no shift absorbs to itself, and the"
           " canonical form rolls the copied pass back into the period"),
    Mutant("the expansion limit is exceeded by one", "syntax.py",
           "    if size > EXPANSION_LIMIT:\n        raise JumpOverflowError(\n"
           '            f"expanding',
           "    if size > EXPANSION_LIMIT + 1:\n        raise JumpOverflowError(\n"
           '            f"expanding',
           (_SYNTAX + "test_transform_refuses_expansions_over_the_limit",)),
    Mutant("a jump's own #0 is left out of the size", "syntax.py",
           "sum(u.offset * n for u, n in counts.items() if type(u) is Jump) + len(s)",
           "sum(u.offset * n for u, n in counts.items() if type(u) is Jump)",
           (_SYNTAX + "test_transform_refuses_expansions_over_the_limit",)),
    Mutant("a jump expands to one shift too few", "syntax.py",
           "u: (SHIFT,) * u.offset + (Jump(0),)", "u: (SHIFT,) * (u.offset - 1) + (Jump(0),)",
           (_SYNTAX + "test_transform_expands_jumps",)),
)


def _in_child(run, timeout=600):
    """The exit code of run() called in a forked copy of this process, with
    its output thrown away; 1 if it takes over `timeout` seconds."""
    sys.stdout.flush()
    pid = os.fork()
    if pid == 0:
        code = 3
        try:
            signal.alarm(timeout)
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, 1)
            os.dup2(devnull, 2)
            code = run()
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    return os.WEXITSTATUS(status) if os.WIFEXITED(status) else 1


def _pytest(ids, src, cwd):
    """0 when every named test passes, 1 when one fails or the run takes
    over ten minutes, None when pytest could not run them (a missing id,
    say).  The tests run in a forked child that imports `pgakit` from src;
    this process has imported pytest but never `pgakit`."""

    def run():
        os.environ["PYTHONPATH"] = src
        sys.path.insert(0, src)
        os.chdir(cwd)
        args = ["-q", "-x", "-p", "no:cacheprovider"] + [os.path.join(ROOT, i) for i in ids]
        return int(pytest.main(args))

    # 1: a test failed; 2: a collection error, such as a mutant that does
    # not import
    return {0: 0, 1: 1, 2: 1}.get(_in_child(run))


def _imports_from(src, cwd):
    def run():
        sys.path.insert(0, src)
        os.chdir(cwd)
        import pgakit

        return 0 if pgakit.__file__.startswith(src + os.sep) else 1

    return _in_child(run) == 0


def main():
    bad = 0
    # no bytecode of a mutated file, here or in a process a test starts
    sys.dont_write_bytecode = True
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(os.path.join(ROOT, "src"), src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        # hypothesis keeps its example database in the working directory
        work = os.path.join(tmp, "work")
        os.mkdir(work)
        if not _imports_from(src, work):
            print(f"pgakit does not import from the copy in {src}")
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
                    got = _pytest(m.tests, src, work)
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
