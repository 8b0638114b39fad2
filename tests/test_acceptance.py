"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with `pytest -v` for the per-criterion pass/fail listing; the printed
PASS lines additionally show under `pytest -s`.
"""

import random
import time
from functools import lru_cache

import pytest

from pgakit import (
    Basic,
    Budget,
    BudgetExceededError,
    DEADLOCK,
    HALT,
    InstructionSequence,
    Jump,
    PosTest,
    Post,
    ProgramSyntaxError,
    STOP,
    TAU,
    ThreadSpec,
    ThreadSyntaxError,
    abstract_tau,
    behaviour_via_counter,
    bisimilar,
    build_exec_mechanism,
    compile_spec,
    compose,
    corollary1_pipeline,
    counter_new,
    extract,
    extract_pgajs,
    normalize_shifts,
    parse_program,
    parse_thread,
    print_program,
    print_thread,
    run_exec,
    structurally_congruent,
    theorem3_witness,
    validate,
)
from pgakit.execmech import Alphabet
from pgakit.properties import PROPERTIES, draw_cases
from strategies import Branch, chain_spec, counter_peak, project, projections_agree, spec_pair

P = parse_program
T = parse_thread

a = Basic("f", "a")
b = Basic("f", "b")


def _report(name, started, limit=None):
    elapsed = time.monotonic() - started
    print(f"PASS {name} ({elapsed:.2f}s)")
    if limit is not None:
        assert elapsed < limit, f"{name} took {elapsed:.1f}s, limit {limit}s"


# --- criterion 1: one concrete instance per algebraic law -------------------

def _axiom_instances():
    from pgakit.syntax import Concat, Instr, Repeat, to_canonical
    from pgakit.syntax import Halt, Plain

    fa, fb = Plain(a), Plain(b)
    checks = []

    # sequence laws: associativity, power collapse, tail absorption, unfold
    checks.append(
        to_canonical(Concat(Concat(Instr(fa), Instr(fb)), Instr(Halt())))
        == to_canonical(Concat(Instr(fa), Concat(Instr(fb), Instr(Halt()))))
    )
    checks.append(P("(f.a; f.b; f.a; f.b)*") == P("(f.a; f.b)*"))
    checks.append(P("(f.a)*; f.b") == P("(f.a)*"))
    checks.append(P("(f.a; f.b)*") == P("f.a; (f.b; f.a)*"))

    # shift laws: boost a jump, vanish before others, all-shift repetition
    checks.append(normalize_shifts(P("~; #2; !")) == P("#3; !; #0"))
    checks.append(normalize_shifts(P("~; f.a")) == P("f.a; #0"))
    checks.append(normalize_shifts(P("(~)*")) == P("(#0)*"))

    # silent steps cannot branch
    checks.append(Post(TAU, "x", "y").else_ == "x")

    # a recursive spec equals its one-step unfolding
    spec = validate(ThreadSpec({"x": Post(a, "x", "x")}, "x"))
    unfolded = validate(
        ThreadSpec({"x0": Post(a, "x", "x"), "x": Post(a, "x", "x")}, "x0")
    )
    checks.append(bisimilar(spec, unfolded))

    # projection laws: depth zero, leaves survive, branches peel one level
    stop_spec = validate(ThreadSpec({"x": STOP}, "x"))
    dead_spec = validate(ThreadSpec({"x": DEADLOCK}, "x"))
    checks.append(project(stop_spec, 0) == DEADLOCK)
    checks.append(project(stop_spec, 4) == STOP)
    checks.append(project(dead_spec, 4) == DEADLOCK)
    ladder = validate(
        ThreadSpec({"x": Post(a, "y", "y"), "y": Post(b, "z", "z"), "z": STOP}, "x")
    )
    checks.append(
        project(ladder, 2)
        == Branch(a, Branch(b, DEADLOCK, DEADLOCK), Branch(b, DEADLOCK, DEADLOCK))
    )

    # composition laws: fixed leaves, silent pass, foreign focus pass,
    # reply-selected branches, blocked wedging
    cnt0 = counter_new(0)
    checks.append(bisimilar(compose(T("x = S"), "cnt", cnt0), T("x = S")))
    checks.append(bisimilar(compose(T("x = D"), "cnt", cnt0), T("x = D")))
    checks.append(
        bisimilar(compose(T("x = tau <y>\ny = S"), "cnt", cnt0), T("x = tau <y>\ny = S"))
    )
    foreign = T("x = <s> g.m <d>\ns = S\nd = D")
    checks.append(bisimilar(compose(foreign, "cnt", cnt0), foreign))
    sel = validate(ThreadSpec({"x": Post(Basic("cnt", "isz"), "s", "d"),
                               "s": STOP, "d": DEADLOCK}, "x"))
    checks.append(bisimilar(abstract_tau(compose(sel, "cnt", counter_new(0))), T("x = S")))
    checks.append(bisimilar(abstract_tau(compose(sel, "cnt", counter_new(2))), T("x = D")))
    blocked = validate(ThreadSpec({"x": Post(Basic("cnt", "foo"), "s", "s"), "s": STOP}, "x"))
    checks.append(bisimilar(compose(blocked, "cnt", cnt0), T("d = D")))

    # hiding laws: fixed leaves, silent prefix dropped, distribution,
    # endless silence is deadlock
    checks.append(bisimilar(abstract_tau(T("x = S")), T("x = S")))
    checks.append(bisimilar(abstract_tau(T("x = D")), T("x = D")))
    checks.append(
        bisimilar(
            abstract_tau(T("x = tau <y>\ny = <z> f.a <z>\nz = S")),
            T("y = <z> f.a <z>\nz = S"),
        )
    )
    dist = T("x = <p> f.a <q>\np = tau <s>\nq = tau <d>\ns = S\nd = D")
    checks.append(bisimilar(abstract_tau(dist), T("x = <s> f.a <d>\ns = S\nd = D")))
    checks.append(bisimilar(abstract_tau(T("x = tau <x>")), T("d = D")))

    return checks


def test_criterion_1_axiom_instances():
    started = time.monotonic()
    results = _axiom_instances()
    assert all(results), [i for i, ok in enumerate(results) if not ok]
    _report("criterion-1 axiom-instances", started, limit=1.0)


# --- criterion 2: jump-free transformation preserves behaviour --------------

def _assert_holds(name, cases):
    prop = PROPERTIES[name]
    for case in cases:
        assert prop.check(case), prop.show(case)


def test_criterion_2_transform_property():
    started = time.monotonic()
    _assert_holds("transform", draw_cases(PROPERTIES["transform"], 2024, 1000))
    _report("criterion-2 jump-expansion 1000 programs", started, limit=60.0)


# --- criterion 3: counter-driven extraction ---------------------------------

@lru_cache(maxsize=1)
def _zero_jump_corpus():
    return tuple(draw_cases(PROPERTIES["counter"], 2025, 500))


def test_criterion_3_counter_extraction_property():
    started = time.monotonic()
    _assert_holds("counter", _zero_jump_corpus())
    for p in _zero_jump_corpus():
        assert counter_peak(p) <= len(p) + 2, print_program(p)
    _report("criterion-3 counter-driven extraction 500 programs", started, limit=120.0)


# --- criterion 4: program-independent execution mechanism -------------------

def test_criterion_4_execution_mechanism():
    started = time.monotonic()
    _assert_holds("exec", _zero_jump_corpus())
    # the mechanism depends on the alphabet alone
    one = build_exec_mechanism(Alphabet.from_sequence(P("f.a; +f.b; !")))
    other = build_exec_mechanism(Alphabet.from_sequence(P("(-f.b; ~; #0; f.a)*")))
    assert one.states == other.states and one.root == other.root
    sizes = set()
    for m in (1, 2, 3):
        basics = [Basic("f", chr(ord("a") + i)) for i in range(m)]
        mech = build_exec_mechanism(Alphabet.from_basics(basics))
        sizes.add(len(mech.states) - 16 * m)
    assert sizes == {16}, sizes
    _report("criterion-4 execution mechanism 500 programs", started, limit=180.0)


# --- criterion 5: compile and run back --------------------------------------

def test_criterion_5_compile_roundtrip():
    started = time.monotonic()
    _assert_holds("roundtrip", draw_cases(PROPERTIES["roundtrip"], 2026, 200))
    _report("criterion-5 compile roundtrip 200 specs", started, limit=60.0)


# --- criterion 6: pathologies ------------------------------------------------

def test_criterion_6_pathologies():
    started = time.monotonic()
    dead = T("d = D")
    assert bisimilar(extract(P("(#1)*")), dead)
    assert bisimilar(extract_pgajs(P("(~)*")), dead)
    assert bisimilar(extract_pgajs(P("f.a; ~")), extract(P("f.a; #1; #0")))
    assert bisimilar(abstract_tau(T("x = tau <x>")), dead)
    assert bisimilar(extract(P("#5; !")), dead)
    _report("criterion-6 pathologies", started)


# --- criterion 7: equivalence oracle agreement -------------------------------

def test_criterion_7_oracle_agreement():
    started = time.monotonic()
    rng = random.Random(2027)
    for _ in range(300):
        s1, s2 = spec_pair(rng, max_states=6)
        depth = len(s1.states) * len(s2.states) + 1
        assert bisimilar(s1, s2) == projections_agree(s1, s2, depth)
    _report("criterion-7 oracle agreement 300 pairs", started)


# --- bisimilarity at scale ---------------------------------------------------

def test_bisimilar_chains_of_100k_states():
    rng = random.Random(2039)
    labels = [rng.choice((a, b)) for _ in range(10**5 - 1)]
    base = chain_spec(labels, STOP, "c")
    renamed = chain_spec(labels, STOP, "e")
    other_tail = chain_spec(labels, DEADLOCK, "d")
    started = time.monotonic()
    assert not bisimilar(base, other_tail)
    assert bisimilar(base, renamed)
    _report("bisimilar 100k-state chains", started, limit=10.0)


# --- the text front end at scale ---------------------------------------------

def test_stars_nested_ten_thousand_deep():
    from pgakit.syntax import Instr, Plain, Repeat, to_canonical

    n = 10**4
    term = Instr(Plain(a))
    for _ in range(n):
        term = Repeat(term)
    started = time.monotonic()
    assert P("(" * n + "f.a" + ")*" * n) == P("(f.a)*")
    assert to_canonical(term) == P("(f.a)*")
    with pytest.raises(ProgramSyntaxError):
        P("(" * n + "f.a" + ")*" * (n - 1))
    _report("stars nested 10^4 deep", started, limit=2.0)


def test_print_parse_roundtrip_of_100k_instructions():
    p = corollary1_pipeline(theorem3_witness(39))
    assert len(p) == 112_717
    started = time.monotonic()
    assert P(print_program(p)) == p
    _report("print-parse round trip 112,717 instructions", started, limit=2.0)


def test_parse_of_100k_distinct_pieces_keeps_the_piece_table_bounded():
    from pgakit.syntax import _PIECES, _PIECES_MAX

    n = 10**5
    text = "; ".join(f"#{i}" for i in range(1, n + 1))
    started = time.monotonic()
    s = P(text)
    _report("parse of 10^5 distinct jumps", started, limit=3.0)
    assert s == InstructionSequence(tuple(map(Jump, range(1, n + 1))), ())
    assert len(_PIECES) <= _PIECES_MAX


def test_long_pieces_are_not_kept_after_their_call():
    from pgakit.syntax import _PIECES, _PIECES_MAX, _PIECE_LEN, Plain

    run = " " * 10**5
    started = time.monotonic()
    for n in range(1, 21):
        assert P(f"f.a;{run}#{n}") == InstructionSequence((Plain(a), Jump(n)), ())
    _report("20 parses with a 10^5-space piece", started, limit=1.0)
    assert sum(map(len, _PIECES)) <= _PIECES_MAX * _PIECE_LEN


def test_thread_lines_with_long_whitespace_runs():
    run = " " * 10**5
    started = time.monotonic()
    assert T("x = <x>" + run + "f.a <x>") == ThreadSpec({"x": Post(a, "x", "x")}, "x")
    _report("thread line with 10^5 spaces", started, limit=1.0)
    bad = "<x> f.a" + run + "<x"
    started = time.monotonic()
    with pytest.raises(ThreadSyntaxError) as failed:
        T("x = " + bad)
    _report("bad thread line with 10^5 spaces", started, limit=1.0)
    assert str(failed.value) == f"line 1: cannot parse body {bad!r}"


def test_thread_text_of_100k_commented_crlf_lines():
    # a comment and a CRLF ending on every line: the text is read line by line
    n = 10**5
    spec = chain_spec(([a, b] * n)[: n - 1], STOP)
    text = "".join(line + " # c\r\n" for line in print_thread(spec).split("\n"))
    started = time.monotonic()
    assert T(text) == spec
    _report("thread text of 10^5 commented CRLF lines", started, limit=2.0)


def test_rollback_of_100k_distinct_jumps():
    # a prefix equal to the period rolls into it whole, in one rotation
    units = tuple(Jump(i) for i in range(100_000))
    started = time.monotonic()
    s = InstructionSequence(units, units)
    assert s.prefix == () and s.period == units
    _report("rollback of 100,000 distinct jumps", started, limit=2.0)


# --- extraction at scale -----------------------------------------------------

def test_extraction_of_a_100k_jump_ladder():
    # (+f.a; #2) repeated, then !: each jump runs through all the jumps
    # after it, and the last one jumps past the end, so every one deadlocks
    k = 50_000
    ladder = InstructionSequence((PosTest(a), Jump(2)) * k + (HALT,), ())
    collapsed = InstructionSequence((PosTest(a), Jump(0)) * k + (HALT,), ())
    states = {"X0": Post(a, "X1", "X2"), "X1": DEADLOCK, f"X{k + 1}": STOP}
    for i in range(2, k + 1):
        states[f"X{i}"] = Post(a, "X1", f"X{i + 1}")
    started = time.monotonic()
    spec = extract_pgajs(ladder)
    _report("extraction of a 100,001-instruction jump ladder", started, limit=2.0)
    assert spec == ThreadSpec(states, "X0")
    started = time.monotonic()
    assert structurally_congruent(ladder, collapsed)
    _report("structural congruence of a 100,001-instruction jump ladder", started, limit=2.0)


# --- the compile round trip at scale -----------------------------------------

def test_round_trip_of_a_100k_state_deep_spec():
    # s{i} goes on to s{i+1} on True and at most four states ahead on False
    rng = random.Random(2054)
    n = 10**5
    states = {}
    for i in range(n - 1):
        jump = min(n - 1, i + rng.randint(1, 4))
        states[f"s{i}"] = Post(rng.choice((a, b)), f"s{i + 1}", f"s{jump}")
    states[f"s{n - 1}"] = STOP
    spec = ThreadSpec(states, "s0")
    started = time.monotonic()
    parsed = T(print_thread(spec))
    assert parsed == spec
    p = compile_spec(parsed)
    assert len(p) == 3 * n
    read = P(print_program(p))
    assert read == p
    assert bisimilar(extract(read), spec)
    _report("compile round trip of a 100,000-state deep spec", started, limit=10.0)


# --- criterion 8: stress family ----------------------------------------------

def test_criterion_8_witness_stress():
    started = time.monotonic()
    for n in (1, 2, 3):
        w = theorem3_witness(n)
        p = corollary1_pipeline(w)
        assert bisimilar(extract_pgajs(p), w)
        assert bisimilar(behaviour_via_counter(p), w)
    _report("criterion-8 witness stress n=1..3", started, limit=30.0)


# --- stress family through the execution mechanism ---------------------------

def test_witness_exec_n4_to_6():
    started = time.monotonic()
    for n in (4, 5, 6):
        w = theorem3_witness(n)
        p = corollary1_pipeline(w)
        assert bisimilar(run_exec(p), w)
        assert bisimilar(behaviour_via_counter(p), w)
    _report("witness-exec n=4..6", started, limit=30.0)


def test_witness_exec_n30():
    w = theorem3_witness(30)
    p = corollary1_pipeline(w)
    assert len(p) == 54_853
    started = time.monotonic()
    # the budgets are the exact walks, with rounds taken in one step: one
    # configuration fewer runs out
    assert bisimilar(run_exec(p, Budget(5_395)), w)
    with pytest.raises(BudgetExceededError):
        run_exec(p, Budget(5_394))
    w = theorem3_witness(39)
    p = corollary1_pipeline(w)
    assert len(p) == 112_717
    assert bisimilar(run_exec(p, Budget(8_581)), w)
    with pytest.raises(BudgetExceededError):
        run_exec(p, Budget(8_580))
    _report("witness-exec n=30 and n=39, 54,853 and 112,717 instructions", started,
            limit=10.0)
