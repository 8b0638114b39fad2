import pytest
from hypothesis import given, settings

from pgakit import (
    Alphabet,
    AlphabetError,
    AlphabetMismatchError,
    Basic,
    Budget,
    BudgetExceededError,
    DEADLOCK,
    Halt,
    InstructionSequence,
    Jump,
    NotPgajs0Error,
    Plain,
    PosTest,
    Reply,
    SHIFT,
    ThreadSpec,
    bisimilar,
    build_exec_mechanism,
    compose,
    extract_pgajs,
    parse_program,
    parse_thread,
    pgs_new,
    print_thread,
    run_exec,
    theorem3_witness,
    corollary1_pipeline,
    behaviour_via_counter,
    abstract_tau,
    counter_new,
)
from pgakit.execmech import PgsService, _control, _explore, _rounds, _tables
from pgakit.properties import PROPERTIES, draw_cases

from strategies import programs

P = parse_program
fa = Basic("f", "a")
fb = Basic("f", "b")


# alphabet
def test_alphabet_from_basics_is_sorted_and_complete():
    alpha = Alphabet.from_basics([fb, fa])
    txts = [str(u) if not hasattr(u, "basic") else None for u in alpha.instructions]
    # all three instruction forms per basic, in (focus, method) order
    assert alpha.instructions[0] == Plain(fa)
    assert Plain(fb) in alpha.instructions
    assert PosTest(fa) in alpha.instructions
    assert Jump(0) in alpha.instructions
    assert Halt() in alpha.instructions
    assert SHIFT in alpha.instructions
    assert len(alpha.instructions) == 3 * 2 + 3


def test_alphabet_from_sequence():
    alpha = Alphabet.from_sequence(P("+f.a; ~; #0; f.b"))
    assert len(alpha.instructions) == 3 * 2 + 3


def test_alphabet_rejects_basics_that_print_alike():
    # an hdeq query names an instruction by its text
    for pair in ([Basic("f.a", "b"), Basic("f", "a.b")], [Basic("+f", "a"), fa]):
        with pytest.raises(AlphabetError):
            Alphabet.from_basics(pair)
    with pytest.raises(AlphabetError):
        Alphabet((fa, fa))


def test_alphabet_rejects_reserved_foci():
    with pytest.raises(AlphabetError):
        Alphabet.from_basics([Basic("cnt", "inc")])


def test_alphabet_is_one_object_per_set_of_basics():
    # programs over the same basics share their alphabet, in any order
    one = pgs_new(P("f.a; +f.b; !")).alphabet
    assert pgs_new(P("(-f.b; #0; f.a)*")).alphabet is one
    assert Alphabet.from_basics([fb, fa, fb]) is one
    assert pgs_new(P("f.a; !")).alphabet is not one
    # a refused set raises on the first build and again on every later call
    alike = InstructionSequence((Plain(Basic("f.a", "b")), Plain(Basic("f", "a.b"))), ())
    for _ in range(3):
        with pytest.raises(AlphabetError):
            Alphabet.from_basics([Basic("cnt", "inc")])
        with pytest.raises(AlphabetError):
            pgs_new(alike)
    # an explicit alphabet wins over the program's own
    wide = Alphabet.from_basics([fa, fb, Basic("g", "m")])
    assert pgs_new(P("f.a; +f.b; !"), wide).alphabet is wide
    assert print_thread(run_exec(P("f.a; +f.b; !"), alphabet=wide)) == print_thread(
        run_exec(P("f.a; +f.b; !")))


def test_alphabet_membership():
    alpha = Alphabet.from_basics([fa])
    assert Plain(fa) in alpha.instructions
    assert Plain(fb) not in alpha.instructions


# program service
def test_pgs_head_queries():
    svc = pgs_new(P("+f.a; !"))
    _, r = svc.apply("hdeq:+f.a")
    assert r == Reply.TRUE
    _, r = svc.apply("hdeq:!")
    assert r == Reply.FALSE
    _, r = svc.apply("hdeq:~")
    assert r == Reply.FALSE


def test_pgs_drop_advances():
    svc = pgs_new(P("f.a; !"))
    svc, r = svc.apply("drop")
    assert r == Reply.TRUE
    _, r = svc.apply("hdeq:!")
    assert r == Reply.TRUE


def test_pgs_empty_program_replies_false():
    svc = pgs_new(P("f.a"))
    svc, r = svc.apply("drop")
    assert r == Reply.TRUE
    svc, r = svc.apply("drop")
    assert r == Reply.FALSE
    _, r = svc.apply("hdeq:f.a")
    assert r == Reply.FALSE


def test_pgs_periodic_never_exhausts():
    svc = pgs_new(P("(f.a; f.b)*"))
    for expect in ("hdeq:f.a", "hdeq:f.b", "hdeq:f.a"):
        _, r = svc.apply(expect)
        assert r == Reply.TRUE
        svc, _ = svc.apply("drop")


def test_pgs_blocks_outside_alphabet():
    # by default the alphabet is the program's own, so g.m is not admitted
    own = pgs_new(P("f.a; !"))
    _, r = own.apply("hdeq:g.m")
    assert r == Reply.BLOCKED
    _, r = own.apply("hdeq: f.a")
    assert r == Reply.BLOCKED
    # a wider alphabet answers for all its instructions
    wide = pgs_new(P("f.a; !"), Alphabet.from_basics([fa, Basic("g", "m")]))
    _, r = wide.apply("hdeq:g.m")
    assert r == Reply.FALSE
    # a service wedges on queries its alphabet does not admit
    svc = pgs_new(P("f.a; !"), Alphabet.from_basics([fa]))
    _, r = svc.apply("hdeq:g.m")
    assert r == Reply.BLOCKED
    _, r = svc.apply("hdeq:not an instruction")
    assert r == Reply.BLOCKED
    bad, r = svc.apply("frob")
    assert r == Reply.BLOCKED
    _, r = bad.apply("drop")
    assert r == Reply.BLOCKED


def test_pgs_key_tracks_residue():
    svc = pgs_new(P("f.a; !"))
    svc2, _ = svc.apply("drop")
    assert svc.key() != svc2.key()


def test_pgs_key_names_the_position():
    svc = pgs_new(P("f.a; (f.b; !)*"))
    keys = []
    for _ in range(5):
        keys.append(svc.key())
        svc, _ = svc.apply("drop")
    # a periodic sequence wraps back into its period
    assert keys == ["pgs:0", "pgs:1", "pgs:2", "pgs:1", "pgs:2"]
    fin = pgs_new(P("f.a; !"))
    fin, _ = fin.apply("drop")
    fin, _ = fin.apply("drop")
    assert fin.key() == "pgs:eps"
    wedged, _ = fin.apply("frob")
    assert wedged.key() == "pgs:undef"


# the mechanism
def test_mechanism_size_formula():
    # by name prefix: the dispatch chain q, the enactments e, the skip loop
    # s, and the rest (gend and dead)
    for m in (0, 1, 2, 3):
        basics = [Basic("f", chr(ord("a") + i)) for i in range(m)]
        mech = build_exec_mechanism(Alphabet.from_basics(basics))
        assert len(mech.states) == 16 * m + 16
        parts = {"q": 0, "e": 0, "s": 0, "rest": 0}
        for name in mech.states:
            parts[name[0] if name[0] in parts else "rest"] += 1
        assert parts == {"q": 3 * m + 3, "e": 13 * m + 5, "s": 6, "rest": 2}


def test_mechanism_is_program_independent():
    # any two programs over the same basics induce the identical mechanism
    a = Alphabet.from_sequence(P("f.a; +f.b; !"))
    b = Alphabet.from_sequence(P("(-f.b; ~; #0; f.a)*"))
    assert a == b
    ma = build_exec_mechanism(a)
    mb = build_exec_mechanism(b)
    assert ma.states == mb.states and ma.root == mb.root


def test_run_exec_examples():
    # in the last, f.a clears the count its shift left, so the #0 deadlocks
    for txt in ("!", "f.a; !", "~; #0; !", "(+f.a; ~; #0; !)*", "+f.a; ~; f.b",
                "(f.a)*", "#0", "+f.a; f.b; ~; #0; f.b", "~; f.a; #0; f.b"):
        p = P(txt)
        assert bisimilar(run_exec(p), extract_pgajs(p)), txt


def _over(b, p):
    """p with its basic f.x replaced by b."""
    def sub(u):
        return type(u)(b) if getattr(u, "basic", None) == Basic("f", "x") else u
    return InstructionSequence(tuple(map(sub, p.prefix)), tuple(map(sub, p.period)))


def test_run_exec_over_basics_that_do_not_parse_back():
    # the mechanism names instructions by their text; these texts do not
    # parse back to the same basic, but still name it in a query
    compiled = corollary1_pipeline(parse_thread("s0 = <s1> f.x <s0>\ns1 = S"))
    for b in (Basic("f", "a-b"), Basic("f.a", "b")):
        for p in (_over(b, compiled), InstructionSequence((Plain(b), Halt()), ())):
            assert bisimilar(run_exec(p), extract_pgajs(p)), (b, p)
            assert print_thread(run_exec(p)) == _fresh(p), (b, p)
        assert pgs_new(p).apply("hdeq:" + str(b))[1] == Reply.TRUE


# one control per alphabet, shared by the calls over it
def _fresh(p, alphabet=None):
    """The printed thread of p run by a control built for this call alone."""
    alphabet = alphabet or Alphabet.from_sequence(p)
    control = _tables(build_exec_mechanism(alphabet), alphabet)
    return print_thread(_explore(control, p, Budget()))


def test_shared_control_changes_no_output():
    corpus = draw_cases(PROPERTIES["exec"], 2025, 500)
    corpus += [corollary1_pipeline(theorem3_witness(n)) for n in range(1, 7)]
    fresh = [_fresh(p) for p in corpus]
    _control.cache_clear()
    assert [print_thread(run_exec(p)) for p in corpus] == fresh  # cold
    assert [print_thread(run_exec(p)) for p in corpus] == fresh  # warm
    assert [print_thread(run_exec(p)) for p in reversed(corpus)] == fresh[::-1]
    wide = Alphabet.from_basics([fa, fb, Basic("f", "c"), Basic("g", "m")])
    for p in corpus:
        assert print_thread(run_exec(p, alphabet=wide)) == _fresh(p, wide)


def test_control_is_built_once_per_alphabet(monkeypatch):
    built = []

    def tables(mech, alphabet):
        built.append(mech)
        return _tables(mech, alphabet)

    monkeypatch.setattr("pgakit.execmech._tables", tables)
    _control.cache_clear()
    for i in range(10):
        run_exec(P("f.a; " + "~; " * i + "!"))
        run_exec(P("+f.b; " + "~; " * i + "#0; f.a"))
    assert len(built) == 2
    # more alphabets than the cache holds: each comes back after eviction
    size = _control.cache_info().maxsize
    programs = [P(f"f.a; g{i}.m; !") for i in range(size + 3)]
    for p in programs + programs:
        assert print_thread(run_exec(p)) == _fresh(p), p
    assert len(built) == 2 + 2 * len(programs)
    assert _control.cache_info().currsize == size


# The configurations run_exec walks on corollary1_pipeline(theorem3_witness(n)),
# with shift runs and skipping countdowns taken in one step (n = 30 and 39
# are in the acceptance tests)
_WALKS = {1: 88, 2: 145, 3: 211, 4: 286, 5: 370, 6: 463, 10: 925}


def test_control_is_sound_after_a_budget_error():
    w = theorem3_witness(2)
    p = corollary1_pipeline(w)
    _control.cache_clear()
    with pytest.raises(BudgetExceededError):
        run_exec(p, Budget(50))
    assert bisimilar(run_exec(p, Budget(431)), w)
    # every budget short of the walk runs out, in the segment that crosses
    # it, each with the segments and rounds filled so far kept
    want = _fresh(p)
    _control.cache_clear()
    for budget in range(1, _WALKS[2]):
        with pytest.raises(BudgetExceededError):
            run_exec(p, Budget(budget))
        assert print_thread(run_exec(p)) == want, budget


def _values(x):
    """Everything a nest of tuples, lists and dicts holds, keys too."""
    todo, seen = [x], []
    while todo:
        x = todo.pop()
        seen.append(x)
        if isinstance(x, dict):
            todo += list(x) + list(x.values())
        elif isinstance(x, (tuple, list)):
            todo += x
    return seen


def test_segments_hold_nothing_of_a_program():
    # keyed by (state, instruction, min(counter, K)), and the rounds by
    # state, with a weight per instruction: no position and no program, so
    # every program over the alphabet shares them
    first, second = P("f.a; (+f.b; ~; ~; #0; f.a; -f.a)*"), P("(~; ~; -f.b; #0; f.a; !)*")
    alphabet = pgs_new(first).alphabet
    assert pgs_new(second).alphabet is alphabet
    _control.cache_clear()
    run_exec(first)
    segments = _control(alphabet).segments
    keys = [(m, h, i) for m, table in enumerate(segments)
            for h, (k, slots) in table.items() for i, seg in enumerate(slots) if seg]
    assert keys
    units = set(alphabet.instructions) | {None}
    assert all(h in units and 0 <= i for _, h, i in keys)
    rounds = _control(alphabet).rounds
    assert any(rounds.values())
    for weights in filter(None, rounds.values()):
        bare, size, sign, low = weights
        assert len(bare) == len(size) == len(units) and sign in (-1, 0, 1), weights
    for x in _values(segments) + _values(rounds):
        assert not isinstance(x, (InstructionSequence, PgsService)), x
    warm = print_thread(run_exec(second))
    _control.cache_clear()
    assert print_thread(run_exec(second)) == warm == _fresh(second)


def test_rounds_of_the_built_mechanism():
    # Of the states a drop lands in (the skipping loop, the state after a
    # guarded shift's drop and one per basic instruction), two have rounds:
    # the skipping loop's keep the counter over a shift and lower it by one
    # over any other instruction and at the end, testing it down to one
    # below its value on entry; the one after a shift's drop adds one over a
    # shift, untested.
    for basics in ([fa], [fa, fb]):
        alphabet = Alphabet.from_basics(basics)
        mech = build_exec_mechanism(alphabet)
        control = _tables(mech, alphabet)
        sids = list(mech.states)
        landings = {t for m, method in enumerate(control.methods) if method == "drop"
                    for t in (control.thens[m], control.elses[m])}
        got = {sids[m]: _rounds(control, m) for m in landings}
        assert len(got) == len(basics) * 3 + 2
        shift = [int(h is SHIFT) for h in control.units]
        others = [1 - x for x in shift]
        after_shift = f"e{alphabet.instructions.index(SHIFT)}b"
        assert {sid: rounds for sid, rounds in got.items() if rounds} == {
            "sq": ((0,) * len(shift), tuple(others), -1, -1),
            after_shift: (tuple(others), tuple(shift), 1, None),
        }
        assert control.rounds == {m: got[sids[m]] for m in landings}


def test_run_exec_rejects_positive_jumps():
    with pytest.raises(NotPgajs0Error):
        run_exec(P("#3; !"))


def test_run_exec_alphabet_mismatch():
    with pytest.raises(AlphabetMismatchError):
        run_exec(P("g.m; !"), alphabet=Alphabet.from_basics([fa]))


def test_run_exec_budget_counts_configurations():
    p = corollary1_pipeline(theorem3_witness(2))
    with pytest.raises(BudgetExceededError, match="run_exec"):
        run_exec(p, Budget(50))
    # the budget counts configurations walked, not product states: the
    # program-service product alone is larger
    assert bisimilar(run_exec(p, Budget(2500)), theorem3_witness(2))
    pgs = pgs_new(p)
    with pytest.raises(BudgetExceededError):
        compose(build_exec_mechanism(pgs.alphabet), "pgs", pgs, Budget(2500))


def test_run_exec_fits_the_budgets_of_its_one_step_rounds():
    # one configuration fewer than the walk runs out
    for n, budget in _WALKS.items():
        w = theorem3_witness(n)
        assert bisimilar(run_exec(corollary1_pipeline(w), Budget(budget)), w), n
        with pytest.raises(BudgetExceededError):
            run_exec(corollary1_pipeline(w), Budget(budget - 1))


def test_run_exec_counts_where_walks_meet_or_come_back():
    # In (~)* the shift's drop lands where the rounds over a shift cover
    # every position, so none stops them: deadlock, after the one
    # configuration of the drop.
    p = P("(~)*")
    assert bisimilar(run_exec(p, Budget(1)), extract_pgajs(p))
    # In the others the walks after a test's two branches join inside a
    # segment: where one reads the test again, and after the clr that both
    # take.  Walks look each other up only where segments start, so the
    # later walk runs on to the end of the segment it joins in.
    for txt, walk in (("~; (+f.b)*", 16), ("~; (~; -f.a)*", 19)):
        p = P(txt)
        assert bisimilar(run_exec(p, Budget(walk)), extract_pgajs(p)), txt
        with pytest.raises(BudgetExceededError):
            run_exec(p, Budget(walk - 1))


def test_run_exec_counts_down_past_non_shifts_in_one_step():
    # a #0 after 5,000 jump-shifts skips on over non-shifts only, into the end
    # of a finite program or round a period; one value at a time it walked
    # three configurations per value
    shifts = (SHIFT,) * 5000 + (Jump(0), Plain(fa))
    for period in ((), (Plain(fa),), (Plain(fa), PosTest(fa))):
        p = InstructionSequence(shifts, period)
        assert bisimilar(run_exec(p, Budget(30)), extract_pgajs(p)), period


# Hand-made controls for the explorer.  Each runs one round per position,
# picked by `hdeq` queries; a counter step that finds zero shows g.zero, and
# at the end of the program the counter is shown as that many g.tick.
_SHOW_COUNTER = """
e = <t> cnt.dec <s>
t = <e> g.tick <e>
z = <s> g.zero <s>
s = S"""


def _assert_explorer_matches_product(control, units, period=()):
    mech = parse_thread(control + _SHOW_COUNTER)
    p = InstructionSequence(units, period)
    product = compose(compose(mech, "pgs", pgs_new(p)), "cnt", counter_new(0))
    got = _explore(_tables(mech, Alphabet.from_sequence(p)), p, Budget())
    assert bisimilar(got, abstract_tau(product))
    return print_thread(got)


def test_explorer_walks_rounds_step_by_step_when_one_would_find_zero():
    # a round over a shift tests the counter at c, one over f.a at c and
    # c - 1; with counter 1 at a run of f.a, that run is not taken at once
    control = """r = <a1> pgs.hdeq:~ <r2>
a1 = <a2> cnt.dec <z>
a2 = <a3> cnt.inc <a3>
a3 = <r> pgs.drop <r>
r2 = <b1> pgs.hdeq:f.a <r3>
b1 = <b2> cnt.dec <z>
b2 = <b3> cnt.dec <z>
b3 = <b4> cnt.inc <b4>
b4 = <b5> cnt.inc <b5>
b5 = <r> pgs.drop <r>
r3 = <u1> pgs.hdeq:! <r4>
u1 = <u2> cnt.inc <u2>
u2 = <u3> g.up <u3>
u3 = <r> pgs.drop <r>
r4 = <d1> pgs.hdeq:#0 <e>
d1 = <d2> cnt.dec <z>
d2 = <d3> g.down <d3>
d3 = <r> pgs.drop <r>"""
    units = (Halt(), Halt(), Plain(fa), SHIFT, Jump(0), SHIFT, Plain(fa), Plain(fa))
    _assert_explorer_matches_product(control, units)


def test_explorer_walks_rounds_step_by_step_when_they_move_the_counter_both_ways():
    # a round over a shift adds one, one over f.a takes one away
    control = """r = <a1> pgs.hdeq:~ <r2>
a1 = <a2> cnt.inc <a2>
a2 = <r> pgs.drop <r>
r2 = <b1> pgs.hdeq:f.a <e>
b1 = <b2> cnt.dec <z>
b2 = <r> pgs.drop <r>"""
    units = (SHIFT, SHIFT, Plain(fa), SHIFT, SHIFT, Plain(fa), SHIFT, Plain(fa))
    _assert_explorer_matches_product(control, units)


def test_explorer_keeps_no_round_whose_test_found_zero():
    # a round over f.a shows g.nz unless the counter is zero, one over f.b
    # adds one; the first two f.a find zero, the last two find one
    control = """r = <k> pgs.hdeq:f.a <r2>
k = <k1> cnt.isz <n1>
k1 = <r> pgs.drop <r>
n1 = <n2> g.nz <n2>
n2 = <r> pgs.drop <r>
r2 = <b1> pgs.hdeq:f.b <e>
b1 = <b2> cnt.inc <b2>
b2 = <r> pgs.drop <r>"""
    units = (Plain(fa), Plain(fa), Plain(fb), Plain(fa), Plain(fa))
    _assert_explorer_matches_product(control, units)


def test_explorer_deadlocks_on_rounds_that_never_stop():
    # a round over f.a adds two and takes one away, so its test never finds
    # zero: round the period forever, with the counter growing, is deadlock
    control = """r = <a1> pgs.hdeq:f.a <e>
a1 = <a2> cnt.inc <a2>
a2 = <a3> cnt.inc <a3>
a3 = <a4> cnt.dec <z>
a4 = <r> pgs.drop <r>"""
    mech = parse_thread(control + _SHOW_COUNTER)
    p = InstructionSequence((), (Plain(fa),))
    got = _explore(_tables(mech, Alphabet.from_sequence(p)), p, Budget(100))
    assert bisimilar(got, ThreadSpec({"d": DEADLOCK}, "d"))


def test_explorer_forgets_its_walk_after_rounds_that_tested_the_counter():
    # Three incs load the counter; an f.a round tests and lowers it, and f.b
    # takes two drops, so it is no round.  From position 0 with counter 3,
    # the walk passes r, drops twice to r at position 2, and takes the two
    # f.a rounds ahead in one step, back to r at position 0 with counter 1.
    # The walk there is new, as the rounds taken tested the counter: the
    # next time round an f.a finds zero.  Taken for a silent loop, it would
    # end in deadlock.
    control = """i = <j> cnt.inc <j>
j = <k> cnt.inc <k>
k = <r> cnt.inc <r>
r = <a1> pgs.hdeq:f.a <r2>
a1 = <a2> cnt.dec <z>
a2 = <r> pgs.drop <r>
r2 = <b1> pgs.hdeq:f.b <e>
b1 = <r1> pgs.drop <r1>
r1 = <r> pgs.drop <r>"""
    got = _assert_explorer_matches_product(control, (), (Plain(fb), Plain(fa), Plain(fa)))
    assert got == "X0 = <X1> g.zero <X1>\nX1 = S"


def test_explorer_deadlocks_on_a_blocked_reply_or_a_cycle_of_queries():
    # a counter method it does not know wedges the counter, a query outside
    # the alphabet the program service; queries that lead back to the first
    # one never reach a step that moves
    for step in ("q = <s> cnt.frob <s>", "q = <s> pgs.hdeq:g.a <s>",
                 "q = <q2> pgs.hdeq:f.b <q2>\nq2 = <q> pgs.hdeq:! <q>"):
        control = "r = <q> g.go <q>\n" + step
        got = _assert_explorer_matches_product(control, (Plain(fa), Halt()))
        assert got == "X0 = <X1> g.go <X1>\nX1 = D", step


def test_explorer_forgets_the_states_it_passed_at_each_test():
    # r drops to the end of the program, where b's drop fails; the walk
    # tests the counter and comes back to b with counter one, which the isz
    # then finds: the test in between makes that no loop
    control = """r = <b> pgs.drop <b>
b = <d> pgs.drop <d>
d = <u> cnt.isz <w>
u = <b> cnt.inc <b>
w = <w2> g.done <w2>
w2 = S"""
    got = _assert_explorer_matches_product(control, (Plain(fa),))
    assert got == "X0 = <X1> g.done <X1>\nX1 = S"


def test_explorer_counts_where_the_root_or_a_dec_is_a_second_way_in():
    # The walk after r's action reaches r again, which the root walk passed;
    # after q's action two walks reach b, one by each branch of a's dec.
    # Each later walk meets the earlier one at the end of a segment, not
    # where one starts, so it walks the configuration where they meet too.
    p = P("f.a")
    for control, walk in (
        ("r = <a> g.x <a>\na = <r> cnt.isz <s>\ns = S", 3),
        ("q = <i> g.x <a>\ni = <a> cnt.inc <a>\na = <b> cnt.dec <b>\n"
         "b = <s> g.y <s>\ns = S", 7),
    ):
        mech = parse_thread(control)
        product = compose(compose(mech, "pgs", pgs_new(p)), "cnt", counter_new(0))
        alphabet = Alphabet.from_sequence(p)
        got = _explore(_tables(mech, alphabet), p, Budget(walk))
        assert bisimilar(got, abstract_tau(product)), control
        with pytest.raises(BudgetExceededError):
            _explore(_tables(mech, alphabet), p, Budget(walk - 1))


def test_explorer_takes_rounds_by_where_their_drop_leads_and_not_through_a_clr():
    # Each round adds one and drops back; at the end of the program the
    # drop fails and leads to where the counter is shown, so the end is no
    # round.  A round through a clr sets the counter to one, whatever it
    # was, and the end shows it.
    for control, ticks in (
        ("r = <a> cnt.inc <a>\na = <r> pgs.drop <e>", 4),
        ("r = <a1> pgs.hdeq:f.a <e>\na1 = <a2> cnt.clr <a2>\na2 = <a3> cnt.inc <a3>\n"
         "a3 = <r> pgs.drop <r>", 1),
    ):
        got = _assert_explorer_matches_product(control, (Plain(fa),) * 3)
        assert got.count("g.tick") == ticks, control


def test_explorer_counts_where_a_walk_comes_back_with_no_test():
    # Round the period of (f.a)* two drops land in d and k, neither of which
    # has rounds, and k raises the counter, so no configuration comes back.
    # The walk from j comes back to j at the same position with no test on
    # the way, inside the segment from k; it runs on to where the next
    # segment starts, at d, which it passed: deadlock, found there.
    p = P("(f.a)*")
    mech = parse_thread("r = <j> g.x <j>\nj = <d> pgs.drop <d>\n"
                        "d = <k> pgs.drop <k>\nk = <j> cnt.inc <j>")
    control = _tables(mech, Alphabet.from_sequence(p))
    assert print_thread(_explore(control, p, Budget(5))) == "X0 = <X1> g.x <X1>\nX1 = D"
    with pytest.raises(BudgetExceededError):
        _explore(control, p, Budget(4))


def test_one_mechanism_runs_many_programs():
    alpha = Alphabet.from_basics([fa, fb])
    for txt in ("f.a; !", "+f.b; !; f.a", "(f.b)*", "~; #0; !"):
        p = P(txt)
        assert bisimilar(run_exec(p, alphabet=alpha), extract_pgajs(p)), txt


@given(programs(max_len=12, with_shift=True, only_zero_jump=True))
@settings(max_examples=150, deadline=None)
def test_mechanism_agrees_with_extraction(s):
    assert bisimilar(run_exec(s), extract_pgajs(s))


# stress family
def test_witness_shape():
    w = theorem3_witness(1)
    assert len(w.states) == 8
    with pytest.raises(ValueError):
        theorem3_witness(0)


def test_witness_roundtrips():
    for n in (1, 2):
        w = theorem3_witness(n)
        p = corollary1_pipeline(w)
        assert bisimilar(extract_pgajs(p), w)
        assert bisimilar(behaviour_via_counter(p), w)
