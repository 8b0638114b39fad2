"""Library layers against their earlier algorithms, and seeded corpora.

Most layers keep one reference here, except `run_exec`, which keeps two
(see below).  `tests/mutants.py` lists hand-made mutants of the library
and the tests that must kill them; a reference goes only when every
mutant there is still killed without it.  The references of the program
reader, the canonical form, the jump expansion, the two-mode builders,
`parse_thread` and the reference check of `ThreadSpec` went that way:
their mutants are killed by direct tests in the per-module files.  Their
seeded corpora stay here, as invariants of the code that remains.

The copies below are the algorithms that `abstract_tau` and the program
service used before they were made linear: a tau walk from every state,
and a program service keyed by its printed remaining sequence.  They
build the same states under the same names, so results must be equal
(`==`) and print identically, not just bisimilar.  `bisimilar` must
give the verdict of projections to depth n + m (`projections_agree` in
`tests/strategies.py`), which decide bisimilarity of specs of n and m
states.

`_layered_run_exec` is the execution route as it was before `run_exec`
explored configurations on the fly: compose the mechanism with the
program service, collapse counter divergence, compose with the counter,
hide silent steps.  Hiding leaves gaps in the product's names, so the
explorer's thread must equal the layered one after `relabel`; the
explorer's own names need no renaming.  `_old_explore` is the explorer
as it was before it took a skipping countdown in one step and walked the
`hdeq` queries once per instruction: it counted down one position and one
counter value at a time, and asked the queries again for every counter
value, reading the run lengths that `_old_run_lengths` counts by comparing
each instruction with its neighbour.  It names states in the same order,
so its threads must be equal as they are.  It stays beside the layered
route because it is the only reference fast enough for programs of long
mixed shift runs, whose counter products the layered route cannot build
in tier-1 time, and for random hand-made controls (`_random_control`),
whose walks join and come back in ways no built mechanism's do.
`_walked_landing` is the explorer's landing search one position at a time.

`_old_extract`, `_old_jump_collapse` and `_old_compile_spec` are
extraction, jump collapsing and the compiler as they were before each
walked its input once: extraction built a state for every non-jump
position, walked every jump chain from its start and then ran `relabel`;
the compiler pruned through `validate` and then walked again for its
layout.  `_old_compile_spec` keeps the compiler's old `auto_abstract`
flag; its abstracting arm is checked against `abstract_tau` followed by
`compile_spec`, the route `compile --abstract` takes.  It lays out every
state with branches as `+a; #d; #e`; `compile_spec` lays out one whose
branches are equal as `a; #d; #0`.  So the old output is compared block
by block: each equal-branch block must be exactly that rewrite, and every
other block must be identical.  The per-jump walk is quadratic in the
length of a jump chain, so the 10^5-position ladder of `#2` jumps, whose
chains run to its end, is not checked against it; `test_acceptance.py`
pins its extraction.

`parse_thread` reads a text of well-formed rows in one regular-expression
pass, and any other text with `_parse_lines`, the per-line reader.  That
reader is the reference of the one-pass route: on the thread corpus and on
texts of odd line separators, spaces, trailing newlines and repeated
names, both must give an equal spec that prints alike, or the same error.

The corpora: every text of the parser corpus either parses to a sequence
that a print/parse round trip keeps, or raises a `ProgramError` whose line
and column fall inside the text.  The parser keeps the pieces it has read
in a table shared by every call; each text of the corpus and of the
syntax error list reads alike, or fails alike, whatever the table holds
when the text is read.  Primitive roots repeat to their period
and are primitive; rolled-back sequences unfold as their input and roll
in all they can.  Jump expansion raises exactly where its size or shifts
call for it, and otherwise keeps the behaviour.  Both two-mode builders
branch only on tests, and both routes give the behaviour of plain
extraction.  Every thread text either reads back through `print_thread`
or fails with one of the known messages, and a broken reference names
the first dangling state.

`_old_value` is how instructions compared while they were dataclasses, by
kind and fields; now that each value is one object, identity must agree
with it.
"""

import random
import re
from collections import deque
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, Optional, Tuple

from pgakit import (
    DEADLOCK,
    DanglingStateError,
    SHIFT,
    STOP,
    TAU,
    Alphabet,
    Basic,
    Budget,
    BudgetExceededError,
    CompileError,
    CounterService,
    Halt,
    InstructionSequence,
    Jump,
    NegTest,
    PgsService,
    Plain,
    PosTest,
    Post,
    Reply,
    ReservedFocusActionError,
    Service,
    Stop,
    Tau,
    TauPresentError,
    ThreadError,
    ThreadSpec,
    abstract_tau,
    bisimilar,
    behaviour_via_counter,
    build_exec_mechanism,
    collapse_counter_divergence,
    compile_spec,
    compose,
    corollary1_pipeline,
    counter_new,
    extract,
    extract_alt,
    extract_pgajs,
    normalize_shifts,
    parse_instruction,
    parse_program,
    parse_thread,
    pgs_new,
    print_thread,
    relabel,
    run_exec,
    theorem3_witness,
    transform_to_pgajs0,
    validate,
)
from pgakit.execmech import _CNT, _LEAF, _PGS, _SHOW, _explore, _landing, _tables
from pgakit.extraction import _jump_collapse
from pgakit.threads import Body, _breadth_first, _parse_lines
from pgakit.corpus import random_program, random_spec
from pgakit.properties import PROPERTIES, draw_cases
from pgakit.syntax import (
    EXPANSION_LIMIT,
    HALT,
    JUMP_LIMIT,
    JumpOverflowError,
    ProgramError,
    ProgramSyntaxError,
    RESERVED_FOCI,
    ReservedFocusError,
    ShiftPresentError,
    _PIECES,
    _primitive,
    contains_shift,
    instruction_at,
    is_pgajs0,
    position,
    instruction_text,
    print_program,
)
from strategies import BASICS, chain_spec, deep_spec, projections_agree, renamed_copy, spec_pair
from test_syntax import _ERRORS


def _old_abstract_tau(spec):
    spec = validate(spec)

    def resolve(name):
        seen = set()
        cur = name
        while True:
            if cur in seen:
                return DEADLOCK
            seen.add(cur)
            body = spec.states[cur]
            if isinstance(body, Post) and isinstance(body.action, Tau):
                cur = body.then
            else:
                return body

    states = {name: resolve(name) for name in spec.states}
    return validate(ThreadSpec(states, spec.root))


def _head(s):
    if s.prefix:
        return s.prefix[0]
    return s.period[0]


def _drop_head(s):
    """Sequence after removing the first instruction; None if that empties
    it.  Dropping from a pure period rotates the loop."""
    if s.prefix:
        if len(s.prefix) == 1 and not s.period:
            return None
        return InstructionSequence(s.prefix[1:], s.period)
    return InstructionSequence((), s.period[1:] + s.period[:1])


def test_drop_head_walks_and_rotates():
    s = parse_program("f.a; (f.b; !)*")
    assert _head(s) == Plain(BASICS[0])
    assert _head(_drop_head(s)) == Plain(BASICS[1])
    assert _drop_head(parse_program("f.a")) is None
    loop = parse_program("(f.a; f.b)*")
    assert _head(_drop_head(loop)) == Plain(BASICS[1])
    assert _drop_head(_drop_head(loop)) == loop


@dataclass(frozen=True)
class _OldPgsService(Service):
    """Keyed by the printed remaining sequence; a query names the alphabet
    instruction that prints as its text, found by a scan."""

    sequence: Optional[InstructionSequence]
    alphabet: Alphabet = field(compare=False)
    undefined: bool = False

    def apply(self, method):
        if self.undefined:
            return self, Reply.BLOCKED
        if method == "drop":
            if self.sequence is None:
                return self, Reply.FALSE
            return _OldPgsService(_drop_head(self.sequence), self.alphabet), Reply.TRUE
        if method.startswith("hdeq:"):
            named = [u for u in self.alphabet.instructions
                     if "hdeq:" + instruction_text(u) == method]
            if not named:
                return _OldPgsService(None, self.alphabet, True), Reply.BLOCKED
            if self.sequence is None:
                return self, Reply.FALSE
            return self, Reply.TRUE if _head(self.sequence) == named[0] else Reply.FALSE
        return _OldPgsService(None, self.alphabet, True), Reply.BLOCKED

    def key(self):
        if self.undefined:
            return "pgs:undef"
        if self.sequence is None:
            return "pgs:eps"
        return "pgs:" + print_program(self.sequence)


def _assert_same(got, want):
    assert got == want
    assert print_thread(got) == print_thread(want)


def _programs():
    rng = random.Random(2031)
    corpus = [
        random_program(rng, max_len=16, allow_shift=True, pgajs0=True)
        for _ in range(150)
    ]
    corpus += [corollary1_pipeline(theorem3_witness(n)) for n in (1, 2)]
    return corpus


def test_abstract_tau_matches_per_state_walk():
    rng = random.Random(2032)
    for _ in range(500):
        spec = random_spec(rng, max_states=10, allow_tau=True, tau_prob=0.5)
        _assert_same(abstract_tau(spec), _old_abstract_tau(spec))


def test_program_service_matches_residual_service():
    # every reply agrees, and the two keys identify the same service states
    rng = random.Random(2034)
    # admitted by an alphabet, but their texts do not parse back to them
    odd = (Basic("f", "a b"), Basic("f", "a-b"), Basic("f.a", "b"))
    queries = ["hdeq:f.a", "hdeq:+f.b", "hdeq:-f.a", "hdeq:#0", "hdeq:!",
               "hdeq:~", "hdeq:f.a b", "hdeq:-f.a-b", "hdeq:+f.a.b"]
    # outside the alphabet, odd spellings, unknown methods: these may wedge
    rare = ["hdeq:#1", "hdeq:g.m", "hdeq: f.a", "hdeq:(", "frob"]
    for _ in range(200):
        p = random_program(rng, max_len=10, allow_shift=True, pgajs0=True,
                           basics=BASICS + (rng.choice(odd),))
        for alphabet in (None, Alphabet.from_basics(odd + BASICS)):
            new = pgs_new(p, alphabet)
            old = _OldPgsService(p, alphabet or Alphabet.from_sequence(p))
            new_of_old = {old.key(): new.key()}
            for _ in range(30):
                roll = rng.random()
                if roll < 0.4:
                    method = "drop"
                elif roll < 0.45:
                    method = rng.choice(rare)
                else:
                    method = rng.choice(queries)
                new, got = new.apply(method)
                old, want = old.apply(method)
                assert got == want, (print_program(p), method)
                assert new_of_old.setdefault(old.key(), new.key()) == new.key()
            assert len(set(new_of_old.values())) == len(new_of_old)


def _layered_run_exec(p, budget=None):
    pgs = pgs_new(p)
    inner = compose(build_exec_mechanism(pgs.alphabet), "pgs", pgs, budget)
    inner = collapse_counter_divergence(inner)
    return abstract_tau(compose(inner, "cnt", counter_new(0), budget))


# all-shift periods spin the counter up forever; the others reach a shift
# run again through the period, or end in one
_SHIFT_RUNS = (
    InstructionSequence((), (SHIFT,)),
    InstructionSequence((Plain(BASICS[0]),), (SHIFT,)),
    InstructionSequence((SHIFT,) * 3 + (Jump(0),), (SHIFT, SHIFT, Halt())),
    InstructionSequence((), (SHIFT, SHIFT, Plain(BASICS[0]), SHIFT)),
    InstructionSequence((Plain(BASICS[0]), SHIFT, SHIFT), ()),
    # runs that reach the end of a finite program
    InstructionSequence((Plain(BASICS[0]),) + (SHIFT,) * 4, ()),
    InstructionSequence((PosTest(BASICS[0]), Jump(0)) + (SHIFT,) * 3, ()),
)


def test_service_pipeline_matches_old_route():
    for p in _programs() + list(_SHIFT_RUNS):
        alphabet = Alphabet.from_sequence(p)
        mech = build_exec_mechanism(alphabet)
        inner = compose(mech, "pgs", pgs_new(p, alphabet))
        _assert_same(inner, compose(mech, "pgs", _OldPgsService(p, alphabet)))
        layered = abstract_tau(compose(collapse_counter_divergence(inner), "cnt", counter_new(0)))
        # hiding silent steps leaves gaps in the product's names
        assert run_exec(p) == relabel(layered), print_program(p)


def test_explorer_matches_layered_route_on_exec_corpus():
    # the corpus of the execution-mechanism acceptance gate
    for p in draw_cases(PROPERTIES["exec"], 2025, 500):
        assert run_exec(p) == relabel(_layered_run_exec(p)), print_program(p)


def test_explorer_matches_layered_route_on_witnesses():
    for n in (1, 2, 3, 4):
        p = corollary1_pipeline(theorem3_witness(n))
        assert run_exec(p) == relabel(_layered_run_exec(p)), n


def _old_run_lengths(s):
    p, q = len(s.prefix), len(s.period)
    if q == 1:
        runs = [None]
    else:
        twice = s.period * 2
        runs = [1] * len(twice)
        for i in range(len(twice) - 2, -1, -1):
            if twice[i] == twice[i + 1]:
                runs[i] = runs[i + 1] + 1
        runs = runs[:q]
    prefix_runs = [1] * p
    after = s.period[0] if q else None
    ahead = runs[0] if q else 0
    for i in range(p - 1, -1, -1):
        u = s.prefix[i]
        if u != after:
            ahead = 1
        elif ahead is not None:
            ahead += 1
        prefix_runs[i] = ahead
        after = u
    return prefix_runs + runs


def _old_explore(mech: ThreadSpec, pgs: PgsService, budget: Budget) -> ThreadSpec:
    """The thread of `mech` run with `pgs` and a zeroed counter, with all
    service traffic hidden, one counter value at a time."""
    sids = list(mech.states)
    index = {sid: i for i, sid in enumerate(sids)}
    # per mechanism state: kind, body, method, True and False successors
    kinds, bodies, methods, thens, elses = [], [], [], [], []
    for sid in sids:
        body = mech.states[sid]
        bodies.append(body)
        if isinstance(body, Post):
            focus = body.action.focus
            kinds.append(_PGS if focus == "pgs" else _CNT if focus == "cnt" else _SHOW)
            methods.append(body.action.method)
            thens.append(index[body.then])
            elses.append(index[body.else_])
        else:
            kinds.append(_LEAF)
            methods.append(None)
            thens.append(None)
            elses.append(None)

    s = pgs.sequence
    runs = _old_run_lengths(s)
    cnt = counter_new(0)
    # services by key; replies by (service key, method), so each distinct
    # service state answers each method once
    services: Dict[str, Service] = {pgs.key(): pgs, cnt.key(): cnt}
    replies: Dict[Tuple[str, str], Tuple[str, Reply]] = {}
    TRUE, BLOCKED = Reply.TRUE, Reply.BLOCKED

    def first_reply(key: str, method: str) -> Tuple[str, Reply]:
        svc, r = services[key].apply(method)
        nxt = svc.key()
        services.setdefault(nxt, svc)
        replies[(key, method)] = (nxt, r)
        return nxt, r

    def rest_of_run(pk: str, prev: int) -> Tuple[Optional[int], str]:
        """Rounds left in the run after the one that dropped from `prev`,
        and the program service key past them."""
        more = runs[prev]
        if more is None:
            return None, pk
        more -= 1
        if not more:
            return 0, pk
        pos = position(s, services[pk].position + more)
        svc = PgsService(s, pgs.alphabet, pos)
        nxt = svc.key()
        services.setdefault(nxt, svc)
        return more, nxt

    resolved: Dict[tuple, object] = {}  # configuration -> visible configuration or leaf
    limit = budget.max_states

    def resolve(m: int, pk: str, ck: str):
        walked: Dict[tuple, None] = {}
        pairs = set()  # (mechanism state, pgs key) since the last counter test
        mark = None  # (mechanism state, counter) where the last drop landed
        tested = False
        room = limit - len(resolved)
        while True:
            cfg = (m, pk, ck)
            got = resolved.get(cfg)
            if got is not None:
                break
            if cfg in walked or (m, pk) in pairs:
                got = DEADLOCK
                break
            if len(walked) >= room:
                raise BudgetExceededError(
                    f"run_exec explored more than {limit} configurations"
                )
            walked[cfg] = None
            pairs.add((m, pk))
            kind = kinds[m]
            if kind == _SHOW:
                got = cfg
                break
            if kind == _LEAF:
                got = bodies[m]
                break
            method = methods[m]
            key = ck if kind == _CNT else pk
            nxt, r = replies.get((key, method)) or first_reply(key, method)
            if r is BLOCKED:
                got = DEADLOCK
                break
            if kind == _CNT:
                ck = nxt
                if method != "inc":
                    pairs.clear()
                    tested = True
            else:
                if method == "drop" and r is TRUE:
                    m2 = thens[m]
                    c = services[ck].content
                    if mark is not None and mark[0] == m2 and (not tested or mark[1] == c):
                        more, nxt = rest_of_run(nxt, services[pk].position)
                        if more is None:
                            got = DEADLOCK
                            break
                        if more:
                            c += (c - mark[1]) * more
                            svc = CounterService(c)
                            ck = svc.key()
                            services.setdefault(ck, svc)
                            if tested:
                                pairs.clear()
                    mark = (m2, c)
                    tested = False
                pk = nxt
            m = thens[m] if r is TRUE else elses[m]
        for cfg in walked:
            resolved[cfg] = got
        return got

    # emitted configurations, in discovery order, with what each resolves to
    emitted: Dict[tuple, object] = {}
    root = (index[mech.root], pgs.key(), cnt.key())
    queue = deque([root])
    emitted[root] = None
    while queue:
        cfg = queue.popleft()
        got = resolve(*cfg)
        emitted[cfg] = got
        if isinstance(got, tuple):
            m, pk, ck = got
            for target in ((thens[m], pk, ck), (elses[m], pk, ck)):
                if target not in emitted:
                    emitted[target] = None
                    queue.append(target)

    names = {cfg: f"X{i}" for i, cfg in enumerate(emitted)}
    states: Dict[str, Body] = {}
    for cfg, got in emitted.items():
        if isinstance(got, tuple):
            m, pk, ck = got
            got = Post(
                bodies[m].action, names[(thens[m], pk, ck)], names[(elses[m], pk, ck)]
            )
        states[names[cfg]] = got
    return ThreadSpec(states, "X0")


def _old_run_exec(p):
    pgs = pgs_new(p)
    return _old_explore(build_exec_mechanism(pgs.alphabet), pgs, Budget())


def _mixed_run_programs(seed, count):
    """Programs of long mixed runs, finite and periodic: shift runs of 5 to
    60 between stretches where each instruction is a shift with a
    probability drawn per program from 0.2 to 0.95.  A shift run read in
    the guarded mode loads the counter with its length, so a #0 after it
    starts a countdown past many non-shifts, which wraps a short period
    several times."""
    rng = random.Random(seed)
    others = ([Plain(b) for b in BASICS] + [PosTest(b) for b in BASICS]
              + [NegTest(b) for b in BASICS] + [Jump(0)] * 4 + [HALT])

    def stretch(shift_prob):
        if rng.random() < 0.4:  # often jumped from at once
            return [SHIFT] * rng.randint(5, 60) + [Jump(0)] * rng.randint(0, 1)
        return [SHIFT if rng.random() < shift_prob else rng.choice(others)
                for _ in range(rng.randint(1, 12))]

    for _ in range(count):
        shift_prob = rng.uniform(0.2, 0.95)
        prefix = [u for _ in range(rng.randint(0, 3)) for u in stretch(shift_prob)]
        period = []
        if rng.random() < 0.6:
            period = [u for _ in range(rng.randint(1, 3)) for u in stretch(shift_prob)]
        yield InstructionSequence(tuple(prefix or [Plain(BASICS[0])]), tuple(period))


def _assert_explorers_agree(programs):
    for p in programs:
        assert run_exec(p) == _old_run_exec(p), print_program(p)


def test_explorer_matches_one_value_at_a_time_on_corpora():
    # the corpora of the execution-mechanism and counter acceptance gates
    _assert_explorers_agree(draw_cases(PROPERTIES["exec"], 2025, 500))
    _assert_explorers_agree(draw_cases(PROPERTIES["counter"], 2025, 500))


def test_explorer_matches_one_value_at_a_time_on_witnesses():
    _assert_explorers_agree(corollary1_pipeline(theorem3_witness(n)) for n in range(1, 7))


def test_explorer_matches_one_value_at_a_time_on_shift_runs():
    all_shift = [InstructionSequence((), (SHIFT,)),
                 InstructionSequence((Plain(BASICS[0]), Jump(0)), (SHIFT,)),
                 InstructionSequence((SHIFT,) * 40 + (Jump(0),), (SHIFT,))]
    _assert_explorers_agree(list(_SHIFT_RUNS) + all_shift)


def test_explorer_matches_one_value_at_a_time_on_long_mixed_runs(monkeypatch):
    # every landing, and whether it went past the whole period at least twice
    # after the first unfolding, or reached the end of a finite program
    landings = []

    def landing(s, sums, i, k):
        got = _landing(s, sums, i, k)
        if got is not None:
            t, passes = got
            landings.append((passes >= 3, not s.period and t + passes >= len(sums) - 1))
        return got

    monkeypatch.setattr("pgakit.execmech._landing", landing)
    _assert_explorers_agree(_mixed_run_programs(2040, 1500))
    assert len(landings) > 1000
    assert sum(wraps for wraps, _ in landings) > 300
    assert sum(at_end for _, at_end in landings) > 50


def _random_control(rng, alphabet):
    """A control of 2 to 8 states over drops, `hdeq` queries of the
    alphabet, the four counter methods and the visible g.x and g.y.  Any
    branch may lead to a tail that shows the counter as that many g.tick."""
    texts = [instruction_text(u) for u in alphabet.instructions]
    names = [f"c{i}" for i in range(rng.randint(2, 8))]
    lines = []
    for name in names:
        action = rng.choice(["pgs.drop", "pgs.hdeq:" + rng.choice(texts),
                             "cnt." + rng.choice(["inc", "dec", "isz", "clr"]),
                             "g." + rng.choice("xy")])
        then, else_ = rng.choice(names + ["e"]), rng.choice(names + ["e"])
        lines.append(f"{name} = <{then}> {action} <{else_}>")
    lines += ["e = <t> cnt.dec <s>", "t = <e> g.tick <e>", "s = S"]
    return parse_thread("\n".join(lines))


def test_explorer_matches_one_value_at_a_time_on_random_controls():
    # controls that no built mechanism is: walks that join inside segments or
    # come back with or without a test, and rounds of any shape
    rng = random.Random(2054)
    alphabet = Alphabet.from_basics([BASICS[0]])
    fit = 0
    for _ in range(600):
        mech = _random_control(rng, alphabet)
        p = random_program(rng, max_len=6, basics=alphabet.basics, pgajs0=True)
        try:
            want = _old_explore(mech, pgs_new(p, alphabet), Budget(20000))
        except BudgetExceededError:
            continue
        fit += 1
        got = _explore(_tables(mech, alphabet), p, Budget())
        assert bisimilar(got, want), (print_thread(mech), print_program(p))
    assert fit >= 570


def _walked_landing(s, weight, i, k):
    """`_landing` one position at a time, as the unfolded index reached:
    past the end of a finite sequence the position stays put, and a period
    that weighs nothing never gets there."""
    t, total = i, 0
    for _ in range((k + 1) * (len(s) + 1)):
        if total >= k:
            return t
        total += weight(instruction_at(s, t))
        t += 1
    return None


def test_landing_matches_walk_over_positions():
    rng = random.Random(2041)
    units = (SHIFT, SHIFT, Plain(BASICS[0]), Jump(0))
    for case in range(3000):
        prefix = tuple(rng.choice(units) for _ in range(rng.randint(0, 6)))
        period = tuple(rng.choice(units) for _ in range(rng.randint(0, 5)))
        if not prefix and not period:
            continue
        s = InstructionSequence(prefix, period)
        heads = s.prefix + (s.period or (None,))
        if case % 2:  # weights 0 and 1, as a count of the positions that reply alike
            reply = rng.random() < 0.5
            weights = {u: int((u == SHIFT) == reply) for u in units + (None,)}
        else:
            weights = {u: rng.randint(0, 2) for u in units + (None,)}
        sums = list(accumulate((weights[h] for h in heads), initial=0))
        i, k = rng.randrange(len(heads)), rng.randint(1, 25)
        got = _landing(s, sums, i, k)
        if got is not None:
            t, passes = got
            got = t + passes * (len(heads) - len(s.prefix))
        assert got == _walked_landing(s, weights.get, i, k), (print_program(s), i, k, weights)


def _assert_same_verdict(pairs):
    # A deterministic thread is a Moore machine: its output is the body kind
    # and action, its input the reply.  On the disjoint union of specs of n
    # and m states, k-step equivalence refines strictly each round until it
    # is stable, and it has at most n + m classes, so it is stable after
    # n + m - 1 rounds (Moore, "Gedanken-experiments on sequential machines",
    # 1956).  Projections to depth n + m compare the bodies reached by every
    # word of up to n + m - 1 replies.
    verdicts = []
    for a, b in pairs:
        want = projections_agree(a, b, len(a.states) + len(b.states))
        assert bisimilar(a, b) == want, (print_thread(a), print_thread(b))
        verdicts.append(want)
    return verdicts


def test_bisimilar_matches_projections_to_depth_n_plus_m():
    for seed in (11, 2035):
        rng = random.Random(seed)
        pairs = [spec_pair(rng, max_states=m) for m in (3, 6, 12) for _ in range(800)]
        verdicts = _assert_same_verdict(pairs)
        assert 0.3 < sum(verdicts) / len(verdicts) < 0.8


def test_bisimilar_matches_projections_with_tau():
    rng = random.Random(2036)
    pairs = []
    for _ in range(150):
        p = random_program(rng, max_len=10, allow_shift=True, pgajs0=True)
        pairs.append((run_exec(p), extract_pgajs(p)))
        pairs.append((extract_pgajs(p), random_spec(rng, max_states=6, allow_tau=True)))
    # tau is an ordinary action: a tau spec against itself renamed, against
    # another tau spec, and against its abstraction
    for _ in range(300):
        s = random_spec(rng, max_states=8, allow_tau=True, tau_prob=0.5)
        pairs.append((s, relabel(s)))
        pairs.append((s, random_spec(rng, max_states=8, allow_tau=True, tau_prob=0.5)))
        pairs.append((s, abstract_tau(s)))
    verdicts = _assert_same_verdict(pairs)
    assert any(verdicts) and not all(verdicts)


def test_bisimilar_matches_projections_on_large_families():
    rng = random.Random(2037)
    pairs = []
    for n in (2, 5, 20, 60):
        labels = [rng.choice(BASICS) for _ in range(n - 1)]
        base = chain_spec(labels, STOP, "c")
        pairs.append((base, chain_spec(labels, STOP, "e")))
        pairs.append((base, chain_spec(labels, DEADLOCK, "d")))
    for n in (3, 10, 40, 100):
        base = deep_spec(rng, n)
        pairs.append((base, renamed_copy(rng, base, "u")))
        pairs.append((base, renamed_copy(rng, base, "v", flip=f"s{n // 2}")))
    assert _assert_same_verdict(pairs) == [True, False] * 8


# counter steps that test nothing, and the drop, which finds an instruction
# wherever these threads take it
_UNTESTED = {Basic("cnt", "clr"), Basic("cnt", "inc"), Basic("cnt", "dec"), Basic("pgs", "drop")}


def _assert_no_untested_branch(spec):
    for name, body in spec.states.items():
        if isinstance(body, Post) and body.action in _UNTESTED:
            assert body.then == body.else_, (name, body)


def test_two_mode_builders_keep_their_invariants_on_a_corpus():
    # each state goes on alike on both replies of a step that tests nothing,
    # the mechanism has 16m + 16 states, and both routes give the behaviour
    # of plain extraction
    rng = random.Random(2038)
    corpus = [
        random_program(rng, max_len=16, allow_shift=True, pgajs0=True)
        for _ in range(300)
    ]
    # runs of shifts ending a finite program, and inside a period
    corpus += [InstructionSequence((SHIFT,) * k + (Jump(0),), ()) for k in range(4)]
    corpus += [InstructionSequence((), (SHIFT,) * k + (Jump(0), HALT))
               for k in range(1, 4)]
    corpus += [corollary1_pipeline(theorem3_witness(n)) for n in (1, 2, 3)]
    assert any(not p.period for p in corpus) and any(p.period for p in corpus)
    alphabets = {Alphabet.from_basics(Basic("f", chr(ord("a") + i)) for i in range(m))
                 for m in (1, 2, 3, 4)}
    for p in corpus:
        _assert_no_untested_branch(extract_alt(p))
        assert bisimilar(behaviour_via_counter(p), extract_pgajs(p)), print_program(p)
        assert bisimilar(run_exec(p), extract_pgajs(p)), print_program(p)
        alphabets.add(Alphabet.from_sequence(p))
    for alphabet in alphabets:
        mech = build_exec_mechanism(alphabet)
        assert len(mech.states) == 16 * len(alphabet.basics) + 16
        _assert_no_untested_branch(mech)


# --- seeded corpora of the program reader and the canonical form -------------

# instruction spellings for nested-star texts: dotted and numeric method
# names, a reserved focus, and a jump just past the limit
_SPELLINGS = (
    ["f.a", "+f.b", "-f.a", "g.m.n", "+h.0", "#0", "#2", "#7", "!", "~"] * 4
    + ["cnt.inc", f"#{JUMP_LIMIT + 1}"]
)
# characters inserted by single-character edits: punctuation, names,
# whitespace, comment and foreign characters, a letter and a fraction
# outside ASCII, and a decimal digit of another script
_EDIT_CHARS = ";;;(()))***!~##+-..  \n\tfab019_/$\u00e9\u00bd\u0661"


def _nested_text(rng, depth):
    factors = []
    for _ in range(rng.randint(1, 3)):
        if depth and rng.random() < 0.35:
            factors.append("(" + _nested_text(rng, depth - 1) + ")*")
        else:
            factors.append(rng.choice(_SPELLINGS))
    return "; ".join(factors)


def _respace(rng, text):
    spaces = (" ", "", "\n", "\t ", "\r\n", "  \n ")
    return "".join(c + (rng.choice(spaces) if rng.random() < 0.2 else "") for c in text)


def _comment(rng, text):
    notes = ("// note\n", "// a; b\n", "// (f.a)*; !\n", "//\n", "/// ;(\n")
    cuts = sorted(rng.randrange(len(text) + 1) for _ in range(2))
    out = text[: cuts[0]] + rng.choice(notes) + text[cuts[0]: cuts[1]] + rng.choice(notes)
    out += text[cuts[1]:]
    return out + rng.choice(("", " // end; (", "\n// end"))


def _edits(rng, text, count):
    """Single-character insertions and deletions, and copies of one
    `;`-separated piece to another place, where it may close more stars
    than are open."""
    pieces = text.split(";")
    for _ in range(count):
        i = rng.randrange(len(text) + 1)
        yield text[:i] + rng.choice(_EDIT_CHARS) + text[i:]
        if text:
            i = rng.randrange(len(text))
            yield text[:i] + text[i + 1:]
        i = rng.randrange(len(pieces) + 1)
        yield ";".join(pieces[:i] + [rng.choice(pieces)] + pieces[i:])


def _parser_corpus():
    rng = random.Random(2040)
    basics = BASICS + (Basic("g", "m.n"), Basic("h", "0"))
    base = []
    for i in range(240):
        flags = [{}, {"allow_shift": True}, {"pgajs0": True}][i % 3]
        p = random_program(rng, max_len=12, basics=basics, **flags)
        base.append(print_program(p))
    base += [_nested_text(rng, 4) for _ in range(120)]
    texts = []
    for t in base:
        texts += [t, _respace(rng, t), _comment(rng, t)]
    # over 10^4 pieces each, so that known pieces are read a run at a time:
    # with no loop, with loops, after a loop, and then a bad piece or a
    # stray character further on
    free = ";\n".join([t for t in base if "(" not in t] * 13)
    loops = ";\n".join(base * 6)
    long = [free, loops, "(f.a; f.b)*; " + free, free + "; f.a f.b", loops + "; #x;\n f.b; $"]
    return texts + [e for t in texts for e in _edits(rng, t, 3)] + long


def _inside(text, exc):
    """Whether an error's line and column fall on one of the text's lines,
    at most one past its end."""
    lines = text.split("\n")
    return 1 <= exc.line <= len(lines) and 1 <= exc.col <= len(lines[exc.line - 1]) + 1


def test_parser_reads_its_corpus_back_or_fails_inside_the_text():
    outcomes = []
    for text in _parser_corpus():
        try:
            got = parse_program(text)
        except ProgramError as exc:
            assert not isinstance(exc, ProgramSyntaxError) or _inside(text, exc), text
            got = None
            outcomes.append(type(exc))
        else:
            assert parse_program(print_program(got)) == got, text
            outcomes.append(InstructionSequence)
        try:
            u = parse_instruction(text)
        except ProgramError as exc:
            assert not isinstance(exc, ProgramSyntaxError) or _inside(text, exc), text
        else:
            assert got == InstructionSequence((u,), ()), text
    assert set(outcomes) == {InstructionSequence, ProgramSyntaxError, ReservedFocusError,
                             JumpOverflowError}
    assert outcomes.count(InstructionSequence) > len(outcomes) // 3


def test_parser_reads_alike_whatever_pieces_it_read_before():
    # the reference reads each text with the piece table empty; then the
    # corpus is read in order from an empty table, again with the table
    # warm from all of it, and in reverse order from an empty table
    texts = _parser_corpus() + [e[0] for e in _ERRORS]
    want = []
    for text in texts:
        _PIECES.clear()
        want.append(_result(parse_program, text))
    forward = range(len(texts))
    for order, empty in ((forward, True), (forward, False), (forward[::-1], True)):
        if empty:
            _PIECES.clear()
        for i in order:
            assert _result(parse_program, texts[i]) == want[i], texts[i]


def _is_primitive(units):
    """Whether no shorter root repeats to `units`: a word is primitive iff
    it occurs in its own square only at the start and the middle."""
    codes = {}
    word = "".join(chr(codes.setdefault(u, len(codes))) for u in units)
    return (word + word).find(word, 1) == len(word)


def test_primitive_root_repeats_to_the_period_and_is_primitive():
    rng = random.Random(2043)
    units = (Plain(BASICS[0]), PosTest(BASICS[1]), Jump(0), HALT, SHIFT)
    powers = 0
    for _ in range(3000):
        root = tuple(rng.choice(units[:rng.randint(1, 5)])
                     for _ in range(rng.randint(1, 6)))
        # powers of a root, with one instruction changed now and then
        period = list(root * rng.randint(1, 12))
        if rng.random() < 0.3:
            period[rng.randrange(len(period))] = rng.choice(units)
        period = tuple(period)
        got = _primitive(period)
        assert got * (len(period) // len(got)) == period and _is_primitive(got), period
        powers += len(got) < len(period)
    assert powers > 1000
    assert _primitive((SHIFT,) * 100_000) == (SHIFT,)
    # many divisors, and every shift test runs to the last instruction
    assert _primitive((SHIFT,) * 720_719 + (HALT,)) == (SHIFT,) * 720_719 + (HALT,)


def test_rollback_unfolds_alike_and_rolls_in_all_it_can():
    rng = random.Random(2042)
    units = (Plain(BASICS[0]), PosTest(BASICS[1]), Jump(0), HALT)
    rolled = 0
    for _ in range(2000):
        period = [rng.choice(units) for _ in range(rng.randint(1, 4))]
        # the prefix often ends in a suffix of the period and then copies
        # of it, so the period rotates by any amount
        tail = period[rng.randint(0, len(period)):] + period * rng.randint(0, 3)
        head = [rng.choice(units) for _ in range(rng.randint(0, 3))]
        prefix = head + tail if rng.random() < 0.8 else head
        s = InstructionSequence(tuple(prefix), tuple(period))
        unfolded = prefix + period * 20
        assert [instruction_at(s, i) for i in range(len(unfolded))] == unfolded, (prefix, period)
        assert not s.prefix or s.prefix[-1] != s.period[-1], (prefix, period)
        rolled += len(s.prefix) < len(prefix)
    assert rolled > 1000


def _old_resolve(s, units, j):
    end = len(units)
    seen = set()
    while True:
        pos = position(s, j)
        if pos == end:
            return end
        u = units[pos]
        if not isinstance(u, Jump):
            return pos
        if pos in seen or u.offset == 0:
            return end
        seen.add(pos)
        j = pos + u.offset


def _old_extract(s):
    if contains_shift(s):
        raise ShiftPresentError("extraction requires a Shift-free sequence")
    units = s.prefix + s.period

    def target(j):
        return f"p{_old_resolve(s, units, j)}"

    states = {}
    for pos, u in enumerate(units):
        if isinstance(u, Jump):
            continue
        name = f"p{pos}"
        if isinstance(u, Halt):
            states[name] = STOP
        elif isinstance(u, Plain):
            nxt = target(pos + 1)
            states[name] = Post(u.basic, nxt, nxt)
        elif isinstance(u, PosTest):
            states[name] = Post(u.basic, target(pos + 1), target(pos + 2))
        else:
            states[name] = Post(u.basic, target(pos + 2), target(pos + 1))
    states[f"p{len(units)}"] = DEADLOCK
    return relabel(ThreadSpec(states, target(0)))


def _old_jump_collapse(s):
    units = s.prefix + s.period

    def collapse(pos, u):
        if not isinstance(u, Jump):
            return u
        r = _old_resolve(s, units, pos)
        if r == len(units):
            return Jump(0)
        if r > pos:
            return Jump(r - pos)
        return Jump(r - pos + len(s.period))

    collapsed = tuple(collapse(pos, u) for pos, u in enumerate(units))
    p = len(s.prefix)
    return InstructionSequence(collapsed[:p], collapsed[p:])


def _old_compile_spec(spec, auto_abstract=False):
    spec = validate(spec)
    has_tau = any(
        isinstance(b, Post) and isinstance(b.action, Tau)
        for b in spec.states.values()
    )
    if has_tau:
        if not auto_abstract:
            raise TauPresentError(
                "silent steps cannot be compiled; abstract them first"
            )
        spec = abstract_tau(spec)
    actions = dict.fromkeys(b.action for b in spec.states.values() if isinstance(b, Post))
    for action in actions:
        if action.focus in RESERVED_FOCI:
            raise ReservedFocusActionError(
                f"cannot compile action with reserved focus {action.focus!r}"
            )
        try:
            reads_back = parse_instruction(str(action)) == Plain(action)
        except ProgramError:
            reads_back = False
        if not reads_back:
            raise CompileError(f"action {str(action)!r} is not a program basic")
    index = _breadth_first(spec)
    size = 3 * len(index)

    def offset(at, target):
        return ((target - at) % size) or size

    units = []
    for name, i in index.items():
        body = spec.states[name]
        base = 3 * i
        if isinstance(body, Stop):
            units.extend([HALT, HALT, HALT])
        elif isinstance(body, Post):
            units.append(PosTest(body.action))
            units.append(Jump(offset(base + 1, 3 * index[body.then])))
            units.append(Jump(offset(base + 2, 3 * index[body.else_])))
        else:
            units.extend([Jump(0), Jump(0), Jump(0)])
    return InstructionSequence((), tuple(units))


def _result(f, *args):
    """What f returns, or the class and message of what it raises, and the
    line and column of a program syntax error."""
    try:
        return f(*args)
    except ProgramSyntaxError as exc:
        return type(exc), str(exc), exc.line, exc.col
    except (CompileError, ProgramError, ThreadError) as exc:
        return type(exc), str(exc)


def _assert_same_result(got, want, printer, where):
    assert got == want, where
    if not isinstance(got, tuple):
        assert printer(got) == printer(want), where


def _jumpy_program(rng):
    """Mostly short forward jumps, so chains, cycles through the period,
    zero jumps and jumps off the end all occur."""
    units = []
    for _ in range(rng.randint(1, 24)):
        if rng.random() < 0.55:
            units.append(Jump(rng.choice((0, 1, 1, 2, 2, 3, 5, 9))))
        else:
            b = rng.choice(BASICS)
            units.append(rng.choice((Plain(b), PosTest(b), NegTest(b), HALT)))
    cut = rng.randint(0, len(units))
    return InstructionSequence(tuple(units[:cut]), tuple(units[cut:]))


def _ladder(k, offset):
    return InstructionSequence((PosTest(BASICS[0]), Jump(offset)) * k + (HALT,), ())


def _family_specs():
    rng = random.Random(2044)
    specs = []
    for n in (1, 2, 7, 40, 150):
        labels = [rng.choice(BASICS) for _ in range(n)]
        specs += [chain_spec(labels, STOP), chain_spec(labels, DEADLOCK, "d")]
        deep = deep_spec(rng, n + 1)
        specs += [deep, renamed_copy(rng, deep, "u"), renamed_copy(rng, deep, "v", flip="s0")]
    return specs


def _extraction_corpus():
    rng = random.Random(2045)
    corpus = [_jumpy_program(rng) for _ in range(1500)]
    corpus += [random_program(rng, max_len=16, allow_shift=rng.random() < 0.5)
               for _ in range(500)]
    corpus += _programs()
    corpus += [_ladder(k, offset) for k in (1, 2, 5, 40) for offset in (1, 2, 3, 0)]
    for spec in _family_specs():
        corpus += [compile_spec(spec), corollary1_pipeline(spec)]
    return corpus


def test_extraction_matches_per_jump_walk_and_relabel():
    chained = 0
    for p in _extraction_corpus():
        where = print_program(p)
        _assert_same_result(_result(extract_pgajs, p),
                            _result(_old_extract, normalize_shifts(p)), print_thread, where)
        _assert_same_result(_result(extract, p), _result(_old_extract, p), print_thread, where)
        if not contains_shift(p):
            collapsed = _jump_collapse(p)
            assert collapsed == _old_jump_collapse(p), where
            assert print_program(collapsed) == print_program(_old_jump_collapse(p)), where
            chained += collapsed != p
    assert chained > 500


# chains through short and long periods: dead ends, cycles of jumps alone,
# and offsets that wrap the period several times
_CHAIN_TEXTS = (
    "#0", "#1", "#2", "!", "(#1)*", "(#0)*", "(#2)*", "(#5)*", "(f.a)*", "(+f.a)*",
    "(-f.a)*", "#1; (#1)*", "#3; (#7)*", "(#1; f.a)*", "(#3; f.a)*", "(#4; -f.a)*",
    "+f.a; #2; (#3; f.b)*", "-f.a; #9; f.b; (#2; #4; !)*", "(+f.a; #11)*",
    "(#2; #2; -f.b; #0)*", "#2; #2; #2; (#7; #6)*", "+f.a; #1; #1; #1",
    "-f.a; #2; #2; #9", "(#1; #1; #1; #1; f.a)*", "f.a; (#1; #2)*",
)


def _chained_program(rng):
    """A prefix and a period of up to 8 instructions, most of them jumps,
    whose offsets reach past the period several times."""
    q = rng.choice((0, 1, 2, rng.randint(3, 8)))
    units = []
    for _ in range(rng.randint(1, 6) + q):
        if rng.random() < 0.6:
            units.append(Jump(rng.choice((0, 1, 2, 3, rng.randint(4, 40)))))
        else:
            b = rng.choice(BASICS)
            units.append(rng.choice((Plain(b), PosTest(b), NegTest(b), HALT)))
    cut = len(units) - q
    return InstructionSequence(tuple(units[:cut]), tuple(units[cut:]))


def _large_threads_programs():
    """The compiled chains and deep specs of the large-threads workload: a
    chain through `corollary1_pipeline`, a deep spec and its renamed copy
    with duplicated states through `compile_spec`."""
    rng = random.Random(2052)
    programs = []
    for n in (125, 250, 500, 1000):
        labels = [rng.choice(BASICS) for _ in range(n - 1)]
        programs.append(corollary1_pipeline(chain_spec(labels, STOP)))
        programs.append(corollary1_pipeline(chain_spec(labels, DEADLOCK, "d")))
    for n in (1000, 3000):
        deep = deep_spec(rng, n)
        programs += [compile_spec(deep), compile_spec(renamed_copy(rng, deep, "u"))]
    return programs


def _assert_extract_matches_walk(programs):
    for p in programs:
        s = normalize_shifts(p)
        _assert_same_result(_result(extract, s), _result(_old_extract, s), print_thread,
                            print_program(p))


def test_extraction_matches_per_jump_walk_on_corpora():
    programs = draw_cases(PROPERTIES["transform"], 2024, 1000)
    programs += [transform_to_pgajs0(p) for p in programs[:300]]
    programs += draw_cases(PROPERTIES["exec"], 2025, 500)
    programs += _large_threads_programs() + [_ladder(50_000, 1)]
    _assert_extract_matches_walk(programs)


def test_extraction_matches_per_jump_walk_on_jump_chains():
    rng = random.Random(2053)
    programs = [parse_program(text) for text in _CHAIN_TEXTS]
    programs += [_chained_program(rng) for _ in range(3000)]
    assert {len(p.period) for p in programs} >= {0, 1, 2, 3}
    _assert_extract_matches_walk(programs)
    for p in programs:
        assert _jump_collapse(p) == _old_jump_collapse(p), print_program(p)


def _with_orphans(rng, spec, basics):
    """The spec with states the root does not reach, all in a shuffled
    order; the new states may refer to any state and hold any action or
    tau."""
    orphans = [f"o{i}" for i in range(rng.randint(1, 3))]
    names = list(spec.states) + orphans
    rng.shuffle(names)
    states = {}
    for name in names:
        states[name] = spec.states.get(name) or rng.choice((
            STOP, DEADLOCK,
            Post(rng.choice(basics + (TAU,)), rng.choice(names), rng.choice(names))))
    return ThreadSpec(states, spec.root)


# actions that cannot be compiled: reserved foci, and texts that do not
# parse back to the action
_BAD_ACTIONS = (Basic("cnt", "inc"), Basic("pgs", "drop"), Basic("f", "a b"),
                Basic("f.a", "b"), Basic("f", ""))


def _equal_branch_rewrite(spec, old):
    """The old compiler's program laid out one block per state of `spec`,
    with the block of each state whose branches are equal rewritten from
    +a; #d; #e to a; #d; #0, and every other block kept as it is; and the
    number of blocks rewritten."""
    index = _breadth_first(spec)
    assert not old.prefix
    units = list(old.period * (3 * len(index) // len(old.period)))
    rewritten = 0
    for name, i in index.items():
        body = spec.states[name]
        if isinstance(body, Post) and body.then == body.else_:
            test, then, else_ = units[3 * i:3 * i + 3]
            assert type(test) is PosTest and type(then) is Jump and type(else_) is Jump
            units[3 * i:3 * i + 3] = (Plain(test.basic), then, Jump(0))
            rewritten += 1
    return InstructionSequence((), tuple(units)), rewritten


def test_compile_matches_validate_first_route():
    rng = random.Random(2046)
    specs = _family_specs()
    for i in range(2000):
        basics = BASICS if i % 3 else BASICS + tuple(rng.sample(_BAD_ACTIONS, 2))
        spec = random_spec(rng, max_states=10, basics=basics,
                           allow_tau=i % 4 == 0, tau_prob=0.4)
        specs.append(_with_orphans(rng, spec, basics) if i % 2 else spec)
    kinds = []
    for spec in specs:
        where = print_thread(spec)
        for auto in (False, True):
            # the --abstract route: abstract first, then compile
            compiled = abstract_tau(spec) if auto else spec
            got = _result(compile_spec, compiled)
            want = _result(_old_compile_spec, spec, auto)
            if not isinstance(want, tuple):
                want, rewritten = _equal_branch_rewrite(compiled, want)
                kinds += ["equal-branch"] * rewritten
            _assert_same_result(got, want, print_program, where)
            kinds.append(got[0] if isinstance(got, tuple) else InstructionSequence)
    assert set(kinds) == {InstructionSequence, TauPresentError, ReservedFocusActionError,
                          CompileError, "equal-branch"}


# pieces of thread lines, correct and not: names, bodies, comments, stray
# brackets and signs, actions that do not parse, a # inside a method
_THREAD_PIECES = ("x", "y", "z", "=", "S", "D", "tau", "<x>", "<y>", "<z>", "f.a",
                  "f.hdeq:#0", "g.m.n", "1.a", "f.", ".a", "#", "# note", "#c",
                  "=S", "<x", "y>", "<>", "-", "x1", "S#", "<x>f.a", "é")
_THREAD_SEPARATORS = ("", " ", " ", "  ", "\t", "   ")


def _thread_corpus():
    rng = random.Random(2047)
    texts = []
    for spec in [random_spec(rng, max_states=6, allow_tau=True) for _ in range(300)]:
        text = print_thread(spec)
        lines = text.split("\n")
        texts.append(text)
        texts.append("\n".join(_respace(rng, line) for line in lines))
        texts.append("# head\n" + "\n".join(line + rng.choice(("", " # c", "\t#", "#x"))
                                            for line in lines))
        texts.append(text + "\n" + rng.choice(lines))  # a duplicate state
        texts.append(text.replace("s0", "nowhere", 1))  # perhaps a dangling target
        i = rng.randrange(len(text) + 1)
        texts.append(text[:i] + rng.choice(_EDIT_CHARS + "<>=#") + text[i:])
    for _ in range(2000):
        words = [rng.choice(_THREAD_PIECES) for _ in range(rng.randint(0, 7))]
        line = rng.choice(_THREAD_SEPARATORS)
        for word in words:
            line += word + rng.choice(_THREAD_SEPARATORS)
        texts.append(line)
        texts.append("x = S\n" + line)
    texts += [print_thread(spec) for spec in _family_specs()]
    texts += ["", "  \n# only a comment\n\t", "x = <x> " + "\t" * 50 + "f.a <x>"]
    return texts


def test_thread_corpus_reads_back_or_fails_with_a_known_message():
    texts = _thread_corpus()
    messages = []
    for text in texts:
        got = _result(parse_thread, text)
        if isinstance(got, tuple):
            messages.append(re.sub(r"'[^']*'|line \d+", "_", got[1]))
        else:
            _assert_same_result(parse_thread(print_thread(got)), got, print_thread, text)
    assert set(messages) == {
        "_: cannot parse _", "_: duplicate state _", "_: bad action _",
        "_: cannot parse body _", "no states defined", "state _ refers to undefined state _",
    }
    assert len(texts) - len(messages) > 1000


# every line separator of `str.splitlines` but "\n", and whitespace that is
# neither a space nor a tab
_LINE_BREAKS = ("\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
_ODD_SPACES = ("\xa0", "\u3000", "\x1f")


def _texts_for_both_readers():
    rng = random.Random(2049)
    texts = _thread_corpus()
    for spec in [random_spec(rng, max_states=5, allow_tau=True) for _ in range(300)]:
        text = print_thread(spec)
        lines = text.split("\n")
        texts.append(rng.choice(_LINE_BREAKS).join(lines))
        i = rng.choice([i for i, c in enumerate(text) if c == " "])
        for c in _LINE_BREAKS + _ODD_SPACES + ("\t", "\t \t"):
            texts.append(text[:i] + c + text[i + 1:])
        texts.append(text + "\n" * rng.randint(1, 3))
        texts.append(rng.choice(lines) + "\n" + text)  # a duplicate state
        texts.append(text.replace("s0", "x\u00e9"))
    texts += ["x\u00e9 = <y> f.hdeq:#0 <x\u00e9>\ny = <y> g.a.b <x\u00e9>",
              "x = <x> pgs.hdeq:#0 <x>\n", "x = S\n\n", "\nx = S", "\n", "x = S\ny = D\nx = S"]
    return texts


def test_thread_reader_matches_the_per_line_reader():
    # the one-pass read must give what the per-line reader gives: an equal
    # spec with the same root and state order, or the same error
    read = 0
    for text in _texts_for_both_readers():
        got = _result(parse_thread, text)
        _assert_same_result(got, _result(_parse_lines, text), print_thread, text)
        read += not isinstance(got, tuple)
    assert read > 3000


def _break_references(rng, spec):
    """The states and root of the spec with up to three references turned
    to names no state has: the root, or a `then` or `else_` of a state."""
    states = dict(spec.states)
    root = spec.root
    for k in range(rng.randint(0, 3)):
        name = rng.choice(list(states))
        body = states[name]
        where = rng.random()
        if where < 0.15:
            root = f"gone{k}"
        elif isinstance(body, Post):
            then, else_ = body.then, body.else_
            if where < 0.6:
                then = f"gone{k}"
            else:
                else_ = f"gone{k}"
            states[name] = Post(body.action, then, else_)
    return states, root


def test_reference_check_names_the_first_dangling_state():
    rng = random.Random(2054)
    specs = _family_specs()
    specs += [random_spec(rng, max_states=8, allow_tau=i % 3 == 0) for i in range(3000)]
    broken = 0
    for states, root in [_break_references(rng, spec) for spec in specs]:
        got = _result(ThreadSpec, states, root)
        dangling = [(name, target) for name, body in states.items() if isinstance(body, Post)
                    for target in (body.then, body.else_) if target not in states]
        if root not in states:
            assert got == (DanglingStateError, f"root state {root!r} is not defined")
        elif dangling:
            assert got == (DanglingStateError, "state {!r} refers to undefined state {!r}"
                           .format(*dangling[0])), (states, root)
        else:
            assert isinstance(got, ThreadSpec) and got.states is states, (states, root)
            continue
        broken += 1
    assert 1000 < broken < len(specs) - 1000


def test_jump_expansion_keeps_the_behaviour_of_its_corpus():
    rng = random.Random(2055)
    programs = [_jumpy_program(rng) for _ in range(1500)]
    programs += [random_program(rng, 16, allow_shift=True) for _ in range(500)]
    programs += draw_cases(PROPERTIES["transform"], 2024, 300)
    programs += _large_threads_programs()[:4]
    limit = EXPANSION_LIMIT
    programs += [parse_program(text) for text in (
        f"f.a; #{limit - 2}; !", f"f.a; #{limit - 1}; !", f"(#{limit // 3}; +f.a; #{limit // 3})*",
        f"(#{limit // 2}; f.a; #{limit // 2})*", f"#{JUMP_LIMIT}; #{JUMP_LIMIT}")]
    kinds = set()
    for p in programs:
        got = _result(transform_to_pgajs0, p)
        size = sum(u.offset + 1 if type(u) is Jump else 1 for u in p.prefix + p.period)
        if contains_shift(p):
            assert got == (ShiftPresentError, "input still contains shift instructions")
        elif size > limit:
            assert got == (JumpOverflowError, f"expanding the jumps gives {size}"
                           f" instructions, over {limit}"), print_program(p)
        elif size < 10_000:
            assert is_pgajs0(got) and bisimilar(extract(p), extract_pgajs(got)), print_program(p)
        kinds.add(got[0] if isinstance(got, tuple) else InstructionSequence)
    assert kinds == {InstructionSequence, ShiftPresentError, JumpOverflowError}


def _old_value(u):
    """An instruction's value as its dataclass compared it: kind and fields."""
    if isinstance(u, (Plain, PosTest, NegTest)):
        return type(u), u.basic.focus, u.basic.method
    if isinstance(u, Jump):
        return Jump, u.offset
    return (type(u),)


def test_instructions_are_one_object_per_value():
    rng = random.Random(2051)
    basics = BASICS + (Basic("f", "a.b"), Basic("g_1", "x.2"), Basic("f", "2"))
    corpus = [
        random_program(rng, rng.randint(1, 16), basics, allow_shift=rng.random() < 0.5)
        for _ in range(3000)
    ]
    distinct = {}
    for p in corpus:
        back = parse_program(print_program(p))
        for got, want in ((back.prefix, p.prefix), (back.period, p.period)):
            assert len(got) == len(want), print_program(p)
            assert all(x is y for x, y in zip(got, want)), print_program(p)
        distinct.update((id(u), u) for u in p.prefix + p.period)
    # every pair of instructions in the corpus is one of these pairs
    distinct = list(distinct.values())
    # every value the draws can make: three kinds per basic, #0 to #18, ! and ~
    assert len(distinct) == 3 * len(basics) + 19 + 2
    for a in distinct:
        for b in distinct:
            assert (a is b) == (_old_value(a) == _old_value(b)), (a, b)
