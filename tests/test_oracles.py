"""Library layers against their earlier algorithms.

Each layer keeps one reference here, except `run_exec`, which keeps two
(see below).  `tests/mutants.py` lists hand-made mutants of the library
and the tests that must kill them; a reference goes only when every
mutant there is still killed without it.

The copies below are the algorithms that `abstract_tau`, the program
service and the naming pass of `compose` used before they were made
linear: a tau walk from every state, a program service keyed by its
printed remaining sequence, and suffix numbering from 1 for every copy.
They build the same states under the same names, so results must be
equal (`==`) and print identically, not just bisimilar.  `bisimilar` must
give the verdict of projections to depth n + m (`projections_agree` in
`tests/strategies.py`), which decide bisimilarity of specs of n and m
states.

`_old_extract_alt` and `_old_build_exec_mechanism` are the two builders as
they were written before both read one table of the two-mode equations:
one hand-written enactment per instruction kind.  The table-driven builders
must give the same states under the same names.

`_layered_run_exec` is the execution route as it was before `run_exec`
explored configurations on the fly: compose the mechanism with the
program service, collapse counter divergence, compose with the counter,
hide silent steps.  The explorer names states by configuration, so the
two threads must be equal after `relabel`.  `_old_explore` is the explorer
as it was before it took a skipping countdown in one step and walked the
`hdeq` queries once per instruction: it counted down one position and one
counter value at a time, and asked the queries again for every counter
value, reading the run lengths that `_old_run_lengths` counts by comparing
each instruction with its neighbour.  Its threads must be equal after
`relabel` too.  It stays beside the layered route because it is the only
reference fast enough for programs of long mixed shift runs, whose
counter products the layered route cannot build in tier-1 time.
`_walked_landing` is the explorer's landing search one position at a time.

`_old_roll_back` is the canonical-form rollback as it was before it
rotated the period once: one rotation per trailing prefix instruction
that matches the period's last element.  It must give equal sequences.
`_old_primitive` finds the primitive root by trying every divisor of the
period length; the search over prime factors must give the same root.

`_old_parse_program` is the parser as it was before it read programs in
one pass: a tokenizer, a recursive-descent parser building a `Term`, and a
recursive flattening.  On every input the one-pass parser must give an
equal sequence, or raise the same exception class at the same line and
column.

`_old_extract`, `_old_jump_collapse` and `_old_compile_spec` are
extraction, jump collapsing and the compiler as they were before each
walked its input once: extraction built a state for every non-jump
position, walked every jump chain from its start and then ran `relabel`;
the compiler pruned through `validate` and then walked again for its
layout.  `_old_compile_spec` keeps the compiler's old `auto_abstract`
flag; its abstracting arm is checked against `abstract_tau` followed by
`compile_spec`, the route `compile --abstract` takes.
`_old_parse_thread` read a thread line with four regular expressions
after stripping its comment with a fifth.  Results must be
equal and print identically; errors must have the same class and
message.  The per-jump walk is quadratic in the length of a jump chain,
so the 10^5-position ladder of `#2` jumps, whose chains run to its end,
is not checked against it; `test_acceptance.py` pins its extraction.

`_old_check_references` is the reference check of `ThreadSpec` as it was
before it tested every successor at once: a walk over each successor of
each state.  `_old_transform_to_pgajs0` expanded the jumps one instruction
at a time.  The new code must accept what they accept, and raise the same
class with the same message otherwise.

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
    Shift,
    Stop,
    Tau,
    TauPresentError,
    ThreadError,
    ThreadSpec,
    ThreadSyntaxError,
    abstract_tau,
    bisimilar,
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
from pgakit.execmech import _CNT, _LEAF, _PGS, _SHOW, _landing
from pgakit.extraction import _jump_collapse
from pgakit.threads import Body, _breadth_first
from pgakit.corpus import random_program, random_spec
from pgakit.properties import PROPERTIES, draw_cases
from pgakit.services import _state_names
from pgakit.syntax import (
    EXPANSION_LIMIT,
    HALT,
    JUMP_LIMIT,
    Concat,
    Instr,
    JumpOverflowError,
    ProgramError,
    ProgramSyntaxError,
    RESERVED_FOCI,
    Repeat,
    ReservedFocusError,
    ShiftPresentError,
    _primitive,
    contains_shift,
    instruction_at,
    position,
    to_canonical,
    instruction_text,
    print_program,
)
from strategies import BASICS, chain_spec, deep_spec, projections_agree, renamed_copy, spec_pair


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


def _old_state_names(sids):
    per_sid = {}
    for sid in sids:
        per_sid[sid] = per_sid.get(sid, 0) + 1
    taken = set()
    names = []
    for sid in sids:
        if per_sid[sid] == 1 and sid not in taken:
            name = sid
        else:
            n = 1
            while f"{sid}_{n}" in taken or f"{sid}_{n}" in per_sid:
                n += 1
            name = f"{sid}_{n}"
        taken.add(name)
        names.append(name)
    return names


_CLR = Basic("cnt", "clr")
_INC = Basic("cnt", "inc")
_DEC = Basic("cnt", "dec")
_ISZ = Basic("cnt", "isz")


def _old_extract_alt(s):
    p = len(s.prefix)
    q = len(s.period)
    finite = q == 0
    total = p + q + (1 if finite else 0)

    def instr(i):
        if finite and i == p + q:
            return Jump(0)
        if i < p:
            return s.prefix[i]
        return s.period[i - p]

    def succ(i):
        if finite:
            return min(i + 1, total - 1)
        return i + 1 if i + 1 < total else p

    states = {}
    for i in range(total):
        u = instr(i)
        g = f"g{i}"
        nxt = f"g{succ(i)}"
        if isinstance(u, Halt):
            states[g] = STOP
        elif isinstance(u, Shift):
            states[g] = Post(_INC, nxt, nxt)
        elif isinstance(u, Jump):
            states[g] = Post(_ISZ, "dd", f"s{succ(i)}")
        elif isinstance(u, Plain):
            states[g] = Post(_CLR, f"{g}a", f"{g}a")
            states[f"{g}a"] = Post(u.basic, nxt, nxt)
        elif isinstance(u, PosTest):
            states[g] = Post(_CLR, f"{g}a", f"{g}a")
            states[f"{g}a"] = Post(u.basic, nxt, f"{g}b")
            states[f"{g}b"] = Post(_INC, f"{g}c", f"{g}c")
            states[f"{g}c"] = Post(_INC, f"s{succ(i)}", f"s{succ(i)}")
        else:
            assert isinstance(u, NegTest)
            states[g] = Post(_CLR, f"{g}a", f"{g}a")
            states[f"{g}a"] = Post(u.basic, f"{g}b", nxt)
            states[f"{g}b"] = Post(_INC, f"{g}c", f"{g}c")
            states[f"{g}c"] = Post(_INC, f"s{succ(i)}", f"s{succ(i)}")
        states[f"s{i}"] = Post(_DEC, f"s{i}a", f"s{i}a")
        if isinstance(u, Shift):
            states[f"s{i}a"] = Post(_ISZ, g, f"s{i}b")
            states[f"s{i}b"] = Post(_INC, f"s{succ(i)}", f"s{succ(i)}")
        else:
            states[f"s{i}a"] = Post(_ISZ, g, f"s{succ(i)}")
    states["dd"] = DEADLOCK
    return validate(ThreadSpec(states, "g0"))


def _old_build_exec_mechanism(alphabet):
    states = {}
    units = alphabet.instructions

    def hdeq(u):
        return Basic("pgs", "hdeq:" + instruction_text(u))

    drop = Basic("pgs", "drop")
    for i, u in enumerate(units):
        nxt = f"q{i + 1}" if i + 1 < len(units) else "gend"
        states[f"q{i}"] = Post(hdeq(u), f"e{i}", nxt)
    states["gend"] = Post(_ISZ, "dead", "sq")
    states["dead"] = DEADLOCK
    states["sq"] = Post(_DEC, "sisz", "sisz")
    states["sisz"] = Post(_ISZ, "q0", "schk")
    states["schk"] = Post(hdeq(SHIFT), "sshr", "sdrop")
    states["sshr"] = Post(_INC, "sshd", "sshd")
    states["sshd"] = Post(drop, "sq", "sq")
    states["sdrop"] = Post(drop, "sq", "sq")
    for i, u in enumerate(units):
        e = f"e{i}"
        if isinstance(u, Halt):
            states[e] = STOP
        elif isinstance(u, Shift):
            states[e] = Post(drop, f"{e}b", f"{e}b")
            states[f"{e}b"] = Post(_INC, "q0", "q0")
        elif isinstance(u, Jump):
            states[e] = Post(_ISZ, "dead", f"{e}b")
            states[f"{e}b"] = Post(drop, "sq", "sq")
        elif isinstance(u, Plain):
            states[e] = Post(drop, f"{e}b", f"{e}b")
            states[f"{e}b"] = Post(_CLR, f"{e}c", f"{e}c")
            states[f"{e}c"] = Post(u.basic, "q0", "q0")
        elif isinstance(u, PosTest):
            states[e] = Post(drop, f"{e}b", f"{e}b")
            states[f"{e}b"] = Post(_CLR, f"{e}c", f"{e}c")
            states[f"{e}c"] = Post(u.basic, "q0", f"{e}d")
            states[f"{e}d"] = Post(_INC, f"{e}f", f"{e}f")
            states[f"{e}f"] = Post(_INC, "sq", "sq")
        else:
            assert isinstance(u, NegTest)
            states[e] = Post(drop, f"{e}b", f"{e}b")
            states[f"{e}b"] = Post(_CLR, f"{e}c", f"{e}c")
            states[f"{e}c"] = Post(u.basic, f"{e}d", "q0")
            states[f"{e}d"] = Post(_INC, f"{e}f", f"{e}f")
            states[f"{e}f"] = Post(_INC, "sq", "sq")
    return validate(ThreadSpec(states, "q0"))


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


def test_state_names_match_counting_from_one():
    rng = random.Random(2033)
    pool = ["x", "x_1", "x_2", "x_1_1", "y", "y_3", "q0"]
    for _ in range(500):
        sids = [rng.choice(pool) for _ in range(rng.randint(1, 20))]
        assert _state_names(sids) == _old_state_names(sids)


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
        # the explorer names its states by configuration, not by product
        assert relabel(run_exec(p)) == relabel(layered), print_program(p)


def test_explorer_matches_layered_route_on_exec_corpus():
    # the corpus of the execution-mechanism acceptance gate
    for p in draw_cases(PROPERTIES["exec"], 2025, 500):
        assert relabel(run_exec(p)) == relabel(_layered_run_exec(p)), print_program(p)


def test_explorer_matches_layered_route_on_witnesses():
    for n in (1, 2, 3, 4):
        p = corollary1_pipeline(theorem3_witness(n))
        assert relabel(run_exec(p)) == relabel(_layered_run_exec(p)), n


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

    names = dict(zip(emitted, _state_names([sids[cfg[0]] for cfg in emitted])))
    states: Dict[str, Body] = {}
    for cfg, got in emitted.items():
        if isinstance(got, tuple):
            m, pk, ck = got
            got = Post(
                bodies[m].action, names[(thens[m], pk, ck)], names[(elses[m], pk, ck)]
            )
        states[names[cfg]] = got
    return ThreadSpec(states, names[root])


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
        assert relabel(run_exec(p)) == relabel(_old_run_exec(p)), print_program(p)


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


def test_two_mode_builders_match_hand_written_equations():
    rng = random.Random(2038)
    corpus = [
        random_program(rng, max_len=16, allow_shift=True, pgajs0=True)
        for _ in range(300)
    ]
    # runs of shifts ending a finite program, and inside a period
    corpus += [InstructionSequence((SHIFT,) * k + (Jump(0),), ()) for k in range(4)]
    corpus += [InstructionSequence((), (SHIFT,) * k + (Jump(0), Halt()))
               for k in range(1, 4)]
    corpus += [corollary1_pipeline(theorem3_witness(n)) for n in (1, 2, 3)]
    assert any(not p.period for p in corpus) and any(p.period for p in corpus)
    for p in corpus:
        _assert_same(extract_alt(p), _old_extract_alt(p))
        alphabet = Alphabet.from_sequence(p)
        _assert_same(build_exec_mechanism(alphabet), _old_build_exec_mechanism(alphabet))
    for m in (1, 2, 3, 4):
        alphabet = Alphabet.from_basics(Basic("f", chr(ord("a") + i)) for i in range(m))
        _assert_same(build_exec_mechanism(alphabet), _old_build_exec_mechanism(alphabet))


# --- the parser before the one-pass reader -----------------------------------

_OLD_PUNCT = {";", "(", ")", "*", "!", "~", "#", "+", "-", "."}


class _OldToken:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _old_tokenize(text):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_OldToken("NAT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_OldToken("IDENT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c in _OLD_PUNCT:
            tokens.append(_OldToken(c, c, line, col))
            i += 1
            col += 1
            continue
        raise ProgramSyntaxError(f"unexpected character {c!r}", line, col)
    tokens.append(_OldToken("EOF", "", line, col))
    return tokens


class _OldParser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind):
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            raise ProgramSyntaxError(
                f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                tok.line,
                tok.col,
            )
        self.pos += 1
        return tok

    def term(self):
        factors = [self.factor()]
        while self.peek().kind == ";":
            self.take(";")
            factors.append(self.factor())
        node = factors[-1]
        for f in reversed(factors[:-1]):
            node = Concat(f, node)
        return node

    def factor(self):
        tok = self.peek()
        if tok.kind == "(":
            self.take("(")
            inner = self.term()
            self.take(")")
            self.take("*")
            return Repeat(inner)
        return Instr(self.instruction())

    def basic(self):
        focus_tok = self.take("IDENT")
        self.take(".")
        m = self.peek()
        if m.kind not in ("IDENT", "NAT"):
            raise ProgramSyntaxError(
                f"expected method name, found {m.text!r}", m.line, m.col
            )
        self.pos += 1
        method = m.text
        # method names may continue with dots, e.g. f.m.n
        while self.peek().kind == ".":
            self.take(".")
            part = self.peek()
            if part.kind not in ("IDENT", "NAT"):
                raise ProgramSyntaxError(
                    f"expected method name, found {part.text!r}",
                    part.line,
                    part.col,
                )
            self.pos += 1
            method += "." + part.text
        if focus_tok.text in RESERVED_FOCI:
            raise ReservedFocusError(
                f"focus {focus_tok.text!r} is reserved",
                focus_tok.line,
                focus_tok.col,
            )
        return Basic(focus_tok.text, method)

    def instruction(self):
        tok = self.peek()
        if tok.kind == "!":
            self.take("!")
            return HALT
        if tok.kind == "~":
            self.take("~")
            return SHIFT
        if tok.kind == "#":
            self.take("#")
            nat = self.take("NAT")
            return Jump(int(nat.text))
        if tok.kind == "+":
            self.take("+")
            return PosTest(self.basic())
        if tok.kind == "-":
            self.take("-")
            return NegTest(self.basic())
        if tok.kind == "IDENT":
            return Plain(self.basic())
        raise ProgramSyntaxError(
            f"expected an instruction, found {tok.text or 'end of input'!r}",
            tok.line,
            tok.col,
        )


def _old_parse_term(text):
    parser = _OldParser(_old_tokenize(text))
    term = parser.term()
    parser.take("EOF")
    return term


def _old_flatten(term):
    """Prefix and period lists of a term.  A `;`-list is a right-nested
    Concat chain, so the chain is walked in a loop that appends into one
    prefix; recursion only enters left operands and starred bodies."""
    prefix = []
    while isinstance(term, Concat):
        lp, lq = _old_flatten(term.left)
        prefix += lp
        if lq:
            # anything after an infinite iteration is unreachable
            return prefix, lq
        term = term.right
    if isinstance(term, Instr):
        prefix.append(term.instruction)
        return prefix, []
    body_p, body_q = _old_flatten(term.body)
    if body_q:
        # iterating a term that already ends in a loop keeps that loop
        return prefix + body_p, body_q
    return prefix, body_p


def _old_parse_program(text):
    prefix, period = _old_flatten(_old_parse_term(text))
    return InstructionSequence(tuple(prefix), tuple(period))


def _old_parse_instruction(text):
    parser = _OldParser(_old_tokenize(text))
    u = parser.instruction()
    parser.take("EOF")
    return u


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
    return texts + [e for t in texts for e in _edits(rng, t, 3)]


def _outcome(parse, text):
    try:
        return parse(text)
    except ProgramError as exc:
        return type(exc), getattr(exc, "line", None), getattr(exc, "col", None)


def test_parser_matches_recursive_descent():
    outcomes = []
    for text in _parser_corpus():
        got = _outcome(parse_program, text)
        assert got == _outcome(_old_parse_program, text), text
        assert _outcome(parse_instruction, text) == _outcome(_old_parse_instruction, text), text
        outcomes.append(got if isinstance(got, tuple) else InstructionSequence)
    kinds = {o[0] if isinstance(o, tuple) else o for o in outcomes}
    assert kinds == {InstructionSequence, ProgramSyntaxError, ReservedFocusError, JumpOverflowError}
    assert sum(o is InstructionSequence for o in outcomes) > len(outcomes) // 3


def _random_term(rng, depth):
    roll = rng.random() if depth else 1.0
    if roll < 0.3:
        return Repeat(_random_term(rng, depth - 1))
    if roll < 0.7:
        return Concat(_random_term(rng, depth - 1), _random_term(rng, depth - 1))
    return Instr(rng.choice((Plain(BASICS[0]), NegTest(BASICS[1]), Jump(2), HALT, SHIFT)))


def test_to_canonical_matches_recursive_flattening():
    rng = random.Random(2041)
    for _ in range(500):
        term = _random_term(rng, 6)
        prefix, period = _old_flatten(term)
        assert to_canonical(term) == InstructionSequence(tuple(prefix), tuple(period))


def _old_primitive(period):
    n = len(period)
    for d in range(1, n + 1):
        if n % d == 0 and period == period[:d] * (n // d):
            return period[:d]
    return period


def test_primitive_root_matches_divisor_search():
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
        assert got == _old_primitive(period), period
        powers += len(got) < len(period)
    assert powers > 1000
    assert _primitive((SHIFT,) * 100_000) == (SHIFT,)
    # many divisors, and every shift test runs to the last instruction
    assert _primitive((SHIFT,) * 720_719 + (HALT,)) == (SHIFT,) * 720_719 + (HALT,)


def _old_roll_back(prefix, period):
    period = _primitive(tuple(period))
    work = list(prefix)
    while work and work[-1] == period[-1]:
        period = (period[-1],) + period[:-1]
        work.pop()
    return tuple(work), period


def test_rollback_matches_one_rotation_per_instruction():
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
        assert (s.prefix, s.period) == _old_roll_back(prefix, period), (prefix, period)
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


_OLD_LINE_RE = re.compile(r"^([A-Za-z_]\w*)\s*=\s*(.+?)\s*$")
_OLD_POST_RE = re.compile(r"^<([A-Za-z_]\w*)>\s+(\S+)\s+<([A-Za-z_]\w*)>$")
_OLD_TAU_RE = re.compile(r"^tau\s+<([A-Za-z_]\w*)>$")
_OLD_ACTION_RE = re.compile(r"^([A-Za-z_]\w*)\.(\S+)$")
_OLD_COMMENT_RE = re.compile(r"(^|\s)#.*$")


def _old_read_thread(text):
    """The states and root of a thread text, before the spec checks them."""
    states = {}
    root = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _OLD_COMMENT_RE.sub("", raw).strip()
        if not line:
            continue
        m = _OLD_LINE_RE.match(line)
        if m is None:
            raise ThreadSyntaxError(f"line {lineno}: cannot parse {line!r}")
        name, rhs = m.group(1), m.group(2)
        if name in states:
            raise ThreadSyntaxError(f"line {lineno}: duplicate state {name!r}")
        if rhs == "S":
            body = STOP
        elif rhs == "D":
            body = DEADLOCK
        elif (mt := _OLD_TAU_RE.match(rhs)) is not None:
            body = Post(TAU, mt.group(1), mt.group(1))
        elif (mp := _OLD_POST_RE.match(rhs)) is not None:
            ma = _OLD_ACTION_RE.match(mp.group(2))
            if ma is None:
                raise ThreadSyntaxError(
                    f"line {lineno}: bad action {mp.group(2)!r}"
                )
            body = Post(Basic(ma.group(1), ma.group(2)), mp.group(1), mp.group(3))
        else:
            raise ThreadSyntaxError(f"line {lineno}: cannot parse body {rhs!r}")
        states[name] = body
        if root is None:
            root = name
    if root is None:
        raise ThreadSyntaxError("no states defined")
    return states, root


def _old_parse_thread(text):
    return ThreadSpec(*_old_read_thread(text))


def _result(f, *args):
    """What f returns, or the class and message of what it raises."""
    try:
        return f(*args)
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
            got = _result(compile_spec, abstract_tau(spec) if auto else spec)
            _assert_same_result(got, _result(_old_compile_spec, spec, auto), print_program, where)
            kinds.append(got[0] if isinstance(got, tuple) else InstructionSequence)
    assert set(kinds) == {InstructionSequence, TauPresentError, ReservedFocusActionError,
                          CompileError}


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


def test_parse_thread_matches_four_pattern_reader():
    texts = _thread_corpus()
    messages = []
    for text in texts:
        got = _result(parse_thread, text)
        _assert_same_result(got, _result(_old_parse_thread, text), print_thread, text)
        if isinstance(got, tuple):
            messages.append(re.sub(r"'[^']*'|line \d+", "_", got[1]))
    assert set(messages) == {
        "_: cannot parse _", "_: duplicate state _", "_: bad action _",
        "_: cannot parse body _", "no states defined", "state _ refers to undefined state _",
    }
    assert len(texts) - len(messages) > 1000


def _old_check_references(states, root):
    if root not in states:
        raise DanglingStateError(f"root state {root!r} is not defined")
    for name, body in states.items():
        if isinstance(body, Post):
            for target in (body.then, body.else_):
                if target not in states:
                    raise DanglingStateError(
                        f"state {name!r} refers to undefined state {target!r}"
                    )


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


def test_reference_check_matches_per_state_walk():
    rng = random.Random(2054)
    specs = _family_specs()
    specs += [random_spec(rng, max_states=8, allow_tau=i % 3 == 0) for i in range(3000)]
    cases = [_break_references(rng, spec) for spec in specs]
    for text in _thread_corpus():
        read = _result(_old_read_thread, text)
        if isinstance(read[0], dict):
            cases.append(read)
    messages = []
    for states, root in cases:
        want = _result(_old_check_references, states, root)
        got = _result(ThreadSpec, states, root)
        if want is None:
            assert isinstance(got, ThreadSpec) and got.states is states, (states, root)
        else:
            assert got == want, (states, root)
            messages.append(re.sub(r"'[^']*'", "_", want[1]))
    assert set(messages) == {"root state _ is not defined",
                             "state _ refers to undefined state _"}
    assert 1000 < len(messages) < len(cases) - 1000


def _old_transform_to_pgajs0(s):
    if contains_shift(s):
        raise ShiftPresentError("input still contains shift instructions")
    size = sum(u.offset + 1 if isinstance(u, Jump) else 1 for u in s.prefix + s.period)
    if size > EXPANSION_LIMIT:
        raise JumpOverflowError(
            f"expanding the jumps gives {size} instructions, over {EXPANSION_LIMIT}"
        )

    def expand(units):
        out = []
        for u in units:
            if isinstance(u, Jump) and u.offset > 0:
                out.extend([SHIFT] * u.offset)
                out.append(Jump(0))
            else:
                out.append(u)
        return tuple(out)

    return InstructionSequence(expand(s.prefix), expand(s.period))


def test_jump_expansion_matches_per_instruction_loop():
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
        _assert_same_result(got, _result(_old_transform_to_pgajs0, p), print_program, print_program(p))
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
