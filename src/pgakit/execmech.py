"""A program-independent execution mechanism.

One fixed finite-state thread per instruction alphabet drives any program
over that alphabet through two services: a program service (holding the
sequence and a position in it, with head-equality queries and a drop) and
a counter (tracking pending skips).  Hiding the service traffic leaves the
program's own behaviour, equal to direct extraction (run_exec vs
extract_pgajs).

The thread finds the instruction at the head by `hdeq` queries and enacts
it by the two-mode equations, laid out from the table in `altsem` that
`extract_alt` reads too; its `pgs.drop` steps move the program service on.
`run_exec` explores the mechanism with both services on the fly, hiding
silent steps as it goes, and takes a run of equal instructions, such as a
run of jump-shifts, in one step once the mechanism has shown one round of
it to repeat.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .altsem import (
    _BASIC,
    _COUNTDOWN,
    _DEAD,
    _FLY_OVER,
    _GUARDED,
    _MOVE_ON,
    _NEXT,
    _READ,
    _SKIP,
    NotPgajs0Error,
    _lay_out,
)
from .services import (
    Budget,
    BudgetExceededError,
    CounterService,
    Reply,
    Service,
    _state_names,
    counter_new,
)
from .syntax import (
    HALT,
    SHIFT,
    InstructionSequence,
    Instruction,
    Jump,
    NegTest,
    Plain,
    PosTest,
    ProgramError,
    RESERVED_FOCI,
    basics_of,
    instruction_at,
    instruction_text,
    is_pgajs0,
    position,
)
from .threads import (
    DEADLOCK,
    STOP,
    Basic,
    Body,
    Post,
    ThreadSpec,
)


class AlphabetError(ProgramError):
    pass


class AlphabetMismatchError(AlphabetError):
    pass


@dataclass(frozen=True)
class Alphabet:
    """The basic instructions a mechanism dispatches over, in dispatch
    order; `from_basics` and `from_sequence` sort them by (focus, method).
    The instructions are the plain and both test forms of each basic, then
    #0, halt and the jump-shift.  Each instruction's text names it in
    `hdeq` queries, so no two may print alike."""

    basics: Tuple[Basic, ...]
    instructions: Tuple[Instruction, ...] = field(init=False, repr=False, compare=False)
    # hdeq text -> instruction
    _by_text: Dict[str, Instruction] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        instructions = []
        for b in self.basics:
            if b.focus in RESERVED_FOCI:
                raise AlphabetError(f"focus {b.focus!r} is reserved")
            instructions.extend([Plain(b), PosTest(b), NegTest(b)])
        instructions.extend([Jump(0), HALT, SHIFT])
        by_text: Dict[str, Instruction] = {}
        for u in instructions:
            text = instruction_text(u)
            if text in by_text:
                raise AlphabetError(f"two instructions print as {text!r}")
            by_text[text] = u
        object.__setattr__(self, "instructions", tuple(instructions))
        object.__setattr__(self, "_by_text", by_text)

    @staticmethod
    def from_basics(basics) -> "Alphabet":
        return Alphabet(tuple(sorted(set(basics), key=lambda b: (b.focus, b.method))))

    @staticmethod
    def from_sequence(s: InstructionSequence) -> "Alphabet":
        return Alphabet.from_basics(basics_of(s))


@dataclass(frozen=True)
class PgsService(Service):
    """Service view of a stored instruction sequence and a position in it.
    `hdeq:t` answers whether the instruction at the position is the
    alphabet's instruction with text t (no state change); `drop` moves the
    position one on (False at the end position of a finite sequence).  On a
    periodic sequence the position wraps back into the period, so distinct
    positions hold distinct remaining sequences and the key can name the
    position alone.  A query the alphabet does not name, or any other
    method, wedges the service."""

    sequence: InstructionSequence
    alphabet: Alphabet = field(compare=False)
    position: int = 0
    undefined: bool = False

    def apply(self, method: str) -> Tuple["PgsService", Reply]:
        if self.undefined:
            return self, Reply.BLOCKED
        s = self.sequence
        if method == "drop":
            if self.position == len(s):
                return self, Reply.FALSE
            pos = position(s, self.position + 1)
            return PgsService(s, self.alphabet, pos), Reply.TRUE
        u = None
        if method.startswith("hdeq:"):
            u = self.alphabet._by_text.get(method[len("hdeq:"):])
        if u is None:
            return PgsService(s, self.alphabet, self.position, True), Reply.BLOCKED
        got = instruction_at(s, self.position) == u
        return self, Reply.TRUE if got else Reply.FALSE

    def key(self) -> str:
        if self.undefined:
            return "pgs:undef"
        if self.position == len(self.sequence):
            return "pgs:eps"
        return f"pgs:{self.position}"


def pgs_new(
    p: InstructionSequence, alphabet: Optional[Alphabet] = None
) -> PgsService:
    """The program service of p; queries name instructions of the alphabet,
    by default that of p's own basics."""
    if alphabet is None:
        alphabet = Alphabet.from_sequence(p)
    return PgsService(p, alphabet)


def build_exec_mechanism(alphabet: Alphabet) -> ThreadSpec:
    """The dispatch thread: query the head against each alphabet entry in
    order and enact the matched instruction; an exhausted program behaves
    like a trailing #0.  State count is 16m + 16 for m admitted basics,
    independent of any program."""
    states: Dict[str, Body] = {}
    units = alphabet.instructions
    exits = {_READ: "q0", _SKIP: "sq", _DEAD: "dead"}

    def hdeq(u: Instruction) -> Basic:
        return Basic("pgs", "hdeq:" + instruction_text(u))

    def lay_out(steps, names, basic=None, ends=exits, moved=None):
        for name, action, then, else_ in _lay_out(steps, names, ends, moved):
            states[name] = Post(basic if action is _BASIC else action, then, else_)

    # guarded-mode dispatch chain; an exhausted program reads as a #0 with
    # no head to drop
    for i, u in enumerate(units):
        nxt = f"q{i + 1}" if i + 1 < len(units) else "gend"
        states[f"q{i}"] = Post(hdeq(u), f"e{i}", nxt)
    lay_out(_GUARDED[Jump], ("gend",), moved=exits)
    states["dead"] = DEADLOCK

    # skipping-mode loop: count down at every head, land by re-dispatching
    # the same head, and fly over a shift
    lay_out(_COUNTDOWN, ("sq", "sisz"), ends={**exits, _NEXT: "schk"})
    states["schk"] = Post(hdeq(SHIFT), "sshr", "sdrop")
    lay_out(_FLY_OVER, ("sshr", "sshd"))
    lay_out(_MOVE_ON, ("sdrop",))

    # per-instruction enactments
    for i, u in enumerate(units):
        e = f"e{i}"
        steps = _GUARDED[type(u)]
        if not steps:
            states[e] = STOP
        names = (e, e + "b", e + "c", e + "d", e + "f")
        lay_out(steps, names, getattr(u, "basic", None))
    return ThreadSpec(states, "q0")


def run_exec(
    p: InstructionSequence,
    budget: Optional[Budget] = None,
    alphabet: Optional[Alphabet] = None,
) -> ThreadSpec:
    """Execute a #0-jumps-only program through the mechanism, with the
    program service and a zeroed counter, and hide all service traffic.

    The configurations (mechanism state, program service, counter) are
    explored on the fly from the root; only the root and the targets of
    visible actions become states.  A silent walk that comes back to a
    configuration, or to a mechanism state and program position with no
    counter test on the way, spins forever and ends in deadlock.  A run of
    equal instructions is taken in one step: once a round between two
    drops comes back to the same mechanism state, changing the counter by
    d without testing it or leaving it unchanged, every further instruction
    of the run repeats that round, so the rest of the run moves the
    position by k and the counter by d*k at once.  The budget caps the
    configurations walked."""
    if not is_pgajs0(p):
        raise NotPgajs0Error("execution requires a program with only #0 jumps")
    if alphabet is not None and not basics_of(p) <= set(alphabet.basics):
        raise AlphabetMismatchError("the program has basics outside the alphabet")
    pgs = pgs_new(p, alphabet)
    return _explore(build_exec_mechanism(pgs.alphabet), pgs, budget or Budget())


def _run_lengths(s: InstructionSequence) -> List[Optional[int]]:
    """For each position, how many positions from it on hold the same
    instruction, wrapping into the period; None where that never ends."""
    p, q = len(s.prefix), len(s.period)
    if q == 1:  # a primitive period of one instruction repeats it forever
        runs: List[Optional[int]] = [None]
    else:
        # a primitive period of two or more instructions holds two that
        # differ, so no run wraps all the way round it
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


_LEAF, _PGS, _CNT, _SHOW = range(4)


def _explore(mech: ThreadSpec, pgs: PgsService, budget: Budget) -> ThreadSpec:
    """The thread of `mech` run with `pgs` and a zeroed counter, with all
    service traffic hidden, as `run_exec` describes."""
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
    runs = _run_lengths(s)
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


def theorem3_witness(n: int) -> ThreadSpec:
    """Family of threads whose compiled programs exercise long jump chains:
    a ladder of n+1 test states over action f.a descending to Stop, where
    the i-th rung's else-branch enters a cycle doing f.b i times then f.c."""
    if n < 1:
        raise ValueError("n must be >= 1")
    a = Basic("f", "a")
    b = Basic("f", "b")
    c = Basic("f", "c")
    states: Dict[str, Body] = {}
    for i in range(n + 1):
        states[f"T{i}"] = Post(a, f"T{i + 1}", f"Tp{i + 1}_0")
    states[f"T{n + 1}"] = STOP
    for j in range(1, n + 2):
        for k in range(j):
            states[f"Tp{j}_{k}"] = Post(b, f"Tp{j}_{k + 1}", f"Tp{j}_{k + 1}")
        states[f"Tp{j}_{j}"] = Post(c, f"Tp{j}_0", f"Tp{j}_0")
    return ThreadSpec(states, "T0")
