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
silent steps as it goes.  It asks the `hdeq` queries once per instruction,
whatever the position and counter, and takes a run of equal instructions,
such as a run of jump-shifts, or a skipping countdown in one step once the
mechanism has shown the rounds that it repeats.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from itertools import accumulate, groupby
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
    # the instruction at each position (None at a finite end), built once
    _heads: Optional[tuple] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self._heads is None:
            s = self.sequence
            object.__setattr__(self, "_heads", s.prefix + (s.period or (None,)))

    def apply(self, method: str) -> Tuple["PgsService", Reply]:
        if self.undefined:
            return self, Reply.BLOCKED
        s, heads = self.sequence, self._heads
        if method == "drop":
            if self.position == len(s):
                return self, Reply.FALSE
            pos = position(s, self.position + 1)
            return PgsService(s, self.alphabet, pos, False, heads), Reply.TRUE
        u = None
        if method.startswith("hdeq:"):
            u = self.alphabet._by_text.get(method[len("hdeq:"):])
        if u is None:
            return PgsService(s, self.alphabet, self.position, True, heads), Reply.BLOCKED
        return self, Reply.TRUE if heads[self.position] == u else Reply.FALSE

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
    counter test on the way, spins forever and ends in deadlock.  The
    `hdeq` queries from a state are walked once per instruction, whatever
    the position and counter.  A round between two drops that returns to
    its mechanism state with no test finding the counter zero repeats at
    every position that answers its queries alike, while the counter keeps
    its tests nonzero.  So the rest of a run of equal instructions is taken
    in one step when its round changes the counter untested or not at all;
    and once one round keeps the counter and one lowers it, on opposite
    replies to one query, a countdown lands at once, by binary search in a
    prefix count.  The budget caps the configurations walked."""
    if not is_pgajs0(p):
        raise NotPgajs0Error("execution requires a program with only #0 jumps")
    if alphabet is not None and not basics_of(p) <= set(alphabet.basics):
        raise AlphabetMismatchError("the program has basics outside the alphabet")
    pgs = pgs_new(p, alphabet)
    return _explore(build_exec_mechanism(pgs.alphabet), pgs, budget or Budget())


def _run_lengths(s: InstructionSequence) -> List[Optional[int]]:
    """For each position, how many positions from it on hold the same
    instruction, wrapping into the period; None where that never ends."""
    q = len(s.period)
    if not q:
        return _counted_down(s.prefix)
    if q == 1:  # a primitive period of one instruction repeats it forever
        runs: List[Optional[int]] = [None]
    else:
        # a primitive period of two or more instructions holds two that
        # differ, so no run wraps all the way round it
        runs = _counted_down(s.period * 2)[:q]
    return _counted_down(s.prefix, s.period[0], runs[0]) + runs


def _counted_down(units: tuple, after=None, ahead: Optional[int] = 0) -> list:
    """n, n - 1, ..., 1 for each run of n equal instructions, in order; a
    last run of `after` goes on for `ahead` more (None: forever)."""
    lengths: List[Optional[int]] = []
    u = n = None
    for u, run in groupby(units):
        n = len(list(run))
        lengths.extend(range(n, 0, -1))
    if n and u is after:
        lengths[-n:] = [None] * n if ahead is None else range(n + ahead, ahead, -1)
    return lengths


_LEAF, _PGS, _CNT, _SHOW = range(4)


def _landing(s: InstructionSequence, counts: List[int], i: int, k: int) -> Optional[int]:
    """The position just past the k-th counted position from position i on;
    counts[j] counts those before j over prefix and period, or prefix and
    end of a finite sequence.  Passes over the period go by division."""
    p, e = len(s.prefix), len(counts) - 1
    k += counts[i]
    if k > counts[e]:
        per = counts[e] - counts[p]
        if not per:
            return None
        k = counts[p] + (k - counts[p] - 1) % per + 1
    return position(s, bisect_left(counts, k))


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

    s, heads = pgs.sequence, pgs._heads
    runs = _run_lengths(s)
    cnt = counter_new(0)
    # services by key; replies by (service key, method), so each distinct
    # service state answers each method once
    services: Dict[str, Service] = {pgs.key(): pgs, cnt.key(): cnt}
    replies: Dict[Tuple[str, str], Tuple[str, Reply]] = {}
    TRUE, FALSE, BLOCKED = Reply.TRUE, Reply.FALSE, Reply.BLOCKED

    def enter(svc: Service) -> str:
        key = svc.key()
        services.setdefault(key, svc)
        return key

    def first_reply(key: str, method: str) -> Tuple[str, Reply]:
        svc, r = services[key].apply(method)
        got = replies[(key, method)] = (enter(svc), r)
        return got

    # (state, instruction at the position) -> where its `hdeq` queries lead
    # (None: deadlock) and their replies, which that instruction decides
    chains: Dict[tuple, Tuple[Optional[int], tuple]] = {}

    def chain(at: tuple, pk: str) -> Tuple[Optional[int], tuple]:
        m, asked = at[0], ()
        while m is not None and kinds[m] == _PGS and methods[m] != "drop":
            _, r = replies.get((pk, methods[m])) or first_reply(pk, methods[m])
            asked += ((methods[m], r),)
            m = thens[m] if r is TRUE else elses[m]
            if r is BLOCKED or len(asked) > len(kinds):  # wedged, or a cycle
                m = None
        got = chains[at] = (m, asked)
        return got

    def rest_of_run(pk: str, prev: int, c: int, d: int):
        """The position and counter past the rounds left in the run after the
        one that dropped from `prev`, each adding d to the counter c:
        DEADLOCK if the run never ends, None if no round is left."""
        more = runs[prev]
        if more is None:
            return DEADLOCK
        if more > 1:
            return position(s, services[pk].position + more - 1), c + d * (more - 1)

    # (state a drop landed in, queries and replies of a round back to it) ->
    # its change to the counter and lowest test, less the value on entry
    rounds: Dict[Tuple[int, tuple], Tuple[int, int]] = {}
    tallies: Dict[Tuple[str, Reply], List[int]] = {}  # prefix counts by reply

    def countdown(m2: int, query: str, pk: str, c: int):
        """Where rounds from m2 stop repeating, once one that keeps the counter
        and one that lowers it were seen, with opposite replies to one query."""
        both = [rounds.get((m2, ((query, r),))) for r in (TRUE, FALSE)]
        if None in both:
            return None
        keep, down = sorted(both, reverse=True)
        d, low = down[0], min(keep[1], down[1])
        if keep[0] or d >= 0 or c + low < 1:
            return None
        k = (c + low - 1) // -d + 1  # rounds that lower it, each entered above -low
        reply = (TRUE, FALSE)[both.index(down)]
        counts = tallies.get((query, reply))
        if counts is None:
            u = pgs.alphabet._by_text[query[len("hdeq:"):]]
            flags = ((h == u) == (reply is TRUE) for h in heads)
            counts = tallies[(query, reply)] = list(accumulate(flags, initial=0))
        pos = _landing(s, counts, services[pk].position, k)
        if pos is None:  # the period holds no round that lowers the counter
            return DEADLOCK
        return pos, c + d * k

    resolved: Dict[tuple, object] = {}  # configuration -> visible configuration or leaf
    limit = budget.max_states

    def resolve(m: int, pk: str, ck: str):
        walked: Dict[tuple, None] = {}
        pairs = set()  # (mechanism state, pgs key) since the last counter test
        mark = None  # (mechanism state, counter) where the last drop landed
        # since the mark: whether the counter was tested, program queries and
        # replies, its lowest value tested, and whether no test found it zero
        # and nothing cleared it
        tested, asked, low, plain = False, (), 0, True
        room = limit - len(resolved)
        while True:
            if kinds[m] == _PGS and methods[m] != "drop":
                at = (m, heads[services[pk].position])
                m, queries = chains.get(at) or chain(at, pk)
                if m is None:
                    got = DEADLOCK
                    break
                asked += queries
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
                if method != "inc":
                    pairs.clear()
                    tested = True
                    c = services[ck].content
                    plain = plain and c > 0 and method != "clr"
                    low = min(low, c)
                ck = nxt
            else:  # a drop
                if r is TRUE:
                    m2 = thens[m]
                    c = services[ck].content
                    if mark is not None and mark[0] == m2:
                        if plain and thens[m] == elses[m]:
                            rounds[(m2, asked)] = (c - mark[1], low - mark[1])
                        jump = countdown(m2, asked[0][0], nxt, c) if len(asked) == 1 else None
                        if jump is None and (not tested or mark[1] == c):
                            jump = rest_of_run(nxt, services[pk].position, c, c - mark[1])
                        if jump is DEADLOCK:
                            got = DEADLOCK
                            break
                        if jump is not None:
                            pos, c = jump
                            nxt = enter(PgsService(s, pgs.alphabet, pos, False, heads))
                            ck = enter(CounterService(c))
                            if tested:
                                pairs.clear()
                    mark, tested, asked, low, plain = (m2, c), False, (), c, True
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
