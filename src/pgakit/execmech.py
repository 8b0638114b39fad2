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
silent steps as it goes.  It reads each alphabet's mechanism once per
process, and asks its `hdeq` queries once per instruction, for every
program, position and counter.  Once the mechanism has shown a round
between two drops that it repeats, one rule takes the rounds ahead in one
step, by binary search in prefix sums over the positions: a run of
jump-shifts and a skipping countdown alike.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
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
        return _sorted_alphabet(frozenset(basics))

    @staticmethod
    def from_sequence(s: InstructionSequence) -> "Alphabet":
        return Alphabet.from_basics(basics_of(s))


@lru_cache(maxsize=16)
def _sorted_alphabet(basics: frozenset) -> Alphabet:
    """One alphabet per set of basics in use; a refused set raises again."""
    return Alphabet(tuple(sorted(basics, key=lambda b: (b.focus, b.method))))


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

    The configurations (mechanism state, program position, counter) are
    explored on the fly from the root; only the root and the targets of
    visible actions become states, named X0, X1, ... in breadth-first
    discovery order, `then` before `else_`, as `relabel` names them.  A
    silent walk that comes back to a configuration, or to a mechanism state
    and program position with no counter test on the way, spins forever and
    ends in deadlock.  The mechanism is read once per alphabet in a process.
    The `hdeq` queries from a state are walked once per instruction in that
    process, whatever the program, position and counter: the instruction
    alone decides the replies.  A round between two drops that returns to
    its mechanism state with no test finding the counter zero repeats at
    every position whose instruction answers its queries alike, while the
    counter keeps its tests nonzero.  Once a round comes back, the rounds
    known from its state are taken in one step, by binary search in prefix
    sums over the positions: a run of jump-shifts and a skipping countdown
    alike.  The budget caps the configurations walked."""
    if not is_pgajs0(p):
        raise NotPgajs0Error("execution requires a program with only #0 jumps")
    if alphabet is not None and not basics_of(p) <= set(alphabet.basics):
        raise AlphabetMismatchError("the program has basics outside the alphabet")
    pgs = pgs_new(p, alphabet)
    return _explore(_control(pgs.alphabet), pgs, budget or Budget())


_LEAF, _PGS, _CNT, _SHOW = range(4)


def _landing(
    s: InstructionSequence, sums: List[int], i: int, k: int
) -> Optional[Tuple[int, int]]:
    """Where the weights of the positions from position i on first add up
    to k, as (t, passes): index t of `sums` plus that many whole periods.
    sums[t] adds the weights before t, over prefix and period, or prefix
    and end of a finite sequence, whose end repeats as a period of one.
    Passes over the period go by division; None if they never get there."""
    p, e = len(s.prefix), len(sums) - 1
    k += sums[i]
    if k <= sums[e]:
        return bisect_left(sums, k, i), 0
    per = sums[e] - sums[p]
    if not per:
        return None
    passes, k = divmod(k - sums[p] - 1, per)
    return bisect_left(sums, sums[p] + k + 1, p), passes


@lru_cache(maxsize=16)
def _control(alphabet: Alphabet) -> tuple:
    """The alphabet's mechanism, read once for every program over it."""
    return _tables(build_exec_mechanism(alphabet))


def _tables(mech: ThreadSpec) -> tuple:
    """The explorer's tables of a control: per state its kind, body,
    method, and True and False successors; the root; and the chains of
    `hdeq` queries, filled in as runs reach them."""
    index = {sid: i for i, sid in enumerate(mech.states)}
    kinds, bodies, methods, thens, elses = [], [], [], [], []
    for body in mech.states.values():
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
    # (state, instruction at the position) -> where its `hdeq` queries lead
    # (None: deadlock) and their replies, which that instruction decides
    # for every program over the alphabet (the end of a finite one, None,
    # answers every query False)
    chains: Dict[tuple, Tuple[Optional[int], tuple]] = {}
    return index[mech.root], kinds, bodies, methods, thens, elses, chains


def _explore(control: tuple, pgs: PgsService, budget: Budget) -> ThreadSpec:
    """The thread of a control that `_tables` read, run with `pgs` and a
    zeroed counter, with all service traffic hidden, as `run_exec` says."""
    root, kinds, bodies, methods, thens, elses, chains = control
    s, alphabet, heads = pgs.sequence, pgs.alphabet, pgs._heads
    p, e = len(s.prefix), len(heads)
    TRUE, BLOCKED = Reply.TRUE, Reply.BLOCKED
    # (kind, position or counter, method) -> (position or counter after,
    # reply), so each service state answers each method once
    replies: Dict[Tuple[int, int, str], Tuple[int, Reply]] = {}

    def first_reply(kind: int, v: int, method: str) -> Tuple[int, Reply]:
        if kind == _CNT:
            svc, r = CounterService(v).apply(method)
            got = replies[(kind, v, method)] = (svc.content, r)
        else:
            svc, r = PgsService(s, alphabet, v, False, heads).apply(method)
            got = replies[(kind, v, method)] = (svc.position, r)
        return got

    def chain(at: tuple, v: int) -> Tuple[Optional[int], tuple]:
        m, asked = at[0], ()
        while m is not None and kinds[m] == _PGS and methods[m] != "drop":
            _, r = replies.get((_PGS, v, methods[m])) or first_reply(_PGS, v, methods[m])
            asked += ((methods[m], r),)
            m = thens[m] if r is TRUE else elses[m]
            if r is BLOCKED or len(asked) > len(kinds):  # wedged, or a cycle
                m = None
        got = chains[at] = (m, asked)
        return got

    # per state a drop landed in: its rounds by the program queries and
    # replies they asked -> change to the counter, and lowest test less the
    # value on entry (None: no test)
    rounds: Dict[int, Dict[tuple, Tuple[int, Optional[int]]]] = {}
    # per state: prefix counts of the positions no round of it covers, and
    # prefix sums of the change each covered one makes, in size; the sign of
    # those changes (0: mixed) and the lowest test of any round
    tables: Dict[int, tuple] = {}
    distinct = set(heads)
    # prefix sums over the positions by the weight of each instruction,
    # shared by the states and rounds that weigh them alike
    arrays: Dict[frozenset, List[int]] = {}

    def prefix(weights: Dict[Optional[Instruction], int]) -> List[int]:
        key = frozenset(weights.items())
        got = arrays.get(key)
        if got is None:
            got = arrays[key] = list(accumulate(map(weights.__getitem__, heads), initial=0))
        return got

    def table(m2: int) -> tuple:
        known = rounds[m2]
        ds = [d for d, _ in known.values()]
        lows = [low for _, low in known.values() if low is not None]
        bare, size = {}, {}
        for h in distinct:  # the end of a finite program answers no query
            moved = next((abs(d) for asked, (d, _) in known.items() if all(
                (h is alphabet._by_text[q[len("hdeq:"):]]) == (r is TRUE) for q, r in asked
            )), None)
            bare[h], size[h] = int(moved is None), moved or 0
        got = tables[m2] = (
            prefix(bare),
            prefix(size),
            1 if min(ds) >= 0 else -1 if max(ds) <= 0 else 0,
            min(lows, default=None),
        )
        return got

    def repeat(m2: int, i: int, c: int):
        """The position and counter past the rounds known from m2, from
        position i with counter c: at the first position none covers, or
        where a test would find the counter zero.  DEADLOCK if neither
        comes, None if no round is taken."""
        bare, size, sign, low = tables.get(m2) or table(m2)
        if not sign or (low is not None and c + low < 1):
            return None
        stops = []
        got = _landing(s, bare, i, 1)  # just past the first bare position
        if got is not None:
            stops.append((got[0] - 1, got[1]))
        if sign < 0:  # a round that lowers the counter tested it
            stops.append(_landing(s, size, i, c + low))
        stops = [t for t in stops if t is not None]
        if not stops:
            return DEADLOCK
        t, passes = min(stops, key=lambda stop: stop[0] + stop[1] * (e - p))
        if t == i and not passes:
            return None
        moved = size[t] - size[i] + passes * (size[e] - size[p])
        return position(s, t), c + sign * moved

    resolved: Dict[tuple, object] = {}  # configuration -> visible configuration or leaf
    limit = budget.max_states

    def resolve(m: int, v: int, c: int):
        walked: Dict[tuple, None] = {}
        pairs = set()  # (mechanism state, position) since the last counter test
        mark = None  # (mechanism state, counter) where the last drop landed
        # since the mark: program queries and replies, the lowest counter
        # value tested (None: none), and whether no test found it zero and
        # nothing cleared it
        asked, low, plain = (), None, True
        room = limit - len(resolved)
        while True:
            if kinds[m] == _PGS and methods[m] != "drop":
                at = (m, heads[v])
                m, queries = chains.get(at) or chain(at, v)
                if m is None:
                    got = DEADLOCK
                    break
                asked += queries
            cfg = (m, v, c)
            got = resolved.get(cfg)
            if got is not None:
                break
            if cfg in walked or (m, v) in pairs:
                got = DEADLOCK
                break
            if len(walked) >= room:
                raise BudgetExceededError(
                    f"run_exec explored more than {limit} configurations"
                )
            walked[cfg] = None
            pairs.add((m, v))
            kind = kinds[m]
            if kind == _SHOW:
                got = cfg
                break
            if kind == _LEAF:
                got = bodies[m]
                break
            method = methods[m]
            here = c if kind == _CNT else v
            nxt, r = replies.get((kind, here, method)) or first_reply(kind, here, method)
            if r is BLOCKED:
                got = DEADLOCK
                break
            if kind == _CNT:
                if method != "inc":
                    pairs.clear()
                    plain = plain and c > 0 and method != "clr"
                    low = c if low is None else min(low, c)
                c = nxt
            else:  # a drop
                if r is TRUE:
                    m2 = thens[m]
                    if mark is not None and mark[0] == m2:
                        if plain and thens[m] == elses[m]:
                            known = rounds.setdefault(m2, {})
                            if asked not in known:
                                known[asked] = (
                                    c - mark[1], None if low is None else low - mark[1]
                                )
                                tables.pop(m2, None)
                        jump = repeat(m2, nxt, c) if m2 in rounds else None
                        if jump is DEADLOCK:
                            got = DEADLOCK
                            break
                        if jump is not None:
                            nxt, c = jump
                            if tables[m2][3] is not None:
                                pairs.clear()
                    mark, asked, low, plain = (m2, c), (), None, True
                v = nxt
            m = thens[m] if r is TRUE else elses[m]
        for cfg in walked:
            resolved[cfg] = got
        return got

    # emitted configurations -> names, in discovery order, which is the
    # order they leave the queue in
    names: Dict[tuple, str] = {}
    queue: deque = deque()

    def name(cfg: tuple) -> str:
        got = names.get(cfg)
        if got is None:
            got = names[cfg] = f"X{len(names)}"
            queue.append(cfg)
        return got

    name((root, pgs.position, 0))
    states: Dict[str, Body] = {}
    while queue:
        got = resolve(*queue.popleft())
        if isinstance(got, tuple):
            m, v, c = got
            got = Post(bodies[m].action, name((thens[m], v, c)), name((elses[m], v, c)))
        states[f"X{len(states)}"] = got
    return ThreadSpec(states, "X0")


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
