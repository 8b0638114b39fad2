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
process and walks it by segments: from where a drop lands or a visible
action leads, to the next drop, visible action or leaf.  Within a segment
the position stays put, so the instruction there and the counter's tests
alone decide the walk: each segment is the control evaluated once for one
instruction (partial evaluation, Jones, Gomard & Sestoft 1993), kept per
alphabet under (state, instruction, min(counter, K)) and shared by every
program.  So is whether a segment from where a drop lands is a round, one
that drops back into its start state: the rounds are read once per landing
state, and one rule takes the rounds ahead in one step, by binary search in
prefix sums over the positions: a run of jump-shifts and a skipping
countdown alike.  Walks meet, and find silent loops, only where segments
start.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from typing import Dict, List, NamedTuple, Optional, Tuple

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
    instruction_at,
    instruction_text,
    position,
    zero_jumps_only,
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
        return Alphabet.from_basics(basics_of({*s.prefix, *s.period}))


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
        return self, Reply.TRUE if instruction_at(s, self.position) == u else Reply.FALSE

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
    ends in deadlock.

    The walk goes by segments: from the root, where a drop lands or where a
    visible action leads, up to the next drop, visible action or leaf.  A
    segment is filled the first time a run needs it and kept with the
    alphabet's mechanism, keyed by the mechanism state, the instruction at
    the position (None at the end of a finite program) and min(c, K): K is
    the least counter that stays above zero through the segment, up to a
    clr, so every counter from K on walks it alike (K is at most one more
    than the segment's counter tests).  The key holds nothing of a
    program, so every program over the alphabet shares the segments.  A
    segment records its end, the change to the counter or its reset by a
    clr, the lowest value a test found, whether it tested the counter and
    the configurations it stands for.  Walks look each other up only where
    segments start: a walk that joins another inside a segment runs on to
    that segment's end.  A segment that every counter from K on walks from
    where a drop lands, and that drops back into its first state with no
    clr on the way, is a round: it repeats at every position that holds
    its instruction (at the end of a finite program, where the drop fails,
    it stays there), while the counter keeps its tests nonzero.  The
    rounds from each state are read off the control once, and wherever a
    drop lands in a state that has rounds, those ahead are taken in one
    step, by binary search in prefix sums over the positions: a run of
    jump-shifts and a skipping countdown alike.

    The budget caps the configurations walked, counted one by one: a
    segment adds the configurations it stands for, and a run raises
    BudgetExceededError once they exceed the budget.  As walks share only
    where segments start, that sum can pass the count of distinct
    configurations."""
    units = {*p.prefix, *p.period}
    if not zero_jumps_only(units):
        raise NotPgajs0Error("execution requires a program with only #0 jumps")
    basics = basics_of(units)
    if alphabet is None:
        alphabet = Alphabet.from_basics(basics)
    elif not basics <= set(alphabet.basics):
        raise AlphabetMismatchError("the program has basics outside the alphabet")
    return _explore(_control(alphabet), p, budget or Budget())


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
def _control(alphabet: Alphabet) -> _Control:
    """The alphabet's mechanism, read once for every program over it."""
    return _tables(build_exec_mechanism(alphabet), alphabet)


# How a segment ends: at a drop that moves the position on, or one that
# finds the end of a finite program (the drops come first: how <= _FAILED);
# at a visible action; at a leaf; in deadlock; or before a state it has
# passed, where the next one starts.
_MOVED, _FAILED, _VISIBLE, _ENDED, _STUCK, _AGAIN = range(6)
_WALKING = object()  # what a configuration resolves to while its walk runs


class _Control(NamedTuple):
    """What `_tables` reads off a control, and what runs of it fill in."""

    root: int
    kinds: list
    bodies: list
    methods: list
    thens: list
    elses: list
    asks: list  # per query: the instruction it names (None: it wedges)
    units: tuple  # the instructions a position can hold; None: the end
    # per state: instruction at the position -> K and the segments from
    # there, by min(counter, K); nothing of a program
    segments: list
    # per state a drop lands in: what `_rounds` reads off the segments
    # from there; nothing of a program
    rounds: dict


def _tables(mech: ThreadSpec, alphabet: Alphabet) -> _Control:
    """The explorer's tables of a control whose `hdeq` queries name
    instructions of the alphabet: per state its kind, body, method, True
    and False successors and the instruction a query names (None: it
    wedges the program service); the root; and the segments and rounds,
    filled in as runs reach them."""
    index = {sid: i for i, sid in enumerate(mech.states)}
    kinds, bodies, methods, thens, elses, asks = [], [], [], [], [], []
    for body in mech.states.values():
        bodies.append(body)
        if isinstance(body, Post):
            focus, method = body.action.focus, body.action.method
            kinds.append(_PGS if focus == "pgs" else _CNT if focus == "cnt" else _SHOW)
            methods.append(method)
            thens.append(index[body.then])
            elses.append(index[body.else_])
            query = focus == "pgs" and method.startswith("hdeq:")
            asks.append(alphabet._by_text.get(method[len("hdeq:"):]) if query else None)
        else:
            kinds.append(_LEAF)
            methods.append(None)
            thens.append(None)
            elses.append(None)
            asks.append(None)
    return _Control(index[mech.root], kinds, bodies, methods, thens, elses, asks,
                    alphabet.instructions + (None,), [{} for _ in kinds], {})


def _segment(control: _Control, m: int, h: Optional[Instruction], c: Optional[int]) -> tuple:
    """The walk of a control from state m, at a position that holds h
    (None: the end of a finite program), with counter c, up to the next
    drop, visible action or leaf, or up to a state it has passed.  Only h
    and the counter's tests decide it, so it serves every program and
    position.  With c None it is the walk that keeps the counter above
    zero until a clr; every counter from K on takes it.

    Returns the segment and K.  The segment is (count, tested, rel, val,
    low, how, at, nxt):
    - count: the configurations it stands for; tested: whether it tested
      or reset the counter;
    - the counter after it: c + val if rel, else val (a clr reset it);
    - low: the lowest value a test found less c, before any reset (None:
      none);
    - how it ends, the last state walked and the state the walk goes on
      from."""
    _, kinds, _, methods, thens, elses, asks, _, _, _ = control
    seen = {}
    count, rel, val, least, low = 0, True, 0, 0, None
    tested, at = False, None

    while True:
        if m in seen:
            how = _AGAIN if seen[m] < count else _STUCK  # a cycle of queries alone
            break
        seen[m] = count
        kind, method = kinds[m], methods[m]
        if kind == _PGS and method != "drop":
            if asks[m] is None:
                how = _STUCK
                break
            r = h is asks[m]
        else:
            count += 1
            at = m
            if kind == _SHOW:
                how = _VISIBLE
                break
            if kind == _LEAF:
                how = _ENDED
                break
            if kind == _PGS:
                how, m = (_MOVED, thens[m]) if h is not None else (_FAILED, elses[m])
                break
            if method == "inc":
                r, val = True, val + 1
            elif method == "clr":
                r, val, rel = True, 0, False
                tested = True
            elif method == "dec" or method == "isz":
                zero = c is not None and c + val == 0 if rel else val == 0
                tested = True
                if rel:
                    low = val if low is None else min(low, val)
                r = zero if method == "isz" else not zero
                val -= method == "dec" and r
            else:
                how = _STUCK
                break
            if rel:
                least = min(least, val)
        m = thens[m] if r else elses[m]
    return (count, tested, rel, val, low, how, at, m), 1 - least


def _explore(control: _Control, s: InstructionSequence, budget: Budget) -> ThreadSpec:
    """The thread of a control that `_tables` read, run on program s from
    its first position with a zeroed counter, with all service traffic
    hidden, as `run_exec` says."""
    root, _, bodies, _, thens, elses, _, units, segments, rounds = control
    heads = s.prefix + (s.period or (None,))  # the instruction at each position
    p, e = len(s.prefix), len(heads)

    # per state a drop landed in that has rounds: prefix counts of the
    # positions no round of it covers, and prefix sums of the change each
    # covered one makes, in size; the sign of those changes (0: mixed) and
    # the lowest test of any round
    tables: Dict[int, tuple] = {}
    # prefix sums over the positions by the weights `_rounds` gives, shared
    # by the states that weigh them alike
    arrays: Dict[tuple, List[int]] = {}

    def prefix(weights: tuple) -> List[int]:
        got = arrays.get(weights)
        if got is None:
            if any(weights):
                weight = dict(zip(units, weights))
                got = list(accumulate(map(weight.__getitem__, heads), initial=0))
            else:
                got = [0] * (e + 1)
            arrays[weights] = got
        return got

    def table(m2: int) -> tuple:
        bare, size, sign, low = rounds[m2]
        got = tables[m2] = (prefix(bare), prefix(size), sign, low)
        return got

    def repeat(m2: int, i: int, c: int):
        """The position and counter past the rounds from m2, from position
        i with counter c: at the first position none covers, or where a
        test would find the counter zero.  DEADLOCK if neither comes, None
        if no round is taken."""
        bare, size, sign, low = tables.get(m2) or table(m2)
        if not sign or (low is not None and c + low < 1):
            return None
        stop = _landing(s, bare, i, 1)  # just past the first bare position
        if stop is not None:
            stop = (stop[0] - 1, stop[1])
        if sign < 0:  # a round that lowers the counter tested it
            zero = _landing(s, size, i, c + low)
            if zero is not None and (
                stop is None or zero[0] + zero[1] * (e - p) < stop[0] + stop[1] * (e - p)
            ):
                stop = zero
        if stop is None:
            return DEADLOCK
        t, passes = stop
        if t == i and not passes:
            return None
        moved = size[t] - size[i] + passes * (size[e] - size[p])
        return t if t < e else p, c + sign * moved

    # configuration -> visible configuration or leaf, for the configurations
    # where segments start
    resolved: Dict[tuple, object] = {}
    limit = budget.max_states
    spent = 0  # configurations walked

    def resolve(m: int, v: int, c: int):
        nonlocal spent
        walked: List[tuple] = []
        pairs = set()  # (state, position) where segments started since the last test
        room, n = limit - spent, 0
        while True:
            cfg = (m, v, c)
            got = resolved.get(cfg)
            if got is not None:  # another walk's, or _WALKING: this one's
                if got is _WALKING:
                    got = DEADLOCK
                break
            if (m, v) in pairs:
                got = DEADLOCK
                break
            h = heads[v]
            k, slots = segments[m].get(h) or _first_segment(control, m, h)
            i = c if c < k else k
            count, tested, rel, val, _, how, at, nxt = slots[i] or _fill(control, slots, m, h, i)
            n += count
            if n > room:
                raise BudgetExceededError(
                    f"run_exec explored more than {limit} configurations"
                )
            resolved[cfg] = _WALKING
            walked.append(cfg)
            pairs.add((m, v))
            if tested:
                pairs.clear()
            c = c + val if rel else val
            if how <= _FAILED:  # a drop, into nxt
                if how == _MOVED:
                    v += 1
                    if v == e:  # round into the period
                        v = p
                if (rounds[nxt] if nxt in rounds else _rounds(control, nxt)) is not None:
                    jump = repeat(nxt, v, c)
                    if jump is DEADLOCK:
                        got = DEADLOCK
                        break
                    if jump is not None:
                        v, c = jump
                        if tables[nxt][3] is not None:
                            pairs.clear()
            elif how == _VISIBLE:
                got = (at, v, c)
                break
            elif how == _ENDED:
                got = bodies[at]
                break
            elif how == _STUCK:
                got = DEADLOCK
                break
            m = nxt
        for cfg in walked:
            resolved[cfg] = got
        spent += n
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

    name((root, 0, 0))
    states: Dict[str, Body] = {}
    while queue:
        got = resolve(*queue.popleft())
        if isinstance(got, tuple):
            m, v, c = got
            got = Post(bodies[m].action, name((thens[m], v, c)), name((elses[m], v, c)))
        states[f"X{len(states)}"] = got
    return ThreadSpec(states, "X0")


def _first_segment(control: _Control, m: int, h: Optional[Instruction]) -> Tuple[int, list]:
    """K and the segments from state m over h, with the one every counter
    from K on walks in place."""
    seg, k = _segment(control, m, h, None)
    got = control.segments[m][h] = (k, [None] * k + [seg])
    return got


def _rounds(control: _Control, m: int) -> Optional[tuple]:
    """The rounds from state m, read off its segments once and kept with
    the control; None if it has none.  The segment from m over an
    instruction that every counter from K on walks is a round if it ends
    in a drop back into m, with no clr on the way: at every position that
    holds that instruction it brings the walk back to m at the next one
    (at the end of a finite program, where the drop fails, at the end
    again), for as long as the counter keeps its tests nonzero.

    Returns the weight of each instruction, in the order of `units`, in
    the prefix counts of the positions no round covers and in the prefix
    sums of the change of the round that covers it, in size; the sign of
    the changes (0: mixed) and the lowest value a test of any round found,
    less the counter on entry (None: no test)."""
    units = control.units
    found = {}  # instruction -> change and lowest test of its round
    for h in units:
        k, slots = control.segments[m].get(h) or _first_segment(control, m, h)
        _, _, rel, val, low, how, _, nxt = slots[k]
        if how <= _FAILED and nxt == m and rel:
            found[h] = val, low
    got = None
    if found:
        changes = [d for d, _ in found.values()]
        got = (
            tuple(int(h not in found) for h in units),
            tuple(abs(found[h][0]) if h in found else 0 for h in units),
            1 if min(changes) >= 0 else -1 if max(changes) <= 0 else 0,
            min((low for _, low in found.values() if low is not None), default=None),
        )
    control.rounds[m] = got
    return got


def _fill(control: _Control, slots: list, m: int, h: Optional[Instruction], c: int) -> tuple:
    """The segment from state m over h with counter c, kept in its slot."""
    got = slots[c] = _segment(control, m, h, c)[0]
    return got


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
