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
program.  Once the mechanism has shown a round between two drops that it
repeats, one rule takes the rounds ahead in one step, by binary search in
prefix sums over the positions: a run of jump-shifts and a skipping
countdown alike.
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
    clr, the lowest value a test found, its program queries and replies,
    and the configurations it stands for, with those where another walk
    can have come first: where two ways into a state bring the counter
    with the same sign (zero or not), found once per mechanism.  A round
    between two drops that returns to its mechanism state with no test
    finding the counter zero repeats at every position whose instruction
    answers its queries alike, while the counter keeps its tests nonzero.
    Once a round comes back, the rounds known from its state are taken in
    one step, by binary search in prefix sums over the positions: a run of
    jump-shifts and a skipping countdown alike.

    The budget caps the configurations walked, counted one by one: a
    segment adds the configurations it stands for, so a run raises
    BudgetExceededError at the same configuration as a walk one
    configuration at a time would."""
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
def _control(alphabet: Alphabet) -> _Control:
    """The alphabet's mechanism, read once for every program over it."""
    return _tables(build_exec_mechanism(alphabet), alphabet)


# How a segment ends: at a drop that moves the position on, or one that
# finds the end of a finite program; at a visible action; at a leaf; in
# deadlock; or before a state it has passed, where the next one starts.
_MOVED, _FAILED, _VISIBLE, _ENDED, _STUCK, _AGAIN = range(6)
_ZERO, _MORE, _JOIN = 1, 2, 4  # signs of the counter, as bits; see `meets`
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
    # per state: the signs of the counter walks can meet there with, and
    # _JOIN if two states lead there
    meets: list
    units: tuple  # the instructions a position can hold; None: the end
    # per state: instruction at the position -> K and the segments from
    # there, by min(counter, K); nothing of a program
    segments: list


def _tables(mech: ThreadSpec, alphabet: Alphabet) -> _Control:
    """The explorer's tables of a control whose `hdeq` queries name
    instructions of the alphabet: per state its kind, body, method, True
    and False successors, the instruction a query names (None: it wedges
    the program service) and the counters two walks can meet there with;
    the root; and the segments, filled in as runs reach them."""
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
    root = index[mech.root]

    def arrivals(m: int, signs: int) -> list:
        """Where a step from m leads, with the signs of the counter there,
        one entry per way in: a clr takes every counter to zero, and a dec
        takes one and zero to zero by its two branches."""
        kind, method, then, else_ = kinds[m], methods[m], thens[m], elses[m]
        if kind == _LEAF or not signs:
            return []
        if kind != _CNT:
            return [(then, signs)] if then == else_ else [(then, signs), (else_, signs)]
        if method == "inc":
            return [(then, _MORE)]
        if method == "clr":
            return [(then, _ZERO), (then, _ZERO)]
        if method == "dec":
            return [(then, _ZERO | _MORE)] * (signs >= _MORE) + [(else_, _ZERO)] * (signs & 1)
        if method == "isz":
            return [(then, _ZERO)] * (signs & 1) + [(else_, _MORE)] * (signs >= _MORE)
        return []

    # the signs a walk can reach each state with, from a zero counter at the
    # root; a walk after a visible action starts with the counter it had
    signs = [0] * len(kinds)
    signs[root] = _ZERO
    stack = [root]
    while stack:
        m = stack.pop()
        for t, sign in arrivals(m, signs[m]):
            if sign & ~signs[t]:
                signs[t] |= sign
                stack.append(t)
    # Walks with different pasts first meet in a configuration where two
    # ways in bring the counter with the same sign; every other step has one
    # configuration before it.  A walk first comes back to a state and
    # position with no test on the way where two states lead.  The root is
    # a way in with zero.
    ways = [[0, 0, 0] for _ in kinds]
    ways[root][_ZERO] += 1
    preds: List[set] = [set() for _ in kinds]
    preds[root].add(None)
    for m in range(len(kinds)):
        for t, sign in arrivals(m, signs[m]):
            preds[t].add(m)
            for bit in (_ZERO, _MORE):
                ways[t][bit] += sign & bit == bit
    meets = [_ZERO * (w[_ZERO] > 1) | _MORE * (w[_MORE] > 1) | _JOIN * (len(pred) > 1)
             for w, pred in zip(ways, preds)]
    return _Control(root, kinds, bodies, methods, thens, elses, asks, meets,
                    alphabet.instructions + (None,), [{} for _ in kinds])


def _segment(control: _Control, m: int, h: Optional[Instruction], c: Optional[int]) -> tuple:
    """The walk of a control from state m, at a position that holds h
    (None: the end of a finite program), with counter c, up to the next
    drop, visible action or leaf, or up to a state it has passed.  Only h
    and the counter's tests decide it, so it serves every program and
    position.  With c None it is the walk that keeps the counter above
    zero until a clr; every counter from K on takes it.

    Returns the segment and K.  The segment is (checks, count, tail, rel,
    val, low, plain, asked, how, at, nxt):
    - checks: the configurations where another walk can have come first,
      each (configurations before it, before the next check, state,
      relative, counter value or change, whether a test came since the
      last check, whether a configuration can meet there or only its state
      and position); the first configuration is one;
    - count: the configurations it stands for; tail: whether a test came
      after the last check;
    - the counter after it: c + val if rel, else val (a clr reset it);
    - low: the lowest value a test found less c, before any reset (None:
      none); plain: whether no test found zero and nothing reset it;
    - asked: its program queries, as (state, reply);
    - how it ends, the last state walked and the state the walk goes on
      from."""
    _, kinds, _, methods, thens, elses, asks, meets, _, _ = control
    asked, checks, seen = (), [], {}
    count, rel, val, least, low, plain = 0, True, 0, 0, None, True
    tested, meet, at = False, 2, None  # meet: 2 all of it, 1 state and position

    def counter() -> Optional[int]:  # None: above zero
        return val if not rel else None if c is None else c + val

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
            asked += ((m, r),)
        else:
            if meet:
                checks.append([count, 0, m, rel, val, tested, meet > 1])
                tested, meet = False, 0
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
                tested, plain = True, False
            elif method == "dec" or method == "isz":
                zero = counter() == 0
                tested, plain = True, plain and not zero
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
        ways_in = meets[m]
        meet = max(meet, 2 if ways_in & (_ZERO if counter() == 0 else _MORE) else
                   ways_in >= _JOIN)
    for i, check in enumerate(checks):
        check[1] = checks[i + 1][0] if i + 1 < len(checks) else count
    checks = tuple(map(tuple, checks))
    return (checks, count, tested, rel, val, low, plain, asked, how, at, m), 1 - least


def _explore(control: _Control, pgs: PgsService, budget: Budget) -> ThreadSpec:
    """The thread of a control that `_tables` read, run with `pgs` and a
    zeroed counter, with all service traffic hidden, as `run_exec` says."""
    root, _, bodies, _, thens, elses, _, _, units, segments = control
    s, heads = pgs.sequence, pgs._heads
    p, e = len(s.prefix), len(heads)

    # per state a drop landed in: its rounds by the program queries and
    # replies they asked -> change to the counter, and lowest test less the
    # value on entry (None: no test)
    rounds: Dict[int, Dict[tuple, Tuple[int, Optional[int]]]] = {}
    # per state: prefix counts of the positions no round of it covers, and
    # prefix sums of the change each covered one makes, in size; the sign of
    # those changes (0: mixed) and the lowest test of any round
    tables: Dict[int, tuple] = {}
    # prefix sums over the positions by the weights `_weigh` gives, shared
    # by the states and rounds that weigh them alike
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
        bare, size, sign, low = _weigh(control, rounds[m2])
        got = tables[m2] = (prefix(bare), prefix(size), sign, low)
        return got

    def repeat(m2: int, i: int, c: int):
        """The position and counter past the rounds known from m2, from
        position i with counter c: at the first position none covers, or
        where a test would find the counter zero.  DEADLOCK if neither
        comes, None if no round is taken."""
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
    # where walks meet
    resolved: Dict[tuple, object] = {}
    limit = budget.max_states
    spent = 0  # configurations walked

    def resolve(m: int, v: int, c: int):
        nonlocal spent
        walked: List[tuple] = []
        pairs = set()  # (mechanism state, position) since the last counter test
        mark, marked = None, 0  # mechanism state and counter where the last drop landed
        # since the mark: program queries and replies, the lowest counter
        # value tested (None: none), and whether no test found it zero and
        # nothing cleared it
        asked, low, plain = (), None, True
        room, n = limit - spent, 0
        while True:
            h = heads[v]
            k, slots = segments[m].get(h) or _first_segment(control, m, h)
            i = c if c < k else k
            seg = slots[i] or _fill(control, slots, m, h, i)
            checks, count, tail, rel, val, got_low, got_plain, got_asked, how, at, nxt = seg
            got = None
            for before, upto, m1, rel1, val1, clear, full in checks:
                if full:
                    cfg = (m1, v, c + val1 if rel1 else val1)
                    got = resolved.get(cfg)
                    if got is not None:  # another walk's, or _WALKING: this one's
                        break
                if clear:
                    pairs.clear()
                pair = (m1, v)
                if pair in pairs:
                    got = DEADLOCK
                    break
                if n + upto > room:
                    raise BudgetExceededError(
                        f"run_exec explored more than {limit} configurations"
                    )
                if full:
                    resolved[cfg] = _WALKING
                    walked.append(cfg)
                pairs.add(pair)
            if got is not None:
                if got is _WALKING:
                    got = DEADLOCK
                n += before
                break
            n += count
            if tail:
                pairs.clear()
            asked += got_asked
            if plain:
                plain = got_plain
                if got_low is not None and (low is None or c + got_low < low):
                    low = c + got_low
            c = c + val if rel else val
            if how == _MOVED:
                m2, v = nxt, v + 1
                if v == e:  # round into the period
                    v = p
                if mark == m2:
                    if plain and thens[at] == elses[at]:
                        known = rounds.setdefault(m2, {})
                        if asked not in known:
                            known[asked] = (
                                c - marked, None if low is None else low - marked
                            )
                            tables.pop(m2, None)
                    jump = repeat(m2, v, c) if m2 in rounds else None
                    if jump is DEADLOCK:
                        got = DEADLOCK
                        break
                    if jump is not None:
                        v, c = jump
                        if tables[m2][3] is not None:
                            pairs.clear()
                mark, marked, asked, low, plain = m2, c, (), None, True
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

    name((root, pgs.position, 0))
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


def _weigh(control: _Control, known: dict) -> tuple:
    """For the rounds known from a state: the weight of each instruction,
    in the order of `units`, in the prefix counts of the positions no round
    covers and in the prefix sums of the change of the round that covers
    it, in size; the sign of the changes (0: mixed) and the lowest test of
    any round.  At most one round covers an instruction: its queries and
    the counter's tests, none finding zero, decide its path."""
    bare = dict.fromkeys(control.units, 1)
    size = dict.fromkeys(control.units, 0)
    for asked, (d, _) in known.items():
        # the instructions that answer its queries alike: the one it found
        # (none, if it found two), or any it did not ask for (the end of a
        # finite program answers no query)
        found = {control.asks[q] for q, r in asked if r}
        passed = {control.asks[q] for q, r in asked if not r}
        if len(found) > 1:
            continue
        for h in found or control.units:
            if h not in passed:
                bare[h], size[h] = 0, abs(d)
    ds = [d for d, _ in known.values()]
    lows = [low for _, low in known.values() if low is not None]
    return (
        tuple(bare.values()),
        tuple(size.values()),
        1 if min(ds) >= 0 else -1 if max(ds) <= 0 else 0,
        min(lows, default=None),
    )


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
