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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

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
    Reply,
    Service,
    collapse_counter_divergence,
    compose,
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
)
from .threads import (
    DEADLOCK,
    STOP,
    Basic,
    Body,
    Post,
    ThreadSpec,
    abstract_tau,
    validate,
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
    position one on (False once past the end of a finite sequence).  On a
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
            pos = self.position + 1
            if pos > len(s):
                return self, Reply.FALSE
            if pos == len(s) and s.period:
                pos = len(s.prefix)
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
    return validate(ThreadSpec(states, "q0"))


def run_exec(
    p: InstructionSequence,
    budget: Optional[Budget] = None,
    alphabet: Optional[Alphabet] = None,
) -> ThreadSpec:
    """Execute a #0-jumps-only program through the mechanism: compose with
    the program service, collapse guaranteed counter divergences, compose
    with a zeroed counter, and hide all service traffic."""
    if not is_pgajs0(p):
        raise NotPgajs0Error("execution requires a program with only #0 jumps")
    if alphabet is not None and not basics_of(p) <= set(alphabet.basics):
        raise AlphabetMismatchError("the program has basics outside the alphabet")
    pgs = pgs_new(p, alphabet)
    inner = compose(build_exec_mechanism(pgs.alphabet), "pgs", pgs, budget)
    inner = collapse_counter_divergence(inner)
    return abstract_tau(compose(inner, "cnt", counter_new(0), budget))


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
    return validate(ThreadSpec(states, "T0"))
