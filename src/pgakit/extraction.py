"""Turning instruction sequences into finite-state threads.

Each position of the canonical sequence becomes at most one thread state.
Jumps are not states: they are resolved by walking position to position
until a non-jump is reached, with a dead end (offset zero, past the end of
a finite sequence, or a revisited position) meaning deadlock.
"""

from __future__ import annotations

from typing import Callable, Dict

from .syntax import (
    Halt,
    InstructionSequence,
    Instruction,
    Jump,
    NegTest,
    Plain,
    PosTest,
    ShiftPresentError,
    contains_shift,
    normalize_shifts,
    position,
)
from .threads import (
    DEADLOCK,
    STOP,
    Body,
    Post,
    ThreadSpec,
)


def _resolver(s: InstructionSequence, units: tuple) -> Callable[[int], int]:
    """Jump resolution over `units`, the instructions of s by position:
    resolve(j) follows the chain from unfolded index j to the first
    non-jump position, or to the end position len(s) when it deadlocks by
    running off a finite sequence or revisiting a jump (offset zero at
    once).  Each jump on a walked chain stores its landing, once."""
    end = len(units)
    landing: Dict[int, int] = {}

    def resolve(j: int) -> int:
        pos = position(s, j)
        chain: Dict[int, None] = {}
        while pos < end and isinstance(units[pos], Jump):
            if pos in landing:
                pos = landing[pos]
                break
            if pos in chain:
                pos = end
                break
            chain[pos] = None
            pos = position(s, pos + units[pos].offset)
        for jump in chain:
            landing[jump] = pos
        return pos

    return resolve


def extract(s: InstructionSequence) -> ThreadSpec:
    """Thread of a Shift-free sequence: one state per non-jump position the
    start position reaches, plus a deadlock state at the end position when
    reached.  States are named X0, X1, ... in breadth-first discovery order
    from the start, `then` before `else_`, as `relabel` names them."""
    if contains_shift(s):
        raise ShiftPresentError("extraction requires a Shift-free sequence")
    units = s.prefix + s.period
    resolve = _resolver(s, units)
    order = [resolve(0)]  # positions in discovery order; grows while read
    names = {order[0]: "X0"}

    def target(j: int) -> str:
        pos = resolve(j)
        if pos not in names:
            names[pos] = f"X{len(order)}"
            order.append(pos)
        return names[pos]

    states: Dict[str, Body] = {}
    for pos in order:
        u = units[pos] if pos < len(units) else None
        if u is None:
            body: Body = DEADLOCK
        elif isinstance(u, Halt):
            body = STOP
        elif isinstance(u, Plain):
            nxt = target(pos + 1)
            body = Post(u.basic, nxt, nxt)
        elif isinstance(u, PosTest):
            body = Post(u.basic, target(pos + 1), target(pos + 2))
        else:
            assert isinstance(u, NegTest)
            body = Post(u.basic, target(pos + 2), target(pos + 1))
        states[names[pos]] = body
    return ThreadSpec(states, "X0")


def extract_pgajs(s: InstructionSequence) -> ThreadSpec:
    """Thread of any sequence, shifts included: normalize shifts away first."""
    return extract(normalize_shifts(s))


def _jump_collapse(s: InstructionSequence) -> InstructionSequence:
    """Replace every jump by its fully resolved single jump: offset to the
    final landing non-jump position, or zero when the chain deadlocks.
    Wrap-around landings inside the period get the smallest positive offset."""
    units = s.prefix + s.period
    resolve = _resolver(s, units)

    def collapse(pos: int, u: Instruction) -> Instruction:
        if not isinstance(u, Jump):
            return u
        r = resolve(pos)
        if r == len(units):
            return Jump(0)
        if r > pos:
            return Jump(r - pos)
        return Jump(r - pos + len(s.period))

    collapsed = tuple(collapse(pos, u) for pos, u in enumerate(units))
    p = len(s.prefix)
    return InstructionSequence(collapsed[:p], collapsed[p:])


def structurally_congruent(a: InstructionSequence, b: InstructionSequence) -> bool:
    """Whether two Shift-free sequences are equal after collapsing all jump
    chains to single jumps (dead chains to jump zero)."""
    for s in (a, b):
        if contains_shift(s):
            raise ShiftPresentError(
                "structural congruence requires Shift-free sequences"
            )
    return _jump_collapse(a) == _jump_collapse(b)
