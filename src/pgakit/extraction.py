"""Turning instruction sequences into finite-state threads.

Each position of the canonical sequence becomes at most one thread state.
Jumps are not states: they are resolved by walking position to position
until a non-jump is reached, with a dead end (offset zero, past the end of
a finite sequence, or a revisited position) meaning deadlock.
"""

from __future__ import annotations

from typing import Dict

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
    relabel,
)


def _resolve(s: InstructionSequence, units: tuple, j: int) -> int:
    """Follow the jump chain starting at unfolded index j, over the
    instructions `units` of s by position, until it reaches a non-jump
    position (returned) or provably deadlocks: jump offset zero, running
    off a finite sequence, or revisiting a jump position.  A deadlock
    returns the end position len(s), which holds no instruction."""
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


def extract(s: InstructionSequence) -> ThreadSpec:
    """Thread of a Shift-free sequence: one state per non-jump position plus
    a deadlock state at the end position, pruned to what the start position
    reaches."""
    if contains_shift(s):
        raise ShiftPresentError("extraction requires a Shift-free sequence")
    units = s.prefix + s.period

    def target(j: int) -> str:
        return f"p{_resolve(s, units, j)}"

    states: Dict[str, Body] = {}
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
            assert isinstance(u, NegTest)
            states[name] = Post(u.basic, target(pos + 2), target(pos + 1))
    states[f"p{len(units)}"] = DEADLOCK
    root = target(0)
    return relabel(ThreadSpec(states, root))


def extract_pgajs(s: InstructionSequence) -> ThreadSpec:
    """Thread of any sequence, shifts included: normalize shifts away first."""
    return extract(normalize_shifts(s))


def _jump_collapse(s: InstructionSequence) -> InstructionSequence:
    """Replace every jump by its fully resolved single jump: offset to the
    final landing non-jump position, or zero when the chain deadlocks.
    Wrap-around landings inside the period get the smallest positive offset."""
    units = s.prefix + s.period

    def collapse(pos: int, u: Instruction) -> Instruction:
        if not isinstance(u, Jump):
            return u
        r = _resolve(s, units, pos)
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
