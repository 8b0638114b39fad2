"""Turning instruction sequences into finite-state threads.

Each position of the canonical sequence becomes at most one thread state.
Jumps are not states: one linear pass over the positions lands every jump
on the first non-jump position its chain reaches, with a dead end (offset
zero, past the end of a finite sequence, or a revisited position) landing
on the end position, which means deadlock.
"""

from __future__ import annotations

from typing import Dict, List

from .syntax import (
    Halt,
    InstructionSequence,
    Jump,
    NegTest,
    Plain,
    ShiftPresentError,
    contains_shift,
    normalize_shifts,
)
from .threads import (
    DEADLOCK,
    STOP,
    Body,
    Post,
    ThreadSpec,
)


def _landings(s: InstructionSequence, units: tuple) -> List[int]:
    """land[i] for every unfolded index i up to len(s) + 1: the first
    non-jump position that the chain from i reaches, or the end position
    len(s) when the chain deadlocks by running off a finite sequence or
    revisiting a position (offset zero at once).  Each chain is walked once."""
    end, p, n = len(units), len(s.prefix), len(s.period)
    land = [-1 if type(u) is Jump else i for i, u in enumerate(units)] + [end]
    for i in [i for i, r in enumerate(land) if r == -1]:
        chain = []
        j = i
        while land[j] == -1:  # a jump not yet resolved; -2 while walked
            land[j] = -2
            chain.append(j)
            j += units[j].offset
            if j >= end:
                j = p + (j - p) % n if n else end
        r = end if land[j] == -2 else land[j]
        for j in chain:
            land[j] = r
    if n:  # the two indices past the last position wrap into the period
        land[end] = land[p]
    land.append(land[p + 1] if n else end)
    return land


def extract(s: InstructionSequence) -> ThreadSpec:
    """Thread of a Shift-free sequence: one state per non-jump position the
    start position reaches, plus a deadlock state at the end position when
    reached.  States are named X0, X1, ... in breadth-first discovery order
    from the start, `then` before `else_`, as `relabel` names them."""
    if contains_shift(s):
        raise ShiftPresentError("extraction requires a Shift-free sequence")
    units = s.prefix + s.period
    end = len(units)
    land = _landings(s, units)
    order = [land[0]]  # positions in discovery order; grows while read
    names = {order[0]: "X0"}
    states: Dict[str, Body] = {}
    for pos in order:
        u = units[pos] if pos < end else None
        if u is None:
            body: Body = DEADLOCK
        elif type(u) is Halt:
            body = STOP
        else:
            # a PosTest's then is position + 1; a NegTest's is position + 2
            then, else_ = land[pos + 1], land[pos + 2]
            if type(u) is NegTest:
                then, else_ = else_, then
            elif type(u) is Plain:
                else_ = then
            for t in (then, else_):
                if t not in names:
                    names[t] = f"X{len(order)}"
                    order.append(t)
            body = Post(u.basic, names[then], names[else_])
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
    end = len(units)
    land = _landings(s, units)
    collapsed = []
    for pos, u in enumerate(units):
        if type(u) is Jump:
            r = land[pos]
            u = Jump(0 if r == end else r - pos if r > pos else r - pos + len(s.period))
        collapsed.append(u)
    p = len(s.prefix)
    return InstructionSequence(tuple(collapsed[:p]), tuple(collapsed[p:]))


def structurally_congruent(a: InstructionSequence, b: InstructionSequence) -> bool:
    """Whether two Shift-free sequences are equal after collapsing all jump
    chains to single jumps (dead chains to jump zero)."""
    for s in (a, b):
        if contains_shift(s):
            raise ShiftPresentError(
                "structural congruence requires Shift-free sequences"
            )
    return _jump_collapse(a) == _jump_collapse(b)
