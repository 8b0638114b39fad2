"""Two-mode thread extraction driven by a counter.

For sequences whose only jumps are #0, extraction can be organized as two
mutually recursive readings per position: a guarded reading that performs
the instruction, and a skipping reading that counts down over instructions
to find a pending landing site.  Composing the resulting thread with a
counter service and hiding the counter traffic reproduces plain extraction
(checked by verify_theorem2).

Skip bookkeeping: entering the skipping mode with counter value c lands on
the c-th next position, counting every position.  A failed test therefore
increments twice (skip exactly the one following instruction); a jump-shift
in the guarded reading increments once.  While skipping, a jump-shift that
is flown over costs nothing (the decrement is restored), but landing
exactly on one re-enters the guarded reading there so the shift run ahead
is re-accumulated onto the counter.

These equations are written once, as a table of steps per instruction
kind, where a `pgs.drop` step moves on to the next position.  `extract_alt`
lays the table out per position, each drop leading to the next position's
states; `execmech.build_exec_mechanism` lays it out per alphabet entry and
performs each drop on the program service.
"""

from __future__ import annotations

from typing import Dict

from .services import collapse_counter_divergence, compose, counter_new
from .syntax import (
    Halt,
    InstructionSequence,
    Jump,
    NegTest,
    Plain,
    PosTest,
    ProgramError,
    Shift,
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
    abstract_tau,
    bisimilar,
    validate,
)
from .extraction import extract_pgajs

_CLR = Basic("cnt", "clr")
_INC = Basic("cnt", "inc")
_DEC = Basic("cnt", "dec")
_ISZ = Basic("cnt", "isz")
_DROP = Basic("pgs", "drop")
_BASIC = "basic"  # stands for the instruction's own basic action

# A step is (action, target on True, target on False).  A target is the
# following step (_NEXT), or it leaves the chain: to the guarded reading
# (_READ) or the skipping reading (_SKIP) at the position reached, or to
# deadlock (_DEAD).
_NEXT, _READ, _SKIP, _DEAD = "next", "read", "skip", "dead"

_PERFORM = ((_DROP, _NEXT, _NEXT), (_CLR, _NEXT, _NEXT))
_SKIP_ONE = ((_INC, _NEXT, _NEXT), (_INC, _SKIP, _SKIP))  # on a failed test

# Guarded mode, per instruction kind.  A halt has no steps: it stops.
_GUARDED = {
    Halt: (),
    Shift: ((_DROP, _NEXT, _NEXT), (_INC, _READ, _READ)),
    Jump: ((_ISZ, _DEAD, _NEXT), (_DROP, _SKIP, _SKIP)),
    Plain: _PERFORM + ((_BASIC, _READ, _READ),),
    PosTest: _PERFORM + ((_BASIC, _READ, _NEXT),) + _SKIP_ONE,
    NegTest: _PERFORM + ((_BASIC, _NEXT, _READ),) + _SKIP_ONE,
}

# Skipping mode, at every position: count down, and land where the count
# is zero; otherwise move on.  Flying over a jump-shift restores the
# decrement.
_COUNTDOWN = ((_DEC, _NEXT, _NEXT), (_ISZ, _READ, _NEXT))
_MOVE_ON = ((_DROP, _SKIP, _SKIP),)
_FLY_OVER = ((_INC, _NEXT, _NEXT),) + _MOVE_ON


def _lay_out(steps, names, exits, moved=None):
    """Lay a chain of steps out as a tuple of (name, action, then, else) in
    step order, the k-th named names[k].  A target that leaves the chain is
    looked up in `exits`; exits[_NEXT], if given, follows the last step.
    With `moved` given, a drop is no state of its own but moves the
    position, and targets after it are looked up in `moved`."""
    chain = []
    where = exits
    names = iter(names)
    for action, then, else_ in steps:
        if action is _DROP and moved is not None:
            where = moved
            chain.append((None, action, where, then, else_))
        else:
            chain.append((next(names), action, where, then, else_))
    out = []
    follow = exits.get(_NEXT)
    for name, action, where, then, else_ in reversed(chain):
        then = follow if then is _NEXT else where[then]
        else_ = follow if else_ is _NEXT else where[else_]
        if name is None:
            follow = then
        else:
            out.append((name, action, then, else_))
            follow = name
    return tuple(reversed(out))


# extract_alt names the states at one position by index into: g{i} and its
# chain g{i}a..c (0-3), s{i} and its chain s{i}a..b (4-6), the guarded and
# skipping states of the next position (7, 8), and the deadlock (9).  Each
# kind is laid out once over them: a skip always follows a drop, a deadlock never.
def _alt_layout(kind):
    skipping = _COUNTDOWN + (_FLY_OVER if kind is Shift else _MOVE_ON)
    exits, moved = {_READ: 0, _DEAD: 9}, {_READ: 7, _SKIP: 8}
    return _lay_out(_GUARDED[kind], (0, 1, 2, 3), exits, moved) + _lay_out(
        skipping, (4, 5, 6), exits, moved
    )


_ALT_LAYOUT = {kind: _alt_layout(kind) for kind in _GUARDED}


class NotPgajs0Error(ProgramError):
    pass


def extract_alt(s: InstructionSequence) -> ThreadSpec:
    """Build the two-mode thread over cnt actions.  States are named by
    position and mode: g{i} guarded (with a/b/c suffixes for chain steps),
    s{i} skipping (a/b suffixes for its steps), plus a shared `dd` deadlock.
    Finite sequences get one virtual trailing #0 position; skipping past it
    loops back to itself.  Skipping over a jump-shift restores the counter
    after the zero test, so only an exact landing executes the shift."""
    if not is_pgajs0(s):
        raise NotPgajs0Error("only #0 jumps are supported here")
    units = s.prefix + s.period
    if not s.period:
        units += (Jump(0),)  # the end position reads as #0
    states: Dict[str, Body] = {}
    for i, u in enumerate(units):
        g, k, n = f"g{i}", f"s{i}", position(s, i + 1)
        here = (g, g + "a", g + "b", g + "c", k, k + "a", k + "b",
                f"g{n}", f"s{n}", "dd")
        if not _GUARDED[type(u)]:
            states[g] = STOP
        for name, action, then, else_ in _ALT_LAYOUT[type(u)]:
            if action is _BASIC:
                action = u.basic
            states[here[name]] = Post(action, here[then], here[else_])
    states["dd"] = DEADLOCK
    return validate(ThreadSpec(states, "g0"))


def behaviour_via_counter(s: InstructionSequence) -> ThreadSpec:
    """Compose the two-mode thread with a zeroed counter and hide the
    counter traffic.  Pure inc loops (endless jump-shifting) are collapsed
    to deadlock up front so the product stays finite."""
    inner = collapse_counter_divergence(extract_alt(s))
    return abstract_tau(compose(inner, "cnt", counter_new(0)))


def verify_theorem2(s: InstructionSequence) -> bool:
    """Counter-driven extraction agrees with direct extraction."""
    return bisimilar(extract_pgajs(s), behaviour_via_counter(s))
