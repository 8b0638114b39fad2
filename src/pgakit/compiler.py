"""Compiling finite-state threads back into instruction sequences.

Every state becomes a fixed block of three instructions inside one endless
repetition: a positive test plus two forward jumps for a state whose
branches differ, a plain instruction, a forward jump and an unreachable #0
for one whose branches are equal, three halts for Stop, three #0 for
Deadlock.  Extraction of the result is bisimilar to the input thread,
which is the round-trip property the tests lean on.
"""

from __future__ import annotations

from typing import Dict, List

from .syntax import (
    HALT,
    InstructionSequence,
    Instruction,
    Jump,
    Plain,
    PosTest,
    ProgramError,
    RESERVED_FOCI,
    parse_instruction,
    transform_to_pgajs0,
)
from .threads import TAU, Post, Stop, ThreadSpec, _breadth_first


class CompileError(Exception):
    pass


class TauPresentError(CompileError):
    pass


class ReservedFocusActionError(CompileError):
    pass


def compile_spec(spec: ThreadSpec) -> InstructionSequence:
    """Translate a silent-step-free thread into a pure-period sequence of
    3-instruction state blocks: `+a; #d; #e` for `<y> a <z>`, and
    `a; #d; #0` when y and z are the same state.  Jump offsets are forward
    distances in the unfolding, so branching always reaches the target
    block's first slot."""
    # blocks follow relabel's breadth-first order; unreachable states get none
    index = _breadth_first(spec)
    # checked in the order of `states`, so the first bad action is reported
    actions = dict.fromkeys(
        b.action for n, b in spec.states.items() if n in index and isinstance(b, Post)
    )
    if TAU in actions:
        raise TauPresentError("silent steps cannot be compiled; abstract them first")
    for action in actions:
        if action.focus in RESERVED_FOCI:
            raise ReservedFocusActionError(
                f"cannot compile action with reserved focus {action.focus!r}"
            )
        # the program must print as text that parses back to it
        try:
            reads_back = parse_instruction(action._text) == Plain(action)
        except ProgramError:
            reads_back = False
        if not reads_back:
            raise CompileError(f"action {action._text!r} is not a program basic")

    size = 3 * len(index)
    # per-call tables, so a repeated instruction makes no constructor call
    tests = {action: PosTest(action) for action in actions}
    plains = {action: Plain(action) for action in actions}
    jumps: Dict[int, Jump] = {0: Jump(0)}
    units: List[Instruction] = []
    for name, i in index.items():
        body = spec.states[name]
        if isinstance(body, Stop):
            units += (HALT, HALT, HALT)
        elif isinstance(body, Post):
            # each jump goes forward to the first slot of its target's block
            d = (3 * index[body.then] - 3 * i - 1) % size or size
            then = jumps.get(d) or jumps.setdefault(d, Jump(d))
            if body.then == body.else_:
                # a plain instruction always goes on to #d, so slot 3 is
                # never reached; #0 fills it, as one position when expanded
                units += (plains[body.action], then, jumps[0])
            else:
                e = (3 * index[body.else_] - 3 * i - 2) % size or size
                else_ = jumps.get(e) or jumps.setdefault(e, Jump(e))
                units += (tests[body.action], then, else_)
        else:
            units += (Jump(0),) * 3
    return InstructionSequence((), tuple(units))


def corollary1_pipeline(spec: ThreadSpec) -> InstructionSequence:
    """Compile, then expand every positive jump into shifts plus #0, giving
    a program in the #0-jumps-only fragment with the same extraction."""
    return transform_to_pgajs0(compile_spec(spec))
