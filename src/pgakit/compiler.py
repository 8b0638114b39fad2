"""Compiling finite-state threads back into instruction sequences.

Every state becomes a fixed block of three instructions inside one endless
repetition: a positive test plus two forward jumps for branching states,
three halts for Stop, three #0 for Deadlock.  Extraction of the result is
bisimilar to the input thread, which is the round-trip property the tests
lean on.
"""

from __future__ import annotations

from typing import List

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
from .threads import (
    Post,
    Stop,
    Tau,
    ThreadSpec,
    _breadth_first,
    abstract_tau,
    validate,
)


class CompileError(Exception):
    pass


class TauPresentError(CompileError):
    pass


class ReservedFocusActionError(CompileError):
    pass


def compile_spec(spec: ThreadSpec, auto_abstract: bool = False) -> InstructionSequence:
    """Translate a silent-step-free thread into a pure-period sequence of
    3-instruction state blocks.  Jump offsets are forward distances in the
    unfolding, so branching always reaches the target block's first slot."""
    spec = validate(spec)
    has_tau = any(
        isinstance(b, Post) and isinstance(b.action, Tau)
        for b in spec.states.values()
    )
    if has_tau:
        if not auto_abstract:
            raise TauPresentError(
                "silent steps cannot be compiled; abstract them first"
            )
        spec = abstract_tau(spec)
    actions = dict.fromkeys(b.action for b in spec.states.values() if isinstance(b, Post))
    for action in actions:
        if action.focus in RESERVED_FOCI:
            raise ReservedFocusActionError(
                f"cannot compile action with reserved focus {action.focus!r}"
            )
        # the program must print as text that parses back to it
        try:
            reads_back = parse_instruction(str(action)) == Plain(action)
        except ProgramError:
            reads_back = False
        if not reads_back:
            raise CompileError(f"action {str(action)!r} is not a program basic")

    # blocks are laid out in relabel's breadth-first order
    index = _breadth_first(spec)
    size = 3 * len(index)

    def offset(at: int, target: int) -> int:
        return ((target - at) % size) or size

    units: List[Instruction] = []
    for name, i in index.items():
        body = spec.states[name]
        base = 3 * i
        if isinstance(body, Stop):
            units.extend([HALT, HALT, HALT])
        elif isinstance(body, Post):
            units.append(PosTest(body.action))
            units.append(Jump(offset(base + 1, 3 * index[body.then])))
            units.append(Jump(offset(base + 2, 3 * index[body.else_])))
        else:
            units.extend([Jump(0), Jump(0), Jump(0)])
    return InstructionSequence((), tuple(units))


def corollary1_pipeline(
    spec: ThreadSpec, auto_abstract: bool = False
) -> InstructionSequence:
    """Compile, then expand every positive jump into shifts plus #0, giving
    a program in the #0-jumps-only fragment with the same extraction."""
    return transform_to_pgajs0(compile_spec(spec, auto_abstract))
