"""Seeded random programs and thread specs for property testing.

Distribution notes: instruction kinds are drawn uniformly from the kinds
admitted by the flags; jump offsets are uniform over [0, max_len + 2] so
out-of-range and zero jumps both occur; with probability one half the
generated list is split into prefix + repeating period, otherwise it stays
finite.
"""

from __future__ import annotations

import random
from typing import Sequence, Tuple

from .syntax import (
    HALT,
    SHIFT,
    InstructionSequence,
    Jump,
    NegTest,
    Plain,
    PosTest,
)
from .threads import (
    DEADLOCK,
    STOP,
    TAU,
    Basic,
    Post,
    ThreadSpec,
    validate,
)

DEFAULT_BASICS: Tuple[Basic, ...] = (Basic("f", "a"), Basic("f", "b"))


def random_program(
    rng: random.Random,
    max_len: int = 12,
    basics: Sequence[Basic] = DEFAULT_BASICS,
    allow_shift: bool = False,
    pgajs0: bool = False,
) -> InstructionSequence:
    kinds = ["plain", "pos", "neg", "jump", "halt"]
    if allow_shift or pgajs0:
        kinds.append("shift")
    length = rng.randint(1, max_len)
    units = []
    for _ in range(length):
        kind = rng.choice(kinds)
        if kind == "plain":
            units.append(Plain(rng.choice(list(basics))))
        elif kind == "pos":
            units.append(PosTest(rng.choice(list(basics))))
        elif kind == "neg":
            units.append(NegTest(rng.choice(list(basics))))
        elif kind == "jump":
            units.append(Jump(0 if pgajs0 else rng.randint(0, max_len + 2)))
        elif kind == "halt":
            units.append(HALT)
        else:
            units.append(SHIFT)
    if rng.random() < 0.5:
        cut = rng.randint(0, length - 1)
        return InstructionSequence(tuple(units[:cut]), tuple(units[cut:]))
    return InstructionSequence(tuple(units), ())


def random_spec(
    rng: random.Random,
    max_states: int = 8,
    basics: Sequence[Basic] = DEFAULT_BASICS,
    allow_tau: bool = False,
    tau_prob: float = 0.2,
) -> ThreadSpec:
    n = rng.randint(1, max_states)
    names = [f"s{i}" for i in range(n)]
    states = {}
    for name in names:
        roll = rng.random()
        if roll < 0.15:
            states[name] = STOP
        elif roll < 0.3:
            states[name] = DEADLOCK
        else:
            if allow_tau and rng.random() < tau_prob:
                states[name] = Post(TAU, rng.choice(names), rng.choice(names))
            else:
                states[name] = Post(
                    rng.choice(list(basics)),
                    rng.choice(names),
                    rng.choice(names),
                )
    return validate(ThreadSpec(states, names[0]))

