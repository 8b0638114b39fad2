"""The four behaviour-preservation properties.

- transform: jump expansion keeps a program's behaviour;
- counter: the two-mode counter route agrees with plain extraction;
- exec: the execution mechanism agrees with plain extraction;
- roundtrip: a spec compiled to a zero-jump program behaves as the spec,
  read plainly, through the counter and run by the execution mechanism.

`pgakit verify` and the acceptance tests draw and check them from here.
A printed case reads back to the same case, so any case that `pgakit
verify` prints can be run again with `--in`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional

from .altsem import behaviour_via_counter, verify_theorem2
from .compiler import corollary1_pipeline
from .corpus import random_program, random_spec
from .execmech import run_exec
from .extraction import extract, extract_pgajs
from .syntax import InstructionSequence, parse_program, print_program
from .syntax import transform_to_pgajs0
from .threads import ThreadSpec, bisimilar, parse_thread, print_thread


@dataclass(frozen=True)
class Property:
    """A property's cases: `draw(rng, size)` draws one of at most `size`
    instructions (states, for roundtrip; the field is the default size),
    `read` parses one from text, `show` prints it, `check` decides it."""

    size: int
    draw: Callable[[random.Random, int], object]
    read: Callable[[str], object]
    show: Callable[[object], str]
    check: Callable[[object], bool]


_zero_jump_program = partial(random_program, allow_shift=True, pgajs0=True)


def _transform_holds(p: InstructionSequence) -> bool:
    return bisimilar(extract(p), extract_pgajs(transform_to_pgajs0(p)))


def _exec_holds(p: InstructionSequence) -> bool:
    return bisimilar(run_exec(p), extract_pgajs(p))


def _roundtrip_holds(spec: ThreadSpec) -> bool:
    compiled = corollary1_pipeline(spec)
    routes = (extract_pgajs, behaviour_via_counter, run_exec)
    return all(bisimilar(route(compiled), spec) for route in routes)


PROPERTIES: Dict[str, Property] = {
    "transform": Property(
        12, random_program, parse_program, print_program, _transform_holds
    ),
    "counter": Property(
        16, _zero_jump_program, parse_program, print_program, verify_theorem2
    ),
    "exec": Property(16, _zero_jump_program, parse_program, print_program, _exec_holds),
    "roundtrip": Property(8, random_spec, parse_thread, print_thread, _roundtrip_holds),
}


def draw_cases(
    prop: Property, seed: int, count: int, size: Optional[int] = None
) -> List:
    """`count` cases drawn in turn from one generator seeded with `seed`."""
    rng = random.Random(seed)
    return [prop.draw(rng, prop.size if size is None else size) for _ in range(count)]
