"""Seeded inputs and checked cases for the three benchmark workloads.

Every input is generated here from the workload seed; the library only
receives the generated values.  Each case runs public pipeline functions and
checks every result against an answer known by construction.

Library functions are always looked up as attributes of the `pgakit`
package at call time (`pk.bisimilar(...)`), never bound at import, so that
the traced run's wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List

import pgakit as pk
from pgakit.corpus import random_program, random_spec

F_A = pk.Basic("f", "a")
F_B = pk.Basic("f", "b")


@dataclass
class Tally:
    """Operations attempted and failed.  A failure is an exception or a
    result that differs from the known answer; `unreached` counts verdicts
    that were never produced and `wrong` verdicts that were produced but
    differ from the known answer."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    unreached: int = 0
    causes: Counter = field(default_factory=Counter)

    def _fail(self, where: str, cause: str) -> None:
        self.failed += 1
        self.causes[f"{where}: {cause}"] += 1

    def verdict(self, where: str, compute: Callable[[], bool], expected: bool) -> None:
        self.attempted += 1
        try:
            got = compute()
        except Exception as exc:  # counted and reported; the run goes on
            self.unreached += 1
            self._fail(where, type(exc).__name__)
            return
        if got != expected:
            self.wrong += 1
            self._fail(where, "wrong verdict")

    def roundtrip(self, where: str, parse: Callable, text: str, value):
        """Parse `text`, which was printed from `value`, and check that the
        parse gives `value` back.  On failure carry on with `value`."""
        self.attempted += 1
        try:
            got = parse(text)
        except Exception as exc:  # e.g. RecursionError on long programs
            self._fail(where, type(exc).__name__)
            return value
        if got != value:
            self._fail(where, "parse differs from printed value")
            return value
        return got

    def case_error(self, row: str, exc: Exception) -> None:
        """A step outside any verdict raised, so the case has no verdict."""
        self.attempted += 1
        self.unreached += 1
        self._fail(row, type(exc).__name__)


@dataclass
class Case:
    """One timed unit of work.  `row` groups cases of one kind and size."""

    row: str
    run: Callable[[Tally], None]


# === verify-mix ===

# Defaults of `pgakit verify`: program length 12 for the transform property,
# 16 for the counter and exec properties, and 8 states for round trips.
VERIFY_MIX_CASES = 2400
_MAX_LEN = {"transform": 12, "counter": 16, "exec": 16}
_MAX_STATES = 8


def _transform(text: str, program) -> Callable[[Tally], None]:
    def run(t: Tally) -> None:
        p = t.roundtrip("parse_program", pk.parse_program, text, program)
        t.verdict(
            "transform",
            lambda: pk.bisimilar(pk.extract(p), pk.extract_pgajs(pk.transform_to_pgajs0(p))),
            True,
        )

    return run


def _counter(text: str, program) -> Callable[[Tally], None]:
    def run(t: Tally) -> None:
        p = t.roundtrip("parse_program", pk.parse_program, text, program)
        t.verdict("counter", lambda: pk.verify_theorem2(p), True)

    return run


def _exec(text: str, program) -> Callable[[Tally], None]:
    def run(t: Tally) -> None:
        p = t.roundtrip("parse_program", pk.parse_program, text, program)
        t.verdict(
            "exec", lambda: pk.bisimilar(pk.run_exec(p), pk.extract_pgajs(p)), True
        )

    return run


def _roundtrip(text: str, spec) -> Callable[[Tally], None]:
    def run(t: Tally) -> None:
        s = t.roundtrip("parse_thread", pk.parse_thread, text, spec)
        compiled = pk.corollary1_pipeline(s)
        t.verdict(
            "roundtrip",
            lambda: pk.bisimilar(pk.extract_pgajs(compiled), s)
            and pk.bisimilar(pk.behaviour_via_counter(compiled), s),
            True,
        )

    return run


def verify_mix(rng: random.Random) -> List[Case]:
    """Small cases rotating through the four properties, each starting from
    text as `pgakit verify --in` does."""
    cases = []
    for i in range(VERIFY_MIX_CASES):
        prop = ("transform", "counter", "exec", "roundtrip")[i % 4]
        if prop == "roundtrip":
            spec = random_spec(rng, _MAX_STATES)
            cases.append(Case(prop, _roundtrip(pk.print_thread(spec), spec)))
            continue
        zero_jumps = prop != "transform"
        p = random_program(
            rng, _MAX_LEN[prop], allow_shift=zero_jumps, pgajs0=zero_jumps
        )
        make = {"transform": _transform, "counter": _counter, "exec": _exec}[prop]
        cases.append(Case(prop, make(pk.print_program(p), p)))
    return cases


# === witness-exec ===

WITNESS_NS = (1, 2, 3)


def _witness(spec) -> Callable[[Tally], None]:
    def run(t: Tally) -> None:
        p = pk.corollary1_pipeline(spec)
        t.verdict("extract_pgajs", lambda: pk.bisimilar(pk.extract_pgajs(p), spec), True)
        t.verdict(
            "behaviour_via_counter",
            lambda: pk.bisimilar(pk.behaviour_via_counter(p), spec),
            True,
        )
        t.verdict("run_exec", lambda: pk.bisimilar(pk.run_exec(p), spec), True)

    return run


def witness_exec(rng: random.Random) -> List[Case]:
    """The paper's stress family; the seed does not change it, by design."""
    return [Case(f"witness n={n}", _witness(pk.theorem3_witness(n))) for n in WITNESS_NS]


# === large-threads ===

CHAIN_LENGTHS = (125, 250, 500, 1000)
DEEP_SIZES = (1000, 3000)
# Else-branches of deep specs jump at most this many states ahead.
DEEP_WINDOW = 4


def _chain(labels, tail, prefix: str):
    n = len(labels) + 1
    states: Dict[str, object] = {}
    for i, label in enumerate(labels):
        states[f"{prefix}{i}"] = pk.Post(label, f"{prefix}{i + 1}", f"{prefix}{i + 1}")
    states[f"{prefix}{n - 1}"] = tail
    return pk.ThreadSpec(states, f"{prefix}0")


def _chain_family(rng: random.Random, n: int):
    """A chain of n states ending in Stop, an equal chain under other names,
    and a chain that differs only in its tail (Deadlock)."""
    labels = [rng.choice((F_A, F_B)) for _ in range(n - 1)]
    base = _chain(labels, pk.STOP, "c")
    return base, _chain(labels, pk.STOP, "e"), _chain(labels, pk.DEADLOCK, "d")


def _deep(rng: random.Random, n: int):
    states: Dict[str, object] = {}
    for i in range(n - 1):
        jump = min(n - 1, i + rng.randint(1, DEEP_WINDOW))
        states[f"s{i}"] = pk.Post(rng.choice((F_A, F_B)), f"s{i + 1}", f"s{jump}")
    states[f"s{n - 1}"] = pk.STOP
    return pk.ThreadSpec(states, "s0")


def _copy(rng: random.Random, spec, prefix: str, flip: str = ""):
    """Rename every state; duplicate one in eight under a fresh name and
    route about half of the edges into each original to its duplicate.  The
    copy is bisimilar to `spec`, unless `flip` names a state whose action
    is swapped between f.a and f.b, which makes it differ there."""
    names = {old: f"{prefix}{i}" for i, old in enumerate(spec.states)}
    dups = {old: names[old] + "_dup" for old in spec.states if rng.random() < 0.125}

    def target(old: str) -> str:
        if old in dups and rng.random() < 0.5:
            return dups[old]
        return names[old]

    states: Dict[str, object] = {}
    for old, body in spec.states.items():
        if isinstance(body, pk.Post):
            action = body.action
            if old == flip:
                action = F_B if action == F_A else F_A
            body = pk.Post(action, target(body.then), target(body.else_))
        states[names[old]] = body
        if old in dups:
            states[dups[old]] = body
    return pk.ThreadSpec(states, names[spec.root])


def _deep_family(rng: random.Random, n: int):
    """A seeded spec of n states whose else-branches skip a few states
    ahead, a bisimilar renamed copy with duplicated states, and a copy that
    differs only in the action of its middle state."""
    base = _deep(rng, n)
    return base, _copy(rng, base, "u"), _copy(rng, base, "v", flip=f"s{n // 2}")


def _family(specs, expand_jumps: bool) -> Callable[[Tally], None]:
    """Check one family: both pair verdicts, then the text front end, the
    compiler and extraction on each spec.  `expand_jumps` selects
    corollary1_pipeline over compile_spec."""

    def run(t: Tally) -> None:
        parsed = [t.roundtrip("parse_thread", pk.parse_thread, pk.print_thread(s), s) for s in specs]
        t.verdict("bisimilar equal pair", lambda: pk.bisimilar(parsed[0], parsed[1]), True)
        t.verdict("bisimilar different pair", lambda: pk.bisimilar(parsed[0], parsed[2]), False)
        for s in parsed:
            p = pk.corollary1_pipeline(s) if expand_jumps else pk.compile_spec(s)
            p = t.roundtrip("parse_program", pk.parse_program, pk.print_program(p), p)
            t.verdict("extract_pgajs", lambda: pk.bisimilar(pk.extract_pgajs(p), s), True)

    return run


def large_threads(rng: random.Random) -> List[Case]:
    """Deep chain families through the full pipeline with jump expansion,
    and larger deep specs through the compiler without it: expanding the
    jumps of a 3000-state deep spec gives about ten million instructions."""
    cases = [Case(f"chain {n}", _family(_chain_family(rng, n), True)) for n in CHAIN_LENGTHS]
    cases += [Case(f"deep {n}", _family(_deep_family(rng, n), False)) for n in DEEP_SIZES]
    return cases


WORKLOADS = {
    "verify-mix": verify_mix,
    "witness-exec": witness_exec,
    "large-threads": large_threads,
}

