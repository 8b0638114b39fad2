"""Shared hypothesis strategies for programs and thread specs, builders of
the large spec families used by scale tests, the finite projections of
thread algebra with the bounded-projection oracle for bisimilarity, and a
probe of the counter content the two-mode thread reaches."""

from dataclasses import dataclass, field
from itertools import product
from typing import Dict, List, Union

from hypothesis import strategies as st

from pgakit import (
    Basic,
    CounterService,
    DEADLOCK,
    Deadlock,
    Halt,
    InstructionSequence,
    Jump,
    NegTest,
    Plain,
    PosTest,
    Post,
    STOP,
    Shift,
    Stop,
    Tau,
    ThreadSpec,
    collapse_counter_divergence,
    compose,
    extract_alt,
    validate,
)
from pgakit.corpus import DEFAULT_BASICS, random_spec
from pgakit.threads import Action

BASICS = (Basic("f", "a"), Basic("f", "b"))


def basics():
    return st.sampled_from(BASICS)


def instructions(max_jump=14, with_shift=False, only_zero_jump=False):
    jump = st.just(0) if only_zero_jump else st.integers(0, max_jump)
    kinds = [
        basics().map(Plain),
        basics().map(PosTest),
        basics().map(NegTest),
        jump.map(Jump),
        st.just(Halt()),
    ]
    if with_shift:
        kinds.append(st.just(Shift()))
    return st.one_of(kinds)


@st.composite
def programs(draw, max_len=12, with_shift=False, only_zero_jump=False):
    instr = instructions(with_shift=with_shift, only_zero_jump=only_zero_jump)
    units = draw(st.lists(instr, min_size=1, max_size=max_len))
    if draw(st.booleans()):
        return InstructionSequence(tuple(units), ())
    cut = draw(st.integers(0, len(units) - 1))
    return InstructionSequence(tuple(units[:cut]), tuple(units[cut:]))


def all_programs(units, max_len):
    """Every canonical program of 1 to `max_len` instructions from `units`,
    over every split into prefix and period, each once, in the order first
    built."""
    return list(dict.fromkeys(
        InstructionSequence(word[:cut], word[cut:])
        for n in range(1, max_len + 1)
        for word in product(units, repeat=n)
        for cut in range(n + 1)
    ))


@st.composite
def specs(draw, max_states=6):
    n = draw(st.integers(1, max_states))
    names = [f"n{i}" for i in range(n)]
    states = {}
    for name in names:
        kind = draw(st.integers(0, 9))
        if kind == 0:
            states[name] = STOP
        elif kind == 1:
            states[name] = DEADLOCK
        else:
            a = draw(basics())
            then = draw(st.sampled_from(names))
            els = draw(st.sampled_from(names))
            states[name] = Post(a, then, els)
    return validate(ThreadSpec(states, names[0]))


# --- large families -----------------------------------------------------------


def chain_spec(labels, tail, prefix="c"):
    """States prefix0, prefix1, ...: one per label, each performing it and
    moving on whatever the reply, then the body `tail`."""
    states = {
        f"{prefix}{i}": Post(label, f"{prefix}{i + 1}", f"{prefix}{i + 1}")
        for i, label in enumerate(labels)
    }
    states[f"{prefix}{len(labels)}"] = tail
    return ThreadSpec(states, f"{prefix}0")


def deep_spec(rng, n, window=4):
    """n states s0..s{n-1} ending in Stop; s{i} continues to s{i+1} on True
    and jumps at most `window` states ahead on False."""
    states = {}
    for i in range(n - 1):
        jump = min(n - 1, i + rng.randint(1, window))
        states[f"s{i}"] = Post(rng.choice(BASICS), f"s{i + 1}", f"s{jump}")
    states[f"s{n - 1}"] = STOP
    return ThreadSpec(states, "s0")


def renamed_copy(rng, spec, prefix, flip=None):
    """Rename every state, duplicate one in eight under a fresh name and
    route about half of the edges into each original to its duplicate.  The
    copy is bisimilar to `spec`, unless `flip` names a state whose action is
    swapped between f.a and f.b."""
    names = {old: f"{prefix}{i}" for i, old in enumerate(spec.states)}
    dups = {old: names[old] + "_dup" for old in spec.states if rng.random() < 0.125}

    def target(old):
        if old in dups and rng.random() < 0.5:
            return dups[old]
        return names[old]

    states = {}
    for old, body in spec.states.items():
        if isinstance(body, Post):
            action = body.action
            if old == flip:
                action = BASICS[1] if action == BASICS[0] else BASICS[0]
            body = Post(action, target(body.then), target(body.else_))
        states[names[old]] = body
        if old in dups:
            states[dups[old]] = body
    return ThreadSpec(states, names[spec.root])


def spec_pair(rng, max_states=8, basics=DEFAULT_BASICS):
    """A pair that is bisimilar by construction about half the time: either
    an unfolded clone of the first spec, or an independent draw."""
    a = random_spec(rng, max_states, basics)
    if rng.random() < 0.5:
        b = _unfold_clone(rng, a)
    else:
        b = random_spec(rng, max_states, basics)
    return a, b


def _unfold_clone(rng, spec):
    """Copy the spec and duplicate one state under a fresh name, randomly
    rerouting references between original and duplicate.  The result is
    bisimilar to the input by construction."""
    target = rng.choice(list(spec.states))
    dup = f"{target}_dup"
    states = dict(spec.states)
    states[dup] = spec.states[target]

    def reroute(name):
        if name == target and rng.random() < 0.5:
            return dup
        return name

    rerouted = {}
    for name, body in states.items():
        if isinstance(body, Post):
            rerouted[name] = Post(body.action, reroute(body.then), reroute(body.else_))
        else:
            rerouted[name] = body
    root = reroute(spec.root)
    return validate(ThreadSpec(rerouted, root))


# --- finite projections -------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Branch:
    """Node of a finite projection tree.  Leaves reuse Deadlock and Stop."""

    action: Action
    then: "FiniteThread"
    else_: "FiniteThread"

    def __post_init__(self) -> None:
        if isinstance(self.action, Tau):
            object.__setattr__(self, "else_", self.then)


FiniteThread = Union[Deadlock, Stop, Branch]


def project(spec: ThreadSpec, depth: int) -> FiniteThread:
    """Approximate the behaviour from the root up to `depth` actions.
    Depth 0 is deadlock; deeper levels copy the body shape and project both
    branches one level lower.  The memo of (state, depth) projections is
    filled bottom-up from an explicit stack, so deep projections need no
    recursion."""
    if depth < 0:
        raise ValueError("projection depth must be >= 0")
    start = (spec.root, depth)
    memo: Dict[tuple, FiniteThread] = {}
    stack = [start]
    while stack:
        key = stack[-1]
        if key in memo:
            stack.pop()
            continue
        name, n = key
        body = DEADLOCK if n == 0 else spec.states[name]
        if not isinstance(body, Post):
            memo[key] = body
            stack.pop()
            continue
        then_key, else_key = (body.then, n - 1), (body.else_, n - 1)
        missing = [k for k in (then_key, else_key) if k not in memo]
        if missing:
            stack.extend(missing)
            continue
        memo[key] = Branch(body.action, memo[then_key], memo[else_key])
        stack.pop()
    return memo[start]


def projections_agree(a: ThreadSpec, b: ThreadSpec, depth: int) -> bool:
    """Whether the depth-n projections of the two roots coincide for every
    n <= depth.  Checking the largest depth suffices: projecting a deeper
    approximation yields the shallower one.  The projections agree iff
    every (state of a, state of b, remaining depth) reached from the roots
    with depth left has bodies of the same kind, and Posts of the same
    action; the walk visits each such triple once."""
    seen = {(a.root, b.root, depth)}
    stack = [(a.root, b.root, depth)]
    while stack:
        sa, sb, n = stack.pop()
        if n == 0:
            continue
        ba = a.states[sa]
        bb = b.states[sb]
        if type(ba) is not type(bb):
            return False
        if not isinstance(ba, Post):
            continue
        if ba.action != bb.action:
            return False
        for key in ((ba.then, bb.then, n - 1), (ba.else_, bb.else_, n - 1)):
            if key not in seen:
                seen.add(key)
                stack.append(key)
    return True


# --- counter peak -------------------------------------------------------------


@dataclass(frozen=True)
class _PeakCounter(CounterService):
    """A counter that keeps in `peak[0]` the largest content it reaches."""

    peak: List[int] = field(default_factory=lambda: [0], compare=False)

    def apply(self, method: str):
        nxt, reply = super().apply(method)
        if nxt.content is not None and nxt.content > self.peak[0]:
            self.peak[0] = nxt.content
        return _PeakCounter(nxt.content, self.peak), reply


def counter_peak(p: InstructionSequence) -> int:
    """The largest counter content reached by the two-mode thread of the
    zero-jump program `p`, composed with a zeroed counter as in
    `behaviour_via_counter`.  It is at most len(p) + 2."""
    probe = _PeakCounter(0)
    compose(collapse_counter_divergence(extract_alt(p)), "cnt", probe)
    return probe.peak[0]
