"""Shared hypothesis strategies for programs and thread specs, and builders
of the large spec families used by scale tests."""

from hypothesis import strategies as st

from pgakit import (
    Basic,
    DEADLOCK,
    Halt,
    InstructionSequence,
    Jump,
    NegTest,
    Plain,
    PosTest,
    Post,
    STOP,
    Shift,
    ThreadSpec,
    validate,
)

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
