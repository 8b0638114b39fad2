"""Finite-state threads as linear recursive specifications.

A thread is a rooted map from state names to bodies.  A body either stops,
deadlocks, or performs one action and branches on the boolean reply.  The
silent action tau ignores the reply, so tau bodies carry a single successor
(enforced structurally by the Post constructor).  Large threads cost few
Python steps per state: `parse_thread` reads a well-formed text in one
regular expression pass, `Post` sets its fields through its slot
descriptors, a spec checks all its references in one containment test,
`bisimilar` walks to class roots inline, and a `Basic` stores its text when
first made.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import Dict, Mapping, Union


class ThreadError(Exception):
    pass


class ThreadSyntaxError(ThreadError):
    pass


class DanglingStateError(ThreadError):
    pass


@dataclass(frozen=True, slots=True)
class Tau:
    def __str__(self) -> str:
        return "tau"


TAU = Tau()


# (class, tuple of fields) -> the one object of that value.  It keeps every
# distinct value the process makes, so it grows with the distinct
# instructions and actions of the inputs and is never pruned.
_INTERNED: dict = {}


class _Interned:
    """A value that exists once per process: constructing an equal value
    again returns the first object, so equality and hashing are identity and
    run in C, and copies and pickles give the same object back.  `_check`
    runs when a value is first made, and stores in `_text` how the value
    prints; a refused value is not stored."""

    __slots__ = ("_text",)

    def __new__(cls, *fields):
        self = _INTERNED.get((cls, fields))
        if self is None:
            if len(fields) != len(cls.__slots__):
                raise TypeError(f"{cls.__name__} takes {len(cls.__slots__)} fields")
            self = object.__new__(cls)
            for name, value in zip(cls.__slots__, fields):
                object.__setattr__(self, name, value)
            self._check()
            _INTERNED[cls, fields] = self
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, n) for n in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Basic(_Interned):
    """A focus.method pair, used both as a thread action and as the payload
    of basic program instructions."""

    __slots__ = ("focus", "method")

    def _check(self) -> None:
        object.__setattr__(self, "_text", f"{self.focus}.{self.method}")

    def __str__(self) -> str:
        return self._text


Action = Union[Tau, Basic]


@dataclass(frozen=True, slots=True)
class Deadlock:
    pass


@dataclass(frozen=True, slots=True)
class Stop:
    pass


DEADLOCK = Deadlock()
STOP = Stop()


@dataclass(frozen=True, slots=True, init=False)
class Post:
    """Perform an action, then continue as `then` on a True reply and as
    `else_` on False.  A tau action never branches: else_ is forced to then.
    The constructor is written out, as a generated one plus `__post_init__`
    costs about twice as much, and sets the fields through the slots'
    own descriptors; the dataclass makes the rest."""

    action: Action
    then: str
    else_: str

    def __init__(self, action: Action, then: str, else_: str) -> None:
        _set_action(self, action)
        _set_then(self, then)
        _set_else(self, then if type(action) is Tau else else_)


# the slot descriptors set a field past the frozen class's __setattr__
_set_action, _set_then, _set_else = (f.__set__ for f in (Post.action, Post.then, Post.else_))


Body = Union[Deadlock, Stop, Post]


@dataclass(frozen=True, slots=True)
class ThreadSpec:
    """A finite linear recursive specification: a body for the root and for
    every state a body names.  Construction checks this once, raising
    DanglingStateError, so `states` must not change after construction."""

    states: Mapping[str, Body]
    root: str

    def __post_init__(self) -> None:
        states = self.states
        if self.root not in states:
            raise DanglingStateError(f"root state {self.root!r} is not defined")
        # one containment test of every successor, run in C
        posts = [*filter(_is_post, states.values())]
        if set(states).issuperset(chain(map(_then, posts), map(_else, posts))):
            return
        name, target = next(  # the first dangling state
            (n, t) for n, b in states.items() if isinstance(b, Post)
            for t in (b.then, b.else_) if t not in states)
        raise DanglingStateError(f"state {name!r} refers to undefined state {target!r}")


_is_post = Post.__instancecheck__
_then, _else = attrgetter("then"), attrgetter("else_")


def _breadth_first(spec: ThreadSpec) -> Dict[str, int]:
    """The index of each state reachable from the root in breadth-first
    discovery order, `then` before `else_`; dict order is that order."""
    index = {spec.root: 0}
    queue = deque([spec.root])
    while queue:
        body = spec.states[queue.popleft()]
        if isinstance(body, Post):
            for target in (body.then, body.else_):
                if target not in index:
                    index[target] = len(index)
                    queue.append(target)
    return index


def validate(spec: ThreadSpec) -> ThreadSpec:
    """Drop the states unreachable from the root, keeping the order of the
    rest; a spec whose states are all reachable is returned as it is."""
    reachable = _breadth_first(spec)
    if len(reachable) == len(spec.states):
        return spec
    states = {n: b for n, b in spec.states.items() if n in reachable}
    return ThreadSpec(states, spec.root)


def relabel(spec: ThreadSpec) -> ThreadSpec:
    """Rename states to X0, X1, ... in breadth-first discovery order from
    the root.  Deterministic, so printed output is reproducible."""
    names = {name: f"X{i}" for name, i in _breadth_first(spec).items()}
    states: Dict[str, Body] = {}
    for old, new in names.items():
        body = spec.states[old]
        if isinstance(body, Post):
            body = Post(body.action, names[body.then], names[body.else_])
        states[new] = body
    return ThreadSpec(states, "X0")


# === bisimilarity ===


def bisimilar(a: ThreadSpec, b: ThreadSpec) -> bool:
    """Whether the two roots are bisimilar.  Threads are deterministic (one
    action and one successor per reply), so this is equivalence of
    deterministic automata, decided by Hopcroft & Karp's union-find pair
    walk (1971): merge the classes of the roots, then of every pair of
    successors reached through matching bodies.  The roots are bisimilar
    iff no merged pair differs in body kind or action.  Each walk to a
    class root halves its path on the way, and a merge links one root under
    the other with no rank, which takes O(n log n) for n states in both
    specs (Tarjan & van Leeuwen 1984)."""
    # states of a are 0..len(a)-1, states of b follow, since names may clash
    n = len(a.states)
    ids_a = dict(zip(a.states, range(n)))
    ids_b = dict(zip(b.states, range(n, n + len(b.states))))
    parent = list(range(n + len(b.states)))
    parent[ids_a[a.root]] = ids_b[b.root]
    stack = [(a.root, b.root)]
    while stack:
        sa, sb = stack.pop()
        ba = a.states[sa]
        bb = b.states[sb]
        if type(ba) is not type(bb):
            return False
        if not isinstance(ba, Post):
            continue
        if ba.action != bb.action:
            return False
        for ta, tb in ((ba.then, bb.then), (ba.else_, bb.else_)):
            ra = ids_a[ta]
            while (up := parent[ra]) != ra:
                parent[ra] = ra = parent[up]
            rb = ids_b[tb]
            while (up := parent[rb]) != rb:
                parent[rb] = rb = parent[up]
            if ra != rb:
                parent[ra] = rb
                stack.append((ta, tb))
    return True


# === tau abstraction ===


def abstract_tau(spec: ThreadSpec) -> ThreadSpec:
    """Remove tau steps by chasing each state through its tau chain to the
    first non-tau body.  A chain that revisits a state performs tau forever,
    which is indistinguishable from deadlock.  Each chain is walked once:
    every state on it takes the body the walk resolves to."""
    resolved: Dict[str, Body] = {}
    for start in spec.states:
        chain: Dict[str, None] = {}  # tau states walked from start, in order
        cur = start
        while True:
            if cur in resolved:
                body = resolved[cur]
                break
            if cur in chain:
                body = DEADLOCK
                break
            body = spec.states[cur]
            if not (isinstance(body, Post) and isinstance(body.action, Tau)):
                resolved[cur] = body
                break
            chain[cur] = None
            cur = body.then
        for name in chain:
            resolved[name] = body
    states = {name: resolved[name] for name in spec.states}
    return validate(ThreadSpec(states, spec.root))


# === text format ===

_NAME = r"[A-Za-z_]\w*"
# words split by whitespace; a word after whitespace never starts with #
_WORDS = r"\S*(?:\s+[^\s#]\S*)*"
# One line: `name = body` (S, D, `tau <name>` or `<name> focus.method
# <name>`), then perhaps a comment from a # at line start or after
# whitespace; a # inside a word, as in hdeq:#0, is part of it.  Other text
# matches too, leaving `name`, `body` or `focus` unset for the error, and
# `line` is the text before the comment.  No two adjacent parts can trade
# whitespace, so a match takes linear time.
_LINE_RE = re.compile(
    rf"""\s*(?P<line>
        (?P<name>{_NAME})\s*=\s*(?P<rhs>
            (?P<body>[SD]|tau\s+<(?P<tau>{_NAME})>
              |<(?P<then>{_NAME})>\s+
               (?:(?P<focus>{_NAME})\.(?P<method>\S+)|(?P<action>[^\s#]\S*))
               \s+<(?P<else_>{_NAME})>)
          |(?:(?<==)\#|[^\s#]){_WORDS})
      |[^\s#]{_WORDS}
    )?\s*(?:(?<!\S)\#.*)?$""",
    re.X,
)


# One well-formed row: `name = body`, with only spaces and tabs around its
# tokens and no comment.  Such a line holds none of the separators
# `splitlines` knows, as they are all whitespace, outside `[ \t]` and \S.
_ROW_RE = re.compile(
    rf"^[ \t]*({_NAME})[ \t]*=[ \t]*(?:([SD])|tau[ \t]+<({_NAME})>"
    rf"|<({_NAME})>[ \t]+({_NAME})\.(\S+)[ \t]+<({_NAME})>)[ \t]*$",
    re.M,
)


def parse_thread(text: str) -> ThreadSpec:
    """Parse the one-state-per-line format.  The first state named is the
    root.  `#` at line start or after whitespace begins a comment.  A text
    whose every line, split at newlines, is a well-formed row, with no name
    twice, is read in one pass of `_ROW_RE`; any other text line by line,
    and that reader alone defines comments, blank lines, the other line
    separators and the errors."""
    rows = _ROW_RE.findall(text)
    if len(rows) == text.count("\n") + (not text.endswith("\n")):
        states: Dict[str, Body] = {}
        basics: Dict[tuple, Basic] = {}  # a hit makes no Basic call
        for name, kind, tau, then, focus, method, else_ in rows:
            if then:
                key = focus, method
                basic = basics.get(key) or basics.setdefault(key, Basic(focus, method))
                states[name] = Post(basic, then, else_)
            elif tau:
                states[name] = Post(TAU, tau, tau)
            else:
                states[name] = STOP if kind == "S" else DEADLOCK
        if len(states) == len(rows):
            return ThreadSpec(states, rows[0][0])
    return _parse_lines(text)


def _parse_lines(text: str) -> ThreadSpec:
    """`parse_thread` one line at a time, for any text."""
    states: Dict[str, Body] = {}
    basics: Dict[tuple, Basic] = {}  # a hit makes no Basic call
    for lineno, raw in enumerate(text.splitlines(), start=1):
        # every group of the pattern, in the order it names them
        line, name, rhs, kind, tau, then, focus, method, action, else_ = (
            _LINE_RE.match(raw).groups())
        if line is None:
            continue
        if name is None:
            raise ThreadSyntaxError(f"line {lineno}: cannot parse {line!r}")
        if name in states:
            raise ThreadSyntaxError(f"line {lineno}: duplicate state {name!r}")
        if action is not None:
            raise ThreadSyntaxError(f"line {lineno}: bad action {action!r}")
        if kind is None:
            raise ThreadSyntaxError(f"line {lineno}: cannot parse body {rhs!r}")
        if then is not None:
            key = focus, method
            basic = basics.get(key) or basics.setdefault(key, Basic(focus, method))
            body: Body = Post(basic, then, else_)
        elif tau is not None:
            body = Post(TAU, tau, tau)
        else:
            body = STOP if kind == "S" else DEADLOCK
        states[name] = body
    if not states:
        raise ThreadSyntaxError("no states defined")
    return ThreadSpec(states, next(iter(states)))


def print_thread(spec: ThreadSpec) -> str:
    """Render in the parse_thread format, root state first."""
    names = [spec.root] + [n for n in spec.states if n != spec.root]
    lines = []
    for name in names:
        body = spec.states[name]
        if isinstance(body, Stop):
            lines.append(f"{name} = S")
        elif isinstance(body, Deadlock):
            lines.append(f"{name} = D")
        elif isinstance(body.action, Tau):
            lines.append(f"{name} = tau <{body.then}>")
        else:
            lines.append(f"{name} = <{body.then}> {body.action._text} <{body.else_}>")
    return "\n".join(lines)


def _gvquote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(spec: ThreadSpec) -> str:
    """GraphViz rendering: Stop states are double circles, Deadlock states
    squares, everything else circles; edges carry the action and branch."""
    out = ["digraph thread {"]
    for name, body in spec.states.items():
        if isinstance(body, Stop):
            shape = "doublecircle"
        elif isinstance(body, Deadlock):
            shape = "square"
        else:
            shape = "circle"
        out.append(f"  {_gvquote(name)} [shape={shape}];")
    for name, body in spec.states.items():
        if not isinstance(body, Post):
            continue
        if isinstance(body.action, Tau):
            out.append(f"  {_gvquote(name)} -> {_gvquote(body.then)} [label=\"tau\"];")
        else:
            for target, branch in ((body.then, "+"), (body.else_, "-")):
                label = _gvquote(f"{body.action._text}:{branch}")
                out.append(f"  {_gvquote(name)} -> {_gvquote(target)} [label={label}];")
    out.append("}")
    return "\n".join(out)
