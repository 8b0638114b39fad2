"""State-based services and thread-service composition.

A service is a step function: applying a method yields a successor service
and a reply (True, False, or Blocked).  Blocked is absorbing.  Composing a
thread with a service replaces matching-focus actions by silent steps whose
branch is chosen by the reply; the counter service provides clr/inc/dec/isz
over a non-negative content.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from .threads import (
    DEADLOCK,
    NAMES,
    TAU,
    Body,
    Post,
    Tau,
    ThreadSpec,
    validate,
)


class Reply(enum.Enum):
    TRUE = "T"
    FALSE = "F"
    BLOCKED = "B"


class ServiceError(Exception):
    pass


class BudgetExceededError(ServiceError):
    pass


class Service:
    """Interface: apply(method) -> (successor service, reply), plus a state
    key that is stable and unique per reachable service state."""

    def apply(self, method: str) -> Tuple["Service", Reply]:
        raise NotImplementedError

    def key(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class CounterService(Service):
    """Natural-number counter.  clr zeroes, inc adds one, dec subtracts one
    (refusing at zero with a False reply), isz tests for zero.  Any other
    method wedges the service permanently."""

    content: Optional[int] = 0

    def apply(self, method: str) -> Tuple["CounterService", Reply]:
        k = self.content
        if k is None:
            return self, Reply.BLOCKED
        if method == "clr":
            return CounterService(0), Reply.TRUE
        if method == "inc":
            return CounterService(k + 1), Reply.TRUE
        if method == "dec":
            if k == 0:
                return self, Reply.FALSE
            return CounterService(k - 1), Reply.TRUE
        if method == "isz":
            return self, Reply.TRUE if k == 0 else Reply.FALSE
        return CounterService(None), Reply.BLOCKED

    def key(self) -> str:
        if self.content is None:
            return "cnt:undef"
        return f"cnt:{self.content}"


def counter_new(init: int = 0) -> CounterService:
    if init < 0:
        raise ValueError("counter content must be non-negative")
    return CounterService(init)


@dataclass(frozen=True)
class Budget:
    max_states: int = 1_000_000

    def __post_init__(self) -> None:
        if self.max_states <= 0:
            raise ValueError("max_states must be positive")


def compose(
    spec: ThreadSpec,
    focus: str,
    svc: Service,
    budget: Optional[Budget] = None,
) -> ThreadSpec:
    """Product of a thread with a service handling one focus: Bergstra &
    Ponse's use operator.  Actions on other foci pass through; actions on
    the given focus become silent steps whose branch is picked by the
    reply, with the service advanced; Blocked replies deadlock.  States are
    named X0, X1, ... in breadth-first discovery order from the root, `then`
    before `else_`, as `relabel` names them.  State count is capped by the
    budget."""
    if budget is None:
        budget = Budget()
    names: Dict[Tuple[str, str], str] = {}  # (state, service key) -> name
    queue: Deque[Tuple[str, Service]] = deque()

    def visit(sid: str, service: Service) -> str:
        key = (sid, service.key())
        name = names.get(key)
        if name is None:
            if len(names) >= budget.max_states:
                raise BudgetExceededError(
                    f"service product exceeded {budget.max_states} states"
                )
            name = names[key] = NAMES[len(names)]
            queue.append((sid, service))
        return name

    visit(spec.root, svc)
    states: Dict[str, Body] = {}
    while queue:  # states leave the queue in the order they were named
        sid, service = queue.popleft()
        body = spec.states[sid]
        if isinstance(body, Post):
            action = body.action
            if isinstance(action, Tau):
                then = visit(body.then, service)
                body = Post(TAU, then, then)
            elif action.focus != focus:
                body = Post(action, visit(body.then, service), visit(body.else_, service))
            else:
                nxt, reply = service.apply(action.method)
                if reply is Reply.BLOCKED:
                    body = DEADLOCK
                else:
                    then = visit(body.then if reply is Reply.TRUE else body.else_, nxt)
                    body = Post(TAU, then, then)
        states[NAMES[len(states)]] = body
    return ThreadSpec(states, "X0")


def collapse_counter_divergence(spec: ThreadSpec) -> ThreadSpec:
    """Replace states lying on a cycle of silent or cnt.inc steps with
    deadlock.  Such a cycle can only spin the counter up forever, which
    after composition and abstraction is deadlock; removing it first keeps
    the service product finite."""
    spec = validate(spec)

    def step(name: str) -> Optional[str]:
        body = spec.states[name]
        if not isinstance(body, Post):
            return None
        a = body.action
        if isinstance(a, Tau):
            return body.then
        if a.focus == "cnt" and a.method == "inc":
            return body.then
        return None

    color: Dict[str, int] = {}
    on_cycle = set()
    for start in spec.states:
        if color.get(start):
            continue
        path: List[str] = []
        cur: Optional[str] = start
        while cur is not None and color.get(cur, 0) == 0:
            color[cur] = 1
            path.append(cur)
            cur = step(cur)
        if cur is not None and color[cur] == 1:
            # found a new cycle; everything from cur onwards in path is on it
            on_cycle.update(path[path.index(cur):])
        for name in path:
            color[name] = 2

    if not on_cycle:
        return spec
    states = {
        name: (DEADLOCK if name in on_cycle else body)
        for name, body in spec.states.items()
    }
    return validate(ThreadSpec(states, spec.root))
