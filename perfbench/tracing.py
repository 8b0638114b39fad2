"""Spans around the public functions of pgakit's pipeline modules.

The tracer replaces each public function in every module namespace that
holds it (for example `pgakit.execmech.compose`, `pgakit.altsem.compose`
and `pgakit.compose` are one function), so calls between modules are seen
as well as the benchmark's own calls.  Spans are kept in memory as tuples
and written out when the run ends; per-layer figures are derived from them
afterwards.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict
from typing import Dict, List, Tuple

import pgakit as pk

MODULES = ("syntax", "threads", "extraction", "altsem", "services", "execmech", "compiler")

# Helpers called once per instruction or per product state.  A span around
# each would cost more than the work it measures, so their time stays in the
# self time of their caller.
UNTRACED = {
    "syntax.instruction_text",
    "syntax.instruction_at",
    "syntax.head",
    "syntax.drop_head",
    "syntax.parse_instruction",
}

# span: (id, parent id, name, start, end, states or instructions in, out, failed)
Span = Tuple[int, int, str, float, float, int, int, bool]


def _size(value) -> int:
    if isinstance(value, pk.ThreadSpec):
        return len(value.states)
    if isinstance(value, pk.InstructionSequence):
        return len(value)
    return 0


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack = [0]
        self._next_id = 1
        self._installed: List[Tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        by_focus = name == "services.compose"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            result = None
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = clock()
                stack.pop()
                label = name
                if by_focus:
                    label = f"{name}.{args[1] if len(args) > 1 else kwargs['focus']}"
                size_in = sum(_size(a) for a in args)
                spans.append((sid, parent, label, start, end, size_in, _size(result), failed))

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(f"pgakit.{m}") for m in MODULES]
        namespaces = [pk] + modules
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__ or f"{short}.{attr}" in UNTRACED:
                    continue
                wrapper = self._wrap(fn, f"{short}.{attr}")
                for ns in namespaces:
                    if getattr(ns, attr, None) is fn:
                        self._installed.append((ns, attr, fn))
                        setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, fn in reversed(self._installed):
            setattr(ns, attr, fn)
        self._installed.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart\tend\tsize_in\tsize_out\tfailed\n")
            for span in self.spans:
                fh.write("\t".join(map(str, span)) + "\n")


def aggregate(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, failed calls, total and self seconds, and the
    sizes in and out summed over calls.  Self time is a span's duration less
    the durations of its direct children."""
    child_time: Dict[int, float] = defaultdict(float)
    for sid, parent, _, start, end, *_ in spans:
        child_time[parent] += end - start
    out: Dict[str, Dict[str, float]] = defaultdict(
        lambda: dict.fromkeys(("calls", "failed", "total_s", "self_s", "states_in", "states_out"), 0)
    )
    for sid, parent, name, start, end, size_in, size_out, failed in spans:
        row = out[name]
        row["calls"] += 1
        row["failed"] += failed
        row["total_s"] += end - start
        row["self_s"] += end - start - child_time[sid]
        row["states_in"] += size_in
        row["states_out"] += size_out
    return out
