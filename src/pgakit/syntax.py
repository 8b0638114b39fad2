"""Instruction sequences: grammar, canonical form, and shift handling.

A sequence term is built from six instruction kinds with concatenation and
an iterated-forever postfix star.  Every term denotes a canonical sequence:
a finite prefix plus an optional primitive period, minimized so that two
terms behave alike under unfolding iff their sequences compare equal.  Each
instruction value exists once per process and stores its text (see
`threads._Interned`), so sequences compare instruction by instruction by
identity, and the scans below work once per distinct instruction.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, List, Optional, Tuple, Union

from .threads import _INTERNED, Basic, _Interned

JUMP_LIMIT = 2**63 - 1
# Most instructions `transform_to_pgajs0` writes out; a jump of offset l
# becomes l + 1 of them.
EXPANSION_LIMIT = 10**6

RESERVED_FOCI = frozenset({"cnt", "pgs"})


class ProgramError(Exception):
    pass


class ProgramSyntaxError(ProgramError):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(message)
        self.line = line
        self.col = col


class ReservedFocusError(ProgramSyntaxError):
    pass


class JumpOverflowError(ProgramError):
    pass


class ShiftPresentError(ProgramError):
    pass


# === instructions ===


class _Instruction(_Interned):
    __slots__ = ()  # `_text` is how it prints, from `_format` and the fields

    def _check(self) -> None:
        if hasattr(self, "basic") and self.basic.focus in RESERVED_FOCI:
            raise ReservedFocusError(f"focus {self.basic.focus!r} is reserved")
        fields = (getattr(self, n) for n in self.__slots__)
        object.__setattr__(self, "_text", self._format.format(*fields))


class Plain(_Instruction):
    __slots__ = ("basic",)
    _format = "{}"


class PosTest(_Instruction):
    __slots__ = ("basic",)
    _format = "+{}"


class NegTest(_Instruction):
    __slots__ = ("basic",)
    _format = "-{}"


class Jump(_Instruction):
    __slots__ = ("offset",)
    _format = "#{}"

    def __new__(cls, offset):
        # exactly int: True or 2.0 would print as no program text, and True
        # would find the stored Jump(1); a hit costs this one Python call
        if type(offset) is not int:
            raise TypeError(f"jump offset {offset!r} is not an int")
        return _INTERNED.get((cls, (offset,))) or super().__new__(cls, offset)

    def _check(self) -> None:
        if not (0 <= self.offset <= JUMP_LIMIT):
            raise JumpOverflowError(
                f"jump offset {self.offset} outside [0, {JUMP_LIMIT}]"
            )
        super()._check()


class Halt(_Instruction):
    __slots__ = ()
    _format = "!"


class Shift(_Instruction):
    __slots__ = ()
    _format = "~"


HALT = Halt()
SHIFT = Shift()

Instruction = Union[Plain, PosTest, NegTest, Jump, Halt, Shift]


def instruction_text(u: Instruction) -> str:
    return u._text


# === terms ===


@dataclass(frozen=True, slots=True)
class Instr:
    instruction: Instruction


@dataclass(frozen=True, slots=True)
class Concat:
    left: "Term"
    right: "Term"


@dataclass(frozen=True, slots=True)
class Repeat:
    body: "Term"


Term = Union[Instr, Concat, Repeat]


# === canonical sequences ===


def _primitive(period: Tuple[Instruction, ...]) -> Tuple[Instruction, ...]:
    """The shortest root r with period == r * (n // len(r)).  Root lengths
    are the multiples of the shortest one that divide n, so starting from
    d = n, d is divided by each prime factor f of n for as long as d // f
    is still a root: the period equals itself shifted by d // f.  That is
    at most log2(n) tuple comparisons, each run in C, since instructions
    compare by identity, and no copy of the period per divisor."""
    n = len(period)
    d = n
    for f in _prime_factors(n):
        while d % f == 0 and period[d // f:] == period[:n - d // f]:
            d //= f
    return period[:d]


def _prime_factors(n: int) -> List[int]:
    factors = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            factors.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        factors.append(n)
    return factors


@dataclass(frozen=True, slots=True)
class InstructionSequence:
    """Canonical form: a finite prefix and an optional repeating period.

    The constructor minimizes: the period is made primitive, then trailing
    prefix instructions equal to the period's last element are rolled into
    the loop.  Two sequences unfold identically iff they compare equal."""

    prefix: Tuple[Instruction, ...]
    period: Tuple[Instruction, ...]

    def __post_init__(self) -> None:
        prefix = tuple(self.prefix)
        period = tuple(self.period)
        if not prefix and not period:
            raise ProgramError("empty instruction sequence")
        if period:
            period = _primitive(period)
            # the last k prefix instructions match the period read
            # backwards; rolling them in rotates the period right by k
            n, m = len(prefix), len(period)
            k = 0
            while k < n and prefix[n - 1 - k] == period[-1 - k % m]:
                k += 1
            r = k % m
            period = period[m - r:] + period[:m - r]
            prefix = prefix[:n - k]
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "period", period)

    def __len__(self) -> int:
        return len(self.prefix) + len(self.period)


def position(s: InstructionSequence, i: int) -> int:
    """Canonical position of unfolded index i: i itself in the prefix, else
    wrapped into the period.  Every index past the end of a finite sequence
    maps to its end position len(s), which holds no instruction."""
    if i < 0:
        raise IndexError(i)
    p = len(s.prefix)
    if i < p:
        return i
    if not s.period:
        return p
    return p + (i - p) % len(s.period)


def instruction_at(s: InstructionSequence, i: int) -> Optional[Instruction]:
    """Instruction at unfolded index i, or None past the end of a finite
    sequence."""
    pos = position(s, i)
    p = len(s.prefix)
    if pos < p:
        return s.prefix[pos]
    return s.period[pos - p] if s.period else None


def contains_shift(s: InstructionSequence) -> bool:
    return SHIFT in s.prefix or SHIFT in s.period


# The scans below visit each distinct instruction once: they read the set
# `{*s.prefix, *s.period}`, built in C, since instructions hash by
# identity, so a caller that needs both scans builds it once.


def is_pgajs0(s: InstructionSequence) -> bool:
    """Whether every jump has offset zero (shifts are allowed)."""
    return zero_jumps_only({*s.prefix, *s.period})


def zero_jumps_only(units) -> bool:
    """Whether every jump among the instructions `units` has offset zero."""
    return all(u.offset == 0 for u in units if type(u) is Jump)


def basics_of(units) -> set:
    """The basics of the plain and test instructions among `units`."""
    return {u.basic for u in units if type(u) in (Plain, PosTest, NegTest)}


# === term -> sequence ===
#
# A `;`-list is read into a prefix list and, once one of its factors loops,
# that loop; what follows a loop in the same list is unreachable.  The lists
# of the stars still open wait on an explicit stack, so neither the parser
# nor `to_canonical` recurses once per nesting level.


def _close_star(stack: list, prefix: List[Instruction], period):
    """Leave a starred list and add it as a factor to the enclosing list,
    which is popped from `stack` and returned as (prefix, period)."""
    if period is None:
        body_prefix, body_period = [], prefix
    else:
        # iterating a list that already ends in a loop keeps that loop
        body_prefix, body_period = prefix, period
    prefix, period = stack.pop()
    if period is None:
        prefix += body_prefix
        period = body_period
    return prefix, period


def to_canonical(term: Term) -> InstructionSequence:
    prefix: List[Instruction] = []
    period = None
    stack: list = []
    todo: list = [term]  # terms still to read, next one last; None ends a star
    while todo:
        t = todo.pop()
        if t is None:
            prefix, period = _close_star(stack, prefix, period)
        elif isinstance(t, Concat):
            todo += (t.right, t.left)
        elif isinstance(t, Repeat):
            stack.append((prefix, period))
            prefix, period = [], None
            todo += (None, t.body)
        elif period is None:
            prefix.append(t.instruction)
    return InstructionSequence(tuple(prefix), tuple(period or ()))


# === parser ===
#
#   program     := factor (";" factor)*
#   factor      := "(" program ")" "*" | instruction
#   instruction := "!" | "~" | "#" NAT | "+" basic | "-" basic | basic
#   basic       := IDENT "." name ("." name)*        name := IDENT | NAT
#
# Between two `;` there is always a piece of the form "("*, an instruction,
# then (")" "*")*, so `parse_program` splits the text at `;`, adds each run
# of known star-free pieces at once, and reads each distinct short piece
# once per process, up to a fixed bound (`_PIECES`).
# The text is checked for unexpected characters before any other error is
# reported, and `//` comments count as whitespace, except that end of input
# is placed where a comment on the last line begins.

_PUNCT = frozenset(";()*!~#+-.")
_COMMENT = re.compile(r"//[^\n]*")

# kind, text and offset of a token; the kind of a punctuation mark is itself
_Token = Tuple[str, str, int]

# star-free piece, after comment blanking -> its instruction, and any other
# piece in a 1-tuple, a key no piece is that makes no new string -> (stars
# opened, instruction, stars closed), for every piece of at most _PIECE_LEN
# characters that any call has read without error.  A piece reads alike
# wherever it stands, and at every depth where it closes no more stars than
# are open; only its errors depend on its place.  A call that leaves more
# than _PIECES_MAX entries empties it.
_PIECES: dict = {}
_PIECES_MAX = 4096
_PIECE_LEN = 64


def _blank_comments(text: str) -> Tuple[str, int]:
    """The text with every comment turned into spaces, which keeps all
    offsets, lines and columns, and the offset at which end of input is
    reported: where a comment on the last line begins, else the end."""
    if "//" not in text:
        return text, len(text)
    comment = text.find("//", text.rfind("\n") + 1)
    src = _COMMENT.sub(lambda m: " " * len(m.group()), text)
    return src, comment if comment >= 0 else len(text)


def _error(src: str, offset: int, message: str, kind=ProgramSyntaxError):
    line = src.count("\n", 0, offset) + 1
    return kind(message, line, offset - src.rfind("\n", 0, offset))


def _unexpected(src: str, tok: _Token, expected: str) -> ProgramSyntaxError:
    return _error(src, tok[2], f"expected {expected}, found {tok[1] or 'end of input'!r}")


def _tokens(src: str, start: int, end: int, eof: int) -> List[_Token]:
    """The tokens of src[start:end], then the token after them: the `;` at
    `end`, or end of input."""
    toks: List[_Token] = []
    i = start
    while i < end:
        c = src[i]
        j = i + 1
        if c in " \t\r\n":
            i = j
            continue
        if c.isdigit():
            while j < end and src[j].isdigit():
                j += 1
            kind = "NAT"
        elif c.isalpha() or c == "_":
            while j < end and (src[j].isalnum() or src[j] == "_"):
                j += 1
            kind = "IDENT"
        elif c in _PUNCT:
            kind = c
        else:
            raise _error(src, i, f"unexpected character {c!r}")
        toks.append((kind, src[i:j], i))
        i = j
    toks.append((";", ";", end) if end < len(src) else ("EOF", "", eof))
    return toks


def _jump(src: str, tok: _Token) -> Jump:
    digits = tok[1]
    if not digits.isdecimal():
        raise _error(src, tok[2], f"jump offset {digits!r} is not a decimal number")
    # only zeros may stand before the last `width` digits; int() refuses
    # strings of thousands of digits
    width = len(str(JUMP_LIMIT))
    if any(int(d) for d in digits[:-width]):
        raise JumpOverflowError(f"jump offset {digits} outside [0, {JUMP_LIMIT}]")
    return Jump(int(digits[-width:]))


def _basic(src: str, toks: List[_Token], i: int) -> Tuple[Basic, int]:
    focus = toks[i]
    if focus[0] != "IDENT":
        raise _unexpected(src, focus, "'IDENT'")
    if toks[i + 1][0] != ".":
        raise _unexpected(src, toks[i + 1], "'.'")
    i += 2
    names = []
    while True:
        name = toks[i]
        if name[0] not in ("IDENT", "NAT"):
            raise _unexpected(src, name, "method name")
        names.append(name[1])
        if toks[i + 1][0] != ".":
            break
        i += 2
    if focus[1] in RESERVED_FOCI:
        raise _error(src, focus[2], f"focus {focus[1]!r} is reserved", ReservedFocusError)
    return Basic(focus[1], ".".join(names)), i + 1


def _instruction(src: str, toks: List[_Token], i: int) -> Tuple[Instruction, int]:
    """The instruction that starts at toks[i], and the index after it."""
    kind = toks[i][0]
    if kind == "!":
        return HALT, i + 1
    if kind == "~":
        return SHIFT, i + 1
    if kind == "#":
        if toks[i + 1][0] != "NAT":
            raise _unexpected(src, toks[i + 1], "'NAT'")
        return _jump(src, toks[i + 1]), i + 2
    if kind == "+":
        b, i = _basic(src, toks, i + 1)
        return PosTest(b), i
    if kind == "-":
        b, i = _basic(src, toks, i + 1)
        return NegTest(b), i
    if kind == "IDENT":
        b, i = _basic(src, toks, i)
        return Plain(b), i
    raise _unexpected(src, toks[i], "an instruction")


def _read_piece(
    src: str, eof: int, start: int, end: int, depth: int
) -> Tuple[int, Instruction, int]:
    """Read the piece src[start:end] inside `depth` open stars: the number
    of stars it opens, its instruction, and the number it closes."""
    try:
        toks = _tokens(src, start, end, eof)
        i = 0
        while toks[i][0] == "(":
            i += 1
        opens = i
        depth += opens
        u, i = _instruction(src, toks, i)
        closes = 0
        while toks[i][0] == ")" and closes < depth:
            if toks[i + 1][0] != "*":
                raise _unexpected(src, toks[i + 1], "'*'")
            i += 2
            closes += 1
        if i != len(toks) - 1:
            raise _unexpected(src, toks[i], "')'" if closes < depth else "'EOF'")
        return opens, u, closes
    except ProgramError as exc:
        error = exc
    # an unexpected character further on is reported first
    _tokens(src, start, len(src), eof)
    raise error


def parse_program(text: str) -> InstructionSequence:
    """The canonical sequence of a program text, read in one pass."""
    src, eof = _blank_comments(text)
    read = _PIECES
    pieces = src.split(";")
    # each known star-free piece's instruction, else None; None ends the list
    us = [*map(read.get, pieces), None]
    prefix: List[Instruction] = []
    period = None
    stack: list = []
    start = done = i = 0  # pieces[done] begins at offset start
    try:
        while True:
            j = us.index(None, i)
            if period is None:
                prefix += us[i:j]
            if j == len(pieces):
                break
            piece = pieces[j]
            # a star-free piece first read in this call is under its own text
            r = read.get((piece,)) or (0, read.get(piece), 0)
            if r[1] is None or r[2] > r[0] + len(stack):
                start += sum(map(len, pieces[done:j])) + j - done
                done = j
                r = _read_piece(src, eof, start, start + len(piece), len(stack))
                if len(piece) <= _PIECE_LEN:
                    if r[0] or r[2]:
                        read[(piece,)] = r
                    else:
                        read[piece] = r[1]
            opens, u, closes = r
            while opens:
                stack.append((prefix, period))
                prefix, period = [], None
                opens -= 1
            if period is None:
                prefix.append(u)
            while closes:
                prefix, period = _close_star(stack, prefix, period)
                closes -= 1
            i = j + 1
    finally:
        if len(read) > _PIECES_MAX:
            read.clear()
    if stack:
        raise _unexpected(src, ("EOF", "", eof), "')'")
    return InstructionSequence(tuple(prefix), tuple(period or ()))


def parse_instruction(text: str) -> Instruction:
    src, eof = _blank_comments(text)
    toks = _tokens(src, 0, len(src), eof)
    u, i = _instruction(src, toks, 0)
    if i != len(toks) - 1:
        raise _unexpected(src, toks[i], "'EOF'")
    return u


# === printing ===


def print_program(p: InstructionSequence) -> str:
    parts = [u._text for u in p.prefix]
    if p.period:
        parts.append("(" + "; ".join([u._text for u in p.period]) + ")*")
    return "; ".join(parts)


# === shift elimination ===


def _absorb(units: Iterable[Instruction]) -> List[Instruction]:
    """Fold each maximal shift run into what follows: a jump's offset grows
    by the run length, any other instruction swallows the run unchanged.
    The one shift is found by identity, and only a jump that ends a run is
    made anew.  Callers arrange that no run reaches the end of the list."""
    out: List[Instruction] = []
    run = 0
    for u in units:
        if u is SHIFT:
            run += 1
        else:
            out.append(Jump(u.offset + run) if run and type(u) is Jump else u)
            run = 0
    return out


def normalize_shifts(s: InstructionSequence) -> InstructionSequence:
    """Rewrite shifts into larger jump offsets.  A shift raises the target
    of the next jump by one; a run of shifts with no jump to finish it
    behaves as a jump past the run.  Shift-free input is returned as is."""
    if not contains_shift(s):
        return s
    prefix = list(s.prefix)
    period = list(s.period)
    if not period:
        prefix.append(Jump(0))
        return InstructionSequence(tuple(_absorb(prefix)), ())
    if all(isinstance(u, Shift) for u in period):
        # endless shifting never launches another instruction; the prefix
        # ends in no shift, as the rollback moved those into the period
        return InstructionSequence(tuple(_absorb(prefix)), (Jump(0),))
    k = 0
    while isinstance(period[-1 - k], Shift):
        k += 1
    if k:
        # rotate so the period no longer ends mid shift run
        prefix.extend(period[: len(period) - k])
        period = period[-k:] + period[: len(period) - k]
    if prefix and isinstance(prefix[-1], Shift):
        # close the prefix's trailing run with the loop's first pass
        prefix.extend(period)
    return InstructionSequence(tuple(_absorb(prefix)), tuple(_absorb(period)))


def transform_to_pgajs0(s: InstructionSequence) -> InstructionSequence:
    """Expand every positive jump #l into l shifts followed by #0.  Input
    must already be shift free, and expand to at most EXPANSION_LIMIT
    instructions."""
    if contains_shift(s):
        raise ShiftPresentError("input still contains shift instructions")
    counts = Counter(s.prefix + s.period)
    size = sum(u.offset * n for u, n in counts.items() if type(u) is Jump) + len(s)
    if size > EXPANSION_LIMIT:
        raise JumpOverflowError(
            f"expanding the jumps gives {size} instructions, over {EXPANSION_LIMIT}"
        )
    # one expansion per distinct instruction
    table = {
        u: (SHIFT,) * u.offset + (Jump(0),) if type(u) is Jump else (u,) for u in counts
    }
    return InstructionSequence(
        tuple(chain.from_iterable(map(table.__getitem__, s.prefix))),
        tuple(chain.from_iterable(map(table.__getitem__, s.period))),
    )
