"""Instruction sequences: grammar, canonical form, and shift handling.

A sequence term is built from six instruction kinds with concatenation and
an iterated-forever postfix star.  Every term denotes a canonical sequence:
a finite prefix plus an optional primitive period, minimized so that equal
behaviour under unfolding means structural equality of the dataclass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple, Union

from .threads import Basic

JUMP_LIMIT = 2**63 - 1

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


@dataclass(frozen=True, slots=True)
class Plain:
    basic: Basic


@dataclass(frozen=True, slots=True)
class PosTest:
    basic: Basic


@dataclass(frozen=True, slots=True)
class NegTest:
    basic: Basic


@dataclass(frozen=True, slots=True)
class Jump:
    offset: int

    def __post_init__(self) -> None:
        if not (0 <= self.offset <= JUMP_LIMIT):
            raise JumpOverflowError(
                f"jump offset {self.offset} outside [0, {JUMP_LIMIT}]"
            )


@dataclass(frozen=True, slots=True)
class Halt:
    pass


@dataclass(frozen=True, slots=True)
class Shift:
    pass


HALT = Halt()
SHIFT = Shift()

Instruction = Union[Plain, PosTest, NegTest, Jump, Halt, Shift]


def instruction_text(u: Instruction) -> str:
    if isinstance(u, Plain):
        return str(u.basic)
    if isinstance(u, PosTest):
        return f"+{u.basic}"
    if isinstance(u, NegTest):
        return f"-{u.basic}"
    if isinstance(u, Jump):
        return f"#{u.offset}"
    if isinstance(u, Halt):
        return "!"
    return "~"


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
    n = len(period)
    for d in range(1, n + 1):
        if n % d == 0 and period == period[:d] * (n // d):
            return period[:d]
    return period


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
            work = list(prefix)
            while work and work[-1] == period[-1]:
                period = (period[-1],) + period[:-1]
                work.pop()
            prefix = tuple(work)
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "period", period)

    @property
    def is_periodic(self) -> bool:
        return bool(self.period)

    def __len__(self) -> int:
        return len(self.prefix) + len(self.period)


def instruction_at(s: InstructionSequence, i: int) -> Optional[Instruction]:
    """Instruction at unfolded position i, or None past the end of a finite
    sequence."""
    if i < 0:
        raise IndexError(i)
    p = len(s.prefix)
    if i < p:
        return s.prefix[i]
    if not s.period:
        return None
    return s.period[(i - p) % len(s.period)]


def head(s: InstructionSequence) -> Instruction:
    if s.prefix:
        return s.prefix[0]
    return s.period[0]


def drop_head(s: InstructionSequence) -> Optional[InstructionSequence]:
    """Sequence after removing the first instruction; None if that empties
    it.  Dropping from a pure period rotates the loop."""
    if s.prefix:
        if len(s.prefix) == 1 and not s.period:
            return None
        return InstructionSequence(s.prefix[1:], s.period)
    return InstructionSequence((), s.period[1:] + s.period[:1])


def contains_shift(s: InstructionSequence) -> bool:
    return any(isinstance(u, Shift) for u in s.prefix + s.period)


def is_pgajs0(s: InstructionSequence) -> bool:
    """Whether every jump has offset zero (shifts are allowed)."""
    return all(
        u.offset == 0
        for u in s.prefix + s.period
        if isinstance(u, Jump)
    )


def basics_of(s: InstructionSequence) -> set:
    return {
        u.basic
        for u in s.prefix + s.period
        if isinstance(u, (Plain, PosTest, NegTest))
    }


# === term -> sequence ===


def _flatten(term: Term) -> Tuple[List[Instruction], List[Instruction]]:
    """Prefix and period lists of a term.  A `;`-list is a right-nested
    Concat chain, so the chain is walked in a loop that appends into one
    prefix; recursion only enters left operands and starred bodies."""
    prefix: List[Instruction] = []
    while isinstance(term, Concat):
        lp, lq = _flatten(term.left)
        prefix += lp
        if lq:
            # anything after an infinite iteration is unreachable
            return prefix, lq
        term = term.right
    if isinstance(term, Instr):
        prefix.append(term.instruction)
        return prefix, []
    body_p, body_q = _flatten(term.body)
    if body_q:
        # iterating a term that already ends in a loop keeps that loop
        return prefix + body_p, body_q
    return prefix, body_p


def to_canonical(term: Term) -> InstructionSequence:
    prefix, period = _flatten(term)
    return InstructionSequence(tuple(prefix), tuple(period))


# === parser ===

_PUNCT = {";", "(", ")", "*", "!", "~", "#", "+", "-", "."}


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("NAT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("IDENT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c in _PUNCT:
            tokens.append(_Token(c, c, line, col))
            i += 1
            col += 1
            continue
        raise ProgramSyntaxError(f"unexpected character {c!r}", line, col)
    tokens.append(_Token("EOF", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: List[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self, kind: str) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            raise ProgramSyntaxError(
                f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                tok.line,
                tok.col,
            )
        self.pos += 1
        return tok

    def term(self) -> Term:
        factors = [self.factor()]
        while self.peek().kind == ";":
            self.take(";")
            factors.append(self.factor())
        node = factors[-1]
        for f in reversed(factors[:-1]):
            node = Concat(f, node)
        return node

    def factor(self) -> Term:
        tok = self.peek()
        if tok.kind == "(":
            self.take("(")
            inner = self.term()
            self.take(")")
            self.take("*")
            return Repeat(inner)
        return Instr(self.instruction())

    def basic(self) -> Basic:
        focus_tok = self.take("IDENT")
        self.take(".")
        m = self.peek()
        if m.kind not in ("IDENT", "NAT"):
            raise ProgramSyntaxError(
                f"expected method name, found {m.text!r}", m.line, m.col
            )
        self.pos += 1
        method = m.text
        # method names may continue with dots, e.g. f.m.n
        while self.peek().kind == ".":
            self.take(".")
            part = self.peek()
            if part.kind not in ("IDENT", "NAT"):
                raise ProgramSyntaxError(
                    f"expected method name, found {part.text!r}",
                    part.line,
                    part.col,
                )
            self.pos += 1
            method += "." + part.text
        if focus_tok.text in RESERVED_FOCI:
            raise ReservedFocusError(
                f"focus {focus_tok.text!r} is reserved",
                focus_tok.line,
                focus_tok.col,
            )
        return Basic(focus_tok.text, method)

    def instruction(self) -> Instruction:
        tok = self.peek()
        if tok.kind == "!":
            self.take("!")
            return HALT
        if tok.kind == "~":
            self.take("~")
            return SHIFT
        if tok.kind == "#":
            self.take("#")
            nat = self.take("NAT")
            return Jump(int(nat.text))
        if tok.kind == "+":
            self.take("+")
            return PosTest(self.basic())
        if tok.kind == "-":
            self.take("-")
            return NegTest(self.basic())
        if tok.kind == "IDENT":
            return Plain(self.basic())
        raise ProgramSyntaxError(
            f"expected an instruction, found {tok.text or 'end of input'!r}",
            tok.line,
            tok.col,
        )


def parse_term(text: str) -> Term:
    parser = _Parser(_tokenize(text))
    term = parser.term()
    parser.take("EOF")
    return term


def parse_program(text: str) -> InstructionSequence:
    return to_canonical(parse_term(text))


def parse_instruction(text: str) -> Instruction:
    parser = _Parser(_tokenize(text))
    u = parser.instruction()
    parser.take("EOF")
    return u


# === printing ===


def _term_factors(term: Term) -> Iterable[Term]:
    while isinstance(term, Concat):
        yield from _term_factors(term.left)
        term = term.right
    yield term


def print_program(p: Union[Term, InstructionSequence]) -> str:
    if isinstance(p, InstructionSequence):
        parts = [instruction_text(u) for u in p.prefix]
        if p.period:
            parts.append("(" + "; ".join(instruction_text(u) for u in p.period) + ")*")
        return "; ".join(parts)
    parts = []
    for f in _term_factors(p):
        if isinstance(f, Instr):
            parts.append(instruction_text(f.instruction))
        else:
            assert isinstance(f, Repeat)
            parts.append("(" + print_program(f.body) + ")*")
    return "; ".join(parts)


# === shift elimination ===


def _absorb(units: Iterable[Instruction]) -> List[Instruction]:
    """Fold each maximal shift run into what follows: a jump's offset grows
    by the run length, any other instruction swallows the run unchanged.
    Callers arrange that no run reaches the end of the list."""
    out: List[Instruction] = []
    run = 0
    for u in units:
        if isinstance(u, Shift):
            run += 1
        elif isinstance(u, Jump):
            out.append(Jump(u.offset + run))
            run = 0
        else:
            out.append(u)
            run = 0
    assert run == 0, "trailing shift run"
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
        # endless shifting never launches another instruction
        while prefix and isinstance(prefix[-1], Shift):
            prefix.pop()
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
    must already be shift free."""
    if contains_shift(s):
        raise ShiftPresentError("input still contains shift instructions")

    def expand(units: Tuple[Instruction, ...]) -> Tuple[Instruction, ...]:
        out: List[Instruction] = []
        for u in units:
            if isinstance(u, Jump) and u.offset > 0:
                out.extend([SHIFT] * u.offset)
                out.append(Jump(0))
            else:
                out.append(u)
        return tuple(out)

    return InstructionSequence(expand(s.prefix), expand(s.period))
