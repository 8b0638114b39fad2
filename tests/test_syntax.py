import copy
import pickle
import random

import pytest
from hypothesis import given

from pgakit import (
    Basic,
    Halt,
    InstructionSequence,
    Jump,
    JumpOverflowError,
    NegTest,
    Plain,
    PosTest,
    ProgramSyntaxError,
    ReservedFocusError,
    SHIFT,
    STOP,
    Shift,
    ShiftPresentError,
    compile_spec,
    corollary1_pipeline,
    instruction_at,
    is_pgajs0,
    normalize_shifts,
    parse_instruction,
    parse_program,
    print_program,
    to_canonical,
    transform_to_pgajs0,
)
from pgakit.syntax import (
    EXPANSION_LIMIT,
    HALT,
    JUMP_LIMIT,
    Concat,
    Instr,
    ProgramError,
    Repeat,
    contains_shift,
    position,
)
from pgakit.threads import _INTERNED

from strategies import BASICS, chain_spec, deep_spec, programs

P = parse_program


def seq(*units):
    return InstructionSequence(tuple(units), ())


def loop(*units):
    return InstructionSequence((), tuple(units))


fa = Plain(Basic("f", "a"))
fb = Plain(Basic("f", "b"))


# concatenation is associative: both groupings canonicalize identically
def test_concat_associative():
    t1 = Concat(Concat(Instr(fa), Instr(fb)), Instr(Halt()))
    t2 = Concat(Instr(fa), Concat(Instr(fb), Instr(Halt())))
    assert to_canonical(t1) == to_canonical(t2)


def test_repeated_power_collapses():
    assert P("(f.a; f.b; f.a; f.b)*") == P("(f.a; f.b)*")
    assert P("(f.a; f.a; f.a)*") == P("(f.a)*")
    # every prime factor of the length, small or large, is divided out as
    # often as it divides it
    for r in range(1, 7):
        root = (fa,) * (r - 1) + (fb,)
        for k in range(1, 25):
            assert loop(*root * k).period == root, (r, k)


def test_repetition_absorbs_tail():
    assert P("(f.a)*; f.b") == P("(f.a)*")
    assert P("(f.a)*; (f.b)*; (f.c; (f.b)*)*") == P("(f.a)*")
    t = Concat(Repeat(Instr(fa)), Instr(fb))
    assert to_canonical(t) == loop(fa)


def test_repetition_unfolds_once():
    assert P("(f.a; f.b)*") == P("f.a; (f.b; f.a)*")


def test_prefix_rollback_is_maximal():
    s = P("f.a; f.b; (f.a; f.b)*")
    assert s.prefix == () and s.period == (fa, fb)
    # two instructions roll in: the period turns right by two
    fc = Plain(Basic("f", "c"))
    assert P("f.c; f.a; (f.b; f.c; f.a)*") == loop(fc, fa, fb)
    assert P("!; f.a; f.b; f.c; f.a; (f.b; f.c; f.a)*") == InstructionSequence((HALT,), (fa, fb, fc))


def test_nested_repetition_collapses():
    assert P("((f.a; f.b)*)*") == P("(f.a; f.b)*")
    # iterating a list that ends in a loop keeps its prefix and that loop
    assert P("(f.a; (f.b)*; f.b)*") == P("f.a; (f.b)*")
    t = Repeat(Concat(Instr(fa), Repeat(Instr(fb))))
    assert to_canonical(t) == P("f.a; (f.b)*")


def test_empty_program_rejected():
    with pytest.raises(ProgramSyntaxError):
        P("")
    with pytest.raises(ProgramError, match="empty"):
        InstructionSequence((), ())


def test_single_instruction_forms():
    assert P("#3") == seq(Jump(3))
    assert P("!") == seq(Halt())
    assert P("~") == seq(Shift())
    assert P("+f.a") == seq(PosTest(Basic("f", "a")))
    assert P("-f.b") == seq(NegTest(Basic("f", "b")))


def test_method_may_contain_dots():
    s = P("g.m.n")
    assert s.prefix[0] == Plain(Basic("g", "m.n"))


def test_comments_and_whitespace():
    s = P("f.a; // trailing note\n f.b")
    assert s == seq(fa, fb)


def test_reserved_focus_rejected():
    with pytest.raises(ReservedFocusError):
        P("cnt.inc")
    with pytest.raises(ReservedFocusError):
        P("+pgs.drop")


@pytest.mark.parametrize("kind", [Plain, PosTest, NegTest])
@pytest.mark.parametrize("focus", ["cnt", "pgs"])
def test_instruction_refuses_reserved_focus(kind, focus):
    # built through the API, a cnt.inc would reach the counter that the
    # two-mode route composes with, and a pgs query the program service
    with pytest.raises(ReservedFocusError, match="reserved") as e:
        kind(Basic(focus, "inc"))
    # made outside any text, it has no line and column
    assert (e.value.line, e.value.col) == (0, 0)


def test_parse_errors_carry_position():
    with pytest.raises(ProgramSyntaxError) as e:
        P("f.a;; f.b")
    assert e.value.line == 1


_ERRORS = (
    ("f.a;", "expected an instruction, found 'end of input'", 1, 5),
    ("f.a; )", "expected an instruction, found ')'", 1, 6),
    ("f.a;; f.b", "expected an instruction, found ';'", 1, 5),
    ("f.a; #; !", "expected 'NAT', found ';'", 1, 7),
    ("(f.a); !", "expected '*', found ';'", 1, 6),
    ("(f.a)", "expected '*', found 'end of input'", 1, 6),
    ("(f.a; f.b", "expected ')', found 'end of input'", 1, 10),
    ("(f.a; (f.b)* // c", "expected ')', found 'end of input'", 1, 14),
    ("f.a f.b", "expected 'EOF', found 'f'", 1, 5),
    ("(f.a f.b)*", "expected ')', found 'f'", 1, 6),
    ("#f", "expected 'NAT', found 'f'", 1, 2),
    ("+.a", "expected 'IDENT', found '.'", 1, 2),
    ("f", "expected '.', found 'end of input'", 1, 2),
    ("+f g", "expected '.', found 'g'", 1, 4),
    ("f.(", "expected method name, found '('", 1, 3),
    ("f.a; #²", "jump offset '²' is not a decimal number", 1, 7),
    ("\n$", "unexpected character '$'", 2, 1),
    ("f.a;\n +cnt.inc", "focus 'cnt' is reserved", 2, 3),
    # end of input is placed where a comment on the last line begins
    ("f.a; // note", "expected an instruction, found 'end of input'", 1, 6),
    ("f.a; // note\n", "expected an instruction, found 'end of input'", 2, 1),
    ("f.a;\n// a\n  // b", "expected an instruction, found 'end of input'", 3, 3),
    ("f.a;\n// b", "expected an instruction, found 'end of input'", 2, 1),
    ("// only a note", "expected an instruction, found 'end of input'", 1, 1),
    # an unexpected character further on is reported first
    ("+; $", "unexpected character '$'", 1, 4),
    ("f.a; #x;\n f.b; $", "unexpected character '$'", 2, 7),
    # a piece may not close more stars than are open; the piece ` f.b)*` is
    # read once inside a star and again outside it
    ("f.a)*", "expected 'EOF', found ')'", 1, 4),
    ("(f.a)*)*", "expected 'EOF', found ')'", 1, 7),
    ("(f.a; f.b)*; f.b)*", "expected 'EOF', found ')'", 1, 17),
)


@pytest.mark.parametrize("text, message, line, col", _ERRORS)
def test_parse_errors_name_what_was_found_and_where(text, message, line, col):
    with pytest.raises(ProgramSyntaxError) as e:
        P(text)
    assert (str(e.value), e.value.line, e.value.col) == (message, line, col)


def test_a_piece_read_in_an_earlier_call_is_checked_again():
    # ` f.b)*` was read inside a star; the next call reads it where it now
    # stands
    P("(f.a; f.b)*")
    with pytest.raises(ProgramSyntaxError) as e:
        P("f.a; f.b)*")
    assert (str(e.value), e.value.line, e.value.col) == ("expected 'EOF', found ')'", 1, 9)


def test_names_may_start_with_an_underscore():
    assert P("_f.a; +g._b_") == seq(Plain(Basic("_f", "a")), PosTest(Basic("g", "_b_")))


def test_jump_overflow():
    with pytest.raises(JumpOverflowError):
        Jump(JUMP_LIMIT + 1)
    with pytest.raises(JumpOverflowError):
        P(f"#{JUMP_LIMIT + 1}")


def test_jump_offsets_are_decimal_numbers():
    assert P("#\u0661\u0662") == seq(Jump(12))
    assert P("#" + "0" * 5000 + "7") == seq(Jump(7))
    with pytest.raises(JumpOverflowError):
        P("#" + "9" * 5000)
    # every digit before the last 19 counts, not just the first
    for text in ("#1" + "0" * 20, "#01" + "0" * 19, "#9" + "0" * 19):
        with pytest.raises(JumpOverflowError):
            P(text)
    with pytest.raises(ProgramSyntaxError) as e:
        P("f.a;\n #\u00b2")
    assert (e.value.line, e.value.col) == (2, 3)


def test_parse_instruction_single():
    assert parse_instruction("#0") == Jump(0)
    with pytest.raises(ProgramSyntaxError):
        parse_instruction("f.a; f.b")


@given(programs(max_len=10, with_shift=True))
def test_print_parse_roundtrip(s):
    assert P(print_program(s)) == s


def test_print_parse_roundtrip_long_programs():
    # a 1,000-state chain with jumps expanded, and a 3,000-state deep spec
    rng = random.Random(2038)
    chain = chain_spec([rng.choice(BASICS) for _ in range(999)], STOP)
    long_programs = [corollary1_pipeline(chain), compile_spec(deep_spec(rng, 3000))]
    assert [len(p) for p in long_programs] == [4998, 9000]
    for p in long_programs:
        assert P(print_program(p)) == p


@given(programs(max_len=10, with_shift=True))
def test_canonical_idempotent(s):
    assert InstructionSequence(s.prefix, s.period) == s


@given(programs(max_len=8))
def test_equality_invariant_under_rotation(s):
    if not s.period:
        return
    rotated = InstructionSequence(s.prefix + s.period[:1], s.period[1:] + s.period[:1])
    assert s == rotated


def test_instruction_at_and_heads():
    s = P("f.a; (f.b; !)*")
    assert instruction_at(s, 0) == fa
    assert instruction_at(s, 1) == fb
    assert instruction_at(s, 2) == Halt()
    assert instruction_at(s, 3) == fb
    fin = P("f.a")
    assert instruction_at(fin, 5) is None
    # positions: the prefix as is, the period wrapped, and every index past
    # a finite end at the end position len(s)
    assert [position(s, i) for i in range(6)] == [0, 1, 2, 1, 2, 1]
    fin = P("f.a; f.b; !")
    assert [position(fin, i) for i in range(6)] == [0, 1, 2, 3, 3, 3]
    assert position(fin, 10**9) == len(fin)
    with pytest.raises(IndexError):
        position(s, -1)


# shift normalization
def test_shift_boosts_following_jump():
    assert normalize_shifts(P("~; #2; !")) == P("#3; !; #0")


def test_shift_vanishes_before_non_jump():
    assert normalize_shifts(P("~; f.a")) == P("f.a; #0")


def test_all_shift_period_becomes_zero_jump():
    assert normalize_shifts(P("(~)*")) == P("(#0)*")
    # the prefix's trailing shifts are already rolled into the period
    assert normalize_shifts(P("f.a; ~; ~; (~)*")) == P("f.a; (#0)*")


def test_trailing_shift_boosts_virtual_terminal():
    assert normalize_shifts(P("f.a; ~")) == P("f.a; #1")


def test_normalize_identity_on_shift_free():
    s = P("f.a; #2; !")
    assert normalize_shifts(s) == s


@given(programs(max_len=10, with_shift=True))
def test_normalize_removes_all_shifts(s):
    out = normalize_shifts(s)
    assert not contains_shift(out)


@given(programs(max_len=10, with_shift=True))
def test_normalize_idempotent(s):
    out = normalize_shifts(s)
    assert normalize_shifts(out) == out


def test_shift_runs_fold_together():
    assert normalize_shifts(P("~; ~; ~; #1; !")) == P("#4; !; #0")
    assert normalize_shifts(P("~; ~; f.a; ~; #0; !")) == P("f.a; #1; !; #0")


def test_periodic_trailing_shifts_rotate():
    # period ending in shifts wraps the boost around to its own head
    out = normalize_shifts(P("(#0; ~)*"))
    assert out == P("#0; (#1)*")
    assert normalize_shifts(P("(f.a; ~)*")) == P("(f.a)*")


# jump expansion
def test_transform_rejects_shifts():
    with pytest.raises(ShiftPresentError):
        transform_to_pgajs0(P("~; f.a"))


def test_transform_expands_jumps():
    assert transform_to_pgajs0(P("#2; f.a; !")) == P("~; ~; #0; f.a; !")
    assert transform_to_pgajs0(P("(+f.a; #2; #1)*")) == P("(+f.a; ~; ~; #0; ~; #0)*")
    # what x = <x> f.a <x> compiles to
    assert transform_to_pgajs0(P("(f.a; #2; #0)*")) == P("(f.a; ~; ~; #0; #0)*")


def test_transform_refuses_expansions_over_the_limit():
    # #l; ! expands to l + 2 instructions
    assert len(transform_to_pgajs0(P(f"#{EXPANSION_LIMIT - 2}; !"))) == EXPANSION_LIMIT
    with pytest.raises(JumpOverflowError):
        transform_to_pgajs0(P(f"#{EXPANSION_LIMIT - 1}; !"))
    with pytest.raises(JumpOverflowError):
        transform_to_pgajs0(P("(f.a; #9999999999)*"))
    # a jump that occurs twice counts twice
    with pytest.raises(JumpOverflowError):
        transform_to_pgajs0(P(f"#{EXPANSION_LIMIT // 2}; #{EXPANSION_LIMIT // 2}; !"))


def test_transform_leaves_zero_jumps():
    s = P("#0; !")
    assert transform_to_pgajs0(s) == s


@given(programs(max_len=10))
def test_transform_output_is_pgajs0(s):
    out = transform_to_pgajs0(s)
    assert is_pgajs0(out)
    assert all(not isinstance(u, Jump) or u.offset == 0 for u in out.prefix + out.period)


def test_is_pgajs0():
    assert is_pgajs0(P("~; #0; f.a"))
    assert not is_pgajs0(P("#1"))
    assert is_pgajs0(P("(f.a)*"))


def test_shift_constant():
    assert SHIFT == Shift()


_INSTRUCTIONS = [
    (Plain, (Basic("f", "a"),)),
    (PosTest, (Basic("f", "a.b"),)),
    (NegTest, (Basic("g", "1"),)),
    (Jump, (3,)),
    (Jump, (JUMP_LIMIT,)),
    (Halt, ()),
    (Shift, ()),
]


@pytest.mark.parametrize("kind, fields", _INSTRUCTIONS)
def test_equal_instructions_are_one_object(kind, fields):
    u = kind(*fields)
    assert kind(*fields) is u
    assert copy.copy(u) is u
    assert copy.deepcopy(u) is u
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(u, protocol)) is u
    assert parse_instruction(print_program(seq(u))) is u


def test_instructions_keep_fields_repr_and_immutability():
    assert repr(Jump(3)) == "Jump(offset=3)"
    assert repr(HALT) == "Halt()"
    assert repr(Plain(Basic("f", "a"))) == "Plain(basic=Basic(focus='f', method='a'))"
    u = PosTest(Basic("f", "a"))
    with pytest.raises(AttributeError):
        u.basic = Basic("f", "b")
    with pytest.raises(AttributeError):
        del Jump(3).offset
    assert u.basic == Basic("f", "a") and Jump(3).offset == 3
    with pytest.raises(TypeError):
        Plain()


def test_refused_instruction_is_not_stored():
    reserved = Basic("cnt", "inc")
    size = len(_INTERNED)
    for make in (lambda: Plain(reserved), lambda: NegTest(reserved),
                 lambda: Jump(-1), lambda: Jump(JUMP_LIMIT + 1)):
        for _ in range(2):  # refused again, not found
            with pytest.raises(ProgramError):
                make()
        assert len(_INTERNED) == size


@pytest.mark.parametrize("offset", [True, False, 2.0, "3", None])
def test_jump_offset_must_be_an_int(offset):
    # Jump(True) printed as `#True`, which does not parse back
    with pytest.raises(TypeError):
        Jump(offset)
    assert print_program(seq(Jump(1), HALT)) == "#1; !"
