import pytest
from hypothesis import given, settings

from pgakit import (
    ShiftPresentError,
    bisimilar,
    extract,
    extract_pgajs,
    normalize_shifts,
    parse_program,
    parse_thread,
    structurally_congruent,
    transform_to_pgajs0,
)

from strategies import programs

P = parse_program
T = parse_thread


def test_halt_is_stop():
    assert bisimilar(extract(P("!")), T("x = S"))


def test_plain_action_then_continue():
    assert bisimilar(extract(P("f.a; !")), T("x = <y> f.a <y>\ny = S"))


def test_missing_termination_deadlocks():
    # running off the end of a finite sequence
    assert bisimilar(extract(P("f.a")), T("x = <y> f.a <y>\ny = D"))


def test_tests_branch():
    got = extract(P("+f.a; !; f.b"))
    want = T("x = <s> f.a <y>\ns = S\ny = <d> f.b <d>\nd = D")
    assert bisimilar(got, want)
    got2 = extract(P("-f.a; !; f.b"))
    want2 = T("x = <y> f.a <s>\ns = S\ny = <d> f.b <d>\nd = D")
    assert bisimilar(got2, want2)


def test_jump_walks_forward():
    assert bisimilar(extract(P("#2; !; f.a")), T("x = <d> f.a <d>\nd = D"))
    assert bisimilar(extract(P("#1; !")), T("x = S"))


def test_zero_jump_deadlocks():
    assert bisimilar(extract(P("#0; !")), T("d = D"))


def test_jump_past_end_deadlocks():
    assert bisimilar(extract(P("#5; !")), T("d = D"))


def test_cyclic_jump_chain_deadlocks():
    assert bisimilar(extract(P("(#1)*")), T("d = D"))
    assert bisimilar(extract(P("(#2; f.a; #2; f.b)*")), T("d = D"))


def test_jump_into_period_wraps():
    spec = extract(P("(f.a; #3)*"))
    assert bisimilar(spec, T("x = <x> f.a <x>"))
    # even offsets land on the jump itself one period later: endless chain
    assert bisimilar(extract(P("(f.a; #2)*")), T("x = <d> f.a <d>\nd = D"))


def test_periodic_test_loop():
    spec = extract(P("(+f.a; #2; #1)*"))
    assert bisimilar(spec, T("x = <x> f.a <x>"))


def test_extract_refuses_shifts():
    with pytest.raises(ShiftPresentError):
        extract(P("~; f.a"))


def test_extract_pgajs_normalizes_first():
    assert bisimilar(extract_pgajs(P("~; #0; !")), T("x = S"))
    assert bisimilar(extract_pgajs(P("f.a; ~")), extract(P("f.a; #1; #0")))
    assert bisimilar(extract_pgajs(P("(~)*")), T("d = D"))


@given(programs(max_len=12, with_shift=True))
def test_extract_pgajs_matches_normalized_extract(s):
    assert bisimilar(extract_pgajs(s), extract(normalize_shifts(s)))


@given(programs(max_len=12))
@settings(max_examples=200)
def test_jump_expansion_preserves_behaviour(s):
    assert bisimilar(extract(s), extract_pgajs(transform_to_pgajs0(s)))


def test_extract_state_count_bound():
    s = P("f.a; f.b; (+f.a; #2; #1)*")
    spec = extract(s)
    assert len(spec.states) <= 5 + 1  # one per position plus shared deadlock


# structural congruence: syntactic identity up to jump-target collapsing
def test_congruent_reflexive():
    s = P("(f.a; #2; f.b; #1)*")
    assert structurally_congruent(s, s)


def test_congruent_equal_jump_targets():
    # both jumps reach the same instruction through different offsets
    a = P("+f.a; #2; !; f.b")
    b = P("+f.a; #2; !; f.b")
    assert structurally_congruent(a, b)


def test_congruent_out_of_range_jumps():
    # all jumps past the end are one deadlock class
    assert structurally_congruent(P("f.a; #5"), P("f.a; #9"))


def test_not_congruent_different_actions():
    assert not structurally_congruent(P("f.a; !"), P("f.b; !"))


def test_congruence_refuses_shifts():
    for a, b in ((P("~; #0"), P("#1")), (P("#1"), P("(f.a; ~)*"))):
        with pytest.raises(ShiftPresentError):
            structurally_congruent(a, b)


def test_congruence_is_finer_than_bisimilarity():
    # same behaviour, different shape: bisimilar but not congruent
    a = P("#1; f.a; !")
    b = P("f.a; !")
    assert bisimilar(extract(a), extract(b))
    assert not structurally_congruent(a, b)


@given(programs(max_len=10))
def test_congruent_implies_bisimilar(s):
    t = transform_to_pgajs0(s)
    u = normalize_shifts(t)
    if structurally_congruent(s, u):
        assert bisimilar(extract(s), extract(u))
