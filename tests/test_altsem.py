import pytest
from hypothesis import given, settings

from pgakit import (
    Basic,
    NotPgajs0Error,
    Post,
    STOP,
    behaviour_via_counter,
    bisimilar,
    extract_alt,
    extract_pgajs,
    parse_program,
    parse_thread,
    print_thread,
    verify_theorem2,
)
from strategies import counter_peak, programs

P = parse_program
T = parse_thread


def test_rejects_positive_jumps():
    with pytest.raises(NotPgajs0Error):
        extract_alt(P("#2; !"))
    with pytest.raises(NotPgajs0Error):
        behaviour_via_counter(P("#1"))


def test_halt_state():
    spec = extract_alt(P("!"))
    assert spec.states[spec.root] == STOP


def test_plain_gets_clear_prefix():
    spec = extract_alt(P("f.a; !"))
    body = spec.states[spec.root]
    assert isinstance(body, Post)
    assert body.action == Basic("cnt", "clr")
    nxt = spec.states[body.then]
    assert nxt.action == Basic("f", "a")


# The two-mode equations of every instruction kind, in a period so that
# each position has both readings: g{i} performs the instruction at i, s{i}
# counts down to the pending landing site.
_EVERY_KIND = """g0 = <g0a> cnt.clr <g0a>
g0a = <g1> f.a <g1>
s0 = <s0a> cnt.dec <s0a>
s0a = <g0> cnt.isz <s1>
g1 = <g1a> cnt.clr <g1a>
g1a = <g2> f.b <g1b>
g1b = <g1c> cnt.inc <g1c>
g1c = <s2> cnt.inc <s2>
s1 = <s1a> cnt.dec <s1a>
s1a = <g1> cnt.isz <s2>
g2 = <g2a> cnt.clr <g2a>
g2a = <g2b> f.a <g3>
g2b = <g2c> cnt.inc <g2c>
g2c = <s3> cnt.inc <s3>
s2 = <s2a> cnt.dec <s2a>
s2a = <g2> cnt.isz <s3>
g3 = <g4> cnt.inc <g4>
s3 = <s3a> cnt.dec <s3a>
s3a = <g3> cnt.isz <s3b>
s3b = <s4> cnt.inc <s4>
g4 = <dd> cnt.isz <s5>
s4 = <s4a> cnt.dec <s4a>
s4a = <g4> cnt.isz <s5>
g5 = S
s5 = <s5a> cnt.dec <s5a>
s5a = <g5> cnt.isz <s0>
dd = D"""


def test_two_mode_equations_of_every_kind():
    assert print_thread(extract_alt(P("(f.a; +f.b; -f.a; ~; #0; !)*"))) == _EVERY_KIND


def test_state_count_linear_in_positions():
    # at most a constant chain per position, two modes, one shared deadlock
    s = P("+f.a; ~; #0; f.b; !")
    spec = extract_alt(s)
    positions = 5 + 1  # plus the virtual terminal
    assert len(spec.states) <= 7 * positions + 1


def test_behaviour_examples():
    assert bisimilar(behaviour_via_counter(P("f.a; !")), T("x = <y> f.a <y>\ny = S"))
    assert bisimilar(behaviour_via_counter(P("#0; !")), T("d = D"))
    assert bisimilar(behaviour_via_counter(P("(~)*")), T("d = D"))
    assert bisimilar(behaviour_via_counter(P("~; #0; !")), T("x = S"))


def test_verify_examples():
    for txt in ("f.a; !", "~; #0; !", "(+f.a; ~; #0; !)*", "!", "#0", "~",
                "f.a; ~", "+f.a; ~; f.b", "(f.a)*"):
        assert verify_theorem2(P(txt)), txt


def test_skip_landing_on_shift_reenters_guarded_mode():
    # failed test lands exactly on the shift; the shift run must then boost
    # the following zero jump rather than deadlock on it
    p = P("+f.a; f.b; ~; #0; f.b")
    want = extract_pgajs(p)
    assert bisimilar(behaviour_via_counter(p), want)
    assert verify_theorem2(p)


def test_skip_flies_over_shift_runs_for_free():
    # landing past a run: the run itself must not consume the countdown
    p = P("(+f.b; ~; ~; ~; ~; ~; #0; ~; #0; !; !; !)*")
    assert bisimilar(extract_pgajs(p), T("x = <x> f.b <s>\ns = S"))
    assert verify_theorem2(p)


def test_skip_chain_through_consecutive_jumps():
    assert verify_theorem2(P("-f.b; ~; #0; f.a; #0; ~; !"))
    assert verify_theorem2(P("+f.b; +f.b; !; ~; #0; f.b; f.b; !; +f.a; #0; !"))


@given(programs(max_len=12, with_shift=True, only_zero_jump=True))
@settings(max_examples=300, deadline=None)
def test_counter_driven_extraction_matches_direct(s):
    assert verify_theorem2(s)


def test_counter_peak_is_the_largest_content():
    # each shift of a run adds one; a failed test adds two
    assert counter_peak(P("~; ~; ~; #0; !")) == 3
    assert counter_peak(P("+f.a; f.b; !")) == 2
    assert counter_peak(P("f.a; !")) == 0


def test_counter_stays_small():
    s = P("(+f.b; ~; ~; ~; ~; ~; #0; ~; #0; !; !; !)*")
    total = len(s.prefix) + len(s.period)
    assert counter_peak(s) <= total + 2


@given(programs(max_len=10, with_shift=True, only_zero_jump=True))
@settings(max_examples=150, deadline=None)
def test_counter_bound_holds_generally(s):
    total = len(s.prefix) + len(s.period)
    assert counter_peak(s) <= total + 2
