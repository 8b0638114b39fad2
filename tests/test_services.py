import pytest
from hypothesis import given
from hypothesis import strategies as st

from pgakit import (
    Basic,
    Budget,
    BudgetExceededError,
    CounterService,
    DEADLOCK,
    Post,
    Reply,
    STOP,
    TAU,
    ThreadSpec,
    abstract_tau,
    bisimilar,
    collapse_counter_divergence,
    compose,
    counter_new,
    parse_thread,
    validate,
)

from strategies import specs

T = parse_thread
clr = Basic("cnt", "clr")
inc = Basic("cnt", "inc")
dec = Basic("cnt", "dec")
isz = Basic("cnt", "isz")
fa = Basic("f", "a")


# counter reply/effect table
@pytest.mark.parametrize(
    "start,method,content,reply",
    [
        (0, "clr", 0, Reply.TRUE),
        (7, "clr", 0, Reply.TRUE),
        (0, "inc", 1, Reply.TRUE),
        (3, "inc", 4, Reply.TRUE),
        (0, "dec", 0, Reply.FALSE),
        (4, "dec", 3, Reply.TRUE),
        (0, "isz", 0, Reply.TRUE),
        (1, "isz", 1, Reply.FALSE),
        (2, "isz", 2, Reply.FALSE),
    ],
)
def test_counter_table(start, method, content, reply):
    nxt, got = counter_new(start).apply(method)
    assert got == reply
    assert nxt.content == content


def test_counter_unknown_method_wedges():
    bad, reply = counter_new(0).apply("frob")
    assert reply == Reply.BLOCKED
    assert bad.content is None
    # once wedged, always wedged
    worse, reply2 = bad.apply("inc")
    assert reply2 == Reply.BLOCKED and worse.content is None


def test_counter_new_rejects_negative():
    with pytest.raises(ValueError):
        counter_new(-1)


def test_counter_keys_distinct():
    assert counter_new(0).key() != counter_new(1).key()
    assert CounterService(None).key() == "cnt:undef"


@given(st.integers(0, 30), st.lists(st.sampled_from(["clr", "inc", "dec", "isz"]), max_size=20))
def test_counter_content_tracks_history(start, methods):
    svc = counter_new(start)
    model = start
    for m in methods:
        svc, reply = svc.apply(m)
        if m == "clr":
            model = 0
        elif m == "inc":
            model += 1
        elif m == "dec" and model > 0:
            model -= 1
        assert svc.content == model


# composition
def test_compose_stop_fixed():
    spec = T("x = S")
    assert bisimilar(compose(spec, "cnt", counter_new(0)), spec)


def test_compose_deadlock_fixed():
    spec = T("x = D")
    assert bisimilar(compose(spec, "cnt", counter_new(0)), spec)


def test_compose_tau_passes_through():
    spec = T("x = tau <y>\ny = S")
    got = compose(spec, "cnt", counter_new(0))
    assert bisimilar(got, spec)


def test_compose_foreign_focus_passes_through():
    spec = T("x = <s> g.m <d>\ns = S\nd = D")
    got = compose(spec, "cnt", counter_new(0))
    assert bisimilar(got, spec)


def test_compose_true_reply_selects_then():
    spec = validate(ThreadSpec({"x": Post(isz, "s", "d"), "s": STOP, "d": DEADLOCK}, "x"))
    got = abstract_tau(compose(spec, "cnt", counter_new(0)))
    assert bisimilar(got, T("x = S"))


def test_compose_false_reply_selects_else():
    spec = validate(ThreadSpec({"x": Post(isz, "s", "d"), "s": STOP, "d": DEADLOCK}, "x"))
    got = abstract_tau(compose(spec, "cnt", counter_new(2)))
    assert bisimilar(got, T("x = D"))


def test_compose_blocked_reply_deadlocks():
    spec = validate(ThreadSpec({"x": Post(Basic("cnt", "foo"), "s", "s"), "s": STOP}, "x"))
    got = compose(spec, "cnt", counter_new(0))
    assert bisimilar(got, T("d = D"))


def test_compose_keeps_tau_steps():
    # hiding is a separate pass: the product still shows the tau transitions
    spec = validate(ThreadSpec({"x": Post(clr, "s", "s"), "s": STOP}, "x"))
    got = compose(spec, "cnt", counter_new(3))
    assert any(
        isinstance(b, Post) and b.action == TAU for b in got.states.values()
    )
    assert bisimilar(abstract_tau(got), T("x = S"))


def test_compose_threads_state_through_service():
    spec = T(
        "x = <y> cnt.inc <y>\n"
        "y = <z> cnt.isz <w>\n"
        "z = S\n"
        "w = <v> f.a <v>\n"
        "v = S"
    )
    got = abstract_tau(compose(spec, "cnt", counter_new(0)))
    # inc makes the counter nonzero, so isz answers False
    assert bisimilar(got, T("w = <v> f.a <v>\nv = S"))


def test_compose_dec_at_zero_continues_on_else():
    spec = T("x = <y> cnt.dec <z>\ny = S\nz = D")
    got = abstract_tau(compose(spec, "cnt", counter_new(0)))
    assert bisimilar(got, T("z = D"))


@given(specs(max_states=5))
def test_compose_without_matching_focus_is_identity(s):
    # strategy only emits focus f, so a cnt composition never fires
    got = compose(s, "cnt", counter_new(0))
    assert bisimilar(got, s)


@given(specs(max_states=5))
def test_compose_order_commutes_for_disjoint_foci(s):
    ab = compose(compose(s, "cnt", counter_new(0)), "pgs_like", counter_new(1))
    ba = compose(compose(s, "pgs_like", counter_new(1)), "cnt", counter_new(0))
    assert bisimilar(abstract_tau(ab), abstract_tau(ba))


def test_budget_exceeded():
    spec = validate(
        ThreadSpec({"x": Post(inc, "x", "x")}, "x")
    )
    with pytest.raises(BudgetExceededError):
        compose(spec, "cnt", counter_new(0), Budget(max_states=10))


def test_budget_admits_exactly_its_states():
    # from 3 the counter counts down through x and y, then leaves for z
    spec = T("x = <y> cnt.dec <z>\ny = <x> f.a <x>\nz = S")
    got = compose(spec, "cnt", counter_new(3), Budget(8))
    assert len(got.states) == 8
    with pytest.raises(BudgetExceededError):
        compose(spec, "cnt", counter_new(3), Budget(7))


def test_budget_validation():
    with pytest.raises(ValueError):
        Budget(max_states=0)


# divergence pre-pass
def test_collapse_pure_inc_cycle():
    spec = validate(ThreadSpec({"x": Post(inc, "x", "x")}, "x"))
    got = collapse_counter_divergence(spec)
    assert bisimilar(got, T("d = D"))


def test_collapse_tau_inc_cycle():
    spec = validate(
        ThreadSpec({"x": Post(TAU, "y", "y"), "y": Post(inc, "x", "x")}, "x")
    )
    got = collapse_counter_divergence(spec)
    assert bisimilar(got, T("d = D"))


def test_collapse_leaves_escaping_paths():
    spec = validate(
        ThreadSpec(
            {"x": Post(inc, "y", "y"), "y": Post(fa, "x", "x")},
            "x",
        )
    )
    got = collapse_counter_divergence(spec)
    assert bisimilar(got, spec)


def test_collapse_ignores_dec_cycles():
    # dec is observable progress through the counter, not divergence
    spec = validate(ThreadSpec({"x": Post(dec, "x", "x")}, "x"))
    got = collapse_counter_divergence(spec)
    assert bisimilar(got, spec)
