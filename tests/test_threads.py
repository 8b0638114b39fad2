import copy
import pickle
import re
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given

from pgakit import (
    Basic,
    DEADLOCK,
    DanglingStateError,
    Deadlock,
    Post,
    STOP,
    Stop,
    TAU,
    Tau,
    ThreadSpec,
    ThreadSyntaxError,
    abstract_tau,
    bisimilar,
    collapse_counter_divergence,
    compose,
    corollary1_pipeline,
    counter_new,
    extract_alt,
    extract_pgajs,
    parse_thread,
    print_thread,
    relabel,
    run_exec,
    theorem3_witness,
    to_dot,
    validate,
)
from pgakit.properties import PROPERTIES, draw_cases
from pgakit.threads import _NAMES_MAX, NAMES
from strategies import Branch, chain_spec, project, projections_agree, specs

a = Basic("f", "a")
b = Basic("f", "b")
T = parse_thread


def test_tau_merges_branches():
    assert str(TAU) == "tau"
    # a tau step cannot branch: both continuations are forced equal
    body = Post(TAU, "x", "y")
    assert body.else_ == "x"
    # any Tau value, not only the TAU object
    assert Post(Tau(), "x", "y") == body
    fin = Branch(TAU, Stop(), Deadlock())
    assert fin.else_ == Stop()


def test_basic_str():
    assert str(a) == "f.a" and f"{a}" == "f.a"
    # the dot splits differently: two actions that print alike
    assert str(Basic("f.a", "b")) == str(Basic("f", "a.b")) == "f.a.b"
    assert print_thread(T("x = <x> f.a.b <x>")) == "x = <x> f.a.b <x>"


def test_equal_basics_are_one_object():
    assert Basic("f", "a") is a
    assert copy.copy(a) is a
    assert copy.deepcopy(a) is a
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(a, protocol)) is a
    assert repr(a) == "Basic(focus='f', method='a')"
    with pytest.raises(AttributeError):
        a.focus = "g"
    with pytest.raises(AttributeError):
        del a.method
    assert a.focus == "f" and a.method == "a" and str(a) == "f.a"
    # the dot splits differently: two values that print alike
    assert Basic("f.a", "b") is not Basic("f", "a.b")
    assert len({Basic("f.a", "b"), Basic("f", "a.b")}) == 2
    spec = T("x = <y> f.a <y>\ny = <x> f.a <x>")
    assert spec.states["x"].action is spec.states["y"].action is a


def test_post_is_a_frozen_value():
    body = Post(a, "x", "y")
    assert body == Post(a, "x", "y") and hash(body) == hash(Post(a, "x", "y"))
    assert body != Post(a, "x", "x") and body != Post(b, "x", "y")
    assert hash(body) == hash((a, "x", "y"))  # the dataclass hash of its fields
    assert repr(body) == "Post(action=Basic(focus='f', method='a'), then='x', else_='y')"
    assert body != (a, "x", "y") and Post(TAU, "x", "x") != (TAU, "x", "x")
    for field in ("action", "then", "else_"):
        with pytest.raises(FrozenInstanceError):
            setattr(body, field, "z")
        with pytest.raises(FrozenInstanceError):
            delattr(body, field)
    assert body == Post(a, "x", "y") and not hasattr(body, "__dict__")
    with pytest.raises(TypeError):
        Post(a, "x")


def test_post_copies_and_pickles_to_an_equal_value():
    for body in (Post(a, "x", "y"), Post(TAU, "x", "y")):
        copies = [copy.copy(body), copy.deepcopy(body)]
        copies += [pickle.loads(pickle.dumps(body, protocol))
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for other in copies:
            assert other == body and repr(other) == repr(body)
            assert hash(other) == hash(body) and other.else_ == body.else_
            assert other.action is body.action or body.action == TAU


def test_validate_rejects_dangling():
    with pytest.raises(DanglingStateError):
        validate(ThreadSpec({"x": Post(a, "x", "nowhere")}, "x"))


def test_spec_refuses_dangling_target():
    with pytest.raises(DanglingStateError, match="undefined state 'nowhere'"):
        ThreadSpec({"x": Post(a, "x", "nowhere")}, "x")
    # the first dangling state is named
    states = {"x": Post(a, "x", "x"), "y": Post(a, "gone", "x"), "z": Post(b, "z", "lost")}
    with pytest.raises(DanglingStateError) as e:
        ThreadSpec(states, "x")
    assert str(e.value) == "state 'y' refers to undefined state 'gone'"


def test_spec_refuses_undefined_root():
    with pytest.raises(DanglingStateError, match="root state 'y'"):
        ThreadSpec({"x": STOP}, "y")


def test_validate_returns_a_reachable_spec_as_it_is():
    spec = ThreadSpec({"x": Post(a, "y", "x"), "y": STOP}, "x")
    assert validate(spec) is spec


def test_validate_prunes_unreachable():
    spec = validate(
        ThreadSpec({"x": STOP, "orphan": Post(a, "orphan", "orphan")}, "x")
    )
    assert set(spec.states) == {"x"}


def test_relabel_is_breadth_first():
    spec = validate(
        ThreadSpec({"r": Post(a, "s", "t"), "t": STOP, "s": DEADLOCK}, "r")
    )
    out = relabel(spec)
    assert out.root == "X0"
    assert out.states["X0"] == Post(a, "X1", "X2")
    assert out.states["X1"] == DEADLOCK
    assert out.states["X2"] == STOP
    # an unreachable state, not pruned beforehand, gets no name
    orphan = ThreadSpec({**spec.states, "o": Post(b, "r", "o")}, "r")
    assert relabel(orphan) == out


def test_built_threads_are_named_as_relabel_names_them():
    # extraction, the explorer and the service product name each state when
    # they first reach it, so renaming moves nothing
    witnesses = [corollary1_pipeline(theorem3_witness(n)) for n in range(1, 7)]
    for p in list(draw_cases(PROPERTIES["exec"], 2025, 500)) + witnesses:
        for t in (extract_pgajs(p), run_exec(p)):
            assert relabel(t) == t, print_thread(t)
    for p in draw_cases(PROPERTIES["counter"], 2025, 500):
        t = compose(collapse_counter_divergence(extract_alt(p)), "cnt", counter_new(0))
        assert relabel(t) == t, print_thread(t)


def _built(spec, focus="cnt"):
    """The threads that relabel, extraction, the service product with a
    counter on `focus` and the explorer build from spec."""
    p = corollary1_pipeline(spec)
    return relabel(spec), extract_pgajs(p), compose(spec, focus, counter_new(0)), run_exec(p)


def test_built_threads_name_a_state_and_its_targets_by_one_string():
    spec = T("x = <y> f.inc <y>\ny = <z> g.a <w>\nz = <w> f.dec <x>\n"
             "w = <x> f.isz <v>\nv = S")
    for t in _built(spec, "f"):
        assert len(t.states) > 4
        keys = {name: name for name in t.states}
        for body in t.states.values():
            if isinstance(body, Post):
                assert keys[body.then] is body.then and keys[body.else_] is body.else_


def test_built_threads_past_the_names_table_bound():
    # names past the table's bound are made anew each time, and not kept
    n = _NAMES_MAX + 10
    spec = chain_spec([a, b] * (n // 2), STOP)
    for t in _built(spec):
        assert list(t.states) == [f"X{i}" for i in range(n + 1)]
        assert relabel(t) == t and bisimilar(t, spec)
    assert len(NAMES) <= _NAMES_MAX


# finite projections
def test_projection_depth_zero_is_deadlock():
    spec = validate(ThreadSpec({"x": STOP}, "x"))
    assert project(spec, 0) == DEADLOCK


def test_projection_preserves_leaves():
    spec = validate(ThreadSpec({"x": STOP}, "x"))
    assert project(spec, 3) == STOP
    spec2 = validate(ThreadSpec({"x": DEADLOCK}, "x"))
    assert project(spec2, 3) == DEADLOCK


def test_projection_peels_one_level_per_step():
    spec = validate(
        ThreadSpec({"x": Post(a, "y", "y"), "y": Post(b, "z", "z"), "z": STOP}, "x")
    )
    two = project(spec, 2)
    # depth 2 sees a over b over deadlock leaves
    assert two == Branch(a, Branch(b, DEADLOCK, DEADLOCK), Branch(b, DEADLOCK, DEADLOCK))


def test_projection_tower():
    spec = validate(ThreadSpec({"x": Post(a, "x", "x")}, "x"))
    for n in range(4):
        deeper = project(spec, n + 1)
        assert project(spec, n) == _truncate(deeper, n)


def test_projection_ten_thousand_deep():
    spec = validate(ThreadSpec({"x": Post(a, "y", "x"), "y": Post(b, "x", "y")}, "x"))
    node = project(spec, 10_000)
    for i in range(10_000):
        assert node.action == (a, b)[i % 2]
        node = node.then
    assert node == DEADLOCK


def _truncate(ft, n):
    if n == 0:
        return DEADLOCK
    if not isinstance(ft, Branch):
        return ft
    return Branch(ft.action, _truncate(ft.then, n - 1), _truncate(ft.else_, n - 1))


def test_projections_agree_at_depth_ten_thousand():
    # the tails of 10,000-state chains first differ at the deepest level
    labels = [a, a, b] * 3333
    base = chain_spec(labels, STOP, "c")
    assert projections_agree(base, chain_spec(labels, STOP, "e"), 10**4)
    assert not projections_agree(base, chain_spec(labels, DEADLOCK, "d"), 10**4)
    assert projections_agree(base, chain_spec(labels, DEADLOCK, "d"), 10**4 - 1)


def test_unfolding_one_step_is_bisimilar():
    spec = validate(ThreadSpec({"x": Post(a, "x", "x")}, "x"))
    unfolded = validate(
        ThreadSpec({"x0": Post(a, "x", "x"), "x": Post(a, "x", "x")}, "x0")
    )
    assert bisimilar(spec, unfolded)


def test_bisimilar_distinguishes_actions():
    s1 = validate(ThreadSpec({"x": Post(a, "y", "y"), "y": STOP}, "x"))
    s2 = validate(ThreadSpec({"x": Post(b, "y", "y"), "y": STOP}, "x"))
    assert not bisimilar(s1, s2)


def test_bisimilar_distinguishes_leaves():
    s1 = validate(ThreadSpec({"x": STOP}, "x"))
    s2 = validate(ThreadSpec({"x": DEADLOCK}, "x"))
    assert not bisimilar(s1, s2)
    assert bisimilar(s1, s1)


def test_bisimilar_branch_sensitive():
    s1 = validate(ThreadSpec({"x": Post(a, "s", "d"), "s": STOP, "d": DEADLOCK}, "x"))
    s2 = validate(ThreadSpec({"x": Post(a, "d", "s"), "s": STOP, "d": DEADLOCK}, "x"))
    assert not bisimilar(s1, s2)


def test_bisimilar_takes_every_tau_value_as_one_action():
    # Tau() makes a new object, equal to TAU but not the same one
    s1 = ThreadSpec({"x": Post(Tau(), "y", "y"), "y": STOP}, "x")
    s2 = ThreadSpec({"x": Post(TAU, "y", "y"), "y": STOP}, "x")
    assert s1.states["x"].action is not TAU
    assert bisimilar(s1, s2)


@given(specs(max_states=6), specs(max_states=6))
def test_bisimilarity_agrees_with_bounded_projections(s1, s2):
    depth = len(s1.states) * len(s2.states) + 1
    assert bisimilar(s1, s2) == projections_agree(s1, s2, depth)


@given(specs(max_states=6))
def test_bisimilar_reflexive(s):
    assert bisimilar(s, s)
    assert bisimilar(s, relabel(s))


# tau abstraction
def test_abstract_stop_and_deadlock_fixed():
    assert bisimilar(abstract_tau(T("x = S")), T("x = S"))
    assert bisimilar(abstract_tau(T("x = D")), T("x = D"))


def test_abstract_drops_tau_prefix():
    spec = T("x = tau <y>\ny = <z> f.a <z>\nz = S")
    assert bisimilar(abstract_tau(spec), T("y = <z> f.a <z>\nz = S"))


def test_abstract_distributes_over_branches():
    spec = T("x = <p> f.a <q>\np = tau <s>\nq = tau <d>\ns = S\nd = D")
    assert bisimilar(abstract_tau(spec), T("x = <s> f.a <d>\ns = S\nd = D"))


def test_endless_tau_is_deadlock():
    assert bisimilar(abstract_tau(T("x = tau <x>")), T("d = D"))
    two = T("x = tau <y>\ny = tau <x>")
    assert bisimilar(abstract_tau(two), T("d = D"))


# text format
def test_parse_thread_roundtrip():
    spec = T("x = <y> f.a <z>\ny = S\nz = D")
    again = parse_thread(print_thread(spec))
    assert again.states == spec.states and again.root == spec.root


def test_parse_thread_first_line_is_root():
    spec = T("b = S\na = <b> f.a <b>")
    assert spec.root == "b"


def test_parse_thread_rejects_duplicates():
    with pytest.raises(ThreadSyntaxError):
        T("x = S\nx = D")


def test_parse_thread_rejects_garbage():
    with pytest.raises(ThreadSyntaxError):
        T("x = <y> f.a")
    # whitespace must part tau from its target, and an action from both
    for text in ("x = tau<x>", "x = <x>f.a <x>", "x = <x> f.a<x>"):
        with pytest.raises(ThreadSyntaxError, match="cannot parse body"):
            T(text)


_THREAD_ERRORS = (
    ("x = <x> 1.a <x>", "line 1: bad action '1.a'"),
    ("x = S\ny = <x> f.a", "line 2: cannot parse body '<x> f.a'"),
    ("x = S\n\n= S", "line 3: cannot parse '= S'"),
    ("x = S\nx = D", "line 2: duplicate state 'x'"),
    ("  \n# a comment\n", "no states defined"),
)


@pytest.mark.parametrize("text, message", _THREAD_ERRORS)
def test_parse_thread_says_what_is_wrong(text, message):
    with pytest.raises(ThreadSyntaxError) as e:
        T(text)
    assert str(e.value) == message


def test_parse_thread_skips_blank_lines_and_comments():
    spec = T("# head\n\n  x = <y> f.a <x>   # a note\n\t\ny = D\t#\n")
    assert print_thread(spec) == "x = <y> f.a <x>\ny = D"
    # no whitespace is needed around `=`
    assert T("x=<y> f.a <x>\ny=D") == spec


def test_parse_thread_dangling():
    with pytest.raises(DanglingStateError):
        T("x = <y> f.a <y>")


def test_parse_thread_method_tokens():
    spec = T("x = <y> pgs.hdeq:#0 <y>\ny = S")
    act = spec.states["x"].action
    assert act.focus == "pgs"
    assert act.method == "hdeq:#0"


def test_to_dot_mentions_all_states():
    spec = T("x = <y> f.a <w>\ny = S\nz = D\nw = tau <z>")
    dot = to_dot(spec)
    for name in ("x", "y", "z", "w"):
        assert f'"{name}"' in dot
    assert "doublecircle" in dot  # stop marker
    # a tau step is one edge
    assert dot.count("->") == 3 and '"w" -> "z" [label="tau"];' in dot


def test_to_dot_quotes_edge_labels():
    # an action may hold a quote or a backslash; every label stays one DOT string
    dot = to_dot(T('x = <x> f.a"b <y>\ny = <x> g.c\\d <y>'))
    assert '"x" -> "x" [label="f.a\\"b:+"];' in dot
    assert '"y" -> "y" [label="g.c\\\\d:-"];' in dot
    labels = re.findall(r"\[label=(.*)\];", dot)
    assert len(labels) == 4
    assert all(re.fullmatch(r'"(?:[^"\\]|\\.)*"', label) for label in labels), dot
