import pytest
from hypothesis import given, settings

from pgakit import (
    HALT,
    Halt,
    InstructionSequence,
    Jump,
    Plain,
    ReservedFocusActionError,
    TauPresentError,
    abstract_tau,
    behaviour_via_counter,
    bisimilar,
    compile_spec,
    corollary1_pipeline,
    extract,
    extract_pgajs,
    is_pgajs0,
    parse_program,
    parse_thread,
    print_thread,
    theorem3_witness,
)
from pgakit import compiler, threads
from pgakit.cli import main
from pgakit.properties import PROPERTIES, draw_cases
from pgakit.threads import _breadth_first

from strategies import specs

P = parse_program
T = parse_thread


def test_stop_compiles_to_halt_loop():
    assert compile_spec(T("x = S")) == P("(!)*")


def test_deadlock_compiles_to_zero_jumps():
    out = compile_spec(T("x = D"))
    assert out == P("(#0; #0; #0)*") or out == P("(#0)*")


def test_single_state_loop():
    spec = T("x = <x> f.a <x>")
    assert compile_spec(spec) == P("(f.a; #2; #0)*")


def test_blocks_are_three_wide():
    spec = T("x = <y> f.a <x>\ny = S")
    out = compile_spec(spec)
    assert len(out.period) == 6 and not out.prefix
    assert out.period[3:] == (Halt(), Halt(), Halt())


def test_offsets_wrap_backwards():
    spec = T("x = <x> f.b <y>\ny = S")
    out = compile_spec(spec)
    # then-jump at index 1 goes back to block 0: a full lap minus one
    assert out.period[1] == Jump(5)
    assert out.period[2] == Jump(1)


def test_equal_branches_compile_as_a_plain_instruction():
    # y's block is a plain instruction; x's, whose branches differ, is not
    out = compile_spec(T("x = <y> f.a <x>\ny = <x> f.b <x>"))
    assert out == P("(+f.a; #2; #4; f.b; #2; #0)*")


def test_slot_three_of_a_plain_block_is_never_reached():
    # a plain instruction always goes on to the #d after it, and every jump
    # lands on the first slot of a block; a halt reached there would show
    specs = draw_cases(PROPERTIES["roundtrip"], 7, 200)
    specs += [theorem3_witness(n) for n in range(1, 7)]
    plain_blocks = 0
    for spec in specs:
        p = compile_spec(spec)
        units = list(p.period)
        for k in range(0, len(units), 3):
            if type(units[k]) is Plain:
                plain_blocks += 1
                units[k + 2] = HALT
        swapped = InstructionSequence(p.prefix, tuple(units))
        assert print_thread(extract(swapped)) == print_thread(extract(p)), print_thread(spec)
    # 72 in the corpus, 110 in the witnesses
    assert plain_blocks == 182


def test_compile_roundtrip_examples():
    for text in (
        "x = S",
        "x = D",
        "x = <x> f.a <x>",
        "x = <y> f.a <z>\ny = S\nz = D",
        "x = <y> f.b <x>\ny = <x> f.a <y>",
    ):
        spec = T(text)
        assert bisimilar(extract(compile_spec(spec)), spec), text


def test_compile_rejects_tau_by_default():
    spec = T("x = tau <y>\ny = S")
    with pytest.raises(TauPresentError):
        compile_spec(spec)


def test_compile_abstracts_tau_on_request():
    spec = T("x = tau <y>\ny = <z> f.a <z>\nz = S")
    out = compile_spec(abstract_tau(spec))
    assert bisimilar(extract(out), abstract_tau(spec))


def test_compile_walks_its_spec_once(monkeypatch):
    walked = []

    def counting(spec):
        walked.append(spec.root)
        return _breadth_first(spec)

    monkeypatch.setattr(threads, "_breadth_first", counting)
    monkeypatch.setattr(compiler, "_breadth_first", counting)
    text = "x = <y> f.a <z>\ny = tau <x>\nz = S"
    # abstract_tau prunes in one walk, compile_spec lays out its result in another
    compile_spec(abstract_tau(T(text)))
    assert len(walked) == 2
    walked.clear()
    assert main(["compile", "--abstract", text]) == 0
    assert len(walked) == 2
    walked.clear()
    compile_spec(T("x = <y> f.a <z>\ny = <x> f.b <x>\nz = S"))
    assert len(walked) == 1


def test_compile_rejects_reserved_foci():
    spec = T("x = <y> cnt.inc <y>\ny = S")
    with pytest.raises(ReservedFocusActionError):
        compile_spec(spec)
    spec2 = T("x = <y> pgs.drop <y>\ny = S")
    with pytest.raises(ReservedFocusActionError):
        compile_spec(spec2)


def test_pipeline_output_is_pgajs0():
    spec = T("x = <y> f.a <z>\ny = S\nz = D")
    out = corollary1_pipeline(spec)
    assert is_pgajs0(out)


def test_pipeline_roundtrip_both_ways():
    spec = T("s0 = <s0> f.b <s2>\ns2 = S")
    out = corollary1_pipeline(spec)
    assert bisimilar(extract_pgajs(out), spec)
    assert bisimilar(behaviour_via_counter(out), spec)


@given(specs(max_states=6))
@settings(max_examples=150, deadline=None)
def test_compile_roundtrip_property(spec):
    compiled = compile_spec(spec)
    assert bisimilar(extract(compiled), spec)


@given(specs(max_states=5))
@settings(max_examples=60, deadline=None)
def test_pipeline_roundtrip_property(spec):
    out = corollary1_pipeline(spec)
    assert bisimilar(extract_pgajs(out), spec)
    assert bisimilar(behaviour_via_counter(out), spec)
