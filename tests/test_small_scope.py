"""Small-scope gates: every small case, not only drawn ones.

Most faults show on small inputs, so each gate checks every case up to a
bound instead of a sample, over one basic and every prefix/period split.
The parser's gate covers every canonical program of up to four
instructions over the basic, its tests, `#0`, `#1`, `!` and `~`: each
prints and parses back equal, once with `parse_program`'s piece table
emptied before each program and once with the table warm from all of
them.  The transform gate covers every program of up to three
instructions with jumps of up to 3, where `extract` also equals the
per-jump oracle; the exec gate, every program of up to four instructions
with zero jumps and shifts.
"""

from pgakit import extract, parse_instruction, parse_program, print_program, print_thread
from pgakit.properties import PROPERTIES
from pgakit.syntax import _PIECES
from strategies import all_programs
from test_oracles import _old_extract

SMALL_UNITS = tuple(map(parse_instruction, "f.a +f.a -f.a #0 #1 ! ~".split()))


def test_every_small_program_prints_and_parses_back():
    programs = all_programs(SMALL_UNITS, 4)
    assert len(programs) == 11_963
    for p in programs:
        _PIECES.clear()
        assert parse_program(print_program(p)) == p, p
    # the second time round, the table holds every program's pieces
    for p in programs * 2:
        assert parse_program(print_program(p)) == p, p


def test_transform_holds_on_every_small_program():
    units = tuple(map(parse_instruction, "f.a +f.a -f.a #0 #1 #2 #3 !".split()))
    programs = all_programs(units, 3)
    assert len(programs) == 2_048
    for p in programs:
        got, want = extract(p), _old_extract(p)
        assert got == want and print_thread(got) == print_thread(want), p
        assert PROPERTIES["transform"].check(p), p


def test_exec_holds_on_every_small_program():
    units = tuple(map(parse_instruction, "f.a +f.a -f.a #0 ! ~".split()))
    programs = all_programs(units, 4)
    assert len(programs) == 6_450
    for p in programs:
        assert PROPERTIES["exec"].check(p), p
