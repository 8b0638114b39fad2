"""Small-scope gates: every small case, not only drawn ones.

Most faults show on small inputs, so each gate checks every case up to a
bound instead of a sample.  The parser's gate covers every canonical
program of up to four instructions over one basic, its tests, `#0`, `#1`,
`!` and `~`, over every prefix/period split: each prints and parses back
equal, once with `parse_program`'s piece table emptied before each
program and once with the table warm from all of them.
"""

from pgakit import parse_instruction, parse_program, print_program
from pgakit.syntax import _PIECES
from strategies import all_programs

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
