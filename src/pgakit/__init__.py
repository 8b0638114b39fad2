"""Instruction-sequence algebra toolkit.

Parse and canonicalize instruction sequences, extract their finite-state
behaviour, compose threads with stateful services, run programs through a
program-independent execution mechanism, and compile threads back into
programs.
"""

from .threads import (
    Basic,
    DEADLOCK,
    DanglingStateError,
    Deadlock,
    Post,
    STOP,
    Stop,
    TAU,
    Tau,
    ThreadError,
    ThreadSpec,
    ThreadSyntaxError,
    abstract_tau,
    bisimilar,
    parse_thread,
    print_thread,
    relabel,
    to_dot,
    validate,
)
from .syntax import (
    HALT,
    Halt,
    InstructionSequence,
    Jump,
    JumpOverflowError,
    NegTest,
    Plain,
    PosTest,
    ProgramError,
    ProgramSyntaxError,
    ReservedFocusError,
    SHIFT,
    Shift,
    ShiftPresentError,
    instruction_at,
    is_pgajs0,
    normalize_shifts,
    parse_instruction,
    parse_program,
    print_program,
    to_canonical,
    transform_to_pgajs0,
)
from .extraction import extract, extract_pgajs, structurally_congruent
from .services import (
    Budget,
    BudgetExceededError,
    CounterService,
    Reply,
    Service,
    collapse_counter_divergence,
    compose,
    counter_new,
)
from .altsem import (
    NotPgajs0Error,
    behaviour_via_counter,
    extract_alt,
    verify_theorem2,
)
from .execmech import (
    Alphabet,
    AlphabetError,
    AlphabetMismatchError,
    PgsService,
    build_exec_mechanism,
    pgs_new,
    run_exec,
    theorem3_witness,
)
from .compiler import (
    CompileError,
    ReservedFocusActionError,
    TauPresentError,
    compile_spec,
    corollary1_pipeline,
)

__version__ = "0.1.0"
