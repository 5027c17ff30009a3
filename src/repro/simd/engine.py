"""Trace-compiling execution engine for the SIMD processor.

The cycle-level interpreter (:meth:`repro.simd.processor.SimdProcessor.run`)
dispatches one instruction per Python loop iteration, which makes it the
dominant wall-clock cost of the system-level experiments (Fig. 4, Table II).
This module removes that cost without giving up bit-exactness:

* the program is decomposed into **basic blocks** and scanned for innermost
  **affine loops** -- a region ``[header, branch]`` whose only scalar side
  effect is a single self-incrementing ``ADDI`` induction register and whose
  closing ``BLT``/``BNE`` compares that register against a loop-invariant one;
* because the ISA has no vector-to-scalar transfers, scalar control flow is
  data independent, so the trip count of such a loop is a closed form of the
  registers at loop entry;
* each straight-line **vector trace** (the loop body) is compiled once, with
  the analysis, into a :class:`TracePlan`: every scalar operand a body
  instruction reads (``VLOAD``/``VSTORE`` addresses, ``VBCAST`` values) is an
  affine sequence ``register + offset + stride * t`` over the iterations
  ``t``, and every vector value is one *slot* of a ``(lanes, slots,
  iterations)`` bank;
* a run evaluates all those sequences in one numpy expression, fills every
  ``VLOAD`` slot with **one** gather from the memory banks, and turns each run
  of ``VMAC`` instructions between accumulator events (``VCLR``/``VSTACC``)
  into one stacked multiply, one zero-product count (the guard count) and one
  sum -- packed-subword modes (parallelism > 1) included.

Memory contents, event counters, opcode histograms, register-file access
counts and the returned :class:`~repro.simd.processor.ExecutionResult` are
bit-identical to the interpreter.  A loop (or loop entry state) the engine
cannot prove safe falls back to the interpreter's dispatch loop for the rest
of the run, so the engine accepts every program the interpreter accepts:

* statically -- extra scalar writes, nested branches, loop-carried vector
  registers, a ``VSTACC`` whose carry chain a later ``VMAC`` extends;
* at entry -- no finite trip count, the cycle watchdog, induction wrap-around
  in the 32-bit register file, more than :data:`MAX_TRACE_ELEMENTS` values, an
  address outside the banks, or a store whose address set meets another
  store's or a load's.  Address sets are arithmetic progressions with one
  common stride, so range and aliasing are decided in closed form from their
  first addresses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .isa import (
    Instruction,
    Opcode,
    Program,
    SCALAR_OPCODES,
    VECTOR_ALU_OPCODES,
)
from .processor import (
    ExecutionCounters,
    ExecutionError,
    ExecutionResult,
    SimdProcessor,
    _element_range,
)
from .register_file import _wrap_array, saturate_to_element_range

#: Upper bound on the transient allocation of one vectorised trace, in
#: int64 elements across *all* live value arrays (``iterations x lanes x
#: vector instructions``, ~128 MB); larger loops fall back to the
#: interpreter, which runs in constant memory.
MAX_TRACE_ELEMENTS = 1 << 24

#: Signed 32-bit range of the scalar register file; induction sequences that
#: would wrap are left to the interpreter.
_SCALAR_LO, _SCALAR_HI = -(1 << 31), (1 << 31) - 1

#: Scalar-register-file and vector-register-file accesses the interpreter
#: performs per opcode, as (scalar reads, scalar writes, vector reads,
#: vector writes).  Used to reproduce the register-file access counters in
#: closed form.
_REGISTER_ACCESSES: dict[Opcode, tuple[int, int, int, int]] = {
    Opcode.LI: (0, 1, 0, 0),
    Opcode.ADD: (2, 1, 0, 0),
    Opcode.ADDI: (1, 1, 0, 0),
    Opcode.SUB: (2, 1, 0, 0),
    Opcode.MUL: (2, 1, 0, 0),
    Opcode.BNE: (2, 0, 0, 0),
    Opcode.BLT: (2, 0, 0, 0),
    Opcode.JMP: (0, 0, 0, 0),
    Opcode.NOP: (0, 0, 0, 0),
    Opcode.HALT: (0, 0, 0, 0),
    Opcode.SETPREC: (0, 0, 0, 0),
    Opcode.VLOAD: (1, 0, 0, 1),
    Opcode.VSTORE: (1, 0, 1, 0),
    Opcode.VBCAST: (1, 0, 0, 1),
    Opcode.VMAC: (0, 0, 2, 0),
    Opcode.VMUL: (0, 0, 2, 1),
    Opcode.VADD: (0, 0, 2, 1),
    Opcode.VRELU: (0, 0, 1, 1),
    Opcode.VCLR: (0, 0, 0, 0),
    Opcode.VSTACC: (0, 0, 0, 1),
}

#: Vector registers read / written per opcode (operand indices).
_VECTOR_READS: dict[Opcode, tuple[int, ...]] = {
    Opcode.VSTORE: (0,),
    Opcode.VMAC: (0, 1),
    Opcode.VMUL: (1, 2),
    Opcode.VADD: (1, 2),
    Opcode.VRELU: (1,),
}
_VECTOR_WRITES: dict[Opcode, tuple[int, ...]] = {
    Opcode.VLOAD: (0,),
    Opcode.VBCAST: (0,),
    Opcode.VMUL: (0,),
    Opcode.VADD: (0,),
    Opcode.VRELU: (0,),
    Opcode.VSTACC: (0,),
}

#: Opcodes that may not appear inside a vectorisable loop body (any other
#: control transfer, precision change, or halt makes the body non-straight).
_BODY_FORBIDDEN = {Opcode.JMP, Opcode.HALT, Opcode.SETPREC, Opcode.BNE, Opcode.BLT}

#: Scalar-register-writing opcodes.
_SCALAR_WRITERS = {Opcode.LI, Opcode.ADD, Opcode.ADDI, Opcode.SUB, Opcode.MUL}

#: The two-operand element-wise vector opcodes as numpy ufuncs.
_ELEMENTWISE = {Opcode.VMUL: np.multiply, Opcode.VADD: np.add}


@dataclass
class BasicBlock:
    """A maximal straight-line instruction run ``[start, end]`` (inclusive)."""

    start: int
    end: int


@dataclass(frozen=True, eq=False)
class TracePlan:
    """A loop body compiled to a few whole-trace numpy operations.

    Scalar operands are rows of one affine table, evaluated per run as
    ``registers[row_registers] + row_offsets + row_strides * t``.  The rows
    are laid out ``[VBCAST operands | bank rows | stores]``: bank row ``k``
    gathers slot ``k`` of the value bank, so the ``loads`` VLOAD slots come
    first and every later slot (an entry register or a computed value)
    gathers address 0 as a placeholder that is overwritten before any read.

    Attributes
    ----------
    row_registers, row_offsets, row_strides:
        The affine table; a stride is the induction step for rows based on
        the induction register (offsets already hold the step for reads
        after its update) and 0 for loop-invariant bases.
    broadcasts:
        Number of leading ``VBCAST`` rows.
    loads, slots:
        VLOAD slots and all slots of the value bank.
    entries:
        ``(slot, register)``: vector registers the body reads but never
        writes, i.e. their loop-entry values.
    steps:
        The vector instructions in body order, loads and stores aside:
        ``(VMAC, [a_0..a_m, b_0..b_m], m)`` for one run of ``m`` VMACs,
        ``(VCLR,)``, ``(VSTACC, slot, carry-in)``, ``(VBCAST, slot, row)``
        and ``(VMUL | VADD | VRELU, slot, *source slots)``.
    stores:
        ``(slot, strided)`` per ``VSTORE``, in the order of the store rows.
    accesses:
        ``(row, strided)`` per memory access, loads then stores; a strided
        access walks with the induction, the others stay at one address.
    writeback:
        ``(register, slot)``: the final value of every register the body
        writes.
    has_vclr:
        Whether the body clears the accumulators.
    """

    row_registers: np.ndarray
    row_offsets: np.ndarray
    row_strides: np.ndarray
    broadcasts: int
    loads: int
    slots: int
    entries: tuple[tuple[int, int], ...]
    steps: tuple[tuple, ...]
    stores: tuple[tuple[int, bool], ...]
    accesses: tuple[tuple[int, bool], ...]
    writeback: tuple[tuple[int, int], ...]
    has_vclr: bool


@dataclass(frozen=True)
class LoopTrace:
    """One analyzable affine loop: a straight-line vector trace plus its
    induction structure and the per-execution counter deltas.

    Attributes
    ----------
    start, end:
        Program-counter range of the loop (``end`` is the closing branch).
    body:
        ``program[start .. end]`` including the branch.
    induction:
        Scalar register advanced by the single ``ADDI rd, rd, step``.
    step:
        Induction increment per iteration (non-zero).
    compare:
        The closing branch opcode (``BLT`` or ``BNE``).
    induction_first:
        Whether the induction register is the branch's first operand.
    bound:
        The loop-invariant register the induction is compared against.
    plan:
        The body compiled for whole-trace execution.
    """

    start: int
    end: int
    body: tuple[Instruction, ...]
    induction: int
    step: int
    compare: Opcode
    induction_first: bool
    bound: int
    # Static per-execution counter deltas (each body instruction runs once
    # per iteration).
    opcode_counts: dict[str, int] = field(default_factory=dict)
    scalar_operations: int = 0
    vector_alu_instructions: int = 0
    load_positions: tuple[int, ...] = ()
    store_positions: tuple[int, ...] = ()
    register_accesses: tuple[int, int, int, int] = (0, 0, 0, 0)
    plan: TracePlan | None = field(default=None, compare=False, repr=False)


def basic_blocks(program: Program) -> list[BasicBlock]:
    """Decompose ``program`` into basic blocks.

    Leaders are the entry point, every branch target, and every instruction
    following a control transfer; blocks run from one leader to the next (or
    to a control-transfer instruction, which terminates its block).
    """
    if len(program) == 0:
        return []
    leaders = {0}
    for address, instruction in enumerate(program.instructions):
        opcode = instruction.opcode
        if opcode in (Opcode.BNE, Opcode.BLT):
            leaders.add(instruction.operands[2])
            leaders.add(address + 1)
        elif opcode is Opcode.JMP:
            leaders.add(instruction.operands[0])
            leaders.add(address + 1)
        elif opcode is Opcode.HALT:
            leaders.add(address + 1)
    ordered = sorted(leader for leader in leaders if leader < len(program))
    blocks = []
    for index, start in enumerate(ordered):
        end = (ordered[index + 1] if index + 1 < len(ordered) else len(program)) - 1
        blocks.append(BasicBlock(start, end))
    return blocks


def analyze_program(program: Program) -> dict[int, LoopTrace]:
    """Find every vectorisable affine loop; maps header pc -> trace.

    Works over the basic-block decomposition: every control transfer ends a
    block, so a candidate loop is a block whose closing conditional branch
    targets a leader at or before it; the region from that leader to the
    branch is then validated as a straight-line affine trace and compiled.

    The analysis depends only on the (frozen) instructions, so it is
    memoised per process on them; execution never mutates a trace, so
    reruns of one program share its traces and plans.
    """
    return dict(_program_traces(program))


#: Traces by the identity of a program's instruction objects, in front of the
#: equality memo: a seed sweep reruns the same assembled instructions, and a
#: tuple of their ids hashes in C, where hashing the instructions themselves
#: calls two Python ``__hash__`` methods per instruction.  Each entry keeps
#: its instructions alive, so no live object can reuse one of its ids.  It
#: starts over when full (one atomic ``clear``, safe under threads).
_TRACES_BY_IDENTITY: dict[tuple[int, ...], tuple[tuple[Instruction, ...], dict[int, LoopTrace]]] = {}
_IDENTITY_ENTRIES = 64


def _program_traces(program: Program) -> dict[int, LoopTrace]:
    """The memoised trace map of ``program`` (shared: callers must not mutate it)."""
    key = tuple(map(id, program.instructions))
    hit = _TRACES_BY_IDENTITY.get(key)
    if hit is None:
        instructions = tuple(program.instructions)
        if len(_TRACES_BY_IDENTITY) >= _IDENTITY_ENTRIES:
            _TRACES_BY_IDENTITY.clear()
        hit = _TRACES_BY_IDENTITY[key] = (instructions, _analyze_instructions(instructions))
    return hit[1]


@lru_cache(maxsize=64)
def _analyze_instructions(instructions: tuple[Instruction, ...]) -> dict[int, LoopTrace]:
    """Memoised body of :func:`analyze_program` (callers get a copy)."""
    program = Program(instructions=list(instructions))
    traces: dict[int, LoopTrace] = {}
    for block in basic_blocks(program):
        instruction = program[block.end]
        if instruction.opcode not in (Opcode.BNE, Opcode.BLT):
            continue
        start = instruction.operands[2]
        if start > block.end:  # forward branch: not a loop
            continue
        trace = _analyze_loop(program, start, block.end)
        if trace is not None:
            traces[start] = trace
    return traces


def _analyze_loop(program: Program, start: int, end: int) -> LoopTrace | None:
    """Validate the candidate loop ``[start, end]``; None if not analyzable."""
    body = tuple(program.instructions[start : end + 1])
    branch = body[-1]

    # -- scalar structure: exactly one self-incrementing ADDI ----------------
    induction: int | None = None
    update_position = -1
    for position, instr in enumerate(body[:-1]):
        opcode = instr.opcode
        if opcode in _BODY_FORBIDDEN:
            return None
        if opcode in _SCALAR_WRITERS:
            destination = instr.operands[0]
            if destination == 0:
                continue  # writes to r0 are architectural no-ops
            if (
                opcode is Opcode.ADDI
                and instr.operands[1] == destination
                and induction is None
            ):
                induction = destination
                update_position = position
                continue
            return None
    if induction is None:
        return None
    step = body[update_position].operands[2]
    if step == 0:
        return None

    # -- closing branch: induction vs loop-invariant register ----------------
    first, second = branch.operands[0], branch.operands[1]
    if first == induction and second != induction:
        induction_first, bound = True, second
    elif second == induction and first != induction:
        induction_first, bound = False, first
    else:
        return None

    # -- vector dataflow: no loop-carried vector-register reads --------------
    written_anywhere = set()
    for instr in body[:-1]:
        for index in _VECTOR_WRITES.get(instr.opcode, ()):
            written_anywhere.add(instr.operands[index])
    written: set[int] = set()
    for instr in body[:-1]:
        opcode = instr.opcode
        for index in _VECTOR_READS.get(opcode, ()):
            register = instr.operands[index]
            if register in written_anywhere and register not in written:
                return None  # loop-carried vector value
        for index in _VECTOR_WRITES.get(opcode, ()):
            written.add(instr.operands[index])

    # -- accumulator structure ------------------------------------------------
    # A VSTACC whose accumulation segment crosses the body start (no VCLR
    # before it) needs the running total of *previous* iterations; that is
    # only computable position-major if every VMAC precedes the VSTACC.
    seen_vclr = False
    vmac_positions = [p for p, i in enumerate(body[:-1]) if i.opcode is Opcode.VMAC]
    for position, instr in enumerate(body[:-1]):
        if instr.opcode is Opcode.VCLR:
            seen_vclr = True
        elif instr.opcode is Opcode.VSTACC and not seen_vclr:
            if any(p > position for p in vmac_positions):
                return None

    # -- static counter deltas ------------------------------------------------
    opcode_counts: dict[str, int] = {}
    scalar_operations = 0
    vector_alu = 0
    loads, stores = [], []
    reads_s = writes_s = reads_v = writes_v = 0
    for position, instr in enumerate(body):
        opcode = instr.opcode
        opcode_counts[opcode.value] = opcode_counts.get(opcode.value, 0) + 1
        if opcode in SCALAR_OPCODES:
            scalar_operations += 1
        if opcode in VECTOR_ALU_OPCODES:
            vector_alu += 1
        if opcode is Opcode.VLOAD:
            loads.append(position)
        elif opcode is Opcode.VSTORE:
            stores.append(position)
        sr, sw, vr, vw = _REGISTER_ACCESSES[opcode]
        reads_s += sr
        writes_s += sw
        reads_v += vr
        writes_v += vw

    return LoopTrace(
        start=start,
        end=end,
        body=body,
        induction=induction,
        step=step,
        compare=branch.opcode,
        induction_first=induction_first,
        bound=bound,
        opcode_counts=opcode_counts,
        scalar_operations=scalar_operations,
        vector_alu_instructions=vector_alu,
        load_positions=tuple(loads),
        store_positions=tuple(stores),
        register_accesses=(reads_s, writes_s, reads_v, writes_v),
        plan=_compile_plan(body, induction, step, update_position),
    )


def _compile_plan(
    body: tuple[Instruction, ...], induction: int, step: int, update_position: int
) -> TracePlan:
    """Compile a validated loop body into a :class:`TracePlan`.

    A single pass renames every vector register write to a fresh bank slot
    (reads resolve to the slot of the register's latest write, or to its
    entry value), so a ``VMAC`` keeps the operands it saw at its position
    even when the body reuses the register later.
    """
    broadcast_rows: list[tuple[int, int, int]] = []
    load_rows: list[tuple[int, int, int]] = []
    store_rows: list[tuple[int, int, int]] = []
    loads = slots = sum(1 for instr in body if instr.opcode is Opcode.VLOAD)
    current: dict[int, int] = {}  # vector register -> slot of its value
    written: set[int] = set()
    entries: list[tuple[int, int]] = []
    steps: list[tuple] = []
    stores: list[tuple[int, bool]] = []
    macs: list[tuple[int, int]] = []
    has_vclr = any(instr.opcode is Opcode.VCLR for instr in body)
    seen_vclr = False

    def affine(register: int, offset: int, position: int) -> tuple[int, int, int]:
        if register != induction:
            return register, offset, 0
        return register, offset + (step if position > update_position else 0), step

    def new_slot() -> int:
        nonlocal slots
        slots += 1
        return slots - 1

    def read(register: int) -> int:
        if register not in current:  # never written in the body: entry value
            current[register] = new_slot()
            entries.append((current[register], register))
        return current[register]

    def write(register: int, slot: int) -> None:
        current[register] = slot
        written.add(register)

    def flush_macs() -> None:
        if macs:
            operands = [a for a, _ in macs] + [b for _, b in macs]
            steps.append((Opcode.VMAC, np.array(operands, dtype=np.intp), len(macs)))
            macs.clear()

    for position, instr in enumerate(body[:-1]):
        opcode, operands = instr.opcode, instr.operands
        if opcode is Opcode.VLOAD:
            write(operands[0], len(load_rows))
            load_rows.append(affine(operands[1], operands[2], position))
        elif opcode is Opcode.VSTORE:
            stores.append((read(operands[0]), operands[1] == induction))
            store_rows.append(affine(operands[1], operands[2], position))
        elif opcode is Opcode.VBCAST:
            slot = new_slot()
            steps.append((opcode, slot, len(broadcast_rows)))
            broadcast_rows.append(affine(operands[1], 0, position))
            write(operands[0], slot)
        elif opcode in (Opcode.VMUL, Opcode.VADD, Opcode.VRELU):
            sources = [read(operands[index]) for index in _VECTOR_READS[opcode]]
            slot = new_slot()
            steps.append((opcode, slot, *sources))
            write(operands[0], slot)
        elif opcode is Opcode.VMAC:
            macs.append((read(operands[0]), read(operands[1])))
        elif opcode is Opcode.VCLR:
            flush_macs()
            steps.append((opcode,))
            seen_vclr = True
        elif opcode is Opcode.VSTACC:
            flush_macs()
            # Accumulator carry-in: a VCLR earlier in the body leaves only
            # this iteration's products; a later one lets only iteration 0
            # see the entry accumulators; with none, the carry chain runs
            # across all iterations (every VMAC precedes this VSTACC).
            carry = "segment" if seen_vclr else ("first" if has_vclr else "running")
            slot = new_slot()
            steps.append((opcode, slot, carry))
            write(operands[0], slot)
    flush_macs()

    placeholders = [(0, 0, 0)] * (slots - loads)
    rows = broadcast_rows + load_rows + placeholders + store_rows
    registers, offsets, strides = (list(column) for column in zip(*rows)) if rows else ([], [], [])
    first_store = len(broadcast_rows) + slots
    access_rows = [*range(len(broadcast_rows), len(broadcast_rows) + loads)]
    access_rows += range(first_store, first_store + len(stores))
    return TracePlan(
        row_registers=np.array(registers, dtype=np.intp),
        row_offsets=np.array(offsets, dtype=np.int64),
        row_strides=np.array(strides, dtype=np.int64).reshape(-1, 1),
        broadcasts=len(broadcast_rows),
        loads=loads,
        slots=slots,
        entries=tuple(entries),
        steps=tuple(steps),
        stores=tuple(stores),
        accesses=tuple((row, strides[row] != 0) for row in access_rows),
        writeback=tuple((register, current[register]) for register in sorted(written)),
        has_vclr=has_vclr,
    )


def _ceil_div(numerator: int, denominator: int) -> int:
    """Ceiling division for positive denominators."""
    return -(-numerator // denominator)


def _trip_count(trace: LoopTrace, start_value: int, bound_value: int) -> int | None:
    """Number of body executions from entry state, or None if unbounded.

    Iteration ``t`` sees the induction at ``x(t) = start + t*step`` on body
    entry; the branch after iteration ``t`` tests ``x(t+1)``.
    """
    step = trace.step
    if trace.compare is Opcode.BNE:
        delta = bound_value - start_value
        if delta % step != 0:
            return None  # never equal: interpreter watchdog territory
        count = delta // step
        return count if count >= 1 else None
    # BLT
    if trace.induction_first:
        # taken while x(t) < bound
        if step > 0:
            return max(1, _ceil_div(bound_value - start_value, step))
        return 1 if start_value + step >= bound_value else None
    # taken while bound < x(t)
    if step < 0:
        return max(1, _ceil_div(start_value - bound_value, -step))
    return 1 if start_value + step <= bound_value else None


def _accesses_safe(
    plan: TracePlan, first: list[int], iterations: int, step: int, words: int
) -> bool:
    """Whether every access stays in the banks and no store's address set
    meets another store's or a load's.

    Access ``i`` walks ``first[i] + step * t`` for ``t <= span_i`` (``span``
    is ``iterations - 1`` when it follows the induction, else 0), so its
    endpoints bound it, and accesses ``i`` and ``j`` meet iff ``first[j] -
    first[i] == step * k`` for an integer ``k`` with ``-span_j <= k <=
    span_i``.
    """
    accesses = [(first[row], iterations - 1 if strided else 0) for row, strided in plan.accesses]
    for start, span in accesses:
        end = start + step * span
        if min(start, end) < 0 or max(start, end) >= words:
            return False
    for store in range(plan.loads, len(accesses)):
        start, span = accesses[store]
        for other, (other_start, other_span) in enumerate(accesses):
            shift, remainder = divmod(other_start - start, step)
            if other != store and remainder == 0 and -other_span <= shift <= span:
                return False
    return True


class TraceEngine:
    """Executes programs on a :class:`SimdProcessor` via trace compilation.

    The engine shares the processor's architectural state (registers, memory,
    vector unit) and produces results bit-identical to
    :meth:`SimdProcessor.run`; analyzable affine loops are executed as whole
    vectorised traces, everything else through the interpreter's
    dispatch-table decode.

    ``vectorised`` and ``fallbacks`` count, over the engine's lifetime, the
    trace executions run as whole traces and those handed back to the
    interpreter (which then interprets that loop for the rest of its run).
    """

    def __init__(self, processor: SimdProcessor):
        self.processor = processor
        self.vectorised = 0
        self.fallbacks = 0

    def run(self, program: Program, *, max_cycles: int = 2_000_000) -> ExecutionResult:
        """Execute ``program`` until HALT (or the cycle watchdog expires)."""
        processor = self.processor
        if len(program) == 0:
            raise ExecutionError("program is empty")
        traces = _program_traces(program)
        disabled: set[int] = set()
        counters = ExecutionCounters()
        pc = 0
        halted = False
        while counters.cycles < max_cycles:
            if not 0 <= pc < len(program):
                raise ExecutionError(f"program counter {pc} out of range")
            if pc in traces and pc not in disabled:
                next_pc = self._execute_trace(traces[pc], counters, max_cycles)
                if next_pc is None:
                    self.fallbacks += 1
                    disabled.add(pc)  # interpret this loop for the rest of the run
                else:
                    self.vectorised += 1
                    pc = next_pc
                    continue
            instruction = program[pc]
            counters.cycles += 1
            counters.instructions += 1
            counters.record_opcode(instruction.opcode)
            next_pc = pc + 1
            if instruction.opcode == Opcode.HALT:
                halted = True
                break
            pc = processor._execute(instruction, counters, pc, next_pc)
        if not halted and counters.cycles >= max_cycles:
            raise ExecutionError(f"watchdog expired after {max_cycles} cycles")
        return ExecutionResult(
            counters=counters,
            halted=halted,
            precision_bits=processor.precision_bits,
            parallelism=processor.vector_unit.mode.parallelism,
            lanes=processor.simd_width,
        )

    # -- vectorised trace execution ------------------------------------------

    def _execute_trace(
        self, trace: LoopTrace, counters: ExecutionCounters, max_cycles: int
    ) -> int | None:
        """Run all iterations of ``trace`` at once; None -> use interpreter."""
        processor = self.processor
        scalars = processor.scalar_registers._registers
        start_value = scalars[trace.induction]
        bound_value = scalars[trace.bound]

        iterations = _trip_count(trace, start_value, bound_value)
        if iterations is None:
            return None
        if counters.cycles + iterations * len(trace.body) > max_cycles:
            return None  # would trip the watchdog: interpret instead
        final_value = start_value + iterations * trace.step
        if not (_SCALAR_LO <= min(start_value, final_value)
                and max(start_value, final_value) <= _SCALAR_HI):
            return None  # induction would wrap in the 32-bit register file
        lanes = processor.simd_width
        vector_instructions = (
            trace.vector_alu_instructions
            + len(trace.load_positions)
            + len(trace.store_positions)
        )
        if iterations * lanes * max(1, vector_instructions) > MAX_TRACE_ELEMENTS:
            return None

        plan = trace.plan
        first = np.array(scalars, dtype=np.int64)[plan.row_registers] + plan.row_offsets
        # Out of range: the interpreter raises the faithful IndexError.  A
        # store meeting another access: scatter order would matter, or a
        # load would see this loop's stores.
        if not _accesses_safe(plan, first.tolist(), iterations, trace.step, processor.memory.words_per_bank):
            return None
        sequences = first[:, None] + plan.row_strides * np.arange(iterations)
        bank, accumulators, guarded = self._evaluate(plan, sequences, iterations)
        self._commit(trace, iterations, final_value, counters, sequences, bank, accumulators, guarded)
        return trace.end + 1

    def _evaluate(self, plan: TracePlan, sequences: np.ndarray, iterations: int):
        """Fill the ``(lanes, slots, iterations)`` value bank in body order.

        Returns the bank, the accumulators after the last iteration and the
        zero-operand guard count.
        """
        processor = self.processor
        vectors = processor.vector_registers
        unit = processor.vector_unit
        lanes = processor.simd_width
        element_lo, element_hi = _element_range(processor.word_bits)
        # One gather fills every VLOAD slot.  No wrap: register and memory
        # words share ``word_bits``, and memory only holds range-checked
        # writes or register values, so the interpreter's VLOAD wrap is the
        # identity.
        start = plan.broadcasts
        bank = np.take(processor.memory._storage, sequences[start : start + plan.slots], axis=1)
        for slot, register in plan.entries:
            bank[:, slot] = vectors._registers[register][:, None]
        entry_accumulators = vectors._accumulators
        # With one subword per word, ``unpack`` is the identity on register
        # values (always inside the element range) plus a trailing axis.
        packed = unit.mode.parallelism > 1
        segment: list[np.ndarray] = []  # (lanes, iterations) sums since the last VCLR
        guarded = 0

        for step in plan.steps:
            opcode = step[0]
            if opcode is Opcode.VMAC:
                _, operands, count = step
                pair = bank[:, operands]
                subwords = unit.unpack(pair) if packed else pair[..., None]
                products = subwords[:, :count] * subwords[:, count:]
                if unit.guard_zero_operands:
                    # Subword products are exact in int64, so a product is
                    # zero exactly where an operand is: the interpreter's
                    # per-pair ``(a == 0) | (b == 0)`` count.
                    guarded += products.size - int(np.count_nonzero(products))
                segment.append(products.sum(axis=(1, 3)))
            elif opcode is Opcode.VCLR:
                segment = []
            elif opcode is Opcode.VSTACC:
                _, slot, carry = step
                partial = sum(segment) if segment else np.zeros((lanes, iterations), dtype=np.int64)
                if carry == "first":
                    partial[:, 0] += entry_accumulators
                elif carry == "running":
                    partial = entry_accumulators[:, None] + np.cumsum(partial, axis=1)
                wrapped = _wrap_array(partial, vectors.accumulator_bits)
                bank[:, slot] = saturate_to_element_range(wrapped, vectors.element_bits)
            elif opcode is Opcode.VBCAST:
                _, slot, row = step
                bank[:, slot] = _wrap_array(sequences[row], vectors.element_bits)
            elif opcode is Opcode.VRELU:
                _, slot, a = step
                bank[:, slot] = np.maximum(bank[:, a], 0)
            else:  # VMUL, VADD: saturating, like the interpreter
                _, slot, a, b = step
                result = _ELEMENTWISE[opcode](bank[:, a], bank[:, b])
                bank[:, slot] = np.clip(result, element_lo, element_hi)

        if plan.has_vclr:
            # Only the products since the last VCLR survive the final iteration.
            final = sum(sums[:, -1] for sums in segment) if segment else np.zeros(lanes, dtype=np.int64)
        else:
            final = entry_accumulators + sum(sums.sum(axis=1) for sums in segment)
        return bank, _wrap_array(np.asarray(final, dtype=np.int64), vectors.accumulator_bits), guarded

    def _commit(
        self,
        trace: LoopTrace,
        iterations: int,
        final_value: int,
        counters: ExecutionCounters,
        sequences: np.ndarray,
        bank: np.ndarray,
        accumulators: np.ndarray,
        guarded: int,
    ) -> None:
        """Apply the evaluated trace to the processor and the counters."""
        processor = self.processor
        plan = trace.plan
        vectors = processor.vector_registers
        memory = processor.memory
        lanes = processor.simd_width
        body_length = len(trace.body)

        # Memory: scatter stores (addresses proven collision-free); a
        # constant-address store keeps its last iteration's value.
        first_store = plan.broadcasts + plan.slots
        for row, (slot, strided) in enumerate(plan.stores, start=first_store):
            if strided:
                memory._storage[:, sequences[row]] = bank[:, slot]
            else:
                memory._storage[:, sequences[row, 0]] = bank[:, slot, -1]

        # Architectural state: final-iteration vector registers, the
        # accumulator carry-out, and the post-loop induction value.
        for register, slot in plan.writeback:
            vectors._registers[register] = bank[:, slot, -1]
        vectors._accumulators = accumulators
        processor.scalar_registers._registers[trace.induction] = int(final_value)

        # Event counters, in closed form.
        counters.cycles += iterations * body_length
        counters.instructions += iterations * body_length
        counters.scalar_operations += iterations * trace.scalar_operations
        counters.vector_alu_instructions += iterations * trace.vector_alu_instructions
        counters.vector_memory_reads += iterations * len(trace.load_positions)
        counters.vector_memory_writes += iterations * len(trace.store_positions)
        counters.branches_taken += iterations - 1
        histogram = counters.opcode_histogram
        for opcode_value, count in trace.opcode_counts.items():
            histogram[opcode_value] = histogram.get(opcode_value, 0) + iterations * count

        active_bits = processor._memory_active_bits()
        memory.counters.reads += iterations * len(trace.load_positions) * lanes
        memory.counters.read_bits += (
            iterations * len(trace.load_positions) * lanes * active_bits
        )
        memory.counters.writes += iterations * len(trace.store_positions) * lanes
        memory.counters.write_bits += (
            iterations * len(trace.store_positions) * lanes * active_bits
        )

        unit = processor.vector_unit
        mode = unit.mode
        vmacs = trace.opcode_counts.get(Opcode.VMAC.value, 0)
        elementwise = sum(
            trace.opcode_counts.get(op.value, 0)
            for op in (Opcode.VMUL, Opcode.VADD, Opcode.VRELU)
        )
        unit.counters.mac_operations += iterations * vmacs * lanes * mode.parallelism
        unit.counters.mac_cycles += iterations * vmacs
        unit.counters.guarded_macs += guarded
        unit.counters.alu_operations += iterations * elementwise * lanes
        reads_s, writes_s, reads_v, writes_v = trace.register_accesses
        processor.scalar_registers.reads += iterations * reads_s
        processor.scalar_registers.writes += iterations * writes_s
        vectors.reads += iterations * reads_v
        vectors.writes += iterations * writes_v
