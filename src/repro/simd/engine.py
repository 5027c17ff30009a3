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
* each straight-line **vector trace** (the loop body) is then executed across
  *all* iterations at once: every instruction becomes one numpy operation on
  an ``(iterations, lanes)`` value array, including packed-subword modes
  (parallelism > 1) and the data-dependent zero-operand guard counts.

Memory contents, event counters, opcode histograms, register-file access
counts and the returned :class:`~repro.simd.processor.ExecutionResult` are
bit-identical to the interpreter.  Any program (or loop entry state) the
analysis cannot prove safe -- extra scalar writes, nested branches, aliased
load/store ranges, wrap-around arithmetic, data-dependent trip counts beyond
the watchdog -- simply falls back to the interpreter's dispatch loop, so the
engine accepts every program the interpreter accepts.
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


@dataclass
class BasicBlock:
    """A maximal straight-line instruction run ``[start, end]`` (inclusive)."""

    start: int
    end: int


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
    update_position:
        Body index of the induction ``ADDI`` (reads before it see the
        pre-increment value, reads after it the post-increment value).
    compare:
        The closing branch opcode (``BLT`` or ``BNE``).
    induction_first:
        Whether the induction register is the branch's first operand.
    bound:
        The loop-invariant register the induction is compared against.
    """

    start: int
    end: int
    body: tuple[Instruction, ...]
    induction: int
    step: int
    update_position: int
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
    written_vregs: frozenset[int] = frozenset()


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
    branch is then validated as a straight-line affine trace.

    The analysis depends only on the (frozen) instructions, so it is
    memoised per process on them; execution never mutates a trace, so
    reruns of one program share its traces.
    """
    return dict(_analyze_instructions(tuple(program.instructions)))


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
        update_position=update_position,
        compare=branch.opcode,
        induction_first=induction_first,
        bound=bound,
        opcode_counts=opcode_counts,
        scalar_operations=scalar_operations,
        vector_alu_instructions=vector_alu,
        load_positions=tuple(loads),
        store_positions=tuple(stores),
        register_accesses=(reads_s, writes_s, reads_v, writes_v),
        written_vregs=frozenset(written_anywhere),
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


class TraceEngine:
    """Executes programs on a :class:`SimdProcessor` via trace compilation.

    The engine shares the processor's architectural state (registers, memory,
    vector unit) and produces results bit-identical to
    :meth:`SimdProcessor.run`; analyzable affine loops are executed as whole
    vectorised traces, everything else through the interpreter's
    dispatch-table decode.
    """

    def __init__(self, processor: SimdProcessor):
        self.processor = processor

    def run(self, program: Program, *, max_cycles: int = 2_000_000) -> ExecutionResult:
        """Execute ``program`` until HALT (or the cycle watchdog expires)."""
        processor = self.processor
        if len(program) == 0:
            raise ExecutionError("program is empty")
        traces = analyze_program(program)
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
                    disabled.add(pc)  # interpret this loop for the rest of the run
                else:
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

        plan = self._plan_memory(trace, iterations, start_value)
        if plan is None:
            return None
        addresses = plan

        state = self._evaluate_body(trace, iterations, start_value, addresses)
        if state is None:
            return None
        self._commit(trace, iterations, final_value, counters, state)
        return trace.end + 1

    def _scalar_values(self, trace: LoopTrace, register: int, position: int,
                       iterations: int, start_value: int):
        """Value(s) of ``register`` at body ``position``: int or (n,) array."""
        if register == trace.induction:
            base = start_value + (trace.step if position > trace.update_position else 0)
            return base + trace.step * np.arange(iterations, dtype=np.int64)
        return int(self.processor.scalar_registers._registers[register])

    def _plan_memory(
        self, trace: LoopTrace, iterations: int, start_value: int
    ) -> dict[int, np.ndarray] | None:
        """Per-position address arrays; None on out-of-range or aliasing."""
        memory = self.processor.memory
        addresses: dict[int, np.ndarray] = {}
        load_arrays, store_arrays = [], []
        for position in trace.load_positions + trace.store_positions:
            instr = trace.body[position]
            base = self._scalar_values(trace, instr.operands[1], position,
                                       iterations, start_value)
            addrs = np.asarray(base + instr.operands[2], dtype=np.int64)
            if addrs.ndim == 0:
                addrs = addrs[None]  # constant address
            # Affine in the iteration (or constant): the endpoints bound it.
            low, high = sorted((int(addrs[0]), int(addrs[-1])))
            if low < 0 or high >= memory.words_per_bank:
                return None  # interpreter will raise the faithful IndexError
            addresses[position] = addrs
            if position in trace.load_positions:
                load_arrays.append(addrs)
            else:
                store_arrays.append(addrs)
        if store_arrays:
            stores = np.concatenate(store_arrays)
            # Distinct-per-instruction is guaranteed (affine, step != 0, or a
            # deduplicated constant); cross-instruction collisions would make
            # scatter order matter.
            if np.unique(stores).size != stores.size:
                return None
            if load_arrays and np.intersect1d(
                np.concatenate(load_arrays), stores
            ).size:
                return None  # loads must observe pre-loop memory only
        return addresses

    def _evaluate_body(
        self,
        trace: LoopTrace,
        iterations: int,
        start_value: int,
        addresses: dict[int, np.ndarray],
    ):
        """Position-major symbolic evaluation of the body over all iterations.

        Returns the pending state to commit: vector-register values, store
        values, accumulator outcome and the data-dependent guard count.
        """
        processor = self.processor
        vectors = processor.vector_registers
        unit = processor.vector_unit
        lanes = processor.simd_width
        element_lo, element_hi = _element_range(processor.word_bits)
        shape = (iterations, lanes)

        values: dict[int, np.ndarray] = {}

        def read(register: int) -> np.ndarray:
            if register not in values:
                # Never written in the body: loop-invariant entry value.
                values[register] = np.broadcast_to(
                    vectors._registers[register], shape
                )
            return values[register]

        def write(register: int, array: np.ndarray) -> None:
            values[register] = _wrap_array(array, vectors.element_bits)

        # With one subword per word, ``unpack`` is the identity on register
        # values (always inside the element range) plus a trailing axis.
        single_subword = unit.mode.parallelism == 1

        # Accumulator bookkeeping (see module docstring): products since the
        # last VCLR, whether that segment began at the body start, and every
        # product for the cross-iteration carry chain.
        entry_accumulators = vectors._accumulators
        segment: list[np.ndarray] = []
        crosses_entry = True
        has_vclr = False
        all_products: list[np.ndarray] = []
        guarded_total = 0
        store_values: list[tuple[int, np.ndarray]] = []

        for position, instr in enumerate(trace.body[:-1]):
            opcode = instr.opcode
            operands = instr.operands
            if opcode in SCALAR_OPCODES:
                continue  # induction update / r0 no-ops: handled in closed form
            if opcode is Opcode.VLOAD:
                addrs = addresses[position]
                gathered = processor.memory._storage[:, addrs].T  # (n, lanes)
                if gathered.shape[0] != iterations:  # constant address
                    gathered = np.broadcast_to(gathered[0], shape)
                # No wrap: register and memory words share ``word_bits``, and
                # memory only holds range-checked writes or register values,
                # so the wrap the interpreter applies on VLOAD is the identity.
                values[operands[0]] = gathered
            elif opcode is Opcode.VSTORE:
                store_values.append((position, read(operands[0])))
            elif opcode is Opcode.VBCAST:
                scalar = self._scalar_values(
                    trace, operands[1], position, iterations, start_value
                )
                column = np.broadcast_to(
                    np.asarray(scalar, dtype=np.int64).reshape(-1, 1), shape
                )
                write(operands[0], column)
            elif opcode is Opcode.VMAC:
                if single_subword:
                    sub_a = read(operands[0])[..., None]  # (n, lanes, 1)
                    sub_b = read(operands[1])[..., None]
                else:
                    sub_a = unit.unpack(read(operands[0]))  # (n, lanes, N) subwords
                    sub_b = unit.unpack(read(operands[1]))
                if unit.guard_zero_operands:
                    guarded_total += int(np.sum((sub_a == 0) | (sub_b == 0)))
                products = (sub_a * sub_b).sum(axis=-1)
                segment.append(products)
                all_products.append(products)
            elif opcode is Opcode.VMUL:
                result = read(operands[1]) * read(operands[2])
                write(operands[0], np.clip(result, element_lo, element_hi))
            elif opcode is Opcode.VADD:
                result = read(operands[1]) + read(operands[2])
                write(operands[0], np.clip(result, element_lo, element_hi))
            elif opcode is Opcode.VRELU:
                write(operands[0], np.maximum(read(operands[1]), 0))
            elif opcode is Opcode.VCLR:
                segment = []
                crosses_entry = False
                has_vclr = True
            elif opcode is Opcode.VSTACC:
                partial = sum(segment) if segment else np.zeros(shape, dtype=np.int64)
                if not crosses_entry:
                    accumulated = partial
                elif not has_vclr and trace.opcode_counts.get(Opcode.VCLR.value, 0):
                    # A VCLR occurs later in the body: only iteration 0 sees
                    # the entry accumulators, later iterations carry in zero.
                    accumulated = partial.copy()
                    accumulated[0] += entry_accumulators
                else:
                    # No VCLR anywhere: the carry chain is a running sum of
                    # the per-iteration totals (analysis guarantees every
                    # VMAC precedes this VSTACC, so partial == total).
                    accumulated = entry_accumulators + np.cumsum(partial, axis=0)
                wrapped = _wrap_array(accumulated, vectors.accumulator_bits)
                write(
                    operands[0],
                    saturate_to_element_range(wrapped, vectors.element_bits),
                )
            elif opcode is not Opcode.NOP:  # pragma: no cover - analysis gate
                return None
        return {
            "values": values,
            "store_values": store_values,
            "segment": segment,
            "crosses_entry": crosses_entry,
            "has_vclr": has_vclr,
            "all_products": all_products,
            "entry_accumulators": entry_accumulators,
            "guarded": guarded_total,
            "addresses": addresses,
        }

    def _commit(
        self,
        trace: LoopTrace,
        iterations: int,
        final_value: int,
        counters: ExecutionCounters,
        state: dict,
    ) -> None:
        """Apply the evaluated trace to the processor and the counters."""
        processor = self.processor
        vectors = processor.vector_registers
        memory = processor.memory
        lanes = processor.simd_width
        body_length = len(trace.body)

        # Memory: scatter stores (addresses proven collision-free).
        for position, values in state["store_values"]:
            addrs = state["addresses"][position]
            if addrs.size == 1:
                memory._storage[:, addrs[0]] = values[-1]
            else:
                memory._storage[:, addrs] = values.T

        # Architectural state: final-iteration vector registers, the
        # accumulator carry-out, and the post-loop induction value.
        for register in trace.written_vregs:
            if register in state["values"]:
                vectors._registers[register] = state["values"][register][-1]
        if state["has_vclr"]:
            final_acc = sum(product[-1] for product in state["segment"])
            if isinstance(final_acc, int):  # empty trailing segment
                final_acc = np.zeros(lanes, dtype=np.int64)
        else:
            final_acc = state["entry_accumulators"] + sum(
                product.sum(axis=0) for product in state["all_products"]
            )
        vectors._accumulators = _wrap_array(
            np.asarray(final_acc, dtype=np.int64), vectors.accumulator_bits
        )
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
        unit.counters.guarded_macs += state["guarded"]
        unit.counters.alu_operations += iterations * elementwise * lanes

        reads_s, writes_s, reads_v, writes_v = trace.register_accesses
        processor.scalar_registers.reads += iterations * reads_s
        processor.scalar_registers.writes += iterations * writes_s
        vectors.reads += iterations * reads_v
        vectors.writes += iterations * writes_v
