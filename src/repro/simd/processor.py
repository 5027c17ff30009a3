"""Cycle-level model of the DVAFS-compatible SIMD RISC vector processor.

The processor executes one instruction per cycle (fetch, decode, execute) and
keeps event counters for every energy-relevant activity: instructions
fetched, scalar operations, vector MAC/ALU operations, vector memory accesses
and their active bit counts.  The power model of :mod:`repro.simd.power`
converts those counters into the per-domain energy split of Table II.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .isa import (
    Instruction,
    Opcode,
    Program,
    SCALAR_OPCODES,
    VECTOR_ALU_OPCODES,
    VECTOR_MEMORY_OPCODES,
)
from .memory import BankedMemory
from .register_file import ScalarRegisterFile, VectorRegisterFile
from .vector_unit import VectorUnit


class ExecutionError(RuntimeError):
    """Raised when a program misbehaves (bad opcode, watchdog expiry, ...)."""


@dataclass
class ExecutionCounters:
    """Event counts of one program execution."""

    cycles: int = 0
    instructions: int = 0
    scalar_operations: int = 0
    vector_alu_instructions: int = 0
    vector_memory_reads: int = 0
    vector_memory_writes: int = 0
    branches_taken: int = 0
    opcode_histogram: dict[str, int] = field(default_factory=dict)

    def record_opcode(self, opcode: Opcode) -> None:
        """Update the per-opcode histogram."""
        self.opcode_histogram[opcode.value] = self.opcode_histogram.get(opcode.value, 0) + 1


@dataclass
class ExecutionResult:
    """Outcome of :meth:`SimdProcessor.run`."""

    counters: ExecutionCounters
    halted: bool
    precision_bits: int
    parallelism: int
    lanes: int = 1

    @property
    def words_processed(self) -> int:
        """Vector-ALU result words produced by the run.

        Every vector-ALU instruction produces one result word per lane, and
        in subword-parallel modes each lane word carries ``parallelism``
        packed results -- so the count is instructions x lanes x parallelism,
        matching the per-word energy accounting of the power model.
        """
        return self.counters.vector_alu_instructions * self.lanes * self.parallelism


class SimdProcessor:
    """The SIMD RISC vector processor.

    Parameters
    ----------
    simd_width:
        Number of vector lanes / memory banks (SW: 8 or 64 in the paper).
    word_bits:
        Element width of the vector datapath (16).
    words_per_bank:
        Scratchpad capacity per bank.
    guard_zero_operands:
        Enable sparsity guarding in the vector unit.
    """

    def __init__(
        self,
        simd_width: int = 8,
        *,
        word_bits: int = 16,
        words_per_bank: int = 4096,
        guard_zero_operands: bool = True,
    ):
        if simd_width < 1:
            raise ValueError("simd_width must be at least 1")
        self.simd_width = simd_width
        self.word_bits = word_bits
        self.scalar_registers = ScalarRegisterFile()
        self.vector_registers = VectorRegisterFile(simd_width, element_bits=word_bits)
        self.memory = BankedMemory(simd_width, words_per_bank, word_bits=word_bits)
        self.vector_unit = VectorUnit(
            simd_width, word_bits=word_bits, guard_zero_operands=guard_zero_operands
        )
        self.precision_bits = word_bits

    # -- state management ----------------------------------------------------

    def reset(self, *, keep_memory: bool = True) -> None:
        """Reset registers, counters and (optionally) the data memory."""
        self.scalar_registers = ScalarRegisterFile()
        self.vector_registers = VectorRegisterFile(
            self.simd_width, element_bits=self.word_bits
        )
        self.vector_unit.reset_counters()
        self.vector_unit.set_precision(self.word_bits)
        self.precision_bits = self.word_bits
        if not keep_memory:
            self.memory = BankedMemory(
                self.simd_width, self.memory.words_per_bank, word_bits=self.word_bits
            )
        else:
            self.memory.reset_counters()

    # -- execution -----------------------------------------------------------

    def run(self, program: Program, *, max_cycles: int = 2_000_000) -> ExecutionResult:
        """Execute ``program`` until HALT (or the cycle watchdog expires)."""
        if len(program) == 0:
            raise ExecutionError("program is empty")
        counters = ExecutionCounters()
        pc = 0
        halted = False
        while counters.cycles < max_cycles:
            if not 0 <= pc < len(program):
                raise ExecutionError(f"program counter {pc} out of range")
            instruction = program[pc]
            counters.cycles += 1
            counters.instructions += 1
            counters.record_opcode(instruction.opcode)
            next_pc = pc + 1

            if instruction.opcode == Opcode.HALT:
                halted = True
                break
            next_pc = self._execute(instruction, counters, pc, next_pc)
            pc = next_pc
        if not halted and counters.cycles >= max_cycles:
            raise ExecutionError(f"watchdog expired after {max_cycles} cycles")
        return ExecutionResult(
            counters=counters,
            halted=halted,
            precision_bits=self.precision_bits,
            parallelism=self.vector_unit.mode.parallelism,
            lanes=self.simd_width,
        )

    def _execute(
        self, instruction: Instruction, counters: ExecutionCounters, pc: int, next_pc: int
    ) -> int:
        opcode = instruction.opcode
        if opcode in SCALAR_OPCODES:
            counters.scalar_operations += 1
        handler = _DISPATCH.get(opcode)
        if handler is None:
            if opcode in VECTOR_MEMORY_OPCODES or opcode in VECTOR_ALU_OPCODES:
                raise ExecutionError(f"unhandled vector opcode {opcode.value}")
            raise ExecutionError(f"unhandled opcode {opcode.value}")
        return handler(self, instruction.operands, counters, next_pc)

    # -- per-opcode handlers (the decode table) --------------------------------

    def _op_nop(self, operands, counters, next_pc: int) -> int:
        return next_pc

    def _op_li(self, operands, counters, next_pc: int) -> int:
        self.scalar_registers.write(operands[0], operands[1])
        return next_pc

    def _op_add(self, operands, counters, next_pc: int) -> int:
        scalars = self.scalar_registers
        scalars.write(operands[0], scalars.read(operands[1]) + scalars.read(operands[2]))
        return next_pc

    def _op_addi(self, operands, counters, next_pc: int) -> int:
        scalars = self.scalar_registers
        scalars.write(operands[0], scalars.read(operands[1]) + operands[2])
        return next_pc

    def _op_sub(self, operands, counters, next_pc: int) -> int:
        scalars = self.scalar_registers
        scalars.write(operands[0], scalars.read(operands[1]) - scalars.read(operands[2]))
        return next_pc

    def _op_mul(self, operands, counters, next_pc: int) -> int:
        scalars = self.scalar_registers
        scalars.write(operands[0], scalars.read(operands[1]) * scalars.read(operands[2]))
        return next_pc

    def _op_bne(self, operands, counters, next_pc: int) -> int:
        scalars = self.scalar_registers
        if scalars.read(operands[0]) != scalars.read(operands[1]):
            counters.branches_taken += 1
            return operands[2]
        return next_pc

    def _op_blt(self, operands, counters, next_pc: int) -> int:
        scalars = self.scalar_registers
        if scalars.read(operands[0]) < scalars.read(operands[1]):
            counters.branches_taken += 1
            return operands[2]
        return next_pc

    def _op_jmp(self, operands, counters, next_pc: int) -> int:
        counters.branches_taken += 1
        return operands[0]

    def _op_setprec(self, operands, counters, next_pc: int) -> int:
        self.set_precision(operands[0])
        return next_pc

    def _op_vload(self, operands, counters, next_pc: int) -> int:
        address = self.scalar_registers.read(operands[1]) + operands[2]
        values = self.memory.read_vector(address, active_bits=self._memory_active_bits())
        self.vector_registers.write(operands[0], values)
        counters.vector_memory_reads += 1
        return next_pc

    def _op_vstore(self, operands, counters, next_pc: int) -> int:
        address = self.scalar_registers.read(operands[1]) + operands[2]
        self.memory.write_vector(
            address, self.vector_registers.read(operands[0]),
            active_bits=self._memory_active_bits(),
        )
        counters.vector_memory_writes += 1
        return next_pc

    def _op_vbcast(self, operands, counters, next_pc: int) -> int:
        value = self.scalar_registers.read(operands[1])
        self.vector_registers.write(
            operands[0], np.full(self.simd_width, value, dtype=np.int64)
        )
        counters.vector_alu_instructions += 1
        return next_pc

    def _op_vmac(self, operands, counters, next_pc: int) -> int:
        vectors = self.vector_registers
        products = self.vector_unit.multiply_accumulate(
            vectors.read(operands[0]), vectors.read(operands[1])
        )
        vectors.accumulate(products)
        counters.vector_alu_instructions += 1
        return next_pc

    def _op_vmul(self, operands, counters, next_pc: int) -> int:
        vectors = self.vector_registers
        result = self.vector_unit.elementwise(
            "mul", vectors.read(operands[1]), vectors.read(operands[2])
        )
        vectors.write(operands[0], np.clip(result, *_element_range(self.word_bits)))
        counters.vector_alu_instructions += 1
        return next_pc

    def _op_vadd(self, operands, counters, next_pc: int) -> int:
        vectors = self.vector_registers
        result = self.vector_unit.elementwise(
            "add", vectors.read(operands[1]), vectors.read(operands[2])
        )
        vectors.write(operands[0], np.clip(result, *_element_range(self.word_bits)))
        counters.vector_alu_instructions += 1
        return next_pc

    def _op_vrelu(self, operands, counters, next_pc: int) -> int:
        vectors = self.vector_registers
        result = self.vector_unit.elementwise("relu", vectors.read(operands[1]))
        vectors.write(operands[0], result)
        counters.vector_alu_instructions += 1
        return next_pc

    def _op_vclr(self, operands, counters, next_pc: int) -> int:
        self.vector_registers.clear_accumulators()
        counters.vector_alu_instructions += 1
        return next_pc

    def _op_vstacc(self, operands, counters, next_pc: int) -> int:
        vectors = self.vector_registers
        vectors.write(operands[0], vectors.saturate_accumulators())
        counters.vector_alu_instructions += 1
        return next_pc

    # -- precision management --------------------------------------------------

    def set_precision(self, bits: int) -> None:
        """Program the vector datapath precision (the SETPREC instruction)."""
        mode = self.vector_unit.set_precision(bits)
        self.precision_bits = bits
        del mode

    def _memory_active_bits(self) -> int:
        """Bits toggling per memory access in the current mode.

        In single-word (DAS/DVAS) modes only the active MSBs of each word are
        fetched; in subword-parallel modes the full word is used because it
        carries N packed operands.
        """
        mode = self.vector_unit.mode
        if mode.parallelism > 1:
            return self.word_bits
        return self.precision_bits


#: One-time decode: opcode -> handler, called as ``handler(processor, operands,
#: counters, next_pc)``.  Replaces the long if/elif chain so the fetch loop pays
#: one dict lookup per cycle.  Module-level plain functions, not per-instance
#: bound methods: a per-instance table would make every processor a reference
#: cycle, so its memory banks would wait for the cyclic garbage collector.
_DISPATCH = {
    Opcode.NOP: SimdProcessor._op_nop,
    Opcode.LI: SimdProcessor._op_li,
    Opcode.ADD: SimdProcessor._op_add,
    Opcode.ADDI: SimdProcessor._op_addi,
    Opcode.SUB: SimdProcessor._op_sub,
    Opcode.MUL: SimdProcessor._op_mul,
    Opcode.BNE: SimdProcessor._op_bne,
    Opcode.BLT: SimdProcessor._op_blt,
    Opcode.JMP: SimdProcessor._op_jmp,
    Opcode.SETPREC: SimdProcessor._op_setprec,
    Opcode.VLOAD: SimdProcessor._op_vload,
    Opcode.VSTORE: SimdProcessor._op_vstore,
    Opcode.VBCAST: SimdProcessor._op_vbcast,
    Opcode.VMAC: SimdProcessor._op_vmac,
    Opcode.VMUL: SimdProcessor._op_vmul,
    Opcode.VADD: SimdProcessor._op_vadd,
    Opcode.VRELU: SimdProcessor._op_vrelu,
    Opcode.VCLR: SimdProcessor._op_vclr,
    Opcode.VSTACC: SimdProcessor._op_vstacc,
}


def _element_range(bits: int) -> tuple[int, int]:
    lo = -(1 << (bits - 1))
    hi = (1 << (bits - 1)) - 1
    return lo, hi
