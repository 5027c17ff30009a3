"""SIMD RISC vector-processor substrate (Section III-B of the paper)."""

from .assembler import AssemblerError, assemble
from .engine import BasicBlock, LoopTrace, TraceEngine, analyze_program, basic_blocks
from .isa import Instruction, Opcode, Program, SCALAR_REGISTERS, VECTOR_REGISTERS
from .kernels import (
    ConvolutionWorkload,
    convolution_kernel,
    load_workload,
    read_outputs,
    run_convolution,
)
from .memory import BankedMemory, MemoryAccessCounters
from .power import SimdEnergyParameters, SimdPowerModel, SimdPowerReport
from .processor import ExecutionCounters, ExecutionError, ExecutionResult, SimdProcessor
from .register_file import ScalarRegisterFile, VectorRegisterFile
from .vector_unit import VectorUnit, VectorUnitCounters

__all__ = [
    "AssemblerError",
    "assemble",
    "BasicBlock",
    "LoopTrace",
    "TraceEngine",
    "analyze_program",
    "basic_blocks",
    "Instruction",
    "Opcode",
    "Program",
    "SCALAR_REGISTERS",
    "VECTOR_REGISTERS",
    "ConvolutionWorkload",
    "convolution_kernel",
    "load_workload",
    "read_outputs",
    "run_convolution",
    "BankedMemory",
    "MemoryAccessCounters",
    "SimdEnergyParameters",
    "SimdPowerModel",
    "SimdPowerReport",
    "ExecutionCounters",
    "ExecutionError",
    "ExecutionResult",
    "SimdProcessor",
    "ScalarRegisterFile",
    "VectorRegisterFile",
    "VectorUnit",
    "VectorUnitCounters",
]
