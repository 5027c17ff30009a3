"""Benchmark kernels for the SIMD processor.

The paper's system-level benchmark is "a large convolution kernel" run on the
SIMD processor.  :func:`convolution_kernel` builds the assembly program for a
1-D convolution where every memory bank holds one independent input row
(so all SW lanes work in parallel), together with the preload data and a
numpy reference for correctness checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .assembler import assemble
from .engine import TraceEngine
from .isa import Instruction, Program
from .processor import ExecutionResult, SimdProcessor


@dataclass
class ConvolutionWorkload:
    """A generated convolution workload.

    Attributes
    ----------
    program:
        Assembled SIMD program.
    inputs:
        ``(banks, input_length)`` input rows, one per lane.
    weights:
        ``(taps,)`` filter weights (broadcast to all lanes).
    input_base, weight_base, output_base:
        Scratchpad addresses of the three buffers.
    output_length:
        Number of output samples per lane.
    """

    program: Program
    inputs: np.ndarray
    weights: np.ndarray
    input_base: int
    weight_base: int
    output_base: int
    output_length: int

    @property
    def taps(self) -> int:
        """Number of filter taps."""
        return int(self.weights.size)

    @property
    def macs(self) -> int:
        """Total multiply-accumulate operations of the workload."""
        return int(self.inputs.shape[0]) * self.output_length * self.taps

    def reference_output(self) -> np.ndarray:
        """Exact convolution result, ``(banks, output_length)``."""
        inputs = np.asarray(self.inputs, dtype=np.int64)
        windows = sliding_window_view(inputs, self.taps, axis=1)[:, : self.output_length]
        output = windows @ np.asarray(self.weights, dtype=np.int64)
        lo, hi = -(1 << 15), (1 << 15) - 1
        return np.clip(output, lo, hi)


def _convolution_source(
    taps: int, output_length: int, input_base: int, weight_base: int, output_base: int
) -> str:
    """Assembly text of the convolution with a fully unrolled tap loop.

    The tap loop is unrolled (the ASIP of the paper uses zero-overhead
    hardware loops, which this mimics), so almost every cycle of the inner
    body is a vector memory access or a vector MAC.
    """
    lines = [
        "; 1-D convolution: out[o] = sum_k w[k] * x[o + k], per memory bank",
        "    li      r1, 0              ; r1 = output index o",
        f"    li      r3, {output_length}",
        "outer:",
        "    vclr                       ; accumulator = 0",
    ]
    for tap in range(taps):
        lines.append(f"    vload   v0, r1, {input_base + tap}   ; x[o + {tap}]")
        lines.append(f"    vload   v1, r0, {weight_base + tap}  ; w[{tap}]")
        lines.append("    vmac    v0, v1")
    lines.extend(
        [
            "    vstacc  v2",
            f"    vstore  v2, r1, {output_base}",
            "    addi    r1, r1, 1",
            "    blt     r1, r3, outer",
            "    halt",
        ]
    )
    return "\n".join(lines) + "\n"


@lru_cache(maxsize=32)
def _assembled_convolution(
    taps: int, output_length: int, bases: tuple[int, int, int]
) -> tuple[tuple[Instruction, ...], tuple[tuple[str, int], ...]]:
    """Instructions and labels of one convolution program, assembled once.

    The program text depends only on these arguments, never on the data, so
    a seed sweep assembles it once per process.  Frozen instructions and a
    label tuple keep the cached value immutable.
    """
    program = assemble(_convolution_source(taps, output_length, *bases))
    return tuple(program.instructions), tuple(program.labels.items())


def convolution_kernel(
    simd_width: int,
    *,
    input_length: int = 64,
    taps: int = 9,
    seed: int = 2017,
    value_bits: int = 8,
    sparsity: float = 0.0,
) -> ConvolutionWorkload:
    """Generate a 1-D convolution workload for an ``simd_width``-lane processor.

    Parameters
    ----------
    input_length:
        Samples per bank; the output has ``input_length - taps + 1`` samples.
    taps:
        Filter length.
    value_bits:
        Magnitude of the generated data (values fit in ``value_bits`` signed
        bits so the 16-bit accumulations cannot saturate for realistic taps).
    sparsity:
        Fraction of input samples forced to zero (exercises guarding).
    """
    if input_length < taps:
        raise ValueError("input_length must be at least the number of taps")
    if not 0.0 <= sparsity <= 1.0:
        raise ValueError("sparsity must be in [0, 1]")
    rng = np.random.default_rng(seed)
    lo, hi = -(1 << (value_bits - 1)), (1 << (value_bits - 1)) - 1
    inputs = rng.integers(lo, hi + 1, size=(simd_width, input_length)).astype(np.int64)
    if sparsity > 0:
        mask = rng.random(size=inputs.shape) < sparsity
        inputs[mask] = 0
    weights = rng.integers(lo, hi + 1, size=taps).astype(np.int64)

    output_length = input_length - taps + 1
    input_base = 0
    weight_base = input_base + input_length
    output_base = weight_base + taps

    instructions, labels = _assembled_convolution(
        taps, output_length, (input_base, weight_base, output_base)
    )
    return ConvolutionWorkload(
        program=Program(instructions=list(instructions), labels=dict(labels)),
        inputs=inputs,
        weights=weights,
        input_base=input_base,
        weight_base=weight_base,
        output_base=output_base,
        output_length=output_length,
    )


def load_workload(processor: SimdProcessor, workload: ConvolutionWorkload) -> None:
    """Preload a convolution workload into the processor's memory banks."""
    if processor.simd_width != workload.inputs.shape[0]:
        raise ValueError(
            f"workload was generated for {workload.inputs.shape[0]} banks, "
            f"processor has {processor.simd_width}"
        )
    processor.memory.load_banks(workload.input_base, workload.inputs)
    processor.memory.load_banks(workload.weight_base, workload.weights)


def read_outputs(processor: SimdProcessor, workload: ConvolutionWorkload) -> np.ndarray:
    """Read the convolution outputs back from the processor memory."""
    return processor.memory.dump_banks(workload.output_base, workload.output_length)


def run_convolution(
    processor: SimdProcessor, workload: ConvolutionWorkload, *, batch: bool = True
) -> tuple[np.ndarray, ExecutionResult]:
    """Load, execute and read back a convolution workload.

    Returns the output array and the execution result with event counters.
    With ``batch=True`` (the default) the workload runs on the trace-compiled
    execution engine (:class:`~repro.simd.engine.TraceEngine`) instead of the
    cycle-level interpreter; outputs and counters are identical, only
    wall-clock differs.
    """
    load_workload(processor, workload)
    if batch:
        result = TraceEngine(processor).run(workload.program)
    else:
        result = processor.run(workload.program)
    outputs = read_outputs(processor, workload)
    return outputs, result
