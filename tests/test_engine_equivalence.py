"""Differential suite: trace-compiled engine vs the cycle-level interpreter.

The interpreter (:meth:`SimdProcessor.run`) is the golden reference; every
test runs the same program on two identically-prepared processors -- one
through the interpreter, one through :class:`TraceEngine` -- and demands
*bit-identical* outcomes: execution counters, opcode histograms, memory
contents and access counters, vector-unit counters (including the
data-dependent zero-operand guard counts), architectural register state and
register-file access counts.  Programs the engine cannot vectorise must fall
back to interpretation and still satisfy the same property.
"""

from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.simd import (
    ExecutionError,
    Opcode,
    SimdProcessor,
    TraceEngine,
    analyze_program,
    assemble,
    basic_blocks,
    convolution_kernel,
    run_convolution,
)

INPUT_BASE = 0
INPUT_WORDS = 64
WEIGHT_BASE = 100
OUTPUT_BASE = 200


def _prepare(simd_width: int, precision: int, preload: np.ndarray, *, guard: bool = True):
    processor = SimdProcessor(simd_width, guard_zero_operands=guard)
    if precision != 16:
        processor.set_precision(precision)
    processor.memory.load_banks(INPUT_BASE, preload)
    return processor


def _assert_identical(interpreter, engine, expected, result):
    assert asdict(result.counters) == asdict(expected.counters)
    assert (result.halted, result.precision_bits, result.parallelism, result.lanes) == (
        expected.halted,
        expected.precision_bits,
        expected.parallelism,
        expected.lanes,
    )
    assert np.array_equal(engine.memory._storage, interpreter.memory._storage)
    assert asdict(engine.memory.counters) == asdict(interpreter.memory.counters)
    assert asdict(engine.vector_unit.counters) == asdict(interpreter.vector_unit.counters)
    assert engine.scalar_registers.dump() == interpreter.scalar_registers.dump()
    assert np.array_equal(
        engine.vector_registers._registers, interpreter.vector_registers._registers
    )
    assert np.array_equal(
        engine.vector_registers.accumulators, interpreter.vector_registers.accumulators
    )
    assert (engine.scalar_registers.reads, engine.scalar_registers.writes) == (
        interpreter.scalar_registers.reads,
        interpreter.scalar_registers.writes,
    )
    assert (engine.vector_registers.reads, engine.vector_registers.writes) == (
        interpreter.vector_registers.reads,
        interpreter.vector_registers.writes,
    )


def run_differential(
    source: str,
    *,
    simd_width: int = 4,
    precision: int = 16,
    preload: np.ndarray | None = None,
    max_cycles: int = 2_000_000,
    guard: bool = True,
):
    """Run ``source`` on interpreter and engine; assert bit-identical state."""
    program = assemble(source)
    if preload is None:
        preload = np.zeros((simd_width, INPUT_WORDS), dtype=np.int64)
    interpreter = _prepare(simd_width, precision, preload, guard=guard)
    engine_host = _prepare(simd_width, precision, preload, guard=guard)
    expected = interpreter.run(program, max_cycles=max_cycles)
    result = TraceEngine(engine_host).run(program, max_cycles=max_cycles)
    _assert_identical(interpreter, engine_host, expected, result)
    return program, expected


# -- randomized loop programs -------------------------------------------------


#: The signed 16-bit word range's end points (and their neighbours).
WORD_EXTREMES = np.array([-(1 << 15), -(1 << 15) + 1, -1, 0, 1, (1 << 15) - 2, (1 << 15) - 1])


@st.composite
def loop_programs(draw, extremes: bool = False):
    """A random (source, simd_width, precision, preload) loop program.

    The generator biases toward analyzable affine loops (loads/stores off the
    induction register, MAC/ALU mixes, optional VCLR/VSTACC) but can also
    inject constructs the engine must refuse -- extra scalar writes, a second
    induction update, colliding stores -- exercising the interpreter fallback
    under the same differential property.  With ``extremes`` every preloaded
    word sits at or next to an end of the word range, so induction-indexed
    and constant-address (``r0``) loads feed the engine's VLOAD and VMAC fast
    paths the values they are most likely to get wrong.
    """
    simd_width = draw(st.sampled_from([2, 8, 64]))
    precision = draw(st.sampled_from([16, 8, 4]))
    iterations = draw(st.integers(min_value=1, max_value=6))
    step = draw(st.sampled_from([1, 2]))
    use_bne = draw(st.booleans())
    sparsity = draw(st.sampled_from([0.0, 0.5]))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))

    rng = np.random.default_rng(seed)
    if extremes:
        preload = rng.choice(WORD_EXTREMES, size=(simd_width, INPUT_WORDS))
    else:
        preload = rng.integers(-(1 << 15), 1 << 15, size=(simd_width, INPUT_WORDS))
    preload[rng.random(size=preload.shape) < sparsity] = 0

    lines = [
        "    li r1, 0",
        f"    li r3, {iterations * step}",
        f"    li r2, {draw(st.integers(min_value=-40, max_value=40))}",
        "loop:",
    ]
    if draw(st.booleans()):
        lines.append("    vclr")
    written = []
    operation_count = draw(st.integers(min_value=2, max_value=7))
    stores = 0
    for _ in range(operation_count):
        kind = draw(
            st.sampled_from(
                ["vload", "vbcast", "vmac", "vmul", "vadd", "vrelu", "vstacc", "vstore"]
            )
        )
        if kind == "vload":
            register = draw(st.integers(min_value=0, max_value=5))
            base = draw(st.sampled_from(["r0", "r1"]))
            offset = draw(st.integers(min_value=0, max_value=INPUT_WORDS - 16))
            lines.append(f"    vload v{register}, {base}, {offset}")
            written.append(register)
        elif kind == "vbcast":
            register = draw(st.integers(min_value=0, max_value=5))
            lines.append(f"    vbcast v{register}, {draw(st.sampled_from(['r1', 'r2']))}")
            written.append(register)
        elif kind == "vmac":
            a = draw(st.integers(min_value=0, max_value=5))
            b = draw(st.integers(min_value=0, max_value=5))
            lines.append(f"    vmac v{a}, v{b}")
        elif kind in ("vmul", "vadd"):
            d = draw(st.integers(min_value=0, max_value=5))
            a = draw(st.integers(min_value=0, max_value=5))
            b = draw(st.integers(min_value=0, max_value=5))
            lines.append(f"    {kind} v{d}, v{a}, v{b}")
            written.append(d)
        elif kind == "vrelu":
            d = draw(st.integers(min_value=0, max_value=5))
            a = draw(st.integers(min_value=0, max_value=5))
            lines.append(f"    vrelu v{d}, v{a}")
            written.append(d)
        elif kind == "vstacc":
            d = draw(st.integers(min_value=0, max_value=5))
            lines.append(f"    vstacc v{d}")
            written.append(d)
        elif kind == "vstore":
            register = draw(st.sampled_from(written)) if written else 0
            lines.append(f"    vstore v{register}, r1, {OUTPUT_BASE + 16 * stores}")
            stores += 1
    poison = draw(st.sampled_from(["none", "none", "none", "scalar", "double-addi", "collision"]))
    if poison == "scalar":
        lines.append("    add r4, r1, r1")
    elif poison == "collision":
        lines.append(f"    vstore v{written[0] if written else 0}, r0, {OUTPUT_BASE + 90}")
        lines.append(f"    vstore v{written[0] if written else 0}, r0, {OUTPUT_BASE + 90}")
    lines.append(f"    addi r1, r1, {step}")
    if poison == "double-addi":
        lines.append("    addi r1, r1, 0")  # second write to the induction register
    lines.append(f"    {'bne' if use_bne else 'blt'} r1, r3, loop")
    lines.append("    halt")
    return "\n".join(lines) + "\n", simd_width, precision, preload


class TestRandomizedLoops:
    @settings(max_examples=60, deadline=None)
    @given(data=loop_programs())
    def test_engine_matches_interpreter(self, data):
        source, simd_width, precision, preload = data
        run_differential(
            source, simd_width=simd_width, precision=precision, preload=preload
        )

    @settings(max_examples=20, deadline=None)
    @given(data=loop_programs(), guard=st.booleans())
    def test_guarding_toggle(self, data, guard):
        source, simd_width, precision, preload = data
        run_differential(
            source, simd_width=simd_width, precision=precision, preload=preload, guard=guard
        )


class TestWordRangeExtremes:
    """Loaded words at -32768 / 32767: the engine skips the VLOAD wrap and,
    with one subword per word, the VMAC unpack -- it must still match the
    interpreter bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(data=loop_programs(extremes=True))
    def test_engine_matches_interpreter(self, data):
        source, simd_width, precision, preload = data
        run_differential(
            source, simd_width=simd_width, precision=precision, preload=preload
        )

    @pytest.mark.parametrize("precision", [16, 12, 8, 4])
    def test_constant_and_induction_loads_at_the_extremes(self, precision):
        lanes = 4
        # A checkerboard of -32768 and 32767 over lanes and addresses.
        parity = np.add.outer(np.arange(lanes), np.arange(INPUT_WORDS)) % 2
        preload = np.where(parity == 0, WORD_EXTREMES[0], WORD_EXTREMES[-1])
        source = (
            "    li r1, 0\n    li r3, 5\nloop:\n    vclr\n"
            "    vload v0, r1, 0\n    vload v1, r0, 0\n    vload v2, r0, 1\n"
            "    vmac v0, v1\n    vmac v2, v2\n    vmac v0, v0\n"
            "    vadd v3, v0, v1\n    vmul v4, v0, v2\n"
            "    vstacc v5\n    vstore v5, r1, 200\n    vstore v0, r1, 216\n"
            "    vstore v3, r1, 232\n    vstore v4, r1, 248\n"
            "    addi r1, r1, 1\n    blt r1, r3, loop\n    halt\n"
        )
        program, _ = run_differential(
            source, simd_width=lanes, precision=precision, preload=preload
        )
        assert list(analyze_program(program)) == [2]  # vectorised, not interpreted


class TestConvolutionWorkloads:
    @pytest.mark.parametrize("simd_width", [8, 64])
    @pytest.mark.parametrize("precision", [16, 8, 4])
    @pytest.mark.parametrize("sparsity", [0.0, 0.4])
    def test_generated_kernels(self, simd_width, precision, sparsity):
        workload = convolution_kernel(
            simd_width, input_length=24, taps=5, seed=13, sparsity=sparsity
        )
        interpreter = SimdProcessor(simd_width)
        interpreter.set_precision(precision)
        expected_outputs, expected = run_convolution(interpreter, workload, batch=False)
        engine_host = SimdProcessor(simd_width)
        engine_host.set_precision(precision)
        outputs, result = run_convolution(engine_host, workload, batch=True)
        assert np.array_equal(outputs, expected_outputs)
        _assert_identical(interpreter, engine_host, expected, result)

    def test_convolution_loop_is_vectorised(self):
        """The generated kernel's output loop must be found by the analysis
        (guarding against silently falling back to interpretation)."""
        workload = convolution_kernel(8, input_length=32, taps=5)
        traces = analyze_program(workload.program)
        assert len(traces) == 1
        (trace,) = traces.values()
        assert trace.compare is Opcode.BLT
        assert trace.step == 1
        assert Opcode.VMAC.value in trace.opcode_counts


class TestAccumulatorPaths:
    def test_carry_across_iterations_without_vclr(self):
        """No VCLR anywhere: VSTACC sees the cross-iteration running sum."""
        preload = np.arange(1, 4 * INPUT_WORDS + 1).reshape(4, INPUT_WORDS) % 97
        run_differential(
            """
            li r1, 0
            li r3, 6
            li r2, 3
            vbcast v1, r2
            loop:
            vload v0, r1, 0
            vmac v0, v1
            vstacc v2
            vstore v2, r1, 200
            addi r1, r1, 1
            blt r1, r3, loop
            halt
            """,
            preload=preload,
        )

    def test_entry_accumulators_with_trailing_vclr(self):
        """VSTACC before a later VCLR: only iteration 0 sees the pre-loop
        accumulator value, later iterations carry in zero."""
        preload = (np.arange(4 * INPUT_WORDS).reshape(4, INPUT_WORDS) * 7 - 300) % 251
        run_differential(
            """
            li r1, 0
            li r3, 5
            li r2, 11
            vbcast v1, r2
            vload v0, r0, 3
            vmac v0, v1              ; pre-loop accumulator carry-in
            loop:
            vload v0, r1, 4
            vmac v0, v1
            vstacc v2
            vstore v2, r1, 200
            vclr
            addi r1, r1, 1
            blt r1, r3, loop
            halt
            """,
            preload=preload,
        )

    def test_vclr_per_iteration(self):
        """The convolution shape: VCLR at the top of every iteration."""
        preload = np.arange(4 * INPUT_WORDS).reshape(4, INPUT_WORDS) % 89 - 44
        run_differential(
            """
            li r1, 0
            li r3, 7
            li r2, -5
            vbcast v1, r2
            loop:
            vclr
            vload v0, r1, 0
            vmac v0, v1
            vload v0, r1, 1
            vmac v0, v1
            vstacc v2
            vstore v2, r1, 210
            addi r1, r1, 1
            blt r1, r3, loop
            halt
            """,
            preload=preload,
        )


class TestInterpreterFallback:
    def test_loop_carried_memory_dependency(self):
        """A shift-register loop (stores feed next iteration's loads) aliases
        load and store ranges; vectorising it would be wrong, so the engine
        must interpret it -- and still match bit for bit."""
        preload = np.arange(1, 4 * INPUT_WORDS + 1).reshape(4, INPUT_WORDS) % 113
        program, _ = run_differential(
            """
            li r1, 0
            li r3, 8
            loop:
            vload v0, r1, 0
            vstore v0, r1, 1      ; overwrites the next iteration's input
            addi r1, r1, 1
            blt r1, r3, loop
            halt
            """,
            preload=preload,
        )
        assert analyze_program(program)  # analyzable statically ...
        # ... yet the runtime alias check must reject it (the differential
        # equality above proves the fallback executed).

    def test_store_store_collision_falls_back(self):
        run_differential(
            """
            li r1, 0
            li r3, 4
            loop:
            vload v0, r1, 0
            vstore v0, r0, 290
            vstore v0, r0, 290
            addi r1, r1, 1
            blt r1, r3, loop
            halt
            """,
            preload=np.arange(4 * INPUT_WORDS).reshape(4, INPUT_WORDS) % 61,
        )

    def test_scalar_body_writes_fall_back(self):
        run_differential(
            """
            li r1, 0
            li r3, 5
            loop:
            add r4, r1, r1
            vload v0, r4, 0
            vstore v0, r1, 220
            addi r1, r1, 1
            blt r1, r3, loop
            halt
            """,
            preload=np.arange(4 * INPUT_WORDS).reshape(4, INPUT_WORDS) % 31,
        )

    def test_nested_loops_vectorise_inner(self):
        """Outer loop is interpreted (it contains a branch), the inner loop
        is re-vectorised at each outer iteration with fresh entry state."""
        preload = (np.arange(4 * INPUT_WORDS).reshape(4, INPUT_WORDS) * 3) % 127
        source = """
            li r5, 0               ; outer counter
            li r6, 3
            li r7, 0               ; output cursor
            outer:
            li r1, 0
            li r3, 4
            inner:
            vload v0, r1, 0
            vrelu v1, v0
            vstore v1, r7, 230
            addi r7, r7, 1
            addi r1, r1, 1
            blt r1, r3, inner
            addi r5, r5, 1
            blt r5, r6, outer
            halt
            """
        program, _ = run_differential(source, preload=preload)
        # r7 advances too -> two scalar writers -> inner loop not analyzable,
        # but a single-writer variant is; check the analysis finds the outer
        # structure sanely on the simpler shape.
        simple = assemble(
            """
            li r1, 0
            li r3, 4
            inner:
            vload v0, r1, 0
            vrelu v1, v0
            vstore v1, r1, 230
            addi r1, r1, 1
            blt r1, r3, inner
            halt
            """
        )
        assert list(analyze_program(simple)) == [2]

    def test_watchdog_parity(self):
        program = assemble("loop: jmp loop\nhalt\n")
        with pytest.raises(ExecutionError):
            SimdProcessor(2).run(program, max_cycles=64)
        with pytest.raises(ExecutionError):
            TraceEngine(SimdProcessor(2)).run(program, max_cycles=64)

    def test_unreachable_bne_bound_watchdogs(self):
        """A BNE loop that never hits its bound has no finite trip count; the
        engine must refuse to vectorise and hit the watchdog exactly like the
        interpreter."""
        source = "li r1, 0\nli r3, 3\nloop: addi r1, r1, 2\nbne r1, r3, loop\nhalt\n"
        program = assemble(source)
        with pytest.raises(ExecutionError, match="watchdog"):
            SimdProcessor(2).run(program, max_cycles=100)
        with pytest.raises(ExecutionError, match="watchdog"):
            TraceEngine(SimdProcessor(2)).run(program, max_cycles=100)

    def test_empty_program_rejected(self):
        from repro.simd import Program

        with pytest.raises(ExecutionError):
            TraceEngine(SimdProcessor(2)).run(Program())

    def test_out_of_range_address_parity(self):
        source = """
            li r1, 0
            li r3, 4
            loop:
            vload v0, r1, 4094
            addi r1, r1, 1
            blt r1, r3, loop
            halt
            """
        program = assemble(source)
        with pytest.raises(IndexError):
            SimdProcessor(2).run(program)
        with pytest.raises(IndexError):
            TraceEngine(SimdProcessor(2)).run(program)


class TestCountdownLoops:
    def test_bne_countdown(self):
        run_differential(
            """
            li r1, 10
            loop:
            vload v0, r1, 0
            vstore v0, r1, 240
            addi r1, r1, -1
            bne r1, r0, loop
            halt
            """,
            preload=np.arange(4 * INPUT_WORDS).reshape(4, INPUT_WORDS) % 19,
        )

    def test_blt_bound_first_decreasing(self):
        run_differential(
            """
            li r1, 12
            li r3, 2
            loop:
            vload v0, r1, 0
            vrelu v1, v0
            vstore v1, r1, 250
            addi r1, r1, -2
            blt r3, r1, loop
            halt
            """,
            preload=np.arange(4 * INPUT_WORDS).reshape(4, INPUT_WORDS) % 23 - 11,
        )


class TestBasicBlocks:
    def test_convolution_program_blocks(self):
        workload = convolution_kernel(4, input_length=16, taps=3)
        blocks = basic_blocks(workload.program)
        starts = [block.start for block in blocks]
        assert starts[0] == 0
        assert all(blocks[i].end + 1 == blocks[i + 1].start for i in range(len(blocks) - 1))
        assert blocks[-1].end == len(workload.program) - 1
        # Loop header (pc 2) must lead a block.
        assert 2 in starts

    def test_empty_program(self):
        from repro.simd import Program

        assert basic_blocks(Program()) == []
