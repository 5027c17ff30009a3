"""Unit and integration tests for the SIMD processor substrate."""

import gc
import weakref

import numpy as np
import pytest

from repro.simd import (
    AssemblerError,
    Opcode,
    SimdPowerModel,
    SimdProcessor,
    assemble,
    convolution_kernel,
    run_convolution,
)


class TestAssembler:
    def test_basic_program(self):
        program = assemble("li r1, 5\naddi r1, r1, 3\nhalt\n")
        assert len(program) == 3
        assert program[0].opcode == Opcode.LI

    def test_labels_and_branches(self):
        program = assemble(
            """
            li r1, 0
            loop: addi r1, r1, 1
            blt r1, r2, loop
            halt
            """
        )
        assert program.labels["loop"] == 1
        assert program[2].operands[2] == 1

    def test_comments_and_hex(self):
        program = assemble("li r1, 0x10 ; comment\n# another\nhalt\n")
        assert program[0].operands == (1, 16)

    def test_unknown_opcode(self):
        with pytest.raises(AssemblerError):
            assemble("frobnicate r1, r2\n")

    def test_undefined_label(self):
        with pytest.raises(AssemblerError):
            assemble("jmp nowhere\n")

    def test_wrong_operand_count(self):
        with pytest.raises(AssemblerError):
            assemble("add r1, r2\n")

    def test_disassembly_roundtrip_length(self):
        source = "li r1, 3\nvclr\nhalt\n"
        program = assemble(source)
        listing = program.disassemble()
        assert "vclr" in listing and "halt" in listing


class TestProcessorScalar:
    def _run(self, source):
        processor = SimdProcessor(4)
        result = processor.run(assemble(source))
        return processor, result

    def test_arithmetic(self):
        processor, _ = self._run("li r1, 7\nli r2, 5\nadd r3, r1, r2\nsub r4, r1, r2\nmul r5, r1, r2\nhalt\n")
        registers = processor.scalar_registers.dump()
        assert registers[3] == 12 and registers[4] == 2 and registers[5] == 35

    def test_r0_is_zero(self):
        processor, _ = self._run("li r0, 99\nadd r1, r0, r0\nhalt\n")
        assert processor.scalar_registers.dump()[0] == 0
        assert processor.scalar_registers.dump()[1] == 0

    def test_loop_counts_cycles(self):
        _, result = self._run(
            "li r1, 0\nli r2, 10\nloop: addi r1, r1, 1\nblt r1, r2, loop\nhalt\n"
        )
        assert result.counters.branches_taken == 9
        assert result.halted

    def test_watchdog(self):
        processor = SimdProcessor(2)
        program = assemble("loop: jmp loop\nhalt\n")
        from repro.simd import ExecutionError

        with pytest.raises(ExecutionError):
            processor.run(program, max_cycles=100)

    def test_dropped_processor_is_freed_without_the_cycle_collector(self):
        # A processor must not reference itself (e.g. through a table of
        # bound methods): its memory banks are freed by reference counting
        # the moment the last reference goes, not at the next GC pass.
        gc.disable()
        try:
            processor = SimdProcessor(8)
            processor.run(assemble("li r1, 3\nvbcast v0, r1\nvclr\nhalt\n"))
            freed = weakref.ref(processor)
            del processor
            assert freed() is None
        finally:
            gc.enable()


class TestProcessorVector:
    def test_vector_mac_pipeline(self):
        processor = SimdProcessor(4)
        processor.memory.load_banks(0, np.array([[bank + 1, 2] for bank in range(4)]))
        processor.memory.load_banks(10, np.array([3, 4]))
        program = assemble(
            """
            vclr
            vload v0, r0, 0
            vload v1, r0, 10
            vmac v0, v1
            vload v0, r0, 1
            vload v1, r0, 11
            vmac v0, v1
            vstacc v2
            vstore v2, r0, 20
            halt
            """
        )
        processor.run(program)
        outputs = processor.memory.dump_banks(20, 1)[:, 0].tolist()
        assert outputs == [(bank + 1) * 3 + 2 * 4 for bank in range(4)]

    def test_setprec_changes_mode(self):
        processor = SimdProcessor(4)
        result = processor.run(assemble("setprec 4\nhalt\n"))
        assert result.precision_bits == 4
        assert result.parallelism == 4

    def test_relu_clamps_negative(self):
        processor = SimdProcessor(2)
        processor.memory.load_banks(0, np.array([[-5], [7]]))
        processor.run(assemble("vload v0, r0, 0\nvrelu v1, v0\nvstore v1, r0, 1\nhalt\n"))
        assert processor.memory.dump_banks(1, 1).tolist() == [[0], [7]]


class TestConvolutionKernel:
    def test_output_matches_reference(self, simd_execution):
        workload, outputs, _ = simd_execution
        assert np.array_equal(outputs, workload.reference_output())

    def test_mac_count_accounting(self, simd_execution):
        workload, _, result = simd_execution
        # One VMAC instruction per (output, tap); each does one MAC per lane.
        vmacs = result.counters.opcode_histogram["vmac"]
        assert vmacs == workload.output_length * workload.taps
        assert workload.macs == vmacs * workload.inputs.shape[0]

    def test_sparsity_increases_guarding(self):
        processor = SimdProcessor(4, guard_zero_operands=True)
        workload = convolution_kernel(4, input_length=24, taps=3, sparsity=0.6, seed=3)
        run_convolution(processor, workload)
        assert processor.vector_unit.counters.guarded_macs > 0

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            convolution_kernel(4, input_length=4, taps=8)


class TestWordsProcessed:
    def test_accounts_lanes_and_parallelism(self):
        """words_processed = vector-ALU instructions x lanes x parallelism.

        Regression test: the old implementation returned the raw vector-ALU
        instruction count, ignoring both the SIMD width and the packed
        subwords despite documenting "lanes x subwords x cycles".
        """
        source = "vclr\nvbcast v0, r0\nvstacc v1\nhalt\n"
        processor = SimdProcessor(8)
        result = processor.run(assemble(source))
        assert result.counters.vector_alu_instructions == 3
        assert result.lanes == 8
        assert result.parallelism == 1
        assert result.words_processed == 3 * 8

        packed = SimdProcessor(8)
        result = packed.run(assemble("setprec 4\n" + source))
        assert result.parallelism == 4
        assert result.words_processed == 3 * 8 * 4

    def test_matches_power_model_word_accounting(self, simd_execution):
        """The per-word energy denominator of the power model must agree with
        the execution result's own word count at the executed mode."""
        from repro.simd import SimdPowerModel

        _, _, result = simd_execution
        model = SimdPowerModel(8)
        report = model.report(result, technique="DAS", precision=16)
        assert report.words == result.words_processed


class TestSimdPowerModel:
    def test_calibration_hits_reference_point(self, simd_execution):
        _, _, result = simd_execution
        model = SimdPowerModel(8)
        model.calibrate(result)
        report = model.report(result, technique="DAS", precision=16)
        assert report.power_mw == pytest.approx(36.0, rel=0.02)
        fractions = report.domain_fractions()
        assert fractions["mem"] == pytest.approx(0.31, abs=0.02)
        assert fractions["nas"] == pytest.approx(0.46, abs=0.02)
        assert fractions["as"] == pytest.approx(0.23, abs=0.02)

    def test_mode_ordering_table2(self, simd_execution):
        """Total power per mode must follow Table II: 1x16b > 1x8b > 1x4b > 2x8b > 4x4b."""
        _, _, result = simd_execution
        model = SimdPowerModel(8)
        model.calibrate(result)
        powers = [
            model.report(result, technique=tech, precision=prec).power_mw
            for tech, prec in [("DAS", 16), ("DVAS", 8), ("DVAS", 4), ("DVAFS", 8), ("DVAFS", 4)]
        ]
        assert powers == sorted(powers, reverse=True)

    def test_dvafs_4b_saves_at_least_80_percent(self, simd_execution):
        """The paper reports ~85 % energy reduction at 4x4b for the SW=8 processor."""
        _, _, result = simd_execution
        model = SimdPowerModel(8)
        model.calibrate(result)
        baseline = model.report(result, technique="DAS", precision=16)
        dvafs = model.report(result, technique="DVAFS", precision=4)
        saving = 1.0 - dvafs.energy_per_word_pj / baseline.energy_per_word_pj
        assert saving > 0.80

    def test_memory_fraction_grows_in_subword_modes(self, simd_execution):
        _, _, result = simd_execution
        model = SimdPowerModel(8)
        model.calibrate(result)
        base = model.report(result, technique="DAS", precision=16).domain_fractions()["mem"]
        dvafs = model.report(result, technique="DVAFS", precision=4).domain_fractions()["mem"]
        assert dvafs > base

    def test_unknown_precision_rejected(self, simd_execution):
        _, _, result = simd_execution
        model = SimdPowerModel(8)
        with pytest.raises(KeyError):
            model.report(result, technique="DAS", precision=5)

    def test_unknown_technique_rejected(self, simd_execution):
        _, _, result = simd_execution
        model = SimdPowerModel(8)
        with pytest.raises(ValueError):
            model.report(result, technique="DVFS")


class TestCompileOnce:
    """The convolution program is assembled and analysed once per process."""

    def test_table2_sweep_assembles_and_analyses_once(self, monkeypatch):
        import random

        from repro.experiments import table2
        from repro.simd import engine, kernels

        calls = {"assemble": 0, "analyze": 0}

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(kernels, "assemble", counted("assemble", kernels.assemble))
        monkeypatch.setattr(engine, "basic_blocks", counted("analyze", engine.basic_blocks))
        kernels._assembled_convolution.cache_clear()
        engine._analyze_instructions.cache_clear()
        engine._TRACES_BY_IDENTITY.clear()
        try:
            programs = set()
            for seed in random.Random("sweep:1").sample(range(1, 1_000_000), 128):
                table2.run(seed=seed)
            for simd_width in table2.PARAMS["simd_widths"]:
                workload = convolution_kernel(simd_width, input_length=48, taps=9)
                programs.add(tuple(workload.program.instructions))
        finally:
            kernels._assembled_convolution.cache_clear()
            engine._analyze_instructions.cache_clear()
            engine._TRACES_BY_IDENTITY.clear()
        # Both SIMD widths run the same program text: the buffer bases
        # depend on the input length and tap count only.
        assert len(programs) == 1
        assert calls == {"assemble": len(programs), "analyze": len(programs)}

    def test_mutating_a_program_does_not_poison_the_next(self):
        first = convolution_kernel(4, input_length=12, taps=3)
        pristine = list(first.program.instructions)
        first.program.instructions.clear()
        first.program.labels["outer"] = 99
        second = convolution_kernel(4, input_length=12, taps=3)
        assert second.program.instructions == pristine
        assert second.program.labels == {"outer": 2}
        assert second.program.instructions is not first.program.instructions

    def test_analysis_callers_get_their_own_trace_map(self):
        from repro.simd import analyze_program

        program = convolution_kernel(4, input_length=12, taps=3).program
        traces = analyze_program(program)
        traces.clear()
        assert list(analyze_program(program)) == [2]

    def test_execution_leaves_the_memoised_traces_untouched(self):
        import copy

        from repro.simd import TraceEngine, analyze_program

        workload = convolution_kernel(4, input_length=12, taps=3, seed=5)
        before = copy.deepcopy(analyze_program(workload.program))
        for precision in (16, 4):
            processor = SimdProcessor(4)
            processor.set_precision(precision)
            run_convolution(processor, workload)
            TraceEngine(processor).run(workload.program)
        assert analyze_program(workload.program) == before

    def test_batch_and_interpreted_table2_rows_agree(self, monkeypatch):
        from repro.experiments import table2

        engine_rows = {seed: table2.run(seed=seed) for seed in (3, 2017, 424242)}
        monkeypatch.setattr(
            table2, "run_convolution", lambda processor, workload: run_convolution(processor, workload, batch=False)
        )
        for seed, rows in engine_rows.items():
            assert table2.run(seed=seed) == rows

    def test_reference_output_matches_the_windowed_sum(self):
        workload = convolution_kernel(3, input_length=20, taps=6, seed=9, value_bits=16)
        expected = np.zeros((3, workload.output_length), dtype=np.int64)
        for position in range(workload.output_length):
            window = workload.inputs[:, position : position + workload.taps]
            expected[:, position] = window @ workload.weights
        expected = np.clip(expected, -(1 << 15), (1 << 15) - 1)
        assert (np.abs(expected) >= (1 << 15) - 1).any()  # the clip is exercised
        assert np.array_equal(workload.reference_output(), expected)


class TestPreload:
    """``load_banks`` checks capacity and the signed word range, then writes once."""

    @pytest.mark.parametrize(
        "address, values, error, message",
        [
            (10, np.ones((2, 7), dtype=np.int64), IndexError, "exceeds bank capacity"),  # 10 + 7 > 16
            (-1, np.ones((2, 3), dtype=np.int64), IndexError, "exceeds bank capacity"),
            (0, np.full((2, 3), 1 << 15), ValueError, "fit in 16 signed bits"),
            (0, np.full((2, 3), -(1 << 15) - 1), ValueError, "fit in 16 signed bits"),
            (0, np.zeros((3, 4), dtype=np.int64), ValueError, "one row per bank"),
        ],
    )
    def test_rejects_without_writing(self, address, values, error, message):
        from repro.simd.memory import BankedMemory

        memory = BankedMemory(2, 16)
        with pytest.raises(error, match=message):
            memory.load_banks(address, values)
        assert not memory._storage.any()  # nothing written on failure

    def test_rows_per_bank_and_one_broadcast_row(self):
        from repro.simd.memory import BankedMemory

        rows = np.arange(-12, 12).reshape(3, 8)
        extremes = np.array([-(1 << 15), (1 << 15) - 1])
        memory = BankedMemory(3, 16)
        memory.load_banks(4, rows)
        memory.load_banks(12, extremes)
        expected = np.zeros((3, 16), dtype=np.int64)
        expected[:, 4:12] = rows
        expected[:, 12:14] = extremes
        assert np.array_equal(memory._storage, expected)

    def test_dump_banks_reads_back_without_counting(self):
        from repro.simd.memory import BankedMemory

        rows = np.arange(-12, 12).reshape(3, 8)
        memory = BankedMemory(3, 16)
        memory.load_banks(4, rows)
        dumped = memory.dump_banks(4, 8)
        assert np.array_equal(dumped, rows)
        dumped[:] = 0  # a copy: the banks keep their words
        assert np.array_equal(memory.dump_banks(4, 8), rows)
        assert memory.dump_banks(16, 0).shape == (3, 0)
        assert memory.counters.accesses == 0

    @pytest.mark.parametrize("address, count", [(10, 7), (-1, 3), (0, -1)])
    def test_dump_banks_rejects_out_of_capacity(self, address, count):
        from repro.simd.memory import BankedMemory

        with pytest.raises(IndexError, match="exceeds bank capacity"):
            BankedMemory(2, 16).dump_banks(address, count)


class TestFastPathInvariants:
    """The invariants the trace engine's VLOAD and VMAC fast paths rely on."""

    def test_registers_and_memory_share_the_word_width(self):
        # VLOAD skips the element wrap because a loaded word already fits.
        for word_bits in (16, 12, 8):
            processor = SimdProcessor(3, word_bits=word_bits)
            for _ in range(2):
                assert processor.vector_registers.element_bits == processor.memory.word_bits
                processor.reset(keep_memory=False)

    def test_every_memory_write_is_range_checked(self):
        from repro.simd.memory import BankedMemory

        memory = BankedMemory(2, 8)
        for too_wide in ((1 << 15), -(1 << 15) - 1):
            with pytest.raises(ValueError):
                memory.write_vector(0, np.array([0, too_wide]))
            with pytest.raises(ValueError):
                memory.load_banks(0, np.array([[0], [too_wide]]))
        assert not memory._storage.any()

    def test_single_subword_unpack_is_a_trailing_axis(self):
        processor = SimdProcessor(5)
        unit = processor.vector_unit
        for precision in (16, 12):  # 12 b does not divide 16: one subword
            processor.set_precision(precision)
            assert unit.mode.parallelism == 1
            # Register writes wrap into the element range ...
            processor.vector_registers.write(0, np.array([-(1 << 15), -1, 0, 1 << 15, 70000]))
            held = processor.vector_registers.read(0)
            assert held.min() >= -(1 << 15) and held.max() <= (1 << 15) - 1
            # ... where unpacking one subword changes nothing.
            extremes = np.array([[-(1 << 15), -1, 0, 1, (1 << 15) - 1]])
            for values in (extremes, held[None]):
                assert np.array_equal(unit.unpack(values), values[..., None])

    @pytest.mark.parametrize("bits", [2, 16, 47, 48, 62, 63])
    def test_array_wrap_matches_the_scalar_wrap(self, bits):
        # Engine and interpreter share ``_wrap_array``, so the differential
        # suite cannot see a fault in it; the scalar ``wrap_signed`` can.
        from repro.arithmetic.fixed_point import wrap_signed
        from repro.simd.register_file import _wrap_array

        extremes = [-(1 << 63), (1 << 63) - 1, 0, -1, 1]
        edges = [
            sign * (1 << shift) + delta
            for shift in (15, 46, 47, 48, 61, 62)
            for sign in (1, -1)
            for delta in (-1, 0, 1)
        ]
        randoms = np.random.default_rng(bits).integers(-(1 << 63), (1 << 63) - 1, size=200, dtype=np.int64).tolist()
        values = extremes + [v for v in edges if -(1 << 63) <= v < (1 << 63)] + randoms
        expected = values if bits >= 63 else [wrap_signed(value, bits) for value in values]
        assert _wrap_array(np.array(values, dtype=np.int64), bits).tolist() == expected

    @pytest.mark.parametrize("precision", [16, 8, 4])
    def test_a_subword_product_is_zero_exactly_where_an_operand_is(self, precision):
        # VMAC counts the guard from its products instead of the operands:
        # subword products are exact in int64, so no non-zero pair cancels.
        unit = SimdProcessor(1).vector_unit
        unit.set_precision(precision)
        words = np.array([-(1 << 15), -(1 << 15) + 1, -1, 0, 1, 0x0101, 0x1000, (1 << 15) - 1])
        a, b = np.meshgrid(words, words)
        sub_a, sub_b = unit.unpack(a), unit.unpack(b)
        assert np.array_equal(sub_a * sub_b == 0, (sub_a == 0) | (sub_b == 0))
