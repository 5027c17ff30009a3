"""Tests for the cross-experiment artifact graph (PR 5).

Covered here:

* the content-addressed :class:`~repro.runner.artifacts.ArtifactStore`
  (round trips, corruption-as-miss, name validation, listings, clearing);
* artifact keying (schema + name + canonical params + producer fingerprint);
* resolvers: inline compute without a store, compute-once/replay with one;
* the registry's ``ARTIFACTS`` declarations and the runner's deduplicated
  producer/consumer plan (``when`` gating, ``after`` levels, error cases);
* cold-run reuse: ``characterize_multiplier`` executes exactly once for the
  table1/fig2/fig3 batch, rows stay bit-identical to the no-reuse serial
  path, and ``jobs=2`` matches ``jobs=1`` byte for byte;
* invalidation chains: an (simulated) edit to ``repro.core.scaling``
  invalidates the characterization artifact and its three consumers' cached
  results while unrelated entries survive;
* the incremental (lockstep) precision search yields the same profile rows
  as the full-forward reference, starts each layer's probes from its exact
  unquantised prefix input, runs one merged unquantised pass per step,
  leaves every layer's weights bit-identical, probes dense layers block by
  block without a weight-sized allocation, probes each candidate first on
  miss allowance + 2 rows (work counters pinned), matches the reference on
  random small nets (a hypothesis property), and the quantisation fast paths
  it leans on are bit-identical;
* ``python -m repro cache stats`` round trips and ``cache clear`` resets.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.runner.artifacts as artifacts_module
import repro.runner.service as service_module
from repro.core import scaling as scaling_module
from repro.nn import PrecisionSearch
from repro.nn.precision_search import _mean_magnitude
from repro.nn.quantization import QuantizationConfig, quantization_scale, quantize
from repro.runner import ExperimentRunner, MemoryBackend, ResultCache
from repro.runner.artifacts import (
    ArtifactEntry,
    ArtifactStore,
    activated,
    active_store,
    artifact_key,
    canonical_params_json,
    load_producer,
    load_stats,
    record_stats,
    reset_stats,
    resolve_artifact,
    StoreStats,
)
from repro.runner.cli import main
from repro.runner.fingerprint import code_fingerprint, module_closure
from repro.runner.registry import build_registry

#: Reduced characterization workload shared by the reuse tests.
CHAR_PARAMS = {"samples": 40, "seed": 11}


def _entry(payload, *, artifact="unit", params=None):
    return ArtifactEntry(
        artifact=artifact,
        params=dict(params or {}),
        fingerprint="f" * 64,
        payload=payload,
        elapsed_seconds=0.25,
    )


class TestArtifactStore:
    def test_put_get_round_trip_preserves_numpy_payloads(self, tmp_path):
        store = ArtifactStore(tmp_path)
        payload = {"values": np.linspace(0.0, 1.0, 17), "count": 3}
        key = artifact_key("unit", {"a": 1}, "f" * 64)
        store.put(key, _entry(payload, params={"a": 1}))
        loaded = store.get("unit", key)
        assert loaded is not None
        assert loaded.params == {"a": 1}
        assert loaded.elapsed_seconds == 0.25
        np.testing.assert_array_equal(loaded.payload["values"], payload["values"])
        assert loaded.payload["values"].tobytes() == payload["values"].tobytes()

    def test_missing_and_corrupt_entries_are_misses(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = "0" * 64
        assert store.get("unit", key) is None
        path = tmp_path / "unit" / f"{key}.pkl"
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not a pickle")
        assert store.get("unit", key) is None
        # The corrupt entry is quarantined aside, so the next probe is a
        # clean miss and the producer recomputes into a fresh entry.
        assert not path.exists()
        assert (tmp_path / "corrupt" / "unit" / f"{key}.pkl").exists()
        drained = store.drain_stats()
        assert drained["artifact_corrupt"] == 1 and drained["quarantined"] == 1
        assert not store.exists("unit", key)

    def test_wrong_schema_version_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = "1" * 64
        store.put(key, _entry("payload"))
        import pickle

        path = tmp_path / "unit" / f"{key}.pkl"
        document = pickle.loads(path.read_bytes())
        document["schema"] = -1
        path.write_bytes(pickle.dumps(document))
        assert store.get("unit", key) is None

    def test_invalid_artifact_names_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        for bad in ("", ".", "..", "a/b", "../escape"):
            with pytest.raises(ValueError):
                store.get(bad, "0" * 64)

    def test_ls_and_clear(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("k1" * 32, _entry(1, artifact="alpha"))
        store.put("k2" * 32, _entry(2, artifact="beta"))
        listing = store.ls()
        assert [row["artifact"] for row in listing] == ["alpha", "beta"]
        assert all(row["size_bytes"] > 0 for row in listing)
        assert store.clear("alpha") == 1
        assert [row["artifact"] for row in store.ls()] == ["beta"]
        assert store.clear() == 1
        assert store.ls() == []


class TestKeys:
    def test_canonical_params_json_sorts_and_unpacks_tuples(self):
        assert (
            canonical_params_json({"b": (1, 2), "a": 3})
            == '{"a":3,"b":[1,2]}'
        )

    def test_key_sensitivity(self):
        base = artifact_key("char", {"samples": 10}, "a" * 64)
        assert base == artifact_key("char", {"samples": 10}, "a" * 64)
        assert base != artifact_key("char2", {"samples": 10}, "a" * 64)
        assert base != artifact_key("char", {"samples": 11}, "a" * 64)
        assert base != artifact_key("char", {"samples": 10}, "b" * 64)

    def test_load_producer_validates(self):
        assert callable(load_producer("repro.core.scaling:characterization_artifact"))
        with pytest.raises(ValueError):
            load_producer("repro.core.scaling")
        with pytest.raises(TypeError):
            load_producer("repro.core.scaling:PAPER_NODE")


class TestResolve:
    def test_no_store_computes_inline_every_time(self):
        calls = []

        def producer(*, x):
            calls.append(x)
            return x * 2

        assert active_store() is None
        assert resolve_artifact("demo", {"x": 3}, producer=producer) == 6
        assert resolve_artifact("demo", {"x": 3}, producer=producer) == 6
        assert calls == [3, 3]

    def test_store_computes_once_then_replays(self, tmp_path):
        calls = []

        def producer(*, x):
            calls.append(x)
            return {"doubled": np.arange(x, dtype=np.float64) * 2.0}

        store = ArtifactStore(tmp_path)
        with activated(store):
            first = resolve_artifact("demo", {"x": 5}, producer=producer)
            second = resolve_artifact("demo", {"x": 5}, producer=producer)
        assert calls == [5]
        assert first["doubled"].tobytes() == second["doubled"].tobytes()

    def test_stats_round_trip(self, tmp_path):
        empty = load_stats(tmp_path).to_document()
        assert set(empty) == set(StoreStats.FIELDS)
        assert all(value == 0 for value in empty.values())
        assert record_stats(tmp_path, StoreStats(result_hits=2, artifact_misses=1)) is None
        record_stats(tmp_path, StoreStats(result_misses=1, artifact_hits=4))
        total = load_stats(tmp_path)
        assert total.result_hits == 2 and total.result_misses == 1
        assert total.artifact_hits == 4 and total.artifact_misses == 1
        assert load_stats(tmp_path).artifact_hits == 4
        reset_stats(tmp_path)
        assert load_stats(tmp_path).result_hits == 0


class TestRegistryArtifacts:
    def test_characterization_consumers_declare_shared_artifact(self):
        registry = build_registry()
        for name in ("table1", "fig2", "fig3"):
            binding = registry[name].artifacts["multiplier_characterization"]
            assert binding.producer == "repro.core.scaling:characterization_artifact"
            assert binding.params == ("samples", "seed")
            assert binding.level == 0

    def test_fig6_declares_two_wave_dag(self):
        registry = build_registry()
        bindings = registry["fig6"].artifacts
        assert bindings["lenet_state"].level == 0
        assert bindings["fig6_lenet_profile"].level == 1
        assert bindings["fig6_lenet_profile"].after == ("lenet_state",)
        assert bindings["fig6_alexnet_profile"].level == 0

    def test_table3_artifact_gated_on_from_substrate(self):
        registry = build_registry()
        binding = registry["table3"].artifacts["table3_substrate_workloads"]
        assert binding.when == "from_substrate"

    def test_plan_dedupes_shared_units_and_honours_when(self, tmp_path):
        runner = ExperimentRunner(cache=ResultCache(tmp_path))
        cold = [
            ("table1", runner.spec("table1").canonical_config(CHAR_PARAMS)),
            ("fig2", runner.spec("fig2").canonical_config(CHAR_PARAMS)),
            ("fig3", runner.spec("fig3").canonical_config({**CHAR_PARAMS, "rmse_samples": 50})),
            ("table3", runner.spec("table3").canonical_config({})),  # from_substrate=False
        ]
        units = runner._plan_artifacts(cold, {})
        assert [unit.artifact for unit in units] == ["multiplier_characterization"]
        assert dict(units[0].params) == {"samples": 40, "seed": 11}

    def test_declaration_errors(self, driver_spec):
        producer = "repro.core.scaling:characterization_artifact"
        for artifacts, message in [
            ({"a": (producer, ("samples",), {"shards": 2})}, "unknown option"),
            ({"a": (producer, ("missing",))}, "undeclared parameter"),
            ({"a": (producer, ("samples",), {"when": "samples"})}, "'when' must name a bool"),
            ({"a": (producer, (), {"after": ("b",)}), "b": (producer, (), {"after": ("a",)})}, "cycle"),
        ]:
            source = (
                f"PARAMS = {{'samples': 10, 'flag': False}}\nARTIFACTS = {artifacts!r}\n\n\n"
                "def run(*, samples=10, flag=False):\n    return []\n"
            )
            with pytest.raises(TypeError, match=message):
                driver_spec(source, name="bad")


#: The three consumers of the shared characterization, reduced workload.
CHAR_REQUESTS = [
    ("table1", dict(CHAR_PARAMS)),
    ("fig2", dict(CHAR_PARAMS)),
    ("fig3", {**CHAR_PARAMS, "rmse_samples": 50}),
]


class TestColdRunReuse:
    def _counting(self, monkeypatch):
        calls = []
        real = scaling_module.characterize_multiplier

        def counting(*args, **kwargs):
            calls.append(kwargs.get("samples"))
            return real(*args, **kwargs)

        monkeypatch.setattr(scaling_module, "characterize_multiplier", counting)
        return calls

    def test_characterize_runs_exactly_once_per_cold_batch(self, tmp_path, monkeypatch):
        calls = self._counting(monkeypatch)
        runner = ExperimentRunner(cache=ResultCache(tmp_path))
        reports = runner.run_many([(n, dict(c)) for n, c in CHAR_REQUESTS], jobs=1)
        assert len(reports) == 3 and not any(r.cached for r in reports)
        assert calls == [40]
        # The shared artifact is in the store, and the stats recorded the
        # three consumer requests as one miss (the deduplicated unit).
        assert [row["artifact"] for row in runner.artifacts.ls()] == [
            "multiplier_characterization"
        ]
        stats = load_stats(runner.cache.root)
        assert stats.artifact_misses == 1 and stats.result_misses == 3

    def test_memory_backed_runner_produces_each_artifact_once(self, monkeypatch):
        # The wave fills the memory store; the experiment must then read
        # that same store object, not recompute for want of a disk root.
        calls = []
        real = scaling_module.characterization_artifact

        @functools.wraps(real)  # keeps __module__, so the artifact key is unchanged
        def counting(**params):
            calls.append(params)
            return real(**params)

        monkeypatch.setattr(scaling_module, "characterization_artifact", counting)
        runner = ExperimentRunner(cache=ResultCache(backend=MemoryBackend()))
        report = runner.run("table1", samples=40)
        assert not report.cached and report.rows
        assert calls == [{"samples": 40, "seed": 2017}]

    def test_characterization_artifact_not_consumed_by_other_experiments(self):
        registry = build_registry()
        consumers = sorted(
            name
            for name, spec in registry.items()
            if "multiplier_characterization" in spec.artifacts
        )
        assert consumers == ["fig2", "fig3", "table1"]

    def test_rows_bit_identical_to_serial_no_reuse(self, tmp_path):
        no_reuse = ExperimentRunner(cache=ResultCache(tmp_path / "a"), use_cache=False)
        graph = ExperimentRunner(cache=ResultCache(tmp_path / "b"))
        serial = no_reuse.run_many([(n, dict(c)) for n, c in CHAR_REQUESTS], jobs=1)
        reused = graph.run_many([(n, dict(c)) for n, c in CHAR_REQUESTS], jobs=1)
        assert json.dumps([r.rows for r in serial]) == json.dumps([r.rows for r in reused])

    def test_parallel_cold_run_matches_serial_byte_for_byte(self, tmp_path):
        serial = ExperimentRunner(cache=ResultCache(tmp_path / "a")).run_many(
            [(n, dict(c)) for n, c in CHAR_REQUESTS], jobs=1
        )
        parallel = ExperimentRunner(cache=ResultCache(tmp_path / "b")).run_many(
            [(n, dict(c)) for n, c in CHAR_REQUESTS], jobs=2
        )
        assert json.dumps([r.rows for r in serial]) == json.dumps([r.rows for r in parallel])

    def test_artifact_replay_is_bit_identical(self, tmp_path):
        store = ArtifactStore(tmp_path / "artifacts")
        with activated(store):
            live = scaling_module.resolve_characterization(**CHAR_PARAMS)
            replayed = scaling_module.resolve_characterization(**CHAR_PARAMS)
        for mode in ("das", "dvafs"):
            live_table = live.relative_activity(mode)
            replay_table = replayed.relative_activity(mode)
            assert live_table == replay_table

    def test_warm_second_batch_hits_results_and_artifacts(self, tmp_path):
        runner = ExperimentRunner(cache=ResultCache(tmp_path))
        runner.run_many([(n, dict(c)) for n, c in CHAR_REQUESTS], jobs=1)
        warm = runner.run_many([(n, dict(c)) for n, c in CHAR_REQUESTS], jobs=1)
        assert all(report.cached for report in warm)
        stats = load_stats(runner.cache.root)
        assert stats.result_hits == 3


class TestInvalidationChain:
    def _simulate_scaling_edit(self, monkeypatch):
        """Fingerprints as if ``repro.core.scaling``'s source changed.

        Modules whose static import closure includes the multiplier model get
        a salted fingerprint; everything else keeps its real one -- exactly
        the effect of editing the file, without touching the tree.
        """

        def edited(module_name):
            digest = code_fingerprint(module_name)
            if "repro.core.scaling" in module_closure(module_name):
                return hashlib.sha256((digest + ":edited").encode()).hexdigest()
            return digest

        monkeypatch.setattr(service_module, "code_fingerprint", edited)
        monkeypatch.setattr(artifacts_module, "code_fingerprint", edited)

    def test_scaling_edit_invalidates_characterization_chain_only(
        self, tmp_path, monkeypatch
    ):
        runner = ExperimentRunner(cache=ResultCache(tmp_path))
        requests = [*CHAR_REQUESTS, ("fig4", {"input_length": 24, "taps": 5}), ("fig8", {})]
        cold = runner.run_many([(n, dict(c)) for n, c in requests], jobs=1)
        assert not any(report.cached for report in cold)
        artifact_keys_before = {entry["key"] for entry in runner.artifacts.ls()}

        self._simulate_scaling_edit(monkeypatch)
        after = runner.run_many([(n, dict(c)) for n, c in requests], jobs=1)
        by_name = {report.name: report for report in after}
        # The characterization consumers recompute...
        for name in ("table1", "fig2", "fig3"):
            assert by_name[name].cached is False, name
        # ...while experiments that never touch the multiplier model survive.
        for name in ("fig4", "fig8"):
            assert by_name[name].cached is True, name
        # The characterization artifact was re-produced under a new key; the
        # old entry still exists (content addresses never collide).
        artifact_keys_after = {entry["key"] for entry in runner.artifacts.ls()}
        assert artifact_keys_before < artifact_keys_after
        assert len(artifact_keys_after) == 2 * len(artifact_keys_before)

    def test_fig6_and_fig8_closures_exclude_multiplier_model(self):
        # Closure-level proof that editing core/scaling.py cannot invalidate
        # the trained-network artifacts or the fig6/fig8 result entries.
        for module in (
            "repro.experiments.fig6",
            "repro.experiments.fig8",
            "repro.nn.training",
        ):
            assert "repro.core.scaling" not in module_closure(module), module

    def test_scaling_closure_reaches_characterization_consumers(self):
        for module in ("repro.experiments.table1", "repro.experiments.fig2", "repro.experiments.fig3"):
            assert "repro.core.scaling" in module_closure(module), module


class TestIncrementalSearch:
    def test_lenet_profile_matches_reference(self, trained_lenet, digit_dataset):
        network, _history = trained_lenet
        reference = PrecisionSearch(
            network, digit_dataset.test_images[:24], labels=digit_dataset.test_labels[:24]
        )
        incremental = PrecisionSearch(
            network, digit_dataset.test_images[:24], labels=digit_dataset.test_labels[:24]
        )
        assert reference.profile() == incremental.profile(incremental=True)

    def test_agreement_mode_profile_matches_reference(self):
        # Small conv net in agreement mode (labels=None): the mode the
        # AlexNet stand-in runs under.
        from repro.nn.layers import Conv2D, Flatten, FullyConnected, MaxPool2D, ReLU
        from repro.nn.network import Network

        rng = np.random.default_rng(3)
        network = Network(
            [
                Conv2D(2, 6, 3, padding=1, name="c1", rng=rng),
                ReLU(name="r1"),
                MaxPool2D(2, name="p1"),
                Conv2D(6, 8, 3, name="c2", rng=rng),
                ReLU(name="r2"),
                Flatten(name="flat"),
                FullyConnected(8 * 4 * 4, 10, name="fc", rng=rng),
            ],
            (2, 12, 12),
        )
        samples = np.random.default_rng(7).uniform(-1.0, 1.0, size=(6, 2, 12, 12))
        reference = PrecisionSearch(network, samples, candidate_bits=(1, 2, 4, 6, 8, 16))
        incremental = PrecisionSearch(network, samples, candidate_bits=(1, 2, 4, 6, 8, 16))
        assert reference.profile() == incremental.profile(incremental=True)

    def test_layer_prefix_inputs_match_forward_batch(self, trained_lenet, digit_dataset):
        # The lockstep search starts every probe of a layer from its captured
        # input, so each capture must be exactly the unquantised
        # ``forward_batch`` of the layers before it.
        from repro.nn.network import Network

        network, _history = trained_lenet
        samples = digit_dataset.test_images[:16]
        search = PrecisionSearch(network, samples, labels=digit_dataset.test_labels[:16])
        prefix = search._layer_prefix_inputs()
        assert list(prefix) == [layer.name for layer in network.weighted_layers()]
        for name, (position, tensors) in prefix.items():
            assert network.layers[position].name == name
            expected = (
                Network(network.layers[:position], network.input_shape).forward_batch(samples)
                if position
                else samples
            )
            assert np.array_equal(tensors, expected), name
        # The capture's last tensor doubles as the baseline logits.
        assert np.array_equal(search._baseline_logits_cache, network.forward_batch(samples))

    def test_probe_restores_weights(self, trained_lenet, digit_dataset):
        # Every weighted layer (conv and dense), from the 1-bit candidate on,
        # with signed zeros planted: the 1-bit scale takes |W| in place.
        network = copy.deepcopy(trained_lenet[0])
        layers = network.weighted_layers()
        for layer in layers:
            layer.weights.reshape(-1)[:4] = [0.0, -0.0, -0.0, 0.0]
        before = {layer.name: layer.weights.copy() for layer in layers}
        search = PrecisionSearch(
            network, digit_dataset.test_images[:8], labels=digit_dataset.test_labels[:8]
        )
        assert search.candidate_bits[0] == 1
        for layer in layers:
            search.minimum_bits_for_layer(layer.name, target="weights", incremental=True)
            assert layer.weights.tobytes() == before[layer.name].tobytes(), layer.name
            np.testing.assert_array_equal(np.signbit(layer.weights), np.signbit(before[layer.name]))
        assert set(search._weight_mean_abs) == {layer.name for layer in layers}

    def test_mean_magnitude_is_exact_and_restores_signs(self):
        # 16899 weights: the signs go back over three blocks, the last partial.
        rng = np.random.default_rng(4)
        tensor = rng.normal(0.0, 0.5, size=(131, 129))
        tensor.reshape(-1)[:5] = [0.0, -0.0, 5e-324, -5e-324, -1e-310]
        tensor.reshape(-1)[-2:] = [-0.0, -3.5]
        before = tensor.tobytes()
        assert _mean_magnitude(tensor) == float(np.mean(np.abs(tensor)))
        assert tensor.tobytes() == before
        tensor.reshape(-1)[5] = -np.nan
        before = tensor.tobytes()
        assert np.isnan(_mean_magnitude(tensor))
        assert tensor.tobytes() == before

    def test_blocked_dense_probe_matches_layer(self):
        from repro.nn.layers import FullyConnected, ReLU
        from repro.nn.network import Network

        # 70 outputs: two full 32-row blocks and a partial one.
        rng = np.random.default_rng(6)
        layer = FullyConnected(50, 70, name="fc", rng=rng)
        layer.bias = rng.normal(0.0, 0.1, size=70)
        network = Network([ReLU(name="r"), layer], (50,))
        search = PrecisionSearch(network, rng.normal(size=(9, 50)))
        rows = rng.normal(size=(9, 50))
        for bits in search.candidate_bits:
            blocked = search._dense_weight_probe(layer, rows, bits)
            full = layer.forward_batch(rows, QuantizationConfig(weight_bits=bits))
            np.testing.assert_allclose(blocked, full, rtol=1e-12)
            np.testing.assert_array_equal(np.argmax(blocked, axis=1), np.argmax(full, axis=1))


def _lockstep_net(dense_tail):
    """Agreement-mode test net: two convs, then ``dense_tail`` dense layers."""
    from repro.nn.layers import Conv2D, Flatten, FullyConnected, MaxPool2D, ReLU
    from repro.nn.network import Network

    rng = np.random.default_rng(5)
    layers = [
        Conv2D(2, 6, 3, padding=1, name="c1", rng=rng),
        ReLU(name="r1"),
        MaxPool2D(2, name="p1"),
        Conv2D(6, 8, 3, name="c2", rng=rng),
        ReLU(name="r2"),
        Flatten(name="flat"),
    ]
    widths = [8 * 4 * 4, *(24 - 8 * index for index in range(dense_tail - 1)), 10]
    for index in range(dense_tail):
        if index:
            layers.append(ReLU(name=f"r{index + 2}"))
        layers.append(FullyConnected(widths[index], widths[index + 1], name=f"fc{index + 1}", rng=rng))
    samples = np.random.default_rng(8).uniform(-1.0, 1.0, size=(10, 2, 12, 12))
    return Network(layers, (2, 12, 12)), samples


#: (steps, probed rows, row-MACs, early failures) of the lockstep search on
#: ``_lockstep_net(3)``: a deterministic count of the search's work.
WORK_COUNTERS = (10, 198, 1365696, 19)


class TestLockstepSearch:
    CANDIDATES = (1, 2, 3, 4, 6, 8, 16)

    def test_lockstep_profile_matches_reference(self):
        network, samples = _lockstep_net(3)
        reference = PrecisionSearch(network, samples, candidate_bits=self.CANDIDATES)
        lockstep = PrecisionSearch(network, samples, candidate_bits=self.CANDIDATES)
        steps = []
        step = lockstep._step

        def recording(scans):
            steps.append([(scan.position, scan.target) for scan in scans])
            return step(scans)

        lockstep._step = recording
        assert lockstep.profile(incremental=True) == reference.profile()
        # Rows entered the merged stream at three or more depths in one step
        # (an activation scan's rows at its probed layer, a weight scan's
        # after it)...
        assert max(len({at + (target == "weights") for at, target in scans}) for scans in steps) >= 3
        # ...a weight and an activation scan of one layer shared a step...
        assert any(len(scans) > len({at for at, _ in scans}) for scans in steps)
        # ...and the scans finished at different steps.
        assert len({len(scans) for scans in steps}) > 2

    @pytest.mark.parametrize("dense_tail", [1, 3])
    def test_one_suffix_pass_per_step(self, dense_tail):
        network, samples = _lockstep_net(dense_tail)
        last = network.layers[-1]
        passes = []
        forward = last.forward_batch

        def counting(inputs, config=None, **kwargs):
            # The last layer's own scans call it with a config or weights;
            # an unquantised call is a suffix pass (or the prefix capture).
            if config is None and kwargs.get("weights") is None:
                passes.append(inputs.shape[0])
            return forward(inputs, config, **kwargs)

        last.forward_batch = counting
        search = PrecisionSearch(network, samples, candidate_bits=self.CANDIDATES)
        search.profile(incremental=True)
        assert len(passes) <= 2 * len(self.CANDIDATES) + 1

    def test_work_counters(self):
        network, samples = _lockstep_net(3)
        search = PrecisionSearch(network, samples, candidate_bits=self.CANDIDATES)
        search.profile(incremental=True)
        counters = (search.steps, search.probed_rows, search.row_macs, search.early_failures)
        assert counters == WORK_COUNTERS
        search.profile()  # each profile() resets them; the reference path adds nothing
        assert (search.steps, search.probed_rows, search.row_macs, search.early_failures) == (0, 0, 0, 0)

    @pytest.mark.parametrize(("count", "target", "allowance"), [(10, 0.99, 0), (20, 0.85, 3)])
    def test_first_probe_takes_allowance_plus_two_rows(self, count, target, allowance):
        network, _ = _lockstep_net(1)
        samples = np.random.default_rng(8).uniform(-1.0, 1.0, size=(count, 2, 12, 12))
        search = PrecisionSearch(
            network, samples, relative_accuracy_target=target, candidate_bits=self.CANDIDATES
        )
        first = []
        step = search._step

        def recording(scans):
            if not first:
                first.extend(scan.pending.copy() for scan in scans)
            return step(scans)

        search._step = recording
        search.profile(incremental=True)
        # Agreement mode: the margin is the top logit minus the runner-up,
        # and every scan starts on the allowance + 2 smallest-margin samples.
        top = np.sort(search._baseline_logits, axis=1)
        smallest = np.sort(np.argsort(top[:, -1] - top[:, -2], kind="stable")[: allowance + 2])
        assert [rows.tolist() for rows in first] == [smallest.tolist()] * len(first)


def _random_search_net(seed):
    """A small conv + dense net with weights drawn from ``seed``."""
    from repro.nn.layers import Conv2D, Flatten, FullyConnected, MaxPool2D, ReLU
    from repro.nn.network import Network

    rng = np.random.default_rng(seed)
    return Network(
        [
            Conv2D(2, 4, 3, padding=1, name="c1", rng=rng),
            ReLU(name="r1"),
            MaxPool2D(2, name="p1"),
            Flatten(name="flat"),
            FullyConnected(4 * 4 * 4, 12, name="fc1", rng=rng),
            ReLU(name="r2"),
            FullyConnected(12, 6, name="fc2", rng=rng),
        ],
        (2, 8, 8),
    )


class TestSearchDecisionProperty:
    """``profile(incremental=True) == profile()`` on random small nets.

    12 samples at a 0.99 target allow no miss; 20 samples at 0.85 allow
    three in agreement mode (17/20 passes, 16/20 fails), and with labels the
    allowance follows the baseline accuracy.
    """

    @pytest.mark.parametrize(("count", "target"), [(12, 0.99), (20, 0.85)])
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        labelled=st.booleans(),
        flips=st.integers(min_value=0, max_value=5),
    )
    def test_incremental_profile_matches_reference(self, count, target, seed, labelled, flips):
        network = _random_search_net(seed)
        samples = np.random.default_rng(seed + 1).uniform(-1.0, 1.0, size=(count, 2, 8, 8))
        labels = None
        if labelled:
            # The baseline's own predictions with ``flips`` of them wrong:
            # the baseline accuracy stays above zero.
            labels = np.argmax(network.forward_batch(samples), axis=1)
            labels[:flips] = (labels[:flips] + 1) % 6

        def search():
            return PrecisionSearch(
                network, samples, labels=labels, relative_accuracy_target=target,
                candidate_bits=(1, 2, 3, 4, 6, 8, 16),
            )

        assert search().profile(incremental=True) == search().profile()


class TestSearchMemory:
    def test_no_weight_sized_allocation(self):
        # Agreement mode with an 8 MiB dense layer: the lockstep search's
        # traced peak must stay well below one copy of that matrix.
        from repro.nn.layers import Flatten, FullyConnected, ReLU
        from repro.nn.network import Network

        rng = np.random.default_rng(9)
        network = Network(
            [
                Flatten(name="flat"),
                FullyConnected(48, 1024, name="fc1", rng=rng),
                ReLU(name="r1"),
                FullyConnected(1024, 1024, name="fc2", rng=rng),
                ReLU(name="r2"),
                FullyConnected(1024, 10, name="fc3", rng=rng),
            ],
            (3, 4, 4),
        )
        largest = max(layer.weights.nbytes for layer in network.weighted_layers())
        search = PrecisionSearch(network, rng.uniform(-1.0, 1.0, size=(10, 3, 4, 4)))
        search._layer_prefix_inputs()
        tracemalloc.start()
        try:
            search.profile(incremental=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < largest / 2, (peak, largest)


class TestFig6ArtifactPath:
    def test_lenet_rows_artifact_path_matches_reference(self, tmp_path):
        from repro.experiments.fig6 import run_lenet

        small = dict(
            train_samples=60, test_samples=20, image_size=16, epochs=1,
            evaluation_samples=8, seed=5,
        )
        reference_rows = run_lenet(**small)  # no store: reference search
        store = ArtifactStore(tmp_path)
        with activated(store):
            cold_rows = run_lenet(**small)  # produces lenet_state + profile
            warm_rows = run_lenet(**small)  # replays both artifacts
        assert json.dumps(cold_rows) == json.dumps(reference_rows)
        assert json.dumps(warm_rows) == json.dumps(reference_rows)
        assert {row["artifact"] for row in store.ls()} == {
            "lenet_state",
            "fig6_lenet_profile",
        }

    def test_alexnet_rows_artifact_path_matches_reference(self, tmp_path, monkeypatch):
        # Swap the AlexNet stand-in for a tiny conv net so the full
        # store-vs-reference equivalence runs in milliseconds.
        from repro.experiments import fig6
        from repro.nn.layers import Conv2D, Flatten, FullyConnected, ReLU
        from repro.nn.network import Network

        def tiny_alexnet(*, input_size, num_classes, seed):
            rng = np.random.default_rng(seed)
            return Network(
                [
                    Conv2D(3, 4, 3, name="conv1", rng=rng),
                    ReLU(name="relu1"),
                    Flatten(name="flat"),
                    FullyConnected(4 * (input_size - 2) ** 2, num_classes, name="fc", rng=rng),
                ],
                (3, input_size, input_size),
            )

        monkeypatch.setattr(fig6, "alexnet", tiny_alexnet)
        reference_rows = fig6.run_alexnet(input_size=16, seed=3)
        store = ArtifactStore(tmp_path)
        with activated(store):
            cold_rows = fig6.run_alexnet(input_size=16, seed=3)
            warm_rows = fig6.run_alexnet(input_size=16, seed=3)
        assert json.dumps(cold_rows) == json.dumps(reference_rows)
        assert json.dumps(warm_rows) == json.dumps(reference_rows)
        assert [row["artifact"] for row in store.ls()] == ["fig6_alexnet_profile"]

    def test_non_default_evaluation_samples_bypass_the_store(self, tmp_path, monkeypatch):
        from repro.experiments import fig6
        from repro.nn.layers import Flatten, FullyConnected
        from repro.nn.network import Network

        def tiny_alexnet(*, input_size, num_classes, seed):
            rng = np.random.default_rng(seed)
            return Network(
                [
                    Flatten(name="flat"),
                    FullyConnected(3 * input_size * input_size, num_classes, name="fc", rng=rng),
                ],
                (3, input_size, input_size),
            )

        monkeypatch.setattr(fig6, "alexnet", tiny_alexnet)
        store = ArtifactStore(tmp_path)
        with activated(store):
            fig6.resolve_alexnet_profiles(input_size=16, seed=3, evaluation_samples=5)
        assert store.ls() == []


class TestQuantizeFastPaths:
    def test_precomputed_scale_matches(self):
        rng = np.random.default_rng(0)
        tensor = rng.normal(0.0, 0.3, size=(64, 33))
        for bits in (2, 3, 5, 8, 12, 16):
            scale = quantization_scale(tensor, bits)
            baseline = quantize(tensor, bits)
            assert quantize(tensor, bits, scale=scale).tobytes() == baseline.tobytes()

    def test_out_buffer_reuse_matches(self):
        rng = np.random.default_rng(1)
        tensor = rng.normal(0.0, 1.5, size=(128, 17))
        scratch = np.empty_like(tensor)
        for bits in (2, 4, 7, 16, 1):
            baseline = quantize(tensor, bits)
            result = quantize(tensor, bits, out=scratch)
            assert result.tobytes() == baseline.tobytes()

    def test_binary_writes_into_out(self):
        tensor = np.array([0.0, -0.0, 1.5, -2.0, 3e-320, -3e-320, 0.25])
        for values in (tensor, np.append(tensor, np.nan), np.array([0.0, -0.0, 0.0])):
            scale = float(np.mean(np.abs(values)))
            expected = (
                np.zeros_like(values) if scale == 0.0 else np.where(values >= 0.0, scale, -scale)
            )
            out = np.empty_like(values)
            result = quantize(values, 1, out=out)
            assert result is out
            assert result.tobytes() == expected.tobytes()
            assert quantize(values, 1).tobytes() == expected.tobytes()

    #: -0.0, NaNs of both signs, +-inf, subnormals of both signs and normals.
    SPECIAL = np.array(
        [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e-310, -2.5e-315, 1.5, -0.75, 3e300]
    )

    @pytest.mark.parametrize("scale", [0.375, 5e-324, 1e-310, 2.0**-1060, 1e-300, 7.0, 9.99e299])
    def test_binary_given_scale_is_byte_identical(self, scale):
        expected = np.where(self.SPECIAL >= 0.0, scale, -scale)
        out = np.empty_like(self.SPECIAL)
        assert quantize(self.SPECIAL, 1, scale=scale, out=out).tobytes() == expected.tobytes()
        assert quantize(self.SPECIAL, 1, scale=scale).tobytes() == expected.tobytes()

    def test_binary_mean_scale_is_byte_identical(self):
        finite = self.SPECIAL[np.isfinite(self.SPECIAL)]
        for values in (finite, finite[:-1], self.SPECIAL, np.array([5e-324, -0.0, -5e-324])):
            scale = float(np.mean(np.abs(values)))
            expected = np.where(values >= 0.0, scale, -scale)
            assert quantize(values, 1).tobytes() == expected.tobytes()
            assert quantize(values, 1, out=np.empty_like(values)).tobytes() == expected.tobytes()

    def test_binary_zero_and_out_of_range_scales(self):
        assert quantize(self.SPECIAL, 1, scale=0.0).tobytes() == np.zeros_like(self.SPECIAL).tobytes()
        # At 1e300 and above 2 * scale may overflow: these scales (and NaN
        # or negative ones) take the masked copy, which stays exact.  The
        # doubling path would turn 1.7e308 into inf - 1.7e308 = inf.
        for scale in (1e300, 1.7e308, np.inf, np.nan, -0.5):
            expected = np.where(self.SPECIAL >= 0.0, scale, -scale)
            out = np.empty_like(self.SPECIAL)
            assert quantize(self.SPECIAL, 1, scale=scale, out=out).tobytes() == expected.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=40),
        scale=st.floats(min_value=0.0, max_value=1e300, exclude_max=True),
    )
    def test_binary_property(self, values, scale):
        tensor = np.array(values)
        expected = np.where(tensor >= 0.0, scale, -scale) if scale else np.zeros_like(tensor)
        out = np.empty_like(tensor)
        assert quantize(tensor, 1, scale=scale, out=out).tobytes() == expected.tobytes()

    def test_max_abs_hint_matches(self):
        rng = np.random.default_rng(2)
        tensor = rng.normal(0.0, 2.0, size=257)
        max_abs = float(np.max(np.abs(tensor)))
        for bits in (2, 6, 16):
            assert quantization_scale(tensor, bits, max_abs=max_abs) == quantization_scale(
                tensor, bits
            )

    def test_denormal_values_keep_error_bound(self):
        # Regression: 5e-324 used to underflow the scale to zero.
        for value in (5e-324, -5e-324, 1e-310):
            tensor = np.array([value])
            for bits in (2, 3, 8):
                scale = quantization_scale(tensor, bits)
                assert scale > 0.0
                error = float(np.max(np.abs(quantize(tensor, bits) - tensor)))
                assert error <= scale * (1.0 + 1e-9)


class TestCliStats:
    def _stats(self, tmp_path, capsys):
        assert main(["cache", "stats", "--json", "--cache-dir", str(tmp_path)]) == 0
        return json.loads(capsys.readouterr().out)

    EMPTY_SECTION = {
        "entries": 0,
        "bytes": 0,
        "hits": 0,
        "misses": 0,
        "corrupt": 0,
        "claims": 0,
        "claim_waits": 0,
        "evictions": 0,
        "evicted_bytes": 0,
        "quarantine": {"entries": 0, "bytes": 0},
    }

    def test_stats_round_trip_and_clear_resets(self, tmp_path, capsys):
        summary = self._stats(tmp_path, capsys)
        assert summary["results"] == self.EMPTY_SECTION

        assert (
            main(
                [
                    "run",
                    "table1",
                    "--param",
                    "samples=40",
                    "--param",
                    "seed=11",
                    "--cache-dir",
                    str(tmp_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        summary = self._stats(tmp_path, capsys)
        assert summary["results"]["entries"] == 1
        assert summary["results"]["misses"] == 1
        assert summary["artifacts"]["entries"] == 1
        assert summary["artifacts"]["misses"] == 1
        assert summary["results"]["bytes"] > 0 and summary["artifacts"]["bytes"] > 0

        # A warm re-run records hits.
        assert (
            main(
                [
                    "run",
                    "table1",
                    "--param",
                    "samples=40",
                    "--param",
                    "seed=11",
                    "--cache-dir",
                    str(tmp_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        summary = self._stats(tmp_path, capsys)
        assert summary["results"]["hits"] == 1

        # Full clear removes results + artifacts and resets the counters.
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        summary = self._stats(tmp_path, capsys)
        assert summary["results"] == self.EMPTY_SECTION
        assert summary["artifacts"] == self.EMPTY_SECTION
        assert summary["recovery"] == {"quarantined": 0, "retried": 0, "claim_wait_timeouts": 0}

    def test_cache_ls_lists_artifacts(self, tmp_path, capsys):
        main(
            [
                "run",
                "fig2",
                "--param",
                "samples=40",
                "--param",
                "seed=11",
                "--cache-dir",
                str(tmp_path),
            ]
        )
        capsys.readouterr()
        assert main(["cache", "ls", "--cache-dir", str(tmp_path)]) == 0
        output = capsys.readouterr().out
        assert "result cache" in output
        assert "artifact store" in output
        assert "multiplier_characterization" in output
