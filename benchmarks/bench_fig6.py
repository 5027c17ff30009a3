"""Benchmark regenerating Fig. 6 (per-layer minimum precision profiles)."""

from __future__ import annotations

from repro.experiments import fig6


def test_fig6_lenet_precision_profile(benchmark):
    """Fig. 6 (LeNet-5): per-layer weight/activation bits at 99 % relative accuracy."""
    rows = benchmark.pedantic(
        lambda: fig6.run_lenet(train_samples=320, test_samples=80, epochs=5, evaluation_samples=30),
        rounds=1,
        iterations=1,
    )
    print()
    from repro.analysis.reporting import format_table

    print(format_table(rows, title="Fig. 6: LeNet-5"))
    bits = [max(row["weight_bits"], row["activation_bits"]) for row in rows]
    # The paper reports 1-6 bits for LeNet-5; allow a small margin for the
    # synthetic-task substitution.
    assert max(bits) <= 8
    assert min(bits) <= 6


def test_fig6_alexnet_precision_profile(benchmark):
    """Fig. 6 (AlexNet): per-layer bits of the reduced-resolution AlexNet proxy."""
    rows = benchmark.pedantic(
        lambda: fig6.run_alexnet(input_size=67, evaluation_samples=6),
        rounds=1,
        iterations=1,
    )
    print()
    from repro.analysis.reporting import format_table

    print(format_table(rows, title="Fig. 6: AlexNet"))
    lenet_rows = fig6.run_lenet(train_samples=320, test_samples=80, epochs=5, evaluation_samples=30)
    alexnet_need = max(max(r["weight_bits"], r["activation_bits"]) for r in rows)
    lenet_need = max(max(r["weight_bits"], r["activation_bits"]) for r in lenet_rows)
    # AlexNet needs at least as much precision as LeNet-5 (5-9 b vs 1-6 b in the paper).
    assert alexnet_need >= lenet_need


def test_fig6_alexnet_search_work(benchmark):
    """Default AlexNet incremental search: row-MACs gate (23.0 G before failing
    candidates were certified from miss allowance + 2 rows)."""
    search = fig6._alexnet_search(
        input_size=fig6.PARAMS["input_size"],
        evaluation_samples=fig6.ALEXNET_EVALUATION_SAMPLES,
        seed=fig6.PARAMS["seed"],
    )
    benchmark.pedantic(lambda: search.profile(incremental=True), rounds=1, iterations=1)
    print(
        f"\nsteps {search.steps}, probed rows {search.probed_rows}, "
        f"row-MACs {search.row_macs / 1e9:.2f} G, early failures {search.early_failures}"
    )
    # The count is deterministic: a noise-free gate on the search's work.
    assert search.row_macs <= 17.0e9
