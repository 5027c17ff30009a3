"""Table III: per-layer power and efficiency of VGG16, AlexNet and LeNet-5 on Envision.

Every layer runs in the smallest Envision mode covering its precision
requirement, at the constant-throughput frequency/voltage of that mode, with
its published weight / input sparsity driving the guarding model.  The layer
workloads default to the paper's published profile
(:data:`repro.envision.scheduler.PAPER_TABLE_III_WORKLOADS`); pass
``from_substrate=True`` to regenerate the workloads from our own CNN
substrate (MAC counts from the topology builders, sparsity measured on
synthetic data, precisions from the quantisation search defaults).
"""

from __future__ import annotations

from ..analysis.reporting import format_table
from ..artifact_hook import resolve as resolve_artifact
from ..envision import EnvisionScheduler, LayerWorkload, PAPER_TABLE_III_WORKLOADS
from ..nn import alexnet, lenet5, measure_sparsity, prune_network, synthetic_natural_images, vgg16

#: Cacheable run() parameters (name -> default); the runner registry's schema.
PARAMS = {"from_substrate": False, "seed": 2017, "batch": True}
#: Shared sub-experiment intermediates; the substrate workloads (MAC counts
#: + measured sparsity) are only derived -- and only produced -- when
#: ``from_substrate`` is set.
ARTIFACTS = {
    "table3_substrate_workloads": (
        "repro.experiments.table3:substrate_workloads",
        ("seed", "batch"),
        {"when": "from_substrate"},
    ),
}

#: Published per-layer power (mW) and efficiency (TOPS/W) for comparison.
PAPER_TABLE_III_RESULTS = {
    "VGG1": (25.0, 2.1),
    "VGG2-13": (27.0, 2.15),
    "AlexNet1": (37.0, 2.7),
    "AlexNet2": (20.0, 3.8),
    "AlexNet3": (52.0, 1.0),
    "AlexNet4-5": (60.0, 0.85),
    "LeNet1": (5.6, 13.6),
    "LeNet2": (29.0, 2.6),
}

#: Published totals: (power mW, TOPS/W).
PAPER_TABLE_III_TOTALS = {
    "VGG16": (26.0, 2.0),
    "AlexNet": (44.0, 1.8),
    "LeNet-5": (25.0, 3.0),
}


def substrate_workloads(*, seed: int = 2017, batch: bool = True) -> dict[str, list[LayerWorkload]]:
    """Layer workloads regenerated from the CNN substrate itself.

    MAC counts come from the full-resolution topology builders; weight
    sparsity from magnitude pruning at the paper's reported levels is
    approximated with a uniform 30 % prune; input sparsity is measured by
    running synthetic inputs through (reduced-resolution) instances; the
    precision requirements use the paper's per-network ranges.  ``batch``
    selects the vectorised batched forward for the sparsity probes (the
    default) or the per-sample reference path.
    """
    workloads: dict[str, list[LayerWorkload]] = {}
    precision_defaults = {"VGG16": (5, 6), "AlexNet": (8, 8), "LeNet-5": (3, 5)}
    for name, builder, probe_size in (
        ("VGG16", vgg16, 64),
        ("AlexNet", alexnet, 67),
        ("LeNet-5", lenet5, 28),
    ):
        full = builder()
        conv_summaries = [s for s in full.layer_summaries() if s.kind == "Conv2D"]
        if name == "LeNet-5":
            probe = builder(input_size=probe_size)
            samples = synthetic_natural_images(samples=4, size=probe_size, channels=1, seed=seed)
        else:
            probe = builder(input_size=probe_size)
            samples = synthetic_natural_images(samples=2, size=probe_size, seed=seed)
        prune_network(probe, 0.3)
        sparsity = {
            s.name: s
            for s in measure_sparsity(probe, samples.train_images, batch=batch)
        }
        weight_bits, activation_bits = precision_defaults[name]
        layer_workloads = []
        for summary in conv_summaries:
            layer_sparsity = sparsity.get(summary.name)
            layer_workloads.append(
                LayerWorkload(
                    name=f"{name}:{summary.name}",
                    macs=summary.macs,
                    weight_bits=weight_bits,
                    activation_bits=activation_bits,
                    weight_sparsity=layer_sparsity.weight_sparsity if layer_sparsity else 0.3,
                    input_sparsity=layer_sparsity.input_sparsity if layer_sparsity else 0.3,
                )
            )
        workloads[name] = layer_workloads
    return workloads


def resolve_substrate_workloads(
    *, seed: int = 2017, batch: bool = True
) -> dict[str, list[LayerWorkload]]:
    """Load-or-measure the substrate workloads through the artifact store."""
    return resolve_artifact(
        "table3_substrate_workloads",
        {"seed": seed, "batch": batch},
        producer=substrate_workloads,
    )


def run(
    *, from_substrate: bool = False, seed: int = 2017, batch: bool = True
) -> list[dict[str, object]]:
    """One record per Table III row plus a total row per network."""
    scheduler = EnvisionScheduler()
    workloads = (
        resolve_substrate_workloads(seed=seed, batch=batch)
        if from_substrate
        else PAPER_TABLE_III_WORKLOADS
    )
    rows: list[dict[str, object]] = []
    for network_name, layer_workloads in workloads.items():
        schedule = scheduler.schedule_network(network_name, layer_workloads)
        for execution in schedule.layers:
            paper_power, paper_eff = PAPER_TABLE_III_RESULTS.get(execution.layer, ("-", "-"))
            rows.append(
                {
                    "layer": execution.layer,
                    "mode": execution.mode_label,
                    "f [MHz]": execution.frequency_mhz,
                    "V [V]": execution.voltage,
                    "wght [b]": execution.weight_bits,
                    "in [b]": execution.activation_bits,
                    "wght sp": round(execution.weight_sparsity, 2),
                    "in sp": round(execution.input_sparsity, 2),
                    "MMACs": round(execution.mmacs, 1),
                    "P [mW]": round(execution.power_mw, 1),
                    "P paper": paper_power,
                    "Eff [TOPS/W]": round(execution.tops_per_watt, 2),
                    "Eff paper": paper_eff,
                }
            )
        paper_total_power, paper_total_eff = PAPER_TABLE_III_TOTALS.get(network_name, ("-", "-"))
        rows.append(
            {
                "layer": f"{network_name} TOTAL",
                "mode": "-",
                "f [MHz]": "-",
                "V [V]": "-",
                "wght [b]": "-",
                "in [b]": "-",
                "wght sp": "-",
                "in sp": "-",
                "MMACs": round(schedule.total_macs / 1e6, 1),
                "P [mW]": round(schedule.average_power_mw, 1),
                "P paper": paper_total_power,
                "Eff [TOPS/W]": round(schedule.tops_per_watt, 2),
                "Eff paper": paper_total_eff,
            }
        )
    return rows


def render(rows: list[dict[str, object]]) -> str:
    """Format rows (live or cached) as the Table III reproduction."""
    return format_table(rows, title="Table III: CNN benchmarks on Envision")


def report(**kwargs) -> str:
    """Formatted Table III reproduction."""
    return render(run(**kwargs))


if __name__ == "__main__":  # pragma: no cover - thin shim over the unified CLI
    from ..runner.cli import main

    raise SystemExit(main(["report", "table3"]))
