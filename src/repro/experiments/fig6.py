"""Fig. 6: minimum per-layer precision of LeNet-5 and AlexNet.

For every weighted layer the smallest weight and input-feature-map precision
is found that keeps the network at >= 99 % relative accuracy.

* **LeNet-5** is trained from scratch on the synthetic digit task (the MNIST
  stand-in) and evaluated against ground-truth labels.
* **AlexNet** is instantiated at reduced spatial resolution with synthetic
  weights and evaluated with the top-1-agreement proxy on synthetic natural
  images, because ImageNet is not available offline; the layer structure and
  therefore the depth-dependent error propagation are preserved.

Both searches flow through the cross-experiment artifact graph: the trained
LeNet is one content-addressed artifact, its per-layer profile a second
(produced *after* the first -- a two-wave DAG), and the AlexNet profile a
third.  The artifact producers run the search in ``incremental`` mode:
baseline prefix activations reused, all per-layer scans advanced in
lockstep with one merged suffix pass per step, and failures certified
early (see :mod:`~repro.nn.precision_search`).  Each candidate is first
probed on miss allowance + 2 rows, the allowance being the most misses the
99 % target still passes: 0 for the 12 AlexNet samples, and for LeNet's 40
labelled ones the number the trained net already misses (0 at the default
seed).  The rows are the scan's latest misses, then its older suspects,
then the smallest-baseline-margin samples.  The search makes the same
per-sample decisions -- hence the same profile rows -- as the full-forward
reference search that direct, store-less driver calls keep using as the
golden path; the logits themselves are not bit-identical, as BLAS rounding
depends on the batch shape.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.reporting import format_table
from ..artifact_hook import current as active_store
from ..artifact_hook import resolve as resolve_artifact
from ..nn import (
    LayerPrecisionProfile,
    PrecisionSearch,
    alexnet,
    resolve_trained_lenet,
    synthetic_digits,
    synthetic_natural_images,
)

#: Cacheable run() parameters (name -> default); the runner registry's schema.
#: ``evaluation_samples`` feeds the LeNet search; ``input_size`` the AlexNet
#: stand-in (see the per-network helpers for their individual defaults).
PARAMS = {
    "train_samples": 400,
    "test_samples": 100,
    "image_size": 16,
    "epochs": 6,
    "evaluation_samples": 40,
    "input_size": 67,
    "seed": 2017,
}

#: Shared sub-experiment intermediates (artifact -> (producer, params subset)).
#: ``fig6_lenet_profile`` consumes ``lenet_state`` (a second topological
#: wave); the AlexNet profile is an independent wave-0 unit.
ARTIFACTS = {
    "lenet_state": (
        "repro.nn.training:lenet_state_artifact",
        ("train_samples", "test_samples", "image_size", "epochs", "seed"),
    ),
    "fig6_lenet_profile": (
        "repro.experiments.fig6:lenet_profile_artifact",
        ("train_samples", "test_samples", "image_size", "epochs", "evaluation_samples", "seed"),
        {"after": ("lenet_state",)},
    ),
    "fig6_alexnet_profile": (
        "repro.experiments.fig6:alexnet_profile_artifact",
        ("input_size", "seed"),
    ),
}

#: AlexNet evaluation-set size baked into the artifact (the run() schema
#: never varies it; direct calls overriding it bypass the store).
ALEXNET_EVALUATION_SAMPLES = 12


@dataclass(frozen=True)
class LenetPrecisionData:
    """Fig. 6's LeNet intermediate: per-layer profile + training accuracy."""

    profiles: tuple[LayerPrecisionProfile, ...]
    baseline_accuracy: float


def _lenet_profile(
    *,
    train_samples: int,
    test_samples: int,
    image_size: int,
    epochs: int,
    evaluation_samples: int,
    seed: int,
    incremental: bool,
) -> LenetPrecisionData:
    """LeNet per-layer precision profile on the held-out digits.

    Resolves the trained network through the store (a wave-0 artifact on
    scheduled runs, trained inline otherwise) and runs the search with the
    requested evaluation mode.
    """
    trained = resolve_trained_lenet(
        train_samples=train_samples,
        test_samples=test_samples,
        image_size=image_size,
        epochs=epochs,
        seed=seed,
    )
    dataset = synthetic_digits(
        train_samples=train_samples, test_samples=test_samples, size=image_size, seed=seed
    )
    search = PrecisionSearch(
        trained.network,
        dataset.test_images[:evaluation_samples],
        labels=dataset.test_labels[:evaluation_samples],
    )
    return LenetPrecisionData(
        profiles=tuple(search.profile(incremental=incremental)),
        baseline_accuracy=trained.history.final_accuracy,
    )


def lenet_profile_artifact(
    *,
    train_samples: int,
    test_samples: int,
    image_size: int,
    epochs: int,
    evaluation_samples: int,
    seed: int,
) -> LenetPrecisionData:
    """Artifact producer: the LeNet profile via the incremental search."""
    return _lenet_profile(
        train_samples=train_samples,
        test_samples=test_samples,
        image_size=image_size,
        epochs=epochs,
        evaluation_samples=evaluation_samples,
        seed=seed,
        incremental=True,
    )


def _alexnet_search(*, input_size: int, evaluation_samples: int, seed: int) -> PrecisionSearch:
    network = alexnet(input_size=input_size, num_classes=50, seed=seed)
    dataset = synthetic_natural_images(
        samples=evaluation_samples, size=input_size, seed=seed, num_classes=10
    )
    return PrecisionSearch(network, dataset.train_images[:evaluation_samples])


def alexnet_profile_artifact(
    *, input_size: int, seed: int
) -> tuple[LayerPrecisionProfile, ...]:
    """Artifact producer: the AlexNet profile via the incremental search."""
    search = _alexnet_search(
        input_size=input_size, evaluation_samples=ALEXNET_EVALUATION_SAMPLES, seed=seed
    )
    return tuple(search.profile(incremental=True))


def resolve_alexnet_profiles(
    *,
    input_size: int,
    seed: int,
    evaluation_samples: int = ALEXNET_EVALUATION_SAMPLES,
) -> list[LayerPrecisionProfile]:
    """AlexNet per-layer profiles, through the store when possible.

    With an active store (and the standard evaluation-set size) the profile
    resolves from the artifact produced by the scheduler's wave via the
    incremental search; without one, the full-forward reference search runs
    inline.  The two paths yield identical profiles
    (``tests/test_artifacts.py`` gates the equivalence).
    """
    if evaluation_samples == ALEXNET_EVALUATION_SAMPLES and active_store() is not None:
        return list(
            resolve_artifact(
                "fig6_alexnet_profile",
                {"input_size": input_size, "seed": seed},
                producer=alexnet_profile_artifact,
            )
        )
    search = _alexnet_search(
        input_size=input_size, evaluation_samples=evaluation_samples, seed=seed
    )
    return search.profile()


def run_lenet(
    *,
    train_samples: int = 400,
    test_samples: int = 100,
    image_size: int = 16,
    epochs: int = 6,
    evaluation_samples: int = 40,
    seed: int = 2017,
) -> list[dict[str, object]]:
    """Per-layer minimum precisions of a LeNet-5 trained on synthetic digits."""
    if active_store() is not None:
        data = resolve_artifact(
            "fig6_lenet_profile",
            {
                "train_samples": train_samples,
                "test_samples": test_samples,
                "image_size": image_size,
                "epochs": epochs,
                "evaluation_samples": evaluation_samples,
                "seed": seed,
            },
            producer=lenet_profile_artifact,
        )
    else:
        data = _lenet_profile(
            train_samples=train_samples,
            test_samples=test_samples,
            image_size=image_size,
            epochs=epochs,
            evaluation_samples=evaluation_samples,
            seed=seed,
            incremental=False,
        )
    rows = []
    for index, profile in enumerate(data.profiles):
        rows.append(
            {
                "network": "LeNet-5",
                "layer_index": index,
                "layer": profile.layer,
                "weight_bits": profile.weight_bits,
                "activation_bits": profile.activation_bits,
                "baseline_accuracy": round(data.baseline_accuracy, 3),
            }
        )
    return rows


def run_alexnet(
    *,
    input_size: int = 67,
    evaluation_samples: int = ALEXNET_EVALUATION_SAMPLES,
    seed: int = 2017,
) -> list[dict[str, object]]:
    """Per-layer minimum precisions of the AlexNet stand-in (agreement proxy)."""
    profiles = resolve_alexnet_profiles(
        input_size=input_size, seed=seed, evaluation_samples=evaluation_samples
    )
    rows = []
    for index, profile in enumerate(profiles):
        rows.append(
            {
                "network": "AlexNet",
                "layer_index": index,
                "layer": profile.layer,
                "weight_bits": profile.weight_bits,
                "activation_bits": profile.activation_bits,
                "baseline_accuracy": 1.0,
            }
        )
    return rows


#: run() keyword routing: which declared parameters feed which network.
_LENET_PARAMS = ("train_samples", "test_samples", "image_size", "epochs", "evaluation_samples", "seed")
_ALEXNET_PARAMS = ("input_size", "seed")


def run(**kwargs) -> list[dict[str, object]]:
    """Both networks' per-layer precision profiles (the Fig. 6 data)."""
    unknown = set(kwargs) - set(_LENET_PARAMS) - set(_ALEXNET_PARAMS)
    if unknown:
        raise TypeError(f"fig6.run() got unexpected keyword argument(s) {sorted(unknown)}")
    lenet_kwargs = {k: v for k, v in kwargs.items() if k in _LENET_PARAMS}
    alexnet_kwargs = {k: v for k, v in kwargs.items() if k in _ALEXNET_PARAMS}
    return run_lenet(**lenet_kwargs) + run_alexnet(**alexnet_kwargs)


def render(rows: list[dict[str, object]]) -> str:
    """Format rows (live or cached) as the Fig. 6 reproduction."""
    return format_table(
        rows,
        title="Fig. 6: minimum per-layer precision at 99% relative accuracy",
    )


def report(**kwargs) -> str:
    """Formatted Fig. 6 reproduction."""
    return render(run(**kwargs))


if __name__ == "__main__":  # pragma: no cover - thin shim over the unified CLI
    from ..runner.cli import main

    raise SystemExit(main(["report", "fig6"]))
