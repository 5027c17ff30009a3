"""Sparsity statistics of CNN weights and activations.

Envision exploits sparsity by *guarding*: multiplications with a zero operand
are skipped, so their energy is (almost) saved.  Table III therefore lists
per-layer weight and input sparsity next to the precision settings.  These
helpers measure sparsity on our networks and can also induce weight sparsity
by magnitude pruning, standing in for the compressed/pruned networks the
paper references ([20]-[22]).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import Network
from .quantization import QuantizationConfig


@dataclass(frozen=True)
class LayerSparsity:
    """Sparsity of one weighted layer.

    Attributes
    ----------
    name:
        Layer name.
    weight_sparsity:
        Fraction of zero weights (0..1).
    input_sparsity:
        Fraction of zero input activations observed during inference.
    """

    name: str
    weight_sparsity: float
    input_sparsity: float

    @property
    def guard_rate(self) -> float:
        """Probability that a MAC has at least one zero operand.

        Assuming independence between weight and activation zeros, which is
        the standard first-order model for guarding estimates.
        """
        return 1.0 - (1.0 - self.weight_sparsity) * (1.0 - self.input_sparsity)


def prune_network(network: Network, amount: float) -> None:
    """Magnitude-prune every weighted layer of ``network`` in place.

    ``amount`` is the fraction of smallest-magnitude weights set to zero per
    layer (0..1).  This is how the experiments obtain the weight-sparsity
    levels Table III reports for the pruned benchmark networks.
    """
    if not 0.0 <= amount < 1.0:
        raise ValueError("amount must be in [0, 1)")
    if amount == 0.0:
        return
    for layer in network.weighted_layers():
        flat = np.abs(layer.weights).reshape(-1)
        threshold = np.quantile(flat, amount)
        layer.weights[np.abs(layer.weights) <= threshold] = 0.0


def measure_sparsity(
    network: Network,
    samples: np.ndarray,
    *,
    configs: dict[str, QuantizationConfig] | None = None,
    batch: bool = True,
) -> list[LayerSparsity]:
    """Run ``samples`` through the network and report per-layer sparsity.

    Weight sparsity is static; input sparsity is measured on the activations
    that actually reached each weighted layer (ReLU makes deeper layers much
    sparser, which is exactly the effect Table III shows).  ``batch`` selects
    the vectorised whole-batch forward (the default) or the per-sample
    reference path.
    """
    for layer in network.weighted_layers():
        layer.statistics.activations_seen = 0
        layer.statistics.zero_activations = 0
    network.forward_batch(samples, configs=configs, batch=batch)
    report = []
    for layer in network.weighted_layers():
        report.append(
            LayerSparsity(
                name=layer.name,
                weight_sparsity=layer.weight_sparsity(),
                input_sparsity=layer.statistics.input_sparsity,
            )
        )
    return report
