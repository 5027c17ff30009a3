"""Accuracy and efficiency metrics used throughout the experiments.

* RMSE of approximate arithmetic streams (Fig. 3b x-axis),
* relative classification accuracy of quantised networks (the "99 % relative
  accuracy" criterion of Fig. 6),
* TOPS/W-style efficiency figures for the processor models (Fig. 8,
  Table III).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def rmse(reference: np.ndarray, approximate: np.ndarray) -> float:
    """Root-mean-square error between two arrays of equal shape."""
    reference = np.asarray(reference, dtype=np.float64)
    approximate = np.asarray(approximate, dtype=np.float64)
    if reference.shape != approximate.shape:
        raise ValueError("arrays must have the same shape")
    if reference.size == 0:
        raise ValueError("arrays must be non-empty")
    return float(np.sqrt(np.mean((reference - approximate) ** 2)))


def top1_agreement(reference_logits: np.ndarray, approximate_logits: np.ndarray) -> float:
    """Fraction of samples whose arg-max class is unchanged by approximation.

    Both arrays are ``(samples, classes)``.  This is the relative-accuracy
    proxy used for the networks we cannot train on their original datasets.
    """
    reference_logits = np.asarray(reference_logits, dtype=np.float64)
    approximate_logits = np.asarray(approximate_logits, dtype=np.float64)
    if reference_logits.shape != approximate_logits.shape:
        raise ValueError("logit arrays must have the same shape")
    if reference_logits.ndim != 2:
        raise ValueError("logit arrays must be 2-D (samples, classes)")
    return float(
        np.mean(np.argmax(reference_logits, axis=1) == np.argmax(approximate_logits, axis=1))
    )


def classification_accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 accuracy of ``logits`` against integer ``labels``."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise ValueError("logits must be 2-D (samples, classes)")
    if labels.shape[0] != logits.shape[0]:
        raise ValueError("labels and logits must cover the same samples")
    return float(np.mean(np.argmax(logits, axis=1) == labels))


def relative_accuracy(baseline_accuracy: float, quantized_accuracy: float) -> float:
    """Quantised accuracy relative to the full-precision baseline (0..1+)."""
    if baseline_accuracy <= 0:
        raise ValueError("baseline_accuracy must be positive")
    return quantized_accuracy / baseline_accuracy


@dataclass(frozen=True)
class EfficiencyReport:
    """Throughput / power / efficiency of a processor operating point.

    Attributes
    ----------
    effective_gops:
        Achieved operations per second, in GOPS (MACs count as 2 ops, as in
        the paper's 0.73 x 256 x 2 x f accounting).
    power_mw:
        Total power in milliwatts.
    """

    effective_gops: float
    power_mw: float

    @property
    def tops_per_watt(self) -> float:
        """Energy efficiency in TOPS/W."""
        if self.power_mw <= 0:
            raise ValueError("power must be positive")
        return self.effective_gops / self.power_mw

    @property
    def energy_per_op_pj(self) -> float:
        """Energy per operation in picojoules."""
        if self.effective_gops <= 0:
            raise ValueError("effective_gops must be positive")
        return self.power_mw / self.effective_gops


def tops_per_watt(effective_gops: float, power_mw: float) -> float:
    """Convenience wrapper: GOPS and mW to TOPS/W."""
    return EfficiencyReport(effective_gops=effective_gops, power_mw=power_mw).tops_per_watt
