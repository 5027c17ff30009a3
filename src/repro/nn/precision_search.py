"""Per-layer minimum-precision search (Fig. 6 of the paper).

Following the methodology of the paper's reference [22], the precision of
one layer at a time is reduced until the network's *relative accuracy* drops
below a target (99 % in the paper), while all other layers stay at full
precision.  The search is run separately for weights and for input feature
maps, producing the two per-layer bit profiles plotted in Fig. 6.

Relative accuracy is measured either against ground-truth labels (for
networks we can train, e.g. LeNet-5 on the synthetic digit task) or as
top-1 agreement with the floating-point model (for the AlexNet / VGG16
stand-ins whose original training data is unavailable offline).

Because each probe quantises exactly one layer while everything before it
stays floating point, the activations entering the probed layer are the
*baseline* activations -- a reusable intermediate.  ``incremental=True``
captures those per-layer inputs in one baseline pass and runs every
(layer, target) scan in *lockstep*: each step evaluates every unfinished
scan's probed layer on its pending rows, then pushes all of those rows
through **one** merged pass over the unquantised suffix, each scan's rows
joining at the layer after its probed layer.  The large dense layers thus
stream their weights once per step rather than once per probe.  Failing
candidates are certified early from a few rows (a leading chunk, then the
samples seen disagreeing at lower bit widths).

The full-forward reference (the default) stays as the golden path.  The
incremental path evaluates the same rows in differently-sized batches, and
BLAS results can differ in the last bits with the batch shape (a one-row
dense batch runs as a matrix-vector product, for instance), so logits are
*not* bit-identical to the reference.  The guarantee is decision-level: every
sample's argmax, and hence every profile row, matches the reference, which
the equivalence tests and the benchmark's row digests check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..analysis.metrics import classification_accuracy, top1_agreement
from .network import Network
from .quantization import QuantizationConfig, quantize


@dataclass(frozen=True)
class LayerPrecisionProfile:
    """Minimum bits found for one layer.

    Attributes
    ----------
    layer:
        Layer name.
    weight_bits:
        Minimum weight precision meeting the accuracy target.
    activation_bits:
        Minimum input-feature-map precision meeting the accuracy target.
    """

    layer: str
    weight_bits: int
    activation_bits: int

    @property
    def required_bits(self) -> int:
        """Datapath precision the layer needs (max of the two profiles)."""
        return max(self.weight_bits, self.activation_bits)


@dataclass(eq=False)
class _Scan:
    """State of one (weighted layer, target) scan in the lockstep search."""

    #: Position of the probed layer in ``network.layers``.
    position: int
    #: ``"weights"`` or ``"activations"``.
    target: str
    #: Index of the current candidate in ``candidate_bits``.
    candidate: int = 0
    #: Every sample seen disagreeing at this scan's lower candidates
    #: (``None`` before the first candidate has been decided).
    suspects: np.ndarray | None = None
    #: Rows the next step evaluates for the current candidate.
    pending: np.ndarray = field(default_factory=lambda: np.arange(0))
    #: Rows evaluated so far for the current candidate, and which missed.
    probed: np.ndarray = field(default_factory=lambda: np.arange(0))
    misses: np.ndarray = field(default_factory=lambda: np.arange(0))
    #: The current candidate's quantised weights (weight scans only).
    weights: np.ndarray | None = None
    #: Result, once decided.
    bits: int | None = None


class PrecisionSearch:
    """Finds per-layer minimum precisions at a relative-accuracy target.

    Parameters
    ----------
    network:
        Network under test.
    samples:
        Evaluation inputs ``(n, *input_shape)``.
    labels:
        Ground-truth labels; if ``None`` the floating-point model's
        predictions are used as the reference (top-1 agreement).
    relative_accuracy_target:
        Minimum allowed accuracy relative to the floating-point baseline
        (0.99 in the paper).
    candidate_bits:
        Bit widths tried, from low to high.
    """

    def __init__(
        self,
        network: Network,
        samples: np.ndarray,
        *,
        labels: np.ndarray | None = None,
        relative_accuracy_target: float = 0.99,
        candidate_bits: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 16),
    ):
        if not 0.0 < relative_accuracy_target <= 1.0:
            raise ValueError("relative_accuracy_target must be in (0, 1]")
        if not candidate_bits:
            raise ValueError("candidate_bits must not be empty")
        self.network = network
        self.samples = np.asarray(samples, dtype=np.float64)
        self.labels = None if labels is None else np.asarray(labels)
        self.relative_accuracy_target = relative_accuracy_target
        self.candidate_bits = tuple(sorted(candidate_bits))
        #: Baseline logits, computed on first use -- by a plain forward pass,
        #: or as a by-product of the incremental path's prefix capture (both
        #: run the identical per-layer batch loop, so the logits are the
        #: same bits either way).
        self._baseline_logits_cache: np.ndarray | None = None
        #: Lazily captured baseline inputs of each weighted layer
        #: (layer name -> (position in network.layers, activation batch)).
        self._prefix_inputs: dict[str, tuple[int, np.ndarray]] | None = None
        #: Lazily computed max(|weights|) per probed layer (the weight-scan
        #: candidates all share one weight matrix).
        self._weight_max_abs: dict[str, float] = {}
        #: Reusable quantisation buffer per probed layer -- repeat weight
        #: scans write into one allocation instead of faulting in a fresh
        #: fc-layer-sized array per candidate.
        self._weight_scratch: dict[str, np.ndarray] = {}

    # -- accuracy evaluation ---------------------------------------------------

    @property
    def _baseline_logits(self) -> np.ndarray:
        if self._baseline_logits_cache is None:
            self._baseline_logits_cache = self.network.forward_batch(self.samples)
        return self._baseline_logits_cache

    @property
    def _baseline_predictions(self) -> np.ndarray:
        return np.argmax(self._baseline_logits, axis=1)

    def baseline_accuracy(self) -> float:
        """Accuracy of the floating-point model (1.0 under the agreement proxy)."""
        if self.labels is None:
            return 1.0
        return classification_accuracy(self._baseline_logits, self.labels)

    def _score(self, logits: np.ndarray) -> float:
        if self.labels is None:
            return top1_agreement(self._baseline_logits, logits)
        baseline = self.baseline_accuracy()
        if baseline == 0:
            raise ValueError("baseline accuracy is zero; cannot compute relative accuracy")
        return classification_accuracy(logits, self.labels) / baseline

    def relative_accuracy(self, configs: dict[str, QuantizationConfig]) -> float:
        """Relative accuracy of the network under the given quantisation."""
        return self._score(self.network.forward_batch(self.samples, configs=configs))

    # -- incremental evaluation ---------------------------------------------------

    def _layer_prefix_inputs(self) -> dict[str, tuple[int, np.ndarray]]:
        """Baseline activations entering each weighted layer (captured once).

        The capture is one unquantised batch pass -- the same per-layer loop
        ``Network.forward_batch`` runs -- so its final tensor doubles as the
        baseline logits (stored if not already computed: one pass serves
        both).
        """
        if self._prefix_inputs is None:
            weighted = {id(layer) for layer in self.network.weighted_layers()}
            inputs: dict[str, tuple[int, np.ndarray]] = {}
            tensors = self.samples
            for position, layer in enumerate(self.network.layers):
                if id(layer) in weighted:
                    inputs[layer.name] = (position, tensors)
                tensors = layer.forward_batch(tensors, None)
            self._prefix_inputs = inputs
            if self._baseline_logits_cache is None:
                self._baseline_logits_cache = tensors
        return self._prefix_inputs

    def relative_accuracy_incremental(self, layer_name: str, config: QuantizationConfig) -> float:
        """Relative accuracy with exactly one layer quantised, prefix reused.

        All layers before ``layer_name`` run unquantised, so the cached
        baseline activations stand in for them; only the suffix from the
        probed layer on is recomputed, on the whole batch.  The score counts
        per-sample decisions, and those match
        ``relative_accuracy({layer_name: config})`` (the guarantee is
        decision-level, see the module docstring), at a fraction of the
        arithmetic.
        """
        position, tensors = self._layer_prefix_inputs()[layer_name]
        configs = {layer_name: config}
        for layer in self.network.layers[position:]:
            tensors = layer.forward_batch(tensors, configs.get(layer.name))
        return self._score(tensors)

    def _quantized_weights(self, layer_name: str, weights: np.ndarray, bits: int) -> np.ndarray:
        """``quantize(weights, bits)`` with the per-layer ``max(|W|)`` cached.

        Every candidate of a weight scan quantises the same matrix, so the
        reduction passes over the (fc-layer-sized) weights are paid once per
        layer instead of once per candidate, and all candidates share one
        scratch buffer, so the result is only valid until the same layer is
        quantised again.  The 1-bit binary path scales by the mean magnitude,
        not ``quantization_scale``.
        """
        scratch = self._weight_scratch.get(layer_name)
        if scratch is None or scratch.shape != np.shape(weights):
            scratch = np.empty_like(np.asarray(weights, dtype=np.float64))
            self._weight_scratch[layer_name] = scratch
        if bits == 1:
            return quantize(weights, bits, out=scratch)
        max_abs = self._weight_max_abs.get(layer_name)
        if max_abs is None:
            tensor = np.asarray(weights, dtype=np.float64)
            # Same value quantization_scale computes: max(|W|) via the two
            # reductions, no |W|-sized temporary.
            max_abs = max(float(np.max(tensor)), -float(np.min(tensor))) if tensor.size else 0.0
            self._weight_max_abs[layer_name] = max_abs
        return quantize(weights, bits, max_abs=max_abs, out=scratch)

    #: Samples evaluated by the leading certification probe of a scan's first
    #: candidate (later candidates re-probe the samples that disagreed at
    #: lower bit widths instead).
    _PROBE_CHUNK = 4

    def _start_candidate(self, scan: _Scan) -> None:
        """Point ``scan`` at its next candidate's first (cheapest) rows.

        Samples that disagreed at lower bit widths are the cheapest failure
        certificate (corruption shrinks as bits grow); a scan's first
        candidate has none yet and probes a small leading chunk, which
        certifies the grossly-failing low-bit candidates.
        """
        count = self.samples.shape[0]
        if scan.suspects is not None and scan.suspects.size:
            scan.pending = scan.suspects
        elif scan.suspects is None and self._PROBE_CHUNK < count:
            scan.pending = np.arange(self._PROBE_CHUNK)
        else:
            scan.pending = np.arange(count)
        scan.probed = scan.misses = np.arange(0)
        scan.weights = None
        if scan.target == "weights":
            layer = self.network.layers[scan.position]
            scan.weights = self._quantized_weights(
                layer.name, layer.weights, self.candidate_bits[scan.candidate]
            )

    def _probe_outputs(self, scan: _Scan) -> np.ndarray:
        """The probed layer's output on the scan's pending rows."""
        layer = self.network.layers[scan.position]
        rows = self._layer_prefix_inputs()[layer.name][1][scan.pending]
        if scan.weights is not None:
            return layer.forward_batch(rows, None, weights=scan.weights)
        bits = self.candidate_bits[scan.candidate]
        return layer.forward_batch(rows, QuantizationConfig(activation_bits=bits))

    def _merged_suffix(self, entries: list[tuple[int, np.ndarray]]) -> list[np.ndarray]:
        """Logits of several probed-layer outputs from one unquantised suffix pass.

        ``entries`` holds ``(position of the probed layer, its output rows)``
        per scan, ordered by position.  Rows join the stream at the layer
        after their probed layer, so every suffix layer runs once over
        everything that has reached it; the logits come back split per entry.
        """
        layers = self.network.layers
        stream = np.empty((0, *entries[0][1].shape[1:]))
        for position in range(entries[0][0], len(layers)):
            joining = [rows for at, rows in entries if at == position]
            if joining:
                stream = np.concatenate([stream, *joining])
            if position + 1 < len(layers):
                stream = layers[position + 1].forward_batch(stream, None)
        return np.split(stream, np.cumsum([rows.shape[0] for _, rows in entries])[:-1])

    def _lockstep(self, requests: list[tuple[str, str]]) -> list[int]:
        """Minimum bits of several ``(layer name, target)`` scans, advanced together.

        Each step computes every unfinished scan's probed-layer output on its
        pending rows, pushes all of them through one merged suffix pass and
        then applies each scan's decision rule to its own rows:

        * the misses seen so far already push the best-achievable score below
          the target -- the candidate is certified failing, and the scan
          moves to its next candidate;
        * undecided -- the next step evaluates the rows not yet seen;
        * the whole batch has been evaluated -- the candidate passes or fails
          on the exact full-batch score, and a pass returns its bits.

        The pass/fail decision is a monotone function of the number of
        misclassified (or argmax-disagreeing) samples, so it is the one the
        full-batch reference evaluation makes, provided every sample's
        prediction is the same however the rows are batched -- which holds
        at the decision level, not bit for bit (see the module docstring).
        """
        prefix = self._layer_prefix_inputs()
        count = self.samples.shape[0]
        reference = self._baseline_predictions if self.labels is None else self.labels
        baseline = self.baseline_accuracy()  # 1.0 in agreement mode: x / 1.0 == x
        if baseline == 0:
            raise ValueError("baseline accuracy is zero; cannot compute relative accuracy")

        def meets_target(hits: int) -> bool:
            # Exactly mirrors np.mean over the full batch: sums of 0/1 values
            # are exact integers, so hits/count is the same correctly-rounded
            # float64 the reference metric produces.
            accuracy = float(np.float64(hits) / np.float64(count))
            return accuracy / baseline >= self.relative_accuracy_target

        scans = [_Scan(position=prefix[name][0], target=target) for name, target in requests]
        for scan in scans:
            self._start_candidate(scan)
        # Ordered by depth: the order the merged suffix pass takes rows in.
        active = sorted(scans, key=lambda scan: scan.position)
        while active:
            outputs = [(scan.position, self._probe_outputs(scan)) for scan in active]
            for scan, logits in zip(active, self._merged_suffix(outputs)):
                wrong = np.argmax(logits, axis=1) != reference[scan.pending]
                scan.misses = np.union1d(scan.misses, scan.pending[wrong])
                scan.probed = np.union1d(scan.probed, scan.pending)
                if scan.probed.size == count:
                    if meets_target(count - scan.misses.size):
                        scan.bits = self.candidate_bits[scan.candidate]
                        continue
                elif meets_target(count - scan.misses.size):
                    # Undecided: evaluate the rows the early stage skipped.
                    scan.pending = np.setdiff1d(np.arange(count), scan.probed)
                    continue
                # Failed.  Every sample seen disagreeing in this scan stays a
                # suspect: near-threshold candidates often fail through a
                # different sample than their predecessor.
                scan.suspects = (
                    scan.misses if scan.suspects is None else np.union1d(scan.suspects, scan.misses)
                )
                scan.candidate += 1
                if scan.candidate == len(self.candidate_bits):
                    scan.bits = self.candidate_bits[-1]
                else:
                    self._start_candidate(scan)
            active = [scan for scan in active if scan.bits is None]
        return [scan.bits for scan in scans]

    # -- search ------------------------------------------------------------------

    def minimum_bits_for_layer(
        self, layer_name: str, *, target: str, incremental: bool = False
    ) -> int:
        """Smallest precision of ``target`` (``"weights"``/``"activations"``) for one layer."""
        if target not in ("weights", "activations"):
            raise ValueError("target must be 'weights' or 'activations'")
        layer_names = [layer.name for layer in self.network.weighted_layers()]
        if layer_name not in layer_names:
            raise ValueError(f"unknown weighted layer {layer_name!r}")
        if incremental:
            return self._lockstep([(layer_name, target)])[0]
        for bits in self.candidate_bits:
            if target == "weights":
                config = QuantizationConfig(weight_bits=bits)
            else:
                config = QuantizationConfig(activation_bits=bits)
            if self.relative_accuracy({layer_name: config}) >= self.relative_accuracy_target:
                return bits
        return self.candidate_bits[-1]

    def profile(self, *, incremental: bool = False) -> list[LayerPrecisionProfile]:
        """Per-layer minimum weight and activation precisions (Fig. 6 data).

        ``incremental=True`` advances all the per-layer scans in lockstep
        over the cached baseline prefix activations (same profile, much
        faster); the default full-forward evaluation is the golden reference.
        """
        names = [layer.name for layer in self.network.weighted_layers()]
        if incremental:
            bits = self._lockstep(
                [(name, target) for name in names for target in ("weights", "activations")]
            )
            return [
                LayerPrecisionProfile(
                    layer=name, weight_bits=bits[2 * index], activation_bits=bits[2 * index + 1]
                )
                for index, name in enumerate(names)
            ]
        return [
            LayerPrecisionProfile(
                layer=name,
                weight_bits=self.minimum_bits_for_layer(name, target="weights"),
                activation_bits=self.minimum_bits_for_layer(name, target="activations"),
            )
            for name in names
        ]

    def uniform_configs(self, profiles: list[LayerPrecisionProfile]) -> dict[str, QuantizationConfig]:
        """Quantisation configs applying every layer's found precisions at once."""
        return {
            profile.layer: QuantizationConfig(
                weight_bits=profile.weight_bits, activation_bits=profile.activation_bits
            )
            for profile in profiles
        }
