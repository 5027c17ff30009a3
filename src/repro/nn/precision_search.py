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
(layer, target) scan in *lockstep*: each step pushes every unfinished
scan's pending rows through **one** merged unquantised pass.  An activation
scan's rows are quantised per sample and join the stream *at* its probed
layer; a weight scan's rows run through its probed layer with the
candidate's weights and join *after* it.  Every layer thus runs one
unquantised pass per step, and a dense layer's weights are read once per
step for the stream, plus once for its own weight probe.  That probe
quantises the matrix a block of output rows at a time into one small
buffer, so no weight-sized array is allocated (conv weights, at most a few
megabytes, are quantised once per candidate into a reused buffer).
Failing candidates are certified early from a few rows (a leading chunk,
then the samples seen disagreeing at lower bit widths).

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
from .layers import FullyConnected, Layer
from .network import Network
from .quantization import QuantizationConfig, quantize, quantize_per_sample

#: Output rows of a dense weight matrix a weight probe quantises at a time:
#: 32 rows x 4096 inputs x 8 B = 1 MiB, which stays in cache.
_DENSE_BLOCK_ROWS = 32


def _mean_magnitude(weights: np.ndarray) -> float:
    """``float(np.mean(np.abs(weights)))``, without a weights-sized float temporary.

    The sign bits are saved in a boolean mask (one byte per weight), |W| is
    taken in place, and the signs are OR-ed back in afterwards, block by
    block (``-0.0`` and NaN signs included), so the weights end
    bit-identical.  The mean reduces the same values in the same layout as
    ``np.mean(np.abs(weights))``, so it is bit-identical too.  The weights
    hold |W| while the mean runs: nothing else may read them meanwhile.
    """
    if not (weights.flags.writeable and weights.flags.c_contiguous and weights.dtype == np.float64):
        return float(np.mean(np.abs(np.asarray(weights, dtype=np.float64))))
    negative = np.signbit(weights).reshape(-1)
    np.abs(weights, out=weights)
    try:
        return float(np.mean(weights))
    finally:
        words = weights.reshape(-1).view(np.uint64)
        # 8192 sign words (64 KiB) per pass: a masked np.negative over the
        # whole matrix runs ~10x slower than these unmasked block passes.
        signs = np.empty(min(words.size, 8192), dtype=np.uint64)
        for start in range(0, words.size, signs.size):
            block = signs[: min(signs.size, words.size - start)]
            np.left_shift(negative[start : start + block.size], np.uint64(63), out=block, dtype=np.uint64)
            words[start : start + block.size] |= block


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
    #: The current candidate's quantised weights (conv weight scans only: a
    #: dense layer's probe quantises its weights block by block).
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
        #: Lazily computed max(|weights|) and, for the 1-bit candidate,
        #: mean(|weights|) per probed layer (the weight-scan candidates all
        #: share one weight matrix).
        self._weight_max_abs: dict[str, float] = {}
        self._weight_mean_abs: dict[str, float] = {}
        #: Reusable quantisation buffer per probed conv layer -- its repeat
        #: weight scans write into one allocation.
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

    def _quantize_weights(
        self, layer: Layer, weights: np.ndarray, bits: int, out: np.ndarray
    ) -> np.ndarray:
        """``quantize(layer.weights, bits)`` restricted to ``weights``, written into ``out``.

        ``weights`` is the layer's weights or a block of their rows.  The
        scale comes from the whole matrix -- max(|W|), or mean(|W|) for the
        1-bit binary path -- computed once per layer, so every block
        quantises elementwise identically to the same rows of the whole.
        """
        if bits == 1:
            scale = self._weight_mean_abs.get(layer.name)
            if scale is None:
                scale = self._weight_mean_abs[layer.name] = _mean_magnitude(layer.weights)
            return quantize(weights, bits, scale=scale, out=out)
        max_abs = self._weight_max_abs.get(layer.name)
        if max_abs is None:
            # Same value quantization_scale computes: max(|W|) via the two
            # reductions, no |W|-sized temporary.
            max_abs = max(float(np.max(layer.weights)), -float(np.min(layer.weights)))
            self._weight_max_abs[layer.name] = max_abs
        return quantize(weights, bits, max_abs=max_abs, out=out)

    def _dense_weight_probe(self, layer: FullyConnected, rows: np.ndarray, bits: int) -> np.ndarray:
        """``layer.forward_batch(rows, QuantizationConfig(weight_bits=bits))``, block by block.

        Each block of ``_DENSE_BLOCK_ROWS`` output rows of the weights is
        quantised into one small buffer and multiplied by ``rows`` before the
        next block is, so no weight-sized array is allocated.  The products
        run in differently shaped BLAS calls, so the outputs match the
        layer's own pass to rounding, not bit for bit.
        """
        weights = layer.weights
        layer.statistics.observe(rows)
        outputs = np.empty((rows.shape[0], weights.shape[0]))
        block = np.empty((min(_DENSE_BLOCK_ROWS, weights.shape[0]), weights.shape[1]))
        for start in range(0, weights.shape[0], _DENSE_BLOCK_ROWS):
            stop = min(start + _DENSE_BLOCK_ROWS, weights.shape[0])
            quantized = self._quantize_weights(layer, weights[start:stop], bits, block[: stop - start])
            outputs[:, start:stop] = rows @ quantized.T
        outputs += layer.bias
        return outputs

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
        layer = self.network.layers[scan.position]
        if scan.target == "weights" and not isinstance(layer, FullyConnected):
            scratch = self._weight_scratch.get(layer.name)
            if scratch is None:
                scratch = self._weight_scratch[layer.name] = np.empty(np.shape(layer.weights))
            scan.weights = self._quantize_weights(
                layer, layer.weights, self.candidate_bits[scan.candidate], scratch
            )

    def _step(self, scans: list[_Scan]) -> list[np.ndarray]:
        """Logits of every scan's pending rows, from one merged unquantised pass.

        An activation scan's rows are quantised per sample and enter the
        stream at its probed layer; a weight scan's rows run through its
        probed layer with the candidate's weights and enter after it.  Every
        layer from the shallowest entry on then runs once, unquantised, over
        everything that has reached it; the logits come back split per scan.
        """
        layers = self.network.layers
        prefix = self._layer_prefix_inputs()
        # (position of the layer the rows enter at, scan index, rows)
        entries = []
        for index, scan in enumerate(scans):
            layer = layers[scan.position]
            rows = prefix[layer.name][1][scan.pending]
            bits = self.candidate_bits[scan.candidate]
            if scan.target == "activations":
                entries.append((scan.position, index, quantize_per_sample(rows, bits)))
            elif isinstance(layer, FullyConnected):
                entries.append((scan.position + 1, index, self._dense_weight_probe(layer, rows, bits)))
            else:
                outputs = layer.forward_batch(rows, None, weights=scan.weights)
                entries.append((scan.position + 1, index, outputs))
        entries.sort(key=lambda entry: entry[0])
        stream = None
        for position in range(entries[0][0], len(layers) + 1):
            joining = [rows for at, _, rows in entries if at == position]
            if joining:
                stream = np.concatenate(joining if stream is None else [stream, *joining])
            if position < len(layers):
                stream = layers[position].forward_batch(stream, None)
        logits: list[np.ndarray] = [np.empty(0)] * len(scans)
        sizes = np.cumsum([rows.shape[0] for _, _, rows in entries])[:-1]
        for (_, index, _), part in zip(entries, np.split(stream, sizes)):
            logits[index] = part
        return logits

    def _lockstep(self, requests: list[tuple[str, str]]) -> list[int]:
        """Minimum bits of several ``(layer name, target)`` scans, advanced together.

        Each step pushes every unfinished scan's pending rows through one
        merged pass (:meth:`_step`) and then applies each scan's decision
        rule to its own rows:

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
        active = scans
        while active:
            for scan, logits in zip(active, self._step(active)):
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
