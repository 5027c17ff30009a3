"""Fixed-point quantisation of CNN weights and activations.

The paper's precision-scaling argument (Section IV-B, Fig. 6) rests on
uniform symmetric fixed-point quantisation: a tensor is scaled by a power of
two chosen from its dynamic range and rounded to ``bits``-bit signed
integers.  The same machinery drives both the per-layer precision search of
Fig. 6 and the quantised inference that feeds the Envision energy model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class QuantizationConfig:
    """Per-layer quantisation setting.

    Attributes
    ----------
    weight_bits:
        Precision of the layer weights (None = keep floating point).
    activation_bits:
        Precision of the layer input activations (None = keep floating point).
    """

    weight_bits: int | None = None
    activation_bits: int | None = None

    def __post_init__(self) -> None:
        for name, value in (("weight_bits", self.weight_bits), ("activation_bits", self.activation_bits)):
            if value is not None and value < 1:
                raise ValueError(f"{name} must be positive or None")

    @property
    def required_bits(self) -> int:
        """Datapath precision needed by this configuration (max of the two)."""
        candidates = [bits for bits in (self.weight_bits, self.activation_bits) if bits]
        return max(candidates) if candidates else 16


def quantization_scale(tensor: np.ndarray, bits: int, *, max_abs: float | None = None) -> float:
    """Power-of-two scale mapping ``tensor`` onto ``bits``-bit signed integers.

    The scale is the smallest power of two that covers the tensor's maximum
    absolute value, which keeps dequantisation a pure shift (as fixed-point
    hardware does).  ``max_abs`` may carry a precomputed ``max(|tensor|)`` so
    repeated scans of one weight matrix (the precision search probes every
    candidate bit width) skip the reduction passes.
    """
    if bits < 1:
        raise ValueError("bits must be positive")
    tensor = np.asarray(tensor, dtype=np.float64)
    if max_abs is None:
        # max(|W|) via the two reductions instead of np.max(np.abs(...)):
        # same value, but no |W|-sized temporary (the fc-layer weight
        # matrices in the precision-search hot path are hundreds of
        # megabytes).
        max_abs = max(float(np.max(tensor)), -float(np.min(tensor))) if tensor.size else 0.0
    if max_abs == 0.0:
        return 1.0
    # Want max_abs <= scale * levels; choose scale = 2**e.  A 1-bit code has
    # a single magnitude level (BinaryNet-style +-scale).
    levels = max(1, 2 ** (bits - 1) - 1)
    ratio = max_abs / levels
    smallest_subnormal = float(np.nextafter(0.0, 1.0))
    if ratio < smallest_subnormal:
        # Denormal underflow: the smallest positive double still covers.
        return smallest_subnormal
    exponent = np.ceil(np.log2(ratio))
    return max(float(2.0**exponent), smallest_subnormal)


def quantize(
    tensor: np.ndarray,
    bits: int | None,
    *,
    scale: float | None = None,
    max_abs: float | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Quantise ``tensor`` to ``bits``-bit fixed point (returns dequantised floats).

    ``bits=None`` returns the tensor unchanged (floating-point reference).
    ``scale`` may carry a precomputed ``quantization_scale(tensor, bits)``,
    or at ``bits=1`` a precomputed mean magnitude ``mean(|tensor|)`` (the
    binary path's scale); the precision search passes the whole matrix's
    scale while it quantises one block of rows at a time.  ``max_abs`` may
    carry a precomputed ``max(|tensor|)``: it feeds the scale computation
    and lets the clip pass be skipped when provably an identity.  ``out``,
    when given, receives the result and is returned (same float64 shape as
    ``tensor``, not aliasing it); repeat quantisations of one large weight
    matrix then reuse a single buffer instead of paying a fresh
    multi-megabyte allocation per call.
    """
    if bits is None:
        return np.asarray(tensor, dtype=np.float64)
    tensor = np.asarray(tensor, dtype=np.float64)
    if bits == 1:
        # Binary quantisation (the Courbariaux et al. regime cited in the
        # paper): values become +-scale, with scale set by the mean magnitude.
        # Without a given scale, the |tensor| workspace that yields it is
        # overwritten with the result, which is exactly ``np.where(tensor >=
        # 0.0, scale, -scale)`` (so -0.0 maps to +scale and NaN to -scale)
        # without a second tensor-sized array.
        if scale is None:
            result = np.abs(tensor, out=out)
            scale = float(np.mean(result)) if tensor.size else 1.0
        else:
            result = np.empty_like(tensor) if out is None else out
        if scale == 0.0:
            result.fill(0.0)
        elif 0.0 < scale < 1e300:
            # (tensor >= 0) * 2s - s, in three unmasked passes: 2s is exact
            # (no overflow below 1e300), 2s - s == s by Sterbenz's lemma and
            # 0 - s == -s, so this equals the masked copy below, ~7x faster
            # on a 32 x 4096 block.
            np.greater_equal(tensor, 0.0, out=result)
            result *= 2.0 * scale
            result -= scale
        else:
            result.fill(-scale)
            np.copyto(result, scale, where=tensor >= 0.0)
        return result
    if scale is None:
        scale = quantization_scale(tensor, bits, max_abs=max_abs)
    lo = -(2 ** (bits - 1))
    hi = 2 ** (bits - 1) - 1
    # One working buffer, mutated in place: the float operations are
    # element-wise identical to ``np.clip(np.round(t / scale), lo, hi) *
    # scale``, but the multi-megabyte temporaries (fc-layer weight matrices
    # dominate the precision-search hot path) are never allocated.  The
    # scale is a power of two, so its reciprocal is exact and multiplying
    # by it is the same correctly-rounded operation as dividing -- at a
    # fraction of the cost; the guard keeps the division for the subnormal
    # edge where the reciprocal would overflow.
    reciprocal = 1.0 / scale
    if np.isfinite(reciprocal) and reciprocal != 0.0:
        codes = np.multiply(tensor, reciprocal, out=out)
    else:  # pragma: no cover - subnormal/huge scales only
        codes = np.divide(tensor, scale, out=out)
    np.round(codes, out=codes)
    if max_abs is None or max_abs > scale * hi:
        # When a caller-supplied max(|tensor|) proves the scale covers the
        # range (max_abs <= scale * hi, so every rounded code already lies
        # inside [lo, hi]), the clip is an identity and the pass is skipped
        # -- the repeat weight-scan probes of the precision search use this.
        np.clip(codes, lo, hi, out=codes)
    codes *= scale
    return codes


def quantize_per_sample(tensor: np.ndarray, bits: int | None) -> np.ndarray:
    """Quantise each sample of a batch independently, in one vectorised pass.

    Equivalent to ``np.stack([quantize(sample, bits) for sample in tensor])``:
    every sample along axis 0 gets its own dynamic-range scale, exactly like
    the per-sample forward path, but scales, rounding and clipping are
    evaluated for the whole batch at once.
    """
    if bits is None:
        return np.asarray(tensor, dtype=np.float64)
    tensor = np.asarray(tensor, dtype=np.float64)
    if tensor.ndim < 2:
        raise ValueError("per-sample quantisation needs a batch dimension")
    axes = tuple(range(1, tensor.ndim))
    if bits == 1:
        scale = np.mean(np.abs(tensor), axis=axes, keepdims=True)
        signs = np.where(tensor >= 0.0, 1.0, -1.0)
        return np.where(scale == 0.0, 0.0, signs * scale)
    max_abs = np.max(np.abs(tensor), axis=axes, keepdims=True)
    levels = max(1, 2 ** (bits - 1) - 1)
    with np.errstate(divide="ignore"):
        exponent = np.ceil(np.log2(max_abs / levels))
    scale = np.where(max_abs == 0.0, 1.0, 2.0**exponent)
    lo = -(2 ** (bits - 1))
    hi = 2 ** (bits - 1) - 1
    codes = np.clip(np.round(tensor / scale), lo, hi)
    return codes * scale


def quantize_to_codes(tensor: np.ndarray, bits: int) -> tuple[np.ndarray, float]:
    """Quantise and return ``(integer codes, scale)`` for integer pipelines.

    ``codes * scale`` equals ``quantize(tensor, bits)``; at ``bits=1`` the
    codes are the binary +-1 and the scale is the mean magnitude.
    """
    if bits < 1:
        raise ValueError("bits must be positive")
    tensor = np.asarray(tensor, dtype=np.float64)
    if bits == 1:
        scale = float(np.mean(np.abs(tensor))) if tensor.size else 1.0
        return np.where(tensor >= 0.0, 1, -1).astype(np.int64), scale
    scale = quantization_scale(tensor, bits)
    lo = -(2 ** (bits - 1))
    hi = 2 ** (bits - 1) - 1
    codes = np.clip(np.round(tensor / scale), lo, hi).astype(np.int64)
    return codes, scale


def quantization_error(tensor: np.ndarray, bits: int) -> float:
    """RMS quantisation error of ``tensor`` at ``bits`` precision."""
    tensor = np.asarray(tensor, dtype=np.float64)
    if tensor.size == 0:
        return 0.0
    return float(np.sqrt(np.mean((quantize(tensor, bits) - tensor) ** 2)))
