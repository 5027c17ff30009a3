"""Behavioural re-implementations of the approximate-multiplier baselines.

Fig. 3b of the paper compares the DVAFS multiplier against four published
approximate-computing designs:

* **[3] Liu et al., DATE 2014** -- an approximate multiplier whose partial
  products are accumulated with approximate (carry-free) adders, plus a
  configurable number of *error-recovery* stages; a variant with voltage
  scaling ("[3] + VS") is also plotted.
* **[4] Kulkarni et al., VLSID 2011** -- an *underdesigned* multiplier built
  recursively from an inaccurate 2x2 block (3 x 3 = 7).
* **[5] Kyaw et al., EDSSC 2011** -- an *error-tolerant* multiplier that
  multiplies the MSB halves exactly and approximates the LSB contribution.
* **[8] de la Guia Solaz et al., TCAS-I 2012** -- a programmable *truncated*
  multiplier whose truncation column is a run-time knob.

We do not have the authors' silicon, so each scheme is re-implemented
behaviourally: its arithmetic error is *measured* on random operand streams
(that fixes the x-axis of Fig. 3b), and its energy is modelled from the
fraction of the partial-product array it keeps active, together with the
voltage headroom its fixed-frequency operation allows.  The energy axis is
relative to the scheme's own exact implementation, exactly as in the paper.

Every scheme's ``multiply`` takes Python ints or int64 operand arrays of any
matching shape (whole-array shifts, masks and ``np.where``), so a design's
RMSE is one call over the whole operand stream.  Scalars come back as ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fixed_point import signed_range

#: Widest operand whose products and shifted partial products fit in int64.
MAX_WIDTH = 31


#: Full-scale value of a signed ``width``-bit operand interpreted as Q1.(w-1).
def _full_scale(width: int) -> float:
    return float(1 << (width - 1))


def _check_width(width: int) -> None:
    if not 1 <= width <= MAX_WIDTH:
        raise ValueError(f"width must be in [1, {MAX_WIDTH}]")


def _magnitudes(x, y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sign of the product (+1/-1) and the operands' magnitudes, as int64."""
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    return np.where((x < 0) != (y < 0), -1, 1), np.abs(x), np.abs(y)


def _signed(sign: np.ndarray, magnitude: np.ndarray):
    """Apply ``sign``; a 0-d result comes back as a Python int."""
    product = sign * magnitude
    return int(product) if np.ndim(product) == 0 else product


def _ones_through_leading_bit(values: np.ndarray) -> np.ndarray:
    """``(1 << v.bit_length()) - 1`` per element (0 stays 0), for v < 2**63."""
    for shift in (1, 2, 4, 8, 16, 32):
        values = values | (values >> shift)
    return values


def measure_relative_rmse(
    multiply: Callable[[np.ndarray, np.ndarray], np.ndarray],
    width: int,
    *,
    samples: int = 2000,
    seed: int = 2017,
) -> float:
    """Relative RMSE of an approximate multiplier over random operands.

    Operands are drawn uniformly over the signed ``width``-bit range and
    interpreted as Q1.(width-1) fractions, so the exact product lies in
    [-1, 1); the returned RMSE is therefore directly comparable with the
    1e-6 .. 1e-2 axis of Fig. 3b.  ``multiply`` is called once, on the two
    int64 operand arrays.
    """
    rng = np.random.default_rng(seed)
    lo, hi = signed_range(width)
    xs = rng.integers(lo, hi + 1, size=samples)
    ys = rng.integers(lo, hi + 1, size=samples)
    scale = _full_scale(width) ** 2
    errors = (multiply(xs, ys) - xs * ys) / scale
    return float(np.sqrt(np.mean(errors**2)))


@dataclass(frozen=True)
class BaselinePoint:
    """One (accuracy, energy) operating point of a baseline scheme.

    Attributes
    ----------
    label:
        Human-readable configuration label (e.g. ``"ETM split=8"``).
    rmse:
        Measured relative RMSE of the configuration.
    relative_energy:
        Energy per multiplication relative to the scheme's exact multiplier.
    runtime_adaptive:
        Whether the configuration can be selected at run time (curve) or is
        fixed at design time (single point per manufactured design).
    """

    label: str
    rmse: float
    relative_energy: float
    runtime_adaptive: bool


# ---------------------------------------------------------------------------
# [4] Kulkarni: underdesigned 2x2 building block
# ---------------------------------------------------------------------------


class KulkarniUnderdesignedMultiplier:
    """Recursive multiplier built from the inaccurate 2x2 block of [4].

    The 2x2 block returns 7 instead of 9 for ``3 x 3`` (saving the third
    output bit and a large share of the block's gates); all other input
    combinations are exact.  Larger multipliers compose four half-width
    multipliers in the usual Karatsuba-free quadratic decomposition.
    """

    name = "[4] Kulkarni underdesigned"
    #: Relative power of the approximate design vs. the exact array
    #: multiplier, per the savings reported in the original paper.
    RELATIVE_ENERGY = 0.62

    def __init__(self, width: int = 16):
        if width < 2 or width & (width - 1):
            raise ValueError("width must be a power of two >= 2")
        _check_width(width)
        self.width = width

    def _multiply_unsigned(self, a: np.ndarray, b: np.ndarray, width: int) -> np.ndarray:
        if width == 2:
            return np.where((a == 3) & (b == 3), 7, a * b)
        half = width // 2
        mask = (1 << half) - 1
        a_lo, a_hi = a & mask, a >> half
        b_lo, b_hi = b & mask, b >> half
        return (
            self._multiply_unsigned(a_lo, b_lo, half)
            + (self._multiply_unsigned(a_lo, b_hi, half) << half)
            + (self._multiply_unsigned(a_hi, b_lo, half) << half)
            + (self._multiply_unsigned(a_hi, b_hi, half) << width)
        )

    def multiply(self, x, y):
        """Approximate signed product (sign-magnitude around the unsigned core)."""
        sign, a, b = _magnitudes(x, y)
        return _signed(sign, self._multiply_unsigned(a, b, self.width))

    def design_points(self) -> list[BaselinePoint]:
        """Single fixed design point of the scheme."""
        rmse = measure_relative_rmse(self.multiply, self.width)
        return [
            BaselinePoint(
                label="underdesigned 2x2 blocks",
                rmse=rmse,
                relative_energy=self.RELATIVE_ENERGY,
                runtime_adaptive=False,
            )
        ]


# ---------------------------------------------------------------------------
# [5] Kyaw: error-tolerant multiplier
# ---------------------------------------------------------------------------


class KyawErrorTolerantMultiplier:
    """Error-tolerant multiplier of [5]: exact MSB part, approximate LSB part.

    Operands are split at ``split`` bits: the upper parts are multiplied
    exactly, while the contribution of the lower parts is approximated by a
    string of ones starting at the highest active LSB column (the original
    non-carry "error-tolerant" estimation).  The split position is a design
    time choice, so each split is a separate manufactured design.
    """

    name = "[5] Kyaw error-tolerant"

    def __init__(self, width: int = 16, split: int = 8):
        if not 1 <= split < width:
            raise ValueError("split must be in [1, width)")
        _check_width(width)
        self.width = width
        self.split = split

    def multiply(self, x, y):
        """Approximate signed product."""
        sign, a, b = _magnitudes(x, y)
        mask = (1 << self.split) - 1
        a_lo, a_hi = a & mask, a >> self.split
        b_lo, b_hi = b & mask, b >> self.split
        exact_part = (a_hi * b_hi) << (2 * self.split)
        exact_part += ((a_hi * b_lo) + (a_lo * b_hi)) << self.split
        # Error-tolerant estimation of the LSB x LSB contribution: all output
        # bits below the leading active column are set to one.
        approx_low = _ones_through_leading_bit(a_lo | b_lo)
        return _signed(sign, exact_part + approx_low)

    def relative_energy(self) -> float:
        """Energy vs. the exact multiplier: the LSB x LSB quadrant is removed."""
        active_fraction = 1.0 - (self.split / self.width) ** 2
        return 0.15 + 0.85 * active_fraction

    def design_points(self) -> list[BaselinePoint]:
        """Fixed design points for a few representative split positions."""
        points = []
        for split in (self.width // 4, self.width // 2, (3 * self.width) // 4):
            design = KyawErrorTolerantMultiplier(self.width, split)
            points.append(
                BaselinePoint(
                    label=f"ETM split={split}",
                    rmse=measure_relative_rmse(design.multiply, self.width),
                    relative_energy=design.relative_energy(),
                    runtime_adaptive=False,
                )
            )
        return points


# ---------------------------------------------------------------------------
# [3] Liu: approximate multiplier with configurable partial error recovery
# ---------------------------------------------------------------------------


class LiuPartialErrorRecoveryMultiplier:
    """Approximate multiplier of [3] with configurable error recovery.

    Partial products are accumulated with carry-free (OR-based) approximate
    adders; ``recovery_columns`` most-significant product columns are then
    corrected with exact carry propagation.  More recovery columns means a
    more accurate but more power-hungry design; the choice is fixed at design
    time.  The ``voltage_scaled`` variant models the "[3] + VS" curve of
    Fig. 3b, where the shorter approximate-adder paths are exploited with a
    static supply reduction.
    """

    name = "[3] Liu partial error recovery"

    def __init__(self, width: int = 16, recovery_columns: int = 16, *, voltage_scaled: bool = False):
        if recovery_columns < 0 or recovery_columns > 2 * width:
            raise ValueError("recovery_columns must be in [0, 2*width]")
        _check_width(width)
        self.width = width
        self.recovery_columns = recovery_columns
        self.voltage_scaled = voltage_scaled

    def multiply(self, x, y):
        """Approximate signed product."""
        sign, a, b = _magnitudes(x, y)
        product_bits = 2 * self.width
        boundary = product_bits - self.recovery_columns
        boundary = max(0, min(product_bits, boundary))
        low_mask = (1 << boundary) - 1

        # Exact contribution of every partial product above the boundary,
        # approximate (carry-free OR accumulation) below it.
        exact_sum = np.zeros_like(a)
        approx_or = np.zeros_like(a)
        for bit in range(self.width):
            row = np.where((b >> bit) & 1, a << bit, 0)
            exact_sum += row & ~low_mask
            approx_or |= row & low_mask
        return _signed(sign, exact_sum + approx_or)

    def relative_energy(self) -> float:
        """Energy vs. the exact multiplier for this recovery configuration."""
        recovery_fraction = self.recovery_columns / (2 * self.width)
        energy = 0.45 + 0.50 * recovery_fraction
        if self.voltage_scaled:
            # Static supply reduction 1.1 V -> 1.0 V enabled by the shorter
            # carry-free paths.
            energy *= (1.0 / 1.1) ** 2
        return energy

    def design_points(self) -> list[BaselinePoint]:
        """Design points over a range of recovery configurations."""
        points = []
        for columns in (self.width // 2, self.width, (3 * self.width) // 2):
            design = LiuPartialErrorRecoveryMultiplier(
                self.width, columns, voltage_scaled=self.voltage_scaled
            )
            suffix = " + VS" if self.voltage_scaled else ""
            points.append(
                BaselinePoint(
                    label=f"recovery={columns}{suffix}",
                    rmse=measure_relative_rmse(design.multiply, self.width),
                    relative_energy=design.relative_energy(),
                    runtime_adaptive=False,
                )
            )
        return points


# ---------------------------------------------------------------------------
# [8] de la Guia Solaz: programmable truncated multiplier
# ---------------------------------------------------------------------------


class SolazTruncatedMultiplier:
    """Programmable truncated multiplier of [8].

    The truncation column ``t`` is a run-time programmable register: all
    partial-product bits in columns below ``t`` are dropped and a constant
    compensation of half an LSB-column is added.  Because the design keeps
    its frequency and supply fixed, energy only scales with the active
    fraction of the partial-product array and flattens out at the
    non-truncatable overhead -- which is why DVAFS overtakes it at low
    accuracy in Fig. 3b.
    """

    name = "[8] programmable truncation"
    #: Fraction of the multiplier energy that does not scale with truncation
    #: (operand registers, Booth encoders, final adder MSBs, control).
    FIXED_FRACTION = 0.28

    def __init__(self, width: int = 16, truncation_column: int = 0):
        if not 0 <= truncation_column <= 2 * width - 2:
            raise ValueError("truncation_column out of range")
        _check_width(width)
        self.width = width
        self.truncation_column = truncation_column

    def set_truncation(self, column: int) -> None:
        """Program the truncation column (run-time knob)."""
        if not 0 <= column <= 2 * self.width - 2:
            raise ValueError("truncation column out of range")
        self.truncation_column = column

    def multiply(self, x, y):
        """Approximate signed product with truncated partial products."""
        sign, a, b = _magnitudes(x, y)
        column = self.truncation_column
        total = np.zeros_like(a)
        for bit in range(self.width):
            total += np.where((b >> bit) & 1, a << bit, 0) & ~((1 << column) - 1)
        if column > 0:
            # Constant compensation: half of the expected dropped weight.
            total += 1 << (column - 1)
        return _signed(sign, total)

    def relative_energy(self) -> float:
        """Energy vs. full operation at the current truncation setting."""
        product_bits = 2 * self.width
        active_columns = product_bits - self.truncation_column
        active_fraction = (active_columns / product_bits) ** 2
        return self.FIXED_FRACTION + (1.0 - self.FIXED_FRACTION) * active_fraction

    def design_points(self) -> list[BaselinePoint]:
        """Run-time curve over truncation settings."""
        points = []
        for column in range(0, 2 * self.width - 6, 3):
            self.set_truncation(column)
            points.append(
                BaselinePoint(
                    label=f"truncate<{column}",
                    rmse=measure_relative_rmse(self.multiply, self.width),
                    relative_energy=self.relative_energy(),
                    runtime_adaptive=True,
                )
            )
        return points


def all_baseline_curves(width: int = 16) -> dict[str, list[BaselinePoint]]:
    """Design/operating points of every baseline scheme, keyed by name.

    This is the data behind the comparison curves of Fig. 3b; the DVAFS curve
    itself comes from :mod:`repro.experiments.fig3`.
    """
    liu = LiuPartialErrorRecoveryMultiplier(width)
    liu_vs = LiuPartialErrorRecoveryMultiplier(width, voltage_scaled=True)
    return {
        LiuPartialErrorRecoveryMultiplier.name: liu.design_points(),
        LiuPartialErrorRecoveryMultiplier.name + " + VS": liu_vs.design_points(),
        KulkarniUnderdesignedMultiplier.name: KulkarniUnderdesignedMultiplier(width).design_points(),
        KyawErrorTolerantMultiplier.name: KyawErrorTolerantMultiplier(width).design_points(),
        SolazTruncatedMultiplier.name: SolazTruncatedMultiplier(width).design_points(),
    }
