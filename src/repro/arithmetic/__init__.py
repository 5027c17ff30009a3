"""Arithmetic substrate: fixed point, structural multipliers, MACs, baselines."""

from .adder import CarryLookaheadModel
from .batch import (
    MAX_BATCH_WIDTH,
    BatchMultiplyResult,
    batch_booth_digits,
    batch_multiply,
    batch_partial_products,
    batch_reduce_rows,
    bit_count,
)
from .baselines import (
    BaselinePoint,
    KulkarniUnderdesignedMultiplier,
    KyawErrorTolerantMultiplier,
    LiuPartialErrorRecoveryMultiplier,
    SolazTruncatedMultiplier,
    all_baseline_curves,
    measure_relative_rmse,
)
from .booth import (
    BOOTH_DIGITS,
    PartialProduct,
    booth_decode,
    booth_digit_count,
    booth_recode,
    digit_to_code,
    generate_partial_products,
)
from .fixed_point import (
    FixedPointFormat,
    clamp_signed,
    from_twos_complement,
    pack_subwords,
    quantization_rmse,
    round_lsbs,
    signed_range,
    to_twos_complement,
    truncate_lsbs,
    unpack_subwords,
    wrap_signed,
)
from .gates import CELL_COSTS, CellCost, cell_cost, popcount
from .mac import MacStatistics, MacUnit
from .multiplier import ActivityReport, BoothWallaceMultiplier
from .subword import SubwordMode, SubwordParallelMultiplier
from .wallace import ReductionLevel, ReductionResult, reduce_rows, wallace_levels

__all__ = [
    "CarryLookaheadModel",
    "MAX_BATCH_WIDTH",
    "BatchMultiplyResult",
    "batch_booth_digits",
    "batch_multiply",
    "batch_partial_products",
    "batch_reduce_rows",
    "bit_count",
    "BaselinePoint",
    "KulkarniUnderdesignedMultiplier",
    "KyawErrorTolerantMultiplier",
    "LiuPartialErrorRecoveryMultiplier",
    "SolazTruncatedMultiplier",
    "all_baseline_curves",
    "measure_relative_rmse",
    "BOOTH_DIGITS",
    "PartialProduct",
    "booth_decode",
    "booth_digit_count",
    "booth_recode",
    "digit_to_code",
    "generate_partial_products",
    "FixedPointFormat",
    "clamp_signed",
    "from_twos_complement",
    "pack_subwords",
    "quantization_rmse",
    "round_lsbs",
    "signed_range",
    "to_twos_complement",
    "truncate_lsbs",
    "unpack_subwords",
    "wrap_signed",
    "CELL_COSTS",
    "CellCost",
    "cell_cost",
    "popcount",
    "MacStatistics",
    "MacUnit",
    "ActivityReport",
    "BoothWallaceMultiplier",
    "SubwordMode",
    "SubwordParallelMultiplier",
    "ReductionLevel",
    "ReductionResult",
    "reduce_rows",
    "wallace_levels",
]
