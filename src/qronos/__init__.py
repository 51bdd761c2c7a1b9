"""Layer-wise post-training quantization with error feedback.

The package quantizes one weight matrix at a time against calibration
activations.  Alongside round-to-nearest it implements sequential
rounding rules that track both the mismatch already committed on
earlier coordinates and the drift of the quantized input stream, in a
slow definitional form and a Cholesky form that runs in cubic time.
Verification suites certify the algebraic identities between the forms
at tight numerical tolerance, and a toy-network simulator measures how
rounding error compounds through depth.
"""

from .bench import BenchConfig, median_algo_times, run_bench
from .calib import (
    CalibStats,
    ColumnOrder,
    accumulate,
    natural_order,
    order_by_diag,
    permute_weights,
    unpermute_result,
)
from .errors import (
    ConvergenceError,
    EnumerationCapError,
    NonFiniteInputError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    QmxFormatError,
    ShapeError,
)
from .grid import (
    QuantGrid,
    grid_from_minmax,
    levels_from_bits,
    quantize_per_token,
    quantize_rtn,
    symmetric_scale_search,
)
from .linalg import (
    CholeskyFactor,
    DampingPolicy,
    apply_damping,
    cholesky_lower,
    inverse_hessian_step,
    solve_spd,
    spd_inverse,
    top_singular_value,
)
from .netsim import (
    LayerSpec,
    NetworkSpec,
    PropagationReport,
    build_random_network,
    forward_pair,
    fwht,
    quantize_network,
)
from .oracle import (
    brute_force_ils,
    direct_lstsq,
    first_step_pinv,
    step_objective,
    stepwise_argmin_oracle,
)
from .qmx import read_qmx, write_qmx
from .rounding import (
    LayerQuantRequest,
    LayerReport,
    METHOD_SPECS,
    METHODS,
    RoundingTrace,
    chol_of_inverse,
    quantize_gpfq_column,
    quantize_layer,
    quantize_optq_column,
    quantize_optq_column_ref,
    quantize_qronos_base_column,
    quantize_qronos_column,
    quantize_rtn_layer,
)
from .verify import SUITE_NAMES, SuiteResult, run_suite

__version__ = "0.1.0"

__all__ = [
    "BenchConfig",
    "CalibStats",
    "CholeskyFactor",
    "ColumnOrder",
    "ConvergenceError",
    "DampingPolicy",
    "EnumerationCapError",
    "LayerQuantRequest",
    "LayerReport",
    "LayerSpec",
    "METHOD_SPECS",
    "METHODS",
    "NetworkSpec",
    "NonFiniteInputError",
    "NotPositiveDefiniteError",
    "NotSymmetricError",
    "PropagationReport",
    "QmxFormatError",
    "QuantGrid",
    "RoundingTrace",
    "SUITE_NAMES",
    "ShapeError",
    "SuiteResult",
    "accumulate",
    "apply_damping",
    "brute_force_ils",
    "build_random_network",
    "chol_of_inverse",
    "cholesky_lower",
    "direct_lstsq",
    "first_step_pinv",
    "forward_pair",
    "fwht",
    "grid_from_minmax",
    "inverse_hessian_step",
    "levels_from_bits",
    "median_algo_times",
    "natural_order",
    "order_by_diag",
    "permute_weights",
    "quantize_gpfq_column",
    "quantize_layer",
    "quantize_network",
    "quantize_optq_column",
    "quantize_optq_column_ref",
    "quantize_per_token",
    "quantize_qronos_base_column",
    "quantize_qronos_column",
    "quantize_rtn",
    "quantize_rtn_layer",
    "read_qmx",
    "run_bench",
    "run_suite",
    "solve_spd",
    "spd_inverse",
    "step_objective",
    "stepwise_argmin_oracle",
    "symmetric_scale_search",
    "top_singular_value",
    "unpermute_result",
    "write_qmx",
]
