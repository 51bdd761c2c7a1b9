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
    accumulate,
    order_by_diag,
    permute_weights,
    unpermute_result,
)
from .errors import (
    ConvergenceError,
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
from .linalg import DampingPolicy, apply_damping
from .netsim import (
    LayerSpec,
    NetworkSpec,
    build_random_network,
    fwht,
    quantize_network,
)
from .qmx import read_qmx, write_qmx
from .rounding import (
    LayerQuantRequest,
    LayerReport,
    METHOD_SPECS,
    METHODS,
    PreparedLayer,
    layer_stats,
    prepare_layer,
    quantize_layer,
    round_layer,
)
from .verify import SUITE_NAMES, run_suite

__version__ = "0.1.0"

__all__ = [
    "BenchConfig",
    "CalibStats",
    "ConvergenceError",
    "DampingPolicy",
    "LayerQuantRequest",
    "LayerReport",
    "LayerSpec",
    "METHOD_SPECS",
    "METHODS",
    "NetworkSpec",
    "NonFiniteInputError",
    "NotPositiveDefiniteError",
    "NotSymmetricError",
    "PreparedLayer",
    "QmxFormatError",
    "QuantGrid",
    "SUITE_NAMES",
    "ShapeError",
    "accumulate",
    "apply_damping",
    "build_random_network",
    "fwht",
    "grid_from_minmax",
    "layer_stats",
    "levels_from_bits",
    "median_algo_times",
    "order_by_diag",
    "permute_weights",
    "prepare_layer",
    "quantize_layer",
    "quantize_network",
    "quantize_per_token",
    "quantize_rtn",
    "read_qmx",
    "round_layer",
    "run_bench",
    "run_suite",
    "symmetric_scale_search",
    "unpermute_result",
    "write_qmx",
]
