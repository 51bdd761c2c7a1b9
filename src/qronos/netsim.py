"""Toy network simulator for error propagation studies.

Chains of linear layers with optional ReLUs, driven as a pair of
forwards: the reference path X uses full-precision weights and clean
activations; the deployed path Xq uses whatever has been quantized so
far, optionally per-token activation quantization, and optionally a
normalized Hadamard rotation folded into individual layers.  Block
boundaries reset the deployed activations to the reference ones bit for
bit, mimicking pipelines that re-anchor each block on clean inputs
during calibration.

quantize_network sweeps the layers in order.  At each depth the
calibration pair is whatever the two paths actually feed that layer, so
accumulated mismatch is visible to methods that look at both paths.  The
reported per-layer errors are those of the pair of forwards with no
resets (resets are a calibration device, not a measurement one), computed
in the same sweep: the reference path never resets, and from the first
block boundary on the no-reset deployed path is carried alongside the
calibration one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import calib as _calib
from . import grid as _grid
from . import rounding as _rounding
from .errors import ShapeError
from .linalg import DampingPolicy

NONLINEARITIES = ("none", "relu")


def fwht(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Unnormalized fast Walsh-Hadamard transform along one axis.

    The result is laid out as a C-contiguous array with the transform
    axis last, moved back into place.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[axis]
    if n & (n - 1) or n == 0:
        raise ShapeError(f"transform length must be a power of two, got {n}")
    # transform axis first: every butterfly stage works on contiguous
    # slabs of h * rest values
    moved = np.moveaxis(x, axis, 0)
    rest = x.size // n
    work = np.array(moved.reshape(n, rest), order="C")
    scratch = np.empty(n // 2 * rest)
    h = 1
    while h < n:
        # every butterfly of the stage at once: pairs (a, b) sit h apart
        pairs = work.reshape(n // (2 * h), 2, h * rest)
        a, b = pairs[:, 0], pairs[:, 1]
        old_a = scratch.reshape(n // (2 * h), h * rest)
        np.copyto(old_a, a)
        a += b
        np.subtract(old_a, b, out=b)
        h *= 2
    out = np.empty(moved.shape[1:] + (n,))
    out.reshape(rest, n)[...] = work.T
    return np.moveaxis(out, -1, axis)


def _rotate_weight(w: np.ndarray) -> np.ndarray:
    return fwht(w, axis=0) / np.sqrt(w.shape[0])


def _rotate_acts(x: np.ndarray) -> np.ndarray:
    return fwht(x, axis=1) / np.sqrt(x.shape[1])


@dataclass(frozen=True)
class LayerSpec:
    """One linear layer: weight (n_in, n_out) plus nonlinearity tag."""

    weight: np.ndarray
    nonlinearity: str = "none"

    def __post_init__(self):
        if self.nonlinearity not in NONLINEARITIES:
            raise ValueError(f"unknown nonlinearity {self.nonlinearity!r}")
        if np.asarray(self.weight).ndim != 2:
            raise ShapeError("layer weight must be 2-D")


@dataclass
class NetworkSpec:
    """A layer chain plus quantization configuration."""

    layers: list
    block_boundaries: tuple = ()
    weight_levels: int = 16
    weight_beta: float = 1.0
    act_levels: int | None = None
    hadamard: tuple = ()
    seed: int = 0

    def __post_init__(self):
        if not self.layers:
            raise ShapeError("network needs at least one layer")
        for a, b in zip(self.layers, self.layers[1:]):
            if a.weight.shape[1] != b.weight.shape[0]:
                raise ShapeError(
                    f"layer widths do not compose: {a.weight.shape} then {b.weight.shape}"
                )
        n = len(self.layers)
        if not self.hadamard:
            self.hadamard = tuple(False for _ in range(n))
        if len(self.hadamard) != n:
            raise ShapeError("need one hadamard flag per layer")
        for i, flag in enumerate(self.hadamard):
            width = self.layers[i].weight.shape[0]
            if flag and (width & (width - 1)):
                raise ShapeError(f"hadamard layer {i} needs power-of-two width, got {width}")
        self.block_boundaries = tuple(sorted(set(self.block_boundaries)))
        for b in self.block_boundaries:
            if not 0 <= b < n:
                raise ShapeError(f"block boundary {b} outside layer range 0..{n - 1}")

    @property
    def n_layers(self) -> int:
        return len(self.layers)


def _nonlin(tag: str, z: np.ndarray) -> np.ndarray:
    if tag == "relu":
        return np.maximum(z, 0.0)
    return z


def _layer_inputs(spec: NetworkSpec, idx: int, x_cur: np.ndarray, *xq_curs: np.ndarray) -> tuple:
    """Layer ``idx``'s weight and inputs: (weight, reference, *deployed).

    With the layer's hadamard flag set the weight and every path are
    rotated; the deployed paths then get per-token activation
    quantization when the spec asks for it.
    """
    w = spec.layers[idx].weight
    if spec.hadamard[idx]:
        w = _rotate_weight(w)
        x_cur = _rotate_acts(x_cur)
        xq_curs = [_rotate_acts(v) for v in xq_curs]
    if spec.act_levels is not None:
        xq_curs = [_grid.quantize_per_token(v, spec.act_levels) for v in xq_curs]
    return (w, x_cur, *xq_curs)


def forward_pair(
    spec: NetworkSpec,
    x0: np.ndarray,
    quantized_prefix: int,
    quantized_weights: list | None = None,
    apply_resets: bool = True,
) -> tuple[list, list]:
    """Run the reference and deployed paths side by side.

    Layers before ``quantized_prefix`` use ``quantized_weights`` on the
    deployed path (rotated space when the layer's hadamard flag is on).
    Returns per-layer output activations for both paths.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.ndim != 2 or x0.shape[1] != spec.layers[0].weight.shape[0]:
        raise ShapeError(f"input shape {x0.shape} does not match first layer")
    if quantized_prefix < 0 or quantized_prefix > spec.n_layers:
        raise ShapeError(f"quantized_prefix {quantized_prefix} outside 0..{spec.n_layers}")
    if quantized_prefix > 0 and quantized_weights is None:
        raise ValueError("quantized_prefix > 0 needs quantized_weights")
    x_cur = x0
    xq_cur = x0.copy()
    xs, xqs = [], []
    for idx, layer in enumerate(spec.layers):
        if apply_resets and idx in spec.block_boundaries:
            xq_cur = x_cur.copy()
        w_ref, x_in, xq_in = _layer_inputs(spec, idx, x_cur, xq_cur)
        w_dep = quantized_weights[idx] if idx < quantized_prefix else w_ref
        x_cur = _nonlin(layer.nonlinearity, x_in @ w_ref)
        xq_cur = _nonlin(layer.nonlinearity, xq_in @ w_dep)
        xs.append(x_cur)
        xqs.append(xq_cur)
    return xs, xqs


@dataclass
class PropagationReport:
    """Per-layer outcome of quantizing one network."""

    method: str
    seed: int
    rel_errors: list[float] = field(default_factory=list)
    objectives: list[float] = field(default_factory=list)


def _mean_row_relative_error(y: np.ndarray, yq: np.ndarray) -> float:
    diff = np.linalg.norm(y - yq, axis=1)
    base = np.linalg.norm(y, axis=1)
    out = np.zeros_like(base)
    live = base > 0.0
    out[live] = diff[live] / base[live]
    out[~live & (diff > 0.0)] = np.inf
    return float(out.mean())


def quantize_network(
    spec: NetworkSpec,
    calib_input: np.ndarray,
    method: str,
    damping: DampingPolicy | None = None,
) -> tuple[list, PropagationReport]:
    """Quantize every layer in order and report propagation errors.

    The deployed-path calibration activations include everything the
    layer will actually see: prior quantized layers, activation
    quantization, rotations, and any configured block resets.  The optq
    family calibrates on the reference path only; the gpfq/qronos side
    sees both paths.  The reported errors are those of
    ``forward_pair(..., apply_resets=False)`` on the quantized weights,
    computed in the same sweep.
    """
    if method not in _rounding.METHODS:
        raise ValueError(f"unknown method {method!r}")
    method_spec = _rounding.METHOD_SPECS[method]
    policy = damping if damping is not None else method_spec.damping
    x0 = np.asarray(calib_input, dtype=np.float64)
    x_cur = x0
    # deployed paths: the calibration one, then from the first block reset
    # on the no-reset one the report measures; the last is always measured
    deployed = [x0.copy()]
    qweights: list = []
    report = PropagationReport(method=method, seed=spec.seed)
    for idx, layer in enumerate(spec.layers):
        # a reset before layer 0 changes nothing: both paths start at x0
        if idx in spec.block_boundaries and idx > 0:
            deployed = [x_cur.copy(), deployed[-1]]
        w_ref, x_in, xq_in, *no_reset_in = _layer_inputs(spec, idx, x_cur, *deployed)
        grids = [
            _grid.grid_from_minmax(w_ref[:, j], spec.weight_levels, spec.weight_beta)
            for j in range(w_ref.shape[1])
        ]
        stats = None
        if method != "rtn":
            calib_xq = xq_in if method_spec.two_path else x_in
            stats = _calib.accumulate(
                _calib.CalibStats(w_ref.shape[0]), x_in, calib_xq,
                weights=None if method_spec.reads_g else w_ref,
            )
        req = _rounding.LayerQuantRequest(
            weights=w_ref, grids=grids, method=method, stats=stats, damping=policy
        )
        raw_x = x_in if method == "optq_ref" else None
        q_l, _ = _rounding.quantize_layer(req, x=raw_x)
        qweights.append(q_l)
        y = x_in @ w_ref
        yq = xq_in @ q_l
        resid = y - yq
        report.objectives.append(0.5 * float(np.einsum("ij,ij->", resid, resid)))
        x_cur = _nonlin(layer.nonlinearity, y)
        deployed = [_nonlin(layer.nonlinearity, yq)]
        deployed += [_nonlin(layer.nonlinearity, v @ q_l) for v in no_reset_in]
        report.rel_errors.append(_mean_row_relative_error(x_cur, deployed[-1]))
    return qweights, report


def build_random_network(
    n_layers: int,
    width: int,
    seed: int,
    weight_levels: int = 16,
    weight_beta: float = 1.0,
    act_levels: int | None = None,
    n_blocks: int = 1,
    hadamard: bool = False,
    relu: bool = True,
) -> NetworkSpec:
    """Seeded square MLP chain for experiments.

    Weights are variance-preserving Gaussian (scale 1/sqrt(width)); the
    last layer is linear, interior layers get ReLU when requested.
    Blocks partition the layers evenly.
    """
    rng = np.random.default_rng(seed)
    layers = []
    for i in range(n_layers):
        w = rng.standard_normal((width, width)) / np.sqrt(width)
        tag = "relu" if relu and i < n_layers - 1 else "none"
        layers.append(LayerSpec(weight=w, nonlinearity=tag))
    if n_blocks < 1 or n_blocks > n_layers:
        raise ShapeError(f"n_blocks {n_blocks} outside 1..{n_layers}")
    bounds = tuple(int(round(i * n_layers / n_blocks)) for i in range(1, n_blocks))
    return NetworkSpec(
        layers=layers,
        block_boundaries=bounds,
        weight_levels=weight_levels,
        weight_beta=weight_beta,
        act_levels=act_levels,
        hadamard=tuple(hadamard for _ in range(n_layers)),
        seed=seed,
    )
