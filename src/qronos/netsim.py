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

The forward's whole-matrix passes run on cache-sized pieces (rotation
tiles, per-token row chunks) or in place on the fresh arrays they apply to.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import grid as _grid
from . import rounding as _rounding
from .errors import ShapeError

NONLINEARITIES = ("none", "relu")
FWHT_TILE = 1 << 16  # values per rotation tile: 256 x 256 float64, 512 KB


def fwht(x: np.ndarray, axis: int = -1, out: np.ndarray | None = None) -> np.ndarray:
    """Unnormalized fast Walsh-Hadamard transform along one axis.

    The result is laid out as a C-contiguous array with the transform
    axis last, moved back into place; ``out``, which may be x, must be
    laid out so.  It is formed a tile of about FWHT_TILE values at a
    time, copied transform axis first into one reused buffer where every
    butterfly stage runs on contiguous slabs.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[axis]
    if n & (n - 1) or n == 0:
        raise ShapeError(f"transform length must be a power of two, got {n}")
    moved = np.moveaxis(x, axis, -1)
    out = np.empty(moved.shape) if out is None else np.moveaxis(out, axis, -1)
    if out.shape != moved.shape or not out.flags.c_contiguous:
        raise ShapeError(f"out must be C-contiguous with x's shape {x.shape}, transform axis last")
    src, dst = moved.reshape(-1, n), out.reshape(-1, n)
    rows = max(1, FWHT_TILE // n)
    buf = np.empty(n * min(rows, len(src)))
    scratch = np.empty(buf.size // 2)
    for r0 in range(0, len(src), rows):
        r = min(rows, len(src) - r0)
        work = buf[: n * r].reshape(n, r)
        np.copyto(work, src[r0 : r0 + r].T)
        h = 1
        while h < n:
            # every butterfly of the stage at once: pairs (a, b) sit h apart
            pairs = work.reshape(n // (2 * h), 2, h * r)
            a, b = pairs[:, 0], pairs[:, 1]
            old_a = scratch[: n // 2 * r].reshape(n // (2 * h), h * r)
            np.copyto(old_a, a)
            a += b
            np.subtract(old_a, b, out=b)
            h *= 2
        np.copyto(dst[r0 : r0 + r], work.T)
    return np.moveaxis(out, -1, axis)


def _rotate(x: np.ndarray, axis: int, out: np.ndarray | None = None) -> np.ndarray:
    """Normalized rotation: weights along axis 0, activations along axis 1."""
    out = fwht(x, axis=axis, out=out)
    out /= np.sqrt(x.shape[axis])
    return out


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
    act_levels: int | None = None
    hadamard: tuple = ()

    def __post_init__(self):
        if not self.layers:
            raise ShapeError("network needs at least one layer")
        for a, b in zip(self.layers, self.layers[1:]):
            if a.weight.shape[1] != b.weight.shape[0]:
                raise ShapeError(f"layer widths do not compose: {a.weight.shape} then {b.weight.shape}")
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
    """Apply the nonlinearity in place to ``z``, a fresh layer output."""
    if tag == "relu":
        np.maximum(z, 0.0, out=z)
    return z


def _layer_inputs(spec: NetworkSpec, idx: int, *paths: np.ndarray, in_place: bool = False) -> tuple:
    """Layer ``idx``'s weight and inputs: (weight, reference, *deployed).

    With the layer's hadamard flag set the weight and every path are
    rotated; the deployed paths then get per-token activation
    quantization when the spec asks for it, in place with ``in_place``.
    """
    w, paths = spec.layers[idx].weight, list(paths)
    if spec.hadamard[idx]:
        w = _rotate(w, 0)
        paths = [_rotate(v, 1, v if in_place else None) for v in paths]
    if spec.act_levels is not None:
        paths[1:] = [_grid.quantize_per_token(v, spec.act_levels, v if in_place else None) for v in paths[1:]]
    return (w, *paths)


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
    x_cur = xq_cur = x0
    xs, xqs = [], []
    for idx, layer in enumerate(spec.layers):
        if apply_resets and idx in spec.block_boundaries:
            xq_cur = x_cur
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

    rel_errors: list[float] = field(default_factory=list)
    objectives: list[float] = field(default_factory=list)


def _mean_row_relative_error(y: np.ndarray, yq: np.ndarray, sq: np.ndarray) -> float:
    # np.linalg.norm(., axis=1)'s row sums of squares, in the scratch sq
    np.subtract(y, yq, out=sq)
    diff = np.sqrt(np.add.reduce(np.multiply(sq, sq, out=sq), axis=1))
    base = np.sqrt(np.add.reduce(np.multiply(y, y, out=sq), axis=1))
    out = np.zeros_like(base)
    live = base > 0.0
    out[live] = diff[live] / base[live]
    out[~live & (diff > 0.0)] = np.inf
    return float(out.mean())


def quantize_network(
    spec: NetworkSpec,
    calib_input: np.ndarray,
    method: str,
) -> tuple[list, PropagationReport]:
    """Quantize every layer in order and report propagation errors.

    The deployed-path calibration activations include everything the
    layer will actually see: prior quantized layers, activation
    quantization, rotations, and any configured block resets; each
    layer's moments come from ``rounding.layer_stats``, so optq sees the
    reference path only and the gpfq/qronos side both paths.  Weight
    grids span each column's full min/max range (beta 1), and each
    method damps by its ``METHOD_SPECS`` default.  The reported
    errors are those of ``forward_pair(..., apply_resets=False)`` on the
    quantized weights, computed in the same sweep.
    ``calib_input`` is never written.  Each activation array exists once:
    the pass rotates and quantizes its own copies in place, releases each
    input once multiplied, and sums residuals and row errors in one array.
    """
    if method not in _rounding.METHODS:
        raise ValueError(f"unknown method {method!r}")
    x_cur = np.array(calib_input, dtype=np.float64)
    # deployed paths: the calibration one, then from the first block reset
    # on the no-reset one the report measures; the last is always measured
    deployed = [x_cur.copy()]
    qweights: list = []
    report = PropagationReport()
    for idx, layer in enumerate(spec.layers):
        # a reset before layer 0 changes nothing: both paths start at the input
        if idx in spec.block_boundaries and idx > 0:
            deployed = [x_cur.copy(), deployed[-1]]
        w_ref, x_cur, *deployed = _layer_inputs(spec, idx, x_cur, *deployed, in_place=True)
        q_l, _ = _rounding.quantize_layer(_rounding.LayerQuantRequest(
            weights=w_ref, grids=_grid.grid_from_minmax(w_ref, spec.weight_levels), method=method,
            stats=None if method == "rtn" else _rounding.layer_stats(method, w_ref, x_cur, deployed[0]),
            damping=_rounding.METHOD_SPECS[method].damping,
        ))
        qweights.append(q_l)
        x_cur = x_cur @ w_ref
        deployed = [v @ q_l for v in deployed]
        scratch = np.subtract(x_cur, deployed[0])
        report.objectives.append(0.5 * float(np.einsum("ij,ij->", scratch, scratch)))
        x_cur = _nonlin(layer.nonlinearity, x_cur)
        deployed = [_nonlin(layer.nonlinearity, v) for v in deployed]
        report.rel_errors.append(_mean_row_relative_error(x_cur, deployed[-1], scratch))
        del scratch  # not held through the next layer
    return qweights, report


def build_random_network(
    n_layers: int,
    width: int,
    seed: int,
    weight_levels: int = 16,
    act_levels: int | None = None,
    n_blocks: int = 1,
    hadamard: bool = False,
) -> NetworkSpec:
    """Seeded square MLP chain for experiments.

    Weights are variance-preserving Gaussian (scale 1/sqrt(width)); the
    last layer is linear, interior layers get ReLU.
    Blocks partition the layers evenly.
    """
    rng = np.random.default_rng(seed)
    layers = []
    for i in range(n_layers):
        w = rng.standard_normal((width, width)) / np.sqrt(width)
        tag = "relu" if i < n_layers - 1 else "none"
        layers.append(LayerSpec(weight=w, nonlinearity=tag))
    if n_blocks < 1 or n_blocks > n_layers:
        raise ShapeError(f"n_blocks {n_blocks} outside 1..{n_layers}")
    bounds = tuple(int(round(i * n_layers / n_blocks)) for i in range(1, n_blocks))
    return NetworkSpec(layers, bounds, weight_levels, act_levels, hadamard=(hadamard,) * n_layers)
