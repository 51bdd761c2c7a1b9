import hashlib
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import hadamard

from qronos import (
    CalibStats,
    DampingPolicy,
    LayerQuantRequest,
    LayerSpec,
    NetworkSpec,
    ShapeError,
    accumulate,
    build_random_network,
    fwht,
    grid_from_minmax,
    quantize_layer,
    quantize_network,
    quantize_rtn,
)
from qronos.netsim import _rotate, forward_pair
from qronos.rounding import METHOD_SPECS
from helpers import fwht_reference, on_grid_weights


def _row_errors(y, yq):
    return np.linalg.norm(y - yq, axis=1) / np.linalg.norm(y, axis=1)


# ---------------------------------------------------------------------------
# rotations


def test_fwht_two_point_butterfly():
    out = fwht(np.array([[1.0, 0.0]]))
    assert np.array_equal(out, [[1.0, 1.0]])
    out = fwht(np.array([[0.0, 1.0]]))
    assert np.array_equal(out, [[1.0, -1.0]])


def test_fwht_involution_up_to_scale():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((5, 16))
    assert np.allclose(fwht(fwht(x)) / 16.0, x, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 64, 256])
def test_fwht_matches_dense_hadamard_on_both_axes(n):
    x = np.random.default_rng(n).standard_normal((n, 7))
    dense = hadamard(n) @ x
    for out in (fwht(x, axis=0), fwht(x.T, axis=1).T):
        assert np.linalg.norm(out - dense) <= 1e-12 * np.linalg.norm(dense)


@pytest.mark.parametrize(
    "shape, axis",
    [((1, 5), 0), ((5, 1), 1), ((2, 3), 0), ((3, 2), 1), ((64, 48), 0), ((48, 64), 1),
     ((256, 256), 0), ((2048, 256), 1), ((3, 32, 5), 1), ((4, 2, 8), -1),
     # tiles of FWHT_TILE values: a short last tile, one row per tile, and
     # tiles read transposed
     ((1000, 256), 1), ((300, 512), 1), ((3, 2**17), 1), ((256, 300), 0)],
)
def test_fwht_matches_butterfly_loop_bit_for_bit(shape, axis):
    x = np.random.default_rng(sum(shape)).standard_normal(shape)
    out, ref = fwht(x, axis=axis), fwht_reference(x, axis=axis)
    assert out.shape == ref.shape and out.strides == ref.strides
    assert out.tobytes(order="A") == ref.tobytes(order="A")
    # the same bits written to an out of that layout, then over its input
    buf = np.moveaxis(np.empty(np.moveaxis(x, axis, -1).shape), -1, axis)
    fwht(x, axis=axis, out=buf)
    assert buf.tobytes(order="A") == ref.tobytes(order="A")
    np.copyto(buf, x)
    fwht(buf, axis=axis, out=buf)
    assert buf.tobytes(order="A") == ref.tobytes(order="A")


def test_fwht_rejects_non_power_of_two():
    with pytest.raises(ShapeError):
        fwht(np.ones((2, 6)))


def test_fwht_rejects_an_out_it_cannot_fill():
    x = np.ones((4, 8))
    for axis, out in ((1, np.empty((4, 4))), (0, np.empty((4, 8))), (1, np.empty((8, 4)).T)):
        with pytest.raises(ShapeError, match="out"):
            fwht(x, axis=axis, out=out)


def _hadamard_rotate(w, x):
    return _rotate(w, 0), _rotate(x, 1)


def test_hadamard_rotate_preserves_product():
    rng = np.random.default_rng(1)
    w = rng.standard_normal((64, 8))
    x = rng.standard_normal((32, 64))
    wr, xr = _hadamard_rotate(w, x)
    base = x @ w
    assert np.linalg.norm(xr @ wr - base) <= 1e-10 * np.linalg.norm(base)


def test_hadamard_rotate_round_trip():
    rng = np.random.default_rng(2)
    w = rng.standard_normal((2, 3))
    x = rng.standard_normal((4, 2))
    wr, xr = _hadamard_rotate(w, x)
    wrr, xrr = _hadamard_rotate(wr, xr)
    assert np.allclose(wrr, w, atol=1e-12)
    assert np.allclose(xrr, x, atol=1e-12)


def test_hadamard_rotate_width_one_is_identity():
    w = np.array([[2.0, 3.0]])
    x = np.array([[1.0], [4.0]])
    wr, xr = _hadamard_rotate(w, x)
    assert np.allclose(wr, w)
    assert np.allclose(xr, x)


# ---------------------------------------------------------------------------
# forward passes


def test_unquantized_paths_are_bit_identical():
    spec = build_random_network(3, 16, seed=3)
    x0 = np.random.default_rng(4).standard_normal((10, 16))
    xs, xqs = forward_pair(spec, x0, quantized_prefix=0)
    for y, yq in zip(xs, xqs):
        assert np.array_equal(y, yq)


def test_on_grid_weights_make_deployment_exact():
    rng = np.random.default_rng(5)
    layers = [
        LayerSpec(on_grid_weights(rng, 8, 8), "relu"),
        LayerSpec(on_grid_weights(rng, 8, 8), "none"),
    ]
    spec = NetworkSpec(layers=layers, weight_levels=4)
    calib = rng.standard_normal((20, 8))
    qweights, report = quantize_network(spec, calib, "rtn")
    for w, qw in zip(layers, qweights):
        assert np.array_equal(w.weight, qw)
    assert report.rel_errors == [0.0, 0.0]


def test_identity_second_layer_carries_error_vector():
    rng = np.random.default_rng(6)
    w1 = rng.standard_normal((8, 8))
    spec = NetworkSpec(layers=[LayerSpec(w1), LayerSpec(np.eye(8))], weight_levels=4)
    x0 = rng.standard_normal((12, 8))
    q1 = quantize_rtn(w1, grid_from_minmax(w1, 4))
    xs, xqs = forward_pair(spec, x0, quantized_prefix=1, quantized_weights=[q1, np.eye(8)])
    e1 = _row_errors(xs[0], xqs[0])
    e2 = _row_errors(xs[1], xqs[1])
    assert np.array_equal(e1, e2)


def test_block_boundary_resets_deployed_path():
    rng = np.random.default_rng(7)
    spec = build_random_network(3, 8, seed=8, weight_levels=3, n_blocks=3)
    # interior boundaries only: a reset before layer 0 would be a no-op
    assert spec.block_boundaries == (1, 2)
    x0 = rng.standard_normal((10, 8))
    qw = [np.zeros_like(l.weight) for l in spec.layers]  # worst-case deployed weights
    xs, xqs = forward_pair(spec, x0, quantized_prefix=3, quantized_weights=qw)
    # with a reset before every layer, each deployed output is built from
    # the reference input, so it is the quantized map of the same input
    for idx in range(3):
        assert np.array_equal(xqs[idx], np.zeros_like(xs[idx]))


def test_rotation_flags_do_not_change_reference_path():
    plain = build_random_network(3, 16, seed=9)
    rotated = build_random_network(3, 16, seed=9, hadamard=True)
    x0 = np.random.default_rng(10).standard_normal((8, 16))
    xs_p, _ = forward_pair(plain, x0, quantized_prefix=0)
    xs_r, _ = forward_pair(rotated, x0, quantized_prefix=0)
    for a, b in zip(xs_p, xs_r):
        assert np.linalg.norm(a - b) <= 1e-10 * max(1.0, np.linalg.norm(a))


def test_activation_quantization_alone_creates_mismatch():
    rng = np.random.default_rng(11)
    spec = build_random_network(3, 16, seed=12, act_levels=16)
    x0 = rng.standard_normal((10, 16))
    xs, xqs = forward_pair(spec, x0, quantized_prefix=3,
                           quantized_weights=[l.weight for l in spec.layers])
    for y, yq in zip(xs, xqs):
        assert np.linalg.norm(y - yq) > 0


def test_forward_pair_validation():
    spec = build_random_network(2, 8, seed=13)
    with pytest.raises(ShapeError):
        forward_pair(spec, np.zeros((4, 7)), 0)
    with pytest.raises(ShapeError):
        forward_pair(spec, np.zeros((4, 8)), 5)
    with pytest.raises(ValueError):
        forward_pair(spec, np.zeros((4, 8)), 1)


def test_network_spec_validation():
    with pytest.raises(ShapeError):
        NetworkSpec(layers=[LayerSpec(np.zeros((4, 3))), LayerSpec(np.zeros((4, 2)))])
    with pytest.raises(ShapeError):
        NetworkSpec(layers=[LayerSpec(np.zeros((6, 6)))], hadamard=(True,))
    with pytest.raises(ShapeError):
        NetworkSpec(layers=[LayerSpec(np.zeros((4, 4)))], block_boundaries=(3,))


# ---------------------------------------------------------------------------
# network quantization


def test_single_layer_objective_matches_layer_driver():
    rng = np.random.default_rng(14)
    w = rng.standard_normal((8, 6))
    spec = NetworkSpec(layers=[LayerSpec(w)], weight_levels=16)
    calib = rng.standard_normal((40, 8))
    qweights, report = quantize_network(spec, calib, "optq")
    stats = accumulate(CalibStats(8), calib, calib)
    grid = grid_from_minmax(w, 16)
    q, _ = quantize_layer(
        LayerQuantRequest(weights=w, grids=grid, method="optq", stats=stats,
                          damping=METHOD_SPECS["optq"].damping),
    )
    assert np.array_equal(qweights[0], q)
    resid = calib @ (w - q)
    assert report.objectives[0] == pytest.approx(0.5 * float(np.sum(resid**2)), rel=1e-12)


def test_quantize_network_is_deterministic():
    spec = build_random_network(3, 16, seed=15, weight_levels=3)
    calib = np.random.default_rng(16).standard_normal((64, 16))
    qw1, rep1 = quantize_network(spec, calib, "qronos")
    qw2, rep2 = quantize_network(spec, calib, "qronos")
    assert rep1.rel_errors == rep2.rel_errors
    for a, b in zip(qw1, qw2):
        assert a.tobytes() == b.tobytes()


def test_error_correction_ordering_on_small_instance():
    """Drift-aware rounding should not lose to drift-blind rounding."""
    errs = {}
    for method in ("optq", "qronos"):
        finals = []
        for seed in range(3):
            spec = build_random_network(4, 32, seed=seed, weight_levels=3)
            calib = np.random.default_rng(100 + seed).standard_normal((256, 32))
            _, rep = quantize_network(spec, calib, method)
            finals.append(rep.rel_errors[-1])
        errs[method] = float(np.mean(finals))
    assert errs["qronos"] <= errs["optq"]


def _block_variants(n_layers, width, seed, hadamard, act_levels):
    for n_blocks in (1, 2, 3):
        yield build_random_network(n_layers, width, seed=seed, weight_levels=8,
                                   act_levels=act_levels, n_blocks=n_blocks, hadamard=hadamard)
    spec = build_random_network(n_layers, width, seed=seed, weight_levels=8,
                                act_levels=act_levels, hadamard=hadamard)
    spec.block_boundaries = (0,)
    yield spec
    # a chain of non-square layers, whose outputs differ in shape from their inputs
    rng = np.random.default_rng(seed)
    widths = (width, width // 2, width, width // 4)
    layers = [LayerSpec(rng.standard_normal((a, b)) / np.sqrt(a), "relu" if b > widths[-1] else "none")
              for a, b in zip(widths, widths[1:])]
    yield NetworkSpec(layers, (1,), 8, act_levels, hadamard=(hadamard,) * len(layers))


@pytest.mark.parametrize("method", ["rtn", "optq", "gpfq", "qronos_base", "qronos"])
def test_reported_errors_are_those_of_the_no_reset_forward(method):
    calib = np.random.default_rng(20).standard_normal((40, 16))
    for hadamard in (False, True):
        for act_levels in (None, 16):
            for spec in _block_variants(4, 16, 21, hadamard, act_levels):
                qweights, report = quantize_network(spec, calib, method)
                xs, xqs = forward_pair(spec, calib, spec.n_layers, qweights, apply_resets=False)
                expected = [float(_row_errors(y, yq).mean()) for y, yq in zip(xs, xqs)]
                assert report.rel_errors == expected, (spec.block_boundaries, hadamard, act_levels)


@pytest.mark.parametrize("method", ["rtn", "qronos"])
def test_quantize_network_never_writes_calib_input(method):
    """The pass rotates and quantizes its own copies of the paths in
    place: a float64 input, which needs no conversion, keeps its bits."""
    calib = np.random.default_rng(22).standard_normal((40, 16))
    before = calib.tobytes()
    for hadamard in (False, True):
        for act_levels in (None, 16):
            for spec in _block_variants(3, 16, 23, hadamard, act_levels):
                quantize_network(spec, calib, method)
                assert calib.tobytes() == before, (spec.block_boundaries, hadamard, act_levels)


def test_rotated_w4a4_pass_peaks_within_six_calibration_arrays():
    """Each activation array of the pass exists once: the paths are
    rotated and quantized in place, each layer's input is released once
    multiplied, and one array takes the residual and the row-error sums."""
    spec = build_random_network(4, 256, seed=24, weight_levels=16, act_levels=16, hadamard=True)
    calib = np.random.default_rng(25).standard_normal((2048, 256))
    quantize_network(spec, calib, "qronos")  # first call imports the Lanczos solver
    tracemalloc.start()
    try:
        quantize_network(spec, calib, "qronos")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * calib.nbytes


# sha256 of every layer's q, then rel_errors and objectives, per method on a
# rotated width-64 network with 16-level per-token activations and two block
# resets, recorded from the whole-matrix rotation, quantizer and sweep
_GOLDEN_NETWORK = {
    "rtn": "f4ba91100b268289f0e8c62a808d32f03cff0805556510763f4f973fdadbddc1",
    "optq": "915e75635e4bd6fc7c5e77a26f8652f6c0f989d2330a2fa55e1f4ce8f453f24b",
    "gpfq": "9e206460bb0e530e5329618b309d2fccc39780c552fc9db3f16fa49a43748bfd",
    "qronos_base": "1637fb57b08ae35a52968c1279406e5c2627792d5c419588de4b2442de448a20",
    "qronos": "1637fb57b08ae35a52968c1279406e5c2627792d5c419588de4b2442de448a20",
}


@pytest.mark.parametrize("method", list(_GOLDEN_NETWORK))
def test_rotated_network_matches_golden_hashes(method):
    spec = build_random_network(4, 64, seed=64, weight_levels=16, act_levels=16, n_blocks=3, hadamard=True)
    assert spec.block_boundaries == (1, 3)
    calib = np.random.default_rng(65).standard_normal((160, 64))
    qweights, report = quantize_network(spec, calib, method)
    digest = hashlib.sha256()
    for a in (*qweights, report.rel_errors, report.objectives):
        digest.update(np.asarray(a, dtype=np.float64).tobytes())
    assert digest.hexdigest() == _GOLDEN_NETWORK[method]


def test_method_validation():
    spec = build_random_network(2, 8, seed=17)
    calib = np.zeros((4, 8))
    with pytest.raises(ValueError):
        quantize_network(spec, calib, "unknown")


def test_build_random_network_shapes():
    spec = build_random_network(4, 16, seed=18, n_blocks=2)
    assert spec.n_layers == 4
    assert spec.block_boundaries == (2,)
    assert spec.layers[-1].nonlinearity == "none"
    assert all(l.weight.shape == (16, 16) for l in spec.layers)
    with pytest.raises(ShapeError):
        build_random_network(2, 12, seed=19, hadamard=True)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: LayerSpec(np.eye(4), "tanh"), ValueError),
        (lambda: LayerSpec(np.ones(4)), ShapeError),
        (lambda: NetworkSpec(layers=[]), ShapeError),
        (lambda: NetworkSpec(layers=[LayerSpec(np.eye(4))], hadamard=(True, True)), ShapeError),
        (lambda: build_random_network(2, 8, seed=20, n_blocks=0), ShapeError),
    ],
    ids=["nonlinearity", "1d-weight", "no-layers", "hadamard-flags", "no-blocks"],
)
def test_malformed_network_spec_raises(call, error):
    with pytest.raises(error):
        call()
