import itertools
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qronos import (
    NonFiniteInputError,
    QuantGrid,
    ShapeError,
    grid_from_minmax,
    levels_from_bits,
    quantize_per_token,
    quantize_rtn,
    symmetric_scale_search,
)
from qronos.grid import CHUNK
from helpers import symmetric_scale_search_reference


def test_minmax_grid_two_point_range():
    g = grid_from_minmax(np.array([-1.0, 0.5]), 4)
    assert g.step_size == 0.5
    assert g.zero_point == 2.0
    assert not g.degenerate


def test_minmax_grid_zero_min_forces_zero_point():
    g = grid_from_minmax(np.array([0.0, 3.0]), 4)
    assert g.step_size == 1.0
    assert g.zero_point == 0.0


def test_minmax_grid_shrink_factor():
    g = grid_from_minmax(np.array([-1.0, 1.0]), 4, beta=0.8)
    assert np.isclose(g.step_size, 0.8 * 2.0 / 3.0)
    assert np.isclose(g.zero_point, 1.5)


@pytest.mark.parametrize("beta", [0.0, -0.5, float("nan"), float("inf")])
def test_minmax_grid_refuses_a_beta_not_positive_and_finite(beta):
    for w in (np.array([1.0, 3.0]), np.array([[1.0, -2.0], [3.0, 5.0]])):
        with pytest.raises(ValueError, match="^beta must be positive and finite"):
            grid_from_minmax(w, 4, beta)


def test_grids_compare_and_hash_by_identity():
    """A grid of per-column arrays can be compared, hashed and kept in a
    set like any object; equal fields do not make two grids equal."""
    w = np.arange(12.0).reshape(4, 3)
    a, b = grid_from_minmax(w, 4), grid_from_minmax(w, 4)
    assert a == a and a != b
    assert len({a, b, a}) == 2 and hash(a) == hash(a)
    assert QuantGrid(4, 0.5, 2.0) != QuantGrid(4, 0.5, 2.0)


def test_minmax_grid_degenerate_range():
    g = grid_from_minmax(np.array([2.5, 2.5, 2.5]), 4)
    assert g.degenerate
    assert quantize_rtn(2.5, g) == 2.5


@pytest.mark.parametrize("levels", [1, 0, -3])
def test_fewer_than_two_levels_is_refused_before_dividing(levels):
    with pytest.raises(ValueError, match="at least 2 levels"):
        grid_from_minmax(np.array([-1.0, 1.0]), levels)
    with pytest.raises(ValueError, match="at least 2 levels"):
        quantize_per_token(np.array([[-1.0, 1.0]]), levels)


@pytest.mark.parametrize("w", [[1e308, -1e308], [np.nan, 1.0], [np.inf, np.inf]])
def test_grid_builders_refuse_a_step_that_is_not_finite(w):
    """A step that overflows float64 (at 2 levels the step is the whole
    range, or 2 max|w|), or a NaN or infinity, gives no grid."""
    with pytest.raises(NonFiniteInputError, match="not finite"):
        grid_from_minmax(np.array(w), 2)
    with pytest.raises(NonFiniteInputError, match="not finite"):
        symmetric_scale_search(np.array(w), 2)


def _grid_before_overflow_guard(w, levels, beta, symmetric):
    """Both builders as they read when the range was formed before
    dividing; None where that step, or a squared search error, overflowed."""
    if symmetric:
        zero = (levels - 1) / 2.0
        top = 2.0 * float(np.abs(w).max()) / (levels - 1)
        if not np.isfinite(top):
            return None
        steps = np.linspace(0.2, 1.0, 100) * top
        with np.errstate(over="ignore"):
            errs = [float(r @ r) for r in (w - quantize_rtn(w, QuantGrid(levels, s, zero)) for s in steps)]
        if not np.isfinite(errs).all():
            return None
        return QuantGrid(levels, float(steps[int(np.argmin(errs))]), zero)
    lo, hi = float(w.min()), float(w.max())
    with np.errstate(over="ignore"):
        step = beta * (hi - lo) / (levels - 1)
    if not np.isfinite(step):
        return None
    return QuantGrid(levels, step, -beta * lo / step)


@pytest.mark.parametrize("symmetric", [False, True])
def test_grids_are_unchanged_where_the_range_did_not_overflow(symmetric):
    """Dividing before forming the range moves no grid whose step and
    search errors were finite, and gives a wider range a finite grid that
    spans it, unless its step itself overflows (2 levels, range over
    float64's top)."""
    rng = np.random.default_rng(8)
    overflowed = 0
    for scale in (1e-300, 1e-8, 1.0, 1e8, 1e150, 1e300, 1e308):
        for levels, beta in itertools.product((2, 3, 16), (1.0, 0.7)):
            for _ in range(8):
                w = rng.uniform(-1.0, 1.0, 24) * scale
                old = _grid_before_overflow_guard(w, levels, beta, symmetric)
                build = (lambda: symmetric_scale_search(w, levels)) if symmetric else (
                    lambda: grid_from_minmax(w, levels, beta))
                if old is not None:
                    assert astuple(build()) == astuple(old)
                    continue
                overflowed += 1
                lo, hi = (-np.abs(w).max(), np.abs(w).max()) if symmetric else (w.min(), w.max())
                if levels == 2 and hi / 2 - lo / 2 > np.finfo(np.float64).max / 2:
                    with pytest.raises(NonFiniteInputError, match="not finite"):
                        build()
                    continue
                g = build()
                assert np.isfinite(g.step_size) and not g.degenerate
                q = quantize_rtn(w, g)
                assert np.isfinite(q).all()
                if not symmetric:
                    assert g.alphabet[[0, -1]] == pytest.approx([beta * lo, beta * hi], rel=1e-12)
    assert overflowed > 0


def test_levels_from_bits():
    assert levels_from_bits(4) == 16
    assert levels_from_bits(2) == 4
    assert levels_from_bits(1.58) == 3
    with pytest.raises(ValueError):
        levels_from_bits(0.5)


@pytest.mark.parametrize("bits", [float("inf"), float("nan"), 54, 1100, 3.5])
def test_levels_from_bits_rejects_widths_without_a_grid(bits):
    with pytest.raises(ValueError, match="bit width"):
        levels_from_bits(bits)


@pytest.mark.parametrize("levels", [2**53 + 1, 10**400], ids=["2**53+1", "1e400"])
def test_level_counts_beyond_float64_integers_are_rejected(levels):
    with pytest.raises(ValueError, match="2\\*\\*53"):
        QuantGrid(levels, 1.0, 0.0)
    with pytest.raises(ValueError, match="2\\*\\*53"):
        grid_from_minmax(np.arange(4.0), levels)


def test_rtn_worked_values():
    g = QuantGrid(levels=4, step_size=0.5, zero_point=2.0)
    assert quantize_rtn(-0.3, g) == -0.5
    assert quantize_rtn(-5.0, g) == -1.0  # clipped to the bottom grid point
    assert quantize_rtn(0.5, g) == 0.5


def test_rtn_integer_grid_entry():
    g = QuantGrid(levels=4, step_size=1.0, zero_point=0.0)
    assert quantize_rtn(2.4, g) == 2.0


def test_rtn_clip_top():
    g = grid_from_minmax(np.array([-1.0, 0.5]), 4)
    assert quantize_rtn(9.0, g) == 0.5


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(-50, 50), min_size=2, max_size=16),
    st.integers(2, 16),
)
def test_rtn_idempotent_bitwise(vals, levels):
    w = np.array(vals)
    g = grid_from_minmax(w, levels)
    # offsets beyond ~2^40 steps leave no mantissa room for the code
    # arithmetic; such grids only arise from numerically constant data
    assume(abs(g.zero_point) < 2.0**40)
    once = quantize_rtn(w, g)
    twice = quantize_rtn(once, g)
    assert np.array_equal(once, twice)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(-50, 50), min_size=2, max_size=32),
    st.integers(2, 8),
)
def test_rtn_output_cardinality(vals, levels):
    w = np.array(vals)
    g = grid_from_minmax(w, levels)
    assert len(set(quantize_rtn(w, g).tolist())) <= levels


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(-50, 50), min_size=2, max_size=16),
    st.integers(2, 16),
)
def test_rtn_half_step_bound(vals, levels):
    w = np.array(vals)
    g = grid_from_minmax(w, levels)
    if g.degenerate:
        return
    err = np.abs(w - quantize_rtn(w, g))
    assert np.all(err <= g.step_size / 2 + 1e-12 * max(1.0, np.max(np.abs(w))))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=1, max_size=8))
def test_ternary_negation_symmetry(vals):
    w = np.array(vals)
    g = symmetric_scale_search(np.array([-1.0, 1.0]), 3)
    assert np.array_equal(quantize_rtn(-w, g), -quantize_rtn(w, g))


def test_symmetric_search_recovers_sign_pair():
    w = np.array([1.0, -1.0])
    g = symmetric_scale_search(w, 3)
    assert np.array_equal(quantize_rtn(w, g), w)


def test_symmetric_search_zero_error_candidate():
    # values sitting exactly on the widest candidate grid (scale 1.0)
    w = np.array([-1.5, 1.5, 0.5])
    g = symmetric_scale_search(w, 4)
    assert np.allclose(quantize_rtn(w, g), w, atol=1e-12)


def test_symmetric_search_beats_maxabs_baseline():
    rng = np.random.default_rng(3)
    for _ in range(10):
        w = rng.standard_normal(32)
        levels = 16
        searched = symmetric_scale_search(w, levels)
        base_step = 2.0 * np.max(np.abs(w)) / (levels - 1)
        baseline = QuantGrid(
            levels=levels, step_size=base_step, zero_point=(levels - 1) / 2.0
        )
        err_s = np.sum((w - quantize_rtn(w, searched)) ** 2)
        err_b = np.sum((w - quantize_rtn(w, baseline)) ** 2)
        assert err_s <= err_b + 1e-12


def test_per_token_grid_points_fixed():
    x = np.array([[0.0, 1.0, 2.0, 3.0]])
    assert np.array_equal(quantize_per_token(x, 4), x)


def test_per_token_constant_row_passthrough():
    x = np.array([[5.0, 5.0, 5.0]])
    assert np.array_equal(quantize_per_token(x, 16), x)


def test_per_token_rounds_each_row_on_its_own_grid_across_chunks():
    """Row chunks (300 rows of 256: two full chunks and a short one) give
    every row the bits of quantize_rtn on that row's own min/max grid;
    constant rows, one at each chunk edge, come back unchanged."""
    rng = np.random.default_rng(12)
    x = rng.standard_normal((300, 256)) * np.exp(rng.uniform(-3.0, 3.0, (300, 1)))
    rows = CHUNK // 256
    flat = [0, rows - 1, rows, 2 * rows, 299]
    x[flat] = rng.standard_normal((len(flat), 1))
    for levels in (3, 16):
        out = quantize_per_token(x, levels)
        # written over its own input, constant rows included, it is the same
        assert quantize_per_token(x, levels, out=x.copy()).tobytes() == out.tobytes()
        in_place = x.copy()
        assert quantize_per_token(in_place, levels, out=in_place) is in_place
        assert in_place.tobytes() == out.tobytes()
        for i, row in enumerate(x):
            lo, hi = row.min(), row.max()
            if i in flat:
                expected = row
            else:
                step = (hi - lo) / (levels - 1)
                expected = quantize_rtn(row, QuantGrid(levels, step, -lo / step))
            assert out[i].tobytes() == expected.tobytes(), (levels, i)


def test_per_token_row_whose_range_overflows_gets_its_minmax_grid():
    """max - min of a finite row may overflow float64; the step is then
    the range divided end by end, as grid_from_minmax does, not NaN.
    The other rows keep their bits."""
    x = np.array([[-1e308, 1e308], [-1.0, 2.0], [1e308, -1.7e308]])
    out = quantize_per_token(x, 4)
    assert np.all(np.isfinite(out))
    for row, got in zip(x, out):
        assert got.tobytes() == quantize_rtn(row, grid_from_minmax(row, 4)).tobytes()


def test_symmetric_search_matches_one_candidate_at_a_time():
    rng = np.random.default_rng(13)
    for i in range(60):
        n = int(rng.integers(1, 9)) if i % 2 else int(rng.integers(1, 3000))
        w = rng.standard_normal(n) * 10.0 ** rng.uniform(-300, 300)
        levels = (2, 3, 4, 16, 255)[i % 5]
        got, ref = symmetric_scale_search(w, levels), symmetric_scale_search_reference(w, levels)
        assert astuple(got) == astuple(ref), (i, n, levels)


def test_per_token_half_step_bound():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((8, 24))
    out = quantize_per_token(x, 16)
    for i in range(x.shape[0]):
        row = x[i]
        step = (row.max() - row.min()) / 15.0
        assert np.max(np.abs(row - out[i])) <= step / 2 + 1e-12


def test_grid_validation():
    with pytest.raises(ValueError):
        QuantGrid(levels=1, step_size=1.0, zero_point=0.0)
    with pytest.raises(ValueError):
        QuantGrid(levels=4, step_size=0.0, zero_point=0.0)


def test_alphabet_matches_operator():
    g = grid_from_minmax(np.array([-1.0, 0.5]), 4)
    assert np.allclose(g.alphabet, [-1.0, -0.5, 0.0, 0.5])
    probes = np.linspace(-3, 3, 101)
    assert set(np.round(quantize_rtn(probes, g), 12)) <= set(np.round(g.alphabet, 12))


def test_scalar_in_scalar_out():
    g = grid_from_minmax(np.array([-1.0, 0.5]), 4)
    out = quantize_rtn(-0.3, g)
    assert np.isscalar(out) or np.ndim(out) == 0


def _grid_bits(g):
    return (np.asarray(g.step_size).tobytes(), np.asarray(g.zero_point).tobytes(),
            np.asarray(g.degenerate).tobytes())


_KINDS = ("random", "random", "constant", "zero", "signed_zero", "underflow", "wide", "nan", "inf")


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 40),
    st.lists(st.tuples(st.sampled_from(_KINDS), st.sampled_from([-300, -8, 0, 150, 300, 308])),
             min_size=1, max_size=6),
    st.sampled_from([2, 3, 16]),
    st.sampled_from([1.0, 0.7]),
    st.booleans(),
)
def test_matrix_grid_is_its_columns_grids_bit_for_bit(seed, n, columns, levels, beta, symmetric):
    """A matrix gives, column by column, the step, zero point and
    degenerate flag of building each column alone; a column whose step is
    not finite (a NaN, an infinity, a range or 2 max|w| past float64's
    top) makes the matrix raise NonFiniteInputError naming it."""
    rng = np.random.default_rng(seed)
    w = np.empty((n, len(columns)))
    for j, (kind, exp) in enumerate(columns):
        col = rng.uniform(-1.0, 1.0, n) * 10.0**exp
        if kind == "constant":
            col[:] = col[0]
        elif kind == "zero":
            col[:] = 0.0
        elif kind == "signed_zero":
            col = rng.choice([0.0, -0.0, 1.0], n)
        elif kind == "underflow":
            col = rng.choice([0.0, -0.0, 5e-324, -5e-324], n)
        elif kind == "wide":
            col[0], col[-1] = 1.5e308, -1.7e308
        elif kind in ("nan", "inf"):
            col[rng.integers(n)] = np.nan if kind == "nan" else -np.inf
        w[:, j] = col
    build = (lambda a: symmetric_scale_search(a, levels)) if symmetric else (
        lambda a: grid_from_minmax(a, levels, beta))
    alone = []
    for j in range(w.shape[1]):
        try:
            alone.append(build(w[:, j]))
        except NonFiniteInputError:
            with pytest.raises(NonFiniteInputError, match=rf"^column {j}: .*not finite"):
                build(w)
            return
    g = build(w)
    assert g.levels == levels
    for j, one in enumerate(alone):
        assert type(one.step_size) is float and type(one.zero_point) is float
        assert type(one.degenerate) is bool
        assert _grid_bits(one) == (g.step_size[j].tobytes(), g.zero_point[j].tobytes(),
                                   g.degenerate[j].tobytes()), j
        if symmetric and one.degenerate:
            # an all-zero or underflowing column keeps 0 on its grid
            assert quantize_rtn(w[:, j], one).tobytes() == np.zeros(n).tobytes()


def test_matrix_of_signed_zeros_gives_its_columns_grids_bit_for_bit():
    """A column whose minimum is a zero of either sign gets the same zero
    point in a matrix as alone, whichever zero each reduction keeps."""
    # at 33 rows NumPy keeps different zeros in a matrix and in one column
    w = np.random.default_rng(14).choice([0.0, -0.0, 1.0], (33, 64))
    for build in (lambda a: grid_from_minmax(a, 16), lambda a: symmetric_scale_search(a, 16)):
        g = build(w)
        for j in range(w.shape[1]):
            one = build(w[:, j])
            assert _grid_bits(one) == (g.step_size[j].tobytes(), g.zero_point[j].tobytes(),
                                       g.degenerate[j].tobytes()), j


def test_per_token_row_whose_step_underflows_comes_back_unchanged():
    """A row whose range is positive but whose step rounds to zero has a
    degenerate grid, and is returned as it is, not as NaN."""
    x = np.array([[0.0, 5e-324], [-1.0, 2.0], [-5e-324, 0.0]])
    out = quantize_per_token(x, 16)
    assert out[[0, 2]].tobytes() == x[[0, 2]].tobytes()
    assert out[1].tobytes() == quantize_rtn(x[1], grid_from_minmax(x[1], 16)).tobytes()


@pytest.mark.parametrize("row, levels", [([np.nan, 1.0], 4), ([np.inf, 1.0], 4), ([-1e308, 1e308], 2)])
def test_per_token_row_whose_step_is_not_finite_raises_naming_it(row, levels):
    """A row holding a NaN or an infinity, or whose step overflows (the
    whole range at 2 levels), is refused rather than returned as NaN;
    the rows around it keep their bits."""
    finite = np.array([[-1.0, 2.0], [0.5, 0.25], [3.0, 3.0]])
    x = np.vstack([finite[:2], [row], finite[2:]])
    with pytest.raises(NonFiniteInputError, match=r"^row 2: grid step .* is not finite"):
        quantize_per_token(x, levels)
    out = quantize_per_token(finite, levels)
    assert out[2].tobytes() == finite[2].tobytes()
    for i in range(2):
        assert out[i].tobytes() == quantize_rtn(finite[i], grid_from_minmax(finite[i], levels)).tobytes()


@pytest.mark.parametrize(
    "x, out, error",
    [(np.ones(4), None, ValueError), (np.ones((3, 4)), np.empty((4, 3)), ShapeError)],
    ids=["1d-input", "out-shape"],
)
def test_per_token_rejects_malformed_arrays(x, out, error):
    with pytest.raises(error):
        quantize_per_token(x, 4, out=out)
