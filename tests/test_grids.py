"""Grid types and map transforms against independent oracles.

The blur oracle reimplements the reflected convolution as an explicit
quadruple loop, so it is independent of the matrix-based implementation.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import (
    gaussian_blur_reference,
    gaze_map_reference,
    gaze_maps,
    map_pairs,
    random_map,
    spatial_softmax_reference,
)
from gazekit import (
    AllZeroGrid,
    FixationMap,
    GazeMap,
    entropy,
    gaussian_blur,
    normalize_to_simplex,
    run_gradient_checks,
    spatial_softmax,
)
from gazekit.grids import (
    _BLUR_CACHE_SIZE, MASS_FLOOR, SIMPLEX_TOL, _blur_matrix, _gaussian_kernel_1d, grid_values,
)


def normalize_to_simplex_reference(grid) -> GazeMap:
    """normalize_to_simplex as it was, validating its result a second time.

    Kept verbatim as the exact oracle: the map built without the second
    check must hold the same floats, and every error must read the same.
    """
    v = grid_values(grid)
    if not np.all(np.isfinite(v)):
        raise ValueError("grid values must be finite")
    if np.any(v < 0.0):
        raise ValueError("grid values must be nonnegative")
    total = float(v.sum())
    if total < MASS_FLOOR:
        raise AllZeroGrid(f"grid mass {total} is below {MASS_FLOOR}")
    return GazeMap(v / total)


def normalized(derive, *args):
    """A derived map's shape and bytes, or its exception's type and message."""
    try:
        result = derive(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)
    values = result.values if isinstance(result, GazeMap) else result
    return values.shape, values.tobytes()


#: Valid cells, no sum of 36 of which overflows, and some with invalid ones mixed in.
valid_cells = st.one_of(st.floats(0.0, 1e300), st.floats(0.0, 1e-13), st.sampled_from([0.0, -0.0, 5e-324]))
any_cells = st.one_of(valid_cells, st.sampled_from([-1e-300, -1.0, math.nan, math.inf, -math.inf]))
#: Finite logits, some spanning more than the float64 range, and some not finite.
logit_cells = st.one_of(st.floats(-60.0, 60.0), st.floats(-1.7e308, 1.7e308), st.sampled_from([0.0, -0.0]))
any_logits = st.one_of(logit_cells, st.sampled_from([math.nan, math.inf, -math.inf]))


@st.composite
def raw_grids(draw, pools=(valid_cells, valid_cells, any_cells), scale=False):
    """Small grids in every layout a caller may pass: C, F, strided, read-only.

    With ``scale``, half the grids are divided by their sum first, so that
    valid ones pass the mass check too.
    """
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    pool = draw(st.sampled_from(pools))
    grid = np.array(draw(st.lists(pool, min_size=h * w, max_size=h * w))).reshape(h, w)
    if scale and draw(st.booleans()):
        with np.errstate(all="ignore"):
            grid = grid / grid.sum()
    layout = draw(st.sampled_from(["c", "f", "strided", "read-only", "list"]))
    if layout == "f":
        return np.asfortranarray(grid)
    if layout == "strided":
        return np.repeat(grid, 2, axis=1)[:, ::2]
    if layout == "read-only":
        grid.setflags(write=False)
        return grid
    return grid.tolist() if layout == "list" else grid


def fold(t: int, n: int) -> int:
    t %= 2 * n
    return t if t < n else 2 * n - 1 - t


def blur_oracle(values: np.ndarray, sigma: float) -> np.ndarray:
    """Direct reflected 2-D convolution, renormalized like the implementation."""
    w = _gaussian_kernel_1d(sigma)
    r = len(w) // 2
    h, wd = values.shape
    out = np.zeros_like(values)
    for i in range(h):
        for j in range(wd):
            acc = 0.0
            for a in range(-r, r + 1):
                for b in range(-r, r + 1):
                    acc += w[a + r] * w[b + r] * values[fold(i + a, h), fold(j + b, wd)]
            out[i, j] = acc
    return out / out.sum()


def assert_trusted_simplex(values: np.ndarray, source) -> None:
    """What a map built without a second check must still be."""
    assert values.dtype == np.float64
    assert values.flags.c_contiguous and not values.flags.writeable
    assert np.all(np.isfinite(values)) and values.min() >= 0.0
    assert abs(float(values.sum()) - 1.0) <= SIMPLEX_TOL
    assert not np.shares_memory(values, np.asarray(source))


class TestTypes:
    def test_gaze_map_must_sum_to_one(self):
        with pytest.raises(ValueError):
            GazeMap(np.full((2, 2), 0.3))

    def test_gaze_map_rejects_negative_cells(self):
        with pytest.raises(ValueError):
            GazeMap(np.array([[1.2, -0.2], [0.0, 0.0]]))

    def test_gaze_map_values_are_read_only(self):
        m = normalize_to_simplex(np.ones((3, 3)))
        with pytest.raises(ValueError):
            m.values[0, 0] = 1.0

    def test_logit_grid_rejects_nan(self):
        # Logit grids are bare arrays; the softmax that consumes them checks them.
        with pytest.raises(ValueError):
            spatial_softmax(np.array([[0.0, np.nan]]))

    def test_fixation_map_coerces_to_bool(self):
        f = FixationMap(np.array([[0, 2], [1, 0]]))
        assert f.fixated.dtype == bool
        np.testing.assert_array_equal(f.fixated, [[False, True], [True, False]])


class TestNormalize:
    def test_uniform(self):
        m = normalize_to_simplex(np.ones((2, 2)))
        np.testing.assert_array_equal(m.values, np.full((2, 2), 0.25))

    def test_single_mass(self):
        m = normalize_to_simplex(np.array([[2.0, 0.0], [0.0, 0.0]]))
        np.testing.assert_array_equal(m.values, np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_all_zero_raises(self):
        with pytest.raises(AllZeroGrid):
            normalize_to_simplex(np.zeros((2, 2)))

    @given(grid=raw_grids())
    def test_matches_the_double_checked_version(self, grid):
        assert normalized(normalize_to_simplex, grid) == normalized(normalize_to_simplex_reference, grid)

    @given(grid=raw_grids(scale=True))
    def test_result_is_a_fresh_read_only_c_array(self, grid):
        try:
            values = normalize_to_simplex(grid).values
        except (ValueError, AllZeroGrid):
            return
        assert_trusted_simplex(values, grid)

    def test_overflowing_mass_is_refused_without_a_warning(self):
        # The suite turns warnings into errors, so numpy's overflow warning
        # from the sum would fail this test before the ValueError.
        with pytest.raises(ValueError, match="^grid mass overflows the float64 range$"):
            normalize_to_simplex(np.array([[1e308, 1e308], [1.0, 1.0]]))

    def test_gaze_map_overflowing_mass_is_refused_without_a_warning(self):
        # Finite cells that sum past the float64 range fail the mass check.
        with pytest.raises(ValueError, match=r"^gaze map must sum to 1 within 1e-09, got inf$"):
            GazeMap(np.array([[1e308, 1e308]]))

    def test_gaze_map_constructor_still_validates(self):
        for bad in ([[0.5, 0.6]], [[math.nan, 1.0]], [[-0.5, 1.5]]):
            with pytest.raises(ValueError, match="gaze map"):
                GazeMap(np.array(bad))

    def test_proportions_preserved(self, rng):
        raw = rng.uniform(0.0, 5.0, size=(6, 7))
        raw[0, 0] = 0.0
        m = normalize_to_simplex(raw)
        np.testing.assert_allclose(m.values, raw / raw.sum(), rtol=0, atol=1e-15)


#: Every cell value whose check outcome a one-pass check could get wrong.
EDGE_GRIDS = [
    [[math.nan, -1.0]], [[-1.0, math.nan]], [[-math.inf, 1.0]], [[math.inf, -1.0]],
    [[math.nan, math.inf]], [[-0.0, 1.0]], [[5e-324, 1.0]], [[-5e-324, 1.0]], [[0.0, -0.0]],
]


class TestOneCellCheck:
    """GazeMap and normalize_to_simplex decide finiteness and sign in one pass."""

    @given(grid=raw_grids(scale=True))
    def test_gaze_map_matches_the_two_pass_check(self, grid):
        assert normalized(GazeMap, grid) == normalized(gaze_map_reference, grid)

    @pytest.mark.parametrize("grid", EDGE_GRIDS)
    def test_edge_cells_give_the_former_outcomes(self, grid):
        grid = np.array(grid)
        assert normalized(GazeMap, grid) == normalized(gaze_map_reference, grid)
        assert normalized(normalize_to_simplex, grid) == normalized(normalize_to_simplex_reference, grid)


class TestTrustedMaps:
    """Maps derived from checked data skip the second check and the copy."""

    sigmas = st.one_of(st.floats(0.3, 2.5), st.sampled_from([0.0, -1.0, math.nan, math.inf]))

    @given(logits=raw_grids(pools=(logit_cells, logit_cells, any_logits)))
    def test_spatial_softmax_matches_the_validated_form(self, logits):
        # A shift past the float64 range overflows to -inf, whose exp is 0.
        with np.errstate(over="ignore"):
            assert normalized(spatial_softmax, logits) == normalized(spatial_softmax_reference, logits)

    @given(gaze=st.one_of(gaze_maps(max_side=12), raw_grids(scale=True)), sigma=sigmas)
    def test_gaussian_blur_matches_the_validated_form(self, gaze, sigma):
        assert normalized(gaussian_blur, gaze, sigma) == normalized(gaussian_blur_reference, gaze, sigma)

    @given(logits=raw_grids(pools=(logit_cells,)))
    def test_spatial_softmax_output(self, logits):
        with np.errstate(over="ignore"):
            assert_trusted_simplex(spatial_softmax(logits).values, logits)

    @given(gaze=gaze_maps(max_side=12), sigma=st.floats(0.3, 2.5))
    def test_gaussian_blur_output(self, gaze, sigma):
        assert_trusted_simplex(gaussian_blur(gaze, sigma).values, gaze.values)


class TestSpatialSoftmax:
    def test_all_zero_logits_give_uniform(self):
        m = spatial_softmax(np.zeros((64, 64)))
        np.testing.assert_allclose(m.values, 1.0 / 4096.0, rtol=0, atol=1e-15)

    def test_two_by_two_analytic(self):
        m = spatial_softmax(np.array([[math.log(2.0), 0.0], [0.0, 0.0]]))
        np.testing.assert_allclose(
            m.values, np.array([[0.4, 0.2], [0.2, 0.2]]), rtol=0, atol=1e-12
        )

    def test_matches_unshifted_oracle(self, rng):
        # The direct exp/sum evaluation, without the max-shift trick.
        z = rng.normal(0.0, 2.0, size=(8, 8))
        direct = np.exp(z) / np.exp(z).sum()
        np.testing.assert_allclose(spatial_softmax(z).values, direct, rtol=0, atol=1e-12)

    @given(logits=st.integers(0, 2**32 - 1), shift=st.floats(-50.0, 50.0))
    def test_shift_invariance(self, logits, shift):
        z = np.random.default_rng(logits).normal(0.0, 3.0, size=(5, 6))
        a = spatial_softmax(z).values
        b = spatial_softmax(z + shift).values
        assert np.abs(a - b).max() < 1e-12


class TestGaussianBlur:
    def test_kernel_is_normalized_and_symmetric(self):
        w = _gaussian_kernel_1d(1.0)
        assert len(w) == 7
        assert abs(w.sum() - 1.0) < 1e-15
        np.testing.assert_array_equal(w, w[::-1])

    def test_blur_matrix_cache_stays_bounded(self):
        # Each grad-check gaze trial draws a new sigma, so an unbounded
        # cache would grow by one matrix per trial on every call.
        _blur_matrix.cache_clear()
        for seed in range(3):
            run_gradient_checks(seed=seed, trials=12)
            info = _blur_matrix.cache_info()
            assert info.currsize <= _BLUR_CACHE_SIZE
        assert info.maxsize == _BLUR_CACHE_SIZE
        assert info.misses > _BLUR_CACHE_SIZE  # more keys were seen than kept
        assert info.hits > info.misses  # and the finite differences reuse them
        assert not hasattr(_gaussian_kernel_1d, "cache_info")

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16])
    @pytest.mark.parametrize("sigma", [0.6, 1.0, 2.0])
    def test_blur_matrix_is_doubly_stochastic(self, n, sigma):
        # Rows by construction; columns by kernel symmetry under reflection.
        # Column sums of 1 are what make uniform maps exact fixed points,
        # and with nonnegative entries they are why a blurred simplex is
        # trusted without a check.
        m = _blur_matrix(n, sigma)
        assert m.min() >= 0.0
        np.testing.assert_allclose(m.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(m.sum(axis=0), 1.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(2, 2), (5, 9), (64, 64)])
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 3.0])
    def test_uniform_is_fixed_point(self, shape, sigma):
        m = normalize_to_simplex(np.ones(shape))
        out = gaussian_blur(m, sigma)
        np.testing.assert_allclose(out.values, 1.0 / m.values.size, rtol=0, atol=1e-12)

    def test_center_delta_mass_is_squared_center_weight(self):
        # Reflection never reaches the center of a 7x7 from a radius-3
        # kernel, so the plain convolution value is exact.
        v = np.zeros((7, 7))
        v[3, 3] = 1.0
        w0 = _gaussian_kernel_1d(1.0)[3]
        out = gaussian_blur(GazeMap(v), 1.0)
        assert abs(out.values[3, 3] - w0 * w0) < 1e-12

    def test_matches_reflected_convolution_oracle(self, rng):
        for shape, sigma in [((7, 7), 1.0), ((5, 8), 1.3), ((4, 4), 2.0)]:
            m = random_map(rng, *shape)
            expected = blur_oracle(m.values, sigma)
            np.testing.assert_allclose(
                gaussian_blur(m, sigma).values, expected, rtol=0, atol=1e-12
            )

    def test_mass_preserved(self, rng):
        for _ in range(10):
            m = random_map(rng, 9, 6)
            assert abs(gaussian_blur(m, 1.0).values.sum() - 1.0) < 1e-9

    @given(pair=map_pairs(min_side=3, max_side=8), a=st.floats(0.0, 1.0))
    def test_linearity(self, pair, a):
        p, q = pair
        mixed = GazeMap(a * p.values + (1.0 - a) * q.values)
        direct = gaussian_blur(mixed, 1.0).values
        combined = a * gaussian_blur(p, 1.0).values + (1.0 - a) * gaussian_blur(q, 1.0).values
        assert np.abs(direct - combined).max() < 1e-10

    def test_entropy_never_drops_on_interior_support(self, rng):
        # Support kept >= r = 3 cells from every edge.
        for _ in range(20):
            v = np.zeros((12, 12))
            v[3:9, 3:9] = rng.uniform(0.0, 1.0, size=(6, 6))
            m = normalize_to_simplex(v)
            assert entropy(gaussian_blur(m, 1.0)) >= entropy(m) - 1e-9

    def test_deterministic(self, rng):
        m = random_map(rng, 6, 6)
        a = gaussian_blur(m, 1.0).values
        b = gaussian_blur(m, 1.0).values
        np.testing.assert_array_equal(a, b)

    def test_rejects_nonpositive_sigma(self):
        m = normalize_to_simplex(np.ones((3, 3)))
        with pytest.raises(ValueError):
            gaussian_blur(m, 0.0)


class TestEntropy:
    def test_uniform(self):
        m = normalize_to_simplex(np.ones((64, 64)))
        assert abs(entropy(m) - math.log(4096.0)) < 1e-9

    def test_delta(self):
        v = np.zeros((5, 5))
        v[2, 2] = 1.0
        assert entropy(GazeMap(v)) == 0.0

    def test_two_point(self):
        assert abs(entropy(GazeMap(np.array([[0.5, 0.5], [0.0, 0.0]]))) - math.log(2.0)) < 1e-12

    @given(m=gaze_maps())
    def test_bounded_by_log_cells(self, m):
        h = entropy(m)
        assert -1e-12 <= h <= math.log(m.values.size) + 1e-12
