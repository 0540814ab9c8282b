"""Natural cubic spline basis: span oracle, smoothness, layout assembly."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.interpolate import CubicSpline

from dynrmst.basis import (BasisLayout, SplineSpec, h_matrix, ncs_eval,
                           spline_spec_from_df)
from dynrmst.errors import InvalidInput


def design(spec, x):
    return ncs_eval(spec, np.asarray(x, dtype=float))


class TestSplineSpec:
    def test_dim(self):
        assert SplineSpec((2, 4, 6, 8), (0, 10)).dim == 6
        assert SplineSpec((2, 4, 6, 8), (0, 10),
                          include_intercept_column=False).dim == 5
        assert SplineSpec((), (0, 10)).dim == 2

    def test_validation(self):
        with pytest.raises(InvalidInput):
            SplineSpec((4, 2), (0, 10))
        with pytest.raises(InvalidInput):
            SplineSpec((2,), (10, 0))
        with pytest.raises(InvalidInput):
            SplineSpec((0, 2), (0, 10))  # knot on the boundary
        with pytest.raises(InvalidInput):
            SplineSpec((2,), (0, 10), standardization_scale=0.0)

    @pytest.mark.parametrize("interior, boundary, scale", [
        ((np.nan,), (0, 10), 1.0), ((2.0, np.nan), (0, 10), 1.0),
        ((), (0, np.inf), 1.0), ((), (np.nan, 10), 1.0),
        ((), (-np.inf, 10), 1.0), ((2.0,), (0, 10), np.nan),
        ((2.0,), (0, 10), np.inf)])
    def test_non_finite_knots_or_scale_refused(self, interior, boundary,
                                               scale):
        with pytest.raises(InvalidInput, match="must be finite"):
            SplineSpec(interior, boundary, standardization_scale=scale)


class TestSpanOracle:
    def test_natural_interpolants_lie_in_span(self):
        """Any natural cubic spline through the knots must be reproduced by a
        least-squares combination of the basis columns to ~machine precision."""
        rng = np.random.default_rng(8)
        spec = SplineSpec((2.0, 4.0, 6.0, 8.0), (0.0, 10.0))
        knots = np.array([0.0, 2.0, 4.0, 6.0, 8.0, 10.0])
        x = np.linspace(0.0, 10.0, 400)
        basis = design(spec, x)
        for _ in range(30):
            target = CubicSpline(knots, rng.normal(size=knots.size),
                                 bc_type="natural")(x)
            coef, *_ = np.linalg.lstsq(basis, target, rcond=None)
            assert np.max(np.abs(basis @ coef - target)) <= 1e-9

    def test_dimension_is_tight(self):
        # the basis columns are linearly independent on a fine grid
        spec = SplineSpec((2.0, 4.0, 6.0, 8.0), (0.0, 10.0))
        basis = design(spec, np.linspace(0, 10, 200))
        assert np.linalg.matrix_rank(basis) == spec.dim


class TestSmoothness:
    SPEC = SplineSpec((1.5, 3.0, 7.0), (0.0, 10.0))

    def _second_derivative(self, x, h=1e-4):
        f = lambda z: design(self.SPEC, z)
        return (f(x + h) - 2 * f(x) + f(x - h)) / h**2

    def test_c2_at_knots(self):
        for knot in (1.5, 3.0, 7.0):
            left = self._second_derivative(knot - 1e-3)
            right = self._second_derivative(knot + 1e-3)
            assert np.max(np.abs(left - right)) < 1e-2

    def test_linear_beyond_boundaries(self):
        # loose threshold: the x^3 terms make the FD quotient lose ~eps/h^2
        for x in (-3.0, -1.0, 11.0, 14.0):
            assert np.max(np.abs(self._second_derivative(x, h=1e-3))) < 1e-4

    def test_linear_tail_exact_slope(self):
        # beyond the last knot the function continues with constant slope
        b = design(self.SPEC, np.array([11.0, 12.0, 13.0]))
        assert_allclose(b[2] - b[1], b[1] - b[0], atol=1e-9)


def loop_ncs(spec, s):
    """The basis one d_j at a time, as ``ncs_eval`` computed it before it
    took every d_j in one array: the reference of its bits."""
    x = np.atleast_1d(np.asarray(s, dtype=float) / spec.standardization_scale)
    xi = spec.all_knots()
    k = xi.size
    cols = [x]
    if k >= 3:
        def d(j):
            num = (np.maximum(x - xi[j], 0.0) ** 3
                   - np.maximum(x - xi[k - 1], 0.0) ** 3)
            return num / (xi[k - 1] - xi[j])

        cols.extend(d(j) - d(k - 2) for j in range(k - 2))
    out = np.stack(cols, axis=-1)
    if spec.include_intercept_column:
        out = np.concatenate([np.ones(x.shape + (1,)), out], axis=-1)
    return out[0] if np.ndim(s) == 0 else out


@pytest.mark.parametrize("seed", range(6))
def test_ncs_eval_is_the_loop_form_bitwise(seed):
    rng = np.random.default_rng(seed)
    for n_knots in range(6):
        lo, hi = np.sort(rng.uniform(-5.0, 20.0, 2))
        knots = tuple(np.linspace(lo, hi, n_knots + 2)[1:-1])
        spec = SplineSpec(knots, (lo, hi), rng.uniform(0.1, 10.0),
                          include_intercept_column=bool(n_knots % 2))
        s = np.concatenate((rng.uniform(lo - 3, hi + 3, 7), knots, (lo, hi)))
        for arg in (s, s[0], s.reshape(1, -1), -s):
            got, want = ncs_eval(spec, arg), loop_ncs(spec, arg)
            assert got.shape == want.shape
            # int64 views: -0.0 and 0.0 differ too
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestStandardization:
    def test_scale_identity(self):
        """Evaluating with scale c at s equals evaluating the scale-1 spec
        with knots/c at s/c."""
        spec_c = SplineSpec((2.0, 4.0, 6.0), (0.0, 10.0),
                            standardization_scale=10.0)
        spec_1 = SplineSpec((0.2, 0.4, 0.6), (0.0, 1.0))
        s = np.linspace(0.0, 10.0, 57)
        assert_allclose(ncs_eval(spec_c, s), ncs_eval(spec_1, s / 10.0),
                        atol=1e-14)


class TestLayout:
    def test_h_matrix_block_structure(self):
        sp = SplineSpec((2.0,), (0.0, 10.0))
        layout = BasisLayout((None, sp, None))
        assert layout.dims == (1, 3, 1)
        assert layout.q == 5
        h = h_matrix(layout, 4.0)
        assert h.shape == (3, 5)
        assert h[0, 0] == 1.0 and h[2, 4] == 1.0
        assert np.all(h[0, 1:] == 0) and np.all(h[2, :4] == 0)
        assert_allclose(h[1, 1:4], ncs_eval(sp, 4.0))

    def test_h_matrix_of_a_grid_is_each_scalar_call_bitwise(self):
        a = SplineSpec((2.0, 4.0, 6.0), (0.0, 10.0), standardization_scale=10.0)
        b = SplineSpec((1.5,), (0.0, 5.0), include_intercept_column=False)
        layout = BasisLayout((a, None, b, a, None))
        grid = np.concatenate([0.5 * np.arange(21),
                               np.random.default_rng(3).uniform(-2, 14, 19)])
        hs = h_matrix(layout, grid)
        assert hs.shape == (grid.size, 5, layout.q)
        for s, h in zip(grid, hs):
            assert np.array_equal(h, h_matrix(layout, s))
        assert np.array_equal(h_matrix(layout, grid.reshape(2, -1)),
                              hs.reshape(2, -1, 5, layout.q))

    @pytest.mark.parametrize("s, named", [
        (np.inf, "inf"), (-np.inf, "-inf"), (np.nan, "nan"),
        ([1.0, np.inf, np.nan], "inf"), ([[2.0], [np.nan]], "nan")])
    def test_s_not_finite_is_refused(self, s, named):
        # H(inf) gave rows of inf and nan, with a RuntimeWarning
        layout = BasisLayout((None, SplineSpec((2.0,), (0.0, 10.0))))
        with pytest.raises(InvalidInput) as err:
            h_matrix(layout, s)
        assert str(err.value) == f"H(s) needs a finite s, got {named}"

    def test_coefficient_path_reconstruction(self):
        sp = SplineSpec((2.0, 5.0), (0.0, 10.0))
        layout = BasisLayout((sp, None))
        beta = np.arange(layout.q, dtype=float) + 1.0
        h = h_matrix(layout, 3.3)
        path = h @ beta
        assert_allclose(path[0], ncs_eval(sp, 3.3) @ beta[:sp.dim])
        assert path[1] == beta[-1]


class TestFromDf:
    def test_quantile_knots(self):
        times = np.linspace(0.0, 10.0, 101)
        spec = spline_spec_from_df(3, times)
        assert spec.boundary_knots == (0.0, 10.0)
        assert_allclose(spec.interior_knots, np.quantile(times, [1 / 3, 2 / 3]))
        assert spec.dim == 4

    def test_df_one_is_linear(self):
        spec = spline_spec_from_df(1, np.array([0.0, 5.0, 10.0]))
        assert spec.interior_knots == ()
        assert spec.dim == 2
