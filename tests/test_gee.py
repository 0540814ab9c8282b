"""Estimating-equation solver and sandwich covariance."""

import json
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dynrmst.basis import BasisLayout, SplineSpec
from dynrmst.errors import InvalidInput, SingularDesign
from dynrmst.gee import (IDENTITY, LOG, DynamicModelFit, LinkSpec, _Block,
                         _landmark_blocks, _sandwich, fit_arrays,
                         fit_landmark_model, fit_super_model, sandwich_cov)
from dynrmst.landmark import SuperDataset, build_super_dataset
from dynrmst.surv import SurvivalRecord
from gee_oracle import dense_design, dense_lstsq


def landmark_data(y, z, s=0.0):
    """A one-landmark dataset with responses y and covariate matrix z."""
    y = np.asarray(y, dtype=float)
    n = y.size
    z = np.asarray(z, dtype=float).reshape(n, -1)
    return SuperDataset(pseudo_values=y, covariates=z, cluster=np.arange(n),
                        offsets=np.array([0, n]), subjects=np.arange(n),
                        landmark_grid=(s,), w=1.0,
                        covariate_names=tuple(f"z{k}" for k in range(z.shape[1])))


def random_rows(rng, n=40, p=2, s=1.0):
    return landmark_data(rng.normal(3, 1, n), rng.normal(size=(n, p)), s)


def random_super(rng, n=50):
    t = np.maximum(rng.exponential(6.0, n), 0.1)
    d = rng.integers(0, 2, n)
    surv = [SurvivalRecord(i, float(t[i]), int(d[i]),
                           covariates={"x": float(rng.normal())})
            for i in range(n)]
    grid = [0.0, 1.0, 2.0]
    return build_super_dataset(surv, None, grid, 3.0, covariate_names=["x"],
                               extend_tail=True)


class TestLinks:
    def test_identity(self):
        assert IDENTITY.g(2.5) == 2.5 and IDENTITY.ginv(2.5) == 2.5
        assert IDENTITY.dginv(7.0) == 1.0

    def test_log(self):
        assert_allclose(LOG.ginv(LOG.g(3.0)), 3.0)
        assert_allclose(LOG.dginv(1.2), np.exp(1.2))

    def test_unknown_kind(self):
        with pytest.raises(InvalidInput):
            LinkSpec("probit")


class TestIdentityFit:
    def test_matches_lstsq_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            data = random_rows(rng, n=int(rng.integers(10, 60)),
                               p=int(rng.integers(1, 4)))
            fit = fit_landmark_model(data)
            x = np.column_stack([np.ones(len(data)), data.covariates])
            want, *_ = np.linalg.lstsq(x, data.pseudo_values, rcond=None)
            assert_allclose(fit.beta, want, atol=1e-10)

    def test_singular_design(self):
        # second covariate is exactly twice the first
        i = np.arange(10.0)
        with pytest.raises(SingularDesign):
            fit_landmark_model(landmark_data(i, np.column_stack([i, 2.0 * i])))

    def test_needs_more_rows_than_params(self):
        with pytest.raises(InvalidInput):
            fit_landmark_model(random_rows(np.random.default_rng(0), n=3, p=3))


class TestLogFit:
    def test_exact_recovery_on_noiseless_data(self):
        rng = np.random.default_rng(2)
        beta = np.array([0.5, -0.3, 0.2])
        x = np.column_stack([np.ones(200), rng.normal(size=(200, 2))])
        y = np.exp(x @ beta)
        fit = fit_landmark_model(landmark_data(y, x[:, 1:]), link=LOG)
        assert_allclose(fit.beta, beta, atol=1e-9)
        assert fit.score_norm <= 1e-8

    def test_noisy_convergence_flags(self):
        rng = np.random.default_rng(3)
        x = np.column_stack([np.ones(300), rng.normal(size=300)])
        y = np.exp(x @ np.array([1.0, 0.4])) * rng.lognormal(0, 0.2, 300)
        fit = fit_landmark_model(landmark_data(y, x[:, 1]), link=LOG)
        assert fit.score_norm <= 1e-8
        assert fit.iterations >= 1


class TestSandwich:
    def brute_force(self, x, y, beta, starts):
        """Sum scores within clusters by explicit python loops."""
        resid = y - x @ beta
        q = x.shape[1]
        bread = np.zeros((q, q))
        meat = np.zeros((q, q))
        for k in range(len(starts) - 1):
            u = np.zeros(q)
            for i in range(starts[k], starts[k + 1]):
                u += resid[i] * x[i]
                bread += np.outer(x[i], x[i])
            meat += np.outer(u, u)
        binv = np.linalg.inv(bread)
        return binv @ meat @ binv

    def test_matches_brute_force_cluster_sums(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n_sub = int(rng.integers(3, 12))
            sizes = rng.integers(1, 5, n_sub)
            starts = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
            n = starts[-1]
            x = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
            y = rng.normal(size=n)
            beta, cov, _, _ = fit_arrays(x, y, starts)
            want = self.brute_force(x, y, beta, starts)
            assert_allclose(cov, want, atol=1e-12)

    def test_singleton_clusters_equal_rowwise(self):
        rng = np.random.default_rng(5)
        n = 40
        x = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = rng.normal(size=n)
        starts = np.arange(n + 1, dtype=np.int64)
        beta, cov, _, _ = fit_arrays(x, y, starts)
        block = _Block(x, y, np.eye(2), np.arange(n))
        assert np.array_equal(cov, _sandwich([block], IDENTITY, beta, n,
                                             with_rowwise=True)[1])

    def test_modes_on_super_dataset(self):
        rng = np.random.default_rng(6)
        data = random_super(rng)
        layout = BasisLayout((None, None))
        fit = fit_super_model(data, layout)
        cl = sandwich_cov(data, layout, IDENTITY, fit.beta, mode="clustered")
        nv = sandwich_cov(data, layout, IDENTITY, fit.beta,
                          mode="naive_rowwise")
        assert_allclose(cl, fit.covariance, atol=0)
        assert not np.allclose(cl, nv)  # repeated subjects must matter
        # both modes from one set of blocks and one bread
        both = _sandwich(_landmark_blocks(data, layout), IDENTITY, fit.beta,
                         data.n_subjects, with_rowwise=True)
        assert np.array_equal(both[0], cl) and np.array_equal(both[1], nv)
        with pytest.raises(InvalidInput):
            sandwich_cov(data, layout, IDENTITY, fit.beta, mode="bogus")

    def test_cluster_order_invariance(self):
        """Permuting whole clusters leaves beta and covariance unchanged."""
        rng = np.random.default_rng(7)
        sizes = [3, 1, 2, 4]
        starts = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
        n = starts[-1]
        x = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = rng.normal(size=n)
        beta, cov, _, _ = fit_arrays(x, y, starts)
        perm = [2, 0, 3, 1]
        idx = np.concatenate([np.arange(starts[k], starts[k + 1])
                              for k in perm])
        sizes2 = [sizes[k] for k in perm]
        starts2 = np.concatenate(([0], np.cumsum(sizes2))).astype(np.int64)
        beta2, cov2, _, _ = fit_arrays(x[idx], y[idx], starts2)
        assert_allclose(beta, beta2, atol=1e-12)
        assert_allclose(cov, cov2, atol=1e-12)


class TestSuperModel:
    def test_spline_fit_matches_design_lstsq(self):
        rng = np.random.default_rng(8)
        data = random_super(rng, n=80)
        sp = SplineSpec((1.0,), (0.0, 2.0))
        layout = BasisLayout((sp, None))
        fit = fit_super_model(data, layout)
        x, y, _ = dense_design(data, layout)
        want, *_ = np.linalg.lstsq(x, y, rcond=None)
        assert_allclose(fit.beta, want, atol=1e-10)
        assert fit.df == data.n_subjects - layout.q

    def test_needs_more_subjects_than_params(self):
        # 90 rows but only 10 subjects for q = 12: df would be -2
        rng = np.random.default_rng(0)
        surv = [SurvivalRecord(i, float(4.5 + rng.exponential(3.0)), i % 2,
                               covariates={"x": float(rng.normal())})
                for i in range(10)]
        data = build_super_dataset(surv, None, [0.5 * k for k in range(9)],
                                   3.0, covariate_names=["x"],
                                   extend_tail=True)
        sp = SplineSpec((0.8, 1.6, 2.4, 3.2), (0.0, 4.0))
        assert len(data) == 90
        with pytest.raises(InvalidInput, match="subjects"):
            fit_super_model(data, BasisLayout((sp, sp)))

    def test_rank_deficiency_raises_in_both_solves(self):
        rng = np.random.default_rng(12)
        data = random_super(rng, n=60)
        sp = SplineSpec((1.0,), (0.0, 2.0))
        zero = replace(data, covariates=np.zeros_like(data.covariates))
        one_landmark = build_super_dataset(
            [SurvivalRecord(i, 5.0, 1, covariates={"x": float(rng.normal())})
             for i in range(20)], None, [1.0], 3.0, covariate_names=["x"])
        # the second has fewer stacked R_j H_j rows (2) than coefficients (4)
        for case in (zero, one_landmark):
            x, y, _ = dense_design(case, BasisLayout((sp, None)))
            with pytest.raises(SingularDesign):
                fit_super_model(case, BasisLayout((sp, None)))
            with pytest.raises(SingularDesign):
                dense_lstsq(x, y)

    def test_layout_shape_mismatch(self):
        data = random_super(np.random.default_rng(9))
        with pytest.raises(InvalidInput):
            fit_super_model(data, BasisLayout((None, None, None)))

    def test_coefficient_path(self):
        rng = np.random.default_rng(10)
        data = random_super(rng, n=80)
        sp = SplineSpec((1.0,), (0.0, 2.0))
        layout = BasisLayout((sp, None))
        fit = fit_super_model(data, layout)
        from dynrmst.basis import h_matrix

        assert_allclose(fit.coefficient_path(1.3),
                        h_matrix(layout, 1.3) @ fit.beta)
        # a path read from H(grid) is the scalar path to the bit
        hs = h_matrix(layout, np.array(fit.grid))
        for s_j, h_j in zip(fit.grid, hs):
            assert np.array_equal(fit.coefficient_path(s_j), h_j @ fit.beta)
        # an infinite s gave a path of inf and nan
        for s in (np.inf, np.nan):
            with pytest.raises(InvalidInput, match="finite s"):
                fit.coefficient_path(s)


class TestSerialization:
    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(11)
        data = random_super(rng, n=70)
        sp = SplineSpec((1.0,), (0.0, 2.0), standardization_scale=2.0)
        layout = BasisLayout((sp, None))
        fit = fit_super_model(data, layout)
        # through JSON text, as the CLI writes and reads a model
        clone = DynamicModelFit.from_dict(
            json.loads(json.dumps(fit.to_dict())))
        assert np.array_equal(fit.beta, clone.beta)
        assert np.array_equal(fit.covariance, clone.covariance)
        assert clone.layout == fit.layout
        assert clone.grid == fit.grid and clone.w == fit.w
        assert clone.df == fit.df

    def test_version_check(self):
        with pytest.raises(InvalidInput):
            DynamicModelFit.from_dict({"format_version": 99})
