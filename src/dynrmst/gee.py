"""Estimating-equation solvers for pseudo-value regression and the
individual-clustered sandwich covariance.

The working covariance is the independence structure (V_i = identity), so
the identity link solves in a single dense least-squares step and the log
link uses damped Fisher scoring.  Robustness against the (wrong) working
covariance comes from the sandwich; the clustered mode sums score
contributions within each subject before the outer products, the
naive_rowwise mode treats every stacked row as its own cluster and is kept
only for the old-vs-corrected comparison harness.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .basis import BasisLayout, SplineSpec, h_matrix
from .errors import InvalidInput, NoConvergence, SingularDesign, SingularInformation

__all__ = [
    "LinkSpec",
    "IDENTITY",
    "LOG",
    "DynamicModelFit",
    "fit_landmark_model",
    "fit_super_model",
    "fit_arrays",
    "sandwich_arrays",
    "sandwich_cov",
]

SCORE_TOL = 1e-8
MAX_ITER = 100
MAX_HALVINGS = 10
RANK_RTOL = 1e-10


@dataclass(frozen=True)
class LinkSpec:
    """Link g with inverse and inverse-derivative, by name."""

    kind: str

    def __post_init__(self):
        if self.kind not in ("identity", "log"):
            raise InvalidInput(f"unknown link {self.kind!r}")

    def g(self, x):
        return np.log(x) if self.kind == "log" else np.asarray(x, dtype=float)

    def ginv(self, x):
        return np.exp(x) if self.kind == "log" else np.asarray(x, dtype=float)

    def dginv(self, x):
        x = np.asarray(x, dtype=float)
        return np.exp(x) if self.kind == "log" else np.ones_like(x)


IDENTITY = LinkSpec("identity")
LOG = LinkSpec("log")


@dataclass(frozen=True)
class DynamicModelFit:
    """Landmark super-model fit over the spline-expanded coefficient basis."""

    beta: np.ndarray
    covariance: np.ndarray
    layout: BasisLayout
    link: LinkSpec
    grid: tuple
    w: float
    n_subjects: int
    n_rows: int
    iterations: int
    score_norm: float
    covariate_names: tuple = ()

    @property
    def df(self):
        return self.n_subjects - self.beta.size

    def coefficient_path(self, s):
        """beta(s) = H(s) beta: one value per covariate path at time s."""
        return h_matrix(self.layout, s) @ self.beta

    def to_json(self):
        def spec_dict(sp):
            if sp is None:
                return None
            return {
                "interior_knots": list(sp.interior_knots),
                "boundary_knots": list(sp.boundary_knots),
                "standardization_scale": sp.standardization_scale,
                "include_intercept_column": sp.include_intercept_column,
            }

        return json.dumps(
            {
                "format_version": 1,
                "link": self.link.kind,
                "layout": [spec_dict(sp) for sp in self.layout.specs],
                "grid": list(self.grid),
                "w": self.w,
                "beta": self.beta.tolist(),
                "covariance": self.covariance.tolist(),
                "n_subjects": self.n_subjects,
                "n_rows": self.n_rows,
                "df": self.df,
                "iterations": self.iterations,
                "score_norm": self.score_norm,
                "covariate_names": list(self.covariate_names),
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text):
        obj = json.loads(text)
        if obj.get("format_version") != 1:
            raise InvalidInput("unsupported model format_version")
        specs = tuple(
            None if sp is None else SplineSpec(
                interior_knots=tuple(sp["interior_knots"]),
                boundary_knots=tuple(sp["boundary_knots"]),
                standardization_scale=sp["standardization_scale"],
                include_intercept_column=sp["include_intercept_column"],
            )
            for sp in obj["layout"]
        )
        return cls(
            beta=np.array(obj["beta"], dtype=float),
            covariance=np.array(obj["covariance"], dtype=float),
            layout=BasisLayout(specs),
            link=LinkSpec(obj["link"]),
            grid=tuple(obj["grid"]),
            w=obj["w"],
            n_subjects=obj["n_subjects"],
            n_rows=obj["n_rows"],
            iterations=obj["iterations"],
            score_norm=obj["score_norm"],
            covariate_names=tuple(obj["covariate_names"]),
        )


def _lstsq_checked(x, y):
    u, sv, vt = np.linalg.svd(x, full_matrices=False)
    if sv[0] == 0.0 or sv[-1] < RANK_RTOL * sv[0]:
        raise SingularDesign(
            f"design matrix is rank deficient (singular values span "
            f"{sv[-1]:.3e} .. {sv[0]:.3e})"
        )
    return vt.T @ ((u.T @ y) / sv)


def _solve_ee(x, y, link, eps_floor):
    """Solve the V = identity estimating equation; returns (beta, iters, score norm)."""
    if link.kind == "identity":
        beta = _lstsq_checked(x, y)
        score = x.T @ (y - x @ beta)
        return beta, 1, float(np.max(np.abs(score)))

    beta = _lstsq_checked(x, np.log(np.maximum(y, eps_floor)))

    def score_of(b):
        mu = np.exp(x @ b)
        return x.T @ (mu * (y - mu)), mu

    score, mu = score_of(beta)
    norm = float(np.max(np.abs(score)))
    for iteration in range(1, MAX_ITER + 1):
        if norm <= SCORE_TOL:
            return beta, iteration - 1, norm
        info = (x * (mu**2)[:, None]).T @ x
        try:
            step = np.linalg.solve(info, score)
        except np.linalg.LinAlgError:
            raise SingularDesign("Fisher information singular during scoring") from None
        for _ in range(MAX_HALVINGS + 1):
            cand = beta + step
            cand_score, cand_mu = score_of(cand)
            cand_norm = float(np.max(np.abs(cand_score)))
            if cand_norm < norm or cand_norm <= SCORE_TOL:
                break
            step = step / 2.0
        beta, score, mu, norm = cand, cand_score, cand_mu, cand_norm
    if norm > SCORE_TOL:
        raise NoConvergence(MAX_ITER, norm)
    return beta, MAX_ITER, norm


def _sandwich(x, y, link, beta, cluster_starts):
    eta = x @ beta
    d = link.dginv(eta)
    resid = y - link.ginv(eta)
    scores = (d * resid)[:, None] * x
    bread = (x * (d**2)[:, None]).T @ x
    grouped = np.add.reduceat(scores, cluster_starts[:-1], axis=0)
    meat = grouped.T @ grouped
    try:
        binv = np.linalg.solve(bread, np.eye(bread.shape[0]))
    except np.linalg.LinAlgError:
        raise SingularInformation("information matrix is singular") from None
    cov = binv @ meat @ binv
    return (cov + cov.T) / 2.0


def fit_arrays(x, y, cluster_starts, link=IDENTITY, eps_floor=None):
    """Array-level solver: design x, responses y, cluster_starts as in
    SuperDataset.arrays().  Returns (beta, covariance, iterations, score_norm)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    starts = np.asarray(cluster_starts, dtype=np.int64)
    if eps_floor is None:
        eps_floor = 1e-6 * max(float(np.max(np.abs(y))), 1.0)
    beta, iters, norm = _solve_ee(x, y, link, eps_floor)
    cov = _sandwich(x, y, link, beta, starts)
    return beta, cov, iters, norm


def sandwich_arrays(x, y, cluster_starts, link, beta):
    """Sandwich covariance at a given beta; rowwise clustering is obtained by
    passing cluster_starts = arange(n + 1)."""
    return _sandwich(np.asarray(x, dtype=float), np.asarray(y, dtype=float),
                     link, np.asarray(beta, dtype=float),
                     np.asarray(cluster_starts, dtype=np.int64))


def fit_landmark_model(data, link=IDENTITY):
    """GLM for pseudo-values in a one-landmark SuperDataset: the super-model
    with every coefficient path constant, so H(s) is the identity and each
    subject is its own cluster."""
    if len(data.landmark_grid) != 1:
        raise InvalidInput("data span multiple landmarks; use fit_super_model")
    layout = BasisLayout((None,) * (data.covariates.shape[1] + 1))
    return fit_super_model(data, layout, link=link)


def _super_design(data, layout):
    lm, pv, z, starts = data.arrays()
    n = lm.size
    if layout.n_paths != z.shape[1] + 1:
        raise InvalidInput(
            f"layout has {layout.n_paths} paths but data has {z.shape[1]} covariates"
        )
    zstar = np.column_stack([np.ones(n), z])
    x = np.empty((n, layout.q))
    for s_j in data.landmark_grid:
        mask = lm == s_j
        if np.any(mask):
            x[mask] = zstar[mask] @ h_matrix(layout, s_j)
    return x, pv, starts


def fit_super_model(data, layout, link=IDENTITY):
    """Solve the stacked estimating equation on the super prediction dataset."""
    x, y, starts = _super_design(data, layout)
    if y.size <= layout.q:
        raise InvalidInput(f"need more rows ({y.size}) than coefficients ({layout.q})")
    beta, iters, norm = _solve_ee(x, y, link, eps_floor=1e-6 * data.w)
    cov = _sandwich(x, y, link, beta, starts)
    return DynamicModelFit(beta=beta, covariance=cov, layout=layout, link=link,
                           grid=data.landmark_grid, w=data.w,
                           n_subjects=data.n_subjects, n_rows=y.size,
                           iterations=iters, score_norm=norm,
                           covariate_names=data.covariate_names)


def sandwich_cov(data, layout, link, beta, mode="clustered"):
    """Sandwich covariance of beta for a solved super-model fit.

    ``clustered`` sums scores within each subject first (the corrected
    algorithm); ``naive_rowwise`` treats every row as its own cluster (the
    old algorithm, retained only for comparison).
    """
    if mode not in ("clustered", "naive_rowwise"):
        raise InvalidInput(f"unknown sandwich mode {mode!r}")
    x, y, starts = _super_design(data, layout)
    if mode == "naive_rowwise":
        starts = np.arange(y.size + 1, dtype=np.int64)
    return _sandwich(x, y, link, np.asarray(beta, dtype=float), starts)
