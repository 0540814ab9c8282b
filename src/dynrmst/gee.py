"""Estimating-equation solvers for pseudo-value regression and the
individual-clustered sandwich covariance.

The working covariance is the independence structure (V_i = identity), so
the identity link solves in a single least-squares step and the log link
uses damped Fisher scoring.  Robustness against the (wrong) working
covariance comes from the sandwich; the clustered mode sums score
contributions within each subject before the outer products, the
naive_rowwise mode treats every stacked row as its own cluster and is kept
only for the old-vs-corrected comparison harness.

The super-model design is never built.  Its rows at landmark s_j are
Z*_j H(s_j) with Z*_j = [1, Z] over that landmark's rows (van Houwelingen,
Scand J Stat 2007), so every solve works on per-landmark blocks (Z*_j,
H_j).  The identity link takes the thin QR Z*_j = Q_j R_j of each block:
the design is then blockdiag(Q_j) A with A the stacked R_j H_j (at most
(P+1) J x q rows), a TSQR factorisation (Demmel et al., arXiv:0808.2664).
The design and A share their singular values, so the rank check of
``_lstsq_checked`` runs on A, and beta = A+ [Q_j' y_j].  The log link's
score and Fisher information, the bread and both meats of the sandwich are
sums of per-block terms H_j' (Z*_j' diag(.) Z*_j) H_j; the clustered meat
adds each block's scores into one n_subjects x q array.  The dense-array
API is the one-block case, Z* = x and H = I.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

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

    def to_dict(self):
        """The versioned model document (``from_dict`` reads it back)."""
        def spec_dict(sp):
            if sp is None:
                return None
            return {
                "interior_knots": list(sp.interior_knots),
                "boundary_knots": list(sp.boundary_knots),
                "standardization_scale": sp.standardization_scale,
                "include_intercept_column": sp.include_intercept_column,
            }

        return {
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
        }

    @classmethod
    def from_dict(cls, obj):
        """The fit of a model document.  Raises InvalidInput, naming the
        field, unless every key is present with its type, beta has q
        entries and the covariance is q x q, every number is finite, the
        grid is non-empty and strictly increasing, w > 0 and n_subjects is
        an integer greater than q."""
        if not isinstance(obj, dict):
            raise InvalidInput("model must be a JSON object")
        if obj.get("format_version") != 1:
            raise InvalidInput("unsupported model format_version")
        missing = [k for k in _MODEL_KEYS if k not in obj]
        if missing:
            raise InvalidInput(f"model lacks {', '.join(missing)}")
        if not isinstance(obj["layout"], list) or not obj["layout"]:
            raise InvalidInput("model layout must be a non-empty list")
        layout = BasisLayout(tuple(_spec_from_dict(sp) for sp in obj["layout"]))
        q = layout.q
        grid = _finite_array(obj["grid"], "grid", (None,))
        if grid.size == 0 or np.any(np.diff(grid) <= 0):
            raise InvalidInput("model grid must be a non-empty, strictly "
                               "increasing list")
        if not _is_number(obj["w"]) or not 0 < obj["w"] < np.inf:
            raise InvalidInput("model w must be a positive finite number")
        if not _is_integer(obj["n_subjects"]) or obj["n_subjects"] <= q:
            raise InvalidInput(f"model n_subjects must be an integer greater "
                               f"than q = {q}")
        for key in ("n_rows", "iterations"):
            if not _is_integer(obj[key]) or obj[key] < 0:
                raise InvalidInput(f"model {key} must be a non-negative integer")
        if not _is_number(obj["score_norm"]) or not np.isfinite(obj["score_norm"]):
            raise InvalidInput("model score_norm must be a finite number")
        names = obj["covariate_names"]
        if (not isinstance(names, list) or len(names) != layout.n_paths - 1
                or not all(isinstance(n, str) for n in names)):
            raise InvalidInput(f"model covariate_names must be a list of "
                               f"{layout.n_paths - 1} names")
        return cls(
            beta=_finite_array(obj["beta"], "beta", (q,)),
            covariance=_finite_array(obj["covariance"], "covariance", (q, q)),
            layout=layout,
            link=LinkSpec(obj["link"]),
            grid=tuple(obj["grid"]),
            w=obj["w"],
            n_subjects=obj["n_subjects"],
            n_rows=obj["n_rows"],
            iterations=obj["iterations"],
            score_norm=obj["score_norm"],
            covariate_names=tuple(names),
        )

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))


_MODEL_KEYS = ("link", "layout", "grid", "w", "beta", "covariance",
               "n_subjects", "n_rows", "iterations", "score_norm",
               "covariate_names")
_SPEC_KEYS = ("interior_knots", "boundary_knots", "standardization_scale",
              "include_intercept_column")


def _is_number(value):
    return type(value) in (int, float)


def _is_integer(value):
    return type(value) is int


def _holds_bool(value, ndim):
    """Whether ``value``, JSON lists nested ``ndim`` deep, holds a boolean."""
    for _ in range(ndim - 1):
        value = chain.from_iterable(value)
    return bool in map(type, value)


def _finite_array(value, name, shape):
    """``value`` (nested JSON lists of numbers) as a float array of
    ``shape`` (None: any length on that axis), every entry finite;
    InvalidInput naming ``name`` otherwise.  A boolean is not a number,
    also where numpy would read true beside a float as 1.0."""
    try:
        arr = np.array(value)
    except ValueError:  # ragged nesting
        arr = None
    if (arr is None or arr.dtype.kind not in "iuf"
            or arr.ndim != len(shape)
            or any(k not in (None, m) for m, k in zip(arr.shape, shape))
            or _holds_bool(value, arr.ndim)):
        want = "a list" if shape == (None,) else f"an array of shape {shape}"
        raise InvalidInput(f"model {name} must be {want} of numbers")
    arr = arr.astype(float)
    if not np.isfinite(arr).all():
        raise InvalidInput(f"model {name} holds a value that is not finite")
    return arr


def _spec_from_dict(sp):
    if sp is None:
        return None
    if not isinstance(sp, dict) or any(k not in sp for k in _SPEC_KEYS):
        raise InvalidInput(f"model layout entries must be null or objects "
                           f"with {', '.join(_SPEC_KEYS)}")
    _finite_array(sp["interior_knots"], "interior_knots", (None,))
    _finite_array(sp["boundary_knots"], "boundary_knots", (2,))
    scale = sp["standardization_scale"]
    if not _is_number(scale) or not np.isfinite(scale):
        raise InvalidInput("model standardization_scale must be a finite number")
    if not isinstance(sp["include_intercept_column"], bool):
        raise InvalidInput("model include_intercept_column must be true or false")
    return SplineSpec(interior_knots=tuple(sp["interior_knots"]),
                      boundary_knots=tuple(sp["boundary_knots"]),
                      standardization_scale=scale,
                      include_intercept_column=sp["include_intercept_column"])


class _Block(NamedTuple):
    """Rows of one landmark: the design rows are z @ h, and ``cluster`` holds
    each row's nondecreasing cluster (subject) index."""

    z: np.ndarray  # (n_j, k): Z*_j
    y: np.ndarray  # (n_j,)
    h: np.ndarray  # (k, q): H(s_j)
    cluster: np.ndarray  # (n_j,)


def _checked_svd(x):
    """Thin SVD (u, sv, vt) of x; SingularDesign when x is rank deficient."""
    u, sv, vt = np.linalg.svd(x, full_matrices=False)
    # with fewer rows than columns the missing singular values are zero
    smallest = sv[-1] if sv.size == x.shape[1] else 0.0
    if sv[0] == 0.0 or smallest < RANK_RTOL * sv[0]:
        raise SingularDesign(
            f"design matrix is rank deficient (singular values span "
            f"{smallest:.3e} .. {sv[0]:.3e})"
        )
    return u, sv, vt


def _svd_solve(svd, y):
    """x+ y from the thin SVD of x."""
    u, sv, vt = svd
    return vt.T @ ((u.T @ y) / sv)


def _lstsq_checked(x, y):
    return _svd_solve(_checked_svd(x), y)


def _block_lstsq(blocks, ys):
    """Least-squares beta for responses ``ys`` (one array per block) over
    the design rows z_j @ h_j, from the thin QR of each z_j."""
    a, b = [], []
    for blk, y in zip(blocks, ys):
        q_j, r_j = np.linalg.qr(blk.z)
        a.append(r_j @ blk.h)
        b.append(q_j.T @ y)
    return _lstsq_checked(np.vstack(a), np.concatenate(b))


def _one_design_solver(z):
    """y -> beta for many responses on one design Z* = z, one row per
    subject: the identity-link beta of ``fit_landmark_model`` (the
    one-block ``_block_lstsq`` with H = I), from one thin QR of z and one
    rank-checked SVD of its R."""
    _check_size(z.shape[0], z.shape[0], z.shape[1])
    q, r = np.linalg.qr(z)
    svd = _checked_svd(r)
    return lambda y: _svd_solve(svd, q.T @ y)


def _fitted(blocks, link, beta):
    """(dginv(eta), y - ginv(eta)) of each block at beta."""
    out = []
    for blk in blocks:
        eta = blk.z @ (blk.h @ beta)
        out.append((link.dginv(eta), blk.y - link.ginv(eta)))
    return out


def _score(blocks, fitted):
    """X' (d * resid), summed over the blocks."""
    return sum(blk.h.T @ (blk.z.T @ (d * r)) for blk, (d, r) in zip(blocks, fitted))


def _weighted_gram(blocks, weights):
    """X' diag(weights) X, summed over the blocks."""
    return sum(blk.h.T @ (((blk.z * wt[:, None]).T @ blk.z) @ blk.h)
               for blk, wt in zip(blocks, weights))


def _solve_ee(blocks, link, eps_floor):
    """Solve the V = identity estimating equation; returns (beta, iters, score norm)."""
    if link.kind == "identity":
        beta = _block_lstsq(blocks, [blk.y for blk in blocks])
        score = _score(blocks, _fitted(blocks, link, beta))
        return beta, 1, float(np.max(np.abs(score)))

    beta = _block_lstsq(blocks, [np.log(np.maximum(blk.y, eps_floor))
                                 for blk in blocks])

    def score_of(b):
        fitted = _fitted(blocks, link, b)
        return _score(blocks, fitted), [d for d, _ in fitted]  # d = mu

    score, mu = score_of(beta)
    norm = float(np.max(np.abs(score)))
    for iteration in range(1, MAX_ITER + 1):
        if norm <= SCORE_TOL:
            return beta, iteration - 1, norm
        info = _weighted_gram(blocks, [m**2 for m in mu])
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


def _sandwich(blocks, link, beta, n_clusters, with_rowwise=False):
    """Sandwich covariance at beta.  Scores are summed within each of
    ``n_clusters`` clusters before the outer products; ``n_clusters=None``
    makes every row its own cluster.  ``with_rowwise=True`` returns the pair
    (that covariance, the row-wise one), which share the fitted values and
    the bread."""
    fitted = _fitted(blocks, link, beta)
    bread = _weighted_gram(blocks, [d**2 for d, _ in fitted])

    def meat(n_clusters):
        if n_clusters is None:
            return _weighted_gram(blocks, [(d * r) ** 2 for d, r in fitted])
        grouped = np.zeros((n_clusters, bread.shape[0]))
        for blk, (d, r) in zip(blocks, fitted):
            scores = (d * r)[:, None] * blk.z
            runs = np.flatnonzero(np.diff(blk.cluster, prepend=-1))
            if runs.size < scores.shape[0]:
                scores = np.add.reduceat(scores, runs, axis=0)
            # one row per cluster in a block, so the fancy-index sum is exact
            grouped[blk.cluster[runs]] += scores @ blk.h
        return grouped.T @ grouped

    try:
        binv = np.linalg.solve(bread, np.eye(bread.shape[0]))
    except np.linalg.LinAlgError:
        raise SingularInformation("information matrix is singular") from None

    def cov(n_clusters):
        c = binv @ meat(n_clusters) @ binv
        return (c + c.T) / 2.0

    if with_rowwise:
        return cov(n_clusters), cov(None)
    return cov(n_clusters)


def _array_block(x, y, cluster_starts):
    """A dense design as one block with H = I, and its cluster count."""
    x = np.asarray(x, dtype=float)
    starts = np.asarray(cluster_starts, dtype=np.int64)
    cluster = np.repeat(np.arange(starts.size - 1), np.diff(starts))
    block = _Block(x, np.asarray(y, dtype=float), np.eye(x.shape[1]), cluster)
    return [block], starts.size - 1


def fit_arrays(x, y, cluster_starts, link=IDENTITY, eps_floor=None):
    """Array-level solver: design x, responses y, cluster_starts as in
    SuperDataset.arrays().  Returns (beta, covariance, iterations, score_norm)."""
    blocks, n_clusters = _array_block(x, y, cluster_starts)
    if eps_floor is None:
        eps_floor = 1e-6 * max(float(np.max(np.abs(blocks[0].y))), 1.0)
    beta, iters, norm = _solve_ee(blocks, link, eps_floor)
    cov = _sandwich(blocks, link, beta, n_clusters)
    return beta, cov, iters, norm


def sandwich_arrays(x, y, cluster_starts, link, beta):
    """Sandwich covariance at a given beta; rowwise clustering is obtained by
    passing cluster_starts = arange(n + 1)."""
    blocks, n_clusters = _array_block(x, y, cluster_starts)
    return _sandwich(blocks, link, np.asarray(beta, dtype=float), n_clusters)


def fit_landmark_model(data, link=IDENTITY):
    """GLM for pseudo-values in a one-landmark SuperDataset: the super-model
    with every coefficient path constant, so H(s) is the identity and each
    subject is its own cluster."""
    if len(data.landmark_grid) != 1:
        raise InvalidInput("data span multiple landmarks; use fit_super_model")
    layout = BasisLayout((None,) * (data.covariates.shape[1] + 1))
    return fit_super_model(data, layout, link=link)


def _landmark_blocks(data, layout):
    """One block per landmark with rows: Z*_j = [1, Z] over its rows and
    H(s_j), each row clustered by its subject."""
    lm, y, z, starts = data.arrays()
    if layout.n_paths != z.shape[1] + 1:
        raise InvalidInput(
            f"layout has {layout.n_paths} paths but data has {z.shape[1]} covariates"
        )
    subject = np.repeat(np.arange(starts.size - 1), np.diff(starts))
    hs = h_matrix(layout, data.landmark_grid)
    blocks = []
    for s_j, h_j in zip(data.landmark_grid, hs):
        rows = np.flatnonzero(lm == s_j)
        if rows.size:
            blocks.append(_Block(np.column_stack([np.ones(rows.size), z[rows]]),
                                 y[rows], h_j, subject[rows]))
    return blocks


def _check_size(n_rows, n_subjects, q):
    if n_rows <= q:
        raise InvalidInput(f"need more rows ({n_rows}) than coefficients ({q})")
    if n_subjects <= q:
        raise InvalidInput(f"need more subjects ({n_subjects}) than "
                           f"coefficients ({q})")


def _solve_super(data, layout, link=IDENTITY):
    """(blocks, beta, iterations, score norm) of the stacked estimating
    equation on the super prediction dataset, with no covariance."""
    blocks = _landmark_blocks(data, layout)
    _check_size(len(data), data.n_subjects, layout.q)
    return (blocks, *_solve_ee(blocks, link, eps_floor=1e-6 * data.w))


def fit_super_model(data, layout, link=IDENTITY):
    """Solve the stacked estimating equation on the super prediction dataset."""
    blocks, beta, iters, norm = _solve_super(data, layout, link)
    cov = _sandwich(blocks, link, beta, data.n_subjects)
    return DynamicModelFit(beta=beta, covariance=cov, layout=layout, link=link,
                           grid=data.landmark_grid, w=data.w,
                           n_subjects=data.n_subjects, n_rows=len(data),
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
    n_clusters = data.n_subjects if mode == "clustered" else None
    return _sandwich(_landmark_blocks(data, layout), link,
                     np.asarray(beta, dtype=float), n_clusters)
