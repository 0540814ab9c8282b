"""Natural cubic spline basis for time-varying coefficients, and assembly of
the per-landmark basis matrix H(s).

A coefficient path beta_p(s) is modeled as beta_p' h_p(s) where h_p is either
a constant [1] or an intercept-plus-natural-spline vector.  Stacking the
h_p blocks row-wise gives H(s), a (P+1) x q matrix with beta(s) = H(s) beta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput

__all__ = ["SplineSpec", "BasisLayout", "ncs_eval", "h_matrix", "spline_spec_from_df"]


@dataclass(frozen=True)
class SplineSpec:
    """Natural cubic spline specification on the original time scale.

    Evaluation divides both the time and the knots by ``standardization_scale``
    (numeric-stability convention: s_bar = s / (s_L - s_0)).  The basis is
    linear beyond the boundary knots and C2 inside; its dimension is
    len(interior_knots) + 1, plus one if ``include_intercept_column``.
    """

    interior_knots: tuple
    boundary_knots: tuple
    standardization_scale: float = 1.0
    include_intercept_column: bool = True

    def __post_init__(self):
        ik = tuple(float(k) for k in self.interior_knots)
        bk = tuple(float(b) for b in self.boundary_knots)
        object.__setattr__(self, "interior_knots", ik)
        object.__setattr__(self, "boundary_knots", bk)
        if len(bk) != 2 or bk[0] >= bk[1]:
            raise InvalidInput("boundary_knots must be an increasing pair")
        if list(ik) != sorted(ik) or len(set(ik)) != len(ik):
            raise InvalidInput("interior knots must be strictly increasing")
        if ik and (ik[0] <= bk[0] or ik[-1] >= bk[1]):
            raise InvalidInput("boundary knots must strictly bracket interior knots")
        if self.standardization_scale <= 0:
            raise InvalidInput("standardization_scale must be positive")
        if not np.isfinite([*ik, *bk, self.standardization_scale]).all():
            raise InvalidInput("knots and standardization_scale must be finite")

    @property
    def dim(self):
        return len(self.interior_knots) + 1 + int(self.include_intercept_column)

    def all_knots(self):
        """Boundary and interior knots on the standardized scale."""
        scale = self.standardization_scale
        return np.array(
            [self.boundary_knots[0]] + list(self.interior_knots) + [self.boundary_knots[1]]
        ) / scale


def ncs_eval(spec: SplineSpec, s):
    """Evaluate the natural cubic spline basis at time(s) ``s``.

    Returns an array of shape (..., spec.dim).  Uses the standard restricted
    truncated-power parameterization: with knots xi_1 < ... < xi_K,

        d_k(x) = [(x - xi_k)_+^3 - (x - xi_K)_+^3] / (xi_K - xi_k)

    and basis {x, d_1 - d_{K-1}, ..., d_{K-2} - d_{K-1}} (plus an optional
    leading 1).  Linearity beyond the boundaries makes extrapolation safe.
    """
    x = np.asarray(s, dtype=float) / spec.standardization_scale
    xi = spec.all_knots()
    cols = [x[..., None]]
    if xi.size >= 3:
        # every d_k with k < K at once; the basis takes d_k - d_{K-1}
        d = ((np.maximum(x[..., None] - xi[:-1], 0.0) ** 3
              - np.maximum(x - xi[-1], 0.0)[..., None] ** 3)
             / (xi[-1] - xi[:-1]))
        cols.append(d[..., :-1] - d[..., -1:])
    if spec.include_intercept_column:
        cols.insert(0, np.ones(x.shape + (1,)))
    return np.concatenate(cols, axis=-1)


@dataclass(frozen=True)
class BasisLayout:
    """Assignment of a basis h_p to each of the P+1 coefficient paths
    (intercept first).  ``None`` entries mean a constant effect h_p = [1]."""

    specs: tuple  # of SplineSpec | None, length P+1

    def __post_init__(self):
        object.__setattr__(self, "specs", tuple(self.specs))

    @property
    def n_paths(self):
        return len(self.specs)

    @property
    def dims(self):
        return tuple(1 if sp is None else sp.dim for sp in self.specs)

    @property
    def q(self):
        return sum(self.dims)

    def slices(self):
        """Flat-coefficient slice for each path p."""
        out, off = [], 0
        for dim in self.dims:
            out.append(slice(off, off + dim))
            off += dim
        return out


def h_matrix(layout: BasisLayout, s):
    """H(s): row p carries h_p(s) in that path's columns, zeros elsewhere.

    A scalar s gives one (P+1) x q matrix; an array of s gives one per
    element, stacked on the leading axes, each bitwise the scalar call's
    (the spline basis is evaluated elementwise).  An s that is not finite
    is InvalidInput.
    """
    s = np.asarray(s, dtype=float)
    if not np.isfinite(s).all():
        raise InvalidInput(f"H(s) needs a finite s, got "
                           f"{s[~np.isfinite(s)].flat[0]}")
    h = np.zeros(s.shape + (layout.n_paths, layout.q))
    # paths usually share one spec: evaluate each distinct spec once
    basis = {sp: ncs_eval(sp, s) for sp in set(layout.specs) if sp is not None}
    for p, (sp, sl) in enumerate(zip(layout.specs, layout.slices())):
        h[..., p, sl] = 1.0 if sp is None else basis[sp]
    return h


def spline_spec_from_df(df, times, boundary_knots=None, standardization_scale=1.0,
                        include_intercept_column=True):
    """SplineSpec with ``df`` spline columns, interior knots at the interior
    quantiles of the observed ``times`` (the convention used when a model is
    requested by degrees of freedom rather than explicit knots)."""
    times = np.asarray(times, dtype=float)
    if df < 1:
        raise InvalidInput("df must be >= 1")
    if boundary_knots is None:
        boundary_knots = (float(times.min()), float(times.max()))
    n_interior = df - 1
    probs = np.linspace(0, 1, n_interior + 2)[1:-1]
    interior = tuple(np.quantile(times, probs)) if n_interior else ()
    lo, hi = boundary_knots
    if any(not lo < k < hi for k in interior):
        raise InvalidInput("quantile knots do not fall strictly inside the boundaries")
    return SplineSpec(interior_knots=interior, boundary_knots=tuple(boundary_knots),
                      standardization_scale=standardization_scale,
                      include_intercept_column=include_intercept_column)
