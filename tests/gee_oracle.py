"""Dense reference for the landmark super-model solver: the stacked design
built row by row, an SVD least-squares solve, damped Fisher scoring and a
sandwich that forms every row's score.  The block solver in ``dynrmst.gee``
never builds this design; the tests compare it against this oracle."""

import numpy as np

from dynrmst.basis import h_matrix
from dynrmst.errors import NoConvergence, SingularDesign
from dynrmst.gee import MAX_HALVINGS, MAX_ITER, RANK_RTOL, SCORE_TOL


def dense_design(data, layout):
    """(x, y, cluster): row i of x is [1, Z_i] H(s_i)."""
    lm, y, z, cluster = data.arrays()
    x = np.array([np.concatenate(([1.0], z_i)) @ h_matrix(layout, s_i)
                  for s_i, z_i in zip(lm, z)]).reshape(lm.size, layout.q)
    return x, y, cluster


def dense_lstsq(x, y):
    u, sv, vt = np.linalg.svd(x, full_matrices=False)
    if sv[0] == 0.0 or sv[-1] < RANK_RTOL * sv[0]:
        raise SingularDesign("dense design is rank deficient")
    return vt.T @ ((u.T @ y) / sv)


def dense_solve(x, y, link, eps_floor):
    """beta of the V = identity estimating equation on the dense design."""
    if link.kind == "identity":
        return dense_lstsq(x, y)
    beta = dense_lstsq(x, np.log(np.maximum(y, eps_floor)))

    def score_of(b):
        mu = np.exp(x @ b)
        return x.T @ (mu * (y - mu)), mu

    score, mu = score_of(beta)
    norm = float(np.max(np.abs(score)))
    for _ in range(MAX_ITER):
        if norm <= SCORE_TOL:
            return beta
        step = np.linalg.solve((x * (mu**2)[:, None]).T @ x, score)
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
    return beta


def dense_sandwich(x, y, link, beta, cluster):
    """Sandwich covariance with scores summed by each row's cluster index;
    cluster = arange(n) gives the rowwise sandwich."""
    eta = x @ beta
    d = link.dginv(eta)
    scores = (d * (y - link.ginv(eta)))[:, None] * x
    bread = (x * (d**2)[:, None]).T @ x
    grouped = np.zeros((cluster.max() + 1, x.shape[1]))
    np.add.at(grouped, cluster, scores)
    binv = np.linalg.inv(bread)
    cov = binv @ (grouped.T @ grouped) @ binv
    return (cov + cov.T) / 2.0
