"""KKT certificate for the projection onto the gradient-bound set.

The projection of ``x0`` is the minimizer of ``0.5 ||p - x0||^2`` subject to
``g_v(p) = 0.5 (||D_v p||^2 - eps_v^2) <= 0`` for every voxel ``v``, where
``D_v p`` is the forward-difference gradient at ``v`` on the bounded pairs:
a difference counts only when both of its voxels have a finite bound. With
positive bounds a feasible ``p`` is the projection exactly when ``x0 - p``
is a nonnegative combination of the gradients ``D_v^T D_v p`` of the active
constraints.
"""

import numpy as np
from scipy.optimize import nnls

from csemri.imaging import forward_gradient, gradient_adjoint


def kkt_residual(x0, p, eps, active_tol=1e-7):
    """Stationarity residual ``||(x0 - p) - sum lambda_v D_v^T D_v p||`` and ``||x0 - p||``.

    The multipliers ``lambda >= 0`` are fitted by nonnegative least squares
    over the constraints active at ``p`` within ``active_tol`` relative;
    infinite bounds are never active.
    """
    finite = np.isfinite(eps)
    g = forward_gradient(p)
    g[:-1, :, 0] *= finite[:-1, :] & finite[1:, :]
    g[:, :-1, 1] *= finite[:, :-1] & finite[:, 1:]
    norms = np.linalg.norm(g, axis=2)
    active = np.argwhere(finite & (np.abs(norms - eps) <= active_tol * eps))
    columns = []
    for i, j in active:
        psi = np.zeros_like(g)
        psi[i, j] = g[i, j]
        columns.append(gradient_adjoint(psi).ravel())
    target = (x0 - p).ravel()
    move = float(np.linalg.norm(target))
    if not columns:
        return move, move
    return float(nnls(np.array(columns).T, target)[1]), move
