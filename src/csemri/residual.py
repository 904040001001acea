"""Oblique-projection residual and its Wirtinger derivatives.

With ``P_R = I - Phi Phi^+`` the orthogonal projector onto
``range(Phi)^perp``, the residual matrix

    R(xi) = W(xi) P_R W(-xi)

is an oblique projector whose kernel contains every signal the model can
explain at parameter ``xi``. The voxel objective is
``f0(xi) = 0.5 * ||R(xi) s0||^2``; its derivatives in the Wirtinger pair
``(xi, xi*)`` follow from the commutator recursion

    R^(n)(xi) = 2 pi i (T R^(n-1)(xi) - R^(n-1)(xi) T)

which because ``T`` is diagonal acts entrywise as multiplication by
``2 pi i (t_k - t_j)``. Conventions used throughout:

* inner products are antilinear in the first argument (``np.vdot``);
* for a real-valued objective the real-chart gradient at ``xi`` is the
  complex number ``2 * conj(d_xi)``, i.e. ``(df/dRe, df/dIm) =
  (2 Re d_xi, -2 Im d_xi)``.

Every value, gradient and Hessian comes from one batched kernel,
:func:`residual_pieces`, which returns ``R(xi) s`` and its derivatives up
to a requested order for ``n`` voxels at once. A single voxel is a batch
of one: the scalar functions (``residual_value``, ``wirtinger_gradient_f0``,
...) pass one parameter and one signal and read row 0, and the
``voxelwise_*`` functions are reductions of the same output. The kernel
takes one exponential per batch (``W(-xi)`` is the reciprocal of
``W(xi)``), checks the exp overflow guard there, and does one matmul
against the stacked derivative kernels. The objective, its derivatives and
the signal gradient square the residual, which overflows first, so they
also raise :class:`OverflowRisk` where ``tau_s |Im xi| > 700``. The
concentration estimates share its demodulation step ``W(-xi) s``. The
signal-block gradient applies ``R(xi)^H = R(conj xi)`` without a second
exponential, because ``W(conj xi) = 1 / conj W(xi)``: the joint objective
``f(xi, s)`` takes its value and both gradients from one order-1 call and
that adjoint, one exponential per evaluation
(:func:`voxelwise_full_residual`; :func:`full_residual` is its batch of
one).
The dense :func:`residual_matrix` and :func:`residual_derivative` build
``R`` independently and serve as references.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, OverflowRisk, RankDeficient
from .species import RANK_TOL, weighting_diag

__all__ = [
    "ResidualOperator",
    "WirtingerGradient",
    "WirtingerHessian",
    "FullResidualEval",
    "make_residual_operator",
    "residual_matrix",
    "residual_derivative",
    "residual_pieces",
    "residual_value",
    "wirtinger_gradient_f0",
    "wirtinger_hessian_f0",
    "concentrations_ri",
    "full_residual",
    "voxelwise_value_and_gradient",
    "voxelwise_full_residual",
    "voxelwise_signal_gradient",
    "voxelwise_concentrations",
]

EXP_GUARD = 700.0 / (2.0 * np.pi)


@dataclass(frozen=True)
class ResidualOperator:
    """Precomputed projector, pseudoinverse and commutator kernels.

    ``tau_s = 4 pi (t_ne - t_1)`` and ``tau_ne = 4 pi t_ne`` are the two
    time scales entering every curvature and radius bound.
    """

    model: object
    p_r: np.ndarray = field(repr=False)
    phi_pinv: np.ndarray = field(repr=False)
    tau_s: float
    tau_ne: float
    n_e: int
    t_max: float  # the last echo time, which sets the exp overflow guard
    # stacked[n] = [P_R^(0) | ... | P_R^(n)]^T for n = 0, 1, 2, with the
    # derivative kernels P_R^(m) = (2 pi i (t_k - t_j))^m * P_R
    stacked: tuple = field(repr=False)
    omega: np.ndarray = field(repr=False)  # 2 pi i t_k, so that W(xi) = exp(xi omega)

    @property
    def times(self):
        return self.model.times


def make_residual_operator(model):
    """Build the residual machinery for a full-rank model matrix."""
    u, svals, vh = np.linalg.svd(model.phi, full_matrices=False)
    if svals[-1] <= RANK_TOL * svals[0]:
        raise RankDeficient(
            f"model matrix numerically rank-deficient: sigma_min/sigma_max = "
            f"{svals[-1] / svals[0]:.3e}"
        )
    phi_pinv = (vh.conj().T / svals) @ u.conj().T
    p_r = np.eye(model.n_e) - model.phi @ phi_pinv
    p_r = 0.5 * (p_r + p_r.conj().T)  # symmetrize away rounding noise
    t = model.times
    kernel = 2j * np.pi * (t[:, None] - t[None, :])
    kernels = (p_r, kernel * p_r, kernel * kernel * p_r)
    return ResidualOperator(
        model=model,
        p_r=p_r,
        phi_pinv=phi_pinv,
        tau_s=float(4 * np.pi * (t[-1] - t[0])),
        tau_ne=float(4 * np.pi * t[-1]),
        n_e=model.n_e,
        t_max=float(t[-1]),
        stacked=tuple(np.hstack([k.T for k in kernels[: n + 1]]) for n in range(3)),
        omega=2j * np.pi * t,
    )


def _check_guard(op, xi, square=False):
    """Guard for ``W(xi)`` and, with ``square``, for ``||R(xi) s||^2`` and ``R(xi)^H R(xi) s``.

    ``||R(xi)^H R(xi)|| <= exp(tau_s |Im xi|)`` overflows long before any
    single exponential does, so the objective, its derivatives and the
    signal gradient stop where ``tau_s |Im xi| > 700``. Both tests read one
    reduction of ``|Im xi|``.
    """
    worst = float(np.abs(np.imag(xi)).max(initial=0.0))
    if square and op.tau_s * worst > 700.0:
        raise OverflowRisk(
            f"|Im xi| = {worst:.3e} Hz would overflow R^H R: tau_s |Im xi| > 700"
        )
    if worst * op.t_max > EXP_GUARD:
        raise OverflowRisk(f"|Im xi| = {worst:.3e} Hz would overflow exp at t = {op.t_max:.3e} s")


def residual_matrix(op, xi):
    """R(xi) = W(xi) P_R W(-xi) as a dense matrix."""
    _check_guard(op, xi)
    return (weighting_diag(xi, op.times)[:, None] * op.p_r) * weighting_diag(-xi, op.times)


def residual_derivative(op, xi, n):
    """n-th derivative of the residual matrix via the commutator recursion."""
    if n < 1:
        raise ValueError("derivative order must be >= 1")
    r = residual_matrix(op, xi)
    t = op.times
    for _ in range(n):
        r = 2j * np.pi * (t[:, None] * r - r * t[None, :])
    return r


def _demodulate(op, xi, s):
    """(W(xi), W(-xi) s) as (n, n_e) arrays for a batch of voxels; its callers check the guard."""
    xi = np.asarray(xi, dtype=complex).reshape(-1)
    s = np.asarray(s, dtype=complex)
    if s.size not in (op.n_e, xi.size * op.n_e):
        raise DimensionError(f"signal has shape {s.shape}, expected ({xi.size}, {op.n_e})")
    w = np.exp(xi[:, None] * op.omega)
    return w, s.reshape(-1, op.n_e) / w


def _modulated_pieces(op, w, u, order):
    """``W P_R^(k) u`` for k = 0 ... order, shape (order + 1, n, n_e)."""
    out = (u @ op.stacked[order]).reshape(len(u), order + 1, op.n_e)
    out *= w[:, None, :]
    return out.transpose(1, 0, 2)


def residual_pieces(op, xi, s, order):
    """[R(xi) s, R'(xi) s, ..., R^(order)(xi) s] for a batch of voxels.

    ``xi`` holds n parameters and ``s`` the n matching signals, shape
    (n, n_e), or one signal shared by all n; a scalar with one signal is a
    batch of one. Returns an array of shape (order + 1, n, n_e); ``order``
    is 0, 1 or 2.
    """
    _check_guard(op, xi)
    return _modulated_pieces(op, *_demodulate(op, xi, s), order)


def _value_gradient_residual(op, xi, s):
    """f0, d_xi f0, ``R(xi) s`` and ``W(xi)`` for a batch from one order-1 kernel call."""
    _check_guard(op, xi, square=True)
    w, u = _demodulate(op, xi, s)
    pieces = _modulated_pieces(op, w, u, 1)
    f, d_xi = 0.5 * np.einsum("kne,ne->kn", pieces, pieces[0].conj())
    return f.real, d_xi, pieces[0], w


def voxelwise_value_and_gradient(op, xi, s):
    """f0 = 0.5 ||R s||^2 and d_xi f0 = 0.5 <R s, R' s> for a batch of voxels.

    Entries whose signal is zero return zero value and gradient.
    """
    return _value_gradient_residual(op, xi, s)[:2]


def voxelwise_full_residual(op, xi, s):
    """f, d_xi f and d_{s*} f = 0.5 R(xi)^H R(xi) s for a batch: one kernel call, one adjoint.

    The adjoint ``R(xi)^H = R(conj xi) = W(conj xi) P_R W(-conj xi)`` reuses
    the kernel call's exponential, since ``W(conj xi) = 1 / conj W(xi)``:
    ``R(xi)^H r = ((r conj W) P_R^T) / conj W`` row by row, so one
    evaluation takes one exponential.
    """
    f, d_xi, rs, w = _value_gradient_residual(op, xi, s)
    w_conj = w.conj()
    return f, d_xi, 0.5 * ((rs * w_conj) @ op.stacked[0]) / w_conj


def voxelwise_signal_gradient(op, xi, s):
    """d_{s*} f = 0.5 R(xi)^H R(xi) s for a batch of voxels."""
    return voxelwise_full_residual(op, xi, s)[2]


def voxelwise_concentrations(op, xi, s):
    """Phi^+ W(-xi) s for a batch of voxels."""
    _check_guard(op, xi)
    return _demodulate(op, xi, s)[1] @ op.phi_pinv.T


def residual_value(op, xi, s):
    """f0(xi) = 0.5 * ||R(xi) s||^2."""
    _check_guard(op, xi, square=True)
    rs = residual_pieces(op, xi, s, 0)[0]
    return 0.5 * float(np.vdot(rs, rs).real)


@dataclass(frozen=True)
class WirtingerGradient:
    d_xi: complex


@dataclass(frozen=True)
class WirtingerHessian:
    d_xixi: complex
    d_xixiconj: float


def wirtinger_gradient_f0(op, xi, s):
    """d_xi f0 = 0.5 <s, R(xi*) R'(xi) s> = 0.5 <R(xi) s, R'(xi) s>."""
    return WirtingerGradient(d_xi=voxelwise_value_and_gradient(op, xi, s)[1][0])


def wirtinger_hessian_f0(op, xi, s):
    """Second Wirtinger derivatives of f0.

    ``d_xixi = 0.5 <R(xi) s, R''(xi) s>`` and
    ``d_xixiconj = 0.5 ||R'(xi) s||^2``; together they assemble the
    curvature form ``|eta|^2 ||R' s||^2 + Re(eta^2 <s, R(xi*) R'' s>)``.
    """
    _check_guard(op, xi, square=True)
    rs, r1s, r2s = residual_pieces(op, xi, s, 2)
    return WirtingerHessian(
        d_xixi=0.5 * np.vdot(rs, r2s),
        d_xixiconj=0.5 * float(np.vdot(r1s, r1s).real),
    )


def concentrations_ri(op, xi, s):
    """Oblique estimate Phi^+ W(-xi) s; exact on noiseless signals."""
    return voxelwise_concentrations(op, xi, s)[0]


@dataclass(frozen=True)
class FullResidualEval:
    value: float
    grad_xi: WirtingerGradient
    grad_s_conj: np.ndarray  # d f / d s*, one entry per echo


def full_residual(op, xi, s):
    """f(xi, s) = 0.5 ||R(xi) s||^2 with gradients in both blocks.

    The signal-block derivative is ``d_{s*} f = 0.5 R(xi)* R(xi) s``; the
    corresponding real-chart gradient is ``2 d_{s*} f`` componentwise.
    """
    s = np.asarray(s, dtype=complex)
    if s.shape != (op.n_e,):
        raise DimensionError(f"signal has shape {s.shape}, expected ({op.n_e},)")
    f, d_xi, grad_s_conj = voxelwise_full_residual(op, xi, s)
    return FullResidualEval(
        value=float(f[0]), grad_xi=WirtingerGradient(d_xi=d_xi[0]), grad_s_conj=grad_s_conj[0]
    )
