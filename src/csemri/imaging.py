"""Image-grid reconstruction under per-voxel fieldmap gradient bounds.

The field estimate minimizes the sum of per-voxel residuals subject to the
convex set

    C_phi = { xi : || D Re xi (v) ||_2 <= eps_g(v)  for all v }

where ``D`` is the forward difference on the bounded pairs: a difference
is bounded only when both of its voxels have a finite bound. A difference
into a voxel with an infinite bound is zero, as one past the grid's edge
is, so that voxel is coupled to nothing. The projection is computed on the
dual: the projection of ``z`` is ``z - D^T p`` for the minimizer ``p`` of
``0.5 ||z - D^T p||^2 + sum_v eps_g(v) ||p(v)||``. The dual fast gradient
projection (Beck and Teboulle's FISTA with step 1/8, since leaving pairs
out only removes rows of ``D`` and ``||D||^2 <= 8``, and O'Donoghue and
Candes's adaptive restart) reaches it with one gradient, one adjoint and
one per-voxel shrink per iteration, vectorized over the whole grid. The
imaginary part (the decay rate) is simply clamped to be nonnegative, which
is the exact projection because the constraint only reads the real part.

A field already in C_phi is its own projection, so the projection first
tests every constraint with the arithmetic of the first dual step and
returns a feasible field (imaginary part clamped) without iterating; only
a field that leaves C_phi is iterated.

One projected-descent loop, :func:`projected_descent`, moves a field and
its per-voxel signals (kept in their noise balls ``||s(v) - y(v)|| <=
delta``) together and finds the support, the steps and the signal
scale itself. It takes the data in the field's shape and returns one
:class:`ReconResult`, its maps in that shape. The image driver,
:func:`reconstruct_noisy`, runs it on the grid with the projection onto
C_phi and hands that record out as it comes; the single-voxel flows of
:mod:`csemri.solver` run it on a batch of one with the upper half-plane
clamp. A noisy iteration takes one exponential per voxel: the signal
gradient's adjoint ``R(xi)^H = R(conj xi)`` reuses the objective's
``W(xi)``, because ``W(conj xi) = 1 / conj W(xi)``.
Noiseless reconstruction, :func:`reconstruct`, is ``delta = 0``, where the
signals are held at the data. An :class:`ImageGrid` is its signal alone,
and the objective is evaluated only on the signal support, the voxels
whose noise ball excludes 0: ``||y(v)|| > delta``, which for ``delta = 0``
is any nonzero echo; the fallback step is the smallest over it. Off
the support ``s = 0`` lies in the ball and gives ``R s = 0`` and zero
gradients for every field (the zero branch), so the signal is set to 0 and
the field moves only by projection, and not at all where its bound is
infinite. With held signals the image driver takes restarted per-voxel
FISTA steps on the field, again with one evaluation per iteration;
``ReconResult.restarts`` counts the iterations in which a voxel's
extrapolated point raised its objective and was rejected. The
single-voxel flows and the runs with moving signals take the plain step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DomainError, NonConvergence
from .residual import (
    make_residual_operator,
    voxelwise_concentrations,
    voxelwise_full_residual,
    voxelwise_signal_gradient,  # noqa: F401  (the benchmark trace looks it up here)
    voxelwise_value_and_gradient,
)
from .solver import RHO, certified_step

__all__ = [
    "ImageGrid",
    "FieldmapConstraint",
    "ReconResult",
    "SeparationReport",
    "forward_gradient",
    "gradient_adjoint",
    "project_onto_C_phi",
    "constraint_violation",
    "projected_descent",
    "reconstruct",
    "reconstruct_noisy",
    "separation_check",
    "metrics",
    "pdff_map",
    "metrics_table",
]

DB_CAP = 300.0
PDFF_MIN_CONTENT = 1e-12  # PDFF is NaN where water + fat content is below this
PROJ_MAX_ITERS = 20_000  # cap on the dual iterations of one projection
PROJ_TOL = 1e-9  # default proj_tol: a projection stops at a move of PROJ_TOL max(|Re xi|, 1)
S_TOL = 1e-12  # stationary signals move by at most S_TOL max(||y||, delta) per iteration


@dataclass(frozen=True)
class ImageGrid:
    """Per-voxel echo signals on a 2D grid, converted to complex; the size
    is the signal's, and the signal alone selects the voxels a
    reconstruction reads (:func:`reconstruct_noisy`)."""

    signal: np.ndarray = field(repr=False)  # (height, width, n_e) complex

    def __post_init__(self):
        object.__setattr__(self, "signal", np.asarray(self.signal, dtype=complex))
        if self.signal.ndim != 3:
            raise DimensionError(f"signal must be (height, width, n_e), got {self.signal.shape}")
        if 0 in self.signal.shape:
            raise DimensionError(f"height, width and n_e must be >= 1, got {self.signal.shape}")
        # checked on every voxel: a NaN voxel would reach the objective
        if not np.all(np.isfinite(self.signal)):
            raise DimensionError("signal has non-finite entries")

    @property
    def height(self):
        return self.signal.shape[0]

    @property
    def width(self):
        return self.signal.shape[1]


@dataclass(frozen=True)
class FieldmapConstraint:
    """Per-voxel bound ``eps_g`` (height, width) on the Euclidean norm of the
    forward-difference gradient of the real fieldmap.

    An infinite bound takes its voxel out of the bounded region: a forward
    difference is bounded only when both of its voxels have a finite bound.
    ``pairs`` (height, width, 2), derived at construction, is True on the
    bounded differences and False elsewhere, the grid's edge included.
    """

    eps_g: np.ndarray = field(repr=False)
    pairs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        eps = np.asarray(self.eps_g, dtype=float)
        if eps.ndim != 2:
            raise DimensionError(f"gradient bounds must be (height, width), got {eps.shape}")
        if not np.all(eps >= 0):  # NaN fails too
            raise DimensionError("gradient bounds must be nonnegative")
        finite = np.isfinite(eps)
        # bool, an eighth of a float array's size: a float one here measurably added page
        # faults to the later kernel calls of a 128^2 reconstruction
        pairs = np.zeros(eps.shape + (2,), bool)
        pairs[:-1, :, 0] = finite[1:, :] & finite[:-1, :]
        pairs[:, :-1, 1] = finite[:, 1:] & finite[:, :-1]
        object.__setattr__(self, "eps_g", eps)
        object.__setattr__(self, "pairs", pairs)

    @classmethod
    def from_mask(cls, mask, eps_hz):
        """``eps_hz`` on the mask; off it the voxels are unbounded and uncoupled."""
        return cls(eps_g=np.where(mask, float(eps_hz), np.inf))

    @classmethod
    def uniform(cls, height, width, eps_hz):
        return cls(eps_g=np.full((height, width), float(eps_hz)))


def forward_gradient(phi):
    """Forward differences (phi(v+e1)-phi(v), phi(v+e2)-phi(v)).

    Components pointing outside the grid are zero (one-sided zero
    extension), so boundary voxels are only constrained inward.
    """
    phi = np.asarray(phi, dtype=float)
    g = np.zeros(phi.shape + (2,))
    g[:-1, :, 0] = phi[1:, :] - phi[:-1, :]
    g[:, :-1, 1] = phi[:, 1:] - phi[:, :-1]
    return g


def gradient_adjoint(psi):
    """Adjoint of :func:`forward_gradient` (negative discrete divergence)."""
    psi = np.asarray(psi, dtype=float)
    out = np.zeros(psi.shape[:2])
    out[:-1, :] -= psi[:-1, :, 0]
    out[1:, :] += psi[:-1, :, 0]
    out[:, :-1] -= psi[:, :-1, 1]
    out[:, 1:] += psi[:, :-1, 1]
    return out


def constraint_violation(phi, constraint):
    """max over voxels of (||D phi(v)|| - eps_g(v))+ for the real field."""
    _check_shape(phi, constraint)
    norms = np.linalg.norm(_bounded_gradient(np.real(phi), constraint), axis=2)
    return float(max(np.max(norms - constraint.eps_g), 0.0))


def _bounded_gradient(phi, constraint):
    """The differences of C_phi: :func:`forward_gradient` on the bounded pairs, 0 elsewhere."""
    return forward_gradient(phi) * constraint.pairs


def _check_shape(xi, constraint):
    if constraint.eps_g.shape != np.shape(xi):
        raise DimensionError(
            f"eps_g shape {constraint.eps_g.shape} does not match field {np.shape(xi)}"
        )


def project_onto_C_phi(xi, constraint, proj_tol=PROJ_TOL):
    """Euclidean projection of Re(xi) onto the gradient-bound set.

    The dual fast gradient projection :func:`_dual_projection`, iterated
    until the field moves by at most ``proj_tol max(|Re xi|, 1)`` per
    iteration and violates the constraint by no more; the imaginary part is
    clamped to the upper half-plane, which is the exact projection of that
    separable factor. Raises :class:`NonConvergence` when the result still
    violates the constraint by more than ``10 proj_tol max(|Re xi|, 1)``,
    the bound it guarantees.

    A field that violates no constraint, tested as the first dual step
    tests it (squared gradient norm above ``eps**2``), is returned with its
    imaginary part clamped and no iteration, which is what the iteration
    returns.
    """
    xi = np.asarray(xi)
    _check_shape(xi, constraint)
    if _in_C_phi(xi, constraint):
        return _clamp_upper_half_plane(xi)
    return _dual_projection(xi, constraint, proj_tol)


def _in_C_phi(xi, constraint):
    """Whether ``Re xi`` violates no gradient bound, tested as the first dual
    step tests it: no squared gradient norm above ``eps**2``; every field
    passes without a constraint (``None``)."""
    if constraint is None:
        return True
    eps = constraint.eps_g
    g = _bounded_gradient(np.real(xi), constraint)
    return not np.any(g[..., 0] * g[..., 0] + g[..., 1] * g[..., 1] > eps * eps)


def _clamp_upper_half_plane(xi):
    """Projection onto the closed upper half-plane: ``Im xi`` clamped at 0."""
    return np.real(xi) + 1j * np.maximum(np.imag(xi), 0.0)


def _dual_projection(xi, constraint, proj_tol):
    """The iteration of :func:`project_onto_C_phi` on a field of matching shape.

    FISTA on the dual of ``min 0.5 ||x - z||^2`` over C_phi, with ``z = Re
    xi``, ``D`` = :func:`_bounded_gradient` and step ``1/8 <= 1/||D||^2``. The
    dual is kept as ``r = 8 p``, so a step is ``g = q + D(z - D^T q / 8)``
    followed by shrinking each voxel's ``g(v)`` by ``eps(v)`` in norm (to 0
    within ``eps(v)``), and the primal point is ``x = z - D^T r / 8``. The
    dual iterates are 0 off the bounded pairs, so :func:`gradient_adjoint`
    applies ``D^T`` to them. The momentum restarts whenever it points against
    the last step, ``<q - r_new, r_new - r> > 0``.
    """
    eps = constraint.eps_g
    z = np.real(xi)
    tol = proj_tol * max(float(np.max(np.abs(z))), 1.0)
    x, t = z, 1.0
    r = q = np.zeros(z.shape + (2,))  # never written in place
    for _ in range(PROJ_MAX_ITERS):
        g = q + _bounded_gradient(z - gradient_adjoint(q) / 8.0, constraint)
        norm2 = g[..., 0] * g[..., 0] + g[..., 1] * g[..., 1]
        over = norm2 > eps * eps
        shrink = np.zeros_like(norm2)
        shrink[over] = 1.0 - eps[over] / np.sqrt(norm2[over])
        r_new = g * shrink[..., None]
        x_new = z - gradient_adjoint(r_new) / 8.0
        move, x = float(np.max(np.abs(x_new - x))), x_new
        if move <= tol and constraint_violation(x, constraint) <= tol:
            break
        if np.sum((q - r_new) * (r_new - r)) > 0.0:
            t_new, q = 1.0, r_new
        else:
            t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            q = r_new + ((t - 1.0) / t_new) * (r_new - r)
        r, t = r_new, t_new
    out = x + 1j * np.maximum(np.imag(xi), 0.0)
    if constraint_violation(out, constraint) > _violation_bound(xi, proj_tol):
        raise NonConvergence(
            f"projection still violates the constraint after {PROJ_MAX_ITERS} iterations"
        )
    return out


def _violation_bound(xi, proj_tol):
    """``10 proj_tol max(|Re xi|, 1)``, the violation that the projection guarantees."""
    return 10.0 * proj_tol * max(float(np.max(np.abs(np.real(xi)))), 1.0)


@dataclass(frozen=True)
class ReconResult:
    """A reconstruction and its run statistics, as :func:`projected_descent` returns them.

    ``xi_map`` is the final field, and ``s_map`` and ``c_map`` hold the
    signals and their concentration estimate in the field's shape, 0 off the
    support. The estimate, and its exponent guard, read only the support, so
    no field off it is refused. ``converged`` holds for a stationary field
    whose ``constraint_violation`` (0.0 without a constraint) is at most
    ``10 proj_tol max(|Re xi|, 1)``. ``fallback_iterations`` counts the
    iterations whose per-voxel step left C_phi and that took the smallest
    step over the support with the projection instead, and ``restarts`` the
    iterations in which a voxel's extrapolated point raised its objective
    and was rejected (0 on a run of the plain step); ``step_spread`` is
    (min, median, max) of the steps (all three ``cfg.step`` with a fixed
    step), and ``None`` when there are none: in certified mode with an empty
    support. ``zero_branch_voxels`` counts the voxels whose noise ball holds
    0 with ``delta > 0`` and that therefore left the support.
    ``final_grad_norm`` is the largest ``|grad|`` over the support at the
    last iterate (0.0 on an empty support), and ``trajectory`` holds every
    iterate, the start first, when ``cfg.keep_trajectory`` is set, else
    None.
    """

    xi_map: np.ndarray = field(repr=False)
    c_map: np.ndarray = field(repr=False)
    objective_trace: tuple[float, ...]
    constraint_violation: float
    iterations: int
    converged: bool
    s_map: np.ndarray = field(repr=False)
    fallback_iterations: int
    restarts: int
    step_spread: tuple[float, float, float] | None
    zero_branch_voxels: int
    final_grad_norm: float
    trajectory: tuple[np.ndarray, ...] | None = field(repr=False)


def reconstruct(grid, model, constraint, cfg, xi_init, proj_tol=PROJ_TOL):
    """Noiseless reconstruction: :func:`reconstruct_noisy` with ``delta = 0``."""
    return reconstruct_noisy(grid, model, constraint, 0.0, cfg, xi_init, proj_tol=proj_tol)


def reconstruct_noisy(grid, model, constraint, delta, cfg, xi_init, proj_tol=PROJ_TOL):
    """Joint projected Wirtinger descent on the field and the per-voxel signals.

    :func:`projected_descent` on every voxel of the grid under C_phi, with
    the support, the steps, the signals' balls ``||s(v) - y(v)|| <=
    delta`` (one radius for all voxels), the input checks, the stopping
    rule, the trajectory and the verdict as it describes. Off the support
    ``s = 0`` gives ``f = 0`` for every field: there ``s_map = 0``, ``c_map
    = 0`` (so :func:`pdff_map` is NaN, below ``PDFF_MIN_CONTENT``), and the
    field moves only through the projection. The grid's signal is the only
    input that selects voxels; the constraint's bounds select none.
    """
    return projected_descent(make_residual_operator(model), xi_init, grid.signal, delta, cfg,
                             constraint, proj_tol=proj_tol)


def projected_descent(op, xi, y, delta, cfg, constraint, epsilon=0.0, proj_tol=PROJ_TOL):
    """Projected joint descent of f(xi, s) (+ epsilon ||s||^2), the loop of every flow.

    ``y`` holds the data in the field's shape, ``xi.shape + (n_e,)``, and
    ``delta`` is one radius for all voxels. Data whose echo count is not
    the operator's, data or a constraint whose shape is not the field's,
    and a ``delta`` that is not a scalar raise :class:`DimensionError`, and
    a negative or NaN ``delta`` or ``epsilon`` and a non-finite start or
    datum :class:`DomainError`. The start is
    copied, never written. Each iteration evaluates f and both gradients
    once, with one exponential per voxel, on the support: the voxels whose
    ball excludes 0, ``||y|| > delta``, or with a nonzero echo where
    ``delta = 0``. Off it ``s = 0`` gives ``f = 0``, so the signal is 0
    there. The field steps by ``cfg.step``, or in certified mode by each
    voxel's :func:`certified_step` at the start. The candidate is clamped to
    the upper half-plane when ``constraint`` is None (the single-voxel
    flows) or when it lies in C_phi, where that clamp is its projection;
    otherwise the iteration takes the smallest step instead and maps the
    field back with :func:`project_onto_C_phi`. The signals take
    :func:`_projected_signal_step` (held at ``y`` if no support voxel has
    ``delta > 0``). With the signals held and a constraint (the image
    driver), the field takes restarted per-voxel FISTA steps instead
    (:class:`_Momentum`), still with one evaluation per iteration; the
    single-voxel flows keep the plain step whose contraction their
    certificates state. It stops once ``|grad| <= cfg.grad_tol ||y||^2``
    and every signal moves by at most ``S_TOL max(||y||, delta)``, or after
    ``cfg.max_iters`` steps; with ``cfg.keep_trajectory`` it records every
    accepted iterate, the start first and the result last. The final
    :func:`voxelwise_concentrations` estimate, and the exponent guard it
    checks, read only the support; off it the concentrations are 0. Returns
    the :class:`ReconResult`, its maps in the field's shape.
    """
    y = np.asarray(y, dtype=complex)
    if y.shape[-1:] != (op.n_e,):
        raise DimensionError(f"data shape {y.shape} does not end in the model's {op.n_e} echoes")
    xi = np.array(xi, dtype=complex)  # the result never shares the caller's array
    if y.shape[:-1] != xi.shape:
        raise DimensionError(f"data shape {y.shape} does not match field {xi.shape}")
    if constraint is not None:
        _check_shape(xi, constraint)
    y = y.reshape(-1, y.shape[-1])
    if np.ndim(delta) != 0:
        raise DimensionError(f"delta must be one radius, got shape {np.shape(delta)}")
    delta = float(delta)
    if not (delta >= 0 and epsilon >= 0):  # NaN fails too
        raise DomainError("delta and epsilon must be nonnegative")
    if not (np.all(np.isfinite(xi)) and np.all(np.isfinite(y))):
        raise DomainError("the start and the data must be finite")
    y_norm = np.linalg.norm(y, axis=1)
    zero_branch = (delta > 0) & (y_norm <= delta)
    support = np.flatnonzero(np.any(y != 0, axis=1) & ~zero_branch)
    y_s = y[support]
    grad_tol = cfg.grad_tol * y_norm[support] ** 2
    steps = certified_step(op, xi.ravel()[support], y_s, RHO) if cfg.certified else cfg.step
    fallback_step = np.min(steps, initial=np.inf)  # an empty support never steps
    s_scale = np.maximum(np.maximum(y_norm[support], delta), 1e-300)
    hold_signal = delta == 0 or support.size == 0
    momentum = None
    if hold_signal and constraint is not None:
        momentum = _Momentum(support, constraint, xi.ravel()[support])
    s = y_s.copy()
    trace = []
    trajectory = [] if cfg.keep_trajectory else None
    fallbacks = 0
    d_s = moved = None  # bound on every path for the release after the loop
    for iterations in range(cfg.max_iters + 1):
        xi_s = xi.ravel()[support]
        s_new, s_move = s, 0.0
        if hold_signal:
            f, d_xi = voxelwise_value_and_gradient(op, xi_s, s)
        else:
            f, d_xi, d_s = voxelwise_full_residual(op, xi_s, s)
            s_new = _projected_signal_step(op, xi_s, s, d_s, y_s, delta, epsilon)
            s_move = float(np.max(_row_norms(s_new - s) / s_scale, initial=0.0))
        grad = 2.0 * np.conj(d_xi)
        if momentum is not None:
            xi, f, grad = momentum.accept(xi, f, grad)
            xi_s = xi.ravel()[support]
        trace.append(float(f.sum()))
        if trajectory is not None:
            trajectory.append(xi.copy())
        stationary = bool((np.abs(grad) <= grad_tol).all()) and s_move <= S_TOL
        if stationary or iterations == cfg.max_iters:
            break
        moved = xi.copy()
        moved.ravel()[support] = xi_s - steps * grad  # the gradient is zero off the support
        if _in_C_phi(moved, constraint):
            np.maximum(moved.imag, 0.0, out=moved.imag)  # _clamp_upper_half_plane, in place
            xi = moved if momentum is None else momentum.extrapolate(moved)
        else:
            fallbacks += 1
            moved.ravel()[support] = xi_s - fallback_step * grad
            xi = project_onto_C_phi(moved, constraint, proj_tol=proj_tol)
            if momentum is not None:
                momentum.restart(xi.ravel()[support])
        s = s_new
    signals = np.zeros_like(y)
    signals[support] = s
    # the loop's arrays go first, so that the verdict and the estimate reuse their memory
    # instead of growing the process (1.6 MiB of peak RSS on a noisy 128^2 image)
    del s, s_new, y_s, d_s, moved, f, d_xi, s_scale
    # the start is never projected, so a stationary start may be infeasible;
    # convergence needs the bound that project_onto_C_phi enforces
    violation = 0.0 if constraint is None else constraint_violation(xi, constraint)
    feasible = violation <= _violation_bound(xi, proj_tol)
    # off the support the signal is 0 and so is its estimate: its field never enters the guard
    c = np.zeros((y.shape[0], op.phi_pinv.shape[0]), dtype=complex)
    c[support] = voxelwise_concentrations(op, xi.ravel()[support], signals[support])
    steps = np.atleast_1d(steps)
    return ReconResult(  # the maps are views in the field's shape
        xi_map=xi,
        c_map=c.reshape(xi.shape + c.shape[-1:]),
        objective_trace=tuple(trace),
        constraint_violation=violation,
        iterations=iterations,
        converged=stationary and feasible,
        s_map=signals.reshape(xi.shape + y.shape[-1:]),
        fallback_iterations=fallbacks,
        restarts=0 if momentum is None else momentum.restarts,
        step_spread=None if steps.size == 0
        else (float(steps.min()), float(np.median(steps)), float(steps.max())),
        zero_branch_voxels=int(np.count_nonzero(zero_branch)),
        final_grad_norm=float(np.abs(grad).max(initial=0.0)),
        trajectory=None if trajectory is None else tuple(trajectory),
    )


class _Momentum:
    """Restarted per-voxel FISTA on the field of :func:`projected_descent`.

    Beck and Teboulle's extrapolation with O'Donoghue and Candes's
    function-value restart, per support voxel ``v``: the loop evaluates f
    and its gradient at the point :meth:`extrapolate` returns and hands
    them to :meth:`accept`. A voxel whose point was extrapolated (``beta_v
    > 0``) and whose ``f_v`` rose above its last accepted value keeps that
    value, its gradient and its point, and restarts (``t_v = 1``); if that
    merge leaves C_phi, every voxel keeps the last accepted field. Only an
    extrapolated point can be rejected: a plain certified step may raise
    ``f_v`` by rounding at the objective's floor, and rejecting it would
    stall the voxel there.
    """

    def __init__(self, support, constraint, z):
        self.support, self.constraint = support, constraint
        self.t = np.ones(support.size)
        self.beta = np.zeros(support.size)  # the weight that extrapolated each voxel's point
        self.z = z  # the last step result on the support
        self.xi, self.f, self.grad = None, np.full(support.size, np.inf), None  # last accepted
        self.restarts = 0

    def accept(self, xi, f, grad):
        """The accepted field, objective and gradient at the evaluated point ``xi``."""
        raised = (self.beta > 0.0) & (f > self.f)
        if raised.any():
            self.restarts += 1
            self.t[raised] = 1.0
            keep = self.support[raised]
            xi.ravel()[keep] = self.xi.ravel()[keep]  # xi is the loop's own candidate
            if _in_C_phi(xi, self.constraint):
                f[raised], grad[raised] = self.f[raised], self.grad[raised]
            else:
                xi, f, grad = self.xi, self.f, self.grad
                self.t[:] = 1.0
        self.xi, self.f, self.grad = xi, f, grad
        return xi, f, grad

    def extrapolate(self, moved):
        """The next point after the step result ``moved`` (in C_phi, clamped): ``moved +
        (t_v - 1) / t_v' (moved - z)`` on each support voxel, clamped to ``Im >= 0``;
        ``moved`` itself, with every ``t_v`` reset, when that point leaves C_phi."""
        z = moved.ravel()[self.support]
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * self.t * self.t))
        self.beta, self.t = (self.t - 1.0) / t_next, t_next
        ahead = moved.copy()
        ahead.ravel()[self.support] = z + self.beta * (z - self.z)
        np.maximum(ahead.imag, 0.0, out=ahead.imag)
        if _in_C_phi(ahead, self.constraint):
            self.z = z
            return ahead
        self.restart(z)
        return moved

    def restart(self, z):
        """Reset every ``t_v`` after the step result ``z`` on the support (a fallback step)."""
        self.z = z
        self.t[:] = 1.0
        self.beta[:] = 0.0


def _projected_signal_step(op, xi, s, grad_s_conj, y, delta, epsilon):
    """One projected gradient step of the signal block for a batch of voxels.

    ``grad_s_conj`` is ``d_{s*} f`` at ``(xi, s)``, shape (n, n_e); the
    step ``0.9 / L`` per voxel uses ``||R(xi)||_op^2 <= exp(tau_s |Im xi|)``
    plus the ridge curvature ``2 epsilon`` as ``L``, and the result is
    projected radially onto the balls ``||s - y|| <= delta``. It writes one
    (n, n_e) array in place, the ridge term only when ``epsilon > 0``. Its
    batch is the support, as is that of the estimate after the loop and of
    its exponent guard.
    """
    lip = np.exp(op.tau_s * np.abs(np.imag(xi))) + 2.0 * epsilon
    step = (-1.8 / lip)[..., None]  # -2 (0.9 / L), bit for bit
    d = (grad_s_conj + epsilon * s) * step if epsilon > 0 else grad_s_conj * step
    d += s
    d -= y
    d *= np.minimum(1.0, delta / np.maximum(_row_norms(d), 1e-300))[..., None]
    d += y
    return d


def _row_norms(x):
    """``||x||`` along the last axis of a C-contiguous complex array: a real reduction over
    its float view, without the ``conj(x) * x`` temporary of ``np.linalg.norm``."""
    x = x.view(float)
    return np.sqrt(np.einsum("...i,...i->...", x, x))


MISMATCH = np.iinfo(np.int64).min  # sentinel for offsets that are no lattice multiple


@dataclass(frozen=True)
class SeparationReport:
    """Per-voxel lattice offsets between two fieldmaps.

    ``offsets`` holds the integer lattice index of ``Re(a - b)`` per voxel
    (or the ``MISMATCH`` sentinel); the dichotomy flag records whether no
    masked region mixes zero with nonzero offsets, the operational form of
    the statement that distinct minimizers coincide nowhere.
    """

    offsets: np.ndarray = field(repr=False)
    mismatch: np.ndarray = field(repr=False)
    offsets_constant_per_region: bool
    region_offsets: tuple[int, ...]
    dichotomy_ok: bool


def separation_check(xi_map_a, xi_map_b, period, tol=1e-6, mask=None):
    """Classify Re(a-b) voxelwise as integer multiples of the lattice ``period`` in Hz,
    as :func:`csemri.lattice.fieldmap_lattice` returns it; an infinite one is refused."""
    if not np.isfinite(period):
        raise DimensionError("separation check needs a finite lattice period")
    diff = np.real(np.asarray(xi_map_a) - np.asarray(xi_map_b))
    k = np.round(diff / period).astype(np.int64)
    resid = np.abs(diff - k * period)
    mismatch = resid > tol
    offsets = np.where(mismatch, MISMATCH, k)
    if mask is None:
        mask = np.ones(diff.shape, dtype=bool)
    from scipy import ndimage  # imported here: 0.1 s that only this function needs

    labels, n_regions = ndimage.label(mask)
    region_offsets = []
    constant = True
    for r in range(1, n_regions + 1):
        vals = offsets[(labels == r) & ~mismatch]
        if len(vals) == 0:
            continue
        region_offsets.append(int(vals[0]))
        if np.any(vals != vals[0]):
            constant = False
    on_mask = offsets[mask & ~mismatch]
    has_zero = np.any(on_mask == 0)
    has_nonzero = np.any(on_mask != 0)
    return SeparationReport(
        offsets=offsets,
        mismatch=mismatch,
        offsets_constant_per_region=constant,
        region_offsets=tuple(region_offsets),
        dichotomy_ok=bool(not (has_zero and has_nonzero)),
    )


def metrics(truth, estimate):
    """MSE, SNR and PSNR (dB, capped at 300) between two per-voxel maps."""
    truth = np.asarray(truth)
    estimate = np.asarray(estimate)
    if truth.shape != estimate.shape:
        raise DimensionError(f"shape mismatch {truth.shape} vs {estimate.shape}")
    err2 = np.abs(estimate - truth) ** 2
    mse = float(np.mean(err2))
    power = float(np.sum(np.abs(truth) ** 2))
    peak = float(np.max(np.abs(truth)) ** 2)

    def db_ratio(num, den):
        if den == 0.0:
            return DB_CAP
        if num == 0.0:
            return -DB_CAP
        return float(np.clip(10 * np.log10(num / den), -DB_CAP, DB_CAP))

    return {
        "mse": mse,
        "snr_db": db_ratio(power, float(np.sum(err2))),
        "psnr_db": db_ratio(peak, mse),
    }


def pdff_map(c_map, water_idx, fat_idx):
    """Magnitude fat fraction ``100 |c_fat| / (|c_water| + |c_fat|)`` in percent.

    Voxels whose water+fat content falls below ``PDFF_MIN_CONTENT`` are NaN.
    """
    c_map = np.asarray(c_map)
    n_s = c_map.shape[-1]
    if not (0 <= water_idx < n_s and 0 <= fat_idx < n_s):
        raise DimensionError("species index out of range")
    cw = np.abs(c_map[..., water_idx])
    cf = np.abs(c_map[..., fat_idx])
    denom = cw + cf
    with np.errstate(invalid="ignore"):
        return 100.0 * cf / np.where(denom < PDFF_MIN_CONTENT, np.nan, denom)


def metrics_table(truth_maps, estimate_maps):
    """Error-metric rows (MSE, SNR, PSNR) for named map pairs."""
    rows = {}
    for name, truth in truth_maps.items():
        rows[name] = metrics(truth, estimate_maps[name])
    return rows
