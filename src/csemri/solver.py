"""Single-voxel recovery and certified local-convergence radii.

Fixed-step gradient descent on the Wirtinger pair (also called Wirtinger
flow) recovers the true parameter from any initial iterate inside a
certified radius around it. The certificates come in three nested flavors,
all built from the same two curvature numbers ``r1 = ||R'(xi0) s0||`` and
``r2 = ||R''(xi0) s0||`` and the perturbation envelope

    gamma(eta) = 2 ||s0||^2 |eta| beta(tau_s Im xi0, tau_s Im eta),
    beta(a, b) = integral_0^1 exp(|a + theta b|) dtheta.

The scalar ``gamma_plus(rho)`` is the positive root of

    u^2 + r2 / (2 tau_ne^(5/2)) u - (1 - rho) r1^2 / (2 tau_ne^3) = 0,

so positive curvature (Hessian between ``rho`` and ``2 + rho`` times its
value at the truth) is guaranteed while ``gamma(eta) <= gamma_plus^2``.
Bounding ``beta`` by ``exp(a) exp(tau_s |eta|)`` yields the closed-form
Lambert-W radius; evaluating ``beta`` exactly in the worst (imaginary)
direction yields the loose radius, also in closed form (``log1p``);
evaluating ``||R(xi) s0||`` and its derivatives on circles around the
truth yields the tight radius, from batched circle searches over a
geometric ladder of radii, up to its first failing rung, then over evenly
spaced radii inside its bracket and a cluster around the bracket's
regula-falsi estimate. Each successive bound relaxes the previous
inequality, so the three radii are always ordered. A circle search takes
11 calls of the batched kernel for any number of radii: one for an angular
grid on every circle, then ten rounds of safeguarded parabolic
interpolation around each circle's best grid angle, in lockstep over the
circles. The ladder's search evaluates its grid in chunks of rungs and
stops after the first chunk with a failing rung, so it takes a few more,
smaller calls and searches no circle past that rung.

The recovery flows run :func:`csemri.imaging.projected_descent` on one voxel.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, inf, log1p, sqrt
from numbers import Integral, Real

import numpy as np

from .errors import DegenerateCurvature, DimensionError, DomainError, NonBracketed
from .residual import EXP_GUARD, _check_guard, residual_pieces
from .residual import wirtinger_gradient_f0  # noqa: F401  (the benchmark trace looks it up here)

__all__ = [
    "FlowConfig",
    "RecoveryResult",
    "lambert_w0",
    "gamma_plus",
    "radius_lambert",
    "radius_loose",
    "radius_tight",
    "step_bound",
    "certified_step",
    "curvature_profile",
    "radius_empirical_from_profile",
    "wirtinger_flow",
    "constrained_flow",
]

RHO = 0.5  # curvature margin of the certified step in the flows and the image driver
RADIUS_CAP = 600.0  # radii are certified up to tau_s r = 600; beta overflows past exp(700)
TIGHT_GROWTH = 1.12  # ratio of neighbouring radii on the tight radius's ladder
LADDER_CHUNK = 16  # ladder radii per angular-grid call until a rung fails
TIGHT_SPLIT = 16  # sub-intervals of the tight radius's bracket per refinement round


def lambert_w0(x):
    """Main branch of the Lambert W function for real ``x >= -1/e``.

    ``scipy.special.lambertw`` on the principal branch; the branch point
    itself, where SciPy returns NaN, maps to -1.
    """
    x = float(x)
    branch_point = -exp(-1.0)
    if x < branch_point - 1e-12:
        raise DomainError(f"lambert_w0 requires x >= -1/e, got {x}")
    if x <= branch_point:
        return -1.0
    from scipy.special import lambertw  # imported here: 0.3 s that only this function needs

    return float(lambertw(x).real)


def _curvature_numbers(op, xi0, s0):
    _check_guard(op, xi0, square=True)
    _, r1s, r2s = residual_pieces(op, xi0, s0, 2)
    return (
        float(np.linalg.norm(r1s)),
        float(np.linalg.norm(r2s)),
        float(np.linalg.norm(np.asarray(s0))),
    )


def gamma_plus(op, xi0, s0, rho):
    """Positive root of the curvature-margin quadratic (see module docstring)."""
    if not 0.0 < rho < 1.0:
        raise DomainError(f"rho must lie in (0, 1), got {rho}")
    r1, r2, s_norm = _curvature_numbers(op, xi0, s0)
    if r1 <= 1e-14 * max(s_norm * op.tau_ne, 1e-300):
        raise DegenerateCurvature("||R'(xi0) s0|| vanishes; no curvature to certify")
    tau = op.tau_ne
    b = r2 / (2.0 * tau**2.5)
    c = (1.0 - rho) * r1**2 / (2.0 * tau**3)
    return 2.0 * c / (b + sqrt(b * b + 4.0 * c))


def _envelope_arg(op, xi0, s0, rho):
    """``tau_s exp(-tau_s Im xi0) gamma_plus^2 / (2 ||s0||^2)``, the argument that both
    envelope radii invert."""
    if np.imag(xi0) < 0:
        raise DomainError("xi0 must lie in the closed upper half-plane")
    g = gamma_plus(op, xi0, s0, rho)
    budget = g * g / (2.0 * float(np.linalg.norm(np.asarray(s0))) ** 2)
    return op.tau_s * exp(-op.tau_s * float(np.imag(xi0))) * budget


def radius_lambert(op, xi0, s0, rho=RHO):
    """Closed-form certified radius via the Lambert W function.

    Uses ``beta(a, b) <= exp(a) exp(tau_s |eta|)``, turning the envelope
    condition into ``tau_s r exp(tau_s r) <= tau_s exp(-tau_s Im xi0) *
    gamma_plus^2 / (2 ||s0||^2)``. Invariant under rescaling of ``s0``.
    """
    return lambert_w0(_envelope_arg(op, xi0, s0, rho)) / op.tau_s


def radius_loose(op, xi0, s0, rho=RHO):
    """Certified radius with the envelope beta evaluated exactly.

    Solves ``r * beta(tau_s Im xi0, tau_s r) = gamma_plus^2 / (2||s0||^2)``.
    The direction ``Im eta = |eta|`` is the worst case over the half-plane
    because beta increases in its second argument, so the radius is valid
    for every direction. There ``beta = exp(a) expm1(tau_s r) / (tau_s r)``
    with ``a = tau_s Im xi0 >= 0``, so the equation solves in closed form to
    ``tau_s r = log1p(tau_s exp(-a) gamma_plus^2 / (2||s0||^2))``. Raises
    :class:`NonBracketed` past ``tau_s r = RADIUS_CAP``.
    """
    tau_r = log1p(_envelope_arg(op, xi0, s0, rho))
    if tau_r > RADIUS_CAP:
        raise NonBracketed(f"condition holds up to the search cap {RADIUS_CAP / op.tau_s:.3e} Hz")
    return tau_r / op.tau_s


def _circle_eval(op, xi0, s0, radii, angular_samples, fn, *, stop_below=None):
    """Minimize fn([Rs, R's, R''s]) over each circle |xi - xi0| = r in H+.

    ``fn`` reduces the kernel's pieces, shape (3, n, n_e), to one value per
    point. An angular grid on every circle is refined around its best angle
    ``x`` by ten rounds of safeguarded parabolic interpolation (Brent 1973),
    in lockstep over the radii: each round evaluates ``x - h, x, x + h``
    inside the bracket of the grid's neighbouring angles (which wraps past
    angle 0 on a circle that does not cross the real axis); when the middle
    point is the lowest of the three, ``x`` moves to the vertex of the
    parabola through them and ``h`` becomes ``max(h / 8, 2 |move|)``,
    otherwise ``x`` moves to the lowest point and ``h`` stays, or shrinks
    8-fold when that point is ``x`` itself (at an end of the bracket, where
    ``x - h`` or ``x + h`` is clipped onto ``x``). One kernel call covers
    the grid of all radii and one each round, 11 in all. Returns the
    smallest value seen per radius, never above the grid's. An
    ``angular_samples`` below 1 and a radius that is negative or not finite
    raise :class:`DomainError`.

    With ``stop_below``, the radii are a ladder in ascending order that
    matters only up to its first circle below that value: the grid runs in
    chunks of ``LADDER_CHUNK`` radii and stops after the first chunk with a
    grid minimum below it, and the rounds run on the radii up to and
    including the first such one, whose values alone are returned. That
    circle is below for certain, since refinement only lowers a minimum. If
    no grid minimum is below, every radius is searched and returned.
    """
    if not (isinstance(angular_samples, Integral) and angular_samples >= 1):
        raise DomainError(f"angular_samples must be a positive integer, got {angular_samples!r}")
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    circle = np.isfinite(radii) & (radii >= 0.0)
    if not circle.all():
        raise DomainError(f"circle radii must be finite and nonnegative, got {radii[~circle]}")
    im0 = float(np.imag(xi0))
    closed = radii <= im0
    # sin(theta) >= -im0/r keeps xi inside the closed half-plane
    t0 = np.arcsin(-im0 / np.where(closed, np.inf, radii))
    lo = np.where(closed, 0.0, t0)
    hi = np.where(closed, 2.0 * np.pi, np.pi - t0)

    def values(thetas, r):  # a row of angles per radius, or one angle per radius
        xi = complex(xi0) + (r[:, None] if thetas.ndim == 2 else r) * np.exp(1j * thetas)
        return fn(residual_pieces(op, xi.ravel(), s0, 2)).reshape(thetas.shape)

    thetas = np.where(
        closed[:, None],
        np.linspace(lo, hi, angular_samples, endpoint=False, axis=-1),
        np.linspace(lo, hi, angular_samples, axis=-1),
    )
    if stop_below is None:
        vals = values(thetas, radii)
    else:  # a ladder, searched up to its first circle below stop_below
        chunks = []
        for start in range(0, len(radii), LADDER_CHUNK):
            rows = slice(start, start + LADDER_CHUNK)
            chunks.append(values(thetas[rows], radii[rows]))
            below = np.flatnonzero(chunks[-1].min(axis=1) < stop_below)
            if len(below):
                keep = slice(start + below[0] + 1)
                radii, thetas, lo, hi, closed = (v[keep] for v in (radii, thetas, lo, hi, closed))
                break
        vals = np.concatenate(chunks)[: len(radii)]
    span = (hi - lo) / max(angular_samples - 1, 1)
    x = thetas[np.arange(len(radii)), np.argmin(vals, axis=1)]
    # a closed circle continues past 0 and 2 pi, so its bracket wraps there
    a = np.where(closed, x - span, np.maximum(lo, x - span))
    b = np.where(closed, x + span, np.minimum(hi, x + span))
    h, low = span / 2.0, vals.min(axis=1)
    for _ in range(10):
        pts = np.clip(x[:, None] + h[:, None] * np.array([-1.0, 0.0, 1.0]), a[:, None], b[:, None])
        f = values(pts, radii)
        low = np.minimum(low, f.min(axis=1))
        # the vertex's offset from the middle point, in differences to it (both >= 0 when
        # it is the lowest), which keeps the offset within half the larger spacing
        d0, d2 = pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 1]
        g0, g2 = f[:, 0] - f[:, 1], f[:, 2] - f[:, 1]
        den = 2.0 * (g0 * d2 + g2 * d0)
        convex = (g0 >= 0.0) & (g2 >= 0.0) & (den > 0.0)
        vertex = x + (g0 * d2 * d2 - g2 * d0 * d0) / np.where(convex, den, 1.0)
        lowest = pts[np.arange(len(radii)), np.argmin(f, axis=1)]
        x_new = np.where(convex, np.clip(vertex, a, b), lowest)
        # h stays only while x walks to a lower neighbour; an x at the end of its bracket
        # with no vertex to go to would otherwise never move again
        h = np.where(convex | (x_new == x), np.maximum(h / 8.0, 2.0 * np.abs(x_new - x)), h)
        x = x_new
    return low


def _minorant_fn(pieces):
    # Cauchy-Schwarz minorant of the Hessian's smallest eigenvalue
    n0, n1, n2 = np.einsum("kne,kne->kn", pieces, pieces.conj()).real
    return n1 - np.sqrt(n0) * np.sqrt(n2)  # n0 * n2 overflows on circles far past the radius


def _min_eig_fn(pieces):
    # exact smallest eigenvalue of the Hessian quadratic form over phases
    rs, r1s, r2s = pieces
    curvature = np.einsum("ne,ne->n", r1s, r1s.conj()).real
    return curvature - np.abs(np.einsum("ne,ne->n", rs.conj(), r2s))


def radius_tight(op, xi0, s0, rho=RHO, angular_samples=48):
    """Radius over which the monotonicity minorant keeps its margin.

    Numerically solves the implicit inequality

        min_{|xi - xi0| = r, xi in H+} ||R'(xi) s0||^2
            - ||R(xi) s0|| ||R''(xi) s0||  >=  rho ||R'(xi0) s0||^2

    for the largest radius. A ladder of radii grows geometrically (by
    ``TIGHT_GROWTH`` per rung) from the loose radius, inside which the
    inequality is certified analytically, up to ``RADIUS_CAP / tau_s`` or
    the largest circle the residual kernel can evaluate. One circle search
    covers the ladder up to its first failing rung: its angular grid runs in
    chunks of ``LADDER_CHUNK`` rungs and stops after the first chunk with a
    rung that the grid already fails, and the refinement rounds run on the
    rungs up to that one; the rungs it skips come after a failure and cannot
    change the radius. Each further search refines the bracket at the first
    failing rung. It evaluates the interior points that split
    the bracket into ``TIGHT_SPLIT`` equal parts, and with them the
    regula-falsi estimate ``est`` from the endpoints' margins and ``est +-
    width TIGHT_SPLIT^-k`` for k = 1..7, all inside the open bracket; it
    keeps the last passing and the first failing radius with their margins.
    The split alone shrinks the bracket ``TIGHT_SPLIT``-fold per search; the
    cluster usually pins the root to 1e-12 in three searches. The endpoints
    are never evaluated again. Much sharper than the envelope-based radii
    because the residual norms are evaluated rather than bounded.
    """
    r1, _, _ = _curvature_numbers(op, xi0, s0)
    target = rho * r1**2
    # a circle's highest point, Im xi0 + r, stays inside the kernel's exponent guard with
    # room for the rounding of the points on it
    reach_hz = (1.0 - 1e-9) * EXP_GUARD / op.t_max - float(np.imag(xi0))
    cap_hz = min(RADIUS_CAP / op.tau_s, reach_hz)

    def margin(radii):
        return _circle_eval(op, xi0, s0, radii, angular_samples, _minorant_fn) - target

    ladder = [radius_loose(op, xi0, s0, rho)]
    while ladder[-1] < cap_hz:
        ladder.append(min(TIGHT_GROWTH * ladder[-1], cap_hz))
    # the ladder's search stops at its first failing rung; no later rung can change the radius
    margins = _circle_eval(op, xi0, s0, ladder, angular_samples, _minorant_fn, stop_below=target)
    margins -= target
    radii = np.array(ladder[: len(margins)])
    fails = np.flatnonzero(margins < 0.0)
    if len(fails) == 0:
        raise NonBracketed(f"condition holds up to the search cap {cap_hz:.3e} Hz")
    if fails[0] == 0:  # discretization slack at the seed
        return ladder[0]
    k = fails[0]
    while True:
        lo, hi = radii[k - 1 : k + 1]
        m_lo, m_hi = map(float, margins[k - 1 : k + 1])  # Python floats: inf / inf is a quiet NaN
        if hi - lo <= 1e-12 * max(1.0, hi):
            return float(lo)
        est = lo + (hi - lo) * (m_lo / (m_lo - m_hi))  # regula falsi
        offsets = (hi - lo) * TIGHT_SPLIT ** -np.arange(1.0, 8.0)
        split = np.linspace(lo, hi, TIGHT_SPLIT + 1)[1:-1]
        inner = np.concatenate((split, est + np.r_[0.0, offsets, -offsets]))
        # only the interior is evaluated: batch rounding could flip an endpoint's sign near zero;
        # a NaN estimate leaves the split points alone
        inner = np.unique(inner[(inner > lo) & (inner < hi)])
        radii = np.concatenate(([lo], inner, [hi]))
        margins = np.concatenate(([m_lo], margin(inner), [m_hi]))
        k = 1 + np.argmax(margins[1:] < 0.0)  # the first failing radius; hi if none inside


def step_bound(rho):
    """Normalized fixed-step limit rho / (2 + rho) for certified descent."""
    if not 0.0 < rho <= 1.0:
        raise DomainError(f"rho must lie in (0, 1], got {rho}")
    return rho / (2.0 + rho)


def certified_step(op, xi_ref, s_ref, rho):
    """Absolute step per voxel: 0.9 * step_bound(rho) / L with L = (2+rho) ||R'(xi) s||^2.

    The certified bound is stated in units where the curvature scale
    ``||R'(xi0) s0||^2`` multiplies the objective; the Lipschitz estimate
    converts it into an absolute step. A batch of voxels (``xi_ref`` of
    shape (n,), ``s_ref`` of shape (n, n_e)) gets one step per voxel, in
    the shape of ``xi_ref``, and an empty batch none; a voxel with zero
    curvature has no step of its own and takes the batch's smallest, and
    only a nonempty batch without curvature raises
    :class:`DegenerateCurvature`.
    """
    _check_guard(op, xi_ref, square=True)
    _, r1s = residual_pieces(op, xi_ref, s_ref, 1)
    curvature = np.sum(np.abs(r1s) ** 2, axis=1).reshape(np.shape(xi_ref))
    largest = float(np.max(curvature, initial=0.0))
    if largest == 0.0 and curvature.size:
        raise DegenerateCurvature("cannot scale the certified step: zero curvature")
    return 0.9 * step_bound(rho) / ((2.0 + rho) * np.where(curvature > 0.0, curvature, largest))


@dataclass(frozen=True)
class FlowConfig:
    """Fixed-step flow configuration.

    ``step`` is the absolute step size; leave it None and set
    ``certified=True`` to derive it from the curvature at the initial
    iterate (exactly one of the two is given): each support voxel's
    :func:`certified_step`, the voxel's own in the single-voxel flows, and
    in the image driver the smallest step over the support (and the
    projection) in an iteration whose steps leave C_phi. ``max_iters >= 0``
    caps the steps. Every driver stops once each voxel's real-chart field
    gradient is at most ``grad_tol ||y(v)||^2``: the gradient scales with
    the squared signal, so a rescaled signal stops at the same iterate.
    ``keep_trajectory`` records every iterate. The certified step takes the
    curvature margin ``RHO``. The driver picks the step rule, not the
    config: :func:`csemri.imaging.projected_descent` takes restarted
    per-voxel FISTA steps on an image with held signals, and the plain step,
    whose contraction the single-voxel certificates state, everywhere else.
    A step that is not positive and finite, a ``max_iters`` that is not a
    nonnegative integer and a ``grad_tol`` that is not a nonnegative number
    raise :class:`DomainError`.
    """

    step: float | None = None
    max_iters: int = 100_000
    grad_tol: float = 1e-12
    certified: bool = False
    keep_trajectory: bool = False

    def __post_init__(self):
        if self.step is not None and not 0.0 < self.step < inf:  # NaN fails too
            raise DomainError(f"step must be positive and finite, got {self.step}")
        if not (isinstance(self.max_iters, Integral) and self.max_iters >= 0):
            raise DomainError(f"max_iters must be a nonnegative integer, got {self.max_iters!r}")
        if not (isinstance(self.grad_tol, Real) and self.grad_tol >= 0.0):  # NaN fails too
            raise DomainError(f"grad_tol must be a nonnegative number, got {self.grad_tol!r}")
        if (self.step is None) != bool(self.certified):
            raise DomainError("give exactly one of an absolute step and certified mode")


@dataclass(frozen=True)
class RecoveryResult:
    xi_hat: complex
    c_hat: np.ndarray
    iterations: int
    final_grad_norm: float
    converged: bool
    trajectory: tuple[complex, ...] | None = None
    s_hat: np.ndarray | None = None
    branch: str | None = None


def wirtinger_flow(op, s0, xi_init, cfg):
    """Fixed-step descent xi <- xi - alpha * 2 conj(d_xi f0), clamped to the
    closed upper half-plane: :func:`constrained_flow` with ``delta = 0``."""
    return constrained_flow(op, s0, 0.0, xi_init, cfg)


def constrained_flow(op, y, delta, xi_init, cfg, epsilon=0.0):
    """Projected joint descent of f(xi, s) (+ epsilon ||s||^2) over the ball
    ||y - s|| <= delta.

    :func:`csemri.imaging.projected_descent` on a batch of one, with its
    stopping rule (``|grad| <= cfg.grad_tol ||y||^2``), trajectory and
    verdict: simultaneous steps in both Wirtinger blocks, the radial
    projection of ``s`` and the clamp of ``xi`` to the closed upper
    half-plane, with one exponential per iteration. With ``delta = 0`` the
    ball is the point ``y``: the signal is held there, its gradient is never
    formed, and the loop is plain Wirtinger flow on ``f0``. A voxel whose
    ball holds 0 (``0 < ||y|| <= delta``, or ``y = 0``) is off the support,
    as in the image driver: ``s = 0`` gives ``f = 0`` for every field, so
    the flow returns ``s_hat = 0`` and ``xi_init`` after 0 iterations on the
    zero branch. With the ridge
    ``epsilon > 0`` a converged signal either vanishes or lies on the ball's
    boundary, and ``branch`` records which of the two it is. A start that is not
    a scalar or a signal that is not one voxel's ``(n_e,)`` raises
    :class:`DimensionError`, and a negative or NaN ``delta`` or ``epsilon``
    and a non-finite start or signal :class:`DomainError`.
    """
    from .imaging import projected_descent  # imaging imports solver

    if np.ndim(xi_init) != 0:
        raise DimensionError(f"the start must be a scalar, got shape {np.shape(xi_init)}")
    run = projected_descent(op, [xi_init], [y], delta, cfg, None, epsilon)
    xi, s = complex(run.xi_map[0]), run.s_map[0]
    s_norm = float(np.linalg.norm(s))
    boundary_gap = abs(float(np.linalg.norm(y - s)) - delta)
    return RecoveryResult(
        xi_hat=xi,
        c_hat=run.c_map[0],
        iterations=run.iterations,
        final_grad_norm=run.final_grad_norm,
        converged=run.converged,
        trajectory=None if run.trajectory is None else tuple(complex(x[0]) for x in run.trajectory),
        s_hat=s,
        branch="zero" if s_norm <= boundary_gap else "boundary",
    )


def curvature_profile(op, xi0, s0, radii, angular_samples=64):
    """Worst-case curvature quotient Q(r) over circles |xi - xi0| = r.

    Q is the smallest eigenvalue of the Wirtinger Hessian quadratic form,

        (||R'(xi) s0||^2 - |<s0, R(xi*) R''(xi) s0>|) / ||R'(xi0) s0||^2,

    minimized over the circle intersected with the upper half-plane (an
    angular grid refined by parabolic interpolation around the best angle:
    12 kernel calls for any number of radii, one of them at ``xi0``). Q(0)
    is one by construction and recovery degrades as Q falls toward zero.
    ``angular_samples`` below 1 and a negative or non-finite radius raise
    :class:`DomainError`, and an ``xi0`` past ``tau_s |Im xi0| = 700``, where
    the squared residual overflows, :class:`OverflowRisk`.
    """
    _check_guard(op, xi0, square=True)
    s0 = np.asarray(s0, dtype=complex)
    _, r1s0 = residual_pieces(op, xi0, s0, 1)
    curv0 = float(np.vdot(r1s0, r1s0).real)
    if curv0 == 0.0:
        raise DegenerateCurvature("zero curvature at the reference parameter")
    q = _circle_eval(op, xi0, s0, radii, angular_samples, _min_eig_fn) / curv0
    return [(float(r), float(qr)) for r, qr in zip(radii, q)]


def radius_empirical_from_profile(q_profile, level=0.0):
    """Smallest radius with Q <= level, linearly interpolated; inf if none."""
    prev_r, prev_q = None, None
    for r, q in q_profile:
        if q <= level:
            if prev_r is None:
                return float(r)
            return float(prev_r + (r - prev_r) * (prev_q - level) / (prev_q - q))
        prev_r, prev_q = r, q
    return inf
