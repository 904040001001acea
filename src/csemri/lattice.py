"""Identifiability analysis: solution lattice and the zero set of Delta(eta).

Two fieldmap values ``xi`` and ``xi + eta`` explain the same signal exactly
when the stacked matrix ``Delta(eta) = [W(eta) Phi, Phi]`` has a kernel
vector of the right structure. For commensurable echo times every diagonal
entry of ``W(eta)`` is an integer power of ``z = exp(2*pi*i*eta*t_max/q)``,
so every ``2 n_s x 2 n_s`` minor of ``Delta`` is a polynomial in ``z``. Every
zero of ``Delta`` is a root of each minor, so the roots of one minor, found
as companion-matrix eigenvalues, are the candidates, and a polish of
``sigma_min`` plus a kernel diagnosis keep the zeros among them; no dense
scan is needed.

Kernel structure at a zero decides what can go wrong there:

* every kernel vector of the form ``(c, -c)``: any signal-consistent
  solution at that shift keeps the true concentrations (exact recovery);
* a full ``n_s``-dimensional kernel otherwise: ``W(-eta)`` maps
  ``range(Phi)`` to itself and its eigendecomposition produces a basis and
  unit phases that generate swapped concentrations for generic ``c``;
* a lower-dimensional kernel otherwise: only concentrations inside a
  measure-zero subspace admit a swapped partner, read off the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, inf, lcm

import numpy as np

from .errors import DimensionError, PolynomialDegreeLimit, SpecError
from .species import weighting_diag

__all__ = [
    "EXACT_RECOVERY",
    "SWAP_RISK",
    "RationalEchoStructure",
    "SolutionLattice",
    "DeltaZero",
    "DeltaZeroSet",
    "rationalize_echoes",
    "fieldmap_lattice",
    "delta_matrix",
    "delta_zero_set",
    "swap_concentrations",
    "local_identifiability_certificate",
    "sigma_min_profile",
    "weighting_error_profile",
]

EXACT_RECOVERY = "ExactRecovery"
SWAP_RISK = "SwapRisk"

# guards and merge radii of the zero-set search
MAX_DEGREE = 10**4  # degree of the determinant polynomial in z
MAX_PERIODIC_IMAGES = 10**5  # W periods that one search band may span
# the companion eigenvalues of an m-fold root scatter like eps**(1/m) around it:
# roots closer than this radius are one root, and the modulus filter sits well
# above the scatter of a double root; the polish and sigma_min classification
# drop impostors, and eta = 0 is a candidate whatever its roots' scatter
CLUSTER_RADIUS_HZ = 1e-6
UNIT_TOL = 1e-5
EIG_CLUSTER_TOL = 1e-8  # swap-map eigenvalues closer than this share one basis block
EXACT_TOL = 1e-6  # kernel mixing and invariance below this count as exact
DENOM_LIMIT = 10**4  # largest denominator of a rationalized echo-time ratio
RATIO_TOL = 1e-12  # echo ratios this close to their fractions are commensurable
KERNEL_TOL = 1e-8  # singular values of Delta below this times sigma_ref span its kernel
SUSPECT_TOL = 1e-8  # relative least-squares residual that marks a pair as suspect


@dataclass(frozen=True)
class RationalEchoStructure:
    """Rationalization t_k/t_max = p_k/q_k of every echo time.

    ``denominator`` is ``lcm(q_k)``, the least denominator common to every
    ratio, so ``W`` repeats with period ``denominator / t_max``; it is 0
    when the echoes are incommensurable.
    """

    t_max: float
    fractions: tuple[tuple[int, int], ...]
    denominator: int
    commensurable: bool


@dataclass(frozen=True)
class SolutionLattice:
    """Spacing of the set of signal-preserving real fieldmap shifts."""

    period_hz: float

    @property
    def trivial(self):
        """True when the only signal-preserving shift is zero."""
        return not np.isfinite(self.period_hz)


def rationalize_echoes(echoes):
    """Rationalize the ratio of every echo time to the last.

    Each ratio ``t_k/t_max`` is replaced by its best rational approximation
    with denominator at most ``DENOM_LIMIT`` (continued-fraction based).
    The structure is commensurable only when every approximation is within
    ``RATIO_TOL`` of the ratio; echo tables quoted at scanner granularity are
    exact rationals well inside that budget, while genuinely irrational
    ratios are flagged rather than rounded.
    """
    times = np.asarray(echoes.times_s, dtype=float)
    t_max = float(times.max())

    fractions = []
    commensurable = True
    for t in times:
        ratio = t / t_max
        frac = Fraction(ratio).limit_denominator(DENOM_LIMIT)
        if abs(float(frac) - ratio) > RATIO_TOL:
            commensurable = False
        fractions.append((frac.numerator, frac.denominator))

    return RationalEchoStructure(
        t_max=t_max,
        fractions=tuple(fractions),
        denominator=lcm(*(qk for _, qk in fractions)) if commensurable else 0,
        commensurable=commensurable,
    )


def fieldmap_lattice(structure):
    """Lattice of shifts ``eta`` with ``exp(2*pi*i*eta*t_k) = 1`` at every echo."""
    if not structure.commensurable:
        return SolutionLattice(period_hz=inf)
    return SolutionLattice(period_hz=structure.denominator / structure.t_max)


def delta_matrix(eta, model):
    """The ``n_e x 2 n_s`` matrix ``[W(eta) Phi, Phi]`` for each entry of ``eta``:
    a scalar gives one matrix, an array of shape ``S`` a stack ``S + (n_e, 2 n_s)``."""
    w = weighting_diag(eta, model.times)
    out = np.empty(w.shape + (2 * model.n_s,), dtype=complex)
    out[..., :model.n_s] = w[..., None] * model.phi
    out[..., model.n_s:] = model.phi
    return out


@dataclass(frozen=True)
class DeltaZero:
    """One element of the zero set with its kernel diagnosis."""

    eta_hz: float
    sigma_min: float
    kernel_dim: int
    classification: str
    swap_phases: tuple[complex, ...] | None = None
    swap_basis: np.ndarray | None = None
    kernel: np.ndarray | None = None

    @property
    def exact_recovery(self):
        return self.classification == EXACT_RECOVERY


@dataclass(frozen=True)
class DeltaZeroSet:
    zeros: tuple[DeltaZero, ...]
    w_period_hz: float
    sigma_ref: float

    def etas(self):
        return np.array([z.eta_hz for z in self.zeros])


def _minor_polynomial(phi, rows, exponents):
    """det of the [W Phi, Phi] minor on ``rows`` as {exponent: coefficient}.

    Laplace expansion by complementary minors along the first n_s columns;
    the W block contributes z**(sum of row exponents) times a Phi minor.
    """
    n_s = phi.shape[1]
    base = n_s * (n_s + 1) // 2
    coeffs: dict[int, complex] = {}
    for subset in combinations(range(len(rows)), n_s):
        comp = tuple(i for i in range(len(rows)) if i not in subset)
        sign = -1 if ((sum(subset) + len(subset) + base) % 2) else 1
        det_a = np.linalg.det(phi[[rows[i] for i in subset], :])
        det_b = np.linalg.det(phi[[rows[i] for i in comp], :])
        e = int(sum(exponents[rows[i]] for i in subset))
        coeffs[e] = coeffs.get(e, 0.0) + sign * det_a * det_b
    return coeffs


def _unit_circle_roots(coeffs):
    """Unit-modulus roots of a sparse-coefficient polynomial in z."""
    exps = sorted(coeffs)
    lo, hi = exps[0], exps[-1]
    if hi == lo:
        return np.empty(0, dtype=complex)  # monomial: only z = 0
    g = 0
    for e in exps:
        g = gcd(g, e - lo)
    degree = (hi - lo) // g
    if degree > MAX_DEGREE:
        raise PolynomialDegreeLimit(
            f"determinant polynomial degree {degree} exceeds the guard {MAX_DEGREE}"
        )
    dense = np.zeros(degree + 1, dtype=complex)
    for e, c in coeffs.items():
        dense[degree - (e - lo) // g] = c  # np.roots wants highest power first
    scale = np.max(np.abs(dense))
    roots_w = np.roots(dense / scale)
    # kept as found: _polish_zero refines the zeros that survive to full precision
    roots_w = roots_w[np.abs(np.abs(roots_w) - 1.0) < UNIT_TOL]
    if g == 1:
        return roots_w
    kth = np.exp(2j * np.pi * np.arange(g) / g)
    return (roots_w[:, None] ** (1.0 / g) * kth[None, :]).ravel()


def golden_section(f, a, b, iters):
    """Golden-section search for a minimum of ``f`` on each interval ``[a[k], b[k]]`` in ``iters``
    lockstep steps, each one call of ``f`` on an array of points; returns the final ``a, b`` and
    the smaller value at their interior points."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        left = fc <= fd  # keep [a, d] and move d to c, else keep [c, b] and move c to d
        a, b = np.where(left, a, c), np.where(left, d, b)
        x = np.where(left, b - invphi * (b - a), a + invphi * (b - a))
        fx = f(x)
        c, d = np.where(left, x, d), np.where(left, c, x)
        fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)
    return a, b, np.minimum(fc, fd)


def _polish_zero(model, etas_hz, half_width_hz):
    """Golden-section refinement of the local minimum of sigma_min(Delta) around each
    entry of ``etas_hz``, all of them in one lockstep search."""
    a, b, _ = golden_section(
        lambda eta: sigma_min_profile(model, eta),
        etas_hz - half_width_hz, etas_hz + half_width_hz, 90,
    )
    return (a + b) / 2.0


def _cluster_angles(values, radius):
    """Merge a 1-D array into the means of its sorted runs with gaps at most ``radius``."""
    if len(values) == 0:
        return values
    values = np.sort(values)
    starts = np.concatenate([[0], np.flatnonzero(np.diff(values) > radius) + 1])
    ends = np.append(starts[1:], len(values))
    means = values[starts]  # a run of one is its own mean
    for k in np.flatnonzero(ends - starts > 1):
        means[k] = values[starts[k]:ends[k]].mean()
    return means


def _orthonormal_eigensystem(matrix):
    """Eigendecomposition with per-eigenvalue-cluster orthonormalization."""
    evals, evecs = np.linalg.eig(matrix)
    order = np.argsort(np.angle(evals))
    evals, evecs = evals[order], evecs[:, order]
    phases = np.empty_like(evals)
    basis = np.empty_like(evecs)
    start = 0
    n = len(evals)
    for i in range(1, n + 1):
        if i == n or abs(evals[i] - evals[start]) > EIG_CLUSTER_TOL:
            block = evecs[:, start:i]
            qblock, _ = np.linalg.qr(block)
            basis[:, start:i] = qblock
            phases[start:i] = evals[start:i]
            start = i
    return phases, basis


def classify_zero(model, eta_hz, sigma_ref):
    """Diagnose the kernel of ``Delta(eta)``; None when there is no kernel."""
    delta = delta_matrix(eta_hz, model)
    _, svals, vh = np.linalg.svd(delta)
    n_s = model.n_s
    svals = np.concatenate([svals, np.zeros(2 * n_s - len(svals))])
    kernel_dim = int(np.sum(svals < KERNEL_TOL * sigma_ref))
    if kernel_dim == 0:
        return None
    kernel = vh.conj().T[:, 2 * n_s - kernel_dim:]
    sigma_min = float(svals[-1])

    mixing = np.linalg.norm(kernel[:n_s] + kernel[n_s:], 2)
    if mixing <= EXACT_TOL:
        return DeltaZero(
            eta_hz=float(eta_hz),
            sigma_min=sigma_min,
            kernel_dim=kernel_dim,
            classification=EXACT_RECOVERY,
            kernel=kernel,
        )

    swap_phases = None
    swap_basis = None
    if kernel_dim == n_s:
        # range(Phi) is invariant under W(-eta); represent that restriction
        # on concentration space and take its eigensystem
        w_minus = weighting_diag(-eta_hz, model.times)
        phi_pinv = np.linalg.pinv(model.phi)
        restricted = phi_pinv @ (w_minus[:, None] * model.phi)
        invariance = np.linalg.norm(
            model.phi @ restricted - w_minus[:, None] * model.phi
        )
        if invariance <= EXACT_TOL * np.linalg.norm(model.phi):
            phases, basis = _orthonormal_eigensystem(restricted)
            swap_phases = tuple(phases)
            swap_basis = basis
    return DeltaZero(
        eta_hz=float(eta_hz),
        sigma_min=sigma_min,
        kernel_dim=kernel_dim,
        classification=SWAP_RISK,
        swap_phases=swap_phases,
        swap_basis=swap_basis,
        kernel=kernel,
    )


def swap_concentrations(zero, c0):
    """Concentrations that alias ``c0`` at the given zero's fieldmap shift.

    Valid for swap zeros carrying a basis: returns
    ``sum_l phase_l <u_l, c0> u_l``, which satisfies
    ``W(eta) Phi c = Phi c0`` for any ``c0``.
    """
    if zero.swap_basis is None or zero.swap_phases is None:
        raise ValueError("zero carries no swap basis; use its kernel directly")
    u = zero.swap_basis
    phases = np.asarray(zero.swap_phases)
    return u @ (phases * (u.conj().T @ np.asarray(c0, dtype=complex)))


def delta_zero_set(model, search_band_hz=(-1000.0, 1000.0)):
    """Zero set of ``sigma_min(Delta(eta))`` inside the search band.

    Requires ``n_e >= 2 n_s`` (below that the kernel is never empty and the
    zero set is the whole line). For incommensurable echoes the set is just
    ``{0}``. A band that spans more than ``MAX_PERIODIC_IMAGES`` W periods
    raises :class:`SpecError` before any search. Otherwise the pipeline runs
    in this order:

    1. roots: the determinant polynomial in ``z`` of the first ``2 n_s``
       rows is solved by companion-matrix eigenvalues and its unit-circle
       roots are mapped back to ``eta`` in one W period; every zero of
       ``Delta`` is among them;
    2. merge: ``eta = 0`` is added (``Delta(0) = [Phi, Phi]`` always has
       the kernel ``(c, -c)``) and candidates within twice the merge
       radius of each other become one;
    3. band prefilter: the golden-section polish moves a candidate by at
       most ``half = 2 * merge_radius + 1e-4``, so only candidates with
       a periodic image within ``half`` of the search band go on;
    4. polish: golden-section refinement of the local minimum of
       ``sigma_min`` around each candidate, all candidates in one lockstep
       search of 90 steps;
    5. classify: every periodic image of a polished zero inside the band
       is diagnosed through its kernel.
    """
    n_e, n_s = model.n_e, model.n_s
    if n_e < 2 * n_s:
        raise DimensionError(
            f"polynomial zero-set search needs n_e >= 2 n_s, got {n_e} < {2 * n_s}"
        )
    sigma_ref = float(np.linalg.svd(delta_matrix(0.0, model), compute_uv=False)[0])
    band_lo, band_hi = float(search_band_hz[0]), float(search_band_hz[1])

    structure = rationalize_echoes(model.echoes)
    w_period = fieldmap_lattice(structure).period_hz  # W(eta + w_period) = W(eta) exactly
    if not structure.commensurable:
        zero = classify_zero(model, 0.0, sigma_ref)
        zeros = (zero,) if (zero is not None and band_lo <= 0.0 <= band_hi) else ()
        return DeltaZeroSet(zeros=zeros, w_period_hz=w_period, sigma_ref=sigma_ref)

    q = structure.denominator
    exponents = [pk * q // qk for pk, qk in structure.fractions]
    if (band_hi - band_lo) / w_period > MAX_PERIODIC_IMAGES:
        raise SpecError(f"search band spans more than {MAX_PERIODIC_IMAGES} W periods")

    # every zero of Delta is a root of each minor, so the first one gives all
    # candidates; eta = 0 is always a zero but its m-fold root at z = 1 can
    # land off the unit circle, so it is a candidate whatever the roots say
    roots = _unit_circle_roots(_minor_polynomial(model.phi, range(2 * n_s), exponents))
    # angles in [0, 2*pi) -> eta in [0, w_period)
    etas = np.mod(np.mod(np.angle(roots), 2 * np.pi) * w_period / (2 * np.pi), w_period)
    etas = np.append(_cluster_angles(etas, CLUSTER_RADIUS_HZ), 0.0)
    # the scattered images of a multiple root merge within a period-scaled
    # radius; polishing sigma_min itself recovers full accuracy afterwards
    merge_radius_hz = max(CLUSTER_RADIUS_HZ, 1e-6 * w_period)
    candidates = _cluster_angles(etas, 2 * merge_radius_hz)

    # a polish moves a candidate by at most ``half``: drop those with no
    # periodic image within ``half`` of the band before paying for it
    half = 2 * merge_radius_hz + 1e-4
    first = candidates + np.ceil((band_lo - half - candidates) / w_period) * w_period
    candidates = candidates[first <= band_hi + half]

    zeros = []
    for eta0 in _polish_zero(model, candidates, half):
        shifts = np.arange(
            np.ceil((band_lo - eta0) / w_period), np.floor((band_hi - eta0) / w_period) + 1
        )
        for m in shifts:
            eta = float(eta0 + m * w_period)
            zero = classify_zero(model, eta, sigma_ref)
            if zero is not None:
                zeros.append(zero)
    zeros.sort(key=lambda z: z.eta_hz)

    dedupe_radius = max(CLUSTER_RADIUS_HZ, 1e-9 * w_period)
    deduped = []
    for z in zeros:
        if deduped and abs(z.eta_hz - deduped[-1].eta_hz) <= dedupe_radius:
            continue
        deduped.append(z)
    return DeltaZeroSet(zeros=tuple(deduped), w_period_hz=w_period, sigma_ref=sigma_ref)


@dataclass(frozen=True)
class IdentifiabilityReport:
    residual_norm: float
    suspect: bool
    reason: str = ""


def local_identifiability_certificate(xi0, c0, model):
    """Necessary-condition check for a parameter pair to be ambiguous.

    In the regime ``n_s <= n_e <= 2 n_s`` a non-locally-identifiable pair
    must satisfy ``T s0 = W(xi0) Phi c`` for some concentrations ``c``; a
    tiny least-squares residual therefore marks the pair as suspect. The
    condition is only necessary, so ``suspect=True`` is never a proof.
    """
    if model.n_e > 2 * model.n_s:
        return IdentifiabilityReport(
            residual_norm=float("nan"),
            suspect=False,
            reason=f"regime guard: n_e={model.n_e} > 2 n_s={2 * model.n_s}",
        )
    c0 = np.asarray(c0, dtype=complex)
    w0 = weighting_diag(xi0, model.times)
    s0 = w0 * (model.phi @ c0)
    target = model.times * s0
    design = w0[:, None] * model.phi
    coeffs = np.linalg.lstsq(design, target, rcond=None)[0]
    residual = float(np.linalg.norm(target - design @ coeffs))
    return IdentifiabilityReport(
        residual_norm=residual,
        suspect=bool(residual < SUSPECT_TOL * max(np.linalg.norm(target), 1e-300)),
    )


def sigma_min_profile(model, eta_hz_grid):
    """sigma_min(Delta(eta)) over a real grid, each ``|eta|`` computed once, by one
    batched SVD of the :func:`delta_matrix` stack.

    ``Delta(-eta) = W(-eta) Delta(eta) P``, where ``P`` swaps the two column
    blocks and ``W(-eta)`` is unitary for real ``eta``, so ``Delta(-eta)`` and
    ``Delta(eta)`` have the same singular values.
    """
    eta = np.asarray(eta_hz_grid, dtype=float)
    magnitudes, index = np.unique(np.abs(eta), return_inverse=True)
    sigma = np.linalg.svd(delta_matrix(magnitudes, model), compute_uv=False)[..., -1]
    return sigma[index].reshape(eta.shape)


def weighting_error_profile(phi_hz_grid, s_tilde, times_s):
    """|| (I - W(phi)) s_tilde ||_2 over a real fieldmap grid, vectorized."""
    grid = np.asarray(phi_hz_grid, dtype=float)
    t = np.asarray(times_s, dtype=float)
    mag2 = np.abs(np.asarray(s_tilde)) ** 2
    # |1 - exp(2 pi i phi t)|^2 = 2 (1 - cos(2 pi phi t))
    err2 = (2.0 * (1.0 - np.cos(2 * np.pi * np.outer(grid, t)))) @ mag2
    return np.sqrt(np.maximum(err2, 0.0))
