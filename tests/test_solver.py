"""Lambert W, beta envelope, certified radii, and the recovery flows."""

import functools
import os
import subprocess
import sys
from math import exp, expm1
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import csemri
from csemri import solver
from csemri.errors import DegenerateCurvature, DomainError, NonBracketed, OverflowRisk
from csemri.lattice import fieldmap_lattice, golden_section, rationalize_echoes
from csemri.phantom import default_phantom_spec, generate_phantom
from csemri.residual import EXP_GUARD, make_residual_operator, residual_pieces, residual_value
from csemri.solver import (
    FlowConfig,
    certified_step,
    constrained_flow,
    curvature_profile,
    gamma_plus,
    lambert_w0,
    radius_empirical_from_profile,
    radius_lambert,
    radius_loose,
    radius_tight,
    step_bound,
    wirtinger_flow,
)
from csemri.species import EchoSpec, build_model, load_species, signal

RNG = np.random.default_rng(424242)

HZ_PER_PPM = 3.0 * 42.57747892
WATER = load_species("water")
FAT6 = load_species("fat6", hz_per_ppm=HZ_PER_PPM)
SILICONE = load_species("silicone", hz_per_ppm=HZ_PER_PPM)
MODEL = build_model([WATER, FAT6], EchoSpec.uniform_ms(1.238, 0.986, 6))
OP = make_residual_operator(MODEL)


def random_complex(shape, rng=RNG):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_voxel(rng=RNG, re=100.0, im=(1.0, 50.0)):
    xi0 = complex(rng.uniform(-re, re), rng.uniform(*im))
    c0 = random_complex(2, rng)
    return xi0, c0, signal(xi0, c0, MODEL)


def beta_integral(a, b):
    """The envelope beta(a, b) = integral_0^1 exp(|a + theta b|) dtheta, piecewise exactly."""
    a = float(a)
    b = float(b)
    if b == 0.0:
        return exp(abs(a))
    if a >= 0.0 and a + b >= 0.0:
        return exp(a) * expm1(b) / b
    if a <= 0.0 and a + b <= 0.0:
        return exp(-a) * expm1(-b) / (-b)
    # sign change at theta = -a/b: both segments integrate to positive area
    return (expm1(abs(a)) + expm1(abs(a + b))) / abs(b)


class TestLambertW:
    def test_fixed_points(self):
        assert lambert_w0(0.0) == 0.0
        assert lambert_w0(np.e) == pytest.approx(1.0, abs=1e-14)

    def test_residual_small(self):
        # bisection oracle
        for x in (2.5, 0.1, 17.0, -0.2, -1 / np.e + 1e-6):
            w = lambert_w0(x)
            assert abs(w * np.exp(w) - x) <= 1e-12 * max(1.0, abs(x))
            lo, hi = -1.0, max(1.0, x)
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if mid * np.exp(mid) < x:
                    lo = mid
                else:
                    hi = mid
            assert w == pytest.approx(0.5 * (lo + hi), abs=1e-10)
            assert w >= -1.0

    def test_domain_error(self):
        with pytest.raises(DomainError):
            lambert_w0(-1.0)

    def test_branch_point(self):
        assert lambert_w0(-1 / np.e) == -1.0

    def test_small_argument_matches_series(self):
        # W(x) = x - x^2 + 3/2 x^3 - ..., so the first omitted term is 8/3 x^4
        for x in (1e-9, 1e-7):
            series = x - x**2 + 1.5 * x**3
            assert abs(lambert_w0(x) - series) <= 1e-15 * series


class TestBetaIntegral:
    def test_trivial_values(self):
        assert beta_integral(0.0, 0.0) == 1.0
        assert beta_integral(1.0, 0.0) == pytest.approx(np.e)

    @pytest.mark.parametrize(
        "a,b",
        [(-1.0, 2.0), (2.0, -5.0), (-3.0, -1.0), (0.5, 0.3), (-0.2, 0.1), (4.0, 1e-9)],
    )
    def test_against_quadrature(self, a, b):
        oracle = quad(lambda th: np.exp(abs(a + th * b)), 0.0, 1.0, epsabs=1e-13)[0]
        assert beta_integral(a, b) == pytest.approx(oracle, abs=1e-10)


class TestGammaPlus:
    def test_vanishes_as_rho_tends_to_one(self):
        xi0, _, s0 = random_voxel()
        vals = [gamma_plus(OP, xi0, s0, rho) for rho in (0.5, 0.9, 0.99, 0.999)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-1 * vals[0]

    def test_monotone_decreasing_in_rho(self):
        xi0, _, s0 = random_voxel()
        rhos = np.linspace(0.05, 0.95, 10)
        vals = [gamma_plus(OP, xi0, s0, r) for r in rhos]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_matches_polynomial_root_oracle(self):
        for _ in range(10):
            xi0, _, s0 = random_voxel()
            rho = RNG.uniform(0.1, 0.9)
            g = gamma_plus(OP, xi0, s0, rho)
            _, r1s, r2s = residual_pieces(OP, xi0, s0, 2)
            r1, r2 = np.linalg.norm(r1s), np.linalg.norm(r2s)
            tau = OP.tau_ne
            roots = np.roots([1.0, r2 / (2 * tau**2.5), -(1 - rho) * r1**2 / (2 * tau**3)])
            oracle = roots[roots > 0]
            assert len(oracle) == 1
            assert g == pytest.approx(float(oracle[0]), rel=1e-12)

    def test_degenerate_curvature(self):
        with pytest.raises(DegenerateCurvature):
            gamma_plus(OP, 5.0 + 1j, np.zeros(6), 0.5)


class TestRadii:
    def test_signal_rescaling_leaves_radii_unchanged(self):
        xi0, _, s0 = random_voxel()
        for fn in (radius_lambert, radius_loose, radius_tight):
            assert fn(OP, xi0, s0, 0.5) == pytest.approx(fn(OP, xi0, 2.0 * s0, 0.5), rel=1e-9)

    def test_lambert_radius_shrinks_as_rho_tends_to_one(self):
        xi0, _, s0 = random_voxel()
        r9 = radius_lambert(OP, xi0, s0, 0.999)
        r5 = radius_lambert(OP, xi0, s0, 0.5)
        assert r9 < 1e-2 * r5

    def test_ordering_on_random_instances(self):
        for _ in range(100):
            xi0, _, s0 = random_voxel()
            rho = RNG.uniform(0.2, 0.8)
            rl = radius_lambert(OP, xi0, s0, rho)
            ro = radius_loose(OP, xi0, s0, rho)
            rt = radius_tight(OP, xi0, s0, rho, angular_samples=24)
            assert 0.0 < rl <= ro <= rt

    def test_loose_solves_its_equation(self):
        # re-evaluation oracle: the returned radius satisfies the implicit
        # equality to tight tolerance
        xi0, _, s0 = random_voxel()
        rho = 0.5
        r = radius_loose(OP, xi0, s0, rho)
        g = gamma_plus(OP, xi0, s0, rho)
        budget = g * g / (2.0 * np.linalg.norm(s0) ** 2)
        lhs = r * beta_integral(OP.tau_s * xi0.imag, OP.tau_s * r)
        assert abs(lhs - budget) < 1e-10 * budget

    def test_loose_solves_its_equation_at_small_radii(self):
        # an absolute root tolerance of 1e-14 Hz is up to 3e-10 relative here
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(100):
            xi0, _, s0 = random_voxel(rng)
            rho = 1.0 - 10.0 ** rng.uniform(-3.0, -0.3)
            r = radius_loose(OP, xi0, s0, rho)
            if r >= 1e-3:
                continue
            checked += 1
            g = gamma_plus(OP, xi0, s0, rho)
            budget = g * g / (2.0 * np.linalg.norm(s0) ** 2)
            lhs = r * beta_integral(OP.tau_s * xi0.imag, OP.tau_s * r)
            assert abs(lhs - budget) <= 1e-13 * budget
        assert checked >= 50

    def test_tight_satisfies_its_implicit_equality(self):
        # re-evaluation oracle: at the returned radius the circle-min margin
        # sits on the rho-threshold within the final refinement bracket
        from csemri.solver import _circle_eval, _minorant_fn

        xi0, _, s0 = random_voxel()
        rho = 0.5
        rt = radius_tight(OP, xi0, s0, rho, angular_samples=24)
        _, r1s = residual_pieces(OP, xi0, s0, 1)
        target = rho * np.linalg.norm(r1s) ** 2
        margin = _circle_eval(OP, xi0, s0, rt, 24, _minorant_fn) - target
        assert 0.0 <= margin < 1e-10 * target

    def test_tight_refines_its_bracket_in_batches(self, monkeypatch):
        # a certify voxel: one circle search for the ladder, three for the bracket
        model = build_model([WATER, FAT6, SILICONE], EchoSpec.uniform_ms(1.238, 0.986, 6))
        truth = generate_phantom(default_phantom_spec(width=32, height=32), model)
        i, j = np.argwhere(truth.mask)[0]
        calls = []
        circle_eval = solver._circle_eval

        def counted(*args, **kwargs):
            calls.append(args[3])
            return circle_eval(*args, **kwargs)

        monkeypatch.setattr(solver, "_circle_eval", counted)
        rt = radius_tight(make_residual_operator(model), truth.xi0_map[i, j], truth.grid.signal[i, j])
        assert rt > 0.0 and len(calls) <= 5

    @pytest.mark.parametrize("drop", [
        lambda x: np.where(x < 1.0, 1.0, -1e6),
        lambda x: 1.0 - np.minimum(x, 2.0) ** 60,
        lambda x: np.where(x < 1.0, np.inf, -1.0),  # no finite regula-falsi estimate
    ], ids=["step", "power", "infinite"])
    def test_tight_survives_a_poor_secant_guess(self, monkeypatch, drop):
        # a margin flat up to a known root and then falling sharply puts the
        # regula-falsi estimate at the bracket's passing end every round
        xi0, _, s0 = random_voxel(np.random.default_rng(12))
        _, r1s = residual_pieces(OP, xi0, s0, 1)
        target = 0.5 * np.linalg.norm(r1s) ** 2
        root = 3.7 * radius_loose(OP, xi0, s0, 0.5)
        calls = []

        def synthetic(op, xi0, s0, radii, angular_samples, fn, *, stop_below=None):
            radii = np.atleast_1d(np.asarray(radii, dtype=float))
            calls.append(radii)
            return target + drop(radii / root)

        monkeypatch.setattr(solver, "_circle_eval", synthetic)
        rt = radius_tight(OP, xi0, s0, 0.5)
        assert abs(rt - root) <= 1e-12 * max(1.0, root)
        assert len(calls) <= 1 + 10  # the ladder and the uniform split's rounds

    def test_tight_agrees_with_batch_of_one_bisection(self):
        # oracle: the ladder and a bisection, one radius per circle search
        from csemri.solver import _circle_eval, _minorant_fn

        rng = np.random.default_rng(17)
        for _ in range(10):
            xi0, _, s0 = random_voxel(rng)
            rho = rng.uniform(0.2, 0.8)
            _, r1s = residual_pieces(OP, xi0, s0, 1)
            target = rho * np.linalg.norm(r1s) ** 2

            def passes(r):
                return _circle_eval(OP, xi0, s0, r, 24, _minorant_fn)[0] >= target

            lo = hi = radius_loose(OP, xi0, s0, rho)
            while passes(hi):
                lo, hi = hi, solver.TIGHT_GROWTH * hi
            while hi - lo > 1e-12 * max(1.0, hi):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if passes(mid) else (lo, mid)
            rt = radius_tight(OP, xi0, s0, rho, angular_samples=24)
            assert rt == pytest.approx(lo, rel=1e-11)

    @pytest.mark.parametrize("angular_samples", [24, 48])
    def test_tight_equals_the_whole_ladder_search(self, monkeypatch, angular_samples):
        # oracle: the same radius with every ladder rung searched (the ladder search's
        # stop_below dropped), bit for bit
        rng = np.random.default_rng(23)
        cases = [(OP, *random_voxel(rng)[::2]) for _ in range(20)] + certify_voxels()
        stopped = [radius_tight(op, xi0, s0, 0.5, angular_samples) for op, xi0, s0 in cases]
        circle_eval = solver._circle_eval
        monkeypatch.setattr(solver, "_circle_eval", lambda *args, stop_below=None: circle_eval(*args))
        whole = [radius_tight(op, xi0, s0, 0.5, angular_samples) for op, xi0, s0 in cases]
        assert stopped == whole

    def test_the_ladder_stops_at_its_first_failing_rung(self, monkeypatch):
        # a certify voxel: the grid runs in chunks up to the chunk of the first rung it
        # fails, and only the rungs up to that one get parabolic rounds
        op, xi0, s0 = certify_voxels()[0]
        calls = kernel_calls(monkeypatch)
        ladders = []
        circle_eval = solver._circle_eval

        def spy(*args, stop_below=None):
            start = len(calls)
            found = circle_eval(*args, stop_below=stop_below)
            if stop_below is not None:
                ladders.append((np.asarray(args[3]), stop_below, calls[start:], found))
            return found

        monkeypatch.setattr(solver, "_circle_eval", spy)
        radius_tight(op, xi0, s0, 0.5, angular_samples=48)
        [(ladder, target, made, found)] = ladders
        grid, _ = golden_circle_min(op, xi0, s0, ladder, 48, solver._minorant_fn)
        first = int(np.argmax(grid.min(axis=1) < target))
        assert grid[first].min() < target and first + 1 < len(ladder)
        chunk = solver.LADDER_CHUNK
        n_chunks = first // chunk + 1
        assert len(made) == n_chunks + 10 and len(found) == first + 1
        for k, points in enumerate(made[:n_chunks]):
            rungs = ladder[k * chunk : (k + 1) * chunk]
            assert np.allclose(np.abs(points.reshape(len(rungs), 48) - xi0), rungs[:, None])
        for points in made[n_chunks:]:
            assert np.allclose(np.abs(points.reshape(first + 1, 3) - xi0), ladder[: first + 1, None])

    def test_tight_vs_lambert_gap_is_large(self):
        # the closed-form bound is known to underestimate severely; the
        # numerically solved monotonicity radius sits orders above it
        xi0, _, s0 = random_voxel()
        rl = radius_lambert(OP, xi0, s0, 0.5)
        rt = radius_tight(OP, xi0, s0, 0.5, angular_samples=24)
        assert rt > 10.0 * rl

    def test_search_cap_raises_non_bracketed(self, monkeypatch):
        xi0, _, s0 = random_voxel(np.random.default_rng(31))
        ro = radius_loose(OP, xi0, s0, 0.5)
        rt = radius_tight(OP, xi0, s0, 0.5, angular_samples=24)
        assert rt > 2.0 * solver.TIGHT_GROWTH * ro
        # below the loose radius the envelope budget is never exhausted
        monkeypatch.setattr(solver, "RADIUS_CAP", 0.5 * ro * OP.tau_s)
        with pytest.raises(NonBracketed):
            radius_loose(OP, xi0, s0, 0.5)
        # at the first growth step of the tight search the margin still holds
        monkeypatch.setattr(solver, "RADIUS_CAP", solver.TIGHT_GROWTH * ro * OP.tau_s)
        with pytest.raises(NonBracketed):
            radius_tight(OP, xi0, s0, 0.5, angular_samples=24)

    def test_tight_ladder_to_the_cap_does_not_overflow(self):
        # the ladder's last rung is the search cap, far past the first failure
        xi0, _, s0 = random_voxel(np.random.default_rng(8))
        assert (OP.tau_s * xi0.imag + solver.RADIUS_CAP) / OP.tau_s * OP.times[-1] < EXP_GUARD
        with np.errstate(over="raise", invalid="raise"):
            rt = radius_tight(OP, xi0, s0, 0.5, angular_samples=24)
        assert radius_loose(OP, xi0, s0, 0.5) < rt < solver.RADIUS_CAP / OP.tau_s

    def test_tight_ladder_stops_where_the_kernel_stops(self):
        # a late first echo puts the kernel's exponent guard inside the search cap
        model = build_model([WATER, FAT6], EchoSpec.uniform_ms(4.6, 1.1, 3))
        op = make_residual_operator(model)
        assert EXP_GUARD / op.times[-1] < solver.RADIUS_CAP / op.tau_s
        rng = np.random.default_rng(3)
        xi0 = complex(rng.uniform(-100.0, 100.0), rng.uniform(1.0, 50.0))
        s0 = signal(xi0, random_complex(2, rng), model)
        rt = radius_tight(op, xi0, s0, 0.5, angular_samples=24)
        _, r1s = residual_pieces(op, xi0, s0, 1)
        target = 0.5 * np.linalg.norm(r1s) ** 2
        margin = solver._circle_eval(op, xi0, s0, rt, 24, solver._minorant_fn) - target
        assert 0.0 <= margin < 1e-10 * target

    def test_rejects_lower_half_plane(self):
        _, _, s0 = random_voxel()
        with pytest.raises(DomainError):
            radius_lambert(OP, 10.0 - 5.0j, s0, 0.5)


@functools.lru_cache(maxsize=1)
def _certify_phantom():
    model = build_model([WATER, FAT6, SILICONE], EchoSpec.uniform_ms(1.238, 0.986, 6))
    return make_residual_operator(model), generate_phantom(default_phantom_spec(width=32, height=32), model)


def certify_voxels():
    """The benchmark's certify voxels: every 40th voxel of the 32^2 phantom's mask, as (op, xi0, s0)."""
    op, truth = _certify_phantom()
    voxels = np.argwhere(truth.mask)[::40][:8]
    return [(op, complex(truth.xi0_map[i, j]), truth.grid.signal[i, j]) for i, j in voxels]


def kernel_calls(monkeypatch):
    """The points of every ``residual_pieces`` call made from ``solver``, in call order."""
    calls = []
    pieces = solver.residual_pieces

    def counted(op, xi, s, order):
        calls.append(np.array(xi, dtype=complex))
        return pieces(op, xi, s, order)

    monkeypatch.setattr(solver, "residual_pieces", counted)
    return calls


def golden_circle_min(op, xi0, s0, radii, angular_samples, fn):
    """Oracle: the same angular grid and bracket, refined by 40 lockstep golden-section steps.

    Returns the grid values, one row per radius, and the refined minimum per radius."""
    im0 = xi0.imag
    closed = radii <= im0
    t0 = np.arcsin(-im0 / np.where(closed, np.inf, radii))
    lo = np.where(closed, 0.0, t0)
    hi = np.where(closed, 2.0 * np.pi, np.pi - t0)

    def values(thetas):
        r = radii[:, None] if thetas.ndim == 2 else radii
        xi = xi0 + r * np.exp(1j * thetas)
        return fn(residual_pieces(op, xi.ravel(), s0, 2)).reshape(thetas.shape)

    thetas = np.where(
        closed[:, None],
        np.linspace(lo, hi, angular_samples, endpoint=False, axis=-1),
        np.linspace(lo, hi, angular_samples, axis=-1),
    )
    grid = values(thetas)
    span = (hi - lo) / max(angular_samples - 1, 1)
    best = thetas[np.arange(len(radii)), np.argmin(grid, axis=1)]
    a = np.where(closed, best - span, np.maximum(lo, best - span))  # a closed circle wraps
    b = np.where(closed, best + span, np.minimum(hi, best + span))
    _, _, refined = golden_section(values, a, b, 40)
    return grid, np.minimum(grid.min(axis=1), refined)


class TestCircleSearch:
    def test_a_search_makes_eleven_kernel_calls(self, monkeypatch):
        # one call for the angular grid of every radius, one per parabolic round
        calls = kernel_calls(monkeypatch)
        xi0, _, s0 = random_voxel(np.random.default_rng(6))
        solver._circle_eval(OP, xi0, s0, np.geomspace(1.0, 200.0, 36), 48, solver._minorant_fn)
        assert len(calls) == 11
        # a certify voxel, at the benchmark's radii and angles
        model = build_model([WATER, FAT6, SILICONE], EchoSpec.uniform_ms(1.238, 0.986, 6))
        truth = generate_phantom(default_phantom_spec(width=32, height=32), model)
        i, j = np.argwhere(truth.mask)[0]
        calls.clear()
        curvature_profile(
            make_residual_operator(model), truth.xi0_map[i, j], truth.grid.signal[i, j],
            np.geomspace(0.5, 120.0, 18), angular_samples=16,
        )
        assert len(calls) == 12  # and one for the curvature at the truth

    @pytest.mark.parametrize("fn", [solver._minorant_fn, solver._min_eig_fn], ids=["minorant", "min_eig"])
    def test_agrees_with_golden_sections_and_stays_in_the_half_plane(self, monkeypatch, fn):
        calls = kernel_calls(monkeypatch)
        rng = np.random.default_rng(2024)
        radii = np.geomspace(0.5, 300.0, 12)
        crossing = 0
        for _ in range(20):
            xi0, _, s0 = random_voxel(rng)
            for angular_samples in (16, 24, 48):
                calls.clear()
                found = solver._circle_eval(OP, xi0, s0, radii, angular_samples, fn)
                grid, oracle = golden_circle_min(OP, xi0, s0, radii, angular_samples, fn)
                assert np.all(found <= grid.min(axis=1))
                scale = np.abs(grid).max(axis=1)
                assert np.all(np.abs(found - oracle) <= 1e-10 * scale)
                for xi in calls:  # every point on a circle that crosses the real axis stays above it
                    im = xi.reshape(len(radii), -1).imag
                    cross = radii > xi0.imag
                    assert np.all(im[cross] >= -1e-12 * radii[cross, None])
                crossing += int(np.count_nonzero(radii > xi0.imag))
        assert crossing > 0

    def test_closed_circles_wrap_past_angle_zero(self):
        # a closed circle (r <= Im xi0) continues below angle 0: on phantom voxel (11, 19)
        # at 33 Hz the minimum lies at angle 6.19 and the best grid angle is 0, and a
        # bracket clipped at 0 read Q = +0.0048 where a dense scan finds -0.00079
        op, truth = _certify_phantom()
        voxels = [(op, complex(truth.xi0_map[11, 19]), truth.grid.signal[11, 19])] + certify_voxels()
        radii = np.geomspace(0.5, 120.0, 18)  # experiment curvature's radii and angles
        fn = solver._min_eig_fn
        for k, (op, xi0, s0) in enumerate(voxels):
            _, r1s = residual_pieces(op, xi0, s0, 1)
            curv0 = np.vdot(r1s, r1s).real
            q = solver._circle_eval(op, xi0, s0, radii, 16, fn) / curv0
            for r, qr in zip(radii, q):
                closed = r <= xi0.imag
                t0 = 0.0 if closed else np.arcsin(-xi0.imag / r)
                end = 2.0 * np.pi if closed else np.pi - t0
                thetas = np.linspace(t0, end, 20000, endpoint=not closed)
                dense = fn(residual_pieces(op, xi0 + r * np.exp(1j * thetas), s0, 2)).min() / curv0
                assert qr <= dense + 1e-6
                if k == 0 and abs(r - 33.0) < 0.1:
                    assert closed and qr < 0.0

    @pytest.mark.parametrize("angular_samples", [0, -3, 2.5])
    def test_angular_samples_below_one_rejected(self, angular_samples):
        xi0, _, s0 = random_voxel(np.random.default_rng(9))
        with pytest.raises(DomainError):
            curvature_profile(OP, xi0, s0, [10.0], angular_samples=angular_samples)
        with pytest.raises(DomainError):
            radius_tight(OP, xi0, s0, 0.5, angular_samples=angular_samples)

    @pytest.mark.parametrize("radius", [np.nan, -5.0, np.inf])
    def test_a_radius_that_is_no_circle_rejected(self, radius):
        xi0, _, s0 = random_voxel(np.random.default_rng(9))
        with pytest.raises(DomainError):
            curvature_profile(OP, xi0, s0, [10.0, radius], angular_samples=16)


class TestCurvatureProfile:
    def test_q_at_tiny_radius_is_one(self):
        xi0, _, s0 = random_voxel()
        prof = curvature_profile(OP, xi0, s0, [1e-6], angular_samples=16)
        assert prof[0][1] == pytest.approx(1.0, abs=1e-4)
        assert curvature_profile(OP, xi0, s0, [], angular_samples=16) == []

    def test_q_decays_and_crosses_zero(self):
        xi0, _, s0 = random_voxel(im=(5.0, 30.0))
        radii = np.geomspace(1.0, 200.0, 20)
        prof = curvature_profile(OP, xi0, s0, radii, angular_samples=24)
        crossing = radius_empirical_from_profile(prof)
        assert np.isfinite(crossing)
        assert 5.0 < crossing < 200.0

    def test_one_circle_search_for_all_radii(self, monkeypatch):
        calls = []
        pieces = solver.residual_pieces

        def counted(*args):
            calls.append(args)
            return pieces(*args)

        monkeypatch.setattr(solver, "residual_pieces", counted)
        xi0, _, s0 = random_voxel()
        counts = []
        for radii in ([10.0], np.geomspace(1.0, 200.0, 36)):
            calls.clear()
            curvature_profile(OP, xi0, s0, radii, angular_samples=16)
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_empirical_radius_interpolates_at_level(self):
        prof = [(1.0, 1.0), (2.0, 0.8), (4.0, 0.2), (8.0, -0.1)]
        assert radius_empirical_from_profile(prof) == pytest.approx(4.0 + 4.0 * 0.2 / 0.3)
        assert radius_empirical_from_profile(prof, level=0.5) == pytest.approx(3.0)
        assert radius_empirical_from_profile(prof, level=1.0) == 1.0
        assert radius_empirical_from_profile(prof, level=-0.5) == np.inf

    def test_profile_continuity(self):
        # grid refinement oracle: adjacent radii give nearby Q values
        xi0, _, s0 = random_voxel()
        radii = np.linspace(5.0, 50.0, 19)
        prof = curvature_profile(OP, xi0, s0, radii, angular_samples=24)
        qs = np.array([q for _, q in prof])
        assert np.max(np.abs(np.diff(qs))) < 0.35

    def test_report_ordering_invariant(self):
        # the nested radii, with Q(r) on 36 radii from r_lambert / 4 to 40 r_tight
        for _ in range(5):
            xi0, _, s0 = random_voxel()
            r_lam = radius_lambert(OP, xi0, s0, 0.5)
            r_loose = radius_loose(OP, xi0, s0, 0.5)
            r_tight = radius_tight(OP, xi0, s0, 0.5)
            radii = np.geomspace(max(r_lam / 4.0, 1e-6), 40.0 * r_tight, 36)
            prof = curvature_profile(OP, xi0, s0, radii, angular_samples=16)
            assert r_lam <= r_loose <= r_tight <= radius_empirical_from_profile(prof)


class TestStepBound:
    def test_values(self):
        assert step_bound(1.0) == pytest.approx(1.0 / 3.0)
        assert step_bound(0.5) == pytest.approx(0.2)

    def test_monotone(self):
        rhos = np.linspace(0.01, 0.99, 20)
        vals = [step_bound(r) for r in rhos]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            step_bound(0.0)
        with pytest.raises(DomainError):
            step_bound(1.5)


class TestWirtingerFlow:
    def test_converges_instantly_at_truth(self):
        xi0, c0, s0 = random_voxel()
        res = wirtinger_flow(OP, s0, xi0, FlowConfig(certified=True))
        assert res.converged
        assert res.iterations == 0
        assert np.allclose(res.c_hat, c0, rtol=1e-8)

    def test_certified_convergence_from_lambert_disk(self):
        fails = 0
        for _ in range(50):
            xi0, c0, s0 = random_voxel()
            rl = radius_lambert(OP, xi0, s0, 0.5)
            ang = RNG.uniform(0, 2 * np.pi)
            xi_init = xi0 + rl * np.sqrt(RNG.uniform(0, 1)) * np.exp(1j * ang)
            if xi_init.imag < 0:
                xi_init = complex(xi_init.real, 0.0)
            _, r1s = residual_pieces(OP, xi_init, s0, 1)
            gtol = 0.1e-8 * np.linalg.norm(r1s) ** 2 / np.linalg.norm(s0) ** 2
            res = wirtinger_flow(OP, s0, xi_init, FlowConfig(certified=True, grad_tol=gtol))
            if not (res.converged and abs(res.xi_hat - xi0) < 1e-8):
                fails += 1
        assert fails == 0

    def test_signal_rescaling_leaves_the_stop_unchanged(self):
        # the bound is relative to ||s0||^2 and the certified step scales as 1 / ||s0||^2,
        # so a rescaled signal takes the same iterates and stops at the same one
        rng = np.random.default_rng(8086)
        cfg = FlowConfig(certified=True, grad_tol=1e-10)
        for _ in range(5):
            xi0, _, s0 = random_voxel(rng)
            xi_init = xi0 + 0.9 * radius_lambert(OP, xi0, s0) * np.exp(1j * rng.uniform(0, np.pi))
            runs = [wirtinger_flow(OP, scale * s0, xi_init, cfg) for scale in (1.0, 1e3)]
            assert all(res.converged for res in runs)
            assert runs[0].iterations == runs[1].iterations
            assert abs(runs[0].xi_hat - runs[1].xi_hat) < 1e-12

    def test_distance_contracts_monotonically(self):
        xi0, c0, s0 = random_voxel()
        rl = radius_lambert(OP, xi0, s0, 0.5)
        xi_init = xi0 + 0.95 * rl
        res = wirtinger_flow(
            OP, s0, xi_init, FlowConfig(certified=True, keep_trajectory=True, max_iters=2000)
        )
        dist = np.abs(np.array(res.trajectory) - xi0)
        moving = dist > 1e-11
        assert np.all(np.diff(dist)[moving[:-1]] < 0)

    def test_lattice_shifted_init_lands_on_shifted_solution(self):
        period = fieldmap_lattice(rationalize_echoes(MODEL.echoes))
        xi0, c0, s0 = random_voxel()
        rl = radius_lambert(OP, xi0, s0, 0.5)
        res = wirtinger_flow(
            OP, s0, xi0 + period + 0.5 * rl, FlowConfig(certified=True, max_iters=5000)
        )
        assert abs(res.xi_hat - (xi0 + period)) < 1e-6
        assert np.allclose(res.c_hat, c0, rtol=1e-6)

    def test_lattice_equivariance_of_iterates(self):
        period = fieldmap_lattice(rationalize_echoes(MODEL.echoes))
        xi0, c0, s0 = random_voxel()
        cfg = FlowConfig(step=2000.0, max_iters=400, keep_trajectory=True, grad_tol=1e-300)
        ra = wirtinger_flow(OP, s0, xi0 + 3.0, cfg)
        rb = wirtinger_flow(OP, s0, xi0 + 3.0 + period, cfg)
        diffs = np.array(rb.trajectory) - np.array(ra.trajectory)
        assert np.max(np.abs(diffs - period)) < 1e-8
        assert np.linalg.norm(ra.c_hat - rb.c_hat) < 1e-10 * np.linalg.norm(ra.c_hat)

    def test_non_convergence_is_reported_not_raised(self):
        xi0, c0, s0 = random_voxel()
        res = wirtinger_flow(OP, s0, xi0 + 1.0, FlowConfig(step=1e-9, max_iters=5))
        assert not res.converged
        assert res.iterations == 5

    def test_config_validation(self):
        with pytest.raises(DomainError):
            FlowConfig()  # neither absolute step nor certified mode
        with pytest.raises(DomainError):
            FlowConfig(step=-1.0)
        with pytest.raises(DomainError):
            FlowConfig(step=1.0, max_iters=-1)
        with pytest.raises(DomainError):  # the certified step would drop it
            FlowConfig(step=1.0, certified=True)
        for grad_tol in (-1e-12, np.nan, None):
            with pytest.raises(DomainError):
                FlowConfig(certified=True, grad_tol=grad_tol)
        for grad_tol in (0.0, np.inf):
            assert FlowConfig(certified=True, grad_tol=grad_tol).grad_tol == grad_tol
        for step in (np.nan, np.inf):
            with pytest.raises(DomainError):
                FlowConfig(step=step)
        for max_iters in (2.5, 2.0, "3"):
            with pytest.raises(DomainError):
                FlowConfig(certified=True, max_iters=max_iters)
        assert FlowConfig(certified=True, max_iters=np.int64(3)).max_iters == 3

    def test_zero_iterations_evaluate_the_start(self):
        xi0, c0, s0 = random_voxel()
        res = wirtinger_flow(OP, s0, xi0 + 1.0, FlowConfig(certified=True, max_iters=0))
        assert res.iterations == 0 and not res.converged
        assert res.xi_hat == xi0 + 1.0 and res.final_grad_norm > 0.0


class TestConstrainedFlow:
    def test_delta_zero_reduces_to_plain_flow(self):
        xi0, c0, s0 = random_voxel()
        cfg = FlowConfig(certified=True, max_iters=3000)
        plain = wirtinger_flow(OP, s0, xi0 + 0.001, cfg)
        pinned = constrained_flow(OP, s0, 0.0, xi0 + 0.001, cfg)
        assert pinned.xi_hat == plain.xi_hat
        assert np.allclose(pinned.s_hat, s0)

    def test_delta_zero_holds_signal_without_its_gradient(self, monkeypatch):
        # the flow runs the descent loop of csemri.imaging, which looks these names up there
        import csemri.imaging as imaging

        def forbidden(*args, **kwargs):
            raise AssertionError("the signal block is held at delta = 0")

        calls = []
        value_and_gradient = imaging.voxelwise_value_and_gradient

        def counted(*args):
            calls.append(1)
            return value_and_gradient(*args)

        monkeypatch.setattr(imaging, "voxelwise_full_residual", forbidden)
        monkeypatch.setattr(imaging, "_projected_signal_step", forbidden)
        monkeypatch.setattr(imaging, "voxelwise_value_and_gradient", counted)
        xi0, c0, s0 = random_voxel(np.random.default_rng(11))
        cfg = FlowConfig(certified=True, max_iters=500)
        res = constrained_flow(OP, s0, 0.0, xi0 + 0.001, cfg)
        assert res.converged
        assert np.array_equal(res.s_hat, s0)
        assert len(calls) == res.iterations + 1

    def test_negative_radius_or_ridge_rejected(self):
        xi0, c0, s0 = random_voxel(np.random.default_rng(12))
        cfg = FlowConfig(certified=True, max_iters=10)
        with pytest.raises(DomainError):
            constrained_flow(OP, s0, -0.1, xi0, cfg)
        with pytest.raises(DomainError):
            constrained_flow(OP, s0, 0.02, xi0, cfg, epsilon=-1.0)

    def test_nan_radius_or_ridge_rejected(self):
        xi0, c0, s0 = random_voxel(np.random.default_rng(12))
        cfg = FlowConfig(certified=True, max_iters=10)
        with pytest.raises(DomainError):
            constrained_flow(OP, s0, np.nan, xi0, cfg)
        with pytest.raises(DomainError):
            constrained_flow(OP, s0, 0.02, xi0, cfg, epsilon=np.nan)

    def test_non_finite_start_or_signal_rejected(self):
        xi0, c0, s0 = random_voxel(np.random.default_rng(12))
        cfg = FlowConfig(certified=True, max_iters=10)
        bad = s0.copy()
        bad[2] = np.nan
        for y, xi_init in ((s0, complex(np.nan, 0.0)), (s0, complex(0.0, np.inf)), (bad, xi0)):
            for delta in (0.0, 0.02):
                with pytest.raises(DomainError):
                    constrained_flow(OP, y, delta, xi_init, cfg)

    def test_noiseless_feasible_reaches_zero_objective(self):
        xi0, c0, s0 = random_voxel()
        cfg = FlowConfig(certified=True, max_iters=5000)
        res = constrained_flow(OP, s0, 0.05 * np.linalg.norm(s0), xi0 + 0.001, cfg)
        assert residual_value(OP, res.xi_hat, res.s_hat) < 1e-18 * np.linalg.norm(s0) ** 2
        assert abs(res.xi_hat - xi0) < 0.01

    def test_noisy_recovery_within_oracle_band(self):
        # Monte-Carlo oracle: the fieldmap-aware least-squares error over
        # noise draws bounds what the constrained solver should achieve
        rng = np.random.default_rng(7)
        xi0 = complex(15.0, 20.0)
        c0 = np.array([0.7, 0.3 + 0j])
        s0 = signal(xi0, c0, MODEL)
        sigma = 0.01 * np.max(np.abs(s0))
        from csemri.residual import concentrations_ri

        solver_errs = []
        oracle_errs = []
        for _ in range(30):
            z = (rng.standard_normal(6) + 1j * rng.standard_normal(6)) / np.sqrt(2)
            y = s0 + sigma * z
            res = constrained_flow(
                OP, y, sigma * np.sqrt(6), xi0, FlowConfig(certified=True, max_iters=4000)
            )
            solver_errs.append(np.linalg.norm(res.c_hat - c0))
            oracle_errs.append(np.linalg.norm(concentrations_ri(OP, xi0, y) - c0))
        assert np.mean(solver_errs) <= 3.0 * np.mean(oracle_errs)


class TestRegularizedFlow:
    def test_pure_noise_takes_zero_branch(self):
        rng = np.random.default_rng(3)
        y = (rng.standard_normal(6) + 1j * rng.standard_normal(6)) / np.sqrt(2)
        res = constrained_flow(
            OP,
            y,
            1.5 * np.linalg.norm(y),
            1.0 + 0j,
            FlowConfig(step=1e3, max_iters=50_000),
            epsilon=1e-2,
        )
        assert res.branch == "zero"
        # the ball holds 0, so the voxel is off the support: no iteration
        assert res.iterations == 0 and res.converged
        assert np.array_equal(res.s_hat, np.zeros(6))
        assert res.xi_hat == 1.0 + 0j

    def test_noiseless_feasible_takes_boundary_branch(self):
        xi0, c0, s0 = random_voxel()
        delta = 0.05 * np.linalg.norm(s0)
        res = constrained_flow(
            OP, s0, delta, xi0, FlowConfig(certified=True, max_iters=20_000), epsilon=1e-4
        )
        assert res.branch == "boundary"
        assert abs(np.linalg.norm(s0 - res.s_hat) - delta) < 1e-6 * np.linalg.norm(s0)

    def test_dichotomy_on_noisy_voxels(self):
        rng = np.random.default_rng(42)
        violations = 0
        for _ in range(25):
            xi0 = complex(rng.uniform(-50, 50), rng.uniform(2, 40))
            c0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            s0 = signal(xi0, c0, MODEL)
            sigma = 0.01 * np.max(np.abs(s0))
            y = s0 + sigma * (rng.standard_normal(6) + 1j * rng.standard_normal(6)) / np.sqrt(2)
            delta = sigma * np.sqrt(6)
            res = constrained_flow(
                OP, y, delta, xi0 + 0.001, FlowConfig(certified=True, max_iters=20_000),
                epsilon=1e-3,
            )
            gap = min(np.linalg.norm(res.s_hat), abs(np.linalg.norm(y - res.s_hat) - delta))
            if gap >= 1e-6 * max(np.linalg.norm(y), delta):
                violations += 1
        assert violations == 0


class TestCertifiedStep:
    def test_below_normalized_bound(self):
        xi0, _, s0 = random_voxel()
        alpha = certified_step(OP, xi0, s0, 0.5)
        _, r1s = residual_pieces(OP, xi0, s0, 1)
        lip = (2 + 0.5) * np.linalg.norm(r1s) ** 2
        assert alpha * lip < step_bound(0.5)

    def test_curvature_overflow_is_raised(self):
        # ||R' s||^2 of a unit signal overflows past tau_s |Im xi| = 700
        # (11.3 kHz here), inside the exp guard
        sig = random_complex(6, np.random.default_rng(17))
        sig /= np.linalg.norm(sig)
        def profile(op, xi0, s0, radius):  # Q on one circle
            return curvature_profile(op, xi0, s0, [radius])[0][1]

        fns = (certified_step, gamma_plus, radius_lambert, profile)
        for im in (12000.0, 15000.0):
            assert OP.tau_s * im > 700.0 and im * MODEL.times[-1] < 700.0 / (2 * np.pi)
            for fn in fns:
                with pytest.raises(OverflowRisk):
                    fn(OP, 40.0 + 1j * im, sig, 0.5)
        just_inside = 40.0 + 1j * 0.99 * 700.0 / OP.tau_s
        with np.errstate(all="raise"):
            values = [fn(OP, just_inside, sig, 0.5) for fn in fns]
        # Q of a signal outside the model's range has no sign to hold
        assert all(np.isfinite(values)) and all(v > 0.0 for v in values[:3])


PIPELINE_WITHOUT_SCIPY = """
import sys
import numpy as np
import csemri, csemri.cli
from csemri.imaging import separation_check
from csemri.solver import lambert_w0

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

print(scipy_modules())
for argv in (
    ["phantom", "--out", "ph.json", "--truth", "truth.npz", "--width", "16", "--height", "16"],
    ["corrupt", "--input", "ph.json", "--out", "noisy.json", "--sigma", "0.01", "--relative"],
    ["reconstruct", "--input", "noisy.json", "--out", "recon.npz", "--max-iters", "5"],
):
    assert csemri.cli.cli_main(argv) == 0, argv
print(scipy_modules())
print(repr(lambert_w0(1.0)))
xi = np.zeros((3, 3))
print(separation_check(xi, xi + 100.0, 100.0).region_offsets)
"""


def test_cli_pipeline_loads_no_scipy(tmp_path):
    # SciPy is most of a fresh import; only lambert_w0 and separation_check load it
    env = {**os.environ, "PYTHONPATH": str(Path(csemri.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", PIPELINE_WITHOUT_SCIPY], env=env, cwd=tmp_path,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "[]", "import csemri, csemri.cli loaded " + lines[0]
    assert lines[-3] == "[]", "the phantom, corrupt, reconstruct pipeline loaded " + lines[-3]
    assert lines[-2:] == ["0.5671432904097838", "(-1,)"]
