"""Grid operators, constraint projection, reconstruction, metrics."""

import warnings
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from csemri import imaging
from csemri.errors import DegenerateCurvature, DimensionError, DomainError, OverflowRisk
from csemri.imaging import (
    FieldmapConstraint,
    ImageGrid,
    constraint_violation,
    forward_gradient,
    gradient_adjoint,
    metrics,
    pdff_map,
    project_onto_C_phi,
    reconstruct,
    reconstruct_noisy,
    separation_check,
)
from csemri.lattice import fieldmap_lattice, rationalize_echoes
from csemri.phantom import (
    CorruptionSpec,
    PhantomSpec,
    corrupt,
    default_phantom_spec,
    generate_phantom,
)
from csemri.residual import make_residual_operator, residual_pieces, voxelwise_concentrations
from csemri.solver import (
    FlowConfig,
    certified_step,
    constrained_flow,
    step_bound,
    wirtinger_flow,
)
from csemri.species import EchoSpec, build_model, load_species
from projection_kkt import kkt_residual

RNG = np.random.default_rng(5150)

HZ_PER_PPM = 3.0 * 42.57747892
SPECIES = (
    load_species("water"),
    load_species("fat6", hz_per_ppm=HZ_PER_PPM),
    load_species("silicone", hz_per_ppm=HZ_PER_PPM),
)
MODEL = build_model(SPECIES, EchoSpec.uniform_ms(1.238, 0.986, 6))
OP = make_residual_operator(MODEL)


@dataclass(frozen=True)
class LaplacianReport:
    max_abs_laplacian: float
    ok: bool


def laplacian_bound_check(phi, eps0):
    """Check |5-point Laplacian| <= 4 eps0 at interior voxels.

    A field whose gradient norm is bounded by eps0 everywhere satisfies
    this automatically, i.e. it is a bounded-source perturbation of a
    discretely harmonic map.
    """
    phi = np.asarray(phi, dtype=float)
    lap = (
        phi[2:, 1:-1] + phi[:-2, 1:-1] + phi[1:-1, 2:] + phi[1:-1, :-2] - 4.0 * phi[1:-1, 1:-1]
    )
    m = float(np.max(np.abs(lap)))
    return LaplacianReport(m, bool(m <= 4.0 * eps0 + 1e-9))


def small_phantom(side=24, n_shapes=4):
    spec = default_phantom_spec(width=side, height=side)
    return generate_phantom(
        PhantomSpec(side, side, spec.shapes[:n_shapes], spec.fieldmap, spec.r2star), MODEL
    )


class TestForwardGradient:
    def test_constant_field(self):
        assert np.all(forward_gradient(np.full((5, 6), 3.3)) == 0)

    def test_linear_ramp(self):
        yy = np.arange(5)[:, None] * np.ones((1, 6))
        g = forward_gradient(2.0 * yy)
        assert np.allclose(g[:-1, :, 0], 2.0)
        assert np.all(g[-1, :, 0] == 0)  # boundary extension
        assert np.all(g[:, :, 1] == 0)

    def test_adjoint_identity(self):
        for _ in range(20):
            phi = RNG.standard_normal((7, 9))
            psi = RNG.standard_normal((7, 9, 2))
            lhs = np.sum(forward_gradient(phi) * psi)
            rhs = np.sum(phi * gradient_adjoint(psi))
            assert lhs == pytest.approx(rhs, abs=1e-12 * max(abs(lhs), 1.0))


class TestLaplacianCheck:
    def test_discrete_harmonic(self):
        yy, xx = np.mgrid[0:9, 0:9].astype(float)
        rep = laplacian_bound_check(xx**2 - yy**2, 0.0)
        assert rep.max_abs_laplacian == 0.0
        assert rep.ok

    def test_gradient_bounded_fields_pass(self):
        # any field in the constraint set with eps_g = eps0 satisfies the
        # 4*eps0 bound automatically
        for _ in range(10):
            raw = RNG.standard_normal((8, 8))
            eps0 = RNG.uniform(0.2, 2.0)
            con = FieldmapConstraint.uniform(8, 8, eps0)
            phi = project_onto_C_phi(raw.astype(complex), con, proj_tol=1e-10).real
            rep = laplacian_bound_check(phi, eps0)
            assert rep.ok

    def test_unit_spike(self):
        phi = np.zeros((5, 5))
        phi[2, 2] = 1.0
        rep = laplacian_bound_check(phi, 0.9)
        assert rep.max_abs_laplacian == pytest.approx(4.0)
        assert not rep.ok
        assert laplacian_bound_check(phi, 1.0).ok


class TestProjection:
    def test_feasible_point_unchanged(self):
        con = FieldmapConstraint.uniform(6, 6, 5.0)
        phi = RNG.standard_normal((6, 6))  # gradients at most a few units
        phi = 0.5 * phi
        assert constraint_violation(phi, con) == 0.0
        out = project_onto_C_phi(phi.astype(complex), con, proj_tol=1e-10)
        assert np.allclose(out.real, phi, atol=1e-9)

    def test_two_voxel_average(self):
        con = FieldmapConstraint(eps_g=np.zeros((1, 2)))
        out = project_onto_C_phi(np.array([[3.0, 7.0]], dtype=complex), con, proj_tol=1e-12)
        assert np.allclose(out.real, 5.0, atol=1e-10)

    def test_idempotent(self):
        con = FieldmapConstraint.uniform(8, 8, 1.0)
        x = 5.0 * RNG.standard_normal((8, 8))
        once = project_onto_C_phi(x.astype(complex), con, proj_tol=1e-11)
        twice = project_onto_C_phi(once, con, proj_tol=1e-11)
        assert np.max(np.abs(once - twice)) < 1e-8

    def test_imag_part_clamped(self):
        con = FieldmapConstraint.uniform(4, 4, 10.0)
        xi = RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4))
        out = project_onto_C_phi(xi, con)
        assert np.all(out.imag >= 0)
        assert np.allclose(out.imag, np.maximum(xi.imag, 0.0))

    def test_matches_qp_oracle(self):
        cp = pytest.importorskip("cvxpy")
        for trial in range(4):
            h = w = 8
            x0 = 3.0 * RNG.standard_normal((h, w))
            eps = RNG.uniform(0.5, 3.0, (h, w))
            con = FieldmapConstraint(eps_g=eps)
            mine = project_onto_C_phi(x0.astype(complex), con, proj_tol=1e-11).real
            v = cp.Variable((h, w))
            cons = []
            for i in range(h):
                for j in range(w):
                    terms = []
                    if i + 1 < h:
                        terms.append(v[i + 1, j] - v[i, j])
                    if j + 1 < w:
                        terms.append(v[i, j + 1] - v[i, j])
                    if terms:
                        cons.append(cp.norm(cp.hstack(terms)) <= eps[i, j])
            prob = cp.Problem(cp.Minimize(cp.sum_squares(v - x0)), cons)
            prob.solve(solver=cp.CLARABEL, tol_gap_abs=1e-13, tol_gap_rel=1e-13,
                       tol_feas=1e-13, max_iter=400)
            assert np.max(np.abs(mine - v.value)) < 1e-6

    def test_variational_inequality(self):
        # <x - proj, feasible - proj> <= tol for sampled feasible points
        con = FieldmapConstraint.uniform(6, 6, 0.8)
        x = 4.0 * RNG.standard_normal((6, 6))
        proj = project_onto_C_phi(x.astype(complex), con, proj_tol=1e-11).real
        for _ in range(20):
            feas = project_onto_C_phi(
                2.0 * RNG.standard_normal((6, 6)).astype(complex), con, proj_tol=1e-11
            ).real
            inner = np.sum((x - proj) * (feas - proj))
            assert inner <= 1e-6

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        h=st.integers(1, 9),
        w=st.integers(1, 9),
        scale=st.sampled_from([0.5, 3.0]),
        inf_share=st.sampled_from([0.0, 0.3]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(h=1, w=9, scale=3.0, inf_share=0.3, seed=1)
    @example(h=9, w=1, scale=3.0, inf_share=0.3, seed=2)
    def test_properties_on_any_shape(self, h, w, scale, inf_share, seed):
        # odd sizes, single rows and single columns, which the phantoms never reach
        rng = np.random.default_rng(seed)
        xi = scale * rng.standard_normal((h, w)) + 1j * rng.standard_normal((h, w))
        eps = rng.uniform(0.5, 3.0, (h, w))
        eps[rng.random((h, w)) < inf_share] = np.inf
        con = FieldmapConstraint(eps_g=eps)
        proj_tol = 1e-11
        x_scale = max(float(np.max(np.abs(xi.real))), 1.0)
        out = project_onto_C_phi(xi, con, proj_tol=proj_tol)
        assert constraint_violation(out, con) <= 10.0 * proj_tol * x_scale
        assert np.array_equal(out.imag, np.maximum(xi.imag, 0.0))
        again = project_onto_C_phi(out, con, proj_tol=proj_tol)
        assert np.max(np.abs(again - out)) <= 1e-9 * x_scale
        stationarity, move = kkt_residual(xi.real, out.real, eps)
        assert stationarity <= 1e-8 * move

    def test_far_start_converges(self):
        # fields of 50 Hz spread under bounds of a few Hz: most constraints
        # are active far from the start
        rng = np.random.default_rng(4)
        proj_tol = 1e-11
        for _ in range(12):
            h, w = rng.integers(4, 9, 2)
            x0 = 50.0 * rng.standard_normal((h, w))
            eps = rng.uniform(0.5, 3.0, (h, w))
            con = FieldmapConstraint(eps_g=eps)
            x_scale = max(float(np.max(np.abs(x0))), 1.0)
            out = project_onto_C_phi(x0.astype(complex), con, proj_tol=proj_tol)
            assert constraint_violation(out, con) <= 10.0 * proj_tol * x_scale
            again = project_onto_C_phi(out, con, proj_tol=proj_tol)
            assert np.max(np.abs(again - out)) <= 1e-9 * x_scale
            stationarity, move = kkt_residual(x0, out.real, eps)
            assert stationarity <= 1e-8 * move

    def test_nan_bound_rejected(self):
        eps = np.full((3, 3), np.inf)
        FieldmapConstraint(eps_g=eps)  # an infinite bound is no bound
        eps[1, 1] = np.nan
        with pytest.raises(DimensionError):
            FieldmapConstraint(eps_g=eps)
        with pytest.raises(DimensionError):
            FieldmapConstraint.from_mask(np.ones((3, 3), bool), np.nan)

    @pytest.mark.parametrize("shape", [(1, 3), (3, 1)])
    def test_a_difference_into_an_unbounded_voxel_is_not_bounded(self, shape):
        con = FieldmapConstraint(eps_g=np.array([1.0, 1.0, np.inf]).reshape(shape))
        into_unbounded = np.array([0.0, 0.0, 100.0]).reshape(shape).astype(complex)
        assert constraint_violation(into_unbounded, con) == 0.0
        with mock.patch.object(imaging, "_dual_projection", _no_iteration):
            assert np.array_equal(project_onto_C_phi(into_unbounded, con), into_unbounded)
        # the same jump between the two bounded voxels: the bounded pair meets halfway
        between_bounded = np.array([0.0, 100.0, 100.0]).reshape(shape).astype(complex)
        assert constraint_violation(between_bounded, con) == pytest.approx(99.0)
        out = project_onto_C_phi(between_bounded, con, proj_tol=1e-12)
        assert np.allclose(out.real.ravel(), [49.5, 50.5, 100.0], rtol=0.0, atol=1e-9)
        assert constraint_violation(out, con) <= 1e-9

    def test_demo_start_is_in_the_set(self, monkeypatch):
        # the 64^2 phantom with its left vials shifted by the lattice period: every jump
        # lies between a vial and the unbounded background, so no dual iteration runs
        from scipy import ndimage

        truth = generate_phantom(default_phantom_spec(), MODEL)
        period = fieldmap_lattice(rationalize_echoes(MODEL.echoes))
        labels, n_regions = ndimage.label(truth.mask)
        shift = np.zeros(truth.mask.shape)
        for r in range(1, n_regions + 1):
            region = labels == r
            if np.mean(np.nonzero(region)[1]) < truth.mask.shape[1] / 2:
                shift[region] = period
        start = truth.xi0_map + shift
        con = FieldmapConstraint.from_mask(truth.mask, 30.0)
        calls = []
        adjoint = imaging.gradient_adjoint

        def counted_adjoint(psi):
            calls.append(psi.shape)
            return adjoint(psi)

        monkeypatch.setattr(imaging, "gradient_adjoint", counted_adjoint)
        assert np.any(shift) and constraint_violation(start, con) == 0.0
        assert np.array_equal(project_onto_C_phi(start, con), start)
        assert calls == []

    @pytest.mark.parametrize("shape", [(1, 1), (16,), (16, 16, 1)])
    def test_bound_of_another_shape_is_refused_on_entry(self, shape):
        truth = small_phantom(side=16)
        xi = np.full((16, 16), 1.0 + 0j)
        with pytest.raises(DimensionError):
            con = FieldmapConstraint(eps_g=np.full(shape, 30.0))
            constraint_violation(xi, con)
        with pytest.raises(DimensionError):
            project_onto_C_phi(xi, FieldmapConstraint(eps_g=np.full(shape, 30.0)))
        # before any step: with no iteration allowed, and at a stationary start
        for cfg, start in ((FlowConfig(certified=True, max_iters=0), xi),
                           (FlowConfig(certified=True, max_iters=50), truth.xi0_map)):
            with pytest.raises(DimensionError):
                reconstruct(truth.grid, MODEL, FieldmapConstraint(eps_g=np.full(shape, 30.0)),
                            cfg, start)


FIELD_SHAPES = hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6)


def _no_iteration(*args):
    raise AssertionError("a feasible field must not be iterated")


class TestProjectionFastPath:
    def test_feasible_field_is_returned_without_a_sweep(self, monkeypatch):
        monkeypatch.setattr(imaging, "_dual_projection", _no_iteration)
        con = FieldmapConstraint.uniform(7, 9, 5.0)
        xi = 0.5 * RNG.standard_normal((7, 9)) + 1j * RNG.standard_normal((7, 9))
        assert constraint_violation(xi, con) == 0.0
        out = project_onto_C_phi(xi, con)
        assert np.array_equal(out.real, xi.real)
        assert np.array_equal(out, xi.real + 1j * np.maximum(xi.imag, 0.0))

    def test_single_violating_voxel_is_swept(self):
        eps = np.full((8, 8), 2.0)
        x0 = 0.2 * RNG.standard_normal((8, 8))
        x0[4, 5] += 10.0  # the only constraint broken is at (4, 5) and its back neighbors
        con = FieldmapConstraint(eps_g=eps)
        assert constraint_violation(x0, con) > 0.0
        with mock.patch.object(
            imaging, "_dual_projection", side_effect=imaging._dual_projection
        ) as spy:
            out = project_onto_C_phi(x0.astype(complex), con, proj_tol=1e-11)
        assert spy.called
        assert constraint_violation(out, con) <= 10.0 * 1e-11 * np.max(np.abs(x0))
        stationarity, move = kkt_residual(x0, out.real, eps)
        assert move > 1.0
        assert stationarity <= 1e-8 * move

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        x=st.one_of(
            hnp.arrays(float, FIELD_SHAPES, elements=st.integers(-6, 6).map(float)),
            hnp.arrays(float, FIELD_SHAPES, elements=st.floats(-10.0, 10.0)),
        ),
        nudge=st.sampled_from([-1, 0, 1]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(x=np.array([[0.0, 4.0], [3.0, 7.0]]), nudge=0, seed=0)  # squared norms 25, 9, 16, 0
    def test_boundary_matches_the_sweep(self, x, nudge, seed):
        # eps at the gradient norm of the field itself: a constraint that
        # holds with equality is not violated, so no iteration runs, and the
        # result equals the iteration's bit for bit either way
        rng = np.random.default_rng(seed)
        x = np.where((x == 0) & (rng.random(x.shape) < 0.5), -0.0, x)
        g = forward_gradient(x)
        norm2 = g[..., 0] * g[..., 0] + g[..., 1] * g[..., 1]
        eps = np.sqrt(norm2)
        if nudge:
            eps = np.nextafter(eps, np.inf if nudge > 0 else -np.inf)
        eps = np.maximum(eps, 0.0)
        con = FieldmapConstraint(eps_g=eps)
        xi = np.empty(x.shape, complex)  # keeps the signs of zero parts
        xi.real = x
        xi.imag = np.where(rng.random(x.shape) < 0.3, -0.0, rng.standard_normal(x.shape))
        violated = bool(np.any(norm2 > eps * eps))
        with mock.patch.object(
            imaging, "_dual_projection", side_effect=imaging._dual_projection
        ) as spy:
            out = project_onto_C_phi(xi, con, proj_tol=1e-11)
        assert spy.called == violated
        swept = imaging._dual_projection(xi, con, 1e-11)
        assert np.array_equal(out.view(np.uint64), swept.view(np.uint64))


class TestImageGrid:
    def test_validation(self):
        for shape in ((2, 3, 4, 1), (0, 4, 6), (3, 0, 6), (3, 4, 0)):
            with pytest.raises(DimensionError):
                ImageGrid(np.zeros(shape))
        for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
            sig = np.zeros((3, 3, 4), complex)
            sig[0, 0, 0] = bad
            with pytest.raises(DimensionError):
                ImageGrid(sig)

    def test_size_is_read_from_the_signal(self):
        with pytest.raises(DimensionError):  # no echo axis
            ImageGrid(np.zeros((3, 5), complex))
        grid = ImageGrid(np.ones((3, 5, 2)))
        assert (grid.height, grid.width) == (3, 5)
        assert grid.signal.dtype == complex

    def test_infinite_signal_raises_without_a_warning(self):
        sig = np.zeros((3, 3, 4), complex)
        sig[1, 2, 3] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DimensionError):
                ImageGrid(sig)


class TestCertifiedStepBatch:
    def test_batch_equals_the_scalar_call_per_voxel(self):
        truth = small_phantom()
        xi = truth.xi0_map.ravel()
        s = truth.grid.signal.reshape(-1, 6).copy()
        s[np.flatnonzero(truth.mask.ravel())[::5]] = 0.0  # zero-signal voxels on the mask
        mask = truth.mask.ravel() | (np.arange(len(xi)) % 7 == 0)  # and off-mask ones
        batch = certified_step(OP, xi[mask], s[mask], 0.5)
        assert batch.shape == (np.count_nonzero(mask),)
        zero = []
        for k, i in enumerate(np.flatnonzero(mask)):
            try:
                # BLAS rounds a batch's kernel product and a single row's differently
                assert batch[k] == pytest.approx(certified_step(OP, xi[i], s[i], 0.5), rel=1e-12)
            except DegenerateCurvature:
                zero.append(k)
        assert zero
        assert np.all(batch[zero] == batch.min())  # zero curvature takes the batch minimum
        # the batch minimum, the driver's fallback, is the step of the largest curvature
        _, r1s = residual_pieces(OP, xi[mask], s[mask], 1)
        largest = np.max(np.sum(np.abs(r1s) ** 2, axis=1))
        assert batch.min() == 0.9 * step_bound(0.5) / (2.5 * largest)

    def test_all_zero_batch_raises_and_an_empty_batch_has_no_steps(self):
        xi = np.full(5, 10.0 + 3j)
        s = np.zeros((5, 6), complex)
        with pytest.raises(DegenerateCurvature):
            certified_step(OP, xi, s, 0.5)
        empty = certified_step(OP, xi[:0], s[:0], 0.5)  # no voxel at all
        assert empty.shape == (0,)

    def test_overflow_is_raised_not_dropped(self):
        truth = small_phantom()
        xi = truth.xi0_map.copy()
        xi[np.nonzero(truth.mask)[0][3], np.nonzero(truth.mask)[1][3]] = 1j * 2e4 / MODEL.times[-1]
        con = FieldmapConstraint(eps_g=np.full(xi.shape, np.inf))
        with pytest.raises(OverflowRisk):
            certified_step(OP, xi.ravel(), truth.grid.signal.reshape(-1, 6), 0.5)
        with pytest.raises(OverflowRisk):
            reconstruct(truth.grid, MODEL, con, FlowConfig(certified=True), xi)


class TestReconstruct:
    def test_decoupled_matches_per_voxel_flow(self):
        truth = small_phantom()
        con = FieldmapConstraint(eps_g=np.full((24, 24), np.inf))
        for momentum in (False, True):
            cfg = FlowConfig(step=3e3, max_iters=120, grad_tol=1e-300, momentum=momentum)
            res = reconstruct(truth.grid, MODEL, con, cfg, np.full((24, 24), 1.0 + 0j))
            for i, j in zip(*np.nonzero(truth.mask)):
                voxel = wirtinger_flow(OP, truth.grid.signal[i, j], 1.0 + 0j, cfg)
                assert abs(voxel.xi_hat - res.xi_map[i, j]) < 1e-10

    def test_init_at_truth_is_exact(self):
        truth = small_phantom()
        con = FieldmapConstraint.from_mask(truth.mask, 30.0)
        cfg = FlowConfig(certified=True, max_iters=50)
        res = reconstruct(truth.grid, MODEL, con, cfg, truth.xi0_map.copy())
        assert res.iterations == 0
        mask = truth.mask
        assert np.max(np.abs(res.c_map[mask] - truth.c0_map[mask])) < 1e-8
        assert res.constraint_violation <= 1e-9

    def test_infeasible_stationary_start_is_not_converged(self):
        from scipy import ndimage

        truth = small_phantom()
        period = fieldmap_lattice(rationalize_echoes(MODEL.echoes))
        labels, n_regions = ndimage.label(truth.mask)
        cols = np.arange(truth.mask.shape[1])
        shift = np.zeros(truth.mask.shape)
        for r in range(1, n_regions + 1, 2):
            region = labels == r
            left = cols[None, :] < np.mean(np.nonzero(region)[1])
            shift[region & left] = period
        con = FieldmapConstraint.from_mask(truth.mask, 30.0)
        cfg = FlowConfig(certified=True, max_iters=40)
        # every voxel is stationary at the shifted start, which jumps by a
        # lattice period inside the odd regions and so violates C_phi
        res = reconstruct(truth.grid, MODEL, con, cfg, truth.xi0_map + shift)
        assert res.iterations == 0
        assert res.constraint_violation > 1e5
        assert not res.converged
        feasible = reconstruct(truth.grid, MODEL, con, cfg, truth.xi0_map.copy())
        assert feasible.iterations == 0 and feasible.converged

    def test_objective_monotone_and_feasible(self):
        truth = small_phantom()
        con = FieldmapConstraint.from_mask(truth.mask, 30.0)
        init = truth.xi0_map + 3.0 * np.exp(1j * RNG.uniform(0, np.pi, truth.xi0_map.shape))
        init = np.real(init) + 1j * np.maximum(np.imag(init), 0.0)
        for momentum in (False, True):
            cfg = FlowConfig(step=2e3, max_iters=60, momentum=momentum, keep_trajectory=True)
            res = reconstruct(truth.grid, MODEL, con, cfg, init, proj_tol=1e-9)
            trace = np.array(res.objective_trace)
            assert np.all(np.diff(trace) <= 1e-9 * np.maximum(trace[:-1], 1e-30))
            assert res.constraint_violation <= 1e-8
            # every accepted iterate after the start lies in C_phi and the upper half-plane
            for xi in res.trajectory[1:]:
                assert constraint_violation(xi, con) <= 1e-8 and np.all(xi.imag >= 0.0)
            assert np.array_equal(res.trajectory[-1], res.xi_map)
            assert len(res.trajectory) == len(trace) == res.iterations + 1

    def test_lattice_shifted_init_keeps_concentrations(self):
        from scipy import ndimage

        truth = small_phantom()
        period = fieldmap_lattice(rationalize_echoes(MODEL.echoes))
        labels, _ = ndimage.label(truth.mask)
        shift = np.where(labels % 2 == 1, period, 0.0)  # shift alternating regions
        con = FieldmapConstraint.from_mask(truth.mask, 30.0)
        res = reconstruct(
            truth.grid, MODEL, con, FlowConfig(certified=True, max_iters=40),
            truth.xi0_map + shift,
        )
        mask = truth.mask
        rel = np.abs(res.c_map[mask] - truth.c0_map[mask]).max()
        assert rel < 1e-6
        rep = separation_check(
            res.xi_map, truth.xi0_map, fieldmap_lattice(rationalize_echoes(MODEL.echoes)),
            tol=1e-5, mask=mask,
        )
        assert rep.offsets_constant_per_region
        assert not np.any(rep.mismatch[mask])

    @pytest.mark.parametrize("cfg, spread", [
        (FlowConfig(step=2e3, max_iters=5), (2e3, 2e3, 2e3)),
        (FlowConfig(certified=True, max_iters=5), None),
    ])
    def test_all_zero_grid_keeps_the_step_spread_rule(self, cfg, spread):
        # an empty support: a fixed step still gives three equal steps, certified mode none
        grid = ImageGrid(np.zeros((3, 4, 6), complex))
        con = FieldmapConstraint.uniform(3, 4, 30.0)
        res = reconstruct(grid, MODEL, con, cfg, np.full((3, 4), 1.0 + 0j))
        assert res.step_spread == spread
        assert res.iterations == 0 and res.final_grad_norm == 0.0
        assert res.s_map.shape == (3, 4, 6) and res.c_map.shape == (3, 4, 3)

    def test_start_or_data_not_in_the_field_shape_raises(self):
        truth = small_phantom(side=8, n_shapes=1)
        con = FieldmapConstraint.uniform(8, 8, 30.0)
        cfg = FlowConfig(certified=True, max_iters=5)
        for xi in (np.ones((8, 7), complex), np.ones((8, 8, 1), complex), np.ones(64, complex)):
            with pytest.raises(DimensionError):
                reconstruct(truth.grid, MODEL, con, cfg, xi)
        y = truth.grid.signal[2, 3]
        with pytest.raises(DimensionError):  # a start that is not one voxel's
            constrained_flow(OP, y, 0.0, np.ones(2, complex), cfg)
        with pytest.raises(DimensionError):  # nor with data of the start's batch shape
            constrained_flow(OP, np.ones((2, 6)), 0.0, np.ones(2), cfg)
        with pytest.raises(DimensionError):  # data that are not one voxel's
            constrained_flow(OP, truth.grid.signal[2, 3:5], 0.0, 1.0 + 0j, cfg)
        for n_e in (5, 7):  # an echo count that is not the model's, in either driver
            with pytest.raises(DimensionError):
                reconstruct(ImageGrid(np.ones((8, 8, n_e))), MODEL, con, cfg, np.ones((8, 8)))
            with pytest.raises(DimensionError):
                constrained_flow(OP, np.ones(n_e), 0.0, 1.0 + 0j, cfg)
        with pytest.raises(DimensionError):  # no echo at all
            constrained_flow(OP, np.ones(0), 0.0, 1.0 + 0j, cfg)
        start = np.ones((8, 8), complex)
        for shape in ((3,), (8, 8, 1), (2, 8), (8,)):  # per-voxel maps that are not the field's
            with pytest.raises(DimensionError):
                reconstruct_noisy(truth.grid, MODEL, con, np.full(shape, 0.01), cfg, start)
            with pytest.raises(DimensionError):
                imaging.projected_descent(OP, start, truth.grid.signal, 0.0, cfg, con,
                                          np.ones(shape))


class TestReconstructNoisy:
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), delta_rel=st.sampled_from([0.0, 0.01, 0.3, 2.0]))
    def test_voxel_flow_is_the_driver_on_one_voxel(self, seed, delta_rel):
        rng = np.random.default_rng(seed)
        xi0 = complex(rng.uniform(-60.0, 60.0), rng.uniform(0.0, 40.0))
        c0 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        y = MODEL.phi @ c0 * np.exp(2j * np.pi * xi0 * MODEL.times)
        y = y + 0.02 * np.linalg.norm(y) * (rng.standard_normal(6) + 1j * rng.standard_normal(6))
        xi_init = xi0 + complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
        delta = delta_rel * float(np.linalg.norm(y))
        grid = ImageGrid(y[None, None, :])
        unbounded = FieldmapConstraint.uniform(1, 1, np.inf)
        # momentum needs the signal held: delta = 0, or a zero branch with no signal to move
        for momentum in (False, True) if delta_rel in (0.0, 2.0) else (False,):
            cfg = FlowConfig(certified=True, max_iters=20, grad_tol=1e-300, momentum=momentum)
            voxel = constrained_flow(OP, y, delta, xi_init, cfg)
            image = reconstruct_noisy(grid, MODEL, unbounded, delta, cfg,
                                      np.full((1, 1), xi_init))
            # a ball that holds 0 (delta_rel = 2) is the zero branch: no iteration
            assert voxel.iterations == image.iterations == (0 if delta_rel >= 1.0 else 20)
            assert image.zero_branch_voxels == (delta_rel >= 1.0)
            assert np.array_equal(image.xi_map.ravel(), [voxel.xi_hat])
            assert np.array_equal(image.s_map.ravel(), voxel.s_hat)

    @pytest.mark.parametrize("noise", [0.0, 0.01])
    def test_one_voxel_image_stops_as_the_flow(self, noise):
        # the same loop on the same data: with the default gradient bound and one signal
        # tolerance, both drivers take the same iterates and stop at the same one
        rng = np.random.default_rng(2707)
        unbounded = FieldmapConstraint.uniform(1, 1, np.inf)
        for k in range(20 if noise == 0.0 else 10):
            # momentum needs the signal held, so only the noiseless data also run it
            cfg = FlowConfig(certified=True, keep_trajectory=True, momentum=k >= 10)
            xi0 = complex(rng.uniform(-60.0, 60.0), rng.uniform(0.0, 40.0))
            c0 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            y = MODEL.phi @ c0 * np.exp(2j * np.pi * xi0 * MODEL.times)
            w = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            y = y + noise * np.linalg.norm(y) * w / np.linalg.norm(w)
            delta = noise * float(np.linalg.norm(y))
            xi_init = xi0 + complex(rng.uniform(-3.0, 3.0), rng.uniform(0.0, 3.0))
            voxel = constrained_flow(OP, y, delta, xi_init, cfg)
            image = reconstruct_noisy(
                ImageGrid(y[None, None, :]), MODEL, unbounded, delta, cfg, np.full((1, 1), xi_init)
            )
            assert voxel.converged and image.converged
            assert image.iterations == voxel.iterations
            assert [complex(x[0, 0]) for x in image.trajectory] == list(voxel.trajectory)
            assert np.array_equal(image.s_map.ravel(), voxel.s_hat)

    def test_one_joint_evaluation_per_iteration(self, monkeypatch):
        from csemri import residual

        calls = []
        full, demodulate = imaging.voxelwise_full_residual, residual._demodulate

        def counted_full(op, xi, s):
            calls.append("evaluation")
            return full(op, xi, s)

        def counted_demodulate(op, xi, s):
            calls.append("exp")
            return demodulate(op, xi, s)

        monkeypatch.setattr(imaging, "voxelwise_full_residual", counted_full)
        monkeypatch.setattr(residual, "_demodulate", counted_demodulate)
        truth = small_phantom()
        con = FieldmapConstraint.from_mask(truth.mask, 30.0)
        cfg = FlowConfig(step=2e3, max_iters=7, grad_tol=1e-300)
        res = reconstruct_noisy(truth.grid, MODEL, con, 0.05, cfg, np.full((24, 24), 1.0 + 0j))
        assert res.iterations == 7
        # the value and both gradients take one exponential (the adjoint reuses
        # it), and the concentration estimate at the end one more
        assert calls == ["evaluation", "exp"] * 8 + ["exp"]

    def test_nan_delta_rejected(self):
        truth = small_phantom(side=8, n_shapes=1)
        con = FieldmapConstraint.uniform(8, 8, 30.0)
        cfg = FlowConfig(certified=True, max_iters=5)
        with pytest.raises(DomainError):
            reconstruct_noisy(truth.grid, MODEL, con, np.nan, cfg, np.full((8, 8), 1.0 + 0j))

    def test_non_finite_start_rejected(self):
        truth = small_phantom(side=8, n_shapes=1)
        con = FieldmapConstraint.uniform(8, 8, 30.0)
        cfg = FlowConfig(certified=True, max_iters=5)
        xi = np.full((8, 8), 1.0 + 0j)
        xi[3, 4] = np.nan
        for delta in (0.0, 0.05):
            with pytest.raises(DomainError):
                reconstruct_noisy(truth.grid, MODEL, con, delta, cfg, xi)

    def test_trajectory_records_every_iterate(self):
        truth = small_phantom(side=8, n_shapes=1)
        con = FieldmapConstraint.uniform(8, 8, 30.0)
        cfg = FlowConfig(certified=True, max_iters=5, grad_tol=0.0, keep_trajectory=True)
        start = np.full((8, 8), 1.0 + 0j)
        res = reconstruct_noisy(truth.grid, MODEL, con, 0.0, cfg, start)
        assert res.iterations == 5 and len(res.trajectory) == 6
        assert np.array_equal(res.trajectory[0], start)
        assert np.array_equal(res.trajectory[-1], res.xi_map)
        assert all(x.shape == (8, 8) for x in res.trajectory)
        idle = FlowConfig(certified=True, max_iters=0)
        res = reconstruct_noisy(truth.grid, MODEL, con, 0.0, idle, start)
        assert res.iterations == 0 and not np.shares_memory(res.xi_map, start)  # a copy

    def test_delta_zero_matches_noiseless_path(self):
        truth = small_phantom()
        con = FieldmapConstraint.from_mask(truth.mask, 30.0)
        cfg = FlowConfig(step=2e3, max_iters=30, grad_tol=1e-300)
        a = reconstruct(truth.grid, MODEL, con, cfg, np.full((24, 24), 1.0 + 0j))
        b = reconstruct_noisy(truth.grid, MODEL, con, 0.0, cfg, np.full((24, 24), 1.0 + 0j))
        assert np.allclose(a.xi_map, b.xi_map, atol=1e-12)

    def test_noiseless_objective_reaches_zero(self):
        truth = small_phantom()
        con = FieldmapConstraint.from_mask(truth.mask, 30.0)
        sig_scale = np.linalg.norm(truth.grid.signal) ** 2
        res = reconstruct_noisy(
            truth.grid, MODEL, con, 0.05, FlowConfig(certified=True, max_iters=600),
            truth.xi0_map.copy(),
        )
        assert res.objective_trace[-1] < 1e-18 * sig_scale

    def test_noise_error_within_oracle_band(self):
        truth = small_phantom(side=32, n_shapes=8)
        sigma = 0.01 * np.abs(truth.grid.signal).max()
        con = FieldmapConstraint.from_mask(truth.mask, 30.0)
        mask = truth.mask
        ratios = []
        for seed in range(3):
            noisy, _ = corrupt(truth.grid, CorruptionSpec(sigma=sigma), seed=seed)
            res = reconstruct_noisy(
                noisy, MODEL, con, sigma * np.sqrt(6),
                FlowConfig(certified=True, max_iters=300, grad_tol=1e-9),
                truth.xi0_map.copy(), proj_tol=1e-8,
            )
            c_oracle = voxelwise_concentrations(
                OP, truth.xi0_map.ravel(), noisy.signal.reshape(-1, 6)
            ).reshape(32, 32, 3)
            mse = np.mean(np.abs(res.c_map[mask, :2] - truth.c0_map[mask, :2]) ** 2)
            mse_oracle = np.mean(np.abs(c_oracle[mask, :2] - truth.c0_map[mask, :2]) ** 2)
            ratios.append(mse / mse_oracle)
        assert max(ratios) < 3.0


class TestMomentum:
    """Restarted per-voxel FISTA: a voxel whose extrapolated point raised its objective
    keeps its last accepted point; a field that would leave C_phi keeps every voxel's."""

    def momentum(self, eps):
        con = FieldmapConstraint.uniform(1, 2, eps)
        m = imaging._Momentum(np.arange(2), con, np.zeros(2, complex))
        m.xi, m.f, m.grad = np.zeros((1, 2), complex), np.array([1.0, 1.0]), np.array([3.0, 4.0j])
        m.t, m.beta = np.full(2, 2.0), np.array([0.5, 0.5])
        return m

    def test_a_raised_voxel_keeps_its_accepted_point(self):
        m = self.momentum(eps=2.0)
        xi, f, grad = m.accept(np.ones((1, 2), complex), np.array([2.0, 0.5]),
                               np.array([5.0, 6.0j]))
        assert np.array_equal(xi, [[0.0, 1.0]]) and np.array_equal(f, [1.0, 0.5])
        assert np.array_equal(grad, [3.0, 6.0j]) and np.array_equal(m.t, [1.0, 2.0])
        assert m.restarts == 1

    def test_a_merge_that_leaves_C_phi_keeps_the_accepted_field(self):
        m = self.momentum(eps=0.5)  # (0, 1) differs by more than the bound
        last = m.xi
        xi, f, grad = m.accept(np.ones((1, 2), complex), np.array([2.0, 0.5]),
                               np.array([5.0, 6.0j]))
        assert xi is last and np.array_equal(f, [1.0, 1.0]) and np.array_equal(grad, [3.0, 4.0j])
        assert np.array_equal(m.t, [1.0, 1.0]) and m.restarts == 1

    def test_an_extrapolation_that_leaves_C_phi_takes_the_step(self):
        m = self.momentum(eps=0.5)
        m.z = np.array([0.0, 2.0 + 0j])  # the last step results: extrapolating spreads them
        moved = np.array([[0.1, 0.2j]])
        assert m.extrapolate(moved) is moved
        assert np.array_equal(m.t, [1.0, 1.0]) and not m.beta.any()
        m.z = moved.ravel().copy()
        ahead = m.extrapolate(np.array([[0.2, 0.3 - 0.1j]]))  # a plain step after the reset
        assert np.array_equal(ahead, [[0.2, 0.3]])  # beta = 0, and Im clamped to 0


class TestPerVoxelSteps:
    """Each voxel steps by its own certified step; a step that leaves C_phi
    takes the smallest step over the support and the projection instead."""

    def test_binding_constraint_falls_back_to_a_stationary_point(self):
        truth = small_phantom(side=10)
        # bounds far below the truth's own gradients: the set binds at the solution
        con = FieldmapConstraint.from_mask(truth.mask, 0.05)
        init = np.full((10, 10), 1.0 + 0j)
        y = truth.grid.signal.reshape(-1, 6)
        support = np.flatnonzero(np.any(y != 0, axis=1))
        fallback = certified_step(OP, init.ravel()[support], y[support], 0.5).min()
        for momentum in (False, True):
            cfg = FlowConfig(certified=True, max_iters=200, grad_tol=1e-8, momentum=momentum)
            res = reconstruct(truth.grid, MODEL, con, cfg, init, proj_tol=1e-11)
            assert 0 < res.fallback_iterations < res.iterations == 200
            x = res.xi_map
            assert res.constraint_violation <= 10.0 * 1e-11 * max(np.max(np.abs(x.real)), 1.0)
            assert fallback == res.step_spread[0]
            _, d_xi = imaging.voxelwise_value_and_gradient(OP, x.ravel()[support], y[support])
            grad = 2.0 * np.conj(d_xi) / np.sum(np.abs(y[support]) ** 2, axis=1)
            assert np.max(np.abs(grad)) > 1e3 * cfg.grad_tol  # the gradient alone does not vanish
            # stationary: the projected step of the smallest step returns x
            moved = x.copy()
            moved.ravel()[support] -= fallback * 2.0 * np.conj(d_xi)
            back = project_onto_C_phi(moved, con, proj_tol=1e-11)
            residual = np.abs(back - x).ravel()[support] / fallback
            assert np.max(residual / np.sum(np.abs(y[support]) ** 2, axis=1)) <= cfg.grad_tol

    @pytest.mark.parametrize("delta", [0.0, 0.02])
    def test_noise_voxels_never_iterate_the_projection(self, delta):
        # the CLI's defaults on a noisy image: every voxel has signal and is
        # on the mask, so pure-noise voxels get steps of order 1 / sigma^2
        truth = generate_phantom(default_phantom_spec(width=32, height=32), MODEL)
        sigma = 0.01 * np.abs(truth.grid.signal).max()
        grid, _ = corrupt(truth.grid, CorruptionSpec(sigma=sigma), seed=1)
        assert np.all(grid.signal != 0)
        con = FieldmapConstraint.uniform(32, 32, 30.0)
        cfg = FlowConfig(certified=True, max_iters=100)
        with mock.patch.object(
            imaging, "_dual_projection", side_effect=imaging._dual_projection
        ) as spy:
            res = reconstruct_noisy(grid, MODEL, con, delta, cfg, np.full((32, 32), 1.0 + 0j))
        assert res.iterations == 100
        assert not spy.called
        assert res.constraint_violation == 0.0
        assert res.step_spread[2] > 1e3 * res.step_spread[0]
        assert np.all(np.isfinite(res.xi_map))


class TestSupportRule:
    """The driver evaluates the objective on the voxels whose noise ball excludes 0 only."""

    def test_zero_signal_border_and_mask_voxels_change_nothing(self):
        truth = small_phantom(side=32)  # the mask stays off the grid's edges
        assert not (truth.mask[0].any() or truth.mask[-1].any())
        assert not (truth.mask[:, 0].any() or truth.mask[:, -1].any())
        signal = truth.grid.signal.copy()
        mask = truth.mask.copy()
        signal[np.nonzero(mask)[0][::40], np.nonzero(mask)[1][::40]] = 0.0
        init = truth.xi0_map + 2.0 + 0.5j
        small = reconstruct(
            ImageGrid(signal), MODEL, FieldmapConstraint.from_mask(mask, 30.0),
            FlowConfig(certified=True, max_iters=1000, grad_tol=1e-6), init,
        )
        # the bounded constraints reach no voxel outside the embedded image,
        # so the projection acts on it as on the small grid
        big_signal = np.zeros((40, 44, 6), complex)
        big_signal[4:36, 6:38] = signal
        big_mask = np.zeros((40, 44), bool)
        big_mask[4:36, 6:38] = mask
        big_mask[1:3, 1:40:3] = True  # zero-signal voxels on the mask
        big_init = np.full((40, 44), 1.0 + 0.5j)
        big_init[4:36, 6:38] = init
        big = reconstruct(
            ImageGrid(big_signal), MODEL,
            FieldmapConstraint.from_mask(big_mask, 30.0),
            FlowConfig(certified=True, max_iters=1000, grad_tol=1e-6), big_init,
        )
        assert 0 < small.iterations < 1000 and small.converged
        assert big.iterations == small.iterations
        assert big.converged
        region = big.xi_map[4:36, 6:38]
        assert np.max(np.abs(region - small.xi_map)) <= 1e-12 * np.max(np.abs(small.xi_map))
        assert np.allclose(big.objective_trace, small.objective_trace, rtol=1e-12, atol=0.0)

    def test_faint_signal_off_the_mask_still_moves(self):
        truth = small_phantom(side=32)
        signal = truth.grid.signal.copy()
        i, j = (a[0] for a in np.nonzero(truth.mask))
        signal[0, 0] = 1e-3 * signal[i, j]  # far from the phantom, and faint
        grid = ImageGrid(signal)
        con = FieldmapConstraint.from_mask(truth.mask, 30.0)
        cfg = FlowConfig(step=3e3, max_iters=40, grad_tol=1e-300)
        res = reconstruct(grid, MODEL, con, cfg, np.full((32, 32), 1.0 + 0j))
        voxel = wirtinger_flow(OP, signal[0, 0], 1.0 + 0j, cfg)
        assert res.xi_map[0, 0] != 1.0
        assert abs(voxel.xi_hat - res.xi_map[0, 0]) < 1e-10

    def test_off_support_voxels_move_only_through_the_projection(self):
        truth = small_phantom(side=32)
        support = np.any(truth.grid.signal != 0, axis=2)
        init = truth.xi0_map + 2.0
        init[~support] = 1.0 + 0.5j
        cfg = FlowConfig(certified=True, max_iters=10)
        free = reconstruct_noisy(
            truth.grid, MODEL, FieldmapConstraint.from_mask(truth.mask, 30.0),
            0.05, cfg, init,
        )
        # no bound reaches them: they stay at the start, their signal at 0
        assert np.array_equal(free.xi_map[~support], init[~support])
        assert not np.any(free.s_map[~support])
        assert np.any(free.s_map[support] != truth.grid.signal[support])
        # off the mask no difference is bounded: a spike there is no violation and never moves
        init[0, 0] = 5000.0
        con = FieldmapConstraint.from_mask(truth.mask, 30.0)
        bound = reconstruct_noisy(truth.grid, MODEL, con, 0.05, cfg, init)
        assert bound.iterations > 0
        assert bound.xi_map[0, 0] == 5000.0
        assert bound.constraint_violation <= 1e-8 * 5000.0
        assert not np.any(bound.s_map[~support])


class TestZeroBranch:
    """Where ``delta > 0`` and ``||y|| <= delta``, ``s = 0`` gives ``f = 0``: the voxel
    leaves the support with its signal set to 0."""

    def test_zero_branch_frame_voxels_change_nothing(self):
        truth = small_phantom(side=32)  # the mask stays off the grid's edges
        signal, mask = truth.grid.signal, truth.mask
        delta = 0.05 * float(np.max(np.linalg.norm(signal, axis=2)))
        init = truth.xi0_map + 2.0 + 0.5j
        cfg = FlowConfig(certified=True, max_iters=60, grad_tol=1e-300)
        small = reconstruct_noisy(
            ImageGrid(signal), MODEL,
            FieldmapConstraint.from_mask(mask, 30.0), delta, cfg, init,
        )
        # a frame of pure noise inside the ball, part of it on the mask
        rng = np.random.default_rng(21)
        big_signal = rng.standard_normal((40, 44, 6)) + 1j * rng.standard_normal((40, 44, 6))
        big_signal *= delta * rng.uniform(0.0, 1.0, (40, 44, 1)) / np.linalg.norm(
            big_signal, axis=2, keepdims=True
        )
        big_signal[4:36, 6:38] = signal
        big_mask = np.zeros((40, 44), bool)
        big_mask[4:36, 6:38] = mask
        big_mask[1:3, 1:40:3] = True
        big_init = np.full((40, 44), 1.0 + 0.5j)
        big_init[4:36, 6:38] = init
        big = reconstruct_noisy(
            ImageGrid(big_signal), MODEL,
            FieldmapConstraint.from_mask(big_mask, 30.0), delta, cfg, big_init,
        )
        frame = np.ones((40, 44), bool)
        frame[4:36, 6:38] = False
        assert big.zero_branch_voxels == small.zero_branch_voxels + frame.sum()
        assert big.iterations == small.iterations == 60
        assert big.fallback_iterations == small.fallback_iterations
        assert big.step_spread == pytest.approx(small.step_spread, rel=1e-12)
        on = np.linalg.norm(signal, axis=2) > delta
        assert on.any()
        region = big.xi_map[4:36, 6:38]
        scale = np.max(np.abs(small.xi_map[on]))
        assert np.max(np.abs(region[on] - small.xi_map[on])) <= 1e-12 * scale
        assert np.allclose(big.objective_trace, small.objective_trace, rtol=1e-12, atol=0.0)
        # the frame keeps its start and carries no signal and no concentrations
        assert np.array_equal(big.xi_map[frame], big_init[frame])
        assert not np.any(big.s_map[frame]) and not np.any(big.c_map[frame])

    def test_voxel_just_above_delta_stays_on_the_support(self):
        rng = np.random.default_rng(4)
        xi0 = complex(rng.uniform(-60.0, 60.0), rng.uniform(0.0, 40.0))
        y = MODEL.phi @ (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        y = y * np.exp(2j * np.pi * xi0 * MODEL.times)
        cfg = FlowConfig(certified=True, max_iters=20, grad_tol=1e-300)
        grid = ImageGrid(y[None, None, :])
        unbounded = FieldmapConstraint.uniform(1, 1, np.inf)
        norm = float(np.linalg.norm(y))
        below = np.nextafter(norm, 0.0)
        for delta, zero in ((below, False), (norm, True)):
            voxel = constrained_flow(OP, y, delta, xi0 + 1.0, cfg)
            image = reconstruct_noisy(grid, MODEL, unbounded, delta, cfg, np.full((1, 1), xi0 + 1.0))
            assert image.zero_branch_voxels == int(zero)
            assert voxel.iterations == image.iterations == (0 if zero else 20)
            assert np.array_equal(image.s_map.ravel(), voxel.s_hat)
            assert np.any(voxel.s_hat) != zero
            assert (voxel.xi_hat == xi0 + 1.0) == zero

    def test_recon_noisy_input_raises_no_floating_point_error(self):
        # the CLI's 128^2 phantom, corrupted at 1% and solved with delta 0.02 for
        # 15 iterations; the adjoint divides by conj W(xi)
        truth = generate_phantom(default_phantom_spec(width=128, height=128), MODEL)
        sigma = 0.01 * np.abs(truth.grid.signal).max()
        grid, _ = corrupt(truth.grid, CorruptionSpec(sigma=sigma), seed=1)
        con = FieldmapConstraint.from_mask(np.any(grid.signal != 0, axis=2), 30.0)
        cfg = FlowConfig(certified=True, max_iters=15)
        with np.errstate(all="raise"):
            res = reconstruct_noisy(grid, MODEL, con, 0.02, cfg, np.full((128, 128), 1.0 + 0j))
        assert res.iterations == 15
        assert 0 < res.zero_branch_voxels < 128 * 128
        assert np.all(np.isfinite(res.xi_map)) and np.all(np.isfinite(res.objective_trace))


class TestSeparationCheck:
    def setup_method(self):
        self.period = fieldmap_lattice(rationalize_echoes(MODEL.echoes))

    def test_identical_fields(self):
        xi = RNG.standard_normal((5, 5)) + 1j * RNG.uniform(0, 10, (5, 5))
        rep = separation_check(xi, xi, self.period)
        assert np.all(rep.offsets == 0)
        assert rep.dichotomy_ok

    def test_uniform_period_shift(self):
        xi = RNG.standard_normal((5, 5)) + 0j
        rep = separation_check(xi + self.period, xi, self.period)
        assert np.all(rep.offsets == 1)
        assert rep.dichotomy_ok

    def test_mixed_offsets_flagged(self):
        xi = np.zeros((4, 4), complex)
        shifted = xi.copy()
        shifted[:, :2] += self.period
        rep = separation_check(shifted, xi, self.period)
        assert not rep.dichotomy_ok

    def test_non_lattice_residue_is_mismatch(self):
        xi = np.zeros((3, 3), complex)
        other = xi + 0.37 * self.period
        rep = separation_check(other, xi, self.period, tol=1e-3)
        assert np.all(rep.mismatch)


class TestMetrics:
    def test_perfect_estimate(self):
        truth = RNG.standard_normal((6, 6))
        m = metrics(truth, truth)
        assert m["mse"] == 0.0
        assert m["snr_db"] == 300.0
        assert m["psnr_db"] == 300.0

    def test_zero_estimate_gives_zero_snr(self):
        truth = RNG.standard_normal((6, 6))
        m = metrics(truth, np.zeros_like(truth))
        assert m["snr_db"] == pytest.approx(0.0, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            metrics(np.zeros((2, 2)), np.zeros((3, 3)))

    def test_pdff_pure_fat(self):
        c = np.zeros((1, 1, 2), complex)
        c[0, 0, 1] = 1.0
        assert pdff_map(c, 0, 1)[0, 0] == pytest.approx(100.0)

    def test_pdff_masks_empty_voxels(self):
        c = np.zeros((1, 2, 2), complex)
        c[0, 0] = (0.25, 0.75)
        out = pdff_map(c, 0, 1)
        assert out[0, 0] == pytest.approx(75.0)
        assert np.isnan(out[0, 1])
