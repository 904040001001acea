"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete. Tolerances are pinned here, not configurable.
"""

import time

import numpy as np
from scipy import ndimage

from csemri.imaging import (
    FieldmapConstraint,
    constraint_violation,
    metrics_table,
    project_onto_C_phi,
    reconstruct,
    reconstruct_noisy,
    separation_check,
)
from csemri.lattice import (
    delta_zero_set,
    fieldmap_lattice,
    rationalize_echoes,
    swap_concentrations,
    weighting_error_profile,
)
from csemri.phantom import CorruptionSpec, corrupt, default_phantom_spec, generate_phantom
from csemri.residual import (
    full_residual,
    make_residual_operator,
    residual_derivative,
    residual_matrix,
    residual_pieces,
    residual_value,
    voxelwise_concentrations,
    wirtinger_gradient_f0,
    wirtinger_hessian_f0,
)
from csemri.solver import (
    FlowConfig,
    radius_lambert,
    radius_loose,
    radius_tight,
    regularized_constrained_flow,
    wirtinger_flow,
)
from csemri.species import EchoSpec, Species, build_model, load_species, signal, weighting_diag
from projection_kkt import kkt_residual

HZ_PER_PPM = 3.0 * 42.57747892
WATER = load_species("water")
FAT6 = load_species("fat6", hz_per_ppm=HZ_PER_PPM)
SILICONE = load_species("silicone", hz_per_ppm=HZ_PER_PPM)
FAT1 = Species.single_peak("fat1", -3.4 * HZ_PER_PPM)

WF_MODEL = build_model([WATER, FAT6], EchoSpec.uniform_ms(1.238, 0.986, 6))
WF_OP = make_residual_operator(WF_MODEL)

PHANTOM_MODEL = build_model([WATER, FAT6, SILICONE], EchoSpec.uniform_ms(1.238, 0.986, 6))
PHANTOM_OP = make_residual_operator(PHANTOM_MODEL)


def random_complex(rng, shape=()):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_model(rng):
    species = [
        [WATER, FAT6],
        [WATER, FAT1],
        [WATER, FAT6, SILICONE],
    ][rng.integers(0, 3)]
    n_e = int(rng.integers(2 * len(species), 9))
    echoes = EchoSpec.uniform_ms(rng.uniform(1.0, 1.6), rng.uniform(0.8, 1.2), n_e)
    return build_model(species, echoes)


def test_criterion_1_wirtinger_correctness():
    """Analytic Wirtinger derivatives match chart finite differences."""
    rng = np.random.default_rng(101)
    t_start = time.perf_counter()
    hg, hh = 1e-4, 1e-2
    for _ in range(100):
        model = random_model(rng)
        op = make_residual_operator(model)
        xi = complex(rng.uniform(-300, 300), rng.uniform(0, 50))
        s = random_complex(rng, model.n_e)

        def f(z, sv=s):
            return residual_value(op, z, sv)

        g = wirtinger_gradient_f0(op, xi, s)
        fd_re = (f(xi + hg) - f(xi - hg)) / (2 * hg)
        fd_im = (f(xi + 1j * hg) - f(xi - 1j * hg)) / (2 * hg)
        assert abs(2 * g.d_xi.real - fd_re) <= 1e-6 * max(abs(fd_re), 1e-9)
        assert abs(-2 * g.d_xi.imag - fd_im) <= 1e-6 * max(abs(fd_im), 1e-9)

        hess = wirtinger_hessian_f0(op, xi, s)
        d_rr = (f(xi + hh) - 2 * f(xi) + f(xi - hh)) / hh**2
        d_ii = (f(xi + 1j * hh) - 2 * f(xi) + f(xi - 1j * hh)) / hh**2
        d_ri = (
            f(xi + hh + 1j * hh)
            - f(xi + hh - 1j * hh)
            - f(xi - hh + 1j * hh)
            + f(xi - hh - 1j * hh)
        ) / (4 * hh * hh)
        scale = max(abs(d_rr), abs(d_ii), 1e-12)
        assert abs(2 * hess.d_xixi.real + 2 * hess.d_xixiconj - d_rr) <= 1e-4 * scale
        assert abs(-2 * hess.d_xixi.real + 2 * hess.d_xixiconj - d_ii) <= 1e-4 * scale
        assert abs(-2 * hess.d_xixi.imag - d_ri) <= 1e-4 * scale

        # full residual: signal-block gradient, two random components
        ev = full_residual(op, xi, s)
        for j in rng.integers(0, model.n_e, 2):
            for direction in (1.0, 1j):
                step = np.zeros(model.n_e, dtype=complex)
                step[j] = hg * direction
                fd = (f(xi, s + step) - f(xi, s - step)) / (2 * hg)
                comp = 2 * ev.grad_s_conj[j]
                analytic = comp.real if direction == 1.0 else comp.imag
                assert abs(analytic - fd) <= 1e-6 * max(abs(fd), 1e-9)
    elapsed = time.perf_counter() - t_start
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 1 wirtinger-correctness: PASS ({elapsed:.1f} s)")


def test_criterion_2_residual_algebra():
    """Idempotence, conjugation, exactness, operator-norm inequality."""
    rng = np.random.default_rng(202)
    for _ in range(100):
        xi = complex(rng.uniform(-500, 500), rng.uniform(-50, 50))
        r = residual_matrix(WF_OP, xi)
        assert np.linalg.norm(r @ r - r, "fro") < 1e-10 * np.linalg.norm(r, "fro")
        assert np.linalg.norm(r.conj().T - residual_matrix(WF_OP, np.conj(xi)), "fro") < 1e-12
        for n in (1, 2, 3):
            rn = residual_derivative(WF_OP, xi, n)
            bound = WF_OP.tau_ne**n * np.exp(WF_OP.tau_s * abs(xi.imag) / 2)
            assert np.linalg.norm(rn, 2) <= bound * (1 + 1e-12)

        xi0 = complex(rng.uniform(-500, 500), rng.uniform(0, 50))
        c0 = random_complex(rng, 2)
        s0 = signal(xi0, c0, WF_MODEL)
        assert residual_value(WF_OP, xi0, s0) < 1e-20 * max(np.linalg.norm(s0) ** 4, 1e-12)
    print("\nACCEPTANCE 2 residual-algebra: PASS")


def test_criterion_3_lattice_periodicity():
    """Dense-scan zeros of the weighting error match the lattice at every
    echo count of the 1.3 + 1.05 k family."""
    rng = np.random.default_rng(303)
    t_start = time.perf_counter()
    band = 21000.0
    grid = np.arange(-band, band + 0.005, 0.01)
    zero_sets = {}
    for n_e in (4, 6, 7, 8):
        echoes = EchoSpec.uniform_ms(1.3, 1.05, n_e)
        model = build_model([WATER, FAT6], echoes)
        c0 = random_complex(rng, 2)
        s_tilde = model.phi @ c0
        assert np.all(np.abs(s_tilde) > 1e-3)  # full support
        t = echoes.array()
        mag2 = np.abs(s_tilde) ** 2
        err = weighting_error_profile(grid, s_tilde, t)

        # locate candidate minima, then refine by bisection on the
        # derivative of the squared error
        thresh = 1e-3 * np.max(err)
        idx = np.flatnonzero(err < thresh)
        groups = np.split(idx, np.flatnonzero(np.diff(idx) > 1) + 1)

        def dsq(phi):
            return float(np.sum(4 * np.pi * t * mag2 * np.sin(2 * np.pi * phi * t)))

        zeros = []
        for g in groups:
            k = g[np.argmin(err[g])]
            lo, hi = grid[k] - 0.01, grid[k] + 0.01
            assert dsq(lo) < 0 < dsq(hi)
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if dsq(mid) < 0:
                    lo = mid
                else:
                    hi = mid
            phi_zero = 0.5 * (lo + hi)
            assert weighting_error_profile([phi_zero], s_tilde, t)[0] < 1e-9
            zeros.append(phi_zero)
        zero_sets[n_e] = np.array(zeros)

        period = fieldmap_lattice(rationalize_echoes(echoes)).period_hz
        predicted = period * np.arange(-np.floor(band / period), np.floor(band / period) + 1)
        assert len(zeros) == len(predicted)
        assert np.max(np.abs(np.array(zeros) - predicted)) < 1e-6

    ref = zero_sets[4]
    for n_e in (6, 7, 8):
        assert len(zero_sets[n_e]) == len(ref)
        assert np.max(np.abs(zero_sets[n_e] - ref)) < 1e-6
    elapsed = time.perf_counter() - t_start
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 3 lattice-periodicity: PASS ({elapsed:.1f} s)")


def test_criterion_4_delta_zero_classification():
    """Every returned zero is a kernel point; classifications are faithful."""
    rng = np.random.default_rng(404)
    model = build_model([WATER, FAT6], EchoSpec.uniform_ms(1.3, 1.05, 6))
    zero_set = delta_zero_set(model, search_band_hz=(-1100.0, 1100.0), tol=1e-8)
    assert len(zero_set.zeros) >= 3
    for zero in zero_set.zeros:
        assert zero.sigma_min < 1e-8 * zero_set.sigma_ref
        w = weighting_diag(zero.eta_hz, model.times)
        if zero.exact_recovery:
            for _ in range(20):
                c0 = random_complex(rng, model.n_s)
                rhs = model.phi @ c0
                c_fit = np.linalg.lstsq(w[:, None] * model.phi, rhs, rcond=None)[0]
                assert np.linalg.norm(w * (model.phi @ c_fit) - rhs) < 1e-8 * np.linalg.norm(rhs)
                assert np.linalg.norm(c_fit - c0) < 1e-8 * np.linalg.norm(c0)
        else:
            assert zero.swap_basis is not None  # full kernel for this model
            for _ in range(20):
                c0 = random_complex(rng, model.n_s)
                c_swap = swap_concentrations(zero, c0)
                rhs = model.phi @ c0
                assert (
                    np.linalg.norm(w * (model.phi @ c_swap) - rhs) < 1e-8 * np.linalg.norm(rhs)
                )
    print("\nACCEPTANCE 4 delta-zero-classification: PASS "
          f"({len(zero_set.zeros)} zeros)")


def test_criterion_5_certified_local_convergence():
    """Certified-step flows converge from the Lambert disk; radii nest."""
    rng = np.random.default_rng(505)
    failures = 0
    ordering_violations = 0
    for k in range(200):
        xi0 = complex(rng.uniform(-100, 100), rng.uniform(1, 50))
        c0 = random_complex(rng, 2)
        s0 = signal(xi0, c0, WF_MODEL)
        rl = radius_lambert(WF_OP, xi0, s0, 0.5)
        ro = radius_loose(WF_OP, xi0, s0, 0.5)
        if not rl <= ro:
            ordering_violations += 1
        xi_init = xi0 + rl * np.sqrt(rng.uniform(0, 1)) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        if xi_init.imag < 0:
            xi_init = complex(xi_init.real, 0.0)
        _, r1s = residual_pieces(WF_OP, xi_init, s0, 1)
        gtol = 0.1e-8 * np.linalg.norm(r1s) ** 2
        res = wirtinger_flow(WF_OP, s0, xi_init, FlowConfig(certified=True, grad_tol=gtol))
        if not (res.converged and abs(res.xi_hat - xi0) < 1e-8):
            failures += 1
    assert failures == 0

    # radius nesting including the empirical basin, on a subset: flows
    # started just inside the tight radius must still converge to xi0
    for k in range(20):
        xi0 = complex(rng.uniform(-100, 100), rng.uniform(1, 50))
        c0 = random_complex(rng, 2)
        s0 = signal(xi0, c0, WF_MODEL)
        rl = radius_lambert(WF_OP, xi0, s0, 0.5)
        ro = radius_loose(WF_OP, xi0, s0, 0.5)
        rt = radius_tight(WF_OP, xi0, s0, 0.5, angular_samples=24)
        if not (rl <= ro <= rt):
            ordering_violations += 1
        for ang in np.linspace(0, 2 * np.pi, 8, endpoint=False):
            xi_init = xi0 + 0.98 * rt * np.exp(1j * ang)
            if xi_init.imag < 0:
                xi_init = complex(xi_init.real, 0.0)
            _, r1s = residual_pieces(WF_OP, xi_init, s0, 1)
            res = wirtinger_flow(
                WF_OP, s0, xi_init,
                FlowConfig(certified=True, grad_tol=1e-9 * np.linalg.norm(r1s) ** 2),
            )
            if not (res.converged and abs(res.xi_hat - xi0) < 1e-6):
                ordering_violations += 1
    assert ordering_violations == 0

    # Lambert vs tight contrast on the default phantom (ratio of maxima)
    truth = generate_phantom(default_phantom_spec(), PHANTOM_MODEL)
    ys, xs = np.nonzero(truth.mask)
    lam_max = 0.0
    tight_max = 0.0
    for i, j in zip(ys[::12], xs[::12]):
        xi0 = truth.xi0_map[i, j]
        s0 = truth.grid.signal[i, j]
        lam_max = max(lam_max, radius_lambert(PHANTOM_OP, xi0, s0, 0.5))
        tight_max = max(tight_max, radius_tight(PHANTOM_OP, xi0, s0, 0.5, angular_samples=16))
    assert tight_max > 10.0 * lam_max
    assert lam_max < 1.0  # closed-form bound stays sub-Hz as reported
    print(
        "\nACCEPTANCE 5 certified-local-convergence: PASS "
        f"(0/200 failures, phantom radii {lam_max:.3f} Hz vs {tight_max:.1f} Hz)"
    )


def test_criterion_6_concentration_identifiability():
    """Concentrations and decay are recovered exactly under a lattice-
    ambiguous fieldmap initialization; runtime under five minutes."""
    t_start = time.perf_counter()
    truth = generate_phantom(default_phantom_spec(), PHANTOM_MODEL)
    lattice = fieldmap_lattice(rationalize_echoes(PHANTOM_MODEL.echoes))
    period = lattice.period_hz

    # shift the regions whose centroid lies in the left half of the frame
    labels, n_regions = ndimage.label(truth.mask)
    shift = np.zeros(truth.mask.shape)
    shifted_regions = []
    for r in range(1, n_regions + 1):
        region = labels == r
        if np.mean(np.nonzero(region)[1]) < truth.mask.shape[1] / 2:
            shift[region] = period
            shifted_regions.append(r)
    assert shifted_regions and len(shifted_regions) < n_regions

    constraint = FieldmapConstraint.from_mask(truth.mask, 30.0)
    res = reconstruct(
        truth.grid,
        PHANTOM_MODEL,
        constraint,
        FlowConfig(certified=True, max_iters=100),
        truth.xi0_map + shift,
        proj_tol=1e-9,
    )
    mask = truth.mask
    c_scale = np.max(np.abs(truth.c0_map[mask]))
    assert np.max(np.abs(res.c_map[mask] - truth.c0_map[mask])) < 1e-6 * c_scale
    r2_scale = np.max(np.abs(np.imag(truth.xi0_map[mask])))
    assert np.max(np.abs(np.imag(res.xi_map[mask] - truth.xi0_map[mask]))) < 1e-6 * r2_scale

    report = separation_check(res.xi_map, truth.xi0_map, lattice, tol=1e-3, mask=mask)
    assert not np.any(report.mismatch[mask])
    assert report.offsets_constant_per_region
    for r in range(1, n_regions + 1):
        vals = report.offsets[labels == r]
        expected = 1 if r in shifted_regions else 0
        assert np.all(vals == expected)
    elapsed = time.perf_counter() - t_start
    assert elapsed < 300.0
    print(f"\nACCEPTANCE 6 concentration-identifiability: PASS ({elapsed:.1f} s)")


def test_criterion_7_projection_correctness():
    """The dual fast gradient projection matches a strict QP oracle on 50
    instances; without cvxpy each projection is certified by the KKT
    conditions of the QP."""
    try:
        import cvxpy as cp
    except ImportError:
        cp = None
    rng = np.random.default_rng(707)
    h = w = 8
    if cp is not None:
        x_param = cp.Parameter((h, w))
        eps_param = cp.Parameter((h, w), nonneg=True)
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
                    cons.append(cp.norm(cp.hstack(terms)) <= eps_param[i, j])
        problem = cp.Problem(cp.Minimize(cp.sum_squares(v - x_param)), cons)

    # instance scale keeps the interior-point oracle itself accurate: its
    # x-space error floor grows like the square root of the duality gap
    worst = 0.0
    for _ in range(50):
        x0 = 3.0 * rng.standard_normal((h, w))
        eps = rng.uniform(0.5, 3.0, (h, w))
        constraint = FieldmapConstraint(eps_g=eps)
        mine = project_onto_C_phi(x0.astype(complex), constraint, proj_tol=1e-11).real
        if cp is None:
            bound = 10.0 * 1e-11 * max(float(np.max(np.abs(x0))), 1.0)
            assert constraint_violation(mine, constraint) <= bound
            stationarity, move = kkt_residual(x0, mine, eps)
            worst = max(worst, stationarity / move)
            assert stationarity <= 1e-8 * move
            continue
        x_param.value = x0
        eps_param.value = eps
        problem.solve(
            solver=cp.CLARABEL,
            tol_gap_abs=1e-13,
            tol_gap_rel=1e-13,
            tol_feas=1e-13,
            max_iter=400,
        )
        worst = max(worst, float(np.max(np.abs(mine - v.value))))
        assert worst < 1e-6

    # feasibility of reconstruction results
    truth = generate_phantom(default_phantom_spec(width=24, height=24), PHANTOM_MODEL)
    constraint = FieldmapConstraint.from_mask(truth.mask, 20.0)
    proj_tol = 1e-9
    res = reconstruct(
        truth.grid, PHANTOM_MODEL, constraint,
        FlowConfig(certified=True, max_iters=40),
        np.full(truth.mask.shape, 1.0 + 0j), proj_tol=proj_tol,
    )
    assert res.constraint_violation <= proj_tol * max(1.0, np.abs(res.xi_map.real).max())
    check = "oracle gap" if cp is not None else "KKT stationarity residual"
    print(f"\nACCEPTANCE 7 projection-correctness: PASS (worst {check} {worst:.2e})")


def test_criterion_8_noise_robustness():
    """Constrained reconstruction stays within 3x of the fieldmap-known
    least-squares oracle at 1% noise, over 20 seeds."""
    truth = generate_phantom(default_phantom_spec(), PHANTOM_MODEL)
    mask = truth.mask
    sigma = 0.01 * float(np.max(np.abs(truth.grid.signal)))
    delta = sigma * np.sqrt(PHANTOM_MODEL.n_e)
    constraint = FieldmapConstraint.from_mask(mask, 30.0)
    ratios = []
    last_report = None
    for seed in range(20):
        noisy, _ = corrupt(truth.grid, CorruptionSpec(sigma=sigma), seed=seed)
        res = reconstruct_noisy(
            noisy, PHANTOM_MODEL, constraint, delta,
            FlowConfig(certified=True, max_iters=250, grad_tol=1e-9),
            truth.xi0_map.copy(), proj_tol=1e-8,
        )
        c_oracle = voxelwise_concentrations(
            PHANTOM_OP, truth.xi0_map.ravel(), noisy.signal.reshape(-1, PHANTOM_MODEL.n_e)
        ).reshape(truth.c0_map.shape)
        mse = np.mean(np.abs(res.c_map[mask, :2] - truth.c0_map[mask, :2]) ** 2)
        mse_oracle = np.mean(np.abs(c_oracle[mask, :2] - truth.c0_map[mask, :2]) ** 2)
        ratios.append(mse / mse_oracle)
        if seed == 0:
            names = ("water", "fat", "silicone")
            truth_maps = {n: truth.c0_map[..., k] for k, n in enumerate(names)}
            truth_maps["fieldmap"] = truth.fieldmap
            truth_maps["r2star"] = truth.r2star
            est_maps = {n: res.c_map[..., k] for k, n in enumerate(names)}
            est_maps["fieldmap"] = np.real(res.xi_map)
            est_maps["r2star"] = np.imag(res.xi_map)
            last_report = metrics_table(truth_maps, est_maps)
    assert max(ratios) < 3.0
    # the metrics table carries the full row/column schema for reporting
    assert set(last_report) == {"water", "fat", "silicone", "fieldmap", "r2star"}
    assert all(set(row) == {"mse", "snr_db", "psnr_db"} for row in last_report.values())
    print(
        "\nACCEPTANCE 8 noise-robustness: PASS "
        f"(worst MSE ratio {max(ratios):.2f}, water MSE {last_report['water']['mse']:.2e})"
    )


def test_criterion_9_regularized_dichotomy():
    """Either the estimated signal vanishes or the ball constraint is
    active, across 100 random noisy voxels."""
    rng = np.random.default_rng(909)
    violations = 0
    for _ in range(100):
        xi0 = complex(rng.uniform(-50, 50), rng.uniform(2, 40))
        c0 = random_complex(rng, 2)
        s0 = signal(xi0, c0, WF_MODEL)
        sigma = 0.01 * float(np.max(np.abs(s0)))
        y = s0 + sigma * random_complex(rng, WF_MODEL.n_e) / np.sqrt(2)
        delta = sigma * np.sqrt(WF_MODEL.n_e)
        res = regularized_constrained_flow(
            WF_OP, y, delta, 1e-3, xi0 + 0.001,
            FlowConfig(certified=True, max_iters=20_000),
        )
        gap = min(
            float(np.linalg.norm(res.s_hat)),
            abs(float(np.linalg.norm(y - res.s_hat)) - delta),
        )
        if gap >= 1e-6 * max(float(np.linalg.norm(y)), delta):
            violations += 1
    assert violations == 0
    print("\nACCEPTANCE 9 regularized-dichotomy: PASS (0/100 violations)")
