"""Solution lattice, Delta zero set, swap spectra, identifiability checks."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csemri import lattice
from csemri.errors import DimensionError
from csemri.lattice import (
    _cluster_angles,
    SWAP_RISK,
    delta_matrix,
    delta_zero_set,
    fieldmap_lattice,
    local_identifiability_certificate,
    rationalize_echoes,
    sigma_min_profile,
    swap_concentrations,
    weighting_error_profile,
)
from csemri.species import EchoSpec, Species, build_model, load_species, signal, weighting_diag

RNG = np.random.default_rng(7011)

WATER = Species.single_peak("water")
HZ_PER_PPM = 3.0 * 42.57747892
FAT6 = load_species("fat6", hz_per_ppm=HZ_PER_PPM)
SILICONE = load_species("silicone", hz_per_ppm=HZ_PER_PPM)
DEFAULT_ECHOES = EchoSpec.uniform_ms(1.238, 0.986, 6)  # the CLI's default protocol


def random_complex(shape, rng=RNG):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def brute_force_period(times_s, z_max_hz=30000, step_hz=1.0, tol=1e-9):
    """Smallest positive z (a multiple of step_hz) with z*t_k integer for all k."""
    t = np.asarray(times_s)
    for mult in range(1, int(z_max_hz / step_hz) + 1):
        z = mult * step_hz
        if np.all(np.abs(z * t - np.round(z * t)) < tol):
            return z
    return None


class TestRationalize:
    def test_one_two_three_ms(self):
        st = rationalize_echoes(EchoSpec.from_ms([1, 2, 3]))
        assert st.fractions == ((1, 3), (2, 3), (1, 1))
        assert st.denominator == 3
        lattice = fieldmap_lattice(st)
        assert lattice.period_hz == pytest.approx(1000.0, abs=1e-9)
        # brute-force oracle over 1 Hz multiples
        assert brute_force_period([1e-3, 2e-3, 3e-3]) == 1000.0

    def test_irrational_ratio(self):
        st = rationalize_echoes(EchoSpec((1e-3, np.sqrt(2) * 1e-3)))
        assert not st.commensurable and st.denominator == 0
        assert fieldmap_lattice(st).trivial

    def test_double_echo(self):
        st = rationalize_echoes(EchoSpec((0.7e-3, 1.4e-3)))
        assert st.fractions == ((1, 2), (1, 1))
        assert st.denominator == 2
        period = fieldmap_lattice(st).period_hz
        assert period == pytest.approx(brute_force_period([0.7e-3, 1.4e-3], step_hz=1 / 1.4))

    def test_millisecond_family_all_echo_counts(self):
        # 1.3 + 1.05 k ms has gcd 0.05 ms, so the lattice sits at 20 kHz
        for n in (4, 6, 7, 8):
            st = rationalize_echoes(EchoSpec.uniform_ms(1.3, 1.05, n))
            assert fieldmap_lattice(st).period_hz == pytest.approx(20000.0, rel=1e-12)


class TestWeightingErrorProfile:
    def test_zeros_match_lattice(self):
        echoes = EchoSpec.uniform_ms(1.3, 1.05, 6)
        model = build_model([WATER, FAT6], echoes)
        c0 = random_complex(2)
        s_tilde = model.phi @ c0
        assert np.all(np.abs(s_tilde) > 1e-3)  # full support
        period = fieldmap_lattice(rationalize_echoes(echoes)).period_hz
        err = weighting_error_profile([0.0, period, 2 * period], s_tilde, echoes.array())
        assert np.all(err < 1e-9)
        half = weighting_error_profile([period / 2], s_tilde, echoes.array())
        assert half[0] > 1e-2


class TestDeltaMatrix:
    def setup_method(self):
        self.model = build_model([WATER, FAT6], EchoSpec.uniform_ms(1.3, 1.05, 6))

    def test_eta_zero(self):
        d = delta_matrix(0.0, self.model)
        assert np.array_equal(d[:, :2], self.model.phi)
        assert np.array_equal(d[:, 2:], self.model.phi)

    def test_right_block_independent_of_eta(self):
        d1 = delta_matrix(123.0, self.model)
        d2 = delta_matrix(-77.0 + 5j, self.model)
        assert np.array_equal(d1[:, 2:], d2[:, 2:])

    def test_lattice_point_kernel(self):
        period = fieldmap_lattice(rationalize_echoes(self.model.echoes)).period_hz
        d = delta_matrix(period, self.model)
        c = random_complex(2)
        vec = np.concatenate([c, -c])
        assert np.linalg.norm(d @ vec) < 1e-9 * np.linalg.norm(vec)
        assert np.linalg.svd(d, compute_uv=False)[-1] < 1e-9

    def test_batched_equals_per_eta(self):
        rng = np.random.default_rng(41)
        etas = rng.uniform(-1000.0, 1000.0, (3, 4)) + 1j * np.linspace(0.0, 30.0, 4)
        stack = delta_matrix(etas, self.model)
        assert stack.shape == (3, 4, 6, 4)
        for idx in np.ndindex(etas.shape):
            assert np.array_equal(stack[idx], delta_matrix(etas[idx], self.model))
        grid = etas.real.ravel()
        per_eta = [np.linalg.svd(delta_matrix(eta, self.model), compute_uv=False)[-1]
                   for eta in grid]
        np.testing.assert_allclose(sigma_min_profile(self.model, grid), per_eta, rtol=1e-13)

    def test_profile_is_even_in_eta(self):
        # Delta(-eta) = W(-eta) Delta(eta) P with W(-eta) unitary: the profile is even
        grid = np.random.default_rng(43).uniform(0.0, 1100.0, 200)
        profile = sigma_min_profile(self.model, grid)
        assert np.array_equal(sigma_min_profile(self.model, -grid), profile)
        sigma_ref = np.linalg.svd(delta_matrix(0.0, self.model), compute_uv=False)[0]
        for eta, value in zip(np.concatenate([grid, -grid]), np.concatenate([profile, profile])):
            per_eta = np.linalg.svd(delta_matrix(eta, self.model), compute_uv=False)[-1]
            assert abs(value - per_eta) <= 1e-14 * sigma_ref


class TestDeltaZeroSet:
    def test_rejects_too_few_echoes(self):
        model = build_model([WATER, FAT6], EchoSpec.uniform_ms(1.3, 1.05, 3))
        with pytest.raises(DimensionError):
            delta_zero_set(model)

    def test_incommensurable_returns_origin_only(self):
        t = (1.0e-3, 2.0e-3, np.pi * 1e-3, 4.5e-3)
        model = build_model([WATER, FAT6], EchoSpec(t))
        zs = delta_zero_set(model, search_band_hz=(-500, 500))
        period = fieldmap_lattice(rationalize_echoes(model.echoes)).period_hz
        assert zs.w_period_hz == period == np.inf
        assert len(zs.zeros) == 1
        assert zs.zeros[0].eta_hz == 0.0
        assert zs.zeros[0].exact_recovery

    @pytest.mark.parametrize("echo_times_ms, species", [
        ([1.238 + 0.986 * k for k in range(6)], (WATER, FAT6, SILICONE)),
        ([1.238 + 0.986 * k for k in range(6)], (WATER, FAT6)),
        ([1.3 + 1.05 * k for k in range(6)], (WATER, FAT6, SILICONE)),
        ([1.3 + 1.05 * k for k in range(7)], (WATER, FAT6, SILICONE)),
        ([1.3 + 1.05 * k for k in range(8)], (WATER, FAT6, SILICONE)),
    ])
    def test_w_period_is_the_lattice_period(self, echo_times_ms, species):
        # the five protocols of the identify benchmark
        echoes = EchoSpec.from_ms(echo_times_ms)
        period = fieldmap_lattice(rationalize_echoes(echoes)).period_hz
        assert np.isfinite(period)
        assert delta_zero_set(build_model(species, echoes)).w_period_hz == period

    def test_water_fat_structure_stable_across_echo_counts(self):
        etas = {}
        for n in (4, 6, 7, 8):
            model = build_model([WATER, FAT6], EchoSpec.uniform_ms(1.3, 1.05, n))
            zs = delta_zero_set(model, search_band_hz=(-1100.0, 1100.0))
            etas[n] = zs.etas()
        ref = etas[4]
        assert len(ref) == 3  # -1/dt, 0, +1/dt
        assert ref[1] == pytest.approx(0.0, abs=1e-8)
        assert ref[2] == pytest.approx(1.0 / 1.05e-3, abs=1e-6)
        for n in (6, 7, 8):
            assert len(etas[n]) == len(ref)
            assert np.allclose(etas[n], ref, atol=1e-6)

    def test_against_dense_scan_oracle(self):
        model = build_model([WATER, FAT6], EchoSpec.uniform_ms(1.3, 1.05, 6))
        zs = delta_zero_set(model, search_band_hz=(-1100.0, 1100.0))
        grid = np.arange(-1100.0, 1100.0, 0.01)
        smin = sigma_min_profile(model, grid)
        thresh = 1e-4 * zs.sigma_ref
        dips = np.where(smin < thresh)[0]
        # group consecutive indices into dip candidates
        oracle = []
        start = None
        for i, j in zip(dips, list(dips[1:]) + [None]):
            if start is None:
                start = i
            if j is None or j != i + 1:
                seg = np.arange(start, i + 1)
                oracle.append(grid[seg[np.argmin(smin[seg])]])
                start = None
        assert len(oracle) == len(zs.zeros)
        assert np.allclose(sorted(oracle), zs.etas(), atol=0.02)

    def test_classified_zero_values(self):
        model = build_model([WATER, FAT6], EchoSpec.uniform_ms(1.3, 1.05, 6))
        zs = delta_zero_set(model, search_band_hz=(-1100.0, 1100.0))
        by_eta = {round(z.eta_hz): z for z in zs.zeros}
        assert by_eta[0].exact_recovery
        swap = by_eta[952]
        assert swap.classification == SWAP_RISK
        assert swap.kernel_dim == model.n_s
        # all eigenphases coincide: W(-eta) is scalar on range(Phi), and the
        # scalar is exp(-2 pi i eta t_1)
        lam = np.exp(-2j * np.pi * swap.eta_hz * model.times[0])
        assert np.allclose(np.asarray(swap.swap_phases), lam, atol=1e-8)

    def test_full_lattice_point_is_exact_recovery(self):
        model = build_model([WATER, FAT6], EchoSpec.uniform_ms(1.3, 1.05, 6))
        period = fieldmap_lattice(rationalize_echoes(model.echoes)).period_hz
        zs = delta_zero_set(model, search_band_hz=(period - 100.0, period + 100.0))
        match = [z for z in zs.zeros if abs(z.eta_hz - period) < 1e-6]
        assert len(match) == 1
        assert match[0].exact_recovery
        assert match[0].kernel_dim == model.n_s

    def test_zeros_are_isolated(self):
        model = build_model([WATER, FAT6], EchoSpec.uniform_ms(1.3, 1.05, 6))
        zs = delta_zero_set(model, search_band_hz=(-1100.0, 1100.0))
        etas = zs.etas()
        gap = np.min(np.diff(etas))
        tol_abs = 1e-8 * zs.sigma_ref
        for z in zs.zeros:
            assert z.sigma_min < tol_abs
            for off in (-0.5 * gap, 0.5 * gap):
                away = sigma_min_profile(model, [z.eta_hz + off])[0]
                assert away > 10 * tol_abs

    def test_swap_reconstruction_property(self):
        model = build_model([WATER, FAT6], EchoSpec.uniform_ms(1.3, 1.05, 6))
        zs = delta_zero_set(model, search_band_hz=(-1100.0, 1100.0))
        swaps = [z for z in zs.zeros if z.classification == SWAP_RISK and z.swap_basis is not None]
        assert swaps
        for zero in swaps:
            w = weighting_diag(zero.eta_hz, model.times)
            for _ in range(10):
                c0 = random_complex(model.n_s)
                c = swap_concentrations(zero, c0)
                lhs = w * (model.phi @ c)
                rhs = model.phi @ c0
                assert np.linalg.norm(lhs - rhs) < 1e-8 * np.linalg.norm(rhs)
                # a genuine swap: same signal, different concentrations
                assert np.linalg.norm(c - c0) > 1e-3 * np.linalg.norm(c0)

    def test_exact_recovery_uniqueness(self):
        model = build_model([WATER, FAT6], EchoSpec.uniform_ms(1.3, 1.05, 6))
        zs = delta_zero_set(model, search_band_hz=(-1100.0, 1100.0))
        exact = [z for z in zs.zeros if z.exact_recovery]
        assert exact
        for zero in exact:
            w = weighting_diag(zero.eta_hz, model.times)
            for _ in range(10):
                c0 = random_complex(model.n_s)
                rhs = model.phi @ c0
                c_fit = np.linalg.lstsq(w[:, None] * model.phi, rhs, rcond=None)[0]
                assert np.linalg.norm(w * (model.phi @ c_fit) - rhs) < 1e-10 * np.linalg.norm(rhs)
                assert np.linalg.norm(c_fit - c0) < 1e-8 * np.linalg.norm(c0)

    def test_partial_kernel_swap_pairs(self):
        # three-species model has kernel_dim=1 zeros; their kernels encode a
        # (c0, c_swap) pair realizing the aliased signal
        model = build_model([WATER, FAT6, SILICONE], EchoSpec.uniform_ms(1.3, 1.05, 7))
        zs = delta_zero_set(model, search_band_hz=(-1100.0, 1100.0))
        partial = [z for z in zs.zeros if 0 < z.kernel_dim < model.n_s]
        assert partial
        for zero in partial:
            w = weighting_diag(zero.eta_hz, model.times)
            k = zero.kernel[:, 0]
            c_swap, c0 = k[: model.n_s], -k[model.n_s:]
            lhs = w * (model.phi @ c_swap)
            rhs = model.phi @ c0
            assert np.linalg.norm(lhs - rhs) < 1e-7 * max(np.linalg.norm(rhs), 1e-12)

    @pytest.mark.parametrize(
        "single_peak, first_ms, spacing_ms, n_e",
        [
            # single-peak fat and silicone: the triple root at z = 1 of some
            # minors lands off the unit circle
            (True, 2.0, 0.5, 7),
            (True, 2.0, 0.5, 8),
            (False, 1.238, 0.986, 6),
            (False, 1.3, 1.05, 7),
            (False, 1.0, 1.0, 8),
            (False, 2.0, 1.5, 6),
        ],
    )
    def test_origin_is_exact_recovery(self, single_peak, first_ms, spacing_ms, n_e):
        # Delta(0) = [Phi, Phi] has the n_s-dimensional kernel (c, -c) for every Phi
        if single_peak:
            species = [WATER, Species.single_peak("fat", -3.4 * HZ_PER_PPM),
                       Species.single_peak("silicone", -4.9 * HZ_PER_PPM)]
        else:
            species = [WATER, FAT6, SILICONE]
        model = build_model(species, EchoSpec.uniform_ms(first_ms, spacing_ms, n_e))
        zs = delta_zero_set(model, search_band_hz=(-1100.0, 1100.0))
        origin = [z for z in zs.zeros if abs(z.eta_hz) <= 1e-6]
        assert len(origin) == 1
        assert origin[0].exact_recovery
        assert origin[0].kernel_dim == model.n_s

    def test_single_species_swap_basis(self):
        # rank-1 eigenproblem: basis is the normalized single concentration
        # direction, phase the common root of the two echo phasors; with
        # t = [1.5, 2.5] ms the shift eta = 1000 Hz flips both phasors to -1
        model = build_model([WATER], EchoSpec((1.5e-3, 2.5e-3)))
        zs = delta_zero_set(model, search_band_hz=(100.0, 1900.0))
        swaps = [z for z in zs.zeros if z.classification == SWAP_RISK]
        assert swaps
        for zero in swaps:
            assert zero.kernel_dim == 1
            assert zero.swap_basis.shape == (1, 1)
            assert abs(abs(zero.swap_basis[0, 0]) - 1.0) < 1e-10
            lam = np.exp(-2j * np.pi * zero.eta_hz * model.times[0])
            assert np.allclose(zero.swap_phases[0], lam, atol=1e-8)


def cluster_angles_split(values, radius):
    """``np.split`` into runs and one ``.mean()`` per run (the reference)."""
    if len(values) == 0:
        return values
    values = np.sort(values)
    runs = np.split(values, np.flatnonzero(np.diff(values) > radius) + 1)
    return np.array([run.mean() for run in runs])


class TestZeroSetSteps:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(n_runs=st.integers(0, 30), seed=st.integers(0, 2**32 - 1))
    @example(n_runs=1, seed=3)
    def test_cluster_angles_matches_split_means(self, n_runs, seed):
        rng = np.random.default_rng(seed)
        radius = 1e-6
        lengths = rng.integers(1, 13, n_runs)
        starts = np.cumsum(rng.uniform(10 * radius, 1e3, n_runs))
        values = np.concatenate(
            [s + np.cumsum(rng.uniform(0.0, radius, n)) for s, n in zip(starts, lengths)]
            + [np.empty(0)]
        )
        rng.shuffle(values)
        expected = cluster_angles_split(values, radius)
        assert len(expected) == n_runs
        assert np.array_equal(_cluster_angles(values, radius), expected)


class TestZeroSetBandPrefilter:
    @staticmethod
    def record(zero_set):
        return [(z.eta_hz, z.sigma_min, z.kernel_dim, z.classification) for z in zero_set.zeros]

    def test_default_protocol_polishes_only_band_candidates(self, monkeypatch):
        # 1480 candidates in the 500 kHz W period, 8 of them reach +-1100 Hz
        polished = []
        polish = lattice._polish_zero

        def counted(model, etas_hz, half_width_hz):
            polished.extend(etas_hz)
            return polish(model, etas_hz, half_width_hz)

        monkeypatch.setattr(lattice, "_polish_zero", counted)
        model = build_model([WATER, FAT6, SILICONE], DEFAULT_ECHOES)
        zs = delta_zero_set(model, search_band_hz=(-1100.0, 1100.0))
        assert len(polished) == 8
        assert len(zs.zeros) == 7

    def test_band_wider_than_a_period_contains_the_central_band(self):
        model = build_model([WATER, FAT6, SILICONE], EchoSpec.uniform_ms(1.3, 1.05, 6))
        central = delta_zero_set(model, search_band_hz=(-1100.0, 1100.0))
        period = central.w_period_hz
        assert period == pytest.approx(20000.0, rel=1e-12)
        wide = delta_zero_set(model, search_band_hz=(-1100.0, period + 1100.0))
        inner = [z for z in self.record(wide) if -1100.0 <= z[0] <= 1100.0]
        assert inner == self.record(central)
        # the images one period up repeat the central zeros
        upper = [z for z in self.record(wide) if z[0] >= period - 1100.0]
        assert [z[2:] for z in upper] == [z[2:] for z in self.record(central)]
        np.testing.assert_allclose([z[0] - period for z in upper], central.etas(), atol=1e-9)

    def test_off_zero_band_returns_images_of_the_central_zeros(self):
        model = build_model([WATER, FAT6, SILICONE], EchoSpec.uniform_ms(1.3, 1.05, 6))
        central = delta_zero_set(model, search_band_hz=(-1100.0, 1100.0))
        period = central.w_period_hz
        off = delta_zero_set(model, search_band_hz=(period - 700.0, period + 300.0))
        expected = [z for z in self.record(central) if -700.0 <= z[0] <= 300.0]
        assert off.zeros and len(off.zeros) == len(expected)
        assert [z[2:] for z in self.record(off)] == [z[2:] for z in expected]
        np.testing.assert_allclose(off.etas() - period, [z[0] for z in expected], atol=1e-9)
        assert all(z.sigma_min < 1e-8 * off.sigma_ref for z in off.zeros)


class TestIdentifiabilityCertificate:
    def test_zero_concentration_degenerate(self):
        model = build_model([WATER, FAT6], EchoSpec.uniform_ms(1.3, 1.05, 3))
        report = local_identifiability_certificate(10.0 + 5j, np.zeros(2), model)
        assert report.residual_norm == 0.0
        assert report.suspect

    def test_regime_guard(self):
        model = build_model([WATER, FAT6], EchoSpec.uniform_ms(1.3, 1.05, 5))
        report = local_identifiability_certificate(10.0, random_complex(2), model)
        assert not report.suspect
        assert "regime guard" in report.reason

    def test_random_instance_against_least_squares_oracle(self):
        model = build_model([WATER, FAT6], EchoSpec.uniform_ms(1.3, 1.05, 3))
        for _ in range(20):
            xi0 = complex(RNG.uniform(-200, 200), RNG.uniform(0, 50))
            c0 = random_complex(2)
            report = local_identifiability_certificate(xi0, c0, model)
            # normal-equations oracle
            s0 = signal(xi0, c0, model)
            design = weighting_diag(xi0, model.times)[:, None] * model.phi
            target = model.times * s0
            gram = design.conj().T @ design
            c_star = np.linalg.solve(gram, design.conj().T @ target)
            oracle = np.linalg.norm(target - design @ c_star)
            assert report.residual_norm == pytest.approx(oracle, abs=1e-10)
            # variational check: no perturbation of the minimizer does better
            for _ in range(5):
                dc = 1e-3 * random_complex(2)
                worse = np.linalg.norm(target - design @ (c_star + dc))
                assert worse >= oracle - 1e-12
