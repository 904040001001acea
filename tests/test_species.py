"""Signal model: spectra, model matrix, weighting matrix, forward map."""

import numpy as np
import pytest

from csemri import species
from csemri.errors import CombinatorialLimit, DimensionError, InvalidSpecies
from csemri.species import (
    EchoSpec,
    Species,
    SpectralPeak,
    build_model,
    check_J_full_rank,
    check_submatrices_nonsingular,
    load_species,
    signal,
    weighting_diag,
)

RNG = np.random.default_rng(20240817)


def random_complex(shape, rng=RNG):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


WATER = Species.single_peak("water")
FAT1 = Species.single_peak("fat1", -430.0)
HZ_PER_PPM_3T = 3.0 * 42.57747892
FAT6 = load_species("fat6", hz_per_ppm=HZ_PER_PPM_3T)
PROTOCOL_ECHOES_4 = EchoSpec.uniform_ms(1.3, 1.05, 4)
PROTOCOL_ECHOES_6 = EchoSpec.uniform_ms(1.3, 1.05, 6)


class TestSpeciesValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(InvalidSpecies):
            Species("bad", (SpectralPeak(0.0, 0.5), SpectralPeak(10.0, 0.6)))

    def test_negative_weight_rejected(self):
        with pytest.raises(InvalidSpecies):
            SpectralPeak(0.0, -0.1)

    def test_empty_peaks_rejected(self):
        with pytest.raises(InvalidSpecies):
            Species("empty", ())

    def test_normalized_sums_to_one_exactly(self):
        sp = Species.normalized("f", [1.0, 2.0, 3.0], [0.3, 0.3, 0.3])
        assert abs(sum(p.weight for p in sp.peaks) - 1.0) <= 1e-12

    def test_presets_valid(self):
        for sp in (WATER, FAT6, load_species("silicone", hz_per_ppm=HZ_PER_PPM_3T)):
            assert abs(sum(p.weight for p in sp.peaks) - 1.0) <= 1e-12

    def test_ppm_preset_requires_conversion(self):
        with pytest.raises(InvalidSpecies):
            load_species("fat6")


class TestEchoSpec:
    def test_must_increase(self):
        with pytest.raises(ValueError):
            EchoSpec((2e-3, 1e-3))

    def test_must_be_positive(self):
        with pytest.raises(ValueError):
            EchoSpec((0.0, 1e-3))

    def test_from_ms(self):
        assert EchoSpec.from_ms([1.3, 2.35]).times_s == pytest.approx((1.3e-3, 2.35e-3))


class TestBuildModel:
    def test_single_species_zero_shift_gives_ones_column(self):
        model = build_model([WATER], PROTOCOL_ECHOES_4)
        assert np.allclose(model.phi, 1.0)

    def test_water_fat_single_peak_columns(self):
        model = build_model([WATER, FAT1], PROTOCOL_ECHOES_4)
        t = PROTOCOL_ECHOES_4.array()
        assert np.allclose(model.phi[:, 0], 1.0)
        assert np.allclose(model.phi[:, 1], np.exp(2j * np.pi * (-430.0) * t))

    def test_six_peak_fat_is_convex_phasor_sum(self):
        # direct summation oracle plus the triangle-inequality bound
        model = build_model([WATER, FAT6], PROTOCOL_ECHOES_6)
        t = PROTOCOL_ECHOES_6.array()
        oracle = np.zeros(len(t), dtype=complex)
        for p in FAT6.peaks:
            oracle += p.weight * np.exp(2j * np.pi * p.frequency_hz * t)
        assert np.allclose(model.phi[:, 1], oracle, rtol=0, atol=1e-14)
        assert np.all(np.abs(model.phi[:, 1]) <= 1.0 + 1e-12)

    def test_too_few_echoes_rejected(self):
        with pytest.raises(DimensionError):
            build_model([WATER, FAT1], EchoSpec.from_ms([1.3]))


class TestWeightingMatrix:
    def test_real_xi_unit_modulus(self):
        w = weighting_diag(123.4, PROTOCOL_ECHOES_4.array())
        assert np.allclose(np.abs(w), 1.0)

    def test_decay_entries_strictly_decreasing(self):
        # direct evaluation oracle for xi = i*r
        r = 37.0
        t = PROTOCOL_ECHOES_4.array()
        w = weighting_diag(1j * r, t)
        assert np.allclose(w, np.exp(-2 * np.pi * r * t))
        assert np.all(np.diff(w.real) < 0)

    def test_group_property(self):
        t = PROTOCOL_ECHOES_6.array()
        for _ in range(50):
            x1 = complex(RNG.uniform(-500, 500), RNG.uniform(0, 80))
            x2 = complex(RNG.uniform(-500, 500), RNG.uniform(0, 80))
            lhs = weighting_diag(x1 + x2, t)
            rhs = weighting_diag(x1, t) * weighting_diag(x2, t)
            assert np.allclose(lhs, rhs, rtol=1e-12, atol=0)


class TestSignal:
    def test_zero_concentration(self):
        model = build_model([WATER, FAT1], PROTOCOL_ECHOES_4)
        assert np.all(signal(1.0 + 2.0j, np.zeros(2), model) == 0)

    def test_xi_zero_is_phi_c(self):
        model = build_model([WATER, FAT1], PROTOCOL_ECHOES_4)
        c = random_complex(2)
        assert np.allclose(signal(0.0, c, model), model.phi @ c)

    def test_water_only_unit_modulus(self):
        model = build_model([WATER, FAT1], PROTOCOL_ECHOES_4)
        s = signal(77.7, np.array([1.0, 0.0]), model)
        t = PROTOCOL_ECHOES_4.array()
        assert np.allclose(s, np.exp(2j * np.pi * 77.7 * t))
        assert np.allclose(np.abs(s), 1.0)

    def test_wrong_dimension(self):
        model = build_model([WATER, FAT1], PROTOCOL_ECHOES_4)
        with pytest.raises(DimensionError):
            signal(0.0, np.zeros(3), model)

    def test_linearity_in_c(self):
        model = build_model([WATER, FAT6], PROTOCOL_ECHOES_6)
        for _ in range(25):
            xi = complex(RNG.uniform(-300, 300), RNG.uniform(0, 60))
            a, b = random_complex(2)
            c1, c2 = random_complex(2), random_complex(2)
            lhs = signal(xi, a * c1 + b * c2, model)
            rhs = a * signal(xi, c1, model) + b * signal(xi, c2, model)
            scale = np.linalg.norm(lhs) + 1e-30
            assert np.linalg.norm(lhs - rhs) <= 1e-12 * scale

    def test_shift_property(self):
        model = build_model([WATER, FAT6], PROTOCOL_ECHOES_6)
        for _ in range(25):
            xi0 = complex(RNG.uniform(-300, 300), RNG.uniform(0, 60))
            eta = complex(RNG.uniform(-300, 300), RNG.uniform(-20, 60))
            c = random_complex(2)
            lhs = signal(xi0 + eta, c, model)
            rhs = weighting_diag(eta, model.times) * signal(xi0, c, model)
            assert np.allclose(lhs, rhs, rtol=1e-12, atol=0)


class TestSubmatrixScan:
    def test_square_model_single_selection(self):
        model = build_model([WATER, FAT1], EchoSpec.from_ms([1.3, 2.35]))
        report = check_submatrices_nonsingular(model)
        assert report.worst_selection == (0, 1)
        assert np.isclose(report.min_abs_det, abs(np.linalg.det(model.phi)))

    def test_aliased_echoes_flagged(self):
        # t2 - t1 = 1/df makes the two fat phasors identical
        df = -400.0
        t1 = 1.0e-3
        t2 = t1 + 1.0 / abs(df)
        model = build_model(
            [WATER, Species.single_peak("fat", df)],
            EchoSpec((t1, t2)),
        )
        report = check_submatrices_nonsingular(model)
        assert report.min_abs_det < 1e-10
        assert not report.ok

    def test_protocol_echoes_ok(self):
        model = build_model([WATER, FAT6], PROTOCOL_ECHOES_4)
        report = check_submatrices_nonsingular(model)
        assert report.ok
        # exhaustive determinant oracle
        from itertools import combinations

        dets = [
            abs(np.linalg.det(model.phi[list(sel), :]))
            for sel in combinations(range(4), 2)
        ]
        assert np.isclose(report.min_abs_det, min(dets))

    def test_combinatorial_guard(self, monkeypatch):
        model = build_model([WATER, FAT6], PROTOCOL_ECHOES_6)
        monkeypatch.setattr(species, "MAX_SELECTIONS", 2)
        with pytest.raises(CombinatorialLimit):
            check_submatrices_nonsingular(model)


class TestJRank:
    def test_too_few_echoes(self):
        model = build_model([WATER, FAT1, Species.single_peak("sil", -600.0)],
                            EchoSpec.uniform_ms(1.3, 1.05, 5))
        report = check_J_full_rank(model)
        assert not report.ok
        assert report.reason == "rank deficient by dimension"

    def test_nearly_duplicated_echo_time(self):
        t = (1.0e-3, 1.0e-3 + 1e-15, 3.0e-3, 4.0e-3)
        model = build_model([WATER, FAT1], EchoSpec(t))
        report = check_J_full_rank(model)
        assert report.sigma_min <= 1e-10 * report.sigma_max
        assert not report.ok

    def test_protocol_echoes_full_rank(self):
        model = build_model([WATER, FAT6], PROTOCOL_ECHOES_6)
        report = check_J_full_rank(model)
        assert report.ok
        # singular value decomposition oracle
        j = np.hstack([model.times[:, None] * model.phi, model.phi])
        assert np.isclose(report.sigma_min, np.linalg.svd(j, compute_uv=False)[-1])
