"""Residual matrix algebra, Wirtinger derivatives, concentration estimators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csemri.errors import OverflowRisk, RankDeficient
from csemri.lattice import fieldmap_lattice, rationalize_echoes
from csemri.residual import (
    EXP_GUARD,
    concentrations_ri,
    full_residual,
    make_residual_operator,
    residual_derivative,
    residual_matrix,
    residual_pieces,
    residual_value,
    voxelwise_concentrations,
    voxelwise_full_residual,
    voxelwise_signal_gradient,
    voxelwise_value_and_gradient,
    wirtinger_gradient_f0,
    wirtinger_hessian_f0,
)
from csemri.species import (
    EchoSpec,
    Species,
    build_model,
    check_J_full_rank,
    load_species,
    signal,
    weighting_diag,
)

RNG = np.random.default_rng(91403)

WATER = Species.single_peak("water")
HZ_PER_PPM = 3.0 * 42.57747892
FAT6 = load_species("fat6", hz_per_ppm=HZ_PER_PPM)
SILICONE = load_species("silicone", hz_per_ppm=HZ_PER_PPM)
MODEL = build_model([WATER, FAT6], EchoSpec.uniform_ms(1.238, 0.986, 6))
OP = make_residual_operator(MODEL)
OP_3S = make_residual_operator(build_model([WATER, FAT6, SILICONE], MODEL.echoes))

GRAD_H = 1e-4  # first differences: truncation and roundoff both negligible
HESS_H = 1e-2  # second differences need a larger step against roundoff


def random_complex(shape, rng=RNG):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_xi(rng=RNG, re=300.0, im=60.0):
    return complex(rng.uniform(-re, re), rng.uniform(0.0, im))


def weighting_matrix(xi, echoes):
    """The ``n_e x n_e`` weighting matrix ``W(xi)``."""
    return np.diag(weighting_diag(xi, echoes.array()))


def hessian_quadratic_form(h, eta):
    """Action of the Wirtinger Hessian on the direction pair (eta, eta*)."""
    eta = complex(eta)
    return float(2.0 * h.d_xixiconj * abs(eta) ** 2 + 2.0 * np.real(eta * eta * h.d_xixi))


def concentrations_mp(model, xi, s):
    """Least-squares estimate M(xi)^+ s with M(xi) = W(xi) Phi: the oracle for
    concentrations_ri, which it equals for real ``xi`` (unitary weighting)."""
    m = weighting_diag(xi, model.times)[:, None] * model.phi
    return np.linalg.lstsq(m, np.asarray(s, dtype=complex), rcond=None)[0]


class TestOperatorConstruction:
    def test_square_invertible_projector_is_zero(self):
        model = build_model([WATER, FAT6], EchoSpec.uniform_ms(1.3, 1.05, 2))
        op = make_residual_operator(model)
        assert np.linalg.norm(op.p_r) < 1e-12

    def test_water_only_two_echoes_rank_one_formula(self):
        model = build_model([WATER], EchoSpec.uniform_ms(1.3, 1.05, 2))
        op = make_residual_operator(model)
        col = model.phi[:, 0]
        oracle = np.eye(2) - np.outer(col, col.conj()) / np.vdot(col, col)
        assert np.allclose(op.p_r, oracle, atol=1e-13)

    def test_projector_invariants(self):
        assert np.trace(OP.p_r).real == pytest.approx(MODEL.n_e - MODEL.n_s, abs=1e-10)
        assert np.linalg.norm(OP.p_r @ OP.p_r - OP.p_r) < 1e-12
        assert np.linalg.norm(OP.p_r - OP.p_r.conj().T) < 1e-12
        assert np.linalg.norm(OP.p_r @ MODEL.phi) < 1e-12

    def test_tau_values(self):
        t = MODEL.times
        assert OP.tau_s == pytest.approx(4 * np.pi * (t[-1] - t[0]))
        assert OP.tau_ne == pytest.approx(4 * np.pi * t[-1])

    def test_rank_deficient_rejected(self):
        t = (1.0e-3, 1.0e-3 + 1e-15)
        model = build_model([WATER, Species.single_peak("fat", -430.0)], EchoSpec(t))
        with pytest.raises(RankDeficient):
            make_residual_operator(model)


class TestResidualMatrix:
    def test_xi_zero_is_projector(self):
        assert np.allclose(residual_matrix(OP, 0.0), OP.p_r, atol=1e-14)

    def test_kills_model_signals(self):
        for _ in range(20):
            xi = random_xi()
            c = random_complex(2)
            s = signal(xi, c, MODEL)
            assert np.linalg.norm(residual_matrix(OP, xi) @ s) < 1e-10 * np.linalg.norm(s)

    def test_conjugation_and_idempotence(self):
        for _ in range(100):
            xi = complex(RNG.uniform(-500, 500), RNG.uniform(-50, 50))
            r = residual_matrix(OP, xi)
            assert np.linalg.norm(r.conj().T - residual_matrix(OP, np.conj(xi)), "fro") < 1e-12
            assert (
                np.linalg.norm(r @ r - r, "fro") < 1e-10 * np.linalg.norm(r, "fro")
            )

    def test_overflow_guard(self):
        with pytest.raises(OverflowRisk):
            residual_matrix(OP, 1j * 2e4 / MODEL.times[-1])


class TestResidualDerivative:
    def test_first_derivative_has_zero_diagonal(self):
        r1 = residual_derivative(OP, random_xi(), 1)
        assert np.max(np.abs(np.diag(r1))) < 1e-14

    def test_matches_finite_differences(self):
        h = 1e-5
        for _ in range(10):
            xi = random_xi()
            r1 = residual_derivative(OP, xi, 1)
            fd_re = (residual_matrix(OP, xi + h) - residual_matrix(OP, xi - h)) / (2 * h)
            fd_im = (residual_matrix(OP, xi + 1j * h) - residual_matrix(OP, xi - 1j * h)) / (
                2j * h
            )
            for fd in (fd_re, fd_im):  # holomorphic: same along both axes
                assert np.linalg.norm(r1 - fd) < 1e-6 * np.linalg.norm(r1)

    def test_operator_norm_bound(self):
        for _ in range(100):
            xi = complex(RNG.uniform(-2000, 2000), RNG.uniform(-60, 60))
            for n in (1, 2, 3):
                rn = residual_derivative(OP, xi, n)
                bound = OP.tau_ne**n * np.exp(OP.tau_s * abs(xi.imag) / 2)
                assert np.linalg.norm(rn, 2) <= bound * (1 + 1e-12)


class TestResidualValue:
    def test_zero_on_model_signals(self):
        for _ in range(20):
            xi = random_xi()
            c = random_complex(2)
            s = signal(xi, c, MODEL)
            assert residual_value(OP, xi, s) < 1e-20 * max(np.linalg.norm(s) ** 4, 1e-12)

    def test_zero_signal(self):
        assert residual_value(OP, 12.3 + 4j, np.zeros(6)) == 0.0

    def test_direct_composition_oracle(self):
        for _ in range(20):
            xi = random_xi()
            s = random_complex(6)
            w = weighting_matrix(xi, MODEL.echoes)
            w_inv = weighting_matrix(-xi, MODEL.echoes)
            oracle = 0.5 * np.linalg.norm(w @ OP.p_r @ w_inv @ s) ** 2
            assert residual_value(OP, xi, s) == pytest.approx(oracle, rel=1e-12)


class TestWirtingerGradient:
    def test_zero_at_truth(self):
        for _ in range(20):
            xi0 = random_xi()
            s0 = signal(xi0, random_complex(2), MODEL)
            g = wirtinger_gradient_f0(OP, xi0, s0)
            assert abs(g.d_xi) < 1e-12 * np.linalg.norm(s0) ** 2

    def test_matches_chart_finite_differences(self):
        for _ in range(100):
            xi = random_xi()
            s = random_complex(6)

            def f(z):
                return residual_value(OP, z, s)

            fd_re = (f(xi + GRAD_H) - f(xi - GRAD_H)) / (2 * GRAD_H)
            fd_im = (f(xi + 1j * GRAD_H) - f(xi - 1j * GRAD_H)) / (2 * GRAD_H)
            g = wirtinger_gradient_f0(OP, xi, s)
            assert 2 * g.d_xi.real == pytest.approx(fd_re, rel=1e-6, abs=1e-12)
            assert -2 * g.d_xi.imag == pytest.approx(fd_im, rel=1e-6, abs=1e-12)

    def test_zero_at_lattice_shifts(self):
        period = fieldmap_lattice(rationalize_echoes(MODEL.echoes))
        for _ in range(10):
            xi0 = random_xi()
            s0 = signal(xi0, random_complex(2), MODEL)
            for k in (-1, 1, 2):
                g = wirtinger_gradient_f0(OP, xi0 + k * period, s0)
                assert abs(g.d_xi) < 1e-9 * np.linalg.norm(s0) ** 2


class TestWirtingerHessian:
    def test_nonnegative_mixed_entry(self):
        for _ in range(50):
            h = wirtinger_hessian_f0(OP, random_xi(), random_complex(6))
            assert h.d_xixiconj >= 0.0

    def test_matches_chart_second_differences(self):
        hh = HESS_H
        for _ in range(50):
            xi = random_xi()
            s = random_complex(6)

            def f(z):
                return residual_value(OP, z, s)

            d_rr = (f(xi + hh) - 2 * f(xi) + f(xi - hh)) / hh**2
            d_ii = (f(xi + 1j * hh) - 2 * f(xi) + f(xi - 1j * hh)) / hh**2
            d_ri = (
                f(xi + hh + 1j * hh)
                - f(xi + hh - 1j * hh)
                - f(xi - hh + 1j * hh)
                + f(xi - hh - 1j * hh)
            ) / (4 * hh * hh)
            h = wirtinger_hessian_f0(OP, xi, s)
            assert 2 * h.d_xixi.real + 2 * h.d_xixiconj == pytest.approx(d_rr, rel=1e-4, abs=1e-9)
            assert -2 * h.d_xixi.real + 2 * h.d_xixiconj == pytest.approx(d_ii, rel=1e-4, abs=1e-9)
            assert -2 * h.d_xixi.imag == pytest.approx(d_ri, rel=1e-4, abs=1e-9)

    def test_quadratic_form_at_truth(self):
        for _ in range(20):
            xi0 = random_xi()
            s0 = signal(xi0, random_complex(2), MODEL)
            h = wirtinger_hessian_f0(OP, xi0, s0)
            r1s = residual_derivative(OP, xi0, 1) @ s0
            curv = np.linalg.norm(r1s) ** 2
            for _ in range(5):
                eta = random_complex(())
                assert hessian_quadratic_form(h, eta) == pytest.approx(
                    abs(eta) ** 2 * curv, rel=1e-9, abs=1e-14 * curv
                )

    def test_quadratic_form_zero_direction(self):
        h = wirtinger_hessian_f0(OP, random_xi(), random_complex(6))
        assert hessian_quadratic_form(h, 0.0) == 0.0

    def test_quadratic_form_matches_directional_difference(self):
        hh = HESS_H
        for _ in range(25):
            xi = random_xi()
            s = random_complex(6)
            eta = random_complex(())
            eta /= abs(eta)

            def f(z):
                return residual_value(OP, z, s)

            fd = (f(xi + hh * eta) - 2 * f(xi) + f(xi - hh * eta)) / hh**2
            h = wirtinger_hessian_f0(OP, xi, s)
            assert hessian_quadratic_form(h, eta) == pytest.approx(fd, rel=1e-4, abs=1e-9)

    def test_positive_curvature_at_truth_under_full_rank(self):
        assert check_J_full_rank(MODEL).ok
        for _ in range(20):
            xi0 = random_xi()
            c0 = random_complex(2)
            s0 = signal(xi0, c0, MODEL)
            r1s = residual_derivative(OP, xi0, 1) @ s0
            assert np.linalg.norm(r1s) ** 2 > 1e-8 * np.linalg.norm(s0) ** 2


class TestConcentrations:
    def test_ri_inverts_noiseless_signals(self):
        for _ in range(20):
            xi = random_xi()
            c = random_complex(2)
            s = signal(xi, c, MODEL)
            c_hat = concentrations_ri(OP, xi, s)
            assert np.linalg.norm(c_hat - c) < 1e-10 * np.linalg.norm(c)

    def test_ri_zero_signal(self):
        assert np.all(concentrations_ri(OP, 5.0 + 2j, np.zeros(6)) == 0)

    def test_ri_is_least_squares_of_unweighted_system(self):
        # normal-equations oracle for Phi c = W(-xi) s
        for _ in range(10):
            xi = random_xi()
            s = random_complex(6)
            rhs = weighting_matrix(-xi, MODEL.echoes) @ s
            gram = MODEL.phi.conj().T @ MODEL.phi
            oracle = np.linalg.solve(gram, MODEL.phi.conj().T @ rhs)
            assert np.allclose(concentrations_ri(OP, xi, s), oracle, rtol=1e-10)

    def test_mp_equals_ri_for_real_xi(self):
        for _ in range(10):
            xi = RNG.uniform(-400, 400)
            s = random_complex(6)
            assert np.allclose(
                concentrations_mp(MODEL, xi, s), concentrations_ri(OP, xi, s), rtol=1e-10
            )

    def test_mp_inverts_noiseless_signals(self):
        xi = random_xi()
        c = random_complex(2)
        s = signal(xi, c, MODEL)
        assert np.allclose(concentrations_mp(MODEL, xi, s), c, rtol=1e-9)

    def test_mp_differs_from_ri_under_decay(self):
        xi = complex(40.0, 35.0)
        s = random_complex(6)
        c_mp = concentrations_mp(MODEL, xi, s)
        c_ri = concentrations_ri(OP, xi, s)
        assert np.linalg.norm(c_mp - c_ri) > 1e-6 * np.linalg.norm(c_ri)
        # each matches the least-squares solution of its own defining system
        m = weighting_matrix(xi, MODEL.echoes) @ MODEL.phi
        oracle_mp = np.linalg.lstsq(m, s, rcond=None)[0]
        oracle_ri = np.linalg.lstsq(MODEL.phi, weighting_matrix(-xi, MODEL.echoes) @ s, rcond=None)[0]
        assert np.allclose(c_mp, oracle_mp, rtol=1e-9)
        assert np.allclose(c_ri, oracle_ri, rtol=1e-9)


class TestFullResidual:
    def test_zero_at_feasible_pair(self):
        xi = random_xi()
        s = signal(xi, random_complex(2), MODEL)
        ev = full_residual(OP, xi, s)
        scale = np.linalg.norm(s) ** 2
        assert ev.value < 1e-20 * scale**2
        assert abs(ev.grad_xi.d_xi) < 1e-12 * scale
        assert np.linalg.norm(ev.grad_s_conj) < 1e-12 * np.linalg.norm(s)

    def test_signal_gradient_matches_finite_differences(self):
        for _ in range(20):
            xi = random_xi()
            s = random_complex(6)
            ev = full_residual(OP, xi, s)
            for j in range(6):
                for direction in (1.0, 1j):
                    step = np.zeros(6, dtype=complex)
                    step[j] = GRAD_H * direction
                    fd = (
                        residual_value(OP, xi, s + step) - residual_value(OP, xi, s - step)
                    ) / (2 * GRAD_H)
                    analytic = 2 * ev.grad_s_conj[j]
                    expected = analytic.real if direction == 1.0 else analytic.imag
                    assert expected == pytest.approx(fd, rel=1e-6, abs=1e-12)

    def test_scaling_homogeneity(self):
        xi = random_xi()
        s = random_complex(6)
        alpha = random_complex(())
        f1 = full_residual(OP, xi, s).value
        f2 = full_residual(OP, xi, alpha * s).value
        assert f2 == pytest.approx(abs(alpha) ** 2 * f1, rel=1e-12)


class TestVoxelwiseBatches:
    def test_match_scalar_paths(self):
        n = 40
        xis = np.array([random_xi() for _ in range(n)])
        sig = random_complex((n, 6))
        f_b, g_b = voxelwise_value_and_gradient(OP, xis, sig)
        gs_b = voxelwise_signal_gradient(OP, xis, sig)
        c_b = voxelwise_concentrations(OP, xis, sig)
        for i in range(n):
            assert f_b[i] == pytest.approx(residual_value(OP, xis[i], sig[i]), rel=1e-12)
            assert g_b[i] == pytest.approx(
                wirtinger_gradient_f0(OP, xis[i], sig[i]).d_xi, rel=1e-12
            )
            ev = full_residual(OP, xis[i], sig[i])
            assert np.allclose(gs_b[i], ev.grad_s_conj, rtol=1e-12)
            assert np.allclose(c_b[i], concentrations_ri(OP, xis[i], sig[i]), rtol=1e-12)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(1, 12),
        order=st.integers(0, 2),
        three_species=st.booleans(),
        im_share=st.sampled_from([0.0, 0.3, 0.99]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batch_equals_its_batches_of_one(self, n, order, three_species, im_share, seed):
        # gemm on the batch and the single-row product may round differently
        # in the last place, so equality is to 1e-13 of each row's max norm
        op = OP_3S if three_species else OP
        rng = np.random.default_rng(seed)
        im_max = im_share * EXP_GUARD / op.times[-1]  # inside the overflow guard
        xis = rng.uniform(-2000.0, 2000.0, n) + 1j * rng.uniform(-im_max, im_max, n)
        sig = random_complex((n, op.n_e), rng)
        batch = residual_pieces(op, xis, sig, order)
        assert batch.shape == (order + 1, n, op.n_e)
        for i in range(n):
            single = residual_pieces(op, xis[i], sig[i], order)[:, 0]
            for piece, ref in zip(batch[:, i], single):
                assert np.max(np.abs(piece - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestKernelAgainstDenseReferences:
    @staticmethod
    def close(a, ref):
        # max-norm relative error; Euclidean norms would overflow at 15 kHz
        return np.max(np.abs(a - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_orders_zero_to_two(self):
        # strongly decaying parameters (|W| spans ~1e200 across the echoes
        # at Im xi = 15 kHz) and an all-zero signal row ride in the batch
        xis = np.array(
            [random_xi() for _ in range(6)]
            + [complex(40.0, 5000.0), complex(-250.0, 15000.0), complex(3.0, -40.0), 7.0 + 1j]
        )
        sig = random_complex((len(xis), 6))
        sig[-1] = 0.0
        refs = [
            [residual_matrix(OP, xi) @ s] + [residual_derivative(OP, xi, n) @ s for n in (1, 2)]
            for xi, s in zip(xis, sig)
        ]
        for order in (0, 1, 2):
            pieces = residual_pieces(OP, xis, sig, order)
            assert [p.shape for p in pieces] == [(len(xis), 6)] * (order + 1)
            for i, row_refs in enumerate(refs):
                for piece, ref in zip(pieces, row_refs):
                    assert self.close(piece[i], ref)
            assert not any(np.any(p[-1]) for p in pieces)
        # R^H R s overflows doubles at 15 kHz; compare the signal gradient below it
        keep = np.abs(xis.imag) <= 5000.0
        grad_s = voxelwise_signal_gradient(OP, xis[keep], sig[keep])
        for g, xi, s in zip(grad_s, xis[keep], sig[keep]):
            r = residual_matrix(OP, xi)
            assert self.close(g, 0.5 * r.conj().T @ (r @ s))

    def test_overflow_guard_covers_the_batch(self):
        xis = np.array([1.0 + 0j, 1j * 2e4 / MODEL.times[-1]])
        with pytest.raises(OverflowRisk):
            residual_pieces(OP, xis, random_complex((2, 6)), 0)

    def test_signal_gradient_overflow_is_raised(self):
        # R^H R s overflows before any single exponential does: 15 kHz is
        # inside the exp guard but past tau_s |Im xi| = 700
        xis = np.array([1.0 + 0j, 40.0 + 15000j])
        sig = random_complex((2, 6), np.random.default_rng(13))
        assert OP.tau_s * 15000.0 > 700.0 and 15000.0 * MODEL.times[-1] < 700.0 / (2 * np.pi)
        with pytest.raises(OverflowRisk):
            voxelwise_signal_gradient(OP, xis, sig)
        with pytest.raises(OverflowRisk):
            full_residual(OP, xis[1], sig[1])
        just_inside = 40.0 + 1j * 0.99 * 700.0 / OP.tau_s
        with np.errstate(all="raise"):
            grad = voxelwise_signal_gradient(OP, np.array([just_inside]), sig[1:])
            ev = full_residual(OP, just_inside, sig[1])
        assert np.all(np.isfinite(grad)) and np.all(np.isfinite(ev.grad_s_conj))

    def test_value_and_gradient_overflow_is_raised(self):
        # ||R s||^2 of a unit signal overflows to NaN at 12 and 15 kHz, inside
        # the exp guard but past tau_s |Im xi| = 700, like R^H R above
        sig = random_complex(6, np.random.default_rng(17))
        sig /= np.linalg.norm(sig)
        for im in (12000.0, 15000.0):
            assert OP.tau_s * im > 700.0 and im * MODEL.times[-1] < 700.0 / (2 * np.pi)
            xi = 40.0 + 1j * im
            for fn in (residual_value, wirtinger_gradient_f0, wirtinger_hessian_f0):
                with pytest.raises(OverflowRisk):
                    fn(OP, xi, sig)
            with pytest.raises(OverflowRisk):
                voxelwise_value_and_gradient(OP, np.array([1.0 + 0j, xi]), np.stack([sig, sig]))
        just_inside = 40.0 + 1j * 0.99 * 700.0 / OP.tau_s
        with np.errstate(all="raise"):
            value = residual_value(OP, just_inside, sig)
            d_xi = wirtinger_gradient_f0(OP, just_inside, sig).d_xi
            hess = wirtinger_hessian_f0(OP, just_inside, sig)
            f, d_batch = voxelwise_value_and_gradient(OP, np.array([just_inside]), sig[None])
        assert np.all(np.isfinite([value, d_xi, hess.d_xixi, hess.d_xixiconj, f[0], d_batch[0]]))

    def test_exp_guard_binds_first_on_a_late_first_echo(self):
        # with t_ne < 2 t_1 a single exponential overflows before ||R s||^2 does, so the
        # one |Im xi| reduction of each kernel entry point must test the exp guard too
        op = make_residual_operator(build_model([WATER, FAT6], EchoSpec.uniform_ms(4.6, 1.1, 3)))
        assert (op.n_e, op.t_max) == (3, op.times[-1])
        exp_limit = EXP_GUARD / op.t_max
        assert exp_limit < 700.0 / op.tau_s
        sig = random_complex((2, 3), np.random.default_rng(19))
        entry_points = (
            lambda xi: residual_pieces(op, xi, sig, 2),
            lambda xi: voxelwise_value_and_gradient(op, xi, sig),
            lambda xi: voxelwise_full_residual(op, xi, sig),
            lambda xi: voxelwise_concentrations(op, xi, sig),
            lambda xi: residual_value(op, xi[1], sig[1]),
        )
        for fn in entry_points:
            with pytest.raises(OverflowRisk, match="overflow exp"):
                fn(np.array([1.0 + 0j, 40.0 + 1.01j * exp_limit]))
            with np.errstate(all="raise"):
                out = fn(np.array([1.0 + 0j, 40.0 + 0.99j * exp_limit]))
            parts = out if isinstance(out, tuple) else (out,)
            assert all(np.all(np.isfinite(part)) for part in parts)
