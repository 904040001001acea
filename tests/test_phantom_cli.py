"""Phantom generation, corruption statistics, containers, experiments, CLI."""

import csv
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from csemri import cli, errors, experiments
from csemri.cli import cli_main
from csemri.containers import model_from_config, read_csir, write_csir
from csemri.errors import SpecError
from csemri.imaging import FieldmapConstraint, ImageGrid, reconstruct, reconstruct_noisy
from csemri.experiments import experiment_curvature, experiment_solution_set, write_matrix_csv
from csemri.phantom import (
    CorruptionSpec,
    FieldSpec,
    PhantomSpec,
    Shape,
    corrupt,
    default_phantom_spec,
    generate_phantom,
)
from csemri.solver import FlowConfig
from csemri.species import EchoSpec, build_model, load_species, signal

HZ_PER_PPM = 3.0 * 42.57747892
SPECIES = (
    load_species("water"),
    load_species("fat6", hz_per_ppm=HZ_PER_PPM),
    load_species("silicone", hz_per_ppm=HZ_PER_PPM),
)
MODEL = build_model(SPECIES, EchoSpec.uniform_ms(1.238, 0.986, 6))


class TestGeneratePhantom:
    def test_empty_spec_zero_signal(self):
        spec = PhantomSpec(
            8, 8, (), FieldSpec(0.0), FieldSpec(1.0)
        )
        truth = generate_phantom(spec, MODEL)
        assert np.all(truth.grid.signal == 0)
        assert not truth.mask.any()

    def test_full_frame_uniform_water(self):
        spec = PhantomSpec(
            6,
            6,
            (Shape((2.5, 2.5), 100.0, 0, 1.0),),
            FieldSpec(12.0),
            FieldSpec(7.0),
        )
        truth = generate_phantom(spec, MODEL)
        assert truth.mask.all()
        ref = truth.grid.signal[0, 0]
        assert np.allclose(truth.grid.signal, ref[None, None, :])
        oracle = signal(12.0 + 7.0j, np.array([1.0, 0, 0]), MODEL)
        assert np.allclose(ref, oracle)

    def test_deterministic(self):
        spec = default_phantom_spec()
        a = generate_phantom(spec, MODEL)
        b = generate_phantom(spec, MODEL)
        assert np.array_equal(a.grid.signal, b.grid.signal)

    def test_default_layout(self):
        truth = generate_phantom(default_phantom_spec(), MODEL)
        assert truth.mask.sum() > 1000
        assert np.all(truth.r2star >= 0)
        # pure and mixture disks: fat fractions present from 0 to 1
        fracs = truth.c0_map[truth.mask, 1].real
        assert fracs.min() == 0.0
        assert fracs.max() == 1.0

    def test_bad_species_index(self):
        spec = PhantomSpec(
            4, 4, (Shape((2, 2), 1.5, 7, 1.0),),
            FieldSpec(0.0),
            FieldSpec(1.0),
        )
        with pytest.raises(SpecError):
            generate_phantom(spec, MODEL)

    def test_negative_r2star_rejected(self):
        spec = PhantomSpec(
            4, 4, (Shape((2, 2), 1.5, 0, 1.0),),
            FieldSpec(0.0),
            FieldSpec(-1.0),
        )
        with pytest.raises(SpecError):
            generate_phantom(spec, MODEL)

    @pytest.mark.parametrize(
        "kwargs, name",
        [({"offset": np.nan}, "offset"), ({"offset": -np.inf}, "offset"),
         ({"amplitude": np.inf}, "amplitude"), ({"amplitude": np.nan}, "amplitude"),
         ({"sigma": 0.0}, "sigma"), ({"sigma": -1.0}, "sigma"), ({"sigma": np.nan}, "sigma")],
    )
    def test_non_finite_or_flat_field_spec_raises(self, kwargs, name):
        with pytest.raises(SpecError, match=name):
            FieldSpec(**{"offset": 0.0, "amplitude": 1.0, "sigma": 2.0, **kwargs})


class TestCorrupt:
    def setup_method(self):
        spec = default_phantom_spec(width=16, height=16)
        self.truth = generate_phantom(
            PhantomSpec(16, 16, spec.shapes[:2], spec.fieldmap, spec.r2star), MODEL
        )

    def test_identity_without_noise(self):
        noisy, report = corrupt(self.truth.grid, CorruptionSpec(sigma=0.0), seed=1)
        assert np.array_equal(noisy.signal, self.truth.grid.signal)
        assert np.all(report.budget == 0)

    @pytest.mark.parametrize("seed", [-1, 1.5, None])
    @pytest.mark.parametrize("sigma", [0.0, 0.1])
    def test_seed_that_is_no_nonnegative_integer_raises(self, seed, sigma):
        with pytest.raises(SpecError, match="seed"):
            corrupt(self.truth.grid, CorruptionSpec(sigma=sigma), seed=seed)

    def test_seeded_determinism(self):
        a, _ = corrupt(self.truth.grid, CorruptionSpec(sigma=0.1), seed=9)
        b, _ = corrupt(self.truth.grid, CorruptionSpec(sigma=0.1), seed=9)
        c, _ = corrupt(self.truth.grid, CorruptionSpec(sigma=0.1), seed=10)
        assert np.array_equal(a.signal, b.signal)
        assert not np.array_equal(a.signal, c.signal)

    def test_noise_second_moment(self):
        # Monte-Carlo oracle: E ||y - s||^2 = sigma^2 n_e per voxel
        sigma = 0.3
        rng_draws = 10_000
        spec = PhantomSpec(
            1, 1, (Shape((0, 0), 1.0, 0, 1.0),),
            FieldSpec(0.0),
            FieldSpec(5.0),
        )
        tiny = generate_phantom(spec, MODEL)
        acc = 0.0
        for seed in range(rng_draws):
            noisy, _ = corrupt(tiny.grid, CorruptionSpec(sigma=sigma), seed=seed)
            acc += np.sum(np.abs(noisy.signal - tiny.grid.signal) ** 2)
        mean = acc / rng_draws
        assert mean == pytest.approx(sigma**2 * MODEL.n_e, rel=0.03)

    def test_budget_bounds_mean_deviation(self):
        sigma = 0.2
        means = []
        budgets = []
        for seed in range(200):
            noisy, rep = corrupt(self.truth.grid, CorruptionSpec(sigma=sigma), seed=seed)
            means.append(np.mean(rep.empirical[self.truth.mask]))
            budgets.append(np.mean(rep.budget[self.truth.mask]))
        assert np.mean(means) <= np.mean(budgets)

    def test_mismatch_lies_in_predicted_range(self):
        silicone = SPECIES[2]
        water_fat = build_model(SPECIES[:2], MODEL.echoes)
        truth = generate_phantom(
            PhantomSpec(
                8, 8,
                (Shape((3.5, 3.5), 100, 0, 1.0),),
                FieldSpec(10.0),
                FieldSpec(5.0),
            ),
            water_fat,
        )
        corruption = CorruptionSpec(
            sigma=0.0, mismatch_species=silicone, mismatch_concentration=0.25
        )
        noisy, rep = corrupt(
            truth.grid, corruption, seed=0,
            xi0_map=truth.xi0_map, echo_times_s=MODEL.echoes.times_s,
        )
        delta = (noisy.signal - truth.grid.signal)[0, 0]
        t = MODEL.times
        oracle = (
            np.exp(2j * np.pi * truth.xi0_map[0, 0] * t) * silicone.evaluate(t) * 0.25
        )
        assert np.allclose(delta, oracle)
        assert np.allclose(rep.budget[0, 0], np.linalg.norm(oracle))


class TestCsirContainer:
    def test_round_trip_bit_exact(self, tmp_path):
        truth = generate_phantom(default_phantom_spec(width=16, height=16), MODEL)
        header = tmp_path / "img.json"
        write_csir(header, truth.grid.signal, [1e3 * t for t in MODEL.echoes.times_s])
        back, meta = read_csir(header)
        assert np.array_equal(back, truth.grid.signal)
        assert meta["n_e"] == 6

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        signal=hnp.arrays(
            complex,
            st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 6)),
            elements=st.complex_numbers(allow_nan=True, allow_infinity=True),
        ),
        extra=st.dictionaries(
            st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8).map("x_".__add__),
            st.one_of(
                st.none(), st.booleans(), st.integers(), st.text(max_size=8),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
            max_size=4,
        ),
    )
    @example(signal=np.array([-0.0 + 0.0j, complex(0.0, -0.0), complex(-0.0, -0.0)]).reshape(1, 1, 3), extra={})
    @example(  # NaNs with payloads, a signalling one among them
        signal=np.array([0x7FF0000000000001, 0xFFF8000000000123], np.uint64).view(complex)[None, None],
        extra={},
    )
    def test_round_trip_property(self, signal, extra):
        signal = signal.copy()
        if signal.size >= 2:  # signed zeros in both parts, set without arithmetic
            signal.real.flat[0] = -0.0
            signal.imag.flat[-1] = -0.0
        times = [1.0 + 0.5 * k for k in range(signal.shape[2])]
        with tempfile.TemporaryDirectory() as tmp:
            header = Path(tmp) / "img.json"
            write_csir(header, signal, times, extra_header=extra)
            back, meta = read_csir(header)
            payload = header.with_suffix(".bin").read_bytes()
        # the payload is the interleaved (re, im) float64 buffer, byte for byte
        pairs = np.empty(signal.shape + (2,), dtype="<f8")
        pairs[..., 0], pairs[..., 1] = signal.real, signal.imag
        assert payload == pairs.tobytes()
        assert back.dtype == complex and back.shape == signal.shape
        assert np.array_equal(back.view(np.uint64), signal.view(np.uint64))
        h, w, n_e = signal.shape
        assert (meta["height"], meta["width"], meta["n_e"]) == (h, w, n_e)
        assert meta["echo_times_ms"] == times
        assert {k: meta[k] for k in extra} == extra

    def test_byte_length_validated(self, tmp_path):
        truth = generate_phantom(default_phantom_spec(width=8, height=8), MODEL)
        header = tmp_path / "img.json"
        _, payload = write_csir(header, truth.grid.signal, [1e3 * t for t in MODEL.echoes.times_s])
        with open(payload, "ab") as fh:
            fh.write(b"\x00" * 8)
        with pytest.raises(SpecError):
            read_csir(header)

    @pytest.mark.parametrize("payload", [5, None, ["img.bin"], "../img.bin", "{tmp}/img.bin",
                                         "img\0.bin"])
    def test_payload_that_is_not_a_file_name_exits_2(self, tmp_path, capsys, payload):
        header = tmp_path / "sub" / "img.json"
        header.parent.mkdir()
        _, written = write_csir(header, np.ones((2, 3, 6), dtype=complex),
                                cli.DEFAULT_ACQUISITION["echo_times_ms"])
        argv = ["reconstruct", "--input", str(header), "--max-iters", "1"]
        assert cli_main(argv + ["--out", str(tmp_path / "sub" / "r.npz")]) == 0  # as written
        (tmp_path / "img.bin").write_bytes(written.read_bytes())  # a readable file one level up
        if isinstance(payload, str) and "\0" not in payload:  # a path to a readable payload
            payload = payload.format(tmp=tmp_path)
            assert (header.parent / payload).stat().st_size == written.stat().st_size
        header.write_text(json.dumps({**json.loads(header.read_text()), "payload": payload}))
        out = tmp_path / "r.npz"
        capsys.readouterr()
        assert cli_main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and json.loads(err)["error"] == "SpecError"
        assert not out.exists()


def _csv_writer_reference(path, matrix, header=None):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if header:
            writer.writerow(header)
        for row in np.atleast_2d(np.asarray(matrix)):
            writer.writerow([f"{v:.12g}" for v in row])


class TestExperiments:
    @pytest.mark.parametrize(
        "matrix",
        [
            np.array([[np.nan, np.inf, -np.inf], [-0.0, 1e-300, 5e-324], [1e13, -1.5, 0.1]]),
            np.column_stack([np.arange(-4.0, 4.0, 0.25), np.linspace(0.0, 1.0, 32) ** 3]),
            [(0, 1.0, 2.5), (1, -3.0, 1e-17)],
            np.array([1.0, 2.0, 3.0]),
            np.zeros((0, 2)),
            np.zeros((2, 0)),
        ],
    )
    @pytest.mark.parametrize("header", [None, ("eta_hz", "sigma_min, dB", 'say "q"')])
    def test_matrix_csv_bytes_match_csv_writer(self, tmp_path, matrix, header):
        write_matrix_csv(tmp_path / "fast.csv", matrix, header=header)
        _csv_writer_reference(tmp_path / "ref.csv", matrix, header=header)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_solution_set_artifacts(self, tmp_path, monkeypatch):
        monkeypatch.setattr(experiments, "ECHO_COUNTS", (4, 6))
        monkeypatch.setattr(experiments, "BAND_HZ", (-1000.0, 1000.0))
        monkeypatch.setattr(experiments, "GRID_STEP_HZ", 2.0)
        paths = experiment_solution_set(SPECIES[:2], tmp_path)
        assert all(p.exists() for p in paths)
        with open(tmp_path / "zeros_ne4.json") as fh:
            z4 = json.load(fh)
        with open(tmp_path / "zeros_ne6.json") as fh:
            z6 = json.load(fh)
        assert [round(z["eta_hz"], 4) for z in z4["zeros"]] == [
            round(z["eta_hz"], 4) for z in z6["zeros"]
        ]
        rows = np.loadtxt(tmp_path / "w_error_ne4.csv", delimiter=",", skiprows=1)
        origin = rows[np.argmin(np.abs(rows[:, 0]))]
        assert origin[1] < 1e-10  # phi = 0 has zero error
        away = rows[np.abs(rows[:, 0]) > 100.0]
        assert np.min(away[:, 1]) > 1e-2  # no other zeros inside the band
        # lattice oracle: the error vanishes again exactly at the period
        from csemri.lattice import weighting_error_profile

        echoes = EchoSpec.uniform_ms(1.3, 1.05, 4)
        period = 20000.0
        at = weighting_error_profile([period, period / 2], np.ones(4), echoes.array())
        assert at[0] < 1e-9
        assert at[1] > 1e-2

    def test_solution_set_writes_null_for_infinite_periods(self, tmp_path, monkeypatch):
        monkeypatch.setattr(experiments, "FIRST_ECHO_MS", 1.0)
        monkeypatch.setattr(experiments, "ECHO_SPACING_MS", np.pi / 2)
        monkeypatch.setattr(experiments, "ECHO_COUNTS", (4,))
        monkeypatch.setattr(experiments, "BAND_HZ", (-100.0, 100.0))
        monkeypatch.setattr(experiments, "GRID_STEP_HZ", 10.0)
        experiment_solution_set(SPECIES[:2], tmp_path)

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        doc = json.loads((tmp_path / "zeros_ne4.json").read_text(), parse_constant=reject)
        assert doc["lattice_period_hz"] is None and doc["w_period_hz"] is None
        assert [z["eta_hz"] for z in doc["zeros"]] == [0.0]

    def test_curvature_artifacts(self, tmp_path, monkeypatch):
        spec = default_phantom_spec(width=16, height=16)
        truth = generate_phantom(
            PhantomSpec(16, 16, spec.shapes[:2], spec.fieldmap, spec.r2star), MODEL
        )
        radii = np.geomspace(1.0, 60.0, 6)
        monkeypatch.setattr(experiments, "RADII_HZ", radii)
        monkeypatch.setattr(experiments, "ANGULAR_SAMPLES", 8)
        paths = experiment_curvature(truth, MODEL, tmp_path, stride=13)
        assert all(p.exists() for p in paths)
        with open(tmp_path / "curvature_summary.json") as fh:
            summary = json.load(fh)
        assert summary["max_radius_tight_hz"] > 10 * summary["max_radius_lambert_hz"]
        lam = np.loadtxt(tmp_path / "radius_lambert_map.csv", delimiter=",")
        tight = np.loadtxt(tmp_path / "radius_tight_map.csv", delimiter=",")
        half = np.loadtxt(tmp_path / "radius_half_reduction_map.csv", delimiter=",")
        visited = np.isfinite(lam)
        assert visited.any()
        assert np.all(lam[visited] > 0) and np.all(tight[visited] > 0)
        # the interpolated 50%-reduction radius lies inside its grid bracket
        q = np.loadtxt(tmp_path / "q_profiles.csv", delimiter=",", skiprows=1)
        for i, j in zip(*np.nonzero(visited)):
            rows = q[(q[:, 0] == j) & (q[:, 1] == i)]
            below = rows[rows[:, 3] <= 0.5]
            if len(below) and np.isfinite(half[i, j]):
                first = below[0, 2]
                k = np.searchsorted(radii, first)
                lo = radii[k - 1] if k > 0 else 0.0
                assert lo <= half[i, j] <= first + 1e-9


class TestCli:
    def test_model_info(self, capsys):
        assert cli_main(["model-info"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_e"] == 6 and doc["n_s"] == 3
        assert doc["submatrices"]["ok"] and doc["j_full_rank"]["ok"]

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli_main(["model-info", "--bogus"])
        assert exc.value.code == 2

    def test_malformed_echo_times_exits_2(self, tmp_path, capsys):
        config = tmp_path / "acq.json"
        config.write_text(json.dumps({
            "echo_times_ms": [2, 1, 3, 4, 5, 6],
            "species": ["water", "fat6"],
            "hz_per_ppm": HZ_PER_PPM,
        }))
        assert cli_main(["model-info", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and json.loads(err)["error"] == "DimensionError"

    @pytest.mark.parametrize("times", [["a", 2, 3, 4, 5, 6], 5, None, [[1], 2, 3, 4, 5, 6], "123456"])
    def test_non_numeric_echo_times_exit_2(self, tmp_path, capsys, times):
        config = tmp_path / "acq.json"
        config.write_text(json.dumps({
            "echo_times_ms": times,
            "species": ["water", "fat6"],
            "hz_per_ppm": HZ_PER_PPM,
        }))
        assert cli_main(["model-info", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and json.loads(err)["error"] == "SpecError"

    def test_malformed_flow_config_exits_2(self, tmp_path, capsys):
        ph, flow = tmp_path / "ph.json", tmp_path / "flow.json"
        assert cli_main(["phantom", "--out", str(ph), "--width", "4", "--height", "4"]) == 0
        flow.write_text(json.dumps({"max_iters": "ten"}))
        capsys.readouterr()
        assert cli_main(["reconstruct", "--input", str(ph), "--out", str(tmp_path / "r.npz"),
                         "--flow", str(flow)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and json.loads(err)["error"] == "SpecError"

    @pytest.mark.parametrize(
        "flow, error",
        [
            ({"max_iter": 10}, "SpecError"),
            ({"keep_trajectory": True}, "SpecError"),
            ({"certified": "false"}, "SpecError"),
            ({"step": 1000, "certified": True}, "DomainError"),
            ({"rho": 0.5}, "SpecError"),
            ({"max_iters": 10.5}, "SpecError"),
            ({"max_iters": True}, "SpecError"),
            ({"grad_tol": False}, "SpecError"),
            ({"step": True}, "SpecError"),
            ([], "SpecError"),
            ({"grad_tol": -1}, "DomainError"),
        ],
    )
    @pytest.mark.parametrize("command", ["reconstruct", "solve"])
    def test_flow_config_that_would_be_dropped_exits_2(self, tmp_path, capsys, command, flow, error):
        out = tmp_path / "out"
        if command == "reconstruct":
            ph, path = tmp_path / "ph.json", tmp_path / "flow.json"
            assert cli_main(["phantom", "--out", str(ph), "--width", "4", "--height", "4"]) == 0
            path.write_text(json.dumps(flow))
            argv = ["reconstruct", "--input", str(ph), "--out", str(out), "--flow", str(path)]
        else:
            path = tmp_path / "solve.json"
            path.write_text(json.dumps({
                "acquisition": {"echo_times_ms": [1.238 + 0.986 * k for k in range(6)],
                                "species": ["water"]},
                "signal": [[1.0, 0.0]] * 6,
                "flow": flow,
            }))
            argv = ["solve", "--input", str(path), "--out", str(out)]
        capsys.readouterr()
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and json.loads(err)["error"] == error
        assert not out.exists()

    def test_empty_flow_config_takes_the_flow_config_defaults(self, tmp_path, monkeypatch):
        ph, flow, seen = tmp_path / "ph.json", tmp_path / "flow.json", []

        def stop(grid, model, constraint, cfg, xi_init):
            seen.append(cfg)
            raise errors.NonConvergence("stopped before solving")

        assert cli_main(["phantom", "--out", str(ph), "--width", "4", "--height", "4"]) == 0
        monkeypatch.setattr(cli, "reconstruct", stop)
        for doc in ({}, {"certified": True}, {"grad_tol": None}):
            flow.write_text(json.dumps(doc))
            assert cli_main(["reconstruct", "--input", str(ph), "--out", str(tmp_path / "r.npz"),
                             "--flow", str(flow)]) == 3
        assert seen == [FlowConfig(certified=True)] * 3

    @pytest.mark.parametrize(
        "config",
        [
            {"echo_times_ms": [True, 2.2, 3.2, 4.2, 5.2, 6.2]},
            {"hz_per_ppm": True},
            {"species": [{"name": "q", "peaks": [{"hz": True, "weight": 1}]}]},
            {"species": [{"name": "q", "peaks": [{"ppm": True, "weight": 1}]}]},
            {"species": [{"name": "q", "peaks": [{"hz": 0, "weight": True}]}]},
        ],
    )
    @pytest.mark.parametrize("command", ["reconstruct", "solve"])
    def test_boolean_in_acquisition_config_exits_2(self, tmp_path, capsys, command, config):
        config = {"echo_times_ms": [1.2, 2.2, 3.2, 4.2, 5.2, 6.2], "species": ["water", "fat6"],
                  "hz_per_ppm": HZ_PER_PPM, **config}
        out = tmp_path / "out"
        if command == "reconstruct":
            ph, path = tmp_path / "ph.json", tmp_path / "acq.json"
            assert cli_main(["phantom", "--out", str(ph), "--width", "4", "--height", "4"]) == 0
            path.write_text(json.dumps(config))
            argv = ["reconstruct", "--input", str(ph), "--out", str(out), "--config", str(path)]
        else:
            path = tmp_path / "solve.json"
            path.write_text(json.dumps({"acquisition": config, "signal": [[1.0, 0.0]] * 6}))
            argv = ["solve", "--input", str(path), "--out", str(out)]
        capsys.readouterr()
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and json.loads(err)["error"] == "SpecError"
        assert not out.exists()

    @pytest.mark.parametrize(
        "species, flags",
        [(["water"], []), (["water", "fat6"], ["--water-index", "2"]),
         (["water", "fat6"], ["--fat-index", "-1"])],
    )
    def test_pdff_index_out_of_range_exits_2_before_solving(self, tmp_path, capsys, monkeypatch,
                                                            species, flags):
        ph, acq, out = tmp_path / "ph.json", tmp_path / "acq.json", tmp_path / "r.npz"
        assert cli_main(["phantom", "--out", str(ph), "--width", "4", "--height", "4"]) == 0
        acq.write_text(json.dumps({**cli.DEFAULT_ACQUISITION, "species": species}))
        monkeypatch.setattr(cli, "grid_from_csir", lambda *a, **k: pytest.fail("the image was read"))
        capsys.readouterr()
        argv = ["reconstruct", "--input", str(ph), "--out", str(out), "--config", str(acq)]
        assert cli_main(argv + flags) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and json.loads(err)["error"] == "DimensionError"
        assert not out.exists()

    def test_every_error_has_one_exit_code(self, monkeypatch, capsys):
        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        bases = (errors.InputError, errors.NumericalError)
        classes = set(subclasses(errors.CsemriError)) - set(bases)
        assert len(classes) >= 11
        for cls in classes:
            assert [issubclass(cls, base) for base in bases].count(True) == 1, cls

            def raise_it(args, cls=cls):
                raise cls("raised on purpose")

            monkeypatch.setattr(cli, "cmd_model_info", raise_it)
            assert cli_main(["model-info"]) == (2 if issubclass(cls, errors.InputError) else 3), cls
            assert json.loads(capsys.readouterr().err)["error"] == cls.__name__

    def test_max_iters_with_flow_exits_2(self, tmp_path, capsys):
        ph, flow, out = tmp_path / "ph.json", tmp_path / "flow.json", tmp_path / "r.npz"
        assert cli_main(["phantom", "--out", str(ph), "--width", "4", "--height", "4"]) == 0
        flow.write_text(json.dumps({"max_iters": 3}))
        capsys.readouterr()
        assert cli_main(["reconstruct", "--input", str(ph), "--out", str(out),
                         "--flow", str(flow), "--max-iters", "5"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and json.loads(err)["error"] == "SpecError"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["reconstruct", "corrupt"])
    def test_non_finite_signal_off_the_mask_exits_2(self, tmp_path, capsys, command):
        # the corner voxel holds no species, so its NaN fails the mask threshold
        ph = tmp_path / "ph.json"
        assert cli_main(["phantom", "--out", str(ph), "--width", "16", "--height", "16"]) == 0
        signal, header = read_csir(ph)
        assert not np.any(signal[0, 0])
        signal[0, 0, 2] = np.nan
        write_csir(ph, signal, header["echo_times_ms"])
        out = tmp_path / ("r.npz" if command == "reconstruct" else "noisy.json")
        argv = [command, "--input", str(ph), "--out", str(out)]
        argv += ["--max-iters", "5"] if command == "reconstruct" else ["--sigma", "0.01"]
        capsys.readouterr()
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and json.loads(err)["error"] == "DimensionError"
        assert not out.exists() and not out.with_suffix(".bin").exists()

    @pytest.mark.parametrize(
        "field, value",
        [("signal", [[1, 2, 3]] * 6), ("signal", [["a", 0]] * 6), ("init", [1, 2, 3]),
         ("signal", [])],
    )
    def test_malformed_solve_input_exits_2(self, tmp_path, capsys, field, value):
        doc = {
            "acquisition": {
                "echo_times_ms": [1.238 + 0.986 * k for k in range(6)],
                "species": ["water", "fat6"],
                "hz_per_ppm": HZ_PER_PPM,
            },
            "signal": [[1.0, 0.0]] * 6,
            field: value,
        }
        inp = tmp_path / "solve.json"
        inp.write_text(json.dumps(doc))
        assert cli_main(["solve", "--input", str(inp)]) == 2
        err = capsys.readouterr().err
        expected = "DimensionError" if value == [] else "SpecError"  # no echo is a wrong count
        assert err.count("\n") == 1 and json.loads(err)["error"] == expected

    @pytest.mark.parametrize(
        "field, value",
        [("init", [float("nan"), 0.0]), ("signal", [[1.0, 0.0]] * 5 + [[float("nan"), 0.0]])],
    )
    def test_non_finite_solve_input_exits_2(self, tmp_path, capsys, field, value):
        doc = {
            "acquisition": {
                "echo_times_ms": [1.238 + 0.986 * k for k in range(6)],
                "species": ["water", "fat6"],
                "hz_per_ppm": HZ_PER_PPM,
            },
            "signal": [[1.0, 0.0]] * 6,
            field: value,
        }
        inp, out = tmp_path / "solve.json", tmp_path / "result.json"
        inp.write_text(json.dumps(doc))
        assert cli_main(["solve", "--input", str(inp), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and json.loads(err)["error"] == "DomainError"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flag, doc",
        [
            ("model-info", "--config", [1, 2]),
            ("analyze", "--config", [1, 2]),
            ("solve", "--input", [1, 2]),
            ("solve", "--input", {"acquisition": 5, "signal": [[1.0, 0.0]] * 6}),
        ],
    )
    def test_document_that_is_not_an_object_exits_2(self, tmp_path, capsys, command, flag, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert cli_main([command, flag, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and json.loads(err)["error"] == "SpecError"

    @pytest.mark.parametrize(
        "argv",
        [
            ["experiment", "curvature", "--stride", "0", "--width", "4", "--height", "4"],
            ["experiment", "curvature", "--stride", "-2", "--width", "4", "--height", "4"],
            ["analyze", "--grid-step", "0", "--csv", "{tmp}/f.csv"],
            ["analyze", "--grid-step", "-1", "--csv", "{tmp}/f.csv"],
            ["analyze", "--band", "100", "-100", "--csv", "{tmp}/f.csv"],
            ["analyze", "--band", "100", "100"],
            ["phantom", "--width", "-3"],
            ["phantom", "--width", "0"],
            ["phantom", "--height", "0"],
            ["experiment", "curvature", "--width", "0"],
            ["experiment", "curvature", "--width", "4", "--height", "4"],  # no masked voxel
            ["analyze", "--band", "-100", "inf"],
            ["analyze", "--grid-step", "inf", "--csv", "{tmp}/f.csv"],
            ["analyze", "--grid-step", "1e-300", "--csv", "{tmp}/f.csv"],  # 1e303 rows
            ["analyze", "--band", "0", "1e300"],  # 1e295 periodic images
            ["corrupt", "--sigma", "nan"],
            ["corrupt", "--sigma", "inf"],
            ["corrupt", "--sigma", "nan", "--relative"],
            ["corrupt", "--sigma", "inf", "--relative"],
            ["corrupt", "--seed", "-1"],  # checked without noise too
            ["corrupt", "--seed", "-1", "--sigma", "0.01"],
            ["phantom", "--fieldmap-amplitude", "inf"],
            ["phantom", "--fieldmap-amplitude", "nan"],
            ["corrupt", "--mismatch-species", "silicone", "--mismatch-concentration", "inf"],
            ["corrupt", "--mismatch-species", "silicone", "--mismatch-concentration", "nan"],
            ["corrupt", "--mismatch-species", "silicone"],  # either flag needs the other
            ["corrupt", "--mismatch-concentration", "0.5"],
            ["reconstruct", "--delta", "nan"],
            ["reconstruct", "--delta", "-1"],
            ["reconstruct", "--delta", "inf"],  # a ball that holds every signal fits nothing
            ["reconstruct", "--eps-on-mask", "nan"],
            ["reconstruct", "--eps-on-mask", "-3"],
            ["reconstruct", "--max-iters", "-1"],
        ],
    )
    def test_out_of_range_numbers_exit_2(self, tmp_path, tmp_path_factory, capsys, argv):
        argv = [a.format(tmp=tmp_path) for a in argv]
        if argv[0] in ("experiment", "phantom", "corrupt", "reconstruct"):
            argv += ["--out", str(tmp_path / "exp")]
        # the input lives elsewhere: nothing may appear in tmp_path
        if argv[0] in ("corrupt", "reconstruct"):
            inputs = tmp_path_factory.mktemp("input")
            ph, truth = inputs / "ph.json", inputs / "truth.npz"
            assert cli_main(["phantom", "--out", str(ph), "--truth", str(truth),
                             "--width", "4", "--height", "4"]) == 0
            argv += ["--input", str(ph), "--truth", str(truth)]
            capsys.readouterr()
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and json.loads(err)["error"] == "SpecError"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "config",
        [
            {"species": 5},
            {"species": [5]},
            {"species": ["water", "fat6"], "hz_per_ppm": "x"},
            {"species": [{"name": "q", "peaks": [{"hz": "q", "weight": 1}]}]},
        ],
    )
    def test_malformed_species_exit_2(self, tmp_path, capsys, config):
        path = tmp_path / "acq.json"
        path.write_text(json.dumps({"echo_times_ms": [1.2, 2.2, 3.2, 4.2, 5.2, 6.2], **config}))
        assert cli_main(["model-info", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and json.loads(err)["error"] == "SpecError"

    @pytest.mark.parametrize("key", ["width", "height", "n_e"])
    def test_empty_container_exits_2(self, tmp_path, capsys, key):
        header = tmp_path / "img.json"
        write_csir(header, np.ones((2, 3, 6), dtype=complex), [1.2, 2.2, 3.2, 4.2, 5.2, 6.2])
        header.write_text(json.dumps({**json.loads(header.read_text()), key: 0}))
        header.with_suffix(".bin").write_bytes(b"")
        out = tmp_path / "r.npz"
        assert cli_main(["reconstruct", "--input", str(header), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and json.loads(err)["error"] == "SpecError"
        assert not out.exists()

    @pytest.mark.parametrize("doc", [5, None])
    def test_header_that_is_not_an_object_exits_2(self, tmp_path, capsys, doc):
        header = tmp_path / "img.json"
        header.write_text(json.dumps(doc))
        out = tmp_path / "r.npz"
        assert cli_main(["reconstruct", "--input", str(header), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and json.loads(err)["error"] == "SpecError"
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("width", "x"), ("height", 2.0), ("n_e", True)])
    def test_non_integer_size_exits_2(self, tmp_path, capsys, key, value):
        header = tmp_path / "img.json"
        write_csir(header, np.ones((2, 3, 6), dtype=complex), [1.2, 2.2, 3.2, 4.2, 5.2, 6.2])
        header.write_text(json.dumps({**json.loads(header.read_text()), key: value}))
        out = tmp_path / "r.npz"
        assert cli_main(["reconstruct", "--input", str(header), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and json.loads(err)["error"] == "SpecError"
        assert not out.exists()

    @pytest.mark.parametrize(
        "times",
        [
            ["a", 2.2, 3.2, 4.2, 5.2, 6.2],
            [1.2, 2.2, 3.2, 4.2, 5.2, None],
            [1.2, 2.2, 3.2, 4.2, 5.2, float("nan")],
            [1.2, 2.2, 3.2, 4.2, 5.2, 10**400],
            [1.2, 2.2, 3.2],
            "1.2",
        ],
    )
    def test_malformed_header_echo_times_exit_2(self, tmp_path, capsys, times):
        header = tmp_path / "img.json"
        write_csir(header, np.ones((2, 3, 6), dtype=complex), [1.2, 2.2, 3.2, 4.2, 5.2, 6.2])
        header.write_text(json.dumps({**json.loads(header.read_text()), "echo_times_ms": times}))
        out = tmp_path / "noisy.json"
        assert cli_main(["corrupt", "--input", str(header), "--out", str(out), "--sigma", "0.01"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and json.loads(err)["error"] == "SpecError"
        assert not out.exists() and not out.with_suffix(".bin").exists()

    @pytest.mark.parametrize("flag, value", [("--eps-on-mask", "inf"), ("--eps-on-mask", "0"),
                                             ("--delta", "0")])
    def test_bounds_at_the_ends_of_their_range_are_accepted(self, tmp_path, capsys, flag, value):
        ph = tmp_path / "ph.json"
        assert cli_main(["phantom", "--out", str(ph), "--width", "8", "--height", "8"]) == 0
        out = tmp_path / "r.npz"
        assert cli_main(["reconstruct", "--input", str(ph), "--out", str(out), "--max-iters", "5",
                         flag, value]) == 0
        assert np.all(np.isfinite(np.load(out)["xi_map"]))

    def test_metrics_are_on_mask(self, tmp_path):
        rng = np.random.default_rng(43)
        mask = np.zeros((5, 6), dtype=bool)
        mask[1:4, 2:5] = True
        c0 = rng.standard_normal((5, 6, 3)) + 1j * rng.standard_normal((5, 6, 3))
        xi0 = rng.uniform(-50, 50, (5, 6)) + 1j * rng.uniform(0, 30, (5, 6))
        truth, recon, out = tmp_path / "truth.npz", tmp_path / "recon.npz", tmp_path / "m.json"
        np.savez(truth, c0_map=c0, xi0_map=xi0, mask=mask)
        np.savez(recon, c_map=c0, xi_map=np.where(mask, xi0, xi0 + 1000.0))
        assert cli_main(["metrics", "--truth", str(truth), "--recon", str(recon),
                         "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["fieldmap"]["mse"] == 0.0 and report["r2star"]["mse"] == 0.0
        assert all(report[f"species_{k}"]["mse"] == 0.0 for k in range(3))
        np.savez(truth, c0_map=c0, xi0_map=xi0, mask=np.zeros_like(mask))
        assert cli_main(["metrics", "--truth", str(truth), "--recon", str(recon)]) == 2

    def test_missing_file_exits_2(self, capsys):
        assert cli_main(["analyze", "--config", "/nonexistent.json"]) == 2
        err = capsys.readouterr().err
        assert json.loads(err)["error"] == "FileNotFoundError"

    def test_solve_end_to_end(self, tmp_path, capsys):
        model = build_model(SPECIES[:2], MODEL.echoes)
        xi0 = 8.0 + 12.0j
        c0 = np.array([0.4, 0.6 + 0j])
        s = signal(xi0, c0, model)
        doc = {
            "acquisition": {
                "echo_times_ms": [1.238 + 0.986 * k for k in range(6)],
                "species": ["water", "fat6"],
                "hz_per_ppm": HZ_PER_PPM,
            },
            "signal": [[z.real, z.imag] for z in s],
            "init": [xi0.real + 0.002, xi0.imag],
            "flow": {"certified": True, "max_iters": 5000},
        }
        inp = tmp_path / "solve.json"
        inp.write_text(json.dumps(doc))
        out = tmp_path / "result.json"
        traj = tmp_path / "traj.csv"
        assert cli_main(["solve", "--input", str(inp), "--out", str(out), "--trajectory", str(traj)]) == 0
        res = json.loads(out.read_text())
        assert res["converged"]
        assert abs(complex(*res["xi_hat"]) - xi0) < 1e-5
        assert traj.exists()

    def test_phantom_corrupt_reconstruct_pipeline(self, tmp_path, capsys):
        ph = tmp_path / "ph.json"
        truth = tmp_path / "truth.npz"
        noisy = tmp_path / "noisy.json"
        recon = tmp_path / "recon.npz"
        met = tmp_path / "metrics.json"
        assert cli_main([
            "phantom", "--out", str(ph), "--truth", str(truth),
            "--width", "24", "--height", "24",
        ]) == 0
        assert cli_main([
            "corrupt", "--input", str(ph), "--out", str(noisy),
            "--sigma", "0.01", "--relative", "--seed", "7",
        ]) == 0
        capsys.readouterr()
        assert cli_main([
            "reconstruct", "--input", str(noisy), "--out", str(recon),
            "--truth", str(truth), "--metrics-out", str(met),
            "--delta", "0.02", "--max-iters", "120",
        ]) == 0
        report = json.loads(met.read_text())
        assert set(report["metrics"]) == {"water", "fat6", "silicone", "fieldmap", "r2star"}
        data = np.load(recon)
        assert data["c_map"].shape == (24, 24, 3)
        assert cli_main(["metrics", "--truth", str(truth), "--recon", str(recon), "--out",
                         str(tmp_path / "m2.json")]) == 0

    def test_mismatch_species_takes_the_phantom_field_strength(self, tmp_path, capsys):
        config = {"echo_times_ms": cli.DEFAULT_ACQUISITION["echo_times_ms"],
                  "species": ["water", "fat6", "silicone"], "hz_per_ppm": 63.87}
        acq, ph, truth, out = (tmp_path / n for n in ("acq.json", "ph.json", "t.npz", "c.json"))
        acq.write_text(json.dumps(config))
        assert cli_main(["phantom", "--config", str(acq), "--out", str(ph), "--truth", str(truth),
                         "--width", "16", "--height", "16"]) == 0
        assert cli_main(["corrupt", "--input", str(ph), "--out", str(out), "--truth", str(truth),
                         "--mismatch-species", "silicone", "--mismatch-concentration", "0.25"]) == 0
        signal, header = read_csir(ph)
        expected, _ = corrupt(
            ImageGrid(signal),
            CorruptionSpec(sigma=0.0, mismatch_species=load_species("silicone", hz_per_ppm=63.87),
                           mismatch_concentration=0.25 + 0j),
            seed=0, xi0_map=np.load(truth)["xi0_map"],
            echo_times_s=[1e-3 * t for t in header["echo_times_ms"]],
        )
        assert np.array_equal(read_csir(out)[0], expected.signal)
        assert header["hz_per_ppm"] == 63.87

    def test_corrupt_keeps_the_field_strength(self, tmp_path, capsys):
        # a second corrupt reads the species count and field strength the first one kept
        config = {"echo_times_ms": cli.DEFAULT_ACQUISITION["echo_times_ms"],
                  "species": ["water", "fat6", "silicone"], "hz_per_ppm": 63.87}
        acq, ph, truth, noisy, out = (
            tmp_path / n for n in ("acq.json", "ph.json", "t.npz", "n.json", "c.json")
        )
        acq.write_text(json.dumps(config))
        assert cli_main(["phantom", "--config", str(acq), "--out", str(ph), "--truth", str(truth),
                         "--width", "16", "--height", "16"]) == 0
        assert cli_main(["corrupt", "--input", str(ph), "--out", str(noisy),
                         "--sigma", "0.01", "--relative"]) == 0
        assert cli_main(["corrupt", "--input", str(noisy), "--out", str(out), "--truth", str(truth),
                         "--mismatch-species", "silicone", "--mismatch-concentration", "0.25"]) == 0
        header = json.loads(noisy.read_text())
        assert (header["n_s"], header["hz_per_ppm"]) == (3, 63.87)
        model = model_from_config(config)
        phantom = generate_phantom(default_phantom_spec(width=16, height=16), model)
        sigma = 0.01 * float(np.max(np.abs(phantom.grid.signal)))
        first, _ = corrupt(phantom.grid, CorruptionSpec(sigma=sigma), seed=0)
        expected, _ = corrupt(
            first,
            CorruptionSpec(sigma=0.0, mismatch_species=load_species("silicone", hz_per_ppm=63.87),
                           mismatch_concentration=0.25 + 0j),
            seed=0, xi0_map=phantom.xi0_map,
            echo_times_s=[1e-3 * t for t in header["echo_times_ms"]],
        )
        assert np.array_equal(read_csir(out)[0], expected.signal)

    @pytest.mark.parametrize(
        "config", [{"hz_per_ppm": 63.87}, {"echo_times_ms": [1.3 + 1.05 * k for k in range(6)]}]
    )
    def test_reconstruct_refuses_an_image_of_another_scan(self, tmp_path, capsys, config):
        acq, ph, out = tmp_path / "acq.json", tmp_path / "ph.json", tmp_path / "r.npz"
        acq.write_text(json.dumps({**cli.DEFAULT_ACQUISITION, **config}))
        assert cli_main(["phantom", "--config", str(acq), "--out", str(ph),
                         "--width", "16", "--height", "16"]) == 0
        capsys.readouterr()
        argv = ["reconstruct", "--input", str(ph), "--out", str(out), "--max-iters", "50"]
        assert cli_main(argv) == 2  # the default model is another scan's
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and json.loads(err)["error"] == "SpecError"
        assert not out.exists()
        # the scan's own model passes, also with the echo times as the config gives them,
        # whose ms -> s -> ms round trip is inexact
        times_ms = json.loads(acq.read_text())["echo_times_ms"]
        assert any(t != 1e3 * (1e-3 * t) for t in times_ms)
        ph.write_text(json.dumps({**json.loads(ph.read_text()), "echo_times_ms": times_ms}))
        assert cli_main(argv + ["--config", str(acq)]) == 0

    @pytest.mark.parametrize("hz_per_ppm, error", [("x", "SpecError"), (None, "InvalidSpecies")])
    def test_mismatch_species_without_a_field_strength_exits_2(self, tmp_path, capsys, hz_per_ppm,
                                                               error):
        ph, truth, out = tmp_path / "ph.json", tmp_path / "t.npz", tmp_path / "c.json"
        assert cli_main(["phantom", "--out", str(ph), "--truth", str(truth),
                         "--width", "8", "--height", "8"]) == 0
        ph.write_text(json.dumps({**json.loads(ph.read_text()), "hz_per_ppm": hz_per_ppm}))
        assert cli_main(["corrupt", "--input", str(ph), "--out", str(out), "--truth", str(truth),
                         "--mismatch-species", "silicone", "--mismatch-concentration", "0.25"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and json.loads(err)["error"] == error
        assert not out.exists()

    def test_cli_and_library_reconstruct_a_clean_image_alike(self, tmp_path):
        # the library's defaults reach the CLI's iterates: both drivers pick the same step rule
        ph, recon = tmp_path / "ph.json", tmp_path / "r.npz"
        assert cli_main(["phantom", "--out", str(ph), "--width", "32", "--height", "32"]) == 0
        assert cli_main(["reconstruct", "--input", str(ph), "--out", str(recon)]) == 0
        signal = read_csir(ph)[0]
        mask = np.any(signal != 0, axis=2)
        res = reconstruct(
            ImageGrid(signal), model_from_config(cli.DEFAULT_ACQUISITION),
            FieldmapConstraint.from_mask(mask, 30.0), FlowConfig(certified=True, max_iters=2000),
            np.full(mask.shape, 1.0 + 0j),
        )
        data = np.load(recon)
        for name in ("xi_map", "c_map", "s_map"):
            assert np.array_equal(data[name].view(np.uint64), getattr(res, name).view(np.uint64))

    def test_cli_and_library_reconstruct_a_noisy_image_alike(self, tmp_path, capsys):
        ph, noisy, recon = tmp_path / "ph.json", tmp_path / "noisy.json", tmp_path / "r.npz"
        assert cli_main(["phantom", "--out", str(ph)]) == 0
        assert cli_main(["corrupt", "--input", str(ph), "--out", str(noisy),
                         "--sigma", "0.01", "--relative", "--seed", "7"]) == 0
        assert cli_main(["reconstruct", "--input", str(noisy), "--out", str(recon),
                         "--delta", "0.02", "--max-iters", "30"]) == 0
        signal = read_csir(noisy)[0]
        mask = np.any(signal != 0, axis=2)  # the voxels with signal carry the on-mask bound
        res = reconstruct_noisy(
            ImageGrid(signal), model_from_config(cli.DEFAULT_ACQUISITION),
            FieldmapConstraint.from_mask(mask, 30.0), 0.02,
            FlowConfig(certified=True, max_iters=30), np.full(mask.shape, 1.0 + 0j),
        )
        data = np.load(recon)
        assert np.array_equal(data["mask"], mask)
        for name in ("xi_map", "c_map", "s_map"):
            assert data[name].shape == getattr(res, name).shape
            assert np.array_equal(data[name].view(np.uint64), getattr(res, name).view(np.uint64))

    def test_default_reconstruct_converges(self, tmp_path):
        ph, met = tmp_path / "ph.json", tmp_path / "metrics.json"
        assert cli_main(["phantom", "--out", str(ph), "--width", "32", "--height", "32"]) == 0
        assert cli_main(["reconstruct", "--input", str(ph), "--out", str(tmp_path / "r.npz"),
                         "--metrics-out", str(met)]) == 0
        report = json.loads(met.read_text())
        assert report["converged"] is True
        assert 0 < report["iterations"] < 2000
        assert {"constraint_violation", "final_objective"} <= set(report)
        assert 0 <= report["restarts"] <= report["iterations"]
        assert 0 <= report["fallback_iterations"] <= report["iterations"]
        low, median, high = report["step_spread"]
        assert 0 < low <= median <= high

    def test_default_reconstruct_recovers_a_100_hz_field_bump(self, tmp_path):
        # the CLI start 1 + 0j is 100 Hz from the vials' field; the bound couples
        # only voxels with signal, so the background never holds the vial edges back
        ph, truth, met = tmp_path / "ph.json", tmp_path / "truth.npz", tmp_path / "metrics.json"
        recon = tmp_path / "r.npz"
        assert cli_main(["phantom", "--out", str(ph), "--truth", str(truth),
                         "--fieldmap-amplitude", "100"]) == 0
        assert cli_main(["reconstruct", "--input", str(ph), "--out", str(recon),
                         "--metrics-out", str(met)]) == 0
        report = json.loads(met.read_text())
        assert report["converged"] is True
        assert report["fallback_iterations"] == 0
        assert report["iterations"] < 540  # the plain step's count
        known, data = np.load(truth), np.load(recon)
        mask = known["mask"]
        error = np.max(np.abs(data["c_map"] - known["c0_map"]), axis=-1)
        assert np.count_nonzero(error[mask] > 1e-3) == 0

    def test_default_reconstruct_of_a_200_hz_field_bump_stops_as_the_plain_step(self, tmp_path):
        # at 200 Hz the pure-silicone vial (113 voxels) lands on a wrong stationary point;
        # momentum reaches the same verdict in no more than the plain step's 598 iterations
        ph, truth, met = tmp_path / "ph.json", tmp_path / "truth.npz", tmp_path / "metrics.json"
        recon = tmp_path / "r.npz"
        assert cli_main(["phantom", "--out", str(ph), "--truth", str(truth),
                         "--fieldmap-amplitude", "200"]) == 0
        assert cli_main(["reconstruct", "--input", str(ph), "--out", str(recon),
                         "--metrics-out", str(met)]) == 0
        report = json.loads(met.read_text())
        assert report["converged"] is True
        assert report["iterations"] <= 598
        known, data = np.load(truth), np.load(recon)
        mask = known["mask"]
        error = np.max(np.abs(data["c_map"] - known["c0_map"]), axis=-1)
        assert np.count_nonzero(error[mask] > 1e-3) == 113

    def test_metrics_count_the_zero_branch(self, tmp_path):
        ph, noisy, met = tmp_path / "ph.json", tmp_path / "noisy.json", tmp_path / "metrics.json"
        recon = tmp_path / "r.npz"
        assert cli_main(["phantom", "--out", str(ph), "--width", "32", "--height", "32"]) == 0
        assert cli_main(["corrupt", "--input", str(ph), "--out", str(noisy),
                         "--sigma", "0.01", "--relative", "--seed", "1"]) == 0
        y, _ = read_csir(noisy)
        norms = np.linalg.norm(y, axis=2)
        assert 0 < np.sum(norms <= 0.02) < 32 * 32
        for delta in ("0.02", "1e6"):
            assert cli_main(["reconstruct", "--input", str(noisy), "--out", str(recon),
                             "--delta", delta, "--max-iters", "10",
                             "--metrics-out", str(met)]) == 0
            report = json.loads(met.read_text())
            zero = norms <= float(delta)
            assert report["zero_branch_voxels"] == np.sum(zero)
            assert report["restarts"] == 0
            assert {"fallback_iterations", "step_spread", "converged"} <= set(report)
            data = np.load(recon)
            assert not np.any(data["s_map"][zero]) and not np.any(data["c_map"][zero])
            assert np.all(np.isnan(data["pdff"][zero]))
            if delta == "0.02":
                low, median, high = report["step_spread"]
                assert 0 < low <= median <= high
        # every voxel on the zero branch: nothing to solve, and no voxel took a step
        assert report["converged"] is True and report["iterations"] == 0
        assert report["step_spread"] is None
        assert not np.any(data["c_map"])

    def test_analyze_writes_report_and_csv(self, tmp_path):
        config = tmp_path / "acq.json"
        config.write_text(json.dumps({
            "echo_times_ms": [1.3 + 1.05 * k for k in range(6)],
            "species": ["water", "fat6"],
            "hz_per_ppm": HZ_PER_PPM,
        }))
        out = tmp_path / "report.json"
        csv_path = tmp_path / "smin.csv"
        assert cli_main([
            "analyze", "--config", str(config), "--out", str(out), "--csv", str(csv_path),
            "--band", "-1000", "1000", "--grid-step", "5.0",
        ]) == 0
        report = json.loads(out.read_text())
        assert report["lattice"]["period_hz"] == pytest.approx(20000.0)
        etas = sorted(z["eta_hz"] for z in report["zeros"])
        assert etas == pytest.approx([-1000 / 1.05, 0.0, 1000 / 1.05], abs=1e-6)
        assert csv_path.exists()

    def test_experiment_solution_set(self, tmp_path):
        config = tmp_path / "acq.json"
        config.write_text(json.dumps({
            "echo_times_ms": [1.3 + 1.05 * k for k in range(4)],
            "species": ["water", "fat6"],
            "hz_per_ppm": HZ_PER_PPM,
        }))
        assert cli_main([
            "experiment", "solution-set", "--out", str(tmp_path / "arts"),
            "--config", str(config),
        ]) == 0
        assert (tmp_path / "arts" / "zeros_ne4.json").exists()

    def test_experiment_solution_set_defaults_skip_short_protocols(self, tmp_path):
        # the default acquisition has 3 species, so the 4-echo scan is skipped
        assert cli_main(["experiment", "solution-set", "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "solution_set.json").read_text())
        assert summary["skipped_echo_counts"] == [4]
        assert summary["echo_counts"] == [6, 7, 8]
        assert not (tmp_path / "zeros_ne4.json").exists()
        assert (tmp_path / "zeros_ne6.json").exists()
