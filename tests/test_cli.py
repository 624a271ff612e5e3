import contextlib
import csv
import io
import json
import os
import stat
import subprocess
import sys
import tempfile
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import framefit
from framefit import (
    GridSpec,
    SolverConfig,
    TimeSeries,
    level_set,
    localize,
    radar_family,
    shooting_search,
    simulate_fdoa,
)
from framefit.cli import CSV_BLOCK_ROWS, _write_csv, _write_json, build_parser, main
from framefit.core import error_value
from framefit.errors import RankDeficientError
from framefit.radar import NoiseModel, load_scenario

from conftest import UNREADABLE_FILES, circular_geometry, noiseless_scene, time_limit


def write_scenario(path, geometry, position, velocity, sigma=0.0, seed=0):
    payload = {
        "dim": geometry.dim,
        "transmitters": [[float(v) for v in a] for a in geometry.transmitters],
        "receivers": [[float(v) for v in b] for b in geometry.receivers],
        "target": {
            "position": [float(v) for v in position],
            "velocity": [float(v) for v in velocity],
        },
        "noise": {"sigma": sigma, "seed": seed},
    }
    path.write_text(json.dumps(payload))
    return path


@pytest.fixture
def scene(tmp_path):
    geometry, family, truth, w = noiseless_scene(0)
    path = write_scenario(
        tmp_path / "scene.json", geometry, truth.position, truth.velocity
    )
    return geometry, family, truth, w, path


class TestSimulate:
    def test_round_trip_measurement(self, scene, tmp_path):
        geometry, family, truth, w, path = scene
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", str(path), "--out-dir", str(out)]) == 0
        loaded = np.asarray(json.loads((out / "measurement.json").read_text())["w"])
        assert np.allclose(loaded, w)
        assert error_value(family, truth.position, loaded) <= 1e-18

    def test_sigma_override_matches_library(self, scene, tmp_path):
        geometry, family, truth, _, path = scene
        out = tmp_path / "out"
        code = main(
            [
                "simulate",
                "--scenario",
                str(path),
                "--sigma",
                "0.1",
                "--seed",
                "7",
                "--out-dir",
                str(out),
            ]
        )
        assert code == 0
        loaded = np.asarray(json.loads((out / "measurement.json").read_text())["w"])
        expected = simulate_fdoa(geometry, truth, NoiseModel(0.1, 7))
        assert np.array_equal(loaded, expected)

    def test_same_inputs_identical_bytes(self, scene, tmp_path):
        _, _, _, _, path = scene
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            args = [
                "simulate",
                "--scenario",
                str(path),
                "--sigma",
                "0.05",
                "--seed",
                "3",
                "--out-dir",
                str(d),
            ]
            assert main(args) == 0
        for name in ("measurement.json", "manifest.json"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_invalid_scenario_exits_one(self, tmp_path, capsys):
        geometry = circular_geometry(np.random.default_rng(1))
        path = write_scenario(
            tmp_path / "bad.json",
            geometry,
            geometry.transmitters[0],  # target sitting on a station
            [0.0, 0.0],
        )
        code = main(["simulate", "--scenario", str(path), "--out-dir", str(tmp_path / "o")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sigma, seed",
        [(float("nan"), 0), (0.1, -1), (-1.0, 0)],
        ids=["nan_sigma", "negative_seed", "negative_sigma"],
    )
    def test_invalid_noise_exits_one(self, tmp_path, capsys, sigma, seed):
        # bad noise in the scenario file is a runtime error; the same value
        # given by --sigma or --seed is a usage error (TestFlagErrors)
        geometry, _, truth, _ = noiseless_scene(0)
        path = write_scenario(tmp_path / "s.json", geometry, truth.position,
                              truth.velocity, sigma=sigma, seed=seed)
        argv = ["simulate", "--scenario", str(path), "--out-dir", str(tmp_path / "o")]
        code = main(argv)
        assert code == 1
        assert capsys.readouterr().err.startswith("error: noise ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["simulate", "localize"])
    @pytest.mark.parametrize(
        "noise",
        [[], "x", {"sigma": 0.1, "seed": 1.5}, {"sigma": True, "seed": 3}, {"sigma": "0.5"}],
        ids=["list", "string", "fractional_seed", "bool_sigma", "string_sigma"],
    )
    def test_malformed_noise_exits_one(self, scene, tmp_path, capsys, command, noise):
        path = scene[-1]
        data = json.loads(path.read_text())
        data["noise"] = noise
        path.write_text(json.dumps(data))
        code = main([command, "--scenario", str(path), "--out-dir", str(tmp_path / "o")])
        assert code == 1
        assert "error: malformed scenario: " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text", UNREADABLE_FILES.values(), ids=list(UNREADABLE_FILES))
    def test_unreadable_scenario_exits_one(self, tmp_path, capsys, text):
        path = tmp_path / "scene.json"
        path.write_bytes(text)
        code = main(["simulate", "--scenario", str(path), "--out-dir", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: cannot read scenario {path}: ")
        assert not (tmp_path / "o").exists()

    def test_missing_file_exits_one(self, tmp_path, capsys):
        code = main(
            [
                "simulate",
                "--scenario",
                str(tmp_path / "nope.json"),
                "--out-dir",
                str(tmp_path / "o"),
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestLocalize:
    def test_noiseless_end_to_end(self, scene, tmp_path):
        geometry, family, truth, w, path = scene
        out = tmp_path / "out"
        code = main(["localize", "--scenario", str(path), "--out-dir", str(out)])
        assert code == 0
        result = json.loads((out / "result.json").read_text())
        assert np.linalg.norm(np.array(result["minimizer"]) - truth.position) <= 1e-6
        assert result["value"] <= 1e-12
        assert not result["degenerate_grid"]
        trace = (out / "trace.csv").read_text().strip().splitlines()
        assert trace[0] == "k,x_1,x_2,E,grad_norm"
        assert int(result["iterations"]) == len(trace) - 2

    def test_accepts_external_measurement(self, scene, tmp_path):
        geometry, family, truth, w, path = scene
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps({"w": [float(v) for v in w]}))
        out = tmp_path / "out"
        code = main(
            [
                "localize",
                "--scenario",
                str(path),
                "--measurement",
                str(mpath),
                "--out-dir",
                str(out),
            ]
        )
        assert code == 0
        result = json.loads((out / "result.json").read_text())
        assert np.linalg.norm(np.array(result["minimizer"]) - truth.position) <= 1e-6

    @pytest.mark.parametrize(
        "text",
        [b'{"v": [1.0, 2.0]}', b"not json", b"[1.0, 2.0]", *UNREADABLE_FILES.values(),
         b'{"w": ["1", "0", "0", "0"]}', b'{"w": [true, false, false, false]}'],
        ids=["no_w", "not_json", "list", *UNREADABLE_FILES, "string_w", "bool_w"],
    )
    def test_bad_measurement_exits_one(self, scene, tmp_path, capsys, text):
        _, _, _, _, path = scene
        mpath = tmp_path / "m.json"
        mpath.write_bytes(text)
        code = main(
            [
                "localize",
                "--scenario",
                str(path),
                "--measurement",
                str(mpath),
                "--out-dir",
                str(tmp_path / "o"),
            ]
        )
        assert code == 1
        assert "error: cannot read measurement" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["localize", "diagnose"])
    def test_measurement_whose_square_overflows_exits_one(
        self, scene, tmp_path, capsys, command
    ):
        # |w|^2 = inf makes every error inf and g, H inf or NaN: the run must
        # end with exit 1, not hang in the Newton shift search
        _, family, _, _, path = scene
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps({"w": [1e200] + [0.0] * (family.N - 1)}))
        out = tmp_path / "o"
        with time_limit(30.0):
            code = main([command, "--scenario", str(path), "--measurement", str(mpath),
                         "--grid-counts=3,3", "--out-dir", str(out)])
        assert code == 1
        assert "error: measurement too large" in capsys.readouterr().err
        assert not out.exists()

    def test_square_family_warns_degenerate(self, tmp_path, capsys):
        geometry = circular_geometry(np.random.default_rng(2), num_pairs=2, radius=40.0)
        path = write_scenario(tmp_path / "scene.json", geometry, [1.0, 2.0], [3.0, -1.0])
        out = tmp_path / "out"
        code = main(
            [
                "localize",
                "--scenario",
                str(path),
                "--grid-counts",
                "5,5",
                "--out-dir",
                str(out),
            ]
        )
        assert code == 0
        assert "(square N = M frame family)" in capsys.readouterr().err
        assert json.loads((out / "result.json").read_text())["degenerate_grid"]

    def test_zero_measurement_warns_degenerate(self, scene, tmp_path, capsys):
        # 4 pairs in 2-D: the family is not square, the measurement is zero
        _, _, _, _, path = scene
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps({"w": [0.0, 0.0, 0.0, 0.0]}))
        out = tmp_path / "out"
        code = main(["localize", "--scenario", str(path), "--measurement", str(mpath),
                     "--out-dir", str(out)])
        assert code == 0
        err = capsys.readouterr().err
        assert "warning: error is numerically zero at every grid point" in err
        assert "zero measurement" in err and "square" not in err
        assert json.loads((out / "result.json").read_text())["degenerate_grid"]

    def test_newton_leaving_the_region_warns(self, tmp_path, capsys):
        # on the 3-pair CI scene, Newton runs from (-10, -10) to an exact fit
        # at (-50, -50), outside the region [-20, 20]^2 of the default grid
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps({"w": [1.0, 0.0, 0.0]}))
        out = tmp_path / "out"
        code = main(["localize", "--scenario", str(_scene_file(tmp_path)), "--measurement",
                     str(mpath), "--out-dir", str(out)])
        assert code == 0
        assert ("warning: Newton left the search region [-20.0, 20.0] x [-20.0, 20.0]"
                in capsys.readouterr().err)
        result = json.loads((out / "result.json").read_text())
        assert result["status"] == "LeftRegion"
        assert result["minimizer"] == [-10.0, -10.0] and result["iterations"] == 0

    def test_fewer_pairs_than_m_plus_p_warns(self, tmp_path, capsys):
        # the 3-pair scene of the CI smoke step: E vanishes on a curve through
        # the truth (1, -2), and localize returns an exact zero far along it
        out = tmp_path / "out"
        code = main(["localize", "--scenario", str(_scene_file(tmp_path)),
                     "--out-dir", str(out)])
        assert code == 0
        assert "warning: 3 pairs are fewer than M + P = 4" in capsys.readouterr().err
        result = json.loads((out / "result.json").read_text())
        assert result["value"] <= 1e-18 and not result["degenerate_grid"]
        assert np.linalg.norm(np.subtract(result["minimizer"], [1.0, -2.0])) > 1.0

    def test_four_pairs_do_not_warn(self, scene, tmp_path, capsys):
        _, _, _, _, path = scene
        code = main(["localize", "--scenario", str(path), "--grid-counts=5,5",
                     "--out-dir", str(tmp_path / "out")])
        assert code == 0
        assert capsys.readouterr().err == ""

    def test_malformed_grid_exits_two(self, scene, tmp_path):
        _, _, _, _, path = scene
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "localize",
                    "--scenario",
                    str(path),
                    "--grid-lower",
                    "5,5",
                    "--grid-upper",
                    "1,1",
                    "--out-dir",
                    str(tmp_path / "o"),
                ]
            )
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "flags, message",
        [(["--max-iters", "0"], "max_iters must be positive"),
         # Newton's stopping rules are relative to |w| and |H|: no tolerance flag
         (["--grad-tol", "1e-10"], "unrecognized arguments: --grad-tol 1e-10")],
        ids=["max_iters", "grad_tol"],
    )
    def test_bad_solver_flag_exits_two(self, scene, tmp_path, capsys, flags, message):
        _, _, _, _, path = scene
        out = tmp_path / "o"
        argv = ["localize", "--scenario", str(path), "--out-dir", str(out)]
        with pytest.raises(SystemExit) as excinfo:
            main(argv + flags)
        assert excinfo.value.code == 2
        assert f"framefit localize: error: {message}\n" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_dimension_mismatch_exits_two(self, scene, tmp_path, capsys):
        _, _, _, _, path = scene
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "localize",
                    "--scenario",
                    str(path),
                    "--grid-lower=-1,-1,-1",
                    "--grid-upper=1,1,1",
                    "--grid-counts=3,3,3",
                    "--out-dir",
                    str(tmp_path / "o"),
                ]
            )
        assert excinfo.value.code == 2
        assert "grid has dimension 3, the scene needs 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--grid-upper=inf,inf"], "grid bounds must be finite"),
            (["--grid-lower=nan,0"], "grid bounds must be finite"),
            (["--grid-lower=-1e308,-1e308", "--grid-upper=1e308,1e308"],
             "grid span upper - lower overflows"),
        ],
        ids=["inf", "nan", "span_overflow"],
    )
    def test_non_finite_grid_exits_two(self, scene, tmp_path, capsys, flags, message):
        _, _, _, _, path = scene
        argv = ["localize", "--scenario", str(path), "--out-dir", str(tmp_path / "o")]
        with pytest.raises(SystemExit) as excinfo:
            main(argv + flags)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert message in err and "Warning" not in err
        assert not (tmp_path / "o").exists()

    def test_non_numeric_grid_exits_two(self, scene, tmp_path):
        _, _, _, _, path = scene
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "localize",
                    "--scenario",
                    str(path),
                    "--grid-counts",
                    "a,b",
                    "--out-dir",
                    str(tmp_path / "o"),
                ]
            )
        assert excinfo.value.code == 2


class TestDiagnose:
    def test_outputs_and_residual_bound(self, scene, tmp_path):
        _, family, _, w, path = scene
        out = tmp_path / "out"
        code = main(
            [
                "diagnose",
                "--scenario",
                str(path),
                "--grid-counts",
                "11,11",
                "--out-dir",
                str(out),
            ]
        )
        assert code == 0
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["residual_bound_holds"]
        assert diag["noise_norm"] == 0.0
        cert = json.loads((out / "uniqueness.json").read_text())
        assert cert["passed"]
        lines = (out / "level_set.csv").read_text().strip().splitlines()
        assert lines[0] == "x_1,x_2,E"
        grid = GridSpec([-10.0, -10.0], [10.0, 10.0], [11, 11])
        report = level_set(family, w, grid, float(w @ w))
        assert len(lines) == len(report.points) + 1

    def test_tau_zero_empties_level_set(self, tmp_path):
        geometry, family, truth, _ = noiseless_scene(3)
        path = write_scenario(
            tmp_path / "s.json", geometry, truth.position, truth.velocity, sigma=0.1, seed=5
        )
        out = tmp_path / "out"
        code = main(
            [
                "diagnose",
                "--scenario",
                str(path),
                "--grid-counts",
                "7,7",
                "--tau",
                "0.0",
                "--out-dir",
                str(out),
            ]
        )
        assert code == 0
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["level_set_fraction"] == 0.0

    def test_ring_sample_on_a_station_is_skipped(self, tmp_path):
        # the truth sits 1% of the scene diameter from the transmitter
        # (100, 0), so the +x ring sample lands on that station exactly
        diameter = load_scenario(_scene_file(tmp_path, **FOUR_PAIRS)).geometry.scene_diameter
        position = [100.0 - 0.01 * diameter, 0.0]
        assert position[0] + 0.01 * diameter == 100.0
        path = _scene_file(tmp_path, **FOUR_PAIRS,
                           target={"position": position, "velocity": [3.0, 1.0]})
        out = tmp_path / "out"
        code, err = _run_cli(["diagnose", "--scenario", str(path), "--grid-counts=5,5",
                              "--out-dir", str(out)])
        assert code == 0, err
        samples = json.loads((out / "uniqueness.json").read_text())["samples"]
        assert samples == [position, [position[0] - 0.01 * diameter, 0.0],
                           [position[0], 0.01 * diameter], [position[0], -0.01 * diameter]]

    @pytest.mark.parametrize("tau", ["nan", "inf", "-1.0"])
    def test_bad_tau_exits_two(self, scene, tmp_path, capsys, tau):
        _, _, _, _, path = scene
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "diagnose",
                    "--scenario",
                    str(path),
                    "--grid-counts",
                    "7,7",
                    f"--tau={tau}",
                    "--out-dir",
                    str(out),
                ]
            )
        assert excinfo.value.code == 2
        assert "--tau must be finite and nonnegative" in capsys.readouterr().err
        assert not out.exists()


class TestTrack:
    def test_single_candidate_recovers_truth(self, scene, tmp_path, capsys):
        geometry, family, truth, _, path = scene
        x0, v0 = truth.position, truth.velocity
        times = np.linspace(0.0, 1.0, 101)
        vals = []
        for t in times:
            F = family.jet(x0 + t * v0, 0).F
            vals.append([float(v) for v in F.T @ v0])
        series = tmp_path / "series.json"
        series.write_text(json.dumps({"times": [float(t) for t in times], "w": vals}))
        out = tmp_path / "out"
        code = main(
            [
                "track",
                "--scenario",
                str(path),
                "--series",
                str(series),
                "--grid-lower=" + ",".join(repr(float(v)) for v in x0),
                "--grid-upper=" + ",".join(repr(float(v + 1.0)) for v in x0),
                "--grid-counts=1,1",
                "--vel-lower=" + ",".join(repr(float(v)) for v in v0),
                "--vel-upper=" + ",".join(repr(float(v + 1.0)) for v in v0),
                "--vel-counts=1,1",
                "--out-dir",
                str(out),
            ]
        )
        assert code == 0
        assert json.loads((out / "tracking.json").read_text())["best_value"] <= 1e-10
        lines = (out / "trajectory.csv").read_text().strip().splitlines()
        assert lines[0] == "t,x_1,x_2,v_1,v_2"
        assert len(lines) == 102
        trace = (out / "shooting_trace.csv").read_text().strip().splitlines()
        assert trace[0] == "x0_1,x0_2,v0_1,v0_2,value"
        assert len(trace) == 2
        assert capsys.readouterr().err == ""  # four pairs in 2-D: no warning

    def test_square_frame_warns(self, tmp_path, capsys):
        geometry = circular_geometry(np.random.default_rng(2), num_pairs=2, radius=40.0)
        path = write_scenario(tmp_path / "scene.json", geometry, [1.0, 2.0], [3.0, -1.0])
        series = tmp_path / "series.json"
        series.write_text(json.dumps({"times": [0.0, 0.01, 0.02], "w": [[0.5, -0.5]] * 3}))
        code = main(["track", "--scenario", str(path), "--series", str(series),
                     "--grid-counts=1,1", "--vel-counts=1,1",
                     "--out-dir", str(tmp_path / "out")])
        assert code == 0
        assert "warning: 2 pairs in 2 dimensions make a square frame" in (
            capsys.readouterr().err)

    def test_default_grids_are_three_points_per_axis(self, scene, tmp_path):
        geometry, family, truth, _, path = scene
        times = np.linspace(0.0, 0.1, 5)
        vals = [
            [float(v) for v in family.jet(truth.position + t * truth.velocity, 0).F.T
             @ truth.velocity]
            for t in times
        ]
        series = tmp_path / "series.json"
        series.write_text(json.dumps({"times": [float(t) for t in times], "w": vals}))
        out = tmp_path / "out"
        argv = ["track", "--scenario", str(path), "--series", str(series)]
        assert main(argv + ["--out-dir", str(out)]) == 0
        trace = (out / "shooting_trace.csv").read_text().strip().splitlines()
        P = M = geometry.dim
        assert len(trace) == 1 + 3 ** (P + M)
        # the first candidate sits at the lower corner of both default boxes
        assert trace[1].split(",")[:4] == ["-10.0"] * 4

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("size", [2.0**511, 1e160], ids=["sum", "squares"])
    def test_overflowing_functional_exits_one(self, tmp_path, size):
        # the series' own functional bound overflows, for 2**511 in the
        # trapezoid sum and for 1e160 in the squares: track rejects the file
        # as it reads it, before any candidate is integrated
        series = tmp_path / "series.json"
        series.write_text(json.dumps({"times": [0.0, 0.1, 0.2, 0.3],
                                      "w": [[size, -size, size]] * 4}))
        scene = _scene_file(tmp_path, **MOVING_SCENE)
        out = tmp_path / "out"
        code, err = _run_cli(["track", "--scenario", str(scene), "--series", str(series),
                              "--grid-lower=1,0.5", "--grid-upper=2,1.5", "--grid-counts=1,1",
                              "--vel-lower=2,-1", "--vel-upper=3,0", "--vel-counts=1,1",
                              "--out-dir", str(out)])
        assert code == 1
        assert err.startswith("error: time series values too large: the trapezoid sum "
                              "of |w_k|^2 overflows")
        assert "Warning" not in err
        assert not out.exists()

    def test_series_width_mismatch_exits_one(self, scene, tmp_path, capsys):
        _, _, _, _, path = scene
        series = tmp_path / "series.json"
        series.write_text(json.dumps({"times": [0.0, 0.5, 1.0], "w": [[0.0] * 5] * 3}))
        code = main(
            [
                "track",
                "--scenario",
                str(path),
                "--series",
                str(series),
                "--out-dir",
                str(tmp_path / "o"),
            ]
        )
        assert code == 1
        assert "error: time series has 5 columns" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload",
        [
            {"times": [0.0, 0.5, 1.0], "w": [[0.0] * 4, [0.0] * 3, [0.0] * 4]},
            {"times": "abc", "w": [[0.0] * 4] * 3},
        ],
    )
    def test_malformed_series_exits_one(self, scene, tmp_path, capsys, payload):
        _, _, _, _, path = scene
        series = tmp_path / "series.json"
        series.write_text(json.dumps(payload))
        code = main(
            [
                "track",
                "--scenario",
                str(path),
                "--series",
                str(series),
                "--out-dir",
                str(tmp_path / "o"),
            ]
        )
        assert code == 1
        assert "error: cannot read time series" in capsys.readouterr().err

    @pytest.mark.parametrize("text", UNREADABLE_FILES.values(), ids=list(UNREADABLE_FILES))
    def test_unreadable_series_exits_one(self, scene, tmp_path, capsys, text):
        series = tmp_path / "series.json"
        series.write_bytes(text)
        code = main(["track", "--scenario", str(scene[-1]), "--series", str(series),
                     "--out-dir", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: cannot read time series {series}: ")
        assert not (tmp_path / "o").exists()

    def test_non_finite_series_exits_one(self, scene, tmp_path, capsys):
        _, _, _, _, path = scene
        series = tmp_path / "series.json"
        # json writes the bare token NaN, which json.load reads back as nan
        w = [[0.0] * 4, [float("nan")] * 4, [0.0] * 4]
        series.write_text(json.dumps({"times": [0.0, 0.5, 1.0], "w": w}))
        code = main(
            [
                "track",
                "--scenario",
                str(path),
                "--series",
                str(series),
                "--out-dir",
                str(tmp_path / "o"),
            ]
        )
        assert code == 1
        assert "error: time series has non-finite values" in capsys.readouterr().err


def _rows(path):
    """The rows of a CSV output below its header, each split into cells."""
    return [row.split(",") for row in path.read_text().splitlines()[1:]]


def _floats(rows):
    return [[float(cell) for cell in row] for row in rows]


class TestOutputTables:
    def test_cells_read_back_to_library_values(self, scene, tmp_path):
        geometry, family, truth, w, path = scene
        grid = GridSpec([-10.0, -10.0], [10.0, 10.0], [11, 11])
        for command in ("localize", "diagnose"):
            argv = [command, "--scenario", str(path), "--grid-counts=11,11"]
            assert main(argv + ["--out-dir", str(tmp_path / command)]) == 0

        result = localize(family, w, SolverConfig(grid=grid))
        rows = _rows(tmp_path / "localize" / "trace.csv")
        assert [row[0] for row in rows] == [str(k) for k in range(len(result.iterates))]
        assert _floats(row[1:] for row in rows) == [
            [*x.tolist(), E, gn] for x, E, gn in result.iterates
        ]

        report = level_set(family, w, grid, float(w @ w))
        rows = _rows(tmp_path / "diagnose" / "level_set.csv")
        assert _floats(rows) == np.column_stack([report.points, report.errors]).tolist()

        # the first position candidate sits on a station, so its value is inf
        times = np.linspace(0.0, 0.1, 11)
        vals = [family.jet(truth.position + t * truth.velocity, 0).F.T @ truth.velocity
                for t in times]
        series = tmp_path / "series.json"
        series.write_text(json.dumps({"times": times.tolist(),
                                      "w": [v.tolist() for v in vals]}))
        station = geometry.transmitters[0]
        pos_grid = GridSpec(station, truth.position, [2, 1])
        vel_grid = GridSpec(truth.velocity, truth.velocity + 1.0, [1, 2])
        bounds = {"grid-lower": station, "grid-upper": truth.position,
                  "vel-lower": truth.velocity, "vel-upper": truth.velocity + 1.0}
        flags = [f"--{name}=" + ",".join(repr(float(v)) for v in values)
                 for name, values in bounds.items()]
        flags += ["--grid-counts=2,1", "--vel-counts=1,2"]
        out = tmp_path / "track"
        argv = ["track", "--scenario", str(path), "--series", str(series)]
        assert main(argv + flags + ["--out-dir", str(out)]) == 0
        best, _, trace = shooting_search(
            family, TimeSeries(times, vals), pos_grid, vel_grid)
        rows = _rows(out / "trajectory.csv")
        assert _floats(rows) == [
            [t, *x.tolist(), *v.tolist()]
            for t, x, v in zip(best.times, best.positions, best.velocities)
        ]
        rows = _rows(out / "shooting_trace.csv")
        assert _floats(rows) == [[*x0.tolist(), *v0.tolist(), value]
                                 for x0, v0, value in trace]
        assert rows[0][-1] == "inf" and len(rows) == 4


def _reference_csv(path, header, columns):
    """The row-wise writer the column writer replaced: csv.writer, ints as
    they are and repr(float(v)) for every other cell."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(len(columns[0]) if columns else 0):
            writer.writerow([c[i] if isinstance(c[i], int) else repr(float(c[i]))
                             for c in columns])


_INT64 = st.integers(-(2**63), 2**63 - 1)
_COLUMNS = st.integers(0, 12).flatmap(lambda n: st.lists(
    st.one_of(st.lists(_INT64, min_size=n, max_size=n),
              st.lists(st.floats(), min_size=n, max_size=n)),
    min_size=1, max_size=4))
_BLOCKS = 2 * CSV_BLOCK_ROWS + 1
_AXIS = np.linspace(-10.0, 10.0, 61).tolist()  # a level-set grid axis


class TestWriteCsv:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(columns=_COLUMNS)
    @example(columns=[[0, 1, 2, 3, 4], [np.inf, -0.0, 5e-324, 1e308, -np.inf]])
    @example(columns=[[], []])
    @example(columns=[list(range(_BLOCKS)), [0.1 * k for k in range(_BLOCKS)]])
    @example(columns=[[0.0, -0.0, np.nan, np.inf, -np.inf, -np.nan, 0.0, -np.inf, -0.0,
                       np.nan, np.inf, 0.0, -np.nan]])
    @example(columns=[[x for x in _AXIS for _ in _AXIS], _AXIS * len(_AXIS)])
    def test_same_bytes_as_csv_writer(self, columns):
        header = [f"c_{j}" for j in range(len(columns))]
        with tempfile.TemporaryDirectory() as tmp:
            ref, out = Path(tmp) / "ref.csv", Path(tmp) / "out.csv"
            _reference_csv(ref, header, columns)
            _write_csv(out, header, [np.asarray(c) for c in columns])
            assert out.read_bytes() == ref.read_bytes()


OUTPUTS = {
    "simulate": {"manifest.json", "measurement.json"},
    "localize": {"manifest.json", "result.json", "trace.csv"},
    "diagnose": {"diagnostics.json", "level_set.csv", "manifest.json", "uniqueness.json"},
    "track": {"manifest.json", "shooting_trace.csv", "tracking.json", "trajectory.csv"},
}


def _snapshot(out):
    """Name -> (bytes, permission bits) of every entry in ``out``, hidden
    ones included; empty when ``out`` was never made."""
    if not out.exists():
        return {}
    return {p.name: (p.read_bytes(), stat.S_IMODE(p.stat().st_mode)) for p in out.iterdir()}


class TestOutputFiles:
    """Each output replaces its file whole, and manifest.json marks a complete run."""

    def test_rerun_into_the_same_dirs_is_byte_identical(self, scene, tmp_path):
        path = scene[-1]
        series = tmp_path / "series.json"
        series.write_text(json.dumps({"times": [0.0, 0.1, 0.2],
                                      "w": [[0.1, -0.2, 0.3, 0.4]] * 3}))
        base = ["--scenario", str(path), "--grid-counts=5,5"]
        argv = {
            "simulate": ["simulate", "--scenario", str(path)],
            "localize": ["localize", *base],
            "diagnose": ["diagnose", *base],
            "track": ["track", *base, "--series", str(series), "--grid-counts=1,1",
                      "--vel-counts=1,1"],
        }
        umask = os.umask(0o027)
        try:
            snapshots = []
            for _ in range(2):
                for cmd, args in argv.items():
                    assert main(args + ["--out-dir", str(tmp_path / cmd)]) == 0
                snapshots.append({cmd: _snapshot(tmp_path / cmd) for cmd in argv})
        finally:
            os.umask(umask)
        assert snapshots[1] == snapshots[0]
        for cmd, files in snapshots[1].items():
            assert set(files) == OUTPUTS[cmd]  # no temp file left behind
            assert {mode for _, mode in files.values()} == {0o666 & ~0o027}

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        csv_path, json_path = tmp_path / "t.csv", tmp_path / "r.json"
        _write_csv(csv_path, ["a"], [np.arange(3)])
        _write_json(json_path, {"a": 1})
        before = _snapshot(tmp_path)
        # unequal columns: zip(strict=True) raises after two full blocks went out
        n = 2 * CSV_BLOCK_ROWS + 1
        with pytest.raises(ValueError, match="shorter"):
            _write_csv(csv_path, ["a", "b"], [np.arange(n), np.arange(n - 1)])
        # json.dump writes "a" before it meets the object it cannot encode
        with pytest.raises(TypeError, match="not JSON serializable"):
            _write_json(json_path, {"a": 1, "z": object()})
        assert _snapshot(tmp_path) == before

    def test_failed_rerun_leaves_no_manifest(self, scene, tmp_path, monkeypatch, capsys):
        path = scene[-1]
        out, ref = tmp_path / "out", tmp_path / "ref"
        argv = ["localize", "--scenario", str(path), "--out-dir", str(out)]
        assert main(argv + ["--grid-counts=5,5"]) == 0
        complete = _snapshot(out)
        # a run that fails before its first output leaves the complete set alone
        missing = ["--measurement", str(tmp_path / "missing.json")]
        assert main(argv + missing) == 1
        assert _snapshot(out) == complete
        # one that fails partway leaves no manifest and a whole result.json
        assert main(["localize", "--scenario", str(path), "--out-dir", str(ref)]) == 0
        capsys.readouterr()

        def disk_full(*args):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr("framefit.cli._write_csv", disk_full)
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
        assert {p.name for p in out.iterdir()} == {"result.json", "trace.csv"}
        assert (out / "result.json").read_bytes() in (
            complete["result.json"][0], (ref / "result.json").read_bytes())
        assert (out / "trace.csv").read_bytes() == complete["trace.csv"][0]

    def test_failed_diagnose_rerun_leaves_the_previous_run(self, tmp_path, monkeypatch):
        # the certificate comes after the level set: a run failing there
        # must not have replaced level_set.csv or removed the manifest
        out = tmp_path / "out"
        argv = ["diagnose", "--scenario", str(_scene_file(tmp_path, **FOUR_PAIRS)),
                "--grid-counts=5,5", "--out-dir", str(out)]
        assert _run_cli(argv) == (0, "")
        complete = _snapshot(out)

        def rank_deficient(*args, **kwargs):
            raise RankDeficientError("augmented vectors do not span")

        monkeypatch.setattr("framefit.cli.uniqueness_certificate", rank_deficient)
        assert _run_cli(argv + ["--tau=0"]) == (
            1, "error: augmented vectors do not span\n")
        assert _snapshot(out) == complete

    def test_manifests_record_command_inputs_overrides_and_seed(self, tmp_path):
        scene = str(_scene_file(tmp_path))
        series = tmp_path / "series.json"
        series.write_text(json.dumps(FUZZ_SERIES))
        measurement = str(tmp_path / "simulate" / "measurement.json")
        runs = {
            "simulate": (["--sigma=0.5", "--seed=7"], {"scenario": scene},
                         {"sigma": 0.5, "seed": 7}, 7),
            "localize": (["--measurement", measurement, "--grid-counts=3,4"],
                         {"scenario": scene, "measurement": measurement},
                         {"max_iters": 100,
                          "grid_lower": [-10.0, -10.0], "grid_upper": [10.0, 10.0],
                          "grid_counts": [3, 4]}, 3),
            "diagnose": (["--grid-lower=-1,-2", "--grid-counts=3,3", "--tau=0.25"],
                         {"scenario": scene, "measurement": None}, {"tau": 0.25}, 3),
            "track": (["--series", str(series), "--grid-counts=1,1", "--vel-upper=5,6",
                       "--vel-counts=1,1"], {"scenario": scene, "series": str(series)},
                      {"grid_lower": [-10.0, -10.0], "grid_upper": [10.0, 10.0],
                       "grid_counts": [1, 1], "vel_lower": [-10.0, -10.0],
                       "vel_upper": [5.0, 6.0], "vel_counts": [1, 1]}, 3),
        }
        for command, (flags, inputs, overrides, seed) in runs.items():
            out = tmp_path / command
            code, err = _run_cli([command, "--scenario", scene, *flags, "--out-dir", str(out)])
            assert code == 0, err
            assert json.loads((out / "manifest.json").read_text()) == {
                "command": command, "inputs": inputs, "overrides": overrides,
                "seed": seed, "version": framefit.__version__}

    def test_one_parser_per_process_runs_like_a_fresh_process(
            self, scene, tmp_path, monkeypatch):
        # a usage error, a good run, then another subcommand: each exit code,
        # stderr text and output file as from a new interpreter
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
        base = ["--scenario", str(scene[-1]), "--grid-counts=5,5"]
        runs = [["localize", *base, "--max-iters", "2.5"], ["localize", *base],
                ["diagnose", *base]]
        src = str(Path(framefit.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        codes = []
        for i, argv in enumerate(runs):
            fresh, here = tmp_path / f"fresh{i}", tmp_path / f"here{i}"
            proc = subprocess.run(
                [sys.executable, "-m", "framefit.cli", *argv, "--out-dir", str(fresh)],
                env=env, capture_output=True, text=True, timeout=120)
            code, err = _run_cli(argv + ["--out-dir", str(here)])
            assert (code, err) == (proc.returncode, proc.stderr)
            assert _snapshot(here) == _snapshot(fresh)
            codes.append(code)
        assert codes == [2, 0, 0]
        assert build_parser() is build_parser()


class TestVersionFlag:
    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0


# A valid 3-pair scene and a 4-sample series for it; the fuzz below breaks
# one or two pieces of each (wrong type, missing key, non-finite, ragged,
# wrong dimension) before handing the files to the CLI.
FUZZ_SCENARIO = {
    "dim": 2,
    "transmitters": [[100.0, 0.0], [-50.0, 86.6], [-50.0, -86.6]],
    "receivers": [[0.0, 100.0], [-86.6, -50.0], [86.6, -50.0]],
    "target": {"position": [1.0, -2.0], "velocity": [3.0, 1.0]},
    "noise": {"sigma": 0.01, "seed": 3},
}
# The stations of a 4-pair 2-D scene, for FUZZ_SCENARIO's other keys.
FOUR_PAIRS = {
    "transmitters": [[100.0, 0.0], [-50.0, 86.6], [-50.0, -86.6], [0.0, -90.0]],
    "receivers": [[0.0, 100.0], [-86.6, -50.0], [86.6, -50.0], [70.0, 70.0]],
}


def _far_four_pairs(scale):
    """FOUR_PAIRS and the CI smoke test's near.json truth, 1% of the scene
    diameter from the transmitter (100, 0), with every position times scale."""
    return {key: (scale * np.array(FOUR_PAIRS[key])).tolist() for key in FOUR_PAIRS} | {
        "target": {"position": [scale * 98.02709452836686, 0.0], "velocity": [3.0, 1.0]}}


# The moving-target 3-pair scene of the CI smoke test.
MOVING_SCENE = {
    "transmitters": [[30.0, 0.0], [0.0, 30.0], [-25.0, -20.0]],
    "receivers": [[-30.0, 10.0], [10.0, -30.0], [20.0, 25.0]],
    "target": {"position": [1.0, 0.5], "velocity": [2.0, -1.0]},
    "noise": {"sigma": 0.0, "seed": 0},
}
FUZZ_SERIES = {"times": [0.0, 0.01, 0.02, 0.03], "w": [[0.1, -0.2, 0.3]] * 4}
FUZZ_MEASUREMENT = {"w": [0.1, -0.2, 0.3]}
FUZZ_GRID = {
    "simulate": [],
    "localize": ["--grid-counts=3,3"],
    "diagnose": ["--grid-counts=3,3"],
    "track": ["--grid-counts=1,1", "--vel-counts=1,1"],
}

json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**130), 2**130),
    st.floats(),  # NaN and infinities included
    st.sampled_from([0.0, 1.0, 1.5, -1.0, 1e308, 10**400, "", "x", "1.5", "NaN"]),
)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["w", "times", "sigma", "seed", "x"]), inner,
                      max_size=3),
    max_leaves=8,
)


def _json_paths(node, prefix=()):
    yield prefix
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _json_paths(child, prefix + (key,))


def _mutated(data, doc):
    """``doc`` with one or two nodes replaced, deleted or extended."""
    doc = json.loads(json.dumps(doc))
    for _ in range(data.draw(st.integers(1, 2))):
        path = data.draw(st.sampled_from(list(_json_paths(doc))))
        action = data.draw(st.sampled_from(["replace", "delete", "extend"]))
        junk = data.draw(json_values)
        if not path:
            doc = junk
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        node = parent[path[-1]]
        if action == "delete":
            del parent[path[-1]]
        elif action == "extend" and isinstance(node, list):
            node.append(junk)
        elif action == "extend" and isinstance(node, dict):
            node["x"] = junk
        else:
            parent[path[-1]] = junk
    return doc


def _run_cli(argv):
    """Exit code and stderr of one in-process CLI run; a hang fails after 30 s."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), time_limit(30.0):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


class TestFuzz:
    """Broken scenario, measurement and series files on tiny grids: each run
    exits 0, 1 or 2 and prints ``error:`` when nonzero; an exception escaping
    ``main`` (a traceback for the user) fails the test.  The examples are
    derandomized, so every run draws the same ones and a failure reproduces."""

    @pytest.mark.parametrize("command", sorted(FUZZ_GRID))
    @settings(max_examples=25, deadline=timedelta(seconds=10), derandomize=True)
    @given(data=st.data())
    def test_fuzzed_json_never_tracebacks(self, command, data):
        side = FUZZ_SERIES if command == "track" else FUZZ_MEASUREMENT
        broken = data.draw(st.sampled_from(["scenario", "side", "both"]))
        scenario = FUZZ_SCENARIO if broken == "side" else _mutated(data, FUZZ_SCENARIO)
        side = side if broken == "scenario" else _mutated(data, side)
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "scene.json").write_text(json.dumps(scenario))
            (tmp / "side.json").write_text(json.dumps(side))
            argv = [command, "--scenario", str(tmp / "scene.json"),
                    "--out-dir", str(tmp / "out")] + FUZZ_GRID[command]
            if command == "track":
                argv += ["--series", str(tmp / "side.json")]
            elif command != "simulate" and data.draw(st.booleans()):
                argv += ["--measurement", str(tmp / "side.json")]
            code, err = _run_cli(argv)
        assert code in (0, 1, 2)
        assert code == 0 or "error:" in err


class TestGridSize:
    """A grid too large for any numpy array is a usage error, and running out
    of memory is an ``error:`` line: neither ends in a traceback."""

    @staticmethod
    def argv(tmp_path, command, *flags):
        argv = [command, "--scenario", str(_scene_file(tmp_path, **FOUR_PAIRS)), *flags,
                "--out-dir", str(tmp_path / "out")]
        if command == "track":
            series = tmp_path / "series.json"
            series.write_text(json.dumps({"times": [0.0, 0.1, 0.2], "w": [[0.1] * 4] * 3}))
            argv += ["--series", str(series)]
        return argv

    @pytest.mark.parametrize("command, flag", [("localize", "--grid-counts"),
                                               ("diagnose", "--grid-counts"),
                                               ("track", "--vel-counts")])
    def test_grid_larger_than_an_array_exits_two(self, tmp_path, command, flag):
        # 2**62 points of 2 float64 coordinates are 2**66 bytes
        code, err = _run_cli(self.argv(tmp_path, command, f"{flag}={2**62},1"))
        assert code == 2
        assert f"error: grid of {2**62} points is too large for one array" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["localize", "diagnose", "track"])
    def test_out_of_memory_exits_one(self, tmp_path, monkeypatch, command):
        def points(self):
            raise MemoryError("Unable to allocate 8.00 EiB")

        monkeypatch.setattr(GridSpec, "points", points)
        code, err = _run_cli(self.argv(tmp_path, command))
        assert (code, err) == (1, "error: out of memory (Unable to allocate 8.00 EiB)\n")
        assert not (tmp_path / "out").exists()


class TestFlagErrors:
    """Every bad flag value leaves through its subcommand's parser: exit 2,
    that subcommand's usage line and ``framefit <cmd>: error:``, and no out
    dir.  Flags are checked before any input file but the scenario is read."""

    CASES = [
        ("simulate", ["--sigma=-1"], "noise sigma must be finite and nonnegative"),
        ("simulate", ["--sigma=nan"], "noise sigma must be finite and nonnegative"),
        ("simulate", ["--seed=-1"], "noise seed must lie in [0, 2**128)"),
        ("localize", ["--grid-lower=5,5", "--grid-upper=1,1"],
         "grid requires lower < upper componentwise"),
        ("localize", ["--grid-upper=inf,inf"], "grid bounds must be finite"),
        ("localize", ["--grid-counts=0,5"], "grid counts must be positive integers"),
        ("localize", ["--grid-counts=3,3,3"],
         "grid lower, upper, counts must be congruent vectors"),
        ("localize", ["--grid-lower=-1,-1,-1", "--grid-upper=1,1,1", "--grid-counts=3,3,3"],
         "grid has dimension 3, the scene needs 2"),
        ("localize", [f"--grid-counts={2**62},1"],
         f"grid of {2**62} points is too large for one array"),
        ("localize", [f"--grid-counts={2**63},1"],
         "grid counts too large: each must be below 2^63"),
        ("localize", [f"--grid-counts={2**64},1"],
         "grid counts too large: each must be below 2^63"),
        ("localize", ["--max-iters=0"], "max_iters must be positive"),
        ("localize", ["--grad-tol=0"], "unrecognized arguments: --grad-tol=0"),
        ("diagnose", ["--tau=-1"], "--tau must be finite and nonnegative, got -1.0"),
        ("diagnose", ["--grid-counts=0,5"], "grid counts must be positive integers"),
        ("track", ["--grid-counts=0,5"], "grid counts must be positive integers"),
        ("track", ["--vel-counts=0,1"], "grid counts must be positive integers"),
        ("track", ["--vel-counts=1,1,1", "--vel-lower=0,0,0", "--vel-upper=1,1,1"],
         "grid has dimension 3, the scene needs 2"),
        ("localize", ["--bogus=1"], "unrecognized arguments: --bogus=1"),
    ]

    @staticmethod
    def check(tmp_path, command, flags, message):
        argv = [command, "--scenario", str(_scene_file(tmp_path, **FOUR_PAIRS)), *flags,
                "--out-dir", str(tmp_path / "out")]
        code, err = _run_cli(argv)
        assert code == 2
        assert err.startswith(f"usage: framefit {command} ")
        assert f"\nframefit {command}: error: {message}\n" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, flags, message", CASES,
                             ids=[" ".join([command, *flags]) for command, flags, _ in CASES])
    def test_exits_two_through_the_subcommand_parser(self, tmp_path, command, flags,
                                                     message):
        if command == "track":
            series = tmp_path / "series.json"
            series.write_text(json.dumps({"times": [0.0, 0.1], "w": [[0.1] * 4] * 2}))
            flags = [*flags, "--series", str(series)]
        self.check(tmp_path, command, flags, message)

    @pytest.mark.parametrize("command, flags", [
        ("localize", ["--grid-counts=0,5", "--measurement"]),
        ("diagnose", ["--grid-counts=0,5", "--measurement"]),
        ("track", ["--vel-counts=0,1", "--series"]),
    ])
    def test_flags_are_checked_before_other_input_files(self, tmp_path, command, flags):
        self.check(tmp_path, command, [*flags, str(tmp_path / "missing.json")],
                   "grid counts must be positive integers")


def _scene_file(tmp_path, **changes):
    """FUZZ_SCENARIO, with ``changes`` applied, written to a file."""
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({**FUZZ_SCENARIO, **changes}))
    return path


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestOverflow:
    """Inputs that are finite but so large that numpy overflows, run with
    RuntimeWarning as an error, as under ``python -W error::RuntimeWarning``."""

    def test_huge_measurement_converges(self, tmp_path):
        # the answer, (-50, -50), lies in this grid; from the default grid
        # the first Newton step leaves the search region
        scene = _scene_file(tmp_path)
        minimizers = []
        for scale in (1.0, 1e100, 1e150):
            mpath = tmp_path / "m.json"
            mpath.write_text(json.dumps({"w": [scale, 0.0, 0.0]}))
            out = tmp_path / f"out{scale}"
            code, err = _run_cli(["localize", "--scenario", str(scene), "--measurement",
                                  str(mpath), "--grid-lower=-60,-60", "--grid-upper=-10,-10",
                                  "--grid-counts=5,5", "--out-dir", str(out)])
            assert code == 0, err
            minimizers.append(json.loads((out / "result.json").read_text())["minimizer"])
        assert np.allclose(minimizers[1:], minimizers[0], rtol=0.0, atol=1e-6)

    def test_diagnose_grid_far_outside_the_domain_exits_one(self, tmp_path):
        # every frame at 1e200 is zero: no grid point lies in the domain
        code, err = _run_cli(["diagnose", "--scenario", str(_scene_file(tmp_path)),
                              "--grid-lower=1e200,1e200", "--grid-upper=2e200,2e200",
                              "--grid-counts=3,3", "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert err.startswith("error: no grid point")
        assert not (tmp_path / "out").exists()

    def test_diagnose_grid_with_station_nodes_exits_zero(self, tmp_path):
        # (100, 0) and (0, 100) are stations: the level set skips those nodes
        out = tmp_path / "out"
        code, err = _run_cli(["diagnose", "--scenario", str(_scene_file(tmp_path)),
                              "--grid-lower=-100,-100", "--grid-upper=100,100",
                              "--grid-counts=3,3", "--out-dir", str(out)])
        assert code == 0, err
        rows = (out / "level_set.csv").read_text().splitlines()[1:]
        assert len(rows) == 7
        assert "100.0,0.0" not in {row.rsplit(",", 1)[0] for row in rows}

    @pytest.mark.parametrize("command, scale", [("simulate", 1e155), ("localize", 1e103)])
    def test_scene_past_1e102_runs(self, tmp_path, command, scale):
        # squared, the scene diameter at 1e155 overflows, and cubed, the station
        # distances of the Newton Hessian at 1e103; as on the unscaled scene,
        # Newton's first step from the default grid leaves the search region
        out = tmp_path / "out"
        code, err = _run_cli([command, "--scenario", str(_scene_file(tmp_path,
                              **_far_four_pairs(scale))), "--out-dir", str(out)])
        assert code == 0
        if command == "localize":
            assert err.startswith("warning: Newton left the search region ")
            assert err.count("\n") == 1
        else:
            assert err == ""
        assert out.is_dir()

    def test_newton_converges_on_a_scene_past_1e102(self, tmp_path):
        # the noiseless near scene at 1e103 with a grid around the truth scaled
        # too: the Newton Hessian runs at 1e103 and ends at the scaled truth
        scale = 1e103
        scene = _scene_file(tmp_path, **_far_four_pairs(scale),
                            noise={"sigma": 0.0, "seed": 3})
        out = tmp_path / "out"
        code, err = _run_cli(["localize", "--scenario", str(scene),
                              f"--grid-lower={90 * scale},{-10 * scale}",
                              f"--grid-upper={110 * scale},{10 * scale}",
                              "--out-dir", str(out)])
        assert (code, err) == (0, "")
        result = json.loads((out / "result.json").read_text())
        assert result["status"] == "GradientConverged"
        assert result["iterations"] == 3
        truth = np.array([98.02709452836686, 0.0])
        assert np.linalg.norm(np.array(result["minimizer"]) / scale - truth) <= 1e-13

    def test_diagnose_noise_norm_past_1e154(self, tmp_path):
        # w = -clean, so the noise norm is 2 |clean| = 1.47e154: squared, it
        # overflows, and the parsers' strict JSON has no Infinity
        scene = _scene_file(tmp_path, target={"position": [1.0, -2.0],
                                              "velocity": [3e153, 3e153]})
        scenario = load_scenario(scene)
        clean = simulate_fdoa(scenario.geometry, scenario.target, NoiseModel())
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps({"w": (-clean).tolist()}))
        out = tmp_path / "out"
        code, err = _run_cli(["diagnose", "--scenario", str(scene), "--measurement",
                              str(mpath), "--grid-counts=5,5", "--out-dir", str(out)])
        assert (code, err) == (0, "")

        def reject(constant):
            raise ValueError(f"{constant} is not strict JSON")

        diag = json.loads((out / "diagnostics.json").read_text(), parse_constant=reject)
        expected = 2e154 * np.sqrt(np.sum((clean / 1e154) ** 2))
        assert np.isclose(diag["noise_norm"], expected, rtol=1e-15, atol=0.0)
        assert diag["residual_bound_holds"]

    @pytest.mark.parametrize(
        "command, changes, series, message",
        [
            ("simulate",
             {"transmitters": [[1.7e308, 0.0], [-1.7e308, 0.0], [-50.0, -86.6]]},
             None, "scene diameter overflows"),
            ("simulate",
             {"target": {"position": [1.7e308, 1.7e308], "velocity": [3.0, 1.0]}},
             None, "distances overflow"),
            ("simulate", {"target": {"position": [1.0, -2.0], "velocity": [1e308, 1e308]}},
             None, "simulated measurement overflows"),
            ("simulate", {"target": {"position": [1.0, -2.0], "velocity": [1e200, 1e200]}},
             None, "|w|^2 overflows"),
            ("track", {}, [[0.1, -0.2, 0.3], [1e308, 0.0, 0.0]] + [[0.1, -0.2, 0.3]] * 2,
             "time derivative overflows"),
        ],
        ids=["station", "target", "velocity", "velocity_square", "series"],
    )
    def test_overflowing_input_exits_one(self, tmp_path, command, changes, series,
                                         message):
        argv = [command, "--scenario", str(_scene_file(tmp_path, **changes)),
                "--out-dir", str(tmp_path / "out")]
        if series is not None:
            spath = tmp_path / "series.json"
            spath.write_text(json.dumps({"times": FUZZ_SERIES["times"], "w": series}))
            argv += ["--series", str(spath)] + FUZZ_GRID["track"]
        code, err = _run_cli(argv)
        assert code == 1
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "out").exists()
