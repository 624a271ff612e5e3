import contextlib
import io
import json
import tempfile
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framefit import radar_family, simulate_fdoa
from framefit.cli import main
from framefit.core import error_value
from framefit.radar import NoiseModel

from conftest import circular_geometry, noiseless_scene, time_limit


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
        "sigma, extra",
        [(float("nan"), []), (0.1, ["--seed", "-1"])],
        ids=["nan_sigma", "negative_seed"],
    )
    def test_invalid_noise_exits_one(self, tmp_path, capsys, sigma, extra):
        geometry, _, truth, _ = noiseless_scene(0)
        path = write_scenario(
            tmp_path / "s.json", geometry, truth.position, truth.velocity, sigma=sigma
        )
        argv = ["simulate", "--scenario", str(path), "--out-dir", str(tmp_path / "o")]
        code = main(argv + extra)
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "localize"])
    @pytest.mark.parametrize("noise", [[], "x", {"sigma": 0.1, "seed": 1.5}],
                             ids=["list", "string", "fractional_seed"])
    def test_malformed_noise_exits_one(self, scene, tmp_path, capsys, command, noise):
        path = scene[-1]
        data = json.loads(path.read_text())
        data["noise"] = noise
        path.write_text(json.dumps(data))
        code = main([command, "--scenario", str(path), "--out-dir", str(tmp_path / "o")])
        assert code == 1
        assert "error: malformed scenario: " in capsys.readouterr().err
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
        ['{"v": [1.0, 2.0]}', "not json", "[1.0, 2.0]"],
        ids=["no_w", "not_json", "list"],
    )
    def test_bad_measurement_exits_one(self, scene, tmp_path, capsys, text):
        _, _, _, _, path = scene
        mpath = tmp_path / "m.json"
        mpath.write_text(text)
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
        assert "warning" in capsys.readouterr().err
        assert json.loads((out / "result.json").read_text())["degenerate_grid"]

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
        "flags",
        [["--max-iters", "0"], ["--gamma", "2"], ["--grad-tol", "0"]],
        ids=["max_iters", "gamma", "grad_tol"],
    )
    def test_bad_solver_flag_exits_two(self, scene, tmp_path, flags):
        _, _, _, _, path = scene
        argv = ["localize", "--scenario", str(path), "--out-dir", str(tmp_path / "o")]
        with pytest.raises(SystemExit) as excinfo:
            main(argv + flags)
        assert excinfo.value.code == 2

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
        _, _, _, _, path = scene
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
    def test_single_candidate_recovers_truth(self, scene, tmp_path):
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
