"""Checks of the benchmark harness itself.  Not part of the tier-1 suite (the
file name does not match pytest's test_*.py pattern); run it explicitly:

    python3 -m pytest -q benchmarks/check_benchmark.py
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402

SEED = 0
COUNT_UNITS = {"count", "B", "ratio"}


def traced_pass(name, workdir):
    workload, _ = run.set_up(name, SEED, workdir)
    workload.warmup()
    tracer, tally = tracing.Tracer(), run.Tally()
    with run.Speedometer() as speed:
        speed.tracer = tracer
        with tracing.installed(tracer):
            start, end = run.run_pass(workload, tally, tracer)
    wall = end - start - sum(seconds for _, seconds in tracer.pauses)
    return workload, tally, tracer, wall


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    cache = {}

    def get(name, repeat=0):
        if (name, repeat) not in cache:
            cache[name, repeat] = traced_pass(name, tmp_path_factory.mktemp(f"{name}{repeat}"))
        return cache[name, repeat]

    return get


def counts(tracer):
    return {k: v for k, (v, unit) in tracing.layer_metrics(tracer).items() if unit in COUNT_UNITS}


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_counters_repeat_exactly(traced, name):
    first, second = counts(traced(name)[2]), counts(traced(name, 1)[2])
    assert first == second


def test_wrappers_are_removed_after_tracing(traced):
    traced("localize")
    solver = sys.modules["framefit.solver"]
    core = sys.modules["framefit.core"]
    assert solver.error_value is core.error_value
    assert not hasattr(core.error_value, "__wrapped__")
    assert not hasattr(sys.modules["framefit.radar"].RadarFrameFamily.jet, "__wrapped__")


def test_localize_grid_sees_every_point(traced):
    workload, tally, tracer, wall = traced("localize")
    m = tracing.layer_metrics(tracer)
    assert m["solver.grid_points"][0] == 441 * workload.n
    assert m["solver.iterates"][0] > 0 and m["derivatives.error_gradient_hessian.calls"][0] > 0
    assert tally.failed == 0


def test_cli_counts_every_grid_evaluation(traced):
    workload, tally, tracer, _ = traced("cli")
    m = tracing.layer_metrics(tracer)
    assert m["cli.localize.extra_grid_evals"][0] == 441 * workload.n
    assert m["solver.grid_points"][0] == 441 * workload.n
    assert m["diagnostics.level_set.points_kept"][0] == 61 * 61 * workload.n
    assert tally.failed == 0


def test_track_counts_four_stages_per_rk4_step(traced):
    workload, tally, tracer, _ = traced("track")
    spans = tracer.spans
    children = {}
    for s in spans:
        if s[tracing.NAME] == "tracking.el_acceleration":
            children[s[tracing.PARENT]] = children.get(s[tracing.PARENT], 0) + 1
    candidates = [i for i, s in enumerate(spans) if s[tracing.NAME] == "tracking.integrate_trajectory"]
    assert len(candidates) == 81
    for i in candidates:
        steps, calls = spans[i][tracing.NOTE], children.get(i, 0)
        if spans[i][tracing.ERROR] is None:
            assert calls == 4 * steps
        else:  # the step that left the domain stopped at one of its four stages
            assert 4 * (steps - 1) < calls <= 4 * steps
    m = tracing.layer_metrics(tracer)
    assert m["tracking.el_acceleration.calls"][0] == sum(children.values())
    assert m["tracking.candidates_left_domain"][0] == 23
    assert tally.failed == 0


def test_workloads_isolate_their_layers(traced):
    _, _, loc_tracer, loc_wall = traced("localize")
    _, _, trk_tracer, trk_wall = traced("track")
    _, _, cli_tracer, _ = traced("cli")
    loc, trk = tracing.layer_table(loc_tracer), tracing.layer_table(trk_tracer)
    assert loc["solver.grid_search"]["total_s"] >= 0.6 * loc_wall
    assert trk["tracking.el_acceleration"]["total_s"] >= 0.75 * trk_wall
    for name in ("solver.grid_search", "solver.newton_step", "solver.localize",
                 "derivatives.error_gradient_hessian"):
        assert trk[name]["calls"] == 0
    for tracer in (loc_tracer, cli_tracer):
        assert not any(s[tracing.NAME].startswith("tracking.") for s in tracer.spans)


def test_wrong_answers_are_counted_as_failed(tmp_path):
    localize, _ = run.set_up("localize", SEED, tmp_path)
    solve = localize.run

    def off_by_1e5(i):
        result = solve(i)
        return dataclasses.replace(result, minimizer=result.minimizer + 1e-5)

    localize.run = off_by_1e5

    track, _ = run.set_up("track", SEED, tmp_path)
    endpoint_off = track.tracking.Trajectory(
        track.data.times, [track.end + 2e-3] * len(track.data.times),
        [[0.0, 0.0]] * len(track.data.times))
    track.run = lambda i: (endpoint_off, 0.0, [])

    cli, _ = run.set_up("cli", SEED, tmp_path)
    cli.warmup()
    run_commands = cli.run

    def tampered(i):
        codes = run_commands(i)
        path = cli.dirs[i]["localize"] / "result.json"
        result = json.loads(path.read_text())
        result["minimizer"][0] += 1e-5
        path.write_text(json.dumps(result))
        if i == 0:  # scene 0 must repeat its warm-up outputs byte for byte
            with open(cli.dirs[0]["diagnose"] / "diagnostics.json", "a") as fh:
                fh.write(" ")
        return codes

    cli.run = tampered
    # (workload, operations run, expected attempted, expected failed); a cli
    # operation is three commands, of which localize fails on both scenes and
    # diagnose on scene 0
    for workload, ops, attempted, failed in ((localize, 2, 2, 2), (track, 1, 1, 1),
                                             (cli, 2, 6, 3)):
        tally = run.Tally()
        for i in range(ops):
            tally.add(workload, i)
        assert (tally.attempted, tally.failed) == (attempted, failed)


def test_stripped_checkout_exits_nonzero_without_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    child = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "localize", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert child.returncode != 0
    assert '"correct"' not in child.stdout


def test_pauses_are_excluded_from_span_times():
    tracer = tracing.Tracer()
    inner = tracer.wrap(lambda: tracer.pause(1.0), "inner")
    tracer.wrap(lambda: inner(), "outer")()
    o, i = ([s[tracing.END] - s[tracing.START]] for s in tracer.spans)
    t = tracing.layer_table(tracer)
    assert t["inner"]["total_s"] == t["inner"]["self_s"] == pytest.approx(i[0] - 1.0)
    assert t["outer"]["total_s"] == pytest.approx(o[0] - 1.0)
    assert t["outer"]["self_s"] == pytest.approx(o[0] - i[0])
