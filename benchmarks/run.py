"""framefit benchmark: closed-loop workloads driven through the public API.

    python3 benchmarks/run.py --workload localize|track|cli --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all --seed N --seconds S

One caller runs one operation after another in this process for ``--seconds``
and checks every answer.  With ``--trace 0`` the last stdout line is a JSON
object with the end-to-end metrics; with ``--trace 1`` one pass over the
workload's inputs runs with every layer wrapped in spans (see tracing.py),
then untraced passes fill the rest of the time and give the tracing overhead,
and the JSON carries the per-layer metrics.  ``--workload all`` runs each
workload both ways in child processes and prints the combined report.
Results, spans and machine details go to ``.bench_out/`` at the repository
root.  framefit is imported from ``src/`` beside this directory, never from
an installed copy.
"""

from __future__ import annotations

from time import perf_counter

T_START = perf_counter()  # set-up time counts the numpy and framefit imports

import argparse
import bisect
import importlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5  # this process plus four fresh ones; set-up reports their median

REF_STATIONS = (100.0 * np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
                100.0 * np.array([[0.6, 0.8], [-0.8, 0.6], [-0.6, -0.8], [0.8, -0.6]]))
REF_X = [3.0, -2.0]
REF_W = np.array([0.3, -0.2, 0.9, 0.1])
REF_NOMINAL_S = 1e-3   # reference_block time that reported timings are scaled to
REF_INTERVAL_S = 0.025
REF_WINDOW_S = 1.0

# Scene seeds in [0, 2000) whose noiseless 4-pair scene criterion-5 localization
# cannot recover to 1e-6: the error has a second exact zero (ghost solution) or
# a valley so flat that Newton stops on the gradient tolerance before 1e-6.
# Both are properties of the scene geometry; the acceptance gate tolerates 5 in
# 100 of them.  Found by localizing every pool scene once; 16 of 2000.
AMBIGUOUS_SCENES = frozenset({105, 169, 209, 308, 572, 760, 780, 799, 910, 974,
                              1100, 1273, 1399, 1471, 1959, 1999})
SCENE_POOL = 2000


def import_framefit():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        framefit = importlib.import_module("framefit.cli")
    except ImportError as exc:
        sys.exit(f"error: cannot import framefit from {src}: {exc}")
    if Path(framefit.__file__).resolve().parent.parent != src:
        sys.exit(f"error: framefit was imported from {framefit.__file__}, not {src}")


def pick_scenes(seed, count):
    pool = [s for s in range(SCENE_POOL) if s not in AMBIGUOUS_SCENES]
    return np.random.default_rng(seed).choice(pool, size=count, replace=False)


def noiseless_scene(scene_seed):
    """Seeded 4-pair 2-D scene, drawn exactly like tests/conftest.py's noiseless_scene."""
    from framefit import NoiseModel, RadarGeometry, TargetState, simulate_fdoa

    rng = np.random.default_rng(scene_seed)
    base = rng.uniform(0.0, 2.0 * np.pi)
    ang_t = base + np.arange(4) * 2.0 * np.pi / 4
    ang_r = base + (np.arange(4) + 0.5) * 2.0 * np.pi / 4
    geometry = RadarGeometry(100.0 * np.c_[np.cos(ang_t), np.sin(ang_t)],
                             100.0 * np.c_[np.cos(ang_r), np.sin(ang_r)])
    truth = TargetState(rng.uniform(-8.0, 8.0, size=2), rng.normal(size=2) * 5.0)
    return geometry, truth, simulate_fdoa(geometry, truth, NoiseModel(0.0, 0))


class Localize:
    """Criterion 5: grid 21x21 on [-10, 10]^2 then damped Newton, 100 scenes a pass."""

    unit, units_per_op, attempts_per_op = "scene", 1, 1

    def __init__(self, seed, workdir):
        from framefit import GridSpec, SolverConfig, radar_family

        self.solver = importlib.import_module("framefit.solver")
        self.cfg = SolverConfig(grid=GridSpec([-10.0, -10.0], [10.0, 10.0], [21, 21]),
                                max_iters=30)
        self.scenes = []
        for s in pick_scenes(seed, 100):
            geometry, truth, w = noiseless_scene(int(s))
            self.scenes.append((radar_family(geometry), truth.position, w))
        self.n = len(self.scenes)

    def warmup(self):
        self.run(0)

    def run(self, i):
        family, _, w = self.scenes[i]
        return self.solver.localize(family, w, self.cfg)

    def check(self, i, result):
        truth = self.scenes[i][1]
        ok = np.linalg.norm(result.minimizer - truth) <= 1e-6 and result.value <= 1e-12
        return int(not ok)

    def named(self, m, speed):
        return {"localize.scenes_per_s": m["throughput_per_s"],
                "localize.scene_p50_ms": m["latency_p50_ms"],
                "localize.scene_p90_ms": m["latency_p90_ms"]}


class Track:
    """Criterion 10 at K=201: 3x3 position x 3x3 velocity shooting candidates.

    The seed turns the scene by a multiple of a quarter turn and shifts it, so
    the candidate set is the same physical one and the same 23 of 81 candidates
    leave the domain on every seed.
    """

    unit, units_per_op, attempts_per_op = "candidate", 81, 1
    TX = [[30.0, 0.0], [0.0, 30.0]]
    RX = [[-30.0, 10.0], [10.0, -30.0]]
    X0, V0 = [1.0, 0.5], [2.0, -1.0]
    SAMPLES = 201

    def __init__(self, seed, workdir):
        from framefit import GridSpec, RadarGeometry, TimeSeries, radar_family

        self.tracking = importlib.import_module("framefit.tracking")
        rng = np.random.default_rng(seed)
        c, s = [(1, 0), (0, 1), (-1, 0), (0, -1)][rng.integers(4)]
        R = np.array([[c, -s], [s, c]], dtype=float)
        offset = rng.uniform(-50.0, 50.0, size=2)
        self.family = radar_family(RadarGeometry(np.array(self.TX) @ R.T + offset,
                                                 np.array(self.RX) @ R.T + offset))
        x0, v0 = R @ self.X0 + offset, R @ self.V0
        times = np.linspace(0.0, 1.0, self.SAMPLES)
        values = np.array([self.family.jet(x0 + t * v0, 0).F.T @ v0 for t in times])
        self.data = TimeSeries(times, values)
        self.end = x0 + v0
        self.grids = (GridSpec(x0 - 1.0, x0 + 1.0, [3, 3]), GridSpec(v0 - 1.0, v0 + 1.0, [3, 3]))
        self.one = (GridSpec(x0, x0 + 1.0, [1, 1]), GridSpec(v0, v0 + 1.0, [1, 1]))
        self.n = 1

    def warmup(self):
        self.tracking.shooting_search(self.family, self.data, *self.one)

    def run(self, i):
        return self.tracking.shooting_search(self.family, self.data, *self.grids)

    def check(self, i, result):
        best = result[0]
        return int(not np.linalg.norm(best.positions[-1] - self.end) <= 1e-3)

    def named(self, m, speed):
        return {"track.candidates_per_s": m["throughput_per_s"],
                "track.search_s": (m["latency_p50_ms"][0] / 1e3, "s")}


class Cli:
    """``framefit simulate``, ``localize --measurement`` (21x21) and
    ``diagnose --grid-counts=61,61`` on 10 noiseless scenes a pass."""

    COMMANDS = ("simulate", "localize", "diagnose")
    unit, units_per_op, attempts_per_op = "scene", 1, len(COMMANDS)

    def __init__(self, seed, workdir):
        self.cli = importlib.import_module("framefit.cli")
        self.truths, self.argv, self.dirs = [], [], []
        for i, s in enumerate(pick_scenes(seed, 10)):
            geometry, truth, _ = noiseless_scene(int(s))
            scenario = workdir / f"scene{i}.json"
            scenario.write_text(json.dumps({
                "dim": 2,
                "transmitters": geometry.transmitters.tolist(),
                "receivers": geometry.receivers.tolist(),
                "target": {"position": truth.position.tolist(),
                           "velocity": truth.velocity.tolist()},
                "noise": {"sigma": 0.0, "seed": 0},
            }))
            dirs = {cmd: workdir / f"scene{i}" / cmd for cmd in self.COMMANDS}
            base = ["--scenario", str(scenario)]
            measurement = ["--measurement", str(dirs["simulate"] / "measurement.json")]
            self.argv.append({
                "simulate": ["simulate", *base],
                "localize": ["localize", *base, *measurement],
                "diagnose": ["diagnose", *base, *measurement, "--grid-counts=61,61"],
            })
            self.truths.append(truth.position)
            self.dirs.append(dirs)
        self.n = len(self.argv)
        self.command_spans = defaultdict(list)
        self.bytes_written = 0
        self.reference = None

    def outputs(self, i, cmd):
        return {p.name: p.read_bytes() for p in sorted(self.dirs[i][cmd].iterdir())}

    def warmup(self):
        codes = self.run(0)
        self.reference = {cmd: self.outputs(0, cmd) for cmd in self.COMMANDS if codes[cmd] == 0}
        self.command_spans.clear()

    def run(self, i):
        codes = {}
        for cmd in self.COMMANDS:
            start = perf_counter()
            try:
                codes[cmd] = self.cli.main(self.argv[i][cmd] + ["--out-dir", str(self.dirs[i][cmd])])
            except SystemExit as exc:
                codes[cmd] = exc.code
            self.command_spans[cmd].append((start, perf_counter()))
            if codes[cmd] == 0:
                self.bytes_written += sum(p.stat().st_size for p in self.dirs[i][cmd].iterdir())
        return codes

    def check(self, i, codes):
        failed = 0
        for cmd in self.COMMANDS:
            ok = codes[cmd] == 0
            if ok and cmd == "localize":
                result = json.loads((self.dirs[i][cmd] / "result.json").read_text())
                ok = np.linalg.norm(np.array(result["minimizer"]) - self.truths[i]) <= 1e-6
            if ok and i == 0:  # scene 0 reruns every pass: outputs must repeat byte for byte
                ok = self.outputs(0, cmd) == self.reference.get(cmd)
            failed += not ok
        return failed

    def named(self, m, speed):
        def p50_ms(cmd):
            return 1e3 * statistics.median(speed.seconds(*span) for span in self.command_spans[cmd])

        return {"cli.scenes_per_s": m["throughput_per_s"],
                "cli.localize_p50_ms": (p50_ms("localize"), "ms"),
                "cli.diagnose_p50_ms": (p50_ms("diagnose"), "ms")}


WORKLOADS = {"localize": Localize, "track": Track, "cli": Cli}


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def tail(values):
    """(percentile, value) of the highest percentile with at least 10 samples beyond it."""
    ordered = sorted(values)
    if len(ordered) <= 10:
        return None
    k = len(ordered) - 10
    return 100.0 * k / len(ordered), ordered[k - 1]


def reference_block(reps=16):
    """A frozen copy of the error_value path for one 4-pair scene: station
    unit vectors, validity checks, SVD dual and null-space projection.  It
    does not touch framefit, so its time measures only how fast this host
    runs framefit-like code at the moment."""
    for _ in range(reps):
        x = np.asarray(REF_X, dtype=float)
        if x.shape != (2,) or not np.all(np.isfinite(x)):
            raise ValueError("bad reference point")
        cols = []
        for stations in REF_STATIONS:
            d = x[None, :] - stations
            r = np.sqrt(np.einsum("nm,nm->n", d, d))
            if np.any(r <= 1e-9) or np.any(r == 0.0):
                raise ValueError("reference point on a station")
            cols.append(d / r[:, None])
        F = (cols[0] + cols[1]).T
        U, s, Vt = np.linalg.svd(F, full_matrices=False)
        if s[-1] <= 1e-8 * s[0]:
            raise ValueError("reference frame is rank deficient")
        G = (Vt.T / s) @ U.T
        Pw = REF_W - G @ (F @ REF_W)
        float(Pw @ Pw)


class Speedometer:
    """Times ``reference_block`` every REF_INTERVAL_S (SIGALRM) while operations run.

    Shared hosts change speed by up to 2x for tens of seconds at a time, with
    the same effect on an operation and on the reference block around it.  So
    ``seconds(start, end)`` reports an interval's time minus the blocks run
    inside it, times ``factor``: REF_NOMINAL_S over the mean block time within
    REF_WINDOW_S of the interval.  That is the time at a fixed reference speed.
    While ``tracer`` is set, each block is also recorded as a pause of the
    span it interrupted.
    """

    def __init__(self):
        self.starts, self.durations = [], []
        self.tracer = None

    def _tick(self, signum, frame):
        start = perf_counter()
        reference_block()
        self.starts.append(start)
        self.durations.append(perf_counter() - start)
        if self.tracer is not None:
            self.tracer.pause(self.durations[-1])

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, start, end):
        near = self.durations[bisect.bisect_left(self.starts, start - REF_WINDOW_S):
                              bisect.bisect_left(self.starts, end + REF_WINDOW_S)]
        return REF_NOMINAL_S * len(near) / sum(near)

    def seconds(self, start, end):
        lo, hi = (bisect.bisect_left(self.starts, t) for t in (start, end))
        return (end - start - sum(self.durations[lo:hi])) * self.factor(start, end)


def one_op(workload, i):
    """Run and check operation i; returns (start, end, failed checks)."""
    start = perf_counter()
    try:
        result = workload.run(i)
    except Exception:
        end = perf_counter()
        traceback.print_exc(file=sys.stderr)
        return start, end, workload.attempts_per_op
    end = perf_counter()
    return start, end, workload.check(i, result)


class Tally:
    """Operation intervals, and checks attempted and failed, of a measurement."""

    def __init__(self):
        self.spans, self.attempted, self.failed, self.units = [], 0, 0, 0

    def add(self, workload, i):
        start, end, failed = one_op(workload, i)
        self.spans.append((start, end))
        self.attempted += workload.attempts_per_op
        self.failed += failed
        self.units += workload.units_per_op


def measure(workload, seconds):
    """Closed loop over the workload's inputs, in order, for ``seconds``."""
    tally = Tally()
    with Speedometer() as speed:
        deadline = perf_counter() + seconds
        i = 0
        while i == 0 or perf_counter() < deadline:
            tally.add(workload, i % workload.n)
            i += 1
    return tally, speed


def reference_factor(blocks=100):
    """REF_NOMINAL_S over the mean time of ``blocks`` reference blocks run now;
    a time measured next to them, multiplied by it, is at reference speed."""
    reference_block(1)
    start = perf_counter()
    for _ in range(blocks):
        reference_block()
    return REF_NOMINAL_S * blocks / (perf_counter() - start)


def run_pass(workload, tally, tracer=None):
    """One pass over the workload's inputs; returns its (start, end)."""
    start = perf_counter()
    for i in range(workload.n):
        if tracer is not None:
            tracer.op = i
        tally.add(workload, i)
    return start, perf_counter()


def measure_traced(workload, seconds, spans_path):
    """One traced pass, then untraced passes until ``seconds`` have gone by.

    Per-layer times exclude the reference blocks that interrupted them and are
    scaled by the traced pass's reference factor; the per-span table in the
    results stays raw apart from the excluded blocks.
    """
    from tracing import Tracer, installed, layer_metrics, layer_table

    tally, tracer = Tally(), Tracer()
    written = getattr(workload, "bytes_written", 0)
    untraced = []
    with Speedometer() as speed:
        speed.tracer = tracer
        with installed(tracer):
            traced = run_pass(workload, tally, tracer)
        speed.tracer = None
        written = getattr(workload, "bytes_written", 0) - written
        while not untraced or perf_counter() - traced[0] < seconds:
            untraced.append(speed.seconds(*run_pass(workload, tally)))
    tracer.write_csv(spans_path)
    scale = speed.factor(*traced)
    traced_s, untraced_s = speed.seconds(*traced), statistics.median(untraced)
    metrics = {name: (value * scale if unit == "s" else value, unit)
               for name, (value, unit) in layer_metrics(tracer).items()}
    metrics["cli.bytes_written"] = (written, "B")
    metrics["trace.traced_pass_s"] = (traced_s, "s")
    metrics["trace.untraced_pass_s"] = (untraced_s, "s")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s - 1.0, "ratio")
    table = {name: dict(row) for name, row in sorted(layer_table(tracer).items())}
    return tally, metrics, {"layers": table, "reference_factor": scale}


def blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None when it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine(workload, seed):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "commit": commit,
        "workload": workload,
        "seed": seed,
    }


def set_up(name, seed, workdir):
    """Import framefit and build the workload's inputs.

    Returns the workload and the set-up time at reference speed (see Speedometer).
    """
    import_framefit()
    workload = WORKLOADS[name](seed, workdir)
    return workload, (perf_counter() - T_START) * reference_factor()


def setup_seconds(name, seed, own):
    """Median set-up time over this process and SETUP_REPEATS - 1 fresh processes."""
    times = [own]
    for _ in range(SETUP_REPEATS - 1):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(child.stdout.split()[-1]))
    return statistics.median(times)


def run_workload(args):
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload, own_setup = set_up(args.workload, args.seed, workdir)
        if args.setup_only:
            print(own_setup)
            return 0
        workload.warmup()
        stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        report = {"machine": machine(args.workload, args.seed)}
        if args.trace:
            tally, metrics, report["trace"] = measure_traced(
                workload, args.seconds, OUT / f"{args.workload}-seed{args.seed}-spans.csv")
        else:
            tally, speed = measure(workload, args.seconds)
            rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            setup = setup_seconds(args.workload, args.seed, own_setup)
            lat = [speed.seconds(start, end) for start, end in tally.spans]
            raw = [end - start for start, end in tally.spans]
            metrics = {
                "setup_s": (setup, "s"),
                "peak_rss_mib": (rss_mib, "MiB"),
                "throughput_per_s": (tally.units / sum(lat), "1/s"),
                "latency_p50_ms": (1e3 * statistics.median(lat), "ms"),
                "latency_p90_ms": (1e3 * percentile(lat, 0.9), "ms"),
            }
            named = {"setup_s": metrics["setup_s"], "peak_rss_mib": metrics["peak_rss_mib"],
                     "failed_frac": (tally.failed / tally.attempted, "ratio")}
            named.update(workload.named(metrics, speed))
            report["named"] = named
            report["samples"] = {
                "ops": len(lat), "unit": workload.unit, "units": tally.units, "tail": tail(lat),
                "reference_blocks": len(speed.durations),
                "reference_block_mean_s": statistics.fmean(speed.durations),
                "raw_wall_s": tally.spans[-1][1] - tally.spans[0][0],
                "raw_throughput_per_s": tally.units / sum(raw),
                "raw_latency_p50_ms": 1e3 * statistics.median(raw),
                "raw_latency_p90_ms": 1e3 * percentile(raw, 0.9),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for key, value in report["machine"].items():
        print(f"# {key}: {value}")
    for name, (value, unit) in {**report.get("named", {}), **metrics}.items():
        print(f"{name} = {value:.6g} {unit}")
    if "samples" in report:
        s = report["samples"]
        tail_text = f", p{s['tail'][0]:.1f} {1e3 * s['tail'][1]:.6g} ms" if s["tail"] else ""
        print(f"# {s['ops']} operations timed, {s['units']} {s['unit']}s{tail_text}")
        print(f"# times at reference speed; host ran reference_block in "
              f"{s['reference_block_mean_s'] / REF_NOMINAL_S:.3f}x nominal, raw p50 "
              f"{s['raw_latency_p50_ms']:.6g} ms, raw throughput {s['raw_throughput_per_s']:.6g}/s")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    report["result"] = result
    stem.with_suffix(".json").write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload untraced then traced, in child processes; prints the combined report."""
    from tracing import PER_CALL

    reports = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            child = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=600)
            if child.returncode != 0:
                sys.stderr.write(child.stderr)
                sys.exit(f"error: {name} --trace {trace} exited with {child.returncode}")
            path = OUT / f"{name}-seed{args.seed}-trace{trace}.json"
            reports[name, trace] = json.loads(path.read_text())

    print("machine:", json.dumps(reports["localize", 0]["machine"]))
    print("\nend-to-end (untraced)")
    for name in WORKLOADS:
        report = reports[name, 0]
        for metric, (value, unit) in report["named"].items():
            label = metric if "." in metric else f"{name}.{metric}"
            print(f"  {label:32s} {value:12.6g} {unit}")
        s = report["samples"]
        print(f"  {'':32s} ({s['ops']} operations, {report['result']['attempted']} attempted)")

    def layer(name, span, field="total_s"):
        """A per-span table entry of the traced run, times at reference speed."""
        trace = reports[name, 1]["trace"]
        value = trace["layers"].get(span, {}).get(field, 0)
        return value * trace["reference_factor"] if field.endswith("_s") else value

    def metric(name, key):
        return reports[name, 1]["result"]["metrics"][key]["value"]

    print("\nper call, traced                          self us   total us")
    for span in PER_CALL:
        calls, name = max((layer(n, span, "calls"), n) for n in WORKLOADS)
        if calls:
            print(f"  {span:36s} {1e6 * layer(name, span, 'self_s') / calls:9.1f} "
                  f"{1e6 * layer(name, span) / calls:10.1f}  ({calls} calls on {name})")

    checks = {
        "solver.grid_search >= 60% of localize":
            layer("localize", "solver.grid_search") >= 0.6 * metric("localize", "trace.traced_pass_s"),
        "tracking.el_acceleration >= 75% of track":
            layer("track", "tracking.el_acceleration") >= 0.75 * metric("track", "trace.traced_pass_s"),
        "track makes no grid or Newton calls":
            metric("track", "solver.grid_points") == 0 and metric("track", "solver.newton_step.calls") == 0,
        "localize and cli make no tracking calls":
            all(layer(n, s, "calls") == 0 for n in ("localize", "cli")
                for s in ("tracking.shooting_search", "tracking.integrate_trajectory",
                          "tracking.el_acceleration", "tracking.functional_value")),
    }
    print("\nisolation")
    for label, ok in checks.items():
        print(f"  {'PASS' if ok else 'FAIL'}  {label}")
    print("\ntracing overhead (traced pass / untraced pass - 1)")
    for name in WORKLOADS:
        print(f"  {name:10s} {metric(name, 'trace.overhead_ratio'):+.3f}")
    correct = all(r["result"]["correct"] for r in reports.values())
    return 0 if correct and all(checks.values()) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    OUT.mkdir(exist_ok=True)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
