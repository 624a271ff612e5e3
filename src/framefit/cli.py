"""Command-line front end: simulate, localize, diagnose, track.

Each ``cmd_*`` loads its inputs and computes every output before it touches
the out dir, then hands them to ``_publish``, which writes them and a
manifest.json recording the command, the input paths, the resolved overrides,
the seed and the tool version.  A run that fails before publishing leaves the
previous outputs as they were; re-running with the same inputs reproduces
every output file byte for byte.

Each output file is replaced whole: its bytes go to a hidden temp file in the
out dir, which takes the file's name once complete, so a reader or a killed
run sees the old file or none, never a torn one.  ``_publish`` removes the
old manifest.json before the first output and writes the new one last, so an
out dir holding a manifest holds one complete run; only a failed write leaves
a partial set.  Nothing is fsynced: outputs are not durable across a power
loss.

Exit codes: 0 success, 1 runtime/solver error, 2 usage error or bad flag value.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from contextlib import contextmanager
from itertools import islice
from pathlib import Path

import numpy as np

from . import __version__
from .core import _lengths, read_json
from .diagnostics import level_set, residual_bound_check, uniqueness_certificate
from .errors import FramefitError
from .radar import load_scenario, radar_family, simulate_fdoa, NoiseModel
from .solver import GridSpec, SolverConfig, SolveStatus, grid_sweep, localize
from .tracking import load_time_series, shooting_search

DEGENERACY_RTOL = 1e-12
GRID_POINTS_PER_AXIS = 21   # localize and diagnose
TRACK_POINTS_PER_AXIS = 3   # track: 3^(P+M) shooting candidates, 81 in 2-D
# Rows per write in _write_csv: joining a whole table at once costs memory.
CSV_BLOCK_ROWS = 1024


def _from_flags(make, *args, **kwargs):
    """``make(*args, **kwargs)`` of flag values, a ValueError made the flag error."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _given(args, *keys: str) -> dict:
    """The flags among ``keys`` that the command line sets."""
    return {key: value for key in keys if (value := getattr(args, key)) is not None}


def _list_of(kind, what: str):
    """The argparse type of a comma-separated list of ``kind`` values."""
    def parse(text: str) -> list:
        try:
            return [kind(tok) for tok in text.split(",")]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {what}: {text}") from exc
    return parse


def _grid(args, prefix: str, dim: int, per_axis: int) -> GridSpec:
    """The grid of the ``--{prefix}-lower/upper/counts`` flags; unset ones
    default to [-10, 10] with ``per_axis`` points on every axis.  Raises
    ValueError for a grid the flags cannot make for a ``dim``-axis scene."""
    lower = getattr(args, f"{prefix}_lower") or [-10.0] * dim
    upper = getattr(args, f"{prefix}_upper") or [10.0] * dim
    counts = getattr(args, f"{prefix}_counts") or [per_axis] * dim
    grid = GridSpec(np.asarray(lower), np.asarray(upper), np.asarray(counts))
    if len(grid.counts) != dim:
        raise ValueError(f"grid has dimension {len(grid.counts)}, the scene needs {dim}")
    # numpy sizes an array in bytes by an intp, so no grid array can be larger
    if grid.num_points * dim * np.dtype(float).itemsize > np.iinfo(np.intp).max:
        raise ValueError(f"grid of {grid.num_points} points is too large for one array")
    return grid


def _grid_record(prefix: str, grid: GridSpec) -> dict:
    """The resolved ``--{prefix}-*`` flags, as a manifest records them."""
    return {f"{prefix}_{key}": getattr(grid, key).tolist()
            for key in ("lower", "upper", "counts")}


@contextmanager
def _replacing(path: Path, newline=None):
    """A text file handle whose contents replace ``path`` whole on exit.

    The bytes go to ``.<name>.<pid>.tmp`` beside ``path``, made by plain
    ``open`` so its mode follows the umask.  The target is unlinked before
    the rename: on ext4, renaming over an existing file (``os.replace``)
    waits for the earlier file's data to be flushed, tens of ms per file.
    On any exception the temp file is removed and the target left as it was.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline=newline) as fh:
            yield fh
        path.unlink(missing_ok=True)
        tmp.rename(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_json(path: Path, payload) -> None:
    with _replacing(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _names(prefix: str, n: int) -> list[str]:
    return [f"{prefix}_{i + 1}" for i in range(n)]


def _cells(column) -> list[str]:
    """``repr`` of every entry of an int or float ``column`` as a Python int
    or float, made once per distinct value: grid coordinates repeat, so a
    61x61 level set needs 61 ``repr`` calls per coordinate column, not 3721.
    Values are told apart by their bits, so ``0.0`` and ``-0.0`` stay apart."""
    values = np.asarray(column)
    keys, inverse = np.unique(values.view(f"u{values.itemsize}"), return_inverse=True)
    text = np.array([repr(v) for v in keys.view(values.dtype).tolist()], dtype=object)
    return text[inverse].tolist()


def _write_csv(path: Path, header: list[str], columns) -> None:
    """Every output table, from equal-length int or float columns: a header
    row, then row i of every column.  Cells are ``_cells`` of each column, so
    an int column prints as ints and a float column as the shortest decimal
    that reads back to the same float (``inf``, ``nan``).  The bytes are those
    of ``csv.writer``'s excel dialect, which quotes none of these cells."""
    lines = map(",".join, zip(*map(_cells, columns), strict=True))
    with _replacing(path, newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        while block := list(islice(lines, CSV_BLOCK_ROWS)):
            fh.write("\r\n".join(block) + "\r\n")


def _publish(args, outputs: dict, overrides: dict, seed) -> int:
    """Write ``outputs``, ``{file name: payload}``, into ``--out-dir`` in
    order, then the manifest; returns the exit code 0.

    A ``.csv`` payload is the ``(header, columns)`` of ``_write_csv``, any
    other is JSON.  The out dir is made if missing and its old manifest
    removed first, so from the first output on it holds no complete run
    until the new manifest is written.  The manifest takes its command from
    ``args.command`` and its inputs from those path flags the subcommand has."""
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.json").unlink(missing_ok=True)
    for name, payload in outputs.items():
        if name.endswith(".csv"):
            _write_csv(out / name, *payload)
        else:
            _write_json(out / name, payload)
    inputs = {key: getattr(args, key) for key in ("scenario", "measurement", "series")
              if hasattr(args, key)}
    _write_json(out / "manifest.json", {"command": args.command, "inputs": inputs,
                                        "overrides": overrides, "seed": seed,
                                        "version": __version__})
    return 0


def _measurement(args, scenario, family) -> np.ndarray:
    if args.measurement is None:
        return simulate_fdoa(scenario.geometry, scenario.target, scenario.noise)
    (w,) = read_json(args.measurement, "measurement", "w")
    return family.check_measurement(w)


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    overrides = _given(args, "sigma", "seed")
    # the scenario's own noise is valid, so a failure here is a flag's
    noise = _from_flags(dataclasses.replace, scenario.noise, **overrides)
    w = simulate_fdoa(scenario.geometry, scenario.target, noise)
    return _publish(args, {"measurement.json": {"w": w.tolist()}}, overrides, noise.seed)


def cmd_localize(args) -> int:
    scenario = load_scenario(args.scenario)
    family = radar_family(scenario.geometry)
    grid = _from_flags(_grid, args, "grid", family.P, GRID_POINTS_PER_AXIS)
    cfg = _from_flags(SolverConfig, grid=grid, **_given(args, "max_iters", "grad_tol"))
    w = _measurement(args, scenario, family)

    # E vanishes where w lies in the M-dimensional range of F(x)^T.  Over
    # (x, v) that range sweeps up to M + P dimensions of R^N, so with fewer
    # than M + P pairs the zero set has M + P - N dimensions: a curve or more.
    surplus = family.M + family.P - family.N
    if surplus > 0:
        print(
            f"warning: {family.N} pairs are fewer than M + P = {family.M + family.P}, "
            f"so E vanishes on a {surplus}-dimensional set of positions; the "
            "position is not identifiable from a single-instant measurement, and "
            "the result is one exact fit of many",
            file=sys.stderr,
        )
    # A zero measurement, or a square family (N == M), has zero error
    # everywhere: no single-instant fix.
    _, errors = grid_sweep(family, w, grid)
    w_scale = max(float(w @ w), np.finfo(float).tiny)
    degenerate = np.nanmax(errors) <= DEGENERACY_RTOL * w_scale
    if degenerate:
        cause = (" (zero measurement)" if not w.any()
                 else " (square N = M frame family)" if family.N == family.M else "")
        print(
            f"warning: error is numerically zero at every grid point{cause}; "
            "position is not identifiable from a single-instant measurement",
            file=sys.stderr,
        )

    result = localize(family, w, cfg)
    if result.status is SolveStatus.LEFT_REGION:
        lower, upper = grid.region()
        region = " x ".join(f"[{lo!r}, {hi!r}]"
                            for lo, hi in zip(lower.tolist(), upper.tolist()))
        print(
            f"warning: Newton left the search region {region}, the grid widened by "
            "half its span on each side; the result is the last iterate inside it",
            file=sys.stderr,
        )
    xs, Es, grad_norms = zip(*result.iterates)
    outputs = {
        "result.json": {
            "minimizer": result.minimizer.tolist(),
            "value": result.value,
            "status": result.status.value,
            "iterations": len(result.iterates) - 1,
            "degenerate_grid": bool(degenerate),
        },
        "trace.csv": (["k", *_names("x", family.P), "E", "grad_norm"],
                      [np.arange(len(xs)), *np.transpose(xs), Es, grad_norms]),
    }
    overrides = {"max_iters": cfg.max_iters, "grad_tol": cfg.grad_tol,
                 **_grid_record("grid", grid)}
    return _publish(args, outputs, overrides, scenario.noise.seed)


def cmd_diagnose(args) -> int:
    if args.tau is not None and not 0.0 <= args.tau < np.inf:
        raise argparse.ArgumentTypeError(
            f"--tau must be finite and nonnegative, got {args.tau}")
    scenario = load_scenario(args.scenario)
    family = radar_family(scenario.geometry)
    grid = _from_flags(_grid, args, "grid", family.P, GRID_POINTS_PER_AXIS)
    w = _measurement(args, scenario, family)
    tau = args.tau if args.tau is not None else float(w @ w)

    report = level_set(family, w, grid, tau)

    # Residual bound at the scenario truth, against the actual noise realization.
    x0 = scenario.target.position
    clean = simulate_fdoa(scenario.geometry, scenario.target, NoiseModel())
    eps_norm = float(_lengths(w - clean))
    E0, holds = residual_bound_check(family, x0, w, eps_norm)

    # Certificate sampled at the truth and at those points of a small ring
    # around it that lie in the domain: +spread, then -spread, on each axis.
    # Offsets are +0.0 off their axis (0.0 - steps, not -steps), so every
    # sample, the truth too, reads a -0.0 coordinate of x0 as 0.0.
    steps = 0.01 * scenario.geometry.scene_diameter * np.eye(family.P)
    ring = np.stack([steps, 0.0 - steps], axis=1).reshape(-1, family.P)
    truth, *around = x0 + np.vstack([np.zeros(family.P), ring])
    cert = uniqueness_certificate(family, w, [truth, *filter(family.contains, around)])

    outputs = {
        "level_set.csv": ([*_names("x", family.P), "E"], [*report.points.T, report.errors]),
        "uniqueness.json": {
            "passed": cert.passed,
            "samples": [s.tolist() for s in cert.samples],
            "smallest_singular_values": cert.smallest_singular_values,
        },
        "diagnostics.json": {
            "error_at_truth": E0,
            "noise_norm": eps_norm,
            "residual_bound_holds": bool(holds),
            "level_set_threshold": tau,
            "level_set_fraction": report.fraction,
        },
    }
    return _publish(args, outputs, {"tau": tau}, scenario.noise.seed)


def cmd_track(args) -> int:
    scenario = load_scenario(args.scenario)
    family = radar_family(scenario.geometry)
    pos_grid = _from_flags(_grid, args, "grid", family.P, TRACK_POINTS_PER_AXIS)
    vel_grid = _from_flags(_grid, args, "vel", family.M, TRACK_POINTS_PER_AXIS)
    data = load_time_series(args.series)
    if family.N == family.M:
        print(
            f"warning: {family.N} pairs in {family.M} dimensions make a square frame: "
            "from any start x0 the velocity F(x0)^{-T} w(0) starts a path that fits "
            "the whole series exactly, so the track is not identifiable and the "
            "answer depends on the grids",
            file=sys.stderr,
        )
    best, value, trace = shooting_search(family, data, pos_grid, vel_grid)
    x0s, v0s, values = zip(*trace)
    outputs = {
        "trajectory.csv": (["t", *_names("x", family.M), *_names("v", family.M)],
                           [best.times, *best.positions.T, *best.velocities.T]),
        "shooting_trace.csv": ([*_names("x0", family.P), *_names("v0", family.M), "value"],
                               [*np.transpose(x0s), *np.transpose(v0s), values]),
        "tracking.json": {"best_value": float(value)},
    }
    overrides = {**_grid_record("grid", pos_grid), **_grid_record("vel", vel_grid)}
    return _publish(args, outputs, overrides, scenario.noise.seed)


def _add_grid_flags(sub, prefix: str) -> None:
    sub.add_argument(f"--{prefix}-lower", type=_list_of(float, "floats"))
    sub.add_argument(f"--{prefix}-upper", type=_list_of(float, "floats"))
    sub.add_argument(f"--{prefix}-counts", type=_list_of(int, "integers"))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``framefit`` parser, built once per process: argparse leaves each
    parser in reference cycles that only a full garbage collection frees."""
    parser = argparse.ArgumentParser(
        prog="framefit",
        description="Frame-family localization and tracking from FDOA data",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="simulate an FDOA measurement vector")
    sim.add_argument("--scenario", required=True)
    sim.add_argument("--sigma", type=float)
    sim.add_argument("--seed", type=int)

    loc = subs.add_parser("localize", help="grid + Newton position estimate")
    loc.add_argument("--scenario", required=True)
    loc.add_argument("--measurement")
    _add_grid_flags(loc, "grid")
    loc.add_argument("--max-iters", type=int)
    loc.add_argument("--grad-tol", type=float)

    diag = subs.add_parser("diagnose", help="level sets, residual bound, uniqueness")
    diag.add_argument("--scenario", required=True)
    diag.add_argument("--measurement")
    _add_grid_flags(diag, "grid")
    diag.add_argument("--tau", type=float)

    trk = subs.add_parser("track", help="shooting search over initial states")
    trk.add_argument("--scenario", required=True)
    trk.add_argument("--series", required=True)
    _add_grid_flags(trk, "grid")
    _add_grid_flags(trk, "vel")
    for sub in subs.choices.values():  # every subcommand ends with --out-dir
        sub.add_argument("--out-dir", required=True)
        sub.set_defaults(command_parser=sub)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args, unknown = parser.parse_known_args(argv)
    if unknown:  # argparse would report these with the top-level usage
        args.command_parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    # Looked up per call, not stored in the cached parser, so a rebinding of
    # a cmd_* name (a wrapper, a monkeypatch) takes effect on the next run.
    command = {"simulate": cmd_simulate, "localize": cmd_localize,
               "diagnose": cmd_diagnose, "track": cmd_track}[args.command]
    try:
        return command(args)
    except argparse.ArgumentTypeError as exc:
        args.command_parser.error(str(exc))
    except (FramefitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory ({exc})", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
