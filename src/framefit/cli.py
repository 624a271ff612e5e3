"""Command-line front end: simulate, localize, diagnose, track.

Every run writes a manifest.json beside its outputs recording the command,
input paths, explicit overrides, seed, and tool version; re-running with the
same inputs reproduces every output file byte for byte.

Exit codes: 0 success, 1 runtime/solver error, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .diagnostics import (
    level_set,
    residual_bound_check,
    uniqueness_certificate,
    write_level_set_csv,
)
from .errors import FramefitError, ScenarioParseError, ScenarioValidationError
from .radar import load_scenario, radar_family, simulate_fdoa, NoiseModel
from .solver import GridSpec, SolverConfig, grid_sweep, localize
from .tracking import load_time_series, shooting_search, write_trajectory_csv

DEGENERACY_RTOL = 1e-12
GRID_POINTS_PER_AXIS = 21   # localize and diagnose
TRACK_POINTS_PER_AXIS = 3   # track: 3^(P+M) shooting candidates, 81 in 2-D


def _vector(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats: {text}") from exc


def _counts(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {text}") from exc


def _grid_from_args(parser, lower, upper, counts, dim,
                    points_per_axis=GRID_POINTS_PER_AXIS) -> GridSpec:
    lower = lower if lower is not None else [-10.0] * dim
    upper = upper if upper is not None else [10.0] * dim
    counts = counts if counts is not None else [points_per_axis] * dim
    try:
        grid = GridSpec(np.asarray(lower), np.asarray(upper), np.asarray(counts))
    except ValueError as exc:
        parser.error(str(exc))
    if len(grid.counts) != dim:
        parser.error(f"grid has dimension {len(grid.counts)}, the scene needs {dim}")
    return grid


def _write_json(path: Path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(out_dir: Path, command: str, inputs: dict, overrides: dict,
                    seed) -> None:
    _write_json(
        out_dir / "manifest.json",
        {
            "command": command,
            "inputs": inputs,
            "overrides": overrides,
            "seed": seed,
            "version": __version__,
        },
    )


def _measurement(args, scenario, family) -> np.ndarray:
    path = args.measurement
    if path is None:
        w = simulate_fdoa(scenario.geometry, scenario.target, scenario.noise)
    else:
        try:
            with open(path) as fh:
                w = np.asarray(json.load(fh)["w"], dtype=float)
        except (OSError, KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ScenarioParseError(f"cannot read measurement {path}: {exc}") from exc
        w = family.check_measurement(w)
    # every error lies in [0, |w|^2]; Python floats overflow to inf silently
    if not np.isfinite(sum(v * v for v in w.tolist())):
        raise ScenarioValidationError("measurement too large: |w|^2 overflows")
    return w


def cmd_simulate(parser, args) -> int:
    scenario = load_scenario(args.scenario)
    noise = scenario.noise
    overrides = {}
    if args.sigma is not None:
        noise = NoiseModel(sigma=args.sigma, seed=noise.seed)
        overrides["sigma"] = args.sigma
    if args.seed is not None:
        noise = NoiseModel(sigma=noise.sigma, seed=args.seed)
        overrides["seed"] = args.seed
    w = simulate_fdoa(scenario.geometry, scenario.target, noise)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "measurement.json", {"w": [float(v) for v in w]})
    _write_manifest(out, "simulate", {"scenario": args.scenario}, overrides, noise.seed)
    return 0


def cmd_localize(parser, args) -> int:
    scenario = load_scenario(args.scenario)
    family = radar_family(scenario.geometry)
    w = _measurement(args, scenario, family)
    grid = _grid_from_args(parser, args.grid_lower, args.grid_upper, args.grid_counts,
                           family.P)
    try:
        cfg = SolverConfig(
            gamma=args.gamma, max_iters=args.max_iters, grad_tol=args.grad_tol, grid=grid
        )
    except ValueError as exc:
        parser.error(str(exc))

    # A square family (N == M) has zero error everywhere: no single-instant fix.
    _, errors = grid_sweep(family, w, grid)
    w_scale = max(float(w @ w), np.finfo(float).tiny)
    degenerate = np.nanmax(errors) <= DEGENERACY_RTOL * w_scale
    if degenerate:
        print(
            "warning: error is numerically zero at every grid point "
            "(square N = M frame family); position is not identifiable "
            "from a single-instant measurement",
            file=sys.stderr,
        )

    result = localize(family, w, cfg)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(
        out / "result.json",
        {
            "minimizer": [float(v) for v in result.minimizer],
            "value": result.value,
            "status": result.status.value,
            "iterations": len(result.iterates) - 1,
            "degenerate_grid": bool(degenerate),
        },
    )
    with open(out / "trace.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["k"] + [f"x_{p + 1}" for p in range(family.P)] + ["E", "grad_norm"]
        )
        for k, (x, E, gn) in enumerate(result.iterates):
            writer.writerow([k] + [repr(float(v)) for v in x] + [repr(E), repr(gn)])
    _write_manifest(
        out,
        "localize",
        {"scenario": args.scenario, "measurement": args.measurement},
        {
            "gamma": args.gamma,
            "max_iters": args.max_iters,
            "grad_tol": args.grad_tol,
            "grid_lower": [float(v) for v in grid.lower],
            "grid_upper": [float(v) for v in grid.upper],
            "grid_counts": [int(c) for c in grid.counts],
        },
        scenario.noise.seed,
    )
    return 0


def cmd_diagnose(parser, args) -> int:
    if args.tau is not None and not 0.0 <= args.tau < np.inf:
        parser.error(f"--tau must be finite and nonnegative, got {args.tau}")
    scenario = load_scenario(args.scenario)
    family = radar_family(scenario.geometry)
    w = _measurement(args, scenario, family)
    grid = _grid_from_args(parser, args.grid_lower, args.grid_upper, args.grid_counts,
                           family.P)
    tau = args.tau if args.tau is not None else float(w @ w)

    report = level_set(family, w, grid, tau)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_level_set_csv(report, out / "level_set.csv")

    # Residual bound at the scenario truth, against the actual noise realization.
    x0 = scenario.target.position
    clean = simulate_fdoa(scenario.geometry, scenario.target, NoiseModel(0.0, 0))
    eps_norm = float(np.linalg.norm(w - clean))
    E0, holds = residual_bound_check(family, x0, w, eps_norm)

    # Certificate sampled at the truth and a small ring around it.
    spread = 0.01 * scenario.geometry.scene_diameter
    offsets = [np.zeros(family.P)]
    for p in range(family.P):
        for sign in (+1.0, -1.0):
            step = np.zeros(family.P)
            step[p] = sign * spread
            offsets.append(step)
    samples = [x0 + o for o in offsets]
    cert = uniqueness_certificate(family, w, samples)

    _write_json(
        out / "uniqueness.json",
        {
            "passed": cert.passed,
            "samples": [[float(v) for v in s] for s in cert.samples],
            "smallest_singular_values": cert.smallest_singular_values,
        },
    )
    _write_json(
        out / "diagnostics.json",
        {
            "error_at_truth": E0,
            "noise_norm": eps_norm,
            "residual_bound_holds": bool(holds),
            "level_set_threshold": tau,
            "level_set_fraction": report.fraction,
        },
    )
    _write_manifest(
        out,
        "diagnose",
        {"scenario": args.scenario, "measurement": args.measurement},
        {"tau": tau},
        scenario.noise.seed,
    )
    return 0


def cmd_track(parser, args) -> int:
    scenario = load_scenario(args.scenario)
    family = radar_family(scenario.geometry)
    data = load_time_series(args.series)
    pos_grid = _grid_from_args(parser, args.grid_lower, args.grid_upper,
                               args.grid_counts, family.P, TRACK_POINTS_PER_AXIS)
    vel_grid = _grid_from_args(parser, args.vel_lower, args.vel_upper,
                               args.vel_counts, family.M, TRACK_POINTS_PER_AXIS)
    best, value, trace = shooting_search(family, data, pos_grid, vel_grid)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(best, out / "trajectory.csv")
    with open(out / "shooting_trace.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [f"x0_{p + 1}" for p in range(family.P)]
            + [f"v0_{m + 1}" for m in range(family.M)]
            + ["value"]
        )
        for x0, v0, val in trace:
            writer.writerow(
                [repr(float(v)) for v in x0]
                + [repr(float(v)) for v in v0]
                + [repr(float(val))]
            )
    _write_json(out / "tracking.json", {"best_value": float(value)})
    _write_manifest(
        out,
        "track",
        {"scenario": args.scenario, "series": args.series},
        {},
        scenario.noise.seed,
    )
    return 0


def _add_grid_flags(sub):
    sub.add_argument("--grid-lower", type=_vector)
    sub.add_argument("--grid-upper", type=_vector)
    sub.add_argument("--grid-counts", type=_counts)


def build_parser() -> argparse.ArgumentParser:
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
    sim.add_argument("--out-dir", required=True)
    sim.set_defaults(func=cmd_simulate)

    loc = subs.add_parser("localize", help="grid + Newton position estimate")
    loc.add_argument("--scenario", required=True)
    loc.add_argument("--measurement")
    _add_grid_flags(loc)
    loc.add_argument("--gamma", type=float, default=1.0)
    loc.add_argument("--max-iters", type=int, default=100)
    loc.add_argument("--grad-tol", type=float, default=1e-10)
    loc.add_argument("--out-dir", required=True)
    loc.set_defaults(func=cmd_localize)

    diag = subs.add_parser("diagnose", help="level sets, residual bound, uniqueness")
    diag.add_argument("--scenario", required=True)
    diag.add_argument("--measurement")
    _add_grid_flags(diag)
    diag.add_argument("--tau", type=float)
    diag.add_argument("--out-dir", required=True)
    diag.set_defaults(func=cmd_diagnose)

    trk = subs.add_parser("track", help="shooting search over initial states")
    trk.add_argument("--scenario", required=True)
    trk.add_argument("--series", required=True)
    _add_grid_flags(trk)
    trk.add_argument("--vel-lower", type=_vector)
    trk.add_argument("--vel-upper", type=_vector)
    trk.add_argument("--vel-counts", type=_counts)
    trk.add_argument("--out-dir", required=True)
    trk.set_defaults(func=cmd_track)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(parser, args)
    except FramefitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
