"""Time-domain trajectory estimation from FDOA samples over an interval.

The integrated squared residual

    Ehat(x) = integral over [t0, t1] of |F(x(t))^T xdot(t) - w(t)|^2 dt

is minimized by shooting: candidate initial states are propagated with the
explicit form of the stationarity equation

    F(x) d/dt [F(x)^T xdot - w] = 0
    =>  xddot = (F F^T)^{-1} F [ wdot - sum_m v_m dF_m^T v ],

and the candidate with the smallest Ehat wins.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .core import FrameFamily, dual_synthesis
from .errors import (
    AllCandidatesFailedError,
    DimensionMismatchError,
    FramefitError,
    LeftDomainError,
    ScenarioParseError,
    ScenarioValidationError,
)
from .solver import GridSpec

UNIFORM_RTOL = 1e-12

# numpy renamed trapz to trapezoid in 2.0
_trapezoid = getattr(np, "trapezoid", None) or np.trapz


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled FDOA data: times (K,) and values (K, N), K >= 3."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.atleast_2d(np.asarray(self.values, dtype=float))
        if t.ndim != 1 or len(t) < 3:
            raise ScenarioValidationError("time series needs at least 3 samples")
        if v.ndim != 2 or v.shape[0] != len(t):
            raise ScenarioValidationError(
                "time series values must be a K x N array, one row per time"
            )
        if not np.isfinite(t).all():
            raise ScenarioValidationError("time series has non-finite times")
        if not np.isfinite(v).all():
            raise ScenarioValidationError("time series has non-finite values")
        dt = np.diff(t)
        if np.any(dt <= 0.0):
            raise ScenarioValidationError("times must be strictly increasing")
        if np.max(np.abs(dt - dt[0])) > UNIFORM_RTOL * max(abs(dt[0]), 1.0):
            raise ScenarioValidationError("time grid must be uniform")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def num_samples(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class Trajectory:
    """Positions and velocities on a shared time grid."""

    times: np.ndarray
    positions: np.ndarray   # (K, M)
    velocities: np.ndarray  # (K, M)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        x = np.atleast_2d(np.asarray(self.positions, dtype=float))
        v = np.atleast_2d(np.asarray(self.velocities, dtype=float))
        if x.shape != v.shape or x.shape[0] != len(t):
            raise DimensionMismatchError("trajectory arrays are not congruent")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "positions", x)
        object.__setattr__(self, "velocities", v)


def sampled_derivative(values: np.ndarray, dt: float) -> np.ndarray:
    """Second-order time derivative of uniformly sampled rows.

    Central differences at interior samples, one-sided three-point stencils at
    the endpoints; exact for rows quadratic in time.
    """
    v = np.atleast_2d(np.asarray(values, dtype=float))
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * dt)
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * dt)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * dt)
    return out


def _check_width(family: FrameFamily, data: TimeSeries) -> None:
    if data.values.shape[1] != family.N:
        raise DimensionMismatchError(
            f"time series has {data.values.shape[1]} columns, expected one per "
            f"frame element ({family.N})"
        )


def _residual_pass(family: FrameFamily, traj: Trajectory, data: TimeSeries):
    """Each sample's F(x_k) and residual F(x_k)^T v_k - w_k, one jet per sample."""
    if traj.positions.shape[0] != data.num_samples:
        raise DimensionMismatchError("trajectory and data grids differ")
    _check_width(family, data)
    frames, residuals = [], []
    for k in range(data.num_samples):
        F = family.jet(traj.positions[k], order=0).F
        frames.append(F)
        residuals.append(F.T @ traj.velocities[k] - data.values[k])
    return frames, residuals


def functional_value(family: FrameFamily, traj: Trajectory, data: TimeSeries) -> float:
    """Composite-trapezoid value of the integrated squared residual."""
    _, residuals = _residual_pass(family, traj, data)
    squares = np.array([r @ r for r in residuals])
    return float(_trapezoid(squares, dx=data.dt))


def el_acceleration(family: FrameFamily, x, v, wdot) -> np.ndarray:
    """Acceleration solving the stationarity equation at one state.

    Returns (F F^T)^{-1} F [ wdot - sum_m v_m dF_m^T v ], applied through the
    dual synthesis rather than an explicit inverse.
    """
    v = np.asarray(v, dtype=float)
    wdot = np.asarray(wdot, dtype=float)
    jet = family.jet(x, order=1)  # validates x
    G = dual_synthesis(jet.F)
    # sum_m v_m dF_m^T v, one N-vector
    quad = np.einsum("p,pmn,m->n", v, jet.dF, v)
    return G.T @ (wdot - quad)


def el_residual(family: FrameFamily, traj: Trajectory, data: TimeSeries) -> np.ndarray:
    """Discrete stationarity residual F(x_k) rdot_k with r = F^T xdot - w.

    O(dt^2) small along trajectories that satisfy the stationarity equation.
    """
    frames, residuals = _residual_pass(family, traj, data)
    rdot = sampled_derivative(residuals, data.dt)
    return np.array([F @ rd for F, rd in zip(frames, rdot)])


def integrate_trajectory(
    family: FrameFamily, x0, v0, data: TimeSeries
) -> Trajectory:
    """Propagate the stationarity dynamics with classical RK4 on the data grid.

    The data derivative is precomputed at the sample times and linearly
    interpolated at half steps.  If any stage point leaves the frame domain, a
    LeftDomainError carrying the completed prefix as ``partial`` is raised.
    """
    x = family.check_point(x0)
    v = np.asarray(v0, dtype=float)
    _check_width(family, data)
    K, dt = data.num_samples, data.dt
    wdot = sampled_derivative(data.values, dt)
    positions = [x.copy()]
    velocities = [v.copy()]

    def rhs(x_s, v_s, wd):
        return v_s, el_acceleration(family, x_s, v_s, wd)

    for k in range(K - 1):
        wd_half = 0.5 * (wdot[k] + wdot[k + 1])
        try:
            k1x, k1v = rhs(x, v, wdot[k])
            k2x, k2v = rhs(x + 0.5 * dt * k1x, v + 0.5 * dt * k1v, wd_half)
            k3x, k3v = rhs(x + 0.5 * dt * k2x, v + 0.5 * dt * k2v, wd_half)
            k4x, k4v = rhs(x + dt * k3x, v + dt * k3v, wdot[k + 1])
        except FramefitError as exc:
            partial = Trajectory(
                data.times[: k + 1], np.array(positions), np.array(velocities)
            )
            raise LeftDomainError(
                f"integration left the domain at step {k}: {exc}", partial=partial
            ) from exc
        x = x + (dt / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        v = v + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        positions.append(x.copy())
        velocities.append(v.copy())
    return Trajectory(data.times, np.array(positions), np.array(velocities))


def shooting_search(
    family: FrameFamily, data: TimeSeries, pos_grid: GridSpec, vel_grid: GridSpec
):
    """Integrate every (x0, v0) candidate and keep the smallest functional value.

    Returns (best trajectory, best value, trace), where the trace records
    (x0, v0, value) for every candidate in lexicographic order; candidates
    that fail to integrate are recorded with value inf.
    """
    _check_width(family, data)
    best = None
    best_value = np.inf
    trace = []
    velocities = vel_grid.points()
    for x0 in pos_grid.points():
        for v0 in velocities:
            try:
                traj = integrate_trajectory(family, x0, v0, data)
                value = functional_value(family, traj, data)
            except FramefitError:
                trace.append((x0, v0, np.inf))
                continue
            trace.append((x0, v0, value))
            if value < best_value:
                best, best_value = traj, value
    if best is None:
        raise AllCandidatesFailedError("every shooting candidate failed to integrate")
    return best, best_value, trace


def load_time_series(path) -> TimeSeries:
    """Read a JSON file with a ``times`` array and a ``w`` array of arrays."""
    try:
        with open(path) as fh:
            data = json.load(fh)
        times = np.asarray(data["times"], dtype=float)
        values = np.asarray(data["w"], dtype=float)
    except (OSError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ScenarioParseError(f"cannot read time series {path}: {exc}") from exc
    return TimeSeries(times, values)


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Rows t, x_1..x_M, v_1..v_M."""
    M = traj.positions.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["t"]
            + [f"x_{m + 1}" for m in range(M)]
            + [f"v_{m + 1}" for m in range(M)]
        )
        for k in range(len(traj.times)):
            row = (
                [repr(float(traj.times[k]))]
                + [repr(float(v)) for v in traj.positions[k]]
                + [repr(float(v)) for v in traj.velocities[k]]
            )
            writer.writerow(row)
