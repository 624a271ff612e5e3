"""Time-domain trajectory estimation from FDOA samples over an interval.

The integrated squared residual

    Ehat(x) = integral over [t0, t1] of |F(x(t))^T xdot(t) - w(t)|^2 dt

is minimized by shooting: candidate initial states are propagated with the
explicit form of the stationarity equation

    F(x) d/dt [F(x)^T xdot - w] = 0
    =>  xddot = (F F^T)^{-1} F [ wdot - Fdot^T v ],   Fdot = sum_p v_p dF_p,

and the candidate with the smallest Ehat wins.  The parameters are positions,
so the family must have P = M.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    FrameFamily, _check_positions, _planar_energy, all_finite, check_vector,
    dual_coefficients, frame_svd, read_json, record,
)
from .errors import (
    AllCandidatesFailedError,
    DimensionMismatchError,
    FramefitError,
    LeftDomainError,
    ScenarioValidationError,
)
from .solver import GridSpec

UNIFORM_RTOL = 1e-12


@record
class TimeSeries:
    """Uniformly sampled FDOA data: times (K,) and values (K, N), K >= 3.

    ``num_samples``, ``dt`` and ``rates``, ``np.gradient(values, dt, axis=0,
    edge_order=2)``, are computed once.
    """

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
        # relative to the step, plus a few ulps of the largest time (the rounding of t)
        slack = UNIFORM_RTOL * dt[0] + 4 * np.spacing(np.abs(t).max())
        if np.max(np.abs(dt - dt[0])) > slack:
            raise ScenarioValidationError("time grid must be uniform")
        with np.errstate(over="ignore", invalid="ignore"):
            rates = np.gradient(v, dt[0], axis=0, edge_order=2)
        if not np.isfinite(rates).all():
            raise ScenarioValidationError(
                "time series values too large: their time derivative overflows"
            )
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "num_samples", len(t))
        object.__setattr__(self, "dt", float(dt[0]))
        object.__setattr__(self, "rates", rates)


@record
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


def _check_width(family: FrameFamily, data: TimeSeries) -> None:
    if data.values.shape[1] != family.N:
        raise DimensionMismatchError(
            f"time series has {data.values.shape[1]} columns, expected one per "
            f"frame element ({family.N})"
        )


def _residual_pass(family: FrameFamily, traj: Trajectory, data: TimeSeries):
    """The stacked F(x_k), shape (K, M, N), and residuals F(x_k)^T v_k - w_k,
    shape (K, N), from one ``frames`` call.

    Each product has the per-sample shapes, so every value equals the
    per-sample ``frame`` computation bitwise.  Raises DimensionMismatchError
    unless the trajectory's times are the data's.  At the first sample whose
    F is not finite, raises what ``frame_svd(family.frame(x))`` raises there:
    ``frame``'s error, or RankDeficientError for a non-finite F.
    """
    if not np.array_equal(traj.times, data.times):
        raise DimensionMismatchError("trajectory and data grids differ")
    _check_width(family, data)
    frames = family.frames(traj.positions)
    finite = np.isfinite(frames).all(axis=(1, 2))
    if not finite.all():
        frame_svd(family.frame(traj.positions[np.argmin(finite)]))  # raises
    Ft_v = frames.transpose(0, 2, 1) @ traj.velocities[:, :, None]
    return frames, Ft_v[:, :, 0] - data.values


def functional_value(family: FrameFamily, traj: Trajectory, data: TimeSeries) -> float:
    """Composite-trapezoid value of the integrated squared residual, the sum
    numpy's ``trapezoid`` forms.  A value past the float range is inf, with
    no overflow warning."""
    _, residuals = _residual_pass(family, traj, data)
    return _trapezoid_energy(residuals, data.dt)


def _trapezoid_energy(r, dt: float) -> float:
    """The composite trapezoid of |r_k|^2 over the rows of r (K, N) at step
    dt, the sum numpy's ``trapezoid`` forms; inf past the float range, with
    no overflow warning."""
    with np.errstate(over="ignore"):
        squares = (r[:, None, :] @ r[:, :, None])[:, 0, 0]
        return float((dt * (squares[1:] + squares[:-1]) / 2.0).sum())


def el_acceleration(family: FrameFamily, x, v, wdot) -> np.ndarray:
    """Acceleration solving the stationarity equation at one state.

    Returns the dual coefficients (F F^T)^{-1} F [ wdot - kappa ], with F
    and kappa = Fdot^T v from ``family.frame_curvature``, so neither the dual
    nor Fdot is formed.  For M = 2 the Gram kernel ``_planar_energy`` solves
    the 2x2 normal equations with one seminormal correction, within 1e-12
    of the SVD dual relative to |wdot - kappa| / s_min(F); where its tests
    do not decide, and for every other M, ``dual_coefficients`` takes the
    full SVD of F.
    Raises DimensionMismatchError unless P = M, x and v are finite vectors of
    length M and wdot one of length N, RankDeficientError where F is not a
    frame, and LeftDomainError when the acceleration overflows (a huge v or
    wdot).  numpy warns of that overflow first, so where RuntimeWarning is an
    error the caller gets the warning instead.
    """
    F, kappa = family.frame_curvature(x, v)  # checks P = M, x and v
    wdot = check_vector(wdot, family.N, "data rate")
    z = wdot - kappa
    if len(F) == 2:
        c = _planar_energy(F, z, dual=True)
        if c is not None:
            return np.array(c)
    a = dual_coefficients(F, z)
    if not all_finite(a):
        raise LeftDomainError(f"acceleration is not finite: {a}")
    return a


def el_residual(family: FrameFamily, traj: Trajectory, data: TimeSeries) -> np.ndarray:
    """Discrete stationarity residual F(x_k) rdot_k with r = F^T xdot - w.

    O(dt^2) small along trajectories that satisfy the stationarity equation.
    """
    frames, residuals = _residual_pass(family, traj, data)
    rdot = np.gradient(residuals, data.dt, axis=0, edge_order=2)
    return (frames @ rdot[:, :, None])[:, :, 0]


def integrate_trajectory(
    family: FrameFamily, x0, v0, data: TimeSeries
) -> Trajectory:
    """Propagate the stationarity dynamics with classical RK4 on the data grid.

    RK4 steps one stacked state y = (x, v) of length 2M, whose rate is
    (v, ``el_acceleration``), so each stage is one array update; every entry
    is computed as for x and v stepped apart.  Row k of one (K, 2M) array is
    the state at sample k; positions and velocities are its column halves.
    ``data.rates`` is linearly interpolated at all half steps at once.  If
    any stage point leaves the frame domain, a LeftDomainError carrying the
    completed rows as ``partial`` is raised.  A start x0 or v0 that is not a
    finite vector of length M (= P) raises DimensionMismatchError before any
    step.
    """
    _check_positions(family)
    x = family.check_point(x0)
    v = check_vector(v0, family.M, "initial velocity")
    _check_width(family, data)
    K, dt, M = data.num_samples, data.dt, family.M
    half_dt, sixth_dt = 0.5 * dt, dt / 6.0
    wdot = data.rates
    # rows as lists of views, so no step indexes an array
    wd_half = list(0.5 * (wdot[:-1] + wdot[1:]))
    wdot = list(wdot)
    states = np.empty((K, 2 * M))
    states[0] = y = np.concatenate((x, v))

    def rhs(y_s, wd):
        v_s = y_s[M:]
        return np.concatenate((v_s, el_acceleration(family, y_s[:M], v_s, wd)))

    def prefix(n):  # the trajectory of the first n states
        return Trajectory(data.times[:n], states[:n, :M], states[:n, M:])

    # A state that overflows leaves the domain: the checks of the next stage
    # raise for it, so numpy's overflow warnings are noise.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(K - 1):
            try:
                k1 = rhs(y, wdot[k])
                k2 = rhs(y + half_dt * k1, wd_half[k])
                k3 = rhs(y + half_dt * k2, wd_half[k])
                k4 = rhs(y + dt * k3, wdot[k + 1])
                states[k + 1] = y = y + sixth_dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                if k == K - 2:  # no next stage checks the last state
                    check_vector(y[:M], M, "position")
                    check_vector(y[M:], M, "velocity")
            except FramefitError as exc:
                raise LeftDomainError(
                    f"integration left the domain at step {k}: {exc}", partial=prefix(k + 1)
                ) from exc
    return prefix(K)


def shooting_search(
    family: FrameFamily, data: TimeSeries, pos_grid: GridSpec, vel_grid: GridSpec
):
    """Integrate every (x0, v0) candidate and keep the smallest functional value.

    Returns (best trajectory, best value, trace), where the trace records
    (x0, v0, value) for every candidate in lexicographic order; candidates
    that leave the domain are recorded with value inf.  Grids of the wrong
    dimension raise DimensionMismatchError before any candidate runs.  When
    no candidate has a finite value, AllCandidatesFailedError says how many
    left the domain and how many have a non-finite functional.
    """
    _check_positions(family)
    for grid, what in ((pos_grid, "position"), (vel_grid, "velocity")):
        if len(grid.counts) != family.M:
            raise DimensionMismatchError(
                f"{what} grid has dimension {len(grid.counts)}, expected {family.M}"
            )
    _check_width(family, data)
    best = None
    best_value = np.inf
    trace = []
    left = 0
    velocities = vel_grid.points()
    for x0 in pos_grid.points():
        for v0 in velocities:
            try:
                traj = integrate_trajectory(family, x0, v0, data)
                value = functional_value(family, traj, data)
            except FramefitError:
                left += 1
                trace.append((x0, v0, np.inf))
                continue
            trace.append((x0, v0, value))
            if value < best_value:
                best, best_value = traj, value
    if best is None:
        raise AllCandidatesFailedError(
            f"every shooting candidate failed: {left} of {len(trace)} left the domain, "
            f"and the functional of {len(trace) - left} is not finite"
        )
    return best, best_value, trace


def load_time_series(path) -> TimeSeries:
    """Read a JSON file with a ``times`` array and a ``w`` array of arrays.

    After ``TimeSeries``' own checks, raises ScenarioValidationError when the
    data's functional, the trapezoid sum of |w_k|^2 (that of F^T v = 0) as
    ``functional_value`` forms it, overflows: the scale every candidate is
    judged on is then past the float range, so ``track`` stops before it
    integrates any.  A series built in code keeps such values, and
    ``shooting_search`` reports their overflow after integrating.
    """
    data = TimeSeries(*read_json(path, "time series", "times", "w"))
    if not math.isfinite(_trapezoid_energy(data.values, data.dt)):
        raise ScenarioValidationError(
            "time series values too large: the trapezoid sum of |w_k|^2 overflows"
        )
    return data
