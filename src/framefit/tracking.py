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
import operator

import numpy as np

from .core import (
    FrameFamily, _check_positions, _finite_list, _float_array, _planar_energy,
    all_finite, check_vector, dual_coefficients, frame_svd, read_json, record,
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
    edge_order=2)``, are computed once.  Raises ScenarioValidationError when
    the rates or the trapezoid sum of |w_k|^2 overflow, so ``shooting_search``
    integrates no candidate on data whose functional is past the float range.
    Every time and value must be a number by ``check_vector``'s rule
    (``_float_array``), or DimensionMismatchError is raised.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = _float_array(self.times, "time series times")
        v = np.atleast_2d(_float_array(self.values, "time series values"))
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
        # the functional of F^T v = 0, the scale every candidate is judged on
        if not np.isfinite(_trapezoid_energy(v, dt[0])):
            raise ScenarioValidationError(
                "time series values too large: the trapezoid sum of |w_k|^2 overflows"
            )
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "num_samples", len(t))
        object.__setattr__(self, "dt", float(dt[0]))
        object.__setattr__(self, "rates", rates)


@record
class Trajectory:
    """Positions and velocities on a shared time grid.  Every entry must be a
    number by ``check_vector``'s rule (``_float_array``), or
    DimensionMismatchError is raised."""

    times: np.ndarray
    positions: np.ndarray   # (K, M)
    velocities: np.ndarray  # (K, M)

    def __post_init__(self):
        t = _float_array(self.times, "trajectory times")
        x = np.atleast_2d(_float_array(self.positions, "trajectory positions"))
        v = np.atleast_2d(_float_array(self.velocities, "trajectory velocities"))
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

    Returns the dual coefficients (F F^T)^{-1} F z of z = wdot - kappa, with
    the rows of F and kappa = Fdot^T v from ``family.frame_curvature`` as
    Python floats, so neither the dual nor Fdot is formed and z is formed in
    Python floats too.  For M = 2 the Gram kernel ``_planar_energy`` solves
    the 2x2 normal equations on those rows with one seminormal correction,
    within 1e-12 of the SVD dual relative to |z| / s_min(F); where its tests
    do not decide, and for every other M, ``dual_coefficients`` takes the
    full SVD of F.
    x, v and wdot are checked by ``check_vector``'s rule.  wdot, and on the
    radar family x and v, given as lists of finite Python floats of the
    right length, as ``integrate_trajectory`` passes them at every stage,
    are checked in place by ``_finite_list``, with no array built.
    Raises DimensionMismatchError unless P = M, x and v are finite vectors of
    numbers of length M and wdot one of length N, LeftDomainError when z is
    not finite (a v whose |v|^2 / r overflows, or a wdot at the edge of the
    float range), before F's rank is tested, RankDeficientError where F is
    not a frame, and LeftDomainError when the acceleration overflows.  None
    of these comes with a numpy warning on the radar family.
    """
    rows, kappa = family.frame_curvature(x, v)  # checks P = M, x and v
    wdot = _finite_list(wdot, family.N, "data rate")
    z = list(map(operator.sub, wdot, kappa))
    if len(rows) == 2:
        a, b = rows
        c = _planar_energy(a, b, z, dual=True)  # None for a z that is not finite
        if c is not None:
            return np.array(c)
    if not all(map(math.isfinite, z)):
        raise LeftDomainError(f"acceleration is not finite: wdot - kappa is {z}")
    with np.errstate(over="ignore", invalid="ignore"):
        acc = dual_coefficients(np.array(rows), np.array(z))
    if not all_finite(acc):
        raise LeftDomainError(f"acceleration is not finite: {acc}")
    return acc


def el_residual(family: FrameFamily, traj: Trajectory, data: TimeSeries) -> np.ndarray:
    """Discrete stationarity residual F(x_k) rdot_k with r = F^T xdot - w.

    O(dt^2) small along trajectories that satisfy the stationarity equation.
    """
    frames, residuals = _residual_pass(family, traj, data)
    rdot = np.gradient(residuals, data.dt, axis=0, edge_order=2)
    return (frames @ rdot[:, :, None])[:, :, 0]


def _rk4_step(family: FrameFamily, y: list, wd0: list, wd_half: list, wd1: list,
              dt: float) -> list:
    """One classical RK4 step of the state y = (x, v), a list of 2M Python
    floats whose rate is (v, ``el_acceleration``), with the data rates wd0,
    wd_half and wd1 at its start, middle and end.  Each stage point and the
    combination of k1..k4 take the operations, in the order, of x and v
    stepped apart as arrays, and give their bits."""
    M = family.M
    half_dt = 0.5 * dt

    def rhs(y_s, wd):
        v_s = y_s[M:]
        return v_s + el_acceleration(family, y_s[:M], v_s, wd).tolist()

    k1 = rhs(y, wd0)
    k2 = rhs([yi + half_dt * ki for yi, ki in zip(y, k1)], wd_half)
    k3 = rhs([yi + half_dt * ki for yi, ki in zip(y, k2)], wd_half)
    k4 = rhs([yi + dt * ki for yi, ki in zip(y, k3)], wd1)
    sixth_dt = dt / 6.0
    return [yi + sixth_dt * (p1 + 2.0 * p2 + 2.0 * p3 + p4)
            for yi, p1, p2, p3, p4 in zip(y, k1, k2, k3, k4)]


def _planar_rk4_step(family: FrameFamily, y: list, wd0: list, wd_half: list,
                     wd1: list, dt: float) -> list:
    """``_rk4_step`` for M = 2 on named floats, bitwise: every entry takes
    that step's operations in its order, with no list built per stage beyond
    the stage point's x and v.  Stage i's rate is (v_i, a_i); stage i + 1 is
    taken at (x + h v_i, v + h a_i)."""
    half_dt = 0.5 * dt
    x0, x1, v0, v1 = y
    a0, a1 = el_acceleration(family, [x0, x1], [v0, v1], wd0).tolist()
    q0, q1 = v0 + half_dt * a0, v1 + half_dt * a1
    b0, b1 = el_acceleration(
        family, [x0 + half_dt * v0, x1 + half_dt * v1], [q0, q1], wd_half).tolist()
    s0, s1 = v0 + half_dt * b0, v1 + half_dt * b1
    c0, c1 = el_acceleration(
        family, [x0 + half_dt * q0, x1 + half_dt * q1], [s0, s1], wd_half).tolist()
    u0, u1 = v0 + dt * c0, v1 + dt * c1
    d0, d1 = el_acceleration(family, [x0 + dt * s0, x1 + dt * s1], [u0, u1], wd1).tolist()
    sixth_dt = dt / 6.0
    return [
        x0 + sixth_dt * (v0 + 2.0 * q0 + 2.0 * s0 + u0),
        x1 + sixth_dt * (v1 + 2.0 * q1 + 2.0 * s1 + u1),
        v0 + sixth_dt * (a0 + 2.0 * b0 + 2.0 * c0 + d0),
        v1 + sixth_dt * (a1 + 2.0 * b1 + 2.0 * c1 + d1),
    ]


def integrate_trajectory(
    family: FrameFamily, x0, v0, data: TimeSeries
) -> Trajectory:
    """Propagate the stationarity dynamics with classical RK4 on the data grid.

    Each step is ``_rk4_step`` (``_planar_rk4_step`` for M = 2) on one state,
    a list of 2M Python floats.  The halves of the stage states and the rows
    of the data rates go to ``el_acceleration`` as lists of Python floats,
    whose checks run on them in place.  Row k of one (K, 2M) array is the
    state at sample k; positions and velocities are its column halves.
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
    step = _planar_rk4_step if M == 2 else _rk4_step
    wdot = data.rates
    # rows as lists of Python floats, so no step indexes an array and each
    # stage's rate check runs on the list in place
    wd_half = (0.5 * (wdot[:-1] + wdot[1:])).tolist()
    wdot = wdot.tolist()
    states = np.empty((K, 2 * M))
    states[0] = y = x.tolist() + v.tolist()

    def prefix(n):  # the trajectory of the first n states
        return Trajectory(data.times[:n], states[:n, :M], states[:n, M:])

    # A state that overflows leaves the domain: the checks of the next stage
    # raise for it, so the overflow warnings of a family's own numpy
    # frame_curvature are noise (Python floats overflow silently).
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(K - 1):
            try:
                states[k + 1] = y = step(family, y, wdot[k], wd_half[k], wdot[k + 1], dt)
                if k == K - 2:  # no next stage checks the last state
                    _finite_list(y[:M], M, "position")
                    _finite_list(y[M:], M, "velocity")
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
    """Read a JSON file with a ``times`` array and a ``w`` array of arrays."""
    return TimeSeries(*read_json(path, "time series", "times", "w"))
