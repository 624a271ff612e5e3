import contextlib
import signal
from fractions import Fraction

import numpy as np
import pytest

from framefit import (
    CallableFrameFamily,
    GridSpec,
    NoiseModel,
    ProjectorPieces,
    QuadraticFrameFamily,
    RadarGeometry,
    TargetState,
    Trajectory,
    dual_synthesis,
    el_acceleration,
    radar_family,
    simulate_fdoa,
)
from framefit.core import check_vector
from framefit.errors import FramefitError, LeftDomainError


class TimeLimitExceeded(Exception):
    """Raised by ``time_limit``; no framefit or CLI handler catches it."""


@contextlib.contextmanager
def time_limit(seconds):
    """Fail a block that runs longer than ``seconds`` instead of hanging the run.

    Uses SIGALRM, so it only works in the main thread of a POSIX process.
    """

    def expire(signum, frame):
        raise TimeLimitExceeded(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# Input files that no reader may answer with a traceback: Latin-1 bytes (JSON
# must be UTF-8), nesting deeper than the recursion limit, and an integer past
# Python's 4300-digit conversion limit.
UNREADABLE_FILES = {
    "non_utf8": '{"name": "caf\xe9"}'.encode("latin-1"),
    "deep": b"[" * 100_000 + b"]" * 100_000,
    "long_int": b'{"seed": ' + b"7" * 5000 + b"}",
}


def random_full_rank(rng, M, N):
    """Gaussian M x N matrix, redrawn in the unlikely rank-deficient case."""
    while True:
        F = rng.normal(size=(M, N))
        s = np.linalg.svd(F, compute_uv=False)
        if len(s) == M and s[-1] > 1e-6 * s[0]:
            return F


def random_quadratic_family(rng, M, N, P, scale=0.2):
    """Well-conditioned quadratic family with nonzero second derivatives."""
    F0 = random_full_rank(rng, M, N)
    C = rng.normal(size=(P, M, N)) * scale
    D = rng.normal(size=(P, P, M, N)) * scale
    D = 0.5 * (D + D.transpose(1, 0, 2, 3))
    return QuadraticFrameFamily(F0, C, D)


def circular_geometry(rng, num_pairs=4, radius=100.0):
    """Stations evenly spaced on a circle, receivers interleaved, random phase."""
    base = rng.uniform(0.0, 2.0 * np.pi)
    ang_t = base + np.arange(num_pairs) * 2.0 * np.pi / num_pairs
    ang_r = base + (np.arange(num_pairs) + 0.5) * 2.0 * np.pi / num_pairs
    tx = radius * np.c_[np.cos(ang_t), np.sin(ang_t)]
    rx = radius * np.c_[np.cos(ang_r), np.sin(ang_r)]
    return RadarGeometry(tx, rx)


def noiseless_scene(seed, num_pairs=4, radius=100.0, truth_box=8.0, vel_scale=5.0):
    """Seeded 2-D scene: geometry, family, truth, and exact measurement."""
    rng = np.random.default_rng(seed)
    geometry = circular_geometry(rng, num_pairs, radius)
    truth = TargetState(
        rng.uniform(-truth_box, truth_box, size=2), rng.normal(size=2) * vel_scale
    )
    w = simulate_fdoa(geometry, truth, NoiseModel(0.0, 0))
    return geometry, radar_family(geometry), truth, w


def collinear_radar_family(dim, rng):
    """A radar family whose stations lie within a random distance (1e-12 to
    1) of one line: its frames are poorly conditioned near that line and
    rank deficient on it."""
    num_pairs = int(rng.integers(1, 7))
    direction = rng.normal(size=dim)
    direction /= np.linalg.norm(direction)
    base = rng.normal(size=dim) * 10.0
    spread = 10.0 ** rng.uniform(-12.0, 0.0)

    def stations():
        along = rng.uniform(-100.0, 100.0, size=num_pairs)
        return base + np.outer(along, direction) + rng.normal(size=(num_pairs, dim)) * spread

    family = radar_family(RadarGeometry(stations(), stations()))
    x = base + rng.uniform(-50.0, 50.0) * direction
    return family, x + rng.normal(size=dim) * rng.choice([0.0, 1e-6, 1e-3, 1.0, 10.0])


def station_node_scene():
    """4-pair scene and a 5x5 grid on [-10, 10]^2 with a transmitter on four nodes.

    The grid crosses the edge of the frame domain: those four nodes are
    singular, every other node is inside.  Returns (family, w, grid).
    """
    tx = [[10.0, 0.0], [0.0, 10.0], [-10.0, 0.0], [0.0, -10.0]]
    angles = 0.3 + np.arange(4) * np.pi / 2
    rx = 40.0 * np.c_[np.cos(angles), np.sin(angles)]
    geometry = RadarGeometry(tx, rx)
    truth = TargetState([1.3, -2.1], [2.0, 1.0])
    w = simulate_fdoa(geometry, truth, NoiseModel(0.0, 0))
    grid = GridSpec([-10.0, -10.0], [10.0, 10.0], [5, 5])
    return radar_family(geometry), w, grid


def arc_family(center=0.0):
    """1-D family with exactly quadratic error E(x) = (x - center)^2 for w = (1, 0).

    F(x) is the 1 x 2 row [sqrt(1 - s^2), -s] with s = x - center, so the unit
    null vector is (s, sqrt(1 - s^2)) and the projection of (1, 0) onto it has
    squared norm s^2.  Valid on |s| < 1.
    """

    def s(x):
        return float(x[0]) - center

    def f(x):
        v = s(x)
        return np.array([[np.sqrt(1.0 - v * v), -v]])

    def df(x):
        v = s(x)
        return np.array([[[-v / np.sqrt(1.0 - v * v), -1.0]]])

    def d2f(x):
        v = s(x)
        return np.array([[[[-1.0 / (1.0 - v * v) ** 1.5, 0.0]]]])

    return CallableFrameFamily((1, 2, 1), f, df, d2f)


def dense_projector_operators(jet):
    """Naive dense assembly of Pi, Pi_p, Pi_qp, for cross-checking."""
    G = dual_synthesis(jet.F)
    N = jet.F.shape[1]
    Pi = np.eye(N) - G @ jet.F
    Pi_p = np.array([G @ d for d in jet.dF])
    Pi_qp = np.einsum("nm,qpmk->qpnk", G, jet.d2F)
    return Pi, Pi_p, Pi_qp


def reference_projector_pieces(jet, w):
    """The per-p loop form of ``projector_pieces`` through the dual G: the
    reference for the SVD-factor products of the library."""
    F, dF, d2F = jet.F, jet.dF, jet.d2F
    M, N = F.shape
    P = dF.shape[0]
    w = np.asarray(w, dtype=float)

    G = dual_synthesis(F)
    Gt_w = G.T @ w
    Pw = w - G @ (F @ w)

    PpPw = np.empty((P, N))
    Pps_w = np.empty((P, N))
    P_Pps_w = np.empty((P, N))
    for p in range(P):
        PpPw[p] = G @ (dF[p] @ Pw)
        Pps_w[p] = dF[p].T @ Gt_w
        P_Pps_w[p] = Pps_w[p] - G @ (F @ Pps_w[p])

    Pqp_Pw = np.empty((P, P, N))
    for p in range(P):
        for q in range(p + 1):
            v = G @ (d2F[q, p] @ Pw)
            Pqp_Pw[q, p] = v
            Pqp_Pw[p, q] = v
    return ProjectorPieces(w, float(Pw @ Pw), Pw, PpPw, Pps_w, P_Pps_w, Pqp_Pw)


def reference_hessian(pieces):
    """The per-pair loop form of ``hessian``: the reference for its matrix
    products."""
    w = pieces.w
    P = pieces.PpPw.shape[0]
    H = np.empty((P, P))
    for p in range(P):
        for q in range(p + 1):
            # <w, Pi_p Pi_q Pi w> = <Pi_p* w, Pi_q Pi w>, and symmetrically.
            t1 = 2.0 * (
                pieces.Pps_w[p] @ pieces.PpPw[q] + pieces.Pps_w[q] @ pieces.PpPw[p]
            )
            t2 = 2.0 * (pieces.P_Pps_w[p] @ pieces.P_Pps_w[q])
            t3 = -2.0 * (pieces.PpPw[q] @ pieces.PpPw[p])
            t4 = -2.0 * (w @ pieces.Pqp_Pw[q, p])
            H[q, p] = H[p, q] = t1 + t2 + t3 + t4
    return H


def g_formula_error(F, w):
    """|Pi w|^2 through the dual, w - G F w with G = dual_synthesis(F): the
    reference for ``error_value``, which takes |Vn w|^2 with Vn the SVD
    null rows."""
    Pw = w - dual_synthesis(F) @ (F @ w)
    return float(Pw @ Pw)


def exact_error(F, w):
    """|Pi w|^2 = |w|^2 - (F w)^T (F F^T)^{-1} (F w) in exact rational
    arithmetic on the float entries of F and w, rounded once to a float."""
    F = [[Fraction(v) for v in row] for row in np.asarray(F).tolist()]
    w = [Fraction(v) for v in np.asarray(w).tolist()]
    M = len(F)
    A = [[sum(a * b for a, b in zip(F[i], F[j])) for j in range(M)] for i in range(M)]
    Fw = [sum(a * b for a, b in zip(row, w)) for row in F]
    # Gauss-Jordan on [A | Fw]; A is positive definite, so no pivot is zero
    rows = [A[i] + [Fw[i]] for i in range(M)]
    for k in range(M):
        rows[k] = [v / rows[k][k] for v in rows[k]]
        for i in range(M):
            if i != k:
                rows[i] = [a - rows[i][k] * b for a, b in zip(rows[i], rows[k])]
    c = [row[-1] for row in rows]
    return float(sum(v * v for v in w) - sum(a * b for a, b in zip(Fw, c)))


def conditioned_error_tolerance(F, w):
    """How far two sound evaluations of |Pi w|^2 may differ on a poorly
    conditioned F: 1e-12 |w|^2, or 2 eps cond(F) |w|^2 when that is larger.

    To first order E moves by at most 2 |w|^2 |d Pi|, and a relative change
    eps of F moves Pi by about eps cond(F), so near the edge of the domain
    no float formula meets a flat 1e-12.  On nearly collinear radar stations
    (10282 points with cond(F) from 1e4 to 1e8) the row-basis formula
    w - Vt^T (Vt w), the G formula and the exact value were at most
    0.9 eps cond(F) |w|^2 apart; on 1500 such points with cond(F) >= 1e4 the
    null-row energy |Vn w|^2 was at most 1.03 eps cond(F) |w|^2 from the
    exact value, as was the row-basis formula.
    Only tests of such geometries use it; all others use 1e-12 |w|^2.
    """
    s = np.linalg.svd(F, compute_uv=False)
    return float(w @ w) * max(1e-12, 2.0 * np.finfo(float).eps * s[0] / s[-1])


def reference_acceleration(family, x, v, wdot):
    """The acceleration through the dual and the whole order-1 jet,
    G^T (wdot - Fdot^T v) with Fdot = sum_p v_p dF[p]: the reference for
    ``el_acceleration``, which applies the SVD factors of F to kappa."""
    jet = family.jet(x, order=1)
    v = check_vector(v, family.M, "velocity")
    wdot = check_vector(wdot, family.N, "data rate")
    G = dual_synthesis(jet.F)
    a = G.T @ (wdot - np.tensordot(v, jet.dF, axes=1).T @ v)
    if not np.isfinite(a).all():
        raise LeftDomainError(f"acceleration is not finite: {a}")
    return a


def reference_integrate(family, x0, v0, data, acceleration=el_acceleration):
    """Classical RK4 with x and v stepped as two arrays, each stage calling
    ``acceleration``: the reference for ``integrate_trajectory``, which steps
    one stacked state.  Raises LeftDomainError with the completed prefix as
    ``partial``, as the library does."""
    x = family.check_point(x0)
    v = check_vector(v0, family.M, "initial velocity")
    K, dt = data.num_samples, data.dt
    wdot = data.rates
    positions, velocities = [x], [v]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(K - 1):
            wd_half = 0.5 * (wdot[k] + wdot[k + 1])
            try:
                k1x, k1v = v, acceleration(family, x, v, wdot[k])
                x2, v2 = x + 0.5 * dt * k1x, v + 0.5 * dt * k1v
                k2x, k2v = v2, acceleration(family, x2, v2, wd_half)
                x3, v3 = x + 0.5 * dt * k2x, v + 0.5 * dt * k2v
                k3x, k3v = v3, acceleration(family, x3, v3, wd_half)
                x4, v4 = x + dt * k3x, v + dt * k3v
                k4x, k4v = v4, acceleration(family, x4, v4, wdot[k + 1])
                x = x + (dt / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
                v = v + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
                if k == K - 2:
                    check_vector(x, family.M, "position")
                    check_vector(v, family.M, "velocity")
            except FramefitError as exc:
                partial = Trajectory(
                    data.times[: k + 1], np.array(positions), np.array(velocities)
                )
                raise LeftDomainError(
                    f"integration left the domain at step {k}: {exc}", partial=partial
                ) from exc
            positions.append(x)
            velocities.append(v)
    return Trajectory(data.times, np.array(positions), np.array(velocities))
