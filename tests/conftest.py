import contextlib
import signal

import numpy as np
import pytest

from framefit import (
    CallableFrameFamily,
    GridSpec,
    NoiseModel,
    QuadraticFrameFamily,
    RadarGeometry,
    TargetState,
    dual_synthesis,
    radar_family,
    simulate_fdoa,
)


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
