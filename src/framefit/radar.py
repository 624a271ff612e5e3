"""FDOA multistatic radar frame family and measurement simulation.

Each transmitter/receiver pair (a_n, b_n) contributes the bistatic distance
phi_n(x) = |x - a_n| + |x - b_n|.  Its gradient, the sum of the unit vectors
pointing to x from a_n and b_n, is the n-th frame element; range-rate (FDOA)
measurements are inner products of these elements with the target velocity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    FrameFamily,
    FrameJet,
    _check_order,
    _finite_list,
    _float_array,
    _is_integer,
    _is_number,
    _json_integer,
    _json_number,
    _json_numbers,
    _lengths,
    check_vector,
    read_json,
    record,
)
from .errors import (
    DimensionMismatchError,
    NearSingularError,
    ScenarioParseError,
    ScenarioValidationError,
)

# A query point closer than this fraction of the scene diameter to any
# transmitter or receiver is treated as singular.
SINGULARITY_RTOL = 1e-9


@record
class RadarGeometry:
    """Fixed transmitter and receiver positions, N of each, in R^M (meters).
    Every coordinate must be a number by ``check_vector``'s rule
    (``_float_array``), or DimensionMismatchError is raised."""

    transmitters: np.ndarray  # (N, M)
    receivers: np.ndarray     # (N, M)

    def __post_init__(self):
        tx = np.atleast_2d(_float_array(self.transmitters, "transmitters"))
        rx = np.atleast_2d(_float_array(self.receivers, "receivers"))
        if tx.shape != rx.shape or tx.ndim != 2 or tx.shape[0] < 1:
            raise DimensionMismatchError(
                "transmitter and receiver lists must be nonempty and congruent"
            )
        if tx.shape[1] not in (2, 3):
            raise DimensionMismatchError("ambient dimension must be 2 or 3")
        if not (np.all(np.isfinite(tx)) and np.all(np.isfinite(rx))):
            raise DimensionMismatchError("station coordinates must be finite")
        object.__setattr__(self, "transmitters", tx)
        object.__setattr__(self, "receivers", rx)
        object.__setattr__(self, "num_pairs", tx.shape[0])
        object.__setattr__(self, "dim", tx.shape[1])
        pts = np.vstack([tx, rx])  # (2N, M): transmitters, then receivers
        object.__setattr__(self, "stations", pts)
        # the largest distance between two stations; 1.0 for a degenerate scene
        with np.errstate(over="ignore"):
            d = _lengths(pts[:, None, :] - pts[None, :, :])
        diam = float(d.max())
        if not np.isfinite(diam):
            raise DimensionMismatchError(
                "station coordinates too large: the scene diameter overflows"
            )
        object.__setattr__(self, "scene_diameter", diam if diam > 0.0 else 1.0)
        object.__setattr__(self, "singularity_tolerance", SINGULARITY_RTOL * self.scene_diameter)


@record
class TargetState:
    """Target position and velocity at one instant (meters, meters/second)."""

    position: np.ndarray
    velocity: np.ndarray

    def __post_init__(self):
        pos = check_vector(self.position, None, "target position")
        vel = check_vector(self.velocity, len(pos), "target velocity")
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "velocity", vel)


@dataclass(frozen=True)
class NoiseModel:
    """I.i.d. Gaussian range-rate noise with a fixed seed.

    The stream is drawn from numpy's Philox generator, a documented 64-bit
    counter-based algorithm, so the same seed reproduces the same noise
    everywhere.
    """

    sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        # True would draw sigma-1 noise, and a string or None fail to compare
        if not _is_number(self.sigma):
            raise ScenarioValidationError(f"noise sigma must be a number, got {self.sigma!r}")
        if not 0.0 <= self.sigma < np.inf:
            raise ScenarioValidationError("noise sigma must be finite and nonnegative")
        # a float or bool key would silently draw the stream of its int()
        if not _is_integer(self.seed):
            raise ScenarioValidationError(f"noise seed must be an integer, got {self.seed!r}")
        if not 0 <= self.seed < 2**128:  # a Philox key has 128 bits
            raise ScenarioValidationError("noise seed must lie in [0, 2**128)")

    def draw(self, n: int) -> np.ndarray:
        rng = np.random.Generator(np.random.Philox(key=self.seed))
        return self.sigma * rng.standard_normal(n)


def bistatic_distance(geometry: RadarGeometry, n: int, x) -> float:
    """Transmitter-to-target plus target-to-receiver path length for pair n,
    from ``_lengths`` as the frame is; inf, with no warning, past the float range.
    Raises ValueError unless n is an integer in [0, N): -1 would read pair N-1."""
    if not (_is_integer(n) and 0 <= n < geometry.num_pairs):
        raise ValueError(f"pair n must be an integer in [0, {geometry.num_pairs}), got {n!r}")
    x = check_vector(x, geometry.dim, "parameter point")
    with np.errstate(over="ignore"):
        tx, rx = x - geometry.transmitters[n], x - geometry.receivers[n]
        return float(_lengths(tx)) + float(_lengths(rx))


def _near_station(r, tol):
    """The singular set: a distance r to a station of at most tol.  Elementwise
    on arrays; tol must be >= 0, so a zero distance is always near."""
    return r <= tol


class RadarFrameFamily(FrameFamily):
    """The frame family whose n-th column is the gradient of phi_n.

    Parameters coincide with target position, so P = M.  The domain excludes
    points near any station and points where the columns fail to span R^M.
    """

    def __init__(self, geometry: RadarGeometry):
        self.geometry = geometry
        self.M = geometry.dim
        self.N = geometry.num_pairs
        self.P = geometry.dim
        # read by every station pass; the geometry is frozen
        self._stations = geometry.stations
        # the M station coordinates in turn, each a contiguous (2N,) row
        rows = np.ascontiguousarray(geometry.stations.T)
        self._station_rows = tuple(rows)
        self._station_coords = rows[:, :, None]
        self._singularity_tolerance = geometry.singularity_tolerance

    def _checked_distances(self, r):
        """The station distances r (2N,) of a checked point as a list, or
        NearSingularError if the point is ``_near_station``: the one test, and
        message, of both per-point heads.  Every r then exceeds the tolerance,
        which is >= 0, so no r is 0."""
        # r holds no NaN when the point does not, and the builtin min is
        # cheaper on few rows
        r_list = r.tolist()
        r_min = min(r_list)
        if _near_station(r_min, self._singularity_tolerance):
            raise NearSingularError(
                f"point at distance {r_min} from a station (tol {self._singularity_tolerance})")
        return r_list

    def _station_pass(self, x):
        """F(x), the unit vectors u (2N, M) from the stations to x and their
        distances r (2N,), at the point x that ``check_point`` or
        ``_finite_list`` checked: the array head, which forms the differences
        d = x - stations (2N, M) and their lengths, tested by
        ``_checked_distances``."""
        d = x - self._stations                          # (2N, M)
        r = _lengths(d)                                 # (2N,)
        self._checked_distances(r)
        u = d / r[:, None]
        N = self.N
        return (u[:N] + u[N:]).T, u, r

    def jet(self, x, order: int = 2) -> FrameJet:
        """F, dF and d2F from one ``_station_pass``; raises what ``frame(x)`` raises.

        Each frame element is the sum of two values of the normalization map
        u(d) = d / |d| at d = x - a_n and d = x - b_n.  With r = |d| and
        pi(d) = I - u u^T, its partial with respect to x_p is pi delta_p / r,
        and its mixed second partial with respect to x_q and x_p is

            -(1/r) [ (pi delta_p / r) u_q + (pi delta_q / r) u_p + (pi[p, q] / r) u ],

        built from u and the first partials, so no power of r can overflow.
        """
        _check_order(order)
        F, u, r = self._station_pass(self.check_point(x))
        if order == 0:
            return FrameJet(F)
        N = self.N
        first = (np.eye(self.M) - u[:, :, None] * u[:, None, :]) / r[:, None, None]  # pi / r
        # first[n, m, p] -> dF[p, m, n]
        dF = (first[:N] + first[N:]).transpose(2, 1, 0)
        if order == 1:
            return FrameJet(F, dF)
        second = -(
            u[:, :, None, None] * first[:, None, :, :]
            + u[:, None, :, None] * first[:, :, None, :]
            + first[:, :, :, None] * u[:, None, None, :]
        ) / r[:, None, None, None]
        # second[n, q, p, m] -> d2F[q, p, m, n]
        return FrameJet(F, dF, (second[:N] + second[N:]).transpose(1, 2, 3, 0))

    def frame(self, x) -> np.ndarray:
        """F(x) from ``_station_pass``, with no jet built: the per-point hot
        path.  See FrameFamily.frame."""
        return self._station_pass(self.check_point(x))[0]

    def frame_curvature(self, x, v):
        """The rows of ``frame(x)``, bitwise, and kappa from one station
        pass, as lists; see FrameFamily.frame_curvature.
        The unit vector u to a station at distance r moves at (v - u (u . v))
        / r, so its rate applied to v is (|v|^2 - (u . v)^2) / r, the second
        derivative of the distance to that station along v; kappa_n sums it
        over pair n's two stations.  No (2N, M, M) projector and no (M, N)
        rate matrix is built.

        For M = 2 the row head takes x as two Python floats and forms the
        station differences per coordinate row, dx = x0 - sx and dy = x1 - sy
        (2N,), and their ``_lengths``, with ``_station_pass``'s operations
        and bits and ``_checked_distances``'s test; then one indexed loop
        over the pairs forms u, F's entries, u . v and kappa in Python floats
        from the three rows as lists, which on a few pairs costs less than
        numpy's dispatch on (2N, 2) arrays.  M = 3 takes the same formulas in
        numpy on ``_station_pass``, with ``ndarray.dot`` for u . v.  Neither
        warns: a Python float overflows to inf silently, and the numpy kappa
        runs under ``np.errstate``, so kappa is inf or NaN for a v whose
        |v|^2 / r passes the float range.
        Lists x and v of finite Python floats, as the tracking stages pass,
        are checked in place by ``_finite_list`` on both paths; an array x
        by ``check_point``, as in ``frame``; anything else is converted and
        checked by ``check_vector``, with its errors."""
        N = self.N
        # an array x takes frame's check, with no round trip through a list
        x = _finite_list(x, self.P, "parameter point") if type(x) is list else self.check_point(x)
        if self.M == 3:
            F, u, r = self._station_pass(x)
            v = np.array(_finite_list(v, self.P, "velocity"))
            with np.errstate(over="ignore", invalid="ignore"):
                uv = u.dot(v)                               # (2N,)
                c = (v.dot(v) - uv * uv) / r
            return F.tolist(), (c[:N] + c[N:]).tolist()
        x0, x1 = x if type(x) is list else x.tolist()
        sx, sy = self._station_rows
        # each difference rounds as its entry of _station_pass's x - stations
        dx = x0 - sx                                        # (2N,)
        dy = x1 - sy
        r = self._checked_distances(_lengths((dx, dy), axis=0))
        dx = dx.tolist()
        dy = dy.tolist()
        v0, v1 = _finite_list(v, self.P, "velocity")
        vv = v0 * v0 + v1 * v1
        a, b, kappa = [], [], []
        # pair n: u to its transmitter (station n), s to its receiver (N + n)
        for n in range(N):
            m = N + n
            r0 = r[n]
            r1 = r[m]
            u0 = dx[n] / r0
            u1 = dy[n] / r0
            s0 = dx[m] / r1
            s1 = dy[m] / r1
            uv = u0 * v0 + u1 * v1
            sv = s0 * v0 + s1 * v1
            a.append(u0 + s0)
            b.append(u1 + s1)
            kappa.append((vv - uv * uv) / r0 + (vv - sv * sv) / r1)
        return [a, b], kappa

    def frames(self, X) -> np.ndarray:
        """``frame(x)`` at every row of X (B, P), in one coordinate-major pass:
        the differences are (M, 2N, B), so each step runs over contiguous rows
        of B points, and the two halves of u add straight into F's layout.
        Every step is elementwise, so each row has frame's bits and layout.  A
        row that is not finite or is ``_near_station`` is NaN throughout: its
        distances are masked before the one divide, so there is no 0/0 at a
        station node and no inf/inf.  See FrameFamily.frames."""
        X = self.check_points(X)
        N, tol = self.N, self._singularity_tolerance
        XT = np.ascontiguousarray(X.T)                       # (M, B)
        d = XT[:, None, :] - self._station_coords           # (M, 2N, B)
        r = _lengths(d, axis=0)                              # (2N, B)
        outside = ~np.isfinite(XT).all(axis=0) | _near_station(r, tol).any(axis=0)
        u = d / np.where(outside, np.nan, r)
        # transmitters :N, receivers N:; u[m, n, b] -> F[b, m, n]
        F = np.empty((len(X), N, self.M))
        np.add(u[:, :N], u[:, N:], out=F.transpose(2, 1, 0))
        return F.transpose(0, 2, 1)


def radar_family(geometry: RadarGeometry) -> RadarFrameFamily:
    """Frame family generated by a multistatic radar geometry."""
    return RadarFrameFamily(geometry)


def simulate_fdoa(
    geometry: RadarGeometry, truth: TargetState, noise: NoiseModel
) -> np.ndarray:
    """Simulated FDOA measurement vector w = F(x0)^T v0 + noise.

    With sigma = 0 the result lies exactly in the coefficient space of the
    frame at the true position.  Raises ScenarioValidationError when w or
    |w|^2 overflows, as ``check_measurement`` does for a measurement read in.
    """
    family = radar_family(geometry)
    F = family.frame(truth.position)
    with np.errstate(over="ignore"):
        w = F.T @ truth.velocity
        if noise.sigma > 0.0:
            w = w + noise.draw(family.N)
    if not np.isfinite(w).all():
        raise ScenarioValidationError(
            "simulated measurement overflows: target velocity or noise sigma too large"
        )
    return family.check_measurement(w)


@record
class RadarScenario:
    """A complete simulated scene: geometry, target truth, and noise model."""

    geometry: RadarGeometry
    target: TargetState
    noise: NoiseModel


def parse_scenario(data: dict) -> RadarScenario:
    """Build and validate a scenario from its JSON dictionary form."""
    try:
        dim = _json_integer(data["dim"], "dim")
        geometry = RadarGeometry(
            _json_numbers(data["transmitters"], "transmitters"),
            _json_numbers(data["receivers"], "receivers"),
        )
        target = TargetState(
            _json_numbers(data["target"]["position"], "target position"),
            _json_numbers(data["target"]["velocity"], "target velocity"),
        )
        noise_spec = data.get("noise", {})
        if not isinstance(noise_spec, dict):
            raise TypeError(f"noise must be an object, got {noise_spec!r}")
        noise = NoiseModel(
            sigma=float(_json_number(noise_spec.get("sigma", 0.0), "noise sigma")),
            seed=_json_integer(noise_spec.get("seed", 0), "noise seed"),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, ScenarioValidationError):
            raise
        raise ScenarioParseError(f"malformed scenario: {exc}") from exc
    if geometry.dim != dim:
        raise ScenarioValidationError(
            f"declared dim {dim} does not match station coordinates ({geometry.dim})"
        )
    if target.position.shape != (dim,):
        raise ScenarioValidationError("target position dimension does not match dim")
    with np.errstate(over="ignore"):
        dists = _lengths(geometry.stations - target.position[None, :])
    if not np.isfinite(dists).all():
        raise ScenarioValidationError(
            "target too far from the stations: the distances overflow"
        )
    if _near_station(dists, geometry.singularity_tolerance).any():
        raise ScenarioValidationError(
            "target position coincides with a transmitter or receiver"
        )
    return RadarScenario(geometry, target, noise)


def load_scenario(path) -> RadarScenario:
    """Read a scenario JSON file; see parse_scenario for the schema."""
    return parse_scenario(read_json(path, "scenario"))
