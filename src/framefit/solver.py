"""Grid-initialized damped Newton minimization of the fit error.

The initial guess is the best point of an exhaustive grid evaluation; the
iteration then follows x_{k+1} = x_k - t H^{-1} g with a Levenberg-style
shift when the Hessian is indefinite; the step t starts at 1 and is halved
while a step fails to decrease the error or leaves the domain.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .core import FrameFamily, _is_integer, _lengths, error_value, record
from .derivatives import error_gradient_hessian
from .errors import (
    EmptyDomainError,
    FramefitError,
    LeftDomainError,
    SingularHessianError,
)

MAX_BACKTRACKS = 20
MAX_SHIFT_FACTOR = 1e12
# shifts 1e-12 |H| * 2^k that stay within MAX_SHIFT_FACTOR |H|: k < 80
SHIFT_DOUBLINGS = int(np.log2(MAX_SHIFT_FACTOR / 1e-12)) + 1
STEP_TOL = 1e-12  # a Newton step shorter than STEP_TOL |x| ends the iteration
GRAD_RTOL = 1e-11  # so does |grad E| <= GRAD_RTOL |w| sqrt(|H|): neither has units


@record
class GridSpec:
    """Axis-aligned evaluation grid: counts[p] points on [lower[p], upper[p]]."""

    lower: np.ndarray
    upper: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        # read counts as floats first, so 2.5 is rejected rather than truncated
        counts = np.atleast_1d(np.asarray(self.counts, dtype=float))
        if not (lower.ndim == 1 and lower.shape == upper.shape == counts.shape):
            raise ValueError("grid lower, upper, counts must be congruent vectors")
        if lower.size == 0:
            raise ValueError("grid needs at least one axis")
        if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
            raise ValueError("grid bounds must be finite")
        if not np.all(lower < upper):
            raise ValueError("grid requires lower < upper componentwise")
        with np.errstate(over="ignore"):
            span = upper - lower
        if not np.isfinite(span).all():
            raise ValueError("grid span upper - lower overflows")
        if not np.all((counts >= 1) & (counts == np.floor(counts))):
            raise ValueError("grid counts must be positive integers")
        if not np.all(counts < 2.0**63):
            raise ValueError("grid counts too large: each must be below 2^63")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "counts", counts.astype(int))
        # Python ints: no int64 wrap
        object.__setattr__(self, "num_points", math.prod(self.counts.tolist()))

    def axes(self) -> list[np.ndarray]:
        return [
            np.linspace(lo, hi, c)
            for lo, hi, c in zip(self.lower, self.upper, self.counts)
        ]

    def region(self) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper corners of the box ``localize`` searches: the grid's
        box widened by half its span on each side.  A corner past the float
        range is inf."""
        with np.errstate(over="ignore"):
            half_span = 0.5 * (self.upper - self.lower)
            return self.lower - half_span, self.upper + half_span

    def points(self) -> np.ndarray:
        """The (num_points, P) grid points in lexicographic index order
        (first axis slowest)."""
        grids = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack(grids, axis=-1).reshape(-1, len(grids))


@record
class SolverConfig:
    """The starting grid and the Newton iteration budget."""

    grid: GridSpec
    max_iters: int = 100

    def __post_init__(self):
        if not _is_integer(self.max_iters):
            raise ValueError(f"max_iters must be an integer, got {self.max_iters!r}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")


class SolveStatus(Enum):
    GRADIENT_CONVERGED = "GradientConverged"
    STEP_CONVERGED = "StepConverged"
    MAX_ITERS = "MaxIters"
    LEFT_DOMAIN = "LeftDomain"
    LEFT_REGION = "LeftRegion"


@record
class SolveResult:
    """Outcome of a localization run, with the full iterate trace."""

    minimizer: np.ndarray
    value: float
    iterates: list  # (x_k, E(x_k), |grad E(x_k)|) per recorded iterate
    status: SolveStatus


def in_domain_count(errors) -> int:
    """How many grid errors are not NaN; raises EmptyDomainError when none is."""
    count = int(np.count_nonzero(~np.isnan(errors)))
    if count == 0:
        raise EmptyDomainError("no grid point lies in the frame domain")
    return count


def grid_sweep(family: FrameFamily, w, grid: GridSpec):
    """The error at every grid point, one ``error_value`` call per point.

    Returns (points, errors): the (num_points, P) grid points in lexicographic
    order and their errors, NaN where the point lies outside the domain.
    Raises DimensionMismatchError, before evaluating any point, unless the
    grid has one axis per parameter, and EmptyDomainError when no grid point
    lies inside.

    ``core.error_values`` gives the same errors, bitwise, in stacked blocks.
    This sweep stays per point because the benchmark checks count one
    ``error_value`` span per grid point under ``grid_search`` and the CLI
    degeneracy check; it switches to ``error_values`` once those checks read
    a counter the library reports instead.
    """
    w = family.check_measurement(w)
    points = family.check_points(grid.points())
    errors = np.full(len(points), np.nan)
    # a node whose station distance overflows is outside: skipped, unwarned
    with np.errstate(over="ignore"):
        for i, x in enumerate(points):
            try:
                errors[i] = error_value(family, x, w)
            except FramefitError:
                pass
    in_domain_count(errors)
    return points, errors


def grid_search(family: FrameFamily, w, grid: GridSpec) -> np.ndarray:
    """In-domain grid point with the smallest error; first such point on ties."""
    points, errors = grid_sweep(family, w, grid)
    return points[np.nanargmin(errors)].copy()


def _shifted_newton_direction(g, H):
    """Solve (H + lam I) d = g with the smallest shift making d a descent direction.

    Tries a fixed number of shifts, so it ends even when |H| overflows.
    """
    if not (np.isfinite(g).all() and np.isfinite(H).all()):
        raise SingularHessianError("Newton system has non-finite entries")
    P = len(g)
    lam = 0.0
    # a shift or solve that overflows gives a non-finite d, which is rejected
    with np.errstate(over="ignore", invalid="ignore"):
        # |H| is the length of H's row lengths, clamped to the positive floats:
        # it sets no scale, and the first shift is finite even when |H| overflows
        scale = min(max(float(_lengths(_lengths(H))), np.finfo(float).tiny), np.finfo(float).max)
        for _ in range(SHIFT_DOUBLINGS + 1):
            try:
                d = np.linalg.solve(H + lam * np.eye(P), g)
                if np.all(np.isfinite(d)) and float(g @ d) > 0.0:
                    return d
            except np.linalg.LinAlgError:
                pass
            lam = max(2.0 * lam, 1e-12 * scale)
    raise SingularHessianError("Newton system unsolvable even after shifting")


def newton_step(family: FrameFamily, w, x_k, E_k, g_k, H_k) -> np.ndarray:
    """One damped Newton update from x_k, trying the full step first.

    ``E_k``, ``g_k`` and ``H_k`` are the error, gradient and Hessian at x_k,
    as returned by ``error_gradient_hessian(family, x_k, w)``; the step
    reuses them instead of evaluating them again.

    Halves the step up to MAX_BACKTRACKS times while the error increases or
    the candidate leaves the domain; returns x_k unchanged when no decrease is
    found, and raises LeftDomainError when every backtracked candidate is
    outside the domain.
    """
    x_k = family.check_point(x_k)
    w = family.check_measurement(w)
    if not g_k.any():
        return x_k
    direction = _shifted_newton_direction(g_k, H_k)

    stayed_inside = False
    # a candidate whose station distance overflows is outside, as in grid_sweep
    with np.errstate(over="ignore"):
        for k in range(MAX_BACKTRACKS + 1):
            candidate = x_k - 0.5**k * direction
            try:
                E = error_value(family, candidate, w)
            except FramefitError:
                continue
            stayed_inside = True
            if E <= E_k:
                return candidate
    if not stayed_inside:
        raise LeftDomainError("no backtracked Newton step stays in the domain")
    return x_k


def localize(family: FrameFamily, w, cfg: SolverConfig) -> SolveResult:
    """Grid search followed by the Newton iteration, with a full trace.

    A Newton step that lands outside ``cfg.grid.region()`` ends the iteration
    with status LEFT_REGION, at the last iterate inside: far from the
    stations every frame element tends to one direction, and the limit of E
    can undercut every minimum in the box.
    """
    w = family.check_measurement(w)
    low, high = cfg.grid.region()
    x = grid_search(family, w, cfg.grid)
    grad_scale = GRAD_RTOL * float(_lengths(w))
    iterates = []
    step = np.inf
    for k in range(cfg.max_iters + 1):
        E, g, H = error_gradient_hessian(family, x, w)
        with np.errstate(over="ignore"):  # a |g| or |H| past the float range is inf
            iterates.append((x.copy(), E, float(_lengths(g))))
            # |w| sqrt(|H|), not sqrt(|w|^2 |H|), which overflows first
            grad_tol = grad_scale * math.sqrt(float(_lengths(_lengths(H))))
        if step < STEP_TOL * float(_lengths(x)):
            status = SolveStatus.STEP_CONVERGED
            break
        if iterates[-1][2] <= grad_tol:
            status = SolveStatus.GRADIENT_CONVERGED
            break
        if k == cfg.max_iters:
            status = SolveStatus.MAX_ITERS
            break
        try:
            x_next = newton_step(family, w, x, E, g, H)
        except LeftDomainError:
            status = SolveStatus.LEFT_DOMAIN
            break
        if np.array_equal(x_next, x):  # no decrease found: E, g and H are known
            status = SolveStatus.STEP_CONVERGED
            break
        if not (np.all(low <= x_next) and np.all(x_next <= high)):
            status = SolveStatus.LEFT_REGION
            break
        step = float(_lengths(x_next - x))
        x = x_next
    minimizer, value, _ = iterates[-1]
    return SolveResult(minimizer, value, iterates, status)
