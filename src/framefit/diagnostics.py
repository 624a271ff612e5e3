"""Sensitivity and uniqueness diagnostics for the fit error surface.

Three facts drive this module: the error at the true position is bounded by
the squared noise norm, so the truth lies in a level set of the error; a
square (N = M) family has identically zero error and cannot localize; and
when the stacked vectors f_n(x) + Jacobian-weighted dual coefficients span
R^{M+P}, the zero set of the error contains no smooth curve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FrameFamily, dual_synthesis, error_value, error_values, fields_equal
from .errors import RankDeficientError
from .solver import GridSpec, in_domain_count

AUGMENTED_RANK_RTOL = 1e-8


def residual_bound_check(family: FrameFamily, x0, w, eps_norm: float):
    """Error at the presumed truth and whether it obeys E(x0) <= |eps|^2.

    The bound always holds for w = F(x0)^T v + eps, with equality exactly
    when eps lies in the null space of F(x0); a small absolute slack absorbs
    roundoff.
    """
    E = error_value(family, x0, w)
    return E, E <= eps_norm**2 + 1e-12


@dataclass(frozen=True, eq=False)
class LevelSetReport:
    """Grid points whose error does not exceed the threshold."""

    threshold: float
    points: np.ndarray  # (K, P) kept grid points in lexicographic grid order
    errors: np.ndarray  # (K,) their errors
    fraction: float  # covered fraction of in-domain grid points

    __eq__ = fields_equal


def level_set(family: FrameFamily, w, grid: GridSpec, tau: float) -> LevelSetReport:
    """Exhaustively evaluate the error over the grid and keep points with E <= tau.

    One ``error_values`` sweep, sliced by one mask; raises EmptyDomainError
    when no grid point lies inside the domain.
    """
    points = grid.points()
    errors = error_values(family, points, w)
    in_domain = in_domain_count(errors)
    kept = errors <= tau
    return LevelSetReport(tau, points[kept], errors[kept],
                          int(np.count_nonzero(kept)) / in_domain)


def augmented_vectors(family: FrameFamily, x, w) -> np.ndarray:
    """The N stacked vectors f_n(x) over Df_n(x)^T c, as an (M+P) x N matrix.

    Here c is the dual-frame coefficient vector (F F^T)^{-1} F w and Df_n is
    the M x P Jacobian of the n-th frame element.
    """
    w = family.check_measurement(w)
    jet = family.jet(x, order=1)
    G = dual_synthesis(jet.F)
    c = G.T @ w                                   # (M,) dual coefficients of w
    bottom = np.einsum("pmn,m->pn", jet.dF, c)    # row p, column n: <dF[p][:,n], c>
    return np.vstack([jet.F, bottom])


@dataclass(frozen=True, eq=False)
class UniquenessCertificate:
    """Point-sample check of the augmented-frame spanning condition.

    ``passed`` certifies, at the sampled points only, the hypothesis under
    which the zero set of the error contains no nonconstant smooth curve.
    """

    samples: list
    smallest_singular_values: list
    passed: bool

    __eq__ = fields_equal


def uniqueness_certificate(
    family: FrameFamily, w, samples, tol: float | None = None
) -> UniquenessCertificate:
    """Smallest singular value of the augmented system at each sample point.

    The N augmented vectors span R^{M+P} iff that value is positive; the
    verdict requires it to exceed ``tol`` (default: AUGMENTED_RANK_RTOL times
    the largest singular value at that point) everywhere.  A rank-deficient
    sample aborts with the offending point in the error message.
    """
    dim = family.M + family.P
    kept_samples = []
    svals = []
    passed = True
    for x in samples:
        try:
            A = augmented_vectors(family, x, w)
        except RankDeficientError as exc:
            raise RankDeficientError(f"sample {np.asarray(x)}: {exc}") from exc
        s = np.linalg.svd(A, compute_uv=False)
        s_min = float(s.min()) if A.shape[1] >= dim else 0.0
        s_max = float(s.max())
        threshold = tol if tol is not None else AUGMENTED_RANK_RTOL * s_max
        kept_samples.append(np.asarray(x, dtype=float))
        svals.append(s_min)
        if not s_min > threshold:
            passed = False
    return UniquenessCertificate(kept_samples, svals, passed)
