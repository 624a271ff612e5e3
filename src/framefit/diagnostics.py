"""Sensitivity and uniqueness diagnostics for the fit error surface.

Three facts drive this module: the error at the true position is bounded by
the squared noise norm, so the truth lies in a level set of the error; a
square (N = M) family has identically zero error and cannot localize; and
when the stacked vectors f_n(x) + Jacobian-weighted dual coefficients span
R^{M+P}, the zero set of the error contains no smooth curve.
"""

from __future__ import annotations

import numpy as np

from .core import FrameFamily, _spans, dual_coefficients, error_value, error_values, record
from .errors import DimensionMismatchError, RankDeficientError
from .solver import GridSpec, in_domain_count


def residual_bound_check(family: FrameFamily, x0, w, eps_norm: float):
    """Error at the presumed truth and whether it obeys E(x0) <= |eps|^2.

    The bound always holds for w = F(x0)^T v + eps, with equality exactly
    when eps lies in the null space of F(x0); a slack of 1e-15 |w|^2, which
    scales as E does, absorbs roundoff.
    """
    w = family.check_measurement(w)
    E = error_value(family, x0, w)
    # a product, not **, which raises OverflowError past the float range; a
    # Python bool whether eps_norm is a Python or a numpy float
    return E, bool(E <= eps_norm * eps_norm + 1e-15 * float(w @ w))


@record
class LevelSetReport:
    """Grid points whose error does not exceed the threshold."""

    threshold: float
    points: np.ndarray  # (K, P) kept grid points in lexicographic grid order
    errors: np.ndarray  # (K,) their errors
    fraction: float  # covered fraction of in-domain grid points
    in_domain: int  # grid points inside the domain, of the grid's num_points


def level_set(family: FrameFamily, w, grid: GridSpec, tau: float) -> LevelSetReport:
    """Exhaustively evaluate the error over the grid and keep points with E <= tau.

    One ``error_values`` sweep, sliced by one mask; raises EmptyDomainError
    when no grid point lies inside the domain and ValueError for a NaN tau.
    """
    if np.isnan(tau):
        raise ValueError(f"level-set threshold must not be NaN, got {tau}")
    points = grid.points()
    errors = error_values(family, points, w)
    in_domain = in_domain_count(errors)
    kept = errors <= tau
    return LevelSetReport(tau, points[kept], errors[kept],
                          int(np.count_nonzero(kept)) / in_domain, in_domain)


def augmented_vectors(family: FrameFamily, x, w) -> np.ndarray:
    """The N stacked vectors f_n(x) over Df_n(x)^T c, as an (M+P) x N matrix.

    Here c = ``dual_coefficients(F, w)`` is the dual-frame coefficient
    vector (F F^T)^{-1} F w, and Df_n is the M x P Jacobian of the n-th
    frame element.
    """
    w = family.check_measurement(w)
    jet = family.jet(x, order=1)
    c = dual_coefficients(jet.F, w)
    bottom = np.einsum("pmn,m->pn", jet.dF, c)    # row p, column n: <dF[p][:,n], c>
    return np.vstack([jet.F, bottom])


@record
class UniquenessCertificate:
    """Point-sample check of the augmented-frame spanning condition.

    ``passed`` certifies, at the sampled points only, the hypothesis under
    which the zero set of the error contains no nonconstant smooth curve.
    """

    samples: list
    smallest_singular_values: list
    passed: bool


def uniqueness_certificate(
    family: FrameFamily, w, samples, tol: float | None = None
) -> UniquenessCertificate:
    """Smallest singular value of the augmented system at each sample point.

    The N augmented vectors span R^{M+P} iff that value is positive; the
    verdict requires it to exceed ``tol`` everywhere or, by default, the rank
    rule of ``frame_svd`` (``_spans``: RANK_RTOL times the largest singular
    value at that point).  A rank-deficient sample aborts with the offending
    point in the error message; no samples raise DimensionMismatchError, and
    a negative or NaN ``tol`` raises ValueError.
    """
    if tol is not None and not tol >= 0.0:
        raise ValueError(f"certificate tolerance must be nonnegative, got {tol}")
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
        kept_samples.append(np.asarray(x, dtype=float))
        svals.append(s_min)
        if not (s_min > tol if tol is not None else _spans(s, dim)):
            passed = False
    if not kept_samples:
        raise DimensionMismatchError("uniqueness certificate needs at least one sample")
    return UniquenessCertificate(kept_samples, svals, passed)
