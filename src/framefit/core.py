"""Parametrized frame families and the projector-based fit error.

A frame for R^M is a spanning set of N column vectors, collected as an M x N
synthesis matrix F.  Given a family F(x) depending on P real parameters and a
measurement w in R^N, the quantity of interest is the squared distance from w
to the range of F(x)^T, i.e. the energy of w in the null space of F(x).
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    FramefitError,
    MissingSecondOrderError,
    RankDeficientError,
)

# Relative threshold on the smallest singular value of F below which the
# columns are not considered a frame.
RANK_RTOL = 1e-8


def _as_matrix(F) -> np.ndarray:
    F = np.asarray(F, dtype=float)
    if F.ndim != 2:
        raise DimensionMismatchError(f"expected a matrix, got shape {F.shape}")
    return F


def check_vector(x, size, what: str) -> np.ndarray:
    """x as a finite float vector, of length ``size`` unless size is None."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or (size is not None and len(x) != size):
        expected = "a vector" if size is None else f"({size},)"
        raise DimensionMismatchError(f"{what} has shape {x.shape}, expected {expected}")
    # several times cheaper than np.isfinite on the short per-point vectors
    if not all(map(math.isfinite, x.tolist())):
        raise DimensionMismatchError(f"{what} has non-finite entries")
    return x


def dual_synthesis(F) -> np.ndarray:
    """Return G = F^T (F F^T)^{-1}, the transpose of the canonical dual synthesis.

    Computed from the SVD of F rather than by inverting the frame operator, so
    the result stays accurate for poorly conditioned frames.  G satisfies
    F @ G = I and G @ F @ G = G.

    The one domain test: raises RankDeficientError unless the smallest
    singular value of F exceeds RANK_RTOL times the largest, which fails when
    the columns of F do not span R^M or F has a NaN or inf entry.
    """
    F = _as_matrix(F)
    M, N = F.shape
    try:
        U, s, Vt = np.linalg.svd(F, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise RankDeficientError(f"synthesis matrix has no SVD ({exc})") from exc
    if len(s) < M or not s[-1] > RANK_RTOL * s[0]:
        raise RankDeficientError(
            f"synthesis matrix is rank deficient (singular values {s})"
        )
    return (Vt.T / s) @ U.T


def project_null(F, G, w) -> np.ndarray:
    """Apply the orthogonal projector onto the null space of F to w.

    ``G`` must be ``dual_synthesis(F)``; the projection is w - G @ (F @ w),
    which never forms the N x N projector matrix.
    """
    F = _as_matrix(F)
    G = _as_matrix(G)
    w = np.asarray(w, dtype=float)
    M, N = F.shape
    if G.shape != (N, M):
        raise DimensionMismatchError(f"dual has shape {G.shape}, expected {(N, M)}")
    if w.shape != (N,):
        raise DimensionMismatchError(f"measurement has shape {w.shape}, expected ({N},)")
    return w - G @ (F @ w)


def frame_bounds(F) -> tuple[float, float]:
    """Lower and upper frame bounds: the extreme eigenvalues of F F^T.

    Returns (A, B) with A = 0 when the columns of F fail to span R^M; a NaN
    or inf entry raises RankDeficientError.
    """
    F = _as_matrix(F)
    if not np.isfinite(F).all():
        raise RankDeficientError("synthesis matrix has non-finite entries")
    M = F.shape[0]
    s = np.linalg.svd(F, compute_uv=False)
    s = np.concatenate([s, np.zeros(M - len(s))]) if len(s) < M else s
    return float(s[-1] ** 2), float(s[0] ** 2)


@dataclass(frozen=True)
class FrameJet:
    """Synthesis matrix at a point together with its parameter derivatives.

    F has shape (M, N); dF, when present, has shape (P, M, N) with dF[p] the
    partial derivative of F with respect to the p-th parameter; d2F, when
    present, has shape (P, P, M, N) and is symmetric in its first two axes.
    """

    F: np.ndarray
    dF: np.ndarray | None = None
    d2F: np.ndarray | None = None

    def __post_init__(self):
        F = _as_matrix(self.F)
        object.__setattr__(self, "F", F)
        M, N = F.shape
        if self.dF is not None:
            dF = np.asarray(self.dF, dtype=float)
            if dF.ndim != 3 or dF.shape[1:] != (M, N):
                raise DimensionMismatchError(
                    f"dF has shape {dF.shape}, expected (P, {M}, {N})"
                )
            object.__setattr__(self, "dF", dF)
        if self.d2F is not None:
            if self.dF is None:
                raise DimensionMismatchError("d2F given without dF")
            P = self.dF.shape[0]
            d2F = np.asarray(self.d2F, dtype=float)
            if d2F.shape != (P, P, M, N):
                raise DimensionMismatchError(
                    f"d2F has shape {d2F.shape}, expected ({P}, {P}, {M}, {N})"
                )
            d2F_T = d2F.transpose(1, 0, 2, 3)
            # families symmetric by construction pass the exact test; allclose
            # only runs for jets that are symmetric up to roundoff or not at all
            if not (
                np.array_equal(d2F, d2F_T)
                or np.allclose(d2F, d2F_T, rtol=1e-10, atol=1e-12)
            ):
                raise DimensionMismatchError("d2F is not symmetric in (q, p)")
            object.__setattr__(self, "d2F", d2F)

    @property
    def order(self) -> int:
        if self.d2F is not None:
            return 2
        if self.dF is not None:
            return 1
        return 0

    def require_order(self, order: int) -> None:
        if self.order < order:
            raise MissingSecondOrderError(
                f"jet has order {self.order}, need order {order}"
            )


class FrameFamily(abc.ABC):
    """A parametrized family of frames for R^M.

    Subclasses fix the dimensions (M, N, P) and evaluate jets.  The domain is
    where the columns of F(x) form a frame; ``dual_synthesis`` alone decides
    it, so no family adds membership rules of its own.  ``error_value`` and
    the derivative routines pass x to ``jet`` unchecked: a subclass whose
    ``jet`` skips ``check_point`` gets no validation of x.
    """

    M: int
    N: int
    P: int

    @abc.abstractmethod
    def jet(self, x, order: int = 2) -> FrameJet:
        """F(x) and, for ``order`` >= 1 or 2, its partials; calls check_point(x)."""

    def check_point(self, x) -> np.ndarray:
        return check_vector(x, self.P, "parameter point")

    def check_measurement(self, w) -> np.ndarray:
        return check_vector(w, self.N, "measurement")

    def contains(self, x) -> bool:
        """Whether x is in the domain, i.e. error_value(self, x, w) does not raise."""
        try:
            dual_synthesis(self.jet(x, order=0).F)
        except FramefitError:
            return False
        return True


def error_value(family: FrameFamily, x, w) -> float:
    """Squared distance from w to the coefficient space of the frame at x.

    Evaluates ||Pi(x) w||^2 where Pi(x) projects onto the null space of F(x).
    Always in [0, ||w||^2]; zero exactly when w lies in the range of F(x)^T.
    """
    w = family.check_measurement(w)
    F = family.jet(x, order=0).F
    # project_null without its checks: G = dual_synthesis(F) fits F by
    # construction, and every family's jet has F of shape (M, N)
    Pw = w - dual_synthesis(F) @ (F @ w)
    return float(Pw @ Pw)
