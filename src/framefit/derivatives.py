"""Analytic gradient and Hessian of the fit error E(x) = ||Pi(x) w||^2.

With G = F^T (F F^T)^{-1}, the relevant operators are

    Pi      = I - G F          (null-space projector)
    Pi_p    = G dF_p           (first-derivative companion)
    Pi_qp   = G d2F_qp         (second-derivative companion)

and the gradient and Hessian are assembled purely from inner products of a
small set of cached vectors:

    dE/dx_p     = -2 <w, Pi_p Pi w>
    d2E/dx_qdx_p = 2 <w, (Pi_p Pi_q + Pi_q Pi_p) Pi w>
                 + 2 <Pi Pi_p* w, Pi Pi_q* w>
                 - 2 <Pi_q Pi w, Pi_p Pi w>
                 - 2 <w, Pi_qp Pi w>.

The vectors come from the factors of one full SVD F = U diag(s) Vt[:M]
(``core.frame_svd``).  The null rows Vn = Vt[M:] give Pi v = Vn^T (Vn v),
and E = |Vn w|^2 exactly as ``error_value`` computes it; the range rows
give G^T = U diag(1/s) Vt[:M].  Each vector is one matrix product over all
p, or over all pairs (q, p), and no N x N operator is ever materialized.
"""

from __future__ import annotations

import numpy as np

from .core import FrameFamily, FrameJet, error_value, frame_svd, record
from .errors import InvalidStepError, MissingSecondOrderError

FD_GRAD_STEP = 1e-5
FD_HESS_STEP = 1e-4


@record
class ProjectorPieces:
    """Cached vectors from which the gradient and Hessian are assembled.

    All arrays have trailing dimension N.  ``w`` is the measurement they were
    built from, so ``gradient`` and ``hessian`` cannot be handed another.
    ``E`` is |Vn w|^2 with Vn = Vt[M:] the null basis, ``error_value``'s E
    bitwise.  ``Pqp_Pw`` is exactly symmetric in its first two axes, as the
    mixed partials of F are.
    """

    w: np.ndarray         # (N,)     the measurement
    E: float              #          |Pi w|^2 = |Vn w|^2
    Pw: np.ndarray        # (N,)     Pi w = Vn^T (Vn w)
    PpPw: np.ndarray      # (P, N)   Pi_p Pi w
    Pps_w: np.ndarray     # (P, N)   Pi_p* w
    P_Pps_w: np.ndarray   # (P, N)   Pi Pi_p* w
    Pqp_Pw: np.ndarray    # (P, P, N) Pi_qp Pi w


def projector_pieces(jet: FrameJet, w) -> ProjectorPieces:
    """Evaluate all projector quantities at one point from one SVD of F.

    Raises MissingSecondOrderError unless the jet has d2F.  ``Pqp_Pw`` is the
    symmetric part of the product, so it is exactly symmetric even for a jet
    whose d2F is symmetric only to roundoff.
    """
    if jet.d2F is None:
        raise MissingSecondOrderError("projector pieces need a jet with d2F")
    dF, d2F = jet.dF, jet.d2F
    w = np.asarray(w, dtype=float)

    U, s, Vt = frame_svd(jet.F)
    M = jet.F.shape[0]
    Gt = (U / s) @ Vt[:M]
    Vn = Vt[M:]
    Vn_w = Vn @ w
    Pw = Vn_w @ Vn
    PpPw = (dF @ Pw) @ Gt
    Pps_w = (Gt @ w) @ dF
    P_Pps_w = (Pps_w @ Vn.T) @ Vn

    Pqp_Pw = (d2F @ Pw) @ Gt
    Pqp_Pw = 0.5 * (Pqp_Pw + Pqp_Pw.transpose(1, 0, 2))
    return ProjectorPieces(w, float(Vn_w @ Vn_w), Pw, PpPw, Pps_w, P_Pps_w, Pqp_Pw)


def gradient(pieces: ProjectorPieces) -> np.ndarray:
    """Gradient of E at the pieces' w: entry p is -2 <w, Pi_p Pi w>."""
    return -2.0 * (pieces.PpPw @ pieces.w)


def hessian(pieces: ProjectorPieces) -> np.ndarray:
    """Hessian of E at the pieces' w, assembled from cached vectors; exactly
    symmetric."""
    w = pieces.w
    Q, R = pieces.P_Pps_w, pieces.PpPw
    # H = 2 (A + A.T) + 2 Q Q.T - 2 R R.T - 2 Pqp_Pw w, with
    # A[p, q] = <Pi_p* w, Pi_q Pi w> = <w, Pi_p Pi_q Pi w>, summed as B + B.T
    # so that H is exactly symmetric whichever order BLAS sums in
    B = 2.0 * (pieces.Pps_w @ R.T) + Q @ Q.T - R @ R.T - pieces.Pqp_Pw @ w
    return B + B.T


def error_gradient_hessian(family: FrameFamily, x, w):
    """Convenience wrapper: (E, grad E, hess E) at a single point."""
    w = family.check_measurement(w)
    pieces = projector_pieces(family.jet(x, order=2), w)
    return pieces.E, gradient(pieces), hessian(pieces)


def _central_differences(family: FrameFamily, f, x, h: float) -> np.ndarray:
    """(f(x + h e_p) - f(x - h e_p)) / 2h for each parameter p, stacked on a
    leading axis."""
    if not 0.0 < h < np.inf:
        raise InvalidStepError(f"finite-difference step must be positive and finite, got {h}")
    x = family.check_point(x)
    return np.array([(f(x + step) - f(x - step)) / (2.0 * h) for step in h * np.eye(family.P)])


def fd_gradient(family: FrameFamily, x, w, h: float = FD_GRAD_STEP) -> np.ndarray:
    """Central-difference gradient of the error, for validating the analytic one."""
    return _central_differences(family, lambda y: error_value(family, y, w), x, h)


def fd_hessian(family: FrameFamily, x, w, h: float = FD_HESS_STEP) -> np.ndarray:
    """Central differences of the analytic gradient; not symmetrized."""
    return _central_differences(
        family, lambda y: error_gradient_hessian(family, y, w)[1], x, h
    )
