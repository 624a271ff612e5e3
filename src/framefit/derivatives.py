"""Analytic gradient and Hessian of the fit error E(x) = ||Pi(x) w||^2.

With G = F^T (F F^T)^{-1}, the relevant operators are

    Pi      = I - G F          (null-space projector)
    Pi_p    = G dF_p           (first-derivative companion)
    Pi_qp   = G d2F_qp         (second-derivative companion)

and the gradient and Hessian are assembled purely from inner products of a
small set of cached vectors, each produced by matrix-vector products only:

    dE/dx_p     = -2 <w, Pi_p Pi w>
    d2E/dx_qdx_p = 2 <w, (Pi_p Pi_q + Pi_q Pi_p) Pi w>
                 + 2 <Pi Pi_p* w, Pi Pi_q* w>
                 - 2 <Pi_q Pi w, Pi_p Pi w>
                 - 2 <w, Pi_qp Pi w>.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FrameFamily, FrameJet, dual_synthesis, error_value
from .errors import InvalidStepError

FD_GRAD_STEP = 1e-5
FD_HESS_STEP = 1e-4


@dataclass(frozen=True)
class ProjectorPieces:
    """Cached vectors from which the gradient and Hessian are assembled.

    All arrays have trailing dimension N.  ``Pqp_Pw`` is symmetric in its
    first two axes because the mixed partials of F are.
    """

    Pw: np.ndarray        # (N,)     Pi w
    PpPw: np.ndarray      # (P, N)   Pi_p Pi w
    Pps_w: np.ndarray     # (P, N)   Pi_p* w
    P_Pps_w: np.ndarray   # (P, N)   Pi Pi_p* w
    Pqp_Pw: np.ndarray    # (P, P, N) Pi_qp Pi w


def projector_pieces(jet: FrameJet, w) -> ProjectorPieces:
    """Evaluate all projector quantities at one point, reusing the dual G.

    Every quantity is built by matrix-vector products; no N x N operator is
    ever materialized.  Requires a second-order jet.
    """
    jet.require_order(2)
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
    return ProjectorPieces(Pw, PpPw, Pps_w, P_Pps_w, Pqp_Pw)


def gradient(pieces: ProjectorPieces, w) -> np.ndarray:
    """Gradient of E: entry p is -2 <w, Pi_p Pi w>."""
    w = np.asarray(w, dtype=float)
    return -2.0 * (pieces.PpPw @ w)


def hessian(pieces: ProjectorPieces, w) -> np.ndarray:
    """Hessian of E, assembled from cached vectors; exactly symmetric."""
    w = np.asarray(w, dtype=float)
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


def error_gradient_hessian(family: FrameFamily, x, w):
    """Convenience wrapper: (E, grad E, hess E) at a single point."""
    w = family.check_measurement(w)
    pieces = projector_pieces(family.jet(x, order=2), w)
    E = float(pieces.Pw @ pieces.Pw)
    return E, gradient(pieces, w), hessian(pieces, w)


def fd_gradient(family: FrameFamily, x, w, h: float = FD_GRAD_STEP) -> np.ndarray:
    """Central-difference gradient of the error, for validating the analytic one."""
    if h <= 0.0:
        raise InvalidStepError(f"finite-difference step must be positive, got {h}")
    x = family.check_point(x)
    g = np.empty(family.P)
    for p in range(family.P):
        step = np.zeros(family.P)
        step[p] = h
        g[p] = (error_value(family, x + step, w) - error_value(family, x - step, w)) / (
            2.0 * h
        )
    return g


def fd_hessian(family: FrameFamily, x, w, h: float = FD_HESS_STEP) -> np.ndarray:
    """Central differences of the analytic gradient; not symmetrized."""
    if h <= 0.0:
        raise InvalidStepError(f"finite-difference step must be positive, got {h}")
    x = family.check_point(x)
    H = np.empty((family.P, family.P))
    for q in range(family.P):
        step = np.zeros(family.P)
        step[q] = h
        _, g_plus, _ = error_gradient_hessian(family, x + step, w)
        _, g_minus, _ = error_gradient_hessian(family, x - step, w)
        H[q] = (g_plus - g_minus) / (2.0 * h)
    return H
