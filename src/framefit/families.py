"""Simple synthetic frame families, mainly used for validation and demos."""

from __future__ import annotations

import numpy as np

from .core import FrameFamily, FrameJet, _check_order
from .errors import DimensionMismatchError


class QuadraticFrameFamily(FrameFamily):
    """Entrywise quadratic family

        F(x) = F0 + sum_p x_p C[p] + 0.5 sum_{p,q} x_p x_q D[p, q]

    with D symmetric in (p, q).  First partials are C[p] + sum_q x_q D[p, q],
    second partials are the constants D[q, p].  With D all zero (the linear
    and constant families) the quadratic term is skipped, so x_p x_q, which
    overflows for |x| above about 1e154, never multiplies D.
    """

    def __init__(self, F0, C, D=None):
        F0 = np.asarray(F0, dtype=float)
        C = np.asarray(C, dtype=float)
        if F0.ndim != 2 or C.ndim != 3 or C.shape[1:] != F0.shape:
            raise DimensionMismatchError("C must have shape (P, M, N) matching F0")
        P = C.shape[0]
        if D is None:
            D = np.zeros((P, P) + F0.shape)
        D = np.asarray(D, dtype=float)
        if D.shape != (P, P) + F0.shape:
            raise DimensionMismatchError("D must have shape (P, P, M, N)")
        if not np.allclose(D, D.transpose(1, 0, 2, 3)):
            raise DimensionMismatchError("D must be symmetric in (p, q)")
        self.F0, self.C, self.D = F0, C, 0.5 * (D + D.transpose(1, 0, 2, 3))
        self.M, self.N = F0.shape
        self.P = P
        self._quadratic = bool(self.D.any())

    def jet(self, x, order: int = 2) -> FrameJet:
        _check_order(order)
        x = self.check_point(x)
        F = self.F0 + np.tensordot(x, self.C, axes=1)
        if self._quadratic:
            F = F + 0.5 * np.einsum("p,q,pqmn->mn", x, x, self.D)
        dF = None
        d2F = None
        if order >= 1:
            dF = self.C + np.einsum("q,pqmn->pmn", x, self.D)
        if order >= 2:
            d2F = self.D.copy()
        return FrameJet(F, dF, d2F)


class LinearFrameFamily(QuadraticFrameFamily):
    """F(x) = F0 + sum_p x_p C[p]; second partials vanish identically."""

    def __init__(self, F0, C):
        super().__init__(F0, C, D=None)


class ConstantFrameFamily(QuadraticFrameFamily):
    """F(x) = F0 for every x; all parameter derivatives vanish."""

    def __init__(self, F0, P: int = 1):
        F0 = np.asarray(F0, dtype=float)
        if F0.ndim != 2:
            raise DimensionMismatchError("F0 must be a matrix")
        super().__init__(F0, np.zeros((P,) + F0.shape))


class CallableFrameFamily(FrameFamily):
    """Frame family built from user-supplied evaluation callables.

    ``f(x) -> (M, N)``, ``df(x) -> (P, M, N)`` and ``d2f(x) -> (P, P, M, N)``
    supply the jet pieces; a piece of another shape raises
    DimensionMismatchError.  Where ``f(x)`` is not a frame, NaN or inf
    entries included, x lies outside the domain.
    """

    def __init__(self, dims, f, df=None, d2f=None):
        self.M, self.N, self.P = dims
        self._f, self._df, self._d2f = f, df, d2f

    def jet(self, x, order: int = 2) -> FrameJet:
        _check_order(order)
        x = self.check_point(x)
        # C order, as frames() stacks it, so error_values' stacked SVD matches
        # error_value's bitwise
        F = np.ascontiguousarray(self._f(x), dtype=float)
        if F.shape != (self.M, self.N):
            raise DimensionMismatchError(
                f"f(x) has shape {F.shape}, expected ({self.M}, {self.N})"
            )
        dF = d2F = None
        if order >= 1:
            if self._df is None:
                raise DimensionMismatchError("family has no first-order evaluator")
            dF = np.asarray(self._df(x), dtype=float)
            if dF.shape != (self.P, self.M, self.N):
                raise DimensionMismatchError(
                    f"df(x) has shape {dF.shape}, expected ({self.P}, {self.M}, {self.N})"
                )
        if order >= 2:
            if self._d2f is None:
                raise DimensionMismatchError("family has no second-order evaluator")
            d2F = np.asarray(self._d2f(x), dtype=float)
        return FrameJet(F, dF, d2F)
