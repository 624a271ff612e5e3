"""Parametrized frame families and the projector-based fit error.

A frame for R^M is a spanning set of N column vectors, collected as an M x N
synthesis matrix F.  Given a family F(x) depending on P real parameters and a
measurement w in R^N, the quantity of interest is the squared distance from w
to the range of F(x)^T, i.e. the energy of w in the null space of F(x).
"""

from __future__ import annotations

import abc
import json
import math
import operator
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    DimensionMismatchError,
    FramefitError,
    RankDeficientError,
    ScenarioParseError,
    ScenarioValidationError,
)

# Relative threshold on the smallest singular value of F below which the
# columns are not considered a frame.
RANK_RTOL = 1e-8

# The two tests of the M = 2 Gram kernel (``_planar_energy`` per point, for
# E and for the dual coefficients, ``_null_energies`` stacked, for E), on the
# Gram entries of F's rows: a point is decided without the SVD only when
# det > _PLANAR_DET_RTOL trace^2, so cond(F) is under about 100 and F spans
# R^2 by ``_spans`` beyond doubt, and, for E alone, when (E / |w|^2) (det /
# trace^2) >= _PLANAR_ENERGY_RTOL, that is E >= about 1e-5 cond^2 |w|^2,
# where E's roundoff is under 1e-12 relative.  The dual coefficients lose no
# digits to cancellation, so they need no second test.
_PLANAR_DET_RTOL = 1e-4
_PLANAR_ENERGY_RTOL = 1e-5

# Floor on trace^2 and |w|^2 for that kernel: above it det and E are normal
# floats far from the subnormals, so no underflowed product moves them.  The
# dual also needs det^2 |w|^2 above it, so that the products of its 2x2
# solve (about |F|^3 |w|) are normal too.
_PLANAR_FLOOR = 1e-290

# Points per stacked block in error_values (``_block_rows``).  Blocks bound
# the stacked temporaries, so a large grid costs no more memory than a small
# one, and each block pays a fixed cost, so a small frame takes more rows: as
# many as keep its (rows, N, N) SVD temporaries within ERROR_BLOCK_ENTRIES,
# from ERROR_BLOCK rows (every N >= 8) up to 4 ERROR_BLOCK (every N <= 4).
# Larger blocks leave the cache: the 3721-point 61x61 radar sweep ran
# slower as one block than as four of 1024 rows.
ERROR_BLOCK = 256
ERROR_BLOCK_ENTRIES = 16384


def _block_rows(N: int) -> int:
    """Rows per error_values block for frames of N columns."""
    return min(max(ERROR_BLOCK_ENTRIES // (N * N), ERROR_BLOCK), 4 * ERROR_BLOCK)


def _values_equal(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(map(_values_equal, a, b))
    return bool(a == b)


def fields_equal(self, other):
    """``==`` for ``record`` classes: the fields by value, arrays by
    ``np.array_equal`` and lists and tuples element by element, so it never
    raises.  NaN compares unequal, as under ``==``."""
    if type(other) is not type(self):
        return NotImplemented
    return all(
        _values_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
    )


def record(cls):
    """The frozen dataclass of ``cls`` with ``fields_equal`` as its ``==``.
    Records hold arrays, so they are unhashable: ``__hash__`` is None."""
    cls = dataclass(frozen=True, eq=False)(cls)
    cls.__eq__ = fields_equal
    cls.__hash__ = None
    return cls


def _as_matrix(F) -> np.ndarray:
    F = np.asarray(F, dtype=float)
    if F.ndim != 2:
        raise DimensionMismatchError(f"expected a matrix, got shape {F.shape}")
    return F


def all_finite(x) -> bool:
    """Whether every entry of the float vector x is finite.  Several times
    cheaper than np.isfinite on the short per-point vectors."""
    return all(map(math.isfinite, x.tolist()))


def _lengths(d, axis=-1):
    """The one length rule: the Euclidean lengths |d| over the last axis of d
    (..., K), or with ``axis=0`` over the first axis of d (K, ...), by
    ``np.hypot`` of the coordinates in turn (``abs`` when K = 1).  Nothing is
    squared, so a length is inf only past the float range, with numpy's
    ``overflow encountered in hypot`` unless the caller ignores it."""
    if axis == 0:
        return _lengths(d.T).T
    K = d.shape[-1]
    if K == 1:
        return np.abs(d[..., 0])
    r = np.hypot(d[..., 0], d[..., 1])
    if K == 2:
        return r
    for m in range(2, K):
        r = np.hypot(r, d[..., m])
    return r


# the dtype of the arrays _float_array passes without a conversion
_FLOAT = np.dtype(float)


def check_vector(x, size, what: str) -> np.ndarray:
    """x as a finite float vector, of length ``size`` unless size is None.
    Every entry must be a number by ``_float_array``'s rule, the rule of the
    input files: a bool, string, bytes, None, complex value, array or ragged
    sequence among the entries raises DimensionMismatchError rather than
    reading as 1.0, a parsed float or NaN; so does an int past the float
    range, as a non-finite entry."""
    x = _float_array(x, what)
    if x.ndim != 1 or (size is not None and len(x) != size):
        expected = "a vector" if size is None else f"({size},)"
        raise DimensionMismatchError(f"{what} has shape {x.shape}, expected {expected}")
    if not all_finite(x):
        raise DimensionMismatchError(f"{what} has non-finite entries")
    return x


def _float_array(x, what: str) -> np.ndarray:
    """x as a float array, converted once, if every entry is a number by
    ``_is_number``: an ndarray by its dtype (int or float), anything else (a
    number or nested sequences as numpy reads them) entry by entry, before
    any conversion, which would parse a string or warn on a complex array.
    Raises DimensionMismatchError naming ``what`` when an entry is not a
    number or the sequences cannot be stacked, and for an int past the float
    range, as a non-finite entry.  A float64 ndarray, the per-point hot
    path, is returned as it is after one type test."""
    if type(x) is np.ndarray and x.dtype is _FLOAT:
        return x
    if isinstance(x, np.ndarray):
        if x.dtype.kind not in "iuf":
            raise DimensionMismatchError(f"{what} has entries that are not numbers")
        return np.asarray(x, dtype=float)
    try:
        entries = np.asarray(x, dtype=object)
    except ValueError:  # sequences numpy cannot stack
        entries = None
    if entries is None or not all(map(_is_number, entries.flat)):
        raise DimensionMismatchError(f"{what} has entries that are not numbers")
    try:
        return entries.astype(float)
    except OverflowError:  # a Python int past the float range
        raise DimensionMismatchError(f"{what} has non-finite entries") from None


def _finite_list(x, size: int, what: str) -> list:
    """x itself when it is a list of ``size`` finite Python floats, so a
    check on such a list builds no array; anything else as
    ``check_vector(x, size, what).tolist()``, converted or raising as there.
    The tracking dynamics hand their stage states over as such lists."""
    if type(x) is list and len(x) == size:
        for e in x:
            if type(e) is not float or not math.isfinite(e):
                break
        else:
            return x
    return check_vector(x, size, what).tolist()


def _is_number(value) -> bool:
    """Whether value is a Python or numpy int or float; a bool is not."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _is_integer(value) -> bool:
    """Whether value is a Python or numpy int; a bool is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_order(order) -> None:
    """Raises ValueError unless the jet order is the integer 0, 1 or 2."""
    if not (_is_integer(order) and 0 <= order <= 2):
        raise ValueError(f"jet order must be 0, 1 or 2, got {order!r}")


def _json_number(value, what: str):
    """The rule for every number in an input file: it is a JSON number, an
    int or a float (``_is_number``), returned as it is.  A bool, string or
    null raises ValueError rather than reading as 1.0, a parsed float or NaN."""
    if not _is_number(value):
        raise ValueError(f"{what} must be a number, got {value!r}")
    return value


def _json_integer(value, what: str) -> int:
    """A JSON number with an integral value (7 or 7.0): no NaN, inf or 2.5."""
    if int(_json_number(value, what)) != value:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _json_numbers(value, what: str) -> np.ndarray:
    """A JSON number or nested lists of them as a float array; every entry
    must pass ``_json_number``."""
    entries = np.asarray(value, dtype=object)
    for entry in entries.flat:
        _json_number(entry, f"each entry of {what}")
    return entries.astype(float)


def read_json(path, what: str, *fields: str):
    """The parsed UTF-8 JSON file at ``path``, or given ``fields`` its fields as
    float arrays of JSON numbers; any failure to read it raises
    ScenarioParseError."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        return tuple(_json_numbers(data[f], f) for f in fields) if fields else data
    except (OSError, KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise ScenarioParseError(f"cannot read {what} {path}: {exc}") from exc


def _spans(s, M: int):
    """The rank rule: whether singular values s (..., K), largest first, are
    those of a frame for R^M.  The smallest must exceed RANK_RTOL times the
    largest, so K < M or a NaN value fails."""
    s = s.T  # (K, ...): s[0] largest, s[-1] smallest; scalars for one frame
    if len(s) < M:
        return np.zeros(s.shape[1:], dtype=bool)
    return s[-1] > RANK_RTOL * s[0]


def frame_svd(F):
    """The full SVD ``(U, s, Vt)`` of the synthesis matrix F, shape (M, N):
    s holds M values and Vt has shape (N, N).

    The domain test for one F: raises RankDeficientError when
    ``np.linalg.svd`` finds no SVD (a NaN entry) or the singular values fail
    the rank rule (``_spans``), which happens when the columns of F do not
    span R^M or F has an inf entry, whose singular values are NaN.
    ``_null_energies`` applies the same rule to a stack of F.  Rows ``:M``
    of Vt are an orthonormal basis of the range of F^T, used by the dual
    (``dual_coefficients``, ``dual_synthesis``), and rows ``M:`` one of the
    null space of F, used by the projector (``error_value``,
    ``projector_pieces``).
    """
    try:
        U, s, Vt = np.linalg.svd(F)
    except np.linalg.LinAlgError as exc:
        raise RankDeficientError(f"synthesis matrix has no SVD ({exc})") from exc
    if not _spans(s, F.shape[0]):
        raise RankDeficientError(
            f"synthesis matrix is rank deficient (singular values {s})"
        )
    return U, s, Vt


def dual_coefficients(F, r) -> np.ndarray:
    """The dual-frame coefficients (F F^T)^{-1} F r of an N-vector r.

    With F = U diag(s) Vt[:M] from ``frame_svd``, (F F^T)^{-1} F is
    U diag(1/s) Vt[:M], so the result is U ((Vt[:M] r) / s): neither the
    frame operator nor the dual is formed.  Raises RankDeficientError where
    ``frame_svd`` raises.
    """
    U, s, Vt = frame_svd(F)
    return U.dot(Vt[:len(s)].dot(r) / s)


def dual_synthesis(F) -> np.ndarray:
    """Return G = F^T (F F^T)^{-1}, the transpose of the canonical dual synthesis.

    Computed from the SVD of F rather than by inverting the frame operator, so
    the result stays accurate for poorly conditioned frames.  G satisfies
    F @ G = I and G @ F @ G = G.  Raises RankDeficientError outside the
    domain, as ``frame_svd`` does.
    """
    U, s, Vt = frame_svd(_as_matrix(F))
    return (Vt[:len(s)].T / s) @ U.T


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


@record
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


def _check_positions(family: FrameFamily) -> None:
    """Raises DimensionMismatchError unless the family's parameters are
    positions (P = M), as the tracking dynamics need."""
    if family.P != family.M:
        raise DimensionMismatchError(
            f"the family's parameters must be positions (P = M), "
            f"got P = {family.P}, M = {family.M}"
        )


class FrameFamily(abc.ABC):
    """A parametrized family of frames for R^M.

    Subclasses fix the dimensions (M, N, P) and evaluate jets.  The domain is
    the points x where ``frame(x)`` is defined (the radar ``frame`` raises
    NearSingularError next to a station) and passes the rank rule ``_spans``
    on the singular values of ``np.linalg.svd``, applied by ``frame_svd`` to
    one F and by ``error_values`` to a stack.
    ``error_value`` takes F from ``frame`` and the derivative routines take
    their jets from ``jet``, both unchecked: a subclass whose ``jet`` (or
    ``frame`` override) skips ``check_point`` gets no validation of x.
    """

    M: int
    N: int
    P: int

    @abc.abstractmethod
    def jet(self, x, order: int = 2) -> FrameJet:
        """F(x) and, for ``order`` 1 or 2, its partials; calls _check_order(order),
        then check_point(x)."""

    def frame(self, x) -> np.ndarray:
        """F(x) alone, shape (M, N), bitwise ``jet(x, 0).F``; raises where
        ``jet(x, 0)`` raises.  This base version returns ``jet(x, 0).F``; a
        family with a cheaper value-only evaluation overrides it."""
        return self.jet(x, order=0).F

    def frames(self, X) -> np.ndarray:
        """F(x) at every row of X, shape (B, P), as one stack (B, M, N) that is
        NaN on the rows where ``frame(x)`` raises.  A row that is not finite is
        outside the domain, as ``frame_svd`` finds of one F; no mask says it
        again.  This base version calls ``frame`` once per row; a family with
        a stacked evaluation overrides it."""
        X = self.check_points(X)
        F = np.full((len(X), self.M, self.N), np.nan)
        for i, x in enumerate(X):
            try:
                F[i] = self.frame(x)
            except FramefitError:
                pass
        return F

    def frame_curvature(self, x, v):
        """``(rows, kappa)`` in Python floats: the M rows of F(x) as lists of
        N floats, and the N-vector kappa = Fdot^T v as a list, where Fdot =
        sum_p v_p dF[p] is the rate of F along a velocity v: kappa_n =
        sum_{p,m} v_p v_m dF[p, m, n], all that the tracking dynamics need of
        the first derivatives.  Needs P = M, since v is both the parameter
        velocity and the vector Fdot^T is applied to; ``_check_positions``
        raises first otherwise.  Then raises where ``jet(x, 1)`` raises, then
        DimensionMismatchError unless v is a finite vector of numbers of
        length P (``check_vector``).  This
        base version contracts ``jet(x, 1).dF`` with v twice and returns
        both arrays through ``tolist``; a family with a cheaper second
        directional derivative overrides it."""
        _check_positions(self)
        jet = self.jet(x, order=1)
        v = check_vector(v, self.P, "velocity")
        return jet.F.tolist(), np.einsum("p,pmn,m->n", v, jet.dF, v).tolist()

    def check_point(self, x) -> np.ndarray:
        return check_vector(x, self.P, "parameter point")

    def check_points(self, X) -> np.ndarray:
        """X as a float (B, P) array; rows with NaN or inf lie outside the domain.
        Its entries must be numbers, by ``check_vector``'s rule."""
        X = _float_array(X, "parameter point array")
        if X.ndim != 2 or X.shape[1] != self.P:
            raise DimensionMismatchError(
                f"parameter points have shape {X.shape}, expected (B, {self.P})"
            )
        return X

    def check_measurement(self, w) -> np.ndarray:
        """w as a finite vector of length N whose squared norm is finite too:
        every error lies in [0, |w|^2], so that bound must not overflow.
        Its entries must be numbers, by ``check_vector``'s rule."""
        w = _float_array(w, "measurement")
        if w.ndim == 1 and len(w) == self.N:
            # a finite |w|^2 has finite terms; Python floats overflow to inf
            # silently, with no numpy warning
            values = w.tolist()
            if math.isfinite(sum(map(operator.mul, values, values))):
                return w
        check_vector(w, self.N, "measurement")  # raises for a bad shape or entry
        raise ScenarioValidationError("measurement too large: |w|^2 overflows")

    def contains(self, x) -> bool:
        """Whether x is in the domain, i.e. error_value(self, x, w) does not raise."""
        try:
            frame_svd(self.frame(x))
        except FramefitError:
            return False
        return True


def _planar_energy(a, b, w, dual=False):
    """The M = 2 Gram kernel for one F (2, N) given as its rows a and b,
    lists of N Python floats, and w, a list of N floats: c solves the 2x2
    normal equations [[g11, g12], [g12, g22]] c = (a.w, b.w) of the Gram
    entries of a and b, and r = w - c1 a - c2 b is formed explicitly.
    Returns E = |r|^2 or, with ``dual``, the dual coefficients (F F^T)^{-1}
    F w as a pair (c1, c2), after one seminormal correction c += (F
    F^T)^{-1} F r (Björck 1996, §2.9).  None unless the kernel's tests
    decide the point (``_PLANAR_DET_RTOL``, for E also ``_PLANAR_ENERGY_RTOL``),
    with trace^2 and |w|^2 (for the dual also det^2 |w|^2) above
    ``_PLANAR_FLOOR``.

    An error in c changes E only at second order, since r is formed, so E
    carries about 4 eps |w| / |r| relative roundoff, under 1e-12 where the
    energy test holds; the corrected c is within about eps cond(F) |w| /
    s_min(F) of the exact dual.  A NaN fails every comparison, an overflow
    leaves E, det or c non-finite, and the floors keep the divisors and
    products normal, so nothing raises or warns; the SVD then decides the
    point, as it does a rank-deficient F, N = 1 (det is roundoff) and, for E,
    a square F (E is roundoff).  So a w with a NaN or inf entry is never
    decided.
    """
    # one loop for the six sums costs half of six sum(map(...)) calls
    g11 = g12 = g22 = p = q = ww = 0.0
    for an, bn, wn in zip(a, b, w):
        g11 += an * an
        g12 += an * bn
        g22 += bn * bn
        p += an * wn
        q += bn * wn
        ww += wn * wn
    trace2 = (g11 + g22) * (g11 + g22)
    det = g11 * g22 - g12 * g12
    if not (det > _PLANAR_DET_RTOL * trace2 and trace2 > _PLANAR_FLOOR
            and ww > _PLANAR_FLOOR):
        return None
    c1 = (g22 * p - g12 * q) / det
    c2 = (g11 * q - g12 * p) / det
    # one pass for |r|^2 and F r, so E and the dual share the residual loop
    E = s1 = s2 = 0.0
    for an, bn, wn in zip(a, b, w):
        rn = wn - c1 * an - c2 * bn
        E += rn * rn
        s1 += an * rn
        s2 += bn * rn
    if dual:
        c1 += (g22 * s1 - g12 * s2) / det
        c2 += (g11 * s2 - g12 * s1) / det
        if math.isfinite(c1 + c2) and det * det * ww > _PLANAR_FLOOR:
            return c1, c2
        return None
    if math.isfinite(E) and (E / ww) * (det / trace2) >= _PLANAR_ENERGY_RTOL:
        return E
    return None


def error_value(family: FrameFamily, x, w) -> float:
    """Squared distance from w to the coefficient space of the frame at x.

    Evaluates ||Pi(x) w||^2 where Pi(x) projects onto the null space of F(x).
    For M = 2 the kernel ``_planar_energy`` gives it on most points, within
    1e-12 relative of the SVD formula below.  Every other point, and every M
    != 2, takes the null rows ``Vt[M:]`` of ``frame_svd``, an orthonormal
    basis of that space: the energy is |Vt[M:] w|^2, one product and one
    dot, and exactly 0.0 for a square frame (N = M), whose null space is {0}.
    Always in [0, ||w||^2] up to roundoff; zero exactly when w lies in the
    range of F(x)^T.  Raises RankDeficientError where ``frame_svd``, the
    domain test for one F, rejects F(x).
    """
    w = family.check_measurement(w)
    F = family.frame(x)
    if len(F) == 2:
        a, b = F.tolist()
        E = _planar_energy(a, b, w.tolist())
        if E is not None:
            return E
    _, _, Vt = frame_svd(F)
    # ndarray.dot, not @: on 1-D and 2-D operands it makes the same BLAS call,
    # so the same bits, without the matmul gufunc's dispatch, which costs
    # 0.3 us a product on the per-point paths (as in dual_coefficients and
    # the radar frame_curvature at M = 3); stacked products need @'s broadcasting
    Vn_w = Vt[F.shape[0]:].dot(w)
    return float(Vn_w.dot(Vn_w))


def _svd_null_energies(F, w, M: int) -> np.ndarray:
    """|Pi w|^2 for each finite matrix of the stack F (B, M, N); NaN where it
    is not a frame by the rank rule (``_spans``, as in ``frame_svd``).  One
    stacked ``np.linalg.svd``, then error_value's null-row energy
    |Vt[M:] w|^2 as stacked ``@`` with the per-point shapes (einsum would
    sum in another order), so each value equals error_value's SVD formula
    bitwise.
    """
    try:
        _, s, Vt = np.linalg.svd(F)
    except np.linalg.LinAlgError:
        # one failed SVD fails the whole stack; alone, it has no frame
        if len(F) == 1:
            return np.full(1, np.nan)
        return np.concatenate([_svd_null_energies(F[i:i + 1], w, M) for i in range(len(F))])
    energies = np.full(len(F), np.nan)
    keep = _spans(s, M)
    Vn_w = Vt[keep, M:] @ w
    energies[keep] = (Vn_w[:, None, :] @ Vn_w[:, :, None])[:, 0, 0]
    return energies


def _row_dots(a, b) -> np.ndarray:
    """The dot product of each row of a (B, N) with the same row of b."""
    return np.einsum("ij,ij->i", a, b)


def _null_energies(F, w, M: int) -> np.ndarray:
    """|Pi w|^2 for each finite matrix of the stack F (B, M, N), NaN where it
    is not a frame by the rank rule (``_spans``), as ``error_value`` gives
    it or raises.

    For M = 2, ``_planar_energy``'s formula and its two tests, vectorized
    over the stack, decide most nodes, within 1e-12 relative of the SVD
    formula.  Every node they leave, and every stack of another M, goes
    through ``_svd_null_energies``, whose values equal the SVD formula
    bitwise: so a rank-deficient F reads NaN, as does N = 1, and a square
    F (N = 2) exactly 0.0.  Each value depends on its own F alone, not on
    the rest of the stack, so error_values' blocking moves no bit.
    """
    ww = w.dot(w)
    if M != 2 or not ww > _PLANAR_FLOOR:
        return _svd_null_energies(F, w, M)
    # _planar_energy's operations in its order; a temporary that is not read
    # again is reused in place, which leaves every value as it is
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        a, b = F[:, 0], F[:, 1]
        g11, g12, g22 = _row_dots(a, a), _row_dots(a, b), _row_dots(b, b)
        trace2 = g11 + g22
        trace2 *= trace2
        det = g11 * g22 - g12 * g12
        # p and q by einsum over C-ordered rows, one sum for every row: a
        # BLAS product picks its kernel by the number of rows and their
        # layout, so a row's last bit would depend on its block
        pq = np.einsum("imn,n->im", np.ascontiguousarray(F), w)
        p, q = pq[:, 0], pq[:, 1]
        c1 = g22 * p - g12 * q
        c1 /= det
        c2 = g11 * q - g12 * p
        c2 /= det
        r = c1[:, None] * a
        np.subtract(w, r, out=r)
        r -= c2[:, None] * b
        energies = _row_dots(r, r)
        decided = (det > _PLANAR_DET_RTOL * trace2) & (trace2 > _PLANAR_FLOOR)
        decided &= np.isfinite(energies)
        decided &= energies / ww * (det / trace2) >= _PLANAR_ENERGY_RTOL
    if not decided.all():
        energies[~decided] = _svd_null_energies(F[~decided], w, M)
    return energies


def error_values(family: FrameFamily, X, w) -> np.ndarray:
    """``error_value`` at every row of X, shape (B, P); NaN exactly where it raises.

    Evaluates ``family.frames`` and ``_null_energies`` per block of
    ``_block_rows(N)`` rows (1024 for N <= 4, ERROR_BLOCK from N = 8), and
    passes a block whose frames are all finite on as it is, with no copy;
    every value is the same whatever the blocking.  For M = 2 the values,
    like error_value's, are within 1e-12 relative of the SVD formula
    |Vt[M:] w|^2, and equal it bitwise on the nodes the M = 2 kernel leaves.
    For any other M they come from one stacked SVD and equal error_value's
    bitwise when ``frames`` lays out each F as ``frame`` does, as every
    family in this package does; a subclass whose ``frame`` returns a
    non-C-ordered F may differ in the last bit.
    """
    w = family.check_measurement(w)
    X = family.check_points(X)
    values = np.full(len(X), np.nan)
    block = _block_rows(family.N)
    # a row whose frame overflows (a radar station distance past the float
    # range) is outside: NaN, with no warning
    with np.errstate(over="ignore"):
        for start in range(0, len(X), block):
            F = family.frames(X[start:start + block])
            finite = np.isfinite(F)
            if finite.all():
                values[start:start + len(F)] = _null_energies(F, w, family.M)
                continue
            rows = np.flatnonzero(finite.all(axis=(1, 2)))
            if len(rows):
                # F[rows] keeps F's layout, so each row's value is the same
                values[start + rows] = _null_energies(F[rows], w, family.M)
    return values
