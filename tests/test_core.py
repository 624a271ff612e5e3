import copy
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from framefit import (
    CallableFrameFamily,
    ConstantFrameFamily,
    FrameJet,
    GridSpec,
    LinearFrameFamily,
    NoiseModel,
    QuadraticFrameFamily,
    SolverConfig,
    TargetState,
    TimeSeries,
    Trajectory,
    augmented_vectors,
    dual_synthesis,
    el_acceleration,
    error_gradient_hessian,
    error_value,
    error_values,
    frame_bounds,
    level_set,
    localize,
    project_null,
    projector_pieces,
    radar_family,
    simulate_fdoa,
    uniqueness_certificate,
)
from framefit import core
from framefit.core import dual_coefficients, frame_svd
from framefit.errors import (
    DimensionMismatchError,
    FramefitError,
    RankDeficientError,
    ScenarioValidationError,
)
from framefit.radar import RadarGeometry, RadarScenario

from conftest import (
    circular_geometry,
    collinear_radar_family,
    conditioned_error_tolerance,
    exact_error,
    g_formula_error,
    noiseless_scene,
    random_full_rank,
    random_quadratic_family,
)


class TestDualSynthesis:
    def test_orthonormal_rows(self):
        F = np.array([[1.0, 0, 0], [0, 1, 0]])
        assert np.array_equal(dual_synthesis(F), F.T)

    def test_scaled_identity(self):
        G = dual_synthesis(np.array([[2.0, 0], [0, 2.0]]))
        assert np.allclose(G, np.diag([0.5, 0.5]))

    def test_right_inverse_property(self):
        rng = np.random.default_rng(0)
        F = random_full_rank(rng, 2, 5)
        G = dual_synthesis(F)
        assert np.linalg.norm(F @ G - np.eye(2)) < 1e-12
        assert np.linalg.norm(G @ F @ G - G) < 1e-12

    def test_rank_deficient_raises(self):
        with pytest.raises(RankDeficientError):
            dual_synthesis(np.array([[1.0, 2.0], [2.0, 4.0]]))
        with pytest.raises(RankDeficientError):
            dual_synthesis(np.zeros((2, 3)))

    def test_tall_matrix_never_full_row_rank(self):
        with pytest.raises(RankDeficientError):
            dual_synthesis(np.array([[1.0], [0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_is_outside_the_domain(self, bad):
        # numpy's SVD fails on NaN and returns NaN singular values for inf;
        # both must read as "not a frame", never as LinAlgError or a NaN dual
        F = np.array([[1.0, 0.0, bad], [0.0, 1.0, 0.0]])
        with pytest.raises(RankDeficientError):
            dual_synthesis(F)


class TestDualCoefficients:
    def test_matches_the_dual(self):
        # (F F^T)^{-1} F r from the SVD factors equals G^T r through the dual
        rng = np.random.default_rng(4)
        for _ in range(50):
            M = rng.integers(1, 5)
            F = random_full_rank(rng, M, rng.integers(M, 7))
            r = rng.normal(size=F.shape[1])
            c = dual_coefficients(F, r)
            assert c.shape == (M,)
            # bitwise the @ products of the SVD factors
            U, s, Vt = frame_svd(F)
            assert np.array_equal(c, U @ ((Vt[:M] @ r) / s))
            assert np.allclose(c, dual_synthesis(F).T @ r, rtol=1e-12, atol=1e-12)
            # F^T c is the projection of r onto the range of F^T
            assert np.allclose(F @ (r - F.T @ c), 0.0, atol=1e-10 * np.linalg.norm(r))

    def test_raises_where_frame_svd_raises(self):
        for F in (np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([[1.0, 0.0, np.nan], [0, 1, 0]])):
            with pytest.raises(RankDeficientError):
                frame_svd(F)
            with pytest.raises(RankDeficientError):
                dual_coefficients(F, np.ones(F.shape[1]))


class TestFrameSvd:
    @pytest.mark.parametrize("caller", ["raise", "ignore"])
    def test_leaves_error_state_as_it_was(self, caller):
        # numpy's SVD sets its own error state for the call only, after a
        # result and after a failure
        F = np.random.default_rng(4).normal(size=(2, 4))
        bad = F.copy()
        bad[1, 2] = np.nan
        with np.errstate(all=caller):
            before = np.geterr(), np.geterrcall()
            frame_svd(F)
            assert (np.geterr(), np.geterrcall()) == before
            with pytest.raises(RankDeficientError, match="SVD did not converge"):
                frame_svd(bad)
            assert (np.geterr(), np.geterrcall()) == before


class TestProjectNull:
    def test_coordinate_projector(self):
        F = np.array([[1.0, 0, 0], [0, 1, 0]])
        G = dual_synthesis(F)
        out = project_null(F, G, np.array([1.0, 2.0, 3.0]))
        assert np.allclose(out, [0.0, 0.0, 3.0])

    def test_annihilates_coefficient_space(self):
        rng = np.random.default_rng(1)
        F = random_full_rank(rng, 3, 6)
        G = dual_synthesis(F)
        w = F.T @ rng.normal(size=3)
        assert np.linalg.norm(project_null(F, G, w)) <= 1e-10 * np.linalg.norm(w)

    def test_square_invertible_gives_zero(self):
        rng = np.random.default_rng(2)
        F = random_full_rank(rng, 3, 3)
        G = dual_synthesis(F)
        w = rng.normal(size=3)
        assert np.linalg.norm(project_null(F, G, w)) <= 1e-10 * np.linalg.norm(w)

    def test_dimension_mismatch(self):
        F = np.array([[1.0, 0, 0], [0, 1, 0]])
        with pytest.raises(DimensionMismatchError, match="measurement has shape"):
            project_null(F, dual_synthesis(F), np.array([1.0, 2.0]))
        with pytest.raises(DimensionMismatchError, match="dual has shape"):
            project_null(F, dual_synthesis(F).T, np.array([1.0, 2.0, 3.0]))
        with pytest.raises(DimensionMismatchError, match="expected a matrix"):
            project_null(F[0], dual_synthesis(F), np.array([1.0, 2.0, 3.0]))

    def test_idempotent_self_adjoint_annihilating(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            M = rng.integers(1, 6)
            N = rng.integers(M, 7)
            F = random_full_rank(rng, M, N)
            G = dual_synthesis(F)
            u, w = rng.normal(size=N), rng.normal(size=N)
            Pw = project_null(F, G, w)
            Pu = project_null(F, G, u)
            nw, nu = np.linalg.norm(w), np.linalg.norm(u)
            assert np.linalg.norm(project_null(F, G, Pw) - Pw) <= 1e-10 * nw
            assert abs(Pu @ w - u @ Pw) <= 1e-10 * nu * nw
            assert np.linalg.norm(F @ Pw) <= 1e-10 * nw

    def test_pythagoras(self):
        rng = np.random.default_rng(4)
        F = random_full_rank(rng, 3, 7)
        G = dual_synthesis(F)
        w = rng.normal(size=7)
        Pw = project_null(F, G, w)
        total = Pw @ Pw + (w - Pw) @ (w - Pw)
        assert np.isclose(total, w @ w, rtol=1e-9)


class TestErrorValue:
    def test_zero_on_coefficient_space(self):
        _, family, truth, w = noiseless_scene(0)
        assert error_value(family, truth.position, w) <= 1e-18

    def test_trivial_residual(self):
        family = ConstantFrameFamily(np.array([[1.0, 0, 0], [0, 1, 0]]), P=2)
        assert np.isclose(error_value(family, [0.0, 0.0], [1.0, 2.0, 3.0]), 9.0)

    def test_bounded_by_measurement_energy(self):
        rng = np.random.default_rng(5)
        family = ConstantFrameFamily(random_full_rank(rng, 2, 5), P=1)
        for _ in range(20):
            w = rng.normal(size=5)
            E = error_value(family, [0.0], w)
            assert 0.0 <= E <= w @ w * (1 + 1e-12)

    @pytest.mark.parametrize("family", [
        noiseless_scene(0, num_pairs=2)[1],
        ConstantFrameFamily(np.eye(2), P=2),
    ], ids=["radar_2_pairs", "constant_eye"])
    def test_square_frame_has_exactly_zero_error(self, family):
        # N = M: the null space of F is {0}, so its basis is empty and every
        # evaluation path reads exactly 0.0, not roundoff
        rng = np.random.default_rng(21)
        X = rng.uniform(-10.0, 10.0, size=(50, 2))
        w = rng.normal(size=2) * 100.0
        assert np.array_equal(error_values(family, X, w), np.zeros(len(X)))
        for x in X[:10]:
            assert error_value(family, x, w) == 0.0
            E, g, H = error_gradient_hessian(family, x, w)
            assert E == 0.0
            assert not g.any() and not H.any()

    def test_frame_of_wrong_shape_rejected(self):
        # error_value applies F and its dual without re-checking their shapes,
        # so a family whose F does not match its declared (M, N) must raise
        family = CallableFrameFamily((2, 3, 1), lambda x: np.eye(2, 4))
        with pytest.raises(DimensionMismatchError):
            error_value(family, [0.0], [1.0, 2.0, 3.0])

    def test_derivatives_of_wrong_shape_rejected(self):
        # df and d2f shaped for P = 3 on a family that declares P = 2: a jet
        # must not hand a length-3 gradient to a 2-parameter solver
        family = CallableFrameFamily(
            (2, 3, 2), lambda x: np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]),
            lambda x: np.zeros((3, 2, 3)), lambda x: np.zeros((3, 3, 2, 3)))
        x, w = np.array([0.1, 0.2]), np.array([1.0, 2.0, 3.0])
        for call in (lambda: family.jet(x, 1), lambda: family.jet(x, 2),
                     lambda: error_gradient_hessian(family, x, w),
                     lambda: family.frame_curvature(x, [1.0, 1.0])):
            with pytest.raises(DimensionMismatchError):
                call()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["radar2", "radar3", "collinear2", "collinear3",
                          "quadratic", "callable"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_error_value_matches_the_dual_formula(kind, seed):
    """``error_value`` (|Vn w|^2 from the SVD null rows Vn) against the
    formula through the dual G and against the exact value, within 1e-12
    |w|^2 (``conditioned_error_tolerance`` for nearly collinear stations),
    and the same error class as ``dual_synthesis`` wherever F(x) is not a
    frame."""
    rng = np.random.default_rng(seed)
    if kind.startswith("collinear"):
        family, x = collinear_radar_family(int(kind[-1]), rng)
    else:
        family = _random_family(kind, rng)
        x = rng.uniform(-50.0, 50.0, size=family.P)
    w = rng.normal(size=family.N)
    try:
        F = family.jet(x, order=0).F
    except FramefitError:
        return  # a point at a station: TestFrame covers it
    try:
        reference = g_formula_error(F, w)
    except FramefitError as exc:
        with pytest.raises(type(exc)):
            error_value(family, x, w)
        return
    E = error_value(family, x, w)
    if kind.startswith("collinear"):
        tolerance = conditioned_error_tolerance(F, w)
    else:
        tolerance = 1e-12 * float(w @ w)
    assert abs(E - reference) <= tolerance
    assert abs(E - exact_error(F, w)) <= tolerance


def _random_family(kind, rng):
    """A random family of the given kind with derivatives up to order 2."""
    if kind.startswith("radar"):
        dim, num_pairs = int(kind[-1]), int(rng.integers(2, 7))
        return radar_family(RadarGeometry(rng.uniform(-100.0, 100.0, size=(num_pairs, dim)),
                                          rng.uniform(-100.0, 100.0, size=(num_pairs, dim))))
    M, P = (int(k) for k in rng.integers(1, 4, size=2))
    quadratic = random_quadratic_family(rng, M, M + int(rng.integers(0, 4)), P)
    if kind == "quadratic":
        return quadratic
    return CallableFrameFamily(
        (quadratic.M, quadratic.N, quadratic.P),
        lambda x: quadratic.jet(x, 0).F,
        lambda x: quadratic.jet(x, 1).dF,
        lambda x: quadratic.jet(x, 2).d2F,
    )


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestFrame:
    """``frame(x)``, the value-only path of ``error_value``, against the
    reference ``jet(x, order).F``: bitwise equal, with the same layout, and
    the same error class wherever ``jet`` raises."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(["radar2", "radar3", "quadratic", "callable"]),
        seed=st.integers(0, 2**32 - 1),
        where=st.sampled_from(["inside", "inside", "station", "nan", "wrong_length"]),
    )
    def test_equals_the_jet_frame(self, kind, seed, where):
        rng = np.random.default_rng(seed)
        family = _random_family(kind, rng)
        x = rng.uniform(-50.0, 50.0, size=family.P)
        if where == "station" and kind.startswith("radar"):
            x = family.geometry.stations[rng.integers(2 * family.N)]
            x = x + 0.5 * family.geometry.singularity_tolerance
        elif where == "nan":
            x[rng.integers(family.P)] = np.nan
        elif where == "wrong_length":
            x = rng.uniform(-50.0, 50.0, size=family.P + rng.choice([-1, 1]))
        w = rng.normal(size=family.N)
        try:
            jets = [family.jet(x, order) for order in (0, 1, 2)]
        except FramefitError as exc:
            assert where != "inside"
            for evaluate in (family.frame, lambda x: error_value(family, x, w)):
                with pytest.raises(type(exc)):
                    evaluate(x)
            return
        F = family.frame(x)
        for jet in jets:
            assert F.tobytes() == jet.F.tobytes()
            assert (F.shape, F.strides) == (jet.F.shape, jet.F.strides)
        # error_value against its formula on the reference F, and near the
        # formula through the dual
        F = jets[0].F
        try:
            _, _, Vt = frame_svd(F)
        except FramefitError as exc:
            with pytest.raises(type(exc)):
                error_value(family, x, w)
            return
        Vn_w = Vt[family.M:] @ w
        svd_E = float(Vn_w @ Vn_w)
        E = error_value(family, x, w)
        assert abs(E - g_formula_error(F, w)) <= 1e-12 * float(w @ w)
        # Newton takes E from error_gradient_hessian (the SVD formula) and its
        # line search from error_value: bitwise for M != 2, and for M = 2,
        # whose kernel decides most points, within 1e-12 relative
        for value in (E, error_gradient_hessian(family, x, w)[0]):
            if family.M == 2:
                assert abs(value - svd_E) <= 1e-12 * svd_E
            else:
                assert value == svd_E

    @pytest.mark.parametrize("family", [
        ConstantFrameFamily(np.eye(2), P=2),
        LinearFrameFamily(np.eye(2), np.full((2, 2, 2), 0.25)),
    ], ids=["constant", "linear"])
    def test_zero_second_order_family_at_a_huge_point(self, family):
        # x_p x_q overflows here; D = 0 used to turn it into a NaN frame
        x = [1e200, -1e200]
        F = family.F0 + np.tensordot(x, family.C, axes=1)
        assert np.isfinite(F).all()
        for order in (0, 1, 2):
            assert np.array_equal(family.jet(x, order).F, F)
        assert np.array_equal(family.frame(x), F)
        if not family.C.any():
            assert np.array_equal(F, np.eye(2))
            assert math.isfinite(error_value(family, x, [1.0, 2.0]))


def per_point_frames(family, X):
    """jet(x, 0).F at each row of X, NaN where jet raises."""
    F = np.full((len(X), family.M, family.N), np.nan)
    for i, x in enumerate(X):
        try:
            F[i] = family.jet(x, order=0).F
        except FramefitError:
            pass
    return F


def per_point_errors(family, X, w):
    """error_value at each row of X, NaN where it raises."""
    values = np.full(len(X), np.nan)
    for i, x in enumerate(X):
        try:
            values[i] = error_value(family, x, w)
        except FramefitError:
            pass
    return values


def svd_fallback_errors(family, X, w):
    """error_values' SVD fallback on every finite frame of X, NaN elsewhere."""
    F = family.frames(X)
    values = np.full(len(X), np.nan)
    rows = np.isfinite(F).all(axis=(1, 2))
    values[rows] = core._svd_null_energies(F[rows], np.asarray(w, dtype=float), family.M)
    return values


def svd_formula_errors(family, X, w):
    """The SVD formula |Vt[M:] w|^2 of ``frame_svd`` on jet(x, 0).F at each
    row of X, NaN where either raises: error_value's value wherever its M = 2
    kernel leaves a point."""
    w = np.asarray(w, dtype=float)
    values = np.full(len(X), np.nan)
    for i, x in enumerate(X):
        try:
            _, _, Vt = frame_svd(family.jet(x, order=0).F)
        except FramefitError:
            continue
        Vn_w = Vt[family.M:].dot(w)
        values[i] = float(Vn_w.dot(Vn_w))
    return values


def assert_within_rule(values, expected):
    """The fast-path rule: the same NaN mask, and values within 1e-12 relative."""
    assert np.array_equal(np.isnan(values), np.isnan(expected))
    inside = ~np.isnan(expected)
    assert np.all(np.abs(values[inside] - expected[inside]) <= 1e-12 * expected[inside])


def assert_stacked_matches_per_point(family, X, w):
    """``frames`` bitwise and the NaN mask exactly; the values bitwise for
    M != 2.  For M = 2 the SVD fallback equals the SVD formula on the same F
    bitwise, and ``error_values`` and per-point ``error_value`` are each
    within 1e-12 relative of it."""
    assert np.array_equal(family.frames(X), per_point_frames(family, X), equal_nan=True)
    values = error_values(family, X, w)
    expected = per_point_errors(family, X, w)
    if family.M != 2:
        assert np.array_equal(values, expected, equal_nan=True)
    else:
        formula = svd_formula_errors(family, X, w)
        assert np.array_equal(svd_fallback_errors(family, X, w), formula, equal_nan=True)
        assert_within_rule(values, formula)
        assert_within_rule(expected, formula)
    return values


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestErrorValues:
    """``frames`` and ``error_values`` against per-point ``jet`` and ``error_value``:
    NaN in the same places, values bitwise (within 1e-12 relative for M = 2),
    and no numpy warning."""

    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.sampled_from([2, 3]),
        num_pairs=st.integers(1, 6),
        # (blocks, extra rows): 1 and 5 points, one full block, and two
        # blocks and 3 rows, in error_values' own block size for N pairs
        size=st.sampled_from([(0, 1), (0, 5), (1, 0), (2, 3)]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_radar_matches_per_point(self, dim, num_pairs, size, seed):
        rng = np.random.default_rng(seed)
        geometry = RadarGeometry(rng.normal(size=(num_pairs, dim)) * 50.0,
                                 rng.normal(size=(num_pairs, dim)) * 50.0)
        family = radar_family(geometry)
        blocks, extra = size
        num_points = blocks * core._block_rows(num_pairs) + extra
        X = rng.uniform(-80.0, 80.0, size=(num_points, dim))
        # stations, a point just off one, and non-finite points among the rows
        extras = [geometry.transmitters[0], geometry.receivers[-1],
                  geometry.transmitters[-1] + 0.5 * geometry.singularity_tolerance,
                  np.full(dim, np.nan), np.r_[np.inf, np.zeros(dim - 1)]]
        rows = rng.choice(num_points, size=min(num_points, len(extras)), replace=False)
        X[rows] = extras[: len(rows)]
        assert_stacked_matches_per_point(family, X, rng.normal(size=num_pairs))

    @settings(max_examples=30, deadline=None)
    @given(
        M=st.integers(1, 3),
        extra=st.integers(0, 3),
        P=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_quadratic_matches_per_point(self, M, extra, P, seed):
        rng = np.random.default_rng(seed)
        family = random_quadratic_family(rng, M, M + extra, P)
        X = rng.normal(size=(core._block_rows(family.N) + 17, P)) * 3.0
        # a row where frame() raises, which the base frames() leaves NaN
        X[5, -1] = np.nan
        assert_stacked_matches_per_point(family, X, rng.normal(size=M + extra))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_callable_family_with_non_finite_frames(self, bad):
        # F(x) = [1, x] up to x = 0.5 and [1, bad] beyond: no frame there
        family = CallableFrameFamily(
            (1, 2, 1), lambda x: np.array([[1.0, x[0] if x[0] <= 0.5 else bad]])
        )
        X = np.linspace(-1.0, 1.0, 301)[:, None]
        values = assert_stacked_matches_per_point(family, X, np.array([1.0, -0.35]))
        assert np.array_equal(np.isnan(values), X[:, 0] > 0.5)

    def test_callable_family_with_fortran_ordered_frames(self):
        # frames() stacks C-ordered copies; jet must hand error_value the same
        # layout, or BLAS takes another path and the last bit differs
        rng = np.random.default_rng(12)
        quadratic = random_quadratic_family(rng, 3, 6, 2)
        family = CallableFrameFamily(
            (3, 6, 2), lambda x: np.asfortranarray(quadratic.jet(x, order=0).F)
        )
        X = rng.normal(size=(400, 2)) * 3.0
        values = assert_stacked_matches_per_point(family, X, rng.normal(size=6))
        assert not np.isnan(values).any()

    @pytest.mark.parametrize("family, scale", [
        (radar_family(RadarGeometry(
            *np.random.default_rng(31).uniform(-100.0, 100.0, size=(2, 6, 3)))), 50.0),
        (random_quadratic_family(np.random.default_rng(33), 2, 5, 2), 3.0),
        (random_quadratic_family(np.random.default_rng(34), 3, 6, 3), 3.0),
    ], ids=["radar3_6_pairs", "quadratic_2x5", "quadratic_3x6"])
    def test_wide_frames_match_per_point(self, family, scale):
        # N - M = 3 null rows: the stacked full SVD and the per-point one
        # must give the same rows, summed alike
        rng = np.random.default_rng(35)
        X = rng.normal(size=(core._block_rows(family.N) + 40, family.P)) * scale
        values = assert_stacked_matches_per_point(family, X, rng.normal(size=family.N))
        assert np.isfinite(values).all()

    def test_too_few_columns_are_never_a_frame(self):
        geometry = RadarGeometry([[10.0, 0.0]], [[0.0, 10.0]])  # N = 1 < M = 2
        values = error_values(radar_family(geometry), np.ones((3, 2)), [1.0])
        assert np.isnan(values).all()

    def test_failed_svd_is_outside_the_domain(self, monkeypatch):
        # numpy fails a whole stack when one SVD does not converge; that point
        # alone must read NaN, as error_value raises there
        family = ConstantFrameFamily(np.array([[1.0, 0.0, 0.5]]), P=1)
        svd = np.linalg.svd

        def failing(F, *args, **kwargs):
            if np.any(np.asarray(F)[..., 0, 0] == 7.0):
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(F, *args, **kwargs)

        family.jet = lambda x, order=2, jet=family.jet: (
            FrameJet(np.array([[7.0, 0.0, 0.5]])) if x[0] == 2.0 else jet(x, order)
        )
        # the one SVD call behind both the per-point and the stacked path
        monkeypatch.setattr(np.linalg, "svd", failing)
        X = np.arange(6.0)[:, None]
        values = assert_stacked_matches_per_point(family, X, np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(np.isnan(values), X[:, 0] == 2.0)

    def test_rejects_points_of_the_wrong_shape(self):
        _, family, _, w = noiseless_scene(0)
        for X in (np.zeros(2), np.zeros((4, 3)), np.zeros((1, 2, 2))):
            with pytest.raises(DimensionMismatchError):
                error_values(family, X, w)
            with pytest.raises(DimensionMismatchError):
                family.frames(X)

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["radar2", "radar3", "quadratic3", "callable"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_values_do_not_depend_on_the_blocking(self, kind, seed):
        # blocks of 1 row, of 7 rows and one block for all: every value and
        # every NaN byte for byte, including radar's station, non-finite and
        # overflowing rows, and N up to 9 pairs
        rng = np.random.default_rng(seed)
        if kind.startswith("radar"):
            dim, num_pairs = int(kind[-1]), int(rng.integers(1, 10))
            geometry = RadarGeometry(rng.normal(size=(num_pairs, dim)) * 50.0,
                                     rng.normal(size=(num_pairs, dim)) * 50.0)
            family = radar_family(geometry)
            X = rng.uniform(-80.0, 80.0, size=(300, dim))
            extras = [geometry.transmitters[0], geometry.receivers[-1],
                      geometry.transmitters[-1] + 0.5 * geometry.singularity_tolerance,
                      np.full(dim, np.nan), np.r_[np.inf, np.zeros(dim - 1)],
                      np.full(dim, 1.5e308)]
            X[rng.choice(len(X), size=len(extras), replace=False)] = extras
        else:
            M = 3 if kind == "quadratic3" else 2
            family = random_quadratic_family(rng, M, M + int(rng.integers(0, 5)), 2)
            if kind == "callable":
                quadratic = family
                family = CallableFrameFamily((M, quadratic.N, 2),
                                             lambda x: quadratic.jet(x, 0).F)
            X = rng.normal(size=(300, 2)) * 3.0
            X[rng.integers(len(X)), 0] = np.nan
        w = rng.normal(size=family.N)
        values = error_values(family, X, w)
        for rows in (1, 7, len(X)):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(core, "_block_rows", lambda N: rows)
                blocked = error_values(family, X, w)
            assert np.array_equal(np.isnan(blocked), np.isnan(values))
            assert blocked.tobytes() == values.tobytes()

    @pytest.mark.parametrize("dim", [2, 3])
    def test_stacked_frames_have_the_frame_layout(self, dim):
        # the two stacks error_values makes of block + 1 points: a full block
        # and a single row, each row with frame's bytes, shape and strides
        rng = np.random.default_rng(40 + dim)
        family = radar_family(RadarGeometry(rng.normal(size=(4, dim)) * 50.0,
                                            rng.normal(size=(4, dim)) * 50.0))
        block = core._block_rows(family.N)
        X = rng.uniform(-80.0, 80.0, size=(block + 1, dim))
        for start, stop, rows in ((0, block, [0, block - 1]), (block, block + 1, [0])):
            F = family.frames(X[start:stop])
            for i in rows:
                ref = family.frame(X[start + i])
                assert F[i].tobytes() == ref.tobytes()
                assert (F[i].shape, F[i].strides) == (ref.shape, ref.strides)


def random_planar_family(kind, num_pairs, rng):
    """A random M = 2 family of the given kind and 300 points to sweep it on:
    (family, X).  ``collinear`` draws its own number of pairs and sweeps
    points near its line, down to where the frames stop being frames."""
    if kind == "radar":
        family = radar_family(RadarGeometry(rng.normal(size=(num_pairs, 2)) * 50.0,
                                            rng.normal(size=(num_pairs, 2)) * 50.0))
        return family, rng.uniform(-80.0, 80.0, size=(300, 2))
    if kind == "collinear":
        family, x = collinear_radar_family(2, rng)
        return family, x + rng.normal(size=(300, 2)) * 10.0 ** rng.uniform(-9.0, 1.0, (300, 1))
    quadratic = random_quadratic_family(rng, 2, max(num_pairs, 2), int(rng.integers(1, 4)))
    X = rng.normal(size=(300, quadratic.P)) * 3.0
    if kind == "quadratic":
        return quadratic, X
    return CallableFrameFamily((2, quadratic.N, quadratic.P),
                               lambda x: quadratic.jet(x, 0).F), X


# Frames for the routing tests, one per node kind, for w = (1, 2, 3):
ROUTING_FRAMES = {
    # E = 9 and cond = 1: the M = 2 kernel decides it
    "clear": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
    # s_min / s_max just under RANK_RTOL: the SVD decides (outside)
    "band": [[1.0, 0.0, 0.0], [0.0, (1.0 - 5e-5) * core.RANK_RTOL, 0.0]],
    # s_min / s_max = RANK_RTOL / 2, rank deficient: the SVD decides (outside)
    "below": [[1.0, 0.0, 0.0], [0.0, 0.5 * core.RANK_RTOL, 0.0]],
    # w in the row space, so E is under the cutoff: the SVD decides
    "exact": [[1.0, 0.0, 0.0], [0.0, 2.0, 3.0]],
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestPlanarKernel:
    """The M = 2 energy kernel, per point (``error_value``) and stacked
    (``error_values``), and its SVD fallback."""

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["radar", "collinear", "quadratic", "callable"]),
        num_pairs=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_per_point(self, kind, num_pairs, seed):
        rng = np.random.default_rng(seed)
        family, X = random_planar_family(kind, num_pairs, rng)
        w = rng.normal(size=family.N)
        values = error_values(family, X, w)
        assert_within_rule(values, per_point_errors(family, X, w))
        inside = values[~np.isnan(values)]
        # level_set's default tau = |w|^2 keeps every node inside
        assert np.all((inside >= 0.0) & (inside <= w @ w))
        if family.N < 2:
            assert len(inside) == 0
        elif family.N == 2:
            assert not inside.any()  # exactly 0.0: the null space is {0}

    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(["radar", "collinear", "quadratic"]),
        num_pairs=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_scales_exactly(self, kind, num_pairs, seed):
        # powers of two scale every kernel value exactly, so the decisions
        # and the values follow w bitwise, and stay put when the lengths move
        rng = np.random.default_rng(seed)
        family, X = random_planar_family(kind, num_pairs, rng)
        w = rng.normal(size=family.N)
        values = error_values(family, X, w)
        for k in (20, -20):
            scaled = error_values(family, X, 2.0**k * w)
            assert np.array_equal(scaled, 4.0**k * values, equal_nan=True)
        if kind != "quadratic":
            geometry = family.geometry
            for k in (10, -30, 340):
                s = 2.0**k
                moved = radar_family(RadarGeometry(s * geometry.transmitters,
                                                   s * geometry.receivers))
                assert np.array_equal(error_values(moved, s * X, w), values, equal_nan=True)

    @staticmethod
    def routing_family(kinds):
        """Node i has the frame ROUTING_FRAMES[kinds[i]] times i + 1, which
        moves no decision and marks the node by its entry F[0, 0]."""
        frames = [(i + 1.0) * np.array(ROUTING_FRAMES[kind]) for i, kind in enumerate(kinds)]
        family = CallableFrameFamily((2, 3, 1), lambda x: frames[int(x[0])])
        return family, np.arange(len(kinds), dtype=float)[:, None]

    @staticmethod
    def count_svd_nodes(monkeypatch, fail_node=None):
        """Patches np.linalg.svd to note the node of each frame it is given
        and to fail any stack holding ``fail_node``; returns the noted nodes."""
        nodes = []
        svd = np.linalg.svd

        def counting(F):
            marks = (np.asarray(F)[..., 0, 0].reshape(-1) - 1.0).tolist()
            nodes.extend(marks)
            if fail_node in marks:
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(F)

        monkeypatch.setattr(np.linalg, "svd", counting)
        return nodes

    def test_undecided_nodes_reach_the_svd(self, monkeypatch):
        kinds = ["clear"] * 5 + ["band", "below", "exact"] + ["clear"] * 4
        family, X = self.routing_family(kinds)
        w = np.array([1.0, 2.0, 3.0])
        nodes = self.count_svd_nodes(monkeypatch)
        values = error_values(family, X, w)
        assert nodes == [5.0, 6.0, 7.0]
        assert_within_rule(values, per_point_errors(family, X, w))
        assert np.array_equal(np.isnan(values), [k in ("band", "below") for k in kinds])
        # a well-conditioned stack far from the band and the cutoff
        family, X = self.routing_family(["clear"] * 7)
        nodes.clear()
        assert np.array_equal(error_values(family, X, w), np.full(7, 9.0))
        assert nodes == []

    def test_per_point_svd_calls(self, monkeypatch):
        # one error_value call per node: only the nodes the kernel leaves
        # take an SVD, one each
        kinds = list(ROUTING_FRAMES)
        family, X = self.routing_family(kinds)
        w = np.array([1.0, 2.0, 3.0])
        formula = svd_formula_errors(family, X, w)
        nodes = self.count_svd_nodes(monkeypatch)
        for i, kind in enumerate(kinds):
            nodes.clear()
            try:
                E = error_value(family, X[i], w)
            except RankDeficientError:
                assert kind in ("band", "below")
            else:
                assert E == (9.0 if kind == "clear" else formula[i])
            assert nodes == ([] if kind == "clear" else [float(i)])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(["radar", "collinear", "quadratic", "callable"]),
        num_pairs=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        change=st.sampled_from([None, None, None, "nan", "inf", "huge", "tiny"]),
    )
    def test_per_point_matches_the_svd_formula(self, kind, num_pairs, seed, change):
        """error_value on F against the SVD formula |Vt[2:] w|^2 on the same F:
        the kernel's value, within 1e-12 relative, where the kernel decides,
        the formula's bits where it does not, and the formula's error class
        where that raises (a NaN or inf entry, N = 1, a rank-deficient F).
        F scaled to about 1e+-160, where the Gram entries overflow or
        underflow, is left to the SVD; w scaled by 2^+-20 scales E exactly."""
        rng = np.random.default_rng(seed)
        family, X = random_planar_family(kind, num_pairs, rng)
        w = rng.normal(size=family.N)
        for x in X[:20]:
            try:
                F = family.frame(x).copy()
            except FramefitError:
                continue  # a point at a station
            if change in ("nan", "inf"):
                F[rng.integers(2), rng.integers(family.N)] = getattr(np, change)
            elif change is not None:
                F *= 10.0 ** ((160.0 if change == "huge" else -160.0) + rng.uniform(-5.0, 5.0))
            fixed = CallableFrameFamily((2, family.N, 1), lambda y, F=F: F)
            kernel = core._planar_energy(*F.tolist(), w.tolist())
            try:
                _, _, Vt = frame_svd(F)
            except FramefitError as exc:
                assert kernel is None
                with pytest.raises(type(exc)):
                    error_value(fixed, [0.0], w)
                continue
            Vn_w = Vt[2:].dot(w)
            formula = float(Vn_w.dot(Vn_w))
            E = error_value(fixed, [0.0], w)
            if change is not None or family.N == 2:
                assert kernel is None
            if kernel is None:
                assert E == formula
            else:
                assert E == kernel
                assert abs(E - formula) <= 1e-12 * formula
            if family.N == 2:
                assert E == 0.0  # the null space is {0}
            for k in (20, -20):
                assert error_value(fixed, [0.0], 2.0**k * w) == 4.0**k * E

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(["radar", "collinear", "quadratic", "callable"]),
        num_pairs=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        change=st.sampled_from([None, None, None, "nan", "inf", "huge", "tiny"]),
    )
    def test_per_point_dual_matches_dual_coefficients(self, kind, num_pairs, seed, change):
        """The kernel's dual coefficients of z = wdot - kappa against
        ``dual_coefficients(F, z)``, and ``el_acceleration`` on a P = 2 family
        with that F: where the kernel decides, its c, within 1e-12 of the SVD
        dual relative to |z| / s_min(F), the scale of the dual's roundoff;
        where it does not, the SVD's bits, and the SVD's error class where
        that raises (a NaN or inf entry, N = 1, a rank-deficient F).  F
        scaled to about 1e+-160 is left to the SVD; z scaled by 2^+-20
        scales c exactly."""
        rng = np.random.default_rng(seed)
        family, X = random_planar_family(kind, num_pairs, rng)
        N = family.N
        for x in X[:20]:
            try:
                F = family.frame(x).copy()
            except FramefitError:
                continue  # a point at a station
            if change in ("nan", "inf"):
                F[rng.integers(2), rng.integers(N)] = getattr(np, change)
            elif change is not None:
                F *= 10.0 ** ((160.0 if change == "huge" else -160.0) + rng.uniform(-5.0, 5.0))
            dF = rng.normal(size=(2, 2, N))
            fixed = CallableFrameFamily((2, N, 2), lambda y, F=F: F, lambda y, dF=dF: dF)
            v, wdot = rng.normal(size=2), rng.normal(size=N)
            z = wdot - np.einsum("p,pmn,m->n", v, dF, v)
            kernel = core._planar_energy(*F.tolist(), z.tolist(), dual=True)
            try:
                reference = dual_coefficients(F, z)
            except FramefitError as exc:
                assert kernel is None
                with pytest.raises(type(exc)):
                    el_acceleration(fixed, np.zeros(2), v, wdot)
                continue
            a = el_acceleration(fixed, np.zeros(2), v, wdot)
            if change is not None:
                assert kernel is None
            if kernel is None:
                assert np.array_equal(a, reference)
                continue
            assert np.array_equal(a, kernel)
            s_min = np.linalg.svd(F, compute_uv=False)[-1]
            assert np.linalg.norm(a - reference) <= 1e-12 * np.linalg.norm(z) / s_min
            for k in (20, -20):
                scaled = core._planar_energy(*F.tolist(), (2.0**k * z).tolist(), dual=True)
                assert scaled == (2.0**k * a[0], 2.0**k * a[1])

    def test_dual_leaves_an_underflowing_solve_to_the_svd(self):
        # trace^2 and |z|^2 pass the floor, but the solve's products g22 p
        # (about 1e-354) underflow, which would make c exactly 0
        F = 1e-70 * np.array([[1.0, 0.3, 0.2], [0.1, 1.0, -0.5]])
        z = 1e-144 * np.array([1.0, 2.0, 3.0])
        assert core._planar_energy(*F.tolist(), z.tolist(), dual=True) is None
        a = el_acceleration(ConstantFrameFamily(F, P=2), np.zeros(2), np.zeros(2), z)
        assert np.array_equal(a, dual_coefficients(F, z))
        assert np.all(a > 1e-77)
        # the same frame at unit scale is decided
        assert core._planar_energy(*(1e70 * F).tolist(), z.tolist(), dual=True) is not None

    def test_failed_svd_in_the_fallback_is_outside_the_domain(self, monkeypatch):
        kinds = ["exact", "clear", "exact", "band", "exact"]
        family, X = self.routing_family(kinds)
        self.count_svd_nodes(monkeypatch, fail_node=2.0)
        values = assert_stacked_matches_per_point(family, X, np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(np.isnan(values), [False, False, True, True, False])


class TestFrameBounds:
    def test_identity(self):
        assert frame_bounds(np.eye(3)) == (1.0, 1.0)

    def test_known_spectrum(self):
        A, B = frame_bounds(np.array([[1.0, 0, 1], [0, 1, 0]]))
        assert np.isclose(A, 1.0) and np.isclose(B, 2.0)

    def test_rank_deficient_lower_bound_zero(self):
        A, B = frame_bounds(np.array([[1.0, 2.0], [2.0, 4.0]]))
        assert np.isclose(A, 0.0, atol=1e-12) and np.isclose(B, 25.0)

    def test_sandwich(self):
        rng = np.random.default_rng(6)
        F = random_full_rank(rng, 3, 8)
        A, B = frame_bounds(F)
        for _ in range(100):
            v = rng.normal(size=3)
            nv2 = v @ v
            nFv2 = np.linalg.norm(F.T @ v) ** 2
            assert A * nv2 * (1 - 1e-10) <= nFv2 <= B * nv2 * (1 + 1e-10)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_raises(self, bad):
        with pytest.raises(RankDeficientError):
            frame_bounds(np.array([[1.0, bad], [0.0, 1.0]]))


class TestFrameJet:
    def test_rejects_asymmetric_second_order(self):
        F = np.eye(2)
        dF = np.zeros((2, 2, 2))
        d2F = np.zeros((2, 2, 2, 2))
        d2F[0, 1, 0, 0] = 1.0
        with pytest.raises(DimensionMismatchError):
            FrameJet(F, dF, d2F)

    def test_accepts_asymmetry_within_tolerance(self):
        # the exact-symmetry test fails here, so allclose decides; d2F is kept as given
        dF = np.zeros((2, 2, 2))
        d2F = np.ones((2, 2, 2, 2))
        d2F[0, 1, 0, 0] += 1e-13
        jet = FrameJet(np.eye(2), dF, d2F)
        assert not np.array_equal(jet.d2F, jet.d2F.transpose(1, 0, 2, 3))
        assert jet.d2F[0, 1, 0, 0] == 1.0 + 1e-13

    @pytest.mark.parametrize("bad", [1.0 + 1e-6, np.nan, np.inf])
    def test_rejects_asymmetry_beyond_tolerance(self, bad):
        d2F = np.ones((2, 2, 2, 2))
        d2F[0, 1, 1, 0] = bad
        with pytest.raises(DimensionMismatchError):
            FrameJet(np.eye(2), np.zeros((2, 2, 2)), d2F)

    def test_rejects_symmetric_nan(self):
        # NaN != NaN, so neither the exact nor the allclose test accepts it
        d2F = np.full((1, 1, 2, 2), np.nan)
        with pytest.raises(DimensionMismatchError):
            FrameJet(np.eye(2), np.zeros((1, 2, 2)), d2F)

    def test_order_reporting(self):
        jet = FrameJet(np.eye(2), np.zeros((1, 2, 2)))
        assert jet.dF.shape == (1, 2, 2) and jet.d2F is None

    @pytest.mark.parametrize(
        "dF, d2F, message",
        [
            (np.zeros((2, 2)), None, "dF has shape"),
            (np.zeros((1, 2, 3)), None, "dF has shape"),
            (np.zeros((1, 2, 2)), np.zeros((2, 2, 2, 2)), "d2F has shape"),
            (None, np.zeros((1, 1, 2, 2)), "d2F given without dF"),
        ],
        ids=["dF_not_3d", "dF_wrong_frame", "d2F_wrong_P", "d2F_without_dF"],
    )
    def test_rejects_wrong_derivative_shapes(self, dF, d2F, message):
        with pytest.raises(DimensionMismatchError, match=message):
            FrameJet(np.eye(2), dF, d2F)


class TestFamilyConstruction:
    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: QuadraticFrameFamily(np.eye(2), np.zeros((1, 2, 3))), "C must have"),
            (lambda: QuadraticFrameFamily(np.eye(2), np.zeros((2, 2))), "C must have"),
            (lambda: QuadraticFrameFamily(np.eye(2), np.zeros((1, 2, 2)), np.zeros((2, 2, 2, 2))),
             "D must have shape"),
            (lambda: QuadraticFrameFamily(np.eye(2), np.zeros((2, 2, 2)),
                                          np.arange(16.0).reshape(2, 2, 2, 2)),
             "D must be symmetric"),
            (lambda: ConstantFrameFamily(np.ones(3)), "F0 must be a matrix"),
        ],
        ids=["C_wrong_frame", "C_not_3d", "D_wrong_shape", "D_asymmetric", "F0_vector"],
    )
    def test_rejects_inconsistent_coefficients(self, make, message):
        with pytest.raises(DimensionMismatchError, match=message):
            make()

    def test_callable_family_without_derivative_evaluators(self):
        def f(x):
            return np.array([[1.0, x[0]]])

        with pytest.raises(DimensionMismatchError, match="no first-order"):
            CallableFrameFamily((1, 2, 1), f).jet([0.5], 1)
        with pytest.raises(DimensionMismatchError, match="no second-order"):
            CallableFrameFamily((1, 2, 1), f, lambda x: np.array([[[0.0, 1.0]]])).jet([0.5], 2)


def test_family_determinism():
    _, family, truth, _ = noiseless_scene(7)
    j1 = family.jet(truth.position)
    j2 = family.jet(truth.position)
    assert np.array_equal(j1.F, j2.F)
    assert np.array_equal(j1.d2F, j2.d2F)


# finite extremes, subnormals and non-finite values, mixed with arbitrary floats
FINITENESS_CASES = [
    math.nan, math.inf, -math.inf, 1.7e308, -1.7e308, 5e-324, -5e-324,
    1e-310, 0.0, -0.0,
]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(FINITENESS_CASES), st.floats()),
                min_size=1, max_size=6))
@example([1.0, math.nan])
@example([math.inf, 1.0, 2.0])
@example([1.7e308, -5e-324])
def test_finiteness_checks_match_numpy(values):
    n = len(values)
    family = ConstantFrameFamily(np.ones((1, n)), P=n)
    x = np.array(values)
    for check in (family.check_point, family.check_measurement):
        if not np.isfinite(x).all():
            with pytest.raises(DimensionMismatchError, match="non-finite"):
                check(values)
        elif check == family.check_measurement and not math.isfinite(
            sum(v * v for v in values)
        ):
            # finite, but |w|^2, the bound on every error, overflows
            with pytest.raises(ScenarioValidationError, match="overflows"):
                check(values)
        else:
            assert np.array_equal(check(values), x)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "x",
    [
        ["1.5", 2.0], [b"2", 1.0], [True, 2.0], [np.False_, 2.0], ["abc", 1.0],
        [1 + 0j, 2.0], [None, 1.0], [[1.0], [1.0, 2.0]], [np.array(1.0), 2.0],
        [np.array([1.0]), 2.0], [np.zeros((2, 2)), np.zeros((2, 3))], "ab",
        np.array([True, False]), np.array(["1", "2"]), np.array([1 + 1j, 2.0]),
        np.array([1.0, 2.0], dtype=object),
    ],
    ids=["string", "bytes", "bool", "numpy_bool", "word", "complex", "none", "ragged",
         "zero_d_array", "one_element_array", "stacked_arrays", "bare_string",
         "bool_array", "string_array", "complex_array", "object_array"],
)
def test_check_vector_rejects_entries_that_are_not_numbers(x):
    # the rule of the input files (_is_number): nothing reads as 1.0, a parsed
    # float or NaN, and no numpy error or warning escapes
    with pytest.raises(DimensionMismatchError, match="^velocity has entries that are not numbers$"):
        core.check_vector(x, 2, "velocity")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "x, error",
    [
        ([1, 2], None), ((1.0, 2.0), None), ([np.float32(1.0), np.int64(2)], None),
        (np.array([1, 2]), None), (np.array([1.0, 2.0], dtype=np.float32), None),
        (np.array([1, 2], dtype=np.uint8), None),
        ([10**400, 2.0], "velocity has non-finite entries"),
        ([[1.0, 2.0], [3.0, 4.0]], r"velocity has shape \(2, 2\), expected \(2,\)"),
        (5.0, r"velocity has shape \(\), expected \(2,\)"),
    ],
    ids=["ints", "tuple", "numpy_scalars", "int_array", "float32_array", "uint8_array",
         "huge_int", "matrix", "scalar"],
)
def test_check_vector_reads_numbers(x, error):
    if error is None:
        assert core.check_vector(x, 2, "velocity").tobytes() == np.array([1.0, 2.0]).tobytes()
    else:
        with pytest.raises(DimensionMismatchError, match=f"^{error}$"):
            core.check_vector(x, 2, "velocity")


# one entry each that is not a number by _is_number, and arrays of such entries
NOT_NUMBERS = {"string": "0.9", "bool": True, "bytes": b"0.9", "none": None,
               "complex": 1 + 0j, "array_entry": np.array([0.9])}
NOT_NUMBER_ARRAYS = {"string_array": np.array(["0.3", "-0.2", "0.9"]),
                     "bool_array": np.array([True, False, True]),
                     "complex_array": np.array([0.3, -0.2, 0.9 + 0j])}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", [*NOT_NUMBERS, *NOT_NUMBER_ARRAYS])
def test_measurement_and_points_follow_the_number_rule(case):
    # w and the stacked points take check_vector's rule, so error_value and
    # error_values reject what they would read as a number or parse
    family = ConstantFrameFamily(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]), P=2)
    if case in NOT_NUMBERS:
        w = [0.3, -0.2, NOT_NUMBERS[case]]
        X = [[1.0, 0.5], [NOT_NUMBERS[case], 0.5]]
    else:
        w = NOT_NUMBER_ARRAYS[case]
        X = NOT_NUMBER_ARRAYS[case][:2].reshape(1, 2)
    measurement = "^measurement has entries that are not numbers$"
    points = "^parameter point array has entries that are not numbers$"
    for check, args, message in ((family.check_measurement, (w,), measurement),
                                 (error_value, (family, [1.0, 0.5], w), measurement),
                                 (family.check_points, (X,), points),
                                 (error_values, (family, X, [0.3, -0.2, 0.9]), points)):
        with pytest.raises(DimensionMismatchError, match=message):
            check(*args)


@pytest.mark.filterwarnings("error")
def test_measurement_and_points_read_numbers_as_before():
    family = ConstantFrameFamily(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]), P=2)
    w = [np.float32(0.25), 3, np.int64(-2)]
    assert family.check_measurement(w).tobytes() == np.array([0.25, 3.0, -2.0]).tobytes()
    X = [[1, np.float32(0.5)], [np.nan, np.inf]]  # rows outside the domain stay
    assert family.check_points(X).tobytes() == np.array(
        [[1.0, 0.5], [np.nan, np.inf]]).tobytes()
    for a in (np.array([1.0, 2.0]), np.array([1, 2])):
        assert core._float_array(a, "x").tobytes() == np.array([1.0, 2.0]).tobytes()
    a = np.array([1.0, 2.0])
    assert core._float_array(a, "x") is a  # a float64 array is not copied


@pytest.mark.parametrize("K", [1, 2, 3])
def test_lengths_over_either_axis_and_on_rows_agree_bitwise(K):
    # one rule, np.hypot of the coordinates in turn: over the last axis, over
    # the first, and on the first axis given as a list or tuple of rows
    rng = np.random.default_rng(K)
    d = rng.normal(size=(7, 4, K)) * 10.0 ** rng.uniform(-150.0, 150.0, size=(7, 1, 1))
    r = core._lengths(d)
    ref = np.abs(d[..., 0]) if K == 1 else np.hypot(d[..., 0], d[..., 1])
    for m in range(2, K):
        ref = np.hypot(ref, d[..., m])
    rows = np.ascontiguousarray(np.moveaxis(d, -1, 0))
    for lengths in (r, core._lengths(rows, axis=0), core._lengths(list(rows), axis=0),
                    core._lengths(tuple(rows), axis=0)):
        assert lengths.shape == (7, 4)
        assert lengths.tobytes() == np.ascontiguousarray(ref).tobytes()


def _families_2x4():
    """One family of each kind with M = P = 2 and N = 4."""
    rng = np.random.default_rng(5)
    F0 = random_full_rank(rng, 2, 4)
    C = rng.normal(size=(2, 2, 4)) * 0.2
    linear = LinearFrameFamily(F0, C)
    callable_ = CallableFrameFamily(
        (2, 4, 2),
        lambda x: linear.jet(x, 0).F,
        lambda x: linear.jet(x, 1).dF,
        lambda x: linear.jet(x, 2).d2F,
    )
    return {
        "constant": ConstantFrameFamily(F0, P=2),
        "linear": linear,
        "quadratic": random_quadratic_family(rng, 2, 4, 2),
        "callable": callable_,
        "radar": radar_family(circular_geometry(rng)),
    }


BAD_POINTS = {
    "nan": [np.nan, 0.0],
    "inf": [0.0, -np.inf],
    "too_long": [0.0, 0.0, 0.0],
    "matrix": [[0.0, 0.0]],
    "scalar": 0.0,
}


@pytest.mark.parametrize("kind", ["quadratic", "callable", "radar"])
@pytest.mark.parametrize("order", [3, -1, True, 2.0, "2", None])
def test_jet_rejects_an_order_other_than_0_1_2(kind, order):
    family = _families_2x4()[kind]
    with pytest.raises(ValueError, match=f"jet order must be 0, 1 or 2, got {order!r}"):
        family.jet(np.zeros(2), order)


@pytest.mark.parametrize("kind", sorted(_families_2x4()))
@pytest.mark.parametrize("point", sorted(BAD_POINTS))
def test_every_entry_point_rejects_a_bad_point(kind, point):
    family = _families_2x4()[kind]
    x = BAD_POINTS[point]
    w = np.linspace(-1.0, 1.0, 4)
    for order in (0, 1, 2):
        with pytest.raises(DimensionMismatchError):
            family.jet(x, order)
    with pytest.raises(DimensionMismatchError):
        family.frame(x)
    for evaluate in (error_value, error_gradient_hessian, augmented_vectors):
        with pytest.raises(DimensionMismatchError):
            evaluate(family, x, w)
    assert not family.contains(x)


def _equality_cases():
    """Per frozen dataclass with array fields: an instance and a changed copy."""
    t = np.linspace(0.0, 1.0, 5)
    v = np.arange(10.0).reshape(5, 2)
    geometry, family, truth, w = noiseless_scene(1)
    jet = family.jet(truth.position, order=2)
    grid = GridSpec([-10.0, -10.0], [10.0, 10.0], [7, 7])
    result = localize(family, w, SolverConfig(grid=grid))
    report = level_set(family, w, grid, float(w @ w))
    cert = uniqueness_certificate(family, w, [truth.position, truth.position + 1.0])
    pieces = projector_pieces(jet, w)
    scenario = RadarScenario(geometry, truth, NoiseModel(sigma=0.5, seed=3))
    return {
        "GridSpec": (GridSpec([0, 0], [1, 1], [2, 2]), GridSpec([0, 0], [1, 1], [2, 3])),
        "GridSpec_shape": (GridSpec([0, 0], [1, 1], [2, 2]), GridSpec([0], [1], [2])),
        "TimeSeries": (TimeSeries(t, v), TimeSeries(t, v + 1.0)),
        "Trajectory": (Trajectory(t, v, v), Trajectory(t, v, -v)),
        "RadarGeometry": (geometry, RadarGeometry(geometry.transmitters,
                                                  2.0 * geometry.receivers)),
        "TargetState": (truth, TargetState(truth.position, truth.velocity + 1.0)),
        "FrameJet": (jet, FrameJet(jet.F, jet.dF)),
        "ProjectorPieces": (pieces, dataclasses.replace(pieces, Pw=2.0 * pieces.Pw)),
        "SolveResult": (result, dataclasses.replace(result, iterates=result.iterates[:-1])),
        "LevelSetReport": (report, dataclasses.replace(report, errors=report.errors + 1.0)),
        "UniquenessCertificate": (cert, dataclasses.replace(cert, samples=cert.samples[::-1])),
        "SolverConfig": (SolverConfig(grid=grid), SolverConfig(grid=dataclasses.replace(
            grid, counts=[7, 8]))),
        "RadarScenario": (scenario, dataclasses.replace(scenario, target=TargetState(
            truth.position, -truth.velocity))),
    }


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", [
    "GridSpec", "GridSpec_shape", "TimeSeries", "Trajectory", "RadarGeometry", "TargetState",
    "FrameJet", "ProjectorPieces", "SolveResult", "LevelSetReport", "UniquenessCertificate",
    "SolverConfig", "RadarScenario",
])
def test_equality_compares_fields_by_value(name):
    a, changed = _equality_cases()[name]
    same = copy.deepcopy(a)  # equal values in distinct arrays
    assert a == same and not a != same
    assert a != changed and changed != a and not a == changed
    assert a != 3 and a == dataclasses.replace(a)  # replace() re-runs __post_init__
    with pytest.raises(TypeError, match=f"unhashable type: '{type(a).__name__}'"):
        hash(a)


@pytest.mark.filterwarnings("error")
def test_equality_of_equal_arrays_in_distinct_objects():
    t, v = np.linspace(0.0, 1.0, 4), np.ones((4, 3))
    assert GridSpec([0, 0], [1, 1], [2, 2]) == GridSpec([0, 0], [1, 1], [2, 2])
    assert TimeSeries(t, v) == TimeSeries(t.copy(), v)
