import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from framefit import (
    CallableFrameFamily,
    ConstantFrameFamily,
    FrameJet,
    LinearFrameFamily,
    NoiseModel,
    TargetState,
    augmented_vectors,
    dual_synthesis,
    error_gradient_hessian,
    error_value,
    frame_bounds,
    frame_element,
    project_null,
    radar_family,
    simulate_fdoa,
)
from framefit.errors import DimensionMismatchError, RankDeficientError

from conftest import (
    circular_geometry,
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
        with pytest.raises(DimensionMismatchError):
            project_null(F, dual_synthesis(F), np.array([1.0, 2.0]))

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

    def test_frame_of_wrong_shape_rejected(self):
        # error_value applies F and its dual without re-checking their shapes,
        # so a family whose F does not match its declared (M, N) must raise
        family = CallableFrameFamily((2, 3, 1), lambda x: np.eye(2, 4))
        with pytest.raises(DimensionMismatchError):
            error_value(family, [0.0], [1.0, 2.0, 3.0])


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
        assert jet.order == 1
        jet.require_order(1)


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
        if np.isfinite(x).all():
            assert np.array_equal(check(values), x)
        else:
            with pytest.raises(DimensionMismatchError, match="non-finite"):
                check(values)


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


@pytest.mark.parametrize("kind", sorted(_families_2x4()))
@pytest.mark.parametrize("point", sorted(BAD_POINTS))
def test_every_entry_point_rejects_a_bad_point(kind, point):
    family = _families_2x4()[kind]
    x = BAD_POINTS[point]
    w = np.linspace(-1.0, 1.0, 4)
    for order in (0, 1, 2):
        with pytest.raises(DimensionMismatchError):
            family.jet(x, order)
    for evaluate in (error_value, error_gradient_hessian, augmented_vectors):
        with pytest.raises(DimensionMismatchError):
            evaluate(family, x, w)
    assert not family.contains(x)
    if kind == "radar":
        with pytest.raises(DimensionMismatchError):
            frame_element(family.geometry, 0, x)
