import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from framefit import (
    ConstantFrameFamily,
    error_gradient_hessian,
    error_value,
    fd_gradient,
    fd_hessian,
    frame_bounds,
    gradient,
    hessian,
    projector_pieces,
)
from framefit.errors import InvalidStepError, MissingSecondOrderError

from conftest import (
    dense_projector_operators,
    noiseless_scene,
    random_full_rank,
    random_quadratic_family,
)


def rel_inf(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(a)), 1e-300)


class TestProjectorPieces:
    def test_constant_family_derivative_pieces_vanish(self):
        rng = np.random.default_rng(0)
        family = ConstantFrameFamily(random_full_rank(rng, 2, 5), P=3)
        w = rng.normal(size=5)
        pieces = projector_pieces(family.jet([0.0, 0.0, 0.0]), w)
        assert np.allclose(pieces.PpPw, 0.0)
        assert np.allclose(pieces.Pps_w, 0.0)
        assert np.allclose(pieces.P_Pps_w, 0.0)
        assert np.allclose(pieces.Pqp_Pw, 0.0)

    def test_square_family_projection_vanishes(self):
        rng = np.random.default_rng(1)
        family = random_quadratic_family(rng, 3, 3, 2)
        w = rng.normal(size=3)
        pieces = projector_pieces(family.jet([0.1, -0.2]), w)
        assert np.linalg.norm(pieces.Pw) <= 1e-12 * np.linalg.norm(w)
        assert np.allclose(pieces.PpPw, 0.0, atol=1e-12)
        assert np.allclose(pieces.Pqp_Pw, 0.0, atol=1e-12)

    def test_matches_dense_assembly(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            M = rng.integers(1, 5)
            N = rng.integers(M + 1, 6)
            P = rng.integers(1, 5)
            family = random_quadratic_family(rng, M, N, P)
            x = rng.normal(size=P) * 0.3
            w = rng.normal(size=N)
            jet = family.jet(x)
            pieces = projector_pieces(jet, w)
            Pi, Pi_p, Pi_qp = dense_projector_operators(jet)
            Pw = Pi @ w
            assert rel_inf(pieces.Pw, Pw) <= 1e-10
            for p in range(P):
                assert np.allclose(pieces.PpPw[p], Pi_p[p] @ Pw, atol=1e-10)
                assert np.allclose(pieces.Pps_w[p], Pi_p[p].T @ w, atol=1e-10)
                assert np.allclose(
                    pieces.P_Pps_w[p], Pi @ (Pi_p[p].T @ w), atol=1e-10
                )
                for q in range(P):
                    assert np.allclose(
                        pieces.Pqp_Pw[q, p], Pi_qp[q, p] @ Pw, atol=1e-10
                    )

    def test_requires_second_order(self):
        rng = np.random.default_rng(3)
        family = random_quadratic_family(rng, 2, 4, 2)
        with pytest.raises(MissingSecondOrderError):
            projector_pieces(family.jet([0.0, 0.0], order=1), rng.normal(size=4))

    def test_symmetry_of_mixed_pieces(self):
        rng = np.random.default_rng(4)
        family = random_quadratic_family(rng, 2, 5, 3)
        pieces = projector_pieces(family.jet(rng.normal(size=3) * 0.2), rng.normal(size=5))
        assert np.array_equal(pieces.Pqp_Pw, pieces.Pqp_Pw.transpose(1, 0, 2))


class TestGradient:
    def test_constant_family_zero(self):
        rng = np.random.default_rng(5)
        family = ConstantFrameFamily(random_full_rank(rng, 2, 4), P=2)
        pieces = projector_pieces(family.jet([0.0, 0.0]), rng.normal(size=4))
        assert np.allclose(gradient(pieces, rng.normal(size=4)), 0.0)

    def test_zero_residual_gradient_vanishes(self):
        _, family, truth, w = noiseless_scene(1)
        _, g, _ = error_gradient_hessian(family, truth.position, w)
        assert np.max(np.abs(g)) <= 1e-12 * max(np.linalg.norm(w) ** 2, 1.0)

    def test_matches_finite_differences_on_radar(self):
        rng = np.random.default_rng(6)
        _, family, _, _ = noiseless_scene(2)
        for _ in range(50):
            x = rng.uniform(-5.0, 5.0, size=2)
            w = rng.normal(size=4)
            _, g, _ = error_gradient_hessian(family, x, w)
            assert rel_inf(g, fd_gradient(family, x, w, h=1e-5)) <= 1e-6


class TestHessian:
    def test_constant_family_zero(self):
        rng = np.random.default_rng(7)
        family = ConstantFrameFamily(random_full_rank(rng, 2, 4), P=2)
        pieces = projector_pieces(family.jet([0.0, 0.0]), rng.normal(size=4))
        assert np.allclose(hessian(pieces, rng.normal(size=4)), 0.0)

    def test_matches_differenced_gradient(self):
        rng = np.random.default_rng(8)
        _, family, _, _ = noiseless_scene(3)
        for _ in range(20):
            x = rng.uniform(-5.0, 5.0, size=2)
            w = rng.normal(size=4)
            _, _, H = error_gradient_hessian(family, x, w)
            assert rel_inf(H, fd_hessian(family, x, w, h=1e-4)) <= 1e-4

    def test_exact_symmetry(self):
        rng = np.random.default_rng(9)
        family = random_quadratic_family(rng, 2, 5, 3)
        _, _, H = error_gradient_hessian(
            family, rng.normal(size=3) * 0.2, rng.normal(size=5)
        )
        assert np.array_equal(H, H.T)

    def test_zero_residual_hessian_positive_semidefinite(self):
        rng = np.random.default_rng(10)
        _, family, truth, _ = noiseless_scene(4)
        v = rng.normal(size=2)
        w = family.jet(truth.position, order=0).F.T @ v
        pieces = projector_pieces(family.jet(truth.position), w)
        H = hessian(pieces, w)
        # only the Gram term survives when the residual vanishes
        gram = 2.0 * pieces.P_Pps_w @ pieces.P_Pps_w.T
        assert np.allclose(H, gram, atol=1e-10 * max(1.0, np.linalg.norm(H)))
        assert np.min(np.linalg.eigvalsh(H)) >= -1e-10


class TestFiniteDifferenceOracle:
    def test_quadratic_family_agreement(self):
        rng = np.random.default_rng(11)
        family = random_quadratic_family(rng, 2, 5, 2)
        x = rng.normal(size=2) * 0.2
        w = rng.normal(size=5)
        _, g, _ = error_gradient_hessian(family, x, w)
        assert rel_inf(g, fd_gradient(family, x, w, h=1e-6)) <= 1e-8

    def test_constant_family_zero(self):
        rng = np.random.default_rng(12)
        family = ConstantFrameFamily(random_full_rank(rng, 2, 4), P=2)
        g = fd_gradient(family, [0.0, 0.0], rng.normal(size=4))
        assert np.max(np.abs(g)) <= 1e-12

    def test_zero_step_rejected(self):
        rng = np.random.default_rng(13)
        family = ConstantFrameFamily(random_full_rank(rng, 2, 4), P=2)
        with pytest.raises(InvalidStepError):
            fd_gradient(family, [0.0, 0.0], rng.normal(size=4), h=0.0)


@settings(max_examples=100, deadline=None)
@given(
    dims=st.integers(2, 6).flatmap(
        lambda N: st.tuples(st.integers(1, N - 1), st.just(N), st.integers(1, 4))
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_quadratic_family_matches_finite_differences(dims, seed):
    """Analytic g and H against fd_gradient and fd_hessian, for M < N <= 6, P <= 4.

    The bound is relative to |w|^2, the scale of E; on 3000 seeded draws the
    worst gap was 9e-8 for g and 7e-8 for H (fd_hessian with h = 1e-6).
    """
    M, N, P = dims
    rng = np.random.default_rng(seed)
    family = random_quadratic_family(rng, M, N, P)
    x = rng.normal(size=P) * 0.2
    w = rng.normal(size=N)
    A, B = frame_bounds(family.jet(x, order=0).F)
    assume(B <= 1e4 * A)  # singular values within a factor 100
    _, g, H = error_gradient_hessian(family, x, w)
    scale = float(w @ w)
    assert np.max(np.abs(g - fd_gradient(family, x, w))) <= 1e-6 * scale
    assert np.max(np.abs(H - fd_hessian(family, x, w, h=1e-6))) <= 1e-6 * scale
