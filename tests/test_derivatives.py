import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from framefit import (
    CallableFrameFamily,
    ConstantFrameFamily,
    RadarGeometry,
    dual_synthesis,
    error_gradient_hessian,
    error_value,
    fd_gradient,
    fd_hessian,
    frame_bounds,
    gradient,
    hessian,
    projector_pieces,
    radar_family,
)
from framefit.errors import FramefitError, InvalidStepError, MissingSecondOrderError

from conftest import (
    collinear_radar_family,
    dense_projector_operators,
    noiseless_scene,
    random_full_rank,
    random_quadratic_family,
    reference_hessian,
    reference_projector_pieces,
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
        assert np.allclose(gradient(pieces), 0.0)

    def test_pieces_carry_their_measurement(self):
        """gradient and hessian read w from the pieces: they give
        error_gradient_hessian's values at the w the pieces were built from,
        and a second w is a TypeError rather than a silently wrong answer."""
        _, family, truth, w = noiseless_scene(1)
        x = truth.position + 0.5
        pieces = projector_pieces(family.jet(x), 2.0 * w)
        assert np.array_equal(pieces.w, 2.0 * w)
        _, g, H = error_gradient_hessian(family, x, 2.0 * w)
        assert np.array_equal(gradient(pieces), g)
        assert np.array_equal(hessian(pieces), H)
        with pytest.raises(TypeError):
            gradient(pieces, w)
        with pytest.raises(TypeError):
            hessian(pieces, w)

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
        assert np.allclose(hessian(pieces), 0.0)

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

    def test_exact_symmetry_for_a_d2f_symmetric_to_roundoff(self):
        rng = np.random.default_rng(14)
        quadratic = random_quadratic_family(rng, 2, 5, 3)
        skew = 1e-13 * rng.normal(size=(3, 3, 2, 5))
        family = CallableFrameFamily(
            (2, 5, 3),
            lambda x: quadratic.jet(x, 0).F,
            lambda x: quadratic.jet(x, 1).dF,
            lambda x: quadratic.jet(x, 2).d2F + skew,
        )
        x, w = rng.normal(size=3) * 0.2, rng.normal(size=5)
        jet = family.jet(x)
        # FrameJet accepts the asymmetry and keeps d2F as given
        assert not np.array_equal(jet.d2F, jet.d2F.transpose(1, 0, 2, 3))
        pieces = projector_pieces(jet, w)
        assert np.array_equal(pieces.Pqp_Pw, pieces.Pqp_Pw.transpose(1, 0, 2))
        _, _, H = error_gradient_hessian(family, x, w)
        assert np.array_equal(H, H.T)

    def test_zero_residual_hessian_positive_semidefinite(self):
        rng = np.random.default_rng(10)
        _, family, truth, _ = noiseless_scene(4)
        v = rng.normal(size=2)
        w = family.jet(truth.position, order=0).F.T @ v
        pieces = projector_pieces(family.jet(truth.position), w)
        H = hessian(pieces)
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
        w = rng.normal(size=4)
        # a NaN or inf step is the step's fault, not the point's
        for h in (0.0, -1e-6, np.nan, np.inf):
            for fd in (fd_gradient, fd_hessian):
                with pytest.raises(InvalidStepError):
                    fd(family, [0.0, 0.0], w, h=h)


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


def _family_and_point(kind, rng):
    """A family of the given kind with N > M, unless collinear, and a point
    to evaluate it at."""
    if kind.startswith("collinear"):
        return collinear_radar_family(int(kind[-1]), rng)
    if kind.startswith("radar"):
        dim = int(kind[-1])
        stations = rng.uniform(-100.0, 100.0, size=(2, int(rng.integers(dim + 1, 7)), dim))
        return radar_family(RadarGeometry(*stations)), rng.uniform(-50.0, 50.0, size=dim)
    M, P = (int(k) for k in rng.integers(1, 5, size=2))
    family = random_quadratic_family(rng, M, M + int(rng.integers(1, 4)), P)
    return family, rng.normal(size=P) * 0.3


# Twice the largest ratio to eps cond(F) seen on nearly collinear stations
K_COLLINEAR = 4.0


def _error_scales(jet, w):
    """The error each quantity may carry per unit of relative rounding: its
    formula evaluated on absolute values, with an error of |w| in every
    entry of Pi w (both forms give Pi w to about eps |w|).  Scaled so, a
    quantity may leave the reference where the reference cancels (Pi w,
    P_Pps_w, g or H far below its terms), but only by rounding."""
    aGt = np.abs(dual_synthesis(jet.F)).T
    aw = np.abs(w)
    Pw = np.full(len(w), np.linalg.norm(w))
    PpPw = (np.abs(jet.dF) @ Pw) @ aGt
    Pps_w = (aGt @ aw) @ np.abs(jet.dF)
    P_Pps_w = np.linalg.norm(Pps_w, axis=1, keepdims=True) * np.ones_like(Pps_w)
    Pqp_Pw = (np.abs(jet.d2F) @ Pw) @ aGt
    A = Pps_w @ PpPw.T
    H = 2.0 * (A + A.T + P_Pps_w @ P_Pps_w.T + PpPw @ PpPw.T + Pqp_Pw @ aw)
    return {"Pw": Pw, "PpPw": PpPw, "Pps_w": Pps_w, "P_Pps_w": P_Pps_w,
            "Pqp_Pw": Pqp_Pw, "g": 2.0 * PpPw @ aw, "H": H}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["quadratic", "radar2", "radar3", "collinear2", "collinear3"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_matches_the_loop_form(kind, seed):
    """``projector_pieces``, ``gradient`` and ``hessian`` (products on the SVD
    factors of F) against the per-p loop form through the dual G in
    ``conftest``, within 1e-12 of ``_error_scales``.

    Nearly collinear stations take max(1e-12, K_COLLINEAR eps cond(F)), the
    form of ``conditioned_error_tolerance``: there Pi w and G themselves
    move by about eps cond(F).  On 20000 seeded draws per kind the largest
    ratio to eps cond(F) was 1.9, and the other kinds stayed below 3e-14.
    Square frames (N = M) are left out: there Pi = 0, so Pi w in either
    form is roundoff that grows with cond(F), and
    ``test_square_family_projection_vanishes`` covers them.
    """
    rng = np.random.default_rng(seed)
    family, x = _family_and_point(kind, rng)
    assume(family.N > family.M)
    w = rng.normal(size=family.N)
    try:
        jet = family.jet(x)
    except FramefitError:
        return  # a point at a station
    try:
        ref = reference_projector_pieces(jet, w)
    except FramefitError as exc:
        with pytest.raises(type(exc)):
            projector_pieces(jet, w)
        return
    pieces = projector_pieces(jet, w)
    values = {name: (getattr(pieces, name), getattr(ref, name))
              for name in ("Pw", "PpPw", "Pps_w", "P_Pps_w", "Pqp_Pw")}
    values["g"] = (gradient(pieces), gradient(ref))
    values["H"] = (hessian(pieces), reference_hessian(ref))
    rtol = 1e-12
    if kind.startswith("collinear"):
        s = np.linalg.svd(jet.F, compute_uv=False)
        rtol = max(rtol, K_COLLINEAR * np.finfo(float).eps * s[0] / s[-1])
    for name, scale in _error_scales(jet, w).items():
        value, reference = values[name]
        assert np.max(np.abs(value - reference)) <= rtol * np.max(scale), name
