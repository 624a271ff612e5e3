import numpy as np
import pytest

from framefit import (
    ConstantFrameFamily,
    GridSpec,
    NoiseModel,
    augmented_vectors,
    dual_synthesis,
    error_value,
    error_values,
    level_set,
    project_null,
    radar_family,
    residual_bound_check,
    simulate_fdoa,
    uniqueness_certificate,
)
from framefit.cli import _names, _write_csv
from framefit.core import RANK_RTOL
from framefit.errors import (
    DimensionMismatchError,
    EmptyDomainError,
    FramefitError,
    RankDeficientError,
    ScenarioValidationError,
)
from framefit.radar import RadarGeometry

from conftest import (
    circular_geometry,
    noiseless_scene,
    random_full_rank,
    station_node_scene,
)

GRID = GridSpec([-10.0, -10.0], [10.0, 10.0], [11, 11])


class TestResidualBound:
    def test_noiseless_equality_at_zero(self):
        _, family, truth, w = noiseless_scene(0)
        E, holds = residual_bound_check(family, truth.position, w, 0.0)
        assert holds and E <= 1e-18

    def test_null_space_noise_attains_equality(self):
        rng = np.random.default_rng(1)
        geom, family, truth, w_clean = noiseless_scene(1)
        F = family.jet(truth.position, order=0).F
        G = dual_synthesis(F)
        eps = project_null(F, G, rng.normal(size=4))
        eps *= 0.05 / np.linalg.norm(eps)
        E, holds = residual_bound_check(
            family, truth.position, w_clean + eps, np.linalg.norm(eps)
        )
        assert holds
        assert np.isclose(E, np.linalg.norm(eps) ** 2, rtol=1e-10)

    def test_noise_norm_past_1e154(self):
        # its square is inf, and 1e155**2 raises OverflowError
        _, family, truth, w = noiseless_scene(0)
        _, holds = residual_bound_check(family, truth.position, w, 1e155)
        assert holds is True

    @pytest.mark.parametrize("eps_norm", [0.0, np.float64(0.0)], ids=["float", "numpy"])
    def test_verdict_is_a_python_bool(self, eps_norm):
        # np.linalg.norm returns a numpy float; the verdict is a bool either way
        _, family, truth, w = noiseless_scene(0)
        _, holds = residual_bound_check(family, truth.position, w, eps_norm)
        assert holds is True

    @pytest.mark.parametrize("k", [-30, 30])
    def test_scale_of_w_changes_no_verdict(self, k):
        # E scales as |w|^2 and so does the slack: w and the noise norm times
        # 2^k give E times 4^k, bitwise, and the same verdict
        rng = np.random.default_rng(1)
        _, family, truth, w_clean = noiseless_scene(1)
        F = family.jet(truth.position, order=0).F
        eps = project_null(F, dual_synthesis(F), rng.normal(size=4))
        eps *= 0.05 / np.linalg.norm(eps)
        eps_norm = np.linalg.norm(eps)
        # noiseless, at the bound, and below the bound: null-space noise
        # attains it, so nine tenths of its norm is too little
        cases = [(w_clean, 0.0, True), (w_clean + eps, eps_norm, True),
                 (w_clean + eps, 0.9 * eps_norm, False)]
        for w, bound, verdict in cases:
            E, holds = residual_bound_check(family, truth.position, w, bound)
            assert holds == verdict
            assert residual_bound_check(family, truth.position, 2.0**k * w,
                                        2.0**k * bound) == (4.0**k * E, verdict)

    def test_bound_holds_for_random_noise(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            geom, family, truth, w_clean = noiseless_scene(seed)
            eps = rng.normal(size=4) * 0.1
            E, holds = residual_bound_check(
                family, truth.position, w_clean + eps, np.linalg.norm(eps)
            )
            assert holds


class TestLevelSet:
    def test_full_threshold_includes_everything(self):
        _, family, _, w = noiseless_scene(2)
        report = level_set(family, w, GRID, float(w @ w))
        assert report.fraction == 1.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_measurement_whose_square_overflows_is_rejected(self):
        # every error would be inf or NaN: no silently empty report
        _, family, _, w = noiseless_scene(2)
        with pytest.raises(ScenarioValidationError, match="overflows"):
            level_set(family, 1e200 * w, GRID, 1.0)

    def test_zero_threshold_nearly_empty(self):
        rng = np.random.default_rng(3)
        geom, family, truth, w_clean = noiseless_scene(3)
        w = w_clean + rng.normal(size=4) * 0.1
        report = level_set(family, w, GRID, 0.0)
        assert report.fraction == 0.0

    def test_nan_threshold_is_rejected(self):
        # E <= NaN keeps nothing: an empty report would be a silently wrong
        # answer; a negative threshold stays legal, its empty set is correct
        _, family, _, w = noiseless_scene(4)
        with pytest.raises(ValueError, match="NaN"):
            level_set(family, w, GRID, float("nan"))
        report = level_set(family, w, GRID, -1.0)
        assert len(report.points) == 0 and report.fraction == 0.0

    def test_monotone_in_threshold(self):
        _, family, _, w = noiseless_scene(4)
        small = level_set(family, w, GRID, 1.0)
        large = level_set(family, w, GRID, 10.0)
        small_keys = set(map(tuple, small.points.tolist()))
        large_keys = set(map(tuple, large.points.tolist()))
        assert small_keys <= large_keys

    def test_square_family_everything_included(self):
        rng = np.random.default_rng(5)
        geom = circular_geometry(rng, num_pairs=2, radius=40.0)
        family = radar_family(geom)
        w = rng.normal(size=2)
        report = level_set(family, w, GRID, 1e-18 * float(w @ w))
        assert report.fraction == 1.0

    def test_csv_export(self, tmp_path):
        _, family, _, w = noiseless_scene(6)
        report = level_set(family, w, GRID, float(w @ w))
        path = tmp_path / "ls.csv"
        _write_csv(path, [*_names("x", family.P), "E"], [*report.points.T, report.errors])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x_1,x_2,E"
        assert len(lines) == len(report.points) + 1

    def test_keeps_exactly_points_at_or_below_threshold(self):
        family, w, grid = station_node_scene()
        noisy = w + np.random.default_rng(11).normal(size=w.shape) * 0.05
        # 23x23 = 529 points: three error_values blocks
        for w, grid in ((w, grid), (noisy, GridSpec([-10.0, -10.0], [10.0, 10.0], [23, 23]))):
            in_domain = []
            for x in grid.points():
                try:
                    in_domain.append((x, error_value(family, x, w)))
                except FramefitError:
                    pass
            tau = float(np.median([E for _, E in in_domain]))
            # error_values' own values, which test_core holds to the per-point
            # sweep: exactly the nodes with E <= tau, in grid order
            points = grid.points()
            errors = error_values(family, points, w)
            kept = errors <= tau
            report = level_set(family, w, grid, tau)
            assert np.array_equal(report.points, points[kept])
            assert np.array_equal(report.errors, errors[kept])
            assert report.points.shape == (np.count_nonzero(kept), family.P)
            assert report.fraction == np.count_nonzero(kept) / len(in_domain)

    def test_scaling_leaves_argmin_invariant(self):
        _, family, _, w = noiseless_scene(7)
        values = []
        for x in GRID.points():
            values.append(error_value(family, x, w))
        scaled = []
        for x in GRID.points():
            scaled.append(error_value(family, x, 3.0 * w))
        values, scaled = np.array(values), np.array(scaled)
        assert np.argmin(values) == np.argmin(scaled)
        assert np.allclose(scaled, 9.0 * values, rtol=1e-9, atol=1e-12)


class TestAugmentedVectors:
    def test_constant_family_bottom_block_zero(self):
        rng = np.random.default_rng(8)
        family = ConstantFrameFamily(random_full_rank(rng, 2, 5), P=2)
        A = augmented_vectors(family, [0.0, 0.0], rng.normal(size=5))
        assert np.allclose(A[2:], 0.0)

    def test_zero_measurement_bottom_block_zero(self):
        _, family, truth, _ = noiseless_scene(9)
        A = augmented_vectors(family, truth.position, np.zeros(4))
        assert np.allclose(A[2:], 0.0)

    def test_matches_direct_assembly(self):
        rng = np.random.default_rng(10)
        geom, family, truth, w = noiseless_scene(10)
        x = truth.position + rng.normal(size=2) * 0.1
        A = augmented_vectors(family, x, w)
        jet = family.jet(x, order=1)
        G = dual_synthesis(jet.F)
        c = G.T @ w
        for n in range(4):
            assert np.allclose(A[:2, n], jet.F[:, n])
            Dfn = np.column_stack([jet.dF[p][:, n] for p in range(2)])
            assert np.allclose(A[2:, n], Dfn.T @ c, atol=1e-12)
        assert np.linalg.svd(A, compute_uv=False).min() > 0.0

    def test_certificate_matches_the_dual_formula(self):
        # augmented_vectors takes c from dual_coefficients; the dual G
        # gives the same vectors and certificate values within 1e-12 relative
        rng = np.random.default_rng(15)
        for _ in range(60):
            dim, num_pairs = int(rng.integers(2, 4)), int(rng.integers(3, 7))
            family = radar_family(RadarGeometry(rng.uniform(-100.0, 100.0, (num_pairs, dim)),
                                                rng.uniform(-100.0, 100.0, (num_pairs, dim))))
            x = rng.uniform(-50.0, 50.0, size=dim)
            w = rng.normal(size=num_pairs)
            try:
                A = augmented_vectors(family, x, w)
            except FramefitError:
                continue
            jet = family.jet(x, order=1)
            c = dual_synthesis(jet.F).T @ w
            bottom = np.einsum("pmn,m->pn", jet.dF, c)
            assert np.array_equal(A[:dim], jet.F)
            assert np.max(np.abs(A[dim:] - bottom)) <= 1e-12 * np.max(np.abs(bottom))
            s = np.linalg.svd(A, compute_uv=False)
            s_ref = np.linalg.svd(np.vstack([jet.F, bottom]), compute_uv=False)
            assert np.max(np.abs(s - s_ref)) <= 1e-12 * s_ref[0]

    def test_bottom_block_matches_fd_jacobian(self):
        geom, family, truth, w = noiseless_scene(11)
        x = truth.position
        A = augmented_vectors(family, x, w)
        G = dual_synthesis(family.jet(x, order=0).F)
        c = G.T @ w
        h = 1e-6
        for n in range(4):
            fd_jac = np.column_stack(
                [
                    (
                        family.jet(x + h * e, 0).F[:, n]
                        - family.jet(x - h * e, 0).F[:, n]
                    )
                    / (2 * h)
                    for e in np.eye(2)
                ]
            )
            assert np.allclose(A[2:, n], fd_jac.T @ c, rtol=1e-5, atol=1e-8)


class TestUniquenessCertificate:
    def test_too_few_vectors_always_fail(self):
        rng = np.random.default_rng(12)
        geom = circular_geometry(rng, num_pairs=3)
        family = radar_family(geom)
        w = rng.normal(size=3)
        cert = uniqueness_certificate(family, w, [np.array([1.0, 2.0])])
        assert not cert.passed
        assert cert.smallest_singular_values == [0.0]

    @pytest.mark.parametrize("tol", [-1.0, -1e-300, np.nan])
    def test_negative_or_nan_tol_is_rejected(self, tol):
        # s_min > -1 would certify 3 vectors as spanning R^4
        rng = np.random.default_rng(12)
        family = radar_family(circular_geometry(rng, num_pairs=3))
        w = rng.normal(size=3)
        with pytest.raises(ValueError, match="tolerance must be nonnegative"):
            uniqueness_certificate(family, w, [np.array([1.0, 2.0])], tol=tol)
        cert = uniqueness_certificate(family, w, [np.array([1.0, 2.0])], tol=0.0)
        assert not cert.passed

    def test_no_samples_is_rejected(self):
        # passed=True with nothing checked would be a silently wrong answer
        _, family, _, w = noiseless_scene(14)
        for samples in ([], iter(())):
            with pytest.raises(DimensionMismatchError, match="at least one sample"):
                uniqueness_certificate(family, w, samples)

    def test_rank_deficient_sample_is_named(self):
        # F0 has rank 1: no sample is in the domain, and the first one is named
        family = ConstantFrameFamily(np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]]), P=2)
        with pytest.raises(RankDeficientError, match=r"^sample \[0\.5 1\.5\]: "):
            uniqueness_certificate(family, np.ones(3), [np.array([0.5, 1.5]), np.zeros(2)])

    def test_default_verdict_is_the_rank_rule(self):
        # tol=None applies frame_svd's rank rule to the augmented singular values
        rng = np.random.default_rng(16)
        geom, family, truth, w = noiseless_scene(16)
        samples = [truth.position + rng.normal(size=2) * 0.2 for _ in range(10)]
        for x in samples:
            cert = uniqueness_certificate(family, w, [x])
            s = np.linalg.svd(augmented_vectors(family, x, w), compute_uv=False)
            assert cert.passed == (s.min() > RANK_RTOL * s.max())
            assert cert.smallest_singular_values == [s.min()]

    def test_square_case_fails(self):
        rng = np.random.default_rng(13)
        geom = circular_geometry(rng, num_pairs=2, radius=40.0)
        family = radar_family(geom)
        cert = uniqueness_certificate(
            family, rng.normal(size=2), [np.array([0.5, -0.5])]
        )
        assert not cert.passed

    def test_generic_double_coverage_passes(self):
        rng = np.random.default_rng(14)
        geom, family, truth, w = noiseless_scene(14)
        samples = [truth.position + rng.normal(size=2) * 0.2 for _ in range(10)]
        cert = uniqueness_certificate(family, w, samples, tol=1e-6)
        assert cert.passed
        assert min(cert.smallest_singular_values) > 1e-6
