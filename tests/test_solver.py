import itertools
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from framefit import (
    CallableFrameFamily,
    ConstantFrameFamily,
    GridSpec,
    NoiseModel,
    SolveStatus,
    SolverConfig,
    TargetState,
    error_gradient_hessian,
    error_value,
    grid_search,
    level_set,
    localize,
    newton_step,
    radar_family,
    simulate_fdoa,
)
from framefit.errors import (
    DimensionMismatchError,
    EmptyDomainError,
    FramefitError,
    RankDeficientError,
    ScenarioValidationError,
    SingularHessianError,
)
from framefit.core import _lengths, error_values
from framefit.radar import RadarGeometry
from framefit.solver import (
    GRAD_RTOL,
    MAX_SHIFT_FACTOR,
    SHIFT_DOUBLINGS,
    STEP_TOL,
    _shifted_newton_direction,
    grid_sweep,
    in_domain_count,
)

from conftest import (
    arc_family,
    circular_geometry,
    noiseless_scene,
    random_full_rank,
    station_node_scene,
    time_limit,
)


class TestGridSpec:
    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            GridSpec([0.0], [0.0], [3])

    def test_point_order_is_lexicographic(self):
        grid = GridSpec([0.0, 0.0], [1.0, 1.0], [2, 2])
        pts = list(grid.points())
        assert np.allclose(pts, [[0, 0], [0, 1], [1, 0], [1, 1]])

    def test_single_count_axis(self):
        grid = GridSpec([2.0], [3.0], [1])
        assert np.allclose(list(grid.points()), [[2.0]])

    @pytest.mark.parametrize(
        "lower, upper, counts",
        [
            ([-np.inf], [0.0], [3]),
            ([0.0, 0.0], [1.0, np.inf], [3, 3]),
            ([np.nan], [1.0], [3]),
            ([-1e308], [1e308], [3]),          # finite bounds, span overflows
            ([0.0], [1.0], [2.5]),             # was truncated to 2
            ([0.0], [1.0], [np.nan]),
            ([0.0], [1.0], [np.inf]),
            ([0.0], [1.0], [1e30]),            # not an int64
            ([0.0], [1.0], [0]),
            ([], [], []),
            ([[0.0]], [[1.0]], [[3]]),
        ],
        ids=["lower_inf", "upper_inf", "lower_nan", "span_overflow", "fractional_count",
             "nan_count", "inf_count", "huge_count", "zero_count", "empty", "matrix"],
    )
    def test_rejects_invalid_spec(self, lower, upper, counts):
        with pytest.raises(ValueError):
            GridSpec(lower, upper, counts)

    @pytest.mark.parametrize("count", [2**63, 2**64], ids=["2^63", "2^64"])
    def test_oversized_count_reported_too_large(self, count):
        with pytest.raises(ValueError, match="grid counts too large: each must be below 2"):
            GridSpec([0.0, 0.0], [1.0, 1.0], [count, 1])

    def test_integral_float_counts_accepted(self):
        grid = GridSpec([0.0], [1.0], [3.0])
        assert grid.counts.dtype.kind == "i" and grid.num_points == 3

    def test_num_points_is_the_exact_product(self):
        # int64 arithmetic would wrap 2**64 to 0
        assert GridSpec([0.0, 0.0], [1.0, 1.0], [2**32, 2**32]).num_points == 2**64

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(-1e3, 1e3), st.floats(1e-3, 1e3), st.integers(1, 6)),
            min_size=1,
            max_size=3,
        )
    )
    @example([(0.0, 1.0, 1), (-2.0, 4.0, 5), (3.0, 0.5, 1)])
    def test_points_match_product_reference(self, axes):
        lower = [lo for lo, _, _ in axes]
        upper = [lo + span for lo, span, _ in axes]
        grid = GridSpec(lower, upper, [c for _, _, c in axes])
        reference = np.array([np.array(c) for c in itertools.product(*grid.axes())])
        points = grid.points()
        assert points.shape == (grid.num_points, len(axes)) == reference.shape
        assert points.dtype == reference.dtype
        assert points.tobytes() == reference.tobytes()


class TestGridSearch:
    def test_finds_true_position_on_grid(self):
        geom, family, truth, _ = noiseless_scene(0)
        # put the truth exactly on a grid node
        x0 = np.round(truth.position)
        w = simulate_fdoa(geom, TargetState(x0, truth.velocity), NoiseModel(0.0, 0))
        grid = GridSpec([-10.0, -10.0], [10.0, 10.0], [21, 21])
        assert np.allclose(grid_search(family, w, grid), x0)

    def test_one_point_grid(self):
        _, family, truth, w = noiseless_scene(1)
        grid = GridSpec([0.0, 0.0], [1.0, 1.0], [1, 1])
        assert np.allclose(grid_search(family, w, grid), [0.0, 0.0])

    def test_grid_optimality(self):
        _, family, _, w = noiseless_scene(2)
        grid = GridSpec([-10.0, -10.0], [10.0, 10.0], [7, 7])
        best = grid_search(family, w, grid)
        E_best = error_value(family, best, w)
        for x in grid.points():
            if family.contains(x):
                assert E_best <= error_value(family, x, w) + 1e-15

    def test_empty_domain(self):
        from framefit.radar import RadarGeometry

        family = radar_family(RadarGeometry([[0.0, 0.0]], [[6.0, 0.0]]))
        with pytest.raises(EmptyDomainError):
            grid_search(family, np.zeros(1), GridSpec([-1.0, -1.0], [1.0, 1.0], [3, 3]))

    @pytest.mark.parametrize("counts", [[2, 2, 2], [3]], ids=["three_axes", "one_axis"])
    @pytest.mark.parametrize("kind", ["radar", "callable"])
    def test_grid_of_the_wrong_dimension(self, kind, counts):
        # P = 2; each point used to fail its own check, which read as an
        # empty domain, after evaluating every point
        rng = np.random.default_rng(4)
        calls = []
        if kind == "radar":
            family = radar_family(circular_geometry(rng, num_pairs=3))
        else:
            F0 = random_full_rank(rng, 2, 3)
            family = CallableFrameFamily((2, 3, 2), lambda x: calls.append(x) or F0)
        grid = GridSpec(np.zeros(len(counts)), np.ones(len(counts)), counts)
        with pytest.raises(DimensionMismatchError, match="parameter points"):
            grid_search(family, np.ones(3), grid)
        with pytest.raises(DimensionMismatchError, match="parameter points"):
            localize(family, np.ones(3), SolverConfig(grid=grid))
        assert calls == []

    def test_first_argmin_on_ties(self):
        rng = np.random.default_rng(0)
        family = ConstantFrameFamily(random_full_rank(rng, 2, 4), P=2)
        grid = GridSpec([-1.0, -1.0], [1.0, 1.0], [3, 3])
        w = rng.normal(size=4)
        assert np.array_equal(grid_search(family, w, grid), [-1.0, -1.0])


class TestGridSweep:
    def test_matches_per_point_reference_across_domain_edge(self):
        family, w, grid = station_node_scene()
        reference = []
        for x in grid.points():
            try:
                reference.append(error_value(family, x, w))
            except FramefitError:
                reference.append(np.nan)
        points, errors = grid_sweep(family, w, grid)
        assert np.array_equal(points, list(grid.points()))
        assert np.array_equal(errors, reference, equal_nan=True)
        assert np.count_nonzero(np.isnan(errors)) == 4


def line_family(bad, end=0.5):
    """1-D family F(x) = [1, x] for x <= ``end`` whose second entry is ``bad``
    (NaN or an infinity) beyond, so F(x) is no frame there."""

    def f(x):
        return np.array([[1.0, x[0] if x[0] <= end else bad]])

    return CallableFrameFamily(
        (1, 2, 1),
        f,
        lambda x: np.array([[[0.0, 1.0]]]),
        lambda x: np.zeros((1, 1, 1, 2)),
    )


def translated_scene(seed, shift):
    """noiseless_scene(seed) and the 21 x 21 grid on [-10, 10]^2, both moved
    by shift, which changes no frame and so not w: (family, truth, w, grid)."""
    geometry, _, truth, w = noiseless_scene(seed)
    shift = np.asarray(shift)
    family = radar_family(RadarGeometry(geometry.transmitters + shift,
                                        geometry.receivers + shift))
    grid = GridSpec(shift - 10.0, shift + 10.0, [21, 21])
    return family, truth.position + shift, w, grid


def stacked_sweep(family, w, grid):
    """``grid_sweep`` as one ``core.error_values`` call, which
    tests/test_core.py holds bitwise to the per-point sweep."""
    points = family.check_points(grid.points())
    errors = error_values(family, points, family.check_measurement(w))
    in_domain_count(errors)
    return points, errors


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
class TestNonFiniteFrame:
    """A frame with a NaN or inf entry lies outside the domain everywhere."""

    grid = GridSpec([-1.0], [1.0], [11])    # 0.6, 0.8 and 1.0 are outside
    w = np.array([1.0, -0.35])               # E = 0 at x = -0.35

    def test_contains_is_false_exactly_where_error_value_raises(self, bad):
        family = line_family(bad)
        for x in self.grid.points():
            try:
                error_value(family, x, self.w)
                raised = False
            except RankDeficientError:
                raised = True
            assert raised == (x[0] > 0.5)
            assert family.contains(x) == (not raised)

    def test_grid_search_level_set_and_localize_skip_those_points(self, bad):
        family = line_family(bad)
        points, errors = grid_sweep(family, self.w, self.grid)
        assert np.array_equal(np.isnan(errors), points[:, 0] > 0.5)
        assert np.isclose(grid_search(family, self.w, self.grid)[0], -0.4)
        report = level_set(family, self.w, self.grid, float(self.w @ self.w))
        assert np.array_equal(report.points, points[:8])
        assert report.fraction == 1.0
        result = localize(family, self.w, SolverConfig(grid=self.grid))
        assert abs(result.minimizer[0] + 0.35) <= 1e-10


class TestNewtonStep:
    def test_quadratic_error_solved_in_one_step(self):
        c = 0.37
        family = arc_family(center=c)
        w = np.array([1.0, 0.0])
        x = np.array([c + 0.5])
        x1 = newton_step(family, w, x, *error_gradient_hessian(family, x, w))
        assert abs(x1[0] - c) < 1e-12

    def test_zero_gradient_fixed_point(self):
        family = arc_family(center=0.0)
        w = np.array([1.0, 0.0])
        x = np.array([0.0])
        x1 = newton_step(family, w, x, *error_gradient_hessian(family, x, w))
        assert np.allclose(x1, [0.0])

    def test_contracts_near_minimum(self):
        _, family, truth, w = noiseless_scene(3)
        x = truth.position + np.array([0.05, -0.04])
        x1 = newton_step(family, w, x, *error_gradient_hessian(family, x, w))
        assert np.linalg.norm(x1 - truth.position) < np.linalg.norm(x - truth.position)

    def test_returns_x_k_when_no_step_lowers_E(self):
        # E >= 0 everywhere, so no candidate lowers an E_k of -1 and every
        # one stays inside: x_k comes back, not the last candidate
        family = arc_family(center=0.37)
        w = np.array([1.0, 0.0])
        x = np.array([0.87])
        _, g, H = error_gradient_hessian(family, x, w)
        assert np.array_equal(newton_step(family, w, x, -1.0, g, H), x)

    def test_monotone_under_backtracking(self):
        _, family, truth, w = noiseless_scene(4)
        x = truth.position + np.array([2.0, -1.5])
        E0 = error_value(family, x, w)
        x1 = newton_step(family, w, x, *error_gradient_hessian(family, x, w))
        assert error_value(family, x1, w) <= E0


class TestShiftSearch:
    """The shifted Newton solve tries a fixed number of shifts and then raises,
    whatever the size of g and H: a shift compared with MAX_SHIFT_FACTOR |H|
    never passes it when |H| is inf or NaN."""

    def test_shift_count_matches_max_shift_factor(self):
        # the last shift tried, 1e-12 |H| 2^(SHIFT_DOUBLINGS - 1), is within the
        # bound and one more doubling would not be
        assert 1e-12 * 2.0 ** (SHIFT_DOUBLINGS - 1) <= MAX_SHIFT_FACTOR
        assert 1e-12 * 2.0**SHIFT_DOUBLINGS > MAX_SHIFT_FACTOR

    @pytest.mark.parametrize(
        "g, H",
        [
            ([1.0, 0.0], [[np.inf, 0.0], [0.0, 1.0]]),
            ([1.0, 0.0], [[np.nan, 0.0], [0.0, 1.0]]),
            ([np.inf, 0.0], [[1.0, 0.0], [0.0, 1.0]]),
            ([np.nan, 0.0], [[1.0, 0.0], [0.0, 1.0]]),
        ],
        ids=["H_inf", "H_nan", "g_inf", "g_nan"],
    )
    def test_non_finite_system_raises(self, g, H):
        with time_limit(10.0), pytest.raises(SingularHessianError, match="non-finite"):
            _shifted_newton_direction(np.array(g), np.array(H))

    def test_hessian_whose_norm_overflows(self):
        H = np.diag([1e200, -1e200])  # finite entries, |H| = inf
        with time_limit(10.0), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            d = _shifted_newton_direction(np.array([1.0, 0.0]), H)
            assert np.array_equal(d, [1e-200, 0.0])
            # a descent direction needs a shift: the capped scale keeps it finite
            d = _shifted_newton_direction(np.array([0.0, 1.0]), H)
            assert d[0] == 0.0 and 0.0 < d[1] < np.inf
            # it would need a shift beyond the largest float
            with pytest.raises(SingularHessianError, match="unsolvable"):
                _shifted_newton_direction(np.array([0.0, 1.0]),
                                          np.diag([1.7e308, -1.7e308]))

    def test_localize_with_huge_measurement(self):
        _, family, truth, w = noiseless_scene(0)
        cfg = SolverConfig(grid=GridSpec([-10.0, -10.0], [10.0, 10.0], [5, 5]))
        with time_limit(30.0), np.errstate(all="ignore"):
            # E, g and H are finite but |H| overflows
            result = localize(family, 1e100 * w, cfg)
            assert np.linalg.norm(result.minimizer - truth.position) <= 1e-6
        # |w|^2 overflows: the measurement check rejects w before any numpy work
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ScenarioValidationError, match=r"\|w\|\^2 overflows"):
                localize(family, 1e200 * w, cfg)


class TestLocalize:
    grid = GridSpec([-10.0, -10.0], [10.0, 10.0], [21, 21])

    def test_noiseless_recovery(self):
        _, family, truth, w = noiseless_scene(5)
        result = localize(family, w, SolverConfig(grid=self.grid, max_iters=30))
        assert np.linalg.norm(result.minimizer - truth.position) <= 1e-6
        assert result.value <= 1e-12

    def test_monotone_trace(self):
        _, family, _, w = noiseless_scene(6)
        result = localize(family, w, SolverConfig(grid=self.grid, max_iters=30))
        energies = [E for _, E, _ in result.iterates]
        assert all(b <= a + 1e-18 for a, b in zip(energies, energies[1:]))

    def test_gradient_converged_status_is_stationary(self):
        _, family, _, w = noiseless_scene(7)
        result = localize(family, w, SolverConfig(grid=self.grid, max_iters=50))
        assert result.status is SolveStatus.GRADIENT_CONVERGED
        x, _, grad_norm = result.iterates[-1]
        _, _, H = error_gradient_hessian(family, x, w)
        assert grad_norm <= GRAD_RTOL * _lengths(w) * np.sqrt(_lengths(_lengths(H)))

    def test_starts_at_zero_when_grid_hits_it(self):
        geom, family, truth, _ = noiseless_scene(8)
        x_g = np.round(truth.position)
        w = simulate_fdoa(geom, TargetState(x_g, truth.velocity), NoiseModel(0.0, 0))
        result = localize(family, w, SolverConfig(grid=self.grid))
        assert result.status is SolveStatus.GRADIENT_CONVERGED
        assert len(result.iterates) <= 3
        assert np.linalg.norm(result.minimizer - x_g) <= 1e-9

    def test_value_matches_error_at_minimizer(self):
        _, family, _, w = noiseless_scene(9)
        result = localize(family, w, SolverConfig(grid=self.grid))
        assert np.isclose(result.value, error_value(family, result.minimizer, w), atol=1e-12)

    def test_one_error_gradient_hessian_per_iterate(self, monkeypatch):
        import framefit.solver

        calls = []
        original = framefit.solver.error_gradient_hessian

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(framefit.solver, "error_gradient_hessian", counted)
        _, family, _, w = noiseless_scene(5)
        result = localize(family, w, SolverConfig(grid=self.grid, max_iters=30))
        assert len(result.iterates) > 2
        assert len(calls) == len(result.iterates)

    def test_max_iters_status(self):
        _, family, _, w = noiseless_scene(5)
        result = localize(family, w, SolverConfig(grid=self.grid, max_iters=1))
        assert result.status is SolveStatus.MAX_ITERS
        assert len(result.iterates) == 2

    def test_step_converged_status(self):
        # 1e4 from the origin, a step shorter than STEP_TOL |x| ends the run
        family, truth, w, grid = translated_scene(0, [1e4, 0.0])
        result = localize(family, w, SolverConfig(grid=grid, max_iters=30))
        assert result.status is SolveStatus.STEP_CONVERGED
        assert len(result.iterates) == 4
        (x_prev, _, _), (x, _, _) = result.iterates[-2:]
        # the run ends on the short step, not on a line search with no decrease
        assert 0.0 < np.linalg.norm(x - x_prev) < STEP_TOL * np.linalg.norm(x)
        assert np.linalg.norm(result.minimizer - truth) <= 1e-13

    @pytest.mark.parametrize("seed, scale, minimizer", [
        (172, 1e3, [100000006.45581576, 100000001.13178273]),
        (77, 1e6, [100000000.2396385, 99999994.7856627]),
        (19, 1.0, [100000006.63280518, 99999996.411605]),
    ])
    def test_stops_when_the_line_search_finds_no_decrease(
        self, monkeypatch, seed, scale, minimizer
    ):
        # a noisy scene translated by (1e8, 1e8), with w scaled by scale,
        # which the stopping rules do not see: every backtracked candidate
        # raises E until a halving rounds back to x_k itself, and that
        # iterate is already recorded
        import framefit.solver

        steps = []
        original = framefit.solver.newton_step

        def recorded(family, w, x_k, *args):
            steps.append((np.array(x_k, dtype=float), original(family, w, x_k, *args)))
            return steps[-1][1]

        monkeypatch.setattr(framefit.solver, "newton_step", recorded)
        family, _, w, grid = translated_scene(seed, [1e8, 1e8])
        w = w + 0.05 * np.random.default_rng(seed).normal(size=4)
        result = localize(family, scale * w, SolverConfig(grid=grid, max_iters=30))
        # the run ends on this path, not on the STEP_TOL test of a short step
        x_k, x_next = steps[-1]
        assert np.array_equal(x_next, x_k)
        assert np.array_equal(x_k, result.minimizer)
        assert result.status is SolveStatus.STEP_CONVERGED
        # a few ulps at 1e8
        assert np.allclose(result.minimizer, minimizer, rtol=0.0, atol=1e-7)
        assert len(result.iterates) == 3
        xs = [x for x, _, _ in result.iterates]
        assert not any(np.array_equal(a, b) for a, b in zip(xs, xs[1:]))
        assert result.value == result.iterates[-1][1]

    def test_left_domain_status(self):
        # E = (x + 0.35)^2 / (1 + x^2); the domain ends 1e-9 past the best
        # grid node, -0.6, on the minimum's side, so every backtracked
        # Newton candidate is NaN
        family = line_family(np.nan, end=-0.6 + 1e-9)
        grid = GridSpec([-1.0], [1.0], [11])
        result = localize(family, [1.0, -0.35], SolverConfig(grid=grid))
        assert result.status is SolveStatus.LEFT_DOMAIN
        assert np.array_equal(result.minimizer, grid.points()[2])
        assert len(result.iterates) == 1

    def test_left_region_status(self):
        # seed 9 with a sigma-1 noise draw: from the best grid node (-10, 8)
        # the first Newton step lands at about (-4568, 1989), outside the
        # region [-20, 20]^2; unchecked, Newton ran on to (-5.9e9, 2.6e9)
        _, family, _, w = noiseless_scene(9)
        w = w + np.random.default_rng(1009).standard_normal((100, 4))[66]
        assert self.grid.region()[0].tolist() == [-20.0, -20.0]
        assert self.grid.region()[1].tolist() == [20.0, 20.0]
        result = localize(family, w, SolverConfig(grid=self.grid))
        assert result.status is SolveStatus.LEFT_REGION
        assert result.minimizer.tolist() == [-10.0, 8.0]
        assert result.value == 5.8922053999747765
        assert len(result.iterates) == 1

    def test_noise_error_trend(self):
        # median localization error should shrink with the noise level
        medians = []
        for sigma in (0.1, 0.001):
            errors = []
            for seed in range(20):
                geom, family, truth, _ = noiseless_scene(seed)
                w = simulate_fdoa(geom, truth, NoiseModel(sigma, seed + 1))
                result = localize(family, w, SolverConfig(grid=self.grid, max_iters=30))
                errors.append(np.linalg.norm(result.minimizer - truth.position))
            medians.append(np.median(errors))
        assert np.isfinite(medians[0])
        assert medians[1] < medians[0]


class TestUnitFreeStopping:
    """Newton's stopping rules carry no units: on criterion 5's seeds, the
    answer does not move with the scale of w and scales with every length."""

    grid = GridSpec([-10.0, -10.0], [10.0, 10.0], [21, 21])

    def run(self, transmitters, receivers, w, scale=1.0):
        grid = GridSpec(scale * self.grid.lower, scale * self.grid.upper,
                        self.grid.counts)
        result = localize(radar_family(RadarGeometry(transmitters, receivers)), w,
                          SolverConfig(grid=grid, max_iters=30))
        return result.minimizer, result.status

    def test_answers_follow_the_units_and_the_scene(self, monkeypatch):
        import framefit.solver

        # 14 runs of 100 scenes: the stacked grid keeps them to about 1.5 s
        monkeypatch.setattr(framefit.solver, "grid_sweep", stacked_sweep)
        quarter_turn = np.array([[0.0, -1.0], [1.0, 0.0]])
        reflection = np.diag([1.0, -1.0])
        order = [2, 0, 3, 1]
        failures = []
        for seed in range(100):
            geometry, _, _, w = noiseless_scene(seed)
            tx, rx = geometry.transmitters, geometry.receivers
            x, status = self.run(tx, rx, w)
            # a power of two scales every value exactly: the same bits
            for k in (20, -20):
                x_k, status_k = self.run(tx, rx, 2.0**k * w)
                if not (np.array_equal(x_k, x) and status_k is status):
                    failures.append((seed, f"w x 2^{k}"))
            for k in (10, 340, -30):
                s = 2.0**k
                x_k, status_k = self.run(s * tx, s * rx, w, s)
                if not (np.array_equal(x_k, s * x) and status_k is status):
                    failures.append((seed, f"lengths x 2^{k}"))
            # any other scale, and a rigid motion of the scene (the grid maps
            # onto itself), moves the answer by rounding only
            moved = {
                "w x 1e6": (self.run(tx, rx, 1e6 * w)[0], x),
                "w x 1e-6": (self.run(tx, rx, 1e-6 * w)[0], x),
                "lengths x 1e3": (self.run(1e3 * tx, 1e3 * rx, w, 1e3)[0], 1e3 * x),
                "lengths x 1e-3": (self.run(1e-3 * tx, 1e-3 * rx, w, 1e-3)[0], 1e-3 * x),
                "quarter turn": (self.run(tx @ quarter_turn.T, rx @ quarter_turn.T, w)[0],
                                 quarter_turn @ x),
                "reflection": (self.run(tx @ reflection, rx @ reflection, w)[0],
                               reflection @ x),
                "pair order": (self.run(tx[order], rx[order], w[order])[0], x),
                "transmitters and receivers swapped": (self.run(rx, tx, w)[0], x),
            }
            failures += [(seed, name) for name, (got, want) in moved.items()
                         if not np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)]
        assert not failures


class TestSolverConfigValidation:
    grid = GridSpec([-1.0], [1.0], [3])

    @pytest.mark.parametrize("max_iters", [2.5, 3.0, True, False, "3", None],
                             ids=["fraction", "integral_float", "true", "false", "str", "none"])
    def test_max_iters_must_be_an_integer(self, max_iters):
        # localize counts iterations with range(); a bool is no count
        with pytest.raises(ValueError, match="integer"):
            SolverConfig(self.grid, max_iters=max_iters)

    @pytest.mark.parametrize("max_iters", [0, -1, np.int64(0)])
    def test_max_iters_must_be_positive(self, max_iters):
        with pytest.raises(ValueError, match="positive"):
            SolverConfig(self.grid, max_iters=max_iters)

    def test_numpy_integer_max_iters(self):
        _, family, _, w = noiseless_scene(0)
        grid = GridSpec([-10.0, -10.0], [10.0, 10.0], [5, 5])
        result = localize(family, w, SolverConfig(grid=grid, max_iters=np.int64(30)))
        assert result == localize(family, w, SolverConfig(grid=grid, max_iters=30))
