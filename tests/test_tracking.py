import numpy as np
import pytest

from framefit import (
    ConstantFrameFamily,
    GridSpec,
    TimeSeries,
    Trajectory,
    el_acceleration,
    el_residual,
    functional_value,
    integrate_trajectory,
    shooting_search,
)
from framefit.errors import (
    AllCandidatesFailedError,
    DimensionMismatchError,
    LeftDomainError,
    ScenarioValidationError,
)
from framefit.radar import RadarGeometry
from framefit import radar_family
from framefit.tracking import load_time_series, sampled_derivative, write_trajectory_csv

from conftest import circular_geometry, random_full_rank


def radar_scene(seed=0, num_pairs=4, radius=40.0):
    rng = np.random.default_rng(seed)
    return radar_family(circular_geometry(rng, num_pairs, radius))


def sample_radar_data(family, times, pos_fn, vel_fn):
    pos = np.array([pos_fn(t) for t in times])
    vel = np.array([vel_fn(t) for t in times])
    vals = np.array([family.jet(p, 0).F.T @ v for p, v in zip(pos, vel)])
    return TimeSeries(times, vals), pos, vel


class TestTimeSeries:
    def test_needs_three_samples(self):
        with pytest.raises(ScenarioValidationError):
            TimeSeries([0.0, 1.0], [[0.0], [0.0]])

    def test_rejects_nonuniform_grid(self):
        with pytest.raises(ScenarioValidationError):
            TimeSeries([0.0, 1.0, 2.5], [[0.0], [0.0], [0.0]])

    @pytest.mark.parametrize(
        "times, values, what",
        [
            ([0.0, np.nan, 2.0], [[0.0], [0.0], [0.0]], "times"),
            ([0.0, 1.0, np.inf], [[0.0], [0.0], [0.0]], "times"),
            ([0.0, 1.0, 2.0], [[0.0], [np.nan], [0.0]], "values"),
            ([0.0, 1.0, 2.0], [[0.0], [0.0], [-np.inf]], "values"),
        ],
    )
    def test_rejects_non_finite(self, times, values, what):
        with pytest.raises(ScenarioValidationError, match=f"non-finite {what}"):
            TimeSeries(times, values)

    def test_rejects_values_of_more_than_two_axes(self):
        # a (K, N, 1) array has N in its second axis but is no K x N table
        with pytest.raises(ScenarioValidationError, match="K x N"):
            TimeSeries([0.0, 1.0, 2.0], np.zeros((3, 4, 1)))

    def test_sampled_derivative_exact_for_quadratics(self):
        t = np.linspace(0.0, 1.0, 11)
        vals = (3.0 + 2.0 * t - 5.0 * t**2)[:, None]
        d = sampled_derivative(vals, t[1] - t[0])
        assert np.allclose(d[:, 0], 2.0 - 10.0 * t, atol=1e-10)


class TestFunctionalValue:
    def test_zero_on_consistent_trajectory(self):
        family = radar_scene(0)
        times = np.linspace(0.0, 1.0, 11)
        x0, v0 = np.array([1.0, -2.0]), np.array([2.0, 1.0])
        data, pos, vel = sample_radar_data(
            family, times, lambda t: x0 + t * v0, lambda t: v0
        )
        traj = Trajectory(times, pos, vel)
        assert functional_value(family, traj, data) <= 1e-20

    def test_zero_for_stationary_zero_data(self):
        family = ConstantFrameFamily(np.array([[1.0, 0.0], [0.0, 1.0]]), P=2)
        times = np.linspace(0.0, 1.0, 5)
        traj = Trajectory(times, np.zeros((5, 2)), np.zeros((5, 2)))
        data = TimeSeries(times, np.zeros((5, 2)))
        assert functional_value(family, traj, data) == 0.0

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        family = radar_scene(1)
        times = np.linspace(0.0, 1.0, 9)
        traj = Trajectory(
            times, rng.normal(size=(9, 2)), rng.normal(size=(9, 2))
        )
        data = TimeSeries(times, rng.normal(size=(9, 4)))
        assert functional_value(family, traj, data) >= 0.0


class TestElAcceleration:
    def test_constant_family_coasting(self):
        rng = np.random.default_rng(2)
        family = ConstantFrameFamily(random_full_rank(rng, 2, 4), P=2)
        a = el_acceleration(family, [0.0, 0.0], [1.0, 2.0], np.zeros(4))
        assert np.allclose(a, 0.0)

    def test_zero_velocity_reduces_to_dual_applied_rate(self):
        rng = np.random.default_rng(3)
        family = radar_scene(3)
        x = np.array([1.0, 2.0])
        wdot = rng.normal(size=4)
        a = el_acceleration(family, x, np.zeros(2), wdot)
        from framefit import dual_synthesis

        G = dual_synthesis(family.jet(x, order=0).F)
        assert np.allclose(a, G.T @ wdot)

    def test_recovers_true_acceleration(self):
        family = radar_scene(4)
        x0, v0, a0 = np.array([1.0, -2.0]), np.array([3.0, 2.0]), np.array([-1.0, 0.5])
        times = np.linspace(0.0, 1.0, 201)
        data, pos, vel = sample_radar_data(
            family,
            times,
            lambda t: x0 + t * v0 + 0.5 * t * t * a0,
            lambda t: v0 + t * a0,
        )
        wdot = sampled_derivative(data.values, data.dt)
        k = 100
        a = el_acceleration(family, pos[k], vel[k], wdot[k])
        assert np.linalg.norm(a - a0) <= 1e-3  # limited by sampled wdot accuracy


class TestIntegrateTrajectory:
    def test_constant_family_straight_line(self):
        rng = np.random.default_rng(5)
        family = ConstantFrameFamily(random_full_rank(rng, 2, 4), P=2)
        times = np.linspace(0.0, 1.0, 11)
        data = TimeSeries(times, np.tile(rng.normal(size=4), (11, 1)))
        x0, v0 = np.array([1.0, 2.0]), np.array([0.5, -0.3])
        traj = integrate_trajectory(family, x0, v0, data)
        expected = x0[None, :] + times[:, None] * v0[None, :]
        assert np.allclose(traj.positions, expected, atol=1e-12)
        assert np.allclose(traj.velocities, v0, atol=1e-12)

    def test_tracks_noiseless_truth(self):
        family = radar_scene(6)
        x0, v0 = np.array([1.0, -2.0]), np.array([3.0, 2.0])
        times = np.linspace(0.0, 1.0, 1001)
        data, pos, _ = sample_radar_data(
            family, times, lambda t: x0 + t * v0, lambda t: v0
        )
        traj = integrate_trajectory(family, x0, v0, data)
        assert np.linalg.norm(traj.positions[-1] - pos[-1]) <= 1e-6

    def test_left_domain_returns_partial(self):
        family = radar_scene(7, num_pairs=1)  # one pair: never a frame in 2-D
        times = np.linspace(0.0, 1.0, 5)
        data = TimeSeries(times, np.zeros((5, 1)))
        with pytest.raises(LeftDomainError) as excinfo:
            integrate_trajectory(family, [1.0, 1.0], [0.0, 0.0], data)
        assert excinfo.value.partial is not None
        assert excinfo.value.partial.positions.shape[0] >= 1


class TestElResidual:
    def test_constant_family_linear_trajectory_zero_interior(self):
        rng = np.random.default_rng(8)
        family = ConstantFrameFamily(random_full_rank(rng, 2, 4), P=2)
        times = np.linspace(0.0, 1.0, 9)
        x0, v0 = np.zeros(2), np.array([1.0, 0.5])
        pos = x0[None, :] + times[:, None] * v0[None, :]
        vel = np.tile(v0, (9, 1))
        w_const = family.jet(x0, order=0).F.T @ v0
        data = TimeSeries(times, np.tile(w_const, (9, 1)))
        res = el_residual(family, Trajectory(times, pos, vel), data)
        assert np.allclose(res, 0.0, atol=1e-13)

    def test_second_order_decay_under_refinement(self):
        family = radar_scene(9)
        x0, v0, a0 = np.array([1.0, -2.0]), np.array([3.0, 2.0]), np.array([-1.0, 0.5])
        maxres = []
        for K in (26, 51, 101):
            times = np.linspace(0.0, 1.0, K)
            data, _, _ = sample_radar_data(
                family,
                times,
                lambda t: x0 + t * v0 + 0.5 * t * t * a0,
                lambda t: v0 + t * a0,
            )
            traj = integrate_trajectory(family, x0, v0, data)
            maxres.append(np.abs(el_residual(family, traj, data)).max())
        orders = np.log2(np.array(maxres[:-1]) / np.array(maxres[1:]))
        assert np.all(orders > 1.7) and np.all(orders < 2.3)


    def test_builds_one_jet_per_sample(self, monkeypatch):
        family = radar_scene(9)
        x0, v0 = np.array([1.0, -2.0]), np.array([3.0, 2.0])
        times = np.linspace(0.0, 1.0, 11)
        data, pos, vel = sample_radar_data(
            family, times, lambda t: x0 + t * v0, lambda t: v0
        )
        calls = []
        original = family.jet

        def counted(x, order=2):
            calls.append(order)
            return original(x, order)

        monkeypatch.setattr(family, "jet", counted)
        el_residual(family, Trajectory(times, pos, vel), data)
        assert len(calls) == len(times)


class TestSeriesWidth:
    """A series needs one column per frame element."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda f, d, tr: integrate_trajectory(
                f, tr.positions[0], tr.velocities[0], d
            ),
            lambda f, d, tr: functional_value(f, tr, d),
            lambda f, d, tr: el_residual(f, tr, d),
            lambda f, d, tr: shooting_search(
                f, d, GridSpec([1.0, -2.0], [2.0, -1.0], [1, 1]),
                GridSpec([3.0, 2.0], [4.0, 3.0], [1, 1]),
            ),
        ],
        ids=[
            "integrate_trajectory",
            "functional_value",
            "el_residual",
            "shooting_search",
        ],
    )
    def test_wrong_width_rejected(self, call):
        family = radar_scene(10)
        x0, v0 = np.array([1.0, -2.0]), np.array([3.0, 2.0])
        times = np.linspace(0.0, 1.0, 11)
        data, pos, vel = sample_radar_data(
            family, times, lambda t: x0 + t * v0, lambda t: v0
        )
        wide = TimeSeries(times, np.hstack([data.values, data.values[:, :1]]))
        with pytest.raises(DimensionMismatchError):
            call(family, wide, Trajectory(times, pos, vel))


class TestShootingSearch:
    def test_single_candidate(self):
        family = radar_scene(10)
        x0, v0 = np.array([1.0, -2.0]), np.array([3.0, 2.0])
        times = np.linspace(0.0, 1.0, 21)
        data, _, _ = sample_radar_data(
            family, times, lambda t: x0 + t * v0, lambda t: v0
        )
        pg = GridSpec(x0 - 0.5, x0 + 0.5, [1, 1])
        vg = GridSpec(v0 - 0.5, v0 + 0.5, [1, 1])
        best, value, trace = shooting_search(family, data, pg, vg)
        assert len(trace) == 1
        assert np.allclose(best.positions[0], x0 - 0.5)

    def test_truth_on_grid_wins(self):
        family = radar_scene(11)
        x0, v0 = np.array([1.0, 0.5]), np.array([2.0, -1.0])
        times = np.linspace(0.0, 1.0, 101)
        data, pos, _ = sample_radar_data(
            family, times, lambda t: x0 + t * v0, lambda t: v0
        )
        pg = GridSpec(x0 - 1.0, x0 + 1.0, [3, 3])
        vg = GridSpec(v0 - 1.0, v0 + 1.0, [3, 3])
        best, value, trace = shooting_search(family, data, pg, vg)
        assert value <= 1e-8
        assert np.linalg.norm(best.positions[0] - x0) <= 1e-12
        assert all(value <= v for _, _, v in trace)

    def test_all_failures_raise(self):
        family = radar_scene(12, num_pairs=1)
        times = np.linspace(0.0, 1.0, 5)
        data = TimeSeries(times, np.zeros((5, 1)))
        pg = GridSpec([0.0, 0.0], [1.0, 1.0], [2, 2])
        vg = GridSpec([0.0, 0.0], [1.0, 1.0], [1, 1])
        with pytest.raises(AllCandidatesFailedError):
            shooting_search(family, data, pg, vg)


class TestTimeSeriesIO:
    def test_round_trip(self, tmp_path):
        import json

        path = tmp_path / "series.json"
        payload = {"times": [0.0, 0.1, 0.2], "w": [[1.0, 2.0]] * 3}
        path.write_text(json.dumps(payload))
        data = load_time_series(path)
        assert data.num_samples == 3
        assert np.allclose(data.values, [[1.0, 2.0]] * 3)

    def test_trajectory_csv(self, tmp_path):
        times = np.linspace(0.0, 1.0, 3)
        traj = Trajectory(times, np.zeros((3, 2)), np.ones((3, 2)))
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,x_1,x_2,v_1,v_2"
        assert len(lines) == 4
