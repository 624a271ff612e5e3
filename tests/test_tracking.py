import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framefit import (
    CallableFrameFamily,
    ConstantFrameFamily,
    GridSpec,
    LinearFrameFamily,
    RadarGeometry,
    TimeSeries,
    Trajectory,
    dual_synthesis,
    el_acceleration,
    el_residual,
    functional_value,
    integrate_trajectory,
    shooting_search,
)
from framefit import core, tracking
from framefit.core import check_vector
from framefit.errors import (
    AllCandidatesFailedError,
    DimensionMismatchError,
    FramefitError,
    LeftDomainError,
    NearSingularError,
    RankDeficientError,
    ScenarioValidationError,
)
from framefit.cli import _names, _write_csv
from framefit import radar_family
from framefit.tracking import load_time_series

from conftest import (
    arc_family,
    circular_geometry,
    random_full_rank,
    random_quadratic_family,
    reference_acceleration,
    reference_integrate,
)


def radar_scene(seed=0, num_pairs=4, radius=40.0):
    rng = np.random.default_rng(seed)
    return radar_family(circular_geometry(rng, num_pairs, radius))


def criterion_10_scene(num_samples):
    """The scene of acceptance criterion 10 sampled at ``num_samples`` times:
    family, data, and every candidate (x0, v0) of its 3x3 position by 3x3
    velocity grid in ``shooting_search``'s order."""
    family = radar_family(RadarGeometry(
        [[30.0, 0.0], [0.0, 30.0]], [[-30.0, 10.0], [10.0, -30.0]]
    ))
    x0, v0 = np.array([1.0, 0.5]), np.array([2.0, -1.0])
    times = np.linspace(0.0, 1.0, num_samples)
    data = TimeSeries(times, [family.frame(x0 + t * v0).T @ v0 for t in times])
    grids = GridSpec(x0 - 1.0, x0 + 1.0, [3, 3]), GridSpec(v0 - 1.0, v0 + 1.0, [3, 3])
    candidates = [(x, v) for x in grids[0].points() for v in grids[1].points()]
    return family, data, grids, candidates


def run_candidate(integrate, family, x0, v0, data, **kwargs):
    """(trajectory, None) when the candidate finishes, (partial, step) when it
    leaves the domain; the step is read from the partial's length."""
    try:
        return integrate(family, x0, v0, data, **kwargs), None
    except LeftDomainError as exc:
        return exc.partial, len(exc.partial.times) - 1


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
        # a step off by 1e-3 is no rounding, however large the times
        for offset in (0.0, 1.7e9):
            times = offset + 0.1 * np.arange(5)
            times[-1] += 1e-3
            with pytest.raises(ScenarioValidationError, match="time grid must be uniform"):
                TimeSeries(times, np.ones((5, 3)))

    @pytest.mark.parametrize("error, uniform", [(2e-13, False), (2e-15, True)])
    def test_uniformity_verdict_is_the_same_in_every_time_unit(self, error, uniform):
        # the slack is relative to the step: a step 0.1 s long that is off by
        # 2e-13 s is off by 2e-12 of itself in s, ms and us alike
        times = np.array([0.0, 0.1, 0.2 + error])
        for unit in (1.0, 1e3, 1e6):
            if uniform:
                assert TimeSeries(unit * times, np.ones((3, 2))).dt == unit * 0.1
            else:
                with pytest.raises(ScenarioValidationError, match="time grid must be uniform"):
                    TimeSeries(unit * times, np.ones((3, 2)))

    def test_accepts_uniform_grid_at_epoch_times(self):
        # np.diff of 1.7e9 + 0.1 k is off from 0.1 by up to 1.4e-7: rounding of t
        times = 1.7e9 + 0.1 * np.arange(201)
        series = TimeSeries(times, np.ones((201, 3)))
        assert series.dt == times[1] - times[0]
        assert np.array_equal(series.rates, np.zeros((201, 3)))

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

    @pytest.mark.parametrize("times", [[0.0, 1.0, 1.0], [2.0, 1.0, 0.0]],
                             ids=["repeated", "decreasing"])
    def test_rejects_times_that_do_not_increase(self, times):
        with pytest.raises(ScenarioValidationError, match="strictly increasing"):
            TimeSeries(times, [[0.0], [0.0], [0.0]])

    def test_rejects_values_of_more_than_two_axes(self):
        # a (K, N, 1) array has N in its second axis but is no K x N table
        with pytest.raises(ScenarioValidationError, match="K x N"):
            TimeSeries([0.0, 1.0, 2.0], np.zeros((3, 4, 1)))

    def test_sampled_derivative_exact_for_quadratics(self):
        t = np.linspace(0.0, 1.0, 11)
        vals = (3.0 + 2.0 * t - 5.0 * t**2)[:, None]
        d = TimeSeries(t, vals).rates
        assert np.allclose(d[:, 0], 2.0 - 10.0 * t, atol=1e-10)

    def test_rates_are_the_sampled_derivative(self):
        t = np.linspace(0.0, 0.3, 7)
        vals = np.c_[np.sin(t), t**3, np.exp(t)]
        data = TimeSeries(t, vals)
        assert np.array_equal(data.rates, np.gradient(vals, data.dt, axis=0, edge_order=2))
        assert "rates" not in repr(data)


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

    def test_trajectory_on_another_grid_raises(self):
        family = radar_scene(1)
        data = TimeSeries(np.linspace(0.0, 1.0, 9), np.ones((9, 4)))
        # another sample count, and the data's count on times shifted by 5
        for times in (np.linspace(0.0, 1.0, 5), data.times + 5.0):
            traj = Trajectory(times, np.ones((len(times), 2)), np.ones((len(times), 2)))
            for evaluate in (functional_value, el_residual):
                with pytest.raises(DimensionMismatchError, match="grids differ"):
                    evaluate(family, traj, data)

    @pytest.mark.parametrize(
        "positions, velocities",
        [(np.ones((5, 2)), np.ones((5, 3))), (np.ones((4, 2)), np.ones((4, 2)))],
        ids=["velocity_width", "sample_count"],
    )
    def test_incongruent_trajectory_rejected(self, positions, velocities):
        with pytest.raises(DimensionMismatchError, match="not congruent"):
            Trajectory(np.linspace(0.0, 1.0, 5), positions, velocities)


class TestElAcceleration:
    def test_overflowing_acceleration_raises(self):
        # |v|^2 / r overflows: the error, with no numpy warning first
        family = radar_scene(13, num_pairs=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(LeftDomainError, match="not finite"):
                el_acceleration(family, [1.0, 0.5], [1e300, 1e300], np.zeros(3))

    @pytest.mark.parametrize(
        "x, v, wdot",
        [# kappa is finite, about 2e294, but wdot - kappa rounds to -inf
         ([1.0, 0.5], [1e148, 0.0], np.full(3, -np.finfo(float).max)),
         # M = 3: numpy's formulas and the SVD dual
         ([1.0, 0.5, -2.0], [1e300, -1e300, 1e300], np.zeros(3))],
        ids=["inf_wdot_minus_kappa", "3d_huge_v"],
    )
    def test_overflowing_stage_raises(self, x, v, wdot):
        # wdot - kappa, or a 3-D |v|^2 / r, overflows: the error, with no
        # numpy warning first
        family = radar_scene(13, num_pairs=3)
        if len(x) == 3:
            rng = np.random.default_rng(13)
            family = radar_family(RadarGeometry(rng.uniform(-40.0, 40.0, size=(3, 3)),
                                                rng.uniform(-40.0, 40.0, size=(3, 3))))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(LeftDomainError, match="not finite"):
                el_acceleration(family, x, v, wdot)

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

    def test_svd_calls(self, monkeypatch):
        """``np.linalg.svd`` calls per call: none where the M = 2 Gram kernel
        decides (a well-conditioned 2-D radar point), one where it does not
        (stations within 2e-3 of a line) and at every 3-D point."""
        calls = []
        svd = np.linalg.svd

        def counting(F):
            calls.append(F.shape)
            return svd(F)

        monkeypatch.setattr(np.linalg, "svd", counting)
        rng = np.random.default_rng(5)
        collinear = radar_family(RadarGeometry(
            [[100.0, 0.001], [-50.0, -0.002], [30.0, 0.0015]],
            [[-80.0, 0.002], [60.0, -0.001], [-20.0, 0.0005]],
        ))
        spatial = radar_family(RadarGeometry(rng.uniform(-100.0, 100.0, size=(4, 3)),
                                             rng.uniform(-100.0, 100.0, size=(4, 3))))
        for family, x, expected in ((radar_scene(3), [1.0, 2.0], []),
                                    (collinear, [1.0, -2.0], [(2, 3)]),
                                    (spatial, [1.0, -2.0, 3.0], [(3, 4)])):
            calls.clear()
            a = el_acceleration(family, x, rng.normal(size=family.M), rng.normal(size=family.N))
            assert calls == expected
            assert np.isfinite(a).all()

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
        k = 100
        a = el_acceleration(family, pos[k], vel[k], data.rates[k])
        assert np.linalg.norm(a - a0) <= 1e-3  # limited by sampled wdot accuracy

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(["radar", "radar", "quadratic", "callable"]),
        dim=st.sampled_from([2, 3]),
        num_pairs=st.integers(2, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_order_one_jet_formula(self, kind, dim, num_pairs, seed):
        """The SVD-factor formula on kappa from ``frame_curvature`` against
        G^T (wdot - sum_p v_p dF_p^T v) from the dual and the whole order-1
        jet; the quadratic and callable families run the base
        ``frame_curvature``."""
        rng = np.random.default_rng(seed)
        if kind == "radar":
            family = radar_family(RadarGeometry(
                rng.uniform(-100.0, 100.0, size=(num_pairs, dim)),
                rng.uniform(-100.0, 100.0, size=(num_pairs, dim)),
            ))
            x = rng.uniform(-50.0, 50.0, size=dim)
        elif kind == "quadratic":
            family = random_quadratic_family(rng, dim, dim + num_pairs - 2, dim)
            x = rng.uniform(-1.0, 1.0, size=dim)
        else:
            family = arc_family()
            x = rng.uniform(-0.9, 0.9, size=1)
        v = rng.normal(size=family.M) * 10.0 ** rng.uniform(-3, 3)
        wdot = rng.normal(size=family.N) * 10.0 ** rng.uniform(-3, 3)
        try:
            jet = family.jet(x, order=1)
            G = dual_synthesis(jet.F)
        except FramefitError as exc:
            with pytest.raises(type(exc)):
                el_acceleration(family, x, v, wdot)
            return
        quad = np.einsum("p,pmn,m->n", v, jet.dF, v)
        reference = G.T @ (wdot - quad)
        a = el_acceleration(family, x, v, wdot)
        # the roundoff scale of the formula: G applied to each of its terms
        scale = np.linalg.norm(G, 2) * (np.linalg.norm(wdot) + np.linalg.norm(quad))
        assert np.linalg.norm(a - reference) <= 1e-12 * scale


@pytest.mark.filterwarnings("error")
class TestPythonFloatStage:
    """The M = 2 stage runs in Python floats, where a division by zero
    raises ZeroDivisionError: at the edge of the float range and just
    outside a station's tolerance ``el_acceleration`` gives a finite
    acceleration or a framefit error, with no numpy warning, and lists give
    what arrays give, bitwise or with the same error and message."""

    # a transmitter at the origin, so (tol, 0) lies exactly tol from it
    family = radar_family(RadarGeometry([[0, 0], [0, 60], [-50, 20]],
                                        [[80, 10], [-30, -40], [40, 70]]))
    tol = family.geometry.singularity_tolerance
    POINTS = [[1.0, 0.5], [1e300, -1e300], [-1.5e300, 1e299], [1e300, 1e-300],
              [np.nextafter(tol, np.inf), 0.0], [0.0, 1.5 * tol], [tol, 0.0]]
    VELOCITIES = [[1.0, 2.0], [0.0, 0.0], [1e300, 1e300], [-1e300, 5e-324],
                  [1e154, 1e154], [1e148, 0.0]]
    RATES = [np.zeros(3), np.array([1.0, -2.0, 0.5]), np.full(3, -np.finfo(float).max),
             np.array([1e308, -1e308, 1e-320])]

    @staticmethod
    def outcome(*args):
        try:
            a = el_acceleration(*args)
        except FramefitError as exc:
            return type(exc), str(exc)
        assert isinstance(a, np.ndarray) and a.shape == (2,)
        assert np.isfinite(a).all()
        return a.tobytes()

    @pytest.mark.parametrize("wdot", RATES, ids=["zero", "unit", "min", "mixed"])
    @pytest.mark.parametrize("v", VELOCITIES)
    @pytest.mark.parametrize("x", POINTS)
    def test_only_framefit_errors(self, x, v, wdot):
        arrays = self.outcome(self.family, np.array(x), np.array(v), wdot)
        assert self.outcome(self.family, x, v, wdot.tolist()) == arrays

    def test_covers_both_outcomes(self):
        outcomes = [self.outcome(self.family, x, v, wdot) for x in self.POINTS
                    for v in self.VELOCITIES for wdot in self.RATES]
        kinds = {o if isinstance(o, bytes) else o[0] for o in outcomes}
        assert {NearSingularError, LeftDomainError, RankDeficientError} < kinds
        assert sum(isinstance(o, bytes) for o in outcomes) >= 10


def _linear_callable_family():
    """A CallableFrameFamily with M = P = 2 and N = 4, F linear in x."""
    rng = np.random.default_rng(41)
    linear = LinearFrameFamily(random_full_rank(rng, 2, 4), 0.2 * rng.normal(size=(2, 2, 4)))
    return CallableFrameFamily((2, 4, 2), lambda x: linear.jet(x, 0).F,
                               lambda x: linear.jet(x, 1).dF, lambda x: linear.jet(x, 2).d2F)


def _entry_cases(base):
    """(id, list) pairs built from ``base``, a list of Python floats: every
    kind of entry and length a list handed to el_acceleration can have."""
    b0, rest = base[0], base[1:]
    return [
        ("floats", list(base)),
        ("ints", [round(e) for e in base]),
        ("float64_scalars", [np.float64(e) for e in base]),
        ("float32_scalars", [np.float32(e) for e in base]),
        ("int64_scalars", [np.int64(round(e)) for e in base]),
        ("bool", [True] + rest),
        ("numpy_bool", [np.True_] + rest),
        ("string", [str(b0)] + rest),
        ("bytes", [str(b0).encode()] + rest),
        ("none", [None] + rest),
        ("complex", [complex(b0)] + rest),
        ("column", [[e] for e in base]),
        ("row", [list(base)]),
        ("ragged", [[b0, b0]] + rest),
        ("zero_d_array", [np.array(b0)] + rest),
        ("one_element_array", [np.array([b0])] + rest),
        ("inf", [np.inf] + rest),
        ("minus_inf", rest + [-np.inf]),
        ("nan", [np.nan] + rest),
        ("huge_int", [10**400] + rest),
        ("long", base + [1.0]),
        ("short", base[:-1]),
        ("empty", []),
    ]


@pytest.mark.filterwarnings("error")
class TestListChecks:
    """The per-stage checks of x, v and wdot take a list of finite Python
    floats as it is, with no array built (``core._finite_list``).  Any list
    gives what its array gives: the same acceleration, bitwise, where
    check_vector accepts it, and check_vector's error class and message
    where it does not; a bool, string or other non-number is such an error,
    not a number read as 1.0 or parsed."""

    FAMILIES = {
        "radar2": (TestPythonFloatStage.family, [1.0, 0.5], [1.0, 2.0], [1.0, -2.0, 0.5]),
        "radar3": (radar_family(RadarGeometry(
            [[100, 0, 10], [-50, 86.6, -10], [-50, -86.6, 10], [0, 0, 100]],
            [[0, 100, -10], [-86.6, -50, 10], [86.6, -50, -10], [0, 0, -100]])),
            [1.0, -2.0, 3.0], [3.0, 1.0, -2.0], [0.5, -0.25, 1.0, 2.0]),
        "callable": (_linear_callable_family(), [0.5, -0.25], [1.0, -2.0],
                     [1.0, 0.5, -0.5, 2.0]),
    }
    SLOTS = {"x": (0, "parameter point"), "v": (1, "velocity"), "wdot": (2, "data rate")}

    @staticmethod
    def outcome(family, args):
        try:
            a = el_acceleration(family, *args)
        except FramefitError as exc:
            return type(exc), str(exc)
        assert isinstance(a, np.ndarray) and np.isfinite(a).all()
        return a.tobytes()

    @pytest.mark.parametrize("case", [case for case, _ in _entry_cases([1.0, 2.0])])
    @pytest.mark.parametrize("slot", list(SLOTS))
    @pytest.mark.parametrize("name", list(FAMILIES))
    def test_list_gives_what_its_array_gives(self, name, slot, case):
        family, *good = self.FAMILIES[name]
        index, what = self.SLOTS[slot]
        entries = dict(_entry_cases(good[index]))[case]
        args = list(good)
        try:
            args[index] = check_vector(entries, len(good[index]), what)
        except DimensionMismatchError as exc:
            expected = type(exc), str(exc)
            assert what in str(exc)
        else:
            expected = self.outcome(family, args)
        args[index] = entries
        assert self.outcome(family, args) == expected

    @pytest.mark.parametrize("name", list(FAMILIES))
    def test_good_lists_are_checked_in_place(self, name):
        family, *good = self.FAMILIES[name]
        assert isinstance(self.outcome(family, good), bytes)
        for slot, (index, what) in self.SLOTS.items():
            entries = list(good[index])
            assert core._finite_list(entries, len(entries), what) is entries


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestStateValidation:
    """Velocities, data rates and grids of the wrong length or with NaN or
    inf entries raise DimensionMismatchError, with no numpy warning first."""

    family = radar_scene(13, num_pairs=3)
    data = TimeSeries(np.linspace(0.0, 0.1, 5), np.ones((5, 3)))
    x = np.array([1.0, 0.5])

    @pytest.mark.parametrize(
        "v, wdot",
        [
            ([1.0, 2.0, 3.0], np.zeros(3)),
            ([np.nan, 2.0], np.zeros(3)),
            ([1.0, np.inf], np.zeros(3)),
            ([1.0, 2.0], np.zeros(2)),
            ([1.0, 2.0], [0.0, np.nan, 0.0]),
            ([1.0, 2.0], [0.0, -np.inf, 0.0]),
        ],
        ids=["long_v", "nan_v", "inf_v", "short_wdot", "nan_wdot", "inf_wdot"],
    )
    def test_el_acceleration(self, v, wdot):
        with pytest.raises(DimensionMismatchError):
            el_acceleration(self.family, self.x, v, wdot)

    @pytest.mark.parametrize("v0", [[1.0, 2.0, 3.0], [np.nan, 2.0], [1.0, -np.inf]],
                             ids=["long", "nan", "inf"])
    def test_integrate_trajectory(self, v0):
        with pytest.raises(DimensionMismatchError, match="initial velocity"):
            integrate_trajectory(self.family, self.x, v0, self.data)

    @pytest.mark.parametrize("axes", [(3, 2), (2, 3), (1, 2)],
                             ids=["position", "velocity", "short_position"])
    def test_shooting_search_checks_grids_first(self, monkeypatch, axes):
        def never(*args):
            raise AssertionError("a candidate ran before the grids were checked")

        monkeypatch.setattr(tracking, "integrate_trajectory", never)
        pos, vel = (GridSpec(np.zeros(n), np.ones(n), [1] * n) for n in axes)
        with pytest.raises(DimensionMismatchError, match="grid has dimension"):
            shooting_search(self.family, self.data, pos, vel)

    def test_family_whose_parameters_are_not_positions(self):
        rng = np.random.default_rng(14)
        family = random_quadratic_family(rng, 2, 3, 3)  # P = 3, M = 2
        with pytest.raises(DimensionMismatchError, match="P = M"):
            el_acceleration(family, np.zeros(3), np.ones(2), np.zeros(3))
        with pytest.raises(DimensionMismatchError, match="P = M"):
            integrate_trajectory(family, np.zeros(3), np.ones(2), self.data)
        with pytest.raises(DimensionMismatchError, match="P = M"):
            family.frame_curvature(np.zeros(3), np.ones(3))

    def test_overflowing_state_leaves_the_domain(self):
        # the acceleration |v|^2 / r overflows at the first stage
        with pytest.raises(LeftDomainError, match="step 0") as excinfo:
            integrate_trajectory(self.family, self.x, [1e300, 1e300], self.data)
        partial = excinfo.value.partial
        assert len(partial.times) == 1
        assert np.isfinite(partial.positions).all() and np.isfinite(partial.velocities).all()

    def test_overflow_in_the_last_update_leaves_the_domain(self):
        # F = I everywhere, so the acceleration is wdot, which grows only
        # near the end: the stages stay finite and only the last update
        # overflows, which no later stage would see.  The step 2^-512 makes
        # wdot (about w / dt) near 1e308 while the trapezoid sum of |w_k|^2,
        # which TimeSeries bounds, stays finite
        family = CallableFrameFamily((2, 2, 2), lambda x: np.eye(2),
                                     lambda x: np.zeros((2, 2, 2)))
        dt = 2.0**-512
        data = TimeSeries(np.linspace(0.0, 4 * dt, 5),
                          [[0.0, 0.0]] * 4 + [[1.5e307 * 4 * dt, 0.0]])
        with pytest.raises(LeftDomainError, match="step 3") as excinfo:
            integrate_trajectory(family, [0.0, 0.0], [0.0, 0.0], data)
        assert np.isfinite(excinfo.value.partial.velocities).all()


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

    def test_stacked_state_matches_the_per_component_loop(self):
        """Stepping y = (x, v) as one array computes every entry as x and v
        stepped apart: bitwise on the finished candidates, and the same
        failing step and partial on those that leave the domain."""
        family, data, _, candidates = criterion_10_scene(41)
        steps = []
        for x0, v0 in candidates:
            traj, step = run_candidate(integrate_trajectory, family, x0, v0, data)
            ref, ref_step = run_candidate(reference_integrate, family, x0, v0, data)
            assert step == ref_step
            assert traj == ref  # array fields compared bitwise
            steps.append(step)
        assert any(s is None for s in steps) and any(s is not None for s in steps)

    def test_stacked_state_matches_on_3d_and_quadratic_families(self):
        rng = np.random.default_rng(21)
        family3 = radar_family(RadarGeometry(
            rng.uniform(-50.0, 50.0, size=(4, 3)), rng.uniform(-50.0, 50.0, size=(4, 3))
        ))
        quadratic = random_quadratic_family(rng, 2, 4, 2)
        for family in (family3, quadratic):
            times = np.linspace(0.0, 0.5, 21)
            data = TimeSeries(times, rng.normal(size=(21, family.N)))
            x0, v0 = rng.normal(size=family.M) * 0.1, rng.normal(size=family.M)
            traj, step = run_candidate(integrate_trajectory, family, x0, v0, data)
            ref, ref_step = run_candidate(reference_integrate, family, x0, v0, data)
            assert step == ref_step and traj == ref


class TestRk4Steps:
    """For M = 2 ``integrate_trajectory`` steps with ``_planar_rk4_step``,
    the general ``_rk4_step`` on named floats: from every state either gives
    the other's bits or raises the other's error class and message."""

    @staticmethod
    def outcome(step, *args):
        try:
            return np.array(step(*args)).tobytes()
        except FramefitError as exc:
            return type(exc), str(exc)

    def walk(self, family, data, y):
        """Step both ways from y until a step raises or the data ends; the
        number of steps taken and the last outcome."""
        wdot = data.rates.tolist()
        wd_half = (0.5 * (data.rates[:-1] + data.rates[1:])).tolist()
        for k in range(data.num_samples - 1):
            args = (family, y, wdot[k], wd_half[k], wdot[k + 1], data.dt)
            planar = self.outcome(tracking._planar_rk4_step, *args)
            assert planar == self.outcome(tracking._rk4_step, *args)
            if not isinstance(planar, bytes):
                return k, planar
            y = tracking._planar_rk4_step(*args)
        return data.num_samples - 1, planar

    def test_planar_step_is_the_general_step(self):
        family, data, _, candidates = criterion_10_scene(41)
        ends = [self.walk(family, data, np.concatenate([x0, v0]).tolist())
                for x0, v0 in candidates]
        assert any(isinstance(o, bytes) for _, o in ends)
        assert any(not isinstance(o, bytes) for _, o in ends)

    def test_planar_step_on_families_that_are_not_radar(self):
        rng = np.random.default_rng(43)
        times = np.linspace(0.0, 0.5, 21)
        for family in (random_quadratic_family(rng, 2, 4, 2), _linear_callable_family()):
            data = TimeSeries(times, rng.normal(size=(21, family.N)))
            y = np.concatenate([0.1 * rng.normal(size=2), rng.normal(size=2)]).tolist()
            steps, last = self.walk(family, data, y)
            assert steps == 20 and isinstance(last, bytes)

    def test_general_step_leaves_the_domain_as_the_reference(self):
        # a 3-D candidate heading for a transmitter: the general step stops
        # at the same step as the per-component loop, with the same partial
        family = TestListChecks.FAMILIES["radar3"][0]
        station = family.geometry.transmitters[0]
        times = np.linspace(0.0, 1.0, 11)
        data = TimeSeries(times, np.zeros((11, family.N)))
        x0 = station + np.array([-60.0, 0.5, 0.25])
        v0 = np.array([100.0, 0.0, 0.0])
        traj, step = run_candidate(integrate_trajectory, family, x0, v0, data)
        ref, ref_step = run_candidate(reference_integrate, family, x0, v0, data)
        assert step is not None and step > 0
        assert step == ref_step and traj == ref


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


    def test_builds_all_frames_in_one_pass(self, monkeypatch):
        family = radar_scene(9)
        x0, v0 = np.array([1.0, -2.0]), np.array([3.0, 2.0])
        times = np.linspace(0.0, 1.0, 11)
        data, pos, vel = sample_radar_data(
            family, times, lambda t: x0 + t * v0, lambda t: v0
        )
        calls = []
        jet, frames = family.jet, family.frames

        def counted_jet(x, order=2):
            calls.append("jet")
            return jet(x, order)

        def counted_frames(X):
            calls.append(len(X))
            return frames(X)

        monkeypatch.setattr(family, "jet", counted_jet)
        monkeypatch.setattr(family, "frames", counted_frames)
        el_residual(family, Trajectory(times, pos, vel), data)
        assert calls == [len(times)]


@pytest.mark.parametrize("evaluate", [functional_value, el_residual],
                         ids=["functional_value", "el_residual"])
def test_trajectory_through_a_station_raises(evaluate):
    family = radar_scene(9)
    station = family.geometry.transmitters[0]
    times = np.linspace(0.0, 1.0, 5)
    pos = station[None, :] + (times[:, None] - 0.5) * np.array([[4.0, 2.0]])
    vel = np.tile([4.0, 2.0], (5, 1))
    data = TimeSeries(times, np.ones((5, family.N)))
    with pytest.raises(NearSingularError):
        evaluate(family, Trajectory(times, pos, vel), data)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("evaluate", [functional_value, el_residual],
                         ids=["functional_value", "el_residual"])
def test_trajectory_into_non_finite_frames_raises(evaluate, bad):
    # the family leaves its domain the documented way, with a non-finite F,
    # from x0 = 0.5 on: samples 5 to 10 of the path x(t) = (t, t)
    family = CallableFrameFamily(
        (2, 3, 2),
        lambda x: np.array([[1.0, 0.0, 1.0], [0.0, 1.0, x[0] if x[0] < 0.5 else bad]]),
    )
    times = np.linspace(0.0, 1.0, 11)
    traj = Trajectory(times, np.c_[times, times], np.ones((11, 2)))
    data = TimeSeries(times, np.ones((11, 3)))
    with pytest.raises(RankDeficientError):
        evaluate(family, traj, data)


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

    def test_matches_the_dual_formula_end_to_end(self, monkeypatch):
        """The criterion-10 search at K = 201 against the same search with
        the acceleration G^T (wdot - Fdot^T v) from the dual and the order-1
        jet: the same candidates fail at the same step, finished trajectories
        agree within 1e-12 relative, values within 1e-12 of the data scale
        (the winner's own value is roundoff), and the same candidate wins.

        One finished candidate runs away (its speed reaches 1e11): the ODE
        amplifies roundoff as it grows, so no two float formulas agree to
        1e-12 there.  Its trajectory and value are held to 1e-10; measured,
        this formula is 3.5e-12 and 1.8e-11 from the reference, and the
        station-pass Fdot with the dual, 1.6e-11 and 6.7e-11."""
        family, data, grids, candidates = criterion_10_scene(201)
        runs = []  # what the search's own integrate_trajectory calls returned

        def recording(*args):
            runs.append(run_candidate(integrate_trajectory, *args))
            if runs[-1][1] is not None:
                raise LeftDomainError("recorded", partial=runs[-1][0])
            return runs[-1][0]

        monkeypatch.setattr(tracking, "integrate_trajectory", recording)
        best, best_value, trace = shooting_search(family, data, *grids)
        assert len(runs) == len(candidates)
        squares = np.sum(data.values**2, axis=1)
        data_scale = float((data.dt * (squares[1:] + squares[:-1]) / 2.0).sum())
        ref_values = []
        runaways = 0
        for (x0, v0), (traj, step), (_, _, value) in zip(candidates, runs, trace):
            ref, ref_step = run_candidate(reference_integrate, family, x0, v0, data,
                                          acceleration=reference_acceleration)
            assert step == ref_step
            if step is not None:
                # a leaving state blows up, so its partials are not compared
                assert value == np.inf
                ref_values.append(np.inf)
                continue
            ref_value = functional_value(family, ref, data)
            rtol = 1e-12
            if np.max(np.abs(ref.velocities)) > 1e6 * np.max(np.abs(v0)):
                runaways += 1
                rtol = 1e-10
            for a, b in ((traj.positions, ref.positions), (traj.velocities, ref.velocities)):
                assert np.max(np.abs(a - b)) <= rtol * np.max(np.abs(b))
            assert abs(value - ref_value) <= rtol * max(abs(ref_value), data_scale)
            ref_values.append(ref_value)
        assert sum(v == np.inf for v in ref_values) == 23
        assert runaways == 1
        winner = int(np.argmin(ref_values))
        assert best_value == trace[winner][2]
        assert np.array_equal(best.positions[0], candidates[winner][0])
        assert np.array_equal(best.velocities[0], candidates[winner][1])

    def test_all_failures_raise(self):
        family = radar_scene(12, num_pairs=1)
        times = np.linspace(0.0, 1.0, 5)
        data = TimeSeries(times, np.zeros((5, 1)))
        pg = GridSpec([0.0, 0.0], [1.0, 1.0], [2, 2])
        vg = GridSpec([0.0, 0.0], [1.0, 1.0], [1, 1])
        with pytest.raises(AllCandidatesFailedError,
                           match="4 of 4 left the domain, and the functional of 0 is not"):
            shooting_search(family, data, pg, vg)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("size", [2.0**511, 1e160], ids=["sum", "squares"])
    def test_overflowing_functional_fails_cleanly(self, size):
        # every |w_k|^2 is finite for 2**511, but the trapezoid sum of two
        # overflows; for 1e160 the squares themselves do.  The series is
        # rejected before any candidate is integrated on it
        with pytest.raises(ScenarioValidationError,
                           match=r"the trapezoid sum of \|w_k\|\^2 overflows"):
            TimeSeries([0.0, 0.1, 0.2, 0.3], [[size, -size, size]] * 4)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_residuals_give_an_infinite_functional(self):
        # velocities of about 1e160 make residuals whose squares overflow:
        # the functional reads inf, with no warning
        family = radar_family(RadarGeometry([[30.0, 0.0], [0.0, 30.0], [-25.0, -20.0]],
                                            [[-30.0, 10.0], [10.0, -30.0], [20.0, 25.0]]))
        data = TimeSeries([0.0, 0.1, 0.2, 0.3], [[1.0, -1.0, 1.0]] * 4)
        traj = Trajectory(data.times, np.tile([1.0, 0.5], (4, 1)), np.full((4, 2), 1e160))
        assert functional_value(family, traj, data) == np.inf


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
        _write_csv(path, ["t", *_names("x", 2), *_names("v", 2)],
                   [traj.times, *traj.positions.T, *traj.velocities.T])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,x_1,x_2,v_1,v_2"
        assert len(lines) == 4
