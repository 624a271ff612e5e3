import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from framefit import (
    FrameFamily,
    GridSpec,
    NoiseModel,
    RadarGeometry,
    SolverConfig,
    SolveStatus,
    TargetState,
    bistatic_distance,
    error_value,
    error_values,
    frame_bounds,
    grid_search,
    localize,
    radar_family,
    simulate_fdoa,
)
from framefit.errors import (
    DimensionMismatchError,
    FramefitError,
    NearSingularError,
    RankDeficientError,
    ScenarioParseError,
    ScenarioValidationError,
)
from framefit.radar import SINGULARITY_RTOL, load_scenario, parse_scenario

from conftest import UNREADABLE_FILES, circular_geometry, noiseless_scene


class TestBistaticDistance:
    geom = RadarGeometry([[0.0, 0.0]], [[6.0, 0.0]])

    def test_three_four_five(self):
        assert np.isclose(bistatic_distance(self.geom, 0, [3.0, 4.0]), 10.0)

    def test_monostatic(self):
        geom = RadarGeometry([[0.0, 0.0]], [[0.0, 0.0]])
        assert np.isclose(bistatic_distance(geom, 0, [3.0, 4.0]), 10.0)

    def test_on_baseline_equals_separation(self):
        assert np.isclose(bistatic_distance(self.geom, 0, [2.0, 0.0]), 6.0)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.normal(size=2) * 10
            assert bistatic_distance(self.geom, 0, x) >= 6.0 - 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("x, expected", [([1e200, 0.0], 2e200),
                                             ([1e154, 1e154], 2 * np.sqrt(2) * 1e154),
                                             ([1.7e308, 0.0], np.inf)])
    def test_huge_point_does_not_overflow_early(self, x, expected):
        assert np.isclose(bistatic_distance(self.geom, 0, x), expected, rtol=1e-15)

    @pytest.mark.parametrize("x", [[np.inf, 0.0], [3.0, np.nan], [3.0, 4.0, 0.0]])
    def test_rejects_non_finite_or_wrong_shape_point(self, x):
        with pytest.raises(DimensionMismatchError):
            bistatic_distance(self.geom, 0, x)

    @pytest.mark.parametrize("n", [-1, 2, True, 1.0, "0"])
    def test_rejects_a_pair_index_outside_the_pairs(self, n):
        # -1 would read the last pair, True and 1.0 pair 1
        geom = RadarGeometry([[0.0, 0.0], [0.0, 9.0]], [[6.0, 0.0], [6.0, 9.0]])
        with pytest.raises(ValueError, match=r"pair n must be an integer in \[0, 2\)"):
            bistatic_distance(geom, n, [3.0, 4.0])
        assert bistatic_distance(geom, np.int64(0), [3.0, 4.0]) == 10.0

    @settings(max_examples=200, deadline=None)
    @given(
        dim=st.sampled_from([2, 3]),
        num_pairs=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_the_frame_station_distances_bitwise(self, dim, num_pairs, seed):
        # one length rule: the path length is the sum of the two station
        # distances the frame is built from, to the last bit
        rng = np.random.default_rng(seed)
        geom = RadarGeometry(rng.uniform(-100.0, 100.0, size=(num_pairs, dim)),
                             rng.uniform(-100.0, 100.0, size=(num_pairs, dim)))
        x = rng.uniform(-100.0, 100.0, size=dim)
        try:
            _, _, r = radar_family(geom)._station_pass(x)
        except NearSingularError:
            assume(False)
        for n in range(num_pairs):
            assert bistatic_distance(geom, n, x) == r[n] + r[num_pairs + n]


class TestFarField:
    # the 3-pair scene of the CI smoke test's moving target
    family = radar_family(RadarGeometry([[30.0, 0.0], [0.0, 30.0], [-25.0, -20.0]],
                                        [[-30.0, 10.0], [10.0, -30.0], [20.0, 25.0]]))
    w = [1.0, 0.0, 0.0]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("x", [[1e160, 0.0], [3e200, -1e200]])
    def test_frame_tends_to_twice_the_direction(self, x):
        # squared, these distances would overflow and every unit vector be 0
        x = np.array(x)
        F = self.family.frame(x)
        assert np.max(np.abs(F - (2.0 * x / np.hypot(*x))[:, None])) <= 1e-15
        assert np.array_equal(F, self.family.frames([x])[0])
        with pytest.raises(RankDeficientError):
            error_value(self.family, x, self.w)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_second_partials_of_a_scene_past_1e102(self):
        # CI's 4-pair near scene scaled by 1e103: a cube of the station
        # distances would overflow.  F is scale-free, d2F scales as 1/s^2
        tx = np.array([[100.0, 0.0], [-50.0, 86.6], [-50.0, -86.6], [0.0, -90.0]])
        rx = np.array([[0.0, 100.0], [-86.6, -50.0], [86.6, -50.0], [70.0, 70.0]])
        x, s = np.array([98.02709452836686, 0.0]), 1e103
        jet = radar_family(RadarGeometry(s * tx, s * rx)).jet(s * x, 2)
        ref = radar_family(RadarGeometry(tx, rx)).jet(x, 2)
        assert np.array_equal(jet.d2F, jet.d2F.transpose(1, 0, 2, 3))
        assert np.max(np.abs(s * s * jet.d2F - ref.d2F)) <= 1e-14 * np.max(np.abs(ref.d2F))

    def test_distance_past_the_float_range(self):
        # |x - a_n| is inf: every unit vector is 0, and the point is outside
        # the domain.  One error_value call warns of the overflow in hypot;
        # the error_values sweep skips the point silently
        x = [1.5e308, 1.5e308]
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(RankDeficientError):
                error_value(self.family, x, self.w)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(error_values(self.family, [x], self.w)).all()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("search", ["grid_search", "localize"])
    def test_sweep_skips_nodes_past_the_float_range(self, search):
        # the far nodes' distances overflow in hypot: the grid sweep, alone
        # and under localize, skips them with no warning
        grid = GridSpec([0.0, 0.0], [1.5e308, 1.5e308], [3, 3])
        if search == "grid_search":
            assert np.array_equal(grid_search(self.family, self.w, grid), [0.0, 0.0])
        else:
            result = localize(self.family, self.w, SolverConfig(grid))
            assert result.status is SolveStatus.GRADIENT_CONVERGED


def monostatic_at_origin(dim):
    """One pair with transmitter and receiver at the origin.  Its frame
    element at x is twice the normalization map x -> x / |x|, so its F, dF
    and d2F are exactly twice that map's value and partials."""
    return radar_family(RadarGeometry(np.zeros((1, dim)), np.zeros((1, dim))))


def unit_map_jet(x, order=2):
    """The normalization map at the vector x and its partials, halved from
    ``monostatic_at_origin``: (u, first, second) with ``first[m, p]`` the
    partial of u_m with respect to x_p and ``second[q, p, m]`` the mixed
    second partial; the parts above ``order`` are None."""
    jet = monostatic_at_origin(len(x)).jet(x, order)
    u = 0.5 * jet.F[:, 0]
    first = None if jet.dF is None else 0.5 * jet.dF[..., 0].T
    second = None if jet.d2F is None else 0.5 * jet.d2F[..., 0]
    return u, first, second


class TestUnitVectorJet:
    def test_projector_value(self):
        _, first, _ = unit_map_jet(np.array([3.0, 4.0]))
        pi = np.array([[16.0, -12.0], [-12.0, 9.0]]) / 25.0
        assert np.allclose(first * 5.0, pi)
        assert np.allclose(first[:, 0], [16.0 / 125.0, -12.0 / 125.0])

    def test_projector_annihilates_x(self):
        x = np.array([3.0, 4.0])
        u, first, _ = unit_map_jet(x)
        assert np.allclose(first @ x, 0.0, atol=1e-14)
        assert np.isclose(np.linalg.norm(u), 1.0)

    def test_second_derivative_matches_fd(self):
        rng = np.random.default_rng(1)
        h = 1e-6
        for _ in range(20):
            x = rng.normal(size=3) * 4
            if np.linalg.norm(x) < 0.5:
                continue
            _, _, second = unit_map_jet(x)
            for p in range(3):
                step = np.zeros(3)
                step[p] = h
                _, fplus, _ = unit_map_jet(x + step)
                _, fminus, _ = unit_map_jet(x - step)
                fd = (fplus - fminus) / (2.0 * h)
                # fd[:, q] approximates second[p, q] mixed partials
                assert np.max(np.abs(second[p].T - fd.T)) <= 1e-6 * max(
                    np.max(np.abs(second)), 1e-3
                )

    def test_near_singular(self):
        for order in (0, 1, 2):
            with pytest.raises(NearSingularError):
                unit_map_jet(np.zeros(2), order)

    @pytest.mark.parametrize("x", [[np.nan, 1.0], [1.0, -np.inf], 1.0])
    def test_rejects_non_finite_or_non_vector_point(self, x):
        for order in (0, 1, 2):
            with pytest.raises(DimensionMismatchError):
                monostatic_at_origin(2).jet(x, order)


class TestFrameElement:
    def test_sum_of_unit_vectors(self):
        geom = RadarGeometry([[0.0, 0.0]], [[6.0, 0.0]])
        f = radar_family(geom).frame([3.0, 4.0])[:, 0]
        assert np.allclose(f, [0.0, 1.6])

    def test_monostatic_norm_two(self):
        geom = RadarGeometry([[1.0, 1.0]], [[1.0, 1.0]])
        f = radar_family(geom).frame([4.0, 5.0])[:, 0]
        assert np.isclose(np.linalg.norm(f), 2.0)

    def test_norm_at_most_two(self):
        rng = np.random.default_rng(2)
        family = radar_family(circular_geometry(rng))
        for _ in range(50):
            x = rng.uniform(-20, 20, size=2)
            assert np.linalg.norm(family.frame(x), axis=0).max() <= 2.0 + 1e-12

    def test_is_gradient_of_bistatic_distance(self):
        rng = np.random.default_rng(3)
        geom = circular_geometry(rng)
        h = 1e-6
        for _ in range(100):
            x = rng.uniform(-20, 20, size=2)
            n = int(rng.integers(geom.num_pairs))
            f = radar_family(geom).frame(x)[:, n]
            fd = np.array(
                [
                    (
                        bistatic_distance(geom, n, x + h * e)
                        - bistatic_distance(geom, n, x - h * e)
                    )
                    / (2 * h)
                    for e in np.eye(2)
                ]
            )
            assert np.max(np.abs(f - fd)) <= 1e-6 * max(np.max(np.abs(f)), 1e-3)

    def test_is_column_of_the_family_frame(self):
        rng = np.random.default_rng(4)
        geom = circular_geometry(rng)
        family = radar_family(geom)
        for _ in range(20):
            x = rng.uniform(-20, 20, size=2)
            F = family.jet(x, order=0).F
            for n in range(geom.num_pairs):
                assert np.array_equal(family.frame(x)[:, n], F[:, n])

    def test_domain_is_the_family_domain(self):
        # pair 0 is far from x, but x sits on pair 1's transmitter
        geom = RadarGeometry([[0.0, 0.0], [5.0, 5.0]], [[6.0, 0.0], [0.0, 6.0]])
        with pytest.raises(NearSingularError):
            radar_family(geom).frame([5.0, 5.0])


class TestRadarGeometry:
    def test_stations_stack_transmitters_over_receivers(self):
        geom = circular_geometry(np.random.default_rng(6), num_pairs=3)
        assert np.array_equal(
            geom.stations, np.vstack([geom.transmitters, geom.receivers])
        )

    def test_scene_diameter_and_singularity_tolerance(self):
        geom = RadarGeometry([[0.0, 0.0], [3.0, 0.0]], [[0.0, 4.0], [1.0, 1.0]])
        assert geom.scene_diameter == 5.0
        assert geom.singularity_tolerance == SINGULARITY_RTOL * geom.scene_diameter
        # every station at one point: the diameter falls back to 1.0
        assert RadarGeometry([[2.0, 2.0]], [[2.0, 2.0]]).scene_diameter == 1.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_scene_diameter_past_1e154(self):
        # squared, the distance 1e155 would overflow
        geom = RadarGeometry([[1e155, 0.0], [0.0, 1.0]], [[0.0, 0.0], [1.0, 0.0]])
        assert geom.scene_diameter == 1e155

    def test_rejects_coordinates_of_more_than_two_axes(self):
        # (N, 2, 1) arrays have a second axis of length 2 but are no point lists
        with pytest.raises(DimensionMismatchError):
            RadarGeometry(np.zeros((3, 2, 1)), np.ones((3, 2, 1)))

    @pytest.mark.parametrize(
        "transmitters, receivers",
        [
            (np.zeros((2, 1)), np.ones((2, 1))),
            (np.zeros((2, 4)), np.ones((2, 4))),
            ([[0.0, 0.0], [np.nan, 1.0]], np.ones((2, 2))),
            (np.zeros((2, 3)), [[1.0, 2.0, np.inf], [0.0, 0.0, 1.0]]),
        ],
        ids=["dim_1", "dim_4", "nan_station", "inf_station"],
    )
    def test_rejects_other_dimensions_and_non_finite_stations(self, transmitters, receivers):
        with pytest.raises(DimensionMismatchError):
            RadarGeometry(transmitters, receivers)

    @pytest.mark.parametrize(
        "stations",
        [
            [["100", 0], [True, 86.6], [-50, -86.6]],
            [[100, 0], [-50, 86.6], [-50]],
            [[100, 0], [-50, "a"], [-50, -86.6]],
            [[100, 0], [-50, 86.6 + 1j], [-50, -86.6]],
            np.array([[100, 0], [-50, 86.6], [-50, -86.6]], dtype=complex),
            [[100, 0], [-50, None], [-50, -86.6]],
        ],
        ids=["string_and_bool", "ragged", "letter", "complex", "complex_array", "none"],
    )
    @pytest.mark.parametrize("side", ["transmitters", "receivers"])
    def test_rejects_coordinates_that_are_not_numbers(self, stations, side):
        # by check_vector's rule: no entry reads as 1.0, a parsed float or NaN
        other = [[0, 100], [-86.6, -50], [86.6, -50]]
        args = (stations, other) if side == "transmitters" else (other, stations)
        with pytest.raises(DimensionMismatchError, match=f"^{side} has entries that are not numbers"):
            RadarGeometry(*args)

    def test_accepts_python_and_numpy_numbers(self):
        ref = RadarGeometry([[100.0, 0.0], [-50.0, 86.6]], [[0.0, 100.0], [-86.6, -50.0]])
        geom = RadarGeometry([[100, 0], [np.int64(-50), np.float64(86.6)]],
                             np.array([[0, 100], [-86.6, -50]]))
        assert geom == ref
        with pytest.raises(DimensionMismatchError, match="non-finite"):
            RadarGeometry([[10**400, 0]], [[0, 1]])


class TestRadarFamily:
    def test_single_pair_never_a_frame_in_2d(self):
        geom = RadarGeometry([[0.0, 0.0]], [[6.0, 0.0]])
        family = radar_family(geom)
        assert not family.contains([3.0, 4.0])

    def test_generic_four_pair_frame(self):
        rng = np.random.default_rng(4)
        family = radar_family(circular_geometry(rng))
        x = rng.uniform(-10, 10, size=2)
        A, _ = frame_bounds(family.jet(x, order=0).F)
        assert A > 0.0
        assert family.contains(x)

    def test_jet_symmetry_exact(self):
        rng = np.random.default_rng(5)
        family = radar_family(circular_geometry(rng))
        jet = family.jet(rng.uniform(-10, 10, size=2))
        assert np.array_equal(jet.d2F, jet.d2F.transpose(1, 0, 2, 3))

    def test_near_receiver_raises(self):
        rng = np.random.default_rng(8)
        geom = circular_geometry(rng)
        family = radar_family(geom)
        x = geom.receivers[2] + [0.5 * geom.singularity_tolerance, 0.0]
        assert np.min(np.linalg.norm(geom.transmitters - x, axis=1)) > 1.0
        for order in (0, 1, 2):
            with pytest.raises(NearSingularError):
                family.jet(x, order)
        with pytest.raises(NearSingularError):
            error_value(family, x, np.ones(geom.num_pairs))

    def test_station_tolerance_is_the_boundary(self):
        # (tol, 0) lies exactly tol from the transmitter at the origin, since
        # sqrt(tol * tol) == tol: every path treats it as singular, and the
        # point one ulp farther as inside, with frames' row equal to frame
        geom = RadarGeometry([[0, 0], [0, 60], [-50, 20]], [[80, 10], [-30, -40], [40, 70]])
        family = radar_family(geom)
        tol = geom.singularity_tolerance
        w = np.array([1.0, -2.0, 0.5])
        at, past = np.array([tol, 0.0]), np.array([np.nextafter(tol, np.inf), 0.0])
        singular = [
            family.frame, lambda x: family.frame_curvature(x, [1.0, 2.0]),
            *(lambda x, k=k: family.jet(x, k) for k in (0, 1, 2)),
            lambda x: error_value(family, x, w),
        ]
        for evaluate in singular:
            with pytest.raises(NearSingularError):
                evaluate(at)
            evaluate(past)
        assert np.isnan(family.frames(at[None])).all()
        assert np.isnan(error_values(family, at[None], w)).all()
        assert family.frames(past[None])[0].tobytes() == family.frame(past).tobytes()
        assert np.isfinite(error_values(family, past[None], w)).all()

    @settings(max_examples=150, deadline=None)
    @given(
        dim=st.sampled_from([2, 3]),
        num_pairs=st.integers(2, 6),
        seed=st.integers(0, 2**32 - 1),
        order=st.sampled_from([0, 1, 2]),
    )
    def test_jet_equals_per_station_reference(self, dim, num_pairs, seed, order):
        rng = np.random.default_rng(seed)
        geom = RadarGeometry(
            rng.uniform(-100.0, 100.0, size=(num_pairs, dim)),
            rng.uniform(-100.0, 100.0, size=(num_pairs, dim)),
        )
        x = rng.uniform(-50.0, 50.0, size=dim)
        stations = np.vstack([geom.transmitters, geom.receivers])
        assume(np.min(np.linalg.norm(stations - x, axis=1)) > 1e-3)
        jet = radar_family(geom).jet(x, order)
        # per-station reference: one unit_map_jet per transmitter and receiver
        pairs = []
        for a, b in zip(geom.transmitters, geom.receivers):
            ja, jb = unit_map_jet(x - a, order), unit_map_jet(x - b, order)
            pairs.append([pa + pb for pa, pb in zip(ja[: order + 1], jb[: order + 1])])
        assert np.array_equal(jet.F, np.array([p[0] for p in pairs]).T)
        if order >= 1:
            # first[m, p] of pair n -> dF[p, m, n]
            ref = np.array([p[1] for p in pairs]).transpose(2, 1, 0)
            # the layout too: projector_pieces' BLAS products pick their
            # kernels by it, so Newton's last bits depend on it
            assert np.array_equal(jet.dF, ref) and jet.dF.strides == ref.strides
        if order >= 2:
            # second[q, p, m] of pair n -> d2F[q, p, m, n]
            ref = np.array([p[2] for p in pairs]).transpose(1, 2, 3, 0)
            assert np.array_equal(jet.d2F, ref) and jet.d2F.strides == ref.strides
        assert (jet.dF is None, jet.d2F is None) == (order < 1, order < 2)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=100, deadline=None)
    @given(
        dim=st.sampled_from([2, 3]),
        num_pairs=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_frames_rows_equal_frame(self, dim, num_pairs, seed):
        rng = np.random.default_rng(seed)
        geom = RadarGeometry(
            rng.uniform(-100.0, 100.0, size=(num_pairs, dim)),
            rng.uniform(-100.0, 100.0, size=(num_pairs, dim)),
        )
        family = radar_family(geom)
        X = rng.uniform(-50.0, 50.0, size=(7, dim))
        X[0] = geom.transmitters[-1]
        X[1] = geom.receivers[0] + 0.5 * geom.singularity_tolerance
        X[2, 0] = np.nan
        X[3, -1] = np.inf

        def outcome(evaluate, x):
            try:
                F = evaluate(x)
            except FramefitError as exc:
                return type(exc), str(exc)
            return F.tobytes(), F.shape, F.strides

        # one pass for every B, each row frame(x) or NaN where frame raises:
        # the first two rows are at a station, the next two not finite
        for rows in (X[:0], X[4:5], X[1:2], X):
            F = family.frames(rows)
            assert F.shape == (len(rows), dim, num_pairs)
            for i, x in enumerate(rows):
                expected = outcome(family.frame, x)
                if isinstance(expected[0], type):
                    assert np.isnan(F[i]).all()
                else:
                    assert outcome(lambda x: F[i], x) == expected
        # jet(x, 0).F is frame(x): values, strides, error class and message
        for x in [*X, X[4, :-1]]:
            assert outcome(lambda x: family.jet(x, 0).F, x) == outcome(family.frame, x)

    def test_jets_match_finite_differences(self):
        rng = np.random.default_rng(6)
        family = radar_family(circular_geometry(rng))
        x = rng.uniform(-8, 8, size=2)
        jet = family.jet(x)
        h = 1e-6
        for p in range(2):
            step = np.zeros(2)
            step[p] = h
            fd1 = (family.jet(x + step, 0).F - family.jet(x - step, 0).F) / (2 * h)
            assert np.max(np.abs(jet.dF[p] - fd1)) <= 1e-6 * np.max(np.abs(jet.dF[p]))
            fd2 = (family.jet(x + step, 1).dF - family.jet(x - step, 1).dF) / (2 * h)
            assert np.max(np.abs(jet.d2F[p] - fd2)) <= 1e-5 * np.max(np.abs(jet.d2F[p]))


class TestFrameCurvature:
    """The radar override of ``frame_curvature`` against the base version,
    which contracts ``jet(x, 1).dF`` with v twice."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        dim=st.sampled_from([2, 3]),
        num_pairs=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        where=st.sampled_from(["inside", "inside", "near_station", "non_finite"]),
    )
    def test_equals_the_contracted_jet(self, dim, num_pairs, seed, where):
        rng = np.random.default_rng(seed)
        geom = RadarGeometry(
            rng.uniform(-100.0, 100.0, size=(num_pairs, dim)),
            rng.uniform(-100.0, 100.0, size=(num_pairs, dim)),
        )
        family = radar_family(geom)
        x = rng.uniform(-50.0, 50.0, size=dim)
        if where == "near_station":
            x = geom.stations[rng.integers(2 * num_pairs)] + 0.5 * geom.singularity_tolerance
        elif where == "non_finite":
            x[rng.integers(dim)] = rng.choice([np.nan, np.inf, -np.inf])
        v = rng.normal(size=dim) * 10.0 ** rng.uniform(-3, 3)
        try:
            jet = family.jet(x, order=1)
        except FramefitError as exc:
            assert isinstance(exc, (NearSingularError, DimensionMismatchError))
            with pytest.raises(type(exc)):
                family.frame_curvature(x, v)
            if isinstance(exc, NearSingularError):
                # the one near-station test and message, on either head
                with pytest.raises(NearSingularError) as frame_error:
                    family.frame(x)
                for point in (x, x.tolist()):
                    with pytest.raises(NearSingularError) as error:
                        family.frame_curvature(point, v)
                    assert str(error.value) == str(frame_error.value)
            return
        rows, kappa = family.frame_curvature(x, v)
        rows_ref, kappa_ref = FrameFamily.frame_curvature(family, x, v)
        # Python floats: the rows of frame(x), bitwise, as the base version's
        for result in (rows, kappa, rows_ref, kappa_ref):
            assert type(result) is list
        assert all(type(e) is float for row in rows for e in row)
        assert all(type(e) is float for e in kappa)
        assert len(rows) == dim and len(kappa) == num_pairs
        assert rows == family.frame(x).tolist() == rows_ref
        assert np.array(rows).tobytes() == jet.F.tobytes()
        assert family.frame_curvature(x.tolist(), v.tolist()) == (rows, kappa)
        # |v|^2 - (u . v)^2 cancels when v is nearly along u, so the bound is
        # stated against the scale of its terms, |v|^2 / r per station
        r = np.linalg.norm(x - geom.stations, axis=1)
        scale = (v @ v) * np.sum(1.0 / r)
        assert np.max(np.abs(np.subtract(kappa, kappa_ref))) <= 1e-12 * scale

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(num_pairs=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_planar_equals_the_per_pair_formula_bitwise(self, num_pairs, seed):
        # the reference: the (2N, 2) differences x - stations, their np.hypot
        # lengths, and one pair at a time in Python floats, over scenes from
        # 1e-150 to 1e150 in size
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.uniform(-150.0, 150.0)
        geom = RadarGeometry(scale * rng.uniform(-100.0, 100.0, size=(num_pairs, 2)),
                             scale * rng.uniform(-100.0, 100.0, size=(num_pairs, 2)))
        x = scale * rng.uniform(-50.0, 50.0, size=2)
        v = rng.normal(size=2) * 10.0 ** rng.uniform(-3, 3)
        d = x - geom.stations
        r = np.hypot(d[:, 0], d[:, 1]).tolist()
        assume(min(r) > geom.singularity_tolerance)
        d = d.tolist()
        v0, v1 = v.tolist()
        vv = v0 * v0 + v1 * v1
        a, b, kappa = [], [], []
        for n in range(num_pairs):
            (d0, d1), (e0, e1) = d[n], d[num_pairs + n]
            r0, r1 = r[n], r[num_pairs + n]
            u0, u1, s0, s1 = d0 / r0, d1 / r0, e0 / r1, e1 / r1
            uv = u0 * v0 + u1 * v1
            sv = s0 * v0 + s1 * v1
            a.append(u0 + s0)
            b.append(u1 + s1)
            kappa.append((vv - uv * uv) / r0 + (vv - sv * sv) / r1)
        family = radar_family(geom)
        for point in (x, x.tolist()):
            rows, kappa_out = family.frame_curvature(point, v.tolist())
            assert np.array(rows).tobytes() == np.array([a, b]).tobytes()
            assert np.array(kappa_out).tobytes() == np.array(kappa).tobytes()

    @pytest.mark.parametrize(
        "v", [[1.0, 2.0, 3.0], [1.0], [[1.0, 2.0]], [np.nan, 1.0], [1.0, -np.inf]],
        ids=["long", "short", "matrix", "nan", "inf"],
    )
    @pytest.mark.parametrize("version", ["radar", "base"])
    def test_rejects_a_bad_velocity(self, v, version):
        family = radar_family(circular_geometry(np.random.default_rng(3)))
        frame_curvature = family.frame_curvature if version == "radar" else (
            lambda x, v: FrameFamily.frame_curvature(family, x, v))
        with pytest.raises(DimensionMismatchError, match="velocity"):
            frame_curvature([1.0, 2.0], v)


class TestTargetState:
    @pytest.mark.parametrize(
        "position, velocity",
        [
            ([1.0, 2.0], [3.0]),
            ([1.0, 2.0], [[3.0, 4.0]]),
            (1.0, 3.0),
            ([np.nan, 2.0], [3.0, 4.0]),
            ([1.0, 2.0], [3.0, np.inf]),
        ],
        ids=["ragged", "matrix", "scalar", "nan", "inf"],
    )
    def test_rejects_non_vector_or_non_finite(self, position, velocity):
        with pytest.raises(DimensionMismatchError):
            TargetState(position, velocity)


class TestSimulateFdoa:
    def test_stationary_target_zero_measurement(self):
        rng = np.random.default_rng(7)
        geom = circular_geometry(rng)
        truth = TargetState([1.0, 2.0], [0.0, 0.0])
        assert np.allclose(simulate_fdoa(geom, truth, NoiseModel(0.0, 0)), 0.0)

    def test_noiseless_lies_in_coefficient_space(self):
        geom, family, truth, w = noiseless_scene(8)
        assert error_value(family, truth.position, w) <= 1e-18

    def test_seeded_noise_reproducible(self):
        rng = np.random.default_rng(9)
        geom = circular_geometry(rng)
        truth = TargetState([1.0, -2.0], [3.0, 1.0])
        w1 = simulate_fdoa(geom, truth, NoiseModel(0.1, 42))
        w2 = simulate_fdoa(geom, truth, NoiseModel(0.1, 42))
        assert np.array_equal(w1, w2)
        w3 = simulate_fdoa(geom, truth, NoiseModel(0.1, 43))
        assert not np.array_equal(w1, w3)


class TestNoiseModel:
    @pytest.mark.parametrize(
        "sigma, seed",
        [(np.nan, 0), (np.inf, 0), (-0.1, 0), (0.1, -1), (0.1, 1.5), (0.1, True), (0.1, "1"),
         (True, 0), ("0.5", 0), (None, 0), ([0.5], 0)],
    )
    def test_rejects_invalid_settings(self, sigma, seed):
        with pytest.raises(ScenarioValidationError):
            NoiseModel(sigma, seed)

    @pytest.mark.parametrize("sigma", [0, 1, 0.5, np.int64(1), np.float32(0.5)])
    def test_accepts_python_and_numpy_numbers(self, sigma):
        assert np.array_equal(NoiseModel(sigma, 3).draw(2), sigma * NoiseModel(1.0, 3).draw(2))

    def test_seed_is_a_128_bit_philox_key(self):
        NoiseModel(0.1, 2**128 - 1).draw(3)
        with pytest.raises(ScenarioValidationError):
            NoiseModel(0.1, 2**128)


class TestScenarioIO:
    def scenario_dict(self):
        return {
            "dim": 2,
            "transmitters": [[0.0, 0.0], [10.0, 0.0]],
            "receivers": [[0.0, 10.0], [10.0, 10.0]],
            "target": {"position": [4.0, 5.0], "velocity": [1.0, 0.0]},
            "noise": {"sigma": 0.0, "seed": 0},
        }

    def test_round_trip(self, tmp_path):
        import json

        path = tmp_path / "scene.json"
        path.write_text(json.dumps(self.scenario_dict()))
        scenario = load_scenario(path)
        assert scenario.geometry.num_pairs == 2
        assert np.allclose(scenario.target.position, [4.0, 5.0])

    @pytest.mark.parametrize("text", UNREADABLE_FILES.values(), ids=list(UNREADABLE_FILES))
    def test_unreadable_file_rejected(self, tmp_path, text):
        path = tmp_path / "scene.json"
        path.write_bytes(text)
        with pytest.raises(ScenarioParseError, match="^cannot read scenario "):
            load_scenario(path)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_target_past_1e154_accepted(self):
        # CI's moving 3-pair scene with the target at 1e155: squared, its
        # station distances would overflow.  Every frame element is 2 (1, 0)
        data = {"dim": 2, "transmitters": [[30.0, 0.0], [0.0, 30.0], [-25.0, -20.0]],
                "receivers": [[-30.0, 10.0], [10.0, -30.0], [20.0, 25.0]],
                "target": {"position": [1e155, 0.0], "velocity": [2.0, -1.0]}}
        scenario = parse_scenario(data)
        w = simulate_fdoa(scenario.geometry, scenario.target, scenario.noise)
        assert np.array_equal(w, [4.0, 4.0, 4.0])

    def test_target_at_station_rejected(self):
        data = self.scenario_dict()
        data["target"]["position"] = [0.0, 0.0]
        with pytest.raises(ScenarioValidationError):
            parse_scenario(data)

    @pytest.mark.parametrize(
        "noise",
        [
            [], "x", None, {"seed": 1.5}, {"seed": float("inf")}, {"seed": "1.5"},
            {"seed": True}, {"seed": "7"}, {"seed": None}, {"seed": [7]},
            {"sigma": True, "seed": 3}, {"sigma": "0.5"}, {"sigma": [0.5]}, {"sigma": None},
        ],
    )
    def test_malformed_noise_rejected(self, noise):
        data = self.scenario_dict()
        data["noise"] = noise
        with pytest.raises(ScenarioParseError, match="malformed scenario"):
            parse_scenario(data)

    @pytest.mark.parametrize(
        "dim", [2.5, True, "2", None, float("nan"), float("inf"), [2]]
    )
    def test_dim_that_is_no_integer_rejected(self, dim):
        data = self.scenario_dict()
        data["dim"] = dim
        with pytest.raises(ScenarioParseError, match="malformed scenario"):
            parse_scenario(data)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("position", ["1", "-2"]),
            ("velocity", [1.0, None]),
            ("transmitters", [[True, 0.0], [10.0, 0.0]]),
            ("receivers", [[0.0, 10.0], [10.0, "10"]]),
        ],
    )
    def test_coordinate_that_is_no_json_number_rejected(self, field, value):
        data = self.scenario_dict()
        (data["target"] if field in ("position", "velocity") else data)[field] = value
        with pytest.raises(ScenarioParseError, match="must be a number"):
            parse_scenario(data)

    def test_target_position_of_another_dimension_rejected(self):
        data = self.scenario_dict()
        data["target"] = {"position": [4.0, 5.0, 1.0], "velocity": [1.0, 0.0, 0.0]}
        with pytest.raises(ScenarioValidationError, match="target position dimension"):
            parse_scenario(data)

    def test_integral_float_dim_accepted(self):
        data = self.scenario_dict()
        data["dim"] = 2.0
        assert parse_scenario(data).geometry.dim == 2

    def test_integral_float_seed_accepted(self):
        data = self.scenario_dict()
        data["noise"] = {"sigma": 0.1, "seed": 7.0}
        assert parse_scenario(data).noise == NoiseModel(0.1, 7)

    def test_dim_mismatch_rejected(self):
        data = self.scenario_dict()
        data["dim"] = 3
        with pytest.raises(ScenarioValidationError):
            parse_scenario(data)


class TestErrorProperties:
    """Properties of E(x, w) = |Pi(x) w|^2 on random radar geometries."""

    @staticmethod
    def scene(dim, num_pairs, seed):
        """A random family, a point in its domain with cond(F) <= 1e3, and a w.

        Half of the measurements lie near the coefficient space of F(x)^T, so
        E ranges from roundoff level to a large share of |w|^2.
        """
        rng = np.random.default_rng(seed)
        geom = RadarGeometry(
            rng.uniform(-100.0, 100.0, size=(num_pairs, dim)),
            rng.uniform(-100.0, 100.0, size=(num_pairs, dim)),
        )
        family = radar_family(geom)
        x = rng.uniform(-50.0, 50.0, size=dim)
        stations = np.vstack([geom.transmitters, geom.receivers])
        assume(np.min(np.linalg.norm(stations - x, axis=1)) > 1e-3)
        F = family.jet(x, 0).F
        A, B = frame_bounds(F)
        assume(A > 1e-6 * B)
        w = rng.normal(size=num_pairs) * 10.0 ** rng.uniform(-3, 3)
        if seed % 2:
            w = F.T @ rng.normal(size=dim) + 1e-6 * w
        return family, x, w

    @settings(max_examples=200, deadline=None)
    @given(
        dim=st.sampled_from([2, 3]),
        num_pairs=st.integers(2, 7),
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(-40, 40),
    )
    def test_bounds_and_power_of_two_scaling(self, dim, num_pairs, seed, k):
        family, x, w = self.scene(dim, num_pairs, seed)
        E = error_value(family, x, w)
        assert 0.0 <= E <= w @ w
        # scaling by 2^k is exact in binary floating point, so E scales exactly
        assert error_value(family, x, 2.0**k * w) == 4.0**k * E

    @settings(max_examples=200, deadline=None)
    @given(
        dim=st.sampled_from([2, 3]),
        num_pairs=st.integers(2, 7),
        seed=st.integers(0, 2**32 - 1),
        c=st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3),
    )
    def test_rescaling_invariance(self, dim, num_pairs, seed, c):
        family, x, w = self.scene(dim, num_pairs, seed)
        E, Ec = error_value(family, x, w), error_value(family, x, c * w)
        assert abs(Ec - c * c * E) <= 1e-12 * c * c * (w @ w)
