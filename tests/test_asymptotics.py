import dataclasses
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

import forcing_oracle
from helpers import (
    LN3,
    LONG_EDGE_SYSTEM,
    cantor_graph,
    family_system,
    half_half_segment_graph,
    phase_graph,
    random_graphs,
    three_cycle_graph,
    two_ratio_graph,
)

from gdcover import asymptotics, covering, schema
from gdcover.asymptotics import (
    analyze,
    classify_regime,
    cross_check,
    estimate_limit,
)
from gdcover.covering import lattice_grid, profile, profile_at
from gdcover.errors import InconclusiveRegimeError, ResourceLimitError, ValidationError
from gdcover.geometry import Box, Primitive, Similarity
from gdcover.graph import Edge, MWGraph, strongly_connected
from gdcover.lattice import classify_graph
from gdcover.spectral import solve_s0


EXPECTED_REGIMES = {
    "cantor": "SmallCondensation-Lattice",
    "cantor_point": "SmallCondensation-Lattice",
    "cantor_segment": "LargeCondensation",
    "dust2d_edge": "LargeCondensation",
    "rotated2d": "SmallCondensation-Lattice",
    "sierpinski": "SmallCondensation-Lattice",
    "two_ratio": "SmallCondensation-Dense",
    "two_vertex": "SmallCondensation-Lattice",
}


class TestClassifyRegime:
    def test_bundled_regimes(self, bundled, spectral_cache):
        for name, want in EXPECTED_REGIMES.items():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                res = classify_regime(bundled[name], spectral_cache[name])
            assert res.regime == want, name

    def test_divergence_under_scosc_is_silent(self, cantor_segment, spectral_cache):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = classify_regime(cantor_segment, spectral_cache["cantor_segment"])
        assert res.regime == "LargeCondensation"
        assert res.notes == ()

    def test_divergence_without_scosc_warns(self, bundled, spectral_cache):
        dust = bundled["dust2d_edge"]
        assert dust.separation != "SCOSC"
        with pytest.warns(UserWarning, match="SCOSC"):
            res = classify_regime(dust, spectral_cache["dust2d_edge"])
        assert res.regime == "LargeCondensation"
        assert any("separation" in note for note in res.notes)

    def test_dimension_tie_raises(self):
        g = half_half_segment_graph()
        with pytest.raises(InconclusiveRegimeError):
            classify_regime(g, solve_s0(g))

    def test_result_carries_lattice_and_integrals(self, cantor, spectral_cache):
        res = classify_regime(cantor, spectral_cache["cantor"])
        assert res.lattice.is_lattice and res.lattice.tau == pytest.approx(LN3)
        assert set(res.integrals) == {"X"}
        assert res.integrals["X"].kind == "Finite"


class TestEstimateLimit:
    def test_lattice_report_shape(self, cantor, spectral_cache):
        res = analyze(cantor, n_min=4, n_max=8, y_samples=4)
        rep = res.report
        assert rep.kind == "periodic"
        assert rep.estimates.shape == (4, 1)
        assert rep.tau == pytest.approx(LN3, rel=1e-12)
        assert rep.n_values == (4, 5, 6, 7, 8)
        assert rep.y_grid.shape == (4,)
        assert np.min(rep.total_estimate) > 0
        assert np.all(rep.drift < 0.05)

    def test_dense_report_shape(self, two_ratio, spectral_cache):
        sd = spectral_cache["two_ratio"]
        prof = profile(two_ratio, 2.0, 9.0, 21, spectral=sd)
        rep = estimate_limit(prof, "SmallCondensation-Dense")
        assert rep.kind == "constant"
        assert rep.estimates.shape == (1,)
        assert rep.total_estimate == pytest.approx(rep.estimates[0])
        assert len(rep.thirds_drift) == 3
        assert rep.drift_total >= 0

    def test_divergent_growth_rate_matches_dimension_gap(self, cantor_segment):
        res = analyze(cantor_segment)
        rep = res.report
        assert rep.kind == "divergent"
        assert res.cross is None
        assert rep.growth_monotone
        want = 1.0 - res.spectral.s0
        assert rep.growth_rate == pytest.approx(want, rel=0.15)

    def test_unknown_regime_rejected(self, cantor, spectral_cache):
        prof = profile_at(cantor, [1.0, 2.0], spectral=spectral_cache["cantor"])
        with pytest.raises(ValueError):
            estimate_limit(prof, "NoSuchRegime")

    def test_empty_profile_rejected(self, cantor, spectral_cache):
        prof = profile_at(cantor, [], spectral=spectral_cache["cantor"])
        with pytest.raises(ValidationError):
            estimate_limit(prof, "SmallCondensation-Dense")

    def test_short_dense_span_rejected(self, two_ratio, spectral_cache):
        prof = profile(two_ratio, 2.0, 4.0, 6, spectral=spectral_cache["two_ratio"])
        with pytest.raises(ValidationError):
            estimate_limit(prof, "SmallCondensation-Dense")

    def test_few_lattice_periods_rejected(self, cantor, spectral_cache):
        prof = profile(
            cantor, LN3, 3 * LN3, 2, period=LN3, spectral=spectral_cache["cantor"]
        )
        with pytest.raises(ValidationError):
            estimate_limit(prof, "SmallCondensation-Lattice")

    def test_untagged_samples_rejected_in_lattice_mode(self, cantor, spectral_cache):
        prof = profile_at(
            cantor, [n * LN3 for n in range(1, 6)], spectral=spectral_cache["cantor"]
        )
        with pytest.raises(ValidationError):
            estimate_limit(prof, "SmallCondensation-Lattice")

    def test_few_divergent_samples_rejected(self, cantor_segment):
        sd = solve_s0(cantor_segment)
        prof = profile_at(cantor_segment, [1.0, 2.0, 3.0], spectral=sd)
        with pytest.raises(ValidationError):
            estimate_limit(prof, "LargeCondensation")


def _lattice_edges(graph: MWGraph) -> bool:
    """Strongly connected, lattice, and every log(1/ratio) on the lattice."""
    if not graph.edges or not strongly_connected(graph):
        return False
    lat = classify_graph(graph)
    return lat.is_lattice and all(
        abs(e.log_ratio / lat.tau - round(e.log_ratio / lat.tau)) < 1e-9
        for e in graph.edges.values()
    )


# the bundled systems that are cross-checked, and the benchmark's arguments
# for the two that are slowest at README defaults
CROSS_CHECKED = ["cantor", "cantor_point", "rotated2d", "sierpinski", "two_ratio", "two_vertex"]
BENCH_ARGS = {name: dict(n_min=2, n_max=6, y_samples=4) for name in ("rotated2d", "sierpinski")}


def _check_without_counting(graph, res):
    """The cross-check of an analysis made again from its parts, with every
    walk, and so every count, forbidden."""
    with mock.patch.object(covering._Walk, "__init__", side_effect=AssertionError("walk")):
        return cross_check(graph, res.spectral, res.report, res.profile)


def _assert_same_check(got, want):
    for field in ("predicted", "measured", "rel_discrepancy"):
        a, b = getattr(got, field), getattr(want, field)
        assert (a.shape, a.tobytes()) == (b.shape, b.tobytes()), field
    assert got.max_rel_discrepancy == want.max_rel_discrepancy


def _dense_system(bundled, name):
    """A dense system by name, with the analyze arguments its tests use."""
    if name == "family4_dense":
        return schema.parse_system(family_system(4, False, 1)), {}
    if name == "long_edge":
        return two_ratio_graph(0.5, 1 / 250), {"t_min": 2.0, "t_max": 7.0}
    return bundled[name], {}


class TestCrossCheck:
    def test_cantor_prediction_matches_measurement(self):
        res = analyze(cantor_graph())
        assert res.cross is not None
        assert res.cross.kind == "periodic"
        assert res.cross.max_rel_discrepancy <= 0.02
        assert res.cross.predicted.shape == res.cross.measured.shape

    def test_divergent_report_rejected(self, cantor_segment, monkeypatch):
        monkeypatch.setattr(asymptotics, "_LARGE_N", range(3, 9))
        res = analyze(cantor_segment)
        with pytest.raises(ValueError):
            cross_check(cantor_segment, res.spectral, res.report, res.profile)

    @pytest.mark.parametrize("field", ["tau", "n_values"])
    def test_periodic_report_without_its_grid_rejected(self, field):
        g = cantor_graph()
        res = analyze(g, n_min=4, n_max=7, y_samples=2)
        report = dataclasses.replace(res.report, **{field: None})
        with pytest.raises(ValueError, match="sampling grid"):
            cross_check(g, res.spectral, report, res.profile)

    def test_dense_profile_below_zero_has_an_empty_window(self, two_ratio):
        # the forcing lives on t >= 0, so nothing of this profile predicts
        res = analyze(two_ratio, t_min=-10.0, t_max=-1.0)
        assert res.cross.predicted.tolist() == [0.0]
        assert res.cross.max_rel_discrepancy == 1.0

    @pytest.mark.parametrize("name", ["cantor", "cantor_point", "rotated2d", "two_vertex"])
    def test_window_equals_the_forcing_grid_oracle(self, bundled, name):
        # every log(1/ratio) sits on the lattice, so the weighted forcing
        # telescopes to the window exactly; sierpinski is left out, where
        # the oracle's child-shifted t values an ulp off a profile t fall
        # on the stopping-size tie
        graph = bundled[name]
        res = analyze(graph, n_min=2, n_max=6, y_samples=4)
        want = forcing_oracle.predicted(graph, res.spectral, res.report)
        np.testing.assert_allclose(res.cross.predicted, want, rtol=1e-12, atol=0)

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    )
    @given(graph=random_graphs().filter(_lattice_edges))
    def test_window_equals_the_oracle_on_random_lattice_systems(self, graph):
        # offset tau/2 only: at y = 0 a radius e^(-n tau) can equal a
        # stopping size, and the oracle's child-shifted t, an ulp off the
        # profile's, then counts on the other side of the tie
        sd = solve_s0(graph)
        regime = classify_regime(graph, sd)
        tau = regime.lattice.tau
        prof = profile_at(graph, lattice_grid(tau, range(1, 5), [tau / 2]), spectral=sd)
        report = estimate_limit(prof, regime)
        want = forcing_oracle.predicted(graph, sd, report)
        got = cross_check(graph, sd, report, prof).predicted
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_dense_window_is_near_the_fine_oracle(self, two_ratio):
        # the oracle integrates the same windows, ending at the profile's
        # last t = 14, on fresh counts at step 0.01; interpolating between
        # the profile's 24 samples lies within 0.1% of it
        res = analyze(two_ratio)
        assert res.cross.kind == "constant"
        want = forcing_oracle.dense_window(two_ratio, res.spectral, res.profile, step=0.01)
        np.testing.assert_allclose(res.cross.predicted, want, rtol=1e-3, atol=0)

    @pytest.mark.parametrize("name", ["two_ratio", "family4_dense", "long_edge"])
    def test_dense_window_is_the_profile_interpolant(self, bundled, name):
        graph, kw = _dense_system(bundled, name)
        res = analyze(graph, **kw)
        assert res.regime.regime == "SmallCondensation-Dense"
        ts, z = res.profile.t_values(), res.profile.ratio_matrix()
        end = ts[-1]
        if name == "long_edge":
            # log 250 = 5.52 exceeds the span 5: the window starts below the
            # first sample, where the interpolant is flat
            assert end - max(e.log_ratio for e in graph.edges.values()) < ts[0]
        col = {v: k for k, v in enumerate(graph.vertex_order)}
        sums = np.zeros(len(col))
        for e in graph.edges.values():
            a = max(0.0, end - e.log_ratio)
            knots = np.concatenate(([a], ts[(ts > a) & (ts < end)], [end]))
            y = np.interp(knots, ts, z[:, col[e.dst]])
            w = float(np.sum(np.diff(knots) * (y[1:] + y[:-1]) / 2))
            sums[col[e.src]] += e.ratio**res.spectral.s0 * w
        want = sums @ res.spectral.limit_matrix
        np.testing.assert_allclose(res.cross.predicted, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("name", ["two_ratio", "family4_dense"])
    def test_dense_cross_check_counts_nothing_new(self, bundled, name):
        graph, kw = _dense_system(bundled, name)
        res = analyze(graph, **kw)
        assert res.cross.kind == "constant"
        _assert_same_check(res.cross, _check_without_counting(graph, res))

    @pytest.mark.parametrize(
        "name, origin, kw",
        [(name, origin, BENCH_ARGS.get(name, {})) for name in CROSS_CHECKED for origin in (0.0, 0.316)]
        + [(name, 0.0, {}) for name in sorted(BENCH_ARGS)],
        ids=[f"{name}-{origin}" for name in CROSS_CHECKED for origin in (0.0, 0.316)]
        + [f"{name}-readme" for name in sorted(BENCH_ARGS)],
    )
    def test_standalone_check_is_the_analysis_check(self, bundled, name, origin, kw):
        # the profile carries its grid origin and every count the check
        # reads, so a check made apart from its analysis is that analysis's
        # check, on any grid, and it builds no count table and no walk
        graph = bundled[name]
        res = analyze(graph, grid_origin=origin, **kw)
        _assert_same_check(res.cross, _check_without_counting(graph, res))

    @pytest.mark.parametrize(
        "origin, want",
        [
            (0.0, [1.8587246873210084, 2.231085877243691, 2.758376580330351,
                   2.167162717613384, 2.2265100641207205, 2.1557514355450187,
                   2.2154791967513923, 2.360690914103295]),
            (0.316, [2.4143112399905675, 2.3912075284012264, 2.560213208781428,
                     2.4165299543567613, 2.4749462005820715, 2.326040385152653,
                     2.3669305863092176, 2.4877784635407845]),
        ],
        ids=["zero", "shifted"],
    )
    def test_long_lattice_edge_is_counted_on_the_profile_grid(self, origin, want, monkeypatch):
        # edge b's window of 8 periods reaches n = 3, below the profile's
        # n = 4..10: the check counts those 8 points, one per offset, on a
        # profile of their own at the profile's grid origin, and nothing else;
        # the main profile comes through covering.profile, the extra one not
        graph = schema.parse_system(LONG_EDGE_SYSTEM)
        profiles = []

        def keep(*args, **kwargs):
            profiles.append(profile_at(*args, **kwargs))
            return profiles[-1]

        monkeypatch.setattr(covering, "profile_at", keep)
        monkeypatch.setattr(asymptotics, "profile_at", keep)
        res = analyze(graph, grid_origin=origin)
        main, extra = profiles
        assert main is res.profile
        tau = res.report.tau
        assert extra.grid_origin == res.profile.grid_origin == (origin,)
        assert [s.t for s in extra.samples] == [3 * tau + y for y in res.report.y_grid.tolist()]
        assert len(extra.samples) == 8
        prof = profile_at(graph, [s.t for s in extra.samples], grid_origin=origin)
        assert [s.counts for s in extra.samples] == [s.counts for s in prof.samples]
        assert res.cross.predicted[:, 0].tolist() == want

    def test_sierpinski_zero_shift_is_not_early(self, bundled):
        # at y = 0 the window points are the profile's own n*tau values, so
        # the prediction reads the counts the estimate read and agrees with
        # it there, although tau - log 2 = -1.1e-16 puts them on a tie
        res = analyze(bundled["sierpinski"], n_min=2, n_max=6, y_samples=4)
        cross = res.cross
        assert cross.kind == "periodic" and cross.y_grid[0] == 0.0
        assert cross.predicted[0][0] == pytest.approx(cross.measured[0][0], rel=1e-9)
        assert cross.max_rel_discrepancy <= 0.05

    @pytest.mark.parametrize("make", [three_cycle_graph, phase_graph])
    def test_phased_lattice_skips_the_cross_check(self, make):
        # an edge off the lattice tau*Z joins vertices of different phases,
        # which the window does not model: a note instead of a rounded window
        graph = make()
        res = analyze(graph, n_min=2, n_max=6, y_samples=2)
        assert res.regime.regime == "SmallCondensation-Lattice"
        assert any(res.lattice.phases)
        assert res.cross is None
        assert [n for n in res.notes if n.startswith("cross-check skipped")]
        with pytest.raises(ValidationError, match="vertex phases"):
            cross_check(graph, res.spectral, res.report, res.profile)


class TestAnalyze:
    def test_two_vertex_total_is_vertex_sum(self, two_vertex):
        # seed boxes are disjoint, so union counts split exactly
        res = analyze(two_vertex, n_min=4, n_max=8, y_samples=4)
        totals = res.report.estimates.sum(axis=1)
        assert np.max(np.abs(totals - res.report.total_estimate)) <= 1e-9

    def test_scaling_the_coordinates_changes_nothing_structural(self, cantor_point):
        third = 1.0 / 3.0
        scaled = MWGraph(
            dimension=1,
            vertices={"X": Box((0.0,), (3.0,))},
            edges=[
                Edge("a", "X", "X", Similarity(third, [[1.0]], [0.0])),
                Edge("b", "X", "X", Similarity(third, [[1.0]], [2.0])),
            ],
            condensation={"X": [Primitive.point((1.5,))]},
            separation="SOSC",
        )
        kw = dict(n_min=4, n_max=8, y_samples=4)
        a = analyze(cantor_point, **kw)
        b = analyze(scaled, **kw)
        assert a.regime.regime == b.regime.regime
        assert b.spectral.s0 == pytest.approx(a.spectral.s0, abs=1e-12)
        assert b.report.tau == pytest.approx(a.report.tau, abs=1e-12)
        # tripling space shifts t by one full period, so per-offset limits
        # scale by exactly 3^s0 = 2 up to window drift
        ratio = b.report.estimates / a.report.estimates
        assert np.max(np.abs(ratio - 2.0)) <= 0.02 * 2.0

    def test_notes_propagate_from_regime(self, bundled, monkeypatch):
        dust = bundled["dust2d_edge"]
        monkeypatch.setattr(asymptotics, "_LARGE_N", range(2, 7))
        with pytest.warns(UserWarning):
            res = analyze(dust)
        assert res.notes
        assert res.report.kind == "divergent"

    # analyze's grid is one covering.profile call: a bad knob is refused
    # there, by name, before any sample is counted
    @pytest.mark.parametrize("kw", [dict(y_samples=2.5), dict(y_samples=True),
                                    dict(y_samples=0), dict(y_samples=np.float64(8.0))])
    def test_lattice_offsets_must_be_a_positive_integer(self, cantor, kw):
        with pytest.raises(ValueError, match="samples must be an integer"):
            analyze(cantor, **kw)

    @pytest.mark.parametrize("samples", [2.5, True, 0])
    def test_dense_samples_must_be_a_positive_integer(self, two_ratio, samples):
        with pytest.raises(ValueError, match="samples must be an integer"):
            analyze(two_ratio, dense_samples=samples)

    def test_reversed_t_range_names_t_max(self, two_ratio):
        with pytest.raises(ValueError, match="t_max"):
            analyze(two_ratio, t_min=5.0, t_max=3.0)

    @pytest.mark.parametrize("n_min, n_max", [(5, 3), (-3, 2)], ids=["reversed", "negative"])
    def test_period_range_is_checked_first(self, cantor, n_min, n_max):
        # a reversed range named profile's t_max, and a negative n_min sampled
        # t < 0; both are refused by name before the graph is validated
        with mock.patch("gdcover.asymptotics.validate", side_effect=AssertionError("validated")), \
                pytest.raises(ValueError, match=f"n_min = {n_min}, n_max = {n_max}"):
            analyze(cantor, n_min=n_min, n_max=n_max)

    @pytest.mark.parametrize("name, kw, n", [
        ("cantor", dict(n_min=0, n_max=3, y_samples=10), 40),
        ("two_ratio", dict(t_min=0.0, t_max=5.0, dense_samples=100), 100),
    ], ids=["lattice", "dense"])
    def test_sample_cap_is_exact(self, bundled, name, kw, n):
        # (n_max - n_min + 1) * y_samples lattice samples, or dense_samples:
        # at the cap the analysis runs (no count here passes it either), one
        # sample past it is refused before any is built
        with mock.patch.object(covering, "CELL_CAP", n):
            assert len(analyze(bundled[name], **kw).profile.samples) == n
        with mock.patch.object(covering, "CELL_CAP", n - 1), \
                pytest.raises(ResourceLimitError, match=f"needs {n} samples"):
            analyze(bundled[name], **kw)
