import dataclasses
import warnings

import numpy as np
import pytest

from helpers import LN3, cantor_graph, half_half_segment_graph

from gdcover.asymptotics import (
    analyze,
    classify_regime,
    cross_check,
    estimate_limit,
)
from gdcover.covering import profile, profile_at
from gdcover.errors import InconclusiveRegimeError, ValidationError
from gdcover.geometry import Box, Primitive, Similarity
from gdcover.graph import Edge, MWGraph
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
        res = analyze(cantor, n_min=4, n_max=8, y_samples=4, with_cross_check=False)
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
        res = analyze(cantor_segment, large_n_min=3, large_n_max=10)
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


class TestCrossCheck:
    def test_cantor_prediction_matches_measurement(self):
        res = analyze(cantor_graph())
        assert res.cross is not None
        assert res.cross.kind == "periodic"
        assert res.cross.max_rel_discrepancy <= 0.02
        # the measured identity closes by construction
        assert res.cross.residual_max <= 1e-9
        assert res.cross.predicted.shape == res.cross.measured.shape

    def test_divergent_report_rejected(self, cantor_segment):
        res = analyze(cantor_segment, large_n_min=3, large_n_max=8)
        with pytest.raises(ValueError):
            cross_check(cantor_segment, res.spectral, res.report)

    @pytest.mark.parametrize("field", ["tau", "n_values"])
    def test_periodic_report_without_its_grid_rejected(self, field):
        g = cantor_graph()
        res = analyze(g, n_min=4, n_max=7, y_samples=2, with_cross_check=False)
        report = dataclasses.replace(res.report, **{field: None})
        with pytest.raises(ValueError, match="sampling grid"):
            cross_check(g, res.spectral, report)

    def test_sierpinski_zero_shift_is_not_early(self, bundled):
        # tau - log 2 = -1.1e-16 at y = 0: unsnapped, the child terms count
        # as not yet started and the prediction doubles to 2.0
        res = analyze(bundled["sierpinski"], n_min=2, n_max=6, y_samples=4)
        cross = res.cross
        assert cross.kind == "periodic" and cross.y_grid[0] == 0.0
        assert cross.predicted[0][0] == pytest.approx(cross.measured[0][0], rel=1e-9)
        assert cross.max_rel_discrepancy <= 0.05


class TestAnalyze:
    def test_two_vertex_total_is_vertex_sum(self, two_vertex):
        # seed boxes are disjoint, so union counts split exactly
        res = analyze(two_vertex, n_min=4, n_max=8, y_samples=4, with_cross_check=False)
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
        kw = dict(n_min=4, n_max=8, y_samples=4, with_cross_check=False)
        a = analyze(cantor_point, **kw)
        b = analyze(scaled, **kw)
        assert a.regime.regime == b.regime.regime
        assert b.spectral.s0 == pytest.approx(a.spectral.s0, abs=1e-12)
        assert b.report.tau == pytest.approx(a.report.tau, abs=1e-12)
        # tripling space shifts t by one full period, so per-offset limits
        # scale by exactly 3^s0 = 2 up to window drift
        ratio = b.report.estimates / a.report.estimates
        assert np.max(np.abs(ratio - 2.0)) <= 0.02 * 2.0

    def test_notes_propagate_from_regime(self, bundled):
        dust = bundled["dust2d_edge"]
        with pytest.warns(UserWarning):
            res = analyze(dust, large_n_min=2, large_n_max=6, with_cross_check=False)
        assert res.notes
        assert res.report.kind == "divergent"
