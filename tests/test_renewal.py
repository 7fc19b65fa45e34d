import math
import warnings
from functools import lru_cache

import numpy as np
import pytest

from helpers import LN2, LN3, dirac, phase_graph, shifted_scaled, two_vertex_graph

from gdcover.errors import NumericalError, ResourceLimitError, ValidationError
from gdcover.lattice import classify_graph
from gdcover.renewal import (
    AtomicMeasure,
    MatrixMeasure,
    StepFunction,
    add_steps,
    check_dri,
    limit_value,
    renewal_solve,
    transfer_measure,
    vector_convolve,
)
from gdcover.spectral import build_matrix, build_moment_matrix, solve_s0


def scalar_measure(*atoms) -> MatrixMeasure:
    return MatrixMeasure([[AtomicMeasure.from_atoms(atoms)]])


# the classical two-atom example: mass-one measure, unit indicator forcing
MIX = ((LN2, 0.5), (LN3, 0.5))
MIX_LIMIT = LN2 / ((LN2 + LN3) / 2)

# a chain wider than the 1e-12 merge tolerance: 0.6e-12 merges into 0, 1.2e-12
# is a new anchor, and 1.8e-12 merges into it
CHAIN = (0.0, 0.6e-12, 1.2e-12, 1.8e-12)


class TestAtomicMeasure:
    def test_dirac_and_moments(self):
        mu = dirac(2.0, 0.5)
        assert mu.total_mass() == 0.5
        assert mu.first_moment() == 1.0
        assert mu.min_location() == 2.0

    def test_near_coincident_atoms_merge_mass_exactly(self):
        a = 1.0
        b = math.nextafter(a, math.inf)
        mu = AtomicMeasure.from_atoms([(a, 0.25), (b, 0.75)])
        assert mu.n_atoms == 1
        assert mu.total_mass() == 1.0

    def test_wide_chain_merges_onto_sequential_anchors(self):
        mu = AtomicMeasure.from_atoms([(x, 1.0) for x in CHAIN])
        assert mu.locations.tolist() == [0.0, 1.2e-12]
        assert mu.weights.tolist() == [2.0, 2.0]

    def test_distinct_atoms_stay_separate(self):
        mu = AtomicMeasure.from_atoms([(1.0, 0.5), (1.0 + 1e-6, 0.5)])
        assert mu.n_atoms == 2

    def test_negative_locations_rejected(self):
        with pytest.raises(ValidationError):
            AtomicMeasure.from_atoms([(-0.5, 1.0)])

    def test_zero_weights_dropped(self):
        mu = AtomicMeasure.from_atoms([(1.0, 0.0), (2.0, 1.0)])
        assert mu.n_atoms == 1

    @pytest.mark.parametrize("atom", [(math.inf, 1.0), (math.nan, 1.0), (1.0, math.nan)],
                             ids=["inf-location", "nan-location", "nan-weight"])
    def test_non_finite_atoms_rejected(self, atom):
        with pytest.raises(ValidationError, match="finite"):
            AtomicMeasure.from_atoms([(0.5, 0.5), atom])


class TestTransferMeasure:
    def test_masses_equal_transposed_pressure_matrix(self, bundled, spectral_cache):
        for name, g in bundled.items():
            sd = spectral_cache[name]
            m = transfer_measure(g, sd.s0)
            assert np.max(
                np.abs(m.mass_matrix() - build_matrix(g, sd.s0).T)
            ) <= 1e-12, name

    def test_moments_match_spectral_builder(self, bundled, spectral_cache):
        for name, g in bundled.items():
            sd = spectral_cache[name]
            m = transfer_measure(g, sd.s0)
            assert np.max(
                np.abs(m.moment_matrix() - build_moment_matrix(g, sd.s0).T)
            ) <= 1e-12, name

    def test_atom_locations_are_log_contractions(self):
        g = two_vertex_graph()
        sd = solve_s0(g)
        m = transfer_measure(g, sd.s0)
        parts = [mu.locations for row in m.entries for mu in row]
        locs = sorted(set(np.round(np.concatenate(parts), 12)))
        assert locs == pytest.approx([LN2, math.log(4.0)], rel=1e-9)


class TestStepFunction:
    def test_indicator_evaluation_and_integral(self):
        f = StepFunction.indicator(1.0, 3.0)
        assert f(0.5) == 0.0
        assert f(1.0) == 1.0
        assert f(2.9999) == 1.0
        assert f(3.0) == 0.0
        assert f.integral() == pytest.approx(2.0)

    def test_right_continuity_at_breakpoints(self):
        f = StepFunction([0.0, 1.0], [5.0, 0.0])
        assert f(1.0) == 0.0
        assert f(math.nextafter(1.0, -math.inf)) == 5.0

    def test_shifted_scaled(self):
        f = StepFunction.indicator(0.0, 1.0)
        g = shifted_scaled(f, 2.0, 3.0)
        assert g(2.5) == 3.0 and g(1.5) == 0.0
        assert g.integral() == pytest.approx(3.0)

    def test_clipped(self):
        f = StepFunction.indicator(0.0, 10.0)
        g = f.clipped(4.0)
        assert g(3.9) == 1.0 and g(4.0) == 0.0
        assert g.integral() == pytest.approx(4.0)

    @pytest.mark.parametrize("t_max", [0.0, 1.0, 1.5, 2.0, 5.0])
    def test_clipped_at_and_between_breakpoints(self, t_max):
        # a breakpoint at t_max itself lies outside (-inf, t_max)
        f = StepFunction([0.0, 1.0, 2.0], [1.0, 2.0, 0.0])
        g = f.clipped(t_max)
        want = {0.0: ([], []), 1.0: ([0.0, 1.0], [1.0, 0.0]),
                1.5: ([0.0, 1.0, 1.5], [1.0, 2.0, 0.0]),
                2.0: ([0.0, 1.0, 2.0], [1.0, 2.0, 0.0]),
                5.0: ([0.0, 1.0, 2.0], [1.0, 2.0, 0.0])}[t_max]
        assert g.breakpoints.tolist() == want[0]
        assert g.values.tolist() == want[1]

    @pytest.mark.parametrize("bps", [[0.0, math.nan, 1.0], [math.nan], [1.0, 1.0], [math.inf, math.inf]],
                             ids=["nan-inside", "nan-alone", "repeated", "repeated-inf"])
    def test_unordered_breakpoints_rejected(self, bps):
        # NaN and inf - inf compare false both ways, so no difference of
        # neighbours can show them out of order
        with pytest.raises(ValueError, match="strictly increasing"):
            StepFunction(bps, [1.0] * len(bps))

    def test_infinite_breakpoints_accepted(self):
        f = StepFunction([-math.inf, 0.0, math.inf], [1.0, 2.0, 0.0])
        assert f(-1.0) == 1.0 and f(5.0) == 2.0

    def test_convolve_with_dirac_shifts(self):
        f = StepFunction.indicator(0.0, 1.0)
        g = f.convolve_measure(dirac(2.0, 0.5))
        assert g(2.5) == 0.5 and g(1.5) == 0.0

    def test_vector_convolve_row_times_matrix(self):
        d = dirac
        m = MatrixMeasure([[d(1.0, 1.0), d(2.0, 2.0)], [d(0.5, 3.0), AtomicMeasure.zero()]])
        fs = [StepFunction.indicator(0.0, 1.0), StepFunction([0.0, 1.0], [2.0, 0.0])]
        out = vector_convolve(fs, m)
        # component 0: f0 shifted by 1 + f1 (weight 3) shifted by 0.5
        assert out[0](1.2) == pytest.approx(1.0 + 6.0)
        assert out[0](0.7) == pytest.approx(6.0)
        # component 1: only f0 contributes, weight 2 at shift 2
        assert out[1](2.5) == pytest.approx(2.0)
        assert out[1](1.5) == 0.0



class TestAddSteps:
    def test_sum_of_indicators(self):
        f = StepFunction.indicator(0.0, 2.0)
        g = StepFunction.indicator(1.0, 3.0)
        h = add_steps([f, g])
        assert h(0.5) == 1.0 and h(1.5) == 2.0 and h(2.5) == 1.0 and h(3.5) == 0.0

    def test_twin_breakpoints_one_ulp_apart_keep_both_jumps(self):
        # the same abscissa reached along two float paths: the merged
        # representation must still carry the full combined jump
        a = LN2 + LN3
        b = math.log(6.0)
        if a == b:
            b = math.nextafter(a, math.inf)
        f = StepFunction.indicator(min(a, b), 3.0)
        g = StepFunction.indicator(max(a, b), 3.0)
        h = add_steps([f, g])
        assert h(1.8) == 2.0
        assert h(2.9) == 2.0
        assert h.integral() == pytest.approx(
            (3.0 - a) + (3.0 - b), rel=1e-9
        )

    def test_wide_chain_keeps_sequential_anchors(self):
        h = add_steps([StepFunction([x], [1.0]) for x in reversed(CHAIN)])
        assert h.breakpoints.tolist() == [0.0, 1.2e-12]
        # each anchor is read 1e-12 past itself: 0 and 0.6e-12 have jumped there
        assert h.values.tolist() == [2.0, 4.0]

    def test_equal_value_runs_collapse(self):
        f = StepFunction([0.0, 1.0, 2.0], [1.0, 1.0, 0.0])
        h = add_steps([f, StepFunction.zero()])
        assert h(0.5) == h(1.5) == 1.0
        assert h(2.5) == 0.0


class TestCheckDri:
    def test_unit_indicator(self):
        assert check_dri([StepFunction.indicator(0.0, 1.0)]) is True

    def test_exponential_steps_sum_to_geometric_series(self):
        # the verdict holds, and the integral limit_value then reads is
        # 0.01 * sum_k exp(-0.01 k) over the 2000 pieces
        ts = np.arange(0.0, 20.0, 0.01)
        f = StepFunction(np.append(ts, 20.0), np.append(np.exp(-ts), 0.0))
        assert check_dri([f])
        want = 0.01 * (1.0 - math.exp(-20.0)) / (1.0 - math.exp(-0.01))
        assert f.integral() == pytest.approx(want, rel=1e-12)

    def test_negative_support_fails(self):
        assert not check_dri([StepFunction([-1.0, 0.0], [1.0, 0.0])])
        # a zero piece left of 0 is no support there
        assert check_dri([StepFunction([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0])])

    def test_non_decaying_tail_is_infinite(self):
        f = StepFunction([0.0], [1.0])
        assert not check_dri([f])
        assert math.isinf(f.integral())

    @pytest.mark.parametrize(
        "components, verdict",
        [
            ([([0.0, 1.0, 2.0], [1.0, math.inf, 0.0])], False),
            ([([0.0, 1.0, 2.0], [1.0, -math.inf, 0.0])], False),
            ([([0.0, 1.0, 2.0], [1.0, math.nan, 0.0])], False),
            # one on all of [0, inf): its last piece is zero only past infinity
            ([([0.0, math.inf], [1.0, 0.0])], False),
            ([([], []), ([0.0, 1.0], [1.0, 0.0])], True),
            ([([0.0, 1.0], [1.0, 0.0]), ([0.0], [1.0])], False),
        ],
        ids=["inf_piece", "minus_inf_piece", "nan_piece", "infinite_breakpoint",
             "empty_component", "one_failing_component"],
    )
    def test_verdict(self, components, verdict):
        assert check_dri([StepFunction(bp, vals) for bp, vals in components]) is verdict

    def test_overflowing_forcing_passes_and_its_limit_is_refused(self):
        # 1e300 on [0, 1e10] is integrable, but its integral overflows a float
        f = StepFunction([0.0, 1e10], [1e300, 0.0])
        g = StepFunction([0.0, 10 * LN3], [1e308, 0.0])
        assert check_dri([f]) and check_dri([g])
        lat = type("L", (), {"is_lattice": True, "tau": LN3})()
        with np.errstate(over="ignore"):
            with pytest.raises(NumericalError, match="overflows a float"):
                limit_value(scalar_measure(*MIX), [f])
            with pytest.raises(NumericalError, match="overflows a float"):
                limit_value(scalar_measure((LN3, 1.0)), [g], lattice=lat)


class TestRenewalSolve:
    def test_scalar_two_atom_solution_is_exact(self):
        m = scalar_measure(*MIX)
        forcing = [StepFunction.indicator(0.0, LN2)]
        fs = renewal_solve(m, forcing, 30.0)

        # independent oracle: unroll f(t) = L(t) + f(t-ln2)/2 + f(t-ln3)/2
        # over the integer grid of (i, j) shifts
        def oracle(t0: float) -> float:
            @lru_cache(maxsize=None)
            def rec(i: int, j: int) -> float:
                x = t0 - i * LN2 - j * LN3
                if x < 0:
                    return 0.0
                base = 1.0 if x < LN2 else 0.0
                return base + 0.5 * rec(i + 1, j) + 0.5 * rec(i, j + 1)

            return rec(0, 0)

        rng = np.random.default_rng(5)
        for t in rng.uniform(0.0, 29.9, 40):
            assert fs[0](t) == pytest.approx(oracle(float(t)), abs=1e-9)

    def test_scalar_fixed_point_residual(self):
        m = scalar_measure(*MIX)
        forcing = [StepFunction.indicator(0.0, LN2)]
        fs = renewal_solve(m, forcing, 30.0)
        conv = fs[0].convolve_measure(m.entry(0, 0))
        ts = np.linspace(0.0, 30.0, 1000, endpoint=False)
        resid = np.abs(fs[0](ts) - (conv(ts) + forcing[0](ts)))
        assert float(resid.max()) <= 1e-9

    def test_scalar_limit_reached(self):
        m = scalar_measure(*MIX)
        forcing = [StepFunction.indicator(0.0, LN2)]
        lim = limit_value(m, forcing)
        assert lim.kind == "constant"
        assert lim.values[0] == pytest.approx(MIX_LIMIT, abs=1e-12)
        # the solution itself settles onto the limit: one percent over the
        # last unit window once the horizon is long enough
        fs = renewal_solve(m, forcing, 40.0)
        ts = np.linspace(39.0, 40.0, 200, endpoint=False)
        assert np.max(np.abs(fs[0](ts) - MIX_LIMIT)) <= 0.01 * MIX_LIMIT

    def test_lattice_scalar_is_identically_one(self):
        m = scalar_measure((LN3, 1.0))
        forcing = [StepFunction.indicator(0.0, LN3)]
        fs = renewal_solve(m, forcing, 30.0)
        ts = np.linspace(0.0, 30.0, 997, endpoint=False)
        assert np.max(np.abs(fs[0](ts) - 1.0)) <= 1e-9
        lat = type("L", (), {"is_lattice": True, "tau": LN3})()
        lim = limit_value(m, forcing, lattice=lat, samples_per_period=32)
        assert lim.kind == "periodic"
        assert np.max(np.abs(lim.values - 1.0)) <= 1e-12

    def test_zero_forcing_gives_zero_solution(self):
        m = scalar_measure(*MIX)
        fs = renewal_solve(m, [StepFunction.zero()], 10.0)
        assert fs[0].is_zero
        lim = limit_value(m, [StepFunction.zero()])
        assert lim.values[0] == 0.0

    def test_wrong_mass_rejected(self):
        m = scalar_measure((LN2, 0.4), (LN3, 0.4))
        with pytest.raises(NumericalError):
            renewal_solve(m, [StepFunction.indicator(0.0, 1.0)], 5.0)
        # limit_value alone reaches the check too: it lives in the right Perron run
        with pytest.raises(NumericalError, match="expected 1"):
            limit_value(scalar_measure((LN2, 0.4), (LN3, 0.4)), [StepFunction.indicator(0.0, 1.0)])

    def test_reducible_matrix_rejected(self):
        d = dirac
        m = MatrixMeasure(
            [[d(1.0, 1.0), AtomicMeasure.zero()], [AtomicMeasure.zero(), d(1.0, 1.0)]]
        )
        forcing = [StepFunction.indicator(0.0, 1.0), StepFunction.indicator(0.0, 1.0)]
        with pytest.raises(NumericalError):
            renewal_solve(m, forcing, 5.0)
        # limit_value alone reaches the check too: it lives in the right Perron run
        fresh = MatrixMeasure(m.entries)
        with pytest.raises(NumericalError, match="reducible"):
            limit_value(fresh, forcing)

    def test_forcing_on_negative_axis_rejected(self):
        m = scalar_measure(*MIX)
        bad = [StepFunction([-1.0, 0.5], [1.0, 0.0])]
        with pytest.raises(ValidationError):
            renewal_solve(m, bad, 5.0)

    def test_overflowing_solution_is_refused_without_a_warning(self):
        # 1e308 on [0, 1000] passes check_dri, but the series' sum of its
        # shifted copies overflows: one NumericalError, no numpy warning
        m = scalar_measure((LN2, 0.5), (2 * LN2, 0.5))
        forcing = [StepFunction([0.0, 1e3], [1e308, 0.0])]
        assert check_dri(forcing)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="the renewal solution overflows a float"):
                renewal_solve(m, forcing, 12.0)

    def test_series_past_the_term_cap(self):
        # ceil(horizon / lambda_min) terms: refused past the cap before any
        # is formed
        m = scalar_measure(*MIX)
        forcing = [StepFunction.indicator(0.0, 1.0)]
        with pytest.raises(ResourceLimitError, match="needs 1442696 terms"):
            renewal_solve(m, forcing, 1e6)

    def test_two_vertex_system_settles_onto_periodic_limit(self):
        g = two_vertex_graph()
        sd = solve_s0(g)
        m = transfer_measure(g, sd.s0)
        forcing = [
            StepFunction.indicator(0.0, 0.4),
            StepFunction([0.0, 0.7], [2.0, 0.0]),
        ]
        lat = classify_graph(g)
        assert lat.is_lattice
        fs = renewal_solve(m, forcing, 30.0)
        lim = limit_value(m, forcing, lattice=lat, samples_per_period=16)
        assert lim.kind == "periodic"
        n_late = int(30.0 / lim.tau) - 2
        for row, y in enumerate(lim.y_grid):
            t = n_late * lim.tau + y
            for j in range(2):
                assert fs[j](t) == pytest.approx(lim.values[row, j], rel=1e-6)

    def test_phased_system_settles_onto_shifted_periodic_limit(self):
        # hop has log-ratio ln3, off the lattice ln2 Z; Q lags by ln(3/2)
        g = phase_graph()
        m = transfer_measure(g, solve_s0(g).s0)
        forcing = [StepFunction.indicator(0.0, 1.0) for _ in range(2)]
        lat = classify_graph(g)
        with pytest.raises(NumericalError):
            # the same step without the phases: atoms of hop and back miss ln2 Z
            limit_value(m, forcing, lattice=type("L", (), {"is_lattice": True, "tau": lat.tau})())
        lim = limit_value(m, forcing, lattice=lat, samples_per_period=16)
        fs = renewal_solve(m, forcing, 40.0)
        for row, y in enumerate(lim.y_grid):
            for j, phase in enumerate(lat.phases):
                n = int((38.0 - y + phase) / lat.tau)
                t = y - phase + n * lat.tau
                assert fs[j](t) == pytest.approx(lim.values[row, j], abs=1e-9)

    @pytest.mark.parametrize("tau", [0.0, -1.0, math.nan, math.inf])
    def test_lattice_limit_needs_a_positive_finite_step(self, tau):
        # a NaN step used to loop forever: no t + k * nan ever exceeds the support
        m = scalar_measure((1.0, 1.0))
        lat = type("L", (), {"is_lattice": True, "tau": tau})()
        with pytest.raises(ValueError, match="positive finite step"):
            limit_value(m, [StepFunction.indicator(0.0, 1.0)], lattice=lat)

    @pytest.mark.parametrize("samples", [0, -3, 2.5])
    def test_samples_per_period_must_be_a_positive_integer(self, samples):
        g = two_vertex_graph()
        m = transfer_measure(g, solve_s0(g).s0)
        forcing = [StepFunction.indicator(0.0, 1.0)] * 2
        with pytest.raises(ValueError, match="samples_per_period must be an integer >= 1"):
            limit_value(m, forcing, lattice=classify_graph(g), samples_per_period=samples)

    def test_lattice_limit_rejects_off_grid_atoms(self):
        m = scalar_measure((LN3, 0.6), (1.0, 0.4))
        forcing = [StepFunction.indicator(0.0, 1.0)]
        lat = type("L", (), {"is_lattice": True, "tau": LN3})()
        with pytest.raises(NumericalError):
            limit_value(m, forcing, lattice=lat)
