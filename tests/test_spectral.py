import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from helpers import (
    LN2,
    LN3,
    TWO_VERTEX_S0,
    bisect_root,
    cantor_graph,
    family_system,
    line_map,
    perron_triple,
    sierpinski_graph,
    two_vertex_graph,
)

from gdcover.covering import profile
from gdcover.errors import NumericalError
from gdcover.graph import Edge, MWGraph
from gdcover.geometry import Box
from gdcover import schema, spectral
from gdcover.spectral import (
    build_matrix,
    build_moment_matrix,
    is_irreducible,
    solve_s0,
    spectral_radius,
)


class TestBuildMatrix:
    def test_cantor_entries(self):
        g = cantor_graph()
        assert np.allclose(build_matrix(g, 0.0), [[2.0]], rtol=0, atol=0)
        assert np.allclose(build_matrix(g, 1.0), [[2.0 / 3.0]], rtol=1e-15)

    def test_two_vertex_at_s_equals_one(self):
        g = two_vertex_graph()
        a = build_matrix(g, 1.0)
        order = g.vertex_order
        i, j = order.index("P"), order.index("Q")
        assert a[i, i] == pytest.approx(0.5)
        assert a[i, j] == pytest.approx(0.25)
        assert a[j, i] == pytest.approx(0.5)
        assert a[j, j] == 0.0


class TestSpectralRadius:
    def test_scalar(self):
        assert spectral_radius(np.array([[2.0]])) == pytest.approx(2.0, rel=1e-12)

    def test_permutation_matrix(self):
        assert spectral_radius(np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(
            1.0, rel=1e-12
        )

    def test_quadratic_oracle(self):
        # largest root of x^2 - x/2 - 1/8 is (1 + sqrt(3)) / 4
        a = np.array([[0.5, 0.25], [0.5, 0.0]])
        assert spectral_radius(a) == pytest.approx(
            (1 + math.sqrt(3)) / 4, rel=1e-12
        )

    def test_five_cycle(self):
        # the eigenvalues of 0.7 times a 5-cycle lie on a circle of radius 0.7
        a = 0.7 * np.roll(np.eye(5), 1, axis=1)
        rho, u, v = perron_triple(a)
        assert abs(rho - 0.7) <= 1e-15
        assert np.max(np.abs(u - 0.2)) <= 1e-15
        assert np.max(np.abs(v - 0.2)) <= 1e-15

    @pytest.mark.parametrize(
        "a, match",
        [
            ([[1.0, math.nan], [1.0, 1.0]], "finite"),
            ([[math.nan]], "finite"),
            ([[math.inf, 1.0], [1.0, 1.0]], "finite"),
            (np.zeros((0, 0)), "nonempty"),
        ],
        ids=["nan-entry", "nan-scalar", "inf-entry", "empty"],
    )
    def test_non_finite_or_empty_matrix_rejected(self, a, match):
        with pytest.raises(ValueError, match=match):
            spectral_radius(a)

    def test_perron_triple_requires_irreducible(self):
        reducible = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert not is_irreducible(reducible)
        with pytest.raises(NumericalError):
            spectral._require_irreducible(reducible)

    def test_perron_triple_vectors(self):
        a = np.array([[0.5, 0.25], [0.5, 0.0]])
        rho, u, v = perron_triple(a)
        assert np.all(u > 0) and np.all(v > 0)
        assert np.allclose(a @ u, rho * u, atol=1e-12)
        assert np.allclose(v @ a, rho * v, atol=1e-12)


class TestSolveS0:
    def test_cantor_closed_form(self):
        sd = solve_s0(cantor_graph())
        assert abs(sd.s0 - LN2 / LN3) <= 1e-12

    def test_three_half_maps_closed_form(self):
        sd = solve_s0(sierpinski_graph())
        assert abs(sd.s0 - LN3 / LN2) <= 1e-12

    def test_two_vertex_against_independent_bisection(self):
        sd = solve_s0(two_vertex_graph())
        root = bisect_root(lambda s: 1 - 2.0**-s - 8.0**-s, 0.1, 1.0)
        assert abs(root - TWO_VERTEX_S0) <= 1e-12
        assert abs(sd.s0 - root) <= 1e-9
        # x = 2^{-s0} solves x^3 + x - 1 = 0
        x = 2.0**-sd.s0
        assert abs(x**3 + x - 1) <= 1e-12

    def test_perron_normalization_and_residuals(self, bundled, spectral_cache):
        for name, g in bundled.items():
            sd = spectral_cache[name]
            a = build_matrix(g, sd.s0)
            assert np.all(sd.u > 0) and np.all(sd.v > 0), name
            assert abs(sd.v.sum() - 1.0) <= 1e-12, name
            assert abs(float(sd.v @ sd.u) - 1.0) <= 1e-12, name
            assert np.max(np.abs(a @ sd.u - sd.u)) <= 1e-10, name
            assert np.max(np.abs(sd.v @ a - sd.v)) <= 1e-10, name

    def test_limit_matrix_identity(self, bundled, spectral_cache):
        # rank-one combination of the Perron vectors, normalized by the
        # mean log-contraction; rows follow the row-vector convention of
        # the renewal limits (the scalar case pins the orientation)
        for name in bundled:
            sd = spectral_cache[name]
            denom = float(sd.v @ sd.moment_matrix @ sd.u)
            want = np.outer(sd.v, sd.u) / denom
            assert np.max(np.abs(sd.limit_matrix - want)) <= 1e-12, name

    def test_moment_matrix_closed_forms(self):
        sd = solve_s0(cantor_graph())
        # two edges, each contributing (1/3)^s0 * ln3 = ln3 / 2
        assert sd.moment_matrix[0, 0] == pytest.approx(LN3, rel=1e-12)
        g = two_vertex_graph()
        sd2 = solve_s0(g)
        i, j = g.vertex_order.index("P"), g.vertex_order.index("Q")
        s0 = sd2.s0
        assert sd2.moment_matrix[i, i] == pytest.approx(0.5**s0 * LN2, rel=1e-12)
        assert sd2.moment_matrix[i, j] == pytest.approx(
            0.25**s0 * math.log(4.0), rel=1e-12
        )
        assert sd2.moment_matrix[j, i] == pytest.approx(0.5**s0 * LN2, rel=1e-12)
        assert sd2.moment_matrix[j, j] == 0.0

    def test_radius_strictly_decreasing_in_s(self):
        for g in (cantor_graph(), two_vertex_graph()):
            rhos = [spectral_radius(build_matrix(g, s)) for s in np.linspace(0, 2, 20)]
            assert all(a > b for a, b in zip(rhos, rhos[1:]))

    def test_single_map_root_sits_at_zero(self):
        # a single loop of ratio 1/2 has rho(s=0) = 1, never above
        g = MWGraph(
            1,
            {"X": Box((0.0,), (1.0,))},
            [Edge("a", "X", "X", line_map(0.5, 0.0))],
        )
        sd = solve_s0(g)
        assert sd.s0 == pytest.approx(0.0, abs=1e-9)

    def test_not_strongly_connected_is_an_error(self):
        g = MWGraph(
            1,
            {"P": Box((0.0,), (1.0,)), "Q": Box((2.0,), (3.0,))},
            [
                Edge("a", "P", "P", line_map(0.5, 0.0)),
                Edge("b", "P", "Q", line_map(0.25, 2.0)),
                Edge("c", "Q", "Q", line_map(0.5, 2.0)),
            ],
        )
        with pytest.raises(NumericalError):
            solve_s0(g)


def loops(*ratios) -> MWGraph:
    """One vertex on the unit interval with a self-loop per ratio."""
    return MWGraph(
        1,
        {"X": Box((0.0,), (1.0,))},
        [Edge(f"e{k}", "X", "X", line_map(r, 0.0)) for k, r in enumerate(ratios)],
    )


class TestNewtonIteration:
    @pytest.mark.parametrize(
        "make, num, den", [(cantor_graph, 2, 3), (sierpinski_graph, 3, 2)], ids=["cantor", "sierpinski"]
    )
    def test_closed_forms_within_one_ulp(self, make, num, den):
        # log num / log den to 40 digits
        with localcontext() as ctx:
            ctx.prec = 40
            exact = Decimal(num).ln() / Decimal(den).ln()
            s0 = solve_s0(make()).s0
            assert abs(Decimal(s0) - exact) <= Decimal(math.ulp(s0))

    def test_two_vertex_within_four_ulps(self):
        # x = 2^-s0 solves x^3 + x - 1 = 0; Newton's method for x to 50 digits
        with localcontext() as ctx:
            ctx.prec = 50
            x = Decimal("0.7")
            for _ in range(10):
                x -= (x**3 + x - 1) / (3 * x**2 + 1)
            exact = -x.ln() / Decimal(2).ln()
            s0 = solve_s0(two_vertex_graph()).s0
            assert abs(Decimal(s0) - exact) <= 4 * Decimal(math.ulp(s0))

    def test_no_iterate_passes_the_root(self, bundled, monkeypatch):
        # log radius(s) is convex, so every Newton iterate from s = 0 stays
        # below the root: no radius the solver reads falls below 1 by more
        # than the tolerance
        radii = []
        real = spectral._perron

        def reading(a):
            rho, vec = real(a)
            radii.append(rho)
            return rho, vec

        monkeypatch.setattr(spectral, "_perron", reading)
        graphs = dict(bundled)
        for n in (4, 8, 22):
            for lattice in (False, True):
                for seed in (1, 2):
                    graphs[f"family{n}-{lattice}-{seed}"] = schema.parse_system(
                        family_system(n, lattice, seed)
                    )
        for name, graph in graphs.items():
            radii.clear()
            solve_s0(graph)
            assert len(radii) >= 3, name  # s = 0, then right and left runs per step
            assert min(radii) >= 1.0 - spectral.S0_TOL, name

    def test_radius_below_one_at_zero_is_an_error(self):
        # a vertex without edges has radius 0 at s = 0
        with pytest.raises(NumericalError, match="no nonnegative dimension"):
            solve_s0(loops())

    def test_dimension_beyond_1e6_is_an_error(self):
        # log radius(s) = log 2 + s log(1 - 1e-8) is linear, so the first
        # step lands on the root near 6.9e7
        with pytest.raises(NumericalError, match="exceeds 1e6"):
            solve_s0(loops(1 - 1e-8, 1 - 1e-8))

    def test_residual_above_the_tolerance_is_an_error(self, monkeypatch):
        # radius estimates that jump from above 1 + 2 tol to 1 - 2 tol stop
        # the iteration where the residual breaks the contract
        tol = spectral.S0_TOL
        real = spectral._perron

        def jumping(a):
            rho, vec = real(a)
            return (rho if rho > 1.0 + 2 * tol else 1.0 - 2 * tol), vec

        monkeypatch.setattr(spectral, "_perron", jumping)
        with pytest.raises(NumericalError, match="dimension residual 2.000e-12"):
            solve_s0(two_vertex_graph())

    def test_matrix_reducible_on_the_way_to_s0_is_an_error(self):
        # ratio 1e-300 underflows to 0 well before s0 = log 3 / log 2, so
        # the pressure matrix there no longer joins P and Q
        tiny = 1e-300
        graph = MWGraph(
            1,
            {"P": Box((0.0,), (1.0,)), "Q": Box((2.0,), (3.0,))},
            [Edge(f"p{k}", "P", "P", line_map(0.5, 0.0)) for k in range(3)]
            + [
                Edge("pq", "P", "Q", line_map(tiny, 0.0)),
                Edge("qp", "Q", "P", line_map(tiny, 2.0)),
                Edge("qq", "Q", "Q", line_map(0.5, 2.0)),
            ],
        )
        with pytest.raises(NumericalError, match="irreducible"):
            solve_s0(graph)

    def test_iteration_cap_is_an_error(self, monkeypatch):
        monkeypatch.setattr(spectral, "NEWTON_MAX_ITER", 2)
        with pytest.raises(NumericalError, match="did not settle in 2 steps"):
            solve_s0(two_vertex_graph())


class TestBoxCountSlopeConsistency:
    """The measured count growth rate recovers the dimension on
    strongly separated examples at desk depth."""

    def test_cantor_slope(self):
        g = cantor_graph()
        sd = solve_s0(g)
        prof = profile(g, LN3, 8 * LN3, 8)
        ts = prof.t_values()
        counts = np.log(prof.totals())
        slope = np.polyfit(ts, counts, 1)[0]
        assert abs(slope - sd.s0) <= 0.05

    def test_rotated_plane_slope(self, bundled):
        g = bundled["rotated2d"]
        sd = solve_s0(g)
        step = -math.log(0.4)
        prof = profile(g, 3 * step, 8 * step, 6)
        slope = np.polyfit(prof.t_values(), np.log(prof.totals()), 1)[0]
        assert abs(slope - sd.s0) <= 0.05


def test_moment_matrix_builder_matches_spectral_data(bundled, spectral_cache):
    for name, g in bundled.items():
        sd = spectral_cache[name]
        assert np.allclose(
            build_moment_matrix(g, sd.s0), sd.moment_matrix, atol=1e-14
        ), name
