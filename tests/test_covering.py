import math

import numpy as np
import pytest

from helpers import LN2, LN3, cantor_graph, sierpinski_graph, two_vertex_graph

from gdcover.covering import (
    ForcingContext,
    GeometrySet,
    boundary_diagnostic,
    cell_union,
    condensation_covering,
    condensation_integral,
    corrected_forcing,
    count,
    f_star,
    generate,
    interval_cell_range,
    l_star,
    lattice_grid,
    measure_forcing,
    point_cell,
    profile,
    profile_at,
)
from gdcover.errors import ResourceLimitError
from gdcover.geometry import Primitive
from gdcover.graph import sample_path
from gdcover.spectral import solve_s0


ETA = 1e-9


def cells_of_points(pts, r, origin=0.0):
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    idx = np.floor((pts - origin) / r + ETA).astype(np.int64)
    return set(map(tuple, idx.tolist()))


def cantor_level_endpoints(depth=12):
    """Both endpoints of every depth-n middle-thirds cylinder.

    Any grid cell meeting a coarser cylinder interval contains one of
    these, so point cells of this sample reproduce exact covering counts
    for resolutions above 3^-depth.
    """
    starts = [0.0]
    for k in range(1, depth + 1):
        step = 3.0 ** -(k - 1) * (2.0 / 3.0)
        starts = [a for s in starts for a in (s, s + step)]
    w = 3.0**-depth
    return np.array(sorted(set(starts) | {s + w for s in starts}))


CANTOR_PTS = cantor_level_endpoints()


def cantor_count(t: float) -> int:
    return len(cells_of_points(CANTOR_PTS[:, None], math.exp(-t), 0.0))


class TestCellArithmetic:
    def test_unit_interval_thirds(self):
        assert interval_cell_range(0.0, 1.0, 1.0 / 3.0) == (0, 2)

    def test_unit_interval_tenths(self):
        lo, hi = interval_cell_range(0.0, 1.0, 0.1)
        assert hi - lo + 1 == 10

    def test_endpoint_on_plane_absorbed(self):
        # closed right endpoint sitting on a grid plane opens no new cell
        assert interval_cell_range(0.0, 0.3, 0.1) == (0, 2)

    def test_degenerate_interval(self):
        lo, hi = interval_cell_range(0.55, 0.55, 0.1)
        assert lo == hi == 5

    def test_point_cell_origin_shift(self):
        assert point_cell(0.25, 0.1) == 2
        assert point_cell(0.25, 0.1, origin=0.2) == 0
        assert point_cell(-0.05, 0.1) == -1


class TestGenerate:
    def test_cantor_depth_three(self, cantor):
        gs = generate(cantor, "X", 0.04)
        cyl = gs.cylinders()
        assert len(cyl) == 16 // 2
        for el in cyl:
            assert len(el.path.edges) == 3
            box = el.shape.bounding_box()
            assert box.diameter == pytest.approx(3.0**-3, rel=1e-12)

    def test_resolution_above_diameter_stops_at_root(self, cantor):
        gs = generate(cantor, "X", 1.0)
        assert gs.n_elements == 1
        (el,) = gs.cylinders()
        assert el.path.edges == ()
        assert el.shape.bounding_box().diameter == pytest.approx(1.0)

    def test_condensation_copies_on_interior_paths(self, cantor_point):
        gs = generate(cantor_point, "X", 0.04)
        assert len(gs.cylinders()) == 8
        pts = gs.condensation_images()
        # one copy per interior node: depths 0, 1, 2
        assert len(pts) == 1 + 2 + 4
        assert sorted(len(e.path.edges) for e in pts) == [0, 1, 1, 2, 2, 2, 2]

    def test_include_condensation_false(self, cantor_point):
        gs = generate(cantor_point, "X", 0.04, include_condensation=False)
        assert gs.condensation_images() == ()

    def test_nonpositive_resolution_rejected(self, cantor):
        with pytest.raises(ValueError):
            generate(cantor, "X", 0.0)

    def test_path_cap(self, cantor):
        with pytest.raises(ResourceLimitError):
            generate(cantor, "X", 1e-6, cap=100)


class TestCount:
    def test_cantor_powers_of_two(self, cantor):
        for n in range(1, 7):
            r = 3.0**-n
            res = count(generate(cantor, "X", r), r)
            assert res.total == 2**n, n

    def test_point_primitive_single_cell(self):
        assert condensation_covering(Primitive.point((0.42,)), 0.1) == 1

    def test_square_box_nine_cells(self):
        prim = Primitive.box((0.0, 0.0), (1.0, 1.0))
        assert condensation_covering(prim, 1.0 / 3.0) == 9

    def test_sierpinski_first_level(self):
        g = sierpinski_graph()
        res = count(generate(g, "X", 0.71), 0.71)
        # three half-size squares anchored at the corner cells
        assert res.total == 3

    def test_per_vertex_and_union(self, two_vertex):
        r = 0.05
        sets = {v: generate(two_vertex, v, r) for v in two_vertex.vertex_order}
        res = count(sets, r)
        assert res.vertex_order == ("P", "Q")
        assert res.total <= sum(res.per_vertex)
        assert all(c > 0 for c in res.per_vertex)

    def test_counting_below_generation_resolution_rejected(self, cantor):
        gs = generate(cantor, "X", 0.1)
        with pytest.raises(ValueError):
            cell_union(gs, 0.01)

    def test_cell_cap(self, cantor):
        gs = generate(cantor, "X", 1e-3)
        with pytest.raises(ResourceLimitError):
            cell_union(gs, 1e-3, cap=4)


class TestCountOracles:
    def test_cantor_counts_match_endpoint_sampling(self, cantor):
        rng = np.random.default_rng(11)
        for t in rng.uniform(0.3, 6.5, 12):
            r = math.exp(-t)
            res = count(generate(cantor, "X", r), r)
            assert res.total == cantor_count(t), t

    def test_two_vertex_union_matches_per_vertex_sum(self, two_vertex):
        # seed boxes [0,1] and [2,3] are far apart, so no shared cells
        r = 0.04
        sets = {v: generate(two_vertex, v, r) for v in two_vertex.vertex_order}
        res = count(sets, r)
        assert res.total == sum(res.per_vertex)


class TestMonotonicity:
    def test_nested_scales_never_lose_cells(self, cantor):
        # thirds refine the grid in place, so counts are monotone here
        totals = [
            count(generate(cantor, "X", 3.0**-n), 3.0**-n).total
            for n in range(1, 8)
        ]
        assert all(b >= a for a, b in zip(totals, totals[1:]))

    def test_coarse_count_bounded_by_fine(self, two_ratio):
        # generic scale pairs: a fine cell straddles at most two coarse
        # cells per axis, whence the factor 2^d
        rng = np.random.default_rng(3)
        for r in rng.uniform(0.02, 0.1, 4):
            coarse = count(generate(two_ratio, "X", 2.3 * r), 2.3 * r).total
            fine = count(generate(two_ratio, "X", r), r).total
            assert coarse <= 2 * fine


class TestNesting:
    @pytest.mark.parametrize("maker,vertex", [(cantor_graph, "X"), (two_vertex_graph, "P")])
    def test_attractor_samples_land_in_counted_cells(self, maker, vertex):
        graph = maker()
        sd = solve_s0(graph)
        r = 0.0313
        sets = {v: generate(graph, v, r) for v in graph.vertex_order}
        cells = set()
        for v in graph.vertex_order:
            cells |= cell_union(sets[v], r)
        rng = np.random.default_rng(7)
        for _ in range(1000):
            path = sample_path(graph, sd, r, rng=rng, start=vertex)
            sim = graph.path_map(path)
            seed = graph.seed_box(graph.path_terminal(path))
            x = np.array(seed.lo) + rng.uniform(size=graph.dimension) * (
                np.array(seed.hi) - np.array(seed.lo)
            )
            (cell,) = cells_of_points(sim.apply(x), r)
            assert cell in cells


class TestRescaling:
    @pytest.mark.parametrize(
        "maker,vertex,depth",
        [
            (cantor_graph, "X", 2),
            (cantor_graph, "X", 3),
            (two_vertex_graph, "P", 2),
            (two_vertex_graph, "P", 3),
            (sierpinski_graph, "X", 2),
        ],
    )
    def test_cylinder_counts_match_rescaled_whole(self, maker, vertex, depth):
        # counting inside one cylinder on the translated grid equals
        # counting the whole attractor of the terminal vertex at the
        # proportionally finer resolution
        graph = maker()
        sd = solve_s0(graph)
        rng = np.random.default_rng(10 * depth + len(vertex))
        for trial in range(2):
            path = sample_path(graph, sd, 0.6**depth, rng=rng, start=vertex)
            q = graph.path_ratio(path)
            sim = graph.path_map(path)
            b = np.asarray(sim.translation, dtype=float)
            term = graph.path_terminal(path)
            r = q * float(rng.uniform(0.05, 0.2))

            full = generate(graph, vertex, r)
            sub = tuple(
                el
                for el in full.elements
                if el.path.edges[: len(path.edges)] == path.edges
            )
            assert sub, "sampled cylinder must survive to the stopping scale"
            inside = GeometrySet(vertex, r, sub)
            got = count(inside, r, grid_origin=b).total

            want = count(generate(graph, term, r / q), r / q).total
            assert got == want


class TestTwoGrids:
    def test_origin_shift_changes_counts_boundedly(self, cantor):
        d = 1
        for n in (2, 4, 6):
            r = 3.0**-n
            gs = generate(cantor, "X", r)
            n0 = count(gs, r).total
            nh = count(gs, r, grid_origin=r / 2).total
            assert n0 <= 3**d * nh
            assert nh <= 3**d * n0

    def test_origin_shift_2d(self):
        g = sierpinski_graph()
        for r in (0.1, 0.03):
            gs = generate(g, "X", r)
            n0 = count(gs, r).total
            nh = count(gs, r, grid_origin=(r / 2, r / 2)).total
            assert n0 <= 9 * nh and nh <= 9 * n0


class TestSegmentCovering:
    def test_horizontal_ten_cells(self):
        prim = Primitive.segment((0.05, 0.35), (0.95, 0.35))
        assert condensation_covering(prim, 0.1) == 10

    @pytest.mark.parametrize(
        "a,b",
        [
            ((0.137, 0.071), (0.82, 0.63)),
            ((0.9, 0.12), (0.07, 0.81)),
            ((0.21, 0.33), (0.68, 0.37)),
        ],
    )
    @pytest.mark.parametrize("r", [0.1, 0.033])
    def test_walker_matches_dense_sampling(self, a, b, r):
        prim = Primitive.segment(a, b)
        got = condensation_covering(prim, r)
        ts = np.linspace(0.0, 1.0, 200_001)[:, None]
        pts = np.asarray(a) + ts * (np.asarray(b) - np.asarray(a))
        assert got == len(cells_of_points(pts, r))

    def test_walker_respects_origin(self):
        prim = Primitive.segment((0.05, 0.35), (0.95, 0.35))
        n = condensation_covering(prim, 0.1, grid_origin=(0.05, 0.0))
        assert n == 10  # planes shift with the grid: 0.15, 0.25, ..., 0.95


class TestCondensationIntegral:
    def test_no_condensation_is_zero(self, cantor, spectral_cache):
        res = condensation_integral(cantor, "X", spectral_cache["cantor"])
        assert res.kind == "Finite" and res.value == 0.0

    def test_point_integral_closed_form(self, cantor_point):
        sd = solve_s0(cantor_point)
        res = condensation_integral(cantor_point, "X", sd)
        assert res.kind == "Finite"
        assert res.exact
        assert res.value == pytest.approx(1.0 / sd.s0, rel=1e-14)

    def test_segment_above_dimension_diverges(self, cantor_segment):
        sd = solve_s0(cantor_segment)
        res = condensation_integral(cantor_segment, "X", sd)
        assert res.kind == "Infinite"
        assert res.exponent == 1.0

    def test_exact_dimension_tie_is_inconclusive(self):
        from helpers import half_half_segment_graph

        g = half_half_segment_graph()
        sd = solve_s0(g)
        assert sd.s0 == pytest.approx(1.0, abs=1e-12)
        res = condensation_integral(g, "X", sd)
        assert res.kind == "Inconclusive"

    def test_segment_integral_matches_piecewise_quadrature(self):
        seg = Primitive.segment((0.1, 0.3), (0.9, 0.3))
        g = sierpinski_graph(condensation={"X": [seg]})
        sd = solve_s0(g)
        res = condensation_integral(g, "X", sd)
        assert res.kind == "Finite" and res.exact

        # exact piecewise integration of ceil(x1/r) - floor(x0/r) over the
        # jump radii down to r_min, plus the analytic linear tail
        s, x0, x1 = sd.s0, 0.1, 0.9
        r_min = math.exp(-12.0)
        radii = {1.0, r_min}
        for x in (x0, x1):
            m = 1
            while x / m > r_min:
                if x / m < 1.0:
                    radii.add(x / m)
                m += 1
        grid = sorted(radii, reverse=True)
        total = 0.0
        for r_hi, r_lo in zip(grid, grid[1:]):
            rm = math.sqrt(r_hi * r_lo)
            c = math.ceil(x1 / rm) - math.floor(x0 / rm)
            total += c * (r_hi**s - r_lo**s) / s
        total += (x1 - x0) * r_min ** (s - 1.0) / (s - 1.0) + r_min**s / s
        assert res.value == pytest.approx(total, rel=1e-6)


class TestProfile:
    def test_cantor_lattice_ratios_are_unity(self, cantor, spectral_cache):
        prof = profile(cantor, LN3, 6 * LN3, 1, period=LN3, spectral=spectral_cache["cantor"])
        assert [s.n for s in prof.samples] == list(range(1, 7))
        assert all(s.y == 0.0 for s in prof.samples)
        assert np.max(np.abs(prof.total_ratios() - 1.0)) <= 1e-9

    def test_condensation_flag_recovers_homogeneous_counts(
        self, cantor, cantor_point
    ):
        ts = [0.7, 1.6, 2.9]
        plain = profile_at(cantor, ts)
        stripped = profile_at(cantor_point, ts, include_condensation=False)
        assert [s.total for s in plain.samples] == [s.total for s in stripped.samples]

    def test_condensation_increases_counts(self, cantor_segment):
        # below t ~ 2 the gap segment hides inside the cylinder cells
        ts = [2.4, 3.0, 3.6]
        with_c = profile_at(cantor_segment, ts)
        without = profile_at(cantor_segment, ts, include_condensation=False)
        for a, b in zip(with_c.samples, without.samples):
            assert a.total > b.total

    def test_dense_profile_growth_is_locally_bounded(self, two_ratio, spectral_cache):
        sd = spectral_cache["two_ratio"]
        prof = profile(two_ratio, 1.0, 5.0, 15, spectral=sd)
        ts = prof.t_values()
        totals = prof.totals()
        for k in range(len(ts) - 1):
            dt = ts[k + 1] - ts[k]
            assert totals[k + 1] <= totals[k] * 3 * math.exp(sd.s0 * dt) + 3

    def test_lattice_grid_helper(self):
        pts = lattice_grid(LN3, [1, 2], [0.0, 0.5])
        assert pts == [
            (LN3, 1, 0.0),
            (LN3 + 0.5, 1, 0.5),
            (2 * LN3, 2, 0.0),
            (2 * LN3 + 0.5, 2, 0.5),
        ]

    def test_profile_argument_validation(self, cantor):
        with pytest.raises(ValueError):
            profile(cantor, 2.0, 1.0, 5)
        with pytest.raises(ValueError):
            profile(cantor, 1.0, 2.0, 0)
        with pytest.raises(ValueError):
            profile(cantor, 0.1, 0.2, 3, period=LN3)


class TestForcing:
    def test_lattice_defect_vanishes_on_aligned_grid(self, cantor, spectral_cache):
        sd = spectral_cache["cantor"]
        grid = [n * LN3 for n in range(1, 8)]
        ctx = ForcingContext(cantor, sd, grid)
        star = l_star(ctx, "X")
        for t in grid:
            assert star(t) == 0.0

    def test_defect_matches_sampled_counts_at_generic_t(self, cantor, spectral_cache):
        ctx = ForcingContext(cantor, spectral_cache["cantor"], np.linspace(0.2, 4.8, 12))
        star = l_star(ctx, "X")
        for t in ctx.t_grid:
            child = 2 * cantor_count(t - LN3) if t >= LN3 else 2 * 1
            assert star(t) == child - cantor_count(t), t

    def test_step_estimates_vanish_before_grid(self, cantor, spectral_cache):
        ctx = measure_forcing(cantor, spectral_cache["cantor"], [1.0, 2.0])
        assert l_star(ctx, "X")(0.5) == 0.0
        assert f_star(ctx, "X")(0.5) == 0.0

    def test_point_condensation_defect_on_aligned_grid(self, cantor_point):
        # child copies and the gap point each claim their own cell when the
        # scale divides the map translations, so the defect is exactly -1
        sd = solve_s0(cantor_point)
        grid = [n * LN3 for n in range(1, 8)]
        star = l_star(ForcingContext(cantor_point, sd, grid), "X")
        assert [star(t) for t in grid] == [-1.0] * 7

    def test_point_condensation_defect_range(self, cantor_point):
        # generic scales: misalignment of the x/3 + 2/3 copy can cost one
        # more cell, widening the aligned range by one on each side at most
        sd = solve_s0(cantor_point)
        ctx = ForcingContext(cantor_point, sd, np.linspace(0.3, 5.7, 16))
        vals = np.array([l_star(ctx, "X")(t) for t in ctx.t_grid])
        assert np.all(vals >= -2.0) and np.all(vals <= 0.0)

    def test_corrected_forcing_closes_renewal_identity(self, cantor, spectral_cache):
        sd = spectral_cache["cantor"]
        grid = [k * LN3 / 2 for k in range(9)]
        ctx = ForcingContext(cantor, sd, grid)
        fs = f_star(ctx, "X")
        lc = corrected_forcing(ctx, "X")
        w = 2 * (1.0 / 3.0) ** sd.s0  # both edges together carry unit mass
        for k, t in enumerate(grid):
            # the shift is exactly two grid steps; index instead of
            # subtracting, else one ulp of slop falls off the breakpoint
            child = fs(grid[k - 2]) if k >= 2 else 0.0
            assert fs(t) == pytest.approx(w * child + lc(t), abs=1e-12), t

    def test_corrected_forcing_at_zero_is_the_full_count(self, cantor, spectral_cache):
        ctx = ForcingContext(cantor, spectral_cache["cantor"], [0.0, LN3])
        assert corrected_forcing(ctx, "X")(0.0) == pytest.approx(1.0)

    def test_empty_grid_rejected(self, cantor, spectral_cache):
        with pytest.raises(ValueError):
            ForcingContext(cantor, spectral_cache["cantor"], [])
        with pytest.raises(ValueError):
            ForcingContext(cantor, spectral_cache["cantor"], [-1.0, 2.0])


class TestBoundaryDiagnostic:
    def test_interval_attractor_keeps_two_boundary_cells(self, cantor, spectral_cache):
        sd = spectral_cache["cantor"]
        ts = [n * LN3 for n in range(1, 9)]
        diag = boundary_diagnostic(cantor, "X", ts, spectral=sd)
        assert all(s.count == 2 for s in diag.samples)
        assert diag.partial_integral <= 2.0 / sd.s0

    def test_generic_grid_stays_bounded(self, cantor, spectral_cache):
        diag = boundary_diagnostic(
            cantor, "X", np.linspace(0.3, 6.0, 14), spectral=spectral_cache["cantor"]
        )
        assert all(s.count <= 3 for s in diag.samples)

    def test_boundary_hugging_condensation_grows(self, bundled, spectral_cache):
        dust = bundled["dust2d_edge"]
        diag = boundary_diagnostic(
            dust,
            dust.vertex_order[0],
            np.linspace(0.5, 5.5, 11),
            spectral=spectral_cache["dust2d_edge"],
        )
        vals = np.array([s.integrand for s in diag.samples])
        assert vals[-1] > 2.0 * vals[0]
        assert vals[-3:].mean() > vals[:3].mean()
