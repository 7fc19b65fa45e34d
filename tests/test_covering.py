import itertools
import math
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

import covering_oracle as oracle
from forcing_oracle import child_time, forcing_values, normalized_count, renewal_residual
from helpers import (
    LN2,
    LN3,
    cantor_graph,
    kernel_count as count_pieces,
    path_terminal,
    piece_rows,
    set_pieces,
    shape_pieces,
    sierpinski_graph,
    two_vertex_graph,
)
from lattice_oracle import path_ratio
from test_kernel import pieces_of_elements

from gdcover import covering
from gdcover.asymptotics import analyze
from gdcover.covering import (
    ForcingContext,
    _interval_cells,
    _origin_vector,
    cell_union,
    condensation_integral,
    count,
    generate,
    lattice_grid,
    profile,
    profile_at,
)
from gdcover.errors import ResourceLimitError
from gdcover.geometry import Box, Primitive, Similarity
from gdcover.graph import Edge, MWGraph
from gdcover.spectral import solve_s0


ETA = 1e-9


def cells_of_points(pts, r, origin=0.0):
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    idx = np.floor((pts - origin) / r + ETA).astype(np.int64)
    return set(map(tuple, idx.tolist()))


def kernel_count(dim, r, origin=0.0, **parts) -> int:
    """Cells the array kernel charges the ``shape_pieces`` of ``parts``."""
    return count_pieces(dim, shape_pieces(dim, **parts), r, _origin_vector(origin, dim))


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


def interval_cell_range(a, b, r, origin=0.0):
    """The kernel's inclusive cell index range of the closed interval [a, b]."""
    lo, hi = _interval_cells(np.array([[a]]), np.array([[b]]), r, np.array([origin]))
    return int(lo[0, 0]), int(hi[0, 0])


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


class TestGenerate:
    # paths, depths and diameters come from the oracle's elements; the
    # kernel's elements exist only as arrays

    def test_cantor_depth_three(self, cantor):
        gs = generate(cantor, "X", 0.04)
        assert gs.n_elements == 16 // 2
        # cylinders are 1-d boxes, held as bounds
        widths = [hi - lo for lo, hi in piece_rows(set_pieces(gs))["box"]]
        assert widths == pytest.approx([3.0**-3] * 8, rel=1e-12)
        cyl = oracle.generate(cantor, "X", 0.04).cylinders()
        assert len(cyl) == 8
        for el in cyl:
            assert len(el.path.edges) == 3
            box = el.shape.bounding_box()
            assert box.diameter == pytest.approx(3.0**-3, rel=1e-12)

    def test_resolution_above_diameter_stops_at_root(self, cantor):
        gs = generate(cantor, "X", 1.0)
        assert gs.n_elements == 1
        ((lo, hi),) = piece_rows(set_pieces(gs))["box"]
        assert hi - lo == pytest.approx(1.0)
        (el,) = oracle.generate(cantor, "X", 1.0).cylinders()
        assert el.path.edges == ()
        assert el.shape.bounding_box().diameter == pytest.approx(1.0)

    def test_condensation_copies_on_interior_paths(self, cantor_point):
        gs = generate(cantor_point, "X", 0.04)
        rows = piece_rows(set_pieces(gs))
        # 8 cylinders and one copy per interior node: depths 0, 1, 2
        assert (len(rows["box"]), len(rows["point"])) == (8, 1 + 2 + 4)
        assert gs.n_elements == 8 + 7
        pts = oracle.generate(cantor_point, "X", 0.04).condensation_images()
        assert sorted(len(e.path.edges) for e in pts) == [0, 1, 1, 2, 2, 2, 2]

    def test_include_condensation_false(self, cantor_point):
        gs = generate(cantor_point.without_condensation(), "X", 0.04)
        assert gs.n_elements == 8
        assert not piece_rows(set_pieces(gs))["point"]

    def test_nonpositive_resolution_rejected(self, cantor):
        with pytest.raises(ValueError):
            generate(cantor, "X", 0.0)

    def test_path_cap(self, cantor):
        with pytest.raises(ResourceLimitError), mock.patch.object(covering, "PATH_CAP", 100):
            generate(cantor, "X", 1e-6)


class TestCount:
    def test_cantor_powers_of_two(self, cantor):
        for n in range(1, 7):
            r = 3.0**-n
            res = count(generate(cantor, "X", r), r)
            assert res.total == 2**n, n

    def test_point_primitive_single_cell(self):
        assert kernel_count(1, 0.1, points=[(0.42,)]) == 1

    def test_square_box_nine_cells(self):
        unit_square = ((0.0, 0.0), (1.0, 1.0))
        assert kernel_count(2, 1.0 / 3.0, boxes=[unit_square]) == 9

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
        # nor above it: a set is counted at its own resolution only
        for r in (0.2, 0.1 * (1 + 1e-12)):
            with pytest.raises(ValueError):
                cell_union(gs, r)
            with pytest.raises(ValueError):
                count(gs, r)
        assert count(gs, None) == count(gs, 0.1)

    def test_sets_of_different_radii_or_dimensions_rejected(self, bundled):
        # cells of two sizes or of two dimensions make no common grid
        g = bundled["two_vertex"]
        mixed = {"P": generate(g, "P", math.exp(-5)), "Q": generate(g, "Q", math.exp(-7))}
        with pytest.raises(ValueError, match=r"radii \[0\.000911.*, 0\.00673.*\] share no grid"):
            count(mixed)
        planes = {"C": generate(bundled["cantor"], "X", 0.1),
                  "S": generate(bundled["sierpinski"], "X", 0.1)}
        with pytest.raises(ValueError, match=r"dimensions \[1, 2\] share no grid"):
            count(planes)

    def test_cell_cap(self, cantor):
        gs = generate(cantor, "X", 1e-3)
        with pytest.raises(ResourceLimitError), mock.patch.object(covering, "CELL_CAP", 4):
            cell_union(gs, 1e-3)


class TestNonFiniteInputs:
    # each input was accepted and counted as 0 cells, or failed later
    # with a message that did not name it

    @pytest.mark.parametrize("r", [math.nan, math.inf])
    def test_generate_refuses_a_non_finite_resolution(self, cantor, r):
        with pytest.raises(ValueError, match="resolution r must be positive and finite"):
            generate(cantor, "X", r)

    @pytest.mark.parametrize("t", [math.nan, -math.inf, math.inf])
    def test_profile_at_refuses_a_non_finite_t(self, cantor, t):
        with pytest.raises(ValueError, match="t_points must be finite"):
            profile_at(cantor, [1.0, t])

    @pytest.mark.parametrize("args, name", [
        ((math.nan, 2.0, 3), "t_min"),
        ((0.5, math.inf, 3), "t_max"),
        ((0.5, 2.0, 3, math.nan), "period"),
    ])
    def test_profile_refuses_non_finite_arguments(self, two_vertex, args, name):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            profile(two_vertex, *args)

    @pytest.mark.parametrize("origin", [math.nan, (math.inf,)])
    def test_count_refuses_a_non_finite_grid_origin(self, cantor, origin):
        gs = generate(cantor, "X", 0.01)
        with pytest.raises(ValueError, match="grid_origin must be finite"):
            count(gs, grid_origin=origin)
        with pytest.raises(ValueError, match="grid_origin must be finite"):
            cell_union(gs, grid_origin=origin)


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
        r = 0.0313
        sets = {v: generate(graph, v, r) for v in graph.vertex_order}
        cells = set()
        for v in graph.vertex_order:
            cells |= cell_union(sets[v], r)
        cylinders = [el.path for el in oracle.generate(graph, vertex, r).cylinders()]
        rng = np.random.default_rng(7)
        for _ in range(1000):
            path = cylinders[int(rng.integers(len(cylinders)))]
            sim = graph.path_map(path)
            seed = graph.seed_box(path_terminal(graph, path))
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
        cylinders = [el.path for el in oracle.generate(graph, vertex, 0.6**depth).cylinders()]
        rng = np.random.default_rng(10 * depth + len(vertex))
        for trial in range(2):
            path = cylinders[int(rng.integers(len(cylinders)))]
            q = path_ratio(graph, path)
            sim = graph.path_map(path)
            b = np.asarray(sim.translation, dtype=float)
            term = path_terminal(graph, path)
            r = q * float(rng.uniform(0.05, 0.2))

            full = oracle.generate(graph, vertex, r)
            sub = tuple(
                el
                for el in full.elements
                if el.path.edges[: len(path.edges)] == path.edges
            )
            assert sub, "sampled cylinder must survive to the stopping scale"
            origin = _origin_vector(b, graph.dimension)
            got = count_pieces(graph.dimension, pieces_of_elements(sub), r, origin)

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
        assert kernel_count(2, 0.1, segments=[((0.05, 0.35), (0.95, 0.35))]) == 10

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
        got = kernel_count(2, r, segments=[(a, b)])
        ts = np.linspace(0.0, 1.0, 200_001)[:, None]
        pts = np.asarray(a) + ts * (np.asarray(b) - np.asarray(a))
        assert got == len(cells_of_points(pts, r))

    def test_walker_respects_origin(self):
        n = kernel_count(2, 0.1, (0.05, 0.0), segments=[((0.05, 0.35), (0.95, 0.35))])
        assert n == 10  # planes shift with the grid: 0.15, 0.25, ..., 0.95


class TestCondensationIntegral:
    def test_no_condensation_is_zero(self, cantor, spectral_cache):
        res = condensation_integral(cantor, "X", spectral_cache["cantor"])
        assert (res.kind, res.exponent) == ("Finite", 0.0)

    def test_point_integral_converges(self, cantor_point):
        sd = solve_s0(cantor_point)
        res = condensation_integral(cantor_point, "X", sd)
        assert (res.kind, res.exponent) == ("Finite", 0.0)

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

    def test_segment_below_dimension_needs_no_mpmath(self, monkeypatch):
        # k = 1 < s0 = log 3 / log 2: the convergent segment case, decided
        # and analyzed with mpmath unimportable
        monkeypatch.setitem(sys.modules, "mpmath", None)
        seg = Primitive.segment((0.1, 0.3), (0.9, 0.3))
        g = sierpinski_graph(condensation={"X": [seg]})
        res = condensation_integral(g, "X", solve_s0(g))
        assert (res.kind, res.exponent) == ("Finite", 1.0)
        # four periods of tau = log 2, the fewest a lattice estimate takes
        an = analyze(g, n_min=2, n_max=5, y_samples=2)
        assert an.regime.regime == "SmallCondensation-Lattice"
        assert an.regime.integrals == {"X": res}

    def test_flat_box_in_menger_sponge_converges(self):
        # a box with one flat axis in d = 3 has box dimension 2, below the
        # s0 = log 20 / log 3 of the 20 maps of the Menger sponge
        edges = [
            Edge(f"e{i}{j}{k}", "X", "X", Similarity(1 / 3, np.eye(3), [i / 3, j / 3, k / 3]),
                 Fraction(1, 3))
            for i, j, k in itertools.product(range(3), repeat=3)
            if (i == 1) + (j == 1) + (k == 1) < 2
        ]
        box = Primitive.box((0.1, 0.1, 0.5), (0.9, 0.9, 0.5))
        g = MWGraph(3, {"X": Box((0.0,) * 3, (1.0,) * 3)}, edges, condensation={"X": [box]})
        sd = solve_s0(g)
        assert len(edges) == 20 and sd.s0 == pytest.approx(math.log(20) / LN3, rel=1e-12)
        res = condensation_integral(g, "X", sd)
        assert (res.kind, res.exponent) == ("Finite", 2.0)


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
        stripped = profile_at(cantor_point.without_condensation(), ts)
        assert [s.total for s in plain.samples] == [s.total for s in stripped.samples]

    def test_condensation_increases_counts(self, cantor_segment):
        # below t ~ 2 the gap segment hides inside the cylinder cells
        ts = [2.4, 3.0, 3.6]
        with_c = profile_at(cantor_segment, ts)
        without = profile_at(cantor_segment.without_condensation(), ts)
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

    @pytest.mark.parametrize("samples", [2.5, True, False, np.float64(3.0), "3", None])
    def test_profile_refuses_a_sample_count_that_is_not_an_integer(self, cantor, samples):
        # 2.5 raised numpy's TypeError and True counted as 1 sample
        with pytest.raises(ValueError, match="samples must be an integer of at least 1, got"):
            profile(cantor, 1.0, 3.0, samples)

    def test_profile_takes_a_numpy_integer_sample_count(self, cantor):
        assert profile(cantor, 1.0, 3.0, np.int64(3)) == profile(cantor, 1.0, 3.0, 3)
        assert profile(cantor, 0.0, 3.0, np.int32(2), LN3) == profile(cantor, 0.0, 3.0, 2, LN3)

    def test_lattice_cap_counts_whole_periods(self, cantor):
        # [0, 2 tau + 3 tau / 4] holds the periods n = 0, 1, 2 of 4 offsets:
        # 12 samples, where the span's float estimate reads 4 * (2.75 + 1) = 15
        t_max = 2 * LN3 + 3 * LN3 / 4
        with mock.patch.object(covering, "CELL_CAP", 12):
            assert len(profile(cantor, 0.0, t_max, 4, LN3).samples) == 12
        with mock.patch.object(covering, "CELL_CAP", 11), \
                pytest.raises(ResourceLimitError, match="needs 12 samples"):
            profile(cantor, 0.0, t_max, 4, LN3)

    def test_sample_count_checked_before_sampling(self, cantor):
        # 4.1e10 and 1e9 samples: refused before a t value is built
        with pytest.raises(ResourceLimitError, match="samples"):
            profile(cantor, 0.0, 1.0, 41, period=1e-9)
        with pytest.raises(ResourceLimitError, match="samples"):
            profile(cantor, 0.0, 1.0, 10**9)
        # inf - inf periods: refused, where math.ceil(inf) raised OverflowError
        with pytest.raises(ResourceLimitError, match="needs inf samples"):
            profile(cantor, 1e300, 1e300, 1, period=1e-10)


def count_defect(ctx: ForcingContext, vertex: str, t: float) -> int:
    """Child-sum count defect sum_e N_dst(t - log(1/ratio)) - N_vertex(t)."""
    graph = ctx.graph
    child = sum(ctx.count_at(e.dst, child_time(t, e)) for e in graph.out_edges(vertex))
    return child - ctx.count_at(vertex, t)


def early_count(ctx: ForcingContext, vertex: str, t: float) -> int:
    """Child counts whose shifted argument is still negative."""
    shifted = [(e, child_time(t, e)) for e in ctx.graph.out_edges(vertex)]
    return sum(ctx.count_at(e.dst, u) for e, u in shifted if u < 0)


class TestForcing:
    """The forcing on a t grid (``forcing_oracle``, the cross-check's oracle)
    against covering counts."""

    def test_lattice_defect_vanishes_on_aligned_grid(self, cantor, spectral_cache):
        sd = spectral_cache["cantor"]
        grid = [n * LN3 for n in range(1, 8)]
        ctx = ForcingContext(cantor)
        forcing = forcing_values(ctx, sd, grid)
        assert forcing.shape == (1, len(grid))
        for idx, t in enumerate(grid):
            assert count_defect(ctx, "X", t) == 0
            assert forcing[0, idx] == 0.0

    def test_defect_matches_sampled_counts_at_generic_t(self, cantor, spectral_cache):
        sd = spectral_cache["cantor"]
        grid = np.linspace(0.2, 4.8, 12)
        ctx = ForcingContext(cantor)
        forcing = forcing_values(ctx, sd, grid)
        for idx, t in enumerate(grid):
            child = 2 * cantor_count(t - LN3) if t >= LN3 else 2 * 1
            defect = child - cantor_count(t)
            assert count_defect(ctx, "X", t) == defect, t
            early = 0 if t >= LN3 else 2
            assert forcing[0, idx] == math.exp(-sd.s0 * t) * (early - defect), t

    def test_point_condensation_defect_on_aligned_grid(self, cantor_point):
        # child copies and the gap point each claim their own cell when the
        # scale divides the map translations, so the defect is exactly -1
        sd = solve_s0(cantor_point)
        grid = [n * LN3 for n in range(1, 8)]
        ctx = ForcingContext(cantor_point)
        forcing = forcing_values(ctx, sd, grid)
        assert [count_defect(ctx, "X", t) for t in grid] == [-1] * 7
        assert forcing[0].tolist() == [math.exp(-sd.s0 * t) for t in grid]

    def test_point_condensation_defect_range(self, cantor_point):
        # generic scales: misalignment of the x/3 + 2/3 copy can cost one
        # more cell, widening the aligned range by one on each side at most
        sd = solve_s0(cantor_point)
        grid = np.linspace(0.3, 5.7, 16)
        ctx = ForcingContext(cantor_point)
        forcing = forcing_values(ctx, sd, grid)
        for idx, t in enumerate(grid):
            defect = count_defect(ctx, "X", t)
            assert -2 <= defect <= 0, t
            early = early_count(ctx, "X", t)
            assert forcing[0, idx] == math.exp(-sd.s0 * t) * (early - defect), t

    def test_corrected_forcing_closes_renewal_identity(self, cantor, spectral_cache):
        sd = spectral_cache["cantor"]
        grid = [k * LN3 / 2 for k in range(9)]
        ctx = ForcingContext(cantor)
        forcing = forcing_values(ctx, sd, grid)
        fs = [normalized_count(ctx, sd, "X", t) for t in grid]
        w = 2 * (1.0 / 3.0) ** sd.s0  # both edges together carry unit mass
        for k, t in enumerate(grid):
            # the shift is exactly two grid steps; index instead of
            # subtracting, else one ulp of slop falls off the breakpoint
            child = fs[k - 2] if k >= 2 else 0.0
            assert fs[k] == pytest.approx(w * child + forcing[0, k], abs=1e-12), t
        assert renewal_residual(ctx, sd, forcing, grid) <= 1e-12

    def test_corrected_forcing_at_zero_is_the_full_count(self, cantor, spectral_cache):
        ctx = ForcingContext(cantor)
        assert forcing_values(ctx, spectral_cache["cantor"], [0.0, LN3])[0, 0] == pytest.approx(1.0)
