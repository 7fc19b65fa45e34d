import math

import numpy as np
import pytest
from hypothesis import given, settings

from helpers import (
    LN3,
    cantor_graph,
    enumerate_paths,
    line_map,
    make_path,
    random_graphs,
    two_ratio_graph,
    two_vertex_graph,
)

from gdcover.errors import ResourceLimitError, ValidationError
from gdcover.geometry import Box, Primitive, Similarity
from gdcover.graph import (
    Edge,
    MWGraph,
    Path,
    common_prefix,
    sample_path,
    simple_cycles,
    strongly_connected,
    validate,
    walk_prefix_tree,
)
from gdcover.spectral import build_matrix, is_irreducible, solve_s0


class TestValidate:
    def test_bundled_systems_pass(self, bundled):
        for name, graph in bundled.items():
            report = validate(graph)
            assert report.ok, f"{name}: {[c.name for c in report.failures()]}"

    def test_unit_ratio_edge_is_fatal(self):
        g = MWGraph(
            1,
            {"X": Box((0.0,), (1.0,))},
            [Edge("a", "X", "X", line_map(1.0, 0.0))],
        )
        report = validate(g)
        assert not report.ok
        assert any("ratio" in c.detail or "ratio" in c.name for c in report.failures())
        with pytest.raises(ValidationError):
            report.raise_if_failed()

    def test_image_escaping_seed_box_is_fatal(self):
        # the image of [0,1] under x/3 + 0.668 ends at 1.001 + epsilon
        g = MWGraph(
            1,
            {"X": Box((0.0,), (1.0,))},
            [
                Edge("a", "X", "X", line_map(1.0 / 3.0, 0.0)),
                Edge("b", "X", "X", line_map(1.0 / 3.0, 0.668)),
            ],
        )
        report = validate(g)
        assert not report.ok
        assert any("contain" in c.name or "contain" in c.detail for c in report.failures())

    def test_non_orthogonal_isometry_is_fatal(self):
        g = MWGraph(
            2,
            {"X": Box((0.0, 0.0), (1.0, 1.0))},
            [
                Edge(
                    "a",
                    "X",
                    "X",
                    Similarity(0.4, [[1.0, 0.1], [0.0, 1.0]], (0.0, 0.0)),
                )
            ],
        )
        assert not validate(g).ok

    def test_vertex_without_out_edge_is_fatal(self):
        g = MWGraph(
            1,
            {"P": Box((0.0,), (1.0,)), "Q": Box((2.0,), (3.0,))},
            [Edge("a", "P", "P", line_map(0.5, 0.0))],
        )
        assert not validate(g).ok

    def test_unknown_vertex_rejected_at_construction(self):
        with pytest.raises(ValidationError):
            MWGraph(
                1,
                {"X": Box((0.0,), (1.0,))},
                [Edge("a", "X", "Y", line_map(0.5, 0.0))],
            )

    def test_duplicate_edge_id_rejected(self):
        with pytest.raises(ValidationError):
            MWGraph(
                1,
                {"X": Box((0.0,), (1.0,))},
                [
                    Edge("a", "X", "X", line_map(0.4, 0.0)),
                    Edge("a", "X", "X", line_map(0.4, 0.6)),
                ],
            )

    def test_condensation_outside_seed_box_is_fatal(self):
        g = cantor_graph(condensation={"X": (Primitive.point((1.5,)),)})
        assert not validate(g).ok

    def test_overlapping_seed_interiors_are_fatal(self):
        g = MWGraph(
            1,
            {"P": Box((0.0,), (1.0,)), "Q": Box((0.5,), (1.5,))},
            [
                Edge("a", "P", "P", line_map(0.5, 0.0)),
                Edge("b", "Q", "Q", line_map(0.5, 0.5)),
            ],
        )
        assert not validate(g).ok


class TestConnectivity:
    def test_self_loop_is_strongly_connected(self):
        assert strongly_connected(cantor_graph())

    def test_one_way_pair_is_not(self):
        g = MWGraph(
            1,
            {"P": Box((0.0,), (1.0,)), "Q": Box((2.0,), (3.0,))},
            [Edge("a", "P", "Q", line_map(0.5, 2.0))],
        )
        assert not strongly_connected(g)

    def test_loop_plus_round_trip_is(self):
        assert strongly_connected(two_vertex_graph())

    @settings(max_examples=300, deadline=None)
    @given(g=random_graphs())
    def test_agrees_with_matrix_irreducibility(self, g):
        # ratio^0 = 1 per edge: the support of the edge-count matrix
        assert strongly_connected(g) == is_irreducible(build_matrix(g, 0.0))


class TestEnumeratePaths:
    def test_cantor_by_length(self):
        g = cantor_graph()
        paths = enumerate_paths(g, "X", length=2)
        assert len(paths) == 4
        assert all(g.path_ratio(p) == pytest.approx(1 / 9, rel=1e-15) for p in paths)
        assert len({p.edges for p in paths}) == 4

    def test_cantor_by_ratio(self):
        g = cantor_graph()
        # 1/9 <= 0.2 < 1/3 so the antichain sits at depth 2
        paths = enumerate_paths(g, "X", max_ratio=0.2)
        assert len(paths) == 4
        assert all(len(p) == 2 for p in paths)

    def test_two_ratio_antichain(self):
        g = two_ratio_graph(0.5, 0.25)
        paths = enumerate_paths(g, "X", max_ratio=0.25)
        got = {p.edges for p in paths}
        assert got == {("q",), ("h", "h"), ("h", "q")}

    def test_antichain_is_prefix_free_and_complete(self):
        g = two_ratio_graph(0.5, 0.25)
        anti = {p.edges for p in enumerate_paths(g, "X", max_ratio=0.25)}
        for a in anti:
            for b in anti:
                if a != b:
                    assert a != b[: len(a)], "one antichain element prefixes another"
        # every depth-3 walk passes through exactly one antichain element
        for walk in enumerate_paths(g, "X", length=3):
            hits = [
                k
                for k in range(len(walk) + 1)
                if walk.edges[:k] in anti
            ]
            assert len(hits) == 1

    def test_ratio_one_returns_empty_walk(self):
        g = cantor_graph()
        paths = enumerate_paths(g, "X", max_ratio=1.0)
        assert paths == [Path("X")]

    def test_argument_validation(self):
        g = cantor_graph()
        with pytest.raises(ValueError):
            enumerate_paths(g, "X")
        with pytest.raises(ValueError):
            enumerate_paths(g, "X", length=2, max_ratio=0.5)
        with pytest.raises(ValueError):
            enumerate_paths(g, "X", max_ratio=0.0)

    def test_resource_cap(self):
        g = cantor_graph()
        with pytest.raises(ResourceLimitError):
            enumerate_paths(g, "X", max_ratio=1e-6, cap=100)

    def test_prefix_tree_interiors_are_exactly_proper_ancestors(self):
        g = two_ratio_graph(0.5, 0.25)
        leaves, interiors = set(), set()
        for kind, path, _sim, _ratio, _v in walk_prefix_tree(
            g, "X", lambda r, _v: r <= 0.1
        ):
            (leaves if kind == "leaf" else interiors).add(path.edges)
        ancestors = {l[:k] for l in leaves for k in range(len(l))}
        assert interiors == ancestors


class TestSimpleCycles:
    def test_cantor_two_unit_loops(self):
        cycles = simple_cycles(cantor_graph())
        assert sorted(c.edges for c in cycles) == [("a",), ("b",)]

    def test_rotations_are_collapsed(self):
        g = two_vertex_graph()
        cycles = {c.edges for c in simple_cycles(g)}
        # the P->Q->P excursion appears once, via its smallest rotation
        assert cycles == {("loop",), ("back", "hop")} or cycles == {
            ("loop",),
            ("hop", "back"),
        }
        assert len(cycles) == 2

    def test_cycles_close_up(self):
        g = two_vertex_graph()
        for c in simple_cycles(g):
            assert g.path_terminal(c) == c.start

    def test_vertex_outside_all_cycles(self):
        g = MWGraph(
            1,
            {"P": Box((0.0,), (1.0,)), "Q": Box((2.0,), (3.0,))},
            [
                Edge("loop", "P", "P", line_map(0.5, 0.0)),
                Edge("hop", "P", "Q", line_map(0.25, 2.0)),
            ],
        )
        cycles = simple_cycles(g)
        assert {c.edges for c in cycles} == {("loop",)}


class TestPathAlgebra:
    def test_make_path_checks_consecutiveness(self):
        g = two_vertex_graph()
        p = make_path(g, "P", ("hop", "back", "loop"))
        assert g.path_terminal(p) == "P"
        with pytest.raises(ValidationError):
            make_path(g, "P", ("back",))
        with pytest.raises(ValidationError):
            make_path(g, "P", ("loop", "nope"))

    def test_path_ratio_is_edge_product(self):
        g = two_vertex_graph()
        p = make_path(g, "P", ("hop", "back"))
        assert g.path_ratio(p) == pytest.approx(0.125, rel=1e-15)

    def test_composition_matches_sequential_maps(self, bundled):
        g = bundled["rotated2d"]
        rng = np.random.default_rng(3)
        start = g.vertex_order[0]
        point = np.array([0.3, 0.6])
        for _ in range(25):
            # random walk of length <= 6
            at, ids = start, []
            for _ in range(int(rng.integers(1, 7))):
                outs = g.out_edges(at)
                e = outs[int(rng.integers(len(outs)))]
                ids.append(e.id)
                at = e.dst
            path = make_path(g, start, ids)
            composed = g.path_map(path).apply(point)
            sequential = point
            for eid in reversed(ids):
                sequential = g.edge(eid).map.apply(sequential)
            assert np.allclose(composed, sequential, atol=1e-10)

    def test_common_prefix_matches_linear_scan(self):
        g = cantor_graph()
        rng = np.random.default_rng(11)
        pool = enumerate_paths(g, "X", length=6)
        for _ in range(1000):
            a = pool[int(rng.integers(len(pool)))]
            b = pool[int(rng.integers(len(pool)))]
            a = a.prefix(int(rng.integers(0, 7)))
            b = b.prefix(int(rng.integers(0, 7)))
            want = 0
            while (
                want < len(a) and want < len(b) and a.edges[want] == b.edges[want]
            ):
                want += 1
            got = common_prefix(a, b)
            assert got.edges == a.edges[:want]

    def test_common_prefix_requires_shared_start(self):
        with pytest.raises(ValueError):
            common_prefix(Path("P"), Path("Q"))


class TestStationarySampling:
    def test_antichain_masses_unroll_the_eigenvector(self, bundled, spectral_cache):
        # summing ratio^s0 * u[terminal] over any stopping antichain
        # reproduces u[start]: the defining recursion telescopes
        for name in ("cantor", "two_vertex", "two_ratio"):
            g = bundled[name]
            sd = spectral_cache[name]
            for start in g.vertex_order:
                total = 0.0
                for p in enumerate_paths(g, start, max_ratio=0.02):
                    total += g.path_ratio(p) ** sd.s0 * sd.u[
                        g.vertex_index(g.path_terminal(p))
                    ]
                assert total == pytest.approx(
                    sd.u[g.vertex_index(start)], abs=1e-9
                ), name

    def test_single_edge_graph_gives_the_only_path(self):
        g = MWGraph(
            1,
            {"X": Box((0.0,), (1.0,))},
            [Edge("a", "X", "X", line_map(0.5, 0.0))],
        )
        sd = solve_s0(g)
        p = sample_path(g, sd, stop_ratio=0.2, rng=0)
        assert p.edges == ("a", "a", "a")

    def test_cantor_depth3_frequencies(self):
        g = cantor_graph()
        sd = solve_s0(g)
        rng = np.random.default_rng(0)
        n = 100_000
        counts: dict[tuple, int] = {}
        for _ in range(n):
            p = sample_path(g, sd, stop_ratio=1 / 27, rng=rng)
            assert len(p) == 3
            counts[p.edges] = counts.get(p.edges, 0) + 1
        assert len(counts) == 8
        se = math.sqrt((1 / 8) * (7 / 8) / n)
        for edges, c in counts.items():
            assert abs(c / n - 1 / 8) <= 3 * se, (edges, c / n)

    def test_stop_ratio_bounds(self):
        g = cantor_graph()
        sd = solve_s0(g)
        with pytest.raises(ValueError):
            sample_path(g, sd, stop_ratio=1.0)
