import json
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import covering_oracle as oracle
from helpers import (
    LN3,
    box_contains_point,
    cantor_graph,
    enumerate_paths,
    line_map,
    make_path,
    path_terminal,
    random_graphs,
    two_ratio_graph,
    two_vertex_graph,
    validate_loop,
)
from lattice_oracle import path_ratio

from gdcover import graph as graph_module
from gdcover.errors import ResourceLimitError, ValidationError
from gdcover.geometry import Box, Primitive, Similarity
from gdcover.graph import (
    Edge,
    MWGraph,
    Path,
    _gap,
    certify_separation,
    simple_cycles,
    strongly_connected,
    validate,
    walk_prefix_tree,
)
from gdcover.spectral import build_matrix, is_irreducible


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

    def test_distance_scaling_finds_the_worst_direction(self):
        # Q = I + 4.9e-13 J stretches (1, 1, 1) by 1 + 1.47e-12, past the
        # 1e-12 bound, though Q^T Q - I stays under ORTHOGONALITY_TOL
        q = np.eye(3) + 4.9e-13 * np.ones((3, 3))
        g = MWGraph(
            3,
            {"X": Box((0.0,) * 3, (1.0,) * 3)},
            [Edge("a", "X", "X", Similarity(0.5, q, (0.0,) * 3)),
             Edge("b", "X", "X", Similarity(0.5, q, (0.5,) * 3))],
        )
        checks = {c.name: c for c in validate(g).checks}
        for e in "ab":
            assert checks[f"isometry-orthogonal[{e}]"].passed
            assert checks[f"isometry-orthogonal[{e}]"].detail == "defect=9.801e-13"
            assert not checks[f"distance-scaling[{e}]"].passed
            assert checks[f"distance-scaling[{e}]"].detail == "relative defect=1.470e-12"

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_isometry_fails_without_raising(self):
        # the schema refuses non-finite entries; a graph built in Python can
        # still carry one, and it has no singular values
        g = MWGraph(
            1,
            {"X": Box((0.0,), (1.0,))},
            [Edge("a", "X", "X", Similarity(0.5, [[math.nan]], (0.0,))),
             Edge("b", "X", "X", Similarity(0.5, [[1.0]], (0.5,)))],
        )
        rep = validate(g)
        checks = {c.name: c for c in rep.checks}
        assert not checks["isometry-orthogonal[a]"].passed
        assert not checks["distance-scaling[a]"].passed
        assert checks["distance-scaling[a]"].detail == "relative defect=inf"
        assert checks["distance-scaling[b]"].passed
        assert rep.checks == validate_loop(g).checks

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


@st.composite
def checked_systems(draw):
    """Systems in d = 1, 2, 3 on which validate fails some checks and passes
    others: boxes that may overlap or be flat, open sets that may leave their
    box, maps with random orthogonal or sheared linear parts, ratios outside
    (0, 1), declared rationals near or off the ratio, and rarely a box or a
    map of another dimension."""
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 5))
    odd_dim = draw(st.sampled_from([None] * 4 + list(range(n))))

    def box(k, dim):
        lo = rng.uniform(-1, 1, dim) + 3.0 * k * draw(st.sampled_from((0.0, 1.0, 1.0)))
        return Box(tuple(lo), tuple(lo + rng.choice([0.0, 0.5, 2.0, 2.0, 2.0], dim)))

    vertices = {f"v{k}": box(k, d + 1 if k == odd_dim else d) for k in range(n)}
    edges = []
    for k in range(draw(st.integers(1, 3 * n))):
        a = f"v{draw(st.integers(0, n - 1))}"
        # an edge into the odd box would make the loop reference raise
        b = f"v{draw(st.sampled_from([j for j in range(n) if j != odd_dim] or [0]))}"
        dim = d + 1 if draw(st.integers(0, 9)) == 0 else d
        q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
        if draw(st.integers(0, 5)) == 0:
            q = q + rng.uniform(-0.1, 0.1, (dim, dim))
        ratio = draw(st.sampled_from((0.1, 0.25, 0.4, 1.0, 1.5, 2e-13)))
        rational = draw(st.sampled_from((None, Fraction(1, 4), Fraction(1, 10**13),
                                         Fraction(2, 5), Fraction(3, 2))))
        sim = Similarity(ratio, q, rng.uniform(-2, 4, dim))
        edges.append(Edge(f"e{k}", a, b, sim, rational))
    if odd_dim is not None:
        del vertices[f"v{odd_dim}"]
        vertices[f"v{odd_dim}"] = box(odd_dim, d + 1)  # last in vertex order
        edges = [e for e in edges if e.dst != f"v{odd_dim}" or e.map.dim != d]
    opens = {v: box(0, d + draw(st.sampled_from((0, 0, 0, 1)))) for v in vertices
             if draw(st.booleans())}
    condensation = {v: (Primitive.point(tuple(rng.uniform(-1, 2, d))),) for v in vertices
                    if draw(st.booleans())}
    return MWGraph(d, vertices, edges, condensation=condensation, open_sets=opens)


class TestValidateAgainstLoop:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(graph=checked_systems())
    def test_same_checks(self, graph):
        assert validate(graph).checks == validate_loop(graph).checks

    def test_bundled_systems(self, bundled):
        for name, graph in bundled.items():
            assert validate(graph).checks == validate_loop(graph).checks, name


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
        assert all(path_ratio(g, p) == pytest.approx(1 / 9, rel=1e-15) for p in paths)
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
            assert path_terminal(g, c) == c.start

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
        assert path_terminal(g, p) == "P"
        with pytest.raises(ValidationError):
            make_path(g, "P", ("back",))
        with pytest.raises(ValidationError):
            make_path(g, "P", ("loop", "nope"))

    def test_path_ratio_is_edge_product(self):
        g = two_vertex_graph()
        p = make_path(g, "P", ("hop", "back"))
        assert path_ratio(g, p) == pytest.approx(0.125, rel=1e-15)

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
                    total += path_ratio(g, p) ** sd.s0 * sd.u[
                        g.vertex_index(path_terminal(g, p))
                    ]
                assert total == pytest.approx(
                    sd.u[g.vertex_index(start)], abs=1e-9
                ), name


def _rotation_3d(axis: int, degrees: float) -> np.ndarray:
    """Rotation about one coordinate axis of R^3."""
    c, s = math.cos(math.radians(degrees)), math.sin(math.radians(degrees))
    i, j = [k for k in range(3) if k != axis]
    q = np.eye(3)
    q[i, i], q[i, j], q[j, i], q[j, j] = c, -s, s, c
    return q


def _unit_system(dim: int, maps: dict[str, tuple[float, np.ndarray, tuple]]) -> MWGraph:
    """One vertex on [0, 1]^dim whose edge ``id`` maps the unit box's centre
    to ``centre`` with ratio and isometry as given."""
    edges = [
        Edge(eid, "X", "X", Similarity(r, q, np.array(c) - r * q @ np.full(dim, 0.5)))
        for eid, (r, q, c) in maps.items()
    ]
    return MWGraph(dim, {"X": Box((0.0,) * dim, (1.0,) * dim)}, edges)


# (vertex, class) -> detail of the classes the boxes cannot certify; every
# other class of the system is certified
NOT_CERTIFIED = {
    "cantor": {},
    "cantor_point": {},
    "cantor_segment": {
        "SCOSC[X]": "condensation shape 0 (segment) meets the closed image of edge 'a'"
    },
    "dust2d_edge": {"SCOSC[X]": "condensation shape 0 (segment) does not lie in U_X"},
    "rotated2d": {},
    "sierpinski": {"SSC[X]": "the closed images of edges 'a' and 'b' lie within 1e-09"},
    "two_ratio": {},
    "two_vertex": {"SSC[P]": "the closed images of edges 'loop' and 'hop' lie within 1e-09"},
}


class TestSeparationCertificate:
    @pytest.mark.parametrize("name", sorted(NOT_CERTIFIED))
    def test_bundled_outcomes(self, bundled, name):
        g = bundled[name]
        got = certify_separation(g)
        assert [c.name for c in got] == [
            f"{cls}[{v}]" for v in g.vertex_order for cls in ("OSC", "SOSC", "SSC", "SCOSC")
        ]
        assert {c.name: c.detail for c in got if not c.passed} == NOT_CERTIFIED[name]
        for c in got:
            if c.passed and c.name.startswith("SOSC"):
                assert c.detail.startswith("point [")

    @pytest.mark.parametrize("name", sorted(NOT_CERTIFIED))
    def test_sosc_point_lies_on_the_attractor(self, bundled, name):
        # the reported point lies in U_v and in a cylinder of K_v at scale 0.05
        g = bundled[name]
        for c in certify_separation(g):
            if not c.name.startswith("SOSC"):
                continue
            v = c.name[5:-1]
            x = np.array(json.loads(c.detail[len("point "):c.detail.index("]") + 1]))
            u = g.open_sets[v]
            assert all(lo < xi < hi for xi, lo, hi in zip(x, u.lo, u.hi))
            boxes = [el.shape.bounding_box() for el in oracle.generate(g, v, 0.05).cylinders()]
            assert any(box_contains_point(b, x, tol=1e-12) for b in boxes)

    def test_never_run_by_validate(self, bundled):
        # validate's report holds structural checks only, so graph_family and
        # analyze, which call validate, never pay for the certificate
        with mock.patch.object(graph_module, "certify_separation", side_effect=AssertionError):
            names = {c.name for c in validate(bundled["cantor_segment"]).checks}
        assert not any(n.startswith(("OSC", "SOSC", "SSC", "SCOSC")) for n in names)

    @pytest.mark.parametrize(
        "dim, maps",
        [
            (1, {"a": (0.6, np.eye(1), (0.3,)), "b": (0.6, np.eye(1), (0.7,))}),
            (2, {"a": (0.5, np.eye(2), (0.25, 0.25)),
                 "b": (0.4, _rotation_3d(2, 45.0)[:2, :2], (0.6, 0.3))}),
            (3, {"a": (0.2, _rotation_3d(0, 45.0), (0.5, 0.5, 0.35)),
                 "b": (0.2, _rotation_3d(1, 45.0), (0.5, 0.5, 0.62))}),
        ],
        ids=["1d", "2d_rotated", "3d_rotated"],
    )
    def test_overlapping_images_name_the_pair(self, dim, maps):
        g = _unit_system(dim, maps)
        assert validate(g).ok
        got = {c.name: (c.passed, c.detail) for c in certify_separation(g)}
        assert got["OSC[X]"] == (False, "the images of edges 'a' and 'b' overlap")
        for cls in ("SOSC", "SSC"):
            assert got[f"{cls}[X]"] == (False, "OSC is not certified")
        assert got["SCOSC[X]"] == (False, "SOSC is not certified")

    def test_image_leaving_the_open_set_is_named(self):
        g = cantor_graph()
        g = MWGraph(1, g.vertices, g.edges.values(), open_sets={"X": Box((0.0,), (0.9,))})
        got = {c.name: (c.passed, c.detail) for c in certify_separation(g)}
        assert got["OSC[X]"] == (False, "the image of edge 'b' leaves U_X")

    def test_condensation_touching_an_image_is_named(self):
        g = cantor_graph(condensation={"X": (Primitive.point((0.5,)), Primitive.point((2 / 3,)))})
        got = {c.name: (c.passed, c.detail) for c in certify_separation(g)}
        assert got["SCOSC[X]"] == (
            False, "condensation shape 1 (point) meets the closed image of edge 'b'"
        )

    def test_3d_pair_split_only_by_an_edge_cross_product(self):
        # two cubes turned 45 degrees about x and about y, stacked along z:
        # their ridges cross, and only x cross y = z separates them
        maps = {"a": (0.2, _rotation_3d(0, 45.0), (0.5, 0.5, 0.35)),
                "b": (0.2, _rotation_3d(1, 45.0), (0.5, 0.5, 0.64))}
        g = _unit_system(3, maps)
        assert validate(g).ok
        assert all(c.passed for c in certify_separation(g))
        (ca, ra), (cb, rb) = (
            (e.map.apply(np.full(3, 0.5)), 0.5 * e.map.ratio * e.map.isometry.T)
            for e in g.edges.values()
        )
        faces = np.vstack([ra, rb]) / (0.5 * 0.2)
        face_gaps = np.abs(faces @ (cb - ca)) - (np.abs(ra @ faces.T) + np.abs(rb @ faces.T)).sum(0)
        assert face_gaps.max() < 0 < _gap((ca, ra), (cb, rb))

    def test_4d_uses_face_normals(self):
        # two boxes apart along the first axis: certified from face normals
        maps = {"a": (0.4, np.eye(4), (0.2, 0.5, 0.5, 0.5)),
                "b": (0.4, np.eye(4), (0.8, 0.5, 0.5, 0.5))}
        assert all(c.passed for c in certify_separation(_unit_system(4, maps)))
