"""Differential tests: the array counting kernel against the per-element oracle.

``covering_oracle`` walks the prefix tree depth first, composing one
similarity per node, and charges each element's cells to a Python set.  The
kernel must reproduce its cells exactly: same per-vertex counts, same
totals, same cell sets, same elements in the same order.
"""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import covering_oracle as oracle
from conftest import BUNDLED_NAMES

from gdcover import covering
from gdcover.covering import GeometrySet, SetElement, _Shapes
from gdcover.errors import ResourceLimitError
from gdcover.geometry import Box, OrientedBox, Primitive, Similarity, rotation_2d
from gdcover.graph import Edge, MWGraph, Path
from gdcover.spectral import solve_s0

LN2 = math.log(2.0)
LN3 = math.log(3.0)

# exact thirds and halves, two coarser-than-seed radii (t < 0) and generic t
CORPUS_TS = (
    [n * LN3 for n in range(1, 5)]
    + [n * LN2 for n in range(1, 7)]
    + [-0.3, -0.05]
    + np.linspace(0.2, 4.6, 8).tolist()
)


def _assert_same_counts(graph, kernel_sets, oracle_sets, r, origin):
    want = {
        v: oracle.cell_union(oracle_sets[v], r, grid_origin=origin) for v in graph.vertex_order
    }
    got = covering.count(kernel_sets, r, grid_origin=origin)
    assert got.per_vertex == tuple(len(want[v]) for v in graph.vertex_order)
    assert got.total == len(set().union(*want.values()))
    for v in graph.vertex_order:
        assert covering.cell_union(kernel_sets[v], r, grid_origin=origin) == want[v]


@pytest.mark.parametrize("name", BUNDLED_NAMES)
def test_corpus_counts_match_oracle(bundled, name):
    graph = bundled[name]
    assert len(CORPUS_TS) >= 20
    for t in CORPUS_TS:
        r = math.exp(-t)
        kernel_sets = {v: covering.generate(graph, v, r) for v in graph.vertex_order}
        oracle_sets = {v: oracle.generate(graph, v, r) for v in graph.vertex_order}
        for origin in (0.0, 0.316, r / 2):
            _assert_same_counts(graph, kernel_sets, oracle_sets, r, origin)


@pytest.mark.parametrize("name", BUNDLED_NAMES)
def test_corpus_elements_match_oracle(bundled, name):
    graph = bundled[name]
    for t in (0.5, 2.0, 3.5):
        r = math.exp(-t)
        for v in graph.vertex_order:
            got = covering.generate(graph, v, r)
            want = oracle.generate(graph, v, r)
            assert got.n_elements == want.n_elements
            assert got.elements == want.elements


def _shape_rows(shapes: _Shapes) -> list:
    obbs = np.concatenate([shapes.obb_c, shapes.obb_h.reshape(len(shapes.obb_h), -1)], axis=1)
    segs = np.concatenate([shapes.seg_a, shapes.seg_b], axis=1)
    return [sorted(map(tuple, a.tolist())) for a in (shapes.points, segs, obbs)]


@pytest.mark.parametrize("name", BUNDLED_NAMES)
def test_shape_coordinates_are_bitwise_the_scalar_images(bundled, name):
    # node maps, centres and half axes repeat Similarity.compose/apply and
    # OrientedBox.image_of operation for operation
    graph = bundled[name]
    for t in (2.0, 3.0, 4.0, 5.0):
        r = math.exp(-t)
        for v in graph.vertex_order:
            got = covering.generate(graph, v, r)._shapes()
            want = _Shapes.of_elements(oracle.generate(graph, v, r).elements)
            assert _shape_rows(got) == _shape_rows(want), t


def test_near_tangent_rotated_boxes_match_oracle():
    # boxes placed within float noise of the separating-axis threshold of
    # one cell: the fast test is unsure there and defers to the exact one
    rng = np.random.default_rng(5)
    for r in (1.0, 0.037):
        for _ in range(500):
            a = math.radians(rng.uniform(1.0, 89.0))
            u = np.array([math.cos(a), math.sin(a)])
            v = np.array([-math.sin(a), math.cos(a)])
            w, h = rng.uniform(0.3, 2.0, size=2) * r
            reach = 0.5 * r * (abs(u[0]) + abs(u[1])) + w / 2 - covering.ETA * r
            c = (np.array([3, 5]) + 0.5) * r + reach * u + rng.uniform(-0.4, 0.4) * r * v
            box = OrientedBox(tuple(c), (tuple(u * (w / 2)), tuple(v * (h / 2))))
            gset = GeometrySet("X", r, (SetElement("cylinder", box, Path("X")),))
            assert covering.cell_union(gset, r) == oracle.cell_union(gset, r)


def test_profile_and_forcing_share_the_oracle_counts(bundled):
    # one walk sized for the largest t serves every coarser sample
    graph = bundled["two_vertex"]
    ts = [0.4, 1.3, 2.2, 3.1, 4.0]
    prof = covering.profile_at(graph, ts)
    ctx = covering.ForcingContext(graph, solve_s0(graph), ts)
    for sample in prof.samples:
        sets = {v: oracle.generate(graph, v, sample.r) for v in graph.vertex_order}
        per, total = oracle.count(sets, sample.r)
        assert sample.counts == per and sample.total == total
        assert tuple(ctx.count_at(v, sample.t) for v in graph.vertex_order) == per


def test_count_at_beyond_the_grid_rewalks(bundled):
    graph = bundled["cantor_point"]
    ctx = covering.ForcingContext(graph, solve_s0(graph), [1.0, 2.0])
    r = math.exp(-4.0)
    (want,), _ = oracle.count(oracle.generate(graph, "X", r), r)
    assert ctx.count_at("X", 4.0) == want


def test_child_time_snaps_float_noise_to_zero(bundled):
    edge = bundled["sierpinski"].out_edges("X")[0]
    assert covering.child_time(edge.log_ratio - 1e-16, edge) == 0.0
    assert covering.child_time(edge.log_ratio + 0.5, edge) == pytest.approx(0.5)
    assert covering.child_time(0.0, edge) == -edge.log_ratio


# -- random small systems -------------------------------------------------------

RATIOS = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(2, 5))
ANGLES = (30.0, 45.0, 90.0, 135.0)


@st.composite
def systems(draw, dim):
    n_edges = draw(st.integers(2, 3))
    edges = []
    for k in range(n_edges):
        q = draw(st.sampled_from(RATIOS))
        shift = [draw(st.integers(0, 8)) / 8 * (1 - float(q)) for _ in range(dim)]
        iso = np.eye(dim)
        if dim == 2 and k == 0:
            iso = rotation_2d(draw(st.sampled_from(ANGLES)))
        edges.append(Edge(f"e{k}", "X", "X", Similarity(float(q), iso, shift), q))
    grid = st.integers(0, 16).map(lambda m: m / 16)
    prims = []
    for kind in draw(st.lists(st.sampled_from(("point", "segment", "box")), max_size=2)):
        a = [draw(grid) for _ in range(dim)]
        b = [draw(grid) for _ in range(dim)]
        if kind == "point":
            prims.append(Primitive.point(a))
        elif kind == "segment":
            prims.append(Primitive.segment(a, b))
        else:
            prims.append(Primitive.box(np.minimum(a, b), np.maximum(a, b)))
    return MWGraph(
        dimension=dim,
        vertices={"X": Box((0.0,) * dim, (1.0,) * dim)},
        edges=edges,
        condensation={"X": tuple(prims)},
    )


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    graph=st.sampled_from((1, 2)).flatmap(systems),
    t=st.floats(0.3, 3.0),
    origin_pick=st.sampled_from(("zero", "offset", "half")),
)
def test_random_systems_match_oracle(graph, t, origin_pick):
    r = math.exp(-t)
    origin = {"zero": 0.0, "offset": 0.316, "half": r / 2}[origin_pick]
    kernel_sets = {"X": covering.generate(graph, "X", r)}
    oracle_sets = {"X": oracle.generate(graph, "X", r)}
    assert kernel_sets["X"].elements == oracle_sets["X"].elements
    want = _Shapes.of_elements(oracle_sets["X"].elements)
    assert _shape_rows(kernel_sets["X"]._shapes()) == _shape_rows(want)
    _assert_same_counts(graph, kernel_sets, oracle_sets, r, origin)


@settings(max_examples=25, deadline=None)
@given(graph=st.sampled_from((1, 2)).flatmap(systems), t=st.floats(1.0, 2.5))
def test_random_systems_both_hit_tiny_caps(graph, t):
    r = math.exp(-t)
    with pytest.raises(ResourceLimitError):
        covering.generate(graph, "X", r, cap=2)
    with pytest.raises(ResourceLimitError):
        oracle.generate(graph, "X", r, cap=2)
    n = covering.count(covering.generate(graph, "X", r), r).total
    if n >= 2:
        with pytest.raises(ResourceLimitError):
            covering.count(covering.generate(graph, "X", r), r, cap=n - 1)
        with pytest.raises(ResourceLimitError):
            oracle.count(oracle.generate(graph, "X", r), r, cap=n - 1)
