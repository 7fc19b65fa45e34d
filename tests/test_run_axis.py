"""The run axis: counts do not depend on the axis runs lie along.

The kernel stores cells as runs along one axis per system, picked by
``_run_axis`` from the seed boxes and condensation primitives.  Permuting
the coordinates of a system permutes its cells and so keeps every count;
with signed-permutation maps the coordinates of the copy are exactly the
permuted ones, so the counts must agree exactly.  Cell sets come back in
the caller's axis order whatever the run axis, and the walk's work
estimate still covers the runs a pass builds.
"""
import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import covering_oracle as oracle
from helpers import kernel_cells, kernel_runs, piece_rows, sierpinski_graph, walk_runs

from gdcover import covering
from gdcover.covering import _CellUnion, _origin_vector, _run_axis, _Walk
from gdcover.geometry import Box, Primitive, Similarity
from gdcover.graph import Edge, MWGraph

ORIGINS = (0.0, 0.316)
QUARTER = np.array([[0.0, -1.0], [1.0, 0.0]])


def transposed(graph: MWGraph, perm) -> MWGraph:
    """``graph`` with coordinate k of every point, box, translation and
    primitive taken from coordinate ``perm[k]``, and each isometry Q
    conjugated to P Q P^T."""
    perm = list(perm)
    p = np.eye(graph.dimension)[perm]

    def move(x):
        return tuple(np.asarray(x, dtype=float)[perm])

    edges = [
        Edge(e.id, e.src, e.dst,
             Similarity(e.ratio, p @ e.map.isometry @ p.T, p @ e.map.translation),
             e.ratio_rational)
        for e in graph.edges.values()
    ]
    return MWGraph(
        dimension=graph.dimension,
        vertices={v: Box(move(b.lo), move(b.hi)) for v, b in graph.vertices.items()},
        edges=edges,
        condensation={
            v: tuple(Primitive(q.kind, tuple(map(move, q.points))) for q in prims)
            for v, prims in graph.condensation.items()
        },
    )


def _slab_system() -> MWGraph:
    """A 3-d system whose condensation is a thin slab, flat in z, with a
    quarter turn about the z axis on one edge."""
    turn = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    return MWGraph(
        dimension=3,
        vertices={"X": Box((0.0,) * 3, (1.0,) * 3)},
        edges=[
            Edge("a", "X", "X", Similarity(0.5, turn, [0.5, 0.0, 0.0]), Fraction(1, 2)),
            Edge("b", "X", "X", Similarity(1 / 3, np.eye(3), [2 / 3] * 3), Fraction(1, 3)),
        ],
        condensation={"X": (Primitive.box([0.1, 0.2, 0.4], [0.9, 0.7, 0.45]),)},
    )


def _crossed_system() -> MWGraph:
    """Two vertices that prefer different run axes: X is wide with a
    horizontal segment, Y tall with a shorter vertical one; the system as a
    whole runs along x."""
    return MWGraph(
        dimension=2,
        vertices={"X": Box((0.0, 0.0), (2.0, 1.0)), "Y": Box((0.0, 0.0), (1.0, 2.0))},
        edges=[
            Edge("xx", "X", "X", Similarity(0.5, np.eye(2), [0.0, 0.0]), Fraction(1, 2)),
            Edge("xy", "X", "Y", Similarity(0.5, np.eye(2), [1.5, 0.0]), Fraction(1, 2)),
            Edge("yx", "Y", "X", Similarity(0.5, QUARTER, [0.5, 1.0]), Fraction(1, 2)),
            Edge("yy", "Y", "Y", Similarity(0.5, np.eye(2), [0.5, 0.0]), Fraction(1, 2)),
        ],
        condensation={
            "X": (Primitive.segment([0.0, 0.75], [2.0, 0.75]),),
            "Y": (Primitive.segment([0.75, 0.25], [0.75, 1.75]),),
        },
    )


def _turned_dust() -> MWGraph:
    """``dust2d_edge`` with a quarter turn on its first map: the images of
    its horizontal segment alternate between horizontal and vertical, and
    every cylinder stays on the grid of thirds."""
    return MWGraph(
        dimension=2,
        vertices={"X": Box((0.0, 0.0), (1.0, 1.0))},
        edges=[
            Edge("a", "X", "X", Similarity(1 / 3, QUARTER, [1 / 3, 0.0]), Fraction(1, 3)),
            Edge("b", "X", "X", Similarity(1 / 3, np.eye(2), [2 / 3, 2 / 3]), Fraction(1, 3)),
        ],
        condensation={"X": (Primitive.segment([0.0, 0.0], [1.0, 0.0]),)},
    )


def _quarter_cube() -> MWGraph:
    """The eight corner maps of ratio 1/4 of the unit cube, with a box of
    condensation in its middle: every cylinder stays on the grid of
    quarters."""
    edges = [Edge(f"e{k}", "X", "X", Similarity(0.25, np.eye(3), list(c)), Fraction(1, 4))
             for k, c in enumerate(itertools.product((0.0, 0.75), repeat=3))]
    return MWGraph(3, {"X": Box((0.0,) * 3, (1.0,) * 3)}, edges,
                   {"X": (Primitive.box((0.3,) * 3, (0.7,) * 3),)})


def _boxed(graph: MWGraph, prim: Primitive) -> MWGraph:
    """One-vertex ``graph`` with ``prim`` as its condensation."""
    return MWGraph(graph.dimension, graph.vertices, graph.edges.values(), {"X": (prim,)})


def _oblique_sierpinski() -> MWGraph:
    """The Sierpinski maps with a condensation segment in the open corner,
    oblique but close to the run axis: its samples are charged on both axes."""
    return sierpinski_graph(condensation={"X": (Primitive.segment([0.55, 0.6], [0.95, 0.65]),)})


def _counts(graph, t, origin):
    r = math.exp(-t)
    sets = {v: covering.generate(graph, v, r) for v in graph.vertex_order}
    return covering.count(sets, r, grid_origin=origin)


def _profile(graph, ts, origin):
    prof = covering.profile_at(graph, ts, grid_origin=origin)
    return [(s.counts, s.total) for s in prof.samples]


def _assert_transpose_invariant(graph, perm, ts):
    copy = transposed(graph, perm)
    for origin in ORIGINS:
        for t in ts:
            assert _counts(copy, t, origin) == _counts(graph, t, origin), (perm, t, origin)
        # radii counted in tagged passes of several radii each
        assert _profile(copy, ts, origin) == _profile(graph, ts, origin), (perm, origin)


def test_run_axis_follows_the_longest_extent(bundled):
    assert _run_axis(bundled["dust2d_edge"]) == 0
    assert _run_axis(transposed(bundled["dust2d_edge"], [1, 0])) == 1
    # ties keep the last axis
    assert _run_axis(bundled["sierpinski"]) == 1
    assert _run_axis(bundled["rotated2d"]) == 1
    assert _run_axis(bundled["cantor_segment"]) == 0
    assert _run_axis(_slab_system()) == 0
    assert _run_axis(transposed(_slab_system(), [2, 0, 1])) == 1
    assert _run_axis(_crossed_system()) == 0


@pytest.mark.parametrize("name", ["dust2d_edge", "sierpinski"])
def test_transposed_bundled_systems_count_alike(bundled, name):
    _assert_transpose_invariant(bundled[name], [1, 0], [1.0, 3.0, 5.0, 6.5])


@pytest.mark.parametrize("perm", [[1, 0, 2], [2, 0, 1], [0, 2, 1]])
def test_transposed_slab_counts_alike(perm):
    _assert_transpose_invariant(_slab_system(), perm, [0.5, 1.5, 2.5, 3.2])


SIGNED_PERMUTATIONS = {
    d: [np.eye(d)[list(p)] * np.array(s)
        for p in itertools.permutations(range(d))
        for s in itertools.product((1.0, -1.0), repeat=d)]
    for d in (2, 3)
}
RATIOS = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4))
WIDTHS = (0.5, 1.0, 2.0)


@st.composite
def signed_permutation_systems(draw):
    """1-2 vertices in d = 2 or 3 with seed boxes of unequal sides,
    signed-permutation maps and condensation points, segments and boxes."""
    dim = draw(st.sampled_from((2, 3)))
    names = ("X", "Y")[: draw(st.integers(1, 2))]
    ends = [("X", "X"), ("X", "X")] if len(names) == 1 else [("X", "X"), ("X", "Y"), ("Y", "X")]
    grid = st.integers(0, 8).map(lambda m: m / 8)
    width = {v: [draw(st.sampled_from(WIDTHS)) for _ in range(dim)] for v in names}
    edges = []
    for k, (src, dst) in enumerate(ends):
        q = draw(st.sampled_from(RATIOS))
        iso = draw(st.sampled_from(SIGNED_PERMUTATIONS[dim]))
        shift = [draw(grid) * width[src][j] for j in range(dim)]
        edges.append(Edge(f"e{k}", src, dst, Similarity(float(q), iso, shift), q))
    condensation = {}
    for v in names:
        prims = []
        for kind in draw(st.lists(st.sampled_from(("point", "segment", "box")), max_size=2)):
            a = [draw(grid) * w for w in width[v]]
            b = [draw(grid) * w for w in width[v]]
            if kind == "point":
                prims.append(Primitive.point(a))
            elif kind == "segment":
                prims.append(Primitive.segment(a, b))
            else:
                prims.append(Primitive.box(np.minimum(a, b), np.maximum(a, b)))
        condensation[v] = tuple(prims)
    return MWGraph(
        dimension=dim,
        vertices={v: Box((0.0,) * dim, tuple(width[v])) for v in names},
        edges=edges,
        condensation=condensation,
    )


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(graph=signed_permutation_systems(), data=st.data())
def test_transposed_signed_permutation_systems_count_alike(graph, data):
    perm = data.draw(st.permutations(range(graph.dimension)))
    top = 3.0 if graph.dimension == 2 else 2.0
    ts = data.draw(st.lists(st.floats(-0.5, top), min_size=1, max_size=4, unique=True))
    _assert_transpose_invariant(graph, perm, ts)


# -- the kernel on every axis ---------------------------------------------------


def _oracle_cells(graph, v, r, origin) -> set:
    return oracle.cell_union(oracle.generate(graph, v, r), r, grid_origin=origin)


@pytest.mark.parametrize("make", [_slab_system, _crossed_system, _turned_dust])
def test_cells_come_back_in_the_callers_axis_order(make):
    # one radius and a tagged pass of three, along every axis, and cell_union
    graph = make()
    ts = (1.0, 2.0, 3.0)
    radii = np.array(sorted(math.exp(-t) for t in ts))
    for origin in ORIGINS:
        o = _origin_vector(origin, graph.dimension)
        for v in graph.vertex_order:
            walk = _Walk(graph, v, radii[0])
            want = [_oracle_cells(graph, v, r, origin) for r in radii]
            dim = graph.dimension
            for axis in range(dim):
                for r, cells in zip(radii, want):
                    got = kernel_cells(dim, walk.pieces(r, axis), r, o, axis)
                    assert set(map(tuple, got.tolist())) == cells, (axis, r)
                rows = kernel_cells(dim, walk.pieces(radii, axis), radii, o, axis)
                for k, cells in enumerate(want):
                    assert set(map(tuple, rows[rows[:, 0] == k, 1:].tolist())) == cells
            for r, cells in zip(radii, want):
                assert covering.cell_union(covering.generate(graph, v, r), r,
                                           grid_origin=origin) == cells


def test_vertices_preferring_different_axes_match_the_oracle():
    # every vertex's runs lie along the system's one axis, so the total
    # deduplicates across vertices
    graph = _crossed_system()
    ts = [0.5, 1.5, 2.5, 3.5, 4.0]
    for origin in ORIGINS:
        prof = covering.profile_at(graph, ts, grid_origin=origin)
        for sample in prof.samples:
            sets = {v: oracle.generate(graph, v, sample.r) for v in graph.vertex_order}
            want = oracle.count(sets, sample.r, grid_origin=origin)
            assert (sample.counts, sample.total) == want
            got = _counts(graph, sample.t, origin)
            assert (got.per_vertex, got.total) == want


def _candidate_runs(fn):
    """``fn()`` with every candidate run it builds counted: the runs a union
    receives, and for rotated boxes every cell of their bounding boxes, the
    missed ones too."""
    built = []
    add, hits = _CellUnion.add, covering._obb_hits

    def spy(acc, start, stop):
        built.append(start.size)
        return add(acc, start, stop)

    def spy_hits(*args):
        rows, owner, hit = hits(*args)
        built.append(rows.shape[0] - np.count_nonzero(hit))
        return rows, owner, hit

    with mock.patch.object(_CellUnion, "add", spy), mock.patch.object(covering, "_obb_hits", spy_hits):
        fn()
    return sum(built)


@pytest.mark.parametrize("dim", [2, 3])
def test_an_axis_parallel_segment_is_one_run(dim):
    r = 0.1
    for axis in range(dim):
        a = np.full((1, dim), 0.35)
        b = a.copy()
        b[0, axis] = 2.05  # 18 cells along the axis
        pieces = [("segment", (a, b), None)]
        o = np.zeros(dim)
        assert _candidate_runs(lambda: kernel_runs(dim, pieces, r, o, axis)) == 1
        assert kernel_runs(dim, pieces, r, o, axis)[1].size == 1
        assert kernel_cells(dim, pieces, r, o, axis).shape[0] == 18
        # along another axis each cell is a run of its own
        other = (axis + 1) % dim
        assert _candidate_runs(lambda: kernel_runs(dim, pieces, r, o, other)) == 18


def test_horizontal_segment_images_are_one_run_each(bundled):
    graph = bundled["dust2d_edge"]
    r = math.exp(-6.0)
    axis = _run_axis(graph)
    segments = [p for p in _Walk(graph, "X", r).pieces(r, axis) if p[0] == "segment"]
    n = _candidate_runs(lambda: kernel_runs(2, segments, r, np.zeros(2), axis))
    assert n == len(piece_rows(segments)["segment"]) > 0


THIRDS = [3.0**-n for n in (5, 4, 3, 2)]


@pytest.mark.parametrize("make", [  # each gives a system, radii and a cylinder spread
    lambda b: (b["dust2d_edge"], THIRDS, 1),
    lambda b: (transposed(b["dust2d_edge"], [1, 0]), THIRDS, 1),
    lambda b: (_turned_dust(), THIRDS, 1),
    lambda b: (_quarter_cube(), [4.0**-n for n in (4, 3, 2)], 1),
    lambda b: (_oblique_sierpinski(), [2.0**-n for n in (7, 5, 3)], 1),
    lambda b: (_boxed(b["rotated2d"], Primitive.box((0.42, 0.05), (0.58, 0.3))),
               [math.exp(-t) for t in (7.0, 5.0, 3.0)], 4),
])
def test_work_covers_the_candidate_runs(bundled, make):
    # on the grid of thirds (quarters for the cube, halves for Sierpinski)
    # each cylinder meets one cell, so the estimate's one run per cylinder
    # holds; a rotated cylinder builds a candidate per cell of its bounding
    # box, at most 2 x 2.  The condensation images, some vertical under the
    # quarter turn, build at most what they are charged: for boxes, the
    # product of the cells they can span (across the run axis, or on both
    # axes when rotated), not its sum; for an oblique segment, its samples,
    # counted from its grid planes on every axis
    graph, radii, spread = make(bundled)
    axis = _run_axis(graph)
    o = np.zeros(graph.dimension)
    radii = np.array(radii)
    whole, bare = (_Walk(g, "X", radii[0]) for g in (graph, graph.without_condensation()))
    work, leaf_work = whole.work(radii, axis), bare.work(radii, axis)
    for r, w, lw in [*zip(radii, work, leaf_work), (radii, work.sum(), leaf_work.sum())]:
        built = _candidate_runs(lambda: walk_runs(whole, r, o, axis))
        leaves = _candidate_runs(lambda: walk_runs(bare, r, o, axis))
        assert built - leaves <= w - lw
        assert leaves <= spread * lw


@pytest.mark.parametrize("make, t", [
    (lambda b: b["sierpinski"], 6.0),  # leaf boxes
    (lambda b: b["rotated2d"], 7.0),  # rotated leaves
    (lambda b: _oblique_sierpinski(), 6.0),  # oblique 2-d segments
    (lambda b: _quarter_cube(), 5.0),  # 3-d condensation boxes
    (lambda b: _boxed(b["rotated2d"], Primitive.box((0.42, 0.05), (0.58, 0.3))), 7.0),  # rotated ones
])
def test_a_chunk_builds_within_its_factor_of_the_budget(bundled, make, t):
    # a slice's estimate passes _WORK by at most one node's, and its
    # elements build at most 2^d candidates per estimated one
    graph = make(bundled)
    axis = _run_axis(graph)
    dim = graph.dimension
    o = np.zeros(dim)
    r = math.exp(-t)
    walk = _Walk(graph, "X", r)
    most = max(oracle.node_cost(walk, v, inner, walk.cls[a + np.flatnonzero(hi > lo)], r, axis)
               .max(initial=0) for v, inner, a, lo, hi in walk._blocks(np.array([r])))
    estimate, built, images = [], [], walk._images

    def spy(v, inner, nodes, n, tag):
        estimate.append(oracle.node_cost(walk, v, inner, walk.cls[nodes], r, axis).sum())
        built.append(0)
        return images(v, inner, nodes, n, tag)

    with mock.patch.object(walk, "_images", spy):
        for piece in walk.pieces(r, axis):  # each piece counted with its slice
            built[-1] += _candidate_runs(lambda: kernel_runs(dim, [piece], r, o, axis))
    assert len(built) > 2
    for runs, est in zip(built, estimate):
        assert 0 < est <= covering._WORK + most
        assert runs <= 2**dim * est
