"""Differential tests: the array counting kernel against the per-element oracle.

``covering_oracle`` walks the prefix tree depth first, composing one
similarity per node, and charges each element's cells to a Python set.  The
kernel must reproduce its cells exactly: same per-vertex counts, same
totals, same cell sets, and the same elements, bit for bit, as arrays.
"""
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import covering_oracle as oracle
import forcing_oracle
from conftest import BUNDLED_NAMES
from covering_oracle import OrientedBox, PointShape, SegmentShape
from helpers import (
    PIECE_KINDS,
    assert_disjoint,
    kernel_cells,
    kernel_count,
    kernel_runs,
    line_map,
    obb_piece,
    piece_rows,
    set_pieces,
    shape_pieces,
    two_ratio_graph,
    walk_runs,
)

from gdcover import asymptotics, covering
from gdcover.covering import (
    _BoxAxes,
    _CellUnion,
    _Ids,
    _origin_vector,
    _totals,
    _Walk,
)
from gdcover.errors import NumericalError, ResourceLimitError
from gdcover.geometry import Box, Primitive, Similarity, rotation_2d
from gdcover.graph import Edge, MWGraph, Path, validate
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


def pieces_of_elements(elements) -> list:
    """The oracle's covering elements as the kernel's pieces: a box charged
    its bounding box (axis-aligned, or any box in dimension > 2) as the
    bounds of ``bounding_box``, any other as its ``image_of`` centre and
    half axes."""
    points, segments, boxes, obbs = [], [], [], []
    dim = 0
    for e in elements:
        s = e.shape
        if isinstance(s, PointShape):
            points.append(s.point)
            dim = len(s.point)
        elif isinstance(s, SegmentShape):
            segments.append((s.a, s.b))
            dim = len(s.a)
        elif isinstance(s, OrientedBox):
            if s.is_axis_aligned() or s.dim > 2:
                bounds = s.bounding_box()
                boxes.append((bounds.lo, bounds.hi))
            else:
                obbs.append((s.center, s.half_axes))
            dim = s.dim
        else:
            raise TypeError(f"unsupported shape {type(s).__name__}")
    pieces = shape_pieces(dim, points, segments, boxes)
    return pieces + [obb_piece(*zip(*obbs))] if obbs else pieces


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


def _shape_rows(pieces) -> list:
    """Each kind's coordinate rows, sorted."""
    return [sorted(rows) for rows in piece_rows(pieces).values()]


def _assert_same_elements(kernel_set, oracle_set):
    assert kernel_set.n_elements == oracle_set.n_elements
    want = pieces_of_elements(oracle_set.elements)
    assert _shape_rows(set_pieces(kernel_set)) == _shape_rows(want)


@pytest.mark.parametrize("name", BUNDLED_NAMES)
def test_corpus_elements_match_oracle(bundled, name):
    graph = bundled[name]
    for t in (0.5, 2.0, 3.5):
        r = math.exp(-t)
        for v in graph.vertex_order:
            _assert_same_elements(covering.generate(graph, v, r), oracle.generate(graph, v, r))


@pytest.mark.parametrize("name", BUNDLED_NAMES)
def test_shape_coordinates_are_bitwise_the_scalar_images(bundled, name):
    # node maps, box bounds, and the centres and half axes of rotated boxes
    # repeat Similarity.compose/apply, OrientedBox.image_of and
    # OrientedBox.bounding_box operation for operation
    graph = bundled[name]
    for t in (2.0, 3.0, 4.0, 5.0):
        r = math.exp(-t)
        for v in graph.vertex_order:
            got = set_pieces(covering.generate(graph, v, r))
            want = pieces_of_elements(oracle.generate(graph, v, r).elements)
            assert _shape_rows(got) == _shape_rows(want), t


def _near_tangent_box(rng, r: float) -> OrientedBox:
    """A box within float noise of the separating-axis threshold of one
    cell along its first axis."""
    a = math.radians(rng.uniform(1.0, 89.0))
    u = np.array([math.cos(a), math.sin(a)])
    v = np.array([-math.sin(a), math.cos(a)])
    w, h = rng.uniform(0.3, 2.0, size=2) * r
    reach = 0.5 * r * (abs(u[0]) + abs(u[1])) + w / 2 - covering.ETA * r
    c = (np.array([3, 5]) + 0.5) * r + reach * u + rng.uniform(-0.4, 0.4) * r * v
    return OrientedBox(tuple(c), (tuple(u * (w / 2)), tuple(v * (h / 2))))


def test_near_tangent_rotated_boxes_match_oracle():
    # boxes placed within float noise of the separating-axis threshold of
    # one cell: the fast test is unsure there and defers to the exact one
    rng = np.random.default_rng(5)
    for r in (1.0, 0.037):
        for _ in range(500):
            box = _near_tangent_box(rng, r)
            rows = kernel_cells(2, [obb_piece(box.center, box.half_axes)], r, np.zeros(2))
            element = oracle.SetElement("cylinder", box, Path("X"))
            want = oracle.cell_union(oracle.ElementSet("X", r, (element,)), r)
            assert set(map(tuple, rows.tolist())) == want


def _hits_match_per_box(center, row, axes, r, origin, obb_hits=covering._obb_hits):
    """``covering._obb_hits``, its hit mask checked bit for bit against the
    per-box separating-axis test of the boxes' own half axes; returns what it
    returns, and the number of candidates retested exactly."""
    rows, owner, hit = obb_hits(center, row, axes, r, origin)
    want, redone = oracle.per_box_obb_hits(center, axes.half[row], r, origin, rows, owner)
    assert hit.tobytes() == want.tobytes()
    return rows, owner, hit, redone


def test_class_table_hits_match_the_per_box_test_on_kernel_boxes(bundled):
    # near-tangent boxes, a row each, some reaching the exact retest; and the
    # rotated cylinders of rotated2d given per box, at one radius and tagged
    rng = np.random.default_rng(5)
    origin = np.zeros(2)
    for r in (1.0, 0.037):
        boxes = [_near_tangent_box(rng, r) for _ in range(500)]
        _kind, arrays, _tag = obb_piece([b.center for b in boxes], [b.half_axes for b in boxes])
        hits = _hits_match_per_box(*arrays, r, origin)
        assert hits[-1] > 0
    graph = bundled["rotated2d"]
    radii = np.array([math.exp(-t) for t in (5.0, 4.0, 3.0)])
    tagged = [p for p in _Walk(graph, "X", radii[0]).pieces(radii, 1) if p[0] == "obb"]
    centre, half, tag = (np.concatenate(x) for x in zip(*[
        (c, axes.half[row], tag) for _kind, (c, row, axes), tag in tagged]))
    _kind, per_box, _tag = obb_piece(centre, half)
    for origin in (np.zeros(2), np.full(2, 0.316)):
        for r in (radii[0], radii[tag]):
            rows = _hits_match_per_box(*per_box, r, origin)[0]
            assert rows.shape[0]


def test_class_table_hits_match_the_per_box_test_on_rotated2d(bundled):
    # every separating-axis pass of a count at t = 7 and of the bounded
    # analysis (n 2..6, 4 offsets, with its cross-check's forcing radii)
    graph = bundled["rotated2d"]
    calls = []

    def checked(*args):
        rows, owner, hit, _redone = _hits_match_per_box(*args)
        calls.append(rows.shape[0])
        return rows, owner, hit

    with mock.patch.object(covering, "_obb_hits", checked):
        r = math.exp(-7.0)
        for origin in (0.0, 0.316):
            covering.count({"X": covering.generate(graph, "X", r)}, r, grid_origin=origin)
        asymptotics.analyze(graph, n_min=2, n_max=6, y_samples=4)
    assert len(calls) > 2 and sum(calls) > 25_000


def test_fast_separating_axes_form_once_per_walk_table(bundled):
    # one table of the seed box, a row per class, serves every pass and
    # every exact retest: the retest reads its rows and forms none
    graph = bundled["rotated2d"]
    real_axes, real_exact = covering._sat_axes, covering._sat_exact
    formed, retested = [], []

    def spy_axes(half):
        formed.append(half.shape[0])
        return real_axes(half)

    def spy_exact(diff, cls, axes, r):
        retested.append(diff.shape[0])
        return real_exact(diff, cls, axes, r)

    radii = np.geomspace(math.exp(-6.0), 1.0, 6)
    with mock.patch.object(covering, "_sat_axes", spy_axes), \
            mock.patch.object(covering, "_sat_exact", spy_exact):
        walk = _Walk(graph, "X", radii[0])
        for r in radii:
            walk_runs(walk, r, np.zeros(2), 1)
        walk_runs(walk, radii, np.full(2, 0.316), 1)
        assert formed == [walk.c_ratio.size]
        # near-tangent boxes reach the retest: their one table is all it reads
        rng = np.random.default_rng(5)
        boxes = [_near_tangent_box(rng, 1.0) for _ in range(200)]
        _kind, arrays, _tag = obb_piece([b.center for b in boxes], [b.half_axes for b in boxes])
        covering._obb_hits(*arrays, 1.0, np.zeros(2))
    assert formed == [walk.c_ratio.size, len(boxes)]
    assert sum(retested) > 0


def test_profile_and_forcing_share_the_oracle_counts(bundled):
    # one walk sized for the largest t serves every coarser sample
    graph = bundled["two_vertex"]
    ts = [0.4, 1.3, 2.2, 3.1, 4.0]
    prof = covering.profile_at(graph, ts)
    ctx = covering.ForcingContext(graph)
    for sample in prof.samples:
        sets = {v: oracle.generate(graph, v, sample.r) for v in graph.vertex_order}
        per, total = oracle.count(sets, sample.r)
        assert sample.counts == per and sample.total == total
        assert tuple(ctx.count_at(v, sample.t) for v in graph.vertex_order) == per


def test_count_at_beyond_the_grid_rewalks(bundled):
    graph = bundled["cantor_point"]
    ctx = covering.ForcingContext(graph)
    ctx.fill("X", [1.0, 2.0])
    r = math.exp(-4.0)
    (want,), _ = oracle.count(oracle.generate(graph, "X", r), r)
    assert ctx.count_at("X", 4.0) == want


def test_fill_counts_every_vertex(bundled):
    # a fill for one vertex counts the others at the same t: reading them
    # walks nothing, and every count is the profile's
    graph = bundled["two_vertex"]
    ts = [0.4, 1.3, 2.2]
    ctx = covering.ForcingContext(graph)
    ctx.fill("P", ts)
    prof = covering.profile_at(graph, ts)
    with mock.patch.object(_Walk, "__init__", side_effect=AssertionError("walk")):
        assert [ctx.count_at("Q", t) for t in ts] == [s.counts[1] for s in prof.samples]
    assert ctx.counts == {
        (v, s.t): c for s in prof.samples for v, c in zip(prof.vertex_order, s.counts)
    }


def test_child_time_snaps_float_noise_to_zero(bundled):
    edge = bundled["sierpinski"].out_edges("X")[0]
    assert forcing_oracle.child_time(edge.log_ratio - 1e-16, edge) == 0.0
    assert forcing_oracle.child_time(edge.log_ratio + 0.5, edge) == pytest.approx(0.5)
    assert forcing_oracle.child_time(0.0, edge) == -edge.log_ratio


# -- random small systems -------------------------------------------------------

RATIOS = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(2, 5))
ANGLES = (30.0, 45.0, 90.0, 135.0)
# isometries a system's edges draw, the first edge's only unless composed:
# rotations (rotation_2d(90) is not exactly a quarter turn) and exact signed
# permutations
FIRST_ISOMETRIES = {
    1: (np.eye(1), -np.eye(1)),
    2: tuple(rotation_2d(a) for a in ANGLES)
    + (np.array([[0.0, -1.0], [1.0, 0.0]]), np.array([[0.0, 1.0], [1.0, 0.0]])),
}


# edge ends of the two-vertex systems: strongly connected, X and Y overlap
TWO_VERTEX_ENDS = (("X", "X"), ("X", "Y"), ("Y", "X"), ("Y", "Y"))


@st.composite
def systems(draw, dim, two_vertices=False, composed=False):
    """A random system; only its first edge has an isometry, unless
    ``composed``, when every edge draws one, so that classes carry products
    of different non-identity isometries."""
    ends = TWO_VERTEX_ENDS if two_vertices else (("X", "X"),) * 3
    n_edges = draw(st.integers(3, 4)) if two_vertices else draw(st.integers(2, 3))
    edges = []
    for k in range(n_edges):
        q = draw(st.sampled_from(RATIOS))
        shift = [draw(st.integers(0, 8)) / 8 * (1 - float(q)) for _ in range(dim)]
        iso = draw(st.sampled_from(FIRST_ISOMETRIES[dim])) if k == 0 or composed else np.eye(dim)
        src, dst = ends[k]
        edges.append(Edge(f"e{k}", src, dst, Similarity(float(q), iso, shift), q))
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
    unit = Box((0.0,) * dim, (1.0,) * dim)
    return MWGraph(
        dimension=dim,
        vertices={"X": unit, "Y": unit} if two_vertices else {"X": unit},
        edges=edges,
        condensation={"X": tuple(prims), "Y": ()} if two_vertices else {"X": tuple(prims)},
    )


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    graph=st.one_of(st.sampled_from((1, 2)).flatmap(systems), systems(2, composed=True)),
    t=st.floats(0.3, 3.0),
    origin_pick=st.sampled_from(("zero", "offset", "half")),
)
def test_random_systems_match_oracle(graph, t, origin_pick):
    r = math.exp(-t)
    origin = {"zero": 0.0, "offset": 0.316, "half": r / 2}[origin_pick]
    kernel_sets = {"X": covering.generate(graph, "X", r)}
    oracle_sets = {"X": oracle.generate(graph, "X", r)}
    _assert_same_elements(kernel_sets["X"], oracle_sets["X"])
    _assert_same_counts(graph, kernel_sets, oracle_sets, r, origin)


@settings(max_examples=25, deadline=None)
@given(graph=st.sampled_from((1, 2)).flatmap(systems), t=st.floats(1.0, 2.5))
def test_random_systems_both_hit_tiny_caps(graph, t):
    r = math.exp(-t)
    with pytest.raises(ResourceLimitError), mock.patch.object(covering, "PATH_CAP", 2):
        covering.generate(graph, "X", r)
    with pytest.raises(ResourceLimitError):
        oracle.generate(graph, "X", r, cap=2)
    gset = covering.generate(graph, "X", r)
    n = covering.count(gset, r).total
    if n >= 2:
        with pytest.raises(ResourceLimitError), mock.patch.object(covering, "CELL_CAP", n - 1):
            covering.count(gset, r)
        with pytest.raises(ResourceLimitError):
            oracle.count(oracle.generate(graph, "X", r), r, cap=n - 1)


# -- dimension 3: rotated boxes are charged their bounding boxes ------------------


def _space_system() -> MWGraph:
    """A 3-d system with one edge rotated 30 degrees about the z axis and a
    segment condensation; its rotated cylinders are not axis aligned."""
    a = math.radians(30.0)
    c, s = math.cos(a), math.sin(a)
    spin = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    edges = [
        Edge("a", "X", "X", Similarity(0.5, spin, [0.25, 0.0, 0.0]), Fraction(1, 2)),
        Edge("b", "X", "X", Similarity(1 / 3, np.eye(3), [2 / 3] * 3), Fraction(1, 3)),
    ]
    return MWGraph(
        dimension=3,
        vertices={"X": Box((0.0,) * 3, (1.0,) * 3)},
        edges=edges,
        condensation={"X": (Primitive.segment([0.125, 0.875, 0.25], [0.875, 0.75, 0.875]),)},
    )


SPACE_TS = (0.4, 1.0, 2.0, 3.0 * LN2, 3.0, 3.5)


def test_space_counts_match_oracle():
    graph = _space_system()
    for t in SPACE_TS:
        r = math.exp(-t)
        kernel_sets = {"X": covering.generate(graph, "X", r)}
        oracle_sets = {"X": oracle.generate(graph, "X", r)}
        _assert_same_elements(kernel_sets["X"], oracle_sets["X"])
        if t >= 1.0:
            # rotated cylinders, each charged its bounding box
            rows = piece_rows(set_pieces(kernel_sets["X"]))
            cylinders = oracle_sets["X"].cylinders()
            assert not all(e.shape.is_axis_aligned() for e in cylinders)
            assert rows["segment"] and not rows["obb"]
        for origin in (0.0, 0.316, r / 2):
            _assert_same_counts(graph, kernel_sets, oracle_sets, r, origin)


@pytest.mark.parametrize("origin", [0.0, 0.316])
def test_space_profile_matches_one_radius_counts(origin):
    graph = _space_system()
    walk = _Walk(graph, "X", math.exp(-max(SPACE_TS)))
    prof = covering.profile_at(graph, SPACE_TS, grid_origin=origin)
    want = [_pass_cells(walk, math.exp(-t), origin).shape[0] for t in SPACE_TS]
    assert [s.counts[0] for s in prof.samples] == want
    assert [s.total for s in prof.samples] == want


# -- many radii in one pass -------------------------------------------------------
#
# ``_Walk.runs(radii)`` counts a sorted array of radii at once, and
# ``_totals`` groups radii by work before it does.  Every count must equal
# the one-radius pass ``runs(r)``, itself checked against the oracle above.

EXACT_TS = tuple(n * LN3 for n in range(4)) + tuple(n * LN2 for n in range(6))


@st.composite
def t_lists(draw):
    """t values with exact thirds and halves, t < 0 and repeats."""
    pool = st.one_of(
        st.sampled_from(EXACT_TS), st.floats(-0.6, 3.2), st.sampled_from((-0.3, -0.05))
    )
    ts = draw(st.lists(pool, min_size=1, max_size=14))
    return ts + draw(st.lists(st.sampled_from(ts), max_size=3))


def _origin(pick, ts):
    # "half" offsets the grid by half a cell of the finest radius
    return {"zero": 0.0, "offset": 0.316, "half": math.exp(-max(ts)) / 2}[pick]


def _pass_cells(walk, r, origin):
    """The cells of a walk's pass at r, one radius or (tagged) an array of them."""
    dim = walk.graph.dimension
    ids, start, stop = walk_runs(walk, r, _origin_vector(origin, dim), dim - 1)
    return ids.cells(start, stop)


ORIGIN_PICKS = st.sampled_from(("zero", "offset", "half"))
# group budgets from one radius per pass up to the default
BUDGETS = st.sampled_from((1, 12, 150, covering._WORK))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    graph=st.sampled_from((1, 2)).flatmap(systems),
    ts=t_lists(),
    origin_pick=ORIGIN_PICKS,
    budget=BUDGETS,
)
def test_batched_counts_match_one_radius_passes(graph, ts, origin_pick, budget):
    origin = _origin(origin_pick, ts)
    radii = np.array(sorted({math.exp(-t) for t in ts}))
    walk = _Walk(graph, "X", radii[0])
    want = [_pass_cells(walk, r, origin).shape[0] for r in radii]
    with mock.patch.object(covering, "_WORK", budget):
        got = _totals(graph, _origin_vector(origin, graph.dimension), ts)
    for t in ts:
        r = math.exp(-t)
        assert got[t].count("X") == want[int(np.searchsorted(radii, r))]


def _one_kind(pieces, kind: str, k: int | None = None) -> list:
    """The pieces of one kind alone; with k, only their rows of radius k,
    untagged."""
    out = []
    for p_kind, arrays, tag in pieces:
        if p_kind != kind:
            continue
        if k is not None:
            keep = tag == k
            arrays = tuple(x if isinstance(x, _BoxAxes) else x[keep] for x in arrays)
            tag = None
        out.append((kind, arrays, tag))
    return out


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(graph=st.sampled_from((1, 2)).flatmap(systems), ts=t_lists(), origin_pick=ORIGIN_PICKS)
def test_tagged_shapes_and_cells_match_each_radius(graph, ts, origin_pick):
    # radii equal to stopping sizes put nodes exactly on the leaf boundary;
    # each kind alone, so a box cannot hide a lost segment cell
    origin = _origin(origin_pick, ts)
    walk = _Walk(graph, "X", math.exp(-max(ts)))
    sizes = oracle.node_arrays(walk)["size"]
    sizes = sizes[sizes >= walk.r_min]
    ties = sizes[:: max(1, sizes.size // 4)]
    radii = np.unique(np.concatenate([[math.exp(-t) for t in ts], ties]))
    dim = graph.dimension
    o = _origin_vector(origin, dim)
    pieces = list(walk.pieces(radii, dim - 1))
    for k, r in enumerate(radii):
        alone = list(walk.pieces(r, dim - 1))
        for kind in PIECE_KINDS:
            assert _shape_rows(_one_kind(pieces, kind, k)) == _shape_rows(_one_kind(alone, kind))
    for kind in PIECE_KINDS:
        rows = kernel_cells(dim, _one_kind(pieces, kind), radii, o)
        for k, r in enumerate(radii):
            want = kernel_cells(dim, _one_kind(pieces, kind, k), r, o)
            got = rows[rows[:, 0] == k, 1:]
            assert set(map(tuple, got.tolist())) == set(map(tuple, want.tolist()))


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    graph=st.sampled_from((1, 2)).flatmap(lambda d: systems(d, two_vertices=True)),
    ts=t_lists(),
    origin_pick=ORIGIN_PICKS,
    budget=BUDGETS,
)
def test_profile_totals_match_one_radius_totals(graph, ts, origin_pick, budget):
    # the total deduplicates cells shared by X and Y at each radius
    origin = _origin(origin_pick, ts)
    r_min = math.exp(-max(ts))
    walks = [_Walk(graph, v, r_min) for v in graph.vertex_order]
    with mock.patch.object(covering, "_WORK", budget):
        prof = covering.profile_at(graph, ts, grid_origin=origin)
    assert len(prof.samples) == len(ts)
    for sample in prof.samples:
        cells = [set(map(tuple, _pass_cells(w, sample.r, origin).tolist())) for w in walks]
        want = tuple(map(len, cells)), len(set().union(*cells))
        assert (sample.counts, sample.total) == want


def test_total_over_vertices_hits_the_cell_cap(two_vertex):
    # the cap holds on the total deduplicated across vertices as well: with
    # it at the largest per-vertex count, only the union of P and Q exceeds it
    ts = [1.0, 1.5, 2.0, 2.5, 3.0]
    prof = covering.profile_at(two_vertex, ts)
    cap = max(max(s.counts) for s in prof.samples)
    assert prof.samples[-1].total > cap
    r = math.exp(-ts[-1])
    sets = {v: covering.generate(two_vertex, v, r) for v in two_vertex.vertex_order}
    with mock.patch.object(covering, "CELL_CAP", cap):
        with pytest.raises(ResourceLimitError):
            covering.count(sets, r)
        # the five radii share one tagged pass
        with pytest.raises(ResourceLimitError):
            covering.profile_at(two_vertex, ts)


def test_indices_past_exact_floats_are_refused_before_any_walk():
    # ratio 1/1000 on [0, 1]: at t = 40 a cell index reaches 1/r = 2.4e17,
    # past 2^53, where floats skip integers (and past 2^63 the int64 cast
    # is invalid); t <= 35 stays below it and counts as before
    graph = two_ratio_graph(0.001, 0.001)
    prof = covering.profile_at(graph, [30.0, 35.0])
    assert [s.counts for s in prof.samples] == [(32,), (64,)]
    r = math.exp(-40.0)
    with mock.patch.object(_Walk, "__init__", side_effect=AssertionError("walk")):
        with pytest.raises(NumericalError, match=f"r = {r:.6g}"):
            covering.profile_at(graph, [35.0, 40.0])
        # no grid origin counts it: generate refuses it too
        with pytest.raises(NumericalError, match="2\\^53"):
            covering.generate(graph, "X", r)
    # the bound is on the distance to the grid origin
    with pytest.raises(NumericalError):
        covering.profile_at(two_ratio_graph(), [10.0], grid_origin=1e12)
    gset = covering.generate(two_ratio_graph(), "X", math.exp(-10.0))
    with pytest.raises(NumericalError, match="2\\^53"):
        covering.count(gset, grid_origin=1e12)
    assert covering.profile_at(two_ratio_graph(), [10.0], grid_origin=1e11).samples


def _raises_cap(fn, *args, **kwargs) -> bool:
    try:
        fn(*args, **kwargs)
    except ResourceLimitError:
        return True
    return False


@settings(max_examples=25, deadline=None)
@given(graph=st.sampled_from((1, 2)).flatmap(systems), ts=t_lists())
def test_batched_and_one_radius_paths_hit_tiny_caps_alike(graph, ts):
    # a pass over many radii trips a cap exactly when one of its radii
    # trips it alone: the caps hold per shape and per radius, never on the
    # sum over a pass
    radii = np.array(sorted({math.exp(-t) for t in ts}))
    walk = _Walk(graph, "X", radii[0])
    counts = [_pass_cells(walk, r, 0.0).shape[0] for r in radii]
    for cap in sorted({1, 2, max(counts) - 1, max(counts)}):
        with mock.patch.object(covering, "CELL_CAP", cap):
            alone = [_raises_cap(_pass_cells, walk, r, 0.0) for r in radii]
            batched = _raises_cap(_pass_cells, walk, radii, 0.0)
        assert batched == any(alone), cap
    assert not _raises_cap(_pass_cells, walk, radii, 0.0)
    # the walk's node cap trips on both paths
    with mock.patch.object(covering, "PATH_CAP", 2):
        with pytest.raises(ResourceLimitError):
            _totals(graph, np.zeros(graph.dimension), ts + [5.0])
        with pytest.raises(ResourceLimitError):
            covering.generate(graph, "X", math.exp(-5.0))


@pytest.mark.parametrize("name", ["cantor", "two_vertex", "sierpinski"])
def test_analyze_counts_each_key_once(bundled, name):
    # lattice systems: every point of the cross-check's windows is a profile
    # t, so the cross-check reads the profile's counts and counts nothing
    graph = bundled[name]
    counted = []
    runs = _Walk.runs

    def spy(walk, r, *args, **kwargs):
        counted.extend((walk.vertex, float(x)) for x in np.atleast_1d(r))
        return runs(walk, r, *args, **kwargs)

    with mock.patch.object(_Walk, "runs", spy):
        res = asymptotics.analyze(graph, n_min=3, n_max=6, y_samples=4)
    assert res.cross is not None and res.report.tau == res.lattice.tau
    assert counted and len(counted) == len(set(counted))
    assert set(counted) == {(v, s.r) for s in res.profile.samples for v in graph.vertex_order}


# -- runs in one dimension -------------------------------------------------------
#
# A 1-d box or segment meets one run of cells, a point a run of one cell.  The
# summed run lengths must equal the expanded cells, and those the oracle's
# cells, for endpoints on a grid plane or within ETA of one, reversed and flat
# segments, negative coordinates and radii above the diameter.

LINE_RADII = (0.1, 0.25, 1 / 3, 1.0, 40.0)
LINE_ORIGINS = (0.0, 0.316, -0.7)
# offsets from a grid plane, in cells: on it, within ETA of it, just past ETA
PLANE_OFFSETS = (0.0, 0.5e-9, -0.5e-9, 2e-9, -2e-9, 0.5)


@st.composite
def line_coords(draw, r, origin):
    # steps of at most 1, so that at r = 40 every shape (at most 25 steps
    # long) is shorter than a cell
    m = draw(st.integers(-12, 12))
    f = draw(st.one_of(st.sampled_from(PLANE_OFFSETS), st.floats(0.0, 1.0)))
    return origin + (m + f) * min(r, 1.0)


@st.composite
def line_shapes(draw, r, origin):
    """A few 1-d points, segments and boxes, as the oracle's shapes."""
    coord = line_coords(r, origin)
    points, segments, boxes = [], [], []
    kinds = st.lists(st.sampled_from(("point", "segment", "box")), min_size=1, max_size=5)
    for kind in draw(kinds):
        x = draw(coord)
        flat = kind == "segment" and draw(st.booleans())
        y = x if flat else draw(coord)
        if kind == "point":
            points.append(PointShape((x,)))
        elif kind == "segment":
            segments.append(SegmentShape((x,), (y,)))  # x > y reverses it
        else:
            # a negative half axis is the image under a reflection
            boxes.append(OrientedBox(((x + y) / 2,), (((y - x) / 2,),)))
    return points, segments, boxes


def _line_pieces(points, segments, boxes, tags=(None, None, None)) -> list:
    """The shapes as the kernel's pieces, one per kind, each with its tag;
    boxes as their bounds."""
    bounds = [b.bounding_box() for b in boxes]
    parts = (
        ("point", [p.point for p in points]),
        ("segment", [s.a for s in segments], [s.b for s in segments]),
        ("box", [b.lo for b in bounds], [b.hi for b in bounds]),
    )
    return [(kind, tuple(np.array(x, dtype=float).reshape(-1, 1) for x in xs), tag)
            for (kind, *xs), tag in zip(parts, tags) if xs[0]]


def _oracle_cells(shapes, r, origin) -> set:
    elements = tuple(oracle.SetElement("condensation", s, Path("X")) for s in shapes)
    return oracle.cell_union(oracle.ElementSet("X", r, elements), r, grid_origin=origin)


@settings(max_examples=100, deadline=None)
@given(
    runs=st.lists(
        st.tuples(st.integers(0, 2), st.integers(-3, 3), st.integers(-20, 20), st.integers(0, 6)),
        min_size=1,
        max_size=30,
    ),
    far=st.booleans(),
)
def test_run_union_matches_cell_sets(runs, far):
    # (tag, c_0, lo, hi) runs fed as 2-d index boxes, a merge at every add;
    # two far runs put the linear ids past 2^62, where ranges start at index rows
    rows = np.array([(t, c, lo, lo + n) for t, c, lo, n in runs], dtype=np.int64)
    if far:
        rows = np.vstack([rows, [0, 0, 1 << 61, (1 << 61) + 2], [1, 0, -(1 << 61), -(1 << 61)]])
    ilo, ihi = rows[:, [1, 2]], rows[:, [1, 3]]
    ids = _Ids(ilo.min(axis=0), ihi.max(axis=0), 3, 1)
    assert ids.big == far
    acc = _CellUnion(ids)
    with mock.patch.object(covering, "_MERGE_FLOOR", 1):
        for k in range(0, rows.shape[0], 4):
            covering._index_box_runs(ilo[k : k + 4], ihi[k : k + 4], acc, rows[k : k + 4, 0])
    got = (ids, *acc.ranges())
    assert_disjoint(got)
    want = {(t, c, x) for t, c, lo, hi in rows.tolist() for x in range(lo, hi + 1)}
    assert set(map(tuple, ids.cells(*got[1:]).tolist())) == want
    assert ids.counts(*got[1:]).tolist() == [sum(w[0] == k for w in want) for k in range(3)]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), r=st.sampled_from(LINE_RADII), origin=st.sampled_from(LINE_ORIGINS))
def test_line_runs_match_cells_and_oracle(data, r, origin):
    points, segments, boxes = data.draw(line_shapes(r, origin))
    pieces = _line_pieces(points, segments, boxes)
    o = _origin_vector(origin, 1)
    assert_disjoint(kernel_runs(1, pieces, r, o))
    cells = kernel_cells(1, pieces, r, o)
    want = _oracle_cells(points + segments + boxes, r, origin)
    assert kernel_count(1, pieces, r, o) == cells.shape[0] == len(want)
    assert set(map(tuple, cells.tolist())) == want


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    radii=st.lists(st.sampled_from(LINE_RADII), min_size=2, max_size=4, unique=True),
    origin=st.sampled_from(LINE_ORIGINS),
)
def test_tagged_line_runs_match_each_radius(data, radii, origin):
    # shapes of several radii in one union: a run never merges across radii
    radii = np.array(sorted(radii))
    drawn = [data.draw(line_shapes(r, origin)) for r in radii]
    kinds = [sum((d[j] for d in drawn), []) for j in range(3)]
    tags = [np.array([k for k, d in enumerate(drawn) for _ in d[j]], dtype=np.int64)
            for j in range(3)]
    pieces = _line_pieces(*kinds, tags)
    o = _origin_vector(origin, 1)
    assert_disjoint(kernel_runs(1, pieces, radii, o))
    cells = kernel_cells(1, pieces, radii, o)
    counts = kernel_count(1, pieces, radii, o)
    for k, r in enumerate(radii):
        want = _oracle_cells(sum(drawn[k], []), r, origin)
        got = cells[cells[:, 0] == k, 1:]
        assert counts[k] == got.shape[0] == len(want)
        assert set(map(tuple, got.tolist())) == want


def test_line_segment_past_the_plane_cap_raises_on_both_paths(cantor_segment):
    # the segment [0, 10] crosses the 9 planes 1..9 of the unit grid and
    # meets 11 cells: a cap of 8 stops it before any cell is counted, a cap
    # of 9 only once its cells are
    segment = (np.array([[0.0]]), np.array([[10.0]]))
    alone, tagged = ("segment", segment, None), ("segment", segment, np.array([1]))
    o = np.zeros(1)
    for cap, stage in ((8, "enumeration"), (9, "union")):
        with mock.patch.object(covering, "CELL_CAP", cap):
            with pytest.raises(ResourceLimitError, match=stage):
                kernel_runs(1, [alone], 1.0, o)
            with pytest.raises(ResourceLimitError, match=stage):
                kernel_runs(1, [tagged], np.array([0.5, 1.0]), o)
    # through the walk: at t = 3 the condensation segment [1/3, 2/3] crosses
    # 6 planes; the table counts t = 1 and t = 3 in one tagged pass
    r = math.exp(-3.0)
    with mock.patch.object(covering, "CELL_CAP", 5):
        with pytest.raises(ResourceLimitError, match="enumeration"):
            covering.count(covering.generate(cantor_segment, "X", r), r)
        with pytest.raises(ResourceLimitError, match="enumeration"):
            _totals(cantor_segment, np.zeros(1), [1.0, 3.0])


# -- the ids of a pass ---------------------------------------------------------------
#
# A pass fixes its linear cell ids before its first piece, from the hull of the
# seed boxes, and runs again under wider ones when a cell falls outside them;
# where ids would pass 2^62, ranges start at index rows.


def _far_dust(far: float) -> MWGraph:
    """Two vertices ``far`` apart on the diagonal, each a 2-d dust of two
    quarter-size copies along x."""
    edges = []
    for v, at in (("X", 0.0), ("Y", far)):
        for k, dx in enumerate((0.0, 0.75)):
            shift = (0.75 * at + dx, 0.75 * at)
            edges.append(Edge(f"{v}{k}", v, v, Similarity(0.25, np.eye(2), shift), Fraction(1, 4)))
    boxes = {"X": Box((0.0, 0.0), (1.0, 1.0)), "Y": Box((far, far), (far + 1.0, far + 1.0))}
    return MWGraph(dimension=2, vertices=boxes, edges=edges)


@pytest.mark.parametrize("origin", [0.0, 0.316])
def test_ids_past_2_62_match_the_oracle(origin):
    # the hull spans about 2^40 cells per axis: 2^80 ids, so ranges start at index rows
    graph = _far_dust(float(1 << 20))
    assert validate(graph).ok
    ts = [13.0, 13.5, 14.0]
    o = _origin_vector(origin, 2)
    for t in ts:
        r = math.exp(-t)
        assert covering._pass(covering._hull([graph], o), [], r, o, covering._run_axis(graph))[0].big
        kernel_sets = {v: covering.generate(graph, v, r) for v in graph.vertex_order}
        oracle_sets = {v: oracle.generate(graph, v, r) for v in graph.vertex_order}
        _assert_same_counts(graph, kernel_sets, oracle_sets, r, origin)
    for t, res in _totals(graph, o, ts).items():  # one tagged pass
        r = math.exp(-t)
        sets = {v: oracle.generate(graph, v, r) for v in graph.vertex_order}
        assert (res.per_vertex, res.total) == oracle.count(sets, r, grid_origin=origin)


def test_containment_slack_holds_every_cell():
    # the first map's images stick out of the unit box by 0.9e-9 < CONTAINMENT_TOL,
    # so the attractor reaches about -0.9e-9, 90 cells left of the box at
    # r = 1e-11: past the ids fixed before the pass, so it runs again under
    # wider ones and counts every cell
    graph = MWGraph(dimension=1, vertices={"X": Box((0.0,), (1.0,))}, edges=[
        Edge("a", "X", "X", line_map(1e-3, -0.9e-9)),
        Edge("b", "X", "X", line_map(0.5, 0.5)),
    ])
    assert validate(graph).ok
    r = 1e-11
    for origin in (0.0, 0.316, r / 2):
        kernel_sets = {"X": covering.generate(graph, "X", r)}
        oracle_sets = {"X": oracle.generate(graph, "X", r)}
        cells = [c for (c,) in oracle.cell_union(oracle_sets["X"], r, grid_origin=origin)]
        o = _origin_vector(origin, 1)
        ids, _ranges = covering._pass(covering._hull([graph], o), [], r, o, 0)
        assert min(cells) < math.floor(-origin / r) - 80 < ids.lo[0]
        _assert_same_counts(graph, kernel_sets, oracle_sets, r, origin)


def test_cells_outside_an_unvalidated_graphs_boxes_are_counted():
    # the maps put every image 5 to 6 units right of the unit box: the pass
    # stops at the first cell outside its ids and runs again under wider ones
    def unit(shift, lo=0.0):
        return MWGraph(dimension=1, vertices={"X": Box((lo,), (1.0,))}, edges=[
            Edge("a", "X", "X", line_map(1 / 3, 5.0)),
            Edge("b", "X", "X", line_map(1 / 3, shift)),
        ])

    graph = unit(5.5)
    assert not validate(graph).ok
    for t in (2.0, 5.0):
        r = math.exp(-t)
        kernel_sets = {"X": covering.generate(graph, "X", r)}
        oracle_sets = {"X": oracle.generate(graph, "X", r)}
        for origin in (0.0, 0.316):
            _assert_same_counts(graph, kernel_sets, oracle_sets, r, origin)
    # a translation that is not a number leaves no cell the ids could hold
    graph = unit(math.nan)
    with pytest.raises(NumericalError, match="2\\^53 past the seed boxes"), np.errstate(invalid="ignore"):
        covering.count(covering.generate(graph, "X", 0.01))
    # nor does a seed box whose corner is not a number
    graph = unit(5.5, math.nan)
    with pytest.raises(NumericalError, match="reach 2\\^53"):
        covering.generate(graph, "X", 0.01)


def test_tagged_cap_holds_per_radius(cantor):
    # cantor at t = 1..4 in one tagged pass: a cap of the largest radius's
    # count passes though the radii hold more together; one less stops the pass
    ts = [1.0, 2.0, 3.0, 4.0]
    counts = [res.total for res in _totals(cantor, np.zeros(1), ts).values()]
    assert len(list(covering._groups(_Walk(cantor, "X", math.exp(-4.0)).work(
        np.array(sorted(math.exp(-t) for t in ts)), 0)))) == 1
    most = max(counts)
    assert sum(counts) > most
    with mock.patch.object(covering, "CELL_CAP", most):
        assert [res.total for res in _totals(cantor, np.zeros(1), ts).values()] == counts
    with mock.patch.object(covering, "CELL_CAP", most - 1):
        with pytest.raises(ResourceLimitError, match="cell union exceeds cap"):
            _totals(cantor, np.zeros(1), ts)


@pytest.mark.parametrize("origin, want", [(0.0, 442_414), (0.1, 442_415)])
def test_fine_cantor_segment_count(cantor_segment, origin, want):
    # the fine_count benchmark totals of cantor_segment at t = 13
    r = math.exp(-13.0)
    res = covering.count(covering.generate(cantor_segment, "X", r), r, grid_origin=origin)
    assert res.total == res.per_vertex[0] == want


# -- segments along one axis are index boxes ---------------------------------------
#
# A segment that moves along at most one axis meets the cells from that of its
# lower end to that of its upper end; the oracle samples it at its plane
# crossings.  Both must give the same cells in d = 2 and 3: endpoints on a grid
# plane, within ETA of one or just past it, reversed and zero-length segments,
# each case at two grid origins.  Oblique segments ride along.

AXIS_ORIGINS = (0.0, 0.316)


@st.composite
def axis_segments(draw, dim):
    """Endpoint pairs in cells of min(r, 1) from the origin, most moving
    along one axis, some along none and some along two."""
    unit = st.builds(
        lambda m, f: m + f,
        st.integers(-12, 12),
        st.one_of(st.sampled_from(PLANE_OFFSETS), st.floats(0.0, 1.0)),
    )
    segments = []
    for _ in range(draw(st.integers(1, 5))):
        a = [draw(unit) for _ in range(dim)]
        b = list(a)
        kind = draw(st.sampled_from(("axis", "axis", "zero", "oblique")))
        if kind != "zero":
            for j in draw(st.permutations(range(dim)))[: 2 if kind == "oblique" else 1]:
                b[j] = draw(unit)  # below a[j] reverses the segment
        segments.append((a, b))
    return segments


def _placed(segments, r, origin):
    """The two endpoint arrays of drawn segments at radius r and an origin."""
    ends = np.array(segments, dtype=float).reshape(-1, 2, len(segments[0][0]))
    return origin + ends[:, 0] * min(r, 1.0), origin + ends[:, 1] * min(r, 1.0)


def _oracle_segment_cells(a, b, r, origin) -> set:
    shapes = [SegmentShape(tuple(p), tuple(q)) for p, q in zip(a.tolist(), b.tolist())]
    return _oracle_cells(shapes, r, origin)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), dim=st.sampled_from((2, 3)), r=st.sampled_from(LINE_RADII))
def test_axis_segments_match_the_crossing_sampler(data, dim, r):
    segments = data.draw(axis_segments(dim))
    for origin in AXIS_ORIGINS:
        a, b = _placed(segments, r, origin)
        pieces = [("segment", (a, b), None)]
        o = _origin_vector(origin, dim)
        assert_disjoint(kernel_runs(dim, pieces, r, o))
        cells = kernel_cells(dim, pieces, r, o)
        want = _oracle_segment_cells(a, b, r, origin)
        assert cells.shape[0] == len(want)
        assert set(map(tuple, cells.tolist())) == want


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    dim=st.sampled_from((2, 3)),
    radii=st.lists(st.sampled_from(LINE_RADII), min_size=2, max_size=4, unique=True),
)
def test_tagged_axis_segments_match_each_radius(data, dim, radii):
    radii = np.array(sorted(radii))
    drawn = [data.draw(axis_segments(dim)) for _ in radii]
    tag = np.repeat(np.arange(radii.size), [len(d) for d in drawn])
    for origin in AXIS_ORIGINS:
        placed = [_placed(d, r, origin) for d, r in zip(drawn, radii)]
        a, b = (np.concatenate([p[k] for p in placed]) for k in (0, 1))
        pieces = [("segment", (a, b), tag)]
        o = _origin_vector(origin, dim)
        assert_disjoint(kernel_runs(dim, pieces, radii, o))
        cells = kernel_cells(dim, pieces, radii, o)
        for k, r in enumerate(radii):
            want = _oracle_segment_cells(*placed[k], r, origin)
            got = cells[cells[:, 0] == k, 1:]
            assert got.shape[0] == len(want)
            assert set(map(tuple, got.tolist())) == want


# -- the size-ordered walk ----------------------------------------------------------
#
# The walk keeps each vertex's nodes as one range sorted by stopping size and
# takes a radius group's leaves and interior nodes as slices of it.  The
# oracle chooses them by the definition, a mask over every node.  Seed boxes
# of unequal diameters make a child's size a varying fraction of its parent's.

WIDTHS = (0.75, 1.0, 1.25)  # seed-box sides; ratios of at most 1/2 keep images inside


@st.composite
def unequal_systems(draw):
    """1-3 vertices with seed boxes [0, w]^d of unequal sides, one to three
    out-edges each, and condensation at some of them."""
    dim = draw(st.sampled_from((1, 2)))
    names = ("X", "Y", "Z")[: draw(st.integers(1, 3))]
    width = {v: draw(st.sampled_from(WIDTHS)) for v in names}
    grid = st.integers(0, 8).map(lambda m: m / 8)
    edges, condensation = [], {}
    for v in names:
        for k in range(draw(st.integers(2 if len(names) == 1 else 1, 3))):
            dst = draw(st.sampled_from(names))
            q = draw(st.sampled_from(RATIOS))
            shift = [draw(grid) * (width[v] - float(q) * width[dst]) for _ in range(dim)]
            iso = rotation_2d(90.0) if dim == 2 and draw(st.booleans()) else np.eye(dim)
            edges.append(Edge(f"{v}{k}", v, dst, Similarity(float(q), iso, shift), q))
        prims = []
        for kind in draw(st.lists(st.sampled_from(("point", "segment", "box")), max_size=2)):
            a = [draw(grid) * width[v] for _ in range(dim)]
            b = [draw(grid) * width[v] for _ in range(dim)]
            if kind == "point":
                prims.append(Primitive.point(a))
            elif kind == "segment":
                prims.append(Primitive.segment(a, b))
            else:
                prims.append(Primitive.box(np.minimum(a, b), np.maximum(a, b)))
        condensation[v] = tuple(prims)
    return MWGraph(
        dimension=dim,
        vertices={v: Box((0.0,) * dim, (width[v],) * dim) for v in names},
        edges=edges,
        condensation=condensation,
    )


def _node_rows(walk, nodes) -> list:
    """(ratio, translation, terminal) of each node, sorted: a multiset."""
    fields = oracle.node_arrays(walk)
    rows = np.column_stack((fields["ratio"][nodes], fields["trans"][nodes], fields["term"][nodes]))
    return sorted(map(tuple, rows.tolist()))


def _serving_nodes(walk, radii, k) -> dict:
    """The nodes of ``walk._blocks(radii)`` that serve radius k, keyed by
    (vertex, whether interior)."""
    out: dict = {}
    for v, inner, a, lo, hi in walk._blocks(radii):
        out.setdefault((v, inner), []).extend((a + np.flatnonzero((lo <= k) & (k < hi))).tolist())
    return out


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    graph=unequal_systems(),
    ts=st.lists(st.floats(-1.0, 3.0), min_size=1, max_size=6),
    origin_pick=ORIGIN_PICKS,
)
def test_size_ordered_selection_matches_level_masks(graph, ts, origin_pick):
    # radii at and far above the root's size (t < 0), equal to stopping
    # sizes, generic; the whole array as one group, its middle third and each
    # radius alone
    r_min = math.exp(-max(ts))
    origin = _origin(origin_pick, ts)
    for root in graph.vertex_order:
        walk = _Walk(graph, root, r_min)
        sizes = oracle.node_arrays(walk)["size"]
        sizes = sizes[sizes >= r_min]
        ties = sizes[:: max(1, sizes.size // 4)]
        above = graph.seed_box(root).diameter * np.array([1.0, 2.5, 10.0])
        ts_root = ts + [-math.log(x) for x in above]
        radii = np.unique(np.concatenate([[math.exp(-t) for t in ts], ties, above]))
        third = radii.size // 3
        groups = [radii, radii[third : radii.size - third]]
        groups += [radii[k : k + 1] for k in range(radii.size)]
        for group in groups:
            for k, r in enumerate(group):
                masks = oracle.select(walk, r)
                serving = _serving_nodes(walk, group, k)
                for v, name in enumerate(graph.vertex_order):
                    want = _node_rows(walk, oracle.pick(walk, v, masks[0]))
                    assert _node_rows(walk, serving.get((v, False), [])) == want
                    if not graph.condensation[name]:
                        assert (v, True) not in serving
                        continue
                    want = _node_rows(walk, oracle.pick(walk, v, masks[1]))
                    assert _node_rows(walk, serving.get((v, True), [])) == want
        got = _totals(graph, _origin_vector(origin, graph.dimension), ts_root)
        for t in ts_root:
            r = math.exp(-t)
            (want,), _ = oracle.count(oracle.generate(graph, root, r), r, grid_origin=origin)
            assert got[t].count(root) == want


# -- properties of random small systems ---------------------------------------------


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(graph=st.sampled_from((1, 2)).flatmap(systems), t=st.floats(-0.5, 3.0), data=st.data())
def test_origin_shift_changes_counts_by_at_most_3_to_the_d(graph, t, data):
    # a cell of one grid meets at most 2^d cells of another grid of the same
    # cell size; 3^d leaves room for closed shapes on cell boundaries
    r = math.exp(-t)
    d = graph.dimension
    origin = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=d, max_size=d))
    gset = covering.generate(graph, "X", r)
    base = covering.count(gset, r).total
    moved = covering.count(gset, r, grid_origin=origin).total
    assert moved <= 3**d * base
    assert base <= 3**d * moved


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    graph=st.sampled_from((1, 2)).flatmap(
        lambda d: st.one_of(systems(d), systems(d, two_vertices=True))
    ),
    ts=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=6, unique=True),
)
def test_renewal_residual_is_at_most_1e_9(graph, ts):
    sd = solve_s0(graph)
    ctx = covering.ForcingContext(graph)
    forcing = forcing_oracle.forcing_values(ctx, sd, ts)
    assert forcing_oracle.renewal_residual(ctx, sd, forcing, ts) <= 1e-9


# -- the walk build and the per-pass images ------------------------------------------
#
# The walk keeps ratio, isometry, terminal vertex and size once per class and
# writes each level into one array per field; the oracle builds every field
# per node, one (vertex, edge) block at a time (``per_edge_walk``).  The node
# arrays read through the class table must be identical, in the same order,
# and the root at the same position.
# A pass maps each node it reads once, from the per-class image tables, and
# the walk keeps nothing per node between passes: a walk asked for radius
# groups in any order must give the shapes of a fresh walk, bit for bit, and
# hold no more memory after its passes than its node arrays and tables.


def _same_bytes(got, want) -> bool:
    return (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def _assert_same_walk(graph, vertex, r_min):
    walk = _Walk(graph, vertex, r_min)
    got = oracle.node_arrays(walk)
    nodes, isos, root = oracle.per_edge_walk(graph, vertex, r_min)
    assert got.keys() == nodes.keys()
    for key, want in nodes.items():
        assert _same_bytes(got[key], want), key
    assert walk._root == root
    assert [q.tobytes() for q in walk.isos] == [q.tobytes() for q in isos]
    return walk


@pytest.mark.parametrize("name", BUNDLED_NAMES)
def test_walk_build_matches_the_per_edge_build(bundled, name):
    graph = bundled[name]
    for t in (-0.5, 2.0, 5.0):
        for v in graph.vertex_order:
            _assert_same_walk(graph, v, math.exp(-t))


# per bundled system, the benchmark's fine_count radius where it has one, and
# the finest radius ``analyze`` walks at the README defaults
WALK_RADII = {
    "cantor": (6.475992765555589e-06,),
    "cantor_point": (6.475992765555589e-06,),
    "cantor_segment": (math.exp(-13.0), 1.6935087808430265e-05),
    "dust2d_edge": (math.exp(-10.0), 1.6935087808430265e-05),
    "rotated2d": (math.exp(-7.0), 4.703297017353915e-05),
    "sierpinski": (math.exp(-6.0), 0.000532474478840458),
    "two_ratio": (8.315287191035679e-07,),
    "two_vertex": (0.000532474478840458,),
}


@pytest.mark.parametrize("name", BUNDLED_NAMES)
def test_walk_build_matches_the_per_edge_build_at_fine_radii(bundled, name):
    graph = bundled[name]
    for r in WALK_RADII[name]:
        for v in graph.vertex_order:
            _assert_same_walk(graph, v, r)


def _ratio_tie_system() -> MWGraph:
    """Three maps of ratio 0.3, 0.1 and 0.2 on [0, 3]: a path's ratio
    depends on the order of its products in the last bit, and some ratios
    an ulp apart give one stopping size."""
    return MWGraph(
        dimension=1,
        vertices={"X": Box((0.0,), (3.0,))},
        edges=[
            Edge("a", "X", "X", Similarity(0.3, np.eye(1), [0.0]), None),
            Edge("b", "X", "X", Similarity(0.1, np.eye(1), [0.9]), None),
            Edge("c", "X", "X", Similarity(0.2, np.eye(1), [1.2]), None),
        ],
        condensation={"X": (Primitive.point([2.5]),)},
    )


def _rank_mates(walk, field):
    """Whether some rank holds classes that differ in ``field``."""
    rank = np.searchsorted(walk._rank_off, np.arange(walk.cls.size), side="right") - 1
    pairs = set(zip(rank.tolist(), getattr(walk, field)[walk.cls].tolist()))
    return len(pairs) > walk._rank_size.size


def test_classes_sharing_a_rank_keep_their_order(bundled):
    # rotated2d at t = 7: 55 classes in 10 ranks, told apart by isometry;
    # the tie system: ratios an ulp apart with one size.  Either way a rank's
    # nodes keep the order of the per-edge build
    walk = _assert_same_walk(bundled["rotated2d"], "X", math.exp(-7.0))
    assert (walk.c_ratio.size, walk._rank_size.size) == (55, 10)
    assert _rank_mates(walk, "c_iso")
    graph = _ratio_tie_system()
    walk = _assert_same_walk(graph, "X", 3e-3)
    assert _rank_mates(walk, "c_ratio")
    for t in (1.0, 2.5, 4.0, 5.8):
        r = math.exp(-t)
        kernel_sets = {"X": covering.generate(graph, "X", r)}
        oracle_sets = {"X": oracle.generate(graph, "X", r)}
        for origin in (0.0, 0.37):
            _assert_same_counts(graph, kernel_sets, oracle_sets, r, origin)


def _kernel_counts(graph, r):
    sets = {v: covering.generate(graph, v, r) for v in graph.vertex_order}
    return covering.count(sets, r, grid_origin=0.316)


def test_wide_ranks_sort_alike(bundled):
    # more ranks than the radix sort's key range: the comparison sort
    cases = [(bundled["rotated2d"], math.exp(-7.0)), (bundled["two_ratio"], math.exp(-9.0)),
             (bundled["two_vertex"], math.exp(-5.0)), (_ratio_tie_system(), 3e-3)]
    want = [_kernel_counts(graph, r) for graph, r in cases]
    with mock.patch.object(covering, "_RADIX_KEYS", 1):
        for (graph, r), counts in zip(cases, want):
            for v in graph.vertex_order:
                _assert_same_walk(graph, v, r)
            assert _kernel_counts(graph, r) == counts


def test_walk_over_the_cap_is_refused_before_any_node_array(cantor):
    # 2^17 - 1 nodes down to 3^-15.5: with the cap one node below that, the
    # pre-flight count refuses while holding less memory than the smallest
    # node array (an int32 class id per node) would take
    r = 3.0**-15.5
    n = _Walk(cantor, "X", r).cls.size
    assert n == 2**17 - 1
    with mock.patch.object(covering, "PATH_CAP", n - 1):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError) as err:
                _Walk(cantor, "X", r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert str(err.value) == f"walk enumeration exceeded the cap of {n - 1} nodes"
    assert peak < 4 * n
    with mock.patch.object(covering, "PATH_CAP", n):
        assert _Walk(cantor, "X", r).cls.size == n


def _growing_system() -> MWGraph:
    """Two vertices whose seed boxes differ 4-fold in side: the child of an
    X node along X -> Y has twice its parent's stopping size."""
    return MWGraph(
        dimension=1,
        vertices={"X": Box((0.0,), (1.0,)), "Y": Box((0.0,), (4.0,))},
        edges=[
            Edge("xx", "X", "X", Similarity(1 / 3, np.eye(1), [0.0]), Fraction(1, 3)),
            Edge("xy", "X", "Y", Similarity(0.5, -np.eye(1), [1.0]), Fraction(1, 2)),
            Edge("yx", "Y", "X", Similarity(0.5, np.eye(1), [2.0]), Fraction(1, 2)),
            Edge("yy", "Y", "Y", Similarity(0.25, np.eye(1), [0.0]), Fraction(1, 4)),
        ],
        condensation={"X": (Primitive.point([0.5]),), "Y": ()},
    )


def test_walk_build_matches_the_per_edge_build_when_children_grow():
    graph = _growing_system()
    for t in (0.0, 3.0, 6.0):
        for v in graph.vertex_order:
            _assert_same_walk(graph, v, math.exp(-t))


def _permuted_system() -> MWGraph:
    """A 2-d system on a 2 x 1 seed box whose maps are exact signed
    permutations (a quarter turn, an axis swap with a reflection), with a
    box, a point and a segment of condensation."""
    quarter = np.array([[0.0, -1.0], [1.0, 0.0]])
    swap = np.array([[0.0, 1.0], [-1.0, 0.0]]) @ np.array([[1.0, 0.0], [0.0, -1.0]])
    return MWGraph(
        dimension=2,
        vertices={"X": Box((0.0, 0.0), (2.0, 1.0))},
        edges=[
            Edge("a", "X", "X", Similarity(0.5, quarter, [0.5, 0.0]), Fraction(1, 2)),
            Edge("b", "X", "X", Similarity(1 / 3, swap, [1.25, 0.5]), Fraction(1, 3)),
            Edge("c", "X", "X", Similarity(0.25, np.eye(2), [1.5, 0.75]), Fraction(1, 4)),
        ],
        condensation={"X": (
            Primitive.box([0.1, 0.2], [0.3, 0.9]),
            Primitive.point([1.7, 0.1]),
            Primitive.segment([0.2, 0.4], [1.9, 0.4]),
        )},
    )


def test_signed_permutation_images_match_oracle():
    # each bounding half width is ratio * (w / 2) of the permuted axis
    graph = _permuted_system()
    for t in (-0.2, 1.0, 2.5, 4.0):
        r = math.exp(-t)
        kernel_sets = {"X": covering.generate(graph, "X", r)}
        oracle_sets = {"X": oracle.generate(graph, "X", r)}
        _assert_same_elements(kernel_sets["X"], oracle_sets["X"])
        for origin in (0.0, 0.316, r / 2):
            _assert_same_counts(graph, kernel_sets, oracle_sets, r, origin)


def test_composed_isometry_images_match_oracle():
    # a 30-degree rotation, an axis swap and a reflection on three edges:
    # classes carry products of all three, rotated and signed permutations
    # alike, through one image product
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    flip = np.array([[-1.0, 0.0], [0.0, 1.0]])
    graph = MWGraph(
        dimension=2,
        vertices={"X": Box((0.0, 0.0), (1.0, 1.0))},
        edges=[
            Edge("a", "X", "X", Similarity(0.5, rotation_2d(30.0), [0.3, 0.1]), Fraction(1, 2)),
            Edge("b", "X", "X", Similarity(1 / 3, swap, [0.6, 0.5]), Fraction(1, 3)),
            Edge("c", "X", "X", Similarity(0.25, flip, [1.0, 0.7]), Fraction(1, 4)),
        ],
        condensation={"X": (
            Primitive.box([0.1, 0.2], [0.3, 0.9]),
            Primitive.segment([0.2, 0.4], [0.9, 0.6]),
        )},
    )
    for t in (0.5, 1.5, 2.5, 3.7):
        r = math.exp(-t)
        kernel_sets = {"X": covering.generate(graph, "X", r)}
        oracle_sets = {"X": oracle.generate(graph, "X", r)}
        _assert_same_elements(kernel_sets["X"], oracle_sets["X"])
        for origin in (0.0, 0.316):
            _assert_same_counts(graph, kernel_sets, oracle_sets, r, origin)
    walk = kernel_sets["X"]._walk
    assert len(walk.isos) > 20 and not set(walk.c_iso.tolist()) <= {0}


def test_alignment_follows_the_ratio_as_in_the_oracle():
    # a rotation by 1e-10 rad: a node's off-axis half-axis entries, about
    # ratio * k * 1e-10 / 2 after k turns, pass 1e-12 only above some ratio,
    # so one isometry holds both axis-aligned and rotated boxes
    c, s = math.cos(1e-10), math.sin(1e-10)
    graph = MWGraph(
        dimension=2,
        vertices={"X": Box((0.0, 0.0), (1.0, 1.0))},
        edges=[
            Edge("a", "X", "X", Similarity(0.5, [[c, -s], [s, c]], [0.0, 0.0]), Fraction(1, 2)),
            Edge("b", "X", "X", Similarity(0.5, np.eye(2), [0.5, 0.5]), Fraction(1, 2)),
        ],
        condensation={"X": (Primitive.box([0.25, 0.0], [0.75, 0.5]),)},
    )
    r = math.exp(-5.0)
    kernel_sets = {"X": covering.generate(graph, "X", r)}
    oracle_sets = {"X": oracle.generate(graph, "X", r)}
    boxes = [e.shape for e in oracle_sets["X"].elements]
    tilted = [b for b in boxes if np.count_nonzero(np.array(b.half_axes)) > 2]
    assert any(b.is_axis_aligned() for b in tilted)
    assert not all(b.is_axis_aligned() for b in tilted)
    _assert_same_elements(kernel_sets["X"], oracle_sets["X"])
    for origin in (0.0, 0.316, r / 2):
        _assert_same_counts(graph, kernel_sets, oracle_sets, r, origin)


ANY_SYSTEMS = st.sampled_from((1, 2)).flatmap(
    lambda d: st.one_of(systems(d), systems(d, two_vertices=True))
)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(graph=ANY_SYSTEMS, t=st.floats(-0.5, 4.0))
def test_random_walk_build_matches_the_per_edge_build(graph, t):
    # the pre-flight count is exact: the walk is refused one node under it
    for v in graph.vertex_order:
        n = _assert_same_walk(graph, v, math.exp(-t)).cls.size
        with pytest.raises(ResourceLimitError), mock.patch.object(covering, "PATH_CAP", n - 1):
            _Walk(graph, v, math.exp(-t))


def _piece_bytes(pieces) -> list:
    """Each piece's kind, arrays and tag as bytes; rotated boxes by their
    centres and half axes."""
    out = []
    for kind, arrays, tag in pieces:
        if kind == "obb":
            arrays = (arrays[0], arrays[2].half[arrays[1]])
        tag = None if tag is None else tag.tobytes()
        out.append((kind, [(x.shape, x.tobytes()) for x in arrays], tag))
    return out


@st.composite
def group_orders(draw, n):
    """Radius groups (ascending index lists into n radii) in any order:
    drawn ones, then every radius alone from the coarsest down, the whole
    array, and the finest radius again after coarser ones."""
    index_sets = st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
    drawn = draw(st.lists(index_sets.map(sorted), max_size=5))
    return drawn + [[k] for k in range(n - 1, -1, -1)] + [list(range(n)), [0]]


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(graph=ANY_SYSTEMS, ts=t_lists(), origin_pick=ORIGIN_PICKS, data=st.data())
def test_groups_in_any_order_match_fresh_walks(graph, ts, origin_pick, data):
    origin = _origin(origin_pick, ts)
    o = _origin_vector(origin, graph.dimension)
    radii = np.array(sorted({math.exp(-t) for t in ts}))
    groups = data.draw(group_orders(radii.size))
    want: dict = {}
    for root in graph.vertex_order:
        shared = _Walk(graph, root, radii[0])
        for group in groups:
            rs = radii[group]
            r = rs[0] if rs.size == 1 else rs
            got = list(shared.pieces(r, 0))
            fresh = _Walk(graph, root, radii[0]).pieces(r, 0)
            assert _piece_bytes(got) == _piece_bytes(fresh), group
            counts = np.atleast_1d(kernel_count(graph.dimension, got, r, o))
            for k, x in zip(group, counts.tolist()):
                if (root, k) not in want:
                    oracle_set = oracle.generate(graph, root, radii[k])
                    (want[(root, k)],), _ = oracle.count(oracle_set, radii[k], grid_origin=origin)
                assert x == want[(root, k)], (group, k)


@pytest.mark.parametrize("name", ["cantor_point", "rotated2d", "sierpinski", "two_ratio"])
def test_passes_keep_nothing_per_node(bundled, name):
    # every radius of a geometric ladder down to the walk's finest, alone and
    # then as one group: once the pieces are dropped, all the walk has gained
    # is its per-class image tables, under 2 bytes per node
    graph, r_min = bundled[name], WALK_RADII[name][0]
    radii = np.geomspace(r_min, max(graph.seed_box(v).diameter for v in graph.vertex_order), 8)
    tracemalloc.start()
    try:
        for v in graph.vertex_order:
            walk = _Walk(graph, v, r_min)
            before = tracemalloc.get_traced_memory()[0]
            for r in [*radii, radii]:
                list(walk.pieces(r, 0))
            grown = tracemalloc.get_traced_memory()[0] - before
            assert grown < 2 * walk.cls.size, (v, grown, walk.cls.size)
    finally:
        tracemalloc.stop()


# -- passes streamed through the union in slices -----------------------------------
#
# A pass maps about ``_WORK`` estimated candidate runs at a time and feeds
# their runs to one union.  The slice size changes no run and no cap: one
# estimated run per slice, seven, and one slice per node block give the same
# runs, and the same error where a cap trips.

STREAM_SIZES = (1, 7, 1 << 40)


def _outcome(fn):
    """``fn()``'s ranges as bytes, or the message of the cap it trips."""
    try:
        _ids, start, stop = fn()
    except ResourceLimitError as exc:
        return ("raises", str(exc))
    return (start.tobytes(), stop.tobytes())


def _streamed(fn) -> list:
    outs = []
    for size in STREAM_SIZES:
        with mock.patch.object(covering, "_WORK", size):
            outs.append(_outcome(fn))
    return outs


def _assert_streams_alike(walk, r, o, axis) -> None:
    """Walk ranges at every slice size (and merging at every add) equal
    those of one slice per node block, without a cap and under tiny ones."""
    with mock.patch.object(covering, "_WORK", STREAM_SIZES[-1]):
        want = walk_runs(walk, r, o, axis)
    assert _streamed(lambda: walk_runs(walk, r, o, axis)) == [_outcome(lambda: want)] * 3
    with mock.patch.object(covering, "_MERGE_FLOOR", 1):
        assert _streamed(lambda: walk_runs(walk, r, o, axis)) == [_outcome(lambda: want)] * 3
    most = int(want[0].counts(*want[1:]).max())
    for cap in sorted({1, 2, max(most - 1, 1), max(most, 1)}):
        with mock.patch.object(covering, "CELL_CAP", cap):
            outcomes = _streamed(lambda: walk_runs(walk, r, o, axis))
            assert outcomes == [outcomes[-1]] * 3, cap


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(graph=ANY_SYSTEMS, ts=t_lists(), origin_pick=ORIGIN_PICKS)
def test_chunk_size_changes_no_run_and_no_cap(graph, ts, origin_pick):
    # the finest and the coarsest radius alone, and all of them tagged
    o = _origin_vector(_origin(origin_pick, ts), graph.dimension)
    radii = np.array(sorted({math.exp(-t) for t in ts}))
    axis = covering._run_axis(graph)
    for v in graph.vertex_order:
        walk = _Walk(graph, v, radii[0])
        for r in (radii[0], radii[-1], radii):
            _assert_streams_alike(walk, r, o, axis)


@pytest.mark.parametrize("name, ts", [
    ("rotated2d", (2.0, 3.0)),  # rotated boxes
    ("dust2d_edge", (2.0, 3.5)),  # boxes and segments along an axis
    ("cantor_point", (3.0, 4.0)),  # points
    ("cantor_segment", (2.0, 4.5)),  # 1-d segments
])
def test_chunk_size_changes_no_bundled_run(bundled, name, ts):
    graph = bundled[name]
    radii = np.array([math.exp(-t) for t in sorted(ts, reverse=True)])
    axis = covering._run_axis(graph)
    for v in graph.vertex_order:
        walk = _Walk(graph, v, radii[0])
        for r in (radii[0], radii[1], radii):
            _assert_streams_alike(walk, r, np.full(graph.dimension, 0.316), axis)


def test_chunk_size_changes_no_condensation_kind_run():
    # box, point and segment condensation under signed permutations
    graph = _permuted_system()
    radii = np.array([math.exp(-4.0), math.exp(-2.5), math.exp(-1.0)])
    walk = _Walk(graph, "X", radii[0])
    rows = piece_rows(walk.pieces(radii, 0))
    assert all(rows[kind] for kind in ("point", "segment", "box"))
    for r in (radii[0], radii[2], radii):
        _assert_streams_alike(walk, r, np.zeros(2), covering._run_axis(graph))


@pytest.mark.parametrize("name", ["two_ratio", "cantor_point", "dust2d_edge", "rotated2d"])
def test_a_pass_of_several_radii_is_one_chunk(bundled, name):
    # radii share a pass while their estimates sum within _WORK, the budget
    # a pass's slices are cut by, so such a pass maps each node block whole
    graph = bundled[name]
    ts = np.linspace(0.5, 7.0 if graph.dimension == 2 else 9.0, 60)
    per_pass, pieces, images = [], _Walk.pieces, _Walk._images

    def spy_pieces(walk, r, axis):
        live = [(hi > lo).any() for *_block, lo, hi in walk._blocks(np.atleast_1d(r))]
        per_pass.append([np.ndim(r) > 0, sum(live), 0])
        yield from pieces(walk, r, axis)

    def spy_images(walk, *args):
        per_pass[-1][-1] += 1
        return images(walk, *args)

    with mock.patch.object(_Walk, "pieces", spy_pieces), \
            mock.patch.object(_Walk, "_images", spy_images):
        covering.profile_at(graph, ts)
    assert any(tagged for tagged, _blocks, _slices in per_pass)
    assert all(blocks == slices for tagged, blocks, slices in per_pass if tagged)


@pytest.mark.parametrize("name, ts", [
    ("sierpinski", [6.0]),  # 3^10 leaves at one radius
    ("two_ratio", np.linspace(0.5, 9.0, 60).tolist()),  # passes of many radii
])
def test_no_piece_passes_the_budget_by_more_than_one_node(bundled, name, ts):
    # both systems have leaves only, whose _cost is one per (node, radius)
    # pair: a piece's summed estimate is its row count, and one node's is at
    # most the number of radii in its pass
    graph = bundled[name]
    assert not any(graph.condensation.values())
    fed, feed = [], covering._feed

    def spy(piece, r, origin, acc):
        _kind, arrays, _tag = piece
        fed.append((arrays[0].shape[0], np.size(r)))
        return feed(piece, r, origin, acc)

    with mock.patch.object(covering, "_feed", spy):
        if len(ts) == 1:
            r = math.exp(-ts[0])
            assert covering.count(covering.generate(graph, "X", r), r).total > 0
        else:
            covering.profile_at(graph, ts)
    if len(ts) == 1:
        assert sum(rows for rows, _n in fed) == 3**10
    else:
        assert any(n_radii > 1 for _rows, n_radii in fed)
    assert all(0 < rows <= covering._WORK + n_radii for rows, n_radii in fed)


def test_chunk_size_changes_no_profile(two_vertex):
    # per-vertex counts and the totals deduplicated across vertices; with the
    # cap at the largest per-vertex count, only the total over P and Q trips it
    ts = [1.0, 1.5, 2.0, 2.5, 3.0]
    for origin in (0.0, 0.316):
        want = covering.profile_at(two_vertex, ts, grid_origin=origin)
        for size in STREAM_SIZES:
            with mock.patch.object(covering, "_WORK", size):
                assert covering.profile_at(two_vertex, ts, grid_origin=origin) == want
    cap = max(max(s.counts) for s in covering.profile_at(two_vertex, ts).samples)
    for size in STREAM_SIZES:
        with mock.patch.object(covering, "_WORK", size), mock.patch.object(
                covering, "CELL_CAP", cap), pytest.raises(ResourceLimitError) as err:
            covering.profile_at(two_vertex, ts)
        assert str(err.value) == f"cell union exceeds cap {cap}"


@pytest.mark.parametrize("name, t, total, parent_peak", [
    ("sierpinski", 6.0, 22_795, 13.5e6),
    ("rotated2d", 7.0, 13_145, 6.3e6),
])
def test_a_count_holds_one_chunk_at_a_time(bundled, name, t, total, parent_peak):
    # building the walk and counting it: when a pass built every shape, cell
    # range and candidate run before the union saw any, the traced peak was
    # parent_peak; streamed a chunk at a time it stays below 60% of that
    graph = bundled[name]
    r = math.exp(-t)
    tracemalloc.start()
    try:
        res = covering.count(covering.generate(graph, "X", r), r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.total == total
    assert peak < 0.6 * parent_peak, peak


# -- the work table ------------------------------------------------------------------
#
# ``_Walk.work`` reads node counts tallied once per walk, on its first call;
# ``per_node_work`` in the oracle is the per-node scan it replaced, run for
# every array of radii.  Both give the same integer-valued sums, so ``_groups``
# cuts the same passes.


def _assert_work_matches_the_scan(walk, radii) -> None:
    axis = covering._run_axis(walk.graph)
    got, want = walk.work(radii, axis), oracle.per_node_work(walk, radii, axis)
    assert got.tolist() == want.tolist(), radii
    assert list(covering._groups(got)) == list(covering._groups(want))


def _radius_sets(walk) -> list:
    """The walk's finest radius alone, the root's size alone, ladders from
    the finest radius to the root's size and past it, and radii above 1."""
    r_min, root = walk.r_min, walk.c_size[0]
    return [
        np.array([r_min]),
        np.array([root]),
        np.geomspace(r_min, root, 9),
        np.geomspace(r_min, 4.0 * max(root, 1.0), 17),
        np.unique([r_min, root, 1.5, 4.0]),
    ]


def _analysis_radii(graph) -> np.ndarray:
    """Every radius a README-default analysis asks ``work`` about, together
    with those of the forcing grid (``forcing_oracle``) on its report: the
    profile's, the window's, and every forcing t and child-shifted t."""
    seen, work = [], _Walk.work

    def spy(walk, radii, axis):
        seen.append(np.asarray(radii))
        return work(walk, radii, axis)

    with mock.patch.object(_Walk, "work", spy):
        res = asymptotics.analyze(graph)
        forcing_oracle.predicted(graph, res.spectral, res.report)
    return np.unique(np.concatenate(seen))


@pytest.mark.parametrize("name", BUNDLED_NAMES)
def test_work_table_matches_the_per_node_scan(bundled, name):
    graph = bundled[name]
    for v in graph.vertex_order:
        walk = _Walk(graph, v, WALK_RADII[name][0])
        list(walk.pieces(walk.r_min, 0))
        assert "_work_table" not in vars(walk)  # neither the build nor a pass forms it
        for radii in _radius_sets(walk):
            _assert_work_matches_the_scan(walk, radii)
        assert "_work_table" in vars(walk)


@pytest.mark.parametrize("name", ["two_ratio", "cantor_point"])
def test_work_table_matches_the_scan_on_analysis_radii(bundled, name):
    graph = bundled[name]
    radii = _analysis_radii(graph)
    assert radii.size > 100
    for v in graph.vertex_order:
        _assert_work_matches_the_scan(_Walk(graph, v, radii[0]), radii)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(graph=st.one_of(ANY_SYSTEMS, systems(2, composed=True)), t=st.floats(0.5, 4.0))
def test_random_work_tables_match_the_per_node_scan(graph, t):
    for v in graph.vertex_order:
        walk = _Walk(graph, v, math.exp(-t))
        for radii in _radius_sets(walk):
            _assert_work_matches_the_scan(walk, radii)


def test_work_table_charges_interior_nodes_below_their_above():
    # Y's box is wider than the X box its copy sits in, so a node ending at
    # Y is larger than its parent, and is interior only below its ``above``
    unit, wide = Box((0.0,), (1.0,)), Box((0.0,), (4.0,))
    edges = [Edge("a", "X", "Y", Similarity(0.5, np.eye(1), [0.0]), Fraction(1, 2)),
             Edge("b", "Y", "X", Similarity(0.5, np.eye(1), [2.0]), Fraction(1, 2)),
             Edge("c", "Y", "Y", Similarity(0.25, np.eye(1), [0.0]), Fraction(1, 4))]
    graph = MWGraph(dimension=1, vertices={"X": unit, "Y": wide}, edges=edges,
                    condensation={"X": (), "Y": (Primitive.segment([0.5], [3.5]),)})
    walk = _Walk(graph, "X", 1e-3)
    node_size = walk.c_size[walk.cls]
    assert (node_size > walk.above).any()
    for radii in [*_radius_sets(walk), np.geomspace(1e-3, 2.0, 40)]:
        _assert_work_matches_the_scan(walk, radii)
