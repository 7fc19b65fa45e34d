"""Hand-built systems and independent numeric oracles shared by the tests.

Everything here is deliberately naive (direct construction, brute-force
enumeration, bisection on scalar equations) so that package results are
checked against code that shares no logic with the implementation.
"""

import dataclasses
import itertools
import math
import random
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from gdcover import covering, spectral
from gdcover.covering import _axis_order, _BoxAxes, _CellUnion, _run_cells
from gdcover.errors import ResourceLimitError, ValidationError
from gdcover.geometry import Box, Primitive, Similarity
from gdcover.graph import (
    CONTAINMENT_TOL,
    ORTHOGONALITY_TOL,
    PATH_CAP,
    Edge,
    MWGraph,
    Path,
    ValidationReport,
    walk_prefix_tree,
)
from gdcover.renewal import AtomicMeasure, StepFunction

LN2 = math.log(2.0)
LN3 = math.log(3.0)

# root of 1 - 2^{-s} - 8^{-s} = 0, frozen from the bisection oracle below
TWO_VERTEX_S0 = 0.5514630897455954


def line_map(ratio: float, shift: float) -> Similarity:
    return Similarity(ratio, [[1.0]], [shift])


def plane_map(ratio: float, shift, isometry=None) -> Similarity:
    q = np.eye(2) if isometry is None else isometry
    return Similarity(ratio, q, shift)


def make_path(graph: MWGraph, start: str, edge_ids) -> Path:
    """A path of ``graph`` after checking that its edges follow each other."""
    ids = tuple(edge_ids)
    at = start
    for eid in ids:
        e = graph.edges.get(eid)
        if e is None:
            raise ValidationError(f"unknown edge {eid!r}")
        if e.src != at:
            raise ValidationError(f"edge {eid!r} does not continue the walk at {at!r}")
        at = e.dst
    return Path(start, ids)


def path_terminal(graph: MWGraph, path: Path) -> str:
    """The vertex a walk ends at; the empty walk ends where it starts."""
    return graph.edges[path.edges[-1]].dst if path.edges else path.start


def enumerate_paths(
    graph: MWGraph,
    start: str,
    *,
    length: int | None = None,
    max_ratio: float | None = None,
    cap: int = PATH_CAP,
) -> list[Path]:
    """Enumerate walks from ``start`` by exact length or by ratio antichain.

    With ``max_ratio=rho`` the result is the stopping set
    ``{gamma : ratio(gamma) <= rho < ratio(parent(gamma))}``: a prefix-free
    family met exactly once by every infinite walk.  ``rho >= 1`` yields the
    empty walk alone.
    """
    if (length is None) == (max_ratio is None):
        raise ValueError("specify exactly one of length= or max_ratio=")
    if length is not None:
        if length < 0:
            raise ValueError("length must be nonnegative")
        frontier = [Path(start)]
        for _ in range(length):
            nxt: list[Path] = []
            for p in frontier:
                v = path_terminal(graph, p)
                for e in graph.out_edges(v):
                    nxt.append(p.child(e.id))
                    if len(nxt) > cap:
                        raise ResourceLimitError(
                            f"path enumeration exceeded the cap of {cap}"
                        )
            frontier = nxt
        return frontier
    rho = float(max_ratio)
    if rho <= 0:
        raise ValueError("max_ratio must be positive")
    return [
        path
        for kind, path, _sim, _ratio, _v in walk_prefix_tree(
            graph, start, lambda r, _v: r <= rho, cap=cap
        )
        if kind == "leaf"
    ]


def cantor_graph(condensation=None, separation="SSC") -> MWGraph:
    """Two maps x/3 and x/3 + 2/3 on the unit interval."""
    third = 1.0 / 3.0
    return MWGraph(
        dimension=1,
        vertices={"X": Box((0.0,), (1.0,))},
        edges=[
            Edge("a", "X", "X", line_map(third, 0.0)),
            Edge("b", "X", "X", line_map(third, 2.0 / 3.0)),
        ],
        condensation=condensation,
        separation=separation,
    )


def two_ratio_graph(r1=0.5, r2=0.25) -> MWGraph:
    """Two maps with distinct ratios packed side by side in [0, 1]."""
    return MWGraph(
        dimension=1,
        vertices={"X": Box((0.0,), (1.0,))},
        edges=[
            Edge("h", "X", "X", line_map(r1, 0.0)),
            Edge("q", "X", "X", line_map(r2, 1.0 - r2)),
        ],
        separation="SSC",
    )


def two_vertex_graph() -> MWGraph:
    """Loop at P plus a P->Q->P excursion; cycle lengths ln2 and ln8."""
    return MWGraph(
        dimension=1,
        vertices={"P": Box((0.0,), (1.0,)), "Q": Box((2.0,), (3.0,))},
        edges=[
            Edge("loop", "P", "P", line_map(0.5, 0.0)),
            Edge("hop", "P", "Q", line_map(0.25, 0.0)),
            Edge("back", "Q", "P", line_map(0.5, 2.0)),
        ],
        separation="SOSC",
    )


def sierpinski_graph(condensation=None, separation="SOSC") -> MWGraph:
    """Three half-scale corners of the unit square; s0 = ln3/ln2 > 1."""
    return MWGraph(
        dimension=2,
        vertices={"X": Box((0.0, 0.0), (1.0, 1.0))},
        edges=[
            Edge("p", "X", "X", plane_map(0.5, (0.0, 0.0))),
            Edge("q", "X", "X", plane_map(0.5, (0.5, 0.0))),
            Edge("s", "X", "X", plane_map(0.5, (0.0, 0.5))),
        ],
        condensation=condensation,
        separation=separation,
    )


def half_half_segment_graph() -> MWGraph:
    """Two maps of ratio 1/2 plus a segment: s0 = 1 equals the segment dimension."""
    return MWGraph(
        dimension=1,
        vertices={"X": Box((0.0,), (1.0,))},
        edges=[
            Edge("a", "X", "X", line_map(0.5, 0.0)),
            Edge("b", "X", "X", line_map(0.5, 0.5)),
        ],
        condensation={"X": (Primitive.segment((0.25,), (0.75,)),)},
        separation="SCOSC",
    )


def phase_graph() -> MWGraph:
    """Lattice tau = ln2 whose single edges sit off the lattice.

    Cycles ``loop`` (1/2) and ``hop back`` (1/3 * 3/8 = 1/8) give tau = ln2,
    but ``hop`` alone has log-ratio ln3, so Q carries the phase ln(3/2).
    """
    return MWGraph(
        dimension=1,
        vertices={"P": Box((0.0,), (1.0,)), "Q": Box((2.0,), (3.0,))},
        edges=[
            Edge("loop", "P", "P", line_map(0.5, 0.5), Fraction(1, 2)),
            Edge("hop", "P", "Q", line_map(1.0 / 3.0, -2.0 / 3.0), Fraction(1, 3)),
            Edge("back", "Q", "P", line_map(0.375, 2.0), Fraction(3, 8)),
        ],
        condensation={"P": (Primitive.point((0.4,)),)},
    )


def three_cycle_graph() -> MWGraph:
    """X -> Y -> Z -> X, ratio 1/2 on each edge: tau = ln8, while each edge
    has log-ratio ln2, so Y and Z carry the phases ln2 and ln4."""
    return MWGraph(
        dimension=1,
        vertices={"X": Box((0.0,), (1.0,)), "Y": Box((2.0,), (3.0,)),
                  "Z": Box((4.0,), (5.0,))},
        edges=[
            Edge("xy", "X", "Y", line_map(0.5, -1.0), Fraction(1, 2)),
            Edge("yz", "Y", "Z", line_map(0.5, 0.0), Fraction(1, 2)),
            Edge("zx", "Z", "X", line_map(0.5, 4.0), Fraction(1, 2)),
        ],
    )


FAMILY_DENSE = ((Fraction(1, 3), Fraction(1, 4), Fraction(1, 5), Fraction(2, 7)),
                (Fraction(1, 3), Fraction(1, 4)))
FAMILY_LATTICE = ((Fraction(1, 4), Fraction(1, 8)), (Fraction(1, 4), Fraction(1, 8)))


def family_system(n: int, lattice: bool, seed: int) -> dict:
    """A valid 1-d system file shaped like the benchmark's graph_family
    members: vertex k owns the box [2k, 2k + 1], a Hamiltonian cycle plus two
    more targets per vertex, two self-loops at vertex 0 that fix the lattice
    verdict, images at the left, middle or right of their box, and a
    condensation point at about half the vertices."""
    rng = random.Random(seed)
    ratio_set, loops = FAMILY_LATTICE if lattice else FAMILY_DENSE
    targets = [[0, 0, 1]] + [
        [(k + 1) % n] + rng.sample([v for v in range(n) if v != (k + 1) % n], 2)
        for k in range(1, n)
    ]
    edges = []
    for k, dsts in enumerate(targets):
        qs = list(loops) + [rng.choice(ratio_set)] if k == 0 else [
            rng.choice(ratio_set) for _ in dsts]
        for dst, q, place in zip(dsts, qs, rng.sample(range(3), 3)):
            r = float(q)
            offset = (0.0, (1.0 - r) / 2.0, 1.0 - r)[place]
            edges.append({"id": f"e{len(edges):03d}", "from": f"v{k:02d}", "to": f"v{dst:02d}",
                          "ratio": r, "ratio_rational": [q.numerator, q.denominator],
                          "translation": [2.0 * k + offset - r * 2.0 * dst]})
    return {
        "dimension": 1,
        "vertices": [{"id": f"v{k:02d}", "box": {"min": [2.0 * k], "max": [2.0 * k + 1.0]}}
                     for k in range(n)],
        "edges": edges,
        "condensation": {f"v{k:02d}": [{"kind": "point", "point": [2.0 * k + 0.25]}]
                         for k in range(n) if rng.random() < 0.5},
        "separation": "none",
    }


# ratios 1/2 and 1/256: lattice with tau = log 2, and edge b's log 256 = 8 tau
# spans more than the 7 periods n = 4..10 a README-default profile samples
LONG_EDGE_SYSTEM = {
    "dimension": 1,
    "vertices": [{"id": "X", "box": {"min": [0.0], "max": [1.0]}}],
    "edges": [
        {"id": "a", "from": "X", "to": "X", "ratio": 0.5, "ratio_rational": [1, 2],
         "translation": [0.0]},
        {"id": "b", "from": "X", "to": "X", "ratio": 0.00390625, "ratio_rational": [1, 256],
         "translation": [0.99609375]},
    ],
    "separation": "SSC",
}


# the ratio-1/4 Cantor set on [10^6, 10^6 + 1]: differences of far
# coordinates round at ulp(10^6), about 1e-10, but the maps scale distances
# exactly
FAR_CANTOR_SYSTEM = {
    "dimension": 1,
    "vertices": [{"id": "X", "box": {"min": [1e6], "max": [1e6 + 1]}}],
    "edges": [
        {"id": "a", "from": "X", "to": "X", "ratio": 0.25, "ratio_rational": [1, 4],
         "translation": [750000.0]},
        {"id": "b", "from": "X", "to": "X", "ratio": 0.25, "ratio_rational": [1, 4],
         "translation": [750000.75]},
    ],
}


# a 2-d system file that fails one check of every kind validate makes:
# overlapping seed boxes, a vertex with no out-edge, ratios outside (0, 1),
# a sheared isometry, an image leaving its box, a rational ratio off by 1/6,
# a condensation point outside its box and an open set leaving its box
FAILING_SYSTEM = {
    "dimension": 2,
    "vertices": [
        {"id": "X", "box": {"min": [0.0, 0.0], "max": [1.0, 1.0]}},
        {"id": "Y", "box": {"min": [0.5, 0.0], "max": [1.5, 1.0]}},
        {"id": "Z", "box": {"min": [3.0, 0.0], "max": [4.0, 2.0]}},
        {"id": "W", "box": {"min": [5.0, 5.0], "max": [6.0, 6.0]}},
    ],
    "edges": [
        {"id": "a", "from": "X", "to": "X", "ratio": 0.4, "isometry": [[1.0, 0.1], [0.0, 1.0]],
         "translation": [0.1, 0.1]},
        {"id": "b", "from": "X", "to": "Y", "ratio": 0.5, "angle": 30.0,
         "translation": [0.6, 0.6]},
        {"id": "c", "from": "Y", "to": "Z", "ratio": 0.2, "angle": 90.0,
         "translation": [1.0, -0.6]},
        {"id": "d", "from": "Z", "to": "Z", "ratio": 0.5, "ratio_rational": [1, 3],
         "translation": [1.5, 0.0]},
        {"id": "e", "from": "Z", "to": "X", "ratio": 1.25, "angle": -45.0,
         "translation": [3.0, 0.5]},
        {"id": "f", "from": "Y", "to": "Y", "ratio": 0.3, "ratio_rational": [3, 10],
         "isometry": [[0.0, 1.0], [1.0, 0.0]], "translation": [0.6, 0.1]},
    ],
    "condensation": {"X": [{"kind": "point", "point": [0.5, 1.5]}],
                     "Z": [{"kind": "segment", "a": [3.2, 0.5], "b": [3.8, 1.5]}]},
    "open_sets": {"Z": {"min": [2.5, 0.0], "max": [4.0, 2.0]}},
    "separation": "none",
}


def dirac(location: float, weight: float = 1.0) -> AtomicMeasure:
    """One atom of ``weight`` at ``location``."""
    return AtomicMeasure([location], [weight])


def shifted_scaled(f: StepFunction, shift: float, weight: float) -> StepFunction:
    """``weight * f(t - shift)``, as the convolution of ``f`` with one atom."""
    return f.convolve_measure(dirac(shift, weight))


def bisect_root(fn, lo: float, hi: float, tol: float = 1e-14) -> float:
    """Plain bisection; fn must change sign on [lo, hi]."""
    flo = fn(lo)
    if flo == 0:
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = fn(mid)
        if fmid == 0 or hi - lo < tol:
            return mid
        if (flo < 0) == (fmid < 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def brute_cells_1d(points, r: float, origin: float = 0.0) -> set:
    """Grid cells (side r, half-open, anchored at origin) met by sample points."""
    eta = 1e-9
    return {math.floor((x - origin) / r + eta) for x in points}


def without_rational(graph: MWGraph) -> MWGraph:
    """A copy of ``graph`` whose edges carry no exact ratio, so that the
    lattice classifier takes its floating path."""
    edges = [dataclasses.replace(e, ratio_rational=None) for e in graph.edges.values()]
    return MWGraph(
        graph.dimension, graph.vertices, edges, graph.condensation, graph.separation,
        graph.open_sets,
    )


RATIOS = tuple(
    Fraction(*q) for q in ((1, 2), (1, 3), (1, 4), (1, 6), (1, 8), (2, 9), (3, 8))
)


@st.composite
def random_graphs(draw):
    """Up to 6 vertices, self-loops and parallel edges allowed, often not
    strongly connected, every edge with a rational ratio from RATIOS."""
    n = draw(st.integers(min_value=1, max_value=6))
    vertex = st.integers(min_value=0, max_value=n - 1)
    triples = draw(
        st.lists(
            st.tuples(vertex, vertex, st.sampled_from(RATIOS)), min_size=0, max_size=11
        )
    )
    edges = [
        Edge(f"e{k}", f"v{a}", f"v{b}", line_map(float(q), 0.0), q)
        for k, (a, b, q) in enumerate(triples)
    ]
    vertices = {f"v{k}": Box((2.0 * k,), (2.0 * k + 1.0,)) for k in range(n)}
    return MWGraph(dimension=1, vertices=vertices, edges=edges)


# -- the cell kernel on shapes given as arrays ----------------------------------
#
# The walk yields its covering elements as pieces (kind, arrays, tag), which
# ``covering._feed`` adds to a run union; these build such pieces by hand.

PIECE_KINDS = ("point", "segment", "box", "obb")


def shape_pieces(dim, points=(), segments=(), boxes=()) -> list:
    """Untagged pieces of points, (a, b) segments and (lo, hi) bounds of
    boxes, one per kind given; each end may be one point or an array of them."""
    out = []
    for kind, rows in (("point", [(p,) for p in points]), ("segment", segments), ("box", boxes)):
        if len(rows):
            out.append((kind, tuple(np.array(x, dtype=float).reshape(-1, dim) for x in zip(*rows)),
                        None))
    return out


def obb_piece(centres, half, tag=None):
    """Rotated 2-d boxes given by centres and half axes, a table row each."""
    half = np.asarray(half, dtype=float).reshape(-1, 2, 2)
    centres = np.asarray(centres, dtype=float).reshape(-1, 2)
    return "obb", (centres, np.arange(half.shape[0]), _BoxAxes.of(half)), tag


def kernel_runs(dim, pieces, r, origin, axis=None) -> np.ndarray:
    """Runs along ``axis`` of the cells the kernel charges ``pieces`` at
    radius r, or at an array of radii that tagged pieces index."""
    acc = _CellUnion(dim, np.ndim(r) > 0, axis)
    for piece in pieces:
        covering._feed(piece, r, origin, acc)
    return acc.runs()


def kernel_cells(dim, pieces, r, origin, axis=None) -> np.ndarray:
    """The cells of ``kernel_runs``, one index row each, in the caller's axis order."""
    return _run_cells(kernel_runs(dim, pieces, r, origin, axis), _axis_order(dim, axis))


def set_pieces(gset) -> list:
    """A covering set's elements as the pieces of its walk."""
    walk = gset._walk
    return list(walk.pieces(gset.resolution, covering._run_axis(walk.graph)))


def piece_rows(pieces) -> dict:
    """The coordinate rows of ``pieces`` by kind: points, segment ends, box
    bounds, and rotated boxes as centre and half axes."""
    rows = {kind: [] for kind in PIECE_KINDS}
    for kind, arrays, _tag in pieces:
        if kind == "obb":
            centre, row, axes = arrays
            arrays = (centre, axes.half[row].reshape(centre.shape[0], 4))
        rows[kind] += map(tuple, np.concatenate(arrays, axis=1).tolist())
    return rows


def box_corners(box: Box) -> np.ndarray:
    """All 2^d corner points of ``box``, one per row."""
    return np.array(list(itertools.product(*zip(box.lo, box.hi))), dtype=float)


def box_contains_point(box: Box, point, tol: float = 0.0) -> bool:
    return all(l - tol <= x <= h + tol for x, l, h in zip(point, box.lo, box.hi))


def interiors_intersect(a: Box, b: Box) -> bool:
    """True when the open interiors overlap (degenerate boxes never do)."""
    return all(min(h1, h2) > max(l1, l2) for l1, h1, l2, h2 in zip(a.lo, a.hi, b.lo, b.hi))


def orthogonality_defect(sim: Similarity) -> float:
    q = sim.isometry
    return float(np.max(np.abs(q.T @ q - np.eye(q.shape[0]))))


def perron_triple(a: np.ndarray):
    """``(radius, right, left)`` of a nonnegative matrix from the package's
    right and left power runs, both vectors normalized to unit sum."""
    rho, right = spectral._power_perron(a)
    return rho, right, spectral._left_perron(a, rho)


def validate_loop(graph: MWGraph) -> ValidationReport:
    """``gdcover.graph.validate`` one check at a time: the reference its array
    passes must reproduce, check for check, name, verdict and detail."""
    rep = ValidationReport()
    d = graph.dimension
    rep.add("dimension-positive", d >= 1, f"d={d}")

    for vid, box in graph.vertices.items():
        ok = box.dim == d and all(w > 0 for w in box.widths)
        rep.add(
            f"seed-box[{vid}]",
            ok,
            "" if ok else f"box must be d-dimensional with positive widths, got {box}",
        )

    for vid in graph.vertex_order:
        ok = len(graph.out_edges(vid)) > 0
        rep.add(f"out-edge[{vid}]", ok, "" if ok else "vertex has no outgoing edge")

    order = graph.vertex_order
    for i, v1 in enumerate(order):
        for v2 in order[i + 1 :]:
            ok = not interiors_intersect(graph.vertices[v1], graph.vertices[v2])
            rep.add(
                f"disjoint-interiors[{v1},{v2}]",
                ok,
                "" if ok else "seed boxes overlap on an open set",
            )

    for e in graph.edges.values():
        sim = e.map
        rep.add(
            f"ratio-range[{e.id}]",
            0.0 < sim.ratio < 1.0,
            f"ratio={sim.ratio}",
        )
        shape_ok = sim.dim == d and sim.isometry.shape == (d, d)
        rep.add(f"map-shape[{e.id}]", shape_ok, "" if shape_ok else "wrong dimensions")
        if not shape_ok:
            continue
        defect = orthogonality_defect(sim)
        rep.add(
            f"isometry-orthogonal[{e.id}]",
            defect <= ORTHOGONALITY_TOL,
            f"defect={defect:.3e}",
        )
        # distance scaling over all v: the worst |sigma_i(Q) - 1|, inf for
        # a Q with a non-finite entry
        worst = math.inf
        if np.isfinite(sim.isometry).all():
            sigma = np.linalg.svd(sim.isometry, compute_uv=False)
            worst = max([abs(float(s) - 1.0) for s in sigma], default=0.0)
        rep.add(
            f"distance-scaling[{e.id}]",
            worst <= 1e-12,
            f"relative defect={worst:.3e}",
        )
        # containment: image of the 2^d corners of the target box
        target = graph.seed_box(e.dst)
        source = graph.seed_box(e.src)
        corners = sim.apply(box_corners(target))
        inside = all(
            box_contains_point(source, c, tol=CONTAINMENT_TOL) for c in corners
        )
        rep.add(
            f"containment[{e.id}]",
            inside,
            "" if inside else f"image of {e.dst!r} escapes the box of {e.src!r}",
        )
        if e.ratio_rational is not None:
            q = e.ratio_rational
            ok = 0 < q < 1 and abs(float(q) - sim.ratio) <= 1e-12 * sim.ratio
            rep.add(
                f"ratio-rational[{e.id}]",
                ok,
                "" if ok else f"rational {q} disagrees with float ratio {sim.ratio}",
            )

    for vid, prims in graph.condensation.items():
        box = graph.seed_box(vid)
        for k, prim in enumerate(prims):
            ok = prim.dim == d
            if ok and prim.kind == "box":
                lo, hi = prim.points
                ok = all(l <= h for l, h in zip(lo, hi))
            if ok:
                ok = box.contains_box(prim.bounding_box(), tol=CONTAINMENT_TOL)
            rep.add(
                f"condensation[{vid}:{k}]",
                ok,
                "" if ok else "shape must sit inside its seed box",
            )

    for vid, open_box in graph.open_sets.items():
        ok = all(w > 0 for w in open_box.widths) and graph.seed_box(vid).contains_box(
            open_box, tol=CONTAINMENT_TOL
        )
        rep.add(
            f"open-set[{vid}]",
            ok,
            "" if ok else "open set must have positive widths and sit inside the seed box",
        )

    return rep
