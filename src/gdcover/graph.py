"""Directed multigraphs of contractive similarities between seed boxes.

A system is a finite directed multigraph whose vertices carry compact seed
boxes in a common R^d and whose edges carry contractive similarities mapping
the target vertex's box into the source vertex's box.  Vertices may also
carry condensation shapes that get copied into every cylinder when the
attractor is expanded.

Finite edge walks are the combinatorial backbone of everything else:
cylinder covers come from ratio-stopped antichains.  Simple-cycle
enumeration, whose output grows exponentially with the graph, has no runtime
caller: the lattice classifier works from a spanning tree instead.  Beside
the structural checks sits a separation certificate that decides the open
set conditions from first-level images of the candidate open sets.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import ResourceLimitError, ValidationError
from .geometry import Box, Primitive, Similarity

__all__ = [
    "Edge",
    "Path",
    "MWGraph",
    "CheckResult",
    "ValidationReport",
    "validate",
    "certify_separation",
    "strong_components",
    "strongly_connected",
]

PATH_CAP = 10**8
CONTAINMENT_TOL = 1e-9
ORTHOGONALITY_TOL = 1e-12
SEPARATIONS = ("SSC", "SOSC", "SCOSC", "none")


@dataclass(frozen=True)
class Edge:
    """A similarity-labelled edge from ``src`` to ``dst``.

    The map sends the seed box of ``dst`` into the seed box of ``src``.
    ``ratio_rational`` optionally records the contraction ratio exactly.
    """

    id: str
    src: str
    dst: str
    map: Similarity
    ratio_rational: Fraction | None = None

    @property
    def ratio(self) -> float:
        return self.map.ratio

    @property
    def log_ratio(self) -> float:
        """The positive quantity -log(ratio)."""
        return -math.log(self.map.ratio)


@dataclass(frozen=True)
class Path:
    """A finite edge walk.

    ``start`` pins the initial vertex so that the empty walk (which plays
    the role of the identity map) still knows where it lives.
    """

    start: str
    edges: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.edges)

    def child(self, edge_id: str) -> "Path":
        return Path(self.start, self.edges + (edge_id,))


class MWGraph:
    """A validated-on-demand system description.

    Construction performs only cheap structural checks (unknown vertices,
    duplicate ids); run :func:`validate` for the full geometric report.
    """

    def __init__(
        self,
        dimension: int,
        vertices: dict[str, Box],
        edges: Iterable[Edge],
        condensation: dict[str, tuple[Primitive, ...]] | None = None,
        separation: str = "none",
        open_sets: dict[str, Box] | None = None,
    ) -> None:
        self.dimension = int(dimension)
        self.vertices = dict(vertices)
        self.vertex_order = tuple(self.vertices)
        edge_list = list(edges)
        self.edges = {e.id: e for e in edge_list}
        if len(self.edges) != len(edge_list):
            raise ValidationError("duplicate edge id")
        for e in edge_list:
            if e.src not in self.vertices or e.dst not in self.vertices:
                raise ValidationError(f"edge {e.id!r} references an unknown vertex")
        if separation not in SEPARATIONS:
            raise ValidationError(f"unknown separation class {separation!r}")
        self.separation = separation
        cond = dict(condensation or {})
        for vid in cond:
            if vid not in self.vertices:
                raise ValidationError(f"condensation references unknown vertex {vid!r}")
        self.condensation = {
            v: tuple(cond.get(v, ())) for v in self.vertex_order
        }
        if open_sets:
            for vid in open_sets:
                if vid not in self.vertices:
                    raise ValidationError(f"open set references unknown vertex {vid!r}")
        self.open_sets = {
            v: (open_sets or {}).get(v, self.vertices[v]) for v in self.vertex_order
        }
        self._out = {
            v: tuple(e for e in edge_list if e.src == v) for v in self.vertex_order
        }
        self._index = {v: k for k, v in enumerate(self.vertex_order)}

    # -- simple accessors -------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_order)

    def seed_box(self, vertex: str) -> Box:
        return self.vertices[vertex]

    def out_edges(self, vertex: str) -> tuple[Edge, ...]:
        return self._out[vertex]

    def edge(self, edge_id: str) -> Edge:
        return self.edges[edge_id]

    def vertex_index(self, vertex: str) -> int:
        return self._index[vertex]

    def has_condensation(self) -> bool:
        return any(self.condensation[v] for v in self.vertex_order)

    def without_condensation(self) -> "MWGraph":
        """The same system with every condensation set empty: the homogeneous
        graph-directed attractor of Mauldin and Williams."""
        return MWGraph(
            self.dimension,
            self.vertices,
            self.edges.values(),
            separation=self.separation,
            open_sets=self.open_sets,
        )

    # -- path helpers ------------------------------------------------------

    def path_map(self, path: Path) -> Similarity:
        sim = Similarity.identity(self.dimension)
        for eid in path.edges:
            sim = sim.compose(self.edges[eid].map)
        return sim


# -- validation -----------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class ValidationReport:
    """Outcome of every structural and geometric invariant check."""

    checks: list[CheckResult] = field(default_factory=list)

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append(CheckResult(name, bool(passed), detail))

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def raise_if_failed(self) -> None:
        if not self.ok:
            lines = "; ".join(f"{c.name}: {c.detail}" for c in self.failures())
            raise ValidationError(f"validation failed ({lines})")


def _bounds(boxes: list[Box], width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Min and max corners of ``boxes`` as rows of ``width`` columns, NaN
    past a box's own dimension, and those dimensions."""
    pad = [(math.nan,) * (width - b.dim) for b in boxes]
    lo = np.array([b.lo + p for b, p in zip(boxes, pad)]).reshape(len(boxes), width)
    hi = np.array([b.hi + p for b, p in zip(boxes, pad)]).reshape(len(boxes), width)
    return lo, hi, np.array([b.dim for b in boxes], dtype=int)


def validate(graph: MWGraph) -> ValidationReport:
    """Check every structural invariant and report pass/fail per check.

    Failures are fatal for downstream use; callers that need a hard stop can
    use :meth:`ValidationReport.raise_if_failed`.  Each kind of check runs
    as one array pass over the stacked boxes or edge maps; a comparison
    over two boxes covers the axes both have, as ``Box`` methods do.
    """
    rep = ValidationReport()
    add, tol = rep.add, CONTAINMENT_TOL
    d = graph.dimension
    add("dimension-positive", d >= 1, f"d={d}")

    order = graph.vertex_order
    seeds = [graph.vertices[v] for v in order]
    opens = [graph.open_sets[v] for v in order]
    width = max([d] + [b.dim for b in seeds + opens])
    axes = np.arange(width)
    lo, hi, dims = _bounds(seeds, width)
    seed_ok = (dims == d) & (hi[:, :d] - lo[:, :d] > 0).all(axis=1)
    for vid, box, ok in zip(order, seeds, seed_ok.tolist()):
        add(f"seed-box[{vid}]", ok,
            "" if ok else f"box must be d-dimensional with positive widths, got {box}")

    for vid in order:
        ok = len(graph.out_edges(vid)) > 0
        add(f"out-edge[{vid}]", ok, "" if ok else "vertex has no outgoing edge")

    first, second = np.triu_indices(len(order), 1)
    apart = axes >= np.minimum(dims[first], dims[second])[:, None]
    meet = (np.minimum(hi[first], hi[second]) > np.maximum(lo[first], lo[second])) | apart
    for a, b, ok in zip(first.tolist(), second.tolist(), (~meet.all(axis=1)).tolist()):
        add(f"disjoint-interiors[{order[a]},{order[b]}]", ok,
            "" if ok else "seed boxes overlap on an open set")

    edges = list(graph.edges.values())
    shape_ok = [e.map.dim == d and e.map.isometry.shape == (d, d) for e in edges]
    shaped = [e for e, ok in zip(edges, shape_ok) if ok]
    count = len(shaped)
    ratio = np.array([e.map.ratio for e in shaped])
    q = np.array([e.map.isometry for e in shaped]).reshape(count, d, d)
    qt = q.transpose(0, 2, 1)
    shift = np.array([e.map.translation for e in shaped]).reshape(count, 1, d)
    src = np.array([graph.vertex_index(e.src) for e in shaped], dtype=int)
    dst = np.array([graph.vertex_index(e.dst) for e in shaped], dtype=int)
    # entries near the float range overflow to inf, and the checks below
    # fail with it: numpy's overflow warning would only repeat that
    with np.errstate(over="ignore", invalid="ignore"):
        defect = np.abs(qt @ q - np.eye(d)).max(axis=(1, 2))
        # distance scaling over all v: |Q v| / |v| spans [sigma_min, sigma_max]
        # of Q (Golub-Van Loan 2.5), so the worst relative defect of
        # |ratio Q v| against ratio |v| is max |sigma_i - 1|; a Q with a
        # non-finite entry has no SVD and fails with defect inf
        finite = np.isfinite(q).all(axis=(1, 2))
        worst = np.full(count, np.inf)
        sigma = np.linalg.svd(q[finite], compute_uv=False)
        worst[finite] = np.abs(sigma - 1.0).max(axis=1, initial=0.0)
        # containment: image of the 2^d corners of the target box, within the
        # axes the source box has
        hi_bit = (np.arange(2**d)[:, None] >> np.arange(d - 1, -1, -1)) & 1 == 1
        corners = np.where(hi_bit, hi[dst, None, :d], lo[dst, None, :d])
        images = ratio[:, None, None] * corners @ qt + shift
        inside = ((lo[src, None, :d] - tol <= images) & (images <= hi[src, None, :d] + tol)
                  | (axes[:d] >= dims[src, None, None])).all(axis=(1, 2))

    shaped_checks = zip(defect.tolist(), worst.tolist(), inside.tolist())
    for e, ok in zip(edges, shape_ok):
        r = e.map.ratio
        add(f"ratio-range[{e.id}]", 0.0 < r < 1.0, f"ratio={r}")
        add(f"map-shape[{e.id}]", ok, "" if ok else "wrong dimensions")
        if not ok:
            continue
        e_defect, e_worst, e_inside = next(shaped_checks)
        add(f"isometry-orthogonal[{e.id}]", e_defect <= ORTHOGONALITY_TOL, f"defect={e_defect:.3e}")
        add(f"distance-scaling[{e.id}]", e_worst <= 1e-12, f"relative defect={e_worst:.3e}")
        add(f"containment[{e.id}]", e_inside,
            "" if e_inside else f"image of {e.dst!r} escapes the box of {e.src!r}")
        if e.ratio_rational is not None:
            rational = e.ratio_rational
            # relative: a tiny ratio's rational must not be off by a multiple
            ok = 0 < rational < 1 and abs(float(rational) - r) <= 1e-12 * r
            add(f"ratio-rational[{e.id}]", ok,
                "" if ok else f"rational {rational} disagrees with float ratio {r}")

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

    olo, ohi, odims = _bounds(opens, width)
    open_ok = ((ohi - olo > 0) | (axes >= odims[:, None])).all(axis=1) & (
        ((lo - tol <= olo) & (ohi <= hi + tol)) | (axes >= np.minimum(dims, odims)[:, None])
    ).all(axis=1)
    for vid, ok in zip(order, open_ok.tolist()):
        add(f"open-set[{vid}]", ok,
            "" if ok else "open set must have positive widths and sit inside the seed box")

    return rep


# -- separation certificate ---------------------------------------------------

SOSC_LEVELS = 2  # image levels above each vertex's cycle point that SOSC searches


def _form(shape: Box | Primitive, sim: Similarity) -> tuple[np.ndarray, np.ndarray]:
    """Centre and half-axis rows of a box's image under ``sim``; a point or a
    segment is a degenerate box."""
    if isinstance(shape, Box):
        shape = Primitive.box(shape.lo, shape.hi)
    a, b = np.array(shape.points[0]), np.array(shape.points[-1])
    rows = np.diag((b - a) / 2) if shape.kind == "box" else ((b - a) / 2)[None, :]
    return sim.apply((a + b) / 2), sim.ratio * rows @ sim.isometry.T


def _margin(form, box: Box) -> float:
    """How far a shape keeps inside ``box`` at its nearest face; below 0 it leaves."""
    centre, rows = form
    slack = np.array(box.widths) / 2 - np.abs(centre - box.center) - np.abs(rows).sum(axis=0)
    return float(slack.min())


def _gap(a, b) -> float:
    """The widest gap between two boxes along candidate separating axes.

    A gap of at least 0 puts a hyperplane between the boxes, so their
    interiors are disjoint, and a positive one bounds their distance from
    below.  In d <= 3 the axes are the face normals and the edge cross
    products, which decide every pair with one full-dimensional box; in
    d >= 4 only the half-axis directions are tried, so a missing axis can
    only hide a gap.  With no axis at all the gap reads as -inf.
    """
    (ca, ra), (cb, rb) = a, b
    axes = np.vstack([ra, rb])
    if axes.shape[1] == 2:
        axes = axes[:, ::-1] * (1.0, -1.0)
    elif axes.shape[1] == 3:
        i, j = np.triu_indices(len(axes), 1)
        axes = np.vstack([axes, np.cross(axes[i], axes[j])])
    norms = np.linalg.norm(axes, axis=1)
    axes = axes[norms > 0] / norms[norms > 0, None]
    spread = np.abs(ra @ axes.T).sum(axis=0) + np.abs(rb @ axes.T).sum(axis=0)
    return float(np.max(np.abs(axes @ (cb - ca)) - spread, initial=-np.inf))


def _cycle_point(graph: MWGraph, vertex: str) -> np.ndarray:
    """A point of K_vertex: the fixed point of the cycle that the walk along
    first out-edges runs into, mapped back along the walk's lead-in."""
    walk = [vertex]
    while (nxt := graph.out_edges(walk[-1])[0].dst) not in walk:
        walk.append(nxt)
    k = walk.index(nxt)
    ids = tuple(graph.out_edges(u)[0].id for u in walk)
    cycle = graph.path_map(Path(nxt, ids[k:]))
    x = np.linalg.solve(np.eye(graph.dimension) - cycle.ratio * cycle.isometry, cycle.translation)
    return graph.path_map(Path(vertex, ids[:k])).apply(x)


def certify_separation(graph: MWGraph) -> list[CheckResult]:
    """Decide OSC, SOSC, SSC and SCOSC per vertex from first-level images.

    U_v is the interior of ``graph.open_sets[v]``.  OSC: each out-edge image
    of the target's U lies in U_v and no two images overlap, both within
    ``CONTAINMENT_TOL``.  SOSC: OSC, and a point of K_v lies in U_v; the
    points tried are cycle fixed points and their images ``SOSC_LEVELS``
    deep, and the one found is reported (Schief 1994; Wang 1997 for graphs).
    SSC: OSC, and the closed images lie more than the tolerance apart.
    SCOSC: SOSC, and each condensation shape lies in U_v and misses every
    closed image: Fraser 2012's condensation OSC plus SOSC's point, sound
    whether or not the strong form asks for the point.  A check that does
    not pass names what blocked it and reads "not certified by these boxes":
    other open sets may still certify the class, so it is no counterexample.
    The graph must pass :func:`validate` first.
    """
    tol = CONTAINMENT_TOL
    order, identity = graph.vertex_order, Similarity.identity(graph.dimension)
    start = {v: _cycle_point(graph, v)[None, :] for v in order}
    points = start
    for _ in range(SOSC_LEVELS):
        points = {
            v: np.vstack([start[v]] + [e.map.apply(points[e.dst]) for e in graph.out_edges(v)])
            for v in order
        }
    out: list[CheckResult] = []
    for v in order:
        box = graph.open_sets[v]
        images = [(e.id, _form(graph.open_sets[e.dst], e.map)) for e in graph.out_edges(v)]
        gaps = [(a, b, _gap(fa, fb)) for (a, fa), (b, fb) in itertools.combinations(images, 2)]
        osc = next(itertools.chain(
            (f"the image of edge {e!r} leaves U_{v}" for e, f in images if _margin(f, box) < -tol),
            (f"the images of edges {a!r} and {b!r} overlap" for a, b, g in gaps if g < -tol)), "")
        no_osc = osc and "OSC is not certified"
        inside = [x for x in points[v] if _margin((x, 0 * x[None]), box) > tol]
        sosc = no_osc or ("" if inside else f"no point of K_{v} tried lies in U_{v}")
        ssc = no_osc or next((f"the closed images of edges {a!r} and {b!r} lie within {tol:g}"
                              for a, b, g in gaps if g <= tol), "")
        shapes = [(f"condensation shape {k} ({p.kind})", _form(p, identity))
                  for k, p in enumerate(graph.condensation[v])]
        scosc = (sosc and "SOSC is not certified") or next(itertools.chain(
            (f"{what} does not lie in U_{v}" for what, f in shapes if _margin(f, box) <= tol),
            (f"{what} meets the closed image of edge {e!r}"
             for what, f in shapes for e, image in images if _gap(f, image) <= tol)), "")
        found = "" if sosc else f"point {inside[0].tolist()} of K_{v} lies in U_{v}"
        for name, blocker, witness in (("OSC", osc, ""), ("SOSC", sosc, found),
                                       ("SSC", ssc, ""), ("SCOSC", scosc, "")):
            out.append(CheckResult(f"{name}[{v}]", not blocker, blocker or witness))
    return out


# -- connectivity ----------------------------------------------------------


def strong_components(graph: MWGraph) -> dict[str, str]:
    """Label each vertex with a representative of its strongly connected
    component (Kosaraju: finishing order forward, then reverse reachability)."""
    finished: list[str] = []
    seen: set[str] = set()
    for root in graph.vertex_order:
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, iter(graph.out_edges(root)))]
        while stack:
            v, outs = stack[-1]
            for e in outs:
                if e.dst not in seen:
                    seen.add(e.dst)
                    stack.append((e.dst, iter(graph.out_edges(e.dst))))
                    break
            else:
                stack.pop()
                finished.append(v)
    preds: dict[str, list[str]] = {v: [] for v in graph.vertex_order}
    for e in graph.edges.values():
        preds[e.dst].append(e.src)
    label: dict[str, str] = {}
    for root in reversed(finished):
        if root in label:
            continue
        label[root] = root
        stack_v = [root]
        while stack_v:
            for u in preds[stack_v.pop()]:
                if u not in label:
                    label[u] = root
                    stack_v.append(u)
    return label


def strongly_connected(graph: MWGraph) -> bool:
    """True when every ordered vertex pair is joined by a directed walk."""
    return len(set(strong_components(graph).values())) <= 1


# -- walk enumeration -------------------------------------------------------


def walk_prefix_tree(
    graph: MWGraph,
    start: str,
    should_stop: Callable[[float, str], bool],
    cap: int = PATH_CAP,
) -> Iterator[tuple[str, Path, Similarity, float, str]]:
    """Depth-first traversal of the stopping tree rooted at ``start``.

    Yields ``(kind, path, map, ratio, terminal_vertex)`` where ``kind`` is
    ``"leaf"`` for the first prefix at which ``should_stop(ratio, vertex)``
    holds and ``"interior"`` for every proper ancestor of a leaf.  The set
    of leaves is prefix-free by construction, and because every ratio is
    strictly below one, each branch terminates whenever ``should_stop``
    eventually accepts small ratios.
    """
    if start not in graph.vertices:
        raise ValidationError(f"unknown vertex {start!r}")
    emitted = 0
    stack: list[tuple[Path, Similarity, float, str]] = [
        (Path(start), Similarity.identity(graph.dimension), 1.0, start)
    ]
    while stack:
        path, sim, ratio, vertex = stack.pop()
        emitted += 1
        if emitted > cap:
            raise ResourceLimitError(
                f"walk enumeration exceeded the cap of {cap} nodes"
            )
        if should_stop(ratio, vertex):
            yield "leaf", path, sim, ratio, vertex
            continue
        yield "interior", path, sim, ratio, vertex
        # reversed keeps emission in declaration order for a LIFO stack
        for e in reversed(graph.out_edges(vertex)):
            stack.append((path.child(e.id), sim.compose(e.map), ratio * e.ratio, e.dst))


# -- cycles ------------------------------------------------------------------


def _canonical_rotation(edge_ids: tuple[str, ...]) -> tuple[str, ...]:
    rotations = [
        edge_ids[k:] + edge_ids[:k] for k in range(len(edge_ids))
    ]
    return min(rotations)


def simple_cycles(graph: MWGraph) -> list[Path]:
    """All directed cycles whose initial vertices are pairwise distinct.

    Parallel edges count as distinct cycles.  Each rotation class is
    returned once, anchored at its lexicographically smallest edge-id
    rotation, and the result is sorted by (length, edge ids) for
    determinism.
    """
    found: dict[tuple[str, ...], Path] = {}

    def extend(origin: str, vertex: str, used: set[str], walk: list[str]) -> None:
        for e in graph.out_edges(vertex):
            if e.dst == origin:
                ids = _canonical_rotation(tuple(walk + [e.id]))
                if ids not in found:
                    found[ids] = Path(graph.edges[ids[0]].src, ids)
            elif e.dst not in used:
                used.add(e.dst)
                walk.append(e.id)
                extend(origin, e.dst, used, walk)
                walk.pop()
                used.remove(e.dst)

    for v in graph.vertex_order:
        extend(v, v, {v}, [])
    return sorted(found.values(), key=lambda p: (len(p.edges), p.edges))
