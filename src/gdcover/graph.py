"""Directed multigraphs of contractive similarities between seed boxes.

A system is a finite directed multigraph whose vertices carry compact seed
boxes in a common R^d and whose edges carry contractive similarities mapping
the target vertex's box into the source vertex's box.  Vertices may also
carry condensation shapes that get copied into every cylinder when the
attractor is expanded.

Finite edge walks are the combinatorial backbone of everything else:
cylinder covers come from ratio-stopped antichains and the stationary
measure from weighted random walks.  Simple-cycle enumeration, whose output
grows exponentially with the graph, has no runtime caller: the lattice
classifier works from a spanning tree instead.
"""
from __future__ import annotations

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
    "strong_components",
    "strongly_connected",
    "sample_path",
    "common_prefix",
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

    def prefix(self, n: int) -> "Path":
        return Path(self.start, self.edges[:n])

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

    def path_terminal(self, path: Path) -> str:
        return self.edges[path.edges[-1]].dst if path.edges else path.start

    def path_ratio(self, path: Path) -> float:
        r = 1.0
        for eid in path.edges:
            r *= self.edges[eid].ratio
        return r

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


def validate(graph: MWGraph) -> ValidationReport:
    """Check every structural invariant and report pass/fail per check.

    Failures are fatal for downstream use; callers that need a hard stop can
    use :meth:`ValidationReport.raise_if_failed`.
    """
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
            ok = not graph.vertices[v1].interior_intersects(graph.vertices[v2])
            rep.add(
                f"disjoint-interiors[{v1},{v2}]",
                ok,
                "" if ok else "seed boxes overlap on an open set",
            )

    rng = np.random.default_rng(0)
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
        defect = sim.orthogonality_defect()
        rep.add(
            f"isometry-orthogonal[{e.id}]",
            defect <= ORTHOGONALITY_TOL,
            f"defect={defect:.3e}",
        )
        # distance scaling spot check on random point pairs
        pts = rng.standard_normal((4, d))
        imgs = sim.apply(pts)
        worst = 0.0
        for i in range(3):
            base = float(np.linalg.norm(pts[i + 1] - pts[i]))
            got = float(np.linalg.norm(imgs[i + 1] - imgs[i]))
            worst = max(worst, abs(got - sim.ratio * base) / max(base, 1e-300))
        rep.add(
            f"distance-scaling[{e.id}]",
            worst <= 1e-12,
            f"relative defect={worst:.3e}",
        )
        # containment: image of the 2^d corners of the target box
        target = graph.seed_box(e.dst)
        source = graph.seed_box(e.src)
        corners = sim.apply(target.corners())
        inside = all(
            source.contains_point(c, tol=CONTAINMENT_TOL) for c in corners
        )
        rep.add(
            f"containment[{e.id}]",
            inside,
            "" if inside else f"image of {e.dst!r} escapes the box of {e.src!r}",
        )
        if e.ratio_rational is not None:
            q = e.ratio_rational
            ok = 0 < q < 1 and abs(float(q) - sim.ratio) <= 1e-12
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
        ok = graph.seed_box(vid).contains_box(open_box, tol=CONTAINMENT_TOL)
        rep.add(
            f"open-set[{vid}]",
            ok,
            "" if ok else "open set must sit inside the seed box",
        )

    return rep


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


def common_prefix(a: Path, b: Path) -> Path:
    """Longest common prefix of two walks with the same start vertex."""
    if a.start != b.start:
        raise ValueError("walks start at different vertices")
    n = 0
    for x, y in zip(a.edges, b.edges):
        if x != y:
            break
        n += 1
    return Path(a.start, a.edges[:n])


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


# -- stationary sampling ------------------------------------------------------


def sample_path(
    graph: MWGraph,
    spectral,
    stop_ratio: float,
    rng=0,
    start: str | None = None,
) -> Path:
    """Draw a walk from the ratio antichain under the stationary measure.

    The cylinder weight of a walk is ``v[start] * ratio^s0 * u[terminal]``;
    sequentially that means the start vertex is drawn proportionally to
    ``v_i * u_i`` and each step picks edge ``e`` with probability
    ``r_e^s0 * u[dst] / u[src]`` (a proper distribution because ``u`` is the
    right Perron vector).  The walk stops at the first prefix whose ratio
    drops to ``stop_ratio`` or below.
    """
    if not 0 < stop_ratio < 1:
        raise ValueError("stop_ratio must lie in (0, 1)")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    u = np.asarray(spectral.u, dtype=float)
    v = np.asarray(spectral.v, dtype=float)
    s0 = float(spectral.s0)
    if start is None:
        weights = u * v
        weights = weights / weights.sum()
        start = graph.vertex_order[int(gen.choice(len(weights), p=weights))]
    at = start
    ratio = 1.0
    edges: list[str] = []
    while ratio > stop_ratio:
        outs = graph.out_edges(at)
        probs = np.array(
            [e.ratio**s0 * u[graph.vertex_index(e.dst)] for e in outs]
        )
        probs = probs / probs.sum()
        e = outs[int(gen.choice(len(outs), p=probs))]
        edges.append(e.id)
        ratio *= e.ratio
        at = e.dst
    return Path(start, tuple(edges))
