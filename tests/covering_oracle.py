"""Per-element reference implementation of covering sets and cell counts.

This is the straightforward path the package's array kernel replaces: a
depth-first prefix-tree walk that composes one ``Similarity`` per node,
one shape object per covering element (``PointShape``, ``SegmentShape`` or
``OrientedBox``), and a per-shape loop that charges each element's cells to
a Python set.  It shares no code with ``gdcover.covering``, whose covering
elements exist only as arrays, and is kept only as a differential oracle
for the kernel.  ``node_arrays`` reads a kernel walk's fields per node,
through its class table; ``select`` and ``pick`` choose its nodes from them
by the definition, a mask over every node, where the walk takes ranges of
its rank-ordered classes.  ``per_edge_walk`` builds the node arrays the
kernel's walk must equal, every field stored per node, one (vertex, edge)
block at a time, each block gathering its parents anew, and ordered by a
node-level sort, where the kernel counts nodes per class first and writes
each level once.  ``per_node_work`` is the one piece that runs on a kernel
walk with the kernel's helpers: the per-node scan of the walk's work
estimate, which the kernel now reads from counts tallied once per walk.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from gdcover.covering import _WORK, _range_sums
from gdcover.errors import ResourceLimitError
from gdcover.geometry import Box, Similarity
from gdcover.graph import PATH_CAP, Path, walk_prefix_tree

ETA = 1e-9
CELL_CAP = 10**7


@dataclass(frozen=True)
class OrientedBox:
    """Image of an axis-aligned box under a similarity.

    ``half_axes[k]`` is the half-extent vector of the image along what used
    to be coordinate axis ``k``; for an axis-aligned map each of these has a
    single nonzero component.
    """

    center: tuple[float, ...]
    half_axes: tuple[tuple[float, ...], ...]

    @classmethod
    def image_of(cls, sim: Similarity, box: Box) -> "OrientedBox":
        center = sim.apply(np.array(box.center))
        axes = []
        for k, w in enumerate(box.widths):
            e = np.zeros(box.dim)
            e[k] = w / 2
            axes.append(tuple(sim.ratio * (sim.isometry @ e)))
        return cls(tuple(center), tuple(axes))

    @property
    def dim(self) -> int:
        return len(self.center)

    def bounding_box(self) -> Box:
        half = np.sum(np.abs(np.array(self.half_axes)), axis=0)
        c = np.array(self.center)
        return Box(tuple(c - half), tuple(c + half))

    def is_axis_aligned(self, tol: float = 1e-12) -> bool:
        return all(
            sum(1 for x in axis if abs(x) > tol) <= 1 for axis in self.half_axes
        )


@dataclass(frozen=True)
class PointShape:
    """A single point."""

    point: tuple[float, ...]


@dataclass(frozen=True)
class SegmentShape:
    """A closed line segment between two points."""

    a: tuple[float, ...]
    b: tuple[float, ...]


def image(prim, sim: Similarity):
    """A condensation primitive's image under a similarity, as one shape."""
    if prim.kind == "point":
        return PointShape(tuple(sim.apply(np.array(prim.points[0]))))
    if prim.kind == "segment":
        a, b = prim.points
        return SegmentShape(tuple(sim.apply(np.array(a))), tuple(sim.apply(np.array(b))))
    return OrientedBox.image_of(sim, prim.as_box())


@dataclass(frozen=True)
class SetElement:
    """One covering element with the path that produced it."""

    kind: str  # "cylinder" or "condensation"
    shape: object
    path: Path


@dataclass(frozen=True)
class ElementSet:
    """Resolution-r covering of one vertex as an explicit element tuple."""

    vertex: str
    resolution: float
    elements: tuple[SetElement, ...]

    @property
    def n_elements(self) -> int:
        return len(self.elements)

    def cylinders(self) -> tuple[SetElement, ...]:
        return tuple(e for e in self.elements if e.kind == "cylinder")

    def condensation_images(self) -> tuple[SetElement, ...]:
        return tuple(e for e in self.elements if e.kind == "condensation")


def interval_cell_range(a, b, r, origin=0.0):
    if b < a:
        a, b = b, a
    lo = int(math.floor((a - origin) / r + ETA))
    hi = int(math.ceil((b - origin) / r - ETA)) - 1
    return lo, max(lo, hi)


def _point_cells_array(pts, r, origin):
    return np.floor((pts - origin) / r + ETA).astype(np.int64)


def _origin_vector(grid_origin, dim):
    if grid_origin is None:
        return np.zeros(dim)
    arr = np.asarray(grid_origin, dtype=float)
    if arr.ndim == 0:
        return np.full(dim, float(arr))
    return arr


def _box_cells(box, r, origin, out, cap):
    ranges = [interval_cell_range(a, b, r, o) for a, b, o in zip(box.lo, box.hi, origin)]
    n = 1
    for lo, hi in ranges:
        n *= hi - lo + 1
    if n > cap or len(out) + n > cap:
        raise ResourceLimitError(f"cell enumeration exceeds cap {cap}")
    out.update(itertools.product(*(range(lo, hi + 1) for lo, hi in ranges)))


def _segment_cells(a, b, r, origin, out, cap):
    p = np.asarray(a, dtype=float)
    q = np.asarray(b, dtype=float)
    delta = q - p
    if not delta.any():
        out.add(tuple(_point_cells_array(p, r, origin).tolist()))
        return
    ts = [np.array([0.0, 1.0])]
    for j in range(p.size):
        if delta[j] == 0.0:
            continue
        lo, hi = (p[j], q[j]) if p[j] < q[j] else (q[j], p[j])
        m0 = math.floor((lo - origin[j]) / r) + 1
        m1 = math.ceil((hi - origin[j]) / r) - 1
        if m1 < m0:
            continue
        if m1 - m0 + 1 > cap:
            raise ResourceLimitError(f"cell enumeration exceeds cap {cap}")
        planes = origin[j] + np.arange(m0, m1 + 1) * r
        ts.append((planes - p[j]) / delta[j])
    t = np.unique(np.clip(np.concatenate(ts), 0.0, 1.0))
    mids = p + (0.5 * (t[:-1] + t[1:]))[:, None] * delta
    samples = np.vstack([p[None, :], q[None, :], mids])
    cells = _point_cells_array(samples, r, origin)
    if len(out) + cells.shape[0] > cap:
        raise ResourceLimitError(f"cell enumeration exceeds cap {cap}")
    out.update(map(tuple, cells.tolist()))


def _obb_cells_tight(obb, r, origin, out, cap):
    bb = obb.bounding_box()
    ranges = [interval_cell_range(a, b, r, o) for a, b, o in zip(bb.lo, bb.hi, origin)]
    center = np.array(obb.center)
    half = np.array(obb.half_axes)
    axes = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    for row in half:
        norm = math.hypot(*row)
        if norm > 0:
            axes.append(row / norm)
    tol = ETA * r
    cand = 0
    for i in range(ranges[0][0], ranges[0][1] + 1):
        for j in range(ranges[1][0], ranges[1][1] + 1):
            cand += 1
            if cand > cap or len(out) >= cap:
                raise ResourceLimitError(f"cell enumeration exceeds cap {cap}")
            c_cell = origin + (np.array([i, j]) + 0.5) * r
            sep = False
            for ax in axes:
                d = abs(float((center - c_cell) @ ax))
                ext_cell = 0.5 * r * (abs(ax[0]) + abs(ax[1]))
                ext_obb = float(np.abs(half @ ax).sum())
                if d >= ext_cell + ext_obb - tol:
                    sep = True
                    break
            if not sep:
                out.add((i, j))


def _shape_cells(shape, r, origin, tight, out, cap):
    if isinstance(shape, PointShape):
        out.add(tuple(_point_cells_array(np.array(shape.point), r, origin).tolist()))
    elif isinstance(shape, SegmentShape):
        _segment_cells(shape.a, shape.b, r, origin, out, cap)
    elif isinstance(shape, OrientedBox):
        if shape.is_axis_aligned() or not tight:
            _box_cells(shape.bounding_box(), r, origin, out, cap)
        else:
            _obb_cells_tight(shape, r, origin, out, cap)
    elif isinstance(shape, Box):
        _box_cells(shape, r, origin, out, cap)
    else:
        raise TypeError(f"unsupported shape {type(shape).__name__}")


def generate(graph, vertex, r, cap=PATH_CAP):
    """Covering elements in depth-first order, one composed map per node."""
    if r <= 0:
        raise ValueError("resolution must be positive")

    def stop(ratio, v):
        return ratio * graph.seed_box(v).diameter <= r

    elements = []
    for kind, path, sim, _ratio, terminal in walk_prefix_tree(graph, vertex, stop, cap=cap):
        if kind == "leaf":
            shape = OrientedBox.image_of(sim, graph.seed_box(terminal))
            elements.append(SetElement("cylinder", shape, path))
        else:
            for prim in graph.condensation[terminal]:
                elements.append(SetElement("condensation", image(prim, sim), path))
    return ElementSet(vertex, r, tuple(elements))


def cell_union(gset, r=None, *, grid_origin=None, tight=None, cap=CELL_CAP):
    """Set of (i, j, ...) cells met by the covering elements."""
    if r is None:
        r = gset.resolution
    elements = gset.elements
    if not elements:
        return set()
    shape = elements[0].shape
    if isinstance(shape, PointShape):
        dim = len(shape.point)
    elif isinstance(shape, SegmentShape):
        dim = len(shape.a)
    else:
        dim = shape.dim
    origin = _origin_vector(grid_origin, dim)
    eff_tight = dim <= 2 if tight is None else bool(tight)
    cells = set()
    for e in elements:
        _shape_cells(e.shape, r, origin, eff_tight, cells, cap)
        if len(cells) > cap:
            raise ResourceLimitError(f"cell union exceeds cap {cap}")
    return cells


def count(sets, r, grid_origin=None, *, tight=None, cap=CELL_CAP):
    """``(per_vertex, total)`` with the total deduplicated across vertices."""
    if isinstance(sets, ElementSet):
        sets = {sets.vertex: sets}
    per = []
    union = set()
    for v in sets:
        cells = cell_union(sets[v], r, grid_origin=grid_origin, tight=tight, cap=cap)
        per.append(len(cells))
        union |= cells
    return tuple(per), len(union)


def select(walk, r):
    """Leaf and interior masks over every node of a ``gdcover.covering._Walk``
    at radius r: the radius-r walk visits the nodes with ``above > r``, and
    its leaves are those with ``size <= r``."""
    nodes = node_arrays(walk)
    visited = nodes["above"] > r
    leaf = visited & (nodes["size"] <= r)
    return leaf, visited & ~leaf


def pick(walk, v, mask):
    """The nodes ending at vertex index v that a ``select`` mask chooses."""
    return np.flatnonzero(mask & (node_arrays(walk)["term"] == v))


def per_edge_walk(graph, vertex, r_min):
    """The level-by-level array walk built one (vertex, edge) block at a time,
    each block gathering its parents anew: a ``gdcover.covering._Walk``'s
    node arrays (ratio, iso, trans, term, above, size), sorted as it sorts
    them, its isometries, in the order of first use, and the root's
    position."""
    order = graph.vertex_order
    dim = graph.dimension
    diam = np.array([graph.seed_box(v).diameter for v in order])
    out = [graph.out_edges(v) for v in order]
    dst = {eid: order.index(e.dst) for eid, e in graph.edges.items()}
    isos = [np.eye(dim)]
    slots = {isos[0].tobytes(): 0}

    def step(iso, edge):
        q = isos[iso] @ edge.map.isometry
        slot = slots.setdefault(q.tobytes(), len(isos))
        if slot == len(isos):
            isos.append(q)
        return slot, isos[iso] @ edge.map.translation

    def children(level, sel, edge):
        ratio = level["ratio"][sel]
        uniq, inv = np.unique(level["iso"][sel], return_inverse=True)
        steps = [step(int(i), edge) for i in uniq]
        qb = np.array([s[1] for s in steps])[inv]
        child = {
            "ratio": ratio * edge.ratio,
            "iso": np.array([s[0] for s in steps])[inv],
            "trans": ratio[:, None] * qb + level["trans"][sel],
            "term": np.full(sel.size, dst[edge.id]),
            "above": np.minimum(level["above"][sel], level["size"][sel]),
        }
        child["size"] = child["ratio"] * diam[dst[edge.id]]
        return child

    level = {
        "ratio": np.array([1.0]),
        "iso": np.array([0]),
        "trans": np.zeros((1, dim)),
        "term": np.array([order.index(vertex)]),
        "above": np.array([np.inf]),
    }
    level["size"] = level["ratio"] * diam[level["term"]]
    levels = [level]
    while True:
        grow = np.flatnonzero(level["size"] > r_min)
        blocks = [
            (sel, e)
            for v, edges in enumerate(out)
            for sel in [grow[level["term"][grow] == v]]
            if sel.size
            for e in edges
        ]
        if not blocks:
            break
        parts = [children(level, sel, e) for sel, e in blocks]
        level = {key: np.concatenate([p[key] for p in parts]) for key in parts[0]}
        levels.append(level)
    levels.reverse()
    nodes = {key: np.concatenate([lv[key] for lv in levels]) for key in level}
    by_size = np.lexsort((nodes["size"], nodes["term"]))
    root = int(np.flatnonzero(by_size == by_size.size - 1)[0])
    return {key: a[by_size] for key, a in nodes.items()}, isos, root


def node_arrays(walk):
    """A ``gdcover.covering._Walk``'s fields per node, the class fields read
    through each node's class id: ratio, iso, trans, term, above, size."""
    c = walk.cls
    return {
        "ratio": walk.c_ratio[c],
        "iso": walk.c_iso[c],
        "trans": walk.trans,
        "term": walk.c_term[c],
        "above": walk.above,
        "size": walk.c_size[c],
    }


def node_cost(walk, v, inner, cls, r, axis):
    """``_Walk._cost`` of interior nodes of classes ``cls``; a leaf is charged one."""
    return walk._cost(v, cls, r, axis) if inner else np.ones(cls.size)


def per_node_work(walk, radii, axis):
    """``gdcover.covering._Walk.work`` by a scan of every selected node for
    each array of radii, the kernel's path before it tallied nodes once per
    walk: ``_cost`` summed over the (node, radius) pairs of each radius;
    where no node's cost in a block depends on its radius, by ranges of
    radii, else ``_WORK`` pairs at a time."""
    g = len(radii)
    out = np.zeros(g)
    for v, inner, a, lo, hi in walk._blocks(radii):
        cls = walk.cls[a : a + lo.size]
        most = node_cost(walk, v, inner, cls, radii[0], axis)
        if (most == node_cost(walk, v, inner, cls, math.inf, axis)).all():
            out += _range_sums(lo, hi, most, g)
            continue
        ends = np.cumsum(hi - lo)
        for p0 in range(0, int(ends[-1]), _WORK):
            p = np.arange(p0, min(p0 + _WORK, int(ends[-1])))
            k = np.searchsorted(ends, p, side="right")
            j = p - ends[k] + hi[k]  # the radius of pair p
            out += np.bincount(j, node_cost(walk, v, inner, cls[k], radii[j], axis), g)
    return out


def _per_box_sat_axes(half, r, exact):
    """Unit box axes and reaches of each box from its own half axes: the
    array kernel's per-box separating-axis step before it kept the constants
    per class.  ``exact`` uses the scalar test's arithmetic (``math.hypot``
    and numpy's matrix products), the arithmetic of the kernel's per-class
    constants; otherwise plain elementwise numpy, which can differ from it in
    the last bits, so this reference tests in that fast arithmetic first and
    retests its unsure candidates exactly."""
    if exact:
        norms = np.array([[math.hypot(*row) for row in h] for h in half.tolist()])
        norms = norms.reshape(half.shape[:2])
    else:
        norms = np.hypot(half[..., 0], half[..., 1])
    live = norms > 0
    units = half / np.where(live, norms, 1.0)[..., None]
    reach = []
    for k in range(2):
        u = units[:, k, :]
        if exact:
            proj = np.abs(np.matmul(half, u[:, :, None])[:, :, 0])
        else:
            proj = np.abs(half[:, :, 0] * u[:, None, 0] + half[:, :, 1] * u[:, None, 1])
        cell = 0.5 * r * (np.abs(u[:, 0]) + np.abs(u[:, 1]))
        reach.append(cell + (proj[:, 0] + proj[:, 1]) - ETA * r)
    return live, units, reach


def per_box_obb_hits(center, half, r, origin, rows, owner):
    """Hit mask of the candidate cells ``rows`` (index rows) of the 2-d
    boxes ``owner`` by the per-box separating-axis test: fast arithmetic,
    and a candidate within 1e-12 of the scale retested in the scalar test's
    arithmetic.  ``r`` is one radius or one per box."""
    flat_r = np.asarray(r, dtype=float)
    r_own = flat_r if flat_r.ndim == 0 else flat_r[owner][:, None]
    ext = np.abs(half[:, 0, :]) + np.abs(half[:, 1, :])
    live, units, reach = _per_box_sat_axes(half, flat_r, exact=False)
    size = flat_r + np.abs(half).sum(axis=(1, 2))
    diff = center[owner] - (origin + (rows + 0.5) * r_own)
    grid = np.abs(diff) < 0.5 * r_own + ext[owner] - ETA * r_own
    grid = grid[:, 0] & grid[:, 1]
    hit, unsure = grid.copy(), np.zeros_like(grid)
    margin = 1e-12 * (size[owner] + np.abs(diff[:, 0]) + np.abs(diff[:, 1]))
    for k in range(2):
        u = units[owner, k, :]
        gap = np.abs(diff[:, 0] * u[:, 0] + diff[:, 1] * u[:, 1]) - reach[k][owner]
        on = live[owner, k]
        hit &= ~on | (gap < 0)
        unsure |= on & (np.abs(gap) <= margin)
    redo = np.flatnonzero(grid & unsure)
    if redo.size:
        r_redo = flat_r if flat_r.ndim == 0 else flat_r[owner[redo]]
        live, units, reach = _per_box_sat_axes(half[owner[redo]], r_redo, exact=True)
        again = np.ones(redo.size, dtype=bool)
        for k in range(2):
            d = np.abs(np.matmul(diff[redo][:, None, :], units[:, k, :, None])[:, 0, 0])
            again &= ~live[:, k] | (d < reach[k])
        hit[redo] = again
    return hit, redo.size
