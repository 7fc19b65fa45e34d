"""Per-element reference implementation of covering sets and cell counts.

This is the straightforward path the package's array kernel replaces: a
depth-first prefix-tree walk that composes one ``Similarity`` per node, and
a per-shape loop that charges each covering element's cells to a Python
set.  It shares no counting logic with ``gdcover.covering`` and is kept
only as a differential oracle for the kernel.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from gdcover.covering import GeometrySet, SetElement
from gdcover.errors import ResourceLimitError
from gdcover.geometry import Box, OrientedBox, PointShape, SegmentShape
from gdcover.graph import PATH_CAP, walk_prefix_tree

ETA = 1e-9
CELL_CAP = 10**7


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


def generate(graph, vertex, r, include_condensation=True, cap=PATH_CAP):
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
        elif include_condensation:
            for prim in graph.condensation[terminal]:
                elements.append(SetElement("condensation", prim.image(sim), path))
    return GeometrySet(vertex, r, tuple(elements))


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
    if isinstance(sets, GeometrySet):
        sets = {sets.vertex: sets}
    per = []
    union = set()
    for v in sets:
        cells = cell_union(sets[v], r, grid_origin=grid_origin, tight=tight, cap=cap)
        per.append(len(cells))
        union |= cells
    return tuple(per), len(union)
