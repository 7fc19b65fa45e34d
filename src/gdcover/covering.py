"""Grid-cell covering counts for attractor approximations.

Counting convention: half-open cells ``[o + m*r, o + (m+1)*r)`` per axis,
anchored at a grid origin (default 0).  A shape is charged to every cell it
meets.  Index arithmetic carries a snap of 1e-9 in index space so that
coordinates landing on a grid line within float noise resolve to the cell
the exact arithmetic would pick; this is what makes ternary-grid counts of
the middle-thirds attractor exact integers.

The covering set for a vertex mixes two element kinds: boxes covering whole
subtrees (images of seed boxes along paths stopped at resolution) and
condensation shapes copied along every shorter path.  Anything finer than
the stopping cutoff already sits inside a covering box, so generation
terminates.

One kernel does all counting.  A vertex's stopping tree is walked once,
level by level as numpy arrays, down to the finest radius a caller needs;
every coarser radius selects its leaves and interior nodes from the same
arrays.  Cells come out as int64 index rows and are deduplicated with a
1-d ``np.unique`` over linearized ids.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError, ValidationError
from .geometry import Box, OrientedBox, PointShape, SegmentShape, Similarity
from .graph import PATH_CAP, MWGraph, Path
from .spectral import SpectralData, solve_s0

__all__ = [
    "SetElement",
    "GeometrySet",
    "generate",
    "CountResult",
    "count",
    "cell_union",
    "ProfileSample",
    "CoveringProfile",
    "profile",
    "profile_at",
    "lattice_grid",
    "condensation_covering",
    "IntegralResult",
    "condensation_integral",
    "child_time",
    "ForcingContext",
    "measure_forcing",
    "l_star",
    "corrected_forcing",
    "f_star",
    "BoundaryDiagnostic",
    "boundary_diagnostic",
]

ETA = 1e-9
CELL_CAP = 10**7

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


# -- cell index arithmetic --------------------------------------------------


def point_cell(x: float, r: float, origin: float = 0.0) -> int:
    return int(math.floor((x - origin) / r + ETA))


def interval_cell_range(a: float, b: float, r: float, origin: float = 0.0) -> tuple[int, int]:
    """Inclusive index range of cells met by the closed interval [a, b]."""
    if b < a:
        a, b = b, a
    lo = int(math.floor((a - origin) / r + ETA))
    hi = int(math.ceil((b - origin) / r - ETA)) - 1
    return lo, max(lo, hi)


def _origin_vector(grid_origin, dim: int) -> np.ndarray:
    if grid_origin is None:
        return np.zeros(dim)
    arr = np.asarray(grid_origin, dtype=float)
    if arr.ndim == 0:
        return np.full(dim, float(arr))
    if arr.shape != (dim,):
        raise ValueError(f"grid origin must be a scalar or a {dim}-vector")
    return arr


# -- array cell enumeration --------------------------------------------------
#
# Cells are (n, d) int64 index rows.  Float expressions repeat the operation
# order of the scalar definitions (Similarity.compose and apply,
# OrientedBox.image_of, interval_cell_range).  Small matrix products go
# through np.matmul with the operand layout of the scalar call, because BLAS
# may fuse multiply-adds where a written-out formula would round twice.  So
# coordinates and cells agree bit for bit with shape-by-shape enumeration.

_CHUNK = 1 << 20  # candidate cells expanded at once; bounds transient memory


def _floor_cells(pts: np.ndarray, r: float, origin: np.ndarray) -> np.ndarray:
    return np.floor((pts - origin) / r + ETA).astype(np.int64)


def _interval_cells(a: np.ndarray, b: np.ndarray, r: float, origin: np.ndarray):
    """Array form of :func:`interval_cell_range`, elementwise."""
    lo = np.floor((np.minimum(a, b) - origin) / r + ETA).astype(np.int64)
    hi = np.ceil((np.maximum(a, b) - origin) / r - ETA).astype(np.int64) - 1
    return lo, np.maximum(lo, hi)


def _sorted_unique(ids: np.ndarray) -> np.ndarray:
    """``np.unique`` of a 1-d array by sort and compare, several times faster
    than the hashing ``np.unique`` of numpy >= 2.3 on millions of ids."""
    ids = np.sort(ids)
    keep = np.empty(ids.size, dtype=bool)
    keep[:1] = True
    np.not_equal(ids[1:], ids[:-1], out=keep[1:])
    return ids[keep]


def _distinct_small(values: np.ndarray):
    """Distinct small nonnegative ints and each value's index among them."""
    present = np.flatnonzero(np.bincount(values))
    slot = np.zeros(present[-1] + 1, dtype=np.int64)
    slot[present] = np.arange(present.size)
    return present, slot[values]


def _row_prod(a: np.ndarray) -> np.ndarray:
    """Product across the (few) columns of a 2-d array."""
    out = a[:, 0].copy()
    for k in range(1, a.shape[1]):
        out *= a[:, k]
    return out


def _unique_rows(rows: np.ndarray) -> np.ndarray:
    """Distinct rows of an int64 index array, via one 1-d unique on linear ids."""
    if rows.shape[0] <= 1:
        return rows
    cols = rows.T
    lo = [int(c.min()) for c in cols]
    span = [int(c.max()) - l + 1 for c, l in zip(cols, lo)]
    if math.prod(span) >= 1 << 62:
        return np.unique(rows, axis=0)
    ids = cols[0] - lo[0]
    for c, l, n in zip(cols[1:], lo[1:], span[1:]):
        ids = ids * n + (c - l)
    ids = _sorted_unique(ids)
    out = np.empty((ids.size, len(span)), dtype=np.int64)
    for k in range(len(span) - 1, -1, -1):
        out[:, k] = ids % span[k] + lo[k]
        ids //= span[k]
    return out


class _CellUnion:
    """Distinct cells accumulated chunk by chunk under a cap."""

    def __init__(self, dim: int, cap: int) -> None:
        self.cap = cap
        self.parts = [np.empty((0, dim), dtype=np.int64)]
        self.fresh = 0

    def add(self, rows: np.ndarray) -> None:
        if rows.shape[0]:
            self.parts.append(rows)
            self.fresh += rows.shape[0]
            if self.fresh > _CHUNK:
                self.rows()

    def rows(self) -> np.ndarray:
        if len(self.parts) > 1:
            self.parts = [_unique_rows(np.concatenate(self.parts))]
            self.fresh = 0
        if self.parts[0].shape[0] > self.cap:
            raise ResourceLimitError(f"cell union exceeds cap {self.cap}")
        return self.parts[0]


def _chunks(sizes: np.ndarray):
    """Slices of consecutive shapes holding about _CHUNK candidate cells each."""
    ends = np.cumsum(sizes)
    start = 0
    while start < sizes.size:
        base = ends[start - 1] if start else 0
        stop = int(np.searchsorted(ends, base + _CHUNK, side="right"))
        stop = max(stop, start + 1)
        yield slice(start, stop)
        start = stop


def _expand(lo: np.ndarray, cnt: np.ndarray):
    """Every index row of each index box, last axis fastest, with its box."""
    n = _row_prod(cnt)
    owner = np.repeat(np.arange(n.size), n)
    local = np.arange(owner.size) - np.repeat(np.cumsum(n) - n, n)
    rows = np.empty((owner.size, lo.shape[1]), dtype=np.int64)
    for k in range(lo.shape[1] - 1, -1, -1):
        c = cnt[owner, k]
        rows[:, k] = lo[owner, k] + local % c
        local //= c
    return rows, owner


def _check_candidates(cnt: np.ndarray, cap: int) -> None:
    if cnt.size and _row_prod(cnt.astype(float)).max() > cap:
        raise ResourceLimitError(f"cell enumeration exceeds cap {cap}")


def _box_cells(lo, hi, r, origin, acc: _CellUnion, cap: int) -> None:
    ilo, ihi = _interval_cells(lo, hi, r, origin)
    cnt = ihi - ilo + 1
    _check_candidates(cnt, cap)
    for sel in _chunks(_row_prod(cnt)):
        acc.add(_expand(ilo[sel], cnt[sel])[0])


def _segment_cells(a, b, r, origin, acc: _CellUnion, cap: int) -> None:
    """Cells of the points where each segment crosses a grid plane.

    Per segment: the parameters of its plane crossings plus 0 and 1, clipped
    and deduplicated, with the endpoints and the midpoint of every gap
    between consecutive parameters as sample points.
    """
    delta = b - a
    flat = ~delta.any(axis=1)
    acc.add(_floor_cells(a[flat], r, origin))
    a, b, delta = a[~flat], b[~flat], delta[~flat]
    m0 = np.floor((np.minimum(a, b) - origin) / r) + 1
    m1 = np.ceil((np.maximum(a, b) - origin) / r) - 1
    cnt = np.where(delta != 0.0, np.maximum(m1 - m0 + 1, 0), 0).astype(np.int64)
    if cnt.size and cnt.max() > cap:
        raise ResourceLimitError(f"cell enumeration exceeds cap {cap}")
    m0 = m0.astype(np.int64)
    for sel in _chunks(cnt.sum(axis=1) + 2):
        p, q, dp, c, first = a[sel], b[sel], delta[sel], cnt[sel], m0[sel]
        n = p.shape[0]
        segs = [np.arange(n), np.arange(n)]
        ts = [np.zeros(n), np.ones(n)]
        for j in range(p.shape[1]):
            owner = np.repeat(np.arange(n), c[:, j])
            step = np.arange(owner.size) - np.repeat(np.cumsum(c[:, j]) - c[:, j], c[:, j])
            planes = origin[j] + (first[owner, j] + step) * r
            segs.append(owner)
            ts.append((planes - p[owner, j]) / dp[owner, j])
        seg = np.concatenate(segs)
        t = np.clip(np.concatenate(ts), 0.0, 1.0)
        order = np.lexsort((t, seg))
        seg, t = seg[order], t[order]
        keep = np.ones(seg.size, dtype=bool)
        keep[1:] = (seg[1:] != seg[:-1]) | (t[1:] != t[:-1])
        seg, t = seg[keep], t[keep]
        gap = seg[1:] == seg[:-1]
        s = seg[:-1][gap]
        mids = p[s] + (0.5 * (t[:-1][gap] + t[1:][gap]))[:, None] * dp[s]
        acc.add(_floor_cells(np.concatenate([p, q, mids]), r, origin))


def _obb_bounds(center: np.ndarray, half: np.ndarray):
    """Bounding boxes of oriented boxes, as OrientedBox.bounding_box."""
    ext = np.abs(half[:, 0, :])
    for k in range(1, half.shape[1]):
        ext = ext + np.abs(half[:, k, :])
    return center - ext, center + ext, ext


def _sat_axes(half: np.ndarray, r: float, exact: bool):
    """Unit box axes of 2-d boxes and the projected extent of box plus cell.

    ``exact`` repeats the scalar test's arithmetic (``math.hypot`` and
    numpy's matrix products); otherwise plain elementwise numpy, which can
    differ from it in the last bits.
    """
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


def _obb_cells_tight(center, half, r, origin, acc: _CellUnion, cap: int) -> None:
    """2-d separating-axis test of each candidate cell against each box.

    A cell is separated from a box along an axis when the distance of their
    centres projected on it reaches the sum of their projected half
    extents, less a 1e-9 r tolerance.  The two grid axes test exactly in
    elementwise arithmetic.  The two box axes are first tested in fast
    arithmetic; a candidate whose margin there is within 1e-12 of the
    scale is retested with the scalar test's exact arithmetic.
    """
    lo, hi, ext = _obb_bounds(center, half)
    ilo, ihi = _interval_cells(lo, hi, r, origin)
    cnt = ihi - ilo + 1
    _check_candidates(cnt, cap)
    live, units, reach = _sat_axes(half, r, exact=False)
    size = r + np.abs(half).sum(axis=(1, 2))
    for sel in _chunks(_row_prod(cnt)):
        rows, owner = _expand(ilo[sel], cnt[sel])
        owner = owner + sel.start
        diff = center[owner] - (origin + (rows + 0.5) * r)
        grid = _grid_axes_hit(diff, ext[owner], r)
        hit = grid.copy()
        unsure = np.zeros_like(grid)
        margin = 1e-12 * (size[owner] + np.abs(diff[:, 0]) + np.abs(diff[:, 1]))
        for k in range(2):
            u = units[owner, k, :]
            gap = np.abs(diff[:, 0] * u[:, 0] + diff[:, 1] * u[:, 1]) - reach[k][owner]
            on = live[owner, k]
            hit &= ~on | (gap < 0)
            unsure |= on & (np.abs(gap) <= margin)
        redo = np.flatnonzero(grid & unsure)
        if redo.size:
            hit[redo] = _sat_exact(diff[redo], half[owner[redo]], r)
        acc.add(rows[hit])


def _grid_axes_hit(diff: np.ndarray, ext: np.ndarray, r: float) -> np.ndarray:
    hit = np.abs(diff) < 0.5 * r + ext - ETA * r
    return hit[:, 0] & hit[:, 1]


def _sat_exact(diff: np.ndarray, half: np.ndarray, r: float) -> np.ndarray:
    """Box-axis part of the separating-axis test, in the scalar arithmetic."""
    live, units, reach = _sat_axes(half, r, exact=True)
    hit = np.ones(diff.shape[0], dtype=bool)
    for k in range(2):
        d = np.abs(np.matmul(diff[:, None, :], units[:, k, :, None])[:, 0, 0])
        hit &= ~live[:, k] | (d < reach[k])
    return hit


def _is_axis_aligned(half: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """OrientedBox.is_axis_aligned for each box."""
    return ((np.abs(half) > tol).sum(axis=2) <= 1).all(axis=1)


@dataclass(frozen=True)
class _Shapes:
    """Covering elements as arrays, grouped by how their cells are found."""

    dim: int
    points: np.ndarray  # (n, d)
    seg_a: np.ndarray  # (n, d) segment endpoints
    seg_b: np.ndarray
    obb_c: np.ndarray  # (n, d) oriented box centres
    obb_h: np.ndarray  # (n, d, d) half axes, one row per box axis

    @classmethod
    def gather(cls, dim, points=(), segments=(), obbs=()) -> "_Shapes":
        def stack(parts, *shape):
            parts = [np.asarray(p, dtype=float).reshape(-1, *shape) for p in parts]
            return np.concatenate(parts) if parts else np.empty((0, *shape))

        return cls(
            dim,
            stack(points, dim),
            stack([s[0] for s in segments], dim),
            stack([s[1] for s in segments], dim),
            stack([o[0] for o in obbs], dim),
            stack([o[1] for o in obbs], dim, dim),
        )

    @classmethod
    def of_elements(cls, elements) -> "_Shapes":
        points, segments, obbs = [], [], []
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
                obbs.append((s.center, s.half_axes))
                dim = s.dim
            else:
                raise TypeError(f"unsupported shape {type(s).__name__}")
        return cls.gather(dim, points, segments, obbs)

    def cells(self, r: float, origin: np.ndarray, tight: bool, cap: int) -> np.ndarray:
        """Distinct cells met by the union of the shapes, as index rows."""
        acc = _CellUnion(self.dim, cap)
        acc.add(_floor_cells(self.points, r, origin))
        _segment_cells(self.seg_a, self.seg_b, r, origin, acc, cap)
        plain = _is_axis_aligned(self.obb_h) | (not tight)
        lo, hi, _ = _obb_bounds(self.obb_c[plain], self.obb_h[plain])
        _box_cells(lo, hi, r, origin, acc, cap)
        if not plain.all():
            _obb_cells_tight(self.obb_c[~plain], self.obb_h[~plain], r, origin, acc, cap)
        return acc.rows()


# -- the multi-resolution walk -----------------------------------------------


class _Walk:
    """Stopping tree of one vertex down to radius ``r_min``, stored as arrays.

    Built level by level; node k holds its ratio, isometry (an index into
    ``isos``), translation, terminal vertex, the stopping size
    ``ratio * diam(terminal)`` and ``above``, the smallest size among its
    proper ancestors (infinite at the root).  The radius-r walk, for any
    r >= r_min, visits exactly the nodes with ``above > r``: those with
    ``size <= r`` are its leaves (cylinders), the others its interior nodes
    (condensation copies).  Maps compose as Similarity.compose does, so
    every node's map equals the one the depth-first walk would build.
    """

    def __init__(self, graph: MWGraph, vertex: str, r_min: float, cap: int = PATH_CAP) -> None:
        if vertex not in graph.vertices:
            raise ValidationError(f"unknown vertex {vertex!r}")
        self.graph = graph
        self.vertex = vertex
        self.r_min = r_min
        order = graph.vertex_order
        dim = graph.dimension
        self.diam = np.array([graph.seed_box(v).diameter for v in order])
        self.edge_ids = tuple(graph.edges)
        slot = {eid: k for k, eid in enumerate(self.edge_ids)}
        out = [[(slot[e.id], e) for e in graph.out_edges(v)] for v in order]
        dst = {eid: order.index(e.dst) for eid, e in graph.edges.items()}
        self.isos = [np.eye(dim)]
        self._iso_slot = {self.isos[0].tobytes(): 0}
        self._steps: dict[tuple[int, int], tuple[int, np.ndarray]] = {}

        level = {
            "parent": np.array([-1]),
            "edge": np.array([-1]),
            "ratio": np.array([1.0]),
            "iso": np.array([0]),
            "trans": np.zeros((1, dim)),
            "term": np.array([order.index(vertex)]),
            "above": np.array([np.inf]),
        }
        level["size"] = level["ratio"] * self.diam[level["term"]]
        levels = [level]
        start, total = 0, 1
        if total > cap:
            raise ResourceLimitError(f"walk enumeration exceeded the cap of {cap} nodes")
        while True:
            grow = np.flatnonzero(level["size"] > r_min)
            blocks = [
                (sel, k, e)
                for v, edges in enumerate(out)
                for sel in [grow[level["term"][grow] == v]]
                if sel.size
                for k, e in edges
            ]
            n_new = sum(sel.size for sel, _k, _e in blocks)
            if not n_new:
                break
            if total + n_new > cap:
                raise ResourceLimitError(f"walk enumeration exceeded the cap of {cap} nodes")
            parts = [self._children(level, start, sel, k, e, dst[e.id]) for sel, k, e in blocks]
            level = {key: np.concatenate([p[key] for p in parts]) for key in parts[0]}
            levels.append(level)
            start, total = total, total + n_new
        for key in levels[0]:
            setattr(self, key, np.concatenate([lv[key] for lv in levels]))
        self.n = total
        self._perm = [self._signed_permutation(q) for q in self.isos]
        self._iso_stack = np.array(self.isos)
        # nodes by terminal vertex, and each node's rank among them
        self._at = [np.flatnonzero(self.term == v) for v in range(len(order))]
        self._rank = np.empty(total, dtype=np.int64)
        for nodes in self._at:
            self._rank[nodes] = np.arange(nodes.size)
        self._images: dict[tuple, np.ndarray] = {}
        self._kids = None

    def _children(self, level, start, sel, k, edge, dst) -> dict:
        ratio = level["ratio"][sel]
        uniq, inv = _distinct_small(level["iso"][sel])
        steps = [self._step(int(i), k, edge) for i in uniq]
        qb = np.array([s[1] for s in steps])[inv]
        child = {
            "parent": start + sel,
            "edge": np.full(sel.size, k),
            "ratio": ratio * edge.ratio,
            "iso": np.array([s[0] for s in steps])[inv],
            "trans": ratio[:, None] * qb + level["trans"][sel],
            "term": np.full(sel.size, dst),
            "above": np.minimum(level["above"][sel], level["size"][sel]),
        }
        child["size"] = child["ratio"] * self.diam[dst]
        return child

    def _step(self, iso: int, k: int, edge) -> tuple[int, np.ndarray]:
        """Isometry of parent-iso-then-edge, and the parent's Q applied to b_e."""
        hit = self._steps.get((iso, k))
        if hit is None:
            q = self.isos[iso] @ edge.map.isometry
            slot = self._iso_slot.setdefault(q.tobytes(), len(self.isos))
            if slot == len(self.isos):
                self.isos.append(q)
            hit = (slot, self.isos[iso] @ edge.map.translation)
            self._steps[(iso, k)] = hit
        return hit

    @staticmethod
    def _signed_permutation(q: np.ndarray):
        """(column, sign) per row when q is exactly a signed permutation."""
        if not (np.isin(q, (-1.0, 0.0, 1.0)).all() and ((q != 0).sum(axis=1) == 1).all()):
            return None
        col = np.abs(q).argmax(axis=1)
        return col, q[np.arange(q.shape[0]), col]

    # -- images of fixed shapes under every selected node's map ----------

    def _apply(self, nodes: np.ndarray, pt) -> np.ndarray:
        """``Similarity.apply(pt)`` per node: ``((ratio * pt) @ Q.T) + b``."""
        x = self.ratio[nodes][:, None] * np.asarray(pt, dtype=float)
        iso = self.iso[nodes]
        out = np.empty_like(x)
        for k in _distinct_small(iso)[0] if iso.size else ():
            m = iso == k
            perm = self._perm[k]
            if perm is not None:  # products with 0 and +-1 are exact
                out[m] = x[m][:, perm[0]] * perm[1]
            else:
                out[m] = np.matmul(x[m][:, None, :], self.isos[k].T)[:, 0, :]
        return out + self.trans[nodes]

    def _image(self, v: int, pt, nodes: np.ndarray) -> np.ndarray:
        """``_apply`` for nodes ending at vertex v; computed once for every
        such node, then shared by all radii."""
        key = (v, tuple(pt))
        full = self._images.get(key)
        if full is None:
            full = self._images[key] = self._apply(self._at[v], pt)
        return full[self._rank[nodes]]

    def _box_image(self, v: int, box: Box, nodes: np.ndarray):
        """``OrientedBox.image_of`` per node: centres and half axes."""
        centre = self._image(v, box.center, nodes)
        q = self._iso_stack[self.iso[nodes]]
        ratio = self.ratio[nodes][:, None]
        half = np.empty((nodes.size, box.dim, box.dim))
        for k, w in enumerate(box.widths):
            half[:, k, :] = ratio * (q[:, :, k] * (w / 2))
        return centre, half

    def _select(self, r: float):
        visited = self.above > r
        leaf = visited & (self.size <= r)
        return leaf, visited & ~leaf

    def shapes(self, r: float, include_condensation: bool = True) -> _Shapes:
        """Covering elements of the radius-r walk as arrays."""
        graph = self.graph
        leaf, inner = self._select(r)
        points, segments, obbs = [], [], []
        for v, name in enumerate(graph.vertex_order):
            at_v = self._at[v]
            nodes = at_v[leaf[at_v]]
            if nodes.size:
                obbs.append(self._box_image(v, graph.seed_box(name), nodes))
            if not (include_condensation and graph.condensation[name]):
                continue
            nodes = at_v[inner[at_v]]
            for prim in graph.condensation[name]:
                if prim.kind == "point":
                    points.append(self._image(v, prim.points[0], nodes))
                elif prim.kind == "segment":
                    segments.append(tuple(self._image(v, p, nodes) for p in prim.points))
                else:
                    obbs.append(self._box_image(v, prim.as_box(), nodes))
        return _Shapes.gather(graph.dimension, points, segments, obbs)

    def n_elements(self, r: float, include_condensation: bool = True) -> int:
        leaf, inner = self._select(r)
        n = int(leaf.sum())
        if include_condensation:
            per_vertex = np.array([len(self.graph.condensation[v]) for v in self.graph.vertex_order])
            n += int(per_vertex[self.term[inner]].sum())
        return n

    def elements(self, r: float, include_condensation: bool = True) -> tuple:
        """Covering elements of the radius-r walk in depth-first path order."""
        graph = self.graph
        if self._kids is None:
            kids = np.argsort(self.parent[1:], kind="stable") + 1
            bounds = np.searchsorted(self.parent[kids], np.arange(self.n + 1))
            self._kids = (kids, bounds)
        kids, bounds = self._kids
        out = []
        stack = [(0, Path(self.vertex))]
        while stack:
            k, path = stack.pop()
            sim = Similarity(self.ratio[k], self.isos[self.iso[k]], self.trans[k])
            terminal = graph.vertex_order[self.term[k]]
            if self.size[k] <= r:
                shape = OrientedBox.image_of(sim, graph.seed_box(terminal))
                out.append(SetElement("cylinder", shape, path))
                continue
            if include_condensation:
                for prim in graph.condensation[terminal]:
                    out.append(SetElement("condensation", prim.image(sim), path))
            for c in kids[bounds[k]:bounds[k + 1]][::-1]:
                stack.append((int(c), path.child(self.edge_ids[self.edge[c]])))
        return tuple(out)


# -- geometry sets -----------------------------------------------------------


@dataclass(frozen=True)
class SetElement:
    """One covering element with the path that produced it."""

    kind: str  # "cylinder" or "condensation"
    shape: object
    path: Path


class GeometrySet:
    """Resolution-r covering of one vertex's attractor.

    ``generate`` returns a view over the vertex's array walk; ``elements``
    is materialized, in depth-first path order, only when it is read.  A
    set can also be built from an explicit tuple of elements.
    """

    def __init__(
        self,
        vertex: str,
        resolution: float,
        elements: tuple[SetElement, ...] | None = None,
        *,
        walk: _Walk | None = None,
        include_condensation: bool = True,
    ) -> None:
        self.vertex = vertex
        self.resolution = resolution
        self._elements = None if walk is not None else tuple(elements or ())
        self._walk = walk
        self._include_condensation = include_condensation

    @property
    def elements(self) -> tuple[SetElement, ...]:
        if self._elements is None:
            self._elements = self._walk.elements(self.resolution, self._include_condensation)
        return self._elements

    @property
    def n_elements(self) -> int:
        if self._elements is None:
            return self._walk.n_elements(self.resolution, self._include_condensation)
        return len(self._elements)

    def cylinders(self) -> tuple[SetElement, ...]:
        return tuple(e for e in self.elements if e.kind == "cylinder")

    def condensation_images(self) -> tuple[SetElement, ...]:
        return tuple(e for e in self.elements if e.kind == "condensation")

    def _shapes(self) -> _Shapes:
        if self._elements is None:
            return self._walk.shapes(self.resolution, self._include_condensation)
        return _Shapes.of_elements(self._elements)


def generate(
    graph: MWGraph,
    vertex: str,
    r: float,
    include_condensation: bool = True,
    cap: int = PATH_CAP,
) -> GeometrySet:
    """Covering elements for one vertex at resolution r.

    Cylinder boxes come from paths stopped the first time the image of the
    terminal seed box has diameter at most r.  Condensation shapes are
    copied along every shorter path (the stopped path's own shapes and all
    finer ones sit inside its cylinder box).
    """
    if r <= 0:
        raise ValueError("resolution must be positive")
    walk = _Walk(graph, vertex, r, cap)
    return GeometrySet(vertex, r, walk=walk, include_condensation=include_condensation)


# -- counting ----------------------------------------------------------------


def _effective_tight(tight: bool | None, dim: int) -> bool:
    if tight is None:
        return dim <= 2
    if tight and dim > 2:
        raise ValueError("tight counting is implemented only for dimension <= 2")
    return bool(tight)


def _set_cells(gset: GeometrySet, r, grid_origin, tight, cap) -> np.ndarray | None:
    """Index rows of the cells met by a set; None for an empty set."""
    if r is None:
        r = gset.resolution
    if not gset.n_elements:
        return None
    if r < gset.resolution * (1 - 1e-12):
        raise ValueError("counting below the generation resolution is not meaningful")
    shapes = gset._shapes()
    origin = _origin_vector(grid_origin, shapes.dim)
    return shapes.cells(r, origin, _effective_tight(tight, shapes.dim), cap)


def cell_union(
    gset: GeometrySet,
    r: float | None = None,
    *,
    grid_origin=None,
    tight: bool | None = None,
    cap: int = CELL_CAP,
) -> set:
    """Set of grid cells met by the union of the covering elements."""
    rows = _set_cells(gset, r, grid_origin, tight, cap)
    return set() if rows is None else set(map(tuple, rows.tolist()))


@dataclass(frozen=True)
class CountResult:
    vertex_order: tuple[str, ...]
    per_vertex: tuple[int, ...]
    total: int

    def count(self, vertex: str) -> int:
        return self.per_vertex[self.vertex_order.index(vertex)]


def _count_rows(order, rows: list, cap: int) -> CountResult:
    """Per-vertex counts and the deduplicated total from per-vertex cells."""
    per = tuple(0 if c is None else c.shape[0] for c in rows)
    live = [c for c in rows if c is not None and c.shape[0]]
    total = _unique_rows(np.concatenate(live)).shape[0] if len(live) > 1 else sum(per)
    if total > cap:
        raise ResourceLimitError(f"cell union exceeds cap {cap}")
    return CountResult(tuple(order), per, total)


def count(
    sets,
    r: float | None = None,
    grid_origin=None,
    *,
    tight: bool | None = None,
    cap: int = CELL_CAP,
) -> CountResult:
    """Per-vertex and total cell counts for one or several covering sets.

    The total deduplicates cells shared between vertices, so it equals the
    count of the union attractor on the common grid.
    """
    if isinstance(sets, GeometrySet):
        sets = {sets.vertex: sets}
    rows = [_set_cells(sets[v], r, grid_origin, tight, cap) for v in sets]
    return _count_rows(sets, rows, cap)


# -- profiles ----------------------------------------------------------------


@dataclass(frozen=True)
class ProfileSample:
    t: float
    r: float
    counts: tuple[int, ...]
    total: int
    ratios: tuple[float, ...]
    ratio_total: float
    n: int | None = None
    y: float | None = None


@dataclass(frozen=True)
class CoveringProfile:
    vertex_order: tuple[str, ...]
    s0: float
    grid_origin: tuple[float, ...]
    samples: tuple[ProfileSample, ...]
    counting_mode: str = "grid"

    def t_values(self) -> np.ndarray:
        return np.array([s.t for s in self.samples])

    def totals(self) -> np.ndarray:
        return np.array([s.total for s in self.samples])

    def ratio_matrix(self) -> np.ndarray:
        """One row per sample, one column per vertex."""
        return np.array([s.ratios for s in self.samples])

    def total_ratios(self) -> np.ndarray:
        return np.array([s.ratio_total for s in self.samples])

    def count_matrix(self) -> np.ndarray:
        return np.array([s.counts for s in self.samples])


def profile_at(
    graph: MWGraph,
    t_points,
    *,
    spectral: SpectralData | None = None,
    grid_origin=None,
    tight: bool | None = None,
    include_condensation: bool = True,
    cap: int = PATH_CAP,
) -> CoveringProfile:
    """Covering profile at explicit t samples.

    ``t_points`` holds floats, or ``(t, n, y)`` triples in lattice mode
    where ``t = n * tau + y`` records the decomposition used downstream.
    One walk per vertex, sized for the largest t, serves every sample.
    """
    if spectral is None:
        spectral = solve_s0(graph)
    origin = _origin_vector(grid_origin, graph.dimension)
    eff_tight = _effective_tight(tight, graph.dimension)
    normalized = []
    for item in t_points:
        if isinstance(item, tuple):
            normalized.append(item)
        else:
            normalized.append((float(item), None, None))
    normalized.sort(key=lambda x: x[0])
    walks = {}
    if normalized:
        r_min = math.exp(-normalized[-1][0])
        walks = {v: _Walk(graph, v, r_min, cap) for v in graph.vertex_order}
    samples = []
    for t, n, y in normalized:
        r = math.exp(-t)
        rows = [
            walks[v].shapes(r, include_condensation).cells(r, origin, eff_tight, CELL_CAP)
            for v in graph.vertex_order
        ]
        res = _count_rows(graph.vertex_order, rows, CELL_CAP)
        scale = math.exp(-spectral.s0 * t)
        samples.append(
            ProfileSample(
                t=t,
                r=r,
                counts=res.per_vertex,
                total=res.total,
                ratios=tuple(c * scale for c in res.per_vertex),
                ratio_total=res.total * scale,
                n=n,
                y=y,
            )
        )
    return CoveringProfile(
        vertex_order=graph.vertex_order,
        s0=spectral.s0,
        grid_origin=tuple(origin.tolist()),
        samples=tuple(samples),
    )


def lattice_grid(tau: float, n_values, y_values) -> list[tuple[float, int, float]]:
    """Sample points t = n*tau + y with their (n, y) decomposition."""
    pts = []
    for n in n_values:
        for y in y_values:
            pts.append((n * tau + y, int(n), float(y)))
    return pts


def profile(
    graph: MWGraph,
    t_min: float,
    t_max: float,
    samples: int,
    period: float | None = None,
    *,
    spectral: SpectralData | None = None,
    grid_origin=None,
    tight: bool | None = None,
    include_condensation: bool = True,
    cap: int = PATH_CAP,
) -> CoveringProfile:
    """Uniform-in-t profile, or per-period sampling when ``period`` is set.

    In lattice mode ``samples`` counts the y-offsets per period; every
    t = n*period + y inside [t_min, t_max] is sampled.
    """
    if t_max < t_min:
        raise ValueError("t_max must be at least t_min")
    if samples < 1:
        raise ValueError("samples must be positive")
    if period is None:
        ts = np.linspace(t_min, t_max, samples).tolist()
        points: list = ts
    else:
        if period <= 0:
            raise ValueError("period must be positive")
        n_lo = math.ceil(t_min / period - 1e-12)
        n_hi = math.floor(t_max / period + 1e-12)
        y_values = [m * period / samples for m in range(samples)]
        points = [
            p
            for p in lattice_grid(period, range(n_lo, n_hi + 1), y_values)
            if t_min - 1e-12 <= p[0] <= t_max + 1e-12
        ]
        if not points:
            raise ValueError("no lattice sample points inside the t-range")
    return profile_at(
        graph,
        points,
        spectral=spectral,
        grid_origin=grid_origin,
        tight=tight,
        include_condensation=include_condensation,
        cap=cap,
    )


# -- condensation covering and its scale integral ----------------------------


def condensation_covering(primitive, r: float, grid_origin=None) -> int:
    """Exact number of grid cells met by a declared condensation shape."""
    dim = primitive.dim
    origin = _origin_vector(grid_origin, dim)
    if primitive.kind == "point":
        return 1
    if primitive.kind == "segment":
        acc = _CellUnion(dim, CELL_CAP)
        a, b = (np.array([p]) for p in primitive.points)
        _segment_cells(a, b, r, origin, acc, CELL_CAP)
        return acc.rows().shape[0]
    if primitive.kind == "box":
        total = 1
        for a, b, o in zip(primitive.points[0], primitive.points[1], origin):
            lo, hi = interval_cell_range(a, b, r, o)
            total *= hi - lo + 1
        return total
    raise ValueError(f"unsupported primitive kind {primitive.kind!r}")


def _hurwitz(s: float, a: float) -> float:
    import mpmath

    return float(mpmath.zeta(s, a))


def _floor_scale_integral(x: float, s: float) -> float:
    """Integral over r in (0, 1] of r^(s-1) * floor(x / r)."""
    if x == 0:
        return 0.0
    if x < 0:
        return -_ceil_scale_integral(-x, s)
    return (math.floor(x) + x**s * _hurwitz(s, math.floor(x) + 1)) / s


def _ceil_scale_integral(x: float, s: float) -> float:
    """Integral over r in (0, 1] of r^(s-1) * ceil(x / r)."""
    if x == 0:
        return 0.0
    if x < 0:
        return -_floor_scale_integral(-x, s)
    return (math.ceil(x) + x**s * _hurwitz(s, max(math.ceil(x), 1))) / s


def _segment_scale_integral(a, b, s: float) -> float:
    """Exact value of the count-decay integral for a segment.

    Writes the cell count as 1 plus the number of grid-plane crossings per
    axis; each crossing count integrates in closed form through the Hurwitz
    zeta function.  Valid for s > 1; the caller guards divergence.
    """
    total = 1.0 / s
    for alpha, beta in zip(a, b):
        if beta < alpha:
            alpha, beta = beta, alpha
        if beta == alpha:
            continue
        total += (
            _ceil_scale_integral(beta, s)
            - _floor_scale_integral(alpha, s)
            - 1.0 / s
        )
    return total


def _box_count_at(lo, hi, r: float) -> int:
    n = 1
    for a, b in zip(lo, hi):
        i0, i1 = interval_cell_range(a, b, r, 0.0)
        n *= i1 - i0 + 1
    return n


def _box_scale_integral(lo, hi, s: float, r_floor: float = 1e-4) -> float:
    """Count-decay integral for a full-dimensional box, semi-numeric.

    Pieces above ``r_floor`` are exact (the count only jumps where some
    coordinate over r crosses an integer); the tail below uses the mean
    cell-count expansion prod_j (w_j / r + 1), whose error decays like the
    next fractional-correction order.
    """
    jump_radii = {1.0, r_floor}
    for c in set(abs(x) for x in (*lo, *hi) if x != 0.0):
        m = 1
        while c / m > r_floor:
            if c / m <= 1.0:
                jump_radii.add(c / m)
            m += 1
    grid = sorted(jump_radii)
    total = 0.0
    for r0, r1 in zip(grid, grid[1:]):
        n = _box_count_at(lo, hi, math.sqrt(r0 * r1))
        total += n * (r1**s - r0**s) / s
    widths = [b - a for a, b in zip(lo, hi)]
    axes = [w for w in widths if w > 0]
    for size in range(len(axes) + 1):
        for combo in itertools.combinations(axes, size):
            prod = math.prod(combo)
            power = s - size
            total += prod * r_floor**power / power
    return total


@dataclass(frozen=True)
class IntegralResult:
    """Classification of the condensation count-decay integral."""

    kind: str  # "Finite", "Infinite", or "Inconclusive"
    value: float | None
    exponent: float
    exact: bool = True

    @property
    def is_finite(self) -> bool:
        return self.kind == "Finite"


def condensation_integral(
    graph: MWGraph, vertex: str, spectral: SpectralData | None = None
) -> IntegralResult:
    """Integral of e^(-s0 t) times the condensation cell count over t >= 0.

    Convergence is decided by comparing s0 against the largest box
    dimension among the vertex's shapes; a gap below 1e-9 is reported as
    inconclusive rather than resolved by rounding.
    """
    if spectral is None:
        spectral = solve_s0(graph)
    s0 = spectral.s0
    prims = graph.condensation[vertex]
    if not prims:
        return IntegralResult("Finite", 0.0, 0.0)
    k = max(p.box_dimension() for p in prims)
    if abs(k - s0) <= 1e-9:
        return IntegralResult("Inconclusive", None, float(k))
    if k > s0:
        return IntegralResult("Infinite", None, float(k))
    value = 0.0
    exact = True
    for p in prims:
        pk = p.box_dimension()
        if pk == 0:
            value += 1.0 / s0
        elif p.kind == "segment":
            value += _segment_scale_integral(p.points[0], p.points[1], s0)
        elif pk == 1:
            # a box with one live axis meets the same cells as a segment
            value += _segment_scale_integral(p.points[0], p.points[1], s0)
        else:
            value += _box_scale_integral(p.points[0], p.points[1], s0)
            exact = False
    return IntegralResult("Finite", value, float(k), exact)


# -- count-derived forcing for the renewal cross-check -----------------------


def child_time(t: float, edge) -> float:
    """Argument ``t - log(1/ratio)`` of an edge's child term in the forcing.

    A shift within 1e-9 of zero is snapped to 0: a lattice period computed
    apart from the edge's own log-ratio can leave a residue like -1e-16,
    which would otherwise count the child term as not yet started.
    """
    s = t - edge.log_ratio
    return 0.0 if abs(s) < ETA else s


class ForcingContext:
    """Cached covering counts supporting shifted-argument evaluations.

    Holds N(t) = cell count of the vertex attractor at radius e^(-t) for
    every t on the sample grid and at every child-shifted argument
    t - log(1/ratio), including negative ones (the grid is simply coarser
    than the attractor there; counts stay honest).  Each vertex is walked
    once, down to the radius of the largest grid t.
    """

    def __init__(
        self,
        graph: MWGraph,
        spectral: SpectralData,
        t_grid,
        *,
        grid_origin=None,
        tight: bool | None = None,
        cap: int = PATH_CAP,
    ) -> None:
        self.graph = graph
        self.spectral = spectral
        self.t_grid = np.array(sorted(float(t) for t in t_grid))
        if self.t_grid.size == 0:
            raise ValueError("empty t grid")
        if self.t_grid[0] < 0:
            raise ValueError("t grid must be nonnegative")
        self.grid_origin = grid_origin
        self.tight = tight
        self.cap = cap
        self._counts: dict[tuple[str, float], int] = {}
        self._walks: dict[str, _Walk] = {}

    def count_at(self, vertex: str, t: float) -> int:
        key = (vertex, float(t))
        hit = self._counts.get(key)
        if hit is None:
            r = math.exp(-t)
            walk = self._walks.get(vertex)
            if walk is None or walk.r_min > r:
                r_min = min(r, math.exp(-self.t_grid[-1]))
                walk = self._walks[vertex] = _Walk(self.graph, vertex, r_min, self.cap)
            dim = self.graph.dimension
            origin = _origin_vector(self.grid_origin, dim)
            cells = walk.shapes(r).cells(r, origin, _effective_tight(self.tight, dim), CELL_CAP)
            hit = self._counts[key] = cells.shape[0]
        return hit

    def normalized_count(self, vertex: str, t: float) -> float:
        return self.count_at(vertex, t) * math.exp(-self.spectral.s0 * t)


def measure_forcing(
    graph: MWGraph,
    spectral: SpectralData | None = None,
    t_grid=None,
    **kwargs,
) -> ForcingContext:
    if spectral is None:
        spectral = solve_s0(graph)
    if t_grid is None:
        t_grid = np.linspace(0.0, 10.0, 101)
    return ForcingContext(graph, spectral, t_grid, **kwargs)


def _l_star_values(ctx: ForcingContext, vertex: str) -> np.ndarray:
    graph = ctx.graph
    vals = np.zeros(ctx.t_grid.size)
    for idx, t in enumerate(ctx.t_grid):
        child_sum = 0
        for e in graph.out_edges(vertex):
            child_sum += ctx.count_at(e.dst, child_time(t, e))
        vals[idx] = child_sum - ctx.count_at(vertex, t)
    return vals


def l_star(ctx: ForcingContext, vertex: str):
    """Step-function estimate of the child-sum count defect on the grid."""
    from .renewal import StepFunction

    return StepFunction.from_samples(ctx.t_grid, _l_star_values(ctx, vertex))


def f_star(ctx: ForcingContext, vertex: str):
    """Normalized count e^(-s0 t) N(t) sampled on the grid."""
    from .renewal import StepFunction

    vals = np.array([ctx.normalized_count(vertex, t) for t in ctx.t_grid])
    return StepFunction.from_samples(ctx.t_grid, vals)


def corrected_forcing(ctx: ForcingContext, vertex: str):
    """Forcing term that closes the renewal identity for measured counts.

    f(t) = sum over edges of ratio^s0 f_child(t - log(1/ratio)) + L(t)
    holds exactly on the grid when L collects the count defect together
    with the child terms whose shifted argument is still negative.
    """
    from .renewal import StepFunction

    graph = ctx.graph
    s0 = ctx.spectral.s0
    star = _l_star_values(ctx, vertex)
    vals = np.zeros(ctx.t_grid.size)
    for idx, t in enumerate(ctx.t_grid):
        early = 0
        for e in graph.out_edges(vertex):
            shifted = child_time(t, e)
            if shifted < 0:
                early += ctx.count_at(e.dst, shifted)
        vals[idx] = math.exp(-s0 * t) * (early - star[idx])
    return StepFunction.from_samples(ctx.t_grid, vals)


# -- boundary diagnostic ------------------------------------------------------


def _cell_boundary_distances(cell_lo: np.ndarray, r: float, u: Box) -> np.ndarray:
    """Distance from each cell to the boundary of an axis-aligned box."""
    ulo = np.array(u.lo)
    uhi = np.array(u.hi)
    cell_hi = cell_lo + r
    inside = (cell_lo >= ulo).all(axis=1) & (cell_hi <= uhi).all(axis=1)
    # inside: distance to the nearest face; a straddling cell is at 0
    dist = np.minimum((cell_lo - ulo).min(axis=1), (uhi - cell_hi).min(axis=1))
    dist[~inside] = 0.0
    gap = np.maximum(ulo - cell_hi, 0.0) + np.maximum(cell_lo - uhi, 0.0)
    outside = ~inside & gap.any(axis=1)
    dist[outside] = [math.hypot(*g) for g in gap[outside].tolist()]
    return dist


@dataclass(frozen=True)
class BoundarySample:
    t: float
    count: int
    integrand: float


@dataclass(frozen=True)
class BoundaryDiagnostic:
    vertex: str
    samples: tuple[BoundarySample, ...]
    partial_integral: float


def boundary_diagnostic(
    graph: MWGraph,
    vertex: str,
    t_grid,
    *,
    spectral: SpectralData | None = None,
    grid_origin=None,
    tight: bool | None = None,
    cap: int = PATH_CAP,
) -> BoundaryDiagnostic:
    """Weighted count of covering cells near the open-set boundary.

    Tracks e^(-s0 t) times the number of covering cells within e^(-t) of
    the boundary of the vertex's open set, and the trapezoid partial
    integral over the grid.  Saturation of the partial integral is the
    practical signature of a negligible boundary; steady growth flags a
    condensation set hugging the boundary.
    """
    if spectral is None:
        spectral = solve_s0(graph)
    ts = np.array(sorted(float(t) for t in t_grid))
    origin = _origin_vector(grid_origin, graph.dimension)
    eff_tight = _effective_tight(tight, graph.dimension)
    u = graph.open_sets[vertex]
    walk = _Walk(graph, vertex, math.exp(-ts[-1]), cap) if ts.size else None
    out = []
    for t in ts:
        r = math.exp(-t)
        rows = walk.shapes(r).cells(r, origin, eff_tight, CELL_CAP)
        # strictly within r: the neighbor of an endpoint cell sits at
        # distance exactly r and must not count, else every face
        # contributes twice and the two-cell bound for a clean interval
        # attractor fails
        dist = _cell_boundary_distances(origin + rows * r, r, u)
        near = int((dist <= r * (1 - ETA)).sum())
        out.append(BoundarySample(float(t), near, near * math.exp(-spectral.s0 * t)))
    integrand = np.array([s.integrand for s in out])
    partial = float(_trapezoid(integrand, ts)) if ts.size > 1 else 0.0
    return BoundaryDiagnostic(vertex, tuple(out), partial)
