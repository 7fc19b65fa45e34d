"""Grid-cell covering counts for attractor approximations.

Counting convention: half-open cells ``[o + m*r, o + (m+1)*r)`` per axis,
anchored at a grid origin (default 0).  A shape is charged to every cell it
meets.  Index arithmetic carries a snap of 1e-9 in index space so that
coordinates landing on a grid line within float noise resolve to the cell
the exact arithmetic would pick; this is what makes ternary-grid counts of
the middle-thirds attractor exact integers, for coordinates and origins
near unit size only: the noise of ``x - o`` grows with them, and ``cantor``
at r = 3^-14 counts 19,227 cells at origin 10, 16,384 at origin 0.

The covering set for a vertex mixes two element kinds: boxes covering whole
subtrees (images of seed boxes along paths stopped at resolution) and
condensation shapes copied along every shorter path.  Anything finer than
the stopping cutoff already sits inside a covering box, so generation
terminates.

One kernel does all counting.  A vertex's stopping tree is walked once,
level by level as numpy arrays, down to the finest radius a caller needs,
then sorted by stopping size, so that a group of coarser radii takes its
leaves and interior nodes as slices.  A pass maps each node it reads once,
from per-class image tables formed once per walk; nothing per node is kept
between passes.  A pass streams: it cuts its nodes into slices of about
``_WORK`` estimated candidate runs and feeds each slice's images straight
into one union, a primitive at a time, so its peak memory is one slice's
plus the union's.  Cells are held as runs along one axis per system, each a
range [start, stop) of linear cell ids fixed before the pass (``_Ids``), 16
bytes a run; a union merges by concatenation and ``_merge`` when its fresh
runs pass twice its merged ones, and the vertices' total is one more merge.
Traced peaks: 5.10 MB counting ``sierpinski`` at t = 6, 7.53 MB analyzing
``two_ratio``.  Axis-parallel segments are index boxes like points and boxes.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ResourceLimitError, ValidationError
from .geometry import Box
from .graph import PATH_CAP, MWGraph
from .spectral import SpectralData, solve_s0

__all__ = [
    "GeometrySet",
    "generate",
    "CountResult",
    "count",
    "ProfileSample",
    "CoveringProfile",
    "profile",
    "profile_at",
    "lattice_grid",
    "IntegralResult",
    "condensation_integral",
    "ForcingContext",
]

ETA = 1e-9
CELL_CAP = 10**7

# -- cell index arithmetic --------------------------------------------------


def _origin_vector(grid_origin, dim: int) -> np.ndarray:
    if grid_origin is None:
        return np.zeros(dim)
    arr = np.asarray(grid_origin, dtype=float)
    if arr.ndim == 0:
        arr = np.full(dim, float(arr))
    if arr.shape != (dim,):
        raise ValueError(f"grid origin must be a scalar or a {dim}-vector")
    if not np.isfinite(arr).all():
        raise ValueError(f"grid_origin must be finite, got {grid_origin!r}")
    return arr


# -- array cell enumeration --------------------------------------------------
#
# Float expressions repeat the operation order of the scalar definitions
# (Similarity.compose and apply, and the cell index ranges and
# OrientedBox.image_of of the test oracle tests/covering_oracle.py).  Small
# matrix products go through np.matmul with the operand layout of the scalar
# call, because BLAS may fuse multiply-adds where a written-out formula would
# round twice.  So coordinates and cells agree bit for bit with shape-by-shape
# enumeration.  Coordinates are worked a column at a time: a d-vector
# broadcast over (n, d) rows costs more than the d column passes it saves.
#
# The radius ``r`` is one float for every shape, or an (n,) array giving
# each shape row its own radius.  The arithmetic is elementwise either way,
# so a row counted among many radii gets the cells of a call at its radius
# alone.  Such rows carry a ``tag``, the index of their radius.

def _take(x, idx):
    """Rows ``idx`` of a per-row radius column or tag array; one radius for
    every row, or no tag (None), passes through."""
    return x if x is None or np.ndim(x) == 0 else x[idx]


def _floor_cells(pts: np.ndarray, r, origin: np.ndarray) -> np.ndarray:
    out = np.empty(pts.shape, dtype=np.int64)
    for k in range(pts.shape[1]):
        out[:, k] = np.floor((pts[:, k] - origin[k]) / r + ETA)
    return out


def _interval_cells(a: np.ndarray, b: np.ndarray, r, origin: np.ndarray):
    """Inclusive index ranges of the cells met by the closed intervals
    [a, b], a <= b, elementwise."""
    lo, hi = np.empty(a.shape, dtype=np.int64), np.empty(a.shape, dtype=np.int64)
    for k in range(a.shape[1]):
        lo[:, k] = np.floor((a[:, k] - origin[k]) / r + ETA)
        hi[:, k] = np.ceil((b[:, k] - origin[k]) / r - ETA)
    hi -= 1
    return lo, np.maximum(lo, hi, out=hi)


def _span(idx: np.ndarray):
    """A strictly increasing index array as a slice when it is one."""
    if idx.size and idx[-1] - idx[0] + 1 == idx.size:
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


def _repeat_rows(x: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Row k of ``x`` n[k] >= 1 times: ``x`` itself when each is once."""
    return x if x.shape[0] == n.sum() else np.repeat(x, n, axis=0)


# most distinct values of small int keys that sort as 8- or 16-bit ints, by radix
_RADIX_KEYS = 1 << 16


def _sort_keys(keys: np.ndarray, n_values: int) -> np.ndarray:
    """Nonnegative int keys below ``n_values`` in the dtype that numpy's
    stable sort takes fastest: the least unsigned one, sorted by radix, when
    they fit in 16 bits."""
    return keys.astype(np.min_scalar_type(n_values - 1)) if n_values <= _RADIX_KEYS else keys


def _row_prod(a: np.ndarray) -> np.ndarray:
    """Product across the (few, maybe no) columns of a 2-d array."""
    out = np.ones(a.shape[0], dtype=a.dtype)
    for k in range(a.shape[1]):
        out *= a[:, k]
    return out


def _merge(start: np.ndarray, stop: np.ndarray):
    """Union of half-open id ranges [start, stop) as disjoint, non-touching
    ranges in ascending order.  Starts and stops sort apart: a merged range
    closes at the k-th smallest stop exactly when the next start lies past
    it.  Both arrays are sorted in place.  Ranges that start at index rows
    (see ``_Ids``) are merged as ids: their distinct rows but the run column,
    a column at a time, and their distinct run ends numbered by ``np.unique``."""
    if start.ndim > 1:
        g = np.zeros(stop.size, np.int64)
        for col in start[:, :-1].T:
            u, at = np.unique(col, return_inverse=True)
            g = np.unique(g * u.size + at, return_inverse=True)[1] if g.any() else at
        rows = np.empty((g.max() + 1, start.shape[1] - 1), np.int64)
        rows[g] = start[:, :-1]
        ends, at = np.unique(np.concatenate((start[:, -1], stop)), return_inverse=True)
        g *= ends.size
        a, b = _merge(g + at[: stop.size], g + at[stop.size :])
        g, a = np.divmod(a, ends.size)
        return np.column_stack((rows[g], ends[a])), ends[b - g * ends.size]
    start.sort()
    stop.sort()
    opens = np.empty(start.size, dtype=bool)
    opens[0] = True
    np.greater(start[1:], stop[:-1], out=opens[1:])
    closes = np.append(opens[1:], True)
    return start[opens], stop[closes]


class _Ids:
    """The linear cell ids of one counting pass, fixed before its first piece.

    Cell c of radius index ``tag`` (0 untagged) in the index bounds ``lo``,
    ``hi`` (inclusive, kept with the run ``axis`` last) has the mixed-radix id
    ``((tag * s_0 + c_0 - lo_0) * s_1 + ...) * w + c_run - lo_run``, spans
    s_k = hi_k - lo_k + 1 and w the run axis's span plus one: the last id of
    each (tag, prefix) is no cell's, so ranges of two prefixes never touch.
    Where ids would pass 2^62 (``big``), a range starts at the index row
    (tag, prefix, c_run) and stops at a run-axis index, as ``_merge`` takes.
    """

    def __init__(self, lo, hi, n_tags: int | None, axis: int | None) -> None:
        self.tagged, self.axis, d = n_tags is not None, axis, len(lo)
        self.order = None if axis in (None, d - 1) else [*range(axis), *range(axis + 1, d), axis]
        at = range(d) if self.order is None else self.order
        self.lo, self.hi = [int(lo[k]) for k in at], [int(hi[k]) for k in at]
        self.span = [n_tags or 1, *(h - a + 1 for a, h in zip(self.lo, self.hi))]
        self.span[-1] += 1
        self.stride = math.prod(self.span[1:])  # the ids of one radius
        self.big = self.span[0] * self.stride >= 1 << 62
        self.empty = self.encode(np.empty((0, d - 1), np.int64), *[np.empty(0, np.int64)] * 3)

    def encode(self, prefix: np.ndarray, lo: np.ndarray, hi: np.ndarray, tag):
        """Id ranges of the runs [lo, hi] (inclusive) along the run axis at
        the index rows ``prefix`` of the other axes, tagged in a tagged pass."""
        if self.big:
            return np.column_stack((np.zeros_like(lo) if tag is None else tag, prefix, lo)), hi + 1
        off = np.zeros(lo.size, np.int64) if tag is None else tag.astype(np.int64)
        for k in range(prefix.shape[1]):
            off *= self.span[k + 1]
            off += prefix[:, k]
            off -= self.lo[k]
        off *= self.span[-1]
        off -= self.lo[-1]
        return lo + off, off + (hi + 1)

    def counts(self, start: np.ndarray, stop: np.ndarray) -> np.ndarray:
        """Cells of each radius held by merged ranges: their lengths summed
        between the first ids (or rows) of consecutive radii."""
        first, key, step = (start[:, -1], start[:, 0], 1) if self.big else (start, start, self.stride)
        held = np.zeros(stop.size + 1, np.int64)
        np.cumsum(stop - first, out=held[1:])
        return np.diff(held[np.searchsorted(key, np.arange(self.span[0] + 1) * step)])

    def cells(self, start: np.ndarray, stop: np.ndarray) -> np.ndarray:
        """Every cell of merged ranges as an index row in the caller's axis
        order, led by its radius index in a tagged pass: the one decoder."""
        if not self.big:  # each range's first cell as a (tag, prefix, c_run) row
            ids, cols = start, []
            for s, a in zip(self.span[:0:-1], self.lo[::-1]):
                ids, c = np.divmod(ids, s)
                cols.insert(0, c + a)
            start, stop = np.column_stack((ids, *cols)), stop - start + cols[-1]
        n = stop - start[:, -1]
        cells = np.repeat(start, n, axis=0)
        cells[:, -1] += np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
        if self.order is not None:
            cells[:, 1:] = cells[:, 1 + np.argsort(self.order)]
        return cells[:, 1 - self.tagged :]


class _Outside(Exception):
    """A cell outside the index bounds of its pass's ids."""


# unmerged ranges a union takes before it first merges them; past that, it
# merges when they pass twice its merged ranges, so that each merged range
# is sorted again about half as often as it is added, and all merges
# together sort about 1.5 times the ranges one union of everything would
_MERGE_FLOOR = 1 << 14


class _CellUnion:
    """Distinct cells of one pass as (start, stop) id ranges of ``ids``,
    added piece by piece and merged by concatenation and ``_merge``.  The
    cap (per radius) is checked at every merge, so a count over it stops
    after about ``CELL_CAP`` cells, not after all of its shapes.
    """

    def __init__(self, ids: _Ids) -> None:
        self.ids, self.parts, self.fresh = ids, [ids.empty], 0

    def add(self, start: np.ndarray, stop: np.ndarray) -> None:
        if stop.size:
            self.parts.append((start, stop))
            self.fresh += stop.size
            if self.fresh > max(_MERGE_FLOOR, 2 * self.parts[0][1].size):
                self.ranges()

    def ranges(self):
        if len(self.parts) > 1:
            self.parts, self.fresh = [_merge(*map(np.concatenate, zip(*self.parts)))], 0
        if self.ids.counts(*self.parts[0]).max() > CELL_CAP:
            raise ResourceLimitError(f"cell union exceeds cap {CELL_CAP}")
        return self.parts[0]


def _expand(lo: np.ndarray, cnt: np.ndarray):
    """Every index row of each index box, last axis fastest, with its box.

    A row's offset in its box is below the product of the box's counts, so
    once the inner axes are divided out it is the outermost axis's offset.
    """
    n = _row_prod(cnt)
    owner = np.repeat(np.arange(n.size), n)
    local = np.arange(owner.size) - np.repeat(np.cumsum(n) - n, n)
    d = lo.shape[1]
    rows = np.empty((owner.size, d), dtype=np.int64)
    for k in range(d - 1, 0, -1):
        c = cnt[:, k][owner]
        np.add(lo[:, k][owner], local % c, out=rows[:, k])
        local //= c
    np.add(lo[:, 0][owner], local, out=rows[:, 0])
    return rows, owner


def _check_candidates(cnt: np.ndarray) -> None:
    """Refuse a box of over ``CELL_CAP`` cells, bounding the largest first."""
    bound = math.prod(int(cnt[:, k].max()) for k in range(cnt.shape[1])) if cnt.size else 0
    if bound > CELL_CAP and _row_prod(cnt.astype(float)).max() > CELL_CAP:
        raise ResourceLimitError(f"cell enumeration exceeds cap {CELL_CAP}")


def _index_box_runs(ilo, ihi, acc: _CellUnion, tag=None) -> None:
    """Id ranges of the index boxes [ilo, ihi] (inclusive), one per index row
    of a box's axes but the run axis: the box itself when it has one."""
    ids = acc.ids
    if ids.order is not None:
        ilo, ihi = ilo[:, ids.order], ihi[:, ids.order]
    for k in range(ilo.shape[1]):
        if ilo[:, k].min(initial=ids.lo[k]) < ids.lo[k] or ihi[:, k].max(initial=ids.hi[k]) > ids.hi[k]:
            raise _Outside
    cnt = ihi[:, :-1] - ilo[:, :-1] + 1
    if (cnt == 1).all():
        acc.add(*ids.encode(ilo[:, :-1], ilo[:, -1], ihi[:, -1], tag))
        return
    prefix, owner = _expand(ilo[:, :-1], cnt)
    acc.add(*ids.encode(prefix, ilo[owner, -1], ihi[owner, -1], _take(tag, owner)))


def _box_cells(lo, hi, r, origin, acc: _CellUnion, tag=None) -> None:
    """Runs of the cells each axis-aligned box [lo, hi] meets."""
    ilo, ihi = _interval_cells(lo, hi, r, origin)
    _check_candidates(ihi - ilo + 1)
    _index_box_runs(ilo, ihi, acc, tag)


def _segment_cells(a, b, r, origin, acc: _CellUnion, tag=None) -> None:
    """Cells each segment meets.

    A segment that moves along at most one axis is the index box from the
    cell of its lower end to that of its upper end.  An oblique one is
    sampled: the parameters of its plane crossings plus 0 and 1, clipped
    and deduplicated, with the endpoints and the midpoint of every gap
    between consecutive parameters as sample points, each a run of one
    cell.
    """
    delta, low, high = b - a, np.minimum(a, b), np.maximum(a, b)
    m0, cnt = np.empty(a.shape, dtype=np.int64), np.empty(a.shape, dtype=np.int64)
    for k in range(a.shape[1]):
        first = np.floor((low[:, k] - origin[k]) / r) + 1
        last = np.ceil((high[:, k] - origin[k]) / r) - 1
        m0[:, k] = first
        cnt[:, k] = np.where(delta[:, k] != 0.0, np.maximum(last - first + 1, 0), 0)
    if cnt.size and cnt.max() > CELL_CAP:
        raise ResourceLimitError(f"cell enumeration exceeds cap {CELL_CAP}")
    line = np.count_nonzero(delta, axis=1) <= 1
    lo, hi = (_floor_cells(x[line], _take(r, line), origin) for x in (low, high))
    _index_box_runs(lo, hi, acc, _take(tag, line))
    live = ~line
    if not live.any():
        return
    p, q, dp, r, tag = a[live], b[live], delta[live], _take(r, live), _take(tag, live)
    c, first = cnt[live], m0[live]
    n = p.shape[0]
    segs = [np.arange(n), np.arange(n)]
    ts = [np.zeros(n), np.ones(n)]
    for j in range(p.shape[1]):
        owner = np.repeat(np.arange(n), c[:, j])
        step = np.arange(owner.size) - np.repeat(np.cumsum(c[:, j]) - c[:, j], c[:, j])
        planes = origin[j] + (first[owner, j] + step) * _take(r, owner)
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
    # the sample points p, q, mids lie on segments 0..n-1, 0..n-1, s
    owner = None if tag is None else np.r_[0:n, 0:n, s]
    pts = _floor_cells(np.concatenate([p, q, mids]), _take(r, owner), origin)
    _index_box_runs(pts, pts, acc, _take(tag, owner))


def _obb_extent(half: np.ndarray) -> np.ndarray:
    """Half widths of the bounding boxes of oriented boxes, summed as the
    covering oracle's OrientedBox.bounding_box sums them."""
    ext = np.abs(half[:, 0, :])
    for k in range(1, half.shape[1]):
        ext = ext + np.abs(half[:, k, :])
    return ext


def _sat_axes(half: np.ndarray):
    """Unit box axes of 2-d boxes; per box axis, the box's projected half
    extent (summed over its half axes) and the cell factor |u_0| + |u_1|,
    in the scalar test's arithmetic (``math.hypot`` and numpy's matrix
    products).

    Against a cell of side r, an axis separates at a centre distance of
    ``0.5 * r * factor + extent - ETA * r``.  The extent is infinite where
    the axis has length zero: such an axis separates nothing.
    """
    norms = np.array([[math.hypot(*row) for row in h] for h in half.tolist()])
    norms = norms.reshape(half.shape[:2])
    live = norms > 0
    units = half / np.where(live, norms, 1.0)[..., None]
    extent, factor = np.empty(live.shape), np.empty(live.shape)
    for k in range(2):
        u = units[:, k, :]
        proj = np.abs(np.matmul(half, u[:, :, None])[:, :, 0])
        extent[:, k] = proj[:, 0] + proj[:, 1]
        factor[:, k] = np.abs(u[:, 0]) + np.abs(u[:, 1])
    extent[~live] = np.inf
    return units, extent, factor


def _reach(r, factor, extent):
    """Centre distance along a box axis at which it separates box and cell."""
    return 0.5 * r * factor + extent - ETA * r


@dataclass(frozen=True)
class _BoxAxes:
    """Separating-axis constants of rotated 2-d boxes, one row per box shape
    (a class of a walk, or one box): none depends on the radius, so
    ``_sat_axes`` forms them once per row, and both the candidate test and
    its exact retest read them.
    """

    half: np.ndarray  # (k, 2, 2) half axes, one row per box axis
    ext: np.ndarray  # (k, 2) bounding-box half widths
    units: np.ndarray  # (k, 2, 2) unit box axes
    extent: np.ndarray  # (k, 2) projected half extents on the box axes, inf on a dead one
    factor: np.ndarray  # (k, 2) cell factors |u_0| + |u_1|
    size: np.ndarray  # (k,) summed |half|, the box's scale in the unsure margin

    @classmethod
    def of(cls, half: np.ndarray) -> "_BoxAxes":
        return cls(half, _obb_extent(half), *_sat_axes(half), np.abs(half).sum(axis=(1, 2)))


def _obb_hits(center, row, axes: _BoxAxes, r, origin):
    """2-d separating-axis test of each candidate cell against each box: the
    candidates' index rows, their boxes and the hit mask.

    A box is its centre and a row of ``axes``.  A cell is separated from a
    box along an axis when the distance of their centres projected on it
    reaches the sum of their projected half extents, less a 1e-9 r
    tolerance.  The two grid axes test exactly in elementwise arithmetic.
    The two box axes take their constants from ``axes``, formed in the
    scalar test's arithmetic, and project the centre distance with an
    elementwise dot product, whose rounding a margin of 1e-12 of the scale
    absorbs: a candidate within it is retested with the scalar test's
    matrix product, so every mask equals the scalar test's.
    """
    ext = axes.ext[row]
    ilo, ihi = _interval_cells(center - ext, center + ext, r, origin)
    cnt = ihi - ilo + 1
    _check_candidates(cnt)
    rows, owner = _expand(ilo, cnt)
    return rows, owner, _sat_hits(rows, center[owner], row[owner], axes, _take(r, owner), origin)


def _sat_hits(rows, center, cls, axes: _BoxAxes, r, origin) -> np.ndarray:
    """``_obb_hits``'s mask for candidate cells ``rows`` against boxes of
    centres ``center`` and ``axes`` rows ``cls``, one box per candidate."""
    # in place where the operands allow: + and * commute exactly
    diff = np.empty(rows.shape)
    hit = np.ones(rows.shape[0], dtype=bool)
    for k in range(2):
        d = diff[:, k]
        np.add(rows[:, k], 0.5, out=d)
        d *= r
        d += origin[k]
        np.subtract(center[:, k], d, out=d)
        hit &= np.abs(d) < 0.5 * r + axes.ext[:, k][cls] - ETA * r
    grid, unsure = hit.copy(), np.zeros_like(hit)
    margin = axes.size[cls]
    margin += r
    margin += np.abs(diff[:, 0])
    margin += np.abs(diff[:, 1])
    margin *= 1e-12
    for k in range(2):
        gap = diff[:, 0] * axes.units[:, k, 0][cls]
        gap += diff[:, 1] * axes.units[:, k, 1][cls]
        np.abs(gap, out=gap)
        gap -= _reach(r, axes.factor[:, k][cls], axes.extent[:, k][cls])
        hit &= gap < 0
        unsure |= np.abs(gap) <= margin
    redo = np.flatnonzero(grid & unsure)
    if redo.size:
        hit[redo] = _sat_exact(diff[redo], cls[redo], axes, _take(r, redo))
    return hit


def _sat_exact(diff: np.ndarray, cls: np.ndarray, axes: _BoxAxes, r) -> np.ndarray:
    """Box-axis part of the separating-axis test, in the scalar arithmetic,
    of centre distances ``diff`` against ``axes`` rows ``cls``."""
    hit = np.ones(diff.shape[0], dtype=bool)
    for k in range(2):
        d = np.abs(np.matmul(diff[:, None, :], axes.units[cls, k, :, None])[:, 0, 0])
        hit &= d < _reach(r, axes.factor[cls, k], axes.extent[cls, k])
    return hit


def _feed(piece, r, origin: np.ndarray, acc: _CellUnion) -> None:
    """Add the runs of the cells each shape of a piece meets to ``acc``.

    A piece is ``(kind, arrays, tag)``: points ``(x,)``, segments ``(a, b)``,
    boxes charged their bounding box as bounds ``(lo, hi)``, or rotated 2-d
    boxes ``(centre, row, axes)``, tested exactly by separating axes, with
    ``row`` a row of the ``_BoxAxes`` table ``axes`` per box.  Tagged shapes
    take the radius ``r[tag]`` of their row; their runs then lead with the
    tag, and the caps hold per radius.
    """
    kind, arrays, tag = piece
    side = r if tag is None else r[tag]
    if kind == "point":
        cells = _floor_cells(arrays[0], side, origin)
        _index_box_runs(cells, cells, acc, tag)
    elif kind == "segment":
        _segment_cells(*arrays, side, origin, acc, tag)
    elif kind == "box":
        _box_cells(*arrays, side, origin, acc, tag)
    else:
        rows, owner, hit = _obb_hits(*arrays, side, origin)
        _index_box_runs(rows[hit], rows[hit], acc, _take(tag, owner[hit]))


# -- the multi-resolution walk -----------------------------------------------


def _range_sums(lo: np.ndarray, hi: np.ndarray, weights, n: int) -> np.ndarray:
    """For each index below n, the summed weights of the ranges [lo, hi)
    holding it."""
    live = hi > lo
    w = np.broadcast_to(weights, lo.shape)[live]
    edges = np.bincount(lo[live], w, n + 1) - np.bincount(hi[live], w, n + 1)
    return np.cumsum(edges)[:n]


# the work budget of a counting pass, in estimated candidate runs (``_Walk._cost``):
# radii share a pass while their estimates sum within it, and a pass's slices hold
# about this much, each fed to the pass's union and dropped before the next is mapped
_WORK = 1 << 13


class _Walk:
    """Stopping tree of one vertex down to radius ``r_min``, stored as arrays.

    A node's ratio, isometry (an index into ``isos``), terminal vertex and
    stopping size ``ratio * diam(terminal)`` fix those of its children, so
    they are kept once per class, a distinct (ratio, isometry, terminal)
    triple: ``c_ratio``, ``c_iso``, ``c_term`` and ``c_size``.  Node k holds
    only its class ``cls[k]``, its translation and ``above``, the smallest
    size among its proper ancestors (infinite at the root).  The radius-r
    walk, for any r >= r_min, visits exactly the nodes with ``above > r``:
    those with ``size <= r`` are its leaves (cylinders), the others its
    interior nodes (condensation copies).  Maps compose as
    Similarity.compose does, so every node's map equals the one the
    depth-first walk would build.

    A pre-flight pass over the class table counts the nodes of each
    (level, class) before any node array exists, so a walk over
    ``PATH_CAP`` nodes is refused first.  The levels are then written
    deepest first into one array per field, and the nodes stably sorted by
    the rank of their class in (terminal vertex, size) order: those of rank
    k fill ``_rank_off[k]:_rank_off[k+1]``, those ending at vertex v
    ``_off[v]:_off[v+1]``.  As a child's size is at least ``_shrink`` times
    its parent's, the leaves of radii in [r_lo, r_hi] bar the root
    (above = inf) have sizes in [_shrink * r_lo, r_hi] and the interior
    nodes sizes above r_lo: one range of ranks each.

    Each pass maps the nodes it reads, each once, from per-class image
    tables kept for the walk, and keeps nothing per node: whatever passes
    the walk serves, its per-node arrays stay ``cls``, ``trans`` and
    ``above``.  A pass (``runs``) streams: ``pieces`` cuts the selected
    leaves and interior nodes into slices of ``_WORK`` estimated candidate
    runs (``_cost``) plus at most one node's, each building at most 2^d runs
    per estimated one, and yields each slice's images, a primitive at a
    time, for ``_feed`` to add to one ``_CellUnion``.
    """

    def __init__(self, graph: MWGraph, vertex: str, r_min: float) -> None:
        if vertex not in graph.vertices:
            raise ValidationError(f"unknown vertex {vertex!r}")
        self.graph = graph
        self.vertex = vertex
        self.r_min = r_min
        order = graph.vertex_order
        self.diam = np.array([graph.seed_box(v).diameter for v in order])
        self._out = [graph.out_edges(v) for v in order]
        self._dst = {eid: order.index(e.dst) for eid, e in graph.edges.items()}
        ends = [(self.diam[order.index(e.src)], self.diam[self._dst[i]])
                for i, e in graph.edges.items()]
        shrink = (e.ratio * b / a for e, (a, b) in zip(graph.edges.values(), ends) if a)
        self._shrink = (1 - 1e-9) * min(shrink, default=0.0)
        self.isos = [np.eye(graph.dimension)]
        self._iso_slot = {self.isos[0].tobytes(): 0}
        self._steps: dict[tuple[int, str], tuple[int, np.ndarray]] = {}
        levels = self._count(order.index(vertex))
        self._build(levels)
        self._order(levels)
        self._iso_stack = np.array(self.isos)
        self._tables: dict[tuple, tuple] = {}

    # -- the class table and the pre-flight count ------------------------

    def _count(self, root: int) -> list:
        """The class table, and per level a ``{class: nodes}`` dict; raises
        past ``PATH_CAP`` nodes before any node array exists.

        The children of a class along the out-edges of its terminal vertex
        are in ``_kid[j, class]`` (-1 where there is none), their translation
        steps ``ratio * (Q @ b_e)`` in ``_step_b[j, class]``.  The table has
        a row per class, so it is walked in Python.
        """
        diam = self.diam.tolist()
        table = {"ratio": [1.0], "iso": [0], "term": [root], "size": [diam[root]],
                 "kids": [None], "keys": {(1.0, 0, root): 0}, "steps": []}
        deg = [len(e) for e in self._out]
        level = {0: 1}
        levels = []
        total = 1
        while total <= PATH_CAP:
            levels.append(level)
            grow = [(c, n) for c, n in level.items()
                    if table["size"][c] > self.r_min and deg[table["term"][c]]]
            if not grow:
                self._tabulate(table)
                return levels
            total += sum(n * deg[table["term"][c]] for c, n in grow)
            self._derive(table, [c for c, _n in grow if table["kids"][c] is None], diam)
            level = {}
            for c, n in grow:
                for k in table["kids"][c]:
                    level[k] = level.get(k, 0) + n
        raise ResourceLimitError(f"walk enumeration exceeded the cap of {PATH_CAP} nodes")

    def _derive(self, t: dict, fresh: list, diam: list) -> None:
        """Add to the class rows ``t`` the children of classes seen growing
        for the first time, in the order of the level build (vertex, edge,
        isometry), so that isometries enter ``isos`` in that order too."""
        for c in fresh:
            t["kids"][c] = []
        for v in sorted({t["term"][c] for c in fresh}):
            parents = sorted((c for c in fresh if t["term"][c] == v), key=t["iso"].__getitem__)
            for j, edge in enumerate(self._out[v]):
                term = self._dst[edge.id]
                for c in parents:
                    slot, qb = self._step(t["iso"][c], edge)
                    key = (t["ratio"][c] * edge.ratio, slot, term)
                    k = t["keys"].setdefault(key, len(t["ratio"]))
                    if k == len(t["ratio"]):
                        t["ratio"].append(key[0])
                        t["iso"].append(slot)
                        t["term"].append(term)
                        t["size"].append(key[0] * diam[term])
                        t["kids"].append(None)
                    t["kids"][c].append(k)
                    t["steps"].append((j, c, k, t["ratio"][c] * qb))

    def _tabulate(self, t: dict) -> None:
        """The class rows ``t`` as arrays."""
        self.c_ratio = np.array(t["ratio"])
        self.c_iso = np.array(t["iso"], dtype=np.int64)
        self.c_term = np.array(t["term"], dtype=np.int64)
        self.c_size = np.array(t["size"])
        self._deg = np.array([len(e) for e in self._out])
        width, n = max(1, int(self._deg.max())), self.c_ratio.size
        self._kid = np.full((width, n), -1, dtype=np.int32)
        self._step_b = np.zeros((width, n, self.graph.dimension))
        if t["steps"]:
            j, c, k, step = zip(*t["steps"])
            self._kid[j, c] = k
            self._step_b[j, c] = step

    # -- the node arrays -------------------------------------------------

    def _build(self, levels: list) -> None:
        """Write the levels deepest first into ``cls``, ``trans`` and
        ``above``: each child level from its parent level's slice, the
        class rows gathered by class id, a terminal vertex at a time."""
        sizes = [sum(level.values()) for level in levels]
        n = sum(sizes)
        starts = [n - s for s in itertools.accumulate(sizes)]
        self.cls = cls = np.empty(n, dtype=np.int32)
        self.trans = trans = np.empty((n, self.graph.dimension))
        self.above = above = np.empty(n)
        cls[-1], trans[-1], above[-1] = 0, 0.0, np.inf
        grow_term = np.where(self.c_size > self.r_min, self.c_term, -1)
        gt = grow_term.tolist()
        for level, a, m, at in zip(levels, starts, sizes, starts[1:]):
            pc, ptr, pab = cls[a : a + m], trans[a : a + m], above[a : a + m]
            terms = sorted({gt[c] for c in level} - {-1})
            whole = len(terms) == 1 and all(gt[c] >= 0 for c in level)
            tv = None if whole else grow_term[pc]
            for v in terms:
                sel = slice(None) if whole else (tv == v).nonzero()[0]
                c, tr = pc[sel].astype(np.intp), ptr[sel]
                ab = np.minimum(pab[sel], self.c_size[c])
                for j in range(self._deg[v]):
                    self._kid[j].take(c, out=cls[at : at + c.size])
                    np.add(tr, self._step_b[j].take(c, axis=0), out=trans[at : at + c.size])
                    above[at : at + c.size] = ab
                    at += c.size

    def _order(self, levels: list) -> None:
        """Rank the classes densely in (terminal vertex, size) order and
        sort the nodes stably by the rank of their class, unless they are in
        that order already."""
        by = np.lexsort((self.c_size, self.c_term))
        head = np.ones(by.size, dtype=bool)
        head[1:] = (np.diff(self.c_term[by]) != 0) | (np.diff(self.c_size[by]) != 0)
        rank = np.empty(by.size, dtype=np.int64)
        rank[by] = np.cumsum(head) - 1
        first = by[head]
        self._rank_size = self.c_size[first]
        per_rank = [0] * first.size
        for level in levels:
            for c, n in level.items():
                per_rank[rank[c]] += n
        self._rank_off = np.concatenate(([0], np.cumsum(per_rank)))
        self._vrank = np.searchsorted(self.c_term[first], np.arange(len(self._out) + 1))
        self._off = self._rank_off[self._vrank]
        self._root = int(self._rank_off[rank[0] + 1]) - 1  # the last node of its rank
        key = np.take(_sort_keys(rank, first.size), self.cls)  # take: cls is int32
        if (key[1:] < key[:-1]).any():
            perm = np.argsort(key, kind="stable")
            del key
            for name in ("cls", "trans", "above"):
                setattr(self, name, getattr(self, name)[perm])

    def _step(self, iso: int, edge) -> tuple[int, np.ndarray]:
        """Isometry of parent-iso-then-edge, and the parent's Q applied to b_e."""
        hit = self._steps.get((iso, edge.id))
        if hit is None:
            q = self.isos[iso] @ edge.map.isometry
            slot = self._iso_slot.setdefault(q.tobytes(), len(self.isos))
            if slot == len(self.isos):
                self.isos.append(q)
            hit = (slot, self.isos[iso] @ edge.map.translation)
            self._steps[(iso, edge.id)] = hit
        return hit

    # -- images of fixed shapes under the nodes' maps ---------------------
    #
    # A node maps a point x to ((ratio * x) @ Q.T) + b, and all but the
    # translation b is fixed by its class.  So the images of a shape are
    # formed once per class, and a node's image is its class's row, gathered
    # by class id, plus b: the same operations on the same operands as a
    # node-by-node map.  A pass maps each node it reads once, then repeats
    # the image for each radius the node serves.

    def _class_point(self, pt) -> np.ndarray:
        """``(ratio * pt) @ Q.T`` per class: ``Similarity.apply(pt)`` less
        the translation, in its operand layout."""
        x = self.c_ratio[:, None] * np.asarray(pt, dtype=float)
        return np.matmul(x[:, None, :], self._iso_stack.transpose(0, 2, 1)[self.c_iso])[:, 0, :]

    def _class_box(self, box: Box):
        """Per class, the covering oracle's ``OrientedBox.image_of`` less the
        translation: its centre, its ``bounding_box`` half widths, whether it
        is charged its bounding box (``plain``: axis-aligned by the oracle's
        1e-12 test, or any box outside dimension 2), and, when some class is
        not, the classes' separating-axis table (``_BoxAxes`` of their half
        axes; else None).

        A class's half axes are ratio * (Q.T * w / 2) of its isometry Q: row
        k is ratio * Q[:, k] * (w_k / 2), as the oracle forms them.  In
        dimension 2 a box is axis-aligned when each half axis has an entry of
        at most 1e-12, that is when ratio * ``tilt`` is, with ``tilt`` the
        largest over the axes of the smaller |entry| at ratio 1: |ratio * a|
        is ratio * |a|, and rounding keeps order.
        """
        axes = self._iso_stack.transpose(0, 2, 1) * (np.array(box.widths) / 2)[:, None]
        half = self.c_ratio[:, None, None] * axes[self.c_iso]
        tilt = np.abs(axes).min(axis=2).max(axis=1)
        plain = (self.c_ratio * tilt[self.c_iso] <= 1e-12) | (box.dim != 2)
        table = None if plain.all() else _BoxAxes.of(half)
        return self._class_point(box.center), _obb_extent(half), plain, table

    def _table(self, key: tuple):
        """The per-class images of ``key``: ``_class_point`` of a point, as a
        1-tuple, or ``_class_box`` of a box; formed once per walk."""
        table = self._tables.get(key)
        if table is None:
            kind, shape = key
            table = (self._class_point(shape),) if kind == "point" else self._class_box(shape)
            self._tables[key] = table
        return table

    def _centres(self, table: np.ndarray, nodes: np.ndarray):
        """The classes of ``nodes`` and their images: ``table``'s class rows
        plus the nodes' translations."""
        nodes = _span(nodes)
        cls = self.cls[nodes].astype(np.intp)  # gathers by intp indices are the fast ones
        return cls, np.take(table, cls, axis=0) + self.trans[nodes]

    def _points(self, pt, nodes: np.ndarray, n: np.ndarray) -> np.ndarray:
        """``Similarity.apply(pt)`` for each node, once for each of its n radii."""
        _cls, x = self._centres(self._table(("point", tuple(pt)))[0], nodes)
        return _repeat_rows(x, n)

    def _boxes(self, box: Box, nodes: np.ndarray, n: np.ndarray, tag):
        """Pieces of the images of ``box`` under ``nodes``, each once for each
        of its n radii, with their tags: the boxes charged their bounding box
        as bounds, the rotated ones as centres and class rows of the
        separating-axis table."""
        table = self._table(("box", box))
        cls, centre = self._centres(table[0], nodes)
        ext = np.take(table[1], cls, axis=0)
        plain = table[2][cls]
        if plain.all():
            yield "box", (_repeat_rows(centre - ext, n), _repeat_rows(centre + ext, n)), tag
            return
        bent, each = ~plain, np.repeat(plain, n)
        if plain.any():
            c, e, m = centre[plain], ext[plain], n[plain]
            yield "box", (_repeat_rows(c - e, m), _repeat_rows(c + e, m)), _take(tag, each)
        m = n[bent]
        obbs = _repeat_rows(centre[bent], m), _repeat_rows(cls[bent], m), table[3]
        yield "obb", obbs, _take(tag, ~each)

    def _select(self, radii: np.ndarray):
        """Per vertex, the node range ``(i0, i1)`` holding the leaves of an
        ascending array of radii (size <= r < above for some r) and, at
        vertices with condensation (else None), the one holding the interior
        nodes (r below both)."""
        r_lo, r_hi = radii[0], radii[-1]
        off, size = self._rank_off, self._rank_size
        leaf, inner = [], []
        for v, name in enumerate(self.graph.vertex_order):
            k0, k1 = self._vrank[v], self._vrank[v + 1]
            sizes = size[k0:k1]
            i0 = off[k0 + np.searchsorted(sizes, self._shrink * r_lo)]
            if off[k0] <= self._root < off[k1] and self.c_size[0] <= r_hi:  # class 0: the root
                i0 = min(i0, self._root)
            leaf.append((int(i0), int(off[k0 + np.searchsorted(sizes, r_hi, side="right")])))
            if not self.graph.condensation[name]:
                inner.append(None)
                continue
            inner.append((int(off[k0 + np.searchsorted(sizes, r_lo, side="right")]), int(off[k1])))
        return leaf, inner

    def _per_node(self, radii: np.ndarray, i0: int, i1: int) -> np.ndarray:
        """``searchsorted(radii, size)`` for nodes i0..i1-1, once per rank."""
        off = self._rank_off
        k0 = np.searchsorted(off, i0, side="right") - 1
        k1 = np.searchsorted(off, i1)
        n = np.diff(np.minimum(np.maximum(off[k0 : k1 + 1], i0), i1))
        return np.repeat(np.searchsorted(radii, self._rank_size[k0:k1]), n)

    def _blocks(self, radii: np.ndarray):
        """The nodes of the ``_select`` ranges in blocks of at most
        ``_WORK``: yields the vertex, whether the block's nodes are
        interior ones, its first node, and ``lo``, ``hi`` with each node
        serving ``radii[lo:hi]``."""
        for v, ranges in enumerate(zip(*self._select(radii))):
            for inner, span in zip((False, True), ranges):
                if span is None:
                    continue
                for a in range(span[0], span[1], _WORK):
                    b = min(a + _WORK, span[1])
                    lo = self._per_node(radii, a, b)
                    hi = np.searchsorted(radii, self.above[a:b])
                    if inner:  # the radii below both size and above
                        lo, hi = np.zeros_like(hi), np.minimum(lo, hi)
                    yield v, inner, a, lo, hi

    def _images(self, v: int, inner: bool, nodes, n, tag):
        """Pieces (see ``_feed``) of the images of vertex v's seed box under
        leaves ``nodes``, or of each of its condensation primitives under
        interior ones, each node's once for each of the n radii it serves,
        with their radius indices ``tag`` (None for one radius)."""
        name = self.graph.vertex_order[v]
        if not inner:
            yield from self._boxes(self.graph.seed_box(name), nodes, n, tag)
            return
        for prim in self.graph.condensation[name]:
            if prim.kind == "point":
                yield "point", (self._points(prim.points[0], nodes, n),), tag
            elif prim.kind == "segment":
                yield "segment", tuple(self._points(p, nodes, n) for p in prim.points), tag
            else:
                yield from self._boxes(prim.as_box(), nodes, n, tag)

    def _cost(self, v: int, cls: np.ndarray, r, axis: int) -> np.ndarray:
        """Estimated candidate runs along ``axis`` of the condensation images
        under interior nodes of classes ``cls`` at radius r (one, or one per
        node), as floats (a leaf, charged one, spans at most two cells per
        axis): what each image builds, from the grid planes it can cross per
        axis.  An oblique segment its samples, both ends and one per gap; else
        the product of its cell spans ``planes + 1`` across ``axis``, or on
        both axes for a rotated 2-d box."""
        out = np.zeros(cls.size)
        for prim in self.graph.condensation[self.graph.vertex_order[v]]:
            widths = np.abs(self._iso_stack) @ np.abs(np.subtract(prim.points[-1], prim.points[0]))
            span = self.c_ratio[cls, None] * widths[self.c_iso[cls]]
            planes = np.ceil(span / np.reshape(r, (-1, 1)))
            cost = np.prod(np.delete(planes, axis, axis=1) + 1, axis=1)
            if prim.kind == "segment":
                oblique = np.count_nonzero(planes, axis=1) > 1
                cost[oblique] = 3 + planes[oblique].sum(axis=1)
            elif prim.kind == "box":
                plain = self._table(("box", prim.as_box()))[2][cls]
                cost[~plain] *= planes[~plain, axis] + 1
            out += cost
        return out

    def pieces(self, r, axis: int):
        """Covering elements of the radius-r walk as pieces (see ``_feed``),
        one per slice of nodes and primitive; for an ascending array of
        radii, the elements of every radius together, each tagged with the
        index of its radius.

        A slice holds the nodes of a ``_blocks`` block whose share of the
        block's estimate (``_cost`` along ``axis``) starts in one window of
        ``_WORK``: at most ``_WORK`` estimated candidate runs plus one node's.
        """
        tagged = np.ndim(r) > 0
        radii = np.atleast_1d(r)
        for v, inner, a, lo, hi in self._blocks(radii):
            n = hi - lo
            live = np.flatnonzero(n > 0)
            if not live.size:
                continue
            nodes, n = live + a, n[live]
            pairs = np.cumsum(n)  # (node, radius) pairs up to each node
            # the radius index of each (node, radius) pair
            tag = np.arange(pairs[-1]) - np.repeat(pairs - n - lo[live], n) if tagged else None
            cost = pairs  # a leaf is charged one per radius
            if inner:
                cost = np.cumsum(self._cost(v, _repeat_rows(self.cls[nodes], n),
                                            r if tag is None else radii[tag], axis))[pairs - 1]
            window = np.concatenate(([0], cost[:-1])) // _WORK  # where each node's share starts
            cuts = [0, *(np.flatnonzero(np.diff(window)) + 1).tolist(), nodes.size]
            for i, j in zip(cuts, cuts[1:]):
                span = slice(pairs[i] - n[i], pairs[j - 1])  # the slice's (node, radius) pairs
                yield from self._images(v, inner, nodes[i:j], n[i:j], _take(tag, span))

    def runs(self, r, origin: np.ndarray, ids: _Ids):
        """Merged id ranges (``ids``) of the side-r cells met by the covering
        elements of the radius-r walk, tagged for an array of radii: each
        piece enters one union as ranges as it comes, so a pass holds about
        one slice's images at a time."""
        acc = _CellUnion(ids)
        for piece in self.pieces(r, ids.axis):
            _feed(piece, r, origin, acc)
        return acc.ranges()

    @functools.cached_property
    def _work_table(self) -> tuple:
        """(class, above, count) rows for ``work``, formed on its first call
        from runs of nodes with one ``above`` (a class size, or infinite) in
        one rank, and at vertices with condensation in one class: a leaf is
        charged by its size, an interior node by its class."""
        sizes = np.append(np.sort(self.c_size), np.inf)
        head = np.ones(self.cls.size, dtype=bool)
        head[1:] = self.above[1:] != self.above[:-1]
        head[self._rank_off[:-1]] = True
        for v, name in enumerate(self.graph.vertex_order):
            a, b = self._off[v], self._off[v + 1]
            if self.graph.condensation[name] and b > a:
                head[a + 1 : b] |= self.cls[a + 1 : b] != self.cls[a : b - 1]
        start = np.flatnonzero(head)
        cls = self.cls[start].astype(np.int64)
        key, which = np.unique(cls * sizes.size + np.searchsorted(sizes, self.above[start]),
                               return_inverse=True)
        return key // sizes.size, sizes[key % sizes.size], np.bincount(
            which, np.diff(start, append=self.cls.size))

    def work(self, radii: np.ndarray, axis: int) -> np.ndarray:
        """``_cost`` summed over the (node, radius) pairs of each radius of an
        ascending array, from ``_work_table``: a node is a leaf for the radii
        in [size, above), interior below both; where a class's cost does not
        depend on the radius (as at the finest one), by ranges of radii, else
        ``_WORK`` pairs at a time."""
        cls, above, count = self._work_table
        g, size = len(radii), self.c_size[cls]
        out = _range_sums(np.searchsorted(radii, size), np.searchsorted(radii, above), count, g)
        for v, name in enumerate(self.graph.vertex_order):
            if not self.graph.condensation[name]:
                continue
            at = self.c_term[cls] == v
            c, n, hi = cls[at], count[at], np.searchsorted(radii, np.minimum(size, above)[at])
            most = self._cost(v, c, radii[0], axis)
            fixed = most == self._cost(v, c, math.inf, axis)
            out += _range_sums(np.zeros_like(hi), hi, np.where(fixed, n * most, 0.0), g)
            c, n, hi = c[~fixed], n[~fixed], hi[~fixed]
            ends = np.cumsum(hi)
            for p0 in range(0, int(ends[-1]) if ends.size else 0, _WORK):
                p = np.arange(p0, min(p0 + _WORK, int(ends[-1])))
                k = np.searchsorted(ends, p, side="right")
                j = p - ends[k] + hi[k]  # the radius of pair p
                out += np.bincount(j, n[k] * self._cost(v, c[k], radii[j], axis), g)
        return out


# -- geometry sets -----------------------------------------------------------


class GeometrySet:
    """Resolution-r covering of one vertex's attractor: a view over the
    vertex's array walk, whose elements exist only as arrays."""

    def __init__(self, vertex: str, resolution: float, walk: _Walk) -> None:
        self.vertex = vertex
        self.resolution = resolution
        self._walk = walk

    @property
    def n_elements(self) -> int:
        """Each leaf's one box and each interior node's condensation images,
        counted from the walk's selection without mapping any."""
        walk = self._walk
        prims = [len(walk.graph.condensation[v]) for v in walk.graph.vertex_order]
        return sum(int(np.count_nonzero(hi > lo)) * (prims[v] if inner else 1)
                   for v, inner, _a, lo, hi in walk._blocks(np.array([self.resolution])))


def generate(graph: MWGraph, vertex: str, r: float) -> GeometrySet:
    """Covering elements for one vertex at resolution r.

    Cylinder boxes come from paths stopped the first time the image of the
    terminal seed box has diameter at most r.  Condensation shapes are
    copied along every shorter path (the stopped path's own shapes and all
    finer ones sit inside its cylinder box).
    """
    if not 0 < r < math.inf:
        raise ValueError(f"resolution r must be positive and finite, got {r!r}")
    # the origin nearest every seed-box corner, the middle of their hull: a
    # radius refused there is refused at every grid origin
    hull = _hull([graph], 0.0)
    _check_index_range(hull - (hull[0] + hull[1]) / 2, r)
    return GeometrySet(vertex, r, _Walk(graph, vertex, r))


# -- counting ----------------------------------------------------------------


def _run_axis(graph: MWGraph) -> int:
    """The axis every count of ``graph`` lays its runs along: the largest
    summed extent of the seed boxes and the condensation primitives'
    bounding boxes, the last on a tie.  Counts do not depend on it."""
    boxes = [graph.seed_box(v) for v in graph.vertex_order]
    boxes += [p.bounding_box() for v in graph.vertex_order for p in graph.condensation[v]]
    extent = np.sum([b.widths for b in boxes], axis=0)
    return graph.dimension - 1 - int(np.argmax(extent[::-1]))


def _hull(graphs: list, origin) -> np.ndarray:
    """(2, d): the low and high corners of the hull of the seed-box corners
    of ``graphs``, less ``origin``, which a count forms once for all it reads."""
    corners = np.array([c for g in graphs for b in map(g.seed_box, g.vertex_order) for c in (b.lo, b.hi)])
    return np.array([corners.min(axis=0), corners.max(axis=0)]) - origin


def _check_index_range(hull: np.ndarray, r: float) -> None:
    """Refuse a radius at which a cell index of a ``hull`` corner reaches
    2^53: past it a float does not hold every integer, so indices are not
    exact, and past 2^63 their int64 cast is invalid."""
    if not float(np.max(np.abs(hull))) / r < 2.0**53:
        raise NumericalError(f"cell indices at r = {float(r):.6g} reach 2^53, past exact float integers")


def _pass(hull: np.ndarray, walks: list, r, origin: np.ndarray, axis: int):
    """The ids of a pass at r (a radius, or an ascending array of them) of
    ``walks`` and each walk's merged ranges.  The ids span the seed boxes'
    ``hull`` at the largest and smallest radius and one cell for the 1e-9
    snap, widened until they hold every cell: one outside (an unvalidated
    graph's, or past a box within ``CONTAINMENT_TOL``) stops the pass uncounted."""
    radii = np.atleast_1d(r)[[0, -1], None]
    lo = np.floor(hull[0] / radii).min(axis=0) - 1
    hi = np.floor(hull[1] / radii).max(axis=0) + 1
    while True:
        ids = _Ids(lo, hi, np.size(r) if np.ndim(r) else None, axis)
        try:
            return ids, [w.runs(r, origin, ids) for w in walks]
        except _Outside:  # thrice the index bounds, about the same middle
            if (hi - lo).max() >= 2**53:
                raise NumericalError("covering elements reach cell indices 2^53 past the seed boxes")
            lo, hi = 2 * lo - hi - 1, 2 * hi - lo + 1


def _set_ranges(sets: list, r, grid_origin):
    """The ids of one pass over sets of one resolution and their ranges."""
    res = sets[0].resolution
    if r is not None and r != res:
        raise ValueError(f"a set generated at r = {res} is counted at that r, not {r}")
    graphs = [s._walk.graph for s in sets]
    origin = _origin_vector(grid_origin, graphs[0].dimension)
    hull = _hull(graphs, origin)
    _check_index_range(hull, res)
    return _pass(hull, [s._walk for s in sets], res, origin, _run_axis(graphs[0]))


def cell_union(
    gset: GeometrySet,
    r: float | None = None,
    *,
    grid_origin=None,
) -> set:
    """Set of grid cells met by the union of the covering elements."""
    ids, (ranges,) = _set_ranges([gset], r, grid_origin)
    return set(map(tuple, ids.cells(*ranges).tolist()))


@dataclass(frozen=True)
class CountResult:
    vertex_order: tuple[str, ...]
    per_vertex: tuple[int, ...]
    total: int

    def count(self, vertex: str) -> int:
        return self.per_vertex[self.vertex_order.index(vertex)]


def _count_runs(order, ids: _Ids, ranges: list) -> list:
    """A ``CountResult`` per radius of a pass from each vertex's merged ranges
    under ``ids``; the total is one ``_merge`` of them all."""
    per = np.array([ids.counts(*c) for c in ranges])
    live = [c for c in ranges if c[1].size]
    totals = ids.counts(*_merge(*map(np.concatenate, zip(*live)))) if len(live) > 1 else per.sum(axis=0)
    if totals.max() > CELL_CAP:
        raise ResourceLimitError(f"cell union exceeds cap {CELL_CAP}")
    return [CountResult(tuple(order), tuple(col), total)
            for col, total in zip(per.T.tolist(), totals.tolist())]


def _groups(work):
    """Consecutive index ranges whose work (``_Walk.work``) sums to at most
    ``_WORK``, greedily; a radius with more work gets a range of its own, and
    is counted alone on the one-radius path.  ``work`` is not empty."""
    start = total = 0
    for k, n in enumerate(work):
        if k > start and total + n > _WORK:
            yield start, k
            start, total = k, 0
        total += n
    yield start, len(work)


def _distinct_radii(ts: list):
    """The distinct radii e^(-t) ascending, and each t's index among them
    (t values an ulp apart can share a radius)."""
    return np.unique(np.array([math.exp(-t) for t in ts], dtype=float), return_inverse=True)


def _totals(graph: MWGraph, origin: np.ndarray, ts) -> dict[float, CountResult]:
    """Per-vertex counts N_v(t) and the total over all vertices at each t on
    the grid at ``origin``, deduplicated across vertices.

    One walk per vertex, down to the finest radius, serves every t; the radii
    are counted a group (``_groups``) at a time, each in one array pass per
    vertex.  Nothing outlives the call.
    """
    order = graph.vertex_order
    ts = list(set(ts))
    radii, which = _distinct_radii(ts)
    if not radii.size:
        return {}
    hull, results = _hull([graph], origin), []
    _check_index_range(hull, radii[0])
    axis = _run_axis(graph)
    walks = [_Walk(graph, v, radii[0]) for v in order]
    for a, b in _groups(sum(w.work(radii, axis) for w in walks)):
        r = radii[a] if b - a == 1 else radii[a:b]
        results += _count_runs(order, *_pass(hull, walks, r, origin, axis))
    return {t: results[k] for t, k in zip(ts, which.tolist())}


def count(
    sets,
    r: float | None = None,
    grid_origin=None,
) -> CountResult:
    """Per-vertex and total cell counts for one or several covering sets.

    The total deduplicates cells shared between vertices, so it equals the
    count of the union attractor on the common grid; sets of different
    resolutions or dimensions share no grid and are refused.
    """
    if isinstance(sets, GeometrySet):
        sets = {sets.vertex: sets}
    for what, values in (("dimensions", {s._walk.graph.dimension for s in sets.values()}),
                         ("radii", {s.resolution for s in sets.values()})):
        if len(values) > 1:
            raise ValueError(f"sets of {what} {sorted(values)} share no grid")
    if not sets:
        return CountResult((), (), 0)
    return _count_runs(sets, *_set_ranges(list(sets.values()), r, grid_origin))[0]


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

    def t_values(self) -> np.ndarray:
        return np.array([s.t for s in self.samples])

    def totals(self) -> np.ndarray:
        return np.array([s.total for s in self.samples])

    def ratio_matrix(self) -> np.ndarray:
        """One row per sample, one column per vertex."""
        return np.array([s.ratios for s in self.samples])

    def total_ratios(self) -> np.ndarray:
        return np.array([s.ratio_total for s in self.samples])


def profile_at(
    graph: MWGraph,
    t_points,
    *,
    spectral: SpectralData | None = None,
    grid_origin=None,
) -> CoveringProfile:
    """Covering profile at explicit t samples.

    ``t_points`` holds floats, or ``(t, n, y)`` triples in lattice mode
    where ``t = n * tau + y`` records the decomposition used downstream.
    One walk per vertex, sized for the largest t, serves every sample, and
    the samples are counted a group of radii at a time.
    """
    if spectral is None:
        spectral = solve_s0(graph)
    origin = _origin_vector(grid_origin, graph.dimension)
    normalized = []
    for item in t_points:
        item = item if isinstance(item, tuple) else (float(item), None, None)
        if not math.isfinite(item[0]):
            raise ValueError(f"t_points must be finite, got {item[0]!r}")
        normalized.append(item)
    normalized.sort(key=lambda x: x[0])
    counted = _totals(graph, origin, [t for t, _n, _y in normalized])
    samples = []
    for t, n, y in normalized:
        r = math.exp(-t)
        res = counted[t]
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
) -> CoveringProfile:
    """Uniform-in-t profile, or per-period sampling when ``period`` is set.

    In lattice mode ``samples`` counts the y-offsets per period; every
    t = n*period + y inside [t_min, t_max] is sampled.  A request for more
    than ``CELL_CAP`` samples (uniform ones, or ``samples`` per whole period
    n in the range) raises ``ResourceLimitError`` before any is built.  This
    builds every t-grid of the package, ``analyze``'s included.
    """
    for name, x in (("t_min", t_min), ("t_max", t_max), ("period", period or 1.0)):
        if not math.isfinite(x):
            raise ValueError(f"{name} must be finite, got {x!r}")
    if t_max < t_min:
        raise ValueError("t_max must be at least t_min")
    if isinstance(samples, bool) or not isinstance(samples, (int, np.integer)) or samples < 1:
        raise ValueError(f"samples must be an integer of at least 1, got {samples!r}")
    if period is not None and period <= 0:
        raise ValueError("period must be positive")
    n_samples = samples = int(samples)
    if period is not None:
        # periods in the range as a float first, so a tiny period gives inf or nan, not an overflow
        if math.isfinite(t_max / period - t_min / period):
            n_lo = math.ceil(t_min / period - 1e-12)
            n_hi = math.floor(t_max / period + 1e-12)
            n_samples = (n_hi - n_lo + 1) * samples
        else:
            n_samples = math.inf
    if n_samples > CELL_CAP:
        raise ResourceLimitError(f"profile needs {n_samples} samples (cap {CELL_CAP})")
    if period is None:
        points: list = np.linspace(t_min, t_max, samples).tolist()
    else:
        y_values = [m * period / samples for m in range(samples)]
        points = [
            p
            for p in lattice_grid(period, range(n_lo, n_hi + 1), y_values)
            if t_min - 1e-12 <= p[0] <= t_max + 1e-12
        ]
        if not points:
            raise ValueError("no lattice sample points inside the t-range")
    return profile_at(graph, points, spectral=spectral, grid_origin=grid_origin)


# -- condensation scale integral ---------------------------------------------


@dataclass(frozen=True)
class IntegralResult:
    """Convergence verdict of the condensation count-decay integral.

    ``exponent`` is the largest box dimension k among the vertex's shapes
    (0 with no condensation), the exponent the verdict compares with s0.
    """

    kind: str  # "Finite", "Infinite", or "Inconclusive"
    exponent: float


def condensation_integral(
    graph: MWGraph, vertex: str, spectral: SpectralData | None = None
) -> IntegralResult:
    """Whether the integral of e^(-s0 t) times the condensation cell count
    over t >= 0 converges.

    The count grows like e^(k t) for the largest box dimension k among the
    vertex's shapes, so the integral is finite when k < s0 and infinite when
    k > s0; a gap below 1e-9 is reported as inconclusive rather than
    resolved by rounding.  The integral's value is not computed.
    """
    if spectral is None:
        spectral = solve_s0(graph)
    s0 = spectral.s0
    prims = graph.condensation[vertex]
    if not prims:
        return IntegralResult("Finite", 0.0)
    k = float(max(p.box_dimension() for p in prims))
    if abs(k - s0) <= 1e-9:
        return IntegralResult("Inconclusive", k)
    return IntegralResult("Infinite" if k > s0 else "Finite", k)


# -- the count reader of the forcing oracle ----------------------------------


class ForcingContext:
    """Covering counts N_v(t) on one grid, read one ``(vertex, t)`` at a
    time: the count reader of the renewal forcing's test oracle."""

    def __init__(self, graph: MWGraph, grid_origin=None) -> None:
        self.graph = graph
        self.origin = _origin_vector(grid_origin, graph.dimension)
        self.counts: dict[tuple[str, float], int] = {}

    def fill(self, vertex: str, ts) -> None:
        """Count every vertex at each t of ``ts`` that ``vertex`` lacks."""
        todo = {float(t) for t in ts if (vertex, float(t)) not in self.counts}
        for t, res in _totals(self.graph, self.origin, todo).items():
            self.counts.update(((v, t), c) for v, c in zip(res.vertex_order, res.per_vertex))

    def count_at(self, vertex: str, t: float) -> int:
        key = (vertex, float(t))
        if key not in self.counts:
            self.fill(vertex, [t])
        return self.counts[key]
