"""Atomic measures on the half line, matrix convolution, and renewal sums.

The solver works with purely atomic finite measures whose atoms sit at
strictly positive locations.  That makes the k-fold convolution series for
the renewal equation ``f = f * M + L`` exact on bounded windows: the k-th
term is supported in ``[k * lambda_min, infinity)``, so on ``[0, T]`` the
series is a finite sum once ``k`` exceeds ``T / lambda_min``.

Convolution is oriented for row vectors: ``(f * M)_j = sum_l f_l * M[l][j]``.
For a system with dimension data, :func:`transfer_measure` builds the
canonical matrix whose (i, j) entry collects the edges from j to i, so its
mass matrix is the transpose of the pressure matrix at ``s0``.

The series runs one term layer at a time over the whole vector.  A layer
holds its n step functions as flat breakpoints, values and lengths, and
each step is a fixed number of array passes for all of them: one gather
makes every shifted, scaled copy, one merge sums the copies of each entry
with several atoms, one merge sums each column's entries in increasing l,
one pass clips at the horizon, and one merge adds the term to the running
total.  :func:`_merge` is the one kernel behind all of these and behind
:func:`add_steps` and :meth:`StepFunction.convolve_measure`; it orders each
group's breakpoints with one stable ``argsort`` and does the rest as array
passes over the layer.  Before each merge, :func:`_settle` splits off the
prefix of the running total that no later term can change, so each merge
reads only the tail that can.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .covering import CELL_CAP
from .errors import NumericalError, ResourceLimitError, ValidationError

__all__ = [
    "AtomicMeasure",
    "MatrixMeasure",
    "StepFunction",
    "transfer_measure",
    "renewal_solve",
    "check_dri",
    "limit_value",
    "RenewalLimit",
]

ATOM_MERGE_TOL = 1e-12
MASS_TOL = 1e-9
LATTICE_ALIGN_TOL = 1e-9


def _anchors(x: np.ndarray, tol: float, heads=None) -> np.ndarray:
    """Mask of the values a left-to-right anchored merge keeps.

    ``x`` is nonempty and sorted within each run that starts at an index of
    ``heads`` (index 0 alone when None); each run is merged on its own.
    Walking left to right, a value is kept (and becomes the anchor) when it
    lies more than ``tol`` above the current anchor; otherwise it merges
    into that anchor.  A value more than ``tol`` above its predecessor
    therefore always starts a cluster.  A cluster spanning at most ``tol``,
    as every cluster of one or two values does, keeps only its head; only
    wider clusters, rare in practice, need the sequential walk, and it
    steps through all of them at once, one member at a time.
    """
    keep = np.empty(x.size, dtype=bool)
    keep[0] = True
    np.greater(x[1:] - x[:-1], tol, out=keep[1:])
    if heads is not None:
        keep[heads] = True
    loose = ~keep
    # chain[i]: x[i] and x[i + 1] both merge, so a cluster of three or more
    # runs from the value before the first of a run of chains
    chain = loose[1:] & loose[:-1]
    del loose
    links = chain.nonzero()[0]
    del chain
    if not links.size:
        return keep
    cuts = (links[1:] - links[:-1] > 1).nonzero()[0]
    first = links[np.append(0, cuts + 1)] - 1
    span = links[np.append(cuts, links.size - 1)] + 1 - first
    wide = x[first + span] - x[first] > tol
    if not wide.any():
        return keep
    first, span = first[wide], span[wide]
    anchor = x[first]
    for p in range(1, int(span.max()) + 1):
        on = span >= p
        k = first[on] + p
        moved = x[k] - anchor[on] > tol
        keep[k] = moved
        anchor[on] = np.where(moved, x[k], anchor[on])
    return keep


def _merge_atoms(locations: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort and merge atoms closer than the merge tolerance.

    The merged atom keeps the location of the first member of its group,
    which preserves exact grid alignment in lattice systems.  Its weight
    is the group's weights summed in location order, one at a time.
    """
    if locations.size == 0:
        return locations, weights
    order = np.argsort(locations, kind="stable")
    locations = locations[order]
    weights = weights[order]
    heads = np.flatnonzero(_anchors(locations, ATOM_MERGE_TOL))
    if heads.size == locations.size:
        return locations, weights
    sizes = np.diff(np.append(heads, locations.size))
    acc = weights[heads]
    for p in range(1, int(sizes.max())):
        grow = sizes > p
        acc[grow] += weights[heads[grow] + p]
    return locations[heads], acc


class AtomicMeasure:
    """A finite purely atomic measure on [0, infinity).

    Atoms are kept sorted by location with strictly positive weights;
    construction merges locations that agree to within 1e-12.
    """

    __slots__ = ("locations", "weights")

    def __init__(self, locations, weights) -> None:
        loc = np.array(locations, dtype=float).ravel()
        w = np.array(weights, dtype=float).ravel()
        if loc.shape != w.shape:
            raise ValueError("locations and weights must have equal length")
        if not (np.isfinite(loc).all() and np.isfinite(w).all()):
            raise ValidationError("atom locations and weights must be finite")
        if loc.size and loc.min() < -ATOM_MERGE_TOL:
            raise ValidationError("atom locations must be nonnegative")
        if (w < 0).any():
            raise ValidationError("atom weights must be positive")
        keep = w > 0
        loc, w = loc[keep], w[keep]
        loc = np.maximum(loc, 0.0)
        loc, w = _merge_atoms(loc, w)
        loc.setflags(write=False)
        w.setflags(write=False)
        self.locations = loc
        self.weights = w

    @classmethod
    def zero(cls) -> "AtomicMeasure":
        return cls([], [])

    @classmethod
    def from_atoms(cls, pairs) -> "AtomicMeasure":
        pairs = list(pairs)
        return cls([p[0] for p in pairs], [p[1] for p in pairs])

    @property
    def n_atoms(self) -> int:
        return int(self.locations.size)

    @property
    def is_zero(self) -> bool:
        return self.locations.size == 0

    def total_mass(self) -> float:
        return float(self.weights.sum())

    def first_moment(self) -> float:
        return float((self.locations * self.weights).sum())

    def min_location(self) -> float | None:
        return float(self.locations[0]) if self.locations.size else None

    def __repr__(self) -> str:  # pragma: no cover
        return f"AtomicMeasure({self.n_atoms} atoms, mass={self.total_mass():.6g})"


class MatrixMeasure:
    """A square matrix of atomic measures under row-times-column convolution.

    Its nonzero entries are listed once, in row-major order, and everything
    below walks only them.  The mass matrix, its right Perron run and the
    atom table of :func:`vector_convolve` are computed once, on first use.
    """

    __slots__ = ("entries", "_nonzero", "_mass", "_perron", "_atoms")

    def __init__(self, entries: Sequence[Sequence[AtomicMeasure]]) -> None:
        rows = [tuple(row) for row in entries]
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix of measures must be square")
        self.entries = tuple(rows)
        self._nonzero = tuple((i, j, mu) for i, row in enumerate(rows)
                              for j, mu in enumerate(row) if mu.locations.size)
        self._mass = None
        self._perron = None
        self._atoms = None

    @property
    def n(self) -> int:
        return len(self.entries)

    def entry(self, i: int, j: int) -> AtomicMeasure:
        return self.entries[i][j]

    def _filled(self, value) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        for i, j, mu in self._nonzero:
            out[i, j] = value(mu)
        return out

    def mass_matrix(self) -> np.ndarray:
        """Total masses of the entries (read-only, computed once)."""
        if self._mass is None:
            self._mass = self._filled(AtomicMeasure.total_mass)
            self._mass.setflags(write=False)
        return self._mass

    def moment_matrix(self) -> np.ndarray:
        return self._filled(AtomicMeasure.first_moment)

    def min_location(self) -> float | None:
        return min((mu.min_location() for _, _, mu in self._nonzero), default=None)

    def _atom_table(self) -> tuple[np.ndarray, ...]:
        """The atoms of the nonzero entries, entries in column-major (j, l)
        order and each entry's atoms in location order: every atom's row l,
        column j, location, weight and entry, then every entry's column."""
        if self._atoms is None:
            cells = sorted(self._nonzero, key=lambda cell: (cell[1], cell[0]))
            sizes = [mu.locations.size for _, _, mu in cells]
            entry_cols = np.array([j for _, j, _ in cells], dtype=np.intp)
            self._atoms = (
                np.repeat(np.array([l for l, _, _ in cells], dtype=np.intp), sizes),
                np.repeat(entry_cols, sizes),
                np.concatenate([mu.locations for _, _, mu in cells] or [np.empty(0)]),
                np.concatenate([mu.weights for _, _, mu in cells] or [np.empty(0)]),
                np.repeat(np.arange(len(cells)), sizes),
                entry_cols,
            )
        return self._atoms

    def _right_perron(self) -> tuple[float, np.ndarray]:
        """Spectral radius and right Perron vector of the mass matrix, from
        one eigensolve shared by every caller.

        The renewal theorem needs an irreducible mass matrix with spectral
        radius one; both are checked here, before the result is kept, so a
        matrix that passes is checked once.
        """
        if self._perron is None:
            from .spectral import _perron, is_irreducible

            mass = self.mass_matrix()
            if not is_irreducible(mass):
                raise NumericalError("renewal matrix is reducible")
            rho, right = _perron(mass)
            if abs(rho - 1.0) > MASS_TOL:
                raise NumericalError(
                    f"renewal matrix mass has spectral radius {rho}, expected 1"
                )
            self._perron = rho, right
        return self._perron



def transfer_measure(graph, s0: float) -> MatrixMeasure:
    """Canonical renewal matrix of a system at its dimension.

    Entry (i, j) is ``sum_e ratio_e^s0 * dirac(-log ratio_e)`` over the
    edges from vertex j to vertex i, so ``mass_matrix()`` equals the
    transpose of the pressure matrix at ``s0``.
    """
    n = graph.n_vertices
    atoms: list[list[list[tuple[float, float]]]] = [
        [[] for _ in range(n)] for _ in range(n)
    ]
    for e in graph.edges.values():
        i = graph.vertex_index(e.dst)
        j = graph.vertex_index(e.src)
        atoms[i][j].append((e.log_ratio, e.ratio**s0))
    # the arrays of a measure are read-only, so empty entries can share one
    zero = AtomicMeasure.zero()
    return MatrixMeasure(
        [[AtomicMeasure.from_atoms(cell) if cell else zero for cell in row] for row in atoms]
    )


class StepFunction:
    """Right-continuous piecewise-constant function vanishing at minus infinity.

    ``values[k]`` holds on ``[breakpoints[k], breakpoints[k+1])`` and the
    last value extends to infinity; the function is zero left of the first
    breakpoint.
    """

    __slots__ = ("breakpoints", "values")

    def __init__(self, breakpoints, values) -> None:
        bp = np.array(breakpoints, dtype=float).ravel()
        vals = np.array(values, dtype=float).ravel()
        if bp.shape != vals.shape:
            raise ValueError("breakpoints and values must have equal length")
        if np.isnan(bp).any() or not (bp[1:] > bp[:-1]).all():
            raise ValueError("breakpoints must be strictly increasing")
        bp.setflags(write=False)
        vals.setflags(write=False)
        self.breakpoints = bp
        self.values = vals

    @classmethod
    def _wrap(cls, bp: np.ndarray, vals: np.ndarray) -> "StepFunction":
        """Adopt float arrays already known to be valid, without copying."""
        bp.setflags(write=False)
        vals.setflags(write=False)
        f = object.__new__(cls)
        f.breakpoints = bp
        f.values = vals
        return f

    @classmethod
    def zero(cls) -> "StepFunction":
        return cls._wrap(np.empty(0), np.empty(0))

    @classmethod
    def indicator(cls, a: float, b: float) -> "StepFunction":
        if not b > a:
            raise ValueError("indicator needs a < b")
        return cls([a, b], [1.0, 0.0])

    @property
    def is_zero(self) -> bool:
        return self.breakpoints.size == 0 or not self.values.any()

    @property
    def support_end(self) -> float:
        """Last breakpoint (the function is constant beyond it)."""
        return float(self.breakpoints[-1]) if self.breakpoints.size else -math.inf

    def __call__(self, t):
        ts = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.breakpoints, ts, side="right") - 1
        if self.breakpoints.size == 0:
            vals = np.zeros_like(ts)
        else:
            vals = np.where(idx >= 0, self.values[np.maximum(idx, 0)], 0.0)
        return float(vals) if ts.ndim == 0 else vals

    def __add__(self, other: "StepFunction") -> "StepFunction":
        return add_steps([self, other])

    def clipped(self, t_max: float) -> "StepFunction":
        """Restrict to ``(-inf, t_max)``: beyond ``t_max`` the value is zero."""
        bp, vals, _ = _clip(self.breakpoints, self.values, np.array([self.breakpoints.size]), t_max)
        return StepFunction._wrap(bp, vals)

    def integral(self) -> float:
        """Lebesgue integral; infinite when the final value is nonzero."""
        if self.breakpoints.size == 0:
            return 0.0
        if self.values[-1] != 0.0:
            return math.inf if self.values[-1] > 0 else -math.inf
        widths = np.diff(self.breakpoints)
        return float((self.values[:-1] * widths).sum())

    def convolve_measure(self, mu: AtomicMeasure) -> "StepFunction":
        """Convolution with an atomic measure: a sum of shifted scaled copies."""
        if self.is_zero or mu.is_zero:
            return StepFunction.zero()
        rows = np.zeros(mu.n_atoms, dtype=np.intp)
        layer, sizes = _copies(self.breakpoints, self.values, np.array([self.breakpoints.size]),
                               rows, mu.locations, mu.weights)
        bp, vals, _ = _merge(layer, sizes, rows, 1)
        return StepFunction._wrap(bp, vals)

    def __repr__(self) -> str:  # pragma: no cover
        return f"StepFunction({self.breakpoints.size} pieces)"


def _offsets(lengths: np.ndarray) -> np.ndarray:
    """Where each run of ``lengths`` laid end to end starts, then their total."""
    out = np.zeros(lengths.size + 1, dtype=np.intp)
    lengths.cumsum(out=out[1:])
    return out


def _spans(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Indices of the runs ``[starts[k], starts[k] + lengths[k])``, laid end
    to end: int32 while they fit, which halves their memory."""
    ends = lengths.cumsum()
    total = int(ends[-1]) if ends.size else 0
    kind = np.int32 if total + int(starts.max(initial=0)) < 2**31 else np.intp
    idx = np.arange(total, dtype=kind)
    idx += (starts - ends + lengths).astype(kind).repeat(lengths)
    return idx


def _flatten(fs: Sequence[StepFunction]):
    """Step functions as one layer: breakpoints, values and lengths laid end to end."""
    if not fs:
        return np.empty(0), np.empty(0), np.zeros(0, dtype=np.intp)
    return (np.concatenate([f.breakpoints for f in fs]),
            np.concatenate([f.values for f in fs]),
            np.array([f.breakpoints.size for f in fs], dtype=np.intp))


def _functions(bp: np.ndarray, vals: np.ndarray, lens: np.ndarray) -> list[StepFunction]:
    """A layer as step functions, each a view of its run."""
    offs = _offsets(lens).tolist()
    return [StepFunction._wrap(bp[a:b], vals[a:b]) for a, b in zip(offs[:-1], offs[1:])]


def _clip(bp: np.ndarray, vals: np.ndarray, lens: np.ndarray, t_max: float):
    """Restrict every function of a layer to ``(-inf, t_max)``: the
    breakpoints below are a prefix, and a nonzero last value ends at
    ``t_max``."""
    if not bp.size:
        return bp, vals, lens
    below = bp < t_max
    offs = _offsets(lens)
    kept = _offsets(below)[offs]
    kept = kept[1:] - kept[:-1]
    cap = (kept > 0) & (vals[offs[:-1] + kept - 1] != 0.0)
    if not cap.any():
        if below.all():
            return bp, vals, lens
        return bp.compress(below), vals.compress(below), kept
    lens = kept + cap
    ends = lens.cumsum()[cap] - 1
    held = np.ones(int(lens.sum()), dtype=bool)
    held[ends] = False
    out_bp, out_vals = np.empty(held.size), np.empty(held.size)
    out_bp[held] = bp.compress(below)
    out_vals[held] = vals.compress(below)
    out_bp[ends] = t_max
    out_vals[ends] = 0.0
    return out_bp, out_vals, lens


def _sorted_zero_signs(union: np.ndarray, x: np.ndarray, bounds: list) -> None:
    """Give each group of ``union`` that ties -0.0 with +0.0 the order
    ``np.sort`` gives those zeros, as sorting the group's breakpoints
    would: the tie's first zero becomes the anchor, sign and all."""
    if not (np.signbit(union) & (union == 0.0)).any():
        return
    for a, b in zip(bounds[:-1], bounds[1:]):
        signs = np.signbit(union[a:b][union[a:b] == 0.0])
        if signs.any() and not signs.all():
            union[a:b] = np.sort(x[a:b])


def _merge(layer: list, sizes: np.ndarray, group: np.ndarray, n_groups: int):
    """Pointwise sums of groups of step functions, every group at once.

    ``layer`` holds the breakpoints and values of the summands laid end to
    end, summand s the next ``sizes[s]`` of them; the merge takes them out
    of it, so that a caller keeping no other reference lets them go once
    read, and it may write over them.  The summands of group g are those with
    ``group[s] == g``, in order; ``group`` does not decrease.  Empty
    summands are dropped: a group left with none sums to the empty
    function, and one left with one to that summand, as it is.  The other
    groups are merged:

    - each group's breakpoints are ordered by one stable ``argsort`` and
      anchored within ``ATOM_MERGE_TOL``;
    - every summand is read at each ``anchor + ATOM_MERGE_TOL``, past the
      merge window: a dropped near-duplicate breakpoint sits at most
      ``ATOM_MERGE_TOL`` above its anchor, and reading a summand below its
      own jump would silently shed that jump's mass.  A breakpoint is
      first read at the first anchor whose point reaches it, so a
      summand's readings are 0.0 and then each of its values in turn, one
      ``repeat`` for all summands;
    - the readings are added from +0.0 one summand after another, in the
      order given, so the sum at each point is rounded the same way
      whatever the vectorization (a 0.0 reading changes no sum, as no sum
      is -0.0);
    - runs of equal values collapse.

    Returns the sums laid end to end and their lengths.  When some groups
    are merged and some not, the sums are written over the front of the
    given arrays: no group grows.
    """
    bp, vals = layer
    layer.clear()
    full = sizes > 0
    parts = np.bincount(group[full], minlength=n_groups)
    lens = np.bincount(group, weights=sizes, minlength=n_groups).astype(np.intp)
    merged = parts > 1
    if not merged.any():
        return bp, vals, lens
    mg = merged.nonzero()[0]
    joint = merged[group] & full
    sizes, group = sizes[joint], group[joint]
    # the elements of the merged groups, unless they are all there are
    inside = None if np.count_nonzero(joint) == np.count_nonzero(full) else merged.repeat(lens)
    if inside is None:
        x, xv = bp, vals
        del bp, vals
    else:
        x, xv = bp.compress(inside), vals.compress(inside)
    span = _offsets(lens[mg])
    bounds = span.tolist()
    order = np.empty(x.size, dtype=np.int32 if x.size < 2**31 else np.intp)
    for a, b in zip(bounds[:-1], bounds[1:]):
        order[a:b] = x[a:b].argsort(kind="stable")
    if mg.size > 1:
        order += span[:-1].astype(order.dtype).repeat(lens[mg])
    union = x.take(order)
    if np.signbit(union).any():
        _sorted_zero_signs(union, x, bounds)
    del x
    keep = _anchors(union, ATOM_MERGE_TOL, span[:-1])
    anchors = union.compress(keep)
    # the first anchor that reads each breakpoint is its own cluster's,
    # unless rounding took the point of the anchor before past it, or the
    # point of its own short of it.  A breakpoint merges into an anchor a
    # when their rounded difference is at most ATOM_MERGE_TOL; away from 0
    # that difference is exact (Sterbenz), so the rounded point a +
    # ATOM_MERGE_TOL reaches the breakpoint, and only an anchor within a
    # few tolerances of 0 can stop short
    reads = keep.cumsum(dtype=order.dtype)
    reads -= 1
    # each group's first anchor, then the count of all
    first = np.append(reads[span[:-1]], anchors.size)
    past = anchors[1:] <= anchors[:-1] + ATOM_MERGE_TOL
    past[first[1:-1] - 1] = False
    tiny = (np.abs(anchors) < 4 * ATOM_MERGE_TOL) & (anchors != 0.0)
    stray = np.count_nonzero(past) > 0
    if not stray and np.count_nonzero(tiny):
        stray = (union > anchors.take(reads) + ATOM_MERGE_TOL).any()
    if stray:
        points = anchors + ATOM_MERGE_TOL
        reach = np.append(keep.nonzero()[0][1:], union.size)
        ends = span[1:].repeat(first[1:] - first[:-1])
        tail = np.append(union, math.inf)
        while (step := (reach < ends) & (tail[reach] <= points)).any():
            reach += step
        while (step := union[reach - 1] > points).any():
            reach -= step
        # the anchors before the first that reads a breakpoint stop short of it
        reads = np.bincount(reach, minlength=union.size + 1).cumsum()[:-1]
        del points, ends, tail, step, reach
    del past, tiny, stray, keep, union
    # summand t reads 0.0 from its group's first anchor to the first anchor
    # that reads its first breakpoint, then each value up to the next
    # breakpoint's first anchor, and the last up to its group's end.  Its
    # slots, a 0.0 and then its values, are laid out rank by rank, so the
    # readings of each rank are one repeat of one run of slots.  The stable
    # sort keeps each summand's breakpoints in order
    local = mg.searchsorted(group)
    rank = np.arange(group.size) - group.searchsorted(group)
    by_rank = rank.argsort(kind="stable")
    slots = sizes[by_rank] + 1
    bounds = _offsets(slots)
    zero = np.empty_like(bounds[:-1])
    zero[by_rank] = bounds[:-1]
    bounds = bounds[_offsets(np.bincount(rank))].tolist()
    held = np.arange(order.size, dtype=order.dtype)
    held += (zero + 1 - sizes.cumsum() + sizes).astype(order.dtype).repeat(sizes)
    start = np.empty(bounds[-1], dtype=reads.dtype)
    start[zero] = first[local]
    start[held.take(order)] = reads
    del order, reads
    runs = np.empty(start.size, dtype=np.intp)
    np.subtract(start[1:], start[:-1], out=runs[:-1])
    zero += sizes
    runs[zero] = first[local + 1] - start[zero]
    del start, zero
    source = np.zeros(runs.size)
    source[held] = xv
    del held, xv
    per = first[1:] - first[:-1]
    count = parts[mg]
    total = np.zeros(first[-1])
    for r, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
        if r < 2:
            total += source[a:b].repeat(runs[a:b])
        else:
            on = count > r
            total[_spans(first[:-1][on], per[on])] += source[a:b].repeat(runs[a:b])
    del source, runs
    change = np.empty(total.size, dtype=bool)
    change[0] = True
    np.not_equal(total[1:], total[:-1], out=change[1:])
    change[first[:-1]] = True
    lens[mg] = np.add.reduceat(change, first[:-1], dtype=np.intp)
    sums_bp, sums_vals = anchors.compress(change), total.compress(change)
    del anchors, total, change
    if inside is None:
        return sums_bp, sums_vals, lens
    out = merged.repeat(lens)
    out_bp, out_vals = bp[:out.size], vals[:out.size]
    # the unmerged groups move first, as the sums may land on them
    np.logical_not(out, out=out)
    np.logical_not(inside, out=inside)
    out_bp[out] = bp.compress(inside)
    out_vals[out] = vals.compress(inside)
    np.logical_not(out, out=out)
    out_bp[out] = sums_bp
    out_vals[out] = sums_vals
    return out_bp, out_vals, lens


def _copies(bp: np.ndarray, vals: np.ndarray, lens: np.ndarray,
            rows: np.ndarray, locations: np.ndarray, weights: np.ndarray):
    """Every atom's copy of its row's function of a layer, shifted by its
    location and scaled by its weight, all in one gather."""
    sizes = lens[rows]
    src = _spans(_offsets(lens)[rows], sizes)
    shifted = bp.take(src)
    scaled = vals.take(src)
    del src
    shifted += locations.repeat(sizes)
    scaled *= weights.repeat(sizes)
    # a shift can round neighbouring breakpoints onto each other
    drops = shifted[1:] <= shifted[:-1]
    drops[sizes.cumsum()[:-1] - 1] = False
    if drops.any():
        raise ValueError("breakpoints must be strictly increasing")
    return [shifted, scaled], sizes


def add_steps(fns: Sequence[StepFunction]) -> StepFunction:
    """Pointwise sum of step functions with breakpoint merging."""
    *layer, lens = _flatten(list(fns))
    bp, vals, _ = _merge(layer, lens, np.zeros(lens.size, dtype=np.intp), 1)
    return StepFunction._wrap(bp, vals)


def vector_convolve(fs: Sequence[StepFunction], m: MatrixMeasure) -> list[StepFunction]:
    """Row vector times matrix: ``(f * M)_j = sum_l f_l * M[l][j]``."""
    if len(fs) != m.n:
        raise ValueError("vector length must match matrix size")
    return _functions(*_vector_convolve(*_flatten(fs), m))


def _vector_convolve(bp: np.ndarray, vals: np.ndarray, lens: np.ndarray, m: MatrixMeasure):
    """:func:`vector_convolve` of a layer.  Only the products of nonzero
    functions and entries contribute: an entry with several atoms sums its
    copies first, and then each column sums its entries in increasing l,
    as ``sum_l f_l * M[l][j]`` reads."""
    rows, cols, locations, weights, entries, entry_cols = m._atom_table()
    nonzero = _offsets(vals != 0.0)[_offsets(lens)]
    live = (nonzero[1:] > nonzero[:-1])[rows]
    if not live.all():
        rows, cols, locations, weights, entries = (
            rows[live], cols[live], locations[live], weights[live], entries[live])
    if not rows.size:
        return np.empty(0), np.empty(0), np.zeros(m.n, dtype=np.intp)
    layer, sizes = _copies(bp, vals, lens, rows, locations, weights)
    del bp, vals
    if (entries[1:] == entries[:-1]).any():
        *layer, sizes = _merge(layer, sizes, entries, entry_cols.size)
        cols = entry_cols
    return _merge(layer, sizes, cols, m.n)


def check_dri(forcing: Sequence[StepFunction]) -> bool:
    """Whether every component of the forcing is directly Riemann integrable.

    A step function with finitely many pieces is directly Riemann
    integrable exactly when its breakpoints and values are finite, it
    vanishes on the negative axis and its last value is zero.
    """
    return all(
        np.isfinite(f.breakpoints).all()
        and np.isfinite(f.values).all()
        and _vanishes_on_negatives(f)
        and (f.values.size == 0 or f.values[-1] == 0.0)
        for f in forcing
    )


def _vanishes_on_negatives(f: StepFunction) -> bool:
    """Whether ``f`` is zero on every piece that starts before 0."""
    before = f.breakpoints < 0
    return not f.values[before].any()


def _require_renewal_preconditions(m: MatrixMeasure, forcing: Sequence[StepFunction]) -> float:
    m._right_perron()  # irreducible with unit mass, or NumericalError
    lam = m.min_location()
    if lam is None or lam <= 0:
        raise ValidationError("renewal matrix needs atoms at strictly positive locations")
    if not all(_vanishes_on_negatives(f) for f in forcing):
        raise ValidationError("forcing must vanish for x < 0")
    return lam


def _interleave(a, b):
    """Two layers as the summands ``a_0, b_0, a_1, b_1, ...`` laid end to end."""
    (abp, avals, alens), (bbp, bvals, blens) = a, b
    sizes = np.empty(2 * alens.size, dtype=np.intp)
    sizes[0::2] = alens
    sizes[1::2] = blens
    from_a = np.zeros(sizes.size, dtype=bool)
    from_a[0::2] = True
    from_a = from_a.repeat(sizes)
    bp, vals = np.empty(from_a.size), np.empty(from_a.size)
    bp[from_a] = abp
    vals[from_a] = avals
    np.logical_not(from_a, out=from_a)
    bp[from_a] = bbp
    vals[from_a] = bvals
    return [bp, vals], sizes


def _settle(total, bound: float, settled: list):
    """Split the settled prefix off every function of the running total.

    No later term has a breakpoint below ``bound``, so every later merge
    keeps a breakpoint p of a function of the total as it is when:

    - p + ATOM_MERGE_TOL lies below the bound;
    - the next breakpoint lies above p + ATOM_MERGE_TOL and more than
      ATOM_MERGE_TOL from p, so p stays an anchor that reads its own value;
    - that value differs from the one before, so no collapse drops it;
    - it is not -0.0, which a merge adds up to +0.0.

    Of each function's longest prefix of such breakpoints, all but the last
    move to ``settled``.  The last stays first in the total, so the rest of
    the total sees before it the anchor and the value a merge of the whole
    would, and it was checked against the value before it.
    """
    bp, vals, lens = total
    offs = _offsets(lens)
    reach = bp + ATOM_MERGE_TOL
    fixed = reach < bound
    after = np.empty_like(bp)
    after[:-1] = bp[1:]
    after[offs[1:] - 1] = math.inf
    fixed &= after > reach
    del reach
    after -= bp
    fixed &= after > ATOM_MERGE_TOL
    del after
    changed = np.empty_like(fixed)
    np.not_equal(vals[1:], vals[:-1], out=changed[1:])
    changed[offs[:-1][lens > 0]] = True
    fixed &= changed
    fixed &= ~(np.signbit(vals) & (vals == 0.0))
    del changed
    stops = (~fixed).nonzero()[0]
    del fixed
    stop = np.append(stops, bp.size)[stops.searchsorted(offs[:-1])]
    moved = np.minimum(stop, offs[1:]) - offs[:-1] - 1
    np.maximum(moved, 0, out=moved)
    if not moved.any():
        return total
    src = _spans(offs[:-1], moved)
    settled.append((bp.take(src), vals.take(src), moved))
    src = _spans(offs[:-1] + moved, lens - moved)
    return bp.take(src), vals.take(src), lens - moved


def _assemble(parts: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Layers laid function by function: each function is the runs of its
    component in ``parts``, in order.  Each part is dropped once placed."""
    lens = np.sum([p[2] for p in parts], axis=0)
    out = _offsets(lens)[:-1]
    bp, vals = np.empty(int(lens.sum())), np.empty(int(lens.sum()))
    parts.reverse()
    while parts:
        pbp, pvals, plens = parts.pop()
        dst = _spans(out, plens)
        bp[dst] = pbp
        vals[dst] = pvals
        out = out + plens
    return bp, vals, lens


# most terms of the convolution series one solve forms: a term's breakpoints
# grow with its index, and each merge reads the term and the running total's
# unsettled tail, which can hold most of it, so a series takes up to about
# the square of its length
_SERIES_CAP = 1 << 12


def renewal_solve(
    m: MatrixMeasure,
    forcing: Sequence[StepFunction],
    horizon: float,
) -> list[StepFunction]:
    """Solve ``f = f * M + L`` on ``[0, horizon]`` by the convolution series.

    The solution is ``sum_k L * M^(*k)``; with every atom at location at
    least ``lambda_min`` the sum is exact on the window once ``k`` reaches
    ``horizon / lambda_min``, where the series stops.  A series of more
    than ``_SERIES_CAP`` terms raises ``ResourceLimitError`` before any is
    formed, and a solution that overflows a float raises ``NumericalError``.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if len(forcing) != m.n:
        raise ValueError("forcing length must match matrix size")
    lam = _require_renewal_preconditions(m, forcing)
    n_terms = int(math.ceil(horizon / lam))
    if n_terms > _SERIES_CAP:
        raise ResourceLimitError(f"the renewal series needs {n_terms} terms (cap {_SERIES_CAP})")
    total = term = _clip(*_flatten(forcing), horizon)
    pairs = np.arange(m.n).repeat(2)
    settled: list = []
    # an overflow leaves an inf or nan, refused below: numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_terms + 1):
            if k * lam > horizon:
                break
            # every breakpoint of a later term is some breakpoint of this one
            # plus atom locations, added one at a time, and rounding keeps
            # order: none lies below this term's first plus lam
            bp, _, lens = term
            bound = bp[_offsets(lens)[:-1][lens > 0]].min(initial=math.inf) + lam - 1e-9
            term = _clip(*_flatten(vector_convolve(_functions(*term), m)), horizon)
            if not term[1].any():
                break
            laid, sizes = _interleave(_settle(total, bound, settled), term)
            del total
            total = _merge(laid, sizes, pairs, m.n)
    settled.append(total)
    bp, vals, lens = _assemble(settled)
    if not np.isfinite(vals).all():
        raise NumericalError("the renewal solution overflows a float")
    return _functions(bp, vals, lens)


@dataclass(frozen=True)
class RenewalLimit:
    """Limit of the renewal solution: a constant vector or a periodic profile.

    For ``kind == "constant"`` the ``values`` array has one entry per
    component.  For ``kind == "periodic"`` the rows of ``values`` follow
    ``y_grid`` inside one period of length ``tau`` and the limit of
    ``f_j(y - phi_j + n tau)`` as n grows is ``values[m, j]`` at
    ``y = y_grid[m]``, with ``phi`` the lattice's vertex phases (zero when
    it carries none).
    """

    kind: str
    values: np.ndarray
    y_grid: np.ndarray | None = None
    tau: float | None = None


def _limit_matrix_from(m: MatrixMeasure) -> np.ndarray:
    from .spectral import _left_perron

    rho, right = m._right_perron()
    left = _left_perron(m.mass_matrix(), rho)
    moments = m.moment_matrix()
    denom = float(left @ moments @ right)
    if denom <= 0:
        raise NumericalError("nonpositive mean renewal step")
    return np.outer(right, left) / denom


def _finite(values: np.ndarray) -> np.ndarray:
    """``values``, checked finite: a forcing that passes :func:`check_dri`
    has finite pieces, so an infinite limit means a float overflowed."""
    if not np.isfinite(values).all():
        raise NumericalError("the renewal limit overflows a float")
    return values


# (step, sample) terms of the lattice sum evaluated at once
_LATTICE_BLOCK = 1 << 14


def _lattice_steps(f: StepFunction, tau: float) -> list[tuple[int, int]]:
    """Disjoint ascending ranges [k0, k1] of the steps k >= 0 at which some
    ``s + k * tau`` with s in [0, tau] may fall on a nonzero piece of ``f``
    at or before its support end.  The bounds of a piece's steps are widened
    by one or two, far past rounding error."""
    bp = f.breakpoints
    live = np.flatnonzero(f.values != 0.0)
    if not live.size:
        return []
    ends = np.append(bp[1:], bp[-1])  # the last piece counts only at the support end
    first = np.maximum(np.floor(bp[live] / tau) - 2, 0.0)
    last = np.ceil(ends[live] / tau) + 1
    # pieces are in order, so both bounds ascend: a range of steps opens
    # where the next piece's first step is past the last one so far
    opens = np.flatnonzero(np.concatenate(([True], first[1:] > last[:-1] + 1)))
    closes = np.append(opens[1:] - 1, live.size - 1)
    return [(int(k0), int(k1)) for k0, k1 in zip(first[opens].tolist(), last[closes].tolist())]


def limit_value(
    m: MatrixMeasure,
    forcing: Sequence[StepFunction],
    lattice=None,
    samples_per_period: int = 64,
) -> RenewalLimit:
    """Long-run limit of the renewal solution.

    Dense systems converge to the constant row ``integral(L) @ A`` where
    ``A`` is the rank-one matrix built from the Perron data of the mass
    matrix.  Lattice systems with step ``tau`` and vertex phases ``phi``
    (``lattice.phases``; zero when the argument has none) converge along
    each residue ``y``: ``f_j(y - phi_j + n tau)`` tends to
    ``tau * sum_l A[l, j] * sum_k L_l(((y - phi_l) mod tau) + k tau)``,
    reported on a uniform grid of ``samples_per_period`` points, an integer
    >= 1, over one period.  Every atom of entry ``(i, j)`` must sit on
    ``phi_i - phi_j + tau Z`` for the periodic formula to apply.  A forcing
    that fails :func:`check_dri` raises ``ValidationError``, and a limit that
    overflows a float raises ``NumericalError``.
    """
    if len(forcing) != m.n:
        raise ValueError("forcing length must match matrix size")
    if (isinstance(samples_per_period, bool)
            or not isinstance(samples_per_period, (int, np.integer)) or samples_per_period < 1):
        raise ValueError(
            f"samples_per_period must be an integer >= 1, got {samples_per_period!r}"
        )
    if not check_dri(forcing):
        raise ValidationError("forcing must vanish for x < 0 and decay to zero")
    a = _limit_matrix_from(m)
    tau = getattr(lattice, "tau", None) if lattice is not None else None
    is_lattice = bool(getattr(lattice, "is_lattice", False)) if lattice is not None else False
    # an overflow leaves an inf or nan that _finite refuses: numpy need not warn
    if not is_lattice:
        with np.errstate(over="ignore", invalid="ignore"):
            integrals = np.array([f.integral() for f in forcing])
            return RenewalLimit(kind="constant", values=_finite(integrals @ a))
    if tau is None or not 0 < tau < math.inf:
        raise ValueError("lattice result lacks a positive finite step")
    phases = getattr(lattice, "phases", None)
    phi = np.zeros(m.n) if phases is None else np.asarray(phases, dtype=float)
    if phi.shape != (m.n,):
        raise ValueError("lattice phases must give one value per component")
    locs = np.concatenate([mu.locations - (phi[i] - phi[j]) for i, j, mu in m._nonzero])
    worst = float(np.abs(locs - np.round(locs / tau) * tau).max(initial=0.0))
    if worst > LATTICE_ALIGN_TOL:
        raise NumericalError(
            f"lattice step {tau} inconsistent with atom locations "
            f"(offset {worst:.3e})"
        )
    y = np.arange(samples_per_period) * (tau / samples_per_period)
    # sums[l, m] = sum_k L_l(((y_m - phi_l) mod tau) + k tau), k up to L_l's
    # support end, added in increasing k; a block of steps at a time, and only
    # the steps that can land on a nonzero piece: the sums start at +0.0, and
    # adding a zero never changes them; past CELL_CAP terms in all, none is formed
    steps = [_lattice_steps(f, tau) for f in forcing]
    n_terms = y.size * sum(k1 + 1 - k0 for ranges in steps for k0, k1 in ranges)
    if n_terms > CELL_CAP:
        raise ResourceLimitError(f"the lattice sum needs {n_terms} terms (cap {CELL_CAP})")
    sums = np.zeros((m.n, y.size))
    width = max(1, _LATTICE_BLOCK // y.size)
    with np.errstate(over="ignore", invalid="ignore"):
        for l, (f, ranges) in enumerate(zip(forcing, steps)):
            start = (y - phi[l]) % tau
            for k0, k1 in ranges:
                for k in range(k0, k1 + 1, width):
                    t = start + np.arange(k, min(k + width, k1 + 1), dtype=float)[:, None] * tau
                    terms = np.where(t <= f.support_end, f(t), 0.0)
                    # cumsum adds down each column in order, as a loop over k would
                    sums[l] = np.cumsum(np.vstack((sums[l], terms)), axis=0)[-1]
        # one row at a time: a single matrix product may round differently
        rows = np.array([tau * (sums[:, k].copy() @ a) for k in range(y.size)])
    return RenewalLimit(kind="periodic", values=_finite(rows), y_grid=y, tau=tau)
