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


def _anchors(x: np.ndarray, tol: float) -> np.ndarray:
    """Mask of the values a left-to-right anchored merge keeps.

    ``x`` is sorted and nonempty.  Walking left to right, a value is kept
    (and becomes the anchor) when it lies more than ``tol`` above the
    current anchor; otherwise it merges into that anchor.  A value more
    than ``tol`` above its predecessor therefore always starts a cluster.
    A cluster spanning at most ``tol`` keeps only its head; only wider
    clusters, rare in practice, need the sequential walk.
    """
    keep = np.empty(x.size, dtype=bool)
    keep[0] = True
    np.greater(x[1:] - x[:-1], tol, out=keep[1:])
    if keep.all():
        return keep
    heads = keep.nonzero()[0]
    tails = np.append(heads[1:], x.size) - 1
    for c in (x[tails] - x[heads] > tol).nonzero()[0].tolist():
        anchor = x[heads[c]]
        for k in range(heads[c] + 1, tails[c] + 1):
            if x[k] - anchor > tol:
                keep[k] = True
                anchor = x[k]
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
    below walks only them.  The mass matrix and its right Perron run are
    computed once, on first use.
    """

    __slots__ = ("entries", "_nonzero", "_mass", "_perron")

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

    def _right_perron(self) -> tuple[float, np.ndarray]:
        """Spectral radius and right Perron vector of the mass matrix, from
        one power run shared by every caller.

        The renewal theorem needs an irreducible mass matrix with spectral
        radius one; both are checked here, before the run is kept, so a
        matrix that passes is checked once.
        """
        if self._perron is None:
            from .spectral import _power_perron, is_irreducible

            mass = self.mass_matrix()
            if not is_irreducible(mass):
                raise NumericalError("renewal matrix is reducible")
            rho, right = _power_perron(mass)
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
        if bp.size and (np.diff(bp) <= 0).any():
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
        return StepFunction._wrap(*_clip(self.breakpoints, self.values, t_max))

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
        loc, w = mu.locations, mu.weights
        return StepFunction._wrap(*_convolve(self.breakpoints, self.values, loc, w))

    def __repr__(self) -> str:  # pragma: no cover
        return f"StepFunction({self.breakpoints.size} pieces)"


def _clip(bp: np.ndarray, vals: np.ndarray, t_max: float):
    """Restrict a pair to ``(-inf, t_max)``; the breakpoints below are a prefix."""
    k = int(bp.searchsorted(t_max))
    if k == 0 or vals[k - 1] == 0.0:
        return bp[:k], vals[:k]
    return np.concatenate((bp[:k], [t_max])), np.concatenate((vals[:k], [0.0]))


def _add(pairs):
    """Pointwise sum of ``(breakpoints, values)`` pairs with breakpoint merging."""
    pairs = [p for p in pairs if p[0].size]
    if not pairs:
        return np.empty(0), np.empty(0)
    if len(pairs) == 1:
        return pairs[0]
    bp = np.concatenate([p[0] for p in pairs])
    bp.sort()
    bp = bp[_anchors(bp, ATOM_MERGE_TOL)]
    # evaluate past the merge window: a dropped near-duplicate breakpoint
    # sits at most ATOM_MERGE_TOL above its anchor, and reading a summand
    # below its own jump would silently shed that jump's mass
    eval_pts = bp + ATOM_MERGE_TOL
    # summands are added one after another, in the order given, so the sum
    # at each point is rounded the same way whatever the vectorization;
    # a summand adds nothing before its first breakpoint
    total = np.zeros(bp.size)
    starts = eval_pts.searchsorted([p[0][0] for p in pairs]).tolist()
    for (fbp, fvals), start in zip(pairs, starts):
        idx = fbp.searchsorted(eval_pts[start:], side="right") - 1
        total[start:] += fvals[idx]
    # collapse runs of equal values to keep representations small
    change = np.empty(bp.size, dtype=bool)
    change[0] = True
    np.not_equal(total[1:], total[:-1], out=change[1:])
    return bp[change], total[change]


def _convolve(bp: np.ndarray, vals: np.ndarray, locations, weights):
    """A pair convolved with atoms: its copies shifted and scaled by each, summed in turn."""
    copies = []
    for loc, w in zip(locations, weights):
        shifted = bp + loc
        # a shift can round neighbouring breakpoints onto each other
        if (shifted[1:] <= shifted[:-1]).any():
            raise ValueError("breakpoints must be strictly increasing")
        copies.append((shifted, vals * w))
    return _add(copies)


def add_steps(fns: Sequence[StepFunction]) -> StepFunction:
    """Pointwise sum of step functions with breakpoint merging."""
    return StepFunction._wrap(*_add([(f.breakpoints, f.values) for f in fns]))


def vector_convolve(fs: Sequence[StepFunction], m: MatrixMeasure) -> list[StepFunction]:
    """Row vector times matrix: ``(f * M)_j = sum_l f_l * M[l][j]``."""
    n = m.n
    if len(fs) != n:
        raise ValueError("vector length must match matrix size")
    # only nonzero products contribute; entries in row-major order keep each
    # column's parts in the summation order of sum_l f_l * M[l][j]
    parts: list[list[tuple[np.ndarray, np.ndarray]]] = [[] for _ in range(n)]
    live = [not f.is_zero for f in fs]
    for l, j, mu in m._nonzero:
        if live[l]:
            f = fs[l]
            parts[j].append(_convolve(f.breakpoints, f.values, mu.locations, mu.weights))
    return [StepFunction._wrap(*_add(p)) for p in parts]


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


# most terms of the convolution series one solve forms: a term's breakpoints,
# and so its time, grow with its index, so a series takes about the square
# of its length
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
    total = [f.clipped(horizon) for f in forcing]
    term = total
    # an overflow leaves an inf or nan, refused below: numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_terms + 1):
            if k * lam > horizon:
                break
            term = [
                g.clipped(horizon) for g in vector_convolve(term, m)
            ]
            if all(g.is_zero for g in term):
                break
            total = [a + b for a, b in zip(total, term)]
    if not all(np.isfinite(f.values).all() for f in total):
        raise NumericalError("the renewal solution overflows a float")
    return total


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
    reported on a uniform grid over one period.  Every atom of entry
    ``(i, j)`` must sit on ``phi_i - phi_j + tau Z`` for the periodic
    formula to apply.  A forcing that fails :func:`check_dri` raises
    ``ValidationError``, and a limit that overflows a float raises
    ``NumericalError``.
    """
    if len(forcing) != m.n:
        raise ValueError("forcing length must match matrix size")
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
