"""Loop-based reference for the renewal series, the periodic limit and the
``s0`` Newton iteration.

This is the straightforward path that ``gdcover.renewal`` replaces with
array-native fast paths: the atom merge and the breakpoint merge walk every
value in a Python loop, ``vector_convolve``, the mass and moment matrices
and the least atom location walk all n^2 matrix entries, every step
function goes through the validating constructor, and the periodic limit
evaluates the forcing at one point at a time.  It is kept only as a
differential oracle; the package's renewal results must equal it bit for
bit.  For ``s0`` and the Perron vectors it is an independent reference to
within rounding, not bit for bit: every radius and Perron vector here comes
from a power run whose Collatz-Wielandt bracket is checked after every
step, where ``gdcover.spectral`` takes one dense eigensolve, and
``bisect_s0``, the exhaustive bisection that every side decision runs to
full convergence, is a second reference for ``s0``.
"""
from __future__ import annotations

import math

import numpy as np

from gdcover.errors import NumericalError
from gdcover.graph import MWGraph, strongly_connected
from gdcover.renewal import (
    ATOM_MERGE_TOL,
    StepFunction,
    _limit_matrix_from,
    _require_renewal_preconditions,
)
from gdcover.spectral import (
    NEWTON_MAX_ITER,
    S0_TOL,
    SpectralData,
    build_matrix,
    build_moment_matrix,
    is_irreducible,
)


def merge_atoms(locations: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort and merge atoms closer than the merge tolerance, one at a time."""
    if locations.size == 0:
        return locations, weights
    order = np.argsort(locations, kind="stable")
    locations = locations[order]
    weights = weights[order]
    out_loc: list[float] = []
    out_w: list[float] = []
    anchor = locations[0]
    acc = 0.0
    for loc, w in zip(locations, weights):
        if loc - anchor <= ATOM_MERGE_TOL:
            acc += w
        else:
            out_loc.append(anchor)
            out_w.append(acc)
            anchor = loc
            acc = w
    out_loc.append(anchor)
    out_w.append(acc)
    return np.array(out_loc), np.array(out_w)


def mass_matrix(m) -> np.ndarray:
    """Total masses of all n^2 entries, zero or not."""
    return np.array([[mu.total_mass() for mu in row] for row in m.entries])


def moment_matrix(m) -> np.ndarray:
    return np.array([[mu.first_moment() for mu in row] for row in m.entries])


def min_location(m) -> float | None:
    locs = [mu.min_location() for row in m.entries for mu in row if not mu.is_zero]
    return min(locs) if locs else None


def shifted_scaled(f: StepFunction, shift: float, weight: float) -> StepFunction:
    if weight == 0 or f.is_zero:
        return StepFunction.zero()
    return StepFunction(f.breakpoints + shift, f.values * weight)


def clipped(f: StepFunction, t_max: float) -> StepFunction:
    if f.breakpoints.size == 0:
        return f
    keep = f.breakpoints < t_max
    bp = f.breakpoints[keep]
    vals = f.values[keep]
    if bp.size == 0:
        return StepFunction.zero()
    if vals[-1] != 0.0:
        bp = np.append(bp, t_max)
        vals = np.append(vals, 0.0)
    return StepFunction(bp, vals)


def convolve_measure(f: StepFunction, mu, merge_tol: float = ATOM_MERGE_TOL) -> StepFunction:
    if f.is_zero or mu.is_zero:
        return StepFunction.zero()
    return add_steps(
        [shifted_scaled(f, loc, w) for loc, w in zip(mu.locations, mu.weights)],
        merge_tol=merge_tol,
    )


def add_steps(fns, merge_tol: float = ATOM_MERGE_TOL) -> StepFunction:
    """Pointwise sum with the breakpoint merge walked one breakpoint at a time."""
    fns = [f for f in fns if f.breakpoints.size]
    if not fns:
        return StepFunction.zero()
    if len(fns) == 1:
        return fns[0]
    bp = np.sort(np.concatenate([f.breakpoints for f in fns]))
    if merge_tol > 0 and bp.size > 1:
        keep = np.empty(bp.size, dtype=bool)
        keep[0] = True
        anchor = bp[0]
        for k in range(1, bp.size):
            if bp[k] - anchor > merge_tol:
                keep[k] = True
                anchor = bp[k]
            else:
                keep[k] = False
        bp = bp[keep]
    eval_pts = bp + merge_tol if merge_tol > 0 else bp
    total = np.zeros(bp.size)
    for f in fns:
        total += f(eval_pts)
    if bp.size > 1:
        change = np.empty(bp.size, dtype=bool)
        change[0] = True
        change[1:] = total[1:] != total[:-1]
        bp = bp[change]
        total = total[change]
    return StepFunction(bp, total)


def vector_convolve(fs, m, merge_tol: float = ATOM_MERGE_TOL) -> list[StepFunction]:
    """All n^2 entries convolved, zero or not."""
    n = m.n
    if len(fs) != n:
        raise ValueError("vector length must match matrix size")
    out = []
    for j in range(n):
        parts = []
        for l in range(n):
            g = convolve_measure(fs[l], m.entry(l, j), merge_tol=merge_tol)
            if g.breakpoints.size:
                parts.append(g)
        out.append(add_steps(parts, merge_tol=merge_tol))
    return out


def renewal_solve(m, forcing, horizon: float) -> list[StepFunction]:
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if len(forcing) != m.n:
        raise ValueError("forcing length must match matrix size")
    lam = _require_renewal_preconditions(m, forcing)
    total = [clipped(f, horizon) for f in forcing]
    term = total
    for k in range(1, int(math.ceil(horizon / lam)) + 1):
        if k * lam > horizon:
            break
        term = [clipped(g, horizon) for g in vector_convolve(term, m)]
        if all(g.is_zero for g in term):
            break
        total = [add_steps([a, b]) for a, b in zip(total, term)]
    return total


def periodic_limit(m, forcing, phases, tau: float, samples_per_period: int = 64) -> np.ndarray:
    """Rows of the lattice limit, one (y, l, k) term at a time.

    Row ``idx`` is ``tau * sums @ A`` with ``sums[l]`` the sum over k of
    ``L_l(((y - phi_l) mod tau) + k tau)`` up to the end of ``L_l``'s support.
    """
    a = _limit_matrix_from(m)
    phi = np.zeros(m.n) if phases is None else np.asarray(phases, dtype=float)
    y = np.arange(samples_per_period) * (tau / samples_per_period)
    rows = np.zeros((samples_per_period, m.n))
    for idx, y0 in enumerate(y):
        sums = np.zeros(m.n)
        for l, f in enumerate(forcing):
            start = (y0 - phi[l]) % tau
            end = f.support_end
            k = 0
            acc = 0.0
            while True:
                t = start + k * tau
                if t > end:
                    break
                acc += f(t)
                k += 1
            sums[l] = acc
        rows[idx] = tau * (sums @ a)
    return rows


POWER_REL_TOL = 1e-14
POWER_MAX_ITER = 100_000


def dense_perron(b: np.ndarray) -> tuple[float, np.ndarray]:
    """Dominant eigenpair of a nonnegative matrix via the dense solver."""
    w, vecs = np.linalg.eig(b)
    k = int(np.argmax(w.real))
    vec = np.abs(vecs[:, k].real)
    s = vec.sum()
    if s <= 0:
        raise NumericalError("dense eigensolver returned a degenerate vector")
    return float(w[k].real), vec / s


def power_steps(b: np.ndarray, x: np.ndarray, max_iter: int):
    """Power iteration on ``b`` from ``x`` with the bracket checked after every
    step: ``(k, lo, hi, x)`` at the first step ``k`` whose bracket has
    converged; None when ``max_iter`` steps pass without a stop."""
    for k in range(max_iter):
        y = b @ x
        quot = y / x
        lo, hi = float(quot.min()), float(quot.max())
        if hi - lo <= POWER_REL_TOL * hi:
            return k, lo, hi, x
        x = y / y.sum()
    return None


def power_perron(a: np.ndarray) -> tuple[float, np.ndarray]:
    """Perron root and unit-sum vector from a power run on ``a + I``, the
    dense solver's when the run does not stop in ``POWER_MAX_ITER`` steps."""
    n = a.shape[0]
    if n == 1:
        return float(a[0, 0]), np.ones(1)
    b = a + np.eye(n)
    hit = power_steps(b, np.full(n, 1.0 / n), POWER_MAX_ITER)
    if hit is None:
        lam, vec = dense_perron(b)
        return lam - 1.0, vec
    _, lo, hi, x = hit
    return (lo + hi) / 2 - 1.0, x / x.sum()


def spectral_radius(a, *, want_vectors: bool = False):
    a = np.array(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if (a < 0).any():
        raise ValueError("matrix must be nonnegative")
    if want_vectors and not is_irreducible(a):
        raise NumericalError(
            "Perron vectors need an irreducible matrix (graph not strongly connected)"
        )
    rho, right = power_perron(a)
    if not want_vectors:
        return rho
    rho_t, left = power_perron(a.T)
    if abs(rho - rho_t) > 10 * POWER_REL_TOL * max(abs(rho), 1.0) + 1e-13:
        raise NumericalError(
            f"left/right radius estimates disagree: {rho} vs {rho_t}"
        )
    return rho, right, left


def _radius_at_zero(graph: MWGraph) -> float:
    if not strongly_connected(graph):
        raise NumericalError("graph is not strongly connected")
    r0 = spectral_radius(build_matrix(graph, 0.0))
    if r0 < 1.0 - 1e-12:
        raise NumericalError(
            f"radius at s=0 is {r0} < 1: no nonnegative dimension exists"
        )
    return r0


def solve_s0(graph: MWGraph, tol: float = S0_TOL) -> SpectralData:
    """Newton's method on ``log radius(s)`` from ``s = 0``, one step at a
    time, every radius and Perron vector from a full power run."""
    r0 = _radius_at_zero(graph)
    s0 = 0.0
    for _ in range(NEWTON_MAX_ITER):
        a0 = build_matrix(graph, s0)
        rho, u, v = spectral_radius(a0, want_vectors=True)
        moments = build_moment_matrix(graph, s0)
        if abs(r0 - 1.0) <= tol:
            break
        s = s0 + math.log(rho) * rho * float(v @ u) / float(v @ moments @ u)
        if not s > s0:
            break
        if s > 1e6:
            raise NumericalError(f"the dimension exceeds 1e6 (a Newton step reached {s:.6g})")
        s0 = s
    else:
        raise NumericalError(f"Newton's method did not settle in {NEWTON_MAX_ITER} steps")
    resid = abs(rho - 1.0)
    if resid > tol:
        raise NumericalError(f"dimension residual {resid:.3e} exceeds {tol:.3e}")
    v = v / v.sum()
    u = u / float(v @ u)
    denom = float(v @ moments @ u)
    if denom <= 0:
        raise NumericalError("nonpositive mean renewal step")
    limit = np.outer(v, u) / denom
    return SpectralData(
        s0=s0,
        u=u,
        v=v,
        moment_matrix=moments,
        limit_matrix=limit,
        vertex_order=graph.vertex_order,
    )


def bisect_s0(graph: MWGraph, tol: float = S0_TOL) -> float:
    """``s0`` by bisection until the bracket is exhausted at double
    precision, every side decision from a full power run."""

    def radius(s: float) -> float:
        return spectral_radius(build_matrix(graph, s))

    r0 = _radius_at_zero(graph)
    if abs(r0 - 1.0) <= tol:
        return 0.0
    lo, hi = 0.0, 1.0
    while radius(hi) >= 1.0:
        lo, hi = hi, 2.0 * hi
        if hi > 1e6:
            raise NumericalError("failed to bracket the dimension")
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return 0.5 * (lo + hi)
        if radius(mid) >= 1.0:
            lo = mid
        else:
            hi = mid
