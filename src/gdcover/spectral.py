"""Pressure matrices, Perron data, and the similarity dimension.

The central object is the one-parameter family of nonnegative matrices
whose (i, j) entry sums ``ratio^s`` over the edges from vertex i to
vertex j.  Its spectral radius decreases strictly in ``s``; the parameter
``s0`` where the radius crosses one is the similarity dimension of the
system and normalizes everything downstream.  Each entry is a sum of
exponentials in ``s``, hence log-convex, and the spectral radius of a
matrix of log-convex functions is log-convex (Kingman 1961), so Newton's
method on the log radius finds ``s0`` from below.  Each Perron root and
vector comes from one dense eigensolve (``numpy.linalg.eig``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .graph import MWGraph, strongly_connected

__all__ = [
    "SpectralData",
    "build_matrix",
    "build_moment_matrix",
    "spectral_radius",
    "is_irreducible",
    "solve_s0",
]

S0_TOL = 1e-12
NEWTON_MAX_ITER = 100


def _matrix_builder(graph: MWGraph, moments: bool = False):
    """``s -> build_matrix(graph, s)`` (or the moment matrix), indices looked up once."""
    n, index = graph.n_vertices, graph.vertex_index
    cells = [(index(e.src) * n + index(e.dst), e.ratio, e.log_ratio if moments else 1.0)
             for e in graph.edges.values()]

    def build(s: float) -> np.ndarray:
        flat = [0.0] * (n * n)
        for k, ratio, weight in cells:
            flat[k] += ratio**s * weight
        return np.array(flat).reshape(n, n)

    return build


def build_matrix(graph: MWGraph, s: float) -> np.ndarray:
    """Entry (i, j) is the sum of ``ratio^s`` over edges i -> j."""
    return _matrix_builder(graph)(s)


def build_moment_matrix(graph: MWGraph, s0: float) -> np.ndarray:
    """Entry (i, j) is the sum of ``ratio^s0 * (-log ratio)`` over edges i -> j."""
    return _matrix_builder(graph, moments=True)(s0)


def is_irreducible(a: np.ndarray) -> bool:
    """True when the support digraph of ``a`` is strongly connected."""
    a = np.asarray(a)
    n = a.shape[0]
    reach = (a > 0) | np.eye(n, dtype=bool)
    for _ in range(max(1, int(math.ceil(math.log2(max(n, 2)))))):
        reach = reach | (reach @ reach)
    return bool(reach.all())


def _perron(a: np.ndarray) -> tuple[float, np.ndarray]:
    """Perron root and vector of a nonnegative square matrix, the vector
    normalized to unit sum, from one dense eigensolve.

    Every eigenvalue has modulus at most the Perron root, and none but the
    root itself has real part equal to it, so the eigenvalue of largest real
    part is the root; for an irreducible matrix its vector is positive.
    """
    n = a.shape[0]
    if n == 1:
        return float(a[0, 0]), np.ones(1)
    w, vecs = np.linalg.eig(a)
    k = int(np.argmax(w.real))
    vec = np.abs(vecs[:, k].real)
    total = vec.sum()
    if not total > 0:
        raise NumericalError("dense eigensolver returned a degenerate vector")
    return float(w[k].real), vec / total


def spectral_radius(a) -> float:
    """Spectral radius of a finite, nonempty, nonnegative square matrix."""
    a = np.array(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if a.size == 0:
        raise ValueError("matrix must be nonempty")
    if not np.isfinite(a).all():
        raise ValueError("matrix must be finite")
    if (a < 0).any():
        raise ValueError("matrix must be nonnegative")
    return _perron(a)[0]


def _require_irreducible(a: np.ndarray) -> None:
    if not is_irreducible(a):
        raise NumericalError(
            "Perron vectors need an irreducible matrix (graph not strongly connected)"
        )


def _left_perron(a: np.ndarray, rho: float) -> np.ndarray:
    """Left Perron vector of ``a``, its radius estimate checked against ``rho``."""
    rho_t, left = _perron(a.T)
    if abs(rho - rho_t) > 1e-13 * max(abs(rho), 1.0) + 1e-13:
        raise NumericalError(
            f"left/right radius estimates disagree: {rho} vs {rho_t}"
        )
    return left


@dataclass(frozen=True)
class SpectralData:
    """Similarity dimension and Perron data of a system.

    ``u`` and ``v`` are the right and left Perron vectors of the pressure
    matrix at ``s0``, normalized so that ``sum(v) = 1`` and ``v @ u = 1``.
    ``moment_matrix`` holds the first moments ``sum ratio^s0 * (-log ratio)``
    per vertex pair, and ``limit_matrix`` is the rank-one matrix
    ``outer(v, u) / (v @ moment_matrix @ u)`` that turns integrated forcing
    rows into limit values.
    """

    s0: float
    u: np.ndarray
    v: np.ndarray
    moment_matrix: np.ndarray
    limit_matrix: np.ndarray
    vertex_order: tuple[str, ...]

    def __post_init__(self) -> None:
        for name in ("u", "v", "moment_matrix", "limit_matrix"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def mean_log_ratio(self) -> float:
        """The scalar ``v @ moment_matrix @ u`` (mean renewal step)."""
        return float(self.v @ self.moment_matrix @ self.u)


def solve_s0(graph: MWGraph) -> SpectralData:
    """Similarity dimension by Newton's method on the log spectral radius.

    Every entry of the pressure matrix is a sum of exponentials ``ratio^s``,
    so ``log radius(s)`` is convex in ``s`` (Kingman 1961) and strictly
    decreasing.  Newton's method started at ``s = 0``, below the root of
    ``radius(s) = 1``, therefore rises to the root without passing it; the
    derivative ``-(v M u) / (radius * v u)`` needs only the right and left
    Perron vectors ``u``, ``v`` and the moment matrix ``M`` that the result
    holds anyway.  It stops at the first step that does not raise ``s``,
    where only rounding is left, and the returned value satisfies
    ``|radius(s0) - 1| <= S0_TOL``; a radius within ``S0_TOL`` of 1 at
    ``s = 0`` gives ``s0 = 0``.
    """
    if not strongly_connected(graph):
        raise NumericalError("graph is not strongly connected")

    build = _matrix_builder(graph)
    r0 = spectral_radius(build(0.0))
    if r0 < 1.0 - 1e-12:
        raise NumericalError(
            f"radius at s=0 is {r0} < 1: no nonnegative dimension exists"
        )
    s0 = 0.0
    for _ in range(NEWTON_MAX_ITER):
        a0 = build(s0)
        _require_irreducible(a0)
        rho, u = _perron(a0)
        v = _left_perron(a0, rho)
        moments = build_moment_matrix(graph, s0)
        if abs(r0 - 1.0) <= S0_TOL:  # s0 = 0
            break
        # the Newton step on log radius(s), whose derivative is -(v M u) / (rho v u)
        s = s0 + math.log(rho) * rho * float(v @ u) / float(v @ moments @ u)
        if not s > s0:
            break
        if s > 1e6:
            raise NumericalError(f"the dimension exceeds 1e6 (a Newton step reached {s:.6g})")
        s0 = s
    else:
        raise NumericalError(f"Newton's method did not settle in {NEWTON_MAX_ITER} steps")
    resid = abs(rho - 1.0)
    if resid > S0_TOL:
        raise NumericalError(f"dimension residual {resid:.3e} exceeds {S0_TOL:.3e}")
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
