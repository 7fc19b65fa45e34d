"""The renewal forcing on a t grid, kept as the oracle of the cross-check.

``asymptotics.cross_check`` sums each edge's last window of the measured
profile.  This module computes the same prediction the long way: it
measures the corrected forcing L_i on the whole grid (y + k*tau for every
k up to the report's last period in lattice mode, 0, step, ..., t_max in
dense mode), with every child term at its shifted argument
t - log(1/ratio), and pushes the sum (lattice) or trapezoid integral
(dense) of each row through the rank-one limit matrix.  Weighted by the
left Perron vector the two agree: exactly in lattice mode when every
log(1/ratio) sits on the lattice, up to the quadrature error in dense mode.

``dense_window`` integrates the dense cross-check's own windows, which end
at the profile's last t, on a fine mesh of fresh counts: the reference for
its interpolation between the profile's samples.
"""
import math

import numpy as np

from gdcover.covering import ETA, ForcingContext

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def child_time(t: float, edge) -> float:
    """Argument ``t - log(1/ratio)`` of an edge's child term in the forcing.

    A shift within 1e-9 of zero is snapped to 0: a lattice period computed
    apart from the edge's own log-ratio can leave a residue like -1e-16,
    which would otherwise count the child term as not yet started.
    """
    s = t - edge.log_ratio
    return 0.0 if abs(s) < ETA else s


def normalized_count(ctx: ForcingContext, spectral, vertex: str, t: float) -> float:
    return ctx.count_at(vertex, t) * math.exp(-spectral.s0 * t)


def _sorted(t_grid) -> np.ndarray:
    return np.array(sorted(float(t) for t in t_grid))


def forcing_values(ctx: ForcingContext, spectral, t_grid) -> np.ndarray:
    """Corrected forcing L_i on the grid, one row per vertex in ``vertex_order``
    and one column per t of ``t_grid`` in ascending order.

    f(t) = sum over edges of ratio^s0 f_child(t - log(1/ratio)) + L(t)
    holds exactly on the grid when L collects the count defect (child
    counts minus the vertex count) together with the child terms whose
    shifted argument is still negative.
    """
    graph = ctx.graph
    s0 = spectral.s0
    t_grid = _sorted(t_grid)
    need: dict[str, list] = {v: list(t_grid) for v in graph.vertex_order}
    for v in graph.vertex_order:
        for e in graph.out_edges(v):
            need[e.dst].extend(child_time(t, e) for t in t_grid)
    for v, ts in need.items():
        ctx.fill(v, ts)
    out = np.zeros((len(graph.vertex_order), t_grid.size))
    for row, v in enumerate(graph.vertex_order):
        for idx, t in enumerate(t_grid):
            child_all = 0
            child_early = 0
            for e in graph.out_edges(v):
                shifted = child_time(t, e)
                c = ctx.count_at(e.dst, shifted)
                child_all += c
                if shifted < 0:
                    child_early += c
            defect = child_all - ctx.count_at(v, t)
            out[row, idx] = math.exp(-s0 * t) * (child_early - defect)
    return out


def renewal_residual(ctx: ForcingContext, spectral, forcing: np.ndarray, t_grid) -> float:
    """Max deviation from f = f*M + L with every term measured directly."""
    graph = ctx.graph
    s0 = spectral.s0
    worst = 0.0
    for row, v in enumerate(graph.vertex_order):
        for idx, t in enumerate(_sorted(t_grid)):
            lhs = normalized_count(ctx, spectral, v, t)
            conv = 0.0
            for e in graph.out_edges(v):
                shifted = child_time(t, e)
                if shifted >= 0:
                    conv += e.ratio**s0 * normalized_count(ctx, spectral, e.dst, shifted)
            worst = max(worst, abs(lhs - conv - forcing[row, idx]))
    return worst


def predicted(graph, spectral, report, *, step=0.05, t_max=10.0, grid_origin=None):
    """The cross-check's prediction from the forcing on the whole grid:
    (n_y, n_vertices) for a periodic report, one row for a constant one."""
    a = spectral.limit_matrix
    ctx = ForcingContext(graph, grid_origin)
    if report.kind == "periodic":
        tau, k_max = report.tau, max(report.n_values)
        points = [y + k * tau for y in report.y_grid for k in range(k_max + 1)]
        forcing = forcing_values(ctx, spectral, points)
        lookup = {t: i for i, t in enumerate(_sorted(points))}
        out = np.zeros((report.y_grid.size, len(graph.vertex_order)))
        for row, y in enumerate(report.y_grid):
            sums = np.array(
                [sum(f[lookup[y + k * tau]] for k in range(k_max + 1)) for f in forcing]
            )
            out[row] = tau * (sums @ a)
        return out
    points = np.linspace(0.0, t_max, int(round(t_max / step)) + 1)
    forcing = forcing_values(ctx, spectral, points)
    return np.array([_trapezoid(row, _sorted(points)) for row in forcing]) @ a


def dense_window(graph, spectral, profile, *, step):
    """The dense cross-check's prediction, each edge's window
    [max(0, T - log(1/ratio)), T] with T the profile's last t (0 when it is
    negative) integrated by the trapezoid rule on a mesh of at most ``step``,
    on the profile's grid."""
    s0, col = spectral.s0, {v: k for k, v in enumerate(graph.vertex_order)}
    ctx = ForcingContext(graph, profile.grid_origin)
    end = max(0.0, max(s.t for s in profile.samples))
    sums = np.zeros(len(col))
    for e in graph.edges.values():
        a = max(0.0, end - e.log_ratio)
        ts = np.linspace(a, end, math.ceil((end - a) / step) + 1).tolist()
        ctx.fill(e.dst, ts)
        z = [normalized_count(ctx, spectral, e.dst, t) for t in ts]
        sums[col[e.src]] += e.ratio**s0 * _trapezoid(z, ts)
    return sums @ spectral.limit_matrix
