"""Regime classification and limit estimation for covering profiles.

Three regimes are distinguished.  When every condensation scale integral
converges, normalized counts settle to a constant vector (dense log-ratios)
or to a periodic profile (lattice log-ratios).  When some integral
diverges, normalized counts grow without bound and only a growth rate is
reported.  Finite data cannot prove a limit, so every point estimate comes
with a drift diagnostic over the estimation window, and small-condensation
estimates are cross-checked against the renewal-theory prediction computed
from measured forcing terms.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .covering import (
    CoveringProfile,
    ForcingContext,
    IntegralResult,
    child_time,
    condensation_integral,
    lattice_grid,
    profile_at,
)
from .errors import InconclusiveRegimeError, ValidationError
from .graph import MWGraph, common_prefix, sample_path, validate
from .lattice import LatticeResult, classify_graph
from .spectral import SpectralData, solve_s0

__all__ = [
    "REGIMES",
    "RegimeResult",
    "classify_regime",
    "AsymptoticReport",
    "estimate_limit",
    "CrossCheckResult",
    "cross_check",
    "AnalysisResult",
    "analyze",
    "SeparationSpotCheck",
    "separation_spot_check",
]

REGIMES = (
    "SmallCondensation-Dense",
    "SmallCondensation-Lattice",
    "LargeCondensation",
)

_trapezoid = getattr(np, "trapezoid", None) or np.trapz

DENSE_MIN_SPAN = 2 * math.log(10.0)
LATTICE_MIN_PERIODS = 4


@dataclass(frozen=True)
class RegimeResult:
    regime: str
    lattice: LatticeResult
    integrals: dict[str, IntegralResult]
    notes: tuple[str, ...] = ()


def classify_regime(
    graph: MWGraph,
    spectral: SpectralData | None = None,
    *,
    lattice: LatticeResult | None = None,
    eps: float = 1e-9,
) -> RegimeResult:
    """Decide which asymptotic regime the system falls in.

    All scale integrals finite puts the system in the small-condensation
    regime, split by the lattice dichotomy of cycle log-ratios.  Any
    divergent integral yields the large regime; the divergence conclusion
    is only certified under the strongest declared separation, so weaker
    declarations are flagged in the notes.
    """
    if spectral is None:
        spectral = solve_s0(graph)
    if lattice is None:
        lattice = classify_graph(graph, eps=eps)
    integrals = {
        v: condensation_integral(graph, v, spectral) for v in graph.vertex_order
    }
    bad = [v for v, res in integrals.items() if res.kind == "Inconclusive"]
    if bad:
        raise InconclusiveRegimeError(
            "condensation dimension matches the attractor dimension at "
            f"vertices {bad}; convergence of the scale integral is undecided"
        )
    notes: list[str] = []
    if any(res.kind == "Infinite" for res in integrals.values()):
        if graph.separation != "SCOSC":
            msg = (
                "divergent condensation requires SCOSC for a certified "
                f"conclusion; declared separation is {graph.separation!r}"
            )
            warnings.warn(msg, stacklevel=2)
            notes.append(msg)
        return RegimeResult("LargeCondensation", lattice, integrals, tuple(notes))
    sub = "Lattice" if lattice.is_lattice else "Dense"
    return RegimeResult(f"SmallCondensation-{sub}", lattice, integrals, tuple(notes))


@dataclass(frozen=True)
class AsymptoticReport:
    """Limit estimates extracted from one covering profile.

    ``kind == "constant"``: estimates has one entry per vertex and drift is
    the (max - min) / mean spread over the estimation window.
    ``kind == "periodic"``: estimates is (n_y, n_vertices), averaged over
    the last few periods at each offset; drift is per offset.
    ``kind == "divergent"``: estimates holds per-vertex growth rates of
    log(ratio) in t and growth_monotone reports sustained increase.
    """

    regime: str
    kind: str
    vertex_order: tuple[str, ...]
    estimates: np.ndarray
    total_estimate: np.ndarray | float
    drift: np.ndarray | None = None
    drift_total: float | None = None
    thirds_drift: tuple[float, ...] | None = None
    y_grid: np.ndarray | None = None
    tau: float | None = None
    n_values: tuple[int, ...] | None = None
    growth_rate: float | None = None
    growth_monotone: bool | None = None

    def min_periodic(self) -> float:
        if self.kind != "periodic":
            raise ValueError("not a periodic report")
        return float(np.min(self.total_estimate))


def _estimate_dense(profile: CoveringProfile, regime: str) -> AsymptoticReport:
    ts = profile.t_values()
    if ts[-1] - ts[0] < DENSE_MIN_SPAN:
        raise ValidationError(
            f"profile spans {ts[-1] - ts[0]:.2f} in t; need at least {DENSE_MIN_SPAN:.2f}"
        )
    ratios = profile.ratio_matrix()
    totals = profile.total_ratios()
    m = len(profile.samples)
    window = max(m // 3, 2)
    win_r = ratios[-window:]
    win_t = totals[-window:]
    estimates = win_r.mean(axis=0)
    drift = (win_r.max(axis=0) - win_r.min(axis=0)) / estimates
    total_est = float(win_t.mean())
    drift_total = float((win_t.max() - win_t.min()) / total_est)
    thirds = [
        seg for seg in np.array_split(totals, 3) if seg.size >= 2
    ]
    thirds_drift = tuple(
        float((seg.max() - seg.min()) / seg.mean()) for seg in thirds
    )
    return AsymptoticReport(
        regime=regime,
        kind="constant",
        vertex_order=profile.vertex_order,
        estimates=estimates,
        total_estimate=total_est,
        drift=drift,
        drift_total=drift_total,
        thirds_drift=thirds_drift,
    )


def _estimate_lattice(profile: CoveringProfile, regime: str) -> AsymptoticReport:
    by_y: dict[float, list] = {}
    for s in profile.samples:
        if s.y is None or s.n is None:
            raise ValidationError("lattice estimation needs (n, y)-tagged samples")
        by_y.setdefault(s.y, []).append(s)
    n_all = sorted({s.n for s in profile.samples})
    if len(n_all) < LATTICE_MIN_PERIODS:
        raise ValidationError(
            f"profile covers {len(n_all)} periods; need at least {LATTICE_MIN_PERIODS}"
        )
    tau = None
    for s in profile.samples:
        for s2 in profile.samples:
            if s2.y == s.y and s2.n == s.n + 1:
                tau = s2.t - s.t
                break
        if tau:
            break
    y_grid = np.array(sorted(by_y))
    n_vertices = len(profile.vertex_order)
    est = np.zeros((y_grid.size, n_vertices))
    total_est = np.zeros(y_grid.size)
    drift = np.zeros(y_grid.size)
    keep_n = min(3, len(n_all))
    for row, y in enumerate(y_grid):
        group = sorted(by_y[float(y)], key=lambda s: s.n)[-keep_n:]
        rmat = np.array([s.ratios for s in group])
        tot = np.array([s.ratio_total for s in group])
        est[row] = rmat.mean(axis=0)
        total_est[row] = tot.mean()
        drift[row] = (tot.max() - tot.min()) / tot.mean()
    return AsymptoticReport(
        regime=regime,
        kind="periodic",
        vertex_order=profile.vertex_order,
        estimates=est,
        total_estimate=total_est,
        drift=drift,
        drift_total=float(drift.max()),
        y_grid=y_grid,
        tau=tau,
        n_values=tuple(n_all),
    )


def _estimate_divergent(profile: CoveringProfile, regime: str) -> AsymptoticReport:
    ts = profile.t_values()
    if len(profile.samples) < 4:
        raise ValidationError("need at least 4 samples to fit a growth rate")
    ratios = profile.ratio_matrix()
    totals = profile.total_ratios()
    if (ratios <= 0).any():
        raise ValidationError("growth fit needs positive ratios")
    rates = np.array(
        [np.polyfit(ts, np.log(ratios[:, j]), 1)[0] for j in range(ratios.shape[1])]
    )
    total_rate = float(np.polyfit(ts, np.log(totals), 1)[0])
    burn = min(3, len(totals) - 2)
    monotone = bool(np.all(np.diff(totals[burn:]) > 0))
    return AsymptoticReport(
        regime=regime,
        kind="divergent",
        vertex_order=profile.vertex_order,
        estimates=rates,
        total_estimate=total_rate,
        growth_rate=total_rate,
        growth_monotone=monotone,
    )


def estimate_limit(profile: CoveringProfile, regime) -> AsymptoticReport:
    """Window-averaged limit estimates with drift diagnostics."""
    name = regime.regime if isinstance(regime, RegimeResult) else str(regime)
    if name not in REGIMES:
        raise ValueError(f"unknown regime {name!r}")
    if not profile.samples:
        raise ValidationError("empty profile")
    if name == "LargeCondensation":
        return _estimate_divergent(profile, name)
    if name.endswith("Lattice"):
        return _estimate_lattice(profile, name)
    return _estimate_dense(profile, name)


# -- renewal cross-check ------------------------------------------------------


def _forcing_values(ctx: ForcingContext) -> dict[str, np.ndarray]:
    """Corrected forcing L_i at every grid point, from honest counts."""
    graph = ctx.graph
    s0 = ctx.spectral.s0
    out = {}
    for v in graph.vertex_order:
        vals = np.zeros(ctx.t_grid.size)
        for idx, t in enumerate(ctx.t_grid):
            child_all = 0
            child_early = 0
            for e in graph.out_edges(v):
                shifted = child_time(t, e)
                c = ctx.count_at(e.dst, shifted)
                child_all += c
                if shifted < 0:
                    child_early += c
            defect = child_all - ctx.count_at(v, t)
            vals[idx] = math.exp(-s0 * t) * (child_early - defect)
        out[v] = vals
    return out


def _renewal_residual(ctx: ForcingContext, forcing: dict[str, np.ndarray]) -> float:
    """Max deviation from f = f*M + L with every term measured directly."""
    graph = ctx.graph
    s0 = ctx.spectral.s0
    worst = 0.0
    for v in graph.vertex_order:
        for idx, t in enumerate(ctx.t_grid):
            lhs = ctx.normalized_count(v, t)
            conv = 0.0
            for e in graph.out_edges(v):
                shifted = child_time(t, e)
                if shifted >= 0:
                    conv += e.ratio**s0 * ctx.normalized_count(e.dst, shifted)
            worst = max(worst, abs(lhs - conv - forcing[v][idx]))
    return worst


@dataclass(frozen=True)
class CrossCheckResult:
    kind: str
    vertex_order: tuple[str, ...]
    predicted: np.ndarray
    measured: np.ndarray
    rel_discrepancy: np.ndarray
    max_rel_discrepancy: float
    residual_max: float
    y_grid: np.ndarray | None = None
    tau: float | None = None


def cross_check(
    graph: MWGraph,
    spectral: SpectralData,
    report: AsymptoticReport,
    *,
    grid_origin=None,
    tight: bool | None = None,
    n_periods: int | None = None,
    dense_t_max: float = 10.0,
    dense_step: float = 0.05,
) -> CrossCheckResult:
    """Compare measured limit estimates against the renewal prediction.

    The forcing terms are measured from covering counts on a grid matched
    to the report (offsets y + k*tau in lattice mode, a uniform mesh in
    dense mode), pushed through the rank-one limit matrix of the Perron
    data.  Also reports the worst renewal-identity residual of the measured
    data, which vanishes up to rounding by construction.
    """
    if report.kind == "divergent":
        raise ValueError("cross-check applies to the small-condensation regime only")
    a = spectral.limit_matrix
    if report.kind == "periodic":
        tau = report.tau
        if tau is None or report.y_grid is None:
            raise ValueError("periodic report lacks its sampling grid")
        k_max = n_periods if n_periods is not None else (max(report.n_values) if report.n_values else 10)
        points = [y + k * tau for y in report.y_grid for k in range(k_max + 1)]
        ctx = ForcingContext(
            graph, spectral, points, grid_origin=grid_origin, tight=tight
        )
        forcing = _forcing_values(ctx)
        lookup = {t: i for i, t in enumerate(ctx.t_grid)}
        predicted = np.zeros((report.y_grid.size, len(graph.vertex_order)))
        for row, y in enumerate(report.y_grid):
            sums = np.array(
                [
                    sum(
                        forcing[v][lookup[y + k * tau]]
                        for k in range(k_max + 1)
                    )
                    for v in graph.vertex_order
                ]
            )
            predicted[row] = tau * (sums @ a)
        measured = np.asarray(report.estimates)
        rel = np.abs(predicted - measured) / np.maximum(np.abs(measured), 1e-300)
        return CrossCheckResult(
            kind="periodic",
            vertex_order=graph.vertex_order,
            predicted=predicted,
            measured=measured,
            rel_discrepancy=rel,
            max_rel_discrepancy=float(rel.max()),
            residual_max=_renewal_residual(ctx, forcing),
            y_grid=report.y_grid,
            tau=tau,
        )
    steps = int(round(dense_t_max / dense_step))
    points = np.linspace(0.0, dense_t_max, steps + 1)
    ctx = ForcingContext(
        graph, spectral, points, grid_origin=grid_origin, tight=tight
    )
    forcing = _forcing_values(ctx)
    integrals = np.array(
        [_trapezoid(forcing[v], ctx.t_grid) for v in graph.vertex_order]
    )
    predicted = integrals @ a
    measured = np.asarray(report.estimates)
    rel = np.abs(predicted - measured) / np.maximum(np.abs(measured), 1e-300)
    return CrossCheckResult(
        kind="constant",
        vertex_order=graph.vertex_order,
        predicted=predicted,
        measured=measured,
        rel_discrepancy=rel,
        max_rel_discrepancy=float(rel.max()),
        residual_max=_renewal_residual(ctx, forcing),
    )


# -- end-to-end orchestration -------------------------------------------------


@dataclass(frozen=True)
class AnalysisResult:
    vertex_order: tuple[str, ...]
    spectral: SpectralData
    lattice: LatticeResult
    regime: RegimeResult
    profile: CoveringProfile
    report: AsymptoticReport
    cross: CrossCheckResult | None
    notes: tuple[str, ...] = ()


def _default_points(
    graph: MWGraph,
    regime: RegimeResult,
    *,
    n_min: int,
    n_max: int,
    y_samples: int,
    t_min: float,
    t_max: float,
    dense_samples: int,
    large_n_min: int,
    large_n_max: int,
):
    if regime.regime == "SmallCondensation-Lattice":
        tau = regime.lattice.tau
        ys = [m * tau / y_samples for m in range(y_samples)]
        return lattice_grid(tau, range(n_min, n_max + 1), ys)
    if regime.regime == "LargeCondensation":
        if regime.lattice.is_lattice:
            step = regime.lattice.tau
        else:
            step = max(e.log_ratio for e in graph.edges.values())
        return lattice_grid(step, range(large_n_min, large_n_max + 1), [0.0])
    return np.linspace(t_min, t_max, dense_samples).tolist()


def analyze(
    graph: MWGraph,
    *,
    n_min: int = 4,
    n_max: int = 10,
    y_samples: int = 8,
    t_min: float = 2.0,
    t_max: float = 14.0,
    dense_samples: int = 24,
    large_n_min: int = 3,
    large_n_max: int = 10,
    grid_origin=None,
    tight: bool | None = None,
    eps: float = 1e-9,
    with_cross_check: bool = True,
) -> AnalysisResult:
    """Full pipeline: validate, classify, profile, estimate, cross-check."""
    validate(graph).raise_if_failed()
    spectral = solve_s0(graph)
    lattice = classify_graph(graph, eps=eps)
    regime = classify_regime(graph, spectral, lattice=lattice, eps=eps)
    points = _default_points(
        graph,
        regime,
        n_min=n_min,
        n_max=n_max,
        y_samples=y_samples,
        t_min=t_min,
        t_max=t_max,
        dense_samples=dense_samples,
        large_n_min=large_n_min,
        large_n_max=large_n_max,
    )
    prof = profile_at(
        graph,
        points,
        spectral=spectral,
        grid_origin=grid_origin,
        tight=tight,
    )
    report = estimate_limit(prof, regime)
    cross = None
    if with_cross_check and report.kind != "divergent":
        cross = cross_check(
            graph,
            spectral,
            report,
            grid_origin=grid_origin,
            tight=tight,
        )
    return AnalysisResult(
        vertex_order=graph.vertex_order,
        spectral=spectral,
        lattice=lattice,
        regime=regime,
        profile=prof,
        report=report,
        cross=cross,
        notes=regime.notes,
    )


# -- separation spot check ----------------------------------------------------


def _shape_cloud(shape, per_edge: int = 9) -> np.ndarray:
    from .geometry import OrientedBox, PointShape, SegmentShape

    if isinstance(shape, PointShape):
        return np.array([shape.point])
    if isinstance(shape, SegmentShape):
        a, b = np.array(shape.a), np.array(shape.b)
        ts = np.linspace(0.0, 1.0, per_edge)
        return a + ts[:, None] * (b - a)
    if isinstance(shape, OrientedBox):
        corners = shape.corners()
        pts = [corners]
        # midpoints between corner pairs flesh out edges cheaply
        for i in range(len(corners)):
            for j in range(i + 1, len(corners)):
                pts.append((corners[i][None, :] + corners[j][None, :]) / 2)
        return np.vstack(pts)
    raise TypeError(f"unsupported shape {type(shape).__name__}")


@dataclass(frozen=True)
class SeparationSpotCheck:
    pairs_checked: int
    min_normalized_distance: float | None


def separation_spot_check(
    graph: MWGraph,
    spectral: SpectralData | None = None,
    *,
    stop_ratio: float = 1e-3,
    pairs: int = 40,
    rng=0,
) -> SeparationSpotCheck:
    """Sampled lower bound on condensation separation between distinct paths.

    Draws stationary-weighted path pairs, maps each terminal vertex's
    condensation shapes along its path, and records the distance between
    the two images normalized by the contraction of the common prefix.
    A positive floor across samples is consistent with (but does not
    prove) the strong separation the divergence conclusion relies on.
    """
    if not graph.has_condensation():
        return SeparationSpotCheck(0, None)
    if spectral is None:
        spectral = solve_s0(graph)
    gen = np.random.default_rng(rng)
    best = math.inf
    checked = 0
    attempts = 0
    while checked < pairs and attempts < 20 * pairs:
        attempts += 1
        start = graph.vertex_order[int(gen.integers(len(graph.vertex_order)))]
        p1 = sample_path(graph, spectral, stop_ratio, rng=gen, start=start)
        p2 = sample_path(graph, spectral, stop_ratio, rng=gen, start=start)
        if p1.edges == p2.edges:
            continue
        k = len(common_prefix(p1, p2).edges)
        if k == min(len(p1), len(p2)):
            continue  # one is a prefix of the other; no sibling split
        clouds = []
        ok = True
        for p in (p1, p2):
            terminal = graph.path_terminal(p)
            prims = graph.condensation[terminal]
            if not prims:
                ok = False
                break
            sim = graph.path_map(p)
            clouds.append(
                np.vstack([_shape_cloud(prim.image(sim)) for prim in prims])
            )
        if not ok:
            continue
        meet_ratio = graph.path_ratio(p1.prefix(k))
        diff = clouds[0][:, None, :] - clouds[1][None, :, :]
        dist = float(np.sqrt((diff**2).sum(axis=2)).min())
        best = min(best, dist / meet_ratio)
        checked += 1
    return SeparationSpotCheck(checked, None if checked == 0 else best)
