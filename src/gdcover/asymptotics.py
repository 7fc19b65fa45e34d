"""Regime classification and limit estimation for covering profiles.

Three regimes are distinguished.  When every condensation scale integral
converges, normalized counts settle to a constant vector (dense log-ratios)
or to a periodic profile (lattice log-ratios).  When some integral
diverges, normalized counts grow without bound and only a growth rate is
reported.  Finite data cannot prove a limit, so every point estimate comes
with a drift diagnostic over the estimation window, and small-condensation
estimates are cross-checked against a renewal-weighted mean of the measured
profile over its last window.  That check reads the same counts as the
estimate, so it is not an independent prediction: it catches
non-convergence, stopping-size ties and phase errors.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .covering import (
    CoveringProfile,
    IntegralResult,
    condensation_integral,
    lattice_grid,
    profile,
    profile_at,
)
from .errors import InconclusiveRegimeError, ValidationError
from .graph import MWGraph, validate
from .lattice import LatticeResult, classify_graph
from .renewal import LATTICE_ALIGN_TOL
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
]

REGIMES = (
    "SmallCondensation-Dense",
    "SmallCondensation-Lattice",
    "LargeCondensation",
)

_trapezoid = getattr(np, "trapezoid", None) or np.trapz

DENSE_MIN_SPAN = 2 * math.log(10.0)
LATTICE_MIN_PERIODS = 4
# large-condensation samples: one per period n of the step, n from the
# first to the last of this range
_LARGE_N = range(3, 11)


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
) -> RegimeResult:
    """Decide which asymptotic regime the system falls in.

    Only each vertex's convergence verdict of its condensation scale
    integral is read (``condensation_integral``: largest box dimension
    below s0), never a value.  All integrals finite puts the system in the
    small-condensation regime, split by the lattice dichotomy of cycle
    log-ratios.  Any divergent integral yields the large regime; the
    divergence conclusion is only certified under the strongest declared
    separation, so weaker declarations are flagged in the notes.
    """
    if spectral is None:
        spectral = solve_s0(graph)
    if lattice is None:
        lattice = classify_graph(graph)
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


def _estimate_lattice(
    profile: CoveringProfile, regime: str, tau: float | None
) -> AsymptoticReport:
    """Per-offset estimates; ``tau`` is the lattice step, or None when the
    regime came without its lattice."""
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
        # the lattice's own step: t2 - t1 of two samples a period apart can be
        # an ulp off it, and the cross-check's lattice_grid would miss profile t
        tau = regime.lattice.tau if isinstance(regime, RegimeResult) else None
        return _estimate_lattice(profile, name, tau)
    return _estimate_dense(profile, name)


# -- renewal cross-check ------------------------------------------------------


@dataclass(frozen=True)
class CrossCheckResult:
    kind: str
    vertex_order: tuple[str, ...]
    predicted: np.ndarray
    measured: np.ndarray
    rel_discrepancy: np.ndarray
    max_rel_discrepancy: float
    y_grid: np.ndarray | None = None
    tau: float | None = None


def cross_check(
    graph: MWGraph,
    spectral: SpectralData,
    report: AsymptoticReport,
    profile: CoveringProfile,
) -> CrossCheckResult:
    """Compare the limit estimate with a renewal-weighted mean of the
    measured profile over its last window.

    Weighted by the left Perron vector v, the renewal forcing telescopes:
    sum_i v_i int_0^T L_i = sum_e v_src r_e^s0 W_e, with W_e the integral
    of Z_dst(t) = e^(-s0 t) N_dst(t) over edge e's last window
    [T - log(1/r_e), T]; per source vertex, the r_e^s0 W_e go through the
    rank-one ``limit_matrix``.  Lattice mode: T is the report's last period
    and W_e is tau times the sum over the last round(log(1/r_e)/tau)
    periods, at profile t values.  Dense mode: T is the profile's last t,
    and W_e the trapezoid rule of Z_dst interpolated between the profile's
    samples.  Counts are read from ``profile``, the profile the report was
    estimated from; a lattice window longer than its periods reaches below
    its first n, and those points are counted on its grid.  The check reads
    the counts the estimate reads, so it is not an independent prediction;
    it catches non-convergence, stopping-size ties and phase errors.
    Nonzero vertex phases (a log(1/r_e) off tau*Z) raise ``ValidationError``.
    """
    if report.kind == "divergent":
        raise ValueError("cross-check applies to the small-condensation regime only")
    edges = list(graph.edges.values())
    counts = _sample_counts(profile)
    tau = y_grid = samples = None
    if report.kind == "periodic":
        tau, y_grid = report.tau, report.y_grid
        if tau is None or y_grid is None or not report.n_values:
            raise ValueError("periodic report lacks its sampling grid")
        if phased := _phase_note(graph, tau):
            raise ValidationError(phased)
        last = max(report.n_values)
        # one row of windows per offset, at the profile's own grid t values
        windows = [
            [[t for t, _n, _y in lattice_grid(
                tau, range(max(0, last - round(e.log_ratio / tau) + 1), last + 1), [y])]
             for e in edges]
            for y in y_grid.tolist()
        ]
        # only an edge longer than the profile's periods reaches below its
        # first n: those points are counted on the profile's grid
        missing = {(e.dst, t) for row in windows for e, ts in zip(edges, row) for t in ts
                   if (e.dst, t) not in counts}
        if missing:
            counts.update(_sample_counts(profile_at(
                graph, sorted({t for _v, t in missing}), spectral=spectral,
                grid_origin=profile.grid_origin)))
    else:
        # sorted(set()), not np.unique: on floats that imports numpy.ma
        samples = sorted({s.t for s in profile.samples})
        # the forcing lives on t >= 0: a profile ending below 0 has no window;
        # Z_dst is linear between the samples and flat below the first
        end = max(0.0, samples[-1])
        starts = [max(0.0, end - e.log_ratio) for e in edges]
        windows = [[[a, *(t for t in samples if a < t < end), end] for a in starts]]
    s0, col = spectral.s0, {v: k for k, v in enumerate(graph.vertex_order)}
    sums = np.zeros((len(windows), len(col)))
    for out, row in zip(sums, windows):
        for e, ts in zip(edges, row):
            z = [counts[e.dst, t] * math.exp(-s0 * t) for t in samples or ts]
            w = tau * sum(z) if samples is None else _trapezoid(np.interp(ts, samples, z), ts)
            out[col[e.src]] += e.ratio**s0 * w
    predicted = (sums[0] if tau is None else sums) @ spectral.limit_matrix
    measured = np.asarray(report.estimates)
    rel = np.abs(predicted - measured) / np.maximum(np.abs(measured), 1e-300)
    return CrossCheckResult(
        kind="constant" if tau is None else "periodic",
        vertex_order=graph.vertex_order,
        predicted=predicted,
        measured=measured,
        rel_discrepancy=rel,
        max_rel_discrepancy=float(rel.max()),
        y_grid=y_grid,
        tau=tau,
    )


def _sample_counts(profile: CoveringProfile) -> dict[tuple[str, float], int]:
    """``{(vertex, t): count}`` over the samples of a profile."""
    return {(v, s.t): c for s in profile.samples for v, c in zip(profile.vertex_order, s.counts)}


def _phase_note(graph: MWGraph, tau: float) -> str | None:
    """Why the lattice window does not apply, or None."""
    for e in graph.edges.values():
        if abs(e.log_ratio - round(e.log_ratio / tau) * tau) > LATTICE_ALIGN_TOL:
            return f"edge {e.id!r} is off the lattice; the cross-check does not model vertex phases"
    return None


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


def analyze(
    graph: MWGraph,
    *,
    n_min: int = 4,
    n_max: int = 10,
    y_samples: int = 8,
    t_min: float = 2.0,
    t_max: float = 14.0,
    dense_samples: int = 24,
    grid_origin=None,
) -> AnalysisResult:
    """Full pipeline: validate, classify, profile, estimate, cross-check.

    The regime picks one ``profile`` grid: n_min..n_max periods of
    ``y_samples`` offsets on a lattice, n in ``_LARGE_N`` periods of the
    step under large condensation, ``dense_samples`` uniform t in
    [t_min, t_max] otherwise.  More than ``CELL_CAP`` samples, that is
    (n_max - n_min + 1) * y_samples or ``dense_samples``, raise
    ``ResourceLimitError`` before any is built; periods outside
    ``0 <= n_min <= n_max`` raise ``ValueError`` before anything is solved.
    """
    if not 0 <= n_min <= n_max:
        raise ValueError(f"need 0 <= n_min <= n_max, got n_min = {n_min!r}, n_max = {n_max!r}")
    validate(graph).raise_if_failed()
    spectral = solve_s0(graph)
    lattice = classify_graph(graph)
    regime = classify_regime(graph, spectral, lattice=lattice)
    if regime.regime == "SmallCondensation-Lattice":
        tau = lattice.tau
        # the last offset as the grid writes it; profile refuses y_samples = 0
        last = (y_samples - 1) * tau / y_samples if y_samples else 0.0
        grid = (tau * n_min, tau * n_max + last, y_samples, tau)
    elif regime.regime == "LargeCondensation":
        step = lattice.tau if lattice.is_lattice else max(e.log_ratio for e in graph.edges.values())
        grid = (step * _LARGE_N[0], step * _LARGE_N[-1], 1, step)
    else:
        grid = (t_min, t_max, dense_samples, None)
    prof = profile(graph, *grid, spectral=spectral, grid_origin=grid_origin)
    report = estimate_limit(prof, regime)
    cross, notes = None, regime.notes
    phased = report.kind == "periodic" and _phase_note(graph, report.tau)
    if phased:
        notes += (f"cross-check skipped: {phased}",)
    elif report.kind != "divergent":
        cross = cross_check(graph, spectral, report, prof)
    return AnalysisResult(
        vertex_order=graph.vertex_order,
        spectral=spectral,
        lattice=lattice,
        regime=regime,
        profile=prof,
        report=report,
        cross=cross,
        notes=notes,
    )
