"""Command-line interface.

Subcommands delegate to the library modules and emit deterministic
artifacts: JSON documents are serialized with sorted keys, CSV floats are
fixed at 12 significant digits, so identical inputs yield byte-identical
outputs.  Exit codes: 0 success, 1 validation failure, 2 resource cap
exceeded, 3 numerical failure, 4 inconclusive regime.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from types import SimpleNamespace

import numpy as np

from . import asymptotics, covering, lattice, renewal, schema, spectral
from .errors import GdcoverError, ValidationError
from .graph import validate

__all__ = ["main"]


# -- deterministic emission helpers ------------------------------------------


def _fmt(x) -> str:
    """CSV cell formatting: integers verbatim, floats at 12 significant digits."""
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "%.12g" % float(x)


def _jsonable(x):
    if isinstance(x, np.ndarray):
        return _jsonable(x.tolist())
    if isinstance(x, (np.floating,)):
        return float(x)
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.bool_,)):
        return bool(x)
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _write_text(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(doc: dict, path: str | None) -> None:
    _write_text(json.dumps(_jsonable(doc), indent=2, sort_keys=True) + "\n", path)


def _emit_csv(header, rows, path: str | None) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(x) for x in row) for row in rows)
    _write_text("\n".join(lines) + "\n", path)


def _parse_origin(text: str | None):
    if text is None:
        return None
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValidationError("empty --grid-origin")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise ValidationError(f"--grid-origin must be numeric, got {text!r}") from None
    return values[0] if len(values) == 1 else tuple(values)


def _load(args) -> "schema.MWGraph":
    graph = schema.load_system(args.file)
    validate(graph).raise_if_failed()
    return graph


# -- subcommand handlers -------------------------------------------------------


def cmd_validate(args) -> int:
    graph = schema.load_system(args.file)
    rep = validate(graph)
    doc: dict = {
        "ok": rep.ok,
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail}
            for c in rep.checks
        ],
    }
    if args.spot_check and rep.ok:
        check = asymptotics.separation_spot_check(
            graph, pairs=args.pairs, rng=args.seed, stop_ratio=args.stop_ratio
        )
        doc["spot_check"] = {
            "pairs_checked": check.pairs_checked,
            "min_normalized_distance": check.min_normalized_distance,
        }
    if args.json or args.output:
        _emit_json(doc, args.output)
    else:
        for c in rep.checks:
            mark = "PASS" if c.passed else "FAIL"
            detail = f"  ({c.detail})" if c.detail else ""
            print(f"{mark} {c.name}{detail}")
        if "spot_check" in doc:
            sc = doc["spot_check"]
            print(
                f"spot-check: {sc['pairs_checked']} path pairs, "
                f"min normalized distance {_fmt(sc['min_normalized_distance'])}"
            )
        print("ok" if rep.ok else "validation failed")
    return 0 if rep.ok else 1


def cmd_dim(args) -> int:
    graph = _load(args)
    sd = spectral.solve_s0(graph, tol=args.tol)
    doc = {
        "s0": sd.s0,
        "vertex_order": list(sd.vertex_order),
        "u": sd.u,
        "v": sd.v,
        "mean_log_ratio": sd.mean_log_ratio,
    }
    if args.json or args.output:
        _emit_json(doc, args.output)
    else:
        print(f"s0 = {sd.s0:.12g}")
        for k, vid in enumerate(sd.vertex_order):
            print(f"  {vid}: u = {sd.u[k]:.12g}, v = {sd.v[k]:.12g}")
    return 0


def cmd_lattice(args) -> int:
    graph = _load(args)
    if args.mode == "auto":
        result = lattice.classify_graph(graph, eps=args.eps)
    else:
        pairs = lattice.cycle_log_ratios(graph)
        values = [val for _c, val in pairs]
        if args.mode == "exact":
            if not all(e.ratio_rational is not None for e in graph.edges.values()):
                raise ValidationError(
                    "exact mode needs ratio_rational on every edge"
                )
            exact = [graph.path_ratio_rational(c) for c, _v in pairs]
            result = lattice.classify(values, exact_ratios=exact, eps=args.eps)
        else:
            result = lattice.classify(values, eps=args.eps)
    doc = {
        "kind": result.kind,
        "mode": result.mode,
        "tau": result.tau,
        "generators": list(result.generators),
        "note": result.note,
    }
    if args.json or args.output:
        _emit_json(doc, args.output)
    elif result.is_lattice:
        print(f"lattice, tau = {result.tau:.12g} ({result.mode} mode)")
    else:
        note = f": {result.note}" if result.note else ""
        print(f"dense ({result.mode} mode){note}")
    return 0


def _profile_rows(prof: covering.CoveringProfile):
    lattice_mode = any(s.n is not None for s in prof.samples)
    header = ["t", "r"]
    if lattice_mode:
        header += ["n", "y"]
    header += [f"N_{v}" for v in prof.vertex_order]
    header.append("N_total")
    header += [f"ratio_{v}" for v in prof.vertex_order]
    header.append("ratio_total")
    rows = []
    for s in prof.samples:
        row: list = [s.t, s.r]
        if lattice_mode:
            row += [s.n, s.y]
        row += list(s.counts)
        row.append(s.total)
        row += list(s.ratios)
        row.append(s.ratio_total)
        rows.append(row)
    return header, rows


def _resolve_period(args, graph) -> float | None:
    if args.period is None:
        return None
    if args.period == "auto":
        result = lattice.classify_graph(graph)
        if not result.is_lattice:
            raise ValidationError(
                "--period auto: the system's cycle ratios are dense, "
                "no period exists"
            )
        return result.tau
    try:
        period = float(args.period)
    except ValueError:
        raise ValidationError(
            f"--period must be a number or 'auto', got {args.period!r}"
        ) from None
    if period <= 0:
        raise ValidationError("--period must be positive")
    return period


def cmd_profile(args) -> int:
    graph = _load(args)
    sd = spectral.solve_s0(graph)
    prof = covering.profile(
        graph,
        args.tmin,
        args.tmax,
        args.samples,
        period=_resolve_period(args, graph),
        spectral=sd,
        grid_origin=_parse_origin(args.grid_origin),
        tight=args.tight,
        include_condensation=not args.no_condensation,
    )
    header, rows = _profile_rows(prof)
    _emit_csv(header, rows, args.output)
    return 0


def _parse_reduced(doc: dict):
    """Renewal-only input: matrix atoms and forcing pieces given directly.

    Expected shape::

        {"M": [[[ [location, weight], ... ]]],      # n x n entry lists
         "L": [[ [breakpoint, value], ... ]],       # one step list per row
         "tau": 0.693,                              # optional lattice step
         "horizon": 30.0, "truncation": 40,
         "samples_per_period": 64}
    """
    if not isinstance(doc, dict) or "M" not in doc or "L" not in doc:
        raise ValidationError("renewal input needs top-level keys M and L")
    m_rows = doc["M"]
    n = len(m_rows)
    if n == 0 or any(len(row) != n for row in m_rows):
        raise ValidationError("M must be a nonempty square array of atom lists")
    entries = []
    for row in m_rows:
        out_row = []
        for cell in row:
            if cell:
                locs = [float(p[0]) for p in cell]
                ws = [float(p[1]) for p in cell]
                out_row.append(renewal.AtomicMeasure(locs, ws))
            else:
                out_row.append(renewal.AtomicMeasure.zero())
        entries.append(out_row)
    m = renewal.MatrixMeasure(entries)
    l_rows = doc["L"]
    if len(l_rows) != n:
        raise ValidationError("L must have one step list per matrix row")
    forcing = []
    for pieces in l_rows:
        if pieces:
            bps = [float(p[0]) for p in pieces]
            vals = [float(p[1]) for p in pieces]
            forcing.append(renewal.StepFunction(bps, vals))
        else:
            forcing.append(renewal.StepFunction.zero())
    return m, forcing


def cmd_renewal(args) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read renewal input {args.file}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"renewal input is not valid JSON: {exc}") from exc
    m, forcing = _parse_reduced(doc)
    horizon = args.horizon if args.horizon is not None else float(doc.get("horizon", 30.0))
    truncation = args.truncation
    if truncation is None and "truncation" in doc:
        truncation = int(doc["truncation"])
    spp = args.samples_per_period
    if spp is None:
        spp = int(doc.get("samples_per_period", 64))
    tau = args.tau if args.tau is not None else doc.get("tau")
    dri = renewal.check_dri(forcing)
    fs = renewal.renewal_solve(m, forcing, horizon, truncation=truncation)
    lat = SimpleNamespace(is_lattice=True, tau=float(tau)) if tau else None
    lim = renewal.limit_value(m, forcing, lattice=lat, samples_per_period=spp)
    # residual of the fixed-point equation, sampled strictly inside the
    # horizon: the solution is clipped to zero at t >= horizon, so the
    # endpoint itself would report a spurious mismatch
    ts = np.linspace(0.0, horizon, args.samples, endpoint=False)
    residual = 0.0
    conv = []
    for j in range(m.n):
        parts = [fs[l].convolve_measure(m.entry(l, j)) for l in range(m.n)]
        conv.append(renewal.add_steps(parts))
    for j in range(m.n):
        lhs = np.array([fs[j](t) for t in ts])
        rhs = np.array([conv[j](t) + forcing[j](t) for t in ts])
        residual = max(residual, float(np.max(np.abs(lhs - rhs))))
    summary = {
        "n": m.n,
        "horizon": horizon,
        "dri_ok": dri.ok,
        "fixed_point_residual": residual,
        "limit": {
            "kind": lim.kind,
            "tau": lim.tau,
            "values": lim.values,
            "y_grid": lim.y_grid,
        },
    }
    if args.output:
        header = ["t"] + [f"f_{j}" for j in range(m.n)]
        rows = [[t] + [fs[j](t) for j in range(m.n)] for t in ts]
        _emit_csv(header, rows, args.output)
    if args.json_out:
        _emit_json(summary, args.json_out)
    if not args.output and not args.json_out:
        _emit_json(summary, None)
    return 0


def _spectral_doc(sd: spectral.SpectralData) -> dict:
    return {
        "s0": sd.s0,
        "vertex_order": list(sd.vertex_order),
        "u": sd.u,
        "v": sd.v,
        "mean_log_ratio": sd.mean_log_ratio,
    }


def _lattice_doc(res) -> dict:
    return {
        "kind": res.kind,
        "mode": res.mode,
        "tau": res.tau,
        "generators": list(res.generators),
        "note": res.note,
    }


def _report_doc(report: asymptotics.AsymptoticReport) -> dict:
    doc = {
        "regime": report.regime,
        "kind": report.kind,
        "vertex_order": list(report.vertex_order),
        "estimates": report.estimates,
        "total_estimate": report.total_estimate,
    }
    for name in (
        "drift",
        "drift_total",
        "thirds_drift",
        "y_grid",
        "tau",
        "n_values",
        "growth_rate",
        "growth_monotone",
    ):
        value = getattr(report, name)
        if value is not None:
            doc[name] = value
    return doc


def _cross_doc(cross: asymptotics.CrossCheckResult | None) -> dict | None:
    if cross is None:
        return None
    doc = {
        "kind": cross.kind,
        "vertex_order": list(cross.vertex_order),
        "predicted": cross.predicted,
        "measured": cross.measured,
        "rel_discrepancy": cross.rel_discrepancy,
        "max_rel_discrepancy": cross.max_rel_discrepancy,
        "residual_max": cross.residual_max,
    }
    if cross.y_grid is not None:
        doc["y_grid"] = cross.y_grid
    if cross.tau is not None:
        doc["tau"] = cross.tau
    return doc


def _analysis_doc(res: asymptotics.AnalysisResult, include_profile: bool) -> dict:
    doc = {
        "vertex_order": list(res.vertex_order),
        "spectral": _spectral_doc(res.spectral),
        "lattice": _lattice_doc(res.lattice),
        "regime": {
            "regime": res.regime.regime,
            "notes": list(res.regime.notes),
            "condensation_integrals": {
                v: {
                    "kind": r.kind,
                    "value": r.value,
                    "exponent": r.exponent,
                    "exact": r.exact,
                }
                for v, r in res.regime.integrals.items()
            },
        },
        "estimate": _report_doc(res.report),
        "cross_check": _cross_doc(res.cross),
        "notes": list(res.notes),
    }
    if include_profile:
        header, rows = _profile_rows(res.profile)
        doc["profile"] = {"columns": header, "rows": rows}
    return doc


def _run_analysis(args) -> asymptotics.AnalysisResult:
    graph = _load(args)
    return asymptotics.analyze(
        graph,
        n_min=args.n_min,
        n_max=args.n_max,
        y_samples=args.y_samples,
        t_min=args.tmin,
        t_max=args.tmax,
        dense_samples=args.samples,
        grid_origin=_parse_origin(args.grid_origin),
        tight=args.tight,
        with_cross_check=not args.no_cross_check,
    )


def cmd_analyze(args) -> int:
    res = _run_analysis(args)
    if args.json or args.output:
        _emit_json(_analysis_doc(res, include_profile=True), args.output)
        return 0
    print(f"regime: {res.regime.regime}")
    print(f"s0 = {res.spectral.s0:.12g}")
    if res.lattice.is_lattice:
        print(f"lattice, tau = {res.lattice.tau:.12g}")
    else:
        print("dense cycle-ratio group")
    rep = res.report
    if rep.kind == "constant":
        for k, v in enumerate(rep.vertex_order):
            print(f"  h[{v}] = {rep.estimates[k]:.12g}")
        print(f"  h[total] = {float(rep.total_estimate):.12g}")
        if rep.drift_total is not None:
            print(f"  drift(total) = {rep.drift_total:.3%}")
    elif rep.kind == "periodic":
        lo = float(np.min(rep.total_estimate))
        hi = float(np.max(rep.total_estimate))
        print(f"  periodic h(total) in [{lo:.12g}, {hi:.12g}]")
        if rep.drift_total is not None:
            print(f"  worst per-y drift(total) = {rep.drift_total:.3%}")
    else:
        print(f"  divergent; fitted growth rate {rep.growth_rate:.12g} per step")
    if res.cross is not None:
        print(
            f"cross-check: max relative discrepancy "
            f"{res.cross.max_rel_discrepancy:.3%}"
        )
    for note in res.regime.notes:
        print(f"note: {note}")
    return 0


def cmd_report(args) -> int:
    res = _run_analysis(args)
    os.makedirs(args.outdir, exist_ok=True)
    doc = _analysis_doc(res, include_profile=True)
    graph = schema.load_system(args.file)
    doc["system"] = schema.dump_system(graph)
    artifacts = {"report": "report.json", "profile": "profile.csv"}
    header, rows = _profile_rows(res.profile)
    _emit_csv(header, rows, os.path.join(args.outdir, "profile.csv"))
    rep = res.report
    if rep.kind == "periodic":
        header = ["y"] + [f"h_{v}" for v in rep.vertex_order] + ["h_total"]
        rows = [
            [rep.y_grid[k]]
            + list(rep.estimates[k])
            + [rep.total_estimate[k]]
            for k in range(len(rep.y_grid))
        ]
        _emit_csv(header, rows, os.path.join(args.outdir, "limit.csv"))
        artifacts["limit"] = "limit.csv"
    elif rep.kind == "constant":
        header = ["vertex", "h"]
        rows = [[v, rep.estimates[k]] for k, v in enumerate(rep.vertex_order)]
        rows.append(["total", float(rep.total_estimate)])
        _emit_csv(header, rows, os.path.join(args.outdir, "limit.csv"))
        artifacts["limit"] = "limit.csv"
    if res.cross is not None and res.cross.kind == "periodic":
        header = (
            ["y"]
            + [f"predicted_{v}" for v in res.cross.vertex_order]
            + [f"measured_{v}" for v in res.cross.vertex_order]
        )
        rows = [
            list(r)
            for r in np.column_stack(
                [res.cross.y_grid, res.cross.predicted, res.cross.measured]
            )
        ]
        _emit_csv(header, rows, os.path.join(args.outdir, "cross_check.csv"))
        artifacts["cross_check"] = "cross_check.csv"
    doc["artifacts"] = artifacts
    _emit_json(doc, os.path.join(args.outdir, "report.json"))
    print(f"wrote {', '.join(sorted(artifacts.values()))} to {args.outdir}")
    return 0


# -- parser --------------------------------------------------------------------


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--grid-origin",
        default=None,
        help="grid anchor: one number broadcast to all axes, or comma-separated",
    )
    p.add_argument(
        "--tight",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="exact rotated-box cell test (default: on for dimension <= 2)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gdcover",
        description="Covering profiles and dimension analysis of "
        "graph-directed systems with condensation",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("validate", help="check a system file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true", help="emit JSON to stdout")
    p.add_argument("-o", "--output", default=None, help="write JSON here")
    p.add_argument(
        "--spot-check",
        action="store_true",
        help="also measure separation on sampled path pairs",
    )
    p.add_argument("--pairs", type=int, default=40)
    p.add_argument("--stop-ratio", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("dim", help="similarity dimension and Perron data")
    p.add_argument("file")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--json", action="store_true")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_dim)

    p = sub.add_parser("lattice", help="classify the cycle-ratio group")
    p.add_argument("file")
    p.add_argument("--eps", type=float, default=lattice.DEFAULT_EPS)
    p.add_argument("--mode", choices=("auto", "exact", "floating"), default="auto")
    p.add_argument("--json", action="store_true")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("profile", help="covering-count profile as CSV")
    p.add_argument("file")
    p.add_argument("--tmin", type=float, default=0.0)
    p.add_argument("--tmax", type=float, default=10.0)
    p.add_argument(
        "--samples",
        type=int,
        default=41,
        help="t samples (dense) or y offsets per period (lattice)",
    )
    p.add_argument(
        "--period",
        default=None,
        help="lattice step for per-period sampling; 'auto' to detect",
    )
    p.add_argument("--no-condensation", action="store_true")
    _add_grid_flags(p)
    p.add_argument("-o", "--output", default=None, help="write CSV here")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser(
        "renewal", help="solve f = f*M + L from a reduced matrix/forcing file"
    )
    p.add_argument("file")
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--truncation", type=int, default=None)
    p.add_argument("--tau", type=float, default=None, help="lattice step")
    p.add_argument("--samples-per-period", type=int, default=None)
    p.add_argument("--samples", type=int, default=601, help="CSV sample count")
    p.add_argument("-o", "--output", default=None, help="write solution CSV here")
    p.add_argument("--json-out", default=None, help="write summary JSON here")
    p.set_defaults(func=cmd_renewal)

    for name, help_text in (
        ("analyze", "full pipeline: dimension, lattice, regime, limit"),
        ("report", "run the pipeline and write JSON + CSV artifacts"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file")
        p.add_argument("--n-min", type=int, default=4)
        p.add_argument("--n-max", type=int, default=10)
        p.add_argument("--y-samples", type=int, default=8)
        p.add_argument("--tmin", type=float, default=2.0)
        p.add_argument("--tmax", type=float, default=14.0)
        p.add_argument("--samples", type=int, default=24, help="dense-mode t samples")
        p.add_argument("--no-cross-check", action="store_true")
        _add_grid_flags(p)
        if name == "analyze":
            p.add_argument("--json", action="store_true")
            p.add_argument("-o", "--output", default=None)
            p.set_defaults(func=cmd_analyze)
        else:
            p.add_argument("-o", "--outdir", default="gdcover-report")
            p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GdcoverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
