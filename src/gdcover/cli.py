"""Command-line interface.

Subcommands delegate to the library modules and emit deterministic
artifacts: JSON documents are serialized with sorted keys, CSV floats are
fixed at 12 significant digits, so identical inputs yield byte-identical
outputs.  Exit codes: 0 success, 1 validation failure, 2 resource cap
exceeded, 3 numerical failure, 4 inconclusive regime.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import warnings
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

import numpy as np

from . import asymptotics, covering, lattice, renewal, schema, spectral
from .errors import GdcoverError, ResourceLimitError, ValidationError
from .graph import certify_separation, validate

__all__ = ["main"]


# -- deterministic emission helpers ------------------------------------------


def _fmt(x) -> str:
    """CSV cell formatting: integers verbatim, floats at 12 significant digits."""
    if isinstance(x, float):
        return "%.12g" % x
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "%.12g" % float(x)


def _json(x, pad: str = "\n") -> str:
    """``json.dumps(x, indent=2, sort_keys=True)`` in one pass, keys as
    ``str(key)``, numpy values as ``tolist()``; ``pad`` breaks and indents."""
    kind = type(x)
    if kind is float and x - x == 0 or kind is int:  # a finite float or an int
        return kind.__repr__(x)
    if kind is str:
        return encode_basestring_ascii(x)
    if isinstance(x, (np.ndarray, np.generic)):
        return _json(x.tolist(), pad)
    if isinstance(x, dict):
        x = {str(k): v for k, v in x.items()}
        rows = [f"{encode_basestring_ascii(k)}: {_json(x[k], pad + '  ')}" for k in sorted(x)]
    elif isinstance(x, (list, tuple)):
        rows = [_json(v, pad + "  ") for v in x]
    else:  # None, a bool, a float not finite, a subclass; a TypeError for what JSON lacks
        return json.dumps(x)
    ends = "{}" if isinstance(x, dict) else "[]"
    return f"{ends[0]}{pad}  {(',' + pad + '  ').join(rows)}{pad}{ends[1]}" if rows else ends


def _write_text(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(doc: dict, path: str | None) -> None:
    _write_text(_json(doc) + "\n", path)


def _emit_csv(header, rows, path: str | None) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(map(_fmt, row)) for row in rows)
    _write_text("\n".join(lines) + "\n", path)


def _parse_origin(text: str | None, dim: int):
    """One finite number for every axis, or ``dim`` comma-separated ones."""
    if text is None:
        return None
    parts = [p.strip() for p in text.split(",")]
    if not all(parts):
        raise ValidationError(f"--grid-origin has an empty field, got {text!r}")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise ValidationError(f"--grid-origin must be numeric, got {text!r}") from None
    if not all(map(math.isfinite, values)):
        raise ValidationError(f"--grid-origin must be finite, got {text!r}")
    if len(values) not in (1, dim):
        raise ValidationError(
            f"--grid-origin takes one number, or one per axis of this {dim}-d system, "
            f"got {len(values)}"
        )
    return values[0] if len(values) == 1 else tuple(values)


def _load(args) -> "schema.MWGraph":
    graph = schema.load_system(args.file)
    validate(graph).raise_if_failed()
    return graph


def _check_int_at_least(value, low: int, what: str) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ValidationError(f"{what} must be an integer >= {low}, got {value!r}")


def _check_t_range(args) -> None:
    if not (math.isfinite(args.tmin) and math.isfinite(args.tmax)):
        raise ValidationError(
            f"--tmin and --tmax must be finite, got {args.tmin} and {args.tmax}"
        )
    if args.tmin > args.tmax:
        raise ValidationError(f"--tmin {args.tmin} exceeds --tmax {args.tmax}")


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
    # the certificate needs a valid system, and never changes ok or the exit
    # code: a class it cannot certify may still hold for other open sets
    if rep.ok:
        doc["separation"] = [
            {"name": c.name, "certified": c.passed, "detail": c.detail}
            for c in certify_separation(graph)
        ]
    if args.json or args.output:
        _emit_json(doc, args.output)
    else:
        for c in rep.checks:
            mark = "PASS" if c.passed else "FAIL"
            detail = f"  ({c.detail})" if c.detail else ""
            print(f"{mark} {c.name}{detail}")
        for c in doc.get("separation", ()):
            verdict = "certified" if c["certified"] else "not certified by these boxes"
            detail = f"  ({c['detail']})" if c["detail"] else ""
            print(f"separation {c['name']}: {verdict}{detail}")
        print("ok" if rep.ok else "validation failed")
    return 0 if rep.ok else 1


def cmd_dim(args) -> int:
    graph = _load(args)
    sd = spectral.solve_s0(graph)
    if args.json or args.output:
        _emit_json(_spectral_doc(sd), args.output)
    else:
        print(f"s0 = {sd.s0:.12g}")
        for k, vid in enumerate(sd.vertex_order):
            print(f"  {vid}: u = {sd.u[k]:.12g}, v = {sd.v[k]:.12g}")
    return 0


def cmd_lattice(args) -> int:
    graph = _load(args)
    result = lattice.classify_graph(graph)
    if args.json or args.output:
        _emit_json(_lattice_doc(result), args.output)
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
    if not (math.isfinite(period) and period > 0):
        raise ValidationError(f"--period must be positive and finite, got {args.period!r}")
    return period


def cmd_profile(args) -> int:
    _check_int_at_least(args.samples, 1, "--samples")
    _check_t_range(args)
    graph = _load(args)
    if args.no_condensation:
        graph = graph.without_condensation()
    grid_origin = _parse_origin(args.grid_origin, graph.dimension)
    sd = spectral.solve_s0(graph)
    period = _resolve_period(args, graph)
    try:
        prof = covering.profile(
            graph,
            args.tmin,
            args.tmax,
            args.samples,
            period=period,
            spectral=sd,
            grid_origin=grid_origin,
        )
    except ValueError as exc:
        # the flags are checked above, so what is left is a t-range that
        # holds no lattice point n*period + y
        if period is None:
            raise
        raise ValidationError(
            f"{exc}: --period {args.period}, --tmin {args.tmin}, --tmax {args.tmax}"
        ) from None
    header, rows = _profile_rows(prof)
    _emit_csv(header, rows, args.output)
    return 0


def _finite_number(x) -> bool:
    # Python's json reads Infinity and NaN as floats
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _pairs(items, what: str) -> tuple[list[float], list[float]]:
    """Split ``[[a, b], ...]`` into its first and second numbers."""
    if not isinstance(items, list):
        raise ValidationError(f"{what} must be a list of [number, number] pairs")
    for p in items:
        if not (isinstance(p, list) and len(p) == 2 and all(map(_finite_number, p))):
            raise ValidationError(f"{what}: every pair must be two finite numbers, got {p!r}")
    return [float(p[0]) for p in items], [float(p[1]) for p in items]


def _parse_reduced(doc: dict):
    """Renewal-only input: matrix atoms and forcing pieces given directly.

    Expected shape::

        {"M": [[[ [location, weight], ... ]]],      # n x n entry lists
         "L": [[ [breakpoint, value], ... ]],       # one step list per row
         "tau": 0.693,                              # optional lattice step
         "horizon": 30.0, "samples_per_period": 64}

    Forcing breakpoints must be at least ``renewal.ATOM_MERGE_TOL`` apart:
    closer ones can be rounded onto each other when the solver shifts them.
    Any other top-level key is refused.  Returns ``(M, L, horizon)``.
    """
    if not isinstance(doc, dict) or "M" not in doc or "L" not in doc:
        raise ValidationError("renewal input needs top-level keys M and L")
    unknown = set(doc) - {"M", "L", "horizon", "tau", "samples_per_period"}
    if unknown:
        raise ValidationError(f"renewal input: unknown top-level keys {sorted(unknown)}")
    m_rows = doc["M"]
    n = len(m_rows) if isinstance(m_rows, list) else 0
    if n == 0 or any(not isinstance(row, list) or len(row) != n for row in m_rows):
        raise ValidationError("M must be a nonempty square array of atom lists")
    entries = []
    for i, row in enumerate(m_rows):
        out_row = []
        for j, cell in enumerate(row):
            if cell:
                locs, ws = _pairs(cell, f"M[{i}][{j}]")
                out_row.append(renewal.AtomicMeasure(locs, ws))
            else:
                out_row.append(renewal.AtomicMeasure.zero())
        entries.append(out_row)
    m = renewal.MatrixMeasure(entries)
    l_rows = doc["L"]
    if not isinstance(l_rows, list) or len(l_rows) != n:
        raise ValidationError("L must have one step list per matrix row")
    forcing = []
    for i, pieces in enumerate(l_rows):
        if pieces:
            bps, vals = _pairs(pieces, f"L[{i}]")
            if any(b - a < renewal.ATOM_MERGE_TOL for a, b in zip(bps, bps[1:])):
                raise ValidationError(
                    f"L[{i}]: breakpoints must increase by at least "
                    f"{renewal.ATOM_MERGE_TOL:g}, got {bps}"
                )
            forcing.append(renewal.StepFunction(bps, vals))
        else:
            forcing.append(renewal.StepFunction.zero())
    horizon = doc.get("horizon", 30.0)
    if not _finite_number(horizon) or horizon <= 0:
        raise ValidationError(f"horizon must be a positive finite number, got {horizon!r}")
    return m, forcing, float(horizon)


def _check_sample_cap(n: int, what: str) -> None:
    """Refuse more than ``covering.CELL_CAP`` samples before any is built."""
    if n > covering.CELL_CAP:
        raise ResourceLimitError(f"{what} {n} exceeds the sample cap {covering.CELL_CAP}")


def cmd_renewal(args) -> int:
    _check_int_at_least(args.samples, 1, "--samples")
    _check_sample_cap(args.samples, "--samples")
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read renewal input {args.file}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"renewal input is not valid JSON: {exc}") from exc
    m, forcing, horizon = _parse_reduced(doc)
    spp = doc.get("samples_per_period", 64)
    _check_int_at_least(spp, 1, "samples_per_period")
    _check_sample_cap(spp, "samples_per_period")
    tau = doc.get("tau")
    if tau is not None and not (_finite_number(tau) and tau > 0):
        raise ValidationError(f"tau must be a positive finite number, got {tau!r}")
    try:
        fs = renewal.renewal_solve(m, forcing, horizon)
        conv = renewal.vector_convolve(fs, m)
    except ValueError as exc:
        # a shift by an atom location can round two forcing breakpoints
        # onto each other once their gap is below an ulp of the shifted value
        raise ValidationError(
            f"renewal input: {exc} after a shift by an atom location; "
            "space the forcing breakpoints wider or shorten the horizon"
        ) from None
    lat = None if tau is None else SimpleNamespace(is_lattice=True, tau=float(tau))
    lim = renewal.limit_value(m, forcing, lattice=lat, samples_per_period=spp)
    # residual of the fixed-point equation, sampled strictly inside the
    # horizon: the solution is clipped to zero at t >= horizon, so the
    # endpoint itself would report a spurious mismatch
    ts = np.linspace(0.0, horizon, args.samples, endpoint=False)
    cols = [f(ts) for f in fs]
    residual = 0.0
    for j in range(m.n):
        rhs = conv[j](ts) + forcing[j](ts)
        residual = max(residual, float(np.max(np.abs(cols[j] - rhs))))
    summary = {
        "n": m.n,
        "horizon": horizon,
        # limit_value has refused a forcing that fails the check
        "dri_ok": True,
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
        rows = np.column_stack([ts] + cols).tolist()
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
    }
    if cross.y_grid is not None:
        doc["y_grid"] = cross.y_grid
    if cross.tau is not None:
        doc["tau"] = cross.tau
    return doc


def _analysis_doc(res: asymptotics.AnalysisResult) -> dict:
    header, rows = _profile_rows(res.profile)
    return {
        "vertex_order": list(res.vertex_order),
        "spectral": _spectral_doc(res.spectral),
        "lattice": _lattice_doc(res.lattice),
        "regime": {
            "regime": res.regime.regime,
            "notes": list(res.regime.notes),
            "condensation_integrals": {
                v: {"kind": r.kind, "exponent": r.exponent}
                for v, r in res.regime.integrals.items()
            },
        },
        "estimate": _report_doc(res.report),
        "cross_check": _cross_doc(res.cross),
        "notes": list(res.notes),
        "profile": {"columns": header, "rows": rows},
    }


def _run_analysis(args) -> tuple["schema.MWGraph", asymptotics.AnalysisResult]:
    _check_int_at_least(args.n_min, 0, "--n-min")
    _check_int_at_least(args.n_max, args.n_min, "--n-max")
    _check_int_at_least(args.y_samples, 1, "--y-samples")
    _check_int_at_least(args.samples, 1, "--samples")
    _check_t_range(args)
    # analyze validates the system, after every flag, --grid-origin included
    graph = schema.load_system(args.file)
    return graph, asymptotics.analyze(
        graph,
        n_min=args.n_min,
        n_max=args.n_max,
        y_samples=args.y_samples,
        t_min=args.tmin,
        t_max=args.tmax,
        dense_samples=args.samples,
        grid_origin=_parse_origin(args.grid_origin, graph.dimension),
    )


def cmd_analyze(args) -> int:
    _graph, res = _run_analysis(args)
    if args.json or args.output:
        _emit_json(_analysis_doc(res), args.output)
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
    for note in res.notes:
        print(f"note: {note}")
    return 0


def cmd_report(args) -> int:
    graph, res = _run_analysis(args)
    os.makedirs(args.outdir, exist_ok=True)
    doc = _analysis_doc(res)
    doc["system"] = schema.dump_system(graph)
    artifacts = {"report": "report.json", "profile": "profile.csv"}
    _emit_csv(doc["profile"]["columns"], doc["profile"]["rows"],
              os.path.join(args.outdir, "profile.csv"))
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
        help="grid anchor: one number broadcast to all axes, or comma-separated; "
        "give a negative one with '=', as --grid-origin=-0.1,0.2",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call (``main``'s) and shared after."""
    parser = argparse.ArgumentParser(
        prog="gdcover",
        description="Covering profiles and dimension analysis of "
        "graph-directed systems with condensation",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("validate", help="check a system file and certify its separation")
    p.add_argument("file")
    p.add_argument("--json", action="store_true", help="emit JSON to stdout")
    p.add_argument("-o", "--output", default=None, help="write JSON here")

    p = sub.add_parser("dim", help="similarity dimension and Perron data")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("lattice", help="classify the cycle-ratio group")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.add_argument("-o", "--output", default=None)

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
    p.add_argument("--no-condensation", action="store_true", help="the condensation-free system")
    _add_grid_flags(p)
    p.add_argument("-o", "--output", default=None, help="write CSV here")

    p = sub.add_parser(
        "renewal", help="solve f = f*M + L from a reduced matrix/forcing file"
    )
    p.add_argument("file")
    p.add_argument("--samples", type=int, default=601, help="CSV sample count")
    p.add_argument("-o", "--output", default=None, help="write solution CSV here")
    p.add_argument("--json-out", default=None, help="write summary JSON here")

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
        _add_grid_flags(p)
        if name == "analyze":
            p.add_argument("--json", action="store_true")
            p.add_argument("-o", "--output", default=None)
        else:
            p.add_argument("-o", "--outdir", default="gdcover-report")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = globals()[f"cmd_{args.subcommand}"]  # looked up now, so a patched one runs
    with warnings.catch_warnings():  # a warning is one line, like an error
        warnings.showwarning = lambda msg, *_: print(f"warning: {msg}", file=sys.stderr)
        try:
            return handler(args)
        except GdcoverError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
