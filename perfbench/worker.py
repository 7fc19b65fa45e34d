"""One workload in a fresh process: set-up, timed passes, output checks.

Started by ``run.py``; writes its measurements as JSON to ``--result``.  A
pass runs every operation of the workload once, one at a time, and passes
repeat until ``--seconds`` of wall time have passed.  With ``--trace 1``
the tracer is installed before set-up and exactly one pass runs under it.
"""
from __future__ import annotations

import speedprobe

# end-to-end times are read on the probe's clock (see speedprobe.py), so it
# starts before anything that set-up times; spans stay on plain wall time
PROBE = speedprobe.Probe()
PROBE.start()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import spantrace as tracing  # noqa: E402
from workloads import Outcome, Runner  # noqa: E402


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def run_pass(runner: Runner, tracer: tracing.Tracer | None = None) -> dict:
    """One pass.  Per operation, ``s`` and ``cpu_s`` are on the probe's clock:
    wall and CPU time less the probe's own time, scaled to the reference
    speed.  ``raw_s`` is the plain wall time, which spans are comparable with."""
    ops = []
    for k, name in enumerate(runner.op_names()):
        runner.before(k)
        span = tracer.open("op", {"name": name}) if tracer is not None else None
        p0 = PROBE.probe_s
        c0 = _cpu_s()
        n0 = PROBE.clock()
        t0 = time.perf_counter()
        try:
            result = runner.run(k)
            error = None
        except Exception:  # an operation that raises is counted, not fatal
            result = None
            error = traceback.format_exc(limit=3).strip().splitlines()[-1]
        finally:
            raw = time.perf_counter() - t0
            ref = PROBE.clock() - n0
            cpu = _cpu_s() - c0
            in_probe = PROBE.probe_s - p0
            if tracer is not None:
                tracer.close(span)
        scale = ref / max(raw - in_probe, 1e-9)
        if error is None:
            outcome = runner.check(k, result)
        else:
            outcome = Outcome(f"{runner.workload}/{name}")
            outcome.fail(f"raised {error}", incorrect=False)
        del result
        ops.append({
            "name": outcome.name,
            "s": ref,
            "raw_s": raw,
            "cpu_s": max(cpu - in_probe, 0.0) * scale,
            "failed": outcome.failed,
            "incorrect": outcome.incorrect,
            "detail": outcome.detail,
            "bytes_written": outcome.bytes_written,
            "span": span,
        })
    return {
        "wall_s": sum(op["s"] for op in ops),
        "raw_wall_s": sum(op["raw_s"] for op in ops),
        "cpu_s": sum(op["cpu_s"] for op in ops),
        "slowest_op_s": max(op["s"] for op in ops),
        "ops": ops,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    with open(args.inputs, encoding="utf-8") as fh:
        inputs = json.load(fh)
    runner = Runner(args.workload, inputs, args.work_dir)
    if not args.trace:
        runner.prepare()
        out: dict = {"setup_s": PROBE.clock()}
        if args.setup_only:
            return _write(out, args.result)
        passes: list[dict] = []
        t0 = time.perf_counter()
        while True:
            passes.append(run_pass(runner))
            elapsed = time.perf_counter() - t0
            if elapsed >= args.seconds:
                break
        out["passes"] = passes
        out["probe"] = {"samples": PROBE.samples, "s": PROBE.probe_s,
                        "mean_speed": sum(PROBE.speeds) / len(PROBE.speeds)}
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return _write(out, args.result)

    import gdcover.cli  # noqa: F401  (the tracer patches loaded modules only)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        setup_span = tracer.open("setup")
        runner.prepare()
        tracer.close(setup_span)
        traced = run_pass(runner, tracer)
    finally:
        tracer.uninstall()
    op_spans = [op["span"] for op in traced["ops"]]
    spans_path = os.path.join(args.work_dir, "spans.json")
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    return _write({
        "passes": [traced],
        "layers": tracing.layer_metrics(
            tracer.spans, op_spans, sum(op["bytes_written"] for op in traced["ops"])
        ),
        "spans": len(tracer.spans),
        "op_counts": {
            op["name"]: tracing.op_counts(tracer.spans, op["span"]) for op in traced["ops"]
        },
        "spans_path": spans_path,
    }, args.result)


def _write(out: dict, path: str) -> int:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    try:
        rc = main()
    finally:
        PROBE.stop()  # a SIGALRM left armed would kill the interpreter as it exits
    sys.exit(rc)
