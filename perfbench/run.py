"""gdcover benchmark: one workload per invocation, checked and measured.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload analyze_corpus --seed 1 --seconds 10 --trace 0

Makes the workload's inputs from ``--seed``, prints their digest, measures
set-up in fresh processes, then runs the workload in a fresh worker process
with ``GDCOVER_CACHE`` removed from its environment.  End-to-end times are
read from the speed probe's clock (``speedprobe.py``), which takes the shared
host's changing speed out of them.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics
with ``--trace 1``).  See README.md in this directory.
"""
from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from workloads import WORKLOADS, make_inputs  # noqa: E402

SETUP_REPS = 5  # set-up is timed in this many fresh processes; the median is reported
DEADLINE_S = 170.0  # a run must end well inside 180 s


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("GDCOVER_CACHE", None)  # a warm pickle cache would time another program
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(workload, work_dir, deadline, *, seconds=0.0, trace=0, setup_only=False) -> dict:
    result_path = os.path.join(work_dir, "result.json")
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload,
        "--inputs", os.path.join(work_dir, "inputs.json"),
        "--work-dir", work_dir,
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--result", result_path,
    ]
    if setup_only:
        cmd.append("--setup-only")
    if os.path.exists(result_path):
        os.remove(result_path)
    timeout = max(1.0, deadline - time.monotonic())
    # subprocess.run kills and reaps the child when the timeout expires
    proc = subprocess.run(cmd, env=_child_env(), stdout=sys.stderr, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _end_to_end(setup_times: list[float], res: dict) -> dict:
    passes = res["passes"]
    ops = [op for p in passes for op in p["ops"]]
    ok = sum(1 for op in ops if not op["failed"])
    return {
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "wall_s": _metric(statistics.median(p["wall_s"] for p in passes), "s"),
        "slowest_op_s": _metric(statistics.median(p["slowest_op_s"] for p in passes), "s"),
        "cpu_s": _metric(statistics.median(p["cpu_s"] for p in passes), "s"),
        "peak_rss_mb": _metric(res["peak_rss_mb"], "MB"),
        "ok_ratio": _metric(ok / len(ops), "ratio"),
    }


LAYER_UNITS = {".s": "s", "_s": "s", ".us_per_node": "us", ".us_per_cell": "us"}


def _layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    if name.endswith(("redundancy", "ratio", "per_element")):
        return "ratio"
    if name == "cli.bytes_written":
        return "B"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(SRC, "gdcover", "__init__.py")):
        print(f"error: no gdcover sources under {SRC}", file=sys.stderr)
        return 2
    # byte-compile once so that no timed set-up pays for it
    compileall.compile_dir(SRC, quiet=1)

    work_dir = os.path.join(HERE, ".work", f"{args.workload}-{args.seed}-{args.trace}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    inputs = make_inputs(args.workload, args.seed, SRC)
    blob = json.dumps(inputs, sort_keys=True, separators=(",", ":")).encode()
    inputs_path = os.path.join(work_dir, "inputs.json")
    with open(inputs_path, "wb") as fh:
        fh.write(blob)
    print(f"workload {args.workload} seed {args.seed}: {len(inputs['items'])} operations per pass, "
          f"inputs sha256 {hashlib.sha256(blob).hexdigest()}")
    sys.stdout.flush()

    try:
        if args.trace:
            # the untraced and the traced pass each run first in a fresh
            # process; their order alternates with the seed so that an order
            # effect cancels across seeds instead of biasing the overhead
            order = (0, 1) if args.seed % 2 else (1, 0)
            got = {t: _worker(args.workload, work_dir, deadline, trace=t) for t in order}
            untraced, res = got[0], got[1]
            runs = untraced["passes"] + res["passes"]
        else:
            setup_times = [
                _worker(args.workload, work_dir, deadline, setup_only=True)["setup_s"]
                for _ in range(SETUP_REPS - 1)
            ]
            res = _worker(args.workload, work_dir, deadline, seconds=args.seconds)
            setup_times.append(res["setup_s"])
            runs = res["passes"]
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    ops = [op for p in runs for op in p["ops"]]
    failed = [op for op in ops if op["failed"]]
    for k, p in enumerate(runs):
        label = ("untraced pass", "traced pass")[k] if args.trace else f"pass {k + 1}"
        print(f"{label}: wall {p['wall_s']:.3f} s, cpu {p['cpu_s']:.3f} s "
              f"at reference speed; wall {p['raw_wall_s']:.3f} s as measured")
        for op in p["ops"]:
            status = "FAIL" if op["failed"] else "ok"
            print(f"  {op['name']:<32} {op['s']:8.3f} s ({op['raw_s']:8.3f} s)  {status}  "
                  f"{op['detail']}".rstrip())
    print(f"fail_ratio {len(failed)}/{len(ops)} = {len(failed) / len(ops):.4f}; failing: "
          + (", ".join(sorted({op['name'] for op in failed})) or "none"))

    if args.trace:
        layers = dict(res["layers"])
        # spans are plain wall time, so the overhead is too
        layers["trace.wall_s"] = res["passes"][0]["raw_wall_s"]
        layers["trace.untraced_wall_s"] = untraced["passes"][0]["raw_wall_s"]
        layers["trace.overhead_s"] = layers["trace.wall_s"] - layers["trace.untraced_wall_s"]
        layers["trace.spans"] = res["spans"]
        for name, counts in res["op_counts"].items():
            print(f"  counts {name:<32} " + ", ".join(f"{k} {v}" for k, v in counts.items()))
        print(f"tracing overhead {layers['trace.overhead_s']:.3f} s "
              f"(traced {layers['trace.wall_s']:.3f} s - untraced {layers['trace.untraced_wall_s']:.3f} s); "
              f"spans in {os.path.relpath(res['spans_path'], ROOT)}")
        metrics = {name: _metric(value, _layer_unit(name)) for name, value in layers.items()}
    else:
        metrics = _end_to_end(setup_times, res)
        probe = res["probe"]
        print(f"speed probe: {probe['samples']} samples, {probe['s']:.3f} s in the probe, "
              f"mean host speed {probe['mean_speed']:.3f} of the reference")
        for name, m in metrics.items():
            print(f"{name:<14} {m['value']:.6g} {m['unit']}")
    shutil.rmtree(os.path.join(work_dir, "report"), ignore_errors=True)
    shutil.rmtree(os.path.join(work_dir, "systems"), ignore_errors=True)

    print(json.dumps({
        "correct": not any(op["incorrect"] for op in ops),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
