"""Time README-default ``gdcover analyze --json``, one fresh process per run.

Runs every bundled system and four ``tests/helpers.family_system`` members
(n = 4 and 8, lattice and dense, seed 1) for ``ROUNDS`` rounds, each round
one run per system, and writes per system the median wall time with its
quartiles, the median peak RSS of the child process and the sha256 of its
stdout, which must repeat in every round::

    python tools/bench_defaults.py [-o BENCH_defaults.json]

The source measured is ``src`` beside this file's directory.  Every child
runs with one fixed ``MALLOC_MMAP_THRESHOLD_``, so its peak RSS follows what
it holds, not glibc's dynamic threshold.  A child's peak RSS counts the
pages of this process at the spawn, so this process imports neither numpy
nor gdcover: a helper child writes the family files, and the file records
this process's own peak for comparison.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MMAP_THRESHOLD = 131072  # glibc's initial threshold, held fixed
ROUNDS = 3
FAMILY = [(n, lattice) for n in (4, 8) for lattice in (True, False)]


# run in a child: writes each (n, lattice, path) member, prints numpy's version
_PREPARE = """
import json, sys
import numpy
from helpers import family_system
for n, lattice, path in json.loads(sys.argv[1]):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(family_system(n, lattice, 1), fh)
print(numpy.__version__)
"""


def _systems(work: Path) -> tuple[dict[str, Path], str]:
    """System files by name, and the numpy version the children import."""
    paths = dict(sorted((p.stem, p) for p in (ROOT / "src" / "gdcover" / "systems").glob("*.json")))
    members = []
    for n, lattice in FAMILY:
        name = f"family{n}_{'lattice' if lattice else 'dense'}"
        paths[name] = work / f"{name}.json"
        members.append((n, lattice, str(paths[name])))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
    numpy_version = subprocess.run(
        [sys.executable, "-c", _PREPARE, json.dumps(members)], env=env, cwd=ROOT,
        capture_output=True, text=True, check=True).stdout.strip()
    return paths, numpy_version


def _run(path: Path, env: dict) -> tuple[float, float, str]:
    """Wall time, peak RSS in MB and stdout sha256 of one analyze."""
    argv = [sys.executable, "-m", "gdcover.cli", "analyze", str(path), "--json"]
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        # wait4 reaps the child and returns its own rusage
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            raise SystemExit(f"{path.name}: exit {proc.returncode}\n"
                             f"{err.read().decode(errors='replace')}")
        out.seek(0)
        digest = hashlib.sha256(out.read()).hexdigest()
    return wall, usage.ru_maxrss / 1024.0, digest


def _git(*args: str) -> str | None:
    try:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-o", "--output", default=str(ROOT / "BENCH_defaults.json"))
    argv = sys.argv[1:] if argv is None else argv
    args = ap.parse_args(argv)

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               MALLOC_MMAP_THRESHOLD_=str(MMAP_THRESHOLD))
    with tempfile.TemporaryDirectory() as work:
        paths, numpy_version = _systems(Path(work))
        runs: dict[str, list] = {name: [] for name in paths}
        for k in range(ROUNDS):
            for name, path in paths.items():
                runs[name].append(_run(path, env))
                print(f"round {k + 1}/{ROUNDS} {name}: "
                      f"{runs[name][-1][0]:.3f} s, {runs[name][-1][1]:.1f} MB", file=sys.stderr)

    systems = {}
    for name, rows in runs.items():
        walls, rss, digests = zip(*rows)
        if len(set(digests)) != 1:
            raise SystemExit(f"{name}: stdout differs between rounds")
        q1, median, q3 = statistics.quantiles(walls, n=4, method="inclusive")
        systems[name] = {
            "wall_s": {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4)},
            "peak_rss_mb": round(statistics.median(rss), 2),
            "stdout_sha256": digests[0],
        }
    doc = {
        "command": " ".join(["python", "tools/bench_defaults.py", *argv]),
        "commit": _git("rev-parse", "HEAD"),
        "uncommitted_changes": bool(_git("status", "--porcelain", "--", "src", "tests")),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "malloc_mmap_threshold": MMAP_THRESHOLD,
        "measuring_process_peak_rss_mb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 2),
        "rounds": ROUNDS,
        "systems": systems,
    }
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
