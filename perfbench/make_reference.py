"""Record reference.json: the outputs every later run is checked against.

Run once, from the root of a checkout of the reference commit:

    python3 perfbench/make_reference.py

It runs ``gdcover report`` on every corpus system (about a minute) and counts
each fine_count system at every recorded grid origin.  Re-recording on a
later commit would make the checks compare that commit with itself.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

from workloads import (  # noqa: E402
    BOUNDED_ARGS, CORPUS, FINE_ORIGINS, FINE_SCALES, REFERENCE_PATH,
)


def main() -> int:
    os.environ.pop("GDCOVER_CACHE", None)
    from gdcover import cli, covering, schema

    ref: dict = {"analyze_corpus": {}, "fine_count": {}}
    systems = os.path.join(SRC, "gdcover", "systems")
    for name in CORPUS:
        with tempfile.TemporaryDirectory() as out:
            argv = ["report", os.path.join(systems, f"{name}.json"), "-o", out]
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv + BOUNDED_ARGS.get(name, []))
            if rc != 0:
                raise SystemExit(f"{name}: exit code {rc}")
            with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
                doc = json.load(fh)
        cols = doc["profile"]["columns"]
        keep = [j for j, c in enumerate(cols) if c.startswith("N_")]
        cross = doc.get("cross_check")
        ref["analyze_corpus"][name] = {
            "columns": [cols[j] for j in keep],
            "counts": [[row[j] for j in keep] for row in doc["profile"]["rows"]],
            "regime": doc["regime"]["regime"],
            "kind": doc["estimate"]["kind"],
            "lattice": doc["lattice"]["kind"],
            "tau": doc["lattice"]["tau"],
            "cross_check_max": None if cross is None else cross["max_rel_discrepancy"],
        }
        print(name, ref["analyze_corpus"][name]["regime"], flush=True)
    for name, t in FINE_SCALES.items():
        graph = schema.load_bundled(name)
        r = math.exp(-t)
        sets = {v: covering.generate(graph, v, r) for v in graph.vertex_order}
        totals = [covering.count(sets, r, grid_origin=o).total for o in FINE_ORIGINS]
        ref["fine_count"][name] = {
            "t": t,
            "elements": sum(s.n_elements for s in sets.values()),
            "origins": list(FINE_ORIGINS),
            "totals": totals,
        }
        print(name, totals, flush=True)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
