"""Workload inputs (made from the seed) and the checked operations that run them.

Inputs are plain JSON documents, so the program receives only generated data
and two runs can be compared by the digest of their inputs.  Every operation
returns an ``Outcome``: ``incorrect`` marks an output that contradicts the
reference recorded from the reference commit (counts, regimes, verdicts);
``failed`` also covers operations that raised or missed a documented
criterion such as the 5% cross-check bound.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import shutil
from dataclasses import dataclass
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

WORKLOADS = ("analyze_corpus", "fine_count", "graph_family")

CORPUS = (
    "cantor",
    "cantor_point",
    "cantor_segment",
    "dust2d_edge",
    "rotated2d",
    "sierpinski",
    "two_ratio",
    "two_vertex",
)
# at README defaults these two never finish; every other system runs at defaults
BOUNDED_ARGS = {
    "rotated2d": ["--n-min", "2", "--n-max", "6", "--y-samples", "4"],
    "sierpinski": ["--n-min", "2", "--n-max", "6", "--y-samples", "4"],
}
CROSS_CHECK_BOUND = 0.05  # README guarantee 9

# one fine radius r = exp(-t) per system; cells per element range from
# about 0.4 (sierpinski) to about 54 (cantor_segment)
FINE_SCALES = {"sierpinski": 6.0, "rotated2d": 7.0, "cantor_segment": 13.0, "dust2d_edge": 10.0}
FINE_ORIGINS = (0.0, 0.1, 0.25, 0.316, 0.5, 0.618)

# graph_family: member sizes, ratio sets alternating dense / lattice
FAMILY_SIZES = (14, 16, 18, 20, 22)
DENSE_RATIOS = (Fraction(1, 3), Fraction(1, 4), Fraction(1, 5), Fraction(2, 7))
LATTICE_RATIOS = (Fraction(1, 4), Fraction(1, 8))
# vertex 0 carries two self-loops whose ratios fix the verdict by construction:
# log 3 / log 4 is irrational (dense); log 4 and log 8 generate log 2 * Z (lattice)
DENSE_LOOPS = (Fraction(1, 3), Fraction(1, 4))
LATTICE_LOOPS = (Fraction(1, 4), Fraction(1, 8))
# the edge topology of each member is fixed by this seed; the run seed only
# relabels vertices and edges and draws ratios, slots and condensation, so the
# simple-cycle count (the work of classify_graph) is the same for every seed.
# Seed 4 gives the 22-vertex member 28,450 simple cycles, the scale of the
# ROADMAP example (28,567 cycles at 24 vertices).
TOPOLOGY_SEED = 4
RENEWAL_HORIZON = 15.0

# vertex-phase repro (ROADMAP, "Vertex phases"): validates, exact lattice
# tau = log 2, but single edges sit off the lattice, so limit_value raises
PHASE_REPRO = {
    "dimension": 1,
    "vertices": [
        {"id": "P", "box": {"min": [0.0], "max": [1.0]}},
        {"id": "Q", "box": {"min": [2.0], "max": [3.0]}},
    ],
    "edges": [
        {"id": "loop", "from": "P", "to": "P", "ratio": 0.5, "ratio_rational": [1, 2],
         "translation": [0.5]},
        {"id": "hop", "from": "P", "to": "Q", "ratio": 1 / 3, "ratio_rational": [1, 3],
         "translation": [-2 / 3]},
        {"id": "back", "from": "Q", "to": "P", "ratio": 0.375, "ratio_rational": [3, 8],
         "translation": [2.0]},
    ],
    "condensation": {"P": [{"kind": "point", "point": [0.4]}]},
    "separation": "none",
}


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# -- inputs ---------------------------------------------------------------------


def _bundled(src_root: str, name: str) -> dict:
    path = os.path.join(src_root, "gdcover", "systems", f"{name}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _corpus_items(rng: random.Random, src_root: str) -> list[dict]:
    names = list(CORPUS)
    rng.shuffle(names)
    return [
        {"name": n, "system": _bundled(src_root, n), "args": BOUNDED_ARGS.get(n, [])}
        for n in names
    ]


def _fine_items(rng: random.Random, src_root: str) -> list[dict]:
    items = []
    for name, t in FINE_SCALES.items():
        k = rng.randrange(len(FINE_ORIGINS))
        items.append(
            {"name": name, "system": _bundled(src_root, name), "t": t,
             "origin_index": k, "origin": FINE_ORIGINS[k]}
        )
    # the order stays fixed: peak RSS depends on what ran before
    # cantor_segment's 442,414 cells, and a seeded order moved it by 5%
    return items


def family_topology(n: int) -> list[list[int]]:
    """Out-neighbours of each template vertex: a Hamiltonian cycle plus two
    more targets per vertex, and two self-loops at vertex 0."""
    trng = random.Random(TOPOLOGY_SEED * 100 + n)
    out = [[0, 0, 1]]
    for k in range(1, n):
        nxt = (k + 1) % n
        others = [v for v in range(n) if v != nxt]
        out.append([nxt] + trng.sample(others, 2))
    return out


def _family_member(rng: random.Random, n: int, lattice: bool, tag: str) -> dict:
    ratio_set = LATTICE_RATIOS if lattice else DENSE_RATIOS
    loops = LATTICE_LOOPS if lattice else DENSE_LOOPS
    topo = family_topology(n)
    labels = [f"v{k:02d}" for k in range(n)]
    rng.shuffle(labels)  # labels[k] names template vertex k
    slot = list(range(n))
    rng.shuffle(slot)  # template vertex k owns the box [2 slot[k], 2 slot[k] + 1]
    edges = []
    for k, targets in enumerate(topo):
        ratios = [rng.choice(ratio_set) for _ in targets]
        if k == 0:
            ratios[0], ratios[1] = loops
        places = [0, 1, 2]
        rng.shuffle(places)
        for dst, q, place in zip(targets, ratios, places):
            r = float(q)
            offset = (0.0, (1.0 - r) / 2.0, 1.0 - r)[place]
            edges.append({
                "id": f"e{len(edges):03d}",
                "from": labels[k],
                "to": labels[dst],
                "ratio": r,
                "ratio_rational": [q.numerator, q.denominator],
                "translation": [2.0 * slot[k] + offset - r * 2.0 * slot[dst]],
            })
    rng.shuffle(edges)
    vertices = [
        {"id": labels[k], "box": {"min": [2.0 * slot[k]], "max": [2.0 * slot[k] + 1.0]}}
        for k in range(n)
    ]
    rng.shuffle(vertices)
    condensation = {
        labels[k]: [{"kind": "point", "point": [2.0 * slot[k] + round(rng.random(), 6)]}]
        for k in range(n)
        if rng.random() < 0.5
    }
    system = {"dimension": 1, "vertices": vertices, "edges": edges,
              "condensation": condensation, "separation": "none"}
    expect = {
        "lattice": "lattice" if lattice else "dense",
        "tau": math.log(2.0) if lattice else None,
        "regime": "SmallCondensation-Lattice" if lattice else "SmallCondensation-Dense",
    }
    return {"name": tag, "system": system, "expect": expect}


def _family_items(rng: random.Random) -> list[dict]:
    items = [
        _family_member(rng, n, lattice=bool(k % 2), tag=f"{'lattice' if k % 2 else 'dense'}{n}")
        for k, n in enumerate(FAMILY_SIZES)
    ]
    items.append({
        "name": "phase_repro",
        "system": PHASE_REPRO,
        "expect": {"lattice": "lattice", "tau": math.log(2.0),
                   "regime": "SmallCondensation-Lattice"},
    })
    rng.shuffle(items)
    return items


def make_inputs(workload: str, seed: int, src_root: str) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "analyze_corpus":
        items = _corpus_items(rng, src_root)
    elif workload == "fine_count":
        items = _fine_items(rng, src_root)
    elif workload == "graph_family":
        items = _family_items(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"workload": workload, "seed": seed, "items": items}


# -- operations -----------------------------------------------------------------


@dataclass
class Outcome:
    name: str
    failed: bool = False
    incorrect: bool = False
    detail: str = ""
    bytes_written: int = 0

    def fail(self, detail: str, incorrect: bool) -> None:
        self.failed = True
        self.incorrect = self.incorrect or incorrect
        self.detail = f"{self.detail}; {detail}" if self.detail else detail


class Runner:
    """Prepares a workload's inputs once, then runs and checks operations.

    ``prepare`` is the workload's set-up; ``run`` is one timed operation and
    ``check`` verifies its output outside the timed region.
    """

    def __init__(self, workload: str, inputs: dict, work_dir: str) -> None:
        self.workload = workload
        self.items = inputs["items"]
        self.work_dir = work_dir
        self.reference = load_reference()

    def prepare(self) -> None:
        import gdcover
        import gdcover.cli  # noqa: F401
        import mpmath  # noqa: F401  (covering imports it lazily)

        self.gd = gdcover
        self.graphs = [gdcover.schema.parse_system(item["system"]) for item in self.items]
        if self.workload == "analyze_corpus":
            self.paths = []
            for item in self.items:
                path = os.path.join(self.work_dir, "systems", f"{item['name']}.json")
                os.makedirs(os.path.dirname(path), exist_ok=True)
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(item["system"], fh)
                self.paths.append(path)

    def op_names(self) -> list[str]:
        return [item["name"] for item in self.items]

    def _report_dir(self, k: int) -> str:
        return os.path.join(self.work_dir, "report", self.items[k]["name"])

    def before(self, k: int) -> None:
        if self.workload == "analyze_corpus":
            shutil.rmtree(self._report_dir(k), ignore_errors=True)

    def run(self, k: int):
        """One operation; returns whatever ``check`` needs."""
        item = self.items[k]
        gd = self.gd
        if self.workload == "analyze_corpus":
            argv = ["report", self.paths[k], "-o", self._report_dir(k)] + item["args"]
            with contextlib.redirect_stdout(io.StringIO()):
                return gd.cli.main(argv)
        if self.workload == "fine_count":
            graph = self.graphs[k]
            r = math.exp(-item["t"])
            sets = {v: gd.covering.generate(graph, v, r) for v in graph.vertex_order}
            return gd.covering.count(sets, r, grid_origin=item["origin"])
        return self._family_chain(k)

    def _family_chain(self, k: int) -> dict:
        gd = self.gd
        out: dict = {}
        try:
            graph = gd.schema.parse_system(self.items[k]["system"])
            out["valid"] = gd.graph.validate(graph).ok
            sd = gd.spectral.solve_s0(graph)
            out["spectral"] = sd
            out["graph"] = graph
            lat = gd.lattice.classify_graph(graph)
            out["lattice"] = lat
            regime = gd.asymptotics.classify_regime(graph, sd, lattice=lat)
            out["regime"] = regime.regime
            m = gd.renewal.transfer_measure(graph, sd.s0)
            forcing = [gd.renewal.StepFunction.indicator(0.0, 1.0) for _ in range(m.n)]
            gd.renewal.renewal_solve(m, forcing, RENEWAL_HORIZON)
            out["limit"] = gd.renewal.limit_value(m, forcing, lattice=lat)
        except gd.GdcoverError as exc:
            out["error"] = f"{type(exc).__name__}: {exc}"
        return out

    def check(self, k: int, result) -> Outcome:
        item = self.items[k]
        oc = Outcome(f"{self.workload}/{item['name']}")
        if self.workload == "analyze_corpus":
            self._check_report(k, result, oc)
        elif self.workload == "fine_count":
            ref = self.reference["fine_count"][item["name"]]
            want = ref["totals"][item["origin_index"]]
            if result.total != want:
                oc.fail(f"count {result.total} != reference {want}", incorrect=True)
        else:
            self._check_family(item, result, oc)
        return oc

    def _check_report(self, k: int, rc, oc: Outcome) -> None:
        ref = self.reference["analyze_corpus"][self.items[k]["name"]]
        out_dir = self._report_dir(k)
        if rc != 0:
            oc.fail(f"exit code {rc}", incorrect=False)
            return
        oc.bytes_written = sum(
            os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir)
        )
        with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        cols = doc["profile"]["columns"]
        keep = [j for j, c in enumerate(cols) if c.startswith("N_")]
        counts = [[row[j] for j in keep] for row in doc["profile"]["rows"]]
        if counts != ref["counts"]:
            oc.fail("profile counts differ from the reference", incorrect=True)
        got = {
            "regime": doc["regime"]["regime"],
            "kind": doc["estimate"]["kind"],
            "lattice": doc["lattice"]["kind"],
        }
        for key, value in got.items():
            if value != ref[key]:
                oc.fail(f"{key} {value!r} != reference {ref[key]!r}", incorrect=True)
        if not _same_tau(doc["lattice"]["tau"], ref["tau"]):
            oc.fail(f"tau {doc['lattice']['tau']!r} != reference {ref['tau']!r}", incorrect=True)
        cross = doc.get("cross_check")
        if cross is not None and cross["kind"] == "periodic":
            worst = cross["max_rel_discrepancy"]
            if not worst <= CROSS_CHECK_BOUND:
                oc.fail(f"periodic cross-check {worst:.1%} > {CROSS_CHECK_BOUND:.0%}",
                        incorrect=False)

    def _check_family(self, item: dict, out: dict, oc: Outcome) -> None:
        import numpy as np

        expect = item["expect"]
        if out.get("valid") is False:
            oc.fail("generated system fails validation", incorrect=True)
        if "spectral" in out:
            a = self.gd.spectral.build_matrix(out["graph"], out["spectral"].s0)
            radius = float(max(abs(np.linalg.eigvals(a))))
            if abs(radius - 1.0) > 1e-9:
                oc.fail(f"spectral radius at s0 is {radius!r}", incorrect=True)
        if "lattice" in out:
            lat = out["lattice"]
            if lat.kind != expect["lattice"] or not _same_tau(lat.tau, expect["tau"]):
                oc.fail(f"lattice verdict {lat.kind} tau={lat.tau!r}, expected "
                        f"{expect['lattice']} tau={expect['tau']!r}", incorrect=True)
        if "regime" in out and out["regime"] != expect["regime"]:
            oc.fail(f"regime {out['regime']} != {expect['regime']}", incorrect=True)
        if "limit" in out:
            lim = out["limit"]
            want_kind = "periodic" if expect["lattice"] == "lattice" else "constant"
            values = np.asarray(lim.values)
            if lim.kind != want_kind:
                oc.fail(f"limit kind {lim.kind} != {want_kind}", incorrect=True)
            elif not (np.isfinite(values).all() and (values > 0).all()):
                oc.fail("limit values not finite and positive", incorrect=True)
        if "error" in out:
            oc.fail(out["error"], incorrect=False)


def _same_tau(got, want) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0)
