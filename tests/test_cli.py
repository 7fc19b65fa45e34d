import contextlib
import csv
import hashlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import BUNDLED_NAMES
from helpers import (
    FAILING_SYSTEM,
    FAR_CANTOR_SYSTEM,
    LN2,
    LN3,
    family_system,
    half_half_segment_graph,
    three_cycle_graph,
)

from gdcover import cli, covering, renewal, schema
from gdcover.cli import main
from gdcover.schema import bundled_text, dumps_system


@pytest.fixture(scope="module")
def corpus_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("systems")
    out = {}
    for name in ("cantor", "cantor_point", "dust2d_edge", "sierpinski", "two_ratio",
                 "two_vertex"):
        p = root / f"{name}.json"
        p.write_text(bundled_text(name), encoding="utf-8")
        out[name] = str(p)
    return out


RENEWAL_DOC = {
    "M": [[[[LN2, 0.5], [LN3, 0.5]]]],
    "L": [[[0.0, 1.0], [LN2, 0.0]]],
    "horizon": 30.0,
}


class TestValidate:
    def test_ok_text(self, corpus_files, capsys):
        assert main(["validate", corpus_files["cantor"]]) == 0
        out = capsys.readouterr().out
        assert out.strip().endswith("ok")
        assert "PASS" in out

    def test_ok_json(self, corpus_files, capsys):
        assert main(["validate", "--json", corpus_files["cantor"]]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert all(c["passed"] for c in doc["checks"])

    def test_failing_system(self, tmp_path, capsys):
        doc = {
            "dimension": 1,
            "vertices": [{"id": "X", "box": {"min": [0.0], "max": [1.0]}}],
            "edges": [
                {"id": "a", "from": "X", "to": "X", "ratio": 1.2, "translation": [0.0]}
            ],
        }
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", str(p)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_non_finite_box_rejected(self, tmp_path, capsys):
        # Python's json reads the bare token Infinity as a float
        p = tmp_path / "inf.json"
        p.write_text(
            '{"dimension": 1, "vertices": [{"id": "X", "box": {"min": [0.0], '
            '"max": [Infinity]}}], "edges": [{"id": "a", "from": "X", "to": "X", '
            '"ratio": 0.5, "translation": [0.0]}]}',
            encoding="utf-8",
        )
        assert main(["validate", str(p)]) == 1
        captured = capsys.readouterr()
        assert "must be finite" in captured.err
        assert "Traceback" not in captured.out + captured.err
        assert "PASS" not in captured.out

    @pytest.mark.parametrize("ratio", [5e-324, 1 - 1e-15])
    @pytest.mark.parametrize("command", ["validate", "dim", "analyze"])
    def test_unusable_ratio_rejected_at_parse_time(self, tmp_path, capsys, command, ratio):
        # a subnormal ratio used to pass validation and crash analyze with an
        # OverflowError; a near-unit one spun until the path cap
        doc = {
            "dimension": 1,
            "vertices": [{"id": "X", "box": {"min": [0.0], "max": [1.0]}}],
            "edges": [
                {"id": "a", "from": "X", "to": "X", "ratio": ratio, "translation": [0.0]},
                {"id": "b", "from": "X", "to": "X", "ratio": 0.5, "translation": [0.5]},
            ],
        }
        p = tmp_path / "ratio.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        assert main([command, str(p)]) == 1
        captured = capsys.readouterr()
        assert "edge 'a'" in captured.err
        assert "Traceback" not in captured.out + captured.err
        assert "PASS" not in captured.out

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.json")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_certificate_added_to_json(self, corpus_files, capsys):
        assert main(["validate", "--json", corpus_files["dust2d_edge"]]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        verdicts = {c["name"]: c["certified"] for c in doc["separation"]}
        assert verdicts == {"OSC[X]": True, "SOSC[X]": True, "SSC[X]": True, "SCOSC[X]": False}

    def test_uncertified_class_keeps_ok(self, tmp_path, capsys):
        # cantor_segment declares SCOSC, which its boxes cannot certify: the
        # text names the blocking image and the run still ends ok, exit 0
        p = tmp_path / "cantor_segment.json"
        p.write_text(bundled_text("cantor_segment"), encoding="utf-8")
        assert main(["validate", str(p)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "separation OSC[X]: certified" in lines
        assert (
            "separation SCOSC[X]: not certified by these boxes  (condensation shape 0 "
            "(segment) meets the closed image of edge 'a')"
        ) in lines
        assert lines[-1] == "ok"

    def test_report_runs_no_certificate(self, corpus_files, tmp_path):
        with mock.patch.object(cli, "certify_separation", side_effect=AssertionError):
            rc = main(["report", corpus_files["cantor"], "--n-min", "3", "--n-max", "6",
                       "--y-samples", "2", "-o", str(tmp_path / "r")])
        assert rc == 0

    def test_no_certificate_for_a_failing_system(self, tmp_path, capsys):
        doc = json.loads(bundled_text("cantor"))
        doc["edges"][0]["ratio"] = 1.5
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", "--json", str(p)]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["ok"] is False and "separation" not in out

    @pytest.mark.parametrize("lo, hi", [(0.7, 0.3), (0.5, 0.5)], ids=["reversed", "flat"])
    def test_open_set_without_interior_fails(self, tmp_path, capsys, lo, hi):
        doc = json.loads(bundled_text("cantor"))
        doc["open_sets"] = {"X": {"min": [lo], "max": [hi]}}
        p = tmp_path / "open.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", str(p)]) == 1
        assert "FAIL open-set[X]" in capsys.readouterr().out

    def test_rational_off_on_a_tiny_ratio_fails(self, tmp_path, capsys):
        # 1/10^13 is 1e-13 from the float ratio 2e-13: inside an absolute
        # 1e-12, but off by half the ratio
        doc = {
            "dimension": 1,
            "vertices": [{"id": "X", "box": {"min": [0.0], "max": [1.0]}}],
            "edges": [
                {"id": "a", "from": "X", "to": "X", "ratio": 0.5, "ratio_rational": [1, 2],
                 "translation": [0.0]},
                {"id": "b", "from": "X", "to": "X", "ratio": 2e-13,
                 "ratio_rational": [1, 10**13], "translation": [0.9]},
            ],
        }
        p = tmp_path / "tiny.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", str(p)]) == 1
        captured = capsys.readouterr()
        assert "FAIL ratio-rational[b]" in captured.out
        assert "FAIL ratio-rational[a]" not in captured.out
        assert "Traceback" not in captured.out + captured.err

    def test_far_coordinates_scale_distances_exactly(self, tmp_path, capsys):
        p = tmp_path / "far.json"
        p.write_text(json.dumps(FAR_CANTOR_SYSTEM), encoding="utf-8")
        assert main(["validate", str(p)]) == 0
        assert "PASS distance-scaling[a]  (relative defect=0.000e+00)" in capsys.readouterr().out
        assert main(["analyze", str(p)]) == 0

    def test_no_run_loads_numpy_random(self, tmp_path):
        # validate, analyze and the graph_family chain, in a fresh interpreter
        system = tmp_path / "two_vertex.json"
        system.write_text(bundled_text("two_vertex"), encoding="utf-8")
        member = tmp_path / "member.json"
        member.write_text(json.dumps(family_system(4, True, 1)), encoding="utf-8")
        script = """
import contextlib, io, json, sys
import numpy
bare = "numpy.random" in sys.modules
from gdcover import cli, graph, lattice, renewal, schema, spectral
with contextlib.redirect_stdout(io.StringIO()):
    rcs = [cli.main(["validate", sys.argv[1]]), cli.main(["analyze", sys.argv[1]])]
g = schema.parse_system(json.load(open(sys.argv[2])))
assert graph.validate(g).ok
m = renewal.transfer_measure(g, spectral.solve_s0(g).s0)
forcing = [renewal.StepFunction.indicator(0.0, 1.0) for _ in range(m.n)]
renewal.renewal_solve(m, forcing, 10.0)
renewal.limit_value(m, forcing, lattice=lattice.classify_graph(g))
print(json.dumps([bare, rcs, "numpy.random" in sys.modules]))
"""
        src = str(pathlib.Path(cli.__file__).parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", script, str(system), str(member)],
                             env=env, capture_output=True, text=True, check=True).stdout
        bare, rcs, loaded = json.loads(out)
        if bare:
            pytest.skip("a bare import numpy loads numpy.random")
        assert rcs == [0, 0]
        assert not loaded


def _pin_files(root):
    """The bundled systems, two 22-vertex graph_family-shaped files and a file
    that fails a check of every kind."""
    files = {name: bundled_text(name) for name in BUNDLED_NAMES}
    files["family22_dense"] = json.dumps(family_system(22, False, 4))
    files["family22_lattice"] = json.dumps(family_system(22, True, 4))
    files["failing"] = json.dumps(FAILING_SYSTEM)
    paths = {}
    for name, text in files.items():
        paths[name] = root / f"{name}.json"
        paths[name].write_text(text, encoding="utf-8")
    return paths


def _exit_and_digest(argv):
    """Exit code and the first 16 hex digits of the sha256 of what
    ``main(argv)`` prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    return rc, hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]


class TestBytePins:
    """``validate --json`` and ``dim --json``, byte for byte: ``dim`` since
    ``s0`` is found by Newton's method on dense eigensolves, ``validate``
    since distance scaling is read from singular values."""

    # exit code and the first 16 hex digits of the sha256 of stdout, for
    # validate --json and dim --json
    PINS = {
        "cantor": ((0, "fe8d7f6b39a3dcdd"), (0, "8627ec7325a850a1")),
        "cantor_point": ((0, "af158d5ab71e6f69"), (0, "8627ec7325a850a1")),
        "cantor_segment": ((0, "e50381baa669cd17"), (0, "8627ec7325a850a1")),
        "dust2d_edge": ((0, "a57278f5323557c0"), (0, "8627ec7325a850a1")),
        "rotated2d": ((0, "d5288caeeda17fbb"), (0, "36587f12e1b1de01")),
        "sierpinski": ((0, "8c8b8b11cfab539d"), (0, "4ae90922a8eec3ec")),
        "two_ratio": ((0, "7d8f298f4ad02a63"), (0, "e0b235d357805ba3")),
        "two_vertex": ((0, "f0f785d93bd5fec1"), (0, "7a1a67c30150c851")),
        "family22_dense": ((0, "881bbab6d8507bbc"), (0, "4ea582b0c724c6c5")),
        "family22_lattice": ((0, "a8c1763f962121ad"), (0, "00dd9d36fae02895")),
        "failing": ((1, "2b0189e91e4a1839"), (1, "e3b0c44298fc1c14")),
    }

    @pytest.fixture(scope="class")
    def pin_files(self, tmp_path_factory):
        return _pin_files(tmp_path_factory.mktemp("pins"))

    @pytest.mark.parametrize("command", ["validate", "dim"])
    def test_outputs_match_the_pins(self, pin_files, command):
        k = ("validate", "dim").index(command)
        got = {name: _exit_and_digest([command, "--json", str(p)])
               for name, p in pin_files.items()}
        assert got == {name: pins[k] for name, pins in self.PINS.items()}


class TestDim:
    def test_two_vertex_text(self, corpus_files, capsys):
        assert main(["dim", corpus_files["two_vertex"]]) == 0
        assert "s0 = 0.551463089746" in capsys.readouterr().out

    def test_cantor_json(self, corpus_files, capsys):
        assert main(["dim", "--json", corpus_files["cantor"]]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["s0"] == pytest.approx(LN2 / LN3, abs=1e-12)
        assert doc["vertex_order"] == ["X"]
        assert len(doc["u"]) == len(doc["v"]) == 1


class TestLattice:
    def test_cantor_is_lattice(self, corpus_files, capsys):
        assert main(["lattice", corpus_files["cantor"]]) == 0
        out = capsys.readouterr().out
        assert out.startswith("lattice, tau = 1.09861228867")
        assert "exact mode" in out

    def test_two_ratio_is_dense(self, corpus_files, capsys):
        assert main(["lattice", corpus_files["two_ratio"]]) == 0
        assert capsys.readouterr().out.startswith("dense")

    def test_json_fields(self, corpus_files, capsys):
        assert main(["lattice", "--json", corpus_files["cantor"]]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "lattice"
        assert doc["tau"] == pytest.approx(LN3, rel=1e-12)

    def test_unmarked_ratios_give_floating_mode(self, corpus_files, tmp_path, capsys):
        # the file picks the classifier: without ratio_rational it is floating
        doc = json.loads(open(corpus_files["cantor"], encoding="utf-8").read())
        for edge in doc["edges"]:
            del edge["ratio_rational"]
        p = tmp_path / "cantor_float.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["lattice", "--json", str(p)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["mode"] == "floating"
        assert out["tau"] == pytest.approx(LN3, rel=1e-9)


class TestProfile:
    def test_csv_header_and_shape(self, corpus_files, capsys):
        rc = main(
            [
                "profile",
                corpus_files["cantor"],
                "--tmin", "1.0",
                "--tmax", "4.0",
                "--samples", "4",
            ]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "t,r,N_X,N_total,ratio_X,ratio_total"
        assert len(lines) == 5

    def test_lattice_period_columns(self, corpus_files, capsys):
        rc = main(
            [
                "profile",
                corpus_files["cantor"],
                "--tmin", "1.0",
                "--tmax", "6.0",
                "--samples", "2",
                "--period", "auto",
            ]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("t,r,n,y,")

    def test_output_is_deterministic(self, corpus_files, tmp_path):
        args = [
            "profile",
            corpus_files["two_ratio"],
            "--tmin", "1.0",
            "--tmax", "5.0",
            "--samples", "9",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["-o", str(a)]) == 0
        assert main(args + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("origin", [[], ["--grid-origin", "0.316"]], ids=["zero", "shifted"])
    @pytest.mark.parametrize("name", ["cantor_point", "dust2d_edge"])
    def test_no_condensation_is_the_stripped_system(self, corpus_files, tmp_path, name, origin):
        # --no-condensation profiles the same file with its condensation key removed
        doc = json.loads(open(corpus_files[name], encoding="utf-8").read())
        assert doc.pop("condensation")
        stripped = tmp_path / f"{name}_plain.json"
        stripped.write_text(json.dumps(doc), encoding="utf-8")
        a, b = tmp_path / "flag.csv", tmp_path / "plain.csv"
        assert main(["profile", corpus_files[name], "--no-condensation", "-o", str(a)] + origin) == 0
        assert main(["profile", str(stripped), "-o", str(b)] + origin) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_negative_grid_origin_with_equals(self, corpus_files, capsys):
        # a leading minus reads as an option to argparse; the "=" form is the origin
        path, origin = corpus_files["sierpinski"], (-0.1, 0.2)
        with pytest.raises(SystemExit) as exc:
            main(["profile", path, "--grid-origin", "-0.1,0.2"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(["profile", path, "--tmax", "4", "--samples", "5",
                     "--grid-origin=-0.1,0.2"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        graph = schema.load_system(path)
        want = covering.profile(graph, 0.0, 4.0, 5, grid_origin=origin).samples
        plain = covering.profile(graph, 0.0, 4.0, 5).samples
        assert [int(row["N_X"]) for row in rows] == [s.counts[0] for s in want]
        assert [s.counts for s in want] != [s.counts for s in plain]

    def test_indices_past_exact_floats_refused(self, tmp_path, capsys):
        # ratio 1/1000: at t = 40 a cell index reaches 2.4e17, past 2^53, and
        # the int64 cast of indices past 2^63 used to warn twice and go on
        doc = {"dimension": 1, "vertices": [{"id": "X", "box": {"min": [0.0], "max": [1.0]}}],
               "edges": [{"id": "a", "from": "X", "to": "X", "ratio": 0.001, "translation": [0.0]},
                         {"id": "b", "from": "X", "to": "X", "ratio": 0.001,
                          "translation": [0.999]}]}
        p = tmp_path / "thousandth.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["profile", str(p), "--tmin", "30", "--tmax", "60", "--samples", "7"]) == 3
        out = capsys.readouterr()
        assert out.out == "" and out.err == (
            "error: cell indices at r = 8.75651e-27 reach 2^53, past exact float integers\n")
        assert main(["profile", str(p), "--tmin", "30", "--tmax", "35", "--samples", "2"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [int(row["N_X"]) for row in rows] == [32, 64]

    def test_bad_period_rejected(self, corpus_files, capsys):
        rc = main(["profile", corpus_files["cantor"], "--period", "sometimes"])
        assert rc == 1
        assert "--period" in capsys.readouterr().err


class TestRenewal:
    def test_scalar_summary(self, tmp_path, capsys):
        p = tmp_path / "renewal.json"
        p.write_text(json.dumps(RENEWAL_DOC), encoding="utf-8")
        assert main(["renewal", str(p)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dri_ok"] is True
        assert doc["fixed_point_residual"] < 1e-9
        assert doc["limit"]["kind"] == "constant"
        want = LN2 / ((LN2 + LN3) / 2)
        assert doc["limit"]["values"][0] == pytest.approx(want, abs=1e-9)

    def test_solution_csv(self, tmp_path):
        p = tmp_path / "renewal.json"
        p.write_text(json.dumps(RENEWAL_DOC), encoding="utf-8")
        out = tmp_path / "f.csv"
        assert main(["renewal", str(p), "-o", str(out), "--samples", "11"]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,f_0"
        assert len(lines) == 12

    def test_json_out_is_the_stdout_summary(self, tmp_path, capsys):
        p = tmp_path / "renewal.json"
        p.write_text(json.dumps(RENEWAL_DOC), encoding="utf-8")
        assert main(["renewal", str(p)]) == 0
        plain = capsys.readouterr().out
        out = tmp_path / "summary.json"
        assert main(["renewal", str(p), "--json-out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text(encoding="utf-8") == plain

    def test_lattice_tau_gives_periodic_limit(self, tmp_path, capsys):
        doc = {"M": [[[[LN3, 1.0]]]], "L": [[[0.0, 1.0], [LN3, 0.0]]], "tau": LN3}
        p = tmp_path / "lat.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["renewal", str(p)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["limit"]["kind"] == "periodic"
        vals = out["limit"]["values"]
        flat = [x for row in vals for x in row]
        assert max(abs(x - 1.0) for x in flat) < 1e-9

    def test_forcing_that_ends_far_out(self, tmp_path, capsys):
        # the integrability verdict reads the forcing's pieces, not one unit
        # interval at a time: a support end of 1e8 once took minutes
        doc = {"M": [[[[LN2, 0.5], [2 * LN2, 0.5]]]], "L": [[[0.0, 1.0], [1e8, 0.0]]]}
        p = tmp_path / "far.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["renewal", str(p)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["dri_ok"] is True
        assert out["limit"]["kind"] == "constant"

    def test_lattice_forcing_that_ends_far_out(self, tmp_path, capsys):
        # with tau, the lattice sum steps only near the nonzero pieces, not
        # through the 1.4e8 periods up to the support end
        doc = {"M": [[[[LN2, 0.5], [2 * LN2, 0.5]]]], "tau": LN2,
               "L": [[[0.0, 1.0], [1.0, 0.0], [1e8 - 1.0, 0.5], [1e8, 0.0]]]}
        p = tmp_path / "far_tau.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["renewal", str(p)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["limit"]["kind"] == "periodic"

    @pytest.mark.parametrize("pieces", [
        [[0.0, 1.0], [1e5, 0.0]],  # 1.4e5 steps times 64 samples
        [[0.0, 1.0], [1.0, 0.0], [1e8 - 1.0, 0.5], [1e8, 0.0]],  # few steps, far out
    ])
    def test_lattice_term_counts_under_the_cap(self, tmp_path, capsys, pieces):
        # the count of (step, sample) terms changes no output below the cap
        p = tmp_path / "far.json"
        p.write_text(json.dumps({"M": [[[[LN2, 0.5], [2 * LN2, 0.5]]]], "tau": LN2, "L": [pieces]}),
                     encoding="utf-8")
        assert main(["renewal", str(p)]) == 0
        capped = capsys.readouterr().out
        with mock.patch.object(renewal, "CELL_CAP", math.inf):
            assert main(["renewal", str(p)]) == 0
        assert capped == capsys.readouterr().out

    def test_lattice_term_count_past_the_cap(self, tmp_path, capsys):
        # a piece ending at 1e9 needs 1.4e9 steps times 64 samples: refused
        # with exit 2 before any term is formed
        doc = {"M": [[[[LN2, 0.5], [2 * LN2, 0.5]]]], "tau": LN2, "L": [[[0.0, 1.0], [1e9, 0.0]]]}
        p = tmp_path / "farther.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["renewal", str(p)]) == 2
        err = capsys.readouterr().err
        assert "the lattice sum needs 92332482752 terms (cap 10000000)" in err
        assert "Traceback" not in err

    def test_series_term_count_past_the_cap(self, tmp_path, capsys):
        # horizon 1e6 over atoms from log 2 needs 1.4e6 series terms, days of
        # convolutions: refused with exit 2 before the first
        doc = {"M": [[[[LN2, 0.5], [2 * LN2, 0.5]]]], "L": [[[0.0, 1.0], [1.0, 0.0]]],
               "horizon": 1e6}
        p = tmp_path / "long.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        start = time.perf_counter()
        assert main(["renewal", str(p)]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "the renewal series needs 1442696 terms (cap 4096)" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag, key", [("--samples", None), (None, "samples_per_period")])
    def test_sample_counts_past_the_cap(self, tmp_path, capsys, flag, key):
        # refused with exit 2 before any sample array is allocated
        doc = dict(RENEWAL_DOC, tau=LN2)
        if key:
            doc[key] = 10**9
        p = tmp_path / "many.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["renewal", str(p)] + ([flag, str(10**9)] if flag else [])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{flag or key} 1000000000 exceeds the sample cap 10000000" in err

    @pytest.mark.parametrize(
        "doc, code, message",
        [
            ({"M": [[[[LN2, 0.5], [LN3, 0.5]]]], "L": [[[-1.0, 1.0], [1.0, 0.0]]]}, 1,
             "error: forcing must vanish for x < 0"),
            ({"M": [[[[LN2, 0.5], [LN3, 0.5]]]], "L": [[[0.0, 1.0]]]}, 1,
             "error: forcing must vanish for x < 0 and decay to zero"),
            ({"M": [[[[LN2, 0.4], [LN3, 0.4]]]], "L": [[[0.0, 1.0], [1.0, 0.0]]]}, 3,
             "expected 1"),
            ({"M": [[[[1.0, 1.0]], []], [[], [[1.0, 1.0]]]],
              "L": [[[0.0, 1.0], [1.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]]]}, 3,
             "error: renewal matrix is reducible"),
            ({"M": [[[[LN2, 0.5], [LN3, 0.5]]]], "L": [[[0.0, 1e300], [1e10, 0.0]]]}, 3,
             "error: the renewal limit overflows a float"),
            # the lattice series overflows before the limit is formed
            ({"M": [[[[LN2, 0.5], [2 * LN2, 0.5]]]], "tau": LN2, "L": [[[0.0, 1e308], [1e3, 0.0]]]},
             3, "error: the renewal solution overflows a float"),
        ],
        ids=["negative_support", "non_decaying", "wrong_mass", "reducible", "overflow",
             "lattice_overflow"],
    )
    def test_refused_renewal_input(self, tmp_path, capsys, doc, code, message):
        p = tmp_path / "refused.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["renewal", str(p)]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert "Traceback" not in captured.err
        # one line: no numpy warning precedes the error
        assert len(captured.err.splitlines()) == 1, captured.err

    def test_malformed_input(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"M": []}', encoding="utf-8")
        assert main(["renewal", str(p)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            # forcing breakpoints out of order
            ('{"M": [[[[1.0, 1.0]]]], "L": [[[1.0, 1.0], [0.5, 2.0]]]}', "must increase"),
            ('{"M": [[[[NaN, 1.0]]]], "L": [[[0.0, 1.0], [1.0, 0.0]]]}', "two finite numbers"),
            ('{"M": [[[[1.0]]]], "L": [[[0.0, 1.0], [1.0, 0.0]]]}', "two finite numbers"),
            # 0 and 1e-17 collide once the solver shifts them by 1.0
            (
                '{"M": [[[[1.0, 1.0]]]], "L": [[[0.0, 1.0], [1e-17, 2.0], [1.0, 0.0]]],'
                ' "horizon": 5.0}',
                "must increase",
            ),
            (
                '{"M": [[[[1.0, 1.0]]]], "L": [[[0.0, 1.0], [1.0, 0.0]]], "horizon": Infinity}',
                "horizon",
            ),
            # a NaN step used to hang the periodic limit
            ('{"M": [[[[1.0, 1.0]]]], "L": [[[0.0, 1.0], [1.0, 0.0]]], "tau": NaN}', "tau"),
            ('{"M": [[[[1.0, 1.0]]]], "L": [[[0.0, 1.0], [1.0, 0.0]]], "tau": -1.0}', "tau"),
            # truncation is no longer a setting: refused like any unknown key
            ('{"M": [[[[1.0, 1.0]]]], "L": [[[0.0, 1.0], [1.0, 0.0]]], "truncation": "x"}',
             "truncation"),
            ('{"M": [[[[1.0, 1.0]]]], "L": [[[0.0, 1.0], [1.0, 0.0]]], "truncation": -1}',
             "truncation"),
            (
                '{"M": [[[[1.0, 1.0]]]], "L": [[[0.0, 1.0], [1.0, 0.0]]],'
                ' "samples_per_period": 0}',
                "samples_per_period",
            ),
            # misspelled settings are refused, not silently replaced by defaults
            (
                '{"M": [[[[1.0, 1.0]]]], "L": [[[0.0, 1.0], [1.0, 0.0]]],'
                ' "horizn": 5.0, "tua": 0.6931471805599453}',
                "unknown top-level keys ['horizn', 'tua']",
            ),
            # gaps of 1e-12 pass the parse, but 10000 + 1e-12 rounds to 10000
            (
                '{"M": [[[[10000.0, 1.0]]]], "L": [[[0.0, 1.0], [1e-12, 2.0], [1.0, 0.0]]],'
                ' "horizon": 20001.0}',
                "strictly increasing",
            ),
        ],
        ids=["unordered_breakpoints", "nan_location", "one_number_pair", "colliding_breakpoints",
             "infinite_horizon", "nan_tau", "negative_tau", "string_truncation",
             "negative_truncation", "zero_samples_per_period", "misspelled_keys",
             "large_shift_collision"],
    )
    def test_malformed_reduced_file_rejected(self, tmp_path, capsys, text, message):
        p = tmp_path / "bad.json"
        p.write_text(text, encoding="utf-8")
        assert main(["renewal", str(p)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and message in err
        assert "Traceback" not in err


class TestAnalyze:
    def test_cantor_json(self, corpus_files, capsys):
        rc = main(
            [
                "analyze",
                corpus_files["cantor"],
                "--json",
                "--n-min", "4",
                "--n-max", "8",
                "--y-samples", "4",
            ]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["regime"]["regime"] == "SmallCondensation-Lattice"
        assert doc["estimate"]["kind"] == "periodic"
        assert doc["cross_check"]["max_rel_discrepancy"] < 0.05
        assert doc["lattice"]["tau"] == pytest.approx(LN3, rel=1e-12)

    @pytest.mark.parametrize("cmd", ["analyze", "report"])
    def test_warning_is_one_line(self, corpus_files, tmp_path, capsys, cmd):
        # dust2d_edge's condensation diverges under declared SSC: a warning,
        # printed like the error lines, without a source path or line number
        out = ["--json"] if cmd == "analyze" else ["-o", str(tmp_path / "report")]
        assert main([cmd, corpus_files["dust2d_edge"], *out]) == 0
        err = capsys.readouterr().err
        assert err == (
            "warning: divergent condensation requires SCOSC for a certified "
            "conclusion; declared separation is 'SSC'\n"
        )

    def test_inconclusive_exit_code(self, tmp_path, capsys):
        p = tmp_path / "tie.json"
        p.write_text(dumps_system(half_half_segment_graph()), encoding="utf-8")
        assert main(["analyze", str(p)]) == 4
        assert "error:" in capsys.readouterr().err

    def test_phased_lattice_runs_without_its_cross_check(self, tmp_path, capsys):
        p = tmp_path / "cycle.json"
        p.write_text(dumps_system(three_cycle_graph()), encoding="utf-8")
        assert main(["analyze", str(p)]) == 0
        assert "note: cross-check skipped: edge 'xy'" in capsys.readouterr().out
        out = tmp_path / "report"
        assert main(["report", str(p), "-o", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["cross_check"] is None
        assert doc["notes"][-1].startswith("cross-check skipped")
        assert not (out / "cross_check.csv").exists()


class TestFlagChecks:
    # bad counts and reversed t-ranges are input errors (exit 1), named by
    # flag; the renewal rows (no system) read a valid reduced file
    @pytest.mark.parametrize(
        "cmd, system, flags, flag",
        [
            ("profile", "cantor", ["--samples", "0"], "--samples"),
            ("profile", "cantor", ["--samples", "-3"], "--samples"),
            ("profile", "cantor", ["--tmin", "3", "--tmax", "1"], "--tmin"),
            ("profile", "cantor", ["--tmax", "nan"], "--tmax"),
            ("renewal", None, ["--samples", "-1"], "--samples"),
            ("renewal", None, ["--samples", "0"], "--samples"),
            ("analyze", "two_ratio", ["--tmin", "9", "--tmax", "2"], "--tmin"),
            ("analyze", "cantor", ["--y-samples", "0"], "--y-samples"),
            ("report", "two_ratio", ["--samples", "0"], "--samples"),
            ("analyze", "cantor", ["--n-min", "-3", "--n-max", "2"], "--n-min"),
            ("analyze", "cantor", ["--n-min", "5", "--n-max", "2"], "--n-max"),
            ("report", "cantor", ["--n-min", "5", "--n-max", "2"], "--n-max"),
            ("profile", "cantor", ["--period", "nan"], "--period"),
            ("profile", "cantor", ["--period", "inf"], "--period"),
            ("analyze", "cantor", ["--grid-origin", "nan", "--json"], "--grid-origin"),
            ("profile", "cantor", ["--grid-origin", "1,2,3"], "--grid-origin"),
            ("analyze", "sierpinski", ["--grid-origin", "0.1,0.2,0.3"], "--grid-origin"),
            ("profile", "sierpinski", ["--grid-origin", "0.1,,0.2"], "--grid-origin"),
            ("profile", "cantor", ["--grid-origin", "0.1,"], "--grid-origin"),
            ("profile", "cantor", ["--tmin", "0.1", "--tmax", "0.2", "--period", "1",
                                   "--samples", "1"], "--period"),
        ],
        ids=["profile_zero_samples", "profile_negative_samples", "profile_reversed_t",
             "profile_nan_tmax", "renewal_negative_samples", "renewal_zero_samples",
             "analyze_reversed_t", "analyze_zero_y_samples", "report_zero_samples",
             "analyze_negative_n_min", "analyze_reversed_n", "report_reversed_n",
             "profile_nan_period",
             "profile_infinite_period", "analyze_nan_grid_origin",
             "profile_grid_origin_too_long", "analyze_grid_origin_too_long",
             "profile_grid_origin_empty_field", "profile_grid_origin_trailing_comma",
             "profile_no_lattice_point_in_range"],
    )
    def test_rejected_with_flag_named(self, corpus_files, tmp_path, capsys, cmd, system, flags,
                                      flag):
        if system is None:
            path = tmp_path / "renewal.json"
            path.write_text(json.dumps(RENEWAL_DOC), encoding="utf-8")
        else:
            path = corpus_files[system]
        out = tmp_path / "out"
        extra = ["-o", str(out)] if cmd == "report" else []
        assert main([cmd, str(path)] + flags + extra) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and flag in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("cmd", ["analyze", "report"])
    def test_flag_error_comes_before_validation_error(self, tmp_path, capsys, cmd):
        # the file fails validation and --grid-origin is bad too: the flag is
        # named first, as for every other flag; without it validation fails
        doc = json.loads(bundled_text("cantor"))
        doc["edges"][0]["ratio"] = 1.5
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out"
        extra = ["-o", str(out)] if cmd == "report" else []
        assert main([cmd, str(path), "--grid-origin", "1,2"] + extra) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --grid-origin")
        assert main([cmd, str(path)] + extra) == 1
        assert capsys.readouterr().err.startswith("error: validation failed (ratio-range[a]")
        assert not out.exists()

    # the sample count is checked before any sample is built, so these
    # return at once instead of filling memory with 10^9 or more t values
    @pytest.mark.parametrize(
        "flags",
        [["--period", "1e-9", "--tmax", "1"], ["--samples", "1000000000"],
         ["--period", "5e-324", "--tmax", "1"]],
        ids=["tiny_period", "huge_samples", "subnormal_period"],
    )
    def test_profile_sample_count_capped(self, corpus_files, capsys, flags):
        assert main(["profile", corpus_files["cantor"]] + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "samples" in err

    # likewise for the analysis: (n_max - n_min + 1) * y_samples lattice
    # samples, or --samples dense ones, are checked before any is built
    @pytest.mark.parametrize("cmd", ["analyze", "report"])
    @pytest.mark.parametrize(
        "system, flags",
        [("cantor", ["--y-samples", "100000000"]), ("two_ratio", ["--samples", "1000000000"])],
        ids=["lattice_y_samples", "dense_samples"],
    )
    def test_analysis_sample_count_capped(self, corpus_files, tmp_path, capsys, cmd, system,
                                          flags):
        out = tmp_path / "out"
        extra = ["-o", str(out)] if cmd == "report" else []
        assert main([cmd, corpus_files[system]] + flags + extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "samples" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_equal_t_bounds_accepted(self, corpus_files, capsys):
        rc = main(["profile", corpus_files["cantor"], "--tmin", "2", "--tmax", "2",
                   "--samples", "1"])
        assert rc == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 2


class TestArgparse:
    # usage errors come from argparse itself and exit rather than return

    def test_no_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_file_argument(self):
        with pytest.raises(SystemExit) as exc:
            main(["dim"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("cmd", ["analyze", "report"])
    def test_cross_check_flag_is_gone(self, corpus_files, cmd):
        # every analysis that is neither divergent nor phased is cross-checked
        with pytest.raises(SystemExit) as exc:
            main([cmd, corpus_files["cantor"], "--no-cross-check"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("cmd, flag", [("lattice", "--eps"), ("dim", "--tol")])
    def test_cutoff_flags_are_gone(self, corpus_files, cmd, flag):
        # the cutoffs are lattice.DEFAULT_EPS and spectral.S0_TOL, as in analyze
        with pytest.raises(SystemExit) as exc:
            main([cmd, corpus_files["cantor"], flag, "1e-9"])
        assert exc.value.code == 2


    @pytest.mark.parametrize(
        "cmd, flags",
        [("lattice", ["--mode", "floating"]), ("renewal", ["--horizon", "5"]),
         ("renewal", ["--truncation", "3"]), ("renewal", ["--tau", "1"]),
         ("renewal", ["--samples-per-period", "8"])],
        ids=["lattice_mode", "renewal_horizon", "renewal_truncation", "renewal_tau",
             "renewal_samples_per_period"],
    )
    def test_input_settings_have_no_flag(self, tmp_path, cmd, flags):
        # the system file picks the classifier; the reduced file holds the
        # renewal settings
        p = tmp_path / "renewal.json"
        p.write_text(json.dumps(RENEWAL_DOC), encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            main([cmd, str(p)] + flags)
        assert exc.value.code == 2


    @pytest.mark.parametrize(
        "flags", [["--spot-check"], ["--pairs", "40"], ["--stop-ratio", "0.1"], ["--seed", "0"]]
    )
    def test_spot_check_flags_are_gone(self, corpus_files, flags):
        # the separation certificate is deterministic and always printed
        with pytest.raises(SystemExit) as exc:
            main(["validate", corpus_files["cantor_point"]] + flags)
        assert exc.value.code == 2


class TestReport:
    def test_artifacts_written_and_deterministic(self, corpus_files, tmp_path):
        base = [
            "report",
            corpus_files["cantor"],
            "--n-min", "3",
            "--n-max", "6",
            "--y-samples", "4",
        ]
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        assert main(base + ["-o", str(d1)]) == 0
        assert main(base + ["-o", str(d2)]) == 0
        names = ["report.json", "profile.csv", "limit.csv", "cross_check.csv"]
        for name in names:
            assert (d1 / name).is_file(), name
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name
        doc = json.loads((d1 / "report.json").read_text())
        assert set(doc["artifacts"].values()) == set(names)
        assert doc["system"]["dimension"] == 1


class TestOneParser:
    # the parser is built on the first ``main`` call of a process and reused
    # after; each handler is looked up by name when its subcommand runs

    @staticmethod
    def _calls(corpus_files, out) -> list:
        cantor = corpus_files["cantor"]
        small = ["--n-min", "3", "--n-max", "6", "--y-samples", "4"]
        renewal_file = out.parent / "renewal_input.json"
        renewal_file.write_text(json.dumps(RENEWAL_DOC), encoding="utf-8")
        return [
            ["report", cantor, *small, "-o", str(out / "report")],
            ["analyze", cantor, *small, "--json"],
            ["profile", corpus_files["two_vertex"], "--tmax", "5", "-o", str(out / "p.csv")],
            ["renewal", str(renewal_file), "--samples", "51", "-o", str(out / "f.csv"),
             "--json-out", str(out / "f.json")],
            ["validate", "--json", cantor],
            ["analyze", cantor, "--samples", "x"],  # argparse: SystemExit(2)
            ["report", "--help"],  # SystemExit(0)
            ["analyze", cantor, "--n-min", "5", "--n-max", "2"],  # validation: exit 1
        ]

    @staticmethod
    def _round(calls, out, capsys) -> list:
        """Each call's exit code (a SystemExit's, tagged) and stdout, then
        every file written, by path; the files are removed after."""
        got = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = ("SystemExit", exc.code)
            got.append((argv[0], code, capsys.readouterr().out))
        files = sorted(p for p in out.rglob("*") if p.is_file())
        got.append([(str(p.relative_to(out)), p.read_bytes()) for p in files])
        for p in files:
            p.unlink()
        return got

    def test_repeated_calls_in_one_process_match_the_first(self, corpus_files, tmp_path,
                                                          capsys):
        out = tmp_path / "out"
        out.mkdir()
        calls = self._calls(corpus_files, out)
        cli.build_parser.cache_clear()  # as in a fresh process
        first = self._round(calls, out, capsys)
        assert [code for _cmd, code, _out in first[:-1]] == [
            0, 0, 0, 0, 0, ("SystemExit", 2), ("SystemExit", 0), 1]
        assert len(first[-1]) == 7  # report's four artifacts, profile's, renewal's two
        assert self._round(calls, out, capsys) == first
        assert cli.build_parser.cache_info().misses == 1

    def test_a_handler_patched_after_the_first_call_runs(self, corpus_files, tmp_path):
        argv = ["validate", corpus_files["cantor"], "--json", "-o", str(tmp_path / "v.json")]
        assert main(argv) == 0
        with mock.patch.object(cli, "cmd_validate", return_value=5) as fake:
            assert main(argv) == 5
        fake.assert_called_once()
        assert fake.call_args.args[0].file == corpus_files["cantor"]
        with mock.patch.object(cli, "cmd_report", return_value=6) as fake:
            assert main(["report", corpus_files["cantor"], "-o", str(tmp_path / "r")]) == 6
        fake.assert_called_once()
        assert not (tmp_path / "r").exists()


def _recursive_jsonable(x):
    """JSON-ready form of ``x`` converting every array element one at a time:
    what ``json.dumps`` takes for the documents the report writer writes."""
    if isinstance(x, np.ndarray):
        return _recursive_jsonable(x.tolist())
    if isinstance(x, np.floating):
        return float(x)
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.bool_):
        return bool(x)
    if isinstance(x, dict):
        return {str(k): _recursive_jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_recursive_jsonable(v) for v in x]
    return x


@pytest.mark.parametrize("value", [
    np.array([0.1, -2.5e-300, 1e308, 3.0]),
    np.array([0.1, 2.5], dtype=np.float32),
    np.arange(-3, 4).reshape(7, 1),
    np.array([1, 2], dtype=np.int32),
    np.array([[True, False], [False, True]]),
    np.array(0.30000000000000004),
    np.array(7, dtype=np.uint8),
    np.array(False),
    [np.float64(0.1), (np.int64(3), np.bool_(True)), {"k": np.float32(0.5), 2: np.int8(-1)}],
    {"rows": [[np.float64(1 / 3), np.int64(2)], np.array([1.5, 2.5])], "n": None},
    np.array([np.float64(0.2), 3, None, np.arange(2), {"a": np.int64(1)}], dtype=object),
], ids=["float", "float32", "int", "int32", "bool", "0d_float", "0d_uint8", "0d_bool",
        "numpy_scalars", "nested", "object"])
def test_jsonable_matches_the_recursive_conversion(value):
    # the writer's bytes are those of json.dumps on the converted value
    assert cli._json(value) == json.dumps(_recursive_jsonable(value), indent=2, sort_keys=True)


def _object_array(values) -> np.ndarray:
    out = np.empty(len(values), dtype=object)
    for k, v in enumerate(values):
        out[k] = v
    return out


WRITER_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.sampled_from((0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.225e-308)),
    st.text(),
    st.text(st.characters(max_codepoint=0x1F)),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    st.booleans().map(np.bool_),
    st.floats().map(np.array),
    st.lists(st.floats(), max_size=3).map(np.array),
)
WRITER_KEYS = st.one_of(st.text(max_size=3), st.integers(-3, 3), st.floats(-2.0, 2.0),
                        st.booleans(), st.none())
WRITER_VALUES = st.recursive(
    WRITER_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(WRITER_KEYS, inner, max_size=3),
        st.lists(inner, max_size=3).map(_object_array),
    ),
    max_leaves=10,
)


@settings(max_examples=300, deadline=None)
@given(value=WRITER_VALUES)
def test_json_writer_matches_json_dumps(value):
    # nested containers with non-str keys, empty ones, every float class,
    # big ints, control and non-ASCII text, numpy scalars and arrays
    assert cli._json(value) == json.dumps(_recursive_jsonable(value), indent=2, sort_keys=True)


# -- fuzzed system files ------------------------------------------------------------
#
# A bundled system with a few keys deleted or replaced by arbitrary JSON, or
# its text cut short.  Every command exits with a documented code (0-4) and
# never lets an exception escape main, which would print a traceback.

JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from((0.0, -1.0, 0.5, 1.0, 2.0, 1e308, 5e-324, 1 - 1e-12, 10**30)),
    st.sampled_from(("", "X", "P", "a", "box", "point", "segment", "SSC")),
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(("id", "min", "max", "kind", "ratio", "X")), inner,
                        max_size=3),
    ),
    max_leaves=6,
)


def _slots(doc, out):
    """Every (container, key) pair of a JSON document, depth first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        out.append((doc, key))
        _slots(value, out)
    return out


@st.composite
def fuzzed_system_text(draw):
    doc = json.loads(bundled_text(draw(st.sampled_from(BUNDLED_NAMES))))
    for _ in range(draw(st.integers(1, 3))):
        slots = _slots(doc, [])
        if not slots:
            break
        container, key = draw(st.sampled_from(slots))
        if draw(st.booleans()):
            del container[key]
        else:
            container[key] = draw(JSON_VALUES)
    text = json.dumps(doc)
    if draw(st.integers(0, 9)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=fuzzed_system_text(), command=st.sampled_from(("validate", "dim", "lattice")))
def test_fuzzed_systems_exit_with_documented_codes(tmp_path_factory, text, command):
    path = tmp_path_factory.mktemp("fuzz") / "system.json"
    path.write_text(text, encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([command, str(path)])
    assert code in (0, 1, 2, 3, 4)
    assert "Traceback" not in err.getvalue()


# -- fuzzed pipeline runs -------------------------------------------------------------
#
# The counting commands on small edits of bundled systems, and renewal on
# edits of a reduced file, at small t ranges with flag values that may be
# out of range or not numbers.  Each run returns a documented code (0-4) or
# stops in argparse with SystemExit(2); no other exception escapes main.

# small edits: a shift of one coordinate of a translation, a box or a
# primitive, or of one number of a reduced file's M or L; a ratio scaled, its
# rational form dropped
SHIFTS = (-0.25, -0.05, 0.05, 0.25)
SCALES = (0.5, 0.9, 1.1)
NUMBER_KEYS = {"translation", "min", "max", "point", "a", "b", "M", "L"}
FLAG_VALUES = {
    "--tmin": ("-1", "0", "0.5", "1.5", "nan", "x"),
    "--tmax": ("0", "1", "2", "3", "inf"),
    "--samples": ("-2", "0", "1", "3"),
    "--n-min": ("-1", "0", "1", "2"),
    "--n-max": ("0", "1", "3", "4"),
    "--y-samples": ("0", "1", "2"),
    "--grid-origin": ("0.316", "-0.25", "0.1,0.2", "x"),
}
COMMAND_FLAGS = {
    "profile": ("--tmin", "--tmax", "--samples", "--grid-origin"),
    "analyze": ("--tmin", "--tmax", "--samples", "--n-min", "--n-max", "--y-samples",
                "--grid-origin"),
    "report": ("--tmin", "--tmax", "--samples", "--n-min", "--n-max", "--y-samples",
               "--grid-origin"),
}
# flags that keep a run small whatever the drawn ones leave at their default
SMALL_RUN = {
    "profile": ["--tmax", "2"],
    "analyze": ["--tmin", "0.5", "--tmax", "5.5", "--n-min", "1", "--n-max", "4",
                "--y-samples", "2", "--samples", "4"],
}
SMALL_RUN["report"] = SMALL_RUN["analyze"]


def _coordinates(doc, out, key=None):
    """Every (list, index) slot of a float under a ``NUMBER_KEYS`` key."""
    if isinstance(doc, dict):
        for k, value in doc.items():
            _coordinates(value, out, k)
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            if isinstance(value, float) and key in NUMBER_KEYS:
                out.append((doc, i))
            _coordinates(value, out, key)
    return out


@st.composite
def edited_json(draw, doc):
    """``doc`` after one or two edits: a small edit, or one time in three
    (always, where no small one applies) an arbitrary one from
    ``fuzzed_system_text``'s set."""
    for _ in range(draw(st.integers(1, 2))):
        coords = _coordinates(doc, [])
        edges = doc.get("edges") if isinstance(doc.get("edges"), list) else []
        edges = [e for e in edges if isinstance(e, dict) and isinstance(e.get("ratio"), float)]
        edit = draw(st.sampled_from(("shift", "ratio", "any")))
        if edit == "shift" and coords:
            container, key = draw(st.sampled_from(coords))
            container[key] += draw(st.sampled_from(SHIFTS))
        elif edit == "ratio" and edges:
            edge = draw(st.sampled_from(edges))
            edge["ratio"] *= draw(st.sampled_from(SCALES))
            edge.pop("ratio_rational", None)
        else:
            container, key = draw(st.sampled_from(_slots(doc, [])))
            container[key] = draw(JSON_VALUES)
    return json.dumps(doc)


@st.composite
def fuzzed_runs(draw):
    """A command, its input text and its flags."""
    command = draw(st.sampled_from(("profile", "analyze", "report", "renewal")))
    if command == "renewal":
        return command, draw(edited_json(json.loads(json.dumps(RENEWAL_DOC)))), []
    doc = json.loads(bundled_text(draw(st.sampled_from(BUNDLED_NAMES))))
    flags = list(SMALL_RUN[command])
    text = draw(edited_json(doc))
    for flag in draw(st.lists(st.sampled_from(COMMAND_FLAGS[command]), max_size=3, unique=True)):
        flags += [f"{flag}={draw(st.sampled_from(FLAG_VALUES[flag]))}"]
    return command, text, flags


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(run=fuzzed_runs())
def test_fuzzed_runs_exit_with_documented_codes(tmp_path_factory, run):
    command, text, flags = run
    root = tmp_path_factory.mktemp("fuzz_run")
    path = root / "input.json"
    path.write_text(text, encoding="utf-8")
    out = ["-o", str(root / "out")] if command == "report" else []
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main([command, str(path), *flags, *out])
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
            assert code == 2
    assert code in (0, 1, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
