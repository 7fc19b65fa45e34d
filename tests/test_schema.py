import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from gdcover.errors import ValidationError
from gdcover.schema import (
    bundled_systems,
    bundled_text,
    dump_system,
    dumps_system,
    load_bundled,
    load_system,
    parse_system,
)


def minimal_doc(**overrides):
    doc = {
        "dimension": 1,
        "vertices": [{"id": "X", "box": {"min": [0.0], "max": [1.0]}}],
        "edges": [
            {"id": "a", "from": "X", "to": "X", "ratio": 0.5, "translation": [0.0]},
            {"id": "b", "from": "X", "to": "X", "ratio": 0.5, "translation": [0.5]},
        ],
    }
    doc.update(overrides)
    return doc


class TestParse:
    def test_minimal_system(self):
        g = parse_system(minimal_doc())
        assert g.vertex_order == ("X",)
        assert g.separation == "none"
        assert g.edges["a"].ratio == 0.5

    def test_round_trip_preserves_document(self, bundled):
        for name in bundled:
            original = json.loads(bundled_text(name))
            again = json.loads(dumps_system(load_bundled(name)))
            assert again == original, name

    def test_parse_dump_parse_is_stable(self, bundled):
        for name, g in bundled.items():
            h = parse_system(dump_system(g))
            assert h.vertex_order == g.vertex_order
            assert set(h.edges) == set(g.edges)
            for eid in g.edges:
                assert h.edges[eid].ratio == g.edges[eid].ratio
                assert np.array_equal(
                    h.edges[eid].map.isometry, g.edges[eid].map.isometry
                )
                assert h.edges[eid].ratio_rational == g.edges[eid].ratio_rational

    def test_angle_shorthand_compiles_to_matrix(self):
        doc = {
            "dimension": 2,
            "vertices": [{"id": "X", "box": {"min": [0, 0], "max": [1, 1]}}],
            "edges": [
                {
                    "id": "a",
                    "from": "X",
                    "to": "X",
                    "ratio": 0.4,
                    "angle": 30.0,
                    "translation": [0.0, 0.0],
                },
                {
                    "id": "b",
                    "from": "X",
                    "to": "X",
                    "ratio": 0.4,
                    "translation": [0.55, 0.35],
                },
            ],
        }
        g = parse_system(doc)
        q = g.edges["a"].map.isometry
        c, s = math.cos(math.radians(30.0)), math.sin(math.radians(30.0))
        assert np.allclose(q, [[c, -s], [s, c]])
        # serialization always writes the matrix form back out
        dumped = dump_system(g)
        edge = next(e for e in dumped["edges"] if e["id"] == "a")
        assert "angle" not in edge and "isometry" in edge

    def test_angle_and_matrix_together_rejected(self):
        doc = minimal_doc()
        doc["dimension"] = 2
        doc["vertices"] = [{"id": "X", "box": {"min": [0, 0], "max": [1, 1]}}]
        doc["edges"] = [
            {
                "id": "a",
                "from": "X",
                "to": "X",
                "ratio": 0.5,
                "angle": 10.0,
                "isometry": [[1, 0], [0, 1]],
                "translation": [0, 0],
            }
        ]
        with pytest.raises(ValidationError, match="not both"):
            parse_system(doc)

    def test_angle_needs_dimension_two(self):
        doc = minimal_doc()
        doc["edges"][0]["angle"] = 15.0
        with pytest.raises(ValidationError, match="dimension 2"):
            parse_system(doc)

    def test_missing_isometry_defaults_to_identity(self):
        g = parse_system(minimal_doc())
        assert np.array_equal(g.edges["a"].map.isometry, np.eye(1))

    def test_rational_ratio_parsed_as_fraction(self):
        doc = minimal_doc()
        doc["edges"][0]["ratio_rational"] = [1, 2]
        g = parse_system(doc)
        assert g.edges["a"].ratio_rational == Fraction(1, 2)
        assert g.edges["b"].ratio_rational is None

    def test_bad_rational_rejected(self):
        doc = minimal_doc()
        doc["edges"][0]["ratio_rational"] = [1, 0]
        with pytest.raises(ValidationError):
            parse_system(doc)

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValidationError, match="unknown top-level"):
            parse_system(minimal_doc(extra=1))

    @pytest.mark.parametrize("key", ["dimension", "vertices", "edges"])
    def test_missing_required_key_rejected(self, key):
        doc = minimal_doc()
        del doc[key]
        with pytest.raises(ValidationError, match="missing required"):
            parse_system(doc)

    def test_bad_separation_rejected(self):
        with pytest.raises(ValidationError, match="separation"):
            parse_system(minimal_doc(separation="STRICT"))

    def test_duplicate_vertex_id_rejected(self):
        doc = minimal_doc()
        doc["vertices"].append({"id": "X", "box": {"min": [0.0], "max": [1.0]}})
        with pytest.raises(ValidationError, match="duplicate"):
            parse_system(doc)

    def test_condensation_kinds_parsed(self):
        doc = minimal_doc(
            condensation={
                "X": [
                    {"kind": "point", "point": [0.5]},
                    {"kind": "segment", "a": [0.1], "b": [0.2]},
                    {"kind": "box", "min": [0.6], "max": [0.7]},
                ]
            },
            separation="SOSC",
        )
        g = parse_system(doc)
        kinds = [p.kind for p in g.condensation["X"]]
        assert kinds == ["point", "segment", "box"]

    def test_unknown_primitive_kind_rejected(self):
        doc = minimal_doc(condensation={"X": [{"kind": "disk", "point": [0.5]}]})
        with pytest.raises(ValidationError, match="unknown primitive"):
            parse_system(doc)

    @pytest.mark.parametrize("prims", [None, 3, 0.5])
    def test_condensation_entry_that_is_no_list_rejected(self, prims):
        doc = minimal_doc(condensation={"X": prims})
        with pytest.raises(ValidationError, match="primitive lists"):
            parse_system(doc)

    def test_open_sets_parsed(self):
        doc = minimal_doc(open_sets={"X": {"min": [0.0], "max": [1.0]}})
        g = parse_system(doc)
        assert g.open_sets["X"].lo == (0.0,)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize(
        "where",
        ["box", "ratio", "translation", "condensation", "isometry", "open_set"],
    )
    def test_non_finite_numbers_rejected(self, where, bad):
        doc = minimal_doc()
        if where == "box":
            doc["vertices"][0]["box"]["max"] = [bad]
        elif where == "ratio":
            doc["edges"][0]["ratio"] = bad
        elif where == "translation":
            doc["edges"][1]["translation"] = [bad]
        elif where == "condensation":
            doc["condensation"] = {"X": [{"kind": "segment", "a": [0.1], "b": [bad]}]}
        elif where == "isometry":
            doc["edges"][0]["isometry"] = [[bad]]
        else:
            doc["open_sets"] = {"X": {"min": [bad], "max": [1.0]}}
        with pytest.raises(ValidationError, match="finite"):
            parse_system(doc)

    def test_non_finite_angle_rejected(self):
        doc = {
            "dimension": 2,
            "vertices": [{"id": "X", "box": {"min": [0, 0], "max": [1, 1]}}],
            "edges": [
                {"id": "a", "from": "X", "to": "X", "ratio": 0.5, "angle": math.inf,
                 "translation": [0, 0]}
            ],
        }
        with pytest.raises(ValidationError, match="finite"):
            parse_system(doc)

    @pytest.mark.parametrize(
        "ratio, message",
        [
            (5e-324, "subnormal"),
            (np.nextafter(sys.float_info.min, 0.0), "subnormal"),
            (1 - 1e-15, "within 1e-09 of 1"),
            (np.nextafter(1.0, 0.0), "within 1e-09 of 1"),
        ],
    )
    def test_subnormal_and_near_unit_ratios_rejected(self, ratio, message):
        doc = minimal_doc()
        doc["edges"][1]["ratio"] = float(ratio)
        with pytest.raises(ValidationError, match=r"edges\[1\] \(edge 'b'\).*" + message):
            parse_system(doc)

    @pytest.mark.parametrize("ratio", [sys.float_info.min, 1e-300, 1 - 2e-9, 0.0, 1.0, 1.2, -0.5])
    def test_ratios_at_the_bounds_and_outside_the_range_parse(self, ratio):
        # ratios outside (0, 1) are left to validation's ratio-range check
        doc = minimal_doc()
        doc["edges"][1]["ratio"] = ratio
        assert parse_system(doc).edges["b"].ratio == ratio

    def test_wrong_dimension_vector_rejected(self):
        doc = minimal_doc()
        doc["edges"][0]["translation"] = [0.0, 0.0]
        with pytest.raises(ValidationError):
            parse_system(doc)


class TestFiles:
    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot read"):
            load_system(str(tmp_path / "nope.json"))

    def test_load_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValidationError, match="not valid JSON"):
            load_system(str(p))

    def test_load_round_trip_through_disk(self, tmp_path, cantor_point):
        p = tmp_path / "sys.json"
        p.write_text(dumps_system(cantor_point), encoding="utf-8")
        g = load_system(str(p))
        assert g.condensation["X"][0].kind == "point"


class TestBundled:
    REQUIRED = {
        "cantor",
        "cantor_point",
        "cantor_segment",
        "two_ratio",
        "two_vertex",
        "sierpinski",
    }

    def test_corpus_is_large_enough(self):
        names = set(bundled_systems())
        assert len(names) >= 6
        assert self.REQUIRED <= names

    def test_every_bundled_system_parses(self):
        for name in bundled_systems():
            g = load_bundled(name)
            assert g.vertex_order

    def test_unknown_name_rejected(self):
        with pytest.raises(ValidationError):
            load_bundled("no_such_system")


class TestDump:
    def test_serialization_is_deterministic(self, cantor_point):
        a = dumps_system(cantor_point)
        b = dumps_system(cantor_point)
        assert a == b
        assert a.endswith("\n")
        assert json.loads(a)  # well-formed

    def test_keys_are_sorted(self, cantor):
        text = dumps_system(cantor)
        doc = json.loads(text)
        assert list(doc) == sorted(doc)
