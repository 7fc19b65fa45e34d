"""JSON system descriptions: parsing, serialization, bundled corpus.

A system file is a UTF-8 JSON document with top-level keys "dimension",
"vertices", "edges", optional "condensation", "separation" (defaulting to
"none"), and optional "open_sets".  Edge isometries are given as full
matrices; in two dimensions a rotation "angle" in degrees is accepted as a
convenience and compiled to a matrix while parsing, so serialization
always emits matrices.  Ratios may carry an exact form "ratio_rational":
[p, q] that the lattice classifier uses for exact arithmetic.
"""
from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from importlib import resources

import numpy as np

from .errors import ValidationError
from .geometry import Box, Primitive, Similarity, rotation_2d
from .graph import SEPARATIONS, Edge, MWGraph

__all__ = [
    "parse_system",
    "load_system",
    "dump_system",
    "dumps_system",
    "bundled_systems",
    "load_bundled",
    "bundled_text",
]

_TOP_KEYS = {
    "dimension",
    "vertices",
    "edges",
    "condensation",
    "separation",
    "open_sets",
}


# a ratio in (0, 1) must be normal (exp(-t) overflows at a subnormal one's scale)
# and this far below 1 (closer, -log(ratio) keeps under 7 correct digits and the
# walk spins to its path cap); validation judges the rest
_RATIO_UNIT_GAP = 1e-9


def _fail(msg: str) -> ValidationError:
    return ValidationError(f"system file: {msg}")


def _finite(x: float, what: str) -> None:
    # Python's json reads Infinity and NaN as floats
    if not math.isfinite(x):
        raise _fail(f"{what} must be finite, got {x}")


def _vector(value, d: int, what: str) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)) or len(value) != d:
        raise _fail(f"{what} must be a list of {d} numbers")
    try:
        out = tuple(float(x) for x in value)
    except (TypeError, ValueError):
        raise _fail(f"{what} must contain numbers") from None
    for x in out:
        _finite(x, what)
    return out


def _box(value, d: int, what: str) -> Box:
    if not isinstance(value, dict) or set(value) - {"min", "max"}:
        raise _fail(f"{what} must be an object with min and max")
    return Box(_vector(value.get("min"), d, f"{what}.min"), _vector(value.get("max"), d, f"{what}.max"))


def _primitive(value, d: int, what: str) -> Primitive:
    if not isinstance(value, dict) or "kind" not in value:
        raise _fail(f"{what} must be an object with a kind")
    kind = str(value["kind"]).lower()
    if kind == "point":
        return Primitive.point(_vector(value.get("point"), d, f"{what}.point"))
    if kind == "segment":
        return Primitive.segment(
            _vector(value.get("a"), d, f"{what}.a"),
            _vector(value.get("b"), d, f"{what}.b"),
        )
    if kind == "box":
        return Primitive.box(
            _vector(value.get("min"), d, f"{what}.min"),
            _vector(value.get("max"), d, f"{what}.max"),
        )
    raise _fail(f"{what}: unknown primitive kind {value['kind']!r}")


def _edge_map(spec: dict, d: int, what: str) -> Similarity:
    ratio = spec.get("ratio")
    if not isinstance(ratio, (int, float)):
        raise _fail(f"{what}.ratio must be a number")
    _finite(float(ratio), f"{what}.ratio")
    if 0 < ratio < sys.float_info.min or 0 < 1 - ratio < _RATIO_UNIT_GAP:
        raise _fail(f"{what} (edge {spec['id']!r}): ratio {ratio!r} is subnormal or "
                    f"within {_RATIO_UNIT_GAP:g} of 1")
    has_matrix = "isometry" in spec
    has_angle = "angle" in spec
    if has_matrix and has_angle:
        raise _fail(f"{what}: give either an isometry matrix or an angle, not both")
    if has_angle:
        if d != 2:
            raise _fail(f"{what}: angle shorthand only makes sense in dimension 2")
        q = rotation_2d(_vector([spec["angle"]], 1, f"{what}.angle")[0])
    elif has_matrix:
        rows = spec["isometry"]
        if not isinstance(rows, list) or len(rows) != d:
            raise _fail(f"{what}.isometry must be a {d}x{d} matrix")
        q = np.array([_vector(row, d, f"{what}.isometry row") for row in rows])
    else:
        q = np.eye(d)
    translation = _vector(spec.get("translation"), d, f"{what}.translation")
    return Similarity(float(ratio), q, translation)


def parse_system(data: dict) -> MWGraph:
    """Build a graph from a decoded JSON document."""
    if not isinstance(data, dict):
        raise _fail("top level must be an object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise _fail(f"unknown top-level keys {sorted(unknown)}")
    for key in ("dimension", "vertices", "edges"):
        if key not in data:
            raise _fail(f"missing required key {key!r}")
    d = data["dimension"]
    if not isinstance(d, int) or d < 1:
        raise _fail("dimension must be a positive integer")
    if not isinstance(data["vertices"], list) or not data["vertices"]:
        raise _fail("vertices must be a nonempty list")
    vertices: dict[str, Box] = {}
    for k, v in enumerate(data["vertices"]):
        if not isinstance(v, dict) or "id" not in v or "box" not in v:
            raise _fail(f"vertices[{k}] must have an id and a box")
        vid = str(v["id"])
        if vid in vertices:
            raise _fail(f"duplicate vertex id {vid!r}")
        vertices[vid] = _box(v["box"], d, f"vertices[{k}].box")
    if not isinstance(data["edges"], list) or not data["edges"]:
        raise _fail("edges must be a nonempty list")
    edges = []
    for k, e in enumerate(data["edges"]):
        what = f"edges[{k}]"
        if not isinstance(e, dict):
            raise _fail(f"{what} must be an object")
        for key in ("id", "from", "to", "ratio", "translation"):
            if key not in e:
                raise _fail(f"{what} missing key {key!r}")
        rr = e.get("ratio_rational")
        if rr is not None:
            if (
                not isinstance(rr, list)
                or len(rr) != 2
                or not all(isinstance(x, int) and x > 0 for x in rr)
            ):
                raise _fail(f"{what}.ratio_rational must be two positive integers")
            rr = Fraction(rr[0], rr[1])
        edges.append(
            Edge(
                id=str(e["id"]),
                src=str(e["from"]),
                dst=str(e["to"]),
                map=_edge_map(e, d, what),
                ratio_rational=rr,
            )
        )
    condensation = None
    if "condensation" in data:
        cond_spec = data["condensation"]
        if not isinstance(cond_spec, dict) or not all(
                isinstance(prims, list) for prims in cond_spec.values()):
            raise _fail("condensation must map vertex ids to primitive lists")
        condensation = {
            str(vid): tuple(
                _primitive(p, d, f"condensation[{vid}][{k}]")
                for k, p in enumerate(prims)
            )
            for vid, prims in cond_spec.items()
        }
    separation = data.get("separation", "none")
    if separation not in SEPARATIONS:
        raise _fail(f"separation must be one of {sorted(SEPARATIONS)}")
    open_sets = None
    if "open_sets" in data:
        os_spec = data["open_sets"]
        if not isinstance(os_spec, dict):
            raise _fail("open_sets must map vertex ids to boxes")
        open_sets = {
            str(vid): _box(b, d, f"open_sets[{vid}]") for vid, b in os_spec.items()
        }
    return MWGraph(
        dimension=d,
        vertices=vertices,
        edges=edges,
        condensation=condensation,
        separation=separation,
        open_sets=open_sets,
    )


def load_system(path: str) -> MWGraph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read system file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"system file {path} is not valid JSON: {exc}") from exc
    return parse_system(data)


def _dump_primitive(p: Primitive) -> dict:
    if p.kind == "point":
        return {"kind": "point", "point": list(p.points[0])}
    if p.kind == "segment":
        return {"kind": "segment", "a": list(p.points[0]), "b": list(p.points[1])}
    return {"kind": "box", "min": list(p.points[0]), "max": list(p.points[1])}


def dump_system(graph: MWGraph) -> dict:
    """JSON-ready document; the inverse of :func:`parse_system`."""
    doc: dict = {
        "dimension": graph.dimension,
        "vertices": [
            {
                "id": v,
                "box": {
                    "min": list(graph.seed_box(v).lo),
                    "max": list(graph.seed_box(v).hi),
                },
            }
            for v in graph.vertex_order
        ],
        "edges": [],
        "separation": graph.separation,
    }
    for e in graph.edges.values():
        entry = {
            "id": e.id,
            "from": e.src,
            "to": e.dst,
            "ratio": e.ratio,
            "isometry": [list(row) for row in e.map.isometry.tolist()],
            "translation": list(e.map.translation.tolist()),
        }
        if e.ratio_rational is not None:
            entry["ratio_rational"] = [
                e.ratio_rational.numerator,
                e.ratio_rational.denominator,
            ]
        doc["edges"].append(entry)
    if graph.has_condensation():
        doc["condensation"] = {
            v: [_dump_primitive(p) for p in prims]
            for v, prims in graph.condensation.items()
            if prims
        }
    custom_open = {
        v: box
        for v, box in graph.open_sets.items()
        if box != graph.seed_box(v)
    }
    if custom_open:
        doc["open_sets"] = {
            v: {"min": list(b.lo), "max": list(b.hi)} for v, b in custom_open.items()
        }
    return doc


def dumps_system(graph: MWGraph) -> str:
    return json.dumps(dump_system(graph), indent=2, sort_keys=True) + "\n"


def bundled_systems() -> list[str]:
    """Names of the systems shipped with the package."""
    root = resources.files("gdcover").joinpath("systems")
    return sorted(
        entry.name[: -len(".json")]
        for entry in root.iterdir()
        if entry.name.endswith(".json")
    )


def bundled_text(name: str) -> str:
    root = resources.files("gdcover").joinpath("systems")
    target = root.joinpath(f"{name}.json")
    if not target.is_file():
        raise ValidationError(
            f"no bundled system {name!r}; available: {', '.join(bundled_systems())}"
        )
    return target.read_text(encoding="utf-8")


def load_bundled(name: str) -> MWGraph:
    return parse_system(json.loads(bundled_text(name)))
