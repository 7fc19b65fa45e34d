"""Boxes, similarity maps, and condensation shapes in R^d.

Everything downstream builds on three kinds of geometry: closed
axis-aligned boxes (seed sets and grid cells), similarity maps
``x -> ratio * Q x + b`` with orthogonal ``Q``, and the simple shapes
(points, segments, boxes) declared as condensation.  Their images under
compositions of maps exist only as arrays, in ``covering`` and in the
separation certificate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Box",
    "Similarity",
    "Primitive",
    "rotation_2d",
]


@dataclass(frozen=True)
class Box:
    """Closed axis-aligned box given by its min and max corners."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self) -> None:
        lo = tuple(float(x) for x in self.lo)
        hi = tuple(float(x) for x in self.hi)
        if len(lo) != len(hi):
            raise ValueError("box corners must have equal dimension")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def widths(self) -> tuple[float, ...]:
        return tuple(h - l for l, h in zip(self.lo, self.hi))

    @property
    def diameter(self) -> float:
        return math.hypot(*self.widths)

    @property
    def center(self) -> tuple[float, ...]:
        return tuple((l + h) / 2 for l, h in zip(self.lo, self.hi))

    def contains_box(self, other: "Box", tol: float = 0.0) -> bool:
        return all(
            sl - tol <= ol and oh <= sh + tol
            for sl, sh, ol, oh in zip(self.lo, self.hi, other.lo, other.hi)
        )


class Similarity:
    """Affine map ``x -> ratio * Q x + b`` with ``Q`` orthogonal.

    Instances are treated as immutable; the arrays are flagged read-only.
    Contractivity (ratio < 1) is a property of edge maps and is enforced by
    graph validation, not by this class, so identity maps can be represented.
    """

    __slots__ = ("ratio", "isometry", "translation")

    def __init__(self, ratio: float, isometry, translation) -> None:
        q = np.array(isometry, dtype=float)
        b = np.array(translation, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError("isometry must be a square matrix")
        if b.ndim != 1 or b.shape[0] != q.shape[0]:
            raise ValueError("translation length must match isometry size")
        q.setflags(write=False)
        b.setflags(write=False)
        self.ratio = float(ratio)
        self.isometry = q
        self.translation = b

    @classmethod
    def identity(cls, dim: int) -> "Similarity":
        return cls(1.0, np.eye(dim), np.zeros(dim))

    @property
    def dim(self) -> int:
        return self.translation.shape[0]

    def apply(self, points):
        """Map one point (shape ``(d,)``) or a stack of points (``(n, d)``)."""
        pts = np.asarray(points, dtype=float)
        return self.ratio * pts @ self.isometry.T + self.translation

    def compose(self, inner: "Similarity") -> "Similarity":
        """Return ``self o inner`` (apply ``inner`` first)."""
        return Similarity(
            self.ratio * inner.ratio,
            self.isometry @ inner.isometry,
            self.ratio * (self.isometry @ inner.translation) + self.translation,
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"Similarity(ratio={self.ratio!r}, translation={self.translation.tolist()!r})"


def rotation_2d(angle_degrees: float) -> np.ndarray:
    """Plane rotation matrix for an angle given in degrees."""
    a = math.radians(angle_degrees)
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s], [s, c]])


@dataclass(frozen=True)
class Primitive:
    """Condensation shape: a point, a segment, or an axis-aligned box.

    ``points`` holds one point for a point shape, the two endpoints for a
    segment, and the (min, max) corners for a box.
    """

    kind: str
    points: tuple[tuple[float, ...], ...]

    KINDS = ("point", "segment", "box")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown primitive kind {self.kind!r}")
        pts = tuple(tuple(float(x) for x in p) for p in self.points)
        expected = {"point": 1, "segment": 2, "box": 2}[self.kind]
        if len(pts) != expected:
            raise ValueError(f"{self.kind} primitive needs {expected} points")
        if len({len(p) for p in pts}) != 1:
            raise ValueError("primitive points must share a dimension")
        object.__setattr__(self, "points", pts)

    @classmethod
    def point(cls, p) -> "Primitive":
        return cls("point", (tuple(p),))

    @classmethod
    def segment(cls, a, b) -> "Primitive":
        return cls("segment", (tuple(a), tuple(b)))

    @classmethod
    def box(cls, lo, hi) -> "Primitive":
        return cls("box", (tuple(lo), tuple(hi)))

    @property
    def dim(self) -> int:
        return len(self.points[0])

    def as_box(self) -> Box:
        if self.kind != "box":
            raise ValueError("not a box primitive")
        return Box(self.points[0], self.points[1])

    def box_dimension(self) -> int:
        """Minkowski dimension of the shape (an integer for these kinds)."""
        if self.kind == "point":
            return 0
        if self.kind == "segment":
            a, b = self.points
            return 0 if a == b else 1
        lo, hi = self.points
        return sum(1 for l, h in zip(lo, hi) if h > l)

    def bounding_box(self) -> Box:
        arr = np.array(self.points)
        return Box(tuple(arr.min(axis=0)), tuple(arr.max(axis=0)))
