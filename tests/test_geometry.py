import itertools
import math

import numpy as np
import pytest

from covering_oracle import OrientedBox, image
from helpers import box_corners

from gdcover.geometry import Box, Primitive, Similarity, rotation_2d
from gdcover.graph import _form


class TestBox:
    def test_basic_measurements(self):
        b = Box((0.0, 1.0), (2.0, 4.0))
        assert b.dim == 2
        assert b.widths == (2.0, 3.0)
        assert b.center == (1.0, 2.5)
        assert b.diameter == pytest.approx(math.hypot(2.0, 3.0), rel=1e-15)

    def test_containment_with_tolerance(self):
        b = Box((0.0,), (1.0,))
        assert b.contains_box(Box((0.2,), (0.8,)))
        assert not b.contains_box(Box((0.2,), (1.1,)))
        assert b.contains_box(Box((-1e-12,), (1.0,)), tol=1e-9)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Box((0.0, 0.0), (1.0,))


class TestSimilarity:
    def test_distance_scaling_is_exact(self):
        sim = Similarity(0.4, rotation_2d(37.0), (0.3, -0.2))
        rng = np.random.default_rng(7)
        for _ in range(20):
            x, y = rng.uniform(-5, 5, (2, 2))
            d0 = np.linalg.norm(x - y)
            d1 = np.linalg.norm(sim.apply(x) - sim.apply(y))
            assert d1 == pytest.approx(0.4 * d0, rel=1e-12)

    def test_compose_matches_sequential_application(self):
        f = Similarity(0.5, rotation_2d(30.0), (1.0, 0.0))
        g = Similarity(0.25, rotation_2d(-45.0), (0.0, 2.0))
        p = np.array([0.7, -1.3])
        assert np.allclose((f.compose(g)).apply(p), f.apply(g.apply(p)), atol=1e-14)

    def test_identity_is_neutral_for_compose(self):
        f = Similarity(0.5, rotation_2d(30.0), (1.0, 0.0))
        e = Similarity.identity(2)
        p = np.array([0.2, 0.4])
        assert np.allclose(f.compose(e).apply(p), f.apply(p))
        assert np.allclose(e.compose(f).apply(p), f.apply(p))

    def test_apply_broadcasts_over_point_stacks(self):
        sim = Similarity(0.5, [[1.0]], [1.0])
        out = sim.apply(np.array([[0.0], [1.0], [2.0]]))
        assert np.allclose(out, [[1.0], [1.5], [2.0]])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Similarity(0.5, [[1.0, 0.0]], [0.0, 0.0])
        with pytest.raises(ValueError):
            Similarity(0.5, np.eye(2), [0.0])


class TestRotation2d:
    def test_quarter_turn(self):
        q = rotation_2d(90.0)
        assert np.allclose(q @ [1.0, 0.0], [0.0, 1.0], atol=1e-15)

    def test_proper_orthogonal(self):
        q = rotation_2d(123.4)
        assert np.allclose(q.T @ q, np.eye(2), atol=1e-15)
        assert np.linalg.det(q) == pytest.approx(1.0, abs=1e-15)


class TestOrientedBox:
    def test_identity_image_round_trip(self):
        b = Box((0.0, 1.0), (2.0, 3.0))
        ob = OrientedBox.image_of(Similarity.identity(2), b)
        bb = ob.bounding_box()
        assert bb.lo == b.lo and bb.hi == b.hi
        assert ob.is_axis_aligned()

    def test_image_corners_match_mapped_corners(self):
        b = Box((0.0, 0.0), (1.0, 2.0))
        sim = Similarity(0.5, rotation_2d(33.0), (0.4, -0.1))
        ob = OrientedBox.image_of(sim, b)
        signs = np.array(list(itertools.product((-1.0, 1.0), repeat=2)))
        corners = np.array(ob.center) + signs @ np.array(ob.half_axes)
        got = {tuple(np.round(c, 12)) for c in corners}
        want = {tuple(np.round(c, 12)) for c in sim.apply(box_corners(b))}
        assert got == want
        assert not ob.is_axis_aligned()

    def test_bounding_box_of_rotated_square(self):
        b = Box((0.0, 0.0), (1.0, 1.0))
        sim = Similarity(1.0, rotation_2d(45.0), (0.0, 0.0))
        bb = OrientedBox.image_of(sim, b).bounding_box()
        half = math.sqrt(2) / 2
        assert bb.lo == pytest.approx((-half, 0.0), abs=1e-12)
        assert bb.hi == pytest.approx((half, 2 * half), abs=1e-12)


class TestPrimitive:
    def test_point(self):
        p = Primitive.point((0.5, 0.5))
        assert p.kind == "point"
        assert p.box_dimension() == 0
        bb = p.bounding_box()
        assert bb.lo == bb.hi == (0.5, 0.5)

    def test_segment(self):
        s = Primitive.segment((0.0, 0.0), (3.0, 4.0))
        assert s.kind == "segment"
        assert s.box_dimension() == 1
        centre, (half,) = _form(s, Similarity(0.5, np.eye(2), (1.0, 1.0)))
        assert np.allclose([centre - half, centre + half], [(1.0, 1.0), (2.5, 3.0)])

    def test_box_dimension_counts_live_axes(self):
        flat = Primitive.box((0.0, 0.0), (1.0, 0.0))
        full = Primitive.box((0.0, 0.0), (1.0, 1.0))
        point_like = Primitive.box((0.3, 0.3), (0.3, 0.3))
        assert flat.box_dimension() == 1
        assert full.box_dimension() == 2
        assert point_like.box_dimension() == 0

    def test_point_image_is_point(self):
        p = Primitive.point((1.0,))
        centre, rows = _form(p, Similarity(0.25, [[1.0]], [0.5]))
        assert np.allclose(centre, (0.75,))
        assert not rows.any()

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_form_is_the_oracle_image(self, dim):
        # the separation certificate's centre and half-axis rows of a shape's
        # image describe the oracle's image: the mapped point, the mapped
        # segment's ends, and the box's centre and half axes
        rng = np.random.default_rng(dim)
        for _ in range(30):
            q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
            sim = Similarity(rng.uniform(0.01, 1.0), q, rng.normal(size=dim))
            lo = rng.uniform(-1.0, 1.0, dim)
            hi = lo + rng.uniform(0.0, 1.0, dim)
            point, seg, box = Primitive.point(lo), Primitive.segment(lo, hi), Primitive.box(lo, hi)
            centre, rows = _form(point, sim)
            assert centre.tobytes() == np.array(image(point, sim).point).tobytes()
            assert not rows.any()
            centre, (half,) = _form(seg, sim)
            want = image(seg, sim)
            assert np.allclose([centre - half, centre + half], [want.a, want.b], rtol=0, atol=1e-14)
            centre, rows = _form(box, sim)
            want = image(box, sim)
            assert np.allclose(centre, want.center, rtol=0, atol=1e-14)
            assert np.allclose(rows, want.half_axes, rtol=0, atol=1e-14)
