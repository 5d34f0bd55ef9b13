"""Tests for affine transforms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rmath import AABB, Transform, vec3

angle = st.floats(-np.pi, np.pi, allow_nan=False)
coord = st.floats(-20, 20, allow_nan=False)


def test_identity():
    t = Transform.identity()
    assert t.is_identity()
    p = np.array([[1.0, 2.0, 3.0]])
    np.testing.assert_array_equal(t.apply_points(p), p)


def test_translate_points_not_vectors():
    t = Transform.translate(1, 2, 3)
    p = np.array([[0.0, 0.0, 0.0]])
    np.testing.assert_allclose(t.apply_points(p), [[1, 2, 3]])
    np.testing.assert_allclose(t.apply_vectors(p + 1.0), [[1, 1, 1]])


def test_scale():
    t = Transform.scale(2, 3, 4)
    np.testing.assert_allclose(t.apply_points(np.array([[1.0, 1, 1]])), [[2, 3, 4]])


def test_scale_zero_rejected():
    with pytest.raises(ValueError):
        Transform.scale(0.0)


def test_rotations_quarter_turn():
    p = np.array([[1.0, 0.0, 0.0]])
    np.testing.assert_allclose(
        Transform.rotate_z(np.pi / 2).apply_points(p), [[0, 1, 0]], atol=1e-12
    )
    np.testing.assert_allclose(
        Transform.rotate_y(np.pi / 2).apply_points(p), [[0, 0, -1]], atol=1e-12
    )
    py = np.array([[0.0, 1.0, 0.0]])
    np.testing.assert_allclose(
        Transform.rotate_x(np.pi / 2).apply_points(py), [[0, 0, 1]], atol=1e-12
    )


@given(angle, st.tuples(coord, coord, coord).filter(lambda a: np.linalg.norm(a) > 1e-3))
@settings(max_examples=60)
def test_rotate_axis_preserves_lengths(theta, axis):
    t = Transform.rotate_axis(np.asarray(axis), theta)
    p = np.array([[1.0, 2.0, 3.0]])
    q = t.apply_points(p)
    assert np.linalg.norm(q) == pytest.approx(np.linalg.norm(p), rel=1e-9)


def test_rotate_axis_matches_rotate_z():
    a = Transform.rotate_axis(np.array([0, 0, 1.0]), 0.7)
    b = Transform.rotate_z(0.7)
    np.testing.assert_allclose(a.m, b.m, atol=1e-12)


def test_rotate_axis_zero_rejected():
    with pytest.raises(ValueError):
        Transform.rotate_axis(np.zeros(3), 1.0)


def test_composition_order():
    # (a @ b)(p) == a(b(p))
    a = Transform.translate(1, 0, 0)
    b = Transform.scale(2)
    p = np.array([[1.0, 1.0, 1.0]])
    np.testing.assert_allclose((a @ b).apply_points(p), a.apply_points(b.apply_points(p)))


def test_then_is_reverse_composition():
    a = Transform.scale(2)
    b = Transform.translate(1, 0, 0)
    p = np.array([[1.0, 0.0, 0.0]])
    np.testing.assert_allclose(a.then(b).apply_points(p), [[3, 0, 0]])


@given(angle, coord, coord, coord)
@settings(max_examples=60)
def test_inverse_roundtrip(theta, x, y, z):
    t = Transform.translate(x, y, z) @ Transform.rotate_y(theta) @ Transform.scale(1.5)
    p = np.array([[0.3, -0.7, 2.0]])
    np.testing.assert_allclose(t.inv_points(t.apply_points(p)), p, atol=1e-9)
    np.testing.assert_allclose(t.inverse().apply_points(t.apply_points(p)), p, atol=1e-9)


def test_normals_under_nonuniform_scale():
    """Normals must use the inverse-transpose: squashing a surface in y
    makes a y-facing normal *longer*-biased toward y, not shorter."""
    t = Transform.scale(1, 0.5, 1)
    # A 45-degree surface normal in the xy-plane.
    n = np.array([[1.0, 1.0, 0.0]]) / np.sqrt(2)
    tn = t.apply_normals(n)
    tn = tn / np.linalg.norm(tn)
    # Tangent (1, -1, 0) maps to (1, -0.5, 0); normal must stay orthogonal.
    tangent = t.apply_vectors(np.array([[1.0, -1.0, 0.0]]))
    assert abs(float(np.dot(tn[0], tangent[0]))) < 1e-12


@pytest.mark.parametrize(
    "method", ["apply_points", "apply_vectors", "apply_normals", "inv_points", "inv_vectors"]
)
def test_lone_row_matches_the_same_row_in_a_batch(method):
    """A ray traced alone must get the bits it gets inside a wavefront:
    frame division sends lone rays through transforms that the serial
    engine batches."""
    rng = np.random.default_rng(1998)
    t = (
        Transform.translate(0.3, -2.1, 4.7)
        @ Transform.rotate_axis(np.array([0.4, 1.0, -0.3]), 0.9)
        @ Transform.scale(1.7, 0.6, 2.2)
    )
    apply = getattr(t, method)
    rows = rng.normal(scale=10.0, size=(64, 3))
    batch = apply(rows)
    for i in range(len(rows)):
        np.testing.assert_array_equal(apply(rows[i : i + 1]), batch[i : i + 1])


def test_apply_aabb_rotation():
    box = AABB(vec3(-1, -1, -1), vec3(1, 1, 1))
    t = Transform.rotate_z(np.pi / 4)
    rotated = t.apply_aabb(box)
    s = np.sqrt(2)
    np.testing.assert_allclose(rotated.lo[:2], [-s, -s], atol=1e-12)
    np.testing.assert_allclose(rotated.hi[:2], [s, s], atol=1e-12)


def test_apply_aabb_infinite_returns_infinite():
    box = AABB(vec3(-np.inf, 0, -np.inf), vec3(np.inf, 1, np.inf))
    out = Transform.rotate_x(0.3).apply_aabb(box)
    assert np.all(np.isinf(out.lo)) and np.all(np.isinf(out.hi))


def test_bad_matrix_rejected():
    with pytest.raises(ValueError):
        Transform(np.eye(3))
