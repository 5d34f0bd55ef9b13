"""Tests for the built-in workloads: object inventories and motion."""

import numpy as np
import pytest

from repro.geometry import Cylinder, Plane, Sphere
from repro.scene import split_coherent_sequences
from repro.scenes import (
    CradleRig,
    bounce_position,
    brick_room_animation,
    brick_room_scene,
    cradle_angles,
    ease_in_out_cubic,
    newton_animation,
    newton_scene,
    orbit_animation,
)


# -- Newton ---------------------------------------------------------------------
def test_newton_inventory_matches_paper():
    """The paper: "one plane, five spheres, and sixteen cylinders"."""
    scene = newton_scene()
    assert sum(isinstance(o, Plane) for o in scene.objects) == 1
    assert sum(isinstance(o, Sphere) for o in scene.objects) == 5
    assert sum(isinstance(o, Cylinder) for o in scene.objects) == 16
    assert len(scene.objects) == 22


def test_newton_camera_stationary():
    anim = newton_animation(n_frames=6, width=32, height=24)
    assert split_coherent_sequences(anim) == [(0, 6)]


def test_newton_only_end_marbles_move():
    anim = newton_animation(n_frames=10, width=32, height=24)
    s0, s5 = anim.scene_at(0), anim.scene_at(5)
    moved = set()
    for a, b in zip(s0.objects, s5.objects):
        if not np.allclose(a.transform.m, b.transform.m):
            moved.add(a.name)
    movable = {"marble0", "marble4", "string0a", "string0b", "string4a", "string4b"}
    assert moved <= movable
    assert moved  # something does move


def test_newton_marble_stays_on_pendulum_arc():
    rig = CradleRig()
    anim = newton_animation(n_frames=12, width=32, height=24, rig=rig)
    pivot = np.array([rig.marble_rest_x(0), rig.rail_height, 0.0])
    for f in range(12):
        ball = anim.scene_at(f).object_by_name("marble0")
        center = ball.bounds().center
        dist = np.linalg.norm(center - pivot)
        assert dist == pytest.approx(rig.pendulum_length, rel=1e-6)


def test_newton_strings_follow_marble():
    anim = newton_animation(n_frames=8, width=32, height=24)
    for f in (0, 3, 7):
        scene = anim.scene_at(f)
        ball_center = scene.object_by_name("marble0").bounds().center
        string = scene.object_by_name("marble0".replace("marble", "string") + "a")
        # The string's bounds must reach (approximately) the ball center.
        b = string.bounds().expanded(0.1)
        assert b.contains_point(ball_center[None])[0]


def test_cradle_angles_cycle():
    theta0, omega = 0.5, 1.0
    quarter = (np.pi / 2) / omega
    # Start: left raised, right at rest.
    tl, tr = cradle_angles(0.0, theta0, omega)
    assert tl == pytest.approx(theta0) and tr == 0.0
    # At the impact instant both are at 0.
    tl, tr = cradle_angles(quarter, theta0, omega)
    assert tl == pytest.approx(0.0, abs=1e-12) and tr == pytest.approx(0.0, abs=1e-9)
    # Mid right swing: right at full amplitude.
    tl, tr = cradle_angles(2 * quarter, theta0, omega)
    assert tl == 0.0 and tr == pytest.approx(theta0)
    # Full cycle returns to the start.
    tl, tr = cradle_angles(4 * quarter, theta0, omega)
    assert tl == pytest.approx(theta0) and tr == pytest.approx(0.0, abs=1e-9)


def test_cradle_angles_never_negative_and_bounded():
    for t in np.linspace(0, 20, 200):
        tl, tr = cradle_angles(float(t), 0.6, 1.3)
        assert -1e-12 <= tl <= 0.6 + 1e-12
        assert -1e-12 <= tr <= 0.6 + 1e-12
        # At most one end marble is swinging at a time.
        assert tl < 1e-9 or tr < 1e-9


def test_cradle_angles_validation():
    with pytest.raises(ValueError):
        cradle_angles(0.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        cradle_angles(0.0, 1.0, 0.0)


def test_newton_renders_with_reflections():
    from repro.render import RayTracer

    scene = newton_scene(width=48, height=36)
    _, res = RayTracer(scene).render()
    assert res.stats.reflected > 0  # chrome marbles
    assert res.stats.shadow > 0


# -- brick room -----------------------------------------------------------------
def test_brick_room_inventory():
    scene = brick_room_scene()
    assert sum(isinstance(o, Plane) for o in scene.objects) == 5
    assert sum(isinstance(o, Sphere) for o in scene.objects) == 1


def test_brick_room_ball_moves_and_bounces():
    anim = brick_room_animation(n_frames=14, width=32, height=24, frames_per_bounce=6.0)
    ys = []
    for f in range(14):
        ys.append(anim.scene_at(f).object_by_name("ball").bounds().center[1])
    ys = np.array(ys)
    # The ball's height varies (it bounces)...
    assert ys.max() - ys.min() > 0.5
    # ...and never penetrates the floor.
    assert np.all(ys >= 0.7 - 1e-9)


def test_bounce_position_periodicity():
    p0 = bounce_position(0.0)
    p1 = bounce_position(18.0)  # 18 = lcm of the 6- and 9-period sweeps... x18
    np.testing.assert_allclose(p0[1], p1[1], atol=1e-9)  # height repeats per bounce


def test_brick_room_refracts():
    from repro.render import RayTracer

    scene = brick_room_scene(width=48, height=36)
    _, res = RayTracer(scene).render()
    assert res.stats.refracted > 0  # the glass ball


# -- Orbit ----------------------------------------------------------------------
def test_ease_in_out_cubic_shape():
    assert ease_in_out_cubic(0.0) == 0.0
    assert ease_in_out_cubic(0.5) == 0.5
    assert ease_in_out_cubic(1.0) == 1.0
    assert ease_in_out_cubic(-1.0) == 0.0 and ease_in_out_cubic(2.0) == 1.0
    samples = [ease_in_out_cubic(t) for t in np.linspace(0, 1, 33)]
    assert all(b >= a for a, b in zip(samples, samples[1:]))
    # Ease-in: slower than linear early, faster mid-curve.
    assert ease_in_out_cubic(0.25) < 0.25
    assert ease_in_out_cubic(0.75) > 0.75


def test_orbit_moving_camera_splits_per_frame():
    anim = orbit_animation(n_frames=5, width=32, height=24)
    assert anim.n_frames == 5
    assert split_coherent_sequences(anim) == [(f, f + 1) for f in range(5)]
    # The eased azimuth must cover the full revolution, endpoints exact.
    cams = [anim.scene_at(f).camera for f in range(5)]
    assert np.allclose(cams[0].position, cams[-1].position)
    assert not np.allclose(cams[0].position, cams[2].position)
