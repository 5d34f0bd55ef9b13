"""Orbit workload: an easing-curve camera sweep around a sphere cluster.

A *moving camera* is frame coherence's worst case: coherence dies the
moment the eye moves, so every frame is a camera cut.  This workload
provides that regime — the camera rides a full orbit around a reflective
cluster, its azimuth driven by a QEasingCurve-style ease-in-out cubic so
it launches gently, sweeps fast over the far side, and brakes into the
final frame.

Because the camera differs at every frame,
:func:`~repro.scene.animation.split_coherent_sequences` degenerates to
one range per frame — the property ``tests/test_scenes.py`` pins, and the
reason every farm unit of an ``orbit`` run is a single frame.
"""

from __future__ import annotations

import numpy as np

from ..geometry import Plane, Sphere
from ..lighting import PointLight
from ..materials import Checker, Material
from ..rmath import vec3
from ..scene import Camera, FunctionAnimation, Scene

__all__ = ["ease_in_out_cubic", "orbit_animation", "orbit_scene"]


def ease_in_out_cubic(t: float) -> float:
    """QEasingCurve.InOutCubic: slow-fast-slow over ``t`` in [0, 1]."""
    t = min(1.0, max(0.0, float(t)))
    if t < 0.5:
        return 4.0 * t * t * t
    u = 2.0 * t - 2.0
    return 0.5 * u * u * u + 1.0


def orbit_scene(width: int = 160, height: int = 120) -> Scene:
    """A checkered floor and a ring of mixed-material spheres around a
    chrome centerpiece — reflections and occlusion in every frame."""
    objects = [
        Plane.from_normal(
            (0, 1, 0),
            0.0,
            material=Material.textured(Checker((0.85, 0.85, 0.9), (0.15, 0.15, 0.2)).scaled(1.2)),
            name="floor",
        ),
        Sphere.at((0.0, 1.1, 0.0), 1.1, material=Material.chrome(), name="core"),
    ]
    palette = [
        (0.85, 0.25, 0.2),
        (0.2, 0.65, 0.85),
        (0.9, 0.75, 0.2),
        (0.35, 0.8, 0.35),
        (0.7, 0.4, 0.85),
        (0.9, 0.55, 0.3),
    ]
    n_ring = len(palette)
    for i, color in enumerate(palette):
        phi = 2.0 * np.pi * i / n_ring
        pos = (2.6 * np.cos(phi), 0.55, 2.6 * np.sin(phi))
        mat = Material.glass() if i == n_ring - 1 else Material.matte(color)
        objects.append(Sphere.at(pos, 0.55, material=mat, name=f"orb{i}"))

    camera = Camera(
        position=(0.0, 2.4, -7.0),
        look_at=(0.0, 0.9, 0.0),
        fov_degrees=55,
        width=width,
        height=height,
    )
    return Scene(
        camera=camera,
        objects=objects,
        lights=[
            PointLight(vec3(-5, 8, -5), vec3(0.95, 0.95, 0.9)),
            PointLight(vec3(5, 6, -1), vec3(0.35, 0.38, 0.45)),
        ],
        background=vec3(0.08, 0.1, 0.16),
    )


def orbit_animation(
    n_frames: int = 24,
    width: int = 160,
    height: int = 120,
    radius: float = 7.0,
    elevation: float = 2.4,
    cycles: float = 1.0,
    easing=ease_in_out_cubic,
) -> FunctionAnimation:
    """``n_frames`` of the eased camera orbit (objects stay put).

    ``cycles`` full revolutions are covered; the azimuth at frame ``f``
    is ``2*pi*cycles * easing(f / (n_frames - 1))``, so spacing between
    consecutive frames follows the easing curve's velocity profile.
    """
    scene = orbit_scene(width=width, height=height)
    look_at = (0.0, 0.9, 0.0)
    start = -np.pi / 2.0  # frame 0 matches orbit_scene's camera at (0, ., -r)
    denom = max(n_frames - 1, 1)

    def camera_fn(frame: int) -> Camera:
        theta = start + 2.0 * np.pi * cycles * easing(frame / denom)
        position = (
            radius * np.cos(theta),
            elevation,
            radius * np.sin(theta),
        )
        return Camera(
            position=position,
            look_at=look_at,
            fov_degrees=55,
            width=width,
            height=height,
        )

    return FunctionAnimation(scene, n_frames, camera_fn=camera_fn)
