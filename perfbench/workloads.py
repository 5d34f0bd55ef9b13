"""The benchmark's three workloads and how a seed turns into their inputs.

Seed 0 is the paper's defaults.  Any other seed perturbs Newton's swing
amplitude and the orbit camera's height a little; the program only ever
sees the resulting :class:`~repro.runtime.AnimationSpec`.  The
perturbation is kept small so that run-to-run spread across seeds stays
well inside the metrics' bounds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

N_FRAMES = 8
WIDTH, HEIGHT = 160, 120
N_WORKERS = 2

SCENES = {
    "newton": "repro.scenes.newton:newton_animation",
    "orbit": "repro.scenes.orbit:orbit_animation",
}


@dataclass(frozen=True)
class Workload:
    name: str
    scene: str
    request: dict  # RenderRequest fields besides workload, sizes and callbacks
    spools: bool = False  # wants a fresh checkpoint run_dir per render


# Why each workload was chosen: BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("serial-newton", "newton", {"engine": "animation"}),
        Workload("framediv-newton", "newton",
                 {"engine": "farm", "transport": "process", "mode": "frame",
                  "schedule": "static", "n_workers": N_WORKERS},
                 spools=True),
        Workload("tcp-orbit", "orbit",
                 {"engine": "farm", "transport": "tcp", "mode": "frame",
                  "schedule": "demand", "n_workers": N_WORKERS}),
    )
}


def scene_kwargs(scene: str, seed: int) -> dict:
    """Factory kwargs the seed perturbs (empty at seed 0: the defaults)."""
    if seed == 0:
        return {}
    rng = random.Random(f"{scene}:{seed}")
    if scene == "newton":
        return {"swing_degrees": round(35.0 + rng.uniform(-2.0, 2.0), 6)}
    return {"elevation": round(2.4 + rng.uniform(-0.1, 0.1), 6)}


def spec_for(scene: str, seed: int, n_frames: int, width: int, height: int):
    from repro.runtime import AnimationSpec

    kwargs = {"n_frames": n_frames, "width": width, "height": height}
    kwargs.update(scene_kwargs(scene, seed))
    return AnimationSpec(SCENES[scene], kwargs)
