"""Frame oracle: per-frame SHA-256 digests of the serial reference.

The reference is the serial ``animation`` engine's output.  At seed 0 it
equals a fresh full render of every frame; building a seed-0 reference
checks that equality and refuses to write one if it fails (other seeds
skip the check to keep each run short).  Comparison is
exact: a frame passes only if its digest matches, so a single flipped
ulp fails it.

Seed-0 digests are committed in ``reference/seed0.json``.  Other seeds
are rendered once by ``python3 perfbench/oracle.py ...`` in a child
process and cached under ``.perfbench_cache/`` in the checkout, so the
reference never counts toward the benchmark's set-up time.

    python3 perfbench/oracle.py --scene newton --seed 3 --frames 8 \\
        --width 160 --height 120 --out ref.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
COMMITTED = HERE / "reference" / "seed0.json"
CACHE_DIR = ".perfbench_cache"


def frame_digest(frame) -> str:
    import numpy as np

    a = np.ascontiguousarray(frame, dtype="<f8")
    return hashlib.sha256(a.tobytes()).hexdigest()


def mismatches(reference: list[str], got: list[str | None]) -> list[int]:
    """Frame indices that are missing or not bit-identical."""
    return [i for i, ref in enumerate(reference) if i >= len(got) or got[i] != ref]


def render_reference(scene: str, seed: int, n_frames: int, width: int, height: int) -> list:
    """Digests of the serial engine's frames; at seed 0 each frame is also
    cross-checked against a fresh full render (no coherence)."""
    import numpy as np

    from repro.api import render
    from repro.render import RayTracer

    from workloads import spec_for

    spec = spec_for(scene, seed, n_frames, width, height)
    frames = np.asarray(render(workload=spec, engine="animation").frames)
    if seed == 0:
        anim = spec.build()
        for f in range(n_frames):
            fresh, _ = RayTracer(anim.scene_at(f)).render()
            if not np.array_equal(fresh.as_image(), frames[f]):
                raise SystemExit(
                    f"reference refused: serial frame {f} of {scene} (seed 0) differs "
                    "from a fresh full render"
                )
    return [frame_digest(fr) for fr in frames]


def reference_digests(root: Path, scene: str, seed: int, n_frames: int, width: int,
                      height: int, env: dict) -> list[str]:
    """Committed digests for seed 0, else the cache, else render them once."""
    key = f"{scene}/{n_frames}x{width}x{height}"
    if seed == 0 and COMMITTED.is_file():
        committed = json.loads(COMMITTED.read_text())
        if key in committed:
            return committed[key]
    cache = root / CACHE_DIR / f"{scene}_s{seed}_{n_frames}x{width}x{height}.json"
    if not cache.is_file():
        cache.parent.mkdir(parents=True, exist_ok=True)
        cmd = [sys.executable, str(HERE / "oracle.py"), "--scene", scene, "--seed", str(seed),
               "--frames", str(n_frames), "--width", str(width), "--height", str(height),
               "--out", str(cache)]
        subprocess.run(cmd, env=env, check=True, timeout=120)
    return json.loads(cache.read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scene", required=True, choices=("newton", "orbit"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--frames", type=int, required=True)
    ap.add_argument("--width", type=int, required=True)
    ap.add_argument("--height", type=int, required=True)
    ap.add_argument("--out", required=True)
    a = ap.parse_args(argv)
    digests = render_reference(a.scene, a.seed, a.frames, a.width, a.height)
    out = Path(a.out)
    tmp = out.with_suffix(".tmp")
    tmp.write_text(json.dumps(digests))
    os.replace(tmp, out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
