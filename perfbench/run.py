"""The farm benchmark: one workload, end to end or layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload framediv-newton --seed 0 --seconds 20 --trace 0

Steps, in order:

1. the frame oracle's reference digests for the workload's scene and seed
   (committed for seed 0, else rendered once and cached; never timed);
2. the closed-loop client (``client.py``) in its own process, for
   ``--seconds``, with fresh-interpreter set-up probes just before and just
   after it (``setup_s`` is their median, so it samples the machine at both
   ends of the run);
3. every rendered frame against the oracle, bit for bit.

It prints one line per metric (name, value, unit, spread over the run's
renders) and, last, one JSON object: ``correct`` (every render returned
every frame, well formed), ``attempted`` (frames rendered), ``failed``
(frames missing or not bit-identical to the reference) and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  See ``README.md`` for the workloads and what each metric
should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from oracle import mismatches, reference_digests  # noqa: E402
from workloads import HEIGHT, N_FRAMES, WIDTH, WORKLOADS  # noqa: E402

SETUP_PROBES = 4  # before the client, and as many again after it
WORK_DIR = ".perfbench_run"
CLIENT_GRACE_S = 120.0


THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def pinned_env(root: Path) -> dict:
    """Environment of every process the benchmark starts: one BLAS/OpenMP
    thread each, and the checkout's own ``src`` on the import path."""
    return {**os.environ, **THREAD_PINS, "PYTHONPATH": str(root / "src")}


def metric_units(kind: str) -> dict:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics, in
    ``BENCHMARK.json`` order: that file is the one list of metrics."""
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


def setup_seconds(workload: str, seed: int, size: tuple, env: dict) -> list[float]:
    cmd = [sys.executable, str(HERE / "probe.py"), workload, str(seed), *map(str, size)]
    return [
        float(subprocess.run(cmd, env=env, check=True, capture_output=True, text=True,
                             timeout=60).stdout.strip().splitlines()[-1])
        for _ in range(SETUP_PROBES)
    ]


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"n={len(values)}, q1={q1:.6g}, q3={q3:.6g}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # Smaller sizes are for selftest.py; the benchmark runs the defaults.
    ap.add_argument("--frames", type=int, default=N_FRAMES)
    ap.add_argument("--width", type=int, default=WIDTH)
    ap.add_argument("--height", type=int, default=HEIGHT)
    a = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no src/repro here; run from the root of a checkout",
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_PINS)
    workload = WORKLOADS[a.workload]
    size = (a.frames, a.width, a.height)
    env = pinned_env(root)
    work = root / WORK_DIR / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        reference = reference_digests(root, workload.scene, a.seed, *size, env=env)
        setup = setup_seconds(a.workload, a.seed, size, env) if a.trace == 0 else []
        out = work / "client.json"
        cmd = [sys.executable, str(HERE / "client.py"), "--workload", a.workload,
               "--seed", str(a.seed), "--seconds", str(a.seconds), "--trace", str(a.trace),
               "--frames", str(a.frames), "--width", str(a.width), "--height", str(a.height),
               "--work", str(work), "--out", str(out)]
        subprocess.run(cmd, env=env, check=True, timeout=a.seconds + CLIENT_GRACE_S)
        report = json.loads(out.read_text())
        if a.trace == 0:
            setup += setup_seconds(a.workload, a.seed, size, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    renders = report["renders"]
    attempted = sum(r["n_frames"] for r in renders)
    bad = [mismatches(reference, r["digests"]) for r in renders]
    failed = sum(map(len, bad))
    correct = all(r["well_formed"] for r in renders)
    for r in renders:
        if r["error"]:
            print(f"render failed: {r['error']}")

    import numpy

    print(f"workload={a.workload} seed={a.seed} frames={a.frames} size={a.width}x{a.height} "
          f"nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={numpy.__version__} renders={len(renders)} "
          f"traced={sum(r['traced'] for r in renders)}")
    # Not a gated metric: it is 0 on a correct program, and a bound is a
    # share of the parent's median.  The result line carries it as
    # failed / attempted.
    print(f"frame_error_rate = {failed / attempted:.6g} fraction ({failed} of {attempted} "
          f"frames; bad frames per render: {bad})")

    metrics = {}
    if a.trace == 0:
        timed = [r for r in renders if not r["traced"]]
        samples = {
            "frames_per_s": [r["n_frames"] / r["wall_s"] for r in timed],
            "first_frame_s": [r["first_frame_s"] for r in timed],
            "cpu_s_per_frame": [r["cpu_s"] / r["n_frames"] for r in timed],
            "setup_s": setup,
            "master_rss_mb": [report["master_rss_mb"]],
            "worker_rss_mb": [report["worker_rss_mb"]],
        }
        for key, unit in metric_units("end_to_end").items():
            value = statistics.median(samples[key])
            metrics[key] = {"value": value, "unit": unit}
            print(f"{key} = {value:.6g} {unit} ({spread(samples[key])})")
    else:
        units = metric_units("per_layer")
        traced = [r for r in renders if r["traced"] and "layers" in r]
        plain = [r["wall_s"] for r in renders if not r["traced"]]
        if traced:
            layers = {k: statistics.median(r["layers"][k] for r in traced)
                      for k in traced[0]["layers"]}
            layers["trace.overhead_frac"] = (
                statistics.median(r["wall_s"] for r in traced) / statistics.median(plain) - 1.0
            )
        else:  # every traced render failed, so `correct` is already false
            layers = dict.fromkeys(units, 0.0)
        for key, unit in units.items():
            metrics[key] = {"value": layers[key], "unit": unit}
            print(f"{key} = {layers[key]:.6g} {unit}")
        if traced:
            rep, seen = layers["render.rays_reported"], layers["render.rays"]
            print(f"ray cross-check: RenderResult.stats.total={rep:.0f} traced={seen:.0f} "
                  f"({'match' if rep == seen else 'MISMATCH'})")
            print(f"span tree: {traced[0]['tree']} roles={traced[0]['roles']}")

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
