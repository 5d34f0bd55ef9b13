"""Self-test of the benchmark itself, at a tiny size (3 frames at 48x36).

Run from the root of a checkout::

    python3 perfbench/selftest.py

It checks that

* ``BENCHMARK.json`` lists the workloads defined in ``workloads.py``;
* every workload's run prints the result line with every end-to-end
  metric (``--trace 0``) or every per-layer metric (``--trace 1``) of
  ``BENCHMARK.json``, each with its unit;
* the frame oracle flags a frame with one ulp flipped, and a missing one;
* the span-tree check flags an orphan span and a child that overruns its
  parent, and a traced render's span tree, in every process that recorded
  spans, has no orphan span and no negative self time.

Three frames, not two: at two frames the orbit camera's second position
equals its first up to rounding, and building that reference fails (see
README.md, known defects).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
TINY = ("--frames", "3", "--width", "48", "--height", "36")
EXPECTED_ROLES = {
    "serial-newton": ["client"],
    "framediv-newton": ["client", "pool"],
    "tcp-orbit": ["client", "worker"],
}

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def check_workloads(workloads) -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in bench["workloads"]] == list(workloads),
          "BENCHMARK.json workloads match workloads.py")


def check_run_output(run, name: str, env: dict) -> None:
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "0",
               "--seconds", "0.5", "--trace", str(trace), *TINY]
        p = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=300)
        if p.returncode != 0:
            check(False, f"{name} --trace {trace} exits 0: {p.stderr[-500:]}")
            continue
        result = json.loads(p.stdout.strip().splitlines()[-1])
        check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
              f"{name} --trace {trace} result keys")
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        check(got == run.metric_units(kind),
              f"{name} --trace {trace} prints every {kind} metric with its unit")
        check(result["correct"] and result["attempted"] >= 3,
              f"{name} --trace {trace} renders well-formed frames")


def check_oracle() -> None:
    import numpy as np

    from repro.api import render

    from oracle import frame_digest, mismatches
    from workloads import spec_for

    frames = np.array(render(workload=spec_for("newton", 0, 3, 48, 36), engine="animation")
                      .frames)
    reference = [frame_digest(f) for f in frames]
    check(mismatches(reference, reference) == [], "oracle passes identical frames")
    flipped = frames.copy()
    flipped[1, 10, 20, 0] = np.nextafter(flipped[1, 10, 20, 0], np.inf)
    check(mismatches(reference, [frame_digest(f) for f in flipped]) == [1],
          "oracle flags a frame with one ulp flipped")
    check(mismatches(reference, reference[:2]) == [2], "oracle flags a missing frame")


def check_tree_checker() -> None:
    from spans import check_tree

    good = [[1, None, "a", 0.0, 1.0, None], [2, 1, "b", 0.1, 0.4, None],
            [3, 1, "b", 0.5, 0.9, None]]
    orphan = good + [[4, 9, "c", 0.2, 0.3, None]]
    overlap = good + [[5, 1, "c", 0.2, 0.6, None]]
    check(check_tree([{"spans": good}]) == {"orphans": 0, "negative_self": 0},
          "span-tree check passes a well-nested tree")
    check(check_tree([{"spans": orphan}])["orphans"] == 1, "span-tree check flags an orphan")
    check(check_tree([{"spans": overlap}])["negative_self"] == 1,
          "span-tree check flags children that overrun their parent")


def check_span_tree(name: str) -> None:
    import run
    from client import Client, warm_up
    from workloads import WORKLOADS, spec_for

    workload = WORKLOADS[name]
    warm_up(workload, 0)
    work_root = ROOT / run.WORK_DIR
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as work:
        out = Client(workload, spec_for(workload.scene, 0, 3, 48, 36), Path(work)) \
            .render_once(traced=True)
    check(out["error"] is None, f"{name} traced render succeeds")
    check(out.get("roles") == EXPECTED_ROLES[name],
          f"{name} spans recorded in {EXPECTED_ROLES[name]} (got {out.get('roles')})")
    check(out.get("tree") == {"orphans": 0, "negative_self": 0},
          f"{name} span tree has no orphans and no negative self time ({out.get('tree')})")
    check(out["layers"]["render.rays"] > 0, f"{name} traced rays counted")


def main() -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("selftest: run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import run

    env = run.pinned_env(ROOT)
    os.environ.update(run.THREAD_PINS)

    from workloads import WORKLOADS

    check_workloads(WORKLOADS)
    check_oracle()
    check_tree_checker()
    for name in WORKLOADS:
        check_run_output(run, name, env)
        check_span_tree(name)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
