"""The measured client: a closed loop of ``repro.api.render`` calls.

One client sends one render at a time and the next only when the previous
one has returned, until ``--seconds`` have passed.  Each render is timed
from the call until every frame is materialized; CPU is the client's own
plus that of every worker it reaped (``getrusage``).  With ``--trace 1``
untraced and traced renders alternate, so the tracing overhead is measured
against renders from the same process.

``run.py`` starts this in a fresh interpreter with the thread pins in its
environment and reads the JSON it writes to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
MIN_RENDERS = 2
REAP_TIMEOUT_S = 30.0


def _cpu(who) -> float:
    r = resource.getrusage(who)
    return r.ru_utime + r.ru_stime


def _reap_children() -> None:
    """Wait for every worker the render forked, so its CPU is accounted."""
    deadline = time.monotonic() + REAP_TIMEOUT_S
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.01)


class Client:
    def __init__(self, workload, spec, work: Path):
        self.workload = workload
        self.spec = spec
        self.work = work
        self.n = 0

    def render_once(self, traced: bool) -> dict:
        import numpy as np

        from repro.api import render
        from repro.buffers import default_pool

        import spans
        from layers import layer_metrics
        from oracle import frame_digest

        idx = self.n
        self.n += 1
        kwargs = dict(self.workload.request)
        if self.workload.spools:
            kwargs["run_dir"] = self.work / f"run_{idx}"
        first: list[float] = []

        def on_frame(_event):
            if not first:
                first.append(time.perf_counter())

        rec = undo = trace_dir = None
        saved_env = {}
        if traced:
            trace_dir = self.work / f"trace_{idx}"
            trace_dir.mkdir()
            rec = spans.Recorder("client", trace_dir)
            undo = spans.install(rec)
            for k, v in (("PERFBENCH_TRACE_DIR", str(trace_dir)),
                         ("PYTHONPATH", os.pathsep.join(
                             p for p in (str(HERE / "hook"), os.environ.get("PYTHONPATH"))
                             if p))):
                saved_env[k] = os.environ.get(k)
                os.environ[k] = v
            pool0 = default_pool().stats()

        cpu0 = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN)
        error = None
        frames = None
        t_call = time.perf_counter()
        try:
            result = render(workload=self.spec, on_frame=on_frame, telemetry=traced, **kwargs)
            frames = np.asarray(result.frames)
        except Exception as exc:  # a failed render is a failed operation, not a crash
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t_call
        if traced:
            spans.uninstall(rec, undo)
            for k, v in saved_env.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v
        _reap_children()
        cpu = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN) - cpu0

        n_frames = int(self.spec.kwargs["n_frames"])
        shape = (n_frames, int(self.spec.kwargs["height"]), int(self.spec.kwargs["width"]), 3)
        well_formed = (
            error is None and frames is not None and frames.shape == shape
            and frames.dtype == np.float64
        )
        out = {
            "traced": traced,
            "wall_s": wall,
            "first_frame_s": (first[0] - t_call) if first else wall,
            "cpu_s": cpu,
            "n_frames": n_frames,
            "digests": [frame_digest(f) for f in frames] if well_formed else [],
            "well_formed": well_formed,
            "error": error,
        }
        if traced and error is None:
            pool1 = default_pool().stats()
            dumps = [rec.payload()] + spans.load_dumps(trace_dir)
            out["layers"] = layer_metrics(
                dumps, result.events, result, wall, t_call,
                {k: pool1[k] - pool0[k] for k in ("n_acquired", "n_hits")},
            )
            out["tree"] = spans.check_tree(dumps)
            out["roles"] = sorted({d["role"] for d in dumps})
        if self.workload.spools:
            shutil.rmtree(kwargs["run_dir"], ignore_errors=True)
        if trace_dir is not None:
            shutil.rmtree(trace_dir, ignore_errors=True)
        return out


def warm_up(workload, seed: int) -> None:
    """One tiny render of the same workload: lazy imports and first-use
    set-up happen here, once per process, outside the timed loop."""
    from repro.api import render

    from workloads import spec_for

    spec = spec_for(workload.scene, seed, 2, 48, 36)
    kwargs = dict(workload.request)
    if workload.spools:
        kwargs["run_dir"] = None
    render(workload=spec, **kwargs)
    _reap_children()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="closed-loop render client (see run.py)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--frames", type=int, required=True)
    ap.add_argument("--width", type=int, required=True)
    ap.add_argument("--height", type=int, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--out", required=True)
    a = ap.parse_args(argv)

    from workloads import WORKLOADS, spec_for

    workload = WORKLOADS[a.workload]
    spec = spec_for(workload.scene, a.seed, a.frames, a.width, a.height)
    warm_up(workload, a.seed)
    client = Client(workload, spec, Path(a.work))
    renders = []
    t0 = time.perf_counter()
    while len(renders) < MIN_RENDERS or time.perf_counter() - t0 < a.seconds:
        renders.append(client.render_once(traced=bool(a.trace) and len(renders) % 2 == 1))

    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    report = {
        "renders": renders,
        "master_rss_mb": self_rss,
        # One-process workloads render in the client itself.
        "worker_rss_mb": child_rss if workload.request["engine"] == "farm" else self_rss,
    }
    Path(a.out).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
