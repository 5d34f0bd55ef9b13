"""In-memory span recorder and the layer boundaries the traced run times.

Tracing lives entirely in the benchmark: :func:`install` swaps each
boundary below for a wrapper that records a span (name, start, end, the
enclosing span) plus a few counts, and :func:`uninstall` puts the
originals back.  Nothing under ``src/`` changes.

One :class:`Recorder` runs in every process that hosts a layer:

* the client, which installs it around one traced ``render`` call;
* forked pool workers, which inherit the patched classes and a copy of the
  recorder; ``multiprocessing``'s after-fork hook empties the copy and
  arms a dump at worker exit;
* spawned TCP worker daemons, where ``hook/sitecustomize.py`` installs a
  fresh recorder at interpreter start-up and dumps it at exit.

Spans stay in memory and are written once, as ``spans_<pid>.json`` in the
traced render's own directory, when the process (or, in the client, the
traced render) ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from pathlib import Path

# name, owner ("module" or "module:Class"), attribute, counts(result, args)
BOUNDARIES = [
    ("render.trace_pixels", "repro.render.raytracer:RayTracer", "trace_pixels",
     lambda out, a: {"px": int(out.pixel_ids.size), "rays": int(out.stats.total)}),
    # The tracer calls the DDA through its own module global.
    ("accel.traverse", "repro.render.raytracer", "traverse",
     lambda out, a: {"visits": int(out[0].size)}),
    ("coherence.render_next", "repro.coherence.engine:CoherentRenderer", "render_next",
     lambda out, a: {"computed": out.n_computed, "copied": out.n_copied,
                     "map_entries": out.map_entries}),
    ("coherence.changed_voxels", "repro.coherence.engine", "changed_voxels", None),
    ("coherence.pixels_for_voxels", "repro.coherence.voxel_pixel_map:VoxelPixelMap",
     "pixels_for_voxels", None),
    ("coherence.map_update", "repro.coherence.voxel_pixel_map:VoxelPixelMap",
     "replace_pixel_marks", None),
    ("runtime.spool", "repro.runtime.local", "_save_task_result",
     lambda out, a: {"bytes": Path(a[0]).stat().st_size}),
    ("net.encode", "repro.net.protocol", "encode_parts",
     lambda out, a: {"bytes": sum(p.nbytes if isinstance(p, memoryview) else len(p)
                                  for p in out)}),
    ("net.decode", "repro.net.protocol", "decode",
     lambda out, a: {"bytes": memoryview(a[0]).nbytes}),
    ("net.feed", "repro.net.protocol:FrameAssembler", "feed",
     lambda out, a: {"bytes": len(a[1]) if a[1] else 0}),
    ("dfb.add_tile", "repro.dfb:FrameAssembler", "add_tile", None),
    ("dfb.add_segment", "repro.dfb:FrameAssembler", "add_segment", None),
    ("dfb.take_frames", "repro.dfb:FrameAssembler", "take_frames", None),
]

# Policy hooks are patched on every policy class that defines its own.
POLICY_METHODS = {
    "next_assignment": lambda out, a: {"assigned": int(out is not None)},
    "on_result": None,
}


class Recorder:
    """Spans and counts of one process.

    A span is ``[id, parent, name, t0, t1, counts]``; ``parent`` is the
    innermost span open on the same thread when it started (``None`` at a
    root).  Times are ``time.perf_counter()``, the system-wide monotonic
    clock, so spans from different processes share one time axis.
    """

    def __init__(self, role: str, out_dir: str | os.PathLike):
        self.role = role
        self.out_dir = str(out_dir)
        self.active = True
        self._reset()

    def _reset(self) -> None:
        from repro.buffers import copystats

        self.pid = os.getpid()
        self.spans: list = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._copies0 = copystats.total()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, name: str, fn, counts=None):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = rec._stack()
            sid = next(rec._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = time.perf_counter()
            out = None
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                t1 = time.perf_counter()
                stack.pop()
                c = counts(out, args) if (ok and counts is not None) else None
                rec.spans.append([sid, parent, name, t0, t1, c])

        return wrapper

    def after_fork(self) -> None:
        """Forked pool worker: drop the parent's spans, dump at exit."""
        if not self.active:
            return
        import multiprocessing.util as mpu

        self.role = "pool"
        self._reset()
        mpu.Finalize(self, self.dump, exitpriority=10)

    def payload(self) -> dict:
        from repro.buffers import copystats

        return {
            "role": self.role,
            "pid": self.pid,
            "bytes_copied": copystats.total() - self._copies0,
            "spans": self.spans,
        }

    def dump(self) -> None:
        path = Path(self.out_dir) / f"spans_{self.pid}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.payload()))
        os.replace(tmp, path)


def _owner(spec: str):
    import importlib

    mod_name, _, cls_name = spec.partition(":")
    mod = importlib.import_module(mod_name)
    return getattr(mod, cls_name) if cls_name else mod


def _policy_classes():
    from repro.sched.core import SchedulingPolicy

    seen, todo = [], [SchedulingPolicy]
    while todo:
        cls = todo.pop()
        seen.append(cls)
        todo.extend(cls.__subclasses__())
    return seen


def install(rec: Recorder) -> list:
    """Wrap every boundary; returns the undo list for :func:`uninstall`."""
    import multiprocessing.util as mpu

    undo = []
    for name, owner_spec, attr, counts in BOUNDARIES:
        owner = _owner(owner_spec)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, rec.timed(name, original, counts))
        undo.append((owner, attr, original))
    for cls in _policy_classes():
        for attr, counts in POLICY_METHODS.items():
            if attr in cls.__dict__:
                original = cls.__dict__[attr]
                setattr(cls, attr, rec.timed(f"sched.{attr}", original, counts))
                undo.append((cls, attr, original))
    mpu.register_after_fork(rec, Recorder.after_fork)
    return undo


def uninstall(rec: Recorder, undo: list) -> None:
    rec.active = False
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def load_dumps(out_dir) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted(Path(out_dir).glob("spans_*.json"))]


# -- span-tree arithmetic --------------------------------------------------------
def self_times(spans: list) -> dict:
    """Span id -> duration minus the part of it its children cover.

    A span's children ran one after another on its thread, inside it, so
    their durations add up to the part they cover; a negative self time
    therefore means broken nesting.
    """
    out = {s[0]: s[4] - s[3] for s in spans}
    for _sid, parent, _name, t0, t1, _c in spans:
        if parent in out:
            out[parent] -= t1 - t0
    return out


def check_tree(dumps: list[dict]) -> dict:
    """Orphan spans (parent not recorded in the same process) and spans with
    negative self time, counted over every process's dump."""
    orphans = negative = 0
    for d in dumps:
        ids = {s[0] for s in d["spans"]}
        orphans += sum(1 for s in d["spans"] if s[1] is not None and s[1] not in ids)
        negative += sum(1 for v in self_times(d["spans"]).values() if v < 0.0)
    return {"orphans": orphans, "negative_self": negative}
