"""Real parallel rendering on the local machine.

The cluster simulator (:mod:`repro.cluster`) answers "what would this have
cost on the 1998 testbed"; this module actually *runs* the master/worker
decomposition with live processes, demonstrating the protocol end-to-end
and providing the ground truth that partitioned rendering assembles the
same images as a single renderer.

Both of the paper's schemes cut the animation into ``(region,
frame-range)`` units that one master hands out:

* ``frame`` mode — frame division: the image is tiled into blocks; each
  unit is one block rendered coherently across every frame.
* ``sequence`` mode — sequence division: each unit is a contiguous frame
  range of whole frames, one per worker.
* ``hybrid`` mode — the paper's "each processor computes pixels in a
  subarea of a frame for a subsequence of the entire animation": one unit
  per (block, frame-chunk) pair.

No unit spans a camera cut (:func:`~repro.scene.split_coherent_sequences`),
and the list is frame-major, so early frames complete early.

Executors: ``process`` (fork-based multiprocessing; the real thing),
``thread`` (shared-memory; numpy releases the GIL enough to help), and
``serial`` (deterministic in-process reference).

Scheduling: every run drives a pure scheduling policy
(:mod:`repro.sched`, the same state machines the cluster simulator
replays) through one transport — the supervised pool
(:class:`~repro.sched.process.ProcessTransport`) or the loopback network
farm (:class:`~repro.net.master.TcpTransport`) — and every worker runs
:func:`_render_segment_task`.  The default ``schedule="static"`` hands
out the unit list ``mode`` fixes before the run starts; ``"demand"``
hands out block x frame-chunk units; ``"adaptive"`` runs sequence chains
with tail-stealing plus a worker-side renderer-continuation cache so a
chain's coherence survives across its segment tasks on the thread/serial
executors and TCP daemons.

Dispatch is **supervised**: tasks carry per-task deadlines, crashed or
hung workers are detected and their tasks re-queued with capped retries,
corrupted outputs are rejected by a shape/finiteness check before
assembly, and (on the pool) a task that keeps failing degrades to
in-process serial execution instead of aborting the render.  Passing
``run_dir`` to :meth:`LocalRenderFarm.render` (static or demand schedule,
either transport) spools each completed unit to disk as it arrives; a later
``render(resume=run_dir)`` drops the finished units from the list before
the policy is built — checkpoint/resume at the unit granularity,
complementing the intra-chain granularity of
:mod:`repro.coherence.checkpoint`.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from ..coherence import CoherentRenderer, grid_for_animation
from ..geometry import RayKind
from ..obs.trace import TraceContext, flight_span_id, new_run_id, worker_session
from ..parallel.partition import PixelRegion, default_block_layout, sequence_ranges
from ..render import RayStats
from ..scene import split_coherent_sequences
from ..telemetry import NULL as NULL_TELEMETRY
from ..buffers import (
    FrameRef,
    SharedFrameStore,
    activate_worker_store,
    release_refs,
    worker_store,
)
from ..telemetry import Telemetry
from ..telemetry.profiling import profile_into
from .faults import FaultPlan
from .spec import AnimationSpec
from .supervisor import SupervisorOutcome, TaskAttempt, task_context

__all__ = ["LocalRenderFarm", "FarmResult"]

#: TaskAttempt outcomes that represent a recovery action taken by the
#: supervisor (surfaced as ``recovery`` telemetry events).
_RECOVERY_OUTCOMES = {"timeout", "crash", "error", "invalid", "abandoned", "degraded-ok"}

# Per-process cache keyed by spec: workers build each animation once, and
# concurrent farms with *different* specs (the thread executor shares this
# module's globals) can no longer evict or corrupt each other's entry
# mid-render the way a single global (spec, anim) pair could.
_WORKER_CACHE: dict[tuple, object] = {}
_WORKER_CACHE_LOCK = threading.Lock()
_WORKER_CACHE_MAX = 4


def _spec_key(spec: AnimationSpec) -> tuple:
    return (spec.factory, repr(sorted(spec.kwargs.items())))


def _worker_init(spec: AnimationSpec, shm_token: str | None = None) -> None:
    _get_anim(spec)
    # A token means the master runs a process pool and wants frames in
    # shared memory; thread/serial executors pass None (same process —
    # pickling never happens, so plain arrays are already zero-copy).
    activate_worker_store(shm_token)


def _frames_alloc(shape) -> tuple:
    """One task's output framebuffer: ``(handle, writable array)``.

    With an armed worker store the array is a shared-memory segment the
    renderer fills in place and ``handle`` is the picklable
    :class:`~repro.buffers.FrameRef` that rides home in the result tuple
    — the pixels themselves never cross the fork boundary.  Otherwise
    both are one plain ndarray.
    """
    store = worker_store()
    if store is None:
        frames = np.empty(shape, dtype=np.float64)
        return frames, frames
    return store.create(shape, np.float64)


def _seal_frames(handle) -> None:
    """Drop the worker's own mapping of a shm-backed result (the master
    re-attaches from the FrameRef; keeping ours open just holds pages).
    The caller must have dropped its own view of the frames first, or the
    mapping survives until GC collects the view."""
    if isinstance(handle, FrameRef):
        handle.close_local()


def _get_anim(spec: AnimationSpec):
    key = _spec_key(spec)
    with _WORKER_CACHE_LOCK:
        anim = _WORKER_CACHE.get(key)
    if anim is not None:
        return anim
    anim = spec.build()  # built outside the lock; a racing duplicate is benign
    with _WORKER_CACHE_LOCK:
        anim = _WORKER_CACHE.setdefault(key, anim)
        while len(_WORKER_CACHE) > _WORKER_CACHE_MAX:
            oldest = next(k for k in _WORKER_CACHE if k != key)
            del _WORKER_CACHE[oldest]
    return anim


def _worker_label() -> str:
    """Stable-within-a-run worker identity: process id (process executor)
    plus thread id (distinguishes the thread executor's workers)."""
    return f"{os.getpid()}.{threading.get_ident() % 100000}"


def _ctx_worker(ctx) -> str:
    """The worker identity a task span should report: the scheduling lane
    the dispatcher stamped into the trace context (stable, shared with
    the master's flight spans), falling back to the local pid/thread
    label on an untraced run."""
    if isinstance(ctx, dict) and ctx.get("worker"):
        return str(ctx["worker"])
    return _worker_label()


def _worker_telemetry(ctx):
    """(telemetry, sink) for one task; disabled tasks share NULL.

    ``ctx`` is the envelope's telemetry slot: a trace-context dict (run
    id, parent span, namespace seed — see :mod:`repro.obs.trace`), the
    legacy ``True`` (telemetry on, untraced), or falsy (off).  The local
    task index and attempt counter disambiguate the span namespace when
    the supervised pool retries a task with identical args.
    """
    idx, attempt = task_context()
    return worker_session(ctx, attempt=attempt, index=idx)


def _worker_profile_path(profile_dir) -> str | None:
    if not profile_dir:
        return None
    idx, attempt = task_context()
    return str(Path(profile_dir) / f"task_{idx:04d}_a{attempt}_{os.getpid()}.prof")


def _finish_worker_events(tel: Telemetry, sink) -> str:
    """Flush and serialize a worker task's event buffer for transport (the
    master re-emits it into the run's sinks via ``Telemetry.absorb``)."""
    if sink is None:
        return ""
    tel.close()
    return tel.serialize_events(sink.events)


# Renderer-continuation cache: an adaptive chain's segments arrive as
# separate tasks, and on the thread/serial executors (shared memory) and
# TCP daemons the renderer that just finished frame f-1 is
# parked here so the task rendering frame f continues it coherently
# instead of starting fresh.  Keyed by (animation, region, quality) plus
# the frame the renderer is positioned at; pop-on-acquire, so a failed
# attempt leaves no stale entry behind and its retry falls back to a
# fresh full render.  Entries orphaned by steals age out via the cap.
_SEGMENT_CACHE: dict[tuple, CoherentRenderer] = {}
_SEGMENT_CACHE_LOCK = threading.Lock()
_SEGMENT_CACHE_MAX = 16


def _segment_cache_key(spec, box, grid_resolution, samples, frame) -> tuple:
    return (_spec_key(spec), box, int(grid_resolution), int(samples), int(frame))


def _render_segment_task(args, emit_tile=None):
    """The farm's one worker task: render frames ``[f0, f1)`` of one region.

    ``fresh`` marks a chain start (full render of ``f0``); a non-fresh
    segment tries to continue the renderer parked at ``f0`` by the chain's
    previous segment, rendering fresh when the cache misses (different
    process, evicted, or the previous attempt failed).

    ``emit_tile`` switches on the distributed framebuffer: each finished
    frame's region pixels are handed to ``emit_tile(frame, x0, y0, image)``
    as they complete (the TCP worker's tile sink streams them to the
    master) and the returned result carries ``frames=None`` — the pixels
    never ride in the RESULT payload.
    """
    spec, box, f0, f1, fresh, label, grid_resolution, samples, tel_ctx, profile_dir = args
    anim = _get_anim(spec)
    cam = anim.camera_at(0)
    region = None if box is None else PixelRegion(*box, width=cam.width).pixels
    n_px = int(cam.n_pixels if region is None else region.size)
    tel, sink = _worker_telemetry(tel_ctx)
    _idx, attempt = task_context()
    renderer = None
    if not fresh:
        with _SEGMENT_CACHE_LOCK:
            renderer = _SEGMENT_CACHE.pop(
                _segment_cache_key(spec, box, grid_resolution, samples, f0), None
            )
    with profile_into(_worker_profile_path(profile_dir)):
        with tel.span(
            "task",
            worker=_ctx_worker(tel_ctx),
            mode=label,
            frame0=int(f0),
            frame1=int(f1),
            region=n_px,
            rays=0,
            n_computed=0,
            attempt=attempt,
        ) as sp:
            if renderer is None:
                renderer = CoherentRenderer(
                    anim,
                    region=region,
                    grid_resolution=grid_resolution,
                    samples_per_axis=samples,
                    first_frame=f0,
                    last_frame=anim.n_frames,
                    telemetry=tel,
                )
            else:
                renderer.telemetry = tel
            n_new = f1 - f0
            if emit_tile is not None:
                # Streaming: pixels leave through the sink frame by frame;
                # the result ships no framebuffer at all.
                out_frames = frames = None
                for i in range(n_new):
                    renderer.render_next()
                    if region is None:
                        emit_tile(f0 + i, 0, 0, renderer.frame_image())
                    else:
                        x0, y0, x1, y1 = box
                        emit_tile(
                            f0 + i, x0, y0,
                            renderer.framebuffer.gather(region)
                            .reshape(y1 - y0, x1 - x0, 3),
                        )
            elif region is None:
                out_frames, frames = _frames_alloc((n_new, cam.height, cam.width, 3))
                for i in range(n_new):
                    renderer.render_next()
                    frames[i] = renderer.frame_image()
            else:
                out_frames, frames = _frames_alloc((n_new, region.size, 3))
                for i in range(n_new):
                    renderer.render_next()
                    frames[i] = renderer.framebuffer.gather(region)
            reports = renderer.reports[-n_new:]
            stats = RayStats.merge(r.stats for r in reports)
            sp.attrs["rays"] = stats.total
            sp.attrs["n_computed"] = sum(r.n_computed for r in reports)
    # Park the renderer for a continuation only if one is possible: a
    # renderer positioned at a camera cut could never render frame f1.
    if f1 < anim.n_frames and not CoherentRenderer.camera_moved(
        anim.camera_at(f1 - 1), anim.camera_at(f1)
    ):
        with _SEGMENT_CACHE_LOCK:
            _SEGMENT_CACHE[_segment_cache_key(spec, box, grid_resolution, samples, f1)] = renderer
            while len(_SEGMENT_CACHE) > _SEGMENT_CACHE_MAX:
                del _SEGMENT_CACHE[next(iter(_SEGMENT_CACHE))]
    frames = None
    _seal_frames(out_frames)
    return box, f0, f1, out_frames, stats.counts, _finish_worker_events(tel, sink)


_MANIFEST_NAME = "manifest.json"
# Format 3 spools every unit as the segment result tuple
# ``(box, frame0, frame1, frames, counts, events)``; the manifest check
# refuses older spools.
_SPOOL_FORMAT = 3


def _spool_path(run_dir: Path, idx: int) -> Path:
    return run_dir / f"task_{idx:04d}.npz"


def _save_task_result(path: Path, result: tuple) -> None:
    """Spool one task result atomically (write-then-rename), so a render
    killed mid-write never leaves a half-readable checkpoint behind.

    ``None`` fields are left out and load back as ``None``: as an object
    array they would not load at all with pickling off."""
    arrays = {f"f{i}": np.asarray(v) for i, v in enumerate(result) if v is not None}
    tmp = path.with_name(f".{path.name}.tmp.npz")
    np.savez_compressed(tmp, n=len(result), **arrays)
    os.replace(tmp, path)


def _load_task_result(path: Path) -> tuple:
    with np.load(path) as z:
        out = []
        for i in range(int(z["n"])):
            key = f"f{i}"
            a = z[key] if key in z.files else None
            out.append(a.item() if a is not None and a.ndim == 0 else a)
        return tuple(out)


@dataclass
class FarmResult:
    """Assembled output of a local farm run, plus its robustness story."""

    frames: np.ndarray  # (n_frames, H, W, 3) float64
    stats: RayStats
    n_tasks: int
    mode: str
    n_retries: int = 0
    n_timeouts: int = 0
    n_crashes: int = 0
    n_invalid: int = 0
    n_degraded: int = 0
    n_from_checkpoint: int = 0
    # An attempt's task_index is its unit's index in the run's unit list.
    attempts: list[TaskAttempt] = field(default_factory=list)
    # TCP runs expose the master's wire accounting (NetStats): tile
    # counts, first-tile/first-result latency, per-message-type maxima.
    net: object | None = None
    streamed: bool = False

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]


class LocalRenderFarm:
    """Render an animation with real local parallelism.

    Parameters
    ----------
    spec:
        Recipe workers use to rebuild the animation (see AnimationSpec).
    n_workers:
        Degree of parallelism; defaults to the CPU count (capped at 8).
    mode:
        How ``schedule="static"`` cuts the animation into units:
        ``"frame"`` (one whole-run unit per block), ``"sequence"`` (one
        frame range per worker) or ``"hybrid"`` (one unit per block x
        frame chunk).
    executor:
        ``"process"``, ``"thread"`` or ``"serial"``.
    transport:
        ``"process"`` executes on this host through the supervised pool;
        ``"tcp"`` runs a loopback network farm instead — a
        :class:`~repro.net.master.MasterServer` on 127.0.0.1 driving
        ``n_workers`` spawned ``python -m repro.worker`` daemons over
        real sockets.  Every schedule runs on both; each connection is
        one scheduling lane, so chain affinity keeps a daemon's
        continuation cache warm exactly like the thread/serial executors
        do.
    net_die_after:
        TCP fault drill: maps a worker index to the assignment count
        after which that daemon is spawned to hard-crash
        (``--die-after``), exercising ``on_worker_lost`` reassignment.
    net_die_after_frames:
        The mid-task variant: maps a worker index to the frame count
        after which that daemon hard-crashes *inside* an assignment
        (``--die-after-frames``), leaving an open task span for the
        flight-recorder black box to capture.
    blackbox_dir:
        Flight-recorder dump directory for the TCP master and its
        spawned daemons; worker-loss events point at the victim's
        ``blackbox_worker_<pid>.jsonl`` here (DESIGN §17).
    schedule:
        ``"static"`` (the unit list ``mode`` fixes, handed out in order),
        ``"demand"`` (block x frame-chunk units from a shared queue) or
        ``"adaptive"`` (sequence chains with tail-stealing).  All three
        run a :mod:`repro.sched` policy — the same state machines the
        cluster simulator replays — through the transport; no unit spans
        a camera cut.  ``"static"`` and ``"demand"`` spool checkpoints;
        ``"adaptive"`` cannot (its steals re-cut chains mid-run).
    segment_frames:
        Frames per dispatched segment for ``schedule="adaptive"``.
        Default: 1 on the thread/serial executors (segments continue the
        cached renderer, preserving coherence), coarser on the process
        executor (each segment renders fresh; fewer, bigger tasks).
    block_w, block_h:
        Frame-division block size (defaults to a 4x3 tiling like the paper's
        80x80-of-320x240).
    max_attempts:
        Pool attempts per task before degrading to serial execution.
    task_timeout:
        Fixed per-task deadline in seconds; default None adapts the
        deadline to 3x the slowest observed task (plus a margin), the
        simulator's ``default_worker_timeout`` heuristic.
    startup_timeout:
        Deadline before any task has completed (None = wait patiently).
    degrade_serial:
        Run a task in-process after its retries are exhausted instead of
        raising :class:`~repro.runtime.supervisor.SupervisorError`.
    fault_plan:
        A :class:`~repro.runtime.faults.FaultPlan` for deterministic
        crash/hang/raise/corrupt injection (tests and drills), keyed by
        dispatch order — on a fresh static run, the unit index.
    tile_px:
        Distributed-framebuffer tile edge for the TCP transport.  ``None``
        (default) enables tiling at the master's default edge; ``0``
        disables streaming (workers ship whole sub-areas in RESULT, the
        pre-tile wire shape); any other value is the tile edge in pixels.
        Ignored off-TCP (the pool shares memory; there is nothing to
        stream).
    preview:
        A :class:`~repro.dfb.PreviewHub` to attach the run's
        :class:`~repro.dfb.FrameAssembler` to, so a status server can
        serve the partially composited frames while the run is live.
    on_tile, on_frame:
        Progress callbacks.  On a streaming TCP run ``on_tile`` receives
        a :class:`~repro.dfb.TileEvent` per wire tile and ``on_frame`` a
        :class:`~repro.dfb.FrameEvent` as each frame's last tile lands;
        non-streaming paths synthesize one whole-frame tile plus a frame
        event per frame after assembly, so callers observe the same
        contract on every transport.
    """

    def __init__(
        self,
        spec: AnimationSpec,
        n_workers: int | None = None,
        mode: str = "frame",
        executor: str = "process",
        schedule: str = "static",
        transport: str = "process",
        net_die_after: dict[int, int] | None = None,
        net_die_after_frames: dict[int, int] | None = None,
        blackbox_dir: str | Path | None = None,
        segment_frames: int | None = None,
        block_w: int | None = None,
        block_h: int | None = None,
        grid_resolution: int = 24,
        samples_per_axis: int = 1,
        frames_per_chunk: int | None = None,
        max_attempts: int = 3,
        task_timeout: float | None = None,
        timeout_factor: float = 3.0,
        startup_timeout: float | None = None,
        backoff_base: float = 0.05,
        degrade_serial: bool = True,
        fault_plan: FaultPlan | None = None,
        telemetry: Telemetry | None = None,
        profile_dir: str | Path | None = None,
        tile_px: int | None = None,
        preview=None,
        on_tile=None,
        on_frame=None,
    ):
        if mode not in ("frame", "sequence", "hybrid"):
            raise ValueError("mode must be 'frame', 'sequence' or 'hybrid'")
        if executor not in ("process", "thread", "serial"):
            raise ValueError("executor must be 'process', 'thread' or 'serial'")
        if schedule not in ("static", "demand", "adaptive"):
            raise ValueError("schedule must be 'static', 'demand' or 'adaptive'")
        if transport not in ("process", "tcp"):
            raise ValueError("transport must be 'process' or 'tcp'")
        self.spec = spec
        self.mode = mode
        self.executor = executor
        self.schedule = schedule
        self.transport = transport
        self.net_die_after = dict(net_die_after or {})
        self.net_die_after_frames = dict(net_die_after_frames or {})
        self.blackbox_dir = str(blackbox_dir) if blackbox_dir is not None else None
        self.segment_frames = segment_frames
        self.n_workers = min(os.cpu_count() or 2, 8) if n_workers is None else int(n_workers)
        if self.n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.block_w = block_w
        self.block_h = block_h
        self.grid_resolution = grid_resolution
        self.samples_per_axis = samples_per_axis
        self.frames_per_chunk = frames_per_chunk
        self.max_attempts = max_attempts
        self.task_timeout = task_timeout
        self.timeout_factor = timeout_factor
        self.startup_timeout = startup_timeout
        self.backoff_base = backoff_base
        self.degrade_serial = degrade_serial
        self.fault_plan = fault_plan
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.profile_dir = str(profile_dir) if profile_dir is not None else None
        self.tile_px = None if tile_px is None else int(tile_px)
        self.preview = preview
        self.on_tile = on_tile
        self.on_frame = on_frame
        # Build once locally for geometry bookkeeping (cheap).
        self._anim = spec.build()
        self._cam = self._anim.camera_at(0)
        self._regions = default_block_layout(
            self._cam.width, self._cam.height, self.block_w, self.block_h
        )
        # How the run is cut into units: static by mode, demand by block
        # x frame chunk (the hybrid cut), adaptive by sequence ranges
        # (its initial chains).
        self._cut = {"static": mode, "demand": "hybrid", "adaptive": "sequence"}[schedule]
        self._label = mode if schedule == "static" else schedule
        self._run_span = None  # root span id, allocated by _begin_trace()

    # -- units ---------------------------------------------------------------------
    def _units(self) -> list[tuple[int, int, int]]:
        """The run's ``(region_index, frame0, frame1)`` units, fixed before
        it starts; region ``-1`` is the whole frame.

        Every range is intersected with the animation's stationary-camera
        runs, so no unit spans a camera cut, and the list is frame-major
        (every region of one range before the next range), so early
        frames complete early.
        """
        n = self._anim.n_frames
        if self._cut == "sequence":
            regions, ranges = [-1], sequence_ranges(n, self.n_workers)
        else:
            regions = range(len(self._regions))
            chunk = n if self._cut == "frame" else (self.frames_per_chunk or max(1, n // 2))
            ranges = [(a, min(a + chunk, n)) for a in range(0, n, chunk)]
        shots = split_coherent_sequences(self._anim)
        spans = [
            (max(a, s0), min(b, s1))
            for a, b in ranges
            for s0, s1 in shots
            if max(a, s0) < min(b, s1)
        ]
        return [(ri, a, b) for a, b in spans for ri in regions]

    def _box_of(self, region_index: int):
        if region_index < 0:
            return None
        r = self._regions[region_index]
        return (r.x0, r.y0, r.x1, r.y1)

    def _sched_policy(self, units):
        """The policy that hands ``units`` out: a FIFO queue for static and
        demand, chains with tail-stealing for adaptive."""
        from ..sched.core import AdaptiveChainPolicy, Chain, DemandDrivenPolicy

        per_frame = 1 if self._cut == "sequence" else len(self._regions)
        if self.schedule != "adaptive":
            return DemandDrivenPolicy(units, use_coherence=True, units_per_frame=per_frame)
        # A pool process can receive any segment, so continuations there must
        # render fresh; a TCP lane (like a thread/serial worker) is pinned to
        # one daemon, whose continuation cache carries a chain's coherence
        # across segments — so fine 1-frame segments stay cheap.
        n_frames = self._anim.n_frames
        pooled = self.transport == "process" and self.executor == "process"
        if self.segment_frames is not None:
            seg = max(1, int(self.segment_frames))
        elif pooled:
            seg = max(1, -(-n_frames // (4 * self.n_workers)))
        else:
            seg = 1
        return AdaptiveChainPolicy(
            [Chain(ri, a, b, fresh=True) for ri, a, b in units],
            use_coherence=True,
            units_per_frame=per_frame,
            min_steal_frames=max(2, seg + 1),
            segment_frames=seg,
            continuation_fresh=pooled,
        )

    # -- trace identity ----------------------------------------------------------
    def _begin_trace(self) -> float:
        """Stamp the run id, allocate the root ``run`` span, return its t0.

        Every record the run emits — master-side and absorbed worker-side
        alike — carries the run id; worker spans parent (via per-dispatch
        flight spans) under the root span allocated here, so the merged
        stream is one connected trace.
        """
        tel = self.telemetry
        if tel.enabled and not tel.run_id:
            tel.run_id = new_run_id()
        self._run_span = tel.new_span_id() if tel.enabled else None
        return tel.now()

    def _end_trace(self, t_run0: float) -> None:
        tel = self.telemetry
        if tel.enabled:
            tel.emit_span(
                "run", t_run0, tel.now() - t_run0,
                span=self._run_span, parent=None, engine="farm",
            )

    # -- output validity ----------------------------------------------------------
    def _make_sched_validator(self, assembler=None):
        """Shape/finiteness check applied before a segment result is
        accepted (or a spooled checkpoint trusted): a corrupted block must
        never reach assembly."""
        height, width = self._cam.height, self._cam.width
        n_kinds = len(RayKind)

        def validate(task, result) -> bool:
            if not isinstance(result, tuple) or len(result) != 6:
                return False
            box, f0, f1, frames, counts, events = result
            c = np.asarray(counts)
            counts_ok = c.shape == (n_kinds,) and c.dtype.kind in "iu"
            if frames is None:
                # Streaming result: the pixels traveled tile-by-tile ahead
                # of this RESULT on the same ordered connection, so accept
                # it only if the assembler really holds the whole range.
                return (
                    assembler is not None
                    and counts_ok
                    and isinstance(events, str)
                    and assembler.range_complete(box, int(f0), int(f1))
                )
            n_new = int(f1) - int(f0)
            if box is None:
                expected = (n_new, height, width, 3)
            else:
                x0, y0, x1, y1 = box
                expected = (n_new, (int(x1) - int(x0)) * (int(y1) - int(y0)), 3)
            frames = np.asarray(frames)
            return (
                frames.shape == expected
                and bool(np.isfinite(frames).all())
                and counts_ok
                and isinstance(events, str)
            )

        return validate

    # -- progress callbacks --------------------------------------------------------
    def _fire_synthetic_events(self, frames) -> None:
        """Honor the streaming callback contract for frames that did not
        stream — ``(index, image)`` pairs, in frame order: one whole-frame
        tile plus a frame event per frame."""
        if self.on_tile is None and self.on_frame is None:
            return
        from ..dfb import FrameEvent, TileEvent

        h, w = self._cam.height, self._cam.width
        for f, image in frames:
            if self.on_tile is not None:
                self.on_tile(TileEvent(
                    frame=f, x0=0, y0=0, x1=w, y1=h,
                    pixels=image, frame_complete=True,
                ))
            if self.on_frame is not None:
                self.on_frame(FrameEvent(f, image))

    # -- checkpoint spool ----------------------------------------------------------
    def _manifest(self, n_tasks: int) -> dict:
        return {
            "format": _SPOOL_FORMAT,
            "factory": self.spec.factory,
            "kwargs": repr(sorted(self.spec.kwargs.items())),
            "mode": self.mode,
            "n_frames": int(self._anim.n_frames),
            "width": int(self._cam.width),
            "height": int(self._cam.height),
            "grid_resolution": int(self.grid_resolution),
            "samples_per_axis": int(self.samples_per_axis),
            "n_tasks": int(n_tasks),
        }

    def _open_spool(self, run_path: Path, units: list, validate) -> dict[int, tuple]:
        """Write the run directory's manifest, or check it and recover the
        units a previous (interrupted) run finished.

        Unreadable or invalid spool files count as unfinished — the unit
        simply re-renders, so a truncated write costs one unit, never the
        run."""
        run_path.mkdir(parents=True, exist_ok=True)
        manifest = self._manifest(len(units))
        manifest_path = run_path / _MANIFEST_NAME
        if not manifest_path.exists():
            tmp = manifest_path.with_suffix(".json.tmp")
            tmp.write_text(json.dumps(manifest, indent=1, sort_keys=True))
            os.replace(tmp, manifest_path)
            return {}
        if json.loads(manifest_path.read_text()) != manifest:
            raise ValueError(
                f"run directory {run_path} belongs to a different render "
                "(manifest mismatch); refusing to mix checkpoints"
            )
        spooled: dict[int, tuple] = {}
        for idx, (ri, f0, f1) in enumerate(units):
            path = _spool_path(run_path, idx)
            if not path.exists():
                continue
            try:
                _box, r0, r1, *rest = _load_task_result(path)
                result = (self._box_of(ri), int(r0), int(r1), *rest)
            except Exception:
                continue
            if result[1:3] == (f0, f1) and validate(None, result):
                spooled[idx] = result
        return spooled

    # -- entry point -------------------------------------------------------------
    def render(
        self, run_dir: str | Path | None = None, resume: str | Path | None = None
    ) -> FarmResult:
        """Render all frames; assemble and return them with merged stats.

        ``run_dir`` spools each completed unit to that directory;
        ``resume`` points at such a directory and skips the units it
        already holds (implies spooling new completions there too).
        Spooling needs a fixed unit list (``schedule="static"`` or
        ``"demand"``) and works on both transports.
        """
        if resume is not None:
            if run_dir is not None and Path(run_dir) != Path(resume):
                raise ValueError("pass either run_dir or resume, not two different dirs")
            run_dir = resume
        if run_dir is not None and self.schedule == "adaptive":
            raise ValueError(
                "checkpoint spooling (run_dir/resume) needs a fixed unit list; "
                "schedule='adaptive' re-cuts chains as it steals"
            )
        run_path = Path(run_dir) if run_dir is not None else None

        anim, cam, tel = self._anim, self._cam, self.telemetry
        units = self._units()
        # Distributed framebuffer: tiling is a TCP concern (the pool
        # shares memory); tile_px=0 opts a TCP run out explicitly.
        assembler = None
        if self.transport == "tcp" and self.tile_px != 0:
            from ..dfb import FrameAssembler

            assembler = FrameAssembler(anim.n_frames, cam.width, cam.height)
        validate = self._make_sched_validator(assembler)
        if self.profile_dir:
            Path(self.profile_dir).mkdir(parents=True, exist_ok=True)

        t_run0 = self._begin_trace()
        tel.event(
            "run.start",
            engine="farm",
            workload=self.spec.factory,
            n_frames=int(anim.n_frames),
            width=int(cam.width),
            height=int(cam.height),
            n_workers=self.n_workers,
            mode=self._label,
        )

        spooled = self._open_spool(run_path, units, validate) if run_path else {}
        for idx in sorted(spooled):
            tel.event("checkpoint", task=idx, action="loaded")
        if assembler is not None and spooled:
            for box, f0, f1, seg_frames, *_ in spooled.values():
                assembler.add_segment(box, f0, f1, seg_frames)
            # Frames the spool alone completes will never stream a tile.
            self._fire_synthetic_events(
                (f, assembler.frame_image(f)) for f in range(anim.n_frames)
                if assembler.range_complete(None, f, f + 1)
            )
        # Every frame of every unit -> that unit's index: an assignment
        # narrowed by salvage or cut by a steal still counts toward it.
        owner = {(ri, f): i for i, (ri, f0, f1) in enumerate(units) for f in range(f0, f1)}

        on_result = None
        if run_path is not None:

            def on_result(a, result) -> None:
                idx = owner[(a.region_index, a.frame0)]
                ri, f0, f1 = units[idx]
                if result[3] is None or (a.frame0, a.frame1) != (f0, f1):
                    # Streamed, or the tail of a unit salvaged from a lost
                    # worker: the whole unit is read back from the compositor.
                    box = self._box_of(ri)
                    if not assembler.range_complete(box, f0, f1):
                        return
                    seg = assembler.segment(box, f0, f1)
                    if box is not None:
                        seg = seg.reshape(f1 - f0, -1, 3)
                    result = (box, f0, f1, seg, *result[4:])
                _save_task_result(_spool_path(run_path, idx), result)
                tel.event("checkpoint", task=idx, action="saved")

        todo = [u for i, u in enumerate(units) if i not in spooled]
        if todo:
            if self.preview is not None and assembler is not None:
                self.preview.attach(
                    assembler, workload=self.spec.factory, n_workers=int(self.n_workers)
                )
            try:
                out = self._transport(
                    self._sched_policy(todo), assembler, validate, on_result
                ).run()
            finally:
                if self.preview is not None and assembler is not None:
                    self.preview.detach()
        else:
            from ..sched.process import SchedOutcome

            out = SchedOutcome(results=[], assignments=[], supervisor=SupervisorOutcome([]))

        results = [*spooled.values(), *out.results]
        if assembler is not None:
            # Every result — streamed tiles and whole sub-areas from
            # non-tiling workers alike — was folded into the compositor
            # as it arrived; taking the frames hands the per-frame
            # composite buffers back to the pool.
            frames = assembler.take_frames()
        else:
            frames = np.zeros(
                (anim.n_frames, cam.height, cam.width, 3), dtype=np.float64
            )
            flat = frames.reshape(anim.n_frames, cam.n_pixels, 3)
            for box, f0, f1, seg_frames, _counts, _ev in results:
                f0, f1 = int(f0), int(f1)
                if box is None:
                    frames[f0:f1] = seg_frames
                else:
                    region = PixelRegion(*box, width=cam.width).pixels
                    flat[f0:f1][:, region, :] = seg_frames
            release_refs(out.results)
            self._fire_synthetic_events(enumerate(frames))
        stats = RayStats.merge(res[-2] for res in results)

        sup = out.supervisor
        unit_of_seq = {a.seq: owner[(a.region_index, a.frame0)] for a in out.assignments}
        attempts = [replace(t, task_index=unit_of_seq[t.task_index]) for t in sup.attempts]
        n_tasks = len(spooled) + len(out.assignments)
        if tel.enabled:
            # The TCP master already absorbed worker event buffers live
            # (with clock-offset correction); re-emitting them here would
            # duplicate every span in the stream.
            self._emit_run_telemetry(
                results, attempts, sup.wall_time, stats, n_tasks,
                absorb_events=self.transport != "tcp",
            )
        self._end_trace(t_run0)
        return FarmResult(
            frames=frames,
            stats=stats,
            n_tasks=n_tasks,
            mode=self._label,
            n_retries=sup.n_retries,
            n_timeouts=sup.n_timeouts,
            n_crashes=sup.n_crashes,
            n_invalid=sup.n_invalid,
            n_degraded=sup.n_degraded,
            n_from_checkpoint=len(spooled),
            attempts=attempts,
            net=out.net,
            streamed=assembler is not None,
        )

    def _transport(self, policy, assembler, validate, on_result):
        """The run's transport: the supervised pool, or the loopback TCP
        farm.  Both dispatch ``policy``'s assignments to
        :func:`_render_segment_task` and call ``on_result(assignment,
        result)`` on every accepted result."""
        from ..sched.process import ProcessTransport

        tel = self.telemetry
        spec, grid, samples = self.spec, self.grid_resolution, self.samples_per_axis
        prof, label = self.profile_dir, self._label
        run_id, run_span, enabled = tel.run_id, self._run_span, tel.enabled

        def ctx_of(a, lane):
            # Per-dispatch trace context: the worker's task span parents
            # under this assignment's flight span (id derivable from the
            # dispatch seq on both sides of the wire) and reports the
            # scheduling lane as its worker identity.
            if not enabled:
                return False
            return TraceContext(
                run=run_id, parent=flight_span_id(a.seq), seed=f"s{a.seq}",
                worker=str(lane),
            ).to_arg()

        def box_of(a):
            return self._box_of(a.region_index)

        common = dict(
            n_workers=self.n_workers,
            telemetry=tel,
            trace_root=run_span,
            validate=validate,
            on_result=on_result,
            max_attempts=self.max_attempts,
            task_timeout=self.task_timeout,
            timeout_factor=self.timeout_factor,
            startup_timeout=self.startup_timeout,
        )
        if self.transport == "tcp":
            from ..net.master import TcpTransport
            from ..net.tasks import spec_to_wire

            spec_wire = spec_to_wire(spec)

            def materialize(a, lane):
                return (spec_wire, box_of(a), int(a.frame0), int(a.frame1),
                        bool(a.fresh), label, grid, samples, ctx_of(a, lane), prof)

            master_on_tile = None
            if assembler is not None and (
                self.on_tile is not None or self.on_frame is not None
            ):
                from ..dfb import FrameEvent, TileEvent

                def master_on_tile(worker, frame, tbox, pixels, frame_complete):
                    if self.on_tile is not None:
                        tx0, ty0, tx1, ty1 = tbox
                        self.on_tile(TileEvent(
                            frame=frame, x0=tx0, y0=ty0, x1=tx1, y1=ty1,
                            pixels=pixels, worker=worker,
                            frame_complete=frame_complete,
                        ))
                    if frame_complete and self.on_frame is not None:
                        self.on_frame(
                            FrameEvent(frame, assembler.frame_image(frame))
                        )

            return TcpTransport(
                policy,
                "render_segment",
                materialize,
                die_after=self.net_die_after,
                die_after_frames=self.net_die_after_frames,
                blackbox_dir=self.blackbox_dir,
                assembler=assembler,
                tile_px=self.tile_px,
                tile_box=box_of,
                on_tile=master_on_tile,
                **common,
            )

        def materialize(a, lane):
            return (spec, box_of(a), int(a.frame0), int(a.frame1), bool(a.fresh),
                    label, grid, samples, ctx_of(a, lane), prof)

        # Process pools get a shared-memory frame store: workers render
        # into segments and return FrameRef handles, so no pixels are
        # pickled back across the fork boundary.  The transport sweeps
        # stragglers at run end; render() releases the refs it assembled.
        store = SharedFrameStore() if self.executor == "process" else None
        return ProcessTransport(
            policy,
            _render_segment_task,
            materialize,
            frame_store=store,
            executor=self.executor,
            initializer=_worker_init,
            initargs=(self.spec, store.token if store else None),
            backoff_base=self.backoff_base,
            degrade_serial=self.degrade_serial,
            fault_plan=self.fault_plan,
            **common,
        )

    def _emit_run_telemetry(
        self, results, attempts, wall: float, stats: RayStats, n_tasks: int,
        absorb_events: bool = True,
    ) -> None:
        """Absorb worker event buffers and emit the run-level events
        (task.attempt / recovery timeline, per-worker utilization,
        run.end totals) into the farm's telemetry session.

        ``absorb_events=False`` still folds the buffers into the summary
        stats but skips re-emitting them — the TCP transport absorbs
        each buffer at result time (clock-corrected), so only the
        process/thread paths absorb here."""
        tel = self.telemetry
        worker_busy: dict[str, list] = {}  # worker -> [busy_seconds, n_tasks]
        computed = copied = 0
        for res in results:
            payload = res[-1]
            if not payload:
                continue
            try:
                events = json.loads(payload)
            except (TypeError, ValueError):
                continue
            if absorb_events:
                tel.absorb(events)
            for rec in events:
                name, attrs = rec.get("name"), rec.get("attrs") or {}
                if rec.get("type") == "span" and name == "task":
                    w = str(attrs.get("worker", "?"))
                    busy = worker_busy.setdefault(w, [0.0, 0])
                    busy[0] += float(rec.get("dur", 0.0))
                    busy[1] += 1
                elif rec.get("type") == "event" and name == "frame":
                    computed += int(attrs.get("n_computed", 0))
                    copied += int(attrs.get("n_copied", 0))

        for a in attempts:
            tel.event(
                "task.attempt",
                task=a.task_index,
                attempt=a.attempt,
                outcome=a.outcome,
                duration=a.duration,
                started=a.started,
            )
            tel.histogram("task.duration", a.duration)
            if a.outcome in _RECOVERY_OUTCOMES:
                kind = "degraded" if a.outcome == "degraded-ok" else a.outcome
                # The pool doesn't say which OS worker held the attempt, so
                # the farm can't attribute the loss the way the simulator can.
                tel.event(
                    "recovery",
                    kind=kind,
                    task=a.task_index,
                    attempt=a.attempt,
                    duration=a.duration,
                    worker="?",
                )

        for w in sorted(worker_busy):
            busy, n = worker_busy[w]
            tel.event(
                "worker",
                worker=w,
                busy=busy,
                n_tasks=n,
                utilization=(busy / wall) if wall > 0 else 0.0,
            )
        if self.profile_dir:
            tel.event("profile", path=self.profile_dir)
        tel.event(
            "run.end",
            wall_time=wall,
            computed_pixels=computed,
            copied_pixels=copied,
            n_tasks=n_tasks,
            n_workers=self.n_workers,
            rays_camera=stats.camera,
            rays_reflected=stats.reflected,
            rays_refracted=stats.refracted,
            rays_shadow=stats.shadow,
            rays_total=stats.total,
        )

    def render_reference(self) -> FarmResult:
        """Single-renderer ground truth: one coherent renderer per
        stationary-camera run of the animation."""
        anim = self._anim
        cam = self._cam
        grid = grid_for_animation(anim, self.grid_resolution)
        frames = np.empty((anim.n_frames, cam.height, cam.width, 3), dtype=np.float64)
        reports = []
        for f0, f1 in split_coherent_sequences(anim):
            renderer = CoherentRenderer(
                anim, grid=grid, samples_per_axis=self.samples_per_axis,
                first_frame=f0, last_frame=f1,
            )
            for f in range(f0, f1):
                renderer.render_next()
                frames[f] = renderer.frame_image()
            reports += renderer.reports
        stats = RayStats.merge(r.stats for r in reports)
        return FarmResult(frames=frames, stats=stats, n_tasks=1, mode="reference")
