"""RunLedger: fold the live event stream into farm state.

The ledger is an ordinary telemetry sink — it rides in the same
``sinks=`` list as the in-memory and JSONL sinks, so attaching it costs
one extra ``emit`` fan-out per record.  It folds the unified stream
(master bookkeeping + absorbed worker events) into the state a farm
operator wants to watch: who has joined, what is in flight where, how
stale each heartbeat is, attempt outcomes, throughput and an ETA.

Concurrency model: the emitting thread (the master's event loop) mutates
the fold under a small mutex; :meth:`snapshot` builds a plain-dict copy
under the same mutex and caches it, atomically swapping the reference.
The HTTP status thread calls :meth:`snapshot` too, but between rebuilds
it serves the cached immutable dict — readers never see a half-updated
fold, and the emit path never blocks on a slow reader (JSON encoding
happens outside the lock, in the server thread).
"""

from __future__ import annotations

import threading
import time

__all__ = ["RunLedger"]

#: Rebuild the cached snapshot at most this often (seconds).
_SNAPSHOT_TTL = 0.25


class RunLedger:
    """Live farm state folded from the telemetry stream (a sink)."""

    def __init__(self, clock=None):
        self._lock = threading.Lock()
        self._clock = clock if clock is not None else time.time
        self._t_start: float | None = None  # wall clock at first record
        self._meta: dict = {}
        self._done = False
        self._wall_time: float | None = None
        self._workers: dict[str, dict] = {}
        self._in_flight: dict[int, dict] = {}  # seq -> assignment info
        self._frames_done: set[int] = set()
        self._tasks_done = 0
        self._tasks_failed = 0
        # Attempt outcomes arrive on two channels describing the same
        # dispatches: live obs.flight spans (traced transports) and the
        # run-end task.attempt summary.  Fold them separately and prefer
        # the live channel, so traced runs don't double-count.
        self._attempts_flight: dict[str, int] = {}
        self._attempts_sup: dict[str, int] = {}
        self._losses: list[dict] = []
        self._tiles_done = 0
        self._tile_bytes = 0
        self._frames_salvaged = 0
        self._n_events = 0
        self._snapshot: dict | None = None
        self._snapshot_t = 0.0

    # -- sink protocol -------------------------------------------------------
    def emit(self, record: dict) -> None:
        name = record.get("name")
        handler = self._HANDLERS.get(name)
        with self._lock:
            if self._t_start is None:
                self._t_start = self._clock()
            self._n_events += 1
            if handler is not None:
                handler(self, record.get("attrs") or {}, record)

    def close(self) -> None:
        with self._lock:
            self._done = True

    # -- fold handlers (called under the lock) -------------------------------
    def _worker(self, name: str) -> dict:
        return self._workers.setdefault(
            str(name),
            {
                "worker": str(name),
                "host": "",
                "cores": 0,
                "score": 0.0,
                "n_done": 0,
                "busy": 0.0,
                "rtt": None,
                "offset": 0.0,
                "health": "ok",  # ok | straggler | lost (health.* + loss events)
                "last_heartbeat": None,  # wall-clock time of last sign of life
            },
        )

    def _on_run_start(self, attrs, record) -> None:
        self._meta = {
            "run": record.get("run", ""),
            "engine": attrs.get("engine", ""),
            "workload": attrs.get("workload", ""),
            "mode": attrs.get("mode", ""),
            "n_frames": int(attrs.get("n_frames", 0)),
            "n_workers": int(attrs.get("n_workers", 0)),
        }

    def _on_run_end(self, attrs, record) -> None:
        self._done = True
        self._wall_time = float(attrs.get("wall_time", 0.0))

    def _on_join(self, attrs, record) -> None:
        w = self._worker(attrs.get("worker", "?"))
        w["host"] = str(attrs.get("host", ""))
        w["cores"] = int(attrs.get("cores", 0))
        w["score"] = float(attrs.get("score", 0.0))
        w["health"] = "ok"  # a (re)join clears lost/straggler state
        w["last_heartbeat"] = self._clock()

    def _on_assign(self, attrs, record) -> None:
        seq = int(attrs.get("seq", -1))
        self._in_flight[seq] = {
            "worker": str(attrs.get("worker", "?")),
            "seq": seq,
            "frame0": int(attrs.get("frame0", 0)),
            "frame1": int(attrs.get("frame1", 0)),
            "since": self._clock(),
        }
        self._worker(attrs.get("worker", "?"))["last_heartbeat"] = self._clock()

    def _on_pong(self, attrs, record) -> None:
        w = self._worker(attrs.get("worker", "?"))
        w["rtt"] = float(attrs.get("rtt", 0.0))
        w["last_heartbeat"] = self._clock()

    def _on_clock(self, attrs, record) -> None:
        w = self._worker(attrs.get("worker", "?"))
        w["offset"] = float(attrs.get("offset", 0.0))
        w["rtt"] = float(attrs.get("rtt", 0.0))

    def _on_result(self, attrs, record) -> None:
        self._in_flight.pop(int(attrs.get("seq", -1)), None)
        self._worker(attrs.get("worker", "?"))["last_heartbeat"] = self._clock()

    def _on_flight(self, attrs, record) -> None:
        outcome = str(attrs.get("outcome", "ok"))
        self._attempts_flight[outcome] = self._attempts_flight.get(outcome, 0) + 1
        self._in_flight.pop(int(attrs.get("seq", -1)), None)
        if outcome == "ok":
            self._tasks_done += 1
            self._worker(attrs.get("worker", "?"))["n_done"] += 1
        else:
            self._tasks_failed += 1

    def _on_task_attempt(self, attrs, record) -> None:
        outcome = str(attrs.get("outcome", "ok"))
        self._attempts_sup[outcome] = self._attempts_sup.get(outcome, 0) + 1

    def _on_task_span(self, attrs, record) -> None:
        if record.get("type") != "span":
            return
        w = self._worker(attrs.get("worker", "?"))
        w["busy"] += float(record.get("dur", 0.0))

    def _on_frame(self, attrs, record) -> None:
        self._frames_done.add(int(attrs.get("frame", -1)))

    def _on_lost(self, attrs, record) -> None:
        self._losses.append(
            {
                "worker": str(attrs.get("worker", "?")),
                "reason": str(attrs.get("reason", "?")),
                "blackbox": str(attrs.get("blackbox", "") or ""),
            }
        )
        self._worker(attrs.get("worker", "?"))["health"] = "lost"
        seq = attrs.get("seq")
        if seq is not None and int(seq) >= 0:
            self._in_flight.pop(int(seq), None)

    def _on_straggler(self, attrs, record) -> None:
        self._worker(attrs.get("worker", "?"))["health"] = "straggler"

    def _on_recovered(self, attrs, record) -> None:
        w = self._worker(attrs.get("worker", "?"))
        if w["health"] == "straggler":
            w["health"] = "ok"

    def _on_tile(self, attrs, record) -> None:
        self._tiles_done += 1
        self._tile_bytes += int(attrs.get("nbytes", 0))
        self._worker(attrs.get("worker", "?"))["last_heartbeat"] = self._clock()

    def _on_salvage(self, attrs, record) -> None:
        self._frames_salvaged += int(attrs.get("frame_done", 0)) - int(
            attrs.get("frame0", 0)
        )

    _HANDLERS = {
        "run.start": _on_run_start,
        "run.end": _on_run_end,
        "net.worker.join": _on_join,
        "net.assign": _on_assign,
        "net.pong": _on_pong,
        "net.result": _on_result,
        "net.worker.lost": _on_lost,
        "health.straggler": _on_straggler,
        "health.recovered": _on_recovered,
        "obs.clock": _on_clock,
        "obs.flight": _on_flight,
        "task.attempt": _on_task_attempt,
        "task": _on_task_span,
        "frame": _on_frame,
        "dfb.tile": _on_tile,
        "dfb.salvage": _on_salvage,
    }

    # -- read side -------------------------------------------------------------
    def snapshot(self) -> dict:
        """A JSON-able copy of the current farm state (cached ~250 ms)."""
        now = self._clock()
        snap = self._snapshot
        if snap is not None and now - self._snapshot_t < _SNAPSHOT_TTL and not self._done:
            return snap
        with self._lock:
            snap = self._build_snapshot(now)
        self._snapshot = snap
        self._snapshot_t = now
        return snap

    def _build_snapshot(self, now: float) -> dict:
        elapsed = (now - self._t_start) if self._t_start is not None else 0.0
        if self._done and self._wall_time is not None:
            elapsed = self._wall_time
        n_frames = int(self._meta.get("n_frames", 0))
        frames_done = len(self._frames_done)
        rate = (self._tasks_done / elapsed) if elapsed > 0 else 0.0
        eta = None
        if not self._done and frames_done > 0 and elapsed > 0 and n_frames > frames_done:
            eta = (n_frames - frames_done) * (elapsed / frames_done)
        workers = []
        for w in sorted(self._workers.values(), key=lambda w: w["worker"]):
            hb = w["last_heartbeat"]
            workers.append(
                {
                    "worker": w["worker"],
                    "host": w["host"],
                    "cores": w["cores"],
                    "score": w["score"],
                    "n_done": w["n_done"],
                    "busy": round(w["busy"], 6),
                    "rtt": w["rtt"],
                    "offset": w["offset"],
                    "health": w["health"],
                    "heartbeat_age": (round(now - hb, 3) if hb is not None else None),
                }
            )
        return {
            **self._meta,
            "done": self._done,
            "elapsed": round(elapsed, 3),
            "n_events": self._n_events,
            "frames_done": frames_done,
            "tasks_done": self._tasks_done,
            "tasks_failed": self._tasks_failed,
            "tasks_per_sec": round(rate, 3),
            "eta_seconds": (round(eta, 1) if eta is not None else None),
            "attempts": dict(self._attempts_flight or self._attempts_sup),
            "losses": list(self._losses),
            "tiles_done": self._tiles_done,
            "tile_bytes": self._tile_bytes,
            "frames_salvaged": self._frames_salvaged,
            "workers": workers,
            "in_flight": [
                {**a, "age": round(now - a.pop("since"), 3)}
                for a in (dict(v) for v in self._in_flight.values())
            ],
        }
