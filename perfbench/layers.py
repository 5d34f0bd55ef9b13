"""Per-layer metrics of one traced render.

Inputs are the spans every process recorded (see :mod:`spans`), the
render's own telemetry events (``task``, ``obs.flight``, ``task.attempt``,
``worker``) for the layers that have no public boundary inside a worker,
and the :class:`~repro.api.RenderResult`.  Layer names are ``repro``
module names; the ``per_layer`` list in ``BENCHMARK.json`` names every
key returned except ``render.rays_reported``, which only feeds the
ray-count cross-check (``trace.overhead_frac`` is added by ``run.py``).
"""

from __future__ import annotations

import statistics


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[int(q * 100) - 1]


def queue_waits(events: list[dict]) -> list[float]:
    """Seconds each accepted dispatch spent outside its worker's task span.

    Dynamic schedules give every dispatch an ``obs.flight`` span that
    parents the worker's ``task`` span; static task lists only have the
    supervisor's ``task.attempt`` (submit to harvest), whose task span id
    is ``t<task>a<attempt>:...``.
    """
    tasks = [e for e in events if e.get("type") == "span" and e.get("name") == "task"]
    flights = [e for e in events if e.get("type") == "span" and e.get("name") == "obs.flight"]
    if flights:
        by_parent = {t.get("parent"): float(t["dur"]) for t in tasks}
        return [
            float(f["dur"]) - by_parent[f.get("span")]
            for f in flights
            if f.get("span") in by_parent
        ]
    by_id = {str(t.get("span")).split(":")[0]: float(t["dur"]) for t in tasks}
    waits = []
    for e in events:
        if e.get("type") == "event" and e.get("name") == "task.attempt":
            a = e.get("attrs") or {}
            key = f"t{a.get('task')}a{a.get('attempt')}"
            if a.get("outcome") == "ok" and key in by_id:
                waits.append(float(a["duration"]) - by_id[key])
    return waits


def layer_metrics(dumps: list[dict], events: list[dict], result, wall: float,
                  t_call: float, pool_delta: dict) -> dict:
    from spans import self_times

    spans = []  # (role, span, self time)
    for d in dumps:
        selfs = self_times(d["spans"])
        spans.extend((d["role"], s, selfs[s[0]]) for s in d["spans"])

    def of(name, role=None):
        return [(s, st) for r, s, st in spans if s[2] == name and (role is None or r == role)]

    def dur(name, role=None):
        return sum(s[4] - s[3] for s, _ in of(name, role))

    def count(name, key, role=None):
        return sum((s[5] or {}).get(key, 0) for s, _ in of(name, role))

    n_frames = max(1, int(result.n_frames))
    m = {}

    calls = len(of("render.trace_pixels"))
    rays = count("render.trace_pixels", "rays")
    busy = dur("render.trace_pixels")
    m["render.calls"] = calls
    m["render.pixels_per_call"] = count("render.trace_pixels", "px") / calls if calls else 0.0
    m["render.rays"] = rays
    m["render.rays_reported"] = int(result.stats.total)  # the program's own count
    m["render.rays_unreported"] = rays - m["render.rays_reported"]
    m["render.busy_s"] = busy
    m["render.rays_per_s"] = rays / busy if busy > 0 else 0.0

    m["accel.calls"] = len(of("accel.traverse"))
    m["accel.voxel_visits"] = count("accel.traverse", "visits")
    m["accel.busy_s"] = dur("accel.traverse")

    computed = count("coherence.render_next", "computed")
    copied = count("coherence.render_next", "copied")
    m["coherence.pixels_computed"] = computed
    m["coherence.pixels_copied"] = copied
    m["coherence.reuse_ratio"] = copied / (computed + copied) if computed + copied else 0.0
    m["coherence.map_entries"] = count("coherence.render_next", "map_entries") / n_frames
    m["coherence.change_detect_s"] = (
        dur("coherence.changed_voxels") + dur("coherence.pixels_for_voxels")
    )
    m["coherence.map_update_s"] = dur("coherence.map_update")
    m["coherence.self_s"] = sum(st for s, st in of("coherence.render_next"))

    waits = queue_waits(events)
    m["sched.assignments"] = sum(
        1 for e in events if e.get("type") == "event" and e.get("name") == "task.attempt"
    )
    m["sched.policy_s"] = sum(
        st for r, s, st in spans if s[2] in ("sched.next_assignment", "sched.on_result")
    )
    m["sched.queue_wait_p50_s"] = _quantile(waits, 0.50)
    m["sched.queue_wait_p90_s"] = _quantile(waits, 0.90)

    workers = [e.get("attrs") or {} for e in events
               if e.get("type") == "event" and e.get("name") == "worker"]
    lanes = max(1, len(workers))
    worker_busy = sum(float(w.get("busy", 0.0)) for w in workers)
    m["runtime.tasks"] = int(result.n_tasks)
    m["runtime.retries"] = int(result.recovery.get("retries", 0))
    m["runtime.worker_busy_frac"] = worker_busy / (lanes * wall) if wall > 0 else 0.0
    m["runtime.worker_idle_s"] = max(0.0, lanes * wall - worker_busy)
    m["runtime.spool_files"] = len(of("runtime.spool"))
    m["runtime.spool_bytes"] = count("runtime.spool", "bytes")
    m["runtime.spool_s"] = dur("runtime.spool")

    acquired = pool_delta.get("n_acquired", 0)
    m["buffers.bytes_copied"] = sum(int(d.get("bytes_copied", 0)) for d in dumps)
    m["buffers.pool_hit_ratio"] = pool_delta.get("n_hits", 0) / acquired if acquired else 0.0

    encodes = of("net.encode")
    m["net.messages"] = len(encodes)
    m["net.bytes_in"] = count("net.feed", "bytes", role="client")
    m["net.bytes_out"] = count("net.encode", "bytes", role="client")
    m["net.max_msg_bytes"] = max(((s[5] or {}).get("bytes", 0) for s, _ in encodes), default=0)
    m["net.encode_s"] = dur("net.encode")
    m["net.decode_s"] = dur("net.decode")

    tiles = of("dfb.add_tile")
    m["dfb.tiles"] = len(tiles)
    m["dfb.composite_s"] = (
        dur("dfb.add_tile") + dur("dfb.add_segment") + dur("dfb.take_frames")
    )
    m["dfb.first_tile_s"] = min((s[3] for s, _ in tiles), default=t_call) - t_call
    return m
