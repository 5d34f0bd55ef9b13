"""The rendering strategies of Table 1, as simulated PVM programs.

Each ``simulate_*`` function builds the pure scheduling policy for its
Table-1 column (:mod:`repro.sched.core`) and replays it over the
discrete-event :class:`~repro.cluster.VirtualPVM` via
:class:`~repro.sched.sim.SimTransport`, pricing every assignment with
the animation's measured costs (from the
:class:`~repro.parallel.oracle.AnimationCostOracle`) and returning a
:class:`~repro.parallel.outcome.SimulationOutcome`.

Strategies:

* :func:`simulate_single_processor` — Table 1 columns (1)/(2);
* :func:`simulate_frame_division_nofc` — columns (4)/(5): 80x80 blocks of
  each frame, demand-driven, no coherence;
* :func:`simulate_sequence_division_fc` — columns (6)/(7): contiguous
  subsequences with coherence, adaptively subdivided;
* :func:`simulate_frame_division_fc` — columns (8)/(9): 80x80 subareas for
  the whole sequence with per-block coherence, demand-driven + adaptive;
* :func:`simulate_sequence_division_nofc`, :func:`simulate_hybrid_fc` —
  ablations;
* :func:`simulate_frame_division_fc_fault_tolerant`,
  :func:`simulate_sequence_division_fc_fault_tolerant` — beyond the
  paper: the two coherence schemes under machine crashes.  Same policy
  as their siblings, run with a worker deadline
  (:func:`default_worker_timeout`): a worker silent past it is presumed
  dead and its chain restarts fresh on a live worker.

The master always runs on the first (fastest) machine and performs no
compute, only scheduling and file output; a worker runs on *every* machine,
including the master's — matching the paper's three-machine testbed.
The same policy objects drive the real multiprocessing farm through
:class:`~repro.sched.process.ProcessTransport`, which is what makes a
simulated schedule directly comparable to an executed one.
"""

from __future__ import annotations

from ..cluster import Machine, ThrashModel
from ..sched.core import SchedulingPolicy, make_policy, single_processor_policy
from ..sched.sim import SimTransport
from .config import RenderFarmConfig
from .oracle import AnimationCostOracle
from .outcome import SimulationOutcome
from .partition import PixelRegion, default_block_layout, sequence_ranges

__all__ = [
    "simulate_single_processor",
    "simulate_frame_division_nofc",
    "simulate_sequence_division_nofc",
    "simulate_sequence_division_fc",
    "simulate_frame_division_fc",
    "simulate_hybrid_fc",
    "simulate_frame_division_fc_fault_tolerant",
    "simulate_sequence_division_fc_fault_tolerant",
    "default_blocks",
    "default_worker_timeout",
]


def default_blocks(oracle: AnimationCostOracle) -> list[PixelRegion]:
    """The paper's 80x80-of-320x240 block layout, scaled to the oracle's
    resolution: a 4x3 grid of equal blocks."""
    return default_block_layout(oracle.width, oracle.height)


def effective_speed_weights(
    machines: list[Machine], cfg: RenderFarmConfig, oracle: AnimationCostOracle,
    thrash: ThrashModel | None,
) -> list[float]:
    """Raw speed divided by the expected thrash factor of a full-frame
    coherence chain — the paper's "matching the computation of a
    subproblem to the most appropriate processor" on a heterogeneous NOW."""
    th = thrash if thrash is not None else ThrashModel(alpha=0.0)
    ws = cfg.fc_working_set_mb(oracle.n_pixels)
    return [m.speed / th.slowdown(ws, m.memory_mb) for m in machines]


def default_worker_timeout(
    oracle: AnimationCostOracle,
    machines: list[Machine],
    cfg: RenderFarmConfig,
    sec_per_work_unit: float,
    thrash: ThrashModel | None,
    regions: list[PixelRegion] | None = None,
) -> float:
    """A deadline safely above the slowest legitimate task.

    Worst case: a fresh chain start of the most expensive block (or the
    whole frame when ``regions`` is None — sequence division) on the
    slowest (and most memory-pressured) machine, tripled for scheduling
    slack.  The real farm's supervisor (:mod:`repro.runtime.supervisor`)
    applies the same factor to observed task durations.
    """
    th = thrash if thrash is not None else ThrashModel(alpha=0.0)
    region_list = [(None, oracle.n_pixels)] if regions is None else [
        (r.pixels, r.n_pixels) for r in regions
    ]
    worst_units = 0.0
    for pixels, n_pixels in region_list:
        for f in range(oracle.n_frames):
            rays = oracle.full_rays(f, pixels)
            units = cfg.task_units(rays, True, chain_start=True, region_pixels=n_pixels)
            worst_units = max(worst_units, units)
    worst_ws = cfg.fc_working_set_mb(max(n for _p, n in region_list))
    worst_rate = min(m.speed / th.slowdown(worst_ws, m.memory_mb) for m in machines)
    return 3.0 * worst_units * sec_per_work_unit / worst_rate + 1.0


# -- Table 1 columns (1) and (2): single processor ------------------------------
def simulate_single_processor(
    oracle: AnimationCostOracle,
    machine: Machine,
    cfg: RenderFarmConfig | None = None,
    use_coherence: bool = False,
    sec_per_work_unit: float = 1e-4,
    thrash: ThrashModel | None = None,
    telemetry=None,
) -> SimulationOutcome:
    """One renderer process computing and writing every frame in order."""
    cfg = cfg or RenderFarmConfig()
    name = "single+fc" if use_coherence else "single"
    policy = single_processor_policy(oracle.n_frames, use_coherence=use_coherence)
    transport = SimTransport(
        policy,
        oracle,
        [machine],
        cfg,
        label=name,
        sec_per_work_unit=sec_per_work_unit,
        thrash=thrash,
        telemetry=telemetry,
        single=True,
    )
    return transport.run()


# -- Table 1 columns (4)/(5): distributed, no coherence -------------------------
def simulate_frame_division_nofc(
    oracle: AnimationCostOracle,
    machines: list[Machine],
    cfg: RenderFarmConfig | None = None,
    regions: list[PixelRegion] | None = None,
    sec_per_work_unit: float = 1e-4,
    thrash: ThrashModel | None = None,
    trace: bool = False,
    telemetry=None,
    **ethernet_kwargs,
) -> SimulationOutcome:
    """Each frame subdivided into blocks "distributed to the machines as
    they request them" — pure demand-driven, every task full cost."""
    cfg = cfg or RenderFarmConfig()
    regions = regions if regions is not None else default_blocks(oracle)
    policy = make_policy("frame-division-nofc", oracle.n_frames, n_regions=len(regions))
    transport = SimTransport(
        policy,
        oracle,
        machines,
        cfg,
        regions=regions,
        label="frame-division",
        sec_per_work_unit=sec_per_work_unit,
        thrash=thrash,
        trace=trace,
        telemetry=telemetry,
        **ethernet_kwargs,
    )
    return transport.run()


# -- Table 1 columns (6)/(7): sequence division + coherence ----------------------
def simulate_sequence_division_fc(
    oracle: AnimationCostOracle,
    machines: list[Machine],
    cfg: RenderFarmConfig | None = None,
    sec_per_work_unit: float = 1e-4,
    thrash: ThrashModel | None = None,
    trace: bool = False,
    telemetry=None,
    **ethernet_kwargs,
) -> SimulationOutcome:
    """Whole-frame subsequences per processor, coherence inside each,
    adaptively subdivided to keep all processors busy.

    Initial ranges are weighted by *effective* speed — raw speed divided by
    the expected thrash factor of a full-frame coherence chain — the paper's
    "matching the computation of a subproblem to the most appropriate
    processor" on a heterogeneous NOW.
    """
    cfg = cfg or RenderFarmConfig()
    transport = SimTransport(
        _sequence_fc_policy(oracle, machines, cfg, thrash),
        oracle,
        machines,
        cfg,
        label="sequence-division+fc",
        sec_per_work_unit=sec_per_work_unit,
        thrash=thrash,
        trace=trace,
        telemetry=telemetry,
        **ethernet_kwargs,
    )
    return transport.run()


def _sequence_fc_policy(
    oracle: AnimationCostOracle, machines: list[Machine], cfg: RenderFarmConfig,
    thrash: ThrashModel | None,
) -> SchedulingPolicy:
    """Sequence division's chains: one range per machine, weighted by
    effective speed; shared by the plain and fault-tolerant variants."""
    weights = effective_speed_weights(machines, cfg, oracle, thrash)
    ranges = sequence_ranges(oracle.n_frames, len(machines), weights=weights)
    return make_policy(
        "sequence-division-fc",
        oracle.n_frames,
        sequence_ranges=ranges,
        min_steal_frames=cfg.min_steal_frames,
    )


def simulate_sequence_division_nofc(
    oracle: AnimationCostOracle,
    machines: list[Machine],
    cfg: RenderFarmConfig | None = None,
    sec_per_work_unit: float = 1e-4,
    thrash: ThrashModel | None = None,
    trace: bool = False,
    telemetry=None,
    **ethernet_kwargs,
) -> SimulationOutcome:
    """Ablation: subsequence assignment without coherence."""
    cfg = cfg or RenderFarmConfig()
    ranges = sequence_ranges(
        oracle.n_frames, len(machines), weights=[m.speed for m in machines]
    )
    policy = make_policy(
        "sequence-division-nofc",
        oracle.n_frames,
        sequence_ranges=ranges,
        min_steal_frames=cfg.min_steal_frames,
    )
    transport = SimTransport(
        policy,
        oracle,
        machines,
        cfg,
        label="sequence-division",
        sec_per_work_unit=sec_per_work_unit,
        thrash=thrash,
        trace=trace,
        telemetry=telemetry,
        **ethernet_kwargs,
    )
    return transport.run()


# -- Table 1 columns (8)/(9): frame division + coherence -------------------------
def simulate_frame_division_fc(
    oracle: AnimationCostOracle,
    machines: list[Machine],
    cfg: RenderFarmConfig | None = None,
    regions: list[PixelRegion] | None = None,
    sec_per_work_unit: float = 1e-4,
    thrash: ThrashModel | None = None,
    trace: bool = False,
    telemetry=None,
    **ethernet_kwargs,
) -> SimulationOutcome:
    """80x80 subareas computed "for the entire 45 frames, or until the
    sequence was adaptively subdivided": per-block coherence chains,
    demand-driven block assignment, time-axis stealing for stragglers."""
    cfg = cfg or RenderFarmConfig()
    regions = regions if regions is not None else default_blocks(oracle)
    policy = make_policy(
        "frame-division-fc",
        oracle.n_frames,
        n_regions=len(regions),
        min_steal_frames=cfg.min_steal_frames,
    )
    transport = SimTransport(
        policy,
        oracle,
        machines,
        cfg,
        regions=regions,
        label="frame-division+fc",
        sec_per_work_unit=sec_per_work_unit,
        thrash=thrash,
        trace=trace,
        telemetry=telemetry,
        **ethernet_kwargs,
    )
    return transport.run()


# -- ablation: hybrid (subarea x subsequence) -----------------------------------
def simulate_hybrid_fc(
    oracle: AnimationCostOracle,
    machines: list[Machine],
    cfg: RenderFarmConfig | None = None,
    regions: list[PixelRegion] | None = None,
    frames_per_chunk: int = 10,
    sec_per_work_unit: float = 1e-4,
    thrash: ThrashModel | None = None,
    trace: bool = False,
    telemetry=None,
    **ethernet_kwargs,
) -> SimulationOutcome:
    """The paper's hybrid: "each processor computes pixels in a subarea of a
    frame for a subsequence of the entire animation"."""
    cfg = cfg or RenderFarmConfig()
    regions = regions if regions is not None else default_blocks(oracle)
    policy = make_policy(
        "hybrid-fc",
        oracle.n_frames,
        n_regions=len(regions),
        frames_per_chunk=frames_per_chunk,
        min_steal_frames=cfg.min_steal_frames,
    )
    transport = SimTransport(
        policy,
        oracle,
        machines,
        cfg,
        regions=regions,
        label="hybrid+fc",
        sec_per_work_unit=sec_per_work_unit,
        thrash=thrash,
        trace=trace,
        telemetry=telemetry,
        **ethernet_kwargs,
    )
    return transport.run()


# -- beyond the paper: the coherence schemes under machine crashes --------------
def simulate_frame_division_fc_fault_tolerant(
    oracle: AnimationCostOracle,
    machines: list[Machine],
    cfg: RenderFarmConfig | None = None,
    regions: list[PixelRegion] | None = None,
    sec_per_work_unit: float = 1e-4,
    thrash: ThrashModel | None = None,
    failures: list[tuple[str, float]] | None = None,
    worker_timeout: float | None = None,
    trace: bool = False,
    telemetry=None,
    **ethernet_kwargs,
) -> SimulationOutcome:
    """Frame division + FC with deadline-based failure recovery.

    ``failures`` is a list of ``(machine_name, virtual_time)`` crashes to
    inject.  Every (block, frame) still completes exactly once while a
    worker survives; the returned outcome's ``n_steals`` counts adaptive
    events of both kinds (deadline recoveries and tail steals) and every
    fresh chain restart shows up in ``n_chain_starts`` and the ray total.
    Without failures the run equals :func:`simulate_frame_division_fc`.
    """
    cfg = cfg or RenderFarmConfig()
    regions = regions if regions is not None else default_blocks(oracle)
    if worker_timeout is None:
        worker_timeout = default_worker_timeout(
            oracle, machines, cfg, sec_per_work_unit, thrash, regions
        )
    policy = make_policy(
        "frame-division-fc",
        oracle.n_frames,
        n_regions=len(regions),
        min_steal_frames=cfg.min_steal_frames,
    )
    transport = SimTransport(
        policy,
        oracle,
        machines,
        cfg,
        regions=regions,
        label="frame-division+fc+ft",
        sec_per_work_unit=sec_per_work_unit,
        thrash=thrash,
        trace=trace,
        telemetry=telemetry,
        worker_timeout=worker_timeout,
        failures=failures,
        **ethernet_kwargs,
    )
    return transport.run()


def simulate_sequence_division_fc_fault_tolerant(
    oracle: AnimationCostOracle,
    machines: list[Machine],
    cfg: RenderFarmConfig | None = None,
    sec_per_work_unit: float = 1e-4,
    thrash: ThrashModel | None = None,
    failures: list[tuple[str, float]] | None = None,
    worker_timeout: float | None = None,
    trace: bool = False,
    telemetry=None,
    **ethernet_kwargs,
) -> SimulationOutcome:
    """Sequence division + FC with the same deadline-based recovery.

    Initial subsequences are weighted by effective machine speed exactly
    like :func:`simulate_sequence_division_fc`; a machine death orphans
    its whole-frame chain, which restarts fresh (full-frame cost for one
    frame) on the next live worker.
    """
    cfg = cfg or RenderFarmConfig()
    if worker_timeout is None:
        worker_timeout = default_worker_timeout(
            oracle, machines, cfg, sec_per_work_unit, thrash
        )
    transport = SimTransport(
        _sequence_fc_policy(oracle, machines, cfg, thrash),
        oracle,
        machines,
        cfg,
        label="sequence-division+fc+ft",
        sec_per_work_unit=sec_per_work_unit,
        thrash=thrash,
        trace=trace,
        telemetry=telemetry,
        worker_timeout=worker_timeout,
        failures=failures,
        **ethernet_kwargs,
    )
    return transport.run()
