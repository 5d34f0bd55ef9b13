"""Parallel rendering: partitioning, cost oracle, simulated strategies."""

from .config import RenderFarmConfig
from .oracle import AnimationCostOracle, build_oracle
from .outcome import SimulationOutcome, format_hms, load_imbalance
from .partition import (
    PixelRegion,
    block_regions,
    hybrid_tasks,
    pixel_regions,
    region_grid_shape,
    sequence_ranges,
    strip_regions,
)

# strategies sits on top of repro.sched, which itself builds on this
# package's config/oracle/partition layers; loading it lazily keeps
# `import repro.parallel` (or any repro.sched entry point) from chasing
# that loop back into a partially initialized module.
_LAZY = {
    "default_blocks": "strategies",
    "simulate_frame_division_fc": "strategies",
    "simulate_frame_division_nofc": "strategies",
    "simulate_hybrid_fc": "strategies",
    "simulate_sequence_division_fc": "strategies",
    "simulate_sequence_division_nofc": "strategies",
    "simulate_single_processor": "strategies",
    "default_worker_timeout": "strategies",
    "simulate_frame_division_fc_fault_tolerant": "strategies",
    "simulate_sequence_division_fc_fault_tolerant": "strategies",
}


def __getattr__(name: str):
    modname = _LAZY.get(name)
    if modname is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{modname}", __name__), name)

__all__ = [
    "AnimationCostOracle",
    "PixelRegion",
    "RenderFarmConfig",
    "SimulationOutcome",
    "block_regions",
    "build_oracle",
    "default_blocks",
    "default_worker_timeout",
    "format_hms",
    "simulate_frame_division_fc_fault_tolerant",
    "hybrid_tasks",
    "load_imbalance",
    "pixel_regions",
    "region_grid_shape",
    "sequence_ranges",
    "simulate_frame_division_fc",
    "simulate_frame_division_nofc",
    "simulate_hybrid_fc",
    "simulate_sequence_division_fc",
    "simulate_sequence_division_fc_fault_tolerant",
    "simulate_sequence_division_nofc",
    "simulate_single_processor",
    "strip_regions",
]
