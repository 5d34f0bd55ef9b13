"""Transport-agnostic master/worker scheduling (the paper's Section 4 brain).

The Table-1 partitioning schemes are *policies* — decisions about which
(region, frame-range) unit a hungry worker should compute next — and the
paper runs the same policies over PVM that our reproduction runs over both
a discrete-event simulator and a real multiprocessing farm.  This package
separates the two concerns:

* :mod:`repro.sched.core` — each policy as a pure state machine
  (``next_assignment`` / ``on_result`` / ``on_worker_lost``) with no I/O,
  no clocks and no knowledge of what executes its assignments;
* :mod:`repro.sched.cost` — the oracle-backed cost model that prices an
  assignment for the simulator (rays, work units, working set, message
  bytes);
* :mod:`repro.sched.sim` — ``SimTransport``: drives a policy over the
  :class:`~repro.cluster.VirtualPVM` discrete-event cluster (the Table-1
  replay path and, with a worker deadline, the fault-tolerant
  simulator);
* :mod:`repro.sched.process` — ``ProcessTransport``: drives the *same*
  policy over the supervised multiprocessing executor (the real farm);
* :mod:`repro.net` — ``TcpTransport`` (re-exported here): drives it over
  real sockets, master + worker daemons on a network of workstations.

Because all transports consume identical policy objects, a simulated run,
a pooled run and a networked run of the same workload produce the same
task-assignment sequence — the equivalence
``tests/test_sched_equivalence.py`` pins down.
"""

from .core import (
    AdaptiveChainPolicy,
    Assignment,
    Chain,
    DemandDrivenPolicy,
    SchedulingPolicy,
    make_policy,
    single_processor_policy,
)
from .cost import AssignmentCost, OracleCostModel
from .sim import SimTransport

_PROCESS_NAMES = ("ProcessTransport", "SchedOutcome", "assignment_echo_task")
_NET_NAMES = ("TcpTransport", "MasterServer")


def __getattr__(name: str):
    # repro.sched.process pulls in repro.runtime (the supervisor), which in
    # turn imports the renderer stack; loading it lazily keeps
    # `import repro.parallel` -> strategies -> repro.sched free of that
    # cycle and that weight.  Same story for the network transport.
    if name in _PROCESS_NAMES:
        from . import process

        return getattr(process, name)
    if name in _NET_NAMES:
        from ..net import master

        return getattr(master, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AdaptiveChainPolicy",
    "Assignment",
    "AssignmentCost",
    "Chain",
    "DemandDrivenPolicy",
    "MasterServer",
    "OracleCostModel",
    "ProcessTransport",
    "SchedOutcome",
    "SchedulingPolicy",
    "SimTransport",
    "TcpTransport",
    "assignment_echo_task",
    "make_policy",
    "single_processor_policy",
]
