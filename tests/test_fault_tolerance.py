"""Tests for machine failures, Recv timeouts and the fault-tolerant master."""

import pytest

from repro.cluster import (
    Compute,
    Machine,
    Recv,
    Send,
    Sleep,
    ThrashModel,
    VirtualPVM,
    ncsu_testbed,
)
from repro.parallel import (
    RenderFarmConfig,
    simulate_frame_division_fc,
    simulate_frame_division_fc_fault_tolerant,
    simulate_sequence_division_fc,
    simulate_sequence_division_fc_fault_tolerant,
)

SPU = 1e-4
NO_THRASH = ThrashModel(alpha=0.0)
CFG = RenderFarmConfig()


# -- PVM failure primitives ----------------------------------------------------
def test_recv_timeout_fires():
    pvm = VirtualPVM([Machine("m", 1.0, 32)], sec_per_work_unit=0.01)
    got = []

    def waiter():
        msg = yield Recv(timeout=2.0)
        got.append(msg)

    pvm.spawn(waiter(), "m")
    end = pvm.run()
    assert got == [None]
    assert end == pytest.approx(2.0)


def test_recv_timeout_cancelled_by_message():
    pvm = VirtualPVM([Machine("m", 1.0, 32)], sec_per_work_unit=0.01)
    got = []

    def waiter():
        msg = yield Recv(timeout=5.0)
        got.append(msg.payload if msg else None)
        # A second recv must not be woken by the first recv's stale timer.
        msg2 = yield Recv(timeout=10.0)
        got.append(msg2)

    def sender(dst):
        yield Compute(units=100)  # 1s
        yield Send(dst, 10, "hello")

    wtid = pvm.spawn(waiter(), "m")
    pvm.spawn(sender(wtid), "m")
    pvm.run()
    assert got == ["hello", None]


def test_run_ends_when_the_last_live_task_finishes():
    """A stale Recv timer and a crash scheduled after the work is done
    still drain from the queue, but do not stretch the run's end time."""
    pvm = VirtualPVM([Machine("m", 1.0, 32), Machine("n", 1.0, 32)], latency_s=0.0)

    def waiter():
        msg = yield Recv(timeout=10.0)
        assert msg.payload == "hello"

    def sender(dst):
        yield Sleep(1.0)
        yield Send(dst, 0, "hello")

    wtid = pvm.spawn(waiter(), "m")
    pvm.spawn(sender(wtid), "n")
    pvm.fail_machine("n", 50.0)
    assert pvm.run() == 1.0


def test_recv_negative_timeout_rejected():
    pvm = VirtualPVM([Machine("m", 1.0, 32)], sec_per_work_unit=0.01)

    def bad():
        yield Recv(timeout=-1.0)

    pvm.spawn(bad(), "m")
    with pytest.raises(ValueError):
        pvm.run()


def test_fail_machine_kills_tasks_and_drops_messages():
    machines = [Machine("a", 1.0, 32), Machine("b", 1.0, 32)]
    pvm = VirtualPVM(machines, sec_per_work_unit=0.01)
    finished = []

    def victim():
        yield Compute(units=1000)  # 10s, but the machine dies at t=1
        finished.append("victim")

    def survivor(dead_tid):
        yield Compute(units=100)
        yield Send(dead_tid, 10, "for the dead")  # dropped silently
        finished.append("survivor")

    vtid = pvm.spawn(victim(), "a")
    pvm.spawn(survivor(vtid), "b")
    pvm.fail_machine("a", 1.0)
    pvm.run()  # must not deadlock despite the dead task
    assert finished == ["survivor"]
    assert pvm.task(vtid).dead
    assert not pvm.task(vtid).finished


def test_fail_unknown_machine_rejected():
    pvm = VirtualPVM([Machine("m", 1.0, 32)], sec_per_work_unit=0.01)
    with pytest.raises(KeyError):
        pvm.fail_machine("ghost", 1.0)


# -- fault-tolerant strategy ----------------------------------------------------
@pytest.fixture(scope="module")
def machines():
    return ncsu_testbed()


def _ft(oracle, machines, **kw):
    return simulate_frame_division_fc_fault_tolerant(
        oracle, machines, CFG, sec_per_work_unit=SPU, thrash=NO_THRASH, **kw
    )


def test_ft_clean_run_completes_everything(tiny_oracle, machines):
    out = _ft(tiny_oracle, machines)
    assert len(out.frame_completion_times) == tiny_oracle.n_frames
    # Without failures nothing is re-executed: ray total equals a single
    # coherent chain decomposed over blocks (plus any tail-steal restarts).
    assert out.total_rays >= tiny_oracle.total_coherent_rays()


@pytest.mark.parametrize(
    "ft,sibling",
    [
        (simulate_frame_division_fc_fault_tolerant, simulate_frame_division_fc),
        (simulate_sequence_division_fc_fault_tolerant, simulate_sequence_division_fc),
    ],
    ids=["frame", "sequence"],
)
def test_ft_without_failures_equals_its_sibling(tiny_oracle, machines, ft, sibling):
    """The deadline sweep costs nothing until a machine dies: same
    schedule, same rays, same frame times, same end time."""
    kw = dict(sec_per_work_unit=SPU, thrash=NO_THRASH)
    out = ft(tiny_oracle, machines, CFG, failures=None, **kw)
    base = sibling(tiny_oracle, machines, CFG, **kw)
    assert out.total_time == base.total_time
    assert out.total_rays == base.total_rays
    assert out.frame_completion_times == base.frame_completion_times


def test_ft_survives_one_failure(tiny_oracle, machines):
    clean = _ft(tiny_oracle, machines)
    out = _ft(
        tiny_oracle, machines, failures=[("indigo2-100", clean.total_time * 0.3)]
    )
    assert len(out.frame_completion_times) == tiny_oracle.n_frames
    # The dead machine's work was redone: at least as many rays, more time.
    assert out.total_rays >= clean.total_rays
    assert out.total_time > clean.total_time * 0.9


def test_ft_survives_two_failures(tiny_oracle, machines):
    clean = _ft(tiny_oracle, machines)
    out = _ft(
        tiny_oracle,
        machines,
        failures=[
            ("indigo2-100", clean.total_time * 0.2),
            ("indigo-100", clean.total_time * 0.4),
        ],
    )
    assert len(out.frame_completion_times) == tiny_oracle.n_frames


def test_ft_only_master_machine_survives(tiny_oracle, machines):
    """Both slave machines die almost immediately: the worker co-located
    with the master grinds through the entire animation alone."""
    out = _ft(
        tiny_oracle,
        machines,
        failures=[("indigo2-100", 0.05), ("indigo-100", 0.05)],
    )
    assert len(out.frame_completion_times) == tiny_oracle.n_frames
    busy = out.machine_busy_seconds
    # Essentially all the work ran on the surviving machine.
    assert busy["indigo2-200"] > 10 * max(busy["indigo2-100"], busy["indigo-100"])


def test_ft_master_machine_death_is_fatal(tiny_oracle, machines):
    """If the master's own machine dies, the surviving workers are stranded
    waiting for assignments — the run fails loudly with DeadlockError (a
    single-master design has a single point of failure; the paper's PVM
    master was exactly that)."""
    from repro.cluster import DeadlockError

    with pytest.raises(DeadlockError):
        _ft(tiny_oracle, machines, failures=[("indigo2-200", 0.05)])


def test_ft_deterministic(tiny_oracle, machines):
    a = _ft(tiny_oracle, machines, failures=[("indigo-100", 0.5)])
    b = _ft(tiny_oracle, machines, failures=[("indigo-100", 0.5)])
    assert a.total_time == b.total_time
    assert a.total_rays == b.total_rays


# -- fault-tolerant sequence division --------------------------------------------
def _seq_ft(oracle, machines, **kw):
    return simulate_sequence_division_fc_fault_tolerant(
        oracle, machines, CFG, sec_per_work_unit=SPU, thrash=NO_THRASH, **kw
    )


def test_seq_ft_clean_run_completes_everything(tiny_oracle, machines):
    out = _seq_ft(tiny_oracle, machines)
    assert len(out.frame_completion_times) == tiny_oracle.n_frames
    assert out.strategy == "sequence-division+fc+ft"


def test_seq_ft_survives_one_failure(tiny_oracle, machines):
    clean = _seq_ft(tiny_oracle, machines)
    out = _seq_ft(
        tiny_oracle, machines, failures=[("indigo2-100", clean.total_time * 0.3)]
    )
    assert len(out.frame_completion_times) == tiny_oracle.n_frames
    # The dead machine's frames were re-rendered from a fresh chain.
    assert out.total_rays >= clean.total_rays
    assert out.total_time > clean.total_time * 0.9


def test_seq_ft_master_machine_death_is_fatal(tiny_oracle, machines):
    from repro.cluster import DeadlockError

    with pytest.raises(DeadlockError):
        _seq_ft(tiny_oracle, machines, failures=[("indigo2-200", 0.05)])


def test_seq_ft_deterministic(tiny_oracle, machines):
    a = _seq_ft(tiny_oracle, machines, failures=[("indigo-100", 0.5)])
    b = _seq_ft(tiny_oracle, machines, failures=[("indigo-100", 0.5)])
    assert a.total_time == b.total_time
    assert a.total_rays == b.total_rays
