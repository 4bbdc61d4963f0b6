"""Online adaptivity — drift-triggered re-planning under link degradation.

The paper's Plan step picks one strategy up front; this reproduction's
online-adaptivity extension keeps planning *during* the run.  The scenario:
a distributed PS-analog training run starts on the planner's clean-cluster
choice (GDP), then the Ethernet degrades 10x mid-run (a congested or
renegotiated link).  The drift detector notices the observed load phase
diverging from the cost-model estimate, re-profiles on the degraded
cluster, and hot-switches to DNP between epochs — without touching model
state.

The benchmark compares that adaptive run against every fixed strategy
under the identical fault schedule and asserts the adaptive run beats them
all: the fixed choices either start slow (DNP pre-fault) or end slow (GDP
post-fault).  A no-fault control run must re-plan zero times and match the
fixed run of the same strategy to within bandwidth-noise tolerance —
telemetry and drift detection stay off the simulated-time path.
"""

import pytest

import common

from repro.cluster.faults import FaultEvent, FaultSchedule
from repro.config import APTConfig

DATASET = "ps"
MACHINES, GPUS = 4, 8
HIDDEN = 96
EPOCHS = 12
FAULT_EPOCH = 6
DEGRADE = 0.1  # Ethernet at 10% of nominal bandwidth


def _apt(replan: bool):
    ds = common.dataset(DATASET)
    cluster = common.cluster_for(ds, num_gpus=GPUS, num_machines=MACHINES)
    parts = common.partition(DATASET, cluster.num_devices)
    model = common.make_model("sage", ds, hidden=HIDDEN)
    cfg = APTConfig(
        fanouts=(10, 10, 10),
        global_batch_size=cluster.num_devices * common.BATCH_PER_GPU,
        partition=parts,
        seed=0,
        replan=replan,
    )
    from repro.core import APT

    apt = APT(ds, model, cluster, cfg)
    apt.prepare()
    return apt


def _schedule() -> FaultSchedule:
    return FaultSchedule(
        [FaultEvent(epoch=FAULT_EPOCH, kind="link_degrade", factor=DEGRADE)],
        seed=0,
    )


def run_online_replanning():
    faults = _schedule()

    # Adaptive: plan once, then re-plan on drift.
    apt = _apt(replan=True)
    apt.plan()
    adaptive = apt.run(EPOCHS, faults=faults, numerics=False)

    # Every fixed strategy under the identical schedule.
    fixed = {}
    for name in common.STRATEGIES:
        fixed[name] = _apt(replan=False).run_strategy(
            name, EPOCHS, faults=faults, numerics=False
        )

    # No-fault control: adaptivity enabled, nothing drifts.
    control_apt = _apt(replan=True)
    control_apt.plan()
    control = control_apt.run(EPOCHS, numerics=False)
    baseline = _apt(replan=False).run_strategy(
        control.strategy, EPOCHS, numerics=False
    )

    return adaptive, fixed, control, baseline


def test_online_replanning(benchmark):
    adaptive, fixed, control, baseline = benchmark.pedantic(
        run_online_replanning, rounds=1, iterations=1
    )

    lines = [
        f"(PS analog, {MACHINES}x{GPUS // MACHINES} GPUs, {EPOCHS} epochs; "
        f"Ethernet degraded to {DEGRADE:.0%} at epoch {FAULT_EPOCH})",
        f"{'run':<14}{'wall':>12}  strategy path",
    ]
    lines.append(
        f"{'adaptive':<14}{adaptive.wall_seconds * 1e3:>10.3f}ms  "
        + " ".join(adaptive.strategy_by_epoch)
    )
    for name, r in fixed.items():
        lines.append(f"{'fixed ' + name:<14}{r.wall_seconds * 1e3:>10.3f}ms")
    for rp in adaptive.replans:
        lines.append(
            f"re-plan after epoch {rp.epoch}: drift {rp.drift.max_abs:.2f} on "
            f"{rp.drift.worst_term}; {rp.old_strategy} -> {rp.new_strategy}"
        )
    lines.append(
        f"no-fault control: {control.num_replans} re-plans, "
        f"{control.epoch_seconds * 1e3:.3f}ms/epoch vs "
        f"{baseline.epoch_seconds * 1e3:.3f}ms/epoch plain {control.strategy}"
    )

    payload = {
        "adaptive": adaptive.to_dict(),
        "fixed": {n: r.wall_seconds for n, r in fixed.items()},
        "control_replans": control.num_replans,
        "control_epoch_seconds": control.epoch_seconds,
        "baseline_epoch_seconds": baseline.epoch_seconds,
    }
    common.emit("online_replan", payload, lines)

    # The detector re-planned and actually switched strategies mid-run.
    assert adaptive.num_replans >= 1
    assert adaptive.switch_epochs, "drift never caused a strategy switch"
    assert len(set(adaptive.strategy_by_epoch)) > 1
    # Telemetry recorded the fault and the switch.
    assert adaptive.faults and adaptive.faults[0]["epoch"] == FAULT_EPOCH
    assert adaptive.telemetry["events_by_kind"]["fault"] >= 1
    assert adaptive.telemetry["events_by_kind"]["replan"] >= 1
    # The adaptive run beats every fixed strategy under the same faults.
    for name, r in fixed.items():
        assert adaptive.wall_seconds < r.wall_seconds, (
            f"adaptive {adaptive.wall_seconds:.3e}s not faster than "
            f"fixed {name} {r.wall_seconds:.3e}s"
        )
    # Without faults nothing drifts: zero re-plans, and the adaptive
    # machinery costs nothing on the simulated clock.
    assert control.num_replans == 0
    assert control.epoch_seconds == pytest.approx(
        baseline.epoch_seconds, rel=0.05
    )
