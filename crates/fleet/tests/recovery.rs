//! Node-crash fault-domain acceptance tests: deterministic crash
//! injection, level-boundary checkpoint recovery vs. restart-from-
//! scratch, detector quarantine, rejoin semantics, and the
//! faults-off-is-identical guarantee.

use hpu_algos::MergeSort;
use hpu_fleet::{fleet_sim, FleetConfig, FleetJobRequest, NodeSpec, StealReason};
use hpu_machine::{MachineConfig, NodeFaultPlan};
use hpu_model::ScheduleSpec;
use hpu_serve::{AlgoJob, CheckpointPolicy, ServeConfig};

const NODES: usize = 4;

fn fleet_job(name: &str, spec: ScheduleSpec, n: u64, arrival: f64) -> FleetJobRequest {
    let data: Vec<u64> = (0..n).rev().collect();
    FleetJobRequest::new(name, spec, arrival, AlgoJob::boxed(MergeSort::new(), data))
}

/// A 4-node fleet whose nodes all checkpoint under `policy`.
fn four_nodes(policy: CheckpointPolicy) -> FleetConfig {
    let serve = ServeConfig {
        queue_capacity: 32,
        cpu_fallback: false,
        checkpoint: policy,
        ..Default::default()
    };
    let mut cfg = FleetConfig::new(
        (0..NODES)
            .map(|i| {
                NodeSpec::new(format!("n{i}"), MachineConfig::hpu1_sim()).with_serve(serve.clone())
            })
            .collect(),
    );
    // Load stealing off: jobs stay where routed, so the only cross-node
    // movement these tests observe is crash recovery itself.
    cfg.steal = false;
    cfg
}

/// 16 multi-segment jobs, staggered so the router spreads them over all
/// four nodes: the `Basic` split puts a level boundary at the CPU→GPU
/// crossover, so `EveryLevel` checkpointing has a consistent cut to
/// capture mid-job.
fn workload() -> Vec<FleetJobRequest> {
    (0..16)
        .map(|i| {
            fleet_job(
                &format!("j{i}"),
                ScheduleSpec::Basic { crossover: Some(4) },
                1 << 12,
                i as f64 * 50.0,
            )
        })
        .collect()
}

/// Smallest seed whose plan crashes exactly one of the 4 nodes at
/// `rate` — deterministic, found by the same subset-stable draws the
/// fleet will replay.
fn one_crash_seed(rate: f64) -> u64 {
    (0..10_000u64)
        .find(|&seed| {
            let plan = NodeFaultPlan::new(seed).with_crash_rate(rate);
            (0..NODES as u64)
                .filter(|&i| plan.fault_for(i).is_some())
                .count()
                == 1
        })
        .expect("some seed crashes exactly one node")
}

fn crashed_node(plan: &NodeFaultPlan) -> usize {
    (0..NODES as u64)
        .find(|&i| plan.fault_for(i).is_some())
        .expect("plan crashes one node") as usize
}

/// Tentpole acceptance: one mid-run crash under `EveryLevel`
/// checkpointing completes strictly more level-work without
/// re-execution than restart-from-scratch (`levels_saved > 0`), loses
/// zero completed jobs, and recovers or restarts every in-flight job
/// from the dead node.
#[test]
fn checkpointed_recovery_saves_levels_over_restart_from_scratch() {
    let seed = one_crash_seed(0.3);
    let plan = NodeFaultPlan::new(seed)
        .with_crash_rate(0.3)
        .with_crash_window(60, 60);
    let victim = crashed_node(&plan);

    let ckpt = fleet_sim(
        &four_nodes(CheckpointPolicy::EveryLevel).with_node_faults(plan.clone()),
        workload(),
    );
    let scratch = fleet_sim(
        &four_nodes(CheckpointPolicy::Off).with_node_faults(plan),
        workload(),
    );

    for (label, out) in [("everylevel", &ckpt), ("scratch", &scratch)] {
        let r = &out.report.recovery;
        assert_eq!(r.crashes, 1, "{label}: exactly one node crashes");
        assert_eq!(r.node_downs, 1, "{label}: the detector declares it down");
        let recoveries: Vec<_> = out
            .steals
            .iter()
            .filter(|e| e.reason == StealReason::NodeDown)
            .collect();
        assert!(
            !recoveries.is_empty(),
            "{label}: the dead node's jobs are re-placed"
        );
        assert!(
            recoveries
                .iter()
                .all(|e| e.from == victim && e.to != victim),
            "{label}: recovery flows off the crashed node {victim}"
        );
        assert_eq!(
            r.jobs_recovered + r.jobs_restarted,
            recoveries.len() as u64,
            "{label}: every evicted job is either recovered or restarted"
        );
        // Zero completed jobs lost, every submission accounted for: a
        // record with a terminal outcome exists for every job id.
        let accounted =
            out.report.completed + out.report.failed + out.report.rejected + out.report.cancelled;
        assert_eq!(accounted, 16, "{label}: every job is accounted for");
        assert_eq!(
            out.report.completed, 16,
            "{label}: with room on healthy peers nothing is actually lost"
        );
        // Boundaries can share a virtual instant, so MTTR may be 0 —
        // but it must be a well-defined, non-negative duration.
        assert!(
            r.mttr.is_finite() && r.mttr >= 0.0,
            "{label}: MTTR is a well-defined duration"
        );
    }

    // The payoff: checkpointed recovery re-executes strictly fewer
    // levels. Restart-from-scratch saves none by definition.
    assert!(
        ckpt.report.recovery.jobs_recovered > 0,
        "at least one in-flight job resumes from its checkpoint"
    );
    assert!(
        ckpt.report.recovery.levels_saved > 0,
        "EveryLevel must save completed levels from re-execution"
    );
    assert!(
        ckpt.report.recovery.checkpoint_bytes > 0,
        "used checkpoints carry host state"
    );
    assert_eq!(
        scratch.report.recovery.levels_saved, 0,
        "CheckpointPolicy::Off has no checkpoints to save levels with"
    );
    assert_eq!(scratch.report.recovery.jobs_recovered, 0);
    // Goodput is fixed (both complete everything) — the claim is about
    // saved re-execution at equal goodput.
    assert_eq!(ckpt.report.completed, scratch.report.completed);
}

/// A crashed node that restarts rejoins cold: `NodeUp` fires, its
/// pricing generation is bumped, and the fleet still completes every
/// job.
#[test]
fn restarted_node_rejoins_cold_and_serves_again() {
    let seed = one_crash_seed(0.3);
    let plan = NodeFaultPlan::new(seed)
        .with_crash_rate(0.3)
        .with_crash_window(60, 60)
        .with_restart_after(8);
    let victim = crashed_node(&plan);

    let out = fleet_sim(
        &four_nodes(CheckpointPolicy::EveryLevel).with_node_faults(plan),
        workload(),
    );
    let r = &out.report.recovery;
    assert_eq!(r.crashes, 1);
    assert_eq!(r.node_downs, 1);
    assert_eq!(r.node_ups, 1, "the restart must surface as NodeUp");
    assert_eq!(out.report.completed, 16);
    assert!(
        out.nodes[victim].replans >= 1,
        "rejoin bumps the crashed node's pricing generation"
    );
}

/// A partition quarantines without killing: no crash is counted, no job
/// is evicted, and the heal brings the node back with everything it was
/// running intact.
#[test]
fn partition_quarantines_and_heals_without_losing_work() {
    let seed = one_crash_seed(0.3);
    let plan = NodeFaultPlan::new(seed)
        .with_crash_rate(0.3)
        .with_partition_rate(1.0)
        .with_crash_window(60, 60)
        .with_restart_after(8);

    let out = fleet_sim(
        &four_nodes(CheckpointPolicy::EveryLevel).with_node_faults(plan),
        workload(),
    );
    let r = &out.report.recovery;
    assert_eq!(r.crashes, 0, "a partition is not a crash");
    assert_eq!(r.node_downs, 1);
    assert_eq!(r.node_ups, 1);
    assert_eq!(r.jobs_recovered + r.jobs_restarted, 0, "nothing is evicted");
    assert_eq!(out.report.completed, 16);
}

/// Guard rail: a `None` fault plan and a fault-free plan are both
/// event-for-event identical to each other and across repeat runs — the
/// fault machinery is observationally absent when off.
#[test]
fn fault_free_plan_is_identical_to_no_plan_at_all() {
    for seed in [1u64, 7, 42] {
        let off = fleet_sim(&four_nodes(CheckpointPolicy::Off), workload());
        let free = fleet_sim(
            &four_nodes(CheckpointPolicy::Off).with_node_faults(NodeFaultPlan::new(seed)),
            workload(),
        );
        assert_eq!(off.report, free.report, "seed {seed}");
        assert_eq!(off.assignments, free.assignments, "seed {seed}");
        assert_eq!(off.steals, free.steals, "seed {seed}");
        for (a, b) in off.nodes.iter().zip(free.nodes.iter()) {
            assert_eq!(a.report, b.report, "seed {seed}");
            assert_eq!(a.gpu_leases, b.gpu_leases, "seed {seed}");
            assert_eq!(a.cpu_reservations, b.cpu_reservations, "seed {seed}");
        }
        assert_eq!(off.report.recovery, Default::default(), "all-zero recovery");
    }
}
