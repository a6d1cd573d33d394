//! The crash-recovery experiment: a 4-node fleet served through one
//! mid-run node crash, swept over a grid of crash rates × checkpoint
//! policies. One CSV row per `(policy, crash_rate)` pair reports
//! goodput, MTTR and how much completed level-work the level-boundary
//! checkpoints saved from re-execution.
//!
//! The node-fault model is hash-coupled (see
//! [`hpu_machine::NodeFaultPlan`]): a node crashes iff its seeded
//! per-node draw falls below the rate, so the crash set at a low rate
//! is a subset of the crash set at any higher rate under the same
//! seed. The fire → detect → restart timeline runs on global event
//! ordinals, so every row is virtual-time deterministic.
//!
//! The workload is pinned to multi-segment `Basic` plans (a level
//! boundary at the CPU→GPU crossover) with staggered arrivals, so
//! `EveryLevel` checkpointing has consistent cuts to capture mid-job
//! and the crash window reliably lands on in-flight work.

use hpu_algos::MergeSort;
use hpu_fleet::{fleet_sim, FleetConfig, FleetJobRequest, NodeSpec};
use hpu_machine::{MachineConfig, NodeFaultPlan};
use hpu_model::ScheduleSpec;
use hpu_obs::FleetReport;
use hpu_serve::{AlgoJob, CheckpointPolicy, ServeConfig};

use crate::experiments::Csv;

/// Fleet size every recovery row runs on.
const NODES: usize = 4;

/// Event-ordinal window the crash fires in — pinned so the fault lands
/// while the staggered stream still has in-flight multi-segment jobs.
const CRASH_AT: u64 = 60;

/// A homogeneous 4-node HPU1 fleet, every node checkpointing under
/// `policy`, with load stealing off so the only cross-node movement a
/// row observes is crash recovery itself.
pub(crate) fn recover_fleet(policy: CheckpointPolicy, plan: Option<NodeFaultPlan>) -> FleetConfig {
    let serve = ServeConfig {
        queue_capacity: 32,
        cpu_fallback: false,
        checkpoint: policy,
        ..ServeConfig::default()
    };
    let mut cfg = FleetConfig::new(
        (0..NODES)
            .map(|i| {
                NodeSpec::new(format!("n{i}"), MachineConfig::hpu1_sim()).with_serve(serve.clone())
            })
            .collect(),
    );
    cfg.steal = false;
    if let Some(plan) = plan {
        cfg = cfg.with_node_faults(plan);
    }
    cfg
}

/// The pinned arrival stream: `jobs` multi-segment mergesorts staggered
/// so the router spreads them over all four nodes.
pub(crate) fn recover_stream(jobs: usize) -> Vec<FleetJobRequest> {
    (0..jobs)
        .map(|i| {
            let data: Vec<u64> = (0..1u64 << 12).rev().collect();
            FleetJobRequest::new(
                format!("j{i}"),
                ScheduleSpec::Basic { crossover: Some(4) },
                i as f64 * 50.0,
                AlgoJob::boxed(MergeSort::new(), data),
            )
        })
        .collect()
}

/// One sweep point: the pinned stream on the pinned fleet under
/// `(policy, crash_rate)`.
pub(crate) fn recover_point(
    policy: CheckpointPolicy,
    rate: f64,
    jobs: usize,
    seed: u64,
) -> FleetReport {
    let plan = NodeFaultPlan::new(seed)
        .with_crash_rate(rate)
        .with_crash_window(CRASH_AT, CRASH_AT);
    fleet_sim(&recover_fleet(policy, Some(plan)), recover_stream(jobs)).report
}

fn policy_name(policy: CheckpointPolicy) -> &'static str {
    match policy {
        CheckpointPolicy::Off => "off",
        CheckpointPolicy::EveryLevel => "everylevel",
    }
}

fn recover_row(policy: CheckpointPolicy, rate: f64, r: &FleetReport) -> Vec<String> {
    let c = &r.recovery;
    vec![
        policy_name(policy).to_string(),
        format!("{rate}"),
        r.submitted.to_string(),
        r.completed.to_string(),
        format!("{:.4}", r.goodput),
        format!("{:.4}", c.mttr),
        c.crashes.to_string(),
        c.node_downs.to_string(),
        c.jobs_recovered.to_string(),
        c.jobs_restarted.to_string(),
        c.levels_saved.to_string(),
        c.checkpoint_bytes.to_string(),
    ]
}

/// Runs the recovery benchmark: the pinned stream under every
/// `(checkpoint policy, crash rate)` pair, one CSV row each. With the
/// same seed the rows are byte-identical across runs, and at rate 0
/// both policies complete everything with all-zero recovery counters.
pub fn recover_sweep(jobs: usize, crash_rates: &[f64], seed: u64) -> Csv {
    let mut rows = Vec::new();
    for &policy in &[CheckpointPolicy::Off, CheckpointPolicy::EveryLevel] {
        for &rate in crash_rates {
            let report = recover_point(policy, rate, jobs, seed);
            rows.push(recover_row(policy, rate, &report));
        }
    }
    Csv {
        name: "recover",
        header: vec![
            "policy",
            "crash_rate",
            "submitted",
            "completed",
            "goodput",
            "mttr",
            "crashes",
            "node_downs",
            "jobs_recovered",
            "jobs_restarted",
            "levels_saved",
            "checkpoint_bytes",
        ],
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smallest seed at or above `seed` whose fault plan crashes exactly
    /// one of the 4 nodes at `rate` — the pinned single-crash scenario,
    /// found by replaying the same subset-stable draws the fleet will.
    fn one_crash_seed(seed: u64, rate: f64) -> u64 {
        (seed..seed + 10_000)
            .find(|&s| {
                let plan = NodeFaultPlan::new(s).with_crash_rate(rate);
                (0..NODES as u64)
                    .filter(|&i| plan.fault_for(i).is_some())
                    .count()
                    == 1
            })
            .expect("some seed crashes exactly one node")
    }

    /// ISSUE acceptance: at a crash rate that kills one node mid-run,
    /// `EveryLevel` checkpointing completes strictly more level-work
    /// without re-execution than restart-from-scratch — `levels_saved`
    /// is positive for the checkpointed row and zero for `off` — at
    /// fixed goodput (both rows complete the full stream).
    #[test]
    fn checkpointing_saves_levels_at_fixed_goodput() {
        let seed = one_crash_seed(42, 0.3);
        let csv = recover_sweep(16, &[0.3], seed);
        let row = |policy: &str| {
            csv.rows
                .iter()
                .find(|r| r[0] == policy)
                .unwrap_or_else(|| panic!("{policy} row present"))
        };
        let (off, ckpt) = (row("off"), row("everylevel"));
        for r in [off, ckpt] {
            assert_eq!(r[6], "1", "exactly one crash: {r:?}");
            assert_eq!(r[3], "16", "all jobs complete on healthy peers: {r:?}");
        }
        assert_eq!(off[4], ckpt[4], "the comparison is at fixed goodput");
        assert_eq!(off[10], "0", "off has no checkpoints to save levels with");
        let saved: u64 = ckpt[10].parse().expect("levels_saved parses");
        assert!(saved > 0, "everylevel must save levels: {ckpt:?}");
        let recovered: u64 = ckpt[8].parse().expect("jobs_recovered parses");
        assert!(recovered > 0, "some job resumes from its checkpoint");
    }

    /// Rate 0 injects nothing: both policy rows complete everything
    /// with all-zero recovery counters.
    #[test]
    fn rate_zero_rows_are_fault_free() {
        let csv = recover_sweep(8, &[0.0], 42);
        assert_eq!(csv.rows.len(), 2);
        for r in &csv.rows {
            assert_eq!(r[3], "8", "{r:?}");
            for col in 6..12 {
                assert_eq!(r[col], "0", "{r:?}");
            }
        }
    }
}
