//! Fault-injection invariants over the serving stack (the ISSUE 5
//! acceptance scenarios): transient faults must be absorbed, permanent
//! device loss must degrade — never panic or hang — and recovery must
//! not corrupt the scheduler's bookkeeping.
//!
//! Every scenario runs under each seed in [`SEEDS`].

use hpu_algos::mergesort::MergeSort;
use hpu_core::exec::RecoveryPolicy;
use hpu_machine::{FaultPlan, MachineConfig, SimMachineParams};
use hpu_model::{CalibratorConfig, MachineParams, ScheduleSpec};
use hpu_obs::JobOutcome;
use hpu_serve::{serve_sim, AlgoJob, FaultConfig, JobRequest, ServeConfig};

const SEEDS: [u64; 3] = [42, 7, 1234];

/// A GPU-leaning mixed fleet: sizes cycle 256/512/1024, schedules cycle
/// basic-hybrid / GPU-only / CPU-parallel, arrivals are evenly spaced.
fn fleet(jobs: usize, gap: f64) -> Vec<JobRequest> {
    (0..jobs)
        .map(|i| {
            let n = 256usize << (i % 3);
            let spec = match i % 3 {
                0 => ScheduleSpec::Basic { crossover: Some(4) },
                1 => ScheduleSpec::GpuOnly,
                _ => ScheduleSpec::CpuParallel,
            };
            let data: Vec<u32> = (0..n as u32).rev().collect();
            JobRequest::new(
                format!("sort-{i}-n{n}"),
                spec,
                i as f64 * gap,
                AlgoJob::boxed(MergeSort::new(), data),
            )
        })
        .collect()
}

fn serve_cfg(jobs: usize, faults: Option<FaultConfig>) -> ServeConfig {
    ServeConfig {
        queue_capacity: jobs.max(1),
        faults,
        ..ServeConfig::default()
    }
}

/// ISSUE acceptance: with a transient-only `FaultPlan`, `serve_sim`
/// completes the *same job set* as a fault-free run — every fault is
/// either retried away or absorbed by CPU-only degradation.
#[test]
fn transient_only_faults_complete_the_same_job_set_as_fault_free() {
    let cfg = MachineConfig::tiny();
    let jobs = 12;

    let clean = serve_sim(&cfg, &serve_cfg(jobs, None), fleet(jobs, 500.0));
    let completed = |out: &hpu_serve::ServeOutput| -> Vec<u64> {
        let mut ids: Vec<u64> = out
            .report
            .jobs
            .iter()
            .filter(|r| r.outcome == JobOutcome::Completed)
            .map(|r| r.id)
            .collect();
        ids.sort_unstable();
        ids
    };
    assert_eq!(
        completed(&clean).len(),
        jobs,
        "fault-free run completes all"
    );
    for seed in SEEDS {
        let plan = FaultPlan::new(seed)
            .with_kernel_rate(0.3)
            .with_transfer_rate(0.15);
        assert!(plan.is_transient_only());
        let faulted = serve_sim(
            &cfg,
            &serve_cfg(jobs, Some(FaultConfig::new(plan))),
            fleet(jobs, 500.0),
        );
        assert_eq!(
            completed(&clean),
            completed(&faulted),
            "seed {seed}: transient-only faults must not lose jobs (errors: {:?})",
            faulted.errors
        );
        assert!(
            faulted.report.fault_events > 0,
            "seed {seed}: a 30% kernel rate must actually inject faults"
        );
    }
}

/// ISSUE acceptance: permanent GPU loss mid-fleet. Every job must end in
/// a *typed* terminal state — completed (possibly degraded to CPU-only)
/// or a typed failure/cancellation — with no panic and no hang, and the
/// breaker must trip so later GPU jobs are steered to the CPU upfront.
#[test]
fn permanent_device_loss_yields_only_typed_outcomes() {
    let cfg = MachineConfig::tiny();
    let jobs = 12;
    for seed in SEEDS {
        let plan = FaultPlan::new(seed).with_device_loss_at(40);
        assert!(!plan.is_transient_only());
        let out = serve_sim(
            &cfg,
            &serve_cfg(jobs, Some(FaultConfig::new(plan))),
            fleet(jobs, 500.0),
        );

        assert_eq!(
            out.report.jobs.len(),
            jobs,
            "seed {seed}: one record per submission"
        );
        for r in &out.report.jobs {
            assert!(
                matches!(
                    r.outcome,
                    JobOutcome::Completed | JobOutcome::Failed { .. } | JobOutcome::Cancelled
                ),
                "seed {seed}: job {} ended in an untyped state: {:?}",
                r.id,
                r.outcome
            );
        }
        assert!(
            out.report.breaker_trips >= 1,
            "seed {seed}: losing the device must trip the GPU circuit breaker"
        );
        assert!(
            out.report.completed_degraded >= 1,
            "seed {seed}: jobs after the loss must complete on degraded CPU-only plans"
        );
        assert!(
            out.report.completed + out.report.failed + out.report.cancelled + out.report.rejected
                == jobs,
            "seed {seed}: outcome counts must partition the fleet: {:?}",
            out.report
        );
    }
}

/// Satellite 2 regression: a job cancelled *after* its device slots were
/// committed (the straggler path — retry backoff pushed its true
/// completion past the deadline) must hand its reservations back, so a
/// later arrival starts in the window the cancelled job had reserved.
#[test]
fn cancelled_straggler_releases_its_slot_for_later_arrivals() {
    let cfg = MachineConfig::tiny();
    let job = |i: usize, arrival: f64| {
        let data: Vec<u32> = (0..1024u32).rev().collect();
        JobRequest::new(
            format!("gpu-{i}"),
            ScheduleSpec::GpuOnly,
            arrival,
            AlgoJob::boxed(MergeSort::new(), data),
        )
    };
    for seed in SEEDS {
        // A mild rate: a retried segment re-runs every launch in it, so high
        // rates make each retry attempt near-certain to fault again and the
        // job degrades to CPU-only instead of straggling on the GPU.
        let mut fc = FaultConfig::new(FaultPlan::new(seed).with_kernel_rate(0.08));
        // Generous retries and a breaker that never opens: every fault is
        // retried on the GPU, so the run carries backoff overhang but stays
        // on its GPU plan.
        fc.recovery = RecoveryPolicy {
            max_retries: 12,
            backoff_base: 50.0,
            backoff_factor: 2.0,
            // Above the natural maximum (50·2^11): the cap must not change
            // this scenario's virtual times.
            max_backoff: f64::INFINITY,
        };
        fc.breaker_threshold = 1000;

        // Phase 1: observe job 0's committed calendar end and retry count
        // under this seed, with no deadline.
        let probe = serve_sim(
            &cfg,
            &serve_cfg(2, Some(fc.clone())),
            vec![job(0, 0.0), job(1, 1.0)],
        );
        let r0 = &probe.report.jobs[0];
        assert_eq!(r0.outcome, JobOutcome::Completed);
        assert!(
            r0.retries >= 1,
            "seed {seed} must make job 0 retry at least once (got {})",
            r0.retries
        );
        let committed_end = r0.end;

        // Phase 2: same fleet, but job 0's deadline equals its committed
        // calendar end. The pre-commit probe accepts it (the calendars say it
        // fits); the post-commit straggler check sees the backoff overhang
        // and cancels — the regression is whether the committed slots come
        // back. Job 1 must then start inside job 0's released window.
        let strict = serve_sim(
            &cfg,
            &serve_cfg(2, Some(fc)),
            vec![job(0, 0.0).with_deadline(committed_end), job(1, 1.0)],
        );
        let s0 = &strict.report.jobs[0];
        let s1 = &strict.report.jobs[1];
        assert_eq!(
            s0.outcome,
            JobOutcome::Cancelled,
            "seed {seed}: job 0's overhang must miss the calendar-exact deadline"
        );
        assert_eq!(s1.outcome, JobOutcome::Completed);
        let first_lease = strict
            .gpu_leases
            .first()
            .expect("job 1 runs GPU-only, it must hold a lease");
        assert!(
            first_lease.0 < committed_end,
            "seed {seed}: job 1's lease ({:?}) must reuse the window job 0 released (< {})",
            first_lease,
            committed_end
        );
    }
}

/// Fleet satellite: killing one node's GPU mid-burst reroutes that
/// node's queued jobs to healthy peers (DeviceLost migrations, each
/// landing in the receiving node's report), and fleet goodput degrades
/// by at most the dead node's capacity share.
#[test]
fn fleet_survives_one_node_gpu_loss_within_capacity_share() {
    use hpu_fleet::{fleet_sim, FleetConfig, FleetJobRequest, NodeSpec, StealReason};

    let nodes = 4usize;
    let jobs = 16usize;
    let machine = MachineConfig::tiny();
    // No CPU fallback: contended GPU jobs wait in the queue, so the
    // breaker trip has a queue to reroute.
    let base = ServeConfig {
        queue_capacity: jobs,
        cpu_fallback: false,
        ..ServeConfig::default()
    };
    let burst = || -> Vec<FleetJobRequest> {
        (0..jobs)
            .map(|i| {
                let n = 256usize << (i % 3);
                let data: Vec<u32> = (0..n as u32).rev().collect();
                FleetJobRequest::new(
                    format!("sort-{i}-n{n}"),
                    ScheduleSpec::GpuOnly,
                    0.0,
                    AlgoJob::boxed(MergeSort::new(), data),
                )
            })
            .collect()
    };
    let specs = |doom: Option<u64>| -> Vec<NodeSpec> {
        (0..nodes)
            .map(|i| {
                let mut serve = base.clone();
                if let (Some(seed), 0) = (doom, i) {
                    serve.faults = Some(FaultConfig::new(
                        FaultPlan::new(seed).with_device_loss_at(25),
                    ));
                }
                NodeSpec::new(format!("n{i}"), machine.clone()).with_serve(serve)
            })
            .collect()
    };

    let clean = fleet_sim(&FleetConfig::new(specs(None)), burst());
    for seed in SEEDS {
        let faulted = fleet_sim(&FleetConfig::new(specs(Some(seed))), burst());

        // The dead node's queue was rerouted, not abandoned: DeviceLost
        // migrations exist, all flow out of node 0, and every rerouted job
        // shows up in its receiving node's report.
        let rerouted: Vec<_> = faulted
            .steals
            .iter()
            .filter(|e| e.reason == StealReason::DeviceLost)
            .collect();
        assert!(
            !rerouted.is_empty(),
            "seed {seed}: losing node 0's GPU must evacuate its queue (steals: {:?})",
            faulted.steals
        );
        assert!(rerouted.iter().all(|e| e.from == 0));
        for e in &rerouted {
            assert!(
                faulted.nodes[e.to]
                    .report
                    .jobs
                    .iter()
                    .any(|r| r.id == e.job),
                "seed {seed}: rerouted job {} must be accounted for by node {}",
                e.job,
                e.to
            );
        }
        // Every submission still ends in a typed terminal state.
        let r = &faulted.report;
        assert_eq!(
            r.completed + r.failed + r.cancelled + r.rejected,
            jobs,
            "seed {seed}: outcomes must partition the fleet: {r:?}"
        );
        // Goodput bound: one dead GPU out of four identical nodes costs at
        // most a quarter of the fleet's goodput.
        let share = 1.0 / nodes as f64;
        assert!(
            faulted.report.goodput >= clean.report.goodput - share - 1e-9,
            "seed {seed}: goodput fell past the dead node's capacity share: clean {} vs faulted {}",
            clean.report.goodput,
            faulted.report.goodput
        );
    }
}

/// Satellite 3: a breaker trip concurrent with calibration-triggered
/// replanning must neither double-compile a job nor re-admit one that
/// already reached a terminal state — exactly one record per submission,
/// with both mechanisms demonstrably active in the same run.
#[test]
fn breaker_trip_during_replan_neither_double_compiles_nor_readmits() {
    let cfg = MachineConfig::tiny();
    let truth = MachineParams::from_config(&cfg);
    let assumed = MachineParams::new(truth.p, truth.g, (truth.gamma * 2.0).min(1.0))
        .expect("skewed gamma stays legal")
        .with_transfer_cost(truth.lambda, truth.delta);
    let jobs = 18;
    for seed in SEEDS {
        let plan = FaultPlan::new(seed)
            .with_kernel_rate(0.1)
            .with_device_loss_at(120);
        let serve = ServeConfig {
            queue_capacity: jobs,
            assumed: Some(assumed.clone()),
            calibration: Some(CalibratorConfig::default()),
            faults: Some(FaultConfig::new(plan)),
            ..ServeConfig::default()
        };
        let out = serve_sim(&cfg, &serve, fleet(jobs, 500.0));

        // No double-compile / no re-admission: ids are unique and cover the
        // fleet exactly once.
        let mut ids: Vec<u64> = out.report.jobs.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(
            ids.len(),
            jobs,
            "seed {seed}: every submission must produce exactly one record"
        );
        assert_eq!(out.report.jobs.len(), jobs);
        // Both mechanisms really fired in this run.
        assert!(
            out.replans >= 1,
            "seed {seed}: a 2x gamma skew with calibration on must replan"
        );
        assert!(
            out.report.breaker_trips >= 1,
            "seed {seed}: device loss must trip the breaker"
        );
        // And the fleet still partitions into typed terminal states.
        assert_eq!(
            out.report.completed + out.report.failed + out.report.cancelled + out.report.rejected,
            jobs
        );
    }
}
