//! End-to-end scheduler behavior over the simulated machine.

use hpu_algos::{DcSum, MergeSort};
use hpu_core::CoreError;
use hpu_machine::MachineConfig;
use hpu_model::ScheduleSpec;
use hpu_obs::JobOutcome;
use hpu_serve::{serve_sim, AlgoJob, JobRequest, Policy, ServeConfig, ServeError, ServeOutput};

fn input(n: usize) -> Vec<u64> {
    (0..n as u64).rev().collect()
}

fn sort_job(name: &str, spec: ScheduleSpec, n: usize, arrival: f64) -> JobRequest {
    JobRequest::new(
        name,
        spec,
        arrival,
        AlgoJob::boxed(MergeSort::new(), input(n)),
    )
}

fn solo_makespan(cfg: &MachineConfig, serve: &ServeConfig, job: JobRequest) -> f64 {
    let out = serve_sim(cfg, serve, vec![job]);
    assert_eq!(out.report.completed, 1, "solo job must complete");
    out.report.makespan
}

fn start_of(out: &ServeOutput, id: u64) -> f64 {
    out.report
        .jobs
        .iter()
        .find(|r| r.id == id)
        .expect("job record exists")
        .start
}

/// Acceptance (a): two GPU-wanting jobs must serialize their GPU
/// segments (exclusive lease) while their CPU segments overlap the other
/// job's GPU work, so serving both takes strictly less virtual time than
/// running them back to back.
#[test]
fn gpu_segments_serialize_while_cpu_work_overlaps() {
    let cfg = MachineConfig::hpu1_sim();
    let serve = ServeConfig {
        cpu_fallback: false,
        ..Default::default()
    };
    let spec = ScheduleSpec::Basic { crossover: Some(6) };
    let n = 1 << 12;
    let solo_a = solo_makespan(&cfg, &serve, sort_job("a", spec.clone(), n, 0.0));
    let solo_b = solo_makespan(&cfg, &serve, sort_job("b", spec.clone(), n, 0.0));

    let out = serve_sim(
        &cfg,
        &serve,
        vec![
            sort_job("a", spec.clone(), n, 0.0),
            sort_job("b", spec, n, 0.0),
        ],
    );
    assert_eq!(out.report.completed, 2);
    // One GPU lease per job, strictly serialized.
    assert_eq!(out.gpu_leases.len(), 2);
    let (_, e0) = out.gpu_leases[0];
    let (s1, _) = out.gpu_leases[1];
    assert!(e0 <= s1 + 1e-9, "GPU leases overlap: end {e0} > start {s1}");
    // Job b's GPU band ran under job a's CPU band: the fleet finishes
    // strictly earlier than back-to-back solos.
    assert!(
        out.report.makespan < solo_a + solo_b - 1e-9,
        "no overlap: fleet {} vs serial {}",
        out.report.makespan,
        solo_a + solo_b
    );
}

/// Acceptance (b): a full admission queue rejects new arrivals with a
/// typed error instead of blocking.
#[test]
fn full_queue_rejects_instead_of_blocking() {
    let cfg = MachineConfig::hpu1_sim();
    let serve = ServeConfig {
        queue_capacity: 1,
        cpu_fallback: false,
        ..Default::default()
    };
    let jobs = (0..3)
        .map(|i| sort_job(&format!("j{i}"), ScheduleSpec::GpuOnly, 1 << 10, 0.0))
        .collect();
    let out = serve_sim(&cfg, &serve, jobs);
    // j0 dispatches, j1 queues, j2 bounces off the bounded queue.
    assert_eq!(out.report.completed, 2);
    assert_eq!(out.report.rejected, 1);
    assert!(out.errors.iter().any(|e| matches!(
        e,
        ServeError::QueueFull {
            job: 2,
            capacity: 1
        }
    )));
    let rec = out.report.jobs.iter().find(|r| r.id == 2).unwrap();
    assert_eq!(rec.outcome, JobOutcome::QueueFull);
}

/// Acceptance (c): fleet latency percentiles are ordered, utilizations
/// are true fractions, and throughput is completions over makespan.
#[test]
fn fleet_report_is_internally_consistent() {
    let cfg = MachineConfig::hpu1_sim();
    let serve = ServeConfig::default();
    let mut jobs = Vec::new();
    for i in 0..10u64 {
        let n = 1 << (8 + (i % 3));
        let spec = match i % 3 {
            0 => ScheduleSpec::CpuParallel,
            1 => ScheduleSpec::GpuOnly,
            _ => ScheduleSpec::Basic { crossover: Some(4) },
        };
        let arrival = i as f64 * 1_000.0;
        let job = if i % 2 == 0 {
            JobRequest::new(
                format!("sort-{i}"),
                spec,
                arrival,
                AlgoJob::boxed(MergeSort::new(), input(n)),
            )
        } else {
            JobRequest::new(
                format!("sum-{i}"),
                spec,
                arrival,
                AlgoJob::boxed(DcSum, input(n)),
            )
        };
        jobs.push(job);
    }
    let out = serve_sim(&cfg, &serve, jobs);
    let r = &out.report;
    assert_eq!(r.completed, 10);
    assert!(r.p50_latency <= r.p95_latency);
    assert!(r.p95_latency <= r.p99_latency);
    assert!(r.p99_latency <= r.max_latency);
    assert!(r.cpu_utilization <= 1.0 + 1e-9);
    assert!(r.gpu_utilization <= 1.0 + 1e-9);
    assert!((r.throughput - r.completed as f64 / r.makespan).abs() < 1e-12);
    // Every completed job carries a positive cost prediction and drift.
    assert!(r.mean_abs_drift.is_finite());
}

/// Shortest-predicted-cost-first lets a cheap late arrival overtake an
/// expensive earlier one; FIFO does not.
#[test]
fn shortest_cost_overtakes_where_fifo_waits() {
    let cfg = MachineConfig::hpu1_sim();
    let jobs = || {
        vec![
            sort_job("busy", ScheduleSpec::CpuParallel, 1 << 12, 0.0),
            sort_job("big", ScheduleSpec::CpuParallel, 1 << 12, 0.0),
            sort_job("small", ScheduleSpec::CpuParallel, 1 << 8, 0.0),
        ]
    };
    let spcf = serve_sim(&cfg, &ServeConfig::default(), jobs());
    let fifo = serve_sim(
        &cfg,
        &ServeConfig {
            policy: Policy {
                starvation_bound: 0,
            },
            ..Default::default()
        },
        jobs(),
    );
    assert_eq!(spcf.report.completed, 3);
    assert_eq!(fifo.report.completed, 3);
    assert!(
        start_of(&spcf, 2) < start_of(&spcf, 1),
        "SPCF should run the small job before the big one"
    );
    assert!(
        start_of(&fifo, 1) <= start_of(&fifo, 2),
        "FIFO must preserve arrival order"
    );
}

/// The starvation bound caps how many times a queued job is overtaken:
/// with bound 2, exactly two short jobs pass the long one before it
/// becomes rigid and dispatches.
#[test]
fn starvation_bound_limits_overtaking() {
    let cfg = MachineConfig::hpu1_sim();
    let serve = ServeConfig {
        policy: Policy {
            starvation_bound: 2,
        },
        cpu_fallback: false,
        ..Default::default()
    };
    let mut jobs = vec![
        sort_job("filler", ScheduleSpec::CpuParallel, 1 << 10, 0.0),
        sort_job("long", ScheduleSpec::CpuParallel, 1 << 12, 0.0),
    ];
    for i in 0..4 {
        jobs.push(sort_job(
            &format!("short-{i}"),
            ScheduleSpec::CpuParallel,
            1 << 8,
            0.0,
        ));
    }
    let out = serve_sim(&cfg, &serve, jobs);
    assert_eq!(out.report.completed, 6);
    let long_start = start_of(&out, 1);
    let overtakes = out
        .report
        .jobs
        .iter()
        .filter(|r| r.id >= 2 && r.start < long_start - 1e-9)
        .count();
    assert_eq!(overtakes, 2, "bound 2 admits exactly two overtakes");
}

/// A deadline that provably cannot be met cancels the job with a typed
/// error instead of letting it rot in the queue.
#[test]
fn unmeetable_deadline_cancels_the_job() {
    let cfg = MachineConfig::hpu1_sim();
    let serve = ServeConfig {
        cpu_fallback: false,
        ..Default::default()
    };
    let solo = solo_makespan(
        &cfg,
        &serve,
        sort_job("long", ScheduleSpec::GpuOnly, 1 << 12, 0.0),
    );
    let jobs = vec![
        sort_job("long", ScheduleSpec::GpuOnly, 1 << 12, 0.0),
        sort_job("tight", ScheduleSpec::GpuOnly, 1 << 8, 0.0).with_deadline(solo * 0.5),
    ];
    let out = serve_sim(&cfg, &serve, jobs);
    assert_eq!(out.report.completed, 1);
    assert_eq!(out.report.cancelled, 1);
    assert!(out
        .errors
        .iter()
        .any(|e| matches!(e, ServeError::Cancelled { job: 1, .. })));
    let rec = out.report.jobs.iter().find(|r| r.id == 1).unwrap();
    assert_eq!(rec.outcome, JobOutcome::Cancelled);
}

/// While a hog holds the GPU lease, a small GPU job reroutes onto its
/// CPU-only fallback plan instead of waiting for the device.
#[test]
fn contended_gpu_takes_the_cpu_fallback() {
    let cfg = MachineConfig::hpu1_sim();
    let serve = ServeConfig::default();
    let jobs = vec![
        sort_job("hog", ScheduleSpec::GpuOnly, 1 << 13, 0.0),
        sort_job("nimble", ScheduleSpec::GpuOnly, 1 << 8, 0.0),
    ];
    let out = serve_sim(&cfg, &serve, jobs);
    assert_eq!(out.report.completed, 2);
    let rec = out.report.jobs.iter().find(|r| r.id == 1).unwrap();
    assert!(rec.fallback, "nimble should have taken the CPU fallback");
    let run = out.runs.iter().find(|r| r.id == 1).unwrap();
    assert!(run.fallback);
    // Only the hog ever leased the device.
    assert_eq!(out.gpu_leases.len(), 1);
}

/// A plan compiled for one input cannot silently run on another.
#[test]
fn plans_are_validated_against_their_input() {
    use hpu_core::exec::{run_sim_plan, RunOpts};
    use hpu_machine::{SimHpu, SimMachineParams};
    use hpu_model::{compile, MachineParams};

    let cfg = MachineConfig::tiny();
    let params = MachineParams::from_config(&cfg);
    let algo = MergeSort::new();
    let rec = hpu_core::BfAlgorithm::<u64>::recurrence(&algo);
    let levels = hpu_core::bf::num_levels::<u64>(&algo, 256).unwrap();
    let plan = compile(&ScheduleSpec::CpuParallel, &params, &rec, 256, levels).unwrap();
    let mut data = input(512);
    let mut hpu = SimHpu::new(cfg);
    let (got, _) = run_sim_plan(&algo, &mut data, &mut hpu, &plan, &RunOpts::default());
    assert!(matches!(got, Err(CoreError::MalformedPlan { .. })));
}

/// Regression: a plan with zero segments must be rejected with a typed
/// error by both the cost model and the executor — not panic with an
/// index underflow inside the scheduler's demand folding.
#[test]
fn empty_plans_are_rejected_not_priced_or_run() {
    use hpu_core::exec::{run_sim_plan, RunOpts};
    use hpu_machine::SimHpu;
    use hpu_model::{plan_cost, LevelProfile, MachineParams, ModelError, Plan, Recurrence};

    let params = MachineParams::hpu1();
    let rec = Recurrence::mergesort();
    let profile = LevelProfile::new(&params, &rec, 256);
    let empty = Plan {
        n: 256,
        exec_levels: 8,
        segments: Vec::new(),
        resolved: ScheduleSpec::CpuParallel,
    };
    assert!(matches!(
        plan_cost(&profile, &empty),
        Err(ModelError::EmptyPlan)
    ));
    let mut data = input(256);
    let mut hpu = SimHpu::new(MachineConfig::tiny());
    let (got, _) = run_sim_plan(
        &MergeSort::new(),
        &mut data,
        &mut hpu,
        &empty,
        &RunOpts::default(),
    );
    assert!(matches!(got, Err(CoreError::MalformedPlan { .. })));
}

fn miscalibrated_serve(cfg: &MachineConfig) -> ServeConfig {
    use hpu_machine::SimMachineParams;
    use hpu_model::{CalibratorConfig, MachineParams};

    // The scheduler believes the GPU is twice as fast as it really is.
    let truth = MachineParams::from_config(cfg);
    let assumed = MachineParams::new(truth.p, truth.g, (truth.gamma * 2.0).min(1.0))
        .unwrap()
        .with_transfer_cost(truth.lambda, truth.delta);
    ServeConfig {
        assumed: Some(assumed),
        calibration: Some(CalibratorConfig::default()),
        cpu_fallback: false,
        ..Default::default()
    }
}

/// Tentpole acceptance: on a machine whose γ is mis-specified by 2×, the
/// calibration loop fires at least one drift-triggered replan, later jobs
/// are priced under a positive calibration generation, and their drift is
/// smaller than the uncalibrated first jobs'.
#[test]
fn calibration_replans_and_shrinks_drift() {
    let cfg = MachineConfig::hpu1_sim();
    let serve = miscalibrated_serve(&cfg);
    let jobs: Vec<JobRequest> = (0..8)
        .map(|i| sort_job(&format!("j{i}"), ScheduleSpec::GpuOnly, 1 << 10, 0.0))
        .collect();
    let out = serve_sim(&cfg, &serve, jobs);
    assert_eq!(out.report.completed, 8);
    assert!(out.replans >= 1, "a 2x gamma error must trigger a replan");
    let cal = out.calibration.expect("calibration state is reported");
    assert!(cal.samples >= 1);
    assert!(
        cal.gamma_scale < 0.95,
        "gamma correction should shrink toward the truth, got {}",
        cal.gamma_scale
    );
    let last = out.report.jobs.iter().find(|r| r.id == 7).unwrap();
    assert!(last.calibration_generation >= 1);
    assert!(
        out.report.mean_abs_drift_after < out.report.mean_abs_drift_before,
        "calibrated jobs should drift less: after {} vs before {}",
        out.report.mean_abs_drift_after,
        out.report.mean_abs_drift_before
    );
}

/// Calibration keeps the scheduler deterministic: two identical runs
/// produce identical reports, replan counts and final corrections.
#[test]
fn calibrated_serving_is_deterministic() {
    let cfg = MachineConfig::hpu1_sim();
    let serve = miscalibrated_serve(&cfg);
    let jobs = || -> Vec<JobRequest> {
        (0..6)
            .map(|i| {
                sort_job(
                    &format!("j{i}"),
                    ScheduleSpec::GpuOnly,
                    1 << 10,
                    i as f64 * 10.0,
                )
            })
            .collect()
    };
    let a = serve_sim(&cfg, &serve, jobs());
    let b = serve_sim(&cfg, &serve, jobs());
    assert_eq!(a.report, b.report);
    assert_eq!(a.replans, b.replans);
    assert_eq!(a.calibration, b.calibration);
}

/// Without calibration nothing replans and no correction state is
/// reported — the open-loop behavior is preserved bit for bit.
#[test]
fn calibration_off_means_no_replans() {
    let cfg = MachineConfig::hpu1_sim();
    let serve = ServeConfig::default();
    let jobs = vec![
        sort_job("a", ScheduleSpec::GpuOnly, 1 << 10, 0.0),
        sort_job("b", ScheduleSpec::GpuOnly, 1 << 10, 0.0),
    ];
    let out = serve_sim(&cfg, &serve, jobs);
    assert_eq!(out.report.completed, 2);
    assert_eq!(out.replans, 0);
    assert!(out.calibration.is_none());
    assert!(out
        .report
        .jobs
        .iter()
        .all(|r| r.calibration_generation == 0));
}

/// An invalid calibration configuration surfaces as a typed error and
/// disables the loop instead of poisoning the run.
#[test]
fn invalid_calibration_config_disables_the_loop() {
    use hpu_model::CalibratorConfig;

    let cfg = MachineConfig::hpu1_sim();
    let serve = ServeConfig {
        calibration: Some(CalibratorConfig {
            smoothing: 0.0,
            ..Default::default()
        }),
        ..Default::default()
    };
    let out = serve_sim(
        &cfg,
        &serve,
        vec![sort_job("a", ScheduleSpec::CpuParallel, 1 << 8, 0.0)],
    );
    assert_eq!(out.report.completed, 1);
    assert!(out.calibration.is_none());
    assert!(out
        .errors
        .iter()
        .any(|e| matches!(e, ServeError::Calibration { job: None, .. })));
}

/// The native path serves a small fleet on real threads and reports
/// ordered percentiles.
#[test]
fn native_serving_completes_a_small_fleet() {
    use hpu_serve::{serve_native, NativeJobRequest};

    let serve = ServeConfig::default();
    let jobs = (0..6u64)
        .map(|i| {
            NativeJobRequest::new(
                format!("sort-{i}"),
                i * 200,
                AlgoJob::boxed(MergeSort::new(), input(1 << 10)),
            )
        })
        .collect();
    let out = serve_native(&serve, 2, 2, jobs);
    let r = &out.report;
    assert_eq!(r.completed, 6);
    assert!(out.errors.is_empty());
    assert!(r.p50_latency <= r.p95_latency && r.p99_latency <= r.max_latency);
    assert!(r.cpu_utilization <= 1.0 + 1e-9, "busy intervals are merged");
    assert!(r.throughput > 0.0);
    // Without calibration the native path never learns a scale.
    assert_eq!(out.calibration_updates, 0);
    assert!(r.jobs.iter().all(|j| j.predicted == 0.0));
}

/// A panic inside a pool task reaches the job boundary with its own
/// payload, so the typed failure carries the job's message rather than the
/// thread scope's generic one.
#[test]
fn native_worker_panic_keeps_the_job_message() {
    use hpu_core::charge::Charge;
    use hpu_core::BfAlgorithm;
    use hpu_model::Recurrence;
    use hpu_serve::{serve_native, NativeJobRequest};

    /// A sum whose combine panics on 4-element chunks: a level of 16
    /// tasks at n = 64.
    struct Exploding;

    impl BfAlgorithm<u64> for Exploding {
        fn name(&self) -> &'static str {
            "exploding"
        }
        fn base_case(&self, _chunk: &mut [u64], _charge: &mut dyn Charge) {}
        fn combine(&self, src: &[u64], dst: &mut [u64], _charge: &mut dyn Charge) {
            if src.len() == 4 {
                panic!("combine exploded at chunk 4");
            }
            dst[0] = src[0] + src[src.len() / 2];
        }
        fn recurrence(&self) -> Recurrence {
            Recurrence::dc_sum()
        }
    }

    let jobs = vec![NativeJobRequest::new(
        "boom",
        0,
        AlgoJob::boxed(Exploding, vec![1u64; 64]),
    )];
    let out = serve_native(&ServeConfig::default(), 1, 2, jobs);
    assert_eq!(out.report.completed, 0);
    let messages: Vec<&str> = out
        .errors
        .iter()
        .filter_map(|e| match e {
            ServeError::WorkerPanic { message, .. } => Some(message.as_str()),
            _ => None,
        })
        .collect();
    assert_eq!(messages, vec!["combine exploded at chunk 4"]);
}

/// With calibration on, the native fleet learns a µs-per-op scale from
/// completions, so later jobs carry real wall-clock predictions.
#[test]
fn native_calibration_learns_a_prediction_scale() {
    use hpu_model::CalibratorConfig;
    use hpu_serve::{serve_native, NativeJobRequest};

    let serve = ServeConfig {
        calibration: Some(CalibratorConfig::default()),
        ..Default::default()
    };
    let jobs = (0..5u64)
        .map(|i| {
            NativeJobRequest::new(
                format!("sort-{i}"),
                i * 30_000,
                AlgoJob::boxed(MergeSort::new(), input(1 << 10)),
            )
        })
        .collect();
    let out = serve_native(&serve, 1, 2, jobs);
    assert_eq!(out.report.completed, 5);
    assert!(out.calibration_updates >= 1);
    assert!(
        out.report
            .jobs
            .iter()
            .any(|r| r.predicted > 0.0 && r.calibration_generation >= 1),
        "jobs priced after the first completion should carry predictions"
    );
}

/// The plan cache is observationally transparent: serving with it on
/// produces identical job records to serving with it off, while
/// deduplicating compiles and reporting a positive hit rate.
#[test]
fn plan_cache_is_transparent_and_dedupes_compiles() {
    let cfg = MachineConfig::hpu1_sim();
    let spec = ScheduleSpec::Basic { crossover: Some(6) };
    let jobs = || -> Vec<JobRequest> {
        (0..6)
            .map(|i| sort_job(&format!("j{i}"), spec.clone(), 1 << 10, i as f64 * 5.0))
            .collect()
    };
    let cached = serve_sim(&cfg, &ServeConfig::default(), jobs());
    let uncached = serve_sim(
        &cfg,
        &ServeConfig {
            plan_cache: None,
            ..Default::default()
        },
        jobs(),
    );
    assert_eq!(cached.report.jobs, uncached.report.jobs);
    let stats = cached.plan_cache.expect("cache stats are reported");
    assert!(stats.hits >= 1, "duplicate shapes must hit the cache");
    assert!(cached.report.plan_cache_hits >= 1);
    assert!(cached.report.plan_cache_hit_rate() > 0.0);
    assert!(uncached.plan_cache.is_none());
    assert_eq!(uncached.report.plan_cache_hits, 0);
    assert_eq!(uncached.report.plan_cache_hit_rate(), 0.0);
}

/// Acceptance: a drift-triggered calibration replan is a generation bump
/// plus lazy cache re-fill, not a synchronous recompile storm. With the
/// cache on, the same miscalibrated fleet needs strictly fewer fresh
/// compiles than with it off, because queued jobs sharing a shape
/// compile once per generation and unchanged plans merely re-price.
#[test]
fn replan_bumps_generation_instead_of_recompiling_queued_jobs() {
    use hpu_obs::{MetricValue, MetricsRegistry};
    use std::sync::Arc;

    let cfg = MachineConfig::hpu1_sim();
    let run = |plan_cache: Option<usize>| -> (u64, u64) {
        let metrics = Arc::new(MetricsRegistry::new());
        let serve = ServeConfig {
            metrics: Some(metrics.clone()),
            plan_cache,
            ..miscalibrated_serve(&cfg)
        };
        // Simultaneous arrivals: the GPU lease serializes the fleet, so
        // most jobs are still queued when the first completion's drift
        // evidence triggers the replan.
        let jobs: Vec<JobRequest> = (0..8)
            .map(|i| sort_job(&format!("j{i}"), ScheduleSpec::GpuOnly, 1 << 10, 0.0))
            .collect();
        let out = serve_sim(&cfg, &serve, jobs);
        assert_eq!(out.report.completed, 8);
        let snap = metrics.snapshot();
        let compiles = match snap.get("model.compiles") {
            Some(MetricValue::Counter(c)) => *c,
            other => panic!("model.compiles: expected a counter, got {other:?}"),
        };
        (compiles, out.replans)
    };
    let (with_cache, replans_on) = run(Some(64));
    let (without_cache, replans_off) = run(None);
    assert!(replans_on >= 1, "drift must trigger a replan (cache on)");
    assert!(replans_off >= 1, "drift must trigger a replan (cache off)");
    assert!(
        with_cache < without_cache,
        "the cache must cut replan compiles: {with_cache} (on) vs {without_cache} (off)"
    );
}
