//! The serving experiment: open-loop arrival of mixed D&C jobs on the
//! multi-job scheduler, on both the simulated and the native backend.
//!
//! The arrival rate is expressed as *offered load*: `rate = 1` submits
//! jobs, on average, exactly as fast as a solo reference job completes;
//! `rate = 0.5` underloads and `rate = 2` overloads the machine. Gaps are
//! exponentially distributed from a seeded [`SplitMix64`], so every run
//! is reproducible from `(jobs, rate, seed)` alone.

use hpu_algos::mergesort::MergeSort;
use hpu_algos::sum::DcSum;
use hpu_machine::{MachineConfig, SimMachineParams};
use hpu_model::{CalibratorConfig, MachineParams, ScheduleSpec};
use hpu_obs::{JobOutcome, JobRecord, ServeReport};
use hpu_serve::{
    serve_native, serve_sim, AlgoJob, JobRequest, NativeJobRequest, ServeConfig, Workload,
};

use crate::experiments::Csv;
use crate::workload::{uniform_input, SplitMix64};

/// Which serving backend(s) to drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeBackend {
    /// Virtual time on the simulated machine.
    Sim,
    /// Wall clock on real threads.
    Native,
    /// Both, one CSV row group per backend.
    Both,
}

/// Exponentially distributed gap with the given mean.
pub(crate) fn exp_gap(rng: &mut SplitMix64, mean: f64) -> f64 {
    let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    -(1.0 - u).ln() * mean
}

/// The mixed fleet: mergesort and d&c-sum jobs over a spread of sizes and
/// schedules. `make(i)` is the workload for job `i`; sizes cycle through
/// `2^8..2^11` and schedules through basic-hybrid / GPU-only / CPU-parallel.
pub(crate) fn job_mix(i: usize, seed: u64) -> (String, ScheduleSpec, Box<dyn Workload>) {
    let n = 1usize << (8 + (i % 4));
    let spec = match i % 3 {
        0 => ScheduleSpec::Basic { crossover: Some(4) },
        1 => ScheduleSpec::GpuOnly,
        _ => ScheduleSpec::CpuParallel,
    };
    let job_seed = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    if i.is_multiple_of(2) {
        (
            format!("sort-{i}-n{n}"),
            spec,
            AlgoJob::boxed(MergeSort::new(), uniform_input(n, job_seed)),
        )
    } else {
        let mut rng = SplitMix64::new(job_seed);
        let data: Vec<u64> = (0..n).map(|_| rng.below(1 << 20)).collect();
        (format!("sum-{i}-n{n}"), spec, AlgoJob::boxed(DcSum, data))
    }
}

fn report_row(backend: &str, rate: f64, submitted: usize, r: &ServeReport) -> Vec<String> {
    let f = |v: f64| format!("{v:.4}");
    vec![
        backend.to_string(),
        format!("{rate}"),
        submitted.to_string(),
        r.completed.to_string(),
        r.rejected.to_string(),
        r.cancelled.to_string(),
        r.failed.to_string(),
        format!("{:.6}", r.throughput),
        f(r.p50_latency),
        f(r.p95_latency),
        f(r.p99_latency),
        f(r.max_latency),
        f(r.cpu_utilization),
        f(r.gpu_utilization),
        f(r.mean_abs_drift),
    ]
}

/// Solo virtual-time of a reference job, used to convert `rate` into a
/// mean inter-arrival gap for the simulated backend.
pub(crate) fn sim_reference_time(cfg: &MachineConfig, serve: &ServeConfig, seed: u64) -> f64 {
    let (name, spec, workload) = job_mix(0, seed);
    let out = serve_sim(cfg, serve, vec![JobRequest::new(name, spec, 0.0, workload)]);
    out.report.makespan.max(1.0)
}

/// Solo wall-time (µs) of a reference job on one native worker.
pub(crate) fn native_reference_us(serve: &ServeConfig, threads: usize, seed: u64) -> f64 {
    let (name, _, workload) = job_mix(0, seed);
    let out = serve_native(
        serve,
        1,
        threads,
        vec![NativeJobRequest::new(name, 0, workload)],
    );
    out.report.makespan.max(100.0)
}

/// Runs the serving benchmark: `jobs` submissions at each offered-load
/// `rate` on the selected backend(s); one CSV row per `(backend, rate)`.
pub fn serve_fleet(jobs: usize, rates: &[f64], backend: ServeBackend, seed: u64) -> Csv {
    let serve = ServeConfig::default();
    let mut rows = Vec::new();

    if matches!(backend, ServeBackend::Sim | ServeBackend::Both) {
        let cfg = MachineConfig::hpu1_sim();
        let solo = sim_reference_time(&cfg, &serve, seed);
        for &rate in rates {
            let mean_gap = solo / rate.max(1e-6);
            let mut rng = SplitMix64::new(seed ^ rate.to_bits());
            let mut t = 0.0;
            let fleet: Vec<JobRequest> = (0..jobs)
                .map(|i| {
                    let (name, spec, workload) = job_mix(i, seed);
                    t += exp_gap(&mut rng, mean_gap);
                    JobRequest::new(name, spec, t, workload)
                })
                .collect();
            let out = serve_sim(&cfg, &serve, fleet);
            rows.push(report_row("sim", rate, jobs, &out.report));
        }
    }

    if matches!(backend, ServeBackend::Native | ServeBackend::Both) {
        let (workers, threads) = (2, 2);
        let solo_us = native_reference_us(&serve, threads, seed);
        for &rate in rates {
            let mean_gap = solo_us / rate.max(1e-6);
            let mut rng = SplitMix64::new(seed ^ rate.to_bits());
            let mut t = 0.0;
            let fleet: Vec<NativeJobRequest> = (0..jobs)
                .map(|i| {
                    let (name, _, workload) = job_mix(i, seed);
                    t += exp_gap(&mut rng, mean_gap);
                    NativeJobRequest::new(name, t as u64, workload)
                })
                .collect();
            let out = serve_native(&serve, workers, threads, fleet);
            rows.push(report_row("native", rate, jobs, &out.report));
        }
    }

    Csv {
        name: "serve",
        header: vec![
            "backend",
            "rate",
            "submitted",
            "completed",
            "rejected",
            "cancelled",
            "failed",
            "throughput",
            "p50_latency",
            "p95_latency",
            "p99_latency",
            "max_latency",
            "cpu_util",
            "gpu_util",
            "mean_abs_drift",
        ],
        rows,
    }
}

/// Sort-only mix for the calibration sweep: sizes and schedules cycle as
/// in [`job_mix`], but the algorithm family is fixed so one correction
/// state fits the whole stream — mixing algorithms whose unmodeled
/// constants differ would thrash the shared work scale and measure model
/// mismatch, not the loop.
fn calibrate_mix(i: usize, seed: u64) -> (String, ScheduleSpec, Box<dyn Workload>) {
    let n = 1usize << (8 + (i % 4));
    let spec = match i % 3 {
        0 => ScheduleSpec::Basic { crossover: Some(4) },
        1 => ScheduleSpec::GpuOnly,
        _ => ScheduleSpec::CpuParallel,
    };
    let job_seed = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (
        format!("sort-{i}-n{n}"),
        spec,
        AlgoJob::boxed(MergeSort::new(), uniform_input(n, job_seed)),
    )
}

/// The calibration sweep: an open-loop fleet served on a machine whose
/// `γ` the scheduler initially believes is `gamma_skew`× its true value,
/// with the closed calibration loop on. One CSV row per *completed* job
/// in completion order, so the `abs_drift` column read top to bottom is
/// the convergence curve of the recalibrated cost model.
pub fn calibrate_sweep(jobs: usize, gamma_skew: f64, seed: u64) -> Csv {
    let cfg = MachineConfig::hpu1_sim();
    let truth = MachineParams::from_config(&cfg);
    let assumed = MachineParams::new(truth.p, truth.g, (truth.gamma * gamma_skew).min(1.0))
        .expect("skewed gamma stays legal after clamping")
        .with_transfer_cost(truth.lambda, truth.delta);
    let serve = ServeConfig {
        assumed: Some(assumed),
        calibration: Some(CalibratorConfig::default()),
        cpu_fallback: false,
        ..Default::default()
    };
    let (ref_name, ref_spec, ref_workload) = calibrate_mix(0, seed);
    let solo = serve_sim(
        &cfg,
        &serve,
        vec![JobRequest::new(ref_name, ref_spec, 0.0, ref_workload)],
    )
    .report
    .makespan
    .max(1.0);
    let mut rng = SplitMix64::new(seed);
    let mut t = 0.0;
    let fleet: Vec<JobRequest> = (0..jobs)
        .map(|i| {
            let (name, spec, workload) = calibrate_mix(i, seed);
            t += exp_gap(&mut rng, solo);
            JobRequest::new(name, spec, t, workload)
        })
        .collect();
    let out = serve_sim(&cfg, &serve, fleet);
    let mut completed: Vec<&JobRecord> = out
        .report
        .jobs
        .iter()
        .filter(|r| r.outcome == JobOutcome::Completed)
        .collect();
    completed.sort_by(|a, b| a.end.total_cmp(&b.end).then(a.id.cmp(&b.id)));
    let rows = completed
        .iter()
        .enumerate()
        .map(|(seq, r)| {
            vec![
                seq.to_string(),
                r.id.to_string(),
                r.name.clone(),
                r.calibration_generation.to_string(),
                format!("{:.4}", r.predicted),
                format!("{:.4}", r.service),
                format!("{:.6}", r.drift().map_or(0.0, f64::abs)),
                out.replans.to_string(),
            ]
        })
        .collect();
    Csv {
        name: "calibrate",
        header: vec![
            "seq",
            "job",
            "name",
            "generation",
            "predicted",
            "service",
            "abs_drift",
            "replans",
        ],
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpu_obs::JobOutcome;

    fn rec(
        id: u64,
        outcome: JobOutcome,
        (arrival, start, end): (f64, f64, f64),
        predicted: f64,
        service: f64,
    ) -> JobRecord {
        JobRecord {
            id,
            name: format!("job-{id}"),
            outcome,
            arrival,
            start,
            end,
            predicted,
            service,
            fallback: false,
            retries: 0,
            degraded: false,
            calibration_generation: 0,
        }
    }

    /// Golden serialization of one serving CSV row: a hand-built
    /// [`ServeReport`] with exactly known percentiles, utilizations and
    /// drift renders to a pinned string — any column addition, reorder or
    /// format change must update this test.
    #[test]
    fn serve_csv_row_renders_golden() {
        // Latencies 2, 4, 8: the report's streaming histogram puts p50 in
        // the log-bucket holding 4 (rendering as 4.0436, within one bucket
        // width of exact) and clamps p95/p99 to the exact max 8. Drifts
        // 0.5, 0.5, 0.25 → mean 0.4167. Makespan 10, so the throughput is
        // 0.3 and busy times 6 / 2.5 become 0.6 / 0.25.
        let jobs = vec![
            rec(0, JobOutcome::Completed, (0.0, 0.5, 2.0), 1.0, 1.5),
            rec(1, JobOutcome::Completed, (1.0, 2.0, 5.0), 2.0, 3.0),
            rec(2, JobOutcome::Completed, (2.0, 5.0, 10.0), 4.0, 5.0),
            rec(3, JobOutcome::QueueFull, (3.0, 3.0, 3.0), 0.0, 0.0),
        ];
        let report = ServeReport::new(jobs, 6.0, 2.5);
        let csv = Csv {
            name: "serve",
            header: vec![
                "backend",
                "rate",
                "submitted",
                "completed",
                "rejected",
                "cancelled",
                "failed",
                "throughput",
                "p50_latency",
                "p95_latency",
                "p99_latency",
                "max_latency",
                "cpu_util",
                "gpu_util",
                "mean_abs_drift",
            ],
            rows: vec![report_row("sim", 0.5, 4, &report)],
        };
        assert_eq!(
            csv.render(),
            "backend,rate,submitted,completed,rejected,cancelled,failed,throughput,\
             p50_latency,p95_latency,p99_latency,max_latency,cpu_util,gpu_util,mean_abs_drift\n\
             sim,0.5,4,3,1,0,0,0.300000,4.0436,8.0000,8.0000,8.0000,0.6000,0.2500,0.4167\n"
        );
    }

    #[test]
    fn sim_rows_are_deterministic_per_seed() {
        let a = serve_fleet(8, &[0.5, 2.0], ServeBackend::Sim, 42);
        let b = serve_fleet(8, &[0.5, 2.0], ServeBackend::Sim, 42);
        assert_eq!(a, b);
        assert_eq!(a.rows.len(), 2);
        assert!(a.rows.iter().all(|r| r[0] == "sim"));
    }

    #[test]
    fn both_backends_emit_every_rate() {
        let csv = serve_fleet(4, &[0.5, 2.0], ServeBackend::Both, 7);
        assert_eq!(csv.rows.len(), 4);
        assert_eq!(csv.rows.iter().filter(|r| r[0] == "sim").count(), 2);
        assert_eq!(csv.rows.iter().filter(|r| r[0] == "native").count(), 2);
    }

    /// The ISSUE acceptance criterion: on a config whose γ is assumed 2×
    /// too fast, the mean |drift| over the last quartile of completed jobs
    /// is strictly below the first quartile's.
    #[test]
    fn calibrate_sweep_shrinks_drift_across_quartiles() {
        let csv = calibrate_sweep(24, 2.0, 42);
        let drifts: Vec<f64> = csv
            .rows
            .iter()
            .map(|r| r[6].parse().expect("abs_drift column parses"))
            .collect();
        assert!(drifts.len() >= 8, "most of the fleet should complete");
        let q = drifts.len() / 4;
        let first = drifts[..q].iter().sum::<f64>() / q as f64;
        let last = drifts[drifts.len() - q..].iter().sum::<f64>() / q as f64;
        assert!(
            last < first,
            "mean |drift| should shrink over the stream: first quartile {first:.4}, \
             last quartile {last:.4}"
        );
        // Rows arrive in completion order and carry the replan count.
        let replans: u64 = csv.rows[0][7].parse().unwrap();
        assert!(replans >= 1, "a 2x gamma error must trigger replanning");
        assert!(
            csv.rows.last().unwrap()[3].parse::<u64>().unwrap() >= 1,
            "late jobs should be priced under a recalibrated generation"
        );
    }
}
