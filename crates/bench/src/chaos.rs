//! The chaos experiment: the serving fleet of [`crate::serve_fleet`]
//! under seeded device-fault injection, swept over a grid of fault
//! rates. One CSV row per `(backend, fault_rate)` pair reports how
//! goodput and latency degrade as faults intensify.
//!
//! The fault model is hash-coupled (see [`hpu_machine::FaultPlan`]): a
//! device operation faults iff a seeded per-ordinal draw falls below the
//! rate, so the fault set at a low rate is a subset of the fault set at
//! any higher rate under the same seed. That nesting is what makes the
//! goodput column monotone in the rate — more faults can only be
//! strictly worse, never accidentally better.
//!
//! On the simulated backend faults come from the machine itself (kernel
//! launches and bus transfers); on the native backend there is no
//! simulated device, so chaos instead wraps each workload in a
//! deterministic panic injector exercising the panic-safe worker path.

use std::time::Duration;

use hpu_core::exec::{RecoveryPolicy, RecoveryStats, RunOpts, RunReport};
use hpu_core::{CoreError, LevelPool};
use hpu_machine::{FaultPlan, MachineConfig, SimHpu};
use hpu_model::{Plan, Recurrence};
use hpu_obs::ServeReport;
use hpu_serve::{
    serve_native, serve_sim, FaultConfig, JobRequest, NativeJobRequest, ServeConfig, Workload,
};

use crate::experiments::Csv;
use crate::serving::{exp_gap, job_mix, native_reference_us, sim_reference_time};
use crate::workload::SplitMix64;
use crate::ServeBackend;

/// Uniform draw in `[0, 1)` keyed by `(seed, job, attempt)`. The value
/// does not depend on the rate it is compared against, so per-attempt
/// panic sets nest exactly like the machine-level fault sets.
fn chaos_draw(seed: u64, job: u64, attempt: u64) -> f64 {
    let key = seed
        ^ job.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ attempt.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    (SplitMix64::new(key).next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// A [`Workload`] wrapper that deterministically panics in
/// `run_native` when the seeded draw for the current attempt falls
/// below `rate` — the native-backend stand-in for device faults,
/// driving the scheduler's `catch_unwind`/retry path.
struct PanicInjector {
    inner: Box<dyn Workload>,
    seed: u64,
    job: u64,
    rate: f64,
    attempt: u64,
}

impl PanicInjector {
    fn boxed(inner: Box<dyn Workload>, seed: u64, job: u64, rate: f64) -> Box<dyn Workload> {
        Box::new(PanicInjector {
            inner,
            seed,
            job,
            rate,
            attempt: 0,
        })
    }
}

impl Workload for PanicInjector {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn input_len(&self) -> usize {
        self.inner.input_len()
    }

    fn recurrence(&self) -> Recurrence {
        self.inner.recurrence()
    }

    fn exec_levels(&self) -> Result<u32, CoreError> {
        self.inner.exec_levels()
    }

    fn run_plan(&mut self, hpu: &mut SimHpu, plan: &Plan) -> Result<RunReport, CoreError> {
        self.inner.run_plan(hpu, plan)
    }

    fn run_plan_recover(
        &mut self,
        hpu: &mut SimHpu,
        plan: &Plan,
        policy: &RecoveryPolicy,
    ) -> (Result<RunReport, CoreError>, RecoveryStats) {
        self.inner.run_plan_recover(hpu, plan, policy)
    }

    fn run_plan_with(
        &mut self,
        hpu: &mut SimHpu,
        plan: &Plan,
        opts: &RunOpts,
    ) -> (Result<RunReport, CoreError>, RecoveryStats) {
        self.inner.run_plan_with(hpu, plan, opts)
    }

    fn run_native(&mut self, pool: &LevelPool) -> Result<Duration, CoreError> {
        let attempt = self.attempt;
        self.attempt += 1;
        if chaos_draw(self.seed, self.job, attempt) < self.rate {
            panic!("injected chaos panic (job {}, attempt {attempt})", self.job);
        }
        self.inner.run_native(pool)
    }
}

/// Sum of per-job retries from the report's retry histogram.
fn total_retries(r: &ServeReport) -> usize {
    r.retry_histogram
        .iter()
        .enumerate()
        .map(|(k, count)| k * count)
        .sum()
}

fn chaos_row(backend: &str, rate: f64, submitted: usize, r: &ServeReport) -> Vec<String> {
    let f = |v: f64| format!("{v:.4}");
    vec![
        backend.to_string(),
        format!("{rate}"),
        submitted.to_string(),
        r.completed.to_string(),
        r.failed.to_string(),
        r.cancelled.to_string(),
        r.rejected.to_string(),
        r.completed_degraded.to_string(),
        total_retries(r).to_string(),
        r.fault_events.to_string(),
        r.breaker_trips.to_string(),
        format!("{:.6}", r.goodput),
        format!("{:.6}", r.throughput),
        f(r.p50_latency),
        f(r.p95_latency),
        f(r.max_latency),
    ]
}

/// The serving configuration chaos runs under: a queue wide enough that
/// backpressure never rejects a job (rejections would add timing noise
/// to the goodput column, which should isolate *fault* losses), plus
/// the fault plan for `rate`.
fn chaos_serve(jobs: usize, faults: FaultConfig) -> ServeConfig {
    ServeConfig {
        queue_capacity: jobs.max(1),
        faults: Some(faults),
        ..ServeConfig::default()
    }
}

/// Runs the chaos benchmark: the [`crate::serve_fleet`] job mix served
/// at offered load 1 while device-fault rates sweep over `rates`; one
/// CSV row per `(backend, fault_rate)`. With the same seed, the
/// goodput column is non-increasing in the fault rate on each backend.
pub fn chaos_sweep(jobs: usize, rates: &[f64], backend: ServeBackend, seed: u64) -> Csv {
    let mut rows = Vec::new();

    if matches!(backend, ServeBackend::Sim | ServeBackend::Both) {
        let cfg = MachineConfig::hpu1_sim();
        let solo = sim_reference_time(&cfg, &ServeConfig::default(), seed);
        for &rate in rates {
            let plan = FaultPlan::new(seed)
                .with_kernel_rate(rate)
                .with_transfer_rate(rate / 2.0);
            let serve = chaos_serve(jobs, FaultConfig::new(plan));
            let mut rng = SplitMix64::new(seed ^ rate.to_bits());
            let mut t = 0.0;
            let fleet: Vec<JobRequest> = (0..jobs)
                .map(|i| {
                    let (name, spec, workload) = job_mix(i, seed);
                    t += exp_gap(&mut rng, solo);
                    JobRequest::new(name, spec, t, workload)
                })
                .collect();
            let out = serve_sim(&cfg, &serve, fleet);
            rows.push(chaos_row("sim", rate, jobs, &out.report));
        }
    }

    if matches!(backend, ServeBackend::Native | ServeBackend::Both) {
        let (workers, threads) = (2, 2);
        let solo_us = native_reference_us(&ServeConfig::default(), threads, seed);
        for &rate in rates {
            // The fault plan itself is irrelevant on real threads; the
            // config is present so the worker's retry policy is armed.
            let serve = chaos_serve(jobs, FaultConfig::new(FaultPlan::new(seed)));
            let mut rng = SplitMix64::new(seed ^ rate.to_bits());
            let mut t = 0.0;
            let fleet: Vec<NativeJobRequest> = (0..jobs)
                .map(|i| {
                    let (name, _, workload) = job_mix(i, seed);
                    t += exp_gap(&mut rng, solo_us);
                    let faulty = PanicInjector::boxed(workload, seed, i as u64, rate);
                    NativeJobRequest::new(name, t as u64, faulty)
                })
                .collect();
            let out = serve_native(&serve, workers, threads, fleet);
            rows.push(chaos_row("native", rate, jobs, &out.report));
        }
    }

    Csv {
        name: "chaos",
        header: vec![
            "backend",
            "fault_rate",
            "submitted",
            "completed",
            "failed",
            "cancelled",
            "rejected",
            "degraded",
            "retries",
            "fault_events",
            "breaker_trips",
            "goodput",
            "throughput",
            "p50_latency",
            "p95_latency",
            "max_latency",
        ],
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn goodputs(csv: &Csv, backend: &str) -> Vec<f64> {
        csv.rows
            .iter()
            .filter(|r| r[0] == backend)
            .map(|r| r[11].parse().expect("goodput column parses"))
            .collect()
    }

    #[test]
    fn sim_goodput_is_monotone_in_the_fault_rate() {
        let rates = [0.0, 0.05, 0.2, 0.5];
        let csv = chaos_sweep(12, &rates, ServeBackend::Sim, 42);
        let g = goodputs(&csv, "sim");
        assert_eq!(g.len(), rates.len());
        assert_eq!(g[0], 1.0, "fault-free serving completes every job");
        for w in g.windows(2) {
            assert!(
                w[1] <= w[0] + 1e-9,
                "goodput must not improve as the fault rate grows: {g:?}"
            );
        }
    }

    #[test]
    fn sim_faults_are_observed_at_positive_rates() {
        let csv = chaos_sweep(12, &[0.0, 0.5], ServeBackend::Sim, 42);
        let zero: u64 = csv.rows[0][9].parse().unwrap();
        let high: u64 = csv.rows[1][9].parse().unwrap();
        assert_eq!(zero, 0, "rate 0 must inject nothing");
        assert!(high > 0, "rate 0.5 must inject faults");
    }

    #[test]
    fn native_goodput_is_monotone_in_the_panic_rate() {
        let rates = [0.0, 0.3, 1.0];
        let csv = chaos_sweep(6, &rates, ServeBackend::Native, 42);
        let g = goodputs(&csv, "native");
        assert_eq!(g.len(), rates.len());
        assert_eq!(g[0], 1.0, "panic-free serving completes every job");
        assert_eq!(
            *g.last().unwrap(),
            0.0,
            "rate 1 panics every attempt of every job"
        );
        for w in g.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "goodput must not improve: {g:?}");
        }
    }

    #[test]
    fn chaos_sweep_is_deterministic() {
        let a = chaos_sweep(8, &[0.1], ServeBackend::Sim, 7);
        let b = chaos_sweep(8, &[0.1], ServeBackend::Sim, 7);
        assert_eq!(a, b);
    }
}
