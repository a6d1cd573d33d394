//! The batching experiment: the offered-load throughput curve of one
//! node with cross-job GPU kernel batching on versus off.
//!
//! The stream is deliberately shape-heavy — GPU-only mergesorts in two
//! recurring sizes — so queued jobs actually share a batch key (same
//! algorithm, same plan, same calibration generation). Offered load is
//! expressed against the solo reference job as in the serving sweep:
//! `rate = 1` submits as fast as one job completes solo. The node's
//! admission queue is bounded, so the *saturation point* of a policy is
//! visible in the curve: the highest rate at which (nearly) every
//! submission still completes. Batching amortizes launch overhead + λ
//! across queue neighbours, drains the backlog faster, and pushes that
//! point to a higher rate — the lift this module's tests assert.
//!
//! The native backend runs real threads and never batches (kernel
//! coalescing is a virtual-time scheduler feature); its rows are the
//! unbatched wall-clock reference curve, not a comparison subject.

use hpu_algos::mergesort::MergeSort;
use hpu_machine::MachineConfig;
use hpu_model::ScheduleSpec;
use hpu_serve::{
    serve_native, serve_sim, AlgoJob, BatchPolicy, JobRequest, NativeJobRequest, ServeConfig,
    ServeOutput, Workload,
};

use crate::experiments::Csv;
use crate::serving::{exp_gap, native_reference_us};
use crate::workload::{uniform_input, SplitMix64};

/// Bounded admission queue: small enough that an overloaded node
/// rejects instead of queueing forever, so the saturation point shows.
const BATCH_QUEUE: usize = 16;

/// Coalescing bound of the "batch" rows.
const MAX_BATCH: usize = 4;

/// The shape-heavy mix: GPU-only mergesorts, three out of four jobs at
/// `2^10` and the fourth at `2^11`, so most queue neighbours share a
/// plan (batchable) while the odd size exercises the shape grouping.
fn batch_mix(i: usize, seed: u64) -> (String, ScheduleSpec, Box<dyn Workload>) {
    let n = if i % 4 == 3 { 1 << 11 } else { 1 << 10 };
    let job_seed = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (
        format!("bsort-{i}-n{n}"),
        ScheduleSpec::GpuOnly,
        AlgoJob::boxed(MergeSort::new(), uniform_input(n, job_seed)),
    )
}

fn batch_serve(batch: BatchPolicy) -> ServeConfig {
    ServeConfig {
        queue_capacity: BATCH_QUEUE,
        cpu_fallback: false,
        batch,
        ..Default::default()
    }
}

/// One curve point: the pinned `(jobs, rate, seed)` stream served under
/// `batch` on the simulated HPU1.
pub(crate) fn batch_point(jobs: usize, rate: f64, seed: u64, batch: BatchPolicy) -> ServeOutput {
    let cfg = MachineConfig::hpu1_sim();
    let serve = batch_serve(batch);
    let (name, spec, workload) = batch_mix(0, seed);
    let solo = serve_sim(
        &cfg,
        &serve,
        vec![JobRequest::new(name, spec, 0.0, workload)],
    )
    .report
    .makespan
    .max(1.0);
    let mean_gap = solo / rate.max(1e-6);
    let mut rng = SplitMix64::new(seed);
    let mut t = 0.0;
    // One unit-gap pattern per seed, compressed by the rate: every rate
    // (and both policies) sees the *same* arrival shape, so the curve is
    // monotone in offered load instead of re-rolling burstiness per point.
    let fleet: Vec<JobRequest> = (0..jobs)
        .map(|i| {
            let (name, spec, workload) = batch_mix(i, seed);
            t += exp_gap(&mut rng, mean_gap);
            JobRequest::new(name, spec, t, workload)
        })
        .collect();
    serve_sim(&cfg, &serve, fleet)
}

fn completion_ratio(out: &ServeOutput) -> f64 {
    let submitted = out.report.jobs.len().max(1);
    out.report.completed as f64 / submitted as f64
}

fn sim_row(mode: &str, rate: f64, out: &ServeOutput) -> Vec<String> {
    let r = &out.report;
    let batched_jobs: usize = out.batches.iter().map(|b| b.members.len()).sum();
    // `+ 0.0` normalizes the empty sum's IEEE `-0.0` for rendering.
    let saved: f64 = out.batches.iter().map(|b| b.saved).sum::<f64>() + 0.0;
    vec![
        mode.to_string(),
        format!("{rate}"),
        r.jobs.len().to_string(),
        r.completed.to_string(),
        r.rejected.to_string(),
        format!("{:.4}", completion_ratio(out)),
        format!("{:.6}", r.throughput),
        format!("{:.4}", r.p95_latency),
        out.batches.len().to_string(),
        batched_jobs.to_string(),
        format!("{saved:.4}"),
    ]
}

/// Runs the batching curve: the identical pinned stream at every rate,
/// once with batching off and once coalescing up to `MAX_BATCH` jobs
/// per launch, plus (with `native` set) the unbatched native reference.
/// One CSV row per `(mode, rate)`.
pub fn batch_curve(jobs: usize, rates: &[f64], native: bool, seed: u64) -> Csv {
    let mut rows = Vec::new();
    for (mode, policy) in [
        ("off", BatchPolicy::Off),
        (
            "batch",
            BatchPolicy::Coalesce {
                max_batch: MAX_BATCH,
            },
        ),
    ] {
        for &rate in rates {
            let out = batch_point(jobs, rate, seed, policy);
            rows.push(sim_row(mode, rate, &out));
        }
    }
    if native {
        let serve = batch_serve(BatchPolicy::Off);
        let (workers, threads) = (2, 2);
        let solo_us = native_reference_us(&serve, threads, seed);
        for &rate in rates {
            let mean_gap = solo_us / rate.max(1e-6);
            let mut rng = SplitMix64::new(seed ^ rate.to_bits());
            let mut t = 0.0;
            let fleet: Vec<NativeJobRequest> = (0..jobs)
                .map(|i| {
                    let (name, _, workload) = batch_mix(i, seed);
                    t += exp_gap(&mut rng, mean_gap);
                    NativeJobRequest::new(name, t as u64, workload)
                })
                .collect();
            let out = serve_native(&serve, workers, threads, fleet);
            let r = &out.report;
            let submitted = r.jobs.len().max(1);
            rows.push(vec![
                "native".to_string(),
                format!("{rate}"),
                r.jobs.len().to_string(),
                r.completed.to_string(),
                r.rejected.to_string(),
                format!("{:.4}", r.completed as f64 / submitted as f64),
                format!("{:.6}", r.throughput),
                format!("{:.4}", r.p95_latency),
                "0".to_string(),
                "0".to_string(),
                "0.0000".to_string(),
            ]);
        }
    }
    Csv {
        name: "batch",
        header: vec![
            "mode",
            "rate",
            "submitted",
            "completed",
            "rejected",
            "goodput",
            "throughput",
            "p95_latency",
            "batches",
            "batched_jobs",
            "saved",
        ],
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pinned rate sweep the saturation gate runs over.
    const RATES: &[f64] = &[1.0, 2.0, 3.0, 4.0, 6.0, 8.0];

    /// A policy still counts as keeping up at a rate when at least this
    /// fraction of submissions completes.
    const SATURATION_GOODPUT: f64 = 0.95;

    /// The saturation point of a policy over the rate sweep: the highest
    /// rate whose completion ratio still clears [`SATURATION_GOODPUT`]
    /// (0 when even the lowest rate overruns the queue).
    fn saturation_rate(jobs: usize, rates: &[f64], seed: u64, batch: BatchPolicy) -> f64 {
        rates
            .iter()
            .copied()
            .filter(|&r| completion_ratio(&batch_point(jobs, r, seed, batch)) >= SATURATION_GOODPUT)
            .fold(0.0, f64::max)
    }

    /// ISSUE acceptance: on the simulated backend the batching curve
    /// saturates at a strictly higher offered load than the unbatched
    /// one — coalescing lifts the saturation point.
    #[test]
    fn batching_lifts_the_saturation_point() {
        let (jobs, seed) = (24, 42);
        let off = saturation_rate(jobs, RATES, seed, BatchPolicy::Off);
        let on = saturation_rate(
            jobs,
            RATES,
            seed,
            BatchPolicy::Coalesce {
                max_batch: MAX_BATCH,
            },
        );
        assert!(
            on > off,
            "coalescing must saturate later: off keeps up to rate {off}, batch to {on}"
        );
    }

    /// At an overloaded rate the batched run completes at least as many
    /// jobs as the unbatched one and actually forms batches with
    /// positive savings.
    #[test]
    fn overloaded_batched_run_outcompletes_off() {
        let (jobs, rate, seed) = (24, 16.0, 42);
        let off = batch_point(jobs, rate, seed, BatchPolicy::Off);
        let on = batch_point(
            jobs,
            rate,
            seed,
            BatchPolicy::Coalesce {
                max_batch: MAX_BATCH,
            },
        );
        assert!(!on.batches.is_empty(), "overload must produce batches");
        assert!(on.batches.iter().all(|b| b.saved > 0.0));
        assert!(
            on.report.completed >= off.report.completed,
            "batched completions {} < unbatched {}",
            on.report.completed,
            off.report.completed
        );
    }

    #[test]
    fn batch_curve_is_deterministic_and_shaped() {
        // Determinism is pinned by the `sweep_batch.txt` golden fixture.
        let a = batch_curve(12, &[1.0, 8.0], false, 7);
        // off rows then batch rows, one per rate.
        assert_eq!(a.rows.len(), 4);
        assert_eq!(a.header.len(), a.rows[0].len());
        assert!(a.rows[..2].iter().all(|r| r[0] == "off"));
        assert!(a.rows[2..].iter().all(|r| r[0] == "batch"));
        // Unbatched rows never report batches.
        assert!(a.rows[..2].iter().all(|r| r[8] == "0"));
    }
}
