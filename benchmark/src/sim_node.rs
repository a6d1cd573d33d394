//! `sim-node`: one simulated HPU1 node with a full queue — the
//! scheduler's hot path with little machine work per job. 5,000 jobs
//! arrive with exponential gaps at offered load 0.9 against the mean solo
//! time of their shapes: half GPU-only mergesorts of `2^10` keys (a
//! batchable shape), a quarter basic-hybrid mergesorts of `2^12`, a
//! quarter CPU-parallel sums of `2^11`. Batching coalesces up to four
//! launches. A hot plan cache, reservation calendars that grow with every
//! job, and batch formation are what the round exercises.

use std::time::Instant;

use hpu_machine::MachineConfig;
use hpu_model::ScheduleSpec;
use hpu_serve::{serve_sim, BatchPolicy, JobRequest, ServeConfig, ServeOutput};

use crate::harness::{Bench, Observe, Opts, Round};
use crate::input::SplitMix64;
use crate::jobs::{check_records, Data};
use crate::spans::Tracer;

/// Offered load: near the node's capacity, with the queue often deep.
pub const LOAD: f64 = 0.9;

/// Admission queue: twice the default, deep enough that bursts at
/// [`LOAD`] queue up instead of being refused, so every job completes.
const QUEUE: usize = 64;

/// The three job shapes, by their share of the stream in quarters.
fn shape(quarter: usize, rng: &mut SplitMix64) -> (ScheduleSpec, Data) {
    match quarter {
        0 | 1 => (ScheduleSpec::GpuOnly, Data::sort(1 << 10, rng)),
        2 => (
            ScheduleSpec::Basic { crossover: None },
            Data::sort(1 << 12, rng),
        ),
        _ => (ScheduleSpec::CpuParallel, Data::sum(1 << 11, rng)),
    }
}

pub struct SimNode;

pub struct Input {
    pub machine: MachineConfig,
    pub serve: ServeConfig,
    pub jobs: Vec<(ScheduleSpec, Data)>,
    /// Arrival times at offered load 1; load `x` divides them by `x`.
    pub arrivals: Vec<f64>,
    /// Mean solo virtual time of the stream's shapes.
    pub mean_solo: f64,
}

impl Input {
    /// The stream at offered load `load`: the same jobs and the same gaps,
    /// scaled.
    pub fn requests(&self, load: f64) -> Vec<JobRequest> {
        self.jobs
            .iter()
            .zip(&self.arrivals)
            .enumerate()
            .map(|(i, ((spec, data), at))| {
                JobRequest::new(format!("job-{i}"), spec.clone(), at / load, data.algo_job())
            })
            .collect()
    }

    /// Serves the stream at `load` under `serve`, timing only the call.
    pub fn serve(&self, serve: &ServeConfig, load: f64, tracer: &Tracer) -> (ServeOutput, f64) {
        let jobs = self.requests(load);
        let t0 = Instant::now();
        let out = tracer.call("serve", "serve_sim", None, || {
            serve_sim(&self.machine, serve, jobs)
        });
        (out, t0.elapsed().as_secs_f64())
    }
}

pub fn setup(opts: &Opts) -> Input {
    let n = if opts.smoke { 200 } else { 5000 };
    let machine = MachineConfig::hpu1_sim();
    let serve = ServeConfig {
        queue_capacity: QUEUE,
        batch: BatchPolicy::Coalesce { max_batch: 4 },
        cpu_fallback: false,
        ..ServeConfig::default()
    };
    let mut rng = SplitMix64::new(opts.seed, 0x4E4F_4445);
    // The mean is over the three shapes in their stream proportions, each
    // served alone on the node.
    let solo = |spec: ScheduleSpec, data: Data| {
        let job = JobRequest::new("solo", spec, 0.0, data.algo_job());
        serve_sim(&machine, &serve, vec![job]).report.makespan
    };
    let mut probe = SplitMix64::new(opts.seed, 0x534F_4C4F);
    let mean_solo = 0.5 * solo(ScheduleSpec::GpuOnly, Data::sort(1 << 10, &mut probe))
        + 0.25
            * solo(
                ScheduleSpec::Basic { crossover: None },
                Data::sort(1 << 12, &mut probe),
            )
        + 0.25 * solo(ScheduleSpec::CpuParallel, Data::sum(1 << 11, &mut probe));
    let jobs: Vec<(ScheduleSpec, Data)> = rng
        .deck(n, 4)
        .into_iter()
        .map(|quarter| shape(quarter, &mut rng))
        .collect();
    let mut t = 0.0;
    let arrivals = (0..n)
        .map(|_| {
            t += rng.exp_gap(mean_solo);
            t
        })
        .collect();
    Input {
        machine,
        serve,
        jobs,
        arrivals,
        mean_solo,
    }
}

/// Checks a served stream and folds it into `r`: one terminal record per
/// job, counts that add up, a run report per completion.
pub fn check(out: &ServeOutput, n: u64, r: &mut Round) {
    let completed = check_records(out.report.jobs.iter(), n, &mut r.problems);
    if out.runs.len() as u64 != completed {
        r.problem(format!(
            "{} run reports for {completed} completed jobs",
            out.runs.len()
        ));
    }
    r.submitted += n;
    r.completed += completed;
    r.failed += n - completed;
}

impl Bench for SimNode {
    type Input = Input;

    fn name(&self) -> &'static str {
        "sim-node"
    }

    fn setup(&self, opts: &Opts) -> Input {
        setup(opts)
    }

    fn round(&self, input: &Input, obs: &Observe) -> Round {
        let serve = ServeConfig {
            metrics: obs.registry.clone(),
            ..input.serve.clone()
        };
        let (out, wall) = input.serve(&serve, LOAD, &obs.tracer);
        let mut r = Round {
            wall_s: wall,
            latencies_ms: vec![wall * 1e3],
            ..Round::default()
        };
        check(&out, input.jobs.len() as u64, &mut r);
        let rep = &out.report;
        let cache = out.plan_cache.unwrap_or_default();
        r.fingerprint = [
            rep.p50_latency,
            rep.p99_latency,
            rep.makespan,
            rep.completed as f64,
            out.batches.len() as f64,
            cache.hits as f64,
            cache.misses as f64,
        ]
        .map(f64::to_bits)
        .to_vec();
        r
    }
}
