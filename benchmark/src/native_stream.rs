//! `native-stream`: serving many small jobs on real threads, as a closed
//! loop. A round is 50 waves of 32 jobs, each wave handed at once to
//! `serve_native` with one worker on a two-thread pool; 32 is the default
//! queue capacity, so no job is refused. Jobs are mergesorts and sums of
//! `2^8 ..= 2^11` elements in equal shares: each runs about a dozen
//! levels and every level pays one fork-join, while queue dispatch and
//! admission pricing run once per job. The kernels barely show.

use std::time::Instant;

use hpu_obs::JobOutcome;
use hpu_serve::{serve_native, NativeJobRequest, NativeServeOutput, ServeConfig};

use crate::harness::{Bench, Observe, Opts, Round};
use crate::input::SplitMix64;
use crate::jobs::{check_outputs, Data, Sink, SMALL_SHAPES};
use crate::native_bulk::THREADS;

pub struct NativeStream;

pub struct Input {
    pub waves: Vec<Vec<Data>>,
}

impl Input {
    fn job(&self, id: u64) -> Option<Data> {
        let per = self.waves.first()?.len() as u64;
        self.waves
            .get((id / per) as usize)?
            .get((id % per) as usize)
            .cloned()
    }
}

/// `waves` waves of default-queue-capacity jobs, every small shape in
/// equal share in each wave.
pub fn setup(opts: &Opts, waves: usize) -> Input {
    let per = ServeConfig::default().queue_capacity;
    let mut rng = SplitMix64::new(opts.seed, 0x5354_524D);
    Input {
        waves: (0..waves)
            .map(|_| {
                rng.deck(per, SMALL_SHAPES)
                    .into_iter()
                    .map(|shape| Data::small(shape, &mut rng))
                    .collect()
            })
            .collect(),
    }
}

/// Serves every wave in turn; outputs and per-wave serving results are
/// checked after the timed calls. Also returns the serving outputs, whose
/// records the per-layer probes read.
pub fn serve_waves(input: &Input, obs: &Observe) -> (Round, Vec<NativeServeOutput>) {
    let serve = ServeConfig {
        metrics: obs.registry.clone(),
        ..ServeConfig::default()
    };
    let sink = Sink::default();
    let mut r = Round::default();
    let mut outs = Vec::with_capacity(input.waves.len());
    for (w, wave) in input.waves.iter().enumerate() {
        let span = obs.tracer.id();
        let jobs: Vec<NativeJobRequest> = wave
            .iter()
            .map(|d| {
                let id = r.submitted;
                r.submitted += 1;
                let job = d.checked_job(id, &sink, &obs.tracer, span);
                NativeJobRequest::new(format!("job-{id}"), 0, job)
            })
            .collect();
        let t0 = Instant::now();
        let out = obs
            .tracer
            .span(span, "serve", "serve_native", None, Some(w as u64), || {
                serve_native(&serve, 1, THREADS, jobs)
            });
        r.wall_s += t0.elapsed().as_secs_f64();
        // All of a wave is submitted at the call, so a job's latency is
        // its completion on the server's clock (µs since the call began).
        for rec in &out.report.jobs {
            if rec.outcome == JobOutcome::Completed {
                r.latencies_ms.push(rec.end / 1e3);
            }
        }
        if !out.errors.is_empty() {
            r.problem(format!("wave {w}: {:?}", out.errors));
        }
        outs.push(out);
    }
    let wrong = check_outputs(&sink, |id| input.job(id), r.submitted, &mut r.problems);
    r.completed = r.submitted - wrong;
    r.failed = wrong;
    (r, outs)
}

impl Bench for NativeStream {
    type Input = Input;

    fn name(&self) -> &'static str {
        "native-stream"
    }

    fn setup(&self, opts: &Opts) -> Input {
        setup(opts, if opts.smoke { 3 } else { 50 })
    }

    fn round(&self, input: &Input, obs: &Observe) -> Round {
        serve_waves(input, obs).0
    }
}
