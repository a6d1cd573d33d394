//! The measuring loop shared by every workload: repeated set-up, one
//! discarded warm-up round, then measured rounds on the same seeded inputs
//! until the run's time is up.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use hpu_obs::MetricsRegistry;

use crate::report::Outcome;
use crate::spans::{chrome_trace, layers_json, Tracer};
use crate::stats::{median, percentile};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// Untraced and traced round pairs a traced run makes at least, however
/// long the per-layer probes took.
const MIN_TRACE_PAIRS: usize = 2;

/// Run-wide settings.
#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    /// Tiny inputs, for tests.
    pub smoke: bool,
}

/// How a round is observed: off for measured rounds; in traced rounds the
/// benchmark's spans plus a metrics registry wherever the program's
/// configuration has a slot for one.
#[derive(Clone, Default)]
pub struct Observe {
    pub tracer: Tracer,
    pub registry: Option<Arc<MetricsRegistry>>,
}

/// What one round produced. Checks run after the timed calls.
#[derive(Debug, Default)]
pub struct Round {
    /// Wall time of the timed calls only.
    pub wall_s: f64,
    /// Wall latency of each request the round made, as its caller saw it.
    pub latencies_ms: Vec<f64>,
    pub submitted: u64,
    pub completed: u64,
    /// Jobs that did not complete or failed an output check.
    pub failed: u64,
    /// Virtual-time results that must repeat bit for bit in every round.
    pub fingerprint: Vec<u64>,
    pub problems: Vec<String>,
}

impl Round {
    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }
}

/// One workload: seeded set-up, then rounds over the same inputs.
pub trait Bench {
    type Input;
    fn name(&self) -> &'static str;
    fn setup(&self, opts: &Opts) -> Self::Input;
    fn round(&self, input: &Self::Input, obs: &Observe) -> Round;
}

/// Folds one round's accounting and checks into the outcome, and holds
/// every round to the warm-up round's virtual fingerprint.
fn tally(out: &mut Outcome, reference: &[u64], round: &Round) {
    out.attempted += round.submitted;
    out.failed += round.failed;
    out.problems.extend(round.problems.iter().cloned());
    if round.fingerprint != reference {
        out.problem("virtual-time results differ between rounds of the same inputs");
    }
}

/// The untraced run: every end-to-end metric.
pub fn measure<B: Bench>(bench: &B, opts: &Opts) -> Outcome {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut input = None;
    for _ in 0..SETUP_REPS {
        drop(input.take());
        let t0 = Instant::now();
        input = Some(bench.setup(opts));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let input = input.expect("at least one set-up ran");

    let mut out = Outcome::default();
    let warm = bench.round(&input, &Observe::default());
    out.problems.extend(warm.problems.iter().cloned());
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    while rounds.is_empty() || start.elapsed().as_secs_f64() < opts.seconds {
        let round = bench.round(&input, &Observe::default());
        tally(&mut out, &warm.fingerprint, &round);
        rounds.push(round);
    }

    let per_round = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    out.set(
        "jobs_per_s",
        per_round(&|r| r.completed as f64 / r.wall_s.max(1e-12)),
    );
    out.set(
        "latency_p50_ms",
        per_round(&|r| percentile(&r.latencies_ms, 50.0)),
    );
    out.set(
        "latency_p99_ms",
        per_round(&|r| percentile(&r.latencies_ms, 99.0)),
    );
    let completed: u64 = rounds.iter().map(|r| r.completed).sum();
    out.set("goodput", completed as f64 / out.attempted.max(1) as f64);
    out.set("setup_s", median(&setup_s));
    match crate::report::peak_rss_mb() {
        Some(mb) => out.set("peak_rss_mb", mb),
        None => out.problem("peak RSS unreadable from /proc/self/status"),
    }
    out
}

/// The traced run: the per-layer probes, then untraced and traced rounds
/// alternating until the time is up, in at least [`MIN_TRACE_PAIRS`]
/// pairs. Writes `<dir>/<workload>.trace.json` and
/// `<dir>/<workload>.layers.json`.
pub fn measure_traced<B: Bench>(bench: &B, opts: &Opts, dir: &Path) -> Outcome {
    let start = Instant::now();
    let mut out = crate::layers::probe_all(opts);
    let input = bench.setup(opts);
    let warm = bench.round(&input, &Observe::default());
    out.problems.extend(warm.problems.iter().cloned());

    let traced = Observe {
        tracer: Tracer::on(),
        registry: Some(Arc::new(MetricsRegistry::new())),
    };
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    while plain_s.len() < MIN_TRACE_PAIRS || start.elapsed().as_secs_f64() < opts.seconds {
        let plain = bench.round(&input, &Observe::default());
        tally(&mut out, &warm.fingerprint, &plain);
        plain_s.push(plain.wall_s);
        let round = bench.round(&input, &traced);
        tally(&mut out, &warm.fingerprint, &round);
        traced_s.push(round.wall_s);
    }
    out.set(
        "obs.trace_overhead_ratio",
        median(&traced_s) / median(&plain_s).max(1e-12),
    );

    let spans = traced.tracer.spans();
    let name = bench.name();
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| {
            std::fs::write(
                dir.join(format!("{name}.trace.json")),
                chrome_trace(name, &spans),
            )
        })
        .and_then(|()| {
            std::fs::write(
                dir.join(format!("{name}.layers.json")),
                layers_json(name, &spans, traced.registry.as_deref()),
            )
        });
    if let Err(e) = written {
        eprintln!("warning: trace files not written to {}: {e}", dir.display());
    }
    out
}
