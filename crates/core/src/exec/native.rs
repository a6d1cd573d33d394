//! Native (real-thread) backend of the plan interpreter.
//!
//! This is the executor a downstream user runs on an actual multicore: the
//! same [`BfAlgorithm`] code on a [`LevelPool`], wall-clock timed. Each band
//! is cut at its highest level that still has a chunk per pool thread: the
//! levels at or below the cut run as one sequential task per subtree (the
//! paper's ⌈a^i/p⌉ tasks per core, §5.1, and its §7 sequential leaves), and
//! only the few levels above it fork-join. Native runs execute the same way
//! simulated ones do — a host-only [`Plan`](hpu_model::Plan) fed to
//! [`interpret`] — with [`NativeBackend`] as the substrate. [`run_native`]
//! returns just the duration; [`run_native_report`] additionally records
//! every fork-join as a structured wall-clock span (µs) and aggregates the
//! same per-level metrics the simulator produces, so native runs appear in
//! the same Chrome traces and CSV reports as simulated ones.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hpu_model::{Plan, ScheduleSpec, Transfer};
use hpu_obs::{EventKind, LevelBook, LevelMetrics, LevelPhase, TraceEvent, WallRecorder};

use crate::bf::{num_levels, BfAlgorithm, Element};
use crate::charge::NullCharge;
use crate::error::CoreError;
use crate::exec::backend::{interpret, Backend, BandStats, LevelBand, RecoveryPolicy, Share};
use crate::pool::LevelPool;

/// Wall-clock accounting of one native run.
#[derive(Debug)]
pub struct NativeReport {
    /// End-to-end wall-clock time.
    pub wall: Duration,
    /// Per-level metrics (bottom-up; times in µs of wall clock; ops/mem
    /// are zero — native runs don't charge abstract costs). Rows start at
    /// the subtree cut: its row carries the whole subtree band, with one
    /// task per subtree, so no row sits below it.
    pub levels: Vec<LevelMetrics>,
    /// The structured spans recorded during the run (µs since run start).
    pub trace: Vec<TraceEvent>,
}

/// Plan-interpreter backend over a real thread pool.
///
/// Executes CPU placements only: native machines in this codebase have no
/// device, so plans with GPU or split segments are rejected as malformed
/// rather than silently run on the host.
pub struct NativeBackend<'a, T: Element> {
    pool: LevelPool,
    data: &'a mut [T],
    scratch: Vec<T>,
    book: LevelBook,
    start: Instant,
    metrics: Option<Arc<hpu_obs::MetricsRegistry>>,
}

impl<'a, T: Element> NativeBackend<'a, T> {
    /// Creates a backend over `data`, running subtrees and the levels above
    /// them on `pool` (its recorder receives the structured spans) and
    /// booking metrics into `book`. The wall clock starts now.
    pub fn new(pool: LevelPool, data: &'a mut [T], book: LevelBook) -> Self {
        let n = data.len();
        NativeBackend {
            pool,
            data,
            scratch: vec![T::default(); n],
            book,
            start: Instant::now(),
            metrics: None,
        }
    }

    /// Attaches a live metrics registry the interpreter samples
    /// per-segment wall timings (µs) into.
    pub fn with_metrics(mut self, metrics: Arc<hpu_obs::MetricsRegistry>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Consumes the backend and returns the filled metrics book.
    pub fn into_book(self) -> LevelBook {
        self.book
    }

    /// Wall-clock time since the backend was created.
    pub fn wall(&self) -> Duration {
        self.start.elapsed()
    }

    /// Wall-clock µs since the backend was created (the backend's clock).
    fn wall_us(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1e6
    }
}

impl<T: Element, A: BfAlgorithm<T>> Backend<T, A> for NativeBackend<'_, T> {
    fn run_level_band(
        &mut self,
        algo: &A,
        band: &LevelBand,
        share: &Share,
    ) -> Result<BandStats, CoreError> {
        let Share::Cpu { .. } = share else {
            return Err(CoreError::MalformedPlan {
                reason: "the native backend executes CPU placements only",
            });
        };
        let n = self.data.len();
        let (base, a) = (algo.base_chunk(), algo.branching());
        let chunk_of = |level: u32| base.saturating_mul(a.saturating_pow(level));
        // The subtree cut: the highest level that still has a chunk for
        // every pool thread. Everything at or below it runs as one
        // sequential task per chunk; each level above is a fork-join of
        // its own, with fewer tasks than threads.
        let threads = self.pool.threads();
        let cut = (band.first..=band.last)
            .rev()
            .find(|&level| n / chunk_of(level) >= threads);
        let mut src_is_data = true;
        let (mut lo, mut hi) = (band.first, cut.unwrap_or(band.first));
        while hi <= band.last && chunk_of(hi) <= n {
            let chunk = chunk_of(hi);
            let tasks = (n / chunk) as u64;
            let (src, dst) = if src_is_data {
                (&mut *self.data, &mut self.scratch[..])
            } else {
                (&mut self.scratch[..], &mut *self.data)
            };
            let (s, e) = self.pool.run_tagged(
                EventKind::Level {
                    name: algo.name().to_string(),
                    phase: if hi == 0 {
                        LevelPhase::Base
                    } else {
                        LevelPhase::Combine
                    },
                    chunk: chunk as u64,
                    tasks,
                    ops: 0,
                    mem: 0,
                },
                src.chunks_mut(chunk)
                    .zip(dst.chunks_mut(chunk))
                    .map(|(s, d)| {
                        move || {
                            run_subtree(algo, s, d, lo, hi);
                        }
                    })
                    .collect(),
            );
            self.book.cpu(chunk as u64, tasks, 0, 0, s, e);
            // An odd number of combines leaves each subtree's result in
            // `dst`.
            if (hi + 1).saturating_sub(lo.max(1)) % 2 == 1 {
                src_is_data = !src_is_data;
            }
            lo = hi + 1;
            hi = lo;
        }
        if !src_is_data {
            let data = &mut *self.data;
            let scratch = &self.scratch;
            let (s, e) = self.pool.run_tagged(
                EventKind::Level {
                    name: "copy back".to_string(),
                    phase: LevelPhase::CopyBack,
                    chunk: n as u64,
                    tasks: 1,
                    ops: 0,
                    mem: 0,
                },
                vec![|| data.copy_from_slice(scratch)],
            );
            self.book.cpu(n as u64, 0, 0, 0, s, e);
        }
        Ok(BandStats::default())
    }

    fn transfer(&mut self, _algo: &A, _edge: &Transfer) -> Result<(), CoreError> {
        Err(CoreError::MalformedPlan {
            reason: "the native backend has no device to transfer to",
        })
    }

    fn sync(&mut self) {}

    fn now(&self) -> f64 {
        self.wall_us()
    }

    fn cpu_clock(&self) -> f64 {
        self.wall_us()
    }

    fn gpu_clock(&self) -> f64 {
        self.wall_us()
    }

    fn recorder(&mut self) -> &mut LevelBook {
        &mut self.book
    }

    fn wait(&mut self, dur: f64) {
        // Clock unit is microseconds of wall time.
        std::thread::sleep(std::time::Duration::from_micros(dur.max(0.0) as u64));
    }

    fn metrics(&self) -> Option<&hpu_obs::MetricsRegistry> {
        self.metrics.as_deref()
    }
}

/// Runs `algo` over `data` on real threads; returns the wall-clock time.
/// On success `data` holds the result.
pub fn run_native<T: Element, A: BfAlgorithm<T>>(
    algo: &A,
    data: &mut [T],
    pool: &LevelPool,
) -> Result<Duration, CoreError> {
    Ok(run_native_report(algo, data, pool)?.wall)
}

/// Runs `algo` over `data` on real threads with structured tracing: a
/// host-only plan is compiled for the pool's core count and interpreted on
/// a [`NativeBackend`], so every fork-join — the subtree band, each level
/// above it, a copy-back — becomes a wall-clock span on a fresh
/// [`WallRecorder`] and a row of per-level metrics. On success `data` holds
/// the result.
pub fn run_native_report<T: Element, A: BfAlgorithm<T>>(
    algo: &A,
    data: &mut [T],
    pool: &LevelPool,
) -> Result<NativeReport, CoreError> {
    let levels = num_levels(algo, data.len())?;
    let n = data.len();
    let rec = Arc::new(Mutex::new(WallRecorder::new()));
    let pool = pool.clone().with_recorder(rec.clone());
    let plan = Plan::host_only(n as u64, levels, pool.threads(), ScheduleSpec::CpuParallel);
    let book = LevelBook::new(algo.base_chunk() as u64, algo.branching() as u64);
    let mut backend = NativeBackend::new(pool, data, book);
    interpret(&plan, algo, &mut backend, &RecoveryPolicy::NO_RETRY).0?;
    let wall = backend.wall();
    let book = backend.into_book();
    let trace = std::mem::take(
        &mut *rec
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner),
    )
    .into_events();
    Ok(NativeReport {
        wall,
        levels: book.finish(),
        trace,
    })
}

/// Runs levels `lo..=hi` of `algo` bottom-up on one thread over one
/// subtree: the base cases in place in `buf` when `lo` is 0, then each
/// combine level from `buf` into `other` and back, ping-ponging. Returns
/// whether the result ended in `buf` (an even number of combines).
pub(super) fn run_subtree<T: Element, A: BfAlgorithm<T>>(
    algo: &A,
    buf: &mut [T],
    other: &mut [T],
    lo: u32,
    hi: u32,
) -> bool {
    let (base, a) = (algo.base_chunk(), algo.branching());
    if lo == 0 {
        for c in buf.chunks_mut(base) {
            algo.base_case(c, &mut NullCharge);
        }
    }
    let mut in_buf = true;
    for level in lo.max(1)..=hi {
        let chunk = base.saturating_mul(a.saturating_pow(level));
        let (src, dst) = if in_buf {
            (&*buf, &mut *other)
        } else {
            (&*other, &mut *buf)
        };
        for (s, d) in src.chunks(chunk).zip(dst.chunks_mut(chunk)) {
            algo.combine(s, d, &mut NullCharge);
        }
        in_buf = !in_buf;
    }
    in_buf
}
