//! Native (real-thread) backend of the plan interpreter.
//!
//! This is the executor a downstream user runs on an actual multicore: the
//! same [`BfAlgorithm`] code, levels fork-joined on a [`LevelPool`],
//! wall-clock timed. Native runs execute the same way simulated ones do —
//! a host-only [`Plan`](hpu_model::Plan) fed to [`interpret`] — with
//! [`NativeBackend`] as the substrate. [`run_native`] returns just the
//! duration; [`run_native_report`] additionally records every level as a
//! structured wall-clock span (µs) and aggregates the same per-level
//! metrics the simulator produces, so native runs appear in the same
//! Chrome traces and CSV reports as simulated ones.

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
    /// are zero — native runs don't charge abstract costs).
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
    /// Creates a backend over `data`, fork-joining levels on `pool` (its
    /// recorder receives the structured spans) and booking metrics into
    /// `book`. The wall clock starts now.
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
        let a = algo.branching();
        let base = algo.base_chunk();
        let mut src_is_data = true;
        let mut chunk = if band.first == 0 {
            let base_tasks = self.data.chunks_mut(base).len() as u64;
            let (s, e) = self.pool.run_tagged(
                EventKind::Level {
                    name: algo.name().to_string(),
                    phase: LevelPhase::Base,
                    chunk: base as u64,
                    tasks: base_tasks,
                    ops: 0,
                    mem: 0,
                },
                self.data
                    .chunks_mut(base)
                    .map(|c| move || algo.base_case(c, &mut NullCharge))
                    .collect(),
            );
            self.book.cpu(base as u64, base_tasks, 0, 0, s, e);
            base.saturating_mul(a)
        } else {
            base.saturating_mul(a.saturating_pow(band.first))
        };
        let top_chunk = base.saturating_mul(a.saturating_pow(band.last));
        while chunk <= top_chunk && chunk <= n {
            if src_is_data {
                native_level(
                    algo,
                    &self.pool,
                    self.data,
                    &mut self.scratch,
                    chunk,
                    &mut self.book,
                );
            } else {
                native_level(
                    algo,
                    &self.pool,
                    &self.scratch,
                    self.data,
                    chunk,
                    &mut self.book,
                );
            }
            src_is_data = !src_is_data;
            chunk = chunk.saturating_mul(a);
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
/// a [`NativeBackend`], so every level becomes a wall-clock span on a fresh
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

fn native_level<T: Element, A: BfAlgorithm<T>>(
    algo: &A,
    pool: &LevelPool,
    src: &[T],
    dst: &mut [T],
    chunk: usize,
    book: &mut LevelBook,
) {
    let tasks = src.chunks(chunk).len() as u64;
    let (s, e) = pool.run_tagged(
        EventKind::Level {
            name: algo.name().to_string(),
            phase: LevelPhase::Combine,
            chunk: chunk as u64,
            tasks,
            ops: 0,
            mem: 0,
        },
        src.chunks(chunk)
            .zip(dst.chunks_mut(chunk))
            .map(|(s, d)| move || algo.combine(s, d, &mut NullCharge))
            .collect(),
    );
    book.cpu(chunk as u64, tasks, 0, 0, s, e);
}
