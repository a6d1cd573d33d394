//! Native (real-thread) serving.
//!
//! [`serve_native`] is the wall-clock counterpart of
//! [`serve_sim`](crate::serve_sim): a fixed worker fleet drains a bounded
//! admission queue, each worker owning its own [`LevelPool`] so jobs run
//! side by side on real threads. There is no GPU here — cost-model
//! admission still orders the queue (a host-only plan priced for one
//! worker's thread count), and the same [`Policy`] and backpressure
//! semantics apply, but time is measured in microseconds of wall clock.
//!
//! With [`ServeConfig::calibration`] set, the fleet learns an EWMA
//! wall-microseconds-per-model-op scale from completed jobs, so records
//! carry a meaningful `predicted` (and hence drift) instead of zero: the
//! first completion seeds the scale, later ones smooth it, and each
//! record's `calibration_generation` counts the scale updates that had
//! landed when the job was priced.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use hpu_core::exec::RecoveryPolicy;
use hpu_core::{CoreError, LevelPool};
use hpu_model::{plan_cost, LevelProfile, MachineParams, Plan, ScheduleSpec};
use hpu_obs::{FaultTag, JobOutcome, JobRecord, ServeReport};

use crate::error::ServeError;
use crate::job::Workload;
use crate::queue::{dispatch_order, Rank};
use crate::sched::ServeConfig;

/// One job submission for native serving. Times are microseconds from
/// the start of the serving run.
pub struct NativeJobRequest {
    /// Human-readable label, carried into the records.
    pub name: String,
    /// Submission time, microseconds after serving starts.
    pub arrival_us: u64,
    /// Latest acceptable start time, if any (microseconds).
    pub deadline_us: Option<u64>,
    /// The work itself.
    pub workload: Box<dyn Workload>,
}

impl NativeJobRequest {
    /// A deadline-free native job submission.
    pub fn new(name: impl Into<String>, arrival_us: u64, workload: Box<dyn Workload>) -> Self {
        NativeJobRequest {
            name: name.into(),
            arrival_us,
            deadline_us: None,
            workload,
        }
    }
}

/// What a native serving run produces. All times in the report are
/// microseconds of wall clock.
pub struct NativeServeOutput {
    /// Fleet-level metrics over every submitted job.
    pub report: ServeReport,
    /// Typed rejection/cancellation/failure errors.
    pub errors: Vec<ServeError>,
    /// Completed-job updates folded into the µs-per-op prediction scale
    /// (0 without calibration).
    pub calibration_updates: u64,
}

struct Queued {
    id: u64,
    name: String,
    arrival: f64,
    deadline_us: Option<u64>,
    cost: f64,
    predicted: f64,
    generation: u64,
    skips: usize,
    workload: Box<dyn Workload>,
}

#[derive(Default)]
struct State {
    queue: Vec<Queued>,
    done: bool,
    records: Vec<JobRecord>,
    errors: Vec<ServeError>,
    busy: Vec<(f64, f64)>,
    /// EWMA wall-µs per model op, seeded by the first completion.
    scale: Option<f64>,
    /// Completed-job updates folded into `scale` so far.
    scale_updates: u64,
}

/// Locks the shared serving state, recovering from poison: a worker that
/// panicked outside the catch boundary must not wedge the whole fleet.
/// Returns whether the lock was found poisoned so the caller can record
/// the incident.
fn lock_recover<'a>(m: &'a Mutex<State>) -> (MutexGuard<'a, State>, bool) {
    match m.lock() {
        Ok(g) => (g, false),
        Err(p) => (p.into_inner(), true),
    }
}

/// Renders a caught panic payload for the typed error record.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// What one attempt at running a job natively produced.
enum Attempt {
    Ok,
    Err(CoreError),
    Panic(String),
}

/// Predicted service cost of a job on one worker: its host-only plan
/// priced for the worker's thread count, in model ops. The *relative*
/// order is what dispatch needs (shortest-cost-first); the calibration
/// loop additionally learns a µs-per-op scale so records can carry a
/// wall-clock prediction.
fn admission_cost(workload: &dyn Workload, threads: usize) -> Option<f64> {
    let params = MachineParams::new(threads.max(1), 1, 1.0).ok()?;
    let rec = workload.recurrence();
    let n = workload.input_len() as u64;
    let levels = workload.exec_levels().ok()?;
    let plan = Plan::host_only(n, levels, threads.max(1), ScheduleSpec::CpuParallel);
    let profile = LevelProfile::new(&params, &rec, n);
    plan_cost(&profile, &plan).ok().map(|c| c.total)
}

/// Serves `jobs` on `workers` real worker threads, each running jobs on
/// its own `threads_per_worker`-wide [`LevelPool`]. Jobs are submitted by
/// a paced feeder thread at their `arrival_us` offsets, so throughput and
/// latency reflect genuine open-loop arrival.
pub fn serve_native(
    serve: &ServeConfig,
    workers: usize,
    threads_per_worker: usize,
    mut jobs: Vec<NativeJobRequest>,
) -> NativeServeOutput {
    jobs.sort_by_key(|j| j.arrival_us);
    let smoothing = serve
        .calibration
        .as_ref()
        .map(|c| c.smoothing.clamp(0.0, 1.0));
    let epoch = Instant::now();
    let state = Mutex::new(State::default());
    let cvar = Condvar::new();
    let workers = workers.max(1);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let pool = LevelPool::new(threads_per_worker);
                // Without a fault configuration a panic is still caught
                // and typed, just never retried.
                let recovery = serve
                    .faults
                    .as_ref()
                    .map_or(RecoveryPolicy::NO_RETRY, |f| f.recovery);
                loop {
                    let mut job = {
                        let (mut st, poisoned) = lock_recover(&state);
                        if poisoned {
                            st.errors.push(ServeError::Poisoned {
                                context: "native serve state",
                            });
                        }
                        loop {
                            if !st.queue.is_empty() {
                                let ranks: Vec<Rank> = st
                                    .queue
                                    .iter()
                                    .map(|q| Rank {
                                        seq: q.id,
                                        cost: q.cost,
                                        skips: q.skips,
                                    })
                                    .collect();
                                let (order, _) = dispatch_order(&serve.policy, &ranks);
                                let qi = order[0];
                                let job = st.queue.remove(qi);
                                for other in st.queue.iter_mut() {
                                    if other.id < job.id {
                                        other.skips += 1;
                                    }
                                }
                                break job;
                            }
                            if st.done {
                                return;
                            }
                            st = cvar.wait(st).unwrap_or_else(PoisonError::into_inner);
                        }
                    };
                    let start = epoch.elapsed().as_secs_f64() * 1e6;
                    if let Some(m) = &serve.metrics {
                        m.observe("native.wait", start - job.arrival);
                    }
                    if let Some(dl) = job.deadline_us {
                        if start > dl as f64 {
                            if let Some(m) = &serve.metrics {
                                m.inc("native.cancelled", 1);
                            }
                            let (mut st, _) = lock_recover(&state);
                            st.errors.push(ServeError::Cancelled {
                                job: job.id,
                                deadline: dl as f64,
                            });
                            st.records.push(JobRecord {
                                id: job.id,
                                name: job.name,
                                outcome: JobOutcome::Cancelled,
                                arrival: job.arrival,
                                start,
                                end: start,
                                predicted: job.predicted,
                                service: 0.0,
                                fallback: false,
                                retries: 0,
                                degraded: false,
                                calibration_generation: job.generation,
                            });
                            continue;
                        }
                    }
                    // Panic-safe run: a panicking workload is caught at the
                    // job boundary (the pool re-raises a task's panic with
                    // its own payload and holds no state to rebuild) and
                    // retried under the backoff policy before it surfaces
                    // as a typed failure. The worker survives.
                    let mut retries: u32 = 0;
                    let attempt = loop {
                        match catch_unwind(AssertUnwindSafe(|| job.workload.run_native(&pool))) {
                            Ok(Ok(_)) => break Attempt::Ok,
                            Ok(Err(e)) => break Attempt::Err(e),
                            Err(payload) => {
                                if retries < recovery.max_retries {
                                    // Clamped: unclamped `base * factor^k`
                                    // overflows `as u64` past 2^64 µs and in
                                    // any case sleeps a worker for hours once
                                    // k grows; `backoff_at` caps the delay at
                                    // `recovery.max_backoff`.
                                    let backoff = recovery.backoff_at(retries);
                                    if backoff > 0.0 {
                                        std::thread::sleep(Duration::from_micros(backoff as u64));
                                    }
                                    retries += 1;
                                    continue;
                                }
                                break Attempt::Panic(panic_message(payload.as_ref()));
                            }
                        }
                    };
                    let end = epoch.elapsed().as_secs_f64() * 1e6;
                    if let Some(m) = &serve.metrics {
                        match &attempt {
                            Attempt::Ok => {
                                m.inc("native.completed", 1);
                                m.observe("native.service", end - start);
                            }
                            Attempt::Err(_) => m.inc("native.failed", 1),
                            Attempt::Panic(_) => m.inc("native.panics", 1),
                        }
                        if retries > 0 {
                            m.inc("native.retries", u64::from(retries));
                        }
                    }
                    let (mut st, poisoned) = lock_recover(&state);
                    if poisoned {
                        st.errors.push(ServeError::Poisoned {
                            context: "native serve state",
                        });
                    }
                    st.busy.push((start, end));
                    match attempt {
                        Attempt::Ok => {
                            if let Some(sm) = smoothing {
                                let service = end - start;
                                if job.cost > 0.0 && job.cost.is_finite() && service > 0.0 {
                                    let r = service / job.cost;
                                    st.scale = Some(match st.scale {
                                        None => r,
                                        Some(old) => (1.0 - sm) * old + sm * r,
                                    });
                                    st.scale_updates += 1;
                                }
                            }
                            st.records.push(JobRecord {
                                id: job.id,
                                name: job.name,
                                outcome: JobOutcome::Completed,
                                arrival: job.arrival,
                                start,
                                end,
                                predicted: job.predicted,
                                service: end - start,
                                fallback: false,
                                retries,
                                degraded: false,
                                calibration_generation: job.generation,
                            });
                        }
                        Attempt::Err(e) => {
                            st.errors.push(ServeError::Run {
                                job: job.id,
                                source: e,
                            });
                            st.records.push(JobRecord {
                                id: job.id,
                                name: job.name,
                                outcome: JobOutcome::Failed {
                                    fault: FaultTag::Error,
                                    retries,
                                },
                                arrival: job.arrival,
                                start,
                                end,
                                predicted: job.predicted,
                                service: 0.0,
                                fallback: false,
                                retries,
                                degraded: false,
                                calibration_generation: job.generation,
                            });
                        }
                        Attempt::Panic(message) => {
                            st.errors.push(ServeError::WorkerPanic {
                                job: job.id,
                                message,
                            });
                            st.records.push(JobRecord {
                                id: job.id,
                                name: job.name,
                                outcome: JobOutcome::Failed {
                                    fault: FaultTag::Panic,
                                    retries,
                                },
                                arrival: job.arrival,
                                start,
                                end,
                                predicted: job.predicted,
                                service: 0.0,
                                fallback: false,
                                retries,
                                degraded: false,
                                calibration_generation: job.generation,
                            });
                        }
                    }
                }
            });
        }

        // Paced open-loop feeder: this thread releases each job at its
        // arrival offset.
        for (id, job) in jobs.into_iter().enumerate() {
            let target = Duration::from_micros(job.arrival_us);
            let elapsed = epoch.elapsed();
            if target > elapsed {
                std::thread::sleep(target - elapsed);
            }
            let arrival = epoch.elapsed().as_secs_f64() * 1e6;
            if let Some(m) = &serve.metrics {
                m.inc("native.submitted", 1);
            }
            let cost = admission_cost(job.workload.as_ref(), threads_per_worker);
            let (mut st, poisoned) = lock_recover(&state);
            if poisoned {
                st.errors.push(ServeError::Poisoned {
                    context: "native serve state",
                });
            }
            if st.queue.len() >= serve.queue_capacity {
                if let Some(m) = &serve.metrics {
                    m.inc("native.rejected", 1);
                }
                st.errors.push(ServeError::QueueFull {
                    job: id as u64,
                    capacity: serve.queue_capacity,
                });
                let generation = st.scale_updates;
                st.records.push(JobRecord {
                    id: id as u64,
                    name: job.name,
                    outcome: JobOutcome::QueueFull,
                    arrival,
                    start: arrival,
                    end: arrival,
                    predicted: 0.0,
                    service: 0.0,
                    fallback: false,
                    retries: 0,
                    degraded: false,
                    calibration_generation: generation,
                });
                continue;
            }
            // Price in wall µs with the learned scale; before the first
            // completion (or without calibration) there is no prediction.
            let predicted = match (smoothing, st.scale, cost) {
                (Some(_), Some(scale), Some(c)) => c * scale,
                _ => 0.0,
            };
            let generation = st.scale_updates;
            st.queue.push(Queued {
                id: id as u64,
                name: job.name,
                arrival,
                deadline_us: job.deadline_us,
                cost: cost.unwrap_or(f64::MAX),
                predicted,
                generation,
                skips: 0,
                workload: job.workload,
            });
            drop(st);
            cvar.notify_one();
        }
        let (mut st, _) = lock_recover(&state);
        st.done = true;
        drop(st);
        cvar.notify_all();
    });

    let st = state.into_inner().unwrap_or_else(PoisonError::into_inner);
    let cpu_busy = hpu_obs::merge_intervals(&st.busy);
    let report = ServeReport::new(st.records, cpu_busy, 0.0);
    NativeServeOutput {
        report,
        errors: st.errors,
        calibration_updates: st.scale_updates,
    }
}
