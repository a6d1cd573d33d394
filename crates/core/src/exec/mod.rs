//! Executors for breadth-first D&C algorithms on the simulated HPU and on
//! native threads.
//!
//! [`run_sim`] compiles a [`ScheduleSpec`] to an execution [`Plan`]
//! (deriving model parameters where asked to) and hands it to
//! [`run_sim_plan`], the one simulated entry point: it
//! validates the plan against the input and drives the generic
//! [`interpret`] loop over the simulated-machine backend, with recovery,
//! metering and checkpoint resume chosen by [`RunOpts`]. Every schedule —
//! sequential, CPU-parallel, GPU-only, basic crossover, advanced split —
//! runs through this one path; the returned [`RunReport`] carries
//! virtual-time, communication and per-level accounting plus a
//! model-vs-simulation drift report against the *same* plan the run
//! executed.

mod backend;
mod native;
mod sim;

pub use backend::{
    interpret, Backend, BandStats, InterpretStats, LevelBand, RecoveryPolicy, RecoveryStats, Share,
};
pub use native::{run_native, run_native_report, NativeBackend, NativeReport};
pub use sim::SimBackend;

use std::sync::Arc;

use hpu_machine::{SimHpu, SimMachineParams};
use hpu_model::{compile, predict_levels, LevelProfile, MachineParams, Plan, ScheduleSpec};
use hpu_obs::{drift_rows, LevelBook, LevelDrift, LevelMetrics, MetricsRegistry};

use crate::bf::{num_levels, BfAlgorithm, Element};
use crate::error::CoreError;

/// A consistent cut of a job captured at a plan-segment boundary.
///
/// The breadth-first interpreter only hands data between units at level
/// boundaries, so every segment boundary is a consistent cut: levels
/// `0..level` are complete and the partial results live in the host
/// buffer. A checkpoint records that cut so a crashed job can resume on
/// another machine via [`RunOpts::resume`] instead of restarting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Checkpoint {
    /// First level still to run (levels `0..level` are captured).
    pub level: u32,
    /// Words of host state the checkpoint captured (the whole working
    /// buffer for the in-place breadth-first form).
    pub resident_words: u64,
    /// Calibration generation of the plan the job was running under when
    /// the cut was taken; a resuming scheduler uses it to decide whether
    /// the suffix plan is still trustworthy.
    pub generation: u64,
}

/// Options of one [`run_sim_plan`] call. The default runs the whole plan
/// once, unmetered, surfacing the first fault.
#[derive(Debug, Clone, Default)]
pub struct RunOpts {
    /// Retry faulted segments under this policy (see [`interpret`]);
    /// `None` surfaces the first fault.
    pub recovery: Option<RecoveryPolicy>,
    /// Live registry the interpreter samples per-segment timings
    /// (kernel, transfer, launch overhead) into.
    pub metrics: Option<Arc<MetricsRegistry>>,
    /// Resume from this level-boundary checkpoint instead of running the
    /// whole plan. The checkpointed prefix — base cases and combine levels
    /// `0..level` — is *restored*, not re-executed: the host buffer is
    /// brought to the cut's state by a pure host replay that charges no
    /// virtual time, the model of reloading saved state. The interpreter
    /// then runs only the plan suffix ([`Plan::resume_from_level`]),
    /// re-staging any device region the suffix needs via the retained
    /// upload edges. The report accounts the resumed work only, so its
    /// `virtual_time` is the re-execution a recovery *avoided* paying.
    pub resume: Option<Checkpoint>,
}

/// Accounting of one simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Human-readable description of the resolved schedule.
    pub label: String,
    /// Virtual time the run took (makespan over both units).
    pub virtual_time: f64,
    /// Number of CPU↔GPU transfers performed.
    pub transfers: u64,
    /// Words moved across the bus.
    pub words: u64,
    /// Memory accesses the device served coalesced.
    pub coalesced: u64,
    /// Memory accesses the device served uncoalesced.
    pub uncoalesced: u64,
    /// Total busy core-time on the CPU.
    pub cpu_busy: f64,
    /// Total busy time on the GPU.
    pub gpu_busy: f64,
    /// The schedule after parameter resolution (e.g. derived crossover):
    /// the executed plan's [`Plan::resolved`].
    pub resolved: ScheduleSpec,
    /// Durations of the advanced schedule's concurrent phase on each unit
    /// (CPU, GPU including the transfer back): the paper's "GPU/CPU" ratio
    /// of Figure 8 is `concurrent.1 / concurrent.0`.
    pub concurrent: Option<(f64, f64)>,
    /// Per-level metrics (bottom-up: level 0 = base cases), aggregated from
    /// the structured execution spans.
    pub levels: Vec<LevelMetrics>,
    /// Per-level analytic prediction vs. simulated time for the executed
    /// plan (same bottom-up indexing as [`RunReport::levels`]).
    pub drift: Vec<LevelDrift>,
}

/// Runs `algo` over `data` on the simulated machine under `spec`.
///
/// `data.len()` must be `base_chunk · a^k` (see
/// [`crate::CoreError::InvalidSize`]). The schedule is compiled to an
/// execution [`Plan`] and interpreted on a [`SimBackend`]; invalid advanced
/// parameters surface as [`CoreError::InvalidAlpha`] /
/// [`CoreError::InvalidLevel`], and any other compile failure as
/// [`CoreError::Model`], before any work runs. On success `data` holds the
/// result and the report carries the virtual-time accounting, per-level
/// metrics and the model-vs-simulation drift rows.
pub fn run_sim<T: Element, A: BfAlgorithm<T>>(
    algo: &A,
    data: &mut [T],
    hpu: &mut SimHpu,
    spec: &ScheduleSpec,
) -> Result<RunReport, CoreError> {
    let levels = num_levels(algo, data.len())?;
    let params = MachineParams::from_sim(hpu);
    let plan = compile(spec, &params, &algo.recurrence(), data.len() as u64, levels)?;
    run_sim_plan(algo, data, hpu, &plan, &RunOpts::default()).0
}

/// Runs `algo` over `data` on the simulated machine under an
/// already-compiled `plan`.
///
/// This is the sharing hook multi-job schedulers (`hpu-serve`) build on:
/// the plan is compiled once — typically against the same machine the run
/// uses, possibly with a restricted core count — and executed later, or on
/// a machine of the caller's choosing. The plan must match the input
/// (`plan.n == data.len()`, `plan.exec_levels` = the algorithm's level
/// count for that size); a mismatched plan is rejected as
/// [`CoreError::MalformedPlan`] before any work runs. `opts` picks the
/// retry policy, the metrics registry and a checkpoint to resume from; the
/// recovery tallies come back alongside the result so callers can report
/// retry counts even when the run fails.
pub fn run_sim_plan<T: Element, A: BfAlgorithm<T>>(
    algo: &A,
    data: &mut [T],
    hpu: &mut SimHpu,
    plan: &Plan,
    opts: &RunOpts,
) -> (Result<RunReport, CoreError>, RecoveryStats) {
    let mut rstats = RecoveryStats::default();
    let result = run_checked(algo, data, hpu, plan, opts, &mut rstats);
    (result, rstats)
}

/// Replays the checkpointed prefix (base cases plus combine levels below
/// `level`) directly on the host buffer, charging no machine time: this
/// models restoring saved state, not re-executing the work.
fn restore_to_level<T: Element, A: BfAlgorithm<T>>(algo: &A, data: &mut [T], level: u32) {
    if level == 0 {
        return;
    }
    let mut scratch = vec![T::default(); data.len()];
    if !native::run_subtree(algo, data, &mut scratch, 0, level - 1) {
        data.copy_from_slice(&scratch);
    }
}

/// The body of [`run_sim_plan`]; the recovery tallies land in `rstats` so
/// they survive an error return.
fn run_checked<T: Element, A: BfAlgorithm<T>>(
    algo: &A,
    data: &mut [T],
    hpu: &mut SimHpu,
    plan: &Plan,
    opts: &RunOpts,
    rstats: &mut RecoveryStats,
) -> Result<RunReport, CoreError> {
    let levels = num_levels(algo, data.len())?;
    let suffix;
    let plan = match &opts.resume {
        None => plan,
        Some(ckpt) => {
            if ckpt.level > levels {
                return Err(CoreError::InvalidLevel {
                    level: ckpt.level,
                    levels,
                });
            }
            suffix = plan
                .resume_from_level(ckpt.level)
                .map_err(|_| CoreError::MalformedPlan {
                    reason: "plan does not cover the checkpoint level",
                })?;
            restore_to_level(algo, data, ckpt.level);
            let t = hpu.elapsed();
            hpu.annotate(
                hpu_machine::Unit::Cpu,
                t,
                t,
                hpu_obs::EventKind::Resume { level: ckpt.level },
            );
            &suffix
        }
    };
    let n = data.len();
    if plan.segments.is_empty() {
        return Err(CoreError::MalformedPlan {
            reason: "plan has no segments",
        });
    }
    if plan.n != n as u64 || plan.exec_levels != levels {
        return Err(CoreError::MalformedPlan {
            reason: "plan was compiled for a different input",
        });
    }
    hpu.sync();
    let t0 = hpu.elapsed();
    let transfers0 = hpu.bus.transfers();
    let words0 = hpu.bus.words();
    let cpu_busy0 = hpu.cpu.stats().busy_core_time;
    let gpu_busy0 = hpu.gpu.stats().busy;

    let params = MachineParams::from_sim(hpu);
    let rec = algo.recurrence();

    let book = LevelBook::new(algo.base_chunk() as u64, algo.branching() as u64);
    let mut backend = SimBackend::new(hpu, data, book);
    if let Some(m) = &opts.metrics {
        backend = backend.with_metrics(m.clone());
    }
    let policy = opts.recovery.unwrap_or(RecoveryPolicy::NO_RETRY);
    let (run, rs) = interpret(plan, algo, &mut backend, &policy);
    *rstats = rs;
    let stats = match run {
        Ok(s) => s,
        Err(e) => {
            drop(backend);
            hpu.sync();
            return Err(e);
        }
    };
    let book = backend.into_book();

    hpu.sync();
    let level_metrics = book.finish();
    let profile = LevelProfile::new(&params, &rec, n as u64);
    let predicted: Vec<(u32, f64)> = predict_levels(&profile, plan)
        .into_iter()
        .map(|p| (p.level, p.time))
        .collect();
    let drift = drift_rows(&level_metrics, &predicted);
    Ok(RunReport {
        label: format!("{:?} on {}", plan.resolved, algo.name()),
        virtual_time: hpu.elapsed() - t0,
        transfers: hpu.bus.transfers() - transfers0,
        words: hpu.bus.words() - words0,
        coalesced: stats.coalesced,
        uncoalesced: stats.uncoalesced,
        cpu_busy: hpu.cpu.stats().busy_core_time - cpu_busy0,
        gpu_busy: hpu.gpu.stats().busy - gpu_busy0,
        resolved: plan.resolved.clone(),
        concurrent: stats.concurrent,
        levels: level_metrics,
        drift,
    })
}
