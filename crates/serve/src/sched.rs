//! The simulated-time multi-job scheduler.
//!
//! [`serve_sim`] runs a fleet of D&C jobs over **one** shared simulated
//! machine. Each job is compiled to a [`Plan`] at admission, priced with
//! [`plan_cost`], and solo-executed on a private virtual clock to measure
//! its exact per-segment device demands; dispatch then replays those
//! demands through the [`DeviceArbiter`]'s reservation calendars in fleet
//! virtual time. The GPU is an exclusive lease, so GPU segments of
//! different jobs serialize while their CPU segments overlap; the CPU pool
//! partitions by core count.
//!
//! Scheduling is event-driven and fully deterministic: events are job
//! arrivals and reservation releases, and at each event the dispatcher
//! offers resources to queued jobs in [`Policy`] order. Backpressure is a
//! bounded queue ([`ServeError::QueueFull`]); deadlines cancel jobs whose
//! projected completion falls past them ([`ServeError::Cancelled`] — the
//! projection only ever tightens as reservations accumulate, so an early
//! cancel is never wrong). When the GPU lease is contended, a job with a
//! compiled CPU-only fallback takes it instead of waiting, if that
//! finishes sooner.
//!
//! # Closed-loop calibration
//!
//! With [`ServeConfig::calibration`] set, the scheduler closes the loop
//! between prediction and observation: each completed job's measured
//! CPU/GPU/bus times are folded into a [`Calibrator`] **at the job's
//! completion time** (evidence never arrives early), and when a completed
//! job's relative drift exceeds the configured threshold, every
//! still-queued job is re-priced and re-compiled under the corrected
//! parameters — admission cost, shortest-cost ordering, and the plan's
//! crossover levels all improve as evidence accumulates. Pricing can start
//! from deliberately wrong numbers via [`ServeConfig::assumed`].
//! Everything stays deterministic: observations drain in completion order
//! at event boundaries.
//!
//! # Driving a node one event at a time
//!
//! [`serve_sim`] is a thin wrapper over [`NodeSim`], the resumable form
//! of the same scheduler: construct one, [`NodeSim::submit`] jobs (before
//! or between events), [`NodeSim::step`] single events, and
//! [`NodeSim::finish`] for the [`ServeOutput`]. A fleet layer
//! (`hpu-fleet`) interleaves many nodes in one global virtual time by
//! always stepping the node with the earliest
//! [`NodeSim::next_event_time`], and migrates queued jobs between nodes
//! with [`NodeSim::steal`] / [`NodeSim::inject`] at event boundaries —
//! the stolen job is re-priced from scratch under the receiving node's
//! beliefs and plan cache.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Arc, Mutex, PoisonError};

use hpu_core::exec::{Checkpoint, RecoveryPolicy, RunOpts, RunReport};
use hpu_core::CoreError;
use hpu_machine::{
    FaultInjector, FaultPlan, MachineConfig, MachineError, SimHpu, SimMachineParams,
};
use hpu_model::{
    batched_segment_time, compile, compile_timed, plan_cost, CacheStats, Calibration,
    CalibrationError, Calibrator, CalibratorConfig, LevelProfile, MachineParams, ModelError,
    Observation, Placement, Plan, PlanCache, PlanCost, Recurrence, ScheduleSpec,
    DEFAULT_PLAN_CACHE_CAPACITY,
};
use hpu_obs::{
    FaultTag, JobOutcome, JobRecord, MetricsRegistry, ServeReport, SpanKind, SpanSet, TraceEvent,
    Track,
};

use crate::arbiter::{DeviceArbiter, EPS};
use crate::error::ServeError;
use crate::job::Workload;
use crate::queue::{dispatch_order, Policy, Rank};

/// Scheduler configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Maximum number of jobs waiting in the admission queue; arrivals
    /// beyond it are rejected with [`ServeError::QueueFull`].
    pub queue_capacity: usize,
    /// Dispatch policy.
    pub policy: Policy,
    /// Whether a GPU-using job may fall back to its CPU-only plan when
    /// the device lease is contended and the fallback finishes sooner.
    pub cpu_fallback: bool,
    /// Machine parameters to price and compile with, when they should
    /// differ from the served machine's own
    /// ([`MachineParams::from_config`]). This is the mis-specification
    /// knob for calibration experiments: the scheduler *believes* these
    /// numbers until the calibration loop corrects them. `p` always
    /// follows the served machine.
    pub assumed: Option<MachineParams>,
    /// Closed-loop calibration (see the module docs). `None` — the
    /// default — keeps the open-loop behavior bit for bit.
    pub calibration: Option<CalibratorConfig>,
    /// Seeded device-fault injection plus the recovery knobs (see
    /// [`FaultConfig`]). `None` — the default — serves fault-free.
    pub faults: Option<FaultConfig>,
    /// Live metrics registry the scheduler samples into: admission and
    /// queueing counters, wait/latency/service histograms, calibration
    /// drift, arbiter occupancy, plan-compile time and — through the
    /// solo runs — the interpreter's per-segment timings. `None` — the
    /// default — serves unmetered with zero overhead.
    pub metrics: Option<Arc<MetricsRegistry>>,
    /// Capacity of the per-fleet [`PlanCache`]: admission looks plans up
    /// by canonical [`hpu_model::PlanKey`] instead of recompiling, and a
    /// drift-triggered calibration replan becomes a generation bump plus
    /// lazy re-fill. The default holds
    /// [`DEFAULT_PLAN_CACHE_CAPACITY`] plans; `None` disables caching
    /// and recompiles every admission (the pre-cache behavior).
    pub plan_cache: Option<usize>,
    /// Cross-job GPU kernel batching (see [`BatchPolicy`]). The default,
    /// [`BatchPolicy::Off`], keeps the unbatched scheduler bit for bit.
    pub batch: BatchPolicy,
    /// Level-boundary checkpointing of running jobs (see
    /// [`CheckpointPolicy`]). The default, [`CheckpointPolicy::Off`],
    /// records nothing and keeps the scheduler bit for bit;
    /// [`CheckpointPolicy::EveryLevel`] lets a fleet-level crash recover
    /// in-flight jobs from their last completed level instead of
    /// restarting them from scratch.
    pub checkpoint: CheckpointPolicy,
}

/// When a running job's state is captured at level boundaries.
///
/// Every segment boundary of a compiled plan is a consistent cut of the
/// breadth-first execution — levels below it are completely done, levels
/// above it untouched — so a checkpoint taken there resumes exactly (see
/// [`RunOpts::resume`]). The policy decides whether they are captured.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CheckpointPolicy {
    /// No checkpoints: crash recovery restarts in-flight jobs from
    /// scratch. Byte-identical to the pre-checkpointing scheduler.
    #[default]
    Off,
    /// Capture at every level boundary.
    EveryLevel,
}

impl CheckpointPolicy {
    /// Whether a checkpoint at resume-level `level` (levels `0..level`
    /// complete) is admitted by this policy.
    pub fn admits(&self, level: u32) -> bool {
        *self == CheckpointPolicy::EveryLevel && level > 0
    }
}

/// Cross-job GPU kernel batching policy.
///
/// At each dispatch event, when the job the policy would dispatch next
/// is GPU-using, the scheduler may *coalesce* other queued jobs with the
/// **same shape** — same algorithm kind, same calibration generation,
/// structurally identical compiled plan — into one batched kernel launch
/// per GPU segment: one merged upload, one launch, one download, so the
/// batch pays the fixed costs (`λ` per transfer edge, launch overhead
/// per level) **once** while every member still pays its own `δ·w`
/// payload and kernel waves (Kothapalli-style amortization).
///
/// Fairness invariants, enforced before any batch commits:
///
/// * The policy's dispatch-order winner always leads the batch — a batch
///   never runs ahead of a job the queue policy promised to serve first,
///   and the starvation (`skips`) accounting is identical to solo
///   dispatch.
/// * A batch must still start at the current event time; if coalescing
///   pushes the merged window later, the leader dispatches solo instead.
/// * A member whose projected completion (including its solo run's
///   overhang) would miss its deadline is dropped from the batch — a
///   lone job is never delayed past its deadline to benefit a batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum BatchPolicy {
    /// No coalescing: byte-identical to the pre-batching scheduler.
    #[default]
    Off,
    /// Coalesce up to `max_batch` same-shaped jobs per launch. A bound
    /// below 2 can never form a batch and behaves exactly like
    /// [`BatchPolicy::Off`].
    Coalesce {
        /// Largest number of jobs one launch may serve.
        max_batch: usize,
    },
}

impl BatchPolicy {
    /// The effective batch bound: `None` when batching is off (or the
    /// bound cannot fit two members).
    fn bound(&self) -> Option<usize> {
        match *self {
            BatchPolicy::Off => None,
            BatchPolicy::Coalesce { max_batch } => (max_batch >= 2).then_some(max_batch),
        }
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 32,
            policy: Policy::default(),
            cpu_fallback: true,
            assumed: None,
            calibration: None,
            faults: None,
            metrics: None,
            plan_cache: Some(DEFAULT_PLAN_CACHE_CAPACITY),
            batch: BatchPolicy::Off,
            checkpoint: CheckpointPolicy::Off,
        }
    }
}

/// Fault injection and recovery configuration for [`serve_sim`].
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// The seeded fault plan shared by every job's device traffic.
    pub plan: FaultPlan,
    /// Per-segment retry/backoff policy for transient faults.
    pub recovery: RecoveryPolicy,
    /// Consecutive failed GPU executions (retries exhausted) after which
    /// the GPU circuit breaker trips: queued GPU jobs degrade to their
    /// CPU-only shape and new arrivals compile CPU-only. Permanent
    /// device loss trips the breaker immediately.
    pub breaker_threshold: u32,
}

impl FaultConfig {
    /// A fault configuration with default recovery (3 retries, 16-unit
    /// doubling backoff) and a breaker tripping after 3 consecutive
    /// failed GPU executions.
    pub fn new(plan: FaultPlan) -> Self {
        FaultConfig {
            plan,
            recovery: RecoveryPolicy::default(),
            breaker_threshold: 3,
        }
    }
}

/// Live fault-handling state of one serving run.
struct FaultState {
    injector: Arc<Mutex<FaultInjector>>,
    recovery: RecoveryPolicy,
    breaker_threshold: u32,
    consecutive: u32,
    open: bool,
    trips: u64,
    /// A trip happened since the event loop last degraded the queue.
    pending_trip: bool,
}

impl FaultState {
    fn new(cfg: &FaultConfig) -> Self {
        FaultState {
            injector: FaultInjector::shared(cfg.plan.clone()),
            recovery: cfg.recovery,
            breaker_threshold: cfg.breaker_threshold.max(1),
            consecutive: 0,
            open: false,
            trips: 0,
            pending_trip: false,
        }
    }

    /// Folds the outcome of one GPU-using solo execution into the
    /// breaker: failures count consecutively, success resets, device
    /// loss trips immediately.
    fn on_gpu_result(&mut self, failed: bool, lost: bool) {
        if !failed {
            self.consecutive = 0;
            return;
        }
        self.consecutive += 1;
        if (lost || self.consecutive >= self.breaker_threshold) && !self.open {
            self.open = true;
            self.trips += 1;
            self.pending_trip = true;
        }
    }

    fn take_pending_trip(&mut self) -> bool {
        std::mem::take(&mut self.pending_trip)
    }

    fn fault_events(&self) -> u64 {
        self.injector
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .fault_events()
    }
}

/// The [`FaultTag`] a machine error surfaces as in a job record.
fn tag_of(e: &MachineError) -> FaultTag {
    if e.is_transient() {
        FaultTag::Transient
    } else if matches!(e, MachineError::DeviceLost) {
        FaultTag::DeviceLost
    } else {
        FaultTag::Error
    }
}

/// One job submission.
pub struct JobRequest {
    /// Human-readable label, carried into the records.
    pub name: String,
    /// The schedule to compile the job's plan from.
    pub spec: ScheduleSpec,
    /// Submission time (fleet virtual time).
    pub arrival: f64,
    /// Latest acceptable completion time, if any.
    pub deadline: Option<f64>,
    /// The work itself.
    pub workload: Box<dyn Workload>,
}

impl JobRequest {
    /// A deadline-free job submission.
    pub fn new(
        name: impl Into<String>,
        spec: ScheduleSpec,
        arrival: f64,
        workload: Box<dyn Workload>,
    ) -> Self {
        JobRequest {
            name: name.into(),
            spec,
            arrival,
            deadline: None,
            workload,
        }
    }

    /// Attaches a completion deadline (fleet virtual time).
    pub fn with_deadline(mut self, deadline: f64) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// The full execution report of one completed job.
pub struct JobRun {
    /// Scheduler-assigned job id (submission order).
    pub id: u64,
    /// The job's label.
    pub name: String,
    /// Whether the CPU-only fallback plan ran instead of the primary.
    pub fallback: bool,
    /// The per-job run report (virtual time, per-level metrics, drift).
    pub report: RunReport,
}

/// Everything a serving run produces.
pub struct ServeOutput {
    /// Fleet-level metrics over every submitted job.
    pub report: ServeReport,
    /// Per-job [`RunReport`]s of the jobs that completed.
    pub runs: Vec<JobRun>,
    /// Typed rejection/cancellation/failure errors, in occurrence order.
    pub errors: Vec<ServeError>,
    /// Every GPU lease granted, ascending by start.
    pub gpu_leases: Vec<(f64, f64)>,
    /// Every CPU reservation granted `(start, end, cores)`.
    pub cpu_reservations: Vec<(f64, f64, usize)>,
    /// Drift-triggered replans performed (0 without calibration).
    pub replans: u64,
    /// Plan-cache counters, when [`ServeConfig::plan_cache`] was on:
    /// hits are admissions (or replan re-pricings) served by lookup,
    /// misses are fresh compiles.
    pub plan_cache: Option<CacheStats>,
    /// Final calibration state, when the loop was enabled.
    pub calibration: Option<Calibration>,
    /// Causal span tree of every dispatched job — a
    /// [`SpanKind::Job`] span per completion, parenting its
    /// [`SpanKind::Segment`] spans (the committed reservation windows),
    /// which parent [`SpanKind::Level`] spans (the solo run's level rows
    /// laid proportionally inside the segment window) and a
    /// [`SpanKind::Retry`] marker when recovery retried. Feed these to a
    /// [`hpu_obs::ChromeTrace`] process to see the tree as flow arrows.
    pub spans: Vec<TraceEvent>,
    /// Every cross-job batched launch formed, in commit order (empty
    /// under [`BatchPolicy::Off`]).
    pub batches: Vec<BatchRecord>,
}

/// One committed cross-job batched launch.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchRecord {
    /// Dispatch event time the batch formed at.
    pub at: f64,
    /// Member job ids, dispatch order (the policy's winner first).
    pub members: Vec<u64>,
    /// The merged GPU windows reserved, one `(start, end)` per batched
    /// GPU segment, plan order.
    pub windows: Vec<(f64, f64)>,
    /// Device time saved versus committing every member solo (the
    /// amortized launch overheads and transfer latencies).
    pub saved: f64,
}

/// Where one plan segment runs, from the arbiter's point of view.
#[derive(Debug, Clone, Copy)]
enum SegKind {
    Cpu { cores: usize },
    Gpu,
    Split { cores: usize },
}

/// Measured device demand of one plan segment.
#[derive(Debug, Clone, Copy)]
struct SegDemand {
    kind: SegKind,
    cpu: f64,
    gpu: f64,
}

impl SegDemand {
    fn len(&self) -> f64 {
        match self.kind {
            SegKind::Cpu { .. } => self.cpu,
            SegKind::Gpu => self.gpu,
            SegKind::Split { .. } => self.cpu.max(self.gpu),
        }
    }
}

/// One executable shape of a job: a plan's measured demands plus its
/// predicted cost, the solo run's report, and the predicted-vs-observed
/// per-unit evidence for the calibration loop.
struct Variant {
    cost: f64,
    /// The compiled plan the demands were measured under — shared with
    /// the plan cache, and compared on replan so an unchanged plan keeps
    /// its measured demands instead of re-running solo.
    plan: Arc<Plan>,
    demands: Vec<SegDemand>,
    report: RunReport,
    obs: Observation,
    /// Segment retries the solo run needed (0 without faults).
    retries: u32,
    /// Whether this shape is a CPU-only degradation of a GPU schedule.
    degraded: bool,
    /// Per-segment *fixed* device cost on the true machine (transfer
    /// latencies + launch overheads; 0 for CPU bands) — what cross-job
    /// batching amortizes. Aligned index for index with `demands`.
    fixed: Vec<f64>,
}

impl Variant {
    /// Virtual time of the solo run not covered by per-segment device
    /// demands: sync waits and retry backoff. The reservation calendars
    /// only hold the demands, so a job's true completion is its last
    /// reservation end plus this overhang.
    fn overhang(&self) -> f64 {
        let demand: f64 = self.demands.iter().map(|d| d.len()).sum();
        (self.report.virtual_time - demand).max(0.0)
    }

    /// Folds a solo run's per-level metrics into per-segment device
    /// demands plus the per-unit predicted-vs-observed evidence.
    fn measure(
        machine: &MachineConfig,
        plan: Arc<Plan>,
        cost: &PlanCost,
        params: &MachineParams,
        report: RunReport,
        retries: u32,
    ) -> Variant {
        let segs = plan.segments.len();
        let mut cpu = vec![0.0; segs];
        let mut gpu = vec![0.0; segs];
        for row in &report.levels {
            // `run_sim_plan` rejects empty plans before this point, so
            // `segs >= 1`; the saturating clamp keeps the index total even if
            // that invariant ever moves.
            let si = row
                .segment
                .map(|s| s as usize)
                .or_else(|| plan.segment_of(row.level).map(|(i, _)| i))
                .unwrap_or(0)
                .min(segs.saturating_sub(1));
            cpu[si] += row.cpu_time;
            // The bus is only ever driven for the device: transfers extend
            // the segment's GPU lease.
            gpu[si] += row.gpu_time + row.bus_time;
        }
        let demands = plan
            .segments
            .iter()
            .enumerate()
            .map(|(i, seg)| SegDemand {
                kind: match seg.placement {
                    Placement::Cpu { cores } => SegKind::Cpu { cores },
                    Placement::Gpu => SegKind::Gpu,
                    Placement::Split { .. } => SegKind::Split {
                        cores: machine.cpu.cores,
                    },
                },
                cpu: cpu[i],
                gpu: gpu[i],
            })
            .collect();
        let mut obs = Observation {
            observed_cpu: report.levels.iter().map(|r| r.cpu_time).sum(),
            observed_gpu: report.levels.iter().map(|r| r.gpu_time).sum(),
            observed_bus: report.levels.iter().map(|r| r.bus_time).sum(),
            ..Observation::default()
        };
        set_predicted(&mut obs, &plan, cost, params);
        // The fixed costs batching can amortize are properties of the *true*
        // machine the demands were measured on — the bus latency actually
        // paid per transfer edge and the launch overhead actually paid per
        // level — never of the believed (assumed/calibrated) parameters.
        let fixed = (0..plan.segments.len())
            .map(|i| plan.segment_fixed_cost(i, machine.bus.lambda, machine.gpu.launch_overhead))
            .collect();
        Variant {
            cost: cost.total,
            plan,
            demands,
            report,
            obs,
            retries,
            degraded: false,
            fixed,
        }
    }
}

fn uses_gpu(v: &Variant) -> bool {
    v.demands
        .iter()
        .any(|d| matches!(d.kind, SegKind::Gpu | SegKind::Split { .. }))
}

/// Whether a schedule spec asks for the device at all (before compilation
/// possibly degrades it).
fn spec_wants_gpu(spec: &ScheduleSpec) -> bool {
    !matches!(spec, ScheduleSpec::Sequential | ScheduleSpec::CpuParallel)
}

/// The CPU-only shape GPU specs degrade to.
const CPU_ONLY: ScheduleSpec = ScheduleSpec::CpuParallel;

struct Queued {
    job: StolenJob,
    primary: Variant,
    fallback: Option<Variant>,
    /// Calibration generation the job was last priced under.
    generation: u64,
}

/// Evidence of a dispatched job, released at its completion time.
#[derive(Clone, Copy)]
struct PendingObs {
    end: f64,
    job: u64,
    obs: Observation,
    drift: f64,
}

/// Total order on event times (f64 `total_cmp`).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Time(f64);

impl Eq for Time {}

impl PartialOrd for Time {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Time {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    Arrive(usize),
    Tick,
}

type EventHeap = BinaryHeap<Reverse<(Time, u64, Ev)>>;

/// Tick events draw sequence numbers from a band strictly above every
/// arrival sequence number, so at equal times arrivals always pop before
/// reservation-release ticks — regardless of *when* the arrival was
/// submitted. (The batch scheduler got this for free by numbering ticks
/// after the last arrival; incremental submission needs the bands.)
const TICK_SEQ_BASE: u64 = 1 << 32;

/// An accepted submission waiting for its arrival event to fire.
struct Pending {
    job: StolenJob,
    /// A migrated job's record and latency span its original fleet-time
    /// `arrival`; a fresh submission's span its arrival event.
    migrated: bool,
}

/// A queued job removed from one node's scheduler for migration to
/// another ([`NodeSim::steal`] → [`NodeSim::inject`]).
///
/// Carries the *originally requested* schedule spec — not any degraded
/// CPU-only shape — so a healthy receiving node compiles the full hybrid
/// plan again, and the original arrival time, so latency keeps spanning
/// the fleet-level submission. The scheduler holds every job in this
/// form — pending, queued and running — so migration moves it whole.
pub struct StolenJob {
    /// Fleet-assigned job id.
    pub id: u64,
    /// The job's label.
    pub name: String,
    /// The schedule the job was originally submitted with.
    pub spec: ScheduleSpec,
    /// Original submission time (fleet virtual time).
    pub arrival: f64,
    /// Latest acceptable completion time, if any.
    pub deadline: Option<f64>,
    /// Starvation credit (dispatch rounds skipped in favor of younger
    /// jobs) the job earned before migration. The receiving node's
    /// starvation bound counts from here, so migration never resets a
    /// senior job's place in line.
    pub skips: usize,
    /// The level-boundary checkpoint a crash-recovered job resumes from;
    /// `None` re-runs the job from scratch.
    pub checkpoint: Option<Checkpoint>,
    /// The work itself.
    pub workload: Box<dyn Workload>,
}

/// Everything [`NodeSim::crash`] evicts from a crashed node, for the
/// fleet layer to re-place on healthy peers.
pub struct CrashReport {
    /// Jobs that were still queued (or not yet arrived) at the crash:
    /// nothing of theirs ran here, so they carry at most the checkpoint
    /// they arrived with.
    pub queued: Vec<StolenJob>,
    /// Jobs that were executing at the crash, their completion records
    /// revoked. Each carries its last admitted level-boundary checkpoint
    /// when the node's [`CheckpointPolicy`] recorded one in time.
    pub in_flight: Vec<StolenJob>,
}

/// A dispatched job's registry entry, kept until its completion time so a
/// node crash can tell finished work from lost work — and recover the
/// lost jobs from their last level-boundary checkpoint.
struct RunningJob {
    /// The job as dispatched; its checkpoint is the one it resumed from,
    /// if any — a second crash resumes from at least there.
    job: StolenJob,
    /// Last reservation end: the completion time its record claims.
    end: f64,
    /// Admitted checkpoint boundaries `(time, resume_level)`, ascending;
    /// empty under [`CheckpointPolicy::Off`].
    boundaries: Vec<(f64, u32)>,
    /// Boundaries already counted into the `recovery.checkpoints` metric.
    next_boundary: usize,
    /// Calendar entries to hand back if the node crashes mid-run (empty
    /// for batch members: a merged lease is not reclaimed per member).
    resvs: Vec<Resv>,
    /// Host state words a checkpoint of this job captures.
    words: u64,
}

/// Pricing inputs of one queued job, as a prospective thief needs them:
/// the originally requested spec plus the workload's recurrence, input
/// length, and executor level count.
pub struct QueuedShape {
    /// The schedule the job was originally submitted with.
    pub spec: ScheduleSpec,
    /// The workload's cost recurrence.
    pub rec: Recurrence,
    /// Input length in elements.
    pub n: u64,
    /// The executor's combine-level count.
    pub levels: u32,
}

/// One job shape's pricing inputs under the node's current beliefs.
struct Inputs {
    params: MachineParams,
    rec: Recurrence,
    n: u64,
    levels: u32,
}

/// Everything pricing a job reads or updates: the node's machine,
/// the believed parameters and their calibration, the GPU circuit
/// breaker, the plan cache and the metrics registry. Admission, replans,
/// breaker degradation and router probes all price through it.
struct Pricer {
    machine: MachineConfig,
    assumed: Option<MachineParams>,
    calibrator: Option<Calibrator>,
    faults: Option<FaultState>,
    cache: Option<PlanCache>,
    metrics: Option<Arc<MetricsRegistry>>,
}

impl Pricer {
    /// The parameters jobs are priced and compiled with: the configured or
    /// assumed machine, under the current calibration corrections. The CPU
    /// core count always follows the served machine — calibration
    /// corrects speeds and costs, never the structure.
    fn params(&self) -> Result<MachineParams, CalibrationError> {
        let mut params = self
            .assumed
            .clone()
            .unwrap_or_else(|| MachineParams::from_config(&self.machine));
        params.p = self.machine.cpu.cores;
        match &self.calibrator {
            Some(c) => params.recalibrated(c.calibration()),
            None => Ok(params),
        }
    }

    /// `rec` under the current calibration corrections.
    fn scaled(&self, rec: &Recurrence) -> Recurrence {
        match &self.calibrator {
            Some(c) => c.calibration().scale_recurrence(rec),
            None => rec.clone(),
        }
    }

    /// The pricing inputs of job `id`'s workload.
    fn job_inputs(&self, id: u64, workload: &dyn Workload) -> Result<Inputs, ServeError> {
        let params = self.params().map_err(|source| ServeError::Calibration {
            job: Some(id),
            source,
        })?;
        let levels = workload
            .exec_levels()
            .map_err(|source| ServeError::Run { job: id, source })?;
        Ok(Inputs {
            params,
            rec: self.scaled(&workload.recurrence()),
            n: workload.input_len() as u64,
            levels,
        })
    }

    fn breaker_open(&self) -> bool {
        self.faults.as_ref().is_some_and(|f| f.open)
    }

    /// Folds one GPU-using solo execution into the breaker, if faults are
    /// being injected at all.
    fn on_gpu_result(&mut self, failed: bool, lost: bool) {
        if let Some(f) = self.faults.as_mut() {
            f.on_gpu_result(failed, lost);
        }
    }

    /// Compiles and prices `spec`: a [`PlanCache`] lookup when a cache is
    /// attached, a fresh [`compile`] (timed through [`compile_timed`]
    /// when metered) plus [`plan_cost`] otherwise.
    fn compile(
        &mut self,
        spec: &ScheduleSpec,
        inp: &Inputs,
    ) -> Result<(Arc<Plan>, Arc<PlanCost>), VariantError> {
        let Inputs {
            params,
            rec,
            n,
            levels,
        } = inp;
        if let Some(c) = self.cache.as_mut() {
            return c
                .lookup_or_compile(spec, params, rec, *n, *levels, self.metrics.as_deref())
                .map_err(VariantError::Compile);
        }
        let plan = match &self.metrics {
            Some(m) => compile_timed(spec, params, rec, *n, *levels, m),
            None => compile(spec, params, rec, *n, *levels),
        }
        .map_err(VariantError::Compile)?;
        let profile = LevelProfile::new(params, rec, *n);
        let cost = plan_cost(&profile, &plan).map_err(VariantError::Compile)?;
        Ok((Arc::new(plan), Arc::new(cost)))
    }

    /// Compiles `spec`, prices it, and solo-runs it on a private virtual
    /// clock of the true machine to measure its demands and calibration
    /// evidence. `faulty` attaches the fault injector and the recovery
    /// policy — to GPU plans only: CPU-only plans never touch the device,
    /// so they are structurally immune to injected faults.
    ///
    /// With `ckpt` the job resumes: the **full** plan still compiles
    /// through the cache (sharing compiles with fresh admissions of the
    /// same shape), then is clipped to the checkpoint's resume suffix,
    /// priced alone and resumed, so the measured demands and cost cover
    /// only the work still owed.
    fn build_variant(
        &mut self,
        workload: &mut dyn Workload,
        spec: &ScheduleSpec,
        inp: &Inputs,
        faulty: bool,
        ckpt: Option<&Checkpoint>,
    ) -> Result<Variant, VariantError> {
        let (mut plan, mut cost) = self.compile(spec, inp)?;
        if let Some(ck) = ckpt {
            let suffix = plan
                .resume_from_level(ck.level)
                .map_err(VariantError::Compile)?;
            let profile = LevelProfile::new(&inp.params, &inp.rec, inp.n);
            cost = Arc::new(plan_cost(&profile, &suffix).map_err(VariantError::Compile)?);
            plan = Arc::new(suffix);
        }
        let faults = self.faults.as_ref().filter(|_| faulty && plan.uses_gpu());
        let mut hpu = SimHpu::new(self.machine.clone());
        if let Some(f) = faults {
            hpu = hpu.with_faults(f.injector.clone());
        }
        let opts = RunOpts {
            recovery: faults.map(|f| f.recovery),
            metrics: self.metrics.clone(),
            resume: ckpt.copied(),
        };
        let (result, rstats) = workload.run_plan_with(&mut hpu, &plan, &opts);
        let retries = rstats.retries;
        match result {
            Ok(report) => Ok(Variant::measure(
                &self.machine,
                plan,
                &cost,
                &inp.params,
                report,
                retries,
            )),
            Err(source) => Err(VariantError::Run { source, retries }),
        }
    }

    /// The lazy replan path: when `q`'s spec recompiles (through the
    /// cache) to the plan it was measured under, re-prices it in place —
    /// its fallback too, re-measuring that only if its plan changed — and
    /// returns `true`. `false` leaves `q` untouched for a full re-measure.
    fn reprice_unchanged(&mut self, q: &mut Queued, inp: &Inputs) -> bool {
        match self.compile(&q.job.spec, inp) {
            Ok((plan, cost)) if *plan == *q.primary.plan => {
                reprice(&mut q.primary, plan, &cost, &inp.params)
            }
            _ => return false,
        }
        if let Some(fb) = q.fallback.as_mut() {
            match self.compile(&CPU_ONLY, inp) {
                Ok((fp, fc)) if *fp == *fb.plan => reprice(fb, fp, &fc, &inp.params),
                _ => {
                    q.fallback = self
                        .build_variant(q.job.workload.as_mut(), &CPU_ONLY, inp, false, None)
                        .ok()
                }
            }
        }
        true
    }
}

/// The granted reservations of one dispatched job.
struct Grant {
    /// First granted window start (the dispatch time if none).
    start: f64,
    /// Last granted window end: the completion time the record claims.
    end: f64,
    /// The granted `(start, end)` window of each demand — aligned index
    /// for index with the variant's demands, zero-length demands getting
    /// the empty window `(t, t)`.
    windows: Vec<(f64, f64)>,
    /// Every calendar entry made, for release on cancellation or crash.
    resvs: Vec<Resv>,
}

/// The resumable form of [`serve_sim`]: one node's scheduler driven one
/// event at a time, with jobs submitted incrementally and queued jobs
/// stealable at event boundaries.
///
/// Equivalence contract: constructing a `NodeSim`, submitting every job
/// up front in order (ids `0..n`), and calling [`NodeSim::finish`] is
/// bit-for-bit identical to [`serve_sim`] — same records, same leases,
/// same event interleaving.
pub struct NodeSim {
    serve: ServeConfig,
    pricer: Pricer,
    arb: DeviceArbiter,
    queue: Vec<Queued>,
    records: Vec<JobRecord>,
    runs: Vec<JobRun>,
    errors: Vec<ServeError>,
    pending: Vec<PendingObs>,
    replans: u64,
    spans: SpanSet,
    batches: Vec<BatchRecord>,
    heap: EventHeap,
    arrival_seq: u64,
    tick_seq: u64,
    slots: Vec<Option<Pending>>,
    now: f64,
    /// Dispatched jobs whose completion time is still in the future —
    /// what a crash loses. Entries are pruned as the clock passes their
    /// completion, so the registry never changes any observable output.
    running: Vec<RunningJob>,
}

impl NodeSim {
    /// A fresh node scheduler over the simulated machine `cfg` under the
    /// scheduler configuration `serve`. No events exist until
    /// [`NodeSim::submit`].
    pub fn new(cfg: &MachineConfig, serve: &ServeConfig) -> NodeSim {
        let mut errors: Vec<ServeError> = Vec::new();
        let calibrator = serve.calibration.as_ref().and_then(|c| {
            Calibrator::new(c.clone())
                .map_err(|source| errors.push(ServeError::Calibration { job: None, source }))
                .ok()
        });
        NodeSim {
            arb: DeviceArbiter::new(cfg.cpu.cores),
            pricer: Pricer {
                machine: cfg.clone(),
                assumed: serve.assumed.clone(),
                calibrator,
                faults: serve.faults.as_ref().map(FaultState::new),
                cache: serve.plan_cache.map(PlanCache::new),
                metrics: serve.metrics.clone(),
            },
            queue: Vec::new(),
            records: Vec::new(),
            runs: Vec::new(),
            errors,
            pending: Vec::new(),
            replans: 0,
            spans: SpanSet::new(),
            batches: Vec::new(),
            heap: BinaryHeap::new(),
            arrival_seq: 0,
            tick_seq: TICK_SEQ_BASE,
            slots: Vec::new(),
            now: 0.0,
            running: Vec::new(),
            serve: serve.clone(),
        }
    }

    /// Schedules the arrival of `job` under the caller-assigned id.
    /// Submission order is the arrival tie-break at equal arrival times.
    pub fn submit(&mut self, id: u64, job: JobRequest) {
        let at = job.arrival.max(0.0);
        let job = StolenJob {
            id,
            name: job.name,
            spec: job.spec,
            arrival: job.arrival,
            deadline: job.deadline,
            skips: 0,
            checkpoint: None,
            workload: job.workload,
        };
        self.schedule_arrival(at, job, false);
    }

    /// Re-submits a job stolen from another node, arriving here at `now`
    /// (clamped to this node's clock — a reservation calendar must never
    /// be offered a slot in its past). The job is re-priced from scratch
    /// under this node's beliefs, plan cache, and breaker state; its
    /// record keeps the original fleet-time arrival.
    pub fn inject(&mut self, stolen: StolenJob, now: f64) {
        let at = now.max(self.now).max(0.0);
        self.schedule_arrival(at, stolen, true);
    }

    fn schedule_arrival(&mut self, at: f64, job: StolenJob, migrated: bool) {
        let slot = self.slots.len();
        self.heap
            .push(Reverse((Time(at), self.arrival_seq, Ev::Arrive(slot))));
        self.arrival_seq += 1;
        self.slots.push(Some(Pending { job, migrated }));
    }

    /// Virtual time of the next unprocessed event, if any.
    pub fn next_event_time(&self) -> Option<f64> {
        self.heap.peek().map(|Reverse((t, _, _))| t.0)
    }

    /// Virtual time of the last processed event.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Processes exactly one event — calibration-evidence drain, possible
    /// replan, the arrival itself (if one), breaker degradation, and a
    /// full dispatch round — and returns its time. `None` when no events
    /// remain.
    pub fn step(&mut self) -> Option<f64> {
        let Reverse((t, _, ev)) = self.heap.pop()?;
        let now = t.0;
        self.now = now;
        // Checkpoint boundaries the clock just passed become durable:
        // count them, then retire registry entries of completed jobs.
        if self.serve.checkpoint != CheckpointPolicy::Off {
            for r in self.running.iter_mut() {
                while r.next_boundary < r.boundaries.len()
                    && r.boundaries[r.next_boundary].0 <= now + EPS
                {
                    r.next_boundary += 1;
                    if let Some(m) = &self.serve.metrics {
                        m.inc("recovery.checkpoints", 1);
                    }
                }
            }
        }
        self.running.retain(|r| r.end > now + EPS);
        if self.drain_evidence() {
            self.replans += 1;
            if let Some(m) = &self.serve.metrics {
                m.inc("serve.replans", 1);
                m.set_gauge("calibration.generation", self.replans as f64);
            }
            self.replan();
        }
        if let Ev::Arrive(i) = ev {
            // Poison-free by construction: each arrival event fires once,
            // but a double fire must not panic the scheduler.
            if let Some(p) = self.slots[i].take() {
                self.admit(p);
            }
        }
        // A breaker trip during admission or replanning degrades every
        // still-queued GPU job to its CPU-only shape before dispatch —
        // the device is off limits until (in this model) forever.
        if self
            .pricer
            .faults
            .as_mut()
            .is_some_and(FaultState::take_pending_trip)
        {
            self.degrade_queue();
        }
        self.dispatch();
        if let Some(m) = &self.serve.metrics {
            m.set_gauge("serve.queue_depth", self.queue.len() as f64);
        }
        Some(now)
    }

    /// Drains every remaining event and closes the run into its
    /// [`ServeOutput`].
    pub fn finish(mut self) -> ServeOutput {
        while self.step().is_some() {}
        debug_assert!(
            self.queue.is_empty(),
            "every queued job reaches a terminal state"
        );

        if let Some(m) = &self.serve.metrics {
            m.set_gauge("arbiter.cpu_busy", self.arb.cpu_busy());
            m.set_gauge("arbiter.gpu_busy", self.arb.gpu_busy());
            m.set_gauge("arbiter.gpu_leases", self.arb.gpu_leases().len() as f64);
            m.set_gauge(
                "arbiter.cpu_reservations",
                self.arb.cpu_reservations().len() as f64,
            );
            m.set_gauge("serve.makespan", self.arb.makespan());
        }
        let mut report = ServeReport::new(self.records, self.arb.cpu_busy(), self.arb.gpu_busy());
        if let Some(f) = &self.pricer.faults {
            report = report.with_fault_counts(f.fault_events(), f.trips);
        }
        let cache_stats = self.pricer.cache.as_ref().map(|c| c.stats());
        if let Some(s) = cache_stats {
            report = report.with_plan_cache(s.hits, s.misses);
        }
        ServeOutput {
            report,
            runs: self.runs,
            errors: self.errors,
            gpu_leases: self.arb.gpu_leases().to_vec(),
            cpu_reservations: self.arb.cpu_reservations().to_vec(),
            replans: self.replans,
            plan_cache: cache_stats,
            calibration: self.pricer.calibrator.map(|c| c.calibration().clone()),
            spans: self.spans.into_events(),
            batches: self.batches,
        }
    }

    // --- Fleet-facing observers and steal surface -------------------------

    /// Number of jobs waiting in the admission queue.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// The configured admission-queue capacity.
    pub fn queue_capacity(&self) -> usize {
        self.serve.queue_capacity
    }

    /// Sum of predicted costs over every queued job: the node's believed
    /// backlog, in its own cost units.
    ///
    /// With [`BatchPolicy::Coalesce`] on, same-shaped batchable GPU jobs
    /// in the queue will share launches, so the backlog is discounted by
    /// the fixed costs batching will amortize — a batching node looks
    /// cheaper to a fleet router than an identically-loaded unbatched
    /// one, steering same-shaped work toward it.
    pub fn queued_cost(&self) -> f64 {
        let base: f64 = self.queue.iter().map(|q| q.primary.cost).sum();
        let Some(bound) = self.serve.batch.bound() else {
            return base;
        };
        let mut grouped = vec![false; self.queue.len()];
        let mut discount = 0.0;
        for i in 0..self.queue.len() {
            if grouped[i] || !batchable(&self.queue[i].primary) {
                continue;
            }
            grouped[i] = true;
            let mut size = 1usize;
            let mut shared: f64 = self.queue[i].primary.fixed.iter().sum();
            // Indexes two slices (`grouped` and the queue) in lockstep.
            #[allow(clippy::needless_range_loop)]
            for j in (i + 1)..self.queue.len() {
                if grouped[j] || !same_batch_shape(&self.queue[i], &self.queue[j]) {
                    continue;
                }
                grouped[j] = true;
                size += 1;
                shared = shared.min(self.queue[j].primary.fixed.iter().sum());
            }
            // k jobs in ⌈k / bound⌉ launches: the other copies of the
            // shared fixed cost amortize away.
            let amortized = size - size.div_ceil(bound);
            discount += amortized as f64 * shared;
        }
        (base - discount).max(0.0)
    }

    /// End of the last committed reservation — how far ahead of `now` the
    /// node's calendars already stretch.
    pub fn horizon(&self) -> f64 {
        self.arb.makespan()
    }

    /// Whether the GPU circuit breaker is open (the device is off limits
    /// and GPU jobs compile straight to their CPU-only degradation).
    pub fn breaker_open(&self) -> bool {
        self.pricer.breaker_open()
    }

    /// Drift-triggered calibration replans performed so far — this node's
    /// pricing generation. A peer's drift never changes it.
    pub fn replans(&self) -> u64 {
        self.replans
    }

    /// Ids of every queued job, queue order.
    pub fn queued_ids(&self) -> Vec<u64> {
        self.queue.iter().map(|q| q.job.id).collect()
    }

    /// The queue as the dispatch policy ranks it, queue order.
    fn ranks(&self) -> Vec<Rank> {
        self.queue
            .iter()
            .map(|q| Rank {
                seq: q.job.id,
                cost: q.primary.cost,
                skips: q.job.skips,
            })
            .collect()
    }

    /// Ids of the queued jobs a thief may take, lowest dispatch priority
    /// first: the backfillable suffix beyond the policy's rigid prefix.
    /// A rigid (starvation-overdue) entry is this node's promise
    /// to run next — stealing it would re-order what the policy already
    /// guaranteed.
    pub fn steal_candidates(&self) -> Vec<u64> {
        let (order, rigid) = dispatch_order(&self.serve.policy, &self.ranks());
        order
            .get(rigid..)
            .unwrap_or(&[])
            .iter()
            .rev()
            .map(|&qi| self.queue[qi].job.id)
            .collect()
    }

    /// Removes the queued job `id` for migration. The job keeps its
    /// original spec, arrival, starvation credit and (for a recovered
    /// job) checkpoint; its compiled variants stay behind (the receiving
    /// node re-prices from scratch).
    pub fn steal(&mut self, id: u64) -> Option<StolenJob> {
        let qi = self.queue.iter().position(|q| q.job.id == id)?;
        if let Some(m) = &self.serve.metrics {
            m.inc("serve.stolen", 1);
        }
        Some(self.queue.remove(qi).job)
    }

    /// Kills the node at time `at`: every queued, not-yet-arrived and
    /// still-executing job is evicted, and the in-flight jobs' completion
    /// records (written optimistically at dispatch) are revoked — a crash
    /// must never count lost work as done. In-flight jobs carry their
    /// last level-boundary checkpoint admitted **before** `at` (work past
    /// the crash instant was never captured), falling back to the
    /// checkpoint they were dispatched from, if any. Their calendar
    /// reservations are released so a later [`NodeSim::rejoin`] starts
    /// with clean calendars (merged batch leases stay: a batch member's
    /// share of one lease is not separable). Spans of revoked jobs remain
    /// in the trace — a trace records what was attempted, not what
    /// survived.
    pub fn crash(&mut self, at: f64) -> CrashReport {
        self.now = self.now.max(at);
        let mut queued: Vec<StolenJob> = self.queue.drain(..).map(|q| q.job).collect();
        // Submissions whose arrival event had not fired yet die with the
        // event heap; they lose nothing but their place in time.
        queued.extend(
            self.slots
                .iter_mut()
                .filter_map(Option::take)
                .map(|p| p.job),
        );
        self.heap.clear();
        let mut in_flight: Vec<StolenJob> = Vec::new();
        let mut lost: Vec<u64> = Vec::new();
        for r in std::mem::take(&mut self.running) {
            if r.end <= at + EPS {
                continue; // finished before the crash — its record stands
            }
            lost.push(r.job.id);
            release_all(&mut self.arb, &r.resvs);
            let mut job = r.job;
            if let Some(&(_, level)) = r.boundaries.iter().rev().find(|&&(t, _)| t <= at + EPS) {
                job.checkpoint = Some(Checkpoint {
                    level,
                    resident_words: r.words,
                    generation: self.replans,
                });
            }
            in_flight.push(job);
        }
        self.records.retain(|rec| {
            !(matches!(rec.outcome, JobOutcome::Completed) && lost.contains(&rec.id))
        });
        self.runs.retain(|run| !lost.contains(&run.id));
        self.pending.retain(|p| !lost.contains(&p.job));
        CrashReport { queued, in_flight }
    }

    /// Rejoins a crashed node to service at time `now`, cold: the plan
    /// cache's generation is bumped (cached demands priced before the
    /// crash are not trusted across it) and the pricing generation
    /// advances with it, so post-rejoin admissions never batch with
    /// pre-crash shapes. Completed records, calibration knowledge and
    /// breaker state survive — the crash lost the machine, not the ledger.
    pub fn rejoin(&mut self, now: f64) {
        self.now = self.now.max(now);
        if let Some(c) = self.pricer.cache.as_mut() {
            c.bump_generation();
        }
        self.replans += 1;
        if let Some(m) = &self.serve.metrics {
            m.set_gauge("calibration.generation", self.replans as f64);
        }
    }

    /// Prices one job shape under this node's current beliefs: assumed
    /// or configured machine parameters, corrected by calibration, with
    /// an open breaker substituting the CPU-only degradation for any
    /// GPU-using spec. Served by this node's [`PlanCache`] when one is
    /// attached, so repeated router probes of hot shapes are lookups.
    /// `None` when the shape fails to compile.
    pub fn price(&mut self, shape: &QueuedShape) -> Option<f64> {
        let inp = Inputs {
            params: self.pricer.params().ok()?,
            rec: self.pricer.scaled(&shape.rec),
            n: shape.n,
            levels: shape.levels,
        };
        let spec = if self.pricer.breaker_open() && spec_wants_gpu(&shape.spec) {
            &CPU_ONLY
        } else {
            &shape.spec
        };
        let (_, cost) = self.pricer.compile(spec, &inp).ok()?;
        Some(cost.total)
    }

    /// This node's believed host↔device transfer time for `words` words,
    /// under current calibration — the router's data-affinity discount:
    /// what routing a non-resident input here would cost.
    pub fn believed_transfer_time(&self, words: u64) -> f64 {
        match self.pricer.params() {
            Ok(p) => p.transfer_time(words),
            Err(_) => MachineParams::from_config(&self.pricer.machine).transfer_time(words),
        }
    }

    // --- Admission and re-pricing -----------------------------------------

    /// Records job `job`'s rejection at the current event.
    fn reject(&mut self, job: &StolenJob, outcome: JobOutcome) {
        if let Some(m) = &self.serve.metrics {
            match outcome {
                JobOutcome::QueueFull => m.inc("serve.rejected", 1),
                JobOutcome::Failed { .. } => m.inc("serve.failed", 1),
                _ => {}
            }
        }
        let retries = match outcome {
            JobOutcome::Failed { retries, .. } => retries,
            _ => 0,
        };
        self.records.push(JobRecord {
            id: job.id,
            name: job.name.clone(),
            outcome,
            arrival: self.now,
            start: self.now,
            end: self.now,
            predicted: 0.0,
            service: 0.0,
            fallback: false,
            retries,
            degraded: false,
            calibration_generation: self.replans,
        });
    }

    /// Admits one arrival: price, compile, solo-measure, queue. A
    /// migrated job's record (and latency) spans from its original
    /// fleet-time submission and keeps its earned starvation credit; a
    /// checkpoint makes this a crash recovery that resumes from a
    /// level-boundary checkpoint.
    fn admit(&mut self, p: Pending) {
        let mut job = p.job;
        if !p.migrated {
            job.arrival = self.now;
        }
        let ckpt = job.checkpoint.take();
        let generation = self.replans;
        if let Some(m) = &self.serve.metrics {
            m.inc("serve.submitted", 1);
        }
        if self.queue.len() >= self.serve.queue_capacity {
            self.errors.push(ServeError::QueueFull {
                job: job.id,
                capacity: self.serve.queue_capacity,
            });
            self.reject(&job, JobOutcome::QueueFull);
            return;
        }

        let failed = |fault: FaultTag, retries: u32| JobOutcome::Failed { fault, retries };

        let inp = match self.pricer.job_inputs(job.id, job.workload.as_ref()) {
            Ok(inp) => inp,
            Err(e) => {
                self.errors.push(e);
                self.reject(&job, failed(FaultTag::Error, 0));
                return;
            }
        };
        // With the breaker open the device is off limits: GPU specs compile
        // straight to their CPU-only degradation, counted as degraded.
        let breaker_open = self.pricer.breaker_open();
        let spec = if breaker_open { &CPU_ONLY } else { &job.spec };
        // A crash-recovered job resumes from its checkpoint: the full plan
        // compiles (cache-shared with fresh admissions of the same shape) but
        // only the remaining suffix is priced, measured and reserved. The
        // fault injector is bypassed — a resume replays saved state rather
        // than driving fresh traffic through the injector's deterministic
        // stream — and no CPU-only fallback is compiled (a fallback would
        // re-run from scratch, forfeiting the saved levels). If the resume
        // shape fails to build, fall through to a normal restart admission.
        if let Some(ck) = ckpt.filter(|c| c.level > 0) {
            let resumed =
                self.pricer
                    .build_variant(job.workload.as_mut(), spec, &inp, false, Some(&ck));
            match resumed {
                Ok(primary) => {
                    if let Some(m) = &self.serve.metrics {
                        m.inc("recovery.resumed", 1);
                    }
                    job.checkpoint = Some(ck);
                    self.queue.push(Queued {
                        job,
                        primary,
                        fallback: None,
                        generation,
                    });
                    return;
                }
                Err(e) => self.errors.push(e.into_serve(job.id)),
            }
        }
        let primary = match self
            .pricer
            .build_variant(job.workload.as_mut(), spec, &inp, true, None)
        {
            Ok(mut v) => {
                if uses_gpu(&v) {
                    self.pricer.on_gpu_result(false, false);
                } else if breaker_open && spec_wants_gpu(&job.spec) {
                    v.degraded = true;
                }
                v
            }
            Err(e) => {
                // A device fault that survived the retry budget: feed the
                // breaker, then re-compile this job segment-granularly to its
                // CPU-only shape instead of failing it.
                let retries = e.retries();
                let Some(m) = e.machine_fault().cloned() else {
                    self.errors.push(e.into_serve(job.id));
                    self.reject(&job, failed(FaultTag::Error, retries));
                    return;
                };
                self.pricer
                    .on_gpu_result(true, matches!(m, MachineError::DeviceLost));
                self.errors.push(e.into_serve(job.id));
                match self
                    .pricer
                    .build_variant(job.workload.as_mut(), &CPU_ONLY, &inp, false, None)
                {
                    Ok(mut v) => {
                        v.degraded = true;
                        v.retries = retries;
                        v
                    }
                    Err(e2) => {
                        self.errors.push(e2.into_serve(job.id));
                        self.reject(&job, failed(tag_of(&m), retries));
                        return;
                    }
                }
            }
        };
        // A GPU-using job also carries its CPU-only shape, so dispatch can
        // route around a contended device lease.
        let fallback = if self.serve.cpu_fallback && uses_gpu(&primary) {
            self.pricer
                .build_variant(job.workload.as_mut(), &CPU_ONLY, &inp, false, None)
                .ok()
        } else {
            None
        };
        self.queue.push(Queued {
            job,
            primary,
            fallback,
            generation,
        });
    }

    /// Folds the evidence of every job that has completed by now into the
    /// calibrator, in completion order. Returns whether a completed job's
    /// drift warrants re-pricing the queue.
    fn drain_evidence(&mut self) -> bool {
        let Some(cal) = self.pricer.calibrator.as_mut() else {
            return false;
        };
        let now = self.now;
        let mut ready: Vec<PendingObs> = Vec::new();
        self.pending.retain(|p| {
            let due = p.end <= now + EPS;
            if due {
                ready.push(*p);
            }
            !due
        });
        ready.sort_by(|a, b| a.end.total_cmp(&b.end).then(a.job.cmp(&b.job)));
        let mut trigger = false;
        for p in &ready {
            if let Some(m) = &self.serve.metrics {
                m.observe("calibration.abs_drift", p.drift.abs());
            }
            if let Err(e) = cal.observe(&p.obs) {
                self.errors.push(ServeError::Calibration {
                    job: Some(p.job),
                    source: e,
                });
            }
            trigger |= cal.should_replan(p.drift);
        }
        trigger
    }

    /// Re-prices every still-queued job under the corrected parameters. A
    /// job whose re-pricing fails keeps its previous variants — replanning
    /// improves estimates, it must never kill a job.
    ///
    /// With a [`PlanCache`] attached (and no fault injection in play), a
    /// replan is a generation bump plus lazy re-fill: each queued job's spec
    /// recompiles through the cache — shared shapes compile once — and a job
    /// whose plan came out *identical* merely re-prices in place, skipping
    /// the redundant solo run (its measured demands replay the true machine,
    /// which calibration never changes). Only jobs whose plan structurally
    /// changed under the corrected parameters re-measure.
    ///
    /// With the GPU circuit breaker open, GPU specs re-compile straight to
    /// their CPU-only degradation: a replan racing a breaker trip must not
    /// compile (and solo-run) the doomed GPU shape a second time. Only jobs
    /// still in the queue are touched — a cancelled or dispatched job is
    /// already gone and can never be re-admitted by a replan.
    fn replan(&mut self) {
        let generation = self.replans;
        if let Some(c) = self.pricer.cache.as_mut() {
            c.bump_generation();
        }
        let breaker_open = self.pricer.breaker_open();
        // Fault injection forces the full re-measure so the injector's
        // event stream (fed by solo runs) stays exactly as before; with no
        // injector the breaker is closed and every spec is the job's own.
        let lazy = self.pricer.faults.is_none() && self.pricer.cache.is_some();
        for q in self.queue.iter_mut() {
            // A crash-recovered job's variants cover only its resume suffix;
            // re-pricing the full shape here would silently turn the resume
            // into a restart. It keeps its pre-replan price (and generation,
            // so it never batches with re-priced shapes).
            if q.job.checkpoint.is_some() {
                continue;
            }
            let inp = match self.pricer.job_inputs(q.job.id, q.job.workload.as_ref()) {
                Ok(inp) => inp,
                Err(e @ ServeError::Calibration { .. }) => {
                    self.errors.push(e);
                    continue;
                }
                Err(_) => continue,
            };
            if lazy && self.pricer.reprice_unchanged(q, &inp) {
                q.generation = generation;
                continue;
            }
            let spec = if breaker_open { &CPU_ONLY } else { &q.job.spec };
            match self
                .pricer
                .build_variant(q.job.workload.as_mut(), spec, &inp, true, None)
            {
                Ok(mut v) => {
                    if uses_gpu(&v) {
                        self.pricer.on_gpu_result(false, false);
                    } else if breaker_open && spec_wants_gpu(&q.job.spec) {
                        v.degraded = true;
                    }
                    v.retries += q.primary.retries;
                    q.primary = v;
                    q.generation = generation;
                    q.fallback = if self.serve.cpu_fallback && uses_gpu(&q.primary) {
                        self.pricer
                            .build_variant(q.job.workload.as_mut(), &CPU_ONLY, &inp, false, None)
                            .ok()
                    } else {
                        None
                    };
                }
                Err(e) => {
                    if let Some(m) = e.machine_fault() {
                        let lost = matches!(m, MachineError::DeviceLost);
                        q.primary.retries += e.retries();
                        self.pricer.on_gpu_result(true, lost);
                    }
                    // Keep the previous variants: replanning never kills a job.
                }
            }
        }
    }

    /// Trips the queue onto CPU-only shapes after the GPU circuit breaker
    /// opens: every queued GPU job swaps to its already-measured fallback
    /// variant when it has one (no re-compile — a trip racing a
    /// calibration replan must not price the same job twice) or re-compiles
    /// segment-granularly to `CpuParallel` otherwise.
    fn degrade_queue(&mut self) {
        for q in self.queue.iter_mut() {
            // A resumed job keeps its measured suffix shape even with the
            // breaker open: recompiling a from-scratch CPU-only variant would
            // forfeit its saved levels, and its measured demands replay
            // deterministically through the calendars either way.
            if !uses_gpu(&q.primary) || q.job.checkpoint.is_some() {
                continue;
            }
            let retries = q.primary.retries;
            if let Some(mut f) = q.fallback.take() {
                f.degraded = true;
                f.retries += retries;
                q.primary = f;
                continue;
            }
            let Ok(inp) = self.pricer.job_inputs(q.job.id, q.job.workload.as_ref()) else {
                continue;
            };
            match self
                .pricer
                .build_variant(q.job.workload.as_mut(), &CPU_ONLY, &inp, false, None)
            {
                Ok(mut v) => {
                    v.degraded = true;
                    v.retries = retries;
                    q.primary = v;
                }
                // The CPU-only shape failing to build is not a device
                // problem; record it and leave the job as-is — its
                // measured demands still replay deterministically.
                Err(e) => self.errors.push(e.into_serve(q.job.id)),
            }
        }
    }

    // --- Dispatch ------------------------------------------------------------

    /// Schedules a dispatch retry at reservation release time `at`.
    fn tick_at(&mut self, at: f64) {
        self.tick_seq += 1;
        self.heap.push(Reverse((Time(at), self.tick_seq, Ev::Tick)));
    }

    /// Offers the calendars to queued jobs in policy order until no job
    /// can start at the current event: deadline cancellations, the
    /// CPU-only fallback around a contended lease, cross-job batches and
    /// solo dispatch.
    fn dispatch(&mut self) {
        let now = self.now;
        loop {
            if self.queue.is_empty() {
                return;
            }
            let (order, rigid) = dispatch_order(&self.serve.policy, &self.ranks());
            let mut chosen: Option<(usize, bool)> = None;
            let mut cancels: Vec<usize> = Vec::new();
            for (pos, &qi) in order.iter().enumerate() {
                let q = &self.queue[qi];
                let (ps, pe) = probe(&self.arb, now, &q.primary);
                let (mut s, mut e, mut fb) = (ps, pe, false);
                if ps > now + EPS {
                    // Sampled at every dispatch round: how far away the
                    // earliest feasible start is for a job the calendars
                    // cannot place right now (GPU jobs: lease contention).
                    if let Some(m) = &self.serve.metrics {
                        if uses_gpu(&q.primary) {
                            m.observe("arbiter.gpu_lease_wait", ps - now);
                        }
                    }
                    // Device lease contended: take the CPU-only shape if it
                    // starts now and finishes no later.
                    if let Some(f) = &q.fallback {
                        let (fs, fe) = probe(&self.arb, now, f);
                        if fs <= now + EPS && fe <= pe + EPS {
                            (s, e, fb) = (fs, fe, true);
                        }
                    }
                }
                if let Some(dl) = q.job.deadline {
                    // Projections only grow as reservations accumulate, so a
                    // completion past the deadline is already unmeetable.
                    if e > dl + EPS {
                        cancels.push(qi);
                        continue;
                    }
                }
                if s <= now + EPS {
                    chosen = Some((qi, fb));
                    break;
                }
                if pos < rigid {
                    // No backfilling past a rigid (overdue) entry.
                    break;
                }
            }
            if !cancels.is_empty() {
                cancels.sort_unstable();
                for qi in cancels.into_iter().rev() {
                    let q = self.queue.remove(qi);
                    self.cancel(q.job, &q.primary, false, q.generation);
                }
                continue;
            }
            let Some((qi, fb)) = chosen else {
                return;
            };
            // Cross-job coalescing: the policy's winner may share its launch
            // with other same-shaped queued jobs. Behind the `bound()` gate,
            // [`BatchPolicy::Off`] never reaches this call.
            if !fb {
                if let Some(bound) = self.serve.batch.bound() {
                    if self.try_batch(&order, qi, bound) {
                        continue;
                    }
                }
            }
            let Queued {
                job,
                primary,
                fallback,
                generation,
            } = self.queue.remove(qi);
            // A chosen fallback that vanished (it cannot, but never panic the
            // scheduler over it) degrades gracefully to the primary shape.
            let (v, fb) = match fallback.filter(|_| fb) {
                Some(f) => (f, true),
                None => (primary, false),
            };
            let grant = self.commit(&v);
            // Deadline-aware straggler cancellation (fault mode only): the
            // calendars only hold per-segment device demands, so a job whose
            // solo run carried overhang (retry backoff, straggler slowdown
            // waits) really finishes later than its last reservation. If that
            // true completion misses the deadline, cancel now and hand the
            // slots back.
            let strict = self.pricer.faults.is_some();
            if let Some(dl) = job.deadline.filter(|_| strict) {
                if grant.end + v.overhang() > dl + EPS {
                    release_all(&mut self.arb, &grant.resvs);
                    self.cancel(job, &v, fb, generation);
                    continue;
                }
            }
            self.complete(job, generation, v, fb, grant);
        }
    }

    /// Cancels `job` (shape `v`) for a deadline it can no longer meet.
    fn cancel(&mut self, job: StolenJob, v: &Variant, fallback: bool, generation: u64) {
        if let Some(m) = &self.serve.metrics {
            m.inc("serve.cancelled", 1);
        }
        self.errors.push(ServeError::Cancelled {
            job: job.id,
            deadline: job.deadline.unwrap_or(f64::NAN),
        });
        self.records.push(JobRecord {
            id: job.id,
            name: job.name,
            outcome: JobOutcome::Cancelled,
            arrival: job.arrival,
            start: self.now,
            end: self.now,
            predicted: v.cost,
            service: 0.0,
            fallback,
            retries: v.retries,
            degraded: v.degraded,
            calibration_generation: generation,
        });
    }

    /// Reserves the variant's segment chain (same placement logic as
    /// [`probe`] — a job's segments occupy disjoint windows, so committing
    /// earlier segments never moves later ones) and schedules a dispatch
    /// retry at every reservation release.
    fn commit(&mut self, v: &Variant) -> Grant {
        let mut t = self.now;
        let mut start = f64::INFINITY;
        let mut resvs = Vec::new();
        let mut windows = Vec::with_capacity(v.demands.len());
        for d in &v.demands {
            if d.len() <= EPS {
                windows.push((t, t));
                continue;
            }
            let (s, e) = match d.kind {
                SegKind::Cpu { cores } => {
                    let (s, e) = self.arb.reserve_cpu(t, d.cpu, cores);
                    resvs.push(Resv::Cpu(s, e, cores));
                    (s, e)
                }
                SegKind::Gpu => {
                    let (s, e) = self.arb.reserve_gpu(t, d.gpu);
                    resvs.push(Resv::Gpu(s, e));
                    (s, e)
                }
                SegKind::Split { cores } => {
                    let (s, e) = self.arb.reserve_pair(t, d.cpu, cores, d.gpu);
                    if d.gpu > EPS {
                        resvs.push(Resv::Gpu(s, s + d.gpu));
                    }
                    if d.cpu > EPS {
                        resvs.push(Resv::Cpu(s, s + d.cpu, cores));
                    }
                    (s, e)
                }
            };
            if start.is_infinite() {
                start = s;
            }
            windows.push((s, e));
            self.tick_at(e);
            t = e;
        }
        if start.is_infinite() {
            start = self.now;
        }
        Grant {
            start,
            end: t,
            windows,
            resvs,
        }
    }

    /// Tries to coalesce the dispatch-order winner `leader` with other
    /// same-shaped queued jobs into one batched launch. Returns whether a
    /// batch committed (the members are gone from the queue); `false` means
    /// the caller dispatches the leader solo, exactly as without batching.
    fn try_batch(&mut self, order: &[usize], leader: usize, bound: usize) -> bool {
        let now = self.now;
        if !batchable(&self.queue[leader].primary) {
            return false;
        }
        // Companions in dispatch order — the policy's own ranking decides
        // who shares the launch, never an id or arrival re-sort.
        let mut member_qis: Vec<usize> = vec![leader];
        for &qi in order {
            if member_qis.len() >= bound {
                break;
            }
            if qi != leader && same_batch_shape(&self.queue[leader], &self.queue[qi]) {
                member_qis.push(qi);
            }
        }
        // Fairness guard: lay the batch on a scratch copy of the calendars
        // first. A member the merged windows would push past its deadline is
        // dropped (re-probing, since dropping changes the merge); a batch
        // that cannot start at this event, or that would make the *leader*
        // miss a deadline it meets solo, is abandoned entirely.
        loop {
            if member_qis.len() < 2 {
                return false;
            }
            let members: Vec<&Variant> = member_qis
                .iter()
                .map(|&qi| &self.queue[qi].primary)
                .collect();
            let lay = lay_batch(&mut self.arb.clone(), now, &members);
            let batch_start = lay
                .windows
                .iter()
                .map(|w| window_start(w, now))
                .fold(f64::INFINITY, f64::min);
            if batch_start > now + EPS {
                return false;
            }
            let mut dropped = None;
            for (mi, &qi) in member_qis.iter().enumerate() {
                let q = &self.queue[qi];
                let Some(dl) = q.job.deadline else { continue };
                if window_end(&lay.windows[mi], now) + q.primary.overhang() > dl + EPS {
                    if qi == leader {
                        return false;
                    }
                    dropped = Some(mi);
                    break;
                }
            }
            match dropped {
                Some(mi) => {
                    member_qis.remove(mi);
                }
                None => break,
            }
        }
        // Commit the real calendars and pull the members off the queue,
        // keeping the dispatch-order pairing of member and windows.
        let members: Vec<&Variant> = member_qis
            .iter()
            .map(|&qi| &self.queue[qi].primary)
            .collect();
        let size = members.len();
        let lay = lay_batch(&mut self.arb, now, &members);
        for &e in &lay.releases {
            self.tick_at(e);
        }
        // Remove from the highest queue index down so earlier indices stay
        // valid, then restore dispatch order.
        let mut by_qi: Vec<(usize, usize)> = member_qis.into_iter().enumerate().collect();
        by_qi.sort_by_key(|&(_, qi)| Reverse(qi));
        let mut taken: Vec<(usize, Queued)> = by_qi
            .into_iter()
            .map(|(mi, qi)| (mi, self.queue.remove(qi)))
            .collect();
        taken.sort_by_key(|&(mi, _)| mi);
        // One launch span, attributed to every member: the merged device
        // window on the GPU track, parenting nothing — each member's own GPU
        // segment spans share its window, which is the attribution.
        let bs = lay
            .gpu_windows
            .iter()
            .map(|w| w.0)
            .fold(f64::INFINITY, f64::min)
            .min(now);
        let be = lay.gpu_windows.iter().map(|w| w.1).fold(now, f64::max);
        self.spans.push(
            Track::Gpu,
            bs,
            be,
            SpanKind::Batch {
                size: size as u32,
                saved: lay.saved,
            },
            None,
        );
        if let Some(m) = &self.serve.metrics {
            m.inc("batch.formed", 1);
            m.observe("batch.size", size as f64);
            m.observe("batch.amortized_savings", lay.saved);
        }
        let mut member_ids = Vec::with_capacity(size);
        for ((_, q), windows) in taken.into_iter().zip(lay.windows) {
            member_ids.push(q.job.id);
            // A batch member's share of the merged lease is not separable,
            // so a crash does not reclaim its reservations.
            let grant = Grant {
                start: window_start(&windows, now),
                end: window_end(&windows, now),
                windows,
                resvs: Vec::new(),
            };
            self.complete(q.job, q.generation, q.primary, false, grant);
        }
        self.batches.push(BatchRecord {
            at: now,
            members: member_ids,
            windows: lay.gpu_windows,
            saved: lay.saved,
        });
        true
    }

    /// Books one dispatched job — solo or batch member — at its granted
    /// reservations: the starvation credit of the older jobs it overtook,
    /// its calibration evidence (released at completion), the metrics, its
    /// span tree, the `Completed` record and run report, and the running
    /// registry entry a crash would evict.
    fn complete(
        &mut self,
        job: StolenJob,
        generation: u64,
        v: Variant,
        fallback: bool,
        grant: Grant,
    ) {
        let Grant {
            start,
            end,
            windows,
            resvs,
        } = grant;
        for other in self.queue.iter_mut() {
            if other.job.id < job.id {
                other.job.skips += 1;
            }
        }
        if self.pricer.calibrator.is_some() {
            let drift = if v.cost > 0.0 {
                (v.report.virtual_time - v.cost) / v.cost
            } else {
                0.0
            };
            self.pending.push(PendingObs {
                end,
                job: job.id,
                obs: v.obs,
                drift,
            });
        }
        if let Some(m) = &self.serve.metrics {
            m.inc("serve.completed", 1);
            m.observe("serve.admission_wait", start - job.arrival);
            m.observe("serve.latency", end - job.arrival);
            m.observe("serve.service", v.report.virtual_time);
        }
        push_job_spans(&mut self.spans, job.id, &job.name, start, end, &v, &windows);
        self.records.push(JobRecord {
            id: job.id,
            name: job.name.clone(),
            outcome: JobOutcome::Completed,
            arrival: job.arrival,
            start,
            end,
            predicted: v.cost,
            service: v.report.virtual_time,
            fallback,
            retries: v.retries,
            degraded: v.degraded,
            calibration_generation: generation,
        });
        let boundaries = checkpoint_boundaries(self.serve.checkpoint, &v.plan, &windows);
        self.runs.push(JobRun {
            id: job.id,
            name: job.name.clone(),
            fallback,
            report: v.report,
        });
        self.running.push(RunningJob {
            words: job.workload.input_len() as u64,
            job,
            end,
            boundaries,
            next_boundary: 0,
            resvs,
        });
    }
}

/// Serves `jobs` over one shared simulated machine `cfg` under the
/// scheduler configuration `serve`. Deterministic: equal inputs give
/// equal outputs, event for event.
pub fn serve_sim(cfg: &MachineConfig, serve: &ServeConfig, jobs: Vec<JobRequest>) -> ServeOutput {
    let mut node = NodeSim::new(cfg, serve);
    for (i, job) in jobs.into_iter().enumerate() {
        node.submit(i as u64, job);
    }
    node.finish()
}

/// Why one pricing attempt failed (mapped onto [`ServeError`] with the
/// job id by the caller).
enum VariantError {
    Compile(ModelError),
    Run {
        source: CoreError,
        /// Segment retries spent before the run was given up on.
        retries: u32,
    },
}

impl VariantError {
    fn into_serve(self, job: u64) -> ServeError {
        match self {
            VariantError::Compile(source) => ServeError::Compile { job, source },
            VariantError::Run { source, .. } => ServeError::Run { job, source },
        }
    }

    /// The machine fault behind this failure, if it was one.
    fn machine_fault(&self) -> Option<&MachineError> {
        match self {
            VariantError::Run {
                source: CoreError::Machine(m),
                ..
            } => Some(m),
            _ => None,
        }
    }

    fn retries(&self) -> u32 {
        match self {
            VariantError::Run { retries, .. } => *retries,
            VariantError::Compile(_) => 0,
        }
    }
}

/// Sets the predicted side of `obs` from `plan`'s cost under `params`.
fn set_predicted(obs: &mut Observation, plan: &Plan, cost: &PlanCost, params: &MachineParams) {
    let predicted_bus: f64 = plan
        .segments
        .iter()
        .flat_map(|s| &s.transfers)
        .map(|t| params.transfer_time(t.words))
        .sum();
    obs.predicted_cpu = cost.cpu;
    obs.predicted_gpu = (cost.gpu - predicted_bus).max(0.0);
    obs.predicted_bus = predicted_bus;
}

/// Re-prices a variant whose recompiled plan came out identical: the
/// admission cost and predicted evidence follow the corrected
/// parameters, while the measured demands and report — deterministic
/// replays on the *true* machine, which calibration never changes — are
/// kept, skipping the redundant solo run.
fn reprice(v: &mut Variant, plan: Arc<Plan>, cost: &PlanCost, params: &MachineParams) {
    set_predicted(&mut v.obs, &plan, cost, params);
    v.cost = cost.total;
    v.plan = plan;
}

/// Earliest `(start, end)` the variant's segment chain can run at or
/// after `t0` against the current calendars, without reserving anything.
fn probe(arb: &DeviceArbiter, t0: f64, v: &Variant) -> (f64, f64) {
    let mut t = t0;
    let mut start = f64::INFINITY;
    for d in &v.demands {
        if d.len() <= EPS {
            continue;
        }
        let s = match d.kind {
            SegKind::Cpu { cores } => arb.cpu_slot(t, d.cpu, cores),
            SegKind::Gpu => arb.gpu_slot(t, d.gpu),
            SegKind::Split { cores } => arb.pair_slot(t, d.cpu, cores, d.gpu),
        };
        if start.is_infinite() {
            start = s;
        }
        t = s + d.len();
    }
    if start.is_infinite() {
        start = t0;
    }
    (start, t)
}

/// One committed calendar entry, kept so a cancelled job's slots can be
/// released back to the arbiter.
#[derive(Debug, Clone, Copy)]
enum Resv {
    Gpu(f64, f64),
    Cpu(f64, f64, usize),
}

/// Releases every calendar entry of a cancelled job back to the arbiter,
/// so later arrivals can reuse its slots.
fn release_all(arb: &mut DeviceArbiter, resvs: &[Resv]) {
    for r in resvs {
        match *r {
            Resv::Gpu(s, e) => {
                arb.release_gpu(s, e);
            }
            Resv::Cpu(s, e, k) => {
                arb.release_cpu(s, e, k);
            }
        }
    }
}

/// The admitted checkpoint boundaries of one committed dispatch:
/// `(window_end, resume_level)` per granted plan segment except the last
/// (whose boundary is the job's completion, not a checkpoint), filtered
/// by the policy, ascending in time. Levels are absolute executor levels
/// even for a resume suffix.
fn checkpoint_boundaries(
    policy: CheckpointPolicy,
    plan: &Plan,
    windows: &[(f64, f64)],
) -> Vec<(f64, u32)> {
    if policy == CheckpointPolicy::Off {
        return Vec::new();
    }
    let last = plan.segments.len().saturating_sub(1);
    plan.segments
        .iter()
        .zip(windows.iter())
        .take(last)
        .filter_map(|(seg, &(_, we))| {
            let level = seg.last_level + 1;
            policy.admits(level).then_some((we, level))
        })
        .collect()
}

/// Whether a variant's shape can join a cross-job batch: it must drive
/// the device through at least one exclusive GPU band and carry no
/// concurrent split (a split's CPU half is already pinned to its own
/// GPU half — merging the device side would break the pairing).
fn batchable(v: &Variant) -> bool {
    let mut has_gpu = false;
    for d in &v.demands {
        match d.kind {
            SegKind::Split { .. } => return false,
            SegKind::Gpu => has_gpu |= d.gpu > EPS,
            SegKind::Cpu { .. } => {}
        }
    }
    has_gpu
}

/// Whether `b` may share a batched launch with `a`: same algorithm kind,
/// same calibration generation, and a structurally identical compiled
/// plan (same bands, placements and transfer edges — the definition of
/// "same-shaped kernels").
fn same_batch_shape(a: &Queued, b: &Queued) -> bool {
    batchable(&b.primary)
        && a.job.workload.kind() == b.job.workload.kind()
        && a.generation == b.generation
        && *a.primary.plan == *b.primary.plan
}

/// The reservation layout of one batch.
struct BatchTimeline {
    /// Per-member granted windows, aligned index for index with each
    /// member's `demands` (zero-length demands get `(t, t)`); members in
    /// the order they were passed to [`lay_batch`].
    windows: Vec<Vec<(f64, f64)>>,
    /// The merged GPU windows, one per batched GPU segment, plan order.
    gpu_windows: Vec<(f64, f64)>,
    /// Every reservation's release time, in reservation order.
    releases: Vec<f64>,
    /// Total device time amortized away versus solo commits.
    saved: f64,
}

/// First granted (non-empty) window start, `fallback` if none.
fn window_start(windows: &[(f64, f64)], fallback: f64) -> f64 {
    windows
        .iter()
        .find(|w| w.1 - w.0 > EPS)
        .map_or(fallback, |w| w.0)
}

/// Last granted (non-empty) window end, `fallback` if none.
fn window_end(windows: &[(f64, f64)], fallback: f64) -> f64 {
    windows
        .iter()
        .rev()
        .find(|w| w.1 - w.0 > EPS)
        .map_or(fallback, |w| w.1)
}

/// Lays one batch's reservations on `arb` starting at `t0`: every GPU
/// segment becomes **one** merged lease held by all members jointly
/// (duration per [`batched_segment_time`] — one copy of the shared fixed
/// cost, everyone's payload), while CPU bands reserve per member from
/// the shared core pool. Segments are barriers: the batch moves to
/// segment `i + 1` only when every member finished segment `i` — the
/// price of sharing a launch.
///
/// Laying the batch on a *clone* of the arbiter answers "what would this
/// batch look like" without committing anything.
fn lay_batch(arb: &mut DeviceArbiter, t0: f64, members: &[&Variant]) -> BatchTimeline {
    let m = members.len();
    let segs = members[0].demands.len();
    let mut windows = vec![Vec::with_capacity(segs); m];
    let mut gpu_windows = Vec::new();
    let mut releases = Vec::new();
    let mut saved = 0.0;
    let mut t = t0;
    for si in 0..segs {
        match members[0].demands[si].kind {
            SegKind::Gpu => {
                let durs: Vec<f64> = members.iter().map(|v| v.demands[si].gpu).collect();
                let shared = members
                    .iter()
                    .map(|v| v.fixed.get(si).copied().unwrap_or(0.0))
                    .fold(f64::INFINITY, f64::min);
                let merged = batched_segment_time(&durs, shared);
                if merged.time <= EPS {
                    for w in windows.iter_mut() {
                        w.push((t, t));
                    }
                    continue;
                }
                let (s, e) = arb.reserve_gpu(t, merged.time);
                releases.push(e);
                for w in windows.iter_mut() {
                    w.push((s, e));
                }
                gpu_windows.push((s, e));
                saved += merged.saved;
                t = e;
            }
            // Split never reaches here (`batchable` rejects it); the arm
            // keeps the match total and treats it like a CPU band.
            SegKind::Cpu { .. } | SegKind::Split { .. } => {
                let mut barrier = t;
                for (mi, v) in members.iter().enumerate() {
                    let d = &v.demands[si];
                    if d.len() <= EPS {
                        windows[mi].push((t, t));
                        continue;
                    }
                    let cores = match d.kind {
                        SegKind::Cpu { cores } | SegKind::Split { cores } => cores,
                        SegKind::Gpu => 1,
                    };
                    let (s, e) = arb.reserve_cpu(t, d.cpu, cores);
                    releases.push(e);
                    windows[mi].push((s, e));
                    barrier = barrier.max(e);
                }
                t = barrier;
            }
        }
    }
    BatchTimeline {
        windows,
        gpu_windows,
        releases,
        saved,
    }
}

/// Records the causal span tree of one dispatched job: the job span over
/// its committed window, a segment span per granted reservation window,
/// the solo run's level rows laid *proportionally* inside their segment's
/// window (the calendars replay measured demands, not per-level
/// sub-schedules, so the level layout is causal but approximate), and a
/// zero-width retry marker when recovery retried.
fn push_job_spans(
    spans: &mut SpanSet,
    id: u64,
    name: &str,
    start: f64,
    end: f64,
    v: &Variant,
    windows: &[(f64, f64)],
) {
    let job_span = spans.push(
        Track::Cpu,
        start,
        end,
        SpanKind::Job {
            job: id,
            name: name.to_string(),
        },
        None,
    );
    if v.retries > 0 {
        spans.push(
            Track::Cpu,
            start,
            start,
            SpanKind::Retry { attempt: v.retries },
            Some(job_span),
        );
    }
    let last = v.demands.len().saturating_sub(1);
    for (i, (d, &(ws, we))) in v.demands.iter().zip(windows.iter()).enumerate() {
        if d.len() <= EPS {
            continue;
        }
        let (track, placement) = match d.kind {
            SegKind::Cpu { .. } => (Track::Cpu, "cpu"),
            SegKind::Gpu => (Track::Gpu, "gpu"),
            SegKind::Split { .. } => (Track::Gpu, "split"),
        };
        let seg_span = spans.push(
            track,
            ws,
            we,
            SpanKind::Segment {
                index: i as u32,
                placement: placement.to_string(),
            },
            Some(job_span),
        );
        let rows: Vec<_> = v
            .report
            .levels
            .iter()
            .filter(|r| r.segment.map(|s| s as usize).unwrap_or(0).min(last) == i)
            .collect();
        let total: f64 = rows.iter().map(|r| r.time.max(0.0)).sum();
        if total <= 0.0 {
            continue;
        }
        let mut t = ws;
        for row in rows {
            let dur = (we - ws) * row.time.max(0.0) / total;
            spans.push(
                track,
                t,
                t + dur,
                SpanKind::Level { level: row.level },
                Some(seg_span),
            );
            t += dur;
        }
    }
}
