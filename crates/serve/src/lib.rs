//! # hpu-serve — multi-job serving on one hybrid machine
//!
//! The rest of the workspace answers "how fast does *one* divide-and-
//! conquer instance run on a CPU+GPU machine?". This crate answers the
//! fleet question: many concurrent jobs — any [`BfAlgorithm`] under any
//! [`ScheduleSpec`] — contending for **one** shared machine.
//!
//! The pieces:
//!
//! - [`DeviceArbiter`] — reservation calendars for the shared devices:
//!   the GPU (plus bus) is exclusively leased, the CPU is a partitionable
//!   core pool, so one job's GPU segment overlaps other jobs' CPU work.
//! - [`Policy`] — cost-model admission: jobs are priced with
//!   [`hpu_model::plan_cost`] and dispatched shortest-predicted-cost
//!   first with a starvation bound; a bound of 0 is strict FIFO.
//! - [`serve_sim`] — deterministic event-driven serving in simulated
//!   time, with bounded-queue backpressure ([`ServeError::QueueFull`]),
//!   per-job deadlines ([`ServeError::Cancelled`]), and CPU-only fallback
//!   when the GPU lease is contended.
//! - [`serve_native`] — the wall-clock counterpart on real threads.
//! - Fleet metrics land in an [`hpu_obs::ServeReport`]: throughput,
//!   latency percentiles, device utilization, predicted-vs-actual drift.
//!
//! ```
//! use hpu_algos::MergeSort;
//! use hpu_machine::MachineConfig;
//! use hpu_model::ScheduleSpec;
//! use hpu_serve::{serve_sim, AlgoJob, JobRequest, ServeConfig};
//!
//! let cfg = MachineConfig::tiny();
//! let jobs = (0..4)
//!     .map(|i| {
//!         let data: Vec<u64> = (0..256u64).rev().collect();
//!         JobRequest::new(
//!             format!("sort-{i}"),
//!             ScheduleSpec::CpuParallel,
//!             i as f64,
//!             AlgoJob::boxed(MergeSort::new(), data),
//!         )
//!     })
//!     .collect();
//! let out = serve_sim(&cfg, &ServeConfig::default(), jobs);
//! assert_eq!(out.report.completed, 4);
//! assert!(out.report.p50_latency <= out.report.p99_latency);
//! ```
//!
//! [`BfAlgorithm`]: hpu_core::BfAlgorithm
//! [`ScheduleSpec`]: hpu_model::ScheduleSpec

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arbiter;
mod error;
mod job;
mod native;
mod queue;
mod sched;

pub use arbiter::DeviceArbiter;
pub use error::ServeError;
pub use job::{AlgoJob, Workload};
pub use native::{serve_native, NativeJobRequest, NativeServeOutput};
pub use queue::{dispatch_order, Policy, Rank};
pub use sched::{
    serve_sim, BatchPolicy, BatchRecord, CheckpointPolicy, CrashReport, FaultConfig, JobRequest,
    JobRun, NodeSim, QueuedShape, ServeConfig, ServeOutput, StolenJob,
};

pub use hpu_core::exec::Checkpoint;
