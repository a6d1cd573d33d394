//! # hpu-core — generic hybrid CPU-GPU divide-and-conquer
//!
//! The paper's primary contribution: a *generic translation* of recursive
//! divide-and-conquer (D&C) algorithms into breadth-first form plus
//! work-division schedules that split the recursion tree between a
//! multi-core CPU and a GPU.
//!
//! Two levels of genericity are offered:
//!
//! * [`tree`] — the fully general form of Algorithms 1 & 2: any problem
//!   expressible as `endCondition / Divide / BaseCase / Combine` over
//!   arbitrary parameter types, with recursive, breadth-first and
//!   native-threaded executors. This is the faithful rendering of the
//!   paper's translation, applicable with "little knowledge of the
//!   particular algorithm".
//! * [`bf`] — the regular, in-place form over a contiguous buffer (the
//!   shape of the paper's case study): level `k` combines runs of
//!   `a` solved chunks into one. This form is what the hybrid schedulers
//!   in [`exec`] run on the simulated machine, including:
//!
//!   - [`ScheduleSpec::Sequential`] — the 1-core baseline,
//!   - [`ScheduleSpec::CpuParallel`] — level-parallel on `p` cores,
//!   - [`ScheduleSpec::GpuOnly`] — every level on the device,
//!   - [`ScheduleSpec::Basic`] — one crossover level (§5.1, Figure 1),
//!   - [`ScheduleSpec::Advanced`] — the `(α, y)` concurrent split
//!     (§5.2, Figure 2), with parameters solvable by
//!     [`tune::auto_advanced`] from the analytic model.
//!
//!   Every schedule compiles to one [`hpu_model::Plan`] and runs through
//!   one [`exec::interpret`] loop; [`exec::run_sim_plan`] is the one
//!   simulated entry point, with retries, metering and checkpoint resume
//!   chosen by [`exec::RunOpts`].
//!
//! [`ScheduleSpec::Sequential`]: hpu_model::ScheduleSpec::Sequential
//! [`ScheduleSpec::CpuParallel`]: hpu_model::ScheduleSpec::CpuParallel
//! [`ScheduleSpec::GpuOnly`]: hpu_model::ScheduleSpec::GpuOnly
//! [`ScheduleSpec::Basic`]: hpu_model::ScheduleSpec::Basic
//! [`ScheduleSpec::Advanced`]: hpu_model::ScheduleSpec::Advanced
//!
//! A from-scratch [`pool::LevelPool`] provides real-thread execution of the
//! same breadth-first levels for native use of the library.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bf;
pub mod charge;
pub mod error;
pub mod exec;
pub mod pool;
pub mod tree;
pub mod tune;

pub use bf::{BfAlgorithm, Element, LevelInfo};
pub use charge::Charge;
pub use error::CoreError;
pub use exec::{
    interpret, run_native, run_native_report, run_sim, run_sim_plan, Backend, BandStats,
    Checkpoint, InterpretStats, LevelBand, NativeBackend, NativeReport, RecoveryPolicy,
    RecoveryStats, RunOpts, RunReport, Share, SimBackend,
};
pub use pool::LevelPool;
pub use tree::DivideConquer;
