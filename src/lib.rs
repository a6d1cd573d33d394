//! # hpu — generic hybrid CPU-GPU parallelization of divide-and-conquer
//! algorithms
//!
//! An open-source reproduction of López-Ortiz, Salinger & Suderman,
//! *"Toward a Generic Hybrid CPU-GPU Parallelization of Divide-and-Conquer
//! Algorithms"* (IJNC 4(1), 2014; IPDPS-W 2013): a generic framework that
//! turns a recursive divide-and-conquer algorithm into a breadth-first,
//! hybrid CPU-GPU execution, plus the analytic machine model that splits
//! the work optimally between the two units.
//!
//! This umbrella crate re-exports the workspace:
//!
//! * [`model`] — the HPU machine model and the basic/advanced schedule
//!   analysis (`hpu-model`);
//! * [`machine`] — a deterministic virtual-clock simulation of the hybrid
//!   platform: multicore CPU with an LLC model, wave-executing GPU with a
//!   coalescing cost model, `λ + δw` bus (`hpu-machine`);
//! * [`core`] — the generic D&C framework: the tree form (Algorithms 1-2),
//!   the regular in-place breadth-first form, executors for every
//!   schedule, a native thread pool, and model-driven auto-tuning
//!   (`hpu-core`);
//! * [`algos`] — mergesort (the paper's case study, §6) and further D&C
//!   algorithms (`hpu-algos`);
//! * [`estimate`] — the §6.4 parameter-estimation procedures
//!   (`hpu-estimate`);
//! * [`obs`] — dependency-free observability: typed trace events, a Chrome
//!   trace exporter, per-level metrics and model-vs-simulation drift
//!   reports (`hpu-obs`);
//! * [`serve`] — multi-job serving on one shared machine: cost-model
//!   admission, device arbitration (exclusive GPU lease over a
//!   partitionable CPU pool), bounded-queue backpressure, deadlines and
//!   fleet metrics (`hpu-serve`);
//! * [`fleet`] — multi-node serving above [`serve`]: cost/affinity
//!   routing under each node's own beliefs, cross-node work stealing at
//!   deterministic event boundaries, per-node calibration isolation and
//!   a merged fleet report with an omniscient routing oracle
//!   (`hpu-fleet`).
//!
//! ## Quickstart
//!
//! ```
//! use hpu::prelude::*;
//!
//! // A simulated analogue of the paper's HPU1 platform.
//! let mut hpu = SimHpu::new(MachineConfig::hpu1_sim());
//!
//! // Sort 4096 keys with the model-tuned advanced hybrid schedule.
//! let algo = MergeSort::new();
//! let rec = BfAlgorithm::<u32>::recurrence(&algo);
//! let spec = auto_advanced(hpu.config(), &rec, 4096).unwrap();
//! let mut data: Vec<u32> = (0..4096u32).rev().collect();
//! let report = run_sim(&algo, &mut data, &mut hpu, &spec).unwrap();
//!
//! assert!(data.windows(2).all(|w| w[0] <= w[1]));
//! assert_eq!(report.transfers, 2); // the advanced schedule's guarantee
//! assert_eq!(report.resolved, spec); // the plan ran the tuned (α, y)
//! ```
//!
//! Every [`ScheduleSpec`](model::ScheduleSpec) compiles to one execution
//! plan that one interpreter runs; [`core::exec::run_sim_plan`] runs an
//! already-compiled plan with retries, metering or checkpoint resume
//! chosen by [`core::exec::RunOpts`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hpu_algos as algos;
pub use hpu_core as core;
pub use hpu_estimate as estimate;
pub use hpu_fleet as fleet;
pub use hpu_machine as machine;
pub use hpu_model as model;
pub use hpu_obs as obs;
pub use hpu_serve as serve;

/// Commonly used items in one import.
pub mod prelude {
    pub use hpu_algos::mergesort::MergeSort;
    pub use hpu_algos::sum::DcSum;
    pub use hpu_core::exec::{run_native, run_native_report, run_sim, NativeReport, RunReport};
    pub use hpu_core::pool::LevelPool;
    pub use hpu_core::tune::{auto_advanced, auto_strategy};
    pub use hpu_core::{BfAlgorithm, Charge, CoreError, DivideConquer};
    pub use hpu_estimate::estimate_params;
    pub use hpu_machine::{MachineConfig, SimHpu};
    pub use hpu_model::{MachineParams, Recurrence, ScheduleSpec};
}
