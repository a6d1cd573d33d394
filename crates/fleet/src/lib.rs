//! # hpu-fleet — multi-node serving across heterogeneous HPU machines
//!
//! `hpu-serve` answers "how do many jobs share *one* hybrid CPU-GPU
//! machine?". This crate scales that out: a fleet of N independent,
//! possibly heterogeneous nodes — each with its own machine parameters
//! (the paper's HPU1/HPU2 and anything between), its own device
//! arbiter, bounded queue, calibrator, fault plan, metrics registry and
//! plan cache — served as one pool.
//!
//! The pieces:
//!
//! - [`NodeSpec`] / [`FleetConfig`] — per-node machine + scheduler
//!   configuration, plus the fleet-level switches: load stealing, the
//!   routing oracle, metrics and node faults.
//! - Routing — one cost/affinity rule: each arriving job is priced
//!   *under every node's own beliefs* (its assumed parameters corrected
//!   by its private calibration, served by its plan cache), plus a load
//!   penalty from the node's believed backlog and a data-affinity
//!   transfer term for non-resident datasets; breaker-open nodes are
//!   demoted. A 1-node fleet places every job on its only node without
//!   pricing it, so it is observationally identical to plain
//!   [`hpu_serve::serve_sim`].
//! - Work stealing ([`FleetConfig::steal`]) — cross-node migration at
//!   deterministic event boundaries: an overloaded node's backfillable
//!   (non-rigid) queued jobs migrate to idle nodes, and a node whose GPU
//!   circuit breaker trips has its whole queue evacuated to healthy
//!   peers; migrated jobs re-price from scratch under the receiving
//!   node's beliefs.
//! - [`hpu_machine::NodeFaultPlan`] — the node-crash fault domain:
//!   seeded whole-node crashes and partitions at deterministic event
//!   ordinals, a wall-clock-free failure detector that declares a node
//!   down after two missed event boundaries, quarantine of down nodes
//!   from routing/stealing/affinity, and recovery of a dead node's jobs on
//!   reachable peers — resumed from their last level-boundary
//!   checkpoint (see [`hpu_serve::CheckpointPolicy`]) when one exists,
//!   restarted from scratch when not. Restarted nodes rejoin cold:
//!   bumped pricing generation, cleared residency.
//! - [`fleet_sim`] — the deterministic event-driven entry point,
//!   merging per-node [`hpu_obs::ServeReport`]s into a
//!   [`hpu_obs::FleetReport`]: aggregate goodput, per-node utilization,
//!   steal/migration counts, and routing quality against an omniscient
//!   lowest-completion-time oracle.
//!
//! Calibration drift stays node-local by construction: each node owns
//! its calibrator and plan cache, so a drifting (or breaker-tripped)
//! node re-prices only itself — peers' pricing generations never move.
//!
//! ```
//! use hpu_algos::MergeSort;
//! use hpu_fleet::{fleet_sim, FleetConfig, FleetJobRequest, NodeSpec};
//! use hpu_machine::MachineConfig;
//! use hpu_model::ScheduleSpec;
//! use hpu_serve::AlgoJob;
//!
//! let cfg = FleetConfig::new(vec![
//!     NodeSpec::new("hpu1", MachineConfig::hpu1_sim()),
//!     NodeSpec::new("hpu2", MachineConfig::hpu2_sim()),
//! ]);
//! let jobs = (0..6)
//!     .map(|i| {
//!         let data: Vec<u64> = (0..512u64).rev().collect();
//!         FleetJobRequest::new(
//!             format!("sort-{i}"),
//!             ScheduleSpec::Basic { crossover: Some(4) },
//!             i as f64,
//!             AlgoJob::boxed(MergeSort::new(), data),
//!         )
//!         .with_dataset(i % 2)
//!     })
//!     .collect();
//! let out = fleet_sim(&cfg, jobs);
//! assert_eq!(out.report.completed, 6);
//! assert_eq!(out.assignments.len(), 6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod node;
mod recover;
mod router;
mod sim;
mod steal;

pub use error::FleetError;
pub use node::{Node, NodeHealth, NodeSpec};
pub use sim::{fleet_sim, FleetConfig, FleetJobRequest, FleetOutput};
pub use steal::{StealEvent, StealReason};
