//! The deterministic multi-node fleet simulation.
//!
//! [`fleet_sim`] interleaves N independent [`NodeSim`] schedulers in one
//! global virtual time: the earliest pending event — a fleet arrival or
//! any node's next internal event — is processed first, with arrivals
//! winning ties so a job routed at time `t` is admissible in the same
//! instant. After every node event the stealer runs ([`crate::steal`],
//! unless [`FleetConfig::steal`] is off), and a node whose GPU circuit
//! breaker newly tripped has its queue evacuated to healthy peers.
//! Everything is deterministic: equal inputs give equal outputs,
//! migration for migration.
//!
//! [`NodeSim`]: hpu_serve::NodeSim

use std::sync::Arc;

use hpu_machine::{NodeFaultPlan, SimMachineParams};
use hpu_model::{compile, plan_cost, LevelProfile, MachineParams, ScheduleSpec};
use hpu_obs::{FleetReport, MetricsRegistry, ServeReport};
use hpu_serve::{JobRequest, QueuedShape, ServeOutput, Workload};

use crate::error::FleetError;
use crate::node::{Node, NodeSpec};
use crate::recover::{fault_step, FaultTimeline, RecoveryLog};
use crate::router::route;
use crate::steal::{balance, evacuate, StealEvent, StealReason};

/// One job submission to the fleet.
pub struct FleetJobRequest {
    /// Human-readable label, carried into the records.
    pub name: String,
    /// The schedule to compile the job's plan from.
    pub spec: ScheduleSpec,
    /// Submission time (fleet virtual time).
    pub arrival: f64,
    /// Latest acceptable completion time, if any.
    pub deadline: Option<f64>,
    /// Dataset the job reads, for the router's affinity term: jobs over
    /// the same id prefer nodes where it is already resident.
    pub dataset: Option<u64>,
    /// The work itself.
    pub workload: Box<dyn Workload>,
}

impl FleetJobRequest {
    /// A deadline-free, affinity-free fleet submission.
    pub fn new(
        name: impl Into<String>,
        spec: ScheduleSpec,
        arrival: f64,
        workload: Box<dyn Workload>,
    ) -> Self {
        FleetJobRequest {
            name: name.into(),
            spec,
            arrival,
            deadline: None,
            dataset: None,
            workload,
        }
    }

    /// Attaches a completion deadline (fleet virtual time).
    pub fn with_deadline(mut self, deadline: f64) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Tags the job with the dataset it reads (see
    /// [`FleetJobRequest::dataset`]).
    pub fn with_dataset(mut self, dataset: u64) -> Self {
        self.dataset = Some(dataset);
        self
    }
}

/// Fleet configuration: the nodes plus the fleet-level switches.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The fleet's nodes, possibly heterogeneous.
    pub nodes: Vec<NodeSpec>,
    /// Whether load-triggered work stealing runs (device-loss evacuation
    /// and crash recovery always do).
    pub steal: bool,
    /// Whether to run the omniscient lowest-completion-time oracle on
    /// the same submission stream and report routing quality against it.
    pub oracle: bool,
    /// Fleet-level metrics registry (`fleet.*` counters, the routing
    /// score histogram, end-of-run goodput/quality gauges). `None` —
    /// the default — serves unmetered.
    pub metrics: Option<Arc<MetricsRegistry>>,
    /// Seeded whole-node fault plan (crashes, partitions, restarts).
    /// `None` — the default — injects nothing, and the run is
    /// event-for-event identical to a fleet without the fault machinery.
    pub node_faults: Option<NodeFaultPlan>,
}

impl FleetConfig {
    /// A fleet over `nodes` with load stealing on, the oracle on, no
    /// fleet metrics and no node faults.
    pub fn new(nodes: Vec<NodeSpec>) -> Self {
        FleetConfig {
            nodes,
            steal: true,
            oracle: true,
            metrics: None,
            node_faults: None,
        }
    }

    /// Attaches a node-fault plan (see [`FleetConfig::node_faults`]).
    pub fn with_node_faults(mut self, plan: NodeFaultPlan) -> Self {
        self.node_faults = Some(plan);
        self
    }
}

/// Everything a fleet run produces.
pub struct FleetOutput {
    /// Merged fleet-level metrics.
    pub report: FleetReport,
    /// Each node's full [`ServeOutput`], fleet node order.
    pub nodes: Vec<ServeOutput>,
    /// `(job id, node index)` for every routed job, submission order —
    /// the *initial* placement; migrations are in
    /// [`FleetOutput::steals`].
    pub assignments: Vec<(u64, usize)>,
    /// Every cross-node migration, occurrence order.
    pub steals: Vec<StealEvent>,
    /// Fleet-internal invariant violations observed during the run
    /// (malformed routing or stealing decisions). The offending decision
    /// is skipped rather than aborting every node's simulation; an empty
    /// vec is the healthy case.
    pub errors: Vec<FleetError>,
}

/// One fleet arrival, pre-digested: the pricing shape is extracted
/// before the workload moves into a node, so the router and the oracle
/// can price it without touching the job.
struct Incoming {
    id: u64,
    at: f64,
    shape: Option<QueuedShape>,
    dataset: Option<u64>,
    words: u64,
    job: Option<FleetJobRequest>,
}

/// Serves `jobs` over the fleet `cfg`. Deterministic: equal inputs give
/// equal outputs, event for event and migration for migration.
pub fn fleet_sim(cfg: &FleetConfig, jobs: Vec<FleetJobRequest>) -> FleetOutput {
    let submitted = jobs.len();
    let mut nodes: Vec<Node> = cfg.nodes.iter().map(Node::new).collect();
    if nodes.is_empty() {
        let report = FleetReport::new(Vec::new(), &[], Vec::new(), Vec::new(), Vec::new(), 0, 0, 0);
        return FleetOutput {
            report,
            nodes: Vec::new(),
            assignments: Vec::new(),
            steals: Vec::new(),
            errors: Vec::new(),
        };
    }

    // Digest and order arrivals: stable by (clamped arrival, submission
    // index) — exactly the event order a single node's heap would use.
    let mut incoming: Vec<Incoming> = jobs
        .into_iter()
        .enumerate()
        .map(|(i, job)| Incoming {
            id: i as u64,
            at: job.arrival.max(0.0),
            shape: job.workload.exec_levels().ok().map(|levels| QueuedShape {
                spec: job.spec.clone(),
                rec: job.workload.recurrence(),
                n: job.workload.input_len() as u64,
                levels,
            }),
            dataset: job.dataset,
            words: job.workload.input_len() as u64,
            job: Some(job),
        })
        .collect();
    incoming.sort_by(|a, b| a.at.total_cmp(&b.at).then(a.id.cmp(&b.id)));

    let oracle_mean = if cfg.oracle {
        oracle_mean_latency(cfg, &incoming)
    } else {
        0.0
    };

    let mut datasets: Vec<Option<u64>> = vec![None; submitted];
    let mut assignments: Vec<(u64, usize)> = Vec::new();
    let mut steals_log: Vec<StealEvent> = Vec::new();
    let mut errors: Vec<FleetError> = Vec::new();
    let mut unpriceable = 0usize;
    let mut idx = 0usize;
    // Resolve the node-fault plan up front: one optional timeline per
    // node, advanced by the global event ordinal. Empty without a plan —
    // the fault machinery then touches nothing at all.
    let mut timelines: Vec<FaultTimeline> = match &cfg.node_faults {
        Some(plan) if !plan.is_fault_free() => (0..nodes.len())
            .filter_map(|i| plan.fault_for(i as u64).map(|f| FaultTimeline::new(i, f)))
            .collect(),
        _ => Vec::new(),
    };
    let mut recovery = RecoveryLog::default();
    let mut ordinal: u64 = 0;
    let mut gnow = 0.0f64;
    loop {
        fault_step(
            &mut timelines,
            &mut nodes,
            ordinal,
            gnow,
            &datasets,
            &mut recovery,
            &mut steals_log,
        );
        let next_arrival = incoming.get(idx).map(|inc| inc.at);
        let next_node = nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| !n.crashed)
            .filter_map(|(i, n)| n.sim.next_event_time().map(|t| (t, i)))
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        match (next_arrival, next_node) {
            (None, None) => {
                // Fired faults still owing a detection or restart stage
                // keep the ordinal advancing past the last real event,
                // or evicted jobs would never be re-placed.
                if timelines.iter().any(FaultTimeline::pending) {
                    ordinal += 1;
                    continue;
                }
                break;
            }
            // Arrival-first on ties: the routed job must be in its
            // node's heap before that node processes the same instant.
            (Some(at), ev) if ev.is_none_or(|(t, _)| at <= t) => {
                ordinal += 1;
                gnow = gnow.max(at);
                let inc = &mut incoming[idx];
                idx += 1;
                let placement = route(&mut nodes, inc.shape.as_ref(), inc.dataset, inc.words, at);
                unpriceable += placement.unpriceable;
                // A consumed payload means this arrival already routed —
                // a fleet bug, but one that must not abort every other
                // node's simulation.
                let job = match take_routed(inc) {
                    Ok(job) => job,
                    Err(e) => {
                        errors.push(e);
                        continue;
                    }
                };
                datasets[inc.id as usize] = inc.dataset;
                let target = &mut nodes[placement.node];
                target.routed += 1;
                if let Some(d) = inc.dataset {
                    target.touch_resident(d);
                }
                target.sim.submit(
                    inc.id,
                    JobRequest {
                        name: job.name,
                        spec: job.spec,
                        arrival: at,
                        deadline: job.deadline,
                        workload: job.workload,
                    },
                );
                assignments.push((inc.id, placement.node));
                if let Some(m) = &cfg.metrics {
                    m.inc("fleet.submitted", 1);
                    if placement.score.is_finite() {
                        m.observe("fleet.route_score", placement.score);
                    }
                }
            }
            (_, Some((_, i))) => {
                ordinal += 1;
                let was_open = nodes[i].sim.breaker_open();
                nodes[i].sim.step();
                let now = nodes[i].sim.now();
                gnow = gnow.max(now);
                if !was_open && nodes[i].sim.breaker_open() {
                    let evs = evacuate(&mut nodes, i, now);
                    settle_migrations(&mut nodes, &datasets, &evs);
                    if let Some(m) = &cfg.metrics {
                        m.inc("fleet.migrations", evs.len() as u64);
                    }
                    steals_log.extend(evs);
                }
                let evs = if cfg.steal {
                    balance(&mut nodes, now, &mut errors)
                } else {
                    Vec::new()
                };
                settle_migrations(&mut nodes, &datasets, &evs);
                if let Some(m) = &cfg.metrics {
                    m.inc("fleet.steals", evs.len() as u64);
                }
                steals_log.extend(evs);
            }
            (Some(_), None) => unreachable!("the guarded arm admits every arrival-only state"),
        }
    }

    let names: Vec<String> = nodes.iter().map(|n| n.name.clone()).collect();
    // Net responsibility: router placements corrected by migrations, so
    // per-node goodput compares completions to what the node actually
    // kept.
    let routed_net: Vec<usize> = nodes
        .iter()
        .map(|n| (n.routed + n.steals_in).saturating_sub(n.steals_out))
        .collect();
    let steal_flow: Vec<(usize, usize)> =
        nodes.iter().map(|n| (n.steals_out, n.steals_in)).collect();
    let replans: Vec<u64> = nodes.iter().map(|n| n.sim.replans()).collect();
    let outputs: Vec<ServeOutput> = nodes.into_iter().map(|n| n.sim.finish()).collect();
    let reports: Vec<ServeReport> = outputs.iter().map(|o| o.report.clone()).collect();
    let steals = steals_log
        .iter()
        .filter(|e| e.reason == StealReason::Load)
        .count();
    // Recovery re-placements (`NodeDown`) are tallied separately in the
    // recovery counters; `migrations` stays breaker-evacuations only.
    let migrations = steals_log
        .iter()
        .filter(|e| e.reason == StealReason::DeviceLost)
        .count();
    let faulted = !timelines.is_empty();
    let recovery = recovery.finish();
    let mut report = FleetReport::new(
        names, &reports, routed_net, steal_flow, replans, submitted, steals, migrations,
    )
    .with_unpriceable(unpriceable)
    .with_recovery(recovery);
    if oracle_mean > 0.0 {
        report = report.with_oracle(oracle_mean);
    }
    if let Some(m) = &cfg.metrics {
        m.set_gauge("fleet.goodput", report.goodput);
        m.set_gauge("fleet.routing_quality", report.routing_quality);
        m.set_gauge("fleet.makespan", report.makespan);
        if unpriceable > 0 {
            m.inc("fleet.unpriceable", unpriceable as u64);
        }
        // Gated on a live fault plan so fault-free metered runs keep a
        // byte-identical registry snapshot.
        if faulted {
            m.inc("recovery.crashes", recovery.crashes);
            m.inc("recovery.node_down", recovery.node_downs);
            m.inc("recovery.node_up", recovery.node_ups);
            m.inc("recovery.jobs_recovered", recovery.jobs_recovered);
            m.inc("recovery.jobs_restarted", recovery.jobs_restarted);
            m.inc("recovery.levels_saved", recovery.levels_saved);
            m.inc("recovery.checkpoint_bytes", recovery.checkpoint_bytes);
            m.set_gauge("recovery.mttr", recovery.mttr);
        }
    }
    FleetOutput {
        report,
        nodes: outputs,
        assignments,
        steals: steals_log,
        errors,
    }
}

/// Consumes an arrival's job payload for routing; an already-consumed
/// payload is the [`FleetError::ArrivalAlreadyRouted`] invariant
/// violation (this used to be a process-aborting `expect`).
fn take_routed(inc: &mut Incoming) -> Result<FleetJobRequest, FleetError> {
    inc.job
        .take()
        .ok_or(FleetError::ArrivalAlreadyRouted { job: inc.id })
}

/// Moves each migrated job's dataset residency with it.
fn settle_migrations(nodes: &mut [Node], datasets: &[Option<u64>], evs: &[StealEvent]) {
    for e in evs {
        if let Some(d) = datasets.get(e.job as usize).copied().flatten() {
            nodes[e.to].touch_resident(d);
        }
    }
}

/// Mean completed-job latency of the omniscient lowest-completion-time
/// oracle: for each arrival in order, it prices the job on every node
/// under that node's *true* parameters (no mis-specification, no
/// calibration lag, no compile failures it doesn't know about) and
/// places it where `max(arrival, node available) + true cost` is
/// smallest, then occupies the node for exactly that cost. No queueing
/// model, no stealing — a lower-bound-style reference the real router
/// is measured against.
fn oracle_mean_latency(cfg: &FleetConfig, incoming: &[Incoming]) -> f64 {
    let params: Vec<MachineParams> = cfg
        .nodes
        .iter()
        .map(|s| MachineParams::from_config(&s.machine))
        .collect();
    let mut avail = vec![0.0f64; params.len()];
    let mut total = 0.0f64;
    let mut count = 0usize;
    for inc in incoming {
        let Some(shape) = &inc.shape else { continue };
        let mut best: Option<(f64, usize)> = None;
        for (i, p) in params.iter().enumerate() {
            let Ok(plan) = compile(&shape.spec, p, &shape.rec, shape.n, shape.levels) else {
                continue;
            };
            let profile = LevelProfile::new(p, &shape.rec, shape.n);
            let Ok(cost) = plan_cost(&profile, &plan) else {
                continue;
            };
            let completion = inc.at.max(avail[i]) + cost.total;
            if best.is_none_or(|(b, _)| completion < b) {
                best = Some((completion, i));
            }
        }
        if let Some((completion, i)) = best {
            avail[i] = completion;
            total += completion - inc.at;
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_twice_routed_arrival_is_a_typed_error_not_a_panic() {
        // Regression: `fleet_sim` used to `expect` here, so a duplicate
        // take aborted the whole multi-node run.
        let mut inc = Incoming {
            id: 42,
            at: 0.0,
            shape: None,
            dataset: None,
            words: 0,
            job: None,
        };
        assert_eq!(
            take_routed(&mut inc).map(|_| ()),
            Err(FleetError::ArrivalAlreadyRouted { job: 42 })
        );
    }
}
