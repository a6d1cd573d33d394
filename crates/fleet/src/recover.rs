//! Deterministic node-crash failure detection and recovery.
//!
//! The fleet's node-fault machinery is a three-stage timeline per
//! faulted node, driven entirely by the global event loop's ordinal —
//! no wall clock, no randomness beyond the seeded [`NodeFaultPlan`]:
//!
//! 1. **Fire** — at the fault's scheduled ordinal the machine dies
//!    ([`NodeFaultKind::Crash`]: queue, pending arrivals and in-flight
//!    work are evicted via `NodeSim::crash`, completion records of lost
//!    jobs revoked) or goes silent ([`NodeFaultKind::Partition`]: the
//!    machine keeps executing, the fleet just can't reach it). The
//!    fleet does not know yet; the router keeps placing work there.
//! 2. **Detect** — after [`MISS_THRESHOLD`] further
//!    global event boundaries the failure detector declares the node
//!    `Down`: it is quarantined from routing and stealing, and a
//!    crashed node's evicted jobs (plus any strays routed into it
//!    during the detection window) are re-placed on reachable peers —
//!    resumed from their last level-boundary checkpoint when they
//!    carry one, restarted from scratch when they don't.
//! 3. **Restart** — at the fault's rejoin ordinal (if the plan allows
//!    restarts) the node returns to service: a crashed node rejoins
//!    *cold* (bumped pricing generation, cleared residency — see
//!    `NodeSim::rejoin`), a healed partition rejoins warm.
//!
//! [`NodeFaultPlan`]: hpu_machine::NodeFaultPlan

use hpu_machine::{NodeFault, NodeFaultKind};
use hpu_obs::RecoveryCounters;

use crate::node::{Node, NodeHealth};
use crate::steal::{StealEvent, StealReason};

/// Global event boundaries between a fault firing and the fleet's
/// failure detector declaring the node down. The detector counts
/// boundaries, not time, so equal inputs flip health at equal
/// boundaries.
const MISS_THRESHOLD: u64 = 2;

/// One faulted node's progress through fire → detect → restart.
pub(crate) struct FaultTimeline {
    /// Fleet node index the fault targets.
    pub node: usize,
    fault: NodeFault,
    /// Ordinal the fault actually fired at (`None` until it does).
    fired: Option<u64>,
    detected: bool,
    restarted: bool,
}

impl FaultTimeline {
    pub(crate) fn new(node: usize, fault: NodeFault) -> FaultTimeline {
        FaultTimeline {
            node,
            fault,
            fired: None,
            detected: false,
            restarted: false,
        }
    }

    /// Whether a fired fault still owes a detection or restart stage.
    /// The event loop must keep advancing the ordinal (even with no
    /// events left) until this clears, or evicted jobs would never be
    /// re-placed and a scheduled rejoin would never happen. An unfired
    /// fault owes nothing: a workload too short to reach its ordinal
    /// simply never crashes.
    pub(crate) fn pending(&self) -> bool {
        match self.fired {
            None => false,
            Some(_) => !self.restarted && (!self.detected || self.fault.restart_at.is_some()),
        }
    }
}

/// Recovery tallies accumulated across the run, folded into
/// [`RecoveryCounters`] at the end.
#[derive(Default)]
pub(crate) struct RecoveryLog {
    pub counters: RecoveryCounters,
    mttr_sum: f64,
    mttr_events: u64,
}

impl RecoveryLog {
    /// Finalizes the counters (derives the MTTR mean).
    pub(crate) fn finish(mut self) -> RecoveryCounters {
        self.counters.mttr = if self.mttr_events > 0 {
            self.mttr_sum / self.mttr_events as f64
        } else {
            0.0
        };
        self.counters
    }
}

/// Advances every fault timeline to `ordinal` (fleet virtual time
/// `now`). Called once per event-loop iteration, *before* the next
/// event is selected, so a fault at ordinal `k` shapes event `k`.
pub(crate) fn fault_step(
    timelines: &mut [FaultTimeline],
    nodes: &mut [Node],
    ordinal: u64,
    now: f64,
    datasets: &[Option<u64>],
    log: &mut RecoveryLog,
    steals_log: &mut Vec<StealEvent>,
) {
    for tl in timelines.iter_mut() {
        // Stage 1: the fault fires. A crash kills the machine now; a
        // partition changes nothing physical yet — both stay invisible
        // to the fleet until the detector notices.
        if tl.fired.is_none() && ordinal >= tl.fault.at {
            tl.fired = Some(ordinal);
            let node = &mut nodes[tl.node];
            node.fault_time = Some(now);
            if tl.fault.kind == NodeFaultKind::Crash {
                node.crashed = true;
                let report = node.sim.crash(now);
                node.evicted.extend(report.queued);
                node.evicted.extend(report.in_flight);
                log.counters.crashes += 1;
            }
        }
        // Stage 2: the detector declares the node down and the fleet
        // recovers its jobs. Skipped entirely when the node restarted
        // before the detector's patience ran out.
        if let Some(fired) = tl.fired {
            if !tl.detected && !tl.restarted && ordinal >= fired + MISS_THRESHOLD {
                tl.detected = true;
                nodes[tl.node].health = NodeHealth::Down;
                log.counters.node_downs += 1;
                if tl.fault.kind == NodeFaultKind::Crash {
                    // Arrivals routed into the dead node during the
                    // detection window sat in its (dead) event heap;
                    // they die with it now and are recovered too.
                    let strays = nodes[tl.node].sim.crash(now);
                    nodes[tl.node].evicted.extend(strays.queued);
                    nodes[tl.node].evicted.extend(strays.in_flight);
                    redistribute(tl.node, nodes, now, datasets, log, steals_log);
                }
            }
        }
        // Stage 3: the node rejoins. A crash rejoins cold; a partition
        // heals warm. Evictees that found no reachable peer at
        // detection restart here — the rejoined node is a peer again.
        if tl.fired.is_some() && !tl.restarted && tl.fault.restart_at.is_some_and(|r| ordinal >= r)
        {
            tl.restarted = true;
            if tl.detected {
                log.counters.node_ups += 1;
            }
            let node = &mut nodes[tl.node];
            node.health = NodeHealth::Up;
            if tl.fault.kind == NodeFaultKind::Crash {
                node.crashed = false;
                node.sim.rejoin(now);
                node.clear_resident();
                redistribute(tl.node, nodes, now, datasets, log, steals_log);
            } else if let Some(t0) = node.fault_time.take() {
                log.mttr_sum += now - t0;
                log.mttr_events += 1;
            }
        }
    }
}

/// Re-places everything `from` evicted onto reachable, non-crashed
/// nodes, shortest effective queue first (nodes with admission room
/// before full ones, lowest index on ties). Jobs carrying a usable
/// checkpoint count as *recovered* — their completed levels are not
/// re-executed — the rest as *restarted*. Jobs that fit nowhere stay
/// in the stash for the next recovery boundary (a later rejoin).
fn redistribute(
    from: usize,
    nodes: &mut [Node],
    now: f64,
    datasets: &[Option<u64>],
    log: &mut RecoveryLog,
    steals_log: &mut Vec<StealEvent>,
) {
    let evicted = std::mem::take(&mut nodes[from].evicted);
    let mut injected = vec![0usize; nodes.len()];
    let mut kept = Vec::new();
    for stolen in evicted {
        let target = (0..nodes.len())
            .filter(|&i| nodes[i].reachable() && !nodes[i].crashed)
            .min_by_key(|&i| {
                let len = nodes[i].sim.queue_len() + injected[i];
                let full = len >= nodes[i].sim.queue_capacity();
                (full as usize, len, i)
            });
        let Some(target) = target else {
            kept.push(stolen);
            continue;
        };
        match &stolen.checkpoint {
            Some(ck) if ck.level > 0 => {
                log.counters.jobs_recovered += 1;
                log.counters.levels_saved += ck.level as u64;
                log.counters.checkpoint_bytes += ck.resident_words.saturating_mul(8);
            }
            _ => log.counters.jobs_restarted += 1,
        }
        let id = stolen.id;
        nodes[from].steals_out += 1;
        nodes[target].steals_in += 1;
        nodes[target].sim.inject(stolen, now);
        injected[target] += 1;
        if let Some(d) = datasets.get(id as usize).copied().flatten() {
            nodes[target].touch_resident(d);
        }
        steals_log.push(StealEvent {
            at: now,
            job: id,
            from,
            to: target,
            reason: StealReason::NodeDown,
        });
    }
    nodes[from].evicted = kept;
    // Recovery of this fault completes when the stash drains: MTTR
    // spans fault-fire to jobs-safely-re-placed, in fleet virtual time.
    if nodes[from].evicted.is_empty() {
        if let Some(t0) = nodes[from].fault_time.take() {
            log.mttr_sum += now - t0;
            log.mttr_events += 1;
        }
    }
}
