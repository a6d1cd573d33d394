//! Cross-node work stealing at deterministic event boundaries.
//!
//! Two triggers move queued jobs between nodes:
//!
//! * **Load imbalance** ([`balance`]): after each node event, while the
//!   longest queue exceeds the shortest (accepting) queue by at least
//!   [`MIN_IMBALANCE`] jobs, one job migrates from the victim's
//!   *backfillable suffix* — never its rigid prefix, which the dispatch
//!   policy has already promised to run next — to the thief.
//! * **Device loss** ([`evacuate`]): when a node's GPU circuit breaker
//!   trips, every job still queued there is rerouted to healthy nodes
//!   with queue room, rather than running degraded CPU-only.
//!
//! A migrated job keeps its original spec, arrival and deadline; the
//! receiving node re-prices and re-compiles it from scratch under its
//! own beliefs and plan cache. All decisions read only queue lengths and
//! deterministic orderings, so fleet runs stay bit-for-bit reproducible.

use crate::error::FleetError;
use crate::node::Node;

/// Minimum queue-length gap between victim and thief before a
/// load-triggered steal fires.
const MIN_IMBALANCE: usize = 2;

/// Why a job migrated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StealReason {
    /// Load-triggered: the victim's queue was too long.
    Load,
    /// Fault-triggered: the victim's GPU circuit breaker tripped.
    DeviceLost,
    /// Recovery-triggered: the victim node crashed (or was declared
    /// down) and its evicted jobs were re-placed on reachable peers.
    NodeDown,
}

/// One cross-node migration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StealEvent {
    /// Fleet virtual time of the migration.
    pub at: f64,
    /// The migrated job's id.
    pub job: u64,
    /// Victim node index.
    pub from: usize,
    /// Receiving node index.
    pub to: usize,
    /// What triggered it.
    pub reason: StealReason,
}

/// Effective queue length of a prospective thief: its admitted queue
/// plus migrations already injected this boundary (they become arrivals,
/// not queue entries, until the node's next event).
fn effective(nodes: &[Node], injected: &[usize], i: usize) -> usize {
    nodes[i].sim.queue_len() + injected[i]
}

/// Picks the steal victim: the *reachable* node with the longest queue
/// (lowest index on ties) — a down node cannot be negotiated with, in
/// either direction. An empty fleet is a typed error, not a panic — the
/// caller records it and skips the stealing pass.
pub(crate) fn pick_victim(nodes: &[Node]) -> Result<usize, FleetError> {
    (0..nodes.len())
        .filter(|&i| nodes[i].reachable())
        .max_by_key(|&i| (nodes[i].sim.queue_len(), usize::MAX - i))
        .ok_or(FleetError::EmptyFleet {
            context: "steal victim",
        })
}

/// Load-balancing pass at one event boundary (time `now`): migrates
/// jobs one at a time from the longest queue to the shortest accepting
/// queue until the gap falls below the threshold (or the victim has no
/// stealable suffix). Breaker-open nodes never steal *in* — a stolen
/// GPU job would instantly degrade there. A malformed selection is
/// appended to `errors` and ends the pass.
pub(crate) fn balance(
    nodes: &mut [Node],
    now: f64,
    errors: &mut Vec<FleetError>,
) -> Vec<StealEvent> {
    let mut events = Vec::new();
    if nodes.iter().filter(|n| n.reachable()).count() < 2 {
        return events;
    }
    let mut injected = vec![0usize; nodes.len()];
    loop {
        let victim = match pick_victim(nodes) {
            Ok(v) => v,
            Err(e) => {
                errors.push(e);
                break;
            }
        };
        let thief = (0..nodes.len())
            .filter(|&i| i != victim && nodes[i].reachable() && !nodes[i].sim.breaker_open())
            .filter(|&i| effective(nodes, &injected, i) < nodes[i].sim.queue_capacity())
            .min_by_key(|&i| (effective(nodes, &injected, i), i));
        let Some(thief) = thief else { break };
        let gap = nodes[victim]
            .sim
            .queue_len()
            .saturating_sub(effective(nodes, &injected, thief));
        if gap < MIN_IMBALANCE {
            break;
        }
        // Lowest-dispatch-priority candidate first; an empty list means
        // everything left is rigid — this node keeps its promises.
        let Some(&id) = nodes[victim].sim.steal_candidates().first() else {
            break;
        };
        let Some(stolen) = nodes[victim].sim.steal(id) else {
            break;
        };
        nodes[victim].steals_out += 1;
        nodes[thief].steals_in += 1;
        nodes[thief].sim.inject(stolen, now);
        injected[thief] += 1;
        events.push(StealEvent {
            at: now,
            job: id,
            from: victim,
            to: thief,
            reason: StealReason::Load,
        });
    }
    events
}

/// Evacuates every queued job off `victim` (whose GPU circuit breaker
/// just tripped) onto healthy nodes with queue room, shortest queue
/// first. Jobs that fit nowhere stay behind and run degraded CPU-only.
pub(crate) fn evacuate(nodes: &mut [Node], victim: usize, now: f64) -> Vec<StealEvent> {
    let mut events = Vec::new();
    if nodes.len() < 2 {
        return events;
    }
    let mut injected = vec![0usize; nodes.len()];
    for id in nodes[victim].sim.queued_ids() {
        let target = (0..nodes.len())
            .filter(|&i| i != victim && nodes[i].reachable() && !nodes[i].sim.breaker_open())
            .filter(|&i| effective(nodes, &injected, i) < nodes[i].sim.queue_capacity())
            .min_by_key(|&i| (effective(nodes, &injected, i), i));
        let Some(target) = target else { break };
        let Some(stolen) = nodes[victim].sim.steal(id) else {
            continue;
        };
        nodes[victim].steals_out += 1;
        nodes[target].steals_in += 1;
        nodes[target].sim.inject(stolen, now);
        injected[target] += 1;
        events.push(StealEvent {
            at: now,
            job: id,
            from: victim,
            to: target,
            reason: StealReason::DeviceLost,
        });
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn victim_selection_over_an_empty_fleet_is_an_error_not_a_panic() {
        // Regression: this used to be an `expect` that aborted the whole
        // fleet simulation if the guard above it ever regressed.
        assert_eq!(
            pick_victim(&[]),
            Err(FleetError::EmptyFleet {
                context: "steal victim"
            })
        );
    }

    #[test]
    fn balance_records_nothing_and_no_errors_on_a_degenerate_fleet() {
        let mut errors = Vec::new();
        let events = balance(&mut [], 0.0, &mut errors);
        assert!(events.is_empty());
        assert!(errors.is_empty(), "the <2-node guard short-circuits first");
    }
}
