//! Job placement across fleet nodes.
//!
//! The cost/affinity router scores every node for each arriving job and
//! places it on the minimum: the job's predicted cost *under that
//! node's own beliefs* (assumed parameters corrected by its private
//! calibration, served by its plan cache), plus a load penalty from the
//! node's believed backlog, plus the believed staging-transfer time when
//! the job's dataset is not already resident there — the XKaapi-style
//! data-affinity term. A node whose GPU circuit breaker is open has its
//! whole score multiplied by a demotion penalty: it can still serve
//! (CPU-only), but only when every healthy node is far more loaded.

use hpu_serve::QueuedShape;

use crate::node::Node;

/// Weight of a node's believed backlog (queued predicted cost plus
/// committed calendar beyond now) in its routing score.
const LOAD_WEIGHT: f64 = 1.0;

/// Multiplier on the routing score of a node whose GPU circuit breaker
/// is open.
const BREAKER_PENALTY: f64 = 4.0;

/// One routing decision.
pub(crate) struct Placement {
    /// Chosen node index.
    pub node: usize,
    /// The winning score (0 for a one-node fleet, which is not priced).
    pub score: f64,
    /// Nodes skipped this decision because their pricing produced no
    /// finite score (plan-cache compile error, NaN/∞ beliefs).
    pub unpriceable: usize,
}

/// Scores `shape` on every node and returns the placement. Nodes with a
/// full admission queue are skipped while any node has room (when all
/// are full, the cheapest node takes the rejection).
///
/// A one-node fleet places every job on its only node without pricing
/// it: a price probe would touch that node's plan cache, and a 1-node
/// fleet must stay observationally identical to plain `serve_sim`.
///
/// A node whose pricing fails — its plan cache cannot compile the shape,
/// or its believed parameters yield a NaN/∞ score — is *skipped*, not
/// priced at zero: a zero price made a broken node look free and
/// attracted every arrival (and NaN scores poisoned the `<` comparison
/// silently). Skipped nodes are counted in [`Placement::unpriceable`].
/// Only when *no* node produces a finite score does the router fall back
/// to pure load balancing across all admissible nodes, so every arrival
/// still places deterministically.
pub(crate) fn route(
    nodes: &mut [Node],
    shape: Option<&QueuedShape>,
    dataset: Option<u64>,
    words: u64,
    now: f64,
) -> Placement {
    debug_assert!(!nodes.is_empty());
    if nodes.len() == 1 {
        return Placement {
            node: 0,
            score: 0.0,
            unpriceable: 0,
        };
    }
    let any_room = nodes
        .iter()
        .any(|n| n.reachable() && n.sim.queue_len() < n.sim.queue_capacity());
    let mut unpriceable = 0usize;
    let mut best: Option<Placement> = None;
    // Pass 1 prices under each node's beliefs; pass 2 (reached only when
    // pass 1 found no finite score anywhere) ignores prices and load-
    // balances, preserving the old all-nodes-unpriceable behavior.
    for priced in [true, false] {
        for (i, node) in nodes.iter_mut().enumerate() {
            // A down node is quarantined outright — not demoted like a
            // breaker-open one: there is no machine to run CPU-only on.
            if !node.reachable() {
                continue;
            }
            if any_room && node.sim.queue_len() >= node.sim.queue_capacity() {
                continue;
            }
            let price = if priced {
                match shape {
                    // No shape at all: nothing to price, pure load
                    // balancing on every node.
                    None => 0.0,
                    Some(s) => match node.sim.price(s).filter(|c| c.is_finite()) {
                        Some(c) => c,
                        None => {
                            unpriceable += 1;
                            continue;
                        }
                    },
                }
            } else {
                0.0
            };
            let backlog = node.sim.queued_cost() + (node.sim.horizon() - now).max(0.0);
            // Residency credit requires a *healthy* holder. A breaker-open
            // node runs the job CPU-only and re-stages regardless of what
            // its device once held, so its stale residency used to pull
            // arrivals toward the degraded node; charge the transfer.
            let transfer = match dataset {
                Some(d) if node.is_resident(d) && !node.sim.breaker_open() => 0.0,
                Some(_) => node.sim.believed_transfer_time(words),
                None => 0.0,
            };
            let mut score = price + LOAD_WEIGHT * backlog + transfer;
            if node.sim.breaker_open() {
                score *= BREAKER_PENALTY;
            }
            // Backlog or transfer can still go non-finite (e.g. λ = ∞
            // beliefs): such a score never wins a `<` race, but NaN loses
            // them *silently* — treat both as unpriceable instead.
            if !score.is_finite() {
                unpriceable += 1;
                continue;
            }
            if best.as_ref().is_none_or(|b| score < b.score) {
                best = Some(Placement {
                    node: i,
                    score,
                    unpriceable: 0,
                });
            }
        }
        if best.is_some() {
            break;
        }
    }
    // Last resort (every node unreachable or unpriceable in both
    // passes): the first reachable node, else node 0 — total either way.
    let fallback = nodes.iter().position(|n| n.reachable()).unwrap_or(0);
    let mut placement = best.unwrap_or(Placement {
        node: fallback,
        score: f64::INFINITY,
        unpriceable: 0,
    });
    placement.unpriceable = unpriceable;
    placement
}

#[cfg(test)]
mod tests {
    use hpu_machine::MachineConfig;
    use hpu_model::{MachineParams, Recurrence, ScheduleSpec};
    use hpu_serve::ServeConfig;

    use super::*;
    use crate::node::NodeSpec;

    fn two_idle_nodes() -> Vec<Node> {
        vec![
            Node::new(&NodeSpec::new("a", MachineConfig::hpu1_sim())),
            Node::new(&NodeSpec::new("b", MachineConfig::hpu1_sim())),
        ]
    }

    fn gpu_shape() -> QueuedShape {
        let rec = Recurrence::mergesort();
        let n = 4096u64;
        let levels = rec.num_levels(n);
        QueuedShape {
            spec: ScheduleSpec::GpuOnly,
            rec,
            n,
            levels,
        }
    }

    /// A node whose believed transfer latency is `lambda` — ∞ or NaN
    /// make every GPU-using price non-finite, i.e. unpriceable.
    fn node_with_lambda(name: &str, lambda: f64) -> Node {
        let assumed = MachineParams::hpu1().with_transfer_cost(lambda, 0.0);
        Node::new(
            &NodeSpec::new(name, MachineConfig::hpu1_sim()).with_serve(ServeConfig {
                assumed: Some(assumed),
                ..ServeConfig::default()
            }),
        )
    }

    #[test]
    fn one_bad_node_is_skipped_counted_and_routing_stays_deterministic() {
        // Regression: a node whose pricing blew up to ∞ used to fall
        // back to a price of 0.0 — the *broken* node looked free and
        // attracted every arrival. It must be skipped and counted.
        for bad_lambda in [f64::INFINITY, f64::NAN] {
            let mut nodes = vec![
                Node::new(&NodeSpec::new("good", MachineConfig::hpu1_sim())),
                node_with_lambda("bad", bad_lambda),
            ];
            let shape = gpu_shape();
            for _ in 0..8 {
                let p = route(&mut nodes, Some(&shape), None, 0, 0.0);
                assert_eq!(p.node, 0, "every arrival must land on the healthy node");
                assert_eq!(p.unpriceable, 1, "the bad node is counted once per probe");
                assert!(p.score.is_finite());
            }
        }
    }

    #[test]
    fn all_bad_nodes_fall_back_to_load_balancing() {
        let mut nodes = vec![
            node_with_lambda("bad-a", f64::INFINITY),
            node_with_lambda("bad-b", f64::INFINITY),
        ];
        let shape = gpu_shape();
        let p = route(&mut nodes, Some(&shape), None, 0, 0.0);
        // No node prices, so the load-only fallback places on the lowest
        // index — deterministic, never a NaN comparison.
        assert_eq!(p.node, 0);
        assert_eq!(p.unpriceable, 2);
        assert!(p.score.is_finite());
    }

    #[test]
    fn affinity_prefers_the_resident_node() {
        let mut nodes = two_idle_nodes();
        nodes[1].touch_resident(7);
        let p = route(&mut nodes, None, Some(7), 1 << 20, 0.0);
        assert_eq!(
            p.node, 1,
            "equal idle nodes: residency must break the tie toward node 1"
        );
    }

    #[test]
    fn a_down_node_is_quarantined_even_when_resident_and_cheapest() {
        use crate::node::NodeHealth;
        // Regression companion to the stale-affinity fix: a node the
        // detector declared down must never win a placement, however
        // attractive its residency or price looks on paper.
        let mut nodes = two_idle_nodes();
        nodes[1].touch_resident(7);
        nodes[1].health = NodeHealth::Down;
        for _ in 0..4 {
            let p = route(&mut nodes, None, Some(7), 1 << 20, 0.0);
            assert_eq!(p.node, 0, "a down node must be skipped outright");
        }
    }

    #[test]
    fn residency_credit_is_suspended_while_the_holder_breaker_is_open() {
        use hpu_machine::FaultPlan;
        use hpu_model::ScheduleSpec;
        use hpu_serve::{AlgoJob, FaultConfig, JobRequest};
        // Regression: a breaker-open node used to keep its 0-transfer
        // residency discount, so arrivals over a resident dataset were
        // still pulled toward the degraded node. Only the degraded node
        // holds the dataset here, and staging 2^24 words costs more than
        // four times its backlog: with the stale discount it would win
        // despite the breaker penalty; without it, the healthy node wins.
        let doomed = ServeConfig {
            cpu_fallback: false,
            faults: Some(FaultConfig::new(FaultPlan::new(3).with_device_loss_at(0))),
            ..ServeConfig::default()
        };
        let mut nodes = vec![
            Node::new(&NodeSpec::new("doomed", MachineConfig::hpu1_sim()).with_serve(doomed)),
            Node::new(&NodeSpec::new("healthy", MachineConfig::hpu1_sim())),
        ];
        // Trip node 0's breaker: its first GPU launch loses the device.
        let data: Vec<u64> = (0..256u64).rev().collect();
        nodes[0].sim.submit(
            99,
            JobRequest::new(
                "trip",
                ScheduleSpec::GpuOnly,
                0.0,
                AlgoJob::boxed(hpu_algos::MergeSort::new(), data),
            ),
        );
        while !nodes[0].sim.breaker_open() {
            assert!(nodes[0].sim.step().is_some(), "breaker must trip");
        }
        nodes[0].touch_resident(7);
        let p = route(&mut nodes, None, Some(7), 1 << 24, 0.0);
        assert_eq!(
            p.node, 1,
            "stale residency on a breaker-open node must not attract the job"
        );
    }
}
