//! The fleet-scaling experiment: the same open-loop job stream offered
//! to 1, 2, ... N heterogeneous nodes, showing aggregate goodput scale
//! near-linearly with fleet size at saturating offered load.
//!
//! Offered load is expressed against a *single* reference node (the
//! paper's HPU1 analogue): `rate = 1` submits, on average, exactly as
//! fast as that one node completes a solo reference job, so `rate = 6`
//! drowns one node while four nodes still keep up. The arrival stream
//! is a pure function of `(jobs, rate, seed)` — node counts see the
//! identical stream, which is what makes the scaling column meaningful.

use hpu_fleet::{fleet_sim, FleetConfig, FleetJobRequest, NodeSpec};
use hpu_machine::MachineConfig;
use hpu_obs::FleetReport;
use hpu_serve::ServeConfig;

use crate::experiments::Csv;
use crate::serving::{exp_gap, job_mix, sim_reference_time};
use crate::workload::SplitMix64;

/// Queue capacity per node: small enough that saturating load actually
/// rejects on an undersized fleet instead of queueing forever.
const NODE_QUEUE: usize = 8;

/// An alternating HPU1/HPU2 pool of `count` nodes — the heterogeneous
/// fleet every scaling row runs on (1 node = HPU1 alone).
pub(crate) fn scaling_nodes(count: usize) -> Vec<NodeSpec> {
    (0..count)
        .map(|i| {
            let (tag, machine) = if i % 2 == 0 {
                ("hpu1", MachineConfig::hpu1_sim())
            } else {
                ("hpu2", MachineConfig::hpu2_sim())
            };
            let serve = ServeConfig {
                queue_capacity: NODE_QUEUE,
                ..ServeConfig::default()
            };
            NodeSpec::new(format!("n{i}-{tag}"), machine).with_serve(serve)
        })
        .collect()
}

/// The pinned arrival stream for one `(jobs, rate, seed)` point: the
/// serving `job_mix` with exponential gaps against the single-node solo
/// reference, each job tagged with one of 8 recurring datasets so the
/// router's affinity term has something to bite on.
pub(crate) fn scaling_stream(jobs: usize, rate: f64, seed: u64) -> Vec<FleetJobRequest> {
    let solo = sim_reference_time(&MachineConfig::hpu1_sim(), &ServeConfig::default(), seed);
    let mean_gap = solo / rate.max(1e-6);
    let mut rng = SplitMix64::new(seed ^ rate.to_bits());
    let mut t = 0.0;
    (0..jobs)
        .map(|i| {
            let (name, spec, workload) = job_mix(i, seed);
            t += exp_gap(&mut rng, mean_gap);
            FleetJobRequest::new(name, spec, t, workload).with_dataset((i % 8) as u64)
        })
        .collect()
}

/// One scaling point: the pinned stream served on `nodes`.
pub(crate) fn scaling_point(
    nodes: Vec<NodeSpec>,
    jobs: usize,
    rate: f64,
    seed: u64,
) -> FleetReport {
    let cfg = FleetConfig::new(nodes);
    fleet_sim(&cfg, scaling_stream(jobs, rate, seed)).report
}

fn report_row(nodes: usize, rate: f64, r: &FleetReport) -> Vec<String> {
    let f = |v: f64| format!("{v:.4}");
    vec![
        nodes.to_string(),
        format!("{rate}"),
        r.submitted.to_string(),
        r.completed.to_string(),
        r.rejected.to_string(),
        f(r.goodput),
        format!("{:.6}", r.throughput),
        f(r.mean_latency),
        f(r.p95_latency),
        f(r.routing_quality),
        r.steals.to_string(),
        r.migrations.to_string(),
    ]
}

/// Runs the scaling matrix: the identical `(jobs, rate, seed)` stream on
/// every node count, one CSV row per `(node_count, rate)`.
pub fn fleet_scaling(jobs: usize, node_counts: &[usize], rates: &[f64], seed: u64) -> Csv {
    let mut rows = Vec::new();
    for &count in node_counts {
        for &rate in rates {
            let report = scaling_point(scaling_nodes(count), jobs, rate, seed);
            rows.push(report_row(count, rate, &report));
        }
    }
    Csv {
        name: "fleet",
        header: vec![
            "nodes",
            "rate",
            "submitted",
            "completed",
            "rejected",
            "goodput",
            "throughput",
            "mean_latency",
            "p95_latency",
            "routing_quality",
            "steals",
            "migrations",
        ],
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// ISSUE acceptance: at saturating offered load, the 4-node
    /// heterogeneous fleet's aggregate goodput is at least 3x the best
    /// single node's on the identical stream. A single node absorbs a
    /// surprising amount of load through concurrent CPU reservations, so
    /// "saturating" here means the arrival stream overruns one node's
    /// admission queue many times over while four nodes still keep up.
    #[test]
    fn four_nodes_triple_the_best_single_node_at_saturation() {
        let (jobs, rate, seed) = (64, 96.0, 42);
        let four = scaling_point(scaling_nodes(4), jobs, rate, seed);
        let hpu1 = scaling_point(vec![scaling_nodes(1).remove(0)], jobs, rate, seed);
        let hpu2 = scaling_point(vec![scaling_nodes(2).remove(1)], jobs, rate, seed);
        let best = hpu1.goodput.max(hpu2.goodput);
        assert!(
            four.goodput >= 3.0 * best,
            "4-node goodput {:.4} must be >= 3x best single {:.4} (hpu1 {:.4}, hpu2 {:.4})",
            four.goodput,
            best,
            hpu1.goodput,
            hpu2.goodput
        );
    }

    /// ISSUE acceptance: the cost/affinity router's mean completion time
    /// stays within 25% of the omniscient lowest-completion-time oracle
    /// on the pinned workload matrix (rates 2 and 6, 4 nodes, seed 42).
    /// Rate 1 is reported in the CSV but not gated: at near-idle load
    /// the router's data-affinity term pins repeat datasets to their
    /// resident node even when the other machine type is faster, while
    /// the oracle charges no staging at all, so the two models diverge.
    #[test]
    fn router_tracks_the_oracle_within_25_percent() {
        for rate in [2.0, 6.0] {
            let report = scaling_point(scaling_nodes(4), 32, rate, 42);
            assert!(
                report.routing_quality > 0.0,
                "rate {rate}: the oracle must produce a baseline"
            );
            assert!(
                report.routing_quality <= 1.25,
                "rate {rate}: router mean latency is {:.3}x the oracle's",
                report.routing_quality
            );
        }
    }

    #[test]
    fn scaling_matrix_is_deterministic_and_shaped() {
        // Determinism is pinned by the `sweep_fleet.txt` golden fixture.
        let a = fleet_scaling(16, &[1, 4], &[1.0, 6.0], 7);
        assert_eq!(a.rows.len(), 4);
        assert_eq!(a.header.len(), a.rows[0].len());
        // Goodput at a fixed rate never shrinks when nodes are added.
        let goodput = |row: &Vec<String>| row[5].parse::<f64>().unwrap();
        assert!(goodput(&a.rows[2]) >= goodput(&a.rows[0]) - 1e-9);
        assert!(goodput(&a.rows[3]) >= goodput(&a.rows[1]) - 1e-9);
    }
}
