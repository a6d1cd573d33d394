//! One fleet node: a resumable single-machine scheduler plus the
//! fleet-side bookkeeping the router and stealer need.

use hpu_machine::MachineConfig;
use hpu_serve::{NodeSim, ServeConfig, StolenJob};

/// Datasets each node keeps resident (least recently used evicted first)
/// for the router's affinity term.
const RESIDENCY_CAPACITY: usize = 8;

/// Static description of one fleet node: its (possibly heterogeneous)
/// machine and its private scheduler configuration — queue capacity,
/// policy, assumed parameters, calibration, faults, metrics and plan
/// cache are all per node.
#[derive(Debug, Clone)]
pub struct NodeSpec {
    /// Human-readable node label, carried into the fleet report.
    pub name: String,
    /// The node's machine.
    pub machine: MachineConfig,
    /// The node's scheduler configuration.
    pub serve: ServeConfig,
}

impl NodeSpec {
    /// A node over `machine` with the default scheduler configuration.
    pub fn new(name: impl Into<String>, machine: MachineConfig) -> Self {
        NodeSpec {
            name: name.into(),
            machine,
            serve: ServeConfig::default(),
        }
    }

    /// Replaces the node's scheduler configuration.
    pub fn with_serve(mut self, serve: ServeConfig) -> Self {
        self.serve = serve;
        self
    }
}

/// A node's reachability as the fleet's failure detector sees it.
///
/// The detector is deterministic and virtual-time-free: it counts missed
/// event boundaries, so a node is never `Down` because of wall-clock
/// noise — equal inputs flip health at equal boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NodeHealth {
    /// Reachable: the router places work here and residency credit
    /// applies.
    #[default]
    Up,
    /// Declared down by the failure detector: quarantined from routing
    /// and stealing (in both directions) until it rejoins.
    Down,
}

/// A live node: the resumable scheduler plus residency and migration
/// tallies.
pub struct Node {
    /// The node's label.
    pub name: String,
    /// The node's scheduler, driven one event at a time by the fleet.
    pub sim: NodeSim,
    /// Jobs the router placed here.
    pub routed: usize,
    /// Queued jobs migrated here from other nodes.
    pub steals_in: usize,
    /// Queued jobs migrated away to other nodes.
    pub steals_out: usize,
    /// Detector-visible health. Lags the machine's true state by the
    /// detector's miss threshold: a crashed node stays `Up` (and keeps
    /// attracting arrivals, which die with it) until the detector fires.
    pub health: NodeHealth,
    /// Whether the machine itself is dead (crash fired, restart not yet).
    /// A crashed node processes no events; a *partitioned* node keeps
    /// executing but reads `Down` to the detector.
    pub(crate) crashed: bool,
    /// Jobs a crash evicted, held here until the detector fires and the
    /// fleet re-places them on reachable peers.
    pub(crate) evicted: Vec<StolenJob>,
    /// Fleet virtual time the in-progress fault fired, for MTTR; taken
    /// (once) when its jobs are safely re-placed.
    pub(crate) fault_time: Option<f64>,
    /// Dataset ids resident on this node, least recently used first.
    resident: Vec<u64>,
}

impl Node {
    pub(crate) fn new(spec: &NodeSpec) -> Node {
        Node {
            name: spec.name.clone(),
            sim: NodeSim::new(&spec.machine, &spec.serve),
            routed: 0,
            steals_in: 0,
            steals_out: 0,
            health: NodeHealth::Up,
            crashed: false,
            evicted: Vec::new(),
            fault_time: None,
            resident: Vec::new(),
        }
    }

    /// Whether the fleet may send work here: `Up` per the failure
    /// detector. (A crashed-but-undetected node is still "reachable" —
    /// that window is exactly what the detector's miss threshold costs.)
    pub fn reachable(&self) -> bool {
        self.health == NodeHealth::Up
    }

    /// Drops every residency claim — a rejoining node restarts cold and
    /// re-earns its affinity credit.
    pub(crate) fn clear_resident(&mut self) {
        self.resident.clear();
    }

    /// Whether dataset `d` is already resident on this node — routing a
    /// job over it here skips the host↔device staging transfer.
    pub fn is_resident(&self, d: u64) -> bool {
        self.resident.contains(&d)
    }

    /// Marks dataset `d` most recently used on this node, evicting the
    /// least recently used id beyond [`RESIDENCY_CAPACITY`].
    pub(crate) fn touch_resident(&mut self, d: u64) {
        self.resident.retain(|&r| r != d);
        self.resident.push(d);
        while self.resident.len() > RESIDENCY_CAPACITY {
            self.resident.remove(0);
        }
    }
}
