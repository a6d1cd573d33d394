//! Deterministic device fault injection.
//!
//! A [`FaultPlan`] is a seeded, declarative description of which faults the
//! simulated device should suffer: transient kernel failures, transfer/bus
//! errors, permanent device loss, and slowdown (straggler) launches. A
//! [`FaultInjector`] interprets the plan statefully — it counts kernel
//! launches and bus transfers and decides, per ordinal, whether that
//! operation faults.
//!
//! ## Determinism and monotone coupling
//!
//! Decisions are pure functions of `(seed, stream, ordinal)`: a splitmix64
//! hash maps each operation to a point in `[0, 1)` and the operation faults
//! iff the point falls below the configured rate. Two consequences the
//! fault-tolerance tests rely on:
//!
//! * The same plan replays the identical fault pattern on every run.
//! * For a fixed seed, the fault set at rate `r₁` is a **subset** of the
//!   fault set at any rate `r₂ ≥ r₁` (the hash point does not move, only
//!   the threshold does), which is what makes goodput-vs-fault-rate curves
//!   monotone rather than merely correlated.
//!
//! The injector is shared as `Arc<Mutex<FaultInjector>>` so that permanent
//! state — a lost device, consecutive-fault counts — survives across the
//! many short-lived [`crate::SimHpu`] instances a serving scheduler spins up
//! (one per priced or executed job).

use std::sync::{Arc, Mutex};

/// A typed fault the injector can raise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// A kernel launch fails before doing any work; retryable.
    TransientKernel,
    /// A bus transfer fails before moving any data; retryable.
    TransferError,
    /// The device is gone for good: every later launch or transfer fails.
    DeviceLost,
    /// The launch completes but runs `factor`× slower (a straggler).
    Slowdown {
        /// Multiplier applied to the launch's virtual duration (≥ 1).
        factor: f64,
    },
}

/// Seeded description of the faults to inject.
///
/// Rates are per-operation probabilities in `[0, 1]`. `scripted` entries
/// pin a specific fault to a specific launch ordinal (0-based), on top of
/// whatever the rates produce — the deterministic way to write "the third
/// kernel of this run fails".
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the per-operation hash draws.
    pub seed: u64,
    /// Probability that a kernel launch fails transiently.
    pub kernel_rate: f64,
    /// Probability that a bus transfer fails transiently.
    pub transfer_rate: f64,
    /// Probability that a (non-faulting) launch is a straggler.
    pub slowdown_rate: f64,
    /// Straggler duration multiplier (≥ 1).
    pub slowdown_factor: f64,
    /// Permanently lose the device at this launch ordinal (0-based):
    /// that launch and everything after it fails with device loss.
    pub lose_device_at: Option<u64>,
    /// Pinned faults: `(launch ordinal, fault)` pairs.
    pub scripted: Vec<(u64, FaultKind)>,
}

impl FaultPlan {
    /// A fault-free plan with the given seed: every rate zero, no loss.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            kernel_rate: 0.0,
            transfer_rate: 0.0,
            slowdown_rate: 0.0,
            slowdown_factor: 4.0,
            lose_device_at: None,
            scripted: Vec::new(),
        }
    }

    /// Sets the transient kernel-failure rate.
    pub fn with_kernel_rate(mut self, rate: f64) -> Self {
        self.kernel_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the transient transfer-failure rate.
    pub fn with_transfer_rate(mut self, rate: f64) -> Self {
        self.transfer_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the straggler rate and factor.
    pub fn with_slowdown(mut self, rate: f64, factor: f64) -> Self {
        self.slowdown_rate = rate.clamp(0.0, 1.0);
        self.slowdown_factor = factor.max(1.0);
        self
    }

    /// Permanently loses the device at launch ordinal `at`.
    pub fn with_device_loss_at(mut self, at: u64) -> Self {
        self.lose_device_at = Some(at);
        self
    }

    /// Pins `fault` to launch ordinal `at`.
    pub fn with_scripted(mut self, at: u64, fault: FaultKind) -> Self {
        self.scripted.push((at, fault));
        self
    }

    /// Whether the plan can never produce a fault.
    pub fn is_fault_free(&self) -> bool {
        self.kernel_rate == 0.0
            && self.transfer_rate == 0.0
            && self.slowdown_rate == 0.0
            && self.lose_device_at.is_none()
            && self.scripted.is_empty()
    }

    /// Whether the plan injects only transient (retryable) faults.
    pub fn is_transient_only(&self) -> bool {
        self.lose_device_at.is_none()
            && !self
                .scripted
                .iter()
                .any(|(_, f)| matches!(f, FaultKind::DeviceLost))
    }
}

/// splitmix64 finalizer: a well-mixed 64-bit hash.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps `(seed, stream, ordinal)` to a uniform point in `[0, 1)`.
fn draw(seed: u64, stream: u64, ordinal: u64) -> f64 {
    let h = mix(seed ^ mix(stream) ^ mix(ordinal));
    (h >> 11) as f64 / (1u64 << 53) as f64
}

const STREAM_KERNEL: u64 = 0x4B45_524E;
const STREAM_TRANSFER: u64 = 0x5452_414E;
const STREAM_SLOW: u64 = 0x534C_4F57;
const STREAM_CRASH: u64 = 0x4352_5348;
const STREAM_CRASH_AT: u64 = 0x4352_4154;
const STREAM_PARTITION: u64 = 0x5052_544E;

/// What a node-level fault does to the node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeFaultKind {
    /// The node process dies: in-flight and queued work is lost, and a
    /// restart comes back with cold caches and re-earned residency.
    Crash,
    /// The node stays alive but the router cannot reach it: work already
    /// on the node keeps executing, nothing new arrives, and a heal
    /// restores it with its warm state intact.
    Partition,
}

/// One node's scheduled fault, fully resolved from a [`NodeFaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeFault {
    /// Global fleet event ordinal (0-based) at which the fault strikes.
    pub at: u64,
    /// Crash or partition.
    pub kind: NodeFaultKind,
    /// Global event ordinal at which the node rejoins, when the plan
    /// allows restarts.
    pub restart_at: Option<u64>,
}

/// Seeded description of whole-node faults across a fleet.
///
/// Decisions are pure functions of `(seed, stream, node index)`, exactly
/// like [`FaultPlan`]'s per-operation draws: the same plan replays the
/// identical crash pattern on every run, and for a fixed seed the set of
/// crashing nodes at rate `r₁` is a **subset** of the set at any rate
/// `r₂ ≥ r₁` (the hash point per node does not move, only the threshold
/// does). Fault times are deterministic *event ordinals* of the fleet's
/// global event loop — no wall clock anywhere.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeFaultPlan {
    /// Seed for the per-node hash draws.
    pub seed: u64,
    /// Probability that a node suffers a fault at all.
    pub crash_rate: f64,
    /// Inclusive global-event-ordinal window faults land in; the exact
    /// ordinal per node is drawn deterministically inside it.
    pub crash_window: (u64, u64),
    /// Rejoin the faulted node this many global events after the fault
    /// (`None`: the node never comes back).
    pub restart_after: Option<u64>,
    /// Fraction of faults that are router partitions (node alive but
    /// unreachable) instead of crashes.
    pub partition_rate: f64,
}

impl NodeFaultPlan {
    /// A fault-free plan with the given seed.
    pub fn new(seed: u64) -> Self {
        NodeFaultPlan {
            seed,
            crash_rate: 0.0,
            crash_window: (4, 16),
            restart_after: None,
            partition_rate: 0.0,
        }
    }

    /// Sets the per-node fault probability.
    pub fn with_crash_rate(mut self, rate: f64) -> Self {
        self.crash_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the inclusive event-ordinal window faults are drawn in.
    pub fn with_crash_window(mut self, lo: u64, hi: u64) -> Self {
        self.crash_window = (lo.min(hi), lo.max(hi));
        self
    }

    /// Rejoins faulted nodes `events` global events after the fault.
    pub fn with_restart_after(mut self, events: u64) -> Self {
        self.restart_after = Some(events);
        self
    }

    /// Sets the fraction of faults that are partitions, not crashes.
    pub fn with_partition_rate(mut self, rate: f64) -> Self {
        self.partition_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Whether the plan can never fault a node.
    pub fn is_fault_free(&self) -> bool {
        self.crash_rate == 0.0
    }

    /// The fault scheduled for `node` (a stable per-fleet index), or
    /// `None` when that node survives this plan. Pure per `(plan, node)`.
    pub fn fault_for(&self, node: u64) -> Option<NodeFault> {
        if draw(self.seed, STREAM_CRASH, node) >= self.crash_rate {
            return None;
        }
        let (lo, hi) = self.crash_window;
        let span = hi - lo + 1;
        let at = lo + (draw(self.seed, STREAM_CRASH_AT, node) * span as f64) as u64;
        let kind = if draw(self.seed, STREAM_PARTITION, node) < self.partition_rate {
            NodeFaultKind::Partition
        } else {
            NodeFaultKind::Crash
        };
        NodeFault {
            at: at.min(hi),
            kind,
            restart_at: self.restart_after.map(|d| at.min(hi) + d),
        }
        .into()
    }
}

/// Stateful interpreter of a [`FaultPlan`].
///
/// Attach one (shared) injector to a machine via
/// [`crate::SimHpu::with_faults`]; the device and bus consult it on every
/// launch and (fallible) transfer.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    launches: u64,
    transfers: u64,
    kernel_faults: u64,
    transfer_faults: u64,
    slowdowns: u64,
    lost: bool,
}

impl FaultInjector {
    /// Builds an injector for `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            launches: 0,
            transfers: 0,
            kernel_faults: 0,
            transfer_faults: 0,
            slowdowns: 0,
            lost: false,
        }
    }

    /// Builds a shareable injector, ready for [`crate::SimHpu::with_faults`].
    pub fn shared(plan: FaultPlan) -> Arc<Mutex<FaultInjector>> {
        Arc::new(Mutex::new(FaultInjector::new(plan)))
    }

    /// The plan being interpreted.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Decides the fate of the next kernel launch. Returns the launch
    /// ordinal (0-based) and the fault, if any.
    pub fn on_launch(&mut self) -> (u64, Option<FaultKind>) {
        let ordinal = self.launches;
        self.launches += 1;
        if self.lost {
            return (ordinal, Some(FaultKind::DeviceLost));
        }
        if self.plan.lose_device_at.is_some_and(|at| ordinal >= at) {
            self.lost = true;
            return (ordinal, Some(FaultKind::DeviceLost));
        }
        if let Some(&(_, fault)) = self.plan.scripted.iter().find(|(at, _)| *at == ordinal) {
            if matches!(fault, FaultKind::DeviceLost) {
                self.lost = true;
            } else if matches!(fault, FaultKind::TransientKernel) {
                self.kernel_faults += 1;
            }
            return (ordinal, Some(fault));
        }
        if draw(self.plan.seed, STREAM_KERNEL, ordinal) < self.plan.kernel_rate {
            self.kernel_faults += 1;
            return (ordinal, Some(FaultKind::TransientKernel));
        }
        if draw(self.plan.seed, STREAM_SLOW, ordinal) < self.plan.slowdown_rate {
            self.slowdowns += 1;
            return (
                ordinal,
                Some(FaultKind::Slowdown {
                    factor: self.plan.slowdown_factor,
                }),
            );
        }
        (ordinal, None)
    }

    /// Decides the fate of the next bus transfer. Returns the transfer
    /// ordinal (0-based) and the fault, if any.
    pub fn on_transfer(&mut self) -> (u64, Option<FaultKind>) {
        let ordinal = self.transfers;
        self.transfers += 1;
        if self.lost {
            return (ordinal, Some(FaultKind::DeviceLost));
        }
        if draw(self.plan.seed, STREAM_TRANSFER, ordinal) < self.plan.transfer_rate {
            self.transfer_faults += 1;
            return (ordinal, Some(FaultKind::TransferError));
        }
        (ordinal, None)
    }

    /// Whether the device is permanently lost.
    pub fn lost(&self) -> bool {
        self.lost
    }

    /// Kernel launches decided so far.
    pub fn launches(&self) -> u64 {
        self.launches
    }

    /// Bus transfers decided so far.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Transient kernel faults raised so far.
    pub fn kernel_faults(&self) -> u64 {
        self.kernel_faults
    }

    /// Transient transfer faults raised so far.
    pub fn transfer_faults(&self) -> u64 {
        self.transfer_faults
    }

    /// Straggler launches raised so far.
    pub fn slowdowns(&self) -> u64 {
        self.slowdowns
    }

    /// All faults raised so far (kernel + transfer; loss counts once via
    /// the `lost` flag, not per refused operation).
    pub fn fault_events(&self) -> u64 {
        self.kernel_faults + self.transfer_faults
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fault_ordinals(plan: &FaultPlan, n: u64) -> Vec<u64> {
        let mut inj = FaultInjector::new(plan.clone());
        (0..n)
            .filter_map(|_| {
                let (ord, f) = inj.on_launch();
                matches!(f, Some(FaultKind::TransientKernel)).then_some(ord)
            })
            .collect()
    }

    #[test]
    fn decisions_are_deterministic() {
        let plan = FaultPlan::new(42).with_kernel_rate(0.3);
        assert_eq!(fault_ordinals(&plan, 100), fault_ordinals(&plan, 100));
    }

    #[test]
    fn fault_sets_nest_as_rate_grows() {
        let lo = fault_ordinals(&FaultPlan::new(7).with_kernel_rate(0.1), 200);
        let hi = fault_ordinals(&FaultPlan::new(7).with_kernel_rate(0.4), 200);
        assert!(lo.iter().all(|o| hi.contains(o)), "lo ⊄ hi: {lo:?} {hi:?}");
        assert!(hi.len() > lo.len());
    }

    #[test]
    fn rate_roughly_matches_frequency() {
        let faults = fault_ordinals(&FaultPlan::new(1).with_kernel_rate(0.25), 1000);
        let freq = faults.len() as f64 / 1000.0;
        assert!((freq - 0.25).abs() < 0.05, "empirical rate {freq}");
    }

    #[test]
    fn device_loss_is_permanent() {
        let mut inj = FaultInjector::new(FaultPlan::new(3).with_device_loss_at(2));
        assert_eq!(inj.on_launch(), (0, None));
        assert_eq!(inj.on_launch(), (1, None));
        assert_eq!(inj.on_launch(), (2, Some(FaultKind::DeviceLost)));
        assert_eq!(inj.on_launch(), (3, Some(FaultKind::DeviceLost)));
        assert!(inj.lost());
        let (_, f) = inj.on_transfer();
        assert_eq!(f, Some(FaultKind::DeviceLost));
    }

    #[test]
    fn scripted_fault_fires_at_its_ordinal() {
        let plan = FaultPlan::new(0).with_scripted(1, FaultKind::TransientKernel);
        let mut inj = FaultInjector::new(plan);
        assert_eq!(inj.on_launch().1, None);
        assert_eq!(inj.on_launch().1, Some(FaultKind::TransientKernel));
        assert_eq!(inj.on_launch().1, None);
        assert_eq!(inj.kernel_faults(), 1);
    }

    #[test]
    fn transient_only_classification() {
        assert!(FaultPlan::new(0).with_kernel_rate(0.9).is_transient_only());
        assert!(!FaultPlan::new(0).with_device_loss_at(0).is_transient_only());
        assert!(!FaultPlan::new(0)
            .with_scripted(0, FaultKind::DeviceLost)
            .is_transient_only());
        assert!(FaultPlan::new(5).is_fault_free());
        assert!(!FaultPlan::new(5).with_transfer_rate(0.1).is_fault_free());
    }

    fn crashing_nodes(plan: &NodeFaultPlan, n: u64) -> Vec<u64> {
        (0..n).filter(|&i| plan.fault_for(i).is_some()).collect()
    }

    #[test]
    fn node_faults_are_deterministic_and_nest_as_rate_grows() {
        let lo = NodeFaultPlan::new(11).with_crash_rate(0.15);
        let hi = NodeFaultPlan::new(11).with_crash_rate(0.6);
        assert_eq!(crashing_nodes(&lo, 128), crashing_nodes(&lo, 128));
        let a = crashing_nodes(&lo, 128);
        let b = crashing_nodes(&hi, 128);
        assert!(a.iter().all(|o| b.contains(o)), "lo ⊄ hi: {a:?} {b:?}");
        assert!(b.len() > a.len());
        // Nesting keeps the *shared* nodes' fault details identical: the
        // ordinal and kind draws only depend on (seed, node).
        for node in &a {
            assert_eq!(lo.fault_for(*node), hi.fault_for(*node));
        }
    }

    #[test]
    fn node_fault_ordinals_stay_in_the_window() {
        let plan = NodeFaultPlan::new(5)
            .with_crash_rate(1.0)
            .with_crash_window(8, 24)
            .with_restart_after(10);
        for node in 0..64 {
            let f = plan.fault_for(node).expect("rate 1 faults every node");
            assert!((8..=24).contains(&f.at), "ordinal {} escaped", f.at);
            assert_eq!(f.restart_at, Some(f.at + 10));
        }
    }

    #[test]
    fn node_fault_free_plan_faults_nobody() {
        let plan = NodeFaultPlan::new(42);
        assert!(plan.is_fault_free());
        assert!(crashing_nodes(&plan, 64).is_empty());
    }

    #[test]
    fn partition_rate_splits_fault_kinds() {
        let all_crash = NodeFaultPlan::new(3).with_crash_rate(1.0);
        assert!((0..32).all(|n| all_crash.fault_for(n).unwrap().kind == NodeFaultKind::Crash));
        let all_part = NodeFaultPlan::new(3)
            .with_crash_rate(1.0)
            .with_partition_rate(1.0);
        assert!((0..32).all(|n| all_part.fault_for(n).unwrap().kind == NodeFaultKind::Partition));
    }

    #[test]
    fn slowdown_surfaces_factor() {
        let plan = FaultPlan::new(9).with_slowdown(1.0, 6.0);
        let mut inj = FaultInjector::new(plan);
        match inj.on_launch().1 {
            Some(FaultKind::Slowdown { factor }) => assert_eq!(factor, 6.0),
            other => panic!("expected slowdown, got {other:?}"),
        }
        assert_eq!(inj.slowdowns(), 1);
    }
}
