//! The generic plan interpreter and the backend abstraction it drives.
//!
//! [`interpret`] walks a compiled [`Plan`] segment by segment and issues
//! backend operations: level bands, transfer edges and synchronization
//! barriers. All work-division strategies — sequential, CPU-parallel,
//! GPU-only, basic crossover, advanced `(α, y)` split — execute through
//! this one driver; what differs is only the plan. A [`Backend`] supplies
//! the substrate: the simulated HPU ([`super::SimBackend`]) or the native
//! thread pool ([`super::NativeBackend`]), and future real-device backends
//! slot in the same way.

use hpu_model::{Direction, Placement, Plan, Segment, Transfer};
use hpu_obs::{EventKind, LevelBook, MetricsRegistry};

use crate::bf::{BfAlgorithm, Element};
use crate::error::CoreError;

/// A contiguous band of bottom-up executor levels handed to a backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelBand {
    /// First (lowest) level of the band, inclusive. A band starting at 0
    /// executes the base cases before its combines.
    pub first: u32,
    /// Last (highest) level of the band, inclusive.
    pub last: u32,
    /// Whether the band produces the root of the recursion tree.
    pub is_root: bool,
}

/// The share of a band's tasks one [`Backend::run_level_band`] call
/// executes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Share {
    /// All tasks of every level, on the CPU with `cores` cores.
    Cpu {
        /// Cores the level waves are divided among (1 = sequential).
        cores: usize,
    },
    /// All tasks of every level, on the device (the device region was
    /// established by a preceding upload edge).
    Gpu,
    /// The CPU side of a concurrent split: the first `cpu_tasks` of the
    /// `tasks` chunks at the band's top level, on `cores` cores.
    SplitCpu {
        /// Chunks at the band's top level belonging to the CPU.
        cpu_tasks: u64,
        /// Total chunks at the band's top level.
        tasks: u64,
        /// Cores the CPU share runs on.
        cores: usize,
    },
}

/// Device-access tallies of one band (all zero for CPU shares).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BandStats {
    /// Memory accesses the device served coalesced.
    pub coalesced: u64,
    /// Memory accesses the device served uncoalesced.
    pub uncoalesced: u64,
}

/// An execution substrate the plan interpreter drives.
///
/// Implementations own the data buffer and whatever machine state the
/// substrate needs (virtual clocks and device buffers for the simulator, a
/// thread pool and wall clock for native runs). The interpreter guarantees
/// the call order of a compiled plan: upload edges precede the device band
/// they feed, download edges follow it, and a sync closes every segment
/// that used the device.
pub trait Backend<T: Element, A: BfAlgorithm<T>> {
    /// Executes `share` of the levels `band.first ..= band.last`.
    fn run_level_band(
        &mut self,
        algo: &A,
        band: &LevelBand,
        share: &Share,
    ) -> Result<BandStats, CoreError>;

    /// Performs one transfer edge of the plan.
    fn transfer(&mut self, algo: &A, edge: &Transfer) -> Result<(), CoreError>;

    /// Joins the substrate's timelines (barrier).
    fn sync(&mut self);

    /// Current time on the substrate's global clock.
    fn now(&self) -> f64;

    /// Current time on the CPU timeline.
    fn cpu_clock(&self) -> f64;

    /// Current time on the GPU timeline.
    fn gpu_clock(&self) -> f64;

    /// The per-level metrics book spans are recorded into.
    fn recorder(&mut self) -> &mut LevelBook;

    /// Charges `dur` idle time on the substrate's timelines — the recovery
    /// loop's backoff between retries of a faulted segment. Simulated
    /// backends advance their virtual clocks; wall-clock backends sleep.
    fn wait(&mut self, dur: f64);

    /// Records a recovery annotation span (retry, degradation) on the
    /// substrate's trace, if it keeps one. Default: dropped.
    fn note_recovery(&mut self, _start: f64, _end: f64, _kind: EventKind) {}

    /// The live metrics registry the interpreter samples per-segment
    /// timings into, when the caller attached one. Default: none — all
    /// sampling is skipped.
    fn metrics(&self) -> Option<&MetricsRegistry> {
        None
    }

    /// Cumulative `(kernel launches, launch-overhead time)` on the
    /// substrate's device, so the interpreter can attribute per-segment
    /// deltas. Default: zeros (substrates without a device model).
    fn launch_totals(&self) -> (u64, f64) {
        (0, 0.0)
    }
}

/// Aggregated outcome of interpreting a plan.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct InterpretStats {
    /// Memory accesses the device served coalesced.
    pub coalesced: u64,
    /// Memory accesses the device served uncoalesced.
    pub uncoalesced: u64,
    /// Durations of a split segment's concurrent phase on each unit
    /// (CPU, GPU including the transfer back), when the plan had one.
    pub concurrent: Option<(f64, f64)>,
}

/// Retry/backoff parameters for [`interpret`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Maximum retries per segment before the fault is surfaced.
    pub max_retries: u32,
    /// Backoff charged before the first retry, in cost units.
    pub backoff_base: f64,
    /// Multiplier applied to the backoff per further retry.
    pub backoff_factor: f64,
    /// Ceiling on any single backoff: `base * factor^k` grows
    /// geometrically, so without a cap a policy tuned for a few retries
    /// sleeps essentially forever once `k` climbs (on the native path the
    /// backoff is a real `thread::sleep`). `f64::INFINITY` disables the
    /// cap.
    pub max_backoff: f64,
}

impl RecoveryPolicy {
    /// No retries: the first fault of any kind surfaces.
    pub const NO_RETRY: RecoveryPolicy = RecoveryPolicy {
        max_retries: 0,
        backoff_base: 0.0,
        backoff_factor: 1.0,
        max_backoff: 0.0,
    };

    /// The backoff charged before retry number `attempt` (0-based),
    /// clamped to [`RecoveryPolicy::max_backoff`].
    ///
    /// `powi` overflows to ∞ for large attempt counts; the clamp keeps
    /// the result finite whenever `max_backoff` is, so callers can
    /// convert to sleep durations without guarding.
    pub fn backoff_at(&self, attempt: u32) -> f64 {
        let raw = self.backoff_base * self.backoff_factor.powi(attempt as i32);
        raw.min(self.max_backoff)
    }
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_retries: 3,
            backoff_base: 16.0,
            backoff_factor: 2.0,
            max_backoff: 1.0e6,
        }
    }
}

/// What the recovery loop observed while interpreting a plan.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RecoveryStats {
    /// Machine faults hit (transient and terminal).
    pub faults: u32,
    /// Segment retries performed.
    pub retries: u32,
    /// Total backoff idle time charged.
    pub backoff_time: f64,
}

/// Runs a compiled `plan` for `algo` on `backend`, retrying faulted
/// segments under `policy`.
///
/// Segments execute bottom-up in plan order. For each segment the
/// interpreter issues the segment's upload edges, the level band (both
/// shares of a split, device side first — the shares overlap on the
/// simulator's independent virtual timelines), the download edges, and a
/// closing sync for segments that touched the device.
///
/// A segment that fails with a *transient* machine fault (a dropped kernel
/// launch or a bus error) is retried whole after an exponential backoff —
/// safe because every injected fault fires before any host data mutates, so
/// re-issuing the segment's upload edges restores device state from the
/// unmodified host buffer. Non-transient errors (device loss, algorithmic
/// errors) surface immediately, as does every fault under
/// [`RecoveryPolicy::NO_RETRY`]. Returns the recovery tallies alongside the
/// result so callers can report retry counts even for failed runs.
///
/// Level metrics booked by failed attempts are kept: they reflect work the
/// machine really executed (and paid for) before the fault.
pub fn interpret<T: Element, A: BfAlgorithm<T>, B: Backend<T, A>>(
    plan: &Plan,
    algo: &A,
    backend: &mut B,
    policy: &RecoveryPolicy,
) -> (Result<InterpretStats, CoreError>, RecoveryStats) {
    let mut stats = InterpretStats::default();
    let mut rstats = RecoveryStats::default();
    for (idx, seg) in plan.segments.iter().enumerate() {
        let mut attempt: u32 = 0;
        loop {
            match run_segment(plan, idx, seg, algo, backend, &mut stats) {
                Ok(()) => break,
                Err(CoreError::Machine(e)) if e.is_transient() && attempt < policy.max_retries => {
                    rstats.faults += 1;
                    let backoff = policy.backoff_at(attempt);
                    let t0 = backend.now();
                    backend.wait(backoff);
                    attempt += 1;
                    rstats.retries += 1;
                    rstats.backoff_time += backoff;
                    backend.note_recovery(t0, backend.now(), EventKind::Retry { attempt, backoff });
                }
                Err(e) => {
                    if matches!(e, CoreError::Machine(_)) {
                        rstats.faults += 1;
                    }
                    backend.recorder().set_segment(None);
                    return (Err(e), rstats);
                }
            }
        }
    }
    backend.recorder().set_segment(None);
    (Ok(stats), rstats)
}

/// Executes one segment of the plan: uploads, the level band (both shares
/// of a split), downloads, and the closing sync for device segments.
fn run_segment<T: Element, A: BfAlgorithm<T>, B: Backend<T, A>>(
    plan: &Plan,
    idx: usize,
    seg: &Segment,
    algo: &A,
    backend: &mut B,
    stats: &mut InterpretStats,
) -> Result<(), CoreError> {
    backend.recorder().set_segment(Some(idx as u32));
    let band = LevelBand {
        first: seg.first_level,
        last: seg.last_level,
        is_root: seg.last_level == plan.exec_levels,
    };
    let uploads = seg
        .transfers
        .iter()
        .filter(|t| t.direction == Direction::ToGpu);
    let downloads = seg
        .transfers
        .iter()
        .filter(|t| t.direction == Direction::ToCpu);
    // Per-segment attribution for the live registry: everything is a
    // delta between clock (or launch-counter) reads around the backend
    // calls, so an unattached registry costs two no-op calls.
    let seg_t0 = backend.now();
    let (launches0, launch_time0) = backend.launch_totals();
    match &seg.placement {
        Placement::Cpu { cores } => {
            let t0 = backend.cpu_clock();
            backend.run_level_band(algo, &band, &Share::Cpu { cores: *cores })?;
            let dt = backend.cpu_clock() - t0;
            if let Some(m) = backend.metrics() {
                m.observe("interpret.cpu_band_time", dt);
            }
        }
        Placement::Gpu => {
            let t0 = backend.now();
            for t in uploads {
                backend.transfer(algo, t)?;
            }
            let up = backend.now() - t0;
            let k0 = backend.gpu_clock();
            let st = backend.run_level_band(algo, &band, &Share::Gpu)?;
            let kernel = backend.gpu_clock() - k0;
            stats.coalesced += st.coalesced;
            stats.uncoalesced += st.uncoalesced;
            let t1 = backend.now();
            for t in downloads {
                backend.transfer(algo, t)?;
            }
            let down = backend.now() - t1;
            backend.sync();
            if let Some(m) = backend.metrics() {
                m.observe("interpret.transfer_time", up + down);
                m.observe("interpret.kernel_time", kernel);
            }
        }
        Placement::Split {
            cpu_tasks, tasks, ..
        } => {
            let t0 = backend.now();
            for t in uploads {
                backend.transfer(algo, t)?;
            }
            let up = backend.now() - t0;
            // The concurrent phase starts once both units hold their
            // shares; the device's share ends with its transfer back.
            let t_fork = backend.now();
            let st = backend.run_level_band(algo, &band, &Share::Gpu)?;
            stats.coalesced += st.coalesced;
            stats.uncoalesced += st.uncoalesced;
            for t in downloads {
                backend.transfer(algo, t)?;
            }
            let gpu_phase = backend.gpu_clock() - t_fork;
            backend.run_level_band(
                algo,
                &band,
                &Share::SplitCpu {
                    cpu_tasks: *cpu_tasks,
                    tasks: *tasks,
                    cores: cpu_cores_of(plan),
                },
            )?;
            let cpu_phase = backend.cpu_clock() - t_fork;
            backend.sync();
            stats.concurrent = Some((cpu_phase, gpu_phase));
            if let Some(m) = backend.metrics() {
                m.observe("interpret.transfer_time", up);
                m.observe("interpret.kernel_time", gpu_phase);
                m.observe("interpret.cpu_band_time", cpu_phase);
            }
        }
    }
    let seg_dt = backend.now() - seg_t0;
    let (launches1, launch_time1) = backend.launch_totals();
    if let Some(m) = backend.metrics() {
        m.observe("interpret.segment_time", seg_dt);
        m.inc("interpret.segments", 1);
        let dl = launches1.saturating_sub(launches0);
        if dl > 0 {
            m.inc("interpret.gpu_launches", dl);
            m.observe("interpret.launch_overhead", launch_time1 - launch_time0);
        }
    }
    Ok(())
}

/// The CPU core count a plan's host segments use (the split's CPU share
/// runs on the same cores as the cleanup band above it).
fn cpu_cores_of(plan: &Plan) -> usize {
    plan.segments
        .iter()
        .find_map(|s| match s.placement {
            Placement::Cpu { cores } => Some(cores),
            _ => None,
        })
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::RecoveryPolicy;

    #[test]
    fn backoff_sequence_is_geometric_then_clamped() {
        let policy = RecoveryPolicy {
            max_retries: 8,
            backoff_base: 50.0,
            backoff_factor: 2.0,
            max_backoff: 500.0,
        };
        let delays: Vec<f64> = (0..8).map(|k| policy.backoff_at(k)).collect();
        // Regression: the unclamped formula gave 50, 100, 200, 400, 800,
        // 1600, 3200, 6400 — everything past the cap now pins at 500.
        assert_eq!(
            delays,
            vec![50.0, 100.0, 200.0, 400.0, 500.0, 500.0, 500.0, 500.0]
        );
    }

    #[test]
    fn backoff_stays_finite_even_when_powi_overflows() {
        let policy = RecoveryPolicy {
            max_retries: u32::MAX,
            backoff_base: 1.0e300,
            backoff_factor: 10.0,
            ..RecoveryPolicy::default()
        };
        let d = policy.backoff_at(400);
        assert!(d.is_finite(), "clamp must tame the overflowed product");
        assert_eq!(d, policy.max_backoff);
    }

    #[test]
    fn default_cap_leaves_the_default_sequence_alone() {
        let policy = RecoveryPolicy::default();
        for k in 0..=policy.max_retries {
            assert_eq!(
                policy.backoff_at(k),
                policy.backoff_base * policy.backoff_factor.powi(k as i32)
            );
        }
    }
}
