//! Invariants every [`RunReport`] must satisfy, across all five
//! strategies: makespan bounds, the schedules' transfer-count guarantees
//! (checked on the *structured* timeline events, not just the bus
//! counters), and the per-level metrics / drift report populated by the
//! observability layer.

use hpu_core::charge::Charge;
use hpu_core::exec::run_sim;
use hpu_core::{BfAlgorithm, RunReport};
use hpu_machine::{CpuConfig, EventKind, GpuConfig, MachineConfig, SimHpu, Unit};
use hpu_model::{CostFn, Recurrence, ScheduleSpec};
use hpu_obs::Track;

/// Minimal 2-way mergesort in breadth-first form.
struct ToySort;

impl BfAlgorithm<u32> for ToySort {
    fn name(&self) -> &'static str {
        "toysort"
    }

    fn base_case(&self, _chunk: &mut [u32], charge: &mut dyn Charge) {
        charge.ops(1);
    }

    fn combine(&self, src: &[u32], dst: &mut [u32], charge: &mut dyn Charge) {
        let half = src.len() / 2;
        let (a, b) = src.split_at(half);
        let (mut i, mut j) = (0, 0);
        for slot in dst.iter_mut() {
            let take_a = if i < a.len() && j < b.len() {
                a[i] <= b[j]
            } else {
                i < a.len()
            };
            *slot = if take_a {
                let v = a[i];
                i += 1;
                v
            } else {
                let v = b[j];
                j += 1;
                v
            };
        }
        charge.ops(dst.len() as u64);
        charge.mem(2 * dst.len() as u64);
    }

    fn recurrence(&self) -> Recurrence {
        Recurrence::new(2, 2, CostFn::Linear(3.0), 1.0).unwrap()
    }
}

fn test_machine() -> MachineConfig {
    MachineConfig {
        cpu: CpuConfig::uniform(4),
        gpu: GpuConfig {
            lanes: 64,
            gamma_inv: 8.0,
            uncoalesced_penalty: 1.0,
            global_mem_bytes: 64 << 20,
            launch_overhead: 0.0,
            strict: false,
        },
        bus: hpu_machine::config::BusConfig {
            lambda: 10.0,
            delta: 0.01,
        },
    }
}

fn strategies() -> Vec<ScheduleSpec> {
    vec![
        ScheduleSpec::Sequential,
        ScheduleSpec::CpuParallel,
        ScheduleSpec::GpuOnly,
        // An explicit crossover: `None` may degrade to CpuParallel and then the
        // transfer guarantees don't apply.
        ScheduleSpec::Basic { crossover: Some(3) },
        ScheduleSpec::Advanced {
            alpha: 0.25,
            transfer_level: 4,
        },
    ]
}

fn run(strategy: &ScheduleSpec, n: usize) -> (RunReport, SimHpu) {
    let mut data: Vec<u32> = (0..n as u32)
        .map(|i| i.wrapping_mul(2654435761) ^ 0xBEEF)
        .collect();
    let mut hpu = SimHpu::new(test_machine());
    let report = run_sim(&ToySort, &mut data, &mut hpu, strategy).expect("run succeeds");
    assert!(data.windows(2).all(|w| w[0] <= w[1]));
    (report, hpu)
}

#[test]
fn makespan_bounds_hold_for_every_strategy() {
    let p = test_machine().cpu.cores as f64;
    for strategy in strategies() {
        let (rep, _) = run(&strategy, 1 << 10);
        // The makespan can't beat perfect CPU parallelism or the GPU's
        // serial fraction.
        assert!(
            rep.virtual_time >= rep.cpu_busy / p - 1e-9,
            "{strategy:?}: {} < {} / {p}",
            rep.virtual_time,
            rep.cpu_busy
        );
        assert!(
            rep.virtual_time >= rep.gpu_busy - 1e-9,
            "{strategy:?}: {} < gpu busy {}",
            rep.virtual_time,
            rep.gpu_busy
        );
        assert!(rep.virtual_time > 0.0, "{strategy:?}");
    }
}

/// §5.1/§5.2: both hybrid schedules move the data across the bus exactly
/// once in each direction — one upload, one download — verified on the
/// typed `Transfer` events.
#[test]
fn hybrid_schedules_do_one_round_trip() {
    for strategy in [
        ScheduleSpec::Basic { crossover: Some(3) },
        ScheduleSpec::Advanced {
            alpha: 0.25,
            transfer_level: 4,
        },
    ] {
        let (rep, hpu) = run(&strategy, 1 << 10);
        assert_eq!(rep.transfers, 2, "{strategy:?}");
        let tl = hpu.timeline();
        let uploads = tl
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Transfer { to_gpu: true, .. }))
            .count();
        let downloads = tl
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Transfer { to_gpu: false, .. }))
            .count();
        assert_eq!((uploads, downloads), (1, 1), "{strategy:?}");
    }
}

#[test]
fn levels_are_populated_and_consistent() {
    for strategy in strategies() {
        let (rep, _) = run(&strategy, 1 << 10);
        assert!(!rep.levels.is_empty(), "{strategy:?}");
        // Bottom-up ordering, base level first with one task per element.
        assert_eq!(rep.levels[0].level, 0, "{strategy:?}");
        assert_eq!(rep.levels[0].chunk, 1, "{strategy:?}");
        assert_eq!(rep.levels[0].tasks, 1 << 10, "{strategy:?}");
        for w in rep.levels.windows(2) {
            assert!(w[0].level < w[1].level, "{strategy:?}");
        }
        // Each level's merged occupancy fits inside the makespan and
        // matches its per-unit parts.
        for l in &rep.levels {
            assert!(l.time <= rep.virtual_time + 1e-9, "{strategy:?} {l:?}");
            assert!(
                l.time <= l.cpu_time + l.gpu_time + l.bus_time + 1e-9,
                "{strategy:?} {l:?}"
            );
            assert!(l.time > 0.0, "{strategy:?} {l:?}");
        }
        // The combine levels halve the task count as the chunk doubles.
        for w in rep.levels.windows(2) {
            if w[1].tasks > 0 && w[0].tasks > 0 && w[0].level > 0 {
                assert_eq!(w[0].tasks, 2 * w[1].tasks, "{strategy:?}");
            }
        }
    }
}

#[test]
fn drift_report_covers_every_level() {
    for strategy in strategies() {
        let (rep, _) = run(&strategy, 1 << 10);
        assert!(!rep.drift.is_empty(), "{strategy:?}");
        // Every executed level has a drift row with both sides populated.
        for l in &rep.levels {
            let row = rep
                .drift
                .iter()
                .find(|d| d.level == l.level)
                .unwrap_or_else(|| panic!("{strategy:?}: no drift row for level {}", l.level));
            assert!(row.predicted > 0.0, "{strategy:?} level {}", l.level);
            assert!(
                (row.simulated - l.time).abs() < 1e-9,
                "{strategy:?} level {}",
                l.level
            );
            assert!(row.rel_err.is_finite(), "{strategy:?} level {}", l.level);
        }
    }
}

#[test]
fn sync_barriers_are_excluded_from_utilization() {
    let (_, hpu) = run(&ScheduleSpec::Basic { crossover: Some(3) }, 1 << 10);
    let tl = hpu.timeline();
    // The basic schedule syncs after the download: the CPU waited, so a
    // Sync span exists and utilization < busy-window.
    assert!(
        tl.events()
            .iter()
            .any(|e| e.unit == Unit::Cpu && e.kind == EventKind::Sync),
        "expected a CPU sync barrier span"
    );
    let util = tl.utilization(Track::Cpu);
    assert!(util > 0.0);
    assert!(util <= tl.makespan() + 1e-9);
}
