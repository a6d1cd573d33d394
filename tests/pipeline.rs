//! End-to-end integration tests spanning all crates: estimate → model →
//! schedule → execute → verify, on multiple algorithms.

use hpu::prelude::*;
use hpu_algos::max_subarray::{max_subarray_reference, to_segments, MaxSubarray};
use hpu_algos::mergesort::{gpu_parallel_mergesort, sort_recursive};
use hpu_algos::scan::{scan_reference, DcScan};
use hpu_model::advanced::AdvancedSolver;

fn keys(n: usize) -> Vec<u32> {
    (0..n as u32)
        .map(|i| i.wrapping_mul(2654435761) ^ 0x9E37)
        .collect()
}

#[test]
fn estimate_model_schedule_execute() {
    let cfg = MachineConfig::hpu1_sim();

    // 1. Estimation recovers the platform parameters.
    let params = estimate_params(&cfg);
    assert_eq!(params.p, 4);
    assert_eq!(params.g, 4096);
    assert!((1.0 / params.gamma - 160.0).abs() < 2.0);

    // 2. The model tunes a schedule from those estimates.
    let n = 1 << 14;
    let algo = MergeSort::new();
    let rec = BfAlgorithm::<u32>::recurrence(&algo);
    let solver = AdvancedSolver::new(&params, &rec, n as u64).unwrap();
    let opt = solver.optimize();
    assert!(opt.alpha > 0.0 && opt.alpha < 1.0);

    // 3. The schedule executes correctly with exactly two transfers.
    let strategy = ScheduleSpec::Advanced {
        alpha: opt.alpha,
        transfer_level: (opt.transfer_level.round() as u32).clamp(1, 14),
    };
    let mut data = keys(n);
    let mut expect = data.clone();
    expect.sort_unstable();
    let mut hpu = SimHpu::new(cfg);
    let report = run_sim(&algo, &mut data, &mut hpu, &strategy).unwrap();
    assert!(data == expect);
    assert_eq!(report.transfers, 2);

    // 4. The concurrent phase used both units.
    let (cpu_phase, gpu_phase) = report.concurrent.expect("advanced run records phases");
    assert!(cpu_phase > 0.0 && gpu_phase > 0.0);
}

#[test]
fn auto_strategy_picks_hybrid_on_strong_gpu_and_cpu_on_weak() {
    let rec = BfAlgorithm::<u32>::recurrence(&MergeSort::new());
    let strong = MachineConfig::hpu1_sim();
    assert!(matches!(
        auto_strategy(&strong, &rec, 1 << 20),
        ScheduleSpec::Advanced { .. }
    ));
    let mut weak = MachineConfig::hpu1_sim();
    weak.gpu.lanes = 8; // γ·g = 0.05 < p
    assert!(matches!(
        auto_strategy(&weak, &rec, 1 << 20),
        ScheduleSpec::CpuParallel
    ));
}

#[test]
fn virtual_times_are_deterministic() {
    let n = 1 << 12;
    let strategy = ScheduleSpec::Advanced {
        alpha: 0.2,
        transfer_level: 6,
    };
    let mut times = Vec::new();
    for _ in 0..3 {
        let mut data = keys(n);
        let mut hpu = SimHpu::new(MachineConfig::hpu2_sim());
        let report = run_sim(&MergeSort::new(), &mut data, &mut hpu, &strategy).unwrap();
        times.push(report.virtual_time);
    }
    assert_eq!(times[0], times[1]);
    assert_eq!(times[1], times[2]);
}

#[test]
fn timeline_is_consistent_with_report() {
    let n = 1 << 10;
    let mut data = keys(n);
    let mut hpu = SimHpu::new(MachineConfig::hpu1_sim());
    let report = run_sim(
        &MergeSort::new(),
        &mut data,
        &mut hpu,
        &ScheduleSpec::Basic { crossover: None },
    )
    .unwrap();
    let tl = hpu.timeline();
    // The makespan of logged events matches the elapsed clock.
    assert!((tl.makespan() - report.virtual_time).abs() < 1e-6);
    // Two bus events for the single round trip.
    let bus_events = tl
        .events()
        .iter()
        .filter(|e| e.unit == hpu::machine::Unit::Bus)
        .count();
    assert_eq!(bus_events, 2);
    // CPU busy core-time never exceeds p × makespan.
    assert!(report.cpu_busy <= 4.0 * tl.makespan() + 1e-6);
}

#[test]
fn multiple_algorithms_share_one_machine() {
    // Runs accumulate on one machine's clocks without interfering with
    // correctness.
    let mut hpu = SimHpu::new(MachineConfig::hpu2_sim());
    let mut data = keys(1 << 10);
    run_sim(
        &MergeSort::new(),
        &mut data,
        &mut hpu,
        &ScheduleSpec::CpuParallel,
    )
    .unwrap();
    let t1 = hpu.elapsed();

    let mut nums: Vec<u64> = (0..1024).map(|i| i * 3 + 1).collect();
    let expect: u64 = nums.iter().sum();
    run_sim(&DcSum, &mut nums, &mut hpu, &ScheduleSpec::GpuOnly).unwrap();
    assert_eq!(nums[0], expect);
    assert!(hpu.elapsed() > t1, "clock advances monotonically");
}

#[test]
fn scan_and_max_subarray_full_pipeline() {
    let cfg = MachineConfig::hpu2_sim();
    // Scan via the tuned strategy.
    let vals: Vec<u64> = (0..1 << 12).map(|i| (i % 91) as u64).collect();
    let expect = scan_reference(&vals);
    let rec = BfAlgorithm::<u64>::recurrence(&DcScan);
    let strategy = auto_advanced(&cfg, &rec, vals.len() as u64).unwrap();
    let mut data = vals.clone();
    let mut hpu = SimHpu::new(cfg.clone());
    run_sim(&DcScan, &mut data, &mut hpu, &strategy).unwrap();
    assert!(data == expect);

    // Max-subarray on the basic schedule.
    let raw: Vec<i64> = (0..1 << 12).map(|i| ((i * 29) % 41) - 20).collect();
    let mut segs = to_segments(&raw);
    let mut hpu = SimHpu::new(cfg);
    run_sim(
        &MaxSubarray,
        &mut segs,
        &mut hpu,
        &ScheduleSpec::Basic { crossover: None },
    )
    .unwrap();
    assert_eq!(segs[0].best, max_subarray_reference(&raw));
}

#[test]
fn gpu_parallel_sort_agrees_with_recursive_reference() {
    let n = 1 << 12;
    let mut reference = keys(n);
    sort_recursive(&mut reference);

    let mut data = keys(n);
    let mut hpu = SimHpu::new(MachineConfig::hpu1_sim());
    let report = gpu_parallel_mergesort(&mut hpu, &mut data).unwrap();
    assert!(data == reference);
    assert!(report.sort_time > 0.0);
    assert_eq!(hpu.bus.transfers(), 2);
}

#[test]
fn native_and_simulated_agree() {
    let n = 1 << 12;
    let pool = LevelPool::new(2);
    let mut native = keys(n);
    run_native(&MergeSort::new(), &mut native, &pool).unwrap();

    let mut sim = keys(n);
    let mut hpu = SimHpu::new(MachineConfig::tiny());
    run_sim(
        &MergeSort::new(),
        &mut sim,
        &mut hpu,
        &ScheduleSpec::CpuParallel,
    )
    .unwrap();
    assert!(native == sim);
}

#[test]
fn run_reports_expose_coalescing_benefit() {
    let n = 1 << 12;
    let run = |algo: MergeSort| {
        let mut data = keys(n);
        let mut hpu = SimHpu::new(MachineConfig::hpu1_sim());
        run_sim(&algo, &mut data, &mut hpu, &ScheduleSpec::GpuOnly).unwrap()
    };
    let co = run(MergeSort::new());
    let ge = run(MergeSort::generic());
    assert!(co.virtual_time < ge.virtual_time);
    assert!(co.coalesced > 0);
    assert_eq!(ge.coalesced, 0);
}
