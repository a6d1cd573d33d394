//! Integration tests of every execution strategy on a toy mergesort,
//! independent of the algorithm library.

use hpu_core::charge::Charge;
use hpu_core::exec::{run_native, run_sim};
use hpu_core::pool::LevelPool;
use hpu_core::tune::{auto_advanced, grid_search_sim};
use hpu_core::{BfAlgorithm, CoreError};
use hpu_machine::{CpuConfig, GpuConfig, MachineConfig, SimHpu};
use hpu_model::{CostFn, ModelError, Recurrence, ScheduleSpec};

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
        let mut compares = 0u64;
        for slot in dst.iter_mut() {
            let take_a = if i < a.len() && j < b.len() {
                compares += 1;
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
        charge.ops(compares);
        charge.mem(2 * dst.len() as u64);
    }

    fn recurrence(&self) -> Recurrence {
        Recurrence::new(2, 2, CostFn::Linear(3.0), 1.0).unwrap()
    }
}

/// A mid-size test machine: strong enough GPU that hybrids win.
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

fn input(n: usize) -> Vec<u32> {
    // Deterministic pseudo-random permutation-ish data.
    (0..n as u32)
        .map(|i| i.wrapping_mul(2654435761) ^ 0xBEEF)
        .collect()
}

fn sorted_copy(v: &[u32]) -> Vec<u32> {
    let mut s = v.to_vec();
    s.sort_unstable();
    s
}

fn run(strategy: &ScheduleSpec, n: usize) -> (Vec<u32>, hpu_core::RunReport) {
    let mut data = input(n);
    let expect = sorted_copy(&data);
    let mut hpu = SimHpu::new(test_machine());
    let report = run_sim(&ToySort, &mut data, &mut hpu, strategy).expect("run succeeds");
    assert_eq!(data, expect, "strategy {strategy:?} must sort correctly");
    (data, report)
}

#[test]
fn every_strategy_sorts_correctly() {
    let n = 1 << 10;
    for strategy in [
        ScheduleSpec::Sequential,
        ScheduleSpec::CpuParallel,
        ScheduleSpec::GpuOnly,
        ScheduleSpec::Basic { crossover: None },
        ScheduleSpec::Basic { crossover: Some(3) },
        ScheduleSpec::Advanced {
            alpha: 0.25,
            transfer_level: 4,
        },
    ] {
        run(&strategy, n);
    }
}

#[test]
fn cpu_only_beats_sequential_by_about_p() {
    let n = 1 << 12;
    let (_, seq) = run(&ScheduleSpec::Sequential, n);
    let (_, par) = run(&ScheduleSpec::CpuParallel, n);
    let speedup = seq.virtual_time / par.virtual_time;
    // 4 cores, serial top levels: between 2x and 4x.
    assert!(
        speedup > 2.0 && speedup <= 4.01,
        "CPU speedup {speedup} out of range"
    );
}

#[test]
fn hybrid_transfers_exactly_twice() {
    let n = 1 << 10;
    let (_, basic) = run(&ScheduleSpec::Basic { crossover: Some(3) }, n);
    assert_eq!(basic.transfers, 2, "basic: one round trip");
    let (_, adv) = run(
        &ScheduleSpec::Advanced {
            alpha: 0.25,
            transfer_level: 4,
        },
        n,
    );
    assert_eq!(adv.transfers, 2, "advanced: exactly two transfers");
    // The advanced schedule only ships the GPU share, not the whole input.
    assert!(adv.words < basic.words);
}

#[test]
fn advanced_beats_cpu_only_at_scale() {
    let n = 1 << 14;
    let (_, cpu) = run(&ScheduleSpec::CpuParallel, n);
    let cfg = test_machine();
    let strategy = auto_advanced(&cfg, &ToySort.recurrence(), n as u64).unwrap();
    let (_, adv) = run(&strategy, n);
    assert!(
        adv.virtual_time < cpu.virtual_time,
        "advanced {} should beat CPU-only {}",
        adv.virtual_time,
        cpu.virtual_time
    );
}

#[test]
fn basic_beats_gpu_only_and_sequential() {
    let n = 1 << 12;
    let (_, seq) = run(&ScheduleSpec::Sequential, n);
    let (_, gpu) = run(&ScheduleSpec::GpuOnly, n);
    let (_, basic) = run(&ScheduleSpec::Basic { crossover: None }, n);
    assert!(basic.virtual_time < seq.virtual_time);
    assert!(
        basic.virtual_time < gpu.virtual_time,
        "basic {} vs gpu-only {}: the GPU pays dearly for serial top levels",
        basic.virtual_time,
        gpu.virtual_time
    );
}

#[test]
fn invalid_parameters_are_rejected() {
    let mut data = input(1 << 8);
    let mut hpu = SimHpu::new(test_machine());
    // Transfer level outside the tree.
    let err = run_sim(
        &ToySort,
        &mut data,
        &mut hpu,
        &ScheduleSpec::Advanced {
            alpha: 0.5,
            transfer_level: 99,
        },
    )
    .unwrap_err();
    assert!(matches!(err, CoreError::InvalidLevel { .. }));
    // Level 0 cannot split.
    let err = run_sim(
        &ToySort,
        &mut data,
        &mut hpu,
        &ScheduleSpec::Advanced {
            alpha: 0.5,
            transfer_level: 0,
        },
    )
    .unwrap_err();
    assert!(matches!(err, CoreError::InvalidLevel { .. }));
    // Invalid alpha.
    let err = run_sim(
        &ToySort,
        &mut data,
        &mut hpu,
        &ScheduleSpec::Advanced {
            alpha: f64::NAN,
            transfer_level: 4,
        },
    )
    .unwrap_err();
    assert!(matches!(err, CoreError::InvalidAlpha { .. }));
}

#[test]
fn non_power_of_two_input_is_rejected() {
    let mut data = input(1000);
    let mut hpu = SimHpu::new(test_machine());
    let err = run_sim(&ToySort, &mut data, &mut hpu, &ScheduleSpec::Sequential).unwrap_err();
    assert!(matches!(err, CoreError::InvalidSize { .. }));
    let mut empty: Vec<u32> = vec![];
    let err = run_sim(&ToySort, &mut empty, &mut hpu, &ScheduleSpec::Sequential).unwrap_err();
    assert!(matches!(err, CoreError::EmptyInput));
}

#[test]
fn native_executor_sorts() {
    let pool = LevelPool::new(2);
    for n in [1usize, 2, 64, 1 << 12] {
        let mut data = input(n);
        let expect = sorted_copy(&data);
        run_native(&ToySort, &mut data, &pool).unwrap();
        assert_eq!(data, expect, "n = {n}");
    }
}

#[test]
fn grid_search_finds_minimum_of_its_samples() {
    let cfg = test_machine();
    let result = grid_search_sim(&ToySort, &cfg, &[0.1, 0.25, 0.5], &[3, 5], || {
        input(1 << 10)
    })
    .unwrap();
    assert_eq!(result.samples.len(), 6);
    let min = result
        .samples
        .iter()
        .map(|&(_, _, t)| t)
        .fold(f64::INFINITY, f64::min);
    assert_eq!(result.best_time, min);
}

#[test]
fn trivial_input_sizes_work() {
    // n = 1: no combine levels at all.
    run(&ScheduleSpec::Sequential, 1);
    run(&ScheduleSpec::CpuParallel, 1);
    run(&ScheduleSpec::GpuOnly, 1);
    // n = 2: a single combine level.
    run(&ScheduleSpec::Sequential, 2);
    run(&ScheduleSpec::GpuOnly, 2);
    run(
        &ScheduleSpec::Advanced {
            alpha: 0.5,
            transfer_level: 1,
        },
        2,
    );
}

#[test]
fn unoptimized_and_partially_optimized_plans_execute_identically() {
    // The interpreter must handle every optimization stage of the pass
    // pipeline: the naive one-segment-per-level IR (each device level with
    // its own round trip), the elided form (device state kept live across
    // segment boundaries), and the fully fused plans the compiler emits.
    use hpu_machine::SimMachineParams;
    use hpu_model::{compile_unoptimized, default_passes, MachineParams};

    let n = 1 << 10;
    let rec = ToySort.recurrence();
    for spec in [
        ScheduleSpec::Sequential,
        ScheduleSpec::CpuParallel,
        ScheduleSpec::GpuOnly,
        ScheduleSpec::Basic { crossover: Some(3) },
        ScheduleSpec::Advanced {
            alpha: 0.25,
            transfer_level: 4,
        },
    ] {
        let mut hpu = SimHpu::new(test_machine());
        let params = MachineParams::from_sim(&hpu);
        let unopt = compile_unoptimized(&spec, &params, &rec, n as u64, 10).unwrap();
        // Execute the plan at every optimization stage: 0 passes (naive),
        // 1 (pruned), 2 (elided, unfused), 3 (fully optimized).
        let mut stages = vec![unopt.clone()];
        let mut plan = unopt;
        for pass in default_passes() {
            plan = pass.run(plan);
            stages.push(plan.clone());
        }
        let expect = sorted_copy(&input(n));
        for (i, stage) in stages.iter().enumerate() {
            let mut data = input(n);
            let opts = hpu_core::RunOpts::default();
            hpu_core::run_sim_plan(&ToySort, &mut data, &mut hpu, stage, &opts)
                .0
                .unwrap_or_else(|e| panic!("{spec:?} stage {i}: {e:?}"));
            assert_eq!(data, expect, "{spec:?} at optimization stage {i}");
        }
    }
}

#[test]
fn weak_gpu_machine_degrades_basic_to_cpu() {
    // γ·g = 2·(1/8) ... lanes=2, gamma_inv=8 -> γg = 0.25 < p = 4.
    let cfg = MachineConfig {
        gpu: GpuConfig {
            lanes: 2,
            gamma_inv: 8.0,
            uncoalesced_penalty: 1.0,
            global_mem_bytes: 1 << 20,
            launch_overhead: 0.0,
            strict: false,
        },
        ..test_machine()
    };
    let mut data = input(1 << 8);
    let expect = sorted_copy(&data);
    let mut hpu = SimHpu::new(cfg);
    let report = run_sim(
        &ToySort,
        &mut data,
        &mut hpu,
        &ScheduleSpec::Basic { crossover: None },
    )
    .unwrap();
    assert_eq!(data, expect);
    assert_eq!(report.transfers, 0, "no GPU use on a weak device");
    assert_eq!(report.resolved, ScheduleSpec::CpuParallel);
}

#[test]
fn resume_from_checkpoint_skips_completed_levels_and_stays_correct() {
    use hpu_core::{run_sim_plan, Checkpoint, RunOpts};
    use hpu_machine::SimMachineParams;
    use hpu_model::{compile, MachineParams};

    let n = 1 << 10;
    let params = MachineParams::from_sim(&SimHpu::new(test_machine()));
    let plan = compile(
        &ScheduleSpec::Basic { crossover: Some(4) },
        &params,
        &ToySort.recurrence(),
        n as u64,
        10,
    )
    .unwrap();
    let expect = sorted_copy(&input(n));
    // Runs the plan on a fresh machine, resuming from `level` if given.
    let run = |level: Option<u32>| {
        let opts = RunOpts {
            resume: level.map(|level| Checkpoint {
                level,
                resident_words: n as u64,
                generation: 0,
            }),
            ..RunOpts::default()
        };
        let mut data = input(n);
        let mut hpu = SimHpu::new(test_machine());
        let report = run_sim_plan(&ToySort, &mut data, &mut hpu, &plan, &opts).0;
        (data, report)
    };

    let (data, full) = run(None);
    let full = full.unwrap();
    assert_eq!(data, expect);

    // Resuming from level 0 restores nothing and runs the whole plan.
    let (data0, from0) = run(Some(0));
    assert_eq!(data0, expect);
    assert!((from0.unwrap().virtual_time - full.virtual_time).abs() < 1e-9);

    // Resuming from a mid-plan cut is still correct and strictly cheaper:
    // the restored prefix charges no virtual time.
    for level in [3u32, 6, 9] {
        let (data2, resumed) = run(Some(level));
        let resumed = resumed.unwrap();
        assert_eq!(data2, expect, "resume from level {level}");
        assert!(
            resumed.virtual_time < full.virtual_time,
            "resume from level {level} must beat the full run ({} vs {})",
            resumed.virtual_time,
            full.virtual_time
        );
    }

    // A checkpoint past the plan's levels is rejected before any work.
    assert!(run(Some(11)).1.is_err());
}

/// Regression: compile errors other than bad `α` or level used to surface
/// as `EmptyInput` even for a non-empty input.
#[test]
fn advanced_auto_on_one_element_reports_the_model_error() {
    let too_small = CoreError::Model(ModelError::ProblemTooSmall { n: 1, min: 2 });
    let cfg = MachineConfig::hpu1_sim();
    assert_eq!(
        auto_advanced(&cfg, &Recurrence::mergesort(), 1),
        Err(too_small.clone())
    );
    let mut data = input(1);
    let mut hpu = SimHpu::new(test_machine());
    let err = run_sim(&ToySort, &mut data, &mut hpu, &ScheduleSpec::AdvancedAuto).unwrap_err();
    assert_eq!(err, too_small);
}
