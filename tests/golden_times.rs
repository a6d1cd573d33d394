//! Golden virtual-time regressions: exact accounting for tiny runs,
//! derived by hand from the cost model. These pin the simulator's
//! semantics — any change to wave scheduling, coalescing charges, LLC
//! factors or transfer costs shows up here first.

use hpu::prelude::*;
use hpu_machine::{BusConfig, CpuConfig, GpuConfig};

/// A machine with friendly round numbers: 2 cores, 4 lanes, γ⁻¹ = 10,
/// U = 2, free bus, no cache effects, no launch overhead.
fn round_machine() -> MachineConfig {
    MachineConfig {
        cpu: CpuConfig::uniform(2),
        gpu: GpuConfig {
            lanes: 4,
            gamma_inv: 10.0,
            uncoalesced_penalty: 2.0,
            global_mem_bytes: 1 << 20,
            launch_overhead: 0.0,
            strict: false,
        },
        bus: BusConfig {
            lambda: 100.0,
            delta: 1.0,
        },
    }
}

#[test]
fn sequential_sum_time_is_exact() {
    // DcSum on n = 8, 1 core:
    //   base level: 8 leaves × 1 op             = 8
    //   3 combine levels: (4 + 2 + 1) × (1 op + 3 mem = 4) = 28
    //   odd level count → parity copy back: 16 mem = 16
    //   total                                    = 52
    let mut data: Vec<u64> = (1..=8).collect();
    let mut hpu = SimHpu::new(round_machine());
    let report = run_sim(&DcSum, &mut data, &mut hpu, &ScheduleSpec::Sequential).unwrap();
    assert_eq!(report.virtual_time, 52.0);
    assert_eq!(data[0], 36); // and the sum itself
}

#[test]
fn cpu_parallel_sum_time_is_exact() {
    // Same work on 2 cores, rounds of 2:
    //   base: ceil(8/2) = 4 rounds × 1          = 4
    //   combines: (2 + 1 + 1) rounds × 4        = 16
    //   parity copy in 2 chunks of 4 → 1 round × 8 mem = 8
    //   total                                    = 28
    let mut data: Vec<u64> = (1..=8).collect();
    let mut hpu = SimHpu::new(round_machine());
    let report = run_sim(&DcSum, &mut data, &mut hpu, &ScheduleSpec::CpuParallel).unwrap();
    assert_eq!(report.virtual_time, 28.0);
}

#[test]
fn gpu_only_sum_time_is_exact() {
    // n = 8 on the device (4 lanes, γ⁻¹ = 10), DcSum's custom kernel
    // declares 3 single-element unit-stride streams per item.
    //   upload:  λ + δ·8 = 108
    //   base: 8 items × 1 op → 2 waves × 1 × 10            = 20
    //   level tasks=4 (chunk 2): bases stride 2 → uncoalesced ×2:
    //     1 wave × (1 + 3·2) × 10                           = 70
    //   level tasks=2 (chunk 4): 1 wave × (1 + 3·2) × 10    = 70
    //   level tasks=1 (chunk 8): single-item wave coalesces:
    //     1 wave × (1 + 3·1) × 10                           = 40
    //   download: λ + δ·8                                   = 108
    //   total                                               = 416
    let mut data: Vec<u64> = (1..=8).collect();
    let mut hpu = SimHpu::new(round_machine());
    let report = run_sim(&DcSum, &mut data, &mut hpu, &ScheduleSpec::GpuOnly).unwrap();
    assert_eq!(report.virtual_time, 416.0);
    assert_eq!(report.transfers, 2);
    assert_eq!(report.words, 16);
}

#[test]
fn advanced_sum_phases_are_exact() {
    // n = 16, α = 0.5, y = 1: split 8 | 8 at level 1.
    //   upload 8 words: 108 (blocks both clocks)
    //   CPU region (8 elems, 2 cores, to chunk 8):
    //     base 4 rounds + combines (2+1+1) rounds × 4 = 4 + 16 = 20,
    //     plus the odd-parity copy (1 round × 16 mem)  = 36
    //   GPU region (8 elems): levels as in the GPU-only golden test
    //     minus its download: 20 + 70 + 70 + 40 = 200; download 108.
    //   fork: CPU busy 36, GPU busy 200 + 108 = 308 → join at 308.
    //   cleanup (chunk 16, 1 task): 4 on CPU, plus its own parity copy
    //   (one combine level → result in scratch): 2 tasks × 16 mem on 2
    //   cores = 16.
    //   total = 108 + 308 + 4 + 16 = 436.
    let mut data: Vec<u64> = (1..=16).collect();
    let mut hpu = SimHpu::new(round_machine());
    let report = run_sim(
        &DcSum,
        &mut data,
        &mut hpu,
        &ScheduleSpec::Advanced {
            alpha: 0.5,
            transfer_level: 1,
        },
    )
    .unwrap();
    assert_eq!(report.virtual_time, 436.0);
    let (cpu_phase, gpu_phase) = report.concurrent.unwrap();
    assert_eq!(cpu_phase, 36.0);
    assert_eq!(gpu_phase, 308.0);
    assert_eq!(data[0], 136);
}

#[test]
fn llc_pressure_is_charged_exactly() {
    // 1 core, LLC of 64 bytes, penalty 3: a DcSum of n = 8 u64 elements
    // declares a footprint of 2·8·8 = 128 bytes = 2× LLC → factor 3.
    //   base: 8 × 1 op (ops unaffected)      = 8
    //   combines: 7 × (1 op + 3 mem × 3)     = 70
    //   parity copy: 16 mem × 3              = 48
    //   total                                 = 126
    let mut cfg = round_machine();
    cfg.cpu = CpuConfig {
        cores: 1,
        llc_bytes: 64,
        llc_miss_penalty: 3.0,
        bw_contention: 0.5, // single core: never charged
    };
    let mut data: Vec<u64> = (1..=8).collect();
    let mut hpu = SimHpu::new(cfg);
    let report = run_sim(&DcSum, &mut data, &mut hpu, &ScheduleSpec::Sequential).unwrap();
    assert_eq!(report.virtual_time, 126.0);
}

#[test]
fn launch_overhead_is_charged_once_per_launch() {
    let mut cfg = round_machine();
    cfg.gpu.launch_overhead = 1000.0;
    cfg.bus = BusConfig {
        lambda: 0.0,
        delta: 0.0,
    };
    // GPU-only DcSum on n = 8: 4 launches (base + 3 combine levels)
    // → 416 − 2·108 (bus now free) + 4·1000 = 4200.
    let mut data: Vec<u64> = (1..=8).collect();
    let mut hpu = SimHpu::new(cfg);
    let report = run_sim(&DcSum, &mut data, &mut hpu, &ScheduleSpec::GpuOnly).unwrap();
    assert_eq!(report.virtual_time, 4200.0);
}
