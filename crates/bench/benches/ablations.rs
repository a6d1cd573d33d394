//! Benches for the design-choice ablations called out in DESIGN.md: the
//! §6.3 coalescing optimization, the schedule family, the §7 sequential
//! leaf cutoff, and breadth-first vs recursive execution.

use std::hint::black_box;

use hpu_algos::mergesort::{sort_recursive, MergeSort};
use hpu_bench::experiments as exp;
use hpu_bench::timing::bench;
use hpu_bench::uniform_input;
use hpu_core::exec::run_sim;
use hpu_machine::{MachineConfig, SimHpu};
use hpu_model::ScheduleSpec;

const N: usize = 1 << 12;

fn main() {
    let iters = 10;
    bench("ablation_coalescing", iters, || exp::ablation_coalescing(N));
    bench("ablation_schedule", iters, || exp::ablation_schedule(N));
    for cutoff in [1usize, 8, 64] {
        let algo = MergeSort::new().with_leaf_cutoff(cutoff);
        bench(&format!("ablation_leaf_cutoff/{cutoff}"), iters, || {
            let mut data = uniform_input(N, 42);
            let mut hpu = SimHpu::new(MachineConfig::hpu1_sim());
            run_sim(&algo, &mut data, &mut hpu, &ScheduleSpec::CpuParallel).unwrap();
            data
        });
    }
    bench("ablation_bf_vs_recursive/recursive_host", iters, || {
        let mut data = uniform_input(N, 42);
        black_box(sort_recursive(&mut data));
        data
    });
    bench(
        "ablation_bf_vs_recursive/breadth_first_sim_1core",
        iters,
        || {
            let mut data = uniform_input(N, 42);
            let mut hpu = SimHpu::new(MachineConfig::hpu1_sim());
            run_sim(
                &MergeSort::new(),
                &mut data,
                &mut hpu,
                &ScheduleSpec::Sequential,
            )
            .unwrap();
            data
        },
    );
}
