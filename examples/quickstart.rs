//! Quickstart: sort on a simulated hybrid machine under every
//! [`ScheduleSpec`] and compare their virtual times. Each schedule compiles
//! to one execution plan that the one generic interpreter runs.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use hpu::prelude::*;

fn main() {
    let n = 1 << 16;
    println!("mergesort of {n} uniform keys on the simulated HPU1\n");

    // The paper's workload: keys uniform in [0, 2n).
    let input: Vec<u32> = {
        let mut state = 0x243F6A8885A308D3u64;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) % (2 * n as u64)) as u32
            })
            .collect()
    };

    let algo = MergeSort::new();
    let rec = BfAlgorithm::<u32>::recurrence(&algo);
    let cfg = MachineConfig::hpu1_sim();
    let advanced = auto_advanced(&cfg, &rec, n as u64).expect("power-of-two size");
    println!("model-tuned advanced schedule: {advanced:?}\n");

    let schedules = [
        ("sequential (1 core)", ScheduleSpec::Sequential),
        ("CPU-parallel (4 cores)", ScheduleSpec::CpuParallel),
        ("GPU-only", ScheduleSpec::GpuOnly),
        ("basic hybrid", ScheduleSpec::Basic { crossover: None }),
        ("advanced hybrid", advanced),
    ];

    let mut base = None;
    println!(
        "{:<22} {:>16} {:>9} {:>10} {:>9}",
        "schedule", "virtual time", "speedup", "transfers", "words"
    );
    for (name, spec) in schedules {
        let mut data = input.clone();
        let mut hpu = SimHpu::new(cfg.clone());
        let report = run_sim(&algo, &mut data, &mut hpu, &spec).expect("run succeeds");
        assert!(
            data.windows(2).all(|w| w[0] <= w[1]),
            "output must be sorted"
        );
        let base_time = *base.get_or_insert(report.virtual_time);
        println!(
            "{:<22} {:>16.0} {:>8.2}x {:>10} {:>9}",
            name,
            report.virtual_time,
            base_time / report.virtual_time,
            report.transfers,
            report.words
        );
    }

    println!("\nThe advanced hybrid splits the tree between both units and");
    println!("moves data across the bus exactly twice (paper §5.2).");
}
