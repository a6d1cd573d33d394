//! The full paper workflow on one input: estimate the machine parameters
//! (§6.4), solve the advanced work division analytically (§5.2), run the
//! hybrid sort as a [`ScheduleSpec::Advanced`], and show the virtual
//! timeline of what each unit did.
//!
//! ```text
//! cargo run --release --example hybrid_sort [log2_n]
//! ```

use hpu::prelude::*;
use hpu_model::advanced::AdvancedSolver;

fn main() {
    let log_n: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(14);
    let n = 1usize << log_n;
    let cfg = MachineConfig::hpu1_sim();

    // 1. Estimate the machine parameters like the paper does (Table 2).
    println!("== step 1: parameter estimation (paper §6.4) ==");
    let params = estimate_params(&cfg);
    println!(
        "estimated: p = {}, g = {}, γ⁻¹ = {:.1}\n",
        params.p,
        params.g,
        1.0 / params.gamma
    );

    // 2. Solve the advanced work division on those parameters.
    println!("== step 2: advanced schedule analysis (paper §5.2) ==");
    let algo = MergeSort::new();
    let rec = BfAlgorithm::<u32>::recurrence(&algo);
    let solver = AdvancedSolver::new(&params, &rec, n as u64).expect("valid size");
    let opt = solver.optimize();
    println!(
        "α* = {:.3}, transfer level y = {:.2}, GPU work share = {:.1}% ({:?})\n",
        opt.alpha,
        opt.transfer_level,
        100.0 * opt.gpu_work_fraction,
        opt.saturation
    );

    // 3. Run sequential baseline and the tuned hybrid.
    println!("== step 3: execution ==");
    let input: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(2654435761)).collect();

    let mut seq_data = input.clone();
    let mut hpu = SimHpu::new(cfg.clone());
    let seq = run_sim(&algo, &mut seq_data, &mut hpu, &ScheduleSpec::Sequential).unwrap();

    let spec = ScheduleSpec::Advanced {
        alpha: opt.alpha,
        transfer_level: (opt.transfer_level.round() as u32).clamp(1, log_n),
    };
    let mut data = input.clone();
    let mut hpu = SimHpu::new(cfg);
    let report = run_sim(&algo, &mut data, &mut hpu, &spec).unwrap();
    assert!(data.windows(2).all(|w| w[0] <= w[1]));

    println!(
        "sequential: {:>14.0}   hybrid: {:>14.0}   speedup: {:.2}x",
        seq.virtual_time,
        report.virtual_time,
        seq.virtual_time / report.virtual_time
    );
    if let Some((cpu_phase, gpu_phase)) = report.concurrent {
        println!(
            "concurrent phase: CPU {:.0}, GPU {:.0} (ratio {:.2} — ~1 means balanced)",
            cpu_phase,
            gpu_phase,
            gpu_phase / cpu_phase
        );
    }

    // 4. Show what each unit actually did.
    println!("\n== step 4: virtual timeline (first 12 events) ==");
    let timeline = hpu.timeline();
    for event in timeline.events().iter().take(12) {
        println!(
            "{:>4} [{:>12.0} .. {:>12.0}] {}",
            event.unit.to_string(),
            event.start,
            event.end,
            event.label()
        );
    }
    let more = timeline.events().len().saturating_sub(12);
    if more > 0 {
        println!("... and {more} more events");
    }
}
