//! Parameter estimation and empirical tuning: regenerates the data behind
//! the paper's Figures 5, 6 and 10 at a small scale and compares the
//! model's predicted `(α, y)` with a simulator grid search.
//!
//! ```text
//! cargo run --release --example parameter_tuning
//! ```

use hpu::prelude::*;
use hpu_core::tune::grid_search_sim;
use hpu_estimate::{estimate_g, estimate_gamma};

fn main() {
    let cfg = MachineConfig::hpu2_sim();
    println!("platform: simulated HPU2 (integrated GPU, 1200 lanes, γ⁻¹ = 65)\n");

    // Figure 5: the saturation sweep.
    println!("== GPU saturation sweep (Figure 5) ==");
    let sweep = estimate_g(&cfg, 1 << 14);
    println!("{:>8} {:>14}", "threads", "launch time");
    for (threads, time) in sweep.samples.iter().take(14) {
        println!("{threads:>8} {time:>14.0}");
    }
    println!("--> estimated g = {}\n", sweep.g);

    // Figure 6: the scalar-speed ratio.
    println!("== single-thread merge ratio (Figure 6) ==");
    let gamma = estimate_gamma(&cfg, &[1 << 8, 1 << 10, 1 << 12, 1 << 14]);
    println!("{:>8} {:>12}", "size", "GPU/CPU");
    for (size, ratio) in &gamma.samples {
        println!("{size:>8} {ratio:>12.1}");
    }
    println!("--> estimated γ⁻¹ = {:.1}\n", gamma.gamma_inv);

    // Figure 10: model prediction vs empirical grid search.
    println!("== predicted vs empirically best (α, y) (Figure 10) ==");
    let n = 1 << 12;
    let algo = MergeSort::new();
    let rec = BfAlgorithm::<u32>::recurrence(&algo);
    let ScheduleSpec::Advanced {
        alpha: alpha_pred,
        transfer_level: y_pred,
    } = auto_advanced(&cfg, &rec, n as u64).unwrap()
    else {
        unreachable!("auto_advanced resolves to ScheduleSpec::Advanced")
    };
    let alphas: Vec<f64> = (1..=8).map(|k| k as f64 * 0.05).collect();
    let ys: Vec<u32> = (y_pred.saturating_sub(2).max(1)..=(y_pred + 2).min(12)).collect();
    let found = grid_search_sim(&algo, &cfg, &alphas, &ys, || {
        (0..n as u32).map(|i| i.wrapping_mul(2654435761)).collect()
    })
    .expect("grid search runs");
    println!("model:  α = {alpha_pred:.3}, y = {y_pred}");
    println!(
        "search: α = {:.3}, y = {} (best of {} simulated runs)",
        found.alpha,
        found.transfer_level,
        found.samples.len()
    );
}
