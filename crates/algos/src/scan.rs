//! Prefix sums (inclusive scan) as a divide-and-conquer algorithm.
//!
//! `scan(x) = scan(left) ++ (scan(right) + total(left))` — the combine
//! adds the left half's total into every element of the right half, a
//! `Θ(n)` combine like mergesort's but with a perfectly regular access
//! pattern.

use hpu_core::charge::Charge;
use hpu_core::BfAlgorithm;
use hpu_model::{CostFn, Recurrence};

/// Sequential reference: inclusive prefix sums.
pub fn scan_reference(data: &[u64]) -> Vec<u64> {
    let mut out = Vec::with_capacity(data.len());
    let mut acc = 0u64;
    for &x in data {
        acc = acc.wrapping_add(x);
        out.push(acc);
    }
    out
}

/// Breadth-first inclusive scan. A solved chunk holds its own inclusive
/// prefix sums (so its last element is the chunk total).
#[derive(Debug, Clone, Copy, Default)]
pub struct DcScan;

impl BfAlgorithm<u64> for DcScan {
    fn name(&self) -> &'static str {
        "dc-scan"
    }

    fn base_case(&self, _chunk: &mut [u64], charge: &mut dyn Charge) {
        // A single element is its own prefix sum.
        charge.ops(1);
    }

    fn combine(&self, src: &[u64], dst: &mut [u64], charge: &mut dyn Charge) {
        let half = src.len() / 2;
        let left_total = src[half - 1];
        dst[..half].copy_from_slice(&src[..half]);
        for (d, s) in dst[half..].iter_mut().zip(&src[half..]) {
            *d = s.wrapping_add(left_total);
        }
        charge.ops(half as u64);
        charge.mem(2 * src.len() as u64);
    }

    fn recurrence(&self) -> Recurrence {
        // ~0.5 adds + 2 memory ops per element → f(n) = 2.5 n.
        Recurrence::new(2, 2, CostFn::Linear(2.5), 1.0).expect("valid recurrence")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpu_core::exec::run_sim;
    use hpu_machine::{MachineConfig, SimHpu};
    use hpu_model::ScheduleSpec;

    fn input(n: usize) -> Vec<u64> {
        (0..n as u64).map(|i| (i * 13 + 5) % 97).collect()
    }

    #[test]
    fn reference_scan() {
        assert_eq!(scan_reference(&[]), Vec::<u64>::new());
        assert_eq!(scan_reference(&[1, 2, 3]), vec![1, 3, 6]);
    }

    #[test]
    fn all_strategies_scan_correctly() {
        let n = 1 << 9;
        let expect = scan_reference(&input(n));
        for strategy in [
            ScheduleSpec::Sequential,
            ScheduleSpec::CpuParallel,
            ScheduleSpec::GpuOnly,
            ScheduleSpec::Basic { crossover: Some(3) },
            ScheduleSpec::Advanced {
                alpha: 0.5,
                transfer_level: 3,
            },
        ] {
            let mut data = input(n);
            let mut hpu = SimHpu::new(MachineConfig::tiny());
            run_sim(&DcScan, &mut data, &mut hpu, &strategy).unwrap();
            assert_eq!(data, expect, "strategy {strategy:?}");
        }
    }

    #[test]
    fn scan_of_ones_is_iota() {
        let mut data = vec![1u64; 256];
        let mut hpu = SimHpu::new(MachineConfig::tiny());
        run_sim(&DcScan, &mut data, &mut hpu, &ScheduleSpec::CpuParallel).unwrap();
        assert_eq!(data, (1..=256u64).collect::<Vec<_>>());
    }
}
