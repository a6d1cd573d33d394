//! Device arbitration over the shared machine.
//!
//! The scheduler sees the machine as two calendars: the GPU (device plus
//! its bus) is an **exclusively-leased** resource — one job's segment at a
//! time — while the CPU is a **partitionable pool** of `p` cores where
//! reservations coexist as long as their core counts fit. Reservations are
//! never preempted or moved: probing (`*_slot`) and committing
//! (`reserve_*`) use identical placement logic, so a probe's answer holds
//! until something new is reserved.

use hpu_obs::merge_intervals;

/// Comparison slack for virtual-time arithmetic.
pub(crate) const EPS: f64 = 1e-9;

/// Reservation calendars for one shared machine: an exclusive GPU lease
/// and a `cores`-wide CPU pool.
#[derive(Debug, Clone)]
pub struct DeviceArbiter {
    cores: usize,
    gpu: Vec<(f64, f64)>,
    cpu: Vec<(f64, f64, usize)>,
}

impl DeviceArbiter {
    /// An empty calendar over a machine with `cores` CPU cores (at least
    /// one) and one GPU.
    pub fn new(cores: usize) -> Self {
        DeviceArbiter {
            cores: cores.max(1),
            gpu: Vec::new(),
            cpu: Vec::new(),
        }
    }

    /// Size of the CPU pool.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Earliest start `>= t` of a GPU lease of length `dur`.
    pub fn gpu_slot(&self, t: f64, dur: f64) -> f64 {
        if dur <= EPS {
            return t;
        }
        let mut c = t;
        for &(s, e) in &self.gpu {
            if c + dur <= s + EPS {
                break;
            }
            if e > c {
                c = e;
            }
        }
        c
    }

    /// Leases the GPU for `dur` starting at the earliest slot `>= t`;
    /// returns the `(start, end)` actually reserved.
    pub fn reserve_gpu(&mut self, t: f64, dur: f64) -> (f64, f64) {
        let start = self.gpu_slot(t, dur);
        if dur > EPS {
            self.gpu.push((start, start + dur));
            self.gpu.sort_by(|a, b| a.0.total_cmp(&b.0));
        }
        (start, start + dur.max(0.0))
    }

    /// Earliest start `>= t` at which `cores` CPU cores are free for the
    /// whole window `[start, start + dur)`.
    pub fn cpu_slot(&self, t: f64, dur: f64, cores: usize) -> f64 {
        let req = cores.clamp(1, self.cores);
        if dur <= EPS {
            return t;
        }
        // Usage only drops at reservation ends, so the earliest feasible
        // start is `t` or one of the ends after it.
        let mut candidates: Vec<f64> = vec![t];
        candidates.extend(self.cpu.iter().map(|&(_, e, _)| e).filter(|&e| e > t));
        candidates.sort_by(f64::total_cmp);
        let mut last = t;
        'cand: for &c in &candidates {
            last = c;
            // Usage within [c, c + dur) only changes at reservation
            // starts; check each breakpoint.
            let mut points: Vec<f64> = vec![c];
            points.extend(
                self.cpu
                    .iter()
                    .map(|&(s, _, _)| s)
                    .filter(|&s| s > c && s < c + dur),
            );
            for &b in &points {
                let used: usize = self
                    .cpu
                    .iter()
                    .filter(|&&(s, e, _)| s <= b + EPS && b + EPS < e)
                    .map(|&(_, _, k)| k)
                    .sum();
                if used + req > self.cores {
                    continue 'cand;
                }
            }
            return c;
        }
        // The last candidate lies past every reservation: always feasible.
        last
    }

    /// Reserves `cores` CPU cores for `dur` at the earliest slot `>= t`.
    pub fn reserve_cpu(&mut self, t: f64, dur: f64, cores: usize) -> (f64, f64) {
        let req = cores.clamp(1, self.cores);
        let start = self.cpu_slot(t, dur, req);
        if dur > EPS {
            self.cpu.push((start, start + dur, req));
            self.cpu.sort_by(|a, b| a.0.total_cmp(&b.0));
        }
        (start, start + dur.max(0.0))
    }

    /// Earliest common start `>= t` where both a GPU lease of `gpu_dur`
    /// and `cores` CPU cores for `cpu_dur` fit (a concurrent split
    /// segment launches both sides together).
    pub fn pair_slot(&self, t: f64, cpu_dur: f64, cores: usize, gpu_dur: f64) -> f64 {
        let mut c = t;
        loop {
            let cg = self.gpu_slot(c, gpu_dur);
            let cc = self.cpu_slot(cg, cpu_dur, cores);
            if cc - cg <= EPS {
                return cg;
            }
            c = cc;
        }
    }

    /// Reserves both sides of a concurrent split segment at their earliest
    /// common start; returns `(start, end)` with
    /// `end = start + max(cpu_dur, gpu_dur)`.
    pub fn reserve_pair(&mut self, t: f64, cpu_dur: f64, cores: usize, gpu_dur: f64) -> (f64, f64) {
        let start = self.pair_slot(t, cpu_dur, cores, gpu_dur);
        if gpu_dur > EPS {
            self.gpu.push((start, start + gpu_dur));
            self.gpu.sort_by(|a, b| a.0.total_cmp(&b.0));
        }
        if cpu_dur > EPS {
            let req = cores.clamp(1, self.cores);
            self.cpu.push((start, start + cpu_dur, req));
            self.cpu.sort_by(|a, b| a.0.total_cmp(&b.0));
        }
        (start, start + cpu_dur.max(gpu_dur).max(0.0))
    }

    /// Releases a committed GPU lease `(start, end)` — the slot becomes
    /// reusable by later arrivals. Returns whether a matching lease was
    /// found (the calendar is untouched otherwise).
    pub fn release_gpu(&mut self, start: f64, end: f64) -> bool {
        match self
            .gpu
            .iter()
            .position(|&(s, e)| (s - start).abs() <= EPS && (e - end).abs() <= EPS)
        {
            Some(i) => {
                self.gpu.remove(i);
                true
            }
            None => false,
        }
    }

    /// Releases a committed CPU reservation `(start, end, cores)`.
    /// Returns whether a matching reservation was found.
    pub fn release_cpu(&mut self, start: f64, end: f64, cores: usize) -> bool {
        let req = cores.clamp(1, self.cores);
        match self
            .cpu
            .iter()
            .position(|&(s, e, k)| (s - start).abs() <= EPS && (e - end).abs() <= EPS && k == req)
        {
            Some(i) => {
                self.cpu.remove(i);
                true
            }
            None => false,
        }
    }

    /// Interval-merged GPU busy time across all leases.
    pub fn gpu_busy(&self) -> f64 {
        merge_intervals(&self.gpu)
    }

    /// Interval-merged time with at least one CPU core reserved.
    pub fn cpu_busy(&self) -> f64 {
        let iv: Vec<(f64, f64)> = self.cpu.iter().map(|&(s, e, _)| (s, e)).collect();
        merge_intervals(&iv)
    }

    /// All GPU leases, ascending by start.
    pub fn gpu_leases(&self) -> &[(f64, f64)] {
        &self.gpu
    }

    /// All CPU reservations `(start, end, cores)`, ascending by start.
    pub fn cpu_reservations(&self) -> &[(f64, f64, usize)] {
        &self.cpu
    }

    /// Latest reservation end across both calendars.
    pub fn makespan(&self) -> f64 {
        let g = self.gpu.iter().map(|&(_, e)| e).fold(0.0, f64::max);
        let c = self.cpu.iter().map(|&(_, e, _)| e).fold(0.0, f64::max);
        g.max(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpu_lease_is_exclusive_and_gap_seeking() {
        let mut arb = DeviceArbiter::new(4);
        assert_eq!(arb.reserve_gpu(0.0, 5.0), (0.0, 5.0));
        // Overlap request pushes past the lease.
        assert_eq!(arb.gpu_slot(0.0, 3.0), 5.0);
        assert_eq!(arb.reserve_gpu(8.0, 4.0), (8.0, 12.0));
        // A 3-long request fits in the [5, 8) gap; a 4-long one does not.
        assert_eq!(arb.gpu_slot(0.0, 3.0), 5.0);
        assert_eq!(arb.gpu_slot(0.0, 4.0), 12.0);
        assert_eq!(arb.gpu_busy(), 9.0);
    }

    #[test]
    fn cpu_pool_partitions_by_core_count() {
        let mut arb = DeviceArbiter::new(4);
        assert_eq!(arb.reserve_cpu(0.0, 10.0, 3), (0.0, 10.0));
        // One spare core: a 1-core job coexists, a 2-core job waits.
        assert_eq!(arb.cpu_slot(0.0, 5.0, 1), 0.0);
        assert_eq!(arb.cpu_slot(0.0, 5.0, 2), 10.0);
        arb.reserve_cpu(0.0, 4.0, 1);
        // Pool full until 4.0; then one core free again.
        assert_eq!(arb.cpu_slot(0.0, 2.0, 1), 4.0);
        assert_eq!(arb.cpu_busy(), 10.0);
    }

    #[test]
    fn cpu_slot_respects_future_reservations() {
        let mut arb = DeviceArbiter::new(2);
        arb.reserve_cpu(5.0, 5.0, 2);
        // A 4-long window starting now would collide with [5, 10).
        assert_eq!(arb.cpu_slot(0.0, 4.0, 1), 0.0);
        assert_eq!(arb.cpu_slot(2.0, 4.0, 1), 10.0);
    }

    #[test]
    fn requests_clamp_to_the_pool() {
        let mut arb = DeviceArbiter::new(2);
        let (s, e) = arb.reserve_cpu(0.0, 3.0, 99);
        assert_eq!((s, e), (0.0, 3.0));
        assert_eq!(arb.cpu_reservations()[0].2, 2);
    }

    #[test]
    fn pair_needs_both_units_at_once() {
        let mut arb = DeviceArbiter::new(2);
        arb.reserve_gpu(0.0, 4.0);
        arb.reserve_cpu(4.0, 4.0, 2);
        // GPU free at 4, CPU free at 8: the pair starts at 8.
        assert_eq!(arb.pair_slot(0.0, 2.0, 2, 2.0), 8.0);
        let (s, e) = arb.reserve_pair(0.0, 2.0, 2, 3.0);
        assert_eq!((s, e), (8.0, 11.0));
        assert_eq!(arb.makespan(), 11.0);
    }

    #[test]
    fn released_gpu_slot_is_reusable_by_a_later_arrival() {
        let mut arb = DeviceArbiter::new(4);
        let (s, e) = arb.reserve_gpu(0.0, 10.0);
        // A later arrival would have to wait behind the lease...
        assert_eq!(arb.gpu_slot(0.0, 5.0), 10.0);
        // ...until the lease's job is cancelled and its slot released.
        assert!(arb.release_gpu(s, e));
        assert_eq!(arb.gpu_slot(0.0, 5.0), 0.0);
        assert_eq!(arb.gpu_busy(), 0.0);
        // Releasing twice finds nothing.
        assert!(!arb.release_gpu(s, e));
    }

    #[test]
    fn released_cpu_cores_return_to_the_pool() {
        let mut arb = DeviceArbiter::new(4);
        let (s, e) = arb.reserve_cpu(0.0, 8.0, 3);
        assert_eq!(arb.cpu_slot(0.0, 4.0, 2), 8.0);
        assert!(arb.release_cpu(s, e, 3));
        assert_eq!(arb.cpu_slot(0.0, 4.0, 2), 0.0);
        assert!(!arb.release_cpu(s, e, 3));
    }

    #[test]
    fn zero_length_requests_are_instant() {
        let mut arb = DeviceArbiter::new(2);
        arb.reserve_gpu(0.0, 10.0);
        assert_eq!(arb.gpu_slot(3.0, 0.0), 3.0);
        let (s, e) = arb.reserve_cpu(2.0, 0.0, 1);
        assert_eq!((s, e), (2.0, 2.0));
        assert!(arb.cpu_reservations().is_empty());
    }
}
