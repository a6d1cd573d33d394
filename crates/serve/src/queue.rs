//! Dispatch policies over the admission queue.

/// Order in which queued jobs are offered resources:
/// shortest-predicted-cost-first with backfilling. The cheapest predicted
/// job dispatches first, and a job that cannot start yet may be overtaken
/// — at most `starvation_bound` times, after which it becomes rigid and
/// nothing may overtake it again. A bound of 0 makes every job rigid at
/// once: strict arrival (FIFO) order, where a blocked head idles
/// resources.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Policy {
    /// Maximum number of times an older job may be overtaken.
    pub starvation_bound: usize,
}

impl Default for Policy {
    fn default() -> Self {
        Policy {
            starvation_bound: 4,
        }
    }
}

/// Scheduling facts about one queued job.
///
/// Public so that policy invariants (e.g. a zero starvation bound
/// degrading to exact FIFO) can be property-tested against
/// [`dispatch_order`] from outside the crate.
#[derive(Debug, Clone)]
pub struct Rank {
    /// Admission order (also arrival order for equal arrival times).
    pub seq: u64,
    /// Predicted service cost.
    pub cost: f64,
    /// Times this job has been overtaken by a newer one.
    pub skips: usize,
}

/// Returns indices of `ranks` in dispatch-priority order, plus the length
/// of the *rigid prefix*: entries before that bound may not be backfilled
/// past — if one of them cannot start, the dispatch scan stops.
pub fn dispatch_order(policy: &Policy, ranks: &[Rank]) -> (Vec<usize>, usize) {
    let overdue = |i: usize| ranks[i].skips >= policy.starvation_bound;
    let mut idx: Vec<usize> = (0..ranks.len()).collect();
    idx.sort_by(|&a, &b| {
        overdue(b).cmp(&overdue(a)).then_with(|| {
            if overdue(a) && overdue(b) {
                ranks[a].seq.cmp(&ranks[b].seq)
            } else {
                ranks[a]
                    .cost
                    .total_cmp(&ranks[b].cost)
                    .then(ranks[a].seq.cmp(&ranks[b].seq))
            }
        })
    });
    let rigid = idx.iter().take_while(|&&i| overdue(i)).count();
    (idx, rigid)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rank(seq: u64, cost: f64, skips: usize) -> Rank {
        Rank { seq, cost, skips }
    }

    #[test]
    fn fifo_is_arrival_order_and_fully_rigid() {
        let ranks = vec![rank(2, 1.0, 0), rank(0, 9.0, 0), rank(1, 5.0, 0)];
        let fifo = Policy {
            starvation_bound: 0,
        };
        let (order, rigid) = dispatch_order(&fifo, &ranks);
        assert_eq!(order, vec![1, 2, 0]);
        assert_eq!(rigid, 3);
    }

    #[test]
    fn shortest_cost_orders_by_prediction() {
        let ranks = vec![rank(0, 9.0, 0), rank(1, 1.0, 0), rank(2, 5.0, 0)];
        let (order, rigid) = dispatch_order(
            &Policy {
                starvation_bound: 4,
            },
            &ranks,
        );
        assert_eq!(order, vec![1, 2, 0]);
        assert_eq!(rigid, 0);
    }

    #[test]
    fn overtaken_jobs_become_rigid_at_the_bound() {
        let ranks = vec![rank(0, 9.0, 2), rank(1, 1.0, 0), rank(2, 5.0, 2)];
        let (order, rigid) = dispatch_order(
            &Policy {
                starvation_bound: 2,
            },
            &ranks,
        );
        // Both overdue jobs lead, oldest first; the cheap job waits.
        assert_eq!(order, vec![0, 2, 1]);
        assert_eq!(rigid, 2);
    }

    #[test]
    fn cost_ties_break_by_age() {
        let ranks = vec![rank(1, 5.0, 0), rank(0, 5.0, 0)];
        let (order, _) = dispatch_order(&Policy::default(), &ranks);
        assert_eq!(order, vec![1, 0]);
    }
}
