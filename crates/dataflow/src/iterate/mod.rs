//! Iterative execution: bulk and delta iterations.
//!
//! Both iteration kinds run on one superstep driver, and one
//! [`crate::ft::FaultHandler`] trait recovers both: the handler sees the
//! state the iteration carries between supersteps — [`crate::dataset::Partitions`]
//! for a bulk iteration, a [`crate::ft::DeltaState`] (solution sets plus
//! working set) for a delta iteration. Each superstep:
//!
//! 1. Inject the current iteration state into the loop body's head nodes and
//!    execute the body plan.
//! 2. Turn the body's outputs into the next state (bulk: take the new state;
//!    delta: upsert the delta into the solution sets) and drain per-superstep
//!    counters into an [`crate::stats::IterationStats`].
//! 3. Offer the fresh state to the fault handler (which may checkpoint).
//! 4. Poll the failure source; on failure, drop the lost partitions and let
//!    the fault handler recover (compensate / roll back / restart / ignore).
//!    A UDF panic or a lost cluster worker mid-superstep takes the same
//!    recovery path, over the pre-superstep state.
//! 5. Run the user observer, then decide termination (bulk: an empty
//!    termination criterion; delta: an empty working set).
//!
//! Logical iteration numbers move backwards on rollback and restart;
//! chronological superstep numbers never repeat. The difference between the
//! two is exactly the redundant work a recovery strategy pays.

mod bulk;
mod delta;
mod driver;

pub use bulk::BulkIteration;
pub use delta::{DeltaIteration, SolutionKey, SolutionSet};

use std::cell::RefCell;
use std::rc::Rc;

use crate::stats::RunStats;

/// What a convergence probe measured for one superstep.
///
/// Probes run between computing the next state and the fault-tolerance
/// hooks, so they see the *pre-failure* result of the superstep — the
/// numbers a `ConvergenceSample` journal event carries. Per-partition
/// counts are indexed by partition id; missing probes fall back to
/// driver-level defaults (bulk: every record counts as changed, delta:
/// solution-set upserts).
#[derive(Debug, Clone, Default)]
pub struct ConvergenceMeasure {
    /// Elements whose value moved during the superstep, per partition.
    pub changed_per_partition: Vec<u64>,
    /// Algorithm-specific aggregate delta norm (e.g. L1 rank movement);
    /// [`None`] when the probe measures counts only.
    pub delta_norm: Option<f64>,
}

impl ConvergenceMeasure {
    /// Total changed elements across all partitions.
    pub fn changed(&self) -> u64 {
        self.changed_per_partition.iter().sum()
    }
}

/// Shared handle through which an iteration publishes its [`RunStats`].
///
/// Returned by `close(..)`; filled when the enclosing plan executes.
#[derive(Clone, Default)]
pub struct StatsHandle {
    inner: Rc<RefCell<Option<RunStats>>>,
}

impl StatsHandle {
    pub(crate) fn new() -> Self {
        StatsHandle::default()
    }

    pub(crate) fn set(&self, stats: RunStats) {
        *self.inner.borrow_mut() = Some(stats);
    }

    /// Take the statistics of the last execution, leaving the handle empty.
    pub fn take(&self) -> Option<RunStats> {
        self.inner.borrow_mut().take()
    }

    /// Clone the statistics of the last execution.
    pub fn get(&self) -> Option<RunStats> {
        self.inner.borrow().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_handle_roundtrip() {
        let h = StatsHandle::new();
        assert!(h.get().is_none());
        h.set(RunStats::default());
        assert!(h.get().is_some());
        assert!(h.take().is_some());
        assert!(h.take().is_none());
    }
}
