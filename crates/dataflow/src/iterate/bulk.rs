//! Bulk iterations: the whole state dataset is recomputed every superstep.

use telemetry::IterationMode;

use crate::api::{DataSet, Environment};
use crate::dataset::{Data, Erased, Partitions};
use crate::error::{EngineError, Result};
use crate::ft::{FailureSource, FaultHandler};
use crate::iterate::driver::{Advanced, LoopBody, LoopBuilder};
use crate::iterate::{ConvergenceMeasure, StatsHandle};
use crate::operators::SourceSlot;
use crate::plan::NodeId;
use crate::stats::IterationStats;

/// Observer callback invoked after every superstep with the (possibly
/// recovered) state; may record gauges/counters into the superstep's stats.
pub type BulkObserverFn<T> = Box<dyn FnMut(u32, &Partitions<T>, &mut IterationStats)>;

/// Convergence probe for bulk iterations: called with the previous and the
/// freshly computed state after every superstep (telemetry-enabled runs
/// only); the measurement feeds the `ConvergenceSample` journal event.
pub type BulkConvergenceProbe<T> =
    Box<dyn FnMut(&Partitions<T>, &Partitions<T>) -> ConvergenceMeasure>;

/// Termination criterion: the body node to probe plus a closure measuring
/// its (type-erased) cardinality.
type CardinalityProbe = Box<dyn Fn(&Erased) -> Result<usize>>;
type TerminationProbe = (NodeId, CardinalityProbe);

/// Builder for a bulk iteration, Flink-style: the loop body is a nested
/// dataflow whose head is the current state; closing the loop yields a
/// dataset holding the final state.
///
/// ```
/// use dataflow::prelude::*;
///
/// // Iteratively halve numbers until all are zero.
/// let env = Environment::new(2);
/// let numbers = env.from_vec(vec![13u64, 64, 7]);
/// let mut iteration = BulkIteration::new(&numbers, 100);
/// let state = iteration.state();
/// let halved = state.map("halve", |n: &u64| n / 2);
/// let not_done = halved.filter("non-zero", |n| *n > 0);
/// let (result, stats) = iteration.close_with_termination(halved, not_done);
/// let out = result.collect().unwrap();
/// assert_eq!(out.iter().sum::<u64>(), 0);
/// assert!(stats.take().unwrap().converged);
/// ```
pub struct BulkIteration<T: Data> {
    builder: LoopBuilder<Partitions<T>>,
    initial_id: NodeId,
    state_slot: SourceSlot,
    head: DataSet<T>,
    observer: Option<BulkObserverFn<T>>,
    convergence: Option<BulkConvergenceProbe<T>>,
}

impl<T: Data> BulkIteration<T> {
    /// Start building a bulk iteration over `initial`, running at most
    /// `max_iterations` logical iterations.
    ///
    /// # Panics
    /// Panics when `max_iterations` is zero.
    pub fn new(initial: &DataSet<T>, max_iterations: u32) -> Self {
        let builder = LoopBuilder::new(initial.environment(), max_iterations);
        let (head, state_slot) = builder.head("iteration-head");
        BulkIteration {
            builder,
            initial_id: initial.node_id(),
            state_slot,
            head,
            observer: None,
            convergence: None,
        }
    }

    /// The loop-body handle onto the current iteration state.
    pub fn state(&self) -> DataSet<T> {
        self.head.clone()
    }

    /// The loop-body environment (for constructing body-local datasets).
    pub fn body_environment(&self) -> Environment {
        self.builder.body.clone()
    }

    /// Make an outer dataset visible inside the loop body (a loop-invariant
    /// input, like the `links`/`graph` datasets of the paper's Figure 1).
    pub fn import<A: Data>(&mut self, outer: &DataSet<A>) -> DataSet<A> {
        self.builder.import(outer)
    }

    /// Install a fault handler (defaults to restart-from-scratch).
    pub fn set_fault_handler(&mut self, handler: impl FaultHandler<Partitions<T>> + 'static) {
        self.builder.set_fault_handler(handler);
    }

    /// Install a failure source (defaults to no failures).
    pub fn set_failure_source(&mut self, failures: impl FailureSource + 'static) {
        self.builder.set_failure_source(failures);
    }

    /// Install a per-superstep observer.
    pub fn set_observer(
        &mut self,
        observer: impl FnMut(u32, &Partitions<T>, &mut IterationStats) + 'static,
    ) {
        self.observer = Some(Box::new(observer));
    }

    /// Install a convergence probe: called after every superstep with the
    /// previous and the freshly computed state (telemetry-enabled runs
    /// only). Without a probe, every record of the new state counts as
    /// changed — bulk iterations recompute everything each superstep.
    pub fn set_convergence_probe(
        &mut self,
        probe: impl FnMut(&Partitions<T>, &Partitions<T>) -> ConvergenceMeasure + 'static,
    ) {
        self.convergence = Some(Box::new(probe));
    }

    /// Override the chronological superstep budget (safety net against
    /// recovery live-lock; defaults to `4 * max_iterations + 16`).
    pub fn set_superstep_limit(&mut self, limit: u32) {
        self.builder.set_superstep_limit(limit);
    }

    /// Close the loop without a termination criterion: the iteration runs
    /// for exactly `max_iterations` logical iterations.
    pub fn close(self, next_state: DataSet<T>) -> (DataSet<T>, StatsHandle) {
        self.finish(next_state, None)
    }

    /// Close the loop with a termination criterion: the iteration stops
    /// early once `termination` evaluates to an empty dataset (Flink
    /// semantics — e.g. the paper's compare-to-old-rank join emits a record
    /// for every vertex whose rank still moves).
    pub fn close_with_termination<C: Data>(
        self,
        next_state: DataSet<T>,
        termination: DataSet<C>,
    ) -> (DataSet<T>, StatsHandle) {
        self.builder.assert_in_body(&termination, "termination criterion");
        let probe: CardinalityProbe =
            Box::new(|e| Ok(e.downcast::<C>("termination criterion")?.total_len()));
        self.finish(next_state, Some((termination.node_id(), probe)))
    }

    fn finish(
        self,
        next_state: DataSet<T>,
        termination: Option<TerminationProbe>,
    ) -> (DataSet<T>, StatsHandle) {
        self.builder.assert_in_body(&next_state, "next state");
        let body = BulkBody {
            head_id: self.head.node_id(),
            state_slot: self.state_slot,
            next_id: next_state.node_id(),
            termination,
            observer: self.observer,
            convergence: self.convergence,
            previous: None,
        };
        self.builder.close("bulk-iteration", &[self.initial_id], body)
    }
}

/// What a bulk iteration adds to the shared superstep driver.
struct BulkBody<T: Data> {
    head_id: NodeId,
    state_slot: SourceSlot,
    next_id: NodeId,
    termination: Option<TerminationProbe>,
    observer: Option<BulkObserverFn<T>>,
    convergence: Option<BulkConvergenceProbe<T>>,
    /// The pre-superstep state, kept for the convergence probe.
    previous: Option<Partitions<T>>,
}

impl<T: Data> LoopBody for BulkBody<T> {
    type State = Partitions<T>;
    const MODE: IterationMode = IterationMode::Bulk;
    const KIND: &'static str = "BulkIteration";

    fn heads(&self) -> Vec<NodeId> {
        vec![self.head_id]
    }

    fn targets(&self) -> Vec<NodeId> {
        let mut targets = vec![self.next_id];
        targets.extend(self.termination.as_ref().map(|(term_id, _)| *term_id));
        targets
    }

    fn initial(&self, inputs: &[Erased], _parallelism: usize) -> Result<Partitions<T>> {
        inputs[0].clone().take("BulkIteration(initial)")
    }

    fn finished(&self, _state: &Partitions<T>) -> bool {
        false
    }

    fn converges_at_max(&self) -> bool {
        self.termination.is_none()
    }

    fn inject(&mut self, state: Partitions<T>, probing: bool) {
        // The convergence probe compares against the pre-superstep state,
        // which the injection slot is about to consume.
        self.previous = (probing && self.convergence.is_some()).then(|| state.clone());
        self.state_slot.fill(Erased::new(state));
    }

    fn reclaim(&mut self) -> Result<Partitions<T>> {
        self.state_slot
            .take()
            .ok_or_else(|| {
                EngineError::Iteration("pre-superstep state lost after partition panic".into())
            })?
            .take("BulkIteration(panic recovery)")
    }

    fn advance(&mut self, outputs: Vec<Erased>, probing: bool) -> Result<Advanced<Partitions<T>>> {
        // Release the pre-superstep state first: a next state that is the
        // head itself is then taken without a clone.
        drop(self.state_slot.take());
        let mut outputs = outputs.into_iter();
        let next: Partitions<T> =
            outputs.next().expect("next-state output").take("BulkIteration(next)")?;
        let term_empty = match (&self.termination, outputs.next()) {
            (Some((_, probe)), Some(criterion)) => probe(&criterion)? == 0,
            _ => false,
        };
        let measure = probing.then(|| match (&mut self.convergence, self.previous.take()) {
            (Some(probe), Some(prev)) => probe(&prev, &next),
            // Bulk recomputes the whole state: without a probe, every
            // record counts as changed.
            _ => ConvergenceMeasure {
                changed_per_partition: next.partition_sizes().iter().map(|&n| n as u64).collect(),
                delta_norm: None,
            },
        });
        Ok(Advanced { next, term_empty, measure, delta_updates: None })
    }

    fn workset_sizes(&self, _state: &Partitions<T>) -> Option<Vec<u64>> {
        None
    }

    fn observe(&mut self, iteration: u32, state: &Partitions<T>, stats: &mut IterationStats) {
        if let Some(observer) = &mut self.observer {
            observer(iteration, state, stats);
        }
    }

    fn output(&self, state: Partitions<T>) -> Erased {
        Erased::new(state)
    }

    fn explain(&self, body: &Environment) -> String {
        let inner = body.inner.borrow();
        let mut text = inner.graph.explain(self.next_id);
        if let Some((term_id, _)) = &self.termination {
            text.push_str("(termination criterion:)\n");
            text.push_str(&inner.graph.explain(*term_id));
        }
        text
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ft::DeterministicFailures;
    use crate::stats::RecoveryKind;

    /// Fixpoint toy: state records move towards zero by one per iteration.
    fn countdown_env() -> (Environment, DataSet<u64>) {
        let env = Environment::new(4);
        let initial = env.from_vec(vec![5u64, 3, 8, 1, 0, 4, 9, 2]);
        (env, initial)
    }

    #[test]
    fn a_closed_loop_is_freed_with_its_environment() {
        use std::sync::Arc;

        let marker = Arc::new(());
        {
            let (_env, initial) = countdown_env();
            let it = BulkIteration::new(&initial, 3);
            let probe = marker.clone();
            let next = it.state().map("dec", move |n: &u64| {
                let _ = &probe;
                n.saturating_sub(1)
            });
            let (result, _) = it.close(next);
            result.collect().unwrap();
        }
        // The iteration node lives in the outer plan; a reference from it
        // back to the outer environment would leak the loop body (and, on
        // the cluster, the worker processes it owns).
        assert_eq!(Arc::strong_count(&marker), 1, "the loop body outlived its environment");
    }

    #[test]
    fn fixed_iteration_count_runs_to_max() {
        let (_env, initial) = countdown_env();
        let it = BulkIteration::new(&initial, 3);
        let state = it.state();
        let next = state.map("dec", |n: &u64| n.saturating_sub(1));
        let (result, stats) = it.close(next);
        let out = result.collect().unwrap();
        // Each value reduced by 3, floored at 0: 2,0,5,0,0,1,6,0 sums to 14.
        assert_eq!(out.iter().sum::<u64>(), 14);
        let stats = stats.take().unwrap();
        assert_eq!(stats.supersteps(), 3);
        assert!(stats.converged);
    }

    #[test]
    fn termination_criterion_stops_early() {
        let (_env, initial) = countdown_env();
        let it = BulkIteration::new(&initial, 100);
        let state = it.state();
        let next = state.map("dec", |n: &u64| n.saturating_sub(1));
        let still_positive = next.filter("positive", |n| *n > 0);
        let (result, stats) = it.close_with_termination(next, still_positive);
        let out = result.collect().unwrap();
        assert!(out.iter().all(|&n| n == 0));
        let stats = stats.take().unwrap();
        assert_eq!(stats.supersteps(), 9, "max initial value is 9");
        assert!(stats.converged);
    }

    #[test]
    fn non_converging_run_reports_not_converged() {
        let (_env, initial) = countdown_env();
        let it = BulkIteration::new(&initial, 3);
        let state = it.state();
        let next = state.map("keep", |n: &u64| *n);
        let never_empty = next.filter("all", |_| true);
        let (result, stats) = it.close_with_termination(next, never_empty);
        result.collect().unwrap();
        let stats = stats.take().unwrap();
        assert!(!stats.converged);
        assert_eq!(stats.supersteps(), 3);
    }

    #[test]
    fn imports_are_visible_in_every_superstep() {
        let env = Environment::new(2);
        let initial = env.from_vec(vec![0u64]);
        let step = env.from_vec(vec![10u64]);
        let mut it = BulkIteration::new(&initial, 4);
        let step_in = it.import(&step);
        let state = it.state();
        let next = state.map_with_broadcast("add-step", &step_in, |n, s| n + s[0]);
        let (result, _) = it.close(next);
        assert_eq!(result.collect().unwrap(), vec![40]);
    }

    #[test]
    fn restart_handler_recomputes_from_scratch() {
        let (_env, initial) = countdown_env();
        let mut it = BulkIteration::new(&initial, 20);
        it.set_failure_source(DeterministicFailures::new().fail_at(2, &[0]));
        // Default handler is RestartHandler.
        let state = it.state();
        let next = state.map("dec", |n: &u64| n.saturating_sub(1));
        let still_positive = next.filter("positive", |n| *n > 0);
        let (result, stats) = it.close_with_termination(next, still_positive);
        let out = result.collect().unwrap();
        assert!(out.iter().all(|&n| n == 0));
        let stats = stats.take().unwrap();
        assert!(stats.converged);
        // 3 wasted supersteps (0,1,2) + 9 to converge after restart.
        assert_eq!(stats.supersteps(), 12);
        assert_eq!(stats.logical_iterations(), 9);
        let failures: Vec<_> = stats.failures().collect();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].1.recovery, RecoveryKind::Restarted);
    }

    #[test]
    fn superstep_limit_guards_against_livelock() {
        let (_env, initial) = countdown_env();
        let mut it = BulkIteration::new(&initial, 1000);
        // Fail every superstep: restart forever.
        struct Always;
        impl FailureSource for Always {
            fn poll(&mut self, _s: u32, _p: usize) -> Option<Vec<usize>> {
                Some(vec![0])
            }
        }
        it.set_failure_source(Always);
        it.set_superstep_limit(10);
        let state = it.state();
        let next = state.map("dec", |n: &u64| n.saturating_sub(1));
        let still_positive = next.filter("positive", |n| *n > 0);
        let (result, _) = it.close_with_termination(next, still_positive);
        let err = result.collect().unwrap_err();
        assert!(err.to_string().contains("superstep budget"), "{err}");
    }

    #[test]
    fn observer_sees_every_superstep_with_gauges() {
        let (_env, initial) = countdown_env();
        let mut it = BulkIteration::new(&initial, 5);
        it.set_observer(|iteration, state: &Partitions<u64>, stats: &mut IterationStats| {
            stats.gauges.insert("sum".into(), state.iter_records().sum::<u64>() as f64);
            assert_eq!(iteration, stats.iteration);
        });
        let state = it.state();
        let next = state.map("dec", |n: &u64| n.saturating_sub(1));
        let (result, stats) = it.close(next);
        result.collect().unwrap();
        let stats = stats.take().unwrap();
        let sums = stats.gauge_series("sum");
        assert_eq!(sums.len(), 5);
        assert!(sums.windows(2).all(|w| w[1] <= w[0]), "sums must not increase: {sums:?}");
    }

    #[test]
    fn counters_are_scoped_per_superstep() {
        let (_env, initial) = countdown_env();
        let it = BulkIteration::new(&initial, 3);
        let state = it.state();
        let next = state.measured("records").map("dec", |n: &u64| n.saturating_sub(1));
        let (result, stats) = it.close(next);
        result.collect().unwrap();
        let stats = stats.take().unwrap();
        assert_eq!(stats.counter_series("records"), vec![8, 8, 8]);
    }

    #[test]
    fn failure_on_converging_superstep_forces_continuation() {
        let env = Environment::new(2);
        let initial = env.from_vec(vec![1u64, 1]);
        let mut it = BulkIteration::new(&initial, 20);
        // The countdown would converge at superstep 0 (all zero after one
        // step); the failure at superstep 0 must keep it running.
        it.set_failure_source(DeterministicFailures::new().fail_at(0, &[0]));
        let state = it.state();
        let next = state.map("dec", |n: &u64| n.saturating_sub(1));
        let still_positive = next.filter("positive", |n| *n > 0);
        let (result, stats) = it.close_with_termination(next, still_positive);
        result.collect().unwrap();
        let stats = stats.take().unwrap();
        assert!(stats.converged);
        assert!(stats.supersteps() > 1);
    }

    #[test]
    fn loop_invariant_subplans_run_once() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        let run = |caching: bool| {
            let env = Environment::with_config(
                crate::config::EnvConfig::new(2).with_loop_invariant_caching(caching),
            );
            let initial = env.from_vec(vec![0u64]);
            let lookup = env.from_vec(vec![(0u64, 5u64)]);
            let invocations = Arc::new(AtomicU64::new(0));
            let probe = invocations.clone();
            let mut it = BulkIteration::new(&initial, 4);
            let lookup_in = it.import(&lookup);
            // This branch never touches the iteration state: it must be
            // computed once with caching, every superstep without.
            let prepared = lookup_in.map("prepare", move |r: &(u64, u64)| {
                probe.fetch_add(1, Ordering::Relaxed);
                r.1
            });
            let state = it.state();
            let next = state.map_with_broadcast("add", &prepared, |n, p| n + p[0]);
            let (result, _) = it.close(next);
            assert_eq!(result.collect().unwrap(), vec![20]);
            invocations.load(Ordering::Relaxed)
        };
        assert_eq!(run(true), 1, "invariant branch must run once with caching");
        assert_eq!(run(false), 4, "and every superstep without");
    }

    #[test]
    fn state_dependent_subplans_never_cache() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        let env = Environment::new(2);
        let initial = env.from_vec(vec![0u64]);
        let invocations = Arc::new(AtomicU64::new(0));
        let probe = invocations.clone();
        let it = BulkIteration::new(&initial, 3);
        let state = it.state();
        let next = state.map("inc", move |n: &u64| {
            probe.fetch_add(1, Ordering::Relaxed);
            n + 1
        });
        let (result, _) = it.close(next);
        assert_eq!(result.collect().unwrap(), vec![3]);
        assert_eq!(invocations.load(Ordering::Relaxed), 3);
    }
}
