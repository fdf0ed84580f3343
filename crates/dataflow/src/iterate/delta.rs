//! Delta iterations: a keyed solution set is selectively updated while a
//! working set carries the records that still change (paper §2.1).
//!
//! The solution set is an index, not a dataset. The driver keeps it as
//! per-partition hash maps ([`SolutionSets`]) and lends them to the loop
//! body behind an `Arc` for the length of one superstep. The body can only
//! probe them, as the build side of [`DataSet::join_solution`]. Once the
//! body has run, the driver holds the only handle again and upserts the
//! delta in place. A superstep therefore costs in proportion to its
//! workset, messages and delta, not to the solution set. The solution set
//! becomes a dataset once, as the iteration's output.

use std::hash::Hash;
use std::marker::PhantomData;
use std::rc::Rc;
use std::sync::Arc;

use telemetry::IterationMode;

use crate::api::{DataSet, Environment};
use crate::dataset::{Data, Erased, Partitions};
use crate::error::{EngineError, Result};
use crate::ft::{DeltaState, FailureSource, FaultHandler, SolutionSets};
use crate::hash::{fx_hash, FxHashMap};
use crate::iterate::driver::{Advanced, LoopBody, LoopBuilder};
use crate::iterate::{ConvergenceMeasure, StatsHandle};
use crate::operators::SourceSlot;
use crate::partition::hash_partition;
use crate::plan::NodeId;
use crate::stats::IterationStats;

/// Observer callback for delta iterations: sees the solution sets and the
/// working set entering the next iteration.
pub type DeltaObserverFn<K, V, W> =
    Box<dyn FnMut(u32, &SolutionSets<K, V>, &Partitions<W>, &mut IterationStats)>;

/// Norm probe for delta iterations: called with the solution sets *before*
/// the delta is applied plus the delta itself, and returns an
/// algorithm-specific aggregate norm (e.g. summed label decrease) for the
/// `ConvergenceSample` journal event. Telemetry-enabled runs only.
pub type DeltaNormProbe<K, V> =
    Box<dyn FnMut(&SolutionSets<K, V>, &Partitions<(K, V)>) -> Option<f64>>;

/// Bound for solution-set key types.
pub trait SolutionKey: Data + Hash + Eq {}
impl<K: Data + Hash + Eq> SolutionKey for K {}

/// Builder for a delta iteration.
///
/// The *solution set* holds one `(K, V)` entry per key, hash-partitioned by
/// `K`; the *working set* holds arbitrary records of type `W`. Each
/// superstep, the loop body consumes both and produces a *delta* (solution
/// entries to upsert) and the next working set. The iteration terminates
/// once the working set is empty.
///
/// ```
/// use dataflow::prelude::*;
///
/// // Propagate the minimum over a chain 0-1-2-3 (toy connected components).
/// let env = Environment::new(2);
/// let solution = env.from_vec((0u64..4).map(|v| (v, v)).collect());
/// let workset = env.from_vec((0u64..4).map(|v| (v, v)).collect());
/// let edges = env.from_vec(vec![(0u64, 1u64), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)]);
/// let mut iteration = DeltaIteration::new(&solution, &workset, 50);
/// let edges_in = iteration.import(&edges);
/// let candidates = iteration
///     .workset()
///     .join("to-neighbors", &edges_in, |w: &(u64, u64)| w.0, |e| e.0, |w, e| (e.1, w.1))
///     .reduce_by_key("min-label", |c| c.0, |a, b| if a.1 <= b.1 { a } else { b });
/// let updates = candidates.join_solution(
///     "label-update",
///     &iteration.solution(),
///     |c| c.0,
///     |c, &label| if c.1 < label { Some((c.0, c.1)) } else { None },
/// ).flat_map("updated-only", |u| u.iter().copied().collect());
/// let (result, stats) = iteration.close(updates.clone(), updates);
/// let labels = result.collect().unwrap();
/// assert!(labels.iter().all(|&(_, l)| l == 0));
/// assert!(stats.take().unwrap().converged);
/// ```
pub struct DeltaIteration<K: SolutionKey, V: Data, W: Data> {
    builder: LoopBuilder<DeltaState<K, V, W>>,
    initial_solution_id: NodeId,
    initial_workset_id: NodeId,
    solution_slot: SourceSlot,
    workset_slot: SourceSlot,
    solution_head: SolutionSet<K, V>,
    workset_head: DataSet<W>,
    observer: Option<DeltaObserverFn<K, V, W>>,
    norm_probe: Option<DeltaNormProbe<K, V>>,
}

/// Loop-body handle onto the solution set of a [`DeltaIteration`].
///
/// It is not a [`DataSet`]: a loop body can only probe the solution set, as
/// the build side of [`DataSet::join_solution`], which looks keys up in the
/// driver's per-partition maps in place.
pub struct SolutionSet<K, V> {
    pub(crate) env: Environment,
    pub(crate) id: NodeId,
    _type: PhantomData<fn() -> (K, V)>,
}

impl<K, V> Clone for SolutionSet<K, V> {
    fn clone(&self) -> Self {
        SolutionSet { env: self.env.clone(), id: self.id, _type: PhantomData }
    }
}

impl<K: SolutionKey, V: Data, W: Data> DeltaIteration<K, V, W> {
    /// Start building a delta iteration.
    ///
    /// # Panics
    /// Panics when `max_iterations` is zero or the two datasets come from
    /// different environments.
    pub fn new(
        initial_solution: &DataSet<(K, V)>,
        initial_workset: &DataSet<W>,
        max_iterations: u32,
    ) -> Self {
        let outer = initial_solution.environment();
        assert!(
            Rc::ptr_eq(&initial_workset.environment().inner, &outer.inner),
            "solution set and workset must come from the same environment"
        );
        let builder = LoopBuilder::new(outer, max_iterations);
        let (solution_head, solution_slot) = builder.head::<(K, V)>("solution-set");
        let solution_head = SolutionSet {
            env: solution_head.environment(),
            id: solution_head.node_id(),
            _type: PhantomData,
        };
        let (workset_head, workset_slot) = builder.head("workset");
        DeltaIteration {
            builder,
            initial_solution_id: initial_solution.node_id(),
            initial_workset_id: initial_workset.node_id(),
            solution_slot,
            workset_slot,
            solution_head,
            workset_head,
            observer: None,
            norm_probe: None,
        }
    }

    /// Loop-body handle onto the current solution set, for
    /// [`DataSet::join_solution`].
    pub fn solution(&self) -> SolutionSet<K, V> {
        self.solution_head.clone()
    }

    /// Loop-body view of the current working set.
    pub fn workset(&self) -> DataSet<W> {
        self.workset_head.clone()
    }

    /// The loop-body environment.
    pub fn body_environment(&self) -> Environment {
        self.builder.body.clone()
    }

    /// Make an outer dataset visible inside the loop body.
    pub fn import<A: Data>(&mut self, outer: &DataSet<A>) -> DataSet<A> {
        self.builder.import(outer)
    }

    /// Install a fault handler (defaults to restart-from-scratch).
    pub fn set_fault_handler(&mut self, handler: impl FaultHandler<DeltaState<K, V, W>> + 'static) {
        self.builder.set_fault_handler(handler);
    }

    /// Install a failure source (defaults to no failures).
    pub fn set_failure_source(&mut self, failures: impl FailureSource + 'static) {
        self.builder.set_failure_source(failures);
    }

    /// Install a per-superstep observer.
    pub fn set_observer(
        &mut self,
        observer: impl FnMut(u32, &SolutionSets<K, V>, &Partitions<W>, &mut IterationStats) + 'static,
    ) {
        self.observer = Some(Box::new(observer));
    }

    /// Install a delta-norm probe: called before each delta is applied,
    /// with the pre-apply solution sets and the delta, to compute an
    /// algorithm-specific convergence norm. Per-partition changed counts
    /// and workset sizes are tracked by the driver itself; the probe only
    /// adds the optional norm dimension.
    pub fn set_norm_probe(
        &mut self,
        probe: impl FnMut(&SolutionSets<K, V>, &Partitions<(K, V)>) -> Option<f64> + 'static,
    ) {
        self.norm_probe = Some(Box::new(probe));
    }

    /// Override the chronological superstep budget.
    pub fn set_superstep_limit(&mut self, limit: u32) {
        self.builder.set_superstep_limit(limit);
    }

    /// Close the loop. `delta` contains solution-set upserts; `next_workset`
    /// feeds the next iteration. Returns the final solution set.
    pub fn close(
        self,
        delta: DataSet<(K, V)>,
        next_workset: DataSet<W>,
    ) -> (DataSet<(K, V)>, StatsHandle) {
        self.builder.assert_in_body(&delta, "delta");
        self.builder.assert_in_body(&next_workset, "next workset");
        let body = DeltaBody {
            solution_head_id: self.solution_head.id,
            workset_head_id: self.workset_head.node_id(),
            solution_slot: self.solution_slot,
            workset_slot: self.workset_slot,
            delta_id: delta.node_id(),
            next_workset_id: next_workset.node_id(),
            observer: self.observer,
            norm_probe: self.norm_probe,
        };
        let inputs = [self.initial_solution_id, self.initial_workset_id];
        self.builder.close("delta-iteration", &inputs, body)
    }
}

/// What a delta iteration adds to the shared superstep driver.
struct DeltaBody<K: SolutionKey, V: Data, W: Data> {
    solution_head_id: NodeId,
    workset_head_id: NodeId,
    solution_slot: SourceSlot,
    workset_slot: SourceSlot,
    delta_id: NodeId,
    next_workset_id: NodeId,
    observer: Option<DeltaObserverFn<K, V, W>>,
    norm_probe: Option<DeltaNormProbe<K, V>>,
}

/// Build per-partition solution maps from `(K, V)` records, routing each
/// entry to its key's partition.
fn build_solution_sets<K: SolutionKey, V: Data>(
    records: &Partitions<(K, V)>,
    parallelism: usize,
) -> SolutionSets<K, V> {
    let mut sets: SolutionSets<K, V> = (0..parallelism).map(|_| FxHashMap::default()).collect();
    for (k, v) in records.iter_records() {
        let pid = hash_partition(k, parallelism);
        sets[pid].insert(k.clone(), v.clone());
    }
    sets
}

/// Materialise the solution sets as a partitioned dataset, in a
/// deterministic per-partition order (hash maps iterate in arbitrary order;
/// sorting by key hash keeps runs bit-reproducible).
///
/// This clones and sorts the whole solution set, so the driver calls it
/// once per run, for the iteration's output. Supersteps never pay it: the
/// loop body probes the solution sets in place.
fn materialize_solution<K: SolutionKey, V: Data>(sets: &SolutionSets<K, V>) -> Partitions<(K, V)> {
    let parts = sets
        .iter()
        .map(|set| {
            let mut records: Vec<(K, V)> =
                set.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
            records.sort_by_key(|(k, _)| fx_hash(k));
            records
        })
        .collect();
    Partitions::from_parts(parts)
}

impl<K: SolutionKey, V: Data, W: Data> DeltaBody<K, V, W> {
    /// Take the solution sets back from the body's head slot. The body's
    /// executions have dropped their handles by now, so the `Arc` is
    /// unique and nothing is cloned.
    fn take_solution(&self) -> Result<SolutionSets<K, V>> {
        let lent = self.solution_slot.take().ok_or_else(|| {
            EngineError::Iteration("solution set was not lent to the loop body".into())
        })?;
        Ok(Arc::unwrap_or_clone(lent.into_shared("DeltaIteration(solution set)")?))
    }
}

impl<K: SolutionKey, V: Data, W: Data> LoopBody for DeltaBody<K, V, W> {
    type State = DeltaState<K, V, W>;
    const MODE: IterationMode = IterationMode::Delta;
    const KIND: &'static str = "DeltaIteration";

    fn heads(&self) -> Vec<NodeId> {
        vec![self.solution_head_id, self.workset_head_id]
    }

    fn targets(&self) -> Vec<NodeId> {
        vec![self.delta_id, self.next_workset_id]
    }

    fn initial(&self, inputs: &[Erased], parallelism: usize) -> Result<Self::State> {
        let solution: Partitions<(K, V)> = inputs[0].clone().take("DeltaIteration(solution)")?;
        Ok(DeltaState {
            solution: build_solution_sets(&solution, parallelism),
            workset: inputs[1].clone().take("DeltaIteration(workset)")?,
        })
    }

    fn finished(&self, state: &Self::State) -> bool {
        state.workset.is_empty()
    }

    fn converges_at_max(&self) -> bool {
        false
    }

    fn inject(&mut self, state: Self::State, _probing: bool) {
        self.solution_slot.fill(Erased::shared(Arc::new(state.solution)));
        self.workset_slot.fill(Erased::new(state.workset));
    }

    fn reclaim(&mut self) -> Result<Self::State> {
        // Upserts happen after the body, so a failed body left the solution
        // sets untouched; both come back from their head slots.
        let workset = self
            .workset_slot
            .take()
            .ok_or_else(|| {
                EngineError::Iteration("pre-superstep workset lost after partition panic".into())
            })?
            .take("DeltaIteration(panic recovery)")?;
        Ok(DeltaState { solution: self.take_solution()?, workset })
    }

    fn advance(&mut self, outputs: Vec<Erased>, probing: bool) -> Result<Advanced<Self::State>> {
        // Take both heads back before the outputs: a next workset that is
        // the workset head itself is then taken without a clone.
        drop(self.workset_slot.take());
        let mut solution = self.take_solution()?;
        let mut outputs = outputs.into_iter();
        let delta: Partitions<(K, V)> =
            outputs.next().expect("delta output").take("DeltaIteration(delta)")?;
        let workset: Partitions<W> =
            outputs.next().expect("workset output").take("DeltaIteration(next workset)")?;

        // Apply the delta: upsert each entry into its key's partition. The
        // norm probe must observe the solution *before* the apply loop
        // consumes the delta.
        let delta_size = delta.total_len() as u64;
        let delta_norm = if probing {
            self.norm_probe.as_mut().and_then(|probe| probe(&solution, &delta))
        } else {
            None
        };
        let parallelism = solution.len();
        let mut changed_per_partition = vec![0u64; parallelism];
        for (k, v) in delta.into_vec() {
            let pid = hash_partition(&k, parallelism);
            changed_per_partition[pid] += 1;
            solution[pid].insert(k, v);
        }
        Ok(Advanced {
            next: DeltaState { solution, workset },
            term_empty: false,
            measure: probing.then_some(ConvergenceMeasure { changed_per_partition, delta_norm }),
            delta_updates: Some(delta_size),
        })
    }

    fn workset_sizes(&self, state: &Self::State) -> Option<Vec<u64>> {
        Some(state.workset.partition_sizes().iter().map(|&n| n as u64).collect())
    }

    fn observe(&mut self, iteration: u32, state: &Self::State, stats: &mut IterationStats) {
        if let Some(observer) = &mut self.observer {
            observer(iteration, &state.solution, &state.workset, stats);
        }
    }

    fn output(&self, state: Self::State) -> Erased {
        Erased::new(materialize_solution(&state.solution))
    }

    fn explain(&self, body: &Environment) -> String {
        let inner = body.inner.borrow();
        let mut text = String::from("(delta:)\n");
        text.push_str(&inner.graph.explain(self.delta_id));
        text.push_str("(next workset:)\n");
        text.push_str(&inner.graph.explain(self.next_workset_id));
        text
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ft::DeterministicFailures;
    use crate::stats::{RecoveryKind, RunStats};

    type Label = (u64, u64);

    /// Min-label propagation over an undirected path graph 0-1-...-n-1,
    /// the delta-iteration workhorse used by Connected Components.
    fn min_label_run(
        n: u64,
        parallelism: usize,
        configure: impl FnOnce(&mut DeltaIteration<u64, u64, Label>),
    ) -> (Vec<Label>, RunStats) {
        let env = Environment::new(parallelism);
        let labels: Vec<Label> = (0..n).map(|v| (v, v)).collect();
        let solution = env.from_keyed_vec(labels.clone(), |r| r.0);
        let workset = env.from_keyed_vec(labels, |r| r.0);
        let mut edges: Vec<(u64, u64)> = Vec::new();
        for v in 0..n - 1 {
            edges.push((v, v + 1));
            edges.push((v + 1, v));
        }
        let edges_ds = env.from_keyed_vec(edges, |e| e.0);

        let mut it = DeltaIteration::new(&solution, &workset, 10 * n as u32);
        configure(&mut it);
        let edges_in = it.import(&edges_ds);
        let candidates = it
            .workset()
            .join("to-neighbors", &edges_in, |w: &Label| w.0, |e| e.0, |w, e| (e.1, w.1))
            .measured("messages")
            .reduce_by_key("min-candidate", |c| c.0, |a, b| if a.1 <= b.1 { a } else { b });
        let updates = candidates
            .join_solution(
                "label-update",
                &it.solution(),
                |c| c.0,
                |c, &label| {
                    if c.1 < label {
                        Some((c.0, c.1))
                    } else {
                        None
                    }
                },
            )
            .flat_map("updated-only", |u: &Option<Label>| u.iter().copied().collect());
        let (result, stats) = it.close(updates.clone(), updates);
        let mut labels = result.collect().unwrap();
        labels.sort_unstable();
        (labels, stats.take().unwrap())
    }

    #[test]
    fn min_label_propagates_to_all_vertices() {
        let (labels, stats) = min_label_run(16, 4, |_| {});
        assert!(labels.iter().all(|&(_, l)| l == 0), "{labels:?}");
        assert!(stats.converged);
        // The minimum travels one hop per iteration: 15 hops + 1 empty-check.
        assert!(stats.supersteps() >= 15);
    }

    #[test]
    fn workset_shrinks_as_vertices_converge() {
        let (_, stats) = min_label_run(16, 4, |_| {});
        let sizes: Vec<u64> = stats.iterations.iter().filter_map(|i| i.workset_size).collect();
        assert_eq!(sizes.last(), Some(&0), "workset must drain: {sizes:?}");
        assert!(sizes[0] >= sizes[sizes.len() - 2]);
    }

    #[test]
    fn messages_counter_tracks_candidate_labels() {
        let (_, stats) = min_label_run(8, 2, |_| {});
        let messages = stats.counter_series("messages");
        // First superstep: every vertex sends to every neighbour = 2*|E|.
        assert_eq!(messages[0], 14);
        assert_eq!(*messages.last().unwrap(), 1, "last update reaches the path end");
    }

    #[test]
    fn empty_initial_workset_converges_immediately() {
        let env = Environment::new(2);
        let solution = env.from_keyed_vec(vec![(1u64, 5u64)], |r| r.0);
        let workset = env.from_vec(Vec::<Label>::new());
        let it = DeltaIteration::new(&solution, &workset, 10);
        let delta = it.body_environment().from_vec(Vec::<Label>::new());
        let ws = it.body_environment().from_vec(Vec::<Label>::new());
        let (result, stats) = it.close(delta, ws);
        assert_eq!(result.collect().unwrap(), vec![(1, 5)]);
        let stats = stats.take().unwrap();
        assert!(stats.converged);
        assert_eq!(stats.supersteps(), 0);
    }

    #[test]
    fn restart_recovers_correctly_at_extra_cost() {
        let (labels, stats) = min_label_run(16, 4, |it| {
            it.set_failure_source(DeterministicFailures::new().fail_at(4, &[1]));
        });
        assert!(labels.iter().all(|&(_, l)| l == 0));
        assert!(stats.converged);
        let failure_kinds: Vec<_> = stats.failures().map(|(_, f)| f.recovery.clone()).collect();
        assert_eq!(failure_kinds, vec![RecoveryKind::Restarted]);
        // Restart pays the 5 pre-failure supersteps again.
        assert!(stats.supersteps() >= 20);
    }

    #[test]
    fn ignore_handler_converges_to_wrong_labels() {
        struct IgnoreAll;
        impl<S> FaultHandler<S> for IgnoreAll {
            fn on_failure(
                &mut self,
                _i: u32,
                _l: &[usize],
                _s: &mut S,
            ) -> Result<crate::ft::RecoveryAction<S>> {
                Ok(crate::ft::RecoveryAction::Ignore)
            }
        }
        let (labels, stats) = min_label_run(16, 4, |it| {
            it.set_fault_handler(IgnoreAll);
            it.set_failure_source(DeterministicFailures::new().fail_at(3, &[0, 1]));
        });
        // The run "converges", but vertices were lost outright — this is the
        // ablation the paper's compensation functions exist to prevent.
        assert!(stats.converged);
        assert!(labels.len() < 16, "lost vertices must be missing, got {}", labels.len());
    }

    #[test]
    fn max_iterations_bounds_non_converging_loop() {
        let env = Environment::new(2);
        let solution = env.from_keyed_vec(vec![(0u64, 0u64)], |r| r.0);
        let workset = env.from_keyed_vec(vec![(0u64, 0u64)], |r| r.0);
        let it = DeltaIteration::new(&solution, &workset, 5);
        // The workset never drains: each superstep re-emits it.
        let ws = it.workset();
        let delta = it.body_environment().from_vec(Vec::<Label>::new());
        let next_ws = ws.map("keep", |w: &Label| *w);
        let (result, stats) = it.close(delta, next_ws);
        result.collect().unwrap();
        let stats = stats.take().unwrap();
        assert!(!stats.converged);
        assert_eq!(stats.supersteps(), 5);
    }
}
