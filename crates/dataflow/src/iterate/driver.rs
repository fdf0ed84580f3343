//! The superstep driver shared by bulk and delta iterations.
//!
//! While a loop is being built, [`LoopBuilder`] holds everything the two
//! iteration kinds have in common: the loop-body environment and its
//! imports, the superstep budget, the fault handler and the failure source.
//! Closing the loop moves them into [`SuperstepDriver`], which runs the
//! superstep loop over a [`LoopBody`]. The body contributes only what
//! differs between the kinds — how the state enters the loop body, how the
//! body's outputs become the next state, and when the loop has converged.
//! Every failure, whether injected at a barrier or raised by a panicking UDF
//! or a lost worker, goes through the one [`SuperstepDriver::recover`] path.

use std::rc::Rc;
use std::time::Duration;

use telemetry::{IterationMode, JournalEvent, Norm, SpanKind, SpanRecord};

use crate::api::{DataSet, Environment};
use crate::dataset::{Data, Erased};
use crate::error::{EngineError, Result};
use crate::exec::{self, ExecContext, PlanCache};
use crate::ft::{
    FailureSource, FaultHandler, IterationState, NoFailures, RecoveryAction, RestartHandler,
};
use crate::iterate::{ConvergenceMeasure, StatsHandle};
use crate::operators::{InjectedSource, SourceSlot};
use crate::partition::PartitionId;
use crate::plan::{DynOp, NodeId};
use crate::stats::{FailureRecord, IterationStats, RecoveryKind, RunStats};

/// What bulk and delta iterations share while the loop is being built:
/// body environment, imports, budget, fault handler and failure source.
pub(crate) struct LoopBuilder<S> {
    outer: Environment,
    pub(crate) body: Environment,
    import_ids: Vec<NodeId>,
    import_slots: Vec<SourceSlot>,
    max_iterations: u32,
    superstep_limit: u32,
    handler: Box<dyn FaultHandler<S>>,
    failures: Box<dyn FailureSource>,
}

impl<S: IterationState> LoopBuilder<S> {
    pub(crate) fn new(outer: Environment, max_iterations: u32) -> Self {
        assert!(max_iterations > 0, "an iteration needs at least one iteration");
        let body = Environment::with_config(outer.config());
        LoopBuilder {
            outer,
            body,
            import_ids: Vec::new(),
            import_slots: Vec::new(),
            max_iterations,
            // Generous default: rollbacks and restarts re-execute supersteps,
            // but runaway recovery loops should fail loudly.
            superstep_limit: max_iterations.saturating_mul(4).saturating_add(16),
            handler: Box::new(RestartHandler),
            failures: Box::new(NoFailures),
        }
    }

    /// A loop-body head node fed from a fresh slot.
    pub(crate) fn head<T: Data>(&self, name: &str) -> (DataSet<T>, SourceSlot) {
        let slot = SourceSlot::new();
        let head = self.body.add_node(name, vec![], Box::new(InjectedSource::new(slot.clone())));
        (head, slot)
    }

    pub(crate) fn import<A: Data>(&mut self, outer: &DataSet<A>) -> DataSet<A> {
        assert!(
            Rc::ptr_eq(&outer.environment().inner, &self.outer.inner),
            "import source must come from the enclosing environment"
        );
        let (inner, slot) = self.head("import");
        self.import_ids.push(outer.node_id());
        self.import_slots.push(slot);
        inner
    }

    pub(crate) fn set_fault_handler(&mut self, handler: impl FaultHandler<S> + 'static) {
        self.handler = Box::new(handler);
    }

    pub(crate) fn set_failure_source(&mut self, failures: impl FailureSource + 'static) {
        self.failures = Box::new(failures);
    }

    pub(crate) fn set_superstep_limit(&mut self, limit: u32) {
        self.superstep_limit = limit;
    }

    /// Assert that `dataset` was built inside the loop body.
    pub(crate) fn assert_in_body<A: Data>(&self, dataset: &DataSet<A>, what: &str) {
        assert!(
            Rc::ptr_eq(&dataset.environment().inner, &self.body.inner),
            "{what} must be built inside the loop body"
        );
    }

    /// Close the loop: add the iteration node, fed by `state_inputs` and
    /// the imports, to the enclosing environment.
    pub(crate) fn close<B, O>(
        self,
        name: &str,
        state_inputs: &[NodeId],
        body: B,
    ) -> (DataSet<O>, StatsHandle)
    where
        B: LoopBody<State = S> + 'static,
        O: Data,
    {
        // The operator lives in the enclosing environment's plan, so it must
        // not hold that environment: the `Rc` cycle would keep the plan, and
        // everything the loop body owns, alive forever.
        let LoopBuilder {
            outer,
            body: body_env,
            import_ids,
            import_slots,
            max_iterations,
            superstep_limit,
            handler,
            failures,
        } = self;
        let stats = StatsHandle::new();
        let mut inputs = state_inputs.to_vec();
        inputs.extend(import_ids);
        let op = SuperstepDriver {
            body_env,
            import_slots,
            max_iterations,
            superstep_limit,
            handler,
            failures,
            body,
            state_inputs: state_inputs.len(),
            stats: stats.clone(),
        };
        (outer.add_node(name, inputs, Box::new(op)), stats)
    }
}

/// What one successful superstep produced.
pub(crate) struct Advanced<S> {
    /// The state entering the next superstep.
    pub(crate) next: S,
    /// The termination criterion evaluated empty.
    pub(crate) term_empty: bool,
    /// The `ConvergenceSample` measurement (telemetry-enabled runs only).
    pub(crate) measure: Option<ConvergenceMeasure>,
    /// Solution-set upserts applied (delta iterations only).
    pub(crate) delta_updates: Option<u64>,
}

/// The part of an iteration that differs between bulk and delta.
pub(crate) trait LoopBody {
    /// The state carried from one superstep to the next.
    type State: IterationState;
    /// Journal tag of the iteration kind.
    const MODE: IterationMode;
    /// Operator kind shown by `explain()`.
    const KIND: &'static str;

    /// Body head nodes that read the iteration state.
    fn heads(&self) -> Vec<NodeId>;
    /// Body nodes whose outputs a superstep consumes.
    fn targets(&self) -> Vec<NodeId>;
    /// The initial state from the iteration node's leading state inputs.
    fn initial(&self, inputs: &[Erased], parallelism: usize) -> Result<Self::State>;
    /// The state is a fixpoint before running another superstep.
    fn finished(&self, state: &Self::State) -> bool;
    /// Whether running to `max_iterations` counts as converged.
    fn converges_at_max(&self) -> bool;
    /// Feed `state` into the body heads.
    fn inject(&mut self, state: Self::State, probing: bool);
    /// Take back the state injected by the superstep whose body failed.
    fn reclaim(&mut self) -> Result<Self::State>;
    /// Turn the body outputs into the next state.
    fn advance(&mut self, outputs: Vec<Erased>, probing: bool) -> Result<Advanced<Self::State>>;
    /// Per-partition working-set sizes (delta iterations only).
    fn workset_sizes(&self, state: &Self::State) -> Option<Vec<u64>>;
    /// Total working-set size (delta iterations only).
    fn workset_size(&self, state: &Self::State) -> Option<u64> {
        self.workset_sizes(state).map(|sizes| sizes.iter().sum())
    }
    /// Run the user observer.
    fn observe(&mut self, iteration: u32, state: &Self::State, stats: &mut IterationStats);
    /// The iteration node's output dataset.
    fn output(&self, state: Self::State) -> Erased;
    /// The body plan rendering for `explain()`.
    fn explain(&self, body: &Environment) -> String;
}

/// The iteration operator: one superstep loop for both iteration kinds.
struct SuperstepDriver<B: LoopBody> {
    body_env: Environment,
    import_slots: Vec<SourceSlot>,
    max_iterations: u32,
    superstep_limit: u32,
    handler: Box<dyn FaultHandler<B::State>>,
    failures: Box<dyn FailureSource>,
    body: B,
    /// Number of leading node inputs that carry the initial state.
    state_inputs: usize,
    stats: StatsHandle,
}

/// Where the superstep loop stands, for the recovery paths.
struct Step<'a, S> {
    ctx: &'a ExecContext,
    superstep: u32,
    iteration: u32,
    /// The state a restart goes back to.
    initial: &'a S,
}

impl<B: LoopBody> SuperstepDriver<B> {
    /// The one recovery path: drop the lost partitions of `state`, let the
    /// fault handler repair it, and return the failure record plus the
    /// logical iteration to run next. `resume` is where compensation and
    /// ignore continue: the next iteration after an injected failure, the
    /// same iteration after a panic (whose superstep left no output).
    fn recover(
        &mut self,
        step: &Step<'_, B::State>,
        lost: Vec<PartitionId>,
        state: &mut B::State,
        resume: u32,
    ) -> Result<(FailureRecord, u32)> {
        let telemetry = &step.ctx.config.telemetry;
        let (superstep, iteration) = (step.superstep, step.iteration);
        let lost_records: u64 = lost.iter().map(|&pid| state.drop_partition(pid)).sum();
        telemetry.emit(|| JournalEvent::FailureInjected {
            superstep,
            iteration,
            lost_partitions: lost.clone(),
            lost_records,
        });
        let recovery_timer = telemetry.timer(SpanKind::Recovery, Some(superstep), Some(iteration));
        let (recovery, next_iteration) = match self.handler.on_failure(iteration, &lost, state)? {
            RecoveryAction::Compensated => (RecoveryKind::Compensated, resume),
            RecoveryAction::Restored { iteration: restored, state: restored_state } => {
                *state = restored_state;
                (RecoveryKind::RolledBack { to_iteration: restored }, restored + 1)
            }
            RecoveryAction::Restart => {
                *state = step.initial.clone();
                (RecoveryKind::Restarted, 0)
            }
            RecoveryAction::Ignore => (RecoveryKind::Ignored, resume),
        };
        let recovery_duration = recovery_timer.finish();
        telemetry.emit(|| JournalEvent::from_recovery(&recovery, iteration));
        let record =
            FailureRecord { lost_partitions: lost, lost_records, recovery, recovery_duration };
        Ok((record, next_iteration))
    }

    /// A UDF panicked — or a cluster worker process died — mid-superstep:
    /// the step's outputs never materialised, so recover the pre-superstep
    /// state from the injection slots, treat the affected partitions as
    /// failed, and redo the logical iteration. Partial counters and shuffle
    /// bookkeeping of the aborted step are discarded — no
    /// `SuperstepCompleted` entry exists for it.
    fn recover_aborted(
        &mut self,
        step: &Step<'_, B::State>,
        failure: EngineError,
    ) -> Result<(B::State, IterationStats, u32)> {
        let telemetry = &step.ctx.config.telemetry;
        let (superstep, iteration) = (step.superstep, step.iteration);
        let mut state = self.body.reclaim()?;
        let lost = match failure {
            EngineError::PartitionPanic { pid, .. } => {
                telemetry.emit(|| JournalEvent::PartitionPanicked { superstep, iteration, pid });
                vec![pid]
            }
            EngineError::WorkerLost { worker, pids, .. } => {
                telemetry.emit(|| JournalEvent::WorkerLost {
                    superstep,
                    iteration,
                    worker,
                    lost_partitions: pids.clone(),
                });
                pids
            }
            other => return Err(other),
        };
        let (failure, next_iteration) = self.recover(step, lost, &mut state, iteration)?;
        let istats = IterationStats {
            superstep,
            iteration,
            workset_size: self.body.workset_size(&state),
            failure: Some(failure),
            ..Default::default()
        };
        Ok((state, istats, next_iteration))
    }
}

impl<B: LoopBody> DynOp for SuperstepDriver<B> {
    fn execute(&mut self, inputs: &[Erased], ctx: &ExecContext) -> Result<Erased> {
        let parallelism = ctx.config.parallelism;
        let (state_inputs, imports) = inputs.split_at(self.state_inputs);
        let initial = self.body.initial(state_inputs, parallelism)?;
        for (slot, input) in self.import_slots.iter().zip(imports) {
            slot.fill(input.clone());
        }

        // Loop-invariant caching: body nodes that never read the iteration
        // state run once and are reused in every superstep.
        let volatile = {
            let inner = self.body_env.inner.borrow();
            if ctx.config.loop_invariant_caching {
                inner.graph.volatility(&self.body.heads())
            } else {
                vec![true; inner.graph.len()]
            }
        };
        let mut invariant_cache = PlanCache::new();
        let targets = self.body.targets();

        let mut run = RunStats::default();
        let mut state = initial.clone();
        let mut iteration: u32 = 0;
        let mut superstep: u32 = 0;
        let mut converged = false;
        let telemetry = ctx.config.telemetry.clone();
        let probing = telemetry.enabled();
        telemetry.emit(|| JournalEvent::RunStarted {
            mode: B::MODE,
            parallelism,
            max_iterations: self.max_iterations,
        });
        let run_timer = telemetry.timer(SpanKind::Run, None, None);

        loop {
            if self.body.finished(&state) {
                converged = true;
                break;
            }
            if iteration >= self.max_iterations {
                break;
            }
            if superstep >= self.superstep_limit {
                return Err(EngineError::Iteration(format!(
                    "superstep budget of {} exhausted at logical iteration {iteration} \
                     (likely a recovery live-lock)",
                    self.superstep_limit
                )));
            }
            let step = Step { ctx, superstep, iteration, initial: &initial };

            // 1. Execute the loop body over the current state.
            let step_timer = telemetry.timer(SpanKind::Superstep, Some(superstep), Some(iteration));
            let step_ctx = ExecContext::new(ctx.config.clone()).at_superstep(superstep);
            self.body.inject(state, probing);
            let compute_timer =
                telemetry.timer(SpanKind::Compute, Some(superstep), Some(iteration));
            let body_result = {
                let mut inner = self.body_env.inner.borrow_mut();
                exec::execute_cached(
                    &mut inner.graph,
                    &targets,
                    &step_ctx,
                    &volatile,
                    &mut invariant_cache,
                )
            };
            let outputs = match body_result {
                Ok(outputs) => outputs,
                Err(
                    failure @ (EngineError::PartitionPanic { .. } | EngineError::WorkerLost { .. }),
                ) => {
                    let duration = compute_timer.finish();
                    let _ = step_ctx.drain();
                    let _ = step_ctx.take_shuffle_time();
                    let (recovered, mut istats, next_iteration) =
                        self.recover_aborted(&step, failure)?;
                    istats.duration = duration;
                    self.body.observe(iteration, &recovered, &mut istats);
                    run.iterations.push(istats);
                    let _ = step_timer.finish();
                    superstep += 1;
                    state = recovered;
                    iteration = next_iteration;
                    continue;
                }
                Err(other) => return Err(other),
            };
            let Advanced { mut next, term_empty, measure, delta_updates } =
                self.body.advance(outputs, probing)?;
            let duration = compute_timer.finish();

            // 2. Superstep statistics.
            let (counters, shuffled) = step_ctx.drain();
            let shuffle_time = step_ctx.take_shuffle_time();
            if shuffle_time > Duration::ZERO {
                telemetry.span(&SpanRecord {
                    kind: SpanKind::Shuffle,
                    superstep: Some(superstep),
                    iteration: Some(iteration),
                    duration: shuffle_time,
                });
            }
            let workset_sizes = self.body.workset_sizes(&next);
            let workset_size = workset_sizes.as_ref().map(|sizes| sizes.iter().sum());
            telemetry.emit(|| JournalEvent::SuperstepCompleted {
                superstep,
                iteration,
                records_shuffled: shuffled,
                workset_size,
            });
            if let Some(measure) = measure {
                telemetry.emit(|| JournalEvent::ConvergenceSample {
                    superstep,
                    iteration,
                    changed: measure.changed(),
                    changed_per_partition: measure.changed_per_partition,
                    delta_norm: measure.delta_norm.map(Norm),
                    workset_per_partition: workset_sizes,
                });
            }
            let mut istats = IterationStats {
                superstep,
                iteration,
                duration,
                counters,
                records_shuffled: shuffled,
                workset_size,
                ..Default::default()
            };
            if let Some(updates) = delta_updates {
                istats.counters.insert("delta_updates".into(), updates);
            }

            // 3. Fault-tolerance hook (checkpointing).
            if let Some(cost) = self.handler.after_superstep(iteration, &next)? {
                telemetry.emit(|| JournalEvent::CheckpointWritten { iteration, bytes: cost.bytes });
                telemetry.span(&SpanRecord {
                    kind: SpanKind::Checkpoint,
                    superstep: Some(superstep),
                    iteration: Some(iteration),
                    duration: cost.duration,
                });
                istats.checkpoint_bytes = Some(cost.bytes);
                istats.checkpoint_duration = Some(cost.duration);
            }

            // 4. Failure injection and recovery.
            let mut next_iteration = iteration + 1;
            let lost = self.failures.poll(superstep, parallelism).filter(|l| !l.is_empty());
            let failed = lost.is_some();
            if let Some(lost) = lost {
                let (failure, resume_at) = self.recover(&step, lost, &mut next, iteration + 1)?;
                next_iteration = resume_at;
                istats.workset_size = self.body.workset_size(&next);
                istats.failure = Some(failure);
            }

            // 5. Observe, record, decide termination.
            self.body.observe(iteration, &next, &mut istats);
            run.iterations.push(istats);
            let _ = step_timer.finish();
            superstep += 1;
            state = next;
            if term_empty && !failed {
                converged = true;
                break;
            }
            iteration = next_iteration;
        }

        run.converged = converged || self.body.converges_at_max();
        run.total_duration = run_timer.finish();
        telemetry.emit(|| JournalEvent::RunCompleted {
            supersteps: run.supersteps(),
            iterations: run.logical_iterations(),
            converged: run.converged,
        });
        self.stats.set(run);
        Ok(self.body.output(state))
    }

    fn kind(&self) -> &'static str {
        B::KIND
    }

    fn body_explain(&self) -> Option<String> {
        Some(self.body.explain(&self.body_env))
    }
}
