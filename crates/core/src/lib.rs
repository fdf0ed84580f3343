//! Optimistic recovery for iterative dataflows — the paper's contribution.
//!
//! In a distributed dataflow engine, the intermediate state of an iterative
//! algorithm is partitioned across workers; a worker failure destroys its
//! partitions. Classic *rollback recovery* periodically checkpoints the
//! state to stable storage and, on failure, restores the latest snapshot —
//! paying overhead on every run, failures or not.
//!
//! The optimistic alternative (Schelter et al., CIKM 2013; demonstrated in
//! Dudoladov et al., SIGMOD 2015) observes that a large class of fixpoint
//! algorithms converge to the correct solution from *many* intermediate
//! states, not just checkpointed ones. Instead of checkpointing, a
//! user-supplied **compensation function** re-initialises lost partitions to
//! a consistent state from which the algorithm keeps converging:
//!
//! * Connected Components: reset lost vertices to their initial labels and
//!   let them (and their neighbours) re-propagate.
//! * PageRank: ranks must sum to one, so uniformly redistribute the lost
//!   probability mass over the vertices of the failed partitions.
//!
//! Failure-free runs proceed with **zero** fault-tolerance overhead.
//!
//! This crate implements, on top of the `dataflow` engine's fault hooks, one
//! handler per strategy; each serves bulk and delta iterations alike through
//! the engine's single [`dataflow::ft::FaultHandler`] trait:
//!
//! * [`compensation`] — the compensation-function trait with closure
//!   adapters.
//! * [`optimistic`] — the optimistic fault handler.
//! * [`checkpoint`] — the rollback baseline: interval checkpointing into a
//!   [`checkpoint::StableStore`] (in-memory or on-disk) with a configurable
//!   stable-storage cost model.
//! * [`async_snapshot`] — the asynchronous-barrier-snapshot baseline
//!   (Chandy–Lamport / Flink style): barriers capture a consistent cut
//!   without a global pause and the stable-storage writes spread over the
//!   following supersteps; recovery restores the last *complete* epoch.
//! * [`incremental`] — an optimised rollback variant for delta iterations
//!   that logs solution-set diffs between full snapshots.
//! * [`ignore`] — the do-nothing "handler" used by the ablation study.
//! * [`RestartHandler`] — restart from scratch (the engine's default,
//!   re-exported).
//! * [`scenario`] — failure schedules (deterministic and random/MTBF).
//! * [`strategy`] — experiment-facing strategy descriptors.

#![warn(missing_docs)]

pub mod async_snapshot;
pub mod checkpoint;
pub mod compensation;
pub mod ignore;
pub mod incremental;
pub mod optimistic;
pub mod scenario;
pub mod strategy;

pub use async_snapshot::{AsyncSnapshotHandler, ChunkSink};
pub use checkpoint::{CheckpointHandler, CostModel, DiskStore, MemoryStore, StableStore};
pub use compensation::Compensation;
pub use dataflow::ft::RestartHandler;
pub use ignore::IgnoreHandler;
pub use incremental::IncrementalDeltaHandler;
pub use optimistic::OptimisticHandler;
pub use scenario::{FailureScenario, RandomFailures};
pub use strategy::Strategy;
