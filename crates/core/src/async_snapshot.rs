//! Asynchronous barrier snapshots: rollback recovery without a global pause.
//!
//! The strongest production competitor to optimistic recovery is not the
//! blocking checkpoint of [`crate::checkpoint`] but the Chandy–Lamport-style
//! *asynchronous* barrier snapshot used by Apache Flink ("Lightweight
//! Asynchronous Snapshots for Distributed Dataflows"): a barrier marker is
//! injected into the dataflow every `interval` iterations, each partition
//! captures its state when the marker passes, and the expensive
//! stable-storage writes happen in the background while the computation
//! keeps running.
//!
//! This module reproduces that cost structure on the superstep loop. When a
//! barrier fires at iteration `E` the handler encodes every partition's
//! state locally (the cheap, aligned capture — the superstep boundary *is*
//! the consistent cut, so no channel draining is needed), then persists
//! **one partition chunk per subsequent superstep**: with parallelism `P`
//! the snapshot of epoch `E` reaches stable storage at iteration `E+P-1`,
//! spreading the write cost instead of stalling the run. An epoch counts
//! only once *every* chunk is durable; recovery restores the last
//! **complete** epoch and never a partial one — a failure mid-flight aborts
//! the in-flight barrier, rolls back to the previous complete epoch (or
//! restarts when none exists), and a fresh barrier fires on recomputation.
//!
//! The cluster coordinator installs a [`ChunkSink`] to ship every
//! persisted chunk to the owning worker (the barrier marker flowing
//! through the topology). It captures no channel state: its re-seed
//! superstep rebuilds the messages in flight from the restored state.

use std::time::Instant;

use dataflow::error::{EngineError, Result};
use dataflow::ft::{CheckpointCost, FaultHandler, RecoveryAction, SnapshotState};
use dataflow::partition::PartitionId;
use telemetry::{JournalEvent, SinkHandle};

use crate::checkpoint::StableStore;

/// Receives every chunk as it reaches stable storage: `(epoch, pid, chunk)`.
pub type ChunkSink = Box<dyn FnMut(u32, PartitionId, &[u8])>;

/// One barrier whose chunks are still being written to stable storage.
struct InFlight {
    epoch: u32,
    /// Locally captured chunks, one per partition, persisted in order.
    chunks: Vec<Vec<u8>>,
    /// Index of the next chunk to persist.
    next: usize,
}

/// The last epoch whose every chunk reached stable storage.
#[derive(Debug, Clone, Copy)]
struct Complete {
    epoch: u32,
    partitions: usize,
}

fn chunk_key(kind: &str, epoch: u32, pid: usize) -> String {
    format!("async-{kind}-{epoch}-p{pid}")
}

/// Asynchronous-barrier-snapshot handler for bulk and delta iterations.
///
/// See the [module docs](self) for the mechanism. Each partition chunk
/// carries that partition's state (for a delta iteration: its solution set
/// and its workset). Restores carry the last complete epoch's state; before
/// the first epoch completes, failures degrade to a restart (exactly like
/// [`crate::checkpoint`] before its first snapshot).
pub struct AsyncSnapshotHandler<St> {
    store: St,
    interval: u32,
    telemetry: SinkHandle,
    chunk_sink: Option<ChunkSink>,
    in_flight: Option<InFlight>,
    complete: Option<Complete>,
}

impl<St: StableStore> AsyncSnapshotHandler<St> {
    /// Fire a barrier at iterations `0, interval, 2·interval, ...` (skipping
    /// multiples that land while a snapshot is still in flight).
    ///
    /// # Panics
    /// Panics when `interval` is zero.
    pub fn new(store: St, interval: u32) -> Self {
        assert!(interval > 0, "snapshot interval must be at least 1");
        AsyncSnapshotHandler {
            store,
            interval,
            telemetry: SinkHandle::disabled(),
            chunk_sink: None,
            in_flight: None,
            complete: None,
        }
    }

    /// Report barrier starts/completions and restores to the given sink.
    pub fn with_telemetry(mut self, telemetry: SinkHandle) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Hand every persisted chunk to `sink` (the cluster coordinator ships
    /// chunks to their owning workers from here).
    pub fn with_chunk_sink(mut self, sink: ChunkSink) -> Self {
        self.chunk_sink = Some(sink);
        self
    }

    /// The epoch of the last complete (restorable) snapshot, if any.
    pub fn latest_complete(&self) -> Option<u32> {
        self.complete.map(|c| c.epoch)
    }

    /// The epoch of the snapshot currently being written, if any.
    pub fn in_flight_epoch(&self) -> Option<u32> {
        self.in_flight.as_ref().map(|f| f.epoch)
    }

    /// Borrow the underlying store (e.g. for byte accounting).
    pub fn store(&self) -> &St {
        &self.store
    }

    /// Persist the next pending chunk, completing the epoch when it was the
    /// last one; then fire a new barrier if `iteration` is due and no
    /// barrier is in flight. `capture` encodes one partition's chunk; `kind`
    /// tags the state kind in the chunk keys.
    fn advance(
        &mut self,
        kind: &str,
        iteration: u32,
        partitions: usize,
        capture: impl Fn(usize) -> Vec<u8>,
    ) -> Result<Option<CheckpointCost>> {
        let start = Instant::now();
        let mut persisted = 0u64;
        if self.in_flight.is_some() {
            persisted += self.persist_next_chunk(kind)?;
        }
        // A barrier due while one is still in flight is skipped (the next
        // multiple of `interval` after completion fires instead) — one
        // snapshot at a time, like Flink's default concurrent-checkpoint
        // limit of 1.
        if self.in_flight.is_none() && iteration.is_multiple_of(self.interval) {
            let chunks: Vec<Vec<u8>> = (0..partitions).map(&capture).collect();
            self.telemetry
                .emit(|| JournalEvent::SnapshotBarrierStarted { epoch: iteration, partitions });
            self.in_flight = Some(InFlight { epoch: iteration, chunks, next: 0 });
            persisted += self.persist_next_chunk(kind)?;
        }
        if persisted == 0 {
            return Ok(None);
        }
        Ok(Some(CheckpointCost { bytes: persisted, duration: start.elapsed() }))
    }

    /// Write the in-flight epoch's next chunk to stable storage; after its
    /// last chunk the epoch becomes the restore point, superseding the
    /// previous one. Returns the bytes written.
    fn persist_next_chunk(&mut self, kind: &str) -> Result<u64> {
        let in_flight = self.in_flight.as_mut().expect("in-flight barrier present");
        let (epoch, pid) = (in_flight.epoch, in_flight.next);
        in_flight.next += 1;
        let is_last = in_flight.next == in_flight.chunks.len();
        let chunk = &in_flight.chunks[pid];
        self.store.put(&chunk_key(kind, epoch, pid), chunk)?;
        if let Some(sink) = &mut self.chunk_sink {
            sink(epoch, pid, chunk);
        }
        let written = chunk.len() as u64;
        if is_last {
            let done = self.in_flight.take().expect("in-flight barrier present");
            let bytes: u64 = done.chunks.iter().map(|c| c.len() as u64).sum();
            let partitions = done.chunks.len();
            if let Some(old) = self.complete.replace(Complete { epoch, partitions }) {
                for old_pid in 0..old.partitions {
                    self.store.remove(&chunk_key(kind, old.epoch, old_pid))?;
                }
            }
            self.telemetry.emit(|| JournalEvent::SnapshotBarrierCompleted {
                epoch,
                partitions,
                bytes,
            });
        }
        Ok(written)
    }

    /// Discard a partial in-flight epoch (failure mid-snapshot): recovery
    /// must never restore from it.
    fn abort_in_flight(&mut self, kind: &str) -> Result<()> {
        if let Some(in_flight) = self.in_flight.take() {
            for pid in 0..in_flight.next {
                self.store.remove(&chunk_key(kind, in_flight.epoch, pid))?;
            }
        }
        Ok(())
    }

    /// Fetch the chunks of the last complete epoch, if any.
    fn complete_chunks(&self, kind: &str) -> Result<Option<(u32, Vec<Vec<u8>>)>> {
        let Some(complete) = self.complete else { return Ok(None) };
        let mut chunks = Vec::with_capacity(complete.partitions);
        for pid in 0..complete.partitions {
            let key = chunk_key(kind, complete.epoch, pid);
            let chunk = self.store.get(&key)?.ok_or_else(|| {
                EngineError::Recovery(format!("snapshot chunk {key} vanished from stable storage"))
            })?;
            chunks.push(chunk);
        }
        Ok(Some((complete.epoch, chunks)))
    }
}

impl<S: SnapshotState, St: StableStore> FaultHandler<S> for AsyncSnapshotHandler<St> {
    fn after_superstep(&mut self, iteration: u32, state: &S) -> Result<Option<CheckpointCost>> {
        self.advance(S::KIND, iteration, state.num_partitions(), |pid| {
            let mut out = Vec::new();
            state.encode_partition(pid, &mut out);
            out
        })
    }

    fn on_failure(
        &mut self,
        _iteration: u32,
        _lost: &[PartitionId],
        _state: &mut S,
    ) -> Result<RecoveryAction<S>> {
        self.abort_in_flight(S::KIND)?;
        let Some((epoch, chunks)) = self.complete_chunks(S::KIND)? else {
            return Ok(RecoveryAction::Restart);
        };
        let state = S::decode_partitions(&chunks)?;
        self.telemetry.emit(|| JournalEvent::CheckpointRestored { iteration: epoch });
        Ok(RecoveryAction::Restored { iteration: epoch, state })
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use super::*;
    use crate::checkpoint::MemoryStore;
    use dataflow::dataset::Partitions;
    use dataflow::ft::{DeltaState, SolutionSets};

    fn state(round: u64) -> Partitions<u64> {
        Partitions::round_robin((0..8).map(|v| v + 100 * round).collect(), 4)
    }

    #[test]
    fn snapshot_writes_spread_over_supersteps() {
        let mut handler = AsyncSnapshotHandler::new(MemoryStore::new(), 4);
        // Barrier fires at iteration 0; with 4 partitions one chunk lands
        // per superstep, so the epoch completes at iteration 3.
        assert!(handler.after_superstep(0, &state(0)).unwrap().is_some());
        assert_eq!(handler.in_flight_epoch(), Some(0));
        assert_eq!(handler.latest_complete(), None);
        assert_eq!(handler.store().len(), 1);
        assert!(handler.after_superstep(1, &state(1)).unwrap().is_some());
        assert!(handler.after_superstep(2, &state(2)).unwrap().is_some());
        assert_eq!(handler.store().len(), 3);
        assert!(handler.after_superstep(3, &state(3)).unwrap().is_some());
        assert_eq!(handler.in_flight_epoch(), None);
        assert_eq!(handler.latest_complete(), Some(0));
        assert_eq!(handler.store().len(), 4);

        // A complete epoch restores the state as of the barrier iteration.
        let mut broken = state(4);
        broken.clear_partition(1);
        match handler.on_failure(4, &[1], &mut broken).unwrap() {
            RecoveryAction::Restored { iteration, state: restored } => {
                assert_eq!(iteration, 0);
                assert_eq!(restored, state(0));
            }
            _ => panic!("expected a restore from the complete epoch"),
        }
    }

    #[test]
    fn completed_epochs_supersede_and_garbage_collect_older_ones() {
        let mut handler = AsyncSnapshotHandler::new(MemoryStore::new(), 4);
        // Epoch 0 completes at iteration 3; epoch 4 completes at 7.
        for iteration in 0..8 {
            handler.after_superstep(iteration, &state(u64::from(iteration))).unwrap();
        }
        assert_eq!(handler.latest_complete(), Some(4));
        assert_eq!(handler.store().len(), 4, "epoch 0's chunks were garbage collected");
        let mut broken = state(8);
        broken.clear_partition(0);
        match handler.on_failure(8, &[0], &mut broken).unwrap() {
            RecoveryAction::Restored { iteration, state: restored } => {
                assert_eq!(iteration, 4);
                assert_eq!(restored, state(4));
            }
            _ => panic!("expected a restore from epoch 4"),
        }
    }

    #[test]
    fn never_restores_from_a_partial_snapshot() {
        let mut handler = AsyncSnapshotHandler::new(MemoryStore::new(), 4);
        // Two chunks of epoch 0 are durable, two are not: the failure must
        // degrade to a restart, never restore the partial epoch.
        handler.after_superstep(0, &state(0)).unwrap();
        handler.after_superstep(1, &state(1)).unwrap();
        let mut broken = state(2);
        broken.clear_partition(2);
        match handler.on_failure(2, &[2], &mut broken).unwrap() {
            RecoveryAction::Restart => {}
            _ => panic!("a partial snapshot must never be restored"),
        }
        assert_eq!(handler.store().len(), 0, "partial chunks were discarded");
        assert_eq!(handler.in_flight_epoch(), None);
    }

    #[test]
    fn failure_mid_flight_falls_back_to_the_previous_complete_epoch() {
        let mut handler = AsyncSnapshotHandler::new(MemoryStore::new(), 4);
        for iteration in 0..6 {
            handler.after_superstep(iteration, &state(u64::from(iteration))).unwrap();
        }
        // Epoch 0 is complete; epoch 4 has persisted chunks 0 and 1 only.
        assert_eq!(handler.latest_complete(), Some(0));
        assert_eq!(handler.in_flight_epoch(), Some(4));
        let mut broken = state(6);
        broken.clear_partition(3);
        match handler.on_failure(6, &[3], &mut broken).unwrap() {
            RecoveryAction::Restored { iteration, state: restored } => {
                assert_eq!(iteration, 0, "the in-flight epoch 4 must be skipped");
                assert_eq!(restored, state(0));
            }
            _ => panic!("expected a restore from epoch 0"),
        }
        assert_eq!(handler.store().len(), 4, "epoch 4's partial chunks were discarded");
    }

    #[test]
    fn barriers_due_mid_flight_are_skipped() {
        // interval 2 < parallelism 4: the barrier at iteration 2 lands while
        // epoch 0 is still persisting and is skipped; the next barrier fires
        // at iteration 4 (the first multiple after completion).
        let mut handler = AsyncSnapshotHandler::new(MemoryStore::new(), 2);
        for iteration in 0..4 {
            handler.after_superstep(iteration, &state(u64::from(iteration))).unwrap();
        }
        assert_eq!(handler.latest_complete(), Some(0));
        assert_eq!(handler.in_flight_epoch(), None);
        handler.after_superstep(4, &state(4)).unwrap();
        assert_eq!(handler.in_flight_epoch(), Some(4));
    }

    #[test]
    fn chunk_sink_sees_every_persisted_chunk_in_order() {
        let seen: Rc<RefCell<Vec<String>>> = Rc::default();
        let log = seen.clone();
        let mut handler = AsyncSnapshotHandler::new(MemoryStore::new(), 4).with_chunk_sink(
            Box::new(move |epoch, pid, chunk| {
                assert!(!chunk.is_empty(), "chunk {epoch}:{pid} is empty");
                log.borrow_mut().push(format!("{epoch}:{pid}"));
            }),
        );
        for iteration in 0..5 {
            handler.after_superstep(iteration, &state(u64::from(iteration))).unwrap();
        }
        let mut broken = state(5);
        broken.clear_partition(0);
        handler.on_failure(5, &[0], &mut broken).unwrap();
        handler.after_superstep(1, &state(1)).unwrap();
        // Epoch 0 persists one chunk per superstep, epoch 4 gets one chunk
        // out before the failure aborts it, and nothing persists after it.
        assert_eq!(*seen.borrow(), vec!["0:0", "0:1", "0:2", "0:3", "4:0"]);
    }

    #[test]
    fn single_partition_snapshots_complete_immediately() {
        let mut handler = AsyncSnapshotHandler::new(MemoryStore::new(), 3);
        let state = Partitions::round_robin(vec![7u64, 8, 9], 1);
        handler.after_superstep(0, &state).unwrap();
        assert_eq!(handler.latest_complete(), Some(0));
        assert_eq!(handler.in_flight_epoch(), None);
    }

    #[test]
    fn delta_chunks_roundtrip_solution_and_workset() {
        let mut handler = AsyncSnapshotHandler::new(MemoryStore::new(), 2);
        let mut solution: SolutionSets<u64, u64> = vec![Default::default(); 2];
        solution[0].insert(2, 20);
        solution[1].insert(1, 10);
        let workset = Partitions::from_parts(vec![vec![(2u64, 20u64)], vec![(1u64, 10u64)]]);
        let state = DeltaState { solution, workset };
        // Two partitions: the epoch at iteration 0 completes at iteration 1.
        handler.after_superstep(0, &state).unwrap();
        assert_eq!(handler.latest_complete(), None);
        handler.after_superstep(1, &state).unwrap();
        assert_eq!(handler.latest_complete(), Some(0));

        let mut broken: DeltaState<u64, u64, (u64, u64)> =
            DeltaState { solution: vec![Default::default(); 2], workset: Partitions::empty(2) };
        match handler.on_failure(2, &[0], &mut broken).unwrap() {
            RecoveryAction::Restored { iteration, state: restored } => {
                assert_eq!(iteration, 0);
                assert_eq!(restored.solution[0].get(&2), Some(&20));
                assert_eq!(restored.solution[1].get(&1), Some(&10));
                assert_eq!(restored.workset.partition(0), &[(2, 20)]);
                assert_eq!(restored.workset.partition(1), &[(1, 10)]);
            }
            _ => panic!("expected a restore"),
        }
    }

    #[test]
    fn delta_partial_snapshots_restart() {
        let mut handler = AsyncSnapshotHandler::new(MemoryStore::new(), 1);
        let empty = || -> DeltaState<u64, u64, u64> {
            DeltaState { solution: vec![Default::default(); 3], workset: Partitions::empty(3) }
        };
        handler.after_superstep(0, &empty()).unwrap();
        match handler.on_failure(1, &[1], &mut empty()).unwrap() {
            RecoveryAction::Restart => {}
            _ => panic!("no complete epoch yet: must restart"),
        }
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_interval_is_rejected() {
        let _ = AsyncSnapshotHandler::new(MemoryStore::new(), 0);
    }
}
