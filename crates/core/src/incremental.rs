//! Incremental checkpointing for delta iterations — an optimisation of the
//! rollback baseline that exploits the same observation as delta iterations
//! themselves: late in a run, only a small fraction of the solution set
//! changes per superstep.
//!
//! Instead of a full snapshot every superstep, the handler writes a full
//! *base* snapshot every `full_interval` supersteps and, in between, only
//! the *diff* of the solution set since the previous superstep (plus the
//! current working set, which is small exactly when the diffs are small).
//! On failure it restores the base and replays the logged diffs.
//!
//! This narrows — but does not close — the failure-free gap to optimistic
//! recovery: the bytes written per superstep shrink as the algorithm
//! converges, yet every superstep still pays a stable-storage round trip.
//! The `incremental_vs_full` rows of the recovery-comparison experiment
//! quantify this.

use std::hash::Hash;
use std::time::Instant;

use dataflow::codec::{encode_slice, Codec};
use dataflow::dataset::{Data, Partitions};
use dataflow::error::{EngineError, Result};
use dataflow::ft::{
    CheckpointCost, DeltaState, FaultHandler, RecoveryAction, SnapshotState, SolutionSets,
};
use dataflow::partition::PartitionId;
use telemetry::{JournalEvent, SinkHandle};

use crate::checkpoint::StableStore;

/// Incremental rollback recovery for delta iterations with solution-set
/// entries `(K, V)`.
pub struct IncrementalDeltaHandler<K, V, St> {
    store: St,
    full_interval: u32,
    /// Iteration and key of the latest full snapshot.
    base: Option<(u32, String)>,
    /// Keys of the diff logs written since the base, in replay order.
    diff_chain: Vec<String>,
    /// Shadow copy of the solution set as of the last checkpointed
    /// superstep, used to compute diffs locally (local memory is cheap; the
    /// modelled cost is stable-storage traffic).
    shadow: SolutionSets<K, V>,
    sequence: u64,
    telemetry: SinkHandle,
}

impl<K, V, St: StableStore> IncrementalDeltaHandler<K, V, St> {
    /// Handler writing full snapshots every `full_interval` supersteps and
    /// diffs in between.
    ///
    /// # Panics
    /// Panics when `full_interval` is zero.
    pub fn new(store: St, full_interval: u32) -> Self {
        assert!(full_interval > 0, "full-snapshot interval must be at least 1");
        IncrementalDeltaHandler {
            store,
            full_interval,
            base: None,
            diff_chain: Vec::new(),
            shadow: Vec::new(),
            sequence: 0,
            telemetry: SinkHandle::disabled(),
        }
    }

    /// Report restores and diff-chain replays to the given telemetry sink.
    pub fn with_telemetry(mut self, telemetry: SinkHandle) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Borrow the underlying store (byte accounting).
    pub fn store(&self) -> &St {
        &self.store
    }

    /// Number of diff logs currently chained onto the base snapshot.
    pub fn chain_length(&self) -> usize {
        self.diff_chain.len()
    }
}

impl<K, V, W, St> FaultHandler<DeltaState<K, V, W>> for IncrementalDeltaHandler<K, V, St>
where
    K: Data + Codec + Hash + Eq,
    V: Data + Codec + PartialEq,
    W: Data + Codec,
    St: StableStore,
{
    fn after_superstep(
        &mut self,
        iteration: u32,
        state: &DeltaState<K, V, W>,
    ) -> Result<Option<CheckpointCost>> {
        let start = Instant::now();
        self.sequence += 1;
        let take_full = self.base.is_none() || iteration.is_multiple_of(self.full_interval);
        let mut bytes = Vec::new();
        if take_full {
            // Full base snapshot: solution + workset.
            state.encode_state(&mut bytes);
            let key = format!("base-{iteration}-{}", self.sequence);
            self.store.put(&key, &bytes)?;
            // Drop the superseded chain from stable storage.
            if let Some((_, old_base)) = self.base.replace((iteration, key)) {
                self.store.remove(&old_base)?;
            }
            for old_diff in self.diff_chain.drain(..) {
                self.store.remove(&old_diff)?;
            }
        } else {
            // Diff since the shadow: upserts per partition + the workset.
            let upserts: Vec<Vec<(K, V)>> = state
                .solution
                .iter()
                .enumerate()
                .map(|(pid, set)| {
                    let shadow = self.shadow.get(pid);
                    set.iter()
                        .filter(|(k, v)| shadow.and_then(|s| s.get(k)) != Some(v))
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect()
                })
                .collect();
            upserts.encode(&mut bytes);
            encode_slice(state.workset.as_parts(), &mut bytes);
            let key = format!("diff-{iteration}-{}", self.sequence);
            self.store.put(&key, &bytes)?;
            self.diff_chain.push(key);
        }
        self.shadow = state.solution.clone();
        Ok(Some(CheckpointCost { bytes: bytes.len() as u64, duration: start.elapsed() }))
    }

    fn on_failure(
        &mut self,
        _iteration: u32,
        _lost: &[PartitionId],
        _state: &mut DeltaState<K, V, W>,
    ) -> Result<RecoveryAction<DeltaState<K, V, W>>> {
        let Some((base_iteration, base_key)) = &self.base else {
            return Ok(RecoveryAction::Restart);
        };
        let base_iteration = *base_iteration;
        let blob = self.store.get(base_key)?.ok_or_else(|| {
            EngineError::Recovery(format!("base snapshot {base_key} vanished from stable storage"))
        })?;
        let mut state = DeltaState::<K, V, W>::decode_state(&blob)?;
        let mut iteration = base_iteration;

        // Replay the diff chain on top of the base.
        for diff_key in &self.diff_chain {
            let blob = self.store.get(diff_key)?.ok_or_else(|| {
                EngineError::Recovery(format!("diff log {diff_key} vanished from stable storage"))
            })?;
            let mut input = blob.as_slice();
            let upserts = Vec::<Vec<(K, V)>>::decode(&mut input)?;
            if upserts.len() != state.solution.len() {
                return Err(EngineError::Recovery(format!(
                    "diff log {diff_key} has {} partitions, snapshot has {}",
                    upserts.len(),
                    state.solution.len()
                )));
            }
            for (set, upserts) in state.solution.iter_mut().zip(upserts) {
                set.extend(upserts);
            }
            state.workset = Partitions::from_parts(Vec::<Vec<W>>::decode(&mut input)?);
            iteration += 1;
        }
        self.telemetry.emit(|| JournalEvent::CheckpointRestored { iteration: base_iteration });
        if !self.diff_chain.is_empty() {
            self.telemetry.emit(|| JournalEvent::DiffChainReplayed {
                base_iteration,
                diffs: self.diff_chain.len() as u32,
            });
        }
        // The restored state is exactly the latest checkpointed superstep.
        Ok(RecoveryAction::Restored { iteration, state })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::MemoryStore;
    use dataflow::hash::FxHashMap;

    type Handler = IncrementalDeltaHandler<u64, u64, MemoryStore>;
    type State = DeltaState<u64, u64, (u64, u64)>;

    fn state_of(
        entries: &[(usize, u64, u64)],
        parallelism: usize,
        workset: &Partitions<(u64, u64)>,
    ) -> State {
        let mut solution: SolutionSets<u64, u64> = vec![FxHashMap::default(); parallelism];
        for &(pid, k, v) in entries {
            solution[pid].insert(k, v);
        }
        DeltaState { solution, workset: workset.clone() }
    }

    #[test]
    fn diffs_are_smaller_than_full_snapshots() {
        let mut handler: Handler = IncrementalDeltaHandler::new(MemoryStore::new(), 100);
        let mut entries: Vec<(usize, u64, u64)> =
            (0..200).map(|k| ((k % 2) as usize, k, k)).collect();
        let workset = Partitions::from_parts(vec![vec![(0u64, 0u64)], vec![]]);

        let full = handler.after_superstep(0, &state_of(&entries, 2, &workset)).unwrap().unwrap();
        // One entry changes: the diff must be far smaller than the base.
        entries[7].2 = 999;
        let diff = handler.after_superstep(1, &state_of(&entries, 2, &workset)).unwrap().unwrap();
        assert!(diff.bytes * 10 < full.bytes, "diff {} vs full {}", diff.bytes, full.bytes);
        assert_eq!(handler.chain_length(), 1);
    }

    #[test]
    fn replay_restores_the_latest_state() {
        let mut handler: Handler = IncrementalDeltaHandler::new(MemoryStore::new(), 100);
        let mut entries: Vec<(usize, u64, u64)> = (0..10).map(|k| (0usize, k, k)).collect();
        let ws0 = Partitions::from_parts(vec![vec![(1u64, 1u64)], vec![]]);
        handler.after_superstep(0, &state_of(&entries, 2, &ws0)).unwrap();

        entries[3].2 = 42;
        let ws1 = Partitions::from_parts(vec![vec![], vec![(2u64, 2u64)]]);
        handler.after_superstep(1, &state_of(&entries, 2, &ws1)).unwrap();

        entries.push((1usize, 77, 78)); // new key appears in partition 1
        let ws2 = Partitions::from_parts(vec![vec![(3u64, 3u64)], vec![]]);
        handler.after_superstep(2, &state_of(&entries, 2, &ws2)).unwrap();

        let mut broken = state_of(&[], 2, &Partitions::empty(2));
        match handler.on_failure(3, &[0], &mut broken).unwrap() {
            RecoveryAction::Restored { iteration, state } => {
                assert_eq!(iteration, 2);
                assert_eq!(state.solution[0].get(&3), Some(&42));
                assert_eq!(state.solution[1].get(&77), Some(&78));
                assert_eq!(state.solution[0].len(), 10);
                assert_eq!(state.workset.partition(0), &[(3, 3)]);
            }
            _ => panic!("expected restore"),
        }
    }

    #[test]
    fn full_interval_resets_the_chain() {
        let mut handler: Handler = IncrementalDeltaHandler::new(MemoryStore::new(), 2);
        let entries: Vec<(usize, u64, u64)> = (0..5).map(|k| (0usize, k, k)).collect();
        let ws = Partitions::from_parts(vec![vec![], vec![]]);
        let state = state_of(&entries, 2, &ws);
        handler.after_superstep(0, &state).unwrap(); // full (0 % 2 == 0)
        handler.after_superstep(1, &state).unwrap(); // diff
        assert_eq!(handler.chain_length(), 1);
        handler.after_superstep(2, &state).unwrap(); // full again
        assert_eq!(handler.chain_length(), 0);
        // Stable storage holds only the latest base.
        assert_eq!(handler.store().len(), 1);
    }

    #[test]
    fn restart_before_first_snapshot() {
        let mut handler: Handler = IncrementalDeltaHandler::new(MemoryStore::new(), 3);
        let mut state = state_of(&[], 1, &Partitions::empty(1));
        match handler.on_failure(0, &[0], &mut state).unwrap() {
            RecoveryAction::Restart => {}
            _ => panic!("expected restart"),
        }
    }

    #[test]
    fn unchanged_state_produces_empty_diffs() {
        let mut handler: Handler = IncrementalDeltaHandler::new(MemoryStore::new(), 100);
        let entries: Vec<(usize, u64, u64)> = (0..50).map(|k| (0usize, k, k)).collect();
        let ws: Partitions<(u64, u64)> = Partitions::empty(2);
        let state = state_of(&entries, 2, &ws);
        let full = handler.after_superstep(0, &state).unwrap().unwrap();
        let diff = handler.after_superstep(1, &state).unwrap().unwrap();
        assert!(diff.bytes < full.bytes / 10, "empty diff must be tiny ({})", diff.bytes);
    }
}
