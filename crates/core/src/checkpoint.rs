//! Rollback recovery: interval checkpointing into stable storage.
//!
//! This is the pessimistic baseline the paper argues against (§2.2): every
//! `interval` iterations the full iteration state is serialised and written
//! to a [`StableStore`]; on failure the latest snapshot is restored and the
//! iterations since then are re-executed. The overhead is paid on *every*
//! run, failure or not — the quantity Experiment C1 measures.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dataflow::error::{EngineError, Result};
use dataflow::ft::{CheckpointCost, FaultHandler, RecoveryAction, SnapshotState};
use dataflow::partition::PartitionId;
use telemetry::{JournalEvent, SinkHandle};

/// Latency/throughput model of the stable storage behind a checkpoint store.
///
/// Local laptop memory is orders of magnitude faster than the replicated
/// distributed file systems real deployments checkpoint into; the model
/// injects a sleep so measured run times reproduce the *shape* of
/// checkpointing overhead. The default is [`CostModel::instant`] (no
/// sleeping) so unit tests stay fast.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Fixed per-write latency (round trips, replication pipeline setup).
    pub base: Duration,
    /// Transfer time per byte written.
    pub nanos_per_byte: f64,
}

impl CostModel {
    /// No modelled cost (pure in-memory behaviour).
    pub fn instant() -> Self {
        CostModel { base: Duration::ZERO, nanos_per_byte: 0.0 }
    }

    /// Model from a base latency and sustained throughput.
    pub fn throughput(base: Duration, bytes_per_sec: u64) -> Self {
        assert!(bytes_per_sec > 0, "throughput must be positive");
        CostModel { base, nanos_per_byte: 1.0e9 / bytes_per_sec as f64 }
    }

    /// A replicated distributed file system: 2 ms setup, 100 MB/s sustained.
    pub fn distributed_fs() -> Self {
        CostModel::throughput(Duration::from_millis(2), 100 * 1024 * 1024)
    }

    /// The modelled delay for writing `bytes`.
    pub fn delay_for(&self, bytes: u64) -> Duration {
        if self.base.is_zero() && self.nanos_per_byte == 0.0 {
            return Duration::ZERO;
        }
        self.base + Duration::from_nanos((bytes as f64 * self.nanos_per_byte) as u64)
    }

    /// Sleep for the modelled delay and return it.
    pub fn simulate(&self, bytes: u64) -> Duration {
        let delay = self.delay_for(bytes);
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
        delay
    }
}

/// Key-value blob storage for checkpoints.
pub trait StableStore {
    /// Persist `bytes` under `key`, replacing any previous value.
    fn put(&mut self, key: &str, bytes: &[u8]) -> Result<()>;

    /// Fetch the value stored under `key`.
    fn get(&self, key: &str) -> Result<Option<Vec<u8>>>;

    /// Remove the value stored under `key` (idempotent).
    fn remove(&mut self, key: &str) -> Result<()>;

    /// Total bytes written over the store's lifetime.
    fn bytes_written(&self) -> u64;
}

/// In-memory store with a stable-storage cost model.
#[derive(Debug, Default)]
pub struct MemoryStore {
    blobs: HashMap<String, Vec<u8>>,
    model: Option<CostModel>,
    bytes_written: u64,
}

impl MemoryStore {
    /// Store without modelled latency.
    pub fn new() -> Self {
        MemoryStore::default()
    }

    /// Store sleeping per the given model on every write.
    pub fn with_cost_model(model: CostModel) -> Self {
        MemoryStore { model: Some(model), ..Default::default() }
    }

    /// Number of blobs currently held.
    pub fn len(&self) -> usize {
        self.blobs.len()
    }

    /// True when the store holds nothing.
    pub fn is_empty(&self) -> bool {
        self.blobs.is_empty()
    }
}

impl StableStore for MemoryStore {
    fn put(&mut self, key: &str, bytes: &[u8]) -> Result<()> {
        if let Some(model) = &self.model {
            model.simulate(bytes.len() as u64);
        }
        self.bytes_written += bytes.len() as u64;
        self.blobs.insert(key.to_string(), bytes.to_vec());
        Ok(())
    }

    fn get(&self, key: &str) -> Result<Option<Vec<u8>>> {
        Ok(self.blobs.get(key).cloned())
    }

    fn remove(&mut self, key: &str) -> Result<()> {
        self.blobs.remove(key);
        Ok(())
    }

    fn bytes_written(&self) -> u64 {
        self.bytes_written
    }
}

/// On-disk store: one file per key under a directory. Real I/O, plus an
/// optional extra cost model on top.
#[derive(Debug)]
pub struct DiskStore {
    dir: PathBuf,
    model: Option<CostModel>,
    bytes_written: u64,
    cleanup_on_drop: bool,
}

impl DiskStore {
    /// Store under `dir` (created if missing).
    pub fn new(dir: impl AsRef<Path>) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        Ok(DiskStore { dir, model: None, bytes_written: 0, cleanup_on_drop: false })
    }

    /// Store under a fresh directory inside the system temp dir.
    pub fn temp() -> Result<Self> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let unique = format!(
            "optirec-ckpt-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        );
        let mut store = DiskStore::new(std::env::temp_dir().join(unique))?;
        store.cleanup_on_drop = true;
        Ok(store)
    }

    /// Add a cost model on top of the real file I/O.
    pub fn with_cost_model(mut self, model: CostModel) -> Self {
        self.model = Some(model);
        self
    }

    /// The backing directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_for(&self, key: &str) -> PathBuf {
        let sanitized: String = key
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() || c == '-' { c } else { '_' })
            .collect();
        self.dir.join(format!("{sanitized}.ckpt"))
    }
}

impl Drop for DiskStore {
    fn drop(&mut self) {
        if self.cleanup_on_drop {
            std::fs::remove_dir_all(&self.dir).ok();
        }
    }
}

impl StableStore for DiskStore {
    fn put(&mut self, key: &str, bytes: &[u8]) -> Result<()> {
        if let Some(model) = &self.model {
            model.simulate(bytes.len() as u64);
        }
        self.bytes_written += bytes.len() as u64;
        std::fs::write(self.path_for(key), bytes)?;
        Ok(())
    }

    fn get(&self, key: &str) -> Result<Option<Vec<u8>>> {
        match std::fs::read(self.path_for(key)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    fn remove(&mut self, key: &str) -> Result<()> {
        match std::fs::remove_file(self.path_for(key)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    fn bytes_written(&self) -> u64 {
        self.bytes_written
    }
}

impl StableStore for Box<dyn StableStore> {
    fn put(&mut self, key: &str, bytes: &[u8]) -> Result<()> {
        (**self).put(key, bytes)
    }

    fn get(&self, key: &str) -> Result<Option<Vec<u8>>> {
        (**self).get(key)
    }

    fn remove(&mut self, key: &str) -> Result<()> {
        (**self).remove(key)
    }

    fn bytes_written(&self) -> u64 {
        (**self).bytes_written()
    }
}

/// Rollback-recovery handler: checkpoint the iteration state every
/// `interval` iterations, restore the latest snapshot on failure. A bulk
/// iteration's snapshot is its partitions; a delta iteration's is the
/// solution sets plus the working set.
pub struct CheckpointHandler<St> {
    store: St,
    interval: u32,
    latest: Option<(u32, String)>,
    telemetry: SinkHandle,
}

impl<St: StableStore> CheckpointHandler<St> {
    /// Checkpoint into `store` at iterations `0, interval, 2·interval, ...`.
    ///
    /// # Panics
    /// Panics when `interval` is zero.
    pub fn new(store: St, interval: u32) -> Self {
        assert!(interval > 0, "checkpoint interval must be at least 1");
        CheckpointHandler { store, interval, latest: None, telemetry: SinkHandle::disabled() }
    }

    /// Report checkpoint restores to the given telemetry sink.
    pub fn with_telemetry(mut self, telemetry: SinkHandle) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The iteration of the most recent snapshot, if any.
    pub fn latest_checkpoint(&self) -> Option<u32> {
        self.latest.as_ref().map(|(iteration, _)| *iteration)
    }

    /// Borrow the underlying store (e.g. for byte accounting).
    pub fn store(&self) -> &St {
        &self.store
    }
}

impl<S: SnapshotState, St: StableStore> FaultHandler<S> for CheckpointHandler<St> {
    fn after_superstep(&mut self, iteration: u32, state: &S) -> Result<Option<CheckpointCost>> {
        if !iteration.is_multiple_of(self.interval) {
            return Ok(None);
        }
        let start = Instant::now();
        let mut bytes = Vec::new();
        state.encode_state(&mut bytes);
        let key = format!("{}-{iteration}", S::KIND);
        self.store.put(&key, &bytes)?;
        if let Some((_, old_key)) = self.latest.replace((iteration, key)) {
            self.store.remove(&old_key)?;
        }
        Ok(Some(CheckpointCost { bytes: bytes.len() as u64, duration: start.elapsed() }))
    }

    fn on_failure(
        &mut self,
        _iteration: u32,
        _lost: &[PartitionId],
        _state: &mut S,
    ) -> Result<RecoveryAction<S>> {
        let Some((iteration, key)) = &self.latest else { return Ok(RecoveryAction::Restart) };
        let bytes = self.store.get(key)?.ok_or_else(|| {
            EngineError::Recovery(format!("checkpoint {key} vanished from stable storage"))
        })?;
        let state = S::decode_state(&bytes)?;
        let iteration = *iteration;
        self.telemetry.emit(|| JournalEvent::CheckpointRestored { iteration });
        Ok(RecoveryAction::Restored { iteration, state })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataflow::dataset::Partitions;
    use dataflow::ft::{DeltaState, SolutionSets};

    #[test]
    fn cost_model_delay_scales_with_bytes() {
        let model = CostModel::throughput(Duration::from_millis(1), 1_000_000);
        assert_eq!(model.delay_for(0), Duration::from_millis(1));
        assert_eq!(model.delay_for(1_000_000), Duration::from_millis(1001));
        assert_eq!(CostModel::instant().delay_for(u64::MAX), Duration::ZERO);
    }

    #[test]
    fn memory_store_roundtrip_and_accounting() {
        let mut store = MemoryStore::new();
        store.put("a", &[1, 2, 3]).unwrap();
        store.put("b", &[4]).unwrap();
        assert_eq!(store.get("a").unwrap(), Some(vec![1, 2, 3]));
        assert_eq!(store.get("missing").unwrap(), None);
        assert_eq!(store.bytes_written(), 4);
        store.remove("a").unwrap();
        assert_eq!(store.get("a").unwrap(), None);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn disk_store_roundtrip() {
        let mut store = DiskStore::temp().unwrap();
        store.put("bulk-3", b"snapshot").unwrap();
        assert_eq!(store.get("bulk-3").unwrap(), Some(b"snapshot".to_vec()));
        assert_eq!(store.get("bulk-4").unwrap(), None);
        store.remove("bulk-3").unwrap();
        assert_eq!(store.get("bulk-3").unwrap(), None);
        store.remove("bulk-3").unwrap(); // idempotent
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn disk_store_sanitizes_keys() {
        let mut store = DiskStore::temp().unwrap();
        store.put("../evil/../../key", b"x").unwrap();
        // The file must live inside the store directory.
        let entries: Vec<_> = std::fs::read_dir(store.dir()).unwrap().collect();
        assert_eq!(entries.len(), 1);
        assert_eq!(store.get("../evil/../../key").unwrap(), Some(b"x".to_vec()));
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn bulk_handler_checkpoints_on_interval_and_restores() {
        let mut handler = CheckpointHandler::new(MemoryStore::new(), 2);
        let state0 = Partitions::round_robin(vec![1u64, 2, 3, 4], 2);
        // Iteration 0: checkpointed. Iteration 1: skipped. Iteration 2: checkpointed.
        assert!(handler.after_superstep(0, &state0).unwrap().is_some());
        assert!(handler.after_superstep(1, &state0).unwrap().is_none());
        let state2 = Partitions::round_robin(vec![10u64, 20, 30, 40], 2);
        let cost = handler.after_superstep(2, &state2).unwrap().unwrap();
        assert!(cost.bytes > 0);
        assert_eq!(handler.latest_checkpoint(), Some(2));

        let mut broken = state2.clone();
        broken.clear_partition(0);
        match handler.on_failure(3, &[0], &mut broken).unwrap() {
            RecoveryAction::Restored { iteration, state } => {
                assert_eq!(iteration, 2);
                assert_eq!(state, state2);
            }
            _ => panic!("expected a rollback"),
        }
    }

    #[test]
    fn bulk_handler_restarts_before_first_checkpoint() {
        let mut handler = CheckpointHandler::new(MemoryStore::new(), 5);
        let mut state = Partitions::round_robin(vec![1u64], 1);
        match handler.on_failure(0, &[0], &mut state).unwrap() {
            RecoveryAction::Restart => {}
            _ => panic!("no checkpoint yet: must restart"),
        }
    }

    #[test]
    fn old_checkpoints_are_garbage_collected() {
        let mut handler = CheckpointHandler::new(MemoryStore::new(), 1);
        let state = Partitions::round_robin(vec![1u64, 2], 2);
        for iteration in 0..5 {
            handler.after_superstep(iteration, &state).unwrap();
        }
        assert_eq!(handler.store().len(), 1, "only the latest snapshot is kept");
    }

    #[test]
    fn delta_handler_roundtrips_solution_and_workset() {
        let mut handler = CheckpointHandler::new(MemoryStore::new(), 1);
        let mut solution: SolutionSets<u64, u64> = vec![Default::default(); 2];
        solution[0].insert(2, 20);
        solution[1].insert(1, 10);
        let workset = Partitions::from_parts(vec![vec![(2u64, 20u64)], vec![]]);
        let cost = handler.after_superstep(4, &DeltaState { solution, workset }).unwrap().unwrap();
        assert!(cost.bytes > 0);

        let mut broken: DeltaState<u64, u64, (u64, u64)> =
            DeltaState { solution: vec![Default::default(); 2], workset: Partitions::empty(2) };
        match handler.on_failure(5, &[0], &mut broken).unwrap() {
            RecoveryAction::Restored { iteration, state } => {
                assert_eq!(iteration, 4);
                assert_eq!(state.solution[0].get(&2), Some(&20));
                assert_eq!(state.solution[1].get(&1), Some(&10));
                assert_eq!(state.workset.partition(0), &[(2, 20)]);
            }
            _ => panic!("expected a rollback"),
        }
    }

    #[test]
    fn delta_handler_restarts_before_first_checkpoint() {
        let mut handler = CheckpointHandler::new(MemoryStore::new(), 3);
        let mut state: DeltaState<u64, u64, u64> =
            DeltaState { solution: vec![Default::default()], workset: Partitions::empty(1) };
        match handler.on_failure(1, &[0], &mut state).unwrap() {
            RecoveryAction::Restart => {}
            _ => panic!("no checkpoint yet: must restart"),
        }
    }
}
