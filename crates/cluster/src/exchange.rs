//! Worker-side data-plane inbox: collects peer
//! [`ShuffleFrame`](crate::protocol::Message::ShuffleFrame)s per
//! chronological superstep and tracks flush completeness.
//!
//! One [`DataPlane`] lives per worker process, shared between the control
//! connection (which installs membership and waits for slot completeness
//! before computing) and the peer listener threads (which deposit frames).
//! Slots are keyed by the chronological superstep that *produced* the
//! messages; the consuming [`crate::protocol::Message::StepGo`] names the
//! slot explicitly, so output of failed attempts is never consumed — it is
//! simply never named and is garbage-collected once a later slot is
//! consumed or a new membership is installed. A slot is consumed exactly
//! once: recovery never re-reads one, because the re-seed superstep after a
//! failure derives every in-flight message from the pushed state.
//!
//! Epoch filtering is the data-plane half of the "declared dead" protocol
//! (the coordinator's superstep-echo skip is the control-plane half): every
//! peer frame carries the producer's membership epoch, and the inbox drops
//! frames from any epoch other than the current one. A straggler that the
//! coordinator already replaced can therefore not double-deliver into a
//! survivor's inbox, no matter how late its frames surface.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::protocol::Msg;

/// One superstep's worth of collected peer messages.
#[derive(Debug, Default)]
struct Slot {
    /// Deposited messages, in arrival order (sorted by the consumer).
    msgs: Vec<Msg>,
    /// Members whose [`crate::protocol::Message::ShuffleFlush`] arrived.
    flushed: BTreeSet<u64>,
}

/// The inbox state proper; wrapped in a mutex inside [`DataPlane`].
#[derive(Debug, Default)]
struct Inbox {
    /// Current membership epoch; frames from any other epoch are dropped.
    epoch: u64,
    /// Current members (including this worker) — a slot is complete once
    /// every member has flushed it.
    members: BTreeSet<u64>,
    /// Per-superstep slots. Retained until GC'd by a later consume.
    slots: BTreeMap<u32, Slot>,
    /// Supersteps below this have been consumed or garbage-collected; late
    /// frames for them are dropped without creating a new slot.
    floor: u32,
    /// Members whose incoming peer connection dropped under the current
    /// epoch. A slot missing a gone member's flush can never complete, so
    /// waiters fail fast instead of burning the full data timeout.
    gone: BTreeSet<u64>,
    /// Count of dropped stale frames (wrong epoch or below the GC floor),
    /// for tests and logs.
    dropped: u64,
}

impl Inbox {
    fn slot_complete(&self, superstep: u32) -> bool {
        self.slots
            .get(&superstep)
            .is_some_and(|slot| self.members.iter().all(|m| slot.flushed.contains(m)))
    }
}

/// The worker's shared data-plane inbox: a mutex-protected inbox state plus
/// a condvar so the compute path can block until a slot is complete.
///
/// Uses `std::sync` rather than the vendored `parking_lot` stand-in because
/// the latter deliberately ships no `Condvar`.
#[derive(Debug, Default)]
pub struct DataPlane {
    inbox: Mutex<Inbox>,
    complete: Condvar,
}

impl DataPlane {
    /// Install a new membership epoch and drop every slot: the coordinator
    /// follows each membership change with a re-seed superstep, so nothing
    /// deposited under the old epoch is ever consumed, and frames still in
    /// flight from the old epoch are rejected at arrival time by the epoch
    /// check.
    pub fn install_membership(&self, epoch: u64, members: impl IntoIterator<Item = u64>) {
        let mut inbox = self.inbox.lock().unwrap();
        inbox.epoch = epoch;
        inbox.members = members.into_iter().collect();
        inbox.slots.clear();
        inbox.gone.clear();
        drop(inbox);
        self.complete.notify_all();
    }

    /// Record that `peer`'s incoming connection dropped while `epoch` was
    /// current. Ignored if the membership has moved on (the old incarnation's
    /// socket closing after a respawn is expected, not news). Wakes waiters
    /// so they can fail fast on slots the dead peer never flushed.
    pub fn peer_gone(&self, epoch: u64, peer: u64) {
        let mut inbox = self.inbox.lock().unwrap();
        if epoch != inbox.epoch {
            return;
        }
        inbox.gone.insert(peer);
        drop(inbox);
        self.complete.notify_all();
    }

    /// Deposit one peer frame's messages into `superstep`'s slot. Frames
    /// from a stale epoch or below the GC floor are dropped (counted, not
    /// stored) — this is the satellite-3 double-delivery guard.
    pub fn deposit(&self, epoch: u64, superstep: u32, msgs: &[Msg]) {
        let mut inbox = self.inbox.lock().unwrap();
        if epoch != inbox.epoch || superstep < inbox.floor {
            inbox.dropped += 1;
            return;
        }
        inbox.slots.entry(superstep).or_default().msgs.extend_from_slice(msgs);
    }

    /// Record a member's end-of-superstep flush. Stale-epoch / below-floor
    /// flushes are dropped like frames. Wakes any waiter when the slot
    /// becomes complete.
    pub fn flush(&self, epoch: u64, superstep: u32, from_worker: u64) {
        let mut inbox = self.inbox.lock().unwrap();
        if epoch != inbox.epoch || superstep < inbox.floor {
            inbox.dropped += 1;
            return;
        }
        inbox.slots.entry(superstep).or_default().flushed.insert(from_worker);
        let done = inbox.slot_complete(superstep);
        drop(inbox);
        if done {
            self.complete.notify_all();
        }
    }

    /// Block until `superstep`'s slot is complete (every current member
    /// flushed) or `timeout` elapses. Fails immediately — without waiting
    /// out the timeout — if a member whose flush is still missing has
    /// dropped its peer connection, since that slot can never complete.
    /// On failure returns the members whose flush is missing, for
    /// [`crate::protocol::Message::StepFailed`].
    pub fn wait_complete(&self, superstep: u32, timeout: Duration) -> Result<(), Vec<u64>> {
        let deadline = Instant::now() + timeout;
        let mut inbox = self.inbox.lock().unwrap();
        loop {
            if inbox.slot_complete(superstep) {
                return Ok(());
            }
            let flushed =
                inbox.slots.get(&superstep).map(|slot| slot.flushed.clone()).unwrap_or_default();
            let missing: Vec<u64> =
                inbox.members.iter().copied().filter(|m| !flushed.contains(m)).collect();
            let now = Instant::now();
            if now >= deadline || missing.iter().any(|m| inbox.gone.contains(m)) {
                return Err(missing);
            }
            let (guard, _) = self.complete.wait_timeout(inbox, deadline - now).unwrap();
            inbox = guard;
        }
    }

    /// Take `superstep`'s collected messages sorted by `(src, dst, bits)` —
    /// the canonical order `run_local` folds in, so cluster and local runs
    /// are bitwise-comparable — and garbage-collect it with every older
    /// slot.
    pub fn take_sorted(&self, superstep: u32) -> Vec<Msg> {
        let mut inbox = self.inbox.lock().unwrap();
        let mut msgs = inbox.slots.remove(&superstep).map(|slot| slot.msgs).unwrap_or_default();
        inbox.floor = superstep.saturating_add(1);
        inbox.slots.retain(|&s, _| s > superstep);
        drop(inbox);
        msgs.sort_unstable();
        msgs
    }

    /// Current membership epoch (what outgoing frames must be tagged with).
    pub fn epoch(&self) -> u64 {
        self.inbox.lock().unwrap().epoch
    }

    /// Count of frames/flushes dropped as stale (tests, logs).
    pub fn dropped(&self) -> u64 {
        self.inbox.lock().unwrap().dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_completes_when_every_member_flushes() {
        let plane = DataPlane::default();
        plane.install_membership(1, [0, 1, 2]);
        plane.deposit(1, 5, &[(1, 0, 7)]);
        plane.flush(1, 5, 0);
        plane.flush(1, 5, 1);
        assert!(plane.wait_complete(5, Duration::from_millis(1)).is_err());
        plane.flush(1, 5, 2);
        plane.wait_complete(5, Duration::from_millis(100)).unwrap();
        assert_eq!(plane.take_sorted(5), vec![(1, 0, 7)]);
    }

    #[test]
    fn take_sorted_orders_canonically_and_consumes_the_slot() {
        let plane = DataPlane::default();
        plane.install_membership(1, [0]);
        plane.deposit(1, 3, &[(2, 1, 9), (0, 1, 4)]);
        plane.deposit(1, 3, &[(1, 0, 5)]);
        plane.flush(1, 3, 0);
        assert_eq!(plane.take_sorted(3), vec![(0, 1, 4), (1, 0, 5), (2, 1, 9)]);
        // Consumed exactly once: a late frame for it is dropped, not stored.
        plane.deposit(1, 3, &[(7, 0, 1)]);
        assert_eq!(plane.take_sorted(3), Vec::<Msg>::new());
        assert_eq!(plane.dropped(), 1);
    }

    #[test]
    fn consuming_a_slot_garbage_collects_older_ones() {
        let plane = DataPlane::default();
        plane.install_membership(1, [0]);
        plane.deposit(1, 2, &[(0, 0, 1)]);
        plane.deposit(1, 4, &[(0, 0, 2)]);
        assert_eq!(plane.take_sorted(4), vec![(0, 0, 2)]);
        // Slot 2 is gone, and a late frame for it is dropped (below the
        // floor), not resurrected.
        plane.deposit(1, 2, &[(0, 0, 3)]);
        assert_eq!(plane.take_sorted(2), Vec::<Msg>::new());
        assert!(plane.dropped() >= 1);
    }

    #[test]
    fn stale_epoch_frames_cannot_double_deliver() {
        // Superstep 6 completed under epoch 1, then a straggler was declared
        // dead mid-superstep-7 and the coordinator installed epoch 2. The
        // new membership drops every old slot — the re-seed that follows
        // derives the in-flight messages from state — and the straggler's
        // late frames and flush must not land in any slot.
        let plane = DataPlane::default();
        plane.install_membership(1, [0, 1]);
        plane.deposit(1, 6, &[(3, 0, 2)]);
        plane.flush(1, 6, 0);
        plane.flush(1, 6, 1);
        plane.install_membership(2, [0, 1]);
        assert!(plane.wait_complete(6, Duration::from_millis(1)).is_err());
        // Late traffic from the dead worker's old incarnation (epoch 1) is
        // dropped wholesale, frame and flush alike.
        plane.deposit(1, 7, &[(5, 1, 1)]);
        plane.flush(1, 7, 1);
        assert_eq!(plane.dropped(), 2);
        // The re-seed (superstep 8, epoch 2) sees only epoch-2 traffic.
        plane.deposit(2, 8, &[(9, 0, 4)]);
        plane.flush(2, 8, 0);
        plane.flush(2, 8, 1);
        plane.wait_complete(8, Duration::from_millis(100)).unwrap();
        assert_eq!(plane.take_sorted(8), vec![(9, 0, 4)]);
    }

    #[test]
    fn wait_timeout_names_the_missing_members() {
        let plane = DataPlane::default();
        plane.install_membership(3, [0, 1, 2]);
        plane.flush(3, 1, 1);
        let missing = plane.wait_complete(1, Duration::from_millis(5)).unwrap_err();
        assert_eq!(missing, vec![0, 2]);
    }

    #[test]
    fn a_gone_peer_fails_the_wait_immediately() {
        let plane = DataPlane::default();
        plane.install_membership(1, [0, 1]);
        plane.flush(1, 2, 0);
        plane.peer_gone(1, 1);
        // A generous timeout, but the wait returns at once: worker 1's
        // connection is gone, so its flush can never arrive.
        let start = Instant::now();
        let missing = plane.wait_complete(2, Duration::from_secs(30)).unwrap_err();
        assert_eq!(missing, vec![1]);
        assert!(start.elapsed() < Duration::from_secs(5));
        // A stale-epoch disconnect (the old incarnation's socket closing
        // after a respawn) is not news and must not poison the new epoch.
        plane.install_membership(2, [0, 1]);
        plane.peer_gone(1, 1);
        plane.flush(2, 3, 0);
        assert!(plane.wait_complete(3, Duration::from_millis(5)).is_err());
        plane.flush(2, 3, 1);
        plane.wait_complete(3, Duration::from_millis(100)).unwrap();
    }
}
