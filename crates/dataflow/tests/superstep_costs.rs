//! What a superstep pays for. A loop-invariant join build side is indexed
//! once per run and never copied; the solution set of a delta iteration is
//! probed in place and never copied either. After the first superstep, a
//! superstep clones records in proportion to its workset, not to the
//! solution set or the imports. Caching the build-side index must not
//! change a join's records, their order, or the shuffle accounting.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use dataflow::config::EnvConfig;
use dataflow::ft::{RecoveryAction, SolutionSets};
use dataflow::partition::hash_partition;
use dataflow::prelude::*;
use dataflow::stats::RecoveryKind;

/// A record whose clones are counted in `clones`.
#[derive(Debug)]
struct Counted {
    key: u64,
    value: u64,
    clones: &'static AtomicU64,
}

impl Counted {
    fn new(key: u64, value: u64, clones: &'static AtomicU64) -> Self {
        Counted { key, value, clones }
    }
}

impl Clone for Counted {
    fn clone(&self) -> Self {
        self.clones.fetch_add(1, Ordering::Relaxed);
        Counted { ..*self }
    }
}

/// Clone counts after each superstep, as the observer saw them.
type Snapshots = Rc<RefCell<Vec<[u64; 3]>>>;

/// Per-superstep increments of cumulative snapshots.
fn per_superstep(snapshots: &[[u64; 3]]) -> Vec<[u64; 3]> {
    let mut previous = [0u64; 3];
    snapshots
        .iter()
        .map(|now| {
            let step = [now[0] - previous[0], now[1] - previous[1], now[2] - previous[2]];
            previous = *now;
            step
        })
        .collect()
}

/// Both directions of every edge of a ring over `n` vertices.
fn ring(n: u64) -> Vec<(u64, u64)> {
    (0..n).flat_map(|v| [(v, (v + 1) % n), ((v + 1) % n, v)]).collect()
}

#[test]
fn delta_supersteps_clone_in_proportion_to_the_workset() {
    static SOLUTION: AtomicU64 = AtomicU64::new(0);
    static EDGES: AtomicU64 = AtomicU64::new(0);
    static WORKSET: AtomicU64 = AtomicU64::new(0);
    const VERTICES: u64 = 10_000;

    let env = Environment::new(4);
    let labels: Vec<(u64, Counted)> =
        (0..VERTICES).map(|v| (v, Counted::new(v, v, &SOLUTION))).collect();
    let solution = env.from_keyed_vec(labels, |r| r.0);
    // Two seeds, each spreading label 0 one hop per superstep along the ring.
    let seeds = vec![Counted::new(0, 0, &WORKSET), Counted::new(VERTICES / 2, 0, &WORKSET)];
    let workset = env.from_keyed_vec(seeds, |w| w.key);
    let edges: Vec<Counted> =
        ring(VERTICES).into_iter().map(|(u, v)| Counted::new(u, v, &EDGES)).collect();
    assert_eq!(edges.len(), 20_000);
    let edges = env.from_keyed_vec(edges, |e| e.key);

    let mut it = DeltaIteration::new(&solution, &workset, 8);
    let snapshots: Snapshots = Rc::default();
    let workset_sizes: Rc<RefCell<Vec<usize>>> = Rc::default();
    let (sink, sizes) = (snapshots.clone(), workset_sizes.clone());
    it.set_observer(move |_, _: &SolutionSets<u64, Counted>, ws: &Partitions<Counted>, _| {
        let counts = [&SOLUTION, &EDGES, &WORKSET].map(|c| c.load(Ordering::Relaxed));
        sink.borrow_mut().push(counts);
        sizes.borrow_mut().push(ws.total_len());
    });
    let edges_in = it.import(&edges);
    let candidates = it
        .workset()
        .join("to-neighbors", &edges_in, |w: &Counted| w.key, |e| e.key, |w, e| (e.value, w.value))
        .reduce_by_key("min", |c| c.0, |a, b| if a.1 <= b.1 { a } else { b });
    let delta = candidates
        .join_solution(
            "update",
            &it.solution(),
            |c| c.0,
            |c, label: &Counted| {
                (c.1 < label.value).then(|| (c.0, Counted::new(c.0, c.1, &SOLUTION)))
            },
        )
        .flat_map("updated", |u: &Option<(u64, Counted)>| {
            u.iter().map(|(k, c)| (*k, Counted::new(c.key, c.value, &SOLUTION))).collect()
        });
    let next_workset =
        delta.map("resend", |(k, c): &(u64, Counted)| Counted::new(*k, c.value, &WORKSET));
    let (result, _) = it.close(delta, next_workset);
    let labels = result.collect().unwrap();
    assert_eq!(labels.len(), VERTICES as usize);

    let steps = per_superstep(&snapshots.borrow());
    let sizes = workset_sizes.borrow();
    assert_eq!(steps.len(), 8);
    // The first superstep also pays for loading the initial state.
    assert!(steps[0][0] >= VERTICES, "initial solution load: {:?}", steps[0]);
    for (s, [solution, edges, workset]) in steps.iter().enumerate().skip(1) {
        let workset_in = sizes[s - 1] as u64;
        assert!(workset_in <= 8, "superstep {s}: workset of {workset_in}");
        assert_eq!(*edges, 0, "superstep {s} copied the edge import");
        assert!(
            solution + workset <= 4 * workset_in,
            "superstep {s} cloned {solution} solution and {workset} workset records \
             for a workset of {workset_in}"
        );
    }
}

/// A bulk iteration whose body joins the state with an imported lookup
/// table. Returns the table clones and build-side key extractions per
/// superstep.
fn bulk_lookup_run(caching: bool) -> (Vec<u64>, Vec<u64>) {
    static TABLE: AtomicU64 = AtomicU64::new(0);
    static KEY_CALLS: AtomicU64 = AtomicU64::new(0);
    TABLE.store(0, Ordering::Relaxed);
    KEY_CALLS.store(0, Ordering::Relaxed);

    let env = Environment::with_config(EnvConfig::new(3).with_loop_invariant_caching(caching));
    let state = env.from_vec((0u64..1000).map(|k| (k, 0u64)).collect());
    let table = env.from_vec((0u64..1000).map(|k| Counted::new(k, 3 * k, &TABLE)).collect());
    let mut it = BulkIteration::new(&state, 5);
    let snapshots: Snapshots = Rc::default();
    let sink = snapshots.clone();
    it.set_observer(move |_, _: &Partitions<(u64, u64)>, _| {
        let counts = [TABLE.load(Ordering::Relaxed), KEY_CALLS.load(Ordering::Relaxed), 0];
        sink.borrow_mut().push(counts);
    });
    let table_in = it.import(&table);
    let next = it.state().join(
        "lookup",
        &table_in,
        |s: &(u64, u64)| s.0,
        |t: &Counted| {
            KEY_CALLS.fetch_add(1, Ordering::Relaxed);
            t.key
        },
        |s, t| (s.0, s.1 + t.value),
    );
    let (result, _) = it.close(next);
    let mut out = result.collect().unwrap();
    out.sort_unstable();
    assert_eq!(out[7], (7, 5 * 21));
    let steps = per_superstep(&snapshots.borrow());
    (steps.iter().map(|s| s[0]).collect(), steps.iter().map(|s| s[1]).collect())
}

#[test]
fn an_invariant_build_side_is_indexed_once_and_never_cloned() {
    // One test, because both runs share the statics.
    let (clones, key_calls) = bulk_lookup_run(true);
    assert_eq!(clones, vec![0; 5], "the invariant build side must never be copied");
    // Each row's key is read twice: to route the row, then to group it.
    assert_eq!(key_calls[0], 2000, "superstep 0 builds the index");
    assert_eq!(&key_calls[1..], &[0; 4], "later supersteps only probe it");

    let (clones, key_calls) = bulk_lookup_run(false);
    assert_eq!(clones, vec![0; 5]);
    assert_eq!(key_calls, vec![2000; 5], "without caching the table is rebuilt every superstep");
}

/// The dispatch configurations: inline, and the worker pool for any size.
fn dispatch_configs(parallelism: usize) -> Vec<EnvConfig> {
    vec![
        EnvConfig::new(parallelism).with_threaded(false),
        EnvConfig::new(parallelism).with_thread_threshold(0),
    ]
}

/// One state's partitions, records in partition order.
type Parts = Vec<Vec<(u64, u64)>>;

/// Per-superstep states of a bulk join against an imported table with
/// several matches per key, and the records shuffled per superstep.
fn bulk_join_trace(config: EnvConfig, co_partitioned: bool) -> (Vec<Parts>, Vec<u64>) {
    let env = Environment::with_config(config);
    let state = env.from_vec((0u64..120).map(|k| (k % 100, k * 13 + 1)).collect());
    let rows: Vec<(u64, u64)> = (0u64..300).map(|i| (i % 100, i * 7 + 3)).collect();
    let table = if co_partitioned { env.from_keyed_vec(rows, |r| r.0) } else { env.from_vec(rows) };
    let mut it = BulkIteration::new(&state, 5);
    let states: Rc<RefCell<Vec<Parts>>> = Rc::default();
    let sink = states.clone();
    it.set_observer(move |_, state: &Partitions<(u64, u64)>, _| {
        sink.borrow_mut().push(state.as_parts().to_vec());
    });
    let table_in = it.import(&table);
    let next = it
        .state()
        .join(
            "lookup",
            &table_in,
            |s: &(u64, u64)| s.0,
            |t: &(u64, u64)| t.0,
            |s, t| ((s.1 ^ t.1) % 100, s.1.wrapping_mul(31).wrapping_add(t.1)),
        )
        .filter("thin", |r| r.1 % 3 != 1);
    let (result, stats) = it.close(next);
    result.collect().unwrap();
    let shuffled = stats.take().unwrap().iterations.iter().map(|i| i.records_shuffled).collect();
    let states = states.borrow().clone();
    (states, shuffled)
}

/// Final labels, plus per-superstep records shuffled and messages, of
/// min-label propagation over a ring whose edges are or are not
/// co-partitioned.
fn delta_join_trace(config: EnvConfig, co_partitioned: bool) -> (Vec<(u64, u64)>, Vec<[u64; 2]>) {
    let env = Environment::with_config(config);
    let labels: Vec<(u64, u64)> = (0..40).map(|v| (v, v)).collect();
    let solution = env.from_keyed_vec(labels.clone(), |r| r.0);
    let workset = env.from_keyed_vec(labels, |r| r.0);
    let edges =
        if co_partitioned { env.from_keyed_vec(ring(40), |e| e.0) } else { env.from_vec(ring(40)) };
    let mut it = DeltaIteration::new(&solution, &workset, 100);
    let edges_in = it.import(&edges);
    let candidates = it
        .workset()
        .join("to-neighbors", &edges_in, |w: &(u64, u64)| w.0, |e| e.0, |w, e| (e.1, w.1))
        .measured("messages")
        .reduce_by_key("min", |c| c.0, |a, b| if a.1 <= b.1 { a } else { b });
    let updates = candidates
        .join_solution("update", &it.solution(), |c| c.0, |c, &label| (c.1 < label).then_some(*c))
        .flat_map("updated", |u: &Option<(u64, u64)>| u.iter().copied().collect());
    let (result, stats) = it.close(updates.clone(), updates);
    let mut labels = result.collect().unwrap();
    labels.sort_unstable();
    let stats = stats.take().unwrap();
    let per_step =
        stats.iterations.iter().map(|i| [i.records_shuffled, i.counter("messages")]).collect();
    (labels, per_step)
}

#[test]
fn indexed_and_rebuilt_joins_agree_record_for_record() {
    for co_partitioned in [true, false] {
        for config in dispatch_configs(3) {
            let indexed = bulk_join_trace(config.clone(), co_partitioned);
            let rebuilt =
                bulk_join_trace(config.clone().with_loop_invariant_caching(false), co_partitioned);
            assert_eq!(indexed, rebuilt, "bulk, co-partitioned build side: {co_partitioned}");
            assert!(
                indexed.0.iter().all(|state| !state.concat().is_empty()),
                "the body must keep records flowing"
            );

            let indexed = delta_join_trace(config.clone(), co_partitioned);
            let rebuilt =
                delta_join_trace(config.with_loop_invariant_caching(false), co_partitioned);
            assert_eq!(indexed, rebuilt, "delta, co-partitioned build side: {co_partitioned}");
            assert!(indexed.0.iter().all(|&(_, label)| label == 0));
        }
    }
    // The round-robin build side really is shuffled, and billed every superstep.
    let config = EnvConfig::new(3).with_threaded(false);
    let keyed = bulk_join_trace(config.clone(), true).1;
    let scattered = bulk_join_trace(config, false).1;
    assert!(keyed.iter().zip(&scattered).all(|(k, s)| s > k), "{keyed:?} vs {scattered:?}");
}

/// Compensation for min-label propagation that counts the solution entries
/// it finds: resets the lost vertices and has every vertex resend its label.
struct ResetAndResend {
    vertices: u64,
    seen_entries: Rc<RefCell<Vec<usize>>>,
    clones: &'static AtomicU64,
}

impl FaultHandler<DeltaState<u64, Counted, (u64, u64)>> for ResetAndResend {
    fn on_failure(
        &mut self,
        _iteration: u32,
        lost: &[usize],
        state: &mut DeltaState<u64, Counted, (u64, u64)>,
    ) -> dataflow::error::Result<RecoveryAction<DeltaState<u64, Counted, (u64, u64)>>> {
        let parallelism = state.solution.len();
        self.seen_entries.borrow_mut().push(state.solution.iter().map(|set| set.len()).sum());
        for v in 0..self.vertices {
            let pid = hash_partition(&v, parallelism);
            if lost.contains(&pid) {
                state.solution[pid].insert(v, Counted::new(v, v, self.clones));
            }
        }
        for (pid, set) in state.solution.iter().enumerate() {
            state.workset.partition_mut(pid).extend(set.iter().map(|(&v, label)| (v, label.value)));
        }
        Ok(RecoveryAction::Compensated)
    }
}

#[test]
fn a_delta_body_that_panics_gets_its_solution_set_back_uncopied() {
    static SOLUTION: AtomicU64 = AtomicU64::new(0);
    const VERTICES: u64 = 64;
    for config in dispatch_configs(4) {
        let env = Environment::with_config(config);
        let labels: Vec<(u64, Counted)> =
            (0..VERTICES).map(|v| (v, Counted::new(v, v, &SOLUTION))).collect();
        let solution = env.from_keyed_vec(labels, |r| r.0);
        let workset = env.from_keyed_vec((0..VERTICES).map(|v| (v, v)).collect(), |w| w.0);
        let edges = env.from_keyed_vec(ring(VERTICES), |e| e.0);

        let mut it = DeltaIteration::new(&solution, &workset, 200);
        let seen_entries: Rc<RefCell<Vec<usize>>> = Rc::default();
        it.set_fault_handler(ResetAndResend {
            vertices: VERTICES,
            seen_entries: seen_entries.clone(),
            clones: &SOLUTION,
        });
        // The observer publishes the next superstep, so the body can panic
        // in the middle of superstep 3.
        let superstep = Arc::new(AtomicU32::new(0));
        let published = superstep.clone();
        let snapshots: Snapshots = Rc::default();
        let sink = snapshots.clone();
        it.set_observer(
            move |_, _: &SolutionSets<u64, Counted>, _: &Partitions<(u64, u64)>, stats| {
                published.store(stats.superstep + 1, Ordering::SeqCst);
                sink.borrow_mut().push([SOLUTION.load(Ordering::Relaxed), 0, 0]);
            },
        );
        let fired = Arc::new(AtomicBool::new(false));
        let edges_in = it.import(&edges);
        let candidates = it
            .workset()
            .join("to-neighbors", &edges_in, |w: &(u64, u64)| w.0, |e| e.0, |w, e| (e.1, w.1))
            .reduce_by_key("min", |c| c.0, |a, b| if a.1 <= b.1 { a } else { b });
        let updates = candidates
            .join_solution(
                "update",
                &it.solution(),
                |c| c.0,
                move |c, label: &Counted| {
                    if superstep.load(Ordering::SeqCst) == 3 && !fired.swap(true, Ordering::SeqCst)
                    {
                        panic!("injected panic while probing the solution set");
                    }
                    (c.1 < label.value).then_some(*c)
                },
            )
            .flat_map("updated", |u: &Option<(u64, u64)>| u.iter().copied().collect());
        let delta = updates.map("entry", |&(v, label)| (v, Counted::new(v, label, &SOLUTION)));
        let (result, stats) = it.close(delta, updates);
        let labels = result.collect().expect("the run survives the panic");
        assert!(labels.iter().all(|(_, label)| label.value == 0));
        assert_eq!(labels.len(), VERTICES as usize);

        let stats = stats.take().unwrap();
        let (failed_at, failure) = stats.failures().next().expect("one failure");
        assert_eq!(failure.recovery, RecoveryKind::Compensated);
        assert_eq!(stats.failures().count(), 1);
        let lost_pid = failure.lost_partitions[0];
        let survivors = (0..VERTICES).filter(|v| hash_partition(v, 4) != lost_pid).count();
        assert_eq!(*seen_entries.borrow(), vec![survivors], "every surviving entry came back");
        let step = stats.iterations.iter().position(|i| i.superstep == failed_at).unwrap();
        let clones = per_superstep(&snapshots.borrow())[step][0];
        let reset = VERTICES as usize - survivors;
        assert_eq!(
            clones, 0,
            "the panicked superstep copied the solution set ({reset} entries reset)"
        );
    }
}
