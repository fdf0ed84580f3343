//! Named vertex programs that run identically in-process and across worker
//! processes.
//!
//! Closures cannot cross a process boundary, so the cluster backend executes
//! *named* programs: a [`ClusterProgram`] is compiled into both the
//! coordinator and the worker binary, and only its registry name travels
//! over the wire ([`crate::protocol::Message::LoadProgram`]). The coordinator
//! uses the same implementation to build the initial state and to compensate
//! lost partitions; workers use it to execute supersteps.
//!
//! Programs are deliberately Pregel-shaped — per-partition state plus
//! messages — because that is the granularity the wire protocol ships. A
//! step's outbound messages are a function of its output state alone, so
//! the messages in flight at a superstep barrier never need to be captured:
//! after a failure, rollback, restart or rescale the coordinator pushes the
//! recovered state in a re-seed superstep (logical step 0, no inbound),
//! which keeps the state and re-emits exactly those messages — survivors'
//! current values and the compensated partitions' reset values alike. That
//! re-seed, not sending to every neighbour every superstep, is what re-feeds
//! a compensated partition.

use std::collections::HashMap;
use std::sync::Arc;

use graphs::Graph;

use crate::protocol::{AdjRows, Msg, Record};

/// PageRank damping factor (the paper's standard 0.85).
pub const PAGERANK_DAMPING: f64 = 0.85;

/// PageRank termination threshold: a vertex counts as changed while its rank
/// moves by more than this per superstep.
pub const PAGERANK_EPSILON: f64 = 1e-9;

/// The result of stepping one partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepOutput {
    /// New partition state, in the same vertex order as the input.
    pub state: Vec<Record>,
    /// Messages for the next superstep (any destination vertex).
    pub outbound: Vec<Msg>,
    /// Number of records the program's convergence test considers changed;
    /// the iteration terminates once the global sum reaches zero.
    pub changed: u64,
}

/// A distributed iterative vertex program.
///
/// Invariant shared by all methods: a partition's state vector is aligned
/// 1:1 with its adjacency rows — `state[i].0 == rows[i].0`. [`Self::init_partition`]
/// establishes the invariant, [`Self::step`] and [`Self::compensate_partition`]
/// preserve it.
///
/// Recovery rests on a second invariant, the *re-seed* invariant: after
/// any step that produced state `s` with outbound messages `m`,
/// `step(0, s, &[], rows, n)` returns `s` unchanged and emits `m` again (as
/// a multiset; delivery sorts it). Step 0 must also report a non-zero
/// `changed` count for a non-empty partition, so a re-seed never
/// terminates the run. The cluster runs step 0 whenever it pushes state —
/// the first superstep and the first one after every failure, rollback,
/// restart or rescale — so the channel state of a failure-free run is
/// always rebuilt from the state alone.
pub trait ClusterProgram: Send + Sync {
    /// Registry name, also used in telemetry (`"cc"`, `"pagerank"`).
    fn name(&self) -> &'static str;

    /// Initial state for one partition.
    fn init_partition(&self, rows: &[(u64, Vec<u64>)], n: u64) -> Vec<Record>;

    /// Rebuild a lost partition to a consistent state the algorithm keeps
    /// converging from (the paper's compensation function). Both shipped
    /// programs compensate by re-initialising — CC resets labels to vertex
    /// ids, PageRank resets ranks to the uniform distribution.
    fn compensate_partition(&self, rows: &[(u64, Vec<u64>)], n: u64) -> Vec<Record> {
        self.init_partition(rows, n)
    }

    /// Execute one partition's share of a superstep.
    ///
    /// `step` is the *logical* step index — the number of supersteps
    /// committed since state was last pushed — so it is `0` for the re-seed
    /// superstep (see the re-seed invariant above), which always arrives
    /// with an empty `inbound`. `inbound` arrives sorted by
    /// `(src, dst, bits)` so floating point folds are deterministic.
    fn step(
        &self,
        step: u64,
        state: &[Record],
        inbound: &[Msg],
        rows: &[(u64, Vec<u64>)],
        n: u64,
    ) -> StepOutput;
}

/// Connected Components by min-label propagation.
///
/// State: `(v, label)` with the invariant `label <= v` (labels only ever
/// decrease, and compensation resets to `label = v`). Termination at
/// `changed == 0` therefore implies every label equals the minimum vertex id
/// of its component — even after an arbitrary number of compensations.
pub struct CcProgram;

impl ClusterProgram for CcProgram {
    fn name(&self) -> &'static str {
        "cc"
    }

    fn init_partition(&self, rows: &[(u64, Vec<u64>)], _n: u64) -> Vec<Record> {
        rows.iter().map(|(v, _)| (*v, *v)).collect()
    }

    fn step(
        &self,
        step: u64,
        state: &[Record],
        inbound: &[Msg],
        rows: &[(u64, Vec<u64>)],
        _n: u64,
    ) -> StepOutput {
        let mut best: HashMap<u64, u64> = HashMap::with_capacity(state.len());
        for &(_, dst, bits) in inbound {
            best.entry(dst).and_modify(|b| *b = (*b).min(bits)).or_insert(bits);
        }
        let mut out =
            StepOutput { state: Vec::with_capacity(state.len()), outbound: Vec::new(), changed: 0 };
        for (i, &(v, label)) in state.iter().enumerate() {
            let new = best.get(&v).map_or(label, |&b| b.min(label));
            if new != label {
                out.changed += 1;
            }
            out.state.push((v, new));
            for &u in &rows[i].1 {
                out.outbound.push((v, u, new));
            }
        }
        if step == 0 {
            // The re-seed: no messages have flowed since state was pushed;
            // force at least one more superstep so neighbours see each
            // other's labels before termination.
            out.changed = state.len() as u64;
        }
        out
    }
}

/// PageRank by synchronous power iteration over rank messages.
///
/// State: `(v, rank.to_bits())`. A vertex's new rank is
/// `(1 - d)/n + d * Σ inbound`, where each inbound contribution is a
/// neighbour's `rank / outdegree`. Compensation resets lost partitions to
/// the uniform `1/n` ranks (the paper's "redistribute the lost probability
/// mass uniformly"). Vertices without outgoing edges let their mass leak —
/// acceptable here because correctness is judged against a single-process
/// run of the *same* program, which leaks identically.
pub struct PageRankProgram;

impl ClusterProgram for PageRankProgram {
    fn name(&self) -> &'static str {
        "pagerank"
    }

    fn init_partition(&self, rows: &[(u64, Vec<u64>)], n: u64) -> Vec<Record> {
        let uniform = (1.0 / n as f64).to_bits();
        rows.iter().map(|(v, _)| (*v, uniform)).collect()
    }

    fn step(
        &self,
        step: u64,
        state: &[Record],
        inbound: &[Msg],
        rows: &[(u64, Vec<u64>)],
        n: u64,
    ) -> StepOutput {
        // Accumulate per destination in slice order: inbound is sorted by
        // (src, dst, bits), so each vertex's float sum folds in a fixed
        // order and the result is bitwise deterministic.
        let mut sums: HashMap<u64, f64> = HashMap::with_capacity(state.len());
        for &(_, dst, bits) in inbound {
            *sums.entry(dst).or_insert(0.0) += f64::from_bits(bits);
        }
        let teleport = (1.0 - PAGERANK_DAMPING) / n as f64;
        let mut out =
            StepOutput { state: Vec::with_capacity(state.len()), outbound: Vec::new(), changed: 0 };
        for (i, &(v, bits)) in state.iter().enumerate() {
            let old = f64::from_bits(bits);
            let new = if step == 0 {
                // The re-seed: no contributions have flowed since state was
                // pushed; keep the ranks and seed the message flow from them.
                old
            } else {
                teleport + PAGERANK_DAMPING * sums.get(&v).copied().unwrap_or(0.0)
            };
            if step == 0 || (new - old).abs() > PAGERANK_EPSILON {
                out.changed += 1;
            }
            out.state.push((v, new.to_bits()));
            let targets = &rows[i].1;
            if !targets.is_empty() {
                let share = (new / targets.len() as f64).to_bits();
                for &u in targets {
                    out.outbound.push((v, u, share));
                }
            }
        }
        out
    }
}

/// Look a program up by registry name.
pub fn lookup(name: &str) -> Option<Arc<dyn ClusterProgram>> {
    match name {
        "cc" => Some(Arc::new(CcProgram)),
        "pagerank" => Some(Arc::new(PageRankProgram)),
        _ => None,
    }
}

/// Names of all registered programs (for CLI help and validation).
pub fn program_names() -> &'static [&'static str] {
    &["cc", "pagerank"]
}

/// Partition a graph's adjacency rows over `parallelism` partitions by
/// `vertex % parallelism`.
///
/// Deliberately *not* [`dataflow::partition::hash_partition`]: the modulo
/// mapping lets the coordinator, the workers, and message routing compute a
/// vertex's partition without sharing a hasher.
pub fn partition_rows(graph: &Graph, parallelism: usize) -> Vec<AdjRows> {
    let mut parts: Vec<AdjRows> = vec![Vec::new(); parallelism];
    for (v, targets) in graph.adjacency_rows() {
        parts[(v as usize) % parallelism].push((v, targets));
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::GraphBuilder;

    fn sorted_inbound(mut msgs: Vec<Msg>) -> Vec<Msg> {
        msgs.sort_unstable();
        msgs
    }

    /// Drive a program to convergence in-process, single partition.
    fn run_single(program: &dyn ClusterProgram, graph: &Graph, max_steps: u64) -> Vec<Record> {
        let rows = partition_rows(graph, 1).remove(0);
        let n = graph.num_vertices() as u64;
        let mut state = program.init_partition(&rows, n);
        let mut inbound: Vec<Msg> = Vec::new();
        for step in 0..max_steps {
            let out = program.step(step, &state, &sorted_inbound(inbound), &rows, n);
            state = out.state;
            inbound = out.outbound;
            if out.changed == 0 {
                break;
            }
        }
        state
    }

    #[test]
    fn cc_converges_to_min_vertex_per_component() {
        // Two components: {0,1,2} via a path, {3,4} via an edge.
        let mut b = GraphBuilder::undirected(5);
        b.add_edge(0, 1).add_edge(1, 2).add_edge(3, 4);
        let graph = b.build();
        let state = run_single(&CcProgram, &graph, 50);
        let labels: Vec<u64> = state.iter().map(|&(_, l)| l).collect();
        assert_eq!(labels, vec![0, 0, 0, 3, 3]);
        let exact = graphs::exact_components(&graph);
        assert_eq!(labels, exact);
    }

    #[test]
    fn cc_recovers_after_a_compensation_reset() {
        // A converged vertex must keep broadcasting: reset part of the state
        // mid-run and check the fixed point is still the true labels.
        let mut b = GraphBuilder::undirected(4);
        b.add_edge(0, 1).add_edge(1, 2).add_edge(2, 3);
        let graph = b.build();
        let rows = partition_rows(&graph, 1).remove(0);
        let n = 4;
        let program = CcProgram;
        let mut state = program.init_partition(&rows, n);
        let mut inbound: Vec<Msg> = Vec::new();
        for step in 0..50 {
            if step == 3 {
                // "Lose" vertices 2 and 3: reset their labels to vertex ids.
                for record in state.iter_mut() {
                    if record.0 >= 2 {
                        record.1 = record.0;
                    }
                }
            }
            let out = program.step(step, &state, &sorted_inbound(inbound), &rows, n);
            state = out.state;
            inbound = out.outbound;
            if step > 0 && out.changed == 0 {
                break;
            }
        }
        assert_eq!(state.iter().map(|&(_, l)| l).collect::<Vec<_>>(), vec![0, 0, 0, 0]);
    }

    #[test]
    fn pagerank_ranks_sum_to_one_and_match_power_iteration() {
        // Every vertex has out-links, so no mass leaks and the result is
        // directly comparable to the dense reference implementation.
        let mut b = GraphBuilder::directed(5);
        b.add_edge(0, 1).add_edge(0, 3).add_edge(1, 2).add_edge(2, 0);
        b.add_edge(3, 0).add_edge(3, 1).add_edge(4, 3);
        let graph = b.build();
        let state = run_single(&PageRankProgram, &graph, 500);
        let ours: Vec<f64> = state.iter().map(|&(_, bits)| f64::from_bits(bits)).collect();
        let total: f64 = ours.iter().sum();
        assert!((total - 1.0).abs() < 1e-6, "ranks should sum to 1, got {total}");
        let exact = graphs::exact_pagerank(&graph, graphs::PageRankParams::default());
        for (v, (a, b)) in ours.iter().zip(&exact).enumerate() {
            assert!((a - b).abs() < 1e-6, "vertex {v}: {a} vs reference {b}");
        }
    }

    /// Outbound messages in delivery order.
    fn sorted(mut msgs: Vec<Msg>) -> Vec<Msg> {
        msgs.sort_unstable();
        msgs
    }

    #[test]
    fn a_reseed_returns_the_state_and_re_emits_its_messages() {
        // The re-seed invariant the cluster's recovery rests on: after any
        // step that produced `s`, step 0 over `s` with no inbound returns
        // `s` unchanged, re-emits the same messages, and does not
        // terminate. Checked after every step of a run on two partitions,
        // and on a compensated partition.
        let mut b = GraphBuilder::directed(7);
        b.add_edge(0, 1).add_edge(1, 2).add_edge(2, 0).add_edge(3, 4);
        b.add_edge(4, 3).add_edge(5, 0).add_edge(1, 5).add_edge(2, 6);
        let graph = b.build();
        let n = graph.num_vertices() as u64;
        let parts = partition_rows(&graph, 2);
        for name in program_names() {
            let program = lookup(name).unwrap();
            let mut states: Vec<Vec<Record>> =
                parts.iter().map(|rows| program.init_partition(rows, n)).collect();
            let mut inboxes: Vec<Vec<Msg>> = vec![Vec::new(); parts.len()];
            for step in 0..12 {
                let mut next: Vec<Vec<Msg>> = vec![Vec::new(); parts.len()];
                for (pid, rows) in parts.iter().enumerate() {
                    let out = program.step(step, &states[pid], &inboxes[pid], rows, n);
                    let reseed = program.step(0, &out.state, &[], rows, n);
                    assert_eq!(reseed.state, out.state, "{name} step {step} p{pid}: state moved");
                    assert_eq!(
                        sorted(reseed.outbound),
                        sorted(out.outbound.clone()),
                        "{name} step {step} p{pid}: messages differ"
                    );
                    assert!(reseed.changed > 0, "{name} step {step} p{pid}: re-seed terminates");
                    for msg in out.outbound {
                        next[(msg.1 % 2) as usize].push(msg);
                    }
                    states[pid] = out.state;
                }
                inboxes = next.into_iter().map(sorted).collect();
            }
            let compensated = program.compensate_partition(&parts[1], n);
            let reseed = program.step(0, &compensated, &[], &parts[1], n);
            assert_eq!(reseed.state, compensated, "{name}: compensated state moved");
        }
    }

    #[test]
    fn first_step_never_terminates() {
        let graph = GraphBuilder::undirected(2).build();
        for name in program_names() {
            let program = lookup(name).unwrap();
            let rows = partition_rows(&graph, 1).remove(0);
            let state = program.init_partition(&rows, 2);
            let out = program.step(0, &state, &[], &rows, 2);
            assert!(out.changed > 0, "{name}: step 0 must force a second superstep");
        }
    }

    #[test]
    fn partitioning_is_modulo_and_loss_free() {
        let graph = graphs::generators::ring(10);
        let parts = partition_rows(&graph, 3);
        assert_eq!(parts.iter().map(|p| p.len()).sum::<usize>(), 10);
        for (pid, rows) in parts.iter().enumerate() {
            for (v, _) in rows {
                assert_eq!(*v as usize % 3, pid);
            }
        }
    }

    #[test]
    fn lookup_knows_exactly_the_registered_names() {
        assert!(lookup("cc").is_some());
        assert!(lookup("pagerank").is_some());
        assert!(lookup("nope").is_none());
        for name in program_names() {
            assert_eq!(lookup(name).unwrap().name(), *name);
        }
    }

    #[test]
    fn compensation_equals_reinitialisation_for_shipped_programs() {
        let graph = graphs::generators::ring(6);
        let rows = partition_rows(&graph, 2);
        for name in program_names() {
            let program = lookup(name).unwrap();
            assert_eq!(
                program.compensate_partition(&rows[1], 6),
                program.init_partition(&rows[1], 6),
            );
        }
    }
}
