//! The repository's benchmark: one command per workload, end to end with
//! tracing off, layer by layer with tracing on.
//!
//! Three workloads load different layers of the system:
//!
//! * [`local_batch`] — in-process CC and PageRank jobs, failure-free, with
//!   an optimistic partition loss, and under rollback recovery.
//! * [`cluster_batch`] — the same algorithms on two worker processes over
//!   loopback, with a worker SIGKILLed mid-run.
//! * [`serve_cc`] — the serving daemon under a closed-loop writer of
//!   single-edge commits and an open-loop reader at a fixed query rate.
//!
//! Every output is checked against a reference computed outside the timed
//! regions; a failed check is counted and makes the command exit non-zero.

#![warn(missing_docs)]

pub mod cluster_batch;
pub mod inputs;
pub mod local_batch;
pub mod report;
pub mod serve_cc;
pub mod spans;
pub mod stats;
pub mod sys;

use std::time::Instant;

use graphs::{Graph, VertexId};

use report::Report;
use spans::Tracer;

/// Partitions (and worker threads) of every job: the benchmark box's core
/// count.
pub const PARALLELISM: usize = 2;

/// Graphs per batch run, each set up [`SETUP_REPEATS`] times before the
/// jobs run.
pub const SETUPS: usize = 3;

/// Set-ups per batch graph before the jobs run.
pub const SETUP_REPEATS: usize = 3;

/// Names accepted by `--workload`.
pub const WORKLOADS: &[&str] = &["local-batch", "cluster-batch", "serve-cc"];

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Params {
    /// Seed every input is derived from.
    pub seed: u64,
    /// How long the measured part of the run lasts, at least.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Vertex count of the workload graph (`None`: the workload default).
    pub vertices: Option<usize>,
    /// Command line that starts one cluster worker process.
    pub worker_cmd: Vec<String>,
}

impl Params {
    /// Settings of a run from the command line: the workload's default
    /// size, and this binary's own `worker` subcommand as cluster worker.
    pub fn new(seed: u64, seconds: f64, trace: bool) -> Self {
        Params { seed, seconds, trace, vertices: None, worker_cmd: cluster::default_worker_cmd() }
    }
}

/// Run one workload and return its report.
pub fn run(workload: &str, params: &Params, tracer: &mut Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    match workload {
        "local-batch" => local_batch::run(params, tracer, &mut report),
        "cluster-batch" => cluster_batch::run(params, tracer, &mut report),
        "serve-cc" => serve_cc::run(params, tracer, &mut report),
        other => {
            return Err(format!("unknown workload `{other}` (known: {})", WORKLOADS.join(", ")))
        }
    }
    Ok(report)
}

/// Seconds elapsed since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Time `f`, returning its result and wall seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let result = f();
    (result, secs(start))
}

/// A batch run's set-up: its [`SETUPS`] workload graphs, each from its own
/// seed derived from the run's, and the wall seconds of every timed
/// generation. `setup_s` is the median of those times.
pub struct Setup {
    /// The run's graphs; repetitions cycle through them, so one run
    /// averages over several graph structures.
    pub graphs: Vec<Graph>,
    /// Wall seconds of every timed generation.
    pub times: Vec<f64>,
    vertices: usize,
    seed: u64,
}

impl Setup {
    /// Generate every graph [`SETUP_REPEATS`] times. One more generation
    /// of the first graph goes first and is not timed, so that no timed
    /// generation is the process's first (cold heap, first-touch faults).
    pub fn new(vertices: usize, seed: u64, tracer: &mut Tracer) -> Self {
        tracer.span("warm-up", |_| inputs::graph(vertices, inputs::graph_seed(seed, 0)));
        let mut setup = Setup { graphs: Vec::new(), times: Vec::new(), vertices, seed };
        for i in 0..SETUPS {
            let mut graph = None;
            for _ in 0..SETUP_REPEATS {
                graph = Some(setup.generate(i, tracer));
            }
            setup.graphs.push(graph.expect("at least one set-up"));
        }
        setup
    }

    fn generate(&mut self, index: usize, tracer: &mut Tracer) -> Graph {
        let seed = inputs::graph_seed(self.seed, index);
        let (graph, t) = timed(|| {
            tracer.span("graphs.preferential_attachment", |_| inputs::graph(self.vertices, seed))
        });
        self.times.push(t);
        graph
    }

    /// Generate graph `index` once more, timed into the set-up samples, and
    /// check that it equals the first generation. A job that runs on the
    /// returned graph sets up its own input, so the set-up samples spread
    /// over the whole run instead of bunching at its start.
    pub fn regenerate(&mut self, index: usize, tracer: &mut Tracer, report: &mut Report) -> Graph {
        let graph = self.generate(index, tracer);
        report.check(graph == self.graphs[index], || {
            format!("graph {index}: a second generation differs from the first")
        });
        graph
    }
}

/// PageRank results must stay within this share of each vertex's
/// failure-free rank, or of the uniform rank `1/n` for vertices ranked
/// below it (see [`rank_error`]).
pub const RANK_TOLERANCE: f64 = 5e-3;

/// Worst per-vertex error of `ranks` against `reference` (both sorted by
/// vertex), relative to the larger of the reference rank and the uniform
/// rank `1/n`; `None` when the two cover different vertices.
pub fn rank_error(
    ranks: impl ExactSizeIterator<Item = (VertexId, f64)>,
    reference: impl ExactSizeIterator<Item = (VertexId, f64)>,
) -> Option<f64> {
    if ranks.len() != reference.len() {
        return None;
    }
    let uniform = 1.0 / reference.len().max(1) as f64;
    let mut worst = 0.0f64;
    for ((v, a), (w, b)) in ranks.zip(reference) {
        if v != w {
            return None;
        }
        worst = worst.max((a - b).abs() / b.max(uniform));
    }
    Some(worst)
}

/// Per-repetition sums of the job walls at `jobs` (`walls[job][rep]`):
/// the end-to-end figure of a batch workload adds up its CC and PageRank
/// jobs, so one sample covers most of a repetition's work.
pub fn rep_sums(walls: &[Vec<f64>], jobs: &[usize]) -> Vec<f64> {
    (0..walls[jobs[0]].len()).map(|rep| jobs.iter().map(|&job| walls[job][rep]).sum()).collect()
}

/// Wall milliseconds of each superstep the engine executed.
pub fn superstep_ms(stats: &dataflow::stats::RunStats) -> Vec<f64> {
    stats.iterations.iter().map(|i| i.duration.as_secs_f64() * 1e3).collect()
}

/// Keep repeating `rep` until `seconds` have passed and at least
/// `min_reps` repetitions ran.
pub fn repeat_for(seconds: f64, min_reps: usize, mut rep: impl FnMut(usize)) {
    let start = Instant::now();
    let mut reps = 0;
    while reps < min_reps || secs(start) < seconds {
        rep(reps);
        reps += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ranks(n: u64, shift: f64) -> Vec<(VertexId, f64)> {
        let uniform = 1.0 / n as f64;
        (0..n).map(|v| (v, if v % 2 == 1 { uniform * (1.0 + shift) } else { uniform })).collect()
    }

    #[test]
    fn rank_error_is_relative_to_the_rank_or_the_uniform_rank() {
        let reference = ranks(100_000, 0.0);
        let same = rank_error(reference.iter().copied(), reference.iter().copied());
        assert_eq!(same, Some(0.0));
        // A recovery that leaves half the vertices 2% off fails the check.
        let shifted = ranks(100_000, 0.02);
        let error = rank_error(shifted.iter().copied(), reference.iter().copied()).unwrap();
        assert!((error - 0.02).abs() < 1e-9 && error > RANK_TOLERANCE, "{error}");
        // Tiny ranks are measured against the uniform rank, not themselves.
        let error = rank_error([(0, 2e-12)].into_iter(), [(0, 1e-12)].into_iter()).unwrap();
        assert!(error < 1e-11, "{error}");
        assert_eq!(rank_error([(1, 1.0)].into_iter(), [(0, 1.0)].into_iter()), None);
        assert_eq!(rank_error([].into_iter(), [(0, 1.0)].into_iter()), None);
    }
}
