//! `cluster-batch`: two worker processes over loopback on the direct data
//! plane, one partition per worker.
//!
//! Each repetition runs four jobs: CC failure-free, CC with worker 1
//! SIGKILLed at superstep 3 (optimistic: compensate, respawn, re-ship),
//! PageRank failure-free, and PageRank with the same kill. Each job runs on
//! a fresh generation of the graph, timed into `setup_s`. The workers are
//! this binary's own `worker` subcommand.

use std::io::Cursor;
use std::sync::Arc;

use cluster::exchange::DataPlane;
use cluster::program::partition_rows;
use cluster::protocol::{read_frame, write_frame, Message, Msg, Record};
use cluster::{ClusterConfig, ClusterRun, KillPlan};
use graphs::{Graph, VertexId};
use telemetry::{JournalEvent, MemorySink, SinkHandle};

use crate::local_batch::codec_mb_s;
use crate::report::Report;
use crate::spans::Tracer;
use crate::stats::median;
use crate::{
    rank_error, rep_sums, repeat_for, superstep_ms, sys, timed, Params, Setup, PARALLELISM,
    RANK_TOLERANCE,
};

/// Default vertex count.
pub const VERTICES: usize = 100_000;

/// Minimum repetitions per untraced run: the PageRank kill job alone takes about 7 s.
pub const MIN_REPS: usize = 3;

/// Worker processes: one partition each.
pub const WORKERS: usize = 2;

/// Superstep cap of every job (the PageRank kill job needs about 75).
pub const MAX_ITERATIONS: u32 = 300;

/// The four jobs of one repetition; the discriminant is the job's index in
/// [`Job::ALL`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Job {
    /// CC, failure-free.
    CcFixpoint,
    /// CC, worker 1 killed at superstep 3.
    CcRecovered,
    /// PageRank, failure-free.
    PagerankFixpoint,
    /// PageRank, worker 1 killed at superstep 3.
    PagerankRecovered,
}

impl Job {
    /// Every job, in the order one repetition runs them.
    pub const ALL: [Job; 4] =
        [Job::CcFixpoint, Job::CcRecovered, Job::PagerankFixpoint, Job::PagerankRecovered];

    /// Table name of the job's wall time.
    pub fn name(self) -> &'static str {
        match self {
            Job::CcFixpoint => "cc_fixpoint_s",
            Job::CcRecovered => "cc_recovered_s",
            Job::PagerankFixpoint => "pagerank_fixpoint_s",
            Job::PagerankRecovered => "pagerank_recovered_s",
        }
    }

    fn program(self) -> &'static str {
        match self {
            Job::CcFixpoint | Job::CcRecovered => "cc",
            Job::PagerankFixpoint | Job::PagerankRecovered => "pagerank",
        }
    }

    fn kills(self) -> bool {
        matches!(self, Job::CcRecovered | Job::PagerankRecovered)
    }
}

/// One finished cluster job.
pub struct Finished {
    /// Values and run statistics.
    pub run: ClusterRun,
    /// Wall seconds of `run_cluster`.
    pub wall: f64,
    /// Peak resident memory of the cluster during the job, MB: this
    /// process (the coordinator) plus the worker processes, sampled.
    pub peak_mb: f64,
    /// Peak summed resident memory of the worker processes alone, MB.
    pub workers_mb: f64,
    /// The telemetry handle the job ran with.
    pub telemetry: SinkHandle,
    /// The in-memory sink behind `telemetry`, when traced.
    pub sink: Option<Arc<MemorySink>>,
}

/// Run one job on fresh worker processes.
pub fn run_job(
    graph: &Graph,
    job: Job,
    worker_cmd: &[String],
    traced: bool,
    tracer: &mut Tracer,
) -> Finished {
    let sink = traced.then(|| Arc::new(MemorySink::new()));
    let telemetry = sink.clone().map_or_else(SinkHandle::disabled, |s| SinkHandle::new(s));
    let mut config = ClusterConfig::new(WORKERS, PARALLELISM, MAX_ITERATIONS);
    config.worker_cmd = worker_cmd.to_vec();
    if job.kills() {
        config = config.with_kill(KillPlan { superstep: 3, worker: 1 });
    }
    sys::reset_peak_rss();
    let ((run, wall), peak_mb, workers_mb) = sys::peak_tree_rss_mb(|| {
        timed(|| {
            tracer.span(job.name(), |t| {
                t.span("cluster.run_cluster", |_| {
                    cluster::run_cluster(job.program(), graph, config, telemetry.clone())
                        .expect("cluster job")
                })
            })
        })
    });
    Finished { run, wall, peak_mb, workers_mb, telemetry, sink }
}

/// References for the output checks, computed before any timed region.
pub struct Checker {
    worker_cmd: Vec<String>,
    truth: Vec<VertexId>,
    local_cc: Vec<Record>,
    local_pagerank: Vec<Record>,
    /// Worst PageRank error seen, as [`rank_error`] measures it.
    pub worst_rank_error: f64,
}

impl Checker {
    /// Exact components plus in-process runs of both programs.
    pub fn new(graph: &Graph, worker_cmd: &[String], tracer: &mut Tracer) -> Self {
        tracer.span("reference", |t| {
            let local = |t: &mut Tracer, program: &str| {
                t.span("cluster.run_local", |_| {
                    cluster::run_local(
                        program,
                        graph,
                        PARALLELISM,
                        MAX_ITERATIONS,
                        SinkHandle::disabled(),
                    )
                    .expect("local reference run")
                    .values
                })
            };
            Checker {
                worker_cmd: worker_cmd.to_vec(),
                truth: t.span("graphs.exact_components", |_| graphs::exact_components(graph)),
                local_cc: local(t, "cc"),
                local_pagerank: local(t, "pagerank"),
                worst_rank_error: 0.0,
            }
        })
    }

    /// Check a job: failure-free runs equal `run_local` bitwise, CC labels
    /// equal the exact components, PageRank after a kill stays within
    /// [`RANK_TOLERANCE`] of the failure-free ranks, and no worker process
    /// outlives the job.
    pub fn check(&mut self, report: &mut Report, job: Job, finished: &Finished) {
        let values = &finished.run.values;
        report.check(finished.run.stats.converged, || format!("{}: did not converge", job.name()));
        match job {
            Job::CcFixpoint | Job::PagerankFixpoint => {
                let reference =
                    if job == Job::CcFixpoint { &self.local_cc } else { &self.local_pagerank };
                report.check(values == reference, || {
                    format!("{}: differs from run_local", job.name())
                });
            }
            Job::PagerankRecovered => {
                let error = rank_error(ranks(values), ranks(&self.local_pagerank));
                self.worst_rank_error = self.worst_rank_error.max(error.unwrap_or(f64::INFINITY));
                report.check(error.is_some_and(|e| e <= RANK_TOLERANCE), || {
                    format!("{}: ranks differ from run_local by {error:?}", job.name())
                });
            }
            Job::CcRecovered => {}
        }
        if job.program() == "cc" {
            report.check(
                values.len() == self.truth.len()
                    && values.iter().all(|&(v, l)| self.truth[v as usize] == l),
                || format!("{}: labels differ from the exact components", job.name()),
            );
        }
        let strays = sys::stray_workers(&self.worker_cmd);
        report.check(strays.is_empty(), || {
            format!("{}: orphaned worker processes {strays:?}", job.name())
        });
        sys::kill_all(&strays);
    }
}

/// A cluster PageRank result as `(vertex, rank)` pairs.
fn ranks(values: &[Record]) -> impl ExactSizeIterator<Item = (VertexId, f64)> + '_ {
    values.iter().map(|&(v, bits)| (v, f64::from_bits(bits)))
}

/// Per-layer timings of one CC superstep's pieces outside the cluster:
/// `ClusterProgram::step` on partition 0 at logical step 1 with its real
/// inbound, the frame codec on that step's outbound as one `ShuffleFrame`,
/// and the data-plane inbox deposit plus sorted take. Medians of three.
fn micro(graph: &Graph, tracer: &mut Tracer, report: &mut Report) {
    let program = cluster::lookup("cc").expect("cc program");
    let n = graph.num_vertices() as u64;
    let rows = partition_rows(graph, PARALLELISM);
    let first: Vec<_> =
        rows.iter().map(|r| program.step(0, &program.init_partition(r, n), &[], r, n)).collect();
    let mut inbound: Vec<Msg> = first
        .iter()
        .flat_map(|out| out.outbound.iter().copied())
        .filter(|&(_, dst, _)| (dst as usize).is_multiple_of(PARALLELISM))
        .collect();
    inbound.sort_unstable();
    let (mut compute, mut encode, mut decode, mut inbox) = (vec![], vec![], vec![], vec![]);
    let mut frame_bytes = 0;
    tracer.span("micro.cluster", |t| {
        for _ in 0..3 {
            let (out, tc) = timed(|| {
                t.span("cluster.ClusterProgram.step", |_| {
                    program.step(1, &first[0].state, &inbound, &rows[0], n)
                })
            });
            let frame = Message::ShuffleFrame {
                from_worker: 0,
                epoch: 1,
                superstep: 1,
                msgs: out.outbound,
            };
            let mut wire = Vec::new();
            let (written, te) = timed(|| {
                t.span("cluster.protocol.write_frame", |_| write_frame(&mut wire, &frame, None))
            });
            let (read, td) = timed(|| {
                t.span("cluster.protocol.read_frame", |_| read_frame(&mut Cursor::new(&wire), None))
            });
            report.check(written.is_ok() && read.is_ok_and(|m| m == frame), || {
                "frame round trip".into()
            });
            let Message::ShuffleFrame { msgs, .. } = frame else { unreachable!("built above") };
            let plane = DataPlane::default();
            plane.install_membership(1, [0, 1]);
            let (taken, ti) = timed(|| {
                t.span("cluster.exchange.DataPlane", |_| {
                    plane.deposit(1, 1, &msgs);
                    plane.take_sorted(1)
                })
            });
            report.check(taken.len() == msgs.len(), || "inbox lost messages".into());
            frame_bytes = wire.len();
            compute.push(tc);
            encode.push(te);
            decode.push(td);
            inbox.push(ti);
        }
    });
    let mb = frame_bytes as f64 / 1e6;
    report.set("cluster.step_compute_ms", median(&compute) * 1e3);
    report.set("cluster.frame_encode_mb_s", mb / median(&encode));
    report.set("cluster.frame_decode_mb_s", mb / median(&decode));
    report.set("cluster.inbox_ms", median(&inbox) * 1e3);
}

/// The workload.
pub fn run(params: &Params, tracer: &mut Tracer, report: &mut Report) {
    let vertices = params.vertices.unwrap_or(VERTICES);
    let mut setup = tracer.span("setup", |t| Setup::new(vertices, params.seed, t));
    report.set("graphs.generate_s", median(&setup.times));
    println!(
        "cluster-batch: {} graphs of {} vertices, {} edges, {WORKERS} workers x 1 partition, {} cores",
        setup.graphs.len(),
        setup.graphs[0].num_vertices(),
        setup.graphs[0].num_edges(),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );

    if !params.trace {
        // The references run both programs in process, before any job.
        let mut checkers: Vec<Checker> =
            setup.graphs.iter().map(|g| Checker::new(g, &params.worker_cmd, tracer)).collect();
        let mut walls: Vec<Vec<f64>> = vec![Vec::new(); Job::ALL.len()];
        let mut peaks: Vec<Vec<f64>> = vec![Vec::new(); Job::ALL.len()];
        repeat_for(params.seconds, MIN_REPS, |rep| {
            let g = rep % setup.graphs.len();
            for (i, job) in Job::ALL.into_iter().enumerate() {
                let graph = setup.regenerate(g, tracer, report);
                let finished = run_job(&graph, job, &params.worker_cmd, false, tracer);
                checkers[g].check(report, job, &finished);
                walls[i].push(finished.wall);
                peaks[i].push(finished.peak_mb);
            }
        });
        println!("job walls (median over repetitions, one graph each):");
        for (job, w) in Job::ALL.iter().zip(&walls) {
            report.row(job.name(), "s", w);
        }
        let fixpoint =
            rep_sums(&walls, &[Job::CcFixpoint as usize, Job::PagerankFixpoint as usize]);
        let recovered =
            rep_sums(&walls, &[Job::CcRecovered as usize, Job::PagerankRecovered as usize]);
        report.row("fixpoint_s (cc + pagerank)", "s", &fixpoint);
        report.row("recovered_s (cc + pagerank)", "s", &recovered);
        report.row("setup_s (graph generation)", "s", &setup.times);
        let worst = checkers.iter().map(|c| c.worst_rank_error).fold(0.0, f64::max);
        println!("  pagerank worst relative error {worst:.3e} (tolerance {RANK_TOLERANCE:.0e})");
        report.set("fixpoint_s", median(&fixpoint));
        report.set("recovered_s", median(&recovered));
        // A job's peak depends on how its workers' supersteps interleave:
        // the median over repetitions per job, then the heaviest job.
        println!("peak memory per job (coordinator + workers, sampled):");
        for (job, p) in Job::ALL.iter().zip(&peaks) {
            report.row(job.name(), "MB", p);
        }
        report.set("setup_s", median(&setup.times));
        report.set("peak_rss_mb", peaks.iter().map(|p| median(p)).fold(0.0, f64::max));
        return;
    }

    // Traced run, on the first graph.
    let graph = &setup.graphs[0];
    let mut checker = Checker::new(graph, &params.worker_cmd, tracer);
    let (mut untraced, mut traced_total) = (0.0, 0.0);
    let mut jobs = Vec::new();
    for job in Job::ALL {
        let plain = run_job(graph, job, &params.worker_cmd, false, &mut Tracer::new(false));
        checker.check(report, job, &plain);
        let finished = run_job(graph, job, &params.worker_cmd, true, tracer);
        checker.check(report, job, &finished);
        println!(
            "  {:<28} untraced {:.4} s, traced {:.4} s",
            job.name(),
            plain.wall,
            finished.wall
        );
        untraced += plain.wall;
        traced_total += finished.wall;
        jobs.push(finished);
    }
    report.set("trace.overhead_ratio", traced_total / untraced);
    let [cc_ff, cc_kill, pr_ff, pr_kill] = &jobs[..] else { unreachable!("four jobs") };
    let (cc_ff_stats, cc_kill_stats) = (&cc_ff.run.stats, &cc_kill.run.stats);
    report.set("cluster.startup_ms", (cc_ff.wall - cc_ff_stats.total_duration.as_secs_f64()) * 1e3);
    report.set("cluster.superstep_ms", median(&superstep_ms(cc_ff_stats)));
    let metrics = cc_ff.telemetry.metrics();
    report.set(
        "cluster.peer_bytes",
        metrics.partitioned_histogram("net/peer_bytes", WORKERS).global().sum() as f64,
    );
    report.set(
        "cluster.control_bytes",
        (metrics.counter("net/bytes_in").get() + metrics.counter("net/bytes_out").get()) as f64,
    );
    report.set(
        "cluster.exchange_wait_ms",
        metrics.partitioned_histogram("worker_exchange_ns", WORKERS).global().sum() as f64 / 1e6,
    );
    report
        .set("recovery.compensate_ms", cc_kill_stats.total_recovery_duration().as_secs_f64() * 1e3);
    report.set(
        "recovery.cc_redundant_supersteps",
        f64::from(cc_kill_stats.supersteps()) - f64::from(cc_ff_stats.supersteps()),
    );
    report.set(
        "recovery.pagerank_redundant_supersteps",
        f64::from(pr_kill.run.stats.supersteps()) - f64::from(pr_ff.run.stats.supersteps()),
    );
    let bill = cc_kill.sink.as_ref().into_iter().flat_map(|s| s.events()).find_map(|e| match e {
        JournalEvent::RecoveryCost { detect_ns, respawn_ns, reshipped_bytes, .. } => {
            Some((detect_ns, respawn_ns, reshipped_bytes))
        }
        _ => None,
    });
    report.check(bill.is_some(), || "cc kill job: no RecoveryCost bill".into());
    if let Some((detect_ns, respawn_ns, reshipped)) = bill {
        report.set("recovery.detect_ms", detect_ns as f64 / 1e6);
        report.set("recovery.respawn_ms", respawn_ns as f64 / 1e6);
        report.set("recovery.reshipped_bytes", reshipped as f64);
    }
    let (enc, dec) = codec_mb_s(&cc_ff.run.values, tracer, report);
    report.set("dataflow.codec_encode_mb_s", enc);
    report.set("dataflow.codec_decode_mb_s", dec);
    report
        .set("cluster.workers_peak_rss_mb", jobs.iter().map(|j| j.workers_mb).fold(0.0, f64::max));
    micro(graph, tracer, report);
}
