//! `local-batch`: the in-process engine, no sockets.
//!
//! Each repetition runs five jobs on one preferential-attachment graph:
//! CC (delta iteration) failure-free, CC with partition 1 lost at
//! superstep 3 under optimistic recovery, the same loss under
//! `checkpoint:2` (the rollback baseline, in-memory store, no injected
//! delay), PageRank (bulk iteration) failure-free, and PageRank with the
//! same loss under optimistic recovery. Each job runs on a fresh generation
//! of the graph, timed into `setup_s`.

use std::sync::Arc;

use algos::common::FtConfig;
use algos::connected_components::{self as cc, CcConfig, CcResult};
use algos::pagerank::{self as pr, PrConfig, PrResult};
use dataflow::codec::{decode_exact, encode_to_vec};
use dataflow::stats::RunStats;
use graphs::{Graph, VertexId};
use recovery::scenario::FailureScenario;
use telemetry::{MemorySink, SinkHandle};

use crate::report::Report;
use crate::spans::Tracer;
use crate::stats::median;
use crate::{
    rank_error, rep_sums, repeat_for, superstep_ms, sys, timed, Params, Setup, PARALLELISM,
    RANK_TOLERANCE,
};

/// Default vertex count.
pub const VERTICES: usize = 100_000;

/// Minimum repetitions per untraced run: in-process jobs are short and vary the most.
pub const MIN_REPS: usize = 4;

/// The five jobs of one repetition; the discriminant is the job's index in
/// [`Job::ALL`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Job {
    /// CC, failure-free.
    CcFixpoint,
    /// CC, partition 1 lost at superstep 3, optimistic recovery.
    CcRecovered,
    /// CC, the same loss under `checkpoint:2`.
    CcRollback,
    /// PageRank, failure-free.
    PagerankFixpoint,
    /// PageRank, partition 1 lost at superstep 3, optimistic recovery.
    PagerankRecovered,
}

impl Job {
    /// Every job, in the order one repetition runs them.
    pub const ALL: [Job; 5] = [
        Job::CcFixpoint,
        Job::CcRecovered,
        Job::CcRollback,
        Job::PagerankFixpoint,
        Job::PagerankRecovered,
    ];

    /// Table name of the job's wall time.
    pub fn name(self) -> &'static str {
        match self {
            Job::CcFixpoint => "cc_fixpoint_s",
            Job::CcRecovered => "cc_recovered_s",
            Job::CcRollback => "cc_rollback_s",
            Job::PagerankFixpoint => "pagerank_fixpoint_s",
            Job::PagerankRecovered => "pagerank_recovered_s",
        }
    }

    fn ft(self, telemetry: SinkHandle) -> FtConfig {
        let loss = FailureScenario::none().fail_at(3, &[1]);
        let ft = match self {
            Job::CcFixpoint | Job::PagerankFixpoint => FtConfig::default(),
            Job::CcRecovered | Job::PagerankRecovered => FtConfig::optimistic(loss),
            Job::CcRollback => FtConfig::checkpoint(2, loss),
        };
        ft.with_telemetry(telemetry)
    }
}

/// What a job produced.
pub enum Outcome {
    /// A CC result.
    Cc(CcResult),
    /// A PageRank result.
    Pagerank(PrResult),
}

impl Outcome {
    /// The engine's run statistics.
    pub fn stats(&self) -> &RunStats {
        match self {
            Outcome::Cc(r) => &r.stats,
            Outcome::Pagerank(r) => &r.stats,
        }
    }
}

/// Run one job, returning its outcome and wall seconds.
pub fn run_job(
    graph: &Graph,
    job: Job,
    telemetry: SinkHandle,
    tracer: &mut Tracer,
) -> (Outcome, f64) {
    let ft = job.ft(telemetry);
    let (outcome, wall) = timed(|| {
        tracer.span(job.name(), |t| match job {
            Job::CcFixpoint | Job::CcRecovered | Job::CcRollback => {
                let config = CcConfig {
                    parallelism: PARALLELISM,
                    ft,
                    track_truth: false,
                    ..Default::default()
                };
                t.span("algos.connected_components.run", |_| {
                    Outcome::Cc(cc::run(graph, &config).expect("cc job"))
                })
            }
            Job::PagerankFixpoint | Job::PagerankRecovered => {
                let config = PrConfig {
                    parallelism: PARALLELISM,
                    ft,
                    track_truth: false,
                    ..Default::default()
                };
                t.span("algos.pagerank.run", |_| {
                    Outcome::Pagerank(pr::run(graph, &config).expect("pagerank job"))
                })
            }
        })
    });
    (outcome, wall)
}

/// Output checks: CC labels equal the exact components bitwise; PageRank
/// converges within [`RANK_TOLERANCE`] of the first failure-free PageRank
/// run of the process, which becomes the reference.
pub struct Checker {
    truth: Vec<VertexId>,
    ranks: Option<Vec<(VertexId, f64)>>,
    /// Worst PageRank error seen, as [`rank_error`] measures it.
    pub worst_rank_error: f64,
}

impl Checker {
    /// Checker against the exact components of `graph`.
    pub fn new(graph: &Graph, tracer: &mut Tracer) -> Self {
        let truth = tracer.span("reference", |t| {
            t.span("graphs.exact_components", |_| graphs::exact_components(graph))
        });
        Checker { truth, ranks: None, worst_rank_error: 0.0 }
    }

    /// Check one job's outcome into `report`.
    pub fn check(&mut self, report: &mut Report, job: Job, outcome: &Outcome) {
        match outcome {
            Outcome::Cc(r) => report.check(
                r.stats.converged
                    && r.labels.len() == self.truth.len()
                    && r.labels.iter().all(|&(v, l)| self.truth[v as usize] == l),
                || format!("{}: labels differ from the exact components", job.name()),
            ),
            Outcome::Pagerank(r) => {
                if self.ranks.is_none() && job == Job::PagerankFixpoint {
                    self.ranks = Some(r.ranks.clone());
                }
                let reference = self.ranks.as_deref().unwrap_or_default();
                let error = rank_error(r.ranks.iter().copied(), reference.iter().copied());
                self.worst_rank_error = self.worst_rank_error.max(error.unwrap_or(f64::INFINITY));
                report.check(
                    r.stats.converged && error.is_some_and(|e| e <= RANK_TOLERANCE),
                    || {
                        format!(
                            "{}: ranks differ from the failure-free run by {error:?}",
                            job.name()
                        )
                    },
                )
            }
        }
    }
}

/// Encode/decode throughput (MB/s) of a CC state through the engine codec,
/// median of five round trips. Decoded state must equal the input.
pub fn codec_mb_s(
    labels: &Vec<(VertexId, VertexId)>,
    tracer: &mut Tracer,
    report: &mut Report,
) -> (f64, f64) {
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    let mut bytes = 0;
    tracer.span("micro.codec", |t| {
        for _ in 0..5 {
            let (encoded, te) =
                timed(|| t.span("dataflow.codec.encode_to_vec", |_| encode_to_vec(labels)));
            let (decoded, td) = timed(|| {
                t.span("dataflow.codec.decode_exact", |_| {
                    decode_exact::<Vec<(VertexId, VertexId)>>(&encoded)
                })
            });
            report.check(decoded.as_ref().is_ok_and(|d| d == labels), || "codec round trip".into());
            bytes = encoded.len();
            enc.push(te);
            dec.push(td);
        }
    });
    let mb = bytes as f64 / 1e6;
    (mb / median(&enc), mb / median(&dec))
}

fn traced_sink() -> SinkHandle {
    SinkHandle::new(Arc::new(MemorySink::new()))
}

/// The workload.
pub fn run(params: &Params, tracer: &mut Tracer, report: &mut Report) {
    let vertices = params.vertices.unwrap_or(VERTICES);
    let mut setup = tracer.span("setup", |t| Setup::new(vertices, params.seed, t));
    report.set("graphs.generate_s", median(&setup.times));
    println!(
        "local-batch: {} graphs of {} vertices, {} edges, parallelism {PARALLELISM}, {} cores",
        setup.graphs.len(),
        setup.graphs[0].num_vertices(),
        setup.graphs[0].num_edges(),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );

    // References, outside every timed region, one per graph.
    let mut checkers: Vec<Checker> = setup.graphs.iter().map(|g| Checker::new(g, tracer)).collect();
    sys::reset_peak_rss();
    // Warm-up: the first job of a process pays page faults the rest do not.
    let (warm, _) = run_job(&setup.graphs[0], Job::CcFixpoint, SinkHandle::disabled(), tracer);
    checkers[0].check(report, Job::CcFixpoint, &warm);

    if !params.trace {
        let mut walls: Vec<Vec<f64>> = vec![Vec::new(); Job::ALL.len()];
        repeat_for(params.seconds, MIN_REPS, |rep| {
            let g = rep % setup.graphs.len();
            for (i, job) in Job::ALL.into_iter().enumerate() {
                let graph = setup.regenerate(g, tracer, report);
                let (outcome, wall) = run_job(&graph, job, SinkHandle::disabled(), tracer);
                checkers[g].check(report, job, &outcome);
                walls[i].push(wall);
            }
        });
        println!("job walls (median over repetitions, one graph each):");
        for (job, w) in Job::ALL.iter().zip(&walls) {
            report.row(job.name(), "s", w);
        }
        let fixpoint =
            rep_sums(&walls, &[Job::CcFixpoint as usize, Job::PagerankFixpoint as usize]);
        let recovered = rep_sums(
            &walls,
            &[Job::CcRecovered as usize, Job::CcRollback as usize, Job::PagerankRecovered as usize],
        );
        report.row("fixpoint_s (cc + pagerank)", "s", &fixpoint);
        report.row("recovered_s (cc + rollback + pagerank)", "s", &recovered);
        report.row("setup_s (graph generation)", "s", &setup.times);
        let worst = checkers.iter().map(|c| c.worst_rank_error).fold(0.0, f64::max);
        println!("  pagerank worst relative error {worst:.3e} (tolerance {RANK_TOLERANCE:.0e})");
        report.set("fixpoint_s", median(&fixpoint));
        report.set("recovered_s", median(&recovered));
        report.set("setup_s", median(&setup.times));
        report.set("peak_rss_mb", sys::peak_rss_mb());
        return;
    }

    // Traced run, on the first graph: each job once untraced and once with
    // the engine's telemetry and the benchmark's spans on.
    let (graph, checker) = (&setup.graphs[0], &mut checkers[0]);
    let (mut untraced, mut traced_total) = (0.0, 0.0);
    let mut outcomes = Vec::new();
    for job in Job::ALL {
        let (outcome, plain) = run_job(graph, job, SinkHandle::disabled(), &mut Tracer::new(false));
        checker.check(report, job, &outcome);
        let (outcome, wall) = run_job(graph, job, traced_sink(), tracer);
        checker.check(report, job, &outcome);
        println!("  {:<28} untraced {plain:.4} s, traced {wall:.4} s", job.name());
        untraced += plain;
        traced_total += wall;
        outcomes.push(outcome);
    }
    report.set("trace.overhead_ratio", traced_total / untraced);
    let stats: Vec<&RunStats> = outcomes.iter().map(Outcome::stats).collect();
    let [cc_ff, cc_opt, cc_ckpt, pr_ff, pr_opt] = stats[..] else { unreachable!("five jobs") };
    let cc_steps = superstep_ms(cc_ff);
    report.set("dataflow.cc_superstep_ms", median(&cc_steps));
    report.set("dataflow.cc_tail_superstep_ms", cc_steps.last().copied().unwrap_or(0.0));
    report.set("dataflow.pagerank_superstep_ms", median(&superstep_ms(pr_ff)));
    report.set("dataflow.cc_supersteps", f64::from(cc_ff.supersteps()));
    report.set("dataflow.pagerank_supersteps", f64::from(pr_ff.supersteps()));
    let messages: u64 = cc_ff.counter_series(algos::common::MESSAGES).iter().sum();
    let updates: u64 = cc_ff.iterations.iter().filter_map(|i| i.workset_size).sum();
    report.set("dataflow.cc_messages", messages as f64);
    report.set(
        "dataflow.records_shuffled",
        cc_ff.iterations.iter().map(|i| i.records_shuffled).sum::<u64>() as f64,
    );
    report.set("dataflow.cc_useful_ratio", updates as f64 / messages.max(1) as f64);
    report.set("recovery.compensate_ms", cc_opt.total_recovery_duration().as_secs_f64() * 1e3);
    report.set(
        "recovery.cc_redundant_supersteps",
        f64::from(cc_opt.supersteps()) - f64::from(cc_ff.supersteps()),
    );
    report.set(
        "recovery.pagerank_redundant_supersteps",
        f64::from(pr_opt.supersteps()) - f64::from(pr_ff.supersteps()),
    );
    report.set(
        "recovery.rollback_redundant_supersteps",
        f64::from(cc_ckpt.supersteps()) - f64::from(cc_ff.supersteps()),
    );
    report.set("recovery.checkpoint_bytes", cc_ckpt.total_checkpoint_bytes() as f64);
    report.set("recovery.checkpoint_ms", cc_ckpt.total_checkpoint_duration().as_secs_f64() * 1e3);
    report.set("recovery.rollback_ms", cc_ckpt.total_recovery_duration().as_secs_f64() * 1e3);
    if let Outcome::Cc(result) = &outcomes[0] {
        let (enc, dec) = codec_mb_s(&result.labels, tracer, report);
        report.set("dataflow.codec_encode_mb_s", enc);
        report.set("dataflow.codec_decode_mb_s", dec);
    }
}
