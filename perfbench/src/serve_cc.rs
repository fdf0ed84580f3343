//! `serve-cc`: the serving daemon maintaining CC under a seeded stream of
//! single-edge commits, with queries alongside.
//!
//! Two connections load the daemon: a closed-loop writer that sends one
//! mutation, waits for `ok staged`, sends `commit` and waits for the epoch
//! reply, then sends the next; and an open-loop reader that sends a query
//! every 5 ms (200 queries/s) whether or not the previous one was
//! answered, timing each from when it was due.

use std::collections::VecDeque;
use std::hint::black_box;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use graphs::{Graph, VertexId};
use serve::{
    DaemonHandle, EpochReport, ServeAlgorithm, ServeConfig, ServeEngine, Snapshot, Solution,
};
use telemetry::{MemorySink, SinkHandle, SpanKind};

use crate::inputs::{Mutation, MutationStream, Query, QueryStream};
use crate::report::Report;
use crate::spans::Tracer;
use crate::stats::{median, Summary};
use crate::{inputs, secs, sys, timed, Params, PARALLELISM};

/// Default vertex count.
pub const VERTICES: usize = 50_000;

/// Sessions per run, each on a graph of its own, set up just before it.
pub const SESSIONS: usize = 9;

/// Reader queries per second.
pub const QUERY_RATE: f64 = 200.0;

/// Commits driven straight into `ServeEngine::commit` by the traced run.
pub const DIRECT_COMMITS: usize = 40;

/// Longest daemon session of the traced run.
const TRACED_SESSION_S: f64 = 6.0;

fn config(telemetry: SinkHandle) -> ServeConfig {
    ServeConfig {
        algorithm: ServeAlgorithm::ConnectedComponents,
        parallelism: PARALLELISM,
        telemetry,
        ..Default::default()
    }
}

/// One line-protocol connection to the daemon.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let mut conn = Conn { reader: BufReader::new(writer.try_clone()?), writer };
        let greeting = conn.read()?;
        if !greeting.starts_with("hello cc epoch ") {
            return Err(std::io::Error::other(format!("unexpected greeting `{greeting}`")));
        }
        Ok(conn)
    }

    fn read(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(line.trim_end().to_string())
    }

    fn ask(&mut self, line: &str) -> std::io::Result<String> {
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        self.read()
    }

    /// Labels of vertices `0..n` via pipelined `get`s. A second thread
    /// sends the requests while this one reads the answers, so neither
    /// side's socket buffer can fill up and stall the other.
    fn labels(&mut self, n: usize) -> std::io::Result<Vec<Option<VertexId>>> {
        let mut writer = self.writer.try_clone()?;
        let requests: String = (0..n).map(|v| format!("get {v}\n")).collect();
        std::thread::scope(|s| {
            let sent = s.spawn(move || writer.write_all(requests.as_bytes()));
            let labels = (0..n)
                .map(|_| Ok(self.read()?.strip_prefix("ok label ").and_then(|l| l.parse().ok())))
                .collect();
            sent.join().expect("request writer")?;
            labels
        })
    }
}

/// One answered (or failed) reader query.
struct QueryTiming {
    latency_ms: f64,
    late_ms: f64,
}

/// One writer commit: its kind and latency.
struct CommitTiming {
    delete: bool,
    latency_s: f64,
}

fn valid_answer(query: Query, answer: &str) -> bool {
    match query {
        Query::Get(v) => answer
            .strip_prefix("ok label ")
            .and_then(|l| l.parse::<u64>().ok())
            .is_some_and(|l| l <= v),
        Query::Top => answer.strip_prefix("ok top").is_some_and(|rest| {
            let entries: Vec<&str> = rest.split_whitespace().collect();
            !entries.is_empty()
                && entries.len() <= 10
                && entries.iter().all(|e| {
                    e.split_once(':')
                        .is_some_and(|(a, b)| a.parse::<u64>().is_ok() && b.parse::<u64>().is_ok())
                })
        }),
    }
}

/// The open-loop reader: one query is due every `1 / QUERY_RATE` seconds
/// and goes out when due, answered or not; answers come back in order on
/// the one connection. Stops sending once `stop` is set, then drains.
/// Returns the timings and the count of wrong or missing answers.
fn reader(
    addr: SocketAddr,
    vertices: usize,
    seed: u64,
    stop: &AtomicBool,
) -> (Vec<QueryTiming>, u64) {
    let mut timings = Vec::new();
    let Ok(mut conn) = Conn::open(addr) else {
        return (timings, 1);
    };
    let mut queries = QueryStream::new(vertices, seed);
    let period = Duration::from_secs_f64(1.0 / QUERY_RATE);
    let start = Instant::now();
    let mut sent = 0u32;
    let mut pending: VecDeque<(Query, Instant, f64)> = VecDeque::new();
    let mut line = Vec::new();
    let mut bad = 0;
    let mut drain_deadline = None;
    loop {
        let now = Instant::now();
        if drain_deadline.is_none() && stop.load(Ordering::SeqCst) {
            drain_deadline = Some(now + Duration::from_secs(10));
        }
        let mut due = start + period * sent;
        while drain_deadline.is_none() && due <= now {
            let query = queries.next_query();
            let late_ms = Instant::now().duration_since(due).as_secs_f64() * 1e3;
            if conn.writer.write_all(format!("{}\n", query.to_line()).as_bytes()).is_err() {
                bad += 1;
            }
            pending.push_back((query, due, late_ms));
            sent += 1;
            due = start + period * sent;
        }
        let wait = match drain_deadline {
            Some(deadline) if pending.is_empty() || now >= deadline => break,
            Some(deadline) => deadline - now,
            None => due.saturating_duration_since(now),
        };
        let _ = conn.writer.set_read_timeout(Some(wait.max(Duration::from_micros(100))));
        match conn.reader.read_until(b'\n', &mut line) {
            Ok(0) => break,
            Ok(_) if line.ends_with(b"\n") => {
                let done = Instant::now();
                let answer = String::from_utf8_lossy(&line).trim_end().to_string();
                line.clear();
                let Some((query, due, late_ms)) = pending.pop_front() else {
                    bad += 1;
                    continue;
                };
                if !valid_answer(query, &answer) {
                    bad += 1;
                }
                timings.push(QueryTiming {
                    latency_ms: done.duration_since(due).as_secs_f64() * 1e3,
                    late_ms,
                });
            }
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => break,
        }
    }
    bad += pending.len() as u64;
    let _ = conn.writer.set_read_timeout(None);
    let _ = conn.ask("quit");
    (timings, bad)
}

/// Writer and reader against the daemon for `seconds`, then the final
/// label check. Returns commit and query timings.
fn session(
    addr: SocketAddr,
    graph: &Graph,
    seed: u64,
    seconds: f64,
    report: &mut Report,
) -> (Vec<CommitTiming>, Vec<QueryTiming>) {
    let stop = Arc::new(AtomicBool::new(false));
    let reader_stop = stop.clone();
    let vertices = graph.num_vertices();
    let reader_thread = std::thread::spawn(move || reader(addr, vertices, seed, &reader_stop));

    let mut commits = Vec::new();
    let mut stream = MutationStream::new(graph, seed);
    let mut conn = Conn::open(addr).expect("writer connects to the daemon");
    let start = Instant::now();
    while secs(start) < seconds {
        let mutation = stream.next_mutation();
        // Stage, wait for `ok staged`, then commit: one line and its reply
        // at a time, as a line-protocol client talks to the daemon.
        let ((staged, reply), latency_s) =
            timed(|| (conn.ask(&mutation.to_line()), conn.ask("commit")));
        let ok = staged.as_deref().is_ok_and(|s| s == "ok staged")
            && reply
                .as_deref()
                .is_ok_and(|r| r.starts_with("ok epoch ") && r.ends_with(" converged true"));
        report.check(ok, || format!("commit of `{}`: {staged:?} / {reply:?}", mutation.to_line()));
        commits.push(CommitTiming { delete: mutation.is_delete(), latency_s });
    }
    stop.store(true, Ordering::SeqCst);
    let (queries, bad) = reader_thread.join().expect("reader thread");
    report.tally(queries.len() as u64 + bad, bad, || {
        format!("{bad} queries answered wrongly or not at all")
    });

    let truth = graphs::exact_components(&stream.mirror().live().build());
    let labels = conn.labels(truth.len());
    report.check(
        labels.as_ref().is_ok_and(|l| l.iter().zip(&truth).all(|(a, b)| *a == Some(*b))),
        || "final labels differ from the exact components of the mirror".into(),
    );
    let _ = conn.ask("quit");
    (commits, queries)
}

/// One set-up: generate the graph, bootstrap an engine over it and start a
/// daemon serving it. Returns the wall seconds of the generation, the
/// bootstrap and the whole set-up.
fn setup(vertices: usize, seed: u64, tracer: &mut Tracer) -> (Graph, DaemonHandle, [f64; 3]) {
    let start = Instant::now();
    let (graph, gen) =
        timed(|| tracer.span("graphs.preferential_attachment", |_| inputs::graph(vertices, seed)));
    let (engine, boot) = timed(|| {
        tracer.span("serve.ServeEngine.bootstrap", |_| {
            ServeEngine::bootstrap(config(SinkHandle::disabled()), &graph).expect("bootstrap").0
        })
    });
    let daemon =
        tracer.span("serve.spawn", |_| serve::spawn(engine, "127.0.0.1:0").expect("daemon binds"));
    (graph, daemon, [gen, boot, secs(start)])
}

fn labels_of(snapshot: &Snapshot) -> Vec<VertexId> {
    match &snapshot.solution {
        Solution::Components(labels) => labels.iter().map(|&(_, l)| l).collect(),
        Solution::Ranks(_) => Vec::new(),
    }
}

fn apply(
    engine: &mut ServeEngine,
    mutation: Mutation,
) -> (bool, Result<EpochReport, String>, Snapshot) {
    let staged = match mutation {
        Mutation::Insert(u, v) => engine.stage_insert(u, v),
        Mutation::Delete(u, v) => engine.stage_delete(u, v),
    };
    let report = engine.commit();
    (staged, report, engine.snapshot())
}

/// The traced run's direct phase: the seeded stream driven straight into
/// two engines, one untraced and one with telemetry and spans on.
fn direct(graph: &Graph, seed: u64, tracer: &mut Tracer, report: &mut Report) {
    let sink = Arc::new(MemorySink::new());
    let mut plain =
        ServeEngine::bootstrap(config(SinkHandle::disabled()), graph).expect("bootstrap").0;
    let mut traced =
        ServeEngine::bootstrap(config(SinkHandle::new(sink.clone())), graph).expect("bootstrap").0;
    sink.clear();
    let mut stream = MutationStream::new(graph, seed);
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    let (mut inserts, mut deletes, mut snapshots) = (Vec::new(), Vec::new(), Vec::new());
    let (mut steps, mut tails, mut seeded, mut supersteps) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..DIRECT_COMMITS {
        let mutation = stream.next_mutation();
        let (untraced, t_plain) = timed(|| apply(&mut plain, mutation));
        let ((staged, epoch, _), t_traced) = timed(|| {
            tracer.span("commit", |t| {
                let staged = t.span("serve.ServeEngine.stage", |_| match mutation {
                    Mutation::Insert(u, v) => traced.stage_insert(u, v),
                    Mutation::Delete(u, v) => traced.stage_delete(u, v),
                });
                let (epoch, commit_s) =
                    timed(|| t.span("serve.ServeEngine.commit", |_| traced.commit()));
                let (snapshot, snapshot_s) =
                    timed(|| t.span("serve.ServeEngine.snapshot", |_| traced.snapshot()));
                if mutation.is_delete() { &mut deletes } else { &mut inserts }.push(commit_s * 1e3);
                snapshots.push(snapshot_s * 1e3);
                (staged, epoch, snapshot)
            })
        });
        plain_s += t_plain;
        traced_s += t_traced;
        let converged = |r: &Result<EpochReport, String>| r.as_ref().is_ok_and(|r| r.converged);
        report.check(staged && untraced.0 && converged(&epoch) && converged(&untraced.1), || {
            format!("direct commit of `{}`", mutation.to_line())
        });
        if let Ok(epoch) = epoch {
            if !mutation.is_delete() {
                seeded.push(epoch.seeded as f64);
            }
            supersteps.push(f64::from(epoch.supersteps));
        }
        let step_ms: Vec<f64> = sink
            .spans()
            .iter()
            .filter(|s| s.kind == SpanKind::Superstep)
            .map(|s| s.duration.as_secs_f64() * 1e3)
            .collect();
        tails.extend(step_ms.last().copied());
        steps.extend(step_ms);
        sink.clear();
    }
    let truth = graphs::exact_components(&stream.mirror().live().build());
    for engine in [&plain, &traced] {
        report
            .check(labels_of(&engine.snapshot()) == truth, || "direct engine labels differ".into());
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    report.set("trace.overhead_ratio", traced_s / plain_s);
    report.set("serve.insert_commit_ms", median(&inserts));
    report.set("serve.delete_commit_ms", median(&deletes));
    report.set("serve.snapshot_ms", median(&snapshots));
    report.set("serve.seeded_per_insert", mean(&seeded));
    report.set("serve.supersteps_per_commit", mean(&supersteps));
    report.set("dataflow.cc_superstep_ms", median(&steps));
    report.set("dataflow.cc_tail_superstep_ms", median(&tails));
    println!("  direct commits: {DIRECT_COMMITS}, untraced {plain_s:.4} s, traced {traced_s:.4} s");

    // Query path and graph rebuild, timed on their own.
    let snapshot = traced.snapshot();
    let mut queries = QueryStream::new(graph.num_vertices(), seed);
    let (mut point_us, mut top_us, mut build_ms) = (Vec::new(), Vec::new(), Vec::new());
    tracer.span("micro.serve", |t| {
        for _ in 0..5 {
            let gets: Vec<VertexId> = std::iter::repeat_with(|| queries.next_query())
                .filter_map(|q| if let Query::Get(v) = q { Some(v) } else { None })
                .take(2000)
                .collect();
            let (_, s) = timed(|| {
                t.span("serve.Snapshot.point", |_| {
                    gets.iter().for_each(|&v| {
                        black_box(snapshot.point(v));
                    })
                })
            });
            point_us.push(s * 1e6 / gets.len() as f64);
            let (_, s) = timed(|| t.span("serve.Snapshot.top", |_| black_box(snapshot.top(10))));
            top_us.push(s * 1e6);
            let (_, s) = timed(|| {
                t.span("serve.LiveGraph.build", |_| black_box(stream.mirror().live().build()))
            });
            build_ms.push(s * 1e3);
        }
    });
    report.set("serve.point_us", median(&point_us));
    report.set("serve.top_us", median(&top_us));
    report.set("graphs.live_build_ms", median(&build_ms));
}

/// The workload: [`SESSIONS`] sessions, each on a graph of its own seed
/// derived from the run's. Each set-up is followed by its session, and its
/// daemon is stopped after it, so the set-ups spread over the whole run;
/// the run's time is split evenly between the sessions.
pub fn run(params: &Params, tracer: &mut Tracer, report: &mut Report) {
    let vertices = params.vertices.unwrap_or(VERTICES);
    let session_s =
        if params.trace { params.seconds.min(TRACED_SESSION_S) } else { params.seconds }
            / SESSIONS as f64;
    let (mut setups, mut commits, mut queries, mut peaks) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for i in 0..SESSIONS {
        let seed = inputs::graph_seed(params.seed, i);
        // Each session's peak memory is measured on its own.
        sys::reset_peak_rss();
        let (graph, daemon, times) = tracer.span("setup", |t| setup(vertices, seed, t));
        setups.push(times);
        if i == 0 {
            println!(
                "serve-cc: {SESSIONS} graphs of {} vertices, {} edges, parallelism {PARALLELISM}, \
                 {QUERY_RATE} queries/s, {} cores",
                graph.num_vertices(),
                graph.num_edges(),
                std::thread::available_parallelism().map_or(0, |n| n.get())
            );
            if params.trace {
                direct(&graph, seed, tracer, report);
            }
        }
        let (c, q) =
            tracer.span("session", |_| session(daemon.addr(), &graph, seed, session_s, report));
        daemon.stop();
        peaks.push(sys::peak_rss_mb());
        commits.extend(c);
        queries.extend(q);
    }
    let column = |k: usize| setups.iter().map(|t| t[k]).collect::<Vec<f64>>();
    report.set("setup_s", median(&column(2)));
    report.set("graphs.generate_s", median(&column(0)));
    report.set("serve.bootstrap_s", median(&column(1)));

    let ms = |v: Vec<f64>| v.into_iter().map(|s| s * 1e3).collect::<Vec<_>>();
    let all: Vec<f64> = ms(commits.iter().map(|c| c.latency_s).collect());
    let inserts: Vec<f64> = commits.iter().filter(|c| !c.delete).map(|c| c.latency_s).collect();
    let deletes: Vec<f64> = commits.iter().filter(|c| c.delete).map(|c| c.latency_s).collect();
    let latency: Vec<f64> = queries.iter().map(|q| q.latency_ms).collect();
    let late: Vec<f64> = queries.iter().map(|q| q.late_ms).collect();
    let show = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |v| format!("{v:.4}"));
    println!("commits (closed loop) and queries (open loop, timed from their due time):");
    println!(
        "  commit_p50_ms {}  commit_p90_ms {}  (n={})",
        show(Some(median(&all))),
        show(Summary::percentile(&all, 90.0)),
        all.len()
    );
    println!(
        "  query_p50_ms {}  query_p99_ms {}  (n={})",
        show(Some(median(&latency))),
        show(Summary::percentile(&latency, 99.0)),
        latency.len()
    );
    report.row("insert_commit_ms", "ms", &ms(inserts.clone()));
    report.row("delete_commit_ms", "ms", &ms(deletes.clone()));
    report.row("query_ms", "ms", &latency);
    report.row("generator_late_ms", "ms", &late);
    if let Some((_, late_tail)) = Summary::of(&late).and_then(|s| s.tail) {
        report.set("bench.generator_late_ms", late_tail);
    }
    report.row("peak_rss_mb (per session)", "MB", &peaks);
    if !params.trace {
        report.set("fixpoint_s", median(&inserts));
        report.set("recovered_s", median(&deletes));
        report.set("peak_rss_mb", median(&peaks));
    }
}
