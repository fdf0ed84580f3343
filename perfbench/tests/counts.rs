//! The exact counts of the traced run repeat exactly across two runs of
//! one seed: supersteps, messages, redundant supersteps, peer bytes and
//! checkpoint bytes. Small graphs keep the runs short.

use perfbench::report::Report;
use perfbench::spans::Tracer;
use perfbench::Params;

fn traced(workload: &str, seed: u64) -> Report {
    let params = Params {
        vertices: Some(3_000),
        worker_cmd: vec![env!("CARGO_BIN_EXE_perfbench").to_string(), "worker".to_string()],
        ..Params::new(seed, 0.0, true)
    };
    let report = perfbench::run(workload, &params, &mut Tracer::new(true)).expect("known workload");
    assert!(
        report.correct(),
        "{workload}: {} of {} checks failed",
        report.failed(),
        report.attempted()
    );
    report
}

fn assert_repeats(workload: &str, counts: &[&str], nonzero: &[&str]) {
    let (a, b) = (traced(workload, 42), traced(workload, 42));
    for name in counts {
        assert_eq!(a.get(name), b.get(name), "{workload}: {name} differs between runs");
    }
    for name in nonzero {
        assert!(a.get(name).is_some_and(|v| v > 0.0), "{workload}: {name} is {:?}", a.get(name));
    }
}

#[test]
fn local_batch_counts_repeat() {
    let counts = [
        "dataflow.cc_supersteps",
        "dataflow.pagerank_supersteps",
        "dataflow.cc_messages",
        "dataflow.records_shuffled",
        "recovery.cc_redundant_supersteps",
        "recovery.pagerank_redundant_supersteps",
        "recovery.rollback_redundant_supersteps",
        "recovery.checkpoint_bytes",
    ];
    assert_repeats("local-batch", &counts, &["dataflow.cc_messages", "recovery.checkpoint_bytes"]);
}

#[test]
fn cluster_batch_counts_repeat() {
    let counts = [
        "cluster.peer_bytes",
        "recovery.cc_redundant_supersteps",
        "recovery.pagerank_redundant_supersteps",
    ];
    assert_repeats(
        "cluster-batch",
        &counts,
        &["cluster.peer_bytes", "recovery.pagerank_redundant_supersteps"],
    );
}
