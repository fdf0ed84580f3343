//! Golden journals: every recovery strategy of delta CC, bulk CC and
//! PageRank on the demo graphs, under one injected partition loss and under
//! one UDF panic, must reproduce its checked-in journal byte for byte —
//! along with the run's superstep and logical-iteration counts.
//!
//! Journal events carry no wall-clock data, so the comparison is exact. Any
//! change to the superstep driver or to a fault handler that moves, drops or
//! reorders an event, or that changes a checkpoint's byte size, shows up
//! here as a diff.
//!
//! To regenerate the goldens after an intended behaviour change:
//!
//! ```text
//! OPTIREC_BLESS_GOLDEN=1 cargo test --test golden_journals
//! ```

use std::path::PathBuf;
use std::sync::Arc;

use algos::connected_components::{self, CcConfig};
use algos::pagerank::{self, PrConfig};
use algos::FtConfig;
use dataflow::stats::RunStats;
use recovery::scenario::FailureScenario;
use recovery::strategy::Strategy;
use telemetry::{MemorySink, SinkHandle};

const BULK_STRATEGIES: [Strategy; 5] = [
    Strategy::Optimistic,
    Strategy::Checkpoint { interval: 2 },
    Strategy::AsyncSnapshot { interval: 2 },
    Strategy::Restart,
    Strategy::Ignore,
];

#[derive(Clone, Copy)]
enum Fault {
    /// Partition 1 is lost at the end of the given superstep.
    Loss(u32),
    /// A UDF panics once inside the loop body at the given superstep.
    Panic(u32),
}

impl Fault {
    fn label(self) -> String {
        match self {
            Fault::Loss(s) => format!("loss{s}"),
            Fault::Panic(s) => format!("panic{s}"),
        }
    }

    fn scenario(self) -> FailureScenario {
        match self {
            Fault::Loss(s) => FailureScenario::none().fail_at(s, &[1]),
            Fault::Panic(_) => FailureScenario::none(),
        }
    }

    fn panic_at(self) -> Option<u32> {
        match self {
            Fault::Loss(_) => None,
            Fault::Panic(s) => Some(s),
        }
    }
}

fn strategy_label(strategy: Strategy) -> String {
    match strategy {
        Strategy::Optimistic => "optimistic".into(),
        Strategy::Checkpoint { interval } => format!("checkpoint{interval}"),
        Strategy::IncrementalCheckpoint { full_interval } => format!("incremental{full_interval}"),
        Strategy::AsyncSnapshot { interval } => format!("async-snapshot{interval}"),
        Strategy::Restart => "restart".into(),
        Strategy::Ignore => "ignore".into(),
    }
}

fn ft(strategy: Strategy, fault: Fault, sink: &Arc<MemorySink>) -> FtConfig {
    FtConfig { strategy, scenario: fault.scenario(), ..Default::default() }
        .with_telemetry(SinkHandle::new(sink.clone()))
}

fn delta_cc(strategy: Strategy, fault: Fault) -> (String, RunStats) {
    let sink = Arc::new(MemorySink::new());
    let config = CcConfig {
        parallelism: 4,
        ft: ft(strategy, fault, &sink),
        panic_at: fault.panic_at(),
        ..Default::default()
    };
    let result = connected_components::run(&graphs::generators::demo_components(), &config)
        .expect("delta cc run");
    (sink.journal_lines(), result.stats)
}

fn bulk_cc(strategy: Strategy, fault: Fault) -> (String, RunStats) {
    let sink = Arc::new(MemorySink::new());
    let config = CcConfig { parallelism: 4, ft: ft(strategy, fault, &sink), ..Default::default() };
    let result = connected_components::run_bulk(&graphs::generators::demo_components(), &config)
        .expect("bulk cc run");
    (sink.journal_lines(), result.stats)
}

fn pagerank(strategy: Strategy, fault: Fault) -> (String, RunStats) {
    let sink = Arc::new(MemorySink::new());
    let config = PrConfig {
        parallelism: 4,
        ft: ft(strategy, fault, &sink),
        panic_at: fault.panic_at(),
        ..Default::default()
    };
    let result =
        pagerank::run(&graphs::generators::demo_pagerank(), &config).expect("pagerank run");
    (sink.journal_lines(), result.stats)
}

type Runner = fn(Strategy, Fault) -> (String, RunStats);

/// Every golden case: `(algorithm, runner, strategies, faults)`.
fn cases() -> Vec<(String, Runner, Strategy, Fault)> {
    let mut delta_strategies = BULK_STRATEGIES.to_vec();
    delta_strategies.push(Strategy::IncrementalCheckpoint { full_interval: 2 });
    let groups: [(&str, Runner, Vec<Strategy>, Vec<Fault>); 3] = [
        ("delta-cc", delta_cc, delta_strategies, vec![Fault::Loss(3), Fault::Panic(3)]),
        ("bulk-cc", bulk_cc, BULK_STRATEGIES.to_vec(), vec![Fault::Loss(3)]),
        ("pagerank", pagerank, BULK_STRATEGIES.to_vec(), vec![Fault::Loss(4), Fault::Panic(5)]),
    ];
    let mut out = Vec::new();
    for (algo, runner, strategies, faults) in groups {
        for &strategy in &strategies {
            for &fault in &faults {
                let name = format!("{algo}_{}_{}", strategy_label(strategy), fault.label());
                out.push((name, runner, strategy, fault));
            }
        }
    }
    out
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden")
}

fn counts_line(name: &str, stats: &RunStats) -> String {
    format!("{name} supersteps={} iterations={}", stats.supersteps(), stats.logical_iterations())
}

#[test]
fn journals_match_the_goldens_byte_for_byte() {
    let dir = golden_dir();
    let bless = std::env::var_os("OPTIREC_BLESS_GOLDEN").is_some();
    let mut counts = String::new();
    let mut mismatches = Vec::new();
    for (name, runner, strategy, fault) in cases() {
        let (journal, stats) = runner(strategy, fault);
        assert!(!journal.is_empty(), "{name}: the run journaled nothing");
        counts.push_str(&counts_line(&name, &stats));
        counts.push('\n');
        let path = dir.join(format!("{name}.jsonl"));
        if bless {
            std::fs::create_dir_all(&dir).expect("create golden dir");
            std::fs::write(&path, &journal).expect("write golden journal");
            continue;
        }
        let golden = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{name}: missing golden {}: {e}", path.display()));
        if golden != journal {
            let line = golden
                .lines()
                .zip(journal.lines())
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| golden.lines().count().min(journal.lines().count()));
            mismatches.push(format!(
                "{name}: journal differs from its golden at line {}\n  golden: {}\n  actual: {}",
                line + 1,
                golden.lines().nth(line).unwrap_or("<end of journal>"),
                journal.lines().nth(line).unwrap_or("<end of journal>"),
            ));
        }
    }
    let counts_path = dir.join("counts.txt");
    if bless {
        std::fs::write(&counts_path, &counts).expect("write golden counts");
        return;
    }
    let golden_counts = std::fs::read_to_string(&counts_path).expect("golden counts");
    for (want, got) in golden_counts.lines().zip(counts.lines()) {
        if want != got {
            mismatches.push(format!("superstep/iteration counts differ: {want} != {got}"));
        }
    }
    assert_eq!(golden_counts.lines().count(), counts.lines().count(), "golden case count");
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn every_golden_case_injects_exactly_one_failure() {
    for (name, runner, strategy, fault) in cases() {
        let (journal, stats) = runner(strategy, fault);
        assert_eq!(stats.failures().count(), 1, "{name}: expected exactly one failure");
        let marker = match fault {
            Fault::Loss(_) => "\"event\":\"FailureInjected\"",
            Fault::Panic(_) => "\"event\":\"PartitionPanicked\"",
        };
        assert_eq!(journal.matches(marker).count(), 1, "{name}: expected one {marker}");
    }
}
