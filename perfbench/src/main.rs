//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--spans <path>]` runs one workload and prints, as its last line, one
//! JSON object with the correctness verdict and the metrics. It exits
//! non-zero when any output check failed.
//!
//! `perfbench worker` is the cluster worker process the `cluster-batch`
//! coordinator spawns (the default worker command re-invokes this binary).

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::spans::Tracer;
use perfbench::{run, Params};

fn usage(error: &str) -> ExitCode {
    eprintln!("perfbench: {error}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--spans <path>]",
        perfbench::WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("worker") {
        if let Err(e) = cluster::worker::run("127.0.0.1:0") {
            eprintln!("perfbench worker: {e}");
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }

    let (mut workload, mut seed, mut seconds, mut trace, mut spans) =
        (None, None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s >= 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            "--spans" => spans = Some(PathBuf::from(value)),
            other => return usage(&format!("unknown flag {other}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required");
    };

    let params = Params::new(seed, seconds, trace);
    let mut tracer = Tracer::new(trace);
    let report = match run(&workload, &params, &mut tracer) {
        Ok(report) => report,
        Err(e) => return usage(&e),
    };
    println!(
        "checks: {} attempted, {} failed, error_rate {:.6}",
        report.attempted(),
        report.failed(),
        report.failed() as f64 / report.attempted().max(1) as f64
    );
    if trace {
        println!("spans (calls, total ms, self ms):");
        for (name, (calls, total, own)) in tracer.totals() {
            println!("  {name:<36} {calls:>5} {total:>12.3} {own:>12.3}");
        }
        if let Some(path) = spans {
            if let Err(e) = tracer.write_jsonl(&path) {
                eprintln!("perfbench: writing spans to {}: {e}", path.display());
            }
        }
    }
    println!("{}", report.json(trace));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
