//! `nocbench`: the simulator's benchmark. One command per workload:
//!
//! ```text
//! nocbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! It drives the library's public API, checks that the simulated
//! results are correct, and prints (before the last line) the run's
//! stamp and a digest of its simulated statistics, then as the last
//! line one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. `--trace 0` reports the end-to-end metrics, `--trace 1`
//! the per-layer metrics of a traced run. A failed correctness check
//! exits with code 1. See README.md for the workloads and the map from
//! layer metrics to end-to-end metrics.

mod fuzz;
mod measure;
mod net;

use net::SimWorkload;

/// The parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse::<u64>().map_err(bad)? as f64,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nocbench: {e}");
            std::process::exit(2);
        }
    };
    let sim = match args.workload.as_str() {
        "paper_8x8" => Some(SimWorkload::Paper8x8),
        "sparse_16x16" => Some(SimWorkload::Sparse16x16),
        "faults_observed_8x8" => Some(SimWorkload::FaultsObserved8x8),
        "fuzz_oracle" => None,
        other => {
            eprintln!(
                "nocbench: unknown workload {other:?} (paper_8x8, sparse_16x16, \
                 faults_observed_8x8, fuzz_oracle)"
            );
            std::process::exit(2);
        }
    };
    let (engine_threads, runner_threads) = match sim {
        Some(_) => (net::ENGINE_THREADS.to_string(), "null".to_string()),
        None => ("\"sampled\"".to_string(), fuzz::RUNNER_THREADS.to_string()),
    };
    println!(
        "{{\"stamp\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"available_parallelism\": {}, \"engine_threads\": {engine_threads}, \
         \"runner_threads\": {runner_threads}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let outcome = match sim {
        Some(w) => net::bench(w, args.seed, args.seconds, args.trace),
        None => fuzz::bench(args.seed, args.seconds, args.trace),
    };
    for e in &outcome.errors {
        eprintln!("nocbench: check failed: {e}");
    }
    println!("{}", outcome.to_json());
    if outcome.failed > 0 {
        std::process::exit(1);
    }
}
