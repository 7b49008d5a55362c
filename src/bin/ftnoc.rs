//! The `ftnoc` command-line simulator: run any configuration of the
//! reproduced platform from flags.
//!
//! ```sh
//! cargo run --bin ftnoc --release -- run --scheme hbh --error-rate 0.01
//! cargo run --bin ftnoc --release -- run --topology mesh:4x4 --routing fa \
//!     --vcs 1 --retrans 6 --deadlock-recovery --inj 0.2
//! cargo run --bin ftnoc --release -- run --trace out.jsonl --report-json
//! cargo run --bin ftnoc --release -- table1
//! ```

use std::path::PathBuf;

use ftnoc::cli::{parse, Command, HELP};
use ftnoc::metrics_io::MetricsEmitter;
use ftnoc_power::EnergyModel;
use ftnoc_sim::{SimConfig, SimReport, Simulator};
use ftnoc_trace::{JsonlSink, NullSink, TraceSink, Tracer};

/// Prints `error: {msg}` and exits with status 2 (bad input or an
/// unusable output file).
fn die(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("try `ftnoc --help`");
            std::process::exit(2);
        }
        Ok(Command::Help) => print!("{HELP}"),
        Ok(Command::Fuzz {
            plan,
            repro,
            failures_out,
            metrics_out,
        }) => run_fuzz_command(plan, repro, failures_out, metrics_out),
        Ok(Command::Report { file }) => {
            let content = std::fs::read_to_string(&file)
                .unwrap_or_else(|e| die(format!("cannot read {}: {e}", file.display())));
            match ftnoc::metrics::report::render(&content) {
                Ok(rendered) => print!("{rendered}"),
                Err(e) => die(format!("{}: {e}", file.display())),
            }
        }
        Ok(Command::Table1) => {
            print!(
                "{}",
                ftnoc_power::report::table1_report(&ftnoc_power::Table1::compute())
            );
        }
        Ok(Command::Run {
            config,
            profile,
            trace,
            flight_recorder,
            report_json,
            metrics_out,
            metrics_every,
        }) => {
            let config = *config;
            let metrics = metrics_out.map(|path| {
                match MetricsEmitter::create(&path, metrics_every, &config) {
                    Ok(em) => (em, path),
                    Err(e) => die(format!("cannot open metrics file {}: {e}", path.display())),
                }
            });
            let report = match trace {
                Some(path) => match JsonlSink::create(&path) {
                    Ok(sink) => run(config, sink, flight_recorder, metrics),
                    Err(e) => die(format!("cannot open trace file {}: {e}", path.display())),
                },
                None => run(config, NullSink, 0, metrics),
            };
            if report_json {
                println!("{}", report.to_json());
            } else {
                print_human_report(&report, profile);
            }
        }
    }
}

/// Runs one simulation with its observers attached: the trace sink
/// (JSONL or none) with per-router flight recorders, and the
/// `--metrics-out` interval emitter. Observers read commit-boundary
/// snapshots only — observation cannot perturb the run. A wedged or
/// misdelivering traced run dumps its flight recorders to stderr.
fn run<S: TraceSink>(
    config: SimConfig,
    sink: S,
    flight_recorder: usize,
    metrics: Option<(MetricsEmitter, PathBuf)>,
) -> SimReport {
    let nodes = config.topology.node_count();
    let mut sim = Simulator::with_tracer(config, Tracer::new(sink, nodes, flight_recorder));
    let report = match metrics {
        None => sim.run(),
        Some((mut em, path)) => {
            let fail = |e: std::io::Error| -> ! {
                die(format!("cannot write metrics file {}: {e}", path.display()))
            };
            // Phase profiling rides along with metrics emission: its
            // wall-clock timers live strictly outside simulation state.
            sim.network_mut().enable_profiling();
            let report = sim.run_instrumented(|st| {
                if em.due(st.now()) {
                    em.record(st.progress(), st.telemetry(), st.profile_snapshot())
                        .unwrap_or_else(|e| fail(e));
                }
            });
            // Close the stream with the run's final state (a no-op when
            // the run ended exactly on an interval boundary).
            let net = sim.network();
            em.record(net.progress(), net.telemetry(), net.profile_snapshot())
                .and_then(|()| em.finish())
                .unwrap_or_else(|e| fail(e));
            report
        }
    };
    let mut tracer = sim.into_tracer();
    tracer.flush();
    if !report.completed || report.errors.misdelivered > 0 {
        dump_flight_recorders(&tracer);
    }
    report
}

/// The `ftnoc fuzz` subcommand: replay a single reproducer spec, or run
/// a sampled campaign sweep with shrinking (batched across worker
/// threads when `--threads` asks for it). Exits non-zero when any
/// invariant was violated.
///
/// Everything printed here is derived from the runner's in-order
/// [`ftnoc_check::FuzzEvent`] stream and the aggregated report, so the
/// terminal output and the `--failures-out` bytes are identical at any
/// thread count.
fn run_fuzz_command(
    plan: ftnoc_check::CampaignPlan,
    repro: Option<String>,
    failures_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
) {
    use ftnoc_check::{CampaignParams, LineRenderer, TelemetryObserver};
    if let Some(spec) = repro {
        let params = CampaignParams::from_spec(&spec)
            .unwrap_or_else(|e| die(format!("bad --repro spec: {e}")));
        match params.check() {
            Ok(()) => println!("repro: all invariants held for {} cycles", params.cycles),
            Err(v) => {
                println!("repro: {v}");
                std::process::exit(1);
            }
        }
        return;
    }
    println!(
        "fuzz: {} campaigns, master seed {:#x}",
        plan.campaigns, plan.seed
    );
    let threads = plan.threads;
    let started = std::time::Instant::now();
    // The telemetry tap counts the in-order event stream while the
    // renderer prints it; its counters are thread-count-invariant.
    let mut tap = TelemetryObserver::new(LineRenderer::new(|line: &str| println!("{line}")));
    let report = plan.runner().run(&mut tap);
    if let Some(path) = &metrics_out {
        let line = tap.to_json_line(started.elapsed().as_millis() as u64, threads);
        if let Err(e) = std::fs::write(path, line + "\n") {
            eprintln!("error: cannot write {}: {e}", path.display());
        }
    }
    if report.failures.is_empty() {
        println!(
            "fuzz: {} campaigns passed, no invariant violations",
            report.campaigns_run
        );
        return;
    }
    if let Some(path) = failures_out {
        if let Err(e) = std::fs::write(&path, report.failures_artifact()) {
            eprintln!("error: cannot write {}: {e}", path.display());
        }
    }
    eprintln!(
        "fuzz: {} failure(s) in {} campaigns",
        report.failures.len(),
        report.campaigns_run
    );
    std::process::exit(1);
}

/// Dumps every non-empty per-router flight recorder to stderr.
fn dump_flight_recorders<S: TraceSink>(tracer: &Tracer<S>) {
    for (node, fr) in tracer.recorders().iter().enumerate() {
        if fr.is_empty() {
            continue;
        }
        eprintln!(
            "--- flight recorder node {node}: last {} of {} events ---",
            fr.len(),
            fr.total_seen()
        );
        eprint!("{}", fr.dump_jsonl());
    }
}

fn print_human_report(report: &SimReport, profile: bool) {
    println!("cycles                : {}", report.cycles);
    println!("packets (measured)    : {}", report.packets_ejected);
    println!("avg latency           : {:.2} cycles", report.avg_latency);
    println!("max latency           : {} cycles", report.max_latency);
    let (p50, p95, p99) = report.latency_percentiles;
    println!("latency p50/p95/p99   : <={p50} / <={p95} / <={p99} cycles");
    println!(
        "throughput            : {:.4} flits/node/cycle",
        report.throughput
    );
    println!(
        "energy per packet     : {:.4} nJ",
        report.energy_per_packet_nj
    );
    println!(
        "tx / retx utilization : {:.3} / {:.3}",
        report.tx_utilization, report.retx_utilization
    );
    let e = &report.errors;
    println!(
        "link corrected/replayed: {} / {}",
        e.link_corrected_inline, e.link_recovered_by_replay
    );
    println!(
        "rt / va / sa corrected : {} / {} / {}",
        e.rt_corrected, e.va_corrected, e.sa_corrected
    );
    println!(
        "misdelivered / stranded: {} / {}",
        e.misdelivered, e.stranded_flits
    );
    if e.probes_sent > 0 {
        println!(
            "probes sent/confirmed  : {} / {}",
            e.probes_sent, e.deadlocks_confirmed
        );
    }
    if !report.completed {
        println!("NOTE: run hit the cycle cap before the packet target (saturated or wedged)");
    }
    if profile {
        println!();
        let model = EnergyModel::new();
        let rows = report.events.energy_breakdown(&model);
        let total: f64 = rows.iter().map(|(_, _, e)| e.raw()).sum();
        println!(
            "{:<24} {:>12} {:>14} {:>7}",
            "event class", "count", "energy", "share"
        );
        for (name, count, energy) in &rows {
            println!(
                "{name:<24} {count:>12} {:>11.1} pJ {:>6.2}%",
                energy.raw(),
                energy.raw() / total * 100.0
            );
        }
    }
}
