//! The `fuzz_oracle` workload: a fixed corpus of sampled fuzz campaigns,
//! run by `CampaignRunner` on two runner threads and replayed through
//! the public pieces of `CampaignParams::check` (`to_config`,
//! `Oracle::new`, `Network::new`, then step → snapshot → `Oracle::check`
//! every cycle) for the per-campaign and per-step numbers.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use ftnoc_check::{CampaignParams, CampaignPlan, CampaignRunner, FuzzEvent, Oracle};
use ftnoc_metrics::ProfileSnapshot;
use ftnoc_sim::stats::LatencyHistogram;
use ftnoc_sim::Network;

use crate::measure::{
    digest, hist_quantile, median, quantile, ratio, EndToEnd, Layers, Outcome, Span, Work,
};

/// Master seed of the corpus. Fixed, not derived from `--seed`: campaign
/// cost is heavy-tailed (p90 ≈ 3× p50 on the default mix), so corpora
/// of affordable size drawn from different master seeds differ in total
/// cost by more than the bound on `campaigns_per_s`.
const MASTER_SEED: u64 = 0xF70C;
/// Campaigns in the corpus (indices 0..CAMPAIGNS of the master seed).
const CAMPAIGNS: u64 = 32;
/// `CampaignRunner` worker threads (and replay threads).
pub const RUNNER_THREADS: usize = 2;
/// Set-ups timed per run.
const SETUPS_PER_RUN: usize = 10;

/// The corpus and its runner.
struct Setup {
    runner: CampaignRunner,
    corpus: Vec<CampaignParams>,
}

/// Builds the runner and the corpus, and times it together with what
/// each campaign builds before its first cycle (`to_config`,
/// `Oracle::new`, `Network::new`): the set-up the workload pays.
fn setup() -> (Setup, f64) {
    let start = Instant::now();
    let runner = CampaignPlan::new()
        .campaigns(CAMPAIGNS)
        .master_seed(MASTER_SEED)
        .threads(RUNNER_THREADS)
        .runner();
    let corpus: Vec<CampaignParams> = (0..CAMPAIGNS)
        .map(|i| CampaignParams::sample(MASTER_SEED, i))
        .collect();
    let built: Vec<(Oracle, Network)> = corpus
        .iter()
        .map(|p| {
            let config = p.to_config().expect("sampled campaigns lower");
            (Oracle::new(&config), Network::new(config))
        })
        .collect();
    let secs = start.elapsed().as_secs_f64();
    drop(built);
    (Setup { runner, corpus }, secs)
}

/// What one replayed campaign did.
#[derive(Debug, Default)]
struct Replay {
    passed: bool,
    wall: Duration,
    steps_us: Vec<f64>,
    flits_ejected: u64,
    packets_ejected: u64,
    latency_sum: u64,
    latency: LatencyHistogram,
    work: Work,
    router_cycles: u64,
    profile: Option<ProfileSnapshot>,
    to_config: Span,
    network_new: Span,
    snapshot: Span,
    oracle: Span,
    /// Why the harness itself rejects this replay, if it does.
    error: Option<String>,
}

/// Replays one campaign exactly as `CampaignParams::check` runs it.
/// With `traced`, the phase profiler is on (its lanes sized to the
/// campaign's engine threads) and every public call is timed.
fn replay(params: &CampaignParams, traced: bool) -> Replay {
    let mut r = Replay::default();
    let start = Instant::now();
    let mut config = r
        .to_config
        .time(|| params.to_config())
        .expect("sampled campaigns lower");
    let threads = params.threads;
    if traced {
        // `to_config` leaves `threads` at 1 while the campaign steps on
        // `params.threads` workers; the profiler sizes its lanes from
        // the config, so match them (a wall-clock knob only).
        config.threads = threads;
    }
    let routers = config.topology.node_count();
    let mut oracle = Oracle::new(&config);
    let mut net = r.network_new.time(|| Network::new(config));
    if traced {
        net.enable_profiling();
    }
    net.start_measurement();
    let (snapshot, oracle_span, steps) = (&mut r.snapshot, &mut r.oracle, &mut r.steps_us);
    let verdict = catch_unwind(AssertUnwindSafe(|| {
        net.with_stepper(threads, |st| {
            for _ in 0..params.cycles {
                let t = Instant::now();
                st.step();
                steps.push(t.elapsed().as_secs_f64() * 1e6);
                if traced {
                    let snap = snapshot.time(|| st.snapshot());
                    oracle_span.time(|| oracle.check(&snap))?;
                } else {
                    oracle.check(&st.snapshot())?;
                }
            }
            Ok::<(), ftnoc_check::Violation>(())
        })
    }));
    r.wall = start.elapsed();
    r.passed = matches!(verdict, Ok(Ok(())));
    let stats = net.stats();
    r.flits_ejected = net.flits_ejected();
    r.packets_ejected = stats.packets_ejected;
    r.latency_sum = stats.latency_sum;
    r.latency = net.latency_histogram().clone();
    r.work = Work::read(&net, &stats);
    r.router_cycles = net.now() * routers as u64;
    r.profile = net.profile_snapshot();
    if let Some(p) = &r.profile {
        if p.lanes.len() != threads.clamp(1, routers) {
            r.error = Some(format!(
                "profiler has {} lanes for {threads} engine threads",
                p.lanes.len()
            ));
        }
    }
    r
}

/// Replays the whole corpus on `threads` threads, in corpus order.
fn replay_all(corpus: &[CampaignParams], threads: usize, traced: bool) -> Vec<Replay> {
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, Replay)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(params) = corpus.get(i) else {
                            break mine;
                        };
                        mine.push((i, replay(params, traced)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("replay worker panicked"))
            .collect()
    });
    done.sort_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// Runs the corpus through `CampaignRunner`: its wall time and each
/// campaign's verdict (`Some(true)` passed), in index order.
fn run_runner(runner: &CampaignRunner) -> (Duration, Vec<Option<bool>>) {
    let mut verdicts = vec![None; CAMPAIGNS as usize];
    let mut record = |e: &FuzzEvent| match e {
        FuzzEvent::CampaignPassed { index } => verdicts[*index as usize] = Some(true),
        FuzzEvent::ViolationFound { index, .. } => verdicts[*index as usize] = Some(false),
        _ => {}
    };
    let start = Instant::now();
    runner.run(&mut record);
    (start.elapsed(), verdicts)
}

/// Checks each campaign: it passed the oracle under `CampaignRunner`,
/// and the replay reached the same verdict.
fn verify(out: &mut Outcome, verdicts: &[Option<bool>], replays: &[Replay]) {
    for (i, (verdict, r)) in verdicts.iter().zip(replays).enumerate() {
        out.check(match (&r.error, *verdict, r.passed) {
            (Some(e), _, _) => Err(e.clone()),
            (None, Some(true), true) => Ok(()),
            (None, runner, replayed) => Err(format!(
                "campaign {i} of master seed {MASTER_SEED:#x}: runner verdict {runner:?}, \
                 replay passed {replayed}"
            )),
        });
    }
}

/// Σ per-campaign wall time of one replay of the corpus, in seconds.
fn total_wall(run: &[Replay]) -> f64 {
    run.iter().map(|r| r.wall.as_secs_f64()).sum()
}

/// The simulated statistics of one replayed campaign, as text.
fn stats_key(r: &Replay) -> String {
    format!(
        "{:?}",
        (r.passed, r.flits_ejected, r.latency_sum, &r.latency, r.work)
    )
}

/// A digest of the replayed corpus's simulated statistics.
fn summary(replays: &[Replay], seed: u64) -> String {
    let keys: Vec<String> = replays.iter().map(stats_key).collect();
    let flits: u64 = replays.iter().map(|r| r.flits_ejected).sum();
    let packets: u64 = replays.iter().map(|r| r.packets_ejected).sum();
    format!(
        "{{\"digest\": \"{:#018x}\", \"workload\": \"fuzz_oracle\", \"seed\": {seed}, \
         \"master_seed\": {MASTER_SEED}, \"campaigns\": {CAMPAIGNS}, \"flits_ejected\": {flits}, \
         \"packets_ejected\": {packets}}}",
        digest(&keys.concat())
    )
}

/// Indices of campaigns whose statistics in `run` differ from `first`.
fn differing(first: &[Replay], run: &[Replay]) -> Vec<usize> {
    (0..first.len().min(run.len()))
        .filter(|&i| stats_key(&first[i]) != stats_key(&run[i]))
        .collect()
}

/// Runs the workload for about `seconds` (at least three corpus runs)
/// and reports its end-to-end metrics, or with `traced` its per-layer
/// metrics from alternating untraced and traced serial replays.
pub fn bench(seed: u64, seconds: f64, traced: bool) -> Outcome {
    const MIN_RUNS: usize = 3;
    let mut out = Outcome::default();
    let started = Instant::now();
    // Per-run figures only (plus the first replay, the reference), so
    // memory does not grow with the run count.
    let mut setups = Vec::new();
    let mut runner_walls = Vec::new();
    let mut replay_walls = Vec::new();
    let (mut step_p50s, mut step_p99s) = (Vec::new(), Vec::new());
    let (mut campaign_p50s, mut campaign_p90s) = (Vec::new(), Vec::new());
    let mut first: Option<Vec<Replay>> = None;
    let mut layers = Layers::default();
    let mut traced_walls = Vec::new();
    // Campaigns whose replayed statistics changed between replays of
    // the same corpus (a determinism defect of the simulator). The gate
    // of this workload is the fuzzer's verdict, so these are reported,
    // not failed.
    let mut unstable = BTreeSet::new();
    while runner_walls.len() < MIN_RUNS || started.elapsed().as_secs_f64() < seconds {
        let mut built = None;
        for _ in 0..SETUPS_PER_RUN {
            let (s, secs) = setup();
            setups.push(secs);
            built = Some(s);
        }
        let Setup { runner, corpus } = built.expect("at least one set-up");
        let (wall, verdicts) = run_runner(&runner);
        runner_walls.push(wall.as_secs_f64());
        // Untraced replays run on the runner's thread count for the
        // end-to-end numbers, and serially beside the traced replay so
        // the tracing overhead compares like with like.
        let replay_threads = if traced { 1 } else { RUNNER_THREADS };
        let run = replay_all(&corpus, replay_threads, false);
        verify(&mut out, &verdicts, &run);
        replay_walls.push(total_wall(&run));
        let steps: Vec<f64> = run
            .iter()
            .flat_map(|r| r.steps_us.iter().copied())
            .collect();
        step_p50s.push(median(&steps));
        step_p99s.push(quantile(&steps, 0.99));
        let campaigns: Vec<f64> = run.iter().map(|r| r.wall.as_secs_f64() * 1e3).collect();
        campaign_p50s.push(median(&campaigns));
        campaign_p90s.push(quantile(&campaigns, 0.9));
        if traced {
            let traced_run = replay_all(&corpus, 1, true);
            verify(&mut out, &verdicts, &traced_run);
            unstable.extend(differing(&run, &traced_run));
            for r in &traced_run {
                layers.network_new.merge(r.network_new);
                layers.to_config.merge(r.to_config);
                layers.snapshot.merge(r.snapshot);
                layers.oracle.merge(r.oracle);
                if let Some(p) = &r.profile {
                    layers.add_profile(p);
                }
                layers.hops += r.work.crossbar_traversals;
                layers.traced += r.wall;
            }
            traced_walls.push(total_wall(&traced_run));
        }
        match &first {
            None => {
                println!("{}", summary(&run, seed));
                first = Some(run);
            }
            Some(first) => unstable.extend(differing(first, &run)),
        }
    }
    for i in &unstable {
        eprintln!(
            "nocbench: warning: campaign {i} of master seed {MASTER_SEED:#x} gave different \
             simulated statistics on replay of the same parameters: {}",
            CampaignParams::sample(MASTER_SEED, *i as u64).to_spec()
        );
    }
    let first = first.expect("at least one corpus run");
    if traced {
        let violations = first.iter().filter(|r| !r.passed).count() as u64;
        layers.violations = violations;
        layers.failed_ratio = ratio(violations as f64, CAMPAIGNS as f64);
        layers.runs = traced_walls.len() as u64;
        for r in &first {
            layers.work.add(&r.work);
            layers.router_cycles += r.router_cycles;
        }
        layers.tracing_overhead = ratio(median(&traced_walls), median(&replay_walls));
        out.metrics = layers.metrics();
        return out;
    }
    let mut latency = LatencyHistogram::new();
    for r in &first {
        latency.merge(&r.latency);
    }
    let flits: u64 = first.iter().map(|r| r.flits_ejected).sum();
    let packets: u64 = first.iter().map(|r| r.packets_ejected).sum();
    let latency_sum: u64 = first.iter().map(|r| r.latency_sum).sum();
    let router_cycles: u64 = first.iter().map(|r| r.router_cycles).sum();
    let wall_s = median(&runner_walls);
    out.metrics = EndToEnd {
        setup_s: median(&setups),
        wall_s,
        ns_per_router_cycle: ratio(wall_s * 1e9, router_cycles as f64),
        delivered_flits_per_s: ratio(flits as f64, wall_s),
        step_p50_us: median(&step_p50s),
        step_p99_us: median(&step_p99s),
        campaigns_per_s: ratio(CAMPAIGNS as f64, wall_s),
        campaign_p50_ms: median(&campaign_p50s),
        campaign_p90_ms: median(&campaign_p90s),
        sim_avg_latency_cycles: ratio(latency_sum as f64, packets as f64),
        sim_p99_latency_cycles: hist_quantile(&latency, 0.99),
    }
    .metrics();
    out
}
