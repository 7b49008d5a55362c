//! The three simulator workloads: a fixed number of simulated cycles on
//! one network, stepped through `Network::with_stepper`, then an untimed
//! drain that closes the flit ledger.

use std::hint::black_box;
use std::io;
use std::time::{Duration, Instant};

use ftnoc_fault::{FaultPlan, FaultRates};
use ftnoc_metrics::{IntervalLine, ProfileSnapshot};
use ftnoc_sim::stats::{ErrorStats, EventCounts, LatencyHistogram};
use ftnoc_sim::{DeadlockConfig, NetSnapshot, Network, RoutingAlgorithm, SimConfig, Stepper};
use ftnoc_trace::{JsonlSink, NullSink, TraceRecord, TraceSink, Tracer};
use ftnoc_types::{Direction, NodeId, Topology};

use crate::measure::{
    digest, hist_quantile, median, quantile, ratio, EndToEnd, Layers, Outcome, Span, Work,
};

/// Set-ups timed per run: the median of several is steadier than one.
const SETUPS_PER_RUN: usize = 10;
/// Cycles between metrics interval lines on the observed workload.
const METRICS_EVERY: u64 = 100;
/// Drain budget after the timed window; a network that has not emptied
/// by then fails the conservation check.
const DRAIN_CAP: u64 = 50_000;
/// Engine worker threads of every sim workload (`with_stepper` argument
/// and `SimConfig::threads`). A two-thread step's tail is set by barrier
/// wake-ups, which host contention inflates by ~70% for tens of seconds
/// at a time; the pool is measured on `fuzz_oracle`'s 2- and 4-thread
/// campaigns instead.
pub const ENGINE_THREADS: usize = 1;

/// A simulator workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimWorkload {
    /// The paper's operating point.
    Paper8x8,
    /// A sparse 16×16 mesh.
    Sparse16x16,
    /// Runtime faults with the trace sink and metrics lines attached.
    FaultsObserved8x8,
}

impl SimWorkload {
    /// The workload's name on the command line.
    fn name(self) -> &'static str {
        match self {
            SimWorkload::Paper8x8 => "paper_8x8",
            SimWorkload::Sparse16x16 => "sparse_16x16",
            SimWorkload::FaultsObserved8x8 => "faults_observed_8x8",
        }
    }

    /// Simulated cycles in the timed window.
    fn cycles(self) -> u64 {
        match self {
            SimWorkload::Paper8x8 => 5_000,
            SimWorkload::Sparse16x16 => 3_000,
            // Past the last scheduled kill at cycle 12 000.
            SimWorkload::FaultsObserved8x8 => 15_000,
        }
    }

    /// The run's configuration, including fault-plan validation: the
    /// set-up a user of the library pays before the first cycle.
    fn config(self, seed: u64) -> SimConfig {
        let mut b = SimConfig::builder();
        b.seed(seed)
            .threads(ENGINE_THREADS)
            .activity_gating(true)
            .stop_injection_after(self.cycles());
        match self {
            SimWorkload::Paper8x8 => {
                b.injection_rate(0.25).faults(FaultRates::link_only(1e-3));
            }
            SimWorkload::Sparse16x16 => {
                b.topology(Topology::mesh(16, 16)).injection_rate(0.05);
            }
            SimWorkload::FaultsObserved8x8 => {
                let mut plan = FaultPlan::new();
                plan.kill_router_at(4_000, NodeId::new(27))
                    .kill_link_at(8_000, NodeId::new(10), Direction::East)
                    .kill_link_at(12_000, NodeId::new(45), Direction::South);
                plan.validate(Topology::mesh(8, 8))
                    .expect("the workload's fault plan is valid");
                b.injection_rate(0.1)
                    .routing(RoutingAlgorithm::FaultAware)
                    .deadlock(DeadlockConfig {
                        enabled: true,
                        cthres: 32,
                    })
                    .faults(FaultRates {
                        link: 1e-3,
                        rt: 1e-4,
                        va: 1e-4,
                        sa: 1e-4,
                        ..FaultRates::none()
                    })
                    .ac_enabled(true)
                    .fault_plan(&plan);
            }
        }
        b.build().expect("the workload's configuration is valid")
    }
}

/// A `TraceSink` wrapper that counts and times every record it passes on.
struct TimedSink<S> {
    inner: S,
    span: Span,
}

impl<S: TraceSink> TraceSink for TimedSink<S> {
    fn record(&mut self, rec: &TraceRecord) {
        let start = Instant::now();
        self.inner.record(rec);
        self.span.add(start);
    }

    fn flush(&mut self) {
        self.inner.flush();
    }
}

/// The JSONL trace sink of the observed workload, writing into a
/// discarding writer so the cost measured is serialisation, not disk.
fn jsonl() -> JsonlSink<io::Sink> {
    JsonlSink::new(io::sink())
}

/// Simulated statistics at the end of the timed window. Equal across
/// runs of one seed whatever the thread count, tracing or profiling.
#[derive(Debug, Clone, PartialEq)]
struct SimStats {
    cycles: u64,
    routers: u64,
    packets_injected: u64,
    packets_ejected: u64,
    flits_injected: u64,
    flits_ejected: u64,
    misdelivered_flits: u64,
    latency_sum: u64,
    latency: LatencyHistogram,
    events: EventCounts,
    errors: ErrorStats,
    work: Work,
}

impl SimStats {
    fn read<S: TraceSink>(net: &Network<S>, flits_per_packet: u64) -> Self {
        let stats = net.stats();
        SimStats {
            cycles: net.now(),
            routers: net.telemetry().routers.len() as u64,
            packets_injected: net.packets_injected(),
            packets_ejected: net.packets_ejected(),
            flits_injected: net.flits_injected(),
            flits_ejected: net.flits_ejected(),
            misdelivered_flits: stats.errors.misdelivered * flits_per_packet,
            latency_sum: stats.latency_sum,
            latency: net.latency_histogram().clone(),
            work: Work::read(net, &stats),
            events: stats.events,
            errors: stats.errors,
        }
    }

    fn digest(&self) -> u64 {
        digest(&format!("{self:?}"))
    }
}

/// One JSON line: a digest of every seed's statistics, and the main
/// counts summed over the seeds.
fn summary(w: SimWorkload, seed: u64, runs: &[SimStats]) -> String {
    let sum = |f: fn(&SimStats) -> u64| runs.iter().map(f).sum::<u64>();
    format!(
        "{{\"digest\": \"{:#018x}\", \"workload\": \"{}\", \"seed\": {seed}, \"seeds\": {}, \
         \"cycles\": {}, \"packets_injected\": {}, \"packets_ejected\": {}, \
         \"flits_injected\": {}, \"flits_ejected\": {}, \"flits_lost\": {}, \
         \"misdelivered_flits\": {}, \"latency_sum\": {}, \"fault_events\": {}}}",
        digest(&format!("{runs:?}")),
        w.name(),
        runs.len(),
        sum(|s| s.cycles),
        sum(|s| s.packets_injected),
        sum(|s| s.packets_ejected),
        sum(|s| s.flits_injected),
        sum(|s| s.flits_ejected),
        sum(|s| s.work.flits_lost),
        sum(|s| s.misdelivered_flits),
        sum(|s| s.latency_sum),
        sum(|s| s.work.fault_events),
    )
}

/// Distinct flits resident anywhere in the network: injection fronts,
/// input buffers, switch-traversal queues, retransmission slots and
/// link wires (a replay copy and its forwarded original count once).
fn resident_flits(snap: &NetSnapshot) -> usize {
    let mut seen = std::collections::HashSet::new();
    for pe in &snap.pes {
        seen.extend(pe.injecting.iter().map(|f| (f.packet.raw(), f.seq)));
    }
    for (r, w) in snap.routers.iter().zip(&snap.wires) {
        for ivc in r.inputs.iter().flatten() {
            seen.extend(ivc.flits.iter().map(|f| (f.packet.raw(), f.seq)));
        }
        for out in &r.outputs {
            seen.extend(
                out.st_queue
                    .iter()
                    .map(|e| (e.flit.packet.raw(), e.flit.seq)),
            );
            for ovc in &out.vcs {
                seen.extend(
                    ovc.sender
                        .slots
                        .iter()
                        .map(|(f, _)| (f.packet.raw(), f.seq)),
                );
            }
        }
        seen.extend(
            w.flit_in
                .iter()
                .flatten()
                .map(|s| (s.0.packet.raw(), s.0.seq)),
        );
    }
    seen.len()
}

/// Steps the network (injection has stopped) until no flit is left
/// anywhere, then checks conservation:
/// `flits_ejected + in-flight + flits_lost == flits_injected`.
fn drain_and_check<S: TraceSink>(net: &mut Network<S>) -> Result<(), String> {
    for _ in 0..DRAIN_CAP {
        if net.is_drained() {
            let in_flight = resident_flits(&net.snapshot()) as u64;
            if in_flight == 0 {
                let (ejected, lost, injected) =
                    (net.flits_ejected(), net.flits_lost(), net.flits_injected());
                return if ejected + in_flight + lost == injected {
                    Ok(())
                } else {
                    Err(format!(
                        "conservation: ejected {ejected} + in-flight {in_flight} + lost {lost} \
                         != injected {injected} at cycle {}",
                        net.now()
                    ))
                };
            }
        }
        net.step();
    }
    Err(format!(
        "drain: flits still in the network {DRAIN_CAP} cycles after injection stopped"
    ))
}

/// Builds the periodic metrics interval line of the observed workload
/// (router telemetry plus an `IntervalLine`), timing each part.
#[derive(Debug, Default)]
struct IntervalObserver {
    prev: (u64, u64, u64),
    telemetry: Span,
    interval: Span,
}

impl IntervalObserver {
    fn record<S: TraceSink>(&mut self, st: &Stepper<'_, S>) {
        let routers = self.telemetry.time(|| st.telemetry());
        let start = Instant::now();
        let p = st.progress();
        let (inj, ej, lat) = self.prev;
        let line = IntervalLine {
            cycle: p.now,
            injected: p.packets_injected,
            ejected: p.packets_ejected,
            latency_sum: p.latency_sum,
            d_injected: p.packets_injected - inj,
            d_ejected: p.packets_ejected - ej,
            d_latency_sum: p.latency_sum - lat,
            phase: st.profile_snapshot(),
            routers,
        };
        black_box(line.to_json());
        self.prev = (p.packets_injected, p.packets_ejected, p.latency_sum);
        self.interval.add(start);
    }
}

/// One run of a workload: set-up, the timed window, the drain.
struct Run {
    setup: Vec<f64>,
    network_new: Span,
    wall: Duration,
    steps_us: Vec<f64>,
    stats: SimStats,
    profile: Option<ProfileSnapshot>,
    observer: IntervalObserver,
    trace: Span,
    check: Result<(), String>,
}

/// Runs `w` once with the trace sink `make_sink` builds; `trace_span`
/// reads the sink's record timing at the end of the timed window.
/// `profile` turns on the engine phase profiler.
fn run_once<S: TraceSink>(
    w: SimWorkload,
    seed: u64,
    make_sink: impl Fn() -> S,
    trace_span: impl Fn(&S) -> Span,
    profile: bool,
) -> Run {
    let mut setup = Vec::with_capacity(SETUPS_PER_RUN);
    let mut network_new = Span::default();
    let mut built = None;
    let mut flits_per_packet = 0;
    for _ in 0..SETUPS_PER_RUN {
        let start = Instant::now();
        let config = w.config(seed);
        flits_per_packet = config.flits_per_packet() as u64;
        let tracer = Tracer::new(make_sink(), config.topology.node_count(), 0);
        let net = network_new.time(|| Network::with_tracer(config, tracer));
        setup.push(start.elapsed().as_secs_f64());
        built = Some(net);
    }
    let mut net = built.expect("at least one set-up");
    if profile {
        net.enable_profiling();
    }
    net.start_measurement();
    let (threads, cycles, observed) = (
        ENGINE_THREADS,
        w.cycles(),
        w == SimWorkload::FaultsObserved8x8,
    );
    let mut steps_us = Vec::with_capacity(cycles as usize);
    let mut observer = IntervalObserver::default();
    let start = Instant::now();
    net.with_stepper(threads, |st| {
        for _ in 0..cycles {
            let t = Instant::now();
            st.step();
            steps_us.push(t.elapsed().as_secs_f64() * 1e6);
            if observed && st.now() % METRICS_EVERY == 0 {
                observer.record(st);
            }
        }
    });
    let wall = start.elapsed();
    let stats = SimStats::read(&net, flits_per_packet);
    let trace = trace_span(net.tracer().sink());
    let profile = net.profile_snapshot();
    let mut check = drain_and_check(&mut net);
    if let Some(p) = &profile {
        // The profiler sizes its lanes from `SimConfig::threads`; engine
        // shares are only meaningful when that matches the stepper.
        if p.lanes.len() != threads && check.is_ok() {
            check = Err(format!(
                "profiler has {} lanes for {threads} engine threads",
                p.lanes.len()
            ));
        }
    }
    Run {
        setup,
        network_new,
        wall,
        steps_us,
        stats,
        profile,
        observer,
        trace,
        check,
    }
}

/// One run, untraced: the observed workload keeps its JSONL sink and
/// metrics lines (they are part of the workload), with no timing wrapper
/// and no profiler.
fn run_untraced(w: SimWorkload, seed: u64) -> Run {
    match w {
        SimWorkload::FaultsObserved8x8 => run_once(w, seed, jsonl, |_| Span::default(), false),
        _ => run_once(w, seed, || NullSink, |_| Span::default(), false),
    }
}

/// One run, traced: the phase profiler on, and the trace sink wrapped
/// in a timing `TimedSink`.
fn run_traced(w: SimWorkload, seed: u64) -> Run {
    match w {
        SimWorkload::FaultsObserved8x8 => run_once(
            w,
            seed,
            || TimedSink {
                inner: jsonl(),
                span: Span::default(),
            },
            |s| s.span,
            true,
        ),
        _ => run_once(w, seed, || NullSink, |_| Span::default(), true),
    }
}

/// Checks a run and that its statistics equal those of the first run of
/// the same seed.
fn verify(run: &Run, reference: &SimStats, what: &str) -> Result<(), String> {
    run.check.clone()?;
    if run.stats != *reference {
        return Err(format!(
            "{what}: statistics digest {:#018x} differs from the first run's {:#018x}",
            run.stats.digest(),
            reference.digest()
        ));
    }
    Ok(())
}

/// Simulator seeds per invocation. Run `k` uses seed `SEEDS * seed + k %
/// SEEDS`, and the simulated metrics pool all of them. At the paper's
/// operating point one seed's 99th-percentile latency sits on an edge of
/// the simulator's power-of-two latency histogram and moves by ~12%
/// from seed to seed; four seeds' packets together move it far less.
const SEEDS: usize = 4;

/// The simulated statistics of the `SEEDS` seeds together.
#[derive(Default)]
struct Pooled {
    packets_ejected: u64,
    flits_ejected: u64,
    flits_injected: u64,
    misdelivered_flits: u64,
    latency_sum: u64,
    latency: LatencyHistogram,
    work: Work,
    router_cycles: u64,
}

impl Pooled {
    fn new(runs: &[SimStats]) -> Self {
        let mut p = Pooled::default();
        for s in runs {
            p.packets_ejected += s.packets_ejected;
            p.flits_ejected += s.flits_ejected;
            p.flits_injected += s.flits_injected;
            p.misdelivered_flits += s.misdelivered_flits;
            p.latency_sum += s.latency_sum;
            p.latency.merge(&s.latency);
            p.work.add(&s.work);
            p.router_cycles += s.cycles * s.routers;
        }
        p
    }

    /// (lost + misdelivered flits) / injected flits.
    fn failed_ratio(&self) -> f64 {
        ratio(
            (self.work.flits_lost + self.misdelivered_flits) as f64,
            self.flits_injected as f64,
        )
    }
}

/// Runs workload `w` for about `seconds` (at least one run per seed) and
/// reports its end-to-end metrics, or with `traced` its per-layer
/// metrics from alternating untraced and traced runs.
pub fn bench(w: SimWorkload, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let started = Instant::now();
    // The first run of each seed is its reference. Otherwise per-run
    // figures only, so memory does not grow with the run count.
    let mut refs: Vec<SimStats> = Vec::with_capacity(SEEDS);
    let (mut setups, mut walls, mut step_p50s, mut step_p99s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut layers = Layers::default();
    let mut traced_walls = Vec::new();
    for k in 0.. {
        let run_seed = seed
            .wrapping_mul(SEEDS as u64)
            .wrapping_add((k % SEEDS) as u64);
        let run = run_untraced(w, run_seed);
        if refs.len() < SEEDS {
            refs.push(run.stats.clone());
        }
        let reference = &refs[k % SEEDS];
        out.check(verify(&run, reference, "untraced run"));
        setups.extend_from_slice(&run.setup);
        walls.push(run.wall.as_secs_f64());
        step_p50s.push(median(&run.steps_us));
        step_p99s.push(quantile(&run.steps_us, 0.99));
        if k + 1 >= SEEDS && started.elapsed().as_secs_f64() >= seconds {
            break;
        }
        if traced {
            let t = run_traced(w, run_seed);
            out.check(verify(&t, reference, "traced run"));
            layers.network_new.merge(t.network_new);
            if let Some(p) = &t.profile {
                layers.add_profile(p);
            }
            layers.hops += t.stats.work.crossbar_traversals;
            layers.trace.merge(t.trace);
            layers.telemetry.merge(t.observer.telemetry);
            layers.interval.merge(t.observer.interval);
            layers.traced += t.wall;
            traced_walls.push(t.wall.as_secs_f64());
        }
    }
    println!("{}", summary(w, seed, &refs));
    let pooled = Pooled::new(&refs);
    if traced {
        layers.work = pooled.work;
        layers.failed_ratio = pooled.failed_ratio();
        layers.router_cycles = pooled.router_cycles;
        layers.runs = traced_walls.len() as u64;
        layers.tracing_overhead = ratio(median(&traced_walls), median(&walls));
        out.metrics = layers.metrics();
        return out;
    }
    let wall_s = median(&walls);
    let per_run_flits = pooled.flits_ejected as f64 / refs.len() as f64;
    out.metrics = EndToEnd {
        setup_s: median(&setups),
        wall_s,
        ns_per_router_cycle: ratio(wall_s * 1e9, (refs[0].cycles * refs[0].routers) as f64),
        delivered_flits_per_s: ratio(per_run_flits, wall_s),
        step_p50_us: median(&step_p50s),
        step_p99_us: median(&step_p99s),
        campaigns_per_s: ratio(1.0, wall_s),
        campaign_p50_ms: wall_s * 1e3,
        campaign_p90_ms: quantile(&walls, 0.9) * 1e3,
        sim_avg_latency_cycles: ratio(pooled.latency_sum as f64, pooled.packets_ejected as f64),
        sim_p99_latency_cycles: hist_quantile(&pooled.latency, 0.99),
    }
    .metrics();
    out
}
