//! Measurement helpers shared by every workload: quantiles, span
//! accumulators, the result line and the statistics digest.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use ftnoc_metrics::ProfileSnapshot;
use ftnoc_sim::stats::LatencyHistogram;
use ftnoc_sim::{Network, NetworkStats};
use ftnoc_trace::TraceSink;

/// The `q`-quantile of `values` with linear interpolation between
/// order statistics (0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// A latency quantile read from the simulator's power-of-two histogram,
/// interpolated linearly inside the bucket that holds it. The histogram
/// only answers "which bucket holds quantile q"; the cumulative count at
/// each bucket edge is recovered from that by bisection, so the result
/// moves smoothly with the distribution instead of jumping by 2×.
pub fn hist_quantile(hist: &LatencyHistogram, q: f64) -> f64 {
    let n = hist.len();
    if n == 0 {
        return 0.0;
    }
    // Upper bound of the bucket holding the k-th smallest sample
    // (1-based); the half-sample offset keeps `ceil(n * q)` exact.
    let bucket_of = |k: u64| hist.quantile((k as f64 - 0.5) / n as f64);
    // Samples at or below `bound`, the upper edge of some bucket.
    let count_le = |bound: u64| {
        let (mut lo, mut hi) = (0u64, n);
        while lo < hi {
            let mid = (lo + hi).div_ceil(2);
            if bucket_of(mid) <= bound {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        lo
    };
    let target = q.clamp(0.0, 1.0) * n as f64;
    let upper = hist.quantile(q);
    // Bucket i spans [2^i, 2^(i+1)); bucket 0 also holds latency 0.
    let lower = if upper <= 1 { 0 } else { upper.div_ceil(2) };
    let below = if lower == 0 { 0 } else { count_le(lower - 1) };
    let within = count_le(upper) - below;
    let frac = ratio(target - below as f64, within as f64).clamp(0.0, 1.0);
    lower as f64 + frac * (upper + 1 - lower) as f64
}

/// Accumulated wall time of one kind of call.
#[derive(Debug, Default, Clone, Copy)]
pub struct Span {
    /// Calls timed.
    pub calls: u64,
    /// Total nanoseconds.
    pub ns: u64,
}

impl Span {
    /// Adds the time since `start` as one call.
    pub fn add(&mut self, start: Instant) {
        self.calls += 1;
        self.ns += start.elapsed().as_nanos() as u64;
    }

    /// Times `f` as one call.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        self.add(start);
        r
    }

    /// Mean nanoseconds per call.
    pub fn ns_per_call(&self) -> f64 {
        ratio(self.ns as f64, self.calls as f64)
    }

    /// This span's share of `total`.
    pub fn share_of(&self, total: Duration) -> f64 {
        ratio(self.ns as f64, total.as_nanos() as f64)
    }

    /// Sums two accumulators.
    pub fn merge(&mut self, other: Span) {
        self.calls += other.calls;
        self.ns += other.ns;
    }
}

/// Peak resident memory of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over a textual rendering of the simulated statistics: equal
/// digests mean equal statistics, which is what the determinism and
/// zero-perturbation checks compare.
pub fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Named metrics in report order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    /// Adds one metric.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    /// Adds a count.
    pub fn count(&mut self, name: &'static str, value: u64) {
        self.put(name, value as f64, "count");
    }
}

/// The outcome of one benchmark invocation.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Units of work run (timed runs or campaigns).
    pub attempted: u64,
    /// Units whose correctness check failed.
    pub failed: u64,
    /// Why each failed unit failed.
    pub errors: Vec<String>,
    /// The reported metrics.
    pub metrics: Metrics,
}

impl Outcome {
    /// Counts one unit of work, failed when `check` is an error.
    pub fn check(&mut self, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = check {
            self.failed += 1;
            self.errors.push(e);
        }
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.0.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

/// Every end-to-end metric, in report order. Each workload fills every
/// field, so every run reports the same names.
#[derive(Debug, Default)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub wall_s: f64,
    pub ns_per_router_cycle: f64,
    pub delivered_flits_per_s: f64,
    pub step_p50_us: f64,
    pub step_p99_us: f64,
    pub campaigns_per_s: f64,
    pub campaign_p50_ms: f64,
    pub campaign_p90_ms: f64,
    pub sim_avg_latency_cycles: f64,
    pub sim_p99_latency_cycles: f64,
}

impl EndToEnd {
    /// The metrics, with peak resident memory read last.
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        m.put("setup_s", self.setup_s, "s");
        m.put("wall_s", self.wall_s, "s");
        m.put("ns_per_router_cycle", self.ns_per_router_cycle, "ns");
        m.put("delivered_flits_per_s", self.delivered_flits_per_s, "1/s");
        m.put("step_p50_us", self.step_p50_us, "us");
        m.put("step_p99_us", self.step_p99_us, "us");
        m.put("campaigns_per_s", self.campaigns_per_s, "1/s");
        m.put("campaign_p50_ms", self.campaign_p50_ms, "ms");
        m.put("campaign_p90_ms", self.campaign_p90_ms, "ms");
        m.put("peak_rss_mb", peak_rss_mb(), "MiB");
        m.put(
            "sim_avg_latency_cycles",
            self.sim_avg_latency_cycles,
            "cycles",
        );
        m.put(
            "sim_p99_latency_cycles",
            self.sim_p99_latency_cycles,
            "cycles",
        );
        m
    }
}

/// Work done by the modelled layers (simulated counts: identical under
/// any change that only makes the simulator faster).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Work {
    pub va_grants: u64,
    pub sa_grants: u64,
    pub crossbar_traversals: u64,
    pub link_traversals: u64,
    pub ecc_checks: u64,
    pub hbh_replays: u64,
    pub hbh_inline_corrected: u64,
    pub hbh_flits_dropped: u64,
    pub hbh_nacks: u64,
    pub ac_checks: u64,
    pub ac_corrected: u64,
    pub probes_sent: u64,
    pub deadlocks_confirmed: u64,
    pub fault_events: u64,
    pub flits_lost: u64,
    /// Router compute phases run (skipped ones under gating excluded).
    pub routers_computed: u64,
}

impl Work {
    /// Reads the counts from a network and its `stats()`.
    /// `fault_events` counts injected soft faults plus realised hard
    /// faults.
    pub fn read<S: TraceSink>(net: &Network<S>, stats: &NetworkStats) -> Self {
        let (e, r) = (&stats.events, &stats.errors);
        let now = net.now();
        let hard = net.fault_events().iter().filter(|f| f.at < now).count() as u64;
        Work {
            va_grants: e.va,
            sa_grants: e.sa,
            crossbar_traversals: e.crossbar,
            link_traversals: e.link,
            ecc_checks: e.ecc_check,
            hbh_replays: e.retransmission,
            hbh_inline_corrected: r.link_corrected_inline,
            hbh_flits_dropped: r.flits_dropped,
            hbh_nacks: e.nack,
            ac_checks: e.ac_check,
            ac_corrected: r.va_corrected + r.sa_corrected,
            probes_sent: r.probes_sent,
            deadlocks_confirmed: r.deadlocks_confirmed,
            fault_events: net.fault_counts().total() + hard,
            flits_lost: net.flits_lost(),
            routers_computed: net
                .telemetry()
                .routers
                .iter()
                .map(|t| t.computed_cycles)
                .sum(),
        }
    }

    /// Adds another census.
    pub fn add(&mut self, o: &Work) {
        self.va_grants += o.va_grants;
        self.sa_grants += o.sa_grants;
        self.crossbar_traversals += o.crossbar_traversals;
        self.link_traversals += o.link_traversals;
        self.ecc_checks += o.ecc_checks;
        self.hbh_replays += o.hbh_replays;
        self.hbh_inline_corrected += o.hbh_inline_corrected;
        self.hbh_flits_dropped += o.hbh_flits_dropped;
        self.hbh_nacks += o.hbh_nacks;
        self.ac_checks += o.ac_checks;
        self.ac_corrected += o.ac_corrected;
        self.probes_sent += o.probes_sent;
        self.deadlocks_confirmed += o.deadlocks_confirmed;
        self.fault_events += o.fault_events;
        self.flits_lost += o.flits_lost;
        self.routers_computed += o.routers_computed;
    }
}

/// Every per-layer metric of the traced run, in report order. Layers a
/// workload does not exercise read 0.
#[derive(Debug, Default)]
pub struct Layers {
    pub network_new: Span,
    /// Engine phase totals (pre, commit, mean lane compute, mean lane
    /// barrier wait, Σ max lane compute, Σ min lane compute, Σ compute).
    pub pre_ns: u64,
    pub commit_ns: u64,
    pub lane_compute_ns: f64,
    pub lane_barrier_ns: f64,
    pub max_lane_ns: u64,
    pub min_lane_ns: u64,
    pub compute_ns: u64,
    /// Crossbar traversals of the runs `compute_ns` covers.
    pub hops: u64,
    pub router_cycles: u64,
    pub snapshot: Span,
    pub oracle: Span,
    pub to_config: Span,
    pub violations: u64,
    pub trace: Span,
    pub telemetry: Span,
    pub interval: Span,
    pub work: Work,
    pub failed_ratio: f64,
    /// Traced wall time summed over the traced runs: the base of every
    /// share.
    pub traced: Duration,
    /// Traced runs the span totals cover.
    pub runs: u64,
    /// Median traced wall / median untraced wall.
    pub tracing_overhead: f64,
}

impl Layers {
    /// Folds one engine profile into the phase totals.
    pub fn add_profile(&mut self, p: &ProfileSnapshot) {
        let lanes = p.lanes.len().max(1) as f64;
        self.pre_ns += p.pre_ns;
        self.commit_ns += p.commit_ns;
        self.compute_ns += p.compute_ns();
        self.lane_compute_ns += p.compute_ns() as f64 / lanes;
        self.lane_barrier_ns += p.barrier_ns() as f64 / lanes;
        self.max_lane_ns += p.lanes.iter().map(|l| l.0).max().unwrap_or(0);
        self.min_lane_ns += p.lanes.iter().map(|l| l.0).min().unwrap_or(0);
    }

    /// The metrics.
    pub fn metrics(&self) -> Metrics {
        let base = self.traced.as_nanos() as f64;
        let w = &self.work;
        let mut m = Metrics::default();
        m.put(
            "sim.network_new_s",
            self.network_new.ns_per_call() / 1e9,
            "s",
        );
        m.put(
            "sim.engine.pre_share",
            ratio(self.pre_ns as f64, base),
            "ratio",
        );
        m.put(
            "sim.engine.compute_share",
            ratio(self.lane_compute_ns, base),
            "ratio",
        );
        m.put(
            "sim.engine.commit_share",
            ratio(self.commit_ns as f64, base),
            "ratio",
        );
        m.put(
            "sim.engine.barrier_share",
            ratio(self.lane_barrier_ns, base),
            "ratio",
        );
        m.put(
            "sim.engine.lane_imbalance",
            ratio(self.max_lane_ns as f64, self.min_lane_ns as f64),
            "ratio",
        );
        m.put(
            "sim.router.ns_per_flit_hop",
            ratio(self.compute_ns as f64, self.hops as f64),
            "ns",
        );
        m.put(
            "sim.gating.skip_rate",
            1.0 - ratio(w.routers_computed as f64, self.router_cycles as f64),
            "ratio",
        );
        m.count("sim.gating.routers_computed", w.routers_computed);
        m.put(
            "sim.snapshot_ns_per_call",
            self.snapshot.ns_per_call(),
            "ns",
        );
        m.put(
            "sim.snapshot_share",
            self.snapshot.share_of(self.traced),
            "ratio",
        );
        m.put("check.oracle_ns_per_call", self.oracle.ns_per_call(), "ns");
        m.put(
            "check.oracle_share",
            self.oracle.share_of(self.traced),
            "ratio",
        );
        m.put("check.to_config_s", self.to_config.ns_per_call() / 1e9, "s");
        m.count("check.violations", self.violations);
        m.put(
            "trace.records",
            ratio(self.trace.calls as f64, self.runs as f64),
            "count",
        );
        m.put("trace.record_ns_per_call", self.trace.ns_per_call(), "ns");
        m.put("trace.share", self.trace.share_of(self.traced), "ratio");
        m.put(
            "metrics.telemetry_ns_per_call",
            self.telemetry.ns_per_call(),
            "ns",
        );
        m.put(
            "metrics.interval_ns_per_call",
            self.interval.ns_per_call(),
            "ns",
        );
        m.put(
            "metrics.share",
            ratio((self.telemetry.ns + self.interval.ns) as f64, base),
            "ratio",
        );
        m.count("sim.router.va_grants", w.va_grants);
        m.count("sim.router.sa_grants", w.sa_grants);
        m.count("sim.router.crossbar_traversals", w.crossbar_traversals);
        m.count("sim.link.traversals", w.link_traversals);
        m.count("ecc.checks", w.ecc_checks);
        m.count("core.hbh.replays", w.hbh_replays);
        m.count("core.hbh.inline_corrected", w.hbh_inline_corrected);
        m.count("core.hbh.flits_dropped", w.hbh_flits_dropped);
        m.count("core.hbh.nacks", w.hbh_nacks);
        m.count("core.ac.checks", w.ac_checks);
        m.count("core.ac.corrected", w.ac_corrected);
        m.count("core.deadlock.probes_sent", w.probes_sent);
        m.count("core.deadlock.confirmed", w.deadlocks_confirmed);
        m.put(
            "core.deadlock.confirm_ratio",
            ratio(w.deadlocks_confirmed as f64, w.probes_sent as f64),
            "ratio",
        );
        m.count("fault.events", w.fault_events);
        m.count("fault.flits_lost", w.flits_lost);
        m.put("failed_ratio", self.failed_ratio, "ratio");
        m.put("bench.tracing_overhead", self.tracing_overhead, "ratio");
        m
    }
}
