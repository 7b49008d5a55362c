//! Replay determinism of end-to-end retransmission: a campaign whose
//! E2E sources time out several packets in the same scan must requeue
//! them in the same order on every run, so two replays in one process
//! produce identical statistics.

use ftnoc_check::CampaignParams;
use ftnoc_sim::stats::LatencyHistogram;
use ftnoc_sim::{Network, NetworkStats};

/// Campaign 29 of master seed 0xF70C: E2E scheme, retransmission-buffer
/// upsets on a concentrated mesh — several timeouts expire per scan.
fn replay() -> (NetworkStats, LatencyHistogram, u64) {
    let params = CampaignParams::sample(0xF70C, 29);
    let mut net = Network::new(params.to_config().expect("campaign 29 lowers"));
    net.start_measurement();
    net.with_stepper(params.threads, |st| {
        for _ in 0..params.cycles {
            st.step();
        }
    });
    (
        net.stats(),
        net.latency_histogram().clone(),
        net.flits_ejected(),
    )
}

#[test]
fn e2e_timeout_replays_are_deterministic() {
    let params = CampaignParams::sample(0xF70C, 29);
    let config = params.to_config().unwrap();
    assert_eq!(config.scheme, ftnoc_sim::ErrorScheme::E2e, "{params:?}");
    let (stats_a, hist_a, flits_a) = replay();
    let (stats_b, hist_b, flits_b) = replay();
    assert!(
        stats_a.errors.e2e_retransmissions > 0,
        "the campaign must exercise E2E retransmission"
    );
    assert_eq!(stats_a, stats_b);
    assert_eq!(hist_a, hist_b);
    assert_eq!(flits_a, flits_b);
}
