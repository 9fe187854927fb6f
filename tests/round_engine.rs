//! Integration tests for the round engine: heterogeneous-link
//! virtual-time accounting, transit loss, adaptive compression,
//! buffered-asynchronous aggregation and the training pool's width.

use fedsz_fl::net::global_checksum;
use fedsz_fl::{
    AggregationPolicy, DpMechanism, DpPolicy, Experiment, FlConfig, LinkProfile, StagePolicy,
};

fn quick_config() -> FlConfig {
    let mut config = FlConfig::smoke_test();
    config.rounds = 3;
    config.data.train_per_class = 8;
    config.data.test_per_class = 4;
    config
}

#[test]
fn heterogeneous_links_do_not_serialize_on_one_pipe() {
    // Four clients on dedicated 10 Mbps links must finish their uploads
    // in roughly the time one client takes on the shared 10 Mbps pipe.
    let mut shared = quick_config();
    shared.clients = 4;
    shared.rounds = 1;
    shared.bandwidth_bps = Some(10e6);
    let shared_metrics = Experiment::new(shared.clone()).run_round(0);

    let mut dedicated = shared.clone();
    dedicated.links = Some(vec![LinkProfile::symmetric(10e6); 4]);
    let dedicated_metrics = Experiment::new(dedicated).run_round(0);

    assert!(
        dedicated_metrics.comm_secs < shared_metrics.comm_secs / 2.0,
        "dedicated links must overlap: {:.4}s vs shared {:.4}s",
        dedicated_metrics.comm_secs,
        shared_metrics.comm_secs
    );
    // Identical payloads either way: the topology only changes timing.
    assert_eq!(dedicated_metrics.upstream_bytes, shared_metrics.upstream_bytes);
}

#[test]
fn slow_links_dominate_round_time_in_heterogeneous_cohorts() {
    let mut config = quick_config();
    config.clients = 2;
    config.rounds = 1;
    config.links = Some(vec![
        LinkProfile::symmetric(100e6),
        LinkProfile::symmetric(0.5e6), // ~200x slower uplink
    ]);
    let metrics = Experiment::new(config).run_round(0);
    // comm time on dedicated links == the slowest single transfer.
    let payload_bits = metrics.update_bytes * 8.0;
    let slow_transfer = payload_bits / 0.5e6;
    assert!(
        (metrics.comm_secs - slow_transfer).abs() / slow_transfer < 0.1,
        "comm {:.4}s should track the slow link's {:.4}s",
        metrics.comm_secs,
        slow_transfer
    );
}

#[test]
fn buffered_async_policy_converges_on_the_smoke_config() {
    let mut config = quick_config();
    config.clients = 4;
    config.rounds = 6;
    // One straggler on a slow link; aggregate after 3 of 4 arrivals.
    config.links = Some(vec![
        LinkProfile::symmetric(50e6),
        LinkProfile::symmetric(50e6),
        LinkProfile::symmetric(50e6),
        LinkProfile::symmetric(1e6).with_slowdown(20.0),
    ]);
    config.aggregation = AggregationPolicy::Buffered { target: 3 };
    let metrics = Experiment::new(config).run();
    let best = metrics.iter().map(|m| m.test_accuracy).fold(0.0f64, f64::max);
    assert!(best > 0.15, "buffered-async run stuck at {best:.3}");
    // Stale straggler updates must actually flow into later rounds.
    let stale_total: usize = metrics.iter().map(|m| m.stale_updates).sum();
    assert!(stale_total > 0, "straggler updates never applied");
    // The straggler must not gate round completion time.
    let sync_round = metrics[0].round_secs;
    assert!(sync_round.is_finite() && sync_round > 0.0);
}

#[test]
fn buffered_rounds_complete_faster_than_synchronous_with_stragglers() {
    let mut config = quick_config();
    config.clients = 3;
    config.rounds = 1;
    let links = vec![
        LinkProfile::symmetric(50e6),
        LinkProfile::symmetric(50e6),
        LinkProfile::symmetric(50e6).with_slowdown(100.0),
    ];
    config.links = Some(links.clone());
    config.aggregation = AggregationPolicy::Synchronous;
    let sync = Experiment::new(config.clone()).run_round(0);
    config.aggregation = AggregationPolicy::Buffered { target: 2 };
    let buffered = Experiment::new(config).run_round(0);
    assert!(
        buffered.round_secs < sync.round_secs / 2.0,
        "buffered {:.3}s should beat synchronous {:.3}s by skipping the straggler",
        buffered.round_secs,
        sync.round_secs
    );
}

#[test]
fn adaptive_compression_sends_raw_on_fast_links() {
    // Eqn 1: at terabit speeds codec time can never pay for itself, so
    // after the probe round every client should ship raw bytes.
    let mut config = quick_config();
    config.clients = 2;
    config.rounds = 3;
    config.links = Some(vec![LinkProfile::symmetric(1e12); 2]);
    config.adaptive_compression = true;
    let metrics = Experiment::new(config.clone()).run();
    assert!(metrics[0].ratio > 1.2, "probe round should compress");
    let last = metrics.last().unwrap();
    assert!(
        (last.ratio - 1.0).abs() < 0.05,
        "fast links should skip compression after probing, ratio {:.2}",
        last.ratio
    );

    // And on a crawling 1 Mbps link compression must stay on.
    config.links = Some(vec![LinkProfile::symmetric(1e6); 2]);
    let metrics = Experiment::new(config).run();
    assert!(metrics.iter().all(|m| m.ratio > 1.2), "slow links must keep compressing");
}

#[test]
fn dropped_uploads_are_excluded_but_learning_continues() {
    let mut config = quick_config();
    config.clients = 4;
    config.rounds = 4;
    config.links = Some(vec![
        LinkProfile::symmetric(10e6),
        LinkProfile::symmetric(10e6).with_drop_prob(0.5),
        LinkProfile::symmetric(10e6),
        LinkProfile::symmetric(10e6).with_drop_prob(0.5),
    ]);
    let metrics = Experiment::new(config).run();
    let drops: usize = metrics.iter().map(|m| m.dropped_updates).sum();
    assert!(drops > 0, "a 50% drop link should lose something over 4 rounds");
    for m in &metrics {
        assert_eq!(m.aggregated_updates + m.dropped_updates, 4, "round {}", m.round);
    }
}

#[test]
fn training_pool_width_moves_no_bit_byte_or_decision() {
    // Five clients at 80% participation put a rotating cohort of four
    // (round 1 is clients 4, 0, 1, 2, three of them reusing their
    // error-feedback residuals) on pools one to three wide, with seeded
    // Gaussian DP.
    let run = |threads: usize| {
        let mut config = FlConfig::smoke_test();
        config.data.train_per_class = 2;
        config.data.test_per_class = 1;
        config.clients = 5;
        config.participation = 0.8;
        config.uplink = Some(StagePolicy::TopK { ratio: 0.1, error_feedback: true });
        config.dp = Some(DpPolicy {
            clip_norm: 1.0,
            noise_multiplier: 0.5,
            mechanism: DpMechanism::Gaussian,
            seed: 11,
        });
        config.worker_threads = Some(threads);
        let mut exp = Experiment::new(config);
        (0..2)
            .map(|round| {
                let m = exp.run_round(round);
                let families: Vec<_> =
                    m.eqn1.iter().map(|d| (d.leg, d.node, d.compressed, d.family)).collect();
                (global_checksum(exp.global_state()), m.upstream_bytes, m.comm_secs, families)
            })
            .collect::<Vec<_>>()
    };
    let serial = run(1);
    assert!(serial.iter().all(|(_, _, _, families)| families.len() == 5), "{serial:?}");
    for threads in [2, 3] {
        assert_eq!(run(threads), serial, "pool width {threads}");
    }
}
