//! `sim-paper`: the paper's own round on the in-memory transport.
//!
//! Tiny AlexNet on the CIFAR-10-like synthetic set, 4 clients, FedSZ
//! uplink (SZ2 + blosc-lz, REL 1e-2, threshold 128), raw downlink,
//! flat server, one 10 Mbps shared pipe; eight federations seeded from
//! the workload seed take one round each in turn. Training and
//! evaluation do most of the work, so a codec or merge speed-up moves
//! this workload by at most its share of the round.

use crate::report::Outcome;
use crate::stats::{mean, Tally};
use crate::trace::Trace;
use crate::{emit_layers, overhead, round_table, span_table, timed_setup, Ctx, EndToEnd, Layers};
use fedsz::timing::TransferPlan;
use fedsz_data::{DatasetKind, SyntheticConfig};
use fedsz_fl::transport::InMemoryTransport;
use fedsz_fl::{DownlinkMode, FlConfig, RoundEngine, RoundMetrics};
use fedsz_nn::models::tiny::TinyArch;
use fedsz_telemetry::Telemetry;
use std::time::Instant;

const CLIENTS: usize = 4;
/// Independent federations, seeded from the workload seed, that take
/// one round each in turn. The uplink ratio follows a run's training
/// trajectory, so spreading a run over several trajectories keeps it
/// from swinging with the workload seed.
const FEDERATIONS: usize = 8;
/// The byte metrics (`compression_ratio`, `uplink_bytes_per_round`)
/// are taken over exactly this many first turns, four rounds of every
/// federation, so they do not depend on how many rounds a faster or
/// slower program fits in the window. The untraced loop always runs
/// at least this many.
const BYTE_TURNS: usize = 4 * FEDERATIONS;
/// `FlConfig::worker_threads`, pinned rather than left to the host
/// (the flat server merges on the calling thread, and the engine still
/// runs one training thread per cohort client).
pub const WORKER_THREADS: usize = 2;

/// The paper's setting with every input derived from `seed`.
pub fn config(seed: u64, clients: usize, downlink: DownlinkMode) -> FlConfig {
    FlConfig::builder()
        .arch(TinyArch::AlexNet)
        .dataset(DatasetKind::Cifar10Like)
        .clients(clients)
        // The loop runs rounds until the window closes; this only
        // bounds `RoundEngine::run`, which the harness never calls.
        .rounds(100_000)
        .seed(seed)
        .data(SyntheticConfig { seed, ..SyntheticConfig::default() })
        .compression(Some(FlConfig::tiny_model_compression()))
        .bandwidth_bps(Some(10e6))
        .downlink(downlink)
        .worker_threads(WORKER_THREADS)
        .build()
}

/// Bytes the round touches: one model per client plus the global and
/// the evaluation copy, and the generated data set.
fn working_set_bytes(config: &FlConfig, model_bytes: usize) -> usize {
    let d = &config.data;
    let samples = (d.train_per_class + d.test_per_class) * config.dataset.classes();
    let sample_bytes = config.dataset.channels() * d.resolution * d.resolution * 4;
    (config.clients + 2) * model_bytes + samples * sample_bytes
}

struct Phase {
    round_secs: Vec<f64>,
    metrics: Vec<RoundMetrics>,
}

/// Runs rounds back to back until `seconds` of wall time have passed
/// and at least `min_turns` rounds have run: turn `t` is round `t / n`
/// of federation `t % n`, continuing from `first_turn`.
fn run_phase(
    engines: &mut [RoundEngine],
    first_turn: usize,
    min_turns: usize,
    seconds: f64,
    telemetry: &Telemetry,
    tally: &mut Tally,
) -> Phase {
    let mut phase = Phase { round_secs: Vec::new(), metrics: Vec::new() };
    let start = Instant::now();
    let mut turn = first_turn;
    while phase.round_secs.len() < min_turns.max(1) || start.elapsed().as_secs_f64() < seconds {
        let n = engines.len();
        let span = telemetry.span("bench.round");
        let t0 = Instant::now();
        let m = engines[turn % n].run_round(turn / n);
        phase.round_secs.push(t0.elapsed().as_secs_f64());
        drop(span);
        tally.record(
            m.aggregated_updates == CLIENTS
                && m.dropped_updates == 0
                && m.ratio > 1.0
                && m.test_accuracy.is_finite(),
        );
        phase.metrics.push(m);
        turn += 1;
    }
    phase
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let configs: Vec<FlConfig> = (0..FEDERATIONS as u64)
        .map(|k| {
            let seed = ctx.seed.wrapping_mul(FEDERATIONS as u64).wrapping_add(k);
            config(seed, CLIENTS, DownlinkMode::Raw)
        })
        .collect();
    let (mut engines, setup_s) = timed_setup(|| {
        configs
            .iter()
            .map(|c| RoundEngine::new(c.clone(), Box::<InMemoryTransport>::default()))
            .collect::<Vec<_>>()
    });
    let raw_update_bytes = engines[0].global_state().byte_size();
    out.fact("clients", CLIENTS);
    out.fact("federations", FEDERATIONS);
    out.fact("pool_widths", format!("worker_threads={WORKER_THREADS}, train threads={CLIENTS}"));
    out.fact("working_set_bytes", FEDERATIONS * working_set_bytes(&configs[0], raw_update_bytes));

    let base = run_phase(
        &mut engines,
        0,
        BYTE_TURNS,
        ctx.phase_seconds(),
        &Telemetry::disabled(),
        &mut out.tally,
    );
    if !ctx.trace {
        let m = &base.metrics[..BYTE_TURNS];
        out.fact("byte_metrics_over", format!("the first {BYTE_TURNS} turns"));
        EndToEnd {
            setup_s,
            round_secs: &base.round_secs,
            updates: base.metrics.iter().map(|r| r.aggregated_updates as f64).sum(),
            compression_ratio: mean(&m.iter().map(|r| r.ratio).collect::<Vec<_>>()),
            uplink_bytes_per_round: mean(
                &m.iter().map(|r| r.upstream_bytes as f64).collect::<Vec<_>>(),
            ),
        }
        .emit(&mut out);
        return out;
    }

    let (telemetry, path) = ctx.trace_handle("sim-paper");
    let mut engines: Vec<RoundEngine> =
        engines.into_iter().map(|e| e.with_telemetry(telemetry.clone())).collect();
    let traced = run_phase(
        &mut engines,
        base.metrics.len(),
        1,
        ctx.phase_seconds(),
        &telemetry,
        &mut out.tally,
    );
    telemetry.flush();
    let trace = Trace::load(&path).expect("read back the sim-paper trace");

    let stages = [
        "engine.broadcast",
        "engine.train",
        "engine.comm",
        "engine.decode",
        "engine.merge",
        "engine.validate",
    ];
    let (table, rows) = round_table(&trace, "engine.round", &stages);
    let rounds = rows.len() as f64;
    let mut layers = Layers::new();
    for (i, name) in [
        "engine.broadcast_s",
        "engine.train_s",
        "engine.comm_s",
        "engine.decode_s",
        "engine.merge_s",
        "engine.validate_s",
    ]
    .into_iter()
    .enumerate()
    {
        layers.insert(name, rows.iter().map(|r| r.1[i]).sum::<f64>() / rounds);
    }
    layers.insert("engine.round_self_s", rows.iter().map(|r| r.2).sum::<f64>() / rounds);

    let m = &traced.metrics;
    let avg = |f: fn(&RoundMetrics) -> f64| mean(&m.iter().map(f).collect::<Vec<_>>());
    let encode_s = avg(|r| r.compress_secs);
    let decode_s = avg(|r| r.decompress_secs / r.aggregated_updates.max(1) as f64);
    let update_bytes = avg(|r| r.update_bytes);
    layers.insert("nn.train_s", avg(|r| r.train_secs));
    // Each federation's accuracy after its last round, not its best.
    let last_rounds = &m[m.len().saturating_sub(FEDERATIONS)..];
    layers.insert(
        "nn.final_accuracy",
        mean(&last_rounds.iter().map(|r| r.test_accuracy).collect::<Vec<_>>()),
    );
    layers.insert("core.encode_s", encode_s);
    layers.insert("core.decode_s", decode_s);
    layers.insert("core.encode_mb_s", raw_update_bytes as f64 / 1e6 / encode_s);
    layers.insert("core.decode_mb_s", raw_update_bytes as f64 / 1e6 / decode_s);
    layers.insert(
        "core.breakeven_mbps",
        TransferPlan {
            compress_secs: encode_s,
            decompress_secs: decode_s,
            original_bytes: raw_update_bytes,
            compressed_bytes: update_bytes as usize,
        }
        .breakeven_bandwidth()
            / 1e6,
    );
    layers.insert(
        "core.lossy_fraction",
        fedsz::partition::report(
            engines[0].global_state(),
            FlConfig::tiny_model_compression().threshold,
        )
        .lossy_fraction(),
    );
    layers.insert(
        "agg.level_merge_s.l0",
        avg(|r| r.level_merge_nanos.first().copied().unwrap_or(0) as f64 / 1e9),
    );
    layers.insert("link.comm_virtual_s", avg(|r| r.comm_secs));
    layers.insert("telemetry.overhead", overhead(&base.round_secs, &traced.round_secs));
    emit_layers(&mut out, &layers);
    out.trace_table = format!("{}{table}", span_table(&trace));
    out
}
