//! `socket-round`: the deployed runtime over loopback TCP.
//!
//! An in-process `NetServer` root on its poll(2) reactor plus two
//! `run_worker` threads (two connections), FedSZ on both legs: the
//! root encodes each broadcast once and every worker decodes it, then
//! trains and uploads a FedSZ update. Sessions of `SESSION_ROUNDS`
//! rounds run back to back until the window closes, alternating
//! between `FEDERATIONS` configurations seeded from the workload seed.
//! Each round's global checksum must equal the in-memory engine's for
//! the same configuration.
//!
//! Round times cover the whole critical path. The harness times each
//! session from `NetServer::run` to the last join (binding happens
//! before). The server's own per-round clock (`NetRound::wall_secs`:
//! broadcast sent → barrier → fold) misses the root's broadcast encode,
//! which runs on the reactor thread before each round while both
//! workers wait. So each round counts as its `wall_secs` plus an equal
//! share of the session's time outside them: the broadcast encodes, and
//! once per session the accept, handshake and teardown (about 15 ms on a
//! 2-vCPU host, under 2% of a round once spread over five rounds; the
//! runtime exposes no boundary that would split them apart). Set-up
//! times one bind + accept + handshake on top: a one-round deployment
//! checked against the reference.

use crate::report::Outcome;
use crate::stats::{mean, Tally};
use crate::trace::{parse_counters, Trace};
use crate::{emit_layers, overhead, round_table, span_table, timed_setup, Ctx, EndToEnd, Layers};
use fedsz_fl::agg::Downlink;
use fedsz_fl::net::{global_checksum, run_worker, NetRound, NetServer, ServeConfig, WorkerConfig};
use fedsz_fl::transport::InMemoryTransport;
use fedsz_fl::{DownlinkMode, FlConfig, RoundEngine};
use fedsz_nn::StateDict;
use fedsz_telemetry::Telemetry;
use std::time::Instant;

const CLIENTS: usize = 2;
const SESSION_ROUNDS: usize = 5;
/// Configurations, seeded from the workload seed, whose sessions take
/// turns. The uplink bytes follow a run's training trajectory, so two
/// trajectories keep them from swinging with the workload seed. The
/// byte metrics are taken over the first session of each, which every
/// run completes, so they do not depend on how many sessions fit.
const FEDERATIONS: usize = 2;

/// The in-memory twin of one session: the global after every round.
struct Reference {
    /// `globals[r]` is the model broadcast in round `r`;
    /// `globals[SESSION_ROUNDS]` is the final one.
    globals: Vec<StateDict>,
    checksums: Vec<u32>,
    final_accuracy: f64,
}

fn config(seed: u64, federation: usize) -> FlConfig {
    let seed = seed.wrapping_mul(FEDERATIONS as u64).wrapping_add(federation as u64);
    let mut config = crate::sim::config(seed, CLIENTS, DownlinkMode::Compressed);
    config.rounds = SESSION_ROUNDS;
    config
}

fn reference(config: &FlConfig) -> Reference {
    let mut engine = RoundEngine::new(config.clone(), Box::<InMemoryTransport>::default());
    let mut globals = vec![engine.global_state().clone()];
    let mut checksums = Vec::new();
    let mut final_accuracy = f64::NAN;
    for round in 0..SESSION_ROUNDS {
        final_accuracy = engine.run_round(round).test_accuracy;
        globals.push(engine.global_state().clone());
        checksums.push(global_checksum(engine.global_state()));
    }
    Reference { globals, checksums, final_accuracy }
}

/// One deployment: bind, serve `config.rounds` rounds to two worker
/// threads, join everything. Returns the root's rounds and the seconds
/// from starting the root to the last join.
fn session(config: &FlConfig, telemetry: &Telemetry) -> Result<(Vec<NetRound>, f64), String> {
    let root = NetServer::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = root.local_addr().to_string();
    let mut serve = ServeConfig::root(config.clone());
    serve.telemetry = telemetry.clone();
    let t0 = Instant::now();
    let rounds = std::thread::scope(|scope| {
        let root = scope.spawn(move || root.run(serve));
        let workers: Vec<_> = (0..CLIENTS)
            .map(|id| {
                let mut worker = WorkerConfig::new(config.clone(), id, addr.clone());
                worker.telemetry = telemetry.clone();
                scope.spawn(move || run_worker(worker))
            })
            .collect();
        let report = root.join().map_err(|_| "serve thread panicked".to_string())?;
        for worker in workers {
            worker
                .join()
                .map_err(|_| "worker thread panicked".to_string())?
                .map_err(|e| format!("worker: {e}"))?;
        }
        let report = report.map_err(|e| format!("serve: {e}"))?;
        if report.evicted != 0 || report.reconnects != 0 {
            return Err(format!(
                "{} evictions, {} reconnects on loopback",
                report.evicted, report.reconnects
            ));
        }
        Ok(report.rounds)
    })?;
    Ok((rounds, t0.elapsed().as_secs_f64()))
}

/// Each round's share of its session: its own `wall_secs` plus an equal
/// part of the session's seconds outside every round's `wall_secs`.
fn cycle_secs(rounds: &[NetRound], session_s: f64) -> Vec<f64> {
    let outside = session_s - rounds.iter().map(|r| r.wall_secs).sum::<f64>();
    let share = outside / rounds.len() as f64;
    rounds.iter().map(|r| r.wall_secs + share).collect()
}

#[derive(Default)]
struct Phase {
    /// The root's rounds, one list per session in run order.
    sessions: Vec<Vec<NetRound>>,
    /// Per-round critical-path seconds, from [`cycle_secs`].
    cycle_secs: Vec<f64>,
}

impl Phase {
    fn rounds(&self) -> impl Iterator<Item = &NetRound> {
        self.sessions.iter().flatten()
    }
}

/// Sessions back to back, federation `i % FEDERATIONS` serving session
/// `i`, until `seconds` have passed and every federation has served
/// one. A failed session ends the phase.
fn run_phase(
    configs: &[FlConfig],
    references: &[Reference],
    seconds: f64,
    telemetry: &Telemetry,
    tally: &mut Tally,
) -> Phase {
    let mut phase = Phase::default();
    let start = Instant::now();
    while phase.sessions.len() < FEDERATIONS || start.elapsed().as_secs_f64() < seconds {
        let federation = phase.sessions.len() % FEDERATIONS;
        let reference = &references[federation];
        match session(&configs[federation], telemetry) {
            Ok((rounds, session_s)) => {
                tally
                    .record_many((SESSION_ROUNDS - rounds.len().min(SESSION_ROUNDS)) as u64, false);
                for r in &rounds {
                    tally.record(
                        r.merged == CLIENTS
                            && reference.checksums.get(r.round as usize) == Some(&r.checksum),
                    );
                }
                phase.cycle_secs.extend(cycle_secs(&rounds, session_s));
                phase.sessions.push(rounds);
            }
            Err(e) => {
                eprintln!("socket-round session failed: {e}");
                tally.record_many(SESSION_ROUNDS as u64, false);
                break;
            }
        }
    }
    phase
}

/// A one-round deployment (bind, accept, handshake, one round,
/// teardown) whose checksum must match the reference's first round.
fn deploy_once(config: &FlConfig, reference: &Reference) -> bool {
    let mut once = config.clone();
    once.rounds = 1;
    match session(&once, &Telemetry::disabled()) {
        Ok((rounds, _)) => rounds.len() == 1 && rounds[0].checksum == reference.checksums[0],
        Err(e) => {
            eprintln!("socket-round set-up deployment failed: {e}");
            false
        }
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let configs: Vec<FlConfig> = (0..FEDERATIONS).map(|k| config(ctx.seed, k)).collect();
    let tally = &mut out.tally;
    let (references, setup_s) = timed_setup(|| {
        let references: Vec<Reference> = configs.iter().map(reference).collect();
        tally.record(deploy_once(&configs[0], &references[0]));
        references
    });
    let model_bytes = references[0].globals[0].byte_size();
    out.fact("clients", format!("{CLIENTS} worker threads, {CLIENTS} connections"));
    out.fact("session_rounds", SESSION_ROUNDS);
    out.fact("federations", FEDERATIONS);
    out.fact(
        "pool_widths",
        format!("worker_threads={}, 1 reactor thread", crate::sim::WORKER_THREADS),
    );
    out.fact("working_set_bytes", (CLIENTS + 1) * 2 * model_bytes);
    out.fact(
        "reference_checksums",
        references
            .iter()
            .map(|r| format!("0x{:08x}", r.checksums[SESSION_ROUNDS - 1]))
            .collect::<Vec<_>>()
            .join(", "),
    );

    let base = run_phase(
        &configs,
        &references,
        ctx.phase_seconds(),
        &Telemetry::disabled(),
        &mut out.tally,
    );
    if !ctx.trace {
        let firsts: Vec<&NetRound> = base.sessions.iter().take(FEDERATIONS).flatten().collect();
        let merged: usize = firsts.iter().map(|r| r.merged).sum();
        let upstream: usize = firsts.iter().map(|r| r.upstream_bytes).sum();
        out.fact("byte_metrics_over", format!("the first {FEDERATIONS} sessions"));
        EndToEnd {
            setup_s,
            round_secs: &base.cycle_secs,
            updates: base.rounds().map(|r| r.merged as f64).sum(),
            compression_ratio: (merged * model_bytes) as f64 / upstream as f64,
            uplink_bytes_per_round: upstream as f64 / firsts.len() as f64,
        }
        .emit(&mut out);
        return out;
    }

    let (telemetry, path) = ctx.trace_handle("socket-round");
    let traced = run_phase(&configs, &references, ctx.phase_seconds(), &telemetry, &mut out.tally);
    // The downlink probe: the root's broadcast encode and the worker's
    // decode, called on the very globals the root broadcast (parity
    // makes them bit-identical to the reference's), each in a span.
    let downlink = Downlink::new(DownlinkMode::Compressed, configs[0].compression);
    let (mut encode_s, mut decode_s, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for global in &references[0].globals[..SESSION_ROUNDS] {
        let span = telemetry.span("downlink.encode");
        let t0 = Instant::now();
        let payload = downlink.encode(global, None, CLIENTS);
        encode_s.push(t0.elapsed().as_secs_f64());
        drop(span);
        let span = telemetry.span("downlink.decode");
        let t1 = Instant::now();
        let decoded = downlink.decode(&payload.bytes, payload.compressed);
        decode_s.push(t1.elapsed().as_secs_f64());
        drop(span);
        out.tally.record(decoded.is_ok() && payload.compressed);
        ratios.push(payload.ratio());
    }
    let counters = parse_counters(&telemetry.render_prometheus());
    telemetry.flush();
    let trace = Trace::load(&path).expect("read back the socket-round trace");

    let rounds = traced.rounds().count() as f64;
    let (table, rows) = round_table(&trace, "serve.round", &["serve.barrier"]);
    let span_mean = |name: &str| {
        let durs: Vec<f64> = trace.named(name).map(|s| s.dur as f64 / 1e6).collect();
        mean(&durs)
    };
    let counter = |key: &str| counters.get(key).copied().unwrap_or(0.0);
    let mut layers = Layers::new();
    layers.insert("serve.round_s", rows.iter().map(|r| r.0).sum::<f64>() / rows.len() as f64);
    layers.insert(
        "serve.barrier_wait_s",
        rows.iter().map(|r| r.1[0]).sum::<f64>() / rows.len() as f64,
    );
    layers.insert("serve.self_s", rows.iter().map(|r| r.2).sum::<f64>() / rows.len() as f64);
    let cycle_s = mean(&traced.cycle_secs);
    layers.insert("serve.outside_round_s", cycle_s - layers["serve.round_s"]);
    layers.insert("worker.round_s", span_mean("worker.round"));
    layers
        .insert("net.frame_bytes_in", counter("fedsz_net_frame_bytes_total{dir=\"in\"}") / rounds);
    layers.insert(
        "net.frame_bytes_out",
        counter("fedsz_net_frame_bytes_total{dir=\"out\"}") / rounds,
    );
    layers.insert("net.evictions", counter("fedsz_net_evictions_total"));
    layers.insert("net.reconnects", counter("fedsz_net_reconnects_total"));
    layers.insert("downlink.encode_s", mean(&encode_s));
    layers.insert("downlink.decode_s", mean(&decode_s));
    layers.insert("downlink.ratio", mean(&ratios));
    layers.insert(
        "nn.final_accuracy",
        mean(&references.iter().map(|r| r.final_accuracy).collect::<Vec<_>>()),
    );
    layers.insert("telemetry.overhead", overhead(&base.cycle_secs, &traced.cycle_secs));
    emit_layers(&mut out, &layers);
    out.trace_table = format!(
        "{}{table}  per-round cycle {cycle_s:.6} s = serve.round {:.6} \
         (barrier {:.6} + self {:.6}) + outside rounds {:.6} \
         (broadcast encode; accept, handshake and teardown spread over {SESSION_ROUNDS} rounds)\n",
        span_table(&trace),
        layers["serve.round_s"],
        layers["serve.barrier_wait_s"],
        layers["serve.self_s"],
        layers["serve.outside_round_s"],
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(wall_secs: f64) -> NetRound {
        NetRound {
            round: 0,
            downstream_bytes: 0,
            upstream_bytes: 0,
            merged: CLIENTS,
            evicted: 0,
            reconnects: 0,
            reparented: 0,
            wall_secs,
            checksum: 0,
        }
    }

    #[test]
    fn cycles_spread_the_time_outside_rounds_and_sum_to_the_session() {
        let cycles = cycle_secs(&[round(0.25), round(0.5)], 1.0);
        assert_eq!(cycles, vec![0.375, 0.625]);
        assert_eq!(cycles.iter().sum::<f64>(), 1.0);
    }
}
