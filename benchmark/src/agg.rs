//! `agg-stream`: the aggregation tree under a large cohort.
//!
//! A depth-3 `ShardedTree` (`4x4`, 16 leaves) with lossless partial-sum
//! frames and a pinned pool width of 2 merges a cohort of 1024 client
//! updates per round through `aggregate_streamed_with`. Every client
//! has its own tiny-AlexNet state dict, built during set-up (about
//! 300 MB in all, more than the last-level cache), so no update is
//! generated inside the timed merge and none is served warm from a
//! small pool. `fl::agg` (the `ExactAcc` kernel, the worker pool, the
//! level merges) and `lossless::psum` do the work; `nn` and `lossy` do
//! none.

use crate::report::Outcome;
use crate::stats::{median, Tally};
use crate::trace::{parse_counters, Trace};
use crate::{emit_layers, overhead, round_table, span_table, timed_setup, Ctx, EndToEnd, Layers};
use fedsz_fl::agg::{AggOutcome, PartialSum, PsumMode, ShardedTree, TreePlan};
use fedsz_lossless::PsumCodec;
use fedsz_nn::models::tiny::TinyArch;
use fedsz_nn::{Model, StateDict};
use fedsz_telemetry::Telemetry;
use std::time::Instant;

const COHORT: usize = 1024;
const FANOUTS: [usize; 2] = [4, 4];
const THREADS: usize = 2;

struct Fixture {
    /// `updates[c]` is client `c`'s update.
    updates: Vec<StateDict>,
    /// The serial flat reference: every cohort update folded into one
    /// `PartialSum` in client order, serialized.
    reference: Vec<u8>,
    /// One leaf's partial-sum payload, for the psum codec probe.
    leaf_payload: Vec<u8>,
}

/// The streaming fill: lends client `c`'s update.
fn fill<'a>(client: usize, updates: &'a mut &[StateDict]) -> (&'a StateDict, f64) {
    (&updates[client], 1.0)
}

fn build(seed: u64) -> Fixture {
    let updates: Vec<StateDict> = (0..COHORT as u64)
        .map(|i| {
            let model_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i);
            TinyArch::AlexNet.build(model_seed, 3, 16, 10).state_dict()
        })
        .collect();
    let mut flat = PartialSum::new();
    for update in &updates {
        flat.accumulate(update, 1.0);
    }
    let reference = flat.finish().expect("non-empty cohort").to_bytes();
    let plan = TreePlan::new(COHORT, FANOUTS.to_vec());
    let mut leaf = PartialSum::new();
    for client in plan.leaf_range(0) {
        leaf.accumulate(&updates[client], 1.0);
    }
    Fixture { updates, reference, leaf_payload: leaf.encode_payload() }
}

fn tree() -> ShardedTree {
    ShardedTree::new(TreePlan::new(COHORT, FANOUTS.to_vec()), None, PsumMode::Lossless)
        .with_threads(THREADS)
}

struct Phase {
    round_secs: Vec<f64>,
    outcomes: Vec<AggOutcome>,
}

fn run_phase(
    tree: &mut ShardedTree,
    fixture: &Fixture,
    seconds: f64,
    telemetry: &Telemetry,
    tally: &mut Tally,
) -> Phase {
    let mut phase = Phase { round_secs: Vec::new(), outcomes: Vec::new() };
    let updates: &[StateDict] = &fixture.updates;
    let start = Instant::now();
    let mut round = 0;
    while phase.round_secs.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let span = telemetry.span("agg.round");
        let t0 = Instant::now();
        let outcome = tree.aggregate_streamed_with(round, || updates, fill);
        phase.round_secs.push(t0.elapsed().as_secs_f64());
        drop(span);
        match outcome {
            Some(mut o) => {
                let global = std::mem::take(&mut o.global);
                tally.record(o.merged == COHORT && global.to_bytes() == fixture.reference);
                phase.outcomes.push(o);
            }
            None => tally.record(false),
        }
        round += 1;
    }
    phase
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let (fixture, setup_s) = timed_setup(|| build(ctx.seed));
    let mut tree = tree();
    let model_bytes = fixture.updates[0].byte_size();
    out.fact("cohort", COHORT);
    out.fact("tree", format!("{FANOUTS:?} fan-outs, depth 3, lossless psum"));
    out.fact("pool_widths", format!("ShardedTree::with_threads({THREADS})"));
    // Every client's update plus one exact accumulator (16
    // bytes/element) per leaf and inner node.
    let nodes = 1 + FANOUTS[0] + FANOUTS[0] * FANOUTS[1];
    out.fact("working_set_bytes", COHORT * model_bytes + nodes * model_bytes / 4 * 16);

    let base =
        run_phase(&mut tree, &fixture, ctx.phase_seconds(), &Telemetry::disabled(), &mut out.tally);
    if !ctx.trace {
        EndToEnd {
            setup_s,
            round_secs: &base.round_secs,
            updates: base.outcomes.iter().map(|o| o.merged as f64).sum(),
            compression_ratio: median(
                &base.outcomes.iter().map(AggOutcome::psum_ratio).collect::<Vec<_>>(),
            ),
            uplink_bytes_per_round: median(
                &base.outcomes.iter().map(|o| o.root_ingress_bytes as f64).collect::<Vec<_>>(),
            ),
        }
        .emit(&mut out);
        return out;
    }

    let (telemetry, path) = ctx.trace_handle("agg-stream");
    let mut traced_tree = tree.with_telemetry(telemetry.clone());
    let traced =
        run_phase(&mut traced_tree, &fixture, ctx.phase_seconds(), &telemetry, &mut out.tally);
    // The psum codec probe: the same call the tree makes per frame,
    // on a real leaf payload, in its own span.
    let codec = PsumCodec::new();
    let mut packed = Vec::new();
    let mut probe_secs = Vec::new();
    for _ in 0..5 {
        let span = telemetry.span("lossless.psum.compress");
        let t0 = Instant::now();
        codec.compress_into(&fixture.leaf_payload, &mut packed);
        probe_secs.push(t0.elapsed().as_secs_f64());
        drop(span);
    }
    let counters = parse_counters(&telemetry.render_prometheus());
    telemetry.flush();
    let trace = Trace::load(&path).expect("read back the agg-stream trace");

    let rounds = traced.outcomes.len() as f64;
    let per_round =
        |f: &dyn Fn(&AggOutcome) -> f64| traced.outcomes.iter().map(f).sum::<f64>() / rounds;
    let level = |i: usize| move |o: &AggOutcome| o.level_merge_nanos[i] as f64 / 1e9;
    let (table, rows) = round_table(&trace, "agg.round", &["merge.level"]);
    let busy = counters.get("fedsz_pool_busy_seconds_total").copied().unwrap_or(0.0);
    let idle = counters.get("fedsz_pool_idle_seconds_total").copied().unwrap_or(0.0);
    let mut layers = Layers::new();
    layers.insert("agg.leaf_accumulate_s", per_round(&level(FANOUTS.len())));
    layers.insert("agg.level_merge_s.l0", per_round(&level(0)));
    layers.insert("agg.level_merge_s.l1", per_round(&level(1)));
    layers.insert(
        "agg.psum_frame_s",
        trace.codec_secs_by_leg.get("psum").map_or(0.0, |v| v.iter().sum::<f64>()) / rounds,
    );
    layers.insert("agg.pool_busy_s", busy / rounds);
    layers.insert("agg.pool_idle_share", idle / (busy + idle));
    layers.insert("agg.round_self_s", rows.iter().map(|r| r.2).sum::<f64>() / rows.len() as f64);
    layers.insert("lossless.psum.compress_s", median(&probe_secs));
    layers.insert("lossless.psum.ratio", per_round(&AggOutcome::psum_ratio));
    layers.insert("telemetry.overhead", overhead(&base.round_secs, &traced.round_secs));
    emit_layers(&mut out, &layers);
    out.trace_table = format!(
        "{}{table}  psum frame: {} B payload -> {} B, {:.6} s per compress\n",
        span_table(&trace),
        fixture.leaf_payload.len(),
        packed.len(),
        median(&probe_secs),
    );
    out
}
