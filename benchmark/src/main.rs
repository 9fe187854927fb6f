//! The repository benchmark: four closed-loop workloads over the
//! public entry points of the FedSZ crates, each printing every
//! end-to-end metric (untraced run) or every per-layer metric (traced
//! run), checking its outputs, and ending stdout with one JSON result
//! line. See `README.md` in this directory for the workloads, the
//! metrics and the layer → metric → workload map.
//!
//! Usage (from the repository root, after a release build):
//! `fedsz-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! [--scratch DIR]`.

mod agg;
mod codec;
mod report;
mod sim;
mod socket;
mod stats;
mod trace;

use fedsz_telemetry::Telemetry;
use report::Outcome;
use stats::median;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// End-to-end metrics: every run with `--trace 0` prints all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("round_s_p50", "s"),
    ("round_s_tail", "s"),
    ("updates_per_s", "1/s"),
    ("compression_ratio", "x"),
    ("uplink_bytes_per_round", "bytes"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: every run with `--trace 1` prints all of them.
/// A layer a workload does not run reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("nn.train_s", "s"),
    ("nn.final_accuracy", "fraction"),
    ("engine.broadcast_s", "s"),
    ("engine.train_s", "s"),
    ("engine.comm_s", "s"),
    ("engine.decode_s", "s"),
    ("engine.merge_s", "s"),
    ("engine.validate_s", "s"),
    ("engine.round_self_s", "s"),
    ("core.encode_s", "s"),
    ("core.decode_s", "s"),
    ("core.encode_self_s", "s"),
    ("core.decode_self_s", "s"),
    ("core.lossy_fraction", "fraction"),
    ("core.encode_mb_s", "MB/s"),
    ("core.decode_mb_s", "MB/s"),
    ("core.breakeven_mbps", "Mbit/s"),
    ("lossy.sz2.compress_s", "s"),
    ("lossy.sz2.decompress_s", "s"),
    ("lossy.sz2.ratio", "x"),
    ("lossy.max_err_over_bound", "x"),
    ("lossless.blosclz.compress_s", "s"),
    ("lossless.blosclz.decompress_s", "s"),
    ("lossless.blosclz.ratio", "x"),
    ("lossless.psum.compress_s", "s"),
    ("lossless.psum.ratio", "x"),
    ("agg.leaf_accumulate_s", "s"),
    ("agg.level_merge_s.l0", "s"),
    ("agg.level_merge_s.l1", "s"),
    ("agg.psum_frame_s", "s"),
    ("agg.pool_busy_s", "s"),
    ("agg.pool_idle_share", "fraction"),
    ("agg.round_self_s", "s"),
    ("downlink.encode_s", "s"),
    ("downlink.decode_s", "s"),
    ("downlink.ratio", "x"),
    ("serve.round_s", "s"),
    ("serve.barrier_wait_s", "s"),
    ("serve.self_s", "s"),
    ("serve.outside_round_s", "s"),
    ("worker.round_s", "s"),
    ("net.frame_bytes_in", "bytes"),
    ("net.frame_bytes_out", "bytes"),
    ("net.evictions", "count"),
    ("net.reconnects", "count"),
    ("link.comm_virtual_s", "s"),
    ("telemetry.overhead", "fraction"),
];

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["sim-paper", "codec-fullsize", "agg-stream", "socket-round"];

/// Each workload builds its fixture at least this many times, and
/// until the builds add up to [`SETUP_MIN_SECS`]; `setup_s` is the
/// median, so one slow build cannot move it.
const SETUP_REPS: usize = 3;
const SETUP_MIN_SECS: f64 = 1.0;

/// One run's parameters.
pub struct Ctx {
    /// Workload seed: every input is generated from it.
    pub seed: u64,
    /// Measurement window in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Directory for trace files and reports.
    pub scratch: PathBuf,
}

impl Ctx {
    /// A trace-writing telemetry handle for `workload`, and its path.
    pub fn trace_handle(&self, workload: &str) -> (Telemetry, PathBuf) {
        let path = self.scratch.join(format!("trace-{workload}-{}.jsonl", self.seed));
        let telemetry = Telemetry::with_trace(&path).expect("create trace file under --scratch");
        (telemetry, path)
    }

    /// The window each phase of a traced run gets: half untraced (the
    /// overhead baseline), half traced.
    pub fn phase_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// Builds a workload fixture [`SETUP_REPS`] times or more (see
/// [`SETUP_MIN_SECS`]), dropping each before the next so memory stays
/// one fixture deep; keeps the last and returns the median build time.
pub fn timed_setup<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    while secs.len() < SETUP_REPS || secs.iter().sum::<f64>() < SETUP_MIN_SECS {
        drop(kept.take());
        let t0 = Instant::now();
        kept = Some(build());
        secs.push(t0.elapsed().as_secs_f64());
    }
    (kept.expect("SETUP_REPS > 0"), median(&secs))
}

/// The end-to-end numbers every workload reports, in its own terms.
pub struct EndToEnd<'a> {
    /// Median fixture build time.
    pub setup_s: f64,
    /// Wall seconds of every timed round (or codec operation).
    pub round_secs: &'a [f64],
    /// Client updates merged (or encoded and decoded) in those rounds.
    pub updates: f64,
    /// Raw over compressed bytes.
    pub compression_ratio: f64,
    /// Bytes arriving at the root (or leaving the encoder) per round.
    pub uplink_bytes_per_round: f64,
}

impl EndToEnd<'_> {
    /// Appends every [`END_TO_END`] metric to `out`.
    pub fn emit(&self, out: &mut Outcome) {
        let tail = stats::tail(self.round_secs);
        out.fact("rounds_timed", self.round_secs.len());
        out.fact("round_s_tail_percentile", format!("p{:.1} of {}", tail.percentile, tail.samples));
        out.metric("setup_s", self.setup_s, "s");
        out.metric("round_s_p50", median(self.round_secs), "s");
        out.metric("round_s_tail", tail.value, "s");
        out.metric("updates_per_s", self.updates / self.round_secs.iter().sum::<f64>(), "1/s");
        out.metric("compression_ratio", self.compression_ratio, "x");
        out.metric("uplink_bytes_per_round", self.uplink_bytes_per_round, "bytes");
        out.metric("peak_rss_mb", report::peak_rss_mb(), "MB");
    }
}

/// Per-layer values a traced workload measured; [`emit_layers`] fills
/// the layers it did not run with 0.
pub type Layers = BTreeMap<&'static str, f64>;

/// Appends every [`PER_LAYER`] metric to `out`, in list order.
///
/// # Panics
///
/// Panics when `layers` names a metric missing from [`PER_LAYER`] —
/// a harness bug, not a measurement.
pub fn emit_layers(out: &mut Outcome, layers: &Layers) {
    for name in layers.keys() {
        assert!(PER_LAYER.iter().any(|(n, _)| n == name), "unlisted per-layer metric {name}");
    }
    for &(name, unit) in PER_LAYER {
        out.metric(name, layers.get(name).copied().unwrap_or(0.0), unit);
    }
}

/// `traced / untraced − 1` over the median round of each phase.
pub fn overhead(untraced: &[f64], traced: &[f64]) -> f64 {
    median(traced) / median(untraced) - 1.0
}

/// The per-name span table every traced run prints: sample count,
/// total and self seconds.
pub fn span_table(trace: &trace::Trace) -> String {
    let mut out = format!(
        "  trace spans:\n  {:<26} {:>7} {:>12} {:>12}\n",
        "span", "count", "total_s", "self_s"
    );
    for (name, s) in trace.summary() {
        out.push_str(&format!(
            "  {name:<26} {:>7} {:>12.6} {:>12.6}\n",
            s.count, s.total_s, s.self_s
        ));
    }
    out
}

/// For every `round` span: its duration, each direct stage's duration
/// and the unaccounted remainder (the round's self time). Returns the
/// printable table and the per-round `(round, stages, remainder)`
/// seconds so callers can assert that they add up.
pub fn round_table(
    trace: &trace::Trace,
    round: &str,
    stages: &[&str],
) -> (String, Vec<(f64, Vec<f64>, f64)>) {
    let mut out = format!("  per-{round} breakdown (s): round");
    for s in stages {
        out.push_str(&format!(" | {s}"));
    }
    out.push_str(" | remainder\n");
    let mut rows = Vec::new();
    for span in trace.named(round) {
        let per_stage: Vec<f64> = stages
            .iter()
            .map(|stage| {
                trace.children_of(span).filter(|c| c.name == *stage).map(|c| c.dur).sum::<u64>()
                    as f64
                    / 1e6
            })
            .collect();
        let remainder = trace.self_micros(span) as f64 / 1e6;
        let total = span.dur as f64 / 1e6;
        out.push_str(&format!("  {total:.6}"));
        for v in &per_stage {
            out.push_str(&format!(" | {v:.6}"));
        }
        out.push_str(&format!(" | {remainder:.6}\n"));
        rows.push((total, per_stage, remainder));
    }
    let worst_gap = rows
        .iter()
        .map(|(total, stages, remainder)| (stages.iter().sum::<f64>() + remainder - total).abs())
        .fold(0.0, f64::max);
    out.push_str(&format!(
        "  stages + remainder vs round: max |gap| {worst_gap:.6} s over {} rounds\n",
        rows.len()
    ));
    (out, rows)
}

/// The run facts every report carries.
fn run_facts(out: &mut Outcome, ctx: &Ctx, workload: &str) {
    let mut facts = vec![
        ("workload".to_string(), workload.to_string()),
        ("seed".to_string(), ctx.seed.to_string()),
        ("seconds".to_string(), ctx.seconds.to_string()),
        ("traced".to_string(), ctx.trace.to_string()),
        (
            "nproc".to_string(),
            std::thread::available_parallelism().map_or(1, usize::from).to_string(),
        ),
        ("l3_cache".to_string(), report::l3_size()),
        ("build_profile".to_string(), "release".to_string()),
    ];
    facts.append(&mut out.facts);
    out.facts = facts;
}

fn parse_args() -> Result<(String, Ctx), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scratch = PathBuf::from(".bench_build/perfbench");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other}")),
                })
            }
            "--scratch" => scratch = PathBuf::from(value()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; expected one of {WORKLOADS:?}"));
    }
    let ctx = Ctx {
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scratch,
    };
    Ok((workload, ctx))
}

fn write_report(dir: &Path, workload: &str, ctx: &Ctx, outcome: &Outcome) {
    let path = dir.join(format!("report-{workload}-{}-trace{}.txt", ctx.seed, u8::from(ctx.trace)));
    let body = format!("{}\n{}\n", outcome.human(workload), outcome.result_line());
    if let Err(e) = std::fs::write(&path, body) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

fn main() -> ExitCode {
    // Timings from an unoptimized build say nothing about the code
    // (a debug build runs the codecs an order of magnitude slower).
    if cfg!(debug_assertions) {
        eprintln!("error: refusing to run a debug build; build with --release");
        return ExitCode::from(2);
    }
    let (workload, ctx) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.scratch) {
        eprintln!("error: cannot create {}: {e}", ctx.scratch.display());
        return ExitCode::from(2);
    }
    let mut outcome = match workload.as_str() {
        "sim-paper" => sim::run(&ctx),
        "codec-fullsize" => codec::run(&ctx),
        "agg-stream" => agg::run(&ctx),
        "socket-round" => socket::run(&ctx),
        _ => unreachable!("parse_args validated the workload"),
    };
    run_facts(&mut outcome, &ctx, &workload);
    eprint!("{}", outcome.human(&workload));
    write_report(&ctx.scratch, &workload, &ctx, &outcome);
    println!("{}", outcome.result_line());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: {workload} failed its output checks");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedsz_telemetry::json::{self, Json};

    /// `BENCHMARK.json` and the harness must name the same workloads
    /// and metrics with the same units.
    #[test]
    fn benchmark_json_matches_the_harness() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        let spec = json::parse(&text).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(names("end_to_end"), own(END_TO_END));
        assert_eq!(names("per_layer"), own(PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn every_layer_is_emitted_once_in_order() {
        let mut out = Outcome::default();
        let mut layers = Layers::new();
        layers.insert("serve.round_s", 0.25);
        emit_layers(&mut out, &layers);
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
        let listed: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, listed);
        assert_eq!(out.metrics.iter().find(|m| m.name == "serve.round_s").unwrap().value, 0.25);
    }

    #[test]
    #[should_panic(expected = "unlisted per-layer metric")]
    fn unlisted_layers_are_a_bug() {
        let mut layers = Layers::new();
        layers.insert("not.a.metric", 1.0);
        emit_layers(&mut Outcome::default(), &layers);
    }

    #[test]
    fn stages_plus_remainder_add_up_to_the_round() {
        let text = [
            r#"{"name":"engine.train","ph":"X","ts":10,"dur":40,"pid":1,"tid":1,"args":{}}"#,
            r#"{"name":"engine.merge","ph":"X","ts":60,"dur":15,"pid":1,"tid":1,"args":{}}"#,
            r#"{"name":"engine.round","ph":"X","ts":0,"dur":100,"pid":1,"tid":1,"args":{}}"#,
        ]
        .join("\n");
        let trace = trace::Trace::parse(&text).unwrap();
        let (_, rows) = round_table(&trace, "engine.round", &["engine.train", "engine.merge"]);
        assert_eq!(rows.len(), 1);
        let (total, stages, remainder) = &rows[0];
        assert_eq!(stages, &vec![40e-6, 15e-6]);
        assert!((stages.iter().sum::<f64>() + remainder - total).abs() < 1e-12);
    }
}
