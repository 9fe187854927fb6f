//! `codec-fullsize`: FedSZ at the paper's operating point on the
//! paper's three full-size models.
//!
//! `FedSz::compress` then `FedSz::decompress` on AlexNet (244 MB),
//! ResNet50 (102 MB) and MobileNetV2 (14 MB), in whole passes over the
//! three. `core`, `lossy` (SZ2) and `lossless` (blosc-lz) do all the
//! work; `nn`, `fl::agg` and `net` do none. AlexNet is larger than a
//! 105 MB last-level cache and MobileNetV2 far smaller, so cache
//! effects show between them. A "round" here is one whole pass: each
//! model's encode plus decode (Eqn 1's `t_C + t_D`), so every round
//! does the same work whatever the number of passes a run fits.

use crate::report::Outcome;
use crate::stats::{mean, median, Tally};
use crate::trace::Trace;
use crate::{emit_layers, overhead, span_table, timed_setup, Ctx, EndToEnd, Layers};
use fedsz::timing::TransferPlan;
use fedsz::{partition, ErrorBound, FedSz, FedSzConfig};
use fedsz_nn::models::specs::ModelSpec;
use fedsz_nn::StateDict;
use fedsz_telemetry::Telemetry;
use std::time::Instant;

/// One update through the codec.
struct Op {
    raw_bytes: usize,
    compressed_bytes: usize,
    encode_s: f64,
    decode_s: f64,
    lossy_fraction: f64,
    /// Largest lossy error over its absolute bound, across tensors.
    max_err_over_bound: f64,
    /// The pipeline's children on the same dict, timed right after
    /// each `FedSz` call (traced runs only).
    children: Option<Children>,
}

/// Relative slack on the lossy bound. SZ2 quantizes against the bound
/// in `f64` but stores its reconstruction as `f32`, whose rounding can
/// overshoot by about one `f32` ulp (a ~1e-8 share of the bound seen on
/// ResNet50); the workspace's own bound test uses the same 1e-5.
const BOUND_SLACK: f64 = 1e-5;

/// Checks a decoded dict against its original: every lossy tensor
/// within its REL bound (up to [`BOUND_SLACK`]), every other tensor
/// bit-exact. Returns the worst lossy error as a share of its bound,
/// or `None` on a failure.
fn check(original: &StateDict, decoded: &StateDict, config: &FedSzConfig) -> Option<f64> {
    if decoded.len() != original.len() {
        return None;
    }
    let mut worst = 0.0f64;
    for (name, tensor) in original.iter() {
        let back = decoded.get(name)?;
        if back.shape() != tensor.shape() {
            return None;
        }
        if partition::is_lossy(name, tensor.len(), config.threshold) {
            let bound = config.error_bound.absolute_for(tensor.data())?;
            let err = tensor
                .data()
                .iter()
                .zip(back.data())
                .map(|(a, b)| (f64::from(*a) - f64::from(*b)).abs())
                .fold(0.0, f64::max);
            if err > bound * (1.0 + BOUND_SLACK) {
                return None;
            }
            worst = worst.max(err / bound);
        } else if tensor.data().iter().zip(back.data()).any(|(a, b)| a.to_bits() != b.to_bits()) {
            return None;
        }
    }
    Some(worst)
}

/// Replaces non-finite weights with 0 and returns how many there were.
///
/// `ModelSpec::instantiate` can emit them: its Laplace sampler
/// (`fedsz_tensor::rng::laplace`) takes `ln(0)` when the uniform draw
/// is exactly 0, about once in 2^24 Laplace draws, so roughly one seed
/// in four gives AlexNet an infinite weight. FedSZ rightly rejects
/// non-finite input, so such a dict is not a model update at all; the
/// count is reported with every run so the generator defect stays
/// visible.
fn zero_nonfinite(dict: &mut StateDict) -> usize {
    let mut zeroed = 0;
    for (_, tensor) in dict.iter_mut() {
        for v in tensor.data_mut().iter_mut().filter(|v| !v.is_finite()) {
            *v = 0.0;
            zeroed += 1;
        }
    }
    zeroed
}

/// Whole passes over `models` until `seconds` have passed; returns
/// every update and each pass's seconds inside `FedSz`. With
/// `children`, each `FedSz::compress` is followed by [`Children`]'
/// compress calls on the same dict, and each `FedSz::decompress` by
/// their decompress calls, so every update carries its own self time.
fn run_phase(
    fedsz: &FedSz,
    models: &[StateDict],
    seconds: f64,
    telemetry: &Telemetry,
    children: bool,
    tally: &mut Tally,
) -> (Vec<Op>, Vec<f64>) {
    let mut ops = Vec::new();
    let mut pass_secs = Vec::new();
    let start = Instant::now();
    while pass_secs.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let mut pass_s = 0.0;
        for dict in models {
            let span = telemetry.span("core.encode");
            let t0 = Instant::now();
            let compressed = fedsz.compress(dict);
            let encode_s = t0.elapsed().as_secs_f64();
            drop(span);
            pass_s += encode_s;
            let Ok(compressed) = compressed else {
                tally.record(false);
                continue;
            };
            let mut child = children.then(Children::default);
            let streams = child.as_mut().map(|c| c.compress(fedsz.config(), dict, telemetry));
            let span = telemetry.span("core.decode");
            let t1 = Instant::now();
            let decoded = fedsz.decompress(compressed.bytes());
            let decode_s = t1.elapsed().as_secs_f64();
            drop(span);
            pass_s += decode_s;
            if let (Some(c), Some(streams)) = (child.as_mut(), streams) {
                c.decompress(fedsz.config(), streams, telemetry);
            }
            let verdict = decoded.ok().and_then(|d| check(dict, &d, fedsz.config()));
            tally.record(verdict.is_some());
            let stats = compressed.stats();
            ops.push(Op {
                raw_bytes: stats.original_bytes,
                compressed_bytes: stats.compressed_bytes,
                encode_s,
                decode_s,
                lossy_fraction: stats.lossy_fraction(),
                max_err_over_bound: verdict.unwrap_or(f64::INFINITY),
                children: child,
            });
        }
        pass_secs.push(pass_s);
    }
    (ops, pass_secs)
}

/// One update's seconds in the pipeline's children, timed by calling
/// the same lossy and lossless codecs on the same inputs the way
/// `FedSz::compress`/`decompress` do, each call in its own span.
#[derive(Default)]
struct Children {
    lossy_compress_s: f64,
    lossy_decompress_s: f64,
    lossy_raw: usize,
    lossy_packed: usize,
    lossless_compress_s: f64,
    lossless_decompress_s: f64,
    lossless_raw: usize,
    lossless_packed: usize,
}

/// What [`Children::compress`] produced, for [`Children::decompress`].
struct Streams {
    lossy: Vec<Vec<u8>>,
    blob: Vec<u8>,
    packed: Vec<u8>,
}

impl Children {
    fn compress(
        &mut self,
        config: &FedSzConfig,
        dict: &StateDict,
        telemetry: &Telemetry,
    ) -> Streams {
        let lossy = config.lossy.codec();
        let mut streams = Streams { lossy: Vec::new(), blob: Vec::new(), packed: Vec::new() };
        for (name, tensor) in dict.iter() {
            if partition::is_lossy(name, tensor.len(), config.threshold) {
                let span = telemetry.span("lossy.sz2.compress");
                let t0 = Instant::now();
                let stream = lossy.compress(tensor.data(), config.error_bound).expect("finite");
                self.lossy_compress_s += t0.elapsed().as_secs_f64();
                drop(span);
                self.lossy_raw += tensor.len() * 4;
                self.lossy_packed += stream.len();
                streams.lossy.push(stream);
            } else {
                streams.blob.extend(tensor.data().iter().flat_map(|v| v.to_le_bytes()));
            }
        }
        let span = telemetry.span("lossless.blosclz.compress");
        let t0 = Instant::now();
        streams.packed = config.lossless.codec().compress(&streams.blob);
        self.lossless_compress_s += t0.elapsed().as_secs_f64();
        drop(span);
        self.lossless_raw += streams.blob.len();
        self.lossless_packed += streams.packed.len();
        streams
    }

    fn decompress(&mut self, config: &FedSzConfig, streams: Streams, telemetry: &Telemetry) {
        let lossy = config.lossy.codec();
        for stream in &streams.lossy {
            let span = telemetry.span("lossy.sz2.decompress");
            let t0 = Instant::now();
            let back = lossy.decompress(stream).expect("self-produced stream");
            self.lossy_decompress_s += t0.elapsed().as_secs_f64();
            drop(span);
            std::hint::black_box(back);
        }
        let span = telemetry.span("lossless.blosclz.decompress");
        let t0 = Instant::now();
        let back =
            config.lossless.codec().decompress(&streams.packed).expect("self-produced frame");
        self.lossless_decompress_s += t0.elapsed().as_secs_f64();
        drop(span);
        assert_eq!(back, streams.blob, "lossless codec must round-trip");
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let config = FedSzConfig::recommended();
    assert_eq!(config.error_bound, ErrorBound::Relative(1e-2), "the paper's operating point");
    let fedsz = FedSz::new(config);
    let specs = [ModelSpec::alexnet(), ModelSpec::resnet50(), ModelSpec::mobilenet_v2()];
    let ((models, zeroed), setup_s) = timed_setup(|| {
        let mut models: Vec<StateDict> = specs.iter().map(|s| s.instantiate(ctx.seed)).collect();
        let zeroed: usize = models.iter_mut().map(zero_nonfinite).sum();
        (models, zeroed)
    });
    out.fact("models", "alexnet, resnet50, mobilenet_v2");
    out.fact("nonfinite_weights_zeroed", zeroed);
    if zeroed > 0 {
        eprintln!(
            "warning: ModelSpec::instantiate({}) produced {zeroed} non-finite weight(s); zeroed",
            ctx.seed
        );
    }
    out.fact("pool_widths", "codec runs on the calling thread (width 1)");
    out.fact("working_set_bytes", models.iter().map(StateDict::byte_size).sum::<usize>());

    let (base, base_passes) = run_phase(
        &fedsz,
        &models,
        ctx.phase_seconds(),
        &Telemetry::disabled(),
        false,
        &mut out.tally,
    );
    if !ctx.trace {
        let raw: usize = base.iter().map(|o| o.raw_bytes).sum();
        let packed: usize = base.iter().map(|o| o.compressed_bytes).sum();
        EndToEnd {
            setup_s,
            round_secs: &base_passes,
            updates: base.len() as f64,
            compression_ratio: raw as f64 / packed as f64,
            uplink_bytes_per_round: packed as f64 / base.len() as f64,
        }
        .emit(&mut out);
        return out;
    }

    let (telemetry, path) = ctx.trace_handle("codec-fullsize");
    let (traced, traced_passes) =
        run_phase(&fedsz, &models, ctx.phase_seconds(), &telemetry, true, &mut out.tally);
    telemetry.flush();
    let trace = Trace::load(&path).expect("read back the codec-fullsize trace");

    // Per-update means over whole passes. Every traced update carries
    // its own children, so its self time is its own call minus them.
    let n = traced.len() as f64;
    out.fact("core_self_samples", format!("{} updates", traced.len()));
    let child = |f: fn(&Children) -> f64| {
        traced.iter().filter_map(|o| o.children.as_ref()).map(f).sum::<f64>() / n
    };
    let child_bytes = |f: fn(&Children) -> usize| {
        traced.iter().filter_map(|o| o.children.as_ref()).map(f).sum::<usize>()
    };
    let encode_s = traced.iter().map(|o| o.encode_s).sum::<f64>() / n;
    let decode_s = traced.iter().map(|o| o.decode_s).sum::<f64>() / n;
    let raw: usize = traced.iter().map(|o| o.raw_bytes).sum();
    let packed: usize = traced.iter().map(|o| o.compressed_bytes).sum();
    let mut layers = Layers::new();
    layers.insert("core.encode_s", encode_s);
    layers.insert("core.decode_s", decode_s);
    layers.insert(
        "core.encode_self_s",
        encode_s - child(|c| c.lossy_compress_s + c.lossless_compress_s),
    );
    layers.insert(
        "core.decode_self_s",
        decode_s - child(|c| c.lossy_decompress_s + c.lossless_decompress_s),
    );
    layers.insert(
        "core.lossy_fraction",
        mean(&traced.iter().map(|o| o.lossy_fraction).collect::<Vec<_>>()),
    );
    let total_encode: f64 = traced.iter().map(|o| o.encode_s).sum();
    let total_decode: f64 = traced.iter().map(|o| o.decode_s).sum();
    layers.insert("core.encode_mb_s", raw as f64 / 1e6 / total_encode);
    layers.insert("core.decode_mb_s", raw as f64 / 1e6 / total_decode);
    layers.insert(
        "core.breakeven_mbps",
        TransferPlan {
            compress_secs: total_encode,
            decompress_secs: total_decode,
            original_bytes: raw,
            compressed_bytes: packed,
        }
        .breakeven_bandwidth()
            / 1e6,
    );
    layers.insert("lossy.sz2.compress_s", child(|c| c.lossy_compress_s));
    layers.insert("lossy.sz2.decompress_s", child(|c| c.lossy_decompress_s));
    layers.insert(
        "lossy.sz2.ratio",
        child_bytes(|c| c.lossy_raw) as f64 / child_bytes(|c| c.lossy_packed) as f64,
    );
    layers.insert(
        "lossy.max_err_over_bound",
        traced.iter().map(|o| o.max_err_over_bound).fold(0.0, f64::max),
    );
    layers.insert("lossless.blosclz.compress_s", child(|c| c.lossless_compress_s));
    layers.insert("lossless.blosclz.decompress_s", child(|c| c.lossless_decompress_s));
    layers.insert(
        "lossless.blosclz.ratio",
        child_bytes(|c| c.lossless_raw) as f64 / child_bytes(|c| c.lossless_packed).max(1) as f64,
    );
    layers.insert("telemetry.overhead", overhead(&base_passes, &traced_passes));
    emit_layers(&mut out, &layers);
    out.trace_table = format!(
        "{}  per-update encode {:.6} s = lossy {:.6} + lossless {:.6} + self {:.6}\n  \
         per-update decode {:.6} s = lossy {:.6} + lossless {:.6} + self {:.6}\n  \
         self times averaged over {} updates, each minus its own children; \
         median pass {:.6} s\n",
        span_table(&trace),
        encode_s,
        layers["lossy.sz2.compress_s"],
        layers["lossless.blosclz.compress_s"],
        layers["core.encode_self_s"],
        decode_s,
        layers["lossy.sz2.decompress_s"],
        layers["lossless.blosclz.decompress_s"],
        layers["core.decode_self_s"],
        traced.len(),
        median(&traced_passes),
    );
    out
}
