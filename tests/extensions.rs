//! Integration tests for the reproduction's extension features:
//! non-IID federated training, Eqn 1 codec selection, delta encoding,
//! the Laplace mechanism, and codec-family composition.

use fedsz::timing::{mbps, select_family, CostProfile, FamilyCandidate};
use fedsz::{ErrorBound, FedSz, FedSzConfig, LossyKind};
use fedsz_data::DatasetKind;
use fedsz_dp::{analyze_noise, equivalent_epsilon, error_vector, laplace_mechanism};
use fedsz_fl::codec::FamilyCodec;
use fedsz_fl::{Experiment, FlConfig};
use fedsz_nn::models::specs::ModelSpec;
use fedsz_nn::models::tiny::TinyArch;
use fedsz_nn::StateDict;

#[test]
fn non_iid_training_with_weighted_aggregation_learns() {
    let mut config = FlConfig::paper_default(TinyArch::AlexNet, DatasetKind::Cifar10Like);
    config.rounds = 6;
    config.non_iid_alpha = Some(0.3);
    config.weighted_aggregation = true;
    config.data.train_per_class = 12;
    let metrics = Experiment::new(config).run();
    let best = metrics.iter().map(|m| m.test_accuracy).fold(0.0f64, f64::max);
    assert!(best > 0.15, "non-IID run stuck at {best:.3}");
}

#[test]
fn non_iid_shards_are_skewed_but_cover_all_data() {
    let (train, _) = DatasetKind::Cifar10Like.generate(&Default::default());
    let shards = train.shard_dirichlet(4, 0.1, 3);
    assert_eq!(shards.iter().map(|s| s.len()).sum::<usize>(), train.len());
    // At alpha 0.1 at least one client should be visibly specialized.
    let max_share = shards
        .iter()
        .map(|s| {
            let h = s.label_histogram();
            *h.iter().max().unwrap() as f64 / s.len() as f64
        })
        .fold(0.0f64, f64::max);
    assert!(max_share > 0.35, "expected label skew, max share {max_share:.2}");
}

/// SZ2 at REL 1e-2 on the 0.02-scaled AlexNet sample Fig 8 profiles,
/// with its compression ratio (deterministic).
fn figure8_sample() -> (StateDict, FedSz, Vec<u8>) {
    let sample = ModelSpec::alexnet().instantiate_scaled(3, 0.02);
    let config = FedSzConfig { lossy: LossyKind::Sz2, ..FedSzConfig::default() }
        .with_error_bound(ErrorBound::Relative(1e-2));
    let fedsz = FedSz::new(config);
    let packed = fedsz.compress(&sample).unwrap().into_bytes();
    (sample, fedsz, packed)
}

/// The uplink's Eqn-1 family selector, priced for the full-size
/// AlexNet update: compress well below break-even, raw far above it.
fn assert_figure8_crossover(profile: CostProfile) {
    let candidates = [FamilyCandidate { family: "lossy", profile: Some(profile) }];
    let pick =
        |bps: f64| select_family(ModelSpec::alexnet().byte_size(), Some(bps), &candidates, 0);
    assert_eq!(pick(mbps(10.0)).choice, Some(0), "{profile:?}");
    assert_eq!(pick(mbps(1e6)).choice, None, "{profile:?}");
}

/// The codec times are pinned (a release build on a 2-vCPU x86-64 host
/// measured 1.2e-8 s/B to compress and 1.05e-8 s/B to decompress this
/// sample), so the verdict does not depend on build profile or machine
/// speed; the measured twin below runs in release builds.
#[test]
fn advisor_agrees_with_figure8_crossover() {
    let (sample, _, packed) = figure8_sample();
    assert_figure8_crossover(CostProfile {
        compress_secs_per_byte: 1.2e-8,
        decompress_secs_per_byte: 1.05e-8,
        ratio: sample.byte_size() as f64 / packed.len() as f64,
    });
}

/// [`advisor_agrees_with_figure8_crossover`] on codec times measured
/// here; debug-build codecs are several times slower than the paper's,
/// so this only compiles into release test runs.
#[cfg(not(debug_assertions))]
#[test]
fn advisor_agrees_with_measured_figure8_crossover() {
    use std::time::Instant;
    let (sample, fedsz, _) = figure8_sample();
    let t0 = Instant::now();
    let packed = fedsz.compress(&sample).unwrap();
    let compress_secs = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    fedsz.decompress(packed.bytes()).unwrap();
    let decompress_secs = t1.elapsed().as_secs_f64();
    let raw = sample.byte_size() as f64;
    assert_figure8_crossover(CostProfile {
        compress_secs_per_byte: compress_secs / raw,
        decompress_secs_per_byte: decompress_secs / raw,
        ratio: raw / packed.bytes().len() as f64,
    });
}

#[test]
fn delta_encoding_survives_fl_style_round_trip() {
    // Simulate two FL rounds: server tracks reference, client ships deltas.
    let reference = ModelSpec::mobilenet_v2().instantiate_scaled(5, 0.02);
    let fedsz = FedSz::new(FedSzConfig::default());
    // Round 1 update: reference with a small uniform drift on weights.
    let update: fedsz_nn::StateDict = reference
        .iter()
        .map(|(n, t)| {
            let mut t = t.clone();
            let bump = if n.contains("weight") { 1e-3 } else { 0.0 };
            t.map_inplace(|v| v + bump);
            (n.to_owned(), t)
        })
        .collect();
    let packed = fedsz.compress_delta(&update, &reference).unwrap();
    let restored = fedsz.decompress_delta(packed.bytes(), &reference).unwrap();
    assert_eq!(restored.len(), update.len());
    for (name, tensor) in update.iter() {
        let err =
            fedsz_codec::stats::max_abs_error(tensor.data(), restored.get(name).unwrap().data());
        assert!(err <= 1e-3, "{name}: {err}");
    }
}

#[test]
fn compression_noise_vs_laplace_mechanism_comparison() {
    // The future-work question: how does FedSZ's implicit noise compare
    // with explicit DP noise at matched epsilon?
    let dict = ModelSpec::mobilenet_v2().instantiate_scaled(9, 0.02);
    let fedsz = FedSz::default();
    let packed = fedsz.compress(&dict).unwrap();
    let restored = fedsz.decompress(packed.bytes()).unwrap();
    let mut errors = Vec::new();
    for (name, tensor) in dict.iter() {
        if fedsz::partition::is_lossy(name, tensor.len(), 1000) {
            errors.extend(error_vector(tensor.data(), restored.get(name).unwrap().data()));
        }
    }
    let eps = equivalent_epsilon(&errors, 1.0);
    assert!(eps.is_finite() && eps > 0.0);
    // Now add explicit mechanism noise at that epsilon and check scale.
    let mut synthetic = vec![0.0f32; errors.len()];
    laplace_mechanism(&mut synthetic, 1.0, eps, 11);
    let implicit = analyze_noise(&errors);
    let explicit = analyze_noise(&synthetic);
    let ratio = implicit.laplace.scale / explicit.laplace.scale;
    assert!((0.5..2.0).contains(&ratio), "matched-epsilon noise scales should agree: {ratio:.2}");
}

#[test]
fn composed_baselines_preserve_metadata_and_shrink_wire_size() {
    let mut config = FlConfig::paper_default(TinyArch::AlexNet, DatasetKind::Cifar10Like);
    config.rounds = 1;
    config.clients = 1;
    let mut exp = Experiment::new(config);
    let global = exp.global_state().clone();
    let _ = exp.run_round(0);
    let update = exp.global_state().clone();
    let fedsz = FedSz::new(FlConfig::tiny_model_compression());
    // The update a family codec's `FUC1` delta stream reconstructs.
    let through = |codec: FamilyCodec| {
        let stream = codec.encode_delta(&update, &global, None, 5).unwrap();
        FamilyCodec::decode_delta(&stream, &global).unwrap()
    };
    let delta_size = |dict: &StateDict| fedsz.compress_delta(dict, &global).unwrap().bytes().len();

    let plain = fedsz.compress(&update).unwrap().bytes().len();
    let sparse = through(FamilyCodec::top_k(0.05).unwrap());
    let sparse_delta = delta_size(&sparse);
    assert!(
        sparse_delta * 2 < plain,
        "top-k + delta ({sparse_delta}) should easily halve plain FedSZ ({plain})"
    );

    let quant = through(FamilyCodec::quant(4, true).unwrap());
    let quant_delta = delta_size(&quant);
    assert!(quant_delta < plain, "q4s + FedSZ delta ({quant_delta}) should beat plain ({plain})");

    // Both transforms keep every entry's name and shape, and FedSZ
    // carries the composed updates' non-lossy tensors bit-exactly.
    let threshold = FlConfig::tiny_model_compression().threshold;
    for transformed in [&sparse, &quant] {
        let names = |d: &StateDict| -> Vec<(String, Vec<usize>)> {
            d.iter().map(|(n, t)| (n.to_owned(), t.shape().to_vec())).collect()
        };
        assert_eq!(names(transformed), names(&update));
        let restored = fedsz.decompress(fedsz.compress(transformed).unwrap().bytes()).unwrap();
        for (name, tensor) in transformed.iter() {
            if !fedsz::partition::is_lossy(name, tensor.len(), threshold) {
                assert_eq!(restored.get(name).unwrap(), tensor, "{name}");
            }
        }
    }
}
