//! Ablation: FedSZ as a "last step" on top of sparsification and
//! quantization (the paper's Section III-C composition argument).
//!
//! Trains one FL round, then compares the wire size of the client update
//! under: raw; FedSZ alone; FedSZ on the delta; the Top-K and quantized
//! `FUC1` delta streams the uplink ships; and FedSZ applied to the
//! update those streams reconstruct (sparsified or quantized delta on
//! top of the global).

use fedsz::FedSz;
use fedsz_bench::{print_table, Args};
use fedsz_data::DatasetKind;
use fedsz_fl::codec::FamilyCodec;
use fedsz_fl::{Experiment, FlConfig};
use fedsz_nn::models::tiny::TinyArch;
use fedsz_nn::StateDict;

fn main() {
    let args = Args::parse();
    let fraction: f64 = args.get("--topk", 0.05);
    let bits: u8 = args.get("--bits", 8);

    // One trained client update and the global model it started from.
    let mut config = FlConfig::paper_default(TinyArch::AlexNet, DatasetKind::Cifar10Like);
    config.rounds = 1;
    config.clients = 1;
    let mut exp = Experiment::new(config);
    let global = exp.global_state().clone();
    let _ = exp.run_round(0);
    let update = exp.global_state().clone(); // 1 client => global == its update

    let fedsz = FedSz::new(FlConfig::tiny_model_compression());
    let raw = update.byte_size();
    let size = |dict: &StateDict| fedsz.compress(dict).unwrap().bytes().len();
    let delta_size = |dict: &StateDict| fedsz.compress_delta(dict, &global).unwrap().bytes().len();
    // A family codec's stream size and the update it reconstructs.
    let family = |codec: FamilyCodec| {
        let stream = codec.encode_delta(&update, &global, None, 9).expect("finite update");
        let decoded = FamilyCodec::decode_delta(&stream, &global).expect("own stream");
        (stream.len(), decoded)
    };
    let (sparse_stream, sparse) = family(FamilyCodec::top_k(fraction).expect("--topk in (0, 1]"));
    let (quant_stream, quant) = family(FamilyCodec::quant(bits, true).expect("--bits 4 or 8"));

    let row = |name: String, bytes: usize| {
        vec![name, format!("{bytes}"), format!("{:.2}", raw as f64 / bytes as f64)]
    };
    let topk = format!("top-{:.0}%", fraction * 100.0);
    let q = format!("q{bits}s");
    let rows = vec![
        row("raw update".into(), raw),
        row("FedSZ alone".into(), size(&update)),
        row("FedSZ delta (vs global)".into(), delta_size(&update)),
        row(format!("{topk} FUC1 stream"), sparse_stream),
        row(format!("{topk} + FedSZ delta"), delta_size(&sparse)),
        row(format!("{q} FUC1 stream"), quant_stream),
        row(format!("{q} + FedSZ delta"), delta_size(&quant)),
    ];
    print_table(
        "Ablation: composing FedSZ with sparsification/quantization",
        &["Pipeline", "Bytes", "Ratio vs raw"],
        &rows,
    );
}
