//! Figure 9: weak and strong scaling at 10 Mbps.
//!
//! The paper scales MPI ranks that each host many clients. Here every
//! row is one round of the `RoundEngine` hosting N clients on a pool W
//! threads wide (`FlConfig::worker_threads`). Weak scaling: one client
//! per worker thread, 2..N workers. Strong scaling: a fixed client
//! population over growing worker counts (the paper fixes 127 clients;
//! default here is 31, `--clients` to change). Training and compression
//! are real; the shared 10 Mbps server link is simulated on the
//! engine's virtual clock. Default worker sweep stops at 16
//! (`--max-workers`).
//!
//! Exits non-zero when any row's FedSZ comm is not below its plain
//! comm, or when the strong-scaling rows differ in comm across worker
//! counts (the bytes on the wire cannot depend on the pool width).

use fedsz_bench::{print_table, Args};
use fedsz_data::{DatasetKind, SyntheticConfig};
use fedsz_fl::{Experiment, FlConfig};
use fedsz_nn::models::tiny::TinyArch;
use std::time::Instant;

/// One row of a scaling curve.
struct Point {
    /// Wall time of the round minus its validation: broadcast, local
    /// training and compression on the pool, server decode and merge.
    compute_secs: f64,
    /// Serialized transfer time on the shared server link.
    comm_secs: f64,
}

impl Point {
    /// The figure's y-axis: epoch time (compute + the serialized link).
    fn epoch_secs(&self) -> f64 {
        self.compute_secs + self.comm_secs
    }
}

/// Runs one round of MobileNetV2 on CIFAR-10-like data with `clients`
/// clients trained `workers` wide, FedSZ-compressed or plain.
fn run_round(compressed: bool, clients: usize, workers: usize) -> Point {
    let config = FlConfig::builder()
        .arch(TinyArch::MobileNetV2)
        .dataset(DatasetKind::Cifar10Like)
        .clients(clients)
        .rounds(1)
        .batch_size(8)
        .seed(3)
        .data(SyntheticConfig { seed: 3, train_per_class: 4, test_per_class: 1, resolution: 16 })
        .compression(compressed.then(FlConfig::tiny_model_compression))
        .bandwidth_bps(Some(10e6))
        .worker_threads(workers)
        .build();
    let mut engine = Experiment::new(config);
    let t0 = Instant::now();
    let m = engine.run_round(0);
    Point { compute_secs: t0.elapsed().as_secs_f64() - m.validation_secs, comm_secs: m.comm_secs }
}

fn main() {
    let args = Args::parse();
    let max_workers: usize = args.get("--max-workers", 16);
    let strong_clients: usize = args.get("--clients", 31);
    let mut worker_counts = Vec::new();
    let mut w = 2usize;
    while w <= max_workers {
        worker_counts.push(w);
        w *= 2;
    }
    let mut failures: Vec<String> = Vec::new();
    let mut check_savings = |table: &str, w: usize, fedsz: &Point, plain: &Point| {
        if fedsz.comm_secs >= plain.comm_secs {
            failures.push(format!(
                "{table} at {w} workers: FedSZ comm {:.3} s is not below plain {:.3} s",
                fedsz.comm_secs, plain.comm_secs
            ));
        }
    };

    let mut rows = Vec::new();
    for &w in &worker_counts {
        let p_fedsz = run_round(true, w, w);
        let p_plain = run_round(false, w, w);
        check_savings("weak scaling", w, &p_fedsz, &p_plain);
        rows.push(vec![
            format!("{w}"),
            format!("{:.2}", p_fedsz.epoch_secs()),
            format!("{:.2}", p_plain.epoch_secs()),
            format!("{:.2}", p_fedsz.comm_secs),
            format!("{:.2}", p_plain.comm_secs),
        ]);
    }
    print_table(
        "Figure 9a: weak scaling (one client per worker, 10 Mbps)",
        &["Workers", "FedSZ epoch (s)", "Plain epoch (s)", "FedSZ comm (s)", "Plain comm (s)"],
        &rows,
    );

    let mut rows = Vec::new();
    let mut strong_comm: Vec<(usize, f64, f64)> = Vec::new();
    for &w in &worker_counts {
        let p_fedsz = run_round(true, strong_clients, w);
        let p_plain = run_round(false, strong_clients, w);
        check_savings("strong scaling", w, &p_fedsz, &p_plain);
        strong_comm.push((w, p_fedsz.comm_secs, p_plain.comm_secs));
        rows.push(vec![
            format!("{w}"),
            format!("{:.2}", p_fedsz.epoch_secs()),
            format!("{:.2}", p_plain.epoch_secs()),
            format!("{:.2}", p_fedsz.compute_secs),
        ]);
    }
    print_table(
        &format!("Figure 9b: strong scaling ({strong_clients} clients, 10 Mbps)"),
        &["Workers", "FedSZ epoch (s)", "Plain epoch (s)", "FedSZ compute (s)"],
        &rows,
    );
    if let Some(&(w0, fedsz0, plain0)) = strong_comm.first() {
        for &(w, fedsz, plain) in &strong_comm[1..] {
            if fedsz != fedsz0 || plain != plain0 {
                failures.push(format!(
                    "strong scaling comm moved with the worker count: {w0} workers \
                     {fedsz0} / {plain0} s, {w} workers {fedsz} / {plain} s (FedSZ / plain)"
                ));
            }
        }
    }
    println!("\nShape check vs paper: weak-scaling epoch time grows with client count");
    println!("(shared link) but FedSZ's curve is ~an order of magnitude flatter;");
    println!("strong-scaling compute time shrinks with added workers.");
    if !failures.is_empty() {
        for failure in &failures {
            eprintln!("fig9: {failure}");
        }
        std::process::exit(1);
    }
}
