//! The adaptive launching workflow of §IV-B / Fig. 7, end to end:
//! generate tensors → sweep MTTKRP → train the model zoo → evaluate →
//! persist the winning tree → predict configurations for fresh tensors.
//!
//! Run with `cargo run --release --example autotune_workflow`.

use scalfrag::autotune::persist::{load_tree, save_tree};
use scalfrag::autotune::sweep::sweep_tensor;
use scalfrag::autotune::trainer::{generate_corpus, select_config, train_and_evaluate};
use scalfrag::autotune::{DecisionTree, LaunchPredictor, Regressor};
use scalfrag::exec::KernelChoice;
use scalfrag::gpusim::DeviceSpec;
use scalfrag::prelude::*;

fn main() {
    let device = DeviceSpec::rtx3090();
    let space = LaunchConfig::coarse_sweep_space(&device);
    let rank = 16u32;

    // --- Offline: generate + sweep + train (Fig. 7, left half). ---
    println!("generating the training corpus and sweeping the launch space...");
    let tiers = [5_000usize, 25_000, 100_000, 400_000];
    let train = generate_corpus(&device, rank, &space, &tiers, 1);
    let test = generate_corpus(&device, rank, &space, &[12_000, 200_000], 2);
    println!("  {} training tensor-mode pairs, {} held-out pairs", train.len(), test.len());

    println!("\ntraining the model zoo (DecisionTree / Bagging / AdaBoost / kNN / Ridge)...");
    let trained = train_and_evaluate(&train, &test, &space);
    println!(
        "  {:<13} {:>10} {:>8} {:>9} {:>10} {:>14}",
        "model", "MAPE(time)", "R2(log)", "train", "select", "t(sel)/t(opt)"
    );
    for e in &trained.evals {
        println!(
            "  {:<13} {:>9.1}% {:>8.3} {:>8.3}s {:>8.0}µs {:>14.3}",
            e.name, e.mape_time, e.r2_log, e.train_time_s, e.select_time_us, e.selection_ratio
        );
    }

    // --- Persist the tree (ships with a deployment). ---
    let mut file = Vec::new();
    let tree_idx = trained.evals.iter().position(|e| e.name == "DecisionTree").unwrap();
    // Re-fit a standalone tree for persistence (the zoo boxes erase types).
    let (x, y) = scalfrag::autotune::trainer::to_samples(&train);
    let mut tree = DecisionTree::default_params();
    tree.fit(&x, &y);
    save_tree(&tree, &mut file).unwrap();
    println!(
        "\npersisted the DecisionTree ({} nodes, {} bytes); zoo MAPE was {:.1}%",
        tree.nodes().len(),
        file.len(),
        trained.evals[tree_idx].mape_time
    );
    let restored = load_tree(file.as_slice()).unwrap();

    // --- Online: predict configurations for fresh tensors (right half). ---
    let predictor =
        LaunchPredictor::from_model(Box::new(restored), LaunchConfig::sweep_space(&device), rank);
    println!("\nonline predictions on unseen tensors:");
    let fresh = [
        ("small uniform", scalfrag::tensor::gen::uniform(&[300, 200, 150], 8_000, 71)),
        ("large uniform", scalfrag::tensor::gen::uniform(&[4_000, 3_000, 1_500], 500_000, 72)),
        (
            "large skewed",
            scalfrag::tensor::gen::zipf_slices(&[2_000, 5_000, 2_000], 300_000, 1.1, 73),
        ),
    ];
    let full_space = LaunchConfig::sweep_space(&device);
    for (label, t) in &fresh {
        let cfg = predictor.predict(t, 0);
        let sweep = sweep_tensor(&device, KernelChoice::Tiled, t, 0, rank, &full_space);
        let t_sel =
            sweep.entries.iter().find(|(c, _)| *c == cfg).map(|&(_, s)| s).unwrap_or(f64::INFINITY);
        let (best_cfg, t_best) = sweep.best();
        println!(
            "  {label:<14} ({:>7} nnz): predicted {cfg} -> {:.1}µs (optimum {best_cfg} -> {:.1}µs, ratio {:.2})",
            t.nnz(),
            t_sel * 1e6,
            t_best * 1e6,
            t_sel / t_best
        );
    }

    // The same machinery, one call: select_config on the boxed best model.
    let best = trained.best();
    let cfg = select_config(best, &test[0].features, &space);
    println!(
        "\nbest zoo model ({}) would launch the first held-out tensor with {cfg}",
        best.name()
    );
}
