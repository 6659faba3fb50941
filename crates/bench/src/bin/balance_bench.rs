//! Balance-arm bench: the load-balanced segmented scan and the FLYCOO
//! mode-agnostic arm against the COO/tiled baselines across the skew axis.
//!
//! Sweeps Zipf exponent × kernel arm (plus the dominant-slice synthetic —
//! the regime plain Zipf cannot reach, see `scalfrag_autotune::arms`) and
//! records, per preset: the modelled duration of every arm, the
//! cost-model argmin, the [`predict_arm`] verdict and the imbalance
//! feature buckets it fired on. Also reports the FLYCOO storage story:
//! one tensor copy + per-mode remap tables vs one re-tiled copy per mode.
//!
//! All measurements land in `results/BENCH_balance.json`.
//!
//! `balance_bench --smoke` (CI) asserts the acceptance gates:
//!
//! * the predictor picks the **Balanced** arm on the skewed preset, the
//!   cost model agrees, and the modelled speedup over the best previous
//!   arm (min of COO and tiled) is ≥ 1.2×;
//! * the predictor keeps the **Tiled** baseline on the uniform preset
//!   (and on every plain-Zipf point — the tile reduction soaks Zipf skew);
//! * the FLYCOO copy is smaller than re-tiling for every mode.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scalfrag_autotune::arms::{predict_arm, MttkrpObjective};
use scalfrag_exec::KernelChoice;
use scalfrag_gpusim::{DeviceSpec, LaunchConfig};
use scalfrag_kernels::SegmentStats;
use scalfrag_tensor::{gen, CooTensor, FeatureKey, FlycooTensor};

/// A dominant slice (`pct` % of nnz in one mode-0 row) over a uniform
/// sparse tail — the `one-fiber-heavy` / `dense-slice` corpus regime and
/// the balanced arm's win case.
fn heavy_slice(dims: &[u32], nnz: usize, pct: usize, seed: u64) -> CooTensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = CooTensor::new(dims);
    let hot = rng.gen_range(0..dims[0]);
    for i in 0..nnz {
        let v = rng.gen::<f32>() * 0.999 + 1e-3;
        let mut c: Vec<u32> = dims.iter().map(|&d| rng.gen_range(0..d)).collect();
        if i * 100 < nnz * pct {
            c[0] = hot;
        }
        t.push(&c, v);
    }
    t
}

const ARMS: [KernelChoice; 4] = [
    KernelChoice::CooAtomic,
    KernelChoice::Tiled,
    KernelChoice::Balanced,
    KernelChoice::ModeAgnostic,
];

fn arm_name(k: KernelChoice) -> &'static str {
    match k {
        KernelChoice::CooAtomic => "coo-atomic",
        KernelChoice::Tiled => "tiled",
        KernelChoice::Balanced => "balanced",
        KernelChoice::ModeAgnostic => "mode-agnostic",
    }
}

struct PresetRow {
    name: &'static str,
    zipf: Option<f64>,
    durations: Vec<(KernelChoice, f64)>,
    predicted: KernelChoice,
    reason: &'static str,
    key: FeatureKey,
    speedup_vs_best_prev: f64,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let device = DeviceSpec::rtx3090();
    let base = LaunchConfig::new(1024, 256);
    let rank = 16u32;
    let dims = [20_000u32, 200, 200];
    let nnz = 100_000;

    let mut presets: Vec<(&'static str, Option<f64>, CooTensor)> =
        vec![("uniform", None, gen::uniform(&dims, nnz, 5))];
    let exponents: &[(&str, f64)] = if smoke {
        &[("zipf-1.1", 1.1), ("zipf-1.6", 1.6)]
    } else {
        &[
            ("zipf-0.8", 0.8),
            ("zipf-1.1", 1.1),
            ("zipf-1.4", 1.4),
            ("zipf-1.6", 1.6),
            ("zipf-2.0", 2.0),
        ]
    };
    for &(name, e) in exponents {
        presets.push((name, Some(e), gen::zipf_slices(&dims, nnz, e, 5)));
    }
    presets.push(("heavy-slice-60", None, heavy_slice(&dims, nnz, 60, 5)));

    println!(
        "{:<16} {:>11} {:>11} {:>11} {:>11}  {:<14} {:>8}",
        "preset", "coo", "tiled", "balanced", "flycoo", "predicted", "speedup"
    );
    let mut rows = Vec::new();
    for (name, zipf, tensor) in &presets {
        let stats = SegmentStats::compute(tensor, 0);
        let key = FeatureKey::of(tensor, 0, rank);
        let durations: Vec<(KernelChoice, f64)> =
            ARMS.iter().map(|&k| (k, k.duration(&device, &stats, rank, base))).collect();
        let verdict = predict_arm(&key, MttkrpObjective::SingleMode);
        let get = |k: KernelChoice| durations.iter().find(|&&(g, _)| g == k).unwrap().1;
        let best_prev = get(KernelChoice::CooAtomic).min(get(KernelChoice::Tiled));
        let speedup = best_prev / get(KernelChoice::Balanced);
        println!(
            "{:<16} {:>11.3e} {:>11.3e} {:>11.3e} {:>11.3e}  {:<14} {:>7.2}x",
            name,
            get(KernelChoice::CooAtomic),
            get(KernelChoice::Tiled),
            get(KernelChoice::Balanced),
            get(KernelChoice::ModeAgnostic),
            arm_name(verdict.kernel),
            speedup
        );
        rows.push(PresetRow {
            name,
            zipf: *zipf,
            durations,
            predicted: verdict.kernel,
            reason: verdict.reason,
            key,
            speedup_vs_best_prev: speedup,
        });
    }

    // The adaptive-launch gates: the predictor must flip exactly where the
    // cost model flips — Balanced on the dominant-slice preset (by the
    // margin the acceptance criteria demand), Tiled everywhere else.
    let skewed = rows.iter().find(|r| r.name == "heavy-slice-60").unwrap();
    assert_eq!(
        skewed.predicted,
        KernelChoice::Balanced,
        "predictor must pick the load-balanced arm on the skewed preset"
    );
    assert!(
        skewed.speedup_vs_best_prev >= 1.2,
        "balanced arm's modelled speedup {:.2}x on the skewed preset is below the 1.2x gate",
        skewed.speedup_vs_best_prev
    );
    for r in rows.iter().filter(|r| r.name != "heavy-slice-60") {
        assert_eq!(
            r.predicted,
            KernelChoice::Tiled,
            "{}: the tiled baseline must stay chosen off the dominant-slice regime",
            r.name
        );
        let (argmin, _) = r
            .durations
            .iter()
            .filter(|&&(k, _)| k != KernelChoice::ModeAgnostic)
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        assert_eq!(*argmin, KernelChoice::Tiled, "{}: cost-model argmin disagrees", r.name);
    }

    // The FLYCOO storage story: one entry copy plus per-mode remap tables
    // must undercut keeping one re-tiled copy per mode.
    let sample = &presets.last().unwrap().2;
    let fly = FlycooTensor::from_coo(sample, 128);
    let (one_copy, per_mode) = (fly.byte_size(), fly.per_mode_copies_byte_size());
    assert!(
        one_copy < per_mode,
        "FLYCOO copy ({one_copy} B) must undercut per-mode re-tiling ({per_mode} B)"
    );
    println!(
        "\nflycoo storage: {:.1} MB one copy + remaps vs {:.1} MB re-tiled per mode ({:.2}x smaller)",
        one_copy as f64 / 1e6,
        per_mode as f64 / 1e6,
        per_mode as f64 / one_copy as f64
    );

    // Perf-trajectory artifact.
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"rank\": {rank},\n  \"nnz\": {nnz},\n"));
    json.push_str(&format!(
        "  \"flycoo_bytes\": {one_copy},\n  \"per_mode_copies_bytes\": {per_mode},\n"
    ));
    json.push_str("  \"presets\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let durs: Vec<String> =
            r.durations.iter().map(|&(f, d)| format!("\"{}\": {d:.6e}", arm_name(f))).collect();
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"zipf\": {}, \"predicted\": \"{}\", \"reason\": \"{}\", \
             \"gini_bucket\": {}, \"fiber_imbalance_bucket\": {}, \"imbalance_bucket\": {}, \
             \"speedup_vs_best_prev\": {:.3}, {}}}{}\n",
            r.name,
            r.zipf.map_or("null".into(), |z| format!("{z}")),
            arm_name(r.predicted),
            r.reason,
            r.key.gini_bucket,
            r.key.fiber_imbalance_bucket,
            r.key.imbalance_bucket,
            r.speedup_vs_best_prev,
            durs.join(", "),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    let path = "results/BENCH_balance.json";
    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write(path, json).expect("write bench json");
    println!("wrote {path}");

    println!(
        "\nbalance_bench: PASS (balanced arm picked on the skewed preset at {:.2}x modelled \
         speedup; tiled baseline kept on uniform and every Zipf point)",
        skewed.speedup_vs_best_prev
    );
}
