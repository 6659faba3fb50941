//! Conformance-level driver for the gpusim race checker.
//!
//! Runs every kernel's write trace (see `scalfrag_kernels::race`) over a
//! tensor and launch configuration, and packages the per-kernel
//! [`RaceReport`]s plus the mutant self-test CI gates on: the checker must
//! *catch* the deliberately-racy mutants on a contended tensor — the
//! plain-store COO kernel, and the segmented-scan kernel with its carry
//! applied as a plain store to the shared output row — and must *pass*
//! every shipped kernel: a checker that cannot catch the mutants proves
//! nothing by passing the real kernels.

use scalfrag_balance::{CHUNK_LEN, FLYCOO_SEG_LEN};
use scalfrag_gpusim::{AccessLog, LaunchConfig, RaceReport};
use scalfrag_kernels::race::{
    trace_balanced, trace_bcsf, trace_coo, trace_csf, trace_fcoo, trace_flycoo, trace_hicoo,
    trace_racy_balanced_carry, trace_racy_coo, trace_tiled,
};
use scalfrag_kernels::BcsfKernel;
use scalfrag_tensor::{
    gen, ChunkedTensor, CooTensor, CsfTensor, FCooTensor, FlycooTensor, HiCooTensor,
};

/// One kernel's race verdict.
pub struct RaceVerdict {
    /// Kernel name (matches the kernel's `NAME` constant).
    pub kernel: &'static str,
    /// The checker's report for this kernel's trace.
    pub report: RaceReport,
}

/// Traces every shipped kernel over `tensor` and checks each for races.
pub fn check_all_kernels(
    tensor: &CooTensor,
    mode: usize,
    rank: usize,
    cfg: LaunchConfig,
) -> Vec<RaceVerdict> {
    let sorted = tensor.sorted_for_mode(mode);
    let mut verdicts = Vec::new();

    let mut log = AccessLog::new();
    trace_coo(tensor, mode, rank, cfg, &mut log);
    verdicts.push(RaceVerdict { kernel: "coo-atomic", report: log.check() });

    let mut log = AccessLog::new();
    trace_tiled(&sorted, mode, rank, cfg, &mut log);
    verdicts.push(RaceVerdict { kernel: "scalfrag-tiled", report: log.check() });

    let mut log = AccessLog::new();
    trace_csf(&CsfTensor::from_coo(tensor, mode), rank, cfg, &mut log);
    verdicts.push(RaceVerdict { kernel: "csf-fiber", report: log.check() });

    let mut log = AccessLog::new();
    let split = BcsfKernel::split(&sorted, mode, 64);
    trace_bcsf(&sorted, mode, &split, rank, cfg, &mut log);
    verdicts.push(RaceVerdict { kernel: "bcsf-heavy-light", report: log.check() });

    let mut log = AccessLog::new();
    trace_hicoo(&HiCooTensor::from_coo(tensor, 3), mode, rank, cfg, &mut log);
    verdicts.push(RaceVerdict { kernel: "hicoo-block", report: log.check() });

    let mut log = AccessLog::new();
    trace_fcoo(&FCooTensor::from_coo(tensor, mode, 128), rank, cfg, &mut log);
    verdicts.push(RaceVerdict { kernel: "fcoo-segreduce", report: log.check() });

    let mut log = AccessLog::new();
    trace_balanced(&ChunkedTensor::from_coo(tensor, mode, CHUNK_LEN), rank, cfg, &mut log);
    verdicts.push(RaceVerdict { kernel: "balance-segscan", report: log.check() });

    let mut log = AccessLog::new();
    trace_flycoo(&FlycooTensor::from_coo(tensor, FLYCOO_SEG_LEN), mode, rank, cfg, &mut log);
    verdicts.push(RaceVerdict { kernel: "balance-flycoo", report: log.check() });

    verdicts
}

/// The CI self-test: the mutant must be caught, the shipped kernels must
/// all be clean. Returns a descriptive error naming the first violation.
pub fn self_test() -> Result<(), String> {
    // Skewed tensor: many entries per slice guarantees cross-thread
    // contention on output rows, so the mutant cannot slip through.
    let tensor = gen::zipf_slices(&[48, 32, 24], 4_000, 1.2, 1301);
    let cfg = LaunchConfig::new(16, 64);
    let rank = 8;

    let mut log = AccessLog::new();
    trace_racy_coo(&tensor, 0, rank, cfg, &mut log);
    let mutant = log.check();
    if mutant.is_race_free() {
        return Err("race checker failed to catch the plain-store COO mutant".into());
    }

    // Second mutant: the segmented-scan kernel with its carry applied as a
    // plain store to the shared output row instead of through the carry
    // cells + single resolver. A small chunk length guarantees cut rows.
    let mut log = AccessLog::new();
    let chunked = ChunkedTensor::from_coo(&tensor, 0, 64);
    if chunked.boundary_rows().is_empty() {
        return Err("self-test tensor produced no cut rows; mutant check is vacuous".into());
    }
    trace_racy_balanced_carry(&chunked, rank, cfg, &mut log);
    if log.check().is_race_free() {
        return Err("race checker failed to catch the plain-store segscan carry mutant".into());
    }

    for mode in 0..tensor.order() {
        for v in check_all_kernels(&tensor, mode, rank, cfg) {
            if !v.report.is_race_free() {
                return Err(format!(
                    "kernel {} mode {mode} flagged by race checker: {}",
                    v.kernel,
                    v.report.summary()
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_test_passes() {
        self_test().unwrap();
    }

    #[test]
    fn verdicts_cover_all_kernels() {
        let t = gen::uniform(&[16, 12, 10], 400, 3);
        let names: Vec<_> = check_all_kernels(&t, 0, 4, LaunchConfig::new(4, 32))
            .into_iter()
            .map(|v| v.kernel)
            .collect();
        assert_eq!(
            names,
            vec![
                "coo-atomic",
                "scalfrag-tiled",
                "csf-fiber",
                "bcsf-heavy-light",
                "hicoo-block",
                "fcoo-segreduce",
                "balance-segscan",
                "balance-flycoo"
            ]
        );
    }
}
