//! Integration tests driving the `scalfrag-cli` binary end to end.

use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_scalfrag-cli"))
}

/// A scratch path private to one test: the tests run in parallel, so a
/// shared file would be truncated by one test while another reads it.
fn scratch_path(file: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("scalfrag_cli_tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(file)
}

fn write_sample_tns(test: &str) -> std::path::PathBuf {
    let path = scratch_path(&format!("{test}.tns"));
    let t = scalfrag::tensor::gen::zipf_slices(&[40, 30, 20], 1_500, 0.8, 13);
    scalfrag::tensor::io::write_tns_file(&t, &path).unwrap();
    path
}

#[test]
fn info_reports_tensor_and_features() {
    let path = write_sample_tns("info_reports_tensor_and_features");
    let out = cli().args(["info", path.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("order     : 3"));
    assert!(text.contains("nnz       : 1500"));
    assert!(text.contains("numSlices"));
    assert!(text.contains("sliceImbalance"));
}

#[test]
fn info_on_preset_works() {
    let out = cli().args(["info", "preset:uber@4096", "--mode", "1"]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("order     : 4"));
}

#[test]
fn mttkrp_runs_on_cpu_and_parti_backends() {
    let path = write_sample_tns("mttkrp_runs_on_cpu_and_parti_backends");
    for backend in ["cpu", "parti"] {
        let out = cli()
            .args(["mttkrp", path.to_str().unwrap(), "--backend", backend, "--rank", "4"])
            .output()
            .unwrap();
        assert!(out.status.success(), "{backend} failed");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("mode-0"), "{backend}: {text}");
    }
}

#[test]
fn cpd_reports_fits() {
    let path = write_sample_tns("cpd_reports_fits");
    let out = cli()
        .args(["cpd", path.to_str().unwrap(), "--backend", "cpu", "--rank", "3", "--iters", "2"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("sweep  1"));
    assert!(text.contains("fit"));
}

#[test]
fn trace_writes_chrome_json() {
    let path = write_sample_tns("trace_writes_chrome_json");
    let trace_path = scratch_path("trace_writes_chrome_json.json");
    let out = cli()
        .args(["trace", path.to_str().unwrap(), "--out", trace_path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let json = std::fs::read_to_string(&trace_path).unwrap();
    assert!(json.contains("\"ph\":\"X\""));
    assert!(json.contains("seg0 kernel"));
    std::fs::remove_file(&trace_path).ok();
}

#[test]
fn bad_arguments_exit_nonzero() {
    let out = cli().args(["bogus-subcommand", "x"]).output().unwrap();
    assert!(!out.status.success());
    let out = cli().arg("info").output().unwrap();
    assert!(!out.status.success(), "missing tensor argument must fail");
    let out = cli().args(["info", "preset:does-not-exist"]).output().unwrap();
    assert!(!out.status.success());
    let out = cli().args(["info", "/nonexistent/path.tns"]).output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn mode_out_of_range_is_rejected() {
    let path = write_sample_tns("mode_out_of_range_is_rejected");
    let out = cli().args(["info", path.to_str().unwrap(), "--mode", "9"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("out of range"));
}
