#!/usr/bin/env bash
# Local CI gate: formatting, lints, release build, tests, and a compile
# check of every facade example. Run from the repo root before pushing.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> unused dependency declarations"
# Every [dependencies] entry of a workspace crate must be named (as its
# underscore identifier) somewhere in that crate's src, tests or benches.
unused=0
for toml in crates/*/Cargo.toml; do
    dir=$(dirname "$toml")
    for dep in $(awk '/^\[/ { section = $0; next }
                      section == "[dependencies]" && /^[A-Za-z0-9_-]+ *[.=]/ { split($0, a, /[ .=]/); print a[1] }' "$toml"); do
        if ! grep -rqw --include='*.rs' "${dep//-/_}" "$dir/src" "$dir/tests" "$dir/benches" 2>/dev/null; then
            echo "$toml: [dependencies] entry '$dep' is never named in the crate"
            unused=1
        fi
    done
done
test "$unused" -eq 0

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> compile-check examples"
cargo build --release --examples

echo "==> serving-layer smoke test (batch fusion >=1.5x + snapshot warm start; writes results/BENCH_serve.json)"
cargo run --release -q -p scalfrag-bench --bin serve_load -- --smoke
test -s results/BENCH_serve.json || { echo "BENCH_serve.json missing"; exit 1; }

echo "==> fault-storm smoke test"
cargo run --release -q -p scalfrag-bench --bin fault_storm -- --smoke

echo "==> conformance smoke test (differential oracle + race checker self-test)"
cargo run --release -q -p scalfrag-bench --bin conformance -- --smoke

echo "==> plan-dump smoke test (every plan builder lowers to a stable non-empty trace)"
cargo run --release -q -p scalfrag-bench --bin plan_dump -- --smoke

echo "==> optimizer smoke test (nonzero op reduction + bit-identical output; writes results/BENCH_opt.json)"
cargo run --release -q -p scalfrag-bench --bin opt_bench -- --smoke

echo "==> out-of-core smoke test (1B-nnz preset streams at footprint/8; writes results/BENCH_oom_stream.json)"
cargo run --release -q -p scalfrag-bench --bin oom_stream -- --smoke

echo "==> balance-arm smoke test (predictor picks balanced on the skewed preset at >=1.2x; writes results/BENCH_balance.json)"
cargo run --release -q -p scalfrag-bench --bin balance_bench -- --smoke

echo "==> host-pool smoke test (bit-identical at pool sizes 1/2/4/8; >=1.5x corpus speedup at 4 threads when >=4 cores; writes results/BENCH_host.json)"
cargo run --release -q -p scalfrag-bench --bin host_bench -- --smoke
test -s results/BENCH_host.json || { echo "BENCH_host.json missing"; exit 1; }

echo "CI green."
