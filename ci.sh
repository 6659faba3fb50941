#!/usr/bin/env bash
# Local CI gate: formatting, lints, release build, tests, and a compile
# check of every facade example. Run from the repo root before pushing.
set -euo pipefail
cd "$(dirname "$0")"

# The benchmark build may refresh the tracked perfbench/Cargo.lock, and the
# smoke steps below rewrite the measured numbers in the tracked
# results/BENCH_*.json files. Their tracked copies go back on exit, so the
# gate leaves the tree as it found it; the `test -s` checks run before that.
saved=$(mktemp -d)
cp --parents perfbench/Cargo.lock results/BENCH_*.json "$saved"
trap 'cp -r "$saved"/. .; rm -rf "$saved"' EXIT

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> unused dependency declarations"
# Every [dependencies] entry of a workspace crate must be named (as its
# underscore identifier) on a non-comment line somewhere in that crate's
# src, and every [dev-dependencies] entry somewhere in its src, tests,
# benches or examples; a mention in a `//` comment does not count.
unused=0
for toml in crates/*/Cargo.toml; do
    dir=$(dirname "$toml")
    while read -r section dep; do
        dirs=("$dir/src")
        if [ "$section" = "[dev-dependencies]" ]; then
            dirs+=("$dir/tests" "$dir/benches" "$dir/examples")
        fi
        uses=$(grep -rhw --include='*.rs' "${dep//-/_}" "${dirs[@]}" 2>/dev/null || true)
        if ! grep -qvE '^[[:space:]]*(//|$)' <<<"$uses"; then
            echo "$toml: $section entry '$dep' is never named in the crate outside comments"
            unused=1
        fi
    done < <(awk '/^\[/ { section = $0; next }
                  (section == "[dependencies]" || section == "[dev-dependencies]") &&
                  /^[A-Za-z0-9_-]+ *[.=]/ { split($0, a, /[ .=]/); print section, a[1] }' "$toml")
done
test "$unused" -eq 0

echo "==> public functions nothing names"
# Every `pub fn` of crates/*/src and src/ must be named (as a word)
# somewhere in the workspace or the benchmark, on a line that is neither
# a `//` comment nor a `fn` line of that name. Each grep's output goes
# into a variable: a pipe into `grep -q` can fail the producer with
# SIGPIPE under pipefail.
unnamed=0
names=$(grep -rhoE --include='*.rs' 'pub fn [A-Za-z_][A-Za-z0-9_]*' crates/*/src src | sort -u)
for name in ${names//pub fn /}; do
    uses=$(grep -rhw --include='*.rs' -- "$name" crates src tests examples shims perfbench/src || true)
    named=$(grep -vE "^[[:space:]]*//|fn[[:space:]]+$name\b" <<<"$uses" || true)
    if [ -z "$named" ]; then
        echo "pub fn $name is never named outside comments and its own definition"
        unnamed=1
    fi
done
test "$unnamed" -eq 0

echo "==> cargo build --release"
cargo build --release

echo "==> benchmark build (perfbench/ is its own workspace, outside --workspace)"
CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}" \
    cargo build --offline --release --manifest-path perfbench/Cargo.toml

echo "==> benchmark modelled digests (no failed operations; simulated results bit-identical)"
# The built binary runs directly: perfbench/run.py takes whole seconds
# only. A deliberate modelling change re-pins a digest here, with its
# reason, as the golden pins in tests/fingerprints.rs are re-pinned.
bench="${CARGO_TARGET_DIR:-.bench_build}/release/perfbench"
check_digest() { # workload seed seconds digest
    out=$("$bench" --workload "$1" --seed "$2" --seconds "$3" --trace 0)
    if ! grep -q "\"modelled_digest\": \"$4\"" <<<"$out" ||
        ! tail -n 1 <<<"$out" | grep -q '"failed": 0,'; then
        echo "$1 seed $2: want modelled digest $4 and no failed operations, got:"
        echo "$out"
        exit 1
    fi
}
check_digest serve-dry 2 1 580293e3f4a05b74
check_digest serve-dry 3 1 3eaa6d0768e762aa
check_digest als-nell2 3 0.01 1b5d3f9e7eb0c5c5
check_digest als-nell2 5 0.01 a3a244917bf22fe5

echo "==> benchmark traced replay (the per-layer replay lands every output where the program did)"
# A traced run replays the workload's calls layer by layer and checks
# each result against the program's own; its spans go to .bench_out/.
check_traced() { # workload seed
    out=$("$bench" --workload "$1" --seed "$2" --seconds 1 --trace 1)
    if ! tail -n 1 <<<"$out" | grep -q '"correct": true'; then
        echo "$1 seed $2: the traced replay does not match the program, got:"
        echo "$out"
        exit 1
    fi
}
check_traced serve-dry 2
check_traced als-nell2 1

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
