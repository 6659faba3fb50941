#!/usr/bin/env bash
# Local CI gate: formatting, lints, release build, tests, and a compile
# check of every facade example. Run from the repo root before pushing.
set -euo pipefail
cd "$(dirname "$0")"

# The benchmark build may refresh the tracked perfbench/Cargo.lock, the
# smoke steps below rewrite the measured numbers in the tracked
# results/BENCH_*.json files, and the exhibit harnesses rewrite the tracked
# results/*.svg figures. Their tracked copies go back on exit, so the gate
# leaves the tree as it found it; the checks on them run before that.
saved=$(mktemp -d)
exhibits=$(mktemp -d)
cp --parents perfbench/Cargo.lock results/BENCH_*.json results/*.svg "$saved"
trap 'cp -r "$saved"/. .; rm -rf "$saved" "$exhibits"' EXIT

echo "==> Rust line counts (report only, never fails)"
# The two counts the ROADMAP's simplicity gates read: every .rs line in
# crates/, shims/, src/, tests/ and examples/, and the non-test share of
# it — each file outside a tests/ directory, up to its first top-level
# #[cfg(test)]. xargs may split the file list, so the per-call counts sum.
rust_dirs=(crates shims src tests examples)
total=$(find "${rust_dirs[@]}" -name '*.rs' -print0 | xargs -0 cat | wc -l || true)
nontest=$(find "${rust_dirs[@]}" -name '*.rs' -not -path 'tests/*' -not -path '*/tests/*' -print0 |
    xargs -0 awk 'FNR == 1 { live = 1 } /^#\[cfg\(test\)\]/ { live = 0 } live { n++ }
                  END { print n + 0 }' | awk '{ s += $1 } END { print s + 0 }' || true)
echo "Rust lines: $total total, $nontest non-test"

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

echo "==> public functions and constants only their own unit tests name"
# Every `pub fn`, `pub const` and `pub static` of crates/*/src and src/
# (outside unit tests) must be named, as a word, somewhere in the
# workspace or the benchmark on a line that counts as a use; a
# `pub const fn` is a function. A line does not count when it is a `//`
# comment, part of a `pub use` statement, or in the unit tests of a file
# that defines the name (past its first top-level #[cfg(test)]); nor does
# the name right after `fn`, `const` or `static`. An item re-exported as
# `pub use a as b` is looked for under `b`. The first pass collects the
# names, their kinds, their defining files and the aliases; the second
# looks for uses.
rs_files=$(find crates src tests examples shims perfbench/src -name '*.rs' | sort)
# shellcheck disable=SC2086 # the file list is meant to split
unnamed=$(awk '
    FNR == 1 { tail = 0; reexport = 0; lib = FILENAME ~ /^(crates\/[^\/]+\/)?src\// }
    /^#\[cfg\(test\)\]/ { tail = 1 }
    /^[[:space:]]*pub(\([a-z]+\))? use / { reexport = 1 }
    reexport {
        for (s = $0; pass == 1 && match(s, /[A-Za-z_][A-Za-z0-9_]* as [A-Za-z_][A-Za-z0-9_]*/);
             s = substr(s, RSTART + RLENGTH)) {
            split(substr(s, RSTART, RLENGTH), w, " as ")
            alias[w[2]] = w[1]
        }
        if (/;/) reexport = 0
        next
    }
    /^[[:space:]]*\/\// { next }
    pass == 1 {
        for (s = $0; lib && !tail && match(s, /pub (const fn|fn|const|static) [A-Za-z_][A-Za-z0-9_]*/);
             s = substr(s, RSTART + RLENGTH)) {
            k = split(substr(s, RSTART, RLENGTH), w, " ")
            public[w[k]] = (w[2] == "fn" || w[3] == "fn") ? "fn" : w[2]
            defined[w[k], FILENAME] = 1
        }
        next
    }
    {
        split("", def)
        for (s = $0; match(s, /(^|[^A-Za-z0-9_'"'"'])(const[[:space:]]+fn|fn|const|static)[[:space:]]+[A-Za-z_][A-Za-z0-9_]*/);
             s = substr(s, RSTART + RLENGTH)) {
            k = split(substr(s, RSTART, RLENGTH), w, /[^A-Za-z0-9_]+/)
            def[w[k]] = 1
        }
        k = split($0, tok, /[^A-Za-z0-9_]+/)
        for (i = 1; i <= k; i++) {
            n = (tok[i] in alias) ? alias[tok[i]] : tok[i]
            if ((n in public) && !(tok[i] in def) && !(tail && (n, FILENAME) in defined))
                used[n] = 1
        }
    }
    END { for (n in public) if (!(n in used)) print "pub " public[n] " " n " is named only by its definition, a pub use or its own unit tests" }
' pass=1 $rs_files pass=2 $rs_files | sort)
if [ -n "$unnamed" ]; then
    echo "$unnamed"
    exit 1
fi

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

echo "==> exhibits (each deterministic figure harness reprints its results/ file)"
# The simulator is deterministic, so each harness's stdout must equal its
# committed results/<name>.txt byte for byte, and the figures it rewrites
# must equal the committed results/*.svg. results/README.md names the
# harnesses that stay manual (wall-clock columns or minutes of runtime).
for name in table2 table3 fig4_heatmap fig5_breakdown fig9_kernel fig10_e2e \
    fig11_segments_streams format_compare; do
    cargo run --release -q -p scalfrag-bench --bin "$name" >"$exhibits/$name.txt"
    if ! cmp -s "$exhibits/$name.txt" "results/$name.txt"; then
        echo "$name: stdout differs from results/$name.txt"
        diff "results/$name.txt" "$exhibits/$name.txt" || true
        exit 1
    fi
done
git diff --exit-code -- 'results/*.svg'

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
