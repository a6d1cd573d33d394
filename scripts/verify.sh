#!/usr/bin/env bash
# Full offline verification: build, test, lint, format. This is the same
# gate CI would run; it needs no network access and no external crates.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --release --workspace

echo "== tests =="
cargo test -q --workspace

echo "== frozen benchmark API =="
# The benchmark crate under benchmark/ compiles against the workspace
# crates; building and testing it here catches an API change that would
# break it before the pipeline's paired benchmark runs do.
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "== chaos (fault-injection suite, three seeds) =="
# The suite reads CHAOS_SEED (default 42); sweeping a few fixed seeds
# catches seed-dependent regressions in the recovery paths.
for seed in 42 7 1234; do
    CHAOS_SEED=$seed cargo test -q --test chaos
done
# Smoke the degradation CSV: goodput must be present and the run fault-free
# at rate 0.
cargo run -q --release -p hpu-bench --bin repro -- chaos \
    --jobs 8 --rates 0,0.2 --backend sim --seed 42 \
    | grep -q '^sim,0,8,8,' || { echo "chaos CSV smoke failed"; exit 1; }

echo "== fleet scaling (smoke) =="
# The multi-node layer must produce the pinned scaling CSV: header plus a
# 4-node row at saturating load where the fleet still completes more than
# a lone node would.
cargo run -q --release -p hpu-bench --bin repro -- fleet \
    --jobs 16 --nodes 1,4 --rates 6,96 --seed 42 \
    | grep -q '^4,96,16,' || { echo "fleet CSV smoke failed"; exit 1; }

echo "== crash recovery (smoke) =="
# The node-crash fault domain must produce the pinned recovery CSV: at
# seed 43 the rate-0.3 plan crashes exactly one of the 4 nodes, and the
# everylevel row must recover checkpointed work (11th column is
# levels_saved) while the off row restarts it from scratch — both at
# full goodput.
recover_csv=$(cargo run -q --release -p hpu-bench --bin repro -- recover \
    --jobs 16 --rates 0,0.3 --seed 43)
echo "$recover_csv" | grep -q '^policy,crash_rate,' || { echo "recover CSV header missing"; exit 1; }
echo "$recover_csv" | grep -q '^off,0,16,16,1.0000,0.0000,0,0,0,0,0,0' \
    || { echo "recover CSV rate-0 row not fault-free"; exit 1; }
echo "$recover_csv" | awk -F, '$1 == "everylevel" && $2 == 0.3 && $4 == 16 && $11 > 0 { found = 1 } END { exit !found }' \
    || { echo "recover CSV smoke failed: everylevel saved no levels at rate 0.3"; exit 1; }
echo "$recover_csv" | awk -F, '$1 == "off" && $2 == 0.3 && $4 == 16 && $11 == 0 { found = 1 } END { exit !found }' \
    || { echo "recover CSV smoke failed: off row should save no levels"; exit 1; }

echo "== cross-job batching (smoke) =="
# The batching curve must render both policy row groups, stay
# deterministic, and the batch rows must actually form batches at an
# overloaded rate (the 9th column is batches formed).
batch_csv=$(cargo run -q --release -p hpu-bench --bin repro -- batch \
    --jobs 24 --rates 1,3,8 --seed 42)
echo "$batch_csv" | grep -q '^mode,rate,' || { echo "batch CSV header missing"; exit 1; }
echo "$batch_csv" | grep -q '^off,8,24,' || { echo "batch CSV off rows missing"; exit 1; }
echo "$batch_csv" | awk -F, '$1 == "batch" && $2 == 8 && $9 > 0 { found = 1 } END { exit !found }' \
    || { echo "batch CSV smoke failed: no batches formed at rate 8"; exit 1; }

echo "== perf snapshot (smoke) =="
# The quick matrix must produce a parseable, schema-compatible snapshot;
# magnitude is not gated here (wall-clock metrics vary per machine), so
# the comparison runs in --smoke mode against the newest committed
# baseline (the highest-seq BENCH_*.json at the repo root).
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
cargo run -q --release -p hpu-bench --bin repro -- perf \
    --quick --label verify --seed 42 --out "$tmpdir"
cargo run -q --release -p hpu-bench --bin repro -- perf \
    --compare-newest . "$tmpdir/BENCH_verify.json" --smoke \
    || { echo "perf snapshot smoke comparison failed"; exit 1; }

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustfmt =="
cargo fmt --all --check

echo "verify: OK"
