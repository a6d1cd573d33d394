#!/usr/bin/env bash
# Full offline verification: build, test, lint, format. This is the same
# gate CI runs; it needs no network access and no external crates.
#
# The tests include the golden fixtures of
# crates/bench/tests/plan_equivalence.rs, which pin every simulated
# serving sweep (serve, calibrate, chaos, fleet, batch, recover) byte for
# byte at seeds 42, 7 and 1234. Wall-clock performance is the job of the
# separate benchmark under benchmark/.
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

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustfmt =="
cargo fmt --all --check

echo "== rustdoc =="
# Broken or private intra-doc links fail here. Rustdoc skips the docs of
# private modules, so a deleted name can still linger there: grep for it.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "verify: OK"
