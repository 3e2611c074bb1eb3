#!/usr/bin/env bash
# Full verification sweep for the hermetic workspace. Everything here must
# pass with no network access and no crate registry.
#
#   scripts/verify.sh          # tier-1 + full workspace + benches compile
#
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== offline build (debug) =="
cargo build --offline

echo "== static analysis: ssd-lint (all rules, JSON report) =="
cargo build -q --offline --release -p ssd-lint
lint_start="$(date +%s)"
if ! target/release/ssd-lint --root . --format json > target/lint-report.json; then
  echo "ERROR: lint violations — report follows (also at target/lint-report.json)"
  cat target/lint-report.json
  exit 1
fi
lint_elapsed="$(( $(date +%s) - lint_start ))"
grep -q '"count": 0' target/lint-report.json
echo "lint report: target/lint-report.json (clean, ${lint_elapsed}s)"
# Runtime budget smoke: the analyzer must stay cheap enough to run
# first on every verify sweep (a cold workspace walk is ~100ms; 60s
# catches an accidental quadratic blowup, not normal variance).
if [ "${lint_elapsed}" -gt 60 ]; then
  echo "ERROR: ssd-lint runtime budget exceeded (${lint_elapsed}s > 60s)"
  exit 1
fi

echo "== doc gate: rustdoc builds warning-free =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

echo "== tier-1: release build =="
cargo build --release --offline

echo "== tier-1: root test suite =="
cargo test -q --offline

echo "== full workspace test suite =="
cargo test -q --offline --workspace

echo "== benches compile (all 5 targets) =="
cargo bench --no-run --offline --workspace

echo "== bench smoke: bench_sim (incl. fastforward + encode_stream/decode_stream) + ML kernels + flat predict + history compare =="
SSD_BENCH_SAMPLES=2 cargo bench --offline -p ssd-bench --bench bench_sim

SSD_BENCH_SAMPLES=2 cargo bench --offline -p ssd-bench --bench bench_ml_kernels train_2k_rows
SSD_BENCH_SAMPLES=2 cargo bench --offline -p ssd-bench --bench bench_flat_predict flat_predict
scripts/bench_compare.sh

echo "== streaming smoke: generate -> summarize, truncated/corrupt archives rejected =="
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
# 800 days so staggered deployment leaves real report data in the file
# (short horizons produce near-empty archives a truncation can't corrupt).
target/release/ssdgen --out "$smoke_dir" --drives 7 --days 800 --seed 99 --format bin
target/release/ssdstat --trace "$smoke_dir/trace.ssdfs" > /dev/null
archive_bytes="$(wc -c < "$smoke_dir/trace.ssdfs")"
head -c "$((archive_bytes / 2))" "$smoke_dir/trace.ssdfs" > "$smoke_dir/truncated.ssdfs"
if target/release/ssdstat --trace "$smoke_dir/truncated.ssdfs" > /dev/null 2>&1; then
  echo "ERROR: ssdstat accepted a truncated archive"; exit 1
fi
printf 'not an archive' > "$smoke_dir/corrupt.ssdfs"
if target/release/ssdstat --trace "$smoke_dir/corrupt.ssdfs" > /dev/null 2>&1; then
  echo "ERROR: ssdstat accepted a corrupt archive"; exit 1
fi

echo "== fast-forward smoke: --fast-forward archive byte-identical, --importance decodable =="
target/release/ssdgen --out "$smoke_dir/ff" --drives 7 --days 800 --seed 99 \
  --format bin --fast-forward
cmp "$smoke_dir/trace.ssdfs" "$smoke_dir/ff/trace.ssdfs" \
  || { echo "ERROR: fast-forward archive diverged from day-by-day bytes"; exit 1; }
target/release/ssdgen --out "$smoke_dir/imp" --drives 7 --days 800 --seed 99 \
  --format bin --fast-forward --importance 4
target/release/ssdstat --trace "$smoke_dir/imp/trace.ssdfs" > /dev/null

echo "== online prediction smoke: train + rank streamed fleet, bad archives rejected =="
# A larger fleet so the training pass sees both classes (swaps are rare).
target/release/ssdgen --out "$smoke_dir/predict" --drives 40 --days 800 --seed 11 --format bin
target/release/ssdpredict --trace "$smoke_dir/predict/trace.ssdfs" \
  --lookahead 14 --sample-rate 0.5 --seed 7 --trees 10 > /dev/null
if target/release/ssdpredict --trace "$smoke_dir/truncated.ssdfs" > /dev/null 2>&1; then
  echo "ERROR: ssdpredict accepted a truncated archive"; exit 1
fi
if target/release/ssdpredict --trace "$smoke_dir/corrupt.ssdfs" > /dev/null 2>&1; then
  echo "ERROR: ssdpredict accepted a corrupt archive"; exit 1
fi

echo "== fleet service smoke: framed queries answered, malformed frames rejected =="
# Frame = 4-byte little-endian length prefix + JSON body.
frame() {
  local body="$1" len=${#1}
  # shellcheck disable=SC2059  # the format string is built from hex escapes
  printf "$(printf '\\x%02x\\x%02x\\x%02x\\x%02x' \
    "$((len & 0xff))" "$((len >> 8 & 0xff))" "$((len >> 16 & 0xff))" "$((len >> 24 & 0xff))")"
  printf '%s' "$body"
}
{ frame '{"q":"info"}'; frame '[{"q":"summary"},{"q":"topk","k":3}]'; } \
  | target/release/ssdserve --trace "$smoke_dir/predict/trace.ssdfs" \
      --shards 3 --trees 8 --seed 7 --lookahead 14 --sample-rate 0.5 \
      > "$smoke_dir/serve_out.bin"
serve_bytes="$(wc -c < "$smoke_dir/serve_out.bin")"
if [ "$serve_bytes" -lt 8 ]; then
  echo "ERROR: ssdserve produced no response frames"; exit 1
fi
if frame 'this is not json' \
  | target/release/ssdserve --trace "$smoke_dir/predict/trace.ssdfs" \
      --shards 2 --model none > /dev/null 2>&1; then
  echo "ERROR: ssdserve accepted a malformed frame"; exit 1
fi

echo "== examples compile =="
cargo build --offline --examples

echo "verify: all green"
